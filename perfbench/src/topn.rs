//! `topn`: bound-driven top-100 at `MinPts` = 20, the path of
//! `lof_cli::run_topn` — kd-tree, leaf partitions, `TopNEngine::run`.

use crate::{gen, repeat_setup, timed_loop, Args, Outcome, Spans};
use lof_core::{topn_reference, Euclidean, PartitionSource, TopNEngine};
use lof_index::KdTree;
use std::hint::black_box;
use std::path::Path;

pub const POINTS: usize = 10_000;
pub const DIMS: usize = 4;
pub const CLUSTERS: usize = 64;
pub const OUTLIERS: usize = 200;
pub const MIN_PTS: usize = 20;
pub const TOP: usize = 100;

pub fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let threads = crate::host::nproc();
    let csv = dir.join("topn.csv");
    gen::write_csv(&csv, &gen::lattice_clusters(args.seed, CLUSTERS, OUTLIERS, POINTS, DIMS))
        .map_err(|e| format!("cannot write {}: {e}", csv.display()))?;
    let engine = TopNEngine::new(MIN_PTS, TOP).with_threads(threads);
    // Set-up: load the CSV, then one warm-up op.
    let mut load_ms = Vec::new();
    let (setup_s, data) = repeat_setup(|| {
        let start = std::time::Instant::now();
        let data = crate::batch::load(&csv)?;
        load_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let tree = KdTree::new(&data, Euclidean);
        black_box(engine.run(&tree, &tree.partitions()).map_err(|e| e.to_string())?);
        Ok(data)
    })?;

    let mut spans = Spans::default();
    let mut first = None;
    let (mut partitions, mut pruned, mut refined) = (0u64, 0u64, 0u64);
    let timed = timed_loop(args, |i, traced| {
        let tree = spans.time(traced, "index.build_ms", || KdTree::new(&data, Euclidean));
        let parts = spans.time(traced, "index.partitions_ms", || tree.partitions());
        let result = spans
            .time(traced, "core.topn.run_ms", || engine.run(&tree, &parts))
            .map_err(|e| e.to_string())?;
        partitions += result.stats.partitions;
        pruned += result.stats.partitions_pruned;
        refined += result.stats.objects_refined;
        if i == 0 {
            first = Some(result.ranking);
        } else {
            black_box(result.ranking);
        }
        Ok(POINTS as u64)
    });

    let correct = match &first {
        Some(got) => {
            let tree = KdTree::new(&data, Euclidean);
            let want = topn_reference(&tree, MIN_PTS, TOP).map_err(|e| e.to_string())?;
            let ok = got.len() == TOP && crate::batch::same_ranking(got, &want);
            if !ok {
                eprintln!("topn: ranking differs from topn_reference");
            }
            ok
        }
        None => false,
    };
    let ops = timed.attempted.max(1) as f64;
    let layers = vec![
        ("data.csv_load_ms", crate::percentile(&load_ms, 0.5)),
        ("core.topn.pruned_share", pruned as f64 / partitions.max(1) as f64),
        ("core.topn.objects_refined", refined as f64 / ops),
    ];
    Ok(Outcome { correct, setup_s, timed, spans, layers, threads, workers: 0 })
}
