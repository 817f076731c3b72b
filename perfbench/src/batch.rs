//! `batch`: in-RAM scoring of the whole `MinPts` range, the sequence of
//! `lof_cli::run` — kd-tree, parallel materialization, range scoring,
//! ranking — over a CSV loaded in set-up.

use crate::{gen, repeat_setup, timed_loop, Args, Outcome, Spans};
use lof_core::{
    build_table_parallel, lof_range_reference, Aggregate, Dataset, Euclidean, LinearScan,
    LofDetector, MinPtsRange, NeighborhoodTable,
};
use lof_index::KdTree;
use std::hint::black_box;
use std::path::{Path, PathBuf};

pub const POINTS: usize = 2_000;
pub const DIMS: usize = 8;
pub const MIN_PTS: (usize, usize) = (10, 30);

/// Writes the seed's mixture as the CSV both `batch` and `ooc` read.
pub fn write_input(seed: u64, dir: &Path) -> Result<PathBuf, String> {
    let path = dir.join("batch.csv");
    gen::write_csv(&path, &gen::density_mixture(seed, POINTS, DIMS))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

pub fn load(csv: &Path) -> Result<Dataset, String> {
    lof_data::csv::load_dataset(csv).map_err(|e| format!("csv load: {e}"))
}

/// Aggregated scores in id order, and the ranking.
pub type Scored = (Vec<f64>, Vec<(usize, f64)>);

/// One batch op.
pub fn score(
    data: &Dataset,
    threads: usize,
    traced: bool,
    spans: &mut Spans,
) -> Result<Scored, String> {
    let detector = LofDetector::with_range(MIN_PTS.0, MIN_PTS.1)
        .map_err(|e| e.to_string())?
        .aggregate(Aggregate::Max)
        .threads(threads);
    let tree = spans.time(traced, "index.build_ms", || KdTree::new(data, Euclidean));
    let table = spans
        .time(traced, "core.materialize_ms", || build_table_parallel(&tree, MIN_PTS.1, threads))
        .map_err(|e| e.to_string())?;
    let result = spans
        .time(traced, "core.score_ms", || detector.detect_from_table(&table))
        .map_err(|e| e.to_string())?;
    let (scores, ranking) =
        spans.time(traced, "core.rank_ms", || (result.scores(), result.ranking()));
    Ok((scores, ranking))
}

/// The oracle: a linear-scan table scored per `MinPts` by
/// `lof_range_reference`, the pre-sweep definition-by-definition path.
pub fn reference(data: &Dataset) -> Result<Scored, String> {
    let table = NeighborhoodTable::build(&LinearScan::new(data, Euclidean), MIN_PTS.1)
        .map_err(|e| e.to_string())?;
    let range = MinPtsRange::new(MIN_PTS.0, MIN_PTS.1).map_err(|e| e.to_string())?;
    let result = lof_range_reference(&table, range).map_err(|e| e.to_string())?;
    Ok((result.scores(Aggregate::Max), result.ranking(Aggregate::Max)))
}

/// True when both rankings list the same ids with the same score bits.
pub fn same_ranking(got: &[(usize, f64)], want: &[(usize, f64)]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| g.0 == w.0 && g.1.to_bits() == w.1.to_bits())
}

/// True when both score vectors and rankings agree bit for bit.
pub fn identical(got: &Scored, want: &Scored) -> bool {
    got.0.len() == want.0.len()
        && got.0.iter().zip(&want.0).all(|(g, w)| g.to_bits() == w.to_bits())
        && same_ranking(&got.1, &want.1)
}

pub fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let threads = crate::host::nproc();
    let csv = write_input(args.seed, dir)?;
    // Set-up: load the CSV, then one warm-up op (first-touch page faults,
    // lazy dispatch and scratch initialisation) — what a user pays before
    // the first steady-state result.
    let mut load_ms = Vec::new();
    let (setup_s, data) = repeat_setup(|| {
        let start = std::time::Instant::now();
        let data = load(&csv)?;
        load_ms.push(start.elapsed().as_secs_f64() * 1e3);
        black_box(score(&data, threads, false, &mut Spans::default())?);
        Ok(data)
    })?;

    let mut spans = Spans::default();
    let mut first = None;
    let timed = timed_loop(args, |i, traced| {
        let out = score(&data, threads, traced, &mut spans)?;
        if i == 0 {
            first = Some(out);
        } else {
            black_box(out);
        }
        Ok(POINTS as u64)
    });

    let correct = match &first {
        Some(got) => {
            let ok = identical(got, &reference(&data)?);
            if !ok {
                eprintln!("batch: scores differ from lof_range_reference");
            }
            ok
        }
        None => false,
    };
    Ok(Outcome {
        correct,
        setup_s,
        timed,
        spans,
        layers: vec![("data.csv_load_ms", crate::percentile(&load_ms, 0.5))],
        threads,
        workers: 0,
    })
}
