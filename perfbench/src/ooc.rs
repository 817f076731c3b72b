//! `ooc`: the `batch` job run from a `.lofd` file under a memory budget,
//! the path of `lof --memory-budget` — mmap open, kd-tree over the mapped
//! rows, disk-spilled materialization, range scoring from the spill,
//! ranking. Set-up ingests `batch`'s exact CSV.

use crate::batch::{self, MIN_PTS, POINTS};
use crate::{repeat_setup, timed_loop, Args, Outcome, Spans};
use lof_core::{Aggregate, Euclidean, Lofd, MinPtsRange, SpilledNeighborhoodTable};
use lof_index::KdTree;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// The segment cache may hold this share of the in-RAM table's bytes.
const BUDGET_SHARE: usize = 8;

/// Bytes of the in-RAM neighborhood table at `n · MinPtsUB` entries
/// (16-byte neighbors plus the `usize` offset array); ties only add to it.
fn table_bytes() -> usize {
    POINTS * MIN_PTS.1 * 16 + (POINTS + 1) * 8
}

/// Runs `lof_range` while a second thread samples the cache's resident
/// bytes; returns the scores and the highest residency seen.
fn lof_range_sampled(
    table: &SpilledNeighborhoodTable,
    range: MinPtsRange,
) -> (lof_core::Result<lof_core::OocScores>, u64) {
    let stop = AtomicBool::new(false);
    let peak = AtomicU64::new(0);
    let scores = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(table.stats().resident_bytes, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(50));
            }
        });
        let scores = table.lof_range(range, Aggregate::Max);
        stop.store(true, Ordering::Relaxed);
        scores
    });
    (scores, peak.load(Ordering::Relaxed))
}

/// What one `ooc` op produced.
struct OpOut {
    scores: Vec<f64>,
    ranking: Vec<(usize, f64)>,
    reloads_per_segment: f64,
    reload_bytes: f64,
    /// Highest sampled cache residency ÷ budget (only when sampled).
    peak_ratio: Option<f64>,
}

/// One op: open the `.lofd`, index it, spill the table under `budget`,
/// score the `MinPts` range from the spill and rank.
fn score(
    lofd_path: &Path,
    spill_dir: &Path,
    budget: usize,
    traced: bool,
    sample_residency: bool,
    spans: &mut Spans,
) -> Result<OpOut, String> {
    let range = MinPtsRange::new(MIN_PTS.0, MIN_PTS.1).map_err(|e| e.to_string())?;
    let lofd = spans
        .time(traced, "core.lofd.open_ms", || Lofd::open(lofd_path))
        .map_err(|e| e.to_string())?;
    let data = lofd.dataset();
    let tree = spans.time(traced, "index.build_ms", || KdTree::new(&data, Euclidean));
    let table = spans
        .time(traced, "core.spill.build_ms", || {
            SpilledNeighborhoodTable::build(&tree, MIN_PTS.1, budget, spill_dir)
        })
        .map_err(|e| e.to_string())?;
    let mut peak_ratio = None;
    let scores = spans.time(traced, "core.spill.lof_range_ms", || {
        if sample_residency {
            let (scores, peak) = lof_range_sampled(&table, range);
            peak_ratio = Some(peak as f64 / budget as f64);
            scores
        } else {
            table.lof_range(range, Aggregate::Max)
        }
    });
    let scores = scores.map_err(|e| e.to_string())?;
    let ranking = spans.time(traced, "core.rank_ms", || scores.ranking());

    let segments = table.segment_count() as f64;
    let reloads = table.stats().segment_reloads as f64;
    // The spill file: per segment `rows + 1` u32 offsets, then 16-byte
    // entries; a reload reads one segment back.
    let file_bytes = 4.0 * (POINTS as f64 + segments) + 16.0 * table.stored_entries() as f64;
    Ok(OpOut {
        scores: scores.scores().to_vec(),
        ranking,
        reloads_per_segment: reloads / segments,
        reload_bytes: reloads * file_bytes / segments,
        peak_ratio,
    })
}

pub fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let csv = batch::write_input(args.seed, dir)?;
    let lofd_path = dir.join("batch.lofd");
    let spill_dir = dir.join("spill");
    std::fs::create_dir_all(&spill_dir).map_err(|e| format!("cannot create spill dir: {e}"))?;
    let budget = table_bytes() / BUDGET_SHARE;
    // Set-up: ingest the CSV, then one warm-up op.
    let mut ingest_ms = Vec::new();
    let (setup_s, ()) = repeat_setup(|| {
        let start = std::time::Instant::now();
        lof_data::ingest::ingest_csv(&csv, &lofd_path, None, false)
            .map_err(|e| format!("ingest: {e}"))?;
        ingest_ms.push(start.elapsed().as_secs_f64() * 1e3);
        black_box(score(&lofd_path, &spill_dir, budget, false, false, &mut Spans::default())?);
        Ok(())
    })?;

    let mut spans = Spans::default();
    let mut first = None;
    let (mut reloads_per_segment, mut reload_bytes, mut peak_ratio) = (0.0, 0.0, 0.0);
    let timed = timed_loop(args, |i, traced| {
        // The residency sampler runs on the first traced op only: the
        // peak repeats across ops and its thread perturbs timing.
        let out = score(&lofd_path, &spill_dir, budget, traced, traced && i == 1, &mut spans)?;
        reloads_per_segment += out.reloads_per_segment;
        reload_bytes += out.reload_bytes;
        if let Some(ratio) = out.peak_ratio {
            peak_ratio = ratio;
        }
        if i == 0 {
            first = Some((out.scores, out.ranking));
        } else {
            black_box(out);
        }
        Ok(POINTS as u64)
    });

    let correct = match &first {
        Some(got) => {
            let data = batch::load(&csv)?;
            let want = batch::score(&data, crate::host::nproc(), false, &mut Spans::default())?;
            let ok = batch::identical(got, &want);
            if !ok {
                eprintln!("ooc: spilled scores differ from the in-RAM batch path");
            }
            ok
        }
        None => false,
    };
    let ops = timed.attempted.max(1) as f64;
    let layers = vec![
        ("data.ingest_ms", crate::percentile(&ingest_ms, 0.5)),
        ("core.ooc.reloads_per_segment", reloads_per_segment / ops),
        ("core.ooc.reload_mb_per_op", reload_bytes / ops / 1e6),
        ("core.ooc.resident_peak_ratio", peak_ratio),
    ];
    Ok(Outcome { correct, setup_s, timed, spans, layers, threads: 1, workers: 0 })
}
