//! Machine-readable streaming benchmark matrix: sliding windows of
//! {512, 4096, 32768} events × {4, 8, 16} dimensions over a drifting
//! mixture stream, plus the naive rescore-the-window-per-event baseline.
//! Reports sustained events/sec and per-event latency percentiles per
//! cell, and the host (nproc, dispatched SIMD target) they ran on; the
//! headline is the best cell. Written as `BENCH_stream.json` (override
//! the path with `BENCH_STREAM_OUT`).
//!
//! Run with `--release`; scale with `LOF_SCALE` as usual. The 32768
//! windows cost an O(n²) warm-up build each, so those cells run only at
//! `LOF_SCALE >= 2` — skipped cells are reported, not silently dropped.

use lof_bench::{banner, scale, time};
use lof_core::incremental::IncrementalLof;
use lof_core::{Dataset, Euclidean};
use lof_data::paper::perf_mixture;
use lof_stream::{SlidingWindowLof, StreamConfig};
use std::fmt::Write as _;

const MIN_PTS: usize = 20;
const WINDOWS: [usize; 3] = [512, 4096, 32768];
const DIMS: [usize; 3] = [4, 8, 16];

struct Cell {
    window: usize,
    dims: usize,
    events: usize,
    events_per_sec: f64,
    ns_per_event: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
}

/// Streams `n_events` steady-state events through a fresh window and
/// measures sustained throughput (warm-up build excluded).
fn run_cell(data: &Dataset, capacity: usize, n: usize) -> Cell {
    let config = StreamConfig::new(MIN_PTS, capacity).warmup(capacity).threshold(2.0);
    let mut window = SlidingWindowLof::new(config, Euclidean).expect("valid config");
    for id in 0..capacity {
        window.push(data.point(id)).expect("finite warm-up event");
    }
    assert!(!window.is_warming_up());

    let (_, streamed) = time(|| {
        for id in capacity..capacity + n {
            std::hint::black_box(window.push(data.point(id)).expect("finite event"));
        }
    });
    let (p50, p95, p99) = window.stats().latency.percentiles_ns();
    Cell {
        window: capacity,
        dims: data.dims(),
        events: n,
        events_per_sec: n as f64 / streamed.as_secs_f64(),
        ns_per_event: streamed.as_nanos() as f64 / n as f64,
        p50_us: p50 as f64 / 1e3,
        p95_us: p95 as f64 / 1e3,
        p99_us: p99 as f64 / 1e3,
    }
}

fn main() {
    banner("bench_stream", "sliding-window streaming LOF throughput matrix (JSON output)");
    let scale = scale();
    let run_32k = scale >= 2;

    let mut cells: Vec<Cell> = Vec::new();
    let mut skipped = 0usize;
    for &dims in &DIMS {
        // One stream per dimensionality, long enough for the largest
        // window this run visits plus its steady-state segment.
        let max_window = if run_32k { WINDOWS[2] } else { WINDOWS[1] };
        let n_events = 2_000 * scale;
        let data = perf_mixture(11, max_window + n_events, dims, 8);
        for &capacity in &WINDOWS {
            if capacity > max_window {
                skipped += 1;
                continue;
            }
            // Larger windows pay a quadratic warm-up build; keep the
            // timed segment proportionate so a full matrix run stays
            // tractable on one core.
            let n = if capacity >= 32768 { 500 * scale } else { n_events };
            let cell = run_cell(&data, capacity, n);
            println!(
                "window={:5} d={:2}: {:9.0} events/sec  p50 {:7.1}us p95 {:7.1}us p99 {:7.1}us",
                cell.window, cell.dims, cell.events_per_sec, cell.p50_us, cell.p95_us, cell.p99_us
            );
            cells.push(cell);
        }
    }
    if skipped > 0 {
        println!("skipped {skipped} cells at window=32768 (set LOF_SCALE>=2 to run them)");
    }

    // Naive baseline: the per-event cost if every arrival rescored the
    // whole 512-event window (d=8) from scratch instead of updating it.
    let ref_data = perf_mixture(11, 512 + 2_000 * scale, 8, 8);
    let seed = {
        let mut d = Dataset::new(8);
        for id in 0..512 {
            d.push(ref_data.point(id)).expect("finite point");
        }
        d
    };
    let sample = 100.min(2_000 * scale);
    let (_, naive) = time(|| {
        for _ in 0..sample {
            let mut model = IncrementalLof::new(seed.clone(), Euclidean, MIN_PTS)
                .expect("window contents are a valid model seed");
            std::hint::black_box(model.lof_values().len());
        }
    });
    let naive_ns = naive.as_nanos() as f64 / sample as f64;

    let best = cells
        .iter()
        .max_by(|a, b| a.events_per_sec.total_cmp(&b.events_per_sec))
        .expect("matrix is non-empty");
    let speedup_vs_naive = naive_ns / best.ns_per_event;
    println!(
        "best cell: window={} d={}: {:9.0} events/sec ({speedup_vs_naive:.0}x naive rescore), \
         p99 {:.1}us",
        best.window, best.dims, best.events_per_sec, best.p99_us
    );
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let isa = lof_core::simd::active().key();
    println!("host: nproc {nproc}, isa {isa}, windows run on 1 thread");
    println!(
        "target: >= 50000 events/sec with p99 < 1ms -> {}",
        if best.events_per_sec >= 50_000.0 && best.p99_us < 1_000.0 { "MET" } else { "MISSED" }
    );

    let mut json = format!(
        "{{\n  \"host\": {{\"nproc\": {nproc}, \"isa\": \"{isa}\", \"threads\": 1}},\n  \
         \"min_pts\": {MIN_PTS},\n  \"cells\": [\n"
    );
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"window\": {}, \"dims\": {}, \"events\": {}, \"events_per_sec\": {:.1}, \
             \"ns_per_event\": {:.1}, \"latency_p50_us\": {:.2}, \"latency_p95_us\": {:.2}, \
             \"latency_p99_us\": {:.2}}}{}",
            c.window,
            c.dims,
            c.events,
            c.events_per_sec,
            c.ns_per_event,
            c.p50_us,
            c.p95_us,
            c.p99_us,
            if i + 1 < cells.len() { "," } else { "" }
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"skipped_cells\": {skipped},\n  \
         \"naive_rescore_ns_per_event\": {naive_ns:.1},\n  \
         \"best\": {{\"window\": {}, \"dims\": {}, \
         \"events_per_sec\": {:.1}, \"latency_p99_us\": {:.2}, \
         \"speedup_vs_naive_rescore\": {speedup_vs_naive:.1}}},\n  \
         \"target_events_per_sec\": 50000,\n  \"target_met\": {}\n}}\n",
        best.window,
        best.dims,
        best.events_per_sec,
        best.p99_us,
        best.events_per_sec >= 50_000.0 && best.p99_us < 1_000.0
    );
    let path = std::env::var("BENCH_STREAM_OUT").unwrap_or_else(|_| "BENCH_stream.json".to_owned());
    std::fs::write(&path, &json).expect("cannot write benchmark JSON");
    println!("wrote {path}:\n{json}");
}
