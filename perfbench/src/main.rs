//! End-to-end and per-layer benchmark of the LOF workspace.
//!
//! ```text
//! perfbench --workload <batch|topn|ooc|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload: it generates the inputs from the seed,
//! sets the system up several times (the median is `setup_s`), runs
//! closed-loop ops for the given seconds, checks the outputs against the
//! library's reference paths outside the timed phase, and prints as its
//! last stdout line one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. With `--trace 0` the metrics are the end-to-end set;
//! with `--trace 1` every other op is timed layer by layer from this side
//! of each library call and the metrics are the per-layer set. See
//! `README.md` beside this crate for the workloads and the map from each
//! layer metric to the end-to-end metric it should move.

mod batch;
mod gen;
mod host;
mod ooc;
mod serve;
mod topn;

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Times the set-up is repeated; `setup_s` is the median.
pub const SETUP_REPS: usize = 9;
/// The timed phase is cut into this many equal spans of time; each
/// end-to-end latency and throughput figure is the median over them, so
/// a burst of host noise in one span does not move it.
const BLOCKS: usize = 10;
/// Fewest ops a run measures, even past its deadline (p90 then has at
/// least ten samples beyond it).
const MIN_OPS: usize = 100;
/// A run never measures longer than this many times its `--seconds`.
const MAX_STRETCH: f64 = 3.0;
/// Extra ops run after the timed phase to measure peak memory.
const RSS_OPS: usize = 5;

/// Every per-layer metric with its unit, in the order printed.
const LAYER_METRICS: [(&str, &str); 32] = [
    ("data.csv_load_ms", "ms"),
    ("data.ingest_ms", "ms"),
    ("index.build_ms", "ms"),
    ("index.partitions_ms", "ms"),
    ("core.materialize_ms", "ms"),
    ("core.kernel.tile_pairs_per_op", "count"),
    ("core.join.heap_offers_per_op", "count"),
    ("core.join.shell_passes_per_op", "count"),
    ("core.score_ms", "ms"),
    ("core.sweep.cells_per_op", "count"),
    ("core.rank_ms", "ms"),
    ("core.topn.run_ms", "ms"),
    ("core.topn.pruned_share", "ratio"),
    ("core.topn.objects_refined", "count"),
    ("core.lofd.open_ms", "ms"),
    ("core.spill.build_ms", "ms"),
    ("core.spill.lof_range_ms", "ms"),
    ("core.ooc.reloads_per_segment", "count"),
    ("core.ooc.reload_mb_per_op", "MB"),
    ("core.ooc.resident_peak_ratio", "ratio"),
    ("stream.push_us", "us"),
    ("core.incremental.cascade_lofs_per_event", "count"),
    ("core.incremental.cascade_depth_per_event", "count"),
    ("stream.wire_parse_us", "us"),
    ("stream.wire_encode_us", "us"),
    ("serve.score_p50_us", "us"),
    ("serve.outside_engine_ms_per_op", "ms"),
    ("proc.cpu_ms_per_op", "ms"),
    ("host.steal_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.uncovered_pct", "%"),
    ("trace.traced_ops", "count"),
];

/// Registry counters read as deltas over the timed phase.
pub const COUNTERS: [&str; 6] = [
    "core.kernel.tile_pairs",
    "core.join.heap_offers",
    "core.join.shell_passes",
    "core.sweep.cells",
    "core.incremental.cascade_lofs",
    "core.incremental.cascade_depth",
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
            }
            "--trace" => args.trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// A per-run scratch directory under the working directory (inputs, the
/// `.lofd` file, spill files), removed with everything in it on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    fn new(workload: &str) -> std::io::Result<Self> {
        let dir = Path::new(".perfbench_tmp").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the parent only when no concurrent run still uses it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

/// Layer times recorded around library calls on traced ops.
#[derive(Default)]
pub struct Spans {
    totals_ms: Vec<(&'static str, f64)>,
}

impl Spans {
    /// Runs `f`; on a traced op, adds its wall time to layer `name`.
    pub fn time<T>(&mut self, traced: bool, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !traced {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed().as_secs_f64() * 1e3);
        out
    }

    fn add(&mut self, name: &'static str, ms: f64) {
        match self.totals_ms.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += ms,
            None => self.totals_ms.push((name, ms)),
        }
    }
}

/// One timed op.
pub struct OpSample {
    /// When the op started, seconds into the timed phase.
    pub start_s: f64,
    pub ms: f64,
    /// Work units it finished (0 when it failed).
    pub units: u64,
}

/// What the timed phase measured.
pub struct Timed {
    /// Untraced ops.
    pub plain: Vec<OpSample>,
    /// Traced ops (none with `--trace 0`).
    pub traced: Vec<OpSample>,
    pub attempted: u64,
    pub failed: u64,
    /// Work units finished (points scored or ranked, events scored).
    pub units: u64,
    pub steal_pct: f64,
    pub cpu_ms: f64,
    /// [`COUNTERS`] deltas.
    pub counters: [u64; COUNTERS.len()],
    /// Median peak resident memory of the [`RSS_OPS`] memory ops, MB.
    pub peak_rss_mb: f64,
}

fn counters_now() -> [u64; COUNTERS.len()] {
    COUNTERS.map(|name| lof_obs::global().counter(name).value())
}

/// Runs `op(index, traced)` closed loop, one op at a time, for
/// `args.seconds` (at least [`MIN_OPS`] ops, at most [`MAX_STRETCH`]
/// times the deadline). With `--trace 1` every odd op is traced, so the
/// traced and untraced latencies share the same host conditions. An op
/// returns the work units it finished or an error, which counts it as
/// failed.
pub fn timed_loop(args: &Args, mut op: impl FnMut(u64, bool) -> Result<u64, String>) -> Timed {
    let deadline = args.seconds;
    let (jiffies, cpu, counters) = (host::CpuJiffies::now(), host::cpu_ms(), counters_now());
    let mut timed = Timed {
        plain: Vec::new(),
        traced: Vec::new(),
        attempted: 0,
        failed: 0,
        units: 0,
        steal_pct: 0.0,
        cpu_ms: 0.0,
        counters: [0; COUNTERS.len()],
        peak_rss_mb: 0.0,
    };
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let done = timed.attempted as usize;
        if (elapsed >= deadline && done >= MIN_OPS) || elapsed >= deadline * MAX_STRETCH {
            break;
        }
        let traced = args.trace && timed.attempted % 2 == 1;
        let op_start = Instant::now();
        let result = op(timed.attempted, traced);
        let ms = op_start.elapsed().as_secs_f64() * 1e3;
        timed.attempted += 1;
        let units = result.unwrap_or_else(|e| {
            if timed.failed < 5 {
                eprintln!("op {} failed: {e}", timed.attempted - 1);
            }
            timed.failed += 1;
            0
        });
        timed.units += units;
        let sample = OpSample { start_s: elapsed, ms, units };
        if traced {
            timed.traced.push(sample);
        } else {
            timed.plain.push(sample);
        }
    }
    timed.steal_pct = host::CpuJiffies::now().steal_pct_since(jiffies);
    timed.cpu_ms = host::cpu_ms() - cpu;
    let after = counters_now();
    for (i, delta) in timed.counters.iter_mut().enumerate() {
        *delta = after[i].saturating_sub(counters[i]);
    }
    if !args.trace {
        // Memory ops: each starts from a trimmed heap with `VmHWM` reset,
        // so its peak is live data plus what the op itself touches, not
        // whatever free memory the allocator happened to retain.
        let mut peaks = Vec::with_capacity(RSS_OPS);
        for _ in 0..RSS_OPS {
            host::trim_heap();
            let reset = host::reset_peak_rss();
            if op(timed.attempted, false).is_err() {
                timed.failed += 1;
            }
            timed.attempted += 1;
            peaks.push(host::peak_rss_mb());
            if !reset {
                eprintln!("VmHWM cannot be reset here; peak_rss_mb covers the whole process");
                break;
            }
        }
        timed.peak_rss_mb = percentile(&peaks, 0.5);
    }
    timed
}

/// Times `SETUP_REPS` runs of a set-up step; returns the seconds of each
/// and the last run's value (the one the timed phase uses).
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        let value = setup()?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((times, last.expect("SETUP_REPS > 0")))
}

/// What a workload hands back for rendering.
pub struct Outcome {
    pub correct: bool,
    pub setup_s: Vec<f64>,
    pub timed: Timed,
    pub spans: Spans,
    /// Workload-specific per-layer values (counts, ratios, serve figures).
    pub layers: Vec<(&'static str, f64)>,
    pub threads: usize,
    pub workers: usize,
}

/// Nearest-rank percentile of unsorted samples (0 when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn latencies(ops: &[OpSample]) -> Vec<f64> {
    ops.iter().map(|s| s.ms).collect()
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The median over [`BLOCKS`] equal time spans of `stat` applied to the
/// untraced ops that started in each span.
fn block_median(t: &Timed, seconds: f64, stat: impl Fn(&[OpSample]) -> f64) -> f64 {
    let mut values = Vec::with_capacity(BLOCKS);
    let mut rest = t.plain.as_slice();
    for b in 1..=BLOCKS {
        let end = seconds * b as f64 / BLOCKS as f64;
        let take = if b == BLOCKS { rest.len() } else { rest.partition_point(|s| s.start_s < end) };
        let (block, tail) = rest.split_at(take);
        if !block.is_empty() {
            values.push(stat(block));
        }
        rest = tail;
    }
    percentile(&values, 0.5)
}

fn end_to_end(o: &Outcome, seconds: f64) -> Vec<(&'static str, f64, &'static str)> {
    let t = &o.timed;
    // Closed loop: ops run back to back, so a span's busy time is the sum
    // of its op latencies.
    let throughput = |ops: &[OpSample]| {
        ops.iter().map(|s| s.units as f64).sum::<f64>() * 1e3
            / ops.iter().map(|s| s.ms).sum::<f64>()
    };
    vec![
        ("latency_p50_ms", block_median(t, seconds, |ops| percentile(&latencies(ops), 0.5)), "ms"),
        ("latency_p90_ms", block_median(t, seconds, |ops| percentile(&latencies(ops), 0.9)), "ms"),
        ("throughput_per_s", block_median(t, seconds, throughput), "1/s"),
        ("peak_rss_mb", t.peak_rss_mb, "MB"),
        ("setup_s", percentile(&o.setup_s, 0.5), "s"),
    ]
}

fn per_layer(o: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let t = &o.timed;
    let ops = t.attempted.max(1) as f64;
    let (plain_ms, traced_ms) = (latencies(&t.plain), latencies(&t.traced));
    let traced_ops = traced_ms.len().max(1) as f64;
    let traced_mean = mean(&traced_ms);
    let covered: f64 = o.spans.totals_ms.iter().map(|(_, total)| total / traced_ops).sum();
    let plain_p50 = percentile(&plain_ms, 0.5);
    let mut values: Vec<(&'static str, f64)> = vec![
        ("core.kernel.tile_pairs_per_op", t.counters[0] as f64 / ops),
        ("core.join.heap_offers_per_op", t.counters[1] as f64 / ops),
        ("core.join.shell_passes_per_op", t.counters[2] as f64 / ops),
        ("core.sweep.cells_per_op", t.counters[3] as f64 / ops),
        ("proc.cpu_ms_per_op", t.cpu_ms / ops),
        ("host.steal_pct", t.steal_pct),
        (
            "trace.overhead_pct",
            100.0 * (percentile(&traced_ms, 0.5) - plain_p50) / plain_p50.max(f64::MIN_POSITIVE),
        ),
        ("trace.uncovered_pct", 100.0 * (traced_mean - covered) / traced_mean.max(1e-12)),
        ("trace.traced_ops", traced_ms.len() as f64),
    ];
    values.extend(o.spans.totals_ms.iter().map(|&(name, total)| (name, total / traced_ops)));
    // Workload-specific values come last so they override the defaults.
    values.extend(o.layers.iter().copied());
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let value = values.iter().rev().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v);
            (name, value, unit)
        })
        .collect()
}

fn render(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no non-finite literals; a degenerate ratio reads 0.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

fn run(args: &Args) -> Result<Outcome, String> {
    let tmp = TempDir::new(&args.workload).map_err(|e| format!("cannot create temp dir: {e}"))?;
    match args.workload.as_str() {
        "batch" => batch::run(args, tmp.path()),
        "topn" => topn::run(args, tmp.path()),
        "ooc" => ooc::run(args, tmp.path()),
        "serve" => serve::run(args),
        other => Err(format!("unknown workload '{other}' (batch, topn, ooc, serve)")),
    }
}

/// Layers only the `ooc` and `serve` workloads exercise. Those workloads
/// are not gated: on a shared 2-vCPU host their medians moved by 25-33%
/// between two sets of ten runs. The traced `batch` run measures these
/// layers with shorter `ooc` and `serve` probes instead.
const PROBED_LAYERS: [(&str, &[&str]); 2] = [
    (
        "ooc",
        &[
            "data.ingest_ms",
            "core.lofd.open_ms",
            "core.spill.build_ms",
            "core.spill.lof_range_ms",
            "core.ooc.reloads_per_segment",
            "core.ooc.reload_mb_per_op",
            "core.ooc.resident_peak_ratio",
        ],
    ),
    (
        "serve",
        &[
            "stream.push_us",
            "core.incremental.cascade_lofs_per_event",
            "core.incremental.cascade_depth_per_event",
            "stream.wire_parse_us",
            "stream.wire_encode_us",
            "serve.score_p50_us",
            "serve.outside_engine_ms_per_op",
        ],
    ),
];

/// Prints the host record and the result line; returns whether every
/// correctness gate passed.
fn report(args: &Args) -> Result<bool, String> {
    let outcome = run(args)?;
    println!(
        "{}",
        host::record(&args.workload, outcome.threads, outcome.workers, outcome.timed.steal_pct)
    );
    let t = &outcome.timed;
    let (mut correct, mut attempted, mut failed) = (outcome.correct, t.attempted, t.failed);
    let mut metrics =
        if args.trace { per_layer(&outcome) } else { end_to_end(&outcome, args.seconds) };
    if args.trace && args.workload == "batch" {
        for (workload, names) in PROBED_LAYERS {
            let probe =
                Args { workload: workload.to_owned(), seconds: args.seconds / 4.0, ..*args };
            let o = run(&probe)?;
            correct &= o.correct;
            attempted += o.timed.attempted;
            failed += o.timed.failed;
            for (name, value, _) in per_layer(&o) {
                if names.contains(&name) {
                    if let Some(slot) = metrics.iter_mut().find(|m| m.0 == name) {
                        slot.1 = value;
                    }
                }
            }
        }
    }
    println!("{}", render(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match report(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
