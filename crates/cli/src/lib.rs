//! Library backing the `lof` command-line tool: argument parsing and the
//! end-to-end run, separated from `main` so both are unit-testable.
//!
//! ```text
//! lof [OPTIONS] <INPUT>         batch: score a CSV or .lofd, print a ranked report
//! lof topn --n N <INPUT>        top-n: the N most outlying rows, no full sweep
//! lof ingest <CSV> <LOFD>       ingest: stream a named-column CSV into .lofd
//! lof stream [OPTIONS] [INPUT]  stream: score NDJSON/CSV events line by line
//! lof serve --listen ADDR       serve: score events over TCP (NDJSON)
//!
//! Batch scores every row of a numeric CSV with the Local Outlier Factor
//! (Breunig et al., SIGMOD 2000) and prints a ranked report; `--format
//! json` switches to the NDJSON record schema shared with the streaming
//! modes (see `lof_stream::wire`).
//!
//! BATCH OPTIONS:
//!   --minpts LB[..UB]    MinPts value or range          [default: 10..20]
//!   --aggregate AGG      max | min | mean               [default: max]
//!   --metric METRIC      euclidean | manhattan | chebyshev | angular
//!   --index INDEX        auto | scan | grid | kdtree | xtree | vafile | balltree
//!   --columns C1,C2,..   project onto these columns (subspace analysis)
//!   --standardize        z-score the columns first
//!   --threshold T        only report objects with score > T
//!   --top N              only report the N highest scores
//!   --explain N          print full explanations for the top N objects
//!   --threads N          worker threads; 0 = auto       [default: all cores]
//!   --format FMT         text | json                    [default: text]
//!   --output FILE        also write id,score CSV to FILE
//!   --table FILE         cache the materialization database in FILE
//!   --memory-budget B    out-of-core: spill the neighborhood table to disk;
//!                        B bounds segment cache and wave matrices (k/m/g)
//!   --metrics            print a final registry snapshot to stderr
//!
//! INGEST OPTIONS:
//!   --columns N1,N2,..   select header columns by name, in this order
//!   --resume             continue an interrupted load from its checkpoint
//!
//! TOPN OPTIONS:
//!   --n N                result size                    [default: 10]
//!   --minpts K           the MinPts the scores are exact for [default: 10]
//!   --metric METRIC      euclidean | manhattan | chebyshev | angular
//!   --index INDEX        auto | scan | kdtree | balltree
//!   --columns C1,C2,..   project onto these columns first
//!   --standardize        z-score the columns first
//!   --threads N          refinement workers; 0 = auto   [default: all cores]
//!   --metrics            print a final registry snapshot to stderr
//!
//! STREAM / SERVE OPTIONS:
//!   --minpts K           MinPts of the window model     [default: 10]
//!   --capacity N         sliding-window capacity        [default: 512]
//!   --warmup N           events buffered before scoring [default: minpts+1]
//!   --landmark           never evict (landmark window)
//!   --threshold T        alert when LOF > T
//!   --topk K             alert when the event ranks in the window's top K
//!   --metric METRIC      euclidean | manhattan | chebyshev | angular
//!   --metrics            print a final registry snapshot to stderr
//!   --listen ADDR        serve only: bind address       [default: 127.0.0.1:7878]
//!   --queue N            serve only: job-queue bound    [default: 1024]
//!   --workers N          serve only: scoring threads    [default: auto]
//!   --tenants N          serve only: tenant ceiling     [default: 64]
//!   --snapshot-dir DIR   serve only: restore tenants from DIR, persist on SNAPSHOT/DRAIN
//!   --max-events-per-sec R  serve only: default tenant admission rate
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

use lof_core::explain::explain;
use lof_core::{
    build_table_parallel, topn_reference, Aggregate, Angular, Chebyshev, Dataset, Euclidean,
    KnnProvider, LinearScan, LofDetector, Lofd, Manhattan, Metric, MinPtsRange, NeighborhoodTable,
    OutlierResult, PartitionMetric, PartitionSource, SpilledNeighborhoodTable, TopNEngine,
    TopNStats,
};
use lof_data::normalize::standardize;
use lof_index::{BallTree, GridIndex, KdTree, VaFile, XTree};
use std::fmt::Write as _;

/// Parsed command-line configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Input CSV path.
    pub input: String,
    /// MinPts range (lb, ub).
    pub min_pts: (usize, usize),
    /// Score aggregate over the range.
    pub aggregate: Aggregate,
    /// Distance metric name.
    pub metric: MetricChoice,
    /// Index substrate.
    pub index: IndexChoice,
    /// Project onto these columns (in order) before scoring.
    pub columns: Option<Vec<usize>>,
    /// Standardize columns before scoring.
    pub standardize: bool,
    /// Only report scores above this threshold.
    pub threshold: Option<f64>,
    /// Only report the top N.
    pub top: Option<usize>,
    /// Print explanations for the top N objects.
    pub explain: usize,
    /// Worker threads for materialization and scoring (defaults to every
    /// available core; results are identical at any thread count).
    /// `--threads 0` on the command line is normalized to
    /// [`default_threads`] at parse time, so this field is always >= 1.
    pub threads: usize,
    /// Optional output CSV path.
    pub output: Option<String>,
    /// Materialization cache: load the table from this file if it exists,
    /// otherwise build it and save it there.
    pub table: Option<String>,
    /// Report format on stdout.
    pub format: OutputFormat,
    /// Out-of-core mode: spill CSR segments to disk
    /// ([`SpilledNeighborhoodTable`]); this many bytes bound the segment
    /// cache and, separately, the sweep's per-wave column matrices. Scores
    /// stay bit-identical to the in-RAM path.
    pub memory_budget: Option<u64>,
    /// Print a final metrics-registry snapshot to stderr (the
    /// `core.ooc.*` spill counters live there).
    pub metrics: bool,
}

/// Batch report format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Aligned text table (the default).
    #[default]
    Text,
    /// One NDJSON record per row — the same schema the streaming modes
    /// emit (`lof_stream::wire::batch_record`).
    Json,
}

/// Supported metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum MetricChoice {
    Euclidean,
    Manhattan,
    Chebyshev,
    Angular,
}

impl MetricChoice {
    /// The canonical name, as accepted by `--metric` and recorded as the
    /// `metric_tag` of window snapshots.
    pub fn tag(self) -> &'static str {
        match self {
            MetricChoice::Euclidean => "euclidean",
            MetricChoice::Manhattan => "manhattan",
            MetricChoice::Chebyshev => "chebyshev",
            MetricChoice::Angular => "angular",
        }
    }
}

/// Supported index substrates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum IndexChoice {
    /// Pick by dimensionality: grid for d <= 3, kd-tree for d <= 12,
    /// VA-file beyond.
    Auto,
    Scan,
    Grid,
    KdTree,
    XTree,
    VaFile,
    BallTree,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            input: String::new(),
            min_pts: (10, 20),
            aggregate: Aggregate::Max,
            metric: MetricChoice::Euclidean,
            index: IndexChoice::Auto,
            columns: None,
            standardize: false,
            threshold: None,
            top: None,
            explain: 0,
            threads: default_threads(),
            output: None,
            table: None,
            format: OutputFormat::Text,
            memory_budget: None,
            metrics: false,
        }
    }
}

/// Parses CLI arguments (excluding the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown flags, missing values, or
/// unparsable numbers.
pub fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut config = Config::default();
    let mut iter = args.iter().peekable();
    let mut positional: Vec<&String> = Vec::new();

    fn value<'a>(
        flag: &str,
        iter: &mut std::iter::Peekable<std::slice::Iter<'a, String>>,
    ) -> Result<&'a String, String> {
        iter.next().ok_or_else(|| format!("{flag} requires a value"))
    }

    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--minpts" => {
                let v = value("--minpts", &mut iter)?;
                config.min_pts = parse_min_pts(v)?;
            }
            "--aggregate" => {
                config.aggregate = match value("--aggregate", &mut iter)?.as_str() {
                    "max" => Aggregate::Max,
                    "min" => Aggregate::Min,
                    "mean" => Aggregate::Mean,
                    other => return Err(format!("unknown aggregate '{other}'")),
                };
            }
            "--metric" => config.metric = parse_metric(value("--metric", &mut iter)?)?,
            "--index" => {
                config.index = match value("--index", &mut iter)?.as_str() {
                    "auto" => IndexChoice::Auto,
                    "scan" => IndexChoice::Scan,
                    "grid" => IndexChoice::Grid,
                    "kdtree" => IndexChoice::KdTree,
                    "xtree" => IndexChoice::XTree,
                    "vafile" => IndexChoice::VaFile,
                    "balltree" => IndexChoice::BallTree,
                    other => return Err(format!("unknown index '{other}'")),
                };
            }
            "--columns" => {
                let list = value("--columns", &mut iter)?;
                let parsed: Result<Vec<usize>, _> =
                    list.split(',').map(str::trim).map(str::parse).collect();
                config.columns = Some(parsed.map_err(|e| format!("bad --columns '{list}': {e}"))?);
            }
            "--standardize" => config.standardize = true,
            "--threshold" => {
                config.threshold = Some(
                    value("--threshold", &mut iter)?
                        .parse()
                        .map_err(|e| format!("bad --threshold: {e}"))?,
                );
            }
            "--top" => {
                config.top = Some(
                    value("--top", &mut iter)?.parse().map_err(|e| format!("bad --top: {e}"))?,
                );
            }
            "--explain" => {
                config.explain = value("--explain", &mut iter)?
                    .parse()
                    .map_err(|e| format!("bad --explain: {e}"))?;
            }
            "--threads" => {
                let parsed: usize = value("--threads", &mut iter)?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
                // `0` means auto-detect. Normalize it here: the core's
                // `effective_threads` clamps 0 to 1 (serial), which is not
                // what "use every core" callers intend.
                config.threads = if parsed == 0 { default_threads() } else { parsed };
            }
            "--output" => config.output = Some(value("--output", &mut iter)?.clone()),
            "--table" => config.table = Some(value("--table", &mut iter)?.clone()),
            "--memory-budget" => {
                config.memory_budget = Some(parse_budget(value("--memory-budget", &mut iter)?)?);
            }
            "--metrics" => config.metrics = true,
            "--format" => {
                config.format = match value("--format", &mut iter)?.as_str() {
                    "text" => OutputFormat::Text,
                    "json" => OutputFormat::Json,
                    other => return Err(format!("unknown format '{other}'")),
                };
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            _ => positional.push(arg),
        }
    }

    match positional.as_slice() {
        [input] => config.input = (*input).clone(),
        [] => return Err("missing input CSV path".to_owned()),
        more => return Err(format!("expected one input path, got {}", more.len())),
    }
    Ok(config)
}

/// Default worker-thread count: every available core (1 when the
/// parallelism query fails, e.g. under restrictive sandboxes).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Parses a byte budget with an optional `k`/`m`/`g` suffix (binary
/// units), e.g. `64m` = 64 MiB.
fn parse_budget(text: &str) -> Result<u64, String> {
    let lower = text.trim().to_ascii_lowercase();
    let (digits, shift) = match lower.strip_suffix(['k', 'm', 'g']) {
        Some(rest) => match lower.as_bytes()[lower.len() - 1] {
            b'k' => (rest, 10),
            b'm' => (rest, 20),
            _ => (rest, 30),
        },
        None => (lower.as_str(), 0),
    };
    let base: u64 = digits.parse().map_err(|e| format!("bad --memory-budget '{text}': {e}"))?;
    let bytes = base
        .checked_shl(shift)
        .filter(|b| *b >> shift == base)
        .ok_or_else(|| format!("bad --memory-budget '{text}': overflows u64"))?;
    if bytes == 0 {
        return Err("--memory-budget must be positive".to_owned());
    }
    Ok(bytes)
}

fn parse_min_pts(text: &str) -> Result<(usize, usize), String> {
    if let Some((lb, ub)) = text.split_once("..") {
        let lb: usize = lb.parse().map_err(|e| format!("bad MinPts lower bound: {e}"))?;
        let ub: usize = ub.parse().map_err(|e| format!("bad MinPts upper bound: {e}"))?;
        if lb == 0 || lb > ub {
            return Err(format!("invalid MinPts range {lb}..{ub}"));
        }
        Ok((lb, ub))
    } else {
        let k: usize = text.parse().map_err(|e| format!("bad MinPts: {e}"))?;
        if k == 0 {
            return Err("MinPts must be >= 1".to_owned());
        }
        Ok((k, k))
    }
}

/// One parsed invocation: classic batch scoring, the bound-driven top-n
/// engine, out-of-core ingestion, or one of the streaming modes.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `lof [OPTIONS] <INPUT.csv>` — batch scoring.
    Batch(Config),
    /// `lof topn [OPTIONS] <INPUT.csv>` — the n most outlying objects via
    /// partition-bound pruning (exact, no full sweep).
    TopN(TopNArgs),
    /// `lof ingest [OPTIONS] <INPUT.csv> <OUTPUT.lofd>` — schema-mapped
    /// streaming conversion to the out-of-core columnar format.
    Ingest(IngestArgs),
    /// `lof stream [OPTIONS] [INPUT]` — line-by-line scoring from a file
    /// or stdin.
    Stream(StreamArgs),
    /// `lof serve [OPTIONS]` — NDJSON scoring over TCP.
    Serve(StreamArgs),
}

/// Options of `lof ingest`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IngestArgs {
    /// Input CSV path (must have a named-column header).
    pub input: String,
    /// Output `.lofd` path.
    pub output: String,
    /// Select these header columns, in this order (`None` = all).
    pub columns: Option<Vec<String>>,
    /// Continue an interrupted load from its last checkpoint.
    pub resume: bool,
}

/// Parses the flags of `lof ingest`.
///
/// # Errors
///
/// Returns a human-readable message for unknown flags, missing values, or
/// missing input/output paths.
pub fn parse_ingest_args(args: &[String]) -> Result<IngestArgs, String> {
    let mut parsed = IngestArgs::default();
    let mut iter = args.iter();
    let mut positional: Vec<&String> = Vec::new();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--columns" => {
                let list = iter.next().ok_or_else(|| "--columns requires a value".to_owned())?;
                let names: Vec<String> = list.split(',').map(|c| c.trim().to_owned()).collect();
                if names.iter().any(String::is_empty) {
                    return Err(format!("bad --columns '{list}': empty column name"));
                }
                parsed.columns = Some(names);
            }
            "--resume" => parsed.resume = true,
            flag if flag.starts_with("--") => return Err(format!("unknown ingest flag '{flag}'")),
            _ => positional.push(arg),
        }
    }
    match positional.as_slice() {
        [input, output] => {
            parsed.input = (*input).clone();
            parsed.output = (*output).clone();
        }
        other => {
            return Err(format!(
                "ingest takes <INPUT.csv> <OUTPUT.lofd>, got {} paths",
                other.len()
            ))
        }
    }
    Ok(parsed)
}

/// Options of `lof topn`.
#[derive(Debug, Clone, PartialEq)]
pub struct TopNArgs {
    /// Input CSV path.
    pub input: String,
    /// Result size: how many top outliers to report.
    pub n: usize,
    /// The `MinPts` the scores are exact for (a single value — the top-n
    /// bounds are per-`MinPts`, not per-range).
    pub min_pts: usize,
    /// Distance metric.
    pub metric: MetricChoice,
    /// Index substrate; `topn` supports `auto | scan | kdtree | balltree`
    /// (the tree leaves are the engine's partitions; `scan` falls back to
    /// the full-sweep reference).
    pub index: IndexChoice,
    /// Project onto these columns (in order) before scoring.
    pub columns: Option<Vec<usize>>,
    /// Standardize columns before scoring.
    pub standardize: bool,
    /// Refinement worker threads (>= 1 after parsing; `--threads 0` means
    /// auto-detect, as in batch mode).
    pub threads: usize,
    /// Print a final metrics-registry snapshot to stderr.
    pub metrics: bool,
}

impl Default for TopNArgs {
    fn default() -> Self {
        TopNArgs {
            input: String::new(),
            n: 10,
            min_pts: 10,
            metric: MetricChoice::Euclidean,
            index: IndexChoice::Auto,
            columns: None,
            standardize: false,
            threads: default_threads(),
            metrics: false,
        }
    }
}

/// Parses the flags of `lof topn`.
///
/// # Errors
///
/// Returns a human-readable message for unknown flags, missing values,
/// unparsable numbers, or an index substrate without partition support.
pub fn parse_topn_args(args: &[String]) -> Result<TopNArgs, String> {
    let mut parsed = TopNArgs::default();
    let mut iter = args.iter();
    let mut positional: Vec<&String> = Vec::new();

    fn value<'a>(
        flag: &str,
        iter: &mut std::slice::Iter<'a, String>,
    ) -> Result<&'a String, String> {
        iter.next().ok_or_else(|| format!("{flag} requires a value"))
    }
    fn number(flag: &str, iter: &mut std::slice::Iter<'_, String>) -> Result<usize, String> {
        value(flag, iter)?.parse().map_err(|e| format!("bad {flag}: {e}"))
    }

    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--n" => parsed.n = number("--n", &mut iter)?,
            "--minpts" => {
                parsed.min_pts = number("--minpts", &mut iter)?;
                if parsed.min_pts == 0 {
                    return Err("MinPts must be >= 1".to_owned());
                }
            }
            "--metric" => parsed.metric = parse_metric(value("--metric", &mut iter)?)?,
            "--index" => {
                parsed.index = match value("--index", &mut iter)?.as_str() {
                    "auto" => IndexChoice::Auto,
                    "scan" => IndexChoice::Scan,
                    "kdtree" => IndexChoice::KdTree,
                    "balltree" => IndexChoice::BallTree,
                    other => {
                        return Err(format!(
                            "topn needs a partition-capable index \
                             (auto | scan | kdtree | balltree), not '{other}'"
                        ))
                    }
                };
            }
            "--columns" => {
                let list = value("--columns", &mut iter)?;
                let cols: Result<Vec<usize>, _> =
                    list.split(',').map(str::trim).map(str::parse).collect();
                parsed.columns = Some(cols.map_err(|e| format!("bad --columns '{list}': {e}"))?);
            }
            "--standardize" => parsed.standardize = true,
            "--threads" => {
                let count = number("--threads", &mut iter)?;
                parsed.threads = if count == 0 { default_threads() } else { count };
            }
            "--metrics" => parsed.metrics = true,
            flag if flag.starts_with("--") => return Err(format!("unknown topn flag '{flag}'")),
            _ => positional.push(arg),
        }
    }

    match positional.as_slice() {
        [input] => parsed.input = (*input).clone(),
        [] => return Err("missing input CSV path".to_owned()),
        more => return Err(format!("expected one input path, got {}", more.len())),
    }
    Ok(parsed)
}

/// Options shared by `lof stream` and `lof serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamArgs {
    /// Event source for stream mode (`None` = stdin); always `None` in
    /// serve mode.
    pub input: Option<String>,
    /// Bind address for serve mode.
    pub listen: String,
    /// `MinPts` of the window model.
    pub min_pts: usize,
    /// Sliding-window capacity.
    pub capacity: usize,
    /// Warm-up length (`None` = the [`StreamConfig`] default, MinPts + 1).
    ///
    /// [`StreamConfig`]: lof_stream::StreamConfig
    pub warmup: Option<usize>,
    /// Use a landmark (never-evict) window.
    pub landmark: bool,
    /// Absolute LOF alert threshold.
    pub threshold: Option<f64>,
    /// Rolling top-k alert rule.
    pub top_k: Option<usize>,
    /// Spatial shards of the window model (1 = flat engine).
    pub shards: usize,
    /// Defer lrd/LOF maintenance to the read side (bit-identical scores,
    /// much higher throughput when only the arriving score is read).
    pub deferred: bool,
    /// Job-queue bound in serve mode (0 = `lof_stream::DEFAULT_QUEUE`).
    pub queue: usize,
    /// Scoring worker threads in serve mode (0 = auto).
    pub workers: usize,
    /// Tenant-count ceiling in serve mode (0 = `lof_serve::DEFAULT_MAX_TENANTS`).
    pub tenants: usize,
    /// Snapshot directory in serve mode: tenants are restored from it at
    /// startup and persisted to it on `SNAPSHOT` / `DRAIN`.
    pub snapshot_dir: Option<String>,
    /// Default per-tenant event-admission rate (token bucket), serve mode.
    pub max_events_per_sec: Option<u64>,
    /// Distance metric.
    pub metric: MetricChoice,
    /// Print a final metrics-registry snapshot (Prometheus text) to
    /// stderr when the run ends.
    pub metrics: bool,
}

impl Default for StreamArgs {
    fn default() -> Self {
        StreamArgs {
            input: None,
            listen: "127.0.0.1:7878".to_owned(),
            min_pts: 10,
            capacity: 512,
            warmup: None,
            landmark: false,
            threshold: None,
            top_k: None,
            shards: 1,
            deferred: false,
            queue: 0,
            workers: 0,
            tenants: 0,
            snapshot_dir: None,
            max_events_per_sec: None,
            metric: MetricChoice::Euclidean,
            metrics: false,
        }
    }
}

/// Parses a full command line: a leading `stream` / `serve` word selects a
/// streaming mode, anything else is the classic batch invocation.
///
/// # Errors
///
/// Returns a human-readable message for unknown flags, missing values, or
/// unparsable numbers.
pub fn parse_command(args: &[String]) -> Result<Command, String> {
    match args.first().map(String::as_str) {
        Some("topn") => Ok(Command::TopN(parse_topn_args(&args[1..])?)),
        Some("ingest") => Ok(Command::Ingest(parse_ingest_args(&args[1..])?)),
        Some("stream") => Ok(Command::Stream(parse_stream_args(false, &args[1..])?)),
        Some("serve") => Ok(Command::Serve(parse_stream_args(true, &args[1..])?)),
        _ => Ok(Command::Batch(parse_args(args)?)),
    }
}

/// Loads a scoring input by format sniffing: a `.lofd` magic opens the
/// file as an mmap-backed out-of-core dataset (zero-copy coordinates),
/// anything else parses as streaming CSV. Both return the same
/// [`Dataset`]; every downstream path scores them bit-identically.
///
/// # Errors
///
/// Returns a human-readable message on I/O failures or malformed files
/// (for `.lofd`, the typed [`lof_core::LofdError`] taxonomy rendered).
pub fn load_input(path: &str) -> Result<Dataset, String> {
    if lof_core::lofd::sniff(std::path::Path::new(path)) {
        let lofd = Lofd::open(std::path::Path::new(path)).map_err(|e| e.to_string())?;
        Ok(lofd.dataset())
    } else {
        lof_data::csv::load_dataset(path).map_err(|e| e.to_string())
    }
}

fn parse_metric(name: &str) -> Result<MetricChoice, String> {
    match name {
        "euclidean" => Ok(MetricChoice::Euclidean),
        "manhattan" => Ok(MetricChoice::Manhattan),
        "chebyshev" => Ok(MetricChoice::Chebyshev),
        "angular" => Ok(MetricChoice::Angular),
        other => Err(format!("unknown metric '{other}'")),
    }
}

/// Parses the flags of `lof stream` (`serve = false`) or `lof serve`
/// (`serve = true`).
///
/// # Errors
///
/// Returns a human-readable message for unknown flags, missing values,
/// unparsable numbers, or a positional input in serve mode.
pub fn parse_stream_args(serve: bool, args: &[String]) -> Result<StreamArgs, String> {
    let mut parsed = StreamArgs::default();
    let mut iter = args.iter();
    let mut positional: Vec<&String> = Vec::new();

    fn value<'a>(
        flag: &str,
        iter: &mut std::slice::Iter<'a, String>,
    ) -> Result<&'a String, String> {
        iter.next().ok_or_else(|| format!("{flag} requires a value"))
    }
    fn number<T: std::str::FromStr<Err = std::num::ParseIntError>>(
        flag: &str,
        iter: &mut std::slice::Iter<'_, String>,
    ) -> Result<T, String> {
        value(flag, iter)?.parse().map_err(|e| format!("bad {flag}: {e}"))
    }

    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--minpts" => parsed.min_pts = number("--minpts", &mut iter)?,
            "--capacity" => parsed.capacity = number("--capacity", &mut iter)?,
            "--warmup" => parsed.warmup = Some(number("--warmup", &mut iter)?),
            "--landmark" => parsed.landmark = true,
            "--threshold" => {
                parsed.threshold = Some(
                    value("--threshold", &mut iter)?
                        .parse()
                        .map_err(|e| format!("bad --threshold: {e}"))?,
                );
            }
            "--topk" => parsed.top_k = Some(number("--topk", &mut iter)?),
            "--shards" => parsed.shards = number("--shards", &mut iter)?,
            "--deferred" => parsed.deferred = true,
            "--metric" => parsed.metric = parse_metric(value("--metric", &mut iter)?)?,
            "--metrics" => parsed.metrics = true,
            "--listen" if serve => parsed.listen = value("--listen", &mut iter)?.clone(),
            "--queue" if serve => parsed.queue = number("--queue", &mut iter)?,
            "--workers" if serve => parsed.workers = number("--workers", &mut iter)?,
            "--tenants" if serve => parsed.tenants = number("--tenants", &mut iter)?,
            "--snapshot-dir" if serve => {
                parsed.snapshot_dir = Some(value("--snapshot-dir", &mut iter)?.clone());
            }
            "--max-events-per-sec" if serve => {
                parsed.max_events_per_sec = Some(number("--max-events-per-sec", &mut iter)?);
            }
            flag if flag.starts_with("--") => {
                let mode = if serve { "serve" } else { "stream" };
                return Err(format!("unknown {mode} flag '{flag}'"));
            }
            _ => positional.push(arg),
        }
    }

    match (serve, positional.as_slice()) {
        (_, []) => {}
        (false, [input]) if *input != "-" => parsed.input = Some((*input).clone()),
        (false, [_dash]) => {} // explicit stdin
        (false, more) => {
            return Err(format!("expected at most one input path, got {}", more.len()))
        }
        (true, _) => return Err("serve mode reads from TCP, not a file".to_owned()),
    }
    Ok(parsed)
}

/// Builds the window configuration a [`StreamArgs`] describes. Validation
/// happens when the window is constructed.
pub fn stream_window_config(args: &StreamArgs) -> lof_stream::StreamConfig {
    let mut config = lof_stream::StreamConfig::new(args.min_pts, args.capacity);
    if let Some(warmup) = args.warmup {
        config = config.warmup(warmup);
    }
    if args.landmark {
        config = config.policy(lof_stream::EvictionPolicy::Landmark);
    }
    if let Some(threshold) = args.threshold {
        config = config.threshold(threshold);
    }
    if let Some(k) = args.top_k {
        config = config.top_k(k);
    }
    config = config.shards(args.shards).deferred(args.deferred);
    config
}

/// Renders the full score vector as NDJSON, one record per row in id
/// order, using the record schema shared with the streaming modes.
pub fn render_json_report(scores: &[f64], threshold: Option<f64>) -> String {
    let mut out = String::with_capacity(scores.len() * 64);
    for (id, &score) in scores.iter().enumerate() {
        let alert = threshold.is_some_and(|t| score > t);
        let _ = writeln!(out, "{}", lof_stream::wire::batch_record(id, score, alert));
    }
    out
}

/// The scored output of a run, ready for rendering.
#[derive(Debug)]
pub struct RunOutput {
    /// `(id, score)` ranked most-outlying first, after threshold/top cuts.
    pub report: Vec<(usize, f64)>,
    /// Full per-object scores in id order (for `--output`).
    pub scores: Vec<f64>,
    /// Rendered explanations for the requested top objects.
    pub explanations: Vec<String>,
}

/// Runs the pipeline per `config` over an already-loaded dataset.
///
/// # Errors
///
/// Returns a human-readable message on invalid parameters or degenerate
/// data.
pub fn run(config: &Config, raw: &Dataset) -> Result<RunOutput, String> {
    if raw.len() <= config.min_pts.1 {
        return Err(format!(
            "dataset has {} rows but MinPts upper bound is {}; need more rows than MinPts",
            raw.len(),
            config.min_pts.1
        ));
    }
    let projected = match &config.columns {
        Some(columns) => raw.project(columns).map_err(|e| e.to_string())?,
        None => raw.clone(),
    };
    let data = if config.standardize { standardize(&projected) } else { projected };

    if config.memory_budget.is_some() {
        return run_spilled(config, &data);
    }

    let detector = LofDetector::with_range(config.min_pts.0, config.min_pts.1)
        .map_err(|e| e.to_string())?
        .aggregate(config.aggregate)
        .threads(config.threads);

    let index = resolve_index(config, &data);
    let cache = config.table.as_deref();
    let threads = config.threads.max(1);
    let (result, table) = match config.metric {
        MetricChoice::Euclidean => score(&detector, &index, &data, Euclidean, cache, threads)?,
        MetricChoice::Manhattan => score(&detector, &index, &data, Manhattan, cache, threads)?,
        MetricChoice::Chebyshev => score(&detector, &index, &data, Chebyshev, cache, threads)?,
        MetricChoice::Angular => score(&detector, &index, &data, Angular, cache, threads)?,
    };

    let scores = result.scores();
    let mut report = result.ranking();
    if let Some(t) = config.threshold {
        report.retain(|&(_, s)| s > t);
    }
    if let Some(top) = config.top {
        report.truncate(top);
    }

    let mut explanations = Vec::new();
    for &(id, _) in result.ranking().iter().take(config.explain) {
        let ex = explain(&data, &table, config.min_pts.1, id).map_err(|e| e.to_string())?;
        explanations.push(ex.render(&data));
    }
    Ok(RunOutput { report, scores, explanations })
}

/// The out-of-core batch path (`--memory-budget`): materializes the
/// neighborhood table as disk-spilled CSR segments under the byte budget
/// and folds the `MinPts`-range scores incrementally. Bit-identical to
/// the in-RAM pipeline at any budget.
fn run_spilled(config: &Config, data: &Dataset) -> Result<RunOutput, String> {
    let budget = config.memory_budget.expect("caller checked") as usize;
    if config.explain > 0 {
        return Err(
            "--explain needs the in-RAM materialization; drop --memory-budget to use it".to_owned()
        );
    }
    if config.table.is_some() {
        return Err("--table caches an in-RAM materialization and cannot be combined with \
             --memory-budget"
            .to_owned());
    }
    let range = MinPtsRange::new(config.min_pts.0, config.min_pts.1).map_err(|e| e.to_string())?;

    fn go<P: KnnProvider>(
        provider: &P,
        config: &Config,
        range: MinPtsRange,
        budget: usize,
    ) -> Result<RunOutput, String> {
        let table =
            SpilledNeighborhoodTable::build(provider, range.ub(), budget, &std::env::temp_dir())
                .map_err(|e| e.to_string())?;
        let ooc = table.lof_range(range, config.aggregate).map_err(|e| e.to_string())?;
        let mut report = ooc.ranking();
        if let Some(t) = config.threshold {
            report.retain(|&(_, s)| s > t);
        }
        if let Some(top) = config.top {
            report.truncate(top);
        }
        Ok(RunOutput { report, scores: ooc.scores().to_vec(), explanations: Vec::new() })
    }
    fn on_index<M: Metric + Clone>(
        config: &Config,
        data: &Dataset,
        metric: M,
        range: MinPtsRange,
        budget: usize,
    ) -> Result<RunOutput, String> {
        match resolve_index(config, data) {
            IndexChoice::Scan => go(&LinearScan::new(data, metric), config, range, budget),
            IndexChoice::Grid => go(&GridIndex::new(data, metric), config, range, budget),
            IndexChoice::KdTree => go(&KdTree::new(data, metric), config, range, budget),
            IndexChoice::XTree => go(&XTree::new(data, metric), config, range, budget),
            IndexChoice::VaFile => go(&VaFile::new(data, metric), config, range, budget),
            IndexChoice::BallTree => go(&BallTree::new(data, metric), config, range, budget),
            IndexChoice::Auto => unreachable!("resolved before dispatch"),
        }
    }
    match config.metric {
        MetricChoice::Euclidean => on_index(config, data, Euclidean, range, budget),
        MetricChoice::Manhattan => on_index(config, data, Manhattan, range, budget),
        MetricChoice::Chebyshev => on_index(config, data, Chebyshev, range, budget),
        MetricChoice::Angular => on_index(config, data, Angular, range, budget),
    }
}

/// Resolves `auto` to a concrete index for the data's dimensionality.
fn resolve_index(config: &Config, data: &Dataset) -> IndexChoice {
    match config.index {
        IndexChoice::Auto => {
            // Angular has no rectangle bound: only the ball tree prunes.
            if config.metric == MetricChoice::Angular {
                IndexChoice::BallTree
            } else if data.dims() <= 3 {
                IndexChoice::Grid
            } else if data.dims() <= 12 {
                IndexChoice::KdTree
            } else {
                IndexChoice::VaFile
            }
        }
        concrete => concrete,
    }
}

fn score<M: Metric + Clone>(
    detector: &LofDetector<Euclidean>,
    index: &IndexChoice,
    data: &Dataset,
    metric: M,
    cache: Option<&str>,
    threads: usize,
) -> Result<(OutlierResult, NeighborhoodTable), String> {
    fn go<P: KnnProvider + Sync>(
        detector: &LofDetector<Euclidean>,
        provider: &P,
        cache: Option<&str>,
        threads: usize,
    ) -> Result<(OutlierResult, NeighborhoodTable), String> {
        let table = match cache {
            Some(path) if std::path::Path::new(path).exists() => {
                let table = NeighborhoodTable::load(path).map_err(|e| e.to_string())?;
                if table.len() != provider.len() || table.max_k() < detector.range().ub() {
                    return Err(format!(
                        "cached table '{path}' does not match this run \
                         ({} objects @ max_k {}, need {} @ {})",
                        table.len(),
                        table.max_k(),
                        provider.len(),
                        detector.range().ub()
                    ));
                }
                table
            }
            _ => {
                // `build_table_parallel` falls back to the serial build at
                // `threads == 1` and is byte-identical to it otherwise.
                let table = build_table_parallel(provider, detector.range().ub(), threads)
                    .map_err(|e| e.to_string())?;
                if let Some(path) = cache {
                    table.save(path).map_err(|e| format!("cannot save table: {e}"))?;
                }
                table
            }
        };
        let result = detector.detect_from_table(&table).map_err(|e| e.to_string())?;
        Ok((result, table))
    }
    match index {
        IndexChoice::Scan => go(detector, &LinearScan::new(data, metric), cache, threads),
        IndexChoice::Grid => go(detector, &GridIndex::new(data, metric), cache, threads),
        IndexChoice::KdTree => go(detector, &KdTree::new(data, metric), cache, threads),
        IndexChoice::XTree => go(detector, &XTree::new(data, metric), cache, threads),
        IndexChoice::VaFile => go(detector, &VaFile::new(data, metric), cache, threads),
        IndexChoice::BallTree => go(detector, &BallTree::new(data, metric), cache, threads),
        IndexChoice::Auto => unreachable!("resolved before dispatch"),
    }
}

/// The output of a `lof topn` run.
#[derive(Debug)]
pub struct TopNOutput {
    /// `(id, score)` ranked most-outlying first — bit-identical to the
    /// head of a sorted full sweep at the same `MinPts`.
    pub report: Vec<(usize, f64)>,
    /// The engine's final pruning threshold (the exact n-th best score
    /// when the result is full); `None` on the `scan` reference path.
    pub threshold: Option<f64>,
    /// The engine's pruning counters; `None` on the `scan` reference
    /// path.
    pub stats: Option<TopNStats>,
}

/// Runs the bound-driven top-n pipeline per `args` over an
/// already-loaded dataset: tree leaves become micro-partitions, partition
/// envelopes bound every member's LOF, and only partitions whose upper
/// bound survives the running n-th-best threshold are refined.
///
/// # Errors
///
/// Returns a human-readable message on invalid parameters or degenerate
/// data.
pub fn run_topn(args: &TopNArgs, raw: &Dataset) -> Result<TopNOutput, String> {
    if raw.len() <= args.min_pts {
        return Err(format!(
            "dataset has {} rows but MinPts is {}; need more rows than MinPts",
            raw.len(),
            args.min_pts
        ));
    }
    let projected = match &args.columns {
        Some(columns) => raw.project(columns).map_err(|e| e.to_string())?,
        None => raw.clone(),
    };
    let data = if args.standardize { standardize(&projected) } else { projected };

    let engine = TopNEngine::new(args.min_pts, args.n).with_threads(args.threads);
    let index = match args.index {
        // Angular has no rectangle bound, so its envelopes are vacuous on
        // a kd-tree; the ball tree at least prunes the k-NN refinement.
        IndexChoice::Auto if args.metric == MetricChoice::Angular => IndexChoice::BallTree,
        IndexChoice::Auto => IndexChoice::KdTree,
        concrete => concrete,
    };
    match args.metric {
        MetricChoice::Euclidean => topn_on_index(&engine, index, &data, Euclidean),
        MetricChoice::Manhattan => topn_on_index(&engine, index, &data, Manhattan),
        MetricChoice::Chebyshev => topn_on_index(&engine, index, &data, Chebyshev),
        MetricChoice::Angular => topn_on_index(&engine, index, &data, Angular),
    }
}

fn topn_on_index<M: Metric + Clone>(
    engine: &TopNEngine,
    index: IndexChoice,
    data: &Dataset,
    metric: M,
) -> Result<TopNOutput, String> {
    fn go<P>(engine: &TopNEngine, provider: &P) -> Result<TopNOutput, String>
    where
        P: KnnProvider + PartitionSource + PartitionMetric + Sync,
    {
        let partitions = provider.partitions();
        let result = engine.run(provider, &partitions).map_err(|e| e.to_string())?;
        Ok(TopNOutput {
            report: result.ranking,
            threshold: Some(result.threshold),
            stats: Some(result.stats),
        })
    }
    match index {
        IndexChoice::Scan => {
            let scan = LinearScan::new(data, metric);
            let report =
                topn_reference(&scan, engine.min_pts(), engine.n()).map_err(|e| e.to_string())?;
            Ok(TopNOutput { report, threshold: None, stats: None })
        }
        IndexChoice::KdTree => go(engine, &KdTree::new(data, metric)),
        IndexChoice::BallTree => go(engine, &BallTree::new(data, metric)),
        other => Err(format!("index '{other:?}' has no partition support for topn")),
    }
}

/// Renders the ranked report as an aligned text table.
pub fn render_report(report: &[(usize, f64)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:>8}  {:>10}", "row", "LOF");
    for (id, score) in report {
        let _ = writeln!(out, "{id:>8}  {score:>10.4}");
    }
    out
}

/// Usage text.
pub fn usage() -> &'static str {
    "usage: lof [OPTIONS] <INPUT.csv|INPUT.lofd>
       lof topn [OPTIONS] <INPUT.csv|INPUT.lofd>
       lof ingest [OPTIONS] <INPUT.csv> <OUTPUT.lofd>
       lof stream [OPTIONS] [INPUT]
       lof serve [OPTIONS]

Batch mode scores every row of a numeric CSV with the Local Outlier
Factor (Breunig, Kriegel, Ng, Sander; SIGMOD 2000) and prints a ranked
report. Topn mode answers only \"the N most outlying rows\" — exactly
the batch ranking's head, but computed by pruning whole index partitions
whose LOF upper bound cannot reach the running N-th best score instead
of sweeping every row. Both accept a `.lofd` out-of-core columnar file
(detected by magic) in place of a CSV and mmap it zero-copy; ingest mode
converts a named-column CSV into that format, streaming in O(row)
memory. Stream mode scores line-delimited events (CSV row, JSON array,
or {\"point\": [...]}) from a file or stdin through a sliding window;
serve mode does the same over TCP. Both emit one NDJSON record per
event.

batch options:
  --minpts LB[..UB]   MinPts value or range             [default: 10..20]
  --aggregate AGG     max | min | mean                  [default: max]
  --metric METRIC     euclidean | manhattan | chebyshev | angular
  --index INDEX       auto | scan | grid | kdtree | xtree | vafile | balltree
  --columns C1,C2,..  project onto these columns (subspace analysis)
  --standardize       z-score the columns before computing distances
  --threshold T       only report objects with score > T
  --top N             only report the N highest scores
  --explain N         print full explanations for the top N objects
  --threads N         worker threads (materialization and scoring both
                      parallelize; results are identical at any N);
                      0 = auto-detect every available core
                                                        [default: all cores]
  --format FMT        text | json (NDJSON, one record per row)
                                                        [default: text]
  --output FILE       also write an id,score CSV to FILE
  --table FILE        cache the materialization: load FILE if present,
                      else build and save it there
  --memory-budget B   out-of-core scoring: disk-spilled table segments;
                      B bytes (k/m/g = KiB/MiB/GiB) bound the segment
                      cache and the sweep's per-wave matrices; scores
                      are bit-identical to the in-RAM path (not
                      combinable with --explain or --table)
  --metrics           print a final metrics snapshot (Prometheus text,
                      including the core.ooc.* out-of-core counters) to
                      stderr

topn options:
  --n N               result size                       [default: 10]
  --minpts K          the MinPts the scores are exact for
                                                        [default: 10]
  --metric METRIC     euclidean | manhattan | chebyshev | angular
  --index INDEX       auto | scan | kdtree | balltree (tree leaves are
                      the pruning partitions; scan = full-sweep
                      reference)                        [default: auto]
  --columns C1,C2,..  project onto these columns (subspace analysis)
  --standardize       z-score the columns before computing distances
  --threads N         refinement workers; 0 = auto      [default: all cores]
  --metrics           print a final metrics snapshot (Prometheus text,
                      including the core.topn.* pruning counters) to
                      stderr

ingest options:
  --columns N1,N2,..  select header columns by NAME, in this order (the
                      schema mapping; default: every column in header
                      order); every selected field is validated as a
                      finite number with a row/column-located error
  --resume            continue an interrupted load from its last
                      checkpoint instead of starting over

stream / serve options:
  --minpts K          MinPts of the window model        [default: 10]
  --capacity N        sliding-window capacity (events)  [default: 512]
  --warmup N          events buffered before scoring    [default: minpts+1]
  --landmark          never evict (landmark window)
  --threshold T       alert when LOF > T
  --topk K            alert when an event ranks in the window's top K
  --shards N          partition the window model across N spatial
                      shards (scores stay bit-identical)  [default: 1]
  --deferred          defer lrd/LOF maintenance to the reads — scores
                      stay bit-identical, per-event cost drops sharply
                      when only the arriving score is read
  --metric METRIC     euclidean | manhattan | chebyshev | angular
  --metrics           print a final metrics snapshot (Prometheus text)
                      to stderr; serve mode also answers in-band
                      `GET /metrics[.json]` requests on any connection
  --listen ADDR       serve only: bind address          [default: 127.0.0.1:7878]
  --queue N           serve only: in-flight event bound per worker
                                                        [default: 1024]
  --workers N         serve only: scoring worker threads; 0 = auto
                                                        [default: auto]
  --tenants N         serve only: maximum number of named windows
                                                        [default: 64]
  --snapshot-dir DIR  serve only: restore every *.lofw tenant snapshot
                      in DIR at startup, and persist tenants there on
                      `SNAPSHOT` / `DRAIN` (restart resumes scoring
                      bit-identically)
  --max-events-per-sec R
                      serve only: default per-tenant admission rate
                      (token bucket, burst = 1s of R); tenants may
                      override with `TENANT CREATE ... max_eps=R`

Stream and serve connections also answer in-band `GET /topn N` (or bare
`/topn N`) requests with a `{\"type\":\"topn\",...}` record ranking the
window's current members by LOF, most outlying first.

Serve mode multiplexes every connection onto one event-loop thread and
scores on a worker pool. Connections start attached to the `default`
tenant; `TENANT CREATE/ATTACH/LIST/DROP`, `SNAPSHOT [name]`, and `DRAIN`
manage named windows over the wire. `DRAIN` stops accepting, flushes
in-flight work, snapshots every tenant (with --snapshot-dir), acks, and
shuts the server down cleanly.
"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_defaults_and_input() {
        let config = parse_args(&args(&["data.csv"])).unwrap();
        assert_eq!(config.input, "data.csv");
        assert_eq!(config.min_pts, (10, 20));
        assert_eq!(config.aggregate, Aggregate::Max);
        assert_eq!(config.index, IndexChoice::Auto);
        assert!(!config.standardize);
    }

    #[test]
    fn parses_every_flag() {
        let config = parse_args(&args(&[
            "--minpts",
            "5..15",
            "--aggregate",
            "mean",
            "--metric",
            "manhattan",
            "--index",
            "xtree",
            "--standardize",
            "--threshold",
            "1.5",
            "--top",
            "7",
            "--explain",
            "3",
            "--threads",
            "4",
            "--output",
            "scores.csv",
            "in.csv",
        ]))
        .unwrap();
        assert_eq!(config.min_pts, (5, 15));
        assert_eq!(config.aggregate, Aggregate::Mean);
        assert_eq!(config.metric, MetricChoice::Manhattan);
        assert_eq!(config.index, IndexChoice::XTree);
        assert!(config.standardize);
        assert_eq!(config.threshold, Some(1.5));
        assert_eq!(config.top, Some(7));
        assert_eq!(config.explain, 3);
        assert_eq!(config.threads, 4);
        assert_eq!(config.output.as_deref(), Some("scores.csv"));
        assert_eq!(config.input, "in.csv");
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["a.csv", "b.csv"])).is_err());
        assert!(parse_args(&args(&["--bogus", "a.csv"])).is_err());
        assert!(parse_args(&args(&["--minpts", "0", "a.csv"])).is_err());
        assert!(parse_args(&args(&["--minpts", "9..3", "a.csv"])).is_err());
        assert!(parse_args(&args(&["--minpts", "abc", "a.csv"])).is_err());
        assert!(parse_args(&args(&["--aggregate", "median", "a.csv"])).is_err());
        assert!(parse_args(&args(&["--threshold"])).is_err());
    }

    #[test]
    fn parses_columns() {
        let config = parse_args(&args(&["--columns", "0, 2,3", "a.csv"])).unwrap();
        assert_eq!(config.columns, Some(vec![0, 2, 3]));
        assert!(parse_args(&args(&["--columns", "0,x", "a.csv"])).is_err());
    }

    #[test]
    fn columns_projection_runs_subspace_analysis() {
        // 3-d data whose outlier only shows in columns (0, 1): projecting
        // away the noisy third column is the paper's subspace workflow.
        let mut rows: Vec<[f64; 3]> = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                rows.push([i as f64, j as f64, (i * j % 7) as f64 * 100.0]);
            }
        }
        rows.push([30.0, 30.0, 300.0]);
        let data = Dataset::from_rows(&rows).unwrap();
        let config = Config {
            input: "unused".into(),
            min_pts: (5, 10),
            columns: Some(vec![0, 1]),
            top: Some(1),
            ..Config::default()
        };
        let output = run(&config, &data).unwrap();
        assert_eq!(output.report[0].0, 36);
    }

    #[test]
    fn default_thread_count_uses_available_cores() {
        let config = parse_args(&args(&["data.csv"])).unwrap();
        assert_eq!(config.threads, default_threads());
        assert!(config.threads >= 1);
    }

    #[test]
    fn explicit_zero_threads_means_auto_detect() {
        // `--threads 0` must normalize to the detected core count, not
        // fall through to `effective_threads`'s serial clamp.
        let config = parse_args(&args(&["--threads", "0", "data.csv"])).unwrap();
        assert_eq!(config.threads, default_threads());
        assert!(config.threads >= 1);
        // An explicit positive count is taken verbatim.
        let config = parse_args(&args(&["--threads", "3", "data.csv"])).unwrap();
        assert_eq!(config.threads, 3);
    }

    #[test]
    fn thread_counts_agree_on_scores() {
        let data = toy_dataset();
        let base = Config { input: "unused".into(), min_pts: (5, 10), ..Config::default() };
        let serial = run(&Config { threads: 1, ..base.clone() }, &data).unwrap();
        for threads in [2, 3, 8] {
            let parallel = run(&Config { threads, ..base.clone() }, &data).unwrap();
            assert_eq!(serial.scores, parallel.scores, "threads={threads}");
        }
    }

    #[test]
    fn single_min_pts_becomes_degenerate_range() {
        let config = parse_args(&args(&["--minpts", "12", "a.csv"])).unwrap();
        assert_eq!(config.min_pts, (12, 12));
    }

    fn toy_dataset() -> Dataset {
        let mut rows: Vec<[f64; 2]> = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                rows.push([i as f64, j as f64]);
            }
        }
        rows.push([30.0, 30.0]);
        Dataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn run_finds_the_outlier_with_every_index() {
        for index in [
            IndexChoice::Scan,
            IndexChoice::Grid,
            IndexChoice::KdTree,
            IndexChoice::XTree,
            IndexChoice::VaFile,
            IndexChoice::BallTree,
            IndexChoice::Auto,
        ] {
            let config = Config {
                input: "unused".into(),
                min_pts: (5, 10),
                index,
                top: Some(1),
                ..Config::default()
            };
            let output = run(&config, &toy_dataset()).unwrap();
            assert_eq!(output.report[0].0, 36, "{index:?}");
            assert!(output.report[0].1 > 3.0);
        }
    }

    #[test]
    fn threshold_and_top_filter() {
        let config = Config {
            input: "unused".into(),
            min_pts: (5, 10),
            threshold: Some(2.0),
            ..Config::default()
        };
        let output = run(&config, &toy_dataset()).unwrap();
        assert_eq!(output.report.len(), 1);
        assert_eq!(output.scores.len(), 37);
    }

    #[test]
    fn explanations_are_rendered() {
        let config =
            Config { input: "unused".into(), min_pts: (5, 10), explain: 2, ..Config::default() };
        let output = run(&config, &toy_dataset()).unwrap();
        assert_eq!(output.explanations.len(), 2);
        assert!(output.explanations[0].contains("object 36"));
    }

    #[test]
    fn run_validates_dataset_size() {
        let config = Config { input: "unused".into(), min_pts: (10, 50), ..Config::default() };
        let tiny = Dataset::from_rows(&[[0.0], [1.0]]).unwrap();
        assert!(run(&config, &tiny).is_err());
    }

    #[test]
    fn table_cache_roundtrips() {
        let path = std::env::temp_dir().join("lof_cli_table_cache.lofm");
        let _ = std::fs::remove_file(&path);
        let config = Config {
            input: "unused".into(),
            min_pts: (5, 10),
            table: Some(path.to_string_lossy().into_owned()),
            ..Config::default()
        };
        let data = toy_dataset();
        // First run builds and saves...
        let first = run(&config, &data).unwrap();
        assert!(path.exists(), "cache file must be written");
        // ...second run loads and must agree exactly.
        let second = run(&config, &data).unwrap();
        assert_eq!(first.scores, second.scores);
        // A mismatched dataset is rejected, not silently mis-scored.
        let other = Dataset::from_rows(&[[0.0, 0.0]; 30]).unwrap();
        assert!(run(&config, &other).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn report_renders_alignment() {
        let text = render_report(&[(3, 2.5), (11, 1.25)]);
        assert!(text.contains("row"));
        assert!(text.contains("2.5000"));
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn parses_format_flag() {
        let config = parse_args(&args(&["--format", "json", "a.csv"])).unwrap();
        assert_eq!(config.format, OutputFormat::Json);
        assert_eq!(parse_args(&args(&["a.csv"])).unwrap().format, OutputFormat::Text);
        assert!(parse_args(&args(&["--format", "yaml", "a.csv"])).is_err());
    }

    #[test]
    fn command_parser_routes_subcommands() {
        assert!(matches!(parse_command(&args(&["a.csv"])).unwrap(), Command::Batch(_)));
        let Command::Stream(stream) =
            parse_command(&args(&["stream", "--minpts", "5", "events.ndjson"])).unwrap()
        else {
            panic!("expected stream mode");
        };
        assert_eq!(stream.min_pts, 5);
        assert_eq!(stream.input.as_deref(), Some("events.ndjson"));
        let Command::Serve(serve) = parse_command(&args(&[
            "serve",
            "--listen",
            "0.0.0.0:9000",
            "--queue",
            "64",
            "--workers",
            "2",
            "--tenants",
            "8",
            "--snapshot-dir",
            "/tmp/lofw",
            "--max-events-per-sec",
            "500",
        ]))
        .unwrap() else {
            panic!("expected serve mode");
        };
        assert_eq!(serve.listen, "0.0.0.0:9000");
        assert_eq!(serve.queue, 64);
        assert_eq!(serve.workers, 2);
        assert_eq!(serve.tenants, 8);
        assert_eq!(serve.snapshot_dir.as_deref(), Some("/tmp/lofw"));
        assert_eq!(serve.max_events_per_sec, Some(500));
    }

    #[test]
    fn stream_args_parse_every_flag() {
        let parsed = parse_stream_args(
            false,
            &args(&[
                "--minpts",
                "4",
                "--capacity",
                "128",
                "--warmup",
                "16",
                "--landmark",
                "--threshold",
                "2.5",
                "--topk",
                "3",
                "--shards",
                "4",
                "--deferred",
                "--metric",
                "manhattan",
                "-",
            ]),
        )
        .unwrap();
        assert_eq!(parsed.min_pts, 4);
        assert_eq!(parsed.capacity, 128);
        assert_eq!(parsed.warmup, Some(16));
        assert!(parsed.landmark);
        assert_eq!(parsed.threshold, Some(2.5));
        assert_eq!(parsed.top_k, Some(3));
        assert_eq!(parsed.shards, 4);
        assert!(parsed.deferred);
        assert_eq!(parsed.metric, MetricChoice::Manhattan);
        assert_eq!(parsed.input, None, "'-' means stdin");
        assert!(!parsed.metrics, "--metrics is opt-in");

        let config = stream_window_config(&parsed);
        assert_eq!(config.min_pts, 4);
        assert_eq!(config.capacity, 128);
        assert_eq!(config.warmup, 16);
        assert_eq!(config.policy, lof_stream::EvictionPolicy::Landmark);
        assert_eq!(config.threshold, Some(2.5));
        assert_eq!(config.top_k, Some(3));
        assert_eq!(config.shards, 4);
        assert!(config.deferred);
    }

    #[test]
    fn metrics_flag_parses_in_every_mode() {
        assert!(parse_stream_args(false, &args(&["--metrics"])).unwrap().metrics);
        assert!(parse_stream_args(true, &args(&["--metrics"])).unwrap().metrics);
        let batch = parse_args(&args(&["--metrics", "a.csv"])).unwrap();
        assert!(batch.metrics);
        assert!(!parse_args(&args(&["a.csv"])).unwrap().metrics, "--metrics is opt-in");
    }

    #[test]
    fn stream_args_reject_mode_mismatches() {
        // Serve flags are invalid in stream mode and vice versa.
        assert!(parse_stream_args(false, &args(&["--listen", "x"])).is_err());
        assert!(parse_stream_args(false, &args(&["--queue", "9"])).is_err());
        assert!(parse_stream_args(false, &args(&["--workers", "2"])).is_err());
        assert!(parse_stream_args(false, &args(&["--tenants", "4"])).is_err());
        assert!(parse_stream_args(false, &args(&["--snapshot-dir", "d"])).is_err());
        assert!(parse_stream_args(false, &args(&["--max-events-per-sec", "5"])).is_err());
        assert!(parse_stream_args(true, &args(&["events.ndjson"])).is_err());
        assert!(parse_stream_args(false, &args(&["a", "b"])).is_err());
        assert!(parse_stream_args(false, &args(&["--minpts"])).is_err());
        assert!(parse_stream_args(false, &args(&["--minpts", "x"])).is_err());
    }

    #[test]
    fn topn_args_parse_every_flag() {
        let Command::TopN(parsed) = parse_command(&args(&[
            "topn",
            "--n",
            "7",
            "--minpts",
            "5",
            "--metric",
            "manhattan",
            "--index",
            "balltree",
            "--columns",
            "0,1",
            "--standardize",
            "--threads",
            "2",
            "--metrics",
            "in.csv",
        ]))
        .unwrap() else {
            panic!("expected topn mode");
        };
        assert_eq!(parsed.n, 7);
        assert_eq!(parsed.min_pts, 5);
        assert_eq!(parsed.metric, MetricChoice::Manhattan);
        assert_eq!(parsed.index, IndexChoice::BallTree);
        assert_eq!(parsed.columns, Some(vec![0, 1]));
        assert!(parsed.standardize);
        assert_eq!(parsed.threads, 2);
        assert!(parsed.metrics);
        assert_eq!(parsed.input, "in.csv");
        // Defaults.
        let defaults = parse_topn_args(&args(&["in.csv"])).unwrap();
        assert_eq!(defaults.n, 10);
        assert_eq!(defaults.min_pts, 10);
        assert_eq!(defaults.index, IndexChoice::Auto);
        assert_eq!(defaults.threads, default_threads());
    }

    #[test]
    fn topn_args_reject_invalid_input() {
        assert!(parse_topn_args(&args(&[])).is_err(), "input path is required");
        assert!(parse_topn_args(&args(&["--minpts", "0", "a.csv"])).is_err());
        assert!(parse_topn_args(&args(&["--index", "grid", "a.csv"])).is_err());
        assert!(parse_topn_args(&args(&["--index", "vafile", "a.csv"])).is_err());
        assert!(parse_topn_args(&args(&["--bogus", "a.csv"])).is_err());
        assert!(parse_topn_args(&args(&["--n"])).is_err());
        assert!(parse_topn_args(&args(&["a.csv", "b.csv"])).is_err());
    }

    #[test]
    fn run_topn_matches_the_full_sweep_on_every_supported_index() {
        let data = toy_dataset();
        let reference = run_topn(
            &TopNArgs {
                input: "unused".into(),
                n: 5,
                min_pts: 5,
                index: IndexChoice::Scan,
                threads: 1,
                ..TopNArgs::default()
            },
            &data,
        )
        .unwrap();
        assert_eq!(reference.report[0].0, 36, "the planted outlier leads");
        assert!(reference.stats.is_none(), "scan is the reference fallback");
        for index in [IndexChoice::Auto, IndexChoice::KdTree, IndexChoice::BallTree] {
            for threads in [1, 4] {
                let engine = run_topn(
                    &TopNArgs {
                        input: "unused".into(),
                        n: 5,
                        min_pts: 5,
                        index,
                        threads,
                        ..TopNArgs::default()
                    },
                    &data,
                )
                .unwrap();
                assert_eq!(engine.report, reference.report, "{index:?} x {threads} threads");
                let stats = engine.stats.expect("engine path reports stats");
                assert_eq!(
                    stats.objects_pruned + stats.objects_refined,
                    data.len() as u64,
                    "every object is either pruned or refined"
                );
            }
        }
    }

    #[test]
    fn run_topn_validates_dataset_size() {
        let tiny = Dataset::from_rows(&[[0.0], [1.0]]).unwrap();
        let args = TopNArgs { input: "unused".into(), min_pts: 10, ..TopNArgs::default() };
        assert!(run_topn(&args, &tiny).is_err());
    }

    #[test]
    fn parses_memory_budget_with_suffixes() {
        let config = parse_args(&args(&["--memory-budget", "64m", "a.csv"])).unwrap();
        assert_eq!(config.memory_budget, Some(64 << 20));
        assert_eq!(
            parse_args(&args(&["--memory-budget", "4096", "a.csv"])).unwrap().memory_budget,
            Some(4096)
        );
        assert_eq!(
            parse_args(&args(&["--memory-budget", "2K", "a.csv"])).unwrap().memory_budget,
            Some(2048)
        );
        assert_eq!(
            parse_args(&args(&["--memory-budget", "1g", "a.csv"])).unwrap().memory_budget,
            Some(1 << 30)
        );
        assert!(parse_args(&args(&["--memory-budget", "0", "a.csv"])).is_err());
        assert!(parse_args(&args(&["--memory-budget", "x", "a.csv"])).is_err());
        assert!(parse_args(&args(&["--memory-budget", "99999999999g", "a.csv"])).is_err());
    }

    #[test]
    fn ingest_args_parse() {
        let Command::Ingest(parsed) = parse_command(&args(&[
            "ingest",
            "--columns",
            "x, y,z",
            "--resume",
            "in.csv",
            "out.lofd",
        ]))
        .unwrap() else {
            panic!("expected ingest mode");
        };
        assert_eq!(parsed.input, "in.csv");
        assert_eq!(parsed.output, "out.lofd");
        assert_eq!(parsed.columns, Some(vec!["x".into(), "y".into(), "z".into()]));
        assert!(parsed.resume);
        let defaults = parse_ingest_args(&args(&["a.csv", "b.lofd"])).unwrap();
        assert_eq!(defaults.columns, None);
        assert!(!defaults.resume);
    }

    #[test]
    fn ingest_args_reject_invalid_input() {
        assert!(parse_ingest_args(&args(&["only-one.csv"])).is_err());
        assert!(parse_ingest_args(&args(&["a", "b", "c"])).is_err());
        assert!(parse_ingest_args(&args(&["--bogus", "a", "b"])).is_err());
        assert!(parse_ingest_args(&args(&["--columns", "x,,y", "a", "b"])).is_err());
        assert!(parse_ingest_args(&args(&["--columns"])).is_err());
    }

    #[test]
    fn memory_budget_scores_bit_identical_to_in_ram() {
        let data = toy_dataset();
        let base = Config { input: "unused".into(), min_pts: (5, 10), ..Config::default() };
        let in_ram = run(&base, &data).unwrap();
        // A budget far below the table size forces real spilling; scores
        // and the ranked report must still match byte for byte.
        for budget in [1u64 << 10, 1 << 30] {
            let spilled =
                run(&Config { memory_budget: Some(budget), ..base.clone() }, &data).unwrap();
            assert_eq!(spilled.scores, in_ram.scores, "budget={budget}");
            assert_eq!(spilled.report, in_ram.report, "budget={budget}");
        }
    }

    #[test]
    fn memory_budget_rejects_in_ram_only_features() {
        let data = toy_dataset();
        let base = Config {
            input: "unused".into(),
            min_pts: (5, 10),
            memory_budget: Some(1 << 20),
            ..Config::default()
        };
        assert!(run(&Config { explain: 1, ..base.clone() }, &data).is_err());
        assert!(run(&Config { table: Some("t.lofm".into()), ..base.clone() }, &data).is_err());
    }

    #[test]
    fn load_input_sniffs_lofd_and_falls_back_to_csv() {
        let dir = std::env::temp_dir().join(format!("lof-cli-sniff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = toy_dataset();
        let csv_path = dir.join("in.csv");
        let lofd_path = dir.join("in.lofd");
        lof_data::csv::save_dataset(&csv_path, &data).unwrap();
        Lofd::write_dataset(&lofd_path, &data).unwrap();
        let via_csv = load_input(csv_path.to_str().unwrap()).unwrap();
        let via_lofd = load_input(lofd_path.to_str().unwrap()).unwrap();
        assert_eq!(via_csv, data);
        assert_eq!(via_lofd, data);
        assert!(via_lofd.is_mapped(), ".lofd inputs are mmap-backed");
        assert!(load_input(dir.join("missing.csv").to_str().unwrap()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn json_report_shares_the_stream_schema() {
        let text = render_json_report(&[1.0, 3.5], Some(2.0));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"type\":\"score\",\"seq\":0,\"lof\":1.0,\"alert\":false,\"alerts\":[]}"
        );
        assert_eq!(
            lines[1],
            "{\"type\":\"score\",\"seq\":1,\"lof\":3.5,\"alert\":true,\"alerts\":[\"threshold\"]}"
        );
        // No threshold: nothing alerts.
        assert!(render_json_report(&[9.0], None).contains("\"alert\":false"));
    }
}
