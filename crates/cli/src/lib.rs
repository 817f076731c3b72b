//! Library backing the `lof` command-line tool: argument parsing and the
//! end-to-end run, separated from `main` so both are unit-testable.
//!
//! Five modes share one flag table, [`FLAGS`]: batch scoring of a CSV or
//! `.lofd` (Breunig et al., SIGMOD 2000), `topn`, `ingest`, `stream` and
//! `serve`. [`parse_command`] reads every mode's flags from it and
//! [`usage`] renders the help from it; run `lof --help` for the options.

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
use std::fmt::{Display, Write as _};

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

    /// Runs `visitor` with the metric this choice names: the one place a
    /// `MetricChoice` becomes a metric type.
    pub fn visit<V: MetricVisitor>(self, visitor: V) -> V::Output {
        match self {
            MetricChoice::Euclidean => visitor.visit(Euclidean),
            MetricChoice::Manhattan => visitor.visit(Manhattan),
            MetricChoice::Chebyshev => visitor.visit(Chebyshev),
            MetricChoice::Angular => visitor.visit(Angular),
        }
    }
}

/// Code generic over the metric type, run by [`MetricChoice::visit`].
pub trait MetricVisitor {
    /// What a visit returns.
    type Output;
    /// Runs with `metric`.
    fn visit<M: Metric + Clone + 'static>(self, metric: M) -> Self::Output;
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

/// Default worker-thread count: every available core (1 when the
/// parallelism query fails, e.g. under restrictive sandboxes).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The five `lof` modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Mode {
    Batch,
    TopN,
    Ingest,
    Stream,
    Serve,
}

impl Mode {
    /// Every mode, in the order [`usage`] lists them.
    pub const ALL: [Mode; 5] = [Mode::Batch, Mode::TopN, Mode::Ingest, Mode::Stream, Mode::Serve];

    /// The first argument that selects the mode; batch has none.
    pub fn word(self) -> Option<&'static str> {
        match self {
            Mode::Batch => None,
            Mode::TopN => Some("topn"),
            Mode::Ingest => Some("ingest"),
            Mode::Stream => Some("stream"),
            Mode::Serve => Some("serve"),
        }
    }

    /// The heading of the mode's section in [`usage`]: `"<name> options:"`.
    pub fn heading(self) -> String {
        format!("{} options:", self.word().unwrap_or("batch"))
    }
}

/// One row of the flag table: everything the parser and [`usage`] know
/// about a flag in the modes that accept it.
pub struct Flag {
    /// The flag as typed.
    pub name: &'static str,
    /// The modes that accept it.
    pub modes: &'static [Mode],
    /// Placeholder of its value in the help; empty for a switch, which
    /// takes no value.
    pub value: &'static str,
    /// The help line (wrapped by [`usage`]).
    pub help: &'static str,
    /// The default the help shows; parsing it yields the args' default.
    pub default: Option<&'static dyn Display>,
    /// Parses the value, validating it, and stores it in the args of the
    /// command; the parse loop calls it only in `modes`.
    apply: fn(&mut Command, &str) -> Result<(), String>,
}

/// Builds a [`Flag`]: `parse` turns the text into the value, which lands
/// in `field` of whichever listed mode's args the command holds.
macro_rules! flag {
    (
        $name:literal, $value:literal, $help:literal, $default:expr,
        $($mode:ident)|+ => $field:ident = $parse:expr
    ) => {
        Flag {
            name: $name,
            modes: &[$(Mode::$mode),+],
            value: $value,
            help: $help,
            default: $default,
            apply: |command, text| {
                let value = ($parse)(text)?;
                match command {
                    $(Command::$mode(args) => args.$field = value,)+
                    _ => unreachable!("a flag is applied only in the modes of its row"),
                }
                Ok(())
            },
        }
    };
}

/// Every flag of every mode.
#[rustfmt::skip]
pub const FLAGS: &[Flag] = &[
    flag!("--minpts", "LB[..UB]", "MinPts value or range", Some(&"10..20"),
        Batch => min_pts = min_pts_range),
    flag!("--minpts", "K", "MinPts: the one value the scores are exact for", Some(&10),
        TopN | Stream | Serve => min_pts = positive),
    flag!("--n", "N", "result size: how many of the most outlying rows to report", Some(&10),
        TopN => n = positive),
    flag!("--aggregate", "AGG", "max | min | mean", Some(&"max"),
        Batch => aggregate = one_of(&[("max", Aggregate::Max), ("min", Aggregate::Min),
            ("mean", Aggregate::Mean)])),
    flag!("--metric", "METRIC", "euclidean | manhattan | chebyshev | angular", Some(&"euclidean"),
        Batch | TopN | Stream | Serve => metric = metric),
    flag!("--index", "INDEX", "auto | scan | grid | kdtree | xtree | vafile | balltree; auto \
        picks by dimensionality", Some(&"auto"),
        Batch => index = one_of(&[("auto", IndexChoice::Auto), ("scan", IndexChoice::Scan),
            ("grid", IndexChoice::Grid), ("kdtree", IndexChoice::KdTree),
            ("xtree", IndexChoice::XTree), ("vafile", IndexChoice::VaFile),
            ("balltree", IndexChoice::BallTree)])),
    flag!("--index", "INDEX", "auto | scan | kdtree | balltree (tree leaves are the pruning \
        partitions; scan = full-sweep reference)", Some(&"auto"),
        TopN => index = one_of(&[("auto", IndexChoice::Auto), ("scan", IndexChoice::Scan),
            ("kdtree", IndexChoice::KdTree), ("balltree", IndexChoice::BallTree)])),
    flag!("--columns", "C1,C2,..", "project onto these columns (subspace analysis)", None,
        Batch | TopN => columns = optional(column_indices)),
    flag!("--columns", "N1,N2,..", "select header columns by NAME, in this order (the schema \
        mapping; default: every column in header order); every selected field is validated as \
        a finite number with a row/column-located error", None,
        Ingest => columns = optional(column_names)),
    flag!("--standardize", "", "z-score the columns before computing distances", None,
        Batch | TopN => standardize = switch),
    flag!("--threshold", "T", "only report objects with score > T", None,
        Batch => threshold = optional(real)),
    flag!("--threshold", "T", "alert when LOF > T (a positive finite number)", None,
        Stream | Serve => threshold = optional(real)),
    flag!("--top", "N", "only report the N highest scores", None,
        Batch => top = optional(count)),
    flag!("--explain", "N", "print full explanations for the top N objects (text report, in-RAM \
        scoring)", Some(&0),
        Batch => explain = count),
    flag!("--threads", "N", "worker threads (results are identical at any N); 0 = every \
        available core", Some(&0),
        Batch | TopN => threads = threads),
    flag!("--format", "FMT", "text | json (NDJSON, one record per row)", Some(&"text"),
        Batch => format = one_of(&[("text", OutputFormat::Text), ("json", OutputFormat::Json)])),
    flag!("--output", "FILE", "also write an id,score CSV to FILE", None,
        Batch => output = optional(string)),
    flag!("--table", "FILE", "cache the materialization: load FILE if present, else build and \
        save it there", None,
        Batch => table = optional(string)),
    flag!("--memory-budget", "B", "out-of-core scoring: disk-spilled table segments; B bytes \
        (k/m/g = KiB/MiB/GiB) bound the segment cache and the sweep's per-wave matrices; scores \
        are bit-identical to the in-RAM path (no explanations, no table cache)", None,
        Batch => memory_budget = optional(budget)),
    flag!("--resume", "", "continue an interrupted load from its last checkpoint instead of \
        starting over", None,
        Ingest => resume = switch),
    flag!("--capacity", "N", "sliding-window capacity (events)", Some(&512),
        Stream | Serve => capacity = count),
    flag!("--warmup", "N", "events buffered before scoring; default MinPts + 1", None,
        Stream | Serve => warmup = optional(count)),
    flag!("--landmark", "", "never evict (landmark window)", None,
        Stream | Serve => landmark = switch),
    flag!("--topk", "K", "alert when an event ranks in the window's top K (K >= 1)", None,
        Stream | Serve => top_k = optional(count)),
    flag!("--metrics", "", "print a final metrics snapshot (Prometheus text, with the core.ooc.* \
        out-of-core and core.topn.* pruning counters) to stderr", None,
        Batch | TopN | Stream | Serve => metrics = switch),
    flag!("--listen", "ADDR", "bind address", Some(&"127.0.0.1:7878"),
        Serve => listen = string),
    flag!("--queue", "N", "in-flight event bound per worker; 0 = the default",
        Some(&lof_serve::DEFAULT_QUEUE),
        Serve => queue = count),
    flag!("--workers", "N", "scoring worker threads; 0 = auto", Some(&0),
        Serve => workers = count),
    flag!("--tenants", "N", "maximum number of named windows; 0 = the default",
        Some(&lof_serve::DEFAULT_MAX_TENANTS),
        Serve => tenants = count),
    flag!("--snapshot-dir", "DIR", "restore every *.lofw tenant snapshot in DIR at startup, and \
        persist tenants there on `SNAPSHOT` / `DRAIN` (restart resumes scoring \
        bit-identically)", None,
        Serve => snapshot_dir = optional(string)),
    flag!("--max-events-per-sec", "R", "default per-tenant admission rate (token bucket, burst = \
        1s of R); tenants may override with `TENANT CREATE ... max_eps=R`", None,
        Serve => max_events_per_sec = optional(count)),
];

// Value parsers: each turns a flag's text into its value or says why not.

fn count<T: std::str::FromStr>(text: &str) -> Result<T, String>
where
    T::Err: Display,
{
    text.parse().map_err(|e| format!("{e}"))
}

fn positive(text: &str) -> Result<usize, String> {
    match count(text)? {
        0 => Err("must be >= 1".to_owned()),
        n => Ok(n),
    }
}

fn min_pts_range(text: &str) -> Result<(usize, usize), String> {
    let Some((lb, ub)) = text.split_once("..") else {
        return positive(text).map(|k| (k, k));
    };
    let (lb, ub) = (positive(lb)?, count(ub)?);
    if lb > ub {
        return Err(format!("invalid MinPts range {lb}..{ub}"));
    }
    Ok((lb, ub))
}

fn threads(text: &str) -> Result<usize, String> {
    // `0` means auto-detect. Normalize it here: the core's
    // `effective_threads` clamps 0 to 1 (serial), which is not what "use
    // every core" callers intend.
    count(text).map(|n| if n == 0 { default_threads() } else { n })
}

/// A float that orders against scores: NaN would make every comparison
/// false and silently empty a report.
fn real(text: &str) -> Result<f64, String> {
    let value: f64 = text.parse().map_err(|e| format!("{e}"))?;
    if value.is_nan() {
        return Err("not a number".to_owned());
    }
    Ok(value)
}

fn string(text: &str) -> Result<String, String> {
    Ok(text.to_owned())
}

fn switch(_: &str) -> Result<bool, String> {
    Ok(true)
}

fn optional<T>(parse: fn(&str) -> Result<T, String>) -> impl Fn(&str) -> Result<Option<T>, String> {
    move |text| parse(text).map(Some)
}

fn column_indices(list: &str) -> Result<Vec<usize>, String> {
    list.split(',').map(|c| count(c.trim())).collect()
}

fn column_names(list: &str) -> Result<Vec<String>, String> {
    let names: Vec<String> = list.split(',').map(|c| c.trim().to_owned()).collect();
    if names.iter().any(String::is_empty) {
        return Err("empty column name".to_owned());
    }
    Ok(names)
}

/// A parser that accepts the names of `choices`.
fn one_of<T: Copy>(choices: &'static [(&'static str, T)]) -> impl Fn(&str) -> Result<T, String> {
    move |name| {
        let found = choices.iter().find(|(choice, _)| *choice == name);
        found.map(|&(_, value)| value).ok_or_else(|| {
            let names: Vec<&str> = choices.iter().map(|&(choice, _)| choice).collect();
            format!("expected {}", names.join(" | "))
        })
    }
}

fn metric(name: &str) -> Result<MetricChoice, String> {
    let all = [
        MetricChoice::Euclidean,
        MetricChoice::Manhattan,
        MetricChoice::Chebyshev,
        MetricChoice::Angular,
    ];
    all.into_iter().find(|m| m.tag() == name).ok_or_else(|| "unknown metric".to_owned())
}

/// Parses a byte budget with an optional `k`/`m`/`g` suffix (binary
/// units), e.g. `64m` = 64 MiB.
fn budget(text: &str) -> Result<u64, String> {
    let lower = text.trim().to_ascii_lowercase();
    let (digits, shift) = match lower.strip_suffix(['k', 'm', 'g']) {
        Some(rest) => match lower.as_bytes()[lower.len() - 1] {
            b'k' => (rest, 10),
            b'm' => (rest, 20),
            _ => (rest, 30),
        },
        None => (lower.as_str(), 0),
    };
    let base: u64 = digits.parse().map_err(|e| format!("{e}"))?;
    let bytes = base
        .checked_shl(shift)
        .filter(|b| *b >> shift == base)
        .ok_or_else(|| "overflows u64".to_owned())?;
    if bytes == 0 {
        return Err("must be positive".to_owned());
    }
    Ok(bytes)
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

impl Command {
    /// The mode's defaults.
    fn new(mode: Mode) -> Command {
        match mode {
            Mode::Batch => Command::Batch(Config::default()),
            Mode::TopN => Command::TopN(TopNArgs::default()),
            Mode::Ingest => Command::Ingest(IngestArgs::default()),
            Mode::Stream => Command::Stream(StreamArgs::default()),
            Mode::Serve => Command::Serve(StreamArgs::default()),
        }
    }

    /// Takes the mode's positional arguments.
    fn paths(&mut self, paths: &[String]) -> Result<(), String> {
        match (self, paths) {
            (
                Command::Batch(Config { input, .. }) | Command::TopN(TopNArgs { input, .. }),
                [path],
            ) => {
                input.clone_from(path);
            }
            (Command::Batch(_) | Command::TopN(_), []) => {
                return Err("missing input CSV path".to_owned())
            }
            (Command::Batch(_) | Command::TopN(_), more) => {
                return Err(format!("expected one input path, got {}", more.len()))
            }
            (Command::Ingest(args), [input, output]) => {
                args.input.clone_from(input);
                args.output.clone_from(output);
            }
            (Command::Ingest(_), other) => {
                return Err(format!(
                    "ingest takes <INPUT.csv> <OUTPUT.lofd>, got {} paths",
                    other.len()
                ))
            }
            (Command::Stream(args), [path]) if path != "-" => args.input = Some(path.clone()),
            (Command::Stream(_), [] | [_]) => {} // stdin, by default or as `-`
            (Command::Stream(_), more) => {
                return Err(format!("expected at most one input path, got {}", more.len()))
            }
            (Command::Serve(_), []) => {}
            (Command::Serve(_), _) => {
                return Err("serve mode reads from TCP, not a file".to_owned())
            }
        }
        Ok(())
    }
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
    /// Index substrate; `lof topn` accepts `auto | scan | kdtree |
    /// balltree`. The tree leaves are the engine's partitions; an index
    /// without leaf partitions (`scan`) falls back to the full-sweep
    /// reference.
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
    /// Job-queue bound per worker in serve mode (0 =
    /// `lof_serve::DEFAULT_QUEUE`, the default).
    pub queue: usize,
    /// Scoring worker threads in serve mode (0 = auto).
    pub workers: usize,
    /// Tenant-count ceiling in serve mode (0 =
    /// `lof_serve::DEFAULT_MAX_TENANTS`, the default).
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
            queue: lof_serve::DEFAULT_QUEUE,
            workers: 0,
            tenants: lof_serve::DEFAULT_MAX_TENANTS,
            snapshot_dir: None,
            max_events_per_sec: None,
            metric: MetricChoice::Euclidean,
            metrics: false,
        }
    }
}

/// Parses a full command line: a leading `topn` / `ingest` / `stream` /
/// `serve` word selects that mode, anything else is the classic batch
/// invocation. Every mode reads its flags from [`FLAGS`].
///
/// # Errors
///
/// Returns a human-readable message for unknown flags, missing or
/// invalid values, or the wrong number of paths.
pub fn parse_command(args: &[String]) -> Result<Command, String> {
    let first = args.first().map(String::as_str);
    let (mode, args) = match Mode::ALL.into_iter().find(|m| m.word().is_some() && m.word() == first)
    {
        Some(mode) => (mode, &args[1..]),
        None => (Mode::Batch, args),
    };
    let mut command = Command::new(mode);
    let mut paths = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            paths.push(arg.clone());
            continue;
        }
        let Some(flag) = FLAGS.iter().find(|f| f.name == arg && f.modes.contains(&mode)) else {
            let word = mode.word().map(|w| format!("{w} ")).unwrap_or_default();
            return Err(format!("unknown {word}flag '{arg}'"));
        };
        let value = if flag.value.is_empty() {
            ""
        } else {
            args.next().ok_or_else(|| format!("{arg} requires a value"))?
        };
        (flag.apply)(&mut command, value).map_err(|e| format!("bad {arg} '{value}': {e}"))?;
    }
    command.paths(&paths)?;
    Ok(command)
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

/// Runs the pipeline per `config` over an already-loaded dataset. With a
/// memory budget the neighborhood table is materialized as disk-spilled
/// CSR segments under the byte budget and the `MinPts`-range scores are
/// folded from them, bit-identical to the in-RAM pipeline at any budget.
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
    if config.memory_budget.is_some() && (config.explain > 0 || config.table.is_some()) {
        return Err("explanations and the table cache need the in-RAM materialization; \
             drop the memory budget to use them"
            .to_owned());
    }
    if config.explain > 0 && config.format == OutputFormat::Json {
        return Err("explanations are part of the text report; the json format has none".to_owned());
    }
    let data = prepare(raw, config.columns.as_deref(), config.standardize)?;
    let index = resolve_index(config.index, config.metric, data.dims(), false);

    let (scores, mut report, explanations) = match config.memory_budget {
        Some(budget) => {
            let range =
                MinPtsRange::new(config.min_pts.0, config.min_pts.1).map_err(|e| e.to_string())?;
            let spill = Spill { range, aggregate: config.aggregate, budget: budget as usize };
            let (scores, ranking) = on_index(config.metric, index, &data, spill)?;
            (scores, ranking, Vec::new())
        }
        None => {
            let detector = LofDetector::with_range(config.min_pts.0, config.min_pts.1)
                .map_err(|e| e.to_string())?
                .aggregate(config.aggregate)
                .threads(config.threads);
            let score = Score {
                detector: &detector,
                cache: config.table.as_deref(),
                threads: config.threads.max(1),
            };
            let (result, table) = on_index(config.metric, index, &data, score)?;
            let ranking = result.ranking();
            let mut explanations = Vec::new();
            for &(id, _) in ranking.iter().take(config.explain) {
                let ex = explain(&data, &table, config.min_pts.1, id).map_err(|e| e.to_string())?;
                explanations.push(ex.render(&data));
            }
            (result.scores(), ranking, explanations)
        }
    };
    if let Some(t) = config.threshold {
        report.retain(|&(_, s)| s > t);
    }
    if let Some(top) = config.top {
        report.truncate(top);
    }
    Ok(RunOutput { report, scores, explanations })
}

/// Projects onto `columns` (if any), then z-scores (if asked).
fn prepare(raw: &Dataset, columns: Option<&[usize]>, z_score: bool) -> Result<Dataset, String> {
    let projected = match columns {
        Some(columns) => raw.project(columns).map_err(|e| e.to_string())?,
        None => raw.clone(),
    };
    Ok(if z_score { standardize(&projected) } else { projected })
}

/// Resolves `auto` to a concrete index. Angular has no rectangle bound,
/// so only the ball tree prunes under it; top-n needs leaf `partitions`,
/// so it takes the kd-tree; otherwise the grid for d <= 3, the kd-tree
/// for d <= 12 and the VA-file beyond.
fn resolve_index(
    choice: IndexChoice,
    metric: MetricChoice,
    dims: usize,
    partitions: bool,
) -> IndexChoice {
    match choice {
        IndexChoice::Auto if metric == MetricChoice::Angular => IndexChoice::BallTree,
        IndexChoice::Auto if partitions || (4..=12).contains(&dims) => IndexChoice::KdTree,
        IndexChoice::Auto if dims <= 3 => IndexChoice::Grid,
        IndexChoice::Auto => IndexChoice::VaFile,
        concrete => concrete,
    }
}

/// An index whose leaves can serve as the top-n engine's partitions.
trait Partitioned: PartitionSource + PartitionMetric {}

impl<T: PartitionSource + PartitionMetric> Partitioned for T {}

/// The index again, when its leaves can serve as top-n partitions.
type Leaves<'a> = Option<&'a dyn Partitioned>;

/// Code generic over the index substrate, run by [`on_index`].
trait IndexVisitor {
    type Output;
    /// Runs with `index`.
    fn visit<P: KnnProvider + Sync>(self, index: &P, leaves: Leaves<'_>) -> Self::Output;
}

/// Builds the index `choice` names (resolved, never `Auto`) over `data`
/// under `metric` and runs `visitor` on it: the one place an
/// `IndexChoice` becomes an index type.
fn on_index<V: IndexVisitor>(
    metric: MetricChoice,
    choice: IndexChoice,
    data: &Dataset,
    visitor: V,
) -> V::Output {
    struct Build<'a, V> {
        choice: IndexChoice,
        data: &'a Dataset,
        visitor: V,
    }
    impl<V: IndexVisitor> MetricVisitor for Build<'_, V> {
        type Output = V::Output;
        fn visit<M: Metric + Clone + 'static>(self, metric: M) -> V::Output {
            let (data, visitor) = (self.data, self.visitor);
            match self.choice {
                IndexChoice::Scan => visitor.visit(&LinearScan::new(data, metric), None),
                IndexChoice::Grid => visitor.visit(&GridIndex::new(data, metric), None),
                IndexChoice::KdTree => {
                    let tree = KdTree::new(data, metric);
                    visitor.visit(&tree, Some(&tree))
                }
                IndexChoice::XTree => visitor.visit(&XTree::new(data, metric), None),
                IndexChoice::VaFile => visitor.visit(&VaFile::new(data, metric), None),
                IndexChoice::BallTree => {
                    let tree = BallTree::new(data, metric);
                    visitor.visit(&tree, Some(&tree))
                }
                IndexChoice::Auto => unreachable!("resolved before dispatch"),
            }
        }
    }
    metric.visit(Build { choice, data, visitor })
}

/// The in-RAM batch path: materialize (or load the cached table), then
/// score the range.
struct Score<'a> {
    detector: &'a LofDetector<Euclidean>,
    cache: Option<&'a str>,
    threads: usize,
}

impl IndexVisitor for Score<'_> {
    type Output = Result<(OutlierResult, NeighborhoodTable), String>;

    fn visit<P: KnnProvider + Sync>(self, provider: &P, _: Leaves<'_>) -> Self::Output {
        let ub = self.detector.range().ub();
        let table = match self.cache {
            Some(path) if std::path::Path::new(path).exists() => {
                let table = NeighborhoodTable::load(path).map_err(|e| e.to_string())?;
                if table.len() != provider.len() || table.max_k() < ub {
                    return Err(format!(
                        "cached table '{path}' does not match this run \
                         ({} objects @ max_k {}, need {} @ {ub})",
                        table.len(),
                        table.max_k(),
                        provider.len(),
                    ));
                }
                table
            }
            _ => {
                // `build_table_parallel` falls back to the serial build at
                // `threads == 1` and is byte-identical to it otherwise.
                let table =
                    build_table_parallel(provider, ub, self.threads).map_err(|e| e.to_string())?;
                if let Some(path) = self.cache {
                    table.save(path).map_err(|e| format!("cannot save table: {e}"))?;
                }
                table
            }
        };
        let result = self.detector.detect_from_table(&table).map_err(|e| e.to_string())?;
        Ok((result, table))
    }
}

/// The out-of-core batch path: scores in id order and their ranking.
struct Spill {
    range: MinPtsRange,
    aggregate: Aggregate,
    budget: usize,
}

impl IndexVisitor for Spill {
    type Output = Result<(Vec<f64>, Vec<(usize, f64)>), String>;

    fn visit<P: KnnProvider + Sync>(self, provider: &P, _: Leaves<'_>) -> Self::Output {
        let dir = std::env::temp_dir();
        let table = SpilledNeighborhoodTable::build(provider, self.range.ub(), self.budget, &dir)
            .map_err(|e| e.to_string())?;
        let ooc = table.lof_range(self.range, self.aggregate).map_err(|e| e.to_string())?;
        Ok((ooc.scores().to_vec(), ooc.ranking()))
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
    let data = prepare(raw, args.columns.as_deref(), args.standardize)?;
    let engine = TopNEngine::new(args.min_pts, args.n).with_threads(args.threads);
    let index = resolve_index(args.index, args.metric, data.dims(), true);
    on_index(args.metric, index, &data, TopN { engine: &engine })
}

/// The top-n path: the engine over tree leaves, or the full-sweep
/// reference on the scan.
struct TopN<'a> {
    engine: &'a TopNEngine,
}

impl IndexVisitor for TopN<'_> {
    type Output = Result<TopNOutput, String>;

    fn visit<P: KnnProvider + Sync>(self, provider: &P, leaves: Leaves<'_>) -> Self::Output {
        let Some(tree) = leaves else {
            let report = topn_reference(provider, self.engine.min_pts(), self.engine.n())
                .map_err(|e| e.to_string())?;
            return Ok(TopNOutput { report, threshold: None, stats: None });
        };
        let result = self
            .engine
            .run_with_metric(provider, tree.partition_metric(), &tree.partitions())
            .map_err(|e| e.to_string())?;
        Ok(TopNOutput {
            report: result.ranking,
            threshold: Some(result.threshold),
            stats: Some(result.stats),
        })
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

/// Usage text: the modes, each mode's options rendered from [`FLAGS`],
/// and the in-band requests of the streaming modes.
pub fn usage() -> String {
    let mut out = String::from(
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
",
    );
    for mode in Mode::ALL {
        let _ = writeln!(out, "\n{}", mode.heading());
        for flag in FLAGS.iter().filter(|f| f.modes.contains(&mode)) {
            write_flag(&mut out, flag);
        }
    }
    out.push_str(
        "
Stream and serve connections also answer in-band `GET /topn N` (or bare
`/topn N`) requests with a `{\"type\":\"topn\",...}` record ranking the
window's current members by LOF, most outlying first. Serve connections
answer `GET /metrics[.json]` with the server's metrics registry.

Serve mode multiplexes every connection onto one event-loop thread and
scores on a worker pool. Connections start attached to the `default`
tenant; `TENANT CREATE/ATTACH/LIST/DROP`, `SNAPSHOT [name]`, and `DRAIN`
manage named windows over the wire. `DRAIN` stops accepting, flushes
in-flight work, snapshots every tenant (with a snapshot directory),
acks, and shuts the server down cleanly.
",
    );
    out
}

/// Width of the flag column of [`usage`], and of the whole line.
const LABEL: usize = 20;
const WIDTH: usize = 78;

/// One option of [`usage`]: the flag and its value placeholder, then the
/// help (and default) wrapped beside it.
fn write_flag(out: &mut String, flag: &Flag) {
    let mut help = flag.help.to_owned();
    if let Some(default) = flag.default {
        let _ = write!(help, " [default: {default}]");
    }
    let label = format!("{} {}", flag.name, flag.value);
    let label = label.trim_end();
    let indent = " ".repeat(LABEL + 2);
    let mut pad = if label.len() < LABEL {
        let _ = write!(out, "  {label:<LABEL$}");
        String::new()
    } else {
        let _ = writeln!(out, "  {label}");
        indent.clone()
    };
    let mut line = String::new();
    for word in help.split_whitespace() {
        if !line.is_empty() && line.len() + 1 + word.len() > WIDTH - LABEL - 2 {
            let _ = writeln!(out, "{pad}{line}");
            pad.clone_from(&indent);
            line.clear();
        }
        if !line.is_empty() {
            line.push(' ');
        }
        line.push_str(word);
    }
    let _ = writeln!(out, "{pad}{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    /// `parse_command` with `word` in front of `list`.
    fn parse_mode(word: &str, list: &[String]) -> Result<Command, String> {
        parse_command(&[vec![word.to_owned()], list.to_vec()].concat())
    }

    fn parse_args(list: &[String]) -> Result<Config, String> {
        parse_command(list).map(|c| if let Command::Batch(c) = c { c } else { panic!("{c:?}") })
    }

    fn parse_topn_args(list: &[String]) -> Result<TopNArgs, String> {
        parse_mode("topn", list).map(|c| if let Command::TopN(c) = c { c } else { panic!("{c:?}") })
    }

    fn parse_ingest_args(list: &[String]) -> Result<IngestArgs, String> {
        let parsed = parse_mode("ingest", list);
        parsed.map(|c| if let Command::Ingest(c) = c { c } else { panic!("{c:?}") })
    }

    fn parse_stream_args(serve: bool, list: &[String]) -> Result<StreamArgs, String> {
        let parsed = parse_mode(if serve { "serve" } else { "stream" }, list);
        parsed.map(|c| match c {
            Command::Stream(c) | Command::Serve(c) => c,
            other => panic!("{other:?}"),
        })
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
        assert!(parse_args(&args(&["--threshold", "nan", "a.csv"])).is_err());
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
        // The retired engine flags are plain unknown flags in both modes.
        for serve in [false, true] {
            assert!(parse_stream_args(serve, &args(&["--shards", "4"])).is_err());
            assert!(parse_stream_args(serve, &args(&["--deferred"])).is_err());
        }
        // Alert rules that could never mean what they say: NaN fails to
        // parse, the rest fail the window's validation.
        assert!(parse_stream_args(false, &args(&["--threshold", "nan"])).is_err());
        for rule in [["--threshold", "-1"], ["--threshold", "inf"], ["--topk", "0"]] {
            let parsed = parse_stream_args(true, &args(&rule)).unwrap();
            assert!(stream_window_config(&parsed).validate().is_err(), "{rule:?}");
        }
    }

    #[test]
    fn shown_defaults_are_the_parsed_defaults() {
        for flag in FLAGS {
            let Some(default) = flag.default else { continue };
            for &mode in flag.modes {
                let mut command = Command::new(mode);
                (flag.apply)(&mut command, &default.to_string()).unwrap();
                assert_eq!(command, Command::new(mode), "{} in {mode:?}", flag.name);
            }
        }
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
        assert!(parse_topn_args(&args(&["--n", "0", "a.csv"])).is_err());
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
        // Explanations only render in the text report.
        let json = Config { explain: 1, format: OutputFormat::Json, memory_budget: None, ..base };
        assert!(run(&json, &data).is_err());
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
