//! The `lof` command-line tool. See [`lof_cli::usage`] or run `lof --help`.

use lof_cli::{
    load_input, parse_command, render_json_report, render_report, run, run_topn,
    stream_window_config, usage, Command, Config, IngestArgs, MetricVisitor, OutputFormat,
    StreamArgs, TopNArgs,
};
use lof_core::Metric;
use lof_serve::{Quotas, ServeConfig, TenantSpec};
use lof_stream::{serve, SlidingWindowLof, StreamStats};
use std::io::{BufRead, BufReader};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }

    let command = match parse_command(&args) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("error: {message}\n");
            eprint!("{}", usage());
            return ExitCode::FAILURE;
        }
    };

    match command {
        Command::Batch(config) => run_batch(&config),
        Command::TopN(topn) => run_topn_mode(&topn),
        Command::Ingest(ingest) => run_ingest_mode(&ingest),
        Command::Stream(args) => args.metric.visit(Streaming { args: &args, serve: false }),
        Command::Serve(args) => args.metric.visit(Streaming { args: &args, serve: true }),
    }
}

/// Streams a named-column CSV into the out-of-core `.lofd` format.
fn run_ingest_mode(args: &IngestArgs) -> ExitCode {
    let input = std::path::Path::new(&args.input);
    let output = std::path::Path::new(&args.output);
    match lof_data::ingest::ingest_csv(input, output, args.columns.as_deref(), args.resume) {
        Ok(report) => {
            let resumed = if report.resumed_rows > 0 {
                format!(" ({} recovered from checkpoint)", report.resumed_rows)
            } else {
                String::new()
            };
            eprintln!(
                "ingested {} rows x {} columns [{}] into {}{resumed}",
                report.rows,
                report.columns.len(),
                report.columns.join(","),
                args.output,
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            if !args.resume {
                eprintln!("(a partial output, if any, can be resumed: see `lof --help`)");
            }
            ExitCode::FAILURE
        }
    }
}

fn run_topn_mode(args: &TopNArgs) -> ExitCode {
    let data = match load_input(&args.input) {
        Ok(data) => data,
        Err(e) => {
            eprintln!("error: cannot read '{}': {e}", args.input);
            return ExitCode::FAILURE;
        }
    };
    eprintln!("loaded {} rows x {} columns from {}", data.len(), data.dims(), args.input);

    let output = match run_topn(args, &data) {
        Ok(output) => output,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };

    print!("{}", render_report(&output.report));
    if let Some(stats) = &output.stats {
        eprintln!(
            "pruned {} of {} partitions ({} of {} objects) below threshold {:.4}",
            stats.partitions_pruned,
            stats.partitions,
            stats.objects_pruned,
            data.len(),
            output.threshold.unwrap_or(f64::NAN),
        );
    }
    if args.metrics {
        eprintln!("{}", lof_obs::global().render_prometheus());
    }
    ExitCode::SUCCESS
}

fn run_batch(config: &Config) -> ExitCode {
    let data = match load_input(&config.input) {
        Ok(data) => data,
        Err(e) => {
            eprintln!("error: cannot read '{}': {e}", config.input);
            return ExitCode::FAILURE;
        }
    };
    eprintln!("loaded {} rows x {} columns from {}", data.len(), data.dims(), config.input);

    let output = match run(config, &data) {
        Ok(output) => output,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };

    match config.format {
        OutputFormat::Text => {
            print!("{}", render_report(&output.report));
            for explanation in &output.explanations {
                println!("\n{explanation}");
            }
        }
        OutputFormat::Json => {
            print!("{}", render_json_report(&output.scores, config.threshold));
        }
    }

    if let Some(path) = &config.output {
        let rows: Vec<Vec<f64>> =
            output.scores.iter().enumerate().map(|(id, &s)| vec![id as f64, s]).collect();
        if let Err(e) = lof_data::csv::write_table(path, &["id", "lof"], &rows) {
            eprintln!("error: cannot write '{path}': {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {} scores to {path}", rows.len());
    }
    if config.metrics {
        eprintln!("{}", lof_obs::global().render_prometheus());
    }
    ExitCode::SUCCESS
}

/// `lof stream` or `lof serve` over the chosen metric (the window fixes
/// its metric type at construction).
struct Streaming<'a> {
    args: &'a StreamArgs,
    serve: bool,
}

impl MetricVisitor for Streaming<'_> {
    type Output = ExitCode;

    fn visit<M: Metric + Clone + 'static>(self, metric: M) -> ExitCode {
        if self.serve {
            run_serve_mode(self.args, metric)
        } else {
            run_stream_mode(self.args, metric)
        }
    }
}

fn run_stream_mode<M: Metric>(args: &StreamArgs, metric: M) -> ExitCode {
    let window = match SlidingWindowLof::new(stream_window_config(args), metric) {
        Ok(window) => window,
        Err(e) => {
            eprintln!("error: invalid window configuration: {e}");
            return ExitCode::FAILURE;
        }
    };
    let input: Box<dyn BufRead> = match &args.input {
        Some(path) => match std::fs::File::open(path) {
            Ok(file) => Box::new(BufReader::new(file)),
            Err(e) => {
                eprintln!("error: cannot read '{path}': {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Box::new(std::io::stdin().lock()),
    };
    let stdout = std::io::stdout();
    let mut output = std::io::BufWriter::new(stdout.lock());
    match serve::run_stream(window, input, &mut output) {
        Ok((window, summary)) => {
            drop(output);
            report_stats(window.stats());
            if summary.errors > 0 {
                eprintln!("{} lines were rejected (see in-band error records)", summary.errors);
            }
            if args.metrics {
                report_registry(window.registry());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: stream I/O failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the multi-tenant event-loop server (`lof-serve`) until a wire
/// `DRAIN`, then reports every tenant's final statistics.
fn run_serve_mode<M: Metric + Clone + 'static>(args: &StreamArgs, metric: M) -> ExitCode {
    let spec = TenantSpec {
        config: stream_window_config(args),
        quotas: Quotas { max_events_per_sec: args.max_events_per_sec, ..Quotas::default() },
    };
    let mut config = ServeConfig::new(spec, args.metric.tag());
    if args.workers > 0 {
        config.workers = args.workers;
    }
    if args.queue > 0 {
        config.queue = args.queue;
    }
    if args.tenants > 0 {
        config.max_tenants = args.tenants;
    }
    config.snapshot_dir = args.snapshot_dir.as_ref().map(std::path::PathBuf::from);

    let listener = match std::net::TcpListener::bind(&args.listen) {
        Ok(listener) => listener,
        Err(e) => {
            eprintln!("error: cannot bind '{}': {e}", args.listen);
            return ExitCode::FAILURE;
        }
    };
    match lof_serve::spawn(listener, metric, config) {
        Ok(handle) => {
            eprintln!("listening on {} (NDJSON in, NDJSON out; ctrl-c to stop)", handle.addr());
            let registry = std::sync::Arc::clone(handle.registry());
            let report = match handle.wait() {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for (name, stats) in &report.tenants {
                eprintln!("tenant '{name}':");
                report_stats(stats);
            }
            if args.metrics {
                report_registry(&registry);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot start serve loop: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Final registry snapshot on stderr (`--metrics`), in the same
/// Prometheus text format the serve loop answers to `GET /metrics`.
fn report_registry(registry: &lof_obs::MetricsRegistry) {
    eprintln!("{}", registry.render_prometheus());
}

/// End-of-stream summary on stderr (stdout carries only NDJSON records).
fn report_stats(stats: &StreamStats) {
    let (p50, p95, p99) = stats.latency.percentiles_ns();
    let us = |ns: u64| ns as f64 / 1_000.0;
    eprintln!(
        "{} events ({} scored, {} alerts, {} evictions)",
        stats.events, stats.scored, stats.alerts, stats.evictions
    );
    eprintln!(
        "latency: p50 {:.1}us  p95 {:.1}us  p99 {:.1}us  max {:.1}us",
        us(p50),
        us(p95),
        us(p99),
        us(stats.latency.max_ns())
    );
}
