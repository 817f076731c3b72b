//! The stdin pump behind `lof stream`: NDJSON scoring over any line
//! source, one reply record per input line. The multi-tenant TCP server
//! behind `lof serve` lives in the `lof-serve` crate and answers the same
//! record schema.

use crate::window::SlidingWindowLof;
use crate::wire::{
    error_record, metrics_record, parse_control, parse_event, parse_metrics_request,
    parse_topn_request, stream_record, topn_record, MetricsFormat, ParsedLine,
};
use lof_core::Metric;
use lof_obs::{Counter, MetricsRegistry};
use std::io::{BufRead, Write};
use std::sync::Arc;

/// The pump's registry handles (`serve.*` names, shared with the
/// `lof-serve` tier), resolved once so per-line accounting is a
/// sharded-atomic bump. The reconciliation invariants the differential
/// tests pin: `events_in == score_records + push_errors` and
/// `error_records == parse_errors + push_errors`.
struct ServeMetrics {
    events_in: Arc<Counter>,
    parse_errors: Arc<Counter>,
    push_errors: Arc<Counter>,
    score_records: Arc<Counter>,
    error_records: Arc<Counter>,
    metrics_requests: Arc<Counter>,
    topn_requests: Arc<Counter>,
}

impl ServeMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        ServeMetrics {
            events_in: registry.counter("serve.events_in"),
            parse_errors: registry.counter("serve.parse_errors"),
            push_errors: registry.counter("serve.push_errors"),
            score_records: registry.counter("serve.score_records"),
            error_records: registry.counter("serve.error_records"),
            metrics_requests: registry.counter("serve.metrics_requests"),
            topn_requests: registry.counter("serve.topn_requests"),
        }
    }

    /// Renders the reply to one metrics request. The Prometheus block is
    /// multi-line and `# EOF`-terminated (that terminator is the client's
    /// end-of-block marker on a shared NDJSON connection); the JSON form
    /// is a single typed record.
    fn answer(&self, registry: &MetricsRegistry, format: MetricsFormat) -> String {
        self.metrics_requests.inc();
        match format {
            MetricsFormat::Text => registry.render_prometheus(),
            MetricsFormat::Json => metrics_record(registry),
        }
    }

    /// Renders the reply to one top-n request: the window's current
    /// ranking as a single typed record (empty during warm-up).
    fn answer_topn<M: Metric>(&self, window: &mut SlidingWindowLof<M>, n: usize) -> String {
        self.topn_requests.inc();
        let ranked = window.top_n(n);
        topn_record(n, &ranked, window.is_warming_up())
    }
}

/// Summary of one finished stream (stdin mode and in-process runs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamSummary {
    /// Events scored or buffered (valid lines).
    pub events: u64,
    /// Events on which an alert rule fired.
    pub alerts: u64,
    /// Lines rejected (parse or scoring errors).
    pub errors: u64,
}

/// Pumps line-delimited events from `input` through the window, writing
/// one NDJSON record per line to `output`. This is `lof stream`; it
/// consumes the window and returns it with the summary so callers can
/// inspect final stats. Control commands (`TENANT ...`, `SNAPSHOT`,
/// `DRAIN`) need the multi-tenant server and are answered with an
/// in-band error record.
///
/// # Errors
///
/// Propagates I/O errors from `input`/`output`; malformed *events* are
/// reported as in-band `{"type":"error",...}` records, not errors.
pub fn run_stream<M: Metric>(
    mut window: SlidingWindowLof<M>,
    input: impl BufRead,
    output: &mut impl Write,
) -> std::io::Result<(SlidingWindowLof<M>, StreamSummary)> {
    let mut summary = StreamSummary::default();
    let metrics = ServeMetrics::new(window.registry());
    for line in input.lines() {
        let line = line?;
        if let Some(format) = parse_metrics_request(&line) {
            let registry = Arc::clone(window.registry());
            writeln!(output, "{}", metrics.answer(&registry, format))?;
            continue;
        }
        match parse_topn_request(&line) {
            Some(Some(n)) => {
                writeln!(output, "{}", metrics.answer_topn(&mut window, n))?;
                continue;
            }
            Some(None) => {
                summary.errors += 1;
                metrics.parse_errors.inc();
                metrics.error_records.inc();
                writeln!(output, "{}", error_record("topn request needs a count: /topn N"))?;
                continue;
            }
            None => {}
        }
        if let Some(command) = parse_control(&line) {
            let message = match command {
                Ok(_) => "control commands need the multi-tenant server (lof serve)".to_owned(),
                Err(e) => e,
            };
            summary.errors += 1;
            metrics.parse_errors.inc();
            metrics.error_records.inc();
            writeln!(output, "{}", error_record(&message))?;
            continue;
        }
        let record = match parse_event(&line) {
            Ok(ParsedLine::Empty) => continue,
            Ok(ParsedLine::Point(point)) => {
                metrics.events_in.inc();
                match window.push(&point) {
                    Ok(event) => {
                        summary.events += 1;
                        if event.is_alert() {
                            summary.alerts += 1;
                        }
                        metrics.score_records.inc();
                        stream_record(&event)
                    }
                    Err(e) => {
                        summary.errors += 1;
                        metrics.push_errors.inc();
                        metrics.error_records.inc();
                        error_record(&e.to_string())
                    }
                }
            }
            Err(e) => {
                summary.errors += 1;
                metrics.parse_errors.inc();
                metrics.error_records.inc();
                error_record(&e)
            }
        };
        writeln!(output, "{record}")?;
    }
    output.flush()?;
    Ok((window, summary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::StreamConfig;
    use lof_core::Euclidean;

    #[test]
    fn run_stream_scores_counts_and_reports_errors_in_band() {
        let config = StreamConfig::new(3, 20).warmup(5).threshold(3.0);
        let window = SlidingWindowLof::new(config, Euclidean).unwrap();
        let mut input = String::new();
        for i in 0..12 {
            input.push_str(&format!("{},{}\n", i % 4, i / 4));
        }
        input.push_str("# a comment\n");
        input.push_str("not,a,number\n");
        input.push_str("TENANT LIST\n");
        input.push_str("[40, 40]\n");
        let mut output = Vec::new();
        let (window, summary) = run_stream(window, input.as_bytes(), &mut output).unwrap();
        assert_eq!(summary.events, 13);
        assert_eq!(summary.errors, 2, "a malformed line and a control command");
        assert_eq!(summary.alerts, 1, "the [40,40] spike must alert");
        assert_eq!(window.stats().events, 13);
        let text = String::from_utf8(output).unwrap();
        assert_eq!(text.lines().count(), 15, "one record per non-comment line");
        assert!(text.lines().all(|l| l.starts_with("{\"type\":")));
        assert!(text.contains("control commands need the multi-tenant server"));
    }

    #[test]
    fn run_stream_answers_topn_requests_in_band() {
        let config = StreamConfig::new(3, 20).warmup(5);
        let window = SlidingWindowLof::new(config, Euclidean).unwrap();
        let mut input = String::from("GET /topn 2\n");
        for i in 0..12 {
            input.push_str(&format!("{},{}\n", i % 4, i / 4));
        }
        input.push_str("[40, 40]\n");
        input.push_str("/topn 2\n");
        input.push_str("/topn\n");
        let mut output = Vec::new();
        let (mut window, summary) = run_stream(window, input.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let topn_lines: Vec<&str> =
            text.lines().filter(|l| l.starts_with("{\"type\":\"topn\"")).collect();
        assert_eq!(topn_lines.len(), 2);
        assert_eq!(topn_lines[0], "{\"type\":\"topn\",\"n\":2,\"warmup\":true,\"top\":[]}");
        // The post-spike ranking leads with the outlier's sequence number
        // and matches the window's own answer.
        let expected = crate::wire::topn_record(2, &window.top_n(2), false);
        assert_eq!(topn_lines[1], expected);
        assert!(topn_lines[1].contains("\"seq\":12"));
        assert_eq!(summary.errors, 1, "a countless /topn is an in-band error");
        if lof_obs::enabled() {
            assert_eq!(window.registry().counter("serve.topn_requests").value(), 2);
        }
    }
}
