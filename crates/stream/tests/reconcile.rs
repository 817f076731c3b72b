//! Differential reconciliation suite (PR 4): the observability layer is
//! a *second*, independent accounting of the stream, and it must agree
//! with the ground truth exactly — no sampling, no drift. Three ledgers
//! are reconciled here:
//!
//! 1. the window's own [`StreamStats`] (plain integers, always on);
//! 2. the registry counters/gauges mirrored by `SlidingWindowLof` and
//!    the serve loop (`stream.*` / `serve.*` names);
//! 3. arithmetic ground truth recomputed from the generated input.
//!
//! Pinned invariants: `events_in == score_records + push_errors`,
//! `error_records == parse_errors + push_errors`,
//! `window_occupancy == events - evictions`, and the latency histogram's
//! `total_count ==` scored events. Registry *values* are zero when the
//! crates are built with `--no-default-features` (obs off), so those
//! assertions are gated on [`lof_obs::enabled`]; the structural
//! invariants hold in both modes.

use lof_core::Euclidean;
use lof_stream::{run_stream, SlidingWindowLof, StreamConfig};
use proptest::prelude::*;

/// One adversarial input line for the NDJSON loop.
#[derive(Debug, Clone)]
enum Line {
    /// A valid 2-d event: parses, scores.
    Point(f64, f64),
    /// A 1-d event: parses, but the push fails (dimension mismatch)
    /// once the first 2-d point has fixed the window's dimensionality.
    WrongDims(f64),
    /// A parse reject.
    Malformed,
    /// Skipped silently (no reply, no counters).
    Comment,
    /// Skipped silently.
    Empty,
    /// In-band metrics request, single-line JSON reply.
    MetricsJson,
}

fn line_strategy() -> impl Strategy<Value = Line> {
    // Selector-based weighting: values 0..=5 pick valid points (~55%),
    // the rest spread over the adversarial line kinds.
    (0u8..10, -4.0..4.0f64, -4.0..4.0f64).prop_map(|(kind, x, y)| match kind {
        0..=5 => Line::Point(x, y),
        6 => Line::WrongDims(x),
        7 => Line::Malformed,
        8 => Line::Comment,
        9 if x < 0.0 => Line::Empty,
        _ => Line::MetricsJson,
    })
}

fn render(lines: &[Line]) -> String {
    let mut input = String::new();
    for line in lines {
        match line {
            Line::Point(x, y) => input.push_str(&format!("{x},{y}\n")),
            Line::WrongDims(x) => input.push_str(&format!("{x}\n")),
            Line::Malformed => input.push_str("definitely, not, a, number\n"),
            Line::Comment => input.push_str("# comment\n"),
            Line::Empty => input.push('\n'),
            Line::MetricsJson => input.push_str("GET /metrics.json\n"),
        }
    }
    input
}

/// Ground-truth classification of the generated input, recomputed
/// independently of both the summary and the registry.
#[derive(Debug, Default, PartialEq, Eq)]
struct Expected {
    events_in: u64,
    scored: u64,
    push_errors: u64,
    parse_errors: u64,
    metrics_requests: u64,
}

fn classify(lines: &[Line]) -> Expected {
    let mut e = Expected::default();
    for line in lines {
        match line {
            Line::Point(..) => {
                e.events_in += 1;
                e.scored += 1;
            }
            Line::WrongDims(_) => {
                e.events_in += 1;
                e.push_errors += 1;
            }
            Line::Malformed => e.parse_errors += 1,
            Line::Comment | Line::Empty => {}
            Line::MetricsJson => e.metrics_requests += 1,
        }
    }
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The serve loop (via `run_stream`, which shares the per-line
    /// accounting with the TCP scorer thread) against all three ledgers.
    #[test]
    fn serve_loop_counters_reconcile_with_ground_truth(
        soup in proptest::collection::vec(line_strategy(), 0..80),
    ) {
        // Pin the window to 2-d up front so `WrongDims` lines are
        // deterministically push errors, never dimension-setters.
        let mut lines = vec![Line::Point(0.0, 0.0)];
        lines.extend(soup);
        let expected = classify(&lines);

        let config = StreamConfig::new(2, 12).warmup(4).threshold(2.5);
        let window = SlidingWindowLof::new(config, Euclidean).unwrap();
        let mut output = Vec::new();
        let (window, summary) =
            run_stream(window, render(&lines).as_bytes(), &mut output).unwrap();
        let stats = window.stats().clone();

        // Ledger 1 vs ground truth: the summary.
        prop_assert_eq!(summary.events, expected.scored);
        prop_assert_eq!(summary.errors, expected.push_errors + expected.parse_errors);

        // Ledger 1 vs ground truth: the window stats. Only valid pushes
        // reach the window, and since PR 4 the latency histogram records
        // scored events only — its total count is the scored ledger.
        prop_assert_eq!(stats.events, expected.scored);
        prop_assert_eq!(stats.latency.count(), stats.scored);
        prop_assert_eq!(
            stats.events - stats.evictions,
            window.len() as u64,
            "occupancy must equal inserts minus evictions"
        );

        // One reply line per accounted line: events + errors + metrics
        // answers (JSON form is single-line by construction).
        let text = String::from_utf8(output).unwrap();
        prop_assert_eq!(
            text.lines().count() as u64,
            expected.events_in + expected.parse_errors + expected.metrics_requests
        );
        prop_assert_eq!(
            text.lines().filter(|l| l.starts_with("{\"type\":\"metrics\"")).count() as u64,
            expected.metrics_requests
        );

        // Ledger 2: the registry, reconciled against both ground truth
        // and the invariants. Counter values exist only with obs on.
        if lof_obs::enabled() {
            let r = window.registry();
            let events_in = r.counter("serve.events_in").value();
            let score_records = r.counter("serve.score_records").value();
            let push_errors = r.counter("serve.push_errors").value();
            let parse_errors = r.counter("serve.parse_errors").value();
            let error_records = r.counter("serve.error_records").value();

            prop_assert_eq!(events_in, expected.events_in);
            prop_assert_eq!(score_records, expected.scored);
            prop_assert_eq!(push_errors, expected.push_errors);
            prop_assert_eq!(parse_errors, expected.parse_errors);
            prop_assert_eq!(r.counter("serve.metrics_requests").value(), expected.metrics_requests);

            prop_assert_eq!(events_in, score_records + push_errors);
            prop_assert_eq!(error_records, parse_errors + push_errors);

            prop_assert_eq!(r.counter("stream.events").value(), stats.events);
            prop_assert_eq!(r.counter("stream.scored").value(), stats.scored);
            prop_assert_eq!(r.counter("stream.evictions").value(), stats.evictions);
            prop_assert_eq!(r.counter("stream.alerts").value(), stats.alerts);
            prop_assert_eq!(r.gauge("stream.window_occupancy").value(), window.len() as f64);
            prop_assert_eq!(r.histogram("stream.latency_ns").count(), stats.scored);
        }
    }

    /// `SlidingWindowLof` pushed directly (no serve loop in between):
    /// the registry mirror must track the stats ledger push for push.
    #[test]
    fn window_counters_reconcile_under_direct_pushes(
        points in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 1..70),
        min_pts in 2usize..4,
        extra in 2usize..10,
        spike_every in 5usize..9,
    ) {
        let capacity = min_pts + extra;
        let config = StreamConfig::new(min_pts, capacity)
            .warmup((min_pts + 1).min(capacity))
            .threshold(2.0);
        let mut window = SlidingWindowLof::new(config, Euclidean).unwrap();
        let mut rejected = 0u64;
        for (i, (x, y)) in points.iter().enumerate() {
            if i % spike_every == spike_every - 1 {
                // A dimension-mismatched push: must be rejected without
                // touching any ledger.
                window.push(&[*x]).unwrap_err();
                rejected += 1;
            }
            window.push(&[*x, *y]).unwrap();
        }
        let stats = window.stats().clone();

        prop_assert_eq!(stats.events, points.len() as u64);
        prop_assert_eq!(stats.latency.count(), stats.scored);
        prop_assert_eq!(stats.events - stats.evictions, window.len() as u64);
        prop_assert!(window.len() <= capacity);

        if lof_obs::enabled() {
            let r = window.registry();
            prop_assert_eq!(r.counter("stream.events").value(), stats.events);
            prop_assert_eq!(r.counter("stream.scored").value(), stats.scored);
            prop_assert_eq!(r.counter("stream.evictions").value(), stats.evictions);
            prop_assert_eq!(r.counter("stream.alerts").value(), stats.alerts);
            prop_assert_eq!(r.gauge("stream.window_occupancy").value(), window.len() as f64);
            prop_assert_eq!(r.histogram("stream.latency_ns").count(), stats.scored);
            // Rejected pushes never reach any ledger.
            prop_assert_eq!(r.counter("stream.events").value() + rejected,
                stats.events + rejected);
        }
    }
}
