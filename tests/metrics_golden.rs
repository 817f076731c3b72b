//! Golden-file lockdown of the metrics exposition formats (PR 4, obs
//! builds only — counter and gauge values are compiled out otherwise).
//!
//! Both renderings must be byte-stable: metric ordering is the sorted
//! registry order, special floats follow the shared rules (`inf` /
//! `-inf` / `nan` strings in NDJSON, matching `wire.rs`; `+Inf` / `-Inf`
//! / `NaN` in Prometheus text), and the Prometheus block terminates with
//! `# EOF` and no trailing newline. Regenerate with
//! `BLESS=1 cargo test -p lof --test metrics_golden` after an
//! *intentional* format change — and say why in the commit.
#![cfg(feature = "obs")]

use lof::obs::MetricsRegistry;
use std::path::Path;

/// A registry with every metric kind and every special-float case, with
/// names chosen to interleave kinds when sorted.
fn golden_registry() -> MetricsRegistry {
    let registry = MetricsRegistry::new();
    registry.counter("serve.events_in").add(41);
    registry.counter("alerts.fired").add(3);
    registry.counter("core.incremental.cascade_depth").add(27);
    registry.counter("stream.evictions").add(9);
    let g = registry.gauge("window.occupancy");
    g.set(512.0);
    registry.gauge("edge.pos_inf").set(f64::INFINITY);
    registry.gauge("edge.neg_inf").set(f64::NEG_INFINITY);
    registry.gauge("edge.nan").set(f64::NAN);
    registry.gauge("edge.fraction").set(-0.25);
    let h = registry.histogram("stream.latency_ns");
    for ns in [100, 200, 300, 400, 500, 600, 700, 100_000] {
        h.record(ns);
    }
    registry
}

fn check(rendered: &str, golden_path: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(golden_path);
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, rendered).expect("bless golden file");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e}); run with BLESS=1", golden_path));
    assert_eq!(
        rendered, want,
        "{golden_path} diverged; if the format change is intentional, \
         re-bless with BLESS=1 and document it"
    );
}

#[test]
fn prometheus_text_matches_the_golden_file() {
    let text = golden_registry().render_prometheus();
    assert!(text.ends_with("# EOF"), "exposition must end with the EOF marker, no newline");
    check(&text, "tests/golden/metrics.txt");
}

#[test]
fn ndjson_snapshot_matches_the_golden_file() {
    let json = golden_registry().render_ndjson();
    assert_eq!(json.lines().count(), 1, "NDJSON snapshot is a single line");
    check(&json, "tests/golden/metrics.ndjson");
}

#[test]
fn special_floats_follow_the_shared_wire_rules() {
    let registry = golden_registry();
    let json = registry.render_ndjson();
    assert!(json.contains("\"edge.pos_inf\":\"inf\""), "{json}");
    assert!(json.contains("\"edge.neg_inf\":\"-inf\""), "{json}");
    assert!(json.contains("\"edge.nan\":\"nan\""), "{json}");
    assert!(json.contains("\"edge.fraction\":-0.25"), "{json}");
    let text = registry.render_prometheus();
    assert!(text.contains("lof_edge_pos_inf +Inf"), "{text}");
    assert!(text.contains("lof_edge_neg_inf -Inf"), "{text}");
    assert!(text.contains("lof_edge_nan NaN"), "{text}");
}
