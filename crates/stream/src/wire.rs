//! The wire format of the streaming subsystem.
//!
//! **Input** is line-delimited: each non-empty line is one event, either a
//! JSON array of numbers (`[1.0, 2.0]`), a JSON object with a `"point"`
//! field (`{"point": [1.0, 2.0]}` — other fields are ignored), or a bare
//! CSV row (`1.0,2.0`). Lines starting with `#` are comments.
//!
//! **Output** is NDJSON, one record per event. The same schema backs the
//! batch CLI's `--format json` mode, `lof stream` (stdin), and `lof serve`
//! (TCP), so downstream consumers parse one shape:
//!
//! ```json
//! {"type":"score","seq":7,"lof":1.04,"alert":false,"alerts":[],
//!  "warmup":false,"window":400,"evicted":3,
//!  "cascade":{"neighborhoods_updated":2,"lrds_recomputed":0,"lofs_recomputed":0,"cascade_depth":1},
//!  "latency_us":12.5}
//! {"type":"error","error":"line 12: unparsable event"}
//! ```
//!
//! `cascade` is the event's [`UpdateStats`](lof_core::UpdateStats): the
//! model recomputes lrd/LOF values on read, so `lrds_recomputed` and
//! `lofs_recomputed` read 0 and `cascade_depth` is 0 or 1.
//!
//! Batch records carry only `type`/`seq`/`lof`/`alert`/`alerts` (there is
//! no window). Non-finite LOF values (duplicate-heavy windows produce
//! `∞`) are encoded as the JSON strings `"inf"` / `"-inf"` / `"nan"`,
//! since JSON has no number literal for them. Everything is hand-rolled
//! `std`-only code: the workspace's dependency policy has no serde.

use crate::window::ScoredEvent;
use std::fmt::Write as _;

/// One parsed input line.
#[derive(Debug, Clone, PartialEq)]
pub enum ParsedLine {
    /// A blank or `#`-comment line — nothing to score.
    Empty,
    /// One event: the point's coordinates.
    Point(Vec<f64>),
}

/// Parses one input line (JSON array, JSON object with `"point"`, or CSV).
///
/// # Errors
///
/// Returns a human-readable message for unparsable lines.
pub fn parse_event(line: &str) -> Result<ParsedLine, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(ParsedLine::Empty);
    }
    let point = if trimmed.starts_with('[') {
        parse_json_array(trimmed)?
    } else if trimmed.starts_with('{') {
        parse_json_object(trimmed)?
    } else {
        trimmed
            .split(',')
            .map(|f| {
                f.trim().parse::<f64>().map_err(|e| format!("bad CSV field '{}': {e}", f.trim()))
            })
            .collect::<Result<Vec<f64>, String>>()?
    };
    if point.is_empty() {
        return Err("event has no coordinates".to_owned());
    }
    Ok(ParsedLine::Point(point))
}

/// Parses a JSON array of numbers, e.g. `[1, 2.5, -3e-2]`.
fn parse_json_array(text: &str) -> Result<Vec<f64>, String> {
    let inner = text
        .strip_prefix('[')
        .and_then(|rest| rest.trim_end().strip_suffix(']'))
        .ok_or_else(|| "unterminated JSON array".to_owned())?;
    let inner = inner.trim();
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    inner
        .split(',')
        .map(|f| {
            f.trim().parse::<f64>().map_err(|e| format!("bad JSON number '{}': {e}", f.trim()))
        })
        .collect()
}

/// Extracts the `"point"` array from a single-line JSON object. This is a
/// deliberately small scanner, not a full JSON parser: it finds the
/// top-level `"point"` key and parses its array value; every other field
/// is ignored. Nested objects/arrays in other fields are tolerated.
fn parse_json_object(text: &str) -> Result<Vec<f64>, String> {
    let bytes = text.as_bytes();
    let mut i = 0;
    let mut depth = 0i32;
    let mut in_string = false;
    let mut escaped = false;
    while i < bytes.len() {
        let b = bytes[i];
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            i += 1;
            continue;
        }
        match b {
            b'"' => {
                // At depth 1, check whether this string is the "point" key.
                if depth == 1 {
                    if let Some(rest) = text[i..].strip_prefix("\"point\"") {
                        let after = rest.trim_start();
                        if let Some(value) = after.strip_prefix(':') {
                            let value = value.trim_start();
                            let end = value.find(']').ok_or("unterminated \"point\" array")?;
                            return parse_json_array(&value[..=end]);
                        }
                    }
                }
                in_string = true;
            }
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth -= 1,
            _ => {}
        }
        i += 1;
    }
    Err("JSON object has no \"point\" field".to_owned())
}

/// Encodes an `f64` as a JSON value (non-finite values become strings,
/// see the module docs).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let mut s = format!("{v}");
        // `{}` prints integral floats without a decimal point; keep the
        // value unambiguously a float for strict consumers.
        if !s.contains(['.', 'e', 'E']) {
            s.push_str(".0");
        }
        s
    } else if v.is_nan() {
        "\"nan\"".to_owned()
    } else if v > 0.0 {
        "\"inf\"".to_owned()
    } else {
        "\"-inf\"".to_owned()
    }
}

/// Escapes a string for embedding in a JSON document.
pub fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the names of the alert rules that fired as a JSON array.
fn alerts_json(threshold: bool, top_k: bool) -> String {
    match (threshold, top_k) {
        (true, true) => "[\"threshold\",\"top_k\"]".to_owned(),
        (true, false) => "[\"threshold\"]".to_owned(),
        (false, true) => "[\"top_k\"]".to_owned(),
        (false, false) => "[]".to_owned(),
    }
}

/// The NDJSON record for one streamed event (serve and stream modes).
pub fn stream_record(event: &ScoredEvent) -> String {
    let mut out = String::with_capacity(160);
    let _ = write!(out, "{{\"type\":\"score\",\"seq\":{}", event.seq);
    match event.score {
        Some(score) => {
            let _ = write!(out, ",\"lof\":{}", json_f64(score));
        }
        None => out.push_str(",\"lof\":null"),
    }
    let _ = write!(
        out,
        ",\"alert\":{},\"alerts\":{},\"warmup\":{},\"window\":{}",
        event.is_alert(),
        alerts_json(event.threshold_alert, event.top_k_alert),
        event.warmup,
        event.window_len
    );
    match event.evicted {
        Some(seq) => {
            let _ = write!(out, ",\"evicted\":{seq}");
        }
        None => out.push_str(",\"evicted\":null"),
    }
    match event.cascade {
        Some(stats) => {
            let _ = write!(out, ",\"cascade\":{}", stats.to_json());
        }
        None => out.push_str(",\"cascade\":null"),
    }
    let _ = write!(out, ",\"latency_us\":{:.1}}}", event.latency_ns as f64 / 1_000.0);
    out
}

/// The NDJSON record for one batch-scored row (`lof --format json`): the
/// same `type`/`seq`/`lof`/`alert`/`alerts` prefix as [`stream_record`],
/// without the window-only fields.
pub fn batch_record(row: usize, lof: f64, threshold_alert: bool) -> String {
    format!(
        "{{\"type\":\"score\",\"seq\":{row},\"lof\":{},\"alert\":{threshold_alert},\"alerts\":{}}}",
        json_f64(lof),
        alerts_json(threshold_alert, false),
    )
}

/// The NDJSON record for a rejected line (parse or scoring failure).
pub fn error_record(message: &str) -> String {
    format!("{{\"type\":\"error\",\"error\":\"{}\"}}", json_escape(message))
}

/// Which exposition format a metrics request asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Prometheus text exposition: a multi-line block terminated by
    /// `# EOF` (the terminator is what delimits it on a shared NDJSON
    /// connection).
    Text,
    /// A single `{"type":"metrics",...}` NDJSON record.
    Json,
}

/// Recognizes an in-band metrics request. The serve loop answers these
/// on the event connection itself — no second port, no HTTP stack:
/// `GET /metrics` (or bare `/metrics`) asks for Prometheus text,
/// `GET /metrics.json` (or bare `/metrics.json`) for the NDJSON record.
/// Returns `None` for anything else, which then flows to
/// [`parse_event`] as usual. Checked before event parsing, so a metrics
/// request is never misread as a malformed event.
pub fn parse_metrics_request(line: &str) -> Option<MetricsFormat> {
    let trimmed = line.trim();
    let path = trimmed.strip_prefix("GET ").map(str::trim).unwrap_or(trimmed);
    match path {
        "/metrics" => Some(MetricsFormat::Text),
        "/metrics.json" => Some(MetricsFormat::Json),
        _ => None,
    }
}

/// The NDJSON record answering a [`MetricsFormat::Json`] request: the
/// registry's single-line snapshot wrapped in a typed envelope so stream
/// consumers can route it like any other record.
pub fn metrics_record(registry: &lof_obs::MetricsRegistry) -> String {
    format!("{{\"type\":\"metrics\",\"metrics\":{}}}", registry.render_ndjson())
}

/// Recognizes an in-band top-n request: `GET /topn N` (or bare
/// `/topn N`) asks for the window's `N` most outlying members. Same
/// in-band convention as [`parse_metrics_request`]: checked before event
/// parsing, anything else flows on. A missing or unparsable count is
/// still recognized as a top-n request (`None` inner value) so the
/// serve loop can answer with an in-band error instead of misreading
/// the line as an event.
pub fn parse_topn_request(line: &str) -> Option<Option<usize>> {
    let trimmed = line.trim();
    let path = trimmed.strip_prefix("GET ").map(str::trim).unwrap_or(trimmed);
    let rest = path.strip_prefix("/topn")?;
    if !rest.is_empty() && !rest.starts_with([' ', '\t']) {
        return None; // e.g. "/topnews" is not ours
    }
    Some(rest.trim().parse().ok())
}

/// The NDJSON record answering a top-n request: the requested size and
/// the ranked `(event seq, LOF)` pairs, most outlying first (ties by
/// earlier arrival). During warm-up the window has no scores and the
/// list is empty.
pub fn topn_record(n: usize, ranking: &[(u64, f64)], warmup: bool) -> String {
    let mut out = String::with_capacity(32 + ranking.len() * 32);
    let _ = write!(out, "{{\"type\":\"topn\",\"n\":{n},\"warmup\":{warmup},\"top\":[");
    for (i, &(seq, lof)) in ranking.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"seq\":{seq},\"lof\":{}}}", json_f64(lof));
    }
    out.push_str("]}");
    out
}

/// A parsed serving-layer control command (`TENANT` / `SNAPSHOT` /
/// `DRAIN` lines). The multi-tenant tier in `lof-serve` executes these;
/// the single-window loop answers them with an explanatory error so old
/// servers fail loudly rather than misparse them as events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlCommand {
    /// `TENANT CREATE <name> [key=value ...]` — create a named window.
    /// Recognized keys are validated by the server, not the parser.
    TenantCreate {
        /// The tenant name.
        name: String,
        /// Raw `key=value` configuration pairs, in line order.
        params: Vec<(String, String)>,
    },
    /// `TENANT ATTACH <name>` — route this connection's events to the
    /// named window.
    TenantAttach {
        /// The tenant name.
        name: String,
    },
    /// `TENANT LIST` — enumerate live tenants.
    TenantList,
    /// `TENANT DROP <name>` — destroy a tenant and its window.
    TenantDrop {
        /// The tenant name.
        name: String,
    },
    /// `SNAPSHOT [name]` — persist one tenant (or every tenant) to the
    /// server's snapshot directory.
    Snapshot {
        /// The tenant to snapshot; `None` means all.
        name: Option<String>,
    },
    /// `DRAIN` — stop accepting, flush in-flight jobs, snapshot every
    /// tenant, and exit.
    Drain,
}

/// Validates a tenant name: 1–64 characters from `[A-Za-z0-9_-]`. Names
/// become snapshot file names and metric label values, so the alphabet
/// is deliberately restrictive (no path separators, no quotes).
pub fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// Recognizes a control command line. Returns `None` for anything that
/// is not a control line (events, metrics requests, ...); returns
/// `Some(Err(...))` for a line that *is* a control command but malformed
/// (unknown subcommand, invalid tenant name), so the serve loop answers
/// in-band instead of misreading the line as an event. Checked before
/// event parsing, like [`parse_metrics_request`].
pub fn parse_control(line: &str) -> Option<Result<ControlCommand, String>> {
    let trimmed = line.trim();
    let mut words = trimmed.split_ascii_whitespace();
    let keyword = words.next()?;
    match keyword {
        "TENANT" => Some(parse_tenant_command(&mut words)),
        "SNAPSHOT" => {
            let name = words.next().map(str::to_owned);
            if words.next().is_some() {
                return Some(Err("usage: SNAPSHOT [name]".to_owned()));
            }
            if let Some(n) = &name {
                if !valid_tenant_name(n) {
                    return Some(Err(format!("invalid tenant name '{n}'")));
                }
            }
            Some(Ok(ControlCommand::Snapshot { name }))
        }
        "DRAIN" => {
            if words.next().is_some() {
                return Some(Err("usage: DRAIN".to_owned()));
            }
            Some(Ok(ControlCommand::Drain))
        }
        _ => None,
    }
}

fn parse_tenant_command(
    words: &mut std::str::SplitAsciiWhitespace<'_>,
) -> Result<ControlCommand, String> {
    const USAGE: &str = "usage: TENANT CREATE <name> [key=value ...] | \
                         TENANT ATTACH <name> | TENANT LIST | TENANT DROP <name>";
    let sub = words.next().ok_or_else(|| USAGE.to_owned())?;
    let mut named = |op: &str| -> Result<String, String> {
        let name = words.next().ok_or_else(|| format!("TENANT {op} needs a name"))?.to_owned();
        if !valid_tenant_name(&name) {
            return Err(format!("invalid tenant name '{name}' (1-64 chars from [A-Za-z0-9_-])"));
        }
        Ok(name)
    };
    match sub {
        "CREATE" => {
            let name = named("CREATE")?;
            let mut params = Vec::new();
            for word in words.by_ref() {
                let (key, value) = word
                    .split_once('=')
                    .ok_or_else(|| format!("bad parameter '{word}' (expected key=value)"))?;
                if key.is_empty() || value.is_empty() {
                    return Err(format!("bad parameter '{word}' (expected key=value)"));
                }
                params.push((key.to_owned(), value.to_owned()));
            }
            Ok(ControlCommand::TenantCreate { name, params })
        }
        "ATTACH" => {
            let name = named("ATTACH")?;
            if words.next().is_some() {
                return Err("TENANT ATTACH takes exactly one name".to_owned());
            }
            Ok(ControlCommand::TenantAttach { name })
        }
        "LIST" => {
            if words.next().is_some() {
                return Err("TENANT LIST takes no arguments".to_owned());
            }
            Ok(ControlCommand::TenantList)
        }
        "DROP" => {
            let name = named("DROP")?;
            if words.next().is_some() {
                return Err("TENANT DROP takes exactly one name".to_owned());
            }
            Ok(ControlCommand::TenantDrop { name })
        }
        other => Err(format!("unknown TENANT subcommand '{other}'; {USAGE}")),
    }
}

/// The acknowledgement record for a successful control command:
/// `{"type":"ok","op":"tenant.create","tenant":"alpha"}`. `tenant` is
/// omitted for tenant-less operations (`DRAIN`).
pub fn ok_record(op: &str, tenant: Option<&str>) -> String {
    match tenant {
        Some(t) => format!(
            "{{\"type\":\"ok\",\"op\":\"{}\",\"tenant\":\"{}\"}}",
            json_escape(op),
            json_escape(t)
        ),
        None => format!("{{\"type\":\"ok\",\"op\":\"{}\"}}", json_escape(op)),
    }
}

/// One row of a `TENANT LIST` answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantInfo {
    /// The tenant name.
    pub name: String,
    /// Events currently held in the tenant's window.
    pub window_len: usize,
    /// Connections currently attached.
    pub connections: usize,
    /// Lifetime events pushed into the window.
    pub events: u64,
    /// True while the window is still warming up.
    pub warming: bool,
}

/// The NDJSON record answering `TENANT LIST`.
pub fn tenants_record(rows: &[TenantInfo]) -> String {
    let mut out = String::with_capacity(32 + rows.len() * 64);
    out.push_str("{\"type\":\"tenants\",\"tenants\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"window\":{},\"connections\":{},\"events\":{},\"warmup\":{}}}",
            json_escape(&row.name),
            row.window_len,
            row.connections,
            row.events,
            row.warming
        );
    }
    out.push_str("]}");
    out
}

/// The NDJSON record acknowledging a `SNAPSHOT` command: which tenants
/// were persisted (sorted by name by the caller).
pub fn snapshot_record(tenants: &[String]) -> String {
    let mut out = String::with_capacity(32 + tenants.len() * 16);
    out.push_str("{\"type\":\"snapshot\",\"tenants\":[");
    for (i, name) in tenants.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", json_escape(name));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lof_core::incremental::UpdateStats;

    #[test]
    fn parses_csv_json_array_and_object() {
        assert_eq!(parse_event("1.5, -2").unwrap(), ParsedLine::Point(vec![1.5, -2.0]));
        assert_eq!(parse_event("[1.5, -2e1]").unwrap(), ParsedLine::Point(vec![1.5, -20.0]));
        assert_eq!(
            parse_event("{\"id\": \"x[3]\", \"point\": [0.5, 1], \"tag\": {\"a\": 1}}").unwrap(),
            ParsedLine::Point(vec![0.5, 1.0])
        );
        assert_eq!(parse_event("   ").unwrap(), ParsedLine::Empty);
        assert_eq!(parse_event("# comment [1,2]").unwrap(), ParsedLine::Empty);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_event("[1, oops]").is_err());
        assert!(parse_event("[1, 2").is_err());
        assert!(parse_event("{\"nope\": 1}").is_err());
        assert!(parse_event("a,b").is_err());
        assert!(parse_event("[]").is_err(), "zero-dimensional events are invalid");
    }

    #[test]
    fn point_key_inside_other_strings_is_not_confused() {
        assert_eq!(
            parse_event("{\"label\": \"point\", \"point\": [2]}").unwrap(),
            ParsedLine::Point(vec![2.0])
        );
    }

    #[test]
    fn json_f64_handles_every_class() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(f64::INFINITY), "\"inf\"");
        assert_eq!(json_f64(f64::NEG_INFINITY), "\"-inf\"");
        assert_eq!(json_f64(f64::NAN), "\"nan\"");
        // Round-trips exactly (Rust's shortest-roundtrip formatting).
        assert_eq!(json_f64(1e300).trim_end_matches(".0").parse::<f64>().unwrap(), 1e300);
    }

    #[test]
    fn records_are_single_line_json() {
        let event = crate::ScoredEvent {
            seq: 7,
            score: Some(1.25),
            warmup: false,
            window_len: 400,
            evicted: Some(3),
            cascade: Some(UpdateStats {
                neighborhoods_updated: 2,
                lrds_recomputed: 9,
                lofs_recomputed: 31,
                cascade_depth: 3,
            }),
            threshold_alert: true,
            top_k_alert: false,
            latency_ns: 12_500,
        };
        let rec = stream_record(&event);
        assert!(!rec.contains('\n'));
        assert!(rec.starts_with("{\"type\":\"score\",\"seq\":7,\"lof\":1.25"));
        assert!(rec.contains("\"alert\":true"));
        assert!(rec.contains("\"alerts\":[\"threshold\"]"));
        assert!(rec.contains("\"evicted\":3"));
        assert!(rec.contains("\"lofs_recomputed\":31"));
        assert!(rec.contains("\"latency_us\":12.5"));

        let batch = batch_record(3, f64::INFINITY, false);
        assert_eq!(
            batch,
            "{\"type\":\"score\",\"seq\":3,\"lof\":\"inf\",\"alert\":false,\"alerts\":[]}"
        );

        let err = error_record("bad \"line\"\n");
        assert_eq!(err, "{\"type\":\"error\",\"error\":\"bad \\\"line\\\"\\n\"}");
    }

    #[test]
    fn warmup_records_carry_null_score() {
        let event = crate::ScoredEvent {
            seq: 0,
            score: None,
            warmup: true,
            window_len: 1,
            evicted: None,
            cascade: None,
            threshold_alert: false,
            top_k_alert: false,
            latency_ns: 800,
        };
        let rec = stream_record(&event);
        assert!(rec.contains("\"lof\":null"));
        assert!(rec.contains("\"warmup\":true"));
        assert!(rec.contains("\"evicted\":null"));
        assert!(rec.contains("\"cascade\":null"));
    }

    #[test]
    fn metrics_requests_are_recognized_before_event_parsing() {
        assert_eq!(parse_metrics_request("GET /metrics"), Some(MetricsFormat::Text));
        assert_eq!(parse_metrics_request("/metrics"), Some(MetricsFormat::Text));
        assert_eq!(parse_metrics_request("  GET /metrics.json  "), Some(MetricsFormat::Json));
        assert_eq!(parse_metrics_request("/metrics.json"), Some(MetricsFormat::Json));
        assert_eq!(parse_metrics_request("[1.0, 2.0]"), None);
        assert_eq!(parse_metrics_request("1.0,2.0"), None);
        assert_eq!(parse_metrics_request("GET /other"), None);
    }

    #[test]
    fn topn_requests_are_recognized_before_event_parsing() {
        assert_eq!(parse_topn_request("GET /topn 5"), Some(Some(5)));
        assert_eq!(parse_topn_request("/topn 10"), Some(Some(10)));
        assert_eq!(parse_topn_request("  GET /topn\t3  "), Some(Some(3)));
        // Recognized as a top-n request, but with no usable count.
        assert_eq!(parse_topn_request("/topn"), Some(None));
        assert_eq!(parse_topn_request("GET /topn many"), Some(None));
        // Not ours: events and other paths flow on.
        assert_eq!(parse_topn_request("/topnews 3"), None);
        assert_eq!(parse_topn_request("[1.0, 2.0]"), None);
        assert_eq!(parse_topn_request("GET /metrics"), None);
    }

    #[test]
    fn topn_record_is_a_typed_single_line_envelope() {
        let rec = topn_record(3, &[(7, 2.5), (2, f64::INFINITY)], false);
        assert_eq!(
            rec,
            "{\"type\":\"topn\",\"n\":3,\"warmup\":false,\"top\":[{\"seq\":7,\"lof\":2.5},{\"seq\":2,\"lof\":\"inf\"}]}"
        );
        assert_eq!(
            topn_record(2, &[], true),
            "{\"type\":\"topn\",\"n\":2,\"warmup\":true,\"top\":[]}"
        );
    }

    #[test]
    fn control_commands_parse_and_validate() {
        assert_eq!(
            parse_control("TENANT CREATE alpha minpts=5 capacity=256"),
            Some(Ok(ControlCommand::TenantCreate {
                name: "alpha".to_owned(),
                params: vec![
                    ("minpts".to_owned(), "5".to_owned()),
                    ("capacity".to_owned(), "256".to_owned()),
                ],
            }))
        );
        assert_eq!(
            parse_control("  TENANT ATTACH beta-2  "),
            Some(Ok(ControlCommand::TenantAttach { name: "beta-2".to_owned() }))
        );
        assert_eq!(parse_control("TENANT LIST"), Some(Ok(ControlCommand::TenantList)));
        assert_eq!(
            parse_control("TENANT DROP old_one"),
            Some(Ok(ControlCommand::TenantDrop { name: "old_one".to_owned() }))
        );
        assert_eq!(
            parse_control("SNAPSHOT alpha"),
            Some(Ok(ControlCommand::Snapshot { name: Some("alpha".to_owned()) }))
        );
        assert_eq!(parse_control("SNAPSHOT"), Some(Ok(ControlCommand::Snapshot { name: None })));
        assert_eq!(parse_control("DRAIN"), Some(Ok(ControlCommand::Drain)));

        // Malformed control lines are recognized but rejected in-band.
        assert!(parse_control("TENANT").unwrap().is_err());
        assert!(parse_control("TENANT CREATE").unwrap().is_err());
        assert!(parse_control("TENANT CREATE bad/name").unwrap().is_err());
        assert!(parse_control("TENANT CREATE a minpts").unwrap().is_err());
        assert!(parse_control("TENANT FROB x").unwrap().is_err());
        assert!(parse_control("TENANT ATTACH a b").unwrap().is_err());
        assert!(parse_control("SNAPSHOT a b").unwrap().is_err());
        assert!(parse_control("DRAIN now").unwrap().is_err());

        // Events and other requests are not control lines.
        assert_eq!(parse_control("1.0,2.0"), None);
        assert_eq!(parse_control("[1.0, 2.0]"), None);
        assert_eq!(parse_control("GET /metrics"), None);
        assert_eq!(parse_control(""), None);
    }

    #[test]
    fn tenant_names_are_strictly_validated() {
        assert!(valid_tenant_name("alpha"));
        assert!(valid_tenant_name("A-1_b"));
        assert!(valid_tenant_name(&"x".repeat(64)));
        assert!(!valid_tenant_name(""));
        assert!(!valid_tenant_name(&"x".repeat(65)));
        assert!(!valid_tenant_name("a b"));
        assert!(!valid_tenant_name("../etc"));
        assert!(!valid_tenant_name("a\"b"));
    }

    #[test]
    fn control_reply_records_are_typed_single_lines() {
        assert_eq!(
            ok_record("tenant.create", Some("alpha")),
            "{\"type\":\"ok\",\"op\":\"tenant.create\",\"tenant\":\"alpha\"}"
        );
        assert_eq!(ok_record("drain", None), "{\"type\":\"ok\",\"op\":\"drain\"}");
        let rows = vec![
            TenantInfo {
                name: "a".to_owned(),
                window_len: 5,
                connections: 2,
                events: 7,
                warming: false,
            },
            TenantInfo {
                name: "b".to_owned(),
                window_len: 0,
                connections: 0,
                events: 0,
                warming: true,
            },
        ];
        assert_eq!(
            tenants_record(&rows),
            "{\"type\":\"tenants\",\"tenants\":[\
             {\"name\":\"a\",\"window\":5,\"connections\":2,\"events\":7,\"warmup\":false},\
             {\"name\":\"b\",\"window\":0,\"connections\":0,\"events\":0,\"warmup\":true}]}"
        );
        assert_eq!(tenants_record(&[]), "{\"type\":\"tenants\",\"tenants\":[]}");
        assert_eq!(
            snapshot_record(&["a".to_owned(), "b".to_owned()]),
            "{\"type\":\"snapshot\",\"tenants\":[\"a\",\"b\"]}"
        );
    }

    #[test]
    fn metrics_record_is_a_typed_single_line_envelope() {
        let registry = lof_obs::MetricsRegistry::new();
        registry.counter("serve.events_in").add(4);
        let rec = metrics_record(&registry);
        assert!(!rec.contains('\n'));
        assert!(rec.starts_with("{\"type\":\"metrics\",\"metrics\":{"));
        assert!(rec.ends_with("}}"));
        assert!(rec.contains("\"serve.events_in\""));
    }

    #[test]
    fn exposition_f64_encoding_matches_the_wire_encoding() {
        // The serve loop emits wire records and registry snapshots over
        // the same connection; their non-finite encodings must agree.
        let battery = [
            0.0,
            -0.0,
            1.0,
            -1.5,
            0.1,
            1e-300,
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for v in battery {
            assert_eq!(json_f64(v), lof_obs::expose::json_f64(v), "diverged at {v}");
        }
    }
}
