//! End-to-end tests of the multi-tenant event-loop server over real TCP:
//! tenant lifecycle, quotas, reply ordering, metrics labels, and the
//! drain → restore-from-snapshot bit-identity guarantee.

use lof_core::Euclidean;
use lof_serve::{spawn, Quotas, ServeConfig, ServeHandle, TenantSpec};
use lof_stream::{SlidingWindowLof, StreamConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A line-oriented test client with a read timeout so a missing reply
/// fails the test instead of hanging it.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(Duration::from_secs(20))).expect("timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.stream, "{line}").expect("send");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed the connection unexpectedly");
        line.trim_end().to_owned()
    }

    /// Reads a multi-line Prometheus block up to its `# EOF` terminator.
    fn recv_metrics_block(&mut self) -> String {
        let mut block = String::new();
        loop {
            let line = self.recv();
            let done = line == "# EOF";
            block.push_str(&line);
            block.push('\n');
            if done {
                return block;
            }
        }
    }
}

fn base_spec() -> TenantSpec {
    TenantSpec { config: StreamConfig::new(3, 32).warmup(4), quotas: Quotas::default() }
}

fn start(config: ServeConfig) -> ServeHandle {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    spawn(listener, Euclidean, config).expect("spawn")
}

/// A deterministic little point generator (no external RNG).
fn point(i: u64) -> String {
    let x = (i.wrapping_mul(2_654_435_761) % 1000) as f64 / 100.0;
    let y = (i.wrapping_mul(40_503) % 1000) as f64 / 100.0;
    format!("{x},{y}")
}

/// Drops the timing-dependent tail of a score record so runs compare
/// bit-identically on everything the model computed.
fn strip_latency(record: &str) -> &str {
    record.rfind(",\"latency_us\"").map_or(record, |cut| &record[..cut])
}

#[test]
fn default_tenant_serves_old_protocol_and_labeled_metrics() {
    let mut config = ServeConfig::new(base_spec(), "euclidean");
    config.workers = 2;
    let handle = start(config);
    let mut client = Client::connect(handle.addr());

    for i in 0..3 {
        client.send(&point(i));
    }
    for i in 0..3 {
        let reply = client.recv();
        assert!(reply.starts_with(&format!("{{\"type\":\"score\",\"seq\":{i}")), "got {reply}");
        assert!(reply.contains("\"warmup\":true"), "got {reply}");
    }

    client.send("GET /metrics");
    let block = client.recv_metrics_block();
    assert!(block.contains("lof_serve_events_in 3"), "block:\n{block}");
    assert!(block.contains("lof_serve_events_in{tenant=\"default\"} 3"), "block:\n{block}");
    assert!(block.contains("lof_serve_score_records{tenant=\"default\"} 3"), "block:\n{block}");
    assert!(block.ends_with("# EOF\n"));

    // Unparsable lines and bad topn requests answer in-band, in order.
    client.send("not,a,number");
    client.send("GET /topn");
    client.send(&point(3));
    let err = client.recv();
    assert!(err.contains("\"type\":\"error\""), "got {err}");
    let err = client.recv();
    assert!(err.contains("topn request needs a count"), "got {err}");
    let score = client.recv();
    assert!(score.contains("\"seq\":3"), "got {score}");

    drop(client);
    let report = handle.drain().expect("drain");
    assert_eq!(report.tenants.len(), 1);
    assert_eq!(report.tenants[0].0, "default");
    assert_eq!(report.events(), 4);
}

#[test]
fn tenants_are_isolated_and_managed_over_the_wire() {
    let mut config = ServeConfig::new(base_spec(), "euclidean");
    config.workers = 2;
    let handle = start(config);
    let mut a = Client::connect(handle.addr());
    let mut b = Client::connect(handle.addr());

    a.send("TENANT CREATE alpha minpts=2 capacity=16 warmup=3");
    assert_eq!(a.recv(), "{\"type\":\"ok\",\"op\":\"tenant.create\",\"tenant\":\"alpha\"}");
    a.send("TENANT ATTACH alpha");
    assert_eq!(a.recv(), "{\"type\":\"ok\",\"op\":\"tenant.attach\",\"tenant\":\"alpha\"}");

    // Same sequence numbers on both tenants: isolated windows.
    for i in 0..5 {
        a.send(&point(i));
        b.send(&point(1000 + i));
    }
    for i in 0..5 {
        let ra = a.recv();
        let rb = b.recv();
        assert!(ra.contains(&format!("\"seq\":{i}")), "got {ra}");
        assert!(rb.contains(&format!("\"seq\":{i}")), "got {rb}");
    }

    // LIST sees both tenants with live occupancy and attachment counts.
    a.send("TENANT LIST");
    let list = a.recv();
    assert!(
        list.contains("{\"name\":\"alpha\",\"window\":5,\"connections\":1,\"events\":5"),
        "got {list}"
    );
    assert!(
        list.contains("{\"name\":\"default\",\"window\":5,\"connections\":1,\"events\":5"),
        "got {list}"
    );

    // Control-plane guard rails, all answered in-band.
    a.send("TENANT CREATE alpha");
    assert!(a.recv().contains("already exists"));
    a.send("TENANT DROP alpha");
    assert!(a.recv().contains("attached connection"), "cannot drop while attached");
    a.send("TENANT DROP default");
    assert!(a.recv().contains("cannot be dropped"));
    a.send("TENANT ATTACH nonesuch");
    assert!(a.recv().contains("unknown tenant"));
    a.send("TENANT CREATE bad minpts=zero");
    assert!(a.recv().contains("bad value"));

    // Detach (re-attach to default) and then the drop goes through; its
    // events are gone with it.
    a.send("TENANT ATTACH default");
    assert!(a.recv().contains("\"op\":\"tenant.attach\""));
    a.send("TENANT DROP alpha");
    assert_eq!(a.recv(), "{\"type\":\"ok\",\"op\":\"tenant.drop\",\"tenant\":\"alpha\"}");
    a.send("TENANT LIST");
    let list = a.recv();
    assert!(!list.contains("alpha"), "got {list}");

    drop(a);
    drop(b);
    let report = handle.drain().expect("drain");
    // Both tenants appear in the final report, the dropped one included.
    let names: Vec<&str> = report.tenants.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["alpha", "default"]);
    assert_eq!(report.events(), 10);
}

#[test]
fn rate_and_connection_quotas_shed_load_in_band() {
    let mut config = ServeConfig::new(base_spec(), "euclidean");
    config.workers = 1;
    let handle = start(config);
    let mut a = Client::connect(handle.addr());

    // A tenant admitting 1 event/sec with a burst of 1: a 10-line batch
    // lands well inside one refill interval, so at most 2 events can be
    // admitted (burst + one refill even on a glacial machine).
    a.send("TENANT CREATE slow max_eps=1 max_conns=1");
    assert!(a.recv().contains("\"op\":\"tenant.create\""));
    a.send("TENANT ATTACH slow");
    assert!(a.recv().contains("\"op\":\"tenant.attach\""));
    let batch: String = (0..10).map(|i| format!("{}\n", point(i))).collect::<Vec<_>>().concat();
    a.stream.write_all(batch.as_bytes()).expect("batch");
    let mut scores = 0;
    let mut dropped = 0;
    for _ in 0..10 {
        let reply = a.recv();
        if reply.contains("\"type\":\"score\"") {
            scores += 1;
        } else {
            assert!(reply.contains("rate limit exceeded"), "got {reply}");
            dropped += 1;
        }
    }
    assert!((1..=2).contains(&scores), "admitted {scores}");
    assert_eq!(scores + dropped, 10);

    // The second attachment to a max_conns=1 tenant is refused.
    let mut b = Client::connect(handle.addr());
    b.send("TENANT ATTACH slow");
    assert!(b.recv().contains("connection limit (1) reached"));

    // Quota drops are visible per tenant on /metrics.
    b.send("GET /metrics");
    let block = b.recv_metrics_block();
    assert!(block.contains("lof_serve_quota_drops{tenant=\"slow\"}"), "block:\n{block}");

    drop(a);
    drop(b);
    handle.drain().expect("drain");
}

#[test]
fn replies_come_back_in_request_order_across_planes() {
    // Control replies are produced on the I/O thread, scores on a
    // worker; the per-connection sequencer must still deliver them in
    // the order the lines were sent.
    let handle = start(ServeConfig::new(base_spec(), "euclidean"));
    let mut client = Client::connect(handle.addr());
    let mut batch = String::new();
    for i in 0..8 {
        batch.push_str("TENANT LIST\n");
        batch.push_str(&point(i));
        batch.push('\n');
    }
    client.stream.write_all(batch.as_bytes()).expect("batch");
    for i in 0..8 {
        let list = client.recv();
        assert!(list.starts_with("{\"type\":\"tenants\""), "reply {i}: got {list}");
        let score = client.recv();
        assert!(score.contains(&format!("\"seq\":{i}")), "reply {i}: got {score}");
    }
    drop(client);
    handle.drain().expect("drain");
}

#[test]
fn drain_snapshots_and_restore_resumes_bit_identically() {
    let dir = std::env::temp_dir().join(format!("lof-serve-restore-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let total = 60u64;
    let cut = 23u64;

    let mut config = ServeConfig::new(base_spec(), "euclidean");
    config.workers = 2;
    config.snapshot_dir = Some(dir.clone());

    // First life: score the prefix on two tenants, then DRAIN over the
    // wire (which snapshots every tenant and acks).
    let mut first: Vec<String> = Vec::new();
    {
        let handle = start(config.clone());
        let mut client = Client::connect(handle.addr());
        client.send("TENANT CREATE other minpts=2 capacity=8 warmup=3");
        client.recv();
        for i in 0..cut {
            client.send(&point(i));
            first.push(client.recv());
        }
        client.send("DRAIN");
        assert_eq!(client.recv(), "{\"type\":\"ok\",\"op\":\"drain\"}");
        let report = handle.wait().expect("drained");
        assert_eq!(report.events(), cut);
    }
    assert!(dir.join("default.lofw").exists());
    assert!(dir.join("other.lofw").exists());

    // Second life: same snapshot dir; the default tenant resumes where
    // it left off (sequence numbers, eviction order, scores).
    let mut second: Vec<String> = Vec::new();
    {
        let handle = start(config.clone());
        let mut client = Client::connect(handle.addr());
        client.send("TENANT LIST");
        let list = client.recv();
        assert!(list.contains("\"name\":\"other\""), "restored tenants listed: {list}");
        for i in cut..total {
            client.send(&point(i));
            second.push(client.recv());
        }
        let report = handle.drain().expect("drain");
        assert_eq!(report.tenants.iter().find(|(n, _)| n == "default").unwrap().1.events, total);
    }

    // Oracle: one uninterrupted in-process window over the same stream.
    let mut oracle = SlidingWindowLof::new(base_spec().config, Euclidean).expect("oracle");
    let mut expected: Vec<String> = Vec::new();
    for i in 0..total {
        let coords: Vec<f64> = point(i).split(',').map(|f| f.parse().expect("field")).collect();
        let ev = oracle.push(&coords).expect("push");
        expected.push(lof_stream::wire::stream_record(&ev));
    }
    let served: Vec<&String> = first.iter().chain(second.iter()).collect();
    assert_eq!(served.len(), expected.len());
    for (i, (got, want)) in served.iter().zip(expected.iter()).enumerate() {
        assert_eq!(strip_latency(got), strip_latency(want), "record {i} diverged after restore");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_command_persists_on_demand() {
    let dir = std::env::temp_dir().join(format!("lof-serve-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = ServeConfig::new(base_spec(), "euclidean");
    config.snapshot_dir = Some(dir.clone());
    let handle = start(config);
    let mut client = Client::connect(handle.addr());

    client.send("TENANT CREATE extra");
    client.recv();
    for i in 0..6 {
        client.send(&point(i));
        client.recv();
    }
    // Snapshot one tenant, then all; both ack with the persisted set.
    client.send("SNAPSHOT default");
    assert_eq!(client.recv(), "{\"type\":\"snapshot\",\"tenants\":[\"default\"]}");
    client.send("SNAPSHOT");
    assert_eq!(client.recv(), "{\"type\":\"snapshot\",\"tenants\":[\"default\",\"extra\"]}");
    client.send("SNAPSHOT nonesuch");
    assert!(client.recv().contains("unknown tenant"));
    assert!(dir.join("default.lofw").exists());
    assert!(dir.join("extra.lofw").exists());

    drop(client);
    handle.drain().expect("drain");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_without_a_directory_is_a_clean_error() {
    let handle = start(ServeConfig::new(base_spec(), "euclidean"));
    let mut client = Client::connect(handle.addr());
    client.send("SNAPSHOT");
    assert!(client.recv().contains("no snapshot directory configured"));
    drop(client);
    handle.drain().expect("drain");
}

/// A server whose `default` tenant runs `config` with no quotas.
fn start_with(config: StreamConfig) -> ServeHandle {
    start(ServeConfig::new(TenantSpec { config, quotas: Quotas::default() }, "euclidean"))
}

#[test]
fn malformed_lines_get_in_band_error_records() {
    let handle = start_with(StreamConfig::new(2, 16).warmup(4));
    let mut client = Client::connect(handle.addr());
    client.send("1.0, 2.0");
    client.send("definitely not an event");
    client.send("# comments are silently skipped");
    client.send("{\"point\": [3, 4]}");
    let reply = client.recv();
    assert!(reply.starts_with("{\"type\":\"score\",\"seq\":0"), "got {reply}");
    let reply = client.recv();
    assert!(reply.starts_with("{\"type\":\"error\""), "got {reply}");
    let reply = client.recv();
    assert!(reply.starts_with("{\"type\":\"score\",\"seq\":1"), "comment consumed no seq: {reply}");
    drop(client);
    assert_eq!(handle.drain().expect("drain").events(), 2);
}

#[test]
fn oversized_and_split_lines_are_framed_correctly() {
    let handle = start_with(StreamConfig::new(2, 16).warmup(4));
    let mut client = Client::connect(handle.addr());

    // An event split across two writes with a pause in between: the
    // connection's line buffer must reassemble it, not score a fragment.
    client.stream.write_all(b"1.0,").expect("send prefix");
    client.stream.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(30));
    client.stream.write_all(b"2.0\n").expect("send suffix");
    let reply = client.recv();
    assert!(reply.starts_with("{\"type\":\"score\",\"seq\":0"), "split line misread: {reply}");

    // A line far beyond the cap: rejected with one in-band error record
    // (never truncated into a bogus event), and the connection survives.
    let oversized = "9.0,".repeat(100_000); // ~400 KiB, no newline yet
    client.stream.write_all(oversized.as_bytes()).expect("send oversized");
    client.stream.write_all(b"9.0\n3.0,4.0\n").expect("terminate, then a follow-up event");
    let reply = client.recv();
    assert!(reply.starts_with("{\"type\":\"error\""), "expected an overflow error: {reply}");
    assert!(reply.contains("exceeds"), "the error names the limit: {reply}");
    let reply = client.recv();
    assert!(reply.starts_with("{\"type\":\"score\",\"seq\":1"), "connection must survive: {reply}");

    drop(client);
    let registry = std::sync::Arc::clone(handle.registry());
    assert_eq!(handle.drain().expect("drain").events(), 2, "the oversized line is no event");
    if lof_obs::enabled() {
        assert_eq!(registry.counter("serve.oversized_lines").value(), 1);
    }
}

#[test]
fn warmup_then_alerts_flow_over_tcp() {
    let handle = start_with(StreamConfig::new(3, 64).warmup(10).threshold(2.5));
    let mut client = Client::connect(handle.addr());
    let mut saw_alert = false;
    for i in 0..30 {
        // A tight cluster, then one far-away spike that must alert.
        let (x, y) = if i == 29 { (90.0, 90.0) } else { (f64::from(i % 3), f64::from(i % 4)) };
        client.send(&format!("{x},{y}"));
        let reply = client.recv();
        if i < 10 {
            assert!(reply.contains("\"warmup\":true"), "event {i} should be warm-up: {reply}");
            assert!(reply.contains("\"lof\":null"), "got {reply}");
        }
        saw_alert |= reply.contains("\"alerts\":[\"threshold\"]");
    }
    assert!(saw_alert, "the (90,90) spike must trip the threshold rule");
    drop(client);
    let report = handle.drain().expect("drain");
    assert_eq!(report.events(), 30);
    assert!(report.alerts() >= 1);
}

/// Writers hammer one tenant concurrently; after they all join, the
/// registry shows *exact* totals — the sharded counters lose nothing
/// under contention — and the serve ledgers reconcile:
/// `events_in == score_records + push_errors`,
/// `error_records == parse_errors + push_errors`.
#[test]
fn concurrent_writers_produce_exact_counter_totals() {
    const WRITERS: usize = 4;
    const EVENTS: usize = 30;
    const MALFORMED: usize = 3;

    let handle = start_with(StreamConfig::new(3, 64).warmup(8));
    let addr = handle.addr();
    let registry = std::sync::Arc::clone(handle.registry());
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                for i in 0..EVENTS + MALFORMED {
                    let junk = i % 11 == 10;
                    if junk {
                        client.send(&format!("w{w} garbage line {i}"));
                    } else {
                        client.send(&format!("[{}.0, {}.0]", (w * 7 + i) % 9, i % 5));
                    }
                    let reply = client.recv();
                    let want = if junk { "{\"type\":\"error\"" } else { "{\"type\":\"score\"" };
                    assert!(reply.starts_with(want), "line {i}: got {reply}");
                }
            })
        })
        .collect();
    for writer in writers {
        writer.join().expect("writer thread");
    }
    let report = handle.drain().expect("drain");
    assert_eq!(report.events(), (WRITERS * EVENTS) as u64);

    let count = |name: &str| registry.counter(name).value();
    let (events_in, score_records) = (count("serve.events_in"), count("serve.score_records"));
    let (push_errors, parse_errors) = (count("serve.push_errors"), count("serve.parse_errors"));
    // Structural reconciliation holds in both feature modes (all-zero
    // ledgers reconcile trivially with obs off).
    assert_eq!(events_in, score_records + push_errors);
    assert_eq!(count("serve.error_records"), parse_errors + push_errors);
    if lof_obs::enabled() {
        assert_eq!(events_in, (WRITERS * EVENTS) as u64);
        assert_eq!(score_records, (WRITERS * EVENTS) as u64);
        assert_eq!(parse_errors, (WRITERS * MALFORMED) as u64);
        assert_eq!(push_errors, 0);
        assert_eq!(count("serve.connections"), WRITERS as u64);
    }
}
