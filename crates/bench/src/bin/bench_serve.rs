//! Serve-tier saturation benchmark: the event-loop server
//! (`lof-serve`) under 64 / 256 / 1024 concurrent connections, all on
//! the same drifting event mix. Aborts on any dropped or
//! misordered event, then proves the kill → restore-from-snapshot path
//! resumes bit-identically over real TCP. Written as `BENCH_serve.json`
//! (override the path with `BENCH_SERVE_OUT`; restrict the connection
//! matrix with `BENCH_SERVE_CONNS=64,256`).
//!
//! Run with `--release`; scale the event volume with `LOF_SCALE`.

use lof_bench::{banner, scale, time};
use lof_core::Euclidean;
use lof_serve::{Quotas, ServeConfig, TenantSpec};
use lof_stream::{SlidingWindowLof, StreamConfig};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

const MIN_PTS: usize = 10;
const CAPACITY: usize = 256;
/// Lines each client keeps in flight (pipelined, replies are in order).
const PIPELINE: usize = 16;

fn window_config() -> StreamConfig {
    StreamConfig::new(MIN_PTS, CAPACITY)
}

fn tenant_spec() -> TenantSpec {
    TenantSpec { config: window_config(), quotas: Quotas::default() }
}

/// Deterministic event stream (no RNG: restarts must replay exactly).
fn point(i: u64) -> String {
    let x = (i.wrapping_mul(2_654_435_761) % 1000) as f64 / 100.0;
    let y = (i.wrapping_mul(40_503) % 1000) as f64 / 100.0;
    let z = (i.wrapping_mul(97) % 1000) as f64 / 100.0;
    format!("{x},{y},{z}")
}

struct ClientResult {
    latencies: Vec<Duration>,
    errors: u64,
}

/// Pumps `events` pipelined lines through one connection, timing each
/// submit → reply round trip (replies come back in order, so the oldest
/// in-flight timestamp always matches the next reply). The barrier
/// separates the connect storm from the timed pumping phase.
fn run_client(
    addr: SocketAddr,
    offset: u64,
    events: u64,
    start: &std::sync::Barrier,
) -> ClientResult {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    start.wait();
    let mut inflight: VecDeque<Instant> = VecDeque::with_capacity(PIPELINE);
    let mut latencies = Vec::with_capacity(events as usize);
    let mut errors = 0u64;
    let mut sent = 0u64;
    let mut received = 0u64;
    let mut line = String::new();
    while received < events {
        while sent < events && inflight.len() < PIPELINE {
            writeln!(stream, "{}", point(offset + sent)).expect("send");
            inflight.push_back(Instant::now());
            sent += 1;
        }
        line.clear();
        let n = reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed mid-stream after {received} replies");
        let started = inflight.pop_front().expect("reply without a request");
        latencies.push(started.elapsed());
        if !line.starts_with("{\"type\":\"score\"") {
            errors += 1;
        }
        received += 1;
    }
    ClientResult { latencies, errors }
}

struct RunStats {
    events_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
}

/// Fans `total` events over `conns` concurrent client threads and
/// aggregates throughput and client-observed latency. Panics if any
/// reply was dropped or was not a score record.
fn saturate(addr: SocketAddr, conns: usize, total: u64) -> RunStats {
    let per_conn = (total / conns as u64).max(4);
    let start = std::sync::Arc::new(std::sync::Barrier::new(conns + 1));
    let handles: Vec<_> = (0..conns)
        .map(|c| {
            let offset = c as u64 * per_conn;
            let start = std::sync::Arc::clone(&start);
            std::thread::Builder::new()
                .name(format!("bench-client-{c}"))
                .stack_size(512 * 1024)
                .spawn(move || run_client(addr, offset, per_conn, &start))
                .expect("spawn client")
        })
        .collect();
    let (results, elapsed) = time(|| {
        start.wait();
        handles.into_iter().map(|h| h.join().expect("client panicked")).collect::<Vec<_>>()
    });
    let mut latencies: Vec<Duration> = Vec::with_capacity((per_conn as usize) * conns);
    let mut errors = 0u64;
    for r in results {
        latencies.extend(r.latencies);
        errors += r.errors;
    }
    assert_eq!(errors, 0, "{errors} events were rejected under load");
    assert_eq!(latencies.len() as u64, per_conn * conns as u64, "dropped replies");
    latencies.sort_unstable();
    let pct = |p: f64| {
        let idx = ((latencies.len() as f64 * p) as usize).min(latencies.len() - 1);
        latencies[idx].as_secs_f64() * 1e6
    };
    RunStats {
        events_per_sec: latencies.len() as f64 / elapsed.as_secs_f64(),
        p50_us: pct(0.50),
        p99_us: pct(0.99),
    }
}

fn spawn_event_loop(
    queue: usize,
    snapshot_dir: Option<std::path::PathBuf>,
) -> lof_serve::ServeHandle {
    let mut config = ServeConfig::new(tenant_spec(), "euclidean");
    // Provision the job queue for the expected in-flight load; an
    // undersized queue still serves correctly but pays the parking
    // (backpressure) path on most events.
    config.queue = queue;
    config.snapshot_dir = snapshot_dir;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    lof_serve::spawn(listener, Euclidean, config).expect("spawn event loop")
}

/// Kill → restore: score a prefix against a snapshotting server, drain
/// it, restart on the same directory, score the suffix, and demand the
/// concatenated records match an uninterrupted in-process window except
/// for the timing field.
fn check_restore_bit_identity() -> bool {
    let dir = std::env::temp_dir().join(format!("lof-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let total = 400u64;
    let cut = 173u64;
    let mut served: Vec<String> = Vec::new();
    for (start, end) in [(0, cut), (cut, total)] {
        let handle = spawn_event_loop(1024, Some(dir.clone()));
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        for i in start..end {
            writeln!(stream, "{}", point(i)).expect("send");
            line.clear();
            reader.read_line(&mut line).expect("recv");
            served.push(line.trim_end().to_owned());
        }
        drop(stream);
        handle.drain().expect("drain");
    }
    let mut oracle = SlidingWindowLof::new(window_config(), Euclidean).expect("oracle");
    let strip = |record: &str| record.rfind(",\"latency_us\"").unwrap_or(record.len());
    let identical = (0..total).all(|i| {
        let coords: Vec<f64> = point(i).split(',').map(|f| f.parse().expect("field")).collect();
        let want = lof_stream::wire::stream_record(&oracle.push(&coords).expect("push"));
        let got = &served[i as usize];
        got[..strip(got)] == want[..strip(&want)]
    });
    let _ = std::fs::remove_dir_all(&dir);
    identical
}

fn main() {
    banner("bench_serve", "multi-tenant event-loop serve tier: saturation + restore identity");
    let total = 16_000u64 * scale() as u64;
    let conn_matrix: Vec<usize> = std::env::var("BENCH_SERVE_CONNS")
        .map(|v| v.split(',').map(|c| c.trim().parse().expect("bad BENCH_SERVE_CONNS")).collect())
        .unwrap_or_else(|_| vec![64, 256, 1024]);

    let mut rows: Vec<(usize, RunStats)> = Vec::new();

    for &conns in &conn_matrix {
        let handle = spawn_event_loop((conns * PIPELINE).max(1024), None);
        let stats = saturate(handle.addr(), conns, total);
        let report = handle.drain().expect("clean drain");
        assert_eq!(
            report.events(),
            (total / conns as u64).max(4) * conns as u64,
            "server lost events"
        );
        println!(
            "event-loop  {conns:5} conns: {:9.0} events/sec  p50 {:7.1}us  p99 {:8.1}us",
            stats.events_per_sec, stats.p50_us, stats.p99_us
        );
        rows.push((conns, stats));
    }

    let restore_ok = check_restore_bit_identity();
    assert!(restore_ok, "restore-from-snapshot diverged from the uninterrupted window");
    println!("kill -> restore-from-snapshot: bit-identical over {} events", 400);

    let mut json = String::from("{\n  \"runs\": [\n");
    for (i, (conns, s)) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"server\": \"event_loop\", \"conns\": {conns}, \
             \"events_per_sec\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}}}",
            s.events_per_sec, s.p50_us, s.p99_us
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    let _ = write!(
        json,
        "  ],\n  \"events_per_run\": {total},\n  \"restore_bit_identical\": {restore_ok}\n}}\n"
    );
    let path = std::env::var("BENCH_SERVE_OUT").unwrap_or_else(|_| "BENCH_serve.json".to_owned());
    std::fs::write(&path, &json).expect("cannot write benchmark JSON");
    println!("wrote {path}:\n{json}");
}
