//! `serve`: the event-loop server (`lof_serve::spawn`, one worker, the
//! `default` tenant: window 1024, d=8, `MinPts` 10, deferred, one shard)
//! driven closed loop over one loopback connection. An op writes a
//! micro-batch of 128 NDJSON events in one write and ends when all 128
//! score records have arrived. Set-up spawns the server, connects, fills
//! the window to capacity and turns it over once, so the timed phase
//! starts in steady state (every event evicts one).

use crate::{gen, timed_loop, Args, Outcome, Spans, SETUP_REPS};
use lof_core::Euclidean;
use lof_serve::{Quotas, ServeConfig, ServeHandle, TenantSpec};
use lof_stream::wire::{self, ParsedLine};
use lof_stream::{SlidingWindowLof, StreamConfig};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

pub const WINDOW: usize = 1024;
pub const DIMS: usize = 8;
pub const MIN_PTS: usize = 10;
pub const BATCH: usize = 128;
/// Pre-generated events, replayed cyclically (64 micro-batches).
pub const POOL: usize = 8192;

fn window_config() -> StreamConfig {
    StreamConfig::new(MIN_PTS, WINDOW).deferred(true).shards(1)
}

/// The record with its wall-clock `latency_us` field cut off.
fn strip(record: &str) -> &str {
    &record[..record.rfind(",\"latency_us\"").unwrap_or(record.len())]
}

/// FNV-1a over the stripped records in arrival order, so the served
/// stream can be checked against a replay without keeping it in memory.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct StreamDigest {
    hash: u64,
    records: u64,
}

impl StreamDigest {
    fn new() -> Self {
        StreamDigest { hash: 0xcbf2_9ce4_8422_2325, records: 0 }
    }

    fn add(&mut self, record: &str) {
        for &b in strip(record).as_bytes().iter().chain(b"\n") {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self.records += 1;
    }
}

/// One running server with its client connection.
struct Session {
    handle: ServeHandle,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
    digest: StreamDigest,
}

impl Session {
    fn start() -> io::Result<Session> {
        let mut config = ServeConfig::new(
            TenantSpec { config: window_config(), quotas: Quotas::default() },
            "euclidean",
        );
        config.workers = 1;
        let handle = lof_serve::spawn(TcpListener::bind("127.0.0.1:0")?, Euclidean, config)?;
        let stream = TcpStream::connect(handle.addr())?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Session { handle, stream, reader, line: String::new(), digest: StreamDigest::new() })
    }

    /// Writes one micro-batch and reads its replies; returns how many
    /// were error records.
    fn round_trip(&mut self, batch: &[u8]) -> io::Result<u64> {
        self.stream.write_all(batch)?;
        let mut errors = 0;
        for _ in 0..BATCH {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
            }
            if !self.line.starts_with("{\"type\":\"score\"") {
                errors += 1;
            }
            self.digest.add(self.line.trim_end());
        }
        Ok(errors)
    }

    fn close(self) -> Result<lof_serve::ServeReport, String> {
        drop(self.reader);
        drop(self.stream);
        self.handle.drain().map_err(|e| format!("drain: {e}"))
    }
}

/// Replays the micro-batches `order` names (in order) through an
/// in-process window; returns the digest and the mean parse / push /
/// encode microseconds per event.
fn replay(lines: &[String], order: &[usize]) -> Result<(StreamDigest, [f64; 3]), String> {
    let mut window =
        SlidingWindowLof::new(window_config(), Euclidean).map_err(|e| e.to_string())?;
    let mut digest = StreamDigest::new();
    let mut ns = [0u128; 3];
    let mut points = Vec::with_capacity(BATCH);
    let mut events = Vec::with_capacity(BATCH);
    for &b in order {
        let t0 = Instant::now();
        points.clear();
        for line in &lines[b * BATCH..(b + 1) * BATCH] {
            match wire::parse_event(line)? {
                ParsedLine::Point(p) => points.push(p),
                ParsedLine::Empty => return Err("generated an empty event".to_owned()),
            }
        }
        let t1 = Instant::now();
        events.clear();
        for p in &points {
            events.push(window.push(p).map_err(|e| e.to_string())?);
        }
        let t2 = Instant::now();
        for event in &events {
            digest.add(&wire::stream_record(event));
        }
        let t3 = Instant::now();
        ns[0] += (t1 - t0).as_nanos();
        ns[1] += (t2 - t1).as_nanos();
        ns[2] += (t3 - t2).as_nanos();
    }
    let per_event = |n: u128| n as f64 / 1e3 / (order.len() * BATCH).max(1) as f64;
    Ok((digest, [per_event(ns[0]), per_event(ns[1]), per_event(ns[2])]))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let lines = gen::drifting_events(args.seed, POOL, DIMS);
    let batches: Vec<Vec<u8>> = lines
        .chunks(BATCH)
        .map(|chunk| {
            let mut bytes = chunk.join("\n").into_bytes();
            bytes.push(b'\n');
            bytes
        })
        .collect();
    // Fill the window, then turn it over once.
    let fill = 2 * WINDOW / BATCH;

    // Set-up: spawn, connect, fill. Earlier repetitions are drained
    // outside the clock; the last one serves the timed phase.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut session = None;
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let mut s = Session::start().map_err(|e| format!("spawn: {e}"))?;
        for batch in &batches[..fill] {
            if s.round_trip(batch).map_err(|e| format!("fill: {e}"))? > 0 {
                return Err("the fill was answered with error records".to_owned());
            }
        }
        setup_s.push(start.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            s.close()?;
        } else {
            session = Some(s);
        }
    }
    let mut session = session.expect("SETUP_REPS > 0");

    let mut order: Vec<usize> = (0..fill).collect();
    let timed = timed_loop(args, |i, _traced| {
        let b = (fill + i as usize) % batches.len();
        order.push(b);
        match session.round_trip(&batches[b]) {
            Ok(0) => Ok(BATCH as u64),
            Ok(errors) => Err(format!("{errors} error records")),
            Err(e) => Err(e.to_string()),
        }
    });

    let registry = std::sync::Arc::clone(session.handle.registry());
    let score_p50_us = registry
        .histogram(&lof_obs::labeled("serve.latency_ns", "tenant", "default"))
        .quantile_ns(0.5) as f64
        / 1e3;
    let served = session.digest;
    let report = session.close()?;
    let counter = |name: &str| registry.counter(name).value();
    let (events_in, score_records) = (counter("serve.events_in"), counter("serve.score_records"));
    let (push_errors, parse_errors) = (counter("serve.push_errors"), counter("serve.parse_errors"));
    let quota_drops = counter("serve.quota_drops");
    let sent = (order.len() * BATCH) as u64;
    println!(
        "{{\"serve\":{{\"events_sent\":{sent},\"serve.events_in\":{events_in},\
         \"serve.score_records\":{score_records},\"serve.push_errors\":{push_errors},\
         \"serve.parse_errors\":{parse_errors},\"serve.quota_drops\":{quota_drops}}}}}"
    );

    let mut correct = true;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            eprintln!("serve: {what}");
            correct = false;
        }
    };
    check(report.events() == sent, "the server's report lost events");
    check(events_in == score_records + push_errors, "events_in != score_records + push_errors");
    check(push_errors + parse_errors + quota_drops == 0, "the server counted failed events");
    let (replayed, [parse_us, push_us, encode_us]) = replay(&lines, &order)?;
    check(replayed == served, "served records differ from the in-process replay");

    let events = timed.units.max(1) as f64;
    let op_ms =
        crate::mean(&timed.plain.iter().chain(&timed.traced).map(|s| s.ms).collect::<Vec<_>>());
    let engine_ms = BATCH as f64 * (parse_us + push_us + encode_us) / 1e3;
    let outside_ms = op_ms - engine_ms;
    let layers = vec![
        ("stream.push_us", push_us),
        ("stream.wire_parse_us", parse_us),
        ("stream.wire_encode_us", encode_us),
        ("core.incremental.cascade_lofs_per_event", timed.counters[4] as f64 / events),
        ("core.incremental.cascade_depth_per_event", timed.counters[5] as f64 / events),
        ("serve.score_p50_us", score_p50_us),
        ("serve.outside_engine_ms_per_op", outside_ms),
        ("trace.uncovered_pct", 100.0 * outside_ms / op_ms.max(1e-12)),
    ];
    Ok(Outcome { correct, setup_s, timed, spans: Spans::default(), layers, threads: 1, workers: 1 })
}
