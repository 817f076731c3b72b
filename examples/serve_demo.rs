//! The serve tier end to end, in one process: spawns the multi-tenant
//! NDJSON TCP server (`lof-serve`) on a loopback port, replays the
//! bundled two-cluster dataset
//! (`datasets/ds1.csv`, rows 500/501 are the planted outliers) as a
//! client, and reads back one score record per event.
//!
//! This is exactly what `lof serve` does, minus the long-running process —
//! use it as a template for embedding the server, or run the real thing:
//!
//! ```sh
//! cargo run --release --example serve_demo
//! lof serve --minpts 12 --capacity 400 --threshold 3.0   # the CLI twin
//! ```

use lof::{Euclidean, StreamConfig};
use lof_serve::{Quotas, ServeConfig, TenantSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

fn main() {
    let data = lof::data::csv::load_dataset("datasets/ds1.csv").expect("bundled dataset");
    println!("replaying {} rows of datasets/ds1.csv as an event stream", data.len());

    // The `default` tenant every connection starts on: a landmark window
    // sized past the dataset, so every event stays in the model and the
    // final scores match a batch run over the whole file.
    let window = StreamConfig::new(12, data.len() + 1)
        .warmup(100)
        .policy(lof::EvictionPolicy::Landmark)
        .threshold(3.0);
    let config =
        ServeConfig::new(TenantSpec { config: window, quotas: Quotas::default() }, "euclidean");

    // Port 0: the OS picks a free loopback port.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let handle = lof_serve::spawn(listener, Euclidean, config).expect("spawn server");
    println!("serving on {}", handle.addr());

    // Act as the client: one CSV line per event, one NDJSON record back.
    let socket = TcpStream::connect(handle.addr()).expect("connect");
    let mut writer = socket.try_clone().expect("clone socket");
    let mut reader = BufReader::new(socket);
    let mut alerts = Vec::new();
    for (row, point) in data.iter() {
        let line: Vec<String> = point.iter().map(f64::to_string).collect();
        writeln!(writer, "{}", line.join(",")).expect("send event");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read record");
        if reply.contains("\"alert\":true") {
            alerts.push(row);
            print!("  alert on row {row}: {reply}");
        }
    }
    // Before hanging up, ask the server for its metrics — an in-band
    // `GET /metrics` on the same NDJSON connection, answered with the
    // Prometheus text block `lof serve` exposes (terminated by `# EOF`).
    writeln!(writer, "GET /metrics").expect("send metrics request");
    println!("\nserver metrics snapshot:");
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read metrics line");
        print!("{line}");
        if line.trim_end() == "# EOF" {
            break;
        }
    }
    drop(writer);
    drop(reader);

    let report = handle.drain().expect("clean drain");
    let stats = &report.tenants[0].1;
    let (p50, p95, p99) = stats.latency.percentiles_ns();
    println!("\n{} events, {} scored, {} alerts", stats.events, stats.scored, stats.alerts);
    println!(
        "scoring latency: p50 {:.0}us  p95 {:.0}us  p99 {:.0}us",
        p50 as f64 / 1e3,
        p95 as f64 / 1e3,
        p99 as f64 / 1e3
    );
    // Row 500 (the first planted outlier) must alert. Row 501 lands next
    // to it and is *masked on arrival*: with its companion already in the
    // window as a near neighbor, its on-insert LOF stays under the
    // threshold — the classic outlier-pair masking effect, visible here
    // only because streaming scores each event at arrival time (a batch
    // run over the full file flags both).
    assert!(alerts.contains(&500), "the first planted outlier must alert");
    assert!(
        alerts.len() < 15,
        "alerts stay rare: regime entries (rows 400..) plus the planted outlier"
    );
    println!("planted outlier row 500 alerted; row 501 was masked by its companion — done.");
}
