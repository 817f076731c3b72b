//! Streaming anomaly monitoring with [`SlidingWindowLof`] — the paper's
//! "further improve the performance of LOF computation" direction in a
//! realistic setting: a sensor feed whose normal operating region drifts
//! over time, with occasional faults.
//!
//! The window subsystem handles everything the hand-rolled version of this
//! example used to do manually: warm-up buffering, arrival-order eviction
//! once the window is full, per-event alert rules, and cascade/latency
//! accounting. Because each event updates only the definition-3–7
//! dependency cascade, per-event cost stays flat regardless of how long
//! the stream runs.
//!
//! ```sh
//! cargo run --release --example streaming_monitor
//! ```

use lof::data::rng::{normal, seeded};
use lof::{Euclidean, SlidingWindowLof, StreamConfig};

const WINDOW: usize = 400;
const MIN_PTS: usize = 12;
const THRESHOLD: f64 = 3.0;

fn main() {
    let mut rng = seeded(2026);
    let config = StreamConfig::new(MIN_PTS, WINDOW).warmup(WINDOW).threshold(THRESHOLD);
    let mut monitor = SlidingWindowLof::new(config, Euclidean).expect("valid window config");

    // Warm-up: 400 readings of (temperature, vibration) around the initial
    // operating point. The window buffers them and builds its model when
    // the warm-up target is reached — none of these are scored.
    for _ in 0..WINDOW {
        let reading = [normal(&mut rng, 60.0, 1.5), normal(&mut rng, 3.0, 0.3)];
        let event = monitor.push(&reading).expect("finite readings");
        assert!(event.warmup);
    }
    assert!(!monitor.is_warming_up());

    // A drifting stream with three injected faults. The drift moves the
    // operating point far from the warm-up region — a static model would
    // flag *everything* after a while; the sliding window tracks it.
    let faults = [900usize, 1400, 1900];
    let mut alerts: Vec<(usize, f64, [f64; 2])> = Vec::new();

    for t in 0..2000 {
        let drift = t as f64 * 0.01; // slow temperature creep
        let reading: [f64; 2] = if faults.contains(&t) {
            // Fault: vibration spike at a plausible temperature.
            [60.0 + drift, 9.0]
        } else {
            [normal(&mut rng, 60.0 + drift, 1.5), normal(&mut rng, 3.0, 0.3)]
        };

        let event = monitor.push(&reading).expect("finite reading");
        assert_eq!(event.window_len, WINDOW, "the window stays at capacity");
        if event.threshold_alert {
            alerts.push((t, event.score.expect("scored after warm-up"), reading));
        }
    }

    let stats = monitor.stats();
    println!("stream of 2000 readings, window {WINDOW}, MinPts {MIN_PTS}");
    let (p50, p95, p99) = stats.latency.percentiles_ns();
    println!(
        "latency: p50 {:.0}us  p95 {:.0}us  p99 {:.0}us",
        p50 as f64 / 1e3,
        p95 as f64 / 1e3,
        p99 as f64 / 1e3
    );

    println!("\nalerts (score > {THRESHOLD}):");
    for (t, score, reading) in &alerts {
        let injected = if faults.contains(t) { "  <- injected fault" } else { "" };
        println!(
            "  t={t:4}  LOF {score:5.2}  temp {:6.2}  vib {:5.2}{injected}",
            reading[0], reading[1]
        );
    }

    let caught = faults.iter().filter(|f| alerts.iter().any(|(t, _, _)| t == *f)).count();
    let false_alarms = alerts.iter().filter(|(t, _, _)| !faults.contains(t)).count();
    println!("\ninjected faults caught: {caught} of {}", faults.len());
    println!("false alarms: {false_alarms} of 1997 normal readings");
    assert_eq!(monitor.stats().evictions, 2000, "every post-warm-up event evicts one");
    assert_eq!(caught, 3, "every injected fault must alert");
    assert!(false_alarms < 15, "drift must not flood the monitor with alerts");
    println!("drift-following window keeps the detector calibrated — done.");
}
