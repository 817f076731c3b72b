//! Streaming identity oracle: the score a sliding window emits on every
//! event — and, at a fixed cadence and at the end, every score it holds —
//! equals the batch LOF (definitions 3–7 over a linear-scan neighborhood
//! table) of the live window contents, bit for bit. Reading the held
//! scores refreshes the whole window, so between those reads deferred
//! staleness builds up over inserts, evictions, depleted-list re-searches
//! and swap-remove relocations. Covered: slide and landmark windows,
//! duplicates and tie shells, eviction storms, a mid-stream snapshot →
//! restore, and a snapshot written by the retired sharded/eager layout.
//! `scripts/ci.sh` reruns this file with `LOF_FORCE_SCALAR=1`: the
//! window's SIMD surrogate prefilter runs on every insert, so both
//! dispatch targets must agree with the batch path.

use lof::core::lof as batch_lof;
use lof::stream::snapshot::crc32;
use lof::stream::{ScoredEvent, WindowSnapshot};
use lof::{Euclidean, EvictionPolicy, SlidingWindowLof, StreamConfig};
use proptest::prelude::*;

const TAG: &str = "euclidean";

/// Asserts the event's score (and top-k alert) equals the batch LOF of
/// the window's current contents; with `held`, every held score too.
fn check_against_batch(
    window: &mut SlidingWindowLof<Euclidean>,
    event: &ScoredEvent,
    held: bool,
    context: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        event.score.is_none(),
        event.warmup,
        "{}: warm-up events score nothing",
        context
    );
    let Some(model) = window.model() else {
        return Ok(());
    };
    let newest = model.newest();
    let batch =
        batch_lof(model.dataset(), Euclidean, model.min_pts()).expect("live windows are valid");
    if let Some(score) = event.score {
        prop_assert_eq!(score.to_bits(), batch[newest].to_bits(), "{}: emitted score", context);
        if let Some(k) = window.config().top_k {
            let higher = batch.iter().filter(|&&v| v > score).count();
            prop_assert_eq!(event.top_k_alert, k > 0 && higher < k, "{}: top-k alert", context);
        }
    }
    if held {
        let held = window.lof_values();
        prop_assert_eq!(held.len(), batch.len());
        for (id, (live, want)) in held.iter().zip(&batch).enumerate() {
            prop_assert_eq!(live.to_bits(), want.to_bits(), "{}: held score of id {}", context, id);
        }
    }
    Ok(())
}

/// Pushes every point, checking each emitted score against the batch
/// oracle and the held scores every `held_every` events and after the
/// last one.
fn drive(
    window: &mut SlidingWindowLof<Euclidean>,
    points: &[(f64, f64)],
    held_every: usize,
    label: &str,
) -> Result<Vec<ScoredEvent>, TestCaseError> {
    let mut events = Vec::with_capacity(points.len());
    for (i, &(x, y)) in points.iter().enumerate() {
        let event = window.push(&[x, y]).expect("finite 2-d events");
        let held = (i + 1) % held_every == 0 || i + 1 == points.len();
        check_against_batch(window, &event, held, &format!("{label} event {i}"))?;
        events.push(event);
    }
    Ok(events)
}

/// One event minus its wall-clock latency: seq, score bits, evicted
/// seq, threshold alert, top-k alert, window length.
type Trace = (u64, Option<u64>, Option<u64>, bool, bool, usize);

fn trace(events: &[ScoredEvent]) -> Vec<Trace> {
    events
        .iter()
        .map(|e| {
            let score = e.score.map(f64::to_bits);
            (e.seq, score, e.evicted, e.threshold_alert, e.top_k_alert, e.window_len)
        })
        .collect()
}

/// Tie-shell-heavy coordinates: a tiny integer grid (exact duplicate
/// distances everywhere) mixed with continuous values.
fn coord() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(1.0), Just(2.0), Just(3.0), -4.0..4.0f64]
}

fn stream(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec((coord(), coord()), len)
}

/// Rewrites the retired `shards` / `deferred` / `border_repairs` fields
/// of a v2 `LOFW` image and re-seals its CRC — the bytes a writer from
/// the sharded, eagerly maintained era produced for the same window.
fn retired_layout(snap: &WindowSnapshot, shards: u64, deferred: u8, repairs: u64) -> Vec<u8> {
    let mut bytes = snap.to_bytes();
    let option = |present: bool| if present { 9 } else { 1 };
    // Frame header, metric tag, min_pts/capacity/warmup, policy byte,
    // then the optional threshold and top_k.
    let engine = 16
        + 8
        + snap.metric_tag.len()
        + 24
        + 1
        + option(snap.config.threshold.is_some())
        + option(snap.config.top_k.is_some());
    let extras: usize = 8 + snap.extras.iter().map(|(k, v)| 16 + k.len() + v.len()).sum::<usize>();
    let border = bytes.len() - 4 - extras - 8;
    assert_eq!(
        bytes[engine..engine + 9],
        [1, 0, 0, 0, 0, 0, 0, 0, 1],
        "v2 writes shards 1, deferred 1"
    );
    bytes[engine..engine + 8].copy_from_slice(&shards.to_le_bytes());
    bytes[engine + 8] = deferred;
    bytes[border..border + 8].copy_from_slice(&repairs.to_le_bytes());
    let end = bytes.len() - 4;
    let crc = crc32(&bytes[16..end]);
    bytes[end..].copy_from_slice(&crc.to_le_bytes());
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    fn slide_windows_match_the_batch_oracle(
        points in stream(30..80),
        min_pts in 2usize..5,
        extra_capacity in 2usize..10,
        warmup_slack in 0usize..6,
        top_k in 0usize..4,
        held_every in 1usize..12,
    ) {
        let capacity = min_pts + extra_capacity;
        let warmup = (min_pts + 1 + warmup_slack).min(capacity);
        let mut config = StreamConfig::new(min_pts, capacity).warmup(warmup);
        config.top_k = (top_k > 0).then_some(top_k);
        let mut window = SlidingWindowLof::new(config, Euclidean).unwrap();
        drive(&mut window, &points, held_every, "slide")?;
        prop_assert!(window.len() <= capacity);
    }

    fn landmark_windows_match_the_batch_oracle(points in stream(20..50)) {
        let config = StreamConfig::new(3, 16).warmup(8).policy(EvictionPolicy::Landmark);
        let mut window = SlidingWindowLof::new(config, Euclidean).unwrap();
        drive(&mut window, &points, 7, "landmark")?;
        prop_assert_eq!(window.len(), points.len(), "landmark windows never evict");
    }

    /// Capacity at the legal minimum, so every post-warm-up push evicts,
    /// over duplicate-saturated input; held scores are read only every 7
    /// events, so staleness accumulates across several evictions.
    fn eviction_storms_over_duplicates_match_the_batch_oracle(
        cells in proptest::collection::vec((0u8..3, 0u8..3), 40..90),
        min_pts in 2usize..4,
    ) {
        let points: Vec<(f64, f64)> =
            cells.iter().map(|&(x, y)| (f64::from(x), f64::from(y))).collect();
        let mut window = SlidingWindowLof::new(StreamConfig::new(min_pts, min_pts + 2), Euclidean)
            .unwrap();
        let events = drive(&mut window, &points, 7, "storm")?;
        let evictions = events.iter().filter(|e| e.evicted.is_some()).count();
        prop_assert_eq!(evictions, points.len() - (min_pts + 2));
    }

    /// Snapshot mid-stream, restore from the bytes — once as written
    /// today, once as the retired sharded/eager layout wrote it — and
    /// both continue exactly like the uninterrupted window.
    fn restored_windows_continue_bit_identically(
        points in stream(40..80),
        cut in 12usize..35,
    ) {
        let config = StreamConfig::new(3, 16).threshold(1.8).top_k(3);
        let mut uninterrupted = SlidingWindowLof::new(config.clone(), Euclidean).unwrap();
        let full = trace(&drive(&mut uninterrupted, &points, 5, "uninterrupted")?);

        let mut original = SlidingWindowLof::new(config, Euclidean).unwrap();
        drive(&mut original, &points[..cut], 5, "original")?;
        let snap = original.snapshot(TAG);
        drop(original);
        let images = [("current", snap.to_bytes()), ("retired", retired_layout(&snap, 4, 0, 7))];
        for (label, bytes) in images {
            let decoded = WindowSnapshot::from_bytes(&bytes).unwrap();
            prop_assert_eq!(&decoded, &snap, "{} image decodes to the same snapshot", label);
            let mut restored = SlidingWindowLof::restore(&decoded, Euclidean, TAG).unwrap();
            let after = trace(&drive(&mut restored, &points[cut..], 5, label)?);
            prop_assert_eq!(&after[..], &full[cut..], "{} restore diverged", label);
            let ranking = |w: &mut SlidingWindowLof<Euclidean>| -> Vec<(u64, u64)> {
                w.top_n(usize::MAX).into_iter().map(|(seq, lof)| (seq, lof.to_bits())).collect()
            };
            prop_assert_eq!(ranking(&mut restored), ranking(&mut uninterrupted));
            prop_assert_eq!(restored.stats().events, uninterrupted.stats().events);
            prop_assert_eq!(restored.stats().alerts, uninterrupted.stats().alerts);
        }
    }
}
