//! Snapshot/restore equivalence: killing a window at **any** point in the
//! stream and restoring it from its `LOFW` snapshot must continue the run
//! bit-identically — every emitted score, eviction, alert decision, and
//! the final held scores match the uninterrupted window exactly.

use lof_core::Euclidean;
use lof_stream::{SlidingWindowLof, StreamConfig, WindowSnapshot};
use proptest::prelude::*;

const TAG: &str = "euclidean";

/// One emitted event: (seq, score bits, evicted seq, threshold alert,
/// top-k alert).
type EventTrace = (u64, Option<u64>, Option<u64>, bool, bool);

/// Pushes `points` through `window`, recording what each event emitted
/// (score bits, eviction, alert flags) for exact comparison.
fn drive(window: &mut SlidingWindowLof<Euclidean>, points: &[(f64, f64)]) -> Vec<EventTrace> {
    points
        .iter()
        .map(|&(x, y)| {
            let ev = window.push(&[x, y]).unwrap();
            (ev.seq, ev.score.map(f64::to_bits), ev.evicted, ev.threshold_alert, ev.top_k_alert)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    fn restored_window_continues_bit_identically(
        points in proptest::collection::vec(
            (prop_oneof![Just(0.0), Just(1.0), -4.0..4.0f64],
             prop_oneof![Just(0.0), Just(2.0), -4.0..4.0f64]),
            20..70,
        ),
        cut_ratio in 0.0..1.0f64,
        min_pts in 2usize..4,
    ) {
        let config = StreamConfig::new(min_pts, min_pts + 8)
            .warmup(min_pts + 2)
            .threshold(1.8)
            .top_k(3);
        // The cut can land anywhere: before warm-up completes, exactly at
        // the model build, or deep into the sliding regime.
        let cut = ((points.len() as f64) * cut_ratio) as usize;

        let mut uninterrupted = SlidingWindowLof::new(config.clone(), Euclidean).unwrap();
        let mut original = SlidingWindowLof::new(config, Euclidean).unwrap();
        let full = drive(&mut uninterrupted, &points);

        let before = drive(&mut original, &points[..cut]);
        prop_assert_eq!(&before[..], &full[..cut]);

        // Kill: serialize to bytes, drop the window, parse the bytes back.
        let bytes = original.snapshot(TAG).to_bytes();
        drop(original);
        let snap = WindowSnapshot::from_bytes(&bytes).unwrap();
        let mut restored = SlidingWindowLof::restore(&snap, Euclidean, TAG).unwrap();

        // The restored window replays the rest of the stream identically.
        let after = drive(&mut restored, &points[cut..]);
        prop_assert_eq!(&after[..], &full[cut..]);

        // Held state matches too: same occupancy, same ranked scores.
        prop_assert_eq!(restored.len(), uninterrupted.len());
        let a = restored.top_n(usize::MAX);
        let b = uninterrupted.top_n(usize::MAX);
        prop_assert_eq!(a.len(), b.len());
        for ((sa, la), (sb, lb)) in a.iter().zip(&b) {
            prop_assert_eq!(sa, sb);
            prop_assert_eq!(la.to_bits(), lb.to_bits());
        }

        // Lifetime counters resume rather than restart.
        prop_assert_eq!(restored.stats().events, uninterrupted.stats().events);
        prop_assert_eq!(restored.stats().scored, uninterrupted.stats().scored);
        prop_assert_eq!(restored.stats().evictions, uninterrupted.stats().evictions);
        prop_assert_eq!(restored.stats().alerts, uninterrupted.stats().alerts);
        // The latency histogram restarts: only post-restore scored events.
        let rescored = full[cut..].iter().filter(|r| r.1.is_some()).count() as u64;
        prop_assert_eq!(restored.stats().latency.count(), rescored);
    }
}

/// A snapshot written to disk and read back survives the file round trip,
/// while corrupted and truncated files are rejected with `InvalidData`.
#[test]
fn file_round_trip_rejects_corruption_and_truncation() {
    let config = StreamConfig::new(3, 12).warmup(6);
    let mut window = SlidingWindowLof::new(config, Euclidean).unwrap();
    for i in 0..20u32 {
        window.push(&[f64::from(i % 5), f64::from(i % 7)]).unwrap();
    }
    let snap = window.snapshot(TAG);
    let dir = std::env::temp_dir().join(format!("lof_snapshot_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("window.lofw");
    snap.write_to_file(&path).unwrap();

    let back = WindowSnapshot::read_from_file(&path).unwrap();
    assert_eq!(back, snap);
    let restored = SlidingWindowLof::restore(&back, Euclidean, TAG).unwrap();
    assert_eq!(restored.len(), window.len());

    // Truncate the file: every prefix must fail cleanly, never panic.
    let bytes = std::fs::read(&path).unwrap();
    for cut in [0, 3, 8, 16, bytes.len() / 2, bytes.len() - 1] {
        let trunc = dir.join("trunc.lofw");
        std::fs::write(&trunc, &bytes[..cut]).unwrap();
        let err = WindowSnapshot::read_from_file(&trunc).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "cut at {cut}");
    }

    // Flip one payload byte: the CRC must catch it.
    let mut corrupt = bytes.clone();
    let mid = 16 + (corrupt.len() - 20) / 2;
    corrupt[mid] ^= 0x40;
    let bad = dir.join("bad.lofw");
    std::fs::write(&bad, &corrupt).unwrap();
    let err = WindowSnapshot::read_from_file(&bad).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    // A mismatched metric tag is refused at restore time.
    assert!(SlidingWindowLof::restore(&back, Euclidean, "manhattan").is_err());

    std::fs::remove_dir_all(&dir).ok();
}

/// Restoring an empty (pre-first-event) snapshot yields a usable window.
#[test]
fn empty_window_snapshot_round_trips() {
    let config = StreamConfig::new(2, 8).warmup(4);
    let window = SlidingWindowLof::new(config, Euclidean).unwrap();
    let snap = window.snapshot(TAG);
    assert!(snap.warming);
    assert_eq!(snap.points.len(), 0);
    let bytes = snap.to_bytes();
    let back = WindowSnapshot::from_bytes(&bytes).unwrap();
    let mut restored = SlidingWindowLof::restore(&back, Euclidean, TAG).unwrap();
    assert!(restored.is_empty());
    for i in 0..10u32 {
        restored.push(&[f64::from(i), f64::from(i % 3)]).unwrap();
    }
    assert_eq!(restored.stats().events, 10);
}
