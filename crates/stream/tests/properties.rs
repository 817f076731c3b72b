//! The window-equivalence property: after **any** interleaving of inserts
//! and evictions, every score the window emits — and every score it holds —
//! is bit-identical to a fresh batch `IncrementalLof::new` over the current
//! window contents. The window may re-order *when* work happens; it must
//! never change *what* is computed.

use lof_core::incremental::IncrementalLof;
use lof_core::Euclidean;
use lof_stream::{EvictionPolicy, SlidingWindowLof, StreamConfig};
use proptest::prelude::*;

/// Batch oracle: a fresh model over the window's current contents, in the
/// window model's id order (swap-remove shuffles ids, not contents).
fn batch_oracle(window: &SlidingWindowLof<Euclidean>) -> IncrementalLof<Euclidean> {
    let model = window.model().expect("oracle needs a live model");
    IncrementalLof::new(model.dataset().clone(), Euclidean, model.min_pts())
        .expect("window contents are always a valid model seed")
}

fn assert_bit_identical(window: &mut SlidingWindowLof<Euclidean>, context: &str) {
    let mut oracle = batch_oracle(window);
    for (id, (live, batch)) in window.lof_values().iter().zip(oracle.lof_values()).enumerate() {
        assert_eq!(
            live.to_bits(),
            batch.to_bits(),
            "{context}: window id {id} diverges from batch recompute ({live} vs {batch})"
        );
    }
}

/// Point coordinates drawn from a mix of a tiny grid (forces exact ties and
/// duplicates) and jittered continuous values.
fn coord_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(1.0), Just(2.0), -4.0..4.0f64]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    fn streamed_scores_are_bit_identical_to_batch(
        points in proptest::collection::vec((coord_strategy(), coord_strategy()), 30..90),
        min_pts in 2usize..5,
        extra_capacity in 2usize..12,
        warmup_slack in 0usize..6,
    ) {
        let capacity = min_pts + extra_capacity;
        let warmup = (min_pts + 1 + warmup_slack).min(capacity);
        let config = StreamConfig::new(min_pts, capacity).warmup(warmup);
        let mut window = SlidingWindowLof::new(config, Euclidean).unwrap();

        for (i, (x, y)) in points.iter().enumerate() {
            let event = window.push(&[*x, *y]).unwrap();
            prop_assert_eq!(event.seq, i as u64);
            if event.warmup {
                prop_assert!(event.score.is_none());
                continue;
            }
            // The emitted score equals the batch score of the newest
            // window member, bit for bit...
            let newest = window.model().unwrap().newest();
            let mut oracle = batch_oracle(&window);
            prop_assert_eq!(
                event.score.unwrap().to_bits(),
                oracle.lof_values()[newest].to_bits(),
                "event {} emitted score diverges from batch", i
            );
            // ...and so does every other score the window holds.
            assert_bit_identical(&mut window, &format!("after event {i}"));
            // The window obeys its capacity bound.
            prop_assert!(window.len() <= capacity);
        }
    }

    fn landmark_windows_are_bit_identical_too(
        points in proptest::collection::vec((coord_strategy(), coord_strategy()), 20..50),
    ) {
        let config = StreamConfig::new(3, 16).warmup(8).policy(EvictionPolicy::Landmark);
        let mut window = SlidingWindowLof::new(config, Euclidean).unwrap();
        for (x, y) in &points {
            window.push(&[*x, *y]).unwrap();
        }
        prop_assert_eq!(window.len(), points.len(), "landmark never evicts");
        assert_bit_identical(&mut window, "landmark end state");
    }
}

/// Deterministic spot-check that exercises heavy duplicate/tie pressure
/// (the `∞`-lrd regime) through many evictions.
#[test]
fn duplicate_heavy_stream_stays_bit_identical() {
    let config = StreamConfig::new(2, 8).warmup(4);
    let mut window = SlidingWindowLof::new(config, Euclidean).unwrap();
    for i in 0..60u64 {
        // Every value repeats: neighborhoods collapse to distance-0 ties.
        let v = f64::from((i % 3) as u32);
        window.push(&[v, v]).unwrap();
        if !window.is_warming_up() {
            assert_bit_identical(&mut window, &format!("duplicate stream event {i}"));
        }
    }
    assert_eq!(window.len(), 8);
    assert_eq!(window.stats().evictions, 52);
}

/// The eviction order is strictly arrival order, independent of the id
/// shuffling that swap-remove performs internally.
#[test]
fn evictions_follow_arrival_order_exactly() {
    let config = StreamConfig::new(3, 10).warmup(10);
    let mut window = SlidingWindowLof::new(config, Euclidean).unwrap();
    let mut evicted = Vec::new();
    for i in 0..40u32 {
        let ev = window.push(&[f64::from(i % 7), f64::from(i % 5)]).unwrap();
        if let Some(seq) = ev.evicted {
            evicted.push(seq);
        }
    }
    let expected: Vec<u64> = (0..30).collect();
    assert_eq!(evicted, expected, "events must leave in exactly the order they arrived");
}

/// Window contents after a long run are exactly the last `capacity` points
/// of the stream (as a multiset of rows).
#[test]
fn window_holds_exactly_the_stream_suffix() {
    let config = StreamConfig::new(3, 12).warmup(12);
    let mut window = SlidingWindowLof::new(config, Euclidean).unwrap();
    let points: Vec<[f64; 2]> =
        (0..50).map(|i| [f64::from(i % 9), f64::from((i * 3) % 11)]).collect();
    for p in &points {
        window.push(p).unwrap();
    }
    let model = window.model().unwrap();
    let mut held: Vec<Vec<f64>> =
        (0..model.len()).map(|id| model.dataset().point(id).to_vec()).collect();
    let mut expected: Vec<Vec<f64>> = points[38..].iter().map(|p| p.to_vec()).collect();
    let key = |v: &Vec<f64>| (v[0].to_bits(), v[1].to_bits());
    held.sort_by_key(key);
    expected.sort_by_key(key);
    assert_eq!(held, expected);
}

/// `Dataset`-level sanity: the oracle construction used above really does
/// see the same rows the window holds.
#[test]
fn oracle_dataset_matches_window_dataset() {
    let config = StreamConfig::new(2, 6).warmup(4);
    let mut window = SlidingWindowLof::new(config, Euclidean).unwrap();
    for i in 0..10u32 {
        window.push(&[f64::from(i), 0.0]).unwrap();
    }
    let oracle = batch_oracle(&window);
    assert_eq!(oracle.dataset(), window.model().unwrap().dataset());
    assert_eq!(oracle.dataset().len(), 6);
}
