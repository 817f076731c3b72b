//! The disk-spilled table scores through the in-RAM sweep's stage
//! functions, one segment at a time. This suite pins that path to the
//! per-`MinPts` reference (not to the sweep, which is now the same code)
//! bit for bit, and pins the segment reads to the wave schedule: a table
//! that does not fit its budget reads every segment
//! `3 × ⌈|range| / columns_per_wave⌉` times per `lof_range`, one that fits
//! reads each segment once, ever. `LOF_FORCE_SCALAR=1` reruns it on the
//! scalar kernels.

use lof::core::{lof_range_reference, SpilledNeighborhoodTable};
use lof::{Aggregate, Dataset, Euclidean, LinearScan, MinPtsRange, Neighbor, NeighborhoodTable};

const MAX_K: usize = 12;

/// Clusters of different density, duplicate piles (infinite lrds), an
/// integer lattice (distance ties straddling the k-th rank) and isolates,
/// sized past the 256-row segment floor so tiny budgets give several
/// segments.
fn mixed_dataset() -> Dataset {
    let mut rows: Vec<[f64; 2]> = Vec::new();
    for i in 0..300 {
        rows.push([(i % 20) as f64, (i / 20) as f64]);
    }
    for pile in 0..3 {
        for _ in 0..6 {
            rows.push([40.0 + 10.0 * pile as f64, 40.0]);
        }
    }
    for i in 0..40 {
        rows.push([(i as f64) * 0.01 + 80.0, 0.0]);
    }
    rows.extend([[-30.0, -30.0], [100.0, 100.0], [-50.0, 60.0]]);
    Dataset::from_rows(&rows).unwrap()
}

fn spill_dir() -> std::path::PathBuf {
    std::env::temp_dir()
}

#[test]
fn spilled_range_scores_match_the_reference_in_every_budget_regime() {
    let data = mixed_dataset();
    let n = data.len();
    let scan = LinearScan::new(&data, Euclidean);
    let ram = NeighborhoodTable::build(&scan, MAX_K).unwrap();
    let range = MinPtsRange::new(3, MAX_K).unwrap();
    let want = lof_range_reference(&ram, range).unwrap();
    // Spill file bytes: `rows + 1` u32 offsets per segment (at most 2n in
    // all) plus 16 bytes per stored neighbor.
    let file_bound = 8 * n + ram.stored_entries() * std::mem::size_of::<Neighbor>();

    // (label, budget, expected columns per wave, whole table resident)
    for (label, budget, columns, resident) in [
        ("one column per wave", 20 * n, 1, false),
        ("several columns per wave", 20 * n * 4, 4, false),
        ("whole table resident", file_bound, range.len(), true),
    ] {
        let spilled = SpilledNeighborhoodTable::build(&scan, MAX_K, budget, &spill_dir()).unwrap();
        let segments = spilled.segment_count() as u64;
        assert!(segments > 1, "{label}: the table must segment");
        assert_eq!(spilled.columns_per_wave(range), columns, "{label}: columns per wave");
        let waves = 3 * range.len().div_ceil(columns) as u64;

        for (call, aggregate) in
            [Aggregate::Max, Aggregate::Min, Aggregate::Mean].iter().enumerate()
        {
            let got = spilled.lof_range(range, *aggregate).unwrap();
            let expected = want.scores(*aggregate);
            assert_eq!(got.scores().len(), n);
            for (id, (g, w)) in got.scores().iter().zip(&expected).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "{label}: {aggregate:?} id={id} ({g} vs {w})");
            }

            let stats = spilled.stats();
            if resident {
                assert_eq!(stats.segment_reloads, segments, "{label}: each segment read once");
                assert_eq!(stats.segment_evictions, 0, "{label}: nothing evicted");
                assert!(stats.resident_bytes <= budget as u64, "{label}: {stats:?}");
            } else {
                let calls = call as u64 + 1;
                assert_eq!(
                    stats.segment_reloads,
                    calls * segments * waves,
                    "{label}: reloads after {calls} calls"
                );
                assert_eq!(
                    stats.segment_evictions,
                    stats.segment_reloads - 1,
                    "{label}: each load evicts the segment read before it"
                );
            }
        }
    }
}
