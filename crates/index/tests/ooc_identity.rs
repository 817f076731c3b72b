//! Property tests: an mmap-backed `.lofd` dataset is indistinguishable —
//! bit for bit — from the same points held in RAM, across every provider
//! family the pipeline materializes through (the blocked kernel behind
//! [`LinearScan`], the kd-tree, and the ball tree) and both SIMD dispatch
//! targets (the native microkernel and the pinned scalar reference).
//!
//! This is the out-of-core exactness contract: tie-inclusive
//! neighborhoods, k-distances, and LOF scores must not change because the
//! coordinates moved from the heap to the page cache.

use lof_core::{
    lof_range_reference, Dataset, Euclidean, Isa, KnnProvider, LinearScan, Lofd, MinPtsRange,
    NeighborhoodTable,
};
use lof_index::{BallTree, KdTree};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Random dataset: `min_n..=max_n` points, dims dimensions, coordinates
/// drawn from a small set of magnitudes including exact duplicates
/// (duplicates stress the tie-inclusive cuts, where any representational
/// drift would show).
fn dataset_strategy(min_n: usize, max_n: usize, max_dims: usize) -> impl Strategy<Value = Dataset> {
    (2usize..=max_dims, min_n..=max_n).prop_flat_map(|(dims, n)| {
        proptest::collection::vec(
            proptest::collection::vec(
                prop_oneof![Just(0.0), Just(1.0), Just(-3.5), -100.0..100.0f64, -1.0..1.0f64,],
                dims,
            ),
            n,
        )
        .prop_map(move |rows| Dataset::from_rows(&rows).expect("finite rows"))
    })
}

/// Round-trips `data` through a `.lofd` file and returns the mmap-backed
/// view. Each call gets its own file: proptest cases run concurrently.
fn mapped_copy(data: &Dataset) -> (Dataset, PathBuf) {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "lof-ooc-identity-{}-{}.lofd",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    Lofd::write_dataset(&path, data).expect("write .lofd");
    let mapped = Lofd::open(&path).expect("reopen .lofd").dataset();
    assert!(mapped.is_mapped(), "reopened dataset must be file-backed");
    assert_eq!(&mapped, data, "coordinates round-trip exactly");
    (mapped, path)
}

/// Asserts provider `ooc` (built over the mapped dataset) answers byte-
/// for-byte like `ram` (built over the heap dataset): same neighbor ids,
/// same distance *bits*, same k-distances, same LOF scores over a range.
fn assert_bit_identical<P: KnnProvider, Q: KnnProvider>(name: &str, ram: &P, ooc: &Q, k: usize) {
    let k = k.min(ram.len() - 1).max(1);
    for id in 0..ram.len() {
        let want = ram.k_nearest(id, k).unwrap();
        let got = ooc.k_nearest(id, k).unwrap();
        assert_eq!(got.len(), want.len(), "{name}: |N_k({id})| diverges");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.id, w.id, "{name}: neighbor id diverges at object {id}");
            assert_eq!(
                g.dist.to_bits(),
                w.dist.to_bits(),
                "{name}: distance bits diverge at object {id} -> {}",
                w.id
            );
        }
    }
    let ram_table = NeighborhoodTable::build(ram, k).unwrap();
    let ooc_table = NeighborhoodTable::build(ooc, k).unwrap();
    let range = MinPtsRange::new((k / 2).max(1), k).unwrap();
    for min_pts in range.iter() {
        let want = ram_table.k_distances(min_pts).unwrap();
        let got = ooc_table.k_distances(min_pts).unwrap();
        let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "{name}: k-distances diverge at k={min_pts}");
    }
    let want = lof_range_reference(&ram_table, range).unwrap();
    let got = lof_range_reference(&ooc_table, range).unwrap();
    for min_pts in range.iter() {
        let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(got.at_min_pts(min_pts).unwrap()),
            bits(want.at_min_pts(min_pts).unwrap()),
            "{name}: LOF values diverge at MinPts={min_pts}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kernel_provider_is_bit_identical_on_mapped_data(
        data in dataset_strategy(8, 48, 4),
        k in 1usize..10,
    ) {
        let (mapped, path) = mapped_copy(&data);
        // Native dispatch (whatever this machine runs) and the pinned
        // scalar reference — `LOF_FORCE_SCALAR`'s target — must both be
        // storage-blind.
        for isa in [lof_core::simd::active(), Isa::Scalar] {
            let ram = LinearScan::with_isa(&data, Euclidean, isa);
            let ooc = LinearScan::with_isa(&mapped, Euclidean, isa);
            assert_bit_identical(&format!("kernel/{isa:?}"), &ram, &ooc, k);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn kdtree_is_bit_identical_on_mapped_data(
        data in dataset_strategy(8, 48, 4),
        k in 1usize..10,
    ) {
        let (mapped, path) = mapped_copy(&data);
        let ram = KdTree::new(&data, Euclidean);
        let ooc = KdTree::new(&mapped, Euclidean);
        assert_bit_identical("kdtree", &ram, &ooc, k);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn balltree_is_bit_identical_on_mapped_data(
        data in dataset_strategy(8, 48, 4),
        k in 1usize..10,
    ) {
        let (mapped, path) = mapped_copy(&data);
        let ram = BallTree::new(&data, Euclidean);
        let ooc = BallTree::new(&mapped, Euclidean);
        assert_bit_identical("balltree", &ram, &ooc, k);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn spilled_table_is_bit_identical_on_mapped_data(
        data in dataset_strategy(300, 400, 4),
        k in 4usize..10,
        regime in 0usize..3,
    ) {
        // The full out-of-core stack at once: mapped coordinates feeding
        // a disk-spilled neighborhood table. n is past the 256-row segment
        // floor, so every budget gives several segments; the budget puts
        // one column per wave, two columns per wave (k >= 4 makes the
        // range at least three wide), or the whole spill file in RAM.
        let (mapped, path) = mapped_copy(&data);
        let n = data.len();
        let range = MinPtsRange::new(k / 2, k).unwrap();
        let ram_table = NeighborhoodTable::build(&LinearScan::new(&data, Euclidean), k).unwrap();
        let want = lof_range_reference(&ram_table, range).unwrap();
        let (budget, columns) = match regime {
            0 => (20 * n, 1),
            1 => (40 * n, 2),
            _ => (8 * n + 16 * ram_table.stored_entries(), range.len()),
        };
        let spilled = lof_core::SpilledNeighborhoodTable::build(
            &LinearScan::new(&mapped, Euclidean),
            k,
            budget,
            &std::env::temp_dir(),
        )
        .unwrap();
        prop_assert!(spilled.segment_count() > 1, "n={} must segment", n);
        prop_assert_eq!(spilled.columns_per_wave(range), columns);
        for aggregate in [
            lof_core::Aggregate::Max,
            lof_core::Aggregate::Min,
            lof_core::Aggregate::Mean,
        ] {
            let got = spilled.lof_range(range, aggregate).unwrap();
            let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(got.scores()),
                bits(&want.scores(aggregate)),
                "spilled {aggregate:?} scores diverge"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }
}
