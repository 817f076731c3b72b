//! Property tests for the zero-allocation and batched query paths: for
//! every provider, `k_nearest`, `k_nearest_into`, and `batch_k_nearest`
//! must return **bit-identical** neighbor lists — same ids, same distance
//! bits — and they must all agree with a naive reference that computes
//! every pairwise distance and reduces it tie-inclusively (definition 4).
//! Also proves the lock-free parallel materialization is byte-for-byte
//! identical to the serial build after serialization.

use lof_core::knn::KnnScratch;
use lof_core::neighbors::select_k_tie_inclusive;
use lof_core::{
    build_table_parallel, Dataset, Euclidean, KnnProvider, LinearScan, Metric, Neighbor,
    NeighborhoodTable,
};
use lof_index::{BallTree, GridIndex, KdTree, VaFile, XTree};
use proptest::prelude::*;

/// Random dataset biased toward exact duplicates and ties: coordinates come
/// from a small set of fixed magnitudes plus two continuous ranges, so many
/// points coincide and tie groups straddle the k-th rank.
fn dataset_strategy(max_n: usize, max_dims: usize) -> impl Strategy<Value = Dataset> {
    (2usize..=max_dims, 6usize..=max_n).prop_flat_map(|(dims, n)| {
        proptest::collection::vec(
            proptest::collection::vec(
                prop_oneof![Just(0.0), Just(1.0), Just(2.0), Just(-3.5), -50.0..50.0f64,],
                dims,
            ),
            n,
        )
        .prop_map(move |rows| Dataset::from_rows(&rows).expect("finite rows"))
    })
}

/// Naive reference: all pairwise distances, reduced tie-inclusively with
/// the same canonical selection the providers use.
fn naive_k_nearest(data: &Dataset, id: usize, k: usize) -> Vec<Neighbor> {
    let q = data.point(id);
    let all: Vec<Neighbor> = (0..data.len())
        .filter(|&other| other != id)
        .map(|other| Neighbor::new(other, Euclidean.distance(q, data.point(other))))
        .collect();
    select_k_tie_inclusive(all, k)
}

/// Asserts two neighbor lists carry the same ids and the same distance
/// *bits* (stricter than `==`, which would accept `-0.0 == 0.0`).
fn assert_bit_identical(label: &str, got: &[Neighbor], want: &[Neighbor]) {
    assert_eq!(got.len(), want.len(), "{label}: neighborhood sizes diverge");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.id, w.id, "{label}: neighbor ids diverge");
        assert_eq!(
            g.dist.to_bits(),
            w.dist.to_bits(),
            "{label}: distance bits diverge ({} vs {})",
            g.dist,
            w.dist
        );
    }
}

/// Runs one provider through all three query paths and checks each against
/// the naive reference, bit for bit.
fn assert_paths_agree<P: KnnProvider>(name: &str, provider: &P, data: &Dataset, k: usize) {
    let k = k.min(data.len() - 1).max(1);
    let mut scratch = KnnScratch::new();

    // Batched path: one call covering every id.
    let mut batch_out: Vec<Neighbor> = Vec::new();
    let mut batch_lens: Vec<usize> = Vec::new();
    provider
        .batch_k_nearest(0..data.len(), k, &mut scratch, &mut batch_out, &mut batch_lens)
        .unwrap();
    assert_eq!(batch_lens.len(), data.len(), "{name}: one length per id");

    let mut batch_offset = 0;
    let mut into_out: Vec<Neighbor> = Vec::new();
    for id in 0..data.len() {
        let want = naive_k_nearest(data, id, k);

        let allocating = provider.k_nearest(id, k).unwrap();
        assert_bit_identical(&format!("{name}: k_nearest(id={id}, k={k})"), &allocating, &want);

        into_out.clear();
        let added = provider.k_nearest_into(id, k, &mut scratch, &mut into_out).unwrap();
        assert_eq!(added, into_out.len(), "{name}: k_nearest_into reported length");
        assert_bit_identical(&format!("{name}: k_nearest_into(id={id}, k={k})"), &into_out, &want);

        let batch_slice = &batch_out[batch_offset..batch_offset + batch_lens[id]];
        assert_bit_identical(
            &format!("{name}: batch_k_nearest(id={id}, k={k})"),
            batch_slice,
            &want,
        );
        batch_offset += batch_lens[id];
    }
    assert_eq!(batch_offset, batch_out.len(), "{name}: lens must cover the flat output");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn scan_query_paths_are_bit_identical(
        data in dataset_strategy(50, 6),
        k in 1usize..10,
    ) {
        let scan = LinearScan::new(&data, Euclidean);
        assert_paths_agree("scan", &scan, &data, k);
    }

    #[test]
    fn kdtree_query_paths_are_bit_identical(
        data in dataset_strategy(50, 4),
        k in 1usize..10,
    ) {
        let index = KdTree::new(&data, Euclidean);
        assert_paths_agree("kdtree", &index, &data, k);
    }

    #[test]
    fn balltree_query_paths_are_bit_identical(
        data in dataset_strategy(50, 4),
        k in 1usize..10,
    ) {
        let index = BallTree::new(&data, Euclidean);
        assert_paths_agree("balltree", &index, &data, k);
    }

    #[test]
    fn grid_query_paths_are_bit_identical(
        data in dataset_strategy(50, 3),
        k in 1usize..10,
    ) {
        let index = GridIndex::new(&data, Euclidean);
        assert_paths_agree("grid", &index, &data, k);
    }

    #[test]
    fn vafile_query_paths_are_bit_identical(
        data in dataset_strategy(40, 5),
        k in 1usize..8,
    ) {
        let index = VaFile::new(&data, Euclidean);
        assert_paths_agree("vafile", &index, &data, k);
    }

    #[test]
    fn xtree_query_paths_are_bit_identical(
        data in dataset_strategy(40, 4),
        k in 1usize..8,
    ) {
        let index = XTree::new(&data, Euclidean);
        assert_paths_agree("xtree", &index, &data, k);
    }

    #[test]
    fn parallel_tables_serialize_byte_for_byte(
        data in dataset_strategy(60, 4),
        k in 1usize..8,
        threads in 2usize..6,
    ) {
        let k = k.min(data.len() - 1).max(1);
        let scan = LinearScan::new(&data, Euclidean);

        let serial = NeighborhoodTable::build(&scan, k).unwrap();
        let parallel = build_table_parallel(&scan, k, threads).unwrap();

        // A per-call sequence number keeps concurrent runs of this test in
        // one process (the test harness may run it on several threads)
        // from sharing files.
        static CALL: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let call = CALL.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir();
        let unique = format!("{}_{call}_{}_{}", std::process::id(), data.len(), threads);
        let serial_path = dir.join(format!("lof_bc_serial_{unique}.lofm"));
        let parallel_path = dir.join(format!("lof_bc_parallel_{unique}.lofm"));
        serial.save(&serial_path).unwrap();
        parallel.save(&parallel_path).unwrap();
        let serial_bytes = std::fs::read(&serial_path).unwrap();
        let parallel_bytes = std::fs::read(&parallel_path).unwrap();
        let _ = std::fs::remove_file(&serial_path);
        let _ = std::fs::remove_file(&parallel_path);

        prop_assert!(
            serial_bytes == parallel_bytes,
            "parallel table must serialize byte-for-byte like serial \
             (n={}, k={k}, threads={threads})",
            data.len()
        );
    }

    #[test]
    fn index_tables_match_scan_tables(
        data in dataset_strategy(40, 3),
        k in 1usize..6,
    ) {
        // The materialization database is provider-independent: every index
        // yields the same table the brute-force scan does.
        let k = k.min(data.len() - 1).max(1);
        let scan = LinearScan::new(&data, Euclidean);
        let want = NeighborhoodTable::build(&scan, k).unwrap();
        let kd = NeighborhoodTable::build(&KdTree::new(&data, Euclidean), k).unwrap();
        let grid = NeighborhoodTable::build(&GridIndex::new(&data, Euclidean), k).unwrap();
        for id in 0..data.len() {
            prop_assert_eq!(want.neighborhood(id, k).unwrap(), kd.neighborhood(id, k).unwrap());
            prop_assert_eq!(want.neighborhood(id, k).unwrap(), grid.neighborhood(id, k).unwrap());
        }
    }
}

/// Checks a batch over an id subrange (not necessarily starting at 0)
/// against per-id queries: the leaf-grouped join must re-emit
/// neighborhoods in ascending id order relative to the batch start, bit
/// for bit. An empty subrange must succeed and produce nothing.
fn check_subrange<P: KnnProvider>(name: &str, provider: &P, ids: std::ops::Range<usize>, k: usize) {
    let mut scratch = KnnScratch::new();
    let mut batch_out: Vec<Neighbor> = Vec::new();
    let mut batch_lens: Vec<usize> = Vec::new();
    provider
        .batch_k_nearest(ids.clone(), k, &mut scratch, &mut batch_out, &mut batch_lens)
        .unwrap();
    assert_eq!(batch_lens.len(), ids.len(), "{name}: one length per id in the subrange");

    let mut offset = 0;
    let mut want: Vec<Neighbor> = Vec::new();
    for (pos, id) in ids.enumerate() {
        want.clear();
        provider.k_nearest_into(id, k, &mut scratch, &mut want).unwrap();
        let got = &batch_out[offset..offset + batch_lens[pos]];
        assert_bit_identical(&format!("{name}: subrange batch (id={id}, k={k})"), got, &want);
        offset += batch_lens[pos];
    }
    assert_eq!(offset, batch_out.len(), "{name}: lens must cover the flat output");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn tree_subrange_batches_are_bit_identical(
        data in dataset_strategy(60, 4),
        k in 1usize..8,
        lo_frac in 0.0f64..1.0,
        hi_frac in 0.0f64..1.0,
    ) {
        let n = data.len();
        let k = k.min(n - 1).max(1);
        let (a, b) = ((lo_frac * n as f64) as usize, (hi_frac * n as f64) as usize);
        let ids = a.min(b).min(n)..a.max(b).min(n);
        let kd = KdTree::new(&data, Euclidean);
        let ball = BallTree::new(&data, Euclidean);
        check_subrange("kdtree", &kd, ids.clone(), k);
        check_subrange("balltree", &ball, ids, k);
    }
}
#[test]
fn all_duplicate_points_agree_across_paths() {
    let data = Dataset::from_rows(&[[1.5, -2.0]; 12]).unwrap();
    let scan = LinearScan::new(&data, Euclidean);
    assert_paths_agree("scan/dups", &scan, &data, 3);
    assert_paths_agree("kdtree/dups", &KdTree::new(&data, Euclidean), &data, 3);
    assert_paths_agree("balltree/dups", &BallTree::new(&data, Euclidean), &data, 3);
    assert_paths_agree("grid/dups", &GridIndex::new(&data, Euclidean), &data, 3);
    assert_paths_agree("vafile/dups", &VaFile::new(&data, Euclidean), &data, 3);
    assert_paths_agree("xtree/dups", &XTree::new(&data, Euclidean), &data, 3);
}

/// Regression: tie blocks straddling the k-th rank, spread across many
/// tree leaves. Each of the 8 grid "spokes" holds several points at the
/// exact same distance from every grid point, so definition 4 forces
/// oversized neighborhoods and the batched join must reproduce them —
/// and their distance bits — exactly.
#[test]
fn tie_blocks_survive_the_batched_join() {
    let mut rows: Vec<[f64; 2]> = Vec::new();
    // A 6x6 unit grid: axis-aligned neighbors all tie at distance 1,
    // diagonal neighbors at sqrt(2).
    for i in 0..36 {
        rows.push([(i % 6) as f64, (i / 6) as f64]);
    }
    // Four duplicate outliers: a 4-way tie block at distance 0.
    for _ in 0..4 {
        rows.push([40.0, 40.0]);
    }
    let data = Dataset::from_rows(&rows).unwrap();
    for k in [1, 2, 3, 4, 7] {
        assert_paths_agree("scan/ties", &LinearScan::new(&data, Euclidean), &data, k);
        assert_paths_agree("kdtree/ties", &KdTree::new(&data, Euclidean), &data, k);
        assert_paths_agree("balltree/ties", &BallTree::new(&data, Euclidean), &data, k);
        assert_paths_agree("xtree/ties", &XTree::new(&data, Euclidean), &data, k);
    }
}

/// The generic (kernel-less) group paths get their own deterministic
/// coverage: Manhattan routes the kd-tree and ball tree through the
/// per-query rect/ball prunes instead of the surrogate kernel.
#[test]
fn generic_metric_batches_are_bit_identical() {
    use lof_core::Manhattan;
    let mut rows: Vec<[f64; 3]> = Vec::new();
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for i in 0..120 {
        let offset = if i % 3 == 0 { 8.0 } else { 0.0 };
        rows.push([offset + next() * 2.0, next() * 2.0, (i % 4) as f64]);
    }
    let data = Dataset::from_rows(&rows).unwrap();
    let scan = LinearScan::new(&data, Manhattan);
    let kd = KdTree::new(&data, Manhattan);
    let ball = BallTree::new(&data, Manhattan);
    for k in [1, 5, 11] {
        // Batch vs per-id of the same provider (the generic group paths)...
        check_subrange("kdtree/manhattan", &kd, 0..data.len(), k);
        check_subrange("balltree/manhattan", &ball, 0..data.len(), k);
        // ...and per-id vs the brute-force scan under the same metric.
        for id in (0..data.len()).step_by(7) {
            let want = scan.k_nearest(id, k).unwrap();
            assert_bit_identical(
                &format!("kdtree/manhattan vs scan (id={id})"),
                &kd.k_nearest(id, k).unwrap(),
                &want,
            );
            assert_bit_identical(
                &format!("balltree/manhattan vs scan (id={id})"),
                &ball.k_nearest(id, k).unwrap(),
                &want,
            );
        }
    }
    check_subrange("kdtree/manhattan-sub", &kd, 17..83, 6);
    check_subrange("balltree/manhattan-sub", &ball, 17..83, 6);
    check_subrange("kdtree/manhattan-empty", &kd, 5..5, 6);
}

/// Thread counts of the parallel-materialization identity cases: serial,
/// even and odd splits, and more workers than most leaves have points.
const PARALLEL_THREADS: [usize; 4] = [1, 2, 3, 7];

/// Fisher–Yates shuffle of `rows` from a fixed LCG seed, so ids carry no
/// spatial order and every worker chunk cuts across every leaf.
fn shuffled<T>(mut rows: Vec<T>, seed: u64) -> Vec<T> {
    let mut state = seed;
    for i in (1..rows.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        rows.swap(i, (state >> 33) as usize % (i + 1));
    }
    rows
}

/// Asserts two tables hold the same neighborhoods: same ids, same
/// distance bits.
fn assert_tables_identical(label: &str, got: &NeighborhoodTable, want: &NeighborhoodTable) {
    assert_eq!(got.len(), want.len(), "{label}: table sizes diverge");
    for id in 0..want.len() {
        assert_bit_identical(
            &format!("{label} (id={id})"),
            got.full_neighborhood(id).unwrap(),
            want.full_neighborhood(id).unwrap(),
        );
    }
}

/// kd and ball `build_table_parallel` at every [`PARALLEL_THREADS`] count
/// must equal the serial build over the same tree and the brute-force
/// scan's table, bit for bit.
fn assert_parallel_tree_tables(name: &str, data: &Dataset, k: usize) {
    let want = NeighborhoodTable::build(&LinearScan::new(data, Euclidean), k).unwrap();
    let kd = KdTree::new(data, Euclidean);
    let ball = BallTree::new(data, Euclidean);
    for (tree, provider) in [("kd", &kd as &(dyn KnnProvider + Sync)), ("ball", &ball)] {
        let serial = NeighborhoodTable::build(provider, k).unwrap();
        assert_tables_identical(&format!("{name}/{tree} serial vs scan, k={k}"), &serial, &want);
        for threads in PARALLEL_THREADS {
            let par = build_table_parallel(provider, k, threads).unwrap();
            let label = format!("{name}/{tree} threads={threads} vs scan, k={k}");
            assert_tables_identical(&label, &par, &want);
        }
    }
}

#[test]
fn parallel_tree_tables_match_on_shuffled_ids() {
    let mut state = 0xD1B54A32D192ED03u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let rows: Vec<[f64; 3]> = (0..600)
        .map(|i| {
            let center = [0.0, 20.0, 45.0][i % 3];
            let spread = [1.0, 0.3, 4.0][i % 3];
            [center + spread * next(), center + spread * next(), spread * next()]
        })
        .collect();
    let data = Dataset::from_rows(&shuffled(rows, 7)).unwrap();
    for k in [1, 5, 20] {
        assert_parallel_tree_tables("shuffled", &data, k);
    }
}

#[test]
fn parallel_tree_tables_match_on_lattice_ties() {
    // A shuffled 8x8x8 unit lattice: interior points have 6 axis
    // neighbors tied at distance 1 and 12 diagonal ones at sqrt(2), so
    // k = 4 and k = 7 cut through tie groups.
    let rows: Vec<[f64; 3]> =
        (0..512).map(|i| [(i % 8) as f64, ((i / 8) % 8) as f64, (i / 64) as f64]).collect();
    let data = Dataset::from_rows(&shuffled(rows, 11)).unwrap();
    for k in [4, 7] {
        assert_parallel_tree_tables("lattice", &data, k);
    }
    #[cfg(feature = "obs")]
    {
        let mut scratch = KnnScratch::new();
        let (mut out, mut lens) = (Vec::new(), Vec::new());
        let kd = KdTree::new(&data, Euclidean);
        kd.batch_k_nearest(0..data.len(), 4, &mut scratch, &mut out, &mut lens).unwrap();
        assert!(lens.iter().any(|&len| len > 4), "lattice ties must reach past k");
        assert!(scratch.stats.compactions > 0, "the captures must compact");
    }
}

#[test]
fn parallel_tree_tables_match_with_an_oversized_leaf() {
    // 40 copies of one point exceed the kd leaf size (16) and cannot be
    // split, so they form one oversized leaf; each copy's neighborhood
    // holds all 39 others at distance 0, far past k.
    let mut rows: Vec<[f64; 2]> = vec![[3.0, -1.0]; 40];
    rows.extend((0..60).map(|i| [(i % 10) as f64 * 0.7, (i / 10) as f64 * 1.3 + 5.0]));
    let data = Dataset::from_rows(&shuffled(rows, 13)).unwrap();
    for k in [3, 16, 45] {
        assert_parallel_tree_tables("oversized-leaf", &data, k);
    }
}

#[test]
fn parallel_tree_tables_report_the_serial_error_when_k_reaches_n() {
    let rows: Vec<[f64; 2]> = (0..30).map(|i| [(i * 7 % 11) as f64, (i / 3) as f64]).collect();
    let data = Dataset::from_rows(&rows).unwrap();
    let kd = KdTree::new(&data, Euclidean);
    let ball = BallTree::new(&data, Euclidean);
    for k in [data.len(), data.len() + 5] {
        for (tree, provider) in [("kd", &kd as &(dyn KnnProvider + Sync)), ("ball", &ball)] {
            let want = NeighborhoodTable::build(provider, k).unwrap_err();
            for threads in PARALLEL_THREADS {
                let got = build_table_parallel(provider, k, threads).unwrap_err();
                assert_eq!(got, want, "{tree}: k={k} threads={threads}");
            }
        }
    }
}
