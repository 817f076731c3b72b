//! Parallel step 1 through the tree joins, checked by the root test
//! suite: `build_table_parallel` over a kd-tree or a ball tree must equal
//! the serial linear-scan table bit for bit, on shuffled ids with
//! distance ties and an oversized duplicate leaf, at thread counts below,
//! at and above the core count, and with more threads than leaf groups,
//! under whatever SIMD target the process dispatches to
//! (`LOF_FORCE_SCALAR=1` / `LOF_SIMD=sse2` rerun it). The joins' raw
//! output — `materialize` and `batch_k_nearest` over id ranges — must
//! equal the scan's on lattice tie shells, duplicate piles larger than a
//! leaf, a cluster far from the origin, and `k` from below the leaf size
//! up to `n - 1`, under every metric each tree takes.

use lof::core::{build_table_parallel, KnnScratch, Metric, Neighbor, SquaredEuclidean};
use lof::{
    BallTree, Dataset, Euclidean, KdTree, KnnProvider, LinearScan, Manhattan, NeighborhoodTable,
};

const THREADS: [usize; 4] = [1, 2, 3, 7];

/// 400 shuffled points in 4-d: a continuous cluster, a unit lattice
/// (distance ties straddling the k-th rank) and more duplicates than a
/// tree leaf holds.
fn mixed_fixture() -> Dataset {
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 11
    };
    let mut unit = || next() as f64 / (1u64 << 53) as f64;
    let mut rows: Vec<[f64; 4]> = (0..400)
        .map(|i| match i % 4 {
            0 | 1 => [unit() * 3.0, unit() * 3.0, unit(), 1.0],
            2 => [(i % 5) as f64 + 20.0, ((i / 5) % 5) as f64, ((i / 25) % 4) as f64, 0.0],
            _ => [-9.0; 4],
        })
        .collect();
    // Shuffle so every leaf holds ids from all over the id range.
    for i in (1..rows.len()).rev() {
        rows.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    Dataset::from_rows(&rows).unwrap()
}

/// Asserts that `tree`'s parallel table equals the serial scan table,
/// ids and distance bits, for every `k` and thread count.
fn assert_matches_scan<P: KnnProvider + Sync>(label: &str, tree: &P, data: &Dataset, ks: &[usize]) {
    for &k in ks {
        let want = NeighborhoodTable::build(&LinearScan::new(data, Euclidean), k).unwrap();
        for threads in THREADS {
            let got = build_table_parallel(tree, k, threads).unwrap();
            assert_eq!(got.stored_entries(), want.stored_entries(), "{label} k={k} t={threads}");
            for id in 0..data.len() {
                let (g, w) =
                    (got.full_neighborhood(id).unwrap(), want.full_neighborhood(id).unwrap());
                assert_eq!(g.len(), w.len(), "{label} k={k} threads={threads} id={id}: sizes");
                for (a, b) in g.iter().zip(w) {
                    assert_eq!(a.id, b.id, "{label} k={k} threads={threads} id={id}: ids");
                    assert_eq!(
                        a.dist.to_bits(),
                        b.dist.to_bits(),
                        "{label} k={k} threads={threads} id={id}"
                    );
                }
            }
        }
    }
}

#[test]
fn parallel_kd_table_equals_the_serial_scan_table() {
    let data = mixed_fixture();
    assert_matches_scan("kd", &KdTree::new(&data, Euclidean), &data, &[4, 12]);
}

#[test]
fn parallel_ball_table_equals_the_serial_scan_table() {
    let data = mixed_fixture();
    assert_matches_scan("ball", &BallTree::new(&data, Euclidean), &data, &[4, 12]);
}

#[test]
fn more_threads_than_leaf_groups_still_match() {
    // 14 points fit one leaf of either tree: one leaf group, 7 threads.
    let rows: Vec<[f64; 2]> =
        (0..14).map(|i| [(i % 4) as f64, ((i * 7) % 5) as f64 * 0.5]).collect();
    let data = Dataset::from_rows(&rows).unwrap();
    let kd = KdTree::new(&data, Euclidean);
    assert_eq!(kd.node_count(), 1, "the fixture must be a single leaf");
    assert_matches_scan("kd/one leaf", &kd, &data, &[1, 3, 13]);
    assert_matches_scan("ball/one leaf", &BallTree::new(&data, Euclidean), &data, &[1, 3, 13]);
    // No leaf at all: an empty tree materializes nothing, like a scan.
    let empty = Dataset::new(2);
    assert_eq!(KdTree::new(&empty, Euclidean).materialize(3, 7).unwrap(), (vec![], vec![]));
    assert_eq!(BallTree::new(&empty, Euclidean).materialize(3, 7).unwrap(), (vec![], vec![]));
    assert_eq!(LinearScan::new(&empty, Euclidean).materialize(3, 7).unwrap(), (vec![], vec![]));
}

/// Shuffles rows with a fixed LCG so every leaf holds ids from all over
/// the id range.
fn shuffled_rows<const D: usize>(mut rows: Vec<[f64; D]>, seed: u64) -> Dataset {
    let mut state = seed;
    for i in (1..rows.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        rows.swap(i, ((state >> 11) % (i as u64 + 1)) as usize);
    }
    Dataset::from_rows(&rows).unwrap()
}

/// The join fixtures: a 6×6×6 unit lattice (tie shells at every rank); two
/// duplicate piles of 40 and 20 points, both larger than a leaf, among a
/// few scattered points; a cluster near `(1e8, -1e8, 1e8)` with
/// millimetre spacing plus two points a unit away; and the origin with 40
/// points on the unit circle, whose squared distances to it round to
/// three values of which two have the square root 1 — a tie the emitted
/// distance has and the squared one does not.
fn join_fixtures() -> Vec<(&'static str, Dataset)> {
    let lattice: Vec<[f64; 3]> =
        (0..216).map(|i| [(i % 6) as f64, ((i / 6) % 6) as f64, (i / 36) as f64]).collect();
    let mut piles: Vec<[f64; 3]> = vec![[2.0, 2.0, 2.0]; 40];
    piles.extend(std::iter::repeat_n([-3.0, 0.5, 1.0], 20));
    piles.extend((0..30).map(|i| [(i % 5) as f64 * 1.5, (i / 5) as f64 * 0.7, 4.0]));
    let mut far: Vec<[f64; 3]> = (0..80)
        .map(|i| {
            let t = i as f64 * 1e-3;
            [1e8 + t, -1e8 + (i % 7) as f64 * 1e-3, 1e8 - t * 0.5]
        })
        .collect();
    far.push([1e8 + 1.0, -1e8, 1e8]);
    far.push([1e8, -1e8 - 1.0, 1e8]);
    let mut circle: Vec<[f64; 3]> = (0..40)
        .map(|i| {
            let angle = std::f64::consts::TAU * i as f64 / 40.0;
            [angle.cos(), angle.sin(), 0.0]
        })
        .collect();
    circle.push([0.0; 3]);
    let at_one: std::collections::BTreeSet<u64> = circle
        .iter()
        .map(|p| lof::core::distance::squared_euclidean(&[0.0; 3], p))
        .filter(|sq| sq.sqrt() == 1.0)
        .map(f64::to_bits)
        .collect();
    assert!(at_one.len() > 1, "the circle must tie at 1 across distinct squared distances");
    vec![
        ("lattice", shuffled_rows(lattice, 3)),
        ("piles", shuffled_rows(piles, 5)),
        ("far", shuffled_rows(far, 9)),
        ("circle", shuffled_rows(circle, 15)),
    ]
}

/// The neighborhoods as `(id, distance bits)` lists.
fn lists(out: &[Neighbor], lens: &[usize]) -> Vec<Vec<(usize, u64)>> {
    let mut at = 0;
    lens.iter()
        .map(|&len| {
            at += len;
            out[at - len..at].iter().map(|n| (n.id, n.dist.to_bits())).collect()
        })
        .collect()
}

/// Asserts that `tree`'s `materialize` at 1, 2 and 4 threads, and its
/// `batch_k_nearest` over three id ranges, equal the scan's
/// neighborhoods bit for bit.
fn assert_join_matches_scan<M: Metric + Clone, P: KnnProvider + Sync>(
    label: &str,
    tree: &P,
    data: &Dataset,
    metric: M,
    k: usize,
) {
    let (out, lens) = LinearScan::new(data, metric).materialize(k, 1).unwrap();
    let want = lists(&out, &lens);
    for threads in [1, 2, 4] {
        let (out, lens) = tree.materialize(k, threads).unwrap();
        assert_eq!(lists(&out, &lens), want, "{label} k={k} materialize threads={threads}");
    }
    let n = data.len();
    let mut scratch = KnnScratch::new();
    for range in [0..n, n / 3..n / 3 + 17, n - 5..n] {
        let (mut out, mut lens) = (Vec::new(), Vec::new());
        tree.batch_k_nearest(range.clone(), k, &mut scratch, &mut out, &mut lens).unwrap();
        assert_eq!(lists(&out, &lens), want[range.clone()], "{label} k={k} batch {range:?}");
    }
}

#[test]
fn tree_joins_equal_the_scan_bit_for_bit() {
    for (name, data) in join_fixtures() {
        let n = data.len();
        for k in [4, 16, 23, n - 1] {
            let label = format!("{name}/kd/euclidean");
            assert_join_matches_scan(&label, &KdTree::new(&data, Euclidean), &data, Euclidean, k);
            let label = format!("{name}/kd/squared");
            let tree = KdTree::new(&data, SquaredEuclidean);
            assert_join_matches_scan(&label, &tree, &data, SquaredEuclidean, k);
            let label = format!("{name}/kd/manhattan");
            assert_join_matches_scan(&label, &KdTree::new(&data, Manhattan), &data, Manhattan, k);
            let label = format!("{name}/ball/euclidean");
            let tree = BallTree::new(&data, Euclidean);
            assert_join_matches_scan(&label, &tree, &data, Euclidean, k);
            let label = format!("{name}/ball/manhattan");
            assert_join_matches_scan(&label, &BallTree::new(&data, Manhattan), &data, Manhattan, k);
        }
    }
}
