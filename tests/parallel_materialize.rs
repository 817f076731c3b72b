//! Parallel step 1 through the tree joins, checked by the root test
//! suite: `build_table_parallel` over a kd-tree or a ball tree must equal
//! the serial linear-scan table bit for bit, on shuffled ids with
//! distance ties and an oversized duplicate leaf, at thread counts below,
//! at and above the core count, and with more threads than leaf groups,
//! under whatever SIMD target the process dispatches to
//! (`LOF_FORCE_SCALAR=1` / `LOF_SIMD=sse2` rerun it).

use lof::core::build_table_parallel;
use lof::{BallTree, Dataset, Euclidean, KdTree, KnnProvider, LinearScan, NeighborhoodTable};

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
