//! `KnnProvider::k_distance_into` asks a provider for the k-distance
//! alone. Top-n refinement relies on two identities for every provider,
//! which this suite checks bit for bit:
//!
//! * `k_distance_into(id, k)` is the last distance of
//!   `k_nearest_into(id, k)` (definition 3);
//! * `within(id, k_distance_into(id, k))` is `k_nearest_into(id, k)`,
//!   entry for entry (definition 4: the k-distance neighborhood is the
//!   closed ball at the k-distance).
//!
//! Every metric `lof topn` offers is covered (Euclidean, Manhattan,
//! Chebyshev, Angular), plus squared Euclidean.
//! The fixtures are built to make both fragile: lattice ties at every
//! k-distance, a duplicate pile larger than a kd-tree leaf, and k = n - 1.
//! `scripts/ci.sh` runs the suite natively and under `LOF_FORCE_SCALAR=1`.

use lof_core::{
    Angular, Chebyshev, Dataset, Euclidean, KnnProvider, KnnScratch, LinearScan, Manhattan, Metric,
    SquaredEuclidean,
};
use lof_index::{BallTree, GridIndex, KdTree, VaFile, XTree};

/// A 7x7 unit lattice: every interior point has 4 neighbors at 1, 4 at
/// √2, 4 at 2, so most k-distances are shared by several ids.
fn lattice() -> Dataset {
    let rows: Vec<[f64; 2]> = (0..49).map(|i| [(i % 7) as f64, (i / 7) as f64]).collect();
    Dataset::from_rows(&rows).expect("finite rows")
}

/// 40 copies of one point (more than a kd-tree leaf holds) among a
/// sparse 3-d lattice, plus a few stragglers.
fn duplicate_pile() -> Dataset {
    let mut rows: Vec<[f64; 3]> = vec![[2.0, 2.0, 2.0]; 40];
    for i in 0..27 {
        rows.push([(i % 3) as f64 * 2.0, (i / 3 % 3) as f64 * 2.0, (i / 9) as f64 * 2.0]);
    }
    rows.extend([[9.0, 0.5, 4.0], [-3.0, 7.0, 1.0], [2.0, 2.0, 2.5]]);
    Dataset::from_rows(&rows).expect("finite rows")
}

fn check_provider<P: KnnProvider>(label: &str, provider: &P, n: usize) {
    let mut scratch = KnnScratch::new();
    let mut hood = Vec::new();
    for k in [1, 4, 17, n - 1] {
        for id in 0..n {
            hood.clear();
            provider.k_nearest_into(id, k, &mut scratch, &mut hood).unwrap();
            let k_distance = provider.k_distance_into(id, k, &mut scratch).unwrap();
            let last = hood
                .last()
                .unwrap_or_else(|| panic!("{label}: empty neighborhood (id={id}, k={k})"))
                .dist;
            assert_eq!(
                k_distance.to_bits(),
                last.to_bits(),
                "{label}: k_distance_into(id={id}, k={k}) = {k_distance}, neighborhood ends at {last}"
            );
            let ball = provider.within(id, k_distance).unwrap();
            assert_eq!(
                ball, hood,
                "{label}: within(id={id}, k-distance) != k_nearest_into (k={k})"
            );
        }
    }
}

fn check_every_provider<M: Metric + Copy>(metric: M, metric_name: &str) {
    for (fixture, data) in [("lattice", lattice()), ("duplicate pile", duplicate_pile())] {
        let n = data.len();
        let at = |provider: &str| format!("{provider}/{metric_name}/{fixture}");
        check_provider(&at("scan"), &LinearScan::new(&data, metric), n);
        check_provider(&at("kdtree"), &KdTree::new(&data, metric), n);
        // Ball pruning needs the triangle inequality, which squared
        // Euclidean lacks. Angular keeps it even at the zero vector both
        // fixtures hold (π/2 to every nonzero vector).
        if metric.is_metric() {
            check_provider(&at("balltree"), &BallTree::new(&data, metric), n);
        }
        check_provider(&at("grid"), &GridIndex::new(&data, metric), n);
        check_provider(&at("vafile"), &VaFile::new(&data, metric), n);
        check_provider(&at("xtree"), &XTree::new(&data, metric), n);
    }
}

#[test]
fn k_distance_into_agrees_with_k_nearest_into_under_euclidean() {
    check_every_provider(Euclidean, "euclidean");
}

#[test]
fn k_distance_into_agrees_with_k_nearest_into_under_squared_euclidean() {
    check_every_provider(SquaredEuclidean, "squared-euclidean");
}

#[test]
fn k_distance_into_agrees_with_k_nearest_into_under_manhattan() {
    check_every_provider(Manhattan, "manhattan");
}

#[test]
fn k_distance_into_agrees_with_k_nearest_into_under_chebyshev() {
    check_every_provider(Chebyshev, "chebyshev");
}

#[test]
fn k_distance_into_agrees_with_k_nearest_into_under_angular() {
    check_every_provider(Angular, "angular");
}

#[test]
fn free_k_distance_routes_through_the_provider() {
    let data = duplicate_pile();
    let tree = KdTree::new(&data, Euclidean);
    for id in [0, 39, 40, data.len() - 1] {
        for k in [1, 20, data.len() - 1] {
            let want = tree.k_nearest(id, k).unwrap().last().unwrap().dist;
            let got = lof_core::kdistance::k_distance(&tree, id, k).unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "id={id} k={k}");
        }
    }
    assert!(lof_core::kdistance::k_distance(&tree, 0, 0).is_err());
    assert!(lof_core::kdistance::k_distance(&tree, 0, data.len()).is_err());
    assert!(lof_core::kdistance::k_distance(&tree, data.len(), 1).is_err());
}
