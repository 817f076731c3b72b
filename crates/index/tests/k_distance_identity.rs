//! `KnnProvider::k_distances_into` asks a provider for k-distances alone,
//! a batch at a time. Top-n scoring relies on three identities, which
//! this suite checks bit for bit:
//!
//! * for every provider, the one-id query at `radius = +∞` (the per-id
//!   k-distance) is the last distance of `k_nearest_into(id, k)`
//!   (definition 3);
//! * for every provider, `within(id, k-distance)` is
//!   `k_nearest_into(id, k)`, entry for entry (definition 4: the
//!   k-distance neighborhood is the closed ball at the k-distance);
//! * on the kd and ball trees, which answer a batch with a finite radius
//!   from one candidate gather, every batch's answers equal the per-id
//!   k-distances: for leaf partitions, runs of consecutive ids, single
//!   ids and the whole dataset, at a radius exactly equal to the batch's
//!   largest k-distance, a looser one, `+∞`, and a broken promise below
//!   the largest k-distance; and a batch whose gather passes its cap
//!   (20·k candidates) falls back to per-id descents, counted once.
//!
//! Every metric `lof topn` offers is covered (Euclidean, Manhattan,
//! Chebyshev, Angular), plus squared Euclidean.
//! The fixtures are built to make all three fragile: lattice ties at
//! every k-distance, a duplicate pile larger than a kd-tree leaf, and
//! k = n - 1. `scripts/ci.sh` runs the suite natively and under
//! `LOF_FORCE_SCALAR=1`.

use lof_core::{
    Angular, Chebyshev, Dataset, Euclidean, KnnProvider, KnnScratch, LinearScan, Manhattan, Metric,
    PartitionSource, SquaredEuclidean,
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

const K_VALUES: [usize; 3] = [1, 4, 17];

/// `id`'s per-id k-distance: a one-id batch promising nothing.
fn per_id<P: KnnProvider>(provider: &P, id: usize, k: usize, scratch: &mut KnnScratch) -> f64 {
    let mut out = Vec::new();
    provider.k_distances_into(&[id], k, f64::INFINITY, scratch, &mut out).unwrap();
    assert_eq!(out.len(), 1);
    out[0]
}

fn check_provider<P: KnnProvider>(label: &str, provider: &P, n: usize) {
    let mut scratch = KnnScratch::new();
    let mut hood = Vec::new();
    for k in K_VALUES.into_iter().chain([n - 1]) {
        for id in 0..n {
            hood.clear();
            provider.k_nearest_into(id, k, &mut scratch, &mut hood).unwrap();
            let k_distance = per_id(provider, id, k, &mut scratch);
            let last = hood
                .last()
                .unwrap_or_else(|| panic!("{label}: empty neighborhood (id={id}, k={k})"))
                .dist;
            assert_eq!(
                k_distance.to_bits(),
                last.to_bits(),
                "{label}: k-distance(id={id}, k={k}) = {k_distance}, neighborhood ends at {last}"
            );
            let ball = provider.within(id, k_distance).unwrap();
            assert_eq!(
                ball, hood,
                "{label}: within(id={id}, k-distance) != k_nearest_into (k={k})"
            );
        }
    }
}

/// Batched k-distances equal the per-id ones, bit for bit, for every
/// batch shape and radius the module docs list.
fn check_batches<P: KnnProvider>(label: &str, provider: &P, n: usize, leaves: &[Vec<usize>]) {
    let mut scratch = KnnScratch::new();
    let mut out = Vec::new();
    let mut batches: Vec<Vec<usize>> = leaves.to_vec();
    batches.extend((0..n).map(|id| vec![id]));
    batches.extend((0..n).collect::<Vec<_>>().chunks(5).map(<[usize]>::to_vec));
    batches.push((0..n).collect());
    for k in K_VALUES.into_iter().chain([n - 1]) {
        let want: Vec<f64> = (0..n).map(|id| per_id(provider, id, k, &mut scratch)).collect();
        for batch in &batches {
            let largest = batch.iter().map(|&id| want[id]).fold(0.0, f64::max);
            for radius in [largest, 2.0 * largest + 1.0, f64::INFINITY, 0.5 * largest] {
                out.clear();
                provider.k_distances_into(batch, k, radius, &mut scratch, &mut out).unwrap();
                assert_eq!(out.len(), batch.len(), "{label}: batch {batch:?}");
                for (&id, got) in batch.iter().zip(&out) {
                    assert_eq!(
                        got.to_bits(),
                        want[id].to_bits(),
                        "{label}: id {id} in batch {batch:?} at k={k}, radius {radius}: \
                         {got} vs per-id {}",
                        want[id]
                    );
                }
            }
        }
    }
}

fn check_every_provider<M: Metric + Copy>(metric: M, metric_name: &str) {
    for (fixture, data) in [("lattice", lattice()), ("duplicate pile", duplicate_pile())] {
        let n = data.len();
        let at = |provider: &str| format!("{provider}/{metric_name}/{fixture}");
        check_provider(&at("scan"), &LinearScan::new(&data, metric), n);
        let kd = KdTree::new(&data, metric);
        let leaves: Vec<Vec<usize>> = kd.partitions().into_iter().map(|p| p.members).collect();
        check_provider(&at("kdtree"), &kd, n);
        check_batches(&at("kdtree"), &kd, n, &leaves);
        // Ball pruning needs the triangle inequality, which squared
        // Euclidean lacks. Angular keeps it even at the zero vector both
        // fixtures hold (π/2 to every nonzero vector).
        if metric.is_metric() {
            let ball = BallTree::new(&data, metric);
            let ball_leaves: Vec<Vec<usize>> =
                ball.partitions().into_iter().map(|p| p.members).collect();
            check_provider(&at("balltree"), &ball, n);
            check_batches(&at("balltree"), &ball, n, &leaves);
            check_batches(&at("balltree"), &ball, n, &ball_leaves);
        }
        check_provider(&at("grid"), &GridIndex::new(&data, metric), n);
        check_provider(&at("vafile"), &VaFile::new(&data, metric), n);
        check_provider(&at("xtree"), &XTree::new(&data, metric), n);
    }
}

/// At k = 1 the gather cap is 20 candidates, so the lattice's
/// whole-dataset batch (all 49 points within reach) passes it and every
/// id is answered by its own descent; at k = 4 (cap 80) the same batch
/// is answered from its gather. Both give the per-id bits, and only the
/// first is counted in `stats.gather_overflows`.
fn check_gather_cap<P: KnnProvider>(label: &str, provider: &P, n: usize) {
    let mut scratch = KnnScratch::new();
    let all: Vec<usize> = (0..n).collect();
    let mut out = Vec::new();
    for (k, overflows) in [(1, 1), (4, 0)] {
        let want: Vec<f64> = all.iter().map(|&id| per_id(provider, id, k, &mut scratch)).collect();
        let largest = want.iter().copied().fold(0.0, f64::max);
        scratch.stats.reset();
        out.clear();
        provider.k_distances_into(&all, k, largest, &mut scratch, &mut out).unwrap();
        assert_eq!(scratch.stats.gather_overflows, overflows, "{label}: overflows at k={k}");
        let got: Vec<u64> = out.iter().map(|d| d.to_bits()).collect();
        let want: Vec<u64> = want.iter().map(|d| d.to_bits()).collect();
        assert_eq!(got, want, "{label}: batch vs per-id at k={k}");
    }
}

#[test]
fn gathers_past_the_cap_fall_back_to_per_id_descents() {
    let data = lattice();
    let n = data.len();
    check_gather_cap("kdtree", &KdTree::new(&data, Euclidean), n);
    check_gather_cap("balltree", &BallTree::new(&data, Euclidean), n);
    check_gather_cap("kdtree/manhattan", &KdTree::new(&data, Manhattan), n);
}

#[test]
fn k_distances_agree_with_k_nearest_into_under_euclidean() {
    check_every_provider(Euclidean, "euclidean");
}

#[test]
fn k_distances_agree_with_k_nearest_into_under_squared_euclidean() {
    check_every_provider(SquaredEuclidean, "squared-euclidean");
}

#[test]
fn k_distances_agree_with_k_nearest_into_under_manhattan() {
    check_every_provider(Manhattan, "manhattan");
}

#[test]
fn k_distances_agree_with_k_nearest_into_under_chebyshev() {
    check_every_provider(Chebyshev, "chebyshev");
}

#[test]
fn k_distances_agree_with_k_nearest_into_under_angular() {
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
