//! The top-n engine seeds θ by scoring the members of the most isolated
//! partitions first. This fixture makes isolation point the wrong way:
//! a sparse but uniform lattice of more than `2n` points (every member
//! far from every other, LOF ≈ 1) holds the most isolated partitions,
//! while fewer than `n` planted outliers sit a few units off a dense
//! lattice, less isolated than any sparse member but scoring far higher.
//! The seed then scores only inliers and θ starts low; the ranking must
//! still be bit-identical to the sorted full sweep at every thread count
//! and on kd and ball covers. The loose envelopes near the outliers also
//! push some partitions' k-distance gathers past their cap, so the
//! per-id fallback is part of what the ranking is checked through.

use lof::{
    topn_reference, BallTree, Dataset, Euclidean, KdTree, Partition, PartitionSource, TopNEngine,
};

const MIN_PTS: usize = 5;
const TOP: usize = 10;
/// Spacing of the sparse lattice: far above the planted outliers' gap
/// to the dense lattice.
const SPARSE_SPACING: f64 = 40.0;

/// A 20x20 unit lattice, a 6x6 lattice at [`SPARSE_SPACING`] far away,
/// and four outliers about 7 units off the unit lattice's sides.
/// Returns the data and the outliers' ids.
fn misleading_isolation() -> (Dataset, Vec<usize>) {
    let mut rows: Vec<[f64; 2]> = Vec::new();
    for y in 0..20 {
        for x in 0..20 {
            rows.push([x as f64, y as f64]);
        }
    }
    for y in 0..6 {
        for x in 0..6 {
            rows.push([1000.0 + SPARSE_SPACING * x as f64, 1000.0 + SPARSE_SPACING * y as f64]);
        }
    }
    let first_outlier = rows.len();
    rows.extend([[-7.0, 5.5], [26.0, 10.5], [10.5, -8.0], [8.5, 26.0]]);
    let outliers = (first_outlier..rows.len()).collect();
    (Dataset::from_rows(&rows).expect("finite rows"), outliers)
}

fn check_cover(label: &str, tree: &KdTree<'_, Euclidean>, parts: &[Partition], outliers: &[usize]) {
    let want = topn_reference(tree, MIN_PTS, TOP).expect("reference sweep");
    assert!(outliers.len() < TOP, "fewer than n planted outliers");
    for &id in outliers {
        assert!(want.iter().any(|&(top, _)| top == id), "{label}: outlier {id} must rank");
    }
    let weakest_outlier = want
        .iter()
        .filter(|(id, _)| outliers.contains(id))
        .map(|&(_, score)| score)
        .fold(f64::INFINITY, f64::min);
    for threads in [1usize, 2, 4] {
        let got = TopNEngine::new(MIN_PTS, TOP)
            .with_threads(threads)
            .run_with_metric(tree, &Euclidean, parts)
            .expect("engine run");
        assert_eq!(got.ranking.len(), want.len(), "{label} threads={threads}");
        for (rank, (g, w)) in got.ranking.iter().zip(&want).enumerate() {
            assert_eq!(g.0, w.0, "{label} threads={threads}: id at rank {rank}");
            assert_eq!(g.1.to_bits(), w.1.to_bits(), "{label} threads={threads}: rank {rank}");
        }
        // The seed was misled: it scored its 2n objects and found no
        // planted outlier, so its θ sits below every one of them.
        assert!(got.stats.seed_objects >= 2 * TOP as u64, "{label}: {:?}", got.stats);
        assert!(got.stats.k_distance_gather_overflows > 0, "{label}: {:?}", got.stats);
        assert!(
            got.seed_theta < weakest_outlier && got.seed_theta <= got.threshold,
            "{label} threads={threads}: seed θ {} vs weakest outlier {weakest_outlier}",
            got.seed_theta
        );
    }
}

#[test]
fn misleading_isolation_still_ranks_exactly_at_any_thread_count() {
    let (data, outliers) = misleading_isolation();
    let tree = KdTree::new(&data, Euclidean);
    check_cover("kd cover", &tree, &tree.partitions(), &outliers);
    let ball = BallTree::new(&data, Euclidean);
    check_cover("ball cover", &tree, &ball.partitions(), &outliers);
}
