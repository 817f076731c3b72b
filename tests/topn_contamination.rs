//! Regression test for sprawl splitting under heavy outlier contamination.
//!
//! The fixture is `bench_topn`'s geometry at a small size: unit-spacing
//! lattice clusters scattered far apart plus uniform planted outliers,
//! with so many outliers that well over a tenth of the kd-tree leaves
//! hold one. Each such leaf spans the gap from its cluster to the
//! outlier. When the sprawl reference diameter was taken at the 90th
//! percentile of the leaf diameters, that percentile itself landed on a
//! sprawling leaf, no leaf counted as sprawling, and the engine pruned
//! nothing. The median reference keeps the split on. The ranking must
//! stay bit-identical to the full sweep either way.

use lof::data::rng::seeded;
use lof::{topn_reference, Dataset, Euclidean, KdTree, PartitionSource, TopNEngine};
use rand::RngExt;

const DIMS: usize = 4;
const CLUSTERS: usize = 16;
const OUTLIERS: usize = 60;
const POINTS: usize = 2_000;
const MIN_PTS: usize = 20;
const TOP: usize = 50;

/// `CLUSTERS` hypercubic unit lattices at random centers in
/// `[0, 1000)^DIMS`, filled in row-major order, then `OUTLIERS` uniform
/// points in the same box.
fn contaminated_lattice() -> Dataset {
    let mut rng = seeded(5);
    let mut data = Dataset::new(DIMS);
    let body = POINTS - OUTLIERS;
    for c in 0..CLUSTERS {
        let share = body / CLUSTERS + usize::from(c < body % CLUSTERS);
        let center: Vec<f64> = (0..DIMS).map(|_| rng.random_range(0.0..1000.0)).collect();
        let side = (share as f64).powf(1.0 / DIMS as f64).ceil() as usize;
        for i in 0..share {
            let mut rest = i;
            let row: Vec<f64> = center
                .iter()
                .map(|c| {
                    let offset = (rest % side) as f64;
                    rest /= side;
                    c + offset
                })
                .collect();
            data.push(&row).expect("finite lattice point");
        }
    }
    for _ in 0..OUTLIERS {
        let row: Vec<f64> = (0..DIMS).map(|_| rng.random_range(0.0..1000.0)).collect();
        data.push(&row).expect("finite outlier");
    }
    data
}

#[test]
fn contaminated_cover_still_prunes_and_stays_exact() {
    let data = contaminated_lattice();
    let tree = KdTree::new(&data, Euclidean);
    let partitions = tree.partitions();
    let want = topn_reference(&tree, MIN_PTS, TOP).expect("reference sweep");
    for threads in [1, 2] {
        let result = TopNEngine::new(MIN_PTS, TOP)
            .with_threads(threads)
            .run(&tree, &partitions)
            .expect("engine run");
        assert!(
            result.stats.partitions_pruned > 0,
            "{threads} threads: pruned none of {} partitions",
            result.stats.partitions
        );
        assert_eq!(result.ranking.len(), want.len());
        for (rank, (got, want)) in result.ranking.iter().zip(&want).enumerate() {
            assert_eq!(got.0, want.0, "{threads} threads: ids diverge at rank {rank}");
            assert_eq!(
                got.1.to_bits(),
                want.1.to_bits(),
                "{threads} threads: score bits diverge at rank {rank}"
            );
        }
    }
}
