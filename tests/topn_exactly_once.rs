//! The top-n engine's seed and refinement workers share one store and
//! ask each object only for what LOF reads of it: per engine run, at any
//! thread count, every object's k-distance is answered at most once (in
//! one batched query per partition) and every object gets at most one
//! range pass, objects whose neighborhoods are never read get no range
//! pass at all, and the ranking stays bit-identical to the sorted full
//! sweep.

use std::sync::atomic::{AtomicU32, Ordering};

use lof::core::knn::KnnScratch;
use lof::{
    topn_reference, Dataset, Euclidean, KdTree, KnnProvider, Neighbor, PartitionSource, TopNEngine,
};

/// A [`KdTree`] that counts, per object id, the k-distances
/// (`k_distances_into`, `k_nearest_into`) and range passes (`within`,
/// `k_nearest_into`) it answers, and forwards the batched hook to the
/// tree so the engine runs its real gather.
struct CountingTree<'a> {
    tree: &'a KdTree<'a, Euclidean>,
    k_distances: Vec<AtomicU32>,
    range_passes: Vec<AtomicU32>,
    batches: AtomicU32,
}

impl<'a> CountingTree<'a> {
    fn new(tree: &'a KdTree<'a, Euclidean>) -> Self {
        let counters = || (0..tree.len()).map(|_| AtomicU32::new(0)).collect();
        CountingTree {
            tree,
            k_distances: counters(),
            range_passes: counters(),
            batches: AtomicU32::new(0),
        }
    }
}

fn load(counter: &AtomicU32) -> u32 {
    counter.load(Ordering::Relaxed)
}

fn total(counters: &[AtomicU32]) -> u64 {
    counters.iter().map(|c| u64::from(load(c))).sum()
}

impl KnnProvider for CountingTree<'_> {
    fn len(&self) -> usize {
        self.tree.len()
    }

    fn k_nearest(&self, id: usize, k: usize) -> lof::core::Result<Vec<Neighbor>> {
        self.tree.k_nearest(id, k)
    }

    fn k_nearest_into(
        &self,
        id: usize,
        k: usize,
        scratch: &mut KnnScratch,
        out: &mut Vec<Neighbor>,
    ) -> lof::core::Result<usize> {
        self.k_distances[id].fetch_add(1, Ordering::Relaxed);
        self.range_passes[id].fetch_add(1, Ordering::Relaxed);
        self.tree.k_nearest_into(id, k, scratch, out)
    }

    fn k_distances_into(
        &self,
        ids: &[usize],
        k: usize,
        radius: f64,
        scratch: &mut KnnScratch,
        out: &mut Vec<f64>,
    ) -> lof::core::Result<()> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        for &id in ids {
            self.k_distances[id].fetch_add(1, Ordering::Relaxed);
        }
        self.tree.k_distances_into(ids, k, radius, scratch, out)
    }

    fn within(&self, id: usize, radius: f64) -> lof::core::Result<Vec<Neighbor>> {
        self.range_passes[id].fetch_add(1, Ordering::Relaxed);
        self.tree.within(id, radius)
    }
}

/// 16 unit-spacing 4-d lattice clusters placed at random in
/// `[0, 1000)^4`, plus 60 planted outliers, from a fixed LCG: 3,000
/// points on which the kd-tree cover gets sprawl-split singletons and the
/// partition envelopes prune most of it.
fn lattice_with_outliers() -> Dataset {
    const CLUSTERS: usize = 16;
    const OUTLIERS: usize = 60;
    const POINTS: usize = 3_000;
    let mut state = 2u64;
    let mut coord = move || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        ((state >> 11) as f64 / (1u64 << 53) as f64 * 1000.0 * 64.0).round() / 64.0
    };
    let body = POINTS - OUTLIERS;
    let mut rows: Vec<[f64; 4]> = Vec::with_capacity(POINTS);
    for c in 0..CLUSTERS {
        let share = body / CLUSTERS + usize::from(c < body % CLUSTERS);
        let center: [f64; 4] = std::array::from_fn(|_| coord());
        let side = (share as f64).powf(0.25).ceil() as usize;
        let half = (side / 2) as f64;
        for i in 0..share {
            let mut rest = i;
            rows.push(std::array::from_fn(|d| {
                let offset = (rest % side) as f64 - half;
                rest /= side;
                center[d] + offset
            }));
        }
    }
    for _ in 0..OUTLIERS {
        rows.push(std::array::from_fn(|_| coord()));
    }
    Dataset::from_rows(&rows).expect("finite rows")
}

#[test]
fn refine_queries_each_neighborhood_at_most_once_at_any_thread_count() {
    const MIN_PTS: usize = 20;
    const TOP: usize = 30;
    let data = lattice_with_outliers();
    let tree = KdTree::new(&data, Euclidean);
    let parts = tree.partitions();
    let want = topn_reference(&tree, MIN_PTS, TOP).unwrap();

    for threads in [1usize, 2, 4] {
        let counting = CountingTree::new(&tree);
        let got = TopNEngine::new(MIN_PTS, TOP)
            .with_threads(threads)
            .run_with_metric(&counting, &Euclidean, &parts)
            .unwrap();
        assert_eq!(got.ranking.len(), want.len(), "threads={threads}");
        for (rank, (g, w)) in got.ranking.iter().zip(&want).enumerate() {
            assert_eq!(g.0, w.0, "threads={threads}: id at rank {rank}");
            assert_eq!(g.1.to_bits(), w.1.to_bits(), "threads={threads}: score at rank {rank}");
        }
        assert!(
            got.stats.partitions_pruned > got.stats.partitions / 2
                && got.stats.objects_refined < data.len() as u64 / 10,
            "the fixture must prune: {:?}",
            got.stats
        );
        for id in 0..data.len() {
            let (k_distances, ranges) =
                (load(&counting.k_distances[id]), load(&counting.range_passes[id]));
            assert!(
                k_distances <= 1,
                "threads={threads}: object {id}'s k-distance was answered {k_distances} times"
            );
            assert!(ranges <= 1, "threads={threads}: object {id} got {ranges} range passes");
            assert!(
                ranges <= k_distances,
                "threads={threads}: object {id} ranged before its k-distance was known"
            );
        }
        let (k_distances, ranges) = (total(&counting.k_distances), total(&counting.range_passes));
        assert_eq!(got.stats.k_distances, k_distances, "threads={threads}");
        assert_eq!(got.stats.range_passes, ranges, "threads={threads}");
        assert_eq!(
            got.stats.k_distance_batches,
            u64::from(load(&counting.batches)),
            "threads={threads}"
        );
        assert!(
            got.stats.k_distance_batches < k_distances,
            "threads={threads}: k-distances must come a partition at a time: {:?}",
            got.stats
        );
        assert!(
            ranges > 0 && ranges < k_distances,
            "threads={threads}: some touched objects must skip their range pass \
             ({k_distances} k-distances, {ranges} range passes)"
        );
    }
}
