//! Ground-truth tests for the batched join's observability counters
//! (obs builds only). On a single-leaf tree the join must evaluate, and
//! capture, exactly the naive scan's candidates; duplicate fixtures must
//! yield neighborhoods longer than k straight from the captures, and
//! tie-free data none; parallel materialization must keep the kd join's
//! leaf groups whole, and a spilled sweep must publish the waves it runs.
#![cfg(feature = "obs")]

use lof_core::knn::KnnScratch;
use lof_core::{
    build_table_parallel, Aggregate, Dataset, Euclidean, KernelStats, KnnProvider, LinearScan,
    MinPtsRange, SpilledNeighborhoodTable,
};
use lof_index::{BallTree, KdTree};

/// Runs the leaf-grouped batch join over every id, returning the
/// accumulated scratch counters and the neighborhood lengths.
fn join_stats<P: KnnProvider>(provider: &P, n: usize, k: usize) -> (KernelStats, Vec<usize>) {
    let mut scratch = KnnScratch::new();
    let mut out = Vec::new();
    let mut lens = Vec::new();
    provider.batch_k_nearest(0..n, k, &mut scratch, &mut out, &mut lens).unwrap();
    assert_eq!(lens.len(), n);
    (scratch.stats, lens)
}

/// Tie-free points: consecutive pairwise distances are all distinct, so
/// no candidate lost at a k-distance can tie it.
fn spread_dataset(n: usize) -> Dataset {
    let rows: Vec<[f64; 2]> = (0..n).map(|i| [i as f64 * 1.37, (i * i) as f64 * 0.093]).collect();
    Dataset::from_rows(&rows).unwrap()
}

#[test]
fn single_leaf_join_counts_equal_the_naive_scan() {
    // n = 12 <= LEAF_SIZE: the whole tree is one leaf and one group. Each
    // query evaluates the leaf as one run of n lanes (itself included)
    // and captures the n - 1 others before its bound exists — exactly a
    // naive scan's n·(n−1) candidates — and the run leaves its buffer
    // past 2k, so each query compacts once.
    let (n, k) = (12, 3);
    let data = spread_dataset(n);
    for (name, (stats, lens)) in [
        ("kdtree", join_stats(&KdTree::new(&data, Euclidean), n, k)),
        ("balltree", join_stats(&BallTree::new(&data, Euclidean), n, k)),
    ] {
        assert_eq!(stats.join_groups, 1, "{name}: one leaf, one group");
        assert_eq!(stats.tile_pairs, (n * n) as u64, "{name}: one n-lane run per query");
        assert_eq!(stats.captures, (n * (n - 1)) as u64, "{name}: captures == naive scan");
        assert_eq!(stats.compactions, n as u64, "{name}: one compaction per query");
        assert!(lens.iter().all(|&len| len == k), "{name}: tie-free data, k each");
    }
}

/// Deterministic uniform and normal draws from a 64-bit LCG.
struct Lcg(u64);

impl Lcg {
    /// Uniform in `(0, 1)`.
    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Standard normal (Box–Muller).
    fn normal(&mut self) -> f64 {
        (-2.0 * self.unit().ln()).sqrt() * (std::f64::consts::TAU * self.unit()).cos()
    }
}

/// The geometry of the `batch` benchmark workload: 2,000 points at d=8,
/// four Gaussian clusters at `25·e_i` with standard deviations 1, 0.5, 2
/// and 0.25 plus 1% uniform outliers, with the ids shuffled so they carry
/// no spatial order.
fn shuffled_density_mixture() -> Dataset {
    const N: usize = 2_000;
    const DIMS: usize = 8;
    let mut rng = Lcg(0x5DEECE66D);
    let mut rows: Vec<[f64; DIMS]> = Vec::with_capacity(N);
    let inliers = N - N / 100;
    for (i, (share, std)) in [(0.4, 1.0), (0.3, 0.5), (0.2, 2.0), (0.1, 0.25)].iter().enumerate() {
        let size = if i == 3 { inliers - rows.len() } else { (inliers as f64 * share) as usize };
        for _ in 0..size {
            rows.push(std::array::from_fn(
                |j| if j == i { 25.0 } else { 0.0 } + std * rng.normal(),
            ));
        }
    }
    while rows.len() < N {
        rows.push(std::array::from_fn(|_| -15.0 + 55.0 * rng.unit()));
    }
    for i in (1..N).rev() {
        let j = (rng.unit() * (i + 1) as f64) as usize;
        rows.swap(i, j);
    }
    Dataset::from_rows(&rows).unwrap()
}

#[test]
fn parallel_materialization_keeps_leaf_groups_whole() {
    // Regression: the tree joins' workers claim whole leaf groups, so
    // each leaf forms exactly one group — one traversal — at any thread
    // count. A split by id chunk (each worker one `batch_k_nearest` call)
    // formed up to one group per leaf per worker on shuffled ids, and
    // 64-id batches about one per object. The global counter is read
    // before and after: no other test in this binary publishes to it.
    let data = shuffled_density_mixture();
    let tree = KdTree::new(&data, Euclidean);
    // Every internal node has two children, so a binary tree with `m`
    // nodes has `(m + 1) / 2` leaves.
    let leaves = (tree.node_count() as u64).div_ceil(2);
    let groups = lof_obs::global().counter("core.join.groups");
    for threads in [2, 3] {
        let before = groups.value();
        let table = build_table_parallel(&tree, 30, threads).unwrap();
        let formed = groups.value() - before;
        assert_eq!(table.len(), data.len());
        assert_eq!(formed, leaves, "{threads} workers over {leaves} leaves formed {formed} groups");
    }
}

#[test]
fn duplicate_fixtures_capture_neighborhoods_longer_than_k() {
    // Fixture 1 (from batch_consistency): all points identical — every
    // neighborhood holds all n - 1 others at distance zero.
    let dups = Dataset::from_rows(&[[1.5, -2.0]; 12]).unwrap();
    // Fixture 2: the 6x6 unit grid plus a 4-way duplicate block — tie
    // groups straddle the k-th rank across many leaves.
    let mut rows: Vec<[f64; 2]> = Vec::new();
    for i in 0..36 {
        rows.push([(i % 6) as f64, (i / 6) as f64]);
    }
    for _ in 0..4 {
        rows.push([40.0, 40.0]);
    }
    let grid = Dataset::from_rows(&rows).unwrap();

    let k = 3;
    for (name, data) in [("dups", &dups), ("grid", &grid)] {
        for (tree, (stats, lens)) in [
            ("kdtree", join_stats(&KdTree::new(data, Euclidean), data.len(), k)),
            ("balltree", join_stats(&BallTree::new(data, Euclidean), data.len(), k)),
        ] {
            assert!(stats.tile_pairs > 0, "{tree}/{name}: the join evaluates runs");
            assert!(stats.captures >= lens.iter().sum::<usize>() as u64, "{tree}/{name}");
            assert!(stats.compactions > 0, "{tree}/{name}: the captures compact");
            assert!(lens.iter().any(|&len| len > k), "{tree}/{name}: ties reach past k");
            if name == "dups" {
                assert!(lens.iter().all(|&len| len == data.len() - 1), "{tree}/{name}");
            }
        }
    }

    // ...and the negative control: on tie-free data every neighborhood
    // holds exactly k.
    let spread = spread_dataset(40);
    for (tree, (stats, lens)) in [
        ("kdtree", join_stats(&KdTree::new(&spread, Euclidean), 40, k)),
        ("balltree", join_stats(&BallTree::new(&spread, Euclidean), 40, k)),
    ] {
        assert!(stats.join_groups > 1, "{tree}: n=40 spans multiple leaves");
        assert!(lens.iter().all(|&len| len == k), "{tree}/spread: no ties, k each");
    }
}

#[test]
fn spilled_sweep_publishes_the_waves_it_runs() {
    // A spilled `lof_range` over n objects and rl MinPts columns at b
    // columns per wave runs ceil(rl / b) batches of three waves, each
    // walking all n lists once: 3·n·ceil(rl / b) column passes and
    // 3·n·rl cells, the in-RAM sweep's cell count. The whole call is one
    // `core.spill.lof_range` span (the in-RAM `core.sweep` span stays
    // untouched), and the `core.ooc.*` counters receive the table's
    // spills at build and its reloads and evictions at scoring, once
    // each. No other test in this binary publishes to these metrics, and
    // the linear scan publishes no `core.join.*` counts, which the test
    // above reads while this one runs.
    let (n, k) = (600, 8);
    let data = spread_dataset(n);
    let scan = LinearScan::new(&data, Euclidean);
    let range = MinPtsRange::new(2, k).unwrap();
    let registry = lof_obs::global();
    let read = |name: &str| registry.counter(name).value();
    let counters = [
        "core.sweep.ranges",
        "core.sweep.column_passes",
        "core.sweep.cells",
        "core.ooc.segment_spills",
        "core.ooc.segment_reloads",
        "core.ooc.segment_evictions",
    ];
    let before = counters.map(read);
    let spans_before = (
        registry.histogram("core.spill.lof_range").count(),
        registry.histogram("core.sweep").count(),
    );

    let table =
        SpilledNeighborhoodTable::build(&scan, k, 20 * n * 3, &std::env::temp_dir()).unwrap();
    table.lof_range(range, Aggregate::Max).unwrap();

    let delta: Vec<u64> = counters.iter().zip(before).map(|(c, b)| read(c) - b).collect();
    let stats = table.stats();
    let batches = range.len().div_ceil(table.columns_per_wave(range)) as u64;
    assert_eq!(table.columns_per_wave(range), 3);
    assert!(table.segment_count() > 1, "the table must segment");
    assert_eq!(delta[0], 1, "one sweep");
    assert_eq!(delta[1], 3 * n as u64 * batches, "column passes");
    assert_eq!(delta[2], 3 * (n * range.len()) as u64, "cells");
    assert_eq!(delta[3], table.segment_count() as u64, "spills published once");
    assert_eq!(delta[4], stats.segment_reloads, "reloads published once");
    assert_eq!(stats.segment_reloads, table.segment_count() as u64 * 3 * batches);
    assert_eq!(delta[5], stats.segment_evictions, "evictions published once");
    assert_eq!(
        (
            registry.histogram("core.spill.lof_range").count(),
            registry.histogram("core.sweep").count()
        ),
        (spans_before.0 + 1, spans_before.1),
        "one spilled span, no in-RAM sweep span"
    );
}
