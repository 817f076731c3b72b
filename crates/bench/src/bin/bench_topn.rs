//! Machine-readable benchmark for the bound-driven top-n engine: "the
//! 100 most outlying of a million clustered points" via partition
//! envelopes and θ-pruning, against the full materialize-sort sweep it
//! replaces.
//!
//! The workload is the regime the engine is built for — unit-spacing
//! lattice clusters scattered far apart (every member scores LOF ≈ 1 and
//! whole partitions prune below θ) plus planted uniform outliers (the
//! actual answer). Lattice rather than Gaussian clusters is deliberate:
//! rectangle lower bounds live on the gaps *between* partition boxes,
//! and a continuum cluster tiled by tree leaves leaves only the
//! inter-point gap along each split (≈0), collapsing `kd_lb` and with it
//! all pruning — see DESIGN.md §13's degeneration table. On lattice data
//! the inter-box gap equals the true neighbor spacing and the envelopes
//! are tight. Before any timing, the engine's ranking is verified
//! **bit-identical** to the sorted full sweep; divergence aborts the
//! process, which is what the CI smoke gate (`scripts/ci.sh`,
//! `LOF_TOPN_POINTS=20000`) relies on.
//!
//! The engine cells time `TopNEngine::run` at one thread and at `nproc`
//! threads, alternating round by round for at least
//! [`CELL_MIN_TIME`], each recorded with `{nproc, isa, threads}` and its
//! median round. With `nproc >= 2` the `nproc` cell must be at least
//! [`MIN_THREAD_SPEEDUP`] times faster than the 1-thread cell, or the
//! binary aborts.
//!
//! The stage split (`stages`) reads the library's own spans from the
//! `lof-obs` registry: `tree.partitions()` split into its sprawl, profile
//! and isolation-radius sub-spans (`index.partitions.*`), then the
//! engine's stages for the 1-thread cell's median round, in run order:
//! the k-distance envelope pass, the exact seed (`core.topn.seed`), the
//! direct and indirect passes at the seed's θ, and `core.topn.refine`
//! (`envelopes_s` sums the three passes). `envelope_passes` splits the
//! envelope work into its three passes (`core.topn.envelope.*`) for the
//! median round of each cell. `sprawl_leaves` and `sprawl_pieces` count
//! the leaves the cover bisected and the pieces they became,
//! `isolation_pairs` and `isolation_evals` the partition pairs the
//! isolation radii verified and the point distances that took;
//! `seed_objects`, `k_distances`, `k_distance_batches`,
//! `k_distance_gather_overflows` (batches whose candidate gather passed
//! its cap and fell back to per-id descents), `range_passes` and
//! `nodes_folded_at_theta` are the median round's `TopNStats`, and
//! `seed_theta` is θ after the seed. The stages are zero in a build
//! without the `obs` feature. The binary also aborts if the engine
//! prunes no partition at all: the fixture is built for pruning, so a
//! cover that prunes nothing is a regression.
//!
//! `misleading_isolation` records the seed's worst case: the same
//! lattices with a sparse lattice of `4n` points whose leaves are the
//! most isolated of the cover, and `n / 2` planted outliers a few units
//! off the dense lattices instead of the far uniform ones. The seed then
//! scores only inliers; the cell records its θ, the final θ, the seed's
//! objects, the k-distance batches and gather overflows and the
//! 1-thread engine's median time, after the same bit-identity gate.
//!
//! Writes `BENCH_topn.json` (override with `BENCH_TOPN_OUT`). Run with
//! `--release`; pin the point count with `LOF_TOPN_POINTS` and the
//! result size with `LOF_TOPN_RESULT`.

use lof_bench::{banner, time};
use lof_core::{
    topn_reference, Dataset, Euclidean, Partition, PartitionSource, TopNEngine, TopNResult,
};
use lof_data::rng::seeded;
use lof_index::KdTree;
use rand::RngExt;

const MIN_PTS: usize = 20;
const CLUSTERS: usize = 64;
const OUTLIERS: usize = 200;
const DIMS: usize = 4;
/// Least rounds, and least wall time, spent on the pair of engine cells.
/// On a shared host the second core comes and goes in phases lasting
/// seconds, so the alternating rounds must span several phases.
const CELL_MIN_ROUNDS: usize = 5;
const CELL_MIN_TIME: std::time::Duration = std::time::Duration::from_secs(5);
/// Smallest accepted speedup of the `nproc`-thread engine cell over the
/// 1-thread cell, when `nproc >= 2`.
const MIN_THREAD_SPEEDUP: f64 = 1.3;
/// Spacing of the misleading fixture's sparse lattice: far above its
/// planted outliers' gap to the dense lattices.
const SPARSE_SPACING: f64 = 40.0;
/// The misleading fixture's outliers sit this far beyond a lattice side.
const DECOY_GAP: f64 = 6.0;
/// Engine rounds of the misleading-isolation cell, which scores nearly
/// every object (about 25 s a round at 1M points).
const MISLEADING_ROUNDS: usize = 3;

/// Unit-spacing lattice clusters scattered far apart, plus uniform
/// planted outliers: the density contrast LOF exists to detect, at a
/// cluster geometry where partition envelopes actually bite — adjacent
/// leaf boxes inside a lattice are separated by the full unit spacing,
/// so the geometric k-distance lower bounds stay proportional to the
/// true k-distances instead of collapsing toward zero.
fn clustered_dataset(seed: u64, n: usize) -> Dataset {
    let mut rng = seeded(seed);
    let mut data = Dataset::new(DIMS);
    push_lattices(&mut rng, &mut data, n.saturating_sub(OUTLIERS).max(CLUSTERS));
    for _ in 0..n.saturating_sub(data.len()) {
        let p: Vec<f64> = (0..DIMS).map(|_| rng.random_range(0.0..1000.0)).collect();
        data.push(&p).expect("outlier has the mixture's dimensionality");
    }
    data
}

/// The seed's worst case: `n` points as [`CLUSTERS`] unit lattices, a
/// sparse lattice of `4 · top_n` of them at [`SPARSE_SPACING`] far from
/// the rest, and `top_n / 2` planted outliers [`DECOY_GAP`] beyond a
/// lattice side. Every sparse leaf is more isolated than every outlier,
/// so the seed's `2 · top_n` objects are all sparse inliers (LOF ≈ 1).
fn misleading_dataset(seed: u64, n: usize, top_n: usize) -> Dataset {
    let (sparse, decoys) = (4 * top_n, top_n / 2);
    let mut rng = seeded(seed);
    let mut data = Dataset::new(DIMS);
    let lattices = push_lattices(&mut rng, &mut data, n.saturating_sub(sparse + decoys));
    let side = (sparse as f64).powf(1.0 / DIMS as f64).ceil() as usize;
    for i in 0..sparse {
        let mut rest = i;
        let row: Vec<f64> = (0..DIMS)
            .map(|_| {
                let offset = (rest % side) as f64;
                rest /= side;
                1500.0 + SPARSE_SPACING * offset
            })
            .collect();
        data.push(&row).expect("sparse point has the mixture's dimensionality");
    }
    for j in 0..decoys {
        let (center, reach) = &lattices[j % lattices.len()];
        let mut row = center.clone();
        row[(j / lattices.len()) % DIMS] += reach + DECOY_GAP;
        data.push(&row).expect("outlier has the mixture's dimensionality");
    }
    data
}

/// Appends `body` points as [`CLUSTERS`] hypercubic unit lattices around
/// random centers in `[0, 1000)^DIMS`; returns each lattice's center and
/// how far it reaches past the center on every axis.
fn push_lattices(
    rng: &mut lof_data::rng::WorkloadRng,
    data: &mut Dataset,
    body: usize,
) -> Vec<(Vec<f64>, f64)> {
    let mut lattices = Vec::with_capacity(CLUSTERS);
    let mut remaining = body;
    for c in 0..CLUSTERS {
        let share = (body / CLUSTERS + usize::from(c < body % CLUSTERS)).min(remaining);
        remaining -= share;
        let center: Vec<f64> = (0..DIMS).map(|_| rng.random_range(0.0..1000.0)).collect();
        // Fill a hypercubic lattice around the center in row-major
        // order; a trailing partial slab is fine — it is still lattice.
        let side = (share as f64).powf(1.0 / DIMS as f64).ceil().max(1.0) as usize;
        let half = side as f64 / 2.0;
        for i in 0..share {
            let mut rest = i;
            let mut p = [0.0; DIMS];
            for coord in &mut p {
                *coord = (rest % side) as f64 - half;
                rest /= side;
            }
            let row: Vec<f64> = p.iter().zip(&center).map(|(o, c)| c + o).collect();
            data.push(&row).expect("lattice point has the mixture's dimensionality");
        }
        lattices.push((center, side as f64 - 1.0 - half));
    }
    lattices
}

/// Aborts on the first divergence between the engine ranking and the
/// full-sweep reference: same ids, same order, same score bits.
fn assert_ranking_identical(label: &str, got: &[(usize, f64)], want: &[(usize, f64)]) {
    assert_eq!(got.len(), want.len(), "{label}: ranking lengths diverge");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.0, w.0, "{label}: ids diverge at rank {i}");
        assert_eq!(
            g.1.to_bits(),
            w.1.to_bits(),
            "{label}: score bits diverge at rank {i} ({} vs {})",
            g.1,
            w.1
        );
    }
}

/// Total seconds recorded so far by the library span `name`.
fn span_s(name: &str) -> f64 {
    lof_obs::global().histogram(name).sum_ns() as f64 / 1e9
}

/// Total so far of the library counter `name`.
fn counter(name: &str) -> u64 {
    lof_obs::global().counter(name).value()
}

/// The engine spans one round records, in run order: the k-distance
/// pass, the seed, the direct and indirect passes, and refinement.
const ENGINE_SPANS: [&str; 5] = [
    "core.topn.envelope.k_distance",
    "core.topn.seed",
    "core.topn.envelope.direct",
    "core.topn.envelope.indirect",
    "core.topn.refine",
];

/// One engine round: its wall time, its [`ENGINE_SPANS`] times, and its
/// result.
struct Round {
    secs: f64,
    stages: [f64; 5],
    result: TopNResult,
}

/// Times the engine at 1 and `nproc` threads, alternating round by round
/// so host speed phases hit both cells alike, and asserts every round's
/// ranking against `want`. Returns the round count and each cell's
/// median round, 1-thread cell first.
fn engine_cells(
    tree: &KdTree<'_, Euclidean>,
    partitions: &[Partition],
    top_n: usize,
    want: &[(usize, f64)],
    nproc: usize,
) -> (usize, [Round; 2]) {
    let mut cells: [Vec<Round>; 2] = [Vec::new(), Vec::new()];
    let start = std::time::Instant::now();
    while cells[0].len() < CELL_MIN_ROUNDS || start.elapsed() < CELL_MIN_TIME {
        for (cell, threads) in cells.iter_mut().zip([1, nproc]) {
            let engine = TopNEngine::new(MIN_PTS, top_n).with_threads(threads);
            let spans_before = ENGINE_SPANS.map(span_s);
            let (result, t) = time(|| engine.run(tree, partitions).expect("engine run"));
            let stages = std::array::from_fn(|i| span_s(ENGINE_SPANS[i]) - spans_before[i]);
            assert_ranking_identical(
                &format!("engine({threads} threads) vs full sweep"),
                &result.ranking,
                want,
            );
            cell.push(Round { secs: t.as_secs_f64(), stages, result });
        }
    }
    let rounds = cells[0].len();
    (
        rounds,
        cells.map(|mut cell| {
            cell.sort_unstable_by(|a, b| a.secs.total_cmp(&b.secs));
            cell.swap_remove(cell.len() / 2)
        }),
    )
}

/// The misleading-isolation cell (module docs): the 1-thread engine on
/// [`misleading_dataset`], gated on bit-identity every round, for
/// [`MISLEADING_ROUNDS`] rounds. Returns its JSON object.
fn misleading_cell(n: usize, top_n: usize) -> String {
    let data = misleading_dataset(11, n, top_n);
    let tree = KdTree::new(&data, Euclidean);
    let partitions = tree.partitions();
    let want = topn_reference(&tree, MIN_PTS, top_n).expect("reference sweep");
    let engine = TopNEngine::new(MIN_PTS, top_n);
    let mut rounds: Vec<(f64, TopNResult)> = (0..MISLEADING_ROUNDS)
        .map(|_| {
            let (result, t) = time(|| engine.run(&tree, &partitions).expect("engine run"));
            assert_ranking_identical(
                "misleading isolation: engine vs full sweep",
                &result.ranking,
                &want,
            );
            (t.as_secs_f64(), result)
        })
        .collect();
    let count = rounds.len();
    rounds.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let (median_s, result) = rounds.swap_remove(count / 2);
    let stats = &result.stats;
    println!(
        "misleading isolation: engine, 1 thread {median_s:.3}s (median of {count}); seed \
         threshold {:.4} from {} objects, final threshold {:.4}; pruned {} of {} partitions, \
         {} objects scored; {} k-distance batches, {} past the gather cap",
        result.seed_theta,
        stats.seed_objects,
        result.threshold,
        stats.partitions_pruned,
        stats.partitions,
        stats.objects_refined,
        stats.k_distance_batches,
        stats.k_distance_gather_overflows
    );
    format!(
        "{{\"dataset_size\": {n}, \"sparse_points\": {}, \"planted_outliers\": {}, \
         \"threads\": 1, \"rounds\": {count}, \"median_s\": {median_s:.4}, \
         \"seed_theta\": {:.6}, \"threshold\": {:.6}, \"seed_objects\": {}, \
         \"partitions\": {}, \"partitions_pruned\": {}, \"objects_refined\": {}, \
         \"k_distance_batches\": {}, \"k_distance_gather_overflows\": {}}}",
        4 * top_n,
        top_n / 2,
        result.seed_theta,
        result.threshold,
        stats.seed_objects,
        stats.partitions,
        stats.partitions_pruned,
        stats.objects_refined,
        stats.k_distance_batches,
        stats.k_distance_gather_overflows
    )
}

fn main() {
    banner("bench_topn", "bound-driven top-n pruning vs the full materialize-sort sweep");
    let n: usize =
        std::env::var("LOF_TOPN_POINTS").ok().and_then(|s| s.parse().ok()).unwrap_or(1_000_000);
    let top_n: usize =
        std::env::var("LOF_TOPN_RESULT").ok().and_then(|s| s.parse().ok()).unwrap_or(100);
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let isa = lof_core::simd::active().key();

    let data = clustered_dataset(11, n);
    let (tree, build_time) = time(|| KdTree::new(&data, Euclidean));
    const PARTITION_SPANS: [&str; 3] =
        ["index.partitions.sprawl", "index.partitions.profiles", "index.partitions.isolation"];
    let spans_before = PARTITION_SPANS.map(span_s);
    let (partitions, partition_time) = time(|| tree.partitions());
    let [sprawl_s, profiles_s, isolation_s]: [f64; 3] =
        std::array::from_fn(|i| span_s(PARTITION_SPANS[i]) - spans_before[i]);
    let sprawl_leaves = counter("index.partitions.sprawl_leaves");
    let sprawl_pieces = counter("index.partitions.pieces");
    let isolation_pairs = counter("index.partitions.isolation_pairs");
    let isolation_evals = counter("index.partitions.isolation_evals");
    println!(
        "n={n} d={DIMS}: kd build {:.3}s, {} leaf partitions {:.3}s",
        build_time.as_secs_f64(),
        partitions.len(),
        partition_time.as_secs_f64()
    );

    // Correctness gate on every timed run: the pruned ranking must be the
    // sorted full sweep's head, bit for bit, at both thread counts.
    let (reference, reference_time) =
        time(|| topn_reference(&tree, MIN_PTS, top_n).expect("reference sweep"));
    let (rounds, [serial, parallel]) = engine_cells(&tree, &partitions, top_n, &reference, nproc);
    let (serial_s, parallel_s) = (serial.secs, parallel.secs);
    let [k_distance_s, seed_s, direct_s, indirect_s, refine_s] = serial.stages;
    let envelopes_s = k_distance_s + direct_s + indirect_s;
    let passes = |round: &Round| {
        let [k_distance, _, direct, indirect, _] = round.stages;
        format!(
            "{{\"k_distance_s\": {k_distance:.4}, \"direct_s\": {direct:.4}, \
             \"indirect_s\": {indirect:.4}}}"
        )
    };
    let (serial_passes, parallel_passes) = (passes(&serial), passes(&parallel));
    let serial = serial.result;
    println!("correctness gate: top-{top_n} bit-identical to the sorted full sweep");

    let stats = &serial.stats;
    let pruned_pct = 100.0 * stats.objects_pruned as f64 / n as f64;
    let reference_s = reference_time.as_secs_f64();
    let pruning_speedup = reference_s / serial_s;
    let thread_speedup = serial_s / parallel_s;
    println!("full sweep          {reference_s:8.3}s");
    println!("engine, 1 thread    {serial_s:8.3}s ({pruning_speedup:.1}x; median of {rounds})");
    println!(
        "engine, {nproc:2} threads  {parallel_s:8.3}s ({thread_speedup:.2}x the 1-thread cell)"
    );
    println!(
        "pruned {} of {} partitions; {} of {n} objects never scored ({pruned_pct:.1}%); \
         seed threshold {:.4} from {} objects, final threshold {:.4}",
        stats.partitions_pruned,
        stats.partitions,
        stats.objects_pruned,
        serial.seed_theta,
        stats.seed_objects,
        serial.threshold
    );
    let partitions_s = partition_time.as_secs_f64();
    println!(
        "partitions {partitions_s:.3}s (sprawl {sprawl_s:.3}s: {sprawl_leaves} leaves bisected \
         into {sprawl_pieces} pieces; profiles {profiles_s:.3}s; isolation {isolation_s:.3}s: \
         {isolation_pairs} pairs verified, {isolation_evals} point distances)"
    );
    println!("envelope passes, 1 thread: {serial_passes}; {nproc} threads: {parallel_passes}");
    println!(
        "1-thread stages: k-distance envelopes {k_distance_s:.3}s, seed {seed_s:.3}s, \
         direct + indirect {:.3}s ({} nodes folded at θ), refine {refine_s:.3}s; \
         {} k-distances in {} batches ({} past the gather cap), {} range passes",
        direct_s + indirect_s,
        stats.nodes_folded_at_theta,
        stats.k_distances,
        stats.k_distance_batches,
        stats.k_distance_gather_overflows,
        stats.range_passes
    );
    assert!(
        stats.partitions_pruned > 0,
        "the engine pruned none of {} partitions",
        stats.partitions
    );
    assert!(
        nproc < 2 || thread_speedup >= MIN_THREAD_SPEEDUP,
        "engine at {nproc} threads is only {thread_speedup:.2}x the 1-thread engine \
         (gate: {MIN_THREAD_SPEEDUP}x)"
    );
    let misleading = misleading_cell(n, top_n);
    let cell = |threads: usize, median_s: f64| {
        format!(
            "{{\"nproc\": {nproc}, \"isa\": \"{isa}\", \"threads\": {threads}, \
             \"rounds\": {rounds}, \"median_s\": {median_s:.4}}}"
        )
    };

    let json = format!(
        "{{\n  \"dataset_size\": {n},\n  \"dims\": {DIMS},\n  \"clusters\": {CLUSTERS},\n  \
         \"planted_outliers\": {OUTLIERS},\n  \"min_pts\": {MIN_PTS},\n  \"top_n\": {top_n},\n  \
         \"partitions\": {},\n  \"partitions_pruned\": {},\n  \
         \"partitions_refined\": {},\n  \"objects_pruned\": {},\n  \
         \"objects_refined\": {},\n  \"seed_objects\": {},\n  \"k_distances\": {},\n  \
         \"k_distance_batches\": {},\n  \"k_distance_gather_overflows\": {},\n  \
         \"range_passes\": {},\n  \
         \"nodes_folded_at_theta\": {},\n  \"seed_theta\": {:.6},\n  \"threshold\": {:.6},\n  \
         \"sprawl_leaves\": {sprawl_leaves},\n  \"sprawl_pieces\": {sprawl_pieces},\n  \
         \"isolation_pairs\": {isolation_pairs},\n  \"isolation_evals\": {isolation_evals},\n  \
         \"stages\": {{\"partitions_s\": {partitions_s:.4}, \"sprawl_s\": {sprawl_s:.4}, \
         \"profiles_s\": {profiles_s:.4}, \"isolation_s\": {isolation_s:.4}, \
         \"k_distance_s\": {k_distance_s:.4}, \"seed_s\": {seed_s:.4}, \
         \"reach_passes_s\": {:.4}, \"envelopes_s\": {envelopes_s:.4}, \
         \"refine_s\": {refine_s:.4}}},\n  \
         \"envelope_passes\": {{\"threads_1\": {serial_passes}, \
         \"threads_nproc\": {parallel_passes}}},\n  \
         \"full_sweep_s\": {reference_s:.3},\n  \"engine_cells\": [{}, {}],\n  \
         \"pruning_speedup\": {pruning_speedup:.3},\n  \
         \"thread_speedup\": {thread_speedup:.3},\n  \
         \"misleading_isolation\": {misleading}\n}}\n",
        stats.partitions,
        stats.partitions_pruned,
        stats.partitions_refined,
        stats.objects_pruned,
        stats.objects_refined,
        stats.seed_objects,
        stats.k_distances,
        stats.k_distance_batches,
        stats.k_distance_gather_overflows,
        stats.range_passes,
        stats.nodes_folded_at_theta,
        serial.seed_theta,
        serial.threshold,
        direct_s + indirect_s,
        cell(1, serial_s),
        cell(nproc, parallel_s),
    );
    let path = std::env::var("BENCH_TOPN_OUT").unwrap_or_else(|_| "BENCH_topn.json".to_owned());
    std::fs::write(&path, &json).expect("cannot write benchmark JSON");
    println!("wrote {path}:\n{json}");
}
