//! Machine-readable materialization benchmark for the leaf-blocked batch
//! k-NN self-join and the single-pass MinPts-range sweep.
//!
//! Times a full `MinPtsUB = 50` neighborhood materialization over
//! n = 20000, d = 10 points four ways — brute-force blocked scan,
//! per-query kd-tree, leaf-blocked batched kd-tree, leaf-blocked batched
//! ball tree — then the `[10, 50]` LOF range computation through the
//! retained per-MinPts reference vs. the single-pass sweep. Every path is
//! verified bit-identical before timing; divergence aborts the process,
//! which is what the CI smoke gate (`scripts/ci.sh`, `LOF_MATERIALIZE_N=2000`)
//! relies on.
//!
//! The blocked scan is timed on the dispatched SIMD target and pinned to
//! the scalar microkernel, in interleaved rounds; unless the process is
//! pinned to scalar itself, the dispatched cell's median round must be at
//! least [`MIN_SIMD_MATERIALIZE_SPEEDUP`] times faster than the scalar
//! cell's, or the binary aborts.
//!
//! Parallel cells time step 1 through `build_table_parallel` for the kd
//! and ball trees at one thread and at `nproc` threads, on the same
//! points with shuffled ids (so every leaf holds ids from all over the
//! id range), each recorded with `{nproc, isa, threads}`. With
//! `nproc >= 2` the kd-tree's `nproc` cell (the median of rounds
//! interleaved with the 1-thread cell's) must be at least
//! [`MIN_PARALLEL_SPEEDUP`] times faster than its 1-thread cell, or the
//! binary aborts.
//!
//! Writes `BENCH_materialize.json` (override with `BENCH_MATERIALIZE_OUT`).
//! Run with `--release`; scale with `LOF_SCALE`, or pin the exact point
//! count with `LOF_MATERIALIZE_N`. `LOF_OOC_N=1000000,10000000` adds the
//! out-of-core tiers: each listed point count runs the full `.lofd` →
//! mmap → kd self-join → disk-spilled table → range-scores pipeline under
//! a deliberately small resident budget, asserting bit-identity to the
//! in-RAM pipeline at tiers that still fit in RAM.

use lof_bench::{banner, scale, time};
use lof_core::knn::KnnScratch;
use lof_core::{
    build_table_parallel, lof_range, lof_range_reference, Aggregate, Dataset, Euclidean,
    KnnProvider, LinearScan, Lofd, MinPtsRange, Neighbor, NeighborhoodTable,
    SpilledNeighborhoodTable,
};
use lof_data::paper::perf_mixture;
use lof_index::{BallTree, KdTree};

const MAX_K: usize = 50;
const MIN_PTS_LB: usize = 10;
/// Out-of-core tier parameters: low dimensionality and a shallow table so
/// the 10M-point run is index-bound, not O(n^2)-bound.
const OOC_DIMS: usize = 4;
const OOC_MAX_K: usize = 10;
const OOC_MIN_PTS_LB: usize = 5;
/// Ceiling of the deliberately small resident budget for the spilled
/// neighborhood table; the per-tier budget is 1/8 of the estimated
/// serialized table, clamped to [1 MiB, this] — always far below both the
/// coordinate file and the table, so the segment cache must spill, evict,
/// and reload to finish.
const OOC_BUDGET_MAX_BYTES: usize = 64 << 20;
/// Largest tier that also runs the full in-RAM pipeline for the
/// bit-identity gate (beyond this the in-RAM side is the thing the
/// out-of-core path exists to avoid).
const OOC_IDENTITY_MAX: usize = 1_000_000;
/// Timing rounds per measured path; the fastest round is reported.
const ROUNDS: usize = 2;
/// Extra rounds for the (cheaper) sweep timings.
const SWEEP_ROUNDS: usize = 3;
/// Least rounds, and least wall time, spent on each pair of gated cells.
/// The speedup gates compare the median round of each cell; on a shared
/// host the second core comes and goes in phases lasting seconds, so the
/// interleaved rounds must span enough phases that no single one holds
/// half of them.
const GATED_MIN_ROUNDS: usize = 11;
const GATED_MIN_TIME: std::time::Duration = std::time::Duration::from_secs(10);
/// Smallest accepted kd-tree speedup of the `nproc`-thread parallel
/// build over the 1-thread build, when `nproc >= 2`.
const MIN_PARALLEL_SPEEDUP: f64 = 1.4;
/// Smallest accepted speedup of the blocked scan on the dispatched SIMD
/// target over the same scan pinned to the scalar microkernel.
const MIN_SIMD_MATERIALIZE_SPEEDUP: f64 = 1.0;

/// Runs `f` `rounds` times and reports the fastest wall-clock duration
/// alongside `f`'s (deterministic) result. On small machines first-touch
/// page faults and scheduler noise routinely inflate a single cold run by
/// 2-10x; min-of-N is the standard estimator for the true cost of a
/// deterministic computation.
fn best_of<T>(rounds: usize, mut f: impl FnMut() -> T) -> (T, std::time::Duration) {
    let mut best = std::time::Duration::MAX;
    let mut result = None;
    for _ in 0..rounds {
        let (r, d) = time(&mut f);
        best = best.min(d);
        result = Some(r);
    }
    (result.expect("rounds >= 1"), best)
}

/// Per-query materialization: the pre-batch tree path, one two-phase
/// search per object through a reused scratch.
fn per_query_materialize<P: KnnProvider>(provider: &P, n: usize) -> (Vec<Neighbor>, Vec<usize>) {
    let mut scratch = KnnScratch::new();
    let (mut flat, mut lens) = (Vec::new(), Vec::new());
    for id in 0..n {
        let len = provider.k_nearest_into(id, MAX_K, &mut scratch, &mut flat).expect("valid query");
        lens.push(len);
    }
    (flat, lens)
}

/// Batched materialization: one `batch_k_nearest` call over every object
/// (the leaf-grouped self-join for the trees, the blocked kernel for the
/// scan).
fn batched_materialize<P: KnnProvider>(provider: &P, n: usize) -> (Vec<Neighbor>, Vec<usize>) {
    let mut scratch = KnnScratch::new();
    let (mut flat, mut lens) = (Vec::new(), Vec::new());
    provider.batch_k_nearest(0..n, MAX_K, &mut scratch, &mut flat, &mut lens).expect("valid batch");
    (flat, lens)
}

/// The same points in a fixed pseudo-random id order (Fisher–Yates over
/// a 64-bit LCG).
fn shuffled(data: &Dataset) -> Dataset {
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut state = 0x853C49E6748FEA9Bu64;
    for i in (1..order.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        order.swap(i, (state >> 33) as usize % (i + 1));
    }
    let mut out = Dataset::with_capacity(data.dims(), data.len());
    for id in order {
        out.push(data.point(id)).expect("same dimensionality");
    }
    out
}

/// Times the two `cells` in interleaved rounds and returns each cell's
/// median round in ns per object, handing every result to `check`
/// (with the cell's index) outside the timed call.
///
/// The cells take turns within each round, in `0, 1` order on even
/// rounds and `1, 0` on odd ones, so host speed phases and drift hit both
/// alike. A fastest round would follow whether the second core happened
/// to be free during one lucky round; the median follows the host's
/// usual state and needs over half the rounds disturbed to move.
fn interleaved_medians<T>(
    objects: usize,
    cells: [&dyn Fn() -> T; 2],
    mut check: impl FnMut(usize, T),
) -> [f64; 2] {
    let mut times: [Vec<std::time::Duration>; 2] = [Vec::new(), Vec::new()];
    let start = std::time::Instant::now();
    let mut rounds = 0;
    while rounds < GATED_MIN_ROUNDS || start.elapsed() < GATED_MIN_TIME {
        let order = if rounds % 2 == 0 { [0, 1] } else { [1, 0] };
        rounds += 1;
        for slot in order {
            let (result, t) = time(cells[slot]);
            times[slot].push(t);
            check(slot, result);
        }
    }
    times.map(|mut cell| {
        cell.sort_unstable();
        cell[cell.len() / 2].as_nanos() as f64 / objects as f64
    })
}

/// Times `build_table_parallel` at 1 and `nproc` threads
/// ([`interleaved_medians`]), asserting each table equals `want` bit for
/// bit. Returns the two cells' ns/object.
fn parallel_cells<P: KnnProvider + Sync>(
    label: &str,
    provider: &P,
    want: &NeighborhoodTable,
    nproc: usize,
) -> [(usize, f64); 2] {
    let build = |threads| build_table_parallel(provider, MAX_K, threads).expect("valid table");
    let check = |slot: usize, table: NeighborhoodTable| {
        let threads = [1, nproc][slot];
        for id in 0..want.len() {
            let (got, exp) =
                (table.full_neighborhood(id).unwrap(), want.full_neighborhood(id).unwrap());
            assert!(
                got.len() == exp.len()
                    && got
                        .iter()
                        .zip(exp)
                        .all(|(g, w)| g.id == w.id && g.dist.to_bits() == w.dist.to_bits()),
                "{label} parallel build (threads={threads}) diverges from the scan at id={id}"
            );
        }
    };
    let [one, many] = interleaved_medians(want.len(), [&|| build(1), &|| build(nproc)], check);
    [(1, one), (nproc, many)]
}

/// Aborts on the first bit divergence between two flat materializations.
fn assert_flat_identical(
    label: &str,
    got: &(Vec<Neighbor>, Vec<usize>),
    want: &(Vec<Neighbor>, Vec<usize>),
) {
    assert_eq!(got.1, want.1, "{label}: neighborhood lengths diverge");
    assert_eq!(got.0.len(), want.0.len(), "{label}: flat sizes diverge");
    for (i, (g, w)) in got.0.iter().zip(&want.0).enumerate() {
        assert_eq!(g.id, w.id, "{label}: neighbor ids diverge at flat index {i}");
        assert_eq!(
            g.dist.to_bits(),
            w.dist.to_bits(),
            "{label}: distance bits diverge at flat index {i} ({} vs {})",
            g.dist,
            w.dist
        );
    }
}

/// One out-of-core tier: streams `n` points through the full `.lofd` →
/// mmap → kd batched self-join → disk-spilled CSR → incremental range
/// scoring pipeline under a deliberately small resident budget, and (at or below
/// [`OOC_IDENTITY_MAX`]) asserts the scores bit-identical to the in-RAM
/// pipeline. Returns the tier's JSON object.
fn ooc_tier(n: usize) -> String {
    // 1/8 of the (tie-free) serialized table estimate, so every tier
    // needs ~8+ segments regardless of scale.
    let table_estimate = n * (16 * (OOC_MAX_K + 1) + 4);
    let budget_bytes = (table_estimate / 8).clamp(1 << 20, OOC_BUDGET_MAX_BYTES);
    println!("--- out-of-core tier: n={n} d={OOC_DIMS} budget={budget_bytes} bytes ---");
    let data = perf_mixture(11, n, OOC_DIMS, 8);
    let dataset_bytes = n * OOC_DIMS * 8;
    let path = std::env::temp_dir().join(format!("lof-bench-ooc-{}-{n}.lofd", std::process::id()));
    let (_, write_time) = time(|| Lofd::write_dataset(&path, &data).expect("write .lofd"));
    let lofd = Lofd::open(&path).expect("reopen .lofd");
    let mapped = lofd.dataset();
    assert!(mapped.is_mapped(), "reopened dataset must be file-backed");
    let (kd, kd_build_time) = time(|| KdTree::new(&mapped, Euclidean));
    let (table, materialize_time) = time(|| {
        SpilledNeighborhoodTable::build(&kd, OOC_MAX_K, budget_bytes, &std::env::temp_dir())
            .expect("spilled build")
    });
    let range = MinPtsRange::new(OOC_MIN_PTS_LB, OOC_MAX_K).expect("valid range");
    let (scores, score_time) =
        time(|| table.lof_range(range, Aggregate::Max).expect("spilled range scores"));
    let stats = table.stats();
    assert!(
        stats.segment_spills > 1 && stats.segment_evictions > 0,
        "budget must force real spilling (got {stats:?})"
    );
    // Each batch of `columns_per_wave` MinPts columns reads every segment
    // in three waves (k-distance, lrd, LOF), no more.
    let columns_per_wave = table.columns_per_wave(range);
    let reloads_per_segment = stats.segment_reloads as f64 / table.segment_count() as f64;
    let wave_bound = 3 * range.len().div_ceil(columns_per_wave);
    assert!(
        reloads_per_segment <= wave_bound as f64,
        "{reloads_per_segment} reloads per segment exceed 3 x ceil({} / {columns_per_wave}) = \
         {wave_bound}",
        range.len()
    );
    assert!(
        stats.resident_bytes <= budget_bytes as u64,
        "cache ends within budget (got {stats:?})"
    );

    // Bit-identity gate at the overlap with what RAM can comfortably
    // hold: the spilled scores must equal the in-RAM reference exactly.
    let bit_identical = if n <= OOC_IDENTITY_MAX {
        let ram_kd = KdTree::new(&data, Euclidean);
        let ram_table = NeighborhoodTable::build(&ram_kd, OOC_MAX_K).expect("in-RAM table");
        let want =
            lof_range_reference(&ram_table, range).expect("reference").scores(Aggregate::Max);
        for (id, w) in want.iter().enumerate() {
            assert_eq!(
                scores.scores()[id].to_bits(),
                w.to_bits(),
                "spilled scores diverge from in-RAM at id={id}"
            );
        }
        println!("  identity gate: spilled scores bit-identical to in-RAM over {n} objects");
        "true"
    } else {
        "null"
    };
    std::fs::remove_file(&path).ok();

    println!(
        "  write {:.1}s, kd build {:.1}s, spilled materialize {:.1}s, range scores {:.1}s",
        write_time.as_secs_f64(),
        kd_build_time.as_secs_f64(),
        materialize_time.as_secs_f64(),
        score_time.as_secs_f64()
    );
    println!(
        "  {} segments, {} spills, {} reloads ({reloads_per_segment} per segment, \
         {columns_per_wave} columns per wave), {} evictions, {} resident bytes at end",
        table.segment_count(),
        stats.segment_spills,
        stats.segment_reloads,
        stats.segment_evictions,
        stats.resident_bytes
    );
    format!(
        "{{\"n\": {n}, \"dims\": {OOC_DIMS}, \"max_k\": {OOC_MAX_K}, \
         \"min_pts_lb\": {OOC_MIN_PTS_LB}, \"budget_bytes\": {budget_bytes}, \
         \"dataset_bytes\": {dataset_bytes}, \"stored_entries\": {}, \"segments\": {}, \
         \"segment_spills\": {}, \"segment_reloads\": {}, \"segment_evictions\": {}, \
         \"columns_per_wave\": {columns_per_wave}, \
         \"reloads_per_segment\": {reloads_per_segment}, \
         \"write_s\": {:.2}, \"kd_build_s\": {:.2}, \"materialize_s\": {:.2}, \
         \"score_s\": {:.2}, \"bit_identical_vs_in_ram\": {bit_identical}}}",
        table.stored_entries(),
        table.segment_count(),
        stats.segment_spills,
        stats.segment_reloads,
        stats.segment_evictions,
        write_time.as_secs_f64(),
        kd_build_time.as_secs_f64(),
        materialize_time.as_secs_f64(),
        score_time.as_secs_f64(),
    )
}

fn main() {
    banner(
        "bench_materialize",
        "leaf-blocked batch self-join + single-pass MinPts sweep (JSON output)",
    );
    let n = std::env::var("LOF_MATERIALIZE_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000 * scale());
    let dims = 10;
    let data: Dataset = perf_mixture(7, n, dims, 8);
    let scan = LinearScan::new(&data, Euclidean);
    let (kd, kd_build) = time(|| KdTree::new(&data, Euclidean));
    let (ball, ball_build) = time(|| BallTree::new(&data, Euclidean));
    println!(
        "built indexes over n={n} d={dims}: kd {:.3}s, ball {:.3}s",
        kd_build.as_secs_f64(),
        ball_build.as_secs_f64()
    );

    // Correctness gate: all four materializations must agree bit for bit.
    // CI runs this binary at n=2000 precisely for these assertions.
    let scan_mat = batched_materialize(&scan, n);
    // Dispatch differential: the same blocked scan pinned to the scalar
    // microkernel — must agree bit for bit, and the gap isolates the
    // SIMD contribution to full materialization.
    let simd_isa = lof_core::simd::active();
    let scalar_scan = LinearScan::with_isa(&data, Euclidean, lof_core::Isa::Scalar);
    let [scan_ns, scalar_scan_ns] = interleaved_medians(
        n,
        [&|| batched_materialize(&scan, n), &|| batched_materialize(&scalar_scan, n)],
        |slot, mat| {
            let label = ["dispatched scan", "scalar-pinned vs dispatched scan"][slot];
            assert_flat_identical(label, &mat, &scan_mat);
        },
    );
    let (kd_per_query_mat, kd_per_query_time) = best_of(ROUNDS, || per_query_materialize(&kd, n));
    let (kd_batched_mat, kd_batched_time) = best_of(ROUNDS, || batched_materialize(&kd, n));
    let (ball_batched_mat, ball_batched_time) = best_of(ROUNDS, || batched_materialize(&ball, n));
    assert_flat_identical("kd per-query vs scan", &kd_per_query_mat, &scan_mat);
    assert_flat_identical("kd batched vs scan", &kd_batched_mat, &scan_mat);
    assert_flat_identical("ball batched vs scan", &ball_batched_mat, &scan_mat);
    println!("correctness gate: all materialization paths bit-identical over {n} objects");

    let per_object = |d: std::time::Duration| d.as_nanos() as f64 / n as f64;
    let simd_materialize_speedup = scalar_scan_ns / scan_ns;
    let kd_per_query_ns = per_object(kd_per_query_time);
    let kd_batched_ns = per_object(kd_batched_time);
    let ball_batched_ns = per_object(ball_batched_time);
    let kd_speedup = kd_per_query_ns / kd_batched_ns;
    println!("brute blocked scan  {scan_ns:10.0} ns/object [{}]", simd_isa.key());
    println!(
        "scalar-pinned scan  {scalar_scan_ns:10.0} ns/object ({simd_materialize_speedup:.2}x)"
    );
    println!("kd per-query        {kd_per_query_ns:10.0} ns/object");
    println!("kd batched join     {kd_batched_ns:10.0} ns/object ({kd_speedup:.2}x vs per-query)");
    println!("ball batched join   {ball_batched_ns:10.0} ns/object");
    assert!(
        simd_isa == lof_core::Isa::Scalar
            || simd_materialize_speedup >= MIN_SIMD_MATERIALIZE_SPEEDUP,
        "the {} scan is only {simd_materialize_speedup:.2}x the scalar-pinned scan \
         (gate: {MIN_SIMD_MATERIALIZE_SPEEDUP}x)",
        simd_isa.key()
    );

    // Parallel step 1 on shuffled ids, gated: leaf-group workers must
    // scale the kd join.
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let shuffled = shuffled(&data);
    let shuffled_want =
        NeighborhoodTable::build(&LinearScan::new(&shuffled, Euclidean), MAX_K).expect("table");
    let kd_cells = parallel_cells("kd", &KdTree::new(&shuffled, Euclidean), &shuffled_want, nproc);
    let ball_cells =
        parallel_cells("ball", &BallTree::new(&shuffled, Euclidean), &shuffled_want, nproc);
    let kd_parallel_speedup = kd_cells[0].1 / kd_cells[1].1;
    let ball_parallel_speedup = ball_cells[0].1 / ball_cells[1].1;
    for (tree, cells, speedup) in
        [("kd", kd_cells, kd_parallel_speedup), ("ball", ball_cells, ball_parallel_speedup)]
    {
        println!(
            "{tree:<4} parallel build {:10.0} ns/object at 1 thread, {:.0} at {nproc} \
             ({speedup:.2}x, shuffled ids)",
            cells[0].1, cells[1].1
        );
    }
    assert!(
        nproc < 2 || kd_parallel_speedup >= MIN_PARALLEL_SPEEDUP,
        "kd parallel build at {nproc} threads is only {kd_parallel_speedup:.2}x the 1-thread \
         build (gate: {MIN_PARALLEL_SPEEDUP}x)"
    );
    let cell_json = |cells: [(usize, f64); 2]| {
        cells
            .map(|(threads, ns)| {
                format!(
                    "{{\"nproc\": {nproc}, \"isa\": \"{}\", \"threads\": {threads}, \
                     \"ns_per_object\": {ns:.1}}}",
                    simd_isa.key()
                )
            })
            .join(", ")
    };

    // CSR arena accounting (satellite: fig10 reports the same numbers).
    let table = NeighborhoodTable::build(&kd, MAX_K).expect("valid table");
    let arena_bytes = table.memory_bytes();
    let pointer_bytes = table.pointer_layout_bytes();
    println!(
        "table memory: CSR arena {arena_bytes} bytes vs pointer layout {pointer_bytes} bytes \
         ({:.1}% saved)",
        100.0 * (1.0 - arena_bytes as f64 / pointer_bytes as f64)
    );

    // Sweep gate + timing: per-MinPts reference vs the single-pass sweep
    // over the full [MIN_PTS_LB, MAX_K] range.
    let range = MinPtsRange::new(MIN_PTS_LB, MAX_K).expect("valid range");
    let (reference, reference_time) =
        best_of(SWEEP_ROUNDS, || lof_range_reference(&table, range).expect("valid range"));
    let (sweep, sweep_time) =
        best_of(SWEEP_ROUNDS, || lof_range(&table, range).expect("valid range"));
    for min_pts in range.iter() {
        let w = reference.at_min_pts(min_pts).expect("row exists");
        let s = sweep.at_min_pts(min_pts).expect("row exists");
        for id in 0..n {
            assert_eq!(
                s[id].to_bits(),
                w[id].to_bits(),
                "sweep diverges from reference at min_pts={min_pts}, id={id}"
            );
        }
    }
    let reference_ns = per_object(reference_time);
    let sweep_ns = per_object(sweep_time);
    let sweep_speedup = reference_ns / sweep_ns;
    println!(
        "lof_range [{MIN_PTS_LB},{MAX_K}]: reference {reference_ns:10.0} ns/object, \
         sweep {sweep_ns:10.0} ns/object ({sweep_speedup:.2}x)"
    );

    // Out-of-core tiers, opt-in via `LOF_OOC_N` (comma-separated point
    // counts, e.g. `LOF_OOC_N=1000000,10000000`): these runs take minutes
    // by design, so the CI smoke invocation leaves them off.
    let ooc_sizes: Vec<usize> = std::env::var("LOF_OOC_N")
        .ok()
        .map(|s| s.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .unwrap_or_default();
    let ooc_tiers: Vec<String> = ooc_sizes.iter().map(|&n| ooc_tier(n)).collect();

    let json = format!(
        "{{\n  \"dataset_size\": {n},\n  \"dims\": {dims},\n  \"max_k\": {MAX_K},\n  \
         \"min_pts_lb\": {MIN_PTS_LB},\n  \
         \"scan_blocked_ns_per_object\": {scan_ns:.1},\n  \
         \"simd_isa\": \"{}\",\n  \
         \"scan_blocked_scalar_ns_per_object\": {scalar_scan_ns:.1},\n  \
         \"simd_materialize_speedup\": {simd_materialize_speedup:.3},\n  \
         \"kd_per_query_ns_per_object\": {kd_per_query_ns:.1},\n  \
         \"kd_batched_ns_per_object\": {kd_batched_ns:.1},\n  \
         \"kd_batched_speedup\": {kd_speedup:.3},\n  \
         \"ball_batched_ns_per_object\": {ball_batched_ns:.1},\n  \
         \"kd_parallel_shuffled\": [{}],\n  \
         \"kd_parallel_speedup\": {kd_parallel_speedup:.3},\n  \
         \"ball_parallel_shuffled\": [{}],\n  \
         \"ball_parallel_speedup\": {ball_parallel_speedup:.3},\n  \
         \"arena_bytes\": {arena_bytes},\n  \
         \"pointer_layout_bytes\": {pointer_bytes},\n  \
         \"sweep_reference_ns_per_object\": {reference_ns:.1},\n  \
         \"sweep_ns_per_object\": {sweep_ns:.1},\n  \
         \"sweep_speedup\": {sweep_speedup:.3},\n  \
         \"ooc_tiers\": [{}]\n}}\n",
        simd_isa.key(),
        cell_json(kd_cells),
        cell_json(ball_cells),
        ooc_tiers.join(",\n                "),
    );
    let path = std::env::var("BENCH_MATERIALIZE_OUT")
        .unwrap_or_else(|_| "BENCH_materialize.json".to_owned());
    std::fs::write(&path, &json).expect("cannot write benchmark JSON");
    println!("wrote {path}:\n{json}");
}
