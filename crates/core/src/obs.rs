//! Core-engine instrumentation: deterministic per-call kernel counters
//! plus the publication bridge into the process-wide metrics registry.
//!
//! Two layers, deliberately separate:
//!
//! 1. [`KernelStats`] — plain `u64` fields living inside each
//!    [`KnnScratch`](crate::KnnScratch). The hot loops bump these with
//!    ordinary additions (no atomics), so a single-threaded call's
//!    counts are exactly reproducible — which is what the ground-truth
//!    tests in `crates/core/tests/obs_kernel.rs` compare against naive
//!    arithmetic. With the `obs` feature off the bump methods compile to
//!    nothing and the kernels are uninstrumented.
//! 2. [`publish_kernel_stats`] / [`core_counter`] — chokepoints (table
//!    materialization, incremental updates, the sweep) flush those local
//!    counts into `lof_obs::global()`'s sharded counters, where the CLI
//!    and exposition formats read them. Publication happens once per
//!    batch, not per offer, so the sharded atomics stay off the hot path
//!    entirely.

use lof_obs::Counter;
use std::sync::Arc;
use std::sync::OnceLock;

/// Deterministic counters for one engine call (a batch build, a single
/// query, an incremental update). Lives in
/// [`KnnScratch::stats`](crate::KnnScratch); reset it before a call and
/// read it after for exact per-call counts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelStats {
    /// Blocked-kernel data tiles streamed (one per (tile, query-block)).
    pub tiles: u64,
    /// Candidate distances evaluated by the blocked kernel and the tree
    /// joins (run length summed per query).
    pub tile_pairs: u64,
    /// Candidates captured under the running accept bound
    /// ([`crate::Capture`]).
    pub captures: u64,
    /// `select_nth`-based capture compactions.
    pub compactions: u64,
    /// Candidates exact-refined after the surrogate scan.
    pub refined: u64,
    /// Leaf groups traversed by the batch self-joins.
    pub join_groups: u64,
    /// Full register-tiled SIMD micropanels executed by the dispatched
    /// surrogate kernel (see [`crate::simd::panel_counts`]).
    pub simd_panels: u64,
    /// Remainder dimension lanes (`d mod lanes` per dot product) that
    /// took the masked/peeled path.
    pub simd_remainder_lanes: u64,
    /// Batched k-distance queries whose candidate gather passed its cap,
    /// so each id fell back to a per-id descent. Counted with `obs` on or
    /// off (one addition per batch, outside the hot loops) and not
    /// published from here: the top-n engine reports it in
    /// [`TopNStats::k_distance_gather_overflows`](crate::TopNStats).
    pub gather_overflows: u64,
}

macro_rules! bump {
    ($($(#[$doc:meta])* $fn_name:ident => $field:ident),* $(,)?) => {
        impl KernelStats {
            $(
                $(#[$doc])*
                #[inline(always)]
                pub fn $fn_name(&mut self, n: u64) {
                    #[cfg(feature = "obs")]
                    {
                        self.$field += n;
                    }
                    #[cfg(not(feature = "obs"))]
                    let _ = n;
                }
            )*
        }
    };
}

bump! {
    /// Adds `n` streamed tiles.
    bump_tiles => tiles,
    /// Adds `n` evaluated candidate distances.
    bump_tile_pairs => tile_pairs,
    /// Adds `n` threshold captures.
    bump_captures => captures,
    /// Adds `n` capture-list compactions.
    bump_compactions => compactions,
    /// Adds `n` exact-refined candidates.
    bump_refined => refined,
    /// Adds `n` traversed leaf groups.
    bump_join_groups => join_groups,
    /// Adds `n` executed SIMD micropanels.
    bump_simd_panels => simd_panels,
    /// Adds `n` masked/peeled remainder lanes.
    bump_simd_remainder_lanes => simd_remainder_lanes,
}

impl KernelStats {
    /// Zeroes every counter (start of an instrumented call).
    pub fn reset(&mut self) {
        *self = KernelStats::default();
    }

    /// Flushes the counts into the global registry's `core.*` counters
    /// and zeroes this instance. Call at batch chokepoints, never inside
    /// per-candidate loops.
    pub fn publish_and_reset(&mut self) {
        #[cfg(feature = "obs")]
        self.publish_to(core_metrics());
        self.reset();
    }

    /// Adds the counts to `m`'s counters.
    #[cfg(feature = "obs")]
    fn publish_to(&self, m: &CoreMetrics) {
        for (counter, value) in [
            (&m.tiles, self.tiles),
            (&m.tile_pairs, self.tile_pairs),
            (&m.captures, self.captures),
            (&m.compactions, self.compactions),
            (&m.refined, self.refined),
            (&m.join_groups, self.join_groups),
            (&m.simd_panels, self.simd_panels),
            (&m.simd_remainder_lanes, self.simd_remainder_lanes),
        ] {
            if value > 0 {
                counter.add(value);
            }
        }
    }
}

/// The `core.*` counters of one registry. The publication chokepoints
/// use the global registry's, resolved once and cached
/// ([`core_metrics`]): they must not take the registry lock per batch.
#[cfg(feature = "obs")]
pub(crate) struct CoreMetrics {
    pub tiles: Arc<Counter>,
    pub tile_pairs: Arc<Counter>,
    pub captures: Arc<Counter>,
    pub compactions: Arc<Counter>,
    pub refined: Arc<Counter>,
    pub join_groups: Arc<Counter>,
    pub sweep_ranges: Arc<Counter>,
    pub sweep_column_passes: Arc<Counter>,
    pub sweep_cells: Arc<Counter>,
    pub inserts: Arc<Counter>,
    pub removes: Arc<Counter>,
    pub cascade_lofs: Arc<Counter>,
    pub cascade_depth: Arc<Counter>,
    pub simd_panels: Arc<Counter>,
    pub simd_remainder_lanes: Arc<Counter>,
    pub topn_runs: Arc<Counter>,
    pub topn_partitions: Arc<Counter>,
    pub topn_partitions_pruned: Arc<Counter>,
    pub topn_partitions_refined: Arc<Counter>,
    pub topn_objects_pruned: Arc<Counter>,
    pub topn_objects_refined: Arc<Counter>,
    pub topn_seed_objects: Arc<Counter>,
    pub topn_k_distances: Arc<Counter>,
    pub topn_k_distance_batches: Arc<Counter>,
    pub topn_k_distance_gather_overflows: Arc<Counter>,
    pub topn_range_passes: Arc<Counter>,
    pub topn_nodes_folded_at_theta: Arc<Counter>,
    pub topn_tightenings: Arc<Counter>,
    pub topn_heap_churn: Arc<Counter>,
    pub ooc_panel_faults: Arc<Counter>,
    pub ooc_map_bytes: Arc<lof_obs::Gauge>,
    pub ooc_segment_spills: Arc<Counter>,
    pub ooc_segment_reloads: Arc<Counter>,
    pub ooc_segment_evictions: Arc<Counter>,
    pub ooc_resident_bytes: Arc<lof_obs::Gauge>,
}

#[cfg(feature = "obs")]
pub(crate) fn core_metrics() -> &'static CoreMetrics {
    static METRICS: OnceLock<CoreMetrics> = OnceLock::new();
    METRICS.get_or_init(|| CoreMetrics::resolve(lof_obs::global()))
}

#[cfg(feature = "obs")]
impl CoreMetrics {
    /// Registers (or finds) every `core.*` counter on `r`.
    pub(crate) fn resolve(r: &lof_obs::MetricsRegistry) -> Self {
        CoreMetrics {
            tiles: r.counter("core.kernel.tiles"),
            tile_pairs: r.counter("core.kernel.tile_pairs"),
            captures: r.counter("core.kernel.captures"),
            compactions: r.counter("core.kernel.compactions"),
            refined: r.counter("core.kernel.refined"),
            join_groups: r.counter("core.join.groups"),
            sweep_ranges: r.counter("core.sweep.ranges"),
            sweep_column_passes: r.counter("core.sweep.column_passes"),
            sweep_cells: r.counter("core.sweep.cells"),
            inserts: r.counter("core.incremental.inserts"),
            removes: r.counter("core.incremental.removes"),
            cascade_lofs: r.counter("core.incremental.cascade_lofs"),
            cascade_depth: r.counter("core.incremental.cascade_depth"),
            simd_panels: r.counter("core.simd.panels"),
            simd_remainder_lanes: r.counter("core.simd.remainder_lanes"),
            topn_runs: r.counter("core.topn.runs"),
            topn_partitions: r.counter("core.topn.partitions"),
            topn_partitions_pruned: r.counter("core.topn.partitions_pruned"),
            topn_partitions_refined: r.counter("core.topn.partitions_refined"),
            topn_objects_pruned: r.counter("core.topn.objects_pruned"),
            topn_objects_refined: r.counter("core.topn.objects_refined"),
            topn_seed_objects: r.counter("core.topn.seed_objects"),
            topn_k_distances: r.counter("core.topn.k_distances"),
            topn_k_distance_batches: r.counter("core.topn.k_distance_batches"),
            topn_k_distance_gather_overflows: r.counter("core.topn.k_distance_gather_overflows"),
            topn_range_passes: r.counter("core.topn.range_passes"),
            topn_nodes_folded_at_theta: r.counter("core.topn.nodes_folded_at_theta"),
            topn_tightenings: r.counter("core.topn.threshold_tightenings"),
            topn_heap_churn: r.counter("core.topn.heap_churn"),
            ooc_panel_faults: r.counter("core.ooc.panel_faults"),
            ooc_map_bytes: r.gauge("core.ooc.map_bytes"),
            ooc_segment_spills: r.counter("core.ooc.segment_spills"),
            ooc_segment_reloads: r.counter("core.ooc.segment_reloads"),
            ooc_segment_evictions: r.counter("core.ooc.segment_evictions"),
            ooc_resident_bytes: r.gauge("core.ooc.resident_bytes"),
        }
    }
}

/// Records one out-of-core dataset open: the minor page faults its
/// validation sweep took and the bytes now mapped. No-op with `obs` off.
pub(crate) fn publish_ooc_open(faults: u64, map_bytes: u64) {
    #[cfg(feature = "obs")]
    {
        let m = core_metrics();
        if faults > 0 {
            m.ooc_panel_faults.add(faults);
        }
        m.ooc_map_bytes.set(map_bytes as f64);
    }
    #[cfg(not(feature = "obs"))]
    let _ = (faults, map_bytes);
}

/// Mirrors one spillable-table build/scoring run's accounting onto the
/// `core.ooc.*` counters. No-op with `obs` off.
pub(crate) fn publish_ooc_spill(stats: &crate::spill::SpillStats) {
    #[cfg(feature = "obs")]
    {
        let m = core_metrics();
        for (counter, value) in [
            (&m.ooc_segment_spills, stats.segment_spills),
            (&m.ooc_segment_reloads, stats.segment_reloads),
            (&m.ooc_segment_evictions, stats.segment_evictions),
        ] {
            if value > 0 {
                counter.add(value);
            }
        }
        m.ooc_resident_bytes.set(stats.resident_bytes as f64);
    }
    #[cfg(not(feature = "obs"))]
    let _ = stats;
}

/// Mirrors one top-n engine run's accounting onto the `core.topn.*`
/// counters. No-op with `obs` off.
pub(crate) fn publish_topn(stats: &crate::topn::TopNStats) {
    #[cfg(feature = "obs")]
    publish_topn_to(core_metrics(), stats);
    #[cfg(not(feature = "obs"))]
    let _ = stats;
}

/// [`publish_topn`] onto `m`'s counters.
#[cfg(feature = "obs")]
fn publish_topn_to(m: &CoreMetrics, stats: &crate::topn::TopNStats) {
    m.topn_runs.inc();
    for (counter, value) in [
        (&m.topn_partitions, stats.partitions),
        (&m.topn_partitions_pruned, stats.partitions_pruned),
        (&m.topn_partitions_refined, stats.partitions_refined),
        (&m.topn_objects_pruned, stats.objects_pruned),
        (&m.topn_objects_refined, stats.objects_refined),
        (&m.topn_seed_objects, stats.seed_objects),
        (&m.topn_k_distances, stats.k_distances),
        (&m.topn_k_distance_batches, stats.k_distance_batches),
        (&m.topn_k_distance_gather_overflows, stats.k_distance_gather_overflows),
        (&m.topn_range_passes, stats.range_passes),
        (&m.topn_nodes_folded_at_theta, stats.nodes_folded_at_theta),
        (&m.topn_tightenings, stats.threshold_tightenings),
        (&m.topn_heap_churn, stats.heap_churn),
    ] {
        if value > 0 {
            counter.add(value);
        }
    }
}

/// Kinds of whole-call events the engine publishes directly to the
/// global registry (no per-call accumulation needed).
#[derive(Debug, Clone, Copy)]
pub enum CoreEvent {
    /// One `sweep_lof_range` invocation.
    SweepRange,
    /// Column passes over the CSR arena during a sweep.
    SweepColumnPasses(u64),
    /// `(point, MinPts)` cells evaluated during a sweep.
    SweepCells(u64),
    /// One successful incremental insert.
    IncrementalInsert,
    /// One successful incremental remove.
    IncrementalRemove,
    /// LOF values recomputed by an update cascade.
    CascadeLofs(u64),
    /// Dependency depth one update cascade reached (0 = untouched
    /// beyond the event's own object, 3 = the LOF layer spread past the
    /// lrd layer). Summed on the counter; divide by
    /// `core.incremental.inserts + removes` for the mean depth.
    CascadeDepth(u64),
    /// SIMD micropanels executed outside a scratch-carrying path (the
    /// incremental insert/remove prefilter).
    SimdPanels(u64),
    /// Masked/peeled remainder lanes, same paths as [`CoreEvent::SimdPanels`].
    SimdRemainderLanes(u64),
}

/// Records the process-wide SIMD dispatch decision: bumps the
/// `core.simd.dispatch_<isa>` counter once, so `/metrics` shows which
/// kernel this process selected. Called exactly once, from
/// [`crate::simd::active`]. No-op with `obs` off.
pub(crate) fn publish_simd_dispatch(isa: crate::simd::Isa) {
    #[cfg(feature = "obs")]
    {
        lof_obs::global().counter(&format!("core.simd.dispatch_{}", isa.key())).inc();
    }
    #[cfg(not(feature = "obs"))]
    let _ = isa;
}

/// Publishes one whole-call event to the global registry. No-op with
/// `obs` off.
pub fn publish_event(event: CoreEvent) {
    #[cfg(feature = "obs")]
    publish_event_to(core_metrics(), event);
    #[cfg(not(feature = "obs"))]
    let _ = event;
}

/// [`publish_event`] onto `m`'s counters.
#[cfg(feature = "obs")]
fn publish_event_to(m: &CoreMetrics, event: CoreEvent) {
    match event {
        CoreEvent::SweepRange => m.sweep_ranges.inc(),
        CoreEvent::SweepColumnPasses(n) => m.sweep_column_passes.add(n),
        CoreEvent::SweepCells(n) => m.sweep_cells.add(n),
        CoreEvent::IncrementalInsert => m.inserts.inc(),
        CoreEvent::IncrementalRemove => m.removes.inc(),
        CoreEvent::CascadeLofs(n) => m.cascade_lofs.add(n),
        CoreEvent::CascadeDepth(n) => m.cascade_depth.add(n),
        CoreEvent::SimdPanels(n) => m.simd_panels.add(n),
        CoreEvent::SimdRemainderLanes(n) => m.simd_remainder_lanes.add(n),
    }
}

// Quiet the unused-import lints in the obs-off build: Counter/Arc/OnceLock
// only appear in gated items there.
#[cfg(not(feature = "obs"))]
#[allow(dead_code)]
fn _unused_imports(_: Option<(Arc<Counter>, &OnceLock<u8>)>) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bumps_respect_the_feature_gate() {
        let mut s = KernelStats::default();
        s.bump_tiles(3);
        s.bump_captures(10);
        if lof_obs::enabled() {
            assert_eq!(s.tiles, 3);
            assert_eq!(s.captures, 10);
        } else {
            assert_eq!(s, KernelStats::default());
        }
    }

    /// A registry only the calling test publishes to, with the `core.*`
    /// counters resolved on it: the global registry's counters also take
    /// what other tests in this binary publish on parallel threads, so an
    /// exact delta read there can race.
    #[cfg(feature = "obs")]
    fn private_metrics() -> (lof_obs::MetricsRegistry, CoreMetrics) {
        let registry = lof_obs::MetricsRegistry::new();
        let metrics = CoreMetrics::resolve(&registry);
        (registry, metrics)
    }

    #[test]
    fn publish_flushes_kernel_stats_onto_the_core_counters() {
        let mut s = KernelStats::default();
        s.bump_captures(7);
        #[cfg(feature = "obs")]
        {
            let (registry, m) = private_metrics();
            s.publish_to(&m);
            assert_eq!(registry.counter("core.kernel.captures").value(), 7);
        }
        s.publish_and_reset();
        assert_eq!(s, KernelStats::default());
        #[cfg(not(feature = "obs"))]
        assert_eq!(lof_obs::global().counter("core.kernel.captures").value(), 0);
    }

    #[test]
    fn topn_stats_land_on_their_counters() {
        let stats = crate::topn::TopNStats {
            partitions: 8,
            partitions_pruned: 5,
            partitions_refined: 3,
            objects_pruned: 90,
            objects_refined: 10,
            seed_objects: 6,
            k_distances: 30,
            k_distance_batches: 3,
            k_distance_gather_overflows: 1,
            range_passes: 12,
            nodes_folded_at_theta: 7,
            threshold_tightenings: 4,
            heap_churn: 2,
        };
        #[cfg(feature = "obs")]
        {
            let (registry, m) = private_metrics();
            publish_topn_to(&m, &stats);
            assert_eq!(registry.counter("core.topn.runs").value(), 1);
            assert_eq!(registry.counter("core.topn.objects_pruned").value(), 90);
            assert_eq!(registry.counter("core.topn.seed_objects").value(), 6);
            assert_eq!(registry.counter("core.topn.k_distance_batches").value(), 3);
            assert_eq!(registry.counter("core.topn.k_distance_gather_overflows").value(), 1);
            assert_eq!(registry.counter("core.topn.nodes_folded_at_theta").value(), 7);
        }
        #[cfg(not(feature = "obs"))]
        {
            publish_topn(&stats);
            assert_eq!(lof_obs::global().counter("core.topn.runs").value(), 0);
        }
    }

    #[test]
    fn events_land_on_their_counters() {
        #[cfg(feature = "obs")]
        {
            let (registry, m) = private_metrics();
            publish_event_to(&m, CoreEvent::CascadeLofs(5));
            assert_eq!(registry.counter("core.incremental.cascade_lofs").value(), 5);
        }
        #[cfg(not(feature = "obs"))]
        {
            publish_event(CoreEvent::CascadeLofs(5));
            assert_eq!(lof_obs::global().counter("core.incremental.cascade_lofs").value(), 0);
        }
    }
}
