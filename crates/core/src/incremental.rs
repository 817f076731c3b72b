//! Incremental LOF maintenance under insertions and removals — the
//! paper's second ongoing-work direction ("to further improve the
//! performance of LOF computation") realized as a data structure: instead
//! of recomputing the whole pipeline when an object arrives or leaves,
//! only the objects whose k-distance, lrd or LOF can actually change are
//! updated.
//!
//! The update cascade follows the dependency structure of definitions 3–7
//! (the same analysis later formalized by Pokrajac et al., *Incremental
//! Local Outlier Detection for Data Streams*, CIDA 2007):
//!
//! 1. the new object `q` enters the neighborhood of exactly the objects
//!    `p` with `d(p, q) <= k-distance(p)` (its reverse k-NN) — set **A**;
//!    their neighbor lists and k-distances change;
//! 2. `lrd` must be recomputed for `q`, for every member of **A**, and for
//!    every object whose neighborhood intersects **A** (their reachability
//!    distances toward **A** changed) — set **B**;
//! 3. `LOF` must be recomputed for every member of **B** and every object
//!    whose neighborhood intersects **B** — set **C**.
//!
//! Everything outside **C** is untouched, which property tests verify by
//! comparing against a full batch recomputation after every event.
//!
//! # Differential bookkeeping
//!
//! Three maintained structures turn the per-event linear scans of the
//! original reference implementation into work proportional to the
//! cascade itself:
//!
//! - **Extended neighbor lists.** Each object stores its tie-inclusive
//!   `MinPts`-neighborhood plus up to [`EXT_SPARES`] spare neighbors
//!   beyond it, under invariant *INV*: the list holds **exactly** the
//!   objects within its own cutoff (its last stored distance). The public
//!   prefix (`public_len`) is the exact k-distance neighborhood as long
//!   as the list still covers `MinPts` entries, so an eviction usually
//!   promotes a spare in place instead of re-searching the dataset.
//! - **Reverse adjacency.** `rev[j]` lists the owners whose extended list
//!   contains `j`. Deletion finds its set **A** directly, and the **B**/
//!   **C** waves expand through `rev` instead of scanning every object.
//! - **Shard layout.** Optionally (see
//!   [`enable_sharding`](IncrementalLof::enable_sharding)) the dataset is
//!   partitioned into spatial shards with per-shard bounding boxes and
//!   ratcheting k-distance envelopes ([`crate::bounds::KdistEnvelope`]).
//!   A shard is skipped during the insert gather only when its box lower
//!   bound exceeds both the running kNN threshold *and* its envelope —
//!   the envelope proves no member's cutoff can reach the event, the
//!   Theorem 2 localization argument applied to the repair set. Scores
//!   stay bit-identical at every shard and thread count because pruning
//!   only ever skips distances that provably cannot matter.
//!
//! All decisions remain bit-identical to the unshared, unfiltered scans;
//! the SIMD surrogate prefilter keeps its exact-refinement contract.

use crate::distance::{BlockedForm, Metric};
use crate::error::{LofError, Result};
use crate::lof::lrd_ratio;
use crate::lrd::reach_dist;
use crate::neighbors::{
    cmp_neighbors, select_k_tie_inclusive_in_place, tie_inclusive_len, Neighbor,
};
use crate::obs::{publish_event, CoreEvent};
use crate::parallel::map_strided;
use crate::point::Dataset;
use crate::shard::ShardLayout;
use crate::simd::{self, Isa};

/// Spare neighbors maintained beyond the tie-inclusive `MinPts` prefix of
/// every list, so evictions can promote a spare in place instead of
/// re-searching. Lists are trimmed back once they exceed twice this
/// budget.
const EXT_SPARES: usize = 8;

/// Summary of one event's update cascade (for diagnostics and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateStats {
    /// Objects whose neighborhood absorbed or lost a member (set A).
    pub neighborhoods_updated: usize,
    /// Objects whose lrd was recomputed (set B, including the new point).
    pub lrds_recomputed: usize,
    /// Objects whose LOF was recomputed (set C).
    pub lofs_recomputed: usize,
    /// Deepest cascade layer the event reached: 0 — nothing beyond the
    /// event's own object, 1 — neighborhoods changed (set A), 2 — the lrd
    /// wave spread past the directly touched objects, 3 — the LOF wave
    /// spread past set B.
    pub cascade_depth: usize,
}

impl UpdateStats {
    /// The empty cascade (identity of [`UpdateStats::merge`]).
    pub const ZERO: UpdateStats = UpdateStats {
        neighborhoods_updated: 0,
        lrds_recomputed: 0,
        lofs_recomputed: 0,
        cascade_depth: 0,
    };

    /// Combines two cascades (e.g. an insert followed by the eviction it
    /// triggers): counters add, the depth keeps the deeper wave.
    #[must_use]
    pub fn merge(self, other: UpdateStats) -> UpdateStats {
        UpdateStats {
            neighborhoods_updated: self.neighborhoods_updated + other.neighborhoods_updated,
            lrds_recomputed: self.lrds_recomputed + other.lrds_recomputed,
            lofs_recomputed: self.lofs_recomputed + other.lofs_recomputed,
            cascade_depth: self.cascade_depth.max(other.cascade_depth),
        }
    }

    /// Serializes the cascade as a JSON object — the `"cascade"` field of
    /// the streaming NDJSON record schema (see `lof-stream`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"neighborhoods_updated\":{},\"lrds_recomputed\":{},\"lofs_recomputed\":{},\"cascade_depth\":{}}}",
            self.neighborhoods_updated,
            self.lrds_recomputed,
            self.lofs_recomputed,
            self.cascade_depth
        )
    }
}

/// Depth classification of one cascade: how many dependency layers the
/// update actually propagated through.
fn cascade_depth(direct: usize, seeds: usize, lrds: usize, lofs: usize) -> usize {
    if lofs > lrds {
        3
    } else if lrds > seeds {
        2
    } else if direct > 0 {
        1
    } else {
        0
    }
}

/// Maintained per-point squared norms for the SIMD surrogate prefilter
/// of the insert/remove scans (built only for metrics with a
/// squared-Euclidean [`BlockedForm`]).
///
/// The prefilter mirrors the blocked kernel's exactness contract: the
/// dispatched microkernel computes the norm-form surrogate row, a
/// conservative cutoff (widened by [`simd::surrogate_slack`]) discards
/// points that provably cannot participate, and every survivor is
/// re-evaluated with the exact scalar `metric.distance` — so the cascade
/// makes bit-identical decisions to the unfiltered scan.
#[derive(Debug)]
struct SurrogateFilter {
    isa: Isa,
    /// `norms[i] = ‖x_i‖²`, forward-summed — same recurrence as
    /// [`crate::BlockKernel`], maintained under push/swap-remove.
    norms: Vec<f64>,
    /// Running maximum over every norm ever present. Never decreased on
    /// removal: a stale larger value only widens the slack, which stays
    /// conservative.
    max_norm: f64,
}

impl SurrogateFilter {
    fn for_dataset(data: &Dataset) -> Self {
        let mut filter = SurrogateFilter {
            isa: simd::active(),
            norms: Vec::with_capacity(data.len()),
            max_norm: 0.0,
        };
        for id in 0..data.len() {
            filter.push(data, id);
        }
        filter
    }

    /// Appends the norm of `data`'s row `id` (called right after a push).
    fn push(&mut self, data: &Dataset, id: usize) {
        let mut acc = 0.0;
        for &v in data.point(id) {
            acc += v * v;
        }
        self.max_norm = self.max_norm.max(acc);
        self.norms.push(acc);
    }

    /// Mirrors the model's swap-remove relocation.
    fn swap_remove(&mut self, id: usize) {
        self.norms.swap_remove(id);
    }

    /// Surrogate row of `point` (whose squared norm is `qn`) against rows
    /// `0..limit`, through the dispatched microkernel. Returns the slack
    /// bounding each entry's error; publishes the panel counters.
    fn row(&self, data: &Dataset, point: &[f64], qn: f64, limit: usize, out: &mut Vec<f64>) -> f64 {
        let d = data.dims();
        out.clear();
        out.resize(limit, 0.0);
        simd::surrogate_panel(
            self.isa,
            point,
            &[qn],
            &data.as_flat()[..limit * d],
            &self.norms[..limit],
            d,
            out,
        );
        let (panels, rem_lanes) = simd::panel_counts(self.isa, 1, limit, d);
        publish_event(CoreEvent::SimdPanels(panels));
        publish_event(CoreEvent::SimdRemainderLanes(rem_lanes));
        simd::surrogate_slack(d, self.max_norm.max(qn))
    }
}

/// Two-sided widening of a squared threshold, mirroring the tree
/// providers' shell-pass margin: relative headroom for the `sqrt`
/// round-trip of stored Euclidean distances, additive floor for exact
/// zeros.
fn widen_sq(sq: f64) -> f64 {
    sq * (1.0 + 1e-9) + f64::MIN_POSITIVE
}

/// The maintained cutoff of an extended neighbor list: the distance of
/// its last (farthest) stored entry. Invariant INV: the list holds
/// exactly the objects within this cutoff.
fn ext_cutoff(list: &[Neighbor]) -> f64 {
    list.last().map_or(0.0, |nb| nb.dist)
}

/// One public reverse-adjacency edge: `owner` holds the indexed object in
/// its public prefix at distance `dist` (the stored entry distance, bit
/// -for-bit). Carrying the distance lets cascade expansion test a
/// reachability term without touching the owner's neighborhood at all.
#[derive(Debug, Clone, Copy)]
struct RevEdge {
    owner: u32,
    dist: f64,
}

/// Drops `owner`'s edge from a public reverse-adjacency row (row order
/// carries no meaning — every consumer deduplicates or sorts).
fn edge_remove(row: &mut Vec<RevEdge>, owner: usize) {
    if let Some(pos) = row.iter().position(|e| e.owner as usize == owner) {
        row.swap_remove(pos);
    }
}

/// Drops `owner` from a spare reverse-adjacency row.
fn rev_remove(row: &mut Vec<u32>, owner: usize) {
    if let Some(pos) = row.iter().position(|&o| o as usize == owner) {
        row.swap_remove(pos);
    }
}

/// Epoch bookkeeping for the deferred-scoring mode
/// ([`IncrementalLof::enable_deferred`]): structural state (neighbor
/// lists, k-distances, reverse adjacency) stays eagerly exact, while lrd
/// and LOF caches refresh lazily on read. Staleness is decided by
/// comparing recompute stamps against invalidation stamps; a refresh
/// recomputes from the current exact structures with the canonical
/// summation order, so every value read equals the eager value bit for
/// bit — deferral moves work, never changes it.
#[derive(Debug, Default)]
struct Deferred {
    /// One tick per structural update (insert or remove).
    epoch: u64,
    /// Last epoch `kdist[o]` changed bits.
    kd_stale: Vec<u64>,
    /// Last epoch `o`'s public prefix changed membership or order (which
    /// also covers every own-k-distance change: the boundary entry can
    /// only move with the prefix).
    memb_stale: Vec<u64>,
    /// Epoch `lrd[o]` was last recomputed.
    lrd_ep: Vec<u64>,
    /// Invalidation basis at which `lrd[o]` last changed bits — the
    /// one-hop summary that lets LOF validation avoid a two-hop scan.
    lrd_change: Vec<u64>,
    /// Epoch `lof[o]` was last recomputed.
    lof_ep: Vec<u64>,
    /// Whether every cache is known fresh (set by [`IncrementalLof::
    /// flush`], cleared by updates); guards the borrowed-slice readers.
    clean: bool,
}

/// Epoch-stamped membership scratch: `set`/`get` in O(1) without a per
/// event O(n) clear — `begin` bumps the epoch so every stale stamp reads
/// as unset; on epoch wraparound the stamps are zeroed once.
#[derive(Debug, Default)]
struct Marks {
    stamp: Vec<u32>,
    epoch: u32,
}

impl Marks {
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    fn set(&mut self, i: usize) {
        self.stamp[i] = self.epoch;
    }

    fn get(&self, i: usize) -> bool {
        self.stamp[i] == self.epoch
    }
}

/// The cascade scratch: the visited pool deduplicating expansion
/// candidates, and the pre-update k-distance of every seed
/// (`kd_before[s]` is meaningful only for the current event's seeds;
/// `NaN` means "had no previous k-distance — treat every term as
/// changed").
#[derive(Debug, Default)]
struct CascadeMarks {
    pool: Marks,
    kd_before: Vec<f64>,
}

/// Reusable insert-gather buffers: the surrogate row, the rank-cutoff
/// pairs, the candidate staging list and the absorb set are all
/// window-sized and per-event — recycling them keeps the hot path free
/// of allocator traffic.
#[derive(Debug, Default)]
struct GatherScratch {
    row: Vec<f64>,
    pairs: Vec<(f64, usize)>,
    cands: Vec<Neighbor>,
    absorbs: Vec<(usize, f64)>,
    demoted: Vec<Neighbor>,
}

/// A LOF model over a mutable dataset: maintains per-object neighborhoods,
/// local reachability densities and LOF values for one fixed `MinPts` under
/// point insertions and removals.
///
/// ```
/// use lof_core::{Dataset, Euclidean};
/// use lof_core::incremental::IncrementalLof;
///
/// let rows: Vec<[f64; 1]> = (0..20).map(|i| [i as f64 * 0.1]).collect();
/// let seed = Dataset::from_rows(&rows).unwrap();
/// let mut model = IncrementalLof::new(seed, Euclidean, 3).unwrap();
///
/// let (id, score, stats) = model.insert(&[10.0]).unwrap();
/// assert!(score > 3.0, "isolated insert is immediately outlying");
/// assert!(stats.lofs_recomputed < 20, "the cascade stays local");
///
/// model.remove(id).unwrap();
/// assert_eq!(model.len(), 20);
/// ```
#[derive(Debug)]
pub struct IncrementalLof<M: Metric> {
    metric: M,
    min_pts: usize,
    data: Dataset,
    /// Extended neighbor list per object (sorted canonically): the
    /// tie-inclusive `MinPts`-neighborhood followed by spare neighbors,
    /// under invariant INV (exactly the objects within the list cutoff).
    neighborhoods: Vec<Vec<Neighbor>>,
    /// Length of the public (tie-inclusive `MinPts`) prefix of each list.
    public_len: Vec<usize>,
    /// Public reverse adjacency: `rev_pub[j]` = one [`RevEdge`] per owner
    /// holding `j` inside its public (tie-inclusive `MinPts`) prefix.
    /// Cascade expansion walks these edges instead of scanning candidate
    /// neighborhoods.
    rev_pub: Vec<Vec<RevEdge>>,
    /// Spare reverse adjacency: owners holding `j` beyond their public
    /// prefix (maintained for invariant INV bookkeeping only).
    rev_spare: Vec<Vec<u32>>,
    /// Flat k-distance cache: `kdist[i]` mirrors the last entry of the
    /// public prefix of `neighborhoods[i]` (the hot loops read this
    /// instead of chasing two levels of pointers per term).
    kdist: Vec<f64>,
    /// Flat extended-cutoff cache: `cuts[i]` mirrors the last stored
    /// distance of `neighborhoods[i]` — the absorb radius invariant INV
    /// guarantees, read once per resident on every insert.
    cuts: Vec<f64>,
    lrd: Vec<f64>,
    lof: Vec<f64>,
    /// Arrival sequence number per object: seed objects get `0..n` in id
    /// order, every insert gets the next number. Follows the swap-remove
    /// relocation on deletes, so `arrival` stays attached to its point —
    /// this is the eviction-order metadata sliding-window callers need.
    arrival: Vec<u64>,
    next_arrival: u64,
    /// SIMD surrogate prefilter state (`None` for generic metrics).
    filter: Option<SurrogateFilter>,
    /// Spatial shard layout (`None` while unsharded).
    layout: Option<ShardLayout>,
    /// Lifetime count of cross-shard cascade repairs (border protocol).
    border_repairs: u64,
    /// Reusable cascade scratch.
    marks: CascadeMarks,
    /// Reusable insert-gather scratch.
    gather: GatherScratch,
    /// Deferred-scoring bookkeeping (`None` in the default eager mode).
    defer: Option<Deferred>,
}

impl<M: Metric> IncrementalLof<M> {
    /// Creates a model seeded with `data` (must hold more than `min_pts`
    /// objects so every neighborhood is well defined).
    ///
    /// # Errors
    ///
    /// Returns [`LofError::InvalidMinPts`] when `min_pts == 0` or
    /// `min_pts >= data.len()`, [`LofError::EmptyDataset`] on empty input.
    pub fn new(data: Dataset, metric: M, min_pts: usize) -> Result<Self> {
        if data.is_empty() {
            return Err(LofError::EmptyDataset);
        }
        if min_pts == 0 || min_pts >= data.len() {
            return Err(LofError::InvalidMinPts { min_pts, dataset_size: data.len() });
        }
        let n = data.len();
        let filter = (metric.blocked_form() != BlockedForm::Generic)
            .then(|| SurrogateFilter::for_dataset(&data));
        let mut model = IncrementalLof {
            metric,
            min_pts,
            data,
            neighborhoods: Vec::new(),
            public_len: Vec::new(),
            rev_pub: Vec::new(),
            rev_spare: Vec::new(),
            kdist: Vec::new(),
            cuts: Vec::new(),
            lrd: Vec::new(),
            lof: Vec::new(),
            arrival: (0..n as u64).collect(),
            next_arrival: n as u64,
            filter,
            layout: None,
            border_repairs: 0,
            marks: CascadeMarks::default(),
            gather: GatherScratch::default(),
            defer: None,
        };
        model.rebuild_all();
        Ok(model)
    }

    /// Creates a model seeded with `data` while injecting externally
    /// persisted arrival metadata — the restore path for snapshots. The
    /// maintained-state invariant (incremental state == fresh batch build
    /// over the current id order) means a restored model only needs the
    /// points in id order plus their arrival numbers to continue scoring
    /// and evicting bit-identically; neighborhoods are rebuilt
    /// deterministically by the same [`new`](Self::new) machinery.
    ///
    /// # Errors
    ///
    /// Everything [`new`](Self::new) returns, plus
    /// [`LofError::InvalidPartition`] when `arrivals.len() != data.len()`,
    /// when arrival numbers are not distinct, or when any arrival number
    /// is `>= next_arrival` (a later insert would collide with it).
    pub fn with_arrivals(
        data: Dataset,
        metric: M,
        min_pts: usize,
        arrivals: Vec<u64>,
        next_arrival: u64,
    ) -> Result<Self> {
        if arrivals.len() != data.len() {
            return Err(LofError::InvalidPartition(format!(
                "arrival metadata covers {} objects but dataset holds {}",
                arrivals.len(),
                data.len()
            )));
        }
        let mut sorted = arrivals.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(LofError::InvalidPartition("arrival numbers must be distinct".to_owned()));
        }
        if let Some(&max) = sorted.last() {
            if max >= next_arrival {
                return Err(LofError::InvalidPartition(format!(
                    "arrival number {max} is not below next_arrival {next_arrival}"
                )));
            }
        }
        let mut model = Self::new(data, metric, min_pts)?;
        model.arrival = arrivals;
        model.next_arrival = next_arrival;
        Ok(model)
    }

    /// Partitions the model across `shards` spatial shards; `1` (or `0`)
    /// disables sharding and restores the flat engine. Scores are
    /// bit-identical either way — sharding only changes which distances
    /// are *computed*, never which values are produced.
    ///
    /// `threads == 0` picks the machine's available parallelism. With one
    /// thread, shard scans run on the caller's thread in min-dist order
    /// with envelope pruning; with more, shard rows and cascade
    /// recomputations fan out across that many scoped worker threads
    /// (pruning is traded for parallelism — a running kNN threshold
    /// cannot be shared across concurrent scans).
    pub fn enable_sharding(&mut self, shards: usize, threads: usize) {
        if shards <= 1 {
            self.layout = None;
            return;
        }
        let threads = if threads == 0 {
            std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1)
        } else {
            threads
        };
        let cuts = &self.cuts;
        self.layout = Some(ShardLayout::build(&self.data, |id| cuts[id], shards, threads));
    }

    /// Number of shards the model is partitioned into (1 when unsharded).
    pub fn shards(&self) -> usize {
        self.layout.as_ref().map_or(1, |l| l.shards())
    }

    /// Switches lrd/LOF maintenance between eager (default) and deferred.
    ///
    /// Deferred mode keeps the structural state — neighbor lists,
    /// k-distances, reverse adjacency — eagerly exact on every update,
    /// but leaves score recomputation to the read side:
    /// [`lof_now`](Self::lof_now) refreshes exactly what one score needs,
    /// [`flush`](Self::flush) refreshes everything. Because a refresh
    /// recomputes from the same exact structures with the same summation
    /// order the eager cascade uses, every value observed is bit-identical
    /// to the eager mode — deferral moves the work to the reads, which is
    /// a large win for streams that score only the arriving point.
    ///
    /// Trade-offs: the borrowed-slice readers
    /// ([`lof_values`](Self::lof_values), [`lrd_values`](Self::lrd_values),
    /// [`lof`](Self::lof)) require a preceding `flush`, and update stats
    /// report only the first cascade wave (`lrds_recomputed` /
    /// `lofs_recomputed` are 0 — those waves have not run yet).
    /// Disabling flushes first, so the eager invariant is restored.
    pub fn enable_deferred(&mut self, deferred: bool) {
        if deferred == self.defer.is_some() {
            return;
        }
        if deferred {
            let n = self.data.len();
            self.defer = Some(Deferred {
                epoch: 0,
                kd_stale: vec![0; n],
                memb_stale: vec![0; n],
                lrd_ep: vec![0; n],
                lrd_change: vec![0; n],
                lof_ep: vec![0; n],
                clean: true,
            });
        } else {
            self.flush();
            self.defer = None;
        }
    }

    /// True when the model defers score maintenance to the read side.
    pub fn is_deferred(&self) -> bool {
        self.defer.is_some()
    }

    /// Current LOF of an object, refreshing the deferred caches it
    /// depends on first. In eager mode this is [`lof`](Self::lof).
    ///
    /// # Errors
    ///
    /// Returns [`LofError::UnknownObject`] for out-of-range ids.
    pub fn lof_now(&mut self, id: usize) -> Result<f64> {
        self.data.check_id(id)?;
        if self.defer.is_some() {
            self.refresh_lof(id);
        }
        Ok(self.lof[id])
    }

    /// Brings every deferred lrd/LOF cache up to date (no-op in eager
    /// mode). After a flush the borrowed-slice readers are exact again.
    pub fn flush(&mut self) {
        if self.defer.as_ref().is_none_or(|d| d.clean) {
            return;
        }
        for o in 0..self.data.len() {
            self.refresh_lrd(o);
        }
        for p in 0..self.data.len() {
            self.refresh_lof_with_fresh_lrds(p);
        }
        self.defer.as_mut().expect("checked above").clean = true;
    }

    /// Recomputes `lrd[o]` if any invalidation stamp outruns its
    /// recompute stamp: own prefix changed, or a prefix member's
    /// k-distance changed bits. Records the invalidation basis in
    /// `lrd_change` when the recomputed value differs bitwise — the
    /// one-hop summary LOF validation keys on.
    fn refresh_lrd(&mut self, o: usize) {
        let defer = self.defer.as_ref().expect("deferred mode");
        let mut basis = defer.memb_stale[o];
        for nb in &self.neighborhoods[o][..self.public_len[o]] {
            basis = basis.max(defer.kd_stale[nb.id]);
        }
        if defer.lrd_ep[o] >= basis {
            return;
        }
        let v = self.compute_lrd(o);
        let defer = self.defer.as_mut().expect("deferred mode");
        if v.to_bits() != self.lrd[o].to_bits() {
            defer.lrd_change[o] = basis;
            self.lrd[o] = v;
        }
        defer.lrd_ep[o] = defer.epoch;
    }

    /// Refreshes `lof[p]` end to end: first the lrds it averages, then —
    /// if any of them changed past `lof_ep`, or p's own prefix did — the
    /// LOF itself.
    fn refresh_lof(&mut self, p: usize) {
        self.refresh_lrd(p);
        for i in 0..self.public_len[p] {
            let j = self.neighborhoods[p][i].id;
            self.refresh_lrd(j);
        }
        self.refresh_lof_with_fresh_lrds(p);
    }

    /// LOF validity check + recompute, assuming every lrd it reads has
    /// already been refreshed (so `lrd_change` stamps are current).
    fn refresh_lof_with_fresh_lrds(&mut self, p: usize) {
        let defer = self.defer.as_ref().expect("deferred mode");
        let mut need = defer.memb_stale[p].max(defer.lrd_change[p]);
        for nb in &self.neighborhoods[p][..self.public_len[p]] {
            need = need.max(defer.lrd_change[nb.id]);
        }
        if defer.lof_ep[p] >= need {
            return;
        }
        let v = self.compute_lof(p);
        self.lof[p] = v;
        let defer = self.defer.as_mut().expect("deferred mode");
        defer.lof_ep[p] = defer.epoch;
    }

    /// Lifetime count of cross-shard cascade repairs: cascade members
    /// living outside the triggering event's home shard. Always 0 while
    /// unsharded.
    pub fn border_repairs(&self) -> u64 {
        self.border_repairs
    }

    /// Number of objects currently in the model.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the model holds no objects (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The `MinPts` the model maintains.
    pub fn min_pts(&self) -> usize {
        self.min_pts
    }

    /// The current dataset (insertion order = object ids).
    pub fn dataset(&self) -> &Dataset {
        &self.data
    }

    /// Current LOF of an object.
    ///
    /// # Errors
    ///
    /// Returns [`LofError::UnknownObject`] for out-of-range ids.
    pub fn lof(&self, id: usize) -> Result<f64> {
        self.data.check_id(id)?;
        self.debug_assert_flushed();
        Ok(self.lof[id])
    }

    /// Current LOF values of all objects, in id order.
    pub fn lof_values(&self) -> &[f64] {
        self.debug_assert_flushed();
        &self.lof
    }

    /// Current local reachability densities, in id order.
    pub fn lrd_values(&self) -> &[f64] {
        self.debug_assert_flushed();
        &self.lrd
    }

    /// Deferred models must be [`flush`](Self::flush)ed before the
    /// borrowed-slice readers see exact values; catch stale reads early
    /// in debug builds.
    fn debug_assert_flushed(&self) {
        debug_assert!(
            self.defer.as_ref().is_none_or(|d| d.clean),
            "deferred model has pending updates; call flush() (or lof_now) before reading scores"
        );
    }

    /// Arrival sequence number of an object: seed objects carry `0..n` in
    /// their original id order, each insert the next number. Stable under
    /// [`remove`](Self::remove)'s swap-remove relocation.
    ///
    /// # Errors
    ///
    /// Returns [`LofError::UnknownObject`] for out-of-range ids.
    pub fn arrival(&self, id: usize) -> Result<u64> {
        self.data.check_id(id)?;
        Ok(self.arrival[id])
    }

    /// The next arrival sequence number an [`insert`](Self::insert) would
    /// assign. Together with [`arrival`](Self::arrival) per object this is
    /// the complete eviction-order state a snapshot must persist.
    pub fn next_arrival(&self) -> u64 {
        self.next_arrival
    }

    /// Id of the longest-resident object (minimum arrival number) — the
    /// eviction candidate of a slide-oldest window. `O(n)` scan.
    pub fn oldest(&self) -> usize {
        self.extreme_by_arrival(|candidate, best| candidate < best)
    }

    /// Id of the most recently arrived object (maximum arrival number).
    pub fn newest(&self) -> usize {
        self.extreme_by_arrival(|candidate, best| candidate > best)
    }

    fn extreme_by_arrival(&self, better: impl Fn(u64, u64) -> bool) -> usize {
        let mut id = 0;
        for (other, &seq) in self.arrival.iter().enumerate().skip(1) {
            if better(seq, self.arrival[id]) {
                id = other;
            }
        }
        id
    }

    /// Inserts a point, updates the affected objects, and returns the new
    /// object's id, its LOF, and cascade statistics.
    ///
    /// # Errors
    ///
    /// Returns [`LofError::DimensionMismatch`] /
    /// [`LofError::NonFiniteCoordinate`] for invalid points.
    pub fn insert(&mut self, point: &[f64]) -> Result<(usize, f64, UpdateStats)> {
        self.insert_impl(point, true)
    }

    /// Inserts a point without forcing its score: identical to
    /// [`insert`](Self::insert) except that in deferred mode the arriving
    /// point's LOF is *not* refreshed — read it later with
    /// [`lof_now`](Self::lof_now). Callers that may evict before reading
    /// (the sliding window) avoid computing a score they would discard.
    /// In eager mode the score is maintained by the cascade regardless.
    ///
    /// # Errors
    ///
    /// Returns [`LofError::DimensionMismatch`] /
    /// [`LofError::NonFiniteCoordinate`] for invalid points.
    pub fn insert_lazy(&mut self, point: &[f64]) -> Result<(usize, UpdateStats)> {
        let (id, _, stats) = self.insert_impl(point, false)?;
        Ok((id, stats))
    }

    fn insert_impl(
        &mut self,
        point: &[f64],
        want_score: bool,
    ) -> Result<(usize, f64, UpdateStats)> {
        let q = self.data.len();
        self.data.push(point)?;
        if let Some(filter) = &mut self.filter {
            filter.push(&self.data, q);
        }
        if let Some(defer) = &mut self.defer {
            defer.epoch += 1;
            defer.clean = false;
            let e = defer.epoch;
            defer.kd_stale.push(e);
            defer.memb_stale.push(e);
            defer.lrd_ep.push(0);
            defer.lrd_change.push(e);
            defer.lof_ep.push(0);
        }
        let mut layout = self.layout.take();

        // Home shard: the nearest box, or a fresh kd split once enough
        // churn accumulated (the rebalance sees q with a zero cutoff —
        // its list does not exist yet; the envelope is ratcheted below).
        let home = match &mut layout {
            Some(layout) => {
                if layout.needs_rebalance() {
                    let cuts = &self.cuts;
                    layout.rebalance(&self.data, &|id| if id == q { 0.0 } else { cuts[id] });
                    layout.shard_of(q)
                } else {
                    layout.assign_new(&self.metric, point)
                }
            }
            None => 0,
        };

        // Gather: candidates for q's extended list, plus the absorb set —
        // residents whose maintained cutoff reaches q (set A is the
        // subset within the *public* k-distance).
        let ext_k = self.min_pts + EXT_SPARES;
        let mut gs = std::mem::take(&mut self.gather);
        gs.cands.clear();
        gs.absorbs.clear();
        let cands = &mut gs.cands;
        let absorbs = &mut gs.absorbs;
        match &layout {
            Some(layout) if layout.threads() > 1 => {
                // Parallel gather: every shard row is computed (a running
                // kNN threshold cannot be shared across concurrent
                // scans), so the candidate set is a superset of the
                // pruned serial gather; the tie-inclusive selection below
                // reduces both to the identical list.
                let this = &*self;
                let rows = map_strided(layout.shards(), layout.threads(), |s| {
                    let mut row: Vec<(u32, f64)> = Vec::with_capacity(layout.members(s).len());
                    for &m in layout.members(s) {
                        if m as usize == q {
                            continue;
                        }
                        row.push((m, this.metric.distance(point, this.data.point(m as usize))));
                    }
                    row
                });
                for row in &rows {
                    for &(m, d) in row {
                        let p = m as usize;
                        cands.push(Neighbor::new(p, d));
                        if d <= self.cuts[p] {
                            absorbs.push((p, d));
                        }
                    }
                }
            }
            Some(layout) => {
                // Serial gather in min-dist order. A shard is skipped
                // only when its box lower bound exceeds both the running
                // ext-kNN threshold (its members cannot enter q's list —
                // strict inequality keeps ties safe) and its k-distance
                // envelope (no member's cutoff can reach q, so no absorb
                // is missed — Theorem 2 localization on the repair set).
                let shards = layout.shards();
                let mut order: Vec<(f64, usize)> =
                    (0..shards).map(|s| (layout.min_dist(&self.metric, point, s), s)).collect();
                order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let mut t = f64::INFINITY;
                for &(min_dist, s) in &order {
                    if min_dist > t && layout.env(s).excludes(min_dist) {
                        continue;
                    }
                    for &m in layout.members(s) {
                        if m as usize == q {
                            continue;
                        }
                        let p = m as usize;
                        let d = self.metric.distance(point, self.data.point(p));
                        cands.push(Neighbor::new(p, d));
                        if d <= self.cuts[p] {
                            absorbs.push((p, d));
                        }
                    }
                    if cands.len() >= ext_k {
                        cands.select_nth_unstable_by(ext_k - 1, cmp_neighbors);
                        t = cands[ext_k - 1].dist;
                    }
                }
            }
            None => {
                let sur = self.filter.as_ref().map(|filter| {
                    filter.row(&self.data, self.data.point(q), filter.norms[q], q, &mut gs.row)
                });
                if let Some(slack) = sur {
                    // kNN candidates: rank-cutoff prefilter, exact
                    // refinement. The ext-rank surrogate plus twice the
                    // slack over-covers every true list member,
                    // sqrt-rounded ties included.
                    let row = &gs.row;
                    let pairs = &mut gs.pairs;
                    let rank = ext_k.min(q) - 1;
                    pairs.clear();
                    pairs.extend((0..q).map(|j| (row[j], j)));
                    pairs.select_nth_unstable_by(rank, |a, b| a.0.total_cmp(&b.0));
                    let cutoff = pairs[rank].0 + 2.0 * slack;
                    pairs.retain(|&(s, _)| s <= cutoff);
                    for &(_, j) in pairs.iter() {
                        cands.push(Neighbor::new(
                            j,
                            self.metric.distance(point, self.data.point(j)),
                        ));
                    }
                    // Absorb scan: the surrogate undershoots d(p, q)² by
                    // at most the slack, and squaring the stored
                    // (sqrt-rounded) cutoff costs a few ulps more — the
                    // widened threshold covers both.
                    let stored_to_sq = match self.metric.blocked_form() {
                        BlockedForm::SquaredEuclidean => |cut: f64| cut,
                        _ => |cut: f64| cut * cut,
                    };
                    for (p, &surrogate) in row.iter().enumerate().take(q) {
                        let cut = self.cuts[p];
                        if surrogate > widen_sq(stored_to_sq(cut)) + 2.0 * slack {
                            continue;
                        }
                        let d = self.metric.distance(point, self.data.point(p));
                        if d <= cut {
                            absorbs.push((p, d));
                        }
                    }
                } else {
                    for p in 0..q {
                        let d = self.metric.distance(point, self.data.point(p));
                        cands.push(Neighbor::new(p, d));
                        if d <= self.cuts[p] {
                            absorbs.push((p, d));
                        }
                    }
                }
            }
        }

        // q's own structures (copied out of the staging scratch at exact
        // size — neighborhood rows live long, scratch capacity does not).
        select_k_tie_inclusive_in_place(cands, ext_k);
        let l_q: Vec<Neighbor> = cands.clone();
        let cut_q = ext_cutoff(&l_q);
        let public_q = tie_inclusive_len(&l_q, self.min_pts);
        for (i, nb) in l_q.iter().enumerate() {
            if i < public_q {
                self.rev_pub[nb.id].push(RevEdge { owner: q as u32, dist: nb.dist });
            } else {
                self.rev_spare[nb.id].push(q as u32);
            }
        }
        self.public_len.push(public_q);
        self.kdist.push(l_q[public_q - 1].dist);
        self.cuts.push(cut_q);
        self.neighborhoods.push(l_q);
        self.rev_pub.push(Vec::new());
        self.rev_spare.push(Vec::new());
        self.lrd.push(0.0);
        self.lof.push(0.0);
        self.arrival.push(self.next_arrival);
        self.next_arrival += 1;
        if let Some(layout) = &mut layout {
            layout.ratchet_env(home, cut_q);
        }

        // Apply the absorbs. Set A is the subset where q falls within the
        // *public* k-distance; the wider ext absorbs keep invariant INV
        // so later searches stay exact. The pre-update k-distance of each
        // A member is kept — the B expansion below propagates only
        // through reachability terms it actually changed.
        let mut set_a: Vec<usize> = Vec::with_capacity(absorbs.len());
        let mut set_a_kd: Vec<f64> = Vec::with_capacity(absorbs.len());
        for &(p, d) in absorbs.iter() {
            let kd_old = self.kdist[p];
            let old_public = self.public_len[p];
            let incoming = Neighbor::new(q, d);
            let list = &mut self.neighborhoods[p];
            let pos = list.partition_point(|nb| cmp_neighbors(nb, &incoming).is_lt());
            list.insert(pos, incoming);
            if d <= kd_old {
                // q joins p's public prefix; entries the shrunken tie
                // boundary pushed out are demoted to spares (a spare can
                // never be promoted by an insertion — the boundary only
                // moves inward).
                let public = tie_inclusive_len(list, self.min_pts);
                gs.demoted.clear();
                gs.demoted.extend(
                    list[public..(old_public + 1).min(list.len())]
                        .iter()
                        .filter(|nb| nb.id != q)
                        .copied(),
                );
                self.public_len[p] = public;
                self.kdist[p] = self.neighborhoods[p][public - 1].dist;
                self.rev_pub[q].push(RevEdge { owner: p as u32, dist: d });
                for nb in &gs.demoted {
                    edge_remove(&mut self.rev_pub[nb.id], p);
                    self.rev_spare[nb.id].push(p as u32);
                }
                set_a.push(p);
                set_a_kd.push(kd_old);
            } else {
                self.rev_spare[q].push(p as u32);
            }
            self.trim_ext(p);
        }
        self.gather = gs;

        // Deferred mode: stamp the invalidations the structural update
        // implies and stop — the lrd/LOF waves run on read. Membership
        // stamps cover every A member (q entered their prefix) plus q;
        // k-distance stamps only the members whose cached value actually
        // changed bits, so read-side validation stops exactly where the
        // eager bitwise term filter would.
        if let Some(defer) = self.defer.as_mut() {
            let e = defer.epoch;
            for (&p, &kd) in set_a.iter().zip(&set_a_kd) {
                defer.memb_stale[p] = e;
                if self.kdist[p].to_bits() != kd.to_bits() {
                    defer.kd_stale[p] = e;
                }
            }
            if let Some(layout) = layout {
                let crossed = set_a.iter().filter(|&&o| layout.shard_of(o) != home).count() as u64;
                self.border_repairs += crossed;
                self.layout = Some(layout);
            }
            // A lazy caller reads the score later (possibly after an
            // eviction) — do not refresh what would be thrown away.
            let score =
                if want_score { self.lof_now(q).expect("q was just inserted") } else { f64::NAN };
            let stats = UpdateStats {
                neighborhoods_updated: set_a.len(),
                lrds_recomputed: 0,
                lofs_recomputed: 0,
                cascade_depth: cascade_depth(set_a.len() + 1, set_a.len() + 1, 0, 0),
            };
            publish_event(CoreEvent::IncrementalInsert);
            publish_event(CoreEvent::CascadeLofs(0));
            publish_event(CoreEvent::CascadeDepth(stats.cascade_depth as u64));
            return Ok((q, score, stats));
        }

        let n = self.data.len();
        let threads = layout.as_ref().map_or(1, |l| l.threads());
        let mut marks = std::mem::take(&mut self.marks);

        // Set B: lrd recomputation — q, A, and exactly the objects holding
        // an A-member whose reachability term *actually changed*
        // (`max(kdist, d)` compared bitwise against the pre-update
        // k-distance, on the distance the public edge carries): a
        // neighbor beyond both the old and new k-distance contributes its
        // raw distance either way, so the holder's lrd is bit-identical
        // and the wave stops there.
        if marks.kd_before.len() < n {
            marks.kd_before.resize(n, 0.0);
        }
        marks.kd_before[q] = f64::NAN;
        for (&p, &kd) in set_a.iter().zip(&set_a_kd) {
            marks.kd_before[p] = kd;
        }
        let mut seeds: Vec<usize> = Vec::with_capacity(set_a.len() + 1);
        seeds.extend_from_slice(&set_a);
        seeds.push(q);
        let seeds_len = seeds.len();
        let (kd_before, kdist) = (&marks.kd_before, &self.kdist);
        let set_b = self.expand_layer(&seeds, &seeds, &mut marks.pool, |s, d| {
            let old = kd_before[s];
            old.is_nan() || reach_dist(old, d).to_bits() != reach_dist(kdist[s], d).to_bits()
        });
        let lrds = self.map_values(&set_b, threads, |m, o| m.compute_lrd(o));
        let mut changed: Vec<usize> = Vec::with_capacity(set_b.len());
        for (&o, v) in set_b.iter().zip(lrds) {
            if self.lrd[o].to_bits() != v.to_bits() {
                changed.push(o);
            }
            self.lrd[o] = v;
        }

        // Set C: LOF recomputation — the membership seeds (their averaged
        // neighbor set itself changed), every object whose lrd changed
        // bits, and the objects holding a changed lrd in their public
        // neighborhood. B members whose recomputation reproduced the old
        // bits spread no further.
        let mut c_seeds = seeds;
        c_seeds.extend_from_slice(&changed);
        let set_c = self.expand_layer(&c_seeds, &changed, &mut marks.pool, |_, _| true);
        let lofs = self.map_values(&set_c, threads, |m, o| m.compute_lof(o));
        for (&o, v) in set_c.iter().zip(lofs) {
            self.lof[o] = v;
        }
        self.marks = marks;

        // Border accounting, then put the layout back.
        if let Some(layout) = layout {
            let crossed =
                set_c.iter().filter(|&&o| o != q && layout.shard_of(o) != home).count() as u64;
            self.border_repairs += crossed;
            self.layout = Some(layout);
        }

        let stats = UpdateStats {
            neighborhoods_updated: set_a.len(),
            lrds_recomputed: set_b.len(),
            lofs_recomputed: set_c.len(),
            cascade_depth: cascade_depth(set_a.len(), seeds_len, set_b.len(), set_c.len()),
        };
        publish_event(CoreEvent::IncrementalInsert);
        publish_event(CoreEvent::CascadeLofs(stats.lofs_recomputed as u64));
        publish_event(CoreEvent::CascadeDepth(stats.cascade_depth as u64));
        Ok((q, self.lof[q], stats))
    }

    /// Removes an object, updates the affected objects, and returns cascade
    /// statistics. Swap-remove semantics: the last object is moved into the
    /// removed slot, so the previous id `len() - 1` becomes `id`; all other
    /// ids are stable.
    ///
    /// Deletion reverses the insertion cascade: the owners that held the
    /// removed object (found directly in the reverse adjacency) lose a
    /// member — their k-distance can only *grow*. Usually a maintained
    /// spare promotes in place (exact by invariant INV); only lists whose
    /// public coverage drops below `MinPts` are re-searched. lrd/LOF
    /// recomputation then spreads exactly as for inserts.
    ///
    /// # Errors
    ///
    /// Returns [`LofError::UnknownObject`] for out-of-range ids and
    /// [`LofError::InvalidMinPts`] when removal would leave fewer than
    /// `min_pts + 1` objects (neighborhoods would become undefined).
    pub fn remove(&mut self, id: usize) -> Result<UpdateStats> {
        self.data.check_id(id)?;
        if self.data.len() <= self.min_pts + 1 {
            return Err(LofError::InvalidMinPts {
                min_pts: self.min_pts,
                dataset_size: self.data.len() - 1,
            });
        }
        let last = self.data.len() - 1;
        if let Some(defer) = &mut self.defer {
            defer.epoch += 1;
            defer.clean = false;
        }
        let mut layout = self.layout.take();

        // Set A via the reverse adjacency: exactly the owners that held
        // `id` — the split rows even say *where*. Spare holders just drop
        // the entry (their public neighborhood is untouched); public
        // holders promote spares in place (the tie boundary only moves
        // outward on a removal); depleted lists are re-searched below.
        let pub_owners = std::mem::take(&mut self.rev_pub[id]);
        let spare_owners = std::mem::take(&mut self.rev_spare[id]);
        let mut set_a: Vec<usize> = Vec::with_capacity(pub_owners.len());
        let mut set_a_kd: Vec<f64> = Vec::with_capacity(pub_owners.len());
        let mut research: Vec<usize> = Vec::new();
        for e in &pub_owners {
            let p = e.owner as usize;
            let kd_old = self.kdist[p];
            let old_public = self.public_len[p];
            let len;
            let cut;
            {
                let list = &mut self.neighborhoods[p];
                let pos = list
                    .iter()
                    .position(|nb| nb.id == id)
                    .expect("reverse adjacency tracks membership");
                debug_assert!(pos < old_public, "rev_pub edges point into the public prefix");
                list.remove(pos);
                len = list.len();
                cut = ext_cutoff(list);
            }
            self.cuts[p] = cut;
            set_a.push(p);
            set_a_kd.push(kd_old);
            if len < self.min_pts {
                self.public_len[p] = len;
                research.push(p);
            } else {
                let public = tie_inclusive_len(&self.neighborhoods[p], self.min_pts);
                self.public_len[p] = public;
                self.kdist[p] = self.neighborhoods[p][public - 1].dist;
                // Promote the spares the extended tie boundary now covers.
                for i in (old_public - 1)..public {
                    let nb = self.neighborhoods[p][i];
                    rev_remove(&mut self.rev_spare[nb.id], p);
                    self.rev_pub[nb.id].push(RevEdge { owner: p as u32, dist: nb.dist });
                }
            }
        }
        for &ow in &spare_owners {
            let p = ow as usize;
            let list = &mut self.neighborhoods[p];
            let pos = list
                .iter()
                .position(|nb| nb.id == id)
                .expect("reverse adjacency tracks membership");
            debug_assert!(pos >= self.public_len[p], "rev_spare owners hold spare entries");
            list.remove(pos);
            let cut = ext_cutoff(list);
            self.cuts[p] = cut;
        }

        // Purge the removed object's own adjacency (entry classification
        // follows the removed object's own public boundary).
        let id_list = std::mem::take(&mut self.neighborhoods[id]);
        let id_public = self.public_len[id];
        for (i, nb) in id_list.iter().enumerate() {
            if i < id_public {
                edge_remove(&mut self.rev_pub[nb.id], id);
            } else {
                rev_remove(&mut self.rev_spare[nb.id], id);
            }
        }

        // Swap-remove every parallel structure (the old `last` relocates
        // to slot `id`).
        self.data.swap_remove(id);
        self.neighborhoods.swap_remove(id);
        self.public_len.swap_remove(id);
        self.rev_pub.swap_remove(id);
        self.rev_spare.swap_remove(id);
        self.kdist.swap_remove(id);
        self.cuts.swap_remove(id);
        self.lrd.swap_remove(id);
        self.lof.swap_remove(id);
        self.arrival.swap_remove(id);
        if let Some(filter) = &mut self.filter {
            filter.swap_remove(id);
        }
        if let Some(defer) = &mut self.defer {
            defer.kd_stale.swap_remove(id);
            defer.memb_stale.swap_remove(id);
            defer.lrd_ep.swap_remove(id);
            defer.lrd_change.swap_remove(id);
            defer.lof_ep.swap_remove(id);
        }
        let home = match &mut layout {
            Some(layout) => layout.swap_remove(id),
            None => 0,
        };

        // Remap the relocated object's id (`last` -> `id`) in every list
        // that holds it and in its members' reverse rows. Canonical order
        // breaks distance ties by id and the renamed id only decreased,
        // so the single possible violation is against the predecessor run
        // of equal distances; rotating the entry into place restores
        // order. A rotation inside the public prefix changes the lrd/LOF
        // summation order (last-ulp effects) — those owners join the
        // cascade; a rotation among spares is invisible to scores. Ties
        // never straddle the public boundary (tie inclusion absorbs whole
        // runs), so the two cases are exclusive.
        let mut reordered: Vec<usize> = Vec::new();
        if id != last {
            let moved_pub = std::mem::take(&mut self.rev_pub[id]);
            let moved_spare = std::mem::take(&mut self.rev_spare[id]);
            let rename_owner_entry = |list: &mut Vec<Neighbor>,
                                      public_len: usize,
                                      reordered: &mut Vec<usize>,
                                      p: usize| {
                let pos = list
                    .iter()
                    .position(|nb| nb.id == last)
                    .expect("reverse adjacency tracks membership");
                list[pos].id = id;
                if pos > 0 && cmp_neighbors(&list[pos - 1], &list[pos]).is_gt() {
                    let entry = list[pos];
                    let dest = list[..pos].partition_point(|nb| cmp_neighbors(nb, &entry).is_lt());
                    list[dest..=pos].rotate_right(1);
                    if pos < public_len {
                        reordered.push(p);
                    }
                }
            };
            for e in &moved_pub {
                let p = e.owner as usize;
                let public_len = self.public_len[p];
                rename_owner_entry(&mut self.neighborhoods[p], public_len, &mut reordered, p);
            }
            for &ow in &moved_spare {
                let p = ow as usize;
                let public_len = self.public_len[p];
                rename_owner_entry(&mut self.neighborhoods[p], public_len, &mut reordered, p);
            }
            self.rev_pub[id] = moved_pub;
            self.rev_spare[id] = moved_spare;
            for (i, nb) in self.neighborhoods[id].iter().enumerate() {
                if i < self.public_len[id] {
                    for e in self.rev_pub[nb.id].iter_mut() {
                        if e.owner as usize == last {
                            e.owner = id as u32;
                        }
                    }
                } else {
                    for e in self.rev_spare[nb.id].iter_mut() {
                        if *e as usize == last {
                            *e = id as u32;
                        }
                    }
                }
            }
            for p in set_a.iter_mut().chain(research.iter_mut()) {
                if *p == last {
                    *p = id;
                }
            }
        }

        // Re-search depleted neighborhoods (public coverage fell below
        // MinPts — the spares were already gone). Rare by construction:
        // roughly one in (EXT_SPARES + 1) public hits.
        let mut gs = std::mem::take(&mut self.gather);
        for &p in &research {
            // The stale rows may classify entries by a boundary the
            // depletion already moved — purge from both sides.
            let stale = std::mem::take(&mut self.neighborhoods[p]);
            for nb in &stale {
                edge_remove(&mut self.rev_pub[nb.id], p);
                rev_remove(&mut self.rev_spare[nb.id], p);
            }
            let fresh = self.search_neighborhood_with(p, layout.as_ref(), &mut gs);
            let public = tie_inclusive_len(&fresh, self.min_pts);
            for (i, nb) in fresh.iter().enumerate() {
                if i < public {
                    self.rev_pub[nb.id].push(RevEdge { owner: p as u32, dist: nb.dist });
                } else {
                    self.rev_spare[nb.id].push(p as u32);
                }
            }
            self.public_len[p] = public;
            self.kdist[p] = fresh[public - 1].dist;
            self.cuts[p] = ext_cutoff(&fresh);
            if let Some(layout) = &mut layout {
                let shard = layout.shard_of(p);
                layout.ratchet_env(shard, ext_cutoff(&fresh));
            }
            self.neighborhoods[p] = fresh;
        }
        self.gather = gs;

        // Deferred mode: stamp and stop, as for insertion. Every A member
        // lost a prefix entry (and possibly promoted spares), every
        // reordered owner changed summation order; k-distance stamps
        // again only track bitwise changes.
        if let Some(defer) = self.defer.as_mut() {
            let e = defer.epoch;
            for (&p, &kd) in set_a.iter().zip(&set_a_kd) {
                defer.memb_stale[p] = e;
                if self.kdist[p].to_bits() != kd.to_bits() {
                    defer.kd_stale[p] = e;
                }
            }
            for &p in &reordered {
                defer.memb_stale[p] = e;
            }
            if let Some(layout) = layout {
                let crossed = set_a.iter().filter(|&&o| layout.shard_of(o) != home).count() as u64;
                self.border_repairs += crossed;
                self.layout = Some(layout);
            }
            let stats = UpdateStats {
                neighborhoods_updated: set_a.len(),
                lrds_recomputed: 0,
                lofs_recomputed: 0,
                cascade_depth: cascade_depth(set_a.len(), set_a.len(), 0, 0),
            };
            publish_event(CoreEvent::IncrementalRemove);
            publish_event(CoreEvent::CascadeLofs(0));
            publish_event(CoreEvent::CascadeDepth(stats.cascade_depth as u64));
            return Ok(stats);
        }

        // Sets B and C exactly as for insertion, seeded by A plus any
        // owner whose public prefix the remap re-ordered (a reordered
        // owner's k-distance is unchanged — its pre-update value is the
        // current cache entry, so only its own summation order spreads).
        let n = self.data.len();
        let threads = layout.as_ref().map_or(1, |l| l.threads());
        let mut marks = std::mem::take(&mut self.marks);
        if marks.kd_before.len() < n {
            marks.kd_before.resize(n, 0.0);
        }
        let mut seeds: Vec<usize> = Vec::with_capacity(set_a.len() + reordered.len());
        for (&p, &kd) in set_a.iter().zip(&set_a_kd) {
            marks.kd_before[p] = kd;
            seeds.push(p);
        }
        for &p in &reordered {
            if !set_a.contains(&p) {
                marks.kd_before[p] = self.kdist[p];
                seeds.push(p);
            }
        }
        seeds.sort_unstable();
        let seeds_len = seeds.len();
        let (kd_before, kdist) = (&marks.kd_before, &self.kdist);
        let set_b = self.expand_layer(&seeds, &seeds, &mut marks.pool, |s, d| {
            let old = kd_before[s];
            old.is_nan() || reach_dist(old, d).to_bits() != reach_dist(kdist[s], d).to_bits()
        });
        let lrds = self.map_values(&set_b, threads, |m, o| m.compute_lrd(o));
        let mut changed: Vec<usize> = Vec::with_capacity(set_b.len());
        for (&o, v) in set_b.iter().zip(lrds) {
            if self.lrd[o].to_bits() != v.to_bits() {
                changed.push(o);
            }
            self.lrd[o] = v;
        }
        let mut c_seeds = seeds;
        c_seeds.extend_from_slice(&changed);
        let set_c = self.expand_layer(&c_seeds, &changed, &mut marks.pool, |_, _| true);
        let lofs = self.map_values(&set_c, threads, |m, o| m.compute_lof(o));
        for (&o, v) in set_c.iter().zip(lofs) {
            self.lof[o] = v;
        }
        self.marks = marks;

        if let Some(layout) = layout {
            let crossed = set_c.iter().filter(|&&o| layout.shard_of(o) != home).count() as u64;
            self.border_repairs += crossed;
            self.layout = Some(layout);
        }

        let stats = UpdateStats {
            neighborhoods_updated: set_a.len(),
            lrds_recomputed: set_b.len(),
            lofs_recomputed: set_c.len(),
            cascade_depth: cascade_depth(seeds_len, seeds_len, set_b.len(), set_c.len()),
        };
        publish_event(CoreEvent::IncrementalRemove);
        publish_event(CoreEvent::CascadeLofs(stats.lofs_recomputed as u64));
        publish_event(CoreEvent::CascadeDepth(stats.cascade_depth as u64));
        Ok(stats)
    }

    /// The maintained tie-inclusive neighborhood of an object, in canonical
    /// `(dist, id)` order — exposed for diagnostics and equivalence tests.
    /// Spare neighbors beyond the `MinPts` boundary are not included.
    ///
    /// # Errors
    ///
    /// Returns [`LofError::UnknownObject`] for out-of-range ids.
    pub fn neighborhood(&self, id: usize) -> Result<&[Neighbor]> {
        self.data.check_id(id)?;
        Ok(&self.neighborhoods[id][..self.public_len[id]])
    }

    /// Expands one cascade layer: every member plus every object whose
    /// public neighborhood holds a spreader whose entry the `hit`
    /// predicate accepts. The public reverse adjacency carries the entry
    /// distance on the edge, so expansion is a pure edge sweep — no
    /// candidate prefix is ever loaded. The predicate decides
    /// *propagation*: always-true for plain holder collection, or a
    /// bitwise term-change test to stop the wave at entries whose
    /// contribution is provably unchanged. `pool` is consumed as a fresh
    /// visited-set; an object is marked only once it joins the layer, so
    /// every incident edge gets its own chance to admit it. Returns the
    /// layer sorted ascending (deterministic across shard layouts and
    /// thread counts).
    fn expand_layer(
        &self,
        members: &[usize],
        spreaders: &[usize],
        pool: &mut Marks,
        hit: impl Fn(usize, f64) -> bool,
    ) -> Vec<usize> {
        pool.begin(self.data.len());
        let mut layer: Vec<usize> = Vec::with_capacity(members.len());
        for &s in members {
            if !pool.get(s) {
                pool.set(s);
                layer.push(s);
            }
        }
        for &s in spreaders {
            for e in &self.rev_pub[s] {
                let o = e.owner as usize;
                if !pool.get(o) && hit(s, e.dist) {
                    pool.set(o);
                    layer.push(o);
                }
            }
        }
        layer.sort_unstable();
        layer
    }

    /// Maps a pure per-object function over `ids`, fanning out across
    /// worker threads when the layout runs threaded and the batch is
    /// large enough to pay for it. Values are returned in `ids` order, so
    /// the result is bit-identical to the serial loop.
    fn map_values(
        &self,
        ids: &[usize],
        threads: usize,
        f: impl Fn(&Self, usize) -> f64 + Sync,
    ) -> Vec<f64> {
        let threads = if ids.len() >= 32 { threads } else { 1 };
        map_strided(ids.len(), threads, |i| f(self, ids[i]))
    }

    /// Extended-neighborhood search for one resident object (construction,
    /// and the deletion path's depleted lists): a box-ordered shard scan
    /// when a layout is available, a SIMD surrogate prefilter for
    /// blocked-form metrics, the plain scan otherwise. Bit-identical
    /// results all three ways — skipped candidates are provably beyond the
    /// tie-inclusive cutoff, and survivors are refined with the exact
    /// scalar distance.
    fn search_neighborhood(&self, p: usize, layout: Option<&ShardLayout>) -> Vec<Neighbor> {
        let mut gs = GatherScratch::default();
        self.search_neighborhood_with(p, layout, &mut gs)
    }

    /// [`search_neighborhood`](Self::search_neighborhood) staging its
    /// candidates in a caller-provided scratch (the hot research path
    /// recycles the insert-gather buffers instead of allocating).
    fn search_neighborhood_with(
        &self,
        p: usize,
        layout: Option<&ShardLayout>,
        gs: &mut GatherScratch,
    ) -> Vec<Neighbor> {
        let n = self.data.len();
        let point = self.data.point(p);
        let ext_k = (self.min_pts + EXT_SPARES).min(n - 1);
        let cands = &mut gs.cands;
        cands.clear();
        if let Some(layout) = layout {
            let shards = layout.shards();
            let mut order: Vec<(f64, usize)> =
                (0..shards).map(|s| (layout.min_dist(&self.metric, point, s), s)).collect();
            order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut t = f64::INFINITY;
            for &(min_dist, s) in &order {
                if min_dist > t {
                    continue;
                }
                for &m in layout.members(s) {
                    if m as usize == p {
                        continue;
                    }
                    let d = self.metric.distance(point, self.data.point(m as usize));
                    cands.push(Neighbor::new(m as usize, d));
                }
                if cands.len() >= ext_k {
                    cands.select_nth_unstable_by(ext_k - 1, cmp_neighbors);
                    t = cands[ext_k - 1].dist;
                }
            }
        } else if let Some(filter) = &self.filter {
            let slack = filter.row(&self.data, point, filter.norms[p], n, &mut gs.row);
            let row = &gs.row;
            let pairs = &mut gs.pairs;
            let rank = ext_k - 1;
            pairs.clear();
            pairs.extend((0..n).filter(|&j| j != p).map(|j| (row[j], j)));
            pairs.select_nth_unstable_by(rank, |a, b| a.0.total_cmp(&b.0));
            let cutoff = pairs[rank].0 + 2.0 * slack;
            pairs.retain(|&(s, _)| s <= cutoff);
            for &(_, j) in pairs.iter() {
                cands.push(Neighbor::new(j, self.metric.distance(point, self.data.point(j))));
            }
        } else {
            for (other, x) in self.data.iter() {
                if other != p {
                    cands.push(Neighbor::new(other, self.metric.distance(point, x)));
                }
            }
        }
        select_k_tie_inclusive_in_place(cands, self.min_pts + EXT_SPARES);
        cands.clone()
    }

    /// `k-distance` of an object, read from the maintained flat cache
    /// (kept bit-identical to the last entry of the public prefix).
    fn k_distance(&self, id: usize) -> f64 {
        self.kdist[id]
    }

    /// Sheds surplus spares once a list outgrows twice the spare budget,
    /// keeping the tie-inclusive `MinPts + EXT_SPARES` prefix so invariant
    /// INV holds with the shrunk cutoff.
    fn trim_ext(&mut self, p: usize) {
        let cap = self.min_pts + 2 * EXT_SPARES;
        let list = &mut self.neighborhoods[p];
        if list.len() <= cap {
            return;
        }
        let keep = tie_inclusive_len(list, self.min_pts + EXT_SPARES);
        if keep >= list.len() {
            return;
        }
        // Everything past `keep` is a spare: `keep` is tie-inclusive at
        // `min_pts + EXT_SPARES`, which is at least the public length.
        let dropped: Vec<usize> = list[keep..].iter().map(|nb| nb.id).collect();
        list.truncate(keep);
        let cut = ext_cutoff(list);
        self.cuts[p] = cut;
        for j in dropped {
            rev_remove(&mut self.rev_spare[j], p);
        }
    }

    fn compute_lrd(&self, p: usize) -> f64 {
        let neighborhood = &self.neighborhoods[p][..self.public_len[p]];
        let mut sum = 0.0;
        for nb in neighborhood {
            sum += reach_dist(self.k_distance(nb.id), nb.dist);
        }
        let mean = sum / neighborhood.len() as f64;
        if mean > 0.0 {
            1.0 / mean
        } else {
            f64::INFINITY
        }
    }

    fn compute_lof(&self, p: usize) -> f64 {
        let neighborhood = &self.neighborhoods[p][..self.public_len[p]];
        let mut sum = 0.0;
        for nb in neighborhood {
            sum += lrd_ratio(self.lrd[nb.id], self.lrd[p]);
        }
        sum / neighborhood.len() as f64
    }

    /// Recomputes everything from scratch (used at construction; tests use
    /// it as the oracle).
    fn rebuild_all(&mut self) {
        let n = self.data.len();
        self.neighborhoods = (0..n).map(|id| self.search_neighborhood(id, None)).collect();
        self.public_len =
            self.neighborhoods.iter().map(|list| tie_inclusive_len(list, self.min_pts)).collect();
        self.kdist =
            (0..n).map(|id| self.neighborhoods[id][self.public_len[id] - 1].dist).collect();
        self.cuts = self.neighborhoods.iter().map(|list| ext_cutoff(list)).collect();
        self.rev_pub = vec![Vec::new(); n];
        self.rev_spare = vec![Vec::new(); n];
        for owner in 0..n {
            let public = self.public_len[owner];
            for (i, nb) in self.neighborhoods[owner].iter().enumerate() {
                if i < public {
                    self.rev_pub[nb.id].push(RevEdge { owner: owner as u32, dist: nb.dist });
                } else {
                    self.rev_spare[nb.id].push(owner as u32);
                }
            }
        }
        self.lrd = (0..n).map(|id| self.compute_lrd(id)).collect();
        self.lof = (0..n).map(|id| self.compute_lof(id)).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::Euclidean;
    use crate::lof::lof as batch_lof;

    fn seed_dataset() -> Dataset {
        let rows: Vec<[f64; 2]> = (0..30).map(|i| [(i % 6) as f64, (i / 6) as f64]).collect();
        Dataset::from_rows(&rows).unwrap()
    }

    fn assert_matches_batch(model: &IncrementalLof<Euclidean>) {
        let expected = batch_lof(model.dataset(), Euclidean, model.min_pts()).unwrap();
        for (id, (a, b)) in model.lof_values().iter().zip(&expected).enumerate() {
            let ok = (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite());
            assert!(ok, "id {id}: incremental {a} vs batch {b}");
        }
    }

    #[test]
    fn construction_matches_batch() {
        let model = IncrementalLof::new(seed_dataset(), Euclidean, 4).unwrap();
        assert_matches_batch(&model);
    }

    #[test]
    fn inserts_match_batch_recompute() {
        let mut model = IncrementalLof::new(seed_dataset(), Euclidean, 4).unwrap();
        let inserts: Vec<[f64; 2]> = vec![
            [2.5, 2.5],   // interior
            [20.0, 20.0], // far outlier
            [6.0, 0.0],   // edge extension
            [2.5, 2.5],   // duplicate of an earlier insert
            [19.9, 20.1], // near the outlier: densifies it
            [0.0, 0.0],   // duplicate of a seed point
        ];
        for (step, p) in inserts.iter().enumerate() {
            let (id, _, _) = model.insert(p).unwrap();
            assert_eq!(id, 30 + step);
            assert_matches_batch(&model);
        }
    }

    #[test]
    fn outlier_score_reacts_to_densification() {
        let mut model = IncrementalLof::new(seed_dataset(), Euclidean, 4).unwrap();
        let (outlier, score_alone, _) = model.insert(&[30.0, 30.0]).unwrap();
        assert!(score_alone > 3.0, "isolated insert scores high: {score_alone}");
        // Surround it with friends: its LOF must fall toward 1.
        for delta in [[0.4, 0.0], [0.0, 0.4], [-0.4, 0.0], [0.0, -0.4], [0.3, 0.3]] {
            model.insert(&[30.0 + delta[0], 30.0 + delta[1]]).unwrap();
        }
        let rescored = model.lof(outlier).unwrap();
        assert!(
            rescored < score_alone / 2.0,
            "densified region must de-outlier: {score_alone} -> {rescored}"
        );
        assert_matches_batch(&model);
    }

    #[test]
    fn cascade_is_local_for_far_inserts() {
        // Two far-apart clusters: inserting into one must not touch the
        // other cluster's values at all.
        let mut rows: Vec<[f64; 2]> = (0..25).map(|i| [(i % 5) as f64, (i / 5) as f64]).collect();
        rows.extend((0..25).map(|i| [500.0 + (i % 5) as f64, (i / 5) as f64]));
        let data = Dataset::from_rows(&rows).unwrap();
        let mut model = IncrementalLof::new(data, Euclidean, 4).unwrap();
        let before: Vec<f64> = model.lof_values()[25..50].to_vec();
        let (_, _, stats) = model.insert(&[2.5, 2.5]).unwrap();
        assert!(
            stats.lofs_recomputed <= 26,
            "cascade must stay inside the touched cluster: {stats:?}"
        );
        assert_eq!(&model.lof_values()[25..50], before.as_slice());
        assert_matches_batch(&model);
    }

    #[test]
    fn validation() {
        assert!(matches!(
            IncrementalLof::new(Dataset::new(2), Euclidean, 3),
            Err(LofError::EmptyDataset)
        ));
        assert!(IncrementalLof::new(seed_dataset(), Euclidean, 0).is_err());
        assert!(IncrementalLof::new(seed_dataset(), Euclidean, 30).is_err());
        let mut model = IncrementalLof::new(seed_dataset(), Euclidean, 3).unwrap();
        assert!(model.insert(&[1.0]).is_err(), "dimension mismatch");
        assert!(model.lof(999).is_err());
    }

    #[test]
    fn removals_match_batch_recompute() {
        let mut model = IncrementalLof::new(seed_dataset(), Euclidean, 4).unwrap();
        // Remove from the middle, the front, and the back, re-validating
        // against the batch oracle each time.
        model.remove(14).unwrap();
        assert_matches_batch(&model);
        model.remove(0).unwrap();
        assert_matches_batch(&model);
        let back = model.len() - 1;
        model.remove(back).unwrap();
        assert_matches_batch(&model);
        model.remove(7).unwrap();
        assert_matches_batch(&model);
        assert_eq!(model.len(), 26);
    }

    #[test]
    fn remove_uses_swap_remove_semantics() {
        let mut model = IncrementalLof::new(seed_dataset(), Euclidean, 4).unwrap();
        let last_point = model.dataset().point(model.len() - 1).to_vec();
        model.remove(3).unwrap();
        assert_eq!(model.dataset().point(3), last_point.as_slice());
        assert_eq!(model.len(), 29);
    }

    #[test]
    fn insert_then_remove_roundtrips() {
        let base = IncrementalLof::new(seed_dataset(), Euclidean, 4).unwrap();
        let mut model = IncrementalLof::new(seed_dataset(), Euclidean, 4).unwrap();
        let (id, _, _) = model.insert(&[100.0, 100.0]).unwrap();
        model.remove(id).unwrap();
        for (a, b) in base.lof_values().iter().zip(model.lof_values()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        assert_matches_batch(&model);
    }

    #[test]
    fn removal_of_an_outliers_neighborhood_raises_it_back() {
        let mut model = IncrementalLof::new(seed_dataset(), Euclidean, 4).unwrap();
        let (outlier, _, _) = model.insert(&[30.0, 30.0]).unwrap();
        let mut friends = Vec::new();
        for delta in [[0.4, 0.0], [0.0, 0.4], [-0.4, 0.0], [0.0, -0.4], [0.3, 0.3]] {
            let (id, _, _) = model.insert(&[30.0 + delta[0], 30.0 + delta[1]]).unwrap();
            friends.push(id);
        }
        let densified = model.lof(outlier).unwrap();
        // Remove the friends (highest id first so earlier ids stay valid).
        friends.sort_unstable();
        for &id in friends.iter().rev() {
            model.remove(id).unwrap();
        }
        let re_isolated = model.lof(outlier).unwrap();
        assert!(
            re_isolated > densified * 1.5,
            "losing its neighborhood must re-outlier it: {densified} -> {re_isolated}"
        );
        assert_matches_batch(&model);
    }

    #[test]
    fn remove_validation() {
        let mut model = IncrementalLof::new(seed_dataset(), Euclidean, 4).unwrap();
        assert!(model.remove(999).is_err());
        // Shrink to the minimum viable size (min_pts + 1 = 5 objects),
        // then one more removal must fail.
        while model.len() > 5 {
            model.remove(0).unwrap();
        }
        assert!(matches!(model.remove(0), Err(LofError::InvalidMinPts { .. })));
    }

    #[test]
    fn arrival_metadata_survives_swap_remove() {
        let mut model = IncrementalLof::new(seed_dataset(), Euclidean, 4).unwrap();
        assert_eq!(model.oldest(), 0);
        assert_eq!(model.newest(), 29);
        let (id, _, _) = model.insert(&[100.0, 100.0]).unwrap();
        assert_eq!(model.arrival(id).unwrap(), 30);
        assert_eq!(model.newest(), id);
        // Evict the oldest three in arrival order; the swap-remove must
        // keep arrival numbers attached to their (moved) points.
        for expected in 0..3 {
            let oldest = model.oldest();
            assert_eq!(model.arrival(oldest).unwrap(), expected);
            model.remove(oldest).unwrap();
        }
        assert_eq!(model.arrival(model.oldest()).unwrap(), 3);
        // The inserted point was relocated by the evictions but keeps its
        // arrival number.
        let newest = model.newest();
        assert_eq!(model.arrival(newest).unwrap(), 30);
        assert_eq!(model.dataset().point(newest), &[100.0, 100.0]);
        assert!(model.arrival(999).is_err());
    }

    #[test]
    fn with_arrivals_resumes_eviction_order_and_matches_new() {
        // Drive a model through inserts and evictions, then clone its
        // surviving state through the restore constructor: scores must be
        // bit-identical and the eviction order must continue where the
        // original left off.
        let mut original = IncrementalLof::new(seed_dataset(), Euclidean, 4).unwrap();
        for p in [[9.0, 9.0], [9.5, 9.5], [8.5, 9.0], [9.0, 8.5]] {
            original.insert(&p).unwrap();
            let oldest = original.oldest();
            original.remove(oldest).unwrap();
        }
        let data = original.dataset().clone();
        let arrivals: Vec<u64> =
            (0..original.len()).map(|id| original.arrival(id).unwrap()).collect();
        let restored = IncrementalLof::with_arrivals(
            data,
            Euclidean,
            original.min_pts(),
            arrivals,
            original.next_arrival,
        )
        .unwrap();
        for (a, b) in original.lof_values().iter().zip(restored.lof_values()) {
            assert_eq!(a.to_bits(), b.to_bits(), "restored LOF must be bit-identical");
        }
        assert_eq!(restored.oldest(), original.oldest());
        assert_eq!(restored.newest(), original.newest());
        // Continued operation stays in lockstep.
        let mut restored = restored;
        let (a_id, a_lof, _) = original.insert(&[7.5, 7.5]).unwrap();
        let (b_id, b_lof, _) = restored.insert(&[7.5, 7.5]).unwrap();
        assert_eq!(a_id, b_id);
        assert_eq!(a_lof.to_bits(), b_lof.to_bits());
        assert_eq!(original.oldest(), restored.oldest());
    }

    #[test]
    fn with_arrivals_rejects_inconsistent_metadata() {
        let data = seed_dataset();
        let n = data.len();
        // Length mismatch.
        assert!(IncrementalLof::with_arrivals(data.clone(), Euclidean, 4, vec![0; 3], 10).is_err());
        // Duplicate arrival numbers.
        assert!(IncrementalLof::with_arrivals(data.clone(), Euclidean, 4, vec![0; n], n as u64)
            .is_err());
        // next_arrival not past the maximum.
        let arrivals: Vec<u64> = (0..n as u64).collect();
        assert!(IncrementalLof::with_arrivals(
            data.clone(),
            Euclidean,
            4,
            arrivals.clone(),
            n as u64 - 1
        )
        .is_err());
        // Consistent metadata is accepted.
        assert!(IncrementalLof::with_arrivals(data, Euclidean, 4, arrivals, n as u64).is_ok());
    }

    #[test]
    fn update_stats_merge_and_json() {
        let a = UpdateStats {
            neighborhoods_updated: 1,
            lrds_recomputed: 2,
            lofs_recomputed: 3,
            cascade_depth: 2,
        };
        let b = UpdateStats {
            neighborhoods_updated: 10,
            lrds_recomputed: 20,
            lofs_recomputed: 30,
            cascade_depth: 3,
        };
        let merged = a.merge(b);
        assert_eq!(merged.neighborhoods_updated, 11);
        assert_eq!(merged.cascade_depth, 3, "depth merges as the deeper wave");
        assert_eq!(UpdateStats::ZERO.merge(a), a);
        assert_eq!(
            a.to_json(),
            "{\"neighborhoods_updated\":1,\"lrds_recomputed\":2,\"lofs_recomputed\":3,\"cascade_depth\":2}"
        );
    }

    #[test]
    fn cascade_depth_tracks_the_wave_front() {
        let mut model = IncrementalLof::new(seed_dataset(), Euclidean, 4).unwrap();
        // A far-away insert touches nobody: depth 0.
        let (far, _, stats) = model.insert(&[1000.0, 1000.0]).unwrap();
        assert_eq!(stats.neighborhoods_updated, 0);
        assert_eq!(stats.cascade_depth, 0, "isolated insert: {stats:?}");
        model.remove(far).unwrap();
        // An interior insert reaches the full three-layer wave.
        let (_, _, stats) = model.insert(&[2.5, 2.5]).unwrap();
        assert_eq!(stats.cascade_depth, 3, "interior insert: {stats:?}");
        assert_matches_batch(&model);
    }

    #[test]
    fn ties_survive_insertion() {
        // Insert a point at exactly the k-distance of others: tie-inclusion
        // must hold afterwards (verified via the batch oracle).
        let rows: Vec<[f64; 1]> = (0..12).map(|i| [i as f64]).collect();
        let data = Dataset::from_rows(&rows).unwrap();
        let mut model = IncrementalLof::new(data, Euclidean, 2).unwrap();
        model.insert(&[5.5]).unwrap();
        model.insert(&[5.5]).unwrap();
        assert_matches_batch(&model);
    }

    /// Clustered churn with exact duplicates and tie shells — adversarial
    /// for the spare-promotion and border-repair paths.
    fn churn_stream() -> Vec<[f64; 2]> {
        let mut stream = Vec::new();
        for i in 0..90u32 {
            let cluster = (i % 3) as f64 * 40.0;
            let x = ((i * 7) % 5) as f64;
            let y = ((i * 11) % 4) as f64;
            stream.push([cluster + x, y]);
            if i % 9 == 0 {
                stream.push([cluster + x, y]); // exact duplicate
            }
        }
        stream
    }

    #[test]
    fn sharded_matches_unsharded_bit_for_bit_under_churn() {
        for &(shards, threads) in &[(2usize, 1usize), (4, 1), (8, 1), (4, 2)] {
            let mut flat = IncrementalLof::new(seed_dataset(), Euclidean, 4).unwrap();
            let mut sharded = IncrementalLof::new(seed_dataset(), Euclidean, 4).unwrap();
            sharded.enable_sharding(shards, threads);
            assert_eq!(sharded.shards(), shards);
            assert_eq!(flat.shards(), 1);
            for point in churn_stream() {
                let (fa, fl, fs) = flat.insert(&point).unwrap();
                let (sa, sl, ss) = sharded.insert(&point).unwrap();
                assert_eq!(fa, sa);
                assert_eq!(fl.to_bits(), sl.to_bits(), "{shards} shards, {threads} threads");
                assert_eq!(fs, ss, "{shards} shards, {threads} threads");
                let oldest = flat.oldest();
                assert_eq!(oldest, sharded.oldest());
                assert_eq!(flat.remove(oldest).unwrap(), sharded.remove(oldest).unwrap());
                for idx in 0..flat.len() {
                    assert_eq!(
                        flat.lof_values()[idx].to_bits(),
                        sharded.lof_values()[idx].to_bits(),
                        "{shards} shards, {threads} threads, object {idx}"
                    );
                }
            }
            assert_eq!(flat.border_repairs(), 0, "unsharded model never crosses borders");
        }
    }

    #[test]
    fn sharded_eviction_storms_match_the_batch_oracle() {
        let mut model = IncrementalLof::new(seed_dataset(), Euclidean, 4).unwrap();
        model.enable_sharding(4, 1);
        for point in churn_stream().into_iter().take(30) {
            model.insert(&point).unwrap();
        }
        // Sustained evictions deplete spare lists and force re-searches.
        for _ in 0..25 {
            let oldest = model.oldest();
            model.remove(oldest).unwrap();
            assert_matches_batch(&model);
        }
        assert!(model.border_repairs() > 0, "cross-shard cascades must be accounted");
    }

    #[test]
    fn enable_sharding_toggles_back_to_the_flat_engine() {
        let mut model = IncrementalLof::new(seed_dataset(), Euclidean, 4).unwrap();
        model.enable_sharding(4, 1);
        model.insert(&[2.5, 2.5]).unwrap();
        model.enable_sharding(1, 1);
        assert_eq!(model.shards(), 1);
        model.insert(&[2.6, 2.4]).unwrap();
        assert_matches_batch(&model);
    }

    #[test]
    fn deferred_matches_eager_bit_for_bit_under_churn() {
        let mut eager = IncrementalLof::new(seed_dataset(), Euclidean, 4).unwrap();
        let mut lazy = IncrementalLof::new(seed_dataset(), Euclidean, 4).unwrap();
        lazy.enable_deferred(true);
        assert!(lazy.is_deferred());
        for point in churn_stream() {
            let (ea, el, _) = eager.insert(&point).unwrap();
            let (la, ll, _) = lazy.insert(&point).unwrap();
            assert_eq!(ea, la);
            assert_eq!(el.to_bits(), ll.to_bits(), "arriving score diverged");
            let oldest = eager.oldest();
            assert_eq!(oldest, lazy.oldest());
            eager.remove(oldest).unwrap();
            lazy.remove(oldest).unwrap();
            lazy.flush();
            for idx in 0..eager.len() {
                assert_eq!(
                    eager.lof_values()[idx].to_bits(),
                    lazy.lof_values()[idx].to_bits(),
                    "object {idx} after flush"
                );
                assert_eq!(
                    eager.lrd_values()[idx].to_bits(),
                    lazy.lrd_values()[idx].to_bits(),
                    "lrd {idx} after flush"
                );
            }
        }
    }

    #[test]
    fn deferred_single_reads_are_exact_without_a_flush() {
        // lof_now must refresh exactly the dependency cone of one object;
        // interleave reads of a far cluster with churn in another.
        let mut eager = IncrementalLof::new(seed_dataset(), Euclidean, 4).unwrap();
        let mut lazy = IncrementalLof::new(seed_dataset(), Euclidean, 4).unwrap();
        lazy.enable_deferred(true);
        for (i, point) in churn_stream().into_iter().enumerate() {
            eager.insert(&point).unwrap();
            lazy.insert(&point).unwrap();
            let probe = (i * 13) % eager.len();
            assert_eq!(
                eager.lof(probe).unwrap().to_bits(),
                lazy.lof_now(probe).unwrap().to_bits(),
                "stale read at step {i}, probe {probe}"
            );
            if i % 3 == 0 {
                let oldest = eager.oldest();
                eager.remove(oldest).unwrap();
                lazy.remove(oldest).unwrap();
                let probe = (i * 7) % eager.len();
                assert_eq!(
                    eager.lof(probe).unwrap().to_bits(),
                    lazy.lof_now(probe).unwrap().to_bits(),
                    "stale read after removal at step {i}"
                );
            }
        }
        lazy.flush();
        assert_matches_batch(&lazy);
    }

    #[test]
    fn deferred_composes_with_sharding() {
        let mut flat = IncrementalLof::new(seed_dataset(), Euclidean, 4).unwrap();
        let mut model = IncrementalLof::new(seed_dataset(), Euclidean, 4).unwrap();
        model.enable_sharding(4, 1);
        model.enable_deferred(true);
        for point in churn_stream() {
            let (_, fl, _) = flat.insert(&point).unwrap();
            let (_, ml, _) = model.insert(&point).unwrap();
            assert_eq!(fl.to_bits(), ml.to_bits());
            let oldest = flat.oldest();
            flat.remove(oldest).unwrap();
            model.remove(oldest).unwrap();
        }
        model.flush();
        for idx in 0..flat.len() {
            assert_eq!(flat.lof_values()[idx].to_bits(), model.lof_values()[idx].to_bits());
        }
        assert!(model.border_repairs() > 0, "first-wave border crossings are accounted");
    }

    #[test]
    fn disabling_deferred_flushes_and_restores_eager_reads() {
        let mut model = IncrementalLof::new(seed_dataset(), Euclidean, 4).unwrap();
        model.enable_deferred(true);
        for point in churn_stream().into_iter().take(20) {
            model.insert(&point).unwrap();
            model.remove(model.oldest()).unwrap();
        }
        model.enable_deferred(false);
        assert!(!model.is_deferred());
        assert_matches_batch(&model);
        model.insert(&[2.5, 2.5]).unwrap();
        assert_matches_batch(&model);
    }
}
