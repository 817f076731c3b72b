//! Incremental LOF maintenance under insertions and removals — the
//! paper's second ongoing-work direction ("to further improve the
//! performance of LOF computation") realized as a data structure: instead
//! of recomputing the whole pipeline when an object arrives or leaves,
//! only the objects whose k-distance, lrd or LOF can actually change are
//! updated.
//!
//! The update follows the dependency structure of definitions 3–7 (the
//! same analysis later formalized by Pokrajac et al., *Incremental Local
//! Outlier Detection for Data Streams*, CIDA 2007):
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
//! # Deferred scoring
//!
//! An update maintains set **A** exactly — neighbor lists, k-distances,
//! reverse adjacency — and only *stamps* what it invalidated: an epoch
//! per changed neighborhood and per k-distance that changed bits. Sets
//! **B** and **C** are recomputed on read. [`IncrementalLof::lof`]
//! refreshes exactly the lrds and the LOF one score depends on;
//! [`IncrementalLof::flush`] refreshes every stale cache, visiting only
//! the objects stamped since the previous flush and the reverse
//! neighbors their changes reach. A refresh recomputes from the current
//! exact structures in the canonical summation order, so every value
//! read is bit-identical to a batch computation over the current
//! dataset — deferral moves work to the reads, it never changes a value. Streams that read only the arriving
//! score skip most of **B** and **C** altogether. Every score reader
//! takes `&mut self`, so no caller can observe a stale cache.
//!
//! Property tests compare every read against a fresh batch build after
//! every event.
//!
//! # Differential bookkeeping
//!
//! Two maintained structures turn the per-event linear scans of the
//! original reference implementation into work proportional to the
//! update itself:
//!
//! - **Extended neighbor lists.** Each object stores its tie-inclusive
//!   `MinPts`-neighborhood plus up to [`EXT_SPARES`] spare neighbors
//!   beyond it, under invariant *INV*: the list holds **exactly** the
//!   objects within its own cutoff (its last stored distance). The public
//!   prefix (`public_len`) is the exact k-distance neighborhood as long
//!   as the list still covers `MinPts` entries, so an eviction usually
//!   promotes a spare in place instead of re-searching the dataset.
//! - **Reverse adjacency.** `rev_pub[j]` / `rev_spare[j]` list the owners
//!   whose public prefix / spares contain `j`. Deletion finds its set
//!   **A** directly instead of scanning every object.
//!
//! All decisions remain bit-identical to the unfiltered scans; the SIMD
//! surrogate prefilter keeps its exact-refinement contract.

use crate::distance::{BlockedForm, Metric};
use crate::error::{LofError, Result};
use crate::knn::widen_sq;
use crate::lof::lrd_ratio;
use crate::lrd::reach_dist;
use crate::neighbors::{
    cmp_neighbors, select_k_tie_inclusive_in_place, tie_inclusive_len, Neighbor,
};
use crate::obs::{publish_event, CoreEvent};
use crate::point::Dataset;
use crate::simd::{self, Isa};

/// Spare neighbors maintained beyond the tie-inclusive `MinPts` prefix of
/// every list, so evictions can promote a spare in place instead of
/// re-searching. Lists are trimmed back once they exceed twice this
/// budget.
const EXT_SPARES: usize = 8;

/// Summary of one event's structural update (for diagnostics and the
/// streaming record schema).
///
/// The lrd and LOF layers run on read, not per event, so
/// `lrds_recomputed` and `lofs_recomputed` always read 0 and
/// `cascade_depth` is 0 or 1. The fields keep the record schema stable;
/// the LOFs the reads recompute are counted on the
/// `core.incremental.cascade_lofs` counter instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateStats {
    /// Objects whose neighborhood absorbed or lost a member (set A).
    pub neighborhoods_updated: usize,
    /// Objects whose lrd the update recomputed (always 0: lrds refresh
    /// on read).
    pub lrds_recomputed: usize,
    /// Objects whose LOF the update recomputed (always 0: LOFs refresh
    /// on read).
    pub lofs_recomputed: usize,
    /// Deepest dependency layer the update itself touched: 0 — nothing
    /// beyond the event's own object, 1 — at least one neighborhood
    /// changed (an insert always builds its own).
    pub cascade_depth: usize,
}

impl UpdateStats {
    /// The empty update (identity of [`UpdateStats::merge`]).
    pub const ZERO: UpdateStats = UpdateStats {
        neighborhoods_updated: 0,
        lrds_recomputed: 0,
        lofs_recomputed: 0,
        cascade_depth: 0,
    };

    /// Combines two updates (e.g. an insert followed by the eviction it
    /// triggers): counters add, the depth keeps the deeper one.
    #[must_use]
    pub fn merge(self, other: UpdateStats) -> UpdateStats {
        UpdateStats {
            neighborhoods_updated: self.neighborhoods_updated + other.neighborhoods_updated,
            lrds_recomputed: self.lrds_recomputed + other.lrds_recomputed,
            lofs_recomputed: self.lofs_recomputed + other.lofs_recomputed,
            cascade_depth: self.cascade_depth.max(other.cascade_depth),
        }
    }

    /// Serializes the update as a JSON object — the `"cascade"` field of
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

/// Maintained per-point squared norms for the SIMD surrogate prefilter
/// of the insert/remove scans (built only for metrics with a
/// squared-Euclidean [`BlockedForm`]).
///
/// The prefilter mirrors the blocked kernel's exactness contract: the
/// dispatched microkernel computes the norm-form surrogate row, a
/// conservative cutoff (widened by [`simd::surrogate_slack`]) discards
/// points that provably cannot participate, and every survivor is
/// re-evaluated with the exact scalar `metric.distance` — so the update
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

/// The maintained cutoff of an extended neighbor list: the distance of
/// its last (farthest) stored entry. Invariant INV: the list holds
/// exactly the objects within this cutoff.
fn ext_cutoff(list: &[Neighbor]) -> f64 {
    list.last().map_or(0.0, |nb| nb.dist)
}

/// Drops `owner` from a reverse-adjacency row (row order carries no
/// meaning).
fn rev_remove(row: &mut Vec<u32>, owner: usize) {
    if let Some(pos) = row.iter().position(|&o| o as usize == owner) {
        row.swap_remove(pos);
    }
}

/// Publishes the LOF values one read recomputed — once per read, never
/// per object, and nothing when the caches were already fresh.
fn publish_refreshes(recomputed: u64) {
    if recomputed > 0 {
        publish_event(CoreEvent::CascadeLofs(recomputed));
    }
}

/// Epoch bookkeeping of deferred scoring: structural state stays exact
/// on every update, while the lrd and LOF caches refresh on read.
/// Staleness is decided by comparing recompute stamps against
/// invalidation stamps; a refresh recomputes from the current exact
/// structures with the canonical summation order, so every value read
/// equals a batch computation bit for bit.
///
/// Every stamped object also lands on a stale-id list, so a flush visits
/// only what the updates since the previous flush touched and the
/// reverse neighbors their changes reach — not all n objects.
#[derive(Debug)]
struct Deferred {
    /// One tick per structural update (insert or remove).
    epoch: u64,
    /// Epoch of the last flush: every cache was fresh then.
    flushed_at: u64,
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
    /// Whether `o` was stamped since the last flush.
    touched: Vec<bool>,
    /// Ids of the touched objects. Swap-removes leave entries that are
    /// out of range or name an untouched object; a flush skips those and
    /// duplicates by `touched`.
    stale_ids: Vec<u32>,
    /// Set once `stale_ids` outgrows the model (streams that never
    /// flush): the list is dropped and the next flush checks every
    /// object, so the list's memory stays bounded by n.
    overflow: bool,
    /// Flush scratch: membership marks (all clear between flushes) and
    /// the lrd and LOF candidate lists they deduplicate.
    mark: Vec<bool>,
    lrd_cands: Vec<u32>,
    lof_cands: Vec<u32>,
}

impl Deferred {
    /// Bookkeeping for `n` objects whose caches are all fresh.
    fn fresh(n: usize) -> Self {
        Deferred {
            epoch: 0,
            flushed_at: 0,
            kd_stale: vec![0; n],
            memb_stale: vec![0; n],
            lrd_ep: vec![0; n],
            lrd_change: vec![0; n],
            lof_ep: vec![0; n],
            touched: vec![false; n],
            stale_ids: Vec::new(),
            overflow: false,
            mark: vec![false; n],
            lrd_cands: Vec::new(),
            lof_cands: Vec::new(),
        }
    }

    /// Opens the epoch of one structural update and returns it.
    fn tick(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// Puts `o` on the stale-id list unless it is already there.
    fn touch(&mut self, o: usize) {
        if std::mem::replace(&mut self.touched[o], true) || self.overflow {
            return;
        }
        self.stale_ids.push(o as u32);
        if self.stale_ids.len() > self.touched.len() {
            self.overflow = true;
            self.stale_ids = Vec::new();
        }
    }

    /// Stamps `o` as having changed its public prefix in epoch `e`, and
    /// its k-distance too when the cached value changed bits.
    fn stamp(&mut self, o: usize, e: u64, kd_changed: bool) {
        self.memb_stale[o] = e;
        if kd_changed {
            self.kd_stale[o] = e;
        }
        self.touch(o);
    }

    /// Appends a new object first seen in epoch `e`: every cache of it
    /// is stale until read.
    fn push(&mut self, e: u64) {
        self.kd_stale.push(e);
        self.memb_stale.push(e);
        self.lrd_ep.push(0);
        self.lrd_change.push(e);
        self.lof_ep.push(0);
        self.touched.push(false);
        self.mark.push(false);
        self.touch(self.touched.len() - 1);
    }

    /// Mirrors the model's swap-remove relocation. A touched object that
    /// relocates is listed again under its new id.
    fn swap_remove(&mut self, id: usize) {
        self.kd_stale.swap_remove(id);
        self.memb_stale.swap_remove(id);
        self.lrd_ep.swap_remove(id);
        self.lrd_change.swap_remove(id);
        self.lof_ep.swap_remove(id);
        self.touched.swap_remove(id);
        self.mark.swap_remove(id);
        if id < self.touched.len() && self.touched[id] {
            self.touched[id] = false;
            self.touch(id);
        }
    }

    /// Takes the distinct touched ids (clearing their marks) — every
    /// id when the list overflowed.
    fn take_touched(&mut self) -> Vec<u32> {
        let n = self.touched.len();
        let mut ids = std::mem::take(&mut self.stale_ids);
        if std::mem::replace(&mut self.overflow, false) {
            self.touched.fill(false);
            ids.clear();
            ids.extend(0..n as u32);
            return ids;
        }
        let touched = &mut self.touched;
        ids.retain(|&o| (o as usize) < n && std::mem::replace(&mut touched[o as usize], false));
        ids
    }
}

/// Appends `o` to `list` unless `mark` says it is already there.
fn collect(mark: &mut [bool], list: &mut Vec<u32>, o: u32) {
    if !std::mem::replace(&mut mark[o as usize], true) {
        list.push(o);
    }
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
/// assert_eq!(stats.neighborhoods_updated, 0, "nobody holds the far point");
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
    /// Public reverse adjacency: `rev_pub[j]` lists the owners holding
    /// `j` inside their public (tie-inclusive `MinPts`) prefix.
    rev_pub: Vec<Vec<u32>>,
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
    /// Reusable insert-gather scratch.
    gather: GatherScratch,
    /// Which lrd/LOF caches are stale.
    defer: Deferred,
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
            gather: GatherScratch::default(),
            defer: Deferred::fresh(n),
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

    /// Current LOF of an object. Refreshes exactly the lrd and LOF caches
    /// this one score depends on first (hence `&mut self`); the value is
    /// bit-identical to a batch computation over the current dataset.
    ///
    /// # Errors
    ///
    /// Returns [`LofError::UnknownObject`] for out-of-range ids.
    pub fn lof(&mut self, id: usize) -> Result<f64> {
        self.data.check_id(id)?;
        let recomputed = self.refresh_lof(id);
        publish_refreshes(recomputed);
        Ok(self.lof[id])
    }

    /// Current LOF values of all objects, in id order (flushes first).
    pub fn lof_values(&mut self) -> &[f64] {
        self.flush();
        &self.lof
    }

    /// Current local reachability densities, in id order (flushes first).
    pub fn lrd_values(&mut self) -> &[f64] {
        self.flush();
        &self.lrd
    }

    /// Brings every stale lrd/LOF cache up to date (a no-op when no
    /// update happened since the last flush).
    pub fn flush(&mut self) {
        let recomputed = self.refresh_all();
        publish_refreshes(recomputed);
    }

    /// The flush itself; returns how many LOF values it recomputed.
    /// Starting from the objects stamped since the last flush, it
    /// refreshes the lrds that can have gone stale — a touched object's,
    /// and those of the owners holding a touched object whose k-distance
    /// changed — then the LOFs that can have: a touched object's, and
    /// those of every object whose lrd changed and of its owners. An
    /// owner whose prefix changed was itself stamped, so the current
    /// reverse rows reach every other dependent. The lrd candidates are
    /// recomputed without a stamp check (almost all are stale, and the
    /// check costs as much as the sum); a change is dated to the current
    /// epoch, later than or equal to its invalidation basis, which only
    /// makes LOF validation more conservative.
    fn refresh_all(&mut self) -> u64 {
        let since = self.defer.flushed_at;
        let mut seeds = self.defer.take_touched();
        let mut lrds = std::mem::take(&mut self.defer.lrd_cands);
        let mut lofs = std::mem::take(&mut self.defer.lof_cands);
        let mark = &mut self.defer.mark;
        for &j in &seeds {
            collect(mark, &mut lrds, j);
            if self.defer.kd_stale[j as usize] > since {
                for &o in &self.rev_pub[j as usize] {
                    collect(mark, &mut lrds, o);
                }
            }
        }
        for &o in &lrds {
            mark[o as usize] = false;
        }
        let epoch = self.defer.epoch;
        for &o in &lrds {
            let o = o as usize;
            let v = self.compute_lrd(o);
            if v.to_bits() != self.lrd[o].to_bits() {
                self.defer.lrd_change[o] = epoch;
                self.lrd[o] = v;
            }
            self.defer.lrd_ep[o] = epoch;
        }
        let mark = &mut self.defer.mark;
        for &p in &seeds {
            collect(mark, &mut lofs, p);
        }
        for &o in &lrds {
            if self.defer.lrd_change[o as usize] > since {
                collect(mark, &mut lofs, o);
                for &p in &self.rev_pub[o as usize] {
                    collect(mark, &mut lofs, p);
                }
            }
        }
        let mut recomputed = 0;
        for &p in &lofs {
            self.defer.mark[p as usize] = false;
            recomputed += u64::from(self.refresh_lof_with_fresh_lrds(p as usize));
        }
        self.defer.flushed_at = self.defer.epoch;
        seeds.clear();
        lrds.clear();
        lofs.clear();
        self.defer.stale_ids = seeds;
        self.defer.lrd_cands = lrds;
        self.defer.lof_cands = lofs;
        recomputed
    }

    /// Recomputes `lrd[o]` if any invalidation stamp outruns its
    /// recompute stamp: own prefix changed, or a prefix member's
    /// k-distance changed bits. Records the invalidation basis in
    /// `lrd_change` when the recomputed value differs bitwise — the
    /// one-hop summary LOF validation keys on.
    fn refresh_lrd(&mut self, o: usize) {
        let mut basis = self.defer.memb_stale[o];
        for nb in &self.neighborhoods[o][..self.public_len[o]] {
            basis = basis.max(self.defer.kd_stale[nb.id]);
        }
        if self.defer.lrd_ep[o] >= basis {
            return;
        }
        let v = self.compute_lrd(o);
        if v.to_bits() != self.lrd[o].to_bits() {
            self.defer.lrd_change[o] = basis;
            self.lrd[o] = v;
        }
        self.defer.lrd_ep[o] = self.defer.epoch;
    }

    /// Refreshes `lof[p]` end to end: first the lrds it averages, then —
    /// if any of them changed past `lof_ep`, or p's own prefix did — the
    /// LOF itself. Returns how many LOF values it recomputed (0 or 1).
    fn refresh_lof(&mut self, p: usize) -> u64 {
        self.refresh_lrd(p);
        for i in 0..self.public_len[p] {
            let j = self.neighborhoods[p][i].id;
            self.refresh_lrd(j);
        }
        u64::from(self.refresh_lof_with_fresh_lrds(p))
    }

    /// LOF validity check + recompute, assuming every lrd it reads has
    /// already been refreshed (so `lrd_change` stamps are current).
    /// Returns whether it recomputed the value.
    fn refresh_lof_with_fresh_lrds(&mut self, p: usize) -> bool {
        let defer = &self.defer;
        let mut need = defer.memb_stale[p].max(defer.lrd_change[p]);
        for nb in &self.neighborhoods[p][..self.public_len[p]] {
            need = need.max(defer.lrd_change[nb.id]);
        }
        if defer.lof_ep[p] >= need {
            return false;
        }
        self.lof[p] = self.compute_lof(p);
        self.defer.lof_ep[p] = self.defer.epoch;
        true
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

    /// Inserts a point and returns the new object's id, its LOF (read
    /// through [`lof`](Self::lof)), and the update's statistics.
    ///
    /// # Errors
    ///
    /// Returns [`LofError::DimensionMismatch`] /
    /// [`LofError::NonFiniteCoordinate`] for invalid points.
    pub fn insert(&mut self, point: &[f64]) -> Result<(usize, f64, UpdateStats)> {
        let (id, stats) = self.insert_lazy(point)?;
        let score = self.lof(id)?;
        Ok((id, score, stats))
    }

    /// Inserts a point without reading its score: identical to
    /// [`insert`](Self::insert) except that the arriving point's LOF is
    /// left for a later [`lof`](Self::lof) read. Callers that may evict
    /// before reading (the sliding window) avoid computing a score they
    /// would discard.
    ///
    /// # Errors
    ///
    /// Returns [`LofError::DimensionMismatch`] /
    /// [`LofError::NonFiniteCoordinate`] for invalid points.
    pub fn insert_lazy(&mut self, point: &[f64]) -> Result<(usize, UpdateStats)> {
        let q = self.data.len();
        self.data.push(point)?;
        if let Some(filter) = &mut self.filter {
            filter.push(&self.data, q);
        }
        let e = self.defer.tick();
        self.defer.push(e);

        // Gather: candidates for q's extended list, plus the absorb set —
        // residents whose maintained cutoff reaches q (set A is the
        // subset within the *public* k-distance).
        let ext_k = self.min_pts + EXT_SPARES;
        let mut gs = std::mem::take(&mut self.gather);
        gs.cands.clear();
        gs.absorbs.clear();
        let cands = &mut gs.cands;
        let absorbs = &mut gs.absorbs;
        let sur = self.filter.as_ref().map(|filter| {
            filter.row(&self.data, self.data.point(q), filter.norms[q], q, &mut gs.row)
        });
        if let Some(slack) = sur {
            // kNN candidates: rank-cutoff prefilter, exact refinement.
            // The ext-rank surrogate plus twice the slack over-covers
            // every true list member, sqrt-rounded ties included.
            let row = &gs.row;
            let pairs = &mut gs.pairs;
            let rank = ext_k.min(q) - 1;
            pairs.clear();
            pairs.extend((0..q).map(|j| (row[j], j)));
            pairs.select_nth_unstable_by(rank, |a, b| a.0.total_cmp(&b.0));
            let cutoff = pairs[rank].0 + 2.0 * slack;
            pairs.retain(|&(s, _)| s <= cutoff);
            for &(_, j) in pairs.iter() {
                cands.push(Neighbor::new(j, self.metric.distance(point, self.data.point(j))));
            }
            // Absorb scan: the surrogate undershoots d(p, q)² by at most
            // the slack, and squaring the stored (sqrt-rounded) cutoff
            // costs a few ulps more — the widened threshold covers both.
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

        // q's own structures (copied out of the staging scratch at exact
        // size — neighborhood rows live long, scratch capacity does not).
        select_k_tie_inclusive_in_place(cands, ext_k);
        let l_q: Vec<Neighbor> = cands.clone();
        let public_q = tie_inclusive_len(&l_q, self.min_pts);
        for (i, nb) in l_q.iter().enumerate() {
            let rev = if i < public_q { &mut self.rev_pub } else { &mut self.rev_spare };
            rev[nb.id].push(q as u32);
        }
        self.public_len.push(public_q);
        self.kdist.push(l_q[public_q - 1].dist);
        self.cuts.push(ext_cutoff(&l_q));
        self.neighborhoods.push(l_q);
        self.rev_pub.push(Vec::new());
        self.rev_spare.push(Vec::new());
        self.lrd.push(0.0);
        self.lof.push(0.0);
        self.arrival.push(self.next_arrival);
        self.next_arrival += 1;

        // Apply the absorbs. Set A is the subset where q falls within the
        // *public* k-distance; the wider ext absorbs keep invariant INV
        // so later searches stay exact. Each A member is stamped: its
        // prefix changed, and its k-distance too when the cached value
        // changed bits — so read-side validation stops exactly where a
        // reachability term is provably unchanged.
        let mut set_a = 0;
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
                self.rev_pub[q].push(p as u32);
                for nb in &gs.demoted {
                    rev_remove(&mut self.rev_pub[nb.id], p);
                    self.rev_spare[nb.id].push(p as u32);
                }
                self.defer.stamp(p, e, self.kdist[p].to_bits() != kd_old.to_bits());
                set_a += 1;
            } else {
                self.rev_spare[q].push(p as u32);
            }
            self.trim_ext(p);
        }
        self.gather = gs;

        publish_event(CoreEvent::IncrementalInsert);
        publish_event(CoreEvent::CascadeDepth(1));
        Ok((q, UpdateStats { neighborhoods_updated: set_a, cascade_depth: 1, ..UpdateStats::ZERO }))
    }

    /// Removes an object, updates the affected neighborhoods, and returns
    /// the update's statistics. Swap-remove semantics: the last object is
    /// moved into the removed slot, so the previous id `len() - 1` becomes
    /// `id`; all other ids are stable.
    ///
    /// Deletion reverses insertion: the owners that held the removed
    /// object (found directly in the reverse adjacency) lose a member —
    /// their k-distance can only *grow*. Usually a maintained spare
    /// promotes in place (exact by invariant INV); only lists whose
    /// public coverage drops below `MinPts` are re-searched. The lrd and
    /// LOF caches these changes invalidate refresh on read, as for
    /// inserts.
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
        let e = self.defer.tick();

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
        for &ow in &pub_owners {
            let p = ow as usize;
            let kd_old = self.kdist[p];
            let old_public = self.public_len[p];
            let list = &mut self.neighborhoods[p];
            let pos = list
                .iter()
                .position(|nb| nb.id == id)
                .expect("reverse adjacency tracks membership");
            debug_assert!(pos < old_public, "rev_pub owners hold public entries");
            list.remove(pos);
            let len = list.len();
            self.cuts[p] = ext_cutoff(list);
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
                    self.rev_pub[nb.id].push(p as u32);
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
            self.cuts[p] = ext_cutoff(list);
        }

        // Purge the removed object's own adjacency (entry classification
        // follows the removed object's own public boundary).
        let id_list = std::mem::take(&mut self.neighborhoods[id]);
        let id_public = self.public_len[id];
        for (i, nb) in id_list.iter().enumerate() {
            let rev = if i < id_public { &mut self.rev_pub } else { &mut self.rev_spare };
            rev_remove(&mut rev[nb.id], id);
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
        self.defer.swap_remove(id);

        // Remap the relocated object's id (`last` -> `id`) in every list
        // that holds it and in its members' reverse rows. Canonical order
        // breaks distance ties by id and the renamed id only decreased,
        // so the single possible violation is against the predecessor run
        // of equal distances; rotating the entry into place restores
        // order. A rotation inside the public prefix changes the lrd/LOF
        // summation order (last-ulp effects) — those owners are stamped;
        // a rotation among spares is invisible to scores. Ties never
        // straddle the public boundary (tie inclusion absorbs whole
        // runs), so the two cases are exclusive.
        let mut reordered: Vec<usize> = Vec::new();
        if id != last {
            let moved_pub = std::mem::take(&mut self.rev_pub[id]);
            let moved_spare = std::mem::take(&mut self.rev_spare[id]);
            for &ow in moved_pub.iter().chain(&moved_spare) {
                let p = ow as usize;
                let list = &mut self.neighborhoods[p];
                let pos = list
                    .iter()
                    .position(|nb| nb.id == last)
                    .expect("reverse adjacency tracks membership");
                list[pos].id = id;
                if pos > 0 && cmp_neighbors(&list[pos - 1], &list[pos]).is_gt() {
                    let entry = list[pos];
                    let dest = list[..pos].partition_point(|nb| cmp_neighbors(nb, &entry).is_lt());
                    list[dest..=pos].rotate_right(1);
                    if pos < self.public_len[p] {
                        reordered.push(p);
                    }
                }
            }
            self.rev_pub[id] = moved_pub;
            self.rev_spare[id] = moved_spare;
            for (i, nb) in self.neighborhoods[id].iter().enumerate() {
                let rev =
                    if i < self.public_len[id] { &mut self.rev_pub } else { &mut self.rev_spare };
                for o in rev[nb.id].iter_mut() {
                    if *o as usize == last {
                        *o = id as u32;
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
                rev_remove(&mut self.rev_pub[nb.id], p);
                rev_remove(&mut self.rev_spare[nb.id], p);
            }
            let fresh = self.search_neighborhood_with(p, &mut gs);
            let public = tie_inclusive_len(&fresh, self.min_pts);
            for (i, nb) in fresh.iter().enumerate() {
                let rev = if i < public { &mut self.rev_pub } else { &mut self.rev_spare };
                rev[nb.id].push(p as u32);
            }
            self.public_len[p] = public;
            self.kdist[p] = fresh[public - 1].dist;
            self.cuts[p] = ext_cutoff(&fresh);
            self.neighborhoods[p] = fresh;
        }
        self.gather = gs;

        // Stamp the invalidations: every A member lost a prefix entry
        // (and possibly promoted spares), every reordered owner changed
        // summation order; k-distance stamps only track bitwise changes.
        for (&p, &kd) in set_a.iter().zip(&set_a_kd) {
            self.defer.stamp(p, e, self.kdist[p].to_bits() != kd.to_bits());
        }
        for &p in &reordered {
            self.defer.stamp(p, e, false);
        }

        let depth = usize::from(!set_a.is_empty());
        publish_event(CoreEvent::IncrementalRemove);
        publish_event(CoreEvent::CascadeDepth(depth as u64));
        Ok(UpdateStats {
            neighborhoods_updated: set_a.len(),
            cascade_depth: depth,
            ..UpdateStats::ZERO
        })
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

    /// Extended-neighborhood search for one resident object (construction,
    /// and the deletion path's depleted lists): a SIMD surrogate prefilter
    /// for blocked-form metrics, the plain scan otherwise. Bit-identical
    /// results both ways — skipped candidates are provably beyond the
    /// tie-inclusive cutoff, and survivors are refined with the exact
    /// scalar distance. Stages its candidates in `gs` (the hot research
    /// path recycles the insert-gather buffers instead of allocating).
    fn search_neighborhood_with(&self, p: usize, gs: &mut GatherScratch) -> Vec<Neighbor> {
        let n = self.data.len();
        let point = self.data.point(p);
        let ext_k = (self.min_pts + EXT_SPARES).min(n - 1);
        let cands = &mut gs.cands;
        cands.clear();
        if let Some(filter) = &self.filter {
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
        self.cuts[p] = ext_cutoff(list);
        for j in dropped {
            rev_remove(&mut self.rev_spare[j], p);
        }
    }

    fn compute_lrd(&self, p: usize) -> f64 {
        let neighborhood = &self.neighborhoods[p][..self.public_len[p]];
        let mut sum = 0.0;
        for nb in neighborhood {
            sum += reach_dist(self.kdist[nb.id], nb.dist);
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
        let mut gs = GatherScratch::default();
        self.neighborhoods = (0..n).map(|id| self.search_neighborhood_with(id, &mut gs)).collect();
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
                let rev = if i < public { &mut self.rev_pub } else { &mut self.rev_spare };
                rev[nb.id].push(owner as u32);
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

    fn assert_matches_batch(model: &mut IncrementalLof<Euclidean>) {
        let expected = batch_lof(model.dataset(), Euclidean, model.min_pts()).unwrap();
        for (id, (a, b)) in model.lof_values().iter().zip(&expected).enumerate() {
            let ok = (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite());
            assert!(ok, "id {id}: incremental {a} vs batch {b}");
        }
    }

    /// A model rebuilt from scratch over `model`'s current dataset: every
    /// cache fresh, the bit-exact oracle of every read.
    fn fresh_build(model: &IncrementalLof<Euclidean>) -> IncrementalLof<Euclidean> {
        IncrementalLof::new(model.dataset().clone(), Euclidean, model.min_pts()).unwrap()
    }

    #[test]
    fn construction_matches_batch() {
        let mut model = IncrementalLof::new(seed_dataset(), Euclidean, 4).unwrap();
        assert_matches_batch(&mut model);
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
            assert_matches_batch(&mut model);
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
        assert_matches_batch(&mut model);
    }

    #[test]
    fn refresh_stays_local_for_far_inserts() {
        // Two far-apart clusters: inserting into one must not touch the
        // other cluster's values at all.
        let mut rows: Vec<[f64; 2]> = (0..25).map(|i| [(i % 5) as f64, (i / 5) as f64]).collect();
        rows.extend((0..25).map(|i| [500.0 + (i % 5) as f64, (i / 5) as f64]));
        let data = Dataset::from_rows(&rows).unwrap();
        let mut model = IncrementalLof::new(data, Euclidean, 4).unwrap();
        let before: Vec<f64> = model.lof_values()[25..50].to_vec();
        model.insert_lazy(&[2.5, 2.5]).unwrap();
        let recomputed = model.refresh_all();
        assert!(recomputed <= 26, "the refresh must stay inside the touched cluster: {recomputed}");
        assert_eq!(&model.lof_values()[25..50], before.as_slice());
        assert_matches_batch(&mut model);
    }

    #[test]
    fn reads_recompute_only_what_went_stale() {
        let mut model = IncrementalLof::new(seed_dataset(), Euclidean, 4).unwrap();
        assert_eq!(model.refresh_all(), 0, "a fresh build has nothing stale");
        // Nobody holds a far point: reading it computes its own LOF and
        // invalidates nothing else.
        let (far, _) = model.insert_lazy(&[1000.0, 1000.0]).unwrap();
        assert_eq!(model.refresh_lof(far), 1);
        assert_eq!(model.refresh_lof(far), 0, "a second read is a cache hit");
        assert_eq!(model.refresh_all(), 0);
        model.remove(far).unwrap();
        // An interior insert joins neighborhoods: the flush recomputes
        // the arriving LOF and at least one neighbor's.
        let (_, stats) = model.insert_lazy(&[2.5, 2.5]).unwrap();
        assert!(stats.neighborhoods_updated > 0);
        assert!(model.refresh_all() > 1);
        assert_eq!(model.refresh_all(), 0, "a flush leaves nothing stale");
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
        assert_matches_batch(&mut model);
        model.remove(0).unwrap();
        assert_matches_batch(&mut model);
        let back = model.len() - 1;
        model.remove(back).unwrap();
        assert_matches_batch(&mut model);
        model.remove(7).unwrap();
        assert_matches_batch(&mut model);
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
        let mut base = IncrementalLof::new(seed_dataset(), Euclidean, 4).unwrap();
        let mut model = IncrementalLof::new(seed_dataset(), Euclidean, 4).unwrap();
        let (id, _, _) = model.insert(&[100.0, 100.0]).unwrap();
        model.remove(id).unwrap();
        for (a, b) in base.lof_values().iter().zip(model.lof_values()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        assert_matches_batch(&mut model);
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
        assert_matches_batch(&mut model);
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
        let mut restored = IncrementalLof::with_arrivals(
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
        assert_eq!(merged.cascade_depth, 3, "depth merges as the deeper one");
        assert_eq!(UpdateStats::ZERO.merge(a), a);
        assert_eq!(
            a.to_json(),
            "{\"neighborhoods_updated\":1,\"lrds_recomputed\":2,\"lofs_recomputed\":3,\"cascade_depth\":2}"
        );
    }

    #[test]
    fn update_stats_report_the_structural_layer_only() {
        let mut model = IncrementalLof::new(seed_dataset(), Euclidean, 4).unwrap();
        // A far-away insert touches nobody but builds its own list.
        let (far, _, stats) = model.insert(&[1000.0, 1000.0]).unwrap();
        assert_eq!(stats, UpdateStats { cascade_depth: 1, ..UpdateStats::ZERO });
        // Nobody held it, so its removal changes no neighborhood.
        assert_eq!(model.remove(far).unwrap(), UpdateStats::ZERO);
        // An interior insert joins neighborhoods; the lrd and LOF layers
        // are left to the reads.
        let (_, _, stats) = model.insert(&[2.5, 2.5]).unwrap();
        assert!(stats.neighborhoods_updated > 0, "{stats:?}");
        assert_eq!((stats.lrds_recomputed, stats.lofs_recomputed, stats.cascade_depth), (0, 0, 1));
        assert_matches_batch(&mut model);
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
        assert_matches_batch(&mut model);
    }

    /// Clustered churn with exact duplicates and tie shells — adversarial
    /// for the spare-promotion and re-search paths.
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
    fn churn_matches_a_fresh_build_bit_for_bit() {
        // Flush cadences: after every event, after a few events of
        // accumulated staleness (the stale-id list), and rarely enough
        // that the list overflows into a check of every object. A single
        // read between flushes refreshes part of a cone early.
        for every in [1, 2, 3, 40] {
            let mut model = IncrementalLof::new(seed_dataset(), Euclidean, 4).unwrap();
            let mut saw_overflow = false;
            for (i, point) in churn_stream().into_iter().enumerate() {
                model.insert_lazy(&point).unwrap();
                model.lof((i * 13) % model.len()).unwrap();
                let oldest = model.oldest();
                model.remove(oldest).unwrap();
                if (i + 1) % every != 0 {
                    continue;
                }
                saw_overflow |= model.defer.overflow;
                let mut oracle = fresh_build(&model);
                let (want_lof, want_lrd) =
                    (oracle.lof_values().to_vec(), oracle.lrd_values().to_vec());
                for (idx, (got, want)) in model.lof_values().iter().zip(&want_lof).enumerate() {
                    assert_eq!(got.to_bits(), want.to_bits(), "lof {idx} after flush {i}/{every}");
                }
                for (idx, (got, want)) in model.lrd_values().iter().zip(&want_lrd).enumerate() {
                    assert_eq!(got.to_bits(), want.to_bits(), "lrd {idx} after flush {i}/{every}");
                }
            }
            if every == 1 || every == 40 {
                assert_eq!(saw_overflow, every == 40, "cadence {every} overflow");
            }
        }
    }

    #[test]
    fn single_reads_are_exact_without_a_flush() {
        // `lof` must refresh exactly the dependency cone of one object;
        // interleave reads of one object with churn elsewhere.
        let mut model = IncrementalLof::new(seed_dataset(), Euclidean, 4).unwrap();
        for (i, point) in churn_stream().into_iter().enumerate() {
            model.insert_lazy(&point).unwrap();
            let probe = (i * 13) % model.len();
            let want = fresh_build(&model).lof_values()[probe];
            assert_eq!(
                model.lof(probe).unwrap().to_bits(),
                want.to_bits(),
                "stale read at step {i}, probe {probe}"
            );
            if i % 3 == 0 {
                let oldest = model.oldest();
                model.remove(oldest).unwrap();
                let probe = (i * 7) % model.len();
                let want = fresh_build(&model).lof_values()[probe];
                assert_eq!(
                    model.lof(probe).unwrap().to_bits(),
                    want.to_bits(),
                    "stale read after removal at step {i}"
                );
            }
        }
        assert_matches_batch(&mut model);
    }
}
