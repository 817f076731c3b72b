//! Refinement: turning envelope-level candidates into exact LOF values.
//!
//! Workers pull partitions off a shared cursor (ordered by envelope
//! `LOFmax` descending, so the likeliest outliers are scored first and
//! the threshold θ rises quickly), re-check each partition against θ at
//! claim time, and score the survivors exactly. Before paying for an
//! exact score, each object gets one more chance to be pruned: its
//! *materialized* neighborhood is grouped by partition and pushed through
//! the Theorem 2 machinery ([`theorem2_envelope_bounds`]) with the
//! now-exact direct distances — a per-object upper bound that is usually
//! far tighter than the partition envelope.
//!
//! All workers share one store with write-once slots per object, and
//! each id is asked only for what LOF reads of it. By Definition 5 an
//! lrd reads nothing of a neighbor `o` but `k-distance(o)`, so an id
//! whose neighborhood is never read gets one k-distance descent
//! ([`KnnProvider::k_distance_into`]) and nothing else. An id whose
//! neighborhood *is* read gets, on top of that descent, one range pass at
//! that radius (`within(id, k-distance)`), which by Definition 4 is the
//! same set in the same canonical order as `k_nearest_into`. Both slots
//! are `OnceLock`s, filled k-distance first: the first worker
//! to need a value computes it and every other worker waits for it
//! instead of repeating the query. At any thread count an id therefore
//! gets at most one descent and at most one range pass, and since a
//! filled slot never changes, scoring borrows neighborhoods straight out
//! of the store. Each lrd is memoized in the same slot.
//!
//! Exactness invariant: θ only ever holds *exact* scores (the n-th best
//! seen so far, or the envelope seed θ₀ which at least `n` objects
//! provably meet), and pruning is strict (`upper < θ`). A pruned object
//! therefore cannot belong to the final top n even on ties, so the final
//! ranking — exact scores sorted by `(score desc, id asc)` — is
//! bit-identical to sorting a full sweep, independent of thread
//! interleaving. A slot's value is a pure function of `(id, MinPts)`, so
//! which worker fills it cannot change a bit either.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use super::envelope::PartitionEnvelope;
use super::Partition;
use crate::bounds::{theorem2_envelope_bounds, PartEnvelope};
use crate::error::{LofError, Result};
use crate::knn::KnnScratch;
use crate::lof::lrd_ratio;
use crate::lrd::reach_dist;
use crate::neighbors::{KnnProvider, Neighbor};

/// One exactly-scored candidate. The ordering ranks by score, ties broken
/// toward the *smaller* id (a smaller id outranks a larger one at equal
/// score, matching the final ranking's `(score desc, id asc)` order).
#[derive(Debug, Clone, Copy)]
struct Cand {
    id: usize,
    score: f64,
}

impl PartialEq for Cand {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Cand {}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cand {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score.total_cmp(&other.score).then(other.id.cmp(&self.id))
    }
}

/// Bounded worst-out heap of the best `cap` candidates seen so far.
struct TopHeap {
    cap: usize,
    /// Min-heap: the root is the currently worst kept candidate.
    heap: BinaryHeap<Reverse<Cand>>,
    /// Evictions — a proxy for how unstable the candidate set was.
    churn: u64,
}

impl TopHeap {
    fn new(cap: usize) -> Self {
        TopHeap { cap, heap: BinaryHeap::with_capacity(cap + 1), churn: 0 }
    }

    fn offer(&mut self, cand: Cand) {
        if self.heap.len() < self.cap {
            self.heap.push(Reverse(cand));
        } else if self.heap.peek().is_some_and(|worst| worst.0 < cand) {
            self.heap.pop();
            self.heap.push(Reverse(cand));
            self.churn += 1;
        }
    }

    /// The n-th best exact score once the heap is full; `-∞` before that.
    fn threshold(&self) -> f64 {
        if self.heap.len() >= self.cap {
            self.heap.peek().map_or(f64::NEG_INFINITY, |worst| worst.0.score)
        } else {
            f64::NEG_INFINITY
        }
    }
}

/// One object's write-once refinement state, shared by every worker.
struct Slot {
    /// `N_MinPts(id)` in canonical order, filled by exactly one range
    /// pass at `k_distance`, which is always set first. Empty marks a
    /// failed query; the error itself sits in [`Shared::first_error`].
    hood: OnceLock<Box<[Neighbor]>>,
    /// `k-distance(id)`, filled by exactly one k-distance descent. NaN
    /// marks a failed query.
    k_distance: OnceLock<f64>,
    /// `lrd_MinPts(id)` as f64 bits, [`LRD_UNSET`] until computed. An lrd
    /// is a pure function of write-once neighborhoods, so two workers
    /// racing on it store the same bits.
    lrd: AtomicU64,
}

/// A NaN pattern: lrds are positive or `+∞`, never NaN.
const LRD_UNSET: u64 = u64::MAX;

// The store holds one slot per object, touched or not.
const _: () = assert!(std::mem::size_of::<Slot>() <= 48);

/// Reusable per-worker state.
#[derive(Default)]
struct Local {
    scratch: KnnScratch,
    groups: Vec<(usize, PartEnvelope)>,
    envs: Vec<PartEnvelope>,
    /// `k_distance_into` calls run.
    descents: u64,
    /// `within` calls run.
    range_passes: u64,
}

/// Worker-shared refinement state.
struct Shared<'a, P: ?Sized> {
    provider: &'a P,
    partitions: &'a [Partition],
    envelopes: &'a [PartitionEnvelope],
    /// Partition indexes ordered by envelope `LOFmax` descending.
    order: &'a [usize],
    /// `part_of[id]` = index of the partition holding `id`.
    part_of: &'a [usize],
    min_pts: usize,
    /// The exactly-once neighborhood store, indexed by object id.
    slots: Vec<Slot>,
    /// Next `order` slot to claim.
    cursor: AtomicUsize,
    /// Monotone pruning threshold θ as f64 bits, read lock-free on the
    /// hot path and only ever raised under the state mutex.
    theta_bits: AtomicU64,
    state: Mutex<TopState>,
    stop: AtomicBool,
    first_error: Mutex<Option<LofError>>,
}

struct TopState {
    heap: TopHeap,
    scored: Vec<(usize, f64)>,
    tightenings: u64,
}

impl<P: KnnProvider + Sync + ?Sized> Shared<'_, P> {
    fn theta(&self) -> f64 {
        f64::from_bits(self.theta_bits.load(Ordering::Relaxed))
    }

    /// Records the run's first error and tells every worker to stop.
    fn fail(&self, e: LofError) {
        let mut guard = self.first_error.lock().expect("error mutex poisoned");
        if guard.is_none() {
            *guard = Some(e);
        }
        self.stop.store(true, Ordering::Relaxed);
    }

    /// `N_MinPts(id)`: one range pass at `k-distance(id)` (Definition 4),
    /// run by the first caller; concurrent callers block on the slot
    /// until it is filled. `None` once a query has failed (the error is
    /// recorded through [`Shared::fail`]).
    fn hood(&self, id: usize, local: &mut Local) -> Option<&[Neighbor]> {
        let k_distance = self.k_distance(id, local)?;
        let hood = self.slots[id].hood.get_or_init(|| {
            local.range_passes += 1;
            match self.provider.within(id, k_distance) {
                Ok(hood) => {
                    assert!(!hood.is_empty(), "provider returned an empty neighborhood");
                    hood.into_boxed_slice()
                }
                Err(e) => {
                    self.fail(e);
                    Box::default()
                }
            }
        });
        (!hood.is_empty()).then_some(&**hood)
    }

    /// `k-distance(id)`, filled by one descent on first use.
    fn k_distance(&self, id: usize, local: &mut Local) -> Option<f64> {
        let k_distance = *self.slots[id].k_distance.get_or_init(|| {
            local.descents += 1;
            match self.provider.k_distance_into(id, self.min_pts, &mut local.scratch) {
                Ok(k_distance) => k_distance,
                Err(e) => {
                    self.fail(e);
                    f64::NAN
                }
            }
        });
        (!k_distance.is_nan()).then_some(k_distance)
    }

    /// Memoized `lrd_MinPts(id)`. Same arithmetic as
    /// [`crate::lrd::local_reachability_densities`]: mean of reach-dists
    /// in canonical neighborhood order, inverted, `+∞` on a zero mean.
    fn lrd(&self, id: usize, local: &mut Local) -> Option<f64> {
        let slot = &self.slots[id];
        let bits = slot.lrd.load(Ordering::Relaxed);
        if bits != LRD_UNSET {
            return Some(f64::from_bits(bits));
        }
        let hood = self.hood(id, local)?;
        let mut sum = 0.0;
        for nb in hood {
            sum += reach_dist(self.k_distance(nb.id, local)?, nb.dist);
        }
        let mean = sum / hood.len() as f64;
        let lrd = if mean > 0.0 { 1.0 / mean } else { f64::INFINITY };
        slot.lrd.store(lrd.to_bits(), Ordering::Relaxed);
        Some(lrd)
    }
}

/// Per-worker prune/refine tallies, merged after the scope joins.
#[derive(Default, Clone, Copy)]
struct WorkerTally {
    partitions_pruned: u64,
    partitions_refined: u64,
    objects_pruned: u64,
    objects_refined: u64,
    descents: u64,
    range_passes: u64,
}

/// What the engine gets back from a refinement run.
pub(super) struct RefineOutcome {
    /// Every exactly-scored `(id, score)` pair, unordered.
    pub scored: Vec<(usize, f64)>,
    /// Final θ.
    pub threshold: f64,
    pub partitions_pruned: u64,
    pub partitions_refined: u64,
    pub objects_pruned: u64,
    pub objects_refined: u64,
    pub descents: u64,
    pub range_passes: u64,
    pub tightenings: u64,
    pub heap_churn: u64,
}

/// Runs the refinement stage with `threads` workers.
#[allow(clippy::too_many_arguments)]
pub(super) fn refine<P>(
    provider: &P,
    partitions: &[Partition],
    envelopes: &[PartitionEnvelope],
    order: &[usize],
    part_of: &[usize],
    min_pts: usize,
    n: usize,
    theta0: f64,
    threads: usize,
) -> Result<RefineOutcome>
where
    P: KnnProvider + Sync + ?Sized,
{
    let shared = Shared {
        provider,
        partitions,
        envelopes,
        order,
        part_of,
        min_pts,
        slots: (0..provider.len())
            .map(|_| Slot {
                hood: OnceLock::new(),
                k_distance: OnceLock::new(),
                lrd: AtomicU64::new(LRD_UNSET),
            })
            .collect(),
        cursor: AtomicUsize::new(0),
        theta_bits: AtomicU64::new(theta0.to_bits()),
        state: Mutex::new(TopState { heap: TopHeap::new(n), scored: Vec::new(), tightenings: 0 }),
        stop: AtomicBool::new(false),
        first_error: Mutex::new(None),
    };

    let threads = threads.max(1).min(order.len().max(1));
    let mut tally = WorkerTally::default();
    if threads == 1 {
        tally = worker(&shared);
    } else {
        let tallies = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(|| worker(&shared))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("top-n refinement worker panicked"))
                .collect::<Vec<_>>()
        });
        for t in tallies {
            tally.partitions_pruned += t.partitions_pruned;
            tally.partitions_refined += t.partitions_refined;
            tally.objects_pruned += t.objects_pruned;
            tally.objects_refined += t.objects_refined;
            tally.descents += t.descents;
            tally.range_passes += t.range_passes;
        }
    }

    if let Some(e) = shared.first_error.into_inner().expect("error mutex poisoned") {
        return Err(e);
    }
    let state = shared.state.into_inner().expect("top-n state mutex poisoned");
    Ok(RefineOutcome {
        scored: state.scored,
        threshold: f64::from_bits(shared.theta_bits.into_inner()),
        partitions_pruned: tally.partitions_pruned,
        partitions_refined: tally.partitions_refined,
        objects_pruned: tally.objects_pruned,
        objects_refined: tally.objects_refined,
        descents: tally.descents,
        range_passes: tally.range_passes,
        tightenings: state.tightenings,
        heap_churn: state.heap.churn,
    })
}

/// One worker: claim partitions off the cursor until it runs out.
fn worker<P: KnnProvider + Sync + ?Sized>(shared: &Shared<'_, P>) -> WorkerTally {
    let mut tally = WorkerTally::default();
    let mut local = Local::default();
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        let slot = shared.cursor.fetch_add(1, Ordering::Relaxed);
        if slot >= shared.order.len() {
            break;
        }
        let pi = shared.order[slot];
        // Claim-time check: θ may have risen past this partition's
        // envelope since the order was fixed. Strict `<` keeps ties.
        if shared.envelopes[pi].lof.upper < shared.theta() {
            tally.partitions_pruned += 1;
            tally.objects_pruned += shared.partitions[pi].members.len() as u64;
            continue;
        }
        tally.partitions_refined += 1;
        let Some((pruned, refined)) = refine_partition(shared, pi, &mut local) else {
            break;
        };
        tally.objects_pruned += pruned;
        tally.objects_refined += refined;
    }
    // Flush this worker's kernel counters before the scratch dies.
    local.scratch.stats.publish_and_reset();
    tally.descents = local.descents;
    tally.range_passes = local.range_passes;
    tally
}

/// Scores one surviving partition; returns `(objects_pruned,
/// objects_refined)`, or `None` once a k-NN query has failed.
fn refine_partition<P: KnnProvider + Sync + ?Sized>(
    shared: &Shared<'_, P>,
    pi: usize,
    local: &mut Local,
) -> Option<(u64, u64)> {
    let part = &shared.partitions[pi];
    let mut scored: Vec<(usize, f64)> = Vec::with_capacity(part.members.len());
    let mut objects_pruned = 0u64;
    for &id in &part.members {
        let hood = shared.hood(id, local)?;
        let theta = shared.theta();
        if theta > f64::NEG_INFINITY && object_upper_bound(shared, hood, local) < theta {
            objects_pruned += 1;
            continue;
        }
        scored.push((id, exact_lof(shared, id, hood, local)?));
    }

    let objects_refined = scored.len() as u64;
    if !scored.is_empty() {
        let mut state = shared.state.lock().expect("top-n state mutex poisoned");
        for &(id, score) in &scored {
            state.heap.offer(Cand { id, score });
        }
        let new_theta = state.heap.threshold();
        if new_theta > shared.theta() {
            // Monotone by construction: every writer holds this mutex.
            shared.theta_bits.store(new_theta.to_bits(), Ordering::Relaxed);
            state.tightenings += 1;
        }
        state.scored.append(&mut scored);
    }
    Some((objects_pruned, objects_refined))
}

/// Theorem 2 upper bound for a single object from its *exact* direct
/// distances and the partition envelopes of its neighbors: the
/// neighborhood is grouped by partition, each group's direct envelope is
/// `max(neighbor partition's k-distance envelope, exact distance)` folded
/// over the group, and each group's indirect envelope is its partition's
/// direct envelope.
fn object_upper_bound<P: ?Sized>(
    shared: &Shared<'_, P>,
    hood: &[Neighbor],
    local: &mut Local,
) -> f64 {
    local.groups.clear();
    for nb in hood {
        let qp = shared.part_of[nb.id];
        let env = &shared.envelopes[qp];
        let lo = env.k_distance_lower.max(nb.dist);
        let hi = env.k_distance_upper.max(nb.dist);
        match local.groups.iter_mut().find(|(part, _)| *part == qp) {
            Some((_, group)) => {
                group.count += 1;
                group.direct_min = group.direct_min.min(lo);
                group.direct_max = group.direct_max.max(hi);
            }
            None => local.groups.push((
                qp,
                PartEnvelope {
                    count: 1,
                    direct_min: lo,
                    direct_max: hi,
                    indirect_min: env.direct_min,
                    indirect_max: env.direct_max,
                },
            )),
        }
    }
    local.envs.clear();
    local.envs.extend(local.groups.iter().map(|(_, group)| *group));
    theorem2_envelope_bounds(&local.envs).map_or(f64::INFINITY, |b| b.upper)
}

/// Exact `LOF_MinPts(id)` through the 2-hop neighborhood (`hood` is
/// `N_MinPts(id)`), arithmetic bit-identical to the full-sweep path
/// ([`crate::lof::lof_values`]): same reach-dist / lrd conventions, same
/// summation order (canonical neighborhood order), same final division.
fn exact_lof<P: KnnProvider + Sync + ?Sized>(
    shared: &Shared<'_, P>,
    id: usize,
    hood: &[Neighbor],
    local: &mut Local,
) -> Option<f64> {
    let lrd_id = shared.lrd(id, local)?;
    let mut sum = 0.0;
    for nb in hood {
        sum += lrd_ratio(shared.lrd(nb.id, local)?, lrd_id);
    }
    Some(sum / hood.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cand_order_ranks_smaller_id_higher_on_ties() {
        let a = Cand { id: 3, score: 1.5 };
        let b = Cand { id: 7, score: 1.5 };
        let c = Cand { id: 0, score: 2.0 };
        // a outranks b (same score, smaller id); c outranks both.
        assert!(a > b);
        assert!(c > a);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn top_heap_keeps_best_n_and_reports_threshold() {
        let mut heap = TopHeap::new(2);
        assert_eq!(heap.threshold(), f64::NEG_INFINITY);
        heap.offer(Cand { id: 0, score: 1.0 });
        assert_eq!(heap.threshold(), f64::NEG_INFINITY); // not full yet
        heap.offer(Cand { id: 1, score: 3.0 });
        assert_eq!(heap.threshold(), 1.0);
        heap.offer(Cand { id: 2, score: 2.0 });
        assert_eq!(heap.threshold(), 2.0);
        heap.offer(Cand { id: 3, score: 0.5 }); // worse than everything kept
        assert_eq!(heap.threshold(), 2.0);
        assert_eq!(heap.churn, 1);
        // A tie with the worst kept candidate but a *smaller* id evicts it.
        let worst_before = heap.heap.peek().unwrap().0.id;
        heap.offer(Cand { id: 1_000_000.min(worst_before.wrapping_sub(1)), score: 2.0 });
        assert_eq!(heap.threshold(), 2.0);
        assert_eq!(heap.churn, 2);
    }
}
