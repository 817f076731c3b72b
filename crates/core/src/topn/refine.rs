//! Exact scoring for the engine's two scoring stages: the seed, which
//! scores the most isolated partitions whole to fix θ before the direct
//! and indirect envelope passes, and refinement, which scores what those
//! passes cannot prune.
//!
//! Both stages run over one [`Store`]. Its workers pull partitions off a
//! shared cursor: the seed's in falling isolation radius, refinement's in
//! falling envelope `LOFmax`, so the likeliest outliers are scored first.
//! Refinement re-checks each partition against θ at claim time and scores
//! the survivors exactly, skipping partitions the seed already scored.
//! Before paying for an exact score, each object gets one more chance to
//! be pruned: its *materialized* neighborhood is grouped by partition and
//! pushed through the Theorem 2 machinery ([`theorem2_envelope_bounds`])
//! with the now-exact direct distances — a per-object upper bound that is
//! usually far tighter than the partition envelope. The seed has no
//! direct envelopes yet, so it scores every member.
//!
//! The store has write-once slots, and each id is asked only for what
//! LOF reads of it. By Definition 5 an lrd reads nothing of a neighbor
//! `o` but `k-distance(o)`, so an id whose neighborhood is never read
//! gets its k-distance and nothing else. k-distances are answered a
//! partition at a time: the first worker to need any member's k-distance
//! asks the provider for the whole partition in one
//! [`KnnProvider::k_distances_into`] call, promising the partition's
//! envelope `k_distance_upper` as the radius. An id whose neighborhood
//! *is* read also gets one range pass at its k-distance
//! (`within(id, k-distance)`), which by Definition 4 is the same set in
//! the same canonical order as `k_nearest_into`. Both are `OnceLock`s,
//! the partition's k-distances first: the first worker to need a value
//! computes it and every other worker waits for it instead of repeating
//! the query. At any thread count an id's k-distance is therefore
//! answered at most once and it gets at most one range pass, and since a
//! filled slot never changes, scoring borrows neighborhoods straight out
//! of the store. Each lrd is memoized in its slot.
//!
//! Exactness invariant: θ only ever holds *exact* scores (the n-th best
//! seen so far), and pruning is strict (`upper < θ`). A pruned object
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

/// One object's write-once scoring state, shared by every worker.
struct Slot {
    /// `N_MinPts(id)` in canonical order, filled by exactly one range
    /// pass at the object's k-distance, which is always known first.
    /// Empty marks a failed query; the error itself sits in
    /// [`Store::first_error`].
    hood: OnceLock<Box<[Neighbor]>>,
    /// `lrd_MinPts(id)` as f64 bits, [`LRD_UNSET`] until computed. An lrd
    /// is a pure function of write-once neighborhoods, so two workers
    /// racing on it store the same bits.
    lrd: AtomicU64,
}

/// A NaN pattern: lrds are positive or `+∞`, never NaN.
const LRD_UNSET: u64 = u64::MAX;

// The store holds one slot per object, touched or not.
const _: () = assert!(std::mem::size_of::<Slot>() <= 32);

/// Reusable per-worker state.
#[derive(Default)]
struct Local {
    scratch: KnnScratch,
    groups: Vec<(usize, PartEnvelope)>,
    envs: Vec<PartEnvelope>,
    /// `k_distances_into` calls run.
    batches: u64,
    /// Ids those calls answered.
    k_distances: u64,
    /// `within` calls run.
    range_passes: u64,
}

/// The exactly-once store and candidate heap shared by the seed and
/// refinement, with their workers.
pub(super) struct Store<'a, P: ?Sized> {
    provider: &'a P,
    partitions: &'a [Partition],
    /// `part_of[id]` = index of the partition holding `id`.
    part_of: &'a [usize],
    /// Each partition's envelope `k_distance_upper`: the radius its
    /// batched k-distance query promises.
    kd_radius: &'a [f64],
    min_pts: usize,
    /// One slot per object id.
    slots: Vec<Slot>,
    /// Each partition's member k-distances in member order, filled by one
    /// batched query. Empty marks a failed query.
    k_distances: Vec<OnceLock<Box<[f64]>>>,
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
    /// Raises of θ during refinement (the seed's are not counted).
    tightenings: u64,
}

/// One scoring stage's partitions and what it knows about them.
pub(super) struct Stage<'s> {
    /// Partition indexes in claim order.
    pub order: &'s [usize],
    /// The partition envelopes, or `None` for the seed, which scores
    /// every member of every partition in `order`.
    pub envelopes: Option<&'s [PartitionEnvelope]>,
    /// Partitions the seed scored: refinement classifies them against θ
    /// without scoring them again.
    pub seeded: &'s [bool],
}

/// Per-stage tallies, merged over the stage's workers.
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct Tally {
    pub partitions_pruned: u64,
    pub partitions_refined: u64,
    pub objects_pruned: u64,
    /// Objects of refined partitions scored exactly, by this stage or (for
    /// seeded partitions) by the seed; the seed counts what it scored.
    pub objects_refined: u64,
    pub batches: u64,
    /// Batches whose gather passed its cap (per-id descents answered).
    pub gather_overflows: u64,
    pub k_distances: u64,
    pub range_passes: u64,
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.partitions_pruned += other.partitions_pruned;
        self.partitions_refined += other.partitions_refined;
        self.objects_pruned += other.objects_pruned;
        self.objects_refined += other.objects_refined;
        self.batches += other.batches;
        self.gather_overflows += other.gather_overflows;
        self.k_distances += other.k_distances;
        self.range_passes += other.range_passes;
    }
}

/// What the engine gets back once both stages have run.
pub(super) struct Outcome {
    /// Every exactly-scored `(id, score)` pair, unordered.
    pub scored: Vec<(usize, f64)>,
    /// Final θ.
    pub threshold: f64,
    pub tightenings: u64,
    pub heap_churn: u64,
}

impl<'a, P: KnnProvider + Sync + ?Sized> Store<'a, P> {
    /// An empty store over a validated cover, keeping the best `n` scores.
    pub fn new(
        provider: &'a P,
        partitions: &'a [Partition],
        part_of: &'a [usize],
        kd_radius: &'a [f64],
        min_pts: usize,
        n: usize,
    ) -> Self {
        Store {
            provider,
            partitions,
            part_of,
            kd_radius,
            min_pts,
            slots: (0..provider.len())
                .map(|_| Slot { hood: OnceLock::new(), lrd: AtomicU64::new(LRD_UNSET) })
                .collect(),
            k_distances: (0..partitions.len()).map(|_| OnceLock::new()).collect(),
            theta_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            state: Mutex::new(TopState {
                heap: TopHeap::new(n),
                scored: Vec::new(),
                tightenings: 0,
            }),
            stop: AtomicBool::new(false),
            first_error: Mutex::new(None),
        }
    }

    /// The current θ: the n-th best exact score so far, `-∞` before `n`
    /// objects are scored.
    pub fn theta(&self) -> f64 {
        f64::from_bits(self.theta_bits.load(Ordering::Relaxed))
    }

    /// Runs one stage with `threads` workers.
    ///
    /// # Errors
    ///
    /// The first provider error any worker hit.
    pub fn run(&self, stage: &Stage<'_>, threads: usize) -> Result<Tally> {
        let cursor = AtomicUsize::new(0);
        let threads = threads.max(1).min(stage.order.len().max(1));
        let mut tally = Tally::default();
        if threads == 1 {
            tally = self.worker(stage, &cursor);
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> =
                    (0..threads).map(|_| s.spawn(|| self.worker(stage, &cursor))).collect();
                for h in handles {
                    tally.add(&h.join().expect("top-n scoring worker panicked"));
                }
            });
        }
        match self.first_error.lock().expect("error mutex poisoned").take() {
            Some(e) => Err(e),
            None => Ok(tally),
        }
    }

    /// The scores, final θ and heap accounting.
    pub fn finish(self) -> Outcome {
        let state = self.state.into_inner().expect("top-n state mutex poisoned");
        Outcome {
            scored: state.scored,
            threshold: f64::from_bits(self.theta_bits.into_inner()),
            tightenings: state.tightenings,
            heap_churn: state.heap.churn,
        }
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
    /// recorded through [`Store::fail`]).
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

    /// `k-distance(id)`, filled for the whole of `id`'s partition by one
    /// batched query on first use.
    fn k_distance(&self, id: usize, local: &mut Local) -> Option<f64> {
        let pi = self.part_of[id];
        let members = &self.partitions[pi].members;
        let k_distances = self.k_distances[pi].get_or_init(|| {
            local.batches += 1;
            local.k_distances += members.len() as u64;
            let mut out = Vec::with_capacity(members.len());
            let asked = self.provider.k_distances_into(
                members,
                self.min_pts,
                self.kd_radius[pi],
                &mut local.scratch,
                &mut out,
            );
            match asked {
                Ok(()) => {
                    assert_eq!(out.len(), members.len(), "provider skipped k-distances");
                    out.into_boxed_slice()
                }
                Err(e) => {
                    self.fail(e);
                    Box::default()
                }
            }
        });
        let pos = members.binary_search(&id).expect("part_of maps ids to their partition");
        k_distances.get(pos).copied()
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

    /// One worker: claim partitions off the cursor until it runs out.
    fn worker(&self, stage: &Stage<'_>, cursor: &AtomicUsize) -> Tally {
        let mut tally = Tally::default();
        let mut local = Local::default();
        loop {
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            let slot = cursor.fetch_add(1, Ordering::Relaxed);
            if slot >= stage.order.len() {
                break;
            }
            let pi = stage.order[slot];
            let members = self.partitions[pi].members.len() as u64;
            if let Some(envelopes) = stage.envelopes {
                // Claim-time check: θ may have risen past this partition's
                // envelope since the order was fixed. Strict `<` keeps ties.
                if envelopes[pi].lof.upper < self.theta() {
                    tally.partitions_pruned += 1;
                    tally.objects_pruned += members;
                    continue;
                }
                tally.partitions_refined += 1;
                if stage.seeded[pi] {
                    tally.objects_refined += members;
                    continue;
                }
            }
            let Some((pruned, refined)) = self.score_partition(pi, stage.envelopes, &mut local)
            else {
                break;
            };
            tally.objects_pruned += pruned;
            tally.objects_refined += refined;
        }
        // Flush this worker's kernel counters before the scratch dies.
        tally.gather_overflows = local.scratch.stats.gather_overflows;
        local.scratch.stats.publish_and_reset();
        tally.batches = local.batches;
        tally.k_distances = local.k_distances;
        tally.range_passes = local.range_passes;
        tally
    }

    /// Scores one partition; returns `(objects_pruned, objects_refined)`,
    /// or `None` once a k-NN query has failed. With envelopes, each object
    /// first faces its Theorem 2 bound against θ.
    fn score_partition(
        &self,
        pi: usize,
        envelopes: Option<&[PartitionEnvelope]>,
        local: &mut Local,
    ) -> Option<(u64, u64)> {
        let part = &self.partitions[pi];
        let mut scored: Vec<(usize, f64)> = Vec::with_capacity(part.members.len());
        let mut objects_pruned = 0u64;
        for &id in &part.members {
            let hood = self.hood(id, local)?;
            if let Some(envelopes) = envelopes {
                let theta = self.theta();
                if theta > f64::NEG_INFINITY
                    && object_upper_bound(envelopes, self.part_of, hood, local) < theta
                {
                    objects_pruned += 1;
                    continue;
                }
            }
            scored.push((id, self.exact_lof(id, hood, local)?));
        }

        let objects_refined = scored.len() as u64;
        if !scored.is_empty() {
            let mut state = self.state.lock().expect("top-n state mutex poisoned");
            for &(id, score) in &scored {
                state.heap.offer(Cand { id, score });
            }
            let new_theta = state.heap.threshold();
            if new_theta > self.theta() {
                // Monotone by construction: every writer holds this mutex.
                self.theta_bits.store(new_theta.to_bits(), Ordering::Relaxed);
                state.tightenings += u64::from(envelopes.is_some());
            }
            state.scored.append(&mut scored);
        }
        Some((objects_pruned, objects_refined))
    }

    /// Exact `LOF_MinPts(id)` through the 2-hop neighborhood (`hood` is
    /// `N_MinPts(id)`), arithmetic bit-identical to the full-sweep path
    /// ([`crate::lof::lof_values`]): same reach-dist / lrd conventions,
    /// same summation order (canonical neighborhood order), same final
    /// division.
    fn exact_lof(&self, id: usize, hood: &[Neighbor], local: &mut Local) -> Option<f64> {
        let lrd_id = self.lrd(id, local)?;
        let mut sum = 0.0;
        for nb in hood {
            sum += lrd_ratio(self.lrd(nb.id, local)?, lrd_id);
        }
        Some(sum / hood.len() as f64)
    }
}

/// Theorem 2 upper bound for a single object from its *exact* direct
/// distances and the partition envelopes of its neighbors: the
/// neighborhood is grouped by partition, each group's direct envelope is
/// `max(neighbor partition's k-distance envelope, exact distance)` folded
/// over the group, and each group's indirect envelope is its partition's
/// direct envelope.
fn object_upper_bound(
    envelopes: &[PartitionEnvelope],
    part_of: &[usize],
    hood: &[Neighbor],
    local: &mut Local,
) -> f64 {
    local.groups.clear();
    for nb in hood {
        let qp = part_of[nb.id];
        let env = &envelopes[qp];
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
