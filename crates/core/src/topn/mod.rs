//! Bound-driven top-n outlier mining (the paper's section 5, made exact).
//!
//! The full two-step algorithm scores every object; but the question
//! users actually ask — "which are the n most outlying objects?" — can
//! usually be answered while *scoring only a sliver of the dataset*. The
//! engine here does that without giving up exactness, in five stages:
//!
//! 1. **Partition**: the caller supplies micro-partitions (spatial
//!    indexes expose their leaf structure through [`PartitionSource`];
//!    any exact cover with valid bounding boxes works).
//! 2. **k-distance envelopes**: pure rectangle geometry bounds every
//!    partition's k-distances (the first of [`partition_envelopes`]'s
//!    three passes, on the engine's worker threads).
//! 3. **Seed θ**: the members of the most isolated partitions (by
//!    [`Partition::isolation`]) are scored exactly until `2n` objects
//!    are; θ is the n-th best of those scores. It is an exact score of a
//!    real object, so it is a sound threshold on any data.
//! 4. **Direct and indirect envelopes, at θ**: the other two passes turn
//!    the k-distance envelopes into per-partition `[LOFmin, LOFmax]` via
//!    Theorem 1, folding whole box-tree subtrees wherever the tightness
//!    they give up could not lift a partition's `LOFmax` to θ.
//! 5. **Refine**: partitions whose `LOFmax` is not strictly below θ are
//!    scored exactly (per-object Theorem 2 bounds give each object one
//!    more chance to be pruned), in parallel, over the seed's store,
//!    which answers each object's k-distance and neighborhood at most
//!    once, whichever worker needs it, and each k-distance a partition at
//!    a time.
//!
//! The result is **bit-identical** to sorting a full sweep's scores by
//! `(score desc, id asc)` and truncating — the differential property
//! suite in `tests/topn_differential.rs` enforces this for every index,
//! metric, `MinPts`, and thread count.

mod boxtree;
mod envelope;
mod refine;

pub use envelope::{partition_envelopes, PartitionEnvelope};

use crate::distance::{squared_euclidean, BlockedForm, Metric};
use crate::error::{LofError, Result};
use crate::lof::lof_values;
use crate::materialize::NeighborhoodTable;
use crate::neighbors::KnnProvider;
use boxtree::{BoxTree, Key};

/// One micro-partition: a bounding box, the ids it contains, and exact
/// intra-partition distance profiles.
///
/// The profiles exist because box geometry alone can never prune: any
/// partition's own box admits coincident members, forcing its k-distance
/// lower bound — and with it every reachable partition's `LOFmax` — to
/// collapse (`indirect_min = 0` ⇒ `LOFmax = ∞`). Exact *member-derived*
/// rank distances restore finite bounds wherever the data itself is
/// non-degenerate, and on duplicate piles they honestly report 0, which
/// degrades pruning to a full sweep instead of breaking exactness.
///
/// Contract (validated by [`TopNEngine::run`] /
/// [`partition_envelopes`] where possible): `members` is strictly
/// ascending, partitions are disjoint and jointly cover
/// `0..provider.len()`, every member's coordinates lie inside
/// `[lo, hi]`, and the rank profiles are ascending per-rank bounds over
/// the members' intra-partition neighbor distances. The geometric parts
/// are the caller's responsibility since providers do not expose
/// coordinates; [`Partition::from_member_points`] computes all of it
/// from raw coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// Lower corner of the bounding box.
    pub lo: Vec<f64>,
    /// Upper corner of the bounding box.
    pub hi: Vec<f64>,
    /// Member object ids, strictly ascending.
    pub members: Vec<usize>,
    /// `min_rank_dists[j]` lower-bounds every member's `(j+1)`-th
    /// smallest intra-partition neighbor distance (ascending). May be
    /// shorter than `members.len() - 1` (missing ranks are treated as
    /// unknown, weakening bounds but never breaking them); empty
    /// disables profile-based lower bounds entirely.
    pub min_rank_dists: Vec<f64>,
    /// `max_rank_dists[j]` upper-bounds every member's `(j+1)`-th
    /// smallest intra-partition neighbor distance (ascending). Same
    /// length/emptiness semantics as `min_rank_dists`.
    pub max_rank_dists: Vec<f64>,
    /// Lower bound on the distance from any member to any *non-member*
    /// of this partition (its isolation radius). `0.0` means unknown
    /// and is always sound. Rectangle distances between tightly tiled
    /// partitions collapse to ≈0 even when the closest cross-partition
    /// point pair is far apart (tree splits land on shared coordinate
    /// values, so sibling boxes abut); a point-derived isolation radius
    /// restores the lost gap and with it the k-distance lower bounds
    /// that pruning runs on. Like the boxes and rank profiles, it is a
    /// statement about the *dataset the partitioning covers* — reusing
    /// a partition against different data voids it.
    pub isolation: f64,
}

impl Partition {
    /// Builds a partition from member coordinates: tight bounding box
    /// plus exact intra-partition rank profiles (all-pairs over the
    /// members, so keep partitions leaf-sized).
    ///
    /// Under a squared-Euclidean form the rows are sorted and folded as
    /// squared distances and each rank takes one `sqrt` at the end: `sqrt`
    /// is monotone and correctly rounded, so the profiles are bit for bit
    /// those of sorting `metric.distance` values.
    ///
    /// `point_of` maps a member id to its coordinate slice. `members`
    /// must be non-empty and strictly ascending (checked downstream).
    pub fn from_member_points<'a, M, F>(metric: &M, members: Vec<usize>, point_of: F) -> Self
    where
        M: Metric + ?Sized,
        F: Fn(usize) -> &'a [f64],
    {
        let dims = members.first().map_or(0, |&id| point_of(id).len());
        let mut lo = vec![f64::INFINITY; dims];
        let mut hi = vec![f64::NEG_INFINITY; dims];
        for &id in &members {
            let pt = point_of(id);
            for d in 0..dims {
                lo[d] = lo[d].min(pt[d]);
                hi[d] = hi[d].max(pt[d]);
            }
        }
        let m = members.len();
        let ranks = m.saturating_sub(1);
        let mut min_rank_dists = vec![f64::INFINITY; ranks];
        let mut max_rank_dists = vec![f64::NEG_INFINITY; ranks];
        let form = metric.blocked_form();
        let mut row = Vec::with_capacity(ranks);
        for (i, &a) in members.iter().enumerate() {
            row.clear();
            for (j, &b) in members.iter().enumerate() {
                if i != j {
                    row.push(match form {
                        BlockedForm::Generic => metric.distance(point_of(a), point_of(b)),
                        _ => squared_euclidean(point_of(a), point_of(b)),
                    });
                }
            }
            row.sort_unstable_by(f64::total_cmp);
            for (r, &dist) in row.iter().enumerate() {
                min_rank_dists[r] = min_rank_dists[r].min(dist);
                max_rank_dists[r] = max_rank_dists[r].max(dist);
            }
        }
        if form == BlockedForm::Euclidean {
            for dist in min_rank_dists.iter_mut().chain(&mut max_rank_dists) {
                *dist = dist.sqrt();
            }
        }
        Partition { lo, hi, members, min_rank_dists, max_rank_dists, isolation: 0.0 }
    }
}

/// Most candidate partitions one isolation query may verify exactly;
/// past the cap the rectangle distance of the next candidate floors the
/// radius instead (sound, just looser).
const ISOLATION_CANDIDATE_CAP: usize = 64;

/// Largest member-count product for which one candidate pair is verified
/// point-by-point; bigger pairs (oversized duplicate leaves) fall back to
/// the rectangle distance.
const ISOLATION_PAIR_CAP: usize = 4096;

/// The work one [`set_isolation_radii`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IsolationWork {
    /// Distinct unordered partition pairs verified point by point.
    pub pairs: u64,
    /// Point distances evaluated while verifying them.
    pub evals: u64,
}

/// Sets every partition's [`Partition::isolation`] to its exact (capped)
/// radius: the minimum distance from any member to any point outside the
/// partition, which is also the minimum over other partitions of the
/// bipartite closest-pair distance (the cover property). A
/// single-partition cover has no non-members and gets `+inf`.
///
/// Each partition's query walks the box tree over the partitions
/// best-first by rectangle distance, verifies candidate partitions
/// point-by-point, and stops once the next rectangle distance cannot beat
/// the best verified pair. Past `ISOLATION_CANDIDATE_CAP` (64) verified
/// candidates, or for a pair over `ISOLATION_PAIR_CAP` (4,096) point
/// pairs, the candidate's rectangle distance floors the radius instead.
///
/// A pair's value is its exact closest-pair distance, whichever side
/// asks, so each unordered pair is verified once: the query of the
/// lower-numbered partition hands its result to the other, and both
/// queries count the pair against the caps, so a capped radius does not
/// depend on the sharing. Under a squared-Euclidean form a pair is
/// verified on squared distances with one `sqrt` at the end, which is
/// exact for the same reason as the rank profiles'
/// ([`Partition::from_member_points`]).
///
/// `point_of` maps an id to its coordinate slice; every partition needs a
/// valid box ([`partition_envelopes`] checks).
pub fn set_isolation_radii<'a, M, F>(
    metric: &M,
    parts: &mut [Partition],
    point_of: F,
) -> IsolationWork
where
    M: Metric + ?Sized,
    F: Fn(usize) -> &'a [f64],
{
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let mut work = IsolationWork::default();
    if parts.len() < 2 {
        parts.iter_mut().for_each(|p| p.isolation = f64::INFINITY);
        return work;
    }
    let tree = BoxTree::build(parts);
    let form = metric.blocked_form();
    // The closest-pair distance of two partitions, computed in full: a
    // shared value must be the pair's exact minimum, not one cut short by
    // the asking side's running best.
    let mut closest_pair = |a: &Partition, b: &Partition| {
        work.pairs += 1;
        work.evals += (a.members.len() * b.members.len()) as u64;
        let mut best = f64::INFINITY;
        for &x in &a.members {
            for &y in &b.members {
                best = best.min(match form {
                    BlockedForm::Generic => metric.distance(point_of(x), point_of(y)),
                    _ => squared_euclidean(point_of(x), point_of(y)),
                });
            }
        }
        if form == BlockedForm::Euclidean {
            best.sqrt()
        } else {
            best
        }
    };
    // `inbox[j]` holds the `(i, value)` pairs that lower-numbered
    // partitions `i` verified against `j`.
    let mut inbox: Vec<Vec<(usize, f64)>> = vec![Vec::new(); parts.len()];
    let mut heap: BinaryHeap<Reverse<(Key, usize)>> = BinaryHeap::new();
    let mut radii = Vec::with_capacity(parts.len());
    for (i, src) in parts.iter().enumerate() {
        let received = std::mem::take(&mut inbox[i]);
        heap.clear();
        heap.push(Reverse((Key(0.0), tree.root)));
        let mut best = f64::INFINITY;
        let mut verified = 0usize;
        while let Some(Reverse((Key(key), ni))) = heap.pop() {
            if key >= best {
                break;
            }
            let node = &tree.nodes[ni];
            match node.children() {
                Some((l, r)) => {
                    for child in [l, r] {
                        let (lo, hi) = tree.bbox(child);
                        let d = metric.min_dist_between_rects(&src.lo, &src.hi, lo, hi);
                        if d < best {
                            heap.push(Reverse((Key(d), child)));
                        }
                    }
                }
                None if node.part() == i => {}
                None => {
                    let j = node.part();
                    let other = &parts[j];
                    let pairs = src.members.len() * other.members.len();
                    if verified >= ISOLATION_CANDIDATE_CAP || pairs > ISOLATION_PAIR_CAP {
                        // Fall back to the rectangle distance: looser
                        // but sound, and it terminates the traversal.
                        best = best.min(key);
                        continue;
                    }
                    verified += 1;
                    let shared = received.iter().find(|&&(from, _)| from == j);
                    let value = match shared {
                        Some(&(_, value)) => value,
                        None => {
                            let value = closest_pair(src, other);
                            if j > i {
                                inbox[j].push((i, value));
                            }
                            value
                        }
                    };
                    best = best.min(value);
                }
            }
        }
        radii.push(best);
    }
    for (p, r) in parts.iter_mut().zip(radii) {
        p.isolation = r;
    }
    work
}

/// Implemented by spatial indexes that can expose their leaf structure
/// as a partitioning suitable for [`TopNEngine`].
pub trait PartitionSource {
    /// The index's micro-partitions: an exact disjoint cover of the
    /// dataset with per-partition bounding boxes.
    fn partitions(&self) -> Vec<Partition>;
}

/// Work accounting for one engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopNStats {
    /// Total partitions supplied.
    pub partitions: u64,
    /// Partitions eliminated by the θ check without being scored by
    /// refinement (the seed may have scored some of them).
    pub partitions_pruned: u64,
    /// Partitions that passed the θ check.
    pub partitions_refined: u64,
    /// Objects not counted in `objects_refined`: members of pruned
    /// partitions, and objects pruned by the per-object Theorem 2 bound.
    pub objects_pruned: u64,
    /// Objects of partitions that passed the θ check that were scored
    /// exactly, by the seed or by refinement.
    pub objects_refined: u64,
    /// Objects the seed scored exactly, including members of partitions
    /// the θ check later prunes.
    pub seed_objects: u64,
    /// k-distances the seed and refinement asked for: every member of
    /// each partition of which they read any k-distance.
    pub k_distances: u64,
    /// `k_distances_into` calls that asked for them, one per partition.
    pub k_distance_batches: u64,
    /// Those calls whose provider gave up on one shared candidate gather
    /// and answered each id by its own descent (kd and ball trees: the
    /// gather around the partition passed its cap).
    pub k_distance_gather_overflows: u64,
    /// `within` calls the seed and refinement ran: one per object whose
    /// neighborhood they read, at that object's known k-distance.
    pub range_passes: u64,
    /// Box-tree nodes the direct and indirect envelope passes folded
    /// whole at θ where full tightness would have descended.
    pub nodes_folded_at_theta: u64,
    /// Times refinement raised θ above the seed's value.
    pub threshold_tightenings: u64,
    /// Evictions from the candidate heap (set instability).
    pub heap_churn: u64,
}

/// Outcome of a [`TopNEngine::run`].
#[derive(Debug, Clone)]
pub struct TopNResult {
    /// The top `n` objects as `(id, LOF)`, ordered by
    /// `(score desc, id asc)` — exactly the prefix of a sorted full
    /// sweep. Shorter than `n` only when the dataset is.
    pub ranking: Vec<(usize, f64)>,
    /// Final pruning threshold θ: the n-th best exact score, `-∞` when
    /// the dataset holds fewer than `n` objects.
    pub threshold: f64,
    /// θ after the seed, before any envelope beyond the k-distances: the
    /// n-th best score among the seed's objects (`-∞` if it scored fewer
    /// than `n`). Equal to `threshold` when the seed found the answer.
    pub seed_theta: f64,
    /// Work accounting.
    pub stats: TopNStats,
}

/// The bound-driven top-n engine. Construct with [`TopNEngine::new`],
/// optionally widen with [`TopNEngine::with_threads`], then call
/// [`TopNEngine::run`].
#[derive(Debug, Clone, Copy)]
pub struct TopNEngine {
    min_pts: usize,
    n: usize,
    threads: usize,
}

impl TopNEngine {
    /// Engine answering "the `n` objects with the highest
    /// `LOF_{min_pts}`", single-threaded by default.
    pub fn new(min_pts: usize, n: usize) -> Self {
        TopNEngine { min_pts, n, threads: 1 }
    }

    /// Sets the worker count of the envelope passes and of refinement
    /// (clamped to at least 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured `MinPts`.
    pub fn min_pts(&self) -> usize {
        self.min_pts
    }

    /// The configured result size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs the partition → k-distance envelope → seed → envelope at θ
    /// → refine pipeline.
    ///
    /// `partitions` must exactly cover the provider's id space (see
    /// [`Partition`]); pass an index's [`PartitionSource::partitions`]
    /// output, or any custom cover.
    ///
    /// # Errors
    ///
    /// [`LofError::EmptyDataset`] on an empty provider,
    /// [`LofError::InvalidMinPts`] when `min_pts` is 0 or not below the
    /// dataset size, [`LofError::UnknownObject`] /
    /// [`LofError::InvalidPartition`] for covers that reference unknown
    /// ids, repeat ids, miss ids, or carry malformed boxes, plus
    /// anything the provider's k-NN queries report.
    pub fn run<P>(&self, provider: &P, partitions: &[Partition]) -> Result<TopNResult>
    where
        P: KnnProvider + PartitionMetric + Sync + ?Sized,
    {
        self.run_with_metric(provider, provider.partition_metric(), partitions)
    }

    /// [`TopNEngine::run`] with an explicit metric for the envelope
    /// geometry, for providers that don't carry one.
    ///
    /// # Errors
    ///
    /// Same as [`TopNEngine::run`].
    pub fn run_with_metric<P, M>(
        &self,
        provider: &P,
        metric: &M,
        partitions: &[Partition],
    ) -> Result<TopNResult>
    where
        P: KnnProvider + Sync + ?Sized,
        M: Metric + ?Sized,
    {
        let n_objects = provider.len();
        if n_objects == 0 {
            return Err(LofError::EmptyDataset);
        }
        if self.min_pts == 0 || self.min_pts >= n_objects {
            return Err(LofError::InvalidMinPts { min_pts: self.min_pts, dataset_size: n_objects });
        }
        let part_of = validate_cover(partitions, n_objects)?;

        let mut stats = TopNStats { partitions: partitions.len() as u64, ..TopNStats::default() };
        if self.n == 0 {
            stats.partitions_pruned = stats.partitions;
            stats.objects_pruned = n_objects as u64;
            publish_stats(&stats);
            return Ok(TopNResult {
                ranking: Vec::new(),
                threshold: f64::INFINITY,
                seed_theta: f64::INFINITY,
                stats,
            });
        }

        let mut kd = envelope::k_distance_pass(metric, partitions, self.min_pts, self.threads)?;
        let store =
            refine::Store::new(provider, partitions, &part_of, &kd.upper, self.min_pts, self.n);

        let seed_order = seed_partitions(partitions, self.n.saturating_mul(2));
        let mut seeded = vec![false; partitions.len()];
        for &pi in &seed_order {
            seeded[pi] = true;
        }
        let seed = {
            let _span = lof_obs::span!("core.topn.seed");
            let stage = refine::Stage { order: &seed_order, envelopes: None, seeded: &seeded };
            store.run(&stage, self.threads)?
        };
        let seed_theta = store.theta();

        let (envelopes, folded) = envelope::reach_passes(
            metric,
            &mut kd.tree,
            partitions,
            &kd.lower,
            &kd.upper,
            seed_theta,
            self.threads,
        );

        // Refine in envelope-LOFmax order: likely outliers first, so θ
        // tightens as early as possible.
        let mut order: Vec<usize> = (0..partitions.len()).collect();
        order.sort_unstable_by(|&a, &b| {
            envelopes[b].lof.upper.total_cmp(&envelopes[a].lof.upper).then(a.cmp(&b))
        });
        let refined = {
            let _span = lof_obs::span!("core.topn.refine");
            let stage =
                refine::Stage { order: &order, envelopes: Some(&envelopes), seeded: &seeded };
            store.run(&stage, self.threads)?
        };
        let outcome = store.finish();

        let mut ranking = outcome.scored;
        ranking.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranking.truncate(self.n);

        stats.partitions_pruned = refined.partitions_pruned;
        stats.partitions_refined = refined.partitions_refined;
        stats.objects_pruned = refined.objects_pruned;
        stats.objects_refined = refined.objects_refined;
        stats.seed_objects = seed.objects_refined;
        stats.k_distances = seed.k_distances + refined.k_distances;
        stats.k_distance_batches = seed.batches + refined.batches;
        stats.k_distance_gather_overflows = seed.gather_overflows + refined.gather_overflows;
        stats.range_passes = seed.range_passes + refined.range_passes;
        stats.nodes_folded_at_theta = folded;
        stats.threshold_tightenings = outcome.tightenings;
        stats.heap_churn = outcome.heap_churn;
        publish_stats(&stats);
        Ok(TopNResult { ranking, threshold: outcome.threshold, seed_theta, stats })
    }
}

/// The seed's partitions: in falling isolation radius (ties by index),
/// until they hold `budget` objects or run out.
fn seed_partitions(partitions: &[Partition], budget: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..partitions.len()).collect();
    order.sort_unstable_by(|&a, &b| {
        partitions[b].isolation.total_cmp(&partitions[a].isolation).then(a.cmp(&b))
    });
    let mut covered = 0usize;
    let take = order.iter().position(|&pi| {
        covered += partitions[pi].members.len();
        covered >= budget
    });
    order.truncate(take.map_or(order.len(), |i| i + 1));
    order
}

/// Providers that know the metric their geometry lives in, letting
/// [`TopNEngine::run`] derive envelope bounds without an explicit metric
/// argument.
pub trait PartitionMetric {
    /// The metric governing this provider's distances.
    fn partition_metric(&self) -> &dyn Metric;
}

/// The reference answer: a full-sweep materialization and scoring pass,
/// sorted by `(score desc, id asc)` and truncated to `n`. The engine's
/// output must be bit-identical to this; the CLI also uses it as the
/// fallback for providers without partition support.
///
/// # Errors
///
/// Same as [`NeighborhoodTable::build`] / [`lof_values`].
pub fn topn_reference<P>(provider: &P, min_pts: usize, n: usize) -> Result<Vec<(usize, f64)>>
where
    P: KnnProvider + ?Sized,
{
    let table = NeighborhoodTable::build(provider, min_pts)?;
    let lof = lof_values(&table, min_pts)?;
    let mut ranking: Vec<(usize, f64)> = lof.into_iter().enumerate().collect();
    ranking.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    ranking.truncate(n);
    Ok(ranking)
}

/// Validates the cover and returns the `id -> partition index` map.
fn validate_cover(partitions: &[Partition], n_objects: usize) -> Result<Vec<usize>> {
    let mut part_of = vec![usize::MAX; n_objects];
    let mut total = 0usize;
    for (pi, part) in partitions.iter().enumerate() {
        if part.members.is_empty() {
            return Err(LofError::InvalidPartition(format!("partition {pi} has no members")));
        }
        let mut prev: Option<usize> = None;
        for &id in &part.members {
            if id >= n_objects {
                return Err(LofError::UnknownObject { id, dataset_size: n_objects });
            }
            if prev.is_some_and(|p| p >= id) {
                return Err(LofError::InvalidPartition(format!(
                    "partition {pi} members must be strictly ascending"
                )));
            }
            if part_of[id] != usize::MAX {
                return Err(LofError::InvalidPartition(format!(
                    "object {id} appears in partitions {} and {pi}",
                    part_of[id]
                )));
            }
            part_of[id] = pi;
            prev = Some(id);
            total += 1;
        }
    }
    if total != n_objects {
        return Err(LofError::InvalidPartition(format!(
            "partitions cover {total} of {n_objects} objects"
        )));
    }
    Ok(part_of)
}

/// Mirrors the run's accounting into the lof-obs registry (no-op when
/// the `obs` feature is off or the recorder is disabled).
fn publish_stats(stats: &TopNStats) {
    crate::obs::publish_topn(stats);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::Euclidean;
    use crate::point::Dataset;
    use crate::scan::LinearScan;

    fn dataset() -> Dataset {
        let mut rows: Vec<[f64; 2]> = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                rows.push([i as f64, j as f64]);
            }
        }
        rows.push([40.0, 40.0]);
        rows.push([-25.0, 10.0]);
        Dataset::from_rows(&rows).unwrap()
    }

    fn chunked(data: &Dataset, size: usize) -> Vec<Partition> {
        (0..data.len())
            .collect::<Vec<_>>()
            .chunks(size)
            .map(|members| {
                Partition::from_member_points(&Euclidean, members.to_vec(), |id| data.point(id))
            })
            .collect()
    }

    #[test]
    fn engine_matches_reference_on_mixed_data() {
        let data = dataset();
        let scan = LinearScan::new(&data, Euclidean);
        let parts = chunked(&data, 5);
        for n in [1usize, 3, 10, data.len(), data.len() + 5] {
            for threads in [1usize, 3] {
                let engine = TopNEngine::new(4, n).with_threads(threads);
                let got = engine.run_with_metric(&scan, &Euclidean, &parts).unwrap();
                let want = topn_reference(&scan, 4, n).unwrap();
                assert_eq!(got.ranking, want, "n={n} threads={threads}");
                assert_eq!(
                    got.stats.objects_pruned + got.stats.objects_refined,
                    data.len() as u64,
                    "n={n} threads={threads}: every object accounted for"
                );
            }
        }
    }

    #[test]
    fn zero_n_short_circuits() {
        let data = dataset();
        let scan = LinearScan::new(&data, Euclidean);
        let parts = chunked(&data, 7);
        let res = TopNEngine::new(3, 0).run_with_metric(&scan, &Euclidean, &parts).unwrap();
        assert!(res.ranking.is_empty());
        assert_eq!(res.stats.partitions_pruned, parts.len() as u64);
        assert_eq!(res.stats.objects_refined, 0);
    }

    #[test]
    fn validation_rejects_broken_covers() {
        let data = dataset();
        let scan = LinearScan::new(&data, Euclidean);
        let engine = TopNEngine::new(3, 5);
        let mut parts = chunked(&data, 9);

        let dropped = parts.pop().unwrap();
        let err = engine.run_with_metric(&scan, &Euclidean, &parts).unwrap_err();
        assert!(matches!(err, LofError::InvalidPartition(_)), "missing ids: {err}");
        parts.push(dropped);

        let mut dup = parts.clone();
        dup[1].members[0] = dup[0].members[0];
        assert!(engine.run_with_metric(&scan, &Euclidean, &dup).is_err());

        let mut unsorted = parts.clone();
        unsorted[0].members.swap(0, 1);
        assert!(engine.run_with_metric(&scan, &Euclidean, &unsorted).is_err());

        let mut alien = parts.clone();
        let last = alien.last_mut().unwrap();
        *last.members.last_mut().unwrap() = data.len() + 10;
        assert!(matches!(
            engine.run_with_metric(&scan, &Euclidean, &alien),
            Err(LofError::UnknownObject { .. })
        ));

        assert!(matches!(
            TopNEngine::new(0, 5).run_with_metric(&scan, &Euclidean, &parts),
            Err(LofError::InvalidMinPts { .. })
        ));
    }

    /// A scan whose k-NN query fails for one id.
    struct FailingScan<'a> {
        scan: LinearScan<'a, Euclidean>,
        bad: usize,
    }

    impl KnnProvider for FailingScan<'_> {
        fn len(&self) -> usize {
            self.scan.len()
        }

        fn k_nearest_into(
            &self,
            id: usize,
            k: usize,
            scratch: &mut crate::KnnScratch,
            out: &mut Vec<crate::neighbors::Neighbor>,
        ) -> Result<usize> {
            if id == self.bad {
                return Err(LofError::UnknownObject { id, dataset_size: 0 });
            }
            self.scan.k_nearest_into(id, k, scratch, out)
        }

        fn within(&self, id: usize, radius: f64) -> Result<Vec<crate::neighbors::Neighbor>> {
            self.scan.within(id, radius)
        }
    }

    #[test]
    fn a_failed_query_is_the_reported_error_at_any_thread_count() {
        let data = dataset();
        let parts = chunked(&data, 3);
        for threads in [1usize, 2, 4] {
            let failing = FailingScan { scan: LinearScan::new(&data, Euclidean), bad: 7 };
            let err = TopNEngine::new(4, data.len())
                .with_threads(threads)
                .run_with_metric(&failing, &Euclidean, &parts)
                .unwrap_err();
            assert!(
                matches!(err, LofError::UnknownObject { id: 7, dataset_size: 0 }),
                "threads={threads}: {err}"
            );
        }
    }

    #[test]
    fn engine_prunes_on_clustered_data() {
        // One very tight cluster far from three isolated outliers, with
        // spatially local partitions (like tree leaves): the cluster
        // partitions are confidently inliers, so with a small n the
        // engine must actually skip work.
        let mut rows: Vec<[f64; 2]> = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                rows.push([i as f64 * 0.01, j as f64 * 0.01]);
            }
        }
        rows.push([50.0, 50.0]);
        rows.push([-50.0, 30.0]);
        rows.push([10.0, -80.0]);
        let data = Dataset::from_rows(&rows).unwrap();
        let scan = LinearScan::new(&data, Euclidean);
        // One partition per grid column (disjoint boxes, like tree
        // leaves), and each far-away outlier in its own singleton
        // partition. Spatial locality is what buys prunable envelopes.
        let mut parts: Vec<Partition> = (0..400)
            .collect::<Vec<_>>()
            .chunks(20)
            .map(|members| {
                Partition::from_member_points(&Euclidean, members.to_vec(), |id| data.point(id))
            })
            .collect();
        for id in 400..403 {
            parts.push(Partition::from_member_points(&Euclidean, vec![id], |id| data.point(id)));
        }
        let engine = TopNEngine::new(5, 3);
        let got = engine.run_with_metric(&scan, &Euclidean, &parts).unwrap();
        let want = topn_reference(&scan, 5, 3).unwrap();
        assert_eq!(got.ranking, want);
        assert!(
            got.stats.partitions_pruned > 0 && got.stats.objects_pruned > 300,
            "expected heavy pruning on clustered data, stats: {:?}",
            got.stats
        );
        assert!(got.threshold > 1.0, "threshold should exceed the inlier plateau");
    }
}
