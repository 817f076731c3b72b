//! Geometric per-partition envelopes: everything the pruning engine knows
//! about a partition *before* materializing a single neighborhood.
//!
//! The envelopes are computed from pure rectangle geometry over the box
//! tree on the partition bounding boxes ([`super::boxtree`], the same
//! flat tree the isolation radii walk), so the cost is `O(L log L)`-ish
//! over `L` partitions, never the `O(L²)` pairwise comparison. Each
//! worker keeps its traversal heaps and stack across the partitions it
//! bounds, so the passes do not allocate per partition:
//!
//! 1. **k-distance envelope** `[kd_lb, kd_ub]`: one best-first traversal
//!    accumulates partition counts by rectangle-to-rectangle distance
//!    until `MinPts` objects are covered at both ends. The upper end
//!    counts by farthest distance (any member of the source partition can
//!    reach `MinPts` others within it); the lower end by closest distance
//!    (fewer than `MinPts` objects can lie strictly closer).
//! 2. **Direct envelope** `[direct_min, direct_max]`: over the
//!    *reachable set* — partitions within `kd_ub` of the source — fold
//!    `max(kd envelope, rect distance)` per Definition 5's
//!    `reach-dist(p, q) = max(k-distance(q), d(p, q))`.
//! 3. **Indirect envelope**: the same reachable traversal folding the
//!    *direct* envelopes of the reachable partitions, because an
//!    indirect neighbor's reachability distance is a direct reachability
//!    distance of some reachable partition's member.
//!
//! Feeding the envelopes into [`theorem1_bounds`] yields per-partition
//! `[LOFmin, LOFmax]`. Validity rests only on
//! [`Metric::min_dist_between_rects`] / [`Metric::max_dist_between_rects`]
//! being true bounds — no triangle inequality is used, so the squared
//! Euclidean pseudo-metric prunes exactly too. Metrics without rectangle
//! bounds (the defaults `0`/`+∞`) produce vacuous envelopes: the engine
//! stays exact and degenerates to a full sweep.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

use super::boxtree::{BoxTree, Key};
use super::Partition;
use crate::bounds::{
    clamp_envelope_lower, clamp_envelope_upper, theorem1_bounds, LofBounds, NeighborhoodStats,
};
use crate::distance::Metric;
use crate::error::{LofError, Result};
use crate::parallel::map_strided_with;

/// Everything the engine derives about one partition from geometry alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionEnvelope {
    /// Lower bound on `k-distance(p)` for every member `p`.
    pub k_distance_lower: f64,
    /// Upper bound on `k-distance(p)` for every member `p`.
    pub k_distance_upper: f64,
    /// Lower bound on every member's direct reachability distances.
    pub direct_min: f64,
    /// Upper bound on every member's direct reachability distances.
    pub direct_max: f64,
    /// Lower bound on every member's indirect reachability distances.
    pub indirect_min: f64,
    /// Upper bound on every member's indirect reachability distances.
    pub indirect_max: f64,
    /// Theorem 1 LOF bounds implied by the four envelopes, with
    /// degenerate values clamped to the vacuous sides.
    pub lof: LofBounds,
}

impl PartitionEnvelope {
    /// The no-information envelope: every bound vacuous. Used verbatim
    /// when the metric has no rectangle geometry.
    fn vacuous() -> Self {
        PartitionEnvelope {
            k_distance_lower: 0.0,
            k_distance_upper: f64::INFINITY,
            direct_min: 0.0,
            direct_max: f64::INFINITY,
            indirect_min: 0.0,
            indirect_max: f64::INFINITY,
            lof: LofBounds { lower: 0.0, upper: f64::INFINITY },
        }
    }
}

/// One worker's traversal buffers, reused across its partitions and
/// passes so that no traversal allocates once they are warm.
#[derive(Default)]
struct Walk {
    /// Best-first node heap keyed by closest rectangle distance.
    near: BinaryHeap<Reverse<(Key, usize)>>,
    /// Waiting leaves keyed by farthest rectangle distance, with their
    /// member counts.
    far: BinaryHeap<Reverse<(Key, usize)>>,
    /// Depth-first node stack of the reachable-set folds.
    stack: Vec<usize>,
}

/// One end of a k-distance envelope: a running count over an ascending
/// candidate stream, stopped at the `MinPts`-th candidate. The intra part
/// of the stream is the partition's own exact rank profile, one
/// candidate per rank, padded past the provided profile by `pad`.
struct RankMerge<'a> {
    ranks: &'a [f64],
    pad: f64,
    /// Intra candidates: the source partition's `members - 1` others.
    intra_total: usize,
    intra_next: usize,
    acc: usize,
    min_pts: usize,
}

impl RankMerge<'_> {
    /// Counts every remaining intra candidate `<= limit`, in order;
    /// returns the one that reaches `MinPts`, if any does.
    fn intra_upto(&mut self, limit: f64) -> Option<f64> {
        while self.intra_next < self.intra_total {
            let value = self.ranks.get(self.intra_next).copied().unwrap_or(self.pad);
            if value > limit {
                break;
            }
            self.intra_next += 1;
            if let Some(hit) = self.take(1, value) {
                return Some(hit);
            }
        }
        None
    }

    /// Counts `count` candidates at `value`; `value` if that reaches
    /// `MinPts`.
    fn take(&mut self, count: usize, value: f64) -> Option<f64> {
        self.acc += count;
        (self.acc >= self.min_pts).then_some(value)
    }
}

/// Upper-end consumption: external leaves waiting in `far` (keyed by
/// farthest rectangle distance), merged with the max-rank intra stream,
/// are counted in ascending order up to `limit`. Intra candidates go first
/// on ties; tied candidates carry the same value, so the order among
/// them cannot change the result.
fn drain_far(
    upper: &mut RankMerge<'_>,
    far: &mut BinaryHeap<Reverse<(Key, usize)>>,
    limit: f64,
) -> Option<f64> {
    while let Some(&Reverse((Key(key), count))) = far.peek() {
        if key > limit {
            break;
        }
        if let Some(hit) = upper.intra_upto(key) {
            return Some(hit);
        }
        far.pop();
        if let Some(hit) = upper.take(count, key) {
            return Some(hit);
        }
    }
    upper.intra_upto(limit)
}

/// Both k-distance envelope ends `(lower, upper)` of partition `src_idx`
/// from one best-first traversal of the box tree.
///
/// Each end is an order statistic: the `MinPts`-th smallest value of a
/// multiset merging two candidate streams.
///
/// * **Intra stream** — the partition's own exact rank profile
///   (`min_rank_dists` for the lower end, `max_rank_dists` for the
///   upper), one candidate per rank. Ranks beyond the provided profile
///   are padded conservatively: the last known value for the lower end
///   (ranks only grow), the hull diameter for the upper end (no intra
///   distance exceeds it). An *empty* profile pads with `0` /
///   hull-diameter, which reproduces the pure-box behavior.
/// * **External stream** — every other partition's whole member count
///   at its closest (lower end) or farthest (upper end) rectangle
///   distance. The partition's own leaf is skipped: its members are the
///   intra stream.
///
/// Since fewer than `MinPts` candidates lie strictly below the lower
/// end's statistic, it bounds every member's k-distance from below; every
/// member provably has `MinPts` objects within the upper end's statistic,
/// so it bounds them from above.
///
/// On the lower end, every external candidate is additionally clamped to
/// the source partition's [`Partition::isolation`] radius: no point of
/// another partition can be closer than it to any member, even when the
/// rectangle distance between abutting boxes reads 0. Clamping is
/// monotone, so the consumption order survives it.
///
/// The traversal pops nodes by closest rectangle distance, a lower bound
/// on every descendant's closest *and* farthest distance, so popped keys
/// never decrease. The lower end consumes its stream at each pop exactly
/// as a closest-distance traversal would. Each popped non-own leaf also
/// waits in a second heap keyed by farthest distance (once the lower end
/// is known, leaves skip the tree heap and wait there directly), and the
/// upper end consumes that heap, merged with its intra stream, only up to
/// the popped key: every leaf not yet waiting lies farther. Both ends
/// thus see their multiset in ascending order, and an order statistic
/// does not depend on how ties are ordered, so both values are bit for
/// bit those of two separate traversals.
fn kd_bounds<M: Metric + ?Sized>(
    metric: &M,
    tree: &BoxTree,
    walk: &mut Walk,
    src: &Partition,
    src_idx: usize,
    min_pts: usize,
) -> (f64, f64) {
    let intra_total = src.members.len() - 1;
    let mut lower = RankMerge {
        ranks: &src.min_rank_dists,
        pad: src.min_rank_dists.last().copied().unwrap_or(0.0),
        intra_total,
        intra_next: 0,
        acc: 0,
        min_pts,
    };
    let mut upper = RankMerge {
        ranks: &src.max_rank_dists,
        pad: metric.max_dist_between_rects(&src.lo, &src.hi, &src.lo, &src.hi),
        ..lower
    };
    let closest = |ni: usize| {
        let (lo, hi) = tree.bbox(ni);
        metric.min_dist_between_rects(&src.lo, &src.hi, lo, hi)
    };
    let farthest = |ni: usize| {
        let (lo, hi) = tree.bbox(ni);
        metric.max_dist_between_rects(&src.lo, &src.hi, lo, hi)
    };
    let (mut lo_end, mut hi_end) = (None, None);
    let Walk { near, far, .. } = walk;
    near.clear();
    far.clear();
    near.push(Reverse((Key(closest(tree.root)), tree.root)));
    while let Some(Reverse((Key(key), ni))) = near.pop() {
        // Everything still in `near` has a raw key >= the popped one, and
        // the isolation clamp is monotone, so after clamping intra
        // candidates at or below `clamped` are still globally next.
        let clamped = key.max(src.isolation);
        if lo_end.is_none() {
            lo_end = lower.intra_upto(clamped);
        }
        if hi_end.is_none() {
            hi_end = drain_far(&mut upper, far, key);
        }
        if let (Some(lo), Some(hi)) = (lo_end, hi_end) {
            return (lo, hi);
        }
        let node = &tree.nodes[ni];
        match node.children() {
            Some((l, r)) => {
                for child in [l, r] {
                    let c = &tree.nodes[child];
                    // Once the lower end is known, a leaf matters only by
                    // its farthest distance, so it waits in `far` at once.
                    if lo_end.is_some() && c.children().is_none() {
                        if c.part() != src_idx {
                            far.push(Reverse((Key(farthest(child)), c.count())));
                        }
                    } else {
                        near.push(Reverse((Key(closest(child)), child)));
                    }
                }
            }
            None if node.part() == src_idx => {}
            None => {
                if lo_end.is_none() {
                    lo_end = lower.take(node.count(), clamped);
                }
                if hi_end.is_none() {
                    far.push(Reverse((Key(farthest(ni)), node.count())));
                }
            }
        }
    }
    // Tree exhausted: drain what is left of each stream. Falling through
    // is unreachable when min_pts < total objects (validated by the
    // engine); the conservative ends stand in regardless.
    let lo = lo_end.or_else(|| lower.intra_upto(f64::INFINITY)).unwrap_or(0.0);
    let hi = hi_end.or_else(|| drain_far(&mut upper, far, f64::INFINITY));
    (lo, hi.unwrap_or(f64::INFINITY))
}

/// When a reachable-set fold may take a whole subtree at its node-level
/// values although full tightness would descend into it.
#[derive(Clone, Copy)]
enum Loose {
    /// Never: full tightness ([`partition_envelopes`], or no θ yet).
    Never,
    /// The direct pass: fold while the running upper end stays below the
    /// limit, `θ` times a floor under every indirect minimum; the
    /// partition's `LOFmax` then stays below θ.
    Below(f64),
    /// The indirect pass: fold while the running lower end stays above
    /// the limit, the partition's `direct_max / θ`; its `LOFmax` then
    /// stays below θ.
    Above(f64),
}

/// Folds the current aggregates over partition `src`'s reachable set —
/// every partition whose closest rectangle distance is within `radius`.
/// Returns the two ends and the internal nodes folded by `loose` where
/// full tightness would have descended.
///
/// With `with_distance` set (the direct pass) each reachable leaf
/// contributes `[max(agg_lo, closest), max(agg_hi, min(radius, farthest))]`,
/// the rectangle form of `reach-dist = max(k-distance, d)`; without it
/// (the indirect pass) leaves contribute their aggregates as-is.
///
/// Internal nodes are folded only when doing so provably equals folding
/// every leaf below them: the node-level `closest`/`farthest`/aggregates
/// bound each descendant's contribution, so once they cannot move either
/// running end the subtree is skipped whole. Descending otherwise matters
/// for tightness, not just speed — a subtree that contains `src` itself
/// has `closest = 0`, and folding it blindly would pull `lo` down to its
/// subtree-min aggregate even when every individual leaf sits far away.
///
/// A [`Loose`] rule trades that tightness away where θ cannot use it: a
/// node it accepts is folded at its node-level values even when it
/// straddles the radius or would move an end. Its subtree holds every
/// reachable partition below it, and its values bound each of theirs, so
/// the result is still a valid envelope, only a looser one.
///
/// In the direct pass, leaves other than `src`'s own are clamped to
/// `src`'s isolation radius, exactly as in [`kd_bounds`]: their members
/// provably sit at least that far from every member of `src`. Internal
/// nodes keep the raw rectangle distance — their subtree may contain
/// `src` itself, which the clamp must never apply to.
#[allow(clippy::too_many_arguments)]
fn reachable_envelope<M: Metric + ?Sized>(
    metric: &M,
    tree: &BoxTree,
    walk: &mut Walk,
    src: &Partition,
    src_idx: usize,
    radius: f64,
    with_distance: bool,
    loose: Loose,
) -> (f64, f64, u64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    let mut folded = 0;
    let stack = &mut walk.stack;
    stack.clear();
    stack.push(tree.root);
    while let Some(ni) = stack.pop() {
        let node = &tree.nodes[ni];
        let (node_lo, node_hi) = tree.bbox(ni);
        let mut closest = metric.min_dist_between_rects(&src.lo, &src.hi, node_lo, node_hi);
        if node.children().is_none() && node.part() != src_idx {
            closest = closest.max(src.isolation);
        }
        if closest > radius {
            continue;
        }
        let farthest = metric.max_dist_between_rects(&src.lo, &src.hi, node_lo, node_hi);
        let (cand_lo, cand_hi) = if with_distance {
            (node.agg_lo.max(closest), node.agg_hi.max(farthest.min(radius)))
        } else {
            (node.agg_lo, node.agg_hi)
        };
        if let Some((l, r)) = node.children() {
            // A subtree straddling the radius may hold unreachable
            // partitions; one whose node-level contribution could still
            // move an end must be resolved leaf-by-leaf (for the direct
            // pass `closest` is only exact per leaf). Both cases descend,
            // unless θ has no use for the tightness.
            if farthest > radius || cand_lo < lo || cand_hi > hi {
                let fold = match loose {
                    Loose::Never => false,
                    Loose::Below(limit) => hi.max(cand_hi) < limit,
                    Loose::Above(limit) => lo.min(cand_lo) > limit,
                };
                if !fold {
                    stack.push(l);
                    stack.push(r);
                    continue;
                }
                folded += 1;
            }
        }
        lo = lo.min(cand_lo);
        hi = hi.max(cand_hi);
    }
    (lo, hi, folded)
}

/// Computes the full set of [`PartitionEnvelope`]s for a partitioning,
/// at full tightness.
///
/// Pure geometry: needs the metric and the partition boxes, never the
/// points. Every envelope is conservative, so downstream pruning against
/// them is exact.
///
/// # Errors
///
/// Returns [`LofError::InvalidPartition`] for an empty partition list,
/// inconsistent dimensionalities, inverted or non-finite boxes, or empty
/// member lists.
pub fn partition_envelopes<M: Metric + ?Sized>(
    metric: &M,
    partitions: &[Partition],
    min_pts: usize,
) -> Result<Vec<PartitionEnvelope>> {
    envelopes_threaded(metric, partitions, min_pts, f64::NEG_INFINITY, 1).map(|(envs, _)| envs)
}

/// All three passes at threshold `theta` on `threads` workers; also
/// returns the nodes folded at θ ([`reach_passes`]).
fn envelopes_threaded<M: Metric + ?Sized>(
    metric: &M,
    partitions: &[Partition],
    min_pts: usize,
    theta: f64,
    threads: usize,
) -> Result<(Vec<PartitionEnvelope>, u64)> {
    let mut kd = k_distance_pass(metric, partitions, min_pts, threads)?;
    Ok(reach_passes(metric, &mut kd.tree, partitions, &kd.lower, &kd.upper, theta, threads))
}

/// The k-distance envelope pass's output.
pub(super) struct KdPass {
    /// The box tree the later passes walk; `None` when the metric has no
    /// rectangle geometry and every envelope is vacuous.
    pub tree: Option<BoxTree>,
    /// Each partition's `k_distance_lower`.
    pub lower: Vec<f64>,
    /// Each partition's `k_distance_upper`.
    pub upper: Vec<f64>,
}

/// Validates the partitions and runs the k-distance envelope pass
/// ([`kd_bounds`]) strided across `threads` workers. Each envelope is a
/// pure function of the box tree, so the output is bit-identical at any
/// thread count.
///
/// # Errors
///
/// As [`partition_envelopes`].
pub(super) fn k_distance_pass<M: Metric + ?Sized>(
    metric: &M,
    partitions: &[Partition],
    min_pts: usize,
    threads: usize,
) -> Result<KdPass> {
    if partitions.is_empty() {
        return Err(LofError::InvalidPartition("no partitions".to_owned()));
    }
    let dims = partitions[0].lo.len();
    for (i, p) in partitions.iter().enumerate() {
        if p.lo.len() != dims || p.hi.len() != dims {
            return Err(LofError::InvalidPartition(format!(
                "partition {i} has a {}x{} box in a {dims}-d partitioning",
                p.lo.len(),
                p.hi.len()
            )));
        }
        if p.members.is_empty() {
            return Err(LofError::InvalidPartition(format!("partition {i} has no members")));
        }
        for d in 0..dims {
            if p.lo[d] > p.hi[d] || !p.lo[d].is_finite() || !p.hi[d].is_finite() {
                return Err(LofError::InvalidPartition(format!(
                    "partition {i} has an invalid box on dimension {d}"
                )));
            }
        }
        if p.isolation.is_nan() || p.isolation < 0.0 {
            return Err(LofError::InvalidPartition(format!(
                "partition {i} has a negative or NaN isolation radius"
            )));
        }
        for (name, ranks) in [("min", &p.min_rank_dists), ("max", &p.max_rank_dists)] {
            if ranks.len() > p.members.len().saturating_sub(1) {
                return Err(LofError::InvalidPartition(format!(
                    "partition {i} has {} {name}-rank distances for {} members",
                    ranks.len(),
                    p.members.len()
                )));
            }
            let mut prev = 0.0f64;
            for &dist in ranks {
                if !dist.is_finite() || dist < prev {
                    return Err(LofError::InvalidPartition(format!(
                        "partition {i} {name}-rank distances must be finite, non-negative \
                         and ascending"
                    )));
                }
                prev = dist;
            }
        }
    }

    let tree = BoxTree::build(partitions);
    let (root_lo, root_hi) = tree.bbox(tree.root);
    // Metrics without rectangle geometry (max bound +∞) would force the
    // upper best-first traversal to expand the entire tree per partition;
    // short-circuit to vacuous envelopes — exact, just unprunable.
    if !metric.max_dist_between_rects(root_lo, root_hi, root_lo, root_hi).is_finite() {
        let n_parts = partitions.len();
        return Ok(KdPass {
            tree: None,
            lower: vec![0.0; n_parts],
            upper: vec![f64::INFINITY; n_parts],
        });
    }

    let _span = lof_obs::span!("core.topn.envelope.k_distance");
    let (lower, upper) = map_strided_with(partitions.len(), threads, Walk::default, |walk, i| {
        kd_bounds(metric, &tree, walk, &partitions[i], i, min_pts)
    })
    .into_iter()
    .unzip();
    Ok(KdPass { tree: Some(tree), lower, upper })
}

/// The direct and indirect passes over a [`KdPass`], each strided across
/// `threads` workers, and the Theorem 1 bounds they imply. Returns the
/// envelopes and how many box-tree nodes were folded at θ.
///
/// The passes are θ-aware. A partition is pruned when its
/// `LOFmax = direct_max / indirect_min` is below `theta`, so tightness
/// beyond that buys nothing ([`Loose`]):
///
/// * The direct pass does not know any `indirect_min` yet. Every
///   reach-dist is at least some k-distance, so the smallest
///   `k_distance_lower` floors every `indirect_min`; a node whose fold
///   keeps `direct_max < θ · floor` is folded whole.
/// * The indirect pass knows the partition's `direct_max`; a node whose
///   fold keeps `indirect_min > direct_max / θ` is folded whole.
///
/// A `theta` that is not positive (`-∞` before any θ exists), and in the
/// direct pass a floor of 0 (duplicate piles), fold at full tightness,
/// bit for bit [`partition_envelopes`]. Every envelope stays
/// conservative, so downstream pruning against it stays exact; each is a
/// pure function of the box tree, the previous pass's aggregates and
/// `theta`, so the output is bit-identical at any thread count.
pub(super) fn reach_passes<M: Metric + ?Sized>(
    metric: &M,
    tree: &mut Option<BoxTree>,
    partitions: &[Partition],
    kd_lb: &[f64],
    kd_ub: &[f64],
    theta: f64,
    threads: usize,
) -> (Vec<PartitionEnvelope>, u64) {
    let Some(tree) = tree else {
        return (partitions.iter().map(|_| PartitionEnvelope::vacuous()).collect(), 0);
    };
    let n_parts = partitions.len();
    let floor = kd_lb.iter().copied().fold(f64::INFINITY, f64::min);
    let direct_rule =
        if theta > 0.0 && floor > 0.0 { Loose::Below(theta * floor) } else { Loose::Never };

    let folded = AtomicU64::new(0);
    let count_folds = |n: u64| {
        if n > 0 {
            folded.fetch_add(n, Ordering::Relaxed);
        }
    };
    let span = lof_obs::span!("core.topn.envelope.direct");
    tree.set_aggregates(kd_lb, kd_ub);
    let direct = map_strided_with(n_parts, threads, Walk::default, |walk, i| {
        let (lo, hi, n) =
            reachable_envelope(metric, tree, walk, &partitions[i], i, kd_ub[i], true, direct_rule);
        count_folds(n);
        (lo, hi)
    });
    drop(span);
    let (dir_min, dir_max): (Vec<f64>, Vec<f64>) = direct.into_iter().unzip();

    let _span = lof_obs::span!("core.topn.envelope.indirect");
    tree.set_aggregates(&dir_min, &dir_max);
    let tree = &*tree;
    let out = map_strided_with(n_parts, threads, Walk::default, |walk, i| {
        let rule = if theta > 0.0 { Loose::Above(dir_max[i] / theta) } else { Loose::Never };
        let (ind_min, ind_max, n) =
            reachable_envelope(metric, tree, walk, &partitions[i], i, kd_ub[i], false, rule);
        count_folds(n);
        let t1 = theorem1_bounds(&NeighborhoodStats {
            direct_min: dir_min[i],
            direct_max: dir_max[i],
            indirect_min: ind_min,
            indirect_max: ind_max,
        });
        PartitionEnvelope {
            k_distance_lower: kd_lb[i],
            k_distance_upper: kd_ub[i],
            direct_min: dir_min[i],
            direct_max: dir_max[i],
            indirect_min: ind_min,
            indirect_max: ind_max,
            lof: LofBounds {
                lower: clamp_envelope_lower(t1.lower),
                upper: clamp_envelope_upper(t1.upper),
            },
        }
    });
    (out, folded.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::neighborhood_stats;
    use crate::distance::{Angular, Euclidean, Manhattan};
    use crate::lof::lof_values;
    use crate::materialize::NeighborhoodTable;
    use crate::point::Dataset;
    use crate::scan::LinearScan;

    /// Two-pass oracle for [`kd_bounds`]: one best-first traversal per
    /// envelope end. Internal nodes are keyed by closest rectangle
    /// distance; leaves by closest (lower end) or farthest (upper end)
    /// distance, each contributing its whole member count at that key.
    fn kd_bound<M: Metric + ?Sized>(
        metric: &M,
        tree: &BoxTree,
        src: &Partition,
        src_idx: usize,
        min_pts: usize,
        upper: bool,
    ) -> f64 {
        let intra_total = src.members.len() - 1;
        let ranks = if upper { &src.max_rank_dists } else { &src.min_rank_dists };
        let pad = if upper {
            metric.max_dist_between_rects(&src.lo, &src.hi, &src.lo, &src.hi)
        } else {
            ranks.last().copied().unwrap_or(0.0)
        };
        let intra_val = |j: usize| -> f64 { ranks.get(j).copied().unwrap_or(pad) };

        let key_of = |ni: usize| -> f64 {
            let (lo, hi) = tree.bbox(ni);
            if upper && tree.nodes[ni].children().is_none() {
                metric.max_dist_between_rects(&src.lo, &src.hi, lo, hi)
            } else {
                metric.min_dist_between_rects(&src.lo, &src.hi, lo, hi)
            }
        };
        let isolation = if upper { 0.0 } else { src.isolation };
        let mut heap: BinaryHeap<Reverse<(Key, usize)>> = BinaryHeap::new();
        heap.push(Reverse((Key(key_of(tree.root)), tree.root)));
        let mut acc = 0usize;
        let mut intra_next = 0usize;
        while let Some(Reverse((Key(key), ni))) = heap.pop() {
            // Everything still in the heap has a raw key >= the popped one,
            // and the isolation clamp is monotone, so after clamping intra
            // candidates at or below `key` are still globally next in line.
            let key = key.max(isolation);
            while intra_next < intra_total && intra_val(intra_next) <= key {
                acc += 1;
                if acc >= min_pts {
                    return intra_val(intra_next);
                }
                intra_next += 1;
            }
            let node = &tree.nodes[ni];
            match node.children() {
                Some((l, r)) => {
                    heap.push(Reverse((Key(key_of(l)), l)));
                    heap.push(Reverse((Key(key_of(r)), r)));
                }
                None if node.part() == src_idx => {}
                None => {
                    acc += node.count();
                    if acc >= min_pts {
                        return key;
                    }
                }
            }
        }
        // Tree exhausted: drain what's left of the intra stream.
        while intra_next < intra_total {
            acc += 1;
            if acc >= min_pts {
                return intra_val(intra_next);
            }
            intra_next += 1;
        }
        // Unreachable when min_pts < total objects (validated by the engine);
        // fall back to the conservative end regardless.
        if upper {
            f64::INFINITY
        } else {
            0.0
        }
    }

    /// Chunks ids into partitions of `size` via
    /// [`Partition::from_member_points`]: tight member boxes plus exact
    /// rank profiles. Boxes may overlap arbitrarily — envelope validity
    /// must not depend on disjointness.
    fn chunked_partitions<M: Metric>(data: &Dataset, metric: &M, size: usize) -> Vec<Partition> {
        (0..data.len())
            .collect::<Vec<_>>()
            .chunks(size)
            .map(|members| {
                Partition::from_member_points(metric, members.to_vec(), |id| data.point(id))
            })
            .collect()
    }

    fn fixture() -> Dataset {
        // Two clusters of very different density plus stragglers, in a
        // deliberately irregular layout.
        let mut rows: Vec<[f64; 2]> = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                rows.push([i as f64 * 0.3, j as f64 * 0.3]);
            }
        }
        for i in 0..4 {
            for j in 0..4 {
                rows.push([10.0 + i as f64 * 2.0, 8.0 + j as f64 * 2.0]);
            }
        }
        rows.push([5.0, 20.0]);
        rows.push([-4.0, -6.0]);
        rows.push([22.0, 1.0]);
        Dataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn envelopes_bracket_ground_truth_per_member() {
        let data = fixture();
        let min_pts = 3;
        for chunk in [1usize, 3, 7] {
            let parts = chunked_partitions(&data, &Euclidean, chunk);
            let envs = partition_envelopes(&Euclidean, &parts, min_pts).unwrap();
            let scan = LinearScan::new(&data, Euclidean);
            let table = NeighborhoodTable::build(&scan, min_pts).unwrap();
            let lof = lof_values(&table, min_pts).unwrap();
            for (pi, part) in parts.iter().enumerate() {
                let env = &envs[pi];
                assert!(env.k_distance_lower <= env.k_distance_upper, "partition {pi}");
                for &id in &part.members {
                    let kd = table.k_distance(id, min_pts).unwrap();
                    assert!(
                        kd >= env.k_distance_lower - 1e-12 && kd <= env.k_distance_upper + 1e-12,
                        "chunk={chunk} id={id}: k-distance {kd} outside [{}, {}]",
                        env.k_distance_lower,
                        env.k_distance_upper
                    );
                    let stats = neighborhood_stats(&table, min_pts, id).unwrap();
                    assert!(stats.direct_min >= env.direct_min - 1e-12, "id={id}");
                    assert!(stats.direct_max <= env.direct_max + 1e-12, "id={id}");
                    assert!(stats.indirect_min >= env.indirect_min - 1e-12, "id={id}");
                    assert!(stats.indirect_max <= env.indirect_max + 1e-12, "id={id}");
                    assert!(
                        env.lof.contains(lof[id]),
                        "chunk={chunk} id={id}: lof={} outside [{}, {}]",
                        lof[id],
                        env.lof.lower,
                        env.lof.upper
                    );
                }
            }
        }
    }

    #[test]
    fn envelopes_hold_under_non_euclidean_rect_metrics() {
        let data = fixture();
        let min_pts = 4;
        let parts = chunked_partitions(&data, &Manhattan, 4);
        let envs = partition_envelopes(&Manhattan, &parts, min_pts).unwrap();
        let scan = LinearScan::new(&data, Manhattan);
        let table = NeighborhoodTable::build(&scan, min_pts).unwrap();
        for (pi, part) in parts.iter().enumerate() {
            for &id in &part.members {
                let kd = table.k_distance(id, min_pts).unwrap();
                assert!(kd >= envs[pi].k_distance_lower - 1e-12, "id={id}");
                assert!(kd <= envs[pi].k_distance_upper + 1e-12, "id={id}");
            }
        }
    }

    #[test]
    fn blind_metrics_get_vacuous_envelopes() {
        let data = fixture();
        let parts = chunked_partitions(&data, &Angular, 5);
        let envs = partition_envelopes(&Angular, &parts, 3).unwrap();
        for env in &envs {
            assert_eq!(env.k_distance_lower, 0.0);
            assert_eq!(env.k_distance_upper, f64::INFINITY);
            assert_eq!(env.lof.lower, 0.0);
            assert_eq!(env.lof.upper, f64::INFINITY);
        }
    }

    #[test]
    fn duplicate_piles_never_get_prunable_upper_bounds() {
        // Six copies at each of three locations: k-distances are zero, so
        // every envelope-derived upper bound must collapse to +∞ rather
        // than a spuriously finite (prunable) value.
        let mut rows: Vec<[f64; 1]> = Vec::new();
        for x in 0..3 {
            for _ in 0..6 {
                rows.push([x as f64]);
            }
        }
        let data = Dataset::from_rows(&rows).unwrap();
        let parts = chunked_partitions(&data, &Euclidean, 6);
        let envs = partition_envelopes(&Euclidean, &parts, 3).unwrap();
        for (pi, env) in envs.iter().enumerate() {
            assert_eq!(env.k_distance_lower, 0.0, "partition {pi}");
            assert_eq!(env.k_distance_upper, 0.0, "partition {pi}");
            assert_eq!(env.lof.upper, f64::INFINITY, "partition {pi}");
            assert_eq!(env.lof.lower, 0.0, "partition {pi}");
        }
    }

    #[test]
    fn envelope_validation_rejects_malformed_partitions() {
        let bare = |lo: Vec<f64>, hi: Vec<f64>, members: Vec<usize>| Partition {
            lo,
            hi,
            members,
            min_rank_dists: vec![],
            max_rank_dists: vec![],
            isolation: 0.0,
        };
        let ok = bare(vec![0.0], vec![1.0], vec![0]);
        assert!(partition_envelopes(&Euclidean, &[], 2).is_err());
        let empty = bare(vec![0.0], vec![1.0], vec![]);
        assert!(partition_envelopes(&Euclidean, &[ok.clone(), empty], 2).is_err());
        let bad_dims = bare(vec![0.0, 1.0], vec![1.0, 2.0], vec![1]);
        assert!(partition_envelopes(&Euclidean, &[ok.clone(), bad_dims], 2).is_err());
        let inverted = bare(vec![2.0], vec![1.0], vec![1]);
        assert!(partition_envelopes(&Euclidean, &[ok.clone(), inverted], 2).is_err());
        // Rank profiles: longer than members - 1, descending, or
        // non-finite are all rejected.
        let mut overlong = bare(vec![2.0], vec![3.0], vec![1]);
        overlong.min_rank_dists = vec![0.5];
        assert!(partition_envelopes(&Euclidean, &[ok.clone(), overlong], 2).is_err());
        let mut descending = bare(vec![2.0], vec![3.0], vec![1, 2]);
        descending.max_rank_dists = vec![f64::NAN];
        assert!(partition_envelopes(&Euclidean, &[ok, descending], 2).is_err());
    }

    /// A 40x30 unit lattice and a denser 6x6 one cut into 206 six-point
    /// runs, a pile of eight duplicates, and twelve stragglers as
    /// singleton partitions (what the trees' sprawl split emits), every
    /// partition with its exact isolation radius. Returns the cover and
    /// the dataset.
    fn mixed_cover() -> (Vec<Partition>, Dataset) {
        let mut rows: Vec<[f64; 2]> = Vec::new();
        for y in 0..30 {
            for x in 0..40 {
                rows.push([x as f64, y as f64]);
            }
        }
        for y in 0..6 {
            for x in 0..6 {
                rows.push([100.0 + 0.25 * x as f64, 80.0 + 0.25 * y as f64]);
            }
        }
        let pile = rows.len();
        rows.extend([[-30.0, 70.0]; 8]);
        let stragglers = rows.len();
        for i in 0..12 {
            rows.push([-60.0 + 17.0 * i as f64, 55.0 + 3.0 * (i % 5) as f64]);
        }
        let data = Dataset::from_rows(&rows).unwrap();
        let ids: Vec<usize> = (0..pile).collect();
        let mut covers: Vec<Vec<usize>> = ids.chunks(6).map(<[usize]>::to_vec).collect();
        covers.push((pile..stragglers).collect());
        covers.extend((stragglers..data.len()).map(|id| vec![id]));
        let mut parts: Vec<Partition> = covers
            .into_iter()
            .map(|members| Partition::from_member_points(&Euclidean, members, |id| data.point(id)))
            .collect();
        let mut part_of = vec![0; data.len()];
        for (pi, part) in parts.iter().enumerate() {
            for &id in &part.members {
                part_of[id] = pi;
            }
        }
        for (pi, part) in parts.iter_mut().enumerate() {
            let mut isolation = f64::INFINITY;
            for &a in &part.members {
                for b in (0..data.len()).filter(|&b| part_of[b] != pi) {
                    isolation = isolation.min(Euclidean.distance(data.point(a), data.point(b)));
                }
            }
            part.isolation = isolation;
        }
        (parts, data)
    }

    #[test]
    fn one_traversal_k_distance_bounds_match_the_two_pass_oracle() {
        let (mixed, data) = mixed_cover();
        let n_objects = data.len();
        assert!(mixed.iter().all(|p| p.members.len() <= 8));
        let mut bare = mixed.clone();
        let mut truncated = mixed.clone();
        let mut unisolated = mixed.clone();
        for p in &mut bare {
            p.min_rank_dists.clear();
            p.max_rank_dists.clear();
        }
        for p in &mut truncated {
            p.min_rank_dists.truncate(2);
            p.max_rank_dists.truncate(1);
        }
        for p in &mut unisolated {
            p.isolation = 0.0;
        }
        let covers = [
            ("mixed", mixed),
            ("empty profiles", bare),
            ("truncated profiles", truncated),
            ("no isolation", unisolated),
        ];
        // 9 exceeds every partition; n - 1 needs every other object; n
        // exhausts the box tree and falls back to the vacuous ends.
        let min_pts_values = [1, 4, 9, n_objects - 1, n_objects];
        let mut exhausted = 0;
        for (label, parts) in &covers {
            let tree = BoxTree::build(parts);
            let mut walk = Walk::default();
            // Manhattan rides along on the full cover only, to keep the
            // exhaustive traversals cheap.
            let metrics: &[&dyn Metric] =
                if *label == "mixed" { &[&Euclidean, &Manhattan] } else { &[&Euclidean] };
            for &metric in metrics {
                for min_pts in min_pts_values {
                    for (i, p) in parts.iter().enumerate() {
                        let (lo, hi) = kd_bounds(metric, &tree, &mut walk, p, i, min_pts);
                        let want_lo = kd_bound(metric, &tree, p, i, min_pts, false);
                        let want_hi = kd_bound(metric, &tree, p, i, min_pts, true);
                        let at = format!("{label} min_pts={min_pts} partition {i}");
                        assert_eq!(lo.to_bits(), want_lo.to_bits(), "{at}: lower end");
                        assert_eq!(hi.to_bits(), want_hi.to_bits(), "{at}: upper end");
                        exhausted += usize::from(hi == f64::INFINITY);
                    }
                }
            }
        }
        assert!(exhausted > 0, "some MinPts must exhaust the box tree");
    }

    fn bits(e: &PartitionEnvelope) -> [u64; 8] {
        [
            e.k_distance_lower,
            e.k_distance_upper,
            e.direct_min,
            e.direct_max,
            e.indirect_min,
            e.indirect_max,
            e.lof.lower,
            e.lof.upper,
        ]
        .map(f64::to_bits)
    }

    #[test]
    fn threaded_envelopes_match_serial_bit_for_bit() {
        let (parts, _) = mixed_cover();
        assert!(parts.len() >= 200, "every worker needs work: {} partitions", parts.len());

        for min_pts in [4, 9] {
            let serial = partition_envelopes(&Euclidean, &parts, min_pts).unwrap();
            assert!(serial.iter().any(|e| e.lof.upper.is_finite()), "bounds must be informative");
            for threads in [2, 3, 7] {
                let (threaded, _) =
                    envelopes_threaded(&Euclidean, &parts, min_pts, f64::NEG_INFINITY, threads)
                        .unwrap();
                assert_eq!(threaded.len(), serial.len());
                for (pi, (t, s)) in threaded.iter().zip(&serial).enumerate() {
                    assert_eq!(bits(t), bits(s), "min_pts={min_pts} threads={threads} part {pi}");
                }
            }
        }
    }

    #[test]
    fn theta_aware_passes_at_minus_infinity_are_partition_envelopes() {
        let (parts, _) = mixed_cover();
        for min_pts in [4, 9] {
            let full = partition_envelopes(&Euclidean, &parts, min_pts).unwrap();
            for threads in [1, 3] {
                let (aware, folded) =
                    envelopes_threaded(&Euclidean, &parts, min_pts, f64::NEG_INFINITY, threads)
                        .unwrap();
                assert_eq!(folded, 0, "min_pts={min_pts} threads={threads}");
                for (pi, (a, f)) in aware.iter().zip(&full).enumerate() {
                    assert_eq!(bits(a), bits(f), "min_pts={min_pts} threads={threads} part {pi}");
                }
            }
        }
    }

    /// Every θ-aware envelope still brackets each member's exact LOF, is
    /// never tighter than full tightness (so no partition full tightness
    /// keeps is pruned), and on this cover prunes exactly the partitions
    /// full tightness prunes, while folding nodes at θ.
    #[test]
    fn theta_aware_passes_stay_sound_and_prune_what_full_tightness_prunes() {
        let (parts, data) = mixed_cover();
        let scan = LinearScan::new(&data, Euclidean);
        for min_pts in [4, 9] {
            let table = NeighborhoodTable::build(&scan, min_pts).unwrap();
            let lof = lof_values(&table, min_pts).unwrap();
            let mut ranked = lof.clone();
            ranked.sort_unstable_by(|a, b| b.total_cmp(a));
            let full = partition_envelopes(&Euclidean, &parts, min_pts).unwrap();
            let mut folded_somewhere = false;
            for n in [1, 5, 20, 100] {
                let theta = ranked[n - 1];
                for threads in [1, 3] {
                    let (aware, folded) =
                        envelopes_threaded(&Euclidean, &parts, min_pts, theta, threads).unwrap();
                    folded_somewhere |= folded > 0;
                    for (pi, (a, f)) in aware.iter().zip(&full).enumerate() {
                        let at = format!("min_pts={min_pts} θ={theta} threads={threads} part {pi}");
                        for &id in &parts[pi].members {
                            assert!(a.lof.contains(lof[id]), "{at}: id {id} lof {}", lof[id]);
                        }
                        assert!(a.lof.upper >= f.lof.upper, "{at}: tighter than full");
                        assert_eq!(a.lof.upper < theta, f.lof.upper < theta, "{at}: prune differs");
                    }
                }
            }
            assert!(folded_somewhere, "min_pts={min_pts}: θ must fold some node");
        }
    }

    #[test]
    fn rank_profiles_make_interior_bounds_finite() {
        // A dense grid cluster plus far-away stragglers. With exact rank
        // profiles, interior partitions must get strictly positive
        // k-distance lower bounds and *finite* LOF upper bounds — the
        // property partition pruning lives on — while bare boxes (empty
        // profiles) provably cannot.
        let mut rows: Vec<[f64; 2]> = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                rows.push([i as f64, j as f64]);
            }
        }
        rows.push([100.0, 100.0]);
        rows.push([-90.0, 40.0]);
        let data = Dataset::from_rows(&rows).unwrap();
        let parts = chunked_partitions(&data, &Euclidean, 8);
        let envs = partition_envelopes(&Euclidean, &parts, 3).unwrap();
        let interior = &envs[3]; // a grid-only chunk
        assert!(interior.k_distance_lower > 0.0, "{interior:?}");
        assert!(interior.lof.upper.is_finite(), "{interior:?}");

        let mut bare = parts.clone();
        for p in &mut bare {
            p.min_rank_dists.clear();
            p.max_rank_dists.clear();
        }
        let bare_envs = partition_envelopes(&Euclidean, &bare, 3).unwrap();
        assert_eq!(bare_envs[3].k_distance_lower, 0.0);
        assert_eq!(bare_envs[3].lof.upper, f64::INFINITY);
    }
}
