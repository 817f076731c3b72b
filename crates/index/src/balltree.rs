//! Ball tree: a metric tree that only needs the triangle inequality, so it
//! supports every proper [`Metric`] (not just coordinate-decomposable ones).
//!
//! Not part of the paper's index lineup; included because LOF itself only
//! requires a distance function, and a metric tree lets the full pipeline
//! run efficiently under e.g. Manhattan or Minkowski-3 distances at scale.
//!
//! Construction: recursive two-means-style splitting — pick the point
//! farthest from the node centroid and the point farthest from *it* as
//! poles, assign points to the nearer pole. Search prunes a ball when
//! `d(q, center) - radius` exceeds the current bound.

use crate::common::impl_knn_provider;
use lof_core::{BlockKernel, BoundedMaxHeap, Dataset, KnnScratch, Metric, Neighbor};

const LEAF_SIZE: usize = 16;

#[derive(Debug)]
struct Node {
    center: Vec<f64>,
    radius: f64,
    start: usize,
    end: usize,
    children: Option<(usize, usize)>,
}

/// A ball tree over a borrowed dataset.
///
/// ```
/// use lof_core::{Dataset, Manhattan, KnnProvider};
/// use lof_index::BallTree;
///
/// let rows: Vec<[f64; 2]> = (0..50).map(|i| [(i % 5) as f64, (i / 5) as f64]).collect();
/// let data = Dataset::from_rows(&rows).unwrap();
/// let tree = BallTree::new(&data, Manhattan); // any proper metric works
/// assert_eq!(tree.k_nearest(0, 2).unwrap()[0].dist, 1.0);
/// ```
#[derive(Debug)]
pub struct BallTree<'a, M: Metric> {
    data: &'a Dataset,
    metric: M,
    ids: Vec<usize>,
    nodes: Vec<Node>,
    root: usize,
    /// Index of the leaf node containing each object, for the leaf-grouped
    /// batch self-join (leaf ranges partition `ids`, so this is total).
    leaf_of: Vec<usize>,
    /// Norm-form surrogate kernel; `None` for generic metrics. Since the
    /// constructor rejects non-metrics, `Some` here implies plain
    /// Euclidean.
    kernel: Option<BlockKernel>,
}

impl<'a, M: Metric> BallTree<'a, M> {
    /// Builds the tree.
    ///
    /// # Panics
    ///
    /// Panics if `metric.is_metric()` is false (e.g.
    /// [`lof_core::SquaredEuclidean`]): ball pruning needs the triangle
    /// inequality, and silently wrong neighbors would be worse than a panic.
    pub fn new(data: &'a Dataset, metric: M) -> Self {
        assert!(
            metric.is_metric(),
            "BallTree requires a metric satisfying the triangle inequality"
        );
        let mut ids: Vec<usize> = (0..data.len()).collect();
        let mut nodes = Vec::new();
        let root = if data.is_empty() {
            usize::MAX
        } else {
            let n = data.len();
            build(data, &metric, &mut ids, 0, n, &mut nodes)
        };
        let mut leaf_of = vec![usize::MAX; data.len()];
        for (idx, node) in nodes.iter().enumerate() {
            if node.children.is_none() {
                for &id in &ids[node.start..node.end] {
                    leaf_of[id] = idx;
                }
            }
        }
        let kernel = BlockKernel::for_metric(data, &metric);
        BallTree { data, metric, ids, nodes, root, leaf_of, kernel }
    }

    /// Number of indexed objects.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// Number of tree nodes (diagnostic).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Checks the ball invariant — every point under a node lies within
    /// the node's radius of its center — for every node.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated node.
    pub fn validate(&self) -> Result<(), String> {
        for (idx, node) in self.nodes.iter().enumerate() {
            for &id in &self.ids[node.start..node.end] {
                let d = self.metric.distance(&node.center, self.data.point(id));
                if d > node.radius * (1.0 + 1e-12) + 1e-12 {
                    return Err(format!(
                        "node {idx} (range {}..{}, radius {}): point {id} at distance {d}",
                        node.start, node.end, node.radius
                    ));
                }
            }
        }
        Ok(())
    }

    fn node_min_dist(&self, q: &[f64], node: usize) -> f64 {
        let n = &self.nodes[node];
        (self.metric.distance(q, &n.center) - n.radius).max(0.0)
    }

    /// Pruning test with a relative tolerance: the ball bound is computed
    /// from a *derived* centroid, so rounding can lift `min_dist` a few ulp
    /// above the true infimum; an exact `>` comparison would then wrongly
    /// prune points lying exactly on the query radius. Loosening only costs
    /// a few extra node visits, never correctness.
    #[inline]
    fn prune(min_dist: f64, bound: f64) -> bool {
        min_dist > bound * (1.0 + 1e-9) + f64::MIN_POSITIVE
    }

    fn search_k_distance(
        &self,
        q: &[f64],
        k: usize,
        exclude: Option<usize>,
        scratch: &mut KnnScratch,
    ) -> f64 {
        let best = &mut scratch.heap;
        best.reset(k);
        self.knn_rec(self.root, q, exclude, best);
        best.kth_dist().expect("validated: at least k candidates exist")
    }

    fn knn_rec(
        &self,
        node_id: usize,
        q: &[f64],
        exclude: Option<usize>,
        best: &mut BoundedMaxHeap,
    ) {
        if Self::prune(self.node_min_dist(q, node_id), best.bound()) {
            return;
        }
        let node = &self.nodes[node_id];
        match node.children {
            None => {
                // Only the k-th distance is read afterwards, so a
                // candidate tied with a full heap's bound is not offered.
                // The node prune above keeps its rounding tolerance.
                let mut bound = best.bound();
                for &id in &self.ids[node.start..node.end] {
                    if Some(id) != exclude {
                        let d = self.metric.distance(q, self.data.point(id));
                        if d < bound || !best.is_full() {
                            best.offer(id, d);
                            bound = best.bound();
                        }
                    }
                }
            }
            Some((left, right)) => {
                let dl = self.node_min_dist(q, left);
                let dr = self.node_min_dist(q, right);
                let (first, second) = if dl <= dr { (left, right) } else { (right, left) };
                self.knn_rec(first, q, exclude, best);
                self.knn_rec(second, q, exclude, best);
            }
        }
    }

    fn search_within_into(
        &self,
        q: &[f64],
        radius: f64,
        exclude: Option<usize>,
        _scratch: &mut KnnScratch,
        out: &mut Vec<Neighbor>,
    ) {
        if self.root != usize::MAX {
            self.range_rec(self.root, q, radius, exclude, out);
        }
    }

    fn range_rec(
        &self,
        node_id: usize,
        q: &[f64],
        radius: f64,
        exclude: Option<usize>,
        out: &mut Vec<Neighbor>,
    ) {
        if Self::prune(self.node_min_dist(q, node_id), radius) {
            return;
        }
        let node = &self.nodes[node_id];
        match node.children {
            None => {
                for &id in &self.ids[node.start..node.end] {
                    if Some(id) == exclude {
                        continue;
                    }
                    let d = self.metric.distance(q, self.data.point(id));
                    if d <= radius {
                        out.push(Neighbor::new(id, d));
                    }
                }
            }
            Some((left, right)) => {
                self.range_rec(left, q, radius, exclude, out);
                self.range_rec(right, q, radius, exclude, out);
            }
        }
    }

    /// Collects into `out` every point within `radius` of the box
    /// `[lo, hi]` by the metric's rectangle bound, with the rounding
    /// tolerance of [`BallTree::prune`]; false, with `out` cut short, once
    /// more than `cap` points qualify. A ball is skipped when its center's
    /// rectangle bound minus its radius exceeds `radius` (the triangle
    /// inequality). Backs the batched `k_distances_into`
    /// ([`crate::common::gathered_k_distances`]).
    fn gather_near_box(
        &self,
        lo: &[f64],
        hi: &[f64],
        radius: f64,
        cap: usize,
        out: &mut Vec<usize>,
    ) -> bool {
        self.root == usize::MAX || self.gather_rec(self.root, lo, hi, radius, cap, out)
    }

    fn gather_rec(
        &self,
        node_id: usize,
        lo: &[f64],
        hi: &[f64],
        radius: f64,
        cap: usize,
        out: &mut Vec<usize>,
    ) -> bool {
        let node = &self.nodes[node_id];
        let min_dist = (self.metric.min_dist_to_rect(&node.center, lo, hi) - node.radius).max(0.0);
        if Self::prune(min_dist, radius) {
            return true;
        }
        match node.children {
            None => {
                for &id in &self.ids[node.start..node.end] {
                    if !Self::prune(
                        self.metric.min_dist_to_rect(self.data.point(id), lo, hi),
                        radius,
                    ) {
                        out.push(id);
                    }
                }
                out.len() <= cap
            }
            Some((left, right)) => {
                self.gather_rec(left, lo, hi, radius, cap, out)
                    && self.gather_rec(right, lo, hi, radius, cap, out)
            }
        }
    }

    /// True-space lower bound between a query ball (the group's leaf) and
    /// a tree node: center distance minus both radii, clamped at zero. By
    /// the triangle inequality no point of the node can be closer than
    /// this to any point of the leaf.
    fn ball_ball_min_dist(&self, leaf: &Node, node: usize) -> f64 {
        let n = &self.nodes[node];
        (self.metric.distance(&leaf.center, &n.center) - leaf.radius - n.radius).max(0.0)
    }

    /// Answers one leaf group of the batch self-join (driven by
    /// [`crate::common::leaf_grouped_batch`] and
    /// [`crate::common::leaf_grouped_table`]): a shared k-distance descent
    /// whose heaps are emitted directly, then a shared shell pass
    /// recovering id-tie-break casualties at each query's exact
    /// k-distance (generic metrics fall back to a full range collection).
    /// The group traverses the tree once with shared ball-to-ball
    /// pruning, and for the plain Euclidean metric candidates are
    /// evaluated in squared space. Produces bit-identical neighborhoods to
    /// the per-id `k_nearest_into` loop.
    fn join_group(
        &self,
        group: &[(usize, usize)],
        k: usize,
        scratch: &mut KnnScratch,
        staged: &mut Vec<Neighbor>,
        glens: &mut Vec<usize>,
    ) {
        let gn = group.len();
        let leaf = &self.nodes[group[0].0];
        if scratch.heaps.len() < gn {
            scratch.heaps.resize_with(gn, BoundedMaxHeap::new);
        }
        if scratch.block_pairs.len() < gn {
            scratch.block_pairs.resize_with(gn, Vec::new);
        }
        let KnnScratch { heaps, tile_sq, block_pairs, join_radii, join_lost, stats, .. } = scratch;
        stats.bump_join_groups(1);
        let heaps = &mut heaps[..gn];
        for h in heaps.iter_mut() {
            h.reset(k);
        }
        let pairs = &mut block_pairs[..gn];
        for p in pairs.iter_mut() {
            p.clear();
        }
        join_radii.clear();
        join_lost.clear();
        join_lost.resize(gn, f64::INFINITY);

        if let Some(kernel) = &self.kernel {
            // Constructor rejects non-metrics, so a present kernel means
            // plain Euclidean: the descent runs in squared space (the
            // k-th order statistic commutes with the monotone `sqrt`,
            // even across ties, so the k-distance below is bit-identical
            // to the true-space descent's).
            let mut group_bound = f64::INFINITY;
            self.group_knn_sq(self.root, 0.0, leaf, group, heaps, join_lost, &mut group_bound);
            for (gi, heap) in heaps.iter().enumerate() {
                let kth_sq = heap.kth_dist().expect("validated: at least k candidates exist");
                join_radii.push((kth_sq.sqrt(), kth_sq));
                // Emit the neighborhood straight from the heap: every
                // point strictly inside the k-distance ball is held (it
                // beats the k-th candidate in `(distance, id)` order);
                // only id-tie-break casualties are missing, recovered by
                // the gated shell pass below.
                for (sq, id) in heap.entries() {
                    pairs[gi].push((sq.sqrt(), id));
                }
            }
            // Shell gate (same argument as on [`crate::KdTree`]): the
            // tolerance-widened descent prunes guarantee every candidate
            // whose emitted distance could tie a radius was offered, so a
            // tie casualty exists only if some query's minimum lost heap
            // distance maps onto its radius. Otherwise the second
            // traversal — nearly as expensive as the descent itself — is
            // skipped wholesale, which is the common case on continuous
            // data where exact distance ties essentially never occur.
            let needs_shell = join_radii
                .iter()
                .zip(join_lost.iter())
                .any(|(&(radius, _), &lost)| lost.sqrt() == radius);
            if needs_shell {
                stats.bump_shell_passes(1);
                self.group_shell_sq(
                    self.root, leaf, group, join_radii, heaps, kernel, tile_sq, pairs,
                );
            }
        } else {
            self.group_knn_generic(self.root, group, heaps);
            for heap in heaps.iter() {
                let kd = heap.kth_dist().expect("validated: at least k candidates exist");
                join_radii.push((kd, kd));
            }
            self.group_range_generic(self.root, group, join_radii, pairs);
        }

        stats.bump_heap_offers(heaps.iter().map(|h| h.offers()).sum());
        for list in pairs.iter_mut() {
            list.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            staged.extend(list.iter().map(|&(d, id)| Neighbor::new(id, d)));
            glens.push(list.len());
        }
    }

    /// Group k-distance descent for the Euclidean kernel path. Heaps hold
    /// squared distances; node pruning happens in true space (ball bounds
    /// don't square cleanly), against the square roots of the heap
    /// bounds. Candidates are offered at the exact scalar
    /// `squared_euclidean` — no surrogate filter here, for the reason
    /// given on [`crate::KdTree`]'s descent: loose bounds would let nearly
    /// everything through the widened cutoff and double the evaluations.
    /// The tolerance in [`Self::prune`] means every point whose emitted
    /// distance could tie a final k-distance is offered, so the per-heap
    /// lost-candidate minimum doubles as the shell-pass necessity test.
    /// `node_dist` is this node's ball-to-ball bound, computed by its
    /// parent (`0` at the root, which is never pruned), and `group_bound`
    /// the square root of the loosest heap bound of the group, refreshed
    /// after each leaf (heaps change nowhere else).
    #[allow(clippy::too_many_arguments)]
    fn group_knn_sq(
        &self,
        node_id: usize,
        node_dist: f64,
        leaf: &Node,
        group: &[(usize, usize)],
        heaps: &mut [BoundedMaxHeap],
        lost: &mut [f64],
        group_bound: &mut f64,
    ) {
        if Self::prune(node_dist, *group_bound) {
            return;
        }
        let node = &self.nodes[node_id];
        match node.children {
            None => {
                for (gi, &(_, qid)) in group.iter().enumerate() {
                    let q = self.data.point(qid);
                    let bound_sq = heaps[gi].bound();
                    if Self::prune(self.node_min_dist(q, node_id), bound_sq.sqrt()) {
                        continue;
                    }
                    for &id in &self.ids[node.start..node.end] {
                        if id != qid {
                            heaps[gi].offer_tracking(
                                id,
                                lof_core::distance::squared_euclidean(q, self.data.point(id)),
                                &mut lost[gi],
                            );
                        }
                    }
                }
                *group_bound = heaps.iter().fold(0.0f64, |m, h| m.max(h.bound())).sqrt();
            }
            Some((left, right)) => {
                let dl = self.ball_ball_min_dist(leaf, left);
                let dr = self.ball_ball_min_dist(leaf, right);
                let ((first, d1), (second, d2)) =
                    if dl <= dr { ((left, dl), (right, dr)) } else { ((right, dr), (left, dl)) };
                self.group_knn_sq(first, d1, leaf, group, heaps, lost, group_bound);
                self.group_knn_sq(second, d2, leaf, group, heaps, lost, group_bound);
            }
        }
    }

    /// Shell pass for the Euclidean kernel path: the k-distance heaps were
    /// emitted directly, so this only recovers neighbors dropped by the
    /// heap's id tie-break — points at **exactly** each query's k-distance.
    /// Nodes strictly farther than every radius *or* strictly inside every
    /// ball are skipped (interior points are provably in the heap: their
    /// computed distance is below the k-distance). Both skips widen the
    /// derived-centroid bounds by the same tolerance as [`Self::prune`], so
    /// they only cost node visits, never a tie. Inclusion is decided on the
    /// exact reference distance (`squared_euclidean(..).sqrt()`, the
    /// literal `Euclidean::distance`) equalling the radius, with a dedup
    /// against the heap for ties that were kept.
    #[allow(clippy::too_many_arguments)]
    fn group_shell_sq(
        &self,
        node_id: usize,
        leaf: &Node,
        group: &[(usize, usize)],
        radii: &[(f64, f64)],
        heaps: &[BoundedMaxHeap],
        kernel: &BlockKernel,
        tile_sq: &mut Vec<f64>,
        pairs: &mut [Vec<(f64, usize)>],
    ) {
        let max_r = radii.iter().fold(0.0f64, |m, r| m.max(r.0));
        let min_r = radii.iter().fold(f64::INFINITY, |m, r| m.min(r.0));
        if Self::prune(self.ball_ball_min_dist(leaf, node_id), max_r) {
            return;
        }
        let node = &self.nodes[node_id];
        let center_gap = self.metric.distance(&leaf.center, &node.center);
        let max_dist = center_gap + leaf.radius + node.radius;
        if max_dist * (1.0 + 1e-9) + f64::MIN_POSITIVE < min_r {
            return; // strictly inside every ball: all already in the heaps
        }
        match node.children {
            None => {
                let cands = &self.ids[node.start..node.end];
                let two_slack = 2.0 * kernel.slack();
                for (gi, &(_, qid)) in group.iter().enumerate() {
                    let (radius, r_sq) = radii[gi];
                    let q = self.data.point(qid);
                    if Self::prune(self.node_min_dist(q, node_id), radius) {
                        continue;
                    }
                    let q_max = self.metric.distance(q, &node.center) + node.radius;
                    if q_max * (1.0 + 1e-9) + f64::MIN_POSITIVE < radius {
                        continue;
                    }
                    kernel.surrogates_into(self.data, qid, cands, tile_sq);
                    let lo = r_sq * (1.0 - 1e-9) - two_slack;
                    let hi = crate::common::widen_sq(r_sq) + two_slack;
                    for (ci, &sur) in tile_sq.iter().enumerate() {
                        if lo <= sur && sur <= hi {
                            let id = cands[ci];
                            if id == qid {
                                continue;
                            }
                            let d = lof_core::distance::squared_euclidean(q, self.data.point(id))
                                .sqrt();
                            if d == radius && !heaps[gi].entries().any(|(_, held)| held == id) {
                                pairs[gi].push((d, id));
                            }
                        }
                    }
                }
            }
            Some((left, right)) => {
                self.group_shell_sq(left, leaf, group, radii, heaps, kernel, tile_sq, pairs);
                self.group_shell_sq(right, leaf, group, radii, heaps, kernel, tile_sq, pairs);
            }
        }
    }

    /// Group k-distance descent for generic metrics: a node is visited
    /// when *any* group member still needs it; each member applies exactly
    /// the single-query prune before touching a leaf.
    fn group_knn_generic(
        &self,
        node_id: usize,
        group: &[(usize, usize)],
        heaps: &mut [BoundedMaxHeap],
    ) {
        let needed = group.iter().enumerate().any(|(gi, &(_, qid))| {
            !Self::prune(self.node_min_dist(self.data.point(qid), node_id), heaps[gi].bound())
        });
        if !needed {
            return;
        }
        let node = &self.nodes[node_id];
        match node.children {
            None => {
                for (gi, &(_, qid)) in group.iter().enumerate() {
                    let q = self.data.point(qid);
                    if Self::prune(self.node_min_dist(q, node_id), heaps[gi].bound()) {
                        continue;
                    }
                    for &id in &self.ids[node.start..node.end] {
                        if id != qid {
                            heaps[gi].offer(id, self.metric.distance(q, self.data.point(id)));
                        }
                    }
                }
            }
            Some((left, right)) => {
                self.group_knn_generic(left, group, heaps);
                self.group_knn_generic(right, group, heaps);
            }
        }
    }

    /// Group range collection for generic metrics, mirroring the
    /// single-query `range_rec` per member with one traversal per group.
    fn group_range_generic(
        &self,
        node_id: usize,
        group: &[(usize, usize)],
        radii: &[(f64, f64)],
        pairs: &mut [Vec<(f64, usize)>],
    ) {
        let needed = group.iter().zip(radii).any(|(&(_, qid), &(radius, _))| {
            !Self::prune(self.node_min_dist(self.data.point(qid), node_id), radius)
        });
        if !needed {
            return;
        }
        let node = &self.nodes[node_id];
        match node.children {
            None => {
                for (gi, (&(_, qid), &(radius, _))) in group.iter().zip(radii).enumerate() {
                    let q = self.data.point(qid);
                    if Self::prune(self.node_min_dist(q, node_id), radius) {
                        continue;
                    }
                    for &id in &self.ids[node.start..node.end] {
                        if id == qid {
                            continue;
                        }
                        let d = self.metric.distance(q, self.data.point(id));
                        if d <= radius {
                            pairs[gi].push((d, id));
                        }
                    }
                }
            }
            Some((left, right)) => {
                self.group_range_generic(left, group, radii, pairs);
                self.group_range_generic(right, group, radii, pairs);
            }
        }
    }
}

fn build<M: Metric>(
    data: &Dataset,
    metric: &M,
    ids: &mut [usize],
    start: usize,
    end: usize,
    nodes: &mut Vec<Node>,
) -> usize {
    let slice = &ids[start..end];
    let dims = data.dims();

    // Centroid of the slice.
    let mut center = vec![0.0; dims];
    for &id in slice {
        let p = data.point(id);
        for d in 0..dims {
            center[d] += p[d];
        }
    }
    for c in &mut center {
        *c /= slice.len() as f64;
    }
    let radius =
        slice.iter().map(|&id| metric.distance(&center, data.point(id))).fold(0.0, f64::max);

    let count = end - start;
    if count <= LEAF_SIZE || radius == 0.0 {
        nodes.push(Node { center, radius, start, end, children: None });
        return nodes.len() - 1;
    }

    // Poles: farthest from centroid, then farthest from that pole.
    let pole_a = *slice
        .iter()
        .max_by(|&&a, &&b| {
            metric
                .distance(&center, data.point(a))
                .total_cmp(&metric.distance(&center, data.point(b)))
                .then(a.cmp(&b))
        })
        .expect("non-empty slice");
    let pole_b = *slice
        .iter()
        .max_by(|&&a, &&b| {
            metric
                .distance(data.point(pole_a), data.point(a))
                .total_cmp(&metric.distance(data.point(pole_a), data.point(b)))
                .then(a.cmp(&b))
        })
        .expect("non-empty slice");

    // Partition by nearer pole; ties (and identical poles) to A.
    let slice = &mut ids[start..end];
    let mut mid = 0;
    for i in 0..slice.len() {
        let p = data.point(slice[i]);
        let da = metric.distance(p, data.point(pole_a));
        let db = metric.distance(p, data.point(pole_b));
        if da <= db {
            slice.swap(mid, i);
            mid += 1;
        }
    }
    // A degenerate partition (all points to one side) falls back to an even
    // split, which keeps the tree balanced and terminating.
    if mid == 0 || mid == count {
        mid = count / 2;
    }

    let left = build(data, metric, ids, start, start + mid, nodes);
    let right = build(data, metric, ids, start + mid, end, nodes);
    nodes.push(Node { center, radius, start, end, children: Some((left, right)) });
    nodes.len() - 1
}

impl_knn_provider!(BallTree, self_join);

impl<M: Metric> lof_core::PartitionSource for BallTree<'_, M> {
    /// One partition per tree leaf. Ball nodes carry centers and radii,
    /// not rectangles, so the partition boxes are recomputed tight from
    /// the member coordinates.
    fn partitions(&self) -> Vec<lof_core::Partition> {
        crate::common::leaf_partitions(self.data, &self.metric, self.leaf_members())
    }
}

impl<M: Metric> BallTree<'_, M> {
    /// Each leaf's member ids, in tree order.
    pub(crate) fn leaf_members(&self) -> impl Iterator<Item = &[usize]> + '_ {
        self.nodes.iter().filter(|n| n.children.is_none()).map(|n| &self.ids[n.start..n.end])
    }
}

impl<M: Metric> lof_core::PartitionMetric for BallTree<'_, M> {
    fn partition_metric(&self) -> &dyn Metric {
        &self.metric
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lof_core::{Euclidean, KnnProvider, LinearScan, Manhattan, Minkowski, SquaredEuclidean};

    fn dataset(n: usize, dims: usize, seed: u64) -> Dataset {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut ds = Dataset::new(dims);
        let mut row = vec![0.0; dims];
        for _ in 0..n {
            for v in &mut row {
                *v = next() * 20.0;
            }
            ds.push(&row).unwrap();
        }
        ds
    }

    #[test]
    fn matches_linear_scan_euclidean() {
        let ds = dataset(300, 4, 11);
        let tree = BallTree::new(&ds, Euclidean);
        let scan = LinearScan::new(&ds, Euclidean);
        for id in (0..ds.len()).step_by(29) {
            for k in [1, 6, 25] {
                assert_eq!(
                    tree.k_nearest(id, k).unwrap(),
                    scan.k_nearest(id, k).unwrap(),
                    "id={id} k={k}"
                );
            }
        }
    }

    #[test]
    fn matches_linear_scan_exotic_metrics() {
        let ds = dataset(200, 3, 4242);
        for_metric(&ds, Manhattan);
        for_metric(&ds, Minkowski::new(3.0));
    }

    #[test]
    fn matches_linear_scan_angular() {
        use lof_core::Angular;
        // Strictly positive coordinates so no zero vectors arise.
        let mut ds = Dataset::new(4);
        let mut state = 77u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..150 {
            ds.push(&[next() + 0.1, next() + 0.1, next() + 0.1, next() + 0.1]).unwrap();
        }
        let tree = BallTree::new(&ds, Angular);
        let scan = LinearScan::new(&ds, Angular);
        for id in (0..ds.len()).step_by(13) {
            assert_eq!(tree.k_nearest(id, 6).unwrap(), scan.k_nearest(id, 6).unwrap());
            assert_eq!(tree.within(id, 0.4).unwrap(), scan.within(id, 0.4).unwrap());
        }
        tree.validate().unwrap();
    }

    fn for_metric<M: Metric + Clone>(ds: &Dataset, metric: M) {
        let tree = BallTree::new(ds, metric.clone());
        let scan = LinearScan::new(ds, metric);
        for id in (0..ds.len()).step_by(17) {
            assert_eq!(tree.k_nearest(id, 7).unwrap(), scan.k_nearest(id, 7).unwrap());
            assert_eq!(tree.within(id, 5.0).unwrap(), scan.within(id, 5.0).unwrap());
        }
    }

    #[test]
    #[should_panic(expected = "triangle inequality")]
    fn rejects_non_metric() {
        let ds = dataset(10, 2, 1);
        let _ = BallTree::new(&ds, SquaredEuclidean);
    }

    #[test]
    fn duplicate_heavy_data() {
        let rows: Vec<[f64; 2]> = (0..80).map(|i| [(i % 2) as f64, (i % 3) as f64]).collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        let tree = BallTree::new(&ds, Euclidean);
        let scan = LinearScan::new(&ds, Euclidean);
        for id in (0..ds.len()).step_by(9) {
            assert_eq!(tree.k_nearest(id, 10).unwrap(), scan.k_nearest(id, 10).unwrap());
        }
    }

    #[test]
    fn splits_beyond_root() {
        let ds = dataset(300, 4, 11);
        let tree = BallTree::new(&ds, Euclidean);
        assert!(tree.node_count() > 1);
    }
}
