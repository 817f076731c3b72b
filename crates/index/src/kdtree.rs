//! kd-tree: the classic main-memory spatial index for low- to
//! medium-dimensional k-NN queries (the `O(log n)`-per-query regime of the
//! paper's section 7.4).
//!
//! Median-split construction over an id permutation (no point copies),
//! one flat array of node bounding boxes, and depth-first search with
//! `Metric::min_dist_to_rect` pruning. The descent computes each child's
//! box distance once, in its parent, where it both orders the visit and
//! prunes the child.
//!
//! For metrics with a squared-Euclidean form the k-distance descent runs
//! entirely in squared space (`min_dist_to_rect_sq` pruning, no square
//! roots in the inner loop) and takes a single square root at the end —
//! exact, because `sqrt` is monotone, so the k-th smallest squared
//! distance maps to the k-th smallest distance. The range pass prunes and
//! filters in squared space too, and takes a square root only for the
//! points it keeps.
//!
//! The batch self-join behind `materialize` and `batch_k_nearest` answers
//! all queries of one leaf in one traversal. Each query's candidates go,
//! a whole leaf tile at a time, into a [`lof_core::Capture`], which still
//! holds every tie at the k-distance when the traversal ends: the join
//! needs no heap and no second range or tie-shell pass.

use crate::common::{impl_knn_provider, widen_sq, GroupWalk, LeafColumns};
use lof_core::distance::BlockedForm;
use lof_core::{BoundedMaxHeap, Dataset, KnnScratch, Metric, Neighbor};

const LEAF_SIZE: usize = 16;

#[derive(Debug)]
struct Node {
    /// Range into `KdTree::ids`.
    start: usize,
    end: usize,
    /// Children indices into `KdTree::nodes`; `None` for leaves.
    children: Option<(usize, usize)>,
}

/// A kd-tree over a borrowed dataset.
///
/// ```
/// use lof_core::{Dataset, Euclidean, KnnProvider};
/// use lof_index::KdTree;
///
/// let rows: Vec<[f64; 2]> = (0..100).map(|i| [(i % 10) as f64, (i / 10) as f64]).collect();
/// let data = Dataset::from_rows(&rows).unwrap();
/// let tree = KdTree::new(&data, Euclidean);
/// // Query by id (excludes the object itself)...
/// assert_eq!(tree.k_nearest(55, 4).unwrap().len(), 4);
/// // ...or by arbitrary point (no exclusion).
/// assert_eq!(tree.k_nearest_point(&[4.5, 4.5], 4).unwrap().len(), 4);
/// ```
#[derive(Debug)]
pub struct KdTree<'a, M: Metric> {
    data: &'a Dataset,
    metric: M,
    ids: Vec<usize>,
    nodes: Vec<Node>,
    /// Bounding boxes of all points below each node, `[lo | hi]` per
    /// node in node order: node `i`'s box is `boxes[2·dims·i..2·dims·(i+1)]`.
    boxes: Vec<f64>,
    root: usize,
    /// Index of the leaf node containing each object, for the leaf-grouped
    /// batch self-join (leaf ranges partition `ids`, so this is total).
    leaf_of: Vec<usize>,
}

impl<'a, M: Metric> KdTree<'a, M> {
    /// Builds the tree in `O(n log n)`.
    pub fn new(data: &'a Dataset, metric: M) -> Self {
        let mut ids: Vec<usize> = (0..data.len()).collect();
        let mut nodes = Vec::new();
        let mut boxes = Vec::new();
        let root = if data.is_empty() {
            usize::MAX
        } else {
            let n = data.len();
            build(data, &mut ids, 0, n, &mut nodes, &mut boxes)
        };
        let mut leaf_of = vec![usize::MAX; data.len()];
        for (idx, node) in nodes.iter().enumerate() {
            if node.children.is_none() {
                for &id in &ids[node.start..node.end] {
                    leaf_of[id] = idx;
                }
            }
        }
        KdTree { data, metric, ids, nodes, boxes, root, leaf_of }
    }

    /// Number of indexed objects.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// Number of tree nodes (for diagnostics and tests).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Node `node_id`'s bounding box as `(lo, hi)`.
    #[inline]
    fn bbox(&self, node_id: usize) -> (&[f64], &[f64]) {
        let dims = self.data.dims();
        self.boxes[2 * dims * node_id..2 * dims * (node_id + 1)].split_at(dims)
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
        let metric = &self.metric;
        match metric.blocked_form() {
            // Squared-space descent: one sqrt total instead of one per
            // visited point. Exact — sqrt is monotone, so order statistics
            // commute with it, and `Euclidean::distance` is literally
            // `squared_euclidean(..).sqrt()`.
            BlockedForm::Euclidean | BlockedForm::SquaredEuclidean => {
                let rect =
                    |q: &[f64], lo: &[f64], hi: &[f64]| metric.min_dist_to_rect_sq(q, lo, hi);
                self.knn_rec(self.root, f64::NEG_INFINITY, q, exclude, best, &rect, &|q, p| {
                    lof_core::distance::squared_euclidean(q, p)
                });
            }
            BlockedForm::Generic => {
                let rect = |q: &[f64], lo: &[f64], hi: &[f64]| metric.min_dist_to_rect(q, lo, hi);
                self.knn_rec(self.root, f64::NEG_INFINITY, q, exclude, best, &rect, &|q, p| {
                    metric.distance(q, p)
                });
            }
        }
        let kth = best.kth_dist().expect("validated: at least k candidates exist");
        if metric.blocked_form() == BlockedForm::Euclidean {
            kth.sqrt()
        } else {
            kth
        }
    }

    /// Depth-first k-distance descent under one distance form: `point`
    /// is the distance the heap holds and `rect` bounds it from below over
    /// a box. `node_dist` is this node's `rect` value, computed by its
    /// parent (the root's `-∞` never prunes).
    ///
    /// Only the k-th distance is read afterwards, so once the heap holds
    /// `k` candidates nothing at or beyond its bound can change the
    /// answer: a candidate tied with the bound is not offered, and a node
    /// whose lower bound reaches it is pruned. The held ids are then some
    /// `k` candidates at the `k` smallest distances, not necessarily the
    /// canonical `(distance, id)`-smallest ones.
    #[allow(clippy::too_many_arguments)]
    fn knn_rec<R, D>(
        &self,
        node_id: usize,
        node_dist: f64,
        q: &[f64],
        exclude: Option<usize>,
        best: &mut BoundedMaxHeap,
        rect: &R,
        point: &D,
    ) where
        R: Fn(&[f64], &[f64], &[f64]) -> f64,
        D: Fn(&[f64], &[f64]) -> f64,
    {
        if best.is_full() && node_dist >= best.bound() {
            return;
        }
        let node = &self.nodes[node_id];
        match node.children {
            None => {
                let mut bound = best.bound();
                for &id in &self.ids[node.start..node.end] {
                    if Some(id) != exclude {
                        let d = point(q, self.data.point(id));
                        if d < bound || !best.is_full() {
                            best.offer(id, d);
                            bound = best.bound();
                        }
                    }
                }
            }
            Some((left, right)) => {
                // Visit the nearer child first so the bound tightens early.
                let (llo, lhi) = self.bbox(left);
                let (rlo, rhi) = self.bbox(right);
                let (dl, dr) = (rect(q, llo, lhi), rect(q, rlo, rhi));
                let ((first, d1), (second, d2)) =
                    if dl <= dr { ((left, dl), (right, dr)) } else { ((right, dr), (left, dl)) };
                self.knn_rec(first, d1, q, exclude, best, rect, point);
                self.knn_rec(second, d2, q, exclude, best, rect, point);
            }
        }
    }

    /// Collects every point within `radius` (inclusive). Under a
    /// squared-Euclidean form the pass prunes and filters on squared
    /// distances and takes a square root only for the points that pass;
    /// inclusion is still decided on the exact distance.
    fn search_within_into(
        &self,
        q: &[f64],
        radius: f64,
        exclude: Option<usize>,
        _scratch: &mut KnnScratch,
        out: &mut Vec<Neighbor>,
    ) {
        if self.root == usize::MAX {
            return;
        }
        let metric = &self.metric;
        let sq = |q: &[f64], p: &[f64]| lof_core::distance::squared_euclidean(q, p);
        let rect_sq = |q: &[f64], lo: &[f64], hi: &[f64]| metric.min_dist_to_rect_sq(q, lo, hi);
        match metric.blocked_form() {
            // The widened cut keeps every point whose rounded square root
            // is within `radius`; the exact test follows.
            BlockedForm::Euclidean => {
                let accept = |d_sq: f64| Some(d_sq.sqrt()).filter(|&d| d <= radius);
                let cut = widen_sq(radius * radius);
                self.range_rec(self.root, q, cut, exclude, &rect_sq, &sq, &accept, out);
            }
            BlockedForm::SquaredEuclidean => {
                self.range_rec(self.root, q, radius, exclude, &rect_sq, &sq, &Some, out);
            }
            BlockedForm::Generic => {
                let rect = |q: &[f64], lo: &[f64], hi: &[f64]| metric.min_dist_to_rect(q, lo, hi);
                let dist = |q: &[f64], p: &[f64]| metric.distance(q, p);
                self.range_rec(self.root, q, radius, exclude, &rect, &dist, &Some, out);
            }
        }
    }

    /// Depth-first range pass under one distance form: nodes whose `rect`
    /// bound exceeds `cut` are pruned, points whose `point` value exceeds
    /// it are skipped, and `accept` maps a remaining value to the
    /// neighbor's distance, or rejects it.
    #[allow(clippy::too_many_arguments)]
    fn range_rec<R, D, A>(
        &self,
        node_id: usize,
        q: &[f64],
        cut: f64,
        exclude: Option<usize>,
        rect: &R,
        point: &D,
        accept: &A,
        out: &mut Vec<Neighbor>,
    ) where
        R: Fn(&[f64], &[f64], &[f64]) -> f64,
        D: Fn(&[f64], &[f64]) -> f64,
        A: Fn(f64) -> Option<f64>,
    {
        let (lo, hi) = self.bbox(node_id);
        if rect(q, lo, hi) > cut {
            return;
        }
        let node = &self.nodes[node_id];
        match node.children {
            None => {
                for &id in &self.ids[node.start..node.end] {
                    if Some(id) == exclude {
                        continue;
                    }
                    let value = point(q, self.data.point(id));
                    if value <= cut {
                        if let Some(d) = accept(value) {
                            out.push(Neighbor::new(id, d));
                        }
                    }
                }
            }
            Some((left, right)) => {
                self.range_rec(left, q, cut, exclude, rect, point, accept, out);
                self.range_rec(right, q, cut, exclude, rect, point, accept, out);
            }
        }
    }

    /// Collects into `out` every point whose rectangle bound to the box
    /// `[lo, hi]` is within `radius`, widened for rounding the way the
    /// range pass widens its cut (in squared space under a squared form,
    /// the metric's own rectangle bounds otherwise); false, with `out`
    /// cut short, once more than `cap` points qualify. Backs the batched
    /// `k_distances_into` ([`crate::common::gathered_k_distances`]).
    fn gather_near_box(
        &self,
        lo: &[f64],
        hi: &[f64],
        radius: f64,
        cap: usize,
        out: &mut Vec<usize>,
    ) -> bool {
        let metric = &self.metric;
        let mut squared = |r_sq: f64| {
            self.gather_rec(
                self.root,
                widen_sq(r_sq),
                cap,
                &|nlo: &[f64], nhi: &[f64]| rect_rect_min_sq(lo, hi, nlo, nhi),
                &|p: &[f64]| metric.min_dist_to_rect_sq(p, lo, hi),
                out,
            )
        };
        match metric.blocked_form() {
            BlockedForm::Euclidean => squared(radius * radius),
            BlockedForm::SquaredEuclidean => squared(radius),
            BlockedForm::Generic => self.gather_rec(
                self.root,
                radius * (1.0 + 1e-9) + f64::MIN_POSITIVE,
                cap,
                &|nlo: &[f64], nhi: &[f64]| metric.min_dist_between_rects(lo, hi, nlo, nhi),
                &|p: &[f64]| metric.min_dist_to_rect(p, lo, hi),
                out,
            ),
        }
    }

    /// Depth-first body of [`KdTree::gather_near_box`]: `node` bounds a
    /// node box's distance to the query box, `point` a point's.
    fn gather_rec<R, P>(
        &self,
        node_id: usize,
        cut: f64,
        cap: usize,
        node: &R,
        point: &P,
        out: &mut Vec<usize>,
    ) -> bool
    where
        R: Fn(&[f64], &[f64]) -> f64,
        P: Fn(&[f64]) -> f64,
    {
        let (nlo, nhi) = self.bbox(node_id);
        if node(nlo, nhi) > cut {
            return true;
        }
        let n = &self.nodes[node_id];
        match n.children {
            None => {
                for &id in &self.ids[n.start..n.end] {
                    if point(self.data.point(id)) <= cut {
                        out.push(id);
                    }
                }
                out.len() <= cap
            }
            Some((left, right)) => {
                self.gather_rec(left, cut, cap, node, point, out)
                    && self.gather_rec(right, cut, cap, node, point, out)
            }
        }
    }

    /// Answers one leaf group of the batch self-join (driven by
    /// [`crate::common::leaf_grouped_batch`] and
    /// [`crate::common::leaf_grouped_table`]) in one traversal: every
    /// candidate leaf's distances go whole into each query's
    /// [`lof_core::Capture`], which keeps every candidate within its
    /// widened running k-th distance, ties included, so each neighborhood
    /// is selected straight from it. Internal nodes are pruned once per
    /// group by their box's bound to the group's leaf box (valid for
    /// every query inside it); per-query point-to-box tests run only at
    /// leaves. Under a squared form the traversal runs in squared space
    /// and leaves are lane-parallel tiles of exact squared distances;
    /// otherwise it runs on the metric's own distances and rectangle
    /// bounds. Produces bit-identical neighborhoods to the per-id
    /// `k_nearest_into` loop.
    fn join_group(
        &self,
        group: &[(usize, usize)],
        k: usize,
        block: Option<&LeafColumns>,
        scratch: &mut KnnScratch,
        staged: &mut Vec<Neighbor>,
        glens: &mut Vec<usize>,
    ) {
        let mut walk = GroupWalk::new(self.data, &self.metric, group, k, block, scratch);
        self.group_capture(self.root, 0.0, self.bbox(group[0].0), &mut walk);
        walk.finish(self.metric.blocked_form() == BlockedForm::Euclidean, staged, glens);
    }

    /// The join's descent below `node_id`, whose box lies `node_dist`
    /// (its [`KdTree::join_rect_rect`] bound to the group's `leaf` box,
    /// computed by its parent; `0` at the root) from the group.
    fn group_capture(
        &self,
        node_id: usize,
        node_dist: f64,
        leaf: (&[f64], &[f64]),
        walk: &mut GroupWalk<'_, M>,
    ) {
        if node_dist > walk.bound {
            return;
        }
        let node = &self.nodes[node_id];
        match node.children {
            None => {
                let (lo, hi) = self.bbox(node_id);
                walk.capture_leaf(node_id, &self.ids[node.start..node.end], |q, accept| {
                    self.join_point_rect(q, lo, hi) <= accept
                });
            }
            Some((left, right)) => {
                let (llo, lhi) = self.bbox(left);
                let (rlo, rhi) = self.bbox(right);
                let dl = self.join_rect_rect(leaf.0, leaf.1, llo, lhi);
                let dr = self.join_rect_rect(leaf.0, leaf.1, rlo, rhi);
                let ((first, d1), (second, d2)) =
                    if dl <= dr { ((left, dl), (right, dr)) } else { ((right, dr), (left, dl)) };
                self.group_capture(first, d1, leaf, walk);
                self.group_capture(second, d2, leaf, walk);
            }
        }
    }

    /// The join's lower bound from point `q` to a box: squared under a
    /// squared form, the metric's own otherwise.
    fn join_point_rect(&self, q: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
        match self.metric.blocked_form() {
            BlockedForm::Generic => self.metric.min_dist_to_rect(q, lo, hi),
            _ => self.metric.min_dist_to_rect_sq(q, lo, hi),
        }
    }

    /// The join's lower bound between two boxes, in the space of
    /// [`KdTree::join_point_rect`].
    fn join_rect_rect(&self, alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> f64 {
        match self.metric.blocked_form() {
            BlockedForm::Generic => self.metric.min_dist_between_rects(alo, ahi, blo, bhi),
            _ => rect_rect_min_sq(alo, ahi, blo, bhi),
        }
    }
}

/// Lower bound on the squared Euclidean distance between any point of rect
/// `a` and any point of rect `b`: per-dimension gaps, squared and
/// forward-summed. Safe for exact `>` pruning against computed squared
/// distances: rounding is monotone, so each computed gap is `<=` the
/// computed `|q_d - x_d|` for any `q ∈ a`, `x ∈ b`, and squaring plus
/// forward summation preserve the termwise order — the bound never
/// exceeds the computed `squared_euclidean(q, x)`.
fn rect_rect_min_sq(alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> f64 {
    let mut acc = 0.0;
    for d in 0..alo.len() {
        // Branch-free: for non-empty intervals at most one side's gap is
        // positive; a zero gap may come out as `-0.0`, which squares away.
        let gap = (alo[d] - bhi[d]).max(blo[d] - ahi[d]).max(0.0);
        acc += gap * gap;
    }
    acc
}

/// Recursively builds the subtree over `ids[start..end]`, returning its node
/// index; each node's box is appended to `boxes` as it is pushed.
fn build(
    data: &Dataset,
    ids: &mut [usize],
    start: usize,
    end: usize,
    nodes: &mut Vec<Node>,
    boxes: &mut Vec<f64>,
) -> usize {
    let slice = &ids[start..end];
    let dims = data.dims();
    let mut lo = data.point(slice[0]).to_vec();
    let mut hi = lo.clone();
    for &id in &slice[1..] {
        let p = data.point(id);
        for d in 0..dims {
            if p[d] < lo[d] {
                lo[d] = p[d];
            }
            if p[d] > hi[d] {
                hi[d] = p[d];
            }
        }
    }

    let push = |nodes: &mut Vec<Node>, boxes: &mut Vec<f64>, children| {
        boxes.extend_from_slice(&lo);
        boxes.extend_from_slice(&hi);
        nodes.push(Node { start, end, children });
        nodes.len() - 1
    };
    let count = end - start;
    if count <= LEAF_SIZE {
        return push(nodes, boxes, None);
    }

    // Split on the dimension of largest extent, at the median.
    let mut split_dim = 0;
    let mut best_extent = hi[0] - lo[0];
    for d in 1..dims {
        let extent = hi[d] - lo[d];
        if extent > best_extent {
            best_extent = extent;
            split_dim = d;
        }
    }
    if best_extent == 0.0 {
        // All points identical in every dimension: an (oversized) leaf is
        // the only sensible shape.
        return push(nodes, boxes, None);
    }

    let mid = count / 2;
    ids[start..end].select_nth_unstable_by(mid, |&a, &b| {
        data.point(a)[split_dim].total_cmp(&data.point(b)[split_dim]).then(a.cmp(&b))
    });

    let left = build(data, ids, start, start + mid, nodes, boxes);
    let right = build(data, ids, start + mid, end, nodes, boxes);
    push(nodes, boxes, Some((left, right)))
}

impl_knn_provider!(KdTree, self_join);

impl<M: Metric> lof_core::PartitionSource for KdTree<'_, M> {
    /// One partition per tree leaf — the same spatially tight,
    /// `LEAF_SIZE`-bounded groups the batch self-join exploits, which is
    /// exactly the locality the top-n engine's envelopes need.
    fn partitions(&self) -> Vec<lof_core::Partition> {
        crate::common::leaf_partitions(self.data, &self.metric, self.leaf_members())
    }
}

impl<M: Metric> KdTree<'_, M> {
    /// Each leaf's member ids, in tree order.
    pub(crate) fn leaf_members(&self) -> impl Iterator<Item = &[usize]> + '_ {
        self.leaf_nodes().map(|(_, members)| members)
    }

    /// Each leaf's node index and member ids, in tree order.
    pub(crate) fn leaf_nodes(&self) -> impl Iterator<Item = (usize, &[usize])> + '_ {
        let leaves = self.nodes.iter().enumerate().filter(|(_, n)| n.children.is_none());
        leaves.map(|(i, n)| (i, &self.ids[n.start..n.end]))
    }
}

impl<M: Metric> lof_core::PartitionMetric for KdTree<'_, M> {
    fn partition_metric(&self) -> &dyn Metric {
        &self.metric
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lof_core::{Euclidean, KnnProvider, LinearScan, Manhattan};

    fn clustered_dataset() -> Dataset {
        // Deterministic pseudo-random points via a tiny LCG — two clusters.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut rows = Vec::new();
        for i in 0..200 {
            let offset = if i % 2 == 0 { 0.0 } else { 10.0 };
            rows.push([offset + next() * 2.0, offset + next() * 2.0, next()]);
        }
        Dataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn matches_linear_scan_on_clustered_data() {
        let ds = clustered_dataset();
        let tree = KdTree::new(&ds, Euclidean);
        let scan = LinearScan::new(&ds, Euclidean);
        for id in (0..ds.len()).step_by(13) {
            for k in [1, 3, 10] {
                assert_eq!(
                    tree.k_nearest(id, k).unwrap(),
                    scan.k_nearest(id, k).unwrap(),
                    "id={id} k={k}"
                );
            }
        }
    }

    #[test]
    fn within_matches_linear_scan() {
        let ds = clustered_dataset();
        let tree = KdTree::new(&ds, Manhattan);
        let scan = LinearScan::new(&ds, Manhattan);
        for id in (0..ds.len()).step_by(29) {
            for radius in [0.1, 1.0, 5.0, 100.0] {
                assert_eq!(tree.within(id, radius).unwrap(), scan.within(id, radius).unwrap());
            }
        }
    }

    #[test]
    fn query_by_point_includes_exact_matches() {
        let ds = Dataset::from_rows(&[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]]).unwrap();
        let tree = KdTree::new(&ds, Euclidean);
        let nn = tree.k_nearest_point(&[0.0, 0.0], 1).unwrap();
        assert_eq!(nn[0].id, 0);
        assert_eq!(nn[0].dist, 0.0);
        let all = tree.within_point(&[0.0, 0.0], 1.0).unwrap();
        assert_eq!(all.len(), 3);
        assert!(tree.k_nearest_point(&[0.0], 1).is_err());
        assert!(tree.k_nearest_point(&[0.0, 0.0], 5).is_err());
    }

    #[test]
    fn handles_duplicate_points() {
        let rows: Vec<[f64; 2]> = (0..50).map(|i| [(i % 3) as f64, 0.0]).collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        let tree = KdTree::new(&ds, Euclidean);
        let scan = LinearScan::new(&ds, Euclidean);
        for id in 0..ds.len() {
            assert_eq!(tree.k_nearest(id, 5).unwrap(), scan.k_nearest(id, 5).unwrap());
        }
    }

    #[test]
    fn validation_errors() {
        let ds = clustered_dataset();
        let tree = KdTree::new(&ds, Euclidean);
        assert!(tree.k_nearest(0, 0).is_err());
        assert!(tree.k_nearest(0, ds.len()).is_err());
        assert!(tree.k_nearest(ds.len(), 1).is_err());
        assert!(tree.within(ds.len(), 1.0).is_err());
    }

    #[test]
    fn builds_internal_nodes_for_large_inputs() {
        let ds = clustered_dataset();
        let tree = KdTree::new(&ds, Euclidean);
        assert!(tree.node_count() > 1, "200 points must split beyond one leaf");
    }
}
