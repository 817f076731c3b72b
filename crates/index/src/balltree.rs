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
//!
//! The batch self-join answers all queries of one leaf in one traversal,
//! capturing each query's tie-inclusive candidates in a
//! [`lof_core::Capture`], as [`crate::KdTree`]'s join does: no heap and
//! no second pass.

use crate::common::{impl_knn_provider, GroupWalk, LeafColumns};
use lof_core::distance::BlockedForm;
use lof_core::{BoundedMaxHeap, Dataset, KnnScratch, Metric, Neighbor};

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
        BallTree { data, metric, ids, nodes, root, leaf_of }
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
    /// [`crate::common::leaf_grouped_table`]) in one traversal, with the
    /// same per-query [`lof_core::Capture`]s as [`crate::KdTree`]'s join:
    /// each keeps every candidate within its widened running k-th
    /// distance, ties included, so each neighborhood is selected straight
    /// from it. Nodes are pruned once per group by their ball-to-ball
    /// bound to the group's leaf, and per query at leaves, both in true
    /// space with the tolerance of [`Self::prune`]. For the plain
    /// Euclidean metric (the only squared form the constructor admits)
    /// captures hold exact squared distances from lane-parallel leaf
    /// tiles, and bounds compare against their square roots. Produces
    /// bit-identical neighborhoods to the per-id `k_nearest_into` loop.
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
        self.group_capture(self.root, 0.0, &self.nodes[group[0].0], &mut walk);
        walk.finish(self.metric.blocked_form() != BlockedForm::Generic, staged, glens);
    }

    /// A captured distance (or accept bound) as a true distance: the
    /// square root under the squared form.
    fn true_dist(&self, d: f64) -> f64 {
        if self.metric.blocked_form() == BlockedForm::Generic {
            d
        } else {
            d.sqrt()
        }
    }

    /// The join's descent below `node_id`, whose ball lies `node_dist`
    /// from the group's `leaf` ball (computed by its parent; `0` at the
    /// root).
    fn group_capture(
        &self,
        node_id: usize,
        node_dist: f64,
        leaf: &Node,
        walk: &mut GroupWalk<'_, M>,
    ) {
        if Self::prune(node_dist, self.true_dist(walk.bound)) {
            return;
        }
        let node = &self.nodes[node_id];
        match node.children {
            None => {
                walk.capture_leaf(node_id, &self.ids[node.start..node.end], |q, accept| {
                    !Self::prune(self.node_min_dist(q, node_id), self.true_dist(accept))
                });
            }
            Some((left, right)) => {
                let dl = self.ball_ball_min_dist(leaf, left);
                let dr = self.ball_ball_min_dist(leaf, right);
                let ((first, d1), (second, d2)) =
                    if dl <= dr { ((left, dl), (right, dr)) } else { ((right, dr), (left, dl)) };
                self.group_capture(first, d1, leaf, walk);
                self.group_capture(second, d2, leaf, walk);
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
        self.leaf_nodes().map(|(_, members)| members)
    }

    /// Each leaf's node index and member ids, in tree order.
    pub(crate) fn leaf_nodes(&self) -> impl Iterator<Item = (usize, &[usize])> + '_ {
        let leaves = self.nodes.iter().enumerate().filter(|(_, n)| n.children.is_none());
        leaves.map(|(i, n)| (i, &self.ids[n.start..n.end]))
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
