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

use crate::common::{impl_knn_provider, widen_sq};
use lof_core::distance::BlockedForm;
use lof_core::{simd, BlockKernel, BoundedMaxHeap, Dataset, KnnScratch, Metric, Neighbor};

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
    /// Norm-form surrogate kernel; `None` for generic metrics.
    kernel: Option<BlockKernel>,
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
        let kernel = BlockKernel::for_metric(data, &metric);
        KdTree { data, metric, ids, nodes, boxes, root, leaf_of, kernel }
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
    /// [`crate::common::leaf_grouped_table`]): a shared k-distance
    /// descent, then a shared range collection at each query's exact
    /// k-distance (the same two phases as the single-query path, fused
    /// across the group). The group traverses the tree once with shared
    /// node pruning, and where the metric has a squared-Euclidean form
    /// candidate leaves are evaluated as lane-parallel tiles of exact
    /// distances (the norm-form surrogate kernel filters only the
    /// tie-shell pass). Produces bit-identical neighborhoods to the
    /// per-id `k_nearest_into` loop.
    fn join_group(
        &self,
        group: &[(usize, usize)],
        k: usize,
        scratch: &mut KnnScratch,
        staged: &mut Vec<Neighbor>,
        glens: &mut Vec<usize>,
    ) {
        let gn = group.len();
        let leaf = self.bbox(group[0].0);
        if scratch.heaps.len() < gn {
            scratch.heaps.resize_with(gn, BoundedMaxHeap::new);
        }
        if scratch.block_pairs.len() < gn {
            scratch.block_pairs.resize_with(gn, Vec::new);
        }
        let KnnScratch {
            heaps, tile_sq, leaf_cols, block_pairs, join_radii, join_lost, stats, ..
        } = scratch;
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
            let sqrt_form = self.metric.blocked_form() == BlockedForm::Euclidean;
            let mut tile = LeafTile { isa: kernel.isa(), cols: leaf_cols, dists: tile_sq };
            let mut group_bound = f64::INFINITY;
            self.group_knn_sq(
                self.root,
                0.0,
                leaf,
                group,
                heaps,
                join_lost,
                &mut group_bound,
                &mut tile,
            );
            for (gi, heap) in heaps.iter().enumerate() {
                let kth_sq = heap.kth_dist().expect("validated: at least k candidates exist");
                let radius = if sqrt_form { kth_sq.sqrt() } else { kth_sq };
                join_radii.push((radius, kth_sq));
                // Emit the neighborhood straight from the heap: every point
                // strictly inside the k-distance ball beats the k-th
                // candidate in `(distance, id)` order, so it is guaranteed
                // to be held — only ties dropped by the id tie-break are
                // missing, and the gated shell pass below recovers those.
                for (sq, id) in heap.entries() {
                    let d = if sqrt_form { sq.sqrt() } else { sq };
                    pairs[gi].push((d, id));
                }
            }
            // The shell pass has work to do only when some query actually
            // lost a candidate at its k-distance. The widened descent prune
            // guarantees every point whose *emitted* distance ties the
            // radius was offered to the heap, so it is either held or
            // recorded in `join_lost` — if no lost distance maps onto a
            // radius, every neighborhood is already complete and the whole
            // second traversal (as expensive as the descent) is skipped.
            // Continuous data virtually never ties, so this is the common
            // path; the gate fires on duplicate/grid-structured inputs.
            let needs_shell =
                join_radii.iter().zip(join_lost.iter()).any(|(&(radius, _), &lost)| {
                    let lost_d = if sqrt_form { lost.sqrt() } else { lost };
                    lost_d == radius
                });
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

    /// Group k-distance descent in squared space. Internal nodes are
    /// pruned once per group against the loosest per-query bound using the
    /// rect-to-rect lower bound (valid for every query inside the group's
    /// leaf rect); per-query `min_dist_to_rect_sq` tests run only at the
    /// leaves. `node_dist` is this node's rect-to-rect bound, computed by
    /// its parent (`0` at the root, which is never pruned). `group_bound`
    /// is the loosest heap bound of the group; heaps change only at
    /// leaves, so it is refreshed after each leaf instead of at every node.
    ///
    /// Each candidate leaf is evaluated as a lane-parallel tile: its rows
    /// are gathered column-major once per group ([`LeafTile`]), and every
    /// query that survives the leaf's rect test gets all its exact squared
    /// distances from one [`simd::exact_sq_columns`] call — the same bits
    /// as the scalar `squared_euclidean` the single-query descent offers,
    /// so the resulting k-distances are bit-identical.
    ///
    /// Both prunes are widened by [`widen_sq`] so that every point whose
    /// emitted distance could tie a final k-distance is *offered* (extra
    /// offers of worse candidates cannot change the k smallest, so heap
    /// contents stay bit-identical). The same widened cutoff filters the
    /// tile: a candidate beyond `widen_sq(bound)` would be rejected by the
    /// heap, and its distance lies far enough past the final k-distance
    /// that it cannot tie it. Together with the per-heap lost-candidate
    /// minimum this makes "no lost distance ties a radius" a proof that
    /// the shell pass is unnecessary.
    #[allow(clippy::too_many_arguments)]
    fn group_knn_sq(
        &self,
        node_id: usize,
        node_dist: f64,
        leaf: (&[f64], &[f64]),
        group: &[(usize, usize)],
        heaps: &mut [BoundedMaxHeap],
        lost: &mut [f64],
        group_bound: &mut f64,
        tile: &mut LeafTile<'_>,
    ) {
        if node_dist > widen_sq(*group_bound) {
            return;
        }
        let node = &self.nodes[node_id];
        match node.children {
            None => {
                let members = &self.ids[node.start..node.end];
                let (lo, hi) = self.bbox(node_id);
                let mut gathered = false;
                for (gi, &(_, qid)) in group.iter().enumerate() {
                    let q = self.data.point(qid);
                    let mut cutoff = widen_sq(heaps[gi].bound());
                    if self.metric.min_dist_to_rect_sq(q, lo, hi) > cutoff {
                        continue;
                    }
                    if !gathered {
                        tile.gather(self.data, members);
                        gathered = true;
                    }
                    for (&id, &sq) in members.iter().zip(tile.distances(q)) {
                        if sq <= cutoff && id != qid {
                            heaps[gi].offer_tracking(id, sq, &mut lost[gi]);
                            cutoff = widen_sq(heaps[gi].bound());
                        }
                    }
                }
                if gathered {
                    *group_bound = heaps.iter().fold(0.0f64, |m, h| m.max(h.bound()));
                }
            }
            Some((left, right)) => {
                let (llo, lhi) = self.bbox(left);
                let (rlo, rhi) = self.bbox(right);
                let dl = rect_rect_min_sq(leaf.0, leaf.1, llo, lhi);
                let dr = rect_rect_min_sq(leaf.0, leaf.1, rlo, rhi);
                let ((first, d1), (second, d2)) =
                    if dl <= dr { ((left, dl), (right, dr)) } else { ((right, dr), (left, dl)) };
                self.group_knn_sq(first, d1, leaf, group, heaps, lost, group_bound, tile);
                self.group_knn_sq(second, d2, leaf, group, heaps, lost, group_bound, tile);
            }
        }
    }

    /// Shell pass of the batch join: the heap emission above already
    /// covers every point with distance `< k-distance` (and the kept
    /// ties), so this traversal only hunts for ties dropped by the heap's
    /// id tie-break — points at distance *exactly* the query's k-distance.
    /// That lets it prune, in addition to everything beyond the widened
    /// radius, every node lying **strictly inside** the k-distance ball
    /// (its points are all in the heap). Inclusion of each surviving
    /// candidate is decided on the exact reference computation — scalar
    /// squared distance, plus the same single `sqrt` for
    /// [`BlockedForm::Euclidean`] — so combined neighborhoods match the
    /// single-query range phase bit for bit.
    #[allow(clippy::too_many_arguments)]
    fn group_shell_sq(
        &self,
        node_id: usize,
        leaf: (&[f64], &[f64]),
        group: &[(usize, usize)],
        radii: &[(f64, f64)],
        heaps: &[BoundedMaxHeap],
        kernel: &BlockKernel,
        tile_sq: &mut Vec<f64>,
        pairs: &mut [Vec<(f64, usize)>],
    ) {
        let (lo, hi) = self.bbox(node_id);
        let max_r_sq = radii.iter().fold(0.0f64, |m, r| m.max(r.1));
        let min_r_sq = radii.iter().fold(f64::INFINITY, |m, r| m.min(r.1));
        if rect_rect_min_sq(leaf.0, leaf.1, lo, hi) > widen_sq(max_r_sq)
            || rect_rect_max_sq(leaf.0, leaf.1, lo, hi) < min_r_sq
        {
            return;
        }
        let node = &self.nodes[node_id];
        match node.children {
            None => {
                let cands = &self.ids[node.start..node.end];
                let two_slack = 2.0 * kernel.slack();
                let sqrt_form = self.metric.blocked_form() == BlockedForm::Euclidean;
                for (gi, &(_, qid)) in group.iter().enumerate() {
                    let (radius, r_sq) = radii[gi];
                    let q = self.data.point(qid);
                    if self.metric.min_dist_to_rect_sq(q, lo, hi) > widen_sq(r_sq)
                        || point_rect_max_sq(q, lo, hi) < r_sq
                    {
                        continue;
                    }
                    kernel.surrogates_into(self.data, qid, cands, tile_sq);
                    // Two-sided surrogate window around the k-distance: a
                    // tie's squared distance sits within a relative ~5e-16
                    // of `r_sq` (`sqrt` rounding), far inside the 1e-9
                    // margins.
                    let hi = widen_sq(r_sq) + two_slack;
                    let lo = r_sq * (1.0 - 1e-9) - two_slack;
                    for (ci, &sur) in tile_sq.iter().enumerate() {
                        if sur < lo || sur > hi {
                            continue;
                        }
                        let id = cands[ci];
                        if id == qid {
                            continue;
                        }
                        let sq = lof_core::distance::squared_euclidean(q, self.data.point(id));
                        let d = if sqrt_form { sq.sqrt() } else { sq };
                        if d == radius && !heaps[gi].entries().any(|(_, held)| held == id) {
                            pairs[gi].push((d, id));
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
    /// the single-query `min_dist_to_rect > bound` prune before touching a
    /// leaf. Offers go through the scalar metric, so heap contents (and
    /// hence k-distances) are bit-identical to the per-query search.
    fn group_knn_generic(
        &self,
        node_id: usize,
        group: &[(usize, usize)],
        heaps: &mut [BoundedMaxHeap],
    ) {
        let (lo, hi) = self.bbox(node_id);
        let needed = group.iter().enumerate().any(|(gi, &(_, qid))| {
            self.metric.min_dist_to_rect(self.data.point(qid), lo, hi) <= heaps[gi].bound()
        });
        if !needed {
            return;
        }
        let node = &self.nodes[node_id];
        match node.children {
            None => {
                for (gi, &(_, qid)) in group.iter().enumerate() {
                    let q = self.data.point(qid);
                    if self.metric.min_dist_to_rect(q, lo, hi) > heaps[gi].bound() {
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
    /// single-query `range_rec` per member (same prune, same inclusion
    /// test) with one traversal per group.
    fn group_range_generic(
        &self,
        node_id: usize,
        group: &[(usize, usize)],
        radii: &[(f64, f64)],
        pairs: &mut [Vec<(f64, usize)>],
    ) {
        let (lo, hi) = self.bbox(node_id);
        let needed = group.iter().zip(radii).any(|(&(_, qid), &(radius, _))| {
            self.metric.min_dist_to_rect(self.data.point(qid), lo, hi) <= radius
        });
        if !needed {
            return;
        }
        let node = &self.nodes[node_id];
        match node.children {
            None => {
                for (gi, (&(_, qid), &(radius, _))) in group.iter().zip(radii).enumerate() {
                    let q = self.data.point(qid);
                    if self.metric.min_dist_to_rect(q, lo, hi) > radius {
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

/// One candidate leaf of the kd join, gathered column-major so a query's
/// exact distances to all its points come from one lane-parallel
/// [`simd::exact_sq_columns`] call. Both buffers are borrowed from the
/// [`KnnScratch`]: the tree itself keeps no second copy of the
/// coordinates, so a memory-mapped dataset stays out of RAM.
struct LeafTile<'s> {
    isa: simd::Isa,
    /// `dims × stride` coordinates; lanes past the leaf's points are zero
    /// padding up to the [`simd::COLUMN_ALIGN`]-aligned stride.
    cols: &'s mut Vec<f64>,
    /// One query's distances to every lane.
    dists: &'s mut Vec<f64>,
}

impl LeafTile<'_> {
    fn gather(&mut self, data: &Dataset, members: &[usize]) {
        let stride = members.len().next_multiple_of(simd::COLUMN_ALIGN);
        self.cols.clear();
        self.cols.resize(data.dims() * stride, 0.0);
        for (j, &id) in members.iter().enumerate() {
            for (c, &v) in data.point(id).iter().enumerate() {
                self.cols[c * stride + j] = v;
            }
        }
        self.dists.clear();
        self.dists.resize(stride, 0.0);
    }

    /// Exact squared distances from `q` to the gathered lanes, in member
    /// order (followed by the padding lanes).
    fn distances(&mut self, q: &[f64]) -> &[f64] {
        simd::exact_sq_columns(self.isa, q, self.cols, self.dists);
        self.dists
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

/// Upper bound on the squared Euclidean distance between any point of rect
/// `a` and any point of rect `b`. Safe for strict `<` interior pruning:
/// `fl(q_d - x_d) <= max(fl(ahi - blo), fl(bhi - alo))` in magnitude by
/// rounding monotonicity, and squares plus forward sums preserve the
/// termwise order, so the bound never undercuts a computed
/// `squared_euclidean(q, x)`.
fn rect_rect_max_sq(alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> f64 {
    let mut acc = 0.0;
    for d in 0..alo.len() {
        let gap = (ahi[d] - blo[d]).max(bhi[d] - alo[d]);
        acc += gap * gap;
    }
    acc
}

/// Upper bound on the squared Euclidean distance from point `q` to any
/// point of the rect; same floating-point-safety argument as
/// [`rect_rect_max_sq`].
fn point_rect_max_sq(q: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
    let mut acc = 0.0;
    for d in 0..q.len() {
        let gap = (q[d] - lo[d]).max(hi[d] - q[d]);
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
        self.nodes.iter().filter(|n| n.children.is_none()).map(|n| &self.ids[n.start..n.end])
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
