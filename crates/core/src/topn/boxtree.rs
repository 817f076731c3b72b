//! The box tree over partition bounding boxes: the one spatial index of
//! the cover itself, shared by the isolation-radius queries
//! ([`super::set_isolation_radii`]) and the envelope passes
//! ([`super::partition_envelopes`]).
//!
//! A median split on the dimension with the widest spread of box centers
//! (the kd-tree's heuristic, applied to boxes) down to one partition per
//! leaf. Nodes live in one arena with children before their parent, so a
//! single forward scan folds subtree aggregates bottom-up, and their
//! boxes live in one flat array, `[lo | hi]` per node, the way the
//! kd-tree stores its own.

use super::Partition;

/// One node of a [`BoxTree`]; its box is [`BoxTree::bbox`]. Indices and
/// counts are `u32`, with [`NONE`] for "no such index", so a node fills
/// half a cache line.
pub(crate) struct BoxNode {
    /// Total member count of the subtree.
    count: u32,
    /// Partition index (leaves only; [`NONE`] on internal nodes).
    part: u32,
    /// Left and right child ([`NONE`] on leaves).
    children: [u32; 2],
    /// Subtree minimum of the per-partition statistic of the current
    /// envelope pass (k-distance lower bounds, then direct minima).
    pub agg_lo: f64,
    /// Subtree maximum of the current pass's statistic.
    pub agg_hi: f64,
}

const _: () = assert!(std::mem::size_of::<BoxNode>() == 32);

/// The `u32` index sentinel of [`BoxNode`].
const NONE: u32 = u32::MAX;

/// `i` as a [`BoxNode`] index or count.
fn narrow(i: usize) -> u32 {
    u32::try_from(i).ok().filter(|&i| i != NONE).expect("box tree indices fit below u32::MAX")
}

impl BoxNode {
    /// Total member count of the subtree.
    #[inline]
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Partition index of a leaf (`u32::MAX` on internal nodes, which no
    /// partition index reaches).
    #[inline]
    pub fn part(&self) -> usize {
        self.part as usize
    }

    /// The two children of an internal node; `None` on leaves.
    #[inline]
    pub fn children(&self) -> Option<(usize, usize)> {
        let [l, r] = self.children;
        (l != NONE).then_some((l as usize, r as usize))
    }
}

/// Arena box tree over a non-empty slice of partitions.
pub(crate) struct BoxTree {
    dims: usize,
    pub nodes: Vec<BoxNode>,
    /// Node boxes, `[lo | hi]` per node in node order: node `i`'s box is
    /// `boxes[2·dims·i..2·dims·(i+1)]`.
    boxes: Vec<f64>,
    pub root: usize,
}

impl BoxTree {
    /// Builds the tree; `parts` must be non-empty and share one
    /// dimensionality.
    pub fn build(parts: &[Partition]) -> BoxTree {
        let dims = parts[0].lo.len();
        let centers: Vec<f64> =
            parts.iter().flat_map(|p| p.lo.iter().zip(&p.hi).map(|(l, h)| 0.5 * (l + h))).collect();
        let mut idx: Vec<usize> = (0..parts.len()).collect();
        let mut tree = BoxTree {
            dims,
            nodes: Vec::with_capacity(2 * parts.len()),
            boxes: Vec::with_capacity(4 * dims * parts.len()),
            root: 0,
        };
        tree.root = tree.build_rec(parts, &centers, &mut idx);
        tree
    }

    fn build_rec(&mut self, parts: &[Partition], centers: &[f64], idx: &mut [usize]) -> usize {
        let dims = self.dims;
        if idx.len() == 1 {
            let p = idx[0];
            self.boxes.extend_from_slice(&parts[p].lo);
            self.boxes.extend_from_slice(&parts[p].hi);
            return self.push(parts[p].members.len(), None, narrow(p));
        }
        let center = |i: usize, d: usize| centers[i * dims + d];
        let mut best_dim = 0;
        let mut best_spread = f64::NEG_INFINITY;
        for d in 0..dims {
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            for &i in idx.iter() {
                min = min.min(center(i, d));
                max = max.max(center(i, d));
            }
            if max - min > best_spread {
                best_spread = max - min;
                best_dim = d;
            }
        }
        let mid = idx.len() / 2;
        idx.select_nth_unstable_by(mid, |&a, &b| {
            center(a, best_dim).total_cmp(&center(b, best_dim)).then(a.cmp(&b))
        });
        let (left_ids, right_ids) = idx.split_at_mut(mid);
        let left = self.build_rec(parts, centers, left_ids);
        let right = self.build_rec(parts, centers, right_ids);
        let (l, r) = (2 * dims * left, 2 * dims * right);
        for d in 0..dims {
            self.boxes.push(self.boxes[l + d].min(self.boxes[r + d]));
        }
        for d in dims..2 * dims {
            self.boxes.push(self.boxes[l + d].max(self.boxes[r + d]));
        }
        let count = self.nodes[left].count() + self.nodes[right].count();
        self.push(count, Some((left, right)), NONE)
    }

    /// Appends a node whose box was just appended to `boxes`.
    fn push(&mut self, count: usize, children: Option<(usize, usize)>, part: u32) -> usize {
        let children = children.map_or([NONE; 2], |(l, r)| [narrow(l), narrow(r)]);
        let count = narrow(count);
        self.nodes.push(BoxNode { count, part, children, agg_lo: 0.0, agg_hi: 0.0 });
        self.nodes.len() - 1
    }

    /// Node `i`'s box as `(lo, hi)`.
    #[inline]
    pub fn bbox(&self, i: usize) -> (&[f64], &[f64]) {
        self.boxes[2 * self.dims * i..2 * self.dims * (i + 1)].split_at(self.dims)
    }

    /// Loads per-partition statistics into the leaf aggregates and folds
    /// them bottom-up (children precede parents in the arena).
    pub fn set_aggregates(&mut self, stat_lo: &[f64], stat_hi: &[f64]) {
        for i in 0..self.nodes.len() {
            match self.nodes[i].children() {
                None => {
                    let p = self.nodes[i].part();
                    self.nodes[i].agg_lo = stat_lo[p];
                    self.nodes[i].agg_hi = stat_hi[p];
                }
                Some((l, r)) => {
                    self.nodes[i].agg_lo = self.nodes[l].agg_lo.min(self.nodes[r].agg_lo);
                    self.nodes[i].agg_hi = self.nodes[l].agg_hi.max(self.nodes[r].agg_hi);
                }
            }
        }
    }
}

/// Totally ordered f64 priority for the best-first heaps.
#[derive(PartialEq)]
pub(crate) struct Key(pub f64);

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}
