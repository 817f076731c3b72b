//! A bounded max-heap tracking the `k` nearest candidates seen so far —
//! the public, owning convenience wrapper around
//! [`lof_core::BoundedMaxHeap`].
//!
//! None of this crate's hot paths route through this type anymore. The
//! single-query searches borrow their heap out of a
//! [`lof_core::KnnScratch`] (zero-allocation steady state), and the
//! leaf-blocked batch self-joins keep no heap at all: each grouped query
//! captures its tie-inclusive candidates in one [`lof_core::Capture`]
//! buffer. `KBest` remains for external callers that want the
//! canonical `(distance, id)` selection semantics — identical tie
//! handling, same pruning-bound contract — without managing a scratch.

use lof_core::{BoundedMaxHeap, Neighbor};

/// Tracks the `k` candidates smallest in `(distance, id)` order.
#[derive(Debug)]
pub struct KBest {
    heap: BoundedMaxHeap,
}

impl KBest {
    /// A tracker for the `k` nearest candidates.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        let mut heap = BoundedMaxHeap::new();
        heap.reset(k);
        KBest { heap }
    }

    /// Offers a candidate; keeps it only if it beats the current worst.
    pub fn offer(&mut self, id: usize, dist: f64) {
        self.heap.offer(id, dist);
    }

    /// Current pruning bound: the k-th best distance seen, or `+∞` while
    /// fewer than `k` candidates have been offered. Subtrees whose minimum
    /// possible distance **exceeds** this bound cannot contribute.
    pub fn bound(&self) -> f64 {
        self.heap.bound()
    }

    /// Number of candidates currently held.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no candidate has been offered yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The exact `k`-distance once the search is complete: the distance of
    /// the worst kept candidate (`None` if nothing was offered).
    pub fn k_distance(&self) -> Option<f64> {
        self.heap.kth_dist()
    }

    /// Drains into a sorted neighbor list (ascending canonical order).
    pub fn into_sorted(mut self) -> Vec<Neighbor> {
        let mut v = Vec::with_capacity(self.heap.len());
        self.heap.append_to(&mut v);
        lof_core::neighbors::sort_neighbors(&mut v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_k_smallest() {
        let mut kb = KBest::new(3);
        for (id, d) in [(0, 5.0), (1, 1.0), (2, 3.0), (3, 0.5), (4, 4.0)] {
            kb.offer(id, d);
        }
        let v = kb.into_sorted();
        assert_eq!(v.iter().map(|n| n.id).collect::<Vec<_>>(), vec![3, 1, 2]);
    }

    #[test]
    fn bound_is_infinite_until_full() {
        let mut kb = KBest::new(2);
        assert_eq!(kb.bound(), f64::INFINITY);
        kb.offer(0, 1.0);
        assert_eq!(kb.bound(), f64::INFINITY);
        kb.offer(1, 2.0);
        assert_eq!(kb.bound(), 2.0);
        kb.offer(2, 0.5);
        assert_eq!(kb.bound(), 1.0);
        assert_eq!(kb.k_distance(), Some(1.0));
    }

    #[test]
    fn equal_distances_prefer_smaller_ids() {
        let mut kb = KBest::new(2);
        kb.offer(5, 1.0);
        kb.offer(3, 1.0);
        kb.offer(1, 1.0);
        assert_eq!(kb.len(), 2);
        assert!(!kb.is_empty());
        let v = kb.into_sorted();
        assert_eq!(v.iter().map(|n| n.id).collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_k_panics() {
        let _ = KBest::new(0);
    }
}
