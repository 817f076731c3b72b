//! Reusable k-NN search state: a bounded max-heap plus staging buffers.
//!
//! Every provider in this workspace answers thousands to millions of
//! `k_nearest` queries during step 1 of the paper's two-step algorithm
//! (section 7.4). Allocating fresh candidate vectors per query dominated
//! the profile of the original implementation, so all hot query paths now
//! thread a [`KnnScratch`] through: its buffers grow to a high-water mark
//! on the first few queries and are reused (cleared, never freed)
//! afterwards, making the steady-state query path allocation-free.

use crate::neighbors::Neighbor;
use std::cell::RefCell;

/// A bounded max-heap over `(distance, id)` pairs tracking the `k`
/// candidates smallest in canonical `(distance, id)` order.
///
/// Unlike `std::collections::BinaryHeap`, the backing storage survives
/// [`BoundedMaxHeap::reset`] so a single heap serves any number of queries
/// (of any `k`) without reallocating once its high-water capacity is
/// reached.
#[derive(Debug, Default)]
pub struct BoundedMaxHeap {
    k: usize,
    /// Binary max-heap ordered by `(dist, id)`; the canonical-order-largest
    /// candidate sits at index 0 and is evicted first.
    entries: Vec<(f64, usize)>,
    /// Offers since the last reset (instrumentation; absent with `obs`
    /// off so the hot offer paths stay untouched).
    #[cfg(feature = "obs")]
    offers: u64,
}

impl BoundedMaxHeap {
    /// An empty heap; call [`BoundedMaxHeap::reset`] before use.
    pub fn new() -> Self {
        BoundedMaxHeap::default()
    }

    /// Clears the heap and sets its bound to `k` candidates.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn reset(&mut self, k: usize) {
        assert!(k > 0, "BoundedMaxHeap requires k >= 1");
        self.k = k;
        self.entries.clear();
        self.entries.reserve(k + 1);
        #[cfg(feature = "obs")]
        {
            self.offers = 0;
        }
    }

    /// Offers seen since the last [`reset`](Self::reset); always 0 with
    /// `obs` off. The batch joins sum this per heap after a group descent
    /// to attribute offer counts without touching the offer fast path.
    #[inline]
    pub fn offers(&self) -> u64 {
        #[cfg(feature = "obs")]
        {
            self.offers
        }
        #[cfg(not(feature = "obs"))]
        {
            0
        }
    }

    #[inline]
    fn gt(a: (f64, usize), b: (f64, usize)) -> bool {
        a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).is_gt()
    }

    /// Offers a candidate; keeps it only if it beats the current worst.
    #[inline]
    pub fn offer(&mut self, id: usize, dist: f64) {
        #[cfg(feature = "obs")]
        {
            self.offers += 1;
        }
        let e = (dist, id);
        if self.entries.len() < self.k {
            self.entries.push(e);
            self.sift_up(self.entries.len() - 1);
        } else if Self::gt(self.entries[0], e) {
            self.entries[0] = e;
            self.sift_down();
        }
    }

    /// Offers a candidate while recording, in `lost_min`, the smallest
    /// distance among the candidates this heap has rejected or evicted.
    ///
    /// Any lost candidate is `(distance, id)`-greater than the final k-th
    /// entry, so after a complete search `lost_min` is at least the
    /// k-distance — and reaches it exactly when the id tie-break dropped a
    /// candidate *at* the k-distance. That is the only situation in which
    /// the batch join's shell pass has anything to recover, so the joins
    /// use this to skip the shell traversal entirely for tie-free queries.
    #[inline]
    pub fn offer_tracking(&mut self, id: usize, dist: f64, lost_min: &mut f64) {
        #[cfg(feature = "obs")]
        {
            self.offers += 1;
        }
        let e = (dist, id);
        if self.entries.len() < self.k {
            self.entries.push(e);
            self.sift_up(self.entries.len() - 1);
        } else if Self::gt(self.entries[0], e) {
            *lost_min = lost_min.min(self.entries[0].0);
            self.entries[0] = e;
            self.sift_down();
        } else {
            *lost_min = lost_min.min(dist);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if Self::gt(self.entries[i], self.entries[parent]) {
                self.entries.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self) {
        let n = self.entries.len();
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < n && Self::gt(self.entries[l], self.entries[largest]) {
                largest = l;
            }
            if r < n && Self::gt(self.entries[r], self.entries[largest]) {
                largest = r;
            }
            if largest == i {
                return;
            }
            self.entries.swap(i, largest);
            i = largest;
        }
    }

    /// Current pruning bound: the k-th best distance seen, or `+∞` while
    /// fewer than `k` candidates have been offered. Subtrees whose minimum
    /// possible distance **exceeds** this bound cannot contribute.
    #[inline]
    pub fn bound(&self) -> f64 {
        if self.entries.len() < self.k {
            f64::INFINITY
        } else {
            self.entries[0].0
        }
    }

    /// The distance of the worst kept candidate — the exact `k`-distance
    /// once the search has offered every candidate — or `None` if empty.
    pub fn kth_dist(&self) -> Option<f64> {
        self.entries.first().map(|e| e.0)
    }

    /// The held `(distance, id)` candidates in arbitrary (heap) order,
    /// without draining them. Once a search has offered every candidate,
    /// this is exactly the set of `k` smallest in canonical `(distance,
    /// id)` order — in particular it contains **every** point strictly
    /// closer than the k-distance, which is what lets batch joins emit
    /// neighborhoods straight from the heap and search only for ties.
    pub fn entries(&self) -> &[(f64, usize)] {
        &self.entries
    }

    /// Number of candidates currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no candidate has been offered since the last reset.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends the held candidates to `out` in arbitrary order (callers
    /// sort canonically afterwards). The heap stays reusable.
    pub fn append_to(&mut self, out: &mut Vec<Neighbor>) {
        out.extend(self.entries.iter().map(|&(d, id)| Neighbor::new(id, d)));
        self.entries.clear();
    }
}

/// Reusable scratch space for a stream of k-NN queries.
///
/// One scratch serves any provider: each search uses the subset of buffers
/// it needs and leaves the rest untouched. All buffers keep their capacity
/// across queries, so a warmed-up scratch makes `k_nearest_into` and
/// `batch_k_nearest` allocation-free.
#[derive(Debug, Default)]
pub struct KnnScratch {
    /// Primary bounded heap (the k-distance search of the two-phase
    /// queries, or the refine heap of filter-and-refine searches).
    pub heap: BoundedMaxHeap,
    /// Secondary bounded heap (the VA-file's upper-bound threshold heap).
    pub heap2: BoundedMaxHeap,
    /// Candidate staging: `(key, id)` pairs, e.g. VA-file lower bounds.
    pub pairs: Vec<(f64, usize)>,
    /// Neighbor staging (exact-refine candidates of the blocked kernel).
    pub neighbors: Vec<Neighbor>,
    /// Per-dimension temporary (cell/rect lower corner).
    pub lo: Vec<f64>,
    /// Per-dimension temporary (cell/rect upper corner).
    pub hi: Vec<f64>,
    /// Per-dimension temporary (VA-file farthest corner).
    pub far: Vec<f64>,
    /// Integer cell-coordinate temporary (grid searches).
    pub cell: Vec<usize>,
    /// Second integer cell-coordinate temporary (grid shell walks keep the
    /// query's cell in [`KnnScratch::cell`] while enumerating shell cells
    /// here).
    pub cell2: Vec<usize>,
    /// Blocked-kernel candidate capture: one `(surrogate, id)` list per
    /// query in the active block.
    pub block_pairs: Vec<Vec<(f64, usize)>>,
    /// Blocked-kernel panel staging: surrogate squared distances of one
    /// query block × one data tile (the tile itself is L1-sized, see
    /// `TILE_BUDGET_BYTES` in the kernel; the panel is `qb` rows of it).
    /// The kd-tree join also lands one query's exact leaf-tile distances
    /// here.
    pub tile_sq: Vec<f64>,
    /// kd-tree join: one candidate leaf's rows, gathered column-major for
    /// [`crate::simd::exact_sq_columns`] and shared by every query of the
    /// active group.
    pub leaf_cols: Vec<f64>,
    /// Leaf-grouped batch self-join: one bounded heap per query sharing a
    /// leaf (tree providers traverse once per leaf group).
    pub heaps: Vec<BoundedMaxHeap>,
    /// Self-join grouping buffer: `(leaf, id)` pairs sorted so queries of
    /// the same leaf become contiguous.
    pub join_order: Vec<(usize, usize)>,
    /// Self-join group buffer: the active group's neighborhoods in group
    /// order, before they are written to their id-ordered output slots.
    pub join_staged: Vec<Neighbor>,
    /// Neighborhood lengths of the active group, in group order.
    pub join_lens: Vec<usize>,
    /// Per-query `(tie overflow start, neighborhood length)`, indexed by
    /// `id - batch_start`; the start indexes [`KnnScratch::join_ties`].
    pub join_spans: Vec<(usize, usize)>,
    /// Self-join tie overflow: the entries past the `k`-th of every
    /// neighborhood in the batch (empty on tie-free data).
    pub join_ties: Vec<Neighbor>,
    /// Per-query `(range radius, heap-space radius)` pairs of the active
    /// join group (identical for true-space metrics; `(√sq, sq)` for the
    /// squared-kernel paths).
    pub join_radii: Vec<(f64, f64)>,
    /// Per-query minimum lost (rejected or evicted) heap distance of the
    /// active join group, fed by [`BoundedMaxHeap::offer_tracking`]. A
    /// value equal to the query's k-distance flags the rare queries whose
    /// shell pass can actually recover an id-tie-break casualty.
    pub join_lost: Vec<f64>,
    /// Deterministic per-call kernel counters (see [`crate::obs`]); hot
    /// paths bump these as plain additions, chokepoints publish them.
    pub stats: crate::obs::KernelStats,
}

impl KnnScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        KnnScratch::default()
    }
}

thread_local! {
    static THREAD_SCRATCH: RefCell<KnnScratch> = RefCell::new(KnnScratch::new());
}

/// Runs `f` with this thread's shared [`KnnScratch`].
///
/// One-off `k_nearest` calls route through here so that even ad-hoc
/// queries stop paying a fresh allocation each time; batch paths that own
/// a scratch (the table builders) should prefer their own instance.
///
/// Falls back to a temporary scratch if the thread-local one is already
/// borrowed (a provider whose search recursively issues queries).
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut KnnScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut KnnScratch::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_keeps_the_k_smallest() {
        let mut h = BoundedMaxHeap::new();
        h.reset(3);
        for (id, d) in [(0, 5.0), (1, 1.0), (2, 3.0), (3, 0.5), (4, 4.0)] {
            h.offer(id, d);
        }
        assert_eq!(h.kth_dist(), Some(3.0));
        let mut out = Vec::new();
        h.append_to(&mut out);
        let mut ids: Vec<usize> = out.iter().map(|n| n.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3]);
        assert!(h.is_empty());
    }

    #[test]
    fn heap_bound_is_infinite_until_full() {
        let mut h = BoundedMaxHeap::new();
        h.reset(2);
        assert_eq!(h.bound(), f64::INFINITY);
        h.offer(0, 1.0);
        assert_eq!(h.bound(), f64::INFINITY);
        h.offer(1, 2.0);
        assert_eq!(h.bound(), 2.0);
        h.offer(2, 0.5);
        assert_eq!(h.bound(), 1.0);
    }

    #[test]
    fn heap_ties_prefer_smaller_ids() {
        let mut h = BoundedMaxHeap::new();
        h.reset(2);
        h.offer(5, 1.0);
        h.offer(3, 1.0);
        h.offer(1, 1.0);
        let mut out = Vec::new();
        h.append_to(&mut out);
        let mut ids: Vec<usize> = out.iter().map(|n| n.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn heap_reset_reuses_storage() {
        let mut h = BoundedMaxHeap::new();
        h.reset(4);
        for i in 0..10 {
            h.offer(i, i as f64);
        }
        let cap = h.entries.capacity();
        h.reset(4);
        assert!(h.is_empty());
        assert_eq!(h.entries.capacity(), cap, "reset must not free storage");
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn heap_rejects_zero_k() {
        BoundedMaxHeap::new().reset(0);
    }

    #[test]
    fn thread_scratch_is_reentrant() {
        with_thread_scratch(|outer| {
            outer.heap.reset(1);
            outer.heap.offer(7, 1.0);
            with_thread_scratch(|inner| {
                // The inner borrow gets a fresh scratch, not the outer one.
                assert!(inner.heap.is_empty());
            });
            assert_eq!(outer.heap.len(), 1);
        });
    }
}
