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
/// Each candidate is held as one `u128` key: the distance's total-order
/// bits in the high half, the id in the low half. Comparing two keys as
/// integers is exactly `f64::total_cmp` on the distances, then the ids,
/// so the order is the canonical one with a single compare, and a sift
/// moves a hole instead of swapping pairs. The arrangement is the one the
/// swap-based tuple heap produces, key for key.
///
/// Unlike `std::collections::BinaryHeap`, the backing storage survives
/// [`BoundedMaxHeap::reset`] so a single heap serves any number of queries
/// (of any `k`) without reallocating once its high-water capacity is
/// reached.
#[derive(Debug, Default)]
pub struct BoundedMaxHeap {
    k: usize,
    /// Binary max-heap of [`key`]s; the canonical-order-largest candidate
    /// sits at index 0 and is evicted first.
    keys: Vec<u128>,
    /// Offers since the last reset (instrumentation; absent with `obs`
    /// off so the hot offer paths stay untouched).
    #[cfg(feature = "obs")]
    offers: u64,
}

/// The sign-magnitude bits of `d` remapped so unsigned order is
/// `f64::total_cmp` order: negative values flip every bit, the others
/// only the sign bit.
#[inline]
fn order_bits(d: f64) -> u64 {
    let bits = d.to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | (1 << 63))
}

/// Inverse of [`order_bits`].
#[inline]
fn from_order_bits(bits: u64) -> f64 {
    f64::from_bits(bits ^ ((((bits >> 63) as i64 - 1) as u64) | (1 << 63)))
}

/// One candidate's heap key: integer order is canonical `(distance, id)`
/// order.
#[inline]
fn key(dist: f64, id: usize) -> u128 {
    ((order_bits(dist) as u128) << 64) | id as u128
}

/// The distance of a [`key`].
#[inline]
fn key_dist(key: u128) -> f64 {
    from_order_bits((key >> 64) as u64)
}

/// The `(distance, id)` pair of a [`key`].
#[inline]
fn key_pair(key: u128) -> (f64, usize) {
    (key_dist(key), key as u64 as usize)
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
        self.keys.clear();
        self.keys.reserve(k + 1);
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

    /// Offers a candidate; keeps it only if it beats the current worst.
    #[inline]
    pub fn offer(&mut self, id: usize, dist: f64) {
        #[cfg(feature = "obs")]
        {
            self.offers += 1;
        }
        let e = key(dist, id);
        if self.keys.len() < self.k {
            self.push(e);
        } else if self.keys[0] > e {
            self.replace_top(e);
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
        let e = key(dist, id);
        if self.keys.len() < self.k {
            self.push(e);
        } else if self.keys[0] > e {
            *lost_min = lost_min.min(key_dist(self.keys[0]));
            self.replace_top(e);
        } else {
            *lost_min = lost_min.min(dist);
        }
    }

    /// Appends `e` and sifts it up: parents smaller than `e` move down
    /// into the hole until `e` fits.
    fn push(&mut self, e: u128) {
        let mut i = self.keys.len();
        self.keys.push(e);
        while i > 0 {
            let parent = (i - 1) / 2;
            if e <= self.keys[parent] {
                break;
            }
            self.keys[i] = self.keys[parent];
            i = parent;
        }
        self.keys[i] = e;
    }

    /// Replaces the root with `e` and sifts it down: the larger child
    /// moves up into the hole while it is larger than `e` (the left child
    /// on equal keys, as a swap-based sift picks it).
    fn replace_top(&mut self, e: u128) {
        let keys = &mut self.keys[..];
        let n = keys.len();
        let mut i = 0;
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let child = if r < n && keys[r] > keys[l] { r } else { l };
            if keys[child] <= e {
                break;
            }
            keys[i] = keys[child];
            i = child;
        }
        keys[i] = e;
    }

    /// True once the heap holds `k` candidates: from then on its
    /// [`bound`](Self::bound) is the k-th smallest distance offered.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.keys.len() >= self.k
    }

    /// Current pruning bound: the k-th best distance seen, or `+∞` while
    /// fewer than `k` candidates have been offered. Subtrees whose minimum
    /// possible distance **exceeds** this bound cannot contribute.
    #[inline]
    pub fn bound(&self) -> f64 {
        if self.keys.len() < self.k {
            f64::INFINITY
        } else {
            key_dist(self.keys[0])
        }
    }

    /// The distance of the worst kept candidate — the exact `k`-distance
    /// once the search has offered every candidate that could beat the
    /// bound — or `None` if empty.
    pub fn kth_dist(&self) -> Option<f64> {
        self.keys.first().map(|&e| key_dist(e))
    }

    /// The held `(distance, id)` candidates in arbitrary (heap) order,
    /// without draining them. Once a search has offered every candidate,
    /// this is exactly the set of `k` smallest in canonical `(distance,
    /// id)` order — in particular it contains **every** point strictly
    /// closer than the k-distance, which is what lets batch joins emit
    /// neighborhoods straight from the heap and search only for ties.
    ///
    /// The per-id k-distance descents of the tree indexes skip every
    /// candidate tied with a full heap's bound: after them only
    /// [`kth_dist`](Self::kth_dist) is meaningful, because the held ids
    /// are no longer the canonical `k` smallest.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = (f64, usize)> + '_ {
        self.keys.iter().map(|&e| key_pair(e))
    }

    /// Number of candidates currently held.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no candidate has been offered since the last reset.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Appends the held candidates to `out` in arbitrary order (callers
    /// sort canonically afterwards). The heap stays reusable.
    pub fn append_to(&mut self, out: &mut Vec<Neighbor>) {
        out.extend(self.entries().map(|(d, id)| Neighbor::new(id, d)));
        self.keys.clear();
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
    /// Batched k-distances of the kd and ball trees: the candidate ids
    /// gathered once around a batch's bounding box.
    pub gather: Vec<usize>,
    /// Leaf-grouped batch self-join: one bounded heap per query sharing a
    /// leaf (tree providers traverse once per leaf group).
    pub heaps: Vec<BoundedMaxHeap>,
    /// Self-join grouping buffer: `(leaf, id)` pairs sorted so queries of
    /// the same leaf become contiguous.
    pub join_order: Vec<(usize, usize)>,
    /// Self-join group bounds: where each leaf group starts in
    /// [`KnnScratch::join_order`], followed by its length.
    pub join_starts: Vec<usize>,
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
        let cap = h.keys.capacity();
        h.reset(4);
        assert!(h.is_empty());
        assert_eq!(h.keys.capacity(), cap, "reset must not free storage");
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

    /// The swap-based `(f64::total_cmp, id)` tuple heap the integer keys
    /// replaced, kept as the arrangement oracle.
    fn tuple_heap(k: usize, stream: &[(f64, usize)]) -> Vec<(f64, usize)> {
        let gt = |a: (f64, usize), b: (f64, usize)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).is_gt();
        let mut h: Vec<(f64, usize)> = Vec::new();
        for &e in stream {
            if h.len() < k {
                h.push(e);
                let mut i = h.len() - 1;
                while i > 0 && gt(h[i], h[(i - 1) / 2]) {
                    h.swap(i, (i - 1) / 2);
                    i = (i - 1) / 2;
                }
            } else if gt(h[0], e) {
                h[0] = e;
                let mut i = 0;
                loop {
                    let (l, r) = (2 * i + 1, 2 * i + 2);
                    let mut largest = i;
                    if l < h.len() && gt(h[l], h[largest]) {
                        largest = l;
                    }
                    if r < h.len() && gt(h[r], h[largest]) {
                        largest = r;
                    }
                    if largest == i {
                        break;
                    }
                    h.swap(i, largest);
                    i = largest;
                }
            }
        }
        h
    }

    /// Distances with duplicates, both zeros and `+inf`, under distinct ids.
    fn heap_stream() -> impl proptest::strategy::Strategy<Value = Vec<(f64, usize)>> {
        use proptest::prelude::*;
        (proptest::collection::vec((0usize..8, 0.0..4.0f64), 0..48), 0usize..1024).prop_map(
            |(draws, mask)| {
                let pick = |(kind, x): (usize, f64)| match kind {
                    0 => -0.0,
                    1 => 0.0,
                    2 => f64::INFINITY,
                    3 => 1.0,
                    _ => (x * 2.0).round() / 2.0,
                };
                draws.into_iter().enumerate().map(|(i, draw)| (pick(draw), i ^ mask)).collect()
            },
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]
        fn heap_matches_a_canonical_sort(stream in heap_stream(), drawn_k in 1usize..64) {
            let mut sorted = stream.clone();
            sorted.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            for k in [1, drawn_k, stream.len().max(1), stream.len() + 3] {
                let kept = k.min(stream.len());
                let (mut plain, mut tracking) = (BoundedMaxHeap::new(), BoundedMaxHeap::new());
                plain.reset(k);
                tracking.reset(k);
                let mut lost_min = f64::INFINITY;
                for &(d, id) in &stream {
                    plain.offer(id, d);
                    tracking.offer_tracking(id, d, &mut lost_min);
                }
                let bits = |v: Vec<(f64, usize)>| -> Vec<(u64, usize)> {
                    v.into_iter().map(|(d, id)| (d.to_bits(), id)).collect()
                };
                let oracle = bits(tuple_heap(k, &stream));
                proptest::prop_assert_eq!(bits(plain.entries().collect()), oracle.clone());
                proptest::prop_assert_eq!(bits(tracking.entries().collect()), oracle);
                let mut held: Vec<(f64, usize)> = plain.entries().collect();
                held.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                proptest::prop_assert_eq!(bits(held), bits(sorted[..kept].to_vec()));
                proptest::prop_assert_eq!(
                    plain.kth_dist().map(f64::to_bits),
                    sorted[..kept].last().map(|e| e.0.to_bits())
                );
                let bound = if stream.len() < k { f64::INFINITY } else { sorted[k - 1].0 };
                proptest::prop_assert_eq!(plain.bound().to_bits(), bound.to_bits());
                // The zeros compare equal, and `f64::min` may keep either
                // sign, so the lost minimum is checked as a value.
                let want_lost = sorted[kept..].iter().fold(f64::INFINITY, |m, e| m.min(e.0));
                proptest::prop_assert!(lost_min == want_lost, "lost {lost_min} != {want_lost}");
            }
        }
    }

    #[test]
    fn keys_order_like_total_cmp_and_round_trip() {
        let values =
            [f64::NEG_INFINITY, -2.5, -f64::MIN_POSITIVE, -0.0, 0.0, 1e-300, 3.0, f64::MAX];
        for (i, &a) in values.iter().enumerate() {
            assert_eq!(from_order_bits(order_bits(a)).to_bits(), a.to_bits());
            for &b in &values[i + 1..] {
                assert!(order_bits(a) < order_bits(b), "{a} vs {b}");
            }
        }
        assert!(key(1.0, 9) < key(1.0, 10) && key(1.0, usize::MAX) < key(1.5, 0));
        assert_eq!(key_pair(key(-0.0, 42)).1, 42);
        assert_eq!(key_pair(key(-0.0, 42)).0.to_bits(), (-0.0f64).to_bits());
    }
}
