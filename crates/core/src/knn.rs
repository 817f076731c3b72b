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
use crate::obs::KernelStats;
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
    }

    /// Offers a candidate; keeps it only if it beats the current worst.
    #[inline]
    pub fn offer(&mut self, id: usize, dist: f64) {
        let e = key(dist, id);
        if self.keys.len() < self.k {
            self.push(e);
        } else if self.keys[0] > e {
            self.replace_top(e);
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
    /// id)` order.
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

/// Widens a distance bound, squared or not, by a relative `1e-9` plus
/// `MIN_POSITIVE`. Pruning and capture cuts that must keep every point
/// whose *emitted* distance can reach a radius use it: a relative `1e-9`
/// lies far above any `sqrt` rounding, and `MIN_POSITIVE` covers zero
/// radii. Inclusion is always decided on exact distances afterwards, so
/// the widening costs a few extra candidates, never a wrong answer.
#[inline]
pub fn widen_sq(r_sq: f64) -> f64 {
    r_sq * (1.0 + 1e-9) + f64::MIN_POSITIVE
}

/// One query's tie-inclusive k-nearest-neighbor capture: the candidate
/// buffer behind the kd and ball self-joins and the blocked scan.
///
/// Callers evaluate a run of candidates at once (a tree leaf's exact
/// distances, a data tile's surrogates) and hand the whole run to
/// [`Capture::offer`], which writes every lane into the buffer and then
/// advances its length by `(d <= accept) as usize`: no branch per lane.
/// Once the buffer holds `2k` entries, a `select_nth_unstable` compaction
/// finds the running k-th distance, tightens the accept bound to
/// [`widen_sq`] of it plus the caller's margin, and drops everything
/// beyond. A compaction that cannot shrink the buffer (a tie pile larger
/// than `k`) raises the next limit to twice what it kept, so every lane
/// costs amortized O(1).
///
/// The running k-th of a subset is never below the k-th of all
/// candidates, so the bound only falls and never below the widened final
/// k-th distance. Once every candidate has been offered, the buffer holds
/// every candidate within that cut: each tie at the k-distance, and each
/// candidate whose square root ties it. [`Capture::neighborhood_into`]
/// then selects the k-distance once and keeps what lies within it; no
/// second traversal is needed.
#[derive(Debug, Default)]
pub struct Capture {
    /// `(distance, id)` pairs: `entries[..len]` are captured, the rest is
    /// room for the lane writes of the next run.
    entries: Vec<(f64, usize)>,
    len: usize,
    k: usize,
    /// Added to every compaction's widened k-th distance.
    margin: f64,
    accept: f64,
    /// The length at which the next compaction runs.
    limit: usize,
}

impl Capture {
    /// Empties the buffer for a query of `k` neighbors. `margin` widens
    /// every accept bound beyond [`widen_sq`]: 0 for exact distances,
    /// twice the surrogate slack for the blocked scan's surrogates.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn reset(&mut self, k: usize, margin: f64) {
        assert!(k > 0, "Capture requires k >= 1");
        self.len = 0;
        self.k = k;
        self.margin = margin;
        self.accept = f64::INFINITY;
        self.limit = 2 * k;
    }

    /// The first `n` captures of `captures`, grown if needed, each reset
    /// ([`Capture::reset`]) for a query of `k` neighbors.
    pub fn reset_first(
        captures: &mut Vec<Capture>,
        n: usize,
        k: usize,
        margin: f64,
    ) -> &mut [Capture] {
        if captures.len() < n {
            captures.resize_with(n, Capture::default);
        }
        for capture in &mut captures[..n] {
            capture.reset(k, margin);
        }
        &mut captures[..n]
    }

    /// The accept bound: `+∞` until the first compaction, then the widened
    /// running k-th distance plus the margin. A run whose lower bound
    /// exceeds it holds nothing to capture.
    #[inline]
    pub fn accept(&self) -> f64 {
        self.accept
    }

    /// Offers one run of candidates: `dists[j]` is the distance of the
    /// `j`-th id of `ids`, and `skip` (the query itself) is never
    /// captured. Adds the run's lanes to `stats.tile_pairs`, its captures
    /// to `stats.captures` and a compaction, if one runs, to
    /// `stats.compactions`.
    #[inline]
    pub fn offer(
        &mut self,
        dists: &[f64],
        ids: impl IntoIterator<Item = usize>,
        skip: usize,
        stats: &mut KernelStats,
    ) {
        let start = self.len;
        if self.entries.len() < start + dists.len() {
            self.entries.resize(start + dists.len(), (0.0, 0));
        }
        let accept = self.accept;
        let room = &mut self.entries[start..start + dists.len()];
        let mut taken = 0;
        for (&d, id) in dists.iter().zip(ids) {
            room[taken] = (d, id);
            taken += usize::from((d <= accept) & (id != skip));
        }
        let len = start + taken;
        self.len = len;
        stats.bump_tile_pairs(dists.len() as u64);
        stats.bump_captures(taken as u64);
        if len >= self.limit {
            self.compact();
            stats.bump_compactions(1);
        }
    }

    /// Keeps the candidates within the tightened bound (see the type docs).
    fn compact(&mut self) {
        let k = self.k;
        let kth = self.kth();
        // Surrogates may dip below zero; the clamp keeps the bound at or
        // above the k-th itself.
        let accept = widen_sq(kth.max(0.0)) + self.margin;
        let mut len = k;
        for i in k..self.len {
            let e = self.entries[i];
            self.entries[len] = e;
            len += usize::from(e.0 <= accept);
        }
        self.len = len;
        self.accept = accept;
        self.limit = 2 * len;
    }

    /// The k-th smallest captured distance; reorders the buffer around it,
    /// the `k - 1` smaller ones first.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `k` candidates were captured.
    pub fn kth(&mut self) -> f64 {
        assert!(self.len >= self.k, "validated: at least k candidates exist");
        let live = &mut self.entries[..self.len];
        live.select_nth_unstable_by(self.k - 1, |a, b| a.0.total_cmp(&b.0)).1 .0
    }

    /// The captured `(distance, id)` pairs, in no particular order.
    pub fn captured(&self) -> &[(f64, usize)] {
        &self.entries[..self.len]
    }

    /// Appends the query's k-distance neighborhood (definition 4) to `out`
    /// in canonical order and returns its length. With `squared`, the
    /// captured distances are squared Euclidean ones and the reported
    /// distances their square roots; `sqrt` is monotone, so the
    /// k-distance is the root of the k-th captured distance, and a
    /// candidate belongs when its root is within it. A candidate beyond
    /// [`widen_sq`] of the k-th cannot have a root that ties it, so only
    /// the candidates within that cut take a root.
    pub fn neighborhood_into(&mut self, squared: bool, out: &mut Vec<Neighbor>) -> usize {
        let emit = |d: f64| if squared { d.sqrt() } else { d };
        let kth = self.kth();
        let (cut, radius) = (widen_sq(kth), emit(kth));
        let start = out.len();
        for &(d, id) in self.captured() {
            if d <= cut && emit(d) <= radius {
                out.push(Neighbor::new(id, emit(d)));
            }
        }
        crate::neighbors::sort_neighbors(&mut out[start..]);
        out.len() - start
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
    /// One [`Capture`] per query of the active blocked-scan block or
    /// self-join leaf group.
    pub captures: Vec<Capture>,
    /// Blocked-kernel panel staging: surrogate squared distances of one
    /// query block × one data tile (the tile itself is L1-sized, see
    /// `TILE_BUDGET_BYTES` in the kernel; the panel is `qb` rows of it).
    /// The tree joins also land one query's distances to a candidate leaf
    /// here.
    pub tile_sq: Vec<f64>,
    /// Tree joins outside `materialize`: one candidate leaf's rows,
    /// gathered column-major for [`crate::simd::exact_sq_columns`] and
    /// shared by every query of the active group.
    pub leaf_cols: Vec<f64>,
    /// Batched k-distances of the kd and ball trees: the candidate ids
    /// gathered once around a batch's bounding box.
    pub gather: Vec<usize>,
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
                let mut plain = BoundedMaxHeap::new();
                plain.reset(k);
                for &(d, id) in &stream {
                    plain.offer(id, d);
                }
                let bits = |v: Vec<(f64, usize)>| -> Vec<(u64, usize)> {
                    v.into_iter().map(|(d, id)| (d.to_bits(), id)).collect()
                };
                let oracle = bits(tuple_heap(k, &stream));
                proptest::prop_assert_eq!(bits(plain.entries().collect()), oracle);
                let mut held: Vec<(f64, usize)> = plain.entries().collect();
                held.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                proptest::prop_assert_eq!(bits(held), bits(sorted[..kept].to_vec()));
                proptest::prop_assert_eq!(
                    plain.kth_dist().map(f64::to_bits),
                    sorted[..kept].last().map(|e| e.0.to_bits())
                );
                let bound = if stream.len() < k { f64::INFINITY } else { sorted[k - 1].0 };
                proptest::prop_assert_eq!(plain.bound().to_bits(), bound.to_bits());
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

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]
        /// Offered in runs of any length, with the query's own id among
        /// them, the capture's neighborhood is the tie-inclusive sort of
        /// every other candidate, in squared space (reported as roots) or
        /// not. The distances repeat, so tie piles straddle the k-th rank
        /// and outgrow the `2k` compaction limit.
        fn capture_matches_the_tie_inclusive_sort(
            draws in proptest::collection::vec(0u32..12, 2..120),
            cuts in proptest::collection::vec(1usize..20, 1..8),
            drawn_k in 1usize..40,
            skip in 0usize..120,
            squared in 0u8..2,
        ) {
            let squared = squared == 1;
            let dists: Vec<f64> = draws.iter().map(|&d| f64::from(d) * 0.5).collect();
            let skip = skip % dists.len();
            let k = drawn_k.min(dists.len() - 1);
            let emit = |d: f64| if squared { d.sqrt() } else { d };
            let others: Vec<Neighbor> = (0..dists.len())
                .filter(|&id| id != skip)
                .map(|id| Neighbor::new(id, emit(dists[id])))
                .collect();
            let want = crate::neighbors::select_k_tie_inclusive(others, k);

            let mut capture = Capture::default();
            capture.reset(k, 0.0);
            let mut stats = KernelStats::default();
            let mut start = 0;
            for &cut in cuts.iter().cycle() {
                if start == dists.len() {
                    break;
                }
                let end = (start + cut).min(dists.len());
                capture.offer(&dists[start..end], start..end, skip, &mut stats);
                start = end;
            }
            let mut got = Vec::new();
            let len = capture.neighborhood_into(squared, &mut got);
            proptest::prop_assert_eq!(len, got.len());
            let bits = |v: &[Neighbor]| -> Vec<(usize, u64)> {
                v.iter().map(|n| (n.id, n.dist.to_bits())).collect()
            };
            proptest::prop_assert_eq!(bits(&got), bits(&want));
        }
    }
}
