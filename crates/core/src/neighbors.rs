//! Neighbor lists and the k-NN provider abstraction.
//!
//! Definition 4 of the paper makes the *k*-distance neighborhood
//! tie-inclusive: it contains **every** object whose distance is not greater
//! than the *k*-distance, so its cardinality can exceed `k`. All providers in
//! this workspace implement exactly that semantics.

use crate::error::Result;

/// One entry of a neighbor list: an object id and its distance to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Id of the neighboring object.
    pub id: usize,
    /// Distance from the query object to `id`.
    pub dist: f64,
}

impl Neighbor {
    /// Convenience constructor.
    pub fn new(id: usize, dist: f64) -> Self {
        Neighbor { id, dist }
    }
}

/// Total order on neighbors: by distance, ties broken by id so results are
/// deterministic across providers. Distances are finite by construction
/// ([`crate::Dataset`] rejects non-finite coordinates).
#[inline]
pub fn cmp_neighbors(a: &Neighbor, b: &Neighbor) -> std::cmp::Ordering {
    a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id))
}

/// Sorts a neighbor list into the canonical order of [`cmp_neighbors`].
pub fn sort_neighbors(neighbors: &mut [Neighbor]) {
    neighbors.sort_unstable_by(cmp_neighbors);
}

/// Given a distance-sorted list, the end index of the tie-inclusive
/// `k`-distance neighborhood: all entries with `dist <= list[k-1].dist`.
///
/// Returns `list.len()` when the list holds fewer than `k` entries.
pub fn tie_inclusive_len(sorted: &[Neighbor], k: usize) -> usize {
    debug_assert!(k >= 1);
    if sorted.len() <= k {
        return sorted.len();
    }
    let kdist = sorted[k - 1].dist;
    // Entries are sorted, so scan forward from k until the distance grows.
    let mut end = k;
    while end < sorted.len() && sorted[end].dist <= kdist {
        end += 1;
    }
    end
}

/// Reduces an *unsorted* candidate list (one entry per other object) to the
/// tie-inclusive `k`-distance neighborhood, sorted canonically.
///
/// Runs in `O(n + m log m)` where `m` is the neighborhood size, using
/// `select_nth_unstable` to find the `k`-distance without sorting everything.
pub fn select_k_tie_inclusive(mut all: Vec<Neighbor>, k: usize) -> Vec<Neighbor> {
    select_k_tie_inclusive_in_place(&mut all, k);
    all
}

/// [`select_k_tie_inclusive`] on a borrowed buffer: truncates `all` to the
/// tie-inclusive `k`-distance neighborhood in canonical order without
/// giving up the buffer's storage. The zero-allocation query paths stage
/// candidates in a scratch buffer and reduce them with this.
pub fn select_k_tie_inclusive_in_place(all: &mut Vec<Neighbor>, k: usize) {
    debug_assert!(k >= 1);
    if all.len() > k {
        all.select_nth_unstable_by(k - 1, cmp_neighbors);
        // The element at k-1 is the k-th nearest in canonical order, so its
        // distance is the k-distance (definition 3). Keep every candidate at
        // that distance or closer (definition 4's tie inclusion).
        let kdist = all[k - 1].dist;
        all.retain(|n| n.dist <= kdist);
    }
    sort_neighbors(all);
}

/// A source of tie-inclusive k-nearest-neighbor and range queries over a
/// fixed dataset. Implemented by the brute-force scan and every spatial
/// index in `lof-index`.
pub trait KnnProvider {
    /// Number of objects in the underlying dataset.
    fn len(&self) -> usize;

    /// True when the underlying dataset is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The tie-inclusive `k`-distance neighborhood `N_k(id)` (definition 4):
    /// every object `q != id` with `d(id, q) <= k-distance(id)`, sorted by
    /// [`cmp_neighbors`]. The result has at least `k` entries whenever the
    /// dataset holds more than `k` objects.
    ///
    /// # Errors
    ///
    /// Implementations return [`crate::LofError::InvalidMinPts`] when
    /// `k == 0` or `k >= len()`, and [`crate::LofError::UnknownObject`] for
    /// out-of-range ids.
    ///
    /// The default runs [`KnnProvider::k_nearest_into`] on the calling
    /// thread's shared scratch ([`crate::with_thread_scratch`]).
    fn k_nearest(&self, id: usize, k: usize) -> Result<Vec<Neighbor>> {
        crate::knn::with_thread_scratch(|scratch| {
            let mut out = Vec::new();
            self.k_nearest_into(id, k, scratch, &mut out)?;
            Ok(out)
        })
    }

    /// [`KnnProvider::k_nearest`] without the per-query allocation:
    /// appends the neighborhood to `out` (canonically sorted) and returns
    /// the number of entries appended. Search state lives in `scratch`,
    /// which is reused across calls.
    ///
    /// # Errors
    ///
    /// Same as [`KnnProvider::k_nearest`].
    fn k_nearest_into(
        &self,
        id: usize,
        k: usize,
        scratch: &mut crate::knn::KnnScratch,
        out: &mut Vec<Neighbor>,
    ) -> Result<usize>;

    /// `k-distance(id)` (definition 3) of each of `ids`, appended to `out`
    /// in `ids` order: the distance of the last entry of
    /// [`KnnProvider::k_nearest_into`], bit for bit, without materializing
    /// the neighborhoods where the provider can avoid it.
    ///
    /// `radius` is the caller's promise that no asked k-distance exceeds
    /// it (`+∞` promises nothing); a provider may use it to answer the
    /// batch from one shared candidate gather. One id with `radius = +∞`
    /// is a plain per-id k-distance query.
    ///
    /// The default loops over the ids, runs `k_nearest_into` for each and
    /// reads its last entry, so it saves nothing over a full query: a
    /// caller that later reads the neighborhood through
    /// [`KnnProvider::within`] pays a second range pass. The spatial
    /// indexes in `lof-index` override it with their k-distance descent
    /// alone (no range pass, no sort), and the kd and ball trees answer a
    /// batch with a finite `radius` from one gather around the ids'
    /// bounding box.
    ///
    /// # Errors
    ///
    /// Same as [`KnnProvider::k_nearest`], for the first failing id; on
    /// error, partially appended output must be considered garbage.
    fn k_distances_into(
        &self,
        ids: &[usize],
        k: usize,
        radius: f64,
        scratch: &mut crate::knn::KnnScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        let _ = radius;
        let mut hood = Vec::new();
        for &id in ids {
            hood.clear();
            self.k_nearest_into(id, k, scratch, &mut hood)?;
            out.push(crate::kdistance::k_distance_of(&hood));
        }
        Ok(())
    }

    /// Materializes the neighborhoods of a contiguous id range in one
    /// call: appends each id's neighborhood to `out` (in id order) and
    /// pushes its length onto `lens`. This is the entry point the table
    /// builders use; batch-aware providers (the blocked kernel behind
    /// [`crate::scan::LinearScan`]) override it to amortize work across
    /// queries.
    ///
    /// # Errors
    ///
    /// Same as [`KnnProvider::k_nearest`]; on error, partially appended
    /// output must be considered garbage.
    fn batch_k_nearest(
        &self,
        ids: std::ops::Range<usize>,
        k: usize,
        scratch: &mut crate::knn::KnnScratch,
        out: &mut Vec<Neighbor>,
        lens: &mut Vec<usize>,
    ) -> Result<()> {
        for id in ids {
            let added = self.k_nearest_into(id, k, scratch, out)?;
            lens.push(added);
        }
        Ok(())
    }

    /// Step 1 of the paper's algorithm (section 7.4) for every object:
    /// the `k`-distance neighborhoods of ids `0..len()`, concatenated in
    /// id order, and their lengths, computed by `threads` workers (`0` is
    /// taken as 1). [`crate::build_table_parallel`] drives this; each
    /// provider kind has one step-1 driver, and its output is the same at
    /// any thread count.
    ///
    /// The default cuts the ids into `threads` contiguous chunks and gives
    /// each worker its whole chunk in one
    /// [`KnnProvider::batch_k_nearest`] call; with one thread the calling
    /// thread answers `0..len()` itself. Workers share nothing while they
    /// run, their outputs are joined in chunk order, and the first error
    /// in chunk order is the one reported. The kd and ball trees override
    /// it: their workers claim whole leaf groups instead, which a cut by
    /// id would split on shuffled ids.
    ///
    /// # Errors
    ///
    /// Same as [`KnnProvider::k_nearest`].
    fn materialize(&self, k: usize, threads: usize) -> Result<(Vec<Neighbor>, Vec<usize>)>
    where
        Self: Sync,
    {
        let n = self.len();
        let chunk = n.div_ceil(threads.clamp(1, n.max(1))).max(1);
        let run = |ids: std::ops::Range<usize>| -> Result<(Vec<Neighbor>, Vec<usize>)> {
            let mut scratch = crate::knn::KnnScratch::new();
            let mut out = Vec::with_capacity(ids.len() * k);
            let mut lens = Vec::with_capacity(ids.len());
            self.batch_k_nearest(ids, k, &mut scratch, &mut out, &mut lens)?;
            // Flush this worker's kernel counters before the scratch dies.
            scratch.stats.publish_and_reset();
            Ok((out, lens))
        };
        if chunk >= n {
            return run(0..n);
        }
        let parts = std::thread::scope(|s| {
            let workers: Vec<_> = (0..n)
                .step_by(chunk)
                .map(|start| s.spawn(move || run(start..(start + chunk).min(n))))
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("materialization worker panicked"))
                .collect::<Result<Vec<_>>>()
        })?;
        let total = parts.iter().map(|(out, _)| out.len()).sum();
        let mut neighbors = Vec::with_capacity(total);
        let mut lens = Vec::with_capacity(n);
        for (part_out, part_lens) in parts {
            neighbors.extend_from_slice(&part_out);
            lens.extend_from_slice(&part_lens);
        }
        Ok((neighbors, lens))
    }

    /// Every object `q != id` with `d(id, q) <= radius`, sorted by
    /// [`cmp_neighbors`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::LofError::UnknownObject`] for out-of-range ids.
    fn within(&self, id: usize, radius: f64) -> Result<Vec<Neighbor>>;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(id: usize, dist: f64) -> Neighbor {
        Neighbor::new(id, dist)
    }

    #[test]
    fn tie_inclusive_len_matches_paper_example() {
        // The example after definition 4: one object at distance 1, two at
        // distance 2, three at distance 3. Then 4-distance(p) = 3 and
        // |N_4(p)| = 6.
        let sorted = vec![n(0, 1.0), n(1, 2.0), n(2, 2.0), n(3, 3.0), n(4, 3.0), n(5, 3.0)];
        assert_eq!(tie_inclusive_len(&sorted, 4), 6);
        // 2-distance = 2 and |N_2| = 3 (the tie at distance 2).
        assert_eq!(tie_inclusive_len(&sorted, 2), 3);
        // 3-distance is also 2 (two objects at distance 2 fill ranks 2..=3).
        assert_eq!(tie_inclusive_len(&sorted, 3), 3);
        assert_eq!(tie_inclusive_len(&sorted, 1), 1);
        assert_eq!(tie_inclusive_len(&sorted, 6), 6);
        assert_eq!(tie_inclusive_len(&sorted, 10), 6);
    }

    #[test]
    fn sort_neighbors_breaks_ties_by_id() {
        let mut v = vec![n(3, 1.0), n(1, 1.0), n(2, 0.5)];
        sort_neighbors(&mut v);
        assert_eq!(v, vec![n(2, 0.5), n(1, 1.0), n(3, 1.0)]);
    }

    #[test]
    fn select_k_tie_inclusive_keeps_ties() {
        let all = vec![n(0, 3.0), n(1, 1.0), n(2, 2.0), n(3, 2.0), n(4, 2.0), n(5, 9.0)];
        let picked = select_k_tie_inclusive(all, 2);
        // 2-distance = 2.0, and all three objects at distance 2.0 are kept.
        assert_eq!(picked, vec![n(1, 1.0), n(2, 2.0), n(3, 2.0), n(4, 2.0)]);
    }

    #[test]
    fn select_k_tie_inclusive_small_lists_pass_through() {
        let all = vec![n(1, 5.0), n(0, 4.0)];
        assert_eq!(select_k_tie_inclusive(all, 3), vec![n(0, 4.0), n(1, 5.0)]);
    }

    #[test]
    fn cmp_is_total_on_finite_distances() {
        use std::cmp::Ordering;
        assert_eq!(cmp_neighbors(&n(0, 1.0), &n(0, 2.0)), Ordering::Less);
        assert_eq!(cmp_neighbors(&n(0, 1.0), &n(0, 1.0)), Ordering::Equal);
        assert_eq!(cmp_neighbors(&n(1, 1.0), &n(0, 1.0)), Ordering::Greater);
    }
}
