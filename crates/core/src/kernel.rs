//! Cache-blocked batch kernel for squared-Euclidean k-NN.
//!
//! Materializing the `MinPtsUB`-nearest neighborhoods (step 1 of the
//! paper's two-step algorithm, section 7.4) is the dominant cost of LOF,
//! and under the brute-force regime every query pays `O(n·d)` distance
//! work. This kernel restructures that work for the memory hierarchy and
//! the FPU without changing a single output bit:
//!
//! * **Norm precompute.** `‖a − b‖² = ‖a‖² + ‖b‖² − 2·a·b`, with `‖x‖²`
//!   computed once per point at construction. The inner loop then is a
//!   pure dot product — `d` multiply-adds per pair instead of
//!   subtract-multiply-add — and no `sqrt` anywhere.
//! * **Blocking.** Queries are processed in blocks and the data matrix is
//!   streamed tile by tile, so each data tile is loaded from memory once
//!   per query *block* rather than once per query.
//! * **Fused squared-space selection.** Candidate selection runs on the
//!   squared surrogate keys *inside* the streaming loop — each query's
//!   [`Capture`] takes a tile row as it is computed, branch-free, so no
//!   `n`-sized distance row is ever written back. Only the few
//!   candidates that survive a conservative cutoff are refined with the
//!   exact scalar distance (and, for [`Euclidean`](crate::distance::Euclidean), a
//!   single `sqrt` each).
//!
//! ## Exactness
//!
//! The norm-precompute form cancels catastrophically when two points are
//! much closer together than they are to the origin: its rounding error
//! is *absolute* — on the order of `eps · max‖x‖²` — not relative to the
//! (possibly tiny) distance. The kernel therefore never trusts the
//! surrogate values. It computes a conservative per-dataset error bound
//! [`BlockKernel::slack`], widens the k-th surrogate key by twice that
//! bound, and re-derives the **exact** distance of every candidate
//! inside the widened cutoff with the same scalar
//! [`squared_euclidean`] (and the same subsequent `sqrt` for Euclidean)
//! the plain scan uses. The final tie-inclusive selection
//! ([`select_k_tie_inclusive_in_place`]) runs on those exact distances,
//! so results are bit-identical to the unblocked path — including
//! definition 4's ties and duplicate points. Property tests in
//! `crates/index/tests/batch_consistency.rs` enforce this.

use crate::distance::{squared_euclidean, BlockedForm, Metric};
use crate::knn::{Capture, KnnScratch};
use crate::neighbors::{select_k_tie_inclusive_in_place, Neighbor};
use crate::point::Dataset;
use crate::simd::{self, Isa};
use std::ops::Range;

/// Upper bound on the bytes of surrogate-distance rows a query block may
/// hold (`query_block × n × 8` bytes).
const ROWS_BUDGET_BYTES: usize = 4 << 20;
/// Hard cap on the query block size; beyond this the row buffer stops
/// paying for itself.
const MAX_QUERY_BLOCK: usize = 16;
/// Data-tile budget in bytes: one tile of points should sit comfortably
/// in L1 while a whole query block runs over it.
const TILE_BUDGET_BYTES: usize = 16 << 10;

/// Precomputed per-dataset state for the blocked kernel: squared norms
/// and the surrogate-error slack. Built once per provider (see
/// [`crate::scan::LinearScan`]) for metrics whose
/// [`Metric::blocked_form`] is not [`BlockedForm::Generic`].
#[derive(Debug, Clone)]
pub struct BlockKernel {
    form: BlockedForm,
    /// `norms[i] = ‖x_i‖²`, forward-summed.
    norms: Vec<f64>,
    /// Conservative bound on `|surrogate − exact|` for any pair; see
    /// [`BlockKernel::slack`].
    slack: f64,
    /// The dispatched microkernel every surrogate goes through.
    isa: Isa,
}

impl BlockKernel {
    /// Builds kernel state for `data` under `metric`, or `None` when the
    /// metric declares no squared-Euclidean form. Surrogates run on the
    /// process-wide dispatched microkernel ([`simd::active`]).
    pub fn for_metric<M: Metric + ?Sized>(data: &Dataset, metric: &M) -> Option<Self> {
        Self::for_metric_with_isa(data, metric, simd::active())
    }

    /// [`BlockKernel::for_metric`] pinned to a specific dispatch target —
    /// the differential-testing and benchmarking entry point. An `isa`
    /// this machine cannot run falls back to the scalar kernel.
    pub fn for_metric_with_isa<M: Metric + ?Sized>(
        data: &Dataset,
        metric: &M,
        isa: Isa,
    ) -> Option<Self> {
        let form = metric.blocked_form();
        if form == BlockedForm::Generic {
            return None;
        }
        let d = data.dims();
        let coords = data.as_flat();
        let mut norms = Vec::with_capacity(data.len());
        let mut max_norm = 0.0f64;
        for i in 0..data.len() {
            let x = &coords[i * d..(i + 1) * d];
            let mut acc = 0.0;
            for &v in x {
                acc += v * v;
            }
            max_norm = max_norm.max(acc);
            norms.push(acc);
        }
        // `|surrogate − exact|` bound valid for every dispatch target,
        // including the reassociated SIMD lane sums — derivation on
        // [`simd::surrogate_slack`].
        let slack = simd::surrogate_slack(d, max_norm);
        Some(BlockKernel { form, norms, slack, isa })
    }

    /// The surrogate-error bound used to widen selection cutoffs.
    pub fn slack(&self) -> f64 {
        self.slack
    }

    /// The microkernel this kernel dispatches surrogates to.
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// How many queries one block processes for a dataset of `n` points.
    fn query_block(n: usize) -> usize {
        (ROWS_BUDGET_BYTES / (8 * n.max(1))).clamp(1, MAX_QUERY_BLOCK)
    }

    /// Points per data tile for dimensionality `d`.
    fn tile_points(d: usize) -> usize {
        (TILE_BUDGET_BYTES / (8 * d.max(1))).max(8)
    }

    /// The kernel's blocking geometry for a dataset of `n` points in `d`
    /// dimensions: `(queries per block, points per data tile)`. Exposed
    /// so the kernel-counter ground-truth tests can derive expected tile
    /// and pair counts from first principles instead of copying the
    /// budget constants.
    pub fn geometry(n: usize, d: usize) -> (usize, usize) {
        (Self::query_block(n), Self::tile_points(d))
    }

    /// Streams every data tile past the query block once, computing the
    /// norm-form surrogate `‖x_q‖² + ‖x_j‖² − 2·q·x_j` per pair and
    /// capturing candidates directly — the full distance row is never
    /// materialized. The surrogate panel (all block queries × one tile)
    /// is computed by the dispatched SIMD microkernel
    /// ([`simd::surrogate_panel`]): register-tiled FMA on AVX2/NEON, the
    /// monomorphized four-accumulator loop on the scalar fallback.
    ///
    /// Any dispatch target reassociates the dot product relative to the
    /// exact scalar sum, but [`BlockKernel::slack`] bounds the error of
    /// *any* summation order up to [`simd::MAX_LANES`] partial chains,
    /// and the exact-refine phase makes final results independent of it.
    ///
    /// Each query's row of the panel goes whole into its [`Capture`]
    /// (`scratch.captures[qi]`), whose accept bound is the running k-th
    /// surrogate widened by `2·slack`: it never drops below the final
    /// widened cutoff, so every pair inside that cutoff is captured (a
    /// superset — [`BlockKernel::finalize_query`] filters by the exact
    /// final cutoff). No heap, no branch per pair, no per-query
    /// allocation once the buffers are warm.
    fn stream_block(&self, data: &Dataset, ids: Range<usize>, k: usize, scratch: &mut KnnScratch) {
        let n = data.len();
        let d = data.dims();
        let coords = data.as_flat();
        let qb = ids.len();
        debug_assert!(qb <= MAX_QUERY_BLOCK, "caller blocks queries");
        // Disjoint field borrows: the panel staging buffer is written by
        // the microkernel and read by the captures.
        let KnnScratch { captures, tile_sq, stats, .. } = scratch;
        let captures = Capture::reset_first(captures, qb, k, 2.0 * self.slack);
        let norms = &self.norms[..n];
        // The block's query rows are contiguous, so the microkernel can
        // register-tile across queries as well as points.
        let q_rows = &coords[ids.start * d..ids.end * d];
        let q_norms = &norms[ids.start..ids.end];
        let tile = Self::tile_points(d);
        let mut tile_start = 0;
        while tile_start < n {
            let tile_end = (tile_start + tile).min(n);
            let tile_len = tile_end - tile_start;
            if tile_sq.len() < qb * tile_len {
                tile_sq.resize(qb * tile_len, 0.0);
            }
            stats.bump_tiles(1);

            // Pure compute: one surrogate panel — every query in the
            // block × one L1-resident data tile — through the dispatched
            // microkernel. No branches, no writeback beyond qb tile rows.
            let panel = &mut tile_sq[..qb * tile_len];
            simd::surrogate_panel(
                self.isa,
                q_rows,
                q_norms,
                &coords[tile_start * d..tile_end * d],
                &norms[tile_start..tile_end],
                d,
                panel,
            );
            let (panels, rem_lanes) = simd::panel_counts(self.isa, qb, tile_len, d);
            stats.bump_simd_panels(panels);
            stats.bump_simd_remainder_lanes(rem_lanes);

            for ((row, qid), capture) in
                panel.chunks_exact(tile_len).zip(ids.clone()).zip(&mut *captures)
            {
                capture.offer(row, tile_start..tile_end, qid, stats);
            }
            tile_start = tile_end;
        }
    }

    /// Selects the tie-inclusive `k`-neighborhood of `qid` from the
    /// candidates [`BlockKernel::stream_block`] captured in
    /// `scratch.captures[qi]`, refining every candidate inside the
    /// widened cutoff with the exact scalar distance. Appends to `out`,
    /// returns the neighborhood size.
    fn finalize_query(
        &self,
        data: &Dataset,
        qid: usize,
        qi: usize,
        k: usize,
        scratch: &mut KnnScratch,
        out: &mut Vec<Neighbor>,
    ) -> usize {
        let d = data.dims();
        let coords = data.as_flat();
        // Disjoint field borrows: candidates are read while the
        // exact-refine staging buffer is written.
        let KnnScratch { neighbors, captures, stats, .. } = scratch;
        let capture = &mut captures[qi];

        // The k-th smallest surrogate key over the whole dataset: the
        // accept bound never dropped below `kth + 2·slack`, so the k
        // smallest surrogates are all captured. Every true neighbor's
        // surrogate lies within the widened cutoff (see module docs) and
        // therefore among the captured candidates; refine those exactly.
        let cutoff = capture.kth() + 2.0 * self.slack;
        let q = &coords[qid * d..(qid + 1) * d];
        neighbors.clear();
        for &(sq, j) in capture.captured() {
            if sq <= cutoff {
                let exact_sq = squared_euclidean(q, &coords[j * d..(j + 1) * d]);
                let dist = match self.form {
                    BlockedForm::Euclidean => exact_sq.sqrt(),
                    BlockedForm::SquaredEuclidean => exact_sq,
                    BlockedForm::Generic => unreachable!("kernel never built for Generic"),
                };
                neighbors.push(Neighbor::new(j, dist));
            }
        }

        stats.bump_refined(neighbors.len() as u64);

        // Exact tie-inclusive selection on exact distances — the same
        // reduction the plain scan applies to its full candidate list,
        // and the superset property makes it agree.
        select_k_tie_inclusive_in_place(neighbors, k);
        out.extend_from_slice(neighbors);
        neighbors.len()
    }

    /// Zero-allocation single-query path (callers validate `id`/`k`).
    /// Appends the neighborhood to `out`, returns its length.
    pub fn k_nearest_into(
        &self,
        data: &Dataset,
        id: usize,
        k: usize,
        scratch: &mut KnnScratch,
        out: &mut Vec<Neighbor>,
    ) -> usize {
        self.stream_block(data, id..id + 1, k, scratch);
        self.finalize_query(data, id, 0, k, scratch, out)
    }

    /// Blocked batch path (callers validate ids/`k`): materializes the
    /// neighborhoods of `ids` in id order, appending each list to `out`
    /// and its length to `lens`.
    pub fn batch_k_nearest(
        &self,
        data: &Dataset,
        ids: Range<usize>,
        k: usize,
        scratch: &mut KnnScratch,
        out: &mut Vec<Neighbor>,
        lens: &mut Vec<usize>,
    ) {
        let qb = Self::query_block(data.len());
        let mut block_start = ids.start;
        while block_start < ids.end {
            let block_end = (block_start + qb).min(ids.end);
            self.stream_block(data, block_start..block_end, k, scratch);
            for (qi, qid) in (block_start..block_end).enumerate() {
                let len = self.finalize_query(data, qid, qi, k, scratch, out);
                lens.push(len);
            }
            block_start = block_end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{Euclidean, SquaredEuclidean};

    fn sample_dataset() -> Dataset {
        // Clusters at two scales plus duplicates and an isolate, 3-d.
        let mut rows: Vec<[f64; 3]> = Vec::new();
        for i in 0..40 {
            let t = i as f64;
            rows.push([t * 0.25, (t * 7.0) % 5.0, -t * 0.5]);
        }
        for i in 0..10 {
            let t = i as f64;
            rows.push([1000.0 + t * 0.001, 1000.0, 1000.0 - t * 0.002]);
        }
        rows.push([5.0, 2.0, -10.0]);
        rows.push([5.0, 2.0, -10.0]); // exact duplicate pair
        Dataset::from_rows(&rows).unwrap()
    }

    /// Reference: the unblocked scalar path.
    fn naive(data: &Dataset, id: usize, k: usize, squared: bool) -> Vec<Neighbor> {
        let mut all = Vec::new();
        for (j, p) in data.iter() {
            if j != id {
                let sq = squared_euclidean(data.point(id), p);
                all.push(Neighbor::new(j, if squared { sq } else { sq.sqrt() }));
            }
        }
        crate::neighbors::select_k_tie_inclusive(all, k)
    }

    #[test]
    fn kernel_matches_naive_bit_for_bit() {
        let ds = sample_dataset();
        let kernel = BlockKernel::for_metric(&ds, &Euclidean).unwrap();
        let mut scratch = KnnScratch::new();
        for id in 0..ds.len() {
            for k in [1, 3, 7, ds.len() - 1] {
                let mut got = Vec::new();
                let len = kernel.k_nearest_into(&ds, id, k, &mut scratch, &mut got);
                assert_eq!(len, got.len());
                assert_eq!(got, naive(&ds, id, k, false), "id={id} k={k}");
            }
        }
    }

    #[test]
    fn kernel_batch_matches_naive_for_squared_metric() {
        let ds = sample_dataset();
        let kernel = BlockKernel::for_metric(&ds, &SquaredEuclidean).unwrap();
        let mut scratch = KnnScratch::new();
        let (mut out, mut lens) = (Vec::new(), Vec::new());
        kernel.batch_k_nearest(&ds, 0..ds.len(), 5, &mut scratch, &mut out, &mut lens);
        assert_eq!(lens.len(), ds.len());
        let mut cursor = 0;
        for (id, &len) in lens.iter().enumerate() {
            assert_eq!(&out[cursor..cursor + len], naive(&ds, id, 5, true).as_slice(), "id={id}");
            cursor += len;
        }
        assert_eq!(cursor, out.len());
    }

    #[test]
    fn generic_metrics_get_no_kernel() {
        let ds = sample_dataset();
        assert!(BlockKernel::for_metric(&ds, &crate::distance::Manhattan).is_none());
    }

    #[test]
    fn far_origin_offsets_do_not_corrupt_results() {
        // The cancellation stress case: tiny distances, huge norms.
        let base = 1.0e8;
        let mut rows: Vec<[f64; 2]> =
            (0..30).map(|i| [base + (i as f64) * 1.0e-3, base - (i as f64) * 2.0e-3]).collect();
        rows.push([base + 500.0, base]); // outlier
        let ds = Dataset::from_rows(&rows).unwrap();
        let kernel = BlockKernel::for_metric(&ds, &Euclidean).unwrap();
        let mut scratch = KnnScratch::new();
        for id in 0..ds.len() {
            let mut got = Vec::new();
            kernel.k_nearest_into(&ds, id, 4, &mut scratch, &mut got);
            assert_eq!(got, naive(&ds, id, 4, false), "id={id}");
        }
    }
}
