//! Brute-force sequential scan k-NN provider.
//!
//! This is the "sequential scan" regime of the paper's section 7.4 — `O(n)`
//! per query, `O(n²)` for the full materialization step — and it doubles as
//! the correctness oracle every spatial index in `lof-index` is tested
//! against.
//!
//! For metrics with a squared-Euclidean form the scan routes through the
//! cache-blocked batch kernel in [`crate::kernel`] (bit-identical
//! results, see the module docs there); other metrics take a scalar path
//! that stages candidates in reusable scratch buffers. Neither path
//! allocates per query once its scratch is warm.

use crate::distance::Metric;
use crate::error::{LofError, Result};
use crate::kernel::BlockKernel;
use crate::knn::{Capture, KnnScratch};
use crate::neighbors::{select_k_tie_inclusive_in_place, sort_neighbors, KnnProvider, Neighbor};
use crate::point::Dataset;

/// Brute-force k-NN over a borrowed dataset.
#[derive(Debug)]
pub struct LinearScan<'a, M: Metric> {
    data: &'a Dataset,
    metric: M,
    /// Blocked-kernel state; `None` for metrics without a
    /// squared-Euclidean form.
    kernel: Option<BlockKernel>,
}

impl<'a, M: Metric> LinearScan<'a, M> {
    /// Creates a scan provider over `data` using `metric`.
    pub fn new(data: &'a Dataset, metric: M) -> Self {
        let kernel = BlockKernel::for_metric(data, &metric);
        LinearScan { data, metric, kernel }
    }

    /// [`LinearScan::new`] with the blocked kernel pinned to a specific
    /// dispatch target (differential testing and benchmarks; see
    /// [`BlockKernel::for_metric_with_isa`]).
    pub fn with_isa(data: &'a Dataset, metric: M, isa: crate::simd::Isa) -> Self {
        let kernel = BlockKernel::for_metric_with_isa(data, &metric, isa);
        LinearScan { data, metric, kernel }
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &Dataset {
        self.data
    }

    /// The metric in use.
    pub fn metric(&self) -> &M {
        &self.metric
    }

    fn validate(&self, id: usize, k: usize) -> Result<()> {
        self.data.check_id(id)?;
        if k == 0 || k >= self.data.len() {
            return Err(LofError::InvalidMinPts { min_pts: k, dataset_size: self.data.len() });
        }
        Ok(())
    }

    /// Scalar fallback for metrics without a blocked form: stages every
    /// candidate in the scratch, reduces in place. No allocation once
    /// the scratch has grown to `n` entries.
    fn k_nearest_scalar(
        &self,
        id: usize,
        k: usize,
        scratch: &mut KnnScratch,
        out: &mut Vec<Neighbor>,
    ) -> usize {
        let q = self.data.point(id);
        scratch.neighbors.clear();
        for (j, p) in self.data.iter() {
            if j != id {
                scratch.neighbors.push(Neighbor::new(j, self.metric.distance(q, p)));
            }
        }
        select_k_tie_inclusive_in_place(&mut scratch.neighbors, k);
        out.extend_from_slice(&scratch.neighbors);
        scratch.neighbors.len()
    }

    /// Blocked batch path for metrics without a squared-Euclidean form:
    /// the same query-block × data-tile iteration order as
    /// [`BlockKernel`] (one geometry, one tuning surface), with the
    /// metric evaluated directly instead of through surrogates. Each data
    /// tile is pulled through the cache once per query *block* rather
    /// than once per query, and each query's distances to it go whole
    /// into the query's [`Capture`]. Results are bit-identical to
    /// [`LinearScan::k_nearest_scalar`]: the capture holds every
    /// candidate within the k-distance, and the same distances reduce to
    /// the same canonically sorted neighborhood.
    fn batch_k_nearest_generic(
        &self,
        ids: std::ops::Range<usize>,
        k: usize,
        scratch: &mut KnnScratch,
        out: &mut Vec<Neighbor>,
        lens: &mut Vec<usize>,
    ) {
        let n = self.data.len();
        let (qb, tile) = BlockKernel::geometry(n, self.data.dims());
        let mut block_start = ids.start;
        while block_start < ids.end {
            let block_end = (block_start + qb).min(ids.end);
            let KnnScratch { captures, tile_sq, stats, .. } = scratch;
            let captures = Capture::reset_first(captures, block_end - block_start, k, 0.0);
            let mut tile_start = 0;
            while tile_start < n {
                let tile_end = (tile_start + tile).min(n);
                for (qid, capture) in (block_start..block_end).zip(captures.iter_mut()) {
                    let q = self.data.point(qid);
                    tile_sq.clear();
                    tile_sq.extend(
                        (tile_start..tile_end).map(|j| self.metric.distance(q, self.data.point(j))),
                    );
                    capture.offer(tile_sq, tile_start..tile_end, qid, stats);
                }
                tile_start = tile_end;
            }
            for capture in captures {
                lens.push(capture.neighborhood_into(false, out));
            }
            block_start = block_end;
        }
    }
}

impl<M: Metric> crate::topn::PartitionMetric for LinearScan<'_, M> {
    fn partition_metric(&self) -> &dyn Metric {
        &self.metric
    }
}

impl<M: Metric> KnnProvider for LinearScan<'_, M> {
    fn len(&self) -> usize {
        self.data.len()
    }

    fn k_nearest_into(
        &self,
        id: usize,
        k: usize,
        scratch: &mut KnnScratch,
        out: &mut Vec<Neighbor>,
    ) -> Result<usize> {
        self.validate(id, k)?;
        Ok(match &self.kernel {
            Some(kernel) => kernel.k_nearest_into(self.data, id, k, scratch, out),
            None => self.k_nearest_scalar(id, k, scratch, out),
        })
    }

    fn batch_k_nearest(
        &self,
        ids: std::ops::Range<usize>,
        k: usize,
        scratch: &mut KnnScratch,
        out: &mut Vec<Neighbor>,
        lens: &mut Vec<usize>,
    ) -> Result<()> {
        if let Some(last) = ids.clone().last() {
            self.validate(last, k)?;
        }
        match &self.kernel {
            Some(kernel) => kernel.batch_k_nearest(self.data, ids, k, scratch, out, lens),
            None => self.batch_k_nearest_generic(ids, k, scratch, out, lens),
        }
        Ok(())
    }

    fn within(&self, id: usize, radius: f64) -> Result<Vec<Neighbor>> {
        self.data.check_id(id)?;
        let q = self.data.point(id);
        let mut hits = Vec::new();
        for (j, p) in self.data.iter() {
            if j == id {
                continue;
            }
            let d = self.metric.distance(q, p);
            if d <= radius {
                hits.push(Neighbor::new(j, d));
            }
        }
        sort_neighbors(&mut hits);
        Ok(hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::Euclidean;

    fn line_dataset() -> Dataset {
        // Points on a line at x = 0, 1, 2, 4, 8.
        Dataset::from_rows(&[[0.0], [1.0], [2.0], [4.0], [8.0]]).unwrap()
    }

    #[test]
    fn k_nearest_excludes_self_and_sorts() {
        let ds = line_dataset();
        let scan = LinearScan::new(&ds, Euclidean);
        let nn = scan.k_nearest(2, 2).unwrap();
        // From x = 2: neighbors at 1 (d=1), 0 or 4 (d=2, tie!) — tie-inclusive
        // keeps both.
        assert_eq!(nn.len(), 3);
        assert_eq!(nn[0].id, 1);
        assert_eq!(nn[1].id, 0);
        assert_eq!(nn[2].id, 3);
        assert_eq!(nn[1].dist, 2.0);
        assert_eq!(nn[2].dist, 2.0);
    }

    #[test]
    fn k_nearest_rejects_bad_parameters() {
        let ds = line_dataset();
        let scan = LinearScan::new(&ds, Euclidean);
        assert!(matches!(scan.k_nearest(0, 0), Err(LofError::InvalidMinPts { .. })));
        assert!(matches!(scan.k_nearest(0, 5), Err(LofError::InvalidMinPts { .. })));
        assert!(matches!(scan.k_nearest(9, 1), Err(LofError::UnknownObject { .. })));
    }

    #[test]
    fn within_returns_radius_ball() {
        let ds = line_dataset();
        let scan = LinearScan::new(&ds, Euclidean);
        let hits = scan.within(0, 2.0).unwrap();
        assert_eq!(hits.iter().map(|n| n.id).collect::<Vec<_>>(), vec![1, 2]);
        assert!(scan.within(0, 0.5).unwrap().is_empty());
        // Radius is inclusive.
        let hits = scan.within(0, 1.0).unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn neighborhood_has_at_least_k_entries() {
        let ds = line_dataset();
        let scan = LinearScan::new(&ds, Euclidean);
        for id in 0..ds.len() {
            for k in 1..ds.len() {
                assert!(scan.k_nearest(id, k).unwrap().len() >= k);
            }
        }
    }

    #[test]
    fn into_and_batch_agree_with_k_nearest() {
        use crate::distance::Manhattan;
        use crate::knn::KnnScratch;
        let ds = Dataset::from_rows(&[
            [0.0, 1.0],
            [1.0, 0.5],
            [2.0, -1.0],
            [2.0, -1.0], // duplicate
            [4.0, 4.0],
            [8.0, 0.0],
        ])
        .unwrap();
        // Euclidean exercises the blocked kernel, Manhattan the scalar path.
        fn check<M: crate::distance::Metric>(ds: &Dataset, metric: M) {
            let scan = LinearScan::new(ds, metric);
            let mut scratch = KnnScratch::new();
            for k in 1..ds.len() {
                let (mut flat, mut lens) = (Vec::new(), Vec::new());
                scan.batch_k_nearest(0..ds.len(), k, &mut scratch, &mut flat, &mut lens).unwrap();
                let mut cursor = 0;
                for id in 0..ds.len() {
                    let reference = scan.k_nearest(id, k).unwrap();
                    let mut into = Vec::new();
                    let added = scan.k_nearest_into(id, k, &mut scratch, &mut into).unwrap();
                    assert_eq!(added, reference.len());
                    assert_eq!(into, reference);
                    assert_eq!(&flat[cursor..cursor + lens[id]], reference.as_slice());
                    cursor += lens[id];
                }
                assert_eq!(cursor, flat.len());
            }
        }
        check(&ds, Euclidean);
        check(&ds, Manhattan);
    }

    #[test]
    fn batch_propagates_validation_errors() {
        use crate::knn::KnnScratch;
        let ds = line_dataset();
        let scan = LinearScan::new(&ds, Euclidean);
        let mut scratch = KnnScratch::new();
        let (mut flat, mut lens) = (Vec::new(), Vec::new());
        assert!(scan
            .batch_k_nearest(0..ds.len(), ds.len(), &mut scratch, &mut flat, &mut lens)
            .is_err());
        assert!(scan
            .batch_k_nearest(0..ds.len() + 2, 1, &mut scratch, &mut flat, &mut lens)
            .is_err());
    }
}
