//! Uniform grid index — the paper's low-dimensional regime: "for
//! low-dimensional data, we can use a grid based approach which can answer
//! k-nn queries in constant time".
//!
//! The bounding box is partitioned into equal cells sized so that the
//! average occupancy is a small constant. Queries expand outward in
//! Chebyshev "shells" of cells around the query's cell and stop as soon as
//! the nearest possible point of the next shell cannot beat the current
//! pruning bound. Per-cell `min_dist_to_rect` pruning handles anisotropy.
//!
//! Above a handful of dimensions the cell count per dimension collapses to 1
//! and the grid degenerates into a (correct) sequential scan — the expected
//! behavior; use the kd-tree/X-tree there instead.

use crate::common::impl_knn_provider;
use lof_core::{Dataset, KnnScratch, Metric, Neighbor};

/// Target mean number of points per (non-empty) cell.
const TARGET_OCCUPANCY: f64 = 4.0;
/// Hard cap on total cells, to bound memory.
const MAX_TOTAL_CELLS: usize = 1 << 20;

/// A uniform grid over a borrowed dataset.
///
/// ```
/// use lof_core::{Dataset, Euclidean, KnnProvider};
/// use lof_index::GridIndex;
///
/// let rows: Vec<[f64; 2]> = (0..100).map(|i| [(i % 10) as f64, (i / 10) as f64]).collect();
/// let data = Dataset::from_rows(&rows).unwrap();
/// let grid = GridIndex::new(&data, Euclidean);
/// assert_eq!(grid.within(0, 1.0).unwrap().len(), 2);
/// ```
#[derive(Debug)]
pub struct GridIndex<'a, M: Metric> {
    data: &'a Dataset,
    metric: M,
    lo: Vec<f64>,
    /// Cell edge length per dimension (strictly positive).
    cell_width: Vec<f64>,
    /// Cells per dimension (>= 1).
    cells_per_dim: Vec<usize>,
    /// Flat row-major buckets of point ids.
    buckets: Vec<Vec<usize>>,
}

impl<'a, M: Metric> GridIndex<'a, M> {
    /// Builds the grid in `O(n)`.
    pub fn new(data: &'a Dataset, metric: M) -> Self {
        let dims = data.dims().max(1);
        let (lo, hi) = data.bounding_box().unwrap_or_else(|| (vec![0.0; dims], vec![1.0; dims]));

        // Pick cells-per-dim so that total cells ≈ n / occupancy, evenly
        // split across dimensions, capped for memory.
        let n = data.len().max(1);
        let want_total = (n as f64 / TARGET_OCCUPANCY).max(1.0);
        let per_dim = want_total.powf(1.0 / dims as f64).floor().max(1.0) as usize;
        let mut cells_per_dim = vec![per_dim; dims];
        while cells_per_dim.iter().product::<usize>() > MAX_TOTAL_CELLS {
            for c in &mut cells_per_dim {
                *c = (*c / 2).max(1);
            }
        }

        let mut cell_width = Vec::with_capacity(dims);
        for d in 0..dims {
            let extent = hi[d] - lo[d];
            // Degenerate extents (all points share the coordinate) get unit
            // cells; every point then lands in cell 0 of that dimension.
            cell_width.push(if extent > 0.0 { extent / cells_per_dim[d] as f64 } else { 1.0 });
        }

        let total: usize = cells_per_dim.iter().product();
        let mut buckets = vec![Vec::new(); total];
        let me = GridIndex { data, metric, lo, cell_width, cells_per_dim, buckets: Vec::new() };
        let mut cell = Vec::new();
        for (id, p) in data.iter() {
            me.cell_of_into(p, &mut cell);
            buckets[me.flatten(&cell)].push(id);
        }
        GridIndex { buckets, ..me }
    }

    /// Number of indexed objects.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// Total number of grid cells (for diagnostics and tests).
    pub fn cell_count(&self) -> usize {
        self.buckets.len()
    }

    /// Writes the grid cell coordinates containing point `p` into `out`.
    fn cell_of_into(&self, p: &[f64], out: &mut Vec<usize>) {
        out.clear();
        out.extend((0..p.len()).map(|d| {
            let raw = ((p[d] - self.lo[d]) / self.cell_width[d]).floor() as isize;
            raw.clamp(0, self.cells_per_dim[d] as isize - 1) as usize
        }));
    }

    fn flatten(&self, cell: &[usize]) -> usize {
        cell.iter().zip(&self.cells_per_dim).fold(0, |idx, (&c, &per_dim)| idx * per_dim + c)
    }

    /// Lower bound on the distance from `q` to any cell of the rectangle
    /// `[cell_lo_idx, cell_hi_idx]`'s *exterior* ring at Chebyshev cell
    /// radius `shell`; used to terminate shell expansion. The region covered
    /// by shells `0..shell` is the box extending `shell - 1` cells around
    /// `q`'s cell; any point beyond it lies in a half-space past one of
    /// that box's faces, and the bound is the metric's rectangle bound to
    /// the nearest such half-space. Going through the metric keeps it
    /// valid where a face gap is not a distance bound (squared Euclidean
    /// below unit gaps, metrics with no rectangle bound). `lo`/`hi` stage
    /// the half-spaces.
    fn shell_min_dist(
        &self,
        q: &[f64],
        center: &[usize],
        shell: usize,
        lo: &mut Vec<f64>,
        hi: &mut Vec<f64>,
    ) -> f64 {
        if shell == 0 {
            return 0.0;
        }
        let inner = shell - 1;
        lo.clear();
        lo.resize(q.len(), f64::NEG_INFINITY);
        hi.clear();
        hi.resize(q.len(), f64::INFINITY);
        let mut min_gap = f64::INFINITY;
        for d in 0..q.len() {
            let lo_cell = center[d].saturating_sub(inner);
            let hi_cell = (center[d] + inner).min(self.cells_per_dim[d] - 1);
            // If the inner box already spans this whole dimension, leaving
            // through it is impossible; it imposes no exit gap.
            let spans_dim = lo_cell == 0 && hi_cell == self.cells_per_dim[d] - 1;
            if spans_dim {
                continue;
            }
            hi[d] = self.lo[d] + lo_cell as f64 * self.cell_width[d];
            min_gap = min_gap.min(self.metric.min_dist_to_rect(q, lo, hi));
            hi[d] = f64::INFINITY;
            lo[d] = self.lo[d] + (hi_cell + 1) as f64 * self.cell_width[d];
            min_gap = min_gap.min(self.metric.min_dist_to_rect(q, lo, hi));
            lo[d] = f64::NEG_INFINITY;
        }
        // Infinite when the inner box covers the entire grid: there is no
        // next shell.
        min_gap
    }

    /// Visits every cell whose Chebyshev distance (in cell units) from
    /// `center` is exactly `shell`, calling `f(bucket_index, cell_coords)`.
    /// `walk` is a reusable coordinate buffer for the enumeration.
    fn for_each_shell_cell(
        &self,
        center: &[usize],
        shell: usize,
        walk: &mut Vec<usize>,
        f: &mut impl FnMut(usize, &[usize]),
    ) {
        walk.clear();
        walk.resize(center.len(), 0);
        self.shell_rec(center, shell, 0, false, walk, f);
    }

    #[allow(clippy::too_many_arguments)]
    fn shell_rec(
        &self,
        center: &[usize],
        shell: usize,
        dim: usize,
        pinned: bool,
        cell: &mut Vec<usize>,
        f: &mut impl FnMut(usize, &[usize]),
    ) {
        let dims = center.len();
        if dim == dims {
            if pinned || shell == 0 {
                f(self.flatten(cell), cell);
            }
            return;
        }
        let c = center[dim] as isize;
        let s = shell as isize;
        let max = self.cells_per_dim[dim] as isize - 1;
        let lo = (c - s).max(0);
        let hi = (c + s).min(max);
        for v in lo..=hi {
            let offset = (v - c).unsigned_abs();
            // Cells strictly inside the shell in this dim are only valid if
            // some other dim pins the Chebyshev distance to `shell`.
            cell[dim] = v as usize;
            let now_pinned = pinned || offset == shell;
            // Prune: if no remaining dim can reach offset == shell and we
            // are not pinned yet, only continue when a later dim could pin.
            self.shell_rec(center, shell, dim + 1, now_pinned, cell, f);
        }
    }

    /// Writes the rectangle of `cell` into the `lo`/`hi` buffers.
    fn cell_rect_into(&self, cell: &[usize], lo: &mut Vec<f64>, hi: &mut Vec<f64>) {
        lo.clear();
        hi.clear();
        for (d, &c) in cell.iter().enumerate() {
            lo.push(self.lo[d] + c as f64 * self.cell_width[d]);
            hi.push(self.lo[d] + (c + 1) as f64 * self.cell_width[d]);
        }
    }

    fn max_shell(&self) -> usize {
        self.cells_per_dim.iter().max().copied().unwrap_or(1)
    }

    fn search_k_distance(
        &self,
        q: &[f64],
        k: usize,
        exclude: Option<usize>,
        scratch: &mut KnnScratch,
    ) -> f64 {
        // Disjoint field borrows: `cell` holds the query's cell, `cell2`
        // walks the shells, `lo`/`hi` stage each visited cell's rectangle.
        let KnnScratch { heap: best, cell: center, cell2: walk, lo, hi, .. } = scratch;
        self.cell_of_into(q, center);
        best.reset(k);
        for shell in 0..=self.max_shell() {
            if self.shell_min_dist(q, center, shell, lo, hi) > best.bound() {
                break;
            }
            self.for_each_shell_cell(center, shell, walk, &mut |bucket, cell| {
                self.cell_rect_into(cell, lo, hi);
                if self.metric.min_dist_to_rect(q, lo, hi) > best.bound() {
                    return;
                }
                for &id in &self.buckets[bucket] {
                    if Some(id) != exclude {
                        best.offer(id, self.metric.distance(q, self.data.point(id)));
                    }
                }
            });
        }
        best.kth_dist().expect("validated: at least k candidates exist")
    }

    fn search_within_into(
        &self,
        q: &[f64],
        radius: f64,
        exclude: Option<usize>,
        scratch: &mut KnnScratch,
        out: &mut Vec<Neighbor>,
    ) {
        let KnnScratch { cell: center, cell2: walk, lo, hi, .. } = scratch;
        self.cell_of_into(q, center);
        for shell in 0..=self.max_shell() {
            if self.shell_min_dist(q, center, shell, lo, hi) > radius {
                break;
            }
            self.for_each_shell_cell(center, shell, walk, &mut |bucket, cell| {
                self.cell_rect_into(cell, lo, hi);
                if self.metric.min_dist_to_rect(q, lo, hi) > radius {
                    return;
                }
                for &id in &self.buckets[bucket] {
                    if Some(id) == exclude {
                        continue;
                    }
                    let d = self.metric.distance(q, self.data.point(id));
                    if d <= radius {
                        out.push(Neighbor::new(id, d));
                    }
                }
            });
        }
    }
}

impl_knn_provider!(GridIndex);

#[cfg(test)]
mod tests {
    use super::*;
    use lof_core::{Euclidean, KnnProvider, LinearScan};

    fn dataset() -> Dataset {
        let mut state = 42u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut rows = Vec::new();
        for _ in 0..300 {
            rows.push([next() * 100.0, next() * 50.0]);
        }
        // A distant point to exercise long shell walks.
        rows.push([1000.0, 1000.0]);
        Dataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn matches_linear_scan() {
        let ds = dataset();
        let grid = GridIndex::new(&ds, Euclidean);
        let scan = LinearScan::new(&ds, Euclidean);
        for id in (0..ds.len()).step_by(17) {
            for k in [1, 4, 12] {
                assert_eq!(
                    grid.k_nearest(id, k).unwrap(),
                    scan.k_nearest(id, k).unwrap(),
                    "id={id} k={k}"
                );
            }
        }
        // The far point's neighbors live many shells away.
        assert_eq!(grid.k_nearest(300, 3).unwrap(), scan.k_nearest(300, 3).unwrap());
    }

    #[test]
    fn within_matches_linear_scan() {
        let ds = dataset();
        let grid = GridIndex::new(&ds, Euclidean);
        let scan = LinearScan::new(&ds, Euclidean);
        for id in (0..ds.len()).step_by(31) {
            for radius in [0.5, 5.0, 60.0] {
                assert_eq!(grid.within(id, radius).unwrap(), scan.within(id, radius).unwrap());
            }
        }
    }

    #[test]
    fn shell_stop_holds_for_non_minkowski_metrics() {
        // Face gaps below 1 overstate squared distances, and angles have
        // no rectangle bound at all: the shell walk must still stop only
        // where the metric allows it.
        let small: Vec<[f64; 2]> =
            dataset().iter().map(|(_, p)| [p[0] / 1000.0 + 0.01, p[1] / 1000.0 + 0.01]).collect();
        let small = Dataset::from_rows(&small).unwrap();
        fn check<M: lof_core::Metric + Copy>(ds: &Dataset, metric: M) {
            let grid = GridIndex::new(ds, metric);
            let scan = LinearScan::new(ds, metric);
            for id in (0..ds.len()).step_by(7) {
                for k in [1, 4, 12] {
                    let want = scan.k_nearest(id, k).unwrap();
                    assert_eq!(grid.k_nearest(id, k).unwrap(), want, "{metric:?} id={id} k={k}");
                }
            }
        }
        check(&small, lof_core::SquaredEuclidean);
        check(&small, lof_core::Angular);
    }

    #[test]
    fn degenerate_single_coordinate_dimension() {
        // All ys identical: y-extent is zero.
        let rows: Vec<[f64; 2]> = (0..40).map(|i| [i as f64, 7.0]).collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        let grid = GridIndex::new(&ds, Euclidean);
        let scan = LinearScan::new(&ds, Euclidean);
        for id in 0..ds.len() {
            assert_eq!(grid.k_nearest(id, 3).unwrap(), scan.k_nearest(id, 3).unwrap());
        }
    }

    #[test]
    fn all_points_identical() {
        let rows: Vec<[f64; 2]> = (0..20).map(|_| [1.0, 1.0]).collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        let grid = GridIndex::new(&ds, Euclidean);
        let nn = grid.k_nearest(0, 5).unwrap();
        assert_eq!(nn.len(), 19, "all duplicates tie at distance 0");
    }

    #[test]
    fn grid_shape_is_reasonable() {
        let ds = dataset();
        let grid = GridIndex::new(&ds, Euclidean);
        assert!(grid.cell_count() >= 1);
        assert!(grid.cell_count() <= MAX_TOTAL_CELLS);
    }
}
