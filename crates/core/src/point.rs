//! Dense multidimensional datasets.
//!
//! The paper operates on "objects in a multidimensional dataset"; we store
//! them as a flat row-major `f64` buffer for cache-friendly scans, with
//! objects addressed by their index (`0..len`). All public APIs in this
//! workspace refer to objects by these ids.

use std::sync::Arc;

use crate::error::{LofError, Result};
use crate::mmap::MappedFile;

/// Where a dataset's flat row-major buffer lives: an owned heap vector
/// (every in-RAM constructor) or a borrowed window of a read-only file
/// mapping (`.lofd` datasets). Both expose the same `&[f64]`, so every
/// consumer of [`Dataset::as_flat`] — the blocked kernel, the tree
/// builders, the batch self-joins — streams tiles off the page cache with
/// zero per-tile copies when the storage is mapped.
#[derive(Debug, Clone)]
enum Storage {
    Owned(Vec<f64>),
    Mapped {
        map: Arc<MappedFile>,
        /// Byte offset of the coords section (8-byte aligned).
        offset: usize,
        /// Length in `f64` elements.
        len: usize,
    },
}

impl Storage {
    #[inline]
    fn as_slice(&self) -> &[f64] {
        match self {
            Storage::Owned(v) => v,
            Storage::Mapped { map, offset, len } => map.f64_slice(*offset, *len),
        }
    }
}

/// A dense collection of `len` points in `dims`-dimensional space.
///
/// Coordinates are validated to be finite on construction, so downstream
/// distance computations never see NaN (which would poison the total orders
/// used by k-NN search). The invariant holds for both storage flavors:
/// in-RAM constructors validate eagerly, and mmap-backed datasets are only
/// built by [`crate::lofd::Lofd::open`], which validates the whole file
/// before handing one out.
#[derive(Debug, Clone)]
pub struct Dataset {
    dims: usize,
    coords: Storage,
}

impl PartialEq for Dataset {
    fn eq(&self, other: &Self) -> bool {
        // Mapped and owned datasets with the same coordinates are equal —
        // storage is a residency detail, not identity.
        self.dims == other.dims && self.as_flat() == other.as_flat()
    }
}

impl Dataset {
    /// Creates an empty dataset of the given dimensionality.
    pub fn new(dims: usize) -> Self {
        Dataset { dims, coords: Storage::Owned(Vec::new()) }
    }

    /// Creates an empty dataset with room for `capacity` points.
    pub fn with_capacity(dims: usize, capacity: usize) -> Self {
        Dataset { dims, coords: Storage::Owned(Vec::with_capacity(dims * capacity)) }
    }

    /// Wraps a validated window of a file mapping (the `.lofd` reader's
    /// constructor — the only path that skips eager validation, because
    /// [`crate::lofd::Lofd::open`] has already checked finiteness).
    pub(crate) fn from_mapped(
        map: Arc<MappedFile>,
        dims: usize,
        offset: usize,
        count: usize,
    ) -> Self {
        Dataset { dims, coords: Storage::Mapped { map, offset, len: count * dims } }
    }

    /// The owned coordinate vector, promoting mapped storage to an owned
    /// copy first (copy-on-write: mutators call this, readers never do).
    fn coords_mut(&mut self) -> &mut Vec<f64> {
        if let Storage::Mapped { .. } = self.coords {
            let owned = self.as_flat().to_vec();
            self.coords = Storage::Owned(owned);
        }
        match &mut self.coords {
            Storage::Owned(v) => v,
            Storage::Mapped { .. } => unreachable!("just promoted"),
        }
    }

    /// Builds a dataset from per-point rows.
    ///
    /// # Errors
    ///
    /// Returns [`LofError::DimensionMismatch`] if rows disagree on length and
    /// [`LofError::NonFiniteCoordinate`] on NaN/±∞ coordinates.
    pub fn from_rows<R: AsRef<[f64]>>(rows: &[R]) -> Result<Self> {
        let dims = rows.first().map_or(0, |r| r.as_ref().len());
        let mut ds = Dataset::with_capacity(dims, rows.len());
        for row in rows {
            ds.push(row.as_ref())?;
        }
        Ok(ds)
    }

    /// Builds a dataset from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LofError::DimensionMismatch`] if the buffer length is not a
    /// multiple of `dims`, and [`LofError::NonFiniteCoordinate`] on NaN/±∞.
    pub fn from_flat(dims: usize, coords: Vec<f64>) -> Result<Self> {
        if dims == 0 || !coords.len().is_multiple_of(dims) {
            return Err(LofError::DimensionMismatch {
                expected: dims,
                found: coords.len() % dims.max(1),
            });
        }
        for (i, &c) in coords.iter().enumerate() {
            if !c.is_finite() {
                return Err(LofError::NonFiniteCoordinate { point: i / dims, dim: i % dims });
            }
        }
        Ok(Dataset { dims, coords: Storage::Owned(coords) })
    }

    /// Appends one point.
    ///
    /// # Errors
    ///
    /// Returns [`LofError::DimensionMismatch`] or
    /// [`LofError::NonFiniteCoordinate`] without modifying the dataset.
    pub fn push(&mut self, point: &[f64]) -> Result<()> {
        if point.len() != self.dims {
            return Err(LofError::DimensionMismatch { expected: self.dims, found: point.len() });
        }
        for (d, &c) in point.iter().enumerate() {
            if !c.is_finite() {
                return Err(LofError::NonFiniteCoordinate { point: self.len(), dim: d });
            }
        }
        self.coords_mut().extend_from_slice(point);
        Ok(())
    }

    /// Appends every point of `other` (must have the same dimensionality).
    ///
    /// # Errors
    ///
    /// Returns [`LofError::DimensionMismatch`] when dimensionalities differ.
    pub fn extend(&mut self, other: &Dataset) -> Result<()> {
        if other.dims != self.dims {
            return Err(LofError::DimensionMismatch { expected: self.dims, found: other.dims });
        }
        self.coords_mut().extend_from_slice(other.as_flat());
        Ok(())
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.as_flat().len().checked_div(self.dims).unwrap_or(0)
    }

    /// True when the dataset holds no points.
    pub fn is_empty(&self) -> bool {
        self.as_flat().is_empty()
    }

    /// Dimensionality of every point.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Coordinates of the point with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id >= self.len()`.
    #[inline]
    pub fn point(&self, id: usize) -> &[f64] {
        &self.as_flat()[id * self.dims..(id + 1) * self.dims]
    }

    /// Coordinates of the point with the given id, or `None` out of range.
    pub fn get(&self, id: usize) -> Option<&[f64]> {
        if id < self.len() {
            Some(self.point(id))
        } else {
            None
        }
    }

    /// Iterates over `(id, coordinates)` pairs.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (usize, &[f64])> {
        self.as_flat().chunks_exact(self.dims.max(1)).enumerate()
    }

    /// The raw row-major coordinate buffer (the mapped section itself for
    /// out-of-core datasets — no copy).
    #[inline]
    pub fn as_flat(&self) -> &[f64] {
        self.coords.as_slice()
    }

    /// True when the coordinates live in a read-only file mapping rather
    /// than the heap.
    pub fn is_mapped(&self) -> bool {
        matches!(self.coords, Storage::Mapped { .. })
    }

    /// Projects the dataset onto a subset of its columns, in the given
    /// order — how subspace analyses are set up (the paper's hockey
    /// experiments, for instance, run on 3-column projections of the full
    /// player table).
    ///
    /// ```
    /// use lof_core::Dataset;
    /// let ds = Dataset::from_rows(&[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]).unwrap();
    /// let sub = ds.project(&[2, 0]).unwrap();
    /// assert_eq!(sub.point(0), &[3.0, 1.0]);
    /// assert_eq!(sub.point(1), &[6.0, 4.0]);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`LofError::UnknownColumn`] when a column index is out of
    /// range, [`LofError::DimensionMismatch`] when `columns` is empty.
    pub fn project(&self, columns: &[usize]) -> Result<Dataset> {
        if columns.is_empty() {
            return Err(LofError::DimensionMismatch { expected: self.dims, found: 0 });
        }
        for &c in columns {
            if c >= self.dims {
                return Err(LofError::UnknownColumn { column: c, columns: self.dims });
            }
        }
        let mut out = Dataset::with_capacity(columns.len(), self.len());
        let mut row = vec![0.0; columns.len()];
        for (_, p) in self.iter() {
            for (slot, &c) in row.iter_mut().zip(columns) {
                *slot = p[c];
            }
            out.push(&row).expect("projected coordinates stay finite");
        }
        Ok(out)
    }

    /// Axis-aligned bounding box as `(lows, highs)`, or `None` if empty.
    pub fn bounding_box(&self) -> Option<(Vec<f64>, Vec<f64>)> {
        if self.is_empty() {
            return None;
        }
        let mut lo = self.point(0).to_vec();
        let mut hi = lo.clone();
        for (_, p) in self.iter().skip(1) {
            for d in 0..self.dims {
                if p[d] < lo[d] {
                    lo[d] = p[d];
                }
                if p[d] > hi[d] {
                    hi[d] = p[d];
                }
            }
        }
        Some((lo, hi))
    }

    /// Removes the point `id` in `O(dims)` by moving the last point into
    /// its slot: every other id is stable, and the previous id
    /// `len() - 1` becomes `id`. This is the coordinate-store half of the
    /// incremental model's swap-remove semantics.
    ///
    /// # Panics
    ///
    /// Panics if `id >= self.len()`.
    pub fn swap_remove(&mut self, id: usize) {
        let n = self.len();
        assert!(id < n, "swap_remove out of range: {id} >= {n}");
        let last = n - 1;
        let dims = self.dims;
        let coords = self.coords_mut();
        if id != last {
            let (head, tail) = coords.split_at_mut(last * dims);
            head[id * dims..(id + 1) * dims].copy_from_slice(&tail[..dims]);
        }
        coords.truncate(last * dims);
    }

    /// Validates that `id` addresses a point.
    ///
    /// # Errors
    ///
    /// Returns [`LofError::UnknownObject`] when out of range.
    pub fn check_id(&self, id: usize) -> Result<()> {
        if id < self.len() {
            Ok(())
        } else {
            Err(LofError::UnknownObject { id, dataset_size: self.len() })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_roundtrip() {
        let ds = Dataset::from_rows(&[[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]).unwrap();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.dims(), 2);
        assert_eq!(ds.point(1), &[2.0, 3.0]);
        assert_eq!(ds.get(2), Some(&[4.0, 5.0][..]));
        assert_eq!(ds.get(3), None);
    }

    #[test]
    fn push_rejects_wrong_dims() {
        let mut ds = Dataset::new(2);
        ds.push(&[1.0, 2.0]).unwrap();
        let err = ds.push(&[1.0]).unwrap_err();
        assert_eq!(err, LofError::DimensionMismatch { expected: 2, found: 1 });
        assert_eq!(ds.len(), 1, "failed push must not mutate");
    }

    #[test]
    fn push_rejects_nan_and_infinity() {
        let mut ds = Dataset::new(2);
        assert_eq!(
            ds.push(&[f64::NAN, 0.0]).unwrap_err(),
            LofError::NonFiniteCoordinate { point: 0, dim: 0 }
        );
        assert_eq!(
            ds.push(&[0.0, f64::INFINITY]).unwrap_err(),
            LofError::NonFiniteCoordinate { point: 0, dim: 1 }
        );
        assert!(ds.is_empty());
    }

    #[test]
    fn from_flat_checks_shape() {
        assert!(Dataset::from_flat(2, vec![1.0, 2.0, 3.0]).is_err());
        let ds = Dataset::from_flat(3, vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(ds.len(), 1);
    }

    #[test]
    fn bounding_box_covers_all_points() {
        let ds = Dataset::from_rows(&[[0.0, 5.0], [-2.0, 3.0], [4.0, -1.0]]).unwrap();
        let (lo, hi) = ds.bounding_box().unwrap();
        assert_eq!(lo, vec![-2.0, -1.0]);
        assert_eq!(hi, vec![4.0, 5.0]);
        assert!(Dataset::new(2).bounding_box().is_none());
    }

    #[test]
    fn iter_yields_all_points_in_order() {
        let ds = Dataset::from_rows(&[[1.0], [2.0], [3.0]]).unwrap();
        let ids: Vec<usize> = ds.iter().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        let xs: Vec<f64> = ds.iter().map(|(_, p)| p[0]).collect();
        assert_eq!(xs, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn extend_appends_points() {
        let mut a = Dataset::from_rows(&[[1.0, 2.0]]).unwrap();
        let b = Dataset::from_rows(&[[3.0, 4.0], [5.0, 6.0]]).unwrap();
        a.extend(&b).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.point(2), &[5.0, 6.0]);
        let c = Dataset::from_rows(&[[1.0]]).unwrap();
        assert!(a.extend(&c).is_err());
    }

    #[test]
    fn project_selects_and_reorders_columns() {
        let ds = Dataset::from_rows(&[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]).unwrap();
        let sub = ds.project(&[1]).unwrap();
        assert_eq!(sub.dims(), 1);
        assert_eq!(sub.point(1), &[5.0]);
        let dup = ds.project(&[0, 0, 2]).unwrap();
        assert_eq!(dup.point(0), &[1.0, 1.0, 3.0]);
        assert!(ds.project(&[]).is_err());
        assert_eq!(
            ds.project(&[0, 3]).unwrap_err(),
            LofError::UnknownColumn { column: 3, columns: 3 }
        );
    }

    #[test]
    fn swap_remove_relocates_the_last_point() {
        let mut ds = Dataset::from_rows(&[[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]).unwrap();
        ds.swap_remove(0);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.point(0), &[4.0, 5.0]);
        assert_eq!(ds.point(1), &[2.0, 3.0]);
        // Removing the last point is a plain truncation.
        ds.swap_remove(1);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds.point(0), &[4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "swap_remove out of range")]
    fn swap_remove_panics_out_of_range() {
        let mut ds = Dataset::from_rows(&[[0.0]]).unwrap();
        ds.swap_remove(1);
    }

    #[test]
    fn check_id_bounds() {
        let ds = Dataset::from_rows(&[[0.0]]).unwrap();
        assert!(ds.check_id(0).is_ok());
        assert_eq!(ds.check_id(1).unwrap_err(), LofError::UnknownObject { id: 1, dataset_size: 1 });
    }
}
