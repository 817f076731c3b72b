//! LOF over a range of `MinPts` values and the section 6.2 ranking
//! heuristic.
//!
//! Because LOF is not monotone in `MinPts` (§6.1), the paper proposes
//! computing LOF for every `MinPts` in `[MinPtsLB, MinPtsUB]` and ranking
//! objects by the **maximum** LOF over the range ("to highlight the instance
//! at which the object is the most outlying"); minimum and mean are offered
//! as alternative aggregates and implemented here too.

use crate::error::{LofError, Result};
use crate::lof::lof_values_with;
use crate::materialize::NeighborhoodTable;

/// An inclusive `MinPts` range `[lb, ub]`.
///
/// The paper's guidelines (§6.2): `lb >= 10` to suppress statistical
/// fluctuation, `lb` = smallest cluster size relative to which objects
/// should be local outliers, `ub` = largest set of "close by" objects that
/// may jointly be outliers; 10–20 and 30–50 are the values used in its
/// experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinPtsRange {
    lb: usize,
    ub: usize,
}

impl MinPtsRange {
    /// Creates the range `[lb, ub]`.
    ///
    /// # Errors
    ///
    /// Returns [`LofError::InvalidRange`] when `lb > ub` and
    /// [`LofError::InvalidMinPts`] when `lb == 0`.
    pub fn new(lb: usize, ub: usize) -> Result<Self> {
        if lb == 0 {
            return Err(LofError::InvalidMinPts { min_pts: 0, dataset_size: usize::MAX });
        }
        if lb > ub {
            return Err(LofError::InvalidRange { lb, ub });
        }
        Ok(MinPtsRange { lb, ub })
    }

    /// A single-value range `[k, k]`.
    pub fn single(k: usize) -> Result<Self> {
        Self::new(k, k)
    }

    /// The lower bound (`MinPtsLB`).
    pub fn lb(&self) -> usize {
        self.lb
    }

    /// The upper bound (`MinPtsUB`).
    pub fn ub(&self) -> usize {
        self.ub
    }

    /// Number of `MinPts` values in the range.
    pub fn len(&self) -> usize {
        self.ub - self.lb + 1
    }

    /// Always false: ranges are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates over the contained `MinPts` values.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = usize> {
        let lb = self.lb;
        (0..self.len()).map(move |i| lb + i)
    }
}

/// How to collapse an object's per-`MinPts` LOF trace into one score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Aggregate {
    /// The paper's proposal: the maximum LOF over the range.
    #[default]
    Max,
    /// Minimum over the range — the paper warns it "may erase the outlying
    /// nature of an object completely"; provided for experimentation.
    Min,
    /// Mean over the range — "may dilute the outlying nature of the object".
    Mean,
}

impl Aggregate {
    /// The fold's starting value: the identity of the aggregate.
    pub(crate) fn seed(self) -> f64 {
        match self {
            Aggregate::Max => f64::NEG_INFINITY,
            Aggregate::Min => f64::INFINITY,
            Aggregate::Mean => 0.0,
        }
    }

    /// Folds the next value of a trace (ascending `MinPts`) into `acc`.
    pub(crate) fn step(self, acc: f64, value: f64) -> f64 {
        match self {
            Aggregate::Max => f64::max(acc, value),
            Aggregate::Min => f64::min(acc, value),
            Aggregate::Mean => acc + value,
        }
    }

    /// The score of a trace of `count` values folded into `acc`.
    pub(crate) fn finish(self, acc: f64, count: usize) -> f64 {
        match self {
            Aggregate::Mean => acc / count as f64,
            Aggregate::Max | Aggregate::Min => acc,
        }
    }

    fn apply(self, trace: impl ExactSizeIterator<Item = f64>) -> f64 {
        let count = trace.len();
        self.finish(trace.fold(self.seed(), |acc, v| self.step(acc, v)), count)
    }
}

/// Per-object LOF values for every `MinPts` of a range.
#[derive(Debug, Clone)]
pub struct LofRangeResult {
    range: MinPtsRange,
    n: usize,
    /// Row-major `[range.len() x n]`: `values[(mp - lb) * n + id]`.
    values: Vec<f64>,
}

impl LofRangeResult {
    /// Assembles a result from the sweep engine's flat row-major values
    /// (`values[(mp - lb) * n + id]`).
    pub(crate) fn from_values(range: MinPtsRange, n: usize, values: Vec<f64>) -> Self {
        debug_assert_eq!(values.len(), range.len() * n);
        LofRangeResult { range, n, values }
    }

    /// The `MinPts` range covered.
    pub fn range(&self) -> MinPtsRange {
        self.range
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no objects are covered.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// All LOF values for one `MinPts`, in object order.
    ///
    /// # Errors
    ///
    /// Returns [`LofError::InvalidRange`] when `min_pts` lies outside the
    /// range.
    pub fn at_min_pts(&self, min_pts: usize) -> Result<&[f64]> {
        if min_pts < self.range.lb || min_pts > self.range.ub {
            return Err(LofError::InvalidRange { lb: min_pts, ub: min_pts });
        }
        let row = min_pts - self.range.lb;
        Ok(&self.values[row * self.n..(row + 1) * self.n])
    }

    /// The LOF trace of one object across the range, ordered by `MinPts`.
    ///
    /// # Errors
    ///
    /// Returns [`LofError::UnknownObject`] for out-of-range ids.
    pub fn trace(&self, id: usize) -> Result<Vec<f64>> {
        if id >= self.n {
            return Err(LofError::UnknownObject { id, dataset_size: self.n });
        }
        Ok((0..self.range.len()).map(|row| self.values[row * self.n + id]).collect())
    }

    /// The aggregated score of one object.
    ///
    /// # Errors
    ///
    /// Returns [`LofError::UnknownObject`] for out-of-range ids.
    pub fn score(&self, id: usize, aggregate: Aggregate) -> Result<f64> {
        if id >= self.n {
            return Err(LofError::UnknownObject { id, dataset_size: self.n });
        }
        Ok(aggregate.apply((0..self.range.len()).map(|row| self.values[row * self.n + id])))
    }

    /// Aggregated scores of every object, in object order.
    pub fn scores(&self, aggregate: Aggregate) -> Vec<f64> {
        (0..self.n)
            .map(|id| {
                aggregate.apply((0..self.range.len()).map(|row| self.values[row * self.n + id]))
            })
            .collect()
    }

    /// Objects ranked by aggregated score, most outlying first. Ties break
    /// by object id for determinism.
    pub fn ranking(&self, aggregate: Aggregate) -> Vec<(usize, f64)> {
        let mut ranked: Vec<(usize, f64)> =
            self.scores(aggregate).into_iter().enumerate().collect();
        ranked.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked
    }

    /// The `top` most outlying objects under the aggregate.
    pub fn top_outliers(&self, aggregate: Aggregate, top: usize) -> Vec<(usize, f64)> {
        let mut ranked = self.ranking(aggregate);
        ranked.truncate(top);
        ranked
    }
}

/// Computes LOF for every `MinPts` of `range` from a materialization table
/// (which must have been built with `max_k >= range.ub()`).
///
/// This is the paper's step 2 — "The database M is scanned twice for every
/// value of MinPts between MinPtsLB and MinPtsUB" — implemented as a
/// single-pass sweep: each object's sorted list is walked once per stage
/// and yields the values for the whole range while it is cache-hot
/// (see [`crate::sweep`]). Bit-identical to [`lof_range_reference`].
///
/// ```
/// use lof_core::{lof_range, Dataset, Euclidean, LinearScan, MinPtsRange};
/// use lof_core::{Aggregate, NeighborhoodTable};
///
/// let rows: Vec<[f64; 1]> = (0..20).map(|i| [i as f64]).chain([[100.0]]).collect();
/// let data = Dataset::from_rows(&rows).unwrap();
/// let scan = LinearScan::new(&data, Euclidean);
/// let table = NeighborhoodTable::build(&scan, 5).unwrap();
///
/// let result = lof_range(&table, MinPtsRange::new(3, 5).unwrap()).unwrap();
/// let (top_id, score) = result.ranking(Aggregate::Max)[0];
/// assert_eq!(top_id, 20);
/// assert!(score > 2.0);
/// ```
///
/// # Errors
///
/// Returns [`LofError::TableTooShallow`] when the table's `max_k` is below
/// `range.ub()`, plus the usual validation errors.
pub fn lof_range(table: &NeighborhoodTable, range: MinPtsRange) -> Result<LofRangeResult> {
    crate::sweep::sweep_lof_range(table, range, 1)
}

/// The pre-sweep implementation of [`lof_range`]: step 2 re-run from
/// scratch for every `MinPts` value, walking the table `UB - LB + 1`
/// times. Retained as the bit-exactness oracle for the sweep engine (the
/// `sweep_regression` test compares the two word for word) and as the
/// "before" side of the range-sweep benchmark.
///
/// # Errors
///
/// Same as [`lof_range`].
pub fn lof_range_reference(
    table: &NeighborhoodTable,
    range: MinPtsRange,
) -> Result<LofRangeResult> {
    if range.ub() > table.max_k() {
        return Err(LofError::TableTooShallow {
            materialized: table.max_k(),
            requested: range.ub(),
        });
    }
    let n = table.len();
    let mut values = Vec::with_capacity(range.len() * n);
    for min_pts in range.iter() {
        let k_distances = table.k_distances(min_pts)?;
        values.extend(lof_values_with(table, min_pts, &k_distances)?);
    }
    Ok(LofRangeResult { range, n, values })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::Euclidean;
    use crate::lof::lof_values;
    use crate::point::Dataset;
    use crate::scan::LinearScan;

    fn grid_with_outlier() -> Dataset {
        let mut rows: Vec<[f64; 2]> = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                rows.push([i as f64, j as f64]);
            }
        }
        rows.push([30.0, 30.0]); // id 64
        Dataset::from_rows(&rows).unwrap()
    }

    fn result() -> LofRangeResult {
        let ds = grid_with_outlier();
        let scan = LinearScan::new(&ds, Euclidean);
        let table = NeighborhoodTable::build(&scan, 10).unwrap();
        lof_range(&table, MinPtsRange::new(3, 10).unwrap()).unwrap()
    }

    #[test]
    fn range_validation() {
        assert!(MinPtsRange::new(5, 3).is_err());
        assert!(MinPtsRange::new(0, 3).is_err());
        let r = MinPtsRange::new(3, 5).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![3, 4, 5]);
        assert_eq!(MinPtsRange::single(7).unwrap().len(), 1);
    }

    #[test]
    fn rows_match_single_min_pts_computation() {
        let ds = grid_with_outlier();
        let scan = LinearScan::new(&ds, Euclidean);
        let table = NeighborhoodTable::build(&scan, 10).unwrap();
        let res = lof_range(&table, MinPtsRange::new(3, 10).unwrap()).unwrap();
        for k in [3usize, 7, 10] {
            let direct = lof_values(&table, k).unwrap();
            assert_eq!(res.at_min_pts(k).unwrap(), direct.as_slice(), "k={k}");
        }
    }

    #[test]
    fn trace_and_score_are_consistent() {
        let res = result();
        let trace = res.trace(64).unwrap();
        assert_eq!(trace.len(), 8);
        let max = trace.iter().cloned().fold(f64::MIN, f64::max);
        let min = trace.iter().cloned().fold(f64::MAX, f64::min);
        let mean = trace.iter().sum::<f64>() / trace.len() as f64;
        assert_eq!(res.score(64, Aggregate::Max).unwrap(), max);
        assert_eq!(res.score(64, Aggregate::Min).unwrap(), min);
        assert!((res.score(64, Aggregate::Mean).unwrap() - mean).abs() < 1e-12);
        assert!(min <= mean && mean <= max);
    }

    #[test]
    fn outlier_tops_every_aggregate() {
        let res = result();
        for agg in [Aggregate::Max, Aggregate::Min, Aggregate::Mean] {
            let ranking = res.ranking(agg);
            assert_eq!(ranking[0].0, 64, "aggregate {agg:?}");
            assert!(ranking[0].1 > 2.0);
        }
        assert_eq!(res.top_outliers(Aggregate::Max, 1).len(), 1);
    }

    #[test]
    fn ranking_is_sorted_descending() {
        let res = result();
        let ranking = res.ranking(Aggregate::Max);
        for w in ranking.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert_eq!(ranking.len(), 65);
    }

    #[test]
    fn too_shallow_table_is_rejected() {
        let ds = grid_with_outlier();
        let scan = LinearScan::new(&ds, Euclidean);
        let table = NeighborhoodTable::build(&scan, 5).unwrap();
        assert!(matches!(
            lof_range(&table, MinPtsRange::new(3, 10).unwrap()),
            Err(LofError::TableTooShallow { .. })
        ));
    }

    #[test]
    fn at_min_pts_validates_bounds() {
        let res = result();
        assert!(res.at_min_pts(2).is_err());
        assert!(res.at_min_pts(11).is_err());
        assert!(res.at_min_pts(3).is_ok());
        assert!(res.trace(65).is_err());
        assert!(res.score(65, Aggregate::Max).is_err());
    }
}
