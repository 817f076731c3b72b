//! Error types for LOF computation.

use std::fmt;

/// Errors that can arise while building datasets or computing LOF values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LofError {
    /// The dataset contains no points.
    EmptyDataset,
    /// A point's dimensionality differs from the dataset's.
    DimensionMismatch {
        /// Dimensionality the dataset was created with.
        expected: usize,
        /// Dimensionality of the offending point.
        found: usize,
    },
    /// A coordinate is NaN or infinite.
    NonFiniteCoordinate {
        /// Index of the offending point.
        point: usize,
        /// Dimension of the offending coordinate.
        dim: usize,
    },
    /// `MinPts` (or `k`) must satisfy `1 <= MinPts < |D|`: each object needs
    /// at least `MinPts` *other* objects to define its neighborhood
    /// (definition 3 requires neighbors drawn from `D \ {p}`).
    InvalidMinPts {
        /// The requested `MinPts`.
        min_pts: usize,
        /// Number of objects in the dataset.
        dataset_size: usize,
    },
    /// A `MinPts` range with `lower_bound > upper_bound`.
    InvalidRange {
        /// Requested lower bound (`MinPtsLB`).
        lb: usize,
        /// Requested upper bound (`MinPtsUB`).
        ub: usize,
    },
    /// A neighborhood table was built for a smaller `MinPtsUB` than the
    /// `MinPts` now being queried.
    TableTooShallow {
        /// `MinPtsUB` the table was materialized with.
        materialized: usize,
        /// The `MinPts` requested from it.
        requested: usize,
    },
    /// An object id outside `0..dataset.len()`.
    UnknownObject {
        /// The offending id.
        id: usize,
        /// Number of objects in the dataset.
        dataset_size: usize,
    },
    /// A partition passed to the Theorem 2 bounds is invalid (empty part,
    /// overlapping parts, or parts not covering the neighborhood).
    InvalidPartition(String),
    /// A column index outside `0..columns` (e.g. in a projection).
    UnknownColumn {
        /// The offending column index.
        column: usize,
        /// Number of columns the data has.
        columns: usize,
    },
    /// A streaming alert rule that cannot mean what it says: a threshold
    /// that is not a positive finite number, or a top-k of 0.
    InvalidAlertRule(String),
}

impl fmt::Display for LofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LofError::EmptyDataset => write!(f, "dataset contains no points"),
            LofError::DimensionMismatch { expected, found } => {
                write!(f, "expected {expected}-dimensional point, found {found}-dimensional")
            }
            LofError::NonFiniteCoordinate { point, dim } => {
                write!(f, "point {point} has a non-finite coordinate in dimension {dim}")
            }
            LofError::InvalidMinPts { min_pts, dataset_size } => write!(
                f,
                "MinPts = {min_pts} is invalid for a dataset of {dataset_size} objects \
                 (need 1 <= MinPts < |D|)"
            ),
            LofError::InvalidRange { lb, ub } => {
                write!(f, "invalid MinPts range: lower bound {lb} > upper bound {ub}")
            }
            LofError::TableTooShallow { materialized, requested } => write!(
                f,
                "neighborhood table was materialized for MinPtsUB = {materialized}, \
                 cannot answer MinPts = {requested}"
            ),
            LofError::UnknownObject { id, dataset_size } => {
                write!(f, "object id {id} out of range for dataset of {dataset_size} objects")
            }
            LofError::InvalidPartition(msg) => write!(f, "invalid neighborhood partition: {msg}"),
            LofError::UnknownColumn { column, columns } => {
                write!(f, "column {column} is out of range for data with {columns} columns")
            }
            LofError::InvalidAlertRule(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for LofError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LofError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_key_values() {
        let e = LofError::InvalidMinPts { min_pts: 0, dataset_size: 10 };
        assert!(e.to_string().contains("MinPts = 0"));
        let e = LofError::DimensionMismatch { expected: 2, found: 3 };
        assert!(e.to_string().contains("2-dimensional"));
        assert!(e.to_string().contains("3-dimensional"));
        let e = LofError::TableTooShallow { materialized: 50, requested: 60 };
        assert!(e.to_string().contains("50"));
        assert!(e.to_string().contains("60"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: std::error::Error>() {}
        assert_error::<LofError>();
    }
}
