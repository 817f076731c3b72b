//! # lof-index — k-NN substrates for LOF
//!
//! Section 7.4 of the LOF paper maps dimensionality regimes to index
//! choices for the materialization step:
//!
//! > "For low-dimensional data, we can use a grid based approach which can
//! > answer k-nn queries in constant time … For medium to medium
//! > high-dimensional data, we can use an index, which provides an average
//! > complexity of O(log n) … For extremely high-dimensional data, we need
//! > to use a sequential scan or some variant of it, e.g. the VA-file."
//!
//! This crate provides all of them, each implementing
//! [`lof_core::KnnProvider`] with the paper's tie-inclusive neighborhood
//! semantics, and each verified against the brute-force
//! [`lof_core::LinearScan`] oracle by unit and property tests:
//!
//! | type | regime | paper reference |
//! |---|---|---|
//! | [`GridIndex`] | low dimensions | grid file |
//! | [`KdTree`] | low–medium dimensions | generic tree index |
//! | [`XTree`] | medium–high dimensions | X-tree \[4\], used in the paper's experiments |
//! | [`VaFile`] | very high dimensions | VA-file \[21\] |
//! | [`BallTree`] | any proper metric | — (extension) |
//!
//! ```
//! use lof_core::{Dataset, Euclidean, LofDetector};
//! use lof_index::KdTree;
//!
//! let mut rows: Vec<[f64; 2]> = (0..200)
//!     .map(|i| [(i % 20) as f64, (i / 20) as f64])
//!     .collect();
//! rows.push([100.0, 100.0]);
//! let data = Dataset::from_rows(&rows).unwrap();
//!
//! let index = KdTree::new(&data, Euclidean);
//! let result = LofDetector::with_range(10, 20)
//!     .unwrap()
//!     .detect_with(&index)
//!     .unwrap();
//! assert_eq!(result.ranking()[0].0, 200);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod common;

pub mod balltree;
pub mod grid;
pub mod kdtree;
pub mod vafile;
pub mod xtree;

pub use balltree::BallTree;
pub use grid::GridIndex;
pub use kdtree::KdTree;
pub use vafile::VaFile;
pub use xtree::{XTree, XTreeOptions};
