//! # lof-core — density-based local outlier detection
//!
//! A faithful, production-quality implementation of
//!
//! > Markus M. Breunig, Hans-Peter Kriegel, Raymond T. Ng, Jörg Sander.
//! > *LOF: Identifying Density-Based Local Outliers.* SIGMOD 2000.
//!
//! LOF assigns each object a *degree* of outlier-ness instead of a binary
//! label: the average ratio between the local reachability densities of an
//! object's `MinPts`-nearest neighbors and its own. Objects deep inside a
//! cluster score ≈ 1; objects that are sparse *relative to their local
//! neighborhood* score higher, regardless of the absolute densities
//! involved.
//!
//! ## Layout
//!
//! * [`Dataset`] / [`distance`] — points and metrics;
//! * [`neighbors`] / [`scan`] — the tie-inclusive k-NN abstraction
//!   ([`KnnProvider`]) and the brute-force reference provider (spatial
//!   indexes live in the companion `lof-index` crate);
//! * [`kdistance`] — definitions 3–4 plus the duplicate-tolerant
//!   *k-distinct-distance* variant;
//! * [`materialize`] — step 1 of the paper's two-step algorithm (the
//!   materialization database `M`);
//! * [`lrd`] / [`lof`] — definitions 5–7, computed as step 2's two scans;
//! * [`range`] — LOF over a `[MinPtsLB, MinPtsUB]` range and the max-LOF
//!   ranking heuristic of section 6.2;
//! * [`bounds`] — the executable section 5 theory: Theorem 1/2 bounds,
//!   Lemma 1, and the spread analysis behind figures 4 and 5;
//! * [`topn`] — the bound-driven top-n engine: answers "the n most
//!   outlying objects" exactly while scoring only what the Theorem 1/2
//!   envelopes cannot prune;
//! * [`parallel`] — multithreaded versions of both steps;
//! * [`detector`] — the high-level [`LofDetector`] front door.
//!
//! ## Quick start
//!
//! ```
//! use lof_core::{Dataset, LofDetector};
//!
//! // A dense cluster and a point far away from it.
//! let mut rows: Vec<[f64; 2]> = (0..100)
//!     .map(|i| [(i % 10) as f64, (i / 10) as f64])
//!     .collect();
//! rows.push([50.0, 50.0]);
//! let data = Dataset::from_rows(&rows).unwrap();
//!
//! let result = LofDetector::with_range(10, 20).unwrap().detect(&data).unwrap();
//! let (top_id, top_score) = result.ranking()[0];
//! assert_eq!(top_id, 100);
//! assert!(top_score > 3.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bounds;
pub mod detector;
pub mod distance;
pub mod error;
pub mod explain;
pub mod incremental;
pub mod kdistance;
pub mod kernel;
pub mod knn;
pub mod lof;
pub mod lofd;
pub mod lrd;
pub mod materialize;
pub mod mmap;
pub mod neighbors;
pub mod obs;
pub mod parallel;
pub mod persist;
pub mod point;
pub mod range;
pub mod scan;
pub(crate) mod shard;
pub mod simd;
pub mod spill;
mod sweep;
pub mod topn;

pub use bounds::{
    theorem2_envelope_bounds, KdistEnvelope, LofBounds, NeighborhoodStats, PartEnvelope,
};
pub use detector::{LofDetector, OutlierResult};
pub use distance::{Angular, Chebyshev, Euclidean, Manhattan, Metric, Minkowski, SquaredEuclidean};
pub use error::{LofError, Result};
pub use explain::{explain, OutlierExplanation};
pub use incremental::{IncrementalLof, UpdateStats};
pub use kernel::BlockKernel;
pub use knn::{widen_sq, with_thread_scratch, BoundedMaxHeap, Capture, KnnScratch};
pub use lof::{lof, lof_of_point, lof_of_point_with};
pub use lofd::{Lofd, LofdError, LofdWriter};
pub use materialize::NeighborhoodTable;
pub use mmap::MappedFile;
pub use neighbors::{KnnProvider, Neighbor};
pub use obs::KernelStats;
pub use parallel::build_table_parallel;
pub use point::Dataset;
pub use range::{lof_range, lof_range_reference, Aggregate, LofRangeResult, MinPtsRange};
pub use scan::LinearScan;
pub use simd::Isa;
pub use spill::{OocScores, SpillStats, SpilledNeighborhoodTable};
pub use topn::{
    set_isolation_radii, topn_reference, IsolationWork, Partition, PartitionMetric,
    PartitionSource, TopNEngine, TopNResult, TopNStats,
};
