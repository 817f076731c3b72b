//! # lof-stream — sliding-window streaming LOF
//!
//! The paper's conclusions name incremental LOF maintenance as the key
//! ongoing-work direction; `lof_core::incremental` implements the
//! insert/remove cascade, and this crate turns that primitive into a
//! deployable streaming subsystem:
//!
//! * [`SlidingWindowLof`] — a bounded count-based window with a warm-up
//!   phase, slide-oldest or landmark eviction, per-event scoring, and two
//!   alert rules (absolute LOF threshold, rolling window top-k);
//! * [`StreamStats`] — `std`-only observability: events, evictions,
//!   alerts, and the scoring latency [`lof_obs::Histogram`]
//!   (p50/p95/p99);
//! * [`snapshot`] — the `LOFW` snapshot format a window restores from
//!   bit-identically;
//! * [`wire`] — the NDJSON record schema shared by `lof stream`,
//!   `lof serve`, and the batch CLI's `--format json`;
//! * [`run_stream`] — the stdin→stdout pump behind `lof stream`. The
//!   multi-tenant TCP server behind `lof serve` is the `lof-serve` crate,
//!   built on this crate's windows, [`LineBuffer`] and [`wire`].
//!
//! Every emitted score is **bit-identical** to a fresh batch
//! [`lof_core::incremental::IncrementalLof`] over the live window
//! contents — the window only re-orders when work happens, never what is
//! computed (property-tested in `tests/properties.rs`). The model updates
//! neighborhoods per event and recomputes lrd/LOF values on read, so an
//! event pays for its own score, not for every score it invalidated.
//!
//! ## Quick start
//!
//! ```
//! use lof_core::Euclidean;
//! use lof_stream::{SlidingWindowLof, StreamConfig};
//!
//! let config = StreamConfig::new(5, 100).warmup(20).threshold(2.0);
//! let mut window = SlidingWindowLof::new(config, Euclidean).unwrap();
//! for i in 0..50 {
//!     window.push(&[f64::from(i % 7), f64::from(i % 11)]).unwrap();
//! }
//! let spike = window.push(&[80.0, 80.0]).unwrap();
//! assert!(spike.is_alert());
//! let (p50, _, p99) = window.stats().latency.percentiles_ns();
//! assert!(p50 <= p99);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod linebuf;
pub mod serve;
pub mod snapshot;
pub mod window;
pub mod wire;

pub use linebuf::{Line, LineBuffer};
pub use serve::{run_stream, StreamSummary};
pub use snapshot::{SnapshotStats, WindowSnapshot};
pub use window::{EvictionPolicy, ScoredEvent, SlidingWindowLof, StreamConfig, StreamStats};
pub use wire::{metrics_record, parse_metrics_request, ControlCommand, MetricsFormat};
