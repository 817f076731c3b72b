//! # lof-serve — the async multi-tenant serving tier
//!
//! The deployable serving layer for `lof-stream` windows: thousands of
//! connections on one event-loop thread, many named windows, admission
//! quotas, and restarts that resume where they stopped.
//!
//! * [`sys`] — raw `epoll` (Linux) / `kqueue` (macOS, BSD) readiness
//!   polling via direct syscall declarations — the workspace's offline
//!   dependency policy means no `libc`/`mio`/`tokio`;
//! * [`server`] — one I/O thread multiplexing every connection, a small
//!   worker pool owning the tenant windows, per-connection reply
//!   sequencing, and bounded queues for per-connection backpressure;
//! * [`tenant`] — named windows (**tenants**) created, attached, listed
//!   and dropped over the wire (`TENANT CREATE alpha minpts=5 ...`),
//!   each with its own [`SlidingWindowLof`], configuration, and
//!   [`Quotas`];
//! * [`quota`] — token-bucket event admission, window occupancy caps,
//!   and connection caps, enforced before work is queued;
//! * snapshot/restore — `SNAPSHOT`/`DRAIN` persist every tenant through
//!   `lof_stream::snapshot`'s CRC-framed `LOFW` format; a server
//!   restarted with the same snapshot directory resumes scoring
//!   **bit-identically** (the window restore invariant is
//!   property-tested in `lof-stream`).
//!
//! The wire protocol is a superset of `lof stream`'s: NDJSON events in,
//! typed NDJSON records out, in-band `GET /metrics` and `GET /topn N`,
//! plus the `TENANT`/`SNAPSHOT`/`DRAIN` control commands. Connections
//! start attached to the `default` tenant, so a single-window client
//! works unchanged.
//!
//! ## Quick start
//!
//! ```no_run
//! use lof_core::Euclidean;
//! use lof_serve::{spawn, ServeConfig, TenantSpec, Quotas};
//! use lof_stream::StreamConfig;
//!
//! let spec = TenantSpec { config: StreamConfig::new(5, 256), quotas: Quotas::default() };
//! let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
//! let handle = spawn(listener, Euclidean, ServeConfig::new(spec, "euclidean")).unwrap();
//! println!("listening on {}", handle.addr());
//! let report = handle.drain().unwrap();
//! println!("{} events served", report.events());
//! ```
//!
//! [`SlidingWindowLof`]: lof_stream::SlidingWindowLof
//! [`Quotas`]: quota::Quotas

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod quota;
pub mod server;
pub mod sys;
pub mod tenant;

pub use quota::{Quotas, TokenBucket};
pub use server::{
    spawn, ServeConfig, ServeError, ServeHandle, ServeReport, DEFAULT_MAX_TENANTS, DEFAULT_QUEUE,
    DEFAULT_TENANT,
};
pub use sys::{Interest, PollEvent, Poller, Waker};
pub use tenant::{TenantShared, TenantSpec};
