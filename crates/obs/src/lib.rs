//! # tsexplain-obs
//!
//! Dependency-free observability primitives for the TSExplain serving
//! stack, in the workspace's vendoring spirit (std + the vendored
//! `serde`/`serde_json` only):
//!
//! - [`hist`]: a lock-free, log-bucketed, mergeable latency histogram
//!   with p50/p90/p99/p99.9 estimation — the one percentile
//!   implementation shared by the server and the bench harness.
//! - [`counter`]: labelled monotonic counters (the counter sibling of
//!   the histogram family), used for per-tenant admission decisions.
//! - [`log`]: levelled structured JSON-lines logging to stderr
//!   (`TSX_LOG` / `--log-level`), with component/tenant/request-id
//!   fields.
//! - [`flight`]: a fixed-size ring of recent slow requests, each with
//!   the latency breakdown its answer carried, the data behind
//!   `GET /debug/requests`.
//! - [`prom`]: Prometheus text exposition (`_bucket`/`_sum`/`_count`)
//!   for `GET /metrics?format=prometheus`.
//!
//! Everything here is a side channel: recording and logging never feed
//! back into the engine, so explain output stays byte-identical with
//! observability on or off, at any thread count.

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout)]
pub mod counter;
pub mod flight;
pub mod hist;
pub mod log;
pub mod prom;

pub use counter::CounterFamily;
pub use flight::{FlightEntry, FlightRecorder};
pub use hist::{bucket_index, Histogram, HistogramFamily, HistogramSnapshot, BUCKET_BOUNDS_NANOS};
pub use log::Level;
pub use prom::Exposition;
