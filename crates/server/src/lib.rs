//! # tsx-server
//!
//! A dependency-free, multi-threaded HTTP/1.1 + JSON serving subsystem
//! over the TSExplain session registry: the process boundary that turns
//! the library into a deployable service.
//!
//! ## Architecture
//!
//! ```text
//!        TcpListener ──► reactor thread (epoll multiplexer)
//!          │  over --max-conns?  ──► 429 + retry-after, close
//!          │  idle keep-alive    ──► parked in the epoll set
//!          ▼  readable                  ▲ idle again
//!        bounded queue (--queue-depth)  │
//!          │  full? ──► 429 shed        │
//!          ▼                            │
//!        WorkerPool (N threads) ── keep-alive HTTP/1.1 codec
//!          │  per-tenant token bucket (--tenant-rps) ──► 429
//!          ▼  admitted requests
//!        router  ── JSON wire protocol (serde layer)
//!          │
//!          ▼
//!        SessionRegistry (tsexplain)
//!          per-tenant Mutex<ExplainSession>
//!          global LRU-by-bytes cube eviction
//! ```
//!
//! Admission control (the 429 arms above) is entirely upstream of the
//! engine: it decides *whether* a request runs, never *what* the answer
//! contains, so the determinism contract is untouched. Shed and throttle
//! responses carry `retry-after` and an `x-request-id` like every other
//! response.
//!
//! ## Endpoints
//!
//! * `POST /datasets` — register a relation + aggregation query; returns
//!   the dataset (tenant) id.
//! * `POST /datasets/{id}/rows` — streaming append.
//! * `POST /datasets/{id}/explain` — an [`tsexplain::ExplainRequest`]
//!   body; returns the [`tsexplain::ExplainResult`] as JSON, identical to
//!   what an in-process session produces. The request's `segmenter` member
//!   selects the segmentation strategy (the DP or any §7.2 baseline).
//! * `POST /datasets/{id}/compare` — fan one request out across all four
//!   segmentation strategies; returns side-by-side results with
//!   `tsexplain-eval` distance/rank metrics.
//! * `GET /datasets/{id}/stats` — per-tenant session counters.
//! * `DELETE /datasets/{id}` — drop a tenant.
//! * `GET /metrics` — server + registry counters (cache bytes, evictions,
//!   response classes). `?format=prometheus` serves the same state as a
//!   Prometheus text exposition with per-route/per-strategy/per-tenant
//!   latency histograms (`tsexplain-obs`).
//! * `GET /debug/requests` — the slow-request flight recorder: the last N
//!   requests at or above `--slow-ms`, each with the latency breakdown
//!   its answer carried (a `/compare`'s DP row's) and, for a deadline
//!   504, the stage the deadline tripped at.
//! * `GET /healthz` — liveness.
//!
//! Every response carries an `x-request-id` header — the client's
//! `X-Request-Id` echoed when supplied, a process-unique id minted
//! otherwise — and the same id is stamped into log lines and flight
//! entries.
//!
//! Errors map to structured 4xx/5xx JSON bodies (see [`ApiError`]):
//! invalid requests and malformed rows are 400s, unknown datasets 404s,
//! explaining an empty dataset a 409, oversized bodies 413s, engine bugs
//! 500s (worker panics are caught and answered, never fatal).
//!
//! The [`Client`] speaks the same protocol for tests, examples and the
//! `loadgen` benchmark; the `tsx-server` binary wraps [`Server`] with
//! flags for the address, worker count and memory budget.
//!
//! ## Observability contract
//!
//! All instrumentation is a pure side channel: histograms, flight entries
//! and log lines never feed back into an answer, and logs go to stderr —
//! responses stay byte-identical at any thread count, log level, or slow
//! threshold. Engine time has one clock: the answer's latency block,
//! which the response, `/metrics` and the flight recorder all read.

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout)]
mod admission;
mod client;
mod error;
pub mod http;
mod metrics;
mod pool;
mod reactor;
mod router;
mod server;
pub mod wire;

pub use client::{Client, ClientError, RetryPolicy};
pub use error::{ApiError, DeadlineInfo};
pub use pool::WorkerPool;
pub use router::handle;
pub use server::{Server, ServerConfig, ServerHandle, ServerMetrics, ServerObs, ServerShared};
