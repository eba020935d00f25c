//! # TSExplain
//!
//! A from-scratch Rust implementation of **TSExplain: Explaining Aggregated
//! Time Series by Surfacing Evolving Contributors** (Chen & Huang,
//! ICDE 2023).
//!
//! Given a relation, a group-by time-series query ("what happened") and a
//! set of explain-by attributes, TSExplain answers "why" by partitioning
//! the time horizon into segments with *consistent* top contributors and
//! attaching the top-m non-overlapping explanations to each segment — the
//! evolving explanations of Definition 3.7.
//!
//! ## The serving session: register once, query many
//!
//! The pipeline (paper Fig. 7) splits into an expensive precompute step —
//! the explanation cube — and cheap per-query modules (Cascading
//! Analysts plus K-Segmentation). [`ExplainSession`] exploits that split: it registers
//! a [`Relation`] + [`AggQuery`] once, keeps a keyed cache of prepared
//! cubes, and answers any number of [`ExplainRequest`]s (varying K, top-m,
//! difference metric, time window) without repeating precompute:
//!
//! ```
//! use tsexplain::{DiffMetric, ExplainRequest, ExplainSession};
//! use tsexplain_relation::{AggQuery, Datum, Field, Relation, Schema};
//!
//! // A tiny relation: two states over six days.
//! let schema = Schema::new(vec![
//!     Field::dimension("date"),
//!     Field::dimension("state"),
//!     Field::measure("cases"),
//! ]).unwrap();
//! let mut b = Relation::builder(schema);
//! for (t, ny, ca) in [(0, 0.0, 5.0), (1, 10.0, 5.0), (2, 20.0, 5.0),
//!                     (3, 20.0, 15.0), (4, 20.0, 30.0), (5, 20.0, 50.0)] {
//!     b.push_row(vec![Datum::Attr((t as i64).into()), "NY".into(), ny.into()]).unwrap();
//!     b.push_row(vec![Datum::Attr((t as i64).into()), "CA".into(), ca.into()]).unwrap();
//! }
//!
//! // Register once…
//! let mut session = ExplainSession::new(b.finish(), AggQuery::sum("date", "cases")).unwrap();
//!
//! // …then ask as many questions as the analyst has. The explanation cube
//! // is built on the first request and reused afterwards.
//! let result = session.explain(&ExplainRequest::new(["state"])).unwrap();
//! assert_eq!(result.segments.len(), result.chosen_k);
//! let k2 = session.explain(&ExplainRequest::new(["state"]).with_fixed_k(2)).unwrap();
//! assert_eq!(k2.chosen_k, 2);
//! let rel = session
//!     .explain(&ExplainRequest::new(["state"]).with_diff_metric(DiffMetric::RelativeChange))
//!     .unwrap();
//! assert!(rel.stats.cube_from_cache);
//! assert_eq!(session.stats().cubes_built, 1);
//!
//! // Responses serialize for a service boundary.
//! let json = serde_json::to_string(&result).unwrap();
//! assert!(json.contains("\"segments\""));
//! ```
//!
//! Requests are validated upfront — unknown attributes, an empty
//! explain-by set or an infeasible fixed K come back as
//! [`TsExplainError::InvalidRequest`] before any pipeline work runs.
//!
//! Every answer is [`ExplainSession::prepare`] (the cube) followed by
//! [`PreparedCube::explain`] (the per-query modules, on the detached cube).
//! Live data goes through the same session: [`ExplainSession::append_rows`]
//! extends every cached cube incrementally at the tail, and
//! [`ExplainSession::refresh`] is the paper's §8 real-time extension, which
//! re-cuts the settled past only at the previous refresh's cut points.
//!
//! For serving many datasets from one process, [`SessionRegistry`] hosts a
//! thread-safe multi-tenant map of sessions: per-tenant interior locking
//! (one tenant's rebuild never blocks another's cache hit; an explain
//! locks its tenant only to prepare the cube) and a global LRU-by-bytes
//! cube eviction policy under a configurable memory budget (each session
//! also enforces a local budget, default
//! [`DEFAULT_CUBE_CACHE_BUDGET`]). The `tsexplain-server` crate serves the
//! registry over HTTP/JSON.
//!
//! ## Pluggable segmentation strategies
//!
//! The paper's central comparison (§7.2) pits the explanation-aware DP
//! against shape-only baselines. [`SegmenterSpec`] makes the strategy a
//! per-request, serializable parameter — `ExplainRequest::new([...])
//! .with_segmenter(SegmenterSpec::BottomUp)` runs bottom-up (likewise
//! FLUSS and NNSegment, each with a validated window) through the *same*
//! cube-backed explanation stage as the DP, and
//! [`ExplainResult::strategy`] records which strategy answered. Cube cache
//! keys are strategy-independent, so all four strategies share one cube
//! per session.
//!
//! The pipeline (paper Fig. 7) is: **(a)** precompute the per-explanation
//! series cube, **(b)** derive top-m non-overlapping explanations per
//! candidate segment with the Cascading Analysts algorithm, **(c)** run the
//! explanation-aware K-Segmentation DP and pick K with the elbow method.
//! Optimizations `filter`, guess-and-verify (O1) and sketching (O2) are
//! individually toggleable via [`Optimizations`].

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout)]
mod config;
mod deadline;
mod error;
mod pipeline;
mod registry;
mod request;
mod result;
mod segmenter;
mod serde_impls;
mod session;

pub use config::Optimizations;
pub use deadline::{CancelToken, Deadline};
pub use error::TsExplainError;
pub use registry::{
    DatasetId, DatasetSnapshot, RegistryError, RegistryStats, SessionRegistry,
    DEFAULT_REGISTRY_BUDGET,
};
pub use request::{ExplainRequest, InvalidRequest};
pub use result::{ExplainResult, ExplanationItem, PipelineStats, SegmentExplanation};
pub use segmenter::{default_window_for, SegmenterSpec, STRATEGIES};
pub use session::{ExplainSession, PreparedCube, SessionStats, DEFAULT_CUBE_CACHE_BUDGET};

// The intra-query parallel execution layer (deterministic chunk-ordered
// fan-out; `TSX_THREADS`, `ExplainRequest::with_threads`).
pub use tsexplain_parallel::{ParallelCtx, MAX_DEFAULT_THREADS, THREADS_ENV};

// The durable storage engine (WAL + snapshots + recovery-on-boot;
// `SessionRegistry::with_store`, `tsx-server --data-dir`).
pub use tsexplain_store::{
    DataStore, RecoveredTenant, Recovery, StoreError, StoreMetrics, TenantCheckpoint,
};

// Curated re-exports so downstream users need only this crate.
pub use tsexplain_cube::{CubeConfig, CubeError, ExplanationCube, IncrementalCube};
pub use tsexplain_diff::{diff_two_relations, DiffMetric, Effect};
pub use tsexplain_relation::{
    AggFn, AggQuery, AggState, AttrValue, Conjunction, Datum, Field, MeasureExpr, Predicate,
    Relation, Schema,
};
pub use tsexplain_segment::{
    elbow_k, DpSegmenter, KSelection, LatencyBreakdown, MemoCounters, ParallelTimings,
    Segmentation, Segmenter, SegmenterOutcome, SketchConfig, VarianceMetric,
};
