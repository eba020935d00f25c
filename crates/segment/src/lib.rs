//! # tsexplain-segment
//!
//! The explanation-aware K-Segmentation engine of TSExplain — module (c)
//! of the pipeline (paper §4, §5):
//!
//! * [`ndcg`] — how well one segment's top-explanation list explains
//!   another segment, via NDCG with *rectified relevance* (Eqs. 3–5): an
//!   explanation that pushes the KPI up in one segment but down in the
//!   other contributes zero.
//! * [`VarianceMetric`] — all eight within-segment variance designs the
//!   paper evaluates (§4.2.2): `tse` (Eq. 6/7), `dist1` (Eq. 8), `dist2`
//!   (Eq. 9), `allpair` (Eq. 10) and their squared `S*` variants.
//! * [`SegmentationContext`] — object top-explanation caching, segment
//!   cost computation (`|P| · var(P)`), and objective scoring.
//! * [`LatencyBreakdown`] — the answer's one record of where its engine
//!   time went (paper Fig. 15), with the parallel regions' wall-clock
//!   ([`ParallelTimings`]) and the memo's work counts ([`MemoCounters`]).
//! * [`SegmentMemo`] — unit lists and segment costs shared by every
//!   request over one cube, kept across tail appends for the entries whose
//!   rows did not change.
//! * [`k_segmentation`] — the dynamic program of Eq. 11, producing optimal
//!   schemes for every `K` up to a cap in one pass (which is what makes the
//!   elbow method free, §6).
//! * [`select_sketch`] — optimization O2 (§5.3.2): a length-constrained
//!   phase-I run whose cut positions become the candidate cut set of the
//!   full pipeline.
//! * [`Segmentation`] — a validated K-segmentation scheme.
//! * [`Segmenter`] — the pluggable strategy boundary: [`DpSegmenter`] (the
//!   paper's DP, the default) and the `tsexplain-baselines` adapters all
//!   produce a [`SegmenterOutcome`] the explanation stage consumes, so the
//!   pipeline can "explain any segmentation".
//! * [`elbow_k`] — Kneedle-style elbow selection over a K-cost curve (§6),
//!   shared by every strategy's auto-K path.

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout)]
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]
mod context;
mod cost;
mod dp;
mod elbow;
mod error;
mod latency;
mod memo;
mod ndcg;
mod scheme;
mod segmenter;
mod serde_impls;
mod sketch;
mod variance;

pub use context::SegmentationContext;
pub use cost::CostMatrix;
pub use dp::{k_segmentation, k_segmentation_with, DpResult};
pub use elbow::elbow_k;
pub use error::SegmentError;
pub use latency::{LatencyBreakdown, MemoCounters, ParallelTimings};
pub use memo::SegmentMemo;
pub use ndcg::{ndcg, ExplainedSegment};
pub use scheme::Segmentation;
pub use segmenter::{
    shape_segmenter_outcome, DpSegmenter, KSelection, Segmenter, SegmenterOutcome,
};
pub use sketch::{select_sketch, SketchConfig};
pub use tsexplain_parallel::ParallelCtx;
pub use variance::{object_centroid_distance, object_pair_distance, VarianceMetric};
