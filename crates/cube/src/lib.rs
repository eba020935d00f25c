//! # tsexplain-cube
//!
//! Candidate-explanation enumeration and the per-explanation time-series
//! cube — module (a), "Precomputation", of the TSExplain pipeline
//! (paper §5.2, Fig. 7).
//!
//! Given a relation, a group-by time-series query and a set of *explain-by*
//! attributes, the cube:
//!
//! 1. enumerates every candidate explanation `E = (A1=a1 & … & Aβ=aβ)` of
//!    order `β ≤ β̄` that is actually witnessed by at least one row
//!    (Definition 3.1; β̄ defaults to 3 as in the paper),
//! 2. materializes the decomposable aggregate-state series `ts(σ_E R)` for
//!    every candidate, so that the absolute-change difference score of any
//!    segment is an O(1) endpoint computation. The states are stored once,
//!    time-major (one row per timestamp across all candidates; see
//!    [`ValueMatrix`] for the decoded rows the scorers scan), and an
//!    [`IncrementalCube`] shares that store with every
//!    [`ExplanationCube`] snapshot taken from it,
//! 3. applies the paper's support `filter` (§7.5.1): an explanation whose
//!    series is pointwise below `ratio` × the overall series is marked
//!    non-selectable,
//! 4. builds the drill-down trie used by the Cascading Analysts algorithm
//!    (Fig. 8): `children(node, attr)` are the explanations refining `node`
//!    by one predicate on `attr`.

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout)]
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]
mod cube;
mod enumerate;
mod error;
mod explanation;
mod incremental;
mod mem;
mod trie;
mod values;

pub use cube::{CubeCacheKey, CubeConfig, CubeShape, ExplanationCube, MAX_EXPLAIN_BY};
pub use error::CubeError;
pub use explanation::{ExplId, Explanation};
pub use incremental::{AppendRow, IncrementalCube};
pub use trie::{DrillTrie, NodeId, ROOT_NODE};
pub use tsexplain_parallel::ParallelCtx;
pub use values::{smoothed_reach, ValueMatrix};
