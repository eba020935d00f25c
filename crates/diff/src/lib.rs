//! # tsexplain-diff
//!
//! The two-relations-diff building block of TSExplain (paper §3.1) and the
//! Cascading Analysts algorithm that extracts top-m *non-overlapping*
//! explanations (module b of the pipeline, §5.2):
//!
//! * [`DiffMetric`] — the difference-score abstraction γ(E). The paper's
//!   experiments use `absolute-change` (Definition 3.2);
//!   `relative-change` and `risk-ratio` are provided as the metric-library
//!   extensions §9 calls for.
//! * [`Effect`] — the change effect τ(E) (Definition 3.3): does including
//!   the slice push the KPI up or down over the segment?
//! * [`ScoreContext`] — O(1) evaluation of γ/τ for any explanation over any
//!   segment, via the cube's decomposable endpoint states.
//! * [`CascadingAnalysts`] — the drill-down dynamic program of Ruhl et
//!   al. (paper ref. 38) over the cube's trie (paper Fig. 8), returning
//!   [`TopExplanations`] (Definition 3.5).
//! * [`GuessVerify`] — optimization O1 (§5.3.1): run CA on the top-m̄
//!   candidates by γ and verify optimality with the Eq. 12 bound, doubling
//!   m̄ until verified.
//! * [`TopExplEngine`] — the strategy-switching entry point the
//!   segmentation layer uses.
//! * [`diff_two_relations`] — the classical standalone diff operator over a
//!   (test, control) relation pair, built on the same machinery.

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout)]
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]
mod cascading;
mod error;
mod guess_verify;
mod metric;
mod score;
mod serde_impls;
mod top;
mod two_relation;

pub use cascading::CascadingAnalysts;
pub use error::DiffError;
pub use guess_verify::{GuessVerify, GuessVerifyStats};
pub use metric::{DiffMetric, Effect};
pub use score::ScoreContext;
pub use top::{RankedExplanation, TopExplEngine, TopExplStrategy, TopExplanations};
pub use two_relation::diff_two_relations;
