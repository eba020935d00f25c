//! # tsexplain-eval
//!
//! Evaluation machinery for the TSExplain experiments:
//!
//! * [`distance_percent`] — the normalized edit distance between an output
//!   segmentation and the ground truth (paper §7.3, Fig. 10's metric).
//! * [`random_segmentation`] — uniform sampling of K-segmentation schemes
//!   (the 10 000-sample space of the §4.2.2 effectiveness study).
//! * [`ground_truth_rank`] — where the ground truth ranks among sampled
//!   schemes under one variance metric (Fig. 6's per-dataset measurement),
//!   priced through the segmentation context's segment-cost memo.
//! * [`rank_ascending`] / [`average_ranks`] — cross-metric ranking used to
//!   aggregate Fig. 6 over datasets and SNR levels.

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout)]
mod distance_percent;
mod gt_rank;
mod rank;
mod sampling;

pub use distance_percent::{cut_edit_distance, distance_percent};
pub use gt_rank::ground_truth_rank;
pub use rank::{average_ranks, rank_ascending};
pub use sampling::random_segmentation;
