//! The pluggable segmentation strategy boundary.
//!
//! The explanation pipeline is "explain any segmentation": a [`Segmenter`]
//! proposes a [`Segmentation`] (plus the K-cost curve backing the choice)
//! over the explanation-aware [`SegmentationContext`], and the cube-backed
//! top-m explanation stage then runs unchanged on whatever scheme came
//! back. [`DpSegmenter`] is the paper's explanation-aware DP (§5);
//! `tsexplain-baselines` adapts the §7.2 shape-only baselines (bottom-up,
//! FLUSS, NNSegment) to the same trait so all four strategies are
//! interchangeable per request, end-to-end through the serving API.

use crate::context::SegmentationContext;
use crate::dp::k_segmentation_with;
use crate::elbow::elbow_k;
use crate::error::SegmentError;
use crate::scheme::Segmentation;

/// How the number of segments K is chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KSelection {
    /// Pick K automatically with the elbow method over `1..=max_k`
    /// (paper §6; K capped at 20 for user-perception reasons).
    Auto {
        /// Upper bound on K (paper default: 20).
        max_k: usize,
    },
    /// Use exactly this K.
    Fixed(usize),
}

impl Default for KSelection {
    fn default() -> Self {
        KSelection::Auto { max_k: 20 }
    }
}

/// What one segmentation pass produced: the scheme, the chosen K, the
/// K-cost curve that backed the choice, and the objective at the chosen K
/// (always the paper's explanation-aware `Σ |P_i| · var(P_i)`, so
/// strategies are comparable on one scale regardless of how they cut).
///
/// It carries no timing: a strategy charges its solver to the context's
/// segmentation clock with [`SegmentationContext::timed_solve`].
#[derive(Clone, Debug)]
pub struct SegmenterOutcome {
    /// The proposed scheme.
    pub segmentation: Segmentation,
    /// The number of segments of the scheme (equals `segmentation.k()`).
    pub chosen_k: usize,
    /// `[(k, objective)]` for every K the strategy explored. A fixed-K run
    /// has a single entry.
    pub k_variance_curve: Vec<(usize, f64)>,
    /// The objective at the chosen K.
    pub total_variance: f64,
}

/// One segmentation strategy behind the explanation pipeline (module docs).
pub trait Segmenter {
    /// Short stable identifier (`"dp"`, `"bottom_up"`, `"fluss"`,
    /// `"nnsegment"`) — what `ExplainResult::strategy` reports.
    fn name(&self) -> &'static str;

    /// Proposes a scheme for the series behind `ctx`.
    ///
    /// `positions` are the sorted candidate cut positions including both
    /// endpoints — pre-restricted by sketch selection (O2) or a streaming
    /// refresh. The DP cuts only at candidates; shape-only strategies
    /// segment the full-resolution aggregate and may ignore them.
    fn segment(
        &self,
        ctx: &mut SegmentationContext<'_>,
        positions: &[usize],
        k: KSelection,
    ) -> Result<SegmenterOutcome, SegmentError>;
}

/// The paper's explanation-aware K-Segmentation DP (Eq. 11) — the default
/// strategy. Solves every `K` up to the cap in one pass, which makes the
/// elbow selection free (§6).
#[derive(Clone, Copy, Debug, Default)]
pub struct DpSegmenter;

impl Segmenter for DpSegmenter {
    fn name(&self) -> &'static str {
        "dp"
    }

    fn segment(
        &self,
        ctx: &mut SegmentationContext<'_>,
        positions: &[usize],
        k: KSelection,
    ) -> Result<SegmenterOutcome, SegmentError> {
        let n = ctx.n_points();
        let costs = ctx.compute_costs(positions, None);
        if ctx.is_cancelled() {
            return Err(SegmentError::Cancelled);
        }
        let k_cap = match k {
            KSelection::Auto { max_k } => max_k.min(positions.len() - 1).max(1),
            KSelection::Fixed(k) => k,
        };
        let parallel = ctx.parallel();
        let (position_cuts, chosen_k, total_variance, curve) = ctx.timed_solve(|| {
            let dp = k_segmentation_with(&costs, k_cap, &parallel);
            // All-or-nothing: a cancelled solve leaves a truncated table
            // whose cuts would be garbage — surface the typed error instead.
            if parallel.is_cancelled() {
                return Err(SegmentError::Cancelled);
            }
            let curve = dp.k_variance_curve();
            let chosen_k = match k {
                KSelection::Auto { .. } => elbow_k(&curve),
                KSelection::Fixed(k) => k,
            };
            Ok((dp.cuts(chosen_k)?, chosen_k, dp.total_cost(chosen_k), curve))
        })?;
        let cuts: Vec<usize> = position_cuts.iter().map(|&pi| positions[pi]).collect();
        Ok(SegmenterOutcome {
            segmentation: Segmentation::new(n, cuts)?,
            chosen_k,
            total_variance,
            k_variance_curve: curve,
        })
    }
}

/// Drives a *shape-only* cut proposer (a closure from `(series, k)` to
/// interior cuts) through the [`Segmenter`] contract: fixed K proposes
/// once; auto K proposes for every `k ≤ max_k`, scores each scheme with
/// the explanation-aware objective, and elbow-selects — the same selection
/// criterion and the same measurement scale as the DP, so only the cut
/// proposal differs between strategies.
///
/// This is the adapter half `tsexplain-baselines` builds on; it lives here
/// so the scoring/selection protocol has exactly one implementation.
pub fn shape_segmenter_outcome(
    ctx: &mut SegmentationContext<'_>,
    k: KSelection,
    mut propose: impl FnMut(&[f64], usize) -> Vec<usize>,
) -> Result<SegmenterOutcome, SegmentError> {
    // The cube outlives the context borrow, so the pre-decoded aggregate
    // row is borrowed directly — no per-request series copy.
    let series: &[f64] = ctx.cube().total_values_slice();
    let n = series.len();
    match k {
        KSelection::Fixed(k) => {
            let cuts = ctx.timed_solve(|| propose(series, k));
            let segmentation = Segmentation::new(n, cuts)?;
            let cost = ctx.objective(&segmentation);
            if ctx.is_cancelled() {
                return Err(SegmentError::Cancelled);
            }
            Ok(SegmenterOutcome {
                chosen_k: segmentation.k(),
                k_variance_curve: vec![(segmentation.k(), cost)],
                total_variance: cost,
                segmentation,
            })
        }
        KSelection::Auto { max_k } => {
            let cap = max_k.min(n - 1).max(1);
            let mut schemes = Vec::with_capacity(cap);
            // Proposals stay sequential (proposers memoize shared state —
            // matrix profiles, z-normed scores — across the sweep); the
            // explanation-aware scoring of the proposed schemes is the
            // expensive half and fans out across the parallel context.
            for k in 1..=cap {
                let cuts = ctx.timed_solve(|| propose(series, k));
                schemes.push(Segmentation::new(n, cuts)?);
            }
            let costs = ctx.objective_batch(&schemes);
            // A cancelled batch comes back truncated (possibly empty) —
            // bail before the elbow ever sees a partial curve.
            if ctx.is_cancelled() {
                return Err(SegmentError::Cancelled);
            }
            let curve: Vec<(usize, f64)> = (1..=cap).zip(costs).collect();
            let chosen = elbow_k(&curve);
            let idx = curve
                .iter()
                .position(|&(k, _)| k == chosen)
                .expect("elbow picks a curve point");
            let segmentation = schemes.swap_remove(idx);
            Ok(SegmenterOutcome {
                chosen_k: segmentation.k(),
                total_variance: curve[idx].1,
                k_variance_curve: curve,
                segmentation,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variance::VarianceMetric;
    use tsexplain_cube::{CubeConfig, ExplanationCube};
    use tsexplain_diff::{DiffMetric, TopExplStrategy};
    use tsexplain_relation::{AggQuery, Datum, Field, Relation, Schema};

    /// Two clean phases: NY drives points 0..3, CA drives points 3..6.
    fn cube() -> ExplanationCube {
        let schema = Schema::new(vec![
            Field::dimension("d"),
            Field::dimension("state"),
            Field::measure("v"),
        ])
        .unwrap();
        let ny = [0.0, 10.0, 20.0, 30.0, 30.0, 30.0, 30.0];
        let ca = [5.0, 5.0, 5.0, 5.0, 25.0, 45.0, 65.0];
        let mut b = Relation::builder(schema);
        for (t, (&vny, &vca)) in ny.iter().zip(ca.iter()).enumerate() {
            b.push_row(vec![
                Datum::from(format!("d{t}")),
                Datum::from("NY"),
                Datum::from(vny),
            ])
            .unwrap();
            b.push_row(vec![
                Datum::from(format!("d{t}")),
                Datum::from("CA"),
                Datum::from(vca),
            ])
            .unwrap();
        }
        ExplanationCube::build(
            &b.finish(),
            &AggQuery::sum("d", "v"),
            &CubeConfig::new(["state"]),
        )
        .unwrap()
    }

    fn context(cube: &ExplanationCube) -> SegmentationContext<'_> {
        SegmentationContext::new(
            cube,
            DiffMetric::AbsoluteChange,
            3,
            TopExplStrategy::Exact,
            VarianceMetric::Tse,
        )
    }

    #[test]
    fn dp_finds_the_phase_boundary() {
        let cube = cube();
        let mut ctx = context(&cube);
        let positions: Vec<usize> = (0..7).collect();
        let outcome = DpSegmenter
            .segment(&mut ctx, &positions, KSelection::Fixed(2))
            .unwrap();
        assert_eq!(outcome.segmentation.cuts(), &[3]);
        assert_eq!(outcome.chosen_k, 2);
        assert_eq!(outcome.k_variance_curve.len(), 2);
    }

    #[test]
    fn dp_auto_k_explores_the_curve() {
        let cube = cube();
        let mut ctx = context(&cube);
        let positions: Vec<usize> = (0..7).collect();
        let outcome = DpSegmenter
            .segment(&mut ctx, &positions, KSelection::Auto { max_k: 5 })
            .unwrap();
        assert_eq!(outcome.k_variance_curve.len(), 5);
        assert_eq!(outcome.chosen_k, outcome.segmentation.k());
        // The chosen K's objective is the reported total.
        let (_, v) = outcome.k_variance_curve[outcome.chosen_k - 1];
        assert!((v - outcome.total_variance).abs() < 1e-12);
    }

    #[test]
    fn dp_respects_candidate_positions() {
        let cube = cube();
        let mut ctx = context(&cube);
        let outcome = DpSegmenter
            .segment(&mut ctx, &[0, 2, 6], KSelection::Fixed(2))
            .unwrap();
        assert_eq!(outcome.segmentation.cuts(), &[2]);
    }

    #[test]
    fn shape_driver_scores_with_the_objective() {
        let cube = cube();
        let mut ctx = context(&cube);
        // A proposer that always cuts in the middle of the feasible range.
        let outcome = shape_segmenter_outcome(&mut ctx, KSelection::Fixed(2), |series, _| {
            vec![series.len() / 2]
        })
        .unwrap();
        assert_eq!(outcome.segmentation.cuts(), &[3]);
        let mut ctx2 = context(&cube);
        let expected = ctx2.objective(&outcome.segmentation);
        assert!((outcome.total_variance - expected).abs() < 1e-12);
    }

    #[test]
    fn shape_driver_auto_k_builds_a_curve_and_elbow_selects() {
        let cube = cube();
        let mut ctx = context(&cube);
        let outcome = shape_segmenter_outcome(&mut ctx, KSelection::Auto { max_k: 4 }, |_, k| {
            // Nested proposals: k−1 evenly spread cuts.
            (1..k).map(|i| i * 7 / k).map(|c| c.clamp(1, 5)).collect()
        })
        .unwrap();
        assert_eq!(outcome.k_variance_curve.len(), 4);
        assert_eq!(outcome.chosen_k, outcome.segmentation.k());
        assert!(outcome.total_variance.is_finite());
    }

    #[test]
    fn shape_driver_rejects_invalid_cuts() {
        let cube = cube();
        let mut ctx = context(&cube);
        let err = shape_segmenter_outcome(&mut ctx, KSelection::Fixed(2), |_, _| vec![0]);
        assert!(err.is_err());
    }
}
