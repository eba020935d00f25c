//! [`Segmenter`] adapters over the §7.2 shape-only baselines.
//!
//! Each adapter wraps one of the loose baseline functions ([`crate::bottom_up`],
//! [`crate::fluss`], [`crate::nnsegment`]) into the pluggable strategy
//! boundary of `tsexplain-segment`, so the baselines are selectable
//! per-request through the same serving surface as the paper's DP — the
//! apples-to-apples harness the §7.2 comparison calls for.
//!
//! The shared protocol lives in
//! [`tsexplain_segment::shape_segmenter_outcome`]: a fixed K proposes
//! cuts once; auto K proposes for every `k ≤ max_k`, scores each scheme
//! with the explanation-aware objective `Σ |P_i| · var(P_i)`, and
//! elbow-selects. Only the cut proposal differs between strategies, and
//! every reported `total_variance` is on the DP's own scale.
//!
//! Shape strategies segment the full-resolution aggregated series: the
//! candidate-position restriction (sketching O2, streaming refreshes) is a
//! DP search-space concept and is deliberately ignored here — the
//! baselines are cheap enough to rerun whole.
//!
//! Window-parameterized strategies (FLUSS, NNSegment) assume the caller
//! validated the window against the series length upfront (the serving
//! layer rejects `window < 2`, FLUSS with `n < 2·window + 2` and
//! NNSegment with `n < 2·window + 1` as invalid requests); out-of-range
//! windows here degrade to the underlying functions' graceful empty-cut
//! behaviour rather than panicking.

use tsexplain_segment::{
    shape_segmenter_outcome, KSelection, SegmentError, SegmentationContext, Segmenter,
    SegmenterOutcome,
};

use crate::bottom_up::{cuts_after_merges, merge_order};
use crate::fluss::{corrected_arc_curve, fluss_cuts_from_cac};
use crate::matrix_profile::matrix_profile_index;
use crate::nnsegment::{nnsegment_cuts_from_scores, nnsegment_scores};

/// Bottom-Up piecewise-linear segmentation (Keogh et al., paper ref. 21)
/// behind the [`Segmenter`] boundary — the strongest shape baseline in the
/// paper's experiments.
///
/// The greedy merge order is computed once per call, down to one segment
/// for auto K and down to `k` for a fixed K, and every `k` the sweep
/// explores reads its cuts from it: the same cuts as [`crate::bottom_up`]
/// per `k`, from one merge pass instead of one per `k`.
#[derive(Clone, Copy, Debug, Default)]
pub struct BottomUpSegmenter;

impl Segmenter for BottomUpSegmenter {
    fn name(&self) -> &'static str {
        "bottom_up"
    }

    fn segment(
        &self,
        ctx: &mut SegmentationContext<'_>,
        _positions: &[usize],
        k: KSelection,
    ) -> Result<SegmenterOutcome, SegmentError> {
        let down_to = match k {
            KSelection::Fixed(k) => k,
            KSelection::Auto { .. } => 1,
        };
        let mut order: Option<Vec<usize>> = None;
        shape_segmenter_outcome(ctx, k, move |series, k| {
            let order = order.get_or_insert_with(|| merge_order(series, down_to));
            cuts_after_merges(series.len(), order, k)
        })
    }
}

/// FLUSS semantic segmentation (Gharghabi et al., paper ref. 9) behind the
/// [`Segmenter`] boundary.
///
/// The matrix profile and corrected arc curve are computed once per call
/// and shared across every `k` the auto-K sweep explores — only the
/// minima extraction is per-`k`.
#[derive(Clone, Copy, Debug)]
pub struct FlussSegmenter {
    /// Subsequence window length `w` (≥ 2; the series needs `n ≥ 2w + 2`).
    pub window: usize,
}

impl Segmenter for FlussSegmenter {
    fn name(&self) -> &'static str {
        "fluss"
    }

    fn segment(
        &self,
        ctx: &mut SegmentationContext<'_>,
        _positions: &[usize],
        k: KSelection,
    ) -> Result<SegmenterOutcome, SegmentError> {
        let w = self.window;
        let mut cac: Option<Vec<f64>> = None;
        shape_segmenter_outcome(ctx, k, move |series, k| {
            let n = series.len();
            if k <= 1 || n < 2 * w + 2 {
                return Vec::new();
            }
            let cac = cac.get_or_insert_with(|| {
                let (_, nn_index) = matrix_profile_index(series, w);
                corrected_arc_curve(&nn_index, w)
            });
            fluss_cuts_from_cac(cac, k, w, n)
        })
    }
}

/// The NNSegment / LimeSegment approximation (paper ref. 42) behind the
/// [`Segmenter`] boundary.
///
/// The adjacent-window dissimilarity scores are computed once per call and
/// shared across the auto-K sweep.
#[derive(Clone, Copy, Debug)]
pub struct NnSegmentSegmenter {
    /// Adjacent-window length `w`, doubling as the exclusion zone (≥ 2;
    /// the series needs `n ≥ 2w + 1`).
    pub window: usize,
}

impl Segmenter for NnSegmentSegmenter {
    fn name(&self) -> &'static str {
        "nnsegment"
    }

    fn segment(
        &self,
        ctx: &mut SegmentationContext<'_>,
        _positions: &[usize],
        k: KSelection,
    ) -> Result<SegmenterOutcome, SegmentError> {
        let w = self.window;
        let mut scores: Option<Vec<f64>> = None;
        shape_segmenter_outcome(ctx, k, move |series, k| {
            let n = series.len();
            if k <= 1 || w < 2 || n < 2 * w + 1 {
                return Vec::new();
            }
            let scores = scores.get_or_insert_with(|| nnsegment_scores(series, w));
            nnsegment_cuts_from_scores(scores, k, w)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsexplain_cube::{CubeConfig, ExplanationCube};
    use tsexplain_diff::{DiffMetric, TopExplStrategy};
    use tsexplain_relation::{AggQuery, Datum, Field, Relation, Schema};
    use tsexplain_segment::VarianceMetric;

    /// Three contributors driving three clean phases over 36 points; the
    /// aggregate bends at 12 and 24.
    fn cube() -> ExplanationCube {
        let schema = Schema::new(vec![
            Field::dimension("t"),
            Field::dimension("state"),
            Field::measure("v"),
        ])
        .unwrap();
        let mut b = Relation::builder(schema);
        for t in 0..36i64 {
            let ny = if t <= 12 { 8.0 * t as f64 } else { 96.0 };
            let ca = if t <= 12 {
                2.0
            } else if t <= 24 {
                2.0 - 6.0 * (t - 12) as f64
            } else {
                -70.0
            };
            let tx = if t <= 24 {
                5.0
            } else {
                5.0 + 10.0 * (t - 24) as f64
            };
            for (s, v) in [("NY", ny), ("CA", ca), ("TX", tx)] {
                b.push_row(vec![Datum::Attr(t.into()), Datum::from(s), Datum::from(v)])
                    .unwrap();
            }
        }
        ExplanationCube::build(
            &b.finish(),
            &AggQuery::sum("t", "v"),
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

    fn all_positions(cube: &ExplanationCube) -> Vec<usize> {
        (0..cube.n_points()).collect()
    }

    #[test]
    fn bottom_up_adapter_matches_the_loose_function() {
        let cube = cube();
        let mut ctx = context(&cube);
        let positions = all_positions(&cube);
        let outcome = BottomUpSegmenter
            .segment(&mut ctx, &positions, KSelection::Fixed(3))
            .unwrap();
        let direct = crate::bottom_up(cube.total_values_slice(), 3);
        assert_eq!(outcome.segmentation.cuts(), direct.as_slice());
        assert_eq!(outcome.chosen_k, 3);
        assert_eq!(BottomUpSegmenter.name(), "bottom_up");
    }

    /// A cube whose aggregate is `series` plus one: NY carries the series
    /// and CA a constant one.
    fn cube_of(series: &[f64]) -> ExplanationCube {
        let schema = Schema::new(vec![
            Field::dimension("t"),
            Field::dimension("state"),
            Field::measure("v"),
        ])
        .unwrap();
        let mut b = Relation::builder(schema);
        for (t, &v) in series.iter().enumerate() {
            for (s, v) in [("NY", v), ("CA", 1.0)] {
                b.push_row(vec![
                    Datum::Attr((t as i64).into()),
                    Datum::from(s),
                    Datum::from(v),
                ])
                .unwrap();
            }
        }
        ExplanationCube::build(
            &b.finish(),
            &AggQuery::sum("t", "v"),
            &CubeConfig::new(["state"]),
        )
        .unwrap()
    }

    #[test]
    fn one_merge_order_proposes_what_per_k_calls_propose() {
        // The fixture, and plateaus whose merges tie often.
        let plateaus: Vec<f64> = (0..48)
            .map(|t| [0.0, 0.0, 1.0, 1.0, 1.0, 3.0][t % 6] * (t / 12) as f64)
            .collect();
        let bits = |curve: &[(usize, f64)]| -> Vec<(usize, u64)> {
            curve.iter().map(|&(k, c)| (k, c.to_bits())).collect()
        };
        for cube in [cube(), cube_of(&plateaus)] {
            let n = cube.n_points();
            for k in [
                KSelection::Auto { max_k: 20 },
                KSelection::Fixed(1),
                KSelection::Fixed(4),
                KSelection::Fixed(n),
            ] {
                let got = BottomUpSegmenter
                    .segment(&mut context(&cube), &all_positions(&cube), k)
                    .unwrap();
                let per_k =
                    shape_segmenter_outcome(&mut context(&cube), k, crate::bottom_up).unwrap();
                assert_eq!(got.segmentation, per_k.segmentation, "n={n} {k:?}");
                assert_eq!(got.chosen_k, per_k.chosen_k, "n={n} {k:?}");
                assert_eq!(
                    bits(&got.k_variance_curve),
                    bits(&per_k.k_variance_curve),
                    "n={n} {k:?}"
                );
                assert_eq!(got.total_variance.to_bits(), per_k.total_variance.to_bits());
            }
        }
    }

    #[test]
    fn fluss_adapter_matches_the_loose_function() {
        let cube = cube();
        let mut ctx = context(&cube);
        let positions = all_positions(&cube);
        let w = 4;
        let outcome = FlussSegmenter { window: w }
            .segment(&mut ctx, &positions, KSelection::Fixed(2))
            .unwrap();
        let direct = crate::fluss(cube.total_values_slice(), 2, w);
        assert_eq!(outcome.segmentation.cuts(), direct.as_slice());
    }

    #[test]
    fn nnsegment_adapter_matches_the_loose_function() {
        let cube = cube();
        let mut ctx = context(&cube);
        let positions = all_positions(&cube);
        let w = 5;
        let outcome = NnSegmentSegmenter { window: w }
            .segment(&mut ctx, &positions, KSelection::Fixed(3))
            .unwrap();
        let direct = crate::nnsegment(cube.total_values_slice(), 3, w);
        assert_eq!(outcome.segmentation.cuts(), direct.as_slice());
    }

    #[test]
    fn adapters_match_the_loose_functions_across_windows_and_k() {
        // The adapters and the loose functions share their proposal cores
        // (fluss_cuts_from_cac / nnsegment_scores+cuts); this sweep pins
        // the agreement over the whole feasible (w, k) grid, not just one
        // point, so a future edit to either half cannot silently diverge.
        let cube = cube();
        let series = cube.total_values_slice();
        let n = series.len();
        for w in 2..=6 {
            for k in 2..=5 {
                if n >= 2 * w + 2 {
                    let outcome = FlussSegmenter { window: w }
                        .segment(&mut context(&cube), &[0, n - 1], KSelection::Fixed(k))
                        .unwrap();
                    assert_eq!(
                        outcome.segmentation.cuts(),
                        crate::fluss(series, k, w).as_slice(),
                        "fluss w={w} k={k}"
                    );
                }
                if n > 2 * w {
                    let outcome = NnSegmentSegmenter { window: w }
                        .segment(&mut context(&cube), &[0, n - 1], KSelection::Fixed(k))
                        .unwrap();
                    assert_eq!(
                        outcome.segmentation.cuts(),
                        crate::nnsegment(series, k, w).as_slice(),
                        "nnsegment w={w} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn auto_k_scores_on_the_explanation_objective() {
        let cube = cube();
        let mut ctx = context(&cube);
        let positions = all_positions(&cube);
        let outcome = BottomUpSegmenter
            .segment(&mut ctx, &positions, KSelection::Auto { max_k: 6 })
            .unwrap();
        assert_eq!(outcome.k_variance_curve.len(), 6);
        assert_eq!(outcome.chosen_k, outcome.segmentation.k());
        // The reported objective is the context's objective of the scheme.
        let mut fresh = context(&cube);
        let expected = fresh.objective(&outcome.segmentation);
        assert!((outcome.total_variance - expected).abs() < 1e-9);
        // The bends are exactly recoverable by shape alone here.
        assert_eq!(outcome.segmentation.cuts(), &[12, 24]);
    }

    #[test]
    fn adapters_ignore_candidate_position_restrictions() {
        let cube = cube();
        let mut ctx = context(&cube);
        // A sketchy candidate set that excludes the true bends entirely.
        let outcome = BottomUpSegmenter
            .segment(&mut ctx, &[0, 3, 35], KSelection::Fixed(3))
            .unwrap();
        assert_eq!(outcome.segmentation.cuts(), &[12, 24]);
    }

    #[test]
    fn oversized_windows_degrade_to_one_segment() {
        let cube = cube();
        for outcome in [
            FlussSegmenter { window: 40 }.segment(
                &mut context(&cube),
                &all_positions(&cube),
                KSelection::Fixed(3),
            ),
            NnSegmentSegmenter { window: 40 }.segment(
                &mut context(&cube),
                &all_positions(&cube),
                KSelection::Fixed(3),
            ),
        ] {
            let outcome = outcome.unwrap();
            assert_eq!(outcome.segmentation.k(), 1);
        }
    }
}
