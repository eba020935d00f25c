//! The per-request explanation pipeline over a prepared cube: modules (b)
//! and (c) of paper Fig. 7 — segmentation by the request's strategy, then
//! Cascading-Analysts explanations of whatever scheme came back.
//!
//! This is the single implementation behind every entry point, all of
//! which reach it through [`crate::PreparedCube`]: the session's and the
//! registry's `explain`, the `/compare` fan-out, and
//! [`crate::ExplainSession::refresh`] (the only caller that passes
//! `forced_positions`). Precompute — the cube — is the session's job; the
//! pipeline reports its precompute latency as zero and the caller fills it
//! in.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]

use std::sync::Arc;

use tsexplain_cube::ExplanationCube;
use tsexplain_diff::TopExplStrategy;
use tsexplain_segment::{select_sketch, SegmentMemo, SegmentationContext};

use crate::error::TsExplainError;
use crate::latency::LatencyBreakdown;
use crate::request::ExplainRequest;
use crate::result::{ExplainResult, ExplanationItem, PipelineStats, SegmentExplanation};

/// Runs the segmentation strategy named by `request` and explains the
/// resulting scheme.
///
/// `forced_positions` restricts the DP's candidate cut positions (sorted
/// point indices; the endpoints are added if missing) — the §8 refresh's
/// hook: previous cut points plus the newly arrived points. Shape-only
/// strategies segment the full-resolution aggregate regardless.
///
/// `memo` is the cube's segment memo (a time slice's is its own) and the
/// row watermark the cube was prepared at.
pub(crate) fn explain_cube_request(
    cube: &ExplanationCube,
    request: &ExplainRequest,
    forced_positions: Option<Vec<usize>>,
    (memo, watermark): (Arc<SegmentMemo>, u64),
) -> Result<ExplainResult, TsExplainError> {
    let n = cube.n_points();
    if n < 2 {
        return Err(TsExplainError::SeriesTooShort(n));
    }
    request
        .validate_for_series(n)
        .map_err(TsExplainError::InvalidRequest)?;

    let optimizations = request.optimizations();
    let strategy = match optimizations.guess_and_verify {
        Some(initial_guess) => TopExplStrategy::GuessVerify { initial_guess },
        None => TopExplStrategy::Exact,
    };
    let parallel = request.parallel_ctx();
    // Entry poll: guarantees every request observes at least one poll, so
    // a zero (or already-spent) budget cancels deterministically through
    // the real engine path rather than depending on loop timing.
    if parallel.is_cancelled() {
        return Err(TsExplainError::Cancelled { stage: "start" });
    }
    let mut ctx = SegmentationContext::new(
        cube,
        request.diff_metric(),
        request.top_m(),
        strategy,
        request.variance_metric(),
    )
    .with_parallel(parallel.clone())
    .with_memo(memo, watermark);

    let spec = request.segmenter();
    let positions: Vec<usize> = match forced_positions {
        Some(mut p) => {
            p.push(0);
            p.push(n - 1);
            p.retain(|&x| x < n);
            p.sort_unstable();
            p.dedup();
            p
        }
        // Sketch selection prunes the DP's search space; strategies that
        // ignore candidate positions shouldn't pay for it.
        None => match request
            .sketching()
            .filter(|_| spec.uses_candidate_positions())
        {
            Some(sketch_config) => select_sketch(&mut ctx, &sketch_config),
            None => (0..n).collect(),
        },
    };

    let outcome = spec
        .build()
        .segment(&mut ctx, &positions, request.k_selection())
        .map_err(TsExplainError::from)?;

    let segments: Vec<SegmentExplanation> = outcome
        .segmentation
        .segments()
        .into_iter()
        .map(|seg| describe_segment(cube, &mut ctx, seg))
        .collect();
    // All-or-nothing: a trip during the cascading stage leaves truncated
    // explanation lists — discard them rather than serve a partial answer.
    if parallel.is_cancelled() {
        return Err(TsExplainError::Cancelled { stage: "cascading" });
    }

    let timers = ctx.timers();
    let latency = LatencyBreakdown {
        precompute: Default::default(),
        cascading: timers.cascading,
        segmentation: timers.segmentation,
        parallel: crate::latency::ParallelTimings {
            threads: parallel.threads(),
            cascading: timers.par_cascading,
            segmentation: timers.par_segmentation,
        },
        memo: crate::latency::MemoCounters {
            hits: ctx.memo_hits(),
            misses: ctx.memo_misses(),
        },
    };
    let stats = PipelineStats {
        epsilon: cube.n_candidates(),
        filtered_epsilon: cube.n_selectable(),
        n_points: n,
        ca_calls: ctx.ca_calls(),
        candidate_positions: positions.len(),
        cube_from_cache: false,
    };

    Ok(ExplainResult {
        strategy: spec.name().to_string(),
        total_variance: outcome.total_variance,
        segmentation: outcome.segmentation,
        chosen_k: outcome.chosen_k,
        k_variance_curve: outcome.k_variance_curve,
        segments,
        timestamps: cube.timestamps().to_vec(),
        aggregate: cube.total_values(),
        latency,
        stats,
    })
}

fn describe_segment(
    cube: &ExplanationCube,
    ctx: &mut SegmentationContext<'_>,
    seg: (usize, usize),
) -> SegmentExplanation {
    // var(P) = cost / |P| (Eq. 7); flags incohesive segments (§9).
    let variance = ctx.segment_cost(seg) / (seg.1 - seg.0) as f64;
    let explained = ctx.explained(seg);
    let explanations = explained
        .top
        .items()
        .iter()
        .map(|item| ExplanationItem {
            label: cube.label(item.id),
            gamma: item.gamma,
            effect: item.effect,
            series: (seg.0..=seg.1).map(|t| cube.value_at(item.id, t)).collect(),
        })
        .collect();
    SegmentExplanation {
        start: seg.0,
        end: seg.1,
        start_time: cube.timestamps()[seg.0].clone(),
        end_time: cube.timestamps()[seg.1].clone(),
        explanations,
        variance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Optimizations;
    use crate::request::InvalidRequest;
    use crate::segmenter::SegmenterSpec;
    use crate::session::ExplainSession;
    use tsexplain_relation::{AggQuery, Datum, Field, Relation, Schema};

    /// Three clean phases over 30 points: NY rises (0..10), CA rises
    /// (10..20), TX rises (20..29).
    fn three_phase_relation() -> Relation {
        let schema = Schema::new(vec![
            Field::dimension("t"),
            Field::dimension("state"),
            Field::measure("v"),
        ])
        .unwrap();
        let mut b = Relation::builder(schema);
        for t in 0..30i64 {
            let ny = if t <= 10 { 8.0 * t as f64 } else { 80.0 };
            let ca = if t <= 10 {
                2.0
            } else if t <= 20 {
                2.0 + 9.0 * (t - 10) as f64
            } else {
                92.0
            };
            let tx = if t <= 20 {
                5.0
            } else {
                5.0 + 10.0 * (t - 20) as f64
            };
            for (s, v) in [("NY", ny), ("CA", ca), ("TX", tx)] {
                b.push_row(vec![Datum::Attr(t.into()), Datum::from(s), Datum::from(v)])
                    .unwrap();
            }
        }
        b.finish()
    }

    fn session() -> ExplainSession {
        ExplainSession::new(three_phase_relation(), AggQuery::sum("t", "v")).unwrap()
    }

    fn request(optimizations: Optimizations) -> ExplainRequest {
        ExplainRequest::new(["state"]).with_optimizations(optimizations)
    }

    #[test]
    fn recovers_three_phases_with_auto_k() {
        let result = session().explain(&request(Optimizations::none())).unwrap();
        assert_eq!(result.chosen_k, 3, "curve {:?}", result.k_variance_curve);
        assert_eq!(result.strategy, "dp");
        let cuts = result.segmentation.cuts();
        assert!((9..=11).contains(&cuts[0]), "cuts {cuts:?}");
        assert!((19..=21).contains(&cuts[1]), "cuts {cuts:?}");
        // Each segment's top explanation is its driving state.
        let tops: Vec<&str> = result
            .segments
            .iter()
            .map(|s| s.explanations[0].label.as_str())
            .collect();
        assert_eq!(tops, vec!["state=NY", "state=CA", "state=TX"]);
    }

    #[test]
    fn fixed_k_is_respected() {
        let result = session()
            .explain(&request(Optimizations::none()).with_fixed_k(2))
            .unwrap();
        assert_eq!(result.chosen_k, 2);
        assert_eq!(result.segments.len(), 2);
    }

    #[test]
    fn optimized_matches_vanilla_segmentation() {
        let vanilla = session().explain(&request(Optimizations::none())).unwrap();
        let optimized = session().explain(&request(Optimizations::all())).unwrap();
        assert_eq!(vanilla.chosen_k, optimized.chosen_k);
        assert_eq!(
            vanilla.segmentation.cuts(),
            optimized.segmentation.cuts(),
            "optimizations must not change this clean result"
        );
    }

    #[test]
    fn result_is_self_describing() {
        let result = session().explain(&request(Optimizations::none())).unwrap();
        assert_eq!(result.aggregate.len(), 30);
        assert_eq!(result.timestamps.len(), 30);
        assert_eq!(result.stats.epsilon, 3);
        assert!(result.stats.ca_calls > 0);
        assert!(result.latency.total().as_nanos() > 0);
        // Segment series have the right lengths.
        for seg in &result.segments {
            for item in &seg.explanations {
                assert_eq!(item.series.len(), seg.end - seg.start + 1);
            }
        }
        let display = result.to_string();
        assert!(display.contains("state="));
    }

    #[test]
    fn candidate_positions_restrict_cuts() {
        let request = request(Optimizations::none()).with_fixed_k(2);
        let result = session()
            .prepare(&request)
            .unwrap()
            .explain_with_positions(&request, Some(vec![7, 20]))
            .unwrap();
        // Only 7 and 20 are available as interior cuts.
        assert!(result
            .segmentation
            .cuts()
            .iter()
            .all(|c| [7, 20].contains(c)));
    }

    #[test]
    fn shape_strategies_run_through_the_same_pipeline() {
        let mut s = session();
        for spec in [
            SegmenterSpec::BottomUp,
            SegmenterSpec::fluss(3),
            SegmenterSpec::nnsegment(4),
        ] {
            let result = s
                .explain(&request(Optimizations::none()).with_segmenter(spec))
                .unwrap();
            assert_eq!(result.strategy, spec.name());
            assert_eq!(result.segments.len(), result.chosen_k);
            assert_eq!(result.chosen_k, result.segmentation.k());
            assert!(result.total_variance.is_finite());
            // Every segment still gets cube-backed explanations.
            assert!(result.segments.iter().all(|seg| {
                seg.explanations
                    .iter()
                    .all(|e| e.series.len() == seg.end - seg.start + 1)
            }));
        }
    }

    #[test]
    fn dp_objective_is_never_worse_than_a_baseline_at_equal_k() {
        // The fixture is the paper's §7.2 motif: the aggregate is nearly
        // linear (slopes 8 → 9 → 10) while the *contributors* change
        // sharply, so shape-only cuts may land anywhere — but on the
        // shared explanation-aware objective the DP, which optimizes it
        // exactly, must never lose at equal K.
        let mut s = session();
        let dp = s
            .explain(&request(Optimizations::none()).with_fixed_k(3))
            .unwrap();
        let bu = s
            .explain(
                &request(Optimizations::none())
                    .with_fixed_k(3)
                    .with_segmenter(SegmenterSpec::BottomUp),
            )
            .unwrap();
        assert_eq!(bu.chosen_k, 3);
        assert!(
            dp.total_variance <= bu.total_variance + 1e-9,
            "dp {} vs bottom_up {}",
            dp.total_variance,
            bu.total_variance
        );
    }

    #[test]
    fn too_short_series_errors() {
        let schema = Schema::new(vec![
            Field::dimension("t"),
            Field::dimension("state"),
            Field::measure("v"),
        ])
        .unwrap();
        let mut b = Relation::builder(schema);
        b.push_row(vec![Datum::Attr(0i64.into()), "x".into(), 1.0.into()])
            .unwrap();
        let mut s = ExplainSession::new(b.finish(), AggQuery::sum("t", "v")).unwrap();
        let err = s.explain(&request(Optimizations::none())).unwrap_err();
        assert_eq!(err, TsExplainError::SeriesTooShort(1));
    }

    #[test]
    fn infeasible_fixed_k_errors() {
        let mut s = session();
        // K = 29 = n − 1 is feasible; K = 30 is not.
        assert!(s
            .explain(&request(Optimizations::none()).with_fixed_k(29))
            .is_ok());
        let err = s
            .explain(&request(Optimizations::none()).with_fixed_k(30))
            .unwrap_err();
        assert!(
            matches!(
                err,
                TsExplainError::InvalidRequest(InvalidRequest::InfeasibleK { k: 30, n: 30 })
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn oversized_windows_are_rejected_against_the_series() {
        let mut s = session();
        // n = 30: FLUSS needs n ≥ 2w + 2 → w = 14 fits, w = 15 does not.
        assert!(s
            .explain(&request(Optimizations::none()).with_segmenter(SegmenterSpec::fluss(14)))
            .is_ok());
        let err = s
            .explain(&request(Optimizations::none()).with_segmenter(SegmenterSpec::fluss(15)))
            .unwrap_err();
        assert!(
            matches!(
                err,
                TsExplainError::InvalidRequest(InvalidRequest::SegmenterWindow {
                    window: 15,
                    n: 30,
                    ..
                })
            ),
            "got {err:?}"
        );
    }
}
