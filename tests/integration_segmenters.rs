//! Acceptance of the strategy-pluggable segmenter API: every §7.2
//! strategy is selectable per-request through one serving surface, the
//! default spec reproduces the pre-redesign pipeline byte-for-byte, and
//! per-strategy parameters are validated upfront.

use serde::Value;
use tsexplain::{
    ExplainRequest, ExplainSession, InvalidRequest, Optimizations, Relation, SegmenterSpec,
    TsExplainError, STRATEGIES,
};
use tsexplain_datagen::synthetic::{SyntheticConfig, SyntheticDataset};

/// The canonical corpus dataset (same generator settings the server
/// integration suite and the pre-redesign golden capture used).
fn dataset() -> SyntheticDataset {
    SyntheticDataset::generate(SyntheticConfig {
        n_points: 60,
        seed: 7,
        ..SyntheticConfig::default()
    })
}

fn relation(data: &SyntheticDataset) -> Relation {
    let mut b = Relation::builder(data.schema());
    for row in data.rows_between(0, 60) {
        b.push_row(row).unwrap();
    }
    b.finish()
}

fn session() -> ExplainSession {
    let data = dataset();
    ExplainSession::new(relation(&data), data.query()).unwrap()
}

fn base_request() -> ExplainRequest {
    ExplainRequest::new(["category"]).with_optimizations(Optimizations::none())
}

/// Serializes a result with the nondeterministic latency block removed,
/// plus any keys named in `also_drop`.
fn canonical(result: &tsexplain::ExplainResult, also_drop: &[&str]) -> String {
    let mut value = serde_json::to_value(result);
    if let Value::Object(map) = &mut value {
        map.remove("latency");
        for key in also_drop {
            map.remove(*key);
        }
    }
    serde_json::to_string(&value).unwrap()
}

/// The default spec must reproduce the pre-redesign pipeline exactly: the
/// golden file was captured from the PR-2-era engine (before the
/// `Segmenter` trait existed) on this exact dataset and request, with the
/// latency and stats blocks stripped.
#[test]
fn default_spec_reproduces_pre_redesign_results_byte_for_byte() {
    let golden = include_str!("golden_default_spec.jsonl")
        .lines()
        .next()
        .expect("golden file has the canonical JSON on line 1");
    let result = session().explain(&base_request()).unwrap();
    // The strategy field is new in this redesign; the golden predates it.
    assert_eq!(canonical(&result, &["stats", "strategy"]), golden);
    assert_eq!(result.strategy, "dp");
    assert_eq!(result.segmentation.cuts(), &[13, 31]);
    assert_eq!(result.chosen_k, 3);
}

#[test]
fn all_four_strategies_serve_from_one_session_and_one_cube() {
    let mut s = session();
    let mut seen = Vec::new();
    for spec in SegmenterSpec::all_for(60) {
        let result = s.explain(&base_request().with_segmenter(spec)).unwrap();
        assert_eq!(result.strategy, spec.name());
        assert_eq!(result.segments.len(), result.chosen_k);
        assert_eq!(result.stats.n_points, 60);
        assert!(result.total_variance.is_finite() && result.total_variance >= 0.0);
        // The cube-backed explanation stage ran regardless of strategy.
        assert!(result
            .segments
            .iter()
            .all(|seg| seg.explanations.iter().all(|e| !e.label.is_empty())));
        seen.push(result.strategy.clone());
    }
    assert_eq!(seen, STRATEGIES);
    assert_eq!(s.stats().cubes_built, 1, "strategies must share one cube");
    assert_eq!(s.stats().cube_cache_hits, 3);
}

#[test]
fn strategy_round_trips_across_the_wire_encoding() {
    for spec in SegmenterSpec::all_for(60) {
        let request = base_request().with_segmenter(spec).with_fixed_k(3);
        let json = serde_json::to_string(&request).unwrap();
        let back: ExplainRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, request);
        // The decoded request serves identically to the original.
        let mut s = session();
        let a = s.explain(&request).unwrap();
        let b = s.explain(&back).unwrap();
        assert_eq!(a.segmentation, b.segmentation);
        assert_eq!(a.strategy, b.strategy);
    }
}

#[test]
fn upfront_validation_rejects_bad_windows_before_any_work() {
    let mut s = session();
    // Structurally degenerate windows (< 2) never touch the pipeline.
    for spec in [SegmenterSpec::fluss(0), SegmenterSpec::nnsegment(1)] {
        let err = s.explain(&base_request().with_segmenter(spec)).unwrap_err();
        assert!(
            matches!(
                err,
                TsExplainError::InvalidRequest(InvalidRequest::SegmenterWindow { n: 0, .. })
            ),
            "{spec}: {err:?}"
        );
    }
    assert_eq!(s.stats().cubes_built, 0, "rejected before cube work");

    // Oversized windows are rejected against the series length: n = 60
    // admits FLUSS windows up to 29 and NNSegment windows up to 29.
    for (spec, ok) in [
        (SegmenterSpec::fluss(29), true),
        (SegmenterSpec::fluss(30), false),
        (SegmenterSpec::nnsegment(29), true),
        (SegmenterSpec::nnsegment(30), false),
    ] {
        let outcome = s.explain(&base_request().with_segmenter(spec));
        assert_eq!(outcome.is_ok(), ok, "{spec}: {outcome:?}");
        if let Err(err) = outcome {
            assert!(matches!(
                err,
                TsExplainError::InvalidRequest(InvalidRequest::SegmenterWindow { n: 60, .. })
            ));
        }
    }

    // The same validation applies to the *sliced* length of a windowed
    // request: 21 points admit a FLUSS window of 9, not 10.
    let windowed = base_request().with_time_range(0i64, 20i64);
    assert!(s
        .explain(&windowed.clone().with_segmenter(SegmenterSpec::fluss(9)))
        .is_ok());
    let err = s
        .explain(&windowed.with_segmenter(SegmenterSpec::fluss(10)))
        .unwrap_err();
    assert!(matches!(
        err,
        TsExplainError::InvalidRequest(InvalidRequest::SegmenterWindow { n: 21, .. })
    ));
}

#[test]
fn streaming_refreshes_serve_baseline_strategies_too() {
    let data = dataset();
    let request = base_request().with_segmenter(SegmenterSpec::BottomUp);
    let empty = Relation::builder(data.schema()).finish();
    let mut streaming = ExplainSession::new(empty, data.query()).unwrap();
    streaming.append_rows(data.rows_between(0, 40)).unwrap();
    let first = streaming.refresh(&request).unwrap();
    assert_eq!(first.strategy, "bottom_up");
    assert_eq!(first.stats.n_points, 40);
    streaming.append_rows(data.rows_between(40, 60)).unwrap();
    let second = streaming.refresh(&request).unwrap();
    assert_eq!(second.stats.n_points, 60);
    // Shape strategies segment the full-resolution series: a refresh after
    // appends matches a cold batch run exactly.
    let mut batch = session();
    let cold = batch
        .explain(&base_request().with_segmenter(SegmenterSpec::BottomUp))
        .unwrap();
    assert_eq!(second.segmentation, cold.segmentation);
    // Switching strategy works mid-stream.
    let dp = streaming.refresh(&base_request()).unwrap();
    assert_eq!(dp.strategy, "dp");
    assert_eq!(streaming.stats().cubes_built, 1, "one cube throughout");
}

#[test]
fn compare_style_fanout_agrees_with_individual_requests() {
    // What the server's /compare endpoint does, in-process: one request
    // fanned across all four strategies, each answer identical to asking
    // for that strategy directly.
    let mut fan = session();
    let fanned: Vec<_> = SegmenterSpec::all_for(60)
        .into_iter()
        .map(|spec| fan.explain(&base_request().with_segmenter(spec)).unwrap())
        .collect();
    for (spec, fanned_result) in SegmenterSpec::all_for(60).into_iter().zip(&fanned) {
        let mut solo = session();
        let direct = solo.explain(&base_request().with_segmenter(spec)).unwrap();
        assert_eq!(direct.segmentation, fanned_result.segmentation);
        assert_eq!(direct.total_variance, fanned_result.total_variance);
    }
    // All four objectives are on one scale; the DP's is the minimum among
    // strategies that settled on the same K.
    let dp = &fanned[0];
    for other in &fanned[1..] {
        if other.chosen_k == dp.chosen_k {
            assert!(dp.total_variance <= other.total_variance + 1e-9);
        }
    }
}
