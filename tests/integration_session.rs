//! Acceptance tests for the session-oriented serving API: one registered
//! dataset serving many requests from a single prepared cube, batch
//! `explain` and the streamed §8 `refresh` agreeing, upfront request
//! validation, and JSON-serializable responses.

use tsexplain::{
    AggQuery, AttrValue, Datum, DiffMetric, ExplainRequest, ExplainResult, ExplainSession, Field,
    InvalidRequest, Optimizations, Relation, Schema, TsExplainError,
};

fn schema() -> Schema {
    Schema::new(vec![
        Field::dimension("t"),
        Field::dimension("state"),
        Field::measure("v"),
    ])
    .unwrap()
}

/// Three-phase KPI rows: NY drives 0..10, CA 10..20, TX 20..30.
fn rows_for(range: std::ops::Range<i64>) -> Vec<Vec<Datum>> {
    let mut rows = Vec::new();
    for t in range {
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
            rows.push(vec![Datum::Attr(t.into()), Datum::from(s), Datum::from(v)]);
        }
    }
    rows
}

fn relation(range: std::ops::Range<i64>) -> Relation {
    let mut b = Relation::builder(schema());
    for row in rows_for(range) {
        b.push_row(row).unwrap();
    }
    b.finish()
}

fn request() -> ExplainRequest {
    ExplainRequest::new(["state"]).with_optimizations(Optimizations::none())
}

#[test]
fn one_session_serves_many_requests_with_one_precompute() {
    let mut session = ExplainSession::new(relation(0..30), AggQuery::sum("t", "v")).unwrap();

    // Three requests with differing K / top-m / difference metric.
    let auto = session.explain(&request()).unwrap();
    let fixed = session.explain(&request().with_fixed_k(2)).unwrap();
    let relative = session
        .explain(
            &request()
                .with_top_m(1)
                .with_diff_metric(DiffMetric::RelativeChange),
        )
        .unwrap();

    // The explanation cube was built exactly once.
    let stats = session.stats();
    assert_eq!(stats.requests, 3);
    assert_eq!(stats.cubes_built, 1, "cube must be built exactly once");
    assert_eq!(stats.cube_cache_hits, 2);
    assert!(!auto.stats.cube_from_cache);
    assert!(fixed.stats.cube_from_cache);
    assert!(relative.stats.cube_from_cache);

    // And every request still got its own knobs.
    assert_eq!(auto.chosen_k, 3);
    assert_eq!(fixed.chosen_k, 2);
    assert!(relative.segments.iter().all(|s| s.explanations.len() <= 1));
    let tops: Vec<&str> = auto
        .segments
        .iter()
        .map(|s| s.explanations[0].label.as_str())
        .collect();
    assert_eq!(tops, vec!["state=NY", "state=CA", "state=TX"]);
}

#[test]
fn cache_hits_are_bit_identical_to_cold_runs() {
    let mut warm = ExplainSession::new(relation(0..30), AggQuery::sum("t", "v")).unwrap();
    let miss = warm.explain(&request()).unwrap();
    let hit = warm.explain(&request()).unwrap();
    let mut cold = ExplainSession::new(relation(0..30), AggQuery::sum("t", "v")).unwrap();
    let fresh = cold.explain(&request()).unwrap();

    for (name, other) in [("cache hit", &hit), ("cold run", &fresh)] {
        assert_eq!(other.segmentation, miss.segmentation, "{name}");
        assert_eq!(other.chosen_k, miss.chosen_k, "{name}");
        assert_eq!(other.total_variance, miss.total_variance, "{name}");
        assert_eq!(other.k_variance_curve, miss.k_variance_curve, "{name}");
        assert_eq!(other.aggregate, miss.aggregate, "{name}");
        assert_eq!(other.timestamps, miss.timestamps, "{name}");
        for (a, b) in miss.segments.iter().zip(&other.segments) {
            assert_eq!(a.start, b.start);
            assert_eq!(a.end, b.end);
            assert_eq!(a.variance, b.variance, "{name}");
            let labels = |s: &tsexplain::SegmentExplanation| -> Vec<(String, f64)> {
                s.explanations
                    .iter()
                    .map(|e| (e.label.clone(), e.gamma))
                    .collect()
            };
            assert_eq!(labels(a), labels(b), "{name}");
        }
    }
    assert!(hit.stats.cube_from_cache);
    assert!(!fresh.stats.cube_from_cache);
}

#[test]
fn batch_and_streaming_agree() {
    // The same data, registered at once and explained, or streamed in
    // chunks and refreshed.
    let mut batch = ExplainSession::new(relation(0..30), AggQuery::sum("t", "v")).unwrap();
    let empty = Relation::builder(schema()).finish();
    let mut streaming = ExplainSession::new(empty, AggQuery::sum("t", "v")).unwrap();
    for chunk in [0..12i64, 12..22, 22..30] {
        streaming.append_rows(rows_for(chunk)).unwrap();
        streaming.refresh(&request()).unwrap();
    }

    let results = [
        batch.explain(&request()).unwrap(),
        streaming.refresh(&request()).unwrap(),
    ];
    let mut cuts = Vec::new();
    let mut labels = Vec::new();
    for result in results {
        assert_eq!(result.stats.n_points, 30);
        cuts.push(result.segmentation.cuts().to_vec());
        labels.push(
            result
                .segments
                .iter()
                .map(|s| s.explanations[0].label.clone())
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(cuts[0], cuts[1], "batch and streaming must agree on cuts");
    assert_eq!(labels[0], labels[1]);
}

#[test]
fn invalid_requests_are_rejected_upfront() {
    let mut session = ExplainSession::new(relation(0..30), AggQuery::sum("t", "v")).unwrap();

    // Unknown explain-by attribute.
    let err = session
        .explain(&ExplainRequest::new(["country"]))
        .unwrap_err();
    assert!(matches!(
        err,
        TsExplainError::InvalidRequest(InvalidRequest::UnknownAttribute(a)) if a == "country"
    ));
    // Empty explain-by set.
    let err = session
        .explain(&ExplainRequest::new(Vec::<String>::new()))
        .unwrap_err();
    assert!(matches!(
        err,
        TsExplainError::InvalidRequest(InvalidRequest::EmptyExplainBy)
    ));
    // The time attribute cannot explain itself.
    let err = session.explain(&ExplainRequest::new(["t"])).unwrap_err();
    assert!(matches!(
        err,
        TsExplainError::InvalidRequest(InvalidRequest::TimeAttrInExplainBy(_))
    ));
    // No pipeline work happened for any rejected request.
    assert_eq!(session.stats().cubes_built, 0);

    // Infeasible fixed K: n = 30 admits at most 29 segments.
    let err = session.explain(&request().with_fixed_k(30)).unwrap_err();
    assert!(matches!(
        err,
        TsExplainError::InvalidRequest(InvalidRequest::InfeasibleK { k: 30, n: 30 })
    ));
    assert!(session.explain(&request().with_fixed_k(29)).is_ok());

    // The error is also printable for a service boundary.
    let message =
        TsExplainError::InvalidRequest(InvalidRequest::UnknownAttribute("country".into()))
            .to_string();
    assert!(message.contains("country"), "{message}");
}

#[test]
fn responses_roundtrip_as_json() {
    let mut session = ExplainSession::new(relation(0..30), AggQuery::sum("t", "v")).unwrap();
    let result = session.explain(&request().with_fixed_k(3)).unwrap();

    let json = serde_json::to_string(&result).unwrap();
    let back: ExplainResult = serde_json::from_str(&json).unwrap();

    // Cuts, labels and stats survive the service boundary.
    assert_eq!(back.segmentation, result.segmentation);
    assert_eq!(back.chosen_k, result.chosen_k);
    assert_eq!(back.stats, result.stats);
    assert_eq!(back.timestamps, result.timestamps);
    assert_eq!(back.aggregate, result.aggregate);
    assert_eq!(back.total_variance, result.total_variance);
    assert_eq!(back.segments.len(), result.segments.len());
    for (a, b) in result.segments.iter().zip(&back.segments) {
        assert_eq!(a.start, b.start);
        assert_eq!(a.end, b.end);
        assert_eq!(a.start_time, b.start_time);
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.variance, b.variance);
        for (x, y) in a.explanations.iter().zip(&b.explanations) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.gamma, y.gamma);
            assert_eq!(x.effect, y.effect);
            assert_eq!(x.series, y.series);
        }
    }

    // Requests cross the boundary too (e.g. a thin HTTP front-end).
    let wire = serde_json::to_string(&request().with_fixed_k(3)).unwrap();
    let parsed: ExplainRequest = serde_json::from_str(&wire).unwrap();
    let replayed = session.explain(&parsed).unwrap();
    assert_eq!(replayed.segmentation, result.segmentation);
}

#[test]
fn time_windows_reuse_the_full_horizon_cube() {
    let mut session = ExplainSession::new(relation(0..30), AggQuery::sum("t", "v")).unwrap();
    let full = session.explain(&request()).unwrap();
    let windowed = session
        .explain(&request().with_time_range(10i64, 20i64).with_fixed_k(1))
        .unwrap();
    assert_eq!(windowed.stats.n_points, 11);
    assert_eq!(windowed.timestamps[0], AttrValue::from(10));
    assert_eq!(*windowed.timestamps.last().unwrap(), AttrValue::from(20));
    // CA drives exactly that window.
    assert_eq!(windowed.segments[0].explanations[0].label, "state=CA");
    // One cube serves both the full horizon and the window.
    assert_eq!(session.stats().cubes_built, 1);
    assert!(full.stats.n_points > windowed.stats.n_points);
}

#[test]
fn live_appends_flow_through_both_explainers() {
    let query = AggQuery::sum("t", "v");
    let mut session = ExplainSession::new(relation(0..15), query.clone()).unwrap();
    session.explain(&request()).unwrap();
    session.append_rows(rows_for(15..30)).unwrap();
    let batch = session.explain(&request()).unwrap();
    assert_eq!(batch.stats.n_points, 30);
    assert_eq!(session.stats().cubes_built, 1, "append must not rebuild");

    let mut streaming = ExplainSession::new(relation(0..15), query).unwrap();
    streaming.refresh(&request()).unwrap();
    streaming.append_rows(rows_for(15..30)).unwrap();
    let live = streaming.refresh(&request()).unwrap();
    assert_eq!(live.stats.n_points, 30);
    assert_eq!(live.segmentation.cuts(), batch.segmentation.cuts());
}
