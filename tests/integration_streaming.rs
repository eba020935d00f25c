//! The §8 real-time extension end to end: a streamed refresh vs. batch,
//! and a seasonal KPI explained from its raw series.

use tsexplain::{
    AggQuery, Datum, ExplainRequest, ExplainSession, Field, Optimizations, Relation, Schema,
};

fn schema() -> Schema {
    Schema::new(vec![
        Field::dimension("t"),
        Field::dimension("state"),
        Field::measure("v"),
    ])
    .unwrap()
}

/// Two-phase KPI rows: NY drives 0..15, CA drives 15..n.
fn rows_for(range: std::ops::Range<i64>) -> Vec<Vec<Datum>> {
    let mut rows = Vec::new();
    for t in range {
        let ny = if t <= 15 { 10.0 * t as f64 } else { 150.0 };
        let ca = if t <= 15 {
            5.0
        } else {
            5.0 + 12.0 * (t - 15) as f64
        };
        rows.push(vec![Datum::Attr(t.into()), "NY".into(), ny.into()]);
        rows.push(vec![Datum::Attr(t.into()), "CA".into(), ca.into()]);
    }
    rows
}

fn request() -> ExplainRequest {
    ExplainRequest::new(["state"]).with_optimizations(Optimizations::none())
}

/// A session over no rows yet: a stream that starts cold.
fn empty_session() -> ExplainSession {
    ExplainSession::new(
        Relation::builder(schema()).finish(),
        AggQuery::sum("t", "v"),
    )
    .unwrap()
}

#[test]
fn streaming_replay_matches_batch() {
    let mut batch = empty_session();
    batch.append_rows(rows_for(0..30)).unwrap();
    let full = batch.refresh(&request()).unwrap();

    let mut live = empty_session();
    for chunk in [0..10i64, 10..18, 18..25, 25..30] {
        live.append_rows(rows_for(chunk)).unwrap();
        live.refresh(&request()).unwrap();
    }
    let replayed = live.refresh(&request()).unwrap();
    assert_eq!(replayed.stats.n_points, 30);
    assert_eq!(replayed.segmentation.cuts(), full.segmentation.cuts());
    assert_eq!(
        replayed.segments[0].explanations[0].label,
        full.segments[0].explanations[0].label
    );
}

#[test]
fn streaming_keeps_top_explanations_current() {
    let mut live = empty_session();
    live.append_rows(rows_for(0..12)).unwrap();
    let early = live.refresh(&request()).unwrap();
    // Only the NY phase is visible so far.
    assert!(early
        .segments
        .iter()
        .all(|s| s.explanations[0].label == "state=NY"));

    live.append_rows(rows_for(12..30)).unwrap();
    let later = live.refresh(&request()).unwrap();
    let last = later.segments.last().unwrap();
    assert_eq!(last.explanations[0].label, "state=CA");
}

#[test]
fn seasonal_trend_feeds_the_explainer() {
    // A seasonal KPI whose *trend* has a contributor change at t = 24.
    let n = 48i64;
    let period = 6;
    let schema = schema();
    let mut b = Relation::builder(schema.clone());
    let mut aggregate = Vec::new();
    for t in 0..n {
        let season = 8.0 * ((t % period) as f64 / period as f64 * std::f64::consts::TAU).sin();
        let ny = if t <= 24 { 4.0 * t as f64 } else { 96.0 };
        let ca = if t <= 24 {
            2.0
        } else {
            2.0 + 6.0 * (t - 24) as f64
        };
        b.push_row(vec![
            Datum::Attr(t.into()),
            "NY".into(),
            (ny + season / 2.0).into(),
        ])
        .unwrap();
        b.push_row(vec![
            Datum::Attr(t.into()),
            "CA".into(),
            (ca + season / 2.0).into(),
        ])
        .unwrap();
        aggregate.push(ny + ca + season);
    }
    let relation = b.finish();
    let query = AggQuery::sum("t", "v");
    let ts = query.run(&relation).unwrap();
    for (a, b) in ts.values.iter().zip(&aggregate) {
        assert!((a - b).abs() < 1e-9);
    }

    // Explaining the raw (seasonal) series still finds the regime change,
    // because the explanation signal lives in the slices, not the shape.
    let mut session = ExplainSession::new(relation, query).unwrap();
    let result = session.explain(&request().with_fixed_k(2)).unwrap();
    let cut = result.segmentation.cuts()[0];
    assert!((22..=26).contains(&cut), "cut at {cut}");
}
