//! Real-time explanation (paper §8): stream a KPI in chunks and refresh
//! the evolving explanations incrementally with `ExplainSession::refresh`
//! — the settled past keeps its cut points, the fresh tail is segmented
//! at full resolution, and the session extends its explanation cube in
//! O(new rows) per chunk instead of re-aggregating all history.
//!
//! Run with `cargo run --release --example streaming_explain`.

use tsexplain::{
    AggQuery, Datum, ExplainRequest, ExplainSession, Field, Optimizations, Relation, Schema,
};

/// A three-phase KPI: NY drives days 0..20, CA 20..40, TX 40..60.
fn rows_for(range: std::ops::Range<i64>) -> Vec<Vec<Datum>> {
    let mut rows = Vec::new();
    for t in range {
        let ny = if t <= 20 { 6.0 * t as f64 } else { 120.0 };
        let ca = if t <= 20 {
            4.0
        } else if t <= 40 {
            4.0 + 7.0 * (t - 20) as f64
        } else {
            144.0
        };
        let tx = if t <= 40 {
            9.0
        } else {
            9.0 + 8.0 * (t - 40) as f64
        };
        for (s, v) in [("NY", ny), ("CA", ca), ("TX", tx)] {
            rows.push(vec![Datum::Attr(t.into()), Datum::from(s), Datum::from(v)]);
        }
    }
    rows
}

fn main() {
    let schema = Schema::new(vec![
        Field::dimension("t"),
        Field::dimension("state"),
        Field::measure("v"),
    ])
    .expect("valid schema");
    let request = ExplainRequest::new(["state"]).with_optimizations(Optimizations::none());
    // The stream starts cold: a session over no rows yet.
    let mut session =
        ExplainSession::new(Relation::builder(schema).finish(), AggQuery::sum("t", "v"))
            .expect("valid query");

    for (chunk, range) in [(1, 0..25i64), (2, 25..45), (3, 45..60)] {
        session
            .append_rows(rows_for(range))
            .expect("tail-ordered rows");
        let result = session.refresh(&request).expect("explainable");
        println!(
            "after chunk {chunk}: n = {}, K = {}, candidate positions = {}",
            result.stats.n_points, result.chosen_k, result.stats.candidate_positions
        );
        for seg in &result.segments {
            let top = seg
                .explanations
                .first()
                .map(|e| format!("{} ({})", e.label, e.effect))
                .unwrap_or_else(|| "-".into());
            println!("    {} ~ {}: {}", seg.start_time, seg.end_time, top);
        }
    }
    let stats = session.stats();
    println!("\nEach refresh reuses the previous cut points as candidates,");
    println!("so the DP only works at full resolution on the new tail.");
    println!(
        "Session cache: {} cube built, {} incremental refreshes, {} full rebuilds.",
        stats.cubes_built, stats.cube_refreshes, stats.rebuilds
    );
}
