//! Scoring-scan regression guards for the columnar hot-path engine.
//!
//! Wall-clock assertions flake under CI noise; *call counts* do not. The
//! pipeline reports two deterministic counters per request — the logical
//! top-m workload (`stats.ca_calls`, memo- and thread-independent) and the
//! memo traffic (`latency.memo`) — and `ca_calls − memo.hits` is exactly
//! the number of centroid derivations performed under the default (Tse)
//! variance metric. This suite pins those counts for the `/compare`-shaped
//! auto-K fan-out on the liquor workload (Table 6's densest), and the
//! work the session's segment memo leaves to a covid explain after a
//! one-day append: a change that quietly reintroduces redundant γ scans
//! fails here, loudly, on any machine.

use tsexplain::{
    AggQuery, AttrValue, Datum, ExplainRequest, ExplainResult, ExplainSession, Optimizations,
    Relation, SegmenterSpec, STRATEGIES,
};
use tsexplain_datagen::{covid, liquor};
use tsexplain_relation::Column;

/// Derivations actually performed: the logical workload minus what the
/// segment memo served (one avoided derivation per hit under the
/// centroid metric the default request uses).
fn derivations(result: &ExplainResult) -> u64 {
    result.stats.ca_calls - result.latency.memo.hits
}

/// The auto-K `/compare` fan-out, in-process: one liquor request served
/// by all four strategies from one session (one shared cube), exactly
/// what the server route does per tenant.
fn compare_results() -> Vec<ExplainResult> {
    let workload = liquor::generate(0).workload();
    let mut session =
        ExplainSession::new(workload.relation.clone(), workload.query.clone()).unwrap();
    let base =
        ExplainRequest::new(workload.explain_by.clone()).with_optimizations(Optimizations::all());
    SegmenterSpec::all_for(128)
        .into_iter()
        .map(|spec| session.explain(&base.clone().with_segmenter(spec)).unwrap())
        .collect()
}

#[test]
fn auto_k_compare_on_liquor_stays_under_the_call_budget() {
    let results = compare_results();
    assert_eq!(results.len(), STRATEGIES.len());

    let mut total_logical = 0u64;
    let mut total_derived = 0u64;
    let mut total_hits = 0u64;
    for result in &results {
        total_logical += result.stats.ca_calls;
        total_derived += derivations(result);
        total_hits += result.latency.memo.hits;
        assert!(
            result.latency.memo.misses > 0,
            "{}: a priced request must record memo misses",
            result.strategy
        );
    }

    // The memo must be visibly working on this workload: the auto-K
    // sweeps of the shape strategies share most of their segments, and
    // the DP's final per-segment description re-prices matrix cells.
    assert!(
        total_hits > 0,
        "memo hits must be > 0 across the /compare fan-out"
    );
    assert!(
        total_derived < total_logical,
        "derived {total_derived} must be < logical {total_logical}"
    );

    // Pinned budgets (deterministic: counts, not wall-clock). Observed:
    // logical 3489 (dp 2727, bottom_up 330, nnsegment 243, fluss 189) and
    // derived 3011 — the memo serves 478 repeat pricings, over half of
    // every shape strategy's sweep. The small margin is headroom for
    // intentional workload-shape changes, not for scan regressions: a
    // reintroduced per-k re-pricing multiplies the counts well past it.
    const DERIVED_BUDGET: u64 = 3_100;
    const LOGICAL_BUDGET: u64 = 3_600;
    assert!(
        total_derived <= DERIVED_BUDGET,
        "derived top-m calls {total_derived} blew the {DERIVED_BUDGET} budget"
    );
    assert!(
        total_logical <= LOGICAL_BUDGET,
        "logical ca_calls {total_logical} blew the {LOGICAL_BUDGET} budget"
    );
}

#[test]
fn memo_counters_reach_the_serving_surface() {
    // The memo's effect must be readable from a result without touching
    // internals: hits + misses in the latency block, the unchanged
    // workload metric in stats.
    let results = compare_results();
    for result in &results {
        assert!(result.stats.ca_calls >= result.latency.memo.hits);
        assert!(derivations(result) > 0, "{}", result.strategy);
    }
    // At least the shape strategies' auto-K sweeps must hit (nested
    // proposals share segments across k).
    let shape_hits: u64 = results
        .iter()
        .filter(|r| r.strategy != "dp")
        .map(|r| r.latency.memo.hits)
        .sum();
    assert!(shape_hits > 0);
}

/// Raw rows (schema order) of a relation.
fn rows_of(relation: &Relation) -> Vec<Vec<Datum>> {
    let width = relation.schema().len();
    let mut rows = vec![Vec::with_capacity(width); relation.n_rows()];
    for idx in 0..width {
        match relation.column(idx) {
            Column::Dimension(col) => {
                for (row, &code) in col.codes().iter().enumerate() {
                    rows[row].push(Datum::Attr(col.dict().value(code).clone()));
                }
            }
            Column::Measure(values) => {
                for (row, &v) in values.iter().enumerate() {
                    rows[row].push(Datum::Num(v));
                }
            }
        }
    }
    rows
}

/// The first half of covid daily (as served-mixed's private tenants
/// register it) and the rows of the day after it.
fn covid_daily_half() -> (Relation, AggQuery, Vec<String>, Vec<Vec<Datum>>) {
    let workload = covid::generate(0).daily_workload();
    let rows = rows_of(&workload.relation);
    let date = |row: &[Datum]| match &row[0] {
        Datum::Attr(day) => day.clone(),
        Datum::Num(_) => unreachable!("the date is a dimension"),
    };
    let mut days: Vec<AttrValue> = rows.iter().map(|row| date(row)).collect();
    days.sort();
    days.dedup();
    let next = days[days.len() / 2].clone();
    let mut base = Relation::builder(workload.relation.schema().clone());
    let mut appended = Vec::new();
    for row in rows {
        let day = date(&row);
        if day < next {
            base.push_row(row).unwrap();
        } else if day == next {
            appended.push(row);
        }
    }
    (base.finish(), workload.query, workload.explain_by, appended)
}

#[test]
fn an_explain_after_a_one_day_append_rederives_a_fifth_at_most() {
    let (relation, query, explain_by, next_day) = covid_daily_half();
    let request = ExplainRequest::new(explain_by).with_threads(1);

    let mut warm = ExplainSession::new(relation.clone(), query.clone()).unwrap();
    warm.explain(&request).unwrap();
    warm.append_rows(next_day.clone()).unwrap();
    let after = warm.explain(&request).unwrap();

    let mut cold = ExplainSession::new(relation, query).unwrap();
    cold.append_rows(next_day).unwrap();
    let fresh = cold.explain(&request).unwrap();

    // The logical workload is what a cold run reports.
    assert_eq!(after.stats.ca_calls, fresh.stats.ca_calls);
    assert_eq!(after.segmentation, fresh.segmentation);
    // Only the segments that read the new day are derived again.
    assert!(
        derivations(&after) * 5 <= derivations(&fresh),
        "warm {} vs cold {} derivations",
        derivations(&after),
        derivations(&fresh)
    );
    // An identical repeat derives only the chosen segments' descriptions.
    let repeat = warm.explain(&request).unwrap();
    assert_eq!(repeat.stats.ca_calls, fresh.stats.ca_calls);
    assert_eq!(derivations(&repeat), repeat.chosen_k as u64);
    assert_eq!(repeat.latency.memo.misses, 0);
}
