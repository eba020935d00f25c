//! A session's segment memos outlive each request and survive tail
//! appends; this pins that they never change an answer. Random sequences
//! of appends (new timestamps, partial reports on the horizon day,
//! restated history) interleave with random requests, and every warm
//! answer must equal, byte for byte, a cold session's answer over the same
//! rows: `ca_calls` included, at threads 1, 2 and 8. After every step two
//! fixed windows are asked as well, one in the settled past and one that
//! ends at the horizon, so each slice memo is asked again across every
//! kind of append.

use proptest::prelude::*;
use tsexplain::{
    AggQuery, Datum, DiffMetric, ExplainRequest, ExplainResult, ExplainSession, Field,
    Optimizations, Relation, Schema, SegmenterSpec, SketchConfig, TsExplainError, VarianceMetric,
};

fn schema() -> Schema {
    Schema::new(vec![
        Field::dimension("t"),
        Field::dimension("a"),
        Field::dimension("b"),
        Field::measure("v"),
    ])
    .unwrap()
}

/// Reads successive small numbers out of one random draw.
struct Bits(u64);

impl Bits {
    fn pick(&mut self, n: u64) -> u64 {
        let out = self.0 % n;
        self.0 /= n;
        out
    }
}

/// One day's rows (or a partial report of it) at timestamp `t`: one row
/// per `a` value, `b` and the measure drawn from `seed`.
fn day(t: i64, seed: u64) -> Vec<Vec<Datum>> {
    let mut bits = Bits(seed);
    let rows = 1 + bits.pick(3);
    (0..rows)
        .map(|i| {
            vec![
                Datum::Attr(t.into()),
                Datum::Attr(((i + bits.pick(2)) as i64 % 3).into()),
                Datum::Attr((bits.pick(2) as i64).into()),
                Datum::from(1.0 + bits.pick(40) as f64),
            ]
        })
        .collect()
}

/// A request drawn from `seed`: one or two explain-by attributes, and the
/// knobs of [`request_by`].
fn request(seed: u64, n: usize) -> ExplainRequest {
    let mut bits = Bits(seed);
    let explain_by: &[&str] = if bits.pick(2) == 0 {
        &["a"]
    } else {
        &["a", "b"]
    };
    request_by(explain_by, bits, n)
}

/// A request by `explain_by` drawn from `bits`: m, all three difference
/// metrics, a centroid and an all-pair variance metric, exact or
/// guess-and-verify, with or without the filter and sketching, fixed or
/// auto K, smoothing 1/3/7, an optional time range within the `n` points,
/// every strategy and threads 1/2/8.
fn request_by(explain_by: &[&str], mut bits: Bits, n: usize) -> ExplainRequest {
    let diff = [
        DiffMetric::AbsoluteChange,
        DiffMetric::RelativeChange,
        DiffMetric::RiskRatio,
    ][bits.pick(3) as usize];
    let variance = [VarianceMetric::Tse, VarianceMetric::AllPair][bits.pick(2) as usize];
    let optimizations = Optimizations {
        filter_ratio: [None, Some(0.2)][bits.pick(2) as usize],
        guess_and_verify: [None, Some(1), Some(30)][bits.pick(3) as usize],
        sketching: [None, Some(SketchConfig::default())][bits.pick(2) as usize],
    };
    let mut request = ExplainRequest::new(explain_by.iter().copied())
        .with_top_m(1 + bits.pick(3) as usize)
        .with_diff_metric(diff)
        .with_variance_metric(variance)
        .with_optimizations(optimizations)
        .with_smoothing([1, 3, 7][bits.pick(3) as usize])
        .with_segmenter(SegmenterSpec::all_for(n)[bits.pick(4) as usize])
        .with_threads([1, 2, 8][bits.pick(3) as usize]);
    if bits.pick(2) == 0 {
        request = request.with_fixed_k(1 + bits.pick(3) as usize);
    }
    if bits.pick(3) == 0 {
        let lo = bits.pick(n as u64 / 2) as i64;
        request = request.with_time_range(lo, lo + 2 + bits.pick(n as u64) as i64);
    }
    request
}

/// An answer's canonical JSON: latency (wall-clock and memo traffic) and
/// the cube's cache provenance stripped, everything else, `ca_calls`
/// included, kept. Errors compare by their debug form.
fn canonical(result: Result<ExplainResult, TsExplainError>) -> String {
    match result {
        Ok(result) => {
            let mut value = serde_json::to_value(&result);
            if let serde::Value::Object(map) = &mut value {
                map.remove("latency");
                if let Some(serde::Value::Object(stats)) = map.get_mut("stats") {
                    stats.remove("cube_from_cache");
                }
            }
            serde_json::to_string(&value).unwrap()
        }
        Err(err) => format!("{err:?}"),
    }
}

fn session(base: &[Vec<Datum>]) -> ExplainSession {
    let mut builder = Relation::builder(schema());
    for row in base {
        builder.push_row(row.clone()).unwrap();
    }
    ExplainSession::new(builder.finish(), AggQuery::sum("t", "v")).unwrap()
}

/// A cold session over `base` and then the `appended` batches.
fn cold_session(base: &[Vec<Datum>], appended: &[Vec<Vec<Datum>>]) -> ExplainSession {
    let mut cold = session(base);
    for batch in appended {
        cold.append_rows(batch.clone()).unwrap();
    }
    cold
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn warm_answers_equal_cold_sessions_over_the_same_rows(
        base_days in 4u64..9,
        requests in proptest::collection::vec(0u64..u64::MAX, 3),
        ops in proptest::collection::vec((0u8..6, 0u64..u64::MAX), 4..12),
    ) {
        let mut base = Vec::new();
        for t in 0..base_days as i64 {
            base.extend(day(t, t as u64 * 7919 + base_days));
        }
        let mut warm = session(&base);
        let mut appended: Vec<Vec<Vec<Datum>>> = Vec::new();
        let mut last = base_days as i64 - 1;
        for (kind, seed) in ops {
            match kind {
                // A new timestamp.
                0 => {
                    last += 1;
                    appended.push(day(last, seed));
                }
                // A partial report on the horizon day.
                1 => appended.push(day(last, seed)),
                // Restated history: a report on a settled day.
                2 => appended.push(day((seed % last as u64) as i64, seed)),
                // A request, warm and cold.
                _ => {
                    let n = warm.n_points();
                    let request = request(requests[(seed % 3) as usize], n);
                    prop_assert_eq!(
                        canonical(warm.explain(&request)),
                        canonical(cold_session(&base, &appended).explain(&request)),
                        "request {:?} after {} appends",
                        request,
                        appended.len()
                    );
                }
            }
            if kind < 3 {
                warm.append_rows(appended.last().unwrap().clone()).unwrap();
            }
            // The two fixed windows, each on a cube of its own so that
            // neither replaces the other's slice memo, and each with a
            // strategy sized for its points.
            let windows = [
                request_by(&["a"], Bits(requests[0]), 4).with_time_range(0i64, 3i64),
                request_by(&["a", "b"], Bits(requests[1]), last as usize - 1)
                    .with_time_range(2i64, last),
            ];
            let mut cold = cold_session(&base, &appended);
            for window in &windows {
                prop_assert_eq!(
                    canonical(warm.explain(window)),
                    canonical(cold.explain(window)),
                    "window {:?} after {} appends",
                    window,
                    appended.len()
                );
            }
        }
    }
}
