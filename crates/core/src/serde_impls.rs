//! JSON serialization of the request/response layer (vendored-serde
//! impls), so [`ExplainRequest`]s and [`ExplainResult`]s can cross a
//! service boundary as JSON.
//!
//! Deserialized responses are structurally revalidated where it matters —
//! a [`Segmentation`](tsexplain_segment::Segmentation) re-runs its
//! invariant checks on the way in — and the encoding is stable: plain
//! objects with snake_case members, enums as their paper-facing names.
//! Requests deserialize *default-tolerantly*: only `explain_by` is
//! required, every other member falls back to the paper's default when
//! absent — `{"explain_by": ["state"]}` is a complete wire request, and
//! `{"explain_by": ["state"], "segmenter": {"strategy": "fluss",
//! "window": 12}}` selects a baseline strategy.

use serde::{record, Deserialize, Error, Serialize, Value};

use tsexplain_relation::AttrValue;
use tsexplain_segment::KSelection;

use crate::config::Optimizations;
use crate::request::ExplainRequest;
use crate::result::{ExplainResult, ExplanationItem, PipelineStats, SegmentExplanation};
use crate::segmenter::SegmenterSpec;

// Members decode in the listed order, so the first bad one names the error.
record!(PipelineStats {
    epsilon,
    filtered_epsilon,
    n_points,
    ca_calls,
    candidate_positions,
    cube_from_cache,
});
record!(ExplanationItem {
    label,
    gamma,
    effect,
    series,
});
record!(SegmentExplanation {
    start,
    end,
    start_time,
    end_time,
    explanations,
    variance,
});
// Results predating the strategy field default to the DP.
record!(ExplainResult {
    strategy = "dp".to_string(),
    segmentation,
    chosen_k,
    k_variance_curve,
    total_variance,
    segments,
    timestamps,
    aggregate,
    latency,
    stats,
});
record!(Optimizations {
    filter_ratio,
    guess_and_verify,
    sketching,
});

impl Serialize for SegmenterSpec {
    fn serialize(&self) -> Value {
        let mut members = vec![("strategy", Value::String(self.name().into()))];
        if let Some(w) = self.window() {
            members.push(("window", w.serialize()));
        }
        Value::object(members)
    }
}

impl Deserialize for SegmenterSpec {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let name = value
            .get("strategy")
            .and_then(Value::as_str)
            .ok_or_else(|| Error::new("expected a segmenter object with a \"strategy\" member"))?;
        match name {
            "dp" => Ok(SegmenterSpec::Dp),
            "bottom_up" => Ok(SegmenterSpec::BottomUp),
            "fluss" => Ok(SegmenterSpec::Fluss {
                window: value.field("window")?,
            }),
            "nnsegment" => Ok(SegmenterSpec::NnSegment {
                window: value.field("window")?,
            }),
            other => Err(Error::new(format!(
                "unknown segmentation strategy {other:?} \
                 (expected \"dp\", \"bottom_up\", \"fluss\" or \"nnsegment\")"
            ))),
        }
    }
}

impl Serialize for ExplainRequest {
    fn serialize(&self) -> Value {
        Value::object([
            ("explain_by", self.explain_by().serialize()),
            ("top_m", self.top_m().serialize()),
            ("max_order", self.max_order().serialize()),
            ("diff_metric", self.diff_metric().serialize()),
            ("variance_metric", self.variance_metric().serialize()),
            ("k", self.k_selection().serialize()),
            ("optimizations", self.optimizations().serialize()),
            ("smoothing_window", self.smoothing_window().serialize()),
            ("time_range", self.time_range().serialize()),
            ("segmenter", self.segmenter().serialize()),
            ("threads", self.threads().serialize()),
            ("timeout_ms", self.timeout_ms().serialize()),
        ])
    }
}

impl Deserialize for ExplainRequest {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let explain_by: Vec<String> = value.field("explain_by")?;
        let defaults = ExplainRequest::new(Vec::<String>::new());
        let mut request = ExplainRequest::new(explain_by)
            .with_top_m(value.field_or("top_m", defaults.top_m())?)
            .with_max_order(value.field_or("max_order", defaults.max_order())?)
            .with_diff_metric(value.field_or("diff_metric", defaults.diff_metric())?)
            .with_variance_metric(value.field_or("variance_metric", defaults.variance_metric())?)
            .with_optimizations(value.field_or("optimizations", defaults.optimizations())?)
            .with_smoothing(value.field_or("smoothing_window", defaults.smoothing_window())?)
            .with_segmenter(value.field_or("segmenter", defaults.segmenter())?);
        if let Some(threads) = value.field_or::<Option<usize>>("threads", None)? {
            request = request.with_threads(threads);
        }
        // The client's requested time budget; the serving layer clamps it
        // to the server cap when minting the deadline. The runtime cancel
        // token is deliberately NOT a wire member.
        if let Some(timeout_ms) = value.field_or::<Option<u64>>("timeout_ms", None)? {
            request = request.with_timeout_ms(timeout_ms);
        }
        request = match value.field_or("k", defaults.k_selection())? {
            KSelection::Auto { max_k } => request.with_max_k(max_k),
            KSelection::Fixed(k) => request.with_fixed_k(k),
        };
        if let Some((start, end)) =
            value.field_or::<Option<(AttrValue, AttrValue)>>("time_range", None)?
        {
            request = request.with_time_range(start, end);
        }
        Ok(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::time::Duration;
    use tsexplain_diff::{DiffMetric, Effect};
    use tsexplain_relation::AttrValue;
    use tsexplain_segment::{LatencyBreakdown, MemoCounters, ParallelTimings, Segmentation};

    fn sample_result() -> ExplainResult {
        ExplainResult {
            strategy: "dp".into(),
            segmentation: Segmentation::new(5, vec![2]).unwrap(),
            chosen_k: 2,
            k_variance_curve: vec![(1, 3.0), (2, 1.0)],
            total_variance: 1.0,
            segments: vec![SegmentExplanation {
                start: 0,
                end: 2,
                start_time: AttrValue::from("d0"),
                end_time: AttrValue::from("d2"),
                explanations: vec![ExplanationItem {
                    label: "state=NY".into(),
                    gamma: 12.5,
                    effect: Effect::Plus,
                    series: vec![0.0, 5.0, 12.5],
                }],
                variance: 0.125,
            }],
            timestamps: ["d0", "d1", "d2", "d3", "d4"].map(AttrValue::from).to_vec(),
            aggregate: vec![0.0, 5.0, 12.5, 12.5, 12.5],
            latency: LatencyBreakdown {
                precompute: Duration::from_micros(1500),
                cascading: Duration::from_micros(250),
                segmentation: Duration::from_micros(40),
                parallel: ParallelTimings {
                    threads: 4,
                    cascading: Duration::from_micros(200),
                    segmentation: Duration::from_micros(10),
                },
                memo: MemoCounters {
                    hits: 21,
                    misses: 190,
                },
            },
            stats: PipelineStats {
                epsilon: 3,
                filtered_epsilon: 2,
                n_points: 5,
                ca_calls: 9,
                candidate_positions: 5,
                cube_from_cache: true,
            },
        }
    }

    #[test]
    fn result_roundtrips_through_json_text() {
        let result = sample_result();
        let json = serde_json::to_string(&result).unwrap();
        let back: ExplainResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.strategy, result.strategy);
        assert_eq!(back.segmentation, result.segmentation);
        assert_eq!(back.chosen_k, result.chosen_k);
        assert_eq!(back.k_variance_curve, result.k_variance_curve);
        assert_eq!(back.total_variance, result.total_variance);
        assert_eq!(back.timestamps, result.timestamps);
        assert_eq!(back.aggregate, result.aggregate);
        assert_eq!(back.latency.precompute, result.latency.precompute);
        assert_eq!(back.latency.memo.hits, result.latency.memo.hits);
        assert_eq!(back.latency.memo.misses, result.latency.memo.misses);
        assert_eq!(back.stats, result.stats);
        assert_eq!(back.segments.len(), 1);
        let seg = &back.segments[0];
        assert_eq!(seg.explanations[0].label, "state=NY");
        assert_eq!(seg.explanations[0].effect, Effect::Plus);
        assert_eq!(seg.explanations[0].series, vec![0.0, 5.0, 12.5]);
        assert_eq!(seg.variance, 0.125);
    }

    /// Pins one plain record's codec: `fixture` encodes to exactly `json`,
    /// which decodes and re-encodes to the same bytes; dropping any member
    /// not listed in `defaulted` fails with ``missing field `m` ``; each
    /// `defaulted` member decodes to its listed default (compact JSON) both
    /// when absent and when `null`; `wrong` sets a member to a wrong-typed
    /// value and names the full error; and a document that is not an
    /// object fails with `not_object`.
    fn pin_record<T: Serialize + Deserialize>(
        fixture: &T,
        json: &str,
        defaulted: &[(&str, &str)],
        wrong: (&str, Value, &str),
        not_object: &str,
    ) {
        assert_eq!(serde_json::to_string(fixture).unwrap(), json);
        let members = match serde_json::from_str::<Value>(json).unwrap() {
            Value::Object(members) => members,
            other => panic!("fixture is not an object: {other:?}"),
        };
        let decode = |doc: BTreeMap<String, Value>| T::deserialize(&Value::Object(doc));
        let error_of = |decoded: Result<T, Error>| match decoded {
            Ok(back) => panic!("decoded {}", serde_json::to_string(&back).unwrap()),
            Err(e) => e.to_string(),
        };
        let back = decode(members.clone()).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        for (key, _) in defaulted {
            assert!(
                members.contains_key(*key),
                "{key} is not a member of {json}"
            );
        }
        for key in members.keys() {
            let mut absent = members.clone();
            absent.remove(key);
            let Some((_, default)) = defaulted.iter().find(|(k, _)| k == key) else {
                assert_eq!(error_of(decode(absent)), format!("missing field `{key}`"));
                continue;
            };
            let mut null = members.clone();
            null.insert(key.clone(), Value::Null);
            for doc in [absent, null] {
                let back = decode(doc)
                    .unwrap_or_else(|e| panic!("{key}: {e}"))
                    .serialize();
                let member = back.get(key).unwrap();
                assert_eq!(serde_json::to_string(member).unwrap(), *default, "{key}");
            }
        }
        let (key, bad, error) = wrong;
        let mut doc = members.clone();
        doc.insert(key.to_string(), bad);
        assert_eq!(error_of(decode(doc)), error);
        let not_an_object = T::deserialize(&Value::Array(Vec::new()));
        assert_eq!(error_of(not_an_object), not_object);
    }

    #[test]
    fn plain_record_codecs_are_pinned() {
        let result = sample_result();
        let text = |s: &str| Value::String(s.into());
        pin_record(
            &result.latency.parallel,
            r#"{"cascading":{"nanos":200000,"secs":0},"segmentation":{"nanos":10000,"secs":0},"threads":4}"#,
            &[],
            (
                "threads",
                text("x"),
                "in field `threads`: expected number, got string",
            ),
            "missing field `threads`",
        );
        pin_record(
            &result.latency.memo,
            r#"{"hits":21,"misses":190}"#,
            &[],
            (
                "hits",
                text("x"),
                "in field `hits`: expected number, got string",
            ),
            "missing field `hits`",
        );
        pin_record(
            &result.latency,
            concat!(
                r#"{"cascading":{"nanos":250000,"secs":0},"memo":{"hits":21,"misses":190},"#,
                r#""parallel":{"cascading":{"nanos":200000,"secs":0},"segmentation":{"nanos":10000,"secs":0},"threads":4},"#,
                r#""precompute":{"nanos":1500000,"secs":0},"segmentation":{"nanos":40000,"secs":0}}"#,
            ),
            &[
                (
                    "parallel",
                    r#"{"cascading":{"nanos":0,"secs":0},"segmentation":{"nanos":0,"secs":0},"threads":0}"#,
                ),
                ("memo", r#"{"hits":0,"misses":0}"#),
            ],
            (
                "memo",
                Value::Number(1.0),
                "in field `memo`: missing field `hits`",
            ),
            "missing field `precompute`",
        );
        pin_record(
            &result.stats,
            r#"{"ca_calls":9,"candidate_positions":5,"cube_from_cache":true,"epsilon":3,"filtered_epsilon":2,"n_points":5}"#,
            &[],
            (
                "cube_from_cache",
                Value::Number(1.0),
                "in field `cube_from_cache`: expected boolean, got number",
            ),
            "missing field `epsilon`",
        );
        pin_record(
            &result.segments[0].explanations[0],
            r#"{"effect":"+","gamma":12.5,"label":"state=NY","series":[0,5,12.5]}"#,
            &[],
            (
                "series",
                text("x"),
                "in field `series`: expected array, got string",
            ),
            "missing field `label`",
        );
        pin_record(
            &result.segments[0],
            concat!(
                r#"{"end":2,"end_time":"d2","explanations":[{"effect":"+","gamma":12.5,"label":"state=NY","series":[0,5,12.5]}],"#,
                r#""start":0,"start_time":"d0","variance":0.125}"#,
            ),
            &[],
            (
                "explanations",
                Value::Array(vec![Value::Number(1.0)]),
                "in field `explanations`: missing field `label`",
            ),
            "missing field `start`",
        );
        pin_record(
            &result,
            concat!(
                r#"{"aggregate":[0,5,12.5,12.5,12.5],"chosen_k":2,"k_variance_curve":[[1,3],[2,1]],"#,
                r#""latency":{"cascading":{"nanos":250000,"secs":0},"memo":{"hits":21,"misses":190},"#,
                r#""parallel":{"cascading":{"nanos":200000,"secs":0},"segmentation":{"nanos":10000,"secs":0},"threads":4},"#,
                r#""precompute":{"nanos":1500000,"secs":0},"segmentation":{"nanos":40000,"secs":0}},"#,
                r#""segmentation":{"cuts":[2],"n_points":5},"#,
                r#""segments":[{"end":2,"end_time":"d2","explanations":[{"effect":"+","gamma":12.5,"label":"state=NY","series":[0,5,12.5]}],"#,
                r#""start":0,"start_time":"d0","variance":0.125}],"#,
                r#""stats":{"ca_calls":9,"candidate_positions":5,"cube_from_cache":true,"epsilon":3,"filtered_epsilon":2,"n_points":5},"#,
                r#""strategy":"dp","timestamps":["d0","d1","d2","d3","d4"],"total_variance":1}"#,
            ),
            &[("strategy", r#""dp""#)],
            (
                "strategy",
                Value::Number(3.0),
                "in field `strategy`: expected string, got number",
            ),
            "missing field `segmentation`",
        );
        pin_record(
            &Optimizations::all(),
            r#"{"filter_ratio":0.001,"guess_and_verify":30,"sketching":{"max_len_cap":20,"max_len_fraction":0.05,"size_factor":3}}"#,
            &[],
            (
                "guess_and_verify",
                text("x"),
                "in field `guess_and_verify`: expected number, got string",
            ),
            "missing field `filter_ratio`",
        );
        pin_record(
            &tsexplain_segment::SketchConfig::default(),
            r#"{"max_len_cap":20,"max_len_fraction":0.05,"size_factor":3}"#,
            &[],
            (
                "max_len_cap",
                Value::Number(2.5),
                "in field `max_len_cap`: expected integer, got 2.5",
            ),
            "missing field `max_len_fraction`",
        );
    }

    #[test]
    fn result_json_is_readable() {
        let json = serde_json::to_string_pretty(&sample_result()).unwrap();
        for needle in [
            "\"segments\"",
            "\"state=NY\"",
            "\"chosen_k\": 2",
            "\"cube_from_cache\": true",
            "\"effect\": \"+\"",
            "\"strategy\": \"dp\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }

    #[test]
    fn request_roundtrips_with_all_knobs() {
        let request = ExplainRequest::new(["state", "pack"])
            .with_top_m(5)
            .with_max_order(2)
            .with_diff_metric(DiffMetric::RiskRatio)
            .with_fixed_k(4)
            .with_smoothing(7)
            .with_optimizations(Optimizations::o1())
            .with_segmenter(SegmenterSpec::nnsegment(6))
            .with_time_range("2020-01-01", "2020-06-30");
        let json = serde_json::to_string(&request).unwrap();
        let back: ExplainRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, request);
    }

    #[test]
    fn default_request_roundtrips() {
        let request = ExplainRequest::new(["a"]);
        let back: ExplainRequest =
            serde_json::from_str(&serde_json::to_string(&request).unwrap()).unwrap();
        assert_eq!(back, request);
    }

    #[test]
    fn segmenter_specs_roundtrip() {
        for spec in [
            SegmenterSpec::Dp,
            SegmenterSpec::BottomUp,
            SegmenterSpec::fluss(12),
            SegmenterSpec::nnsegment(8),
        ] {
            let back = SegmenterSpec::deserialize(&spec.serialize()).unwrap();
            assert_eq!(back, spec);
        }
        // Window-free strategies omit the member entirely.
        assert!(serde_json::to_string(&SegmenterSpec::Dp)
            .unwrap()
            .contains("\"strategy\":\"dp\""));
        assert!(!serde_json::to_string(&SegmenterSpec::BottomUp)
            .unwrap()
            .contains("window"));
    }

    #[test]
    fn segmenter_spec_rejects_garbage() {
        let unknown = Value::object([("strategy", Value::String("kmeans".into()))]);
        assert!(SegmenterSpec::deserialize(&unknown)
            .unwrap_err()
            .to_string()
            .contains("kmeans"));
        // A windowed strategy without its window is incomplete.
        let missing = Value::object([("strategy", Value::String("fluss".into()))]);
        assert!(SegmenterSpec::deserialize(&missing)
            .unwrap_err()
            .to_string()
            .contains("window"));
        assert!(SegmenterSpec::deserialize(&Value::String("dp".into())).is_err());
    }

    #[test]
    fn minimal_wire_requests_fall_back_to_defaults() {
        let minimal: ExplainRequest = serde_json::from_str(r#"{"explain_by": ["state"]}"#).unwrap();
        assert_eq!(minimal, ExplainRequest::new(["state"]));
        let with_strategy: ExplainRequest = serde_json::from_str(
            r#"{"explain_by": ["state"], "segmenter": {"strategy": "fluss", "window": 12}}"#,
        )
        .unwrap();
        assert_eq!(with_strategy.segmenter(), SegmenterSpec::fluss(12));
        assert_eq!(with_strategy.top_m(), 3);
        // explain_by itself stays required.
        assert!(serde_json::from_str::<ExplainRequest>("{}").is_err());
    }

    #[test]
    fn results_without_a_strategy_field_default_to_dp() {
        let mut value = serde_json::to_value(&sample_result());
        if let Value::Object(map) = &mut value {
            map.remove("strategy");
        }
        let back = ExplainResult::deserialize(&value).unwrap();
        assert_eq!(back.strategy, "dp");
    }

    #[test]
    fn results_without_a_memo_block_default_to_zero_counters() {
        let mut value = serde_json::to_value(&sample_result());
        if let Value::Object(map) = &mut value {
            let mut latency = match map.get("latency") {
                Some(Value::Object(l)) => l.clone(),
                other => panic!("latency block missing: {other:?}"),
            };
            latency.remove("memo");
            map.insert("latency".into(), Value::Object(latency));
        }
        let back = ExplainResult::deserialize(&value).unwrap();
        assert_eq!(back.latency.memo.hits, 0);
        assert_eq!(back.latency.memo.misses, 0);
    }

    #[test]
    fn forged_segmentations_are_rejected() {
        let mut value = serde_json::to_value(&sample_result());
        // Corrupt the cuts so they fall outside the interior.
        if let Value::Object(map) = &mut value {
            map.insert(
                "segmentation".into(),
                Value::object([
                    ("n_points", 5usize.serialize()),
                    ("cuts", vec![17usize].serialize()),
                ]),
            );
        }
        assert!(ExplainResult::deserialize(&value).is_err());
    }
}
