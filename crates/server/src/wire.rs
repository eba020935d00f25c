//! The JSON wire protocol: request/response bodies of every endpoint.
//!
//! Explain requests and results reuse the engine's own serde layer
//! ([`tsexplain::ExplainRequest`] / [`tsexplain::ExplainResult`]), so a
//! response read off the wire deserializes into exactly the struct an
//! in-process session returns. This module adds the envelope types around
//! them: dataset registration, row appends, stats and metrics.
//!
//! Rows travel as heterogeneous JSON arrays in schema order
//! (`["2020-03-01", "NY", 17.0]`) and are decoded *schema-aware*: strings
//! and integers in dimension slots become attribute values, numbers in
//! measure slots become `f64`s. A fractional number in a dimension slot —
//! or any value in the wrong slot — is rejected row-by-row with the
//! offending row index in the message.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]

use serde::{record, Deserialize, Error, Serialize, Value};
use tsexplain::{AggQuery, DatasetSnapshot, Datum, ExplainRequest, ExplainResult, Schema};
use tsexplain_relation::{decode_wire_row, encode_wire_row};

use crate::error::ApiError;

/// `POST /datasets` request body.
#[derive(Debug)]
pub struct RegisterDataset {
    /// The relation's schema.
    pub schema: Schema,
    /// The "what happened" aggregation query.
    pub query: AggQuery,
    /// Initial rows in schema order (may be empty for streaming cold
    /// starts).
    pub rows: Vec<Value>,
}

// Hand-written: an absent `rows` registers no rows but `null` is an error,
// which `record!`'s absent-or-`null` default cannot express.
impl Deserialize for RegisterDataset {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Ok(RegisterDataset {
            schema: value.field("schema")?,
            query: value.field("query")?,
            rows: match value.get("rows") {
                None => Vec::new(),
                Some(rows) => Vec::deserialize(rows).map_err(|e| e.contextualize("rows"))?,
            },
        })
    }
}

impl Serialize for RegisterDataset {
    fn serialize(&self) -> Value {
        Value::object([
            ("schema", self.schema.serialize()),
            ("query", self.query.serialize()),
            ("rows", self.rows.serialize()),
        ])
    }
}

/// `POST /datasets` response body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DatasetCreated {
    /// The tenant id all further calls address.
    pub dataset_id: u64,
    /// Rows ingested at registration.
    pub n_rows: usize,
    /// Distinct timestamps at registration.
    pub n_points: usize,
}

record!(DatasetCreated {
    dataset_id,
    n_rows,
    n_points,
});

/// `POST /datasets/{id}/rows` request body.
#[derive(Debug)]
pub struct AppendRowsBody {
    /// Rows in schema order.
    pub rows: Vec<Value>,
}

record!(AppendRowsBody { rows });

/// `POST /datasets/{id}/rows` response body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppendAck {
    /// Rows ingested by this call.
    pub appended: usize,
    /// Distinct timestamps after the append.
    pub n_points: usize,
}

record!(AppendAck { appended, n_points });

/// `POST /datasets/{id}/compare` request body: the base request to fan
/// out across every segmentation strategy, plus an optional shared window
/// for the window-parameterized strategies. When absent, the window is
/// auto-sized from the length the request actually explains — the
/// time-sliced horizon, not the full dataset — which keeps windowed
/// compares feasible whenever that horizon has at least 6 points (below
/// that, FLUSS/NNSegment cannot run and the compare is a 400). Any
/// `segmenter` member inside the base request is ignored — the fan-out
/// overrides it per strategy.
#[derive(Debug)]
pub struct CompareBody {
    /// The base explain request (strategy member ignored).
    pub request: ExplainRequest,
    /// Shared FLUSS/NNSegment window override.
    pub window: Option<usize>,
}

record!(CompareBody {
    request,
    window = None,
});

/// One strategy's row in a `/compare` response: the full result plus the
/// cross-strategy evaluation metrics.
#[derive(Debug)]
pub struct StrategyComparison {
    /// The strategy's wire name.
    pub strategy: String,
    /// The paper's `distance percent (%)` between this strategy's cuts and
    /// the DP reference's (0 for the DP itself; §7.3's metric).
    pub distance_percent_vs_dp: f64,
    /// 1-based ascending rank of this strategy's explanation-aware
    /// objective among all compared strategies (min-rank ties; rank 1 =
    /// lowest `total_variance`).
    pub objective_rank: f64,
    /// The strategy's full explain result.
    pub result: ExplainResult,
}

record!(StrategyComparison {
    strategy,
    distance_percent_vs_dp,
    objective_rank,
    result,
});

/// `POST /datasets/{id}/compare` response body.
#[derive(Debug)]
pub struct CompareResponse {
    /// The strategy the distance metric is measured against (`"dp"`).
    pub reference: String,
    /// The window the window-parameterized strategies ran with.
    pub window: usize,
    /// Per-strategy results, in [`tsexplain::STRATEGIES`] order.
    pub strategies: Vec<StrategyComparison>,
}

record!(CompareResponse {
    reference,
    window,
    strategies,
});

/// Serializes one tenant's stats snapshot (`GET /datasets/{id}/stats`).
pub fn stats_body(snapshot: &DatasetSnapshot) -> Value {
    let mut body = Value::object([
        ("n_points", snapshot.n_points.serialize()),
        ("cached_cubes", snapshot.cached_cubes.serialize()),
        ("cache_bytes", snapshot.cache_bytes.serialize()),
    ]);
    crate::metrics::session_stats(&mut body, "session", &snapshot.stats);
    body
}

/// Decodes wire rows into raw [`Datum`] rows, schema-aware (module docs).
/// Delegates to the relation crate's codec — the same one the durable WAL
/// uses — and adds the offending row index to the error message.
pub fn decode_rows(schema: &Schema, rows: &[Value]) -> Result<Vec<Vec<Datum>>, ApiError> {
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            decode_wire_row(schema, row).map_err(|e| ApiError::bad_request(format!("row {i}: {e}")))
        })
        .collect()
}

/// Encodes raw [`Datum`] rows as wire rows (the client half).
pub fn encode_rows(rows: &[Vec<Datum>]) -> Vec<Value> {
    rows.iter().map(|row| encode_wire_row(row)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use tsexplain::{Field, LatencyBreakdown, PipelineStats, Segmentation};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::dimension("t"),
            Field::dimension("state"),
            Field::measure("v"),
        ])
        .unwrap()
    }

    #[test]
    fn rows_decode_schema_aware_and_roundtrip() {
        let rows = vec![
            vec![
                Datum::Attr(3.into()),
                Datum::Attr("NY".into()),
                Datum::Num(1.5),
            ],
            vec![
                Datum::Attr("d1".into()),
                Datum::Attr(12.into()),
                Datum::Num(-2.0),
            ],
        ];
        let wire = encode_rows(&rows);
        let back = decode_rows(&schema(), &wire).unwrap();
        assert_eq!(back, rows);
    }

    #[test]
    fn bad_rows_name_the_offender() {
        let s = schema();
        // Wrong arity.
        let e = decode_rows(&s, &[Value::Array(vec![Value::Number(1.0)])]).unwrap_err();
        assert!(e.message.contains("row 0"), "{}", e.message);
        // Fractional number in a dimension slot.
        let e = decode_rows(
            &s,
            &[
                Value::Array(vec![
                    Value::Number(1.0),
                    Value::String("NY".into()),
                    Value::Number(1.0),
                ]),
                Value::Array(vec![
                    Value::Number(1.5),
                    Value::String("NY".into()),
                    Value::Number(1.0),
                ]),
            ],
        )
        .unwrap_err();
        assert!(e.message.contains("row 1"), "{}", e.message);
        assert!(e.message.contains("\"t\""), "{}", e.message);
        // Non-numeric measure.
        let e = decode_rows(
            &s,
            &[Value::Array(vec![
                Value::Number(1.0),
                Value::String("NY".into()),
                Value::String("x".into()),
            ])],
        )
        .unwrap_err();
        assert!(e.message.contains("\"v\""), "{}", e.message);
    }

    #[test]
    fn register_bodies_roundtrip_and_rows_default_empty() {
        let body = RegisterDataset {
            schema: schema(),
            query: AggQuery::sum("t", "v"),
            rows: encode_rows(&[vec![
                Datum::Attr(0.into()),
                Datum::Attr("NY".into()),
                Datum::Num(1.0),
            ]]),
        };
        let text = serde_json::to_string(&body).unwrap();
        let back: RegisterDataset = serde_json::from_str(&text).unwrap();
        assert_eq!(back.rows, body.rows);
        assert_eq!(back.query.time_attr(), "t");
        // `rows` may be omitted entirely (streaming cold start).
        let minimal = Value::object([
            ("schema", body.schema.serialize()),
            ("query", body.query.serialize()),
        ]);
        let back = RegisterDataset::deserialize(&minimal).unwrap();
        assert!(back.rows.is_empty());
        // ...but not `null`: absent and `null` differ here, unlike the
        // plain records' defaulted members, so this impl stays hand-written.
        let mut null_rows = minimal.clone();
        if let Value::Object(members) = &mut null_rows {
            members.insert("rows".into(), Value::Null);
        }
        assert_eq!(
            RegisterDataset::deserialize(&null_rows)
                .unwrap_err()
                .to_string(),
            "in field `rows`: expected array, got null"
        );
    }

    #[test]
    fn acks_roundtrip() {
        for ack in [
            AppendAck {
                appended: 0,
                n_points: 0,
            },
            AppendAck {
                appended: 42,
                n_points: 9,
            },
        ] {
            let back: AppendAck =
                serde_json::from_str(&serde_json::to_string(&ack).unwrap()).unwrap();
            assert_eq!(back, ack);
        }
        let created = DatasetCreated {
            dataset_id: 7,
            n_rows: 100,
            n_points: 50,
        };
        let back: DatasetCreated =
            serde_json::from_str(&serde_json::to_string(&created).unwrap()).unwrap();
        assert_eq!(back, created);
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
        let text = |s: &str| Value::String(s.into());
        pin_record(
            &DatasetCreated {
                dataset_id: 7,
                n_rows: 100,
                n_points: 50,
            },
            r#"{"dataset_id":7,"n_points":50,"n_rows":100}"#,
            &[],
            (
                "dataset_id",
                text("7"),
                "in field `dataset_id`: expected number, got string",
            ),
            "missing field `dataset_id`",
        );
        let rows = encode_rows(&[vec![
            Datum::Attr(0.into()),
            Datum::Attr("NY".into()),
            Datum::Num(1.5),
        ]]);
        pin_record(
            &AppendRowsBody { rows: rows.clone() },
            r#"{"rows":[[0,"NY",1.5]]}"#,
            &[],
            (
                "rows",
                Value::Null,
                "in field `rows`: expected array, got null",
            ),
            "missing field `rows`",
        );
        pin_record(
            &AppendAck {
                appended: 42,
                n_points: 9,
            },
            r#"{"appended":42,"n_points":9}"#,
            &[],
            (
                "appended",
                Value::Number(-1.0),
                "in field `appended`: integer -1 out of range for usize",
            ),
            "missing field `appended`",
        );
        pin_record(
            &CompareBody {
                request: ExplainRequest::new(["state"]),
                window: Some(12),
            },
            concat!(
                r#"{"request":{"diff_metric":"absolute-change","explain_by":["state"],"#,
                r#""k":{"max_k":20,"mode":"auto"},"max_order":3,"#,
                r#""optimizations":{"filter_ratio":0.001,"guess_and_verify":30,"#,
                r#""sketching":{"max_len_cap":20,"max_len_fraction":0.05,"size_factor":3}},"#,
                r#""segmenter":{"strategy":"dp"},"smoothing_window":1,"threads":null,"#,
                r#""time_range":null,"timeout_ms":null,"top_m":3,"variance_metric":"tse"},"#,
                r#""window":12}"#,
            ),
            &[("window", "null")],
            (
                "window",
                Value::Number(2.5),
                "in field `window`: expected integer, got 2.5",
            ),
            "missing field `request`",
        );
        let result = ExplainResult {
            strategy: "fluss".into(),
            segmentation: Segmentation::new(3, vec![1]).unwrap(),
            chosen_k: 2,
            k_variance_curve: vec![(1, 0.5), (2, 0.25)],
            total_variance: 0.25,
            segments: Vec::new(),
            timestamps: vec![0.into(), 1.into(), 2.into()],
            aggregate: vec![1.0, 2.0, 1.5],
            latency: LatencyBreakdown::default(),
            stats: PipelineStats::default(),
        };
        let comparison = StrategyComparison {
            strategy: "fluss".into(),
            distance_percent_vs_dp: 12.5,
            objective_rank: 2.0,
            result,
        };
        let comparison_json = concat!(
            r#"{"distance_percent_vs_dp":12.5,"objective_rank":2,"#,
            r#""result":{"aggregate":[1,2,1.5],"chosen_k":2,"k_variance_curve":[[1,0.5],[2,0.25]],"#,
            r#""latency":{"cascading":{"nanos":0,"secs":0},"memo":{"hits":0,"misses":0},"#,
            r#""parallel":{"cascading":{"nanos":0,"secs":0},"segmentation":{"nanos":0,"secs":0},"threads":0},"#,
            r#""precompute":{"nanos":0,"secs":0},"segmentation":{"nanos":0,"secs":0}},"#,
            r#""segmentation":{"cuts":[1],"n_points":3},"segments":[],"#,
            r#""stats":{"ca_calls":0,"candidate_positions":0,"cube_from_cache":false,"epsilon":0,"filtered_epsilon":0,"n_points":0},"#,
            r#""strategy":"fluss","timestamps":[0,1,2],"total_variance":0.25},"strategy":"fluss"}"#,
        );
        pin_record(
            &comparison,
            comparison_json,
            &[],
            (
                "objective_rank",
                Value::Bool(true),
                "in field `objective_rank`: expected number, got boolean",
            ),
            "missing field `strategy`",
        );
        pin_record(
            &CompareResponse {
                reference: "dp".into(),
                window: 6,
                strategies: vec![comparison],
            },
            &format!(r#"{{"reference":"dp","strategies":[{comparison_json}],"window":6}}"#),
            &[],
            (
                "strategies",
                Value::object([("strategy", text("dp"))]),
                "in field `strategies`: expected array, got object",
            ),
            "missing field `reference`",
        );
    }
}
