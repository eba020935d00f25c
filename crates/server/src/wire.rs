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

use serde::{Deserialize, Error, Serialize, Value};
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

impl Serialize for DatasetCreated {
    fn serialize(&self) -> Value {
        Value::object([
            ("dataset_id", self.dataset_id.serialize()),
            ("n_rows", self.n_rows.serialize()),
            ("n_points", self.n_points.serialize()),
        ])
    }
}

impl Deserialize for DatasetCreated {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Ok(DatasetCreated {
            dataset_id: value.field("dataset_id")?,
            n_rows: value.field("n_rows")?,
            n_points: value.field("n_points")?,
        })
    }
}

/// `POST /datasets/{id}/rows` request body.
#[derive(Debug)]
pub struct AppendRowsBody {
    /// Rows in schema order.
    pub rows: Vec<Value>,
}

impl Deserialize for AppendRowsBody {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Ok(AppendRowsBody {
            rows: value.field("rows")?,
        })
    }
}

impl Serialize for AppendRowsBody {
    fn serialize(&self) -> Value {
        Value::object([("rows", self.rows.serialize())])
    }
}

/// `POST /datasets/{id}/rows` response body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppendAck {
    /// Rows ingested by this call.
    pub appended: usize,
    /// Distinct timestamps after the append.
    pub n_points: usize,
}

impl Serialize for AppendAck {
    fn serialize(&self) -> Value {
        Value::object([
            ("appended", self.appended.serialize()),
            ("n_points", self.n_points.serialize()),
        ])
    }
}

impl Deserialize for AppendAck {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Ok(AppendAck {
            appended: value.field("appended")?,
            n_points: value.field("n_points")?,
        })
    }
}

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

impl Deserialize for CompareBody {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Ok(CompareBody {
            request: value.field("request")?,
            window: match value.get("window") {
                None | Some(Value::Null) => None,
                Some(w) => Some(usize::deserialize(w).map_err(|e| e.contextualize("window"))?),
            },
        })
    }
}

impl Serialize for CompareBody {
    fn serialize(&self) -> Value {
        Value::object([
            ("request", self.request.serialize()),
            ("window", self.window.serialize()),
        ])
    }
}

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

impl Serialize for StrategyComparison {
    fn serialize(&self) -> Value {
        Value::object([
            ("strategy", self.strategy.serialize()),
            (
                "distance_percent_vs_dp",
                self.distance_percent_vs_dp.serialize(),
            ),
            ("objective_rank", self.objective_rank.serialize()),
            ("result", self.result.serialize()),
        ])
    }
}

impl Deserialize for StrategyComparison {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Ok(StrategyComparison {
            strategy: value.field("strategy")?,
            distance_percent_vs_dp: value.field("distance_percent_vs_dp")?,
            objective_rank: value.field("objective_rank")?,
            result: value.field("result")?,
        })
    }
}

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

impl Serialize for CompareResponse {
    fn serialize(&self) -> Value {
        Value::object([
            ("reference", self.reference.serialize()),
            ("window", self.window.serialize()),
            ("strategies", self.strategies.serialize()),
        ])
    }
}

impl Deserialize for CompareResponse {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Ok(CompareResponse {
            reference: value.field("reference")?,
            window: value.field("window")?,
            strategies: value.field("strategies")?,
        })
    }
}

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
    use tsexplain::Field;

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
}
