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
//!
//! The server reads the two bodies that carry rows, registration and
//! append, with [`read_register_body`] and [`read_append_body`]: a pull
//! reader walks the request bytes and keeps each row as cells
//! ([`WireRows`]), so no row is held in a `Value`. They answer every body
//! as [`RegisterDataset`] and [`AppendRowsBody`] (the client half's types)
//! plus [`decode_rows`] would: the same rows, or the same error text.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]

use serde::{record, Deserialize, Error, Serialize, Value};
use serde_json::{Kind, Reader};
use tsexplain::{AggQuery, DatasetSnapshot, Datum, ExplainRequest, ExplainResult, Schema};
use tsexplain_relation::{decode_wire_row, encode_wire_row, WireRows};

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

/// Decodes rows read by [`read_append_body`] or [`read_register_body`]
/// onto `schema`, as [`decode_rows`] decodes their trees.
pub fn decode_wire_rows(schema: &Schema, rows: &WireRows) -> Result<Vec<Vec<Datum>>, ApiError> {
    rows.decode(schema)
        .map_err(|(i, e)| ApiError::bad_request(format!("row {i}: {e}")))
}

/// Encodes raw [`Datum`] rows as wire rows (the client half).
pub fn encode_rows(rows: &[Vec<Datum>]) -> Vec<Value> {
    rows.iter().map(|row| encode_wire_row(row)).collect()
}

/// A request body as text; a body that is not UTF-8 is a 400.
pub(crate) fn body_text(body: &[u8]) -> Result<&str, ApiError> {
    std::str::from_utf8(body).map_err(|_| ApiError::bad_request("request body is not UTF-8"))
}

/// Walks the document at `reader` as an object, handing `member` each key
/// with the reader at its value, then requires the end of the text. A
/// document that is not an object is read past whole: all its members are
/// missing. A key met twice is handed over twice, so a member that keeps
/// what it reads keeps the last occurrence, as a parsed tree does.
fn read_members<'a>(
    reader: &mut Reader<'a>,
    mut member: impl FnMut(&str, &mut Reader<'a>) -> Result<(), Error>,
) -> Result<(), Error> {
    if reader.peek()? == Kind::Object {
        let mut more = reader.begin_object()?;
        while more {
            let key = reader.key()?;
            member(&key, reader)?;
            more = reader.next_member()?;
        }
    } else {
        reader.value()?;
    }
    reader.end()
}

/// Reads a `POST /datasets/{id}/rows` body ([`AppendRowsBody`]) into its
/// rows' cells. Unknown members are skipped; a malformed body, or one
/// without a `rows` array, is a 400.
pub fn read_append_body(body: &[u8]) -> Result<WireRows<'_>, ApiError> {
    let mut rows = None;
    read_members(&mut Reader::new(body_text(body)?), |key, reader| {
        if key == "rows" {
            rows = Some(WireRows::read(reader)?);
        } else {
            reader.value()?;
        }
        Ok(())
    })
    .and_then(|()| match rows {
        Some(rows) => rows.map_err(|e| e.contextualize("rows")),
        None => Err(Error::new("missing field `rows`")),
    })
    .map_err(|e| ApiError::bad_request(e.to_string()))
}

/// A `POST /datasets` body as the server reads it: [`RegisterDataset`]
/// with its rows kept as cells.
#[derive(Debug)]
pub struct RegisterBody<'a> {
    /// The relation's schema.
    pub schema: Schema,
    /// The "what happened" aggregation query.
    pub query: AggQuery,
    /// Initial rows (none when the body has no `rows`).
    pub rows: WireRows<'a>,
}

/// Reads a `POST /datasets` body ([`RegisterDataset`]). The schema and
/// the query are read as trees and decoded by their own `Deserialize`;
/// the rows are kept as cells, since the body may place them before the
/// schema.
pub fn read_register_body(body: &[u8]) -> Result<RegisterBody<'_>, ApiError> {
    let mut members = std::collections::BTreeMap::new();
    let mut rows = None;
    read_members(&mut Reader::new(body_text(body)?), |key, reader| {
        match key {
            "rows" => rows = Some(WireRows::read(reader)?),
            "schema" | "query" => {
                members.insert(key.to_string(), reader.value()?);
            }
            _ => {
                reader.value()?;
            }
        }
        Ok(())
    })
    .and_then(|()| {
        let members = Value::Object(members);
        Ok(RegisterBody {
            schema: members.field("schema")?,
            query: members.field("query")?,
            rows: match rows {
                Some(rows) => rows.map_err(|e| e.contextualize("rows"))?,
                None => WireRows::default(),
            },
        })
    })
    .map_err(|e| ApiError::bad_request(e.to_string()))
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

    /// Valid cells for a dimension slot and for a measure slot.
    const DIMENSIONS: [&str; 7] = ["0", "-3", "17", r#""NY""#, r#""d\"1""#, r#""é""#, r#""""#];
    const MEASURES: [&str; 7] = [
        "0",
        "1.5",
        "-0.0",
        "2.5e-3",
        "9007199254740993",
        "-1e300",
        "17",
    ];
    /// Cells that are wrong in some slot, or everywhere; the pick one past
    /// the end is an array nested past the 128-deep cap.
    const CELLS: [&str; 12] = [
        "1.5",
        "1e19",
        "-1e19",
        r#""x""#,
        "null",
        "true",
        "false",
        "[]",
        "[1,[2]]",
        "{}",
        r#"{"a":[null]}"#,
        "9223372036854775807",
    ];
    /// Values that are not arrays, for a row or for `rows`.
    const NOT_ARRAYS: [&str; 5] = ["null", "1", r#""r""#, "{}", "true"];
    const SEPARATORS: [&str; 4] = ["", " ", "\n\t", "\r\n  "];
    /// What a syntax error is made of: inserted at a drawn offset.
    const JUNK: [&[u8]; 10] = [
        b",", b"]", b"}", b"x", b"\"", b"[", b":", b"\\", b"\x01", b"\xff",
    ];

    /// A drawn row: its kind, three cell picks and one more pick.
    type RowPick = (u8, Vec<usize>, usize);
    /// A drawn member: its kind, its rows and one more pick.
    type MemberPick = (u8, Vec<RowPick>, usize);

    fn cell(pick: usize) -> String {
        match CELLS.get(pick % (CELLS.len() + 1)) {
            Some(cell) => (*cell).to_string(),
            None => format!("{}{}", "[".repeat(130), "]".repeat(130)),
        }
    }

    /// A row: valid (kinds 0–3), valid but for one drawn cell (4–5), two
    /// to four drawn cells (6), or not an array (7).
    fn row_text((kind, picks, extra): &RowPick, sep: &str) -> String {
        let valid = [
            DIMENSIONS[picks[0] % 7].to_string(),
            DIMENSIONS[picks[1] % 7].to_string(),
            MEASURES[picks[2] % 7].to_string(),
        ];
        let cells: Vec<String> = match kind {
            0..=3 => valid.to_vec(),
            4 | 5 => {
                let mut cells = valid.to_vec();
                cells[extra % 3] = cell(picks[extra % 3]);
                cells
            }
            6 => picks
                .iter()
                .chain(picks)
                .take(2 + extra % 3)
                .map(|&p| cell(p))
                .collect(),
            _ => return NOT_ARRAYS[extra % NOT_ARRAYS.len()].to_string(),
        };
        format!("[{sep}{}{sep}]", cells.join(&format!(",{sep}")))
    }

    fn rows_text(rows: &[RowPick], sep: &str) -> String {
        let rows: Vec<String> = rows.iter().map(|r| row_text(r, sep)).collect();
        format!("[{sep}{}{sep}]", rows.join(&format!(",{sep}")))
    }

    const SCHEMA: &str = r#"[{"name":"t","kind":"dimension"},{"name":"state","kind":"dimension"},{"name":"v","kind":"measure"}]"#;
    const QUERY: &str = r#"{"time_attr":"t","agg":"sum","measure":{"op":"column","column":"v"}}"#;

    /// A member: `rows` (kinds 0–3), `rows` under an escaped key (4),
    /// `rows` that is not an array (5), an unknown member (6), a key that
    /// differs in case (7), or a schema (8) or query (9), usually valid.
    fn member_text((kind, rows, extra): &MemberPick, sep: &str) -> String {
        let (key, value) = match kind {
            0..=3 => ("\"rows\"", rows_text(rows, sep)),
            4 => (r#""r\u006fws""#, rows_text(rows, sep)),
            5 => ("\"rows\"", NOT_ARRAYS[extra % NOT_ARRAYS.len()].to_string()),
            6 => ("\"extra\"", cell(*extra)),
            7 => ("\"Rows\"", rows_text(rows, sep)),
            8 => (
                "\"schema\"",
                match extra % 4 {
                    0 => r#"[{"name":"t"}]"#.to_string(),
                    1 => "null".to_string(),
                    _ => SCHEMA.to_string(),
                },
            ),
            _ => (
                "\"query\"",
                match extra % 4 {
                    0 => r#"{"time_attr":"t","agg":"median"}"#.to_string(),
                    _ => QUERY.to_string(),
                },
            ),
        };
        format!("{sep}{key}{sep}:{sep}{value}{sep}")
    }

    /// A body: not an object (shape 0) or an object of the drawn members,
    /// a register body's led by a valid schema and query;
    /// then, for corruption 0 or 1 of 0–7, cut or given a junk byte at a
    /// drawn offset.
    fn body(
        register: bool,
        (shape, members, sep, corruption, offset, junk): &(
            u8,
            Vec<MemberPick>,
            usize,
            u8,
            usize,
            usize,
        ),
    ) -> Vec<u8> {
        let sep = SEPARATORS[sep % SEPARATORS.len()];
        let mut parts: Vec<String> = members.iter().map(|m| member_text(m, sep)).collect();
        if register && *shape >= 1 {
            parts.insert(0, format!(r#""query":{QUERY}"#));
            parts.insert(0, format!(r#""schema":{SCHEMA}"#));
        }
        let mut bytes = match shape {
            0 => NOT_ARRAYS[offset % NOT_ARRAYS.len()].to_string(),
            _ => format!("{sep}{{{}}}{sep}", parts.join(",")),
        }
        .into_bytes();
        match corruption {
            0 => bytes.truncate(offset % (bytes.len() + 1)),
            1 => {
                let at = offset % (bytes.len() + 1);
                bytes.splice(at..at, JUNK[junk % JUNK.len()].iter().copied());
            }
            _ => {}
        }
        bytes
    }

    /// What the tree path answers: the body parsed into its record, then
    /// its rows decoded (`Datum`s by `Debug`, so `-0.0` is told from `0`).
    fn tree_append(body: &[u8]) -> Result<String, ApiError> {
        let spec: AppendRowsBody = crate::router::parse_body(body)?;
        Ok(format!("{:?}", decode_rows(&schema(), &spec.rows)?))
    }

    fn reader_append(body: &[u8]) -> Result<String, ApiError> {
        let rows = read_append_body(body)?;
        Ok(format!("{:?}", decode_wire_rows(&schema(), &rows)?))
    }

    fn tree_register(body: &[u8]) -> Result<String, ApiError> {
        let spec: RegisterDataset = crate::router::parse_body(body)?;
        let rows = decode_rows(&spec.schema, &spec.rows)?;
        Ok(format!(
            "{:?} {} {rows:?}",
            spec.schema.fields(),
            serde_json::to_string(&spec.query).unwrap()
        ))
    }

    fn reader_register(body: &[u8]) -> Result<String, ApiError> {
        let spec = read_register_body(body)?;
        let rows = decode_wire_rows(&spec.schema, &spec.rows)?;
        Ok(format!(
            "{:?} {} {rows:?}",
            spec.schema.fields(),
            serde_json::to_string(&spec.query).unwrap()
        ))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        /// Through the reader every append and register body decodes to
        /// the rows the parsed tree decodes to, or fails with the same
        /// status, kind and message: valid bodies, and bodies malformed in
        /// syntax (cut, junk, nesting past the cap, bytes that are not
        /// UTF-8), in kind, in arity, in a dimension's number, or in their
        /// members (missing, `null`, repeated, escaped, unknown).
        #[test]
        fn the_reader_answers_every_body_as_the_tree_does(
            drawn in (
                0u8..8,
                proptest::collection::vec(
                    (
                        0u8..10,
                        proptest::collection::vec(
                            (0u8..8, proptest::collection::vec(0usize..64, 3), 0usize..64),
                            0..4,
                        ),
                        0usize..64,
                    ),
                    1..4,
                ),
                0usize..4,
                0u8..8,
                0usize..100_000,
                0usize..64,
            ),
        ) {
            let append = body(false, &drawn);
            proptest::prop_assert_eq!(
                reader_append(&append),
                tree_append(&append),
                "{}",
                String::from_utf8_lossy(&append)
            );
            let register = body(true, &drawn);
            proptest::prop_assert_eq!(
                reader_register(&register),
                tree_register(&register),
                "{}",
                String::from_utf8_lossy(&register)
            );
        }
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
