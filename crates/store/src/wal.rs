//! WAL record vocabulary and its JSON codec.
//!
//! Every frame in a WAL segment carries one JSON record, tagged by
//! `"kind"`. Schemas and queries reuse the relation crate's serde (the
//! same encoding the HTTP wire uses), and rows travel as the shared
//! schema-ordered wire arrays — so a WAL is readable with the same
//! vocabulary as the API traffic that produced it.
//!
//! Records are written as text and read through the tree. [`WalFrame`]
//! writes each record straight from its rows into its frame, with the
//! relation crate's `write_wire_rows` (rows read from a relation's or a
//! builder's columns, each distinct value spelled once) or, for a batch
//! handed over as [`Datum`] rows, `write_wire_row`: byte for byte what the
//! vendored `serde_json` writer makes of the record's `Value` tree (keys
//! in sorted order), with no tree built. Replay parses a record into that
//! tree and decodes it as a [`WalRecord`].
//!
//! `Rows.seq` is the tenant's total row count *before* the batch. It is
//! what makes snapshot + suffix replay idempotent: a replayer holding
//! `n` rows skips records entirely below its watermark and applies only
//! the unseen tail of an overlapping batch.

use serde::{Deserialize, Error, Value};
use serde_json::write_number;
use tsexplain_relation::{
    write_wire_row, write_wire_rows, AggQuery, Datum, Relation, RelationBuilder, Schema,
};

use crate::error::StoreError;
use crate::frame::{frame_text, seal_frame};
use crate::snapshot::write_rows;

/// One durable event in a tenant's life.
#[derive(Debug)]
pub enum WalRecord {
    /// A tenant was registered (`POST /datasets`), with its initial rows.
    Register {
        /// The tenant id the registry assigned.
        id: u64,
        /// The relation's schema.
        schema: Schema,
        /// The "what happened" aggregation query.
        query: AggQuery,
        /// Initial rows as wire arrays (possibly empty).
        rows: Vec<Value>,
    },
    /// A row batch was appended (`POST /datasets/{id}/rows`).
    Rows {
        /// The tenant.
        id: u64,
        /// Tenant row count before this batch (see module docs).
        seq: u64,
        /// The batch, as wire arrays.
        rows: Vec<Value>,
    },
    /// The tenant was deleted (`DELETE /datasets/{id}`); replay must not
    /// resurrect it.
    Remove {
        /// The tenant.
        id: u64,
    },
}

impl Deserialize for WalRecord {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value.get("kind").and_then(Value::as_str) {
            Some("register") => Ok(WalRecord::Register {
                id: value.field("id")?,
                schema: value.field("schema")?,
                query: value.field("query")?,
                rows: value.field("rows")?,
            }),
            Some("rows") => Ok(WalRecord::Rows {
                id: value.field("id")?,
                seq: value.field("seq")?,
                rows: value.field("rows")?,
            }),
            Some("remove") => Ok(WalRecord::Remove {
                id: value.field("id")?,
            }),
            _ => Err(Error::new(
                "expected WAL record kind \"register\", \"rows\" or \"remove\"",
            )),
        }
    }
}

/// One WAL record, written as text and framed: what
/// [`crate::DataStore::log`] appends. The payload is the record's JSON
/// document (module docs), written without a tree.
#[derive(Debug)]
pub struct WalFrame {
    frame: Vec<u8>,
}

impl WalFrame {
    /// A `Register` record for tenant `id`: `query`, `base`'s schema and
    /// its rows, read from its columns.
    pub fn register(id: u64, query: &AggQuery, base: &Relation) -> Result<WalFrame, StoreError> {
        let encode_err = |e: Error| StoreError::Encode(e.to_string());
        let query = serde_json::to_string(query).map_err(encode_err)?;
        let schema = serde_json::to_string(base.schema()).map_err(encode_err)?;
        let mut doc = record_start(id, "register");
        doc.push_str(",\"query\":");
        doc.push_str(&query);
        doc.push_str(",\"rows\":[");
        write_wire_rows(base, 0..base.n_rows(), &mut doc);
        doc.push_str("],\"schema\":");
        doc.push_str(&schema);
        WalFrame::sealed(doc)
    }

    /// A `Rows` record: tenant `id`'s batch `rows`, `seq` rows after its
    /// first.
    pub fn rows(id: u64, seq: u64, rows: &[Vec<Datum>]) -> Result<WalFrame, StoreError> {
        let mut doc = record_start(id, "rows");
        doc.push_str(",\"rows\":[");
        for (i, row) in rows.iter().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            write_wire_row(row, &mut doc);
        }
        doc.push_str("],\"seq\":");
        write_number(seq as f64, &mut doc);
        WalFrame::sealed(doc)
    }

    /// A `Rows` record: tenant `id`'s rows from row `seq` on, of `base`'s
    /// rows followed by `tail`'s, read from their columns. After a batch
    /// that restated history the session has folded its tail into a new
    /// `base`, so the batch is `base`'s last rows.
    pub fn rows_since(
        id: u64,
        seq: usize,
        base: &Relation,
        tail: &RelationBuilder,
    ) -> Result<WalFrame, StoreError> {
        let mut doc = record_start(id, "rows");
        doc.push_str(",\"rows\":");
        write_rows(base, tail, seq..base.n_rows() + tail.n_rows(), &mut doc);
        doc.push_str(",\"seq\":");
        write_number(seq as f64, &mut doc);
        WalFrame::sealed(doc)
    }

    /// A `Remove` record for tenant `id`.
    pub fn remove(id: u64) -> Result<WalFrame, StoreError> {
        WalFrame::sealed(record_start(id, "remove"))
    }

    /// Closes the document and fills in the frame header.
    fn sealed(mut doc: String) -> Result<WalFrame, StoreError> {
        doc.push('}');
        let mut frame = doc.into_bytes();
        seal_frame(&mut frame)?;
        Ok(WalFrame { frame })
    }

    /// The whole frame, header included.
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.frame
    }
}

/// A frame under construction up to its record's first two members,
/// `id` and `kind`, which sort first in every record.
fn record_start(id: u64, kind: &str) -> String {
    let mut doc = frame_text();
    doc.push_str("{\"id\":");
    write_number(id as f64, &mut doc);
    doc.push_str(",\"kind\":\"");
    doc.push_str(kind);
    doc.push('"');
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;
    use tsexplain_relation::Field;

    /// The tree encoding [`WalFrame`] replaced, kept as its reference.
    impl Serialize for WalRecord {
        fn serialize(&self) -> Value {
            match self {
                WalRecord::Register {
                    id,
                    schema,
                    query,
                    rows,
                } => Value::object([
                    ("kind", Value::String("register".into())),
                    ("id", id.serialize()),
                    ("schema", schema.serialize()),
                    ("query", query.serialize()),
                    ("rows", rows.serialize()),
                ]),
                WalRecord::Rows { id, seq, rows } => Value::object([
                    ("kind", Value::String("rows".into())),
                    ("id", id.serialize()),
                    ("seq", seq.serialize()),
                    ("rows", rows.serialize()),
                ]),
                WalRecord::Remove { id } => Value::object([
                    ("kind", Value::String("remove".into())),
                    ("id", id.serialize()),
                ]),
            }
        }
    }

    #[test]
    fn records_roundtrip() {
        let schema = Schema::new(vec![Field::dimension("t"), Field::measure("v")]).unwrap();
        let records = [
            WalRecord::Register {
                id: 3,
                schema,
                query: AggQuery::sum("t", "v"),
                rows: vec![Value::Array(vec![
                    Value::String("d0".into()),
                    Value::Number(1.5),
                ])],
            },
            WalRecord::Rows {
                id: 3,
                seq: 1,
                rows: vec![Value::Array(vec![
                    Value::String("d1".into()),
                    Value::Number(2.5),
                ])],
            },
            WalRecord::Remove { id: 3 },
        ];
        for rec in &records {
            let text = serde_json::to_string(rec).unwrap();
            match (rec, serde_json::from_str::<WalRecord>(&text).unwrap()) {
                (
                    WalRecord::Register { id, rows, .. },
                    WalRecord::Register {
                        id: id2,
                        rows: rows2,
                        query,
                        ..
                    },
                ) => {
                    assert_eq!(*id, id2);
                    assert_eq!(*rows, rows2);
                    assert_eq!(query.time_attr(), "t");
                }
                (
                    WalRecord::Rows { id, seq, rows },
                    WalRecord::Rows {
                        id: id2,
                        seq: seq2,
                        rows: rows2,
                    },
                ) => {
                    assert_eq!((*id, *seq, rows), (id2, seq2, &rows2));
                }
                (WalRecord::Remove { id }, WalRecord::Remove { id: id2 }) => {
                    assert_eq!(*id, id2);
                }
                (a, b) => panic!("kind changed in roundtrip: {a:?} -> {b:?}"),
            }
        }
        assert!(serde_json::from_str::<WalRecord>("{\"kind\":\"truncate\"}").is_err());
    }
}
