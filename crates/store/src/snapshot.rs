//! The tenant snapshot writer: one tenant's full state encoded straight
//! from its rows into a frame buffer.
//!
//! A snapshot file is one CRC frame whose payload is the JSON document
//! `{"id":…,"query":…,"rows":[…],"schema":…}`, byte for byte what the
//! vendored `serde_json` writer makes of that object: keys in sorted
//! order, rows as the wire arrays `encode_wire_row` builds, written by the
//! relation crate's `write_wire_rows` and `write_wire_row`, as the WAL's
//! records are. Recovery reads it back with the same parser as ever.
//!
//! The writer builds no `Value` for a row and copies no row: it reads a
//! [`Relation`]'s columns and the appended tail in place, so a caller can
//! encode under the lock that guards them and release it before the
//! frame is sealed and written ([`crate::DataStore::checkpoint`]).

use std::time::Duration;

use serde_json::write_number;
use tsexplain_relation::{write_wire_row, write_wire_rows, AggQuery, Datum, Relation};

use crate::error::StoreError;
use crate::frame::{frame_text, seal_frame};
use crate::store::clock;

/// One tenant's entry in a checkpoint, handed to
/// [`crate::DataStore::checkpoint`]: its encoded snapshot, or word that its
/// last written snapshot still holds every row.
pub struct TenantCheckpoint {
    id: u64,
    /// The frame: header bytes still to be filled in, then the JSON
    /// payload; `None` keeps the tenant's snapshot file as it is.
    frame: Option<Vec<u8>>,
    /// How long the encode took: the checkpoint histogram counts it with
    /// the write.
    pub(crate) encode_time: Duration,
}

impl TenantCheckpoint {
    /// Encodes tenant `id`'s full state: its schema (`base`'s), `query`,
    /// and every row in ingestion order, `base`'s rows read from its
    /// columns first, then `tail`. The snapshot's row watermark is
    /// implicitly the number of rows written. Only the schema and query
    /// pass through `serde`; the rows are written directly.
    pub fn encode(
        id: u64,
        query: &AggQuery,
        base: &Relation,
        tail: &[Vec<Datum>],
    ) -> Result<TenantCheckpoint, StoreError> {
        let started = clock();
        let encode_err = |e: serde::Error| StoreError::Encode(e.to_string());
        let query = serde_json::to_string(query).map_err(encode_err)?;
        let schema = serde_json::to_string(base.schema()).map_err(encode_err)?;
        let mut doc = frame_text();
        doc.push_str("{\"id\":");
        write_number(id as f64, &mut doc);
        doc.push_str(",\"query\":");
        doc.push_str(&query);
        doc.push_str(",\"rows\":");
        write_rows(base, tail, &mut doc);
        doc.push_str(",\"schema\":");
        doc.push_str(&schema);
        doc.push('}');
        Ok(TenantCheckpoint {
            id,
            frame: Some(doc.into_bytes()),
            encode_time: started.elapsed(),
        })
    }

    /// Tenant `id`, unchanged since its last written snapshot: the
    /// checkpoint neither rewrites that file nor deletes it as stale.
    pub fn kept(id: u64) -> TenantCheckpoint {
        TenantCheckpoint {
            id,
            frame: None,
            encode_time: Duration::ZERO,
        }
    }

    /// The tenant id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Fills in the frame header (length and CRC) and returns the whole
    /// frame, ready to write; `None` for a kept tenant.
    pub(crate) fn seal(&mut self) -> Result<Option<&[u8]>, StoreError> {
        let Some(frame) = &mut self.frame else {
            return Ok(None);
        };
        seal_frame(frame)?;
        Ok(Some(frame))
    }
}

/// Writes `[…]`: `base`'s rows as wire arrays, read from its columns,
/// then `tail`'s.
pub(crate) fn write_rows(base: &Relation, tail: &[Vec<Datum>], out: &mut String) {
    out.push('[');
    write_wire_rows(base, out);
    for (i, row) in tail.iter().enumerate() {
        if i > 0 || base.n_rows() > 0 {
            out.push(',');
        }
        write_wire_row(row, out);
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    use proptest::prelude::*;
    use serde::{Serialize, Value};
    use tsexplain_relation::{encode_wire_row, AttrValue, Field, Schema};

    use super::*;
    use crate::frame::{append_frame, HEADER};
    use crate::wal::{WalFrame, WalRecord};
    use crate::DataStore;

    /// The encoding the writer replaced, kept as its reference: a `Value`
    /// tree of the whole document, written by `serde_json`, then framed.
    fn value_tree_frame(
        id: u64,
        schema: &Schema,
        query: &AggQuery,
        rows: &[Vec<Datum>],
    ) -> Vec<u8> {
        let payload = serde_json::to_string(&Value::object([
            ("id", id.serialize()),
            ("schema", schema.serialize()),
            ("query", query.serialize()),
            (
                "rows",
                Value::Array(rows.iter().map(|r| encode_wire_row(r)).collect()),
            ),
        ]))
        .unwrap();
        let mut framed = Vec::new();
        append_frame(&mut framed, payload.as_bytes()).unwrap();
        framed
    }

    /// `rows[..split]` as a relation over `schema`, `rows[split..]` as the
    /// tail, encoded.
    fn encoded(
        id: u64,
        schema: &Schema,
        query: &AggQuery,
        rows: &[Vec<Datum>],
        split: usize,
    ) -> TenantCheckpoint {
        let mut builder = Relation::builder(schema.clone());
        for row in &rows[..split] {
            builder.push_row(row.clone()).unwrap();
        }
        TenantCheckpoint::encode(id, query, &builder.finish(), &rows[split..]).unwrap()
    }

    /// [`encoded`], sealed in memory.
    fn sealed(
        id: u64,
        schema: &Schema,
        query: &AggQuery,
        rows: &[Vec<Datum>],
        split: usize,
    ) -> Vec<u8> {
        encoded(id, schema, query, rows, split)
            .seal()
            .unwrap()
            .unwrap()
            .to_vec()
    }

    fn temp_dir() -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tsx-snapshot-writer-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Every escape the vendored writer emits (`"`, `\`, `\n`, `\r`, `\t`,
    /// `\b`, `\f`, `\u00XX`), plus ASCII and 2-, 3- and 4-byte UTF-8.
    const CHARS: &str =
        "aZ7 /~\u{7F}éñ\u{7FF}€中\u{FFFD}😀\u{10FFFF}\"\\\n\r\t\u{08}\u{0C}\u{00}\u{01}\u{1F}";

    /// Integral, fractional, `-0.0`, subnormal and ≥ 2^53 measures.
    const MEASURES: [f64; 16] = [
        0.0,
        -0.0,
        1.0,
        -3.0,
        0.5,
        -2.25,
        0.1,
        1e-7,
        5e-324,
        123_456.789,
        9_007_199_254_740_991.0,
        9_007_199_254_740_992.0,
        -9_007_199_254_740_994.0,
        1e20,
        -1.5e300,
        f64::MAX,
    ];

    /// Integer attributes the wire's `f64` holds exactly.
    const INT_BOUND: i64 = (1 << 53) - 1;

    /// One drawn cell: read as a dimension (an integer or a string) or as
    /// a measure (a listed value or a random one), by its column's kind.
    type Cell = (u8, i64, Vec<usize>, usize, f64);

    fn cell_as(is_measure: bool, cell: &Cell) -> Datum {
        let (attr_kind, int, picks, measure, random) = cell;
        if is_measure {
            Datum::Num(MEASURES.get(*measure).copied().unwrap_or(*random))
        } else if *attr_kind == 0 {
            Datum::Attr(AttrValue::Int(*int))
        } else {
            let chars: Vec<char> = CHARS.chars().collect();
            Datum::Attr(AttrValue::from(
                picks.iter().map(|&i| chars[i]).collect::<String>(),
            ))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The frame a checkpoint writes is byte-identical to the `Value`
        /// tree encoding, for rows read from a relation's columns, from the
        /// tail, or both (an empty tail and a tenant with no rows
        /// included), and recovery reads it back to the same rows.
        #[test]
        fn the_snapshot_writer_matches_the_value_tree_and_recovers(
            kinds in proptest::collection::vec(0u8..2, 1..5),
            raw in proptest::collection::vec(
                proptest::collection::vec(
                    (
                        0u8..2,
                        -INT_BOUND..=INT_BOUND,
                        proptest::collection::vec(0..CHARS.chars().count(), 0..10),
                        0..MEASURES.len() + 4,
                        -1e6f64..1e6,
                    ),
                    4,
                ),
                0..40,
            ),
            split in 0usize..48,
            id in 1u64..1_000_000,
        ) {
            let schema = Schema::new(
                kinds
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| match k {
                        0 => Field::dimension(format!("c{i}")),
                        _ => Field::measure(format!("c\"{i}")),
                    })
                    .collect(),
            )
            .unwrap();
            let query = AggQuery::sum("c0", "c\"1");
            let rows: Vec<Vec<Datum>> = raw
                .iter()
                .map(|cells| kinds.iter().zip(cells).map(|(&k, c)| cell_as(k == 1, c)).collect())
                .collect();
            let split = split.min(rows.len());
            let expected = value_tree_frame(id, &schema, &query, &rows);
            // Through the store: the file is the reference frame, and
            // recovery reads it back to the same rows.
            let dir = temp_dir();
            let (store, _) = DataStore::open(&dir).unwrap();
            let rotation = store.rotate_wal().unwrap();
            let t = encoded(id, &schema, &query, &rows, split);
            store.checkpoint(id + 1, vec![t], rotation).unwrap();
            drop(store);
            let written = std::fs::read(dir.join("tenants").join(format!("t{id}.snap"))).unwrap();
            prop_assert!(
                written == expected,
                "split {}: {:?}",
                split,
                String::from_utf8_lossy(&expected[HEADER..])
            );
            let (_store, recovery) = DataStore::open(&dir).unwrap();
            prop_assert_eq!(recovery.tenants.len(), 1);
            prop_assert!(recovery.tenants[0].from_snapshot);
            prop_assert_eq!(&recovery.tenants[0].rows, &rows);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// `record`'s `Value` tree (the encoding [`WalFrame`] replaced),
    /// written and framed.
    fn wal_tree_frame(record: &WalRecord) -> Vec<u8> {
        let mut framed = Vec::new();
        append_frame(
            &mut framed,
            serde_json::to_string(record).unwrap().as_bytes(),
        )
        .unwrap();
        framed
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The WAL's `Register` and `Rows` frames are byte-identical to
        /// their records' `Value` trees, written and framed: a
        /// registration's rows read from a relation's columns, from the
        /// tail, or both, and batches of every size, empty ones included,
        /// over every escape, non-ASCII text, integer attributes and
        /// integral, fractional, `-0.0` and ≥ 2^53 measures.
        #[test]
        fn the_wal_writer_matches_the_value_tree(
            kinds in proptest::collection::vec(0u8..2, 1..5),
            raw in proptest::collection::vec(
                proptest::collection::vec(
                    (
                        0u8..2,
                        -INT_BOUND..=INT_BOUND,
                        proptest::collection::vec(0..CHARS.chars().count(), 0..10),
                        0..MEASURES.len() + 4,
                        -1e6f64..1e6,
                    ),
                    4,
                ),
                0..40,
            ),
            split in 0usize..48,
            id in 1u64..u64::MAX,
            seq in 0u64..u64::MAX,
        ) {
            let schema = Schema::new(
                kinds
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| match k {
                        0 => Field::dimension(format!("c\u{7}{i}")),
                        _ => Field::measure(format!("é{i}")),
                    })
                    .collect(),
            )
            .unwrap();
            let query = AggQuery::sum("c\u{7}0", "é1");
            let rows: Vec<Vec<Datum>> = raw
                .iter()
                .map(|cells| kinds.iter().zip(cells).map(|(&k, c)| cell_as(k == 1, c)).collect())
                .collect();
            let split = split.min(rows.len());
            let mut builder = Relation::builder(schema.clone());
            for row in &rows[..split] {
                builder.push_row(row.clone()).unwrap();
            }
            let wire: Vec<Value> = rows.iter().map(|r| encode_wire_row(r)).collect();
            let register = WalFrame::register(id, &query, &builder.finish(), &rows[split..]).unwrap();
            let expected = wal_tree_frame(&WalRecord::Register {
                id,
                schema,
                query,
                rows: wire.clone(),
            });
            prop_assert!(
                register.bytes() == expected,
                "split {}: {:?}",
                split,
                String::from_utf8_lossy(&expected[HEADER..])
            );
            let batch = WalFrame::rows(id, seq, &rows[split..]).unwrap();
            let expected = wal_tree_frame(&WalRecord::Rows {
                id,
                seq,
                rows: wire[split..].to_vec(),
            });
            prop_assert!(
                batch.bytes() == expected,
                "{:?}",
                String::from_utf8_lossy(&expected[HEADER..])
            );
        }
    }

    #[test]
    fn a_remove_record_matches_the_value_tree() {
        for id in [1, 42, (1 << 53) + 1, u64::MAX] {
            assert!(
                WalFrame::remove(id).unwrap().bytes() == wal_tree_frame(&WalRecord::Remove { id })
            );
        }
    }

    /// Integer attributes the wire's `f64` rounds, non-finite measures
    /// (written `null`) and a tenant with no rows still match the `Value`
    /// tree byte for byte.
    #[test]
    fn rounded_integers_and_non_finite_measures_match_the_value_tree() {
        let schema = Schema::new(vec![Field::dimension("t"), Field::measure("v")]).unwrap();
        let query = AggQuery::sum("t", "v");
        let rows = vec![
            vec![Datum::Attr(AttrValue::Int(i64::MAX)), Datum::Num(f64::NAN)],
            vec![
                Datum::Attr(AttrValue::Int(i64::MIN)),
                Datum::Num(f64::INFINITY),
            ],
            vec![
                Datum::Attr(AttrValue::Int((1 << 53) + 1)),
                Datum::Num(f64::NEG_INFINITY),
            ],
            vec![Datum::Attr(AttrValue::Int(-(1 << 53))), Datum::Num(-0.0)],
        ];
        // A tenant with no rows.
        assert!(sealed(1, &schema, &query, &[], 0) == value_tree_frame(1, &schema, &query, &[]));
        let expected = value_tree_frame(u64::MAX, &schema, &query, &rows);
        for split in 0..=rows.len() {
            assert!(
                sealed(u64::MAX, &schema, &query, &rows, split) == expected,
                "split {split}"
            );
        }
    }
}
