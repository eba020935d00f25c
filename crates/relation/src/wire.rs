//! The wire-row format: one raw row as a heterogeneous JSON array in
//! schema order (`["2020-03-01", "NY", 17.0]`), the row format shared by
//! the HTTP wire protocol, the WAL and tenant snapshots. This module owns
//! it in both directions:
//!
//! * as a tree: [`encode_wire_row`] builds a row's [`Value`] and
//!   [`decode_wire_row`] maps one onto a schema;
//! * as text: [`write_wire_row`] (one [`Datum`] row) and
//!   [`write_wire_rows`] (a row range of a relation's or a builder's
//!   columns) write the bytes the vendored `serde_json` writer makes of
//!   those trees, and
//!   [`WireRows::read`] reads a `rows` array off a [`Reader`] into cells
//!   that [`WireRows::decode`] maps onto a schema by the tree decoder's
//!   own rules and messages.
//!
//! Decoding is *schema-aware*: strings and integers in dimension slots
//! become attribute values, numbers in measure slots become `f64`s, and
//! any value in the wrong slot is rejected with the offending field named.

use std::borrow::Cow;
use std::ops::Range;

use serde::{Deserialize, Error, Serialize, Value};
use serde_json::{write_number, write_string, Kind, Reader};

use crate::builder::Datum;
use crate::column::{ColumnView, Columnar};
use crate::schema::{ColumnType, Field, Schema};
use crate::value::AttrValue;

/// Encodes one raw row as its wire array.
pub fn encode_wire_row(row: &[Datum]) -> Value {
    Value::Array(
        row.iter()
            .map(|d| match d {
                Datum::Attr(v) => v.serialize(),
                Datum::Num(x) => x.serialize(),
            })
            .collect(),
    )
}

/// Decodes one wire row *schema-aware* (module docs).
pub fn decode_wire_row(schema: &Schema, row: &Value) -> Result<Vec<Datum>, Error> {
    let cells = row
        .as_array()
        .ok_or_else(|| not_an_array(row.type_name()))?;
    check_arity(schema, cells.len())?;
    cells
        .iter()
        .zip(schema.fields())
        .map(|(cell, field)| value_datum(field, cell))
        .collect()
}

fn not_an_array(type_name: &str) -> Error {
    Error::new(format!("expected an array, got {type_name}"))
}

fn check_arity(schema: &Schema, cells: usize) -> Result<(), Error> {
    if cells != schema.len() {
        return Err(Error::new(format!(
            "expected {} values (schema order), got {cells}",
            schema.len()
        )));
    }
    Ok(())
}

/// One cell onto its field: the rule every decoder applies.
fn value_datum(field: &Field, cell: &Value) -> Result<Datum, Error> {
    match field.column_type() {
        ColumnType::Dimension => AttrValue::deserialize(cell)
            .map(Datum::Attr)
            .map_err(|e| Error::new(format!("dimension {:?}: {e}", field.name()))),
        ColumnType::Measure => f64::deserialize(cell)
            .map(Datum::Num)
            .map_err(|e| Error::new(format!("measure {:?}: {e}", field.name()))),
    }
}

/// Writes one raw row as the text of its [`encode_wire_row`] tree.
pub fn write_wire_row(row: &[Datum], out: &mut String) {
    out.push('[');
    for (i, datum) in row.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match datum {
            Datum::Attr(value) => write_attr(value, out),
            Datum::Num(x) => write_number(*x, out),
        }
    }
    out.push(']');
}

/// Writes rows `rows` of `source` (a relation's or a builder's),
/// comma-separated, as the text of their wire arrays, read from its
/// columns in place: each distinct value the rows use is spelled once,
/// and no row is materialized.
pub fn write_wire_rows(source: &impl Columnar, rows: Range<usize>, out: &mut String) {
    /// A column as the writer reads it.
    enum ColumnText<'a> {
        Dimension {
            codes: &'a [u32],
            values: &'a [AttrValue],
            /// The values spelled so far, back to back.
            text: String,
            /// Where value `code` is spelled in `text`, once it is.
            spans: Vec<Option<(usize, usize)>>,
        },
        Measure(&'a [f64]),
    }
    let mut columns: Vec<ColumnText<'_>> = (0..source.schema().len())
        .map(|idx| match source.view(idx) {
            ColumnView::Dimension { codes, values } => ColumnText::Dimension {
                codes,
                values,
                text: String::new(),
                spans: vec![None; values.len()],
            },
            ColumnView::Measure(values) => ColumnText::Measure(values),
        })
        .collect();
    let first = rows.start;
    for row in rows {
        if row > first {
            out.push(',');
        }
        out.push('[');
        for (i, column) in columns.iter_mut().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match column {
                ColumnText::Dimension {
                    codes,
                    values,
                    text,
                    spans,
                } => {
                    let code = codes[row] as usize;
                    let (start, end) = *spans[code].get_or_insert_with(|| {
                        let start = text.len();
                        write_attr(&values[code], text);
                        (start, text.len())
                    });
                    out.push_str(&text[start..end]);
                }
                ColumnText::Measure(values) => write_number(values[row], out),
            }
        }
        out.push(']');
    }
}

/// An attribute as its `Serialize` writes it: an integer as a JSON number
/// (through `f64`, as the data model holds it), a string as a JSON string.
fn write_attr(value: &AttrValue, out: &mut String) {
    match value {
        AttrValue::Int(i) => write_number(*i as f64, out),
        AttrValue::Str(s) => write_string(s, out),
    }
}

/// One cell of a wire row before a schema gives it meaning.
#[derive(Debug)]
enum Cell<'a> {
    Str(Cow<'a, str>),
    Num(f64),
    /// Anything else, by its JSON type.
    Other(Kind),
}

/// A `rows` array read off the wire, its cells not yet typed by a schema.
/// Reading comes first because a body may place `rows` before its
/// `schema`, and because an append reports a malformed body before an
/// unknown dataset, and both before a bad row.
#[derive(Debug, Default)]
pub struct WireRows<'a> {
    /// Every row's cells, back to back.
    cells: Vec<Cell<'a>>,
    /// Per row: where its cells end in `cells`, or the JSON type of a row
    /// that is not an array.
    rows: Vec<Result<usize, Kind>>,
}

impl<'a> WireRows<'a> {
    /// Reads the value at `reader` as a `rows` array. The outer error is
    /// the document's syntax; the inner one says the value is not an
    /// array, in `Vec<Value>`'s words, once the reader is past it.
    pub fn read(reader: &mut Reader<'a>) -> Result<Result<Self, Error>, Error> {
        let kind = reader.peek()?;
        if kind != Kind::Array {
            reader.value()?;
            return Ok(Err(Error::new(format!(
                "expected array, got {}",
                kind.name()
            ))));
        }
        let mut rows = WireRows::default();
        let mut more = reader.begin_array()?;
        while more {
            let row = rows.read_row(reader)?;
            rows.rows.push(row);
            more = reader.next_element()?;
        }
        Ok(Ok(rows))
    }

    /// Reads one row's cells, or the JSON type of a row that is not an
    /// array.
    fn read_row(&mut self, reader: &mut Reader<'a>) -> Result<Result<usize, Kind>, Error> {
        let kind = reader.peek()?;
        if kind != Kind::Array {
            reader.value()?;
            return Ok(Err(kind));
        }
        let mut more = reader.begin_array()?;
        while more {
            let cell = match reader.peek()? {
                Kind::String => Cell::Str(reader.string()?),
                Kind::Number => Cell::Num(reader.number()?),
                other => {
                    reader.value()?;
                    Cell::Other(other)
                }
            };
            self.cells.push(cell);
            more = reader.next_element()?;
        }
        Ok(Ok(self.cells.len()))
    }

    /// Maps every row onto `schema` by [`decode_wire_row`]'s rules and
    /// messages. A failure carries the index of the first bad row.
    pub fn decode(&self, schema: &Schema) -> Result<Vec<Vec<Datum>>, (usize, Error)> {
        let mut out = Vec::with_capacity(self.rows.len());
        let mut start = 0;
        for (i, row) in self.rows.iter().enumerate() {
            let end = match *row {
                Ok(end) => end,
                Err(kind) => return Err((i, not_an_array(kind.name()))),
            };
            let cells = &self.cells[start..end];
            start = end;
            let decoded = check_arity(schema, cells.len()).and_then(|()| {
                cells
                    .iter()
                    .zip(schema.fields())
                    .map(|(cell, field)| cell_datum(field, cell))
                    .collect()
            });
            out.push(decoded.map_err(|e| (i, e))?);
        }
        Ok(out)
    }
}

/// [`value_datum`] on a cell. A string in a dimension slot is the one case
/// read without a `Value`; every other case, failures included, goes
/// through the tree rule on a value of the cell's type that allocates
/// nothing, since a message names only the type.
fn cell_datum(field: &Field, cell: &Cell<'_>) -> Result<Datum, Error> {
    let value = match cell {
        Cell::Str(s) if field.column_type() == ColumnType::Dimension => {
            return Ok(Datum::Attr(AttrValue::from(&**s)));
        }
        Cell::Str(_) => Value::String(String::new()),
        Cell::Num(x) => Value::Number(*x),
        Cell::Other(Kind::Null) => Value::Null,
        Cell::Other(Kind::Bool) => Value::Bool(false),
        Cell::Other(Kind::Number) => Value::Number(0.0),
        Cell::Other(Kind::String) => Value::String(String::new()),
        Cell::Other(Kind::Array) => Value::Array(Vec::new()),
        Cell::Other(Kind::Object) => Value::Object(Default::default()),
    };
    value_datum(field, &value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::dimension("t"),
            Field::dimension("state"),
            Field::measure("v"),
        ])
        .unwrap()
    }

    /// `text` read as a `rows` array and decoded, errors as text.
    fn read(text: &str) -> Result<Vec<Vec<Datum>>, String> {
        let mut reader = Reader::new(text);
        let rows = WireRows::read(&mut reader)
            .map_err(|e| e.to_string())?
            .map_err(|e| e.to_string())?;
        reader.end().map_err(|e| e.to_string())?;
        rows.decode(&schema())
            .map_err(|(i, e)| format!("row {i}: {e}"))
    }

    /// `text` parsed into a tree and decoded row by row.
    fn tree(text: &str) -> Result<Vec<Vec<Datum>>, String> {
        let rows: Vec<Value> = serde_json::from_str(text).map_err(|e| e.to_string())?;
        rows.iter()
            .enumerate()
            .map(|(i, row)| decode_wire_row(&schema(), row).map_err(|e| format!("row {i}: {e}")))
            .collect()
    }

    #[test]
    fn cells_decode_as_the_tree_does() {
        for text in [
            r#"[[3,"NY",1.5],["d1","C\"A",-2]]"#,
            "[]",
            "[ [ 0 , \"\" , 0 ] ]",
            // Every way a row can fail, each on row 1.
            r#"[[0,"a",1],[1.5,"a",1]]"#,
            r#"[[0,"a",1],[1e19,"a",1]]"#,
            r#"[[0,"a",1],[0,"a","x"]]"#,
            r#"[[0,"a",1],[0,null,1]]"#,
            r#"[[0,"a",1],[0,true,1]]"#,
            r#"[[0,"a",1],[[],"a",1]]"#,
            r#"[[0,"a",1],[0,"a",{}]]"#,
            r#"[[0,"a",1],[0,"a"]]"#,
            r#"[[0,"a",1],[0,"a",1,2]]"#,
            r#"[[0,"a",1],{"t":0}]"#,
            r#"[[0,"a",1],"row"]"#,
            r#"[[0,"a",1],null]"#,
            // Not an array, and syntax errors inside and after the rows.
            "null",
            "{}",
            r#"[[0,"a",1],[0,"a",1,]]"#,
            r#"[[0,"a",1]]]"#,
            r#"[[0,"a",nul]]"#,
        ] {
            let read = read(text);
            assert_eq!(read, tree(text), "{text}");
        }
    }

    #[test]
    fn the_writers_spell_the_trees() {
        let rows = vec![
            vec![
                Datum::Attr(AttrValue::Int(-(1 << 53))),
                Datum::Attr("é\"\\\n\u{01}😀".into()),
                Datum::Num(-0.0),
            ],
            vec![
                Datum::Attr(AttrValue::Int(7)),
                Datum::Attr("".into()),
                Datum::Num(0.1),
            ],
            vec![
                Datum::Attr(AttrValue::Int(i64::MAX)),
                Datum::Attr("NY".into()),
                Datum::Num(9_007_199_254_740_993.0),
            ],
        ];
        let mut builder = Relation::builder(schema());
        for row in &rows {
            let mut text = String::new();
            write_wire_row(row, &mut text);
            assert_eq!(text, serde_json::to_string(&encode_wire_row(row)).unwrap());
            builder.push_row(row.clone()).unwrap();
        }
        let trees: Vec<Value> = rows.iter().map(|r| encode_wire_row(r)).collect();
        let spelled = |source: &dyn Fn(&mut String)| {
            let mut text = String::from("[");
            source(&mut text);
            text.push(']');
            text
        };
        // From the builder's columns, then from the relation's, whole and
        // by every row range.
        let text = spelled(&|out| write_wire_rows(&builder, 0..rows.len(), out));
        assert_eq!(text, serde_json::to_string(&trees).unwrap());
        let relation = builder.finish();
        for lo in 0..=rows.len() {
            for hi in lo..=rows.len() {
                let text = spelled(&|out| write_wire_rows(&relation, lo..hi, out));
                assert_eq!(text, serde_json::to_string(&trees[lo..hi]).unwrap());
            }
        }
    }
}
