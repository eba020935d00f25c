use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;

use crate::column::{Column, ColumnView, Columnar, DimColumn};
use crate::dict::Dictionary;
use crate::error::RelationError;
use crate::relation::Relation;
use crate::schema::{ColumnType, Schema};
use crate::value::AttrValue;

/// A single row value handed to [`RelationBuilder::push_row`].
///
/// The builder coerces by schema: dimension fields accept [`Datum::Attr`]
/// only, and reject every [`Datum::Num`] (it is the wire decoder that
/// reads an integral JSON number in a dimension slot as an
/// [`AttrValue::Int`]); measure fields accept [`Datum::Num`] and integer
/// [`Datum::Attr`]s.
#[derive(Clone, Debug, PartialEq)]
pub enum Datum {
    /// A dimension member.
    Attr(AttrValue),
    /// A numeric measure value.
    Num(f64),
}

impl From<&str> for Datum {
    fn from(v: &str) -> Self {
        Datum::Attr(v.into())
    }
}

impl From<String> for Datum {
    fn from(v: String) -> Self {
        Datum::Attr(v.into())
    }
}

impl From<i64> for Datum {
    fn from(v: i64) -> Self {
        Datum::Attr(v.into())
    }
}

impl From<f64> for Datum {
    fn from(v: f64) -> Self {
        Datum::Num(v)
    }
}

impl From<AttrValue> for Datum {
    fn from(v: AttrValue) -> Self {
        Datum::Attr(v)
    }
}

/// Row-oriented builder for [`Relation`].
///
/// Each dimension cell is interned as it is pushed: the column keeps a
/// per-row `u32` code into its distinct values, held in first-seen order,
/// and a map from each value to its code. [`RelationBuilder::finish`]
/// sorts only the distinct values and renumbers the codes, so dictionary
/// codes are ordinal regardless of insertion order, and the map becomes
/// the dictionary's index.
///
/// A builder is row storage in its own right: it reads in place as
/// [`Columnar`] rows, so a serving session keeps the rows appended since
/// its relation was built in one, as the builder of its next relation.
#[derive(Debug)]
pub struct RelationBuilder {
    schema: Schema,
    /// One per schema field, in schema order.
    columns: Vec<BuildColumn>,
    rows: usize,
}

/// A column of a [`RelationBuilder`].
#[derive(Debug)]
enum BuildColumn {
    Dimension(Interned),
    Measure(Vec<f64>),
}

/// A dimension column being built: per-row codes into its distinct
/// values, in first-seen order.
#[derive(Debug, Default)]
struct Interned {
    codes: Vec<u32>,
    /// `values[code]`, in the order the values were first pushed.
    values: Vec<AttrValue>,
    /// `values` inverted. Std's keyed hasher: the values are what clients
    /// send, and an unkeyed hash would let them pick colliding keys.
    index: HashMap<AttrValue, u32>,
}

impl Interned {
    /// Appends a row holding `value`.
    fn push(&mut self, value: AttrValue) {
        // Consecutive rows mostly repeat a value (a batch's rows share
        // their timestamp): compare with the last row's before hashing.
        if let Some(&last) = self.codes.last() {
            if self.values[last as usize] == value {
                self.codes.push(last);
                return;
            }
        }
        let next = self.next_code();
        let code = match self.index.entry(value) {
            Entry::Occupied(entry) => *entry.get(),
            Entry::Vacant(entry) => {
                self.values.push(entry.key().clone());
                *entry.insert(next)
            }
        };
        self.codes.push(code);
    }

    /// The code of `value`, interning a copy of it if it is new.
    fn intern(&mut self, value: &AttrValue) -> u32 {
        if let Some(&code) = self.index.get(value) {
            return code;
        }
        let code = self.next_code();
        self.values.push(value.clone());
        self.index.insert(value.clone(), code);
        code
    }

    /// The code a new distinct value gets.
    fn next_code(&self) -> u32 {
        u32::try_from(self.values.len()).expect("a dimension holds fewer than 2^32 distinct values")
    }

    /// The finished column: the distinct values sorted, and the codes and
    /// the index renumbered to match.
    fn finish(self) -> DimColumn {
        let Interned {
            mut codes,
            mut values,
            mut index,
        } = self;
        // `order[new] = old`, then its inverse `new_of[old] = new`.
        let mut order: Vec<u32> = (0..).take(values.len()).collect();
        order.sort_unstable_by(|&a, &b| values[a as usize].cmp(&values[b as usize]));
        let mut new_of = vec![0u32; order.len()];
        for (new, &old) in (0..).zip(&order) {
            new_of[old as usize] = new;
        }
        drop(order);
        for code in &mut codes {
            *code = new_of[*code as usize];
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "each entry is renumbered on its own, so the visiting order cannot show"
        )]
        for code in index.values_mut() {
            *code = new_of[*code as usize];
        }
        // Move each value to its sorted place, one cycle of the
        // permutation at a time: no second copy of the values.
        for i in 0..values.len() {
            while new_of[i] as usize != i {
                let j = new_of[i] as usize;
                values.swap(i, j);
                new_of.swap(i, j);
            }
        }
        DimColumn::from_parts(Dictionary::from_sorted(values, index), codes)
    }
}

impl RelationBuilder {
    pub(crate) fn new(schema: Schema) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| match f.column_type() {
                ColumnType::Dimension => BuildColumn::Dimension(Interned::default()),
                ColumnType::Measure => BuildColumn::Measure(Vec::new()),
            })
            .collect();
        RelationBuilder {
            schema,
            columns,
            rows: 0,
        }
    }

    /// Checks that `row` fits the schema: its arity, a [`Datum::Attr`] in
    /// every dimension slot, and a number (or an integer attribute) in
    /// every measure slot.
    fn check_row(&self, row: &[Datum]) -> Result<(), RelationError> {
        if row.len() != self.schema.len() {
            return Err(RelationError::ArityMismatch {
                expected: self.schema.len(),
                got: row.len(),
            });
        }
        for (field, datum) in self.schema.fields().iter().zip(row) {
            let expected = match (field.column_type(), datum) {
                (ColumnType::Dimension, Datum::Num(_)) => "dimension",
                (ColumnType::Measure, Datum::Attr(value))
                    if !matches!(value, AttrValue::Int(_)) =>
                {
                    "measure"
                }
                _ => continue,
            };
            return Err(RelationError::TypeMismatch {
                field: field.name().to_string(),
                expected,
            });
        }
        Ok(())
    }

    /// Appends one row; values must match the schema order. A row that
    /// does not fit the schema leaves the builder unchanged.
    pub fn push_row(&mut self, row: Vec<Datum>) -> Result<(), RelationError> {
        self.check_row(&row)?;
        self.push_checked(row);
        Ok(())
    }

    /// Appends a batch of rows, all or none: every row is checked before
    /// the first is taken.
    pub fn extend_rows(&mut self, rows: Vec<Vec<Datum>>) -> Result<(), RelationError> {
        for row in &rows {
            self.check_row(row)?;
        }
        for row in rows {
            self.push_checked(row);
        }
        Ok(())
    }

    /// Appends a row [`RelationBuilder::check_row`] passed.
    fn push_checked(&mut self, row: Vec<Datum>) {
        for (column, datum) in self.columns.iter_mut().zip(row) {
            match (column, datum) {
                (BuildColumn::Dimension(col), Datum::Attr(value)) => col.push(value),
                (BuildColumn::Measure(col), Datum::Num(x)) => col.push(x),
                (BuildColumn::Measure(col), Datum::Attr(AttrValue::Int(i))) => col.push(i as f64),
                _ => unreachable!("the row was checked against the schema"),
            }
        }
        self.rows += 1;
    }

    /// Appends rows `range` of `source`, read from its columns in place:
    /// each distinct value a dimension column uses is looked up once, not
    /// once per row.
    ///
    /// # Panics
    /// Panics if `source`'s columns are not of this builder's schema's
    /// types, or if `range` is out of its rows.
    pub fn extend_from(&mut self, source: &impl Columnar, range: Range<usize>) {
        for (idx, column) in self.columns.iter_mut().enumerate() {
            match (column, source.view(idx)) {
                (BuildColumn::Dimension(col), ColumnView::Dimension { codes, values }) => {
                    // `ours[code]`: the code of `source`'s `code` here,
                    // once looked up.
                    let mut ours: Vec<Option<u32>> = vec![None; values.len()];
                    col.codes.reserve(range.len());
                    for &code in &codes[range.clone()] {
                        let code = code as usize;
                        let mapped = *ours[code].get_or_insert_with(|| col.intern(&values[code]));
                        col.codes.push(mapped);
                    }
                }
                (BuildColumn::Measure(col), ColumnView::Measure(values)) => {
                    col.extend_from_slice(&values[range.clone()]);
                }
                _ => panic!("column {idx} of the source is not of the builder's type"),
            }
        }
        self.rows += range.len();
    }

    /// Number of rows pushed so far.
    pub fn n_rows(&self) -> usize {
        self.rows
    }

    /// Finalizes the relation: each dimension's distinct values are sorted
    /// and its codes renumbered to match.
    pub fn finish(self) -> Relation {
        let columns = self
            .columns
            .into_iter()
            .map(|column| match column {
                BuildColumn::Dimension(col) => Column::Dimension(col.finish()),
                BuildColumn::Measure(values) => Column::Measure(values),
            })
            .collect();
        Relation::from_parts(self.schema, columns, self.rows)
    }
}

impl Columnar for RelationBuilder {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// A dimension's values are in first-seen order, not sorted.
    fn view(&self, idx: usize) -> ColumnView<'_> {
        match &self.columns[idx] {
            BuildColumn::Dimension(col) => ColumnView::Dimension {
                codes: &col.codes,
                values: &col.values,
            },
            BuildColumn::Measure(values) => ColumnView::Measure(values),
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::schema::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::dimension("date"),
            Field::dimension("pack"),
            Field::measure("sold"),
        ])
        .unwrap()
    }

    #[test]
    fn builds_rows() {
        let mut b = Relation::builder(schema());
        b.push_row(vec!["d1".into(), 6i64.into(), 2.0.into()])
            .unwrap();
        b.push_row(vec!["d2".into(), 12i64.into(), 3.0.into()])
            .unwrap();
        let rel = b.finish();
        assert_eq!(rel.n_rows(), 2);
        assert_eq!(rel.measure("sold").unwrap(), &[2.0, 3.0]);
        rel.check_invariants().unwrap();
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut b = Relation::builder(schema());
        let err = b.push_row(vec!["d1".into()]).unwrap_err();
        assert!(matches!(err, RelationError::ArityMismatch { .. }));
        assert_eq!(b.n_rows(), 0);
    }

    #[test]
    fn type_mismatch_rejected_atomically() {
        let mut b = Relation::builder(schema());
        // Third field is a measure; a string is not acceptable.
        let err = b
            .push_row(vec!["d1".into(), 6i64.into(), "oops".into()])
            .unwrap_err();
        assert!(matches!(err, RelationError::TypeMismatch { .. }));
        assert_eq!(b.n_rows(), 0);
        // Builder still usable.
        b.push_row(vec!["d1".into(), 6i64.into(), 1.0.into()])
            .unwrap();
        assert_eq!(b.n_rows(), 1);
    }

    #[test]
    fn integer_coerces_into_measure() {
        let mut b = Relation::builder(schema());
        b.push_row(vec![
            "d1".into(),
            6i64.into(),
            Datum::Attr(AttrValue::Int(4)),
        ])
        .unwrap();
        let rel = b.finish();
        assert_eq!(rel.measure("sold").unwrap(), &[4.0]);
    }

    #[test]
    fn float_rejected_for_dimension() {
        let mut b = Relation::builder(schema());
        // An integral number too: only the wire decoder reads one as an
        // integer attribute.
        for x in [1.5, 2.0] {
            let err = b
                .push_row(vec![Datum::Num(x), 6i64.into(), 1.0.into()])
                .unwrap_err();
            assert!(matches!(err, RelationError::TypeMismatch { .. }));
        }
        assert_eq!(b.n_rows(), 0);
    }

    #[test]
    fn a_batch_with_a_bad_row_is_taken_whole_or_not_at_all() {
        let mut b = Relation::builder(schema());
        let good = vec!["d1".into(), 6i64.into(), 1.0.into()];
        let err = b
            .extend_rows(vec![
                good.clone(),
                vec!["d2".into(), 6i64.into(), "x".into()],
            ])
            .unwrap_err();
        assert!(matches!(err, RelationError::TypeMismatch { .. }));
        assert_eq!(b.n_rows(), 0);
        b.extend_rows(vec![good.clone(), good]).unwrap();
        assert_eq!(b.n_rows(), 2);
        assert_eq!(b.finish().dim_column("date").unwrap().dict().len(), 1);
    }

    #[test]
    fn empty_finish() {
        let rel = Relation::builder(schema()).finish();
        assert!(rel.is_empty());
        rel.check_invariants().unwrap();
    }

    /// `rows`' columns as the sort-based path builds them: each dimension
    /// through `DimColumn::from_values`, which sorts and dedups every
    /// cell, the reference the interning builder reproduces.
    fn sorted_reference(schema: &Schema, rows: &[Vec<Datum>]) -> Vec<Column> {
        (0..schema.len())
            .map(|idx| match schema.field(idx).column_type() {
                ColumnType::Dimension => Column::Dimension(DimColumn::from_values(
                    rows.iter()
                        .map(|row| match &row[idx] {
                            Datum::Attr(v) => v.clone(),
                            Datum::Num(_) => unreachable!("dimensions are drawn as attributes"),
                        })
                        .collect(),
                )),
                ColumnType::Measure => Column::Measure(
                    rows.iter()
                        .map(|row| match &row[idx] {
                            Datum::Num(x) => *x,
                            Datum::Attr(AttrValue::Int(i)) => *i as f64,
                            Datum::Attr(_) => unreachable!("measures are drawn as numbers"),
                        })
                        .collect(),
                ),
            })
            .collect()
    }

    /// Where `relation` differs from `reference`: dictionary values,
    /// codes, every value's index entry and measure bits.
    fn difference(relation: &Relation, reference: &[Column]) -> Option<String> {
        if let Err(e) = relation.check_invariants() {
            return Some(e);
        }
        for (idx, expected) in reference.iter().enumerate() {
            let same = match (relation.column(idx), expected) {
                (Column::Dimension(got), Column::Dimension(want)) => {
                    got.dict().values() == want.dict().values()
                        && got.codes() == want.codes()
                        && want
                            .dict()
                            .values()
                            .iter()
                            .all(|v| got.dict().code_of(v) == want.dict().code_of(v))
                }
                (Column::Measure(got), Column::Measure(want)) => got
                    .iter()
                    .map(|x| x.to_bits())
                    .eq(want.iter().map(|x| x.to_bits())),
                _ => false,
            };
            if !same {
                return Some(format!(
                    "column {idx}: {:?} against {expected:?}",
                    relation.column(idx)
                ));
            }
        }
        None
    }

    /// Strings that share prefixes and sort unlike their first-seen order.
    const WORDS: [&str; 6] = ["NY", "CA", "", "N", "é", "NYC"];

    /// One drawn cell, read by its column's kind: a string dimension, an
    /// integer dimension, or a measure (a float or an integer attribute).
    fn cell(kind: u8, (pick, int, x): (usize, i64, f64), distinct: bool, row: usize) -> Datum {
        match kind {
            0 if distinct => Datum::Attr(format!("v{}", row * 7919 % 1009).into()),
            0 => Datum::Attr(WORDS[pick % WORDS.len()].into()),
            1 if distinct => Datum::Attr(AttrValue::Int(-(row as i64) * 3)),
            1 => Datum::Attr(AttrValue::Int(int)),
            _ if pick % 2 == 0 => Datum::Attr(AttrValue::Int(int)),
            _ => Datum::Num(x),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Over random rows, the interning builder's relation equals the
        /// sort-based path's: the same dictionary values, codes and measure
        /// bits, and `check_invariants` holds. String and integer
        /// dimensions, repeated values in any insertion order, and columns
        /// whose every value is distinct. A builder fed the same rows from
        /// another builder's columns and from the relation's, split
        /// anywhere (`extend_from`), finishes to the same relation too.
        #[test]
        fn interning_matches_the_sort_based_build(
            kinds in proptest::collection::vec(0u8..3, 1..5),
            distinct in proptest::collection::vec(0u8..4, 4),
            raw in proptest::collection::vec(
                proptest::collection::vec((0usize..64, -3i64..3, -1e3f64..1e3), 4),
                0..80,
            ),
            split in 0usize..90,
        ) {
            let schema = Schema::new(
                kinds
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| match k {
                        2 => Field::measure(format!("m{i}")),
                        _ => Field::dimension(format!("d{i}")),
                    })
                    .collect(),
            )
            .unwrap();
            let rows: Vec<Vec<Datum>> = raw
                .iter()
                .enumerate()
                .map(|(r, cells)| {
                    kinds
                        .iter()
                        .zip(cells)
                        .zip(&distinct)
                        .map(|((&k, &c), &d)| cell(k, c, d == 0, r))
                        .collect()
                })
                .collect();
            let reference = sorted_reference(&schema, &rows);

            let mut pushed = Relation::builder(schema.clone());
            for row in &rows {
                pushed.push_row(row.clone()).unwrap();
            }
            prop_assert_eq!(pushed.n_rows(), rows.len());
            // The builder's own columns read back the rows it took.
            for (idx, kind) in kinds.iter().enumerate() {
                if let (0 | 1, ColumnView::Dimension { codes, values }) = (kind, pushed.view(idx)) {
                    for (r, row) in rows.iter().enumerate() {
                        prop_assert!(Datum::Attr(values[codes[r] as usize].clone()) == row[idx]);
                    }
                }
            }
            let split = split.min(rows.len());
            let mut copied = Relation::builder(schema.clone());
            copied.extend_from(&pushed, 0..split);
            copied.extend_from(&pushed, split..rows.len());
            let relation = pushed.finish();
            if let Some(diff) = difference(&relation, &reference) {
                return Err(TestCaseError::fail(diff));
            }
            if let Some(diff) = difference(&copied.finish(), &reference) {
                return Err(TestCaseError::fail(format!("from a builder: {diff}")));
            }
            let mut regathered = Relation::builder(schema.clone());
            regathered.extend_from(&relation, split..rows.len());
            regathered.extend_from(&relation, 0..split);
            let rotated: Vec<Vec<Datum>> =
                rows[split..].iter().chain(&rows[..split]).cloned().collect();
            if let Some(diff) = difference(&regathered.finish(), &sorted_reference(&schema, &rotated)) {
                return Err(TestCaseError::fail(format!("from a relation: {diff}")));
            }
        }
    }
}
