use crate::builder::RelationBuilder;
use crate::column::{Column, ColumnView, Columnar, DimColumn};
use crate::error::RelationError;
use crate::predicate::Conjunction;
use crate::schema::{ColumnType, Schema};

/// An in-memory columnar relation.
///
/// Dimension columns are dictionary encoded ([`DimColumn`]); measure columns
/// are dense `f64`. Relations are immutable once built — the OLAP operations
/// the paper mentions (slicing/dicing) produce new relations.
#[derive(Clone, Debug)]
pub struct Relation {
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl Relation {
    pub(crate) fn from_parts(schema: Schema, columns: Vec<Column>, rows: usize) -> Self {
        debug_assert_eq!(schema.len(), columns.len());
        debug_assert!(columns.iter().all(|c| c.len() == rows));
        Relation {
            schema,
            columns,
            rows,
        }
    }

    /// Starts building a relation with `schema`.
    pub fn builder(schema: Schema) -> RelationBuilder {
        RelationBuilder::new(schema)
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.rows
    }

    /// True when the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The column at schema position `idx`.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// The dimension column called `name`.
    pub fn dim_column(&self, name: &str) -> Result<&DimColumn, RelationError> {
        let idx = self.schema.dimension_index(name)?;
        match &self.columns[idx] {
            Column::Dimension(d) => Ok(d),
            Column::Measure(_) => unreachable!("schema says dimension"),
        }
    }

    /// The measure column called `name`.
    pub fn measure(&self, name: &str) -> Result<&[f64], RelationError> {
        let idx = self.schema.measure_index(name)?;
        match &self.columns[idx] {
            Column::Measure(m) => Ok(m),
            Column::Dimension(_) => unreachable!("schema says measure"),
        }
    }

    /// OLAP *slice*: rows where `conjunction` holds (a new relation).
    ///
    /// This is `σ_E R` from Definition 3.2. Single-predicate conjunctions are
    /// the classical slice; multi-predicate ones are the dice.
    pub fn select(&self, conjunction: &Conjunction) -> Result<Relation, RelationError> {
        let mut keep = Vec::new();
        for row in 0..self.rows {
            if conjunction.matches(self, row)? {
                keep.push(row);
            }
        }
        Ok(self.gather(&keep))
    }

    /// The complement of [`Relation::select`]: rows where `conjunction` does
    /// *not* hold (`R − σ_E R` from Definition 3.2).
    pub fn exclude(&self, conjunction: &Conjunction) -> Result<Relation, RelationError> {
        let mut keep = Vec::new();
        for row in 0..self.rows {
            if !conjunction.matches(self, row)? {
                keep.push(row);
            }
        }
        Ok(self.gather(&keep))
    }

    /// A new relation containing exactly the rows listed in `keep`.
    pub fn gather(&self, keep: &[usize]) -> Relation {
        let columns = self.columns.iter().map(|c| c.gather(keep)).collect();
        Relation::from_parts(self.schema.clone(), columns, keep.len())
    }

    /// Verifies internal invariants; used by tests and debug assertions:
    /// every column has the schema's type and `n_rows` rows, and every
    /// dimension's dictionary holds its distinct values sorted, indexes
    /// each at its code, and is indexed by the column's codes.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.schema.len() != self.columns.len() {
            return Err("schema/column arity mismatch".into());
        }
        for (i, col) in self.columns.iter().enumerate() {
            if col.len() != self.rows {
                return Err(format!("column {i} has wrong length"));
            }
            let ty = self.schema.field(i).column_type();
            let ok = matches!(
                (ty, col),
                (ColumnType::Dimension, Column::Dimension(_))
                    | (ColumnType::Measure, Column::Measure(_))
            );
            if !ok {
                return Err(format!("column {i} type mismatch"));
            }
            if let Column::Dimension(d) = col {
                if !d.dict().is_consistent() {
                    return Err(format!(
                        "column {i}'s dictionary is not sorted, distinct and indexed"
                    ));
                }
                if d.codes().iter().any(|&c| c as usize >= d.dict().len()) {
                    return Err(format!("column {i} has a code outside its dictionary"));
                }
            }
        }
        Ok(())
    }
}

impl Columnar for Relation {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn view(&self, idx: usize) -> ColumnView<'_> {
        match &self.columns[idx] {
            Column::Dimension(d) => ColumnView::Dimension {
                codes: d.codes(),
                values: d.dict().values(),
            },
            Column::Measure(m) => ColumnView::Measure(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Datum;
    use crate::predicate::Predicate;
    use crate::schema::Field;

    fn sample() -> Relation {
        let schema = Schema::new(vec![
            Field::dimension("date"),
            Field::dimension("state"),
            Field::measure("cases"),
        ])
        .unwrap();
        let mut b = Relation::builder(schema);
        let rows = [
            ("d1", "NY", 10.0),
            ("d1", "CA", 5.0),
            ("d2", "NY", 20.0),
            ("d2", "CA", 6.0),
        ];
        for (d, s, v) in rows {
            b.push_row(vec![Datum::from(d), Datum::from(s), Datum::from(v)])
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn invariants_hold() {
        sample().check_invariants().unwrap();
    }

    #[test]
    fn select_filters_rows() {
        let rel = sample();
        let slice = rel
            .select(&Conjunction::new().and(Predicate::equals("state", "NY")))
            .unwrap();
        assert_eq!(slice.n_rows(), 2);
        assert_eq!(slice.measure("cases").unwrap(), &[10.0, 20.0]);
        slice.check_invariants().unwrap();
    }

    #[test]
    fn exclude_is_complement() {
        let rel = sample();
        let conj = Conjunction::new().and(Predicate::equals("state", "NY"));
        let inside = rel.select(&conj).unwrap();
        let outside = rel.exclude(&conj).unwrap();
        assert_eq!(inside.n_rows() + outside.n_rows(), rel.n_rows());
        assert_eq!(outside.measure("cases").unwrap(), &[5.0, 6.0]);
    }

    #[test]
    fn select_on_absent_value_yields_empty() {
        let rel = sample();
        let slice = rel
            .select(&Conjunction::new().and(Predicate::equals("state", "TX")))
            .unwrap();
        assert!(slice.is_empty());
        slice.check_invariants().unwrap();
    }

    #[test]
    fn dim_and_measure_accessors_type_check() {
        let rel = sample();
        assert!(rel.dim_column("state").is_ok());
        assert!(rel.dim_column("cases").is_err());
        assert!(rel.measure("cases").is_ok());
        assert!(rel.measure("state").is_err());
    }

    #[test]
    fn gather_preserves_order_given() {
        let rel = sample();
        let g = rel.gather(&[3, 0]);
        assert_eq!(g.measure("cases").unwrap(), &[6.0, 10.0]);
    }
}
