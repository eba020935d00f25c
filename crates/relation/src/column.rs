use crate::dict::Dictionary;
use crate::schema::Schema;
use crate::value::AttrValue;

/// A dictionary-encoded dimension column: per-row codes into a sorted
/// [`Dictionary`].
#[derive(Clone, Debug)]
pub struct DimColumn {
    dict: Dictionary,
    codes: Vec<u32>,
}

impl DimColumn {
    /// Builds a column from raw per-row values.
    pub fn from_values(values: Vec<AttrValue>) -> Self {
        let dict = Dictionary::from_values(values.iter().cloned());
        let codes = values
            .iter()
            .map(|v| dict.code_of(v).expect("value came from the same set"))
            .collect();
        DimColumn { dict, codes }
    }

    /// A column from its dictionary and codes into it.
    pub(crate) fn from_parts(dict: Dictionary, codes: Vec<u32>) -> Self {
        debug_assert!(codes.iter().all(|&c| (c as usize) < dict.len()));
        DimColumn { dict, codes }
    }

    /// The column's dictionary.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// Per-row dictionary codes.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The decoded value of row `row`.
    pub fn value_at(&self, row: usize) -> &AttrValue {
        self.dict.value(self.codes[row])
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// A copy of this column restricted to the rows selected by `keep`.
    pub fn gather(&self, keep: &[usize]) -> Self {
        let values = keep.iter().map(|&r| self.value_at(r).clone()).collect();
        DimColumn::from_values(values)
    }
}

/// A relation column: either a dimension or a measure.
#[derive(Clone, Debug)]
pub enum Column {
    /// Dictionary-encoded categorical column.
    Dimension(DimColumn),
    /// Plain numeric column.
    Measure(Vec<f64>),
}

impl Column {
    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            Column::Dimension(d) => d.len(),
            Column::Measure(m) => m.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy restricted to the rows selected by `keep`.
    pub fn gather(&self, keep: &[usize]) -> Self {
        match self {
            Column::Dimension(d) => Column::Dimension(d.gather(keep)),
            Column::Measure(m) => Column::Measure(keep.iter().map(|&r| m[r]).collect()),
        }
    }
}

/// One column's rows, read in place.
#[derive(Clone, Copy, Debug)]
pub enum ColumnView<'a> {
    /// A dimension: per-row codes into `values`, its distinct values
    /// (sorted in a [`crate::Relation`], in first-seen order in a
    /// [`crate::RelationBuilder`]).
    Dimension {
        /// Per-row codes.
        codes: &'a [u32],
        /// The values the codes index.
        values: &'a [AttrValue],
    },
    /// A measure's per-row values.
    Measure(&'a [f64]),
}

/// Rows stored column by column, read in place: a finished
/// [`crate::Relation`]'s or a [`crate::RelationBuilder`]'s. The wire
/// writer ([`crate::write_wire_rows`]), measure evaluation and
/// [`crate::RelationBuilder::extend_from`] read either.
pub trait Columnar {
    /// The schema the columns follow.
    fn schema(&self) -> &Schema;

    /// The column at schema position `idx`.
    fn view(&self, idx: usize) -> ColumnView<'_>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_codes() {
        let col = DimColumn::from_values(["NY", "CA", "NY"].map(AttrValue::from).to_vec());
        assert_eq!(col.len(), 3);
        assert_eq!(col.value_at(0), &AttrValue::from("NY"));
        assert_eq!(col.value_at(1), &AttrValue::from("CA"));
        assert_eq!(col.codes()[0], col.codes()[2]);
        assert_eq!(col.dict().len(), 2);
    }

    #[test]
    fn gather_selects_rows() {
        let col = DimColumn::from_values(["a", "b", "c", "b"].map(AttrValue::from).to_vec());
        let g = col.gather(&[1, 3]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.value_at(0), &AttrValue::from("b"));
        assert_eq!(g.value_at(1), &AttrValue::from("b"));
        assert_eq!(g.dict().len(), 1);
    }

    #[test]
    fn measure_gather() {
        let col = Column::Measure(vec![1.0, 2.0, 3.0]);
        match col.gather(&[2, 0]) {
            Column::Measure(m) => assert_eq!(m, vec![3.0, 1.0]),
            Column::Dimension(_) => panic!("expected measure"),
        }
    }
}
