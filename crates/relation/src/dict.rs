use std::collections::HashMap;

use crate::value::AttrValue;

/// A sorted dictionary for one dimension column.
///
/// Codes are ordinal: `code(a) < code(b)` iff `a < b` under [`AttrValue`]'s
/// total order. This is what lets the time dimension double as an ordinary
/// dictionary-encoded dimension — the sorted codes *are* the time axis.
#[derive(Clone, Debug)]
pub struct Dictionary {
    values: Vec<AttrValue>,
    index: HashMap<AttrValue, u32>,
}

impl Dictionary {
    /// Builds a dictionary from an arbitrary collection of values
    /// (duplicates allowed); the result holds the sorted distinct values.
    pub fn from_values<I: IntoIterator<Item = AttrValue>>(values: I) -> Self {
        let mut distinct: Vec<AttrValue> = values.into_iter().collect();
        distinct.sort_unstable();
        distinct.dedup();
        let index = distinct
            .iter()
            .enumerate()
            .map(|(i, v)| (v.clone(), i as u32))
            .collect();
        Dictionary {
            values: distinct,
            index,
        }
    }

    /// A dictionary from sorted distinct `values` and their index.
    pub(crate) fn from_sorted(values: Vec<AttrValue>, index: HashMap<AttrValue, u32>) -> Self {
        debug_assert!(values.windows(2).all(|w| w[0] < w[1]));
        debug_assert_eq!(index.len(), values.len());
        Dictionary { values, index }
    }

    /// Builds a dictionary whose codes follow the *given* order instead of
    /// the sorted order — used by incrementally grown cubes, where codes of
    /// values first seen after construction are assigned append-order.
    ///
    /// `values` must be distinct.
    ///
    /// # Panics
    /// Panics (debug) on duplicate values.
    pub fn from_ordered_values(values: Vec<AttrValue>) -> Self {
        let index: HashMap<AttrValue, u32> = values
            .iter()
            .enumerate()
            .map(|(i, v)| (v.clone(), i as u32))
            .collect();
        debug_assert_eq!(index.len(), values.len(), "values must be distinct");
        Dictionary { values, index }
    }

    /// Number of distinct values (the attribute's cardinality).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the dictionary holds no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The code of `value`, if present.
    pub fn code_of(&self, value: &AttrValue) -> Option<u32> {
        self.index.get(value).copied()
    }

    /// The value behind `code`.
    ///
    /// # Panics
    /// Panics if `code` is out of range; codes always come from the same
    /// dictionary in this crate.
    pub fn value(&self, code: u32) -> &AttrValue {
        &self.values[code as usize]
    }

    /// All values in sorted (code) order.
    pub fn values(&self) -> &[AttrValue] {
        &self.values
    }

    /// Whether the values are sorted and distinct and the index maps each
    /// to its code, and nothing else.
    pub(crate) fn is_consistent(&self) -> bool {
        self.values.windows(2).all(|w| w[0] < w[1])
            && self.index.len() == self.values.len()
            && (0..)
                .zip(&self.values)
                .all(|(code, v)| self.index.get(v) == Some(&code))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_distinct() {
        let d = Dictionary::from_values(["b", "a", "b", "c"].map(AttrValue::from));
        assert_eq!(d.len(), 3);
        assert_eq!(d.value(0), &AttrValue::from("a"));
        assert_eq!(d.value(2), &AttrValue::from("c"));
    }

    #[test]
    fn codes_are_ordinal() {
        let d = Dictionary::from_values([10i64, 2, 7].map(AttrValue::from));
        let c2 = d.code_of(&AttrValue::from(2)).unwrap();
        let c7 = d.code_of(&AttrValue::from(7)).unwrap();
        let c10 = d.code_of(&AttrValue::from(10)).unwrap();
        assert!(c2 < c7 && c7 < c10);
    }

    #[test]
    fn missing_value_is_none() {
        let d = Dictionary::from_values([AttrValue::from("x")]);
        assert_eq!(d.code_of(&AttrValue::from("y")), None);
    }

    #[test]
    fn empty_dictionary() {
        let d = Dictionary::from_values(std::iter::empty());
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
    }
}
