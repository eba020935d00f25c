//! Approximate byte-size accounting for cubes.
//!
//! A serving session caches prepared cubes; a multi-tenant registry caches
//! whole sessions. Neither can bound its footprint without knowing what a
//! cube costs, so both [`crate::ExplanationCube`] and
//! [`crate::IncrementalCube`] expose `approx_bytes`: a deterministic,
//! allocation-free estimate of heap + inline size built from the same
//! handful of helpers.
//!
//! The estimate is intentionally approximate — it counts the dominant
//! payloads (the state store's planes, dictionaries, tries, hash indexes)
//! with flat per-entry overheads for hash-map bookkeeping rather than
//! chasing allocator metadata. What matters for an eviction policy is that
//! the estimate is (a) monotone in the data (more rows, points or
//! candidates never shrink it) and (b) stable for identical state, so
//! LRU-by-bytes decisions are reproducible. A state store that a snapshot
//! shares with its incremental cube is counted by the incremental cube
//! only, so an entry holding both counts it once.

use std::mem::size_of;

use tsexplain_relation::{AggState, AttrValue, Dictionary};

use crate::explanation::Explanation;
use crate::trie::DrillTrie;

/// Flat overhead charged per hash-map entry (bucket slot, control bytes,
/// padding) on top of the key/value payloads.
pub(crate) const MAP_ENTRY_OVERHEAD: usize = 16;

/// Approximate heap + inline size of one attribute value.
pub(crate) fn attr_value_bytes(value: &AttrValue) -> usize {
    size_of::<AttrValue>()
        + match value {
            AttrValue::Int(_) => 0,
            // Arc<str>: the string payload plus the two reference counts.
            AttrValue::Str(s) => s.len() + 2 * size_of::<usize>(),
        }
}

/// Approximate size of a slice of attribute values (e.g. a time axis).
pub(crate) fn attr_values_bytes(values: &[AttrValue]) -> usize {
    values.iter().map(attr_value_bytes).sum()
}

/// Approximate size of a dictionary: sorted values plus the value→code
/// index (which clones every value as a key).
pub(crate) fn dictionary_bytes(dict: &Dictionary) -> usize {
    dict.values()
        .iter()
        .map(|v| 2 * attr_value_bytes(v) + size_of::<u32>() + MAP_ENTRY_OVERHEAD)
        .sum()
}

/// Approximate size of one explanation (its predicate vector).
pub(crate) fn explanation_bytes(e: &Explanation) -> usize {
    size_of::<Explanation>() + std::mem::size_of_val(e.preds())
}

/// Approximate size of an aggregate-state series (a store's overall series).
pub(crate) fn state_series_bytes(series: &[AggState]) -> usize {
    size_of::<Vec<AggState>>() + std::mem::size_of_val(series)
}

/// Approximate size of the drill-down trie: per node a group vector and a
/// parent offset, per edge a child id and a parent id.
pub(crate) fn trie_bytes(trie: &DrillTrie) -> usize {
    let nodes = trie.n_explanations() + 1;
    nodes * (size_of::<Vec<(u16, Vec<u32>)>>() + size_of::<u32>())
        + trie.n_edges() * (2 * size_of::<u32>() + 4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_values_cost_more_than_ints() {
        let int = AttrValue::from(42);
        let short = AttrValue::from("NY");
        let long = AttrValue::from("a much longer dimension member value");
        assert!(attr_value_bytes(&int) < attr_value_bytes(&short));
        assert!(attr_value_bytes(&short) < attr_value_bytes(&long));
    }

    #[test]
    fn dictionary_bytes_grow_with_cardinality() {
        let small = Dictionary::from_values((0..4).map(AttrValue::from));
        let large = Dictionary::from_values((0..64).map(AttrValue::from));
        assert!(dictionary_bytes(&small) < dictionary_bytes(&large));
    }

    #[test]
    fn state_series_bytes_are_linear_in_points() {
        let short = vec![AggState::ZERO; 10];
        let long = vec![AggState::ZERO; 1000];
        let a = state_series_bytes(&short);
        let b = state_series_bytes(&long);
        assert!(b > a);
        assert_eq!(b - a, 990 * size_of::<AggState>());
    }
}
