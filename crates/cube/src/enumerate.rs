//! Candidate enumeration over one packed integer key per subset and row.
//!
//! Every explanation of order `β ≤ β̄` that the data witnesses is one group
//! of rows with equal codes over an attribute subset `S` (the `ε` of the
//! paper's complexity analysis, §5.2, and the `ε` column of Table 6). A
//! subset is its *prefix* `S ∖ {last}` plus its highest attribute `last`;
//! an order-1 subset's prefix is empty, the trie root. So a row's group on
//! `S` is named by two integers, the row's explanation id on the prefix and
//! the row's code of `last`, and [`pack`] folds them into one `u64`. Ids and
//! codes are both `u32`, so the key cannot overflow, and growing a
//! dictionary on append changes no existing key.
//!
//! The seed ([`enumerate_seed`]) makes two passes over the rows. The id pass
//! runs one order at a time, because a subset reads the per-row ids of its
//! prefix. Within an order the subsets are independent and fan out across
//! workers. Each subset looks its keys up in a dense slot table (`prefix
//! groups × dictionary size` slots) when that fits under
//! [`DENSE_SLOTS_PER_ROW`] slots per row, and in a `HashMap<u64, ExplId>`
//! otherwise. Ids are assigned in first-witness row order within a subset,
//! and subsets take contiguous id blocks in ascending bitmask order, so the
//! explanation list is the same at any thread count. An explanation's id is
//! its column in the cube's time-major [`StateStore`].
//!
//! The fold pass then adds every row's measure to its group's cell, one
//! subset at a time and in row order within a subset, so each cell sees its
//! rows in the order a per-explanation series would and holds the same bits
//! at any thread count. Workers take contiguous runs of timestamps, so each
//! owns a contiguous slab of every plane and indexes it directly; each
//! scans every row and folds the ones whose timestamp falls in its run.
//!
//! An incremental cube keeps one `u64 → ExplId` map per subset between
//! appends, keyed by global prefix ids. [`derive_groups`] derives those maps
//! from the explanation list at the first append.

use std::collections::HashMap;

use tsexplain_parallel::ParallelCtx;
use tsexplain_relation::AggFn;

use crate::error::CubeError;
use crate::explanation::{ExplId, Explanation};
use crate::trie::ROOT_NODE;
use crate::values::StateStore;

/// A subset indexes its keys in a dense slot table while the table needs at
/// most this many slots per relation row; above that it hashes them. The
/// cap bounds a table by the scan that fills it.
const DENSE_SLOTS_PER_ROW: usize = 4;

/// An unoccupied dense slot.
const VACANT: ExplId = ExplId::MAX;

/// Per subset: packed key → explanation id.
pub(crate) type Groups = Vec<HashMap<u64, ExplId>>;

/// One attribute subset `S` with `|S| ≤ max_order`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Subset {
    /// Bit `a` is set for each explain-by attribute `a` in the subset.
    pub mask: u32,
    /// The subset's highest attribute, whose code the key carries.
    pub last: u16,
    /// Index of the prefix `S ∖ {last}` in the subset list; `None` at
    /// order 1.
    pub prefix: Option<usize>,
}

impl Subset {
    /// The subset's size, the order of its explanations.
    pub fn order(&self) -> usize {
        self.mask.count_ones() as usize
    }
}

/// The key of a group: its prefix's explanation id ([`ROOT_NODE`] at order
/// 1 in the kept maps) and its code of the subset's last attribute.
pub(crate) fn pack(prefix: ExplId, code: u32) -> u64 {
    (u64::from(prefix) << 32) | u64::from(code)
}

/// All non-empty attribute subsets with `|S| ≤ max_order`, in ascending
/// bitmask order: the canonical enumeration order every cube shares. A
/// prefix has a lower mask than its subset, so it always comes first.
pub(crate) fn enumerate_subsets(n_attrs: usize, max_order: usize) -> Vec<Subset> {
    let mut subsets: Vec<Subset> = Vec::new();
    for mask in 1u32..(1u32 << n_attrs) {
        if mask.count_ones() as usize > max_order {
            continue;
        }
        let last = 31 - mask.leading_zeros();
        let rest = mask & !(1 << last);
        let prefix = (rest != 0)
            .then(|| subset_index(&subsets, rest).expect("a prefix precedes its subset"));
        subsets.push(Subset {
            mask,
            last: last as u16,
            prefix,
        });
    }
    subsets
}

/// The position of the subset with `mask` in an ascending subset list.
fn subset_index(subsets: &[Subset], mask: u32) -> Option<usize> {
    subsets.binary_search_by_key(&mask, |s| s.mask).ok()
}

/// The columnar rows a seed enumerates: per row a time code, a code per
/// explain-by attribute and the evaluated measure.
pub(crate) struct SeedInput<'a> {
    /// `time_codes[row] < n_times`.
    pub time_codes: &'a [u32],
    pub n_times: usize,
    /// `attr_codes[a][row]` is attribute `a`'s dictionary code in `row`.
    pub attr_codes: Vec<&'a [u32]>,
    /// Per attribute, the dictionary size (every code is below it).
    pub dict_lens: Vec<usize>,
    pub measures: &'a [f64],
}

/// One subset's share of a seed: its explanations in first-witness row
/// order, and each row's subset-local id, which the next order's subsets
/// read as prefix ids and the fold reads as columns.
#[derive(Default)]
struct Part {
    explanations: Vec<Explanation>,
    row_ids: Vec<ExplId>,
}

/// Enumerates every witnessed explanation of every subset, in subset
/// order, and folds the rows into a time-major store with one column per
/// explanation plus the overall series, decoded under `agg` (module docs).
///
/// A cancelled fan-out returns [`CubeError::Cancelled`]: subsets skipped
/// after the token tripped leave truncated output, which is never seen.
pub(crate) fn enumerate_seed(
    subsets: &[Subset],
    input: &SeedInput<'_>,
    agg: AggFn,
    par: &ParallelCtx,
) -> Result<(Vec<Explanation>, StateStore), CubeError> {
    let max_order = subsets.iter().map(Subset::order).max().unwrap_or(0);
    let cancel = par.cancel_token().cloned();
    let mut parts: Vec<Part> = Vec::new();
    parts.resize_with(subsets.len(), Part::default);
    for order in 1..=max_order {
        let wave: Vec<usize> = (0..subsets.len())
            .filter(|&si| subsets[si].order() == order)
            .collect();
        let done = par.run_chunks(wave.len(), |range| {
            range
                .map(|wi| {
                    // Subset-boundary poll; the wave's caller re-checks.
                    if cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
                        return Part::default();
                    }
                    let subset = &subsets[wave[wi]];
                    enumerate_subset(subset, subset.prefix.map(|p| &parts[p]), input)
                })
                .collect()
        });
        if par.is_cancelled() {
            return Err(CubeError::Cancelled);
        }
        for (&si, part) in wave.iter().zip(done) {
            parts[si] = part;
        }
    }

    // Each subset's first column.
    let mut starts = Vec::with_capacity(parts.len());
    let mut n_cols = 0;
    for part in &parts {
        starts.push(n_cols);
        n_cols += part.explanations.len();
    }
    let mut store = StateStore::zeroed(agg, input.n_times, n_cols);
    let runs = par.chunk_ranges(input.n_times);
    let slabs = store.row_slabs(&runs.iter().map(|r| r.start).collect::<Vec<_>>());
    par.run_parts(slabs, |mut slab| {
        let rows = slab.rows();
        for (part, &start) in parts.iter().zip(&starts) {
            let observations = part
                .row_ids
                .iter()
                .zip(input.time_codes)
                .zip(input.measures);
            for ((&id, &t), &m) in observations {
                let t = t as usize;
                if rows.contains(&t) {
                    slab.observe(t, start + id as usize, m);
                }
            }
        }
    });
    if par.is_cancelled() {
        return Err(CubeError::Cancelled);
    }
    for (&t, &m) in input.time_codes.iter().zip(input.measures) {
        store.observe_total(t as usize, m);
    }
    store.decode();

    let mut explanations = Vec::with_capacity(n_cols);
    for part in parts {
        explanations.extend(part.explanations);
    }
    Ok((explanations, store))
}

/// Groups the rows of one subset by their packed key, with the index the
/// subset's key space fits (module docs).
fn enumerate_subset(subset: &Subset, prefix: Option<&Part>, input: &SeedInput<'_>) -> Part {
    let prefix_groups = prefix.map_or(1, |p| p.explanations.len());
    let width = input.dict_lens[usize::from(subset.last)];
    let n_rows = input.time_codes.len();
    if prefix_groups.saturating_mul(width) <= DENSE_SLOTS_PER_ROW.saturating_mul(n_rows) {
        let mut slots = vec![VACANT; prefix_groups * width];
        scan(subset, prefix, input, |p, code, next| {
            let slot = &mut slots[p as usize * width + code as usize];
            if *slot == VACANT {
                *slot = next;
            }
            *slot
        })
    } else {
        let mut index: HashMap<u64, ExplId> = HashMap::new();
        scan(subset, prefix, input, |p, code, next| {
            *index.entry(pack(p, code)).or_insert(next)
        })
    }
}

/// The row scan behind [`enumerate_subset`]: `lookup(prefix id, code,
/// next)` returns the group's id, inserting `next` for a first witness.
fn scan(
    subset: &Subset,
    prefix: Option<&Part>,
    input: &SeedInput<'_>,
    mut lookup: impl FnMut(ExplId, u32, ExplId) -> ExplId,
) -> Part {
    let codes = input.attr_codes[usize::from(subset.last)];
    let mut part = Part {
        explanations: Vec::new(),
        row_ids: Vec::with_capacity(codes.len()),
    };
    for (row, &code) in codes.iter().enumerate() {
        let p = prefix.map_or(0, |pre| pre.row_ids[row]);
        let next = part.explanations.len() as ExplId;
        let id = lookup(p, code, next);
        if id == next {
            let parent = prefix.map(|pre| &pre.explanations[p as usize]);
            part.explanations.push(extend(parent, subset.last, code));
        }
        part.row_ids.push(id);
    }
    part
}

/// The explanation refining `prefix` (the root when `None`) with
/// `last = code`.
pub(crate) fn extend(prefix: Option<&Explanation>, last: u16, code: u32) -> Explanation {
    match prefix {
        Some(e) => e.with(last, code),
        None => Explanation::new(vec![(last, code)]),
    }
}

/// Derives the per-subset group maps of an explanation list: each
/// explanation is filed under its subset by the packed key of its prefix's
/// id and its last code. Explanations are filed in id order. Every cube
/// lists an explanation after all of its drill-down parents (subsets are
/// visited in ascending mask order, and a parent's mask is lower), so a
/// parent that is not filed yet is missing.
///
/// `None` when an explanation is empty, names no subset, repeats another,
/// or lacks one of its drill-down parents: the trie hangs an order-β
/// explanation under each of its β order-(β−1) parents, so all of them
/// must be present.
pub(crate) fn derive_groups(subsets: &[Subset], explanations: &[Explanation]) -> Option<Groups> {
    let mut groups: Groups = vec![HashMap::new(); subsets.len()];
    for (id, explanation) in explanations.iter().enumerate() {
        let preds = explanation.preds();
        let (&(_, code), prefix) = preds.split_last()?;
        let mask = preds.iter().fold(0u32, |m, &(a, _)| m | 1 << a);
        let si = subset_index(subsets, mask)?;
        let parent = resolve(subsets, &groups, prefix.iter().copied())?;
        // The other parents drop one prefix predicate and keep `last`.
        for skip in 0..prefix.len() {
            let others = preds
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != skip)
                .map(|(_, &p)| p);
            resolve(subsets, &groups, others)?;
        }
        if groups[si]
            .insert(pack(parent, code), id as ExplId)
            .is_some()
        {
            return None;
        }
    }
    Some(groups)
}

/// The id of the filed explanation with the given sorted predicates
/// ([`ROOT_NODE`] for none), walked up from the root one key at a time.
fn resolve(
    subsets: &[Subset],
    groups: &Groups,
    preds: impl IntoIterator<Item = (u16, u32)>,
) -> Option<ExplId> {
    let mut id = ROOT_NODE;
    let mut mask = 0u32;
    for (attr, code) in preds {
        mask |= 1 << attr;
        id = *groups[subset_index(subsets, mask)?].get(&pack(id, code))?;
    }
    Some(id)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows: (time, a0, a1, measure).
    fn run(rows: &[(u32, u32, u32, f64)], n_times: usize, max_order: usize) -> Vec<Explanation> {
        run_with(rows, n_times, max_order, &ParallelCtx::sequential()).0
    }

    fn run_with(
        rows: &[(u32, u32, u32, f64)],
        n_times: usize,
        max_order: usize,
        par: &ParallelCtx,
    ) -> (Vec<Explanation>, StateStore) {
        let time_codes: Vec<u32> = rows.iter().map(|r| r.0).collect();
        let a0: Vec<u32> = rows.iter().map(|r| r.1).collect();
        let a1: Vec<u32> = rows.iter().map(|r| r.2).collect();
        let measures: Vec<f64> = rows.iter().map(|r| r.3).collect();
        let dict_len = |codes: &[u32]| codes.iter().max().map_or(0, |&c| c as usize + 1);
        let input = SeedInput {
            time_codes: &time_codes,
            n_times,
            dict_lens: vec![dict_len(&a0), dict_len(&a1)],
            attr_codes: vec![&a0, &a1],
            measures: &measures,
        };
        enumerate_seed(&enumerate_subsets(2, max_order), &input, AggFn::Sum, par).unwrap()
    }

    #[test]
    fn subsets_name_their_prefix_and_last_attribute() {
        let subsets = enumerate_subsets(3, 2);
        let masks: Vec<u32> = subsets.iter().map(|s| s.mask).collect();
        assert_eq!(masks, [0b001, 0b010, 0b011, 0b100, 0b101, 0b110]);
        // {0, 2}: last attribute 2, prefix {0} at index 0.
        assert_eq!(subsets[4].last, 2);
        assert_eq!(subsets[4].prefix, Some(0));
        assert_eq!(subsets[1].prefix, None);
        assert!(subsets.iter().all(|s| s.order() <= 2));
    }

    #[test]
    fn enumerates_only_witnessed_combinations() {
        // a0 ∈ {0,1}, a1 ∈ {0,1}, but (a0=1, a1=1) never occurs together.
        let rows = [(0, 0, 0, 1.0), (0, 1, 0, 2.0), (1, 0, 1, 3.0)];
        let e = run(&rows, 2, 2);
        // Order 1: a0=0, a0=1, a1=0, a1=1 → 4. Order 2: (0,0), (1,0), (0,1) → 3.
        assert_eq!(e.len(), 7);
        assert!(!e
            .iter()
            .any(|x| x.order() == 2 && x.code_for(0) == Some(1) && x.code_for(1) == Some(1)));
    }

    #[test]
    fn max_order_limits_subsets() {
        let rows = [(0, 0, 0, 1.0), (1, 1, 1, 2.0)];
        let e = run(&rows, 2, 1);
        assert!(e.iter().all(|x| x.order() == 1));
        assert_eq!(e.len(), 4);
    }

    #[test]
    fn series_accumulates_per_time() {
        let rows = [(0, 0, 0, 1.0), (0, 0, 1, 2.0), (1, 0, 0, 5.0)];
        let (e, store) = run_with(&rows, 2, 2, &ParallelCtx::sequential());
        let idx = e
            .iter()
            .position(|x| x.order() == 1 && x.code_for(0) == Some(0))
            .unwrap();
        assert_eq!(store.state(0, idx).value(AggFn::Sum), 3.0);
        assert_eq!(store.state(1, idx).value(AggFn::Sum), 5.0);
        assert_eq!(store.state(0, idx).value(AggFn::Count), 2.0);
        assert_eq!(store.values().get(1, idx), 5.0);
        assert_eq!(store.values().totals(), &[3.0, 5.0]);
    }

    #[test]
    fn deterministic_order() {
        let rows = [(0, 0, 0, 1.0), (1, 1, 1, 2.0), (0, 1, 0, 3.0)];
        let a = run(&rows, 2, 2);
        let b = run(&rows, 2, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_enumeration_is_byte_identical_to_sequential() {
        // A denser fixture: 40 rows over 2 attributes of 3 values each, so
        // every subset witnesses several combinations.
        let rows: Vec<(u32, u32, u32, f64)> = (0..40u32)
            .map(|i| (i % 5, i % 3, (i / 2) % 3, 0.25 * i as f64 - 3.0))
            .collect();
        let reference = run_with(&rows, 5, 2, &ParallelCtx::sequential());
        for threads in [2, 3, 8] {
            let par = run_with(&rows, 5, 2, &ParallelCtx::new(threads));
            assert_eq!(par, reference, "t={threads}");
        }
    }

    #[test]
    fn empty_input_yields_no_candidates() {
        assert!(run(&[], 0, 3).is_empty());
    }

    #[test]
    fn derived_groups_file_each_explanation_under_its_prefix() {
        let rows = [(0, 0, 1, 1.0), (0, 1, 0, 2.0), (1, 1, 1, 3.0)];
        let e = run(&rows, 2, 2);
        let subsets = enumerate_subsets(2, 2);
        let groups = derive_groups(&subsets, &e).unwrap();
        assert_eq!(groups.iter().map(HashMap::len).sum::<usize>(), e.len());
        for (id, x) in e.iter().enumerate() {
            assert_eq!(
                resolve(&subsets, &groups, x.preds().iter().copied()),
                Some(id as ExplId)
            );
        }
    }

    #[test]
    fn derived_groups_reject_a_missing_parent_or_a_duplicate() {
        let subsets = enumerate_subsets(2, 2);
        let a = Explanation::new(vec![(0, 0)]);
        let b = Explanation::new(vec![(1, 0)]);
        let ab = Explanation::new(vec![(0, 0), (1, 0)]);
        assert!(derive_groups(&subsets, &[a.clone(), b.clone(), ab.clone()]).is_some());
        for broken in [
            vec![ab.clone(), a.clone(), b.clone()],
            vec![b.clone(), ab.clone()],
            vec![a.clone(), ab.clone()],
            vec![a.clone(), b.clone(), a.clone()],
            vec![a, Explanation::new(vec![])],
        ] {
            assert!(derive_groups(&subsets, &broken).is_none());
        }
    }
}
