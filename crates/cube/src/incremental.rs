//! Incrementally grown explanation cubes for streaming / serving sessions.
//!
//! A seed scans every row of a materialized relation. A live session that
//! appends a handful of rows per refresh cannot afford that:
//! re-materializing and re-enumerating all history per refresh is
//! O(total rows × 2^|A|) each time. [`IncrementalCube`] keeps the
//! enumeration state (one packed-key group map per attribute subset,
//! dictionaries, and the time-major state store) alive between appends so
//! that new rows cost only O(new rows × 2^|A|), and produces an
//! [`ExplanationCube`] snapshot on demand. The batch builder
//! [`ExplanationCube::build`] is this seed followed by a consuming
//! snapshot, so one enumeration path serves both.
//!
//! The store is the cube's only copy of its states, held behind an `Arc`: a
//! snapshot shares it instead of copying it. An append mutates the store in
//! place when the cube holds it alone, and copies it first only while a
//! snapshot taken before the append is still alive, so a snapshot never
//! sees a later append.
//!
//! An appended row is keyed exactly like a seeded one (see the `enumerate`
//! module): subsets are visited in ascending mask order, each reading its
//! prefix's id for the row from a per-row scratch buffer, so one lookup of
//! one `u64` per subset places the row. Once every row of the batch is
//! placed, the store grows to its new shape once and the rows are folded
//! in, in batch order.
//!
//! Time moves forward only: appended rows must be at or after the current
//! horizon (the last known timestamp). Restating earlier timestamps
//! returns [`CubeError::RestatedTimestamp`] and leaves the cube untouched —
//! the caller is expected to rebuild from scratch, exactly as the paper's
//! streaming sketch (§8) assumes append-only arrival.
//!
//! Dictionary codes for attribute values first seen *after* construction
//! are assigned in order of appearance rather than sorted order. Labels,
//! drill-down structure and all scores are unaffected (codes are an
//! internal encoding, and a key holds a code whole, so no key changes when
//! a dictionary grows); only the enumeration order of brand-new candidates
//! differs from a cold rebuild, which no pipeline stage depends on.

use std::collections::HashMap;
use std::sync::Arc;

use tsexplain_parallel::ParallelCtx;
use tsexplain_relation::{AggQuery, AttrValue, Dictionary, Relation};

use crate::cube::{CubeConfig, ExplanationCube};
use crate::enumerate::{
    derive_groups, enumerate_seed, enumerate_subsets, extend, pack, Groups, SeedInput, Subset,
};
use crate::error::CubeError;
use crate::explanation::{ExplId, Explanation};
use crate::trie::ROOT_NODE;
use crate::values::StateStore;

/// One raw appended observation: timestamp, explain-by values in the
/// cube's attribute order, and the already-evaluated measure.
pub type AppendRow = (AttrValue, Vec<AttrValue>, f64);

/// An explanation cube that grows at the tail (see module docs).
///
/// Fields are `pub(crate)` so the `persist` module can serialize the logical
/// state to a block snapshot and reassemble it bit-identically.
#[derive(Clone, Debug)]
pub struct IncrementalCube {
    pub(crate) config: CubeConfig,
    /// Sorted, append-only time axis.
    pub(crate) timestamps: Vec<AttrValue>,
    pub(crate) time_index: HashMap<AttrValue, u32>,
    pub(crate) attr_names: Vec<String>,
    /// Per attribute: values in code order (sorted for values present at
    /// construction, then first-seen order).
    pub(crate) dict_values: Vec<Vec<AttrValue>>,
    pub(crate) dict_index: Vec<HashMap<AttrValue, u32>>,
    /// Attribute subsets `S` with `|S| <= max_order`, in ascending mask
    /// order.
    pub(crate) subsets: Vec<Subset>,
    /// Per subset: packed (prefix id, last code) key -> explanation id.
    /// Only appends read them, so they are derived from the explanation
    /// list at the first append (`derive_groups`); a cube that only serves
    /// snapshots never builds them.
    pub(crate) groups: Option<Groups>,
    pub(crate) explanations: Vec<Explanation>,
    /// The states, one column per explanation id, shared with every
    /// snapshot taken since the last append (module docs).
    pub(crate) store: Arc<StateStore>,
    pub(crate) rows_ingested: usize,
}

impl IncrementalCube {
    /// Seeds an incremental cube from a materialized relation — the fast
    /// path for session construction, using the relation's columnar codes
    /// directly (same cost as one batch build) and the process-default
    /// parallel context.
    pub fn from_relation(
        rel: &Relation,
        query: &AggQuery,
        config: &CubeConfig,
    ) -> Result<Self, CubeError> {
        IncrementalCube::from_relation_with(rel, query, config, &ParallelCtx::from_env())
    }

    /// Seeds an incremental cube with an explicit parallel context: each
    /// order's subsets fan out across `par`'s workers, and the resulting
    /// state (group maps, explanation order, series) is byte-identical at
    /// any thread count.
    pub fn from_relation_with(
        rel: &Relation,
        query: &AggQuery,
        config: &CubeConfig,
        par: &ParallelCtx,
    ) -> Result<Self, CubeError> {
        config.validate(query)?;
        if rel.is_empty() {
            return Err(CubeError::EmptyInput);
        }

        let time_col = rel.dim_column(query.time_attr())?;
        let n_times = time_col.dict().len();
        let measures = query.measure().eval(rel)?;

        let n_attrs = config.explain_by.len();
        let mut attr_codes: Vec<&[u32]> = Vec::with_capacity(n_attrs);
        let mut dict_values = Vec::with_capacity(n_attrs);
        let mut dict_index = Vec::with_capacity(n_attrs);
        for a in &config.explain_by {
            let col = rel.dim_column(a)?;
            attr_codes.push(col.codes());
            let values = col.dict().values().to_vec();
            let index = values
                .iter()
                .enumerate()
                .map(|(i, v)| (v.clone(), i as u32))
                .collect();
            dict_values.push(values);
            dict_index.push(index);
        }

        let subsets = enumerate_subsets(n_attrs, config.max_order);
        let input = SeedInput {
            time_codes: time_col.codes(),
            n_times,
            dict_lens: dict_values.iter().map(Vec::len).collect(),
            attr_codes,
            measures: &measures,
        };
        // All-or-nothing: a cancelled fan-out is an error, never a seed.
        let (explanations, store) = enumerate_seed(&subsets, &input, query.agg(), par)?;

        Ok(IncrementalCube {
            config: config.clone(),
            timestamps: time_col.dict().values().to_vec(),
            time_index: time_col
                .dict()
                .values()
                .iter()
                .enumerate()
                .map(|(i, v)| (v.clone(), i as u32))
                .collect(),
            attr_names: config.explain_by.clone(),
            dict_values,
            dict_index,
            subsets,
            groups: None,
            explanations,
            store: Arc::new(store),
            rows_ingested: time_col.codes().len(),
        })
    }

    /// An empty incremental cube awaiting its first append — the streaming
    /// cold-start path.
    pub fn empty(query: &AggQuery, config: &CubeConfig) -> Result<Self, CubeError> {
        config.validate(query)?;
        let n_attrs = config.explain_by.len();
        let subsets = enumerate_subsets(n_attrs, config.max_order);
        Ok(IncrementalCube {
            config: config.clone(),
            timestamps: Vec::new(),
            time_index: HashMap::new(),
            attr_names: config.explain_by.clone(),
            dict_values: vec![Vec::new(); n_attrs],
            dict_index: vec![HashMap::new(); n_attrs],
            groups: None,
            subsets,
            explanations: Vec::new(),
            store: Arc::new(StateStore::zeroed(query.agg(), 0, 0)),
            rows_ingested: 0,
        })
    }

    /// The configuration this cube is grown under.
    pub fn config(&self) -> &CubeConfig {
        &self.config
    }

    /// Number of points on the time axis so far.
    pub fn n_points(&self) -> usize {
        self.timestamps.len()
    }

    /// Number of candidate explanations enumerated so far (pre-pruning).
    pub fn n_candidates(&self) -> usize {
        self.explanations.len()
    }

    /// Total rows ingested (seed + appends).
    pub fn rows_ingested(&self) -> usize {
        self.rows_ingested
    }

    /// Approximate heap + inline footprint of the incremental enumeration
    /// state in bytes (see the `mem` module docs). Together with
    /// [`crate::ExplanationCube::approx_bytes`] on finalized snapshots this
    /// is what a byte-budgeted cube cache accounts per entry.
    #[expect(
        clippy::disallowed_methods,
        reason = "integer byte counts summed over hash maps' keys are order-insensitive"
    )]
    pub fn approx_bytes(&self) -> usize {
        use crate::mem::*;
        use std::mem::size_of;
        let dicts: usize = self
            .dict_values
            .iter()
            .map(|values| attr_values_bytes(values))
            .sum::<usize>()
            + self
                .dict_index
                .iter()
                .flat_map(|index| index.keys())
                .map(|v| attr_value_bytes(v) + size_of::<u32>() + MAP_ENTRY_OVERHEAD)
                .sum::<usize>();
        let groups: usize = self
            .groups
            .iter()
            .flatten()
            .map(HashMap::len)
            .sum::<usize>()
            * (size_of::<u64>() + size_of::<ExplId>() + MAP_ENTRY_OVERHEAD);
        size_of::<Self>()
            + attr_values_bytes(&self.timestamps)
            + self
                .time_index
                .keys()
                .map(|t| attr_value_bytes(t) + size_of::<u32>() + MAP_ENTRY_OVERHEAD)
                .sum::<usize>()
            + self.attr_names.iter().map(String::len).sum::<usize>()
            + dicts
            + self.subsets.len() * size_of::<Subset>()
            + groups
            + self
                .explanations
                .iter()
                .map(explanation_bytes)
                .sum::<usize>()
            + self.store.approx_bytes()
    }

    /// The address of the state store this cube holds: unchanged by an
    /// append that mutated the store in place, changed by one that had to
    /// copy it first. Tests use it to check that appends do not copy.
    #[doc(hidden)]
    pub fn store_addr(&self) -> usize {
        Arc::as_ptr(&self.store) as usize
    }

    /// The timestamps of the series so far, in time order.
    pub fn timestamps(&self) -> &[AttrValue] {
        &self.timestamps
    }

    /// Appends a batch of observations at the cube's tail.
    ///
    /// The batch is validated before any state changes (all-or-nothing):
    /// every row's timestamp must be at or after the current horizon, rows
    /// for *new* timestamps must appear in non-decreasing time order within
    /// the batch, and every row must carry one value per explain-by
    /// attribute. On [`CubeError::RestatedTimestamp`] the caller should
    /// fall back to a full rebuild.
    pub fn append_batch(&mut self, rows: &[AppendRow]) -> Result<(), CubeError> {
        if rows.is_empty() {
            return Ok(());
        }
        // ---- validation pass: no mutation ------------------------------
        let horizon = self.timestamps.last().cloned();
        let mut newest: Option<&AttrValue> = None;
        for (time, attrs, _measure) in rows {
            if attrs.len() != self.attr_names.len() {
                return Err(CubeError::ArityMismatch {
                    expected: self.attr_names.len(),
                    got: attrs.len(),
                });
            }
            if let Some(h) = &horizon {
                if time < h {
                    return Err(CubeError::RestatedTimestamp(time.to_string()));
                }
            }
            if !self.time_index.contains_key(time) {
                // A new timestamp: it must not precede newer data already
                // seen in this batch (codes are assigned in encounter
                // order and must stay time-ordered).
                if let Some(n) = newest {
                    if time < n {
                        return Err(CubeError::RestatedTimestamp(time.to_string()));
                    }
                }
            }
            if newest.is_none_or(|n| time > n) {
                newest = Some(time);
            }
        }

        // ---- placement pass: time codes, dictionary codes, ids ----------
        let groups = self.groups.get_or_insert_with(|| {
            derive_groups(&self.subsets, &self.explanations)
                .expect("every cube holds the drill-down parents of its explanations")
        });
        let n_subsets = self.subsets.len();
        // Per row: its time index, then its id on each subset.
        let mut times: Vec<usize> = Vec::with_capacity(rows.len());
        let mut placed: Vec<ExplId> = Vec::with_capacity(rows.len() * n_subsets);
        // Per-row scratch: the row's codes, and its id on each subset (read
        // by the subsets that extend it, which come later in mask order).
        let mut codes = vec![0u32; self.attr_names.len()];
        let mut ids: Vec<ExplId> = vec![0; n_subsets];
        for (time, attrs, _measure) in rows {
            let tcode = match self.time_index.get(time) {
                Some(&c) => c,
                None => {
                    let c = self.timestamps.len() as u32;
                    self.timestamps.push(time.clone());
                    self.time_index.insert(time.clone(), c);
                    c
                }
            };
            times.push(tcode as usize);

            for ((code, value), (values, index)) in codes
                .iter_mut()
                .zip(attrs)
                .zip(self.dict_values.iter_mut().zip(&mut self.dict_index))
            {
                *code = match index.get(value) {
                    Some(&c) => c,
                    None => {
                        let c = values.len() as u32;
                        values.push(value.clone());
                        index.insert(value.clone(), c);
                        c
                    }
                };
            }

            for (si, subset) in self.subsets.iter().enumerate() {
                let prefix = subset.prefix.map(|p| ids[p]);
                let code = codes[usize::from(subset.last)];
                let next = self.explanations.len() as ExplId;
                let id = *groups[si]
                    .entry(pack(prefix.unwrap_or(ROOT_NODE), code))
                    .or_insert(next);
                if id == next {
                    let parent = prefix.map(|p| &self.explanations[p as usize]);
                    self.explanations.push(extend(parent, subset.last, code));
                }
                ids[si] = id;
            }
            placed.extend_from_slice(&ids);
        }

        // ---- fold pass: one reshape, then the rows in batch order -------
        // Copies the store first only if a snapshot still shares it.
        let store = Arc::make_mut(&mut self.store);
        store.grow(self.timestamps.len(), self.explanations.len());
        for ((&t, (_, _, measure)), ids) in times.iter().zip(rows).zip(placed.chunks(n_subsets)) {
            store.observe_total(t, *measure);
            for &id in ids {
                store.observe(t, id as usize, *measure);
            }
        }
        times.sort_unstable();
        times.dedup();
        store.redecode_rows(times);
        self.rows_ingested += rows.len();
        Ok(())
    }

    /// Finalizes the current state into an [`ExplanationCube`]
    /// (redundancy pruning, trie, index, support filter). The snapshot
    /// shares this cube's state store, so the cube can keep growing
    /// without copying it.
    pub fn snapshot(&self) -> Result<ExplanationCube, CubeError> {
        self.snapshot_smoothed(1)
    }

    /// [`IncrementalCube::snapshot`] followed by
    /// [`ExplanationCube::smooth_moving_average`]`(window)`, bit for bit,
    /// but smoothed straight from this cube's store: a pruned snapshot
    /// gathers no value rows that smoothing would discard. A `window` of
    /// 1 or less is a plain snapshot.
    pub fn snapshot_smoothed(&self, window: usize) -> Result<ExplanationCube, CubeError> {
        if self.timestamps.is_empty() {
            return Err(CubeError::EmptyInput);
        }
        Ok(ExplanationCube::assemble(
            self.timestamps.clone(),
            self.attr_names.clone(),
            self.dict_values
                .iter()
                .map(|values| Dictionary::from_ordered_values(values.clone()))
                .collect(),
            self.explanations.clone(),
            Arc::clone(&self.store),
            true,
            self.config.filter_ratio,
            self.config.prune_redundant,
            window,
        ))
    }

    /// [`IncrementalCube::snapshot`] for a cube that will not grow again:
    /// the state moves into the snapshot, which then owns the store.
    pub(crate) fn into_snapshot(self) -> Result<ExplanationCube, CubeError> {
        if self.timestamps.is_empty() {
            return Err(CubeError::EmptyInput);
        }
        Ok(ExplanationCube::assemble(
            self.timestamps,
            self.attr_names,
            self.dict_values
                .into_iter()
                .map(Dictionary::from_ordered_values)
                .collect(),
            self.explanations,
            self.store,
            false,
            self.config.filter_ratio,
            self.config.prune_redundant,
            1,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::values::smoothed_reach;
    use tsexplain_relation::{Datum, Field, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::dimension("t"),
            Field::dimension("state"),
            Field::dimension("pack"),
            Field::measure("v"),
        ])
        .unwrap()
    }

    fn row(t: i64, s: &str, p: i64, v: f64) -> Vec<Datum> {
        vec![
            Datum::Attr(t.into()),
            Datum::from(s),
            Datum::Attr(AttrValue::Int(p)).clone(),
            Datum::from(v),
        ]
    }

    fn relation_of(rows: &[Vec<Datum>]) -> Relation {
        let mut b = Relation::builder(schema());
        for r in rows {
            b.push_row(r.clone()).unwrap();
        }
        b.finish()
    }

    fn append_row_of(r: &[Datum]) -> AppendRow {
        let time = match &r[0] {
            Datum::Attr(v) => v.clone(),
            _ => unreachable!(),
        };
        let attrs: Vec<AttrValue> = r[1..3]
            .iter()
            .map(|d| match d {
                Datum::Attr(v) => v.clone(),
                _ => unreachable!(),
            })
            .collect();
        let measure = match &r[3] {
            Datum::Num(v) => *v,
            _ => unreachable!(),
        };
        (time, attrs, measure)
    }

    fn sample_rows(range: std::ops::Range<i64>) -> Vec<Vec<Datum>> {
        let mut rows = Vec::new();
        for t in range {
            rows.push(row(t, "NY", 6, 1.0 + t as f64));
            rows.push(row(t, "CA", 12, 2.0 * t as f64));
            if t % 2 == 0 {
                rows.push(row(t, "NY", 12, 0.5));
            }
        }
        rows
    }

    fn config() -> CubeConfig {
        CubeConfig::new(["state", "pack"]).with_filter_ratio(0.001)
    }

    /// A smoothed snapshot keeps every row before `smoothed_reach` bit for
    /// bit across a late report on the horizon and a new timestamp, and so
    /// does its shape when no candidate arrives.
    #[test]
    fn smoothed_rows_before_the_reach_survive_a_tail_append() {
        let query = AggQuery::sum("t", "v");
        for window in [1, 2, 3, 7] {
            let mut inc = IncrementalCube::from_relation(
                &relation_of(&sample_rows(0..12)),
                &query,
                &config(),
            )
            .unwrap();
            let before = inc.snapshot_smoothed(window).unwrap();
            let tail: Vec<AppendRow> = [row(11, "CA", 12, 3.0), row(12, "NY", 6, 40.0)]
                .iter()
                .map(|r| append_row_of(r))
                .collect();
            inc.append_batch(&tail).unwrap();
            let after = inc.snapshot_smoothed(window).unwrap();
            assert_eq!(before.shape(), after.shape(), "w={window}");
            let reach = smoothed_reach(11, window);
            for t in 0..before.n_points() {
                let same = (0..before.n_candidates() as ExplId)
                    .all(|e| before.value_at(e, t).to_bits() == after.value_at(e, t).to_bits())
                    && before.total_value(t).to_bits() == after.total_value(t).to_bits();
                assert_eq!(same, t < reach, "w={window} t={t}");
            }
        }
    }

    #[test]
    fn seeded_snapshot_equals_batch_build() {
        let rows = sample_rows(0..8);
        let rel = relation_of(&rows);
        let query = AggQuery::sum("t", "v");
        let batch = ExplanationCube::build(&rel, &query, &config()).unwrap();
        let inc = IncrementalCube::from_relation(&rel, &query, &config()).unwrap();
        let snap = inc.snapshot().unwrap();
        assert_eq!(snap.n_points(), batch.n_points());
        assert_eq!(snap.n_candidates(), batch.n_candidates());
        assert_eq!(snap.explanations(), batch.explanations());
        for e in 0..batch.n_candidates() as ExplId {
            assert_eq!(snap.label(e), batch.label(e));
            assert_eq!(snap.value_series(e), batch.value_series(e));
            assert_eq!(snap.is_selectable(e), batch.is_selectable(e));
        }
        assert_eq!(snap.total_values(), batch.total_values());
    }

    #[test]
    fn appended_tail_matches_full_rebuild_values() {
        let all = sample_rows(0..10);
        let (head, tail): (Vec<_>, Vec<_>) = {
            let split = all
                .iter()
                .position(|r| matches!(&r[0], Datum::Attr(AttrValue::Int(t)) if *t >= 6))
                .unwrap();
            (all[..split].to_vec(), all[split..].to_vec())
        };

        let query = AggQuery::sum("t", "v");
        let mut inc =
            IncrementalCube::from_relation(&relation_of(&head), &query, &config()).unwrap();
        let tail_rows: Vec<AppendRow> = tail.iter().map(|r| append_row_of(r)).collect();
        inc.append_batch(&tail_rows).unwrap();
        let snap = inc.snapshot().unwrap();

        let full = ExplanationCube::build(&relation_of(&all), &query, &config()).unwrap();
        assert_eq!(snap.n_points(), full.n_points());
        assert_eq!(snap.n_candidates(), full.n_candidates());
        assert_eq!(snap.total_values(), full.total_values());
        // Values must agree label-by-label (enumeration order of candidates
        // first seen in the tail may differ; values may not).
        for e in 0..full.n_candidates() as ExplId {
            let label = full.label(e);
            let ours = (0..snap.n_candidates() as ExplId)
                .find(|&i| snap.label(i) == label)
                .unwrap_or_else(|| panic!("label {label} missing from snapshot"));
            assert_eq!(snap.value_series(ours), full.value_series(e), "{label}");
            assert_eq!(snap.is_selectable(ours), full.is_selectable(e), "{label}");
        }
    }

    #[test]
    fn parallel_seed_is_byte_identical_to_sequential() {
        let rows = sample_rows(0..10);
        let rel = relation_of(&rows);
        let query = AggQuery::sum("t", "v");
        let seq = IncrementalCube::from_relation_with(
            &rel,
            &query,
            &config(),
            &ParallelCtx::sequential(),
        )
        .unwrap();
        for threads in [2, 3, 8] {
            let par = IncrementalCube::from_relation_with(
                &rel,
                &query,
                &config(),
                &ParallelCtx::new(threads),
            )
            .unwrap();
            assert_eq!(par.explanations, seq.explanations, "t={threads}");
            assert_eq!(par.store, seq.store, "t={threads}");
        }
    }

    #[test]
    fn cold_start_via_empty_matches_batch_values() {
        let all = sample_rows(0..6);
        let query = AggQuery::sum("t", "v");
        let mut inc = IncrementalCube::empty(&query, &config()).unwrap();
        let rows: Vec<AppendRow> = all.iter().map(|r| append_row_of(r)).collect();
        inc.append_batch(&rows).unwrap();
        let snap = inc.snapshot().unwrap();
        let full = ExplanationCube::build(&relation_of(&all), &query, &config()).unwrap();
        assert_eq!(snap.n_points(), full.n_points());
        assert_eq!(snap.total_values(), full.total_values());
        assert_eq!(snap.n_candidates(), full.n_candidates());
    }

    #[test]
    fn tail_updates_to_last_timestamp_are_accepted() {
        let query = AggQuery::sum("t", "v");
        let mut inc =
            IncrementalCube::from_relation(&relation_of(&sample_rows(0..4)), &query, &config())
                .unwrap();
        let before = inc.snapshot().unwrap().total_value(3);
        inc.append_batch(&[append_row_of(&row(3, "TX", 6, 10.0))])
            .unwrap();
        let after = inc.snapshot().unwrap();
        assert_eq!(after.n_points(), 4);
        assert!((after.total_value(3) - (before + 10.0)).abs() < 1e-9);
    }

    #[test]
    fn restated_timestamps_rejected_atomically() {
        let query = AggQuery::sum("t", "v");
        let mut inc =
            IncrementalCube::from_relation(&relation_of(&sample_rows(0..5)), &query, &config())
                .unwrap();
        let snapshot_before = inc.snapshot().unwrap();
        let err = inc
            .append_batch(&[
                append_row_of(&row(5, "NY", 6, 1.0)),
                append_row_of(&row(2, "NY", 6, 1.0)),
            ])
            .unwrap_err();
        assert!(matches!(err, CubeError::RestatedTimestamp(_)));
        // Nothing was ingested (validation precedes mutation).
        let after = inc.snapshot().unwrap();
        assert_eq!(after.n_points(), snapshot_before.n_points());
        assert_eq!(after.total_values(), snapshot_before.total_values());
    }

    #[test]
    fn out_of_order_new_timestamps_within_batch_rejected() {
        let query = AggQuery::sum("t", "v");
        let mut inc =
            IncrementalCube::from_relation(&relation_of(&sample_rows(0..3)), &query, &config())
                .unwrap();
        let err = inc
            .append_batch(&[
                append_row_of(&row(5, "NY", 6, 1.0)),
                append_row_of(&row(4, "NY", 6, 1.0)),
            ])
            .unwrap_err();
        assert!(matches!(err, CubeError::RestatedTimestamp(_)));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let query = AggQuery::sum("t", "v");
        let mut inc =
            IncrementalCube::from_relation(&relation_of(&sample_rows(0..3)), &query, &config())
                .unwrap();
        let err = inc
            .append_batch(&[(AttrValue::Int(9), vec![AttrValue::from("NY")], 1.0)])
            .unwrap_err();
        assert!(matches!(
            err,
            CubeError::ArityMismatch {
                expected: 2,
                got: 1
            }
        ));
    }

    #[test]
    fn new_attribute_values_get_fresh_codes_and_labels() {
        let query = AggQuery::sum("t", "v");
        let mut inc =
            IncrementalCube::from_relation(&relation_of(&sample_rows(0..3)), &query, &config())
                .unwrap();
        inc.append_batch(&[append_row_of(&row(3, "AK", 6, 50.0))])
            .unwrap();
        let snap = inc.snapshot().unwrap();
        let ak = (0..snap.n_candidates() as ExplId)
            .find(|&e| snap.label(e) == "state=AK")
            .expect("AK candidate exists");
        assert_eq!(snap.value_series(ak), vec![0.0, 0.0, 0.0, 50.0]);
    }

    #[test]
    fn approx_bytes_grows_with_appended_data() {
        let query = AggQuery::sum("t", "v");
        let mut inc =
            IncrementalCube::from_relation(&relation_of(&sample_rows(0..4)), &query, &config())
                .unwrap();
        let before = inc.approx_bytes();
        assert!(before > 0);
        inc.append_batch(
            &sample_rows(4..12)
                .iter()
                .map(|r| append_row_of(r))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(
            inc.approx_bytes() > before,
            "appends must grow the estimate"
        );
    }

    #[test]
    fn empty_cube_refuses_snapshot_until_data_arrives() {
        let query = AggQuery::sum("t", "v");
        let inc = IncrementalCube::empty(&query, &config()).unwrap();
        assert!(matches!(inc.snapshot(), Err(CubeError::EmptyInput)));
    }

    #[test]
    fn validation_matches_batch_builder() {
        let query = AggQuery::sum("t", "v");
        assert!(matches!(
            IncrementalCube::empty(&query, &CubeConfig::new(Vec::<String>::new())),
            Err(CubeError::NoExplainBy)
        ));
        assert!(matches!(
            IncrementalCube::empty(&query, &CubeConfig::new(["t"])),
            Err(CubeError::TimeAttrInExplainBy(_))
        ));
        assert!(matches!(
            IncrementalCube::empty(&query, &CubeConfig::new(["state", "state"])),
            Err(CubeError::DuplicateExplainBy(_))
        ));
        assert!(matches!(
            IncrementalCube::empty(&query, &CubeConfig::new(["state"]).with_max_order(0)),
            Err(CubeError::ZeroMaxOrder)
        ));
    }
}
