//! Incrementally grown explanation cubes for streaming / serving sessions.
//!
//! [`crate::ExplanationCube::build`] scans every row of a materialized
//! relation. A live session that appends a handful of rows per refresh
//! cannot afford that: re-materializing and re-enumerating all history per
//! refresh is O(total rows × 2^|A|) each time. [`IncrementalCube`] keeps
//! the enumeration state (per-subset group maps, per-explanation state
//! series, dictionaries) alive between appends so that new rows cost only
//! O(new rows × 2^|A|), and produces an [`ExplanationCube`] snapshot on
//! demand through the same finalization path as the batch builder.
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
//! internal encoding); only the enumeration order of brand-new candidates
//! differs from a cold rebuild, which no pipeline stage depends on.

use std::collections::HashMap;

use tsexplain_parallel::ParallelCtx;
use tsexplain_relation::{AggFn, AggQuery, AggState, AttrValue, Dictionary, Relation};

use crate::cube::{CubeConfig, ExplanationCube};
use crate::enumerate::{enumerate_subsets, enumerate_with_groups};
use crate::error::CubeError;
use crate::explanation::{ExplId, Explanation};
use crate::values::ValueMatrix;

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
    pub(crate) agg: AggFn,
    /// Sorted, append-only time axis.
    pub(crate) timestamps: Vec<AttrValue>,
    pub(crate) time_index: HashMap<AttrValue, u32>,
    pub(crate) attr_names: Vec<String>,
    /// Per attribute: values in code order (sorted for values present at
    /// construction, then first-seen order).
    pub(crate) dict_values: Vec<Vec<AttrValue>>,
    pub(crate) dict_index: Vec<HashMap<AttrValue, u32>>,
    /// Attribute subsets `S` with `|S| <= max_order`, in the batch
    /// builder's mask order.
    pub(crate) subsets: Vec<Vec<u16>>,
    /// Per subset: value-combination -> explanation id.
    pub(crate) groups: Vec<HashMap<Vec<u32>, ExplId>>,
    pub(crate) explanations: Vec<Explanation>,
    pub(crate) series: Vec<Vec<AggState>>,
    pub(crate) total: Vec<AggState>,
    /// Time-major pre-decoded values, maintained incrementally: appends
    /// re-decode only the touched rows (or rebuild when new candidates
    /// appeared), and snapshots hand the matrix to the finalizer so the
    /// common no-prune case skips the O(ε·n) re-decode entirely.
    pub(crate) values: ValueMatrix,
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

    /// Seeds an incremental cube with an explicit parallel context: the
    /// per-subset enumeration fans out across `par`'s workers exactly like
    /// [`ExplanationCube::build_with`], and the resulting state (group
    /// maps, explanation order, series) is byte-identical at any thread
    /// count.
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

        let mut attr_codes: Vec<&[u32]> = Vec::with_capacity(config.explain_by.len());
        let mut dict_values = Vec::with_capacity(config.explain_by.len());
        let mut dict_index = Vec::with_capacity(config.explain_by.len());
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

        let mut total = vec![AggState::ZERO; n_times];
        for (row, &code) in time_col.codes().iter().enumerate() {
            total[code as usize].observe(measures[row]);
        }

        let subsets = enumerate_subsets(config.explain_by.len(), config.max_order);
        let n_rows = time_col.codes().len();

        // The shared per-subset enumerator (subset-major, row-minor, each
        // subset an independent worker task) mirrors the batch builder
        // exactly, so a snapshot of a freshly seeded incremental cube is
        // structurally identical to `ExplanationCube::build` — at any
        // thread count.
        let (groups, explanations, series) = enumerate_with_groups(
            &subsets,
            time_col.codes(),
            n_times,
            &attr_codes,
            &measures,
            par,
        );
        // All-or-nothing: a cancelled fan-out joins with truncated subset
        // blocks — never seed incremental state from a partial enumeration.
        if par.is_cancelled() {
            return Err(CubeError::Cancelled);
        }
        debug_assert_eq!(
            explanations.len(),
            groups.iter().map(HashMap::len).sum::<usize>()
        );

        let values = ValueMatrix::build(query.agg(), &total, &series);
        Ok(IncrementalCube {
            config: config.clone(),
            agg: query.agg(),
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
            groups,
            explanations,
            series,
            total,
            values,
            rows_ingested: n_rows,
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
            agg: query.agg(),
            timestamps: Vec::new(),
            time_index: HashMap::new(),
            attr_names: config.explain_by.clone(),
            dict_values: vec![Vec::new(); n_attrs],
            dict_index: vec![HashMap::new(); n_attrs],
            groups: vec![HashMap::new(); subsets.len()],
            subsets,
            explanations: Vec::new(),
            series: Vec::new(),
            total: Vec::new(),
            values: ValueMatrix::with_cols(0),
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
            .flat_map(|g| g.keys())
            .map(|key| {
                size_of::<Vec<u32>>()
                    + key.len() * size_of::<u32>()
                    + size_of::<ExplId>()
                    + MAP_ENTRY_OVERHEAD
            })
            .sum();
        size_of::<Self>()
            + attr_values_bytes(&self.timestamps)
            + self
                .time_index
                .keys()
                .map(|t| attr_value_bytes(t) + size_of::<u32>() + MAP_ENTRY_OVERHEAD)
                .sum::<usize>()
            + self.attr_names.iter().map(String::len).sum::<usize>()
            + dicts
            + self
                .subsets
                .iter()
                .map(|s| size_of::<Vec<u16>>() + s.len() * size_of::<u16>())
                .sum::<usize>()
            + groups
            + self
                .explanations
                .iter()
                .map(explanation_bytes)
                .sum::<usize>()
            + self
                .series
                .iter()
                .map(|s| state_series_bytes(s))
                .sum::<usize>()
            + state_series_bytes(&self.total)
            + self.values.approx_bytes()
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

        // ---- ingestion pass --------------------------------------------
        let cols_before = self.explanations.len();
        let rows_before = self.timestamps.len();
        // Existing rows whose states this batch changes (appends at the
        // current horizon); re-decoded after ingestion.
        let mut touched_rows: Vec<usize> = Vec::new();
        for (time, attrs, measure) in rows {
            let tcode = match self.time_index.get(time) {
                Some(&c) => c,
                None => {
                    let c = self.timestamps.len() as u32;
                    self.timestamps.push(time.clone());
                    self.time_index.insert(time.clone(), c);
                    self.total.push(AggState::ZERO);
                    for s in &mut self.series {
                        s.push(AggState::ZERO);
                    }
                    c
                }
            };
            let t = tcode as usize;
            if t < rows_before && touched_rows.last() != Some(&t) {
                touched_rows.push(t);
            }
            self.total[t].observe(*measure);

            let codes: Vec<u32> = attrs
                .iter()
                .enumerate()
                .map(|(a, value)| match self.dict_index[a].get(value) {
                    Some(&c) => c,
                    None => {
                        let c = self.dict_values[a].len() as u32;
                        self.dict_values[a].push(value.clone());
                        self.dict_index[a].insert(value.clone(), c);
                        c
                    }
                })
                .collect();

            let n_now = self.timestamps.len();
            for (si, attrs_of_subset) in self.subsets.iter().enumerate() {
                let key: Vec<u32> = attrs_of_subset.iter().map(|&a| codes[a as usize]).collect();
                let id = match self.groups[si].get(&key) {
                    Some(&id) => id,
                    None => {
                        let id = self.explanations.len() as ExplId;
                        self.groups[si].insert(key.clone(), id);
                        let preds = attrs_of_subset
                            .iter()
                            .copied()
                            .zip(key.iter().copied())
                            .collect();
                        self.explanations.push(Explanation::new(preds));
                        self.series.push(vec![AggState::ZERO; n_now]);
                        id
                    }
                };
                self.series[id as usize][t].observe(*measure);
            }
            self.rows_ingested += 1;
        }

        // ---- columnar maintenance --------------------------------------
        if self.explanations.len() != cols_before {
            // New candidates widen every row; rebuild in one pass.
            self.values = ValueMatrix::build(self.agg, &self.total, &self.series);
        } else {
            touched_rows.sort_unstable();
            touched_rows.dedup();
            for &t in &touched_rows {
                self.values.redecode_row(
                    t,
                    self.agg,
                    self.total[t],
                    self.series.iter().map(|s| &s[t]),
                );
            }
            for t in rows_before..self.timestamps.len() {
                self.values
                    .push_row(self.agg, self.total[t], self.series.iter().map(|s| s[t]));
            }
        }
        Ok(())
    }

    /// Finalizes the current state into an [`ExplanationCube`] through the
    /// same path as the batch builder (redundancy pruning, trie, index,
    /// support filter).
    pub fn snapshot(&self) -> Result<ExplanationCube, CubeError> {
        if self.timestamps.is_empty() {
            return Err(CubeError::EmptyInput);
        }
        Ok(ExplanationCube::assemble(
            self.timestamps.clone(),
            self.agg,
            self.total.clone(),
            self.attr_names.clone(),
            self.dict_values
                .iter()
                .map(|values| Dictionary::from_ordered_values(values.clone()))
                .collect(),
            self.explanations.clone(),
            self.series.clone(),
            Some(self.values.clone()),
            self.config.filter_ratio,
            self.config.prune_redundant,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            assert_eq!(par.series, seq.series, "t={threads}");
            assert_eq!(par.groups, seq.groups, "t={threads}");
            assert_eq!(par.total, seq.total, "t={threads}");
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
