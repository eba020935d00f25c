use std::collections::HashMap;

use tsexplain_parallel::ParallelCtx;
use tsexplain_relation::{AggFn, AggQuery, AggState, AttrValue, Dictionary, Relation};

use crate::enumerate::enumerate;
use crate::error::CubeError;
use crate::explanation::{ExplId, Explanation};
use crate::trie::{DrillTrie, NodeId, ROOT_NODE};
use crate::values::ValueMatrix;

/// The widest explain-by set a cube supports. Subset enumeration walks
/// every `u32` bitmask below `1 << |A|` and attribute indices are `u16`s;
/// requests naming more are rejected, and a snapshot naming more is corrupt.
pub const MAX_EXPLAIN_BY: usize = 16;

/// Configuration for building an [`ExplanationCube`].
#[derive(Clone, Debug)]
pub struct CubeConfig {
    /// The explain-by attributes `A` (Definition 3.1); user-specified from
    /// domain knowledge, as in the paper's experiments (§7.1).
    pub explain_by: Vec<String>,
    /// Maximum explanation order β̄ (paper default: 3).
    pub max_order: usize,
    /// The support `filter` ratio (§7.5.1; paper default when enabled:
    /// 0.001). `None` disables filtering (the Vanilla configuration).
    pub filter_ratio: Option<f64>,
    /// Prune redundant conjunctions that select exactly the same rows as
    /// one of their sub-conjunctions (e.g. `category=Tech & stock=AAPL`
    /// when `stock` functionally determines `category`). Keeps ε at the
    /// paper's reported magnitudes for hierarchical explain-by attributes.
    pub prune_redundant: bool,
}

impl CubeConfig {
    /// A configuration explaining by the given attributes with the paper's
    /// defaults (β̄ = 3, no filter).
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(explain_by: I) -> Self {
        CubeConfig {
            explain_by: explain_by.into_iter().map(Into::into).collect(),
            max_order: 3,
            filter_ratio: None,
            prune_redundant: true,
        }
    }

    /// Checks the configuration against `query` before any enumeration:
    /// every cube builder starts here.
    pub(crate) fn validate(&self, query: &AggQuery) -> Result<(), CubeError> {
        if self.explain_by.is_empty() {
            return Err(CubeError::NoExplainBy);
        }
        if self.explain_by.len() > MAX_EXPLAIN_BY {
            return Err(CubeError::TooManyExplainBy(self.explain_by.len()));
        }
        if self.max_order == 0 {
            return Err(CubeError::ZeroMaxOrder);
        }
        for (i, a) in self.explain_by.iter().enumerate() {
            if a == query.time_attr() {
                return Err(CubeError::TimeAttrInExplainBy(a.clone()));
            }
            if self.explain_by[..i].contains(a) {
                return Err(CubeError::DuplicateExplainBy(a.clone()));
            }
        }
        Ok(())
    }

    /// Sets β̄.
    pub fn with_max_order(mut self, max_order: usize) -> Self {
        self.max_order = max_order;
        self
    }

    /// Enables the support filter with `ratio` (paper default 0.001).
    pub fn with_filter_ratio(mut self, ratio: f64) -> Self {
        self.filter_ratio = Some(ratio);
        self
    }

    /// Disables redundant-conjunction pruning (keeps every witnessed
    /// conjunction, including ones equivalent to simpler candidates).
    pub fn without_redundancy_pruning(mut self) -> Self {
        self.prune_redundant = false;
        self
    }

    /// A hashable identity for cubes built from this configuration over the
    /// same data — what a serving session keys its cube cache by.
    ///
    /// Two configurations with equal keys produce identical cubes for the
    /// same relation and query (the float ratio is compared bitwise).
    pub fn cache_key(&self) -> CubeCacheKey {
        CubeCacheKey {
            explain_by: self.explain_by.clone(),
            max_order: self.max_order,
            filter_ratio_bits: self.filter_ratio.map(f64::to_bits),
            prune_redundant: self.prune_redundant,
        }
    }
}

/// The hashable identity of a [`CubeConfig`] (see [`CubeConfig::cache_key`]).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CubeCacheKey {
    explain_by: Vec<String>,
    max_order: usize,
    filter_ratio_bits: Option<u64>,
    prune_redundant: bool,
}

impl CubeCacheKey {
    /// A stable 64-bit digest of the key (FNV-1a over a canonical field
    /// encoding) — usable as an on-disk file name component, unlike the
    /// std `Hash` whose value is unspecified across processes. Distinct
    /// configurations virtually never collide, and a collision only costs
    /// a failed rehydration (the watermark/config check rejects it).
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        for name in &self.explain_by {
            eat(&(name.len() as u64).to_le_bytes());
            eat(name.as_bytes());
        }
        eat(&(self.max_order as u64).to_le_bytes());
        match self.filter_ratio_bits {
            None => eat(&[0]),
            Some(bits) => {
                eat(&[1]);
                eat(&bits.to_le_bytes());
            }
        }
        eat(&[self.prune_redundant as u8]);
        h
    }
}

/// The per-explanation time-series cube (paper §5.2, module a).
///
/// Holds the overall aggregate-state series `ts(R)` and one state series
/// `ts(σ_E R)` per candidate explanation, the drill-down trie for the
/// Cascading Analysts algorithm, and the selectability bitmap produced by
/// the support filter.
#[derive(Clone, Debug)]
pub struct ExplanationCube {
    timestamps: Vec<AttrValue>,
    agg: AggFn,
    total: Vec<AggState>,
    attr_names: Vec<String>,
    dicts: Vec<Dictionary>,
    explanations: Vec<Explanation>,
    series: Vec<Vec<AggState>>,
    /// Time-major pre-decoded values (see [`ValueMatrix`]): the columnar
    /// dual of `series` the scoring hot loops scan. Rebuilt whenever the
    /// states change; every value read goes through it.
    values: ValueMatrix,
    selectable: Vec<bool>,
    /// The ids set in `selectable`, ascending: what the top-m scans walk
    /// instead of testing the bitmap over all ε candidates.
    selectable_ids: Vec<ExplId>,
    /// Per node (explanations, then root in the last slot): whether the
    /// subtree rooted there contains any selectable explanation. Lets the
    /// CA algorithm prune filtered subtrees, which is where the filter's
    /// speedup comes from.
    subtree_selectable: Vec<bool>,
    trie: DrillTrie,
    index: HashMap<Explanation, ExplId>,
}

impl ExplanationCube {
    /// Builds the cube for `query` over `rel` with `config`, using the
    /// process-default parallel context (`TSX_THREADS`; see
    /// [`ExplanationCube::build_with`]).
    pub fn build(rel: &Relation, query: &AggQuery, config: &CubeConfig) -> Result<Self, CubeError> {
        ExplanationCube::build_with(rel, query, config, &ParallelCtx::from_env())
    }

    /// Builds the cube with an explicit parallel context: candidate
    /// enumeration fans the independent attribute subsets across `par`'s
    /// workers with chunk-ordered reduction, so the cube is byte-identical
    /// at any thread count.
    pub fn build_with(
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

        let mut attr_codes: Vec<Vec<u32>> = Vec::with_capacity(config.explain_by.len());
        let mut dicts = Vec::with_capacity(config.explain_by.len());
        for a in &config.explain_by {
            let col = rel.dim_column(a)?;
            attr_codes.push(col.codes().to_vec());
            dicts.push(col.dict().clone());
        }

        let mut total = vec![AggState::ZERO; n_times];
        for (row, &code) in time_col.codes().iter().enumerate() {
            total[code as usize].observe(measures[row]);
        }

        let max_order = config.max_order.min(config.explain_by.len());
        let en = enumerate(
            time_col.codes(),
            n_times,
            &attr_codes,
            &measures,
            max_order,
            par,
        );
        // All-or-nothing: a cancelled fan-out joins with truncated subset
        // blocks — never assemble (or cache) a half-built cube.
        if par.is_cancelled() {
            return Err(CubeError::Cancelled);
        }
        Ok(ExplanationCube::assemble(
            time_col.dict().values().to_vec(),
            query.agg(),
            total,
            config.explain_by.clone(),
            dicts,
            en.explanations,
            en.series,
            None,
            config.filter_ratio,
            config.prune_redundant,
        ))
    }

    /// Finalizes a cube from raw enumeration output: optionally prunes
    /// redundant conjunctions, builds the drill-down trie, the lookup
    /// index and the time-major [`ValueMatrix`], and applies the support
    /// filter. Shared by the batch [`ExplanationCube::build`] path and
    /// [`crate::IncrementalCube`] snapshots, so both produce structurally
    /// identical cubes.
    ///
    /// `values` is an optional pre-decoded matrix maintained incrementally
    /// by the caller; it is reused when (and only when) pruning kept every
    /// candidate, otherwise the matrix is re-decoded from the pruned
    /// series. Decoding is pure, so both paths yield bit-identical values.
    #[expect(
        clippy::too_many_arguments,
        reason = "crate-private constructor fed field by field by the builder and the incremental cube"
    )]
    pub(crate) fn assemble(
        timestamps: Vec<AttrValue>,
        agg: AggFn,
        total: Vec<AggState>,
        attr_names: Vec<String>,
        dicts: Vec<Dictionary>,
        explanations: Vec<Explanation>,
        series: Vec<Vec<AggState>>,
        values: Option<ValueMatrix>,
        filter_ratio: Option<f64>,
        prune: bool,
    ) -> Self {
        let (explanations, series) = if prune {
            prune_redundant(explanations, series)
        } else {
            (explanations, series)
        };
        let values = match values {
            Some(v) if v.n_cols() == explanations.len() && v.n_rows() == timestamps.len() => {
                debug_assert!(
                    {
                        let fresh = ValueMatrix::build(agg, &total, &series);
                        (0..v.n_rows()).all(|t| v.row(t) == fresh.row(t))
                            && v.totals() == fresh.totals()
                    },
                    "incrementally maintained ValueMatrix drifted from the states"
                );
                v
            }
            _ => ValueMatrix::build(agg, &total, &series),
        };
        let trie = DrillTrie::build(&explanations);
        let index = explanations
            .iter()
            .enumerate()
            .map(|(i, e)| (e.clone(), i as ExplId))
            .collect();
        let mut cube = ExplanationCube {
            timestamps,
            agg,
            total,
            attr_names,
            dicts,
            explanations,
            series,
            values,
            selectable: Vec::new(),
            selectable_ids: Vec::new(),
            subtree_selectable: Vec::new(),
            trie,
            index,
        };
        cube.apply_filter(filter_ratio);
        cube
    }

    /// A cube restricted to the time window `[lo, hi]` (inclusive point
    /// indices) — cheap cube reuse for time-range-restricted requests.
    ///
    /// The candidate set is inherited from the full horizon (candidates are
    /// *witnessed* conjunctions; a slice never witnesses new ones, and
    /// keeping the full set preserves drill-down structure). The support
    /// filter is re-applied over the sliced series with `filter_ratio`, so
    /// selectability reflects the window.
    pub fn slice_time(
        &self,
        lo: usize,
        hi: usize,
        filter_ratio: Option<f64>,
    ) -> Result<ExplanationCube, CubeError> {
        let n = self.n_points();
        if lo > hi || hi >= n || hi - lo < 1 {
            return Err(CubeError::InvalidTimeSlice { lo, hi, n });
        }
        let mut cube = ExplanationCube {
            timestamps: self.timestamps[lo..=hi].to_vec(),
            agg: self.agg,
            total: self.total[lo..=hi].to_vec(),
            attr_names: self.attr_names.clone(),
            dicts: self.dicts.clone(),
            explanations: self.explanations.clone(),
            series: self.series.iter().map(|s| s[lo..=hi].to_vec()).collect(),
            // Rows are contiguous, so the slice is two memcpys — no
            // re-decoding of the sliced states.
            values: self.values.slice_rows(lo, hi),
            selectable: Vec::new(),
            selectable_ids: Vec::new(),
            subtree_selectable: Vec::new(),
            trie: self.trie.clone(),
            index: self.index.clone(),
        };
        cube.apply_filter(filter_ratio);
        Ok(cube)
    }

    /// (Re)applies the support filter, recomputing selectability.
    ///
    /// An explanation is kept when some point of its value series reaches
    /// `ratio` × the overall series' magnitude at that point and is nonzero;
    /// otherwise its contribution is insignificant everywhere (§7.5.1).
    pub fn apply_filter(&mut self, filter_ratio: Option<f64>) {
        let n_expl = self.explanations.len();
        self.selectable = match filter_ratio {
            None => vec![true; n_expl],
            Some(ratio) => (0..n_expl)
                .map(|e| {
                    (0..self.n_points()).any(|t| {
                        let v = self.value_at(e as ExplId, t).abs();
                        v > 0.0 && v >= ratio * self.total_value(t).abs()
                    })
                })
                .collect(),
        };
        self.selectable_ids = (0..n_expl as ExplId)
            .filter(|&e| self.selectable[e as usize])
            .collect();
        // Propagate child → parent so CA can prune dead subtrees. Children
        // always have strictly higher order, so scanning orders high→low
        // sees every child before its parents.
        let mut subtree = self.selectable.clone();
        subtree.push(false); // root slot
        let mut by_order: Vec<ExplId> = (0..n_expl as ExplId).collect();
        by_order.sort_by_key(|&e| std::cmp::Reverse(self.explanations[e as usize].order()));
        let root_slot = n_expl;
        for &e in &by_order {
            if subtree[e as usize] {
                continue;
            }
            let has = self
                .trie
                .children(e)
                .iter()
                .any(|(_, kids)| kids.iter().any(|&k| subtree[k as usize]));
            subtree[e as usize] = has;
        }
        subtree[root_slot] = self
            .trie
            .children(ROOT_NODE)
            .iter()
            .any(|(_, kids)| kids.iter().any(|&k| subtree[k as usize]));
        self.subtree_selectable = subtree;
    }

    /// Approximate heap + inline footprint of this cube in bytes (see the
    /// `mem` module docs) — the unit a byte-budgeted cube cache
    /// accounts and evicts in.
    ///
    /// Deterministic for identical state and monotone in the data: more
    /// points, candidates or dictionary entries never shrink the estimate.
    #[expect(
        clippy::disallowed_methods,
        reason = "an integer byte count summed over a hash map's keys is order-insensitive"
    )]
    pub fn approx_bytes(&self) -> usize {
        use crate::mem::*;
        use std::mem::size_of;
        let series: usize = self.series.iter().map(|s| state_series_bytes(s)).sum();
        let index: usize = self
            .index
            .keys()
            .map(|e| explanation_bytes(e) + size_of::<ExplId>() + MAP_ENTRY_OVERHEAD)
            .sum();
        size_of::<Self>()
            + attr_values_bytes(&self.timestamps)
            + state_series_bytes(&self.total)
            + self.attr_names.iter().map(String::len).sum::<usize>()
            + self.dicts.iter().map(dictionary_bytes).sum::<usize>()
            + self
                .explanations
                .iter()
                .map(explanation_bytes)
                .sum::<usize>()
            + series
            + self.values.approx_bytes()
            + self.selectable.len()
            + self.selectable_ids.len() * size_of::<ExplId>()
            + self.subtree_selectable.len()
            + trie_bytes(&self.trie)
            + index
    }

    /// Number of points `n` in the aggregated time series.
    pub fn n_points(&self) -> usize {
        self.timestamps.len()
    }

    /// Total number of candidate explanations ε (Table 6, column ε).
    pub fn n_candidates(&self) -> usize {
        self.explanations.len()
    }

    /// Number of candidates surviving the support filter (Table 6,
    /// column "filtered ε").
    pub fn n_selectable(&self) -> usize {
        self.selectable_ids.len()
    }

    /// The sorted timestamps of the series.
    pub fn timestamps(&self) -> &[AttrValue] {
        &self.timestamps
    }

    /// The aggregate function of the underlying query.
    pub fn agg(&self) -> AggFn {
        self.agg
    }

    /// The overall aggregate state at time index `t`.
    pub fn total_state(&self, t: usize) -> AggState {
        self.total[t]
    }

    /// The overall aggregate value at time index `t` (pre-decoded).
    pub fn total_value(&self, t: usize) -> f64 {
        self.values.total(t)
    }

    /// The whole overall value series as an owned vector. Warm paths that
    /// only need to *read* the series should prefer the allocation-free
    /// [`ExplanationCube::total_values_slice`].
    pub fn total_values(&self) -> Vec<f64> {
        self.values.totals().to_vec()
    }

    /// The whole overall value series, borrowed from the pre-decoded
    /// matrix — no per-call allocation.
    pub fn total_values_slice(&self) -> &[f64] {
        self.values.totals()
    }

    /// The time-major pre-decoded value matrix (see [`ValueMatrix`]) — the
    /// storage batched scorers scan row-wise.
    pub fn values(&self) -> &ValueMatrix {
        &self.values
    }

    /// Explanation `e`'s aggregate state at time index `t`.
    pub fn state(&self, e: ExplId, t: usize) -> AggState {
        self.series[e as usize][t]
    }

    /// Explanation `e`'s aggregate value at time index `t` (pre-decoded;
    /// bit-identical to `state(e, t).value(agg)`).
    pub fn value_at(&self, e: ExplId, t: usize) -> f64 {
        self.values.get(t, e as usize)
    }

    /// Explanation `e`'s whole value series.
    pub fn value_series(&self, e: ExplId) -> Vec<f64> {
        (0..self.n_points()).map(|t| self.value_at(e, t)).collect()
    }

    /// The candidate explanation behind `e`.
    pub fn explanation(&self, e: ExplId) -> &Explanation {
        &self.explanations[e as usize]
    }

    /// All candidate explanations.
    pub fn explanations(&self) -> &[Explanation] {
        &self.explanations
    }

    /// Human-readable label of `e` (`"state=NY"`, `"BV=1750 & P=6"`, …).
    pub fn label(&self, e: ExplId) -> String {
        self.explanations[e as usize].describe(&self.attr_names, &self.dicts)
    }

    /// Explain-by attribute names, in cube attribute-index order.
    pub fn attr_names(&self) -> &[String] {
        &self.attr_names
    }

    /// The dictionaries of the explain-by attributes.
    pub fn dicts(&self) -> &[Dictionary] {
        &self.dicts
    }

    /// The drill-down trie.
    pub fn trie(&self) -> &DrillTrie {
        &self.trie
    }

    /// The id of an explanation by structural equality, if enumerated.
    pub fn lookup(&self, e: &Explanation) -> Option<ExplId> {
        self.index.get(e).copied()
    }

    /// Whether explanation `e` survived the support filter.
    pub fn is_selectable(&self, e: ExplId) -> bool {
        self.selectable[e as usize]
    }

    /// The id of an explanation given its sorted `(attr, code)` predicate
    /// pairs — the allocation-free twin of [`ExplanationCube::lookup`]
    /// for callers that assemble candidate predicates in a scratch buffer.
    pub fn lookup_preds(&self, preds: &[(u16, u32)]) -> Option<ExplId> {
        debug_assert!(preds.windows(2).all(|w| w[0].0 < w[1].0));
        self.index.get(preds).copied()
    }

    /// Whether any explanation in the subtree under `node` is selectable.
    pub fn subtree_selectable(&self, node: NodeId) -> bool {
        if node == ROOT_NODE {
            self.subtree_selectable[self.explanations.len()]
        } else {
            self.subtree_selectable[node as usize]
        }
    }

    /// Ids of all selectable explanations, ascending — built once per
    /// [`ExplanationCube::apply_filter`], so the top-m scans touch only
    /// the candidates they may select.
    pub fn selectable_ids(&self) -> &[ExplId] {
        &self.selectable_ids
    }

    /// Smooths the overall and per-explanation series with a centered
    /// moving average of `window` points (clamped at the boundaries).
    ///
    /// The paper applies a moving average to "very fuzzy" datasets before
    /// explaining them (§7.4); smoothing the decomposable states keeps
    /// every downstream γ computation consistent with the smoothed view.
    /// `window <= 1` is a no-op.
    pub fn smooth_moving_average(&mut self, window: usize) {
        if window <= 1 {
            return;
        }
        let half = window / 2;
        let smooth_series = |s: &[AggState]| -> Vec<AggState> {
            let n = s.len();
            (0..n)
                .map(|t| {
                    let lo = t.saturating_sub(half);
                    let hi = (t + half).min(n - 1);
                    let mut acc = AggState::ZERO;
                    for x in &s[lo..=hi] {
                        acc += *x;
                    }
                    let k = (hi - lo + 1) as f64;
                    AggState {
                        count: acc.count / k,
                        sum: acc.sum / k,
                        sumsq: acc.sumsq / k,
                    }
                })
                .collect()
        };
        self.total = smooth_series(&self.total);
        for s in &mut self.series {
            *s = smooth_series(s);
        }
        // The states changed; re-decode the columnar view.
        self.values = ValueMatrix::build(self.agg, &self.total, &self.series);
    }
}

/// Drops conjunctions whose row set equals one of their sub-conjunctions'.
///
/// A conjunction `F` is redundant iff some immediate parent `F \ {a}` has
/// the same total support: `σ_F R ⊆ σ_{F∖a} R` always, so equal row counts
/// imply equal row sets. Redundancy is downward-closed (adding predicates
/// to a redundant conjunction keeps it redundant), so checking immediate
/// parents is sufficient and the kept set always contains every kept
/// explanation's drill-down parents.
fn prune_redundant(
    explanations: Vec<Explanation>,
    series: Vec<Vec<AggState>>,
) -> (Vec<Explanation>, Vec<Vec<AggState>>) {
    let index: HashMap<&Explanation, usize> = explanations
        .iter()
        .enumerate()
        .map(|(i, e)| (e, i))
        .collect();
    let support: Vec<f64> = series
        .iter()
        .map(|s| s.iter().map(|st| st.count).sum())
        .collect();
    let keep: Vec<bool> = explanations
        .iter()
        .enumerate()
        .map(|(i, e)| {
            if e.order() < 2 {
                return true;
            }
            !e.preds().iter().any(|&(attr, _)| {
                let parent = e.without(attr).expect("attr constrained");
                index
                    .get(&parent)
                    .is_some_and(|&p| support[p] == support[i])
            })
        })
        .collect();
    if keep.iter().all(|&k| k) {
        // Nothing pruned: hand the vectors back untouched so callers that
        // maintain derived structures (the incremental value matrix) can
        // reuse them.
        return (explanations, series);
    }
    let mut kept_expl = Vec::with_capacity(keep.iter().filter(|&&k| k).count());
    let mut kept_series = Vec::with_capacity(kept_expl.capacity());
    for ((e, s), k) in explanations.into_iter().zip(series).zip(keep) {
        if k {
            kept_expl.push(e);
            kept_series.push(s);
        }
    }
    (kept_expl, kept_series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsexplain_relation::{Datum, Field, Schema};

    /// date × state × pack with COUNT aggregation.
    fn sample_relation() -> Relation {
        let schema = Schema::new(vec![
            Field::dimension("date"),
            Field::dimension("state"),
            Field::dimension("pack"),
            Field::measure("sold"),
        ])
        .unwrap();
        let mut b = Relation::builder(schema);
        let rows: &[(&str, &str, i64, f64)] = &[
            ("d1", "NY", 6, 1.0),
            ("d1", "NY", 12, 2.0),
            ("d1", "CA", 6, 3.0),
            ("d2", "NY", 6, 4.0),
            ("d2", "CA", 12, 5.0),
            ("d3", "CA", 12, 6.0),
        ];
        for &(d, s, p, v) in rows {
            b.push_row(vec![
                Datum::from(d),
                Datum::from(s),
                Datum::from(p),
                Datum::from(v),
            ])
            .unwrap();
        }
        b.finish()
    }

    fn sample_cube(config: CubeConfig) -> ExplanationCube {
        let rel = sample_relation();
        let query = AggQuery::sum("date", "sold");
        ExplanationCube::build(&rel, &query, &config).unwrap()
    }

    #[test]
    fn totals_match_group_by() {
        let cube = sample_cube(CubeConfig::new(["state", "pack"]));
        assert_eq!(cube.n_points(), 3);
        assert_eq!(cube.total_values(), vec![6.0, 9.0, 6.0]);
    }

    #[test]
    fn candidate_counts() {
        let cube = sample_cube(CubeConfig::new(["state", "pack"]));
        // Order 1: state∈{NY,CA} (2) + pack∈{6,12} (2) = 4.
        // Order 2 witnessed: (NY,6), (NY,12), (CA,6), (CA,12) = 4.
        assert_eq!(cube.n_candidates(), 8);
        assert_eq!(cube.n_selectable(), 8);
    }

    #[test]
    fn slice_series_match_manual_selection() {
        let cube = sample_cube(CubeConfig::new(["state", "pack"]));
        let ny = (0..cube.n_candidates() as ExplId)
            .find(|&e| cube.label(e) == "state=NY")
            .unwrap();
        assert_eq!(cube.value_series(ny), vec![3.0, 4.0, 0.0]);
        let ca12 = (0..cube.n_candidates() as ExplId)
            .find(|&e| cube.label(e) == "state=CA & pack=12")
            .unwrap();
        assert_eq!(cube.value_series(ca12), vec![0.0, 5.0, 6.0]);
    }

    #[test]
    fn slices_sum_to_total_per_attribute() {
        let cube = sample_cube(CubeConfig::new(["state", "pack"]));
        for t in 0..cube.n_points() {
            let sum: f64 = (0..cube.n_candidates() as ExplId)
                .filter(|&e| cube.explanation(e).order() == 1 && cube.explanation(e).constrains(0))
                .map(|e| cube.value_at(e, t))
                .sum();
            assert!((sum - cube.total_value(t)).abs() < 1e-9);
        }
    }

    #[test]
    fn max_order_respected() {
        let cube = sample_cube(CubeConfig::new(["state", "pack"]).with_max_order(1));
        assert!(cube.explanations().iter().all(|e| e.order() == 1));
    }

    #[test]
    fn filter_marks_small_slices() {
        // `pack=6, state=CA` only contributes 3.0/6.0 on d1; with a huge
        // ratio nothing survives, with a tiny ratio everything does.
        let mut cube = sample_cube(CubeConfig::new(["state", "pack"]));
        cube.apply_filter(Some(10.0));
        assert_eq!(cube.n_selectable(), 0);
        assert!(!cube.subtree_selectable(ROOT_NODE));
        cube.apply_filter(Some(1e-9));
        assert_eq!(cube.n_selectable(), cube.n_candidates());
        assert!(cube.subtree_selectable(ROOT_NODE));
    }

    #[test]
    fn filter_ratio_thresholds_point_share() {
        let mut cube = sample_cube(CubeConfig::new(["state", "pack"]));
        // state=NY reaches 3/6 = 50% on d1; 0.4 keeps it, 0.9 does not
        // (its best share is 4/9 on d2... actually 3/6=0.5) — check both.
        cube.apply_filter(Some(0.4));
        let ny = (0..cube.n_candidates() as ExplId)
            .find(|&e| cube.label(e) == "state=NY")
            .unwrap();
        assert!(cube.is_selectable(ny));
        cube.apply_filter(Some(0.9));
        assert!(!cube.is_selectable(ny));
    }

    #[test]
    fn subtree_selectability_keeps_structural_parents() {
        let mut cube = sample_cube(CubeConfig::new(["state", "pack"]));
        // Filter so only the largest order-2 slice (CA & 12: 5,6) survives…
        cube.apply_filter(Some(0.55));
        let ca12 = (0..cube.n_candidates() as ExplId)
            .find(|&e| cube.label(e) == "state=CA & pack=12")
            .unwrap();
        assert!(cube.is_selectable(ca12));
        // The id list is rebuilt with the bitmap: its set entries, ascending.
        let listed: Vec<ExplId> = (0..cube.n_candidates() as ExplId)
            .filter(|&e| cube.is_selectable(e))
            .collect();
        assert_eq!(cube.selectable_ids(), listed.as_slice());
        assert!(listed.len() < cube.n_candidates());
        // …then its parents must still be drillable-through.
        let ca = (0..cube.n_candidates() as ExplId)
            .find(|&e| cube.label(e) == "state=CA")
            .unwrap();
        assert!(cube.subtree_selectable(ca));
    }

    #[test]
    fn redundant_conjunctions_pruned_for_hierarchies() {
        // "industry" functionally determines "sector": sector=S & industry=I
        // selects the same rows as industry=I and must be pruned.
        let schema = Schema::new(vec![
            Field::dimension("d"),
            Field::dimension("sector"),
            Field::dimension("industry"),
            Field::measure("v"),
        ])
        .unwrap();
        let mut b = Relation::builder(schema);
        for (d, s, i, v) in [
            ("d1", "Tech", "Software", 1.0),
            ("d1", "Tech", "Hardware", 2.0),
            ("d1", "Energy", "Oil", 3.0),
            ("d2", "Tech", "Software", 4.0),
            ("d2", "Energy", "Oil", 5.0),
        ] {
            b.push_row(vec![
                Datum::from(d),
                Datum::from(s),
                Datum::from(i),
                Datum::from(v),
            ])
            .unwrap();
        }
        let rel = b.finish();
        let query = AggQuery::sum("d", "v");
        let pruned =
            ExplanationCube::build(&rel, &query, &CubeConfig::new(["sector", "industry"])).unwrap();
        let full = ExplanationCube::build(
            &rel,
            &query,
            &CubeConfig::new(["sector", "industry"]).without_redundancy_pruning(),
        )
        .unwrap();
        // Order-1: 2 sectors + 3 industries = 5. Pairs are all redundant.
        assert_eq!(pruned.n_candidates(), 5);
        assert_eq!(full.n_candidates(), 8);
        assert!(pruned.explanations().iter().all(|e| e.order() == 1));
    }

    #[test]
    fn pruning_keeps_informative_conjunctions() {
        let cube = sample_cube(CubeConfig::new(["state", "pack"]));
        // state × pack combinations genuinely refine both parents here.
        assert_eq!(cube.n_candidates(), 8);
    }

    #[test]
    fn validation_errors() {
        let rel = sample_relation();
        let query = AggQuery::sum("date", "sold");
        let err = ExplanationCube::build(&rel, &query, &CubeConfig::new(Vec::<String>::new()))
            .unwrap_err();
        assert_eq!(err, CubeError::NoExplainBy);
        let err = ExplanationCube::build(&rel, &query, &CubeConfig::new(["date"])).unwrap_err();
        assert_eq!(err, CubeError::TimeAttrInExplainBy("date".into()));
        let err =
            ExplanationCube::build(&rel, &query, &CubeConfig::new(["state", "state"])).unwrap_err();
        assert_eq!(err, CubeError::DuplicateExplainBy("state".into()));
        let err =
            ExplanationCube::build(&rel, &query, &CubeConfig::new(["state"]).with_max_order(0))
                .unwrap_err();
        assert_eq!(err, CubeError::ZeroMaxOrder);
        // Wider sets overflow the u32 subset mask: in a release build, 33
        // attributes would build a cube with no candidates at all.
        let wide = CubeConfig::new((0..=MAX_EXPLAIN_BY).map(|i| format!("a{i}")));
        let err = ExplanationCube::build(&rel, &query, &wide).unwrap_err();
        assert_eq!(err, CubeError::TooManyExplainBy(MAX_EXPLAIN_BY + 1));
    }

    #[test]
    fn smoothing_averages_neighbors() {
        let mut cube = sample_cube(CubeConfig::new(["state"]));
        let before = cube.total_values();
        cube.smooth_moving_average(3);
        let after = cube.total_values();
        // Middle point becomes the mean of all three.
        assert!((after[1] - (before[0] + before[1] + before[2]) / 3.0).abs() < 1e-9);
        // Boundary points average the available window.
        assert!((after[0] - (before[0] + before[1]) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn slice_time_restricts_series_and_reapplies_filter() {
        let cube = sample_cube(CubeConfig::new(["state", "pack"]));
        let sliced = cube.slice_time(1, 2, None).unwrap();
        assert_eq!(sliced.n_points(), 2);
        assert_eq!(sliced.total_values(), vec![9.0, 6.0]);
        assert_eq!(sliced.n_candidates(), cube.n_candidates());
        assert_eq!(sliced.timestamps()[0], cube.timestamps()[1]);
        // state=NY only contributes on d1/d2 (4.0 on d2): a harsh filter
        // over the slice drops more candidates than over the full series.
        let harsh = cube.slice_time(1, 2, Some(0.9)).unwrap();
        assert!(harsh.n_selectable() < cube.n_candidates());
        // Labels survive slicing.
        let ny = (0..sliced.n_candidates() as ExplId)
            .find(|&e| sliced.label(e) == "state=NY")
            .unwrap();
        assert_eq!(sliced.value_series(ny), vec![4.0, 0.0]);
    }

    #[test]
    fn slice_time_rejects_degenerate_windows() {
        let cube = sample_cube(CubeConfig::new(["state"]));
        assert!(matches!(
            cube.slice_time(2, 1, None),
            Err(CubeError::InvalidTimeSlice { .. })
        ));
        assert!(matches!(
            cube.slice_time(1, 1, None),
            Err(CubeError::InvalidTimeSlice { .. })
        ));
        assert!(matches!(
            cube.slice_time(0, 3, None),
            Err(CubeError::InvalidTimeSlice { .. })
        ));
        assert!(cube.slice_time(0, 2, None).is_ok());
    }

    #[test]
    fn cache_keys_compare_bitwise() {
        let a = CubeConfig::new(["state"]).with_filter_ratio(0.001);
        let b = CubeConfig::new(["state"]).with_filter_ratio(0.001);
        let c = CubeConfig::new(["state"]).with_filter_ratio(0.002);
        let d = CubeConfig::new(["state", "pack"]).with_filter_ratio(0.001);
        assert_eq!(a.cache_key(), b.cache_key());
        assert_ne!(a.cache_key(), c.cache_key());
        assert_ne!(a.cache_key(), d.cache_key());
        assert_ne!(a.cache_key(), CubeConfig::new(["state"]).cache_key());
        assert_ne!(
            a.cache_key(),
            CubeConfig::new(["state"])
                .with_filter_ratio(0.001)
                .with_max_order(1)
                .cache_key()
        );
    }

    #[test]
    fn approx_bytes_is_positive_stable_and_monotone() {
        let cube = sample_cube(CubeConfig::new(["state", "pack"]));
        let bytes = cube.approx_bytes();
        assert!(bytes > 0);
        // Stable: identical state gives an identical estimate.
        assert_eq!(
            bytes,
            sample_cube(CubeConfig::new(["state", "pack"])).approx_bytes()
        );
        // Monotone: a lower-order cube over the same data holds fewer
        // candidates and must not cost more.
        let smaller = sample_cube(CubeConfig::new(["state", "pack"]).with_max_order(1));
        assert!(smaller.approx_bytes() < bytes);
        // A time slice drops points and must not cost more.
        let sliced = cube.slice_time(0, 1, None).unwrap();
        assert!(sliced.approx_bytes() < bytes);
    }

    #[test]
    fn smoothing_window_one_is_noop() {
        let mut cube = sample_cube(CubeConfig::new(["state"]));
        let before = cube.total_values();
        cube.smooth_moving_average(1);
        assert_eq!(before, cube.total_values());
    }
}
