use std::collections::HashMap;
use std::sync::Arc;

use tsexplain_parallel::ParallelCtx;
use tsexplain_relation::{AggFn, AggQuery, AggState, AttrValue, Dictionary, Relation};

use crate::error::CubeError;
use crate::explanation::{ExplId, Explanation};
use crate::incremental::IncrementalCube;
use crate::trie::{DrillTrie, NodeId, ROOT_NODE};
use crate::values::{StateStore, ValueMatrix};

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

/// The structure a top-m derivation reads of a cube besides its value
/// rows: the explanation list (ids, drill-down trie, parent lists) and the
/// selectable ids. Two cubes with equal shapes derive equal lists for a
/// segment whose endpoint rows hold equal values, so a derivation memo
/// stays valid across a tail append while the shape holds.
///
/// The explanation list is shared with the cube it was taken from, so a
/// shape costs only its selectable ids.
#[derive(Clone, Debug)]
pub struct CubeShape {
    explanations: Arc<[Explanation]>,
    selectable_ids: Vec<ExplId>,
}

impl CubeShape {
    /// Approximate bytes a shape holds of its own: its selectable ids (the
    /// explanation list is its cube's).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.selectable_ids.len() * std::mem::size_of::<ExplId>()
    }
}

impl PartialEq for CubeShape {
    fn eq(&self, other: &Self) -> bool {
        (Arc::ptr_eq(&self.explanations, &other.explanations)
            || self.explanations == other.explanations)
            && self.selectable_ids == other.selectable_ids
    }
}

impl Eq for CubeShape {}

/// The per-explanation time-series cube (paper §5.2, module a).
///
/// Holds the overall aggregate-state series `ts(R)` and one state series
/// `ts(σ_E R)` per candidate explanation, the drill-down trie for the
/// Cascading Analysts algorithm, and the selectability bitmap produced by
/// the support filter.
///
/// The states live in a time-major state store (see the `values` module).
/// A snapshot of an [`IncrementalCube`] shares the incremental cube's
/// store; pruning, selectability, the trie and the index are the
/// snapshot's own. When pruning dropped candidates, explanation `e` reads
/// its states from store column `cols[e]`, and the snapshot gathers the
/// value rows of its kept columns once, so the γ scans still read one
/// contiguous row per timestamp. Beside them the cube lays out the values
/// of its selectable candidates alone
/// ([`ExplanationCube::selectable_values`]), rebuilt whenever values or
/// selectability change, so a top-m scan reads two contiguous rows of only
/// the candidates it may select.
#[derive(Clone, Debug)]
pub struct ExplanationCube {
    timestamps: Vec<AttrValue>,
    attr_names: Vec<String>,
    dicts: Vec<Dictionary>,
    /// Shared with every [`CubeShape`] taken from the cube and with its
    /// time slices.
    explanations: Arc<[Explanation]>,
    store: Arc<StateStore>,
    /// Whether `store` is the incremental cube's, which counts its bytes.
    shared_store: bool,
    /// Per explanation id, its column in `store`.
    cols: Vec<u32>,
    /// When pruning dropped candidates: the value rows of `cols`,
    /// time-major (`gathered[t * ε + e]`). Otherwise the store's own value
    /// plane serves and this is empty.
    gathered: Vec<f64>,
    selectable: Vec<bool>,
    /// The ids set in `selectable`, ascending: what the top-m scans walk
    /// instead of testing the bitmap over all ε candidates.
    selectable_ids: Vec<ExplId>,
    /// The decoded values of `selectable_ids`, time-major
    /// (`selectable_plane[t * S + i]` is `selectable_ids[i]` at `t`).
    selectable_plane: Vec<f64>,
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

    /// Builds the cube with an explicit parallel context: the incremental
    /// seed ([`IncrementalCube::from_relation_with`]) followed by a
    /// consuming snapshot, so the cube is byte-identical at any thread
    /// count and to a snapshot of the same seed.
    pub fn build_with(
        rel: &Relation,
        query: &AggQuery,
        config: &CubeConfig,
        par: &ParallelCtx,
    ) -> Result<Self, CubeError> {
        IncrementalCube::from_relation_with(rel, query, config, par)?.into_snapshot()
    }

    /// Finalizes a cube over `store`, whose column `e` holds explanation
    /// `e`: optionally prunes redundant conjunctions, builds the lookup
    /// index and the drill-down trie from it, applies the support filter
    /// and, for a `smoothing` window above 1, smooths the kept columns into
    /// a store of the cube's own. Every cube, batch-built or snapshotted,
    /// is finalized here. `shared_store` says whether the incremental cube
    /// the store came from still holds (and counts) it.
    ///
    /// An unsmoothed cube gathers its kept columns' value rows when
    /// pruning dropped any. A smoothed one reads the filter's values
    /// through `cols` instead and smooths straight from `store`, so it
    /// gathers nothing that smoothing would discard; its selectability
    /// comes from the unsmoothed series, as
    /// [`ExplanationCube::smooth_moving_average`] leaves it.
    #[expect(
        clippy::too_many_arguments,
        reason = "crate-private constructor fed field by field by the incremental cube's two snapshot paths"
    )]
    pub(crate) fn assemble(
        timestamps: Vec<AttrValue>,
        attr_names: Vec<String>,
        dicts: Vec<Dictionary>,
        explanations: Vec<Explanation>,
        store: Arc<StateStore>,
        shared_store: bool,
        filter_ratio: Option<f64>,
        prune: bool,
        smoothing: usize,
    ) -> Self {
        debug_assert_eq!(store.n_cols(), explanations.len());
        debug_assert_eq!(store.n_rows(), timestamps.len());
        let (explanations, cols) = if prune {
            prune_redundant(explanations, &store)
        } else {
            let cols = (0..explanations.len() as u32).collect();
            (explanations, cols)
        };
        let index = explanations
            .iter()
            .enumerate()
            .map(|(i, e)| (e.clone(), i as ExplId))
            .collect();
        let trie = DrillTrie::build(&explanations, &index);
        let mut cube = ExplanationCube {
            timestamps,
            attr_names,
            dicts,
            explanations: explanations.into(),
            store,
            shared_store,
            cols,
            gathered: Vec::new(),
            selectable: Vec::new(),
            selectable_ids: Vec::new(),
            selectable_plane: Vec::new(),
            subtree_selectable: Vec::new(),
            trie,
            index,
        };
        if smoothing > 1 {
            let cols = &cube.cols;
            let keep = support(cube.store.values(), cols.len(), filter_ratio, |e| {
                cols[e] as usize
            });
            cube.smooth_store(smoothing);
            cube.set_selectable(keep);
        } else {
            if cube.cols.len() != cube.store.n_cols() {
                cube.gathered = cube.store.gather_values(&cube.cols);
            }
            cube.apply_filter(filter_ratio);
        }
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
        // The window's rows of this cube's columns, values copied rather
        // than redecoded.
        let store = self.store.gather(lo..hi + 1, &self.cols);
        let mut cube = ExplanationCube {
            timestamps: self.timestamps[lo..=hi].to_vec(),
            attr_names: self.attr_names.clone(),
            dicts: self.dicts.clone(),
            explanations: Arc::clone(&self.explanations),
            cols: (0..store.n_cols() as u32).collect(),
            store: Arc::new(store),
            shared_store: false,
            gathered: Vec::new(),
            selectable: Vec::new(),
            selectable_ids: Vec::new(),
            selectable_plane: Vec::new(),
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
        let keep = support(self.values(), self.explanations.len(), filter_ratio, |e| e);
        self.set_selectable(keep);
    }

    /// Installs a selectability bitmap and everything derived from it:
    /// the id list, the subtree flags and the selectable value plane.
    fn set_selectable(&mut self, selectable: Vec<bool>) {
        let n_expl = self.explanations.len();
        self.selectable = selectable;
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
        self.lay_out_selectable();
    }

    /// Rebuilds the selectable value plane from the current values: after
    /// every change of selectability or of the values themselves.
    fn lay_out_selectable(&mut self) {
        let values = self.values();
        let mut plane = Vec::with_capacity(values.n_rows() * self.selectable_ids.len());
        for t in 0..values.n_rows() {
            let row = values.row(t);
            plane.extend(self.selectable_ids.iter().map(|&e| row[e as usize]));
        }
        self.selectable_plane = plane;
    }

    /// Replaces the store by one whose states are `window`-point moving
    /// averages of this cube's columns (see
    /// [`ExplanationCube::smooth_moving_average`]); the selectable plane
    /// is left for the caller to rebuild.
    fn smooth_store(&mut self, window: usize) {
        // A new store over this cube's columns, which it owns.
        let smoothed = self.store.smoothed(&self.cols, window);
        self.cols = (0..smoothed.n_cols() as u32).collect();
        self.store = Arc::new(smoothed);
        self.shared_store = false;
        self.gathered = Vec::new();
    }

    /// Approximate heap + inline footprint of this cube in bytes (see the
    /// `mem` module docs) — the unit a byte-budgeted cube cache
    /// accounts and evicts in.
    ///
    /// A snapshot's state store is left out while it is the incremental
    /// cube's (see [`IncrementalCube::snapshot`]), which counts it, so a
    /// cache entry holding both counts the store once.
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
        let index: usize = self
            .index
            .keys()
            .map(|e| explanation_bytes(e) + size_of::<ExplId>() + MAP_ENTRY_OVERHEAD)
            .sum();
        // A shared store is counted once, by the incremental cube.
        let store = if self.shared_store {
            0
        } else {
            self.store.approx_bytes()
        };
        size_of::<Self>()
            + attr_values_bytes(&self.timestamps)
            + self.attr_names.iter().map(String::len).sum::<usize>()
            + self.dicts.iter().map(dictionary_bytes).sum::<usize>()
            + self
                .explanations
                .iter()
                .map(explanation_bytes)
                .sum::<usize>()
            + store
            + self.cols.len() * size_of::<u32>()
            + self.gathered.len() * size_of::<f64>()
            + self.selectable.len()
            + self.selectable_ids.len() * size_of::<ExplId>()
            + self.selectable_plane.len() * size_of::<f64>()
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
        self.store.agg()
    }

    /// The overall aggregate state at time index `t`.
    pub fn total_state(&self, t: usize) -> AggState {
        self.store.total_states()[t]
    }

    /// The overall aggregate value at time index `t` (pre-decoded).
    pub fn total_value(&self, t: usize) -> f64 {
        self.values().total(t)
    }

    /// The whole overall value series as an owned vector. Warm paths that
    /// only need to *read* the series should prefer the allocation-free
    /// [`ExplanationCube::total_values_slice`].
    pub fn total_values(&self) -> Vec<f64> {
        self.values().totals().to_vec()
    }

    /// The whole overall value series, borrowed from the pre-decoded
    /// values — no per-call allocation.
    pub fn total_values_slice(&self) -> &[f64] {
        self.values().totals()
    }

    /// The time-major pre-decoded values, one column per explanation id
    /// (see [`ValueMatrix`]) — the rows batched scorers scan.
    pub fn values(&self) -> ValueMatrix<'_> {
        if self.gathered.is_empty() {
            self.store.values()
        } else {
            ValueMatrix::new(
                self.explanations.len(),
                &self.gathered,
                self.store.values().totals(),
            )
        }
    }

    /// Explanation `e`'s aggregate state at time index `t`.
    pub fn state(&self, e: ExplId, t: usize) -> AggState {
        self.store.state(t, self.cols[e as usize] as usize)
    }

    /// Explanation `e`'s aggregate value at time index `t` (pre-decoded;
    /// bit-identical to `state(e, t).value(agg)`).
    pub fn value_at(&self, e: ExplId, t: usize) -> f64 {
        self.values().get(t, e as usize)
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

    /// What a top-m derivation reads of the cube besides its value rows:
    /// the explanation list and the selectable ids (see [`CubeShape`]).
    pub fn shape(&self) -> CubeShape {
        CubeShape {
            explanations: Arc::clone(&self.explanations),
            selectable_ids: self.selectable_ids.clone(),
        }
    }

    /// Ids of all selectable explanations, ascending — built once per
    /// [`ExplanationCube::apply_filter`], so the top-m scans touch only
    /// the candidates they may select.
    pub fn selectable_ids(&self) -> &[ExplId] {
        &self.selectable_ids
    }

    /// The decoded values of the selectable explanations alone, time-major:
    /// column `i` is [`selectable_ids`](ExplanationCube::selectable_ids)`[i]`,
    /// bit-identical to its [`ExplanationCube::values`] column. Rebuilt by
    /// [`ExplanationCube::apply_filter`],
    /// [`ExplanationCube::smooth_moving_average`] and
    /// [`ExplanationCube::slice_time`], so it is never stale.
    pub fn selectable_values(&self) -> ValueMatrix<'_> {
        ValueMatrix::new(
            self.selectable_ids.len(),
            &self.selectable_plane,
            self.values().totals(),
        )
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
        self.smooth_store(window);
        self.lay_out_selectable();
    }
}

/// The support filter (§7.5.1) over `n_expl` explanations whose values sit
/// in column `col(e)` of `values`: row by row, a candidate is kept once
/// any point passes.
fn support(
    values: ValueMatrix<'_>,
    n_expl: usize,
    filter_ratio: Option<f64>,
    col: impl Fn(usize) -> usize,
) -> Vec<bool> {
    let Some(ratio) = filter_ratio else {
        return vec![true; n_expl];
    };
    let mut keep = vec![false; n_expl];
    for t in 0..values.n_rows() {
        let floor = ratio * values.total(t).abs();
        let row = values.row(t);
        for (e, k) in keep.iter_mut().enumerate() {
            let v = row[col(e)].abs();
            *k |= v > 0.0 && v >= floor;
        }
    }
    keep
}

/// Drops conjunctions whose row set equals one of their sub-conjunctions'.
///
/// A conjunction `F` is redundant iff some immediate parent `F \ {a}` has
/// the same total support: `σ_F R ⊆ σ_{F∖a} R` always, so equal row counts
/// imply equal row sets. Redundancy is downward-closed (adding predicates
/// to a redundant conjunction keeps it redundant), so checking immediate
/// parents is sufficient and the kept set always contains every kept
/// explanation's drill-down parents.
///
/// Returns the kept explanations and, per kept id, its column in `store`.
fn prune_redundant(
    explanations: Vec<Explanation>,
    store: &StateStore,
) -> (Vec<Explanation>, Vec<u32>) {
    let index: HashMap<&Explanation, usize> = explanations
        .iter()
        .enumerate()
        .map(|(i, e)| (e, i))
        .collect();
    // Each column's row count over the horizon, summed in time order.
    let mut support = vec![0.0f64; explanations.len()];
    if !support.is_empty() {
        for row in store.counts().chunks(support.len()) {
            for (s, &c) in support.iter_mut().zip(row) {
                *s += c;
            }
        }
    }
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
    let mut kept = Vec::with_capacity(keep.iter().filter(|&&k| k).count());
    let mut cols = Vec::with_capacity(kept.capacity());
    for (col, (e, k)) in explanations.into_iter().zip(keep).enumerate() {
        if k {
            kept.push(e);
            cols.push(col as u32);
        }
    }
    (kept, cols)
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
