//! The serving session: register data once, answer many explain requests.
//!
//! The paper's pipeline (Fig. 7) splits into an expensive precompute step —
//! the explanation cube — and cheap per-query modules (Cascading
//! Analysts plus K-Segmentation). An interactive analyst exploits exactly that split:
//! they register a dataset once and then iterate on K, top-m, difference
//! metric, time window or segmentation strategy, none of which invalidate
//! the cube. [`ExplainSession`] owns a keyed cache of prepared cubes
//! (keyed by explain-by set, max order and filter ratio, with finalized
//! snapshots kept per smoothing window) and answers requests against it.
//! Cache keys are deliberately *strategy-independent*: the DP and every
//! §7.2 baseline adapter share one cube, so a `/compare` fan-out pays
//! precompute once.
//!
//! Every answer is [`ExplainSession::prepare`] (the cube, under whatever
//! lock guards the session) followed by [`PreparedCube::explain`] (the
//! pipeline, on the detached cube).
//!
//! Each cached cube also keeps, per smoothing window, a segment memo
//! ([`tsexplain_segment::SegmentMemo`]): the unit-object top-m lists and
//! segment costs every request over the cube derived, keyed by the knobs
//! that shape them. Later requests read what earlier ones derived, so a
//! follow-up over an unchanged cube re-derives almost nothing. A
//! time-range request is a slice cut from the cached cube; the window
//! keeps a second memo for the slice asked last, keyed by its resolved
//! rows, so an identical windowed follow-up re-derives almost nothing
//! too, and asking another range replaces it. The memos count in
//! [`ExplainSession::cache_bytes`] and go with their entry (eviction,
//! [`ExplainSession::invalidate`], restated history).
//!
//! Appending rows ([`ExplainSession::append_rows`]) extends every cached
//! cube *incrementally at the tail* (`O(new rows)`) and records only the
//! lowest row it touched. The next request over the full horizon (or over
//! the slice's rows) keeps the memo entries that read no touched row (for
//! a smoothed window, no row a touched row's window reaches) and drops
//! the rest, or empties the memo when the cube's candidates or
//! selectability changed.
//! Restated history (rows at already-settled timestamps) falls back to a
//! transparent full rebuild. [`ExplainSession::refresh`] is the paper's §8
//! real-time extension on top: it re-cuts the settled past only at the
//! previous refresh's cut points.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tsexplain_cube::{
    smoothed_reach, AppendRow, CubeCacheKey, CubeConfig, CubeError, ExplanationCube,
    IncrementalCube,
};
use tsexplain_relation::{
    AggQuery, AttrValue, ColumnView, Columnar, Datum, Relation, RelationBuilder, Schema,
};
use tsexplain_segment::SegmentMemo;
use tsexplain_store::{DataStore, StoreError, TenantCheckpoint, WalFrame};

use crate::error::TsExplainError;
use crate::pipeline::explain_cube_request;
use crate::request::{ExplainRequest, InvalidRequest};
use crate::result::ExplainResult;

/// Serving-session instrumentation: how much precompute the cube cache
/// saved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Requests answered.
    pub requests: u64,
    /// Cubes built from scratch (cache misses).
    pub cubes_built: u64,
    /// Requests answered from a cached, up-to-date cube.
    pub cube_cache_hits: u64,
    /// Requests that reused a cached cube's incremental state but had to
    /// re-finalize its snapshot after appended rows.
    pub cube_refreshes: u64,
    /// Raw rows appended over the session's lifetime.
    pub rows_appended: u64,
    /// Full rebuilds forced by restated history.
    pub rebuilds: u64,
    /// Cached cubes dropped to respect the cache byte budget (locally or
    /// by a registry's global policy). Evicted keys keep serving
    /// correctly — the next request for one rebuilds it.
    pub cube_evictions: u64,
}

/// A cached cube: the incremental enumeration state plus, per smoothing
/// window, the finalized (pruned, filtered, smoothed) snapshot the
/// pipeline runs against and its segment memos. The incremental state is
/// smoothing-independent, so one entry serves every smoothing window an
/// analyst tries — only the finalized snapshot is kept per window.
/// Snapshots are dropped when rows arrive and lazily re-finalized on the
/// next request.
///
/// The memos outlive the snapshot: an append only records the lowest row
/// it touched, and the next request over the full horizon, or over the
/// slice asked last, drops the entries of that memo that read it.
#[derive(Debug)]
struct CacheEntry {
    inc: IncrementalCube,
    windows: HashMap<usize, Window>,
    /// Logical LRU stamp of the last request served from this entry, drawn
    /// from the session's (possibly registry-shared) clock.
    last_used: u64,
    /// Approximate bytes held by the incremental state and the finalized
    /// snapshots, the state store they share counted once. Set by the
    /// first [`CacheEntry::snapshot`], which every new entry takes before
    /// it is cached; [`CacheEntry::bytes`] adds the memos.
    cube_bytes: usize,
}

/// One smoothing window of a cache entry: its finalized snapshot (`None`
/// from an append until the next request re-finalizes it) and its
/// segment memos, the full horizon's and the time slice's asked last,
/// keyed by its resolved rows `(lo, hi)`.
#[derive(Debug, Default)]
struct Window {
    snapshot: Option<Arc<ExplanationCube>>,
    full: RowMemo,
    slice: Option<((usize, usize), RowMemo)>,
}

impl Window {
    fn memo_bytes(&self) -> usize {
        self.full.memo.bytes() + self.slice.as_ref().map_or(0, |(_, s)| s.memo.bytes())
    }
}

/// A segment memo and the lowest (raw) row an append touched since the
/// memo was last advanced.
#[derive(Debug)]
struct RowMemo {
    memo: Arc<SegmentMemo>,
    touched: Option<usize>,
}

impl Default for RowMemo {
    /// A new memo has seen no row yet.
    fn default() -> Self {
        RowMemo {
            memo: Arc::default(),
            touched: Some(0),
        }
    }
}

impl RowMemo {
    /// Advances the memo to `cube` if an append touched a row since it was
    /// last advanced (on a copy while a prepared pipeline still holds it).
    /// `cube` holds the window's smoothed rows from `lo` on, so the reach
    /// of the touched row is shifted into its rows.
    fn catch_up(
        &mut self,
        cube: &ExplanationCube,
        smoothing: usize,
        lo: usize,
    ) -> Arc<SegmentMemo> {
        if let Some(row) = self.touched.take() {
            let reach = smoothed_reach(row, smoothing).saturating_sub(lo);
            SegmentMemo::advance(&mut self.memo, cube, reach);
        }
        Arc::clone(&self.memo)
    }

    fn touch(&mut self, row: usize) {
        self.touched = Some(self.touched.map_or(row, |seen| seen.min(row)));
    }
}

impl CacheEntry {
    fn new(inc: IncrementalCube, last_used: u64) -> Self {
        CacheEntry {
            inc,
            windows: HashMap::new(),
            last_used,
            cube_bytes: 0,
        }
    }

    /// Finalizes (or returns) the snapshot for `smoothing`, with its
    /// segment memo. A re-finalization after an append advances the memo,
    /// dropping what the append touched.
    fn snapshot(
        &mut self,
        smoothing: usize,
    ) -> Result<(Arc<ExplanationCube>, Arc<SegmentMemo>, bool), TsExplainError> {
        let window = self.windows.entry(smoothing).or_default();
        if let Some(cube) = &window.snapshot {
            return Ok((Arc::clone(cube), Arc::clone(&window.full.memo), true));
        }
        let cube = Arc::new(self.inc.snapshot_smoothed(smoothing)?);
        let memo = window.full.catch_up(&cube, smoothing, 0);
        window.snapshot = Some(Arc::clone(&cube));
        self.recount_bytes();
        Ok((cube, memo, false))
    }

    /// Cuts rows `lo..=hi` out of `cube`, the `smoothing` snapshot, and
    /// returns the slice with its segment memo. The window keeps one slice
    /// memo, the last-asked rows': it is advanced while the same rows are
    /// asked, and replaced when other rows are.
    fn slice(
        &mut self,
        cube: &ExplanationCube,
        smoothing: usize,
        (lo, hi): (usize, usize),
        filter_ratio: Option<f64>,
    ) -> Result<(Arc<ExplanationCube>, Arc<SegmentMemo>), CubeError> {
        let slice = Arc::new(cube.slice_time(lo, hi, filter_ratio)?);
        let window = self.windows.entry(smoothing).or_default();
        let memo = match &mut window.slice {
            Some((rows, memo)) if *rows == (lo, hi) => memo,
            other => &mut other.insert(((lo, hi), RowMemo::default())).1,
        };
        let memo = memo.catch_up(&slice, smoothing, lo);
        Ok((slice, memo))
    }

    /// Readies the entry for an append that touches rows from `row` on:
    /// drops every window's snapshot, so the append does not copy a state
    /// store a snapshot still shares, and records the row in every memo
    /// (O(1) per memo, whatever the memos hold).
    fn touch(&mut self, row: usize) {
        for window in self.windows.values_mut() {
            window.snapshot = None;
            window.full.touch(row);
            if let Some((_, slice)) = &mut window.slice {
                slice.touch(row);
            }
        }
    }

    /// Approximate bytes held, the memos read as they stand (the pipelines
    /// grow them outside the session lock).
    fn bytes(&self) -> usize {
        self.cube_bytes + self.windows.values().map(Window::memo_bytes).sum::<usize>()
    }

    /// Recomputes the cube byte estimate after a structural change
    /// (snapshot added/dropped, rows appended).
    fn recount_bytes(&mut self) {
        self.cube_bytes = self.inc.approx_bytes()
            + self
                .windows
                .values()
                .filter_map(|w| w.snapshot.as_ref())
                .map(|c| c.approx_bytes())
                .sum::<usize>();
    }
}

/// What the last full-horizon [`ExplainSession::refresh`] settled on: the
/// result's cuts and point count seed the next refresh's candidate cut
/// positions (paper §8).
#[derive(Debug)]
struct WarmStart {
    request: ExplainRequest,
    /// The row watermark ([`ExplainSession::total_rows`]) it was cut at.
    total_rows: usize,
    result: ExplainResult,
}

/// A reusable serving session over one registered relation and query (see
/// module docs). Create with [`ExplainSession::new`], query with
/// [`ExplainSession::explain`], feed live data with
/// [`ExplainSession::append_rows`].
#[derive(Debug)]
pub struct ExplainSession {
    schema: Schema,
    query: AggQuery,
    /// The relation as of construction (or the last forced rebuild).
    base: Relation,
    /// Rows appended since `base` was materialized, in arrival order, each
    /// dimension cell interned into its column: the builder of the next
    /// base.
    tail: RelationBuilder,
    cubes: HashMap<CubeCacheKey, CacheEntry>,
    /// Distinct timestamps across `base` + `tail`.
    n_points: usize,
    /// The largest timestamp seen so far.
    last_time: Option<AttrValue>,
    stats: SessionStats,
    /// Byte budget for the cube cache; the least-recently-used entries are
    /// evicted when the cache grows past it (the entry serving the current
    /// request is never evicted, so a single oversized cube still serves).
    cache_budget: usize,
    /// LRU clock. Sessions owned by a [`crate::SessionRegistry`] share one
    /// clock so recency is comparable across tenants.
    clock: Arc<AtomicU64>,
    /// The §8 refresh state. Cleared whenever the time axis is rebuilt,
    /// since its cut indices would then point at the wrong timestamps.
    warm: Option<WarmStart>,
}

/// Default cube-cache byte budget per session: 256 MiB.
pub const DEFAULT_CUBE_CACHE_BUDGET: usize = 256 * 1024 * 1024;

impl ExplainSession {
    /// Registers `relation` and `query`, validating that the query's time
    /// attribute is a dimension and its measure columns exist.
    pub fn new(relation: Relation, query: AggQuery) -> Result<Self, TsExplainError> {
        let schema = relation.schema().clone();
        if schema.dimension_index(query.time_attr()).is_err() {
            return Err(TsExplainError::InvalidRequest(
                InvalidRequest::UnknownTimeAttribute(query.time_attr().to_string()),
            ));
        }
        validate_measure(&schema, query.measure())?;
        let (n_points, last_time) = time_axis(&relation, &query);
        Ok(ExplainSession {
            tail: Relation::builder(schema.clone()),
            schema,
            query,
            base: relation,
            cubes: HashMap::new(),
            n_points,
            last_time,
            stats: SessionStats::default(),
            cache_budget: DEFAULT_CUBE_CACHE_BUDGET,
            clock: Arc::new(AtomicU64::new(0)),
            warm: None,
        })
    }

    /// Sets the cube-cache byte budget (builder style); see
    /// [`ExplainSession::set_cache_budget`].
    pub fn with_cache_budget(mut self, bytes: usize) -> Self {
        self.set_cache_budget(bytes);
        self
    }

    /// Sets the cube-cache byte budget and immediately enforces it. The
    /// cache never proactively drops the most recent entry below budget —
    /// a single cube larger than the budget stays resident until a newer
    /// entry displaces it.
    pub fn set_cache_budget(&mut self, bytes: usize) {
        self.cache_budget = bytes;
        self.enforce_budget(None);
    }

    /// The cube-cache byte budget.
    pub fn cache_budget(&self) -> usize {
        self.cache_budget
    }

    /// Approximate bytes currently held by the cube cache.
    pub fn cache_bytes(&self) -> usize {
        self.cubes.values().map(CacheEntry::bytes).sum()
    }

    /// The LRU stamp of the least-recently-used cached cube, if any — what
    /// a multi-tenant registry compares across sessions sharing a clock.
    pub fn lru_stamp(&self) -> Option<u64> {
        self.cubes.values().map(|e| e.last_used).min()
    }

    /// Evicts the least-recently-used cached cube, returning its
    /// approximate size. The evicted key keeps serving correctly: the next
    /// request for it rebuilds the cube from the session's rows.
    pub fn evict_lru_one(&mut self) -> Option<usize> {
        let key = self
            .cubes
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone())?;
        self.evict_entry(&key)
    }

    /// Removes one cache entry, returning the approximate bytes freed.
    fn evict_entry(&mut self, key: &CubeCacheKey) -> Option<usize> {
        let entry = self.cubes.remove(key)?;
        self.stats.cube_evictions += 1;
        Some(entry.bytes())
    }

    /// Replaces the LRU clock (a registry shares one clock across all its
    /// sessions so global eviction can compare recency between tenants).
    pub(crate) fn set_cache_clock(&mut self, clock: Arc<AtomicU64>) {
        self.clock = clock;
    }

    /// Evicts LRU entries until the cache fits the budget. `protect` (the
    /// entry serving the current request) is never evicted.
    fn enforce_budget(&mut self, protect: Option<&CubeCacheKey>) {
        while self.cache_bytes() > self.cache_budget {
            let victim = self
                .cubes
                .iter()
                .filter(|(k, _)| Some(*k) != protect)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(key) => {
                    self.evict_entry(&key);
                }
                None => break,
            }
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// The registered query.
    pub fn query(&self) -> &AggQuery {
        &self.query
    }

    /// The registered relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of distinct timestamps registered so far.
    pub fn n_points(&self) -> usize {
        self.n_points
    }

    /// Number of prepared cubes currently cached.
    pub fn cached_cubes(&self) -> usize {
        self.cubes.len()
    }

    /// Total raw rows the session holds (base + tail) — the row watermark
    /// the durable store sequences WAL batches and checkpoints by.
    pub fn total_rows(&self) -> usize {
        self.base.n_rows() + self.tail.n_rows()
    }

    /// Durably logs tenant `id`'s registration to `store`: the query, the
    /// schema and every row, written in place from the base relation's
    /// columns. A registration is logged before any append, so the tail is
    /// empty.
    pub(crate) fn log_register(&self, store: &DataStore, id: u64) -> Result<(), StoreError> {
        debug_assert_eq!(self.tail.n_rows(), 0, "a registration is logged first");
        store.log_register(id, &self.query, &self.base)
    }

    /// Tenant `id`'s WAL record of the rows from row `seq` on — the batch
    /// the last [`ExplainSession::append_rows`] took — written in place
    /// from the base relation's and the tail's columns.
    pub(crate) fn rows_record(&self, id: u64, seq: usize) -> Result<WalFrame, StoreError> {
        WalFrame::rows_since(id, seq, &self.base, &self.tail)
    }

    /// Tenant `id`'s checkpoint snapshot: the query, the schema and every
    /// row in ingestion order, encoded in place from the base relation's
    /// columns and the tail's, with no row copied.
    pub(crate) fn checkpoint(&self, id: u64) -> Result<TenantCheckpoint, StoreError> {
        TenantCheckpoint::encode(id, &self.query, &self.base, &self.tail)
    }

    /// Cache instrumentation.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Drops every cached cube (the next request per key rebuilds).
    pub fn invalidate(&mut self) {
        self.cubes.clear();
    }

    /// Answers one request: [`ExplainSession::prepare`], then
    /// [`PreparedCube::explain`].
    pub fn explain(&mut self, request: &ExplainRequest) -> Result<ExplainResult, TsExplainError> {
        self.prepare(request)?.explain(request)
    }

    /// Answers `request` with the paper's §8 real-time extension: the DP
    /// re-cuts the settled past only at the previous refresh's cut points,
    /// while every point that arrived since is a candidate at full
    /// resolution. While no row arrives, a refresh of the same request
    /// returns the previous result without touching the cube.
    ///
    /// The first refresh, the first after restated history rebuilt the
    /// time axis, and a refresh of a request other than the remembered
    /// one segment the whole horizon: another strategy, explain-by set or
    /// K policy would otherwise search only the remembered request's cuts.
    /// Requests are matched without their runtime-only members (threads,
    /// time budget, cancellation token), so a caller that mints a deadline
    /// per refresh still gets both shortcuts. A windowed request is
    /// answered like [`ExplainSession::explain`] and leaves the remembered
    /// cuts alone: they index the full horizon, not the window.
    pub fn refresh(&mut self, request: &ExplainRequest) -> Result<ExplainResult, TsExplainError> {
        if request.time_range().is_some() {
            return self.explain(request);
        }
        if let Some(warm) = &self.warm {
            if warm.total_rows == self.total_rows() && warm.request.asks_same_as(request) {
                return Ok(warm.result.clone());
            }
        }
        let prepared = self.prepare(request)?;
        // Read after `prepare`: a rebuild inside it clears the warm start.
        let positions = self
            .warm
            .as_ref()
            .filter(|warm| warm.request.asks_same_as(request))
            .map(|warm| {
                let settled = warm.result.stats.n_points;
                let mut positions = warm.result.segmentation.cuts().to_vec();
                positions.push(settled - 1);
                positions.extend(settled..prepared.n_points());
                positions
            });
        let result = prepared.explain_with_positions(request, positions)?;
        self.warm = Some(WarmStart {
            request: request.clone(),
            total_rows: self.total_rows(),
            result: result.clone(),
        });
        Ok(result)
    }

    /// Validates `request` against the session and returns its prepared
    /// (possibly time-sliced) cube as a lock-free handle — everything a
    /// multi-strategy fan-out needs from the session, acquired under **one**
    /// lock hold.
    ///
    /// This is the batching primitive behind the server's `/compare`: the
    /// tenant is locked once to prepare, then the four strategies run
    /// [`PreparedCube::explain`] concurrently on a worker pool, each
    /// against the same shared cube (cube cache keys are
    /// strategy-independent). Counts as one request in
    /// [`SessionStats::requests`].
    pub fn prepare(&mut self, request: &ExplainRequest) -> Result<PreparedCube, TsExplainError> {
        self.stats.requests += 1;
        request
            .validate(&self.schema, self.query.time_attr())
            .map_err(TsExplainError::InvalidRequest)?;

        let acquire_start = Instant::now();
        let (key, cube, memo, from_cache) = self.acquire_cube(request)?;
        let (cube, memo) = match request.time_range() {
            None => (cube, memo),
            Some((start, end)) => {
                let rows = slice_rows(cube.timestamps(), start, end).ok_or_else(|| {
                    TsExplainError::InvalidRequest(InvalidRequest::EmptyTimeRange {
                        start: start.to_string(),
                        end: end.to_string(),
                    })
                })?;
                self.cubes
                    .get_mut(&key)
                    .expect("the serving entry is never evicted")
                    .slice(
                        &cube,
                        request.smoothing_window().max(1),
                        rows,
                        request.optimizations().filter_ratio,
                    )?
            }
        };
        Ok(PreparedCube {
            cube,
            memo,
            from_cache,
            precompute: acquire_start.elapsed(),
        })
    }

    /// Appends raw rows (schema order). New timestamps must not precede
    /// the session's horizon — tail data extends every cached cube in
    /// `O(new rows)`; restated history forces a transparent full rebuild
    /// (all cached cubes are dropped). A batch with a malformed row is
    /// rejected whole, before any row is taken.
    pub fn append_rows(&mut self, rows: Vec<Vec<Datum>>) -> Result<(), TsExplainError> {
        if rows.is_empty() {
            return Ok(());
        }
        // Every row is checked before the first is taken: arity, a
        // dimension value in every dimension slot (not just the time
        // attribute) and a number in every measure slot (not just those
        // the query reads), so the next rebuild keeps every accepted row.
        let first = self.tail.n_rows();
        self.tail.extend_rows(rows)?;
        self.stats.rows_appended += (self.tail.n_rows() - first) as u64;

        if !self.is_tail_ordered(first) {
            // Restated or out-of-order history: rebuild from scratch.
            self.stats.rebuilds += 1;
            self.rebuild_base();
            return Ok(());
        }
        // Fast path: extend every cached cube at its tail.
        let encodings: Vec<(CubeCacheKey, Vec<AppendRow>)> = self
            .cubes
            .iter()
            .map(|(key, entry)| {
                let encoded = self.encode_tail(&entry.inc.config().explain_by, first);
                (key.clone(), encoded)
            })
            .collect();
        let first_touched = self.first_touched_row(first);
        for (key, encoded) in encodings {
            let entry = self.cubes.get_mut(&key).expect("key taken from the map");
            entry.touch(first_touched);
            if entry.inc.append_batch(&encoded).is_err() {
                // The session's ordering check and the cube's should
                // agree; if they ever diverge, fall back to a rebuild
                // (which drops every entry, including any already
                // extended) rather than panicking mid-append.
                self.stats.rebuilds += 1;
                self.rebuild_base();
                return Ok(());
            }
            entry.recount_bytes();
        }
        let (n_points, newest) = self.extended_time_axis(first);
        (self.n_points, self.last_time) = (n_points, newest.cloned());
        self.enforce_budget(None);
        Ok(())
    }

    /// Rewinds the session to its first `n_rows` ingested rows — the
    /// registry's undo for a batch whose WAL append failed after the
    /// session had already applied it. In-memory state and the durable log
    /// must not diverge: a batch the client was *not* acked for cannot
    /// stay resident, or every later acked batch would be logged with a
    /// `seq` that replay sees as a gap and skips. Drops every cached cube
    /// and the §8 warm start; the next request per key rebuilds.
    pub(crate) fn rollback_rows_to(&mut self, n_rows: usize) {
        let removed = self.total_rows().saturating_sub(n_rows) as u64;
        self.stats.rows_appended = self.stats.rows_appended.saturating_sub(removed);
        self.reset_rows(n_rows.min(self.total_rows()));
    }

    /// The tail's dimension column `name`: per-row codes and the distinct
    /// values they index.
    fn tail_dimension(&self, name: &str) -> (&[u32], &[AttrValue]) {
        let idx = self.schema.dimension_index(name).expect(
            "the time attribute and a cube's attributes are dimensions, \
             checked at registration and with the cube's request",
        );
        match self.tail.view(idx) {
            ColumnView::Dimension { codes, values } => (codes, values),
            ColumnView::Measure(_) => unreachable!("a dimension's index"),
        }
    }

    /// The tail's timestamps from row `first` on, in ingestion order, a run
    /// of rows on one timestamp read once: each row's code is compared
    /// with the previous row's, and the value is neither hashed nor cloned.
    fn tail_times(&self, first: usize) -> impl Iterator<Item = &AttrValue> {
        let (codes, values) = self.tail_dimension(self.query.time_attr());
        let mut previous = None;
        codes[first..]
            .iter()
            .filter(move |&&code| previous.replace(code) != Some(code))
            .map(move |&code| &values[code as usize])
    }

    /// Whether the tail's rows from `first` on only touch the session's
    /// tail: every timestamp at or after the horizon, and
    /// previously-unseen timestamps arriving in non-decreasing order (the
    /// contract of incremental cube appends).
    fn is_tail_ordered(&self, first: usize) -> bool {
        let horizon = self.last_time.as_ref();
        let mut newest = horizon;
        for time in self.tail_times(first) {
            if horizon.is_some_and(|h| time < h) {
                return false;
            }
            // `time` is new iff it exceeds the horizon; new timestamps
            // must not interleave backwards.
            if newest.is_some_and(|n| time < n) && horizon.is_none_or(|h| time > h) {
                return false;
            }
            if newest.is_none_or(|n| time > n) {
                newest = Some(time);
            }
        }
        true
    }

    /// The lowest row (point index) the tail-ordered tail rows from
    /// `first` on touch: the horizon point if a row reports on it, else
    /// the first new point.
    fn first_touched_row(&self, first: usize) -> usize {
        let on_horizon = |time: &AttrValue| self.last_time.as_ref() == Some(time);
        if self.tail_times(first).any(on_horizon) {
            self.n_points - 1
        } else {
            self.n_points
        }
    }

    /// The point count and the newest timestamp once the tail-ordered tail
    /// rows from `first` on are counted in.
    fn extended_time_axis(&self, first: usize) -> (usize, Option<&AttrValue>) {
        let mut n_points = self.n_points;
        let mut newest = self.last_time.as_ref();
        for time in self.tail_times(first) {
            if newest.is_none_or(|n| time > n) {
                n_points += 1;
                newest = Some(time);
            }
        }
        (n_points, newest)
    }

    /// Re-materializes `base` from all rows seen so far (see
    /// [`ExplainSession::reset_rows`]).
    fn rebuild_base(&mut self) {
        self.reset_rows(self.total_rows());
    }

    /// Makes the first `n_rows` rows (`base`'s, then the tail's) the
    /// session's base with an empty tail and drops every cached cube and
    /// the §8 warm start, whose rows and cut points belong to the old time
    /// axis. The only path that pays the full O(total rows) cost.
    fn reset_rows(&mut self, n_rows: usize) {
        let from_base = n_rows.min(self.base.n_rows());
        let mut builder = Relation::builder(self.schema.clone());
        builder.extend_from(&self.base, 0..from_base);
        builder.extend_from(&self.tail, 0..n_rows - from_base);
        self.base = builder.finish();
        self.tail = Relation::builder(self.schema.clone());
        self.cubes.clear();
        self.warm = None;
        (self.n_points, self.last_time) = time_axis(&self.base, &self.query);
    }

    /// The tail's rows from `first` on as `(time, explain-by values,
    /// measure)` triples for one cube configuration, in ingestion order.
    fn encode_tail(&self, explain_by: &[String], first: usize) -> Vec<AppendRow> {
        let time = self.tail_dimension(self.query.time_attr());
        let attrs: Vec<_> = explain_by.iter().map(|a| self.tail_dimension(a)).collect();
        let measures = self
            .query
            .measure()
            .eval_rows(&self.tail, first..self.tail.n_rows())
            .expect("the measure's columns are measures, checked at registration");
        let value = |(codes, values): (&[u32], &[AttrValue]), row: usize| {
            values[codes[row] as usize].clone()
        };
        (first..)
            .zip(measures)
            .map(|(row, measure)| {
                let attrs = attrs.iter().map(|&a| value(a, row)).collect();
                (value(time, row), attrs, measure)
            })
            .collect()
    }

    /// Returns the cache key of `request`'s cube, the cube over the full
    /// horizon and its segment memo, building (and caching) the cube on a
    /// miss. The `bool` is true when the request was answered from an
    /// up-to-date cached snapshot.
    fn acquire_cube(
        &mut self,
        request: &ExplainRequest,
    ) -> Result<(CubeCacheKey, Arc<ExplanationCube>, Arc<SegmentMemo>, bool), TsExplainError> {
        let mut cube_config = CubeConfig::new(request.explain_by().iter().cloned())
            .with_max_order(request.max_order());
        cube_config.filter_ratio = request.optimizations().filter_ratio;
        let key = cube_config.cache_key();
        let smoothing = request.smoothing_window().max(1);
        let stamp = self.tick();

        if let Some(entry) = self.cubes.get_mut(&key) {
            entry.last_used = stamp;
            let (cube, memo, was_ready) = entry.snapshot(smoothing)?;
            if was_ready {
                self.stats.cube_cache_hits += 1;
            } else {
                self.stats.cube_refreshes += 1;
            }
            self.enforce_budget(Some(&key));
            return Ok((key, cube, memo, was_ready));
        }

        // Cache miss: a cold build. An empty base with pending tail rows
        // (streaming cold start) is materialized first so the seed scan is
        // columnar.
        if self.base.is_empty() {
            if self.tail.n_rows() == 0 {
                return Err(TsExplainError::Cube(CubeError::EmptyInput));
            }
            self.rebuild_base();
            // A rebuild drops cached cubes, but on this path the cache was
            // already missing this key; other keys are rebuilt on demand.
        }
        let par = request.parallel_ctx();
        let mut inc =
            IncrementalCube::from_relation_with(&self.base, &self.query, &cube_config, &par)?;
        if self.tail.n_rows() > 0 {
            let encoded = self.encode_tail(request.explain_by(), 0);
            if let Err(e) = inc.append_batch(&encoded) {
                match e {
                    CubeError::RestatedTimestamp(_) => {
                        // Tail rows predate the base horizon (possible
                        // after out-of-order appends): fold them in.
                        self.stats.rebuilds += 1;
                        self.rebuild_base();
                        inc = IncrementalCube::from_relation_with(
                            &self.base,
                            &self.query,
                            &cube_config,
                            &par,
                        )?;
                    }
                    other => return Err(other.into()),
                }
            }
        }
        self.stats.cubes_built += 1;
        let mut entry = CacheEntry::new(inc, stamp);
        let (cube, memo, _) = entry.snapshot(smoothing)?;
        self.cubes.insert(key.clone(), entry);
        self.enforce_budget(Some(&key));
        Ok((key, cube, memo, false))
    }
}

/// The time axis of `relation` under `query`: how many distinct
/// timestamps it has, and the last one.
fn time_axis(relation: &Relation, query: &AggQuery) -> (usize, Option<AttrValue>) {
    let dict = relation
        .dim_column(query.time_attr())
        .expect("the time attribute is a dimension, checked at registration")
        .dict();
    (dict.len(), dict.values().last().cloned())
}

/// Resolves the time range `start..=end` against a cube's `timestamps`:
/// the rows `(lo, hi)` it spans, a valid slice, or `None` when it spans
/// fewer than two.
fn slice_rows(
    timestamps: &[AttrValue],
    start: &AttrValue,
    end: &AttrValue,
) -> Option<(usize, usize)> {
    if start > end {
        return None;
    }
    let lo = timestamps.partition_point(|t| t < start);
    let hi = timestamps.partition_point(|t| t <= end);
    (hi > lo + 1).then(|| (lo, hi - 1))
}

/// A request's prepared cube, detached from its session (see
/// [`ExplainSession::prepare`]): the shared snapshot, its segment memo and
/// the precompute metadata every answer derived from it reports.
///
/// `Send + Sync` by construction (the cube is immutable behind an `Arc`,
/// the memo is behind its own leaf lock), so a fan-out can hand one
/// `PreparedCube` to many worker threads without touching the session
/// again — no per-strategy re-locking, no session lock held across
/// pipeline work. The strategies of a fan-out share the memo, so what one
/// prices the others read.
///
/// For a time-range request the cube is the slice and the memo is the
/// cache entry's memo for the slice's rows, so an identical windowed
/// follow-up re-derives almost nothing too.
///
/// The handle holds the memo of the rows it was prepared over. If rows
/// arrive and a later request advances the cache entry's memo while this
/// handle is alive, the advance works on a copy
/// ([`SegmentMemo::advance`]): this handle's pipeline keeps its warm
/// entries, answers over the rows it saw and never reads or writes an
/// entry of newer rows.
#[derive(Clone, Debug)]
pub struct PreparedCube {
    cube: Arc<ExplanationCube>,
    /// The segment memo of the cube (the full horizon's or the slice's).
    memo: Arc<SegmentMemo>,
    from_cache: bool,
    precompute: Duration,
}

impl PreparedCube {
    /// Number of points of the (possibly time-sliced) series the cube
    /// answers over — what window auto-sizing must fit.
    pub fn n_points(&self) -> usize {
        self.cube.n_points()
    }

    /// Whether the cube came from an up-to-date cached snapshot.
    pub fn from_cache(&self) -> bool {
        self.from_cache
    }

    /// The prepared cube itself.
    pub fn cube(&self) -> &ExplanationCube {
        &self.cube
    }

    /// Answers `request` against the prepared cube. The request must ask
    /// the same cube-shaping knobs the cube was prepared with (explain-by,
    /// max order, filter, smoothing, time range) — a fan-out varies only
    /// per-strategy knobs on a shared base request. Thread-safe: `&self`.
    pub fn explain(&self, request: &ExplainRequest) -> Result<ExplainResult, TsExplainError> {
        self.explain_with_positions(request, None)
    }

    /// [`PreparedCube::explain`] with the DP's candidate cut positions
    /// restricted (the hook of [`ExplainSession::refresh`]). Positions
    /// index into the prepared series.
    pub(crate) fn explain_with_positions(
        &self,
        request: &ExplainRequest,
        positions: Option<Vec<usize>>,
    ) -> Result<ExplainResult, TsExplainError> {
        let mut result = explain_cube_request(&self.cube, request, positions, self.memo.clone())?;
        result.latency.precompute = self.precompute;
        result.stats.cube_from_cache = self.from_cache;
        Ok(result)
    }
}

/// Validates that every column a measure expression references exists and
/// is a measure.
fn validate_measure(
    schema: &Schema,
    measure: &tsexplain_relation::MeasureExpr,
) -> Result<(), TsExplainError> {
    use tsexplain_relation::MeasureExpr;
    let check = |name: &String| {
        schema.measure_index(name).map(|_| ()).map_err(|_| {
            TsExplainError::InvalidRequest(InvalidRequest::UnknownMeasure(name.clone()))
        })
    };
    match measure {
        MeasureExpr::Column(name) => check(name),
        MeasureExpr::Product(a, b) => {
            check(a)?;
            check(b)
        }
        MeasureExpr::Scaled(inner, _) => validate_measure(schema, inner),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Optimizations;
    use crate::segmenter::SegmenterSpec;
    use tsexplain_diff::DiffMetric;
    use tsexplain_relation::Field;
    use tsexplain_relation::RelationError;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::dimension("t"),
            Field::dimension("state"),
            Field::measure("v"),
        ])
        .unwrap()
    }

    fn rows_for(range: std::ops::Range<i64>) -> Vec<Vec<Datum>> {
        let mut rows = Vec::new();
        for t in range {
            let ny = if t <= 10 { 8.0 * t as f64 } else { 80.0 };
            let ca = if t <= 10 {
                2.0
            } else if t <= 20 {
                2.0 + 9.0 * (t - 10) as f64
            } else {
                92.0
            };
            rows.push(vec![Datum::Attr(t.into()), "NY".into(), ny.into()]);
            rows.push(vec![Datum::Attr(t.into()), "CA".into(), ca.into()]);
        }
        rows
    }

    fn relation(range: std::ops::Range<i64>) -> Relation {
        let mut b = Relation::builder(schema());
        for row in rows_for(range) {
            b.push_row(row).unwrap();
        }
        b.finish()
    }

    fn session() -> ExplainSession {
        ExplainSession::new(relation(0..21), AggQuery::sum("t", "v")).unwrap()
    }

    fn base_request() -> ExplainRequest {
        ExplainRequest::new(["state"]).with_optimizations(Optimizations::none())
    }

    #[test]
    fn serves_many_requests_from_one_cube() {
        let mut s = session();
        let r1 = s.explain(&base_request()).unwrap();
        let r2 = s.explain(&base_request().with_fixed_k(3)).unwrap();
        let r3 = s
            .explain(
                &base_request()
                    .with_top_m(1)
                    .with_diff_metric(DiffMetric::RelativeChange),
            )
            .unwrap();
        assert_eq!(s.stats().cubes_built, 1, "one cube for all three requests");
        assert_eq!(s.stats().cube_cache_hits, 2);
        assert!(!r1.stats.cube_from_cache);
        assert!(r2.stats.cube_from_cache && r3.stats.cube_from_cache);
        assert_eq!(r2.chosen_k, 3);
        assert!(r3.segments.iter().all(|seg| seg.explanations.len() <= 1));
    }

    #[test]
    fn all_strategies_share_one_cached_cube() {
        use crate::segmenter::SegmenterSpec;
        let mut s = session();
        for spec in SegmenterSpec::all_for(21) {
            let result = s.explain(&base_request().with_segmenter(spec)).unwrap();
            assert_eq!(result.strategy, spec.name());
        }
        assert_eq!(
            s.stats().cubes_built,
            1,
            "cube cache keys must be strategy-independent"
        );
        assert_eq!(s.stats().cube_cache_hits, 3);
    }

    #[test]
    fn differing_cube_knobs_build_separate_cubes() {
        let mut s = session();
        s.explain(&base_request()).unwrap();
        s.explain(&base_request().with_max_order(1)).unwrap();
        assert_eq!(s.stats().cubes_built, 2);
        assert_eq!(s.cached_cubes(), 2);
        // A different smoothing window reuses the incremental state — only
        // the finalized snapshot is re-derived.
        s.explain(&base_request().with_smoothing(3)).unwrap();
        assert_eq!(s.stats().cubes_built, 2);
        assert_eq!(s.cached_cubes(), 2);
        assert_eq!(s.stats().cube_refreshes, 1);
        // Asking for that smoothing again is a plain cache hit.
        s.explain(&base_request().with_smoothing(3)).unwrap();
        assert_eq!(s.stats().cube_cache_hits, 1);
    }

    #[test]
    fn cached_results_are_bit_identical_to_cold_runs() {
        let mut warm = session();
        let first = warm.explain(&base_request()).unwrap();
        let cached = warm.explain(&base_request()).unwrap();
        let mut cold = session();
        let fresh = cold.explain(&base_request()).unwrap();
        for result in [&cached, &fresh] {
            assert_eq!(result.segmentation, first.segmentation);
            assert_eq!(result.chosen_k, first.chosen_k);
            assert_eq!(result.total_variance, first.total_variance);
            assert_eq!(result.aggregate, first.aggregate);
            assert_eq!(result.k_variance_curve, first.k_variance_curve);
        }
        assert!(cached.stats.cube_from_cache);
        assert!(cached.latency.precompute <= fresh.latency.precompute);
    }

    #[test]
    fn time_range_restricts_the_horizon() {
        let mut s = session();
        let full = s.explain(&base_request()).unwrap();
        let windowed = s
            .explain(&base_request().with_time_range(5i64, 15i64))
            .unwrap();
        assert_eq!(windowed.stats.n_points, 11);
        assert_eq!(windowed.timestamps[0], AttrValue::from(5));
        assert!(windowed.stats.n_points < full.stats.n_points);
        // The window reused the cached full cube.
        assert_eq!(s.stats().cubes_built, 1);
    }

    #[test]
    fn empty_time_ranges_are_rejected() {
        let mut s = session();
        for (a, b) in [(15i64, 5i64), (100, 200), (7, 7)] {
            let err = s
                .explain(&base_request().with_time_range(a, b))
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    TsExplainError::InvalidRequest(InvalidRequest::EmptyTimeRange { .. })
                ),
                "({a}, {b}) gave {err:?}"
            );
        }
    }

    #[test]
    fn invalid_requests_never_build_cubes() {
        let mut s = session();
        assert!(s.explain(&ExplainRequest::new(["nope"])).is_err());
        assert!(s
            .explain(&ExplainRequest::new(Vec::<String>::new()))
            .is_err());
        assert!(s.explain(&base_request().with_fixed_k(0)).is_err());
        assert_eq!(s.stats().cubes_built, 0);
        assert_eq!(s.cached_cubes(), 0);
        // Infeasible K against the known horizon is caught with the cube
        // built but before any pipeline work.
        let err = s.explain(&base_request().with_fixed_k(21)).unwrap_err();
        assert!(matches!(
            err,
            TsExplainError::InvalidRequest(InvalidRequest::InfeasibleK { k: 21, n: 21 })
        ));
    }

    #[test]
    fn session_registration_validates_query() {
        let rel = relation(0..5);
        let err = ExplainSession::new(rel.clone(), AggQuery::sum("nope", "v")).unwrap_err();
        assert!(matches!(
            err,
            TsExplainError::InvalidRequest(InvalidRequest::UnknownTimeAttribute(_))
        ));
        let err = ExplainSession::new(rel.clone(), AggQuery::sum("t", "nope")).unwrap_err();
        assert!(matches!(
            err,
            TsExplainError::InvalidRequest(InvalidRequest::UnknownMeasure(_))
        ));
        // The time attribute must be a dimension, not a measure.
        let err = ExplainSession::new(rel, AggQuery::sum("v", "v")).unwrap_err();
        assert!(matches!(
            err,
            TsExplainError::InvalidRequest(InvalidRequest::UnknownTimeAttribute(_))
        ));
    }

    #[test]
    fn rollback_restores_the_exact_pre_batch_state() {
        let mut s = ExplainSession::new(relation(0..12), AggQuery::sum("t", "v")).unwrap();
        let expected = s.explain(&base_request()).unwrap();
        let watermark = s.total_rows();
        s.append_rows(rows_for(12..21)).unwrap();
        // The registry's WAL-failure undo: the batch must vanish entirely.
        s.rollback_rows_to(watermark);
        assert_eq!(s.total_rows(), watermark);
        assert_eq!(s.n_points(), 12);
        assert_eq!(s.stats().rows_appended, 0);
        let after = s.explain(&base_request()).unwrap();
        assert_eq!(after.segmentation, expected.segmentation);
        assert_eq!(after.aggregate, expected.aggregate);
        assert_eq!(after.total_variance, expected.total_variance);
        // The session keeps serving appends after a rollback.
        s.append_rows(rows_for(12..21)).unwrap();
        assert_eq!(s.explain(&base_request()).unwrap().stats.n_points, 21);
    }

    #[test]
    fn appends_extend_cached_cubes_incrementally() {
        let mut s = ExplainSession::new(relation(0..12), AggQuery::sum("t", "v")).unwrap();
        let first = s.explain(&base_request()).unwrap();
        assert_eq!(first.stats.n_points, 12);
        s.append_rows(rows_for(12..21)).unwrap();
        assert_eq!(s.n_points(), 21);
        let second = s.explain(&base_request()).unwrap();
        assert_eq!(second.stats.n_points, 21);
        // The cube was refreshed from incremental state, not rebuilt.
        assert_eq!(s.stats().cubes_built, 1);
        assert_eq!(s.stats().cube_refreshes, 1);
        assert_eq!(s.stats().rebuilds, 0);
        // Replayed result matches a cold session over all the data.
        let mut cold = session();
        let batch = cold.explain(&base_request()).unwrap();
        assert_eq!(second.segmentation, batch.segmentation);
        assert_eq!(second.aggregate, batch.aggregate);
    }

    #[test]
    fn restated_history_falls_back_to_rebuild() {
        let mut s = ExplainSession::new(relation(5..12), AggQuery::sum("t", "v")).unwrap();
        s.explain(&base_request()).unwrap();
        // Rows before the horizon: a restatement.
        s.append_rows(rows_for(0..5)).unwrap();
        assert_eq!(s.stats().rebuilds, 1);
        assert_eq!(s.cached_cubes(), 0, "rebuild drops cached cubes");
        assert_eq!(s.n_points(), 12);
        let result = s.explain(&base_request()).unwrap();
        assert_eq!(result.stats.n_points, 12);
        // Result equals a cold session over the union.
        let mut cold = ExplainSession::new(relation(0..12), AggQuery::sum("t", "v")).unwrap();
        let batch = cold.explain(&base_request()).unwrap();
        assert_eq!(result.segmentation, batch.segmentation);
        assert_eq!(result.aggregate, batch.aggregate);
    }

    #[test]
    fn streaming_cold_start_from_empty_relation() {
        let empty = Relation::builder(schema()).finish();
        let mut s = ExplainSession::new(empty, AggQuery::sum("t", "v")).unwrap();
        assert!(matches!(
            s.explain(&base_request()),
            Err(TsExplainError::Cube(CubeError::EmptyInput))
        ));
        s.append_rows(rows_for(0..8)).unwrap();
        let result = s.explain(&base_request()).unwrap();
        assert_eq!(result.stats.n_points, 8);
    }

    #[test]
    fn malformed_rows_are_rejected_before_ingestion() {
        let mut s = session();
        let before = s.n_points();
        // Wrong arity.
        assert!(s
            .append_rows(vec![vec![Datum::Attr(99i64.into())]])
            .is_err());
        // Numeric datum in the time slot.
        assert!(s
            .append_rows(vec![vec![Datum::Num(1.0), "NY".into(), 1.0.into()]])
            .is_err());
        // String where the measure belongs.
        assert!(s
            .append_rows(vec![vec![
                Datum::Attr(99i64.into()),
                "NY".into(),
                "x".into()
            ]])
            .is_err());
        assert_eq!(s.n_points(), before, "rejected rows must not be ingested");
    }

    #[test]
    fn invalidate_forces_rebuild() {
        let mut s = session();
        s.explain(&base_request()).unwrap();
        s.invalidate();
        assert_eq!(s.cached_cubes(), 0);
        s.explain(&base_request()).unwrap();
        assert_eq!(s.stats().cubes_built, 2);
    }

    #[test]
    fn tight_budget_evicts_lru_cube_and_rebuilds_on_demand() {
        let mut s = session();
        let full = s.explain(&base_request()).unwrap(); // cube A
        let a_bytes = s.cache_bytes();
        assert!(a_bytes > 0);
        // Budget admits exactly one cube: building B must evict A (the
        // LRU entry), never B itself (it serves the current request).
        s.set_cache_budget(a_bytes);
        s.explain(&base_request().with_max_order(1)).unwrap(); // cube B
        assert_eq!(s.cached_cubes(), 1);
        assert_eq!(s.stats().cube_evictions, 1);
        // The evicted key keeps serving correctly: a rebuild, not an error.
        let again = s.explain(&base_request()).unwrap();
        assert_eq!(s.stats().cubes_built, 3);
        assert_eq!(again.segmentation, full.segmentation);
        assert_eq!(again.aggregate, full.aggregate);
        assert_eq!(s.stats().cube_evictions, 2, "B was LRU this time");
    }

    #[test]
    fn eviction_follows_recency_not_insertion_order() {
        let mut s = session();
        s.explain(&base_request()).unwrap(); // A
        s.explain(&base_request().with_max_order(1)).unwrap(); // B
        s.explain(&base_request()).unwrap(); // touch A → B is now LRU
        assert_eq!(s.stats().cube_cache_hits, 1);
        let bytes = s.cache_bytes();
        s.set_cache_budget(bytes - 1); // exactly one entry must go
        assert_eq!(s.cached_cubes(), 1);
        assert_eq!(s.stats().cube_evictions, 1);
        // A survived (recently touched): asking for it again is a hit.
        s.explain(&base_request()).unwrap();
        assert_eq!(s.stats().cube_cache_hits, 2);
        assert_eq!(s.stats().cubes_built, 2, "A was never rebuilt");
    }

    #[test]
    fn zero_budget_caches_at_most_the_serving_cube() {
        let mut s = session().with_cache_budget(0);
        let r1 = s.explain(&base_request()).unwrap();
        // The cube serving the current request is never evicted, so the
        // same key still hits…
        let r2 = s.explain(&base_request()).unwrap();
        assert_eq!(s.cached_cubes(), 1);
        // …but any other key displaces it immediately.
        s.explain(&base_request().with_max_order(1)).unwrap();
        assert_eq!(s.cached_cubes(), 1);
        assert_eq!(s.stats().cube_evictions, 1);
        s.explain(&base_request()).unwrap();
        assert_eq!(s.stats().cubes_built, 3);
        assert_eq!(s.stats().cube_evictions, 2);
        assert_eq!(r1.segmentation, r2.segmentation);
        assert_eq!(r1.aggregate, r2.aggregate);
    }

    #[test]
    fn cache_bytes_track_appends() {
        let mut s = ExplainSession::new(relation(0..12), AggQuery::sum("t", "v")).unwrap();
        s.explain(&base_request()).unwrap();
        let before = s.cache_bytes();
        s.append_rows(rows_for(12..21)).unwrap();
        s.explain(&base_request()).unwrap();
        assert!(
            s.cache_bytes() > before,
            "appended rows must grow the estimate"
        );
    }

    /// The cached entry of a session that caches exactly one cube.
    fn only_entry(s: &ExplainSession) -> &CacheEntry {
        assert_eq!(s.cubes.len(), 1);
        s.cubes.values().next().unwrap()
    }

    #[test]
    fn appends_mutate_the_cached_store_in_place() {
        let mut s = ExplainSession::new(relation(0..12), AggQuery::sum("t", "v")).unwrap();
        s.explain(&base_request()).unwrap();
        // The cached snapshot shares the incremental cube's store.
        let before = only_entry(&s).inc.store_addr();
        s.append_rows(rows_for(12..21)).unwrap();
        assert_eq!(
            only_entry(&s).inc.store_addr(),
            before,
            "the append copied the store"
        );
    }

    #[test]
    fn a_prepared_cube_keeps_answering_over_the_rows_it_saw() {
        let answer = |r: &ExplainResult| {
            (
                r.segmentation.clone(),
                r.aggregate.clone(),
                r.chosen_k,
                r.total_variance.to_bits(),
                format!("{:?}", r.segments),
            )
        };
        let mut s = ExplainSession::new(relation(0..12), AggQuery::sum("t", "v")).unwrap();
        let prepared = s.prepare(&base_request()).unwrap();
        s.append_rows(rows_for(12..21)).unwrap();
        let held = prepared.explain(&base_request()).unwrap();
        let mut before = ExplainSession::new(relation(0..12), AggQuery::sum("t", "v")).unwrap();
        assert_eq!(
            answer(&held),
            answer(&before.explain(&base_request()).unwrap())
        );
        // The session itself answers over every row.
        let now = s.explain(&base_request()).unwrap();
        assert_eq!(now.stats.n_points, 21);
        assert_eq!(held.stats.n_points, 12);
    }

    #[test]
    fn cache_bytes_count_a_shared_store_once() {
        let mut s = session();
        s.explain(&base_request()).unwrap();
        s.explain(&base_request().with_smoothing(7)).unwrap();
        let entry = only_entry(&s);
        let snapshot = |w: usize| entry.windows[&w].snapshot.as_ref().unwrap();
        let (inc, plain, smoothed) = (&entry.inc, snapshot(1), snapshot(7));
        // A cube built on its own owns its store and counts it; the
        // smoothed snapshot owns a store of the same shape.
        let config = CubeConfig::new(["state"]).with_max_order(base_request().max_order());
        let owned =
            ExplanationCube::build(&relation(0..21), &AggQuery::sum("t", "v"), &config).unwrap();
        assert_eq!(smoothed.approx_bytes(), owned.approx_bytes());
        // The window-1 snapshot shares the incremental cube's store, which
        // the incremental cube counts and the snapshot leaves out.
        let store = owned.approx_bytes() - plain.approx_bytes();
        assert!(store >= 3 * 8 * 21 * owned.n_candidates(), "{store} bytes");
        assert!(inc.approx_bytes() > store);
        // Each window's segment memo counts beside its snapshot.
        let memos = entry.windows[&1].memo_bytes() + entry.windows[&7].memo_bytes();
        assert!(memos > 0);
        assert_eq!(
            s.cache_bytes(),
            inc.approx_bytes() + plain.approx_bytes() + smoothed.approx_bytes() + memos
        );
    }

    // The §8 refresh (`ExplainSession::refresh`).

    fn session_over(range: std::ops::Range<i64>) -> ExplainSession {
        ExplainSession::new(relation(range), AggQuery::sum("t", "v")).unwrap()
    }

    /// A session over no rows yet: a stream that starts cold.
    fn empty_session() -> ExplainSession {
        ExplainSession::new(
            Relation::builder(schema()).finish(),
            AggQuery::sum("t", "v"),
        )
        .unwrap()
    }

    #[test]
    fn incremental_matches_batch_on_replay() {
        let full = session().refresh(&base_request()).unwrap();
        // The same rows streamed in two chunks.
        let mut s = empty_session();
        s.append_rows(rows_for(0..12)).unwrap();
        let first = s.refresh(&base_request()).unwrap();
        assert_eq!(first.stats.n_points, 12);
        s.append_rows(rows_for(12..21)).unwrap();
        let second = s.refresh(&base_request()).unwrap();
        assert_eq!(second.stats.n_points, 21);
        assert_eq!(
            second.segmentation.cuts(),
            full.segmentation.cuts(),
            "replayed stream should find the same cuts"
        );
    }

    #[test]
    fn refresh_restricts_candidates_after_first_run() {
        let mut s = empty_session();
        s.append_rows(rows_for(0..15)).unwrap();
        let first = s.refresh(&base_request()).unwrap();
        assert_eq!(first.stats.candidate_positions, 15);
        s.append_rows(rows_for(15..20)).unwrap();
        let second = s.refresh(&base_request()).unwrap();
        // Candidates: endpoints + previous cuts + the 5 new points.
        assert!(
            second.stats.candidate_positions < 20,
            "got {}",
            second.stats.candidate_positions
        );
        // `explain` never restricts them.
        let explained = s.explain(&base_request()).unwrap();
        assert_eq!(explained.stats.candidate_positions, 20);
    }

    #[test]
    fn refreshes_reuse_the_session_cube() {
        let mut s = empty_session();
        s.append_rows(rows_for(0..12)).unwrap();
        s.refresh(&base_request()).unwrap();
        s.append_rows(rows_for(12..16)).unwrap();
        s.refresh(&base_request()).unwrap();
        s.append_rows(rows_for(16..21)).unwrap();
        s.refresh(&base_request()).unwrap();
        let stats = s.stats();
        assert_eq!(stats.cubes_built, 1, "one cube across all refreshes");
        assert_eq!(stats.cube_refreshes, 2, "tail appends refresh, not rebuild");
        assert_eq!(stats.rebuilds, 0);
    }

    #[test]
    fn quiet_refresh_returns_cached_result() {
        let mut s = empty_session();
        s.append_rows(rows_for(0..10)).unwrap();
        let first = s.refresh(&base_request()).unwrap();
        let again = s.refresh(&base_request()).unwrap();
        assert_eq!(first.segmentation, again.segmentation);
        // One real request; the second refresh never touched the cube.
        assert_eq!(s.stats().requests, 1);
    }

    #[test]
    fn a_late_row_on_the_newest_timestamp_is_not_served_stale() {
        let mut s = session_over(0..12);
        let first = s.refresh(&base_request()).unwrap();
        assert_eq!(first.aggregate[11], 91.0);
        // A late report for the last day moves the row watermark but not
        // the point count.
        s.append_rows(vec![vec![
            Datum::Attr(11i64.into()),
            "CA".into(),
            500.0.into(),
        ]])
        .unwrap();
        assert_eq!(s.n_points(), 12);
        let refreshed = s.refresh(&base_request()).unwrap();
        assert_eq!(refreshed.aggregate[11], 591.0);
        assert_eq!(
            refreshed.aggregate,
            s.explain(&base_request()).unwrap().aggregate
        );
        assert_eq!(s.stats().requests, 3);
    }

    #[test]
    fn refresh_over_seeded_history() {
        let mut s = session_over(0..12);
        let first = s.refresh(&base_request()).unwrap();
        assert_eq!(first.stats.n_points, 12);
        s.append_rows(rows_for(12..18)).unwrap();
        assert_eq!(s.refresh(&base_request()).unwrap().stats.n_points, 18);
    }

    #[test]
    fn restated_history_unfreezes_cut_points() {
        // Seed with the *late* phases only, settle cuts, then backfill the
        // early history: the cached cut indices would point at the wrong
        // timestamps on the shifted axis, so the next refresh must run at
        // full resolution.
        let mut s = session_over(14..21);
        let first = s.refresh(&base_request()).unwrap();
        assert_eq!(first.stats.n_points, 7);
        s.append_rows(rows_for(0..14)).unwrap();
        assert_eq!(s.stats().rebuilds, 1);
        let full = s.refresh(&base_request()).unwrap();
        assert_eq!(full.stats.n_points, 21);
        assert_eq!(
            full.stats.candidate_positions, 21,
            "backfilled points must be cut candidates again"
        );
        // The result matches a cold batch run over the union.
        let cold = session().refresh(&base_request()).unwrap();
        assert_eq!(full.segmentation.cuts(), cold.segmentation.cuts());
    }

    #[test]
    fn windowed_requests_bypass_the_cut_cache() {
        let mut s = session();
        // Fixed K, because the elbow is undefined over the few candidate
        // positions of the restricted refresh below.
        let request = base_request().with_fixed_k(2);
        let full = s.refresh(&request).unwrap();
        // A windowed request is served ad hoc at full resolution within
        // the window…
        let windowed = s
            .refresh(&base_request().with_time_range(11i64, 20i64).with_fixed_k(1))
            .unwrap();
        assert_eq!(windowed.stats.n_points, 10);
        assert_eq!(windowed.stats.candidate_positions, 10);
        assert_eq!(windowed.segments[0].explanations[0].label, "state=CA");
        // …without corrupting the incremental cut state: after one late
        // row, the next refresh of the first request is restricted to the
        // previously settled cuts and still finds them.
        s.append_rows(vec![vec![
            Datum::Attr(20i64.into()),
            "NY".into(),
            1.0.into(),
        ]])
        .unwrap();
        let again = s.refresh(&request).unwrap();
        assert_eq!(again.stats.n_points, 21);
        assert!(
            again.stats.candidate_positions < 21,
            "got {}",
            again.stats.candidate_positions
        );
        assert_eq!(again.segmentation.cuts(), full.segmentation.cuts());
    }

    /// A refresh of another request than the remembered one searches the
    /// whole horizon: the remembered cuts belong to another segmentation.
    #[test]
    fn a_switched_request_is_not_cut_at_the_previous_request_s_cuts() {
        let data = tsexplain_datagen::synthetic::SyntheticDataset::generate(
            tsexplain_datagen::synthetic::SyntheticConfig {
                n_points: 60,
                seed: 7,
                ..Default::default()
            },
        );
        let mut s = ExplainSession::new(data.to_relation(), data.query()).unwrap();
        let dp = ExplainRequest::new(["category"]).with_optimizations(Optimizations::none());
        let bottom_up = dp.clone().with_segmenter(SegmenterSpec::BottomUp);
        s.refresh(&bottom_up).unwrap();
        let refreshed = s.refresh(&dp).unwrap();
        assert_eq!(refreshed.stats.candidate_positions, 60);
        let explained = s.explain(&dp).unwrap();
        assert_eq!(explained.segmentation.cuts(), &[13, 31]);
        assert_eq!(refreshed.segmentation.cuts(), explained.segmentation.cuts());
    }

    /// A caller that mints a deadline per refresh (as the server does per
    /// request) sends a new cancel token, and maybe a budget or a thread
    /// count, every time. Neither shortcut may depend on them.
    #[test]
    fn refresh_matches_requests_without_their_runtime_members() {
        let fresh = |threads: usize| {
            base_request()
                .with_cancel(crate::CancelToken::new())
                .with_timeout_ms(60_000)
                .with_threads(threads)
        };
        let mut s = empty_session();
        s.append_rows(rows_for(0..15)).unwrap();
        let first = s.refresh(&fresh(1)).unwrap();
        assert_eq!(first.stats.candidate_positions, 15);
        // No row arrived: the quiet refresh returns the cut it has.
        let quiet = s.refresh(&fresh(2)).unwrap();
        assert_eq!(quiet.segmentation, first.segmentation);
        assert_eq!(s.stats().requests, 1);
        // Rows arrived: the re-cut searches the settled cuts plus the new
        // points, not all 20 positions.
        s.append_rows(rows_for(15..20)).unwrap();
        let second = s.refresh(&fresh(1)).unwrap();
        assert_eq!(s.stats().requests, 2);
        assert!(
            second.stats.candidate_positions < 20,
            "got {}",
            second.stats.candidate_positions
        );
    }

    /// An answer's canonical form: latency and cache provenance stripped,
    /// `ca_calls` kept.
    fn canonical(result: &ExplainResult) -> String {
        let mut value = serde_json::to_value(result);
        if let serde::Value::Object(map) = &mut value {
            map.remove("latency");
            if let Some(serde::Value::Object(stats)) = map.get_mut("stats") {
                stats.remove("cube_from_cache");
            }
        }
        serde_json::to_string(&value).unwrap()
    }

    /// Rows 0..12, then a late report on day 11 and a new day 12.
    fn appended_session(tail: &[Vec<Vec<Datum>>]) -> ExplainSession {
        let mut s = session_over(0..12);
        for rows in tail {
            s.append_rows(rows.clone()).unwrap();
        }
        s
    }

    /// After appends — a late row on the horizon, new days, a state first
    /// seen in the tail, a restated row that folds the tail into the base,
    /// then more new days — a session answers byte for byte what it
    /// answered before, after `invalidate` (a cold build that encodes the
    /// tail's rows in ingestion order) and after a rollback to its own
    /// watermark (the tail folded into the base); rolled back to an
    /// earlier watermark, it answers what a session that never took the
    /// later batches answers.
    #[test]
    fn appended_rows_answer_alike_after_invalidate_and_rollback() {
        let late = vec![vec![Datum::Attr(11i64.into()), "CA".into(), 500.0.into()]];
        let mut new_state = rows_for(12..15);
        new_state.push(vec![Datum::Attr(14i64.into()), "TX".into(), 40.0.into()]);
        let restated = vec![vec![Datum::Attr(3i64.into()), "NY".into(), 7.0.into()]];
        let batches = [late, new_state, restated, rows_for(15..18)];
        let request = base_request();
        for taken in 1..=batches.len() {
            let mut s = appended_session(&batches[..taken]);
            let answer = canonical(&s.explain(&request).unwrap());
            s.invalidate();
            let invalidated = canonical(&s.explain(&request).unwrap());
            assert_eq!(invalidated, answer, "{taken} batches, invalidated");
            s.rollback_rows_to(s.total_rows());
            let rolled_back = canonical(&s.explain(&request).unwrap());
            assert_eq!(rolled_back, answer, "{taken} batches, rolled back");
        }
        for kept in 0..batches.len() {
            let expected = appended_session(&batches[..kept]);
            let mut s = appended_session(&batches);
            s.explain(&request).unwrap();
            s.rollback_rows_to(expected.total_rows());
            assert_eq!(s.total_rows(), expected.total_rows());
            assert_eq!(s.n_points(), expected.n_points());
            assert_eq!(
                canonical(&s.explain(&request).unwrap()),
                canonical(
                    &appended_session(&batches[..kept])
                        .explain(&request)
                        .unwrap()
                ),
                "rolled back to {kept} batches"
            );
        }
    }

    /// A pipeline prepared before an append answers over the rows it saw,
    /// whether the cube's memo has already moved past them (a later
    /// request advanced it and published over the new rows) or not yet
    /// (the append is waiting for its next finalization).
    #[test]
    fn a_prepared_pipeline_never_crosses_an_append() {
        let late = vec![vec![Datum::Attr(11i64.into()), "CA".into(), 500.0.into()]];
        let tail = [late, rows_for(12..13)];
        let request = base_request().with_threads(1);
        let cold_before = canonical(&session_over(0..12).explain(&request).unwrap());
        let cold_after = canonical(&appended_session(&tail).explain(&request).unwrap());
        assert_ne!(cold_before, cold_after);
        for explain_first in [true, false] {
            let mut s = session_over(0..12);
            // A warm memo over the first rows.
            s.explain(&request).unwrap();
            let held = s.prepare(&request).unwrap();
            for rows in &tail {
                s.append_rows(rows.clone()).unwrap();
            }
            if explain_first {
                // Publishes over the new rows before `held` runs.
                assert_eq!(canonical(&s.explain(&request).unwrap()), cold_after);
                assert_eq!(canonical(&held.explain(&request).unwrap()), cold_before);
            } else {
                // `held` runs against the memo the append left behind.
                assert_eq!(canonical(&held.explain(&request).unwrap()), cold_before);
                assert_eq!(canonical(&s.explain(&request).unwrap()), cold_after);
            }
            assert_eq!(canonical(&s.explain(&request).unwrap()), cold_after);
        }
    }

    /// A pipeline that outlives an advance keeps its warm entries: the
    /// later request advanced a copy of the memo, so the held pipeline
    /// prices nothing and derives only its chosen segments' descriptions.
    #[test]
    fn a_prepared_pipeline_keeps_its_warm_memo_across_an_advance() {
        let request = base_request().with_threads(1);
        let mut s = session_over(0..12);
        s.explain(&request).unwrap();
        let held = s.prepare(&request).unwrap();
        s.append_rows(rows_for(12..13)).unwrap();
        assert_eq!(s.explain(&request).unwrap().stats.n_points, 13);
        let answer = held.explain(&request).unwrap();
        assert_eq!(answer.stats.n_points, 12);
        assert_eq!(answer.latency.memo.misses, 0);
        assert_eq!(
            answer.stats.ca_calls - answer.latency.memo.hits,
            answer.chosen_k as u64
        );
    }

    /// A pipeline that outlives an advance keeps its sketch: the held copy
    /// of the memo still holds the positions, so the held explain reads
    /// them and publishes nothing.
    #[test]
    fn a_prepared_pipeline_keeps_its_sketch_across_an_append() {
        // L = 2 and |S| = 6 on 12 points: the sketch prunes.
        let sketching = tsexplain_segment::SketchConfig {
            max_len_fraction: 0.2,
            max_len_cap: 4,
            size_factor: 1.0,
        };
        let request = base_request()
            .with_threads(1)
            .with_optimizations(Optimizations {
                sketching: Some(sketching),
                ..Optimizations::none()
            });
        let mut s = session_over(0..12);
        let cold = s.explain(&request).unwrap();
        assert!(cold.stats.candidate_positions < 12);
        let held = s.prepare(&request).unwrap();
        let entries = held.memo.entries();
        s.append_rows(rows_for(12..13)).unwrap();
        assert_eq!(s.explain(&request).unwrap().stats.n_points, 13);
        let answer = held.explain(&request).unwrap();
        assert_eq!(canonical(&answer), canonical(&cold));
        assert_eq!(answer.latency.memo.misses, 0);
        // A sketch solved again would have been published again.
        assert_eq!(held.memo.entries(), entries);
    }

    /// A tail row is checked in every measure slot, not only in the ones
    /// the query reads: a string there is rejected before it reaches the
    /// tail, so a later rebuild keeps every accepted row.
    #[test]
    fn an_unread_measure_slot_is_checked_before_the_tail() {
        let schema = Schema::new(vec![
            Field::dimension("t"),
            Field::dimension("state"),
            Field::measure("v"),
            Field::measure("w"),
        ])
        .unwrap();
        let row = |t: i64, state: &str, w: Datum| -> Vec<Datum> {
            vec![Datum::Attr(t.into()), state.into(), (t as f64).into(), w]
        };
        let session_of = |rows: &[Vec<Datum>]| {
            let mut b = Relation::builder(schema.clone());
            for row in rows {
                b.push_row(row.clone()).unwrap();
            }
            ExplainSession::new(b.finish(), AggQuery::sum("t", "v")).unwrap()
        };
        let mut accepted: Vec<Vec<Datum>> = (0..5).map(|t| row(t, "NY", 1.0.into())).collect();
        let mut s = session_of(&accepted);

        let err = s.append_rows(vec![row(5, "NY", "x".into())]).unwrap_err();
        assert!(
            matches!(
                &err,
                TsExplainError::Relation(RelationError::TypeMismatch { field, expected: "measure" })
                    if field == "w"
            ),
            "{err:?}"
        );
        assert_eq!(s.total_rows(), 5);

        // An integer attribute is a measure the builder coerces.
        let int = row(5, "NY", Datum::Attr(AttrValue::Int(2)));
        s.append_rows(vec![int.clone()]).unwrap();
        accepted.push(int);
        // Restated history rebuilds from every accepted row.
        let restated = row(2, "CA", 3.0.into());
        s.append_rows(vec![restated.clone()]).unwrap();
        accepted.push(restated);
        let cold = session_of(&accepted);
        assert_eq!(s.total_rows(), cold.total_rows());
        assert_eq!(s.total_rows(), 7);
        assert_eq!(s.n_points(), cold.n_points());
    }

    /// The memo is counted in `cache_bytes` as the pipeline publishes, and
    /// its work counts keep the `ca_calls − memo.hits` identity of the
    /// centroid metric on a warm request.
    #[test]
    fn a_warm_memo_serves_the_next_request_and_keeps_the_counter_identity() {
        let mut s = session();
        let prepared = s.prepare(&base_request()).unwrap();
        let before = s.cache_bytes();
        let cold = prepared.explain(&base_request()).unwrap();
        assert!(s.cache_bytes() > before, "published entries count");
        let warm = s.explain(&base_request()).unwrap();
        assert_eq!(canonical(&warm), canonical(&cold));
        let derived = |r: &ExplainResult| r.stats.ca_calls - r.latency.memo.hits;
        // A repeat derives only the chosen segments' descriptions.
        assert_eq!(derived(&warm), warm.chosen_k as u64);
        assert!(derived(&cold) > derived(&warm));
        assert_eq!(warm.latency.memo.misses, 0);
    }

    /// The slice twin of
    /// `a_warm_memo_serves_the_next_request_and_keeps_the_counter_identity`:
    /// an identical windowed repeat over an unchanged cube is served from
    /// the slice memo.
    #[test]
    fn a_repeated_window_is_served_from_its_slice_memo() {
        let request = base_request().with_time_range(4i64, 16i64);
        let mut s = session();
        let cold = s.explain(&request).unwrap();
        let warm = s.explain(&request).unwrap();
        assert_eq!(canonical(&warm), canonical(&cold));
        assert_eq!(warm.stats.ca_calls, cold.stats.ca_calls);
        let derived = |r: &ExplainResult| r.stats.ca_calls - r.latency.memo.hits;
        assert!(cold.latency.memo.misses > 0);
        assert_eq!(warm.latency.memo.misses, 0);
        assert_eq!(derived(&warm), warm.chosen_k as u64);
        assert!(derived(&cold) > derived(&warm));
    }

    /// After an append, a slice memo keeps every entry that reads no
    /// touched row: a window wholly before the new day prices nothing, and
    /// one that ends at the horizon re-prices only the cells that end
    /// there.
    #[test]
    fn an_append_leaves_a_slice_memo_the_rows_it_did_not_touch() {
        let derived = |r: &ExplainResult| r.stats.ca_calls - r.latency.memo.hits;
        // A new day after a window of the settled past.
        let past = base_request().with_time_range(2i64, 12i64);
        let mut s = session_over(0..21);
        s.explain(&past).unwrap();
        s.append_rows(rows_for(21..22)).unwrap();
        let after = s.explain(&past).unwrap();
        let fresh = session_over(0..22).explain(&past).unwrap();
        assert_eq!(canonical(&after), canonical(&fresh));
        assert_eq!(after.latency.memo.misses, 0);
        assert_eq!(derived(&after), after.chosen_k as u64);
        // A late report on the horizon day of a window that ends there:
        // of the 45 cells of the cost matrix over its 11 points (a unit
        // segment costs nothing), only the 9 that end at its last point
        // read the touched row.
        let recent = base_request().with_time_range(10i64, 20i64);
        let late = vec![vec![Datum::Attr(20i64.into()), "CA".into(), 500.0.into()]];
        let mut s = session_over(0..21);
        let before = s.explain(&recent).unwrap();
        s.append_rows(late.clone()).unwrap();
        let after = s.explain(&recent).unwrap();
        let mut cold = session_over(0..21);
        cold.append_rows(late).unwrap();
        let fresh = cold.explain(&recent).unwrap();
        assert_eq!(canonical(&after), canonical(&fresh));
        assert_ne!(canonical(&after), canonical(&before));
        assert_eq!(fresh.latency.memo.misses, 45);
        assert_eq!(after.latency.memo.misses, 9);
        assert!(derived(&after) < derived(&fresh));
    }

    /// A window keeps one slice memo, the last-asked range's: asking
    /// another range replaces it, and `cache_bytes` counts only that one.
    #[test]
    fn asking_another_range_replaces_the_slice_memo() {
        let first = base_request().with_time_range(0i64, 12i64);
        let second = base_request().with_time_range(8i64, 20i64);
        let mut s = session();
        s.explain(&first).unwrap();
        s.explain(&second).unwrap();
        let entry = only_entry(&s);
        let window = &entry.windows[&1];
        let (rows, slice) = window.slice.as_ref().unwrap();
        assert_eq!(*rows, (8, 20));
        assert!(slice.memo.bytes() > 0);
        assert_eq!(
            s.cache_bytes(),
            entry.cube_bytes + window.full.memo.bytes() + slice.memo.bytes()
        );
        // The first range's entries went with its memo.
        assert!(s.explain(&first).unwrap().latency.memo.misses > 0);
    }

    /// The slice twin of `a_prepared_pipeline_never_crosses_an_append`: a
    /// windowed pipeline prepared before an append answers over the rows
    /// it saw, whether a newer request over the same rows has already
    /// moved the slice memo on or not.
    #[test]
    fn a_prepared_slice_never_crosses_an_append() {
        let late = vec![vec![Datum::Attr(11i64.into()), "CA".into(), 500.0.into()]];
        let tail = [late, rows_for(12..13)];
        let request = base_request().with_threads(1).with_time_range(2i64, 11i64);
        let cold_before = canonical(&session_over(0..12).explain(&request).unwrap());
        let cold_after = canonical(&appended_session(&tail).explain(&request).unwrap());
        assert_ne!(cold_before, cold_after);
        for explain_first in [true, false] {
            let mut s = session_over(0..12);
            // A warm slice memo over the first rows.
            s.explain(&request).unwrap();
            let held = s.prepare(&request).unwrap();
            for rows in &tail {
                s.append_rows(rows.clone()).unwrap();
            }
            if explain_first {
                // Moves the slice memo on before `held` runs.
                assert_eq!(canonical(&s.explain(&request).unwrap()), cold_after);
                assert_eq!(canonical(&held.explain(&request).unwrap()), cold_before);
            } else {
                // `held` runs against the memo the append left behind.
                assert_eq!(canonical(&held.explain(&request).unwrap()), cold_before);
                assert_eq!(canonical(&s.explain(&request).unwrap()), cold_after);
            }
            assert_eq!(canonical(&s.explain(&request).unwrap()), cold_after);
        }
    }

    #[test]
    fn refresh_switches_request() {
        let mut s = session();
        let auto = s.refresh(&base_request()).unwrap();
        let fixed = s.refresh(&base_request().with_fixed_k(2)).unwrap();
        assert_eq!(fixed.chosen_k, 2);
        assert!(auto.chosen_k >= 1);
        // Both requests share one cube (same cube-relevant knobs).
        assert_eq!(s.stats().cubes_built, 1);
    }
}
