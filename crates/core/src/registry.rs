//! The multi-tenant session registry — the shared state behind a serving
//! process.
//!
//! A server hosts many datasets at once; each is an [`ExplainSession`]
//! owned by one tenant. The registry is the thread-safe map from
//! [`DatasetId`] to session with two properties a naive
//! `Mutex<HashMap<…>>` lacks:
//!
//! * **per-tenant interior locking** — the map itself is behind an
//!   `RwLock` held only long enough to clone a session handle, and each
//!   session sits behind its own `Mutex`. One tenant's cube rebuild never
//!   blocks another tenant's cache hit. A session's lock covers preparing
//!   its cube only; the explain pipeline runs on the detached
//!   [`PreparedCube`].
//! * **a global memory budget** — every session shares the registry's LRU
//!   clock, so cube recency is comparable *across* tenants. After any
//!   explain or append the registry sums the per-session cache estimates
//!   ([`ExplainSession::cache_bytes`], built on
//!   `ExplanationCube::approx_bytes`) and evicts globally
//!   least-recently-used cubes until the total fits the budget. Evicted
//!   cubes keep serving correctly — the next request rebuilds them.
//!
//! The registry never holds two session locks at once, so tenant
//! operations cannot deadlock against eviction. Its locks follow the rank
//! order checkpoint gate → registry map → session → store WAL, which
//! [`LockRank`] checks in debug builds.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use tsexplain_relation::{AggQuery, Datum, Relation};
use tsexplain_store::{
    DataStore, LockRank, Ranked, Recovery, StoreError, TenantCheckpoint, WalFrame,
};

use crate::error::TsExplainError;
use crate::request::ExplainRequest;
use crate::result::ExplainResult;
use crate::session::{ExplainSession, PreparedCube, SessionStats};

/// Default global cube-memory budget for a registry: 1 GiB.
pub const DEFAULT_REGISTRY_BUDGET: usize = 1024 * 1024 * 1024;

/// Opaque handle to a registered dataset (tenant).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DatasetId(u64);

impl DatasetId {
    /// The raw id, as it appears in URLs (`/datasets/{id}/…`).
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Rebuilds a handle from a raw id (e.g. parsed out of a URL). The id
    /// is not checked here; lookups return
    /// [`RegistryError::UnknownDataset`] for ids the registry never issued.
    pub fn from_u64(id: u64) -> Self {
        DatasetId(id)
    }
}

impl fmt::Display for DatasetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Errors surfaced by registry operations.
#[derive(Clone, Debug, PartialEq)]
pub enum RegistryError {
    /// No dataset with this id is registered (never issued, or removed).
    UnknownDataset(DatasetId),
    /// The underlying session rejected the operation.
    Session(TsExplainError),
    /// A tenant's lock was poisoned by a panic in a previous holder; the
    /// tenant must be re-registered.
    Poisoned(DatasetId),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownDataset(id) => write!(f, "unknown dataset {id}"),
            RegistryError::Session(e) => write!(f, "{e}"),
            RegistryError::Poisoned(id) => {
                write!(f, "dataset {id} is poisoned by an earlier panic")
            }
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Session(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TsExplainError> for RegistryError {
    fn from(e: TsExplainError) -> Self {
        RegistryError::Session(e)
    }
}

/// A point-in-time view of one tenant's session counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DatasetSnapshot {
    /// The session's serving counters.
    pub stats: SessionStats,
    /// Distinct timestamps registered so far.
    pub n_points: usize,
    /// Prepared cubes currently cached.
    pub cached_cubes: usize,
    /// Approximate bytes held by the tenant's cube cache.
    pub cache_bytes: usize,
}

/// Aggregate registry counters (the `/metrics` payload's registry half).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Registered datasets.
    pub datasets: usize,
    /// Prepared cubes cached across all tenants.
    pub cached_cubes: usize,
    /// Approximate bytes held across all tenants' cube caches.
    pub cache_bytes: usize,
    /// The global memory budget the registry evicts against.
    pub memory_budget: usize,
    /// Sum of every tenant's session counters.
    pub totals: SessionStats,
}

/// The tenant map: dataset id → independently locked session.
type SessionMap = HashMap<u64, Arc<Mutex<ExplainSession>>>;

/// Thread-safe multi-tenant map of [`ExplainSession`]s (see module docs).
#[derive(Debug)]
pub struct SessionRegistry {
    sessions: RwLock<SessionMap>,
    next_id: AtomicU64,
    /// The LRU clock shared by every hosted session.
    clock: Arc<AtomicU64>,
    memory_budget: usize,
    /// The durable store, when the process runs with a data directory:
    /// every registration / row batch / deletion is WAL-logged before the
    /// caller is acknowledged, and periodic checkpoints truncate the log.
    store: Option<Arc<DataStore>>,
    /// Serializes checkpoint cycles (rotate → export → truncate). Two
    /// interleaved cycles could let the older cycle's export overwrite a
    /// newer tenant snapshot while the newer cycle's truncation deletes
    /// the only log copy of the rows in between. The gate holds, per
    /// tenant, the row count its last written snapshot holds: empty after
    /// a failed cycle and at boot, so the next cycle writes every tenant.
    checkpoint_gate: Mutex<HashMap<u64, usize>>,
}

impl Default for SessionRegistry {
    fn default() -> Self {
        SessionRegistry::new()
    }
}

impl SessionRegistry {
    /// An empty registry with the default global memory budget.
    pub fn new() -> Self {
        SessionRegistry::with_memory_budget(DEFAULT_REGISTRY_BUDGET)
    }

    /// An empty registry evicting against `budget` bytes of cube cache
    /// across all tenants.
    pub fn with_memory_budget(budget: usize) -> Self {
        SessionRegistry {
            sessions: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            clock: Arc::new(AtomicU64::new(0)),
            memory_budget: budget,
            store: None,
            checkpoint_gate: Mutex::new(HashMap::new()),
        }
    }

    /// A registry backed by a durable store, rebuilt from what the store
    /// recovered on open: every surviving tenant comes back as a live
    /// session *under its original id*, `next_id` resumes from the
    /// persisted watermark (deleted ids are never recycled), and all
    /// further mutations are WAL-logged through `store`.
    ///
    /// Returns the registry plus human-readable notes — the recovery's own
    /// notes followed by any tenants that failed to rebuild (skipped, never
    /// a panic: their durable state stays on disk for inspection).
    pub fn with_store(
        budget: usize,
        store: Arc<DataStore>,
        recovery: Recovery,
    ) -> (Self, Vec<String>) {
        let registry = SessionRegistry {
            sessions: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(recovery.next_id.max(1)),
            clock: Arc::new(AtomicU64::new(0)),
            memory_budget: budget,
            store: Some(Arc::clone(&store)),
            checkpoint_gate: Mutex::new(HashMap::new()),
        };
        let mut notes = recovery.notes;
        for tenant in recovery.tenants {
            let id = tenant.id;
            match registry.rebuild_session(tenant) {
                Ok(session) => {
                    registry
                        .map_write()
                        .insert(id, Arc::new(Mutex::new(session)));
                }
                Err(e) => notes.push(format!("tenant {id} not rebuilt: {e}")),
            }
        }
        (registry, notes)
    }

    /// Reconstructs one recovered tenant's live session (shared clock,
    /// global budget).
    fn rebuild_session(
        &self,
        tenant: tsexplain_store::RecoveredTenant,
    ) -> Result<ExplainSession, TsExplainError> {
        let mut builder = Relation::builder(tenant.schema);
        for row in tenant.rows {
            builder.push_row(row)?;
        }
        let mut session = ExplainSession::new(builder.finish(), tenant.query)?;
        session.set_cache_budget(self.memory_budget);
        session.set_cache_clock(Arc::clone(&self.clock));
        Ok(session)
    }

    /// Read access to the tenant map, recovering from poison. The map
    /// holds only `Arc` handles and every mutation is a single `HashMap`
    /// call, so a panic in another holder cannot leave it logically
    /// inconsistent — continuing with the inner value is strictly better
    /// than cascading that panic into every request thread as a 500.
    fn map_read(&self) -> Ranked<RwLockReadGuard<'_, SessionMap>> {
        LockRank::RegistryMap
            .read(&self.sessions)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Write access to the tenant map, recovering from poison (see
    /// [`SessionRegistry::map_read`]).
    fn map_write(&self) -> Ranked<RwLockWriteGuard<'_, SessionMap>> {
        LockRank::RegistryMap
            .write(&self.sessions)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The global memory budget in bytes.
    pub fn memory_budget(&self) -> usize {
        self.memory_budget
    }

    /// The durable store backing this registry, if it runs with one.
    pub fn store(&self) -> Option<&Arc<DataStore>> {
        self.store.as_ref()
    }

    /// Registers a relation + query as a new tenant and returns its id.
    /// With a durable store attached, the registration is WAL-logged (and
    /// fsynced) before this returns — an acknowledged tenant survives a
    /// crash.
    pub fn register(
        &self,
        relation: Relation,
        query: AggQuery,
    ) -> Result<DatasetId, TsExplainError> {
        let mut session = ExplainSession::new(relation, query)?;
        // One tenant alone must also respect the global budget, and all
        // tenants must stamp recency from the same clock.
        session.set_cache_budget(self.memory_budget);
        session.set_cache_clock(Arc::clone(&self.clock));
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        if let Some(store) = &self.store {
            // Publish the tenant BEFORE logging, holding its session lock
            // across both: a checkpoint cycle that rotates before our WAL
            // record lands then blocks on this lock during its export and
            // snapshots the tenant itself — the registration can never sit
            // only in a log segment that the same cycle truncates.
            //
            // The one unranked lock: taking the map after it is session
            // before registry map, against the rank order. No other thread
            // can see this session until the insert below, so it cannot be
            // part of a deadlock cycle.
            let handle = Arc::new(Mutex::new(session));
            let Ok(guard) = handle.lock() else {
                // Unreachable in practice (no other thread has seen the
                // handle yet), but a storage error beats a panic here.
                return Err(TsExplainError::Storage(
                    "freshly created session lock poisoned".to_string(),
                ));
            };
            self.map_write().insert(id, Arc::clone(&handle));
            let logged = guard.log_register(store, id);
            drop(guard);
            if let Err(e) = logged {
                // Not durable ⇒ not registered: unpublish and fail.
                self.map_write().remove(&id);
                return Err(TsExplainError::Storage(e.to_string()));
            }
        } else {
            self.map_write().insert(id, Arc::new(Mutex::new(session)));
        }
        self.maybe_checkpoint();
        Ok(DatasetId(id))
    }

    /// Removes a tenant, dropping its session and caches — and, with a
    /// durable store attached, its on-disk state (a tombstone lands in the
    /// WAL first, so a reboot never resurrects the dataset). Returns
    /// whether the id was registered. If the tombstone cannot be made
    /// durable, the tenant is put back and the deletion FAILS: a client
    /// must never hold an ack for a DELETE that a reboot would undo.
    pub fn remove(&self, id: DatasetId) -> Result<bool, RegistryError> {
        let Some(handle) = self.map_write().remove(&id.0) else {
            return Ok(false);
        };
        if let Some(store) = &self.store {
            if let Err(e) = store.log_remove(id.0) {
                self.map_write().insert(id.0, handle);
                return Err(RegistryError::Session(TsExplainError::Storage(
                    e.to_string(),
                )));
            }
        }
        self.maybe_checkpoint();
        Ok(true)
    }

    /// Ids of all registered datasets, ascending.
    #[expect(
        clippy::disallowed_methods,
        reason = "the ids are sorted before they are returned"
    )]
    pub fn ids(&self) -> Vec<DatasetId> {
        let mut ids: Vec<DatasetId> = self.map_read().keys().map(|&id| DatasetId(id)).collect();
        ids.sort_unstable();
        ids
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        self.map_read().len()
    }

    /// True when no dataset is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The session handle for `id`. The map lock is released before the
    /// handle is returned; callers lock the session itself.
    pub fn session(&self, id: DatasetId) -> Result<Arc<Mutex<ExplainSession>>, RegistryError> {
        self.map_read()
            .get(&id.0)
            .cloned()
            .ok_or(RegistryError::UnknownDataset(id))
    }

    /// Answers one explain request against tenant `id`:
    /// [`SessionRegistry::prepare`], then [`PreparedCube::explain`] without
    /// the tenant lock. Stats reads, appends and other explains of the
    /// tenant proceed while the pipeline runs, and a pipeline panic cannot
    /// poison the tenant.
    pub fn explain(
        &self,
        id: DatasetId,
        request: &ExplainRequest,
    ) -> Result<ExplainResult, RegistryError> {
        Ok(self.prepare(id, request)?.explain(request)?)
    }

    /// Prepares tenant `id`'s cube for `request` under **one** lock hold
    /// and returns it as a lock-free [`PreparedCube`], then enforces the
    /// global memory budget. Every explain goes through here: a
    /// multi-strategy fan-out (`/compare`) locks once, then runs every
    /// strategy concurrently against the shared cube without touching the
    /// tenant again.
    pub fn prepare(
        &self,
        id: DatasetId,
        request: &ExplainRequest,
    ) -> Result<PreparedCube, RegistryError> {
        let handle = self.session(id)?;
        let prepared = {
            let mut session = LockRank::Session
                .lock(&handle)
                .map_err(|_| RegistryError::Poisoned(id))?;
            session.prepare(request)?
        };
        self.enforce_global_budget();
        Ok(prepared)
    }

    /// Appends raw rows (schema order) to tenant `id`, then enforces the
    /// global memory budget. With a durable store attached, the batch is
    /// WAL-logged (and fsynced) after the session accepts it and before
    /// this returns — the log is appended under the session lock so WAL
    /// order matches application order and `seq` stays exact. The record
    /// is written from the rows before the session takes them, so the
    /// batch is never copied; a batch the session rejects is not logged.
    pub fn append_rows(&self, id: DatasetId, rows: Vec<Vec<Datum>>) -> Result<(), RegistryError> {
        let handle = self.session(id)?;
        {
            let mut session = LockRank::Session
                .lock(&handle)
                .map_err(|_| RegistryError::Poisoned(id))?;
            match &self.store {
                Some(store) => {
                    let seq = session.total_rows() as u64;
                    let record = WalFrame::rows(id.0, seq, &rows)
                        .map_err(|e| TsExplainError::Storage(e.to_string()))?;
                    session.append_rows(rows)?;
                    if let Err(e) = store.log(record) {
                        // Un-apply the batch: if it stayed resident while
                        // the client got an error, every later acked batch
                        // would be logged with a seq replay sees as a gap
                        // and skips — one transient WAL failure would
                        // silently forfeit the tenant's durability until
                        // the next checkpoint.
                        session.rollback_rows_to(seq as usize);
                        return Err(TsExplainError::Storage(e.to_string()).into());
                    }
                }
                None => session.append_rows(rows)?,
            }
        }
        self.enforce_global_budget();
        self.maybe_checkpoint();
        Ok(())
    }

    /// A snapshot of tenant `id`'s counters.
    pub fn dataset_stats(&self, id: DatasetId) -> Result<DatasetSnapshot, RegistryError> {
        let handle = self.session(id)?;
        let session = LockRank::Session
            .lock(&handle)
            .map_err(|_| RegistryError::Poisoned(id))?;
        Ok(DatasetSnapshot {
            stats: session.stats(),
            n_points: session.n_points(),
            cached_cubes: session.cached_cubes(),
            cache_bytes: session.cache_bytes(),
        })
    }

    /// Aggregate counters across all tenants. Poisoned tenants are skipped
    /// (their caches are unreachable anyway).
    pub fn stats(&self) -> RegistryStats {
        let handles = self.handles();
        let mut out = RegistryStats {
            datasets: handles.len(),
            memory_budget: self.memory_budget,
            ..RegistryStats::default()
        };
        for (_, handle) in handles {
            let Ok(session) = LockRank::Session.lock(&handle) else {
                continue;
            };
            out.cached_cubes += session.cached_cubes();
            out.cache_bytes += session.cache_bytes();
            let s = session.stats();
            out.totals.requests += s.requests;
            out.totals.cubes_built += s.cubes_built;
            out.totals.cube_cache_hits += s.cube_cache_hits;
            out.totals.cube_refreshes += s.cube_refreshes;
            out.totals.rows_appended += s.rows_appended;
            out.totals.rebuilds += s.rebuilds;
            out.totals.cube_evictions += s.cube_evictions;
        }
        out
    }

    /// Checkpoints the durable store once enough log has accumulated (see
    /// [`SessionRegistry::checkpoint`]). Checkpoint I/O errors are
    /// reported and retried at the next trigger; the WAL keeps the data
    /// safe in the meantime.
    fn maybe_checkpoint(&self) {
        let Some(store) = &self.store else { return };
        if !store.wants_checkpoint() {
            return;
        }
        // One cycle at a time; a trigger while one runs is redundant.
        let Ok(mut snapshot_rows) = LockRank::CheckpointGate.try_lock(&self.checkpoint_gate) else {
            return;
        };
        if !store.wants_checkpoint() {
            return;
        }
        if let Err(e) = self.checkpoint(store, &mut snapshot_rows) {
            tsexplain_obs::log::warn(
                "store",
                "checkpoint failed (will retry)",
                &[("error", serde::Value::String(e.to_string()))],
            );
        }
    }

    /// One checkpoint cycle: rotate → export → truncate. The WAL is
    /// rotated FIRST and the tenant states are exported AFTER — every
    /// record already in the pre-rotation segments is then visible to the
    /// exports (each encoded in place under its session's lock, which any
    /// in-flight mutation holds while it logs; the lock is released before
    /// the CRC and the file write), and a record logged concurrently with
    /// the export lands in the fresh segment, which survives the
    /// truncation. The seq watermark makes snapshot/WAL-suffix overlap
    /// idempotent on replay, so no acked mutation can fall between a
    /// deleted log segment and a snapshot that predates it.
    ///
    /// A tenant that still holds the row count of its last written
    /// snapshot (`snapshot_rows`) keeps that file: its rows only grow, so
    /// the file already covers every record of it below the rotation. A
    /// failed cycle leaves `snapshot_rows` empty.
    /// Tenants whose lock is poisoned are skipped — they are already
    /// unrecoverable in-process (see [`RegistryError::Poisoned`]) and a
    /// checkpoint is the point their durable state is garbage-collected
    /// too.
    fn checkpoint(
        &self,
        store: &DataStore,
        snapshot_rows: &mut HashMap<u64, usize>,
    ) -> Result<(), StoreError> {
        // Put back only by a cycle that completes: after a failed one,
        // what is on disk is unknown, and the next cycle writes every
        // tenant.
        let last = std::mem::take(snapshot_rows);
        let rotation = store.rotate_wal()?;
        let mut tenants = Vec::new();
        let mut counts = HashMap::new();
        for (id, handle) in self.handles() {
            let Ok(session) = LockRank::Session.lock(&handle) else {
                continue;
            };
            let rows = session.total_rows();
            tenants.push(if last.get(&id) == Some(&rows) {
                TenantCheckpoint::kept(id)
            } else {
                session.checkpoint(id)?
            });
            counts.insert(id, rows);
        }
        store.checkpoint(self.next_id.load(Ordering::Relaxed), tenants, rotation)?;
        *snapshot_rows = counts;
        Ok(())
    }

    /// A stable snapshot of `(id, handle)` pairs, map lock released.
    #[expect(
        clippy::disallowed_methods,
        reason = "every consumer sums, exports or picks a minimum, none depends on the order"
    )]
    fn handles(&self) -> Vec<(u64, Arc<Mutex<ExplainSession>>)> {
        self.map_read()
            .iter()
            .map(|(&id, h)| (id, Arc::clone(h)))
            .collect()
    }

    /// Evicts globally least-recently-used cubes (one at a time, locking
    /// one tenant at a time) until the summed cache estimate fits the
    /// budget. The globally newest cube is never evicted, so the request
    /// that just ran cannot thrash its own cube out.
    ///
    /// Every lock here is a `try_lock`: a tenant busy preparing a cube or
    /// appending rows (its cubes are hot anyway) is simply skipped, so this
    /// sweep never parks behind another tenant's in-flight rebuild — the
    /// registry's "one tenant's rebuild never blocks another's cache hit"
    /// property holds through eviction too. Concurrent tenants may touch cubes
    /// between the scan and the eviction; the policy is deliberately
    /// approximate — at worst a near-LRU entry is evicted or an eviction
    /// is deferred to the next request, which only costs a rebuild.
    fn enforce_global_budget(&self) {
        loop {
            let handles = self.handles();
            let mut total_bytes = 0usize;
            let mut total_cubes = 0usize;
            let mut oldest: Option<(u64, u64)> = None; // (stamp, tenant id)
            for (id, handle) in &handles {
                let Ok(session) = LockRank::Session.try_lock(handle) else {
                    continue;
                };
                total_bytes += session.cache_bytes();
                total_cubes += session.cached_cubes();
                if let Some(stamp) = session.lru_stamp() {
                    if oldest.is_none_or(|(s, _)| stamp < s) {
                        oldest = Some((stamp, *id));
                    }
                }
            }
            if total_bytes <= self.memory_budget || total_cubes <= 1 {
                return;
            }
            let Some((_, victim)) = oldest else { return };
            let Some((_, handle)) = handles.iter().find(|(id, _)| *id == victim) else {
                return;
            };
            let Ok(mut session) = LockRank::Session.try_lock(handle) else {
                return;
            };
            if session.evict_lru_one().is_none() {
                return;
            }
        }
    }
}

// The whole point of the registry is to be shared across worker threads;
// keep that property checked at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ExplainSession>();
    assert_send_sync::<SessionRegistry>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Optimizations;
    use tsexplain_relation::{Field, Schema};

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
            } else {
                2.0 + 9.0 * (t - 10) as f64
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

    fn request() -> ExplainRequest {
        ExplainRequest::new(["state"]).with_optimizations(Optimizations::none())
    }

    #[test]
    fn register_explain_append_round_trip() {
        let registry = SessionRegistry::new();
        let id = registry
            .register(relation(0..12), AggQuery::sum("t", "v"))
            .unwrap();
        let first = registry.explain(id, &request()).unwrap();
        assert_eq!(first.stats.n_points, 12);
        registry.append_rows(id, rows_for(12..21)).unwrap();
        let second = registry.explain(id, &request()).unwrap();
        assert_eq!(second.stats.n_points, 21);
        // Matches a standalone session over the same history.
        let mut solo = ExplainSession::new(relation(0..21), AggQuery::sum("t", "v")).unwrap();
        let batch = solo.explain(&request()).unwrap();
        assert_eq!(second.segmentation, batch.segmentation);
        assert_eq!(second.aggregate, batch.aggregate);
        let snap = registry.dataset_stats(id).unwrap();
        assert_eq!(snap.stats.requests, 2);
        assert_eq!(snap.n_points, 21);
        assert!(snap.cache_bytes > 0);
    }

    #[test]
    fn explain_runs_its_pipeline_outside_the_tenant_lock() {
        // A tenant whose pipeline takes tens of milliseconds: 160 points,
        // six states, every candidate position priced.
        let mut b = Relation::builder(schema());
        for t in 0..160i64 {
            for (i, state) in ["NY", "CA", "TX", "WA", "FL", "IL"].into_iter().enumerate() {
                let v = ((t * (i as i64 + 3)) % 17) as f64 + (t * i as i64) as f64;
                b.push_row(vec![Datum::Attr(t.into()), state.into(), v.into()])
                    .unwrap();
            }
        }
        let registry = SessionRegistry::new();
        let id = registry
            .register(b.finish(), AggQuery::sum("t", "v"))
            .unwrap();
        let token = tsexplain_parallel::CancelToken::new();
        let cancellable = request().with_cancel(token.clone());
        std::thread::scope(|scope| {
            let explain = scope.spawn(|| registry.explain(id, &cancellable));
            // The request is counted under the lock that prepares its cube.
            // Once a stats read sees it, the explain must still be running
            // its pipeline, with the lock released: tripping the token now
            // cancels it. Were the pipeline under the lock, this read would
            // wait for the explain to finish.
            let counted = (0..10_000_000).any(|_| {
                std::thread::yield_now();
                registry.dataset_stats(id).unwrap().stats.requests == 1
            });
            // A second explain of the same tenant (a short window, sliced
            // from the cube the first one cached) and a registry-wide stats
            // read, the `/metrics` scrape's source, also complete meanwhile.
            let windowed =
                registry.explain(id, &request().with_time_range(0i64, 20i64).with_fixed_k(1));
            let totals = registry.stats();
            token.cancel();
            assert!(counted, "the explain was never counted");
            assert_eq!(windowed.unwrap().stats.n_points, 21);
            assert_eq!((totals.datasets, totals.totals.requests), (1, 2));
            let result = explain.join().unwrap();
            assert!(
                matches!(
                    result,
                    Err(RegistryError::Session(TsExplainError::Cancelled { .. }))
                ),
                "the pipeline ended before the stats read: {:?}",
                result.map(|r| r.stats.n_points)
            );
        });
        // The tenant still answers.
        assert!(registry.explain(id, &request()).is_ok());
    }

    #[test]
    fn tenants_are_isolated_and_ids_are_stable() {
        let registry = SessionRegistry::new();
        let a = registry
            .register(relation(0..12), AggQuery::sum("t", "v"))
            .unwrap();
        let b = registry
            .register(relation(0..21), AggQuery::sum("t", "v"))
            .unwrap();
        assert_ne!(a, b);
        assert_eq!(registry.ids(), vec![a, b]);
        let ra = registry.explain(a, &request()).unwrap();
        let rb = registry.explain(b, &request()).unwrap();
        assert_eq!(ra.stats.n_points, 12);
        assert_eq!(rb.stats.n_points, 21);
        assert!(registry.remove(a).unwrap());
        assert!(!registry.remove(a).unwrap());
        assert!(matches!(
            registry.explain(a, &request()),
            Err(RegistryError::UnknownDataset(_))
        ));
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn unknown_and_invalid_requests_map_to_distinct_errors() {
        let registry = SessionRegistry::new();
        let ghost = DatasetId::from_u64(999);
        assert!(matches!(
            registry.explain(ghost, &request()),
            Err(RegistryError::UnknownDataset(id)) if id == ghost
        ));
        let id = registry
            .register(relation(0..12), AggQuery::sum("t", "v"))
            .unwrap();
        assert!(matches!(
            registry.explain(id, &ExplainRequest::new(["nope"])),
            Err(RegistryError::Session(TsExplainError::InvalidRequest(_)))
        ));
    }

    #[test]
    fn global_budget_evicts_across_tenants_by_recency() {
        // Budget sized so the two tenants' cubes cannot all stay resident.
        // The probe only prepares: an explain would add its segment memo,
        // which can outweigh a cube this small.
        let probe = SessionRegistry::new();
        let pid = probe
            .register(relation(0..21), AggQuery::sum("t", "v"))
            .unwrap();
        probe.prepare(pid, &request()).unwrap();
        let one_cube = probe.stats().cache_bytes;
        assert!(one_cube > 0);

        let registry = SessionRegistry::with_memory_budget(one_cube + one_cube / 2);
        let a = registry
            .register(relation(0..21), AggQuery::sum("t", "v"))
            .unwrap();
        let b = registry
            .register(relation(0..21), AggQuery::sum("t", "v"))
            .unwrap();
        registry.explain(a, &request()).unwrap();
        // B's build pushes the total past the budget: A's cube (older) is
        // evicted, B's survives.
        registry.explain(b, &request()).unwrap();
        let stats = registry.stats();
        assert_eq!(stats.totals.cube_evictions, 1);
        assert_eq!(registry.dataset_stats(a).unwrap().cached_cubes, 0);
        assert_eq!(registry.dataset_stats(b).unwrap().cached_cubes, 1);
        // A keeps serving — rebuilt on demand, evicting B in turn.
        let again = registry.explain(a, &request()).unwrap();
        assert_eq!(again.stats.n_points, 21);
        assert_eq!(registry.dataset_stats(a).unwrap().stats.cubes_built, 2);
        assert_eq!(registry.stats().totals.cube_evictions, 2);
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tsx-registry-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_registry(dir: &std::path::Path, budget: usize) -> SessionRegistry {
        let (store, recovery) = DataStore::open(dir).unwrap();
        let (registry, notes) = SessionRegistry::with_store(budget, Arc::new(store), recovery);
        assert!(notes.is_empty(), "unexpected recovery notes: {notes:?}");
        registry
    }

    #[test]
    fn reboot_recovers_tenants_under_their_original_ids() {
        let dir = temp_dir("reboot");
        let (a, b, expected) = {
            let registry = durable_registry(&dir, DEFAULT_REGISTRY_BUDGET);
            let a = registry
                .register(relation(0..12), AggQuery::sum("t", "v"))
                .unwrap();
            let b = registry
                .register(relation(0..21), AggQuery::sum("t", "v"))
                .unwrap();
            registry.append_rows(a, rows_for(12..21)).unwrap();
            (a, b, registry.explain(a, &request()).unwrap())
        };
        // "Reboot": a fresh registry over the same data dir.
        let registry = durable_registry(&dir, DEFAULT_REGISTRY_BUDGET);
        assert_eq!(registry.ids(), vec![a, b]);
        let replayed = registry.explain(a, &request()).unwrap();
        assert_eq!(replayed.segmentation, expected.segmentation);
        assert_eq!(replayed.aggregate, expected.aggregate);
        assert_eq!(replayed.total_variance, expected.total_variance);
        // New registrations continue above the persisted watermark.
        let c = registry
            .register(relation(0..5), AggQuery::sum("t", "v"))
            .unwrap();
        assert!(c > b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn removed_tenants_stay_removed_across_reboots() {
        let dir = temp_dir("remove");
        let (a, b) = {
            let registry = durable_registry(&dir, DEFAULT_REGISTRY_BUDGET);
            let a = registry
                .register(relation(0..12), AggQuery::sum("t", "v"))
                .unwrap();
            let b = registry
                .register(relation(0..12), AggQuery::sum("t", "v"))
                .unwrap();
            assert!(registry.remove(a).unwrap());
            (a, b)
        };
        let registry = durable_registry(&dir, DEFAULT_REGISTRY_BUDGET);
        assert_eq!(registry.ids(), vec![b]);
        // The deleted id is never recycled.
        let c = registry
            .register(relation(0..5), AggQuery::sum("t", "v"))
            .unwrap();
        assert_ne!(c, a);
        assert!(c > b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_pressure_evicts_and_rebuilds_bit_identically() {
        let dir = temp_dir("evict");
        // Measure one cube's footprint before any explain fills its segment
        // memo, then run with a budget that can hold only one of the two
        // cubes the test builds.
        let probe = durable_registry(&dir.join("probe"), DEFAULT_REGISTRY_BUDGET);
        let pid = probe
            .register(relation(0..21), AggQuery::sum("t", "v"))
            .unwrap();
        let prepared = probe.prepare(pid, &request()).unwrap();
        let one_cube = probe.stats().cache_bytes;
        let expected = prepared.explain(&request()).unwrap();
        assert!(one_cube > 0);

        let registry = durable_registry(&dir.join("live"), one_cube + one_cube / 2);
        let id = registry
            .register(relation(0..21), AggQuery::sum("t", "v"))
            .unwrap();
        registry.explain(id, &request()).unwrap(); // cube A
        registry.explain(id, &request().with_max_order(1)).unwrap(); // cube B evicts A
        assert_eq!(registry.stats().totals.cube_evictions, 1);
        // Asking for A again rebuilds it from the session's rows.
        let rebuilt = registry.explain(id, &request()).unwrap();
        assert_eq!(registry.stats().totals.cubes_built, 3, "A was rebuilt");
        assert_eq!(rebuilt.segmentation, expected.segmentation);
        assert_eq!(rebuilt.aggregate, expected.aggregate);
        assert_eq!(rebuilt.total_variance, expected.total_variance);
        assert_eq!(rebuilt.k_variance_curve, expected.k_variance_curve);

        // Evict A once more, then append: the next miss for A rebuilds
        // over every row, exactly like a cold registry over the full
        // history.
        registry.explain(id, &request().with_max_order(1)).unwrap();
        assert_eq!(registry.stats().totals.cube_evictions, 3, "B, then A again");
        registry.append_rows(id, rows_for(21..30)).unwrap();
        let after = registry.explain(id, &request()).unwrap();
        assert_eq!(after.stats.n_points, 30);
        assert_eq!(registry.stats().totals.cubes_built, 5);
        let cold = SessionRegistry::new();
        let cid = cold
            .register(relation(0..30), AggQuery::sum("t", "v"))
            .unwrap();
        let expected = cold.explain(cid, &request()).unwrap();
        assert_eq!(after.segmentation, expected.segmentation);
        assert_eq!(after.aggregate, expected.aggregate);
        assert_eq!(after.total_variance, expected.total_variance);
        assert_eq!(after.k_variance_curve, expected.k_variance_curve);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One checkpoint cycle, as `maybe_checkpoint` runs it once the WAL
    /// asks for one.
    fn checkpoint_now(registry: &SessionRegistry) -> Result<(), StoreError> {
        let mut snapshot_rows = LockRank::CheckpointGate
            .lock(&registry.checkpoint_gate)
            .unwrap();
        registry.checkpoint(registry.store().unwrap(), &mut snapshot_rows)
    }

    fn snapshot_path(dir: &std::path::Path, id: DatasetId) -> std::path::PathBuf {
        dir.join("tenants").join(format!("t{id}.snap"))
    }

    /// A snapshot file's bytes and inode: a rewrite renames a new file in.
    fn snapshot_file(dir: &std::path::Path, id: DatasetId) -> (Vec<u8>, u64) {
        use std::os::unix::fs::MetadataExt as _;
        let path = snapshot_path(dir, id);
        (
            std::fs::read(&path).unwrap(),
            std::fs::metadata(&path).unwrap().ino(),
        )
    }

    #[test]
    fn a_checkpoint_keeps_the_snapshot_of_an_unchanged_tenant() {
        let dir = temp_dir("keep");
        let registry = durable_registry(&dir, DEFAULT_REGISTRY_BUDGET);
        let untouched = registry
            .register(relation(0..12), AggQuery::sum("t", "v"))
            .unwrap();
        let appended = registry
            .register(relation(0..12), AggQuery::sum("t", "v"))
            .unwrap();
        checkpoint_now(&registry).unwrap();
        let store = registry.store().unwrap();
        assert_eq!(store.metrics().snapshots, 2);
        let kept = snapshot_file(&dir, untouched);
        let before = snapshot_file(&dir, appended);
        registry.append_rows(appended, rows_for(12..14)).unwrap();
        checkpoint_now(&registry).unwrap();
        // Only the tenant that changed is written again.
        assert_eq!(store.metrics().snapshots, 3);
        assert_eq!(snapshot_file(&dir, untouched), kept);
        let after = snapshot_file(&dir, appended);
        assert_ne!(after.0, before.0);
        // A third cycle with nothing changed writes nothing.
        checkpoint_now(&registry).unwrap();
        assert_eq!(store.metrics().snapshots, 3);
        assert_eq!(snapshot_file(&dir, appended), after);
        let expected = registry.explain(untouched, &request()).unwrap();
        drop(registry);
        let rebooted = durable_registry(&dir, DEFAULT_REGISTRY_BUDGET);
        assert_eq!(rebooted.ids(), vec![untouched, appended]);
        let replayed = rebooted.explain(untouched, &request()).unwrap();
        assert_eq!(replayed.segmentation, expected.segmentation);
        assert_eq!(replayed.aggregate, expected.aggregate);
        assert_eq!(rebooted.dataset_stats(appended).unwrap().n_points, 14);
        // A recovered registry knows no snapshot's count: its first
        // checkpoint writes every tenant.
        checkpoint_now(&rebooted).unwrap();
        assert_eq!(rebooted.store().unwrap().metrics().snapshots, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn after_a_failed_checkpoint_the_next_rewrites_every_tenant() {
        let dir = temp_dir("failed-checkpoint");
        let registry = durable_registry(&dir, DEFAULT_REGISTRY_BUDGET);
        let a = registry
            .register(relation(0..12), AggQuery::sum("t", "v"))
            .unwrap();
        let b = registry
            .register(relation(0..12), AggQuery::sum("t", "v"))
            .unwrap();
        checkpoint_now(&registry).unwrap();
        let store = registry.store().unwrap();
        assert_eq!(store.metrics().snapshots, 2);
        // A directory where B's temporary file goes fails B's write.
        registry.append_rows(b, rows_for(12..14)).unwrap();
        let blocker = snapshot_path(&dir, b).with_extension("tmp");
        std::fs::create_dir(&blocker).unwrap();
        assert!(checkpoint_now(&registry).is_err());
        std::fs::remove_dir(&blocker).unwrap();
        let written = store.metrics().snapshots;
        // Neither tenant changed since, yet both are written again.
        checkpoint_now(&registry).unwrap();
        assert_eq!(store.metrics().snapshots, written + 2);
        checkpoint_now(&registry).unwrap();
        assert_eq!(store.metrics().snapshots, written + 2);
        drop(registry);
        let rebooted = durable_registry(&dir, DEFAULT_REGISTRY_BUDGET);
        assert_eq!(rebooted.dataset_stats(a).unwrap().n_points, 12);
        assert_eq!(rebooted.dataset_stats(b).unwrap().n_points, 14);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_aggregate_over_tenants() {
        let registry = SessionRegistry::new();
        let a = registry
            .register(relation(0..12), AggQuery::sum("t", "v"))
            .unwrap();
        let b = registry
            .register(relation(0..12), AggQuery::sum("t", "v"))
            .unwrap();
        registry.explain(a, &request()).unwrap();
        registry.explain(a, &request()).unwrap();
        registry.explain(b, &request()).unwrap();
        registry.append_rows(b, rows_for(12..14)).unwrap();
        let stats = registry.stats();
        assert_eq!(stats.datasets, 2);
        assert_eq!(stats.totals.requests, 3);
        assert_eq!(stats.totals.cubes_built, 2);
        assert_eq!(stats.totals.cube_cache_hits, 1);
        assert_eq!(stats.totals.rows_appended, 4);
        assert_eq!(stats.memory_budget, DEFAULT_REGISTRY_BUDGET);
        assert!(stats.cache_bytes > 0);
    }
}
