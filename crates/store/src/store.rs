//! The [`DataStore`]: one data directory holding a WAL, tenant
//! checkpoints and demoted cube blobs.
//!
//! Layout under the root:
//!
//! ```text
//! meta.json            last checkpoint's {"next_id": N} (plain JSON)
//! wal/000001.wal …     CRC-framed record segments, replayed in order
//! tenants/t{id}.snap   one frame: tenant schema + query + rows (JSON)
//! cubes/t{id}-c{fp}.cube  one frame: a demoted cube's block snapshot
//! ```
//!
//! **Write path.** Every mutation is appended to the current WAL segment
//! as one CRC frame and fsynced before the caller acknowledges, so an
//! acked request survives a crash. Segments rotate at a size threshold.
//! A checkpoint cycle rotates to a fresh segment *first*
//! ([`DataStore::rotate_wal`]), then writes every tenant's full state to
//! `tenants/` (atomic tmp + rename), persists `next_id`, and deletes
//! only the pre-rotation segments ([`DataStore::checkpoint`]) — records
//! logged concurrently with the export land in the fresh segment and
//! survive, so no acked mutation can fall between a deleted log and a
//! snapshot that predates it.
//!
//! **Recovery.** [`DataStore::open`] loads the newest valid tenant
//! snapshots, then replays the WAL suffix on top: `Register` for an
//! already-snapshotted tenant is skipped, `Rows` batches below a
//! tenant's watermark are skipped (partially applied when they
//! straddle it — `seq` makes this exact), `Remove` tombstones drop the
//! tenant. Replay keeps the longest valid frame prefix: a torn tail or
//! checksum failure ends it, everything after is counted and reported,
//! and nothing ever panics on corrupt bytes. The torn segment is then
//! truncated to that prefix on disk (and beyond-prefix segments are
//! unlinked), so the next boot's replay continues cleanly into every
//! segment written after this recovery instead of re-stopping at the
//! same tear and discarding later acked records.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use serde::{Serialize, Value};
use tsexplain_obs::Histogram;
use tsexplain_relation::{decode_wire_row, encode_wire_row, AggQuery, Datum, Schema};

use crate::error::StoreError;
use crate::frame::{append_frame, read_all, FrameEnd};
use crate::rank::LockRank;
use crate::wal::WalRecord;

/// Rotate the active WAL segment once it exceeds this many bytes.
const SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

/// Number of WAL appends between checkpoints (see
/// [`DataStore::wants_checkpoint`]).
const CHECKPOINT_INTERVAL: u64 = 256;

/// A point-in-time copy of the store's monotone counters (the `/metrics`
/// `store` block).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreMetrics {
    /// WAL records appended (register + rows + remove).
    pub wal_appends: u64,
    /// Framed WAL bytes written.
    pub wal_bytes: u64,
    /// Snapshot files written (tenant checkpoints + demoted cubes).
    pub snapshots: u64,
    /// Tenants reconstructed by recovery-on-boot.
    pub recoveries: u64,
    /// Cubes demoted to disk by the eviction tier.
    pub demotions: u64,
    /// Cubes rehydrated from disk on a cache miss.
    pub rehydrations: u64,
}

/// One tenant as reconstructed by recovery: everything the registry
/// needs to rebuild the live session.
#[derive(Debug)]
pub struct RecoveredTenant {
    /// The tenant id it was registered under (preserved across reboots).
    pub id: u64,
    /// The relation's schema.
    pub schema: Schema,
    /// The aggregation query.
    pub query: AggQuery,
    /// All surviving rows, in ingestion order (snapshot + WAL suffix).
    pub rows: Vec<Vec<Datum>>,
    /// Whether a checkpoint snapshot seeded this tenant (vs pure replay).
    pub from_snapshot: bool,
}

/// The outcome of recovery-on-boot.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Persisted id watermark: the registry must hand out ids from here
    /// so deleted tenants are never resurrected under a recycled id.
    pub next_id: u64,
    /// Recovered tenants, ascending by id.
    pub tenants: Vec<RecoveredTenant>,
    /// WAL records applied during replay.
    pub records_applied: u64,
    /// Records skipped as below a snapshot watermark or addressed to an
    /// unknown/removed tenant.
    pub records_skipped: u64,
    /// Bytes discarded after the longest valid WAL prefix.
    pub discarded_bytes: u64,
    /// Human-readable notes on everything that was discarded or skipped.
    pub notes: Vec<String>,
}

/// One tenant's full state handed to [`DataStore::checkpoint`].
pub struct TenantCheckpoint {
    /// The tenant id.
    pub id: u64,
    /// The relation's schema.
    pub schema: Schema,
    /// The aggregation query.
    pub query: AggQuery,
    /// All rows in ingestion order — the snapshot's row watermark is
    /// implicitly `rows.len()`.
    pub rows: Vec<Vec<Datum>>,
}

struct WalWriter {
    file: File,
    seg_index: u64,
    seg_bytes: u64,
}

/// Latency histograms for the store's three durability-critical
/// operations, exposed for Prometheus exposition.
#[derive(Debug, Default)]
pub struct StoreDurations {
    /// Per-append `fsync` (really `sync_data`) time.
    pub fsync: Histogram,
    /// Full [`DataStore::checkpoint`] cycles.
    pub checkpoint: Histogram,
    /// Recovery-on-boot, recorded once per [`DataStore::open`].
    pub recovery: Histogram,
}

/// The durable storage engine for one data directory (module docs).
pub struct DataStore {
    root: PathBuf,
    wal: Mutex<WalWriter>,
    appends_since_checkpoint: AtomicU64,
    wal_appends: AtomicU64,
    wal_bytes: AtomicU64,
    snapshots: AtomicU64,
    recoveries: AtomicU64,
    demotions: AtomicU64,
    rehydrations: AtomicU64,
    durations: StoreDurations,
}

impl std::fmt::Debug for DataStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataStore")
            .field("root", &self.root)
            .finish_non_exhaustive()
    }
}

impl DataStore {
    /// Opens (creating if needed) the data directory, runs recovery and
    /// returns the store plus everything it recovered. Corrupt bytes are
    /// skipped and reported in [`Recovery::notes`], never a panic.
    pub fn open(root: impl Into<PathBuf>) -> Result<(DataStore, Recovery), StoreError> {
        let started = clock();
        let root = root.into();
        for dir in [
            root.clone(),
            root.join("wal"),
            root.join("tenants"),
            root.join("cubes"),
        ] {
            fs::create_dir_all(&dir).map_err(|e| StoreError::io("create dir", &dir, e))?;
        }

        let mut recovery = Recovery::default();
        let mut max_id_seen = 0u64;

        // Last checkpoint's id watermark.
        let meta_path = root.join("meta.json");
        match fs::read_to_string(&meta_path) {
            Ok(text) => match serde_json::from_str::<Value>(&text) {
                Ok(v) => match v.field::<u64>("next_id") {
                    Ok(n) => recovery.next_id = n,
                    Err(e) => recovery.notes.push(format!("meta.json ignored: {e}")),
                },
                Err(e) => recovery.notes.push(format!("meta.json ignored: {e}")),
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(StoreError::io("read", &meta_path, e)),
        }

        // Tenant checkpoint snapshots.
        let mut tenants: HashMap<u64, RecoveredTenant> = HashMap::new();
        for path in sorted_files(&root.join("tenants"), ".snap")? {
            match load_tenant_snapshot(&path) {
                Ok(t) => {
                    max_id_seen = max_id_seen.max(t.id);
                    tenants.insert(t.id, t);
                }
                Err(why) => recovery
                    .notes
                    .push(format!("snapshot {} discarded: {why}", path.display())),
            }
        }

        // WAL suffix replay over the snapshots.
        let segments = sorted_files(&root.join("wal"), ".wal")?;
        let mut last_seg_index = 0u64;
        let mut stopped = false;
        for path in &segments {
            last_seg_index = last_seg_index.max(segment_index(path));
            if stopped {
                // A torn segment ends the valid prefix; later segments
                // are beyond it by construction. Replay discarded their
                // records, so the files must go too — left in place they
                // would resurrect the discarded suffix on the next boot,
                // once the truncation below turns the torn segment clean.
                let len = fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                recovery.discarded_bytes += len;
                recovery.notes.push(format!(
                    "segment {} beyond torn prefix: {len} bytes unlinked",
                    path.display()
                ));
                fs::remove_file(path).map_err(|e| StoreError::io("unlink", path, e))?;
                continue;
            }
            let bytes = fs::read(path).map_err(|e| StoreError::io("read", path, e))?;
            let (frames, end, lost) = read_all(&bytes);
            for payload in frames {
                replay_record(payload, &mut tenants, &mut recovery, &mut max_id_seen);
            }
            if lost > 0 {
                recovery.discarded_bytes += lost as u64;
                // Truncate the torn bytes away NOW: acked records written
                // after this recovery land in later segments, and a future
                // boot must replay through them. A torn tail left on disk
                // would end that boot's valid prefix right here and
                // discard every later segment — fsynced, acknowledged
                // records included.
                truncate_file(path, (bytes.len() - lost) as u64)?;
                recovery.notes.push(format!(
                    "segment {}: kept longest valid prefix, truncated {lost} bytes ({})",
                    path.display(),
                    match end {
                        FrameEnd::Torn => "torn tail",
                        FrameEnd::BadChecksum => "checksum mismatch",
                        FrameEnd::Clean => "clean",
                    }
                ));
                stopped = true;
            }
        }
        if stopped {
            sync_dir(&root.join("wal"));
        }

        recovery.next_id = recovery.next_id.max(max_id_seen + 1).max(1);
        #[expect(clippy::disallowed_methods, reason = "sorted by id on the next line")]
        let mut recovered: Vec<RecoveredTenant> = tenants.into_values().collect();
        recovered.sort_by_key(|t| t.id);
        recovery.tenants = recovered;

        // Appends go to a fresh segment: a possibly-torn tail is never
        // extended, so one recovery pass bounds the damage forever.
        let seg_index = last_seg_index + 1;
        let wal_path = segment_path(&root, seg_index);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&wal_path)
            .map_err(|e| StoreError::io("open", &wal_path, e))?;
        sync_dir(&root.join("wal"));

        let store = DataStore {
            root,
            wal: Mutex::new(WalWriter {
                file,
                seg_index,
                seg_bytes: 0,
            }),
            appends_since_checkpoint: AtomicU64::new(0),
            wal_appends: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            recoveries: AtomicU64::new(recovery.tenants.len() as u64),
            demotions: AtomicU64::new(0),
            rehydrations: AtomicU64::new(0),
            durations: StoreDurations::default(),
        };
        store.durations.recovery.record(started.elapsed());
        Ok((store, recovery))
    }

    /// The data directory this store owns.
    pub fn path(&self) -> &Path {
        &self.root
    }

    /// True once enough WAL has accumulated since the last checkpoint
    /// that the owner should call [`DataStore::checkpoint`].
    pub fn wants_checkpoint(&self) -> bool {
        self.appends_since_checkpoint.load(Ordering::Relaxed) >= CHECKPOINT_INTERVAL
    }

    /// Durably logs a tenant registration.
    pub fn log_register(
        &self,
        id: u64,
        schema: &Schema,
        query: &AggQuery,
        rows: &[Vec<Datum>],
    ) -> Result<(), StoreError> {
        self.append(&WalRecord::Register {
            id,
            schema: schema.clone(),
            query: query.clone(),
            rows: rows.iter().map(|r| encode_wire_row(r)).collect(),
        })
    }

    /// Durably logs an appended row batch. `seq` is the tenant's total
    /// row count *before* the batch.
    pub fn log_rows(&self, id: u64, seq: u64, rows: &[Vec<Datum>]) -> Result<(), StoreError> {
        self.append(&WalRecord::Rows {
            id,
            seq,
            rows: rows.iter().map(|r| encode_wire_row(r)).collect(),
        })
    }

    /// Durably logs a tenant deletion, then removes its snapshot and cube
    /// files. The tombstone lands first so a crash between the two steps
    /// still deletes the tenant on replay.
    pub fn log_remove(&self, id: u64) -> Result<(), StoreError> {
        self.append(&WalRecord::Remove { id })?;
        let _ = fs::remove_file(self.tenant_path(id));
        self.remove_tenant_cubes(id);
        Ok(())
    }

    /// Rotates the WAL to a fresh segment and returns that segment's
    /// index — the rotation point a subsequent [`DataStore::checkpoint`]
    /// truncates below. A checkpoint cycle must rotate FIRST and export
    /// tenant state AFTER: every record already logged then sits below
    /// the rotation point and is covered by the exports, while a record
    /// logged concurrently with the export lands in the fresh segment,
    /// which the truncation spares. Also restarts the checkpoint-interval
    /// counter ([`DataStore::wants_checkpoint`]).
    pub fn rotate_wal(&self) -> Result<u64, StoreError> {
        let mut wal = LockRank::StoreWal
            .lock(&self.wal)
            .unwrap_or_else(PoisonError::into_inner);
        let fresh = rotate_locked(&self.root, &mut wal)?;
        drop(wal);
        self.appends_since_checkpoint.store(0, Ordering::Relaxed);
        Ok(fresh)
    }

    /// Writes every tenant's full state to `tenants/`, persists the id
    /// watermark, then deletes the WAL segments below `rotation` — a
    /// value obtained from [`DataStore::rotate_wal`] *before* the tenant
    /// states were exported (see there for why that order is the
    /// crash-safety contract; the `seq` watermark makes any snapshot/WAL
    /// overlap idempotent on replay). Tenants absent from `tenants` lose
    /// their snapshot files (they were deleted).
    pub fn checkpoint(
        &self,
        next_id: u64,
        tenants: &[TenantCheckpoint],
        rotation: u64,
    ) -> Result<(), StoreError> {
        let started = clock();
        for t in tenants {
            let payload = serde_json::to_string(&Value::object([
                ("id", t.id.serialize()),
                ("schema", t.schema.serialize()),
                ("query", t.query.serialize()),
                (
                    "rows",
                    Value::Array(t.rows.iter().map(|r| encode_wire_row(r)).collect()),
                ),
            ]))
            .map_err(|e| StoreError::Encode(e.to_string()))?;
            let mut framed = Vec::with_capacity(payload.len() + 8);
            append_frame(&mut framed, payload.as_bytes());
            write_atomic(&self.tenant_path(t.id), &framed)?;
            self.snapshots.fetch_add(1, Ordering::Relaxed);
        }
        // Snapshot files for tenants that no longer exist are stale.
        let live: Vec<u64> = tenants.iter().map(|t| t.id).collect();
        for path in sorted_files(&self.root.join("tenants"), ".snap")? {
            let keep = tenant_id_of(&path).is_some_and(|id| live.contains(&id));
            if !keep {
                let _ = fs::remove_file(&path);
            }
        }

        let meta = format!("{{\"next_id\":{next_id}}}");
        write_atomic(&self.root.join("meta.json"), meta.as_bytes())?;

        // Drop every segment below the rotation point: the snapshots
        // above were exported after the rotation, so they cover that
        // prefix in full.
        for old in sorted_files(&self.root.join("wal"), ".wal")? {
            if segment_index(&old) < rotation {
                let _ = fs::remove_file(&old);
            }
        }
        sync_dir(&self.root.join("wal"));
        self.durations.checkpoint.record(started.elapsed());
        Ok(())
    }

    /// Persists a demoted cube's block snapshot (atomic tmp + rename).
    pub fn store_cube(
        &self,
        tenant: u64,
        fingerprint: u64,
        bytes: &[u8],
    ) -> Result<(), StoreError> {
        let mut framed = Vec::with_capacity(bytes.len() + 8);
        append_frame(&mut framed, bytes);
        write_atomic(&self.cube_path(tenant, fingerprint), &framed)?;
        self.demotions.fetch_add(1, Ordering::Relaxed);
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Loads a demoted cube's bytes, if a valid snapshot exists. A
    /// missing or corrupt file is `None` (the caller rebuilds from the
    /// session instead), and a corrupt file is unlinked on sight.
    ///
    /// A raw load is not yet a rehydration: the caller still validates
    /// the decoded cube's cache key and row watermark, and only a copy
    /// that actually serves counts — it reports that via
    /// [`DataStore::note_rehydration`].
    pub fn load_cube(&self, tenant: u64, fingerprint: u64) -> Option<Vec<u8>> {
        let path = self.cube_path(tenant, fingerprint);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => return None,
        };
        let (mut frames, end, _) = read_all(&bytes);
        if end != FrameEnd::Clean || frames.len() != 1 {
            tsexplain_obs::log::warn(
                "store",
                "cube snapshot is corrupt; discarding it",
                &[
                    ("tenant", Value::Number(tenant as f64)),
                    ("path", Value::String(path.display().to_string())),
                ],
            );
            let _ = fs::remove_file(&path);
            return None;
        }
        Some(frames.remove(0).to_vec())
    }

    /// Counts one served rehydration (see [`DataStore::load_cube`]):
    /// called once the loaded cube passed the caller's key + row-watermark
    /// checks, so stale or fingerprint-colliding loads that get discarded
    /// and rebuilt never inflate the `/metrics` store block.
    pub fn note_rehydration(&self) {
        self.rehydrations.fetch_add(1, Ordering::Relaxed);
    }

    /// Unlinks one demoted cube (e.g. after it was rehydrated and then
    /// legitimately dropped).
    pub fn drop_cube(&self, tenant: u64, fingerprint: u64) {
        let _ = fs::remove_file(self.cube_path(tenant, fingerprint));
    }

    /// The store's durability-operation latency histograms.
    pub fn durations(&self) -> &StoreDurations {
        &self.durations
    }

    /// A point-in-time copy of the store counters.
    pub fn metrics(&self) -> StoreMetrics {
        StoreMetrics {
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            demotions: self.demotions.load(Ordering::Relaxed),
            rehydrations: self.rehydrations.load(Ordering::Relaxed),
        }
    }

    fn append(&self, record: &WalRecord) -> Result<(), StoreError> {
        let payload =
            serde_json::to_string(record).map_err(|e| StoreError::Encode(e.to_string()))?;
        let mut framed = Vec::with_capacity(payload.len() + 8);
        append_frame(&mut framed, payload.as_bytes());

        let mut wal = LockRank::StoreWal
            .lock(&self.wal)
            .unwrap_or_else(PoisonError::into_inner);
        if wal.seg_bytes >= SEGMENT_BYTES {
            rotate_locked(&self.root, &mut wal)?;
        }
        let path = segment_path(&self.root, wal.seg_index);
        wal.file
            .write_all(&framed)
            .map_err(|e| StoreError::io("append", &path, e))?;
        let fsync_started = clock();
        #[expect(
            clippy::disallowed_methods,
            reason = "fsync before the ack is the durability contract; the WAL lock is last in the rank order"
        )]
        wal.file
            .sync_data()
            .map_err(|e| StoreError::io("fsync", &path, e))?;
        self.durations.fsync.record(fsync_started.elapsed());
        wal.seg_bytes += framed.len() as u64;
        drop(wal);

        self.wal_appends.fetch_add(1, Ordering::Relaxed);
        self.wal_bytes
            .fetch_add(framed.len() as u64, Ordering::Relaxed);
        self.appends_since_checkpoint
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn tenant_path(&self, id: u64) -> PathBuf {
        self.root.join("tenants").join(format!("t{id}.snap"))
    }

    fn cube_path(&self, tenant: u64, fingerprint: u64) -> PathBuf {
        self.root
            .join("cubes")
            .join(format!("t{tenant}-c{fingerprint:016x}.cube"))
    }

    fn remove_tenant_cubes(&self, tenant: u64) {
        let prefix = format!("t{tenant}-");
        if let Ok(entries) = fs::read_dir(self.root.join("cubes")) {
            for entry in entries.flatten() {
                if entry
                    .file_name()
                    .to_str()
                    .is_some_and(|n| n.starts_with(&prefix))
                {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
    }
}

/// Applies one WAL frame to the recovered-tenant map (module docs).
fn replay_record(
    payload: &[u8],
    tenants: &mut HashMap<u64, RecoveredTenant>,
    recovery: &mut Recovery,
    max_id_seen: &mut u64,
) {
    let record = match std::str::from_utf8(payload)
        .map_err(|e| e.to_string())
        .and_then(|t| serde_json::from_str::<WalRecord>(t).map_err(|e| e.to_string()))
    {
        Ok(r) => r,
        Err(why) => {
            // The frame passed its checksum but doesn't parse: a record
            // from a future version. Skip it rather than discard the log.
            recovery.records_skipped += 1;
            recovery
                .notes
                .push(format!("unreadable WAL record skipped: {why}"));
            return;
        }
    };
    match record {
        WalRecord::Register {
            id,
            schema,
            query,
            rows,
        } => {
            *max_id_seen = (*max_id_seen).max(id);
            if tenants.contains_key(&id) {
                // The snapshot is newer than the registration.
                recovery.records_skipped += 1;
                return;
            }
            if let Some(decoded) = decode_rows_or_note(&schema, &rows, id, recovery) {
                tenants.insert(
                    id,
                    RecoveredTenant {
                        id,
                        schema,
                        query,
                        rows: decoded,
                        from_snapshot: false,
                    },
                );
                recovery.records_applied += 1;
            }
        }
        WalRecord::Rows { id, seq, rows } => {
            *max_id_seen = (*max_id_seen).max(id);
            let Some(tenant) = tenants.get_mut(&id) else {
                recovery.records_skipped += 1;
                recovery
                    .notes
                    .push(format!("rows for unknown tenant {id} skipped"));
                return;
            };
            let have = tenant.rows.len() as u64;
            if seq > have {
                recovery.records_skipped += 1;
                recovery.notes.push(format!(
                    "rows for tenant {id} skipped: gap (seq {seq}, have {have})"
                ));
                return;
            }
            if seq + rows.len() as u64 <= have {
                // Entirely below the snapshot watermark.
                recovery.records_skipped += 1;
                return;
            }
            let fresh = &rows[(have - seq) as usize..];
            let schema = tenant.schema.clone();
            if let Some(mut decoded) = decode_rows_or_note(&schema, fresh, id, recovery) {
                tenants
                    .get_mut(&id)
                    .expect("tenant still present")
                    .rows
                    .append(&mut decoded);
                recovery.records_applied += 1;
            }
        }
        WalRecord::Remove { id } => {
            *max_id_seen = (*max_id_seen).max(id);
            tenants.remove(&id);
            recovery.records_applied += 1;
        }
    }
}

fn decode_rows_or_note(
    schema: &Schema,
    rows: &[Value],
    tenant: u64,
    recovery: &mut Recovery,
) -> Option<Vec<Vec<Datum>>> {
    let mut out = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        match decode_wire_row(schema, row) {
            Ok(r) => out.push(r),
            Err(e) => {
                recovery.records_skipped += 1;
                recovery
                    .notes
                    .push(format!("record for tenant {tenant} skipped: row {i}: {e}"));
                return None;
            }
        }
    }
    Some(out)
}

fn load_tenant_snapshot(path: &Path) -> Result<RecoveredTenant, String> {
    let bytes = fs::read(path).map_err(|e| e.to_string())?;
    let (frames, end, _) = read_all(&bytes);
    if end != FrameEnd::Clean || frames.len() != 1 {
        return Err("torn or corrupt frame".into());
    }
    let text = std::str::from_utf8(frames[0]).map_err(|e| e.to_string())?;
    let value: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let id: u64 = value.field("id").map_err(|e| e.to_string())?;
    let schema: Schema = value.field("schema").map_err(|e| e.to_string())?;
    let query: AggQuery = value.field("query").map_err(|e| e.to_string())?;
    let wire_rows: Vec<Value> = value.field("rows").map_err(|e| e.to_string())?;
    let mut rows = Vec::with_capacity(wire_rows.len());
    for (i, row) in wire_rows.iter().enumerate() {
        rows.push(decode_wire_row(&schema, row).map_err(|e| format!("row {i}: {e}"))?);
    }
    Ok(RecoveredTenant {
        id,
        schema,
        query,
        rows,
        from_snapshot: true,
    })
}

/// Files directly under `dir` whose name ends with `suffix`, sorted by
/// name (zero-padded segment names sort numerically).
fn sorted_files(dir: &Path, suffix: &str) -> Result<Vec<PathBuf>, StoreError> {
    let entries = fs::read_dir(dir).map_err(|e| StoreError::io("read dir", dir, e))?;
    let mut out: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(suffix))
        })
        .collect();
    out.sort();
    Ok(out)
}

fn segment_path(root: &Path, index: u64) -> PathBuf {
    root.join("wal").join(format!("{index:06}.wal"))
}

/// Points the writer at a freshly created next segment and returns its
/// index. Shared by size-triggered rotation and checkpoint rotation.
fn rotate_locked(root: &Path, wal: &mut WalWriter) -> Result<u64, StoreError> {
    let fresh = wal.seg_index + 1;
    let path = segment_path(root, fresh);
    wal.file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| StoreError::io("open", &path, e))?;
    wal.seg_index = fresh;
    wal.seg_bytes = 0;
    sync_dir(&root.join("wal"));
    Ok(fresh)
}

/// The clock behind [`StoreDurations`], and the store's only wall-clock
/// read: the histograms it feeds are reporting, never stored state.
#[expect(
    clippy::disallowed_methods,
    reason = "durations feed the fsync, checkpoint and recovery histograms only"
)]
fn clock() -> Instant {
    Instant::now()
}

/// Durably truncates `path` to its first `len` bytes.
fn truncate_file(path: &Path, len: u64) -> Result<(), StoreError> {
    let f = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| StoreError::io("open", path, e))?;
    f.set_len(len)
        .map_err(|e| StoreError::io("truncate", path, e))?;
    #[expect(
        clippy::disallowed_methods,
        reason = "recovery runs at open, before any lock exists; the cut must be durable"
    )]
    f.sync_all().map_err(|e| StoreError::io("fsync", path, e))?;
    Ok(())
}

/// The numeric index of a `{index:06}.wal` segment (0 if unparsable,
/// which sorts it before every real segment).
fn segment_index(path: &Path) -> u64 {
    path.file_stem()
        .and_then(|s| s.to_str())
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// The tenant id of a `t{id}.snap` file name.
fn tenant_id_of(path: &Path) -> Option<u64> {
    path.file_stem()
        .and_then(|s| s.to_str())
        .and_then(|s| s.strip_prefix('t'))
        .and_then(|s| s.parse().ok())
}

/// Write-then-rename with fsync at each step: readers see either the old
/// file or the complete new one, never a torn write.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp).map_err(|e| StoreError::io("create", &tmp, e))?;
        f.write_all(bytes)
            .map_err(|e| StoreError::io("write", &tmp, e))?;
        #[expect(
            clippy::disallowed_methods,
            reason = "the bytes must be durable before the rename publishes them"
        )]
        f.sync_all().map_err(|e| StoreError::io("fsync", &tmp, e))?;
    }
    fs::rename(&tmp, path).map_err(|e| StoreError::io("rename", path, e))?;
    if let Some(parent) = path.parent() {
        sync_dir(parent);
    }
    Ok(())
}

/// Best-effort directory fsync (makes renames and creations durable on
/// filesystems that need it; harmless where it isn't supported).
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        #[expect(
            clippy::disallowed_methods,
            reason = "makes renames and creations in the directory durable"
        )]
        let _ = d.sync_all();
    }
}
