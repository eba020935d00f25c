//! The spill tier: where a session's evicted cubes go when a durable
//! store backs the process.
//!
//! Without a store, eviction under memory pressure *drops* a cube and
//! the next request for it pays a full rebuild. With one, eviction
//! *demotes* instead: the cube's block snapshot
//! ([`tsexplain_cube::IncrementalCube::to_snapshot_bytes`]) is written
//! to the data directory, and a later cache miss rehydrates it
//! bit-identically — decode, not recompute. The session stays ignorant
//! of tenancy and file layout: it talks to a [`CubeSpill`], and the
//! registry hands each session a [`TenantSpill`] scoped to its tenant id
//! inside the shared [`DataStore`].
//!
//! A demoted copy is only valid at the exact row watermark it was taken
//! at; the session checks that on rehydration and calls
//! [`CubeSpill::discard`] on stale copies (rows arrived after the
//! demotion), falling back to a rebuild.
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use std::fmt;
use std::sync::Arc;

use tsexplain_store::DataStore;

/// A second eviction tier for a session's cube cache (module docs).
///
/// `demote` returns whether the snapshot is durably stored — on `false`
/// (an I/O failure) the caller counts a plain eviction and the cube is
/// simply gone, exactly as if no spill tier existed.
pub trait CubeSpill: Send + Sync + fmt::Debug {
    /// Persists a demoted cube's snapshot under its cache-key
    /// fingerprint; returns whether it is durable.
    fn demote(&self, fingerprint: u64, bytes: &[u8]) -> bool;
    /// Loads a previously demoted cube's bytes, if a valid copy exists.
    fn rehydrate(&self, fingerprint: u64) -> Option<Vec<u8>>;
    /// Counts one served rehydration. Called only after the loaded copy
    /// passed the session's cache-key + row-watermark checks, so stale or
    /// colliding loads that get discarded never inflate the tier's
    /// rehydration metric.
    fn note_rehydrated(&self);
    /// Unlinks a demoted copy that can no longer serve (stale watermark).
    fn discard(&self, fingerprint: u64);
}

/// [`CubeSpill`] over one tenant's slice of a shared [`DataStore`].
pub(crate) struct TenantSpill {
    store: Arc<DataStore>,
    tenant: u64,
}

impl TenantSpill {
    pub(crate) fn new(store: Arc<DataStore>, tenant: u64) -> Self {
        TenantSpill { store, tenant }
    }
}

impl fmt::Debug for TenantSpill {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TenantSpill")
            .field("tenant", &self.tenant)
            .field("dir", &self.store.path())
            .finish()
    }
}

impl CubeSpill for TenantSpill {
    fn demote(&self, fingerprint: u64, bytes: &[u8]) -> bool {
        match self.store.store_cube(self.tenant, fingerprint, bytes) {
            Ok(()) => true,
            Err(e) => {
                tsexplain_obs::log::warn(
                    "store",
                    "demoting a cube failed; dropping it instead",
                    &[
                        ("tenant", serde::Value::Number(self.tenant as f64)),
                        ("error", serde::Value::String(e.to_string())),
                    ],
                );
                false
            }
        }
    }

    fn rehydrate(&self, fingerprint: u64) -> Option<Vec<u8>> {
        self.store.load_cube(self.tenant, fingerprint)
    }

    fn note_rehydrated(&self) {
        self.store.note_rehydration();
    }

    fn discard(&self, fingerprint: u64) {
        self.store.drop_cube(self.tenant, fingerprint)
    }
}
