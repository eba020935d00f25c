//! # tsexplain-store
//!
//! The durable storage engine under a TSExplain serving deployment:
//! a CRC-framed, fsynced, segment-rotated write-ahead log of every
//! tenant registration / row batch / deletion, checkpoint snapshots
//! that truncate it, block snapshots of demoted cubes, and
//! recovery-on-boot that reconstructs every tenant from whatever valid
//! prefix a crash left behind.
//!
//! The crate is dependency-free in the workspace's vendoring spirit:
//! `std::fs` for I/O, the vendored `serde`/`serde_json` for record
//! payloads (the same encodings the HTTP wire uses, so a WAL is
//! readable with the API's own vocabulary), a hand-rolled CRC-32, and
//! `tsexplain-obs` for fsync/checkpoint/recovery latency histograms and
//! structured logging.
//! It knows nothing about cubes beyond "a blob of bytes with a
//! fingerprint" — cube snapshot encoding lives with the cube, framing
//! and placement live here.
//!
//! Entry point: [`DataStore::open`], which recovers and then serves.
//! The `store` module docs (`src/store.rs`) give the on-disk layout and
//! the exact recovery semantics.

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout)]
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]
mod crc32;
mod error;
mod frame;
mod rank;
mod store;
mod wal;

pub use error::StoreError;
pub use rank::{LockRank, Ranked};
pub use store::{
    DataStore, RecoveredTenant, Recovery, StoreDurations, StoreMetrics, TenantCheckpoint,
};
pub use wal::WalRecord;
