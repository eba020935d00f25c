//! Fsync: as denied on the store crate and core's registry module.
//! Every fsync carries its reason.
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use std::fs::File;
use std::sync::{Mutex, PoisonError};

/// VIOLATION (disallowed_methods): fsync latency under a held lock stalls
/// every waiter.
pub fn sync_under_guard(wal: &Mutex<File>) -> std::io::Result<()> {
    let file = wal.lock().unwrap_or_else(PoisonError::into_inner);
    file.sync_all()?;
    Ok(())
}

/// VIOLATION (disallowed_methods): `sync_data` is an fsync too.
pub fn sync_data_only(file: &File) -> std::io::Result<()> {
    file.sync_data()
}

/// ALLOWED: the deliberate fsync-before-ack, with its reason.
pub fn append_then_ack(wal: &Mutex<File>) -> std::io::Result<()> {
    let file = wal.lock().unwrap_or_else(PoisonError::into_inner);
    #[expect(
        clippy::disallowed_methods,
        reason = "fsync before the ack is the durability contract"
    )]
    file.sync_data()?;
    Ok(())
}
