//! CLEAN: idiomatic code under every scope at once; trips nothing.
#![deny(
    clippy::disallowed_methods,
    clippy::iter_over_hash_type,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]

use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, PoisonError};

/// Ordered emission and typed errors.
pub fn summarize(data: &BTreeMap<String, f64>) -> Result<String, String> {
    let mut out = String::new();
    for (key, value) in data {
        out.push_str(key);
        out.push('=');
        out.push_str(&value.to_string());
        out.push('\n');
    }
    if out.is_empty() {
        return Err("no data".to_string());
    }
    Ok(out)
}

/// Hash maps are fine to build and query.
pub fn tally(words: &[&str]) -> Option<usize> {
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for w in words {
        *counts.entry(w).or_default() += 1;
    }
    counts.get("the").copied()
}

/// One lock at a time, poison recovered.
pub fn counter_value(lock: &Mutex<u64>) -> u64 {
    let guard = lock.lock().unwrap_or_else(PoisonError::into_inner);
    *guard
}
