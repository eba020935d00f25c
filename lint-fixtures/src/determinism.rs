//! Determinism: as denied at the roots of cube, segment, diff, baselines
//! and parallel (and of store and registry).
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use std::collections::{BTreeMap, HashMap, HashSet};

/// VIOLATION (disallowed_methods): emission order is the hash order.
pub fn emit_scores(scores: &HashMap<String, f64>) -> Vec<String> {
    scores.iter().map(|(k, v)| format!("{k}={v}")).collect()
}

/// VIOLATION (iter_over_hash_type): `for` over a HashSet.
pub fn emit_seen(seen: &HashSet<u32>) -> Vec<u32> {
    let mut out = Vec::new();
    for x in seen {
        out.push(*x);
    }
    out
}

/// VIOLATION (disallowed_methods): an order-insensitive use still needs
/// a reasoned exemption.
pub fn value_total(scores: &HashMap<String, f64>) -> f64 {
    scores.values().sum()
}

/// ALLOWED: an order-insensitive reduction under a reasoned exemption.
#[expect(
    clippy::disallowed_methods,
    reason = "order-insensitive integer sum; no emission"
)]
pub fn byte_total(sizes: &HashMap<String, usize>) -> usize {
    sizes.values().sum()
}

/// VIOLATION (disallowed_methods, one per line): every other hash-order
/// method in clippy.toml.
pub fn hash_order_methods(mut map: HashMap<u32, u32>, mut set: HashSet<u32>) -> Vec<u32> {
    let mut out: Vec<u32> = map.keys().copied().collect();
    out.extend(map.iter_mut().map(|(_, v)| *v));
    out.extend(map.values_mut().map(|v| *v));
    map.retain(|_, v| *v > 1);
    out.extend(map.drain().map(|(k, _)| k));
    out.extend(HashMap::from([(1, 2)]).into_keys());
    out.extend(HashMap::from([(3, 4)]).into_values());
    out.extend(set.iter().copied());
    set.retain(|x| *x > 1);
    out.extend(set.drain());
    out
}

/// CLEAN: construction and lookup never iterate.
pub fn lookup(scores: &HashMap<String, f64>, key: &str) -> Option<f64> {
    scores.get(key).copied()
}

/// CLEAN: BTreeMap iteration is ordered.
pub fn emit_sorted(sorted: &BTreeMap<String, f64>) -> Vec<String> {
    sorted.iter().map(|(k, v)| format!("{k}={v}")).collect()
}

/// VIOLATION (disallowed_methods): a timestamp is a nondeterministic
/// input.
pub fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}

/// VIOLATION (disallowed_methods): so is the system clock.
pub fn wall_time() -> std::time::SystemTime {
    std::time::SystemTime::now()
}

/// ALLOWED: timing that is stripped before goldens compare.
#[expect(
    clippy::disallowed_methods,
    reason = "feeds stage timers; golden-stripped"
)]
pub fn timed() -> std::time::Duration {
    let start = std::time::Instant::now();
    start.elapsed()
}

/// VIOLATION (disallowed_methods): an undocumented environment knob.
pub fn secret_tuning() -> Option<String> {
    std::env::var("TSX_SECRET_MODE").ok()
}

/// VIOLATION (disallowed_methods, one per line): the other environment
/// reads.
pub fn environment() -> (bool, usize) {
    let set = std::env::var_os("TSX_SECRET_MODE").is_some();
    (set, std::env::vars().count())
}

/// ALLOWED: a documented knob, read under its reason.
#[expect(
    clippy::disallowed_methods,
    reason = "TSX_THREADS is the documented thread-count knob"
)]
pub fn threads() -> Option<String> {
    std::env::var("TSX_THREADS").ok()
}

/// KNOWN GAP (silent): clippy cannot name the trait method
/// `HashMap::into_iter`, so an explicit call outside a `for` loop passes.
/// The goldens and the parallel-vs-sequential proptests catch what this
/// misses.
pub fn into_pairs(scores: HashMap<String, f64>) -> Vec<(String, f64)> {
    scores.into_iter().collect()
}
