//! Exemptions: every one is an `#[expect]` that names a real lint, gives
//! a reason and suppresses something.
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use std::collections::HashMap;

/// VIOLATION (allow_attributes_without_reason): the reason is mandatory.
#[expect(clippy::disallowed_methods)]
pub fn missing_reason(scores: &HashMap<String, f64>) -> f64 {
    scores.values().sum()
}

/// VIOLATION (unknown_lints): the lint must exist. An unknown name
/// suppresses nothing, so the call is reported too (disallowed_methods).
#[expect(clippy::hash_chaos, reason = "with a perfectly fine reason")]
pub fn unknown_lint(scores: &HashMap<String, f64>) -> Vec<String> {
    scores.keys().cloned().collect()
}

/// VIOLATION (unfulfilled_lint_expectations): nothing here reads a clock.
pub fn stale(a: u32) -> u32 {
    #[expect(
        clippy::disallowed_methods,
        reason = "this statement never reads a clock"
    )]
    let x = a + 1;
    x * 2
}

/// VIOLATION (allow_attributes): an `#[allow]` cannot report itself
/// stale; write `#[expect]`.
#[allow(clippy::disallowed_methods, reason = "order-insensitive sum")]
pub fn allowed(sizes: &HashMap<String, usize>) -> usize {
    sizes.values().sum()
}

/// CLEAN: a well-formed, used exemption (the reason may contain parens).
#[expect(
    clippy::disallowed_methods,
    reason = "order-insensitive sum (commutative monoid)"
)]
pub fn used(sizes: &HashMap<String, usize>) -> usize {
    sizes.values().sum()
}
