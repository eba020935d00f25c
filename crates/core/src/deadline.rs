//! Per-request deadlines: the serving-side budget behind cooperative
//! cancellation.
//!
//! A [`Deadline`] is minted once per request — from the server's
//! `--request-timeout-ms` cap and/or the request's own wire `timeout_ms`
//! (clamped to the cap, so a client can tighten but never loosen the
//! server's budget) — and carries the [`CancelToken`] the compute layers
//! poll. The contract is all-or-nothing: a request either completes
//! byte-identical to an undeadlined run, or errors with
//! [`crate::TsExplainError::Cancelled`] and every partial result
//! (half-built cube, truncated DP table, unpriced memo entries) is
//! discarded. This module is the *only* place the serving path reads the
//! clock for deadline purposes; the determinism-scoped compute crates see
//! nothing but the token.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]

use std::time::{Duration, Instant};

pub use tsexplain_parallel::CancelToken;

/// A request's time budget: when it started, how much it was given, and
/// the shared token that trips once the budget is spent.
#[derive(Clone, Debug)]
pub struct Deadline {
    started: Instant,
    budget: Duration,
    token: CancelToken,
}

impl Deadline {
    /// Mints a deadline of `budget` starting now.
    pub fn new(budget: Duration) -> Self {
        let started = Instant::now();
        Deadline {
            started,
            budget,
            token: CancelToken::with_deadline(started + budget),
        }
    }

    /// Mints the effective deadline for a request: the server cap, the wire
    /// `timeout_ms` clamped to the cap, or `None` when neither applies
    /// (requests without a budget run exactly as before this layer
    /// existed).
    pub fn mint(server_cap: Option<Duration>, wire_timeout_ms: Option<u64>) -> Option<Deadline> {
        let wire = wire_timeout_ms.map(Duration::from_millis);
        let budget = match (server_cap, wire) {
            (Some(cap), Some(w)) => Some(w.min(cap)),
            (Some(cap), None) => Some(cap),
            (None, Some(w)) => Some(w),
            (None, None) => None,
        };
        budget.map(Deadline::new)
    }

    /// The cancellation token compute loops poll. Cloning is cheap and all
    /// clones share state.
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// Milliseconds elapsed since the deadline was minted — the honest
    /// figure a `deadline_exceeded` error reports.
    pub fn elapsed_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// The budget in milliseconds.
    pub fn budget_ms(&self) -> u64 {
        self.budget.as_millis() as u64
    }

    /// Whether the budget is already spent (also trips the token).
    pub fn expired(&self) -> bool {
        self.token.is_cancelled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mint_clamps_wire_to_cap() {
        let d = Deadline::mint(Some(Duration::from_millis(100)), Some(5_000)).unwrap();
        assert_eq!(d.budget_ms(), 100, "wire timeout cannot loosen the cap");
        let d = Deadline::mint(Some(Duration::from_millis(100)), Some(20)).unwrap();
        assert_eq!(d.budget_ms(), 20, "wire timeout may tighten it");
    }

    #[test]
    fn mint_without_either_is_none() {
        assert!(Deadline::mint(None, None).is_none());
        assert_eq!(Deadline::mint(None, Some(7)).unwrap().budget_ms(), 7);
        let cap_only = Deadline::mint(Some(Duration::from_millis(9)), None).unwrap();
        assert_eq!(cap_only.budget_ms(), 9);
    }

    #[test]
    fn zero_budget_expires_immediately() {
        let d = Deadline::new(Duration::from_millis(0));
        assert!(d.expired());
        assert!(d.token().is_cancelled(), "sticky");
    }

    #[test]
    fn generous_budget_does_not_expire() {
        let d = Deadline::new(Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(d.elapsed_ms() < 3_600_000);
    }
}
