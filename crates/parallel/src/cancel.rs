//! Cooperative cancellation for the parallel execution layer.
//!
//! A [`CancelToken`] is a cheap, cloneable handle polled by long-running
//! compute loops (cube enumeration, cost-matrix cells, DP layers, auto-K
//! sweeps) at their natural chunk boundaries. Cancellation is **sticky**
//! and **all-or-nothing**: once a poll observes the token cancelled it
//! stays cancelled, the enclosing request discards every partial result
//! and surfaces a typed error, and a rerun of the same request without a
//! token is byte-identical to a run that never carried one — polling is
//! observation only, it never feeds the computation.
//!
//! Three trip conditions, checked in poll order:
//!
//! 1. an explicit [`CancelToken::cancel`] call,
//! 2. a wall-clock deadline ([`CancelToken::with_deadline`]) — the one
//!    place in the determinism-scoped crates that may read the clock,
//!    because its only effect is *whether* the request errors, never what
//!    a successful answer contains,
//! 3. a poll-count fuse ([`CancelToken::after_polls`]), the deterministic
//!    test hook the cancellation-injection proptests use to trip at an
//!    arbitrary poll point without involving time at all.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    /// Wall-clock trip point, if this token carries a deadline.
    deadline: Option<Instant>,
    /// Deterministic trip point: cancel once `polls` reaches this count.
    fuse: Option<u64>,
    /// Total polls observed, across every clone and thread.
    polls: AtomicU64,
}

/// A shared cancellation flag polled cooperatively by compute loops
/// (see module docs). Clones observe the same state.
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    fn with_inner(deadline: Option<Instant>, fuse: Option<u64>) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline,
                fuse,
                polls: AtomicU64::new(0),
            }),
        }
    }

    /// A token that only trips on an explicit [`CancelToken::cancel`].
    pub fn new() -> Self {
        CancelToken::with_inner(None, None)
    }

    /// A token that trips once the wall clock reaches `deadline` (or on
    /// an explicit cancel, whichever comes first).
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken::with_inner(Some(deadline), None)
    }

    /// A token that trips once more than `n` polls have been observed —
    /// the deterministic injection hook for cancellation proptests.
    /// `n = 0` is cancelled from the first poll on.
    pub fn after_polls(n: u64) -> Self {
        CancelToken::with_inner(None, Some(n))
    }

    /// Cancels the token explicitly; every subsequent poll (on any clone,
    /// from any thread) observes it.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Polls the token: true once cancelled (explicitly, past the
    /// deadline, or past the poll fuse). Sticky — never reverts.
    pub fn is_cancelled(&self) -> bool {
        let inner = &*self.inner;
        let polls = inner.polls.fetch_add(1, Ordering::Relaxed) + 1;
        if inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(fuse) = inner.fuse {
            if polls > fuse {
                inner.cancelled.store(true, Ordering::Relaxed);
                return true;
            }
        }
        if let Some(deadline) = inner.deadline {
            #[expect(
                clippy::disallowed_methods,
                reason = "the deadline decides only whether the request errors, never what a successful answer contains"
            )]
            let now = Instant::now();
            if now >= deadline {
                inner.cancelled.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Total polls observed so far across every clone — what the
    /// injection proptests use to bound their fuse range.
    pub fn polls(&self) -> u64 {
        self.inner.polls.load(Ordering::Relaxed)
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

/// Clone-identity equality: two tokens are equal when they share state.
/// (Lets request types that embed an optional token keep `PartialEq`.)
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Eq for CancelToken {}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests build expired and distant deadlines from the clock"
)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn explicit_cancel_is_sticky_and_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled());
        assert!(token.is_cancelled(), "sticky");
        assert_eq!(token, clone);
        assert_ne!(token, CancelToken::new());
    }

    #[test]
    fn deadline_trips_once_passed() {
        let expired = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(expired.is_cancelled());
        let distant = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!distant.is_cancelled());
    }

    #[test]
    fn poll_fuse_trips_deterministically() {
        let token = CancelToken::after_polls(3);
        assert!(!token.is_cancelled());
        assert!(!token.is_cancelled());
        assert!(!token.is_cancelled());
        assert!(token.is_cancelled(), "fourth poll exceeds the fuse of 3");
        assert!(token.is_cancelled(), "sticky");
        assert!(CancelToken::after_polls(0).is_cancelled(), "0 = immediate");
        assert!(token.polls() >= 5);
    }

    #[test]
    fn polls_count_across_threads() {
        let token = CancelToken::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let token = token.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        assert!(!token.is_cancelled());
                    }
                });
            }
        });
        assert_eq!(token.polls(), 400);
    }
}
