//! Lock ranks: a debug-build check of the serving path's lock order.
//!
//! A serving process takes its locks in one documented order:
//!
//! ```text
//! checkpoint gate → registry map → session → store WAL
//! ```
//!
//! Each lock on that path is acquired through its [`LockRank`], which
//! hands back the guard wrapped in a [`Ranked`]. In debug builds every
//! thread counts the ranks it holds, and a *blocking* acquisition at or
//! below a rank the thread already holds panics, naming both ranks,
//! before it can block. A `try_lock` never blocks, so it is recorded but
//! not checked. Unlike a source-text rule, the check sees across calls:
//! a lock taken three frames down still counts. Release builds compile
//! none of the bookkeeping, and a [`Ranked`] is then the bare guard.

use std::ops::{Deref, DerefMut};
use std::sync::{
    LockResult, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
    TryLockError, TryLockResult,
};

/// One lock's place in the documented order; earlier ranks are taken
/// first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockRank {
    /// The registry's checkpoint gate: one checkpoint cycle at a time.
    CheckpointGate,
    /// The registry's tenant map.
    RegistryMap,
    /// One tenant's session.
    Session,
    /// The store's WAL writer.
    StoreWal,
}

impl LockRank {
    /// Blocks on `mutex` as a lock of this rank.
    ///
    /// # Panics
    ///
    /// In debug builds, if the thread already holds a lock of this rank
    /// or a later one.
    pub fn lock<T>(self, mutex: &Mutex<T>) -> LockResult<Ranked<MutexGuard<'_, T>>> {
        let held = self.enter();
        ranked(mutex.lock(), held)
    }

    /// Tries `mutex` as a lock of this rank. Never blocks, so never
    /// checked; a success is recorded like a blocking acquisition.
    pub fn try_lock<T>(self, mutex: &Mutex<T>) -> TryLockResult<Ranked<MutexGuard<'_, T>>> {
        match mutex.try_lock() {
            Ok(guard) => Ok(Ranked::new(guard, self.record())),
            Err(TryLockError::Poisoned(poisoned)) => Err(TryLockError::Poisoned(PoisonError::new(
                Ranked::new(poisoned.into_inner(), self.record()),
            ))),
            Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
        }
    }

    /// Blocks on a shared read of `lock` as a lock of this rank (panics
    /// as [`LockRank::lock`] does).
    pub fn read<T>(self, lock: &RwLock<T>) -> LockResult<Ranked<RwLockReadGuard<'_, T>>> {
        let held = self.enter();
        ranked(lock.read(), held)
    }

    /// Blocks on an exclusive write of `lock` as a lock of this rank
    /// (panics as [`LockRank::lock`] does).
    pub fn write<T>(self, lock: &RwLock<T>) -> LockResult<Ranked<RwLockWriteGuard<'_, T>>> {
        let held = self.enter();
        ranked(lock.write(), held)
    }

    /// Checks a blocking acquisition against the ranks this thread holds,
    /// then records it.
    fn enter(self) -> Held {
        #[cfg(debug_assertions)]
        HELD.with(|held| {
            let counts = held.get();
            let clash = LockRank::ALL
                .into_iter()
                .rev()
                .find(|&rank| rank >= self && counts[rank as usize] > 0);
            if let Some(clash) = clash {
                panic!(
                    "lock rank violation: blocking on a {self:?} lock while this thread \
                     holds a {clash:?} lock; the order is {:?}",
                    LockRank::ALL
                );
            }
        });
        self.record()
    }

    /// Records that this thread now holds a lock of this rank.
    fn record(self) -> Held {
        #[cfg(debug_assertions)]
        HELD.with(|held| {
            let mut counts = held.get();
            counts[self as usize] += 1;
            held.set(counts);
        });
        Held {
            #[cfg(debug_assertions)]
            rank: self,
        }
    }
}

#[cfg(debug_assertions)]
impl LockRank {
    const ALL: [LockRank; 4] = [
        LockRank::CheckpointGate,
        LockRank::RegistryMap,
        LockRank::Session,
        LockRank::StoreWal,
    ];
}

#[cfg(debug_assertions)]
thread_local! {
    /// How many locks of each rank the current thread holds.
    static HELD: std::cell::Cell<[u32; 4]> = const { std::cell::Cell::new([0; 4]) };
}

/// This thread's record of one held rank; dropping it ends the record.
/// A zero-sized no-op in release builds.
#[derive(Debug)]
struct Held {
    #[cfg(debug_assertions)]
    rank: LockRank,
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        // `try_with`: a guard dropped during thread teardown has nothing
        // left to check.
        let _ = HELD.try_with(|held| {
            let mut counts = held.get();
            counts[self.rank as usize] -= 1;
            held.set(counts);
        });
    }
}

/// A guard taken through a [`LockRank`]. Derefs to the locked value;
/// dropping it releases the lock, then the rank.
#[derive(Debug)]
#[must_use = "dropping a ranked guard releases the lock at once"]
pub struct Ranked<G> {
    guard: G,
    _held: Held,
}

impl<G> Ranked<G> {
    fn new(guard: G, held: Held) -> Self {
        Ranked { guard, _held: held }
    }
}

impl<G: Deref> Deref for Ranked<G> {
    type Target = G::Target;

    fn deref(&self) -> &G::Target {
        &self.guard
    }
}

impl<G: DerefMut> DerefMut for Ranked<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.guard
    }
}

/// Wraps a blocking acquisition's result, poisoned or not.
fn ranked<G>(result: LockResult<G>, held: Held) -> LockResult<Ranked<G>> {
    match result {
        Ok(guard) => Ok(Ranked::new(guard, held)),
        Err(poisoned) => Err(PoisonError::new(Ranked::new(poisoned.into_inner(), held))),
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The panic message of `f`, or `None` if it returned.
    fn panic_message(f: impl FnOnce()) -> Option<String> {
        let payload = catch_unwind(AssertUnwindSafe(f)).err()?;
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
    }

    #[test]
    fn the_documented_order_is_accepted() {
        let (gate, map, session, wal) =
            (Mutex::new(()), RwLock::new(0), Mutex::new(0), Mutex::new(0));
        let _gate = LockRank::CheckpointGate.lock(&gate).unwrap();
        let _map = LockRank::RegistryMap.read(&map).unwrap();
        let _session = LockRank::Session.lock(&session).unwrap();
        let _wal = LockRank::StoreWal.lock(&wal).unwrap();
    }

    #[test]
    fn an_out_of_order_blocking_acquisition_panics_naming_both_ranks() {
        let (map, session) = (RwLock::new(0), Mutex::new(0));
        let message = panic_message(|| {
            let _session = LockRank::Session.lock(&session).unwrap();
            let _map = LockRank::RegistryMap.write(&map).unwrap();
        })
        .expect("session → registry map must panic");
        assert!(
            message.contains("blocking on a RegistryMap lock"),
            "{message}"
        );
        assert!(message.contains("holds a Session lock"), "{message}");
        // The panic fired before the acquisition and unwound the session
        // guard, so the thread holds nothing now.
        let _map = LockRank::RegistryMap.write(&map).unwrap();
    }

    #[test]
    fn a_second_lock_of_the_same_rank_panics() {
        let (a, b) = (Mutex::new(0), Mutex::new(0));
        let message = panic_message(|| {
            let _a = LockRank::Session.lock(&a).unwrap();
            let _b = LockRank::Session.lock(&b).unwrap();
        })
        .expect("two session locks must panic");
        assert!(message.contains("blocking on a Session lock"), "{message}");
        assert!(message.contains("holds a Session lock"), "{message}");
    }

    #[test]
    fn a_try_lock_under_a_higher_rank_does_not_panic_but_is_recorded() {
        let (gate, session, other) = (Mutex::new(()), Mutex::new(0), Mutex::new(0));
        let held = LockRank::Session.lock(&session).unwrap();
        assert!(LockRank::CheckpointGate.try_lock(&gate).is_ok());
        let other = LockRank::Session.try_lock(&other).unwrap();
        // A try_lock that finds its lock taken records nothing.
        let again = LockRank::Session.try_lock(&session);
        assert!(matches!(again, Err(TryLockError::WouldBlock)));
        drop(held);
        // The successful try_lock still counts against a blocking one.
        let message = panic_message(|| {
            let _gate = LockRank::CheckpointGate.lock(&gate).unwrap();
        })
        .expect("a blocking gate lock under a held session must panic");
        assert!(message.contains("holds a Session lock"), "{message}");
        drop(other);
    }

    #[test]
    fn an_early_drop_updates_the_held_ranks() {
        let (map, session, wal) = (RwLock::new(0), Mutex::new(0), Mutex::new(0));
        let first = LockRank::Session.lock(&session).unwrap();
        drop(first);
        // Nothing is held: the map may be taken.
        let map_guard = LockRank::RegistryMap.read(&map).unwrap();
        let session_guard = LockRank::Session.lock(&session).unwrap();
        // Dropping the earlier-ranked guard first leaves the session held…
        drop(map_guard);
        let message = panic_message(|| {
            let _map = LockRank::RegistryMap.read(&map).unwrap();
        })
        .expect("the session is still held");
        assert!(message.contains("holds a Session lock"), "{message}");
        // …and the WAL, ranked after it, may still be taken.
        let _wal = LockRank::StoreWal.lock(&wal).unwrap();
        drop(session_guard);
    }

    #[test]
    fn a_poisoned_lock_still_releases_its_rank() {
        let session = Mutex::new(0);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = session.lock().unwrap();
            panic!("poison the session");
        }));
        let guard = LockRank::Session.lock(&session);
        assert!(guard.is_err());
        drop(guard);
        let _again = LockRank::Session
            .lock(&session)
            .unwrap_or_else(PoisonError::into_inner);
    }
}
