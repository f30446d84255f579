//! Poison-recovering lock primitives for the serving layer.
//!
//! The service's cache tiers and the runtime's mailboxes are shared
//! across worker threads that execute *caller-supplied* requests under
//! panic isolation (`catch_unwind`). A panicking holder poisons a
//! `std::sync::Mutex`, and the default `lock().unwrap()` idiom then turns
//! one isolated panic into a permanently wedged cache — every later
//! request dies on the poisoned lock. These wrappers recover the guard
//! from the `PoisonError` instead.
//!
//! Recovery is sound here because no critical section in this crate runs
//! caller code while holding a lock (cache `make()` closures and request
//! execution all happen *outside* the guard), and every mutation the
//! guarded structures perform (`HashMap`/`Lru`/`VecDeque` insert, remove,
//! pop) either completes or leaves the structure unchanged — there is no
//! multi-step invariant a mid-operation unwind could tear.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A `std::sync::Mutex` whose `lock` recovers from poisoning instead of
/// propagating it (`parking_lot`-style non-poisoning semantics, without
/// the dependency).
#[derive(Debug, Default)]
pub struct PoisonFreeMutex<T> {
    inner: Mutex<T>,
}

impl<T> PoisonFreeMutex<T> {
    /// Wraps `value`.
    pub fn new(value: T) -> Self {
        PoisonFreeMutex {
            inner: Mutex::new(value),
        }
    }

    /// Acquires the lock, recovering the guard if a previous holder
    /// panicked.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A condition variable paired with [`PoisonFreeMutex`]: waits recover
/// their guard from poisoning the same way `lock` does.
#[derive(Debug, Default)]
pub struct PoisonFreeCondvar {
    inner: Condvar,
}

impl PoisonFreeCondvar {
    /// A new condition variable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Blocks until notified, re-acquiring (and if necessary un-poisoning)
    /// the guard.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.inner
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    #[test]
    fn lock_survives_a_panicking_holder() {
        let m = Arc::new(PoisonFreeMutex::new(7u32));
        let m2 = Arc::clone(&m);
        let result = catch_unwind(AssertUnwindSafe(move || {
            let _guard = m2.lock();
            panic!("holder dies");
        }));
        assert!(result.is_err());
        // A std Mutex would now be poisoned; this one hands the value back.
        assert_eq!(*m.lock(), 7);
        *m.lock() = 8;
        assert_eq!(*m.lock(), 8);
    }

    #[test]
    fn condvar_wakes_after_poisoning() {
        let pair = Arc::new((PoisonFreeMutex::new(false), PoisonFreeCondvar::new()));
        // Poison the mutex first.
        let p = Arc::clone(&pair);
        let _ = catch_unwind(AssertUnwindSafe(move || {
            let _guard = p.0.lock();
            panic!("poison");
        }));
        let p = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            *p.0.lock() = true;
            p.1.notify_all();
        });
        let (lock, cv) = &*pair;
        let mut done = lock.lock();
        while !*done {
            done = cv.wait(done);
        }
        t.join().expect("setter thread");
    }
}
