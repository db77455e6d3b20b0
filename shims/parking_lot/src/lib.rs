//! Minimal offline stand-in for the `parking_lot` crate, backed by
//! `std::sync` primitives. Only the API surface this workspace uses is
//! provided: [`Mutex`], [`RwLock`], and [`Condvar`] with parking_lot's
//! non-poisoning, guard-by-reference signatures.

// This crate is the workspace's one wrapper of the `std::sync` locks that
// `clippy.toml` bans everywhere else.
#![allow(clippy::disallowed_types)]

use std::sync;

/// A mutex that never poisons: panicking while holding the lock simply
/// releases it (parking_lot semantics).
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

/// RAII guard for [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    // `Option` so Condvar::wait can temporarily take the std guard.
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Create a mutex.
    pub const fn new(value: T) -> Self {
        Self {
            inner: sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, ignoring poison.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let guard = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        MutexGuard { inner: Some(guard) }
    }
}

impl<'a, T: ?Sized> std::ops::Deref for MutexGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<'a, T: ?Sized> std::ops::DerefMut for MutexGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

/// Condition variable operating on [`MutexGuard`]s by mutable reference
/// (parking_lot's signature, vs std's by-value guards).
#[derive(Debug, Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// Create a condition variable.
    pub const fn new() -> Self {
        Self {
            inner: sync::Condvar::new(),
        }
    }

    /// Block until notified. Spurious wakeups possible, as usual.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let std_guard = guard.inner.take().expect("guard present");
        let std_guard = match self.inner.wait(std_guard) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        guard.inner = Some(std_guard);
    }

    /// Wake one waiter.
    pub fn notify_one(&self) -> bool {
        self.inner.notify_one();
        true
    }

    /// Wake all waiters.
    pub fn notify_all(&self) -> usize {
        self.inner.notify_all();
        0
    }
}

/// A reader-writer lock that never poisons.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

/// Shared-read guard.
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
}

/// Exclusive-write guard.
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Create an RwLock.
    pub const fn new(value: T) -> Self {
        Self {
            inner: sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let g = match self.inner.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        RwLockReadGuard { inner: g }
    }

    /// Acquire an exclusive write lock.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let g = match self.inner.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        RwLockWriteGuard { inner: g }
    }
}

impl<'a, T: ?Sized> std::ops::Deref for RwLockReadGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<'a, T: ?Sized> std::ops::Deref for RwLockWriteGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<'a, T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_and_condvar_roundtrip() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut ready = m.lock();
            *ready = true;
            cv.notify_one();
            drop(ready);
        });
        let (m, cv) = &*pair;
        let mut ready = m.lock();
        while !*ready {
            cv.wait(&mut ready);
        }
        assert!(*ready);
        h.join().unwrap();
    }

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(5);
        {
            let r1 = l.read();
            let r2 = l.read();
            assert_eq!(*r1 + *r2, 10);
        }
        *l.write() = 7;
        assert_eq!(*l.read(), 7);
    }
}
