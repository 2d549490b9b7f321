//! Offline stand-in for the slice of `parking_lot` this repository uses:
//! locks whose `lock()` returns the guard directly. Thin wrappers over
//! `std::sync` that ignore poisoning, as the published crate has none.

use std::sync::{self, LockResult};

pub use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

fn unpoison<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(sync::PoisonError::into_inner)
}

/// A mutual-exclusion lock without poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning its value.
    pub fn into_inner(self) -> T {
        unpoison(self.0.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        unpoison(self.0.lock())
    }

    /// Takes the lock if it is free.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(guard) => Some(guard),
            Err(sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// The value, through exclusive access to the mutex.
    pub fn get_mut(&mut self) -> &mut T {
        unpoison(self.0.get_mut())
    }
}

/// A reader-writer lock without poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// A new unlocked lock.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock(sync::RwLock::new(value))
    }

    /// Consumes the lock, returning its value.
    pub fn into_inner(self) -> T {
        unpoison(self.0.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Blocks until shared access is held.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        unpoison(self.0.read())
    }

    /// Blocks until exclusive access is held.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        unpoison(self.0.write())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_counts_across_threads() {
        let m = Arc::new(Mutex::new(0u32));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("worker");
        }
        assert_eq!(*m.lock(), 4_000);
    }

    #[test]
    fn rwlock_reads_and_writes() {
        let lock = RwLock::new(7);
        *lock.write() += 1;
        assert_eq!(*lock.read(), 8);
    }
}
