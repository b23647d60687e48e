//! The one place the workspace gets its concurrency primitives.
//!
//! Every crate takes its locks, atomics, fences, spin/yield hints and the
//! core count from here, so the primitives sit behind one seam that a
//! schedule explorer can swap as a whole.
//!
//! * [`Mutex`], [`RwLock`] and [`Condvar`] wrap `std::sync` and swallow
//!   poisoning: a holder that panicked does not turn every later `lock()`
//!   into a second panic. `lock()`/`read()`/`write()` return guards
//!   directly, and [`Condvar::wait`] takes the guard by `&mut`.
//! * [`Gate`] is the one "spin, then yield, then park" wait. The team
//!   barrier, the region latch and the pool's idle workers each keep their
//!   own flag and wait on it through a gate.
//! * [`cores`] is the machine's available parallelism, asked once per
//!   process.
//!
//! ## Why a gate's wake may skip the lock
//!
//! [`Gate::wake`] touches the lock only when a waiter is parked. That skip
//! is a Dekker pattern: the waiter increments `parked` and then reads the
//! caller's flag through `ready()`; the waker has written the flag and then
//! reads `parked`. A `SeqCst` fence sits between the write and the read on
//! each side, and two `SeqCst` fences are totally ordered, so at least one
//! side sees the other's write — whatever ordering the caller gave its
//! flag, `Relaxed` included. Either the waiter sees the flag and does not
//! sleep, or the waker sees the waiter and takes the lock. The waiter holds
//! the lock from its increment until the condvar releases it, so that
//! `notify_all` cannot fall in the gap before the wait, and the lock hand-
//! over makes the flag visible to the waiter's re-check.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self as std_sync, OnceLock, PoisonError, TryLockError};
use std::time::{Duration, Instant};

pub use std::hint::spin_loop;
pub use std::sync::atomic::{
    fence, AtomicBool, AtomicIsize, AtomicU32, AtomicU64, AtomicUsize, Ordering,
};
pub use std::thread::yield_now;

/// The machine's available parallelism (1 when it cannot be asked), read
/// once per process.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A wait point: waiters spin, then yield, then park until their own
/// condition holds; a waker parks nobody and locks only when someone
/// sleeps (see the module docs for why that is sound).
#[derive(Default)]
pub struct Gate {
    /// Waiters committed to the condvar (wake skips the lock when 0).
    parked: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Gate {
    /// Return once `ready()` holds: check it `spins` times between
    /// `spin_loop` hints, then `yields` times between `yield_now` calls,
    /// then park until a [`Gate::wake`] after which it holds.
    pub fn wait(&self, spins: usize, yields: usize, ready: impl Fn() -> bool) {
        for _ in 0..spins {
            if ready() {
                return;
            }
            spin_loop();
        }
        for _ in 0..yields {
            if ready() {
                return;
            }
            yield_now();
        }
        let mut guard = self.lock.lock();
        self.parked.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        while !ready() {
            self.cv.wait(&mut guard);
        }
        self.parked.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wake every parked waiter. Call it after making a waiter's
    /// condition true.
    pub fn wake(&self) {
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) > 0 {
            let _guard = self.lock.lock();
            self.cv.notify_all();
        }
    }
}

/// A mutual-exclusion lock whose guard survives a panicked holder.
pub struct Mutex<T> {
    inner: std_sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A mutex holding `t`.
    pub const fn new(t: T) -> Mutex<T> {
        Mutex {
            inner: std_sync::Mutex::new(t),
        }
    }

    /// Acquire the lock, blocking until it is free.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let guard = match self.inner.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard { inner: Some(guard) })
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

/// Never blocks: a lock held elsewhere — or by the formatting thread
/// itself — prints as `<locked>`.
impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &*g).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

/// Guard of a locked [`Mutex`]. The `Option` lets [`Condvar::wait`] hand
/// the std guard to the condvar and take it back in place.
pub struct MutexGuard<'a, T> {
    inner: Option<std_sync::MutexGuard<'a, T>>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

/// A reader-writer lock whose guards survive a panicked holder.
pub struct RwLock<T> {
    inner: std_sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// A lock holding `t`.
    pub const fn new(t: T) -> RwLock<T> {
        RwLock {
            inner: std_sync::RwLock::new(t),
        }
    }

    /// Acquire shared read access.
    pub fn read(&self) -> std_sync::RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire exclusive write access.
    pub fn write(&self) -> std_sync::RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

/// A condition variable for [`Mutex`] guards.
#[derive(Default)]
pub struct Condvar {
    inner: std_sync::Condvar,
}

impl Condvar {
    /// A condition variable nobody waits on.
    pub const fn new() -> Condvar {
        Condvar {
            inner: std_sync::Condvar::new(),
        }
    }

    /// Release the guard's lock and block until notified; the lock is held
    /// again on return.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard present");
        guard.inner = Some(self.inner.wait(g).unwrap_or_else(PoisonError::into_inner));
    }

    fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) -> WaitTimeout {
        let g = guard.inner.take().expect("guard present");
        let (g, res) = self
            .inner
            .wait_timeout(g, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(g);
        WaitTimeout(res.timed_out())
    }

    /// Like [`Condvar::wait`], until `deadline` at the latest. A deadline
    /// already past reports a timeout without releasing the lock.
    pub fn wait_until<T>(&self, guard: &mut MutexGuard<'_, T>, deadline: Instant) -> WaitTimeout {
        let now = Instant::now();
        if deadline <= now {
            return WaitTimeout(true);
        }
        self.wait_for(guard, deadline - now)
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// Whether a timed [`Condvar`] wait ended by its deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeout(bool);

impl WaitTimeout {
    /// True when the deadline passed rather than a notification arriving.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic_and_const() {
        static M: Mutex<i32> = Mutex::new(5);
        *M.lock() += 1;
        assert_eq!(*M.lock(), 6);
    }

    #[test]
    fn mutex_survives_panicking_holder() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        *m.lock() = 7; // must not panic
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn condvar_timed_waits() {
        let pair = (Mutex::new(()), Condvar::new());
        let mut g = pair.0.lock();
        let t0 = Instant::now();
        assert!(pair
            .1
            .wait_for(&mut g, Duration::from_millis(20))
            .timed_out());
        assert!(t0.elapsed() >= Duration::from_millis(15));
        assert!(pair
            .1
            .wait_until(&mut g, Instant::now() - Duration::from_millis(1))
            .timed_out());
    }

    #[test]
    fn condvar_wait_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let waiter = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut ready = m.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        waiter.join().unwrap();
    }

    /// Every wait goes straight to the park path (no spin, no yield) and
    /// the waker's flag is `Relaxed`: only the gate's own fences and lock
    /// stand between a round and a lost wakeup. Each round lines both
    /// threads up first, so the waker's store and wake race the waiter's
    /// park.
    #[test]
    fn gate_loses_no_wakeup() {
        const ROUNDS: u64 = 10_000;
        let gate = Arc::new(Gate::default());
        let (go, flag, done) = (
            Arc::new(AtomicU64::new(0)),
            Arc::new(AtomicU64::new(0)),
            Arc::new(AtomicU64::new(0)),
        );
        let waiter = {
            let (gate, go, flag, done) = (gate.clone(), go.clone(), flag.clone(), done.clone());
            std::thread::spawn(move || {
                for k in 1..=ROUNDS {
                    while go.load(Ordering::Acquire) < k {
                        yield_now();
                    }
                    gate.wait(0, 0, || flag.load(Ordering::Relaxed) >= k);
                    done.store(k, Ordering::Release);
                }
            })
        };
        let t0 = Instant::now();
        for k in 1..=ROUNDS {
            go.store(k, Ordering::Release);
            flag.store(k, Ordering::Relaxed);
            gate.wake();
            while done.load(Ordering::Acquire) < k {
                assert!(
                    t0.elapsed() < Duration::from_secs(2),
                    "round {k} lost its wakeup"
                );
                yield_now();
            }
        }
        waiter.join().unwrap();
    }

    /// `#[derive(Debug)]` structs format their locks; doing so while the
    /// formatting thread holds one must not deadlock.
    #[test]
    fn debug_of_a_held_mutex_does_not_block() {
        let m = Mutex::new(3u8);
        let held = m.lock();
        assert_eq!(format!("{m:?}"), "Mutex { <locked> }");
        drop(held);
        assert_eq!(format!("{m:?}"), "Mutex { data: 3 }");
    }
}
