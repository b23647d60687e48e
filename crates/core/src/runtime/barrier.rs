//! The resizable sense-reversing team barrier.
//!
//! Run-time adaptation (§IV.B) grows and shrinks the thread team *during* a
//! parallel region, so the classic fixed-size barrier is not enough:
//!
//! * [`TeamBarrier::wait_leader`] runs a leader action — with mutable
//!   access to the team size — *before* the generation is released;
//! * [`TeamBarrier::set_size`] re-sizes the barrier (expansion: new workers
//!   will arrive at the current generation);
//! * [`TeamBarrier::leave`] removes the calling worker mid-generation
//!   (contraction: a drained worker departs without tripping the barrier's
//!   accounting).
//!
//! ## Sense/generation protocol
//!
//! The barrier state is one atomic word packing `(generation, arrived,
//! size)`. The generation counter *is* the sense: a worker records the
//! generation it arrived in and considers itself released as soon as the
//! shared generation differs (classic sense reversing generalises the
//! two-valued sense flag to a counter; equality comparison makes the
//! reversal explicit). Arrival is a single CAS; the last arriver **seals**
//! the generation by setting `arrived == size`, runs any leader duty, and
//! releases everyone with one store of `(generation+1, 0, new_size)`.
//! While a generation is sealed, late arrivals (a freshly spawned
//! expansion worker racing the leader's release) spin until the release
//! store lands and then join the *next* generation — the accounting of the
//! sealed generation can never be corrupted by a racer.
//!
//! Waiters wait through [`sync::Gate`](Gate): they spin briefly (the
//! common HPC case: the team re-converges within microseconds), then
//! yield, then park, so over-subscribed runs (the Fig. 8
//! over-decomposition experiment) do not burn cores. The release path only
//! touches the gate's lock when someone actually parked.

use crate::sync::{cores, AtomicU64, Gate, Ordering};

const ARR_SHIFT: u32 = 16;
const GEN_SHIFT: u32 = 32;
const U16: u64 = 0xFFFF;

#[inline]
const fn pack(generation: u32, arrived: u16, size: u16) -> u64 {
    ((generation as u64) << GEN_SHIFT) | ((arrived as u64) << ARR_SHIFT) | size as u64
}

#[inline]
const fn unpack(word: u64) -> (u32, u16, u16) {
    (
        (word >> GEN_SHIFT) as u32,
        ((word >> ARR_SHIFT) & U16) as u16,
        (word & U16) as u16,
    )
}

/// A reusable, resizable sense-reversing barrier (see the module docs for
/// the protocol).
pub struct TeamBarrier {
    /// Packed `(generation, arrived, size)` — the only hot word.
    word: AtomicU64,
    gate: Gate,
}

enum Arrival {
    /// Last arriver of `generation`; the barrier is sealed and this caller
    /// must release it (carries the sealed size).
    Leader { generation: u32, size: u16 },
    /// Arrived early; wait for `generation` to be released.
    Waiter { generation: u32 },
}

impl TeamBarrier {
    /// A barrier for `size` participants (≥ 1, ≤ `u16::MAX`).
    pub fn new(size: usize) -> Self {
        TeamBarrier {
            word: AtomicU64::new(pack(0, 0, clamp_size(size))),
            gate: Gate::default(),
        }
    }

    #[inline]
    fn generation(&self) -> u32 {
        unpack(self.word.load(Ordering::SeqCst)).0
    }

    /// Register one arrival, retrying across sealed generations.
    fn arrive(&self) -> Arrival {
        loop {
            let w = self.word.load(Ordering::SeqCst);
            let (generation, arrived, size) = unpack(w);
            if arrived >= size {
                // Sealed: a leader is mid-release. Wait for the release
                // store, then arrive in the next generation.
                self.await_release(generation);
                continue;
            }
            if arrived + 1 == size {
                // Seal the generation: no further arrival (or resize) can
                // slip in until this caller releases it.
                if self
                    .word
                    .compare_exchange(
                        w,
                        pack(generation, size, size),
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    )
                    .is_ok()
                {
                    return Arrival::Leader { generation, size };
                }
            } else if self
                .word
                .compare_exchange(
                    w,
                    pack(generation, arrived + 1, size),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
            {
                return Arrival::Waiter { generation };
            }
        }
    }

    /// Release sealed `generation` with the (possibly resized) team size.
    fn release(&self, generation: u32, new_size: u16) {
        self.word.store(
            pack(generation.wrapping_add(1), 0, new_size.max(1)),
            Ordering::SeqCst,
        );
        self.gate.wake();
    }

    /// Wait until the generation moves past `generation`. With real
    /// parallelism a short spin wins (the team re-converges within
    /// microseconds and a futex round-trip costs more than the whole
    /// wait). On a single hardware thread spinning only steals time from
    /// the thread being waited on, so there the budget is pure yields: each
    /// hands the core to the stragglers, and a generation usually completes
    /// without any futex traffic at all.
    fn await_release(&self, generation: u32) {
        let (spins, yields) = if cores() > 1 { (256, 4) } else { (0, 32) };
        self.gate
            .wait(spins, yields, || self.generation() != generation);
    }

    /// Block until all current participants have arrived. Returns `true` for
    /// exactly one participant per generation (the "leader", the last to
    /// arrive), which is convenient for post-barrier cleanup duties.
    pub fn wait(&self) -> bool {
        match self.arrive() {
            Arrival::Leader { generation, size } => {
                self.release(generation, size);
                true
            }
            Arrival::Waiter { generation } => {
                self.await_release(generation);
                false
            }
        }
    }

    /// Like [`TeamBarrier::wait`], but the last arriver runs `leader_action`
    /// *before anyone is released*, with mutable access to the barrier size.
    /// This is the linchpin of the reshape protocol (§IV.B): the team aligns,
    /// the leader atomically re-sizes the team / spawns replay workers /
    /// confirms the adaptation, and only then is the generation released —
    /// so no worker can race into a later barrier generation with a stale
    /// team size, and no worker can re-observe the adaptation request.
    pub fn wait_leader(&self, leader_action: impl FnOnce(&mut usize)) -> bool {
        match self.arrive() {
            Arrival::Leader { generation, size } => {
                let mut size = size as usize;
                leader_action(&mut size);
                self.release(generation, clamp_size(size));
                true
            }
            Arrival::Waiter { generation } => {
                self.await_release(generation);
                false
            }
        }
    }

    /// Change the participant count. If the change releases the current
    /// generation (shrinking below the number already waiting), it is
    /// released. Growing while workers wait is also legal: the generation
    /// simply waits for the additional arrivals.
    pub fn set_size(&self, size: usize) {
        self.resize_with(|_| clamp_size(size));
    }

    /// The calling worker permanently leaves the team (contraction drain):
    /// decrements the size; if that completes the current generation, the
    /// waiters are released.
    pub fn leave(&self) {
        self.resize_with(|size| size.saturating_sub(1).max(1));
    }

    fn resize_with(&self, new_size: impl Fn(u16) -> u16) {
        loop {
            let w = self.word.load(Ordering::SeqCst);
            let (generation, arrived, size) = unpack(w);
            if arrived >= size {
                // Sealed mid-release: let the leader finish, then resize
                // the fresh generation.
                self.await_release(generation);
                continue;
            }
            let resized = new_size(size).max(1);
            let next = if arrived >= resized {
                // Shrinking below the waiters completes the generation.
                pack(generation.wrapping_add(1), 0, resized)
            } else {
                pack(generation, arrived, resized)
            };
            if self
                .word
                .compare_exchange(w, next, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                if unpack(next).0 != generation {
                    self.gate.wake();
                }
                return;
            }
        }
    }

    /// Current participant count.
    pub fn size(&self) -> usize {
        unpack(self.word.load(Ordering::SeqCst)).2 as usize
    }
}

fn clamp_size(size: usize) -> u16 {
    size.clamp(1, u16::MAX as usize) as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn single_participant_never_blocks() {
        let b = TeamBarrier::new(1);
        for _ in 0..10 {
            assert!(b.wait());
        }
    }

    #[test]
    fn all_threads_cross_together() {
        let b = Arc::new(TeamBarrier::new(4));
        let before = Arc::new(AtomicUsize::new(0));
        let after = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let (b, before, after) = (b.clone(), before.clone(), after.clone());
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        before.fetch_add(1, Ordering::SeqCst);
                        b.wait();
                        // Everyone must have incremented `before` by now.
                        assert!(before.load(Ordering::SeqCst) >= 4);
                        b.wait();
                        after.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(after.load(Ordering::SeqCst), 400);
    }

    #[test]
    fn exactly_one_leader_per_generation() {
        let b = Arc::new(TeamBarrier::new(8));
        let leaders = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let (b, leaders) = (b.clone(), leaders.clone());
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        if b.wait() {
                            leaders.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn leader_action_runs_before_release() {
        let b = Arc::new(TeamBarrier::new(4));
        let published = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let (b, published) = (b.clone(), published.clone());
                std::thread::spawn(move || {
                    for round in 1..=50usize {
                        b.wait_leader(|_| {
                            published.store(round, Ordering::SeqCst);
                        });
                        // The leader action is complete before anyone exits.
                        assert_eq!(published.load(Ordering::SeqCst), round);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn leave_releases_waiters() {
        let b = Arc::new(TeamBarrier::new(3));
        let b1 = b.clone();
        let b2 = b.clone();
        let w1 = std::thread::spawn(move || b1.wait());
        let w2 = std::thread::spawn(move || b2.wait());
        // Give the two waiters time to block, then leave as the third.
        std::thread::sleep(std::time::Duration::from_millis(50));
        b.leave();
        w1.join().unwrap();
        w2.join().unwrap();
        assert_eq!(b.size(), 2);
    }

    #[test]
    fn grow_then_new_worker_completes_generation() {
        let b = Arc::new(TeamBarrier::new(1));
        b.set_size(2);
        let b1 = b.clone();
        let waiter = std::thread::spawn(move || b1.wait());
        std::thread::sleep(std::time::Duration::from_millis(30));
        b.wait(); // second participant arrives
        waiter.join().unwrap();
    }

    #[test]
    fn size_never_drops_below_one() {
        let b = TeamBarrier::new(1);
        b.leave();
        assert_eq!(b.size(), 1);
        b.set_size(0);
        assert_eq!(b.size(), 1);
    }

    #[test]
    fn parked_waiters_are_woken() {
        // Force the park path by making one participant very late.
        let b = Arc::new(TeamBarrier::new(2));
        let b1 = b.clone();
        let waiter = std::thread::spawn(move || {
            for _ in 0..5 {
                b1.wait();
            }
        });
        for _ in 0..5 {
            std::thread::sleep(std::time::Duration::from_millis(20));
            b.wait();
        }
        waiter.join().unwrap();
    }
}
