//! Per-worker lock-free work-stealing deques (Chase–Lev).
//!
//! Each worker owns one [`StealDeque`]: it pushes and pops task ids at the
//! *bottom* without contention, while idle thieves steal from the *top* with
//! a single CAS. The two hot indices live on their own cache lines
//! ([`CachePadded`], the same layout rule as the dynamic-schedule claim
//! cursor in `ppar_core::runtime::claim`) so an owner hammering `bottom`
//! never false-shares with thieves hammering `top`.
//!
//! The buffer is a fixed-capacity power-of-two ring of task-id slots. Task
//! graphs are finite and sized up front (every live task occupies at most
//! one deque slot across the whole scheduler), so the scheduler allocates
//! rings that can never overflow — [`StealDeque::push`] still reports a
//! full ring rather than trusting that reasoning. Fixed capacity also keeps
//! the algorithm ABA-free without epoch machinery: a slot at index `t` can
//! only be overwritten once `bottom` has advanced a full lap, which
//! [`StealDeque::push`] refuses while any thief could still claim `t`.
//!
//! Orderings follow the corrected Chase–Lev publication (Lê et al., PPoPP
//! 2013): the owner's `pop` and every `steal` synchronise on a `SeqCst`
//! fence plus a `SeqCst` CAS on `top` for the last-element race.

use ppar_core::runtime::CachePadded;
use ppar_core::sync::{fence, AtomicIsize, AtomicUsize, Ordering};

/// Outcome of a [`StealDeque::steal`] attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal {
    /// The deque was observed empty.
    Empty,
    /// Lost a race with the owner or another thief; try again (possibly on
    /// another victim).
    Retry,
    /// Stole one task id.
    Taken(usize),
}

/// A single-owner, multi-thief work-stealing deque of task ids.
///
/// `push`/`pop` may only be called by the owning worker; `steal` may be
/// called by any thread. Every pushed id is returned by exactly one `pop`
/// or successful `steal` — the exactly-once property the scheduler (and the
/// property tests) build on.
pub struct StealDeque {
    /// Owner end: next free slot. Only the owner writes it.
    bottom: CachePadded<AtomicIsize>,
    /// Thief end: oldest live slot. Advanced by CAS from thieves and from
    /// the owner's last-element pop.
    top: CachePadded<AtomicIsize>,
    slots: Box<[AtomicUsize]>,
    mask: usize,
}

impl StealDeque {
    /// A deque holding at most `capacity` ids (rounded up to a power of
    /// two, minimum 1).
    pub fn new(capacity: usize) -> StealDeque {
        let cap = capacity.max(1).next_power_of_two();
        StealDeque {
            bottom: CachePadded::new(AtomicIsize::new(0)),
            top: CachePadded::new(AtomicIsize::new(0)),
            slots: (0..cap).map(|_| AtomicUsize::new(0)).collect(),
            mask: cap - 1,
        }
    }

    /// Slot capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Snapshot of the current length. Exact for the owner between its own
    /// operations; advisory for everyone else.
    pub fn len(&self) -> usize {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    /// Is the deque (advisorily) empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Owner only: push `id` at the bottom. Returns `Err(id)` when the ring
    /// is full (the scheduler sizes rings so this cannot happen; misuse is
    /// surfaced instead of silently dropped).
    pub fn push(&self, id: usize) -> Result<(), usize> {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        if b - t >= self.slots.len() as isize {
            return Err(id);
        }
        self.slots[(b as usize) & self.mask].store(id, Ordering::Relaxed);
        // Publish the slot before publishing the new bottom.
        self.bottom.store(b + 1, Ordering::Release);
        Ok(())
    }

    /// Owner only: pop the most recently pushed id, racing thieves for the
    /// last element.
    pub fn pop(&self) -> Option<usize> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        self.bottom.store(b, Ordering::Relaxed);
        // Order the bottom decrement before the top read: a concurrent
        // thief must either see the decrement or lose the CAS below.
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t > b {
            // Empty: restore bottom.
            self.bottom.store(b + 1, Ordering::Relaxed);
            return None;
        }
        let id = self.slots[(b as usize) & self.mask].load(Ordering::Relaxed);
        if t == b {
            // Last element: claim it against thieves via top.
            let won = self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
            self.bottom.store(b + 1, Ordering::Relaxed);
            return won.then_some(id);
        }
        Some(id)
    }

    /// Any thread: steal the oldest id.
    pub fn steal(&self) -> Steal {
        let t = self.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        // Read the slot before claiming it: a lost CAS discards the read;
        // a won CAS proves the owner had not lapped (push refuses to
        // overwrite while `top` could still reach this slot).
        let id = self.slots[(t as usize) & self.mask].load(Ordering::Relaxed);
        match self
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
        {
            Ok(_) => Steal::Taken(id),
            Err(_) => Steal::Retry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lifo_for_owner_fifo_for_thieves() {
        let d = StealDeque::new(8);
        for id in 0..3 {
            d.push(id).unwrap();
        }
        assert_eq!(d.len(), 3);
        assert_eq!(d.pop(), Some(2), "owner pops the newest");
        assert_eq!(d.steal(), Steal::Taken(0), "thieves take the oldest");
        assert_eq!(d.pop(), Some(1));
        assert_eq!(d.pop(), None);
        assert_eq!(d.steal(), Steal::Empty);
    }

    #[test]
    fn capacity_rounds_up_and_full_ring_reports() {
        let d = StealDeque::new(3);
        assert_eq!(d.capacity(), 4);
        for id in 0..4 {
            d.push(id).unwrap();
        }
        assert_eq!(d.push(99), Err(99));
        // Draining one end makes room again.
        assert_eq!(d.steal(), Steal::Taken(0));
        d.push(99).unwrap();
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn concurrent_steal_is_exactly_once() {
        let n = 4096;
        let d = Arc::new(StealDeque::new(n));
        for id in 0..n {
            d.push(id).unwrap();
        }
        let hits = Arc::new((0..n).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());
        let thieves: Vec<_> = (0..4)
            .map(|_| {
                let (d, hits) = (d.clone(), hits.clone());
                std::thread::spawn(move || loop {
                    match d.steal() {
                        Steal::Taken(id) => {
                            hits[id].fetch_add(1, Ordering::Relaxed);
                        }
                        Steal::Retry => {}
                        Steal::Empty => break,
                    }
                })
            })
            .collect();
        // The owner pops concurrently.
        while let Some(id) = d.pop() {
            hits[id].fetch_add(1, Ordering::Relaxed);
        }
        for t in thieves {
            t.join().unwrap();
        }
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}
