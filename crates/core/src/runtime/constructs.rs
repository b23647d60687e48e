//! Team-level construct coordination: dynamic loops, `single`, reductions.
//!
//! Workers of one team execute the same sequence of team-level constructs
//! (SPMD discipline, the same rule OpenMP imposes: work-sharing constructs
//! may not be nested inside one another). Each thread therefore numbers the
//! constructs it passes; the n-th construct on every worker is the *same*
//! construct, and `seq = n` keys its shared state in the [`ConstructSpace`].
//!
//! A thread replaying a region (expansion protocol) skips construct bodies
//! but still advances its sequence counter, so it stays aligned with the
//! live team when it joins.
//!
//! This module is the single home of construct state for every engine:
//! the shared-memory team, the hybrid engine's local teams, and the
//! sequential engine (team of one) all coordinate through it.

use std::cell::Cell;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use super::claim::ChunkCursor;
use crate::plan::ReduceOp;
use crate::sync::{AtomicBool, Mutex, Ordering};

thread_local! {
    static SEQ: Cell<u64> = const { Cell::new(0) };
}

/// Reset the calling thread's construct sequence (at region entry and at
/// every safe-point crossing).
pub fn seq_reset() {
    SEQ.with(|s| s.set(0));
}

/// Advance and return the calling thread's construct sequence number.
pub fn seq_next() -> u64 {
    SEQ.with(|s| {
        let v = s.get();
        s.set(v + 1);
        v
    })
}

/// Shared state of a dynamically scheduled loop: a cache-line-padded claim
/// cursor over the iteration space.
pub struct LoopState {
    cursor: ChunkCursor,
}

impl LoopState {
    fn new() -> Self {
        LoopState {
            cursor: ChunkCursor::new(),
        }
    }

    /// Claim the next `chunk` iterations of a space of `n`; returns the
    /// claimed half-open range, empty when exhausted.
    pub fn claim(&self, n: usize, chunk: usize) -> Range<usize> {
        self.cursor.claim(n, chunk)
    }

    /// Claim a guided chunk: proportional to the remaining iterations.
    pub fn claim_guided(&self, n: usize, workers: usize, min_chunk: usize) -> Range<usize> {
        self.cursor.claim_guided(n, workers, min_chunk)
    }
}

/// Shared state of a `single` construct: first claimer executes.
pub struct SingleState {
    claimed: AtomicBool,
}

impl SingleState {
    fn new() -> Self {
        SingleState {
            claimed: AtomicBool::new(false),
        }
    }

    /// True for exactly one caller.
    pub fn try_claim(&self) -> bool {
        !self.claimed.swap(true, Ordering::SeqCst)
    }
}

/// Shared state of a team reduction.
pub struct ReduceState {
    acc: Mutex<Option<f64>>,
}

impl ReduceState {
    fn new() -> Self {
        ReduceState {
            acc: Mutex::new(None),
        }
    }

    /// Fold `value` into the accumulator with `op`.
    pub fn combine(&self, op: ReduceOp, value: f64) {
        let mut acc = self.acc.lock();
        *acc = Some(match *acc {
            None => value,
            Some(a) => op.apply_f64(a, value),
        });
    }

    /// Replace the accumulated value (the retiring leader folds in any
    /// cross-aggregate combine before the team reads the result).
    pub fn publish(&self, value: f64) {
        *self.acc.lock() = Some(value);
    }

    /// The combined value (call after the team barrier).
    pub fn result(&self) -> f64 {
        self.acc.lock().expect("reduce read before any combine")
    }
}

/// One construct's shared state.
pub enum ConstructState {
    /// Dynamic/guided loop cursor.
    Loop(LoopState),
    /// Single-executor claim.
    Single(SingleState),
    /// Team reduction accumulator.
    Reduce(ReduceState),
}

/// The team's construct map: `seq` → shared state. Entries are created by
/// whichever worker arrives first and removed by the barrier leader once the
/// construct's implicit barrier has completed.
#[derive(Default)]
pub struct ConstructSpace {
    entries: Mutex<HashMap<u64, Arc<ConstructState>>>,
}

impl ConstructSpace {
    /// Empty space.
    pub fn new() -> Self {
        ConstructSpace::default()
    }

    /// Fetch (or create) construct `seq`'s state.
    pub fn get_or_insert(
        &self,
        seq: u64,
        make: impl FnOnce() -> ConstructState,
    ) -> Arc<ConstructState> {
        let mut entries = self.entries.lock();
        entries
            .entry(seq)
            .or_insert_with(|| Arc::new(make()))
            .clone()
    }

    /// Drop construct `seq`'s state (leader duty, after its barrier).
    pub fn remove(&self, seq: u64) {
        self.entries.lock().remove(&seq);
    }
}

/// Convenience constructors used by the engines.
pub fn loop_state() -> ConstructState {
    ConstructState::Loop(LoopState::new())
}

/// See [`loop_state`].
pub fn single_state() -> ConstructState {
    ConstructState::Single(SingleState::new())
}

/// See [`loop_state`].
pub fn reduce_state() -> ConstructState {
    ConstructState::Reduce(ReduceState::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_advances_per_thread() {
        seq_reset();
        assert_eq!(seq_next(), 0);
        assert_eq!(seq_next(), 1);
        std::thread::spawn(|| {
            seq_reset();
            assert_eq!(seq_next(), 0);
        })
        .join()
        .unwrap();
        assert_eq!(seq_next(), 2);
        seq_reset();
    }

    #[test]
    fn single_claim_is_exclusive() {
        let s = Arc::new(SingleState::new());
        let winners: Vec<bool> = (0..8)
            .map(|_| {
                let s = s.clone();
                std::thread::spawn(move || s.try_claim())
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().unwrap())
            .collect();
        assert_eq!(winners.iter().filter(|&&w| w).count(), 1);
    }

    #[test]
    fn reduce_combines_all_contributions() {
        let r = ReduceState::new();
        r.combine(ReduceOp::Sum, 1.5);
        r.combine(ReduceOp::Sum, 2.5);
        r.combine(ReduceOp::Sum, -1.0);
        assert_eq!(r.result(), 3.0);

        let m = ReduceState::new();
        m.combine(ReduceOp::Max, 2.0);
        m.combine(ReduceOp::Max, 7.0);
        assert_eq!(m.result(), 7.0);

        m.publish(11.0);
        assert_eq!(m.result(), 11.0);
    }

    #[test]
    fn space_same_seq_shares_state() {
        let space = ConstructSpace::new();
        let a = space.get_or_insert(5, single_state);
        let b = space.get_or_insert(5, single_state);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(space.entries.lock().len(), 1);
        space.remove(5);
        assert!(space.entries.lock().is_empty());
        // Arc still usable after removal.
        if let ConstructState::Single(s) = &*a {
            assert!(s.try_claim());
        } else {
            panic!("wrong construct kind");
        }
    }
}
