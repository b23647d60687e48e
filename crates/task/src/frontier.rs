//! The serializable task frontier: `PPARTSK1`.
//!
//! A [`TaskFrontier`] is the *dynamic* state of one task-graph execution —
//! completion bits, per-chunk item cursors and per-task reduction partials
//! — behind the ordinary [`StateCell`] seam. Registering it as an
//! announced field (`ctx.register_state`) makes the whole existing
//! checkpoint machinery apply unchanged: full snapshots, dirty-delta
//! snapshots, CAS-deduped stores, crash-recovery replay, live hand-off and
//! the `PPARPRG1` region cursor all treat it as just another field.
//!
//! Snapshots are only taken at quiescence (the scheduler drains every
//! deque before a safe point is crossed — see [`crate::engine`]), so a
//! captured frontier is always *stable*: every task is either untouched or
//! fully done, cursors sit at range boundaries, and partials of done tasks
//! are final. A restored frontier therefore resumes a half-executed graph
//! by running exactly the not-done tasks and folding the *restored*
//! partials of the done ones — no task re-executes, and the fold (in task-id
//! order) is bitwise identical to the uninterrupted run.
//!
//! ## Wire format (`PPARTSK1`, version 1, little-endian)
//!
//! | bytes | content |
//! |---|---|
//! | 8 | magic `PPARTSK1` |
//! | 4 | version (1) |
//! | 8 | epoch |
//! | 4 | task count `n` |
//! | 8 × ceil(n/64) | completion bitmap words |
//! | 8 × n | per-chunk cursors |
//! | 8 × n | reduction partials (f64 bits) |

use ppar_core::error::{PparError, Result};
use ppar_core::state::StateCell;
use ppar_core::sync::{AtomicU64, Ordering};

/// Magic prefix of an encoded frontier.
pub const FRONTIER_MAGIC: &[u8; 8] = b"PPARTSK1";

/// Format version written by [`TaskFrontier::save_bytes`].
pub const FRONTIER_VERSION: u32 = 1;

/// Serializable execution state of one task graph. See the
/// [module docs](self).
pub struct TaskFrontier {
    n: usize,
    /// Which graph run this frontier belongs to (e.g. the SMC step): the
    /// scheduler resets the frontier when asked to run a different epoch,
    /// and resumes in place when the epochs match (checkpoint restore).
    epoch: AtomicU64,
    done: Vec<AtomicU64>,
    cursors: Vec<AtomicU64>,
    partials: Vec<AtomicU64>,
}

impl TaskFrontier {
    /// A fresh (epoch 0, nothing done) frontier for an `n`-task graph.
    pub fn new(n: usize) -> TaskFrontier {
        TaskFrontier {
            n,
            epoch: AtomicU64::new(0),
            done: (0..n.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
            cursors: (0..n).map(|_| AtomicU64::new(0)).collect(),
            partials: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Task count this frontier tracks.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Is the frontier over an empty graph?
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Reset everything and start `epoch`: nothing done, cursors and
    /// partials zeroed.
    pub fn begin_epoch(&self, epoch: u64) {
        for w in &self.done {
            w.store(0, Ordering::Relaxed);
        }
        for c in &self.cursors {
            c.store(0, Ordering::Relaxed);
        }
        for p in &self.partials {
            p.store(0, Ordering::Relaxed);
        }
        self.epoch.store(epoch, Ordering::Release);
    }

    /// Has task `t` completed?
    pub fn is_done(&self, t: usize) -> bool {
        self.done[t / 64].load(Ordering::Acquire) >> (t % 64) & 1 == 1
    }

    /// Mark task `t` complete. Release-ordered after the partial/cursor
    /// stores, so any thread observing the bit sees the final values.
    pub fn mark_done(&self, t: usize) {
        self.done[t / 64].fetch_or(1 << (t % 64), Ordering::Release);
    }

    /// Completed tasks.
    pub fn done_count(&self) -> usize {
        self.done
            .iter()
            .map(|w| w.load(Ordering::Acquire).count_ones() as usize)
            .sum()
    }

    /// In-chunk cursor of task `t` (the next item index the task would
    /// process; at quiescence either `range.start` or `range.end`).
    pub fn cursor(&self, t: usize) -> u64 {
        self.cursors[t].load(Ordering::Acquire)
    }

    /// Record the in-chunk cursor of task `t`.
    pub fn set_cursor(&self, t: usize, i: u64) {
        self.cursors[t].store(i, Ordering::Release);
    }

    /// Reduction partial of task `t`.
    pub fn partial(&self, t: usize) -> f64 {
        f64::from_bits(self.partials[t].load(Ordering::Acquire))
    }

    /// Record the reduction partial of task `t`.
    pub fn set_partial(&self, t: usize, v: f64) {
        self.partials[t].store(v.to_bits(), Ordering::Release);
    }

    /// Fold the partials of all `n` tasks **in task-id order** with `f`
    /// starting from `init`. This is the deterministic-reduction rule: the
    /// fold never depends on which worker completed which task when.
    pub fn fold_partials(&self, init: f64, f: impl Fn(f64, f64) -> f64) -> f64 {
        (0..self.n).fold(init, |acc, t| f(acc, self.partial(t)))
    }
}

impl StateCell for TaskFrontier {
    fn save_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_len());
        out.extend_from_slice(FRONTIER_MAGIC);
        out.extend_from_slice(&FRONTIER_VERSION.to_le_bytes());
        out.extend_from_slice(&self.epoch().to_le_bytes());
        out.extend_from_slice(&(self.n as u32).to_le_bytes());
        for w in &self.done {
            out.extend_from_slice(&w.load(Ordering::Acquire).to_le_bytes());
        }
        for c in &self.cursors {
            out.extend_from_slice(&c.load(Ordering::Acquire).to_le_bytes());
        }
        for p in &self.partials {
            out.extend_from_slice(&p.load(Ordering::Acquire).to_le_bytes());
        }
        out
    }

    fn load_bytes(&self, bytes: &[u8]) -> Result<()> {
        if self.byte_len() != bytes.len() || &bytes[..8] != FRONTIER_MAGIC {
            return Err(PparError::CorruptCheckpoint(format!(
                "task frontier: expected {}-byte PPARTSK1 section, got {} bytes",
                self.byte_len(),
                bytes.len()
            )));
        }
        let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().expect("4B"));
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().expect("8B"));
        if u32_at(8) != FRONTIER_VERSION {
            return Err(PparError::CorruptCheckpoint(format!(
                "task frontier: unsupported version {}",
                u32_at(8)
            )));
        }
        if u32_at(20) as usize != self.n {
            return Err(PparError::CorruptCheckpoint(format!(
                "task frontier: snapshot holds {} tasks, graph has {}",
                u32_at(20),
                self.n
            )));
        }
        // The bitmap's last word pads past task n − 1: a set pad bit names a
        // task that does not exist.
        let tail = self.n % 64;
        if tail > 0 && u64_at(24 + 8 * (self.done.len() - 1)) >> tail != 0 {
            return Err(PparError::CorruptCheckpoint(format!(
                "task frontier: a completion bit set past the graph's {} tasks",
                self.n
            )));
        }
        let mut o = 24;
        for w in &self.done {
            w.store(u64_at(o), Ordering::Relaxed);
            o += 8;
        }
        for c in &self.cursors {
            c.store(u64_at(o), Ordering::Relaxed);
            o += 8;
        }
        for p in &self.partials {
            p.store(u64_at(o), Ordering::Relaxed);
            o += 8;
        }
        self.epoch.store(u64_at(12), Ordering::Release);
        Ok(())
    }

    fn byte_len(&self) -> usize {
        8 + 4 + 8 + 4 + 8 * self.done.len() + 8 * self.n * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_byte_identically() {
        let f = TaskFrontier::new(70);
        f.begin_epoch(3);
        f.mark_done(0);
        f.mark_done(65);
        f.set_cursor(65, 1234);
        f.set_partial(65, -0.75);
        let bytes = f.save_bytes();
        assert_eq!(bytes.len(), f.byte_len());

        let g = TaskFrontier::new(70);
        g.load_bytes(&bytes).unwrap();
        assert_eq!(g.epoch(), 3);
        assert!(g.is_done(0) && g.is_done(65) && !g.is_done(1));
        assert_eq!(g.done_count(), 2);
        assert_eq!(g.cursor(65), 1234);
        assert_eq!(g.partial(65), -0.75);
        assert_eq!(g.save_bytes(), bytes, "re-save must be byte-identical");
    }

    #[test]
    fn rejects_wrong_shape_and_magic() {
        let f = TaskFrontier::new(4);
        let bytes = f.save_bytes();
        assert!(TaskFrontier::new(5).load_bytes(&bytes).is_err());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(f.load_bytes(&bad).is_err());
        assert!(f.load_bytes(&bytes[..10]).is_err());
        let mut vbad = bytes.clone();
        vbad[8] = 9;
        assert!(f.load_bytes(&vbad).is_err());
    }

    #[test]
    fn begin_epoch_clears_everything() {
        let f = TaskFrontier::new(8);
        f.begin_epoch(1);
        f.mark_done(3);
        f.set_partial(3, 7.0);
        f.begin_epoch(2);
        assert_eq!(f.done_count(), 0);
        assert_eq!(f.partial(3), 0.0);
        assert_eq!(f.epoch(), 2);
    }

    #[test]
    fn fold_is_id_ordered() {
        let f = TaskFrontier::new(3);
        f.set_partial(0, 1e16);
        f.set_partial(1, -1e16);
        f.set_partial(2, 1.0);
        // (1e16 + -1e16) + 1.0 == 1.0; any other order differs bitwise.
        assert_eq!(f.fold_partials(0.0, |a, b| a + b), 1.0);
    }
}
