//! Serializable region progress: the `PPARPRG1` cursor.
//!
//! The paper resumes a run (restart replay, §IV.A) and joins an expanded
//! team into a live region (§IV.B) the same way: re-execute the application
//! from the beginning with heavy methods skipped, counting safe points
//! until the live position is reached. That makes a mode switch or a crash
//! recovery cost O(progress) — the further the run got, the longer the
//! catch-up, even though no real work is redone.
//!
//! A [`RegionCursor`] makes region progress a first-class serializable
//! value instead. It records, at a quiesced safe-point crossing:
//!
//! * the safe-point clock ([`RegionCursor::point_count`]) the snapshot was
//!   taken at — resume validates against the replay target so a stale
//!   cursor can never mis-position a run;
//! * one [`LoopFrame`] per live [`crate::ctx::Ctx::iter_loop`] nesting
//!   level: the loop's name, its full iteration range, the in-flight
//!   index (from which the remaining chunk `index..end` re-partitions for
//!   any successor shape), and the safe-point clock at that iteration's
//!   entry.
//!
//! Snapshots are only taken quiesced: the construct sequence was just
//! re-based and every in-flight construct has completed its implicit
//! barrier, so a cursor has no mid-construct position to carry. The format
//! reserves room for one (a construct-sequence word, a `single` section, a
//! reduction section); version 1 writes them as zero and refuses anything
//! else.
//!
//! A consumer jumps each replaying line of execution to `frame.index`,
//! sets its safe-point clock to `frame.clock_at_entry`, and lets the
//! ordinary replay machinery re-execute at most the one partial iteration
//! up to the crossing — resume cost becomes O(repartition), flat in
//! progress.
//!
//! ## Wire format (`PPARPRG1`, version 1, little-endian)
//!
//! | bytes | content |
//! |---|---|
//! | 8 | magic `PPARPRG1` |
//! | 4 | version (1) |
//! | 8 | `point_count` |
//! | 8 | reserved construct-sequence position, 0 |
//! | 4 | frame count, then per frame: name (u32 len + bytes), `start`, `end`, `index`, `clock_at_entry` (u64 each) |
//! | 4 | reserved `single` count, 0 |
//! | 4 | reserved reduction count, 0 |
//!
//! The cursor travels as an extra snapshot field named
//! [`PROGRESS_FIELD`]: readers that predate it install only the plan's
//! safe-data fields and never see it (forward compatible), and snapshots
//! written without it simply resume with progress = start, i.e. classic
//! replay (backward compatible).

use std::cell::Cell;

use crate::error::{PparError, Result};

/// Reserved snapshot-field name carrying the encoded [`RegionCursor`].
/// The `.ppar/` prefix is reserved: plans must not name safe data this way.
pub const PROGRESS_FIELD: &str = ".ppar/progress";

/// Magic prefix of an encoded cursor (the `PPARPRG1` progress section).
pub const PROGRESS_MAGIC: &[u8; 8] = b"PPARPRG1";

/// Format version written by [`RegionCursor::encode`].
pub const PROGRESS_VERSION: u32 = 1;

/// One live `iter_loop` nesting level: enough to re-enter the loop at the
/// in-flight iteration and re-partition the remaining range `index..end`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopFrame {
    /// The loop's announced name.
    pub name: String,
    /// First iteration of the full range.
    pub start: u64,
    /// One past the last iteration of the full range.
    pub end: u64,
    /// The in-flight iteration when the cursor was captured.
    pub index: u64,
    /// Safe-point clock when iteration `index` began: a resuming line of
    /// execution adopts this clock and replays only the partial iteration.
    pub clock_at_entry: u64,
}

/// Serializable region progress captured at a quiesced safe-point crossing.
/// See the [module docs](self) for the wire format and resume protocol.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RegionCursor {
    /// Safe-point clock at capture (equals the snapshot's count; resume
    /// rejects a cursor whose clock disagrees with the replay target).
    pub point_count: u64,
    /// Live loop frames, outermost first.
    pub frames: Vec<LoopFrame>,
}

impl RegionCursor {
    /// Serialize to the `PPARPRG1` wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.frames.len() * 48);
        out.extend_from_slice(PROGRESS_MAGIC);
        out.extend_from_slice(&PROGRESS_VERSION.to_le_bytes());
        out.extend_from_slice(&self.point_count.to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes());
        out.extend_from_slice(&(self.frames.len() as u32).to_le_bytes());
        for f in &self.frames {
            out.extend_from_slice(&(f.name.len() as u32).to_le_bytes());
            out.extend_from_slice(f.name.as_bytes());
            out.extend_from_slice(&f.start.to_le_bytes());
            out.extend_from_slice(&f.end.to_le_bytes());
            out.extend_from_slice(&f.index.to_le_bytes());
            out.extend_from_slice(&f.clock_at_entry.to_le_bytes());
        }
        // The reserved `single` and reduction sections, both empty.
        out.extend_from_slice(&[0u8; 8]);
        out
    }

    /// Decode a `PPARPRG1` section. Errors on a bad magic, an unknown
    /// version, a truncated body or a non-zero reserved word — callers
    /// treat any error as "no cursor" and fall back to classic replay.
    pub fn decode(bytes: &[u8]) -> Result<RegionCursor> {
        let mut r = Reader { bytes, pos: 0 };
        let magic = r.take(8)?;
        if magic != PROGRESS_MAGIC {
            return Err(PparError::CorruptCheckpoint(format!(
                "progress section: bad magic {magic:02x?}"
            )));
        }
        let version = r.u32()?;
        if version != PROGRESS_VERSION {
            return Err(PparError::CorruptCheckpoint(format!(
                "progress section: unsupported version {version}"
            )));
        }
        let point_count = r.u64()?;
        let construct_seq = r.u64()?;
        let nframes = r.u32()? as usize;
        let mut frames = Vec::with_capacity(nframes.min(64));
        for _ in 0..nframes {
            let nlen = r.u32()? as usize;
            let name = String::from_utf8(r.take(nlen)?.to_vec()).map_err(|_| {
                PparError::CorruptCheckpoint("progress section: non-UTF-8 loop name".into())
            })?;
            frames.push(LoopFrame {
                name,
                start: r.u64()?,
                end: r.u64()?,
                index: r.u64()?,
                clock_at_entry: r.u64()?,
            });
        }
        let (nsingles, nreduce) = (r.u32()?, r.u32()?);
        if (construct_seq, nsingles, nreduce) != (0, 0, 0) {
            return Err(PparError::CorruptCheckpoint(
                "progress section: mid-construct position in a version-1 cursor".into(),
            ));
        }
        if r.pos != bytes.len() {
            return Err(PparError::CorruptCheckpoint(format!(
                "progress section: {} trailing bytes",
                bytes.len() - r.pos
            )));
        }
        Ok(RegionCursor {
            point_count,
            frames,
        })
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        let end =
            end.ok_or_else(|| PparError::CorruptCheckpoint("progress section: truncated".into()))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4B")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }
}

// ---------------------------------------------------------------------------
// Per-thread loop-nesting depth
// ---------------------------------------------------------------------------

thread_local! {
    static LOOP_DEPTH: Cell<usize> = const { Cell::new(0) };
    static JUMPS: Cell<usize> = const { Cell::new(0) };
}

/// Enter one `iter_loop` nesting level on this thread; returns the depth
/// the loop runs at (0 = outermost). The caller must balance with
/// [`depth_exit`].
pub fn depth_enter() -> usize {
    LOOP_DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    })
}

/// Leave an `iter_loop` nesting level: restore the depth captured by the
/// matching [`depth_enter`].
pub fn depth_exit(depth: usize) {
    LOOP_DEPTH.with(|d| d.set(depth));
}

/// Reset the nesting depth and the resume-jump count (region entry / new
/// root context): an unwound run — drained worker, live mode switch — may
/// leave stale values on a reused pool thread.
pub fn depth_reset() {
    LOOP_DEPTH.with(|d| d.set(0));
    JUMPS.with(|j| j.set(0));
}

/// Cursor jumps performed by the current thread in this replay. A frame at
/// nesting depth `d` may only be resumed after the `d` enclosing frames
/// were (jump count == depth): an inner frame's index is only meaningful
/// inside the recorded outer iteration, so when an outer loop declines to
/// jump (renamed loop, stale cursor) the inner frames must replay
/// classically too.
pub fn jumps() -> usize {
    JUMPS.with(|j| j.get())
}

/// Record one successful cursor jump on this thread.
pub fn jumps_note() {
    JUMPS.with(|j| j.set(j.get() + 1));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RegionCursor {
        RegionCursor {
            point_count: 17,
            frames: vec![
                LoopFrame {
                    name: "iters".into(),
                    start: 0,
                    end: 100,
                    index: 42,
                    clock_at_entry: 16,
                },
                LoopFrame {
                    name: "inner".into(),
                    start: 3,
                    end: 9,
                    index: 5,
                    clock_at_entry: 17,
                },
            ],
        }
    }

    #[test]
    fn roundtrips_byte_identically() {
        let c = sample();
        let bytes = c.encode();
        let back = RegionCursor::decode(&bytes).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.encode(), bytes, "re-encode must be byte-identical");
    }

    #[test]
    fn empty_cursor_roundtrips() {
        let c = RegionCursor::default();
        assert_eq!(RegionCursor::decode(&c.encode()).unwrap(), c);
    }

    #[test]
    fn rejects_bad_magic_version_and_truncation() {
        assert!(RegionCursor::decode(b"NOTMAGIC").is_err());
        let mut bytes = sample().encode();
        bytes[8] = 99; // version
        assert!(RegionCursor::decode(&bytes).is_err());
        let bytes = sample().encode();
        assert!(RegionCursor::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut long = bytes.clone();
        long.push(0);
        assert!(RegionCursor::decode(&long).is_err(), "trailing bytes");
    }

    // Arbitrary cursors, shaped like every engine family writes them: seq
    // and SMP teams record plain frames; DSM/hybrid masters record frames
    // whose clocks come from per-rank replay (any u64); TCP workers decode
    // bytes that crossed a socket. The format must roundtrip byte-for-byte
    // regardless of which engine produced the frames.
    fn arb_cursor() -> impl proptest::strategy::Strategy<Value = RegionCursor> {
        use proptest::collection::vec;
        use proptest::prelude::*;
        let frame = (
            ".*",
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        )
            .prop_map(|(name, (start, end, index, clock_at_entry))| LoopFrame {
                name,
                start,
                end,
                index,
                clock_at_entry,
            });
        (any::<u64>(), vec(frame, 0..5)).prop_map(|(point_count, frames)| RegionCursor {
            point_count,
            frames,
        })
    }

    proptest::proptest! {
        #[test]
        fn prop_encode_decode_roundtrips_byte_identically(c in arb_cursor()) {
            let bytes = c.encode();
            let back = RegionCursor::decode(&bytes).unwrap();
            proptest::prop_assert_eq!(back.encode(), bytes);
            proptest::prop_assert_eq!(back, c);
        }

        #[test]
        fn prop_decode_never_panics_on_garbage(bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256)) {
            let _ = RegionCursor::decode(&bytes);
        }
    }

    #[test]
    fn depth_is_balanced_and_thread_local() {
        assert_eq!(depth_enter(), 0);
        assert_eq!(depth_enter(), 1);
        depth_exit(1);
        assert_eq!(depth_enter(), 1);
        depth_exit(1);
        depth_exit(0);
        std::thread::spawn(|| assert_eq!(depth_enter(), 0))
            .join()
            .unwrap();
        depth_reset();
        assert_eq!(depth_enter(), 0);
        depth_reset();
    }
}
