//! Cache-line-padded atomic chunk claiming for dynamically scheduled loops.
//!
//! `Dynamic` and `Guided` schedules hand out iteration chunks from a shared
//! cursor that every line of execution hammers concurrently. The cursor is
//! the *only* hot shared word in a work-shared loop, so it gets its own
//! cache line ([`CachePadded`]) — otherwise it false-shares with whatever
//! the allocator happens to place next to it (in the pre-refactor engine,
//! the surrounding `HashMap` entry), and every claim ping-pongs unrelated
//! state between cores. The same [`ChunkCursor`] type is used by the
//! shared-memory team and by the local lines of execution of the hybrid
//! (distributed × team) engine, so the claiming protocol exists exactly
//! once.

use std::ops::{Deref, DerefMut, Range};

use crate::schedule::guided_next_chunk;
use crate::sync::{AtomicUsize, Ordering};

/// Pads (and aligns) `T` to a 128-byte cache-line boundary, preventing
/// false sharing between adjacent hot atomics. 128 bytes covers the
/// adjacent-line prefetcher pairs on x86 as well as 128-byte lines on
/// recent aarch64 parts.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Pad `value` onto its own cache line.
    pub const fn new(value: T) -> CachePadded<T> {
        CachePadded { value }
    }

    /// Consume the padding, returning the inner value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// The shared claim cursor of one dynamically scheduled loop: a monotone
/// index into the iteration space, advanced by whichever worker claims the
/// next chunk first.
#[derive(Debug, Default)]
pub struct ChunkCursor {
    cursor: CachePadded<AtomicUsize>,
}

impl ChunkCursor {
    /// A cursor at the start of the iteration space.
    pub const fn new() -> ChunkCursor {
        ChunkCursor {
            cursor: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Claim the next `chunk` iterations of a space of `n`; returns the
    /// claimed half-open range, empty when exhausted.
    pub fn claim(&self, n: usize, chunk: usize) -> Range<usize> {
        let chunk = chunk.max(1);
        let start = self.cursor.fetch_add(chunk, Ordering::Relaxed);
        if start >= n {
            return 0..0;
        }
        start..(start + chunk).min(n)
    }

    /// Claim a guided chunk: proportional to the remaining iterations,
    /// never below `min_chunk` (OpenMP `guided`).
    pub fn claim_guided(&self, n: usize, workers: usize, min_chunk: usize) -> Range<usize> {
        loop {
            let start = self.cursor.load(Ordering::Relaxed);
            if start >= n {
                return 0..0;
            }
            let size = guided_next_chunk(n - start, workers, min_chunk);
            if self
                .cursor
                .compare_exchange(start, start + size, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return start..start + size;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn padded_layout_is_cache_line_sized() {
        assert_eq!(std::mem::align_of::<CachePadded<AtomicUsize>>(), 128);
        assert_eq!(std::mem::size_of::<CachePadded<AtomicUsize>>(), 128);
        let p = CachePadded::new(7usize);
        assert_eq!(*p, 7);
        assert_eq!(p.into_inner(), 7);
    }

    #[test]
    fn claims_cover_exactly_once() {
        let cursor = Arc::new(ChunkCursor::new());
        let n = 1003;
        let claimed = Arc::new(crate::sync::Mutex::new(vec![0u8; n]));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let (cursor, claimed) = (cursor.clone(), claimed.clone());
                std::thread::spawn(move || loop {
                    let r = cursor.claim(n, 7);
                    if r.is_empty() {
                        break;
                    }
                    let mut c = claimed.lock();
                    for i in r {
                        c[i] += 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(claimed.lock().iter().all(|&c| c == 1));
    }

    #[test]
    fn guided_claims_cover_exactly_once() {
        let cursor = Arc::new(ChunkCursor::new());
        let n = 517;
        let claimed = Arc::new(crate::sync::Mutex::new(vec![0u8; n]));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let (cursor, claimed) = (cursor.clone(), claimed.clone());
                std::thread::spawn(move || loop {
                    let r = cursor.claim_guided(n, 4, 2);
                    if r.is_empty() {
                        break;
                    }
                    let mut c = claimed.lock();
                    for i in r {
                        c[i] += 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(claimed.lock().iter().all(|&c| c == 1));
    }
}
