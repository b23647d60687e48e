//! Shared containers for team- and aggregate-parallel base code.
//!
//! ## The disjoint-write contract
//!
//! The paper's programming model (like OpenMP's) makes the *constructs*
//! responsible for safety: a work-shared loop hands disjoint iterations to
//! different workers, and the programmer keeps each iteration's writes inside
//! its own index set. Rust cannot express that contract in the type system
//! without crippling stencil codes (which read neighbour cells while writing
//! their own), so this module provides containers with interior mutability
//! and an explicit, runtime-checkable contract:
//!
//! > Within one *epoch* (the interval between two team synchronisation
//! > points), an index written by one worker must not be written or read by
//! > any other worker.
//!
//! Violations are undefined behaviour exactly as a data race in the paper's
//! Java runtime would be a bug. Unlike Java, this library can *detect*
//! write-write violations: enable [`tracking::enable`] (or set
//! `PPAR_CHECK_DISJOINT=1` before the first container is touched) and every
//! conflicting write panics with both workers' identities. The test suite
//! runs the paper's kernels under tracking.
//!
//! ## Row and range views
//!
//! `get`/`set` pay a bounds check, an index multiply and the write
//! accounting (tracker check, dirty-chunk bit) on every element. A kernel
//! that walks whole rows takes a *view* instead:
//! [`SharedGrid::row_cells`] / [`SharedVec::cells`] hand out `&[Cell<T>]`,
//! bounds-checked once and sliced to exactly the row or range asked for.
//!
//! * **Why `Cell`-typed.** A red-black neighbour's row is read while its
//!   owner writes the other colour into it. A `&[T]` over that row would
//!   promise the compiler that none of it changes, a `&mut [T]` that nobody
//!   else looks; both are false. `&[Cell<T>]` promises neither, so the
//!   contract above stays the only rule: no *element* is written by one
//!   worker and touched by another in the same epoch. `Cell` is not `Sync`,
//!   so a view never leaves the thread that took it.
//! * **Who declares the written range.** A view does no accounting. The
//!   code that writes through it declares what it wrote, once per row or
//!   range, with [`SharedGrid::mark_row_written`] /
//!   [`SharedVec::mark_written`]. The declared range must cover every
//!   element written and should be tight (first to last written element):
//!   it is what a delta saves, and what a full save rewrites in the file
//!   it recycles.
//! * **What tracking sees.** With the tracker on, a declaration records
//!   every index *of the declared range* for the calling worker, so two
//!   workers declaring overlapping ranges in one epoch panic like two
//!   conflicting `set`s. A strided kernel (every other cell of a row)
//!   therefore claims the gaps too. That is sound as long as no other
//!   worker writes the gaps in the same epoch: the SOR kernel declares
//!   first to last cell stored of a row only it relaxes in that sweep.

use std::cell::{Cell, UnsafeCell};
use std::collections::HashMap;

use crate::error::{PparError, Result};
use crate::state::{DistCell, Scalar, StateCell};
use crate::sync::{AtomicBool, AtomicU64, Mutex, Ordering};

// Snapshot fast-path note: for every `Scalar` provided here, `write_le`
// emits the value's little-endian memory representation, so on LE hosts the
// containers below satisfy `save_bytes() == raw backing bytes` and stream
// snapshots without touching individual elements.

// ---------------------------------------------------------------------------
// worker identity + write tracking
// ---------------------------------------------------------------------------

thread_local! {
    static CURRENT_WORKER: Cell<usize> = const { Cell::new(0) };
}

/// Record which team worker the current OS thread is acting as. Called by the
/// runtimes when (re)assigning pool threads; base code never calls this.
pub fn set_current_worker(worker: usize) {
    CURRENT_WORKER.with(|w| w.set(worker));
}

/// The team worker id of the current OS thread (0 outside any team).
pub fn current_worker() -> usize {
    CURRENT_WORKER.with(|w| w.get())
}

/// Optional run-time detector for violations of the disjoint-write contract.
pub mod tracking {
    use super::*;

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static EPOCH: AtomicU64 = AtomicU64::new(0);

    struct Log {
        // (container id, index) -> (worker, epoch)
        writes: HashMap<(u64, usize), (usize, u64)>,
    }

    static LOG: Mutex<Option<Log>> = Mutex::new(None);

    /// Turn conflict detection on (idempotent). Writes become significantly
    /// slower; intended for tests and debugging.
    pub fn enable() {
        let mut log = LOG.lock();
        if log.is_none() {
            *log = Some(Log {
                writes: HashMap::new(),
            });
        }
        ENABLED.store(true, Ordering::SeqCst);
    }

    /// Turn detection off and discard the log.
    pub fn disable() {
        ENABLED.store(false, Ordering::SeqCst);
        *LOG.lock() = None;
    }

    /// Is detection currently on?
    #[inline]
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Start a new epoch: writes before this call no longer conflict with
    /// writes after it. The runtimes call this at every team synchronisation
    /// point (region boundaries and barriers).
    pub fn advance_epoch() {
        if enabled() {
            EPOCH.fetch_add(1, Ordering::SeqCst);
        }
    }

    pub(super) fn record(container: u64, index: usize, worker: usize) {
        let epoch = EPOCH.load(Ordering::SeqCst);
        let mut guard = LOG.lock();
        let log = match guard.as_mut() {
            Some(l) => l,
            None => return,
        };
        if let Some(&(prev_worker, prev_epoch)) = log.writes.get(&(container, index)) {
            if prev_epoch == epoch && prev_worker != worker {
                panic!(
                    "disjoint-write contract violation: container #{container} index \
                     {index} written by worker {prev_worker} and worker {worker} in the \
                     same epoch {epoch}"
                );
            }
        }
        log.writes.insert((container, index), (worker, epoch));
    }

    pub(super) fn maybe_init_from_env() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            if std::env::var("PPAR_CHECK_DISJOINT")
                .map(|v| v == "1")
                .unwrap_or(false)
            {
                enable();
            }
        });
    }
}

static NEXT_CONTAINER_ID: AtomicU64 = AtomicU64::new(1);

fn next_container_id() -> u64 {
    tracking::maybe_init_from_env();
    NEXT_CONTAINER_ID.fetch_add(1, Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// chunked dirty tracking (checkpointing)
// ---------------------------------------------------------------------------

/// Granularity of the per-container write bitmap: one bit per
/// `DIRTY_CHUNK_BYTES` of the portable encoding. 8 KiB balances bitmap size
/// (a 2 MiB field needs 256 bits = 4 words) against delta payload
/// amplification (one touched element drags in at most 8 KiB). The value is
/// a multiple of every [`Scalar::WIDTH`], so elements never straddle chunks.
pub const DIRTY_CHUNK_BYTES: usize = 8192;

// Process-wide switch for per-write chunk marking. Off by default so runs
// that never checkpoint pay a single predictable branch per write
// (mirroring `tracking::enabled`). `clear_dirty` turns it on, and the
// checkpoint module clears after every save — full or delta — so any
// checkpointing run marks from its first save on: a delta stores the dirty
// ranges, and a full save rewrites only them in the file it recycles. That
// is sufficient for correctness: until the first `clear_dirty`, every
// container's bitmap still holds its initial all-dirty state, so writes
// made while marking was off are covered; any `dirty_ranges` reader that
// relies on precise tracking must by definition have cleared first. Never
// turned off again (enabling is monotone; engines quiesce around the
// snapshot that clears, so no write races the flip).
static DIRTY_MARKING: AtomicBool = AtomicBool::new(false);

#[inline]
fn dirty_marking_enabled() -> bool {
    DIRTY_MARKING.load(Ordering::Relaxed)
}

/// Lock-free bitmap with one bit per [`DIRTY_CHUNK_BYTES`] chunk of a
/// container's byte encoding. Marking uses a relaxed check-then-set so the
/// hot write path pays one cached load when the bit is already set;
/// concurrent disjoint writers sharing a chunk race benignly on the atomic
/// OR. Snapshots read the bitmap only after the engine has quiesced the
/// team/aggregate (the same contract as `as_slice`).
struct DirtyBitmap {
    words: Box<[AtomicU64]>,
    chunks: usize,
}

impl DirtyBitmap {
    /// Bitmap covering `byte_len` encoded bytes, initially **all dirty**: a
    /// never-snapshotted container is entirely "touched" relative to any
    /// base.
    fn new_all_dirty(byte_len: usize) -> DirtyBitmap {
        let chunks = byte_len.div_ceil(DIRTY_CHUNK_BYTES);
        let words = (0..chunks.div_ceil(64))
            .map(|_| AtomicU64::new(u64::MAX))
            .collect();
        DirtyBitmap { words, chunks }
    }

    #[inline]
    fn mark_byte(&self, byte: usize) {
        if !dirty_marking_enabled() {
            return;
        }
        let chunk = byte / DIRTY_CHUNK_BYTES;
        let (word, bit) = (chunk / 64, 1u64 << (chunk % 64));
        let w = &self.words[word];
        if w.load(Ordering::Relaxed) & bit == 0 {
            w.fetch_or(bit, Ordering::Relaxed);
        }
    }

    /// Mark every chunk overlapping the byte range `start..end`.
    fn mark_byte_range(&self, start: usize, end: usize) {
        if start >= end || !dirty_marking_enabled() {
            return;
        }
        let first = start / DIRTY_CHUNK_BYTES;
        let last = (end - 1) / DIRTY_CHUNK_BYTES;
        for chunk in first..=last {
            let (word, bit) = (chunk / 64, 1u64 << (chunk % 64));
            let w = &self.words[word];
            if w.load(Ordering::Relaxed) & bit == 0 {
                w.fetch_or(bit, Ordering::Relaxed);
            }
        }
    }

    fn mark_all(&self) {
        for w in &self.words {
            w.store(u64::MAX, Ordering::Relaxed);
        }
    }

    fn clear(&self) {
        for w in &self.words {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Dirty chunks coalesced into sorted, non-overlapping byte ranges,
    /// clamped to `byte_len` (the container's encoded length).
    fn ranges(&self, byte_len: usize) -> Vec<std::ops::Range<usize>> {
        let mut out: Vec<std::ops::Range<usize>> = Vec::new();
        for chunk in 0..self.chunks {
            let set = self.words[chunk / 64].load(Ordering::Relaxed) & (1u64 << (chunk % 64)) != 0;
            if !set {
                continue;
            }
            let start = chunk * DIRTY_CHUNK_BYTES;
            let end = ((chunk + 1) * DIRTY_CHUNK_BYTES).min(byte_len);
            match out.last_mut() {
                Some(prev) if prev.end == start => prev.end = end,
                _ => out.push(start..end),
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// SharedVec
// ---------------------------------------------------------------------------

/// A fixed-length vector of scalars writable concurrently at disjoint indices
/// (see the module-level contract).
pub struct SharedVec<T: Scalar> {
    id: u64,
    data: Box<[UnsafeCell<T>]>,
    dirty: DirtyBitmap,
}

// Safety: T is a plain Copy scalar; concurrent disjoint access is the
// documented contract, analogous to `&[AtomicT]` but without per-access
// ordering cost. See module docs.
unsafe impl<T: Scalar> Sync for SharedVec<T> {}
unsafe impl<T: Scalar> Send for SharedVec<T> {}

impl<T: Scalar> SharedVec<T> {
    /// A vector of `len` copies of `init`.
    pub fn new(len: usize, init: T) -> Self {
        SharedVec {
            id: next_container_id(),
            data: (0..len).map(|_| UnsafeCell::new(init)).collect(),
            dirty: DirtyBitmap::new_all_dirty(len * T::WIDTH),
        }
    }

    /// Take ownership of an existing vector.
    pub fn from_vec(v: Vec<T>) -> Self {
        let dirty = DirtyBitmap::new_all_dirty(v.len() * T::WIDTH);
        SharedVec {
            id: next_container_id(),
            data: v.into_iter().map(UnsafeCell::new).collect(),
            dirty,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read element `i`.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        unsafe { *self.data[i].get() }
    }

    /// Write element `i` (subject to the disjoint-write contract).
    #[inline]
    pub fn set(&self, i: usize, v: T) {
        if tracking::enabled() {
            tracking::record(self.id, i, current_worker());
        }
        unsafe {
            *self.data[i].get() = v;
        }
        self.dirty.mark_byte(i * T::WIDTH);
    }

    /// View the whole vector as a slice. Only meaningful while no concurrent
    /// writers are active (e.g. in master-only or sequential phases).
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // Safety: UnsafeCell<T> is layout-identical to T.
        unsafe { std::slice::from_raw_parts(self.data.as_ptr() as *const T, self.data.len()) }
    }

    /// Copy out the contents.
    pub fn to_vec(&self) -> Vec<T> {
        self.as_slice().to_vec()
    }

    /// True when the in-memory layout *is* the portable encoding: a
    /// little-endian host and an element whose encoded width equals its
    /// in-memory size. [`Scalar::write_le`] of every provided element type
    /// emits the value's little-endian byte representation, so under this
    /// condition snapshot/extract paths can memcpy instead of looping
    /// element by element.
    #[inline]
    fn le_layout() -> bool {
        cfg!(target_endian = "little") && T::LE_MEMCPY_SAFE && T::WIDTH == std::mem::size_of::<T>()
    }

    /// Raw byte view of elements `range` (callers must have checked
    /// [`SharedVec::le_layout`]; same no-concurrent-writers caveat as
    /// [`SharedVec::as_slice`]).
    #[inline]
    fn raw_bytes(&self, range: std::ops::Range<usize>) -> &[u8] {
        let slice = &self.as_slice()[range];
        // Safety: T is a plain Copy scalar with size_of::<T>() == T::WIDTH
        // (checked by le_layout), so the element bytes are exactly the
        // little-endian encoding on this host.
        unsafe {
            std::slice::from_raw_parts(slice.as_ptr() as *const u8, std::mem::size_of_val(slice))
        }
    }

    /// `Cell`-typed view of elements `range` for bulk reads and writes (see
    /// *Row and range views* in the module docs). Writes through the view
    /// are subject to the disjoint-write contract and must be declared with
    /// [`SharedVec::mark_written`]. Panics when `range` is out of bounds.
    #[inline]
    pub fn cells(&self, range: std::ops::Range<usize>) -> &[Cell<T>] {
        let part: &[UnsafeCell<T>] = &self.data[range];
        // Safety: `Cell<T>` is a `repr(transparent)` wrapper of
        // `UnsafeCell<T>`, so the two slices have the same layout and length,
        // and a `Cell` allows nothing the `UnsafeCell` behind `get`/`set`
        // does not already allow: reads and writes of single elements
        // through a shared reference. `Cell` is `!Sync`, which keeps the
        // view on this thread; what other threads do to the same elements
        // meanwhile is bounded by the module's disjoint-write contract,
        // exactly as for `get`/`set`.
        unsafe { &*(part as *const [UnsafeCell<T>] as *const [Cell<T>]) }
    }

    /// Declare elements `range` written by the calling worker: the write
    /// accounting of one `set` per element, paid once. Checks the range
    /// against the tracker when it is on and marks the dirty chunks the
    /// range overlaps.
    #[inline]
    pub fn mark_written(&self, range: std::ops::Range<usize>) {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "written range {range:?} out of bounds for {} elements",
            self.len()
        );
        if tracking::enabled() {
            let w = current_worker();
            for i in range.clone() {
                tracking::record(self.id, i, w);
            }
        }
        self.dirty
            .mark_byte_range(range.start * T::WIDTH, range.end * T::WIDTH);
    }

    /// Overwrite `dst_start..dst_start+src.len()` from a slice.
    pub fn copy_in(&self, dst_start: usize, src: &[T]) {
        assert!(dst_start + src.len() <= self.len(), "copy_in out of bounds");
        let range = dst_start..dst_start + src.len();
        self.mark_written(range.clone());
        for (cell, &v) in self.cells(range).iter().zip(src) {
            cell.set(v);
        }
    }

    /// Set every element to `v`.
    pub fn fill(&self, v: T) {
        self.copy_in_from_fn(|_| v);
    }

    /// Set every element from an index function.
    pub fn copy_in_from_fn(&self, f: impl Fn(usize) -> T) {
        if tracking::enabled() {
            let w = current_worker();
            for i in 0..self.len() {
                tracking::record(self.id, i, w);
            }
        }
        for i in 0..self.len() {
            unsafe {
                *self.data[i].get() = f(i);
            }
        }
        self.dirty.mark_all();
    }

    /// Byte offsets of the encoding touched since the last
    /// [`StateCell::clear_dirty`] (coalesced chunk granularity). Exposed on
    /// the container too so engines and benches can reach it without a trait
    /// object.
    pub fn dirty_byte_ranges(&self) -> Vec<std::ops::Range<usize>> {
        self.dirty.ranges(self.len() * T::WIDTH)
    }
}

impl<T: Scalar> StateCell for SharedVec<T> {
    fn save_bytes(&self) -> Vec<u8> {
        if Self::le_layout() {
            return self.raw_bytes(0..self.len()).to_vec();
        }
        // Fallback: per-element encode (big-endian hosts / exotic scalars).
        let mut out = vec![0u8; self.len() * T::WIDTH];
        for (i, chunk) in out.chunks_exact_mut(T::WIDTH).enumerate() {
            self.get(i).write_le(chunk);
        }
        out
    }

    fn load_bytes(&self, bytes: &[u8]) -> Result<()> {
        if bytes.len() != self.len() * T::WIDTH {
            return Err(PparError::CorruptCheckpoint(format!(
                "SharedVec expected {} bytes, got {}",
                self.len() * T::WIDTH,
                bytes.len()
            )));
        }
        if Self::le_layout() && !tracking::enabled() {
            // Restore fast path: one memcpy into the backing storage. Loads
            // only run in quiesced phases (restart, broadcast install), the
            // same contract as `as_slice`.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    bytes.as_ptr(),
                    self.data.as_ptr() as *mut u8,
                    bytes.len(),
                );
            }
            self.dirty.mark_all();
            return Ok(());
        }
        for (i, chunk) in bytes.chunks_exact(T::WIDTH).enumerate() {
            self.set(i, T::read_le(chunk));
        }
        Ok(())
    }

    fn byte_len(&self) -> usize {
        self.len() * T::WIDTH
    }

    fn write_state(&self, w: &mut dyn std::io::Write) -> Result<u64> {
        if Self::le_layout() {
            // Zero-copy: hand the backing bytes straight to the sink — no
            // per-element loop, no intermediate Vec.
            let bytes = self.raw_bytes(0..self.len());
            w.write_all(bytes)?;
            return Ok(bytes.len() as u64);
        }
        let bytes = self.save_bytes();
        w.write_all(&bytes)?;
        Ok(bytes.len() as u64)
    }

    fn encoded(&self) -> Option<&[u8]> {
        Self::le_layout().then(|| self.raw_bytes(0..self.len()))
    }

    fn dirty_ranges(&self) -> Option<Vec<std::ops::Range<usize>>> {
        Some(self.dirty_byte_ranges())
    }

    fn write_dirty_state(
        &self,
        ranges: &[std::ops::Range<usize>],
        w: &mut dyn std::io::Write,
    ) -> Result<u64> {
        let byte_len = self.len() * T::WIDTH;
        let mut written = 0u64;
        for r in ranges {
            if r.start > r.end
                || r.end > byte_len
                || !r.start.is_multiple_of(T::WIDTH)
                || !r.end.is_multiple_of(T::WIDTH)
            {
                return Err(PparError::CorruptCheckpoint(format!(
                    "dirty range {r:?} invalid for a {byte_len}-byte SharedVec \
                     (element width {})",
                    T::WIDTH
                )));
            }
            let elems = r.start / T::WIDTH..r.end / T::WIDTH;
            if Self::le_layout() {
                // Same zero-copy slice handoff as `write_state`, restricted
                // to the touched bytes.
                let bytes = self.raw_bytes(elems);
                w.write_all(bytes)?;
                written += bytes.len() as u64;
            } else {
                let mut buf = vec![0u8; elems.len() * T::WIDTH];
                for (k, chunk) in buf.chunks_exact_mut(T::WIDTH).enumerate() {
                    self.get(elems.start + k).write_le(chunk);
                }
                w.write_all(&buf)?;
                written += buf.len() as u64;
            }
        }
        Ok(written)
    }

    fn clear_dirty(&self) {
        // Clearing declares "track my writes precisely from here on" — turn
        // per-write marking on process-wide (monotone, see DIRTY_MARKING).
        DIRTY_MARKING.store(true, Ordering::SeqCst);
        self.dirty.clear();
    }
}

impl<T: Scalar> DistCell for SharedVec<T> {
    fn logical_len(&self) -> usize {
        self.len()
    }

    fn index_bytes(&self) -> usize {
        T::WIDTH
    }

    fn extract(&self, range: std::ops::Range<usize>) -> Vec<u8> {
        if Self::le_layout() {
            return self.raw_bytes(range).to_vec();
        }
        let mut out = vec![0u8; range.len() * T::WIDTH];
        for (k, chunk) in out.chunks_exact_mut(T::WIDTH).enumerate() {
            self.get(range.start + k).write_le(chunk);
        }
        out
    }

    fn extract_into(&self, range: std::ops::Range<usize>, out: &mut Vec<u8>) {
        if Self::le_layout() {
            out.extend_from_slice(self.raw_bytes(range));
            return;
        }
        let start = out.len();
        out.resize(start + range.len() * T::WIDTH, 0);
        for (k, chunk) in out[start..].chunks_exact_mut(T::WIDTH).enumerate() {
            self.get(range.start + k).write_le(chunk);
        }
    }

    fn install(&self, range: std::ops::Range<usize>, bytes: &[u8]) -> Result<()> {
        if bytes.len() != range.len() * T::WIDTH {
            return Err(PparError::CorruptCheckpoint(format!(
                "SharedVec install: range {range:?} needs {} bytes, got {}",
                range.len() * T::WIDTH,
                bytes.len()
            )));
        }
        if Self::le_layout() && !tracking::enabled() {
            let dst = &self.data[range.clone()];
            // Safety: same quiesced-phase contract as `load_bytes`.
            unsafe {
                std::ptr::copy_nonoverlapping(bytes.as_ptr(), dst.as_ptr() as *mut u8, bytes.len());
            }
            self.dirty
                .mark_byte_range(range.start * T::WIDTH, range.end * T::WIDTH);
            return Ok(());
        }
        for (k, chunk) in bytes.chunks_exact(T::WIDTH).enumerate() {
            self.set(range.start + k, T::read_le(chunk));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// SharedGrid
// ---------------------------------------------------------------------------

/// A dense row-major 2-D grid of scalars with the same concurrency contract
/// as [`SharedVec`]. The *logical index space* for distribution purposes is
/// the row index, matching the paper's block-wise matrix partitions.
pub struct SharedGrid<T: Scalar> {
    rows: usize,
    cols: usize,
    data: SharedVec<T>,
}

impl<T: Scalar> SharedGrid<T> {
    /// A `rows × cols` grid of copies of `init`.
    pub fn new(rows: usize, cols: usize, init: T) -> Self {
        SharedGrid {
            rows,
            cols,
            data: SharedVec::new(rows * cols, init),
        }
    }

    /// Take ownership of row-major data (`v.len() == rows*cols`).
    pub fn from_vec(rows: usize, cols: usize, v: Vec<T>) -> Self {
        assert_eq!(v.len(), rows * cols, "row-major data length mismatch");
        SharedGrid {
            rows,
            cols,
            data: SharedVec::from_vec(v),
        }
    }

    /// Row count.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Read cell `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> T {
        debug_assert!(r < self.rows && c < self.cols);
        self.data.get(r * self.cols + c)
    }

    /// Write cell `(r, c)` (disjoint-write contract).
    #[inline]
    pub fn set(&self, r: usize, c: usize, v: T) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data.set(r * self.cols + c, v);
    }

    /// Borrow row `r` as a slice (no concurrent writers to that row).
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        &self.data.as_slice()[r * self.cols..(r + 1) * self.cols]
    }

    /// `Cell`-typed view of row `r`, exactly `cols` long (see *Row and range
    /// views* in the module docs). Unlike `get`/`set`, whose column check is
    /// a `debug_assert`, the row index is checked in every build and no
    /// index into the view can reach another row.
    #[inline]
    pub fn row_cells(&self, r: usize) -> &[Cell<T>] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        self.data.cells(r * self.cols..(r + 1) * self.cols)
    }

    /// Declare columns `cols` of row `r` written by the calling worker
    /// ([`SharedVec::mark_written`] in grid coordinates).
    #[inline]
    pub fn mark_row_written(&self, r: usize, cols: std::ops::Range<usize>) {
        assert!(
            r < self.rows && cols.end <= self.cols,
            "written columns {cols:?} of row {r} out of bounds ({}x{})",
            self.rows,
            self.cols
        );
        self.data
            .mark_written(r * self.cols + cols.start..r * self.cols + cols.end);
    }

    /// Overwrite row `r` from a slice of length `cols`.
    pub fn set_row(&self, r: usize, src: &[T]) {
        assert_eq!(src.len(), self.cols, "row length mismatch");
        self.data.copy_in(r * self.cols, src);
    }

    /// The flat backing vector.
    pub fn flat(&self) -> &SharedVec<T> {
        &self.data
    }

    /// Sum of all cells as f64 (validation helper).
    pub fn sum_f64(&self) -> f64
    where
        T: Into<f64>,
    {
        self.data.as_slice().iter().map(|&v| v.into()).sum()
    }
}

impl<T: Scalar> StateCell for SharedGrid<T> {
    fn save_bytes(&self) -> Vec<u8> {
        self.data.save_bytes()
    }

    fn load_bytes(&self, bytes: &[u8]) -> Result<()> {
        self.data.load_bytes(bytes)
    }

    fn byte_len(&self) -> usize {
        self.data.byte_len()
    }

    fn write_state(&self, w: &mut dyn std::io::Write) -> Result<u64> {
        self.data.write_state(w)
    }

    fn encoded(&self) -> Option<&[u8]> {
        self.data.encoded()
    }

    fn dirty_ranges(&self) -> Option<Vec<std::ops::Range<usize>>> {
        self.data.dirty_ranges()
    }

    fn write_dirty_state(
        &self,
        ranges: &[std::ops::Range<usize>],
        w: &mut dyn std::io::Write,
    ) -> Result<u64> {
        self.data.write_dirty_state(ranges, w)
    }

    fn clear_dirty(&self) {
        self.data.clear_dirty();
    }
}

impl<T: Scalar> DistCell for SharedGrid<T> {
    fn logical_len(&self) -> usize {
        self.rows
    }

    fn index_bytes(&self) -> usize {
        self.cols * T::WIDTH
    }

    fn extract(&self, range: std::ops::Range<usize>) -> Vec<u8> {
        self.data
            .extract(range.start * self.cols..range.end * self.cols)
    }

    fn extract_into(&self, range: std::ops::Range<usize>, out: &mut Vec<u8>) {
        self.data
            .extract_into(range.start * self.cols..range.end * self.cols, out);
    }

    fn install(&self, range: std::ops::Range<usize>, bytes: &[u8]) -> Result<()> {
        self.data
            .install(range.start * self.cols..range.end * self.cols, bytes)
    }
}

// ---------------------------------------------------------------------------
// TeamLocal
// ---------------------------------------------------------------------------

/// Cache-line padding to prevent false sharing between worker slots.
#[repr(align(64))]
struct Pad<T>(UnsafeCell<T>);

/// A per-team-worker private field (the paper's "thread local fields",
/// §III.B): each worker in a team sees its own copy, avoiding
/// synchronisation. On team expansion the runtime copies the master's value
/// into new workers' slots ("thread local variables are updated with the
/// value of the main thread", §IV.B).
pub struct TeamLocal<T: Clone + Send> {
    slots: Box<[Pad<T>]>,
}

unsafe impl<T: Clone + Send> Sync for TeamLocal<T> {}
unsafe impl<T: Clone + Send> Send for TeamLocal<T> {}

impl<T: Clone + Send> TeamLocal<T> {
    /// Allocate `capacity` slots initialised by `init(slot_index)`.
    /// `capacity` bounds the largest team this field can serve; the runtimes
    /// panic with a clear message if an expansion exceeds it.
    pub fn new(capacity: usize, init: impl Fn(usize) -> T) -> Self {
        TeamLocal {
            slots: (0..capacity.max(1))
                .map(|i| Pad(UnsafeCell::new(init(i))))
                .collect(),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn check(&self, worker: usize) {
        assert!(
            worker < self.slots.len(),
            "TeamLocal capacity {} too small for worker {worker}; allocate it with a \
             capacity covering the largest team (including future expansions)",
            self.slots.len()
        );
    }

    /// Read worker `worker`'s value.
    pub fn get(&self, worker: usize) -> T {
        self.check(worker);
        unsafe { (*self.slots[worker].0.get()).clone() }
    }

    /// Mutate worker `worker`'s value. Must only be called from the thread
    /// currently acting as that worker (the `Ctx` wrappers enforce this by
    /// construction).
    pub fn with_mut<R>(&self, worker: usize, f: impl FnOnce(&mut T) -> R) -> R {
        self.check(worker);
        unsafe { f(&mut *self.slots[worker].0.get()) }
    }

    /// Replace worker `worker`'s value.
    pub fn set(&self, worker: usize, v: T) {
        self.with_mut(worker, |slot| *slot = v);
    }

    /// Copy the master's (slot 0) value into workers `1..team`. Called by the
    /// runtimes during expansion, at a point with no concurrent access.
    pub fn broadcast_master(&self, team: usize) {
        let master = self.get(0);
        for w in 1..team.min(self.slots.len()) {
            self.set(w, master.clone());
        }
    }

    /// Fold all slots `0..team` into one value (used to merge per-worker
    /// accumulators after a region).
    pub fn fold<A>(&self, team: usize, init: A, mut f: impl FnMut(A, T) -> A) -> A {
        let mut acc = init;
        for w in 0..team.min(self.slots.len()) {
            acc = f(acc, self.get(w));
        }
        acc
    }
}

impl<T: Scalar> StateCell for TeamLocal<T> {
    /// Checkpoints persist only the master's slot: per-worker values are
    /// execution artefacts, and on restart the team is rebuilt with the
    /// master's value broadcast (same rule as expansion).
    fn save_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; T::WIDTH];
        self.get(0).write_le(&mut out);
        out
    }

    fn load_bytes(&self, bytes: &[u8]) -> Result<()> {
        if bytes.len() != T::WIDTH {
            return Err(PparError::CorruptCheckpoint(format!(
                "TeamLocal expected {} bytes, got {}",
                T::WIDTH,
                bytes.len()
            )));
        }
        self.set(0, T::read_le(bytes));
        self.broadcast_master(self.capacity());
        Ok(())
    }

    fn byte_len(&self) -> usize {
        T::WIDTH
    }
}

/// Convenience alias used by kernels: a shared grid of `f64`.
pub type GridF64 = SharedGrid<f64>;
/// Convenience alias used by kernels: a shared vector of `f64`.
pub type VecF64 = SharedVec<f64>;

#[cfg(test)]
// Single-element range collections below are genuine range *data* (dirty
// byte spans), not mistyped value ranges.
#[allow(clippy::single_range_in_vec_init)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn shared_vec_basics() {
        let v = SharedVec::new(4, 0.0f64);
        v.set(2, 3.5);
        assert_eq!(v.get(2), 3.5);
        assert_eq!(v.as_slice(), &[0.0, 0.0, 3.5, 0.0]);
        assert_eq!(v.len(), 4);
        assert!(!v.is_empty());
    }

    #[test]
    fn shared_vec_state_roundtrip() {
        let v = SharedVec::from_vec(vec![1.0f64, -2.0, 3.0]);
        let bytes = v.save_bytes();
        assert_eq!(bytes.len(), 24);
        let w = SharedVec::new(3, 0.0f64);
        w.load_bytes(&bytes).unwrap();
        assert_eq!(w.to_vec(), vec![1.0, -2.0, 3.0]);
        assert!(w.load_bytes(&bytes[..8]).is_err());
    }

    #[test]
    fn write_state_streams_save_bytes_exactly() {
        // f64 exercises the little-endian memcpy fast path.
        let v = SharedVec::from_vec(vec![1.5f64, -2.25, 3.75]);
        let mut out = Vec::new();
        assert_eq!(v.write_state(&mut out).unwrap(), 24);
        assert_eq!(out, v.save_bytes());

        let g = SharedGrid::from_vec(2, 2, vec![1u32, 2, 3, 4]);
        let mut out = Vec::new();
        assert_eq!(g.write_state(&mut out).unwrap(), 16);
        assert_eq!(out, g.save_bytes());

        // The memory the fast path streams is the encoding, lent as is.
        assert_eq!(v.encoded(), Some(&v.save_bytes()[..]));
        assert_eq!(g.encoded(), Some(&g.save_bytes()[..]));

        // Zero-length vector: no bytes, no error.
        let empty = SharedVec::new(0, 0.0f64);
        let mut out = Vec::new();
        assert_eq!(empty.write_state(&mut out).unwrap(), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn save_bytes_matches_per_element_encoding() {
        // The fast path must produce exactly what the per-element encoder
        // (the portable format definition) produces.
        let values = [f64::MIN, -0.0, 0.0, f64::MAX, f64::INFINITY, 1.25e-300];
        let v = SharedVec::from_vec(values.to_vec());
        let bytes = v.save_bytes();
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            assert_eq!(chunk, values[i].to_le_bytes());
        }
    }

    #[test]
    fn extract_into_appends_and_matches_extract() {
        let v = SharedVec::from_vec(vec![1i64, 2, 3, 4, 5]);
        let mut buf = vec![0xAAu8];
        v.extract_into(1..4, &mut buf);
        assert_eq!(buf[0], 0xAA, "extract_into must append, not overwrite");
        assert_eq!(&buf[1..], v.extract(1..4).as_slice());

        let g = SharedGrid::from_vec(2, 3, vec![1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut buf = Vec::new();
        g.extract_into(1..2, &mut buf);
        assert_eq!(buf, g.extract(1..2));
    }

    #[test]
    fn shared_vec_extract_install() {
        let v = SharedVec::from_vec(vec![1i64, 2, 3, 4, 5]);
        let bytes = v.extract(1..4);
        let w = SharedVec::new(5, 0i64);
        w.install(1..4, &bytes).unwrap();
        assert_eq!(w.to_vec(), vec![0, 2, 3, 4, 0]);
        assert!(w.install(0..2, &bytes).is_err());
    }

    #[test]
    fn shared_grid_indexing_and_rows() {
        let g = SharedGrid::new(3, 4, 0.0f64);
        g.set(1, 2, 7.0);
        assert_eq!(g.get(1, 2), 7.0);
        assert_eq!(g.row(1), &[0.0, 0.0, 7.0, 0.0]);
        g.set_row(2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(g.row(2), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(g.sum_f64(), 17.0);
    }

    #[test]
    fn shared_grid_row_extract_install_roundtrip() {
        let g = SharedGrid::from_vec(2, 3, vec![1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let bytes = g.extract(1..2);
        assert_eq!(bytes.len(), 3 * 8);
        let h = SharedGrid::new(2, 3, 0.0f64);
        h.install(1..2, &bytes).unwrap();
        assert_eq!(h.row(0), &[0.0, 0.0, 0.0]);
        assert_eq!(h.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn concurrent_disjoint_writes_are_visible() {
        let v = Arc::new(SharedVec::new(1000, 0u64));
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let v = v.clone();
                std::thread::spawn(move || {
                    for i in (t as usize..1000).step_by(4) {
                        v.set(i, t + 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        for i in 0..1000 {
            assert_eq!(v.get(i), (i % 4) as u64 + 1);
        }
    }

    #[test]
    fn team_local_isolation_and_fold() {
        let tl = TeamLocal::new(4, |_| 0i64);
        tl.set(0, 10);
        tl.set(3, 5);
        assert_eq!(tl.get(0), 10);
        assert_eq!(tl.get(1), 0);
        assert_eq!(tl.fold(4, 0, |a, b| a + b), 15);
    }

    #[test]
    fn team_local_broadcast_master() {
        let tl = TeamLocal::new(3, |i| i as i64);
        tl.broadcast_master(3);
        assert_eq!(tl.get(1), 0);
        assert_eq!(tl.get(2), 0);
    }

    #[test]
    fn team_local_state_cell_restores_and_broadcasts() {
        let tl = TeamLocal::new(3, |_| 0.0f64);
        tl.set(0, 9.5);
        let bytes = tl.save_bytes();
        let tl2 = TeamLocal::new(3, |_| 0.0f64);
        tl2.load_bytes(&bytes).unwrap();
        assert_eq!(tl2.get(0), 9.5);
        assert_eq!(tl2.get(2), 9.5);
    }

    #[test]
    #[should_panic(expected = "TeamLocal capacity")]
    fn team_local_rejects_over_capacity_worker() {
        let tl = TeamLocal::new(2, |_| 0u8);
        tl.get(2);
    }

    #[test]
    fn worker_identity_is_thread_local() {
        set_current_worker(3);
        assert_eq!(current_worker(), 3);
        let handle = std::thread::spawn(current_worker);
        assert_eq!(handle.join().unwrap(), 0);
        set_current_worker(0);
    }

    // ---- chunked dirty tracking ----

    use crate::state::StateCell;

    /// Elements per dirty chunk for f64 (8 bytes each).
    const CHUNK_ELEMS: usize = DIRTY_CHUNK_BYTES / 8;

    #[test]
    fn fresh_vec_is_fully_dirty_until_cleared() {
        let v = SharedVec::new(3 * CHUNK_ELEMS, 0.0f64);
        assert_eq!(v.dirty_byte_ranges(), vec![0..3 * DIRTY_CHUNK_BYTES]);
        v.clear_dirty();
        assert!(v.dirty_byte_ranges().is_empty());
        assert_eq!(StateCell::dirty_ranges(&v), Some(vec![]));
    }

    #[test]
    fn set_marks_only_the_touched_chunk() {
        let v = SharedVec::new(4 * CHUNK_ELEMS, 0.0f64);
        v.clear_dirty();
        v.set(2 * CHUNK_ELEMS + 5, 1.0); // chunk 2
        assert_eq!(
            v.dirty_byte_ranges(),
            vec![2 * DIRTY_CHUNK_BYTES..3 * DIRTY_CHUNK_BYTES]
        );
        // Adjacent chunks coalesce into one range.
        v.set(3 * CHUNK_ELEMS, 1.0); // chunk 3
        assert_eq!(
            v.dirty_byte_ranges(),
            vec![2 * DIRTY_CHUNK_BYTES..4 * DIRTY_CHUNK_BYTES]
        );
        // Disjoint chunks stay separate ranges.
        v.set(0, 1.0);
        assert_eq!(
            v.dirty_byte_ranges(),
            vec![
                0..DIRTY_CHUNK_BYTES,
                2 * DIRTY_CHUNK_BYTES..4 * DIRTY_CHUNK_BYTES
            ]
        );
    }

    #[test]
    fn final_partial_chunk_clamps_to_byte_len() {
        let v = SharedVec::new(CHUNK_ELEMS + 10, 0.0f64);
        v.clear_dirty();
        v.set(CHUNK_ELEMS + 3, 2.0);
        assert_eq!(
            v.dirty_byte_ranges(),
            vec![DIRTY_CHUNK_BYTES..(CHUNK_ELEMS + 10) * 8]
        );
    }

    #[test]
    fn bulk_writes_and_loads_mark_dirty() {
        let v = SharedVec::new(3 * CHUNK_ELEMS, 0.0f64);
        v.clear_dirty();
        v.copy_in(CHUNK_ELEMS - 1, &[1.0, 2.0]); // straddles chunks 0 and 1
        assert_eq!(v.dirty_byte_ranges(), vec![0..2 * DIRTY_CHUNK_BYTES]);

        v.clear_dirty();
        v.fill(7.0);
        assert_eq!(v.dirty_byte_ranges(), vec![0..3 * DIRTY_CHUNK_BYTES]);

        // Restores count as writes: a delta after a restore must not lose
        // the restored bytes.
        v.clear_dirty();
        let bytes = v.save_bytes();
        v.load_bytes(&bytes).unwrap();
        assert_eq!(v.dirty_byte_ranges(), vec![0..3 * DIRTY_CHUNK_BYTES]);

        v.clear_dirty();
        v.install(2 * CHUNK_ELEMS..2 * CHUNK_ELEMS + 4, &[0u8; 32])
            .unwrap();
        assert_eq!(
            v.dirty_byte_ranges(),
            vec![2 * DIRTY_CHUNK_BYTES..3 * DIRTY_CHUNK_BYTES]
        );
    }

    #[test]
    fn write_dirty_state_streams_exact_slices() {
        let v = SharedVec::from_vec((0..2 * CHUNK_ELEMS).map(|i| i as f64).collect());
        v.clear_dirty();
        v.set(17, -1.0);
        v.set(CHUNK_ELEMS + 1, -2.0);
        let ranges = v.dirty_byte_ranges();
        assert_eq!(ranges, vec![0..2 * DIRTY_CHUNK_BYTES]); // adjacent, coalesced

        let mut out = Vec::new();
        let n = v.write_dirty_state(&ranges, &mut out).unwrap();
        assert_eq!(n as usize, out.len());
        assert_eq!(out, v.save_bytes()[0..2 * DIRTY_CHUNK_BYTES].to_vec());

        // Misaligned / out-of-bounds ranges are rejected.
        assert!(v.write_dirty_state(&[1..9], &mut Vec::new()).is_err());
        assert!(v
            .write_dirty_state(&[0..2 * DIRTY_CHUNK_BYTES + 8], &mut Vec::new())
            .is_err());
    }

    #[test]
    fn grid_delegates_dirty_tracking_to_flat() {
        let g = SharedGrid::new(CHUNK_ELEMS / 16, 16, 0.0f64); // one chunk total
        g.clear_dirty();
        assert_eq!(StateCell::dirty_ranges(&g), Some(vec![]));
        g.set(3, 5, 1.0);
        assert_eq!(
            StateCell::dirty_ranges(&g),
            Some(vec![0..DIRTY_CHUNK_BYTES])
        );
        g.clear_dirty();
        g.set_row(2, &[9.0; 16]);
        assert_eq!(
            StateCell::dirty_ranges(&g),
            Some(vec![0..DIRTY_CHUNK_BYTES])
        );
    }

    // ---- row and range views ----

    #[test]
    fn views_alias_the_container_and_are_sliced_exactly() {
        let g = SharedGrid::from_vec(3, 4, (0..12).map(f64::from).collect());
        let (above, row) = (g.row_cells(0), g.row_cells(1));
        assert_eq!(row.len(), 4);
        assert_eq!(row[3].get(), 7.0);
        // Two live views, one written through while the other is read.
        row[1].set(above[1].get() + 40.0);
        assert_eq!(g.get(1, 1), 41.0);
        g.set(1, 2, -1.0);
        assert_eq!(row[2].get(), -1.0);

        let v = SharedVec::from_vec(vec![1u32, 2, 3, 4, 5]);
        let part = v.cells(1..4);
        assert_eq!(part.len(), 3);
        part[2].set(40);
        assert_eq!(v.to_vec(), vec![1, 2, 3, 40, 5]);
        assert!(v.cells(5..5).is_empty());
    }

    #[test]
    #[should_panic(expected = "row 3 out of bounds")]
    fn row_view_checks_the_row_in_every_build() {
        SharedGrid::new(3, 4, 0.0f64).row_cells(3);
    }

    #[test]
    #[should_panic]
    fn range_view_checks_its_bounds() {
        SharedVec::new(4, 0u8).cells(2..5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn declared_columns_must_lie_inside_the_row() {
        SharedGrid::new(3, 4, 0.0f64).mark_row_written(1, 2..5);
    }

    #[test]
    fn declared_ranges_mark_the_chunks_they_overlap() {
        let v = SharedVec::new(4 * CHUNK_ELEMS, 0.0f64);
        v.clear_dirty();
        v.cells(0..8)[7].set(1.0); // a view alone does no accounting
        assert!(v.dirty_byte_ranges().is_empty());
        v.mark_written(CHUNK_ELEMS - 1..CHUNK_ELEMS + 1); // straddles 0 and 1
        assert_eq!(v.dirty_byte_ranges(), vec![0..2 * DIRTY_CHUNK_BYTES]);
        v.mark_written(3 * CHUNK_ELEMS..3 * CHUNK_ELEMS); // empty: nothing
        assert_eq!(v.dirty_byte_ranges(), vec![0..2 * DIRTY_CHUNK_BYTES]);

        // Grid coordinates: 100 columns, so row 10 ends inside chunk 1.
        let g = SharedGrid::new(40, 100, 0.0f64);
        g.clear_dirty();
        g.mark_row_written(10, 1..99); // elements 1001..1099
        assert_eq!(g.flat().dirty_byte_ranges(), vec![0..2 * DIRTY_CHUNK_BYTES]);
        g.clear_dirty();
        g.mark_row_written(10, 24..99); // 1024..1099: chunk 1 only
        assert_eq!(
            g.flat().dirty_byte_ranges(),
            vec![DIRTY_CHUNK_BYTES..2 * DIRTY_CHUNK_BYTES]
        );
    }

    #[test]
    fn empty_vec_dirty_tracking_is_trivial() {
        let v = SharedVec::new(0, 0.0f64);
        assert!(v.dirty_byte_ranges().is_empty());
        v.clear_dirty();
        assert_eq!(v.write_dirty_state(&[], &mut Vec::new()).unwrap(), 0);
    }

    // Tracking tests run in a dedicated integration binary (tests/tracking.rs)
    // because the tracker is process-global state and unit tests run
    // concurrently.
}
