//! Checkpointable and distributable state: the "allocations" substrate.
//!
//! The paper's `allocations` module "keeps track of the address of data that
//! must be saved ... by monitoring all data allocations" (§IV.A). Rust has no
//! aspect weaver to intercept allocations, so the base code announces its
//! long-lived data by allocating it *through the context*
//! ([`crate::ctx::Ctx::alloc_vec`] and friends), which registers a handle in
//! the run's [`Registry`]. Plans then refer to these names in `SafeData`,
//! `Field`, `ScatterBefore`, ... plugs.
//!
//! Two capability traits cover everything the runtimes need:
//!
//! * [`StateCell`] — snapshot/restore as portable little-endian bytes
//!   (checkpointing, whole-field broadcast);
//! * [`DistCell`] — additionally expose a logical index space whose
//!   sub-ranges can be extracted/installed (scatter, gather, halo exchange,
//!   adaptation-time repartitioning).

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{PparError, Result};
use crate::sync::{Mutex, RwLock};

/// Fixed-width primitive element types storable in shared containers.
///
/// All encodings are little-endian regardless of host, which is what makes
/// checkpoints portable across heterogeneous resources (§I: "information
/// should be saved in a portable manner").
pub trait Scalar: Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static {
    /// Encoded width in bytes.
    const WIDTH: usize;
    /// Distinguishes element types in persisted headers.
    const TYPE_TAG: u8;
    /// True only when `write_le` emits exactly the value's little-endian
    /// in-memory byte representation (and `read_le` is its inverse), which
    /// lets containers snapshot/extract by memcpy on little-endian hosts.
    /// Defaults to `false`; the built-in primitive impls opt in. Leave it
    /// `false` for any encoding that transforms the bytes (normalization,
    /// byte-swapping, ...), or fast-path saves would diverge from the
    /// per-element path.
    const LE_MEMCPY_SAFE: bool = false;
    /// Write `self` as little-endian bytes into `out` (`out.len() == WIDTH`).
    fn write_le(&self, out: &mut [u8]);
    /// Read a value from little-endian bytes (`b.len() == WIDTH`).
    fn read_le(b: &[u8]) -> Self;
}

macro_rules! impl_scalar {
    ($t:ty, $tag:expr) => {
        impl Scalar for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            const TYPE_TAG: u8 = $tag;
            const LE_MEMCPY_SAFE: bool = true;
            #[inline]
            fn write_le(&self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read_le(b: &[u8]) -> Self {
                <$t>::from_le_bytes(b.try_into().expect("scalar width"))
            }
        }
    };
}

impl_scalar!(u8, 1);
impl_scalar!(i32, 2);
impl_scalar!(u32, 3);
impl_scalar!(i64, 4);
impl_scalar!(u64, 5);
impl_scalar!(f32, 6);
impl_scalar!(f64, 7);

/// State that can be snapshot to and restored from portable bytes.
pub trait StateCell: Send + Sync {
    /// Serialize the full current state.
    fn save_bytes(&self) -> Vec<u8>;
    /// Replace the full current state from bytes produced by `save_bytes`.
    fn load_bytes(&self, bytes: &[u8]) -> Result<()>;
    /// The exact length `save_bytes` / `write_state` would produce *now*,
    /// without running a serialization pass. Snapshot writers announce it
    /// as the field's length prefix and then stream the payload directly,
    /// refusing the record if the streamed count differs — so it must be
    /// cheap and exact, also for variable-size state.
    fn byte_len(&self) -> usize;

    /// Stream exactly the bytes `save_bytes` would produce into `w`,
    /// returning the byte count. The default materializes through
    /// `save_bytes`; containers whose in-memory layout already *is* the
    /// portable encoding (little-endian hosts) override this with a
    /// zero-copy fast path, which is what makes checkpoint cost scale with
    /// bandwidth instead of element count.
    fn write_state(&self, w: &mut dyn std::io::Write) -> Result<u64> {
        let bytes = self.save_bytes();
        w.write_all(&bytes)?;
        Ok(bytes.len() as u64)
    }

    /// Append the `save_bytes` encoding to `out` (capacity-reusing form;
    /// the whole-field broadcast serializes through it).
    fn save_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.save_bytes());
    }

    /// The `save_bytes` encoding where it lies, when the cell's memory
    /// already *is* that encoding (contiguous little-endian containers on a
    /// little-endian host); `None` — the default — otherwise. A live
    /// hand-off lends these bytes to the successor instead of copying them
    /// into a record, so the quiescence contract of
    /// [`crate::shared::SharedVec::as_slice`] applies: nothing may write the
    /// cell while the borrow lives.
    fn encoded(&self) -> Option<&[u8]> {
        None
    }

    // ---- dirty-chunk seam (checkpointing) ----

    /// Byte ranges of the `save_bytes` encoding written since the last
    /// [`StateCell::clear_dirty`], coalesced, sorted and non-overlapping.
    /// `None` means this cell does not track writes (the checkpoint module
    /// then saves it in full, in a delta and in every full record).
    /// Containers with chunked write tracking ([`crate::shared::SharedVec`]
    /// and friends) return `Some` — possibly empty when nothing was
    /// touched. A delta stores exactly these ranges, and a full save that
    /// rewrites an older record of its own in place writes only them (and
    /// the last save's): a write that goes unreported leaves a record whose
    /// CRC, taken over the cell's memory, fails at restore.
    ///
    /// A freshly constructed tracking cell reports *everything* dirty: it
    /// has never been captured by a snapshot, so relative to any base its
    /// whole content is "touched".
    fn dirty_ranges(&self) -> Option<Vec<std::ops::Range<usize>>> {
        None
    }

    /// Stream exactly the bytes `save_bytes()[r]` for each `r` in `ranges`
    /// (in order, concatenated) into `w`, returning the byte count. The
    /// default materializes the full encoding; tracking containers override
    /// it with a slice fast path so delta snapshot cost scales with bytes
    /// *touched*, not bytes held.
    fn write_dirty_state(
        &self,
        ranges: &[std::ops::Range<usize>],
        w: &mut dyn std::io::Write,
    ) -> Result<u64> {
        let bytes = self.save_bytes();
        let mut written = 0u64;
        for r in ranges {
            let slice = bytes.get(r.clone()).ok_or_else(|| {
                PparError::CorruptCheckpoint(format!(
                    "dirty range {r:?} out of bounds for {}-byte cell",
                    bytes.len()
                ))
            })?;
            w.write_all(slice)?;
            written += slice.len() as u64;
        }
        Ok(written)
    }

    /// Reset write tracking: subsequent [`StateCell::dirty_ranges`] reports
    /// only writes after this call. The checkpoint module calls this after
    /// every snapshot (full or delta), once it has captured the current
    /// state, so tracking is on in any run that checkpoints. No-op for
    /// cells without tracking.
    fn clear_dirty(&self) {}
}

/// State with a logical one-dimensional index space (array elements, matrix
/// rows, individuals, particles...) supporting sub-range movement.
pub trait DistCell: StateCell {
    /// Number of logical indices.
    fn logical_len(&self) -> usize;
    /// Bytes per logical index (e.g. `cols * 8` for an `f64` matrix row).
    fn index_bytes(&self) -> usize;
    /// Extract logical indices `range` as bytes.
    fn extract(&self, range: std::ops::Range<usize>) -> Vec<u8>;
    /// Append logical indices `range` to `out` (capacity-reusing form of
    /// `extract`; override together with the `write_state` fast path so
    /// shard checkpoints and gathers stay allocation-free in steady state).
    fn extract_into(&self, range: std::ops::Range<usize>, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.extract(range));
    }
    /// Install bytes (from `extract` of the same range shape) into `range`.
    fn install(&self, range: std::ops::Range<usize>, bytes: &[u8]) -> Result<()>;
}

/// A single mutable scalar value with snapshot support. Useful for safe data
/// that is not an array (e.g. an accumulated energy, a PRNG seed).
///
/// Reads/writes lock a mutex — this is configuration-grade state, not a hot
/// cell; use [`crate::shared::SharedVec`] for bulk data.
pub struct ValueCell<T: Scalar> {
    value: Mutex<T>,
}

impl<T: Scalar> ValueCell<T> {
    /// New cell holding `value`.
    pub fn new(value: T) -> Self {
        ValueCell {
            value: Mutex::new(value),
        }
    }

    /// Current value.
    pub fn get(&self) -> T {
        *self.value.lock()
    }

    /// Replace the value.
    pub fn set(&self, v: T) {
        *self.value.lock() = v;
    }

    /// Read-modify-write under the lock.
    pub fn update(&self, f: impl FnOnce(T) -> T) -> T {
        let mut g = self.value.lock();
        *g = f(*g);
        *g
    }
}

impl<T: Scalar> StateCell for ValueCell<T> {
    fn save_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; T::WIDTH];
        self.get().write_le(&mut out);
        out
    }

    fn load_bytes(&self, bytes: &[u8]) -> Result<()> {
        if bytes.len() != T::WIDTH {
            return Err(PparError::CorruptCheckpoint(format!(
                "ValueCell expected {} bytes, got {}",
                T::WIDTH,
                bytes.len()
            )));
        }
        self.set(T::read_le(bytes));
        Ok(())
    }

    fn byte_len(&self) -> usize {
        T::WIDTH
    }
}

/// One registry entry: the snapshot handle and, when the data has a logical
/// index space, the distribution handle.
#[derive(Clone)]
pub struct Allocation {
    /// Snapshot/restore capability.
    pub state: Arc<dyn StateCell>,
    /// Sub-range movement capability (None for opaque state).
    pub dist: Option<Arc<dyn DistCell>>,
}

/// Name → allocation map for one run. The equivalent of the paper's
/// `allocations` module: it knows where every announced datum lives so the
/// checkpoint and distribution machinery can reach it by name.
#[derive(Default)]
pub struct Registry {
    entries: RwLock<HashMap<String, Allocation>>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register (or re-register, e.g. during restart replay) a snapshot-only
    /// handle under `name`.
    pub fn register_state(&self, name: &str, cell: Arc<dyn StateCell>) {
        self.entries.write().insert(
            name.to_string(),
            Allocation {
                state: cell,
                dist: None,
            },
        );
    }

    /// Register a handle that also supports sub-range movement.
    pub fn register_dist(&self, name: &str, cell: Arc<dyn DistCell>) {
        self.entries.write().insert(
            name.to_string(),
            Allocation {
                state: cell.clone(),
                dist: Some(cell),
            },
        );
    }

    /// Look up an allocation.
    pub fn get(&self, name: &str) -> Option<Allocation> {
        self.entries.read().get(name).cloned()
    }

    /// Snapshot handle for `name`, or an [`PparError::UnknownName`] error.
    pub fn state(&self, name: &str) -> Result<Arc<dyn StateCell>> {
        self.get(name)
            .map(|a| a.state)
            .ok_or_else(|| PparError::UnknownName {
                kind: "field",
                name: name.to_string(),
            })
    }

    /// Distribution handle for `name`, or an error if unknown / not
    /// distributable.
    pub fn dist(&self, name: &str) -> Result<Arc<dyn DistCell>> {
        let alloc = self.get(name).ok_or_else(|| PparError::UnknownName {
            kind: "field",
            name: name.to_string(),
        })?;
        alloc.dist.ok_or_else(|| {
            PparError::InvalidPlan(format!(
                "field {name:?} is registered but has no logical index space \
             (cannot be partitioned/scattered)"
            ))
        })
    }

    /// Names currently registered, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.entries.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Forget everything (used between independent runs sharing a runtime).
    pub fn clear(&self) {
        self.entries.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip_all_types() {
        fn roundtrip<T: Scalar>(v: T) {
            let mut buf = vec![0u8; T::WIDTH];
            v.write_le(&mut buf);
            assert_eq!(T::read_le(&buf), v);
        }
        roundtrip(0xABu8);
        roundtrip(-123456i32);
        roundtrip(0xDEADBEEFu32);
        roundtrip(-1234567890123i64);
        roundtrip(0xFEED_FACE_CAFE_BEEFu64);
        roundtrip(3.25f32);
        roundtrip(-std::f64::consts::E);
    }

    #[test]
    fn scalar_tags_are_distinct() {
        let tags = [
            u8::TYPE_TAG,
            i32::TYPE_TAG,
            u32::TYPE_TAG,
            i64::TYPE_TAG,
            u64::TYPE_TAG,
            f32::TYPE_TAG,
            f64::TYPE_TAG,
        ];
        let mut sorted = tags.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), tags.len());
    }

    #[test]
    fn value_cell_roundtrips() {
        let c = ValueCell::new(42.5f64);
        let bytes = c.save_bytes();
        assert_eq!(bytes.len(), 8);
        c.set(0.0);
        c.load_bytes(&bytes).unwrap();
        assert_eq!(c.get(), 42.5);
        assert!(c.encoded().is_none(), "a locked value has no bytes to lend");
    }

    #[test]
    fn value_cell_update() {
        let c = ValueCell::new(10i64);
        assert_eq!(c.update(|v| v * 3), 30);
        assert_eq!(c.get(), 30);
    }

    #[test]
    fn value_cell_rejects_wrong_length() {
        let c = ValueCell::new(1u32);
        assert!(c.load_bytes(&[0u8; 3]).is_err());
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // ranges here are span data
    fn default_dirty_seam_is_untracked() {
        let c = ValueCell::new(7.0f64);
        assert!(
            c.dirty_ranges().is_none(),
            "ValueCell does not track writes"
        );
        c.clear_dirty(); // no-op, must not panic

        // The default write_dirty_state slices the materialized encoding.
        let mut out = Vec::new();
        let n = c.write_dirty_state(&[0..4, 4..8], &mut out).unwrap();
        assert_eq!(n, 8);
        assert_eq!(out, c.save_bytes());
        assert!(c.write_dirty_state(&[4..12], &mut Vec::new()).is_err());
    }

    #[test]
    fn registry_register_and_lookup() {
        let reg = Registry::new();
        let cell = Arc::new(ValueCell::new(7.0f64));
        reg.register_state("energy", cell.clone());
        assert!(reg.get("energy").is_some());
        assert!(reg.state("energy").is_ok());
        assert!(reg.dist("energy").is_err(), "ValueCell has no index space");
        assert!(matches!(
            reg.state("missing"),
            Err(PparError::UnknownName { .. })
        ));
        assert_eq!(reg.names(), vec!["energy".to_string()]);
    }

    #[test]
    fn registry_reregistration_replaces() {
        let reg = Registry::new();
        let a = Arc::new(ValueCell::new(1.0f64));
        let b = Arc::new(ValueCell::new(2.0f64));
        reg.register_state("x", a);
        reg.register_state("x", b);
        let cell = reg.state("x").unwrap();
        assert_eq!(cell.save_bytes(), 2.0f64.to_le_bytes().to_vec());
    }

    #[test]
    fn registry_clear() {
        let reg = Registry::new();
        reg.register_state("x", Arc::new(ValueCell::new(1u8)));
        reg.clear();
        assert!(reg.names().is_empty());
    }
}
