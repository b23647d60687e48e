//! The allocation budget of a restore: how many record-sized buffers each
//! read shape may ask the allocator for. A restore of base + k deltas holds
//! the base record's one buffer, whatever k: every delta is streamed
//! straight into its place in it, and no delta buffer exists. The memory
//! medium, which holds whole records only, lends the one it holds. A whole
//! disk restart — failure detection, replay target, resume cursor, load —
//! stays inside the one buffer: its chain is read and folded once.
//!
//! Every budget is checked twice: on a state one thread reads alone, and on
//! one above the split size, where a restart reads each large span on every
//! core — so the helper threads run under the counting allocator, and the
//! budgets hold with them: each reads its part straight into place, with no
//! staging buffer of its own.
//!
//! Its own test binary because it installs a counting `#[global_allocator]`,
//! and one `#[test]` because the counter is process-wide. The thresholds
//! are about the optimised code as much as the debug build: CI runs this
//! under `--release` too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ppar_ckpt::store::{DeltaSource, FieldSource, Record, SnapshotMeta};
use ppar_ckpt::transport::CkptTransport;
use ppar_ckpt::{CheckpointModule, CheckpointStore, DeltaMeta, MemTransport};
use ppar_core::ctx::{CkptHook, Ctx, RunShared, SeqEngine};
use ppar_core::plan::{Plan, Plug, PointSet};
use ppar_core::state::Registry;

/// Allocations at least this large are "record-sized".
const BIG: usize = 1 << 20;
/// The least a thread reads of a verified span when a restart splits it
/// across threads (the store's part size): a span of two of these or more
/// is read split.
const SPLIT_PART: usize = 2 << 20;
const DELTAS: u32 = 4;

static BIG_ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded to `System` with its arguments unchanged;
// the only addition is a relaxed counter bump, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc` is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above; `ptr` and `layout` describe a live `System` block
        // because every block this allocator hands out is one.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn count(size: usize) {
    if size >= BIG {
        BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Record-sized allocations made while `f` runs.
fn big_allocs<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = BIG_ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (BIG_ALLOCS.load(Ordering::Relaxed) - before, out)
}

fn payload(field: usize, seed: u8) -> Vec<u8> {
    (0..field)
        .map(|i| (i as u8).wrapping_mul(31) ^ seed)
        .collect()
}

fn put_base(t: &dyn CkptTransport, field: usize) {
    let meta = SnapshotMeta {
        mode_tag: "seq".into(),
        count: 10,
        rank: None,
        nranks: 1,
    };
    let bytes = payload(field, 0);
    t.put(&Record::Full(&meta, &[("S", FieldSource::Bytes(&bytes))]))
        .unwrap();
}

/// `DELTAS` dense deltas (every byte dirty) over the base; returns the
/// state the chain's tip describes.
#[allow(clippy::single_range_in_vec_init)] // dirty ranges are span data
fn put_dense_chain(t: &dyn CkptTransport, field: usize) -> Vec<u8> {
    let mut last = Vec::new();
    for seq in 1..=DELTAS {
        let meta = DeltaMeta {
            mode_tag: "seq".into(),
            count: 10 + seq as u64,
            base_count: 10,
            seq,
            rank: None,
            nranks: 1,
        };
        last = payload(field, seq as u8);
        let dense = DeltaSource::DirtyBytes {
            full_len: field as u64,
            ranges: &[0..field],
            payload: &last,
        };
        t.put(&Record::Delta(&meta, &[("S", dense)])).unwrap();
    }
    last
}

/// The lend: `(record-sized allocations, count seen, field S equals want)`.
fn lend(t: &dyn CkptTransport, at: Option<u64>, want: &[u8]) -> (usize, u64, bool) {
    let mut seen = (0, false);
    let (allocs, found) = big_allocs(|| {
        t.with_merged(None, at, &mut |view| {
            seen = (view.meta.count, view.field("S") == Some(want));
            Ok(())
        })
    });
    assert!(found.unwrap(), "the chain has a base record");
    (allocs, seen.0, seen.1)
}

#[test]
fn a_restore_allocates_one_record_and_no_delta_buffer() {
    // A state one thread reads alone, then one read on every core.
    budgets(3 << 19);
    budgets(3 * SPLIT_PART);
}

/// Every read shape's budget, on a state of one `field`-byte field.
fn budgets(field: usize) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("restore_allocs_{}_{field}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::new_flat(&dir).unwrap();
    let mem = MemTransport::new();
    let base = payload(field, 0);
    let mut out = Vec::with_capacity(field + (1 << 16));

    // -- a bare base ---------------------------------------------------------
    put_base(&store, field);
    put_base(&mem, field);
    assert_eq!(lend(&store, None, &base), (1, 10, true), "store lend, bare");
    assert_eq!(lend(&mem, None, &base), (0, 10, true), "memory lend, bare");
    let (allocs, snap) = big_allocs(|| store.get(None, None).unwrap().unwrap());
    assert!(allocs <= 2, "store get, bare: the lend plus the owned copy");
    assert_eq!(snap.field("S"), Some(base.as_slice()));

    // -- base + dense deltas -------------------------------------------------
    let tip = put_dense_chain(&store, field);
    let tip_count = 10 + DELTAS as u64;
    let (allocs, count, same) = lend(&store, None, &tip);
    assert_eq!(allocs, 1, "store lend, chain: the base, patched in place");
    assert!((count, same) == (tip_count, true));
    let (allocs, written) = big_allocs(|| store.write_merged_record(None, &mut out).unwrap());
    assert_eq!(allocs, 1, "store stream, chain");
    assert_eq!(written, Some(out.len() as u64));
    let (allocs, snap) = big_allocs(|| store.get(None, None).unwrap().unwrap());
    assert!(
        allocs <= 2,
        "store get, chain: the lend plus the owned copy"
    );
    assert_eq!((snap.count, snap.field("S")), (tip_count, Some(&tip[..])));

    // -- pins ------------------------------------------------------------------
    // Memory serves a pin at its record's safe point; any other pin is
    // refused from the header, before any payload is copied (what a mirror
    // slot that misses costs).
    let (allocs, count, same) = lend(&mem, Some(10), &base);
    assert_eq!((allocs, count, same), (0, 10, true), "memory lend, at base");
    let (allocs, missed) = big_allocs(|| mem.with_merged(None, Some(5), &mut |_| Ok(())));
    assert!(missed.is_err());
    assert_eq!(allocs, 0, "a pinned miss copies nothing");

    // -- a module-level disk restart -------------------------------------------
    // The run that wrote base + deltas died (its marker is still there).
    // Start-up folds the chain once into the merged record, and that fold
    // is the replay target, the resume cursor and the record the load
    // installs: nothing else record-sized is asked for between store open
    // and the restored cells.
    store.set_marker().unwrap();
    let plan = || {
        Plan::new()
            .plug(Plug::SafeData { field: "S".into() })
            .plug(Plug::SafePoints {
                points: PointSet::Named(vec!["iter".into()]),
                every: 0,
            })
    };
    let (startup, module) = big_allocs(|| CheckpointModule::create(&dir, &plan()).unwrap());
    assert!(module.detected_failure());
    assert_eq!(module.replay_target(), tip_count);
    let ctx = Ctx::new_root(RunShared::new(
        Arc::new(plan()),
        Arc::new(Registry::new()),
        Arc::new(SeqEngine),
        Some(module.clone()),
        None,
    ));
    let cells = ctx.alloc_vec("S", field, 0u8);
    let (replay, resumed) = big_allocs(|| {
        let resumed = module.loop_resume(0, "iter", 0, 100);
        for _ in 0..tip_count {
            ctx.point("iter");
        }
        resumed
    });
    assert_eq!(resumed, None, "these records carry no cursor");
    assert!(!module.replaying(), "the load ran at the chain's tip");
    assert!(
        startup + replay <= 1,
        "disk restart: {startup} at start-up + {replay} in the run"
    );
    assert!(cells.to_vec() == tip, "the restored field is the tip's");
    ctx.finish();

    let _ = std::fs::remove_dir_all(&dir);
}
