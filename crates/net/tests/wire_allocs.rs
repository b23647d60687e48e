//! The allocation budget of a record crossing the wire: how many
//! record-sized buffers a put and a streamed restore may ask the allocator
//! for. A record moves rank → root and back in chunk frames; the
//! digest-negotiated put, which must announce the record's digests before
//! its bytes, stages it — once, in a buffer reserved from the announced
//! length — and the lent restore, which hands out one contiguous view,
//! collects it — once, in a buffer reserved from the last record's length.
//!
//! Its own test binary because it installs a counting `#[global_allocator]`,
//! and one `#[test]` because the counter is process-wide. Both ranks are
//! threads of this process and the root serves a flat store (which holds no
//! record in memory either), so the budget covers the root's half of every
//! transfer as well as the client's. CI runs this under `--release` too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ppar_ckpt::store::{FieldSource, Record, SnapshotMeta};
use ppar_ckpt::transport::CkptTransport;
use ppar_ckpt::{CheckpointStore, Snapshot};
use ppar_net::{free_loopback_addr, Fabric, NetConfig, NetTransport, TcpFabric};

/// The state under test: one 8 MiB field.
const FIELD: usize = 8 << 20;
/// Allocations at least this large are "record-sized".
const BIG: usize = 4 << 20;

const DONE_TAG: u64 = (1 << 63) | 0xa110c;

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

/// Record-sized allocations made, by any thread, while `f` runs.
fn big_allocs<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = BIG_ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (BIG_ALLOCS.load(Ordering::Relaxed) - before, out)
}

fn put(t: &NetTransport, count: u64, state: &[u8]) -> u64 {
    let meta = SnapshotMeta {
        mode_tag: "tcp2".into(),
        count,
        rank: None,
        nranks: 2,
    };
    t.put(&Record::Full(&meta, &[("S", FieldSource::Bytes(state))]))
        .unwrap()
}

#[test]
fn a_record_crosses_the_wire_without_a_record_sized_buffer() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("wire_allocs_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::new_flat(&dir).unwrap();
    let addr = free_loopback_addr().unwrap();
    let connect = |rank: usize| -> Arc<dyn Fabric> {
        let mut cfg = NetConfig::new(rank, 2, addr.clone());
        cfg.recv_timeout = Duration::from_secs(30);
        TcpFabric::connect(&cfg).unwrap()
    };
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let fabric = connect(0);
            let service = NetTransport::serve(fabric.clone(), 0, Arc::new(store));
            fabric.recv(0, 1, DONE_TAG).unwrap();
            service.stop();
        });
        scope.spawn(|| {
            let fabric = connect(1);
            let t = NetTransport::client(fabric.clone(), 1);
            let state: Vec<u8> = (0..FIELD).map(|i| (i as u8).wrapping_mul(31)).collect();
            let mut out = Vec::with_capacity(FIELD + (1 << 16));

            // -- a digest-staged put ---------------------------------------------
            // A fresh client takes the root for one that may dedup: the
            // record is staged, the digest table offered, and — the flat
            // root answering "no dedup" — streamed from the staging buffer.
            let (allocs, written) = big_allocs(|| put(&t, 1, &state));
            assert_eq!(allocs, 1, "the staging buffer, reserved once");

            // -- a streaming put -------------------------------------------------
            // The answer is remembered: from now on the encoder feeds the
            // chunk stream directly.
            let (allocs, again) = big_allocs(|| put(&t, 2, &state));
            assert_eq!(allocs, 0, "a streaming put holds one chunk");
            assert_eq!(again, written);

            // -- a streamed restore ------------------------------------------------
            let (allocs, got) =
                big_allocs(|| t.write_merged_record_at(None, None, &mut out).unwrap());
            assert_eq!(allocs, 0, "blocks go from the frame to the sink");
            assert_eq!(got, Some(written));
            let snap = Snapshot::decode(&out).unwrap();
            assert_eq!((snap.count, snap.field("S").unwrap()), (2, &state[..]));

            // The pinned shape is the same loop.
            out.clear();
            let (allocs, got) =
                big_allocs(|| t.write_merged_record_at(None, Some(2), &mut out).unwrap());
            assert_eq!((allocs, got), (0, Some(written)));

            // -- a lent restore ----------------------------------------------------
            // What a run's restore calls: the record is collected, once,
            // in a buffer reserved from the length of the last one moved.
            let (allocs, found) = big_allocs(|| {
                t.with_merged(None, Some(2), &mut |view| {
                    assert_eq!(view.field("S").unwrap(), &state[..]);
                    Ok(())
                })
            });
            assert_eq!(allocs, 1, "the collecting buffer, reserved once");
            assert!(found.unwrap());

            fabric.send(1, 0, DONE_TAG, Arc::new(Vec::new()));
        });
    });
    let _ = std::fs::remove_dir_all(&dir);
}
