//! The allocation budget of a live hand-off: how many state-sized buffers a
//! smp2 → dist2 reshape of SOR asks the allocator for, from the first round
//! to the collect gather at the end. The crossing freezes the predecessor's
//! grid instead of encoding it into a record, every successor element
//! installs its share straight from that grid, and no collective copies the
//! root's own block, so the session allocates the grids and the one block
//! rank 1 ships to the collect gather — nothing else. Encoding the hand-off
//! into an in-memory record cost a fifth allocation; before that, the root
//! installed and then scattered, which made 8: the record, the two
//! post-restore scatter payloads (rank 1's block and the root's own) and
//! the root's copy of its own block for the collect gather on top of these
//! 4.
//!
//! Its own test binary because it installs a counting `#[global_allocator]`,
//! and one `#[test]` because the counter is process-wide. CI runs it under
//! `--release` too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ppar_adapt::{launch_live, AdaptationController, AppStatus, Deploy, ResourceTimeline};
use ppar_core::mode::ExecMode;
use ppar_jgf::sor::pluggable::{plan_ckpt, plan_hybrid, sor_pluggable};
use ppar_jgf::sor::{sor_seq, SorParams};

/// Grid side: the state is `N × N` `f64`s, 2 MiB.
const N: usize = 512;
/// Allocations at least half the state (one element's block) count.
const HALF_STATE: usize = N * N * 8 / 2;

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
    if size >= HALF_STATE {
        BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn a_live_handoff_allocates_no_scatter_and_no_root_self_copy() {
    let params = SorParams::new(N, 6);
    let reference = sor_seq(&params);
    let controller =
        AdaptationController::with_timeline(ResourceTimeline::new().at(3, ExecMode::dist(2)));
    let smp2 = Deploy::Smp {
        threads: 2,
        max_threads: 2,
    };
    let plan = plan_hybrid().merge(plan_ckpt(0));

    let before = BIG_ALLOCS.load(Ordering::Relaxed);
    let outcome = launch_live(&smp2, plan, None, controller, |ctx| {
        (AppStatus::Completed, sor_pluggable(ctx, &params))
    })
    .unwrap();
    let allocs = BIG_ALLOCS.load(Ordering::Relaxed) - before;

    assert!(outcome.completed());
    assert_eq!(outcome.launches, 2, "smp2 -> dist2 escalates to a hand-off");
    assert_eq!(
        outcome.results[0].1.checksum.to_bits(),
        reference.checksum.to_bits()
    );
    // The smp2 grid (frozen, it is the hand-off), the two dist2 grids, rank
    // 1's block for the collect gather.
    assert_eq!(allocs, 4, "half-state-sized allocations in the session");
}
