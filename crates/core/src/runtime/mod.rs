//! The shared parallel-engine layer: one team runtime for every mode.
//!
//! Before this module existed, the paper's work-sharing `for` construct
//! (§III.B) and the reshape-at-safe-point protocol (§IV.B) were implemented
//! three times — inline in the sequential engine, in the shared-memory
//! engine behind a lock-based barrier and a boxed-job channel pool, and
//! again in the distributed engine. This module hoists all of it into
//! `ppar-core` so that construct dispatch, chunk claiming and safe-point
//! polling exist exactly once:
//!
//! * [`barrier::TeamBarrier`] — a resizable **sense-reversing barrier**.
//!   The barrier word packs `(generation, arrived, size)` into one atomic;
//!   the generation counter is the sense. A worker records the generation
//!   it arrives in and is released the instant the shared generation moves
//!   on — arrival is one CAS, release is one store. The *last* arriver
//!   seals the generation (`arrived == size`), runs the leader duty, and
//!   releases everyone. Waiters wait through
//!   [`sync::Gate`](crate::sync::Gate): they spin briefly and then park, so
//!   converging teams pay nanoseconds while over-subscribed runs (Fig. 8)
//!   don't burn cores.
//! * [`claim::ChunkCursor`] — cache-line-padded atomic claim cursors for
//!   `Dynamic`/`Guided` schedules, shared by the SMP team and the hybrid
//!   engine's local lines of execution.
//! * [`constructs`] — the construct sequence numbering and per-construct
//!   shared state (loop cursors, `single` claims, reduction accumulators)
//!   that realises the SPMD construct-alignment discipline.
//! * [`pool::TeamPool`] — persistent workers with slot-based [`pool::RegionJob`]
//!   hand-off: forking a region writes a fixed struct per worker instead of
//!   boxing a closure through an mpsc channel.
//! * [`team::TeamRuntime`] / [`team::ParallelEngine`] — the runtime state
//!   and the trait whose provided methods implement fork/join, work-sharing
//!   loop claiming and the safe-point/adaptation crossing for every engine
//!   with a local team.
//! * [`engine::TeamEngine`] — the shared-memory engine itself (and, built
//!   with a quiescence check, the task engine), with its
//!   [`engine::run_smp`] shorthand.
//!
//! ## How the barrier realises §IV.B
//!
//! The paper honours adaptation requests only at safe points: the team
//! aligns, one line of execution applies the reshape, and execution
//! resumes with the new structure. [`barrier::TeamBarrier::wait_leader`]
//! is that alignment: the crossing leader runs its action — polling the
//! controller, publishing the decision, spawning replay workers into the
//! live region (expansion) or shrinking the team size so excess workers
//! drain at the region boundary (contraction) — *while the generation is
//! still sealed*, then releases everyone with the new size in the same
//! atomic store. No worker can race into a later generation with a stale
//! team size, and no worker can re-observe an already-applied request.
//! Expansion workers replay the region body (skipping ignorable methods
//! and counting safe points) and join the live team at the reshape's join
//! barrier; contraction workers unwind to the region boundary
//! ("executing methods with empty operations until the end of the parallel
//! region").
//!
//! ## The one way out of a safe point
//!
//! §IV.B has a line of execution leave its region at a safe point for three
//! reasons: its team contracted, the engine cannot realise the requested
//! mode in place, a resource failed. Base code announces `ctx.point()` and
//! returns nothing, so all three unwind — with one payload, [`Exit`], raised
//! by [`leave`] (`resume_unwind`: the panic hook never runs, and the library
//! never touches it) and turned back into data by [`catch_exit`], which
//! re-raises every other payload untouched. Pool workers absorb any exit at
//! the region boundary; the master line carries a reshape or a fault up to
//! `ppar-adapt`, where it becomes a relaunch or a recovery round.

pub mod barrier;
pub mod claim;
pub mod constructs;
pub mod cursor;
pub mod engine;
pub mod pool;
pub mod team;

pub use barrier::TeamBarrier;
pub use claim::{CachePadded, ChunkCursor};
pub use cursor::{LoopFrame, RegionCursor, PROGRESS_FIELD};
pub use engine::{run_smp, TeamEngine};
pub use pool::{catch_exit, leave, Exit, Latch, TeamPool};
pub use team::{drive_point, ParallelEngine, TeamRuntime};
