//! The shared-memory team engine.
//!
//! Realises the paper's OpenMP-like execution model (§III.B) and both
//! halves of §IV (checkpoint-between-barriers, expansion/contraction at
//! safe points) by driving the shared team runtime: all construct
//! dispatch, work-sharing claiming, barrier and safe-point/adaptation
//! logic lives in the [`ParallelEngine`] provided methods; this type only
//! maps reshape targets onto local team sizes and forwards the [`Engine`]
//! join points.
//!
//! SPMD discipline (same rules as OpenMP): work-sharing constructs and
//! safe points must be reached by all team workers in the same order, and
//! work-sharing constructs may not nest inside one another.

use std::sync::Arc;

use super::team::{ParallelEngine, TeamRuntime};
use crate::ctx::{run_on, AdaptHook, CkptHook, Ctx, Engine};
use crate::mode::ExecMode;
use crate::plan::{Plan, ReduceOp};

/// The adaptive shared-memory engine. Also serves as the "sequential" end of
/// the adaptive spectrum: with a team size of 1 it runs the base code on the
/// calling thread, yet can still expand mid-region.
///
/// Built [`TeamEngine::with_quiescence`], it is the **task engine**: every
/// worker runs the given check at each safe-point crossing before the
/// checkpoint directive is polled, so a layer that defers work behind the
/// constructs (`ppar-task`'s per-worker deques) can prove nothing is
/// outstanding and the snapshot sees a stable frontier.
pub struct TeamEngine {
    rt: TeamRuntime,
    quiesce: Option<fn(&str)>,
}

impl TeamEngine {
    /// An engine that forks teams of `threads` workers, expandable at run
    /// time up to `max_threads`.
    pub fn new(threads: usize, max_threads: usize) -> Arc<TeamEngine> {
        Arc::new(TeamEngine {
            rt: TeamRuntime::new(threads, max_threads),
            quiesce: None,
        })
    }

    /// Engine with `threads == max_threads` (no headroom for expansion).
    pub fn fixed(threads: usize) -> Arc<TeamEngine> {
        TeamEngine::new(threads, threads)
    }

    /// [`TeamEngine::new`] whose safe points first call `check` with the
    /// point's name on every worker; `check` panics when the crossing is
    /// not quiescent.
    pub fn with_quiescence(threads: usize, max_threads: usize, check: fn(&str)) -> Arc<TeamEngine> {
        Arc::new(TeamEngine {
            rt: TeamRuntime::new(threads, max_threads),
            quiesce: Some(check),
        })
    }

    /// The team size the next region will fork (and, inside a region, the
    /// current live size).
    pub fn current_threads(&self) -> usize {
        self.rt.current_threads()
    }

    /// Upper bound on team size.
    pub fn max_threads(&self) -> usize {
        self.rt.max_threads()
    }
}

impl ParallelEngine for TeamEngine {
    fn rt(&self) -> &TeamRuntime {
        &self.rt
    }

    fn reshape_team_size(&self, mode: ExecMode) -> Option<usize> {
        match mode {
            ExecMode::Sequential => Some(1),
            // Within headroom: retarget the live team. Beyond it the target
            // cannot actually be realised here — silently clamping would
            // confirm a mode the run is not executing — so escalate (a
            // relaunch can honour the full size).
            ExecMode::SharedMemory { threads } if threads <= self.rt.max_threads() => {
                Some(threads.max(1))
            }
            // Oversized, distributed and hybrid targets escalate to a live
            // hand-off and an in-process relaunch.
            _ => None,
        }
    }

    fn quiesce_tasks(&self, _ctx: &Ctx, name: &str) {
        if let Some(check) = self.quiesce {
            check(name);
        }
    }
}

impl Engine for TeamEngine {
    fn mode(&self) -> ExecMode {
        ExecMode::SharedMemory {
            threads: self.current_threads(),
        }
    }

    fn team_size(&self) -> usize {
        self.rt.team_size()
    }

    fn call(&self, ctx: &Ctx, name: &str, body: &mut dyn FnMut(&Ctx)) {
        self.pe_call(ctx, name, body);
    }

    fn region(&self, ctx: &Ctx, name: &str, body: &(dyn Fn(&Ctx) + Sync)) {
        self.pe_region(ctx, name, body);
    }

    fn for_each(
        &self,
        ctx: &Ctx,
        name: &str,
        range: std::ops::Range<usize>,
        body: &(dyn Fn(&Ctx, usize) + Sync),
    ) {
        self.pe_for_each(ctx, name, range, body);
    }

    fn point(&self, ctx: &Ctx, name: &str) {
        self.pe_point(ctx, name);
    }

    fn barrier(&self, ctx: &Ctx) {
        self.pe_barrier(ctx);
    }

    fn critical(&self, ctx: &Ctx, name: &str, body: &mut dyn FnMut()) {
        self.pe_critical(ctx, name, body);
    }

    fn single(&self, ctx: &Ctx, name: &str, body: &mut dyn FnMut()) {
        self.pe_single(ctx, name, body);
    }

    fn master(&self, ctx: &Ctx, body: &mut dyn FnMut()) {
        self.pe_master(ctx, body);
    }

    fn reduce_f64(&self, ctx: &Ctx, name: &str, op: ReduceOp, value: f64) -> f64 {
        self.pe_reduce(ctx, name, op, value)
    }
}

/// Run `app` under `plan` on a team of `threads` workers (fixed size).
/// Shorthand mirroring [`crate::run_sequential`]; the adaptive launcher
/// lives in `ppar-adapt`.
pub fn run_smp<R>(
    plan: Arc<Plan>,
    threads: usize,
    ckpt: Option<Arc<dyn CkptHook>>,
    adapt: Option<Arc<dyn AdaptHook>>,
    app: impl FnOnce(&Ctx) -> R,
) -> R {
    run_on(TeamEngine::fixed(threads), plan, ckpt, adapt, |ctx| {
        let out = app(ctx);
        ctx.finish();
        out
    })
}
