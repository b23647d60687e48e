//! The shared team runtime: one implementation of construct dispatch,
//! work-sharing claims, and the safe-point/adaptation crossing protocol,
//! used by every engine that runs a local thread team (the shared-memory
//! engine, the hybrid engine's per-element teams, and — as the degenerate
//! team of one — the sequential safe-point path).
//!
//! [`TeamRuntime`] owns the long-lived pieces (persistent worker pool,
//! resizable sense-reversing barrier, construct space, reshape-decision
//! slot); the [`ParallelEngine`] trait layers the construct semantics on
//! top as provided methods, with a small set of override points for
//! engine-specific behaviour (reshape target mapping, rank-level data
//! movement, quiesced snapshot/load bodies, cross-aggregate reduction).
//!
//! See the [module docs](crate::runtime) for how the barrier generations
//! realise the §IV.B reshape protocol.

use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use super::barrier::TeamBarrier;
use super::constructs::{
    self, loop_state, reduce_state, single_state, ConstructSpace, ConstructState,
};
use super::pool::{leave, Exit, Latch, RegionBody, RegionJob, TeamPool};
use crate::ctx::{AdaptHook, CkptHook, Ctx, PointDirective};
use crate::error::Result;
use crate::mode::ExecMode;
use crate::plan::ReduceOp;
use crate::replay;
use crate::schedule::{block_cyclic_ranges, block_range, cyclic_indices, Schedule};
use crate::shared::{set_current_worker, tracking};
use crate::sync::{AtomicBool, AtomicU64, AtomicUsize, Mutex, Ordering};

/// Poll the checkpoint hook at a (potential) safe point and dispatch the
/// directive: the single home of safe-point polling for *all* engines.
/// `on_snapshot`/`on_load` receive the hook and perform the engine's
/// quiesced save/load (barriers, gathers, scatters as the mode requires).
pub fn drive_point(
    ctx: &Ctx,
    name: &str,
    on_snapshot: impl FnOnce(&Ctx, &Arc<dyn CkptHook>),
    on_load: impl FnOnce(&Ctx, &Arc<dyn CkptHook>),
) {
    if !ctx.plan().is_safe_point(name) {
        return;
    }
    let Some(ck) = ctx.ckpt_hook().cloned() else {
        return;
    };
    match ck.at_point(ctx, name) {
        PointDirective::Continue => {}
        PointDirective::Snapshot => on_snapshot(ctx, &ck),
        PointDirective::LoadAndResume => on_load(ctx, &ck),
    }
}

/// Long-lived state of one local thread team. Created once per engine and
/// reused across every parallel region — region entry costs one latch
/// allocation and `k - 1` slot hand-offs, nothing else.
pub struct TeamRuntime {
    /// Team size the next region forks (mutated by reshapes).
    desired: AtomicUsize,
    /// Live team size (0 between regions).
    active: AtomicUsize,
    max_threads: usize,
    pool: TeamPool,
    barrier: TeamBarrier,
    space: ConstructSpace,
    /// Safe points the team has passed since region entry (expansion replay
    /// targets).
    points: AtomicU64,
    /// The reshape decision published by the crossing leader for the
    /// current safe-point crossing.
    decision: Mutex<Option<ExecMode>>,
    /// The current crossing's save or restore failed
    /// ([`ParallelEngine::snapshot_quiesced`], [`ParallelEngine::load_quiesced`]):
    /// every worker leaves it.
    ckpt_failed: AtomicBool,
    /// Real (non-drain) worker panics of the current region.
    panics: Arc<Mutex<Vec<String>>>,
    /// The current region's completion latch.
    latch: Mutex<Option<Arc<Latch>>>,
    /// The current region's body (lifetime-erased).
    body: Mutex<Option<RegionBody>>,
    criticals: Mutex<HashMap<String, Arc<Mutex<()>>>>,
}

impl TeamRuntime {
    /// A runtime that forks teams of `threads` workers, expandable at run
    /// time up to `max_threads`.
    pub fn new(threads: usize, max_threads: usize) -> TeamRuntime {
        let max_threads = max_threads.max(threads).max(1);
        TeamRuntime {
            desired: AtomicUsize::new(threads.max(1)),
            active: AtomicUsize::new(0),
            max_threads,
            pool: TeamPool::new(),
            barrier: TeamBarrier::new(1),
            space: ConstructSpace::new(),
            points: AtomicU64::new(0),
            decision: Mutex::new(None),
            ckpt_failed: AtomicBool::new(false),
            panics: Arc::new(Mutex::new(Vec::new())),
            latch: Mutex::new(None),
            body: Mutex::new(None),
            criticals: Mutex::new(HashMap::new()),
        }
    }

    /// The team size the next region will fork (and, inside a region, the
    /// current live size).
    pub fn current_threads(&self) -> usize {
        let active = self.active.load(Ordering::SeqCst);
        if active > 0 {
            active
        } else {
            self.desired.load(Ordering::SeqCst)
        }
    }

    /// Upper bound on team size.
    pub fn max_threads(&self) -> usize {
        self.max_threads
    }

    /// Live team size (1 between regions).
    pub fn team_size(&self) -> usize {
        self.active.load(Ordering::SeqCst).max(1)
    }

    /// Is a parallel region currently live?
    pub fn in_region(&self) -> bool {
        self.active.load(Ordering::SeqCst) > 0
    }

    /// Team barrier: returns the leader flag. No-op (leader) outside a team.
    pub fn team_barrier(&self) -> bool {
        if !self.in_region() || replay::active() {
            return true;
        }
        let leader = self.barrier.wait();
        tracking::advance_epoch();
        leader
    }

    /// Run a checkpoint step — a save or a restore — between two team
    /// barriers (§IV.A: "we introduce a barrier before and another after
    /// the safe point"). When it fails on any worker, every worker leaves
    /// the crossing with [`Exit::Fault`] once past the closing barrier. A
    /// step that unwinds (a panic, or an exit of its own) fails too, and
    /// carries on unwinding on its worker only past that barrier, so no
    /// worker waits there for it.
    fn quiesced(&self, step: impl FnOnce() -> Result<()>) {
        self.team_barrier();
        let outcome = catch_unwind(AssertUnwindSafe(step));
        if !matches!(outcome, Ok(Ok(()))) {
            self.ckpt_failed.store(true, Ordering::SeqCst);
        }
        self.team_barrier();
        if let Err(unwind) = outcome {
            resume_unwind(unwind);
        }
        if self.ckpt_failed.load(Ordering::SeqCst) {
            leave(Exit::Fault);
        }
    }

    /// Construct-ending barrier that retires the construct's shared state
    /// *inside the leader action* (before anyone is released). Sequence
    /// numbers are reset at every safe point, so a key may be reused by the
    /// very next construct — removal must therefore complete before any
    /// worker can race ahead and re-create the key.
    fn team_barrier_retire(&self, seq: u64) {
        if !self.in_region() || replay::active() {
            self.space.remove(seq);
            return;
        }
        self.barrier.wait_leader(|_| {
            self.space.remove(seq);
        });
        tracking::advance_epoch();
    }

    /// Dispatch team worker `w` into the live region (fork or expansion).
    fn spawn_worker(&self, ctx: &Ctx, w: usize, replay_target: Option<u64>) {
        let body = (*self.body.lock()).expect("spawn_worker requires an active region");
        let latch = self
            .latch
            .lock()
            .clone()
            .expect("spawn_worker requires an active region");
        let wctx = ctx.for_worker(w);
        // Capture the forking thread's safe-point clock NOW: the worker job
        // starts asynchronously, and during replay the master may cross
        // further safe points before the job runs (reading a shared counter
        // from the job would skew the new worker's clock).
        let ckpt_clock = ctx.ckpt_hook().map(|ck| ck.count()).unwrap_or(0);
        self.pool.dispatch(
            w - 1,
            RegionJob {
                body,
                ctx: wctx,
                replay_target,
                ckpt_clock,
                latch,
                panics: self.panics.clone(),
            },
        );
    }
}

/// An engine built on the shared team runtime.
///
/// The provided `pe_*` methods are the *only* implementation of construct
/// dispatch (fork/join, work-sharing claims, single/critical/master,
/// reductions) and of the safe-point crossing protocol (checkpoint
/// directives, adaptation polling, the §IV.B reshape). Implementors supply
/// the runtime plus a handful of override points and forward their
/// [`crate::ctx::Engine`] methods here.
pub trait ParallelEngine: Send + Sync {
    /// The engine's team runtime.
    fn rt(&self) -> &TeamRuntime;

    /// Map a reshape target onto a local team size. `None` means this
    /// engine cannot honour `mode` in place (wrong engine family, different
    /// aggregate size); the crossing then **escalates**: the state is
    /// handed off through the checkpoint hook and every line of execution
    /// leaves for an in-process relaunch ([`Exit::Reshape`]); a run with no
    /// hook panics with a pointer to the launcher.
    fn reshape_team_size(&self, mode: ExecMode) -> Option<usize>;

    /// Rank-level plan-driven data updates fired at every announcement of a
    /// point (hybrid/distributed override; identity for pure teams).
    fn point_updates(&self, _ctx: &Ctx, _name: &str) {}

    /// Quiescence hook, fired on every worker at each *safe-point* crossing
    /// before the checkpoint directive is polled. Engines whose constructs
    /// can leave deferred work outstanding — the work-stealing task engine's
    /// per-worker deques — drain or verify that work here, so
    /// [`drive_point`] always observes a **stable task frontier**: no task
    /// is mid-execution or queued when the quiesced snapshot body runs.
    /// The default (engines whose constructs all complete synchronously
    /// before the point is announced) has nothing outstanding.
    fn quiesce_tasks(&self, _ctx: &Ctx, _name: &str) {}

    /// Quiesced snapshot body, run between two team barriers (§IV.A: "we
    /// introduce a barrier before and another after the safe point"). The
    /// default is the shared-memory rule: the master saves. Distributed
    /// overrides gather partitions / bracket with aggregate barriers first.
    /// `Err` when the save failed (on an aggregate, when any element's
    /// did); every line of execution of the team then leaves the crossing
    /// with [`Exit::Fault`], and the hook keeps what failed.
    fn snapshot_quiesced(&self, ctx: &Ctx, ck: &Arc<dyn CkptHook>) -> Result<()> {
        if ctx.worker() == 0 {
            ck.take_snapshot(ctx)?;
        }
        Ok(())
    }

    /// Quiesced restore body, run between two team barriers: the master
    /// loads. `Err` when the load failed (on an aggregate, when any
    /// element's did); every line of execution of the team then leaves the
    /// crossing with [`Exit::Fault`], and the hook keeps what failed.
    fn load_quiesced(&self, ctx: &Ctx, ck: &Arc<dyn CkptHook>) -> Result<()> {
        if ctx.worker() == 0 {
            ck.load_snapshot(ctx)?;
        }
        Ok(())
    }

    /// Collect the live state and hand it off (live-reshape escalation).
    /// Runs on exactly one line of execution per process — the crossing
    /// leader, inside the sealed barrier generation, so the whole team is
    /// quiesced. The default is the shared-memory rule (all state is local:
    /// hand it off as it is); engines
    /// with rank-level structure override to collect partitioned fields at
    /// the root first (master-collect rules).
    fn handoff_collect(&self, ctx: &Ctx, ck: &Arc<dyn CkptHook>) {
        ck.handoff_snapshot(ctx).expect("live hand-off failed");
    }

    /// Fold a team-level reduction result across aggregate elements
    /// (hybrid override: all-reduce over the simulated network).
    fn combine_across_ranks(&self, _name: &str, _op: ReduceOp, value: f64) -> f64 {
        value
    }

    /// Restrict a work-shared loop to locally owned sub-ranges (hybrid
    /// override for `DistFor`-aligned loops). `None` means the whole range
    /// is local — the common case, kept allocation-free. The shared slice
    /// lets overrides cache the computed ranges across encounters (every
    /// team worker asks at every loop).
    fn local_ranges(
        &self,
        _ctx: &Ctx,
        _name: &str,
        _range: &Range<usize>,
    ) -> Option<Arc<[Range<usize>]>> {
        None
    }

    /// Parallel-method join point: fork the team over the persistent pool,
    /// run the body on every worker, join.
    fn pe_region(&self, ctx: &Ctx, name: &str, body: &(dyn Fn(&Ctx) + Sync)) {
        let rt = self.rt();
        if !ctx.plan().is_parallel_method(name) || replay::active() || rt.in_region() {
            // Unplugged, replaying, or nested: run on the current line of
            // execution (nested regions serialise, as in OpenMP with nesting
            // disabled).
            body(ctx);
            return;
        }

        let k = rt.desired.load(Ordering::SeqCst).clamp(1, rt.max_threads);
        let latch = Latch::new(k - 1);
        rt.panics.lock().clear();
        rt.points.store(0, Ordering::SeqCst);
        *rt.decision.lock() = None;
        rt.ckpt_failed.store(false, Ordering::SeqCst);
        rt.barrier.set_size(k);
        // Safety: the latch join below keeps `body` alive for every worker.
        *rt.body.lock() = Some(unsafe { RegionBody::new(body) });
        *rt.latch.lock() = Some(latch.clone());
        rt.active.store(k, Ordering::SeqCst);
        tracking::advance_epoch();

        for w in 1..k {
            rt.spawn_worker(ctx, w, None);
        }

        // The master participates as worker 0.
        set_current_worker(0);
        constructs::seq_reset();
        super::cursor::depth_reset();
        let ctx0 = ctx.for_worker(0);
        let master_outcome = catch_unwind(AssertUnwindSafe(|| body(&ctx0)));

        latch.wait();
        rt.active.store(0, Ordering::SeqCst);
        *rt.body.lock() = None;
        *rt.latch.lock() = None;
        tracking::advance_epoch();

        if let Err(payload) = master_outcome {
            resume_unwind(payload);
        }
        let worker_panics = rt.panics.lock();
        if !worker_panics.is_empty() {
            panic!(
                "worker panic(s) in parallel region {name:?}: {}",
                worker_panics.join("; ")
            );
        }
    }

    /// Work-shared loop join point: claim-and-execute per the plugged
    /// schedule, with the construct's implicit ending barrier.
    fn pe_for_each(
        &self,
        ctx: &Ctx,
        name: &str,
        range: Range<usize>,
        body: &(dyn Fn(&Ctx, usize) + Sync),
    ) {
        let rt = self.rt();
        // Every loop consumes one construct sequence slot on every path so
        // replaying threads stay aligned with the live team.
        let seq = constructs::seq_next();
        if replay::active() {
            return;
        }
        let team = rt.active.load(Ordering::SeqCst);
        let plugged = ctx.plan().for_schedule(name);
        let locals = self.local_ranges(ctx, name, &range);
        if plugged.is_none() || team <= 1 {
            // Unplugged inside a team: replicated execution (each worker runs
            // the full local range), matching OpenMP code in a parallel
            // region without a work-sharing directive. Outside a team:
            // sequential over the local ranges.
            match &locals {
                None => {
                    for i in range {
                        body(ctx, i);
                    }
                }
                Some(ranges) => {
                    for r in ranges.iter() {
                        for i in r.clone() {
                            body(ctx, i);
                        }
                    }
                }
            }
            return;
        }
        let schedule = plugged.unwrap();
        let w = ctx.worker();
        // Work-share the *local* index space: flat positions 0..n map onto
        // the owned sub-ranges (the whole range when `locals` is `None`).
        let (n, offset) = match &locals {
            None => (range.len(), range.start),
            Some(ranges) => (ranges.iter().map(|r| r.len()).sum(), 0),
        };
        let run_flat = |flat: Range<usize>| match &locals {
            None => {
                for i in flat {
                    body(ctx, offset + i);
                }
            }
            Some(ranges) => run_flat_over(ranges, flat, ctx, body),
        };
        match schedule {
            Schedule::Block => run_flat(block_range(n, team, w)),
            Schedule::Cyclic => {
                for i in cyclic_indices(n, team, w) {
                    run_flat(i..i + 1);
                }
            }
            Schedule::BlockCyclic { chunk } => {
                for r in block_cyclic_ranges(n, team, w, chunk) {
                    run_flat(r);
                }
            }
            Schedule::Dynamic { chunk } => {
                let state = rt.space.get_or_insert(seq, loop_state);
                let ConstructState::Loop(ls) = &*state else {
                    panic!("construct sequence misalignment at loop {name:?} (seq {seq})");
                };
                loop {
                    let r = ls.claim(n, chunk);
                    if r.is_empty() {
                        break;
                    }
                    run_flat(r);
                }
            }
            Schedule::Guided { min_chunk } => {
                let state = rt.space.get_or_insert(seq, loop_state);
                let ConstructState::Loop(ls) = &*state else {
                    panic!("construct sequence misalignment at loop {name:?} (seq {seq})");
                };
                loop {
                    let r = ls.claim_guided(n, team, min_chunk);
                    if r.is_empty() {
                        break;
                    }
                    run_flat(r);
                }
            }
        }
        // Implicit barrier at the end of a work-shared loop (OpenMP `for`
        // semantics); dynamic schedules retire their shared state inside the
        // leader action.
        if schedule.is_static() {
            rt.team_barrier();
        } else {
            rt.team_barrier_retire(seq);
        }
    }

    /// Method join point: wrap `body` per the plan (barriers, master-only,
    /// single, synchronized).
    fn pe_call(&self, ctx: &Ctx, name: &str, body: &mut dyn FnMut(&Ctx)) {
        let plan = ctx.plan();
        let (before, after) = plan.barrier_around(name);
        if before {
            self.pe_barrier(ctx);
        }
        if plan.is_master_only(name) {
            if ctx.worker() == 0 && !replay::active() {
                body(ctx);
            }
        } else if plan.is_single(name) {
            let mut wrapped = || body(ctx);
            self.pe_single(ctx, name, &mut wrapped);
        } else if plan.is_synchronized(name) {
            let mut wrapped = || body(ctx);
            self.pe_critical(ctx, name, &mut wrapped);
        } else {
            body(ctx);
        }
        if after {
            self.pe_barrier(ctx);
        }
    }

    /// Execution-point join point: safe points (checkpoint directives,
    /// adaptation polling, reshape) and plugged data updates.
    fn pe_point(&self, ctx: &Ctx, name: &str) {
        let rt = self.rt();
        if replay::active() {
            // Expansion replay: count safe points; at the target, leave
            // replay mode and join the team at the reshape join barrier.
            if ctx.plan().is_safe_point(name) && replay::note_point() {
                replay::end();
                if rt.in_region() {
                    rt.barrier.wait();
                }
                tracking::advance_epoch();
                // Align the construct sequence with the live team: every
                // worker resets at this same crossing.
                constructs::seq_reset();
            }
            return;
        }
        self.point_updates(ctx, name);
        if !ctx.plan().is_safe_point(name) {
            return;
        }
        self.quiesce_tasks(ctx, name);
        if ctx.worker() == 0 {
            rt.points.fetch_add(1, Ordering::SeqCst);
        }
        drive_point(
            ctx,
            name,
            |ctx, ck| rt.quiesced(|| self.snapshot_quiesced(ctx, ck)),
            |ctx, ck| rt.quiesced(|| self.load_quiesced(ctx, ck)),
        );
        if let Some(ad) = ctx.adapt_hook().cloned() {
            if rt.in_region() {
                // Publish protocol: the crossing leader polls the controller
                // once and publishes the decision before anyone is released,
                // so the whole team acts on the same answer.
                rt.barrier.wait_leader(|_| {
                    *rt.decision.lock() = ad.pending(ctx, name);
                });
                tracking::advance_epoch();
                let mode = *rt.decision.lock();
                if let Some(mode) = mode {
                    self.pe_reshape(ctx, mode, &ad);
                }
            } else if let Some(mode) = ad.pending(ctx, name) {
                // Outside a region only the master is running.
                self.pe_reshape(ctx, mode, &ad);
            }
        }
        // Re-base the construct sequence at every safe-point crossing, at
        // the same program location on every worker. This keeps joining
        // replay workers aligned even when work-sharing constructs live
        // inside ignorable methods (which replay skips wholesale).
        constructs::seq_reset();
    }

    /// Apply a published reshape decision (§IV.B). Callers are already
    /// aligned: the decision was published by the crossing leader atomically
    /// with a barrier release, so every live worker enters with the same
    /// `mode`.
    fn pe_reshape(&self, ctx: &Ctx, mode: ExecMode, adapt: &Arc<dyn AdaptHook>) {
        let rt = self.rt();
        let Some(new) = self.reshape_team_size(mode) else {
            self.pe_escalate(ctx, mode);
        };
        if !rt.in_region() {
            // Between regions only the master runs: take effect at the next
            // fork.
            rt.desired.store(new, Ordering::SeqCst);
            adapt.confirm(mode);
            return;
        }
        let cur = rt.active.load(Ordering::SeqCst).max(1);

        if new > cur {
            // Expansion (§IV.B): the leader — atomically with the barrier
            // release — spawns replay workers targeting the safe points seen
            // since region entry, grows the barrier and confirms.
            rt.barrier.wait_leader(|size| {
                let target = rt.points.load(Ordering::SeqCst);
                let latch = rt
                    .latch
                    .lock()
                    .clone()
                    .expect("reshape inside region requires region state");
                latch.add(new - cur);
                for w in cur..new {
                    rt.spawn_worker(ctx, w, Some(target));
                }
                *size = new;
                rt.active.store(new, Ordering::SeqCst);
                rt.desired.store(new, Ordering::SeqCst);
                adapt.confirm(mode);
            });
            // Join barrier: the old team waits here until every new worker
            // finishes its replay and arrives.
            rt.barrier.wait();
            tracking::advance_epoch();
        } else if new < cur {
            rt.barrier.wait_leader(|size| {
                *size = new;
                rt.active.store(new, Ordering::SeqCst);
                rt.desired.store(new, Ordering::SeqCst);
                adapt.confirm(mode);
            });
            tracking::advance_epoch();
            if ctx.worker() >= new {
                // Graceful drain: unwind this worker to the region boundary.
                leave(Exit::Drained);
            }
        } else {
            rt.barrier.wait_leader(|_| adapt.confirm(mode));
        }
    }

    /// Escalate a reshape this engine cannot realise in place (§IV.B meets
    /// the transport seam): the crossing leader — inside the sealed barrier
    /// generation, so the team is quiesced — collects the state and hands a
    /// full master view of it off through the checkpoint hook, then *every*
    /// line of execution leaves with [`Exit::Reshape`] for the launcher's
    /// in-process relaunch in `mode` (no process exit, no disk round-trip).
    /// The request stays pending; the launcher confirms it when
    /// relaunching. A run with no checkpoint hook has nothing to hand the
    /// state to and panics with a pointer to the launcher.
    fn pe_escalate(&self, ctx: &Ctx, mode: ExecMode) -> ! {
        let rt = self.rt();
        let Some(ck) = ctx.ckpt_hook().cloned() else {
            panic!(
                "engine cannot reshape to {mode} in place and has no checkpoint \
                 hook to hand the state off to; deploy through the ppar-adapt \
                 launcher with a controller, or adapt by checkpoint/restart"
            );
        };
        if rt.in_region() {
            // One leader snapshots while the generation is sealed; everyone
            // is released into the unwind together.
            rt.barrier.wait_leader(|_| self.handoff_collect(ctx, &ck));
            tracking::advance_epoch();
        } else {
            self.handoff_collect(ctx, &ck);
        }
        leave(Exit::Reshape(mode));
    }

    /// Team/aggregate barrier join point.
    fn pe_barrier(&self, _ctx: &Ctx) {
        if replay::active() {
            return;
        }
        self.rt().team_barrier();
    }

    /// Named mutual-exclusion section within the team.
    fn pe_critical(&self, _ctx: &Ctx, name: &str, body: &mut dyn FnMut()) {
        if replay::active() {
            return;
        }
        let rt = self.rt();
        if !rt.in_region() {
            body();
            return;
        }
        let mutex = {
            let mut criticals = rt.criticals.lock();
            criticals
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Mutex::new(())))
                .clone()
        };
        let _guard = mutex.lock();
        body();
    }

    /// One-executor-per-encounter section within the team.
    fn pe_single(&self, _ctx: &Ctx, name: &str, body: &mut dyn FnMut()) {
        let rt = self.rt();
        let seq = constructs::seq_next();
        if replay::active() {
            return;
        }
        let team = rt.active.load(Ordering::SeqCst);
        if team <= 1 {
            body();
            return;
        }
        let state = rt.space.get_or_insert(seq, single_state);
        let ConstructState::Single(s) = &*state else {
            panic!("construct sequence misalignment at single {name:?} (seq {seq})");
        };
        if s.try_claim() {
            body();
        }
        // Implicit barrier (OpenMP single semantics).
        rt.team_barrier_retire(seq);
    }

    /// Master-only section.
    fn pe_master(&self, ctx: &Ctx, body: &mut dyn FnMut()) {
        if replay::active() {
            return;
        }
        if ctx.worker() == 0 {
            body();
        }
    }

    /// Combine per-worker values across the team (and, via
    /// [`ParallelEngine::combine_across_ranks`], across the aggregate);
    /// every caller receives the combined result.
    fn pe_reduce(&self, _ctx: &Ctx, name: &str, op: ReduceOp, value: f64) -> f64 {
        let rt = self.rt();
        let seq = constructs::seq_next();
        if replay::active() {
            // Replay cannot reconstruct other workers' contributions; the
            // caller's control flow must not depend on reductions during
            // replay (choose safe data so that it does not).
            return value;
        }
        let team = rt.active.load(Ordering::SeqCst);
        if team <= 1 {
            return self.combine_across_ranks(name, op, value);
        }
        let state = rt.space.get_or_insert(seq, reduce_state);
        let ConstructState::Reduce(r) = &*state else {
            panic!("construct sequence misalignment at reduce {name:?} (seq {seq})");
        };
        r.combine(op, value);
        // The retiring leader folds in the cross-aggregate combine before
        // anyone reads the result.
        rt.barrier.wait_leader(|_| {
            let local = r.result();
            r.publish(self.combine_across_ranks(name, op, local));
            rt.space.remove(seq);
        });
        tracking::advance_epoch();
        // The held Arc keeps the accumulator alive past its retirement.
        r.result()
    }
}

/// Execute `body` over the real indices behind flat positions `flat` of the
/// concatenated `ranges`.
fn run_flat_over(
    ranges: &[Range<usize>],
    flat: Range<usize>,
    ctx: &Ctx,
    body: &(dyn Fn(&Ctx, usize) + Sync),
) {
    let mut pos = 0usize;
    for r in ranges {
        let len = r.len();
        let lo = flat.start.max(pos);
        let hi = flat.end.min(pos + len);
        if lo < hi {
            for i in (r.start + (lo - pos))..(r.start + (hi - pos)) {
                body(ctx, i);
            }
        }
        pos += len;
        if pos >= flat.end {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_mapping_covers_split_ranges() {
        let ranges = vec![2..5, 10..12, 20..21];
        let seen = Mutex::new(Vec::new());
        let ctx = Ctx::new_root(crate::ctx::RunShared::new(
            Arc::new(crate::plan::Plan::new()),
            Arc::new(crate::state::Registry::new()),
            Arc::new(crate::ctx::SeqEngine),
            None,
            None,
        ));
        run_flat_over(&ranges, 0..6, &ctx, &|_, i| seen.lock().push(i));
        assert_eq!(*seen.lock(), vec![2, 3, 4, 10, 11, 20]);
        seen.lock().clear();
        run_flat_over(&ranges, 2..4, &ctx, &|_, i| seen.lock().push(i));
        assert_eq!(*seen.lock(), vec![4, 10]);
        seen.lock().clear();
        run_flat_over(&ranges, 5..6, &ctx, &|_, i| seen.lock().push(i));
        assert_eq!(*seen.lock(), vec![20]);
    }

    #[test]
    fn runtime_reports_sizes() {
        let rt = TeamRuntime::new(3, 8);
        assert_eq!(rt.current_threads(), 3);
        assert_eq!(rt.max_threads(), 8);
        assert_eq!(rt.team_size(), 1, "no region live");
        assert!(!rt.in_region());
        assert!(rt.team_barrier(), "no-op barrier outside a region");
    }
}
