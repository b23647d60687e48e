//! Execution contexts, the engine abstraction and the sequential engine.
//!
//! The base (domain-specific) program is written once against a [`Ctx`]
//! handle. Every construct on `Ctx` is a *join point*: with no plugs
//! installed it is an identity operation, so the base code runs strictly
//! sequentially; with plugs, the active [`Engine`] rewrites the construct
//! into parallel/distributed/checkpointed behaviour. The shared-memory
//! engine is [`crate::runtime::TeamEngine`], the per-rank engine of
//! distributed and hybrid runs lives in `ppar-dsm`; this module provides
//! the strict sequential engine that anchors the semantics all other
//! engines must preserve, and [`run_on`], through which every run starts.

use std::ops::Range;
use std::sync::Arc;

use crate::error::Result;
use crate::mode::ExecMode;
use crate::plan::{Plan, ReduceOp};
use crate::shared::{SharedGrid, SharedVec};
use crate::state::{Registry, Scalar, StateCell, ValueCell};

/// What a checkpoint hook asks the engine to do at a safe point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointDirective {
    /// Nothing due; continue.
    Continue,
    /// A snapshot is due at this safe point: the engine must quiesce the
    /// team/aggregate (barriers, gathers, per the mode) and have the
    /// appropriate worker(s) call [`CkptHook::take_snapshot`].
    Snapshot,
    /// Replay has reached the checkpointed safe point: the engine must
    /// quiesce, have the master/root call [`CkptHook::load_snapshot`], and
    /// resume live execution.
    LoadAndResume,
}

/// Which elements of an aggregate a [`CkptHook::load_snapshot`] installed
/// the restored state on (one element without an aggregate: the root).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Installed {
    /// The root alone: a master-collect engine redistributes from it
    /// (scatters partitioned fields, broadcasts the rest).
    Root,
    /// Every element installed its own share where the record lies;
    /// nothing is redistributed.
    Everywhere,
}

/// Interface the checkpoint/restart module (crate `ppar-ckpt`) exposes to
/// engines. Mirrors the paper's `pcr`, `safepoints`, `allocations` and
/// `ignorablemethods` modules (§IV.A, Fig. 2).
pub trait CkptHook: Send + Sync {
    /// Count safe point `name` on the calling line of execution and decide
    /// whether a snapshot or a replay-completion is due here. All members of
    /// a team/aggregate execute the same safe-point sequence (SPMD
    /// discipline), so every caller reaches the same decision at the same
    /// point.
    fn at_point(&self, ctx: &Ctx, name: &str) -> PointDirective;

    /// True when method `name` must be skipped on this control flow
    /// (replay mode active and the plan marks it ignorable).
    fn skip_method(&self, ctx: &Ctx, name: &str) -> bool;

    /// Is restart replay currently active?
    fn replaying(&self) -> bool;

    /// Persist safe data + the safe-point counter. Called by the engine on
    /// the master thread (shared memory), the root element (master-collect
    /// distributed) or every element (local-snapshot distributed), after the
    /// engine has quiesced and moved data as the strategy requires.
    fn take_snapshot(&self, ctx: &Ctx) -> Result<()>;

    /// Load safe data into the registered cells and leave replay mode.
    /// Called by the master thread, and by every element of an aggregate,
    /// under the same quiescence rules; returns which elements installed.
    fn load_snapshot(&self, ctx: &Ctx) -> Result<Installed>;

    /// A newly spawned line of execution (expansion or team rebuild during
    /// replay) adopts the forking thread's safe-point clock. The engine
    /// captures `count` on the forking thread *at dispatch time* — reading
    /// a shared "master clock" from the new thread would race with the
    /// master advancing past further safe points before the thread starts.
    fn sync_thread_clock(&self, count: u64);

    /// Safe points counted so far on this line of execution.
    fn count(&self) -> u64;

    /// Attribute additional restore time to the load statistics (engines
    /// call this for mode-specific post-load work, e.g. re-scattering
    /// partitioned data across the aggregate).
    fn note_load_extra(&self, _extra: std::time::Duration) {}

    // ---- replay-free resume seam (the `PPARPRG1` region cursor) ----

    /// The master line of execution entered iteration `index` of the
    /// [`Ctx::iter_loop`] named `name` at nesting `depth` (full range
    /// `start..end`). Hooks that maintain a progress cursor
    /// ([`crate::runtime::RegionCursor`]) record the frame together with
    /// the calling thread's safe-point clock. Default: no tracking.
    fn note_loop_iter(&self, _depth: usize, _name: &str, _start: u64, _end: u64, _index: u64) {}

    /// The master left the [`Ctx::iter_loop`] at nesting `depth`: frames at
    /// this depth and deeper are no longer live.
    fn note_loop_exit(&self, _depth: usize) {}

    /// Restart replay entered the [`Ctx::iter_loop`] (`name`, at `depth`).
    /// A hook holding a matching progress-cursor frame jumps the *calling
    /// thread's* safe-point clock to the frame's entry clock and returns
    /// the iteration index to resume from; `None` replays classically.
    /// Every replaying line of execution calls this (each jumps its own
    /// clock), so the team still reaches the load crossing aligned.
    fn loop_resume(&self, _depth: usize, _name: &str, _start: u64, _end: u64) -> Option<u64> {
        None
    }

    /// Expansion replay entered the [`Ctx::iter_loop`] (`name`, at
    /// `depth`): return the live `(index, clock_at_entry)` frame recorded
    /// by the team master, if any. The runtime fast-forwards the replay
    /// count from it instead of re-walking every crossed safe point.
    fn live_loop_frame(&self, _depth: usize, _name: &str) -> Option<(u64, u64)> {
        None
    }

    // ---- live-reshape hand-off seam ----

    /// Is a live hand-off armed? When true, an engine that cannot realise a
    /// reshape target in place may hand the state off (see
    /// [`CkptHook::handoff_snapshot`]) and unwind for an in-process
    /// relaunch instead of demanding a full restart.
    fn can_handoff(&self) -> bool {
        false
    }

    /// Hand off a full, mode-independent master view of the safe data to
    /// the relaunch. Engines call this quiesced at a safe-point crossing
    /// that every line of execution then leaves, with partitioned data
    /// already collected at the caller (master-collect rules), so the hook
    /// may keep the cells instead of copying them. Errors when no hand-off
    /// is armed.
    fn handoff_snapshot(&self, _ctx: &Ctx) -> Result<()> {
        Err(crate::error::PparError::InvalidAdaptation(
            "this checkpoint hook has no live hand-off".into(),
        ))
    }

    // ---- dirty-gather seam (master-collect) ----

    /// May the gather before the coming save ship only what each element
    /// wrote since the last save? True once this element has saved — or
    /// mirrored its root's save ([`CkptHook::note_peer_snapshot`]) — since
    /// its run started or last restored: the root's copy of every
    /// partitioned field is then what the last save's gather left, and
    /// each element's write tracking holds what changed since. The same on
    /// every element of an aggregate (all save and restore at the same
    /// safe points), so engines may consult any element's hook.
    fn may_gather_dirty(&self) -> bool {
        false
    }

    /// A peer element (master-collect: the root) persisted the snapshot for
    /// this safe point, after a gather that shipped this element's writes.
    /// Elements that did not write reset their local write tracking here,
    /// so the next dirty gather ([`CkptHook::may_gather_dirty`]) ships
    /// exactly what changes from now on.
    fn note_peer_snapshot(&self, _ctx: &Ctx) -> Result<()> {
        Ok(())
    }

    /// All elements of a distributed group have durably persisted their
    /// shard for the safe point that just saved (the engine has crossed the
    /// post-save barrier). The root calls this to advance the group-commit
    /// point: a restart never targets a checkpoint newer than the last
    /// commit, so a rank dying mid-save can not tear the restore.
    fn group_commit(&self, _ctx: &Ctx) -> Result<()> {
        Ok(())
    }

    /// The run completed normally: clear the failure marker.
    fn finish(&self, ctx: &Ctx) -> Result<()>;
}

/// Interface the run-time adaptation controller (crate `ppar-adapt`)
/// exposes to engines. Adaptation requests are honoured only at safe points
/// (§IV.B, "requests to adapt the application parallelism structure are
/// managed on these safe points").
///
/// ## Crossing semantics
///
/// [`AdaptHook::pending`] is invoked exactly **once per safe-point
/// crossing**: by the barrier leader in a team (which then publishes the
/// decision to all workers atomically with the barrier release, so every
/// team member acts on the same answer), or by the single line of execution
/// otherwise. A controller may therefore count invocations to know how many
/// safe points have elapsed. The request must stay pending until
/// [`AdaptHook::confirm`] is called by the engine that applied it.
pub trait AdaptHook: Send + Sync {
    /// Poll for a pending reshape request at a safe-point crossing.
    fn pending(&self, ctx: &Ctx, name: &str) -> Option<ExecMode>;

    /// The engine finished reshaping to `mode`; clear the request.
    fn confirm(&self, mode: ExecMode);

    /// `n` safe-point crossings elapsed without being executed: a region
    /// cursor fast-forwarded a replay past them ([`Ctx::iter_loop`]).
    /// Controllers that count [`AdaptHook::pending`] invocations to track
    /// progress must advance their ordinal by `n`, keeping timeline
    /// triggers anchored to the application's safe-point clock rather than
    /// to the (now shorter) set of crossings actually re-visited. Called
    /// once per skip by the same line of execution that would have polled.
    fn note_skipped(&self, n: u64) {
        let _ = n;
    }
}

/// An execution engine: the run-time realisation of one deployment target.
///
/// Engines receive every construct the base code announces, look up the plan
/// (through the [`Ctx`]) and realise plugged behaviour. The contract binding
/// all engines: *with respect to the base code's observable state, execution
/// must be equivalent to the sequential engine* (modulo floating-point
/// reduction order).
pub trait Engine: Send + Sync {
    /// Current execution mode (may change across adaptations).
    fn mode(&self) -> ExecMode;

    /// Live team size on this process (1 when no team is active).
    fn team_size(&self) -> usize {
        1
    }

    /// This process's aggregate element id (0 when not distributed).
    fn rank(&self) -> usize {
        0
    }

    /// Aggregate size (1 when not distributed).
    fn nranks(&self) -> usize {
        1
    }

    /// Method join point: run `body` wrapped per the plan (synchronized /
    /// single / master / barriers / scatter-gather / delegation).
    fn call(&self, ctx: &Ctx, name: &str, body: &mut dyn FnMut(&Ctx));

    /// Parallel-method join point: run `body` on the whole team (or once,
    /// when unplugged/sequential).
    fn region(&self, ctx: &Ctx, name: &str, body: &(dyn Fn(&Ctx) + Sync));

    /// Work-shared loop join point over `range`.
    fn for_each(
        &self,
        ctx: &Ctx,
        name: &str,
        range: Range<usize>,
        body: &(dyn Fn(&Ctx, usize) + Sync),
    );

    /// Execution-point join point (safe points, data-update points).
    fn point(&self, ctx: &Ctx, name: &str);

    /// Team/aggregate barrier.
    fn barrier(&self, ctx: &Ctx);

    /// Named mutual-exclusion section within a team.
    fn critical(&self, ctx: &Ctx, name: &str, body: &mut dyn FnMut());

    /// One-executor-per-epoch section within a team.
    fn single(&self, ctx: &Ctx, name: &str, body: &mut dyn FnMut());

    /// Master-only section within a team.
    fn master(&self, ctx: &Ctx, body: &mut dyn FnMut());

    /// Combine per-worker values across team *and* aggregate; every caller
    /// receives the combined result.
    fn reduce_f64(&self, ctx: &Ctx, name: &str, op: ReduceOp, value: f64) -> f64;

    /// Run finished normally: notify the checkpoint hook, which clears the
    /// failure marker.
    fn finish(&self, ctx: &Ctx) {
        if let Some(ck) = ctx.ckpt_hook() {
            ck.finish(ctx).expect("failed to clear run marker");
        }
    }
}

/// Everything shared by all lines of execution of one run on one process:
/// the plan, the allocation registry, the engine and the optional hooks.
pub struct RunShared {
    /// The installed plan (empty = strict sequential).
    pub plan: Arc<Plan>,
    /// Named allocations announced by the base code.
    pub registry: Arc<Registry>,
    /// The engine realising this deployment target.
    pub engine: Arc<dyn Engine>,
    /// Checkpoint/restart module, when plugged.
    pub ckpt: Option<Arc<dyn CkptHook>>,
    /// Run-time adaptation controller, when plugged.
    pub adapt: Option<Arc<dyn AdaptHook>>,
}

impl RunShared {
    /// Assemble a run.
    pub fn new(
        plan: Arc<Plan>,
        registry: Arc<Registry>,
        engine: Arc<dyn Engine>,
        ckpt: Option<Arc<dyn CkptHook>>,
        adapt: Option<Arc<dyn AdaptHook>>,
    ) -> Arc<Self> {
        Arc::new(RunShared {
            plan,
            registry,
            engine,
            ckpt,
            adapt,
        })
    }
}

/// The handle through which base code announces all join points.
///
/// `Ctx` is cheap to clone; engines create one per team worker. All queries
/// about live structure (team size, rank) go to the engine so they stay
/// correct across run-time adaptations.
#[derive(Clone)]
pub struct Ctx {
    shared: Arc<RunShared>,
    worker: usize,
}

impl Ctx {
    /// Root context for the initial line of execution.
    pub fn new_root(shared: Arc<RunShared>) -> Ctx {
        crate::runtime::cursor::depth_reset();
        Ctx { shared, worker: 0 }
    }

    /// A context for team worker `worker` (used by engines when forking).
    pub fn for_worker(&self, worker: usize) -> Ctx {
        Ctx {
            shared: self.shared.clone(),
            worker,
        }
    }

    /// The shared run state.
    pub fn shared(&self) -> &Arc<RunShared> {
        &self.shared
    }

    /// The installed plan.
    pub fn plan(&self) -> &Plan {
        &self.shared.plan
    }

    /// The allocation registry of this process.
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// The engine.
    pub fn engine(&self) -> &dyn Engine {
        &*self.shared.engine
    }

    /// The checkpoint hook, when plugged.
    pub fn ckpt_hook(&self) -> Option<&Arc<dyn CkptHook>> {
        self.shared.ckpt.as_ref()
    }

    /// The adaptation hook, when plugged.
    pub fn adapt_hook(&self) -> Option<&Arc<dyn AdaptHook>> {
        self.shared.adapt.as_ref()
    }

    /// This line of execution's team worker id (0 = master).
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Live team size.
    pub fn num_workers(&self) -> usize {
        self.shared.engine.team_size()
    }

    /// Am I the team master?
    pub fn is_master(&self) -> bool {
        self.worker == 0
    }

    /// This process's aggregate element id.
    pub fn rank(&self) -> usize {
        self.shared.engine.rank()
    }

    /// Aggregate size.
    pub fn num_ranks(&self) -> usize {
        self.shared.engine.nranks()
    }

    /// Am I aggregate element 0?
    pub fn is_root(&self) -> bool {
        self.rank() == 0
    }

    /// Current execution mode.
    pub fn mode(&self) -> ExecMode {
        self.shared.engine.mode()
    }

    // ---- allocation join points (the paper's `allocations` module) ----

    /// Allocate a named shared vector and register it for checkpoint /
    /// distribution plugs.
    pub fn alloc_vec<T: Scalar>(&self, name: &str, len: usize, init: T) -> Arc<SharedVec<T>> {
        let v = Arc::new(SharedVec::new(len, init));
        self.shared.registry.register_dist(name, v.clone());
        v
    }

    /// Allocate a named shared grid (rows are the distribution index).
    pub fn alloc_grid<T: Scalar>(
        &self,
        name: &str,
        rows: usize,
        cols: usize,
        init: T,
    ) -> Arc<SharedGrid<T>> {
        let g = Arc::new(SharedGrid::new(rows, cols, init));
        self.shared.registry.register_dist(name, g.clone());
        g
    }

    /// Allocate a named scalar cell.
    pub fn alloc_value<T: Scalar>(&self, name: &str, init: T) -> Arc<ValueCell<T>> {
        let c = Arc::new(ValueCell::new(init));
        self.shared.registry.register_state(name, c.clone());
        c
    }

    /// Register an externally created snapshotable value under `name`: the
    /// extension point for user state that is not one of the containers
    /// above. Implement [`StateCell`] — announce `byte_len`, stream
    /// `write_state` / `save_bytes` in a layout of your own, read it back
    /// in `load_bytes` — and name it in the plan's `SafeData`
    /// (`ppar_task::TaskFrontier` is the worked example).
    pub fn register_state(&self, name: &str, cell: Arc<dyn StateCell>) {
        self.shared.registry.register_state(name, cell);
    }

    // ---- construct join points ----

    /// Method join point. Skipped entirely when replay (restart replay via
    /// the checkpoint hook, or thread-local region replay during expansion)
    /// is active and the plan marks `name` ignorable; otherwise wrapped per
    /// the plan by the engine.
    pub fn call(&self, name: &str, mut body: impl FnMut(&Ctx)) {
        if crate::replay::active() && self.plan().is_ignorable(name) {
            return;
        }
        if let Some(ck) = &self.shared.ckpt {
            if ck.skip_method(self, name) {
                return;
            }
        }
        self.shared.engine.call(self, name, &mut body);
    }

    /// Method join point returning a value; yields `None` when the method
    /// was skipped (replay) or ran on another executor (master/single/
    /// delegated element).
    pub fn call_ret<R>(&self, name: &str, mut body: impl FnMut(&Ctx) -> R) -> Option<R> {
        let mut out = None;
        self.call(name, |ctx| out = Some(body(ctx)));
        out
    }

    /// Parallel-method join point: `body` runs on the whole team when
    /// `ParallelMethod<name>` is plugged, once otherwise.
    pub fn region(&self, name: &str, body: impl Fn(&Ctx) + Sync) {
        self.shared.engine.region(self, name, &body);
    }

    /// Work-shared loop join point: each index of `range` is executed
    /// exactly once across the team (or locally restricted to the owned
    /// partition under a `DistFor` plug).
    pub fn each(&self, name: &str, range: Range<usize>, body: impl Fn(&Ctx, usize) + Sync) {
        self.shared.engine.for_each(self, name, range, &body);
    }

    /// Resumable iteration loop: a plain `for` over `range`, but the loop's
    /// progress is recorded in the checkpoint hook's
    /// [`crate::runtime::RegionCursor`], so a restart or a live reshape
    /// resumes *at* the in-flight iteration — replaying at most the one
    /// partial iteration up to the checkpointed crossing — instead of
    /// re-walking the whole safe-point history from the region entry.
    /// `body` returns `false` to leave the loop early.
    ///
    /// Announce the loop on every line of execution of the region (SPMD
    /// discipline, like any other construct). Without a checkpoint hook
    /// this is exactly a `for` loop.
    pub fn iter_loop(
        &self,
        name: &str,
        range: Range<usize>,
        mut body: impl FnMut(&Ctx, usize) -> bool,
    ) {
        let depth = crate::runtime::cursor::depth_enter();
        let mut start = range.start;
        // A frame at depth d is only meaningful inside the recorded outer
        // iterations: resume it only when all d enclosing frames jumped.
        if let Some(ck) = &self.shared.ckpt {
            if crate::runtime::cursor::jumps() == depth {
                if crate::replay::active() {
                    // Expansion replay (§IV.B): credit the replay count with
                    // the safe points between region entry and the live
                    // frame's iteration entry. The spawn clock is the
                    // forking thread's clock at the crossing (= region-entry
                    // clock + replay target), so the frame's entry clock
                    // converts to a region-relative count by subtraction.
                    if let Some((index, clock_at_entry)) = ck.live_loop_frame(depth, name) {
                        let spawn_clock = ck.count();
                        let credit = clock_at_entry + crate::replay::target();
                        if credit >= spawn_clock {
                            let jumped = credit - spawn_clock;
                            if jumped >= crate::replay::count()
                                && jumped < crate::replay::target()
                                && (index as usize) >= range.start
                                && (index as usize) < range.end
                            {
                                crate::replay::set_count(jumped);
                                start = index as usize;
                                crate::runtime::cursor::jumps_note();
                            }
                        }
                    }
                } else if ck.replaying() {
                    let before = ck.count();
                    if let Some(index) =
                        ck.loop_resume(depth, name, range.start as u64, range.end as u64)
                    {
                        if (index as usize) >= range.start && (index as usize) < range.end {
                            start = index as usize;
                            crate::runtime::cursor::jumps_note();
                            // Keep the adaptation controller's crossing
                            // ordinal aligned with the safe-point clock: the
                            // skipped crossings elapse without ever polling
                            // `pending`. One notification per crossing set —
                            // the master speaks for its team, exactly like
                            // the per-crossing poll itself.
                            let span = ck.count().saturating_sub(before);
                            if span > 0 && self.is_master() {
                                if let Some(ad) = self.adapt_hook() {
                                    ad.note_skipped(span);
                                }
                            }
                        }
                    }
                }
            }
        }
        // The master records frames (the same line of execution that
        // snapshots under shared-memory and master-collect rules); tracking
        // continues during restart replay so a load that lands mid-loop
        // leaves the frames live for subsequent snapshots. Expansion-replay
        // workers never track: the master's frames are the live truth.
        let track = self
            .shared
            .ckpt
            .as_ref()
            .filter(|_| self.is_master() && !crate::replay::active());
        for i in start..range.end {
            if let Some(ck) = track {
                ck.note_loop_iter(depth, name, range.start as u64, range.end as u64, i as u64);
            }
            if !body(self, i) {
                break;
            }
        }
        if let Some(ck) = track {
            ck.note_loop_exit(depth);
        }
        crate::runtime::cursor::depth_exit(depth);
    }

    /// Execution-point join point: safe points, adaptation points and
    /// plugged data-update actions all hang off named points.
    pub fn point(&self, name: &str) {
        self.shared.engine.point(self, name);
    }

    /// Team/aggregate barrier.
    pub fn barrier(&self) {
        self.shared.engine.barrier(self);
    }

    /// Named critical section.
    pub fn critical(&self, name: &str, mut body: impl FnMut()) {
        self.shared.engine.critical(self, name, &mut body);
    }

    /// One executor per epoch.
    pub fn single(&self, name: &str, mut body: impl FnMut()) {
        self.shared.engine.single(self, name, &mut body);
    }

    /// Master-only section.
    pub fn master(&self, mut body: impl FnMut()) {
        self.shared.engine.master(self, &mut body);
    }

    /// Combine per-worker `value`s with `op` across team and aggregate;
    /// every caller receives the result.
    pub fn reduce_f64(&self, name: &str, op: ReduceOp, value: f64) -> f64 {
        self.shared.engine.reduce_f64(self, name, op, value)
    }

    /// Announce normal completion (drains teams, clears failure markers).
    pub fn finish(&self) {
        self.shared.engine.finish(self);
    }

    // ---- thread-local field access (§III.B) ----

    /// Mutate this worker's copy of a thread-local field.
    pub fn local_mut<T: Clone + Send, R>(
        &self,
        field: &crate::shared::TeamLocal<T>,
        f: impl FnOnce(&mut T) -> R,
    ) -> R {
        field.with_mut(self.worker, f)
    }
}

// ---------------------------------------------------------------------------
// Sequential engine
// ---------------------------------------------------------------------------

/// The strict sequential engine: the reference semantics of every construct.
///
/// Shared-memory plugs (parallel methods, work sharing, critical, ...) are
/// identities here; checkpoint plugs are honoured (the paper's sequential
/// checkpointing of Fig. 2 runs exactly this engine).
pub struct SeqEngine;

impl SeqEngine {
    /// Handle a safe point for engines without teams/aggregates: count it,
    /// take or load snapshots inline, honour adaptation polls (which a
    /// static engine cannot satisfy — they are left pending for an adaptive
    /// engine, or surfaced by the launcher). A save or a load that fails
    /// ends the attempt: the line of execution leaves with
    /// [`crate::runtime::Exit::Fault`], and the hook keeps what failed.
    pub fn sequential_point(ctx: &Ctx, name: &str) {
        let fault = |failed: bool| {
            if failed {
                crate::runtime::leave(crate::runtime::Exit::Fault);
            }
        };
        crate::runtime::drive_point(
            ctx,
            name,
            |ctx, ck| fault(ck.take_snapshot(ctx).is_err()),
            |ctx, ck| fault(ck.load_snapshot(ctx).is_err()),
        );
    }
}

impl Engine for SeqEngine {
    fn mode(&self) -> ExecMode {
        ExecMode::Sequential
    }

    fn call(&self, ctx: &Ctx, _name: &str, body: &mut dyn FnMut(&Ctx)) {
        body(ctx);
    }

    fn region(&self, ctx: &Ctx, _name: &str, body: &(dyn Fn(&Ctx) + Sync)) {
        body(ctx);
    }

    fn for_each(
        &self,
        ctx: &Ctx,
        _name: &str,
        range: Range<usize>,
        body: &(dyn Fn(&Ctx, usize) + Sync),
    ) {
        for i in range {
            body(ctx, i);
        }
    }

    fn point(&self, ctx: &Ctx, name: &str) {
        SeqEngine::sequential_point(ctx, name);
    }

    fn barrier(&self, _ctx: &Ctx) {}

    fn critical(&self, _ctx: &Ctx, _name: &str, body: &mut dyn FnMut()) {
        body();
    }

    fn single(&self, _ctx: &Ctx, _name: &str, body: &mut dyn FnMut()) {
        body();
    }

    fn master(&self, _ctx: &Ctx, body: &mut dyn FnMut()) {
        body();
    }

    fn reduce_f64(&self, _ctx: &Ctx, _name: &str, _op: ReduceOp, value: f64) -> f64 {
        value
    }
}

/// Run `app` on the root line of execution of `engine` under `plan` with
/// optional hooks, and return its result: the one place a run is assembled
/// (fresh allocation registry, shared run state, root context). Completion
/// is the app's to announce — a shorthand ends with [`Ctx::finish`], a
/// launcher only when the app reports that it completed.
pub fn run_on<R>(
    engine: Arc<dyn Engine>,
    plan: Arc<Plan>,
    ckpt: Option<Arc<dyn CkptHook>>,
    adapt: Option<Arc<dyn AdaptHook>>,
    app: impl FnOnce(&Ctx) -> R,
) -> R {
    let shared = RunShared::new(plan, Arc::new(Registry::new()), engine, ckpt, adapt);
    app(&Ctx::new_root(shared))
}

/// Run `app` once, sequentially, under `plan` with optional hooks. Returns
/// the app's result. This is the "unplugged deployment" entry point; the
/// richer launcher (checkpoint/restart loops, mode selection, adaptation)
/// lives in `ppar-adapt`.
pub fn run_sequential<R>(
    plan: Arc<Plan>,
    ckpt: Option<Arc<dyn CkptHook>>,
    adapt: Option<Arc<dyn AdaptHook>>,
    app: impl FnOnce(&Ctx) -> R,
) -> R {
    run_on(Arc::new(SeqEngine), plan, ckpt, adapt, |ctx| {
        let out = app(ctx);
        ctx.finish();
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Plug, PointSet};
    use crate::sync::{AtomicUsize, Ordering};

    fn seq_ctx(plan: Plan) -> Ctx {
        Ctx::new_root(RunShared::new(
            Arc::new(plan),
            Arc::new(Registry::new()),
            Arc::new(SeqEngine),
            None,
            None,
        ))
    }

    #[test]
    fn empty_plan_constructs_are_identities() {
        let ctx = seq_ctx(Plan::new());
        let trace = crate::sync::Mutex::new(Vec::new());
        ctx.call("m", |_| trace.lock().push("call"));
        ctx.region("r", |_| trace.lock().push("region"));
        ctx.each("l", 0..3, |_, i| assert!(i < 3));
        ctx.critical("c", || trace.lock().push("critical"));
        ctx.single("s", || trace.lock().push("single"));
        ctx.master(|| trace.lock().push("master"));
        ctx.barrier();
        ctx.point("p");
        assert_eq!(ctx.reduce_f64("red", ReduceOp::Sum, 2.5), 2.5);
        assert_eq!(
            *trace.lock(),
            vec!["call", "region", "critical", "single", "master"]
        );
    }

    #[test]
    fn each_runs_every_index_in_order() {
        let ctx = seq_ctx(Plan::new());
        let mut seen = Vec::new();
        let cell = crate::sync::Mutex::new(&mut seen);
        ctx.each("l", 2..7, |_, i| cell.lock().push(i));
        assert_eq!(seen, vec![2, 3, 4, 5, 6]);
    }

    #[test]
    fn call_ret_returns_value() {
        let ctx = seq_ctx(Plan::new());
        assert_eq!(ctx.call_ret("m", |_| 42), Some(42));
    }

    #[test]
    fn identity_facts() {
        let ctx = seq_ctx(Plan::new());
        assert_eq!(ctx.worker(), 0);
        assert_eq!(ctx.num_workers(), 1);
        assert!(ctx.is_master());
        assert_eq!(ctx.rank(), 0);
        assert_eq!(ctx.num_ranks(), 1);
        assert!(ctx.is_root());
        assert_eq!(ctx.mode(), ExecMode::Sequential);
        let w3 = ctx.for_worker(3);
        assert_eq!(w3.worker(), 3);
        assert!(!w3.is_master());
    }

    #[test]
    fn allocations_register_in_registry() {
        let ctx = seq_ctx(Plan::new());
        let v = ctx.alloc_vec("V", 10, 0.0f64);
        let g = ctx.alloc_grid("G", 2, 2, 1.0f64);
        let c = ctx.alloc_value("C", 5i64);
        v.set(0, 1.0);
        g.set(0, 0, 2.0);
        c.set(6);
        assert_eq!(ctx.registry().names(), vec!["C", "G", "V"]);
        assert!(ctx.registry().dist("V").is_ok());
        assert!(ctx.registry().dist("G").is_ok());
        assert!(ctx.registry().dist("C").is_err());
    }

    struct CountingHook {
        points: AtomicUsize,
        skips: AtomicUsize,
    }

    impl CkptHook for CountingHook {
        fn at_point(&self, _ctx: &Ctx, _name: &str) -> PointDirective {
            self.points.fetch_add(1, Ordering::SeqCst);
            PointDirective::Continue
        }
        fn skip_method(&self, ctx: &Ctx, name: &str) -> bool {
            let skip = ctx.plan().is_ignorable(name);
            if skip {
                self.skips.fetch_add(1, Ordering::SeqCst);
            }
            skip
        }
        fn replaying(&self) -> bool {
            true
        }
        fn take_snapshot(&self, _ctx: &Ctx) -> Result<()> {
            Ok(())
        }
        fn load_snapshot(&self, _ctx: &Ctx) -> Result<Installed> {
            Ok(Installed::Root)
        }
        fn sync_thread_clock(&self, _count: u64) {}
        fn count(&self) -> u64 {
            self.points.load(Ordering::SeqCst) as u64
        }
        fn finish(&self, _ctx: &Ctx) -> Result<()> {
            Ok(())
        }
    }

    #[test]
    fn safe_points_route_to_hook_and_ignorables_skip() {
        let plan = Plan::new()
            .plug(Plug::SafePoints {
                points: PointSet::Named(vec!["sp".into()]),
                every: 0,
            })
            .plug(Plug::Ignorable {
                method: "heavy".into(),
            });
        let hook = Arc::new(CountingHook {
            points: AtomicUsize::new(0),
            skips: AtomicUsize::new(0),
        });
        let shared = RunShared::new(
            Arc::new(plan),
            Arc::new(Registry::new()),
            Arc::new(SeqEngine),
            Some(hook.clone()),
            None,
        );
        let ctx = Ctx::new_root(shared);
        let mut heavy_ran = false;
        ctx.call("heavy", |_| heavy_ran = true);
        assert!(!heavy_ran, "ignorable method must be skipped in replay");
        let mut light_ran = false;
        ctx.call("light", |_| light_ran = true);
        assert!(light_ran);
        ctx.point("sp");
        ctx.point("sp");
        ctx.point("not_safe"); // not in the safe set -> not counted
        assert_eq!(hook.count(), 2);
        assert_eq!(hook.skips.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn run_sequential_returns_app_result() {
        let result = run_sequential(Arc::new(Plan::new()), None, None, |ctx| {
            let v = ctx.alloc_vec("data", 8, 1.0f64);
            let mut sum = 0.0;
            ctx.each("sum", 0..v.len(), |_, i| {
                // sequential: safe to accumulate through a cell
                v.set(i, v.get(i) * 2.0);
            });
            for i in 0..v.len() {
                sum += v.get(i);
            }
            sum
        });
        assert_eq!(result, 16.0);
    }
}
