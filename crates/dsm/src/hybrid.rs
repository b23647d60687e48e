//! The rank engine: distributed aggregate elements, each running a local
//! thread team (§III.A's hybrid composition; `ExecMode::Hybrid`) — and, at
//! a team fixed at one, the pure distributed deployment
//! (`ExecMode::Distributed`): one execution model at different widths.
//!
//! One `HybridEngine` instance runs per aggregate element, simulated or a
//! real process. It composes the two existing runtimes instead of
//! re-implementing either:
//!
//! * rank-level behaviour (plan-driven scatter/gather/broadcast/halo
//!   updates, the two distributed checkpoint strategies) delegates to the
//!   element's [`DsmEngine`];
//! * team-level behaviour (fork/join over persistent workers, work-sharing
//!   claims, safe-point quiescing) comes from the shared
//!   [`ppar_core::runtime`] layer via [`ParallelEngine`] — the *same*
//!   barrier, chunk-claiming and dispatch code the pure shared-memory
//!   engine runs, so the hybrid's local lines of execution claim from the
//!   same cache-line-padded cursors.
//!
//! Work-shared loops compose both axes: a `DistFor` plug restricts the
//! iteration space to the element's owned sub-ranges, and a `For` plug
//! work-shares those sub-ranges across the local team (claimed dynamically
//! when the schedule asks for it). Rank-level collectives inside a live
//! region are *quiesced*: the team aligns on a barrier, worker 0 performs
//! the collective, and a second barrier releases the team — the same
//! bracket §IV.A prescribes for checkpoint saves.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use ppar_core::ctx::{CkptHook, Ctx, Engine};
use ppar_core::error::Result;
use ppar_core::mode::ExecMode;
use ppar_core::partition::owned_ranges;
use ppar_core::plan::ReduceOp;
use ppar_core::replay;
use ppar_core::runtime::{leave, Exit, ParallelEngine, TeamRuntime};
use ppar_core::sync::Mutex;

use crate::collective::Endpoint;
use crate::engine::DsmEngine;

/// Cached owned sub-ranges of one `DistFor`-aligned loop, revalidated
/// against the field length and the announced loop range (every team worker
/// asks at every loop encounter; the ownership only changes if the field is
/// re-registered with a different length).
struct CachedOwned {
    len: usize,
    range: Range<usize>,
    ranges: Arc<[Range<usize>]>,
}

/// Per-element engine for hybrid (distributed × shared-memory) execution.
pub struct HybridEngine {
    dsm: Arc<DsmEngine>,
    rt: TeamRuntime,
    owned_cache: Mutex<HashMap<String, CachedOwned>>,
}

impl HybridEngine {
    /// Engine for one aggregate element running a local team of `threads`
    /// (no expansion headroom).
    pub fn new(ep: Endpoint, threads: usize) -> Arc<HybridEngine> {
        HybridEngine::with_headroom(ep, threads, threads)
    }

    /// Engine whose local team starts at `threads` and can be reshaped in
    /// place up to `max_threads` (run-time adaptation of the hybrid's
    /// thread axis, e.g. `hyb2x2 -> hyb2x4`, reusing the §IV.B
    /// expansion/contraction protocol per element). `max_threads == 1`
    /// is the distributed deployment: the engine reports
    /// `ExecMode::Distributed` and every record it writes is tagged
    /// `distP`.
    pub fn with_headroom(ep: Endpoint, threads: usize, max_threads: usize) -> Arc<HybridEngine> {
        Arc::new(HybridEngine {
            dsm: DsmEngine::new(ep),
            rt: TeamRuntime::new(threads, max_threads),
            owned_cache: Mutex::new(HashMap::new()),
        })
    }

    fn ep(&self) -> &Endpoint {
        self.dsm.endpoint()
    }

    /// Run a rank-level operation exactly once per element, quiesced within
    /// the local team: the team aligns, worker 0 performs the (possibly
    /// collective) operation, and the team re-aligns before proceeding.
    fn quiesced_rank(&self, ctx: &Ctx, f: impl FnOnce()) {
        if self.rt.in_region() {
            self.rt.team_barrier();
            if ctx.worker() == 0 {
                f();
            }
            self.rt.team_barrier();
        } else {
            // Between regions only one line of execution runs per element.
            f();
        }
    }
}

impl ParallelEngine for HybridEngine {
    fn rt(&self) -> &TeamRuntime {
        &self.rt
    }

    fn reshape_team_size(&self, mode: ExecMode) -> Option<usize> {
        match mode {
            // Same aggregate size, different local team within headroom:
            // resize every element's team in place (the §IV.B
            // expansion/contraction protocol runs per element over the
            // shared runtime). A team size beyond the headroom escalates
            // instead of being silently clamped — a relaunch can honour it.
            ExecMode::Hybrid {
                processes,
                threads_per_process,
            } if processes == self.ep().nranks()
                && threads_per_process <= self.rt.max_threads() =>
            {
                Some(threads_per_process.max(1))
            }
            // hyb -> dist with the same aggregate: local teams contract to
            // one line of execution per element.
            ExecMode::Distributed { processes } if processes == self.ep().nranks() => Some(1),
            // A different aggregate size or engine family escalates (live
            // hand-off relaunch, or checkpoint/restart without one).
            _ => None,
        }
    }

    fn handoff_collect(&self, ctx: &Ctx, ck: &Arc<dyn CkptHook>) {
        // Master-collect rules for the hand-off: partitioned safe data
        // gathers at the root, whose cells then hold the one
        // mode-independent master state it hands off. Exactly one line per
        // element runs this (the crossing leader), so the rank collectives
        // pair up across the aggregate.
        let plan = ctx.plan();
        for field in plan.safe_data() {
            if plan.field_partition(field).is_some() {
                self.dsm.gather_field(ctx, field);
            }
        }
        if self.ep().rank() == 0 {
            ck.handoff_snapshot(ctx).expect("live hand-off failed");
        }
        // Align the aggregate before anyone unwinds: no element may tear
        // down its run while the root still captures.
        self.ep().barrier();
    }

    fn point_updates(&self, ctx: &Ctx, name: &str) {
        let plan = ctx.plan();
        let replaying = ctx.ckpt_hook().map(|ck| ck.replaying()).unwrap_or(false);
        if replaying || plan.updates_at(name).is_empty() {
            // During restart replay all elements replay symmetrically and
            // the restore reinstalls everything, exactly as in pure
            // distributed mode.
            return;
        }
        self.quiesced_rank(ctx, || {
            for (field, action) in plan.updates_at(name) {
                self.dsm.apply_update(ctx, field, *action);
            }
        });
    }

    fn snapshot_quiesced(&self, ctx: &Ctx, ck: &Arc<dyn CkptHook>) -> Result<()> {
        // Already bracketed by team barriers (pe_point); worker 0 runs the
        // rank-level strategy (gathers / aggregate barriers / save).
        if ctx.worker() == 0 {
            self.dsm.snapshot_strategy(ctx, ck)?;
        }
        Ok(())
    }

    fn load_quiesced(&self, ctx: &Ctx, ck: &Arc<dyn CkptHook>) -> Result<()> {
        if ctx.worker() == 0 {
            self.dsm.load_strategy(ctx, ck)?;
        }
        Ok(())
    }

    fn combine_across_ranks(&self, _name: &str, op: ReduceOp, value: f64) -> f64 {
        self.ep().allreduce_f64(op, value)
    }

    fn pe_barrier(&self, ctx: &Ctx) {
        // Barriers in hybrid mode are aggregate-wide, matching the pure
        // distributed engine's reading of the same plug: the local team
        // aligns, worker 0 joins the rank barrier, and the team re-aligns
        // (between regions the single line joins the rank barrier
        // directly).
        if replay::active() {
            return;
        }
        self.quiesced_rank(ctx, || self.ep().barrier());
    }

    fn local_ranges(
        &self,
        ctx: &Ctx,
        name: &str,
        range: &Range<usize>,
    ) -> Option<Arc<[Range<usize>]>> {
        let plan = ctx.plan();
        let field = plan.dist_for_field(name)?;
        let cell = ctx
            .registry()
            .dist(field)
            .expect("DistFor field registered");
        let len = cell.logical_len();
        let mut cache = self.owned_cache.lock();
        if let Some(hit) = cache.get(name) {
            if hit.len == len && hit.range == *range {
                return Some(hit.ranges.clone());
            }
        }
        let partition = plan.field_partition(field).unwrap_or_else(|| {
            panic!("field {field:?} used in a DistFor plug but not declared Partitioned")
        });
        let ranges: Arc<[Range<usize>]> =
            owned_ranges(partition, len, self.ep().nranks(), self.ep().rank())
                .into_iter()
                .map(|owned| owned.start.max(range.start)..owned.end.min(range.end))
                .filter(|r| r.start < r.end)
                .collect();
        cache.insert(
            name.to_string(),
            CachedOwned {
                len,
                range: range.clone(),
                ranges: ranges.clone(),
            },
        );
        Some(ranges)
    }
}

impl Engine for HybridEngine {
    fn mode(&self) -> ExecMode {
        let processes = self.ep().nranks();
        if self.rt.max_threads() == 1 {
            return ExecMode::Distributed { processes };
        }
        ExecMode::Hybrid {
            processes,
            threads_per_process: self.rt.current_threads(),
        }
    }

    fn team_size(&self) -> usize {
        self.rt.team_size()
    }

    fn rank(&self) -> usize {
        self.ep().rank()
    }

    fn nranks(&self) -> usize {
        self.ep().nranks()
    }

    fn call(&self, ctx: &Ctx, name: &str, body: &mut dyn FnMut(&Ctx)) {
        let plan = ctx.plan();
        let rank = self.ep().rank();
        if !plan.broadcasts_before(name).is_empty() || !plan.scatters_before(name).is_empty() {
            self.quiesced_rank(ctx, || {
                for field in plan.broadcasts_before(name) {
                    self.dsm.broadcast_field(ctx, field);
                }
                for field in plan.scatters_before(name) {
                    self.dsm.scatter_field(ctx, field, 0);
                }
            });
        }
        // Element delegation gates the whole team of other ranks;
        // master-only / single additionally gate non-root ranks (the
        // aggregate analogue: one executor in the whole run).
        let run_on_this_rank = plan.delegated_element(name).is_none_or(|id| rank == id);
        if run_on_this_rank {
            let rank_gated = (plan.is_master_only(name) || plan.is_single(name)) && rank != 0;
            let mut wrapped = |c: &Ctx| {
                if !rank_gated {
                    body(c)
                }
            };
            self.pe_call(ctx, name, &mut wrapped);
        } else {
            // Delegated to another element: skip the body and its team
            // wrapping, but honour the plug's barriers (aggregate-wide) so
            // every rank stays aligned with the delegate.
            let (before, after) = plan.barrier_around(name);
            if before {
                self.pe_barrier(ctx);
            }
            if after {
                self.pe_barrier(ctx);
            }
        }
        if !plan.gathers_after(name).is_empty() || !plan.reduces_after(name).is_empty() {
            self.quiesced_rank(ctx, || {
                for field in plan.gathers_after(name) {
                    self.dsm.gather_field(ctx, field);
                }
                for (field, op) in plan.reduces_after(name) {
                    self.dsm.allreduce_field(ctx, field, *op);
                }
            });
        }
    }

    fn region(&self, ctx: &Ctx, name: &str, body: &(dyn Fn(&Ctx) + Sync)) {
        let plan = ctx.plan();
        // Regions are method join points: the data-movement wrappers apply
        // exactly as for `call` (Fig. 1 wraps `Do()` with ScatterBefore /
        // GatherAfter). They run on the single pre-fork line of execution;
        // a nested region serialises without re-running them.
        let wrap = !self.rt.in_region() && !replay::active();
        if wrap {
            for field in plan.broadcasts_before(name) {
                self.dsm.broadcast_field(ctx, field);
            }
            for field in plan.scatters_before(name) {
                self.dsm.scatter_field(ctx, field, 0);
            }
        }
        self.pe_region(ctx, name, body);
        if wrap {
            for field in plan.gathers_after(name) {
                self.dsm.gather_field(ctx, field);
            }
            for (field, op) in plan.reduces_after(name) {
                self.dsm.allreduce_field(ctx, field, *op);
            }
        }
    }

    fn for_each(
        &self,
        ctx: &Ctx,
        name: &str,
        range: Range<usize>,
        body: &(dyn Fn(&Ctx, usize) + Sync),
    ) {
        self.pe_for_each(ctx, name, range, body);
    }

    fn point(&self, ctx: &Ctx, name: &str) {
        // Failure-detector poll: a compute-bound element may not touch the
        // fabric for a long stretch, so a peer death it has not personally
        // observed is surfaced here, at the next safe point — every line of
        // execution leaves promptly for recovery instead of worker 0
        // discovering the fault deep inside its next collective. Only a
        // resilient fabric ever reports a pending fault (plain runs keep
        // the fail-at-collective behaviour).
        if self.ep().fabric().fault_pending() {
            leave(Exit::Fault);
        }
        self.pe_point(ctx, name);
    }

    fn barrier(&self, ctx: &Ctx) {
        self.pe_barrier(ctx);
    }

    fn critical(&self, ctx: &Ctx, name: &str, body: &mut dyn FnMut()) {
        // Mutual exclusion within the local team; aggregate elements do not
        // share memory, so no cross-rank exclusion is needed (same rule as
        // the pure distributed engine).
        self.pe_critical(ctx, name, body);
    }

    fn single(&self, ctx: &Ctx, name: &str, body: &mut dyn FnMut()) {
        // One executor in the whole aggregate: rank 0's single team worker.
        let rank = self.ep().rank();
        let mut gated = || {
            if rank == 0 {
                body()
            }
        };
        self.pe_single(ctx, name, &mut gated);
    }

    fn master(&self, ctx: &Ctx, body: &mut dyn FnMut()) {
        if self.ep().rank() == 0 {
            self.pe_master(ctx, body);
        }
    }

    fn reduce_f64(&self, ctx: &Ctx, name: &str, op: ReduceOp, value: f64) -> f64 {
        self.pe_reduce(ctx, name, op, value)
    }
}
