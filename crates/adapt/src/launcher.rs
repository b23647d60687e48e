//! The multi-mode launcher: deploys one base program sequentially, on a
//! thread team, or on a simulated distributed aggregate — with optional
//! checkpointing and run-time adaptation — and drives crash/restart cycles.
//!
//! Because master-collected checkpoint data is identical in every mode, the
//! launcher can restart a crashed (or deliberately stopped) run **in a
//! different mode** — the paper's adaptation-by-restart (Fig. 6: start on
//! 2 processes, restart on 8). Run-time adaptation (Fig. 7) instead installs
//! an [`crate::controller::AdaptationController`] and reshapes without
//! restarting.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppar_ckpt::hook::{CheckpointModule, CkptStats};
use ppar_core::ctx::{run_on, AdaptHook, CkptHook, Ctx, Engine, SeqEngine};
use ppar_core::error::{PparError, Result};
use ppar_core::plan::Plan;
use ppar_core::runtime::{catch_exit, leave, Exit, TeamEngine};
use ppar_dsm::spmd::{run_ranks, SpmdConfig};
use ppar_dsm::{SimNet, Traffic};

use crate::controller::AdaptationController;

/// How the application body ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppStatus {
    /// Ran to completion: the run marker is cleared.
    Completed,
    /// Simulated crash (resource failure): the marker is left in place so the
    /// next launch replays from the last snapshot — exactly what a real
    /// process death would leave behind.
    Crashed,
}

/// A deployment target for one launch.
#[derive(Debug, Clone)]
pub enum Deploy {
    /// Strict sequential execution (no team, not expandable).
    Seq,
    /// Thread team of `threads`, expandable at run time up to `max_threads`.
    /// `Smp { threads: 1, .. }` is the *adaptive sequential* deployment: it
    /// runs alone but can grow when resources arrive.
    Smp {
        /// Initial team size.
        threads: usize,
        /// Expansion headroom.
        max_threads: usize,
    },
    /// Work-stealing task engine (`ppar-task`): a thread team of `workers`
    /// whose safe points additionally verify task-graph quiescence,
    /// expandable at run time up to `max_workers`.
    Task {
        /// Initial team size.
        workers: usize,
        /// Expansion headroom.
        max_workers: usize,
    },
    /// Simulated distributed aggregate.
    Dist(SpmdConfig),
    /// Hybrid: a simulated distributed aggregate whose elements each run a
    /// local thread team (`ExecMode::Hybrid`). Master-collected checkpoint
    /// data stays mode independent, so hybrid runs checkpoint/restart
    /// interchangeably with every other deployment.
    Hybrid {
        /// The simulated cluster and element count.
        cfg: SpmdConfig,
        /// Local team size on each element.
        threads: usize,
        /// In-place reshape headroom for each element's local team (e.g.
        /// `hyb2x2 -> hyb2x4` at a safe-point crossing). Clamped up to
        /// `threads` when smaller.
        max_threads: usize,
    },
}

impl Deploy {
    /// A hybrid deployment with no local-team reshape headroom.
    pub fn hybrid(cfg: SpmdConfig, threads: usize) -> Deploy {
        Deploy::Hybrid {
            cfg,
            threads,
            max_threads: threads,
        }
    }

    /// Aggregate elements this deployment runs (1 without a fabric).
    pub(crate) fn nranks(&self) -> usize {
        match self {
            Deploy::Seq | Deploy::Smp { .. } | Deploy::Task { .. } => 1,
            Deploy::Dist(cfg) | Deploy::Hybrid { cfg, .. } => cfg.nranks,
        }
    }

    /// Short tag for reports.
    pub fn tag(&self) -> String {
        match self {
            Deploy::Seq => "seq".into(),
            Deploy::Smp { threads, .. } => format!("smp{threads}"),
            Deploy::Task { workers, .. } => format!("task{workers}"),
            Deploy::Dist(cfg) => format!("dist{}", cfg.nranks),
            Deploy::Hybrid { cfg, threads, .. } => format!("hyb{}x{}", cfg.nranks, threads),
        }
    }
}

/// Outcome of one launch.
pub struct LaunchOutcome<R> {
    /// Per-rank `(status, result)` pairs (a single entry for Seq/Smp).
    pub results: Vec<(AppStatus, R)>,
    /// Did this launch replay a previous failure?
    pub replayed: bool,
    /// Rank-0 checkpoint statistics, when checkpointing was plugged.
    pub stats: Option<CkptStats>,
    /// Network traffic of the whole launch (distributed and hybrid
    /// deployments; `None` when no fabric was involved). Counted by the
    /// same [`Traffic`] type the real TCP fabric reports, so simulated and
    /// process-backed runs compare directly.
    pub traffic: Option<Traffic>,
    /// Wall time of the whole launch.
    pub elapsed: Duration,
}

impl<R> LaunchOutcome<R> {
    /// Did every rank complete?
    pub fn completed(&self) -> bool {
        self.results.iter().all(|(s, _)| *s == AppStatus::Completed)
    }
}

/// Run `app` on `ctx` and announce completion when it reports one.
pub(crate) fn run_app<R>(ctx: &Ctx, app: &impl Fn(&Ctx) -> (AppStatus, R)) -> (AppStatus, R) {
    let (status, result) = app(ctx);
    if status == AppStatus::Completed {
        ctx.finish();
    }
    (status, result)
}

/// Why a round ended with [`Exit::Fault`]: on an in-process deployment
/// (no element can die) only a failed save or restore raises it — the
/// engine ends the attempt on every line of execution, and the module
/// whose save or load failed keeps the error.
pub(crate) fn ckpt_failure(modules: &[Arc<CheckpointModule>]) -> PparError {
    let failure = modules.iter().find_map(|m| m.take_failure());
    failure.unwrap_or_else(|| {
        PparError::ContractViolation(
            "a line of execution faulted, yet no save or load failed".into(),
        )
    })
}

/// One launch round: stand `deploy` up as a running engine stack — one
/// engine per aggregate element, rank `r` hooked to `modules[r]` (none when
/// the slice is empty) and to the controller (itself for one element, its
/// [`AdaptationController::rank_views`] for an aggregate) — and run
/// `per_rank` on every element's root line. Returns the per-rank values in
/// rank order plus the round's network traffic when a fabric was involved.
///
/// `modules` must hold every element's checkpoint module BEFORE any rank
/// thread starts — the moral equivalent of mpirun synchronising process
/// startup. Creating them lazily inside the rank threads races with a fast
/// root that replays, completes and clears the run marker before a slow
/// rank reads it, leaving the aggregate disagreeing about replay mode.
pub(crate) fn round<T: Send>(
    deploy: &Deploy,
    plan: &Arc<Plan>,
    modules: &[Arc<CheckpointModule>],
    controller: Option<&Arc<AdaptationController>>,
    per_rank: impl Fn(&Ctx) -> T + Sync,
) -> (Vec<T>, Option<Traffic>) {
    let ckpt = |rank: usize| modules.get(rank).map(|m| m.clone() as Arc<dyn CkptHook>);
    let local = |engine: Arc<dyn Engine>| {
        let adapt = controller.map(|c| c.clone() as Arc<dyn AdaptHook>);
        let value = run_on(engine, plan.clone(), ckpt(0), adapt, &per_rank);
        (vec![value], None)
    };
    let aggregate = |cfg: &SpmdConfig, threads: usize, max_threads: usize| {
        let views = controller.map(|c| c.rank_views(cfg.nranks));
        let hooks = |rank: usize| {
            let view = views
                .as_ref()
                .map(|v| v[rank].clone() as Arc<dyn AdaptHook>);
            (ckpt(rank), view)
        };
        // The launcher owns the network so the outcome can report the
        // run's traffic next to its timing (Fig. 5/7 tables).
        let net = SimNet::new(cfg.topology, cfg.nranks, cfg.model);
        let values = run_ranks(
            net.clone(),
            threads,
            max_threads,
            plan.clone(),
            &hooks,
            &per_rank,
        );
        (values, Some(net.traffic()))
    };
    match deploy {
        Deploy::Seq => local(Arc::new(SeqEngine)),
        Deploy::Smp {
            threads,
            max_threads,
        } => local(TeamEngine::new(*threads, *max_threads)),
        Deploy::Task {
            workers,
            max_workers,
        } => local(TeamEngine::with_quiescence(
            *workers,
            *max_workers,
            ppar_task::assert_quiescent,
        )),
        Deploy::Dist(cfg) => aggregate(cfg, 1, 1),
        Deploy::Hybrid {
            cfg,
            threads,
            max_threads,
        } => aggregate(cfg, *threads, *max_threads),
    }
}

/// Launch `app` once under `deploy`. `ckpt_dir` plugs checkpointing (and
/// arms replay if the directory holds a failed run); `controller` plugs
/// run-time adaptation — reshapes the engine can realise in place (a team
/// retarget within its headroom) are applied, anything else needs
/// [`crate::live::launch_live`] or a restart. The app returns its status:
/// `Completed` clears the run marker, `Crashed` leaves it for the next
/// launch to detect.
pub fn launch<R: Send>(
    deploy: &Deploy,
    plan: Plan,
    ckpt_dir: Option<&Path>,
    controller: Option<Arc<AdaptationController>>,
    app: impl Fn(&Ctx) -> (AppStatus, R) + Sync,
) -> Result<LaunchOutcome<R>> {
    let plan = Arc::new(plan);
    let start = Instant::now();
    let modules = match ckpt_dir {
        Some(dir) => CheckpointModule::create_group(dir, &plan, deploy.nranks())?,
        None => Vec::new(),
    };
    let (exits, traffic) = round(deploy, &plan, &modules, controller.as_ref(), |ctx| {
        catch_exit(|| run_app(ctx, &app))
    });
    let results = match exits.into_iter().collect() {
        Ok(results) => results,
        Err(Exit::Fault) => return Err(ckpt_failure(&modules)),
        Err(other) => leave(other),
    };
    let rank0 = modules.first();
    Ok(LaunchOutcome {
        results,
        replayed: rank0.is_some_and(|m| m.will_replay()),
        stats: rank0.map(|m| m.stats()),
        traffic,
        elapsed: start.elapsed(),
    })
}

/// Keep launching until the application completes, switching deployment per
/// attempt via `schedule(attempt)`. Returns each launch's outcome. This is
/// the adaptation-by-restart driver: e.g. `schedule(0) = Dist(2 ranks)`,
/// `schedule(1) = Dist(8 ranks)` reproduces Fig. 6.
pub fn run_until_complete<R: Send>(
    schedule: impl Fn(usize) -> Deploy,
    plan: &Plan,
    ckpt_dir: &Path,
    app: impl Fn(&Ctx) -> (AppStatus, R) + Sync,
    max_attempts: usize,
) -> Result<Vec<LaunchOutcome<R>>> {
    let mut outcomes = Vec::new();
    for attempt in 0..max_attempts {
        let deploy = schedule(attempt);
        let outcome = launch(&deploy, plan.clone(), Some(ckpt_dir), None, &app)?;
        let done = outcome.completed();
        outcomes.push(outcome);
        if done {
            return Ok(outcomes);
        }
    }
    Err(ppar_core::error::PparError::InvalidAdaptation(format!(
        "application did not complete within {max_attempts} attempts"
    )))
}

/// Over-decomposition configuration (Fig. 8 baseline): `of × pe` aggregate
/// elements over-subscribed onto `pe` cores of a single node.
pub fn overdecomposed(pe: usize, of: usize, model: ppar_dsm::NetModel) -> SpmdConfig {
    SpmdConfig {
        topology: ppar_dsm::Topology::single_node(pe),
        nranks: pe * of.max(1),
        model,
    }
}
