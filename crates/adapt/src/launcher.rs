//! The multi-mode launcher: deploys one base program sequentially, on a
//! thread team, or on a simulated distributed aggregate — with optional
//! checkpointing and run-time adaptation — and drives crash/restart cycles.
//!
//! Because master-collected checkpoint data is identical in every mode, the
//! launcher can restart a crashed (or deliberately stopped) run **in a
//! different mode** — the paper's adaptation-by-restart (Fig. 6: start on
//! 2 processes, restart on 8). Run-time adaptation (Fig. 7) instead installs
//! an [`crate::controller::AdaptationController`] and reshapes without
//! restarting: [`launch`] is the one in-process session loop, which applies
//! a reshape the engine cannot realise in place by hand-off and relaunch
//! ([`crate::live`]).

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppar_ckpt::hook::{CheckpointModule, CkptStats};
use ppar_ckpt::Handoff;
use ppar_core::ctx::{run_on, AdaptHook, CkptHook, Ctx, Engine, SeqEngine};
use ppar_core::error::{PparError, Result};
use ppar_core::mode::ExecMode;
use ppar_core::plan::Plan;
use ppar_core::runtime::{catch_exit, leave, Exit, TeamEngine};
use ppar_dsm::spmd::{run_ranks, SpmdConfig};
use ppar_dsm::{SimNet, Traffic};

use crate::controller::{AdaptationController, ReshapeKind};
use crate::live::deploy_for_mode;

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

/// Outcome of one launch: the final round's results plus the mode
/// switches that were applied by in-memory hand-off.
pub struct LaunchOutcome<R> {
    /// Per-rank `(status, result)` pairs of the final round (a single entry
    /// for Seq/Smp/Task).
    pub results: Vec<(AppStatus, R)>,
    /// Did the *initial* round replay a previous on-disk failure?
    pub replayed: bool,
    /// Rank-0 checkpoint statistics of the final round, when a checkpoint
    /// module was built (a directory or a controller was given).
    pub stats: Option<CkptStats>,
    /// Network traffic of the final round (distributed and hybrid
    /// deployments; `None` when no fabric was involved). Counted by the
    /// same [`Traffic`] type the real TCP fabric reports, so simulated and
    /// process-backed runs compare directly.
    pub traffic: Option<Traffic>,
    /// Launch rounds executed (1 = no escalated reshape).
    pub launches: usize,
    /// Escalated mode switches, in order (engine-internal in-place
    /// reshapes don't appear here — see
    /// [`AdaptationController::applied`]).
    pub reshapes: Vec<(ExecMode, ReshapeKind)>,
    /// Wall time of the whole launch.
    pub elapsed: Duration,
}

impl<R> LaunchOutcome<R> {
    /// Did every rank of the final round complete?
    pub fn completed(&self) -> bool {
        self.results.iter().all(|(s, _)| *s == AppStatus::Completed)
    }
}

/// Run `app` on `ctx` and announce completion when it reports one.
fn run_app<R>(ctx: &Ctx, app: &impl Fn(&Ctx) -> (AppStatus, R)) -> (AppStatus, R) {
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
fn ckpt_failure(modules: &[Arc<CheckpointModule>]) -> PparError {
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
fn round<T: Send>(
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

/// Launch `app` under `deploy`. `ckpt_dir` plugs durable checkpointing
/// (and arms replay if the directory holds a failed run); `controller`
/// plugs run-time adaptation. A reshape the running engine can realise in
/// place (a team retarget within its headroom) is applied at the crossing;
/// any other escalates and is applied by an in-memory hand-off and an
/// in-process relaunch under [`deploy_for_mode`] (see [`crate::live`]).
/// Without a controller nothing escalates and the session is one round.
///
/// With a controller but no directory the modules have no medium — they
/// count safe points and carry the hand-off — and a plan that snapshots
/// (`checkpoint_every() > 0`) is refused with `InvalidPlan`. With neither,
/// no checkpoint module is built at all. The app returns its status:
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
    let controller = controller.as_ref();
    let start = Instant::now();
    let mut deploy = deploy.clone();
    let mut resume: Option<Arc<Handoff>> = None;
    let mut reshapes = Vec::new();
    let mut replayed = false;

    // A runaway controller (or a target the successor immediately escalates
    // again) must not loop forever.
    const MAX_ROUNDS: usize = 32;
    for launches in 1..=MAX_ROUNDS {
        let nranks = deploy.nranks();
        let modules = match (ckpt_dir, controller) {
            (Some(dir), _) => CheckpointModule::create_group(dir, &plan, nranks)?,
            (None, Some(_)) => CheckpointModule::create_group_without_dir(&plan, nranks)?,
            (None, None) => Vec::new(),
        };
        if launches == 1 {
            replayed = modules.first().is_some_and(|m| m.will_replay());
        }
        // Consumed here, so the successor's modules hold the hand-off's only
        // references and the predecessor's cells are freed once every
        // element has loaded them.
        if let Some(handoff) = resume.take() {
            for module in &modules {
                module.arm_resume(handoff.clone());
            }
        }

        let (exits, traffic) = round(&deploy, &plan, &modules, controller, |ctx| {
            catch_exit(|| run_app(ctx, &app))
        });

        // An escalated crossing unwinds every rank with the same target
        // (SPMD discipline: all elements reach the same crossing and read
        // the same shared decision); a failed save or restore ends the
        // session.
        match (exits.into_iter().collect(), controller) {
            (Ok(results), _) => {
                return Ok(LaunchOutcome {
                    results,
                    replayed,
                    stats: modules.first().map(|m| m.stats()),
                    traffic,
                    launches,
                    reshapes,
                    elapsed: start.elapsed(),
                });
            }
            (Err(Exit::Fault), _) => return Err(ckpt_failure(&modules)),
            (Err(Exit::Reshape(mode)), Some(controller)) => {
                // The on-disk RUNNING marker (when a directory is
                // configured) intentionally stays set across the relaunch:
                // the session is still in flight, and if the process dies
                // mid-switch a cold restart must replay from the last disk
                // snapshot. Safe-point counts are monotone within a
                // session, so the successor's first base promotion can
                // never collide with the live chain's base count.
                //
                // The engines left the request pending (they did not apply
                // it); this relaunch is the application. Confirm before the
                // successor starts so its crossings see a clean controller.
                controller.confirm(mode);
                reshapes.push((mode, ReshapeKind::InPlace));
                // The crossing gathered the state at the root (rank 0 is
                // hooked to `modules[0]`), whose module froze it.
                let handoff = modules[0].take_handoff().ok_or_else(|| {
                    PparError::InvalidAdaptation(format!(
                        "the escalated reshape to {mode} left no hand-off at the root"
                    ))
                })?;
                resume = Some(Arc::new(handoff));
                deploy = deploy_for_mode(mode, &deploy);
            }
            (Err(exit), _) => leave(exit),
        }
    }
    Err(PparError::InvalidAdaptation(format!(
        "live reshape did not converge within {MAX_ROUNDS} relaunches"
    )))
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
