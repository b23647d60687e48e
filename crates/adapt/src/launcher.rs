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
use crate::netrun::{NetConfig, NetSession};

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
    /// This process as rank `cfg.rank` of a real TCP aggregate (`tcpN`),
    /// `cfg` usually from [`NetConfig::from_env`] (see [`crate::netrun`]).
    /// A process aggregate adapts by restart: it takes no controller.
    Tcp(NetConfig),
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

    /// Aggregate elements this process runs (1 without a simulated
    /// fabric).
    fn local_ranks(&self) -> usize {
        match self {
            Deploy::Seq | Deploy::Smp { .. } | Deploy::Task { .. } | Deploy::Tcp(_) => 1,
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
            Deploy::Tcp(cfg) => format!("tcp{}", cfg.nranks),
        }
    }
}

/// Outcome of one launch: the final round's results plus the mode
/// switches that were applied by in-memory hand-off.
pub struct LaunchOutcome<R> {
    /// Per-rank `(status, result)` pairs of the final round (a single entry
    /// for Seq/Smp/Task, and for a `tcp` rank its own).
    pub results: Vec<(AppStatus, R)>,
    /// Did the *initial* round replay a previous on-disk failure?
    pub replayed: bool,
    /// Rank-0 checkpoint statistics of the final round (a `tcp` rank's
    /// own), when a checkpoint module was built (a directory or a
    /// controller was given).
    pub stats: Option<CkptStats>,
    /// Network traffic of the final round (distributed and hybrid
    /// deployments; for a `tcp` rank, what it sent since it connected;
    /// `None` when no fabric was involved). Counted by the same
    /// [`Traffic`] type the real TCP fabric reports, so simulated and
    /// process-backed runs compare directly.
    pub traffic: Option<Traffic>,
    /// Launch rounds executed (1 = no escalated reshape and no in-job
    /// recovery).
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

    /// In-job recovery rounds a `tcp` rank went through (0 = fault-free):
    /// every round that was neither the first nor a hand-off relaunch.
    pub fn recoveries(&self) -> usize {
        self.launches - 1 - self.reshapes.len()
    }
}

/// How a round ended, as the session loop acts on it: every line of
/// execution returned; a peer fault ended it (recover, run another round);
/// an escalated crossing (relaunch under this mode by hand-off).
#[derive(Debug)]
enum Ended<T> {
    Done(T),
    Recover,
    Reshape(ExecMode),
}

/// The one classification of a round's end. A round that left with
/// [`Exit::Fault`] while a peer fault is pending is recovered; with none
/// pending, a save or a load failed — the engine ended the round on every
/// line of execution, and `failure` is the error the failing module kept.
/// Any other exit keeps unwinding.
fn classify<T>(
    ended: std::result::Result<T, Exit>,
    fault_pending: impl FnOnce() -> bool,
    failure: impl FnOnce() -> PparError,
) -> Result<Ended<T>> {
    match ended {
        Ok(done) => Ok(Ended::Done(done)),
        Err(Exit::Fault) if fault_pending() => Ok(Ended::Recover),
        Err(Exit::Fault) => Err(failure()),
        Err(Exit::Reshape(mode)) => Ok(Ended::Reshape(mode)),
        Err(other) => leave(other),
    }
}

/// Why a round ended with [`Exit::Fault`] with no peer fault pending: the
/// save or load that failed, as the module it failed in kept it, or — on a
/// `tcp` rank whose peer it failed on — the aggregate's word that another
/// element failed.
fn failure(modules: &[Arc<CheckpointModule>]) -> PparError {
    let kept = modules.iter().find_map(|m| m.take_failure());
    kept.unwrap_or_else(|| {
        PparError::CorruptCheckpoint(
            "another element of the aggregate failed to save or load its checkpoint".into(),
        )
    })
}

/// One launch round: stand `deploy` up as a running engine stack — one
/// engine per aggregate element this process runs, element `r` hooked to
/// `modules[r]` (none when the slice is empty) and to the controller
/// (itself for one element, its [`AdaptationController::rank_views`] for
/// an aggregate) — and run `per_rank` on every element's root line.
/// Returns the per-rank values in rank order plus the round's network
/// traffic when a fabric was involved. A `tcp` rank runs its one element
/// over `net`, the session's fabric.
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
    net: Option<&NetSession>,
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
        Deploy::Tcp(_) => {
            let net = net.expect("a tcp round runs over its session's fabric");
            (local(net.engine()).0, Some(net.traffic()))
        }
    }
}

/// Launch `app` under `deploy`: the one session loop, for every
/// deployment. `ckpt_dir` plugs durable checkpointing (and arms replay if
/// the directory holds a failed run); `controller` plugs run-time
/// adaptation. A reshape the running engine can realise in place (a team
/// retarget within its headroom) is applied at the crossing; any other
/// escalates and is applied by an in-memory hand-off and an in-process
/// relaunch under [`deploy_for_mode`] (see [`crate::live`]). Without a
/// controller nothing escalates.
///
/// With a controller but no directory the modules have no medium — they
/// count safe points and carry the hand-off — and a plan that snapshots
/// (`checkpoint_every() > 0`) is refused with `InvalidPlan`. With neither,
/// no checkpoint module is built at all. The app returns its status:
/// `Completed` clears the run marker, `Crashed` leaves it for the next
/// launch to detect.
///
/// Under `Deploy::Tcp` the session connects the fabric once; every rank
/// passes the same choice of directory (only rank 0 opens it), and a
/// controller is refused with `InvalidAdaptation` before anything
/// connects. A round a peer fault ended is recovered in the job and run
/// again (see [`crate::netrun`]), which is why `app` is `Fn`.
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
    let mut net = match deploy {
        Deploy::Tcp(_) if controller.is_some() => {
            return Err(PparError::InvalidAdaptation(format!(
                "a {} rank takes no controller: a process aggregate adapts by restart",
                deploy.tag()
            )))
        }
        Deploy::Tcp(cfg) => Some(NetSession::connect(cfg, ckpt_dir)?),
        _ => None,
    };
    let mut deploy = deploy.clone();
    let mut resume: Option<Arc<Handoff>> = None;
    let mut reshapes = Vec::new();
    let mut replayed = false;

    // A runaway controller (or a target the successor immediately escalates
    // again) must not loop forever; nor may a fault storm, which
    // `NetSession::recover` bounds well below this.
    const MAX_ROUNDS: usize = 32;
    for launches in 1..=MAX_ROUNDS {
        let modules = match (&mut net, ckpt_dir, controller) {
            (Some(net), _, _) => net.modules(&plan, ckpt_dir)?,
            (None, Some(dir), _) => {
                CheckpointModule::create_group(dir, &plan, deploy.local_ranks())?
            }
            (None, None, Some(_)) => {
                CheckpointModule::create_group_without_dir(&plan, deploy.local_ranks())?
            }
            (None, None, None) => Vec::new(),
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

        let (exits, traffic) = round(&deploy, &plan, &modules, controller, net.as_ref(), |ctx| {
            catch_exit(|| {
                let (status, result) = app(ctx);
                if status == AppStatus::Completed {
                    // A resilient `tcp` rank confirms the *whole job*
                    // completed before the run marker is cleared and
                    // anyone retires.
                    if let Some(net) = &net {
                        net.confirm_completion();
                    }
                    ctx.finish();
                }
                (status, result)
            })
        });

        // An escalated crossing unwinds every rank with the same target
        // (SPMD discipline: all elements reach the same crossing and read
        // the same shared decision); so does a failed save or restore, and
        // on a `tcp` rank a peer fault.
        let ended = classify(
            exits.into_iter().collect(),
            || net.as_ref().is_some_and(|net| net.fault_pending()),
            || failure(&modules),
        )?;
        match ended {
            Ended::Done(results) => {
                if let Some(net) = net {
                    net.close();
                }
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
            Ended::Recover => {
                let net = net.as_ref().expect("only a tcp rank sees a peer fault");
                net.recover(launches - reshapes.len())?;
            }
            Ended::Reshape(mode) => {
                let Some(controller) = controller else {
                    leave(Exit::Reshape(mode))
                };
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netrun::free_loopback_addr;

    /// What a failed save left on the module.
    fn save_err() -> PparError {
        PparError::Io(std::io::Error::other("the save failed"))
    }

    /// A round's one line of execution that left with `exit`, caught as
    /// the round catches it.
    fn left(exit: Exit) -> std::result::Result<(), Exit> {
        catch_exit(|| leave(exit))
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn a_bug_under_a_pending_fault_propagates_instead_of_being_recovered() {
        let _ = classify(catch_exit(|| panic!("boom")), || true, save_err);
    }

    #[test]
    fn the_fault_exit_is_recovered_only_while_a_fault_is_pending() {
        // With no fault pending, the fault exit is a failed save or load:
        // the round fails with that error, and is not run again.
        let failed = classify(left(Exit::Fault), || false, save_err);
        assert!(matches!(failed, Err(PparError::Io(_))), "{failed:?}");
        let recovered = classify(left(Exit::Fault), || true, save_err);
        assert!(matches!(recovered, Ok(Ended::Recover)), "{recovered:?}");
        let done = classify(Ok(7), || true, save_err);
        assert!(matches!(done, Ok(Ended::Done(7))), "{done:?}");
    }

    #[test]
    fn other_exits_keep_unwinding() {
        let drained = catch_exit(|| classify(left(Exit::Drained), || true, save_err));
        assert_eq!(drained.err(), Some(Exit::Drained));
        let seq = ExecMode::Sequential;
        let reshaped = classify(left(Exit::Reshape(seq)), || true, save_err);
        assert!(
            matches!(reshaped, Ok(Ended::Reshape(m)) if m == seq),
            "{reshaped:?}"
        );
    }

    /// A process aggregate adapts by restart: a `tcp` launch given a
    /// controller is refused before it connects. The test holds the root
    /// address, so rank 0 binding it or rank 1 dialling it would show.
    #[test]
    fn a_tcp_launch_refuses_a_controller_before_it_connects() {
        let root = free_loopback_addr().unwrap();
        let listener = std::net::TcpListener::bind(&root).unwrap();
        listener.set_nonblocking(true).unwrap();
        for rank in 0..2 {
            let mut cfg = NetConfig::new(rank, 2, root.clone());
            cfg.connect_timeout = Duration::from_secs(2);
            let ran = ppar_core::sync::AtomicBool::new(false);
            let out = launch(
                &Deploy::Tcp(cfg),
                Plan::new(),
                None,
                Some(AdaptationController::new()),
                |_| {
                    ran.store(true, ppar_core::sync::Ordering::SeqCst);
                    (AppStatus::Completed, ())
                },
            );
            assert!(
                matches!(out, Err(PparError::InvalidAdaptation(_))),
                "rank {rank}: {:?}",
                out.err()
            );
            assert!(!ran.into_inner(), "rank {rank}: nothing ran");
            let dialled = listener.accept();
            assert!(
                matches!(&dialled, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
                "rank {rank} dialled the root: {dialled:?}"
            );
        }
    }
}
