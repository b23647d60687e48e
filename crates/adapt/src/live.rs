//! Live in-place reshape: run-time adaptation with no process restart.
//!
//! The classic path (Fig. 6 of the paper) adapts by *restart*: serialize to
//! disk, tear the deployment down, relaunch under the new mode and replay.
//! [`launch_live`] converts that into an in-process protocol built on the
//! pluggable checkpoint transport ([`ppar_ckpt::transport`]):
//!
//! 1. the run starts under the initial [`Deploy`] with the **hand-off**
//!    armed on every element's checkpoint module;
//! 2. a reshape request lands at a safe-point crossing. If the live engine
//!    can realise it in place (`smp4 -> smp8` team retarget, `hyb2x2 ->
//!    hyb2x4` per-element team resize — the §IV.B expansion/contraction
//!    protocol over the shared `ppar_core::runtime`), it does, and no
//!    hand-off happens;
//! 3. otherwise the crossing **escalates**: the quiesced engine gathers the
//!    state at the root, whose module freezes it — it keeps the safe-data
//!    cells themselves, a [`Handoff`], and encodes no record — and every
//!    line of execution leaves with [`Exit::Reshape`] — the same typed exit
//!    a drained worker and a peer fault take, raised without the panic hook
//!    and caught here by [`catch_exit`] — so nothing writes those cells
//!    again;
//! 4. the launcher takes the hand-off from the root's module, retargets the
//!    deployment (same process!), arms the hand-off as the **resume**
//!    source of every successor element (and lets go of it), and
//!    relaunches the application closure; replay runs with ignorable
//!    methods skipped and, at the hand-off's safe point, every element
//!    installs its own share straight from the predecessor's cells — no
//!    scatter follows — and those cells are freed with the last load.
//!
//! No process exits and no disk is touched by the mode switch itself;
//! periodic checkpoints keep flowing to the on-disk store when a checkpoint
//! directory is configured, so a real crash mid-session still restarts from
//! disk — restart remains the fallback behind the unchanged
//! [`crate::launcher`] API. Without a directory a session has no medium at
//! all: its modules count safe points and carry hand-offs, and a plan that
//! would snapshot is refused.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppar_ckpt::hook::{CheckpointModule, CkptStats};
use ppar_ckpt::Handoff;
use ppar_core::ctx::{AdaptHook, Ctx};
use ppar_core::error::{PparError, Result};
use ppar_core::mode::ExecMode;
use ppar_core::plan::Plan;
use ppar_core::runtime::{catch_exit, leave, Exit};
use ppar_dsm::{SpmdConfig, Traffic};

use crate::controller::{AdaptationController, ReshapeKind};
use crate::launcher::{ckpt_failure, round, run_app, AppStatus, Deploy};

/// Outcome of one live session ([`launch_live`]): the final run's results
/// plus the mode switches that were applied by in-memory hand-off.
pub struct LiveOutcome<R> {
    /// Per-rank `(status, result)` pairs of the *final* launch round.
    pub results: Vec<(AppStatus, R)>,
    /// Escalated mode switches, in order (engine-internal in-place
    /// reshapes don't appear here — see
    /// [`AdaptationController::applied`]).
    pub reshapes: Vec<(ExecMode, ReshapeKind)>,
    /// Launch rounds executed (1 = no escalated reshape).
    pub launches: usize,
    /// Did the *initial* round replay a previous on-disk failure?
    pub replayed: bool,
    /// Rank-0 checkpoint statistics of the final round.
    pub stats: Option<CkptStats>,
    /// Network traffic of the final round (distributed and hybrid
    /// deployments; `None` when no fabric was involved), as
    /// [`crate::LaunchOutcome::traffic`] counts it.
    pub traffic: Option<Traffic>,
    /// Wall time of the whole session.
    pub elapsed: Duration,
}

impl<R> LiveOutcome<R> {
    /// Did every rank of the final round complete?
    pub fn completed(&self) -> bool {
        self.results.iter().all(|(s, _)| *s == AppStatus::Completed)
    }
}

/// Map an escalated reshape target onto a deployment, inheriting the
/// simulated-cluster configuration from `template` when the target has
/// distributed structure (fresh single-node topology otherwise).
pub fn deploy_for_mode(mode: ExecMode, template: &Deploy) -> Deploy {
    let cfg_for = |p: usize| -> SpmdConfig {
        match template {
            Deploy::Dist(cfg) | Deploy::Hybrid { cfg, .. } => SpmdConfig { nranks: p, ..*cfg },
            _ => SpmdConfig::instant(p),
        }
    };
    // A task-engine session stays on the task engine across shared-memory
    // retargets: the successor must keep verifying graph quiescence.
    let local = |threads: usize| match template {
        Deploy::Task { .. } => Deploy::Task {
            workers: threads,
            max_workers: threads,
        },
        _ => Deploy::Smp {
            threads,
            max_threads: threads,
        },
    };
    match mode {
        ExecMode::Sequential => local(1),
        ExecMode::SharedMemory { threads } => local(threads),
        ExecMode::Distributed { processes } => Deploy::Dist(cfg_for(processes)),
        ExecMode::Hybrid {
            processes,
            threads_per_process,
        } => Deploy::Hybrid {
            cfg: cfg_for(processes),
            threads: threads_per_process,
            max_threads: threads_per_process,
        },
    }
}

/// Arm one round's modules: each may freeze an escalated reshape into a
/// hand-off, and after a hand-off each resumes from `resume`. The binding
/// is consumed here, so the successor's modules hold the hand-off's only
/// references and the predecessor's cells are freed once every element has
/// loaded them.
fn arm(modules: &[Arc<CheckpointModule>], resume: Option<Arc<Handoff>>) {
    for module in modules {
        module.arm_handoff();
        if let Some(handoff) = &resume {
            module.arm_resume(handoff.clone());
        }
    }
}

/// Launch `app` under `initial` with **live reshape**: run-time adaptations
/// the engine cannot realise in place are applied by an in-memory state
/// hand-off and an in-process relaunch (see the [module docs](self)).
///
/// `ckpt_dir` additionally plugs durable periodic checkpointing (and arms
/// replay if the directory holds a failed run); without it the modules have
/// no medium — they count safe points and carry the hand-off, so even
/// checkpoint-free sessions can reshape live — and a plan that snapshots
/// (`checkpoint_every() > 0`) is refused with `InvalidPlan`. A `Deploy::Seq`
/// initial deployment accepts no reshapes
/// (the strict sequential engine never polls the controller) — use
/// `Deploy::Smp { threads: 1, .. }` for the adaptive sequential end of the
/// spectrum.
pub fn launch_live<R: Send>(
    initial: &Deploy,
    plan: Plan,
    ckpt_dir: Option<&Path>,
    controller: Arc<AdaptationController>,
    app: impl Fn(&Ctx) -> (AppStatus, R) + Sync,
) -> Result<LiveOutcome<R>> {
    let plan = Arc::new(plan);
    let start = Instant::now();
    let mut deploy = initial.clone();
    let mut resume: Option<Arc<Handoff>> = None;
    let mut reshapes: Vec<(ExecMode, ReshapeKind)> = Vec::new();
    let mut replayed = false;

    // A runaway controller (or a target the successor immediately escalates
    // again) must not loop forever.
    const MAX_ROUNDS: usize = 32;
    for round_no in 0..MAX_ROUNDS {
        let nranks = deploy.nranks();

        // Checkpoint modules: durable (directory), or with no medium.
        let modules = match ckpt_dir {
            Some(dir) => CheckpointModule::create_group(dir, &plan, nranks)?,
            None => CheckpointModule::create_group_without_dir(&plan, nranks)?,
        };
        if round_no == 0 {
            replayed = modules[0].will_replay();
        }
        arm(&modules, resume.take());

        let (exits, traffic) = round(&deploy, &plan, &modules, Some(&controller), |ctx| {
            catch_exit(|| run_app(ctx, &app))
        });

        // An escalated crossing unwinds every rank with the same target
        // (SPMD discipline: all elements reach the same crossing and read
        // the same shared decision); a failed restore ends the session.
        match exits
            .into_iter()
            .collect::<std::result::Result<Vec<_>, _>>()
        {
            Err(Exit::Fault) => return Err(ckpt_failure(&modules)),
            Err(exit @ Exit::Drained) => leave(exit),
            Ok(results) => {
                return Ok(LiveOutcome {
                    results,
                    reshapes,
                    launches: round_no + 1,
                    replayed,
                    stats: Some(modules[0].stats()),
                    traffic,
                    elapsed: start.elapsed(),
                });
            }
            Err(Exit::Reshape(mode)) => {
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

#[cfg(test)]
mod tests {
    use super::*;
    use ppar_core::ctx::{CkptHook, RunShared, SeqEngine};
    use ppar_core::plan::{Plug, PointSet};
    use ppar_core::shared::SharedVec;
    use ppar_core::state::Registry;
    use std::sync::Weak;

    /// The predecessor's cells are held by the successor's armed modules
    /// alone once the predecessor is gone: they live until the last element
    /// has loaded them, and not a load longer.
    #[test]
    fn the_predecessors_cells_die_with_the_last_load() {
        let plan = Plan::new()
            .plug(Plug::SafeData { field: "G".into() })
            .plug(Plug::SafePoints {
                points: PointSet::Named(vec!["iter".into()]),
                every: 0,
            });
        let run = |module: &Arc<CheckpointModule>| {
            Ctx::new_root(RunShared::new(
                Arc::new(plan.clone()),
                Arc::new(Registry::new()),
                Arc::new(SeqEngine),
                Some(module.clone()),
                None,
            ))
        };
        let group = |n| CheckpointModule::create_group_without_dir(&plan, n).unwrap();

        // The predecessor freezes its state at crossing 3, then ends.
        let predecessor = group(1);
        arm(&predecessor, None);
        let ctx = run(&predecessor[0]);
        let g = ctx.alloc_vec("G", 4, 7.0f64);
        let frozen: Weak<SharedVec<f64>> = Arc::downgrade(&g);
        for _ in 0..3 {
            ctx.point("iter");
        }
        predecessor[0].handoff_snapshot(&ctx).unwrap();
        let handoff = predecessor[0].take_handoff().expect("frozen at the root");
        drop((ctx, g, predecessor));

        let successor = group(2);
        arm(&successor, Some(Arc::new(handoff)));
        assert!(successor.iter().all(|m| m.replay_target() == 3));
        for (loaded, module) in successor.iter().enumerate() {
            assert!(frozen.upgrade().is_some(), "{loaded} of 2 elements loaded");
            let ctx = run(module);
            let g = ctx.alloc_vec("G", 4, 0.0f64);
            module.load_snapshot(&ctx).unwrap();
            assert_eq!(g.to_vec(), vec![7.0; 4]);
        }
        assert!(frozen.upgrade().is_none(), "freed with the last load");
    }

    /// Without a checkpoint directory a session has no medium: a plan that
    /// would snapshot is refused before anything runs.
    #[test]
    fn a_session_without_a_directory_refuses_a_plan_that_snapshots() {
        let plan = Plan::new()
            .plug(Plug::SafeData { field: "G".into() })
            .plug(Plug::SafePoints {
                points: PointSet::Named(vec!["iter".into()]),
                every: 2,
            });
        let ran = ppar_core::sync::AtomicBool::new(false);
        let outcome = launch_live(
            &Deploy::Seq,
            plan,
            None,
            AdaptationController::new(),
            |_| {
                ran.store(true, ppar_core::sync::Ordering::SeqCst);
                (AppStatus::Completed, ())
            },
        );
        assert!(matches!(outcome, Err(PparError::InvalidPlan(_))));
        assert!(!ran.into_inner(), "nothing ran");
    }
}
