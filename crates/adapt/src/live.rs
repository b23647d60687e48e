//! Live in-place reshape: run-time adaptation with no process restart.
//!
//! The classic path (Fig. 6 of the paper) adapts by *restart*: serialize to
//! disk, tear the deployment down, relaunch under the new mode and replay.
//! [`launch`] given a controller turns that into an in-process protocol
//! built on the pluggable checkpoint transport ([`ppar_ckpt::transport`]):
//!
//! 1. the run starts under the initial [`Deploy`], every element hooked to
//!    a checkpoint module — any module may freeze a hand-off;
//! 2. a reshape request lands at a safe-point crossing. If the live engine
//!    can realise it in place (`smp4 -> smp8` team retarget, `hyb2x2 ->
//!    hyb2x4` per-element team resize — the §IV.B expansion/contraction
//!    protocol over the shared `ppar_core::runtime`), it does, and no
//!    hand-off happens;
//! 3. otherwise the crossing **escalates**: the quiesced engine gathers the
//!    state at the root, whose module freezes it — it keeps the safe-data
//!    cells themselves, a [`ppar_ckpt::Handoff`], and encodes no record —
//!    and every line of execution leaves with
//!    [`ppar_core::runtime::Exit::Reshape`] — the same typed exit a
//!    drained worker and a peer fault take, raised without the panic hook
//!    and caught by the launcher — so nothing writes those cells again;
//! 4. the launcher takes the hand-off from the root's module, retargets the
//!    deployment ([`deploy_for_mode`], same process!), arms the hand-off as
//!    the **resume** source of every successor element
//!    (`CheckpointModule::arm_resume`, letting go of it), and relaunches
//!    the application closure; replay runs with ignorable methods skipped
//!    and, at the hand-off's safe point, every element installs its own
//!    share straight from the predecessor's cells — no scatter follows —
//!    and those cells are freed with the last load.
//!
//! No process exits and no disk is touched by the mode switch itself;
//! periodic checkpoints keep flowing to the on-disk store when a checkpoint
//! directory is configured, so a real crash mid-session still restarts from
//! disk. Without a directory a session has no medium at all: its modules
//! count safe points and carry hand-offs, and a plan that would snapshot
//! is refused.

use std::path::Path;
use std::sync::Arc;

use ppar_core::ctx::Ctx;
use ppar_core::error::Result;
use ppar_core::mode::ExecMode;
use ppar_core::plan::Plan;
use ppar_dsm::SpmdConfig;

use crate::controller::AdaptationController;
use crate::launcher::{launch, AppStatus, Deploy, LaunchOutcome};

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

/// [`launch`] with a controller: the live-reshape session under its older
/// name, kept for the callers that still use it. A `Deploy::Seq` initial deployment accepts no reshapes (the strict
/// sequential engine never polls the controller) — use
/// `Deploy::Smp { threads: 1, .. }` for the adaptive sequential end of the
/// spectrum.
pub fn launch_live<R: Send>(
    initial: &Deploy,
    plan: Plan,
    ckpt_dir: Option<&Path>,
    controller: Arc<AdaptationController>,
    app: impl Fn(&Ctx) -> (AppStatus, R) + Sync,
) -> Result<LaunchOutcome<R>> {
    launch(initial, plan, ckpt_dir, Some(controller), app)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppar_ckpt::hook::CheckpointModule;
    use ppar_core::ctx::{CkptHook, RunShared, SeqEngine};
    use ppar_core::error::PparError;
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
        let handoff = Arc::new(handoff);
        for module in &successor {
            module.arm_resume(handoff.clone());
        }
        drop(handoff);
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
