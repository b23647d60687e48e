//! Checkpoint/restore of the SMC filter with its in-flight task graph:
//! kill at the resampling safe point, restart, and match the uninterrupted
//! run bitwise — over the on-disk store *and* over the in-memory hand-off
//! of a live reshape (`ppar_ckpt::Handoff`: the predecessor's frozen cells).

use std::sync::{Arc, Mutex};

use ppar_adapt::{launch, launch_live, AdaptationController, AppStatus, Deploy, ResourceTimeline};
use ppar_core::ctx::run_sequential;
use ppar_core::mode::ExecMode;
use ppar_core::plan::Plan;
use ppar_smc::{plan_ckpt, plan_task, smc_pluggable, SmcConfig, SmcResult};

/// Safe-point crossings in these tests run the global graph-quiescence
/// check, which would observe another test's mid-flight scheduler as a
/// (correct but unwanted) violation; serialize the checkpoint tests.
static SERIAL: Mutex<()> = Mutex::new(());

fn cfg() -> SmcConfig {
    let mut c = SmcConfig::new(96, 10);
    c.chunk = 8; // 12 tasks: enough frontier structure to checkpoint
    c
}

fn reference() -> SmcResult {
    run_sequential(Arc::new(Plan::new()), None, None, |ctx| {
        smc_pluggable(ctx, &cfg())
    })
}

fn assert_bitwise(got: &SmcResult, want: &SmcResult, what: &str) {
    assert_eq!(got.steps_done, want.steps_done, "{what}: steps_done");
    assert_eq!(got.checksum, want.checksum, "{what}: particle checksum");
    assert_eq!(
        got.loglik.to_bits(),
        want.loglik.to_bits(),
        "{what}: loglik"
    );
    assert_eq!(got.mean.to_bits(), want.mean.to_bits(), "{what}: mean");
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("ppar_smc_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Sequential disk crash/restart: snapshot every 4 resampling points, kill
/// right after crossing point 7 (mid-resample), restart, bitwise-match.
#[test]
fn seq_crash_at_resample_restarts_bitwise() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmpdir("seq");
    let want = reference();

    let plan = plan_ckpt(4);
    let report = launch(&Deploy::Seq, plan.clone(), Some(&dir), None, |ctx| {
        let mut c = cfg();
        c.fail_after = Some(7);
        (AppStatus::Crashed, smc_pluggable(ctx, &c))
    })
    .unwrap();
    assert!(
        report.stats.unwrap().snapshots_taken >= 1,
        "crashed run must have snapshotted before the kill"
    );
    assert!(report.results[0].1.steps_done < cfg().steps);

    let report = launch(&Deploy::Seq, plan, Some(&dir), None, |ctx| {
        (AppStatus::Completed, smc_pluggable(ctx, &cfg()))
    })
    .unwrap();
    assert!(report.replayed, "restart must arm replay");
    assert_bitwise(&report.results[0].1, &want, "seq restart");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Task-engine disk crash/restart: 4 stealing workers, killed mid-resample;
/// the restored frontier and particle cloud resume to a bitwise-identical
/// result under fresh (different) stolen schedules.
#[test]
fn task_engine_crash_at_resample_restarts_bitwise() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmpdir("task");
    let want = reference();
    let deploy = Deploy::Task {
        workers: 4,
        max_workers: 4,
    };
    let plan = || plan_task().merge(plan_ckpt(4));

    let outcome = launch(&deploy, plan(), Some(&dir), None, |ctx| {
        let mut c = cfg();
        c.fail_after = Some(7);
        (AppStatus::Crashed, smc_pluggable(ctx, &c))
    })
    .unwrap();
    assert!(!outcome.completed());
    assert!(outcome.stats.as_ref().unwrap().snapshots_taken >= 1);

    let outcome = launch(&deploy, plan(), Some(&dir), None, |ctx| {
        (AppStatus::Completed, smc_pluggable(ctx, &cfg()))
    })
    .unwrap();
    assert!(outcome.completed());
    assert!(outcome.replayed, "restart must arm replay");
    assert_bitwise(&outcome.results[0].1, &want, "task-engine restart");

    let _ = std::fs::remove_dir_all(&dir);
}

/// In-memory hand-off: a task-engine session that cannot widen in place
/// (target 6 > max 3) escalates at a resampling crossing, freezes the
/// frontier + particle state into a hand-off, and resumes on a wider task
/// team — no disk, one relaunch, bitwise-identical.
#[test]
fn task_engine_hands_off_through_mem_transport_bitwise() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let want = reference();
    let controller =
        AdaptationController::with_timeline(ResourceTimeline::new().at(3, ExecMode::smp(6)));
    let outcome = launch_live(
        &Deploy::Task {
            workers: 2,
            max_workers: 3,
        },
        plan_task().merge(plan_ckpt(0)),
        None, // disk-free: the successor reads the predecessor's frozen cells
        controller,
        |ctx| (AppStatus::Completed, smc_pluggable(ctx, &cfg())),
    )
    .unwrap();
    assert!(outcome.completed());
    assert_eq!(outcome.launches, 2, "one escalated relaunch");
    assert_eq!(outcome.reshapes.len(), 1, "exactly one mode switch");
    assert_eq!(outcome.reshapes[0].0, ExecMode::smp(6));
    assert_bitwise(&outcome.results[0].1, &want, "mem hand-off");
}
