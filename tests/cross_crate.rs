//! Workspace-level integration tests: full checkpoint → kill → restart →
//! finish cycles across execution modes, cross-mode restarts, run-time
//! adaptation under load, and failure injection at every safe point.

use std::sync::Arc;

use ppar_suite::adapt::{
    launch, run_until_complete, AdaptationController, AppStatus, Deploy, ResourceTimeline,
};
use ppar_suite::core::plan::Plan;
use ppar_suite::core::run_sequential;
use ppar_suite::core::ExecMode;
use ppar_suite::dsm::SpmdConfig;
use ppar_suite::jgf::sor::pluggable::{
    plan_ckpt, plan_ckpt_incremental, plan_dist, plan_seq, plan_smp, sor_pluggable,
};
use ppar_suite::jgf::sor::{sor_seq, SorParams};

fn params() -> SorParams {
    SorParams::new(65, 12)
}

fn reference() -> f64 {
    sor_seq(&params()).checksum
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("ppar_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn crash_run(deploy: &Deploy, plan: Plan, dir: &std::path::Path, fail_after: usize) {
    let mut p = params();
    p.fail_after = Some(fail_after);
    launch(deploy, plan, Some(dir), None, move |ctx| {
        (AppStatus::Crashed, sor_pluggable(ctx, &p))
    })
    .expect("crash run");
}

fn finish_run(deploy: &Deploy, plan: Plan, dir: &std::path::Path) -> (f64, bool) {
    let p = params();
    let outcome = launch(deploy, plan, Some(dir), None, move |ctx| {
        (AppStatus::Completed, sor_pluggable(ctx, &p))
    })
    .expect("finish run");
    (outcome.results[0].1.checksum, outcome.replayed)
}

#[test]
fn every_mode_pair_supports_cross_mode_restart() {
    // Snapshot in mode A (master-collect), restart in mode B — all 9 pairs.
    let expected = reference();
    type Mode = (&'static str, Deploy, fn() -> Plan);
    let modes: Vec<Mode> = vec![
        ("seq", Deploy::Seq, plan_seq as fn() -> Plan),
        (
            "smp",
            Deploy::Smp {
                threads: 3,
                max_threads: 3,
            },
            plan_smp as fn() -> Plan,
        ),
        (
            "dist",
            Deploy::Dist(SpmdConfig::instant(3)),
            plan_dist as fn() -> Plan,
        ),
    ];
    for (a_name, a_deploy, a_plan) in &modes {
        for (b_name, b_deploy, b_plan) in &modes {
            let dir = tmpdir(&format!("x_{a_name}_{b_name}"));
            crash_run(a_deploy, a_plan().merge(plan_ckpt(4)), &dir, 7);
            let (checksum, replayed) = finish_run(b_deploy, b_plan().merge(plan_ckpt(4)), &dir);
            assert!(replayed, "{a_name}->{b_name}: restart must replay");
            assert_eq!(
                checksum, expected,
                "{a_name}->{b_name}: cross-mode restart must agree"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn incremental_checkpoint_cross_mode_restart() {
    // Incremental snapshots compose with cross-mode restart: the one
    // patched record is mode-independent like any master snapshot.
    // every=2 -> saves at iterations 2, 4 and 6; crash at 7 restarts from
    // the save at 6.
    let expected = reference();
    type Mode = (&'static str, Deploy, fn() -> Plan);
    let modes: Vec<Mode> = vec![
        ("seq", Deploy::Seq, plan_seq as fn() -> Plan),
        (
            "smp",
            Deploy::Smp {
                threads: 3,
                max_threads: 3,
            },
            plan_smp as fn() -> Plan,
        ),
        (
            "dist",
            Deploy::Dist(SpmdConfig::instant(3)),
            plan_dist as fn() -> Plan,
        ),
    ];
    for k in 0..modes.len() {
        let (a_name, a_deploy, a_plan) = &modes[k];
        let (b_name, b_deploy, b_plan) = &modes[(k + 1) % modes.len()];
        let dir = tmpdir(&format!("inc_{a_name}_{b_name}"));
        crash_run(
            a_deploy,
            a_plan().merge(plan_ckpt_incremental(2, 2)),
            &dir,
            7,
        );
        assert!(
            dir.join("ckpt_master.bin").exists() && !dir.join("ckpt_master_delta_1.bin").exists(),
            "{a_name}: the crash run leaves one record and no delta chain"
        );
        let (checksum, replayed) =
            finish_run(b_deploy, b_plan().merge(plan_ckpt_incremental(2, 2)), &dir);
        assert!(replayed, "{a_name}->{b_name}: restart must replay");
        assert_eq!(
            checksum, expected,
            "{a_name}->{b_name}: incremental cross-mode restart must agree"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn failure_injection_at_every_safe_point() {
    // Crash after every possible iteration; each restart must converge to
    // the reference result.
    let expected = reference();
    for fail_at in 1..=12usize {
        let dir = tmpdir(&format!("inject_{fail_at}"));
        crash_run(&Deploy::Seq, plan_seq().merge(plan_ckpt(3)), &dir, fail_at);
        let (checksum, _) = finish_run(&Deploy::Seq, plan_seq().merge(plan_ckpt(3)), &dir);
        assert_eq!(checksum, expected, "failure at iteration {fail_at}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn repeated_failures_eventually_complete() {
    // Three consecutive crashes, then completion, via the restart driver.
    let dir = tmpdir("repeat");
    let expected = reference();
    let crash_points = [5usize, 8, 11];
    let outcomes = run_until_complete(
        |_attempt| Deploy::Smp {
            threads: 2,
            max_threads: 2,
        },
        &plan_smp().merge(plan_ckpt(2)),
        &dir,
        |ctx| {
            // Crash at successive points on each attempt; the 4th run
            // completes. Which attempt we are on is visible from the replay
            // state: count snapshots on disk via iterations completed.
            let attempt = std::fs::read_to_string(dir.join("attempt.txt"))
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
                .unwrap_or(0);
            std::fs::write(dir.join("attempt.txt"), format!("{}", attempt + 1)).unwrap();
            let mut p = params();
            if attempt < crash_points.len() {
                p.fail_after = Some(crash_points[attempt]);
                let r = sor_pluggable(ctx, &p);
                (AppStatus::Crashed, r)
            } else {
                let r = sor_pluggable(ctx, &p);
                (AppStatus::Completed, r)
            }
        },
        10,
    )
    .expect("must complete");
    assert_eq!(outcomes.len(), 4, "three crashes + one completion");
    assert_eq!(outcomes.last().unwrap().results[0].1.checksum, expected);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn runtime_adaptation_stress_expand_contract_expand() {
    // Reshape three times during one run; the numerical result must be
    // untouched and the history must record all three.
    let expected = reference();
    let controller = AdaptationController::with_timeline(
        ResourceTimeline::new()
            .at(3, ExecMode::smp(6))
            .at(6, ExecMode::smp(2))
            .at(9, ExecMode::smp(4)),
    );
    let p = params();
    let outcome = launch(
        &Deploy::Smp {
            threads: 2,
            max_threads: 8,
        },
        plan_smp().merge(plan_ckpt(0)),
        None,
        Some(controller.clone()),
        move |ctx| (AppStatus::Completed, sor_pluggable(ctx, &p)),
    )
    .expect("launch");
    assert_eq!(outcome.results[0].1.checksum, expected);
    let history = controller.history();
    assert_eq!(history.len(), 3, "three reshapes applied: {history:?}");
    assert_eq!(history[0].1, ExecMode::smp(6));
    assert_eq!(history[1].1, ExecMode::smp(2));
    assert_eq!(history[2].1, ExecMode::smp(4));
}

#[test]
fn adaptation_and_checkpointing_compose() {
    // Snapshot while the team is mid-reshape lifecycle: expand at point 3,
    // snapshot at point 6 (on the larger team), crash at 9, restart fixed.
    let expected = reference();
    let dir = tmpdir("compose");
    {
        let controller =
            AdaptationController::with_timeline(ResourceTimeline::new().at(3, ExecMode::smp(5)));
        let mut p = params();
        p.fail_after = Some(9);
        launch(
            &Deploy::Smp {
                threads: 2,
                max_threads: 5,
            },
            plan_smp().merge(plan_ckpt(6)),
            Some(&dir),
            Some(controller),
            move |ctx| (AppStatus::Crashed, sor_pluggable(ctx, &p)),
        )
        .expect("phase 1");
    }
    let (checksum, replayed) = finish_run(
        &Deploy::Smp {
            threads: 4,
            max_threads: 4,
        },
        plan_smp().merge(plan_ckpt(6)),
        &dir,
    );
    assert!(replayed);
    assert_eq!(checksum, expected);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dist_restart_with_more_and_fewer_ranks() {
    let expected = reference();
    for (from, to) in [(2usize, 6usize), (6, 2), (4, 1), (1, 4)] {
        let dir = tmpdir(&format!("resize_{from}_{to}"));
        crash_run(
            &Deploy::Dist(SpmdConfig::instant(from)),
            plan_dist().merge(plan_ckpt(4)),
            &dir,
            7,
        );
        let (checksum, replayed) = finish_run(
            &Deploy::Dist(SpmdConfig::instant(to)),
            plan_dist().merge(plan_ckpt(4)),
            &dir,
        );
        assert!(replayed, "{from}->{to}");
        assert_eq!(checksum, expected, "{from}P -> {to}P restart");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn pluggable_unplugged_equivalence_under_tracking() {
    // Run the SMP deployment with the disjoint-write tracker enabled: any
    // construct-contract violation in the SOR kernel would panic.
    ppar_suite::core::shared::tracking::enable();
    let p = params();
    let got = ppar_suite::smp::run_smp(Arc::new(plan_smp()), 4, None, None, move |ctx| {
        sor_pluggable(ctx, &p)
    });
    ppar_suite::core::shared::tracking::disable();
    assert_eq!(got.checksum, reference());
}

#[test]
fn sequential_engine_and_team_of_one_agree() {
    let p1 = params();
    let seq = run_sequential(Arc::new(plan_seq()), None, None, move |ctx| {
        sor_pluggable(ctx, &p1)
    });
    let p2 = params();
    let smp1 = ppar_suite::smp::run_smp(Arc::new(plan_smp()), 1, None, None, move |ctx| {
        sor_pluggable(ctx, &p2)
    });
    assert_eq!(seq.checksum, smp1.checksum);
}
