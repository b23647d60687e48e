//! Hybrid-deployment smoke tests: `Deploy::Hybrid` runs, checkpoints,
//! crashes and restarts — in hybrid mode and across modes (master-collected
//! snapshots are mode independent).

use ppar_adapt::{launch, AdaptationController, AppStatus, Deploy, ResourceTimeline};
use ppar_core::mode::ExecMode;
use ppar_dsm::SpmdConfig;
use ppar_jgf::sor::pluggable::{plan_ckpt, plan_hybrid, plan_smp, sor_pluggable};
use ppar_jgf::sor::{sor_seq, SorParams};

fn params() -> SorParams {
    SorParams::new(33, 8)
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("ppar_hyb_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn hybrid(ranks: usize, threads: usize) -> Deploy {
    Deploy::hybrid(SpmdConfig::instant(ranks), threads)
}

#[test]
fn hybrid_deploy_tag() {
    assert_eq!(hybrid(2, 4).tag(), "hyb2x4");
}

#[test]
fn hybrid_run_completes_and_matches_reference() {
    let reference = sor_seq(&params());
    let outcome = launch(&hybrid(2, 2), plan_hybrid(), None, None, |ctx| {
        (AppStatus::Completed, sor_pluggable(ctx, &params()))
    })
    .unwrap();
    assert!(outcome.completed());
    assert_eq!(outcome.results.len(), 2);
    assert_eq!(outcome.results[0].1.checksum, reference.checksum);
}

#[test]
fn hybrid_checkpoint_crash_restart_matches_reference() {
    let reference = sor_seq(&params());
    let dir = tmpdir("ckpt");
    let plan = || plan_hybrid().merge(plan_ckpt(3));

    // Run 1: snapshot every 3 iterations, crash after 5 (snapshot at 3).
    let crash_params = SorParams {
        fail_after: Some(5),
        ..params()
    };
    let outcome = launch(&hybrid(2, 2), plan(), Some(&dir), None, |ctx| {
        (AppStatus::Crashed, sor_pluggable(ctx, &crash_params))
    })
    .unwrap();
    assert!(!outcome.completed());
    let stats = outcome.stats.expect("rank-0 checkpoint stats");
    assert!(stats.snapshots_taken >= 1, "snapshot at iteration 3");

    // Run 2: restart in hybrid mode, replay to the snapshot, finish live.
    let outcome = launch(&hybrid(2, 2), plan(), Some(&dir), None, |ctx| {
        (AppStatus::Completed, sor_pluggable(ctx, &params()))
    })
    .unwrap();
    assert!(outcome.replayed, "second launch must arm replay");
    assert!(outcome.completed());
    assert_eq!(
        outcome.results[0].1.checksum, reference.checksum,
        "hybrid restart must reproduce the sequential result"
    );
    let stats = outcome.stats.expect("stats");
    // The region cursor fast-forwards the replay to the snapshot's loop
    // iteration: only the bounded tail (one safe point) is re-visited
    // instead of the whole history up to the target.
    assert_eq!(stats.replayed_points, 1);
    assert_eq!(stats.resumed_at_point, 2, "jumped to clock 2, target 3");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hybrid_checkpoint_restarts_on_smp_team() {
    // Master-collected data is mode independent: a snapshot taken by a
    // 2x2 hybrid aggregate restarts on a plain 4-thread team.
    let reference = sor_seq(&params());
    let dir = tmpdir("cross");
    let crash_params = SorParams {
        fail_after: Some(5),
        ..params()
    };
    launch(
        &hybrid(2, 2),
        plan_hybrid().merge(plan_ckpt(3)),
        Some(&dir),
        None,
        |ctx| (AppStatus::Crashed, sor_pluggable(ctx, &crash_params)),
    )
    .unwrap();

    let outcome = launch(
        &Deploy::Smp {
            threads: 4,
            max_threads: 4,
        },
        plan_smp().merge(plan_ckpt(3)),
        Some(&dir),
        None,
        |ctx| (AppStatus::Completed, sor_pluggable(ctx, &params())),
    )
    .unwrap();
    assert!(outcome.replayed);
    assert!(outcome.completed());
    assert_eq!(outcome.results[0].1.checksum, reference.checksum);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn plain_launch_applies_a_team_reshape_within_the_hybrid_headroom() {
    // `max_threads` is in-place headroom under plain `launch` too: the
    // controller reaches every rank, and a scripted hyb2x2 -> hyb2x4 request
    // is applied at the crossing instead of being dropped.
    let reference = sor_seq(&params());
    let controller =
        AdaptationController::with_timeline(ResourceTimeline::new().at(3, ExecMode::hybrid(2, 4)));
    let deploy = Deploy::Hybrid {
        cfg: SpmdConfig::instant(2),
        threads: 2,
        max_threads: 4,
    };
    let plan = plan_hybrid().merge(plan_ckpt(0));
    let outcome = launch(&deploy, plan, None, Some(controller.clone()), |ctx| {
        let result = sor_pluggable(ctx, &params());
        (AppStatus::Completed, (result, ctx.mode()))
    })
    .unwrap();
    assert!(outcome.completed());
    // The root holds the collected grid.
    let root = &outcome.results[0].1 .0;
    assert_eq!(root.checksum.to_bits(), reference.checksum.to_bits());
    for (_, (_, mode)) in &outcome.results {
        assert_eq!(*mode, ExecMode::hybrid(2, 4), "the run ended reshaped");
    }
    assert_eq!(controller.history(), vec![(3, ExecMode::hybrid(2, 4))]);
}
