//! Live in-place reshape: the engine freezes the state at a safe-point
//! crossing, retargets, and reinstalls it from the frozen cells — no
//! process exit, no disk round-trip, no record. These tests pin the
//! acceptance matrix {smp→smp', hyb→hyb', smp→hyb (+hyb→smp)} to bitwise
//! equality with the sequential reference *and* with the restart-based
//! path, for both SOR and MD, and a safe datum with no bytes to lend.

use ppar_adapt::{
    launch, launch_live, AdaptationController, AppStatus, Deploy, ReshapeKind, ResourceTimeline,
};
use ppar_ckpt::CkptTransport;
use ppar_core::ctx::Ctx;
use ppar_core::mode::ExecMode;
use ppar_core::plan::{Plan, Plug};
use ppar_dsm::SpmdConfig;
use ppar_jgf::sor::pluggable::{plan_ckpt, plan_ckpt_incremental, plan_hybrid, sor_pluggable};
use ppar_jgf::sor::{fill_grid, interior_rows, relax_grid_row, sor_seq, SorParams};

fn params() -> SorParams {
    SorParams::new(33, 8)
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("ppar_live_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The one plan used in every mode of a live session: hybrid (= dist + smp
/// plugs, inert where a mode lacks the structure) + checkpointing.
fn live_plan(every: usize) -> ppar_core::plan::Plan {
    plan_hybrid().merge(plan_ckpt(every))
}

fn smp(threads: usize, max_threads: usize) -> Deploy {
    Deploy::Smp {
        threads,
        max_threads,
    }
}

fn hyb(ranks: usize, threads: usize, max_threads: usize) -> Deploy {
    Deploy::Hybrid {
        cfg: SpmdConfig::instant(ranks),
        threads,
        max_threads,
    }
}

#[test]
fn smp_team_grows_in_place_without_relaunch() {
    let reference = sor_seq(&params());
    let controller =
        AdaptationController::with_timeline(ResourceTimeline::new().at(3, ExecMode::smp(4)));
    let outcome = launch_live(&smp(2, 4), live_plan(0), None, controller.clone(), |ctx| {
        (AppStatus::Completed, sor_pluggable(ctx, &params()))
    })
    .unwrap();
    assert!(outcome.completed());
    assert_eq!(outcome.launches, 1, "team retarget needs no relaunch");
    assert!(outcome.reshapes.is_empty());
    assert_eq!(
        outcome.results[0].1.checksum, reference.checksum,
        "smp2 -> smp4 mid-run must stay bitwise sequential"
    );
    let applied = controller.applied();
    assert_eq!(
        applied.len(),
        1,
        "reshape applied exactly once: {applied:?}"
    );
    assert_eq!(applied[0].mode, ExecMode::smp(4));
    assert_eq!(applied[0].kind, ReshapeKind::InPlace);
}

#[test]
fn smp_to_hybrid_reshapes_in_memory() {
    let reference = sor_seq(&params());
    let controller =
        AdaptationController::with_timeline(ResourceTimeline::new().at(3, ExecMode::hybrid(2, 2)));
    let outcome = launch_live(
        &smp(2, 2),
        live_plan(0),
        None, // no checkpoint directory: the whole session is disk-free
        controller.clone(),
        |ctx| (AppStatus::Completed, sor_pluggable(ctx, &params())),
    )
    .unwrap();
    assert!(outcome.completed());
    assert_eq!(outcome.launches, 2, "one escalated relaunch");
    assert_eq!(
        outcome.reshapes,
        vec![(ExecMode::hybrid(2, 2), ReshapeKind::InPlace)]
    );
    assert_eq!(outcome.results.len(), 2, "final round runs 2 ranks");
    assert_eq!(
        outcome.results[0].1.checksum, reference.checksum,
        "smp -> hyb live hand-off must stay bitwise sequential"
    );
    assert_eq!(controller.applied().len(), 1);
}

/// `launch` is the session loop: given a controller, an escalated
/// `smp2 -> dist2` is applied by hand-off and relaunch, bitwise. Without a
/// directory or a controller it builds no checkpoint module at all.
#[test]
fn plain_launch_applies_an_escalated_reshape() {
    let reference = sor_seq(&params());
    let controller =
        AdaptationController::with_timeline(ResourceTimeline::new().at(3, ExecMode::dist(2)));
    let outcome = launch(
        &smp(2, 2),
        live_plan(0),
        None,
        Some(controller.clone()),
        |ctx| (AppStatus::Completed, sor_pluggable(ctx, &params())),
    )
    .unwrap();
    assert!(outcome.completed());
    assert_eq!(outcome.launches, 2, "one escalated relaunch");
    assert_eq!(
        outcome.reshapes,
        vec![(ExecMode::dist(2), ReshapeKind::InPlace)]
    );
    assert_eq!(outcome.results.len(), 2, "the final round runs 2 ranks");
    assert_eq!(
        outcome.results[0].1.checksum.to_bits(),
        reference.checksum.to_bits(),
        "smp2 -> dist2 through launch must stay bitwise sequential"
    );
    assert_eq!(controller.applied().len(), 1);

    let plain = launch(&smp(2, 2), live_plan(0), None, None, |ctx| {
        (AppStatus::Completed, sor_pluggable(ctx, &params()))
    })
    .unwrap();
    assert!(
        plain.stats.is_none(),
        "no directory, no controller: no module"
    );
    assert_eq!((plain.launches, plain.reshapes.len()), (1, 0));
    assert_eq!(
        plain.results[0].1.checksum.to_bits(),
        reference.checksum.to_bits()
    );
}

#[test]
fn hybrid_local_teams_resize_in_place() {
    let reference = sor_seq(&params());
    let controller =
        AdaptationController::with_timeline(ResourceTimeline::new().at(3, ExecMode::hybrid(2, 4)));
    let outcome = launch_live(
        &hyb(2, 2, 4),
        live_plan(0),
        None,
        controller.clone(),
        |ctx| (AppStatus::Completed, sor_pluggable(ctx, &params())),
    )
    .unwrap();
    assert!(outcome.completed());
    assert_eq!(
        outcome.launches, 1,
        "hyb2x2 -> hyb2x4 resizes each element's team in place"
    );
    assert_eq!(
        outcome.results[0].1.checksum, reference.checksum,
        "per-element §IV.B expansion must stay bitwise sequential"
    );
    let applied = controller.applied();
    assert_eq!(applied.len(), 1, "applied exactly once: {applied:?}");
    assert_eq!(applied[0].kind, ReshapeKind::InPlace);
}

#[test]
fn hybrid_to_smp_escalates_in_memory() {
    let reference = sor_seq(&params());
    let controller =
        AdaptationController::with_timeline(ResourceTimeline::new().at(3, ExecMode::smp(4)));
    let outcome = launch_live(&hyb(2, 2, 2), live_plan(0), None, controller, |ctx| {
        (AppStatus::Completed, sor_pluggable(ctx, &params()))
    })
    .unwrap();
    assert!(outcome.completed());
    assert_eq!(outcome.launches, 2);
    assert_eq!(outcome.results.len(), 1, "final round is one smp process");
    assert_eq!(outcome.results[0].1.checksum, reference.checksum);
}

/// The headline acceptance check: the live (in-memory, in-process) reshape
/// and the restart-based reshape of the *same scenario* produce bitwise
/// identical results — and the restart path still works unchanged.
#[test]
fn live_reshape_matches_restart_reshape_bitwise() {
    let reference = sor_seq(&params());
    let switch = 3usize;

    // Live path: smp2 -> hyb2x2 at crossing 3, all in memory.
    let controller = AdaptationController::with_timeline(
        ResourceTimeline::new().at(switch as u64, ExecMode::hybrid(2, 2)),
    );
    let live = launch_live(&smp(2, 2), live_plan(0), None, controller.clone(), |ctx| {
        (AppStatus::Completed, sor_pluggable(ctx, &params()))
    })
    .unwrap();
    assert!(live.completed());

    // Restart path (Fig. 6 style): checkpoint at crossing 3 in smp2, stop,
    // relaunch from disk in hyb2x2.
    let dir = tmpdir("restart_cmp");
    let crash_params = SorParams {
        fail_after: Some(switch),
        ..params()
    };
    let run1 = launch(&smp(2, 2), live_plan(switch), Some(&dir), None, |ctx| {
        (AppStatus::Crashed, sor_pluggable(ctx, &crash_params))
    })
    .unwrap();
    assert!(!run1.completed());
    let run2 = launch(&hyb(2, 2, 2), live_plan(switch), Some(&dir), None, |ctx| {
        (AppStatus::Completed, sor_pluggable(ctx, &params()))
    })
    .unwrap();
    assert!(run2.completed());
    assert!(run2.replayed, "restart path replays from disk");
    controller.confirm_restart(ExecMode::hybrid(2, 2)); // record the fallback kind
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        live.results[0].1.checksum, run2.results[0].1.checksum,
        "live and restart reshape must agree bitwise"
    );
    assert_eq!(live.results[0].1.checksum, reference.checksum);
}

/// MD across the same seam: smp -> hyb live reshape stays bitwise equal to
/// the sequential reference (forces + integration replayed, state handed
/// off in memory).
#[test]
fn md_smp_to_hybrid_live_matches_sequential() {
    use ppar_md::{md_pluggable, plan_ckpt as md_ckpt, plan_hybrid as md_hybrid, MdConfig};
    let cfg = MdConfig::new(64, 10);
    let reference = ppar_core::run_sequential(
        std::sync::Arc::new(ppar_core::plan::Plan::new()),
        None,
        None,
        |ctx| md_pluggable(ctx, &cfg),
    );

    let controller =
        AdaptationController::with_timeline(ResourceTimeline::new().at(4, ExecMode::hybrid(2, 2)));
    let plan = md_hybrid().merge(md_ckpt(0));
    let outcome = launch_live(&smp(2, 2), plan, None, controller, |ctx| {
        (AppStatus::Completed, md_pluggable(ctx, &cfg))
    })
    .unwrap();
    assert!(outcome.completed());
    assert_eq!(outcome.launches, 2);
    assert_eq!(
        outcome.results[0].1.checksum, reference.checksum,
        "MD live reshape must stay bitwise sequential"
    );
    assert_eq!(outcome.results[0].1.kinetic, reference.kinetic);
    assert_eq!(outcome.results[0].1.potential, reference.potential);
}

/// MD hyb2x2 -> hyb2x4 in place (per-element team expansion).
#[test]
fn md_hybrid_team_resize_matches_sequential() {
    use ppar_md::{md_pluggable, plan_ckpt as md_ckpt, plan_hybrid as md_hybrid, MdConfig};
    let cfg = MdConfig::new(64, 10);
    let reference = ppar_core::run_sequential(
        std::sync::Arc::new(ppar_core::plan::Plan::new()),
        None,
        None,
        |ctx| md_pluggable(ctx, &cfg),
    );
    let controller =
        AdaptationController::with_timeline(ResourceTimeline::new().at(4, ExecMode::hybrid(2, 4)));
    let plan = md_hybrid().merge(md_ckpt(0));
    let outcome = launch_live(&hyb(2, 2, 4), plan, None, controller, |ctx| {
        (AppStatus::Completed, md_pluggable(ctx, &cfg))
    })
    .unwrap();
    assert!(outcome.completed());
    assert_eq!(outcome.launches, 1);
    assert_eq!(outcome.results[0].1.checksum, reference.checksum);
}

/// Master delta files in `dir`.
fn deltas_in(dir: &std::path::Path) -> Vec<String> {
    let names = std::fs::read_dir(dir).unwrap();
    let names = names.map(|e| e.unwrap().file_name().to_string_lossy().into_owned());
    names.filter(|n| n.contains("_delta_")).collect()
}

/// Satellite: an incremental save racing a reshape. A crossing that
/// carries a save **and** a pending in-place adaptation must apply both
/// exactly once and leave one consistent record, and no chain.
#[test]
fn an_incremental_save_and_inplace_reshape_share_a_crossing() {
    let reference = sor_seq(&params());
    let dir = tmpdir("gc_race_inplace");
    // Snapshot at every crossing in incremental mode; crossing 4 also
    // carries the reshape.
    let plan = plan_hybrid().merge(plan_ckpt_incremental(1, 2));
    let controller =
        AdaptationController::with_timeline(ResourceTimeline::new().at(4, ExecMode::smp(4)));
    let outcome = launch_live(&smp(2, 4), plan, Some(&dir), controller.clone(), |ctx| {
        (AppStatus::Completed, sor_pluggable(ctx, &params()))
    })
    .unwrap();
    assert!(outcome.completed());
    assert_eq!(outcome.launches, 1, "smp growth is in place");
    assert_eq!(outcome.results[0].1.checksum, reference.checksum);
    assert_eq!(
        controller.applied().len(),
        1,
        "the reshape must not double-apply across the save"
    );
    // The record on disk survived the race: the restore target is the
    // last snapshot (8 iterations -> count 8), and no save wrote a delta.
    let stats = outcome.stats.expect("ckpt stats");
    assert!(stats.snapshots_taken >= 2);
    assert!(deltas_in(&dir).is_empty(), "{:?}", deltas_in(&dir));
    let store = ppar_ckpt::CheckpointStore::new(&dir).unwrap();
    let record = store.get(None, None).unwrap().expect("the master record");
    assert_eq!(record.count, 8);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite, escalated flavour: the crossing that escalates to a live
/// relaunch carries an incremental save; the successor must start its own
/// records (it patches none of the predecessor's) rather than corrupt the
/// predecessor's, and the on-disk restart path must stay valid afterwards.
#[test]
fn incremental_saves_survive_an_escalated_reshape() {
    let reference = sor_seq(&params());
    let dir = tmpdir("gc_race_escalated");
    let plan = plan_hybrid().merge(plan_ckpt_incremental(1, 2));
    // Crossing 3 carries the predecessor's third save, then the escalation.
    let controller =
        AdaptationController::with_timeline(ResourceTimeline::new().at(3, ExecMode::hybrid(2, 2)));
    let outcome = launch_live(&smp(2, 2), plan, Some(&dir), controller, |ctx| {
        (AppStatus::Completed, sor_pluggable(ctx, &params()))
    })
    .unwrap();
    assert!(outcome.completed());
    assert_eq!(outcome.launches, 2);
    assert_eq!(outcome.results[0].1.checksum, reference.checksum);
    // The disk record is consistent after the in-memory relaunch: a cold
    // restart would land on the successor's last snapshot.
    assert!(deltas_in(&dir).is_empty(), "{:?}", deltas_in(&dir));
    let store = ppar_ckpt::CheckpointStore::new(&dir).unwrap();
    assert_eq!(store.get(None, None).unwrap().unwrap().count, 8);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A live session that starts by replaying a previous on-disk failure and
/// *then* reshapes in memory: both recovery paths compose.
#[test]
fn disk_replay_then_live_reshape() {
    let reference = sor_seq(&params());
    let dir = tmpdir("replay_then_live");

    // Run 1: checkpoint every 2, crash after 5 (snapshot at 4).
    let crash_params = SorParams {
        fail_after: Some(5),
        ..params()
    };
    let r1 = launch(&smp(2, 2), live_plan(2), Some(&dir), None, |ctx| {
        (AppStatus::Crashed, sor_pluggable(ctx, &crash_params))
    })
    .unwrap();
    assert!(!r1.completed());

    // Run 2: a live session replays from disk, then escalates to hybrid.
    let controller =
        AdaptationController::with_timeline(ResourceTimeline::new().at(6, ExecMode::hybrid(2, 2)));
    let outcome = launch_live(&smp(2, 2), live_plan(2), Some(&dir), controller, |ctx| {
        (AppStatus::Completed, sor_pluggable(ctx, &params()))
    })
    .unwrap();
    assert!(outcome.completed());
    assert!(outcome.replayed, "round 0 replayed the on-disk failure");
    assert_eq!(outcome.launches, 2);
    assert_eq!(outcome.results[0].1.checksum, reference.checksum);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A team-size target beyond the live engine's headroom must not be
/// silently clamped-and-confirmed: it escalates through the hand-off and
/// the relaunch honours the full size.
#[test]
fn oversized_smp_target_escalates_instead_of_clamping() {
    let reference = sor_seq(&params());
    let controller =
        AdaptationController::with_timeline(ResourceTimeline::new().at(3, ExecMode::smp(4)));
    // max_threads == 2: smp4 cannot be realised in place.
    let outcome = launch_live(&smp(2, 2), live_plan(0), None, controller.clone(), |ctx| {
        (AppStatus::Completed, sor_pluggable(ctx, &params()))
    })
    .unwrap();
    assert!(outcome.completed());
    assert_eq!(outcome.launches, 2, "overshoot must relaunch, not clamp");
    assert_eq!(
        outcome.reshapes,
        vec![(ExecMode::smp(4), ReshapeKind::InPlace)]
    );
    assert_eq!(outcome.results[0].1.checksum, reference.checksum);
    assert_eq!(controller.applied().len(), 1);
}

/// A hand-off moves nothing over the fabric: every successor element
/// installs its share — owned rows plus the halo row the stencil reads —
/// from the one in-memory record, so the final round's traffic is the
/// collect gather (`(n−1)/n` of the state) plus the halo exchanges of the
/// two iterations left after the switch. A post-restore scatter would add
/// another half of the state.
#[test]
fn a_handoff_moves_nothing_over_the_fabric() {
    let params = SorParams::new(256, 8);
    let reference = sor_seq(&params);
    let state = (params.n * params.n * 8) as u64;
    let ranks = 2u64;
    let gather = state * (ranks - 1) / ranks;
    let slack = state / 16;
    for target in [ExecMode::dist(2), ExecMode::hybrid(2, 2)] {
        let controller = AdaptationController::with_timeline(ResourceTimeline::new().at(6, target));
        let outcome = launch_live(&smp(2, 2), live_plan(0), None, controller, |ctx| {
            (AppStatus::Completed, sor_pluggable(ctx, &params))
        })
        .unwrap();
        assert!(outcome.completed());
        assert_eq!(outcome.launches, 2, "{target:?}: one hand-off");
        assert_eq!(
            outcome.results[0].1.checksum.to_bits(),
            reference.checksum.to_bits(),
            "{target:?}: bitwise sequential"
        );
        let bytes = outcome.traffic.expect("the successor has a fabric").bytes();
        assert!(
            (gather..=gather + slack).contains(&bytes),
            "{target:?}: {bytes} fabric bytes, the collect gather is {gather}"
        );
    }
}

/// SOR with one more safe datum, one whose memory is not its encoding: a
/// `ValueCell` the master folds each iteration's corner cell into. The
/// fold is ignorable, so a successor agrees with the sequential run only
/// if the hand-off carries the value (encoded at capture) beside the grid
/// (lent where it lies). The corner row is the root's, which is where the
/// value is read in every mode.
fn sor_with_tally(ctx: &Ctx, p: &SorParams) -> (u64, u64) {
    let g = ctx.alloc_grid("G", p.n, p.n, 0.0f64);
    let tally = ctx.alloc_value("tally", 0u64);
    ctx.call("init_grid", |_| fill_grid(&g, p.seed));
    ctx.region("sor_run", |ctx| {
        ctx.iter_loop("iters", 0..p.iterations, |ctx, _| {
            for color in 0..2 {
                ctx.point("pre_sweep");
                ctx.call("sweep", |ctx| {
                    ctx.each("rows", interior_rows(p.n), |_, i| {
                        relax_grid_row(&g, i, color, p.omega);
                    });
                });
            }
            ctx.call("tally", |ctx| {
                if ctx.is_master() {
                    tally.update(|t| t.rotate_left(7) ^ g.get(1, 1).to_bits());
                }
            });
            ctx.point("iter_end");
            true
        });
    });
    ctx.point("collect");
    (g.sum_f64().to_bits(), tally.get())
}

#[test]
fn a_value_cell_rides_the_handoff_bitwise() {
    let p = params();
    let reference =
        ppar_core::run_sequential(std::sync::Arc::new(Plan::new()), None, None, |ctx| {
            sor_with_tally(ctx, &p)
        });
    assert_eq!(reference.0, sor_seq(&p).checksum.to_bits());
    let plan = || {
        live_plan(0)
            .plug(Plug::SafeData {
                field: "tally".into(),
            })
            .plug(Plug::Ignorable {
                method: "tally".into(),
            })
    };
    let dist2 = Deploy::Dist(SpmdConfig::instant(2));
    for (from, to) in [(smp(2, 2), ExecMode::dist(2)), (dist2, ExecMode::smp(2))] {
        let controller = AdaptationController::with_timeline(ResourceTimeline::new().at(3, to));
        let outcome = launch_live(&from, plan(), None, controller, |ctx| {
            (AppStatus::Completed, sor_with_tally(ctx, &p))
        })
        .unwrap();
        assert!(outcome.completed());
        assert_eq!(outcome.launches, 2, "{to:?}: one hand-off");
        assert_eq!(
            outcome.results[0].1, reference,
            "{to:?}: bitwise sequential"
        );
    }
}
