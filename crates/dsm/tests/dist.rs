//! Integration tests for the distributed engine: the same base code runs
//! sequentially (empty-ish plan) and distributed (partition + halo + gather
//! plugs), with checkpoint/restart in both strategies and across modes.

use ppar_ckpt::CkptTransport;
use std::sync::Arc;

use ppar_core::ctx::Ctx;
use ppar_core::partition::{FieldDist, Partition};
use ppar_core::plan::{DistCkptStrategy, Plan, Plug, PointSet, ReduceOp, UpdateAction};
use ppar_core::run_sequential;
use ppar_dsm::{run_spmd, run_spmd_plain, SpmdConfig};

const N: usize = 97;
const ITERS: usize = 12;

/// Base code: a 1-D red/black 3-point relaxation. Written once, sequential;
/// all parallel/checkpoint behaviour comes from plans.
fn relax(ctx: &Ctx, fail_after: Option<usize>) -> Vec<f64> {
    let g = ctx.alloc_vec("G", N, 0.0f64);
    let g2 = g.clone();
    ctx.call("init", move |_| {
        g2.copy_in_from_fn(|i| (i % 13) as f64);
    });
    let g3 = g.clone();
    let mut crashed = false;
    ctx.region("Do", move |ctx| {
        for it in 1..=ITERS {
            // Colour 1 (odd cells), reading even neighbours.
            ctx.point("pre_sweep");
            let g4 = g3.clone();
            ctx.call("sweep_odd", move |ctx| {
                ctx.each("cells_odd", 1..N - 1, |_, i| {
                    if i % 2 == 1 {
                        g4.set(i, 0.5 * (g4.get(i - 1) + g4.get(i + 1)));
                    }
                });
            });
            // Colour 2 (even cells), reading updated odd neighbours.
            ctx.point("pre_sweep");
            let g5 = g3.clone();
            ctx.call("sweep_even", move |ctx| {
                ctx.each("cells_even", 1..N - 1, |_, i| {
                    if i % 2 == 0 {
                        g5.set(i, 0.5 * (g5.get(i - 1) + g5.get(i + 1)));
                    }
                });
            });
            ctx.point("iter_end");
            if Some(it) == fail_after {
                return;
            }
        }
    });
    if fail_after.is_some() {
        crashed = true;
    }
    if !crashed {
        ctx.point("done");
    }
    g.to_vec()
}

/// Sequential deployment: no plugs at all.
fn seq_plan() -> Plan {
    Plan::new()
}

/// Distributed deployment: partition G block-wise, halo before each sweep,
/// align loops with the partition, collect at the end.
fn dist_plan() -> Plan {
    Plan::new()
        .plug(Plug::Replicate {
            class: "Relax".into(),
        })
        .plug(Plug::Field {
            field: "G".into(),
            dist: FieldDist::Partitioned(Partition::Block),
        })
        .plug(Plug::UpdateAt {
            point: "pre_sweep".into(),
            field: "G".into(),
            action: UpdateAction::HaloExchange { halo: 1 },
        })
        .plug(Plug::DistFor {
            loop_name: "cells_odd".into(),
            field: "G".into(),
        })
        .plug(Plug::DistFor {
            loop_name: "cells_even".into(),
            field: "G".into(),
        })
        .plug(Plug::UpdateAt {
            point: "done".into(),
            field: "G".into(),
            action: UpdateAction::Gather,
        })
}

fn ckpt_plugs(plan: Plan, every: usize, strategy: DistCkptStrategy) -> Plan {
    plan.plug(Plug::SafeData { field: "G".into() })
        .plug(Plug::SafePoints {
            points: PointSet::Named(vec!["iter_end".into()]),
            every,
        })
        .plug(Plug::Ignorable {
            method: "sweep_odd".into(),
        })
        .plug(Plug::Ignorable {
            method: "sweep_even".into(),
        })
        .plug(Plug::DistCkpt { strategy })
}

fn sequential_reference() -> Vec<f64> {
    run_sequential(Arc::new(seq_plan()), None, None, |ctx| relax(ctx, None))
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("ppar_dist_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn distributed_matches_sequential() {
    let expected = sequential_reference();
    for nranks in [1, 2, 3, 5, 8] {
        let cfg = SpmdConfig::instant(nranks);
        let results = run_spmd_plain(&cfg, Arc::new(dist_plan()), |ctx| relax(ctx, None));
        assert_eq!(
            results[0], expected,
            "root copy after gather must equal the sequential result ({nranks} ranks)"
        );
    }
}

#[test]
fn dist_loops_partition_work() {
    // Count iterations executed per rank: with DistFor each interior index
    // runs on exactly one rank.
    use std::sync::atomic::{AtomicUsize, Ordering};
    let counters: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
    let cfg = SpmdConfig::instant(4);
    let plan = Plan::new()
        .plug(Plug::Field {
            field: "G".into(),
            dist: FieldDist::Partitioned(Partition::Block),
        })
        .plug(Plug::DistFor {
            loop_name: "l".into(),
            field: "G".into(),
        });
    run_spmd_plain(&cfg, Arc::new(plan), |ctx| {
        ctx.alloc_vec("G", N, 0.0f64);
        ctx.each("l", 0..N, |_, i| {
            counters[i].fetch_add(1, Ordering::SeqCst);
        });
    });
    for (i, c) in counters.iter().enumerate() {
        assert_eq!(
            c.load(Ordering::SeqCst),
            1,
            "index {i} ran on multiple ranks"
        );
    }
}

#[test]
fn scatter_before_gather_after_series_style() {
    // The paper's Fig. 1 pattern: the root owns the data; a method is
    // wrapped by scatter/gather; each element fills its partition.
    let plan = Plan::new()
        .plug(Plug::Field {
            field: "A".into(),
            dist: FieldDist::Partitioned(Partition::Block),
        })
        .plug(Plug::ScatterBefore {
            method: "Do".into(),
            field: "A".into(),
        })
        .plug(Plug::GatherAfter {
            method: "Do".into(),
            field: "A".into(),
        })
        .plug(Plug::DistFor {
            loop_name: "fill".into(),
            field: "A".into(),
        });
    let cfg = SpmdConfig::instant(4);
    let results = run_spmd_plain(&cfg, Arc::new(plan), |ctx| {
        let a = ctx.alloc_vec("A", 40, 0.0f64);
        if ctx.is_root() {
            a.copy_in_from_fn(|i| i as f64); // root-only initial data
        }
        let a2 = a.clone();
        ctx.call("Do", move |ctx| {
            ctx.each("fill", 0..40, |_, i| {
                a2.set(i, a2.get(i) * 2.0 + 1.0);
            });
        });
        a.to_vec()
    });
    let expected: Vec<f64> = (0..40).map(|i| i as f64 * 2.0 + 1.0).collect();
    assert_eq!(results[0], expected);
}

#[test]
fn reduce_after_and_broadcast_before() {
    let plan = Plan::new()
        .plug(Plug::Field {
            field: "partial".into(),
            dist: FieldDist::Replicated,
        })
        .plug(Plug::Field {
            field: "seed".into(),
            dist: FieldDist::Replicated,
        })
        .plug(Plug::BroadcastBefore {
            method: "Do".into(),
            field: "seed".into(),
        })
        .plug(Plug::ReduceAfter {
            method: "Do".into(),
            field: "partial".into(),
            op: ReduceOp::Sum,
        });
    let cfg = SpmdConfig::instant(5);
    let results = run_spmd_plain(&cfg, Arc::new(plan), |ctx| {
        let seed = ctx.alloc_value("seed", if ctx.is_root() { 10.0f64 } else { 0.0 });
        let partial = ctx.alloc_value("partial", 0.0f64);
        let (s2, p2) = (seed.clone(), partial.clone());
        ctx.call("Do", move |ctx| {
            // seed was broadcast: every rank sees 10.0
            p2.set(s2.get() + ctx.rank() as f64);
        });
        partial.get()
    });
    // Sum over ranks of (10 + rank) = 50 + 10 = 60, all-reduced everywhere.
    for r in results {
        assert_eq!(r, 60.0);
    }
}

#[test]
fn reduce_f64_construct_allreduces() {
    let cfg = SpmdConfig::instant(6);
    let results = run_spmd_plain(&cfg, Arc::new(Plan::new()), |ctx| {
        ctx.reduce_f64("norm", ReduceOp::Max, ctx.rank() as f64)
    });
    for r in results {
        assert_eq!(r, 5.0);
    }
}

#[test]
fn delegated_and_master_methods() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let ran_on = AtomicUsize::new(usize::MAX);
    let master_runs = AtomicUsize::new(0);
    let plan = Plan::new()
        .plug(Plug::OnElement {
            method: "special".into(),
            id: 2,
        })
        .plug(Plug::Master {
            method: "report".into(),
        });
    let cfg = SpmdConfig::instant(4);
    run_spmd_plain(&cfg, Arc::new(plan), |ctx| {
        ctx.call("special", |ctx| {
            ran_on.store(ctx.rank(), Ordering::SeqCst);
        });
        ctx.call("report", |_| {
            master_runs.fetch_add(1, Ordering::SeqCst);
        });
        ctx.barrier();
    });
    assert_eq!(ran_on.load(Ordering::SeqCst), 2);
    assert_eq!(master_runs.load(Ordering::SeqCst), 1);
}

// ---------------------------------------------------------------------------
// Distributed checkpointing
// ---------------------------------------------------------------------------

type HookPair = (
    Option<Arc<dyn ppar_core::ctx::CkptHook>>,
    Option<Arc<dyn ppar_core::ctx::AdaptHook>>,
);

fn hook_factory(dir: std::path::PathBuf, plan: Arc<Plan>) -> impl Fn(usize) -> HookPair + Sync {
    move |_rank| {
        let module = ppar_ckpt::CheckpointModule::create(&dir, &plan).expect("module creation");
        (Some(module as Arc<dyn ppar_core::ctx::CkptHook>), None)
    }
}

#[test]
fn master_collect_crash_restart_same_ranks() {
    let expected = sequential_reference();
    let dir = tmpdir("mc_same");
    let plan = Arc::new(ckpt_plugs(dist_plan(), 4, DistCkptStrategy::MasterCollect));

    // Run 1 on 3 ranks: snapshots at iterations 4 and 8, crash at 9.
    let cfg = SpmdConfig::instant(3);
    run_spmd(
        &cfg,
        plan.clone(),
        &hook_factory(dir.clone(), plan.clone()),
        false,
        |ctx| relax(ctx, Some(9)),
    );

    // Run 2 on 3 ranks: replay to 8, finish.
    let results = run_spmd(
        &cfg,
        plan.clone(),
        &hook_factory(dir.clone(), plan.clone()),
        true,
        |ctx| relax(ctx, None),
    );
    assert_eq!(results[0], expected);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn master_collect_restart_with_different_rank_count() {
    // The paper's Fig. 6 mechanism: a snapshot taken with 2 elements
    // restarts with 6 (master-collect data is aggregate-size independent).
    let expected = sequential_reference();
    let dir = tmpdir("mc_grow");
    let plan = Arc::new(ckpt_plugs(dist_plan(), 5, DistCkptStrategy::MasterCollect));

    run_spmd(
        &SpmdConfig::instant(2),
        plan.clone(),
        &hook_factory(dir.clone(), plan.clone()),
        false,
        |ctx| relax(ctx, Some(7)),
    );
    let results = run_spmd(
        &SpmdConfig::instant(6),
        plan.clone(),
        &hook_factory(dir.clone(), plan.clone()),
        true,
        |ctx| relax(ctx, None),
    );
    assert_eq!(results[0], expected, "restart on more elements must agree");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dist_snapshot_restarts_sequentially() {
    // Cross-mode restart: distributed snapshot, sequential resume.
    let expected = sequential_reference();
    let dir = tmpdir("mc_to_seq");
    let dplan = Arc::new(ckpt_plugs(dist_plan(), 4, DistCkptStrategy::MasterCollect));

    run_spmd(
        &SpmdConfig::instant(4),
        dplan.clone(),
        &hook_factory(dir.clone(), dplan.clone()),
        false,
        |ctx| relax(ctx, Some(6)),
    );

    // Sequential restart: same safe-point structure, no dist plugs.
    let splan = ckpt_plugs(seq_plan(), 4, DistCkptStrategy::MasterCollect);
    let report = ppar_adapt::launch(&ppar_adapt::Deploy::Seq, splan, Some(&dir), None, |ctx| {
        (ppar_adapt::AppStatus::Completed, relax(ctx, None))
    })
    .unwrap();
    assert!(report.replayed);
    assert_eq!(report.results[0].1, expected);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn local_snapshot_crash_restart_same_ranks() {
    let expected = sequential_reference();
    let dir = tmpdir("local");
    let plan = Arc::new(ckpt_plugs(dist_plan(), 4, DistCkptStrategy::LocalSnapshot));

    let cfg = SpmdConfig::instant(4);
    run_spmd(
        &cfg,
        plan.clone(),
        &hook_factory(dir.clone(), plan.clone()),
        false,
        |ctx| relax(ctx, Some(10)),
    );
    let results = run_spmd(
        &cfg,
        plan.clone(),
        &hook_factory(dir.clone(), plan.clone()),
        true,
        |ctx| relax(ctx, None),
    );
    assert_eq!(results[0], expected);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn incremental_master_collect_crash_restart() {
    // Incremental mode end-to-end in master-collect strategy: one full
    // record on disk, patched at every save after the first two, and the
    // restart from it matches the uncrashed sequential reference exactly.
    let expected = sequential_reference();
    let dir = tmpdir("inc_mc");
    let plan = Arc::new(
        ckpt_plugs(dist_plan(), 2, DistCkptStrategy::MasterCollect)
            .plug(Plug::IncrementalCkpt { full_every: 3 }),
    );

    // Snapshots at iterations 2, 4, 6 and 8; crash at 9.
    let cfg = SpmdConfig::instant(3);
    run_spmd(
        &cfg,
        plan.clone(),
        &hook_factory(dir.clone(), plan.clone()),
        false,
        |ctx| relax(ctx, Some(9)),
    );
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        !names.iter().any(|n| n.contains("_delta_")),
        "incremental master-collect writes no delta: {names:?}"
    );
    let store = ppar_ckpt::CheckpointStore::new(&dir).unwrap();
    let tip = store.get(None, None).unwrap().unwrap().count;
    assert_eq!(tip, 8, "the last save");

    let results = run_spmd(
        &cfg,
        plan.clone(),
        &hook_factory(dir.clone(), plan.clone()),
        true,
        |ctx| relax(ctx, None),
    );
    assert_eq!(results[0], expected);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn incremental_local_snapshot_crash_restart() {
    // Incremental mode writes no chain: every rank persists its owned
    // block as a full shard record at every save (patched where it can
    // be), and no shard delta is ever written.
    let expected = sequential_reference();
    let dir = tmpdir("inc_local");
    let plan = Arc::new(
        ckpt_plugs(dist_plan(), 4, DistCkptStrategy::LocalSnapshot)
            .plug(Plug::IncrementalCkpt { full_every: 4 }),
    );

    // Snapshots at iterations 4 and 8, both full; crash at 10.
    let cfg = SpmdConfig::instant(4);
    run_spmd(
        &cfg,
        plan.clone(),
        &hook_factory(dir.clone(), plan.clone()),
        false,
        |ctx| relax(ctx, Some(10)),
    );
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        !names.iter().any(|n| n.contains("_delta_")),
        "no shard delta may be written: {names:?}"
    );
    let store = ppar_ckpt::CheckpointStore::new(&dir).unwrap();
    assert_eq!(store.committed_count().unwrap(), Some(8));
    for rank in 0..4 {
        let shard = store.get(Some(rank), Some(8)).unwrap().unwrap();
        assert_eq!(shard.count, 8, "rank {rank}: a full shard record at 8");
    }

    let results = run_spmd(
        &cfg,
        plan.clone(),
        &hook_factory(dir.clone(), plan.clone()),
        true,
        |ctx| relax(ctx, None),
    );
    assert_eq!(results[0], expected);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn traffic_flows_and_root_gather_is_heavier() {
    // Sanity on the simulated network: the distributed run moves bytes, and
    // halo traffic is much smaller than the final gather.
    let cfg = SpmdConfig::instant(4);
    let net = ppar_dsm::SimNet::instant(4);
    // run_spmd builds its own net; use collectives directly for this check.
    let _ = cfg;
    std::thread::scope(|s| {
        for rank in 0..4 {
            let net = net.clone();
            s.spawn(move || {
                let ep = ppar_dsm::Endpoint::new(net, rank);
                // Halo-ish: 8-byte exchange with neighbours.
                let _ = ep.halo_exchange(
                    (rank > 0).then(|| vec![0u8; 8]),
                    (rank < 3).then(|| vec![0u8; 8]),
                );
                // Gather-ish: 1 KiB per rank at the root.
                let _ = ep.gather(0, vec![0u8; 1024]);
            });
        }
    });
    let t = net.traffic();
    assert!(
        t.msgs() >= 9,
        "6 halo + 3 gather messages at least, got {t:?}"
    );
    assert!(t.bytes() >= 3 * 1024, "gather dominates bytes, got {t:?}");
}

/// A rank's panic reaches `run_spmd`'s caller with its own message: every
/// rank thread is joined, and the call unwinds with the payload of the
/// lowest-numbered rank that panicked.
#[test]
fn a_rank_panic_reaches_the_caller_with_its_message() {
    let cfg = SpmdConfig::instant(3);
    let ran = std::panic::catch_unwind(|| {
        run_spmd_plain(&cfg, Arc::new(Plan::new()), |ctx| {
            if ctx.rank() > 0 {
                panic!("rank {} gives up", ctx.rank());
            }
            ctx.rank()
        })
    });
    let panic = ran.expect_err("a rank panicked");
    let said = panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied());
    assert_eq!(said, Some("rank 1 gives up"));
}

/// A rank that panics mid-run ends an in-process aggregate instead of
/// hanging it: its peer, waiting for it in the next collective, fails the
/// receive and unwinds, and `launch` unwinds with the panicking rank's own
/// message. A watchdog fails the test at its deadline should the peer wait
/// for good.
#[test]
fn a_rank_panic_mid_run_ends_a_launch_instead_of_hanging_it() {
    use ppar_adapt::{launch, AppStatus, Deploy};
    let (done, outcome) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let ran = std::panic::catch_unwind(|| {
            let deploy = Deploy::Dist(SpmdConfig::instant(2));
            launch(&deploy, Plan::new(), None, None, |ctx| {
                let sum = ctx.reduce_f64("first", ReduceOp::Sum, 1.0);
                if ctx.rank() == 0 {
                    panic!("rank 0 gives up after {sum}");
                }
                (
                    AppStatus::Completed,
                    ctx.reduce_f64("second", ReduceOp::Sum, sum),
                )
            })
        });
        let _ = done.send(ran.map(drop));
    });
    let deadline = std::time::Duration::from_secs(60);
    let panic = outcome
        .recv_timeout(deadline)
        .expect("the launch hangs after a rank panicked")
        .expect_err("a rank panicked");
    let said = panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied());
    assert_eq!(said, Some("rank 0 gives up after 2"));
}
