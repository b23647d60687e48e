//! Integration tests for the shared-memory team engine: constructs,
//! checkpointing and run-time reshaping.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use ppar_core::ctx::{AdaptHook, Ctx, RunShared};
use ppar_core::mode::ExecMode;
use ppar_core::plan::{Plan, Plug, PointSet, ReduceOp};
use ppar_core::runtime::{run_smp, TeamEngine};
use ppar_core::schedule::Schedule;
use ppar_core::shared::TeamLocal;
use ppar_core::state::Registry;

fn hits(n: usize) -> Arc<Vec<AtomicUsize>> {
    Arc::new((0..n).map(|_| AtomicUsize::new(0)).collect())
}

fn assert_each_exactly(hits: &[AtomicUsize], times: usize) {
    for (i, h) in hits.iter().enumerate() {
        assert_eq!(
            h.load(Ordering::SeqCst),
            times,
            "index {i} executed wrong number of times"
        );
    }
}

#[test]
fn region_forks_team_and_joins() {
    let plan = Arc::new(Plan::new().plug(Plug::ParallelMethod { method: "r".into() }));
    let seen = Arc::new(ppar_core::sync::Mutex::new(Vec::new()));
    let seen2 = seen.clone();
    run_smp(plan, 4, None, None, move |ctx| {
        ctx.region("r", |ctx| {
            seen2.lock().push(ctx.worker());
            assert_eq!(ctx.num_workers(), 4);
        });
    });
    let mut workers = seen.lock().clone();
    workers.sort_unstable();
    assert_eq!(workers, vec![0, 1, 2, 3]);
}

#[test]
fn unplugged_region_runs_once() {
    let plan = Arc::new(Plan::new());
    let count = Arc::new(AtomicUsize::new(0));
    let c = count.clone();
    run_smp(plan, 4, None, None, move |ctx| {
        ctx.region("r", |_| {
            c.fetch_add(1, Ordering::SeqCst);
        });
    });
    assert_eq!(count.load(Ordering::SeqCst), 1);
}

#[test]
fn work_sharing_covers_exactly_once_all_schedules() {
    for schedule in [
        Schedule::Block,
        Schedule::Cyclic,
        Schedule::BlockCyclic { chunk: 3 },
        Schedule::Dynamic { chunk: 5 },
        Schedule::Guided { min_chunk: 2 },
    ] {
        let plan = Arc::new(
            Plan::new()
                .plug(Plug::ParallelMethod { method: "r".into() })
                .plug(Plug::For {
                    loop_name: "l".into(),
                    schedule,
                }),
        );
        let h = hits(503);
        let h2 = h.clone();
        run_smp(plan, 6, None, None, move |ctx| {
            ctx.region("r", |ctx| {
                ctx.each("l", 0..503, |_, i| {
                    h2[i].fetch_add(1, Ordering::SeqCst);
                });
            });
        });
        assert_each_exactly(&h, 1);
    }
}

#[test]
fn unplugged_loop_in_region_is_replicated() {
    let plan = Arc::new(Plan::new().plug(Plug::ParallelMethod { method: "r".into() }));
    let h = hits(10);
    let h2 = h.clone();
    run_smp(plan, 3, None, None, move |ctx| {
        ctx.region("r", |ctx| {
            ctx.each("l", 0..10, |_, i| {
                h2[i].fetch_add(1, Ordering::SeqCst);
            });
        });
    });
    assert_each_exactly(&h, 3);
}

#[test]
fn consecutive_work_shared_loops_stay_aligned() {
    let plan = Arc::new(
        Plan::new()
            .plug(Plug::ParallelMethod { method: "r".into() })
            .plug(Plug::For {
                loop_name: "a".into(),
                schedule: Schedule::Dynamic { chunk: 2 },
            })
            .plug(Plug::For {
                loop_name: "b".into(),
                schedule: Schedule::Dynamic { chunk: 3 },
            }),
    );
    let h = hits(100);
    let h2 = h.clone();
    run_smp(plan, 4, None, None, move |ctx| {
        ctx.region("r", |ctx| {
            for _round in 0..25 {
                ctx.each("a", 0..100, |_, i| {
                    h2[i].fetch_add(1, Ordering::SeqCst);
                });
                ctx.each("b", 0..100, |_, i| {
                    h2[i].fetch_add(1, Ordering::SeqCst);
                });
            }
        });
    });
    assert_each_exactly(&h, 50);
}

#[test]
fn single_runs_exactly_once_per_encounter() {
    let plan = Arc::new(
        Plan::new()
            .plug(Plug::ParallelMethod { method: "r".into() })
            .plug(Plug::Single {
                method: "init".into(),
            }),
    );
    let count = Arc::new(AtomicUsize::new(0));
    let c = count.clone();
    run_smp(plan, 8, None, None, move |ctx| {
        ctx.region("r", |ctx| {
            for _ in 0..10 {
                ctx.call("init", |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
    });
    assert_eq!(count.load(Ordering::SeqCst), 10);
}

#[test]
fn master_only_runs_on_worker_zero() {
    let plan = Arc::new(
        Plan::new()
            .plug(Plug::ParallelMethod { method: "r".into() })
            .plug(Plug::Master {
                method: "report".into(),
            }),
    );
    let who = Arc::new(ppar_core::sync::Mutex::new(Vec::new()));
    let w2 = who.clone();
    run_smp(plan, 4, None, None, move |ctx| {
        ctx.region("r", |ctx| {
            ctx.call("report", |ctx| {
                w2.lock().push(ctx.worker());
            });
            ctx.barrier();
        });
    });
    assert_eq!(*who.lock(), vec![0]);
}

#[test]
fn synchronized_method_is_mutually_exclusive() {
    let plan = Arc::new(
        Plan::new()
            .plug(Plug::ParallelMethod { method: "r".into() })
            .plug(Plug::Synchronized {
                method: "bump".into(),
            }),
    );
    // A non-atomic counter: correct only under mutual exclusion.
    let counter = Arc::new(ppar_core::sync::Mutex::new(0u64));
    let in_section = Arc::new(AtomicUsize::new(0));
    let c2 = counter.clone();
    let s2 = in_section.clone();
    run_smp(plan, 8, None, None, move |ctx| {
        ctx.region("r", |ctx| {
            for _ in 0..200 {
                ctx.call("bump", |_| {
                    assert_eq!(
                        s2.fetch_add(1, Ordering::SeqCst),
                        0,
                        "two workers inside a synchronized method"
                    );
                    let mut c = c2.lock();
                    *c += 1;
                    s2.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
    });
    assert_eq!(*counter.lock(), 8 * 200);
}

#[test]
fn team_reduce_combines_all_workers() {
    let plan = Arc::new(Plan::new().plug(Plug::ParallelMethod { method: "r".into() }));
    let results = Arc::new(ppar_core::sync::Mutex::new(Vec::new()));
    let r2 = results.clone();
    run_smp(plan, 6, None, None, move |ctx| {
        ctx.region("r", |ctx| {
            let local = (ctx.worker() + 1) as f64;
            let total = ctx.reduce_f64("sum", ReduceOp::Sum, local);
            r2.lock().push(total);
        });
    });
    let results = results.lock();
    assert_eq!(results.len(), 6);
    for &r in results.iter() {
        assert_eq!(r, 21.0, "every worker sees the combined value");
    }
}

#[test]
fn barrier_plug_around_method() {
    let plan = Arc::new(
        Plan::new()
            .plug(Plug::ParallelMethod { method: "r".into() })
            .plug(Plug::Barrier {
                method: "phase".into(),
                before: true,
                after: true,
            }),
    );
    let phase1 = Arc::new(AtomicUsize::new(0));
    let p2 = phase1.clone();
    run_smp(plan, 4, None, None, move |ctx| {
        ctx.region("r", |ctx| {
            p2.fetch_add(1, Ordering::SeqCst);
            ctx.call("phase", |_| {
                // barrier before: all pre-increments visible
                assert_eq!(p2.load(Ordering::SeqCst), 4);
            });
        });
    });
}

#[test]
fn thread_local_fields_are_private_and_foldable() {
    let plan = Arc::new(
        Plan::new()
            .plug(Plug::ParallelMethod { method: "r".into() })
            .plug(Plug::For {
                loop_name: "l".into(),
                schedule: Schedule::Block,
            }),
    );
    let acc: Arc<TeamLocal<f64>> = Arc::new(TeamLocal::new(8, |_| 0.0));
    let acc2 = acc.clone();
    run_smp(plan, 4, None, None, move |ctx| {
        ctx.region("r", |ctx| {
            ctx.each("l", 0..1000, |ctx, i| {
                ctx.local_mut(&acc2, |a| *a += i as f64);
            });
        });
    });
    let total = acc.fold(4, 0.0, |a, b| a + b);
    assert_eq!(total, (0..1000).sum::<usize>() as f64);
}

// ---------------------------------------------------------------------------
// Checkpointing under the team engine
// ---------------------------------------------------------------------------

fn ckpt_plan(every: usize) -> Plan {
    Plan::new()
        .plug(Plug::ParallelMethod {
            method: "work".into(),
        })
        .plug(Plug::For {
            loop_name: "l".into(),
            schedule: Schedule::Block,
        })
        .plug(Plug::SafeData {
            field: "acc".into(),
        })
        .plug(Plug::SafePoints {
            points: PointSet::Named(vec!["it".into()]),
            every,
        })
        .plug(Plug::Ignorable {
            method: "compute".into(),
        })
}

/// A work-shared accumulation app: acc[i] += i*iter for 20 iterations.
/// Optionally stops (crash) after `fail_after` iterations.
fn ckpt_app(ctx: &Ctx, fail_after: Option<usize>) -> f64 {
    let acc = ctx.alloc_vec("acc", 64, 0.0f64);
    let stop = AtomicBool::new(false);
    let acc2 = acc.clone();
    ctx.region("work", |ctx| {
        for it in 1..=20usize {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            ctx.call("compute", |ctx| {
                ctx.each("l", 0..64, |_, i| {
                    acc2.set(i, acc2.get(i) + (i * it) as f64);
                });
            });
            ctx.point("it");
            if Some(it) == fail_after {
                stop.store(true, Ordering::SeqCst);
            }
        }
    });
    acc.as_slice().iter().sum()
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("ppar_team_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn smp_checkpoint_crash_restart_matches_sequential_result() {
    let dir = tmpdir("ckpt");
    let expected = {
        // Uncrashed sequential reference.
        ppar_core::run_sequential(Arc::new(Plan::new()), None, None, |ctx| ckpt_app(ctx, None))
    };

    // Run 1 on 4 threads: snapshots every 5 points, crash after iteration 12.
    {
        let plan = Arc::new(ckpt_plan(5));
        let module = ppar_ckpt::CheckpointModule::create(&dir, &plan).unwrap();
        let engine = TeamEngine::fixed(4);
        let shared = RunShared::new(
            plan,
            Arc::new(Registry::new()),
            engine,
            Some(module.clone() as Arc<dyn ppar_core::ctx::CkptHook>),
            None,
        );
        let ctx = Ctx::new_root(shared);
        ckpt_app(&ctx, Some(12));
        // crash: no finish
        assert_eq!(module.stats().snapshots_taken, 2); // points 5, 10
    }

    // Run 2 on 4 threads: replay to point 10 (team re-forked), finish live.
    {
        let plan = Arc::new(ckpt_plan(5));
        let module = ppar_ckpt::CheckpointModule::create(&dir, &plan).unwrap();
        assert!(module.will_replay());
        assert_eq!(module.replay_target(), 10);
        let engine = TeamEngine::fixed(4);
        let shared = RunShared::new(
            plan,
            Arc::new(Registry::new()),
            engine,
            Some(module.clone() as Arc<dyn ppar_core::ctx::CkptHook>),
            None,
        );
        let ctx = Ctx::new_root(shared);
        let result = ckpt_app(&ctx, None);
        ctx.finish();
        assert_eq!(result, expected, "restart on a team must match sequential");
        assert_eq!(module.stats().replayed_points, 10);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn smp_snapshot_is_loadable_across_modes() {
    // A snapshot taken on a team restarts sequentially (master-collect data
    // is mode independent).
    let dir = tmpdir("cross");
    {
        let plan = Arc::new(ckpt_plan(7));
        let module = ppar_ckpt::CheckpointModule::create(&dir, &plan).unwrap();
        let engine = TeamEngine::fixed(8);
        let shared = RunShared::new(
            plan,
            Arc::new(Registry::new()),
            engine,
            Some(module as Arc<dyn ppar_core::ctx::CkptHook>),
            None,
        );
        let ctx = Ctx::new_root(shared);
        ckpt_app(&ctx, Some(9)); // snapshot at 7, crash at 9
    }
    {
        // Restart SEQUENTIALLY from the team-taken snapshot.
        let plan = ckpt_plan(7);
        let report = ppar_adapt::launch(&ppar_adapt::Deploy::Seq, plan, Some(&dir), None, |ctx| {
            (ppar_adapt::AppStatus::Completed, ckpt_app(ctx, None))
        })
        .unwrap();
        assert!(report.replayed);
        let expected =
            ppar_core::run_sequential(Arc::new(Plan::new()), None, None, |ctx| ckpt_app(ctx, None));
        assert_eq!(report.results[0].1, expected);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Run-time adaptation
// ---------------------------------------------------------------------------

/// Fires one reshape request at the `fire_at`-th safe-point crossing;
/// stays pending until confirmed. `pending` is called exactly once per
/// crossing (see the AdaptHook contract), so a plain counter suffices.
struct FireAt {
    fire_at: u64,
    target: ExecMode,
    crossings: AtomicU64,
    confirmed: AtomicBool,
}

impl FireAt {
    fn new(fire_at: u64, target: ExecMode) -> Arc<FireAt> {
        Arc::new(FireAt {
            fire_at,
            target,
            crossings: AtomicU64::new(0),
            confirmed: AtomicBool::new(false),
        })
    }
}

impl AdaptHook for FireAt {
    fn pending(&self, _ctx: &Ctx, _name: &str) -> Option<ExecMode> {
        let c = self.crossings.fetch_add(1, Ordering::SeqCst) + 1;
        if self.confirmed.load(Ordering::SeqCst) {
            return None;
        }
        (c >= self.fire_at).then_some(self.target)
    }

    fn confirm(&self, _mode: ExecMode) {
        self.confirmed.store(true, Ordering::SeqCst);
    }
}

/// 30-iteration work-shared accumulation; records the live team size at each
/// iteration (master).
fn adapt_app(ctx: &Ctx, sizes: Arc<ppar_core::sync::Mutex<Vec<usize>>>) -> f64 {
    let acc = ctx.alloc_vec("acc", 96, 0.0f64);
    let acc2 = acc.clone();
    ctx.region("work", |ctx| {
        for it in 1..=30usize {
            ctx.call("compute", |ctx| {
                ctx.each("l", 0..96, |_, i| {
                    acc2.set(i, acc2.get(i) + (i + it) as f64);
                });
            });
            ctx.point("it");
            if ctx.worker() == 0 {
                sizes.lock().push(ctx.num_workers());
            }
        }
    });
    acc.as_slice().iter().sum()
}

fn adapt_plan() -> Plan {
    Plan::new()
        .plug(Plug::ParallelMethod {
            method: "work".into(),
        })
        .plug(Plug::For {
            loop_name: "l".into(),
            schedule: Schedule::Block,
        })
        .plug(Plug::SafePoints {
            points: PointSet::Named(vec!["it".into()]),
            every: 0,
        })
        .plug(Plug::Ignorable {
            method: "compute".into(),
        })
}

fn expected_adapt_result() -> f64 {
    let mut acc = vec![0.0f64; 96];
    for it in 1..=30usize {
        for (i, a) in acc.iter_mut().enumerate() {
            *a += (i + it) as f64;
        }
    }
    acc.iter().sum()
}

#[test]
fn expansion_mid_region_preserves_results() {
    let sizes = Arc::new(ppar_core::sync::Mutex::new(Vec::new()));
    let hook = FireAt::new(5, ExecMode::smp(6));
    let engine = TeamEngine::new(2, 8);
    let shared = RunShared::new(
        Arc::new(adapt_plan()),
        Arc::new(Registry::new()),
        engine.clone(),
        None,
        Some(hook.clone() as Arc<dyn AdaptHook>),
    );
    let ctx = Ctx::new_root(shared);
    let result = adapt_app(&ctx, sizes.clone());
    ctx.finish();

    assert_eq!(result, expected_adapt_result());
    assert!(hook.confirmed.load(Ordering::SeqCst));
    assert_eq!(engine.current_threads(), 6);
    let sizes = sizes.lock();
    assert_eq!(sizes.len(), 30);
    assert_eq!(sizes[3], 2, "before the reshape the team has 2 workers");
    assert_eq!(sizes[10], 6, "after the reshape the team has 6 workers");
}

#[test]
fn contraction_mid_region_preserves_results() {
    let sizes = Arc::new(ppar_core::sync::Mutex::new(Vec::new()));
    let hook = FireAt::new(8, ExecMode::smp(2));
    let engine = TeamEngine::new(6, 6);
    let shared = RunShared::new(
        Arc::new(adapt_plan()),
        Arc::new(Registry::new()),
        engine.clone(),
        None,
        Some(hook.clone() as Arc<dyn AdaptHook>),
    );
    let ctx = Ctx::new_root(shared);
    let result = adapt_app(&ctx, sizes.clone());
    ctx.finish();

    assert_eq!(result, expected_adapt_result());
    assert_eq!(engine.current_threads(), 2);
    let sizes = sizes.lock();
    assert_eq!(sizes[5], 6);
    assert_eq!(sizes[12], 2);
}

#[test]
fn sequential_to_parallel_expansion_inside_region() {
    // The paper's headline adaptation: a running sequential execution
    // becomes concurrent (§IV.B "Expansion of Resource Usage").
    let sizes = Arc::new(ppar_core::sync::Mutex::new(Vec::new()));
    let hook = FireAt::new(10, ExecMode::smp(4));
    let engine = TeamEngine::new(1, 4);
    let shared = RunShared::new(
        Arc::new(adapt_plan()),
        Arc::new(Registry::new()),
        engine.clone(),
        None,
        Some(hook.clone() as Arc<dyn AdaptHook>),
    );
    let ctx = Ctx::new_root(shared);
    let result = adapt_app(&ctx, sizes.clone());
    ctx.finish();

    assert_eq!(result, expected_adapt_result());
    assert_eq!(engine.current_threads(), 4);
    let sizes = sizes.lock();
    assert_eq!(sizes[5], 1);
    assert_eq!(sizes[15], 4);
}

#[test]
fn adaptation_mid_dynamic_loop_defers_to_next_safe_point() {
    // §IV.B: "requests to adapt the application parallelism structure are
    // managed on these safe points". A request that arrives while a
    // dynamically scheduled loop is mid-claim must not tear the loop: the
    // running sweep finishes with the old team (exactly-once coverage) and
    // the reshape lands at the next safe-point crossing.
    struct AsyncRequest {
        requested: AtomicBool,
        target: ExecMode,
        confirms: AtomicUsize,
    }
    impl AdaptHook for AsyncRequest {
        fn pending(&self, _ctx: &Ctx, _name: &str) -> Option<ExecMode> {
            (self.requested.load(Ordering::SeqCst) && self.confirms.load(Ordering::SeqCst) == 0)
                .then_some(self.target)
        }
        fn confirm(&self, _mode: ExecMode) {
            self.confirms.fetch_add(1, Ordering::SeqCst);
        }
    }

    let n = 400usize;
    let iterations = 8usize;
    let hook = Arc::new(AsyncRequest {
        requested: AtomicBool::new(false),
        target: ExecMode::smp(6),
        confirms: AtomicUsize::new(0),
    });
    let plan = Arc::new(
        Plan::new()
            .plug(Plug::ParallelMethod {
                method: "work".into(),
            })
            .plug(Plug::For {
                loop_name: "l".into(),
                schedule: Schedule::Dynamic { chunk: 3 },
            })
            .plug(Plug::SafePoints {
                points: PointSet::Named(vec!["it".into()]),
                every: 0,
            }),
    );
    let engine = TeamEngine::new(2, 8);
    let shared = RunShared::new(
        plan,
        Arc::new(Registry::new()),
        engine.clone(),
        None,
        Some(hook.clone() as Arc<dyn AdaptHook>),
    );
    let ctx = Ctx::new_root(shared);

    let h = hits(n);
    let h2 = h.clone();
    // Team sizes observed inside the loop bodies, per iteration.
    let sizes_in_loop: Arc<Vec<ppar_core::sync::Mutex<Vec<usize>>>> = Arc::new(
        (0..iterations)
            .map(|_| ppar_core::sync::Mutex::new(Vec::new()))
            .collect(),
    );
    let sizes2 = sizes_in_loop.clone();
    let hook2 = hook.clone();
    ctx.region("work", |ctx| {
        for it in 0..iterations {
            ctx.each("l", 0..n, |ctx, i| {
                h2[i].fetch_add(1, Ordering::SeqCst);
                sizes2[it].lock().push(ctx.num_workers());
                // The reshape request lands *mid-loop*, from a claimed
                // iteration of sweep 2.
                if it == 2 && i == n / 2 {
                    hook2.requested.store(true, Ordering::SeqCst);
                }
            });
            ctx.point("it");
        }
    });
    ctx.finish();

    // No iteration was lost or duplicated, in any sweep.
    assert_each_exactly(&h, iterations);
    assert_eq!(
        hook.confirms.load(Ordering::SeqCst),
        1,
        "applied exactly once"
    );
    assert_eq!(engine.current_threads(), 6);
    // The sweep the request arrived in completed on the old team; the
    // reshape took effect at the following safe point.
    assert!(
        sizes_in_loop[2].lock().iter().all(|&s| s == 2),
        "sweep 2 must finish on the 2-worker team (reshape deferred)"
    );
    assert!(
        sizes_in_loop[4].lock().iter().all(|&s| s == 6),
        "sweeps after the crossing run on the 6-worker team"
    );
}

#[test]
fn multiple_reshapes_in_one_run() {
    // Grow then shrink: 2 -> 8 -> 3.
    struct Script {
        crossings: AtomicU64,
        confirmed_count: AtomicUsize,
    }
    impl AdaptHook for Script {
        fn pending(&self, _ctx: &Ctx, _name: &str) -> Option<ExecMode> {
            let c = self.crossings.fetch_add(1, Ordering::SeqCst) + 1;
            match (self.confirmed_count.load(Ordering::SeqCst), c) {
                (0, c) if c >= 5 => Some(ExecMode::smp(8)),
                (1, c) if c >= 15 => Some(ExecMode::smp(3)),
                _ => None,
            }
        }
        fn confirm(&self, _mode: ExecMode) {
            self.confirmed_count.fetch_add(1, Ordering::SeqCst);
        }
    }

    let sizes = Arc::new(ppar_core::sync::Mutex::new(Vec::new()));
    let hook = Arc::new(Script {
        crossings: AtomicU64::new(0),
        confirmed_count: AtomicUsize::new(0),
    });
    let engine = TeamEngine::new(2, 8);
    let shared = RunShared::new(
        Arc::new(adapt_plan()),
        Arc::new(Registry::new()),
        engine.clone(),
        None,
        Some(hook.clone() as Arc<dyn AdaptHook>),
    );
    let ctx = Ctx::new_root(shared);
    let result = adapt_app(&ctx, sizes.clone());
    ctx.finish();

    assert_eq!(result, expected_adapt_result());
    assert_eq!(engine.current_threads(), 3);
    assert_eq!(hook.confirmed_count.load(Ordering::SeqCst), 2);
}
