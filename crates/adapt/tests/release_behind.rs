//! A save releases what its commit superseded behind the safe point: the
//! checkpoint module hands the superseded files' open handles to its
//! reaper thread, so the kernel frees them while the team runs on. Names
//! and crash semantics must not notice. Covered here:
//!
//! * a run stopped right after a save — its batch still pending — restarts
//!   bitwise from that save's count: flat and incremental saves, under
//!   seq, smp2 and dist2 (master-collect and local-snapshot);
//! * [`ppar_ckpt::CkptStats`] counts every save exactly;
//! * on Linux, counted as `(deleted)` links in `/proc/self/fd`: a commit
//!   holds exactly the files it superseded until its value drops, a direct
//!   `put` returns holding none, and none is held once `launch` or
//!   `launch_live` returns.
//!
//! On Linux every run also checks that a reaper thread is alive once its
//! saves have superseded something, so a run that released inline would
//! not pass for one that released behind the safe point. Every test works
//! in a directory of its own and counts only the links into it, so the
//! tests of this binary may run in parallel.

use std::path::{Path, PathBuf};
use std::time::Duration;

use ppar_adapt::{launch, launch_live, AdaptationController, AppStatus, Deploy, ResourceTimeline};
use ppar_ckpt::transport::CkptTransport;
use ppar_ckpt::CheckpointStore;
use ppar_core::ctx::Ctx;
use ppar_core::mode::ExecMode;
use ppar_core::partition::{FieldDist, Partition};
use ppar_core::plan::{DistCkptStrategy, Plan, Plug, PointSet, UpdateAction};
use ppar_core::schedule::Schedule;
use ppar_dsm::SpmdConfig;

/// 4 MiB of `f64`: large enough that freeing a superseded record is not
/// instant, so a batch is still pending when a run stops right after a
/// save.
const N: usize = 1 << 19;
/// Each step rewrites a window of 1/16 of the field.
const WINDOW: usize = N / 16;
const STEPS: usize = 7;
/// Bases are promoted every `FULL_EVERY + 1` saves in incremental mode.
const FULL_EVERY: usize = 2;

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ppar_release_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d.canonicalize().unwrap()
}

/// What a run of [`app`] returns.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Ran {
    /// The bit pattern of the gathered field, folded (0 for a stopped run).
    folded: u64,
    /// Was a reaper thread alive after the last step's save? Asked only
    /// with `probe`: a run whose saves supersede nothing has none.
    reaper: bool,
}

/// Every step rewrites its window of `V` and crosses safe point `sp`;
/// `stop_after` steps in, the run stops right after that step's save.
fn app(ctx: &Ctx, stop_after: Option<usize>, probe: bool) -> (AppStatus, Ran) {
    let v = ctx.alloc_vec("V", N, 0.0f64);
    ctx.region("run", |ctx| {
        ctx.iter_loop("steps", 0..STEPS, |ctx, step| {
            let start = step * 5 * WINDOW / 2 % (N - WINDOW);
            ctx.call("touch", |ctx| {
                ctx.each("cells", start..start + WINDOW, |_, i| {
                    v.set(i, v.get(i) * 0.5 + (step * N + i) as f64);
                });
            });
            ctx.point("sp");
            Some(step + 1) != stop_after
        });
    });
    let reaper = probe && reaper_running();
    if stop_after.is_some() {
        return (AppStatus::Crashed, Ran { folded: 0, reaper });
    }
    ctx.point("collect");
    let folded = v.as_slice().iter().fold(0u64, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3)
    });
    (AppStatus::Completed, Ran { folded, reaper })
}

fn plan(incremental: bool, strategy: DistCkptStrategy) -> Plan {
    let plan = Plan::new()
        .plug(Plug::Field {
            field: "V".into(),
            dist: FieldDist::Partitioned(Partition::Block),
        })
        .plug(Plug::ParallelMethod {
            method: "run".into(),
        })
        .plug(Plug::For {
            loop_name: "cells".into(),
            schedule: Schedule::Block,
        })
        .plug(Plug::DistFor {
            loop_name: "cells".into(),
            field: "V".into(),
        })
        .plug(Plug::UpdateAt {
            point: "collect".into(),
            field: "V".into(),
            action: UpdateAction::Gather,
        })
        .plug(Plug::SafeData { field: "V".into() })
        .plug(Plug::SafePoints {
            points: PointSet::Named(vec!["sp".into()]),
            every: 1,
        })
        .plug(Plug::Ignorable {
            method: "touch".into(),
        })
        .plug(Plug::DistCkpt { strategy });
    match incremental {
        true => plan.plug(Plug::IncrementalCkpt {
            full_every: FULL_EVERY,
        }),
        false => plan,
    }
}

fn smp2() -> Deploy {
    Deploy::Smp {
        threads: 2,
        max_threads: 2,
    }
}

fn dist2() -> Deploy {
    Deploy::Dist(SpmdConfig::instant(2))
}

/// What the run computes with no checkpoint at all.
fn reference() -> u64 {
    let plan = plan(false, DistCkptStrategy::MasterCollect);
    let out = launch(&Deploy::Seq, plan, None, None, |ctx| app(ctx, None, false)).unwrap();
    out.results[0].1.folded
}

/// Is a checkpoint module's reaper thread alive in this process? Only
/// Linux can be asked; elsewhere the answer is yes. A new thread names
/// itself once it first runs, so a thread spawned by the last save gets a
/// few seconds to show up under its name.
fn reaper_running() -> bool {
    if !cfg!(target_os = "linux") {
        return true;
    }
    let named = || {
        std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .any(|name| name.trim_end() == "ckpt-reaper")
    };
    for _ in 0..500 {
        if named() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

/// Links from this process's descriptors to files under `dir` that no
/// longer have a name. Linux only.
#[cfg(target_os = "linux")]
fn held_deleted(dir: &Path) -> usize {
    std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
        .filter(|target| target.starts_with(dir))
        .filter(|target| target.to_string_lossy().ends_with(" (deleted)"))
        .count()
}

#[cfg(not(target_os = "linux"))]
fn held_deleted(_dir: &Path) -> usize {
    0
}

/// Stop right after the save at step `stop` (its batch pending), restart
/// in the same deployment and finish: the restart replays to exactly that
/// save's count and ends bitwise equal to the uninterrupted run.
#[test]
fn a_run_stopped_right_after_a_save_restarts_bitwise_from_it() {
    let want = reference();
    let local = DistCkptStrategy::LocalSnapshot;
    let master = DistCkptStrategy::MasterCollect;
    let cases = [
        ("seq", Deploy::Seq, master),
        ("smp2", smp2(), master),
        ("dist2_master", dist2(), master),
        ("dist2_local", dist2(), local),
    ];
    for (tag, deploy, strategy) in cases {
        for incremental in [false, true] {
            // A stop at a promoted base (step 4) retires a chain as it
            // commits; one at step 5 leaves a delta on top of it.
            for stop in [4, 5] {
                let case = format!("{tag} incremental={incremental} stop={stop}");
                let dir = scratch(&format!("stop_{tag}_{incremental}_{stop}"));
                let stopped = launch(
                    &deploy,
                    plan(incremental, strategy),
                    Some(&dir),
                    None,
                    |ctx| app(ctx, Some(stop), true),
                )
                .unwrap();
                assert!(!stopped.completed(), "{case}");
                assert!(stopped.results[0].1.reaper, "{case}: released inline");
                assert_eq!(held_deleted(&dir), 0, "{case}: a batch outlived the launch");
                let stats = stopped.stats.expect("rank-0 stats");
                assert_eq!(stats.snapshots_taken, stop as u64, "{case}");

                let store = CheckpointStore::new(&dir).unwrap();
                let chain = (strategy == local).then_some(0);
                let tip = store.get(chain, None).unwrap().expect("a record").count;
                assert_eq!(tip, stop as u64, "{case}: the stopped save is the tip");

                let restarted = launch(
                    &deploy,
                    plan(incremental, strategy),
                    Some(&dir),
                    None,
                    |ctx| app(ctx, None, false),
                )
                .unwrap();
                assert!(restarted.completed() && restarted.replayed, "{case}");
                assert_eq!(restarted.results[0].1.folded, want, "{case}: not bitwise");
                assert_eq!(
                    held_deleted(&dir),
                    0,
                    "{case}: a batch outlived the restart"
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

/// The stats a launch reports count every save as the inline release did:
/// one per safe point, split into bases and deltas by the promotion rule,
/// and the bytes of exactly the records written.
#[test]
fn checkpoint_stats_count_every_save_exactly() {
    let size = |dir: &Path, name: &str| std::fs::metadata(dir.join(name)).unwrap().len();
    let run = |dir: &Path, incremental, stop| {
        let plan = plan(incremental, DistCkptStrategy::MasterCollect);
        let out = launch(&smp2(), plan, Some(dir), None, |ctx| app(ctx, stop, true)).unwrap();
        assert!(out.results[0].1.reaper, "released inline");
        out.stats.expect("rank-0 stats")
    };
    for incremental in [false, true] {
        let dir = scratch(&format!("stats_{incremental}"));
        let stats = run(&dir, incremental, None);
        assert_eq!(stats.snapshots_taken, STEPS as u64);
        let base = size(&dir, "ckpt_master.bin");
        if incremental {
            // Saves 1, 4, 7 are bases; 2, 3, 5, 6 deltas, each of the same
            // number of dirty chunks. The last base retired the chain.
            assert_eq!((stats.full_snapshots, stats.delta_snapshots), (3, 4));
            assert_eq!(stats.last_save_bytes, base);
            let names: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .filter(|name| name.contains("_delta_"))
                .collect();
            assert!(names.is_empty(), "{names:?}");
            // Stopped at save 5, the first delta over base 4 is the tip.
            let first = scratch("stats_first_delta");
            let at_delta = run(&first, true, Some(5));
            let delta = size(&first, "ckpt_master_delta_1.bin");
            assert_eq!(at_delta.last_save_bytes, delta);
            assert_eq!(at_delta.bytes_written, 2 * base + 3 * delta);
            assert_eq!(stats.bytes_written, 3 * base + 4 * delta);
            let _ = std::fs::remove_dir_all(&first);
        } else {
            assert_eq!((stats.full_snapshots, stats.delta_snapshots), (7, 0));
            assert_eq!(stats.last_save_bytes, base);
            assert_eq!(stats.bytes_written, STEPS as u64 * base);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A commit holds the files it superseded — the record it renamed over and
/// the chain a new base retired — until its value drops; a direct `put`
/// has released them by the time it returns.
#[cfg(target_os = "linux")]
#[test]
fn a_commit_holds_what_it_superseded_and_a_direct_put_holds_nothing() {
    use ppar_ckpt::store::{DeltaSource, FieldSource, SnapshotMeta};
    use ppar_ckpt::{DeltaMeta, Record};

    let dir = scratch("direct");
    let store = CheckpointStore::new(&dir).unwrap();
    let payload = vec![7u8; 1 << 20];
    let meta = |count| SnapshotMeta {
        mode_tag: "seq".into(),
        count,
        rank: None,
        nranks: 1,
    };
    let full = |count| {
        let fields = [("V", FieldSource::Bytes(&payload))];
        store.put(&Record::Full(&meta(count), &fields)).unwrap()
    };
    let delta = |count, seq| {
        let dm = DeltaMeta {
            mode_tag: "seq".into(),
            count,
            base_count: 2,
            seq,
            rank: None,
            nranks: 1,
        };
        let fields = [("V", DeltaSource::Full(FieldSource::Bytes(&payload)))];
        store.put(&Record::Delta(&dm, &fields)).unwrap()
    };

    full(1);
    full(2);
    assert_eq!(
        held_deleted(&dir),
        0,
        "a direct put released what it renamed over"
    );
    delta(3, 1);
    delta(4, 2);
    assert_eq!(held_deleted(&dir), 0);

    // The same base through the sink: the old base and both deltas lose
    // their names, and all three stay open until the value drops.
    let fields = [("V", FieldSource::Bytes(&payload))];
    let record = Record::Full(&meta(5), &fields);
    let mut sink = store.begin(record.key(), record.len_hint()).unwrap();
    record.encode(&mut *sink).unwrap();
    let superseded = sink.commit().unwrap();
    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names, ["ckpt_master.bin"]);
    assert_eq!(held_deleted(&dir), 3);
    assert!(!superseded.is_empty());
    drop(superseded);
    assert_eq!(held_deleted(&dir), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// However a launch ends — completed, stopped after a save, relaunched by
/// a live reshape — the module's pending batch is released before
/// `launch` or `launch_live` returns.
#[test]
fn no_superseded_record_is_held_once_a_launch_returns() {
    let want = reference();
    for stop in [None, Some(3)] {
        let dir = scratch(&format!("launch_{}", stop.is_some()));
        let plan = plan(false, DistCkptStrategy::MasterCollect);
        let out = launch(&smp2(), plan, Some(&dir), None, |ctx| app(ctx, stop, true)).unwrap();
        assert_eq!(out.completed(), stop.is_none());
        assert!(out.results[0].1.reaper, "stop={stop:?}: released inline");
        assert_eq!(held_deleted(&dir), 0, "stop={stop:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    for incremental in [false, true] {
        let dir = scratch(&format!("live_{incremental}"));
        let controller =
            AdaptationController::with_timeline(ResourceTimeline::new().at(3, ExecMode::dist(2)));
        let plan = plan(incremental, DistCkptStrategy::MasterCollect);
        let out = launch_live(&smp2(), plan, Some(&dir), controller, |ctx| {
            app(ctx, None, true)
        })
        .unwrap();
        assert!(out.completed());
        assert_eq!(out.launches, 2, "one escalated relaunch");
        assert_eq!(
            out.results[0].1,
            Ran {
                folded: want,
                reaper: true
            }
        );
        assert_eq!(held_deleted(&dir), 0, "incremental={incremental}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
