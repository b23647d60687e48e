//! The pcr start-up protocol under `Deploy::Seq`: crash/restart cycles of
//! a checkpointed sequential run (the sequential slice of the paper's
//! Fig. 2).

use std::path::{Path, PathBuf};

use ppar_adapt::{launch, AppStatus, Deploy, LaunchOutcome};
use ppar_core::ctx::Ctx;
use ppar_core::plan::{Plan, Plug, PointSet};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ppar_pcr_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn plan(every: usize) -> Plan {
    Plan::new()
        .plug(Plug::SafeData {
            field: "acc".into(),
        })
        .plug(Plug::SafePoints {
            points: PointSet::All,
            every,
        })
        .plug(Plug::Ignorable {
            method: "work".into(),
        })
}

/// A tiny iterative app: accumulates i into acc[0] for 20 iterations,
/// optionally crashing after `fail_after` iterations.
fn app(fail_after: Option<usize>) -> impl Fn(&Ctx) -> (AppStatus, f64) + Sync {
    move |ctx| {
        let acc = ctx.alloc_vec("acc", 1, 0.0f64);
        for i in 1..=20usize {
            ctx.call("work", |_| {
                acc.set(0, acc.get(0) + i as f64);
            });
            ctx.point("iter");
            if Some(i) == fail_after {
                return (AppStatus::Crashed, acc.get(0));
            }
        }
        (AppStatus::Completed, acc.get(0))
    }
}

fn launch_in(dir: &Path, every: usize, fail_after: Option<usize>) -> LaunchOutcome<f64> {
    launch(&Deploy::Seq, plan(every), Some(dir), None, app(fail_after)).unwrap()
}

#[test]
fn crash_restart_produces_sequential_result() {
    let dir = tmpdir("crc");
    let expected: f64 = (1..=20).sum::<usize>() as f64;

    // Run 1: snapshot every 5 points, crash after iteration 13.
    let r1 = launch_in(&dir, 5, Some(13));
    assert_eq!(r1.results[0].0, AppStatus::Crashed);
    assert!(!r1.replayed);
    assert_eq!(r1.stats.unwrap().snapshots_taken, 2); // at points 5 and 10

    // Run 2: replays to point 10 (ignoring `work`), then finishes live.
    let r2 = launch_in(&dir, 5, None);
    assert_eq!(r2.results[0].0, AppStatus::Completed);
    assert!(r2.replayed);
    assert_eq!(
        r2.results[0].1, expected,
        "restart must produce the uncrashed result"
    );
    assert_eq!(r2.stats.unwrap().replayed_points, 10);

    // Run 3: fresh (marker cleared by run 2).
    let r3 = launch_in(&dir, 5, None);
    assert!(!r3.replayed);
    assert_eq!(r3.results[0].1, expected);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn double_crash_replays_twice() {
    let dir = tmpdir("double");
    let expected: f64 = (1..=20).sum::<usize>() as f64;

    launch_in(&dir, 4, Some(6)); // ckpt at 4, crash at 6
    let r2 = launch_in(&dir, 4, Some(10)); // replay->4, ckpt at 8, crash at 10
    assert!(r2.replayed);
    let r3 = launch_in(&dir, 4, None); // replay->8, finish
    assert!(r3.replayed);
    assert_eq!(r3.results[0].1, expected);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_with_no_snapshot_restarts_from_scratch() {
    let dir = tmpdir("noshot");
    let expected: f64 = (1..=20).sum::<usize>() as f64;

    let r1 = launch_in(&dir, 100, Some(3));
    assert_eq!(r1.stats.unwrap().snapshots_taken, 0);

    let r2 = launch_in(&dir, 100, None);
    assert!(!r2.replayed, "nothing to replay to");
    assert_eq!(r2.results[0].1, expected);

    std::fs::remove_dir_all(&dir).unwrap();
}
