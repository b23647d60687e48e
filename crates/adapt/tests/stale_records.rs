//! A fresh run in a reused checkpoint directory owns it: when it crashes
//! before its first save, the restart must run it again from the start —
//! never restore the record, shards or group-commit point an earlier,
//! completed run left behind.

use std::path::PathBuf;

use ppar_adapt::{launch, AppStatus, Deploy};
use ppar_core::ctx::Ctx;
use ppar_core::plan::{DistCkptStrategy, Plan, Plug, PointSet};
use ppar_dsm::SpmdConfig;
use ppar_jgf::sor::pluggable::{plan_ckpt_with_strategy, plan_dist, sor_pluggable};
use ppar_jgf::sor::{sor_seq, SorParams};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ppar_stale_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Accumulates `scale * i` into `acc` for 20 iterations, saving every 5,
/// optionally crashing after `fail_after` iterations.
fn acc_app(scale: f64, fail_after: Option<usize>) -> impl Fn(&Ctx) -> (AppStatus, f64) + Sync {
    move |ctx| {
        let acc = ctx.alloc_vec("acc", 1, 0.0f64);
        for i in 1..=20usize {
            ctx.call("work", |_| acc.set(0, acc.get(0) + scale * i as f64));
            ctx.point("iter");
            if Some(i) == fail_after {
                return (AppStatus::Crashed, acc.get(0));
            }
        }
        (AppStatus::Completed, acc.get(0))
    }
}

#[test]
fn seq_restart_never_restores_an_earlier_runs_record() {
    let dir = tmpdir("seq");
    let plan = Plan::new()
        .plug(Plug::SafeData {
            field: "acc".into(),
        })
        .plug(Plug::SafePoints {
            points: PointSet::All,
            every: 5,
        })
        .plug(Plug::Ignorable {
            method: "work".into(),
        });
    let run = |scale, fail_after| {
        launch(
            &Deploy::Seq,
            plan.clone(),
            Some(&dir),
            None,
            acc_app(scale, fail_after),
        )
        .unwrap()
    };
    // A completes and leaves its record at safe point 20.
    let a = run(1.0, None);
    assert_eq!(a.results[0].1, 210.0);
    // B, another app in the same directory, crashes before its first save.
    let b = run(2.0, Some(3));
    assert_eq!(b.results[0].0, AppStatus::Crashed);
    assert_eq!(b.stats.unwrap().snapshots_taken, 0);
    // Restarting B runs B from the start.
    let c = run(2.0, None);
    assert!(!c.replayed, "nothing of B's to replay to");
    assert_eq!(c.results[0].1, 420.0, "B's result, not A's");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn dist2_local_snapshot_restart_never_restores_an_earlier_runs_shards() {
    let dir = tmpdir("dist2");
    let plan = plan_dist().merge(plan_ckpt_with_strategy(2, DistCkptStrategy::LocalSnapshot));
    let deploy = Deploy::Dist(SpmdConfig::instant(2));
    let params = |seed, fail_after| SorParams {
        seed,
        fail_after,
        ..SorParams::new(33, 8)
    };
    let run = |p: SorParams| {
        let status = match p.fail_after {
            Some(_) => AppStatus::Crashed,
            None => AppStatus::Completed,
        };
        launch(&deploy, plan.clone(), Some(&dir), None, |ctx| {
            (status, sor_pluggable(ctx, &p).checksum.to_bits())
        })
        .unwrap()
    };
    // A completes and leaves its shards and commit point behind.
    let a = run(params(1, None));
    assert!(a.stats.unwrap().snapshots_taken > 0);
    // B, seeded otherwise, crashes before its first save.
    let b = run(params(2, Some(1)));
    assert_eq!(b.results[0].0, AppStatus::Crashed);
    assert_eq!(b.stats.unwrap().snapshots_taken, 0);
    // Restarting B runs B from the start.
    let c = run(params(2, None));
    assert!(!c.replayed, "nothing of B's to replay to");
    let expected = sor_seq(&params(2, None)).checksum.to_bits();
    assert_ne!(expected, sor_seq(&params(1, None)).checksum.to_bits());
    assert_eq!(c.results[0].1, expected, "B's result, not A's");
    std::fs::remove_dir_all(&dir).unwrap();
}
