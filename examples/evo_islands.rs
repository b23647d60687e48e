//! Evolutionary computation on pluggable parallelisation: the same GA runs
//! sequentially, on a thread team, and as a distributed island model — then
//! survives a simulated resource failure via checkpoint/restart.
//!
//! ```text
//! cargo run --release --example evo_islands
//! ```

use std::sync::Arc;

use ppar_suite::adapt::{launch, AppStatus, Deploy};
use ppar_suite::core::plan::Plan;
use ppar_suite::core::run_sequential;
use ppar_suite::dsm::{run_spmd_plain, SpmdConfig};
use ppar_suite::evo::{ga_pluggable, plan_ckpt, plan_islands, plan_smp, GaConfig};
use ppar_suite::smp::run_smp;

fn main() {
    let mut cfg = GaConfig::new(256, 16, 60);
    cfg.islands = 4;

    let c1 = cfg.clone();
    let seq = run_sequential(Arc::new(Plan::new()), None, None, move |ctx| {
        ga_pluggable(ctx, &c1)
    });
    println!(
        "sequential      : best {:.4}, mean {:.4}",
        seq.best, seq.mean
    );

    let c2 = cfg.clone();
    let smp = run_smp(Arc::new(plan_smp()), 8, None, None, move |ctx| {
        ga_pluggable(ctx, &c2)
    });
    println!(
        "8-thread team   : best {:.4}, mean {:.4}",
        smp.best, smp.mean
    );

    let c3 = cfg.clone();
    let islands = run_spmd_plain(
        &SpmdConfig::instant(4),
        Arc::new(plan_islands()),
        move |ctx| ga_pluggable(ctx, &c3),
    );
    println!(
        "4-island model  : best {:.4}, mean {:.4}",
        islands[0].best, islands[0].mean
    );

    assert_eq!(seq.best, smp.best, "team run must match sequential");
    assert_eq!(seq.best, islands[0].best, "islands must match sequential");

    // Checkpoint/restart: crash after generation 35, resume, same answer.
    let dir = std::env::temp_dir().join("ppar_example_evo");
    let _ = std::fs::remove_dir_all(&dir);
    let plan = Plan::new().merge(plan_ckpt(10));
    let mut crashing = cfg.clone();
    crashing.fail_after = Some(35);
    launch(&Deploy::Seq, plan.clone(), Some(&dir), None, |ctx| {
        (AppStatus::Crashed, ga_pluggable(ctx, &crashing))
    })
    .expect("crash run");
    let report = launch(&Deploy::Seq, plan, Some(&dir), None, |ctx| {
        (AppStatus::Completed, ga_pluggable(ctx, &cfg))
    })
    .expect("restart run");
    let best = report.results[0].1.best;
    println!(
        "after crash+restart: best {best:.4} (replayed {} safe points)",
        report.stats.expect("checkpoint stats").replayed_points
    );
    assert_eq!(best, seq.best, "restart must not change evolution");
    let _ = std::fs::remove_dir_all(&dir);
    println!("all deployments evolve identically ✓");
}
