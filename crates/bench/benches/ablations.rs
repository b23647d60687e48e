//! Ablation benches for two design choices: master-collect vs
//! local-snapshot distributed checkpointing, and barrier cost.

use criterion::{criterion_group, criterion_main, Criterion};
use ppar_adapt::{launch, AppStatus, Deploy};
use ppar_core::plan::DistCkptStrategy;
use ppar_core::runtime::TeamBarrier;
use ppar_dsm::SpmdConfig;
use ppar_jgf::sor::pluggable::{plan_ckpt_with_strategy, plan_dist, sor_pluggable};
use ppar_jgf::sor::SorParams;
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablations");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));

    // Ablation 1: distributed checkpoint strategy.
    for (name, strategy) in [
        ("dist_ckpt_master_collect", DistCkptStrategy::MasterCollect),
        ("dist_ckpt_local_snapshot", DistCkptStrategy::LocalSnapshot),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let dir = std::env::temp_dir()
                    .join(format!("ppar_abl_{name}_{:?}", std::thread::current().id()));
                let _ = std::fs::remove_dir_all(&dir);
                let out = launch(
                    &Deploy::Dist(SpmdConfig::instant(4)),
                    plan_dist().merge(plan_ckpt_with_strategy(4, strategy)),
                    Some(&dir),
                    None,
                    |ctx| {
                        (
                            AppStatus::Completed,
                            sor_pluggable(ctx, &SorParams::new(128, 8)),
                        )
                    },
                )
                .unwrap();
                let _ = std::fs::remove_dir_all(&dir);
                out.results.len()
            })
        });
    }

    // Ablation 2: team barrier crossing cost (8 threads, 100 generations).
    g.bench_function("barrier_8x100", |b| {
        b.iter(|| {
            let bar = Arc::new(TeamBarrier::new(8));
            std::thread::scope(|s| {
                for _ in 0..8 {
                    let bar = bar.clone();
                    s.spawn(move || {
                        for _ in 0..100 {
                            bar.wait();
                        }
                    });
                }
            });
        })
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
