//! Fig. 7 spot benches: run-time team expansion vs fixed teams.

use criterion::{criterion_group, criterion_main, Criterion};
use ppar_adapt::{launch, AdaptationController, AppStatus, Deploy, ResourceTimeline};
use ppar_core::mode::ExecMode;
use ppar_core::runtime::run_smp;
use ppar_jgf::sor::pluggable::{plan_ckpt, plan_smp, sor_pluggable};
use ppar_jgf::sor::SorParams;
use std::sync::Arc;

fn params() -> SorParams {
    SorParams::new(160, 16)
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7_adapt_vs_restart");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));

    g.bench_function("fixed_2", |b| {
        b.iter(|| {
            run_smp(Arc::new(plan_smp()), 2, None, None, |ctx| {
                sor_pluggable(ctx, &params())
            })
        })
    });
    g.bench_function("fixed_8", |b| {
        b.iter(|| {
            run_smp(Arc::new(plan_smp()), 8, None, None, |ctx| {
                sor_pluggable(ctx, &params())
            })
        })
    });
    g.bench_function("runtime_expand_2_to_8", |b| {
        b.iter(|| {
            let controller = AdaptationController::with_timeline(
                ResourceTimeline::new().at(4, ExecMode::smp(8)),
            );
            launch(
                &Deploy::Smp {
                    threads: 2,
                    max_threads: 8,
                },
                plan_smp().merge(plan_ckpt(0)),
                None,
                Some(controller),
                |ctx| (AppStatus::Completed, sor_pluggable(ctx, &params())),
            )
            .unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
