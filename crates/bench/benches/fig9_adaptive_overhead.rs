//! Fig. 9 spot benches: pluggable (adaptive-capable) versions vs
//! hand-written fixed versions — the "within 5%" claim.

use criterion::{criterion_group, criterion_main, Criterion};
use ppar_core::run_sequential;
use ppar_core::runtime::run_smp;
use ppar_dsm::SpmdConfig;
use ppar_jgf::sor::baseline::sor_threads;
use ppar_jgf::sor::pluggable::{plan_hybrid, plan_seq, plan_smp, sor_pluggable};
use ppar_jgf::sor::{sor_seq, SorParams};
use std::sync::Arc;

fn params() -> SorParams {
    SorParams::new(160, 10)
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9_adaptive_overhead");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(2));

    g.bench_function("hand_seq", |b| b.iter(|| sor_seq(&params())));
    g.bench_function("pluggable_seq", |b| {
        b.iter(|| {
            run_sequential(Arc::new(plan_seq()), None, None, |ctx| {
                sor_pluggable(ctx, &params())
            })
        })
    });
    g.bench_function("hand_threads_4", |b| b.iter(|| sor_threads(&params(), 4)));
    g.bench_function("pluggable_smp_4", |b| {
        b.iter(|| {
            run_smp(Arc::new(plan_smp()), 4, None, None, |ctx| {
                sor_pluggable(ctx, &params())
            })
        })
    });
    // The hybrid point of the mode matrix: 2 elements × 2-thread teams,
    // asserting the bitwise-sequential contract on every sample.
    let seq_checksum = sor_seq(&params()).checksum;
    g.bench_function("pluggable_hybrid_2x2", |b| {
        b.iter(|| {
            let results = ppar_dsm::run_hybrid(
                &SpmdConfig::instant(2),
                2,
                Arc::new(plan_hybrid()),
                &|_| (None, None),
                true,
                |ctx| sor_pluggable(ctx, &params()),
            );
            assert_eq!(results[0].checksum, seq_checksum);
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
