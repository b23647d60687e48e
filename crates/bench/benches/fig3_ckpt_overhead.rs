//! Fig. 3 spot benches: checkpoint-overhead cells (original vs invasive vs
//! pluggable, 0/1 snapshots) on representative environments.

use criterion::{criterion_group, criterion_main, Criterion};
use ppar_adapt::{launch, AppStatus, Deploy};
use ppar_jgf::sor::baseline::{sor_seq_invasive, sor_threads};
use ppar_jgf::sor::pluggable::{
    plan_ckpt, plan_ckpt_incremental, plan_seq, plan_smp, sor_pluggable,
};
use ppar_jgf::sor::{sor_seq, SorParams};

fn params() -> SorParams {
    SorParams::new(160, 10)
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig3_ckpt_overhead");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(2));

    g.bench_function("seq_original", |b| b.iter(|| sor_seq(&params())));

    let dir = std::env::temp_dir().join("ppar_crit_fig3_inv");
    g.bench_function("seq_invasive_0ckpt", |b| {
        b.iter(|| sor_seq_invasive(&params(), 0, &dir))
    });

    let dir2 = std::env::temp_dir().join("ppar_crit_fig3_pp");
    g.bench_function("seq_pp_0ckpt", |b| {
        b.iter(|| {
            launch(
                &Deploy::Seq,
                plan_seq().merge(plan_ckpt(0)),
                Some(&dir2),
                None,
                |ctx| (AppStatus::Completed, sor_pluggable(ctx, &params())),
            )
            .unwrap()
        })
    });

    // Incremental series: snapshot every 3 safe points (at 3, 6 and 9), each
    // save patching the one record; what the saves put flows into
    // CkptStats.bytes_put, which the fig3 table plots per save.
    let dir_incr = std::env::temp_dir().join("ppar_crit_fig3_incr");
    g.bench_function("seq_pp_incr_3ckpt", |b| {
        b.iter(|| {
            let out = launch(
                &Deploy::Seq,
                plan_seq().merge(plan_ckpt_incremental(3, 3)),
                Some(&dir_incr),
                None,
                |ctx| (AppStatus::Completed, sor_pluggable(ctx, &params())),
            )
            .unwrap();
            let stats = out.stats.as_ref().expect("ckpt stats");
            assert!(stats.snapshots_taken >= 1, "incremental arm saved");
            assert!(stats.bytes_put > 0 && stats.last_save_bytes > 0);
            out
        })
    });

    g.bench_function("smp4_original", |b| b.iter(|| sor_threads(&params(), 4)));

    let dir3 = std::env::temp_dir().join("ppar_crit_fig3_pp4");
    g.bench_function("smp4_pp_0ckpt", |b| {
        b.iter(|| {
            launch(
                &Deploy::Smp {
                    threads: 4,
                    max_threads: 4,
                },
                plan_smp().merge(plan_ckpt(0)),
                Some(&dir3),
                None,
                |ctx| (AppStatus::Completed, sor_pluggable(ctx, &params())),
            )
            .unwrap()
        })
    });
    g.finish();
    for d in [dir, dir2, dir3, dir_incr] {
        let _ = std::fs::remove_dir_all(d);
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
