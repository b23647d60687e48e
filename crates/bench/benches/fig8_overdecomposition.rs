//! Fig. 8 spot benches.
//!
//! Two stories share this figure:
//!
//! * **Over-decomposition** (the paper's baseline adaptability mechanism):
//!   `of × 8` simulated processes over-subscribed onto 8 PEs.
//! * **Work-sharing schedules on an imbalanced loop**: the unified team
//!   runtime's dynamic/guided claiming (cache-line-padded shared cursors)
//!   against static block assignment. The iteration cost is latency-bound
//!   (simulated waits, like the repo's network model), growing linearly
//!   with the index — the triangular profile that makes static block
//!   scheduling serialise on its tail while dynamic/guided claiming keeps
//!   every worker busy. Dynamic and guided must visibly beat `Block` here;
//!   a regression means construct dispatch overhead is eating the win.
//!
//! Setting `PPAR_FIG8_SMOKE=1` (the CI arm) shrinks every shape: one small
//! over-decomposition factor and one small imbalanced loop per schedule
//! kind, asserting coverage rather than measuring steady-state time.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ppar_adapt::{launch, overdecomposed, AppStatus, Deploy};
use ppar_core::plan::{Plan, Plug};
use ppar_core::runtime::run_smp;
use ppar_core::schedule::Schedule;
use ppar_dsm::NetModel;
use ppar_jgf::sor::pluggable::{plan_dist, sor_pluggable};
use ppar_jgf::sor::SorParams;

fn smoke() -> bool {
    std::env::var("PPAR_FIG8_SMOKE").is_ok_and(|v| v == "1")
}

/// The imbalanced workload: iteration `i` waits `(i + 1) × base` (a
/// simulated remote operation whose cost grows with the index).
fn imbalanced_loop(schedule: Schedule, threads: usize, n: usize, base: Duration) -> usize {
    let plan = Arc::new(
        Plan::new()
            .plug(Plug::ParallelMethod {
                method: "imb_run".into(),
            })
            .plug(Plug::For {
                loop_name: "imb".into(),
                schedule,
            }),
    );
    let executed = Arc::new(AtomicUsize::new(0));
    let ex = executed.clone();
    run_smp(plan, threads, None, None, move |ctx| {
        ctx.region("imb_run", |ctx| {
            ctx.each("imb", 0..n, |_, i| {
                std::thread::sleep(base * (i as u32 + 1));
                ex.fetch_add(1, Ordering::Relaxed);
            });
        });
    });
    executed.load(Ordering::Relaxed)
}

fn schedule_kinds() -> [(&'static str, Schedule); 5] {
    [
        ("static_block", Schedule::Block),
        ("static_cyclic", Schedule::Cyclic),
        ("static_blockcyclic4", Schedule::BlockCyclic { chunk: 4 }),
        ("dynamic4", Schedule::Dynamic { chunk: 4 }),
        ("guided2", Schedule::Guided { min_chunk: 2 }),
    ]
}

fn bench(c: &mut Criterion) {
    let smoke = smoke();

    // --- work-sharing schedules on the imbalanced loop ---
    {
        let mut g = c.benchmark_group("fig8_schedules");
        g.sample_size(10);
        g.measurement_time(Duration::from_secs(if smoke { 1 } else { 3 }));
        let threads = 4usize;
        let (n, base) = if smoke {
            (24usize, Duration::from_micros(2))
        } else {
            (64usize, Duration::from_micros(10))
        };
        for (label, schedule) in schedule_kinds() {
            g.bench_function(format!("{label}_{threads}w"), |b| {
                b.iter(|| {
                    let executed = imbalanced_loop(schedule, threads, n, base);
                    assert_eq!(executed, n, "{label}: exactly-once coverage");
                    executed
                })
            });
        }
        g.finish();
    }

    // --- over-decomposition on the distributed engine ---
    {
        let mut g = c.benchmark_group("fig8_overdecomposition");
        g.sample_size(10);
        g.measurement_time(Duration::from_secs(if smoke { 1 } else { 3 }));
        let factors: &[usize] = if smoke { &[2] } else { &[1, 4, 8] };
        let params = if smoke {
            SorParams::new(48, 3)
        } else {
            SorParams::new(128, 8)
        };
        for &of in factors {
            let params = params.clone();
            g.bench_function(format!("of{of}_on_8pe"), |b| {
                b.iter(|| {
                    let cfg = overdecomposed(8, of, NetModel::default());
                    launch(&Deploy::Dist(cfg), plan_dist(), None, None, |ctx| {
                        (AppStatus::Completed, sor_pluggable(ctx, &params))
                    })
                    .unwrap()
                })
            });
        }
        g.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
