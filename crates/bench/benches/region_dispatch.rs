//! Region fork/join + barrier microbench of the unified team runtime
//! (slot dispatch onto persistent workers + sense-reversing spin-then-park
//! barrier).
//!
//! Each measured iteration forks a team of `K` workers, crosses
//! `BARRIERS_PER_REGION` team barriers in the body, and joins — the
//! per-region overhead the paper's iterative kernels pay once per sweep.
//! The trajectory of these two costs lives in the ledger's
//! `core.region_forkjoin_us` / `core.each_barrier_us`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

use ppar_core::ctx::{Ctx, RunShared};
use ppar_core::plan::{Plan, Plug};
use ppar_core::runtime::TeamEngine;
use ppar_core::state::Registry;

const BARRIERS_PER_REGION: usize = 8;

/// One region: fork `team` workers, cross `BARRIERS_PER_REGION` barriers,
/// join.
fn runtime_region(ctx: &Ctx) {
    ctx.region("r", |ctx| {
        for _ in 0..BARRIERS_PER_REGION {
            ctx.barrier();
        }
    });
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("region_dispatch");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));

    for team in [4usize, 8] {
        let plan = Arc::new(Plan::new().plug(Plug::ParallelMethod { method: "r".into() }));
        let engine = TeamEngine::fixed(team);
        let shared = RunShared::new(plan, Arc::new(Registry::new()), engine, None, None);
        let ctx = Ctx::new_root(shared);
        g.bench_function(format!("unified_slot_sense_{team}w"), |b| {
            b.iter(|| runtime_region(&ctx))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
