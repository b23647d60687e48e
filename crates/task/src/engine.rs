//! The task engine: the team engine with a quiescence guarantee.
//!
//! There is no separate engine type. The task engine is
//! [`TeamEngine`] built with [`assert_quiescent`] as its safe-point check
//! (same persistent worker pool, same construct dispatch, same reshape
//! rules), so every safe-point crossing first proves that every live
//! [`GraphRun`](crate::run::GraphRun) is drained — no task outstanding, no
//! deque holding work. Only then is the checkpoint directive polled, which
//! is what makes a snapshot of the serialized
//! [`TaskFrontier`](crate::frontier::TaskFrontier) a *stable* frontier
//! rather than a torn one.
//!
//! Everything downstream of the check is the team engine's: master-save
//! between two team barriers, restart replay, live expansion/contraction
//! at safe points, escalation to relaunch (checkpoint/restart or armed
//! hand-off) for targets the local team cannot realise.

use std::sync::Arc;

use ppar_core::ctx::{run_on, AdaptHook, CkptHook, Ctx};
use ppar_core::plan::Plan;
use ppar_core::runtime::TeamEngine;

use crate::run::assert_quiescent;

/// Run `app` under `plan` on the task engine with a fixed team of
/// `workers`. Shorthand mirroring [`ppar_core::runtime::run_smp`]; the
/// adaptive launcher (`Deploy::Task`) lives in `ppar-adapt`.
pub fn run_tasks<R>(
    plan: Arc<Plan>,
    workers: usize,
    ckpt: Option<Arc<dyn CkptHook>>,
    adapt: Option<Arc<dyn AdaptHook>>,
    app: impl FnOnce(&Ctx) -> R,
) -> R {
    let engine = TeamEngine::with_quiescence(workers, workers, assert_quiescent);
    run_on(engine, plan, ckpt, adapt, |ctx| {
        let out = app(ctx);
        ctx.finish();
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TaskGraph;
    use crate::run::{GraphRun, Policy};
    use ppar_core::plan::Plug;
    use ppar_core::sync::{AtomicU64, Ordering};

    fn plan() -> Arc<Plan> {
        let mut p = Plan::new();
        p.add(Plug::ParallelMethod {
            method: "work".into(),
        });
        Arc::new(p)
    }

    /// Run `graph` once in a region and return the fold (every worker
    /// computes the same value; worker 0's copy is reported).
    fn graph_bits(
        run: Arc<GraphRun>,
        workers: Option<usize>,
        body: impl Fn(&Ctx, usize, usize) -> f64 + Sync + Send + 'static,
    ) -> u64 {
        let out = Arc::new(AtomicU64::new(0));
        let o = out.clone();
        let app = move |ctx: &Ctx| {
            ctx.region("work", |ctx| {
                let v = run.run(ctx, 1, &body);
                o.store(v.to_bits(), Ordering::Relaxed);
            });
        };
        match workers {
            None => ppar_core::ctx::run_sequential(plan(), None, None, app),
            Some(k) => run_tasks(plan(), k, None, None, app),
        }
        out.load(Ordering::Relaxed)
    }

    #[test]
    fn stolen_schedule_matches_sequential_bitwise() {
        let body = |_: &Ctx, t: usize, i: usize| ((t * 31 + i) as f64).sin();
        let graph = || GraphRun::new(TaskGraph::chunked(257, 8), Policy::Steal);
        let seq = graph_bits(graph(), None, body);
        for workers in [2, 4] {
            let par = graph_bits(graph(), Some(workers), body);
            assert_eq!(seq, par, "schedule changed the result at {workers} workers");
        }
    }

    #[test]
    fn static_block_matches_too() {
        let body = |_: &Ctx, t: usize, i: usize| 1.0 / ((t + i + 1) as f64);
        let mk = || GraphRun::new(TaskGraph::chunked(100, 7), Policy::StaticBlock);
        assert_eq!(
            graph_bits(mk(), None, body),
            graph_bits(mk(), Some(4), body)
        );
    }
}
