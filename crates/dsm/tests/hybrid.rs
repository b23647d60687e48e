//! Hybrid-engine construct semantics: plan-plugged barriers are
//! aggregate-wide, delegated methods keep non-delegate ranks aligned,
//! reductions combine across teams *and* ranks, and a pending peer fault
//! stops every line of execution at its next point.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ppar_core::error::{PparError, Result};
use ppar_core::plan::{Plan, Plug, PointSet, ReduceOp};
use ppar_core::runtime::{catch_exit, Exit};
use ppar_dsm::{run_hybrid, Endpoint, Fabric, HybridEngine, Payload, SpmdConfig, Traffic};

#[test]
fn plugged_barrier_aligns_whole_aggregate() {
    // 2 ranks x 2 workers. Every line of execution increments the counter
    // before calling "phase"; the plugged barrier-before must align ALL
    // four lines (not just the local team) before any body runs.
    let plan = Arc::new(
        Plan::new()
            .plug(Plug::ParallelMethod { method: "r".into() })
            .plug(Plug::Barrier {
                method: "phase".into(),
                before: true,
                after: true,
            }),
    );
    let arrived = Arc::new(AtomicUsize::new(0));
    let arrived2 = arrived.clone();
    run_hybrid(
        &SpmdConfig::instant(2),
        2,
        plan,
        &|_| (None, None),
        true,
        move |ctx| {
            ctx.region("r", |ctx| {
                for round in 1..=10usize {
                    arrived2.fetch_add(1, Ordering::SeqCst);
                    ctx.call("phase", |_| {
                        let seen = arrived2.load(Ordering::SeqCst);
                        assert!(
                            seen >= round * 4,
                            "round {round}: barrier released after {seen} arrivals \
                             (all 4 lines across both ranks must have arrived)"
                        );
                    });
                }
            });
        },
    );
    assert_eq!(arrived.load(Ordering::SeqCst), 40);
}

#[test]
fn delegated_method_keeps_other_ranks_at_the_barrier() {
    // "phase" is delegated to element 1 with a barrier before: element 0's
    // team must still participate in the aggregate barrier even though it
    // skips the body.
    let plan = Arc::new(
        Plan::new()
            .plug(Plug::ParallelMethod { method: "r".into() })
            .plug(Plug::OnElement {
                method: "phase".into(),
                id: 1,
            })
            .plug(Plug::Barrier {
                method: "phase".into(),
                before: true,
                after: false,
            }),
    );
    let arrived = Arc::new(AtomicUsize::new(0));
    let ran_on = Arc::new(ppar_core::sync::Mutex::new(Vec::new()));
    let (a2, r2) = (arrived.clone(), ran_on.clone());
    run_hybrid(
        &SpmdConfig::instant(2),
        2,
        plan,
        &|_| (None, None),
        true,
        move |ctx| {
            ctx.region("r", |ctx| {
                a2.fetch_add(1, Ordering::SeqCst);
                ctx.call("phase", |ctx| {
                    assert_eq!(
                        a2.load(Ordering::SeqCst),
                        4,
                        "barrier-before must align every line of both ranks"
                    );
                    r2.lock().push(ctx.rank());
                });
            });
        },
    );
    let ran_on = ran_on.lock().clone();
    assert!(!ran_on.is_empty(), "the delegate executed the body");
    assert!(
        ran_on.iter().all(|&r| r == 1),
        "only element 1 runs a method delegated to it: {ran_on:?}"
    );
}

#[test]
fn reduce_combines_across_teams_and_ranks() {
    let plan = Arc::new(Plan::new().plug(Plug::ParallelMethod { method: "r".into() }));
    let results = Arc::new(ppar_core::sync::Mutex::new(Vec::new()));
    let r2 = results.clone();
    run_hybrid(
        &SpmdConfig::instant(2),
        2,
        plan,
        &|_| (None, None),
        true,
        move |ctx| {
            ctx.region("r", |ctx| {
                let total = ctx.reduce_f64("sum", ReduceOp::Sum, 1.0);
                r2.lock().push(total);
            });
        },
    );
    let results = results.lock().clone();
    assert_eq!(results.len(), 4, "2 ranks x 2 workers");
    assert!(
        results.iter().all(|&v| v == 4.0),
        "every line sees the aggregate-wide combined value: {results:?}"
    );
}

/// A one-rank fabric whose failure detector has already fired.
struct FaultPending;

impl Fabric for FaultPending {
    fn describe(&self) -> &'static str {
        "stub"
    }
    fn nranks(&self) -> usize {
        1
    }
    fn send(&self, _src: usize, _dst: usize, _tag: u64, _payload: Payload) {}
    fn recv(&self, _dst: usize, _src: usize, _tag: u64) -> Result<Payload> {
        Err(PparError::Network("stub fabric has no peers".into()))
    }
    fn recv_any(&self, _dst: usize, _tag: u64) -> Result<(usize, Payload)> {
        Err(PparError::Network("stub fabric has no peers".into()))
    }
    fn probe(&self, _dst: usize, _src: usize, _tag: u64) -> bool {
        false
    }
    fn traffic(&self) -> Traffic {
        Traffic::default()
    }
    fn fault_pending(&self) -> bool {
        true
    }
}

#[test]
fn pending_fault_unwinds_every_worker_at_the_next_safe_point() {
    // The failure-detector poll belongs to every aggregate deployment, not
    // only to the width-one one: with a fault pending, neither worker of a
    // team of two may get past its next safe point.
    let plan = Arc::new(
        Plan::new()
            .plug(Plug::ParallelMethod { method: "r".into() })
            .plug(Plug::SafePoints {
                points: PointSet::Named(vec!["sp".into()]),
                every: 0,
            }),
    );
    let engine = HybridEngine::new(Endpoint::new(Arc::new(FaultPending), 0), 2);
    let (reached, passed) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let outcome = catch_exit(|| {
        ppar_core::run_on(engine, plan, None, None, |ctx| {
            ctx.region("r", |ctx| {
                reached.fetch_add(1, Ordering::SeqCst);
                ctx.point("sp");
                passed.fetch_add(1, Ordering::SeqCst);
            });
        })
    });
    // The typed exit, not a message: `launch` recovers a `tcp` round on exactly
    // this payload and lets every other panic through.
    assert_eq!(outcome, Err(Exit::Fault), "the region must leave");
    assert_eq!(reached.load(Ordering::SeqCst), 2);
    assert_eq!(passed.load(Ordering::SeqCst), 0, "a worker sailed through");
}
