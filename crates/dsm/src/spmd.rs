//! The SPMD job runner: one thread per simulated aggregate element.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use ppar_core::ctx::{run_on, AdaptHook, CkptHook, Ctx};
use ppar_core::plan::Plan;

use crate::collective::Endpoint;
use crate::hybrid::HybridEngine;
use crate::net::SimNet;
use crate::topology::{NetModel, Topology};

/// Configuration of one simulated distributed job.
#[derive(Debug, Clone, Copy)]
pub struct SpmdConfig {
    /// The simulated cluster.
    pub topology: Topology,
    /// Number of aggregate elements (may exceed the core count: the
    /// over-decomposition experiment of Fig. 8 relies on over-subscription).
    pub nranks: usize,
    /// Link cost parameters.
    pub model: NetModel,
}

impl SpmdConfig {
    /// `nranks` elements on the paper's 2×24-core cluster with default
    /// link costs.
    pub fn paper(nranks: usize) -> SpmdConfig {
        SpmdConfig {
            topology: Topology::paper_cluster(),
            nranks,
            model: NetModel::default(),
        }
    }

    /// Functional-test configuration: free network on one node.
    pub fn instant(nranks: usize) -> SpmdConfig {
        SpmdConfig {
            topology: Topology::single_node(nranks),
            nranks,
            model: NetModel::instant(),
        }
    }
}

/// Per-rank hook factory: builds the checkpoint/adaptation modules for each
/// element (each element owns its own module instance, like a real process
/// would).
pub type HookFactory<'a> =
    &'a (dyn Fn(usize) -> (Option<Arc<dyn CkptHook>>, Option<Arc<dyn AdaptHook>>) + Sync);

/// Run `app` on every element of `net`'s aggregate: one thread per rank,
/// each with its own registry, [`HybridEngine`] (local team of `threads`,
/// reshapeable in place up to `max_threads`; one and one is the pure
/// distributed deployment) and hooks. Returns the per-rank results in rank
/// order. The caller keeps the `net` handle, so traffic counters survive
/// the run, and announces completion inside `app` ([`Ctx::finish`]).
///
/// A rank whose thread panics is marked down in `net`
/// ([`SimNet::mark_down`]), so a peer waiting on it fails its receive and
/// unwinds too instead of waiting for good. Every rank thread is joined;
/// if any panicked, the call unwinds with the payload of the
/// lowest-numbered rank whose panic did not follow a receive from a rank
/// already down, so the first cause's own message reaches the caller.
pub fn run_ranks<R: Send>(
    net: Arc<SimNet>,
    threads: usize,
    max_threads: usize,
    plan: Arc<Plan>,
    hooks: HookFactory<'_>,
    app: impl Fn(&Ctx) -> R + Sync,
) -> Vec<R> {
    let nranks = net.nranks();
    assert!(nranks >= 1, "need at least one rank");
    let mut out: Vec<Option<R>> = (0..nranks).map(|_| None).collect();
    let panicked = std::thread::scope(|scope| {
        let ranks: Vec<_> = out
            .iter_mut()
            .enumerate()
            .map(|(rank, slot)| {
                let net = net.clone();
                let plan = plan.clone();
                let app = &app;
                std::thread::Builder::new()
                    .name(format!("ppar-rank-{rank}"))
                    .spawn_scoped(scope, move || {
                        let ran = catch_unwind(AssertUnwindSafe(|| {
                            let ep = Endpoint::new(net.clone(), rank);
                            let engine = HybridEngine::with_headroom(ep, threads, max_threads);
                            let (ckpt, adapt) = hooks(rank);
                            *slot = Some(run_on(engine, plan, ckpt, adapt, app));
                        }));
                        if let Err(panic) = ran {
                            net.mark_down(rank);
                            resume_unwind(panic);
                        }
                    })
                    .expect("failed to spawn rank thread")
            })
            .collect();
        // Join them all before picking a panic: a rank left unjoined would
        // make the scope raise its own.
        let joined: Vec<_> = ranks.into_iter().map(|rank| rank.join()).collect();
        // The first cause: the lowest rank whose panic did not follow a
        // receive from a rank already down.
        let panics = joined.into_iter().enumerate();
        let panics = panics.filter_map(|(r, joined)| Some((net.saw_down(r), joined.err()?)));
        panics
            .min_by_key(|(followed, _)| *followed)
            .map(|(_, panic)| panic)
    });
    if let Some(panic) = panicked {
        resume_unwind(panic);
    }
    out.into_iter()
        .map(|o| o.expect("rank thread completed"))
        .collect()
}

/// Run `app` as a **hybrid** job: `cfg.nranks` aggregate elements on a
/// fresh simulated network, each running a local team of `threads` workers
/// over the shared [`ppar_core::runtime`] layer.
///
/// When `auto_finish` is set every rank announces completion (clearing the
/// run marker); crash-simulation drivers pass `false` and decide manually.
pub fn run_hybrid<R: Send>(
    cfg: &SpmdConfig,
    threads: usize,
    plan: Arc<Plan>,
    hooks: HookFactory<'_>,
    auto_finish: bool,
    app: impl Fn(&Ctx) -> R + Sync,
) -> Vec<R> {
    let net = SimNet::new(cfg.topology, cfg.nranks, cfg.model);
    run_ranks(net, threads, threads, plan, hooks, |ctx| {
        let out = app(ctx);
        if auto_finish {
            ctx.finish();
        }
        out
    })
}

/// Run `app` as an SPMD job: [`run_hybrid`] with one line of execution per
/// element.
pub fn run_spmd<R: Send>(
    cfg: &SpmdConfig,
    plan: Arc<Plan>,
    hooks: HookFactory<'_>,
    auto_finish: bool,
    app: impl Fn(&Ctx) -> R + Sync,
) -> Vec<R> {
    run_hybrid(cfg, 1, plan, hooks, auto_finish, app)
}

/// [`run_spmd`] without hooks.
pub fn run_spmd_plain<R: Send>(
    cfg: &SpmdConfig,
    plan: Arc<Plan>,
    app: impl Fn(&Ctx) -> R + Sync,
) -> Vec<R> {
    run_spmd(cfg, plan, &|_| (None, None), true, app)
}
