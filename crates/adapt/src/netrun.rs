//! Multi-process deployment: run one rank of a real TCP-connected job.
//!
//! This is the process-backed sibling of [`crate::launcher::launch`]'s
//! `Dist` arm. The launcher cannot ship an application closure to another
//! OS process, so the deployment splits in two:
//!
//! * the **driver** (any process, typically the parent) launches N copies
//!   of a binary with [`ppar_net::spawn_local_cluster`] and, for crash
//!   recovery, runs them under [`ppar_net::run_cluster_supervised`]: a dead
//!   non-root rank is respawned alone and rejoins the live mesh while the
//!   respawn budget lasts, then the whole job is relaunched
//!   ([`ppar_net::run_cluster_until_complete`]: no respawn budget);
//! * each **rank process** calls [`run_net_rank`] with the same plan and
//!   app closure: it bootstraps a [`TcpFabric`] from the `PPAR_*`
//!   environment contract, builds the same [`ppar_dsm::HybridEngine`] at
//!   team width one over it, and runs the app exactly as the simulated
//!   deployment would — bitwise-identical results, mode tag `tcpN`.
//!
//! ## Checkpointing across processes
//!
//! Rank 0 owns the durable [`ppar_ckpt::CheckpointStore`] directory and
//! runs the start-up failure-detection pass **once**, then broadcasts
//! `(detected_failure, replay_target, region cursor)` over the fabric —
//! re-deriving the decision per process would race the run marker rank 0
//! sets, the same race [`CheckpointModule::create_group`] prevents
//! between threads, and the piggybacked `PPARPRG1` cursor lets every
//! worker fast-forward its loops without reading a snapshot remotely.
//! Workers persist through a [`NetTransport`] client; rank 0's
//! [`CkptService`] receives their shard/delta records (CRC-verified) and
//! forwards them into the store, so one directory holds the whole job's
//! chains and a restart can stream state root → rank over the same
//! frames.
//!
//! ## In-job recovery (resilient mode)
//!
//! Under a resilient fabric (`PPAR_NET_RESILIENT=1`, set by the
//! supervisor) a peer death no longer kills this process. The engine's
//! safe-point fault poll, or a collective receive failing under the fault,
//! leaves the attempt with [`Exit::Fault`]; [`run_net_rank`] catches it,
//! synchronises with the survivors and the respawned rank through
//! [`TcpFabric::recover`], and re-runs the app in-process: rank 0
//! re-detects the (uncleared) run marker and everyone replays to the last
//! group-committed safe point. The [`CkptService`] and each worker's
//! checkpoint client survive across attempts — in particular the
//! [`MirrorTransport`], whose locally-held shard generations make a
//! survivor's rollback restore a memory read instead of a root
//! round-trip. An attempt that *returns* an error while the fault is
//! pending (the completion round, module creation) recovers the same way;
//! a panic that is not an [`Exit`] is a bug and is never retried. Any
//! failure *of recovery itself* escalates: the process exits nonzero and
//! the supervisor falls back to a whole-job relaunch.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ppar_ckpt::hook::{CheckpointModule, CkptStats};
use ppar_ckpt::transport::CkptTransport;
use ppar_core::ctx::{run_on, CkptHook, Ctx};
use ppar_core::error::{PparError, Result};
use ppar_core::plan::Plan;
use ppar_core::runtime::{catch_exit, leave, Exit};
use ppar_dsm::{Endpoint, Fabric, HybridEngine, Traffic};
use ppar_net::{ChaosConfig, ChaosFabric, CkptService, MirrorTransport, NetTransport, TcpFabric};

pub use ppar_net::{
    free_loopback_addr, run_cluster_supervised, run_cluster_until_complete, spawn_local_cluster,
    ClusterSpec, LocalCluster, NetConfig, SupervisorReport,
};

use crate::launcher::AppStatus;

/// In-process recovery attempts before this rank gives up and escalates
/// to the supervisor's whole-job relaunch (a fault storm this deep means
/// the failure is not confined to single ranks).
const MAX_RECOVERIES: usize = 8;

/// Tag of the resilient completion round (see [`confirm_completion`]).
/// A plain (non-user, non-checkpoint, non-control) tag: stale frames are
/// swept by the recovery purge and the waits fail fast under a pending
/// fault — which is the whole point.
const DONE_TAG: u64 = 1 << 59;

/// Confirm job-wide completion before a resilient rank retires.
///
/// The final collect is a send-only gather for workers, so without this
/// round a fast worker could finish its attempt and exit in the window
/// between a peer's death and the fault flag reaching this process —
/// leaving the survivors' recovery waiting forever on a rank that
/// already left. The round (workers → root, root → workers) fails fast
/// when a fault is pending, throwing the completed-but-needed rank back
/// into the recovery loop with everyone else.
fn confirm_completion(fabric: &Arc<dyn Fabric>, rank: usize, nranks: usize) -> Result<()> {
    if rank == 0 {
        for src in 1..nranks {
            fabric.recv(0, src, DONE_TAG)?;
        }
        for dst in 1..nranks {
            fabric.send(0, dst, DONE_TAG, Vec::new().into());
        }
    } else {
        fabric.send(rank, 0, DONE_TAG, Vec::new().into());
        fabric.recv(rank, 0, DONE_TAG)?;
    }
    Ok(())
}

/// The deployment tag of a real multi-process TCP job (`tcp4`), the
/// process-backed entry in the launcher's deploy vocabulary (`seq`,
/// `smpN`, `distP`, `hybPxT`, `tcpP`).
pub fn net_tag(nranks: usize) -> String {
    format!("tcp{nranks}")
}

/// Outcome of one rank process of a multi-process launch.
pub struct NetRankOutcome<R> {
    /// This process's rank.
    pub rank: usize,
    /// Aggregate size.
    pub nranks: usize,
    /// The application's exit status for this rank.
    pub status: AppStatus,
    /// The application result.
    pub result: R,
    /// Did this launch replay a previous failure (process restart or
    /// in-job recovery)?
    pub replayed: bool,
    /// In-process recovery rounds this rank went through (0 = fault-free).
    pub recoveries: usize,
    /// This rank's checkpoint statistics, when checkpointing was plugged.
    pub stats: Option<CkptStats>,
    /// This rank's fabric traffic (sent frames/bytes — aggregate across
    /// ranks by summing, exactly like the simulated counters).
    pub traffic: Traffic,
    /// Wall time of this rank's run.
    pub elapsed: std::time::Duration,
}

impl<R> NetRankOutcome<R> {
    /// The deployment tag (`tcpN`).
    pub fn tag(&self) -> String {
        net_tag(self.nranks)
    }
}

/// One execution attempt: build the per-attempt engine stack (endpoint,
/// checkpoint module, context) and run the app. On rank 0 the first
/// attempt also starts the checkpoint service; later attempts reuse it
/// (the service is attempt-agnostic — its lanes key on source rank).
#[allow(clippy::too_many_arguments)]
fn run_attempt<R>(
    cfg: &NetConfig,
    plan: &Arc<Plan>,
    ckpt_dir: Option<&Path>,
    worker_transport: &Option<Arc<dyn CkptTransport>>,
    dyn_fabric: &Arc<dyn Fabric>,
    service: &mut Option<CkptService>,
    confirm: bool,
    app: &impl Fn(&Ctx) -> (AppStatus, R),
) -> Result<(AppStatus, R, Option<Arc<CheckpointModule>>)> {
    let ep = Endpoint::new(dyn_fabric.clone(), cfg.rank);

    // Checkpoint module + one-shot replay-state coordination (root
    // detects, everyone else hears about it before the first safe point).
    // On a recovery attempt the run marker is still set — rank 0
    // re-detects it and the whole aggregate replays to the last
    // group-committed safe point.
    let module: Option<Arc<CheckpointModule>> = match ckpt_dir {
        None => None,
        Some(dir) if cfg.rank == 0 => {
            let module = CheckpointModule::create(dir, plan)?;
            // The `PPARPRG1` region cursor of the snapshot being replayed
            // to rides the same broadcast as the replay decision: workers
            // fast-forward their loops without a network read.
            let prog = module.resume_progress_bytes();
            let mut state = Vec::with_capacity(13 + prog.len());
            state.push(module.detected_failure() as u8);
            state.extend_from_slice(&module.replay_target().to_le_bytes());
            state.extend_from_slice(&(prog.len() as u32).to_le_bytes());
            state.extend_from_slice(&prog);
            if cfg.nranks > 1 {
                ep.bcast(0, Some(state));
                if service.is_none() {
                    *service = Some(NetTransport::serve(
                        dyn_fabric.clone(),
                        0,
                        Arc::new(module.store().clone()),
                    ));
                }
            }
            Some(module)
        }
        Some(_) => {
            let state = ep.bcast(0, None);
            let prog_len = (state.len() >= 13)
                .then(|| u32::from_le_bytes(state[9..13].try_into().expect("4-byte len")) as usize);
            if prog_len.is_none_or(|n| state.len() != 13 + n) {
                return Err(PparError::Network(
                    "malformed replay-state broadcast from rank 0".into(),
                ));
            }
            let detected = state[0] != 0;
            let target = u64::from_le_bytes(state[1..9].try_into().expect("8-byte target"));
            let transport = worker_transport
                .clone()
                .expect("worker checkpoint transport exists when ckpt_dir is set");
            Some(CheckpointModule::create_worker(
                transport,
                plan,
                detected,
                target,
                &state[13..],
            ))
        }
    };

    // Run-time adaptation of a process aggregate goes through the cluster
    // driver's restart path; no controller is installed.
    let ckpt = module.clone().map(|m| m as Arc<dyn CkptHook>);
    let engine = HybridEngine::new(ep, 1);
    let (status, result) = run_on(engine, plan.clone(), ckpt, None, |ctx| -> Result<_> {
        let (status, result) = app(ctx);
        if status == AppStatus::Completed {
            // Resilient ranks confirm the *whole job* completed before the
            // run marker is cleared and anyone retires; a failure here means
            // a peer died late and this rank is still needed for recovery.
            if confirm {
                confirm_completion(dyn_fabric, cfg.rank, cfg.nranks)?;
            }
            ctx.finish();
        }
        Ok((status, result))
    })?;
    Ok((status, result, module))
}

/// Run one attempt and say how it ended: `Ok(Some(done))` — it finished;
/// `Ok(None)` — a peer fault ended it ([`Exit::Fault`], or an `Err` return
/// with the fault pending): recover and retry; `Err` — it failed with the
/// mesh healthy. Any other unwind keeps going, fault pending or not.
fn attempt_outcome<T>(
    fault_pending: impl FnOnce() -> bool,
    attempt: impl FnOnce() -> Result<T>,
) -> Result<Option<T>> {
    match catch_exit(attempt) {
        Ok(Ok(done)) => Ok(Some(done)),
        Err(Exit::Fault) => Ok(None),
        Ok(Err(_)) if fault_pending() => Ok(None),
        Ok(Err(e)) => Err(e),
        Err(other) => leave(other),
    }
}

/// Run this process as one rank of a TCP-connected SPMD job.
///
/// `cfg` usually comes from [`NetConfig::from_env`]. `ckpt_dir` plugs
/// checkpointing; **every rank must pass the same choice** (the directory
/// itself is only opened on rank 0 — workers reach it through the
/// fabric). The app returns its status exactly as under
/// [`crate::launcher::launch`]: `Completed` clears the run marker,
/// `Crashed` leaves it for the next launch to detect.
///
/// `app` is `Fn` (not `FnOnce`): under a resilient fabric it re-runs
/// after in-job recovery, replaying from the last durable checkpoint
/// (see the [module docs](self)).
pub fn run_net_rank<R>(
    cfg: &NetConfig,
    plan: Plan,
    ckpt_dir: Option<&Path>,
    app: impl Fn(&Ctx) -> (AppStatus, R),
) -> Result<NetRankOutcome<R>> {
    let start = Instant::now();
    let fabric = TcpFabric::connect(cfg)?;
    let base_fabric: Arc<dyn Fabric> = fabric.clone();
    // Deterministic fault injection wraps the real fabric when the
    // PPAR_CHAOS_* contract is armed (chaos soaks and the recovery bench).
    let dyn_fabric: Arc<dyn Fabric> = match ChaosConfig::from_env() {
        Some(chaos) => Arc::new(ChaosFabric::new(base_fabric, cfg.rank, chaos)),
        None => base_fabric,
    };
    let plan = Arc::new(plan);

    // Worker-side checkpoint client, created once and kept across
    // recovery attempts. Resilient workers mirror their full shard saves
    // locally: after a rollback the survivor's count-pinned restore is a
    // local memory read, so recovery traffic scales with the one lost
    // shard instead of the whole aggregate.
    let worker_transport: Option<Arc<dyn CkptTransport>> = match ckpt_dir {
        Some(_) if cfg.rank != 0 => {
            let net: Arc<dyn CkptTransport> =
                Arc::new(NetTransport::client(dyn_fabric.clone(), cfg.rank));
            Some(if cfg.resilient {
                Arc::new(MirrorTransport::new(net))
            } else {
                net
            })
        }
        _ => None,
    };

    let mut service: Option<CkptService> = None;
    let mut recoveries = 0usize;
    // A respawned rank arrives with the mesh already re-armed around it;
    // it still owes the survivors its READY/GO round before anyone
    // resumes.
    let mut need_recovery = cfg.rejoin;

    let (status, result, module) = loop {
        if std::mem::take(&mut need_recovery) {
            // A recovery failure (second death mid-recovery, deadline)
            // escalates: this process exits nonzero and the supervisor
            // falls back to a whole-job relaunch.
            fabric.recover(cfg.recv_timeout)?;
        }
        let attempt = attempt_outcome(
            || fabric.fault_pending(),
            || {
                run_attempt(
                    cfg,
                    &plan,
                    ckpt_dir,
                    &worker_transport,
                    &dyn_fabric,
                    &mut service,
                    fabric.resilient() && cfg.nranks > 1,
                    &app,
                )
            },
        )?;
        if let Some(done) = attempt {
            break done;
        }
        recoveries += 1;
        if recoveries > MAX_RECOVERIES {
            return Err(PparError::Network(format!(
                "rank {}: giving up after {MAX_RECOVERIES} in-job recoveries; \
                 escalating to full relaunch",
                cfg.rank
            )));
        }
        need_recovery = true;
    };

    // By the time this rank's app returned, its checkpoint RPCs have all
    // been acknowledged (puts are synchronous and happen inside quiesced
    // safe points), so the root's service has nothing of ours in flight.
    if let Some(service) = service.take() {
        service.stop();
    }
    let replayed = module.as_ref().map(|m| m.will_replay()).unwrap_or(false);
    let traffic = fabric.traffic();
    fabric.shutdown();
    Ok(NetRankOutcome {
        rank: cfg.rank,
        nranks: cfg.nranks,
        status,
        result,
        replayed,
        recoveries,
        stats: module.map(|m| m.stats()),
        traffic,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net_err() -> PparError {
        PparError::Network("peer went away".into())
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn a_bug_under_a_pending_fault_propagates_instead_of_being_retried() {
        let _ = attempt_outcome(|| true, || -> Result<()> { panic!("boom") });
    }

    #[test]
    fn the_fault_exit_is_retried_and_other_exits_keep_unwinding() {
        let retried = attempt_outcome(|| false, || -> Result<()> { leave(Exit::Fault) });
        assert!(matches!(retried, Ok(None)));
        let drained =
            catch_exit(|| attempt_outcome(|| true, || -> Result<()> { leave(Exit::Drained) }));
        assert_eq!(drained.err(), Some(Exit::Drained));
    }

    #[test]
    fn an_error_return_is_a_fault_only_while_one_is_pending() {
        assert!(matches!(
            attempt_outcome(|| true, || Err::<(), _>(net_err())),
            Ok(None)
        ));
        assert!(matches!(
            attempt_outcome(|| false, || Err::<(), _>(net_err())),
            Err(PparError::Network(_))
        ));
        assert!(matches!(attempt_outcome(|| true, || Ok(7)), Ok(Some(7))));
    }
}
