//! Multi-process deployment: what a `tcp` rank's session holds.
//!
//! The launcher cannot ship an application closure to another OS process,
//! so a real TCP job splits in two. The **driver** (typically the parent)
//! launches N copies of a binary with [`ppar_net::spawn_local_cluster`]
//! and, for crash recovery, runs them under
//! [`ppar_net::run_cluster_supervised`]: a dead non-root rank is respawned
//! alone and rejoins the live mesh while the respawn budget lasts, then the
//! whole job is relaunched ([`ppar_net::run_cluster_until_complete`]: no
//! respawn budget). Each **rank process** calls [`crate::launch`] with
//! `Deploy::Tcp(cfg)`, the same plan and app closure — the one session
//! loop every deployment runs, over a [`ppar_dsm::HybridEngine`] at team
//! width one: bitwise-identical results, mode tag `tcpN`.
//!
//! This module is what that loop holds for a `tcp` rank across its rounds
//! (`NetSession`): the [`TcpFabric`] it connected once (under the chaos
//! wrapper when the `PPAR_CHAOS_*` contract is armed), a worker's
//! [`NetTransport`] client — mirrored by a [`MirrorTransport`] under a
//! resilient fabric, so a survivor's rollback restore is a memory read —
//! and rank 0's [`CkptService`], which forwards the workers' records into
//! the one store directory rank 0 owns. Each round rank 0 runs the
//! start-up failure detection **once** and sends every worker
//! `(detected_failure, replay_target, region cursor)` — re-deriving it per
//! process would race the run marker rank 0 sets, the race
//! [`CheckpointModule::create_group`] prevents between threads — or, when
//! it cannot build its module, a refusal carrying its error, with which
//! every rank ends.
//!
//! Under a resilient fabric (`PPAR_NET_RESILIENT=1`, set by the
//! supervisor) a peer death leaves the round with [`Exit::Fault`] — from
//! the engine's safe-point poll, a collective receive or the completion
//! round — with the fault pending: the loop recovers with the survivors and
//! the respawned rank, and the next round replays to the last
//! group-committed safe point. A failure *of recovery itself* (a second
//! death mid-recovery, a round that cannot hear the replay state, more
//! than 8 recoveries) ends the launch with an error: the process exits
//! nonzero and the supervisor falls back to a whole-job relaunch.

use std::path::Path;
use std::sync::Arc;

use ppar_ckpt::hook::CheckpointModule;
use ppar_ckpt::transport::CkptTransport;
use ppar_core::ctx::Engine;
use ppar_core::error::{PparError, Result};
use ppar_core::plan::Plan;
use ppar_core::runtime::{leave, Exit};
use ppar_dsm::{Endpoint, Fabric, HybridEngine, Traffic};
use ppar_net::{ChaosConfig, ChaosFabric, CkptService, MirrorTransport, NetTransport, TcpFabric};

pub use ppar_net::{
    free_loopback_addr, run_cluster_supervised, run_cluster_until_complete, spawn_local_cluster,
    ClusterSpec, LocalCluster, NetConfig, SupervisorReport,
};

/// In-process recovery rounds before this rank gives up and escalates
/// to the supervisor's whole-job relaunch (a fault storm this deep means
/// the failure is not confined to single ranks).
const MAX_RECOVERIES: usize = 8;

/// Tag of the resilient completion round (see
/// [`NetSession::confirm_completion`]). A plain (non-user, non-checkpoint,
/// non-control) tag: stale frames are swept by the recovery purge and the
/// waits fail fast under a pending fault — which is the whole point.
const DONE_TAG: u64 = 1 << 59;

/// Tag of the replay-state message rank 0 sends each worker at the start
/// of a round: plain, like [`DONE_TAG`].
const STATE_TAG: u64 = DONE_TAG | 1;

/// The first byte of the replay state when rank 0 could not build its
/// checkpoint module (else the detected-failure flag, 0 or 1); the
/// error's text follows.
const REFUSED: u8 = 2;

/// A `tcp` rank's session (see the [module docs](self)).
pub(crate) struct NetSession {
    cfg: NetConfig,
    /// Dropped first: stopping it sends over the fabric.
    service: Option<CkptService>,
    tcp: Arc<TcpFabric>,
    /// `tcp`, under the chaos wrapper when the contract is armed.
    fabric: Arc<dyn Fabric>,
    /// A worker's checkpoint client, when checkpointing is plugged.
    client: Option<Arc<dyn CkptTransport>>,
}

impl NetSession {
    /// Connect this rank to the job described by `cfg`; `ckpt_dir` says
    /// whether checkpointing is plugged. A respawned rank arrives with the
    /// mesh already re-armed around it and owes the survivors its recovery
    /// round before anyone resumes.
    pub(crate) fn connect(cfg: &NetConfig, ckpt_dir: Option<&Path>) -> Result<NetSession> {
        let tcp = TcpFabric::connect(cfg)?;
        let base: Arc<dyn Fabric> = tcp.clone();
        // Deterministic fault injection wraps the real fabric when the
        // PPAR_CHAOS_* contract is armed (chaos soaks and the recovery bench).
        let fabric: Arc<dyn Fabric> = match ChaosConfig::from_env() {
            Some(chaos) => Arc::new(ChaosFabric::new(base, cfg.rank, chaos)),
            None => base,
        };
        let client = (ckpt_dir.is_some() && cfg.rank != 0).then(|| {
            let net: Arc<dyn CkptTransport> =
                Arc::new(NetTransport::client(fabric.clone(), cfg.rank));
            if cfg.resilient {
                Arc::new(MirrorTransport::new(net)) as Arc<dyn CkptTransport>
            } else {
                net
            }
        });
        if cfg.rejoin {
            tcp.recover(cfg.recv_timeout)?;
        }
        Ok(NetSession {
            cfg: cfg.clone(),
            service: None,
            tcp,
            fabric,
            client,
        })
    }

    /// This round's checkpoint module for this rank (none without a
    /// directory): rank 0 detects, everyone else hears about it before the
    /// first safe point. On a recovery round the run marker is still set,
    /// so the whole aggregate replays.
    pub(crate) fn modules(
        &mut self,
        plan: &Plan,
        ckpt_dir: Option<&Path>,
    ) -> Result<Vec<Arc<CheckpointModule>>> {
        let Some(dir) = ckpt_dir else {
            return Ok(Vec::new());
        };
        let (rank, nranks) = (self.cfg.rank, self.cfg.nranks);
        if rank != 0 {
            let client = self
                .client
                .clone()
                .expect("a worker with a directory has a client");
            return Ok(vec![worker_module(
                client,
                plan,
                &self.fabric.recv(rank, 0, STATE_TAG)?,
            )?]);
        }
        let send = |state: &[u8]| {
            for dst in 1..nranks {
                self.fabric.send(0, dst, STATE_TAG, state.to_vec().into());
            }
        };
        let module = CheckpointModule::create(dir, plan).inspect_err(|e| {
            // The workers wait for the replay state: they hear the refusal
            // and end with it instead.
            let mut refusal = vec![REFUSED];
            refusal.extend_from_slice(e.to_string().as_bytes());
            send(&refusal);
        })?;
        // The `PPARPRG1` region cursor of the snapshot being replayed to
        // rides with the replay decision: workers fast-forward their loops
        // without a network read.
        let prog = module.resume_progress_bytes();
        let mut state = Vec::with_capacity(13 + prog.len());
        state.push(module.detected_failure() as u8);
        state.extend_from_slice(&module.replay_target().to_le_bytes());
        state.extend_from_slice(&(prog.len() as u32).to_le_bytes());
        state.extend_from_slice(&prog);
        send(&state);
        if nranks > 1 && self.service.is_none() {
            // Round-agnostic: its lanes key on source rank.
            let store = Arc::new(module.store().clone());
            self.service = Some(NetTransport::serve(self.fabric.clone(), 0, store));
        }
        Ok(vec![module])
    }

    /// This round's engine: the rank engine at team width one.
    pub(crate) fn engine(&self) -> Arc<dyn Engine> {
        HybridEngine::new(Endpoint::new(self.fabric.clone(), self.cfg.rank), 1)
    }

    /// Confirm job-wide completion before a resilient rank retires. The
    /// final collect is a send-only gather for workers, so without this
    /// round a fast worker could exit in the window between a peer's death
    /// and the fault flag reaching this process, leaving the survivors'
    /// recovery waiting on a rank that already left. The round (workers →
    /// root → workers) fails fast under a pending fault and then leaves with
    /// [`Exit::Fault`]; a failure no fault explains panics, as a collective
    /// receive does.
    pub(crate) fn confirm_completion(&self) {
        let (rank, nranks) = (self.cfg.rank, self.cfg.nranks);
        if !self.tcp.resilient() || nranks == 1 {
            return;
        }
        let recv = |dst: usize, src: usize| {
            if let Err(e) = self.fabric.recv(dst, src, DONE_TAG) {
                if self.fault_pending() {
                    leave(Exit::Fault);
                }
                panic!("rank {rank}: completion round failed: {e}");
            }
        };
        if rank == 0 {
            (1..nranks).for_each(|src| recv(0, src));
            for dst in 1..nranks {
                self.fabric.send(0, dst, DONE_TAG, Vec::new().into());
            }
        } else {
            self.fabric.send(rank, 0, DONE_TAG, Vec::new().into());
            recv(rank, 0);
        }
    }

    pub(crate) fn fault_pending(&self) -> bool {
        self.tcp.fault_pending()
    }

    /// Recover from the pending fault that ended round `recoveries`
    /// (counted from 1) with the survivors and the respawned rank. Past
    /// [`MAX_RECOVERIES`], or when recovery itself fails (a second death
    /// mid-recovery, the deadline), the error escalates.
    pub(crate) fn recover(&self, recoveries: usize) -> Result<()> {
        if recoveries > MAX_RECOVERIES {
            return Err(PparError::Network(format!(
                "rank {}: giving up after {MAX_RECOVERIES} in-job recoveries; \
                 escalating to full relaunch",
                self.cfg.rank
            )));
        }
        self.tcp.recover(self.cfg.recv_timeout)
    }

    /// What this rank sent since it connected.
    pub(crate) fn traffic(&self) -> Traffic {
        self.fabric.traffic()
    }

    /// End a session whose app completed: every checkpoint RPC was
    /// acknowledged inside a quiesced safe point, so the service has
    /// nothing in flight.
    pub(crate) fn close(mut self) {
        if let Some(service) = self.service.take() {
            service.stop();
        }
        self.tcp.shutdown();
    }
}

/// A worker's checkpoint module, built from the replay `state` rank 0 sent.
fn worker_module(
    client: Arc<dyn CkptTransport>,
    plan: &Plan,
    state: &[u8],
) -> Result<Arc<CheckpointModule>> {
    if let Some((&REFUSED, why)) = state.split_first() {
        return Err(PparError::CorruptCheckpoint(format!(
            "rank 0 could not build its checkpoint module: {}",
            String::from_utf8_lossy(why)
        )));
    }
    let prog_len = (state.len() >= 13)
        .then(|| u32::from_le_bytes(state[9..13].try_into().expect("4-byte len")) as usize);
    if prog_len.is_none_or(|n| state.len() != 13 + n) {
        return Err(PparError::Network(
            "malformed replay state from rank 0".into(),
        ));
    }
    let detected = state[0] != 0;
    let target = u64::from_le_bytes(state[1..9].try_into().expect("8-byte target"));
    Ok(CheckpointModule::create_worker(
        client,
        plan,
        detected,
        target,
        &state[13..],
    ))
}
