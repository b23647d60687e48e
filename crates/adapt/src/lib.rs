//! # ppar-adapt — run-time adaptation for pluggable parallelisation
//!
//! Implements §IV.B of *Checkpoint and Run-Time Adaptation with Pluggable
//! Parallelisation* (Medeiros & Sobral, ICPP 2011) above the engine crates:
//!
//! * [`controller::AdaptationController`] — the [`ppar_core::AdaptHook`]
//!   implementation: accepts reshape requests (asynchronously or from a
//!   scripted [`controller::ResourceTimeline`], the experiments' stand-in
//!   for an external Grid resource manager) and surfaces them to engines at
//!   safe-point crossings. The team runtime (`ppar_core::runtime`) then
//!   runs the §IV.B expansion/contraction protocol (replay-into-region /
//!   graceful drain).
//! * [`launcher`] — deploys one base program in any execution mode with
//!   optional checkpointing, and drives crash/restart cycles; because
//!   master-collected checkpoints are mode independent, a restart may use a
//!   *different* mode or aggregate size (adaptation by restart, Fig. 6).
//!   Its one round function is the only place a [`Deploy`] becomes a
//!   running engine stack: `seq` is the sequential engine, `smpN` and
//!   `taskN` the team engine (the latter with the quiescence check),
//!   `distP` and `hybPxT` the rank engine at width 1 or T.
//! * [`launcher::overdecomposed`] — the traditional over-decomposition
//!   baseline the paper compares against (Fig. 8).
//! * [`live::launch_live`] — **live reshape**: a deployment loop in which a
//!   mode change the running engine cannot realise in place is applied by
//!   an in-memory state hand-off (`ppar_ckpt::Handoff`: the predecessor's
//!   cells, frozen) and an in-process relaunch — no process exit, no disk
//!   round-trip, no record. Restart
//!   stays available as the fallback behind the unchanged [`launcher`] API.
//! * [`netrun`] — the **real multi-process deployment** (`tcpN`): each
//!   rank is an OS process on a `ppar_net::TcpFabric`; rank 0 owns the
//!   durable checkpoint store and serves it to the workers over the wire;
//!   the cluster driver's restart loop recovers from genuine process
//!   death.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod controller;
pub mod launcher;
pub mod live;
pub mod netrun;

pub use controller::{
    AdaptationController, AppliedReshape, RankAdaptView, ReshapeKind, ResourceTimeline,
};
pub use launcher::{launch, overdecomposed, run_until_complete, AppStatus, Deploy, LaunchOutcome};
pub use live::{deploy_for_mode, launch_live, LiveOutcome};
pub use netrun::{net_tag, run_net_rank, NetRankOutcome};
