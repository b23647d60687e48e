//! # ppar-dsm — distributed-memory pluggable parallelisation (simulated)
//!
//! The object-aggregate runtime of §III.C of *Checkpoint and Run-Time
//! Adaptation with Pluggable Parallelisation* (Medeiros & Sobral, ICPP
//! 2011), built on a **simulated cluster**: aggregate elements are OS
//! threads, and every message pays latency + bandwidth costs with distinct
//! intra-/inter-machine link classes ([`topology`], [`net`]). This
//! substitutes for the paper's real 2×24-core cluster while preserving the
//! evaluation's shape (costs grow with P and jump when ranks span
//! machines).
//!
//! Provided here: the transport and collectives ([`collective`]), the
//! plan-driven rank-level data movement ([`engine::DsmEngine`]) realising
//! partitioned / replicated / local fields, scatter/gather/broadcast/reduce
//! method plugs, halo-exchange update points and both distributed
//! checkpoint strategies, the one per-rank engine
//! ([`hybrid::HybridEngine`]: each element runs a local thread team over
//! the shared `ppar_core::runtime` layer — a team fixed at one is the pure
//! distributed deployment), and the job runners ([`spmd::run_ranks`] with
//! its [`spmd::run_spmd`] / [`spmd::run_hybrid`] shorthands).
//!
//! Since the `ppar-net` crate landed, every piece here is written against
//! the [`ppar_net::Fabric`] trait rather than `SimNet` concretely: handing
//! [`collective::Endpoint::new`] a `ppar_net::TcpFabric` runs the same
//! engine, collectives and checkpoint strategies over **real OS
//! processes** connected by TCP (see `ppar_adapt::netrun`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod collective;
pub mod engine;
pub mod hybrid;
pub mod net;
pub mod spmd;
pub mod topology;

pub use collective::Endpoint;
pub use engine::DsmEngine;
pub use hybrid::HybridEngine;
pub use net::{Fabric, Payload, SimNet, Traffic};
pub use spmd::{run_hybrid, run_ranks, run_spmd, run_spmd_plain, SpmdConfig};
pub use topology::{LinkClass, NetModel, Topology};
