//! # ppar-net — the real multi-process distributed backend
//!
//! Everything "distributed" in the lower crates is expressed against the
//! [`fabric::Fabric`] trait: a tag-matched, rank-addressed message
//! transport. Two implementations exist:
//!
//! * `ppar_dsm::SimNet` — the cost-modelled **simulated** interconnect
//!   (aggregate elements are threads of one process), unchanged;
//! * [`tcp::TcpFabric`] (this crate) — a **real TCP mesh** between OS
//!   processes: one process per rank, a rendezvous bootstrap driven by the
//!   `PPAR_RANK` / `PPAR_NRANKS` / `PPAR_ROOT` environment contract, one
//!   socket per peer with dedicated send and receive threads, and
//!   length-prefixed CRC-framed messages ([`frame`]).
//!
//! Because the `DsmEngine`, the collectives and both checkpoint strategies
//! are written against the trait, the same application binary runs
//! unmodified over either fabric — threads under `SimNet`, real processes
//! under `TcpFabric` — and produces bitwise-identical results.
//!
//! On top of the fabric sit:
//!
//! * [`cluster`] — `spawn_local_cluster`: launch N copies of a binary as
//!   real OS processes wired to one rendezvous address (the "mpirun" of
//!   this repo), plus a process-level crash/restart driver;
//! * [`transport`] — [`transport::NetTransport`], a
//!   `ppar_ckpt::CkptTransport` that streams full/delta checkpoint records
//!   rank → root (and root → rank on restart) as bounded-window chunk
//!   streams: the encoder writes straight into wire frames, the root's
//!   per-rank service lanes install records *while they arrive*, and no
//!   whole-record buffer exists anywhere on the path — so per-rank shard
//!   persistence and gigabyte-scale rank-state migration work when ranks
//!   no longer share an address space (or a disk), in memory bounded by
//!   the stream window rather than the record.
//!
//! Process death is a first-class event: a closed or corrupted peer
//! connection marks the peer *down*, every receive blocked on it fails
//! with [`ppar_core::error::PparError::Network`], and the surviving
//! processes exit so the cluster driver can restart the job from its last
//! durable checkpoint.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod cluster;
pub mod fabric;
pub mod frame;
pub mod mirror;
pub mod retry;
pub mod tcp;
pub mod transport;

pub use chaos::{ChaosConfig, ChaosFabric};
pub use cluster::{
    free_loopback_addr, run_cluster_supervised, run_cluster_until_complete, spawn_local_cluster,
    ClusterSpec, LocalCluster, SupervisorReport,
};
pub use fabric::{Fabric, Payload, Traffic};
pub use mirror::MirrorTransport;
pub use retry::RetryPolicy;
pub use tcp::{NetConfig, TcpFabric, ENV_NRANKS, ENV_RANK, ENV_ROOT};
pub use transport::{CkptService, NetTransport};
