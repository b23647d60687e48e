//! The message-fabric abstraction every distributed engine runs over.
//!
//! A [`Fabric`] delivers tagged byte payloads between ranks with MPI-like
//! eager semantics: `send` deposits and returns immediately, `recv` blocks
//! until a matching `(source, tag)` message is available. Delivery is
//! FIFO per `(source, tag)` channel and tag-matched, so the collective
//! layer's sequence-numbered tags keep concurrent collectives from
//! cross-matching on any implementation.
//!
//! Implementations: the simulated `SimNet` (threads in one process,
//! cost-modelled links; a receive fails only from a rank whose thread
//! panicked) and the real [`crate::tcp::TcpFabric`]
//! (one OS process per rank, TCP mesh, peers can genuinely die — which is
//! why [`Fabric::recv`] returns a `Result`).

use std::sync::Arc;

use ppar_core::error::Result;

/// The wire representation of one message body: reference-counted so
/// fan-out sends (broadcast, scatter of a shared buffer) are zero-copy,
/// and `Arc<Vec<u8>>` rather than `Arc<[u8]>` so converting an owned `Vec`
/// (the unicast case: halo rows, gathered partitions) moves the buffer
/// instead of copying it.
pub type Payload = Arc<Vec<u8>>;

/// Cumulative traffic counters (per link class).
///
/// The simulated fabric splits by its topology's intra-/inter-machine link
/// classes; the TCP fabric counts everything as *inter* (it is a real
/// network), which keeps sim-vs-real traffic directly comparable through
/// [`Traffic::msgs`] / [`Traffic::bytes`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Messages over intra-machine links.
    pub intra_msgs: u64,
    /// Bytes over intra-machine links.
    pub intra_bytes: u64,
    /// Messages over inter-machine links.
    pub inter_msgs: u64,
    /// Bytes over inter-machine links.
    pub inter_bytes: u64,
}

impl Traffic {
    /// Total messages.
    pub fn msgs(&self) -> u64 {
        self.intra_msgs + self.inter_msgs
    }

    /// Total bytes.
    pub fn bytes(&self) -> u64 {
        self.intra_bytes + self.inter_bytes
    }
}

/// A rank-addressed, tag-matched message transport (see the
/// [module docs](self) for the delivery contract).
pub trait Fabric: Send + Sync {
    /// Short human-readable tag for reports (`"sim"`, `"tcp"`).
    fn describe(&self) -> &'static str;

    /// Aggregate size.
    fn nranks(&self) -> usize;

    /// Deposit `payload` from `src` for `dst` under `tag` and return
    /// immediately (eager send; sends to a dead peer are dropped — the
    /// failure surfaces on the next receive involving that peer).
    fn send(&self, src: usize, dst: usize, tag: u64, payload: Payload);

    /// Block until a message from `src` with `tag` is available at `dst`.
    /// Fails when the peer is down (its connection closed or its stream
    /// corrupted) and no matching message remains queued.
    fn recv(&self, dst: usize, src: usize, tag: u64) -> Result<Payload>;

    /// Block until a message with `tag` from *any* rank is available at
    /// `dst`; returns `(source, payload)`. Fails only when every other
    /// rank is down and nothing matching is queued. This is the service
    /// channel used by the root's checkpoint service loop.
    fn recv_any(&self, dst: usize, tag: u64) -> Result<(usize, Payload)>;

    /// Non-blocking probe: is a `(src, tag)` message queued at `dst`?
    fn probe(&self, dst: usize, src: usize, tag: u64) -> bool;

    /// Traffic counters so far (sends observed by this fabric handle; for
    /// the per-process TCP fabric that means this rank's traffic).
    fn traffic(&self) -> Traffic;

    /// Has a peer failure been detected that the application has not yet
    /// recovered from? Only resilient fabrics (the TCP fabric under a
    /// supervisor, see `tcp`) ever return `true`; the default covers
    /// fabrics where peers cannot die (simulation) or where death is
    /// terminal (fail-fast mode). The engine polls this at every safe
    /// point so survivors unwind promptly instead of wedging on a
    /// collective involving the dead rank.
    fn fault_pending(&self) -> bool {
        false
    }
}
