//! Rank endpoints and collective operations.
//!
//! Collectives are built from the eager point-to-point transport of any
//! [`Fabric`] — the simulated [`crate::net::SimNet`] or the real
//! `ppar_net::TcpFabric` — so the same gather/scatter/halo/reduce code
//! serves thread-backed and process-backed aggregates. Every collective
//! call consumes one slot of the endpoint's collective-sequence counter;
//! SPMD discipline (all ranks issue the same collectives in the same
//! order) keeps the counters aligned, and the sequence number is baked
//! into the message tag so concurrent collectives can never cross-match.
//!
//! A fabric receive can fail on a real network (peer process death), and
//! there is no way to complete a half-dead collective: the line of
//! execution leaves with [`Exit::Fault`] when the fabric reports a pending
//! fault (a resilient mesh recovers in the job), otherwise it panics with
//! the fabric's report, the rank process exits nonzero, and the cluster
//! driver restarts the job from its last durable checkpoint.

use std::sync::Arc;

use ppar_core::plan::ReduceOp;
use ppar_core::runtime::{leave, Exit};
use ppar_core::sync::{AtomicU64, Ordering};

use crate::net::{Fabric, Payload};

/// Tag space layout: user messages get the high bit; checkpoint service
/// frames use bit 62 (`ppar_net::transport::CKPT_TAG_BIT`); collective
/// messages encode (sequence << 4 | op) far below both.
const USER_TAG_BIT: u64 = 1 << 63;

#[derive(Clone, Copy)]
#[repr(u64)]
enum CollOp {
    Barrier = 0,
    Bcast = 1,
    Gather = 2,
    Scatter = 3,
    Reduce = 4,
    Halo = 5,
}

/// One rank's handle on the interconnect (simulated or real).
pub struct Endpoint {
    fabric: Arc<dyn Fabric>,
    rank: usize,
    coll_seq: AtomicU64,
}

impl Endpoint {
    /// Endpoint for `rank` on `fabric` (an `Arc<SimNet>` coerces here
    /// directly; a `TcpFabric` must be handed the rank it bootstrapped
    /// as).
    pub fn new(fabric: Arc<dyn Fabric>, rank: usize) -> Endpoint {
        assert!(rank < fabric.nranks(), "rank out of range");
        Endpoint {
            fabric,
            rank,
            coll_seq: AtomicU64::new(0),
        }
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Aggregate size.
    pub fn nranks(&self) -> usize {
        self.fabric.nranks()
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Arc<dyn Fabric> {
        &self.fabric
    }

    fn next_tag(&self, op: CollOp) -> u64 {
        let seq = self.coll_seq.fetch_add(1, Ordering::SeqCst);
        (seq << 4) | op as u64
    }

    /// Fabric send as this rank.
    fn fsend(&self, dst: usize, tag: u64, bytes: impl Into<Payload>) {
        self.fabric.send(self.rank, dst, tag, bytes.into());
    }

    /// Fabric receive as this rank. A failure (peer process death, stream
    /// corruption, timeout) ends this line of execution — see the
    /// [module docs](self).
    fn frecv(&self, src: usize, tag: u64) -> Payload {
        self.fabric.recv(self.rank, src, tag).unwrap_or_else(|e| {
            if self.fabric.fault_pending() {
                leave(Exit::Fault);
            }
            panic!("rank {}: collective receive failed: {e}", self.rank)
        })
    }

    // ---- point to point (user tag space) ----

    /// Send `bytes` to `dst` under user tag `tag` (zero-copy when handed an
    /// existing [`Payload`]).
    pub fn send(&self, dst: usize, tag: u64, bytes: impl Into<Payload>) {
        self.fsend(dst, USER_TAG_BIT | tag, bytes);
    }

    /// Receive from `src` under user tag `tag`.
    pub fn recv(&self, src: usize, tag: u64) -> Payload {
        self.frecv(src, USER_TAG_BIT | tag)
    }

    // ---- collectives ----

    /// Global barrier (flat gather-to-0 + release broadcast).
    pub fn barrier(&self) {
        let tag = self.next_tag(CollOp::Barrier);
        let n = self.nranks();
        if n == 1 {
            return;
        }
        if self.rank == 0 {
            for src in 1..n {
                self.frecv(src, tag);
            }
            ppar_net::chaos::kill_point("barrier");
            for dst in 1..n {
                self.fsend(dst, tag, Vec::new());
            }
        } else {
            self.fsend(0, tag, Vec::new());
            // Deterministic fault injection: a chaos kill-point armed at
            // "barrier" dies here — contribution sent, release not yet
            // received — the half-dead-collective case recovery must
            // handle.
            ppar_net::chaos::kill_point("barrier");
            self.frecv(0, tag);
        }
    }

    /// Broadcast `bytes` from `root`; non-roots pass `None` and receive the
    /// root's bytes.
    pub fn bcast(&self, root: usize, bytes: Option<Vec<u8>>) -> Payload {
        match bytes {
            Some(bytes) => {
                let payload: Payload = bytes.into();
                self.bcast_payload(root, Some(payload.clone()));
                payload
            }
            None => self
                .bcast_payload(root, None)
                .expect("non-root receives broadcast payload"),
        }
    }

    /// Broadcast from `root` without requiring an owned payload at the root
    /// (pairs with `StateCell::write_state` into a reusable scratch buffer).
    /// Non-roots pass `None` and receive `Some(payload)`; the root passes
    /// `Some(bytes)` and gets `None` back — it already holds the data. The
    /// root pays exactly one copy (slice → shared payload), after which the
    /// fan-out to P−1 destinations moves references only.
    pub fn bcast_slice(&self, root: usize, bytes: Option<&[u8]>) -> Option<Payload> {
        if self.rank == root {
            let payload: Payload =
                Arc::new(bytes.expect("root must provide broadcast payload").to_vec());
            self.bcast_payload(root, Some(payload))
        } else {
            self.bcast_payload(root, None)
        }
    }

    /// Payload-level broadcast: the root's buffer is shared with every
    /// destination mailbox, never duplicated.
    pub fn bcast_payload(&self, root: usize, bytes: Option<Payload>) -> Option<Payload> {
        let tag = self.next_tag(CollOp::Bcast);
        if self.rank == root {
            let payload = bytes.expect("root must provide broadcast payload");
            for dst in 0..self.nranks() {
                if dst != root {
                    self.fsend(dst, tag, payload.clone());
                }
            }
            None
        } else {
            Some(self.frecv(root, tag))
        }
    }

    /// Gather every rank's `bytes` at `root`; returns `Some(payloads)` (rank
    /// indexed) at the root, `None` elsewhere.
    pub fn gather(&self, root: usize, bytes: Vec<u8>) -> Option<Vec<Payload>> {
        let tag = self.next_tag(CollOp::Gather);
        if self.rank == root {
            let mut out: Vec<Payload> = (0..self.nranks()).map(|_| Arc::new(Vec::new())).collect();
            out[root] = bytes.into();
            for (src, slot) in out.iter_mut().enumerate() {
                if src != root {
                    *slot = self.frecv(src, tag);
                }
            }
            Some(out)
        } else {
            self.fsend(root, tag, bytes);
            None
        }
    }

    /// Scatter per-rank payloads from `root` (rank-indexed); every rank
    /// receives its own slice.
    pub fn scatter(&self, root: usize, payloads: Option<Vec<Vec<u8>>>) -> Payload {
        let tag = self.next_tag(CollOp::Scatter);
        if self.rank == root {
            let mut payloads = payloads.expect("root must provide scatter payloads");
            assert_eq!(payloads.len(), self.nranks(), "one payload per rank");
            for (dst, payload) in payloads.iter_mut().enumerate() {
                if dst != root {
                    self.fsend(dst, tag, std::mem::take(payload));
                }
            }
            std::mem::take(&mut payloads[root]).into()
        } else {
            self.frecv(root, tag)
        }
    }

    /// All-reduce a scalar with `op`: every rank receives the combined value.
    pub fn allreduce_f64(&self, op: ReduceOp, value: f64) -> f64 {
        let tag = self.next_tag(CollOp::Reduce);
        let n = self.nranks();
        if n == 1 {
            return value;
        }
        if self.rank == 0 {
            let mut acc = value;
            for src in 1..n {
                let bytes = self.frecv(src, tag);
                let v = f64::from_le_bytes(bytes.as_slice().try_into().expect("8-byte f64"));
                acc = op.apply_f64(acc, v);
            }
            let combined: Payload = acc.to_le_bytes().to_vec().into();
            for dst in 1..n {
                self.fsend(dst, tag, combined.clone());
            }
            acc
        } else {
            self.fsend(0, tag, value.to_le_bytes().to_vec());
            let bytes = self.frecv(0, tag);
            f64::from_le_bytes(bytes.as_slice().try_into().expect("8-byte f64"))
        }
    }

    /// Neighbour exchange for block-partitioned stencil fields: send
    /// `to_prev`/`to_next` to the previous/next rank, receive theirs.
    /// Returns `(from_prev, from_next)`. Ranks at the edges skip the
    /// missing neighbour. Payload `None` skips that direction (empty
    /// partitions).
    pub fn halo_exchange(
        &self,
        to_prev: Option<Vec<u8>>,
        to_next: Option<Vec<u8>>,
    ) -> (Option<Payload>, Option<Payload>) {
        let tag = self.next_tag(CollOp::Halo);
        let n = self.nranks();
        let rank = self.rank;
        // Eager sends cannot deadlock: deposit both, then receive.
        if rank > 0 {
            if let Some(bytes) = to_prev {
                self.fsend(rank - 1, tag, bytes);
            }
        }
        if rank + 1 < n {
            if let Some(bytes) = to_next {
                self.fsend(rank + 1, tag, bytes);
            }
        }
        let from_prev = (rank > 0).then(|| self.frecv(rank - 1, tag));
        let from_next = (rank + 1 < n).then(|| self.frecv(rank + 1, tag));
        (from_prev, from_next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::SimNet;

    /// Run `f(rank)` on `n` rank threads over an instant network.
    fn spmd<R: Send>(n: usize, f: impl Fn(&Endpoint) -> R + Sync) -> Vec<R> {
        let net = SimNet::instant(n);
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (rank, slot) in out.iter_mut().enumerate() {
                let net = net.clone();
                let f = &f;
                scope.spawn(move || {
                    let ep = Endpoint::new(net, rank);
                    *slot = Some(f(&ep));
                });
            }
        });
        out.into_iter().map(|o| o.unwrap()).collect()
    }

    #[test]
    fn barrier_synchronises() {
        use ppar_core::sync::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        spmd(6, |ep| {
            counter.fetch_add(1, Ordering::SeqCst);
            ep.barrier();
            assert_eq!(counter.load(Ordering::SeqCst), 6);
            ep.barrier();
            counter.fetch_sub(1, Ordering::SeqCst);
        });
    }

    #[test]
    fn bcast_delivers_roots_bytes() {
        let results = spmd(5, |ep| {
            let payload = (ep.rank() == 2).then(|| vec![9, 9, 9]);
            ep.bcast(2, payload)
        });
        for r in results {
            assert_eq!(&*r, &[9, 9, 9]);
        }
    }

    #[test]
    fn gather_collects_rank_payloads() {
        let results = spmd(4, |ep| ep.gather(0, vec![ep.rank() as u8; ep.rank() + 1]));
        let root = results[0].as_ref().unwrap();
        assert_eq!(root.len(), 4);
        for (rank, payload) in root.iter().enumerate() {
            assert_eq!(&**payload, vec![rank as u8; rank + 1].as_slice());
        }
        assert!(results[1].is_none());
    }

    #[test]
    fn scatter_distributes_per_rank() {
        let results = spmd(4, |ep| {
            let payloads =
                (ep.rank() == 0).then(|| (0..4).map(|r| vec![r as u8 * 10]).collect::<Vec<_>>());
            ep.scatter(0, payloads)
        });
        for (rank, r) in results.iter().enumerate() {
            assert_eq!(&**r, &[rank as u8 * 10]);
        }
    }

    #[test]
    fn allreduce_combines_across_ranks() {
        let results = spmd(8, |ep| {
            ep.allreduce_f64(ReduceOp::Sum, (ep.rank() + 1) as f64)
        });
        for r in results {
            assert_eq!(r, 36.0);
        }
        let maxes = spmd(5, |ep| ep.allreduce_f64(ReduceOp::Max, ep.rank() as f64));
        for m in maxes {
            assert_eq!(m, 4.0);
        }
    }

    #[test]
    fn halo_exchange_swaps_neighbour_rows() {
        let results = spmd(4, |ep| {
            let rank = ep.rank() as u8;
            ep.halo_exchange(Some(vec![rank, 0]), Some(vec![rank, 1]))
        });
        // rank 1: from_prev = rank0's to_next = [0,1]; from_next = rank2's
        // to_prev = [2,0].
        assert_eq!(
            results[1].0.as_deref().map(Vec::as_slice),
            Some(&[0u8, 1][..])
        );
        assert_eq!(
            results[1].1.as_deref().map(Vec::as_slice),
            Some(&[2u8, 0][..])
        );
        // Edges.
        assert!(results[0].0.is_none());
        assert!(results[3].1.is_none());
    }

    #[test]
    fn consecutive_collectives_do_not_cross_match() {
        let results = spmd(3, |ep| {
            let a = ep.allreduce_f64(ReduceOp::Sum, 1.0);
            ep.barrier();
            let b = ep.allreduce_f64(ReduceOp::Prod, 2.0);
            let c = ep.bcast(0, (ep.rank() == 0).then(|| vec![7]));
            (a, b, c)
        });
        for (a, b, c) in results {
            assert_eq!(a, 3.0);
            assert_eq!(b, 8.0);
            assert_eq!(&*c, &[7]);
        }
    }

    #[test]
    fn point_to_point_ring() {
        let results = spmd(5, |ep| {
            let next = (ep.rank() + 1) % 5;
            let prev = (ep.rank() + 4) % 5;
            ep.send(next, 42, vec![ep.rank() as u8]);
            ep.recv(prev, 42)
        });
        for (rank, r) in results.iter().enumerate() {
            assert_eq!(&**r, &[((rank + 4) % 5) as u8]);
        }
    }
}
