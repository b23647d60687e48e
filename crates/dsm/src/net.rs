//! The simulated interconnect: mailboxes, message delays, traffic counters.
//!
//! Transport semantics mirror MPI's eager protocol: `send` deposits the
//! message and returns immediately (no rendezvous, so no send-send
//! deadlocks); `recv` blocks until a matching `(source, tag)` message is
//! available **and** its simulated arrival time has passed. Arrival time =
//! deposit time + link latency + size/bandwidth, and each receiving rank has
//! a serialising ingress link, so a gather of P−1 partitions at the root
//! pays the *sum* of their transfer times — exactly why the paper's
//! master-collect checkpoint cost climbs with P (Fig. 4).
//!
//! Payloads travel as [`Payload`] (`Arc<Vec<u8>>`): depositing a message
//! moves a reference, not the bytes — a unicast send *moves* its `Vec`
//! into the shared header (no buffer copy, as before), and one buffer
//! fanned out to P−1 destinations (broadcast, barrier release, restart
//! scatter) is shared rather than copied P−1 times. Only the *simulated*
//! transfer time scales with the byte count; the host-side cost of a send
//! is O(1) in the payload size.
//!
//! `SimNet` is one implementation of the [`ppar_net::Fabric`] trait — the
//! other is the real TCP mesh, [`ppar_net::TcpFabric`]. Engines and
//! collectives run against the trait, so the same binary executes over
//! threads (here) or over real OS processes without change.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppar_core::sync::{spin_loop, AtomicU64, Condvar, Mutex, Ordering};

pub use ppar_net::{Fabric, Payload, Traffic};

use crate::topology::{LinkClass, NetModel, Topology};

struct Message {
    bytes: Payload,
    arrives_at: Instant,
    link: LinkClass,
}

#[derive(Default)]
struct MailboxInner {
    queues: HashMap<(usize, u64), VecDeque<Message>>,
}

struct Mailbox {
    inner: Mutex<MailboxInner>,
    cv: Condvar,
    /// Serialising ingress link: the time until which this rank's receive
    /// path is busy.
    ingress_busy_until: Mutex<Instant>,
}

/// The in-process interconnect shared by all ranks of one simulated job.
pub struct SimNet {
    topology: Topology,
    model: NetModel,
    nranks: usize,
    mailboxes: Vec<Mailbox>,
    intra_msgs: AtomicU64,
    intra_bytes: AtomicU64,
    inter_msgs: AtomicU64,
    inter_bytes: AtomicU64,
}

impl SimNet {
    /// A network connecting `nranks` ranks over `topology` with `model`
    /// costs.
    pub fn new(topology: Topology, nranks: usize, model: NetModel) -> Arc<SimNet> {
        Arc::new(SimNet {
            topology,
            model,
            nranks,
            mailboxes: (0..nranks)
                .map(|_| Mailbox {
                    inner: Mutex::new(MailboxInner::default()),
                    cv: Condvar::new(),
                    ingress_busy_until: Mutex::new(Instant::now()),
                })
                .collect(),
            intra_msgs: AtomicU64::new(0),
            intra_bytes: AtomicU64::new(0),
            inter_msgs: AtomicU64::new(0),
            inter_bytes: AtomicU64::new(0),
        })
    }

    /// Zero-cost network (functional tests).
    pub fn instant(nranks: usize) -> Arc<SimNet> {
        SimNet::new(Topology::single_node(nranks), nranks, NetModel::instant())
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// The topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// The cost model.
    pub fn model(&self) -> NetModel {
        self.model
    }

    /// Traffic counters so far.
    pub fn traffic(&self) -> Traffic {
        Traffic {
            intra_msgs: self.intra_msgs.load(Ordering::Relaxed),
            intra_bytes: self.intra_bytes.load(Ordering::Relaxed),
            inter_msgs: self.inter_msgs.load(Ordering::Relaxed),
            inter_bytes: self.inter_bytes.load(Ordering::Relaxed),
        }
    }

    /// Deposit `bytes` from `src` for `dst` under `tag`. Returns
    /// immediately (eager send). Accepts anything convertible to a
    /// [`Payload`]; passing an existing `Payload` clone is zero-copy.
    pub fn send(&self, src: usize, dst: usize, tag: u64, bytes: impl Into<Payload>) {
        let bytes = bytes.into();
        assert!(src < self.nranks && dst < self.nranks, "rank out of range");
        let link = self.topology.link(src, dst, self.nranks);
        match link {
            LinkClass::Intra => {
                self.intra_msgs.fetch_add(1, Ordering::Relaxed);
                self.intra_bytes
                    .fetch_add(bytes.len() as u64, Ordering::Relaxed);
            }
            LinkClass::Inter => {
                self.inter_msgs.fetch_add(1, Ordering::Relaxed);
                self.inter_bytes
                    .fetch_add(bytes.len() as u64, Ordering::Relaxed);
            }
        }
        let arrives_at = Instant::now() + self.model.cost(link, bytes.len());
        let mbox = &self.mailboxes[dst];
        let mut inner = mbox.inner.lock();
        inner
            .queues
            .entry((src, tag))
            .or_default()
            .push_back(Message {
                bytes,
                arrives_at,
                link,
            });
        mbox.cv.notify_all();
    }

    /// Block until a message from `src` with `tag` is available at `dst`,
    /// pay the simulated ingress time, and return it (a shared reference to
    /// the sender's buffer — no copy).
    pub fn recv(&self, dst: usize, src: usize, tag: u64) -> Payload {
        assert!(src < self.nranks && dst < self.nranks, "rank out of range");
        let mbox = &self.mailboxes[dst];
        let msg = {
            let mut inner = mbox.inner.lock();
            loop {
                if let Some(q) = inner.queues.get_mut(&(src, tag)) {
                    if let Some(msg) = q.pop_front() {
                        break msg;
                    }
                }
                mbox.cv.wait(&mut inner);
            }
        };
        self.pay_ingress(mbox, &msg);
        msg.bytes
    }

    /// Block until a message with `tag` from *any* source is available at
    /// `dst`; returns `(source, payload)` (lowest ready source first).
    pub fn recv_any(&self, dst: usize, tag: u64) -> (usize, Payload) {
        assert!(dst < self.nranks, "rank out of range");
        let mbox = &self.mailboxes[dst];
        let (src, msg) = {
            let mut inner = mbox.inner.lock();
            loop {
                let ready = inner
                    .queues
                    .iter()
                    .filter(|((_, t), q)| *t == tag && !q.is_empty())
                    .map(|((s, _), _)| *s)
                    .min();
                if let Some(src) = ready {
                    let msg = inner
                        .queues
                        .get_mut(&(src, tag))
                        .and_then(|q| q.pop_front())
                        .expect("non-empty queue just observed");
                    break (src, msg);
                }
                mbox.cv.wait(&mut inner);
            }
        };
        self.pay_ingress(mbox, &msg);
        (src, msg.bytes)
    }

    /// Serialise this rank's ingress: concurrent senders overlap their
    /// latency but their bandwidth terms queue on the receiver's link —
    /// so a root gathering P−1 partitions pays ~the sum of transfer
    /// times, as a real NIC would.
    fn pay_ingress(&self, mbox: &Mailbox, msg: &Message) {
        let release_at = {
            let mut busy = mbox.ingress_busy_until.lock();
            let start = (*busy).max(Instant::now());
            let bw_time = self.model.bandwidth_time(msg.link, msg.bytes.len());
            let release = msg.arrives_at.max(start + bw_time);
            *busy = release;
            release
        };
        wait_until(release_at);
    }

    /// Non-blocking probe: is a `(src, tag)` message queued at `dst`?
    pub fn probe(&self, dst: usize, src: usize, tag: u64) -> bool {
        let inner = self.mailboxes[dst].inner.lock();
        inner
            .queues
            .get(&(src, tag))
            .map(|q| !q.is_empty())
            .unwrap_or(false)
    }
}

/// The simulated network is one [`Fabric`]: engines and collectives built
/// against the trait run identically over `SimNet` (threads, modelled
/// costs) and [`ppar_net::TcpFabric`] (real processes). `SimNet` links
/// cannot die, so the fallible trait receives always succeed here.
impl Fabric for SimNet {
    fn describe(&self) -> &'static str {
        "sim"
    }

    fn nranks(&self) -> usize {
        self.nranks
    }

    fn send(&self, src: usize, dst: usize, tag: u64, payload: Payload) {
        SimNet::send(self, src, dst, tag, payload);
    }

    fn recv(&self, dst: usize, src: usize, tag: u64) -> ppar_core::error::Result<Payload> {
        Ok(SimNet::recv(self, dst, src, tag))
    }

    fn recv_any(&self, dst: usize, tag: u64) -> ppar_core::error::Result<(usize, Payload)> {
        Ok(SimNet::recv_any(self, dst, tag))
    }

    fn probe(&self, dst: usize, src: usize, tag: u64) -> bool {
        SimNet::probe(self, dst, src, tag)
    }

    fn traffic(&self) -> Traffic {
        SimNet::traffic(self)
    }
}

/// Hybrid spin/sleep wait until `deadline` (sleeps coarse remainders, spins
/// the last stretch for microsecond accuracy).
fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let remaining = deadline - now;
        if remaining > Duration::from_millis(1) {
            std::thread::sleep(remaining - Duration::from_micros(500));
        } else {
            spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recv_roundtrip() {
        let net = SimNet::instant(2);
        net.send(0, 1, 7, vec![1, 2, 3]);
        assert_eq!(&*net.recv(1, 0, 7), &[1, 2, 3]);
    }

    #[test]
    fn messages_are_fifo_per_channel() {
        let net = SimNet::instant(2);
        for i in 0..10u8 {
            net.send(0, 1, 1, vec![i]);
        }
        for i in 0..10u8 {
            assert_eq!(&*net.recv(1, 0, 1), &[i]);
        }
    }

    #[test]
    fn tags_separate_streams() {
        let net = SimNet::instant(2);
        net.send(0, 1, 1, vec![1]);
        net.send(0, 1, 2, vec![2]);
        assert_eq!(&*net.recv(1, 0, 2), &[2]);
        assert_eq!(&*net.recv(1, 0, 1), &[1]);
    }

    #[test]
    fn recv_blocks_until_send() {
        let net = SimNet::instant(2);
        let n2 = net.clone();
        let receiver = std::thread::spawn(move || n2.recv(1, 0, 9));
        std::thread::sleep(Duration::from_millis(30));
        assert!(!receiver.is_finished());
        net.send(0, 1, 9, vec![42]);
        assert_eq!(&*receiver.join().unwrap(), &[42]);
    }

    #[test]
    fn traffic_counters_split_by_link_class() {
        let topo = Topology {
            machines: 2,
            cores_per_machine: 2,
        };
        let net = SimNet::new(topo, 4, NetModel::instant());
        net.send(0, 1, 1, vec![0; 100]); // intra (ranks 0,1 on machine 0)
        net.send(0, 2, 1, vec![0; 200]); // inter (rank 2 on machine 1)
        net.recv(1, 0, 1);
        net.recv(2, 0, 1);
        let t = net.traffic();
        assert_eq!(t.intra_msgs, 1);
        assert_eq!(t.intra_bytes, 100);
        assert_eq!(t.inter_msgs, 1);
        assert_eq!(t.inter_bytes, 200);
        assert_eq!(t.msgs(), 2);
        assert_eq!(t.bytes(), 300);
    }

    #[test]
    fn network_cost_is_observable() {
        // 1 MB over a 100 MB/s inter link ≈ 10 ms.
        let model = NetModel {
            latency_intra: Duration::ZERO,
            latency_inter: Duration::from_micros(50),
            bandwidth_intra: f64::INFINITY,
            bandwidth_inter: 1.0e8,
        };
        let topo = Topology {
            machines: 2,
            cores_per_machine: 1,
        };
        let net = SimNet::new(topo, 2, model);
        let start = Instant::now();
        net.send(0, 1, 1, vec![0; 1_000_000]);
        net.recv(1, 0, 1);
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(9),
            "expected ≥9ms simulated transfer, got {elapsed:?}"
        );
        assert!(
            elapsed < Duration::from_millis(200),
            "transfer should not be wildly slow, got {elapsed:?}"
        );
    }

    #[test]
    fn recv_any_matches_tag_across_sources() {
        let net = SimNet::instant(3);
        net.send(2, 0, 5, vec![2]);
        net.send(1, 0, 5, vec![1]);
        net.send(1, 0, 6, vec![9]); // different tag: must not match
        let (src_a, a) = net.recv_any(0, 5);
        let (src_b, b) = net.recv_any(0, 5);
        let mut got = vec![(src_a, a[0]), (src_b, b[0])];
        got.sort_unstable();
        assert_eq!(got, vec![(1, 1), (2, 2)]);
        assert_eq!(&*net.recv(0, 1, 6), &[9]);
    }

    #[test]
    fn fabric_trait_dispatch_matches_inherent() {
        let net = SimNet::instant(2);
        let fabric: Arc<dyn Fabric> = net.clone();
        assert_eq!(fabric.describe(), "sim");
        assert_eq!(fabric.nranks(), 2);
        fabric.send(0, 1, 3, Arc::new(vec![7]));
        assert!(fabric.probe(1, 0, 3));
        assert_eq!(&*fabric.recv(1, 0, 3).unwrap(), &[7]);
        assert_eq!(fabric.traffic().msgs(), 1);
    }

    #[test]
    fn probe_does_not_consume() {
        let net = SimNet::instant(2);
        assert!(!net.probe(1, 0, 3));
        net.send(0, 1, 3, vec![5]);
        assert!(net.probe(1, 0, 3));
        assert!(net.probe(1, 0, 3));
        assert_eq!(&*net.recv(1, 0, 3), &[5]);
        assert!(!net.probe(1, 0, 3));
    }
}
