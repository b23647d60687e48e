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
//!
//! A link cannot break, but a rank's thread can unwind. The job runner
//! then marks the rank down ([`SimNet::mark_down`]), and as on a TCP mesh
//! whose peer died, a receive from it fails once nothing it sent is left
//! queued — so its peers unwind too instead of waiting for it for good.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppar_core::error::{PparError, Result};
use ppar_core::sync::{spin_loop, AtomicBool, AtomicU64, Condvar, Mutex, Ordering};

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
    /// Per rank: its thread unwound ([`SimNet::mark_down`]).
    down: Vec<AtomicBool>,
    /// Per rank: a receive of its failed because the source was down.
    saw_down: Vec<AtomicBool>,
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
            down: (0..nranks).map(|_| AtomicBool::new(false)).collect(),
            saw_down: (0..nranks).map(|_| AtomicBool::new(false)).collect(),
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

    /// Mark `rank` down: its thread unwound and sends nothing more. A
    /// receive from it that finds nothing queued fails from now on, and
    /// every receiver blocked on it wakes to fail.
    pub fn mark_down(&self, rank: usize) {
        self.down[rank].store(true, Ordering::SeqCst);
        for mbox in &self.mailboxes {
            // Under the lock: a receiver between its check and its wait
            // holds it, so the wake-up cannot slip past.
            let _inner = mbox.inner.lock();
            mbox.cv.notify_all();
        }
    }

    /// Did a receive at `rank` fail because its source was down? Then a
    /// panic of `rank` followed another's, and is not the first cause.
    pub fn saw_down(&self, rank: usize) -> bool {
        self.saw_down[rank].load(Ordering::SeqCst)
    }

    /// The error of a receive at `dst` that waits on a rank down, `why`.
    fn down_error(&self, dst: usize, why: String) -> PparError {
        self.saw_down[dst].store(true, Ordering::SeqCst);
        PparError::Network(format!("rank {dst}: {why}"))
    }

    /// Block until a message from `src` with `tag` is available at `dst`,
    /// pay the simulated ingress time, and return it (a shared reference to
    /// the sender's buffer — no copy). Fails once `src` is down and nothing
    /// from it matches.
    pub fn recv(&self, dst: usize, src: usize, tag: u64) -> Result<Payload> {
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
                if self.down[src].load(Ordering::SeqCst) {
                    return Err(self.down_error(dst, format!("peer rank {src} is down")));
                }
                mbox.cv.wait(&mut inner);
            }
        };
        self.pay_ingress(mbox, &msg);
        Ok(msg.bytes)
    }

    /// Block until a message with `tag` from *any* source is available at
    /// `dst`; returns `(source, payload)` (lowest ready source first).
    /// Fails once every other rank (there is one) is down and nothing
    /// matches.
    pub fn recv_any(&self, dst: usize, tag: u64) -> Result<(usize, Payload)> {
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
                let mut others = (0..self.nranks).filter(|&r| r != dst);
                if self.nranks > 1 && others.all(|r| self.down[r].load(Ordering::SeqCst)) {
                    return Err(self.down_error(dst, "every peer is down".into()));
                }
                mbox.cv.wait(&mut inner);
            }
        };
        self.pay_ingress(mbox, &msg);
        Ok((src, msg.bytes))
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
/// costs) and [`ppar_net::TcpFabric`] (real processes). A `SimNet` link
/// cannot die, so a receive fails only from a rank marked down.
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

    fn recv(&self, dst: usize, src: usize, tag: u64) -> Result<Payload> {
        SimNet::recv(self, dst, src, tag)
    }

    fn recv_any(&self, dst: usize, tag: u64) -> Result<(usize, Payload)> {
        SimNet::recv_any(self, dst, tag)
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
        assert_eq!(&*net.recv(1, 0, 7).unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn messages_are_fifo_per_channel() {
        let net = SimNet::instant(2);
        for i in 0..10u8 {
            net.send(0, 1, 1, vec![i]);
        }
        for i in 0..10u8 {
            assert_eq!(&*net.recv(1, 0, 1).unwrap(), &[i]);
        }
    }

    #[test]
    fn tags_separate_streams() {
        let net = SimNet::instant(2);
        net.send(0, 1, 1, vec![1]);
        net.send(0, 1, 2, vec![2]);
        assert_eq!(&*net.recv(1, 0, 2).unwrap(), &[2]);
        assert_eq!(&*net.recv(1, 0, 1).unwrap(), &[1]);
    }

    #[test]
    fn recv_blocks_until_send() {
        let net = SimNet::instant(2);
        let n2 = net.clone();
        let receiver = std::thread::spawn(move || n2.recv(1, 0, 9).unwrap());
        std::thread::sleep(Duration::from_millis(30));
        assert!(!receiver.is_finished());
        net.send(0, 1, 9, vec![42]);
        assert_eq!(&*receiver.join().unwrap(), &[42]);
    }

    /// What a rank marked down sent is still delivered; after that, a
    /// receive from it fails, whether it waited before the mark (woken by
    /// it) or comes after.
    #[test]
    fn a_rank_marked_down_fails_receives_once_drained() {
        let net = SimNet::instant(3);
        net.send(0, 1, 4, vec![1]);
        let n2 = net.clone();
        let blocked = std::thread::spawn(move || n2.recv(2, 0, 4));
        std::thread::sleep(Duration::from_millis(30));
        net.mark_down(0);
        assert!(blocked.join().unwrap().is_err());
        assert_eq!(&*net.recv(1, 0, 4).unwrap(), &[1]);
        assert!(net.recv(1, 0, 4).is_err());
        assert_eq!((net.saw_down(1), net.saw_down(0)), (true, false));
        // A receive from any rank fails once every other one is down.
        net.send(2, 1, 4, vec![2]);
        net.mark_down(2);
        assert_eq!(net.recv_any(1, 4).unwrap().0, 2);
        assert!(net.recv_any(1, 4).is_err());
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
        net.recv(1, 0, 1).unwrap();
        net.recv(2, 0, 1).unwrap();
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
        net.recv(1, 0, 1).unwrap();
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
        let (src_a, a) = net.recv_any(0, 5).unwrap();
        let (src_b, b) = net.recv_any(0, 5).unwrap();
        let mut got = vec![(src_a, a[0]), (src_b, b[0])];
        got.sort_unstable();
        assert_eq!(got, vec![(1, 1), (2, 2)]);
        assert_eq!(&*net.recv(0, 1, 6).unwrap(), &[9]);
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
        assert_eq!(&*net.recv(1, 0, 3).unwrap(), &[5]);
        assert!(!net.probe(1, 0, 3));
    }
}
