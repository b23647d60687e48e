//! The real TCP fabric: one OS process per rank, a full socket mesh, and
//! the rendezvous bootstrap that builds it.
//!
//! ## Bootstrap (the `PPAR_*` environment contract)
//!
//! Every rank process is launched with three environment variables (see
//! [`crate::cluster::spawn_local_cluster`]):
//!
//! | variable      | meaning                                             |
//! |---------------|-----------------------------------------------------|
//! | `PPAR_RANK`   | this process's rank (0-based)                       |
//! | `PPAR_NRANKS` | aggregate size                                      |
//! | `PPAR_ROOT`   | `host:port` of rank 0's rendezvous listener         |
//!
//! Rank 0 listens on `PPAR_ROOT`. Every other rank binds its own
//! ephemeral listener, connects to the root with retry, and sends a HELLO
//! frame carrying its rank and listener address. Once all ranks have
//! reported, the root broadcasts the address table and the mesh completes
//! pairwise: rank *j* connects to every lower rank *i* (`0 < i < j`) and
//! accepts from every higher one, identifying itself with a MESH frame.
//! The root↔rank link reuses the HELLO connection. All sockets run with
//! `TCP_NODELAY` (collective messages are small and latency-bound).
//!
//! ## Data plane
//!
//! Each peer link gets a dedicated **send thread** (draining an unbounded
//! queue through a `BufWriter`, coalescing bursts into single flushes) and
//! a dedicated **receive thread** (decoding [`crate::frame`] frames into
//! the shared tag-matched mailbox). Sends never block the caller and never
//! fail; a dead peer surfaces on `recv`.
//!
//! ## Failure semantics
//!
//! EOF, an I/O error or a corrupt frame on a peer link marks that peer
//! **down** and wakes every blocked receiver. `recv` first drains messages
//! that already arrived, then fails with
//! [`PparError::Network`]. In the default (fail-fast) mode a crashed rank
//! therefore cascades: its peers fail out of their blocked collectives,
//! exit nonzero, and the cluster driver restarts the job from the last
//! durable checkpoint.
//!
//! ## Resilient mode (`PPAR_NET_RESILIENT=1`)
//!
//! Under [`crate::cluster::run_cluster_supervised`] the fabric instead
//! *contains* a failure: every rank keeps its bootstrap listener alive,
//! runs a heartbeat failure detector, and distinguishes a clean peer
//! shutdown (a BYE control frame precedes the FIN) from a crash (EOF with
//! no BYE). A crash raises the rank-local **fault flag** —
//! [`Fabric::fault_pending`] — which the engine polls at every safe point
//! so survivors unwind their current attempt instead of wedging. The
//! supervisor respawns only the dead rank with `PPAR_REJOIN=1`; the
//! newcomer re-rendezvouses into the existing mesh (REJOIN at the root's
//! retained listener, REJOIN_MESH at every survivor's), each survivor
//! **re-arms** the peer link in place — purging stale frames and bumping
//! the link generation so receives blocked on the dead incarnation fail
//! with "restarted" instead of wedging — and everyone meets in
//! [`TcpFabric::recover`]: a two-round READY/GO barrier that flushes
//! in-flight traffic of the aborted attempt, after which the job resumes
//! from its last durable checkpoint with the surviving processes intact.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use ppar_core::error::{PparError, Result};
use ppar_core::sync::{AtomicBool, AtomicU64, Condvar, Mutex, Ordering};

use crate::fabric::{Fabric, Payload, Traffic};
use crate::frame::{read_frame, write_frame, write_frame_vectored};
use crate::retry::RetryPolicy;
use crate::transport::CKPT_TAG_BIT;

/// Environment variable naming this process's rank.
pub const ENV_RANK: &str = "PPAR_RANK";
/// Environment variable naming the aggregate size.
pub const ENV_NRANKS: &str = "PPAR_NRANKS";
/// Environment variable naming rank 0's rendezvous `host:port`.
pub const ENV_ROOT: &str = "PPAR_ROOT";
/// Optional override (seconds) for both bootstrap and receive timeouts.
pub const ENV_TIMEOUT: &str = "PPAR_NET_TIMEOUT_SECS";
/// Set (to `1`) by the supervisor: run the fabric in resilient mode
/// (retained listeners, failure detector, single-rank rejoin).
pub const ENV_RESILIENT: &str = "PPAR_NET_RESILIENT";
/// Set (to `1`) on a respawned rank: rejoin the existing mesh instead of
/// bootstrapping a fresh one (also disarms [`crate::chaos::kill_point`]).
pub const ENV_REJOIN: &str = "PPAR_REJOIN";

/// Handshake frame tags (used only on the raw streams before the data
/// plane starts, so they cannot collide with fabric traffic).
const HELLO_TAG: u64 = 0x7070_6172_0001;
const TABLE_TAG: u64 = 0x7070_6172_0002;
const MESH_TAG: u64 = 0x7070_6172_0003;
/// Rejoin handshakes (resilient mode): a respawned rank reporting in at
/// the root's retained listener, and at each survivor's.
const REJOIN_TAG: u64 = 0x7070_6172_0004;
const REJOIN_MESH_TAG: u64 = 0x7070_6172_0005;

/// Control frames own tag bit 60 (user traffic owns 63, checkpoint
/// traffic 62/61): heartbeats and clean-shutdown markers are intercepted
/// by the receive threads, READY/GO recovery-barrier frames flow through
/// the mailbox but are exempt from the recovery purge and from fail-fast.
const CTRL_TAG_BIT: u64 = 1 << 60;
const HB_TAG: u64 = CTRL_TAG_BIT | 1;
const READY_TAG: u64 = CTRL_TAG_BIT | 2;
const GO_TAG: u64 = CTRL_TAG_BIT | 3;
const BYE_TAG: u64 = CTRL_TAG_BIT | 4;

/// Tags allowed to keep flowing while a fault is pending: checkpoint
/// streams (recovery reads them) and the recovery barrier itself.
const FAULT_EXEMPT_MASK: u64 = CKPT_TAG_BIT | CTRL_TAG_BIT;

/// Heartbeat cadence and the silence threshold that declares a peer dead.
/// EOF detection catches clean crashes instantly; the detector covers
/// wedged links (a partition, a SIGSTOPped peer) where no FIN ever comes.
const HB_PERIOD: Duration = Duration::from_millis(200);
const HB_TIMEOUT: Duration = Duration::from_secs(10);

/// One rank's view of the job, resolved from the environment contract.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// This process's rank.
    pub rank: usize,
    /// Aggregate size.
    pub nranks: usize,
    /// Rank 0's rendezvous address (`host:port`).
    pub root: String,
    /// How long bootstrap connects retry before giving up.
    pub connect_timeout: Duration,
    /// How long a `recv` waits without progress before reporting a hang
    /// (guards CI against silent deadlocks when a peer wedges rather than
    /// dies).
    pub recv_timeout: Duration,
    /// Resilient mode: keep listeners alive, run the failure detector,
    /// accept rejoining ranks (see the [module docs](self)).
    pub resilient: bool,
    /// This process is a respawned rank rejoining an existing mesh.
    pub rejoin: bool,
}

impl NetConfig {
    /// A config with the default timeouts (20 s bootstrap, 120 s receive).
    pub fn new(rank: usize, nranks: usize, root: impl Into<String>) -> NetConfig {
        NetConfig {
            rank,
            nranks,
            root: root.into(),
            connect_timeout: Duration::from_secs(20),
            recv_timeout: Duration::from_secs(120),
            resilient: false,
            rejoin: false,
        }
    }

    /// Resolve the `PPAR_RANK` / `PPAR_NRANKS` / `PPAR_ROOT` contract.
    /// Returns `Ok(None)` when `PPAR_RANK` is unset (the process was not
    /// launched as a cluster rank); malformed values are errors.
    pub fn from_env() -> Result<Option<NetConfig>> {
        NetConfig::from_lookup(|name| std::env::var(name).ok())
    }

    /// [`NetConfig::from_env`] over an injectable variable lookup (reads
    /// only — tests exercise the contract without mutating the
    /// process-global environment, which is not thread-safe to write).
    fn from_lookup(get: impl Fn(&str) -> Option<String>) -> Result<Option<NetConfig>> {
        let Some(rank) = get(ENV_RANK) else {
            return Ok(None);
        };
        let parse = |name: &str, v: &str| {
            v.parse::<usize>()
                .map_err(|_| PparError::Network(format!("{name}={v:?} is not a number")))
        };
        let rank = parse(ENV_RANK, &rank)?;
        let nranks = get(ENV_NRANKS)
            .ok_or_else(|| PparError::Network(format!("{ENV_RANK} set but {ENV_NRANKS} missing")))
            .and_then(|v| parse(ENV_NRANKS, &v))?;
        let root = get(ENV_ROOT)
            .ok_or_else(|| PparError::Network(format!("{ENV_RANK} set but {ENV_ROOT} missing")))?;
        if rank >= nranks {
            return Err(PparError::Network(format!(
                "{ENV_RANK}={rank} out of range for {ENV_NRANKS}={nranks}"
            )));
        }
        let mut cfg = NetConfig::new(rank, nranks, root);
        if let Some(secs) = get(ENV_TIMEOUT) {
            let secs = secs.parse::<u64>().map_err(|_| {
                PparError::Network(format!("{ENV_TIMEOUT}={secs:?} is not a number"))
            })?;
            cfg.connect_timeout = Duration::from_secs(secs);
            cfg.recv_timeout = Duration::from_secs(secs);
        }
        let flag = |name: &str| get(name).is_some_and(|v| v == "1" || v == "true");
        cfg.resilient = flag(ENV_RESILIENT);
        cfg.rejoin = flag(ENV_REJOIN);
        if cfg.rejoin {
            // A rejoining rank only makes sense inside a resilient job.
            cfg.resilient = true;
        }
        Ok(Some(cfg))
    }
}

/// Per-peer link state.
struct Peer {
    /// Queue into the peer's send thread; `None` for self and after
    /// shutdown.
    tx: Mutex<Option<mpsc::Sender<(u64, Payload)>>>,
    /// The socket, kept so an orderly [`TcpFabric::shutdown`] can
    /// half-close it (send FIN) once the send thread has flushed — the
    /// peer's receiver then sees a clean EOF.
    sock: Mutex<Option<TcpStream>>,
    /// Set (with a reason) when the link died; receives from this peer
    /// fail once their queues drain.
    down: Mutex<Option<String>>,
    /// Link incarnation, bumped on every re-arm. Receive threads and
    /// blocked receives capture it at entry: a bump tells them the peer
    /// they were talking to is gone (even though a new one took its slot).
    generation: AtomicU64,
    /// Last time any frame arrived from this peer (failure detector).
    last_rx: Mutex<Instant>,
    sent_msgs: AtomicU64,
    sent_bytes: AtomicU64,
    recv_msgs: AtomicU64,
    recv_bytes: AtomicU64,
}

impl Peer {
    fn idle() -> Peer {
        Peer {
            tx: Mutex::new(None),
            sock: Mutex::new(None),
            down: Mutex::new(None),
            generation: AtomicU64::new(0),
            last_rx: Mutex::new(Instant::now()),
            sent_msgs: AtomicU64::new(0),
            sent_bytes: AtomicU64::new(0),
            recv_msgs: AtomicU64::new(0),
            recv_bytes: AtomicU64::new(0),
        }
    }
}

/// Per-peer traffic counters of a [`TcpFabric`] (this rank's view).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerTraffic {
    /// Frames sent to this peer.
    pub sent_msgs: u64,
    /// Payload bytes sent to this peer.
    pub sent_bytes: u64,
    /// Frames received from this peer.
    pub recv_msgs: u64,
    /// Payload bytes received from this peer.
    pub recv_bytes: u64,
}

/// The real TCP message fabric for one rank process. Build with
/// [`TcpFabric::connect`]; see the [module docs](self) for the bootstrap
/// and failure semantics.
pub struct TcpFabric {
    rank: usize,
    nranks: usize,
    recv_timeout: Duration,
    resilient: bool,
    /// A peer crashed (EOF with no BYE, heartbeat silence, or a rejoin
    /// arrived) and the application has not yet run [`TcpFabric::recover`].
    fault: AtomicBool,
    /// Current listener address of every rank (maintained by the root in
    /// resilient mode so it can hand rejoining ranks a fresh table).
    addrs: Mutex<Vec<String>>,
    mailbox: Mutex<HashMap<(usize, u64), VecDeque<Payload>>>,
    cv: Condvar,
    peers: Vec<Peer>,
    /// Send threads, joined on shutdown so every queued frame flushes.
    senders: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl TcpFabric {
    /// Run the rendezvous bootstrap and bring up the data plane. Blocks
    /// until the full mesh is connected (or `cfg.connect_timeout` expires).
    /// With `cfg.rejoin` the process instead re-rendezvouses into an
    /// already-running mesh through the peers' retained listeners.
    pub fn connect(cfg: &NetConfig) -> Result<Arc<TcpFabric>> {
        if cfg.nranks == 0 || cfg.rank >= cfg.nranks {
            return Err(PparError::Network(format!(
                "invalid rank {} for {} ranks",
                cfg.rank, cfg.nranks
            )));
        }
        let boot = if cfg.rejoin {
            rejoin_rendezvous(cfg)
        } else {
            rendezvous(cfg)
        }
        .map_err(|e| {
            PparError::Network(format!(
                "rank {} bootstrap via {} failed: {e}",
                cfg.rank, cfg.root
            ))
        })?;
        let fabric = Arc::new(TcpFabric {
            rank: cfg.rank,
            nranks: cfg.nranks,
            recv_timeout: cfg.recv_timeout,
            resilient: cfg.resilient,
            fault: AtomicBool::new(false),
            addrs: Mutex::new(boot.addrs),
            mailbox: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
            peers: (0..cfg.nranks).map(|_| Peer::idle()).collect(),
            senders: Mutex::new(Vec::new()),
        });
        for (peer_rank, stream) in boot.streams.into_iter().enumerate() {
            let Some(stream) = stream else { continue };
            fabric.arm_link(peer_rank, stream)?;
        }
        if cfg.resilient {
            if let Some(listener) = boot.listener {
                let weak = Arc::downgrade(&fabric);
                let root = cfg.root.clone();
                std::thread::Builder::new()
                    .name(format!("ppar-net-accept-{}", cfg.rank))
                    .spawn(move || acceptor_loop(weak, listener, root))
                    .map_err(|e| PparError::Network(format!("spawn acceptor: {e}")))?;
            }
            let weak = Arc::downgrade(&fabric);
            std::thread::Builder::new()
                .name(format!("ppar-net-hb-{}", cfg.rank))
                .spawn(move || heartbeat_loop(weak))
                .map_err(|e| PparError::Network(format!("spawn heartbeat: {e}")))?;
        }
        Ok(fabric)
    }

    /// This process's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Is the fabric running resiliently (supervised, rejoinable)?
    pub fn resilient(&self) -> bool {
        self.resilient
    }

    /// Per-peer traffic counters, rank-indexed (the self slot stays zero
    /// except for loopback self-sends, which count as sent only).
    pub fn per_peer_traffic(&self) -> Vec<PeerTraffic> {
        self.peers
            .iter()
            .map(|p| PeerTraffic {
                sent_msgs: p.sent_msgs.load(Ordering::Relaxed),
                sent_bytes: p.sent_bytes.load(Ordering::Relaxed),
                recv_msgs: p.recv_msgs.load(Ordering::Relaxed),
                recv_bytes: p.recv_bytes.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Close every send queue, join the send threads (guaranteeing all
    /// queued frames reached the kernel), then half-close each socket so
    /// peers observe a clean EOF. A BYE control frame precedes the FIN so
    /// resilient peers classify this as a finished rank, not a crash.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        for peer in self.peers.iter() {
            let mut tx = peer.tx.lock();
            if let Some(q) = &*tx {
                let _ = q.send((BYE_TAG, Arc::new(Vec::new())));
            }
            *tx = None;
        }
        let handles = std::mem::take(&mut *self.senders.lock());
        for h in handles {
            let _ = h.join();
        }
        for peer in &self.peers {
            if let Some(sock) = peer.sock.lock().take() {
                let _ = sock.shutdown(Shutdown::Write);
            }
        }
    }

    fn deposit(&self, src: usize, tag: u64, payload: Payload) {
        let mut mbox = self.mailbox.lock();
        mbox.entry((src, tag)).or_default().push_back(payload);
        self.cv.notify_all();
    }

    /// Mark a peer dead. `clean` distinguishes an announced shutdown (BYE
    /// received) from a crash; only a crash raises the fault flag that
    /// triggers recovery. `gen` guards against a superseded receive thread
    /// (one whose link was re-armed underneath it) poisoning the new link.
    fn mark_down(&self, peer: usize, gen: u64, reason: String, clean: bool) {
        if self.peers[peer].generation.load(Ordering::SeqCst) != gen {
            return;
        }
        let mut down = self.peers[peer].down.lock();
        if down.is_none() {
            *down = Some(reason);
            if !clean {
                self.fault.store(true, Ordering::SeqCst);
            }
        }
        drop(down);
        // Wake blocked receivers so they observe the failure.
        let _guard = self.mailbox.lock();
        self.cv.notify_all();
    }

    fn peer_down(&self, peer: usize) -> Option<String> {
        self.peers[peer].down.lock().clone()
    }

    /// Attach a connected stream as the live link to `peer_rank`: clone it
    /// for the dedicated send and receive threads and register the queue.
    fn arm_link(self: &Arc<TcpFabric>, peer_rank: usize, stream: TcpStream) -> Result<()> {
        let my_rank = self.rank;
        let clone_err = |e: std::io::Error| {
            PparError::Network(format!("rank {my_rank}: socket clone failed: {e}"))
        };
        stream.set_read_timeout(None).map_err(clone_err)?;
        let reader = stream.try_clone().map_err(clone_err)?;
        let peer = &self.peers[peer_rank];
        let gen = peer.generation.load(Ordering::SeqCst);
        *peer.sock.lock() = Some(stream.try_clone().map_err(clone_err)?);
        let (tx, rx) = mpsc::channel::<(u64, Payload)>();
        *peer.tx.lock() = Some(tx);
        *peer.last_rx.lock() = Instant::now();
        let sender = std::thread::Builder::new()
            .name(format!("ppar-net-send-{my_rank}-{peer_rank}"))
            .spawn(move || sender_loop(rx, stream))
            .map_err(|e| PparError::Network(format!("spawn fabric send thread: {e}")))?;
        self.senders.lock().push(sender);
        let weak = Arc::downgrade(self);
        std::thread::Builder::new()
            .name(format!("ppar-net-recv-{my_rank}-{peer_rank}"))
            .spawn(move || receiver_loop(weak, peer_rank, reader, gen))
            .map_err(|e| PparError::Network(format!("spawn fabric recv thread: {e}")))?;
        Ok(())
    }

    /// Replace the link to `rank` with a fresh connection from its respawn
    /// (resilient mode). Purges every stale frame of the dead incarnation
    /// (its streams and tags would collide with the newcomer's), bumps the
    /// link generation so anything still blocked on the old link fails
    /// loudly, and raises the fault flag: a rejoin *implies* a failure,
    /// and the application must run [`TcpFabric::recover`] even if it
    /// never observed the death itself.
    fn rearm_peer(self: &Arc<TcpFabric>, rank: usize, stream: TcpStream) -> Result<()> {
        let peer = &self.peers[rank];
        peer.generation.fetch_add(1, Ordering::SeqCst);
        self.fault.store(true, Ordering::SeqCst);
        {
            let mut mbox = self.mailbox.lock();
            mbox.retain(|(src, _), _| *src != rank);
        }
        if let Some(old) = peer.sock.lock().take() {
            let _ = old.shutdown(Shutdown::Both);
        }
        *peer.tx.lock() = None; // the old send thread drains out and exits
        stream
            .set_nodelay(true)
            .map_err(|e| PparError::Network(format!("rejoin nodelay: {e}")))?;
        self.arm_link(rank, stream)?;
        *peer.down.lock() = None;
        let _guard = self.mailbox.lock();
        self.cv.notify_all();
        Ok(())
    }

    /// Synchronise the surviving ranks (and any rejoined newcomer) after a
    /// failure, then clear the fault flag. Two rounds over every live
    /// link:
    ///
    /// 1. **READY** — once a peer's READY arrives, per-link FIFO
    ///    guarantees every frame of its aborted attempt has arrived too,
    ///    so the mailbox purge below removes *all* stale collective/user
    ///    traffic (checkpoint streams and control frames are exempt:
    ///    recovery is about to read the former).
    /// 2. **GO** — no rank starts its next attempt until every other rank
    ///    has purged, so no new-attempt frame can be swept by a straggling
    ///    purge.
    ///
    /// Blocks until every peer marked down has been re-armed by a rejoin,
    /// up to `deadline`; any error (a second failure mid-recovery, the
    /// deadline passing) aborts recovery — the caller exits and the
    /// supervisor escalates to a full relaunch.
    pub fn recover(&self, deadline: Duration) -> Result<()> {
        let end = Instant::now() + deadline;
        {
            let mut mbox = self.mailbox.lock();
            loop {
                let down: Vec<usize> = (0..self.nranks)
                    .filter(|&r| r != self.rank && self.peer_down(r).is_some())
                    .collect();
                if down.is_empty() {
                    break;
                }
                if self.cv.wait_until(&mut mbox, end).timed_out() {
                    return Err(PparError::Network(format!(
                        "rank {}: peers {down:?} still down after {deadline:?}; \
                         escalating to full relaunch",
                        self.rank
                    )));
                }
            }
        }
        let others: Vec<usize> = (0..self.nranks).filter(|&r| r != self.rank).collect();
        for &r in &others {
            self.ctrl_send(r, READY_TAG);
        }
        for &r in &others {
            self.recv(self.rank, r, READY_TAG)?;
        }
        {
            let mut mbox = self.mailbox.lock();
            mbox.retain(|(_, tag), _| tag & FAULT_EXEMPT_MASK != 0);
        }
        for &r in &others {
            self.ctrl_send(r, GO_TAG);
        }
        for &r in &others {
            self.recv(self.rank, r, GO_TAG)?;
        }
        self.fault.store(false, Ordering::SeqCst);
        Ok(())
    }

    /// Enqueue a control frame, bypassing the traffic counters (control
    /// traffic would skew the sim-vs-real comparison the counters exist
    /// for).
    fn ctrl_send(&self, dst: usize, tag: u64) {
        if let Some(tx) = &*self.peers[dst].tx.lock() {
            let _ = tx.send((tag, Arc::new(Vec::new())));
        }
    }
}

impl Drop for TcpFabric {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Fabric for TcpFabric {
    fn describe(&self) -> &'static str {
        "tcp"
    }

    fn nranks(&self) -> usize {
        self.nranks
    }

    fn send(&self, src: usize, dst: usize, tag: u64, payload: Payload) {
        assert_eq!(
            src, self.rank,
            "a TCP fabric handle sends only as its own rank"
        );
        assert!(dst < self.nranks, "rank out of range");
        let peer = &self.peers[dst];
        peer.sent_msgs.fetch_add(1, Ordering::Relaxed);
        peer.sent_bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        if dst == self.rank {
            // Loopback: straight into the mailbox, no socket.
            self.deposit(src, tag, payload);
            return;
        }
        if let Some(tx) = &*peer.tx.lock() {
            // A send to a dead peer (send thread gone) is dropped, like a
            // datagram into a dead NIC: the failure surfaces on receive.
            let _ = tx.send((tag, payload));
        }
    }

    fn recv(&self, dst: usize, src: usize, tag: u64) -> Result<Payload> {
        assert_eq!(
            dst, self.rank,
            "a TCP fabric handle receives only as its own rank"
        );
        assert!(src < self.nranks, "rank out of range");
        let deadline = Instant::now() + self.recv_timeout;
        let entry_gen = self.peers[src].generation.load(Ordering::SeqCst);
        let mut mbox = self.mailbox.lock();
        let mut timed_out = false;
        loop {
            // The queue check runs once more *after* a timed-out wait: a
            // frame deposited in the same instant the deadline expired must
            // be delivered, not thrown away with a fatal timeout (which
            // would tear the whole job down for nothing).
            if let Some(q) = mbox.get_mut(&(src, tag)) {
                if let Some(payload) = q.pop_front() {
                    return Ok(payload);
                }
            }
            // Delivered-then-died messages above drain first; only then is
            // the peer's death observable.
            if let Some(reason) = self.peer_down(src) {
                return Err(PparError::Network(format!(
                    "rank {dst}: peer rank {src} is down ({reason}) while waiting on tag {tag:#x}"
                )));
            }
            // A re-arm swept this channel: whatever the old incarnation
            // was going to send is never coming.
            if self.peers[src].generation.load(Ordering::SeqCst) != entry_gen {
                return Err(PparError::Network(format!(
                    "rank {dst}: peer rank {src} restarted while waiting on tag {tag:#x}"
                )));
            }
            // In resilient mode, application traffic stops flowing the
            // moment a fault is pending: the attempt is doomed, and a
            // survivor blocked on a *live* peer (that has already unwound)
            // must not sit out the full receive timeout.
            if self.resilient && tag & FAULT_EXEMPT_MASK == 0 && self.fault.load(Ordering::SeqCst) {
                return Err(PparError::Network(format!(
                    "rank {dst}: peer failure pending; abandoning wait for rank {src} \
                     tag {tag:#x} until recovery"
                )));
            }
            if timed_out {
                return Err(PparError::Network(format!(
                    "rank {dst}: timed out after {:?} waiting for rank {src} tag {tag:#x}",
                    self.recv_timeout
                )));
            }
            timed_out = self.cv.wait_until(&mut mbox, deadline).timed_out();
        }
    }

    fn recv_any(&self, dst: usize, tag: u64) -> Result<(usize, Payload)> {
        assert_eq!(
            dst, self.rank,
            "a TCP fabric handle receives only as its own rank"
        );
        let mut mbox = self.mailbox.lock();
        loop {
            // Lowest source first, for determinism under load.
            let key = mbox
                .iter()
                .filter(|((_, t), q)| *t == tag && !q.is_empty())
                .map(|((s, _), _)| *s)
                .min();
            if let Some(src) = key {
                let payload = mbox
                    .get_mut(&(src, tag))
                    .and_then(|q| q.pop_front())
                    .expect("non-empty queue just observed");
                return Ok((src, payload));
            }
            let all_down = (0..self.nranks)
                .filter(|&r| r != self.rank)
                .all(|r| self.peer_down(r).is_some());
            if self.nranks > 1 && all_down && !self.resilient {
                // Resilient mode keeps waiting: a down peer may rejoin,
                // and the service channel must survive the outage.
                return Err(PparError::Network(format!(
                    "rank {dst}: every peer is down while waiting on tag {tag:#x}"
                )));
            }
            // No timeout: this is the service channel — it legitimately
            // idles between checkpoints and is woken by a stop frame.
            self.cv.wait(&mut mbox);
        }
    }

    fn probe(&self, dst: usize, src: usize, tag: u64) -> bool {
        assert_eq!(
            dst, self.rank,
            "a TCP fabric handle probes only as its own rank"
        );
        self.mailbox
            .lock()
            .get(&(src, tag))
            .map(|q| !q.is_empty())
            .unwrap_or(false)
    }

    fn traffic(&self) -> Traffic {
        // Real network: everything is "inter". Counted at the sender, like
        // the simulated fabric, so aggregating per-rank counters across a
        // job never double-counts a message.
        let mut t = Traffic::default();
        for p in &self.peers {
            t.inter_msgs += p.sent_msgs.load(Ordering::Relaxed);
            t.inter_bytes += p.sent_bytes.load(Ordering::Relaxed);
        }
        t
    }

    fn fault_pending(&self) -> bool {
        self.resilient && self.fault.load(Ordering::SeqCst)
    }
}

/// Send-thread body: drain the queue through a buffered writer, coalescing
/// bursts into one flush. Exits when the queue closes (shutdown) or the
/// socket dies (the peer's receive side reports that).
/// Payloads at or above this size bypass the sender's `BufWriter`: the
/// buffered path would memcpy the whole payload into the 64 KiB buffer in
/// slices; instead we flush what is pending and hand header + payload to
/// the kernel as one scatter-gather `writev`. Below it, small frames still
/// coalesce into single flushes.
const VECTORED_SEND_MIN: usize = 32 << 10;

/// Write one frame, choosing the buffered or scatter-gather path by size.
fn send_frame(w: &mut BufWriter<TcpStream>, tag: u64, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() >= VECTORED_SEND_MIN {
        w.flush()?;
        write_frame_vectored(w.get_mut(), tag, payload)
    } else {
        write_frame(w, tag, payload)
    }
}

fn sender_loop(rx: mpsc::Receiver<(u64, Payload)>, stream: TcpStream) {
    let mut w = BufWriter::with_capacity(64 << 10, stream);
    'outer: while let Ok((tag, payload)) = rx.recv() {
        if send_frame(&mut w, tag, &payload).is_err() {
            break;
        }
        // Coalesce whatever queued behind this frame before flushing once.
        loop {
            match rx.try_recv() {
                Ok((tag, payload)) => {
                    if send_frame(&mut w, tag, &payload).is_err() {
                        break 'outer;
                    }
                }
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    let _ = w.flush();
                    return;
                }
            }
        }
        if w.flush().is_err() {
            break;
        }
    }
    let _ = w.flush();
}

/// Receive-thread body: decode frames into the mailbox until EOF, error or
/// fabric teardown; then mark the peer down. `my_gen` is the link
/// generation this thread serves: once a re-arm bumps it, the thread is
/// superseded and must neither deposit nor mark anything.
fn receiver_loop(fabric: Weak<TcpFabric>, peer: usize, stream: TcpStream, my_gen: u64) {
    let mut r = BufReader::with_capacity(64 << 10, stream);
    let mut clean = false;
    let reason = loop {
        match read_frame(&mut r) {
            Ok(Some((tag, payload))) => {
                let Some(fabric) = fabric.upgrade() else {
                    return; // fabric gone: the job is over
                };
                let p = &fabric.peers[peer];
                if p.generation.load(Ordering::SeqCst) != my_gen {
                    return; // superseded by a re-arm
                }
                *p.last_rx.lock() = Instant::now();
                match tag {
                    HB_TAG => continue, // failure-detector keepalive
                    BYE_TAG => {
                        // Announced shutdown: the EOF that follows is not
                        // a crash.
                        clean = true;
                        continue;
                    }
                    _ => {}
                }
                if tag & CTRL_TAG_BIT == 0 {
                    p.recv_msgs.fetch_add(1, Ordering::Relaxed);
                    p.recv_bytes
                        .fetch_add(payload.len() as u64, Ordering::Relaxed);
                }
                fabric.deposit(peer, tag, Arc::new(payload));
            }
            Ok(None) => {
                break if clean {
                    "finished and shut down".to_string()
                } else {
                    "connection closed".to_string()
                }
            }
            Err(e) => break format!("stream error: {e}"),
        }
    };
    if let Some(fabric) = fabric.upgrade() {
        fabric.mark_down(peer, my_gen, reason, clean);
    }
}

/// Failure-detector body (resilient mode): heartbeat every live link and
/// declare a peer down after [`HB_TIMEOUT`] of silence. EOF detection
/// handles ordinary crashes; this catches wedges where no FIN arrives.
fn heartbeat_loop(fabric: Weak<TcpFabric>) {
    loop {
        std::thread::sleep(HB_PERIOD);
        let Some(fabric) = fabric.upgrade() else {
            return;
        };
        let now = Instant::now();
        for (r, peer) in fabric.peers.iter().enumerate() {
            if r == fabric.rank || peer.down.lock().is_some() {
                continue;
            }
            let armed = {
                if let Some(tx) = &*peer.tx.lock() {
                    let _ = tx.send((HB_TAG, Arc::new(Vec::new())));
                    true
                } else {
                    false
                }
            };
            if !armed {
                continue; // shutdown in progress
            }
            let silent = now.saturating_duration_since(*peer.last_rx.lock());
            if silent > HB_TIMEOUT {
                let gen = peer.generation.load(Ordering::SeqCst);
                fabric.mark_down(
                    r,
                    gen,
                    format!("no traffic for {silent:?} (failure detector)"),
                    false,
                );
            }
        }
    }
}

/// Rejoin acceptor body (resilient mode): every rank keeps its bootstrap
/// listener and accepts respawned ranks for the rest of the job. The root
/// additionally answers REJOIN with the current address table (updating it
/// with the newcomer's fresh listener first). Junk connections — port
/// probers, a rank that died mid-dial — are skipped, never fatal.
fn acceptor_loop(fabric: Weak<TcpFabric>, listener: TcpListener, root_addr: String) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    // A rejoining rank dials every survivor in turn, so this poll's wait is
    // paid ~once per survivor on the recovery critical path: it starts
    // short and backs off to 5 ms only while nobody dials.
    let idle = || RetryPolicy::poll(Duration::from_millis(5), Duration::from_secs(60));
    let mut poll = idle();
    loop {
        let Some(fabric) = fabric.upgrade() else {
            return;
        };
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                drop(fabric);
                if !poll.backoff() {
                    poll = idle();
                }
                continue;
            }
        };
        poll = idle();
        let _ = handle_rejoin(&fabric, stream, &root_addr);
    }
}

/// Admit one connection on a retained listener: validate the rejoin
/// handshake and re-arm the peer's link. Any error just drops the
/// connection (the dialer retries with backoff).
fn handle_rejoin(
    fabric: &Arc<TcpFabric>,
    stream: TcpStream,
    root_addr: &str,
) -> std::io::Result<()> {
    let mut stream = stream;
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    let deadline = Instant::now() + Duration::from_secs(5);
    let Some((tag, payload)) = handshake_frame_any(&mut stream, deadline)? else {
        return Ok(()); // closed before identifying itself: not one of ours
    };
    let n = fabric.nranks;
    match tag {
        REJOIN_TAG if fabric.rank == 0 => {
            // A respawned rank reporting in at the root.
            if payload.len() < 4 {
                return Err(bad_handshake("short REJOIN"));
            }
            let rank = u32::from_le_bytes(
                payload[0..4]
                    .try_into()
                    .map_err(|_| bad_handshake("short REJOIN"))?,
            ) as usize;
            if rank == 0 || rank >= n {
                return Err(bad_handshake("REJOIN with invalid rank"));
            }
            let addr = String::from_utf8(payload[4..].to_vec())
                .map_err(|_| bad_handshake("REJOIN address not UTF-8"))?;
            let table = {
                let mut addrs = fabric.addrs.lock();
                if addrs.len() != n {
                    *addrs = vec![String::new(); n];
                }
                addrs[0] = root_addr.to_string();
                addrs[rank] = addr;
                let mut table = Vec::new();
                table.extend_from_slice(&(n as u32).to_le_bytes());
                for a in addrs.iter() {
                    table.extend_from_slice(&(a.len() as u32).to_le_bytes());
                    table.extend_from_slice(a.as_bytes());
                }
                table
            };
            // The table goes out on the raw stream *before* the link is
            // re-armed: once armed, the send thread owns the socket.
            write_frame(&mut stream, TABLE_TAG, &table)?;
            stream.flush()?;
            fabric
                .rearm_peer(rank, stream)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            Ok(())
        }
        REJOIN_MESH_TAG => {
            // A respawned rank completing its mesh with a survivor.
            if payload.len() != 4 {
                return Err(bad_handshake("short REJOIN_MESH"));
            }
            let rank = u32::from_le_bytes(
                payload
                    .as_slice()
                    .try_into()
                    .map_err(|_| bad_handshake("short REJOIN_MESH"))?,
            ) as usize;
            if rank == fabric.rank || rank >= n {
                return Err(bad_handshake("REJOIN_MESH with invalid rank"));
            }
            fabric
                .rearm_peer(rank, stream)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            Ok(())
        }
        _ => Err(bad_handshake(&format!(
            "unexpected frame tag {tag:#x} on retained listener"
        ))),
    }
}

// ---------------------------------------------------------------------------
// rendezvous bootstrap
// ---------------------------------------------------------------------------

/// What bootstrap hands to the data plane: one stream per peer (self slot
/// `None`), the listener to retain in resilient mode, and the address
/// table (maintained by the root for rejoin handshakes).
struct Bootstrap {
    streams: Vec<Option<TcpStream>>,
    listener: Option<TcpListener>,
    addrs: Vec<String>,
}

/// Establish the full mesh; returns one stream per peer (self slot `None`).
///
/// The whole bootstrap is bounded by one `cfg.connect_timeout` deadline:
/// accepts poll a non-blocking listener against it and every handshake
/// read carries a socket read timeout, so a rank that dies before (or
/// during) its HELLO/MESH exchange surfaces as a loud bootstrap error on
/// every peer instead of an indefinite hang — the same no-hangs property
/// the data plane's peer-down detection gives after the mesh is up. A
/// connection that closes before completing its handshake (a port
/// prober, or a rank that crashed right after `connect`) is skipped, not
/// fatal. Read timeouts are cleared before the streams are handed to the
/// data plane, whose receive threads must block indefinitely.
fn rendezvous(cfg: &NetConfig) -> std::io::Result<Bootstrap> {
    let n = cfg.nranks;
    let deadline = Instant::now() + cfg.connect_timeout;
    let mut peers: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
    if n == 1 {
        return Ok(Bootstrap {
            streams: peers,
            listener: None,
            addrs: vec![cfg.root.clone()],
        });
    }
    if cfg.rank == 0 {
        let listener = TcpListener::bind(&cfg.root)?;
        let mut addrs: Vec<String> = vec![String::new(); n];
        addrs[0] = cfg.root.clone();
        let mut reported = 0;
        while reported + 1 < n {
            let mut stream = accept_until(&listener, deadline)?;
            stream.set_nodelay(true)?;
            let Some((_, payload)) = handshake_frame(&mut stream, HELLO_TAG, deadline)? else {
                continue; // closed before HELLO: not one of ours
            };
            if payload.len() < 4 {
                return Err(bad_handshake("short HELLO"));
            }
            let rank = u32::from_le_bytes(
                payload[0..4]
                    .try_into()
                    .map_err(|_| bad_handshake("short HELLO"))?,
            ) as usize;
            if rank == 0 || rank >= n || peers[rank].is_some() {
                return Err(bad_handshake("HELLO with invalid or duplicate rank"));
            }
            addrs[rank] = String::from_utf8(payload[4..].to_vec())
                .map_err(|_| bad_handshake("HELLO address not UTF-8"))?;
            peers[rank] = Some(stream);
            reported += 1;
        }
        // Broadcast the address table so ranks can complete the mesh.
        let mut table = Vec::new();
        table.extend_from_slice(&(n as u32).to_le_bytes());
        for addr in &addrs {
            table.extend_from_slice(&(addr.len() as u32).to_le_bytes());
            table.extend_from_slice(addr.as_bytes());
        }
        for stream in peers.iter_mut().flatten() {
            write_frame(stream, TABLE_TAG, &table)?;
            stream.flush()?;
        }
        for stream in peers.iter().flatten() {
            stream.set_read_timeout(None)?;
        }
        Ok(Bootstrap {
            streams: peers,
            listener: Some(listener),
            addrs,
        })
    } else {
        // Bind this rank's own listener on the root's interface.
        let host = cfg
            .root
            .rsplit_once(':')
            .map(|(h, _)| h)
            .unwrap_or("127.0.0.1");
        let listener = TcpListener::bind(format!("{host}:0"))?;
        let my_addr = listener.local_addr()?.to_string();
        // Report in at the root (it may still be starting: retry with
        // backoff rather than burning the deadline on one blocking dial).
        let mut root = connect_retry(&cfg.root, cfg.connect_timeout, cfg.rank as u64)?;
        root.set_nodelay(true)?;
        let mut hello = Vec::with_capacity(4 + my_addr.len());
        hello.extend_from_slice(&(cfg.rank as u32).to_le_bytes());
        hello.extend_from_slice(my_addr.as_bytes());
        write_frame(&mut root, HELLO_TAG, &hello)?;
        root.flush()?;
        crate::chaos::kill_point("rendezvous");
        let (_, table) = handshake_frame(&mut root, TABLE_TAG, deadline)?
            .ok_or_else(|| bad_handshake("root closed before sending the address table"))?;
        let addrs = parse_table(&table, n)?;
        peers[0] = Some(root);
        // Pairwise mesh: connect downward, accept from above.
        for (j, addr) in addrs.iter().enumerate().take(cfg.rank).skip(1) {
            let mut s = connect_retry(addr, cfg.connect_timeout, cfg.rank as u64)?;
            s.set_nodelay(true)?;
            write_frame(&mut s, MESH_TAG, &(cfg.rank as u32).to_le_bytes())?;
            s.flush()?;
            peers[j] = Some(s);
        }
        let mut accepted = 0;
        while accepted < n - 1 - cfg.rank {
            let mut s = accept_until(&listener, deadline)?;
            s.set_nodelay(true)?;
            let Some((_, payload)) = handshake_frame(&mut s, MESH_TAG, deadline)? else {
                continue; // closed before MESH: not one of ours
            };
            if payload.len() != 4 {
                return Err(bad_handshake("short MESH"));
            }
            let j = u32::from_le_bytes(
                payload
                    .as_slice()
                    .try_into()
                    .map_err(|_| bad_handshake("short MESH"))?,
            ) as usize;
            if j <= cfg.rank || j >= n || peers[j].is_some() {
                return Err(bad_handshake("MESH with invalid or duplicate rank"));
            }
            peers[j] = Some(s);
            accepted += 1;
        }
        // Hand indefinitely-blocking streams to the data plane.
        for stream in peers.iter().flatten() {
            stream.set_read_timeout(None)?;
        }
        Ok(Bootstrap {
            streams: peers,
            listener: Some(listener),
            addrs,
        })
    }
}

/// Re-rendezvous a respawned rank into a running mesh (resilient mode):
/// bind a fresh listener, report in at the root's retained listener with
/// REJOIN (getting the current address table back), then dial every
/// survivor's retained listener with REJOIN_MESH. The survivors re-arm
/// their side of each link as the dials land.
fn rejoin_rendezvous(cfg: &NetConfig) -> std::io::Result<Bootstrap> {
    let n = cfg.nranks;
    let deadline = Instant::now() + cfg.connect_timeout;
    let mut peers: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
    if cfg.rank == 0 {
        return Err(bad_handshake(
            "rank 0 cannot rejoin: the root's death escalates to a full relaunch",
        ));
    }
    let host = cfg
        .root
        .rsplit_once(':')
        .map(|(h, _)| h)
        .unwrap_or("127.0.0.1");
    let listener = TcpListener::bind(format!("{host}:0"))?;
    let my_addr = listener.local_addr()?.to_string();
    let mut root = connect_retry(&cfg.root, cfg.connect_timeout, cfg.rank as u64)?;
    root.set_nodelay(true)?;
    let mut hello = Vec::with_capacity(4 + my_addr.len());
    hello.extend_from_slice(&(cfg.rank as u32).to_le_bytes());
    hello.extend_from_slice(my_addr.as_bytes());
    write_frame(&mut root, REJOIN_TAG, &hello)?;
    root.flush()?;
    let (_, table) = handshake_frame(&mut root, TABLE_TAG, deadline)?
        .ok_or_else(|| bad_handshake("root closed before answering REJOIN"))?;
    let addrs = parse_table(&table, n)?;
    peers[0] = Some(root);
    for (j, addr) in addrs.iter().enumerate() {
        if j == 0 || j == cfg.rank {
            continue;
        }
        if addr.is_empty() {
            return Err(bad_handshake(&format!(
                "rejoin table has no address for rank {j}"
            )));
        }
        let mut s = connect_retry(addr, cfg.connect_timeout, cfg.rank as u64)?;
        s.set_nodelay(true)?;
        write_frame(&mut s, REJOIN_MESH_TAG, &(cfg.rank as u32).to_le_bytes())?;
        s.flush()?;
        peers[j] = Some(s);
    }
    for stream in peers.iter().flatten() {
        stream.set_read_timeout(None)?;
    }
    Ok(Bootstrap {
        streams: peers,
        listener: Some(listener),
        addrs,
    })
}

/// Accept one connection, polling a non-blocking listener against the
/// bootstrap deadline.
fn accept_until(listener: &TcpListener, deadline: Instant) -> std::io::Result<TcpStream> {
    listener.set_nonblocking(true)?;
    let until = deadline.saturating_duration_since(Instant::now());
    let mut poll = RetryPolicy::poll(Duration::from_millis(10), until);
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                return Ok(stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if !poll.backoff() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "bootstrap deadline passed while waiting for a peer to connect",
                    ));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Read one handshake frame under the bootstrap deadline. `Ok(None)` means
/// the peer closed before completing the handshake (skippable); a wrong
/// tag, a timeout or a corrupt frame is an error.
fn handshake_frame(
    stream: &mut TcpStream,
    want: u64,
    deadline: Instant,
) -> std::io::Result<Option<(u64, Vec<u8>)>> {
    match handshake_frame_any(stream, deadline)? {
        Some((tag, payload)) if tag == want => Ok(Some((tag, payload))),
        Some((tag, _)) => Err(bad_handshake(&format!(
            "expected frame tag {want:#x}, got {tag:#x}"
        ))),
        None => Ok(None),
    }
}

/// [`handshake_frame`] without the tag expectation (the retained-listener
/// acceptor dispatches on the tag itself).
fn handshake_frame_any(
    stream: &mut TcpStream,
    deadline: Instant,
) -> std::io::Result<Option<(u64, Vec<u8>)>> {
    let remaining = deadline
        .checked_duration_since(Instant::now())
        .filter(|d| !d.is_zero())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "bootstrap deadline passed mid-handshake",
            )
        })?;
    stream.set_read_timeout(Some(remaining))?;
    match read_frame(stream) {
        Ok(frame) => Ok(frame),
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Err(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            "bootstrap deadline passed mid-handshake",
        )),
        Err(e) => Err(e),
    }
}

fn bad_handshake(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, format!("handshake: {msg}"))
}

fn parse_table(table: &[u8], n: usize) -> std::io::Result<Vec<String>> {
    let mut pos = 4usize;
    let header: [u8; 4] = table
        .get(0..4)
        .and_then(|b| b.try_into().ok())
        .ok_or_else(|| bad_handshake("address table size mismatch"))?;
    if u32::from_le_bytes(header) as usize != n {
        return Err(bad_handshake("address table size mismatch"));
    }
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let len: [u8; 4] = table
            .get(pos..pos + 4)
            .and_then(|b| b.try_into().ok())
            .ok_or_else(|| bad_handshake("truncated address table"))?;
        let len = u32::from_le_bytes(len) as usize;
        pos += 4;
        let entry = table
            .get(pos..pos + len)
            .ok_or_else(|| bad_handshake("truncated address table entry"))?;
        addrs.push(
            String::from_utf8(entry.to_vec()).map_err(|_| bad_handshake("address not UTF-8"))?,
        );
        pos += len;
    }
    Ok(addrs)
}

/// Dial `addr` until it answers or `timeout` passes. Each attempt uses a
/// bounded `connect_timeout` (a blackholed SYN must not consume the whole
/// deadline in one dial — the original failure mode of workers racing the
/// root's listener) and failed attempts back off with deterministic
/// jitter via [`RetryPolicy::connect`], seeded per rank so a respawn
/// storm does not dial in lockstep.
fn connect_retry(addr: &str, timeout: Duration, seed: u64) -> std::io::Result<TcpStream> {
    let target = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| bad_handshake(&format!("{addr} resolves to no address")))?;
    let mut policy = RetryPolicy::connect(timeout, seed);
    loop {
        let per_attempt = policy
            .remaining()
            .min(Duration::from_secs(2))
            .max(Duration::from_millis(10));
        match TcpStream::connect_timeout(&target, per_attempt) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if !policy.backoff() {
                    return Err(std::io::Error::new(
                        e.kind(),
                        format!("connect to {addr} failed after {timeout:?}: {e}"),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::free_loopback_addr;

    /// Bring up an n-rank mesh inside one process (one thread per rank —
    /// exactly what the bootstrap does across processes) and run `f` per
    /// rank.
    fn mesh<R: Send>(n: usize, f: impl Fn(Arc<TcpFabric>) -> R + Sync) -> Vec<R> {
        mesh_cfg(n, false, f)
    }

    fn mesh_cfg<R: Send>(
        n: usize,
        resilient: bool,
        f: impl Fn(Arc<TcpFabric>) -> R + Sync,
    ) -> Vec<R> {
        let root = free_loopback_addr().unwrap();
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (rank, slot) in out.iter_mut().enumerate() {
                let root = root.clone();
                let f = &f;
                scope.spawn(move || {
                    let mut cfg = NetConfig::new(rank, n, root);
                    cfg.recv_timeout = Duration::from_secs(10);
                    cfg.resilient = resilient;
                    let fabric = TcpFabric::connect(&cfg).unwrap();
                    *slot = Some(f(fabric));
                });
            }
        });
        out.into_iter().map(|o| o.unwrap()).collect()
    }

    #[test]
    fn two_rank_roundtrip_and_tags() {
        mesh(2, |fabric| {
            let me = fabric.rank();
            let other = 1 - me;
            fabric.send(me, other, 7, Arc::new(vec![me as u8; 3]));
            fabric.send(me, other, 9, Arc::new(vec![0xEE]));
            // Tag-matched: tag 9 first, then 7, regardless of send order.
            assert_eq!(&*fabric.recv(me, other, 9).unwrap(), &[0xEE]);
            assert_eq!(&*fabric.recv(me, other, 7).unwrap(), &[other as u8; 3]);
        });
    }

    #[test]
    fn per_channel_fifo_under_burst() {
        mesh(2, |fabric| {
            let me = fabric.rank();
            let other = 1 - me;
            if me == 0 {
                for i in 0..200u32 {
                    fabric.send(0, 1, 5, Arc::new(i.to_le_bytes().to_vec()));
                }
                assert_eq!(&*fabric.recv(0, 1, 6).unwrap(), b"done");
            } else {
                for i in 0..200u32 {
                    let p = fabric.recv(1, 0, 5).unwrap();
                    assert_eq!(u32::from_le_bytes(p.as_slice().try_into().unwrap()), i);
                }
                fabric.send(1, other, 6, Arc::new(b"done".to_vec()));
            }
        });
    }

    #[test]
    fn four_rank_mesh_all_pairs() {
        let results = mesh(4, |fabric| {
            let me = fabric.rank();
            for dst in 0..4 {
                if dst != me {
                    fabric.send(me, dst, 11, Arc::new(vec![me as u8]));
                }
            }
            let mut got = Vec::new();
            for src in 0..4 {
                if src != me {
                    got.push(fabric.recv(me, src, 11).unwrap()[0]);
                }
            }
            got
        });
        for (rank, got) in results.iter().enumerate() {
            let expected: Vec<u8> = (0..4u8).filter(|&r| r as usize != rank).collect();
            assert_eq!(got, &expected);
        }
    }

    #[test]
    fn self_send_loops_back() {
        mesh(1, |fabric| {
            fabric.send(0, 0, 3, Arc::new(vec![1, 2]));
            assert_eq!(&*fabric.recv(0, 0, 3).unwrap(), &[1, 2]);
        });
    }

    #[test]
    fn traffic_counts_sent_frames() {
        let traffic = mesh(2, |fabric| {
            let me = fabric.rank();
            if me == 0 {
                fabric.send(0, 1, 1, Arc::new(vec![0; 100]));
                fabric.send(0, 1, 1, Arc::new(vec![0; 28]));
            }
            // Both ranks must see the data before counters are read.
            if me == 1 {
                fabric.recv(1, 0, 1).unwrap();
                fabric.recv(1, 0, 1).unwrap();
            }
            (fabric.traffic(), fabric.per_peer_traffic())
        });
        let (t0, _) = &traffic[0];
        assert_eq!(t0.msgs(), 2);
        assert_eq!(t0.bytes(), 128);
        assert_eq!(t0.intra_msgs, 0, "tcp counts as inter");
        let (_, per1) = &traffic[1];
        assert_eq!(per1[0].recv_msgs, 2);
        assert_eq!(per1[0].recv_bytes, 128);
    }

    #[test]
    fn peer_death_fails_blocked_recv_but_drains_delivered_messages() {
        let root = free_loopback_addr().unwrap();
        let root2 = root.clone();
        let survivor = std::thread::spawn(move || {
            let mut cfg = NetConfig::new(0, 2, root2);
            cfg.recv_timeout = Duration::from_secs(10);
            let fabric = TcpFabric::connect(&cfg).unwrap();
            // The message sent before death must still be deliverable...
            assert_eq!(&*fabric.recv(0, 1, 1).unwrap(), &[42]);
            // ...then the death becomes observable.
            let err = fabric.recv(0, 1, 2).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("down"), "unexpected error: {msg}");
        });
        {
            let mut cfg = NetConfig::new(1, 2, root);
            cfg.recv_timeout = Duration::from_secs(10);
            let fabric = TcpFabric::connect(&cfg).unwrap();
            fabric.send(1, 0, 1, Arc::new(vec![42]));
            fabric.shutdown();
            // Dropping the fabric closes the sockets: a simulated process
            // death as far as rank 0 can observe.
        }
        survivor.join().unwrap();
    }

    #[test]
    fn recv_timeout_reports_instead_of_hanging() {
        mesh(2, |fabric| {
            let me = fabric.rank();
            if me == 0 {
                let mut cfg_err = fabric.recv(0, 1, 999);
                // The peer never sends on tag 999; once it exits the link
                // drops, so we accept either a timeout or a down report —
                // both are loud failures, never a hang.
                let msg = loop {
                    match cfg_err {
                        Err(e) => break e.to_string(),
                        Ok(_) => cfg_err = fabric.recv(0, 1, 999),
                    }
                };
                assert!(msg.contains("down") || msg.contains("timed out"), "{msg}");
            }
        });
    }

    #[test]
    fn bootstrap_times_out_loudly_when_a_rank_never_reports() {
        // Rank 0 of a "2-rank" job whose worker never starts: the
        // rendezvous must fail within the bootstrap deadline, not hang.
        let root = free_loopback_addr().unwrap();
        let mut cfg = NetConfig::new(0, 2, root);
        cfg.connect_timeout = Duration::from_millis(300);
        let t0 = std::time::Instant::now();
        let err = match TcpFabric::connect(&cfg) {
            Err(e) => e,
            Ok(_) => panic!("bootstrap must fail with no worker"),
        };
        assert!(t0.elapsed() < Duration::from_secs(5));
        assert!(err.to_string().contains("bootstrap"), "{err}");
    }

    #[test]
    fn bootstrap_skips_connections_that_close_before_hello() {
        // A port prober (or a rank that died right after connect) must not
        // poison the rendezvous: the root skips it and still completes.
        let root = free_loopback_addr().unwrap();
        let probe_addr = root.clone();
        let prober = std::thread::spawn(move || {
            // Poke the rendezvous port until it exists, then hang up
            // without sending anything.
            loop {
                match std::net::TcpStream::connect(&probe_addr) {
                    Ok(s) => {
                        drop(s);
                        break;
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        });
        let results = {
            let root0 = root.clone();
            let h0 = std::thread::spawn(move || {
                let cfg = NetConfig::new(0, 2, root0);
                TcpFabric::connect(&cfg).map(|f| f.nranks())
            });
            let h1 = std::thread::spawn(move || {
                // Give the prober a head start at the listener.
                std::thread::sleep(Duration::from_millis(50));
                let cfg = NetConfig::new(1, 2, root);
                TcpFabric::connect(&cfg).map(|f| f.nranks())
            });
            (h0.join().unwrap(), h1.join().unwrap())
        };
        prober.join().unwrap();
        assert_eq!(results.0.unwrap(), 2);
        assert_eq!(results.1.unwrap(), 2);
    }

    #[test]
    fn clean_shutdown_does_not_raise_fault() {
        // A finished rank announces itself with BYE: resilient survivors
        // must classify the EOF as completion, not a crash.
        let done = mesh_cfg(2, true, |fabric| {
            let me = fabric.rank();
            fabric.send(me, 1 - me, 4, Arc::new(vec![me as u8]));
            fabric.recv(me, 1 - me, 4).unwrap();
            if me == 1 {
                fabric.shutdown();
                return true;
            }
            // Wait until rank 1's shutdown is observed as a *clean* down.
            let t0 = Instant::now();
            while fabric.peer_down(1).is_none() {
                assert!(t0.elapsed() < Duration::from_secs(5), "down never observed");
                std::thread::sleep(Duration::from_millis(10));
            }
            assert!(
                !fabric.fault_pending(),
                "clean shutdown must not raise the fault flag"
            );
            true
        });
        assert_eq!(done, vec![true, true]);
    }

    /// The in-process version of the supervised recovery path: rank 2 of a
    /// resilient 3-rank mesh "crashes" (its sockets are torn down with no
    /// BYE), the survivors observe a pending fault, a fresh fabric rejoins
    /// as rank 2 through the retained listeners, everyone meets in
    /// `recover`, and post-recovery traffic flows on all links.
    #[test]
    fn resilient_mesh_survives_single_rank_rejoin() {
        let root = free_loopback_addr().unwrap();
        let mk = |rank: usize, root: &str, rejoin: bool| {
            let mut cfg = NetConfig::new(rank, 3, root.to_string());
            cfg.recv_timeout = Duration::from_secs(15);
            cfg.connect_timeout = Duration::from_secs(15);
            cfg.resilient = true;
            cfg.rejoin = rejoin;
            TcpFabric::connect(&cfg).unwrap()
        };
        let exchange = |fabric: &Arc<TcpFabric>, tag: u64| {
            let me = fabric.rank();
            for dst in 0..3 {
                if dst != me {
                    fabric.send(me, dst, tag, Arc::new(vec![me as u8]));
                }
            }
            for src in 0..3 {
                if src != me {
                    assert_eq!(&*fabric.recv(me, src, tag).unwrap(), &[src as u8]);
                }
            }
        };
        std::thread::scope(|scope| {
            for rank in 0..2 {
                let root = root.clone();
                scope.spawn(move || {
                    let fabric = mk(rank, &root, false);
                    exchange(&fabric, 1);
                    // Wait for the crash to be detected, then recover.
                    let t0 = Instant::now();
                    while !fabric.fault_pending() {
                        assert!(t0.elapsed() < Duration::from_secs(10), "fault never seen");
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    fabric.recover(Duration::from_secs(10)).unwrap();
                    exchange(&fabric, 2);
                    fabric.shutdown();
                });
            }
            let root = root.clone();
            scope.spawn(move || {
                let victim = mk(2, &root, false);
                exchange(&victim, 1);
                // Let the send threads flush the tag-1 frames (a real
                // kernel keeps delivering what reached it pre-crash).
                std::thread::sleep(Duration::from_millis(200));
                // Crash: sockets die with no BYE. The fabric object is
                // abandoned (leaked for the scope) exactly like a dead
                // process's kernel state.
                for peer in victim.peers.iter() {
                    *peer.tx.lock() = None;
                }
                std::thread::sleep(Duration::from_millis(50));
                for peer in victim.peers.iter() {
                    if let Some(s) = peer.sock.lock().take() {
                        let _ = s.shutdown(Shutdown::Both);
                    }
                }
                std::thread::sleep(Duration::from_millis(100));
                // Respawn: a fresh fabric rejoins the running mesh.
                let reborn = mk(2, &root, true);
                reborn.recover(Duration::from_secs(10)).unwrap();
                exchange(&reborn, 2);
                reborn.shutdown();
                std::mem::forget(victim); // its threads still hold Weak refs
            });
        });
    }

    #[test]
    fn config_from_env_contract() {
        // Exercised through the injectable lookup: writing the real
        // process environment from a test would race sibling tests that
        // spawn processes (concurrent setenv/getenv is UB on glibc).
        let vars = |pairs: &[(&str, &str)]| {
            let owned: Vec<(String, String)> = pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect();
            move |name: &str| {
                owned
                    .iter()
                    .find(|(k, _)| k == name)
                    .map(|(_, v)| v.clone())
            }
        };
        // Not launched as a rank: None.
        assert!(NetConfig::from_lookup(vars(&[])).unwrap().is_none());
        let cfg = NetConfig::from_lookup(vars(&[
            (ENV_RANK, "1"),
            (ENV_NRANKS, "4"),
            (ENV_ROOT, "127.0.0.1:9"),
            (ENV_TIMEOUT, "3"),
        ]))
        .unwrap()
        .unwrap();
        assert_eq!((cfg.rank, cfg.nranks), (1, 4));
        assert_eq!(cfg.root, "127.0.0.1:9");
        assert_eq!(cfg.recv_timeout, Duration::from_secs(3));
        assert_eq!(cfg.connect_timeout, Duration::from_secs(3));
        assert!(!cfg.resilient);
        assert!(!cfg.rejoin);
        // The supervisor's resilience contract.
        let cfg = NetConfig::from_lookup(vars(&[
            (ENV_RANK, "2"),
            (ENV_NRANKS, "4"),
            (ENV_ROOT, "127.0.0.1:9"),
            (ENV_RESILIENT, "1"),
        ]))
        .unwrap()
        .unwrap();
        assert!(cfg.resilient && !cfg.rejoin);
        // Rejoin implies resilient even if the flag was lost in respawn.
        let cfg = NetConfig::from_lookup(vars(&[
            (ENV_RANK, "2"),
            (ENV_NRANKS, "4"),
            (ENV_ROOT, "127.0.0.1:9"),
            (ENV_REJOIN, "1"),
        ]))
        .unwrap()
        .unwrap();
        assert!(cfg.resilient && cfg.rejoin);
        // Malformed contracts are loud errors, not silent non-worker mode.
        assert!(
            NetConfig::from_lookup(vars(&[
                (ENV_RANK, "9"),
                (ENV_NRANKS, "4"),
                (ENV_ROOT, "127.0.0.1:9"),
            ]))
            .is_err(),
            "rank out of range"
        );
        assert!(NetConfig::from_lookup(vars(&[(ENV_RANK, "0")])).is_err());
        assert!(NetConfig::from_lookup(vars(&[(ENV_RANK, "zero"), (ENV_NRANKS, "2")])).is_err());
    }
}
