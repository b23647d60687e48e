//! Deterministic fault injection for the TCP fabric.
//!
//! Robustness claims need a fault fabric that can *reproduce* a failure:
//! [`ChaosFabric`] wraps any [`Fabric`] and injects message delay,
//! bandwidth throttling, frame corruption and drop-with-peer-death from a
//! seeded pseudo-random stream, and [`kill_point`] arms process aborts at
//! named protocol sites (mid-checkpoint-stream, mid-barrier,
//! mid-rendezvous). Everything is driven by the `PPAR_CHAOS_*`
//! environment contract:
//!
//! | variable              | meaning                                          |
//! |-----------------------|--------------------------------------------------|
//! | `PPAR_CHAOS_SEED`     | master seed; unset ⇒ chaos entirely disabled     |
//! | `PPAR_CHAOS_KILL`     | `rank:site[:nth]` — abort `rank` at the `nth` hit of `site` |
//! | `PPAR_CHAOS_DELAY`    | `prob,max_ms` — delay a message up to `max_ms`   |
//! | `PPAR_CHAOS_CORRUPT`  | probability of flipping a byte in a checkpoint-stream frame |
//! | `PPAR_CHAOS_DROP`     | probability of drop-with-peer-death (the process aborts — on a reliable stream transport a silent drop is only consistent with the sender dying) |
//! | `PPAR_CHAOS_THROTTLE` | bandwidth cap in bytes/second (shared by all of the process's sending threads, like a real NIC) |
//!
//! **Reproducibility contract:** the same `PPAR_CHAOS_SEED` (plus rank)
//! yields the same decision for the *n*-th injected message and the same
//! kill schedule — [`schedule`] exposes the decision stream as pure data
//! and the crate's proptests pin it.
//!
//! Corruption targets only checkpoint-stream frames (tag bit
//! [`crate::transport::CKPT_TAG_BIT`]): their payloads are covered by the
//! record-level trailing CRC, so injected rot surfaces as a *rejected
//! save* — an error the job handles — never as silently wrong results.
//! Kill sites live in the protocol code itself: `"ckpt-stream"` between
//! checkpoint stream chunks, `"barrier"` between a barrier contribution
//! and its release, `"rendezvous"` between the bootstrap hello and the
//! mesh build.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use ppar_core::error::Result;
use ppar_core::sync::{AtomicU64, Mutex, Ordering};

use crate::fabric::{Fabric, Payload, Traffic};
use crate::transport::CKPT_TAG_BIT;

/// Master seed; unset disables every injection (env contract above).
pub const ENV_SEED: &str = "PPAR_CHAOS_SEED";
/// Kill-point spec `rank:site[:nth]`.
pub const ENV_KILL: &str = "PPAR_CHAOS_KILL";
/// Message delay spec `prob,max_ms`.
pub const ENV_DELAY: &str = "PPAR_CHAOS_DELAY";
/// Checkpoint-frame corruption probability.
pub const ENV_CORRUPT: &str = "PPAR_CHAOS_CORRUPT";
/// Drop-with-peer-death probability.
pub const ENV_DROP: &str = "PPAR_CHAOS_DROP";
/// Bandwidth throttle in bytes/second.
pub const ENV_THROTTLE: &str = "PPAR_CHAOS_THROTTLE";
/// Pre-abort grace in milliseconds at an armed kill point (default 50).
pub const ENV_KILL_GRACE_MS: &str = "PPAR_CHAOS_KILL_GRACE_MS";

/// Injection knobs for one run (see the module docs for the env contract).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Master seed: identical seeds yield identical fault schedules.
    pub seed: u64,
    /// Per-message delay probability (0.0 disables).
    pub delay_prob: f64,
    /// Upper bound of an injected delay.
    pub delay_max: Duration,
    /// Per-checkpoint-frame corruption probability.
    pub corrupt_prob: f64,
    /// Per-message drop-with-peer-death probability.
    pub drop_prob: f64,
    /// Bandwidth cap in bytes/second (`None` = unthrottled).
    pub throttle: Option<u64>,
}

impl ChaosConfig {
    /// A quiet config with the given seed (no injections armed).
    pub fn new(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            delay_prob: 0.0,
            delay_max: Duration::ZERO,
            corrupt_prob: 0.0,
            drop_prob: 0.0,
            throttle: None,
        }
    }

    /// Read the `PPAR_CHAOS_*` contract from the process environment.
    /// `None` when `PPAR_CHAOS_SEED` is unset (chaos disabled).
    pub fn from_env() -> Option<ChaosConfig> {
        ChaosConfig::from_lookup(|k| std::env::var(k).ok())
    }

    /// [`ChaosConfig::from_env`] with an injectable lookup (testability).
    pub fn from_lookup(get: impl Fn(&str) -> Option<String>) -> Option<ChaosConfig> {
        let seed = get(ENV_SEED)?.trim().parse().ok()?;
        let mut cfg = ChaosConfig::new(seed);
        if let Some(spec) = get(ENV_DELAY) {
            let (prob, max_ms) = spec.split_once(',').unwrap_or((spec.as_str(), "50"));
            cfg.delay_prob = prob.trim().parse().unwrap_or(0.0);
            cfg.delay_max = Duration::from_millis(max_ms.trim().parse().unwrap_or(50));
        }
        if let Some(p) = get(ENV_CORRUPT) {
            cfg.corrupt_prob = p.trim().parse().unwrap_or(0.0);
        }
        if let Some(p) = get(ENV_DROP) {
            cfg.drop_prob = p.trim().parse().unwrap_or(0.0);
        }
        if let Some(b) = get(ENV_THROTTLE) {
            cfg.throttle = b.trim().parse().ok();
        }
        Some(cfg)
    }
}

/// The deterministic decision stream: a xorshift64 generator seeded from
/// `(seed, rank)` so every rank draws an independent but reproducible
/// sequence.
#[derive(Debug, Clone)]
pub struct ChaosRng(u64);

impl ChaosRng {
    /// Seed the stream for one rank.
    pub fn new(seed: u64, rank: usize) -> ChaosRng {
        // splitmix-style scramble of (seed, rank); avoid the zero fixed
        // point of xorshift.
        let mut x = seed ^ ((rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ChaosRng((x ^ (x >> 31)) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.unit() < p
    }
}

/// One injected decision for one message (the pure form of what
/// [`ChaosFabric`] does on the wire — see [`schedule`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Deliver untouched.
    Deliver,
    /// Delay delivery by this much.
    Delay(Duration),
    /// Flip the byte at this payload offset (checkpoint frames only).
    Corrupt(usize),
    /// Drop the message and kill the sending process.
    Kill,
}

/// Decide the fate of one message of `len` payload bytes. This is the
/// *single* decision procedure — the live fabric and the pure
/// [`schedule`] both call it, so what a test enumerates is exactly what a
/// run injects.
fn decide(cfg: &ChaosConfig, rng: &mut ChaosRng, len: usize, ckpt_frame: bool) -> ChaosEvent {
    if rng.chance(cfg.drop_prob) {
        return ChaosEvent::Kill;
    }
    if ckpt_frame && len > 0 && rng.chance(cfg.corrupt_prob) {
        return ChaosEvent::Corrupt(rng.next_u64() as usize % len);
    }
    if rng.chance(cfg.delay_prob) {
        let d = cfg.delay_max.as_secs_f64() * rng.unit();
        return ChaosEvent::Delay(Duration::from_secs_f64(d));
    }
    ChaosEvent::Deliver
}

/// The first `n` injection decisions rank `rank` would make for a stream
/// of `len`-byte checkpoint frames — the fault schedule as pure data.
/// Identical `(cfg, rank, n, len)` always returns identical events (the
/// reproducibility contract).
pub fn schedule(cfg: &ChaosConfig, rank: usize, n: usize, len: usize) -> Vec<ChaosEvent> {
    let mut rng = ChaosRng::new(cfg.seed, rank);
    (0..n).map(|_| decide(cfg, &mut rng, len, true)).collect()
}

// ---------------------------------------------------------------------------
// kill points
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct KillSpec {
    rank: usize,
    site: String,
    nth: u64,
}

impl KillSpec {
    fn from_env() -> Option<KillSpec> {
        // A respawned rank must not re-execute its death sentence: the
        // supervisor marks rejoining processes with PPAR_REJOIN.
        if std::env::var("PPAR_REJOIN").is_ok_and(|v| v == "1") {
            return None;
        }
        let spec = std::env::var(ENV_KILL).ok()?;
        let me: usize = std::env::var(crate::tcp::ENV_RANK).ok()?.parse().ok()?;
        let mut parts = spec.splitn(3, ':');
        let rank: usize = parts.next()?.trim().parse().ok()?;
        let site = parts.next()?.trim().to_string();
        let nth: u64 = match parts.next() {
            Some(n) => n.trim().parse().ok()?,
            None => 1,
        };
        (rank == me).then_some(KillSpec { rank, site, nth })
    }
}

/// A named protocol site the chaos contract can abort at. Call sites are
/// free (one atomic hit-count when armed, one `OnceLock` read otherwise):
/// the process aborts on the `nth` hit of the armed site when
/// `PPAR_CHAOS_KILL=rank:site:nth` names this rank. No-op otherwise.
pub fn kill_point(site: &str) {
    static SPEC: OnceLock<Option<KillSpec>> = OnceLock::new();
    static HITS: AtomicU64 = AtomicU64::new(0);
    let Some(spec) = SPEC.get_or_init(KillSpec::from_env) else {
        return;
    };
    if spec.site != site {
        return;
    }
    let n = HITS.fetch_add(1, Ordering::SeqCst) + 1;
    if n == spec.nth {
        eprintln!(
            "ppar-chaos: rank {} aborting at kill point {:?} (hit {n})",
            spec.rank, spec.site
        );
        // Give the fabric's send threads a grace window to drain frames
        // this rank queued *before* reaching the site: a real stack has
        // already handed those to the kernel, which delivers them after
        // the crash. Aborting instantly would also retract delivered
        // protocol messages (e.g. a barrier contribution racing its own
        // flush), making the fault's position relative to the group
        // commit nondeterministic. A harness that needs the fault pinned
        // strictly *after* a collective completes globally (so slower
        // peers finish consuming this rank's contribution first) can
        // widen the window via `PPAR_CHAOS_KILL_GRACE_MS`. In-flight
        // loss is modelled separately by the drop-with-peer-death
        // injection, which aborts mid-stream.
        let grace = std::env::var(ENV_KILL_GRACE_MS)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(50);
        std::thread::sleep(std::time::Duration::from_millis(grace));
        std::process::abort();
    }
}

// ---------------------------------------------------------------------------
// the injecting fabric
// ---------------------------------------------------------------------------

/// A seeded fault-injecting wrapper around any [`Fabric`].
///
/// Injections happen on the send side (delay, throttle, corrupt, kill);
/// receives, probes and traffic accounting pass straight through, and
/// [`Fabric::fault_pending`] forwards so the failure detector keeps
/// working underneath the chaos layer.
pub struct ChaosFabric {
    inner: Arc<dyn Fabric>,
    cfg: ChaosConfig,
    rng: Mutex<ChaosRng>,
    /// Token-bucket tail for the bandwidth throttle: the instant the
    /// process's modelled NIC becomes free again. Shared across every
    /// sending thread — a throttle is a *link* cap, so concurrent
    /// streams (e.g. the root restoring many shards at once) divide the
    /// bandwidth instead of each enjoying the full rate.
    throttle_until: Mutex<Option<std::time::Instant>>,
}

impl ChaosFabric {
    /// Wrap `inner`, drawing decisions from `cfg` seeded for `rank`.
    pub fn new(inner: Arc<dyn Fabric>, rank: usize, cfg: ChaosConfig) -> ChaosFabric {
        let rng = Mutex::new(ChaosRng::new(cfg.seed, rank));
        ChaosFabric {
            inner,
            cfg,
            rng,
            throttle_until: Mutex::new(None),
        }
    }

    fn inject(&self, tag: u64, payload: &mut Payload) {
        let ckpt_frame = tag & CKPT_TAG_BIT != 0;
        let event = {
            let mut rng = self.rng.lock();
            decide(&self.cfg, &mut rng, payload.len(), ckpt_frame)
        };
        match event {
            ChaosEvent::Deliver => {}
            ChaosEvent::Delay(d) => std::thread::sleep(d),
            ChaosEvent::Corrupt(at) => {
                let mut bytes = payload.as_ref().clone();
                bytes[at] ^= 0x40;
                *payload = Payload::from(bytes);
            }
            ChaosEvent::Kill => {
                eprintln!("ppar-chaos: drop-with-peer-death on tag {tag:#x}; aborting");
                std::process::abort();
            }
        }
        if let Some(rate) = self.cfg.throttle {
            if rate > 0 && !payload.is_empty() && !self.inner.fault_pending() {
                let cost = Duration::from_secs_f64(payload.len() as f64 / rate as f64);
                let now = std::time::Instant::now();
                let wake = {
                    let mut until = self.throttle_until.lock();
                    let wake = until.map_or(now, |u| u.max(now)) + cost;
                    *until = Some(wake);
                    wake
                };
                // Serve the cost in short slices, watching for a peer
                // fault: backpressure models a live epoch's wire, and a
                // frame from an attempt that is being torn down must not
                // stall its sender's unwind or queue the repair traffic
                // behind a dead epoch — collapse the shared horizon and
                // bail. (`recover` clears the fault, so replay traffic
                // pays the full toll again.)
                loop {
                    let left = wake.saturating_duration_since(std::time::Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    if self.inner.fault_pending() {
                        let mut until = self.throttle_until.lock();
                        *until = None;
                        break;
                    }
                    std::thread::sleep(left.min(Duration::from_millis(20)));
                }
            }
        }
    }
}

impl Fabric for ChaosFabric {
    fn describe(&self) -> &'static str {
        "chaos"
    }

    fn nranks(&self) -> usize {
        self.inner.nranks()
    }

    fn send(&self, src: usize, dst: usize, tag: u64, payload: Payload) {
        let mut payload = payload;
        self.inject(tag, &mut payload);
        self.inner.send(src, dst, tag, payload);
    }

    fn recv(&self, dst: usize, src: usize, tag: u64) -> Result<Payload> {
        self.inner.recv(dst, src, tag)
    }

    fn recv_any(&self, dst: usize, tag: u64) -> Result<(usize, Payload)> {
        self.inner.recv_any(dst, tag)
    }

    fn probe(&self, dst: usize, src: usize, tag: u64) -> bool {
        self.inner.probe(dst, src, tag)
    }

    fn traffic(&self) -> Traffic {
        self.inner.traffic()
    }

    fn fault_pending(&self) -> bool {
        self.inner.fault_pending()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn env_contract_round_trips() {
        let get = |k: &str| match k {
            ENV_SEED => Some("1234".to_string()),
            ENV_DELAY => Some("0.5,20".to_string()),
            ENV_CORRUPT => Some("0.01".to_string()),
            ENV_DROP => Some("0.001".to_string()),
            ENV_THROTTLE => Some("1048576".to_string()),
            _ => None,
        };
        let cfg = ChaosConfig::from_lookup(get).expect("seed set");
        assert_eq!(cfg.seed, 1234);
        assert_eq!(cfg.delay_prob, 0.5);
        assert_eq!(cfg.delay_max, Duration::from_millis(20));
        assert_eq!(cfg.corrupt_prob, 0.01);
        assert_eq!(cfg.drop_prob, 0.001);
        assert_eq!(cfg.throttle, Some(1 << 20));
        assert_eq!(ChaosConfig::from_lookup(|_| None), None);
    }

    proptest::proptest! {
        /// The reproducibility contract: identical seed ⇒ identical fault
        /// schedule; a different seed diverges somewhere in a long prefix.
        #[test]
        fn same_seed_same_fault_schedule(seed in 0u64..u64::MAX, rank in 0usize..16) {
            let mut cfg = ChaosConfig::new(seed);
            cfg.delay_prob = 0.3;
            cfg.delay_max = Duration::from_millis(40);
            cfg.corrupt_prob = 0.2;
            cfg.drop_prob = 0.05;
            let a = schedule(&cfg, rank, 256, 4096);
            let b = schedule(&cfg, rank, 256, 4096);
            prop_assert_eq!(&a, &b);

            let mut other = cfg.clone();
            other.seed = seed.wrapping_add(1);
            let c = schedule(&other, rank, 256, 4096);
            prop_assert_ne!(&a, &c);
        }
    }

    #[test]
    fn schedule_is_prefix_stable() {
        let mut cfg = ChaosConfig::new(99);
        cfg.delay_prob = 0.5;
        cfg.delay_max = Duration::from_millis(10);
        let long = schedule(&cfg, 3, 64, 128);
        let short = schedule(&cfg, 3, 16, 128);
        assert_eq!(&long[..16], &short[..]);
    }
}
