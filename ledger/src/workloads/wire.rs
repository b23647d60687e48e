//! `wire_ckpt`: a client saves to and restores from a root that serves a
//! store over a loopback `TcpFabric`: cold saves against a flat-backed
//! root, 5%-dirty re-saves (the dedup handshake) against a CAS-backed one.

use super::{ms, rotated, timed_setups, Env, Kind, Yardsticks, MIN_ROUNDS_OF_MANY_SAVES};
use crate::layers::{self, Layout, RelaxCfg, State, Store, WireClient, CHUNK_BYTES};
use crate::report::WorkloadReport;
use crate::scratch::discard;
use crate::stats::{median, per_round_ratio, percentile};

/// Cycles of one set. Against a flat-backed root a cycle is fresh content,
/// cold save, restore. Against the CAS-backed root a cycle rewrites 5% and
/// re-saves: the dedup path.
const CYCLES: usize = 6;
const PINGS: usize = 200;

/// Samples of the sets against one kind of root.
#[derive(Default)]
struct Root {
    set_s: Vec<f64>,
    put: Vec<f64>,
    local_put: Vec<f64>,
    restore: Vec<f64>,
    local_restore: Vec<f64>,
    chunks_total: Vec<f64>,
    chunks_skipped: Vec<f64>,
    put_wire_bytes: Vec<f64>,
    connect: Vec<f64>,
    ping: Vec<f64>,
}

/// The state that goes over the wire, a second one to restore into, and the
/// count of the last save (safe-point counts only grow).
struct Fixture {
    state: State,
    into: State,
    count: u64,
    /// Fresh content never repeats within a run.
    generation: usize,
}

impl Fixture {
    fn new(cfg: &RelaxCfg) -> Fixture {
        Fixture {
            state: State::new(cfg),
            into: State::new(cfg),
            count: 0,
            generation: 0,
        }
    }
}

/// Restore from the root and from the local store, and check the remote
/// record byte for byte through the decoded state.
fn restore_both(
    env: &Env<'_>,
    r: &mut WorkloadReport,
    fx: &Fixture,
    client: &WireClient,
    local: &Store,
    tag: &str,
    out: &mut Root,
) {
    let mut record = Vec::new();
    let (got, get_s) = env
        .tracer
        .time("net", &format!("get.{tag}"), || client.get(&mut record));
    let got = got.and_then(|_| layers::record_state_checksum(&record, &fx.into));
    let right = |restored: &u64| *restored == fx.state.checksum();
    if r.attempt_if("remote restore", got, right).is_some() {
        out.restore.push(get_s * 1e3);
    }
    let (got, get_s) = env.tracer.time("ckpt", &format!("store_get.{tag}"), || {
        local.get(&mut record)
    });
    if r.attempt("local restore", got).is_some() {
        out.local_restore.push(get_s * 1e3);
    }
}

/// Save to the root and, the same record, to the local store: what the
/// save costs with and without the wire.
fn save_both(
    env: &Env<'_>,
    r: &mut WorkloadReport,
    fx: &mut Fixture,
    client: &mut WireClient,
    local: &mut Store,
    tag: &str,
    out: &mut Root,
) {
    fx.count += 1;
    let sent_before = client.bytes_sent();
    let (put, put_s) = env.tracer.time("net", &format!("put.{tag}"), || {
        client.put(&fx.state, fx.count)
    });
    if let Some(p) = r.attempt("remote save", put) {
        out.put.push(put_s * 1e3);
        out.chunks_total
            .push(p.record_bytes.div_ceil(CHUNK_BYTES as u64) as f64);
        out.chunks_skipped.push(p.wire_chunks_skipped as f64);
        out.put_wire_bytes
            .push((client.bytes_sent() - sent_before) as f64);
    }
    let (put, put_s) = env.tracer.time("ckpt", &format!("store_put.{tag}"), || {
        local.put_full(&fx.state, fx.count)
    });
    if r.attempt("local save", put).is_some() {
        out.local_put.push(put_s * 1e3);
    }
}

fn pings(env: &Env<'_>, client: &WireClient, out: &mut Root) {
    out.connect.push(client.connect_s * 1e3);
    if env.tracer.enabled() {
        for _ in 0..PINGS {
            let ((), rtt) = env.tracer.time("net", "ping", || {
                let _ = client.ping();
            });
            out.ping.push(rtt * 1e6);
        }
    }
}

/// One set against a flat-backed root in new directories: `cycles` times
/// fresh content, cold save, restore.
fn flat_set(
    env: &Env<'_>,
    r: &mut WorkloadReport,
    fx: &mut Fixture,
    cycles: usize,
    out: &mut Root,
) {
    let root_dir = env.scratch.fresh("root_flat");
    let local_dir = env.scratch.fresh("local_flat");
    let opened = Store::open(&local_dir, Layout::Flat, false);
    if let Some(mut local) = r.attempt("open local store", opened) {
        let session = layers::wire_session(&root_dir, Layout::Flat, |client: &mut WireClient| {
            pings(env, client, out);
            let start = std::time::Instant::now();
            for _ in 0..cycles {
                fx.generation += 1;
                fx.state.refresh(fx.generation);
                save_both(env, r, fx, client, &mut local, "flat", out);
                restore_both(env, r, fx, client, &local, "flat", out);
            }
            out.set_s.push(start.elapsed().as_secs_f64());
            Ok(())
        });
        let _ = r.attempt("wire session", session);
    }
    discard(&root_dir);
    discard(&local_dir);
}

/// The CAS-backed root and its local twin: one pair of directories for the
/// whole pass, as a long run would have, holding the records of one state
/// that every cycle rewrites 5% of.
struct CasSide {
    fx: Fixture,
    root_dir: std::path::PathBuf,
    local_dir: std::path::PathBuf,
    local: Store,
}

impl CasSide {
    /// Create both stores and save the base every re-save dedups against.
    /// That save writes one object per chunk into an empty directory, which
    /// takes seconds and says nothing about the wire: it is the warm-up
    /// that is discarded.
    fn warm(env: &Env<'_>, r: &mut WorkloadReport, cfg: &RelaxCfg) -> Option<CasSide> {
        let local_dir = env.scratch.fresh("local_cas");
        let local = r.attempt(
            "open local store",
            Store::open(&local_dir, Layout::Cas, false),
        )?;
        let mut side = CasSide {
            fx: Fixture::new(cfg),
            root_dir: env.scratch.fresh("root_cas"),
            local_dir,
            local,
        };
        side.set(env, r, 0, &mut Root::default());
        Some(side)
    }

    /// One session: the state as it stands is saved first (the base on
    /// first use, a 5%-dirty re-save later), then `cycles` times 5% is
    /// rewritten and re-saved; the last record is restored and checked.
    fn set(&mut self, env: &Env<'_>, r: &mut WorkloadReport, cycles: usize, out: &mut Root) {
        let CasSide {
            fx,
            root_dir,
            local,
            ..
        } = self;
        let session = layers::wire_session(root_dir, Layout::Cas, |client: &mut WireClient| {
            pings(env, client, out);
            if cycles == 0 {
                save_both(env, r, fx, client, local, "cas", &mut Root::default());
            }
            let start = std::time::Instant::now();
            for _ in 0..cycles {
                fx.generation += 1;
                fx.state.rewrite(fx.generation);
                save_both(env, r, fx, client, local, "cas", out);
            }
            restore_both(env, r, fx, client, local, "cas", out);
            out.set_s.push(start.elapsed().as_secs_f64());
            Ok(())
        });
        let _ = r.attempt("wire session", session);
    }
}

impl Drop for CasSide {
    fn drop(&mut self) {
        discard(&self.root_dir);
        discard(&self.local_dir);
    }
}

pub fn run(env: &Env<'_>) -> WorkloadReport {
    let mut r = WorkloadReport::new("wire_ckpt", env.tracer.enabled());
    let cfg = RelaxCfg {
        chunks: if env.quick { 256 } else { 2048 },
        steps: CYCLES,
        window_chunks: if env.quick { 12 } else { 102 },
        seed: env.seed_for("relax_state"),
        fail_after: None,
    };

    // Set-up: the state, and one cycle against a flat-backed root (fabric
    // connect, service spawn, the first save into a new directory).
    let mut warm = WorkloadReport::new("wire_ckpt", false);
    let mut speed = Yardsticks::of(Kind::Page);
    let setup = timed_setups(&mut r, env.setup_reps(), &mut speed, || {
        let mut fx = Fixture::new(&cfg);
        flat_set(env, &mut warm, &mut fx, 1, &mut Root::default());
        match warm.failures.first() {
            Some(f) => Err(f.clone()),
            None => Ok(fx),
        }
    });
    let Some(mut fx) = setup else {
        return r;
    };
    let Some(mut cas_side) = CasSide::warm(env, &mut r, &cfg) else {
        return r;
    };

    let (mut flat, mut cas) = (Root::default(), Root::default());
    let mut rounds = env.rounds(MIN_ROUNDS_OF_MANY_SAVES);
    while rounds.another() {
        for layout in rotated(&[Layout::Flat, Layout::Cas], rounds.index()) {
            match layout {
                Layout::Flat => {
                    speed.take();
                    flat_set(env, &mut r, &mut fx, CYCLES, &mut flat);
                }
                Layout::Cas => cas_side.set(env, &mut r, CYCLES, &mut cas),
            }
        }
    }
    r.rounds = rounds.done;
    drop(cas_side);

    speed.report_run(&mut r, &flat.set_s);
    r.named_median("remote_save_ms", &flat.put);
    r.named_median("remote_resave_ms", &cas.put);
    r.named_median("remote_restore_ms", &flat.restore);
    // The remote operations of a set over the local ones of the same set
    // (medians of six each: a local restore is 5 ms, too short to divide by
    // one sample of it).
    let per_set = |remote: &[f64], local: &[f64]| {
        let medians = |v: &[f64]| v.chunks(CYCLES).map(median).collect::<Vec<_>>();
        per_round_ratio(&medians(remote), &medians(local))
    };
    r.named_value("wire_overhead_save", per_set(&flat.put, &flat.local_put));
    r.named_value("wire_overhead_resave", per_set(&cas.put, &cas.local_put));
    r.named_value(
        "wire_overhead_restore",
        per_set(&flat.restore, &flat.local_restore),
    );
    // Save and restore together. The restore alone divides by 5 ms of page
    // cache read and repeats within 28% only; this is what the driver gets.
    let sum = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(a, b)| a + b).collect::<Vec<_>>();
    r.named_value(
        "wire_overhead_cycle",
        per_set(
            &sum(&flat.put, &flat.restore),
            &sum(&flat.local_put, &flat.local_restore),
        ),
    );

    if env.tracer.enabled() {
        let both = |a: &[f64], b: &[f64]| [a, b].concat();
        r.layer_median("net.connect_ms", &both(&flat.connect, &cas.connect));
        r.layer_median("net.ping_rtt_us", &both(&flat.ping, &cas.ping));
        r.layer_value(
            "net.stream_gbps",
            cfg.state_bytes() as f64 / (median(&flat.put) / 1e3) / 1e9,
        );
        r.layer_value("net.put_ms_p90", percentile(&flat.put, 90.0));
        r.layer_value("net.get_ms_p90", percentile(&flat.restore, 90.0));
        let shipped: Vec<f64> = cas
            .chunks_total
            .iter()
            .zip(&cas.chunks_skipped)
            .map(|(t, s)| t - s)
            .collect();
        r.layer_median("net.wire_chunks_shipped", &shipped);
        r.layer_median("net.wire_chunks_skipped", &cas.chunks_skipped);
        r.layer_value(
            "net.wire_bytes_per_state_byte",
            median(&cas.put_wire_bytes) / cfg.state_bytes() as f64,
        );
        let minus = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(a, b)| a - b).collect::<Vec<_>>();
        r.layer_median(
            "net.wire_overhead_ms.flat",
            &minus(&flat.put, &flat.local_put),
        );
        r.layer_median("net.wire_overhead_ms.cas", &minus(&cas.put, &cas.local_put));
        r.layer_median("ckpt.store_put_ms.flat", &flat.local_put);
        r.layer_median("ckpt.store_put_ms.cas", &cas.local_put);
        r.layer_median("ckpt.store_get_ms.flat", &flat.local_restore);
        r.layer_median("ckpt.store_get_ms.cas", &cas.local_restore);

        let mut encodes = Vec::new();
        for count in 0..if env.quick { 3 } else { 9 } {
            let (len, encode_s) = env.tracer.time("ckpt", "encode_crc", || {
                layers::encode_discarding(&fx.state, count)
            });
            if r.attempt("encode", len).is_some() {
                encodes.push(encode_s);
            }
        }
        r.layer_median("ckpt.encode_crc_ms", &ms(&encodes));
    }
    r
}
