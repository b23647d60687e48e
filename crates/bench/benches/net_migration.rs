//! Loopback TCP microbench: fabric ping latency, **rank-state migration**
//! (a ≥32 MiB shard streamed rank→root through `NetTransport`), and —
//! under `PPAR_NET_SMOKE=1` (the CI arm) — a real 2-process TCP SOR job
//! asserted bitwise against the sequential reference.
//!
//! Multi-process structure: this bench binary relaunches *itself* through
//! [`ppar_adapt::netrun::spawn_local_cluster`]; a child detects the
//! `PPAR_RANK` contract plus `PPAR_BENCH_ROLE` and becomes one rank of
//! the scenario. Ranks measure the interesting intervals themselves
//! (process spawn and rendezvous cost must not pollute the migration
//! number) and report through a result file the parent reads, prints and
//! sanity-checks.
//!
//! Reported numbers (loopback, one machine):
//! * `ping` — mean round-trip of an 8-byte frame over the established
//!   mesh (per-peer send/recv threads + `TCP_NODELAY` path);
//! * `migrate` — one 32 MiB rank-state record: encode through the golden
//!   `SnapshotWriter` (with CRC), ship rank→root, CRC-verify + install in
//!   the root's transport, acknowledge. This is the state-migration
//!   primitive a process-level reshape pays per moved rank.

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use ppar_adapt::netrun::{spawn_local_cluster, ClusterSpec, NetConfig};
use ppar_adapt::{launch, AppStatus, Deploy};
use ppar_ckpt::store::{FieldSource, Record, SnapshotMeta};
use ppar_ckpt::transport::CkptTransport;
use ppar_ckpt::MemTransport;
use ppar_core::shared::SharedVec;
use ppar_jgf::sor::pluggable::{plan_dist, sor_pluggable};
use ppar_jgf::sor::{sor_seq, SorParams};
use ppar_net::{Fabric, NetTransport, TcpFabric};

const ROLE_ENV: &str = "PPAR_BENCH_ROLE";
const OUT_ENV: &str = "PPAR_BENCH_OUT";
const SAMPLES_ENV: &str = "PPAR_BENCH_SAMPLES";
const PING_TAG: u64 = (1 << 63) | 0x1001;
const DONE_TAG: u64 = (1 << 63) | 0x1002;

/// 32 MiB of f64 state — the acceptance-criterion migration payload.
const MIGRATE_ELEMS: usize = 4 << 20;

fn smoke() -> bool {
    std::env::var("PPAR_NET_SMOKE").is_ok_and(|v| v == "1")
}

fn report(line: &str) {
    let out = std::env::var(OUT_ENV).expect("worker needs PPAR_BENCH_OUT");
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out)
        .unwrap();
    f.write_all(format!("{line}\n").as_bytes()).unwrap();
}

// ---------------------------------------------------------------------------
// worker roles
// ---------------------------------------------------------------------------

fn worker_ping(cfg: &NetConfig, samples: usize) {
    let fabric = TcpFabric::connect(cfg).unwrap();
    let me = cfg.rank;
    let payload = Arc::new(vec![0u8; 8]);
    if me == 0 {
        // Warm the path, then measure.
        for _ in 0..32 {
            fabric.send(0, 1, PING_TAG, payload.clone());
            fabric.recv(0, 1, PING_TAG).unwrap();
        }
        let t0 = Instant::now();
        for _ in 0..samples {
            fabric.send(0, 1, PING_TAG, payload.clone());
            fabric.recv(0, 1, PING_TAG).unwrap();
        }
        let rtt_us = t0.elapsed().as_secs_f64() * 1e6 / samples as f64;
        report(&format!("ping_rtt_us {rtt_us:.2}"));
        fabric.send(0, 1, DONE_TAG, Arc::new(Vec::new()));
    } else {
        loop {
            if fabric.probe(1, 0, DONE_TAG) {
                break;
            }
            if fabric.probe(1, 0, PING_TAG) {
                let p = fabric.recv(1, 0, PING_TAG).unwrap();
                fabric.send(1, 0, PING_TAG, p);
            } else {
                std::thread::yield_now();
            }
        }
    }
    fabric.shutdown();
}

fn worker_migrate(cfg: &NetConfig, samples: usize) {
    let fabric = TcpFabric::connect(cfg).unwrap();
    let dyn_fabric: Arc<dyn Fabric> = fabric.clone();
    if cfg.rank == 0 {
        let inner: Arc<dyn CkptTransport> = Arc::new(MemTransport::new());
        let service = NetTransport::serve(dyn_fabric.clone(), 0, inner.clone());
        dyn_fabric.recv(0, 1, DONE_TAG).unwrap();
        service.stop();
        // The migrated state must be durable and whole at the root.
        let snap = inner.get(Some(1), None).unwrap().expect("migrated shard");
        let field = snap.field("state").expect("state field");
        assert_eq!(field.len(), MIGRATE_ELEMS * 8);
        report(&format!(
            "migrate_received_mb {:.1}",
            field.len() as f64 / 1e6
        ));
    } else {
        let cell = SharedVec::from_vec((0..MIGRATE_ELEMS).map(|i| (i as f64).sqrt()).collect());
        let transport = NetTransport::client(dyn_fabric.clone(), 1);
        let meta = SnapshotMeta {
            mode_tag: "tcp2".into(),
            count: 1,
            rank: Some(1),
            nranks: 2,
        };
        let fields: Vec<(&str, FieldSource<'_>)> = vec![("state", FieldSource::Cell(&cell))];
        let mut times = Vec::with_capacity(samples);
        let mut moved = 0u64;
        for _ in 0..samples {
            let t0 = Instant::now();
            moved = transport.put(&Record::Full(&meta, &fields)).unwrap();
            times.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        report(&format!(
            "migrate_32mib_ms min={:.2} mean={mean:.2} moved_mb={:.1}",
            times[0],
            moved as f64 / 1e6
        ));
        dyn_fabric.send(1, 0, DONE_TAG, Arc::new(Vec::new()));
    }
    fabric.shutdown();
}

fn worker_sor(cfg: &NetConfig) {
    let params = SorParams::new(64, 8);
    let outcome = launch(&Deploy::Tcp(cfg.clone()), plan_dist(), None, None, |ctx| {
        (AppStatus::Completed, sor_pluggable(ctx, &params))
    })
    .unwrap();
    if cfg.rank == 0 {
        let (_, result) = &outcome.results[0];
        let traffic = outcome.traffic.expect("a tcp rank's traffic");
        report(&format!(
            "sor_bits {:016x} msgs={} bytes={}",
            result.checksum.to_bits(),
            traffic.msgs(),
            traffic.bytes()
        ));
    }
}

// ---------------------------------------------------------------------------
// parent driver
// ---------------------------------------------------------------------------

struct Scenario {
    role: &'static str,
    nranks: usize,
    samples: usize,
    out: PathBuf,
}

fn run_scenario(s: &Scenario) -> Vec<String> {
    let _ = std::fs::remove_file(&s.out);
    let spec = ClusterSpec::current_exe(
        s.nranks,
        vec!["--bench".into()], // harness=false: args are ours to ignore
    )
    .expect("current exe")
    .env(ROLE_ENV, s.role)
    .env(OUT_ENV, s.out.to_string_lossy().to_string())
    .env(SAMPLES_ENV, s.samples.to_string())
    .env("PPAR_NET_TIMEOUT_SECS", "120");
    let mut cluster = spawn_local_cluster(&spec).unwrap();
    let statuses = cluster.wait_all(Duration::from_secs(300)).unwrap();
    assert!(
        statuses.iter().all(|st| st.unwrap().success()),
        "{} cluster failed: {statuses:?}",
        s.role
    );
    std::fs::read_to_string(&s.out)
        .unwrap_or_default()
        .lines()
        .map(str::to_string)
        .collect()
}

fn scratch_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ppar_netbench_{tag}_{}.txt", std::process::id()))
}

fn bench(_c: &mut Criterion) {
    // Child role: become one rank of the scenario and exit.
    if let Ok(Some(cfg)) = NetConfig::from_env() {
        let samples: usize = std::env::var(SAMPLES_ENV)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(5);
        match std::env::var(ROLE_ENV)
            .expect("worker needs a role")
            .as_str()
        {
            "ping" => worker_ping(&cfg, samples),
            "migrate" => worker_migrate(&cfg, samples),
            "sor" => worker_sor(&cfg),
            other => panic!("unknown bench role {other:?}"),
        }
        return;
    }

    let quick = smoke();
    // Ping latency over the established mesh.
    let ping = run_scenario(&Scenario {
        role: "ping",
        nranks: 2,
        samples: if quick { 200 } else { 2000 },
        out: scratch_file("ping"),
    });
    // 32 MiB rank-state migration (the acceptance-criterion payload).
    let migrate = run_scenario(&Scenario {
        role: "migrate",
        nranks: 2,
        samples: if quick { 3 } else { 10 },
        out: scratch_file("migrate"),
    });
    for line in ping.iter().chain(&migrate) {
        println!("net_migration: {line}");
    }
    assert!(
        ping.iter().any(|l| l.starts_with("ping_rtt_us")),
        "{ping:?}"
    );
    assert!(
        migrate.iter().any(|l| l.starts_with("migrate_32mib_ms")),
        "{migrate:?}"
    );
    let received_mb: f64 = migrate
        .iter()
        .find_map(|l| l.strip_prefix("migrate_received_mb "))
        .expect("root-side receipt line")
        .parse()
        .unwrap();
    assert!(
        received_mb > 33.0,
        "root must hold the full 32 MiB state: {migrate:?}"
    );

    if quick {
        // CI smoke: a real 2-process TCP SOR job, bitwise vs sequential.
        let sor = run_scenario(&Scenario {
            role: "sor",
            nranks: 2,
            samples: 1,
            out: scratch_file("sor"),
        });
        println!("net_migration: {}", sor.join(" | "));
        let reference = sor_seq(&SorParams::new(64, 8)).checksum.to_bits();
        let bits = sor
            .iter()
            .find_map(|l| l.strip_prefix("sor_bits "))
            .and_then(|l| l.split_whitespace().next())
            .map(|h| u64::from_str_radix(h, 16).unwrap())
            .expect("sor result line");
        assert_eq!(
            bits, reference,
            "2-process TCP SOR must be bitwise sequential"
        );
        println!("net_migration smoke: tcp2 SOR bitwise-matches seq");
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
