//! End-to-end multi-process tests: real OS processes over the TCP fabric.
//!
//! These tests use the self-spawn pattern: the parent test relaunches this
//! very test binary (`--exact net_worker_entry`) N times through
//! [`ppar_adapt::netrun::spawn_local_cluster`]; each child detects the
//! `PPAR_RANK` contract, becomes one rank of the job, and runs the
//! unchanged pluggable SOR/MD applications over a `TcpFabric`. Rank 0
//! writes its result (bit-exact f64 checksum + run metadata) to a file
//! the parent compares against the in-process sequential reference.
//!
//! Covered:
//! * 2- and 4-process SOR and 2-process MD match the sequential baseline
//!   **bitwise**;
//! * killing one worker mid-run (deterministic `abort()` after iteration
//!   K) makes the survivors fail out of their collectives and exit
//!   nonzero; the cluster driver's relaunch detects the dead run and
//!   replays from the last durable checkpoint — final state still bitwise
//!   equal to sequential;
//! * the same recovery under the local-snapshot strategy, where worker
//!   shards stream rank→root (and back on restart) through the
//!   `NetTransport` checkpoint service.

use std::path::PathBuf;
use std::time::Duration;

use ppar_adapt::netrun::{run_cluster_until_complete, ClusterSpec, NetConfig};
use ppar_adapt::{launch, AppStatus, Deploy};
use ppar_core::plan::{DistCkptStrategy, Plan};
use ppar_core::run_sequential;
use ppar_jgf::sor::pluggable::{plan_ckpt_with_strategy, plan_dist, sor_pluggable};
use ppar_jgf::sor::{sor_seq, SorParams};
use ppar_md::{md_pluggable, MdConfig};
use std::sync::Arc;

const APP_ENV: &str = "PPAR_TEST_APP";
const N_ENV: &str = "PPAR_TEST_N";
const ITERS_ENV: &str = "PPAR_TEST_ITERS";
const CKPT_DIR_ENV: &str = "PPAR_TEST_CKPT_DIR";
const CKPT_EVERY_ENV: &str = "PPAR_TEST_CKPT_EVERY";
const STRATEGY_ENV: &str = "PPAR_TEST_STRATEGY";
const OUT_ENV: &str = "PPAR_TEST_OUT";
const ABORT_RANK_ENV: &str = "PPAR_TEST_ABORT_RANK";
const ABORT_AT_ENV: &str = "PPAR_TEST_ABORT_AT";

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ppar_netcluster_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    let _ = std::fs::create_dir_all(&d);
    d
}

fn envf(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// The worker role: becomes one rank of a TCP job when launched with the
/// `PPAR_*` contract; a no-op under a normal `cargo test` run.
#[test]
fn net_worker_entry() {
    let Ok(Some(cfg)) = NetConfig::from_env() else {
        return; // not launched as a cluster rank
    };
    let app = envf(APP_ENV).expect("worker needs PPAR_TEST_APP");
    let n: usize = envf(N_ENV).expect("n").parse().unwrap();
    let iters: usize = envf(ITERS_ENV).expect("iters").parse().unwrap();
    let ckpt_dir = envf(CKPT_DIR_ENV).map(PathBuf::from);
    let every: usize = envf(CKPT_EVERY_ENV)
        .map(|v| v.parse().unwrap())
        .unwrap_or(0);
    let strategy = match envf(STRATEGY_ENV).as_deref() {
        Some("local") => DistCkptStrategy::LocalSnapshot,
        _ => DistCkptStrategy::MasterCollect,
    };
    let abort_rank: Option<usize> = envf(ABORT_RANK_ENV).map(|v| v.parse().unwrap());
    let abort_at: Option<usize> = envf(ABORT_AT_ENV).map(|v| v.parse().unwrap());
    let aborting = abort_rank == Some(cfg.rank);

    // `Fn`, not `FnOnce`: under a resilient fabric the app re-runs after
    // in-job recovery.
    type WorkerApp = Box<dyn Fn(&ppar_core::ctx::Ctx) -> (AppStatus, f64) + Sync>;
    let (plan, run): (Plan, WorkerApp) = match app.as_str() {
        "sor" => {
            let plan = if ckpt_dir.is_some() {
                plan_dist().merge(plan_ckpt_with_strategy(every, strategy))
            } else {
                plan_dist()
            };
            let mut params = SorParams::new(n, iters);
            if aborting {
                params.fail_after = abort_at;
            }
            (
                plan,
                Box::new(move |ctx| {
                    let r = sor_pluggable(ctx, &params);
                    if aborting {
                        // A genuine process death mid-run: no unwind, no
                        // marker cleanup, sockets torn down by the OS.
                        std::process::abort();
                    }
                    (AppStatus::Completed, r.checksum)
                }),
            )
        }
        "md" => {
            let plan = if ckpt_dir.is_some() {
                ppar_md::plan_dist().merge(ppar_md::plan_ckpt(every))
            } else {
                ppar_md::plan_dist()
            };
            let cfg2 = MdConfig::new(n, iters);
            (
                plan,
                Box::new(move |ctx| (AppStatus::Completed, md_pluggable(ctx, &cfg2).checksum)),
            )
        }
        other => panic!("unknown worker app {other:?}"),
    };

    let (rank, deploy) = (cfg.rank, Deploy::Tcp(cfg));
    let outcome = launch(&deploy, plan, ckpt_dir.as_deref(), None, run).expect("worker rank run");
    let (status, result) = outcome.results[0];
    assert_eq!(status, AppStatus::Completed);
    if rank == 0 {
        let out = envf(OUT_ENV).expect("worker needs PPAR_TEST_OUT");
        let traffic = outcome.traffic.expect("a tcp rank's traffic");
        let line = format!(
            "{:016x} replayed={} msgs={} bytes={} tag={}\n",
            result.to_bits(),
            outcome.replayed,
            traffic.msgs(),
            traffic.bytes(),
            deploy.tag(),
        );
        // Append: across a crash-recovery cycle the file accumulates one
        // line per *completed* launch.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .unwrap();
        f.write_all(line.as_bytes()).unwrap();
    }
}

struct Job {
    app: &'static str,
    nranks: usize,
    n: usize,
    iters: usize,
    ckpt: Option<(PathBuf, usize, &'static str)>,
    abort: Option<(usize, usize)>,
    out: PathBuf,
}

impl Job {
    fn spec(&self) -> ClusterSpec {
        let mut spec = ClusterSpec::current_exe(
            self.nranks,
            vec![
                "--exact".into(),
                "net_worker_entry".into(),
                "--nocapture".into(),
                "--test-threads=1".into(),
            ],
        )
        .expect("current exe")
        .env(APP_ENV, self.app)
        .env(N_ENV, self.n.to_string())
        .env(ITERS_ENV, self.iters.to_string())
        .env(OUT_ENV, self.out.to_string_lossy().to_string())
        .env("PPAR_NET_TIMEOUT_SECS", "60");
        if let Some((dir, every, strategy)) = &self.ckpt {
            spec = spec
                .env(CKPT_DIR_ENV, dir.to_string_lossy().to_string())
                .env(CKPT_EVERY_ENV, every.to_string())
                .env(STRATEGY_ENV, *strategy);
        }
        if let Some((rank, at)) = self.abort {
            spec = spec
                .env(ABORT_RANK_ENV, rank.to_string())
                .env(ABORT_AT_ENV, at.to_string());
        }
        spec
    }

    fn read_out(&self) -> Vec<String> {
        std::fs::read_to_string(&self.out)
            .unwrap_or_default()
            .lines()
            .map(str::to_string)
            .collect()
    }
}

fn seq_sor_bits(n: usize, iters: usize) -> u64 {
    sor_seq(&SorParams::new(n, iters)).checksum.to_bits()
}

fn seq_md_bits(particles: usize, steps: usize) -> u64 {
    run_sequential(Arc::new(Plan::new()), None, None, |ctx| {
        md_pluggable(ctx, &MdConfig::new(particles, steps))
    })
    .checksum
    .to_bits()
}

fn result_bits(line: &str) -> u64 {
    u64::from_str_radix(line.split_whitespace().next().unwrap(), 16).unwrap()
}

#[test]
fn tcp_sor_two_and_four_processes_match_seq_bitwise() {
    if envf("PPAR_RANK").is_some() {
        return; // worker invocation of this binary: only the entry test runs
    }
    let (n, iters) = (33, 6);
    let reference = seq_sor_bits(n, iters);
    for nranks in [2usize, 4] {
        let dir = scratch(&format!("sor{nranks}"));
        let job = Job {
            app: "sor",
            nranks,
            n,
            iters,
            ckpt: None,
            abort: None,
            out: dir.join("result.txt"),
        };
        let attempts = run_cluster_until_complete(&job.spec(), 1).unwrap();
        assert_eq!(attempts, 1, "clean run completes first time");
        let lines = job.read_out();
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert_eq!(
            result_bits(&lines[0]),
            reference,
            "tcp {nranks}-process SOR must be bitwise sequential: {lines:?}"
        );
        assert!(lines[0].contains(&format!("tag=tcp{nranks}")), "{lines:?}");
        // Real traffic flowed (halo exchanges + final gather).
        assert!(!lines[0].contains("msgs=0 "), "{lines:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn tcp_md_matches_seq_bitwise() {
    if envf("PPAR_RANK").is_some() {
        return;
    }
    let (particles, steps) = (27, 4);
    let reference = seq_md_bits(particles, steps);
    let dir = scratch("md2");
    let job = Job {
        app: "md",
        nranks: 2,
        n: particles,
        iters: steps,
        ckpt: None,
        abort: None,
        out: dir.join("result.txt"),
    };
    run_cluster_until_complete(&job.spec(), 1).unwrap();
    let lines = job.read_out();
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert_eq!(
        result_bits(&lines[0]),
        reference,
        "tcp 2-process MD must be bitwise sequential: {lines:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The crash-recovery acceptance scenario: kill a worker process mid-run,
/// survivors detect the peer loss and exit, the relaunch replays from the
/// last durable checkpoint and finishes bitwise equal to sequential.
fn crash_recovery(strategy: &'static str) {
    let (n, iters, every, abort_at) = (33, 8, 3, 5);
    let reference = seq_sor_bits(n, iters);
    let dir = scratch(&format!("crash_{strategy}"));
    let ckpt_dir = dir.join("ckpt");
    let mut job = Job {
        app: "sor",
        nranks: 2,
        n,
        iters,
        ckpt: Some((ckpt_dir.clone(), every, strategy)),
        abort: Some((1, abort_at)),
        out: dir.join("result.txt"),
    };

    // Launch 1: rank 1 aborts after iteration 5 (snapshot exists at 3).
    // Every rank must exit nonzero — rank 1 by abort, rank 0 because its
    // next collective involving rank 1 fails loudly instead of hanging.
    // Those failures are the point and only exit statuses are checked, so
    // this launch runs silenced; the recovery launch keeps its output.
    let doomed = ClusterSpec {
        quiet: true,
        ..job.spec()
    };
    let mut cluster = ppar_adapt::netrun::spawn_local_cluster(&doomed).unwrap();
    let statuses = cluster.wait_all(Duration::from_secs(120)).unwrap();
    assert!(
        statuses.iter().all(|s| !s.unwrap().success()),
        "all ranks must fail after a peer death: {statuses:?}"
    );
    assert!(job.read_out().is_empty(), "no completed launch yet");
    assert!(
        ckpt_dir.join("RUNNING").exists(),
        "the dead run's marker must survive for failure detection"
    );

    // Launch 2 (the driver's restart path): no abort env — recovery run.
    job.abort = None;
    let attempts = run_cluster_until_complete(&job.spec(), 2).unwrap();
    assert_eq!(attempts, 1, "recovery completes in one relaunch");
    let lines = job.read_out();
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(
        lines[0].contains("replayed=true"),
        "recovery must replay from the checkpoint: {lines:?}"
    );
    assert_eq!(
        result_bits(&lines[0]),
        reference,
        "recovered {strategy} run must be bitwise sequential: {lines:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_one_worker_recovers_from_last_checkpoint_master_collect() {
    if envf("PPAR_RANK").is_some() {
        return;
    }
    crash_recovery("master");
}

#[test]
fn kill_one_worker_recovers_from_last_checkpoint_local_snapshot() {
    if envf("PPAR_RANK").is_some() {
        return;
    }
    // Local snapshots exercise the full NetTransport path: worker shards
    // stream rank→root on save and root→rank on the recovery load.
    crash_recovery("local");
}
