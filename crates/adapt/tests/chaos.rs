//! Chaos soak: seeded fault injection against a real 4-process TCP job,
//! driven by the self-healing supervisor.
//!
//! The self-spawn pattern of `net_cluster.rs`: the parent relaunches this
//! test binary (`--exact chaos_worker_entry`) as the cluster ranks; each
//! child detects the `PPAR_RANK` contract and becomes one rank of an
//! unchanged pluggable SOR job with local-snapshot checkpointing. The
//! parent arms the `PPAR_CHAOS_*` contract on the spec, so a chosen rank
//! aborts at a named protocol site (mid-checkpoint-stream, mid-barrier);
//! [`run_cluster_supervised`] must then respawn *only* that rank, the
//! survivors must recover in place (their PIDs never change), and the
//! finished job must still be bitwise equal to the sequential reference.
//!
//! A proptest pins the reproducibility contract: the same
//! `PPAR_CHAOS_SEED` yields the same fault schedule.

use std::path::PathBuf;

use ppar_adapt::netrun::{run_cluster_supervised, ClusterSpec, NetConfig};
use ppar_adapt::{run_net_rank, AppStatus};
use ppar_core::plan::DistCkptStrategy;
use ppar_jgf::sor::pluggable::{plan_ckpt_with_strategy, plan_dist, sor_pluggable};
use ppar_jgf::sor::{sor_seq, SorParams};
use ppar_net::chaos::{self, ChaosConfig};

const N_ENV: &str = "PPAR_TEST_N";
const ITERS_ENV: &str = "PPAR_TEST_ITERS";
const CKPT_DIR_ENV: &str = "PPAR_TEST_CKPT_DIR";
const CKPT_EVERY_ENV: &str = "PPAR_TEST_CKPT_EVERY";
const OUT_ENV: &str = "PPAR_TEST_OUT";

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ppar_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    let _ = std::fs::create_dir_all(&d);
    d
}

fn envf(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// The worker role: one rank of a checkpointed TCP SOR job. A no-op
/// under a normal `cargo test` run.
#[test]
fn chaos_worker_entry() {
    let Ok(Some(cfg)) = NetConfig::from_env() else {
        return; // not launched as a cluster rank
    };
    let n: usize = envf(N_ENV).expect("n").parse().unwrap();
    let iters: usize = envf(ITERS_ENV).expect("iters").parse().unwrap();
    let ckpt_dir = PathBuf::from(envf(CKPT_DIR_ENV).expect("ckpt dir"));
    let every: usize = envf(CKPT_EVERY_ENV).expect("every").parse().unwrap();
    let plan = plan_dist().merge(plan_ckpt_with_strategy(
        every,
        DistCkptStrategy::LocalSnapshot,
    ));
    let params = SorParams::new(n, iters);
    let outcome = run_net_rank(&cfg, plan, Some(&ckpt_dir), |ctx| {
        (AppStatus::Completed, sor_pluggable(ctx, &params).checksum)
    })
    .expect("chaos worker rank run");
    assert_eq!(outcome.status, AppStatus::Completed);
    if outcome.rank == 0 {
        use std::io::Write;
        let line = format!(
            "{:016x} replayed={} recoveries={}\n",
            outcome.result.to_bits(),
            outcome.replayed,
            outcome.recoveries,
        );
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(envf(OUT_ENV).expect("worker needs PPAR_TEST_OUT"))
            .unwrap();
        f.write_all(line.as_bytes()).unwrap();
    }
}

struct Soak {
    tag: &'static str,
    /// `PPAR_CHAOS_KILL` spec, `rank:site[:nth]`.
    kill: &'static str,
    victim: usize,
}

/// Run a supervised 4-rank SOR job with the given kill armed and assert
/// the single-rank recovery contract end to end.
fn soak(s: &Soak) {
    let (nranks, n, iters, every) = (4usize, 33usize, 8usize, 3usize);
    let reference = sor_seq(&SorParams::new(n, iters)).checksum.to_bits();
    let dir = scratch(s.tag);
    let out = dir.join("result.txt");
    let spec = ClusterSpec::current_exe(
        nranks,
        vec![
            "--exact".into(),
            "chaos_worker_entry".into(),
            "--nocapture".into(),
            "--test-threads=1".into(),
        ],
    )
    .expect("current exe")
    .env(N_ENV, n.to_string())
    .env(ITERS_ENV, iters.to_string())
    .env(CKPT_DIR_ENV, dir.join("ckpt").to_string_lossy().to_string())
    .env(CKPT_EVERY_ENV, every.to_string())
    .env(OUT_ENV, out.to_string_lossy().to_string())
    .env("PPAR_NET_TIMEOUT_SECS", "60")
    .env(chaos::ENV_SEED, "20110913") // ICPP'11: any fixed seed works
    .env(chaos::ENV_KILL, s.kill);

    let report = run_cluster_supervised(&spec, 3, 4).expect("supervised chaos job completes");

    // The whole point: the kill was healed *inside* the job — one
    // respawn of the victim, zero full relaunches.
    assert_eq!(report.launches, 1, "no full relaunch: {report:?}");
    assert!(
        report.single_respawns >= 1,
        "the armed kill must have fired: {report:?}"
    );
    for (rank, pids) in report.pid_history.iter().enumerate() {
        if rank == s.victim {
            assert!(
                pids.len() >= 2,
                "victim rank {rank} must have been respawned: {report:?}"
            );
        } else {
            assert_eq!(
                pids.len(),
                1,
                "survivor rank {rank} must keep its PID: {report:?}"
            );
        }
    }

    // One completed launch, bitwise equal to the sequential reference.
    let lines: Vec<String> = std::fs::read_to_string(&out)
        .unwrap_or_default()
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(lines.len(), 1, "exactly one completed launch: {lines:?}");
    let bits = u64::from_str_radix(lines[0].split_whitespace().next().unwrap(), 16).unwrap();
    assert_eq!(
        bits, reference,
        "recovered chaos run must be bitwise sequential: {lines:?}"
    );
    assert!(
        !lines[0].contains("recoveries=0"),
        "rank 0 must have gone through in-job recovery: {lines:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill rank 2 between checkpoint stream chunks of its *second* shard
/// save: the group commit of the first checkpoint is already durable, so
/// the recovery replays to it — survivors restore from their local
/// mirror, the respawned rank streams its shard back from the root.
#[test]
fn kill_mid_checkpoint_stream_heals_in_job() {
    if envf("PPAR_RANK").is_some() {
        return; // worker invocation: only the entry test runs
    }
    soak(&Soak {
        tag: "ckptstream",
        kill: "2:ckpt-stream:2",
        victim: 2,
    });
}

/// Kill rank 1 between its barrier contribution and the release: the
/// survivors fail out of the collective, hold at the recovery barrier,
/// and resume with the respawned rank.
#[test]
fn kill_mid_barrier_heals_in_job() {
    if envf("PPAR_RANK").is_some() {
        return;
    }
    soak(&Soak {
        tag: "barrier",
        kill: "1:barrier:2",
        victim: 1,
    });
}

// ---------------------------------------------------------------------------
// reproducibility
// ---------------------------------------------------------------------------

proptest::proptest! {
    /// The chaos contract this whole file leans on: an identical
    /// `PPAR_CHAOS_SEED` yields an identical fault schedule, per rank.
    #[test]
    fn same_seed_yields_same_fault_schedule(seed in proptest::prelude::any::<u64>(), rank in 0usize..8) {
        let lookup = |k: &str| match k {
            chaos::ENV_SEED => Some(seed.to_string()),
            chaos::ENV_DELAY => Some("0.4,25".to_string()),
            chaos::ENV_CORRUPT => Some("0.1".to_string()),
            chaos::ENV_DROP => Some("0.02".to_string()),
            _ => None,
        };
        let a = ChaosConfig::from_lookup(lookup).expect("seed armed");
        let b = ChaosConfig::from_lookup(lookup).expect("seed armed");
        proptest::prop_assert_eq!(
            chaos::schedule(&a, rank, 128, 2048),
            chaos::schedule(&b, rank, 128, 2048)
        );
    }
}
