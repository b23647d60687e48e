//! Mid-loop resume: the region cursor must position a successor correctly
//! when the reshape or restart crossing lands *inside* an iteration — at a
//! `pre_sweep` safe point between the red and black sweeps — not only at
//! the clean `iter_end` boundary.
//!
//! [`ppar_jgf::sor::pluggable::plan_ckpt_midloop`] makes both `pre_sweep`
//! announcements safe points (3 crossings per iteration), so a crossing
//! ordinal that is ≡ 1 or 2 (mod 3) sits mid-iteration with `G` in its
//! half-swept state. Covered, all bitwise against the sequential
//! reference:
//!
//! * smp → hybrid live reshape at a mid-loop crossing (in-memory hand-off,
//!   cursor fast-forward in the successor);
//! * hybrid → smp escalation at a mid-loop crossing;
//! * TCP whole-job restart whose recovery snapshot sits between the two
//!   sweeps of an iteration (self-spawn pattern of `net_cluster.rs`);
//! * TCP single-rank rejoin (supervised, chaos-killed at a mid-loop
//!   snapshot barrier) resuming through the same cursor.

use std::path::PathBuf;
use std::time::Duration;

use ppar_adapt::netrun::{
    run_cluster_supervised, run_cluster_until_complete, ClusterSpec, NetConfig,
};
use ppar_adapt::{
    launch_live, run_net_rank, AdaptationController, AppStatus, Deploy, ResourceTimeline,
};
use ppar_core::mode::ExecMode;
use ppar_core::plan::{DistCkptStrategy, Plan, Plug};
use ppar_dsm::SpmdConfig;
use ppar_jgf::sor::pluggable::{plan_ckpt_midloop, plan_dist, plan_hybrid, sor_pluggable};
use ppar_jgf::sor::{sor_seq, SorParams};
use ppar_net::chaos;

const N_ENV: &str = "PPAR_TEST_N";
const ITERS_ENV: &str = "PPAR_TEST_ITERS";
const CKPT_DIR_ENV: &str = "PPAR_TEST_CKPT_DIR";
const CKPT_EVERY_ENV: &str = "PPAR_TEST_CKPT_EVERY";
const STRATEGY_ENV: &str = "PPAR_TEST_STRATEGY";
const OUT_ENV: &str = "PPAR_TEST_OUT";
const ABORT_RANK_ENV: &str = "PPAR_TEST_ABORT_RANK";
const ABORT_AT_ENV: &str = "PPAR_TEST_ABORT_AT";

fn params() -> SorParams {
    SorParams::new(33, 8)
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ppar_midloop_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    let _ = std::fs::create_dir_all(&d);
    d
}

fn envf(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// The one plan of a live mid-loop session: hybrid plugs + mid-loop safe
/// points (`every = 0`: count crossings, snapshot only on demand).
fn live_plan_mid() -> Plan {
    plan_hybrid().merge(plan_ckpt_midloop(0))
}

fn smp(threads: usize, max_threads: usize) -> Deploy {
    Deploy::Smp {
        threads,
        max_threads,
    }
}

fn hyb(ranks: usize, threads: usize, max_threads: usize) -> Deploy {
    Deploy::Hybrid {
        cfg: SpmdConfig::instant(ranks),
        threads,
        max_threads,
    }
}

// With `plan_ckpt_midloop` the crossing sequence per iteration `it` is
// pre_sweep(red) = 3·it+1, pre_sweep(black) = 3·it+2, iter_end = 3·it+3.
// Crossing 5 is therefore the black `pre_sweep` of iteration 1: `G` holds
// the red half-sweep when the reshape fires.
const MID_CROSSING: u64 = 5;

#[test]
fn smp_to_hybrid_live_reshape_mid_loop_stays_bitwise() {
    if envf("PPAR_RANK").is_some() {
        return; // worker invocation of this binary
    }
    let reference = sor_seq(&params());
    let controller = AdaptationController::with_timeline(
        ResourceTimeline::new().at(MID_CROSSING, ExecMode::hybrid(2, 2)),
    );
    let outcome = launch_live(
        &smp(2, 2),
        live_plan_mid(),
        None,
        controller.clone(),
        |ctx| (AppStatus::Completed, sor_pluggable(ctx, &params())),
    )
    .unwrap();
    assert!(outcome.completed());
    assert_eq!(outcome.launches, 2, "one escalated relaunch");
    assert_eq!(
        outcome.results[0].1.checksum, reference.checksum,
        "smp -> hyb hand-off between the red and black sweep must stay \
         bitwise sequential"
    );
    assert_eq!(controller.applied().len(), 1);
}

#[test]
fn hybrid_to_smp_live_reshape_mid_loop_stays_bitwise() {
    if envf("PPAR_RANK").is_some() {
        return;
    }
    let reference = sor_seq(&params());
    let controller = AdaptationController::with_timeline(
        ResourceTimeline::new().at(MID_CROSSING, ExecMode::smp(4)),
    );
    let outcome = launch_live(&hyb(2, 2, 2), live_plan_mid(), None, controller, |ctx| {
        (AppStatus::Completed, sor_pluggable(ctx, &params()))
    })
    .unwrap();
    assert!(outcome.completed());
    assert_eq!(outcome.launches, 2);
    assert_eq!(outcome.results.len(), 1, "final round is one smp process");
    assert_eq!(
        outcome.results[0].1.checksum, reference.checksum,
        "hyb -> smp escalation mid-iteration must stay bitwise sequential"
    );
}

// ---------------------------------------------------------------------------
// TCP: real OS processes, self-spawn pattern (see net_cluster.rs)
// ---------------------------------------------------------------------------

/// The worker role: one rank of a TCP SOR job checkpointing at *mid-loop*
/// safe points. A no-op under a normal `cargo test` run.
#[test]
fn midloop_worker_entry() {
    let Ok(Some(cfg)) = NetConfig::from_env() else {
        return; // not launched as a cluster rank
    };
    let n: usize = envf(N_ENV).expect("n").parse().unwrap();
    let iters: usize = envf(ITERS_ENV).expect("iters").parse().unwrap();
    let ckpt_dir = PathBuf::from(envf(CKPT_DIR_ENV).expect("ckpt dir"));
    let every: usize = envf(CKPT_EVERY_ENV).expect("every").parse().unwrap();
    let strategy = match envf(STRATEGY_ENV).as_deref() {
        Some("local") => DistCkptStrategy::LocalSnapshot,
        _ => DistCkptStrategy::MasterCollect,
    };
    let abort_rank: Option<usize> = envf(ABORT_RANK_ENV).map(|v| v.parse().unwrap());
    let abort_at: Option<usize> = envf(ABORT_AT_ENV).map(|v| v.parse().unwrap());
    let aborting = abort_rank == Some(cfg.rank);

    let plan = plan_dist()
        .merge(plan_ckpt_midloop(every))
        .plug(Plug::DistCkpt { strategy });
    let mut params = SorParams::new(n, iters);
    if aborting {
        params.fail_after = abort_at;
    }
    let outcome = run_net_rank(&cfg, plan, Some(&ckpt_dir), move |ctx| {
        let r = sor_pluggable(ctx, &params);
        if aborting {
            std::process::abort();
        }
        (AppStatus::Completed, r.checksum)
    })
    .expect("worker rank run");
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

fn midloop_spec(
    nranks: usize,
    dir: &std::path::Path,
    every: usize,
    strategy: &str,
    out: &std::path::Path,
) -> ClusterSpec {
    let p = params();
    ClusterSpec::current_exe(
        nranks,
        vec![
            "--exact".into(),
            "midloop_worker_entry".into(),
            "--nocapture".into(),
            "--test-threads=1".into(),
        ],
    )
    .expect("current exe")
    .env(N_ENV, p.n.to_string())
    .env(ITERS_ENV, p.iterations.to_string())
    .env(CKPT_DIR_ENV, dir.join("ckpt").to_string_lossy().to_string())
    .env(CKPT_EVERY_ENV, every.to_string())
    .env(STRATEGY_ENV, strategy)
    .env(OUT_ENV, out.to_string_lossy().to_string())
    .env("PPAR_NET_TIMEOUT_SECS", "60")
}

fn read_out(out: &std::path::Path) -> Vec<String> {
    std::fs::read_to_string(out)
        .unwrap_or_default()
        .lines()
        .map(str::to_string)
        .collect()
}

fn result_bits(line: &str) -> u64 {
    u64::from_str_radix(line.split_whitespace().next().unwrap(), 16).unwrap()
}

/// Whole-job TCP restart whose recovery target sits between the two
/// sweeps of iteration 4: snapshots every 7 crossings land at crossing 7
/// (red `pre_sweep` of iteration 2) and crossing 14 (black `pre_sweep` of
/// iteration 4, `G` half-swept). The relaunch must cursor-resume from the
/// mid-iteration snapshot and still finish bitwise sequential.
#[test]
fn tcp_restart_from_mid_loop_snapshot_stays_bitwise() {
    if envf("PPAR_RANK").is_some() {
        return;
    }
    let reference = sor_seq(&params()).checksum.to_bits();
    let dir = scratch("tcp_restart");
    let out = dir.join("result.txt");

    // Launch 1: rank 1 aborts after iteration 5; the newest durable
    // snapshot is the mid-iteration one at crossing 14. Its ranks die on
    // purpose and only their exit statuses are checked, so their output is
    // silenced: rank 0's panic in the next collective is expected.
    let spec = ClusterSpec {
        quiet: true,
        ..midloop_spec(2, &dir, 7, "master", &out)
            .env(ABORT_RANK_ENV, "1")
            .env(ABORT_AT_ENV, "5")
    };
    let mut cluster = ppar_adapt::netrun::spawn_local_cluster(&spec).unwrap();
    let statuses = cluster.wait_all(Duration::from_secs(120)).unwrap();
    assert!(
        statuses.iter().all(|s| !s.unwrap().success()),
        "all ranks must fail after the peer death: {statuses:?}"
    );
    assert!(read_out(&out).is_empty(), "no completed launch yet");

    // Launch 2: the driver's restart path — no abort env.
    let spec = midloop_spec(2, &dir, 7, "master", &out);
    let attempts = run_cluster_until_complete(&spec, 2).unwrap();
    assert_eq!(attempts, 1, "recovery completes in one relaunch");
    let lines = read_out(&out);
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(
        lines[0].contains("replayed=true"),
        "recovery must replay from the mid-loop checkpoint: {lines:?}"
    );
    assert_eq!(
        result_bits(&lines[0]),
        reference,
        "mid-loop cursor restart must be bitwise sequential: {lines:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Single-rank rejoin: under local-snapshot checkpointing every 4
/// crossings, the first two snapshot groups commit at crossings 4 and 8 —
/// both mid-iteration `pre_sweep` points. The chaos kill fires at rank 1's
/// third snapshot barrier (entering the crossing-8 save), so the in-job
/// recovery resumes the whole aggregate from the *mid-loop* group at
/// crossing 4 through the region cursor, with only the victim respawned.
#[test]
fn tcp_single_rank_rejoin_resumes_mid_loop_bitwise() {
    if envf("PPAR_RANK").is_some() {
        return;
    }
    let reference = sor_seq(&params()).checksum.to_bits();
    let dir = scratch("tcp_rejoin");
    let out = dir.join("result.txt");
    let spec = midloop_spec(2, &dir, 4, "local", &out)
        .env(chaos::ENV_SEED, "20110913")
        .env(chaos::ENV_KILL, "1:barrier:3");
    let report = run_cluster_supervised(&spec, 3, 4).expect("supervised job completes");
    assert_eq!(report.launches, 1, "no full relaunch: {report:?}");
    assert!(
        report.single_respawns >= 1,
        "the armed kill must have fired: {report:?}"
    );
    let lines = read_out(&out);
    assert_eq!(lines.len(), 1, "exactly one completed launch: {lines:?}");
    assert_eq!(
        result_bits(&lines[0]),
        reference,
        "mid-loop single-rank rejoin must be bitwise sequential: {lines:?}"
    );
    assert!(
        !lines[0].contains("recoveries=0"),
        "rank 0 must have gone through in-job recovery: {lines:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
