//! Recovery MTTR: single-rank self-healing vs whole-job relaunch.
//!
//! The robustness counterpart of `net_migration`: a real multi-process
//! TCP SOR job (32 MiB aggregate state, local-snapshot checkpointing)
//! loses one rank to a deterministic chaos kill, and the bench measures
//! **mean time to repair** — wall time from the victim's death to the
//! finished, bitwise-correct job — down two rungs of the recovery
//! ladder:
//!
//! * **single** — the self-healing path: the supervisor respawns only
//!   the victim, which rejoins the live mesh; survivors roll back in
//!   place (their shard restores hit the local `MirrorTransport`, so
//!   only the one lost shard crosses the wire);
//! * **relaunch** — the PR 5 baseline: every rank dies, the whole job
//!   relaunches and replays from the same durable group commit (every
//!   worker shard streams back root → rank).
//!
//! Both arms replay the same work from the same commit, so the ratio
//! isolates the repair machinery itself. The wire is throttled to a
//! slow commodity link (`PPAR_CHAOS_THROTTLE`) — loopback's tens of
//! Gbit/s would hide exactly the restore traffic the single-rank path
//! eliminates.
//! Full runs append to `BENCH_recovery.json` at the workspace root and
//! assert the ≥3× acceptance bound; `PPAR_CHAOS_SMOKE=1` (the CI arm)
//! shrinks the workload and only checks the recovery contract.

use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use ppar_adapt::netrun::{spawn_local_cluster, ClusterSpec, NetConfig};
use ppar_adapt::{launch, AppStatus, Deploy};
use ppar_core::plan::DistCkptStrategy;
use ppar_jgf::sor::pluggable::{plan_ckpt_with_strategy, plan_dist, sor_pluggable};
use ppar_jgf::sor::{sor_seq, SorParams};
use ppar_net::{chaos, tcp};

const N_ENV: &str = "PPAR_BENCH_N";
const ITERS_ENV: &str = "PPAR_BENCH_ITERS";
const EVERY_ENV: &str = "PPAR_BENCH_EVERY";
const CKPT_DIR_ENV: &str = "PPAR_BENCH_CKPT_DIR";
const OUT_ENV: &str = "PPAR_BENCH_OUT";

/// The victim of every injected kill (any non-root rank works; the
/// supervisor cannot heal rank 0 in place).
const VICTIM: usize = 3;

fn smoke() -> bool {
    std::env::var("PPAR_CHAOS_SMOKE").is_ok_and(|v| v == "1")
}

fn envf(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

// ---------------------------------------------------------------------------
// worker role
// ---------------------------------------------------------------------------

fn worker(cfg: &NetConfig) {
    let n: usize = envf(N_ENV).expect("n").parse().unwrap();
    let iters: usize = envf(ITERS_ENV).expect("iters").parse().unwrap();
    let every: usize = envf(EVERY_ENV).expect("every").parse().unwrap();
    let ckpt_dir = PathBuf::from(envf(CKPT_DIR_ENV).expect("ckpt dir"));
    let plan = plan_dist().merge(plan_ckpt_with_strategy(
        every,
        DistCkptStrategy::LocalSnapshot,
    ));
    let params = SorParams::new(n, iters);
    let outcome = launch(
        &Deploy::Tcp(cfg.clone()),
        plan,
        Some(&ckpt_dir),
        None,
        |ctx| {
            let res = sor_pluggable(ctx, &params);
            (AppStatus::Completed, res.checksum)
        },
    )
    .expect("recovery bench rank");
    let (status, result) = outcome.results[0];
    assert_eq!(status, AppStatus::Completed);
    if cfg.rank == 0 {
        // Whether the final round replayed: after an in-job recovery that
        // is the recovery round, where `outcome.replayed` is the first's.
        let stats = outcome.stats.as_ref().expect("checkpointing is plugged");
        let replayed = stats.replayed_points + stats.resumed_at_point > 0;
        let out = envf(OUT_ENV).expect("worker needs PPAR_BENCH_OUT");
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .unwrap();
        writeln!(
            f,
            "{:016x} replayed={} recoveries={}",
            result.to_bits(),
            replayed,
            outcome.recoveries()
        )
        .unwrap();
    }
}

// ---------------------------------------------------------------------------
// parent driver
// ---------------------------------------------------------------------------

struct Workload {
    nranks: usize,
    n: usize,
    iters: usize,
    every: usize,
    /// `PPAR_CHAOS_KILL` nth for the all-reduce site: pinned so the
    /// victim dies right after the *last* group commit (contribution sent
    /// into the agreement that commits the final checkpoint, result never
    /// received) — the repair then replays the minimum of real work and
    /// the measurement isolates the recovery machinery.
    kill_nth: usize,
    /// Wire cap in bytes/s, applied to every rank's sends.
    throttle: u64,
    dir: PathBuf,
}

impl Workload {
    fn spec(&self, tag: &str, kill: bool) -> ClusterSpec {
        ClusterSpec::current_exe(self.nranks, vec!["--bench".into()])
            .expect("current exe")
            .env(N_ENV, self.n.to_string())
            .env(ITERS_ENV, self.iters.to_string())
            .env(EVERY_ENV, self.every.to_string())
            .env(
                CKPT_DIR_ENV,
                self.dir
                    .join(format!("ckpt_{tag}"))
                    .to_string_lossy()
                    .to_string(),
            )
            .env(OUT_ENV, self.out(tag).to_string_lossy().to_string())
            .env("PPAR_NET_TIMEOUT_SECS", "120")
            .env(chaos::ENV_SEED, "20110913")
            .env(chaos::ENV_THROTTLE, self.throttle.to_string())
            .envs_if(
                kill,
                &[
                    (
                        chaos::ENV_KILL,
                        format!("{VICTIM}:allreduce:{}", self.kill_nth),
                    ),
                    // The kill must land strictly *after* the checkpoint's
                    // group commit, which rank 0 takes once the saves are
                    // agreed, and the fault flag fails a pending
                    // collective fast — so hold the abort until the
                    // slowest peer has cleared the commit's agreement.
                    (chaos::ENV_KILL_GRACE_MS, "750".to_string()),
                ],
            )
    }

    fn out(&self, tag: &str) -> PathBuf {
        self.dir.join(format!("result_{tag}.txt"))
    }

    fn read_out(&self, tag: &str) -> Vec<String> {
        std::fs::read_to_string(self.out(tag))
            .unwrap_or_default()
            .lines()
            .map(str::to_string)
            .collect()
    }
}

/// Tiny spec-builder sugar the bench needs (conditional env).
trait SpecExt {
    fn envs_if(self, cond: bool, kvs: &[(&str, String)]) -> Self;
}
impl SpecExt for ClusterSpec {
    fn envs_if(mut self, cond: bool, kvs: &[(&str, String)]) -> ClusterSpec {
        if cond {
            for (k, v) in kvs {
                self = self.env(*k, v.clone());
            }
        }
        self
    }
}

const ARM_DEADLINE: Duration = Duration::from_secs(240);

/// The self-healing arm: spawn the job resilient with the kill armed,
/// timestamp the victim's death, respawn only the victim, and run to
/// completion. Returns the repair interval (death → job complete).
fn arm_single(w: &Workload) -> Duration {
    let spec = w.spec("single", true).env(tcp::ENV_RESILIENT, "1");
    let mut cluster = spawn_local_cluster(&spec).unwrap();
    let mut done = vec![false; w.nranks];
    let mut death: Option<Instant> = None;
    let deadline = Instant::now() + ARM_DEADLINE;
    loop {
        for (rank, rank_done) in done.iter_mut().enumerate() {
            if *rank_done {
                continue;
            }
            let Some(status) = cluster.try_wait_rank(rank).unwrap() else {
                continue;
            };
            if status.success() {
                *rank_done = true;
            } else {
                assert_eq!(rank, VICTIM, "only the armed victim may die: {status:?}");
                assert!(death.is_none(), "the victim died twice");
                death = Some(Instant::now());
                cluster.respawn_rank(&spec, rank).unwrap();
            }
        }
        if done.iter().all(|d| *d) {
            break;
        }
        assert!(Instant::now() < deadline, "single-rank arm timed out");
        std::thread::sleep(Duration::from_millis(2));
    }
    death.expect("the armed kill must have fired").elapsed()
}

/// The escalation baseline: same job, *not* resilient — the first
/// detected death condemns the whole launch (the non-resilient rung of
/// the recovery ladder: tear down the survivors, relaunch everything,
/// replay from the same durable commit). Returns death → relaunched job
/// complete.
fn arm_relaunch(w: &Workload) -> Duration {
    let mut cluster = spawn_local_cluster(&w.spec("relaunch", true)).unwrap();
    let deadline = Instant::now() + ARM_DEADLINE;
    let death = loop {
        if let Some(status) = cluster.try_wait_rank(VICTIM).unwrap() {
            assert!(!status.success(), "the armed victim must die in launch 1");
            break Instant::now();
        }
        assert!(
            Instant::now() < deadline,
            "relaunch arm: launch 1 timed out"
        );
        std::thread::sleep(Duration::from_millis(2));
    };
    cluster.kill_all();
    drop(cluster);
    let mut relaunch = spawn_local_cluster(&w.spec("relaunch", false)).unwrap();
    let statuses = relaunch.wait_all(ARM_DEADLINE).unwrap();
    assert!(
        statuses.iter().all(|s| s.unwrap().success()),
        "relaunch must complete: {statuses:?}"
    );
    death.elapsed()
}

/// Pull the result bits out of a completed arm's single report line and
/// assert the recovery contract it rode through.
fn checked_bits(lines: &[String], arm: &str, want_replay: bool) -> u64 {
    assert_eq!(
        lines.len(),
        1,
        "{arm}: exactly one completed launch: {lines:?}"
    );
    if want_replay {
        assert!(
            lines[0].contains("replayed=true"),
            "{arm}: recovery must replay from the commit: {lines:?}"
        );
    }
    u64::from_str_radix(lines[0].split_whitespace().next().unwrap(), 16).unwrap()
}

fn bench(_c: &mut Criterion) {
    // Child role: become one rank of the job and exit.
    if let Ok(Some(cfg)) = NetConfig::from_env() {
        worker(&cfg);
        return;
    }

    let quick = smoke();
    let w = Workload {
        nranks: 8,
        // 32 MiB aggregate state (n² × 8 bytes) in the full run.
        n: if quick { 512 } else { 2048 },
        // One live iteration after the last checkpoint: survivors must
        // still cross a safe point after the kill so the fault engages
        // every rank's in-job recovery (after the final safe point they
        // would run to completion and strand the rejoiner).
        iters: 7,
        every: 3,
        // Two all-reduces close every local-snapshot save: the agreement
        // on the saves, then the one on the group commit; hit 4 is the
        // commit's agreement of the second checkpoint (count 6) — the
        // victim's shard and the group commit are already durable, so
        // the repair recomputes only the single post-commit iteration.
        kill_nth: 4,
        // Slow enough that shard restores dominate the repair window
        // (2 MiB/s full-size: one shard crosses in ~2 s, and the
        // relaunch arm's seven serialized root→rank restore streams are
        // what the single-rank path never pays). The smoke wire scales
        // up with its 16x smaller state.
        throttle: if quick { 16 << 20 } else { 2 << 20 },
        dir: std::env::temp_dir().join(format!("ppar_recovery_{}", std::process::id())),
    };
    let _ = std::fs::remove_dir_all(&w.dir);
    std::fs::create_dir_all(&w.dir).unwrap();
    let reference = sor_seq(&SorParams::new(w.n, w.iters)).checksum.to_bits();

    let mttr_single = arm_single(&w);
    let single_bits = checked_bits(&w.read_out("single"), "single", true);
    assert_eq!(
        single_bits, reference,
        "healed run must be bitwise sequential"
    );

    let mttr_relaunch = arm_relaunch(&w);
    let relaunch_bits = checked_bits(&w.read_out("relaunch"), "relaunch", true);
    assert_eq!(
        relaunch_bits, reference,
        "relaunched run must be bitwise sequential"
    );

    let single_ms = mttr_single.as_secs_f64() * 1e3;
    let relaunch_ms = mttr_relaunch.as_secs_f64() * 1e3;
    let ratio = relaunch_ms / single_ms;
    println!(
        "recovery: mttr single-rank={single_ms:.1} ms, full-relaunch={relaunch_ms:.1} ms \
         ({ratio:.2}x, {} ranks, {} MiB state)",
        w.nranks,
        (w.n * w.n * 8) >> 20
    );

    let _ = std::fs::remove_dir_all(&w.dir);
    if quick {
        println!("recovery smoke: single-rank heal + relaunch both bitwise ok");
        return;
    }

    // The acceptance bound: healing one rank must beat relaunching the
    // job by at least 3x on the 32 MiB workload.
    assert!(
        ratio >= 3.0,
        "single-rank MTTR must be >=3x lower than full relaunch: \
         single={single_ms:.1}ms relaunch={relaunch_ms:.1}ms"
    );
    let ts = ppar_bench::json::unix_time();
    ppar_bench::json::append_history(
        "BENCH_recovery.json",
        &format!(
            "  {{\"unix_time\": {ts}, \"nranks\": {}, \"state_mib\": {}, \
         \"mttr_single_rank_ms\": {single_ms:.1}, \"mttr_full_relaunch_ms\": {relaunch_ms:.1}, \
         \"speedup\": {ratio:.2}}}",
            w.nranks,
            (w.n * w.n * 8) >> 20
        ),
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
