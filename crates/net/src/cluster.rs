//! The local-cluster driver: launch N copies of a binary as real OS
//! processes wired to one rendezvous address — the "mpirun" of this repo —
//! plus the process-level crash/restart loop.
//!
//! The driver owns nothing but PIDs: each rank process bootstraps itself
//! through [`crate::tcp::TcpFabric::connect`] from the environment
//! contract the driver sets ([`crate::tcp::ENV_RANK`] /
//! [`crate::tcp::ENV_NRANKS`] / [`crate::tcp::ENV_ROOT`]).
//!
//! There is one recovery loop, [`run_cluster_supervised`], spending two
//! budgets: single-rank respawns inside a launch, then launches of the
//! whole job ([`run_cluster_until_complete`] is the loop with no respawn
//! budget). After a relaunch the checkpoint layer's start-up failure
//! detection replays the job from the last durable snapshot.

use std::collections::VecDeque;
use std::io;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use ppar_core::sync::Mutex;

use crate::tcp::{ENV_NRANKS, ENV_RANK, ENV_REJOIN, ENV_RESILIENT, ENV_ROOT};

/// Reserve a fresh loopback `host:port` for a rendezvous listener: bind an
/// ephemeral port, read the address back, release it.
///
/// This is inherently reserve-then-rebind: another process *could* grab
/// the port in the instant between release and the rank-0 child's bind.
/// The kernel's ephemeral allocator avoids recently used ports, so the
/// window is minute; when it does fire, the job fails loudly within the
/// bootstrap deadline (rank 0 cannot bind, its peers time out of the
/// rendezvous) and the driver loop's next launch reserves a fresh address.
///
/// Inside one process the window is not minute: a released port is free
/// for the kernel to offer to the next caller before the first has bound
/// it again, which is how parallel tests came to share one rendezvous
/// address ("Address already in use"). So the last 512 ports issued by
/// this process are remembered, and a port is not issued again while it is
/// among them (a process that issues more than 512 forgets the oldest).
pub fn free_loopback_addr() -> io::Result<String> {
    static ISSUED: Mutex<VecDeque<u16>> = Mutex::new(VecDeque::new());
    // Repeats stay bound until we return, so the kernel offers another port.
    let mut repeats: Vec<TcpListener> = Vec::new();
    loop {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let mut issued = ISSUED.lock();
        if issued.contains(&addr.port()) {
            repeats.push(listener);
            continue;
        }
        if issued.len() == REMEMBERED_PORTS {
            issued.pop_front();
        }
        issued.push_back(addr.port());
        return Ok(addr.to_string());
    }
}

/// How many issued ports `free_loopback_addr` remembers: far more than
/// one process has rendezvous in flight, far fewer than the ephemeral range.
const REMEMBERED_PORTS: usize = 512;

/// What to launch, N times.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Number of rank processes.
    pub nranks: usize,
    /// Binary to execute for every rank.
    pub exe: PathBuf,
    /// Arguments passed to every rank.
    pub args: Vec<String>,
    /// Extra environment variables set for every rank (on top of the
    /// `PPAR_*` contract).
    pub envs: Vec<(String, String)>,
    /// Silence the children's stdout/stderr (noise control for benches;
    /// tests keep them inherited for diagnosability).
    pub quiet: bool,
}

impl ClusterSpec {
    /// Launch `nranks` copies of `exe` with `args`.
    pub fn new(nranks: usize, exe: impl Into<PathBuf>, args: Vec<String>) -> ClusterSpec {
        ClusterSpec {
            nranks,
            exe: exe.into(),
            args,
            envs: Vec::new(),
            quiet: false,
        }
    }

    /// Launch `nranks` copies of the *current* binary with `args` — the
    /// self-spawn pattern tests and benches use to become their own
    /// workers.
    pub fn current_exe(nranks: usize, args: Vec<String>) -> io::Result<ClusterSpec> {
        Ok(ClusterSpec::new(nranks, std::env::current_exe()?, args))
    }

    /// Add an environment variable for every rank.
    pub fn env(mut self, key: impl Into<String>, value: impl Into<String>) -> ClusterSpec {
        self.envs.push((key.into(), value.into()));
        self
    }
}

/// The command that starts `rank` of `spec` against the rendezvous at
/// `root`: the binary, its arguments, the `PPAR_*` contract, the spec's own
/// variables on top.
fn rank_command(spec: &ClusterSpec, rank: usize, root: &str) -> Command {
    let mut cmd = Command::new(&spec.exe);
    cmd.args(&spec.args)
        .env(ENV_RANK, rank.to_string())
        .env(ENV_NRANKS, spec.nranks.to_string())
        .env(ENV_ROOT, root);
    for (k, v) in &spec.envs {
        cmd.env(k, v);
    }
    if spec.quiet {
        cmd.stdout(Stdio::null()).stderr(Stdio::null());
    }
    cmd
}

/// A running cluster of rank processes.
pub struct LocalCluster {
    root: String,
    children: Vec<Option<Child>>,
}

/// Spawn one process per rank (rank 0 first, so the rendezvous listener
/// comes up promptly), all pointed at a freshly reserved loopback
/// rendezvous address.
pub fn spawn_local_cluster(spec: &ClusterSpec) -> io::Result<LocalCluster> {
    assert!(spec.nranks >= 1, "need at least one rank");
    let root = free_loopback_addr()?;
    let mut children: Vec<Option<Child>> = Vec::with_capacity(spec.nranks);
    for rank in 0..spec.nranks {
        match rank_command(spec, rank, &root).spawn() {
            Ok(child) => children.push(Some(child)),
            Err(e) => {
                // Reap what already started before reporting.
                let mut started = LocalCluster { root, children };
                started.kill_all();
                return Err(e);
            }
        }
    }
    Ok(LocalCluster { root, children })
}

impl LocalCluster {
    /// Number of ranks launched.
    pub fn nranks(&self) -> usize {
        self.children.len()
    }

    /// Current OS PID of each rank process (`None` once reaped).
    pub fn pids(&self) -> Vec<Option<u32>> {
        self.children
            .iter()
            .map(|c| c.as_ref().map(|c| c.id()))
            .collect()
    }

    /// Relaunch one (dead, already-reaped) rank into the existing mesh:
    /// same binary, same contract, same rendezvous address, plus
    /// [`ENV_REJOIN`] so the newcomer takes the rejoin bootstrap path
    /// instead of the full rendezvous. Returns the new PID.
    pub fn respawn_rank(&mut self, spec: &ClusterSpec, rank: usize) -> io::Result<u32> {
        assert!(rank != 0, "rank 0 owns the rendezvous and cannot rejoin");
        assert_eq!(spec.nranks, self.children.len(), "respawn into its own job");
        let child = rank_command(spec, rank, &self.root)
            .env(ENV_RESILIENT, "1")
            .env(ENV_REJOIN, "1")
            .spawn()?;
        let pid = child.id();
        self.children[rank] = Some(child);
        Ok(pid)
    }

    /// Poll one rank: reaps and returns the exit status if the process
    /// has exited, `None` while it is still running (or was already
    /// reaped). External supervisors — e.g. the recovery bench, which
    /// timestamps the death it is about to heal — build on this.
    pub fn try_wait_rank(&mut self, rank: usize) -> io::Result<Option<ExitStatus>> {
        let Some(child) = self.children[rank].as_mut() else {
            return Ok(None);
        };
        match child.try_wait()? {
            Some(status) => {
                self.children[rank] = None;
                Ok(Some(status))
            }
            None => Ok(None),
        }
    }

    /// Kill one rank process (SIGKILL — the crash-recovery scenario's
    /// "machine loss") and reap it. No-op if it already exited.
    pub fn kill_rank(&mut self, rank: usize) -> io::Result<()> {
        if let Some(child) = self.children[rank].as_mut() {
            let _ = child.kill();
            let _ = child.wait();
            self.children[rank] = None;
        }
        Ok(())
    }

    /// Kill and reap every remaining rank.
    pub fn kill_all(&mut self) {
        for rank in 0..self.children.len() {
            let _ = self.kill_rank(rank);
        }
    }

    /// Wait (polling) until every rank exits or `deadline` passes; on
    /// expiry the stragglers are killed and a `TimedOut` error returns.
    /// Exit statuses come back rank-indexed; ranks already reaped by
    /// [`LocalCluster::kill_rank`] report `None`.
    pub fn wait_all(&mut self, deadline: Duration) -> io::Result<Vec<Option<ExitStatus>>> {
        let end = Instant::now() + deadline;
        let mut statuses: Vec<Option<ExitStatus>> = vec![None; self.children.len()];
        loop {
            for (rank, status) in statuses.iter_mut().enumerate() {
                if let Some(exited) = self.try_wait_rank(rank)? {
                    *status = Some(exited);
                }
            }
            if self.children.iter().all(Option::is_none) {
                return Ok(statuses);
            }
            if Instant::now() >= end {
                self.kill_all();
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("cluster did not exit within {deadline:?}"),
                ));
            }
            std::thread::sleep(POLL);
        }
    }
}

impl Drop for LocalCluster {
    fn drop(&mut self) {
        // Never leak rank processes past the driver.
        self.kill_all();
    }
}

/// Wall-clock budget of one launch, respawns inside it included; on expiry
/// the launch is killed and escalates to a relaunch.
pub const LAUNCH_TIMEOUT: Duration = Duration::from_secs(120);

/// Child poll interval of the driver loop.
const POLL: Duration = Duration::from_millis(15);

/// Launch `spec` until every rank exits successfully, relaunching the
/// whole job after any failure (the process-level restart path: the
/// checkpoint layer detects the dead run at start-up and replays it from
/// the last durable snapshot). Returns the number of launches it took.
/// This is [`run_cluster_supervised`] with no respawn budget.
pub fn run_cluster_until_complete(spec: &ClusterSpec, max_launches: usize) -> io::Result<usize> {
    run_cluster_supervised(spec, max_launches, 0).map(|report| report.launches)
}

/// What [`run_cluster_supervised`] did to finish the job.
#[derive(Debug, Clone)]
pub struct SupervisorReport {
    /// Full-job launches used (1 = no escalation).
    pub launches: usize,
    /// Single-rank respawns across all launches.
    pub single_respawns: usize,
    /// Every PID each rank ran under during the final (successful)
    /// launch, in spawn order — a survivor has exactly one entry, a
    /// recovered rank two or more. This is how tests prove recovery did
    /// *not* relaunch the survivors.
    pub pid_history: Vec<Vec<u32>>,
}

/// Run `spec` to completion under the driver's one recovery loop: at most
/// `max_launches` launches of the whole job, at most `max_respawns`
/// single-rank respawns inside each.
///
/// With a respawn budget every rank runs resilient ([`ENV_RESILIENT`]):
/// when a non-root rank dies the driver respawns *only that rank*
/// ([`LocalCluster::respawn_rank`]) while the survivors hold at their next
/// safe point and re-admit it (the in-job recovery path). Rank-0 death, a
/// spent respawn budget or a launch that overruns [`LAUNCH_TIMEOUT`] kill
/// the launch and escalate to a relaunch of everything. With no respawn
/// budget the ranks run plain (nobody would ever rejoin them) and every
/// failure is a relaunch.
pub fn run_cluster_supervised(
    spec: &ClusterSpec,
    max_launches: usize,
    max_respawns: usize,
) -> io::Result<SupervisorReport> {
    let spec = match max_respawns {
        0 => spec.clone(),
        _ => spec.clone().env(ENV_RESILIENT, "1"),
    };
    let mut single_respawns = 0usize;
    for launch in 1..=max_launches {
        let mut cluster = spawn_local_cluster(&spec)?;
        let mut pid_history: Vec<Vec<u32>> = cluster
            .pids()
            .into_iter()
            .map(|p| p.into_iter().collect())
            .collect();
        let mut running = cluster.nranks();
        let mut respawns_left = max_respawns;
        let deadline = Instant::now() + LAUNCH_TIMEOUT;
        'poll: loop {
            for (rank, pids) in pid_history.iter_mut().enumerate() {
                // `None`: still running, or reaped on an earlier round.
                let Some(status) = cluster.try_wait_rank(rank)? else {
                    continue;
                };
                if status.success() {
                    running -= 1;
                } else if rank == 0 || respawns_left == 0 {
                    // Rank 0 owns the rendezvous (nobody to rejoin
                    // through), and a respawn budget run dry means the
                    // failure is not confined to one rank: relaunch.
                    break 'poll;
                } else {
                    respawns_left -= 1;
                    single_respawns += 1;
                    pids.push(cluster.respawn_rank(&spec, rank)?);
                }
            }
            if running == 0 {
                return Ok(SupervisorReport {
                    launches: launch,
                    single_respawns,
                    pid_history,
                });
            }
            if Instant::now() >= deadline {
                break 'poll;
            }
            std::thread::sleep(POLL);
        }
        // Escalation: this launch is unrecoverable in place.
        cluster.kill_all();
    }
    Err(io::Error::other(format!(
        "cluster did not complete within {max_launches} launches ({single_respawns} single-rank respawns)"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_addr_is_loopback_with_port() {
        let addr = free_loopback_addr().unwrap();
        assert!(addr.starts_with("127.0.0.1:"), "{addr}");
        let port: u16 = addr.rsplit_once(':').unwrap().1.parse().unwrap();
        assert_ne!(port, 0);
    }

    #[test]
    fn concurrent_callers_never_share_a_port() {
        // Every caller releases its port at once, which is when the kernel
        // may offer it again; the barrier lines the callers up.
        const CALLERS: usize = 8;
        const EACH: usize = 24;
        let gate = std::sync::Barrier::new(CALLERS);
        let mut all: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CALLERS)
                .map(|_| {
                    s.spawn(|| {
                        gate.wait();
                        (0..EACH)
                            .map(|_| free_loopback_addr().unwrap())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        const { assert!(CALLERS * EACH < REMEMBERED_PORTS) };
        all.sort();
        let issued = all.len();
        all.dedup();
        assert_eq!(all.len(), issued, "a port was issued twice");
    }

    #[test]
    fn spec_builder_accumulates_env() {
        let spec = ClusterSpec::new(2, "/bin/true", vec!["x".into()])
            .env("A", "1")
            .env("B", "2");
        assert_eq!(spec.envs.len(), 2);
        assert_eq!(spec.nranks, 2);
    }

    #[cfg(unix)]
    #[test]
    fn wait_all_reaps_and_reports() {
        // `true` exits 0 immediately; no fabric involved — this exercises
        // only the process plumbing.
        let spec = ClusterSpec::new(3, "/bin/true", vec![]);
        let mut cluster = spawn_local_cluster(&spec).unwrap();
        let statuses = cluster.wait_all(Duration::from_secs(10)).unwrap();
        assert_eq!(statuses.len(), 3);
        assert!(statuses.iter().all(|s| s.unwrap().success()));
    }

    #[cfg(unix)]
    #[test]
    fn wait_all_times_out_on_stragglers() {
        let spec = ClusterSpec::new(1, "/bin/sleep", vec!["30".into()]).env("X", "1");
        let mut cluster = spawn_local_cluster(&spec).unwrap();
        let err = cluster.wait_all(Duration::from_millis(200)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[cfg(unix)]
    #[test]
    fn restart_driver_counts_attempts() {
        // `false` always fails: without a respawn budget every failure is
        // a relaunch, and the driver relaunches to its cap.
        let spec = ClusterSpec::new(1, "/bin/false", vec![]);
        let err = run_cluster_until_complete(&spec, 2).unwrap_err();
        assert!(err.to_string().contains("2 launches (0 single"), "{err}");
        let ok = ClusterSpec::new(2, "/bin/true", vec![]);
        assert_eq!(run_cluster_until_complete(&ok, 3).unwrap(), 1);

        // The supervised arm of the same loop. Rank 0 never respawns, so
        // rank 1 is the one that keeps failing: each launch spends its
        // respawn budget on it, then escalates, until the launch cap.
        let spec = ClusterSpec::new(2, "/bin/sh", vec!["-c".into(), "exit $PPAR_RANK".into()]);
        let err = run_cluster_supervised(&spec, 2, 3).unwrap_err();
        assert!(err.to_string().contains("2 launches (6 single"), "{err}");
        let report = run_cluster_supervised(&ok, 3, 4).unwrap();
        assert_eq!((report.launches, report.single_respawns), (1, 0));
        assert!(report.pid_history.iter().all(|pids| pids.len() == 1));
    }
}
