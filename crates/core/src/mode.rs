//! Execution modes supported by pluggable parallelisation.
//!
//! A single base program can be deployed in any of these modes by plugging the
//! corresponding parallelisation modules (see [`crate::plan::Plan`]). The mode
//! can also *change during execution* via the run-time adaptation protocol
//! (crate `ppar-adapt`), or across a checkpoint/restart boundary, because the
//! master-collected checkpoint data is identical in every mode.

use std::fmt;

/// The execution mode of a pluggable-parallelisation run.
///
/// Mirrors the paper's three deployment targets (§III.A) plus their hybrid
/// composition (§IV.B, multi-step adaptations):
///
/// 1. sequential — the base (domain-specific) code with no plugs active;
/// 2. shared memory — an OpenMP-like team of threads ("lines of execution",
///    LE, in the paper's evaluation);
/// 3. distributed memory — an MPI-like set of SPMD processes ("P");
/// 4. hybrid — distributed processes each running a local thread team.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Strict sequential execution of the base code. All constructs are
    /// identity operations.
    Sequential,
    /// Shared-memory parallel execution with a team of `threads` threads.
    SharedMemory {
        /// Team size, including the master thread. Must be ≥ 1.
        threads: usize,
    },
    /// Distributed-memory SPMD execution with `processes` aggregate elements.
    Distributed {
        /// Number of aggregate elements (simulated processes). Must be ≥ 1.
        processes: usize,
    },
    /// Hybrid: `processes` aggregate elements, each running a local team of
    /// `threads_per_process` threads.
    Hybrid {
        /// Number of aggregate elements.
        processes: usize,
        /// Local team size on each element.
        threads_per_process: usize,
    },
}

impl ExecMode {
    /// Shorthand for [`ExecMode::Sequential`].
    pub const fn seq() -> Self {
        ExecMode::Sequential
    }

    /// Shared-memory mode with `threads` lines of execution.
    pub const fn smp(threads: usize) -> Self {
        ExecMode::SharedMemory { threads }
    }

    /// Distributed-memory mode with `processes` elements.
    pub const fn dist(processes: usize) -> Self {
        ExecMode::Distributed { processes }
    }

    /// Hybrid mode.
    pub const fn hybrid(processes: usize, threads_per_process: usize) -> Self {
        ExecMode::Hybrid {
            processes,
            threads_per_process,
        }
    }

    /// Total processing elements this mode wants to occupy.
    pub fn total_pes(&self) -> usize {
        match *self {
            ExecMode::Sequential => 1,
            ExecMode::SharedMemory { threads } => threads.max(1),
            ExecMode::Distributed { processes } => processes.max(1),
            ExecMode::Hybrid {
                processes,
                threads_per_process,
            } => processes.max(1) * threads_per_process.max(1),
        }
    }

    /// Number of distributed aggregate elements (1 unless distributed/hybrid).
    pub fn processes(&self) -> usize {
        match *self {
            ExecMode::Distributed { processes } | ExecMode::Hybrid { processes, .. } => {
                processes.max(1)
            }
            _ => 1,
        }
    }

    /// Local team size on each element (1 unless shared-memory/hybrid).
    pub fn threads_per_process(&self) -> usize {
        match *self {
            ExecMode::SharedMemory { threads } => threads.max(1),
            ExecMode::Hybrid {
                threads_per_process,
                ..
            } => threads_per_process.max(1),
            _ => 1,
        }
    }

    /// A stable short tag used in checkpoint manifests and reports
    /// (e.g. `seq`, `smp4`, `dist8`, `hyb2x4`).
    pub fn tag(&self) -> String {
        match *self {
            ExecMode::Sequential => "seq".to_string(),
            ExecMode::SharedMemory { threads } => format!("smp{threads}"),
            ExecMode::Distributed { processes } => format!("dist{processes}"),
            ExecMode::Hybrid {
                processes,
                threads_per_process,
            } => format!("hyb{processes}x{threads_per_process}"),
        }
    }
}

impl fmt::Display for ExecMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ExecMode::Sequential => write!(f, "sequential"),
            ExecMode::SharedMemory { threads } => write!(f, "shared-memory({threads} LE)"),
            ExecMode::Distributed { processes } => write!(f, "distributed({processes} P)"),
            ExecMode::Hybrid {
                processes,
                threads_per_process,
            } => write!(f, "hybrid({processes} P x {threads_per_process} LE)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_pes_counts_all_lines_of_execution() {
        assert_eq!(ExecMode::seq().total_pes(), 1);
        assert_eq!(ExecMode::smp(8).total_pes(), 8);
        assert_eq!(ExecMode::dist(4).total_pes(), 4);
        assert_eq!(ExecMode::hybrid(2, 4).total_pes(), 8);
    }

    #[test]
    fn zero_sizes_clamp_to_one() {
        assert_eq!(ExecMode::smp(0).total_pes(), 1);
        assert_eq!(ExecMode::dist(0).total_pes(), 1);
        assert_eq!(ExecMode::hybrid(0, 0).total_pes(), 1);
    }

    #[test]
    fn tags_are_short_and_stable() {
        let modes = [
            ExecMode::seq(),
            ExecMode::smp(16),
            ExecMode::dist(32),
            ExecMode::hybrid(2, 24),
        ];
        let tags = modes.map(|mode| mode.tag());
        assert_eq!(tags, ["seq", "smp16", "dist32", "hyb2x24"]);
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(ExecMode::smp(4).to_string(), "shared-memory(4 LE)");
        assert_eq!(ExecMode::seq().to_string(), "sequential");
    }
}
