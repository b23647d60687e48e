//! Simulated cluster topology and network cost model.
//!
//! The paper's evaluation ran on "a cluster with two machines, dual Opteron
//! 6174 per node (i.e., 24 cores per machine)" (§V). This repository has no
//! real cluster, so distributed experiments run on a **simulated topology**:
//! ranks are OS threads pinned (logically) to machines, and every message
//! pays a latency + bandwidth cost whose parameters differ between
//! *intra-machine* links (shared memory within a node) and *inter-machine*
//! links (the cluster interconnect). This reproduces the paper's observable
//! shape: distributed costs grow with P and jump once ranks span machines
//! (the "most noticed with 32 P since the data must move across machines"
//! effect of Figs. 4–5).

use std::time::Duration;

/// Which physical link a message crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Both ranks on the same machine.
    Intra,
    /// Ranks on different machines.
    Inter,
}

/// A cluster of `machines` identical nodes with `cores_per_machine` cores.
/// Ranks are assigned to machines block-wise: rank `r` lives on machine
/// `r / ranks_per_machine` where consecutive ranks fill a machine first,
/// matching the usual MPI block placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Number of machines (≥ 1).
    pub machines: usize,
    /// Cores per machine (≥ 1).
    pub cores_per_machine: usize,
}

impl Topology {
    /// The paper's evaluation cluster: 2 machines × 24 cores.
    pub fn paper_cluster() -> Topology {
        Topology {
            machines: 2,
            cores_per_machine: 24,
        }
    }

    /// The paper's Fig. 9 cluster: eight-core machines (enough of them for
    /// 32 processing elements).
    pub fn eight_core_cluster(machines: usize) -> Topology {
        Topology {
            machines: machines.max(1),
            cores_per_machine: 8,
        }
    }

    /// A single shared-memory node (no inter-machine links).
    pub fn single_node(cores: usize) -> Topology {
        Topology {
            machines: 1,
            cores_per_machine: cores.max(1),
        }
    }

    /// The machine hosting `rank` when `nranks` ranks are placed block-wise.
    /// Ranks beyond the core count wrap around (over-subscription, used by
    /// the over-decomposition experiment of Fig. 8).
    pub fn machine_of(&self, rank: usize, nranks: usize) -> usize {
        let per_machine = nranks.div_ceil(self.machines).max(1);
        (rank / per_machine).min(self.machines - 1)
    }

    /// Do two ranks share a machine?
    pub fn same_machine(&self, a: usize, b: usize, nranks: usize) -> bool {
        self.machine_of(a, nranks) == self.machine_of(b, nranks)
    }

    /// Link class between two ranks.
    pub fn link(&self, a: usize, b: usize, nranks: usize) -> LinkClass {
        if self.same_machine(a, b, nranks) {
            LinkClass::Intra
        } else {
            LinkClass::Inter
        }
    }
}

/// Latency/bandwidth parameters for the two link classes.
#[derive(Debug, Clone, Copy)]
pub struct NetModel {
    /// One-way latency within a machine.
    pub latency_intra: Duration,
    /// One-way latency across machines.
    pub latency_inter: Duration,
    /// Bandwidth within a machine (bytes/second).
    pub bandwidth_intra: f64,
    /// Bandwidth across machines (bytes/second).
    pub bandwidth_inter: f64,
}

impl Default for NetModel {
    /// Defaults approximating a 2011-era cluster: shared-memory copies at
    /// ~4 GB/s with microsecond latency; gigabit-class interconnect at
    /// ~120 MB/s with ~60 µs latency.
    fn default() -> Self {
        NetModel {
            latency_intra: Duration::from_micros(2),
            latency_inter: Duration::from_micros(60),
            bandwidth_intra: 4.0e9,
            bandwidth_inter: 1.2e8,
        }
    }
}

impl NetModel {
    /// A model with zero cost (for functional tests).
    pub fn instant() -> NetModel {
        NetModel {
            latency_intra: Duration::ZERO,
            latency_inter: Duration::ZERO,
            bandwidth_intra: f64::INFINITY,
            bandwidth_inter: f64::INFINITY,
        }
    }

    /// Transfer time of a message of `bytes` over `link`.
    pub fn cost(&self, link: LinkClass, bytes: usize) -> Duration {
        let (latency, bw) = match link {
            LinkClass::Intra => (self.latency_intra, self.bandwidth_intra),
            LinkClass::Inter => (self.latency_inter, self.bandwidth_inter),
        };
        if bw.is_infinite() || bytes == 0 {
            return latency;
        }
        latency + Duration::from_secs_f64(bytes as f64 / bw)
    }

    /// The bandwidth component alone (serialises at a receiving rank's
    /// ingress link; the latency component pipelines).
    pub fn bandwidth_time(&self, link: LinkClass, bytes: usize) -> Duration {
        let bw = match link {
            LinkClass::Intra => self.bandwidth_intra,
            LinkClass::Inter => self.bandwidth_inter,
        };
        if bw.is_infinite() || bytes == 0 {
            return Duration::ZERO;
        }
        Duration::from_secs_f64(bytes as f64 / bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_placement_fills_machines_in_order() {
        let t = Topology::paper_cluster();
        // 32 ranks over 2 machines: 16 per machine.
        assert_eq!(t.machine_of(0, 32), 0);
        assert_eq!(t.machine_of(15, 32), 0);
        assert_eq!(t.machine_of(16, 32), 1);
        assert_eq!(t.machine_of(31, 32), 1);
    }

    #[test]
    fn small_rank_counts_stay_on_one_machine() {
        let t = Topology::paper_cluster();
        // 16 ranks fit on machine 0 (block placement: ceil(16/2)=8 per
        // machine... block placement splits across machines).
        assert_eq!(t.machine_of(0, 16), 0);
        assert_eq!(t.machine_of(7, 16), 0);
        assert_eq!(t.machine_of(8, 16), 1);
    }

    #[test]
    fn single_node_is_always_intra() {
        let t = Topology::single_node(8);
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(t.link(a, b, 16), LinkClass::Intra);
            }
        }
    }

    #[test]
    fn link_classes_cross_machines() {
        let t = Topology::paper_cluster();
        assert_eq!(t.link(0, 15, 32), LinkClass::Intra);
        assert_eq!(t.link(0, 16, 32), LinkClass::Inter);
        assert_eq!(t.link(20, 31, 32), LinkClass::Intra);
    }

    #[test]
    fn cost_model_orders_properly() {
        let m = NetModel::default();
        let small_intra = m.cost(LinkClass::Intra, 1024);
        let small_inter = m.cost(LinkClass::Inter, 1024);
        let big_inter = m.cost(LinkClass::Inter, 1 << 20);
        assert!(small_intra < small_inter, "inter link has higher latency");
        assert!(small_inter < big_inter, "bandwidth term grows with size");
    }

    #[test]
    fn instant_model_is_free() {
        let m = NetModel::instant();
        assert_eq!(m.cost(LinkClass::Inter, 1 << 30), Duration::ZERO);
    }

    #[test]
    fn over_subscribed_ranks_wrap() {
        let t = Topology::paper_cluster(); // 48 cores
                                           // 256 ranks: 128 per machine.
        assert_eq!(t.machine_of(0, 256), 0);
        assert_eq!(t.machine_of(127, 256), 0);
        assert_eq!(t.machine_of(128, 256), 1);
        assert_eq!(t.machine_of(255, 256), 1);
    }
}
