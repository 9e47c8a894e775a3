//! Cluster-level topology: machines joined by a network.
//!
//! The paper's simulations (§5.3–§5.5) use clusters of homogeneous machines,
//! and jobs are preferentially placed within one machine. We therefore keep
//! one shared [`MachineTopology`] per machine *model* (all intra-machine
//! queries hit the shared distance matrix) and synthesize cross-machine
//! distances from the Fig. 7 level weights instead of materializing one
//! monolithic graph for a 1 000-machine cluster.

use crate::ids::{GpuId, MachineId};
use crate::link::level_weight;
use crate::machine::MachineTopology;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A GPU addressed cluster-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GlobalGpuId {
    /// Host machine.
    pub machine: MachineId,
    /// GPU within the machine.
    pub gpu: GpuId,
}

impl fmt::Display for GlobalGpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.machine, self.gpu)
    }
}

/// A cluster of machines behind a common network root, optionally grouped
/// into racks (top-of-rack switch per rack, aggregation layer between
/// racks).
#[derive(Debug, Clone)]
pub struct ClusterTopology {
    machines: Vec<Arc<MachineTopology>>,
    /// Rack id per machine; `None` = a single flat fabric.
    racks: Option<Vec<u32>>,
    /// Dense topology-class id per machine: machines sharing one
    /// [`MachineTopology`] allocation share a class. Homogeneous clusters
    /// collapse to a single class, which is what lets the placement engine
    /// memoize per *machine state* instead of per machine.
    class_of: Vec<u32>,
}

/// Dense class ids from shared-allocation identity: two machines belong to
/// the same class iff they point at the same [`MachineTopology`].
fn classes_of(machines: &[Arc<MachineTopology>]) -> Vec<u32> {
    let mut reps: Vec<*const MachineTopology> = Vec::new();
    machines
        .iter()
        .map(|m| {
            let p = Arc::as_ptr(m);
            match reps.iter().position(|&r| std::ptr::eq(r, p)) {
                Some(i) => i as u32,
                None => {
                    reps.push(p);
                    (reps.len() - 1) as u32
                }
            }
        })
        .collect()
}

impl ClusterTopology {
    /// A cluster of `n` identical machines on one flat fabric.
    pub fn homogeneous(machine: MachineTopology, n: usize) -> Self {
        assert!(n > 0, "a cluster needs at least one machine");
        let shared = Arc::new(machine);
        let machines: Vec<Arc<MachineTopology>> = (0..n).map(|_| Arc::clone(&shared)).collect();
        let class_of = classes_of(&machines);
        Self {
            machines,
            racks: None,
            class_of,
        }
    }

    /// A cluster of identical machines arranged in racks: `n_racks` racks of
    /// `machines_per_rack` machines each. Machine ids are rack-major
    /// (machines 0..per_rack in rack 0, and so on).
    pub fn homogeneous_racked(
        machine: MachineTopology,
        n_racks: usize,
        machines_per_rack: usize,
    ) -> Self {
        assert!(
            n_racks > 0 && machines_per_rack > 0,
            "racks and machines must be positive"
        );
        let shared = Arc::new(machine);
        let n = n_racks * machines_per_rack;
        let machines: Vec<Arc<MachineTopology>> = (0..n).map(|_| Arc::clone(&shared)).collect();
        let class_of = classes_of(&machines);
        Self {
            machines,
            racks: Some((0..n).map(|i| (i / machines_per_rack) as u32).collect()),
            class_of,
        }
    }

    /// A cluster from explicit (possibly heterogeneous) machines on one
    /// flat fabric.
    pub fn from_machines(machines: Vec<Arc<MachineTopology>>) -> Self {
        assert!(!machines.is_empty(), "a cluster needs at least one machine");
        let class_of = classes_of(&machines);
        Self {
            machines,
            racks: None,
            class_of,
        }
    }

    /// The machine's topology class: machines sharing one
    /// [`MachineTopology`] allocation report the same dense id. Placements
    /// on same-class machines with identical occupancy are interchangeable,
    /// which the evaluation engine exploits for memoization.
    pub fn machine_class(&self, id: MachineId) -> u32 {
        self.class_of[id.index()]
    }

    /// Number of distinct topology classes (1 for homogeneous clusters).
    pub fn n_machine_classes(&self) -> usize {
        self.class_of
            .iter()
            .copied()
            .max()
            .map_or(0, |m| m as usize + 1)
    }

    /// The rack a machine sits in (0 on flat fabrics).
    pub fn rack_of(&self, machine: MachineId) -> u32 {
        self.racks.as_ref().map(|r| r[machine.index()]).unwrap_or(0)
    }

    /// Number of racks (1 on flat fabrics).
    pub fn n_racks(&self) -> usize {
        self.racks
            .as_ref()
            .map(|r| r.iter().copied().max().map_or(1, |m| m as usize + 1))
            .unwrap_or(1)
    }

    /// Number of machines.
    pub fn n_machines(&self) -> usize {
        self.machines.len()
    }

    /// Total GPU count across the cluster.
    pub fn n_gpus(&self) -> usize {
        self.machines.iter().map(|m| m.n_gpus()).sum()
    }

    /// Machine ids, ascending.
    pub fn machines(&self) -> impl Iterator<Item = MachineId> + '_ {
        (0..self.machines.len() as u32).map(MachineId)
    }

    /// Topology of one machine.
    pub fn machine(&self, id: MachineId) -> &MachineTopology {
        &self.machines[id.index()]
    }

    /// Shared handle to one machine's topology.
    pub fn machine_arc(&self, id: MachineId) -> Arc<MachineTopology> {
        Arc::clone(&self.machines[id.index()])
    }

    /// All GPUs in the cluster, machine-major order.
    pub fn gpus(&self) -> impl Iterator<Item = GlobalGpuId> + '_ {
        self.machines().flat_map(move |m| {
            self.machine(m)
                .gpus()
                .map(move |g| GlobalGpuId { machine: m, gpu: g })
        })
    }

    /// Qualitative distance between any two GPUs in the cluster.
    ///
    /// Same machine → the machine's distance matrix. Different machines →
    /// attach-cost of each GPU up to its machine root plus two top-of-rack
    /// hops, mirroring what a fully materialized Fig. 7 graph would
    /// produce: `d(a, Ma) + 100 + 100 + d(b, Mb)` where `d(g, M) = 1 + 40`.
    /// Machines in different racks additionally cross the aggregation
    /// layer (two hops at weight 200).
    pub fn distance(&self, a: GlobalGpuId, b: GlobalGpuId) -> f64 {
        if a.machine == b.machine {
            return self.machine(a.machine).distance(a.gpu, b.gpu);
        }
        let to_root = level_weight::GPU + level_weight::MACHINE;
        let mut d = 2.0 * to_root + 2.0 * level_weight::NETWORK;
        if self.rack_of(a.machine) != self.rack_of(b.machine) {
            d += 2.0 * level_weight::AGGREGATION;
        }
        d
    }

    /// Eq. 3 cost over an arbitrary cluster-wide GPU set.
    pub fn pairwise_cost(&self, gpus: &[GlobalGpuId]) -> f64 {
        let mut total = 0.0;
        for (i, &a) in gpus.iter().enumerate() {
            for &b in &gpus[i + 1..] {
                total += self.distance(a, b);
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::power8_minsky;

    fn cluster(n: usize) -> ClusterTopology {
        ClusterTopology::homogeneous(power8_minsky(), n)
    }

    #[test]
    fn counts() {
        let c = cluster(5);
        assert_eq!(c.n_machines(), 5);
        assert_eq!(c.n_gpus(), 20);
        assert_eq!(c.gpus().count(), 20);
    }

    #[test]
    fn intra_machine_distance_delegates() {
        let c = cluster(2);
        let a = GlobalGpuId {
            machine: MachineId(0),
            gpu: GpuId(0),
        };
        let b = GlobalGpuId {
            machine: MachineId(0),
            gpu: GpuId(1),
        };
        assert_eq!(c.distance(a, b), 1.0);
    }

    #[test]
    fn cross_machine_distance_dominates_everything_intra() {
        let c = cluster(2);
        let a = GlobalGpuId {
            machine: MachineId(0),
            gpu: GpuId(0),
        };
        let b = GlobalGpuId {
            machine: MachineId(1),
            gpu: GpuId(0),
        };
        let cross = c.distance(a, b);
        assert_eq!(cross, 2.0 * 41.0 + 200.0);
        assert!(cross > c.machine(MachineId(0)).max_pair_distance());
    }

    #[test]
    fn distance_is_symmetric() {
        let c = cluster(3);
        let a = GlobalGpuId {
            machine: MachineId(0),
            gpu: GpuId(3),
        };
        let b = GlobalGpuId {
            machine: MachineId(2),
            gpu: GpuId(1),
        };
        assert_eq!(c.distance(a, b), c.distance(b, a));
        assert_eq!(c.distance(a, a), 0.0);
    }

    #[test]
    fn pairwise_cost_mixes_intra_and_cross() {
        let c = cluster(2);
        let set = [
            GlobalGpuId {
                machine: MachineId(0),
                gpu: GpuId(0),
            },
            GlobalGpuId {
                machine: MachineId(0),
                gpu: GpuId(1),
            },
            GlobalGpuId {
                machine: MachineId(1),
                gpu: GpuId(0),
            },
        ];
        let expected = 1.0 + 282.0 + 282.0;
        assert_eq!(c.pairwise_cost(&set), expected);
    }

    #[test]
    fn homogeneous_cluster_shares_topology_memory() {
        let c = cluster(1000);
        assert_eq!(c.n_gpus(), 4000);
        // All point at the same allocation.
        let first = Arc::as_ptr(&c.machine_arc(MachineId(0)));
        let last = Arc::as_ptr(&c.machine_arc(MachineId(999)));
        assert_eq!(first, last);
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn empty_cluster_rejected() {
        ClusterTopology::from_machines(Vec::new());
    }

    #[test]
    fn machine_classes_track_shared_topologies() {
        let c = cluster(5);
        assert_eq!(c.n_machine_classes(), 1);
        assert_eq!(c.machine_class(MachineId(0)), c.machine_class(MachineId(4)));

        // Distinct allocations are distinct classes even when structurally
        // identical — class identity is allocation identity, never a deep
        // comparison.
        let hetero = ClusterTopology::from_machines(vec![
            Arc::new(power8_minsky()),
            Arc::new(power8_minsky()),
        ]);
        assert_eq!(hetero.n_machine_classes(), 2);
        assert_ne!(
            hetero.machine_class(MachineId(0)),
            hetero.machine_class(MachineId(1))
        );

        // Repeated handles collapse back onto their first class id.
        let shared = c.machine_arc(MachineId(0));
        let mixed = ClusterTopology::from_machines(vec![
            Arc::clone(&shared),
            Arc::new(power8_minsky()),
            shared,
        ]);
        assert_eq!(mixed.n_machine_classes(), 2);
        assert_eq!(mixed.machine_class(MachineId(0)), 0);
        assert_eq!(mixed.machine_class(MachineId(1)), 1);
        assert_eq!(mixed.machine_class(MachineId(2)), 0);
    }

    #[test]
    fn racked_cluster_distances() {
        let c = ClusterTopology::homogeneous_racked(power8_minsky(), 2, 2);
        assert_eq!(c.n_machines(), 4);
        assert_eq!(c.n_racks(), 2);
        assert_eq!(c.rack_of(MachineId(0)), 0);
        assert_eq!(c.rack_of(MachineId(1)), 0);
        assert_eq!(c.rack_of(MachineId(2)), 1);

        let g = |m: u32| GlobalGpuId {
            machine: MachineId(m),
            gpu: GpuId(0),
        };
        let same_rack = c.distance(g(0), g(1));
        let cross_rack = c.distance(g(0), g(2));
        assert_eq!(same_rack, 282.0);
        assert_eq!(cross_rack, 282.0 + 400.0);
        // Flat clusters never pay the aggregation penalty.
        let flat = ClusterTopology::homogeneous(power8_minsky(), 4);
        assert_eq!(flat.distance(g(0), g(2)), 282.0);
        assert_eq!(flat.n_racks(), 1);
    }
}
