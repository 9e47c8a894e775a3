//! Disaggregated multi-node placement — the paper's stated future work
//! ("transparently scale learning applications to multiple disaggregated
//! GPUs across the cluster", §7).
//!
//! A job that clears its `single_node` constraint *prefers* one machine
//! (the normal Algorithm 1 path) but, when no machine has enough free
//! GPUs, may be **spilled**: its communication graph is mapped across the
//! free GPUs of several machines with the same DRB recursion, using
//! cluster-level distances. The network hop dominates such placements, so
//! spilled jobs score the corresponding utility and the postponing policy
//! will only accept them when the job's threshold allows it.

use crate::policy::Decision;
use crate::state::ClusterState;
use gts_job::{JobGraph, JobProfile, JobSpec};
use gts_map::{drb_map, PlacementOracle, UtilityComponents, UtilityWeights};
use gts_topo::{GlobalGpuId, GpuId, MachineId};

/// A [`PlacementOracle`] over the *cluster-wide* free-GPU list: vertex `i`
/// of the mapping problem is `gpus[i]`, a global GPU.
pub struct ClusterOracle<'a> {
    state: &'a ClusterState,
    job: &'a JobSpec,
    /// The candidate pool; DRB's `GpuId`s index into this.
    pub gpus: Vec<GlobalGpuId>,
}

impl<'a> ClusterOracle<'a> {
    /// Builds the oracle over every free GPU in the cluster, machine-major
    /// order.
    pub fn new(state: &'a ClusterState, job: &'a JobSpec) -> Self {
        let gpus: Vec<GlobalGpuId> = state
            .cluster()
            .machines()
            .flat_map(|m| {
                state
                    .free_gpus(m)
                    .into_iter()
                    .map(move |gpu| GlobalGpuId { machine: m, gpu })
            })
            .collect();
        Self { state, job, gpus }
    }

    fn resolve(&self, idx: &[GpuId]) -> Vec<GlobalGpuId> {
        idx.iter().map(|g| self.gpus[g.index()]).collect()
    }
}

impl PlacementOracle for ClusterOracle<'_> {
    fn distance(&self, a: GpuId, b: GpuId) -> f64 {
        self.state
            .cluster()
            .distance(self.gpus[a.index()], self.gpus[b.index()])
    }

    fn interference(&self, idx: &[GpuId]) -> f64 {
        if idx.is_empty() {
            return 1.0;
        }
        let globals = self.resolve(idx);
        let machines: Vec<MachineId> = {
            let mut ms: Vec<_> = globals.iter().map(|g| g.machine).collect();
            ms.sort_unstable();
            ms.dedup();
            ms
        };
        let profile = self.state.profiles().get(self.job.model, self.job.batch);
        let mut total = 0.0;
        for &m in &machines {
            let local: Vec<GpuId> = globals
                .iter()
                .filter(|g| g.machine == m)
                .map(|g| g.gpu)
                .collect();
            let topo = self.state.cluster().machine(m);
            let corunners: Vec<(JobProfile, f64)> = self
                .state
                .running_on(m)
                .iter()
                .map(|alloc| {
                    let factor = gts_perf::domain_factor(topo, &local, &alloc.gpus_on(m));
                    (*alloc.profile(self.state.profiles()), factor)
                })
                .collect();
            total += profile.eq4_interference(&corunners);
        }
        total / machines.len() as f64
    }

    fn fragmentation_after(&self, idx: &[GpuId]) -> f64 {
        let globals = self.resolve(idx);
        let machines: Vec<MachineId> = {
            let mut ms: Vec<_> = globals.iter().map(|g| g.machine).collect();
            ms.sort_unstable();
            ms.dedup();
            ms
        };
        if machines.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for &m in &machines {
            let mut occupancy = self.state.socket_occupancy(m);
            let topo = self.state.cluster().machine(m);
            for g in globals.iter().filter(|g| g.machine == m) {
                let s = topo.socket_of(g.gpu).index();
                if occupancy[s].0 > 0 {
                    occupancy[s].0 -= 1;
                }
            }
            total += gts_map::eq5_fragmentation(&occupancy);
        }
        total / machines.len() as f64
    }
}

/// The minimal number of machines an `n`-GPU spill must touch.
fn min_machines_needed(state: &ClusterState, n: usize) -> usize {
    let max_per_machine = state
        .cluster()
        .machines()
        .map(|m| state.cluster().machine(m).n_gpus())
        .max()
        .unwrap_or(1);
    n.div_ceil(max_per_machine.max(1))
}

/// The cheapest Eq. 3 cost an `n`-GPU allocation could achieve on an empty
/// cluster: fill whole machines with their best subsets, pay the network
/// for every cross-machine pair.
pub fn best_possible_cluster_cost(state: &ClusterState, n: usize) -> f64 {
    let cluster = state.cluster();
    let mut remaining = n;
    let mut chunks: Vec<(MachineId, usize)> = Vec::new();
    for m in cluster.machines() {
        if remaining == 0 {
            break;
        }
        let take = remaining.min(cluster.machine(m).n_gpus());
        chunks.push((m, take));
        remaining -= take;
    }
    assert_eq!(remaining, 0, "cluster cannot host {n} GPUs at all");
    let mut cost = 0.0;
    for &(m, k) in &chunks {
        cost += cluster.machine(m).best_pairwise_cost(k);
    }
    // Cross-machine pairs all ride the network.
    let cross_pair = {
        let a = GlobalGpuId {
            machine: MachineId(0),
            gpu: GpuId(0),
        };
        let b = GlobalGpuId {
            machine: MachineId(1.min(cluster.n_machines() as u32 - 1)),
            gpu: GpuId(0),
        };
        if cluster.n_machines() > 1 {
            cluster.distance(a, b)
        } else {
            0.0
        }
    };
    for (i, &(_, a)) in chunks.iter().enumerate() {
        for &(_, b) in &chunks[i + 1..] {
            cost += (a * b) as f64 * cross_pair;
        }
    }
    cost
}

/// Attempts a spilled placement of `job` across machines. Returns `None`
/// when the cluster as a whole lacks the GPUs.
pub fn decide_spill(
    state: &ClusterState,
    job: &JobSpec,
    weights: UtilityWeights,
) -> Option<Decision> {
    let n = job.n_gpus as usize;
    let oracle = ClusterOracle::new(state, job);
    if oracle.gpus.len() < n {
        return None;
    }
    let graph = JobGraph::from_spec(job);
    let idx = drb_map(
        &graph,
        &(0..oracle.gpus.len() as u32).map(GpuId).collect::<Vec<_>>(),
        &oracle,
        weights,
    )
    .ok()?;
    let globals = oracle.resolve(&idx);
    let utility = spill_utility(state, job, &globals, weights);
    Some(Decision {
        gpus: globals,
        utility,
    })
}

/// The greedy baselines' spill: take the first `n` free GPUs walking
/// machines in the given order (FCFS: id order; BF: fullest first).
pub fn greedy_spill(
    state: &ClusterState,
    job: &JobSpec,
    machine_order: &[MachineId],
    weights: UtilityWeights,
) -> Option<Decision> {
    let n = job.n_gpus as usize;
    let mut globals: Vec<GlobalGpuId> = Vec::with_capacity(n);
    for &m in machine_order {
        for gpu in state.free_gpus(m) {
            if globals.len() == n {
                break;
            }
            globals.push(GlobalGpuId { machine: m, gpu });
        }
    }
    if globals.len() < n {
        return None;
    }
    let utility = spill_utility(state, job, &globals, weights);
    Some(Decision {
        gpus: globals,
        utility,
    })
}

/// Normalized utility of a concrete spilled placement.
pub fn spill_utility(
    state: &ClusterState,
    job: &JobSpec,
    globals: &[GlobalGpuId],
    weights: UtilityWeights,
) -> f64 {
    let n = globals.len();
    let u_cc = if job.communicates() {
        let actual = state.cluster().pairwise_cost(globals);
        let best = best_possible_cluster_cost(state, n);
        UtilityComponents::u_cc_from_costs(best, actual)
    } else {
        1.0
    };
    let u_interference = {
        let mut oracle = ClusterOracle::new(state, job);
        // Score the chosen GPUs through the oracle's index space.
        oracle.gpus = globals.to_vec();
        use gts_map::PlacementOracle as _;
        let idx: Vec<GpuId> = (0..n as u32).map(GpuId).collect();
        oracle.interference(&idx)
    };
    let machines_spanned = {
        let mut ms: Vec<_> = globals.iter().map(|g| g.machine).collect();
        ms.sort_unstable();
        ms.dedup();
        ms.len()
    };
    let min_machines = min_machines_needed(state, n);
    let u_domains = if machines_spanned <= min_machines {
        1.0
    } else {
        (min_machines as f64 / machines_spanned as f64).clamp(0.0, 1.0)
    };
    gts_map::utility(
        UtilityComponents {
            u_cc,
            u_interference,
            u_domains,
        },
        weights,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::on_machine;
    use gts_job::{BatchClass, Constraints, NnModel};
    use gts_perf::ProfileLibrary;
    use gts_topo::{power8_minsky, ClusterTopology};
    use std::sync::Arc;

    fn state(n_machines: usize) -> ClusterState {
        let machine = power8_minsky();
        let profiles = Arc::new(ProfileLibrary::generate(&machine, 1));
        let cluster = Arc::new(ClusterTopology::homogeneous(machine, n_machines));
        ClusterState::new(cluster, profiles)
    }

    fn multi_node_job(id: u64, gpus: u32) -> JobSpec {
        let mut j = JobSpec::new(id, NnModel::AlexNet, BatchClass::Tiny, gpus);
        j.constraints = Constraints {
            single_node: false,
            anti_collocate: false,
        };
        j
    }

    #[test]
    fn six_gpu_job_spills_as_four_plus_two() {
        let s = state(2);
        let d = decide_spill(&s, &multi_node_job(0, 6), UtilityWeights::default()).unwrap();
        assert_eq!(d.gpus.len(), 6);
        let m0 = d.gpus.iter().filter(|g| g.machine == MachineId(0)).count();
        let m1 = d.gpus.iter().filter(|g| g.machine == MachineId(1)).count();
        // Whole machine + a packed pair beats any interleaving.
        assert_eq!(m0.max(m1), 4, "got {m0}/{m1}");
        assert_eq!(m0.min(m1), 2);
        // The 2-GPU shard must itself be packed.
        let small_machine = if m0 == 2 { MachineId(0) } else { MachineId(1) };
        let local: Vec<GpuId> = d
            .gpus
            .iter()
            .filter(|g| g.machine == small_machine)
            .map(|g| g.gpu)
            .collect();
        assert!(
            s.cluster().machine(small_machine).is_packed(&local),
            "{local:?}"
        );
    }

    #[test]
    fn spill_utility_reflects_the_network_hit_fairly() {
        // The spill gets the *best possible* multi-machine shape, so u_cc is
        // high — the cost is inherent to the request, not the placement.
        let s = state(2);
        let d = decide_spill(&s, &multi_node_job(0, 6), UtilityWeights::default()).unwrap();
        assert!(d.utility > 0.8, "got {}", d.utility);
    }

    #[test]
    fn spill_fails_when_the_cluster_is_too_small() {
        let s = state(1);
        assert!(decide_spill(&s, &multi_node_job(0, 6), UtilityWeights::default()).is_none());
    }

    #[test]
    fn spill_avoids_busy_machines_when_it_can() {
        let mut s = state(3);
        // Machine 0 fully busy.
        s.place(
            JobSpec::new(9, NnModel::AlexNet, BatchClass::Tiny, 4),
            on_machine(MachineId(0), &[GpuId(0), GpuId(1), GpuId(2), GpuId(3)]),
            1.0,
        );
        let d = decide_spill(&s, &multi_node_job(0, 6), UtilityWeights::default()).unwrap();
        assert!(d.gpus.iter().all(|g| g.machine != MachineId(0)));
    }

    #[test]
    fn spill_prefers_rack_local_machines() {
        // 2 racks × 2 machines; rack 0's machine 0 is busy, so a 6-GPU
        // spill should pair machine 1 (rack 0) with... no wait: machines 1
        // (rack 0) and 2, 3 (rack 1) are free. The mapper should take two
        // machines of the SAME rack (2+3) over a cross-rack mix.
        let machine = power8_minsky();
        let profiles = Arc::new(ProfileLibrary::generate(&machine, 1));
        let cluster = Arc::new(ClusterTopology::homogeneous_racked(machine, 2, 2));
        let mut s = ClusterState::new(cluster, profiles);
        s.place(
            JobSpec::new(9, NnModel::AlexNet, BatchClass::Big, 4),
            on_machine(MachineId(0), &[GpuId(0), GpuId(1), GpuId(2), GpuId(3)]),
            1.0,
        );
        let d = decide_spill(&s, &multi_node_job(0, 6), UtilityWeights::default()).unwrap();
        let mut racks: Vec<u32> = d
            .gpus
            .iter()
            .map(|g| s.cluster().rack_of(g.machine))
            .collect();
        racks.sort_unstable();
        racks.dedup();
        assert_eq!(
            racks,
            vec![1],
            "should stay inside rack 1, got {:?}",
            d.gpus
        );
    }

    #[test]
    fn best_cluster_cost_matches_manual_arithmetic() {
        let s = state(2);
        // 6 GPUs = full Minsky (cost 90) + NVLink pair (1) + 8 cross pairs
        // at 282 each.
        let expected = 90.0 + 1.0 + 8.0 * 282.0;
        assert!((best_possible_cluster_cost(&s, 6) - expected).abs() < 1e-9);
        // Single-machine requests collapse to the machine optimum.
        assert_eq!(best_possible_cluster_cost(&s, 2), 1.0);
    }
}
