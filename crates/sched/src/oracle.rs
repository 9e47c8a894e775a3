//! The live-state [`PlacementOracle`] and the final placement utility.
//!
//! Bridges the pure mapping engine to the cluster: distances come from the
//! machine topology, interference predictions from the §4.2 profiles of the
//! jobs currently running on the candidate machine (Eq. 4), and
//! fragmentation from socket occupancy (Eq. 5). Both read GPU masks, so
//! neither allocates (DESIGN.md §13.7).

use crate::state::{gpu_bit, ClusterState, Corunner};
use gts_job::{JobProfile, JobSpec};
use gts_map::{PlacementOracle, UtilityComponents, UtilityWeights};
use gts_perf::domain_factor_of_masks;
use gts_topo::{GpuId, MachineId, MachineTopology};

/// Oracle for one candidate machine, carrying the job being placed.
///
/// Co-runners come from the machine's *interned* signature
/// ([`ClusterState::corunners`]) — `drb_map` probes `interference` many
/// times per candidate, and re-walking the running-job table (let alone
/// cloning profiles and GPU lists) per candidate dominated the old
/// per-arrival cost; now construction borrows the signature. The signature
/// is held in *canonical* order (sorted by `(model, batch, local GPU
/// mask)` rather than job id) so that machines in the same
/// evaluation-engine equivalence class sum the Eq. 4 terms in exactly the
/// same order and produce bit-identical utilities regardless of which job
/// ids happen to run there. The same signature backs the cross-event
/// placement cache's keys (DESIGN.md §9).
pub struct StateOracle<'a> {
    topo: &'a MachineTopology,
    candidate: &'a JobProfile,
    /// The job requests more than one GPU (Eq. 3 applies).
    communicates: bool,
    corunners: &'a [Corunner],
    /// GPUs no allocation holds, the Eq. 5 reading's input.
    unallocated: u128,
}

impl<'a> StateOracle<'a> {
    /// Builds the oracle for placing `job` on `machine`.
    pub fn new(state: &'a ClusterState, machine: MachineId, job: &JobSpec) -> Self {
        Self {
            topo: state.cluster().machine(machine),
            candidate: state.profiles().get(job.model, job.batch),
            communicates: job.communicates(),
            corunners: state.corunners(machine),
            unallocated: state.unallocated_mask(machine),
        }
    }

    /// The Eq. 2 component breakdown of placing the job on `gpus`
    /// (DESIGN.md §2).
    pub fn components(&self, gpus: &[GpuId]) -> UtilityComponents {
        let u_cc = if self.communicates {
            let actual = self.topo.pairwise_cost(gpus);
            let best = self.topo.best_pairwise_cost(gpus.len());
            UtilityComponents::u_cc_from_costs(best, actual)
        } else {
            1.0
        };
        UtilityComponents {
            u_cc,
            u_interference: self.interference(gpus),
            u_domains: UtilityComponents::u_domains_from_span(
                self.topo.sockets_spanned(gpus),
                self.topo.n_sockets(),
            ),
        }
    }

    /// Final normalized utility of placing the job on `gpus` (DESIGN.md
    /// §2).
    pub fn utility(&self, gpus: &[GpuId], weights: UtilityWeights) -> f64 {
        gts_map::utility(self.components(gpus), weights)
    }
}

/// The mask of a machine-local GPU set.
fn mask_of(gpus: &[GpuId]) -> u128 {
    gpus.iter().fold(0, |mask, &g| mask | gpu_bit(g))
}

impl PlacementOracle for StateOracle<'_> {
    fn distance(&self, a: GpuId, b: GpuId) -> f64 {
        self.topo.distance(a, b)
    }

    /// Eq. 4 over the candidate placement: mean of `solo/collocated`
    /// ratios of this job and every running job on the machine, each
    /// co-runner's domain factor read off the two GPU masks.
    fn interference(&self, gpus: &[GpuId]) -> f64 {
        if gpus.is_empty() {
            return 1.0;
        }
        let mask = mask_of(gpus);
        self.candidate.eq4_interference_iter(
            self.corunners
                .iter()
                .map(|c| (&c.profile, domain_factor_of_masks(self.topo, mask, c.mask))),
        )
    }

    /// Eq. 5 after granting `gpus` (distinct GPUs): each socket's free
    /// GPUs less the granted ones on it, in socket order.
    fn fragmentation_after(&self, gpus: &[GpuId]) -> f64 {
        let taken = mask_of(gpus);
        debug_assert_eq!(
            taken.count_ones() as usize,
            gpus.len(),
            "a placement names each GPU once: {gpus:?}"
        );
        gts_map::eq5_fragmentation_iter(self.topo.socket_masks().iter().map(|&socket| {
            let free = (self.unallocated & socket).count_ones();
            let granted = (taken & socket).count_ones();
            (free.saturating_sub(granted), socket.count_ones())
        }))
    }
}

/// The Eq. 2 component breakdown of a concrete placement (DESIGN.md §2) —
/// what the decision trace records per candidate machine.
pub fn placement_components(
    state: &ClusterState,
    machine: MachineId,
    job: &JobSpec,
    gpus: &[GpuId],
) -> UtilityComponents {
    StateOracle::new(state, machine, job).components(gpus)
}

/// Final normalized utility of a concrete placement (DESIGN.md §2),
/// compared by `TOPO-AWARE-P` against the job's `min_utility`.
pub fn placement_utility(
    state: &ClusterState,
    machine: MachineId,
    job: &JobSpec,
    gpus: &[GpuId],
    weights: UtilityWeights,
) -> f64 {
    StateOracle::new(state, machine, job).utility(gpus, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::on_machine;
    use gts_job::{BatchClass, NnModel};
    use gts_perf::ProfileLibrary;
    use gts_topo::{power8_minsky, ClusterTopology};
    use std::sync::Arc;

    fn state() -> ClusterState {
        let machine = power8_minsky();
        let profiles = Arc::new(ProfileLibrary::generate(&machine, 1));
        let cluster = Arc::new(ClusterTopology::homogeneous(machine, 1));
        ClusterState::new(cluster, profiles)
    }

    fn tiny_2gpu(id: u64) -> JobSpec {
        JobSpec::new(id, NnModel::AlexNet, BatchClass::Tiny, 2).with_min_utility(0.5)
    }

    #[test]
    fn packed_placement_on_idle_machine_scores_one() {
        let s = state();
        let job = tiny_2gpu(0);
        let u = placement_utility(
            &s,
            MachineId(0),
            &job,
            &[GpuId(0), GpuId(1)],
            UtilityWeights::default(),
        );
        assert!((u - 1.0).abs() < 1e-9, "got {u}");
    }

    #[test]
    fn fig8_cross_socket_placement_falls_below_threshold() {
        let mut s = state();
        // Two single-GPU tiny jobs already running, one per socket — the
        // Fig. 8 moment when Job 3 faces one free GPU per socket.
        s.place(
            JobSpec::new(10, NnModel::AlexNet, BatchClass::Tiny, 1),
            on_machine(MachineId(0), &[GpuId(0)]),
            1.0,
        );
        s.place(
            JobSpec::new(11, NnModel::AlexNet, BatchClass::Tiny, 1),
            on_machine(MachineId(0), &[GpuId(2)]),
            1.0,
        );
        let job = tiny_2gpu(3);
        let u = placement_utility(
            &s,
            MachineId(0),
            &job,
            &[GpuId(1), GpuId(3)],
            UtilityWeights::default(),
        );
        assert!(u < 0.5, "cross-socket placement must violate 0.5, got {u}");
    }

    #[test]
    fn single_gpu_jobs_always_have_perfect_comm_utility() {
        let s = state();
        let job = JobSpec::new(0, NnModel::AlexNet, BatchClass::Tiny, 1);
        let u = placement_utility(
            &s,
            MachineId(0),
            &job,
            &[GpuId(3)],
            UtilityWeights::default(),
        );
        assert!((u - 1.0).abs() < 1e-9);
    }

    #[test]
    fn interference_lowers_utility() {
        let mut s = state();
        let solo = placement_utility(
            &s,
            MachineId(0),
            &tiny_2gpu(0),
            &[GpuId(0), GpuId(1)],
            UtilityWeights::default(),
        );
        s.place(
            JobSpec::new(9, NnModel::AlexNet, BatchClass::Tiny, 1),
            on_machine(MachineId(0), &[GpuId(2)]),
            1.0,
        );
        let contended = placement_utility(
            &s,
            MachineId(0),
            &tiny_2gpu(0),
            &[GpuId(0), GpuId(1)],
            UtilityWeights::default(),
        );
        assert!(contended < solo);
    }

    #[test]
    fn oracle_fragmentation_counts_hypothetical_allocation() {
        let s = state();
        let job = tiny_2gpu(0);
        let oracle = StateOracle::new(&s, MachineId(0), &job);
        // Empty machine: fragmentation 1.0 before, 0.5 after taking socket 0.
        assert!((oracle.fragmentation_after(&[]) - 1.0).abs() < 1e-12);
        assert!((oracle.fragmentation_after(&[GpuId(0), GpuId(1)]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn googlenet_neighbor_barely_lowers_utility() {
        let mut s = state();
        s.place(
            JobSpec::new(9, NnModel::GoogLeNet, BatchClass::Big, 1),
            on_machine(MachineId(0), &[GpuId(2)]),
            1.0,
        );
        let u = placement_utility(
            &s,
            MachineId(0),
            &tiny_2gpu(0),
            &[GpuId(0), GpuId(1)],
            UtilityWeights::default(),
        );
        assert!(
            u > 0.95,
            "GoogLeNet big-batch causes almost no pressure: {u}"
        );
    }
}
