//! Running-job state and the Fig. 6 slowdown model.
//!
//! A placed job carries a stock of *work* — its solo duration under the
//! placement it received — and burns it down at rate `1/(1+slowdown)`,
//! where the slowdown is the Fig. 6 aggregate over its current co-runners.
//! Its progress is kept as an *anchor*: the anchor time, the work left at
//! that time and the slowdown since. Its completion time follows once per
//! anchor ([`RunningJob::completion_s`]), and the engine re-anchors a job
//! ([`RunningJob::set_slowdown`]) only when a refresh changes its
//! slowdown's bits. Nothing integrates progress between events.
//!
//! The slowdown model is shared with the prototype: [`solo_iter_time`]
//! costs an allocation's solo iteration, [`max_domain_factor`] couples two
//! allocations, and [`current_slowdown`] sums a victim's co-runners. Jobs
//! couple only through machines they share (`max_domain_factor` is 0
//! otherwise), and the sum runs in job-id order whatever order the
//! co-runners come in. The engine's incremental loop leans on both
//! properties: an event that touches no machine of a job cannot change
//! that job's slowdown bits.

use gts_perf::{total_slowdown, IterTime, PlacementPerf};
use gts_sched::Allocation;
use gts_topo::ClusterTopology;

/// One placed, in-flight job.
#[derive(Debug, Clone)]
pub struct RunningJob {
    /// The allocation the scheduler granted.
    pub alloc: Allocation,
    /// Wall-clock time the job started executing.
    pub started_at: f64,
    /// Solo per-iteration profile under this placement.
    pub iter: IterTime,
    /// Time of the last anchor: the placement, or the last refresh that
    /// changed the slowdown.
    anchor_s: f64,
    /// Work left at `anchor_s`, in solo-execution seconds.
    remaining_solo_s: f64,
    /// Interference slowdown since `anchor_s` (0 = solo speed).
    slowdown: f64,
    /// `anchor_s + remaining_solo_s × (1 + slowdown)`.
    completion_s: f64,
    /// Slowdown derivations the engine made for this placement, folded
    /// into [`crate::SimLoopStats::evals_by_job`] when the job leaves.
    pub(crate) slowdown_evals: u64,
}

impl RunningJob {
    /// Creates the running state for a fresh placement at `now`, anchored
    /// at solo speed. `work_factor` scales the job's solo work (1 = the
    /// exact model; the engine's jitter draws other values).
    pub fn start(alloc: Allocation, cluster: &ClusterTopology, now: f64, work_factor: f64) -> Self {
        let iter = solo_iter_time(&alloc, cluster);
        let remaining = f64::from(alloc.spec.iterations) * iter.total_s() * work_factor;
        Self {
            alloc,
            started_at: now,
            iter,
            anchor_s: now,
            remaining_solo_s: remaining,
            slowdown: 0.0,
            completion_s: now + remaining,
            slowdown_evals: 0,
        }
    }

    /// Interference slowdown since the last anchor (0 = solo speed).
    pub fn slowdown(&self) -> f64 {
        self.slowdown
    }

    /// When the job finishes if its slowdown holds, solved once per anchor.
    pub fn completion_s(&self) -> f64 {
        self.completion_s
    }

    /// Re-anchors the job at `now` under `slowdown` and re-solves its
    /// completion time. Returns `false`, and changes nothing, when the
    /// slowdown's bits are unchanged.
    pub fn set_slowdown(&mut self, now: f64, slowdown: f64) -> bool {
        if slowdown.to_bits() == self.slowdown.to_bits() {
            return false;
        }
        let done = (now - self.anchor_s) / (1.0 + self.slowdown);
        self.remaining_solo_s = (self.remaining_solo_s - done).max(0.0);
        self.anchor_s = now;
        self.slowdown = slowdown;
        self.completion_s = now + self.remaining_solo_s * (1.0 + slowdown);
        true
    }
}

/// Solo per-iteration time of an allocation. Jobs with an explicit
/// communication graph (model parallelism) on one machine are costed per
/// edge over their actual routes; every other job uses the ring model.
pub fn solo_iter_time(alloc: &Allocation, cluster: &ClusterTopology) -> IterTime {
    let batch = alloc.spec.batch.representative_batch();
    match (&alloc.spec.comm_graph, alloc.is_single_node()) {
        (Some(graph), true) => {
            let machine = alloc.gpus[0].machine;
            let local: Vec<_> = alloc.gpus.iter().map(|g| g.gpu).collect();
            gts_perf::placement::graph_iter_time(
                cluster.machine(machine),
                alloc.spec.model,
                batch,
                graph,
                &local,
            )
        }
        _ => {
            PlacementPerf::evaluate_cluster(cluster, &alloc.gpus).iter_time(alloc.spec.model, batch)
        }
    }
}

/// Re-derives the slowdown of `victim` given other running allocations.
///
/// Two jobs interfere through each machine they share; the strongest shared
/// bus domain wins (a pair sharing both a socket and the machine bus is
/// dominated by the socket coupling).
///
/// `others` may be the full running set or any superset of the victim's
/// machine-sharers, in any order and with repeats: the victim itself and
/// non-sharers are filtered out, and the per-pair slowdowns are summed in
/// job-id order (the f64 sum is order-sensitive), so every such call
/// returns the same bits.
pub fn current_slowdown<'a>(
    victim: &Allocation,
    others: impl IntoIterator<Item = &'a Allocation>,
    cluster: &ClusterTopology,
) -> f64 {
    let mut sharers: Vec<_> = others
        .into_iter()
        .filter(|o| o.spec.id != victim.spec.id)
        .filter_map(|o| {
            let factor = max_domain_factor(victim, o, cluster);
            (factor > 0.0).then_some((o.spec.id, (o.spec.model, o.spec.batch, factor)))
        })
        .collect();
    sharers.sort_unstable_by_key(|&(id, _)| id);
    sharers.dedup_by_key(|&mut (id, _)| id);
    let corunners: Vec<_> = sharers.into_iter().map(|(_, corunner)| corunner).collect();
    total_slowdown((victim.spec.model, victim.spec.batch), &corunners)
}

/// Strongest bus-domain coupling between two allocations across all
/// machines they share (0 when they share none).
pub fn max_domain_factor(a: &Allocation, b: &Allocation, cluster: &ClusterTopology) -> f64 {
    let mut factor: f64 = 0.0;
    for machine in a.machines() {
        let ga = a.gpus_on(machine);
        let gb = b.gpus_on(machine);
        if ga.is_empty() || gb.is_empty() {
            continue;
        }
        factor = factor.max(gts_perf::domain_factor(cluster.machine(machine), &ga, &gb));
    }
    factor
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_job::{BatchClass, JobSpec, NnModel};
    use gts_topo::{power8_minsky, GlobalGpuId, GpuId, MachineId};
    use std::sync::Arc;

    fn cluster() -> Arc<ClusterTopology> {
        Arc::new(ClusterTopology::homogeneous(power8_minsky(), 2))
    }

    fn alloc(id: u64, machine: u32, gpus: &[u32], batch: BatchClass) -> Allocation {
        Allocation {
            spec: JobSpec::new(id, NnModel::AlexNet, batch, gpus.len() as u32).with_iterations(100),
            gpus: gpus
                .iter()
                .map(|&g| GlobalGpuId {
                    machine: MachineId(machine),
                    gpu: GpuId(g),
                })
                .collect(),
            utility: 1.0,
        }
    }

    #[test]
    fn solo_job_runs_at_full_rate() {
        let c = cluster();
        let r = RunningJob::start(alloc(0, 0, &[0, 1], BatchClass::Tiny), &c, 5.0, 1.0);
        assert_eq!(r.slowdown, 0.0);
        assert_eq!(r.anchor_s, 5.0);
        let expected = 100.0 * r.iter.total_s();
        assert!((r.completion_s - 5.0 - expected).abs() < 1e-9);
    }

    /// Re-anchoring keeps the work done so far and stretches only the rest;
    /// a refresh that leaves the slowdown's bits alone changes nothing.
    #[test]
    fn reanchoring_keeps_the_work_done() {
        let c = cluster();
        let mut r = RunningJob::start(alloc(0, 0, &[0], BatchClass::Tiny), &c, 0.0, 1.0);
        let total = r.remaining_solo_s;
        assert!(r.set_slowdown(total / 2.0, 0.5));
        assert!((r.remaining_solo_s - total / 2.0).abs() < 1e-9);
        assert!((r.completion_s - total * 1.25).abs() < 1e-9);
        let before = (r.anchor_s.to_bits(), r.completion_s.to_bits());
        assert!(!r.set_slowdown(total, 0.5), "equal bits must not re-anchor");
        assert_eq!((r.anchor_s.to_bits(), r.completion_s.to_bits()), before);
        // total/2 wall seconds at 1/1.5 burn total/3; the last total/6 runs solo.
        assert!(r.set_slowdown(total, 0.0));
        assert!((r.remaining_solo_s - total / 6.0).abs() < 1e-9);
        assert!((r.completion_s - total * 7.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn slowdown_stretches_eta() {
        let c = cluster();
        let mut r = RunningJob::start(alloc(0, 0, &[0, 1], BatchClass::Tiny), &c, 0.0, 1.0);
        let solo = r.completion_s;
        assert!(r.set_slowdown(0.0, 0.30));
        assert!((r.completion_s - solo * 1.3).abs() < 1e-9);
    }

    #[test]
    fn fig6_two_tiny_jobs_same_machine_slow_each_other_30_percent() {
        let c = cluster();
        let a = alloc(0, 0, &[0, 1], BatchClass::Tiny);
        let b = alloc(1, 0, &[2, 3], BatchClass::Tiny);
        // Packed on different sockets: the machine-level factor 0.35 scales
        // the 30 % same-socket anchor.
        let s = current_slowdown(&a, [&b], &c);
        assert!((s - 0.30 * 0.35).abs() < 1e-9, "got {s}");
    }

    #[test]
    fn same_socket_neighbors_interfere_fully() {
        let c = cluster();
        let a = alloc(0, 0, &[0], BatchClass::Tiny);
        let b = alloc(1, 0, &[1], BatchClass::Tiny);
        let s = current_slowdown(&a, [&b], &c);
        assert!((s - 0.30).abs() < 1e-9, "got {s}");
    }

    #[test]
    fn different_machines_do_not_interfere() {
        let c = cluster();
        let a = alloc(0, 0, &[0, 1], BatchClass::Tiny);
        let b = alloc(1, 1, &[0, 1], BatchClass::Tiny);
        assert_eq!(current_slowdown(&a, [&b], &c), 0.0);
    }

    #[test]
    fn victim_is_excluded_from_its_own_corunners() {
        let c = cluster();
        let a = alloc(0, 0, &[0, 1], BatchClass::Tiny);
        assert_eq!(current_slowdown(&a, [&a], &c), 0.0);
    }

    /// The co-runner sum runs in job-id order: any order of the input, with
    /// repeats and bystanders, gives the same bits.
    #[test]
    fn corunner_order_and_repeats_do_not_change_the_bits() {
        let c = cluster();
        let victim = alloc(0, 0, &[0], BatchClass::Tiny);
        let near = alloc(3, 0, &[1], BatchClass::Big);
        let far = alloc(1, 0, &[2, 3], BatchClass::Small);
        let bystander = alloc(2, 1, &[0], BatchClass::Tiny);
        let want = current_slowdown(&victim, [&far, &near], &c);
        for others in [
            vec![&near, &far],
            vec![&bystander, &near, &victim, &far, &near],
        ] {
            assert_eq!(
                current_slowdown(&victim, others, &c).to_bits(),
                want.to_bits()
            );
        }
    }

    #[test]
    fn big_batch_neighbor_barely_hurts_big_batch_victim() {
        let c = cluster();
        let a = alloc(0, 0, &[0], BatchClass::Big);
        let b = alloc(1, 0, &[1], BatchClass::Big);
        assert!(current_slowdown(&a, [&b], &c) < 0.02);
    }
}
