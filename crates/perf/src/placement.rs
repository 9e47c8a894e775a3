//! Mapping from a concrete GPU allocation to its performance characteristics.
//!
//! Given a machine topology and the GPU set a job received, this module
//! derives the route class and bottleneck bandwidth of the *worst* GPU pair
//! (a ring is as fast as its slowest hop) and from that the per-iteration
//! time of the job under that placement.

use crate::comm::comm_time_s;
use crate::compute::compute_time_s;
use gts_job::{JobSpec, NnModel};
use gts_topo::{ClusterTopology, GlobalGpuId, GpuId, LinkKind, MachineTopology};

/// How a (worst-pair) route between allocated GPUs physically flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteClass {
    /// Direct NVLink or a switch-only route: peer DMA, no host bounce.
    P2p,
    /// Bounced through socket memory (and possibly the inter-socket bus).
    HostRouted,
}

/// Performance-relevant summary of one allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementPerf {
    /// Worst-pair route class (an allocation is P2P only if *every* pair is).
    pub route: RouteClass,
    /// Bottleneck bandwidth of the worst pair, GB/s.
    pub bottleneck_gbs: f64,
    /// Largest qualitative distance among allocated pairs.
    pub max_distance: f64,
    /// Number of GPUs in the allocation.
    pub n_gpus: u32,
}

/// Classifies the route of a single GPU pair: its class and bottleneck
/// bandwidth (GB/s), read from the machine kind's route table
/// ([`MachineTopology::route`]).
pub fn classify_route(machine: &MachineTopology, a: GpuId, b: GpuId) -> (RouteClass, f64) {
    let route = machine.route(a, b);
    let class = if route.p2p {
        RouteClass::P2p
    } else {
        RouteClass::HostRouted
    };
    (class, route.bandwidth_gbs)
}

impl PlacementPerf {
    /// Evaluates an allocation on a machine. Single-GPU allocations report
    /// a P2P route with infinite bandwidth (no communication happens).
    ///
    /// # Panics
    ///
    /// Panics if `gpus` is empty.
    pub fn evaluate(machine: &MachineTopology, gpus: &[GpuId]) -> Self {
        assert!(!gpus.is_empty(), "an allocation holds at least one GPU");
        let mut route = RouteClass::P2p;
        let mut bottleneck = f64::INFINITY;
        let mut max_distance: f64 = 0.0;
        // Worst pair over the ring: the slowest, least-capable link bounds
        // the collective.
        let mut worst_eff = f64::INFINITY;
        for (i, &a) in gpus.iter().enumerate() {
            for &b in &gpus[i + 1..] {
                let (r, bw) = classify_route(machine, a, b);
                let eff = crate::comm::effective_bandwidth_gbs(r, bw);
                if eff < worst_eff {
                    worst_eff = eff;
                    route = r;
                    bottleneck = bw;
                }
                max_distance = max_distance.max(machine.distance(a, b));
            }
        }
        Self {
            route,
            bottleneck_gbs: bottleneck,
            max_distance,
            n_gpus: gpus.len() as u32,
        }
    }

    /// Evaluates a cluster-wide allocation (anti-collocated jobs span
    /// machines; their worst pair rides the network and is always
    /// host-routed).
    ///
    /// # Panics
    ///
    /// Panics if `gpus` is empty.
    pub fn evaluate_cluster(cluster: &ClusterTopology, gpus: &[GlobalGpuId]) -> Self {
        assert!(!gpus.is_empty(), "an allocation holds at least one GPU");
        let machines: Vec<_> = {
            let mut ms: Vec<_> = gpus.iter().map(|g| g.machine).collect();
            ms.sort_unstable();
            ms.dedup();
            ms
        };
        if machines.len() == 1 {
            let local: Vec<GpuId> = gpus.iter().map(|g| g.gpu).collect();
            return Self::evaluate(cluster.machine(machines[0]), &local);
        }
        let mut max_distance: f64 = 0.0;
        for (i, &a) in gpus.iter().enumerate() {
            for &b in &gpus[i + 1..] {
                max_distance = max_distance.max(cluster.distance(a, b));
            }
        }
        // Rack-local spills ride the top-of-rack switch at full line rate;
        // crossing the aggregation layer halves the effective bandwidth
        // (classic 2:1 oversubscription).
        let crosses_racks = gpus
            .iter()
            .any(|g| cluster.rack_of(g.machine) != cluster.rack_of(gpus[0].machine));
        let bottleneck = if crosses_racks {
            LinkKind::Network.peak_bandwidth_gbs() / 2.0
        } else {
            LinkKind::Network.peak_bandwidth_gbs()
        };
        Self {
            route: RouteClass::HostRouted,
            bottleneck_gbs: bottleneck,
            max_distance,
            n_gpus: gpus.len() as u32,
        }
    }

    /// Per-iteration time for `model` at per-GPU batch `batch` under this
    /// placement, solo (no interference).
    pub fn iter_time(&self, model: NnModel, batch: u32) -> IterTime {
        let compute_s = compute_time_s(model, batch);
        let comm_s = if self.n_gpus > 1 {
            comm_time_s(model, self.n_gpus, self.route, self.bottleneck_gbs)
        } else {
            0.0
        };
        IterTime { compute_s, comm_s }
    }
}

/// One training iteration split into its two phases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterTime {
    /// GPU compute phase, seconds.
    pub compute_s: f64,
    /// Gradient exchange phase, seconds.
    pub comm_s: f64,
}

impl IterTime {
    /// Total iteration time, seconds.
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.comm_s
    }

    /// Fraction of the iteration spent communicating (the Fig. 5 duty
    /// cycle). Zero for non-communicating jobs.
    pub fn comm_duty(&self) -> f64 {
        let total = self.total_s();
        if total == 0.0 {
            0.0
        } else {
            self.comm_s / total
        }
    }
}

/// Per-iteration time for an *explicit* communication graph (model
/// parallelism) mapped onto concrete GPUs.
///
/// Each edge `(i, j)` carries `w_ij / 4` gradient-equivalents of traffic
/// per iteration (weight 4 ≡ the tiny-batch volume, §5.1's normalization)
/// over the physical route between `mapping[i]` and `mapping[j]`. Links are
/// full-duplex and distinct P2P bricks transfer in parallel, but every
/// host-routed edge of the job shares the one inter-socket bus, so its
/// effective bandwidth divides by the number of such edges. The
/// bulk-synchronous step ends when the slowest edge drains. (Contention
/// *between* jobs stays the province of the Fig. 6 interference model.)
/// Data-parallel jobs (no explicit graph) should use
/// [`PlacementPerf::iter_time`]'s ring model instead.
pub fn graph_iter_time(
    machine: &MachineTopology,
    model: NnModel,
    batch: u32,
    graph: &gts_job::JobGraph,
    mapping: &[GpuId],
) -> IterTime {
    assert_eq!(
        graph.n_tasks(),
        mapping.len(),
        "every task needs exactly one GPU"
    );
    let grad_gb = model.gradient_bytes() as f64 / 1e9;
    let edges: Vec<(RouteClass, f64, f64)> = graph
        .edges()
        .map(|(i, j, w)| {
            let (route, bw) = classify_route(machine, mapping[i], mapping[j]);
            (route, bw, (w / 4.0) * grad_gb)
        })
        .collect();
    let host_routed = edges
        .iter()
        .filter(|(r, _, _)| *r == RouteClass::HostRouted)
        .count()
        .max(1) as f64;
    let comm_s = edges
        .iter()
        .map(|&(route, bw, volume)| {
            let mut eff = crate::comm::effective_bandwidth_gbs(route, bw);
            if route == RouteClass::HostRouted {
                eff /= host_routed;
            }
            volume / eff
        })
        .fold(0.0, f64::max);
    IterTime {
        compute_s: compute_time_s(model, batch),
        comm_s,
    }
}

/// Solo duration of a whole job under a placement, seconds. Uses the
/// explicit communication graph when the job declares one.
pub fn job_duration_s(spec: &JobSpec, machine: &MachineTopology, gpus: &[GpuId]) -> f64 {
    let iter = match &spec.comm_graph {
        Some(graph) => graph_iter_time(
            machine,
            spec.model,
            spec.batch.representative_batch(),
            graph,
            gpus,
        ),
        None => PlacementPerf::evaluate(machine, gpus)
            .iter_time(spec.model, spec.batch.representative_batch()),
    };
    f64::from(spec.iterations) * iter.total_s()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_job::BatchClass;
    use gts_topo::power8_minsky;

    #[test]
    fn packed_pair_is_p2p_over_nvlink() {
        let m = power8_minsky();
        let p = PlacementPerf::evaluate(&m, &[GpuId(0), GpuId(1)]);
        assert_eq!(p.route, RouteClass::P2p);
        assert_eq!(p.bottleneck_gbs, 40.0);
        assert_eq!(p.max_distance, 1.0);
    }

    #[test]
    fn spread_pair_is_host_routed() {
        let m = power8_minsky();
        let p = PlacementPerf::evaluate(&m, &[GpuId(0), GpuId(2)]);
        assert_eq!(p.route, RouteClass::HostRouted);
        assert_eq!(p.max_distance, 22.0);
    }

    #[test]
    fn mixed_allocation_takes_worst_pair() {
        let m = power8_minsky();
        // Three GPUs spanning both sockets: worst pair crosses the bus.
        let p = PlacementPerf::evaluate(&m, &[GpuId(0), GpuId(1), GpuId(2)]);
        assert_eq!(p.route, RouteClass::HostRouted);
        assert_eq!(p.max_distance, 22.0);
    }

    #[test]
    fn fig4_alexnet_batch1_speedup_is_1_3() {
        let m = power8_minsky();
        let pack = PlacementPerf::evaluate(&m, &[GpuId(0), GpuId(1)])
            .iter_time(NnModel::AlexNet, 1)
            .total_s();
        let spread = PlacementPerf::evaluate(&m, &[GpuId(0), GpuId(2)])
            .iter_time(NnModel::AlexNet, 1)
            .total_s();
        let speedup = spread / pack;
        assert!((1.25..1.35).contains(&speedup), "got {speedup}");
    }

    #[test]
    fn fig4_speedup_vanishes_for_big_batches() {
        let m = power8_minsky();
        let pack = PlacementPerf::evaluate(&m, &[GpuId(0), GpuId(1)])
            .iter_time(NnModel::AlexNet, 128)
            .total_s();
        let spread = PlacementPerf::evaluate(&m, &[GpuId(0), GpuId(2)])
            .iter_time(NnModel::AlexNet, 128)
            .total_s();
        let speedup = spread / pack;
        assert!((0.99..1.05).contains(&speedup), "got {speedup}");
    }

    #[test]
    fn fig4_googlenet_is_nearly_flat() {
        let m = power8_minsky();
        let pack = PlacementPerf::evaluate(&m, &[GpuId(0), GpuId(1)])
            .iter_time(NnModel::GoogLeNet, 1)
            .total_s();
        let spread = PlacementPerf::evaluate(&m, &[GpuId(0), GpuId(2)])
            .iter_time(NnModel::GoogLeNet, 1)
            .total_s();
        let speedup = spread / pack;
        assert!((1.0..1.08).contains(&speedup), "got {speedup}");
    }

    #[test]
    fn single_gpu_iter_has_no_comm() {
        let m = power8_minsky();
        let p = PlacementPerf::evaluate(&m, &[GpuId(3)]);
        let it = p.iter_time(NnModel::AlexNet, 1);
        assert_eq!(it.comm_s, 0.0);
        assert_eq!(it.comm_duty(), 0.0);
        assert!(it.compute_s > 0.0);
    }

    #[test]
    fn job_duration_scales_with_iterations() {
        let m = power8_minsky();
        let spec = JobSpec::new(0, NnModel::AlexNet, BatchClass::Tiny, 2).with_iterations(100);
        let d100 = job_duration_s(&spec, &m, &[GpuId(0), GpuId(1)]);
        let spec2 = spec.clone().with_iterations(200);
        let d200 = job_duration_s(&spec2, &m, &[GpuId(0), GpuId(1)]);
        assert!((d200 / d100 - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn empty_allocation_panics() {
        PlacementPerf::evaluate(&power8_minsky(), &[]);
    }

    #[test]
    fn pipeline_graph_only_pays_for_its_cut_edge() {
        use gts_job::JobGraph;
        let m = power8_minsky();
        let graph = JobGraph::pipeline(4, 4.0);
        // Chain mapped in socket order: only edge (1,2) crosses the bus.
        let good = graph_iter_time(
            &m,
            NnModel::AlexNet,
            1,
            &graph,
            &[GpuId(0), GpuId(1), GpuId(2), GpuId(3)],
        );
        // Chain interleaved across sockets: every edge crosses.
        let bad = graph_iter_time(
            &m,
            NnModel::AlexNet,
            1,
            &graph,
            &[GpuId(0), GpuId(2), GpuId(1), GpuId(3)],
        );
        assert!(
            good.comm_s < bad.comm_s,
            "{} !< {}",
            good.comm_s,
            bad.comm_s
        );
        assert_eq!(good.compute_s, bad.compute_s);
    }

    #[test]
    fn uniform_two_task_graph_matches_the_ring_model() {
        use gts_job::JobGraph;
        let m = power8_minsky();
        let graph = JobGraph::uniform(2, 4.0);
        let via_graph = graph_iter_time(&m, NnModel::AlexNet, 1, &graph, &[GpuId(0), GpuId(1)]);
        let via_ring =
            PlacementPerf::evaluate(&m, &[GpuId(0), GpuId(1)]).iter_time(NnModel::AlexNet, 1);
        assert!((via_graph.comm_s - via_ring.comm_s).abs() < 1e-9);
    }

    #[test]
    fn zero_weight_graph_has_no_comm() {
        use gts_job::JobGraph;
        let m = power8_minsky();
        let graph = JobGraph::pipeline(3, 0.0);
        let it = graph_iter_time(
            &m,
            NnModel::AlexNet,
            1,
            &graph,
            &[GpuId(0), GpuId(1), GpuId(2)],
        );
        assert_eq!(it.comm_s, 0.0);
    }

    #[test]
    fn model_parallel_duration_uses_the_graph() {
        use gts_job::JobGraph;
        let m = power8_minsky();
        let pipeline = JobSpec::new(0, NnModel::AlexNet, BatchClass::Tiny, 4)
            .with_iterations(100)
            .with_comm_graph(JobGraph::pipeline(4, 4.0));
        let dataparallel =
            JobSpec::new(1, NnModel::AlexNet, BatchClass::Tiny, 4).with_iterations(100);
        let all: Vec<GpuId> = m.gpus().collect();
        // The pipeline only talks along the chain → cheaper than the
        // all-to-all data-parallel exchange on the same GPUs.
        assert!(job_duration_s(&pipeline, &m, &all) < job_duration_s(&dataparallel, &m, &all));
    }

    #[test]
    fn cluster_evaluation_single_machine_delegates() {
        use gts_topo::{ClusterTopology, GlobalGpuId, MachineId};
        let c = ClusterTopology::homogeneous(power8_minsky(), 2);
        let gpus = [
            GlobalGpuId {
                machine: MachineId(1),
                gpu: GpuId(0),
            },
            GlobalGpuId {
                machine: MachineId(1),
                gpu: GpuId(1),
            },
        ];
        let p = PlacementPerf::evaluate_cluster(&c, &gpus);
        assert_eq!(p.route, RouteClass::P2p);
        assert_eq!(p.bottleneck_gbs, 40.0);
    }

    #[test]
    fn cluster_evaluation_cross_machine_rides_the_network() {
        use gts_topo::{ClusterTopology, GlobalGpuId, MachineId};
        let c = ClusterTopology::homogeneous(power8_minsky(), 2);
        let gpus = [
            GlobalGpuId {
                machine: MachineId(0),
                gpu: GpuId(0),
            },
            GlobalGpuId {
                machine: MachineId(1),
                gpu: GpuId(0),
            },
        ];
        let p = PlacementPerf::evaluate_cluster(&c, &gpus);
        assert_eq!(p.route, RouteClass::HostRouted);
        assert_eq!(p.bottleneck_gbs, 1.25);
        // Network comm utterly dominates: a cross-machine AlexNet pair is
        // far slower than the worst single-machine placement.
        let it = p.iter_time(NnModel::AlexNet, 1);
        assert!(it.comm_s > 1.0, "got {}", it.comm_s);
    }
}
