//! The ideal-execution baseline.
//!
//! Fig. 8(e)/(f) measure each job's slowdown "in comparison with the ideal
//! scenario, where the job has the fastest execution time": the job alone
//! on an empty machine with the best possible GPU subset. That subset is
//! [`MachineTopology::best_subset`], the first of least Eq. 3 cost, which
//! each machine kind finds once per width; the solo iteration time is
//! evaluated on it. [`cluster_ideal_duration_s`] takes the fastest machine
//! kind of a cluster, or the multi-node floor for a job wider than every
//! machine; the simulator and the prototype both record it.

use gts_job::JobSpec;
use gts_perf::PlacementPerf;
use gts_topo::{ClusterTopology, GpuId, MachineTopology};

/// Ideal solo duration of a job *wider than any machine*: the best spill is
/// rack-local, so the gradient exchange runs at the full top-of-rack line
/// rate (the placement-independent floor for multi-node jobs).
pub fn ideal_multi_node_duration_s(spec: &JobSpec) -> f64 {
    use gts_perf::{IterTime, RouteClass};
    let comm = gts_perf::comm::comm_time_s(
        spec.model,
        spec.n_gpus,
        RouteClass::HostRouted,
        gts_topo::LinkKind::Network.peak_bandwidth_gbs(),
    );
    let iter = IterTime {
        compute_s: gts_perf::compute_time_s(spec.model, spec.batch.representative_batch()),
        comm_s: comm,
    };
    f64::from(spec.iterations) * iter.total_s()
}

/// Ideal solo duration of `spec` anywhere on `cluster`: the fastest machine
/// kind wide enough for it (one representative per topology class), or the
/// multi-node floor when no machine is.
pub fn cluster_ideal_duration_s(spec: &JobSpec, cluster: &ClusterTopology) -> f64 {
    let mut seen_classes: Vec<u32> = Vec::new();
    let best = cluster
        .machines()
        .filter(|&m| cluster.machine(m).n_gpus() >= spec.n_gpus as usize)
        .filter(|&m| {
            let c = cluster.machine_class(m);
            let fresh = !seen_classes.contains(&c);
            if fresh {
                seen_classes.push(c);
            }
            fresh
        })
        .map(|m| ideal_duration_s(spec, cluster.machine(m)))
        .fold(f64::INFINITY, f64::min);
    if best.is_finite() {
        best
    } else {
        ideal_multi_node_duration_s(spec)
    }
}

/// Solo duration of `spec` under its ideal placement on `topo`, seconds.
///
/// Jobs with an explicit communication graph additionally get the best task
/// permutation over the chosen subset (orientation matters for a pipeline).
pub fn ideal_duration_s(spec: &JobSpec, topo: &MachineTopology) -> f64 {
    let subset = topo.best_subset(spec.n_gpus as usize);
    let batch = spec.batch.representative_batch();
    let iter_total = match &spec.comm_graph {
        Some(graph) if subset.len() <= 6 => {
            let mut best = f64::INFINITY;
            permute(subset.to_vec(), &mut |perm| {
                let it = gts_perf::placement::graph_iter_time(topo, spec.model, batch, graph, perm);
                best = best.min(it.total_s());
            });
            best
        }
        Some(graph) => {
            gts_perf::placement::graph_iter_time(topo, spec.model, batch, graph, subset).total_s()
        }
        None => PlacementPerf::evaluate(topo, subset)
            .iter_time(spec.model, batch)
            .total_s(),
    };
    f64::from(spec.iterations) * iter_total
}

/// Heap's algorithm: calls `visit` on every permutation of `items`.
fn permute(mut items: Vec<GpuId>, visit: &mut dyn FnMut(&[GpuId])) {
    let n = items.len();
    let mut c = vec![0usize; n];
    visit(&items);
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                items.swap(0, i);
            } else {
                items.swap(c[i], i);
            }
            visit(&items);
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_job::{BatchClass, NnModel};
    use gts_topo::power8_minsky;

    #[test]
    fn ideal_duration_beats_spread_duration() {
        let m = power8_minsky();
        let spec = JobSpec::new(0, NnModel::AlexNet, BatchClass::Tiny, 2).with_iterations(100);
        let ideal = ideal_duration_s(&spec, &m);
        let spread = gts_perf::placement::job_duration_s(&spec, &m, &[GpuId(0), GpuId(2)]);
        assert!(ideal < spread);
    }

    #[test]
    fn single_gpu_ideal_is_pure_compute() {
        let m = power8_minsky();
        let spec = JobSpec::new(0, NnModel::AlexNet, BatchClass::Tiny, 1).with_iterations(100);
        let d = ideal_duration_s(&spec, &m);
        let expected = 100.0 * gts_perf::compute_time_s(NnModel::AlexNet, 1);
        assert!((d - expected).abs() < 1e-9);
    }
}
