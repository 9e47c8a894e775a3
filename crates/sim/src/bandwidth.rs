//! Post-hoc link-bandwidth traces from a simulation result — the bottom
//! panels of Fig. 8 (a)–(d), split into P2P and GPU–CPU–GPU traffic.
//!
//! The sampled-counter model (`gts-perf::bandwidth`) is duty-cycle based
//! and interference stretches both iteration phases equally, so the
//! expected sample for a running job depends only on its placement and
//! batch — which the timeline retains. That lets the series be derived
//! after the fact instead of being carried through the event loop.

use crate::metrics::SimResult;
use gts_perf::{sampled_bandwidth_gbs, PlacementPerf, RouteClass};
use gts_topo::{ClusterTopology, MachineId};

/// Bandwidth-over-time for one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineBandwidthSeries {
    /// The machine sampled.
    pub machine: MachineId,
    /// Sample timestamps, seconds.
    pub t_s: Vec<f64>,
    /// P2P (NVLink / switch) bandwidth per sample, GB/s.
    pub p2p_gbs: Vec<f64>,
    /// Host-routed (GPU–CPU–GPU) bandwidth per sample, GB/s.
    pub host_gbs: Vec<f64>,
}

impl MachineBandwidthSeries {
    /// Peak P2P sample.
    pub fn peak_p2p(&self) -> f64 {
        self.p2p_gbs.iter().copied().fold(0.0, f64::max)
    }

    /// Peak host-routed sample.
    pub fn peak_host(&self) -> f64 {
        self.host_gbs.iter().copied().fold(0.0, f64::max)
    }
}

/// Derives per-machine bandwidth series from a finished run.
pub fn bandwidth_series(
    result: &SimResult,
    cluster: &ClusterTopology,
    period_s: f64,
) -> Vec<MachineBandwidthSeries> {
    assert!(period_s > 0.0, "sample period must be positive");
    let n_samples = (result.makespan_s / period_s).ceil() as usize + 1;
    let mut series: Vec<MachineBandwidthSeries> = cluster
        .machines()
        .map(|machine| MachineBandwidthSeries {
            machine,
            t_s: (0..n_samples).map(|k| k as f64 * period_s).collect(),
            p2p_gbs: vec![0.0; n_samples],
            host_gbs: vec![0.0; n_samples],
        })
        .collect();

    for record in &result.records {
        // Per-job expected sample, from its actual placement.
        let perf = PlacementPerf::evaluate_cluster(cluster, &record.gpus);
        let iter = match (&record.spec.comm_graph, record.gpus.len() > 1) {
            (Some(graph), _)
                if record
                    .gpus
                    .iter()
                    .all(|g| g.machine == record.gpus[0].machine) =>
            {
                let machine = record.gpus[0].machine;
                let local: Vec<_> = record.gpus.iter().map(|g| g.gpu).collect();
                gts_perf::placement::graph_iter_time(
                    cluster.machine(machine),
                    record.spec.model,
                    record.spec.batch.representative_batch(),
                    graph,
                    &local,
                )
            }
            _ => perf.iter_time(record.spec.model, record.spec.batch.representative_batch()),
        };
        let bw = sampled_bandwidth_gbs(iter, 0.0);
        let machine = record.gpus[0].machine;
        let s = &mut series[machine.index()];
        let first = (record.placed_at_s / period_s).ceil() as usize;
        let last = ((record.finished_at_s / period_s).floor() as usize).min(n_samples - 1);
        for k in first..=last.min(n_samples - 1) {
            if iter.comm_s > 0.0 && perf.route == RouteClass::P2p {
                s.p2p_gbs[k] += bw;
            } else {
                s.host_gbs[k] += bw;
            }
        }
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use gts_job::{BatchClass, JobSpec, NnModel};
    use gts_perf::ProfileLibrary;
    use gts_sched::{Policy, PolicyKind};
    use gts_topo::power8_minsky;
    use std::sync::Arc;

    fn run(trace: Vec<JobSpec>) -> (SimResult, Arc<ClusterTopology>) {
        let machine = power8_minsky();
        let profiles = Arc::new(ProfileLibrary::generate(&machine, 1));
        let cluster = Arc::new(ClusterTopology::homogeneous(machine, 1));
        let res = simulate(
            Arc::clone(&cluster),
            profiles,
            Policy::new(PolicyKind::TopoAware),
            trace,
        );
        (res, cluster)
    }

    #[test]
    fn packed_tiny_job_saturates_the_p2p_channel() {
        let (res, cluster) = run(vec![
            JobSpec::new(0, NnModel::AlexNet, BatchClass::Tiny, 2).with_iterations(400)
        ]);
        let series = bandwidth_series(&res, &cluster, 1.0);
        assert_eq!(series.len(), 1);
        let s = &series[0];
        // Fig. 5's ≈40 GB/s while running; nothing before/after.
        assert!((37.0..43.0).contains(&s.peak_p2p()), "got {}", s.peak_p2p());
        assert_eq!(s.peak_host(), 0.0);
        assert_eq!(*s.p2p_gbs.last().unwrap(), 0.0, "trace must end quiet");
    }

    #[test]
    fn spread_job_shows_up_as_host_traffic() {
        // Occupy one GPU per socket so the 2-GPU job is forced to spread.
        let (res, cluster) = run(vec![
            JobSpec::new(10, NnModel::AlexNet, BatchClass::Big, 1)
                .with_iterations(900)
                .arriving_at(0.0),
            JobSpec::new(11, NnModel::AlexNet, BatchClass::Big, 1)
                .with_iterations(900)
                .arriving_at(0.1),
            JobSpec::new(0, NnModel::AlexNet, BatchClass::Tiny, 2)
                .with_iterations(100)
                .arriving_at(1.0),
        ]);
        let r = res.record(gts_job::JobId(0)).unwrap();
        let m = power8_minsky();
        let local: Vec<_> = r.gpus.iter().map(|g| g.gpu).collect();
        assert!(!m.is_packed(&local), "setup failed: {local:?}");

        let series = bandwidth_series(&res, &cluster, 1.0);
        assert!(
            series[0].peak_host() > 10.0,
            "got {}",
            series[0].peak_host()
        );
    }

    #[test]
    fn concurrent_jobs_stack_their_bandwidth() {
        let (res, cluster) = run(vec![
            JobSpec::new(0, NnModel::AlexNet, BatchClass::Tiny, 2).with_iterations(400),
            JobSpec::new(1, NnModel::AlexNet, BatchClass::Tiny, 2).with_iterations(400),
        ]);
        let series = bandwidth_series(&res, &cluster, 1.0);
        // Two packed tiny jobs on their own sockets: ≈80 GB/s aggregate.
        assert!(series[0].peak_p2p() > 60.0, "got {}", series[0].peak_p2p());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_rejected() {
        let (res, cluster) = run(vec![]);
        bandwidth_series(&res, &cluster, 0.0);
    }
}
