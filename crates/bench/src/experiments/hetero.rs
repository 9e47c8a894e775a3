//! H1 (ours) — heterogeneous fleet: Minskys and DGX-1s in one cluster.
//!
//! Cloud fleets mix machine generations; the topology-aware policies must
//! route wide jobs to the 8-GPU boxes while keeping narrow jobs off them.
//! The workload mixes GPU request sizes including 8-GPU jobs only the
//! DGX-1s can host.

use super::fig10::mean;
use crate::table::{f, TextTable};
use gts_core::prelude::*;
use std::sync::Arc;

/// One policy's summary on the mixed fleet.
#[derive(Debug, Clone)]
pub struct HeteroSummary {
    /// Policy.
    pub kind: PolicyKind,
    /// Jobs completed.
    pub completed: usize,
    /// Mean QoS slowdown.
    pub mean_qos: f64,
    /// Mean wait.
    pub mean_wait_s: f64,
    /// SLO violations.
    pub slo_violations: usize,
    /// Fraction of 8-GPU jobs whose GPUs all sit on a DGX-1 quad pair.
    pub wide_on_dgx: f64,
}

fn mixed_cluster(n_minsky: usize, n_dgx: usize) -> (Arc<ClusterTopology>, Arc<ProfileLibrary>) {
    let minsky = Arc::new(power8_minsky());
    let dgx = Arc::new(dgx1());
    let mut machines: Vec<Arc<MachineTopology>> = Vec::new();
    for _ in 0..n_minsky {
        machines.push(Arc::clone(&minsky));
    }
    for _ in 0..n_dgx {
        machines.push(Arc::clone(&dgx));
    }
    // Profiles are measured on the Minsky (the §5.1 campaign); interference
    // coefficients are placement-independent, and route-specific timing
    // comes from the perf model per machine at run time.
    let profiles = Arc::new(ProfileLibrary::generate(&minsky, 42));
    (Arc::new(ClusterTopology::from_machines(machines)), profiles)
}

/// A workload with 1/2/4/8-GPU requests.
fn mixed_workload(n: usize, seed: u64) -> Vec<JobSpec> {
    let mut jobs = WorkloadGenerator::with_defaults(seed).generate(n);
    // Recast every fourth 4-GPU job as an 8-GPU job.
    let mut wide = 0;
    for j in jobs.iter_mut() {
        if j.n_gpus == 4 {
            wide += 1;
            if wide % 2 == 0 {
                j.n_gpus = 8;
            }
        }
    }
    jobs
}

/// Runs all policies on the mixed fleet.
pub fn run(n_jobs: usize, seed: u64) -> Vec<HeteroSummary> {
    let (cluster, profiles) = mixed_cluster(3, 2);
    let trace = mixed_workload(n_jobs, seed);
    PolicyKind::ALL
        .iter()
        .map(|&kind| {
            let res = simulate(
                Arc::clone(&cluster),
                Arc::clone(&profiles),
                Policy::new(kind),
                trace.clone(),
            );
            let qos: Vec<f64> = res.records.iter().map(|r| r.qos_slowdown()).collect();
            let wide_jobs: Vec<_> = res.records.iter().filter(|r| r.spec.n_gpus == 8).collect();
            let wide_on_dgx = if wide_jobs.is_empty() {
                1.0
            } else {
                wide_jobs
                    .iter()
                    .filter(|r| r.gpus.iter().all(|g| g.machine.index() >= 3))
                    .count() as f64
                    / wide_jobs.len() as f64
            };
            HeteroSummary {
                kind,
                completed: res.records.len(),
                mean_qos: mean(&qos),
                mean_wait_s: res.mean_waiting_s(),
                slo_violations: res.slo_violations,
                wide_on_dgx,
            }
        })
        .collect()
}

/// Renders the fleet table.
pub fn render() -> String {
    let mut t = TextTable::new(
        "H1 (ours) — heterogeneous fleet: 3× Minsky + 2× DGX-1, 80 jobs (1–8 GPUs)",
        &[
            "policy",
            "completed",
            "mean QoS",
            "mean wait (s)",
            "SLO viol.",
            "8-GPU jobs on DGX-1",
        ],
    );
    for s in run(80, 7007) {
        t.row(vec![
            s.kind.to_string(),
            s.completed.to_string(),
            f(s.mean_qos, 3),
            f(s.mean_wait_s, 1),
            s.slo_violations.to_string(),
            format!("{:.0}%", s.wide_on_dgx * 100.0),
        ]);
    }
    t.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_policy_completes_the_mixed_workload() {
        for s in run(40, 7007) {
            assert_eq!(s.completed, 40, "{}", s.kind);
            // Wide jobs can only run on the DGX-1s.
            assert!((s.wide_on_dgx - 1.0).abs() < 1e-9, "{}", s.kind);
        }
    }

    #[test]
    fn topo_aware_p_keeps_its_slo_guarantee_on_mixed_fleets() {
        let s = run(40, 7007);
        let tap = s.iter().find(|x| x.kind == PolicyKind::TopoAwareP).unwrap();
        assert_eq!(tap.slo_violations, 0);
    }

    #[test]
    fn renders() {
        assert!(render().contains("DGX-1"));
    }
}
