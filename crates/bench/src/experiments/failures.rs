//! F1 (ours) — resilience under machine failures.
//!
//! Cloud fleets lose machines; the scheduler's job is to absorb the hit.
//! Scenario-1's workload runs on 5 machines with one machine failing a
//! third of the way through: its jobs restart elsewhere from scratch. We
//! compare how much makespan and QoS each policy gives back, and confirm
//! the postponing policy's SLO guarantee survives the churn.

use super::fig10::mean;
use super::minsky_cluster;
use crate::parallel::par_map;
use crate::table::{f, TextTable};
use gts_core::prelude::*;
use std::sync::Arc;

/// One policy's outcome with and without the failure.
#[derive(Debug, Clone)]
pub struct FailureSummary {
    /// Policy.
    pub kind: PolicyKind,
    /// Makespan without failures, seconds.
    pub makespan_clean_s: f64,
    /// Makespan with the failure, seconds.
    pub makespan_failed_s: f64,
    /// Jobs that had to restart.
    pub restarted_jobs: usize,
    /// Mean QoS slowdown with the failure.
    pub mean_qos_failed: f64,
    /// SLO violations with the failure.
    pub slo_violations: usize,
}

impl FailureSummary {
    /// Relative makespan cost of the failure.
    pub fn overhead(&self) -> f64 {
        self.makespan_failed_s / self.makespan_clean_s - 1.0
    }
}

/// Runs every policy with and without a failure of machine 2 at `fail_at_s`.
pub fn run(n_jobs: usize, seed: u64, fail_at_s: f64) -> Vec<FailureSummary> {
    let (cluster, profiles) = minsky_cluster(5);
    let trace = WorkloadGenerator::with_defaults(seed).generate(n_jobs);
    // Each policy's clean+failed simulation pair is independent — sweep
    // them on the worker pool.
    par_map(PolicyKind::ALL.to_vec(), |kind| {
        let clean = simulate(
            Arc::clone(&cluster),
            Arc::clone(&profiles),
            Policy::new(kind),
            trace.clone(),
        );
        let config = SimConfig::new(Policy::new(kind))
            .with_machine_failures(vec![(fail_at_s, MachineId(2))]);
        let failed =
            Simulation::new(Arc::clone(&cluster), Arc::clone(&profiles), config).run(trace.clone());
        let qos: Vec<f64> = failed.records.iter().map(|r| r.qos_slowdown()).collect();
        FailureSummary {
            kind,
            makespan_clean_s: clean.makespan_s,
            makespan_failed_s: failed.makespan_s,
            restarted_jobs: failed.records.iter().filter(|r| r.restarts > 0).count(),
            mean_qos_failed: mean(&qos),
            slo_violations: failed.slo_violations,
        }
    })
}

/// Renders the resilience table.
pub fn render() -> String {
    let mut t = TextTable::new(
        "F1 (ours) — machine 2 fails at t=600 s (100 jobs, 5 machines)",
        &[
            "policy",
            "clean makespan (s)",
            "failed makespan (s)",
            "overhead",
            "restarts",
            "mean QoS",
            "SLO viol.",
        ],
    );
    for s in run(100, 1001, 600.0) {
        t.row(vec![
            s.kind.to_string(),
            f(s.makespan_clean_s, 0),
            f(s.makespan_failed_s, 0),
            format!("{:+.1}%", s.overhead() * 100.0),
            s.restarted_jobs.to_string(),
            f(s.mean_qos_failed, 3),
            s.slo_violations.to_string(),
        ]);
    }
    t.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_cost_time_but_lose_no_jobs() {
        for s in run(40, 1001, 300.0) {
            assert!(
                s.makespan_failed_s >= s.makespan_clean_s - 1e-6,
                "{}: failure cannot speed things up",
                s.kind
            );
            assert!(s.restarted_jobs >= 1, "{}: nobody restarted?", s.kind);
        }
    }

    #[test]
    fn postponing_policy_keeps_its_guarantee_through_failures() {
        let s = run(40, 1001, 300.0);
        let tap = s.iter().find(|x| x.kind == PolicyKind::TopoAwareP).unwrap();
        assert_eq!(tap.slo_violations, 0);
    }

    #[test]
    fn renders() {
        assert!(render().contains("overhead"));
    }
}
