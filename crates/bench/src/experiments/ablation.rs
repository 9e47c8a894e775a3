//! Ablation A1 — sweeping the Eq. 1/2 utility weights (αcc, αb, αd).
//!
//! The paper fixes the weights at ⅓ each (§5.2.1); this ablation shows what
//! each term buys by running the scenario-1 workload under TOPO-AWARE-P
//! with skewed weightings.

use super::fig10::mean;
use super::minsky_cluster;
use crate::table::{f, TextTable};
use gts_core::prelude::*;
use std::sync::Arc;

/// One weight configuration's outcome.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Human label ("comm-only", "equal", ...).
    pub label: String,
    /// The weights used.
    pub weights: UtilityWeights,
    /// Mean QoS slowdown.
    pub mean_qos: f64,
    /// Mean waiting time.
    pub mean_wait_s: f64,
    /// SLO violations.
    pub slo_violations: usize,
    /// Makespan.
    pub makespan_s: f64,
}

/// The sweep grid: each term alone, pairs, and the paper's default.
pub fn weight_grid() -> Vec<(String, UtilityWeights)> {
    let mk = |l: &str, cc: f64, b: f64, d: f64| {
        (
            l.to_string(),
            UtilityWeights::new(cc, b, d).expect("grid weights sum to 1"),
        )
    };
    vec![
        mk("comm-only", 1.0, 0.0, 0.0),
        mk("interference-only", 0.0, 1.0, 0.0),
        mk("fragmentation-only", 0.0, 0.0, 1.0),
        mk("comm+interf", 0.5, 0.5, 0.0),
        mk("equal (paper)", 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
        mk("comm-heavy", 0.6, 0.2, 0.2),
    ]
}

/// Runs the sweep over a generated workload.
pub fn run(n_jobs: usize, n_machines: usize, seed: u64) -> Vec<AblationRow> {
    let (cluster, profiles) = minsky_cluster(n_machines);
    let trace = WorkloadGenerator::with_defaults(seed).generate(n_jobs);
    weight_grid()
        .into_iter()
        .map(|(label, weights)| {
            let policy = Policy {
                kind: PolicyKind::TopoAwareP,
                weights,
            };
            let res = simulate(
                Arc::clone(&cluster),
                Arc::clone(&profiles),
                policy,
                trace.clone(),
            );
            let qos: Vec<f64> = res.records.iter().map(|r| r.qos_slowdown()).collect();
            AblationRow {
                label,
                weights,
                mean_qos: mean(&qos),
                mean_wait_s: res.mean_waiting_s(),
                slo_violations: res.slo_violations,
                makespan_s: res.makespan_s,
            }
        })
        .collect()
}

/// Renders the ablation table.
pub fn render() -> String {
    let mut t = TextTable::new(
        "A1 — utility-weight ablation (TOPO-AWARE-P, 100 jobs / 5 machines)",
        &[
            "weights (cc/b/d)",
            "mean QoS slowdown",
            "mean wait (s)",
            "SLO viol.",
            "makespan (s)",
        ],
    );
    for r in run(100, 5, 1001) {
        t.row(vec![
            format!(
                "{} ({:.2}/{:.2}/{:.2})",
                r.label, r.weights.cc, r.weights.b, r.weights.d
            ),
            f(r.mean_qos, 3),
            f(r.mean_wait_s, 1),
            r.slo_violations.to_string(),
            f(r.makespan_s, 0),
        ]);
    }
    t.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_valid_and_complete() {
        let grid = weight_grid();
        assert_eq!(grid.len(), 6);
        for (_, w) in grid {
            assert!((w.cc + w.b + w.d - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn sweep_runs_and_every_config_completes_the_workload() {
        let rows = run(30, 3, 5);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.makespan_s > 0.0, "{}", r.label);
            assert!(r.mean_qos >= 0.0);
        }
    }

    #[test]
    fn comm_only_weighting_matches_comm_focus() {
        // With αcc = 1 the policy only respects communication quality: it
        // never knowingly accepts a spread placement for comm-heavy jobs,
        // so its mean QoS slowdown stays in the same league as the default.
        let rows = run(30, 3, 5);
        let comm = rows.iter().find(|r| r.label == "comm-only").unwrap();
        let equal = rows.iter().find(|r| r.label == "equal (paper)").unwrap();
        assert!(comm.mean_qos <= equal.mean_qos + 0.25);
    }
}
