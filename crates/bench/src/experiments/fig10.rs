//! Fig. 10 — scenario 1: 100 jobs on 5 machines, per-policy slowdown
//! distributions (QoS and QoS + waiting time).

use super::{minsky_cluster, run_policy};
use crate::parallel::par_map;
use crate::table::{f, TextTable};
use gts_core::prelude::*;

/// Summary of one policy's run at cluster scale.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ScenarioSummary {
    /// The policy.
    pub kind: PolicyKind,
    /// Sorted (worst→best) per-job QoS slowdowns.
    pub qos: Vec<f64>,
    /// Sorted (worst→best) per-job QoS+wait slowdowns.
    pub qos_wait: Vec<f64>,
    /// SLO violations.
    pub slo_violations: usize,
    /// Mean queue waiting time, seconds.
    pub mean_wait_s: f64,
    /// Cluster makespan.
    pub makespan_s: f64,
    /// Mean decision latency, seconds.
    pub mean_decision_s: f64,
    /// Mean GPU utilization over the run (abstract: "higher resource
    /// utilization").
    pub gpu_utilization: f64,
}

/// Runs all four policies over a generated workload.
pub fn run(n_jobs: usize, n_machines: usize, seed: u64) -> Vec<ScenarioSummary> {
    let (cluster, profiles) = minsky_cluster(n_machines);
    let trace = WorkloadGenerator::with_defaults(seed).generate(n_jobs);
    // The four per-policy simulations are independent and deterministic —
    // run them on the worker pool.
    par_map(PolicyKind::ALL.to_vec(), |kind| {
        let res = run_policy(&cluster, &profiles, kind, trace.clone());
        let gpu_utilization = res.effective_gpu_utilization(cluster.n_gpus());
        ScenarioSummary {
            kind,
            qos: res
                .qos_slowdowns_sorted()
                .into_iter()
                .map(|(_, s)| s)
                .collect(),
            qos_wait: res
                .qos_wait_slowdowns_sorted()
                .into_iter()
                .map(|(_, s)| s)
                .collect(),
            slo_violations: res.slo_violations,
            mean_wait_s: res.mean_waiting_s(),
            makespan_s: res.makespan_s,
            mean_decision_s: res.mean_decision_s,
            gpu_utilization,
        }
    })
}

/// Deciles of a sorted (descending) series, worst first.
pub fn deciles(sorted_desc: &[f64]) -> Vec<f64> {
    if sorted_desc.is_empty() {
        return vec![];
    }
    (0..=9)
        .map(|d| {
            let idx = (d * (sorted_desc.len() - 1)) / 9;
            sorted_desc[idx]
        })
        .collect()
}

/// Mean of a series.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Renders the scenario tables.
pub fn render_summaries(title: &str, summaries: &[ScenarioSummary]) -> String {
    let mut out = String::new();
    let mut head = TextTable::new(
        format!("{title} — summary"),
        &[
            "policy",
            "worst QoS",
            "mean QoS",
            "worst QoS+wait",
            "mean wait (s)",
            "SLO viol.",
            "makespan (s)",
            "eff. util.",
        ],
    );
    for s in summaries {
        head.row(vec![
            s.kind.to_string(),
            f(s.qos.first().copied().unwrap_or(0.0), 2),
            f(mean(&s.qos), 3),
            f(s.qos_wait.first().copied().unwrap_or(0.0), 2),
            f(s.mean_wait_s, 1),
            s.slo_violations.to_string(),
            f(s.makespan_s, 0),
            format!("{:.1}%", s.gpu_utilization * 100.0),
        ]);
    }
    out.push_str(&head.to_string());
    out.push('\n');

    for (label, pick) in [
        ("(a) JOB'S QOS", true),
        ("(b) JOB'S QOS + WAITING TIME", false),
    ] {
        let mut t = TextTable::new(
            format!("{title} {label} — slowdown deciles, worst→best"),
            &[
                "policy", "d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8", "d9",
            ],
        );
        for s in summaries {
            let series = if pick { &s.qos } else { &s.qos_wait };
            let mut row = vec![s.kind.to_string()];
            let ds = deciles(series);
            for d in 0..10 {
                row.push(f(ds.get(d).copied().unwrap_or(0.0), 2));
            }
            t.row(row);
        }
        out.push_str(&t.to_string());
        out.push('\n');
    }
    out
}

/// Renders scenario 1 at the paper's scale.
pub fn render() -> String {
    render_summaries(
        "Fig. 10 — scenario 1: 100 jobs, 5 machines",
        &run(100, 5, 1001),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by(summaries: &[ScenarioSummary], k: PolicyKind) -> &ScenarioSummary {
        summaries.iter().find(|s| s.kind == k).unwrap()
    }

    #[test]
    fn scenario1_policy_ordering() {
        let s = run(60, 5, 1001);
        let tap = by(&s, PolicyKind::TopoAwareP);
        let fcfs = by(&s, PolicyKind::Fcfs);
        let bf = by(&s, PolicyKind::BestFit);
        // "TOPO-AWARE-P ... does not violate the job's SLO."
        assert_eq!(tap.slo_violations, 0);
        // Greedy algorithms violate some and are slower on average.
        assert!(fcfs.slo_violations + bf.slo_violations > 0);
        assert!(mean(&tap.qos) <= mean(&fcfs.qos) + 1e-9);
        assert!(mean(&tap.qos) <= mean(&bf.qos) + 1e-9);
    }

    #[test]
    fn topo_aware_policies_beat_greedy_on_waiting_time() {
        // "Both TOPO-AWARE and TOPO-AWARE-P clearly outperform the greedy
        // algorithms" on the queue waiting axis.
        let s = run(60, 5, 1001);
        let ta = by(&s, PolicyKind::TopoAware);
        let tap = by(&s, PolicyKind::TopoAwareP);
        let fcfs = by(&s, PolicyKind::Fcfs);
        assert!(mean(&ta.qos_wait) <= mean(&fcfs.qos_wait) + 1e-9);
        assert!(mean(&tap.qos_wait) <= mean(&fcfs.qos_wait) + 1e-9);
    }

    #[test]
    fn effective_utilization_orders_with_topology_awareness() {
        // The abstract's claim: "the proposed strategy provides higher
        // resource utilization". Useful work per capacity-time must favor
        // the topology-aware policies.
        let s = run(100, 5, 1001);
        let by = |k: PolicyKind| s.iter().find(|x| x.kind == k).unwrap().gpu_utilization;
        assert!(by(PolicyKind::TopoAwareP) > by(PolicyKind::BestFit));
        assert!(by(PolicyKind::TopoAwareP) > by(PolicyKind::Fcfs));
        assert!(by(PolicyKind::TopoAware) > by(PolicyKind::Fcfs));
    }

    #[test]
    fn deciles_run_worst_to_best() {
        let xs = vec![0.9, 0.5, 0.3, 0.1, 0.0];
        let d = deciles(&xs);
        assert_eq!(d.len(), 10);
        assert_eq!(d[0], 0.9);
        assert_eq!(d[9], 0.0);
        for w in d.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(deciles(&[]).is_empty());
    }

    #[test]
    fn renders() {
        let s = render_summaries("test", &run(20, 2, 3));
        assert!(s.contains("TOPO-AWARE-P"));
        assert!(s.contains("deciles"));
    }
}
