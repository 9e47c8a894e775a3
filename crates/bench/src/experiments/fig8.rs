//! Fig. 8 — the prototype scenario: Table 1's six jobs on one Minsky under
//! all four policies. Panels (a)–(d) are the placement timelines, (e) the
//! per-job QoS slowdown, (f) QoS + waiting time; the headline number is the
//! cumulative execution time (BF 461.7 s / FCFS 456.2 s / TA 454.2 s /
//! TA-P 356.9 s → ≈1.30× in the paper).

use super::{minsky_cluster, run_policy};
use crate::table::{f, TextTable};
use gts_core::job::scenario::table1;
use gts_core::prelude::*;

/// One policy's complete run.
#[derive(Debug, Clone)]
pub struct PolicyRun {
    /// The policy.
    pub kind: PolicyKind,
    /// Its simulation result.
    pub result: SimResult,
}

/// Runs the Table 1 scenario under every policy.
pub fn run() -> Vec<PolicyRun> {
    let (cluster, profiles) = minsky_cluster(1);
    PolicyKind::ALL
        .iter()
        .map(|&kind| PolicyRun {
            kind,
            result: run_policy(&cluster, &profiles, kind, table1()),
        })
        .collect()
}

/// Renders the headline comparison, both slowdown panels and the
/// placement timelines.
pub fn render() -> String {
    let runs = run();
    let mut out = String::new();

    let tap = runs
        .iter()
        .find(|r| r.kind == PolicyKind::TopoAwareP)
        .expect("TOPO-AWARE-P runs")
        .result
        .makespan_s;
    let mut head = TextTable::new(
        "Fig. 8 — cumulative execution time (Table 1 scenario)",
        &[
            "policy",
            "cumulative (s)",
            "speedup of TOPO-AWARE-P",
            "SLO violations",
        ],
    );
    for r in &runs {
        head.row(vec![
            r.kind.to_string(),
            f(r.result.makespan_s, 1),
            format!("{:.2}x", r.result.makespan_s / tap),
            r.result.slo_violations.to_string(),
        ]);
    }
    out.push_str(&head.to_string());
    out.push('\n');

    let mut qos = TextTable::new(
        "Fig. 8(e) — job slowdown vs ideal (placement only), worst→best",
        &["policy", "per-job slowdown"],
    );
    let mut qosw = TextTable::new(
        "Fig. 8(f) — job slowdown including waiting time, worst→best",
        &["policy", "per-job slowdown"],
    );
    for r in &runs {
        let fmt_series = |series: Vec<(JobId, f64)>| {
            series
                .iter()
                .map(|(id, s)| format!("{id}:{s:.2}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        qos.row(vec![
            r.kind.to_string(),
            fmt_series(r.result.qos_slowdowns_sorted()),
        ]);
        qosw.row(vec![
            r.kind.to_string(),
            fmt_series(r.result.qos_wait_slowdowns_sorted()),
        ]);
    }
    out.push_str(&qos.to_string());
    out.push('\n');
    out.push_str(&qosw.to_string());
    out.push('\n');

    // Bottom panels: P2P vs GPU-CPU-GPU bandwidth, sampled at the figure's
    // 48 s ticks.
    let (cluster, _) = minsky_cluster(1);
    let mut bw = TextTable::new(
        "Fig. 8 bottom panels — machine link bandwidth (GB/s) at 48 s ticks",
        &[
            "policy", "channel", "t=48", "t=96", "t=144", "t=192", "t=240", "t=288", "peak",
        ],
    );
    for r in &runs {
        let series = gts_core::sim::bandwidth_series(&r.result, &cluster, 1.0);
        let s = &series[0];
        let sample = |k: usize| -> f64 {
            let idx = k.min(s.t_s.len().saturating_sub(1));
            s.p2p_gbs[idx]
        };
        let sample_host = |k: usize| -> f64 {
            let idx = k.min(s.t_s.len().saturating_sub(1));
            s.host_gbs[idx]
        };
        bw.row(vec![
            r.kind.to_string(),
            "P2P".into(),
            f(sample(48), 1),
            f(sample(96), 1),
            f(sample(144), 1),
            f(sample(192), 1),
            f(sample(240), 1),
            f(sample(288), 1),
            f(s.peak_p2p(), 1),
        ]);
        bw.row(vec![
            String::new(),
            "GPU-CPU-GPU".into(),
            f(sample_host(48), 1),
            f(sample_host(96), 1),
            f(sample_host(144), 1),
            f(sample_host(192), 1),
            f(sample_host(240), 1),
            f(sample_host(288), 1),
            f(s.peak_host(), 1),
        ]);
    }
    out.push_str(&bw.to_string());
    out.push('\n');

    for r in &runs {
        let mut tl = TextTable::new(
            format!("Fig. 8 timeline — {}", r.kind),
            &["job", "GPUs", "start (s)", "end (s)"],
        );
        let mut segments = r.result.timeline.clone();
        segments.sort_by(|a, b| a.start_s.partial_cmp(&b.start_s).expect("finite"));
        for seg in segments {
            let gpus = seg
                .gpus
                .iter()
                .map(|g| g.gpu.to_string())
                .collect::<Vec<_>>()
                .join("+");
            tl.row(vec![
                seg.job.to_string(),
                gpus,
                f(seg.start_s, 1),
                f(seg.end_s, 1),
            ]);
        }
        out.push_str(&tl.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topo_aware_p_wins_without_slo_violations() {
        let runs = run();
        let by = |k: PolicyKind| runs.iter().find(|r| r.kind == k).unwrap();
        let tap = by(PolicyKind::TopoAwareP);
        assert_eq!(tap.result.slo_violations, 0);
        for k in [PolicyKind::Fcfs, PolicyKind::BestFit, PolicyKind::TopoAware] {
            let other = by(k);
            let speedup = other.result.makespan_s / tap.result.makespan_s;
            assert!(
                speedup > 1.1,
                "{k}: expected TA-P ≥1.1× faster, got {speedup:.3}"
            );
        }
    }

    #[test]
    fn greedy_policies_violate_job3s_slo() {
        let runs = run();
        for r in &runs {
            let j3 = r.result.record(JobId(3)).unwrap();
            if r.kind == PolicyKind::TopoAwareP {
                assert!(!j3.slo_violated, "TA-P must satisfy Job 3");
            } else {
                assert!(j3.slo_violated, "{}: Job 3 should violate", r.kind);
            }
        }
    }

    #[test]
    fn render_contains_all_policies() {
        let s = render();
        for k in PolicyKind::ALL {
            assert!(s.contains(&k.to_string()), "{k} missing");
        }
        assert!(s.contains("cumulative"));
    }
}
