//! Fig. 11 — scenario 2: 10 000 jobs on 1 000 machines.
//!
//! Same harness as Fig. 10 at cloud scale. The full-size run takes a few
//! minutes of wall time (it is also the §5.5.3 overhead measurement
//! setting); `run_scaled` exposes the knobs so tests exercise a reduced
//! configuration with the same code path.

use super::fig10::{render_summaries, run, ScenarioSummary};

/// Scenario 2 at the paper's full scale.
pub fn run_full() -> Vec<ScenarioSummary> {
    run(10_000, 1_000, 2002)
}

/// Scenario 2 scaled by a divisor (jobs and machines shrink together so
/// the load factor stays comparable).
pub fn run_scaled(divisor: usize) -> Vec<ScenarioSummary> {
    let d = divisor.max(1);
    run(10_000 / d, (1_000 / d).max(1), 2002)
}

/// Renders scenario 2; `divisor == 1` is the paper's scale.
pub fn render(divisor: usize) -> String {
    let summaries = if divisor <= 1 {
        run_full()
    } else {
        run_scaled(divisor)
    };
    let title = if divisor <= 1 {
        "Fig. 11 — scenario 2: 10000 jobs, 1000 machines".to_string()
    } else {
        format!(
            "Fig. 11 (scaled 1/{divisor}) — {} jobs, {} machines",
            10_000 / divisor,
            (1_000 / divisor).max(1)
        )
    };
    render_summaries(&title, &summaries)
}

#[cfg(test)]
mod tests {
    use super::super::fig10::mean;
    use super::*;
    use gts_core::prelude::PolicyKind;

    #[test]
    fn scaled_scenario2_keeps_the_paper_ordering() {
        // 1/50 scale: 200 jobs on 20 machines — enough contention to
        // separate the policies, fast enough for CI.
        let s = run_scaled(50);
        let by = |k: PolicyKind| s.iter().find(|x| x.kind == k).unwrap();
        let tap = by(PolicyKind::TopoAwareP);
        let ta = by(PolicyKind::TopoAware);
        let fcfs = by(PolicyKind::Fcfs);
        let bf = by(PolicyKind::BestFit);

        // "FCFS has the worst performance, followed by BF"; the new
        // algorithm achieves the least slowdown.
        assert!(tap.slo_violations == 0);
        assert!(mean(&tap.qos) <= mean(&bf.qos) + 1e-9);
        assert!(mean(&tap.qos) <= mean(&fcfs.qos) + 1e-9);
        assert!(mean(&ta.qos) <= mean(&fcfs.qos) + 1e-9);
    }
}
