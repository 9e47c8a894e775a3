//! Fig. 9 — validating the trace-driven simulator against the concurrent
//! prototype on the Table 1 scenario.

use super::minsky_cluster;
use crate::table::{f, TextTable};
use gts_core::job::scenario::table1;
use gts_core::prelude::*;
use std::sync::Arc;

/// Side-by-side completion times for one job.
#[derive(Debug, Clone, Copy)]
pub struct Fig9Row {
    /// Job compared.
    pub job: JobId,
    /// Prototype completion time, simulated seconds.
    pub proto_finish_s: f64,
    /// Simulator completion time, seconds.
    pub sim_finish_s: f64,
}

impl Fig9Row {
    /// Relative disagreement.
    pub fn rel_error(&self) -> f64 {
        (self.proto_finish_s - self.sim_finish_s).abs() / self.sim_finish_s.max(1.0)
    }
}

/// Runs the validation for one policy.
pub fn run(kind: PolicyKind) -> Vec<Fig9Row> {
    let (cluster, profiles) = minsky_cluster(1);
    let sim = simulate(
        Arc::clone(&cluster),
        Arc::clone(&profiles),
        Policy::new(kind),
        table1(),
    );
    let proto = Prototype::new(
        cluster,
        profiles,
        ProtoConfig::with_scale(Policy::new(kind), TimeScale::new(0.002)),
    )
    .run(table1());

    sim.records
        .iter()
        .filter_map(|sr| {
            proto.record(sr.spec.id).map(|pr| Fig9Row {
                job: sr.spec.id,
                proto_finish_s: pr.finished_at_s,
                sim_finish_s: sr.finished_at_s,
            })
        })
        .collect()
}

/// Renders the validation table for TOPO-AWARE-P (panel (d), the policy
/// whose behaviour the validation matters most for).
pub fn render() -> String {
    let mut out = String::new();
    for kind in [PolicyKind::TopoAwareP, PolicyKind::Fcfs] {
        let mut rows = run(kind);
        rows.sort_by_key(|r| r.job);
        let mut t = TextTable::new(
            format!("Fig. 9 — prototype vs simulation, {kind}"),
            &[
                "job",
                "prototype finish (s)",
                "simulation finish (s)",
                "rel. error",
            ],
        );
        for r in &rows {
            t.row(vec![
                r.job.to_string(),
                f(r.proto_finish_s, 1),
                f(r.sim_finish_s, 1),
                format!("{:.1}%", r.rel_error() * 100.0),
            ]);
        }
        out.push_str(&t.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulation_tracks_the_prototype() {
        let rows = run(PolicyKind::TopoAwareP);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(
                r.rel_error() < 0.15,
                "{}: proto {:.1} vs sim {:.1}",
                r.job,
                r.proto_finish_s,
                r.sim_finish_s
            );
        }
    }
}
