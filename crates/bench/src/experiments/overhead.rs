//! §5.5.3 — scheduler decision overhead.
//!
//! The paper: at the 10 k-job / 1 k-machine scale, TOPO-AWARE(-P) spends
//! ≈3 s per placement decision versus ≈0.45 s for the greedy policies
//! (≈6.7×) — the price of the `Θ(|V_P|)·Θ(|E_A|·log₂|V_P|)` search versus
//! `Θ(|E_A|+|V_P|)` greediness. Absolute numbers depend on the host; the
//! *ratio* and its growth with machine count are the reproducible shape.
//! That shape belongs to the paper's per-machine algorithm, the sequential
//! reference; the production class path decides over live machine classes
//! (DESIGN.md §15), so its cost hardly grows with the machines. The table
//! times both, side by side.

use super::minsky_cluster;
use crate::table::{f, TextTable};
use gts_core::prelude::*;
use std::time::Instant;

/// Mean decision latency of one policy at one cluster size on one
/// evaluation path.
#[derive(Debug, Clone, Copy)]
pub struct OverheadPoint {
    /// Policy measured.
    pub kind: PolicyKind,
    /// Machines in the cluster.
    pub n_machines: usize,
    /// Timed on the sequential reference ([`EvalParams::sequential`]), not
    /// on the production class path.
    pub reference: bool,
    /// Mean decision latency, seconds.
    pub mean_s: f64,
}

/// Measures mean decision latency on the `params` evaluation path against
/// a half-loaded cluster.
///
/// The state is loaded once (placing one 2-GPU job on every even machine,
/// so every machine keeps capacity and the topology-aware search cannot
/// short-circuit), then each generated job is *decided but not placed* —
/// isolating pure decision cost exactly as §5.5.3 reports it. One untimed
/// pass over the burst goes first: the first decisions on a thread fill
/// its DRB split memo and best-case cost tables (DESIGN.md §13), a cost
/// that would otherwise land on whichever cluster size is measured first.
pub fn measure(
    kind: PolicyKind,
    n_machines: usize,
    n_decisions: usize,
    params: EvalParams,
) -> OverheadPoint {
    let (cluster, profiles) = minsky_cluster(n_machines);
    let mut state = ClusterState::new(cluster, profiles);

    let mut gen = WorkloadGenerator::with_defaults(99);
    for (i, mut job) in gen.generate(n_machines / 2).into_iter().enumerate() {
        job.n_gpus = 2;
        let machine = MachineId((2 * i) as u32);
        let gpus: Vec<GlobalGpuId> = state.free_gpus(machine)[..2]
            .iter()
            .map(|&gpu| GlobalGpuId { machine, gpu })
            .collect();
        state.place(job, gpus, 1.0);
    }

    let policy = Policy::new(kind);
    let burst = gen.generate(n_decisions);
    let decide = |job: &JobSpec| policy.decide_with(&state, job, params, None, None);
    for job in &burst {
        std::hint::black_box(decide(job));
    }
    let started = Instant::now();
    for job in &burst {
        std::hint::black_box(decide(job));
    }
    let elapsed = started.elapsed().as_secs_f64();
    OverheadPoint {
        kind,
        n_machines,
        reference: params.is_sequential(),
        mean_s: elapsed / n_decisions as f64,
    }
}

/// Runs the comparison at several cluster sizes: TOPO-AWARE(-P) on the
/// sequential reference and on the production class path, FCFS and BF
/// once (their decisions read neither).
pub fn run(sizes: &[usize], n_decisions: usize) -> Vec<OverheadPoint> {
    let mut points = Vec::new();
    for &n in sizes {
        for kind in PolicyKind::ALL {
            if matches!(kind, PolicyKind::TopoAware | PolicyKind::TopoAwareP) {
                points.push(measure(kind, n, n_decisions, EvalParams::sequential()));
            }
            points.push(measure(kind, n, n_decisions, EvalParams::parallel(2)));
        }
    }
    points
}

/// Renders the overhead table, µs per decision, with the topo/greedy ratio
/// of each path per size.
pub fn render(sizes: &[usize], n_decisions: usize) -> String {
    let points = run(sizes, n_decisions);
    let mut t = TextTable::new(
        "§5.5.3 — mean placement-decision latency (µs): the reference and the class path",
        &[
            "machines",
            "FCFS",
            "BF",
            "TA ref",
            "TA-P ref",
            "ref ratio",
            "TA class",
            "TA-P class",
            "class ratio",
        ],
    );
    for &n in sizes {
        let get = |k: PolicyKind, reference: bool| {
            points
                .iter()
                .find(|p| p.kind == k && p.n_machines == n && p.reference == reference)
                .map(|p| p.mean_s)
                .unwrap_or(0.0)
        };
        let greedy = 0.5 * (get(PolicyKind::Fcfs, false) + get(PolicyKind::BestFit, false));
        let mut row = vec![
            n.to_string(),
            f(get(PolicyKind::Fcfs, false) * 1e6, 1),
            f(get(PolicyKind::BestFit, false) * 1e6, 1),
        ];
        for reference in [true, false] {
            let ta = get(PolicyKind::TopoAware, reference);
            let tap = get(PolicyKind::TopoAwareP, reference);
            row.push(f(ta * 1e6, 1));
            row.push(f(tap * 1e6, 1));
            row.push(format!("{:.1}x", 0.5 * (ta + tap) / greedy.max(1e-12)));
        }
        t.row(row);
    }
    t.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_aware_costs_more_than_greedy() {
        let ta = measure(PolicyKind::TopoAware, 40, 30, EvalParams::from_env());
        let fcfs = measure(PolicyKind::Fcfs, 40, 30, EvalParams::from_env());
        assert!(
            ta.mean_s > fcfs.mean_s,
            "TA {:.2e}s should exceed FCFS {:.2e}s",
            ta.mean_s,
            fcfs.mean_s
        );
    }

    #[test]
    fn overhead_grows_with_cluster_size() {
        let small = measure(PolicyKind::TopoAware, 10, 20, EvalParams::from_env());
        let large = measure(PolicyKind::TopoAware, 80, 20, EvalParams::from_env());
        assert!(
            large.mean_s > small.mean_s,
            "80 machines {:.2e}s vs 10 machines {:.2e}s",
            large.mean_s,
            small.mean_s
        );
    }

    #[test]
    fn renders() {
        let s = render(&[5], 5);
        assert!(s.contains("ref ratio") && s.contains("class ratio"));
    }
}
