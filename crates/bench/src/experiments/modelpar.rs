//! M1 (ours) — model-parallelism placement sensitivity.
//!
//! §2 predicts that "topology-aware scheduling is even more critical for
//! model-parallelization workloads because of the higher communication
//! requirements". This experiment quantifies that on the Minsky: for each
//! communication shape (data-parallel clique, pipeline, ring) compare the
//! mapper's placement against the worst same-size placement.

use super::minsky_cluster;
use crate::table::{f, TextTable};
use gts_core::map::{drb_map, PlacementOracle, UtilityWeights};
use gts_core::perf::placement::graph_iter_time;
use gts_core::prelude::*;

/// One row: a communication shape and its placement sensitivity.
#[derive(Debug, Clone)]
pub struct ModelParRow {
    /// Shape label.
    pub shape: String,
    /// Per-iteration time under the DRB mapping, seconds.
    pub mapped_s: f64,
    /// Per-iteration time under the worst same-GPU-set permutation.
    pub worst_s: f64,
}

impl ModelParRow {
    /// How much a topology-blind assignment can cost.
    pub fn sensitivity(&self) -> f64 {
        self.worst_s / self.mapped_s
    }
}

struct Idle<'a> {
    machine: &'a MachineTopology,
}

impl PlacementOracle for Idle<'_> {
    fn distance(&self, a: GpuId, b: GpuId) -> f64 {
        self.machine.distance(a, b)
    }
    fn interference(&self, _: &[GpuId]) -> f64 {
        1.0
    }
    fn fragmentation_after(&self, _: &[GpuId]) -> f64 {
        0.5
    }
}

fn worst_permutation_s(machine: &MachineTopology, graph: &JobGraph) -> f64 {
    // All permutations of the machine's 4 GPUs.
    let gpus: Vec<GpuId> = machine.gpus().collect();
    let mut worst: f64 = 0.0;
    let mut perm = gpus.clone();
    permute(&mut perm, 0, &mut |p| {
        let t = graph_iter_time(machine, NnModel::AlexNet, 1, graph, p).total_s();
        worst = worst.max(t);
    });
    worst
}

fn permute(items: &mut Vec<GpuId>, k: usize, visit: &mut impl FnMut(&[GpuId])) {
    if k == items.len() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}

/// Runs the sensitivity analysis over the three shapes.
pub fn run() -> Vec<ModelParRow> {
    let (cluster, _) = minsky_cluster(1);
    let machine = cluster.machine(MachineId(0));
    let oracle = Idle { machine };
    let shapes: Vec<(String, JobGraph)> = vec![
        ("data-parallel (clique)".into(), JobGraph::uniform(4, 4.0)),
        ("pipeline (chain)".into(), JobGraph::pipeline(4, 4.0)),
        ("ring".into(), JobGraph::ring(4, 4.0)),
    ];
    let all: Vec<GpuId> = machine.gpus().collect();
    shapes
        .into_iter()
        .map(|(shape, graph)| {
            let mapping = drb_map(&graph, &all, &oracle, UtilityWeights::default())
                .expect("machine fits the job");
            let mapped_s =
                graph_iter_time(machine, NnModel::AlexNet, 1, &graph, &mapping).total_s();
            let worst_s = worst_permutation_s(machine, &graph);
            ModelParRow {
                shape,
                mapped_s,
                worst_s,
            }
        })
        .collect()
}

/// Renders the table.
pub fn render() -> String {
    let mut t = TextTable::new(
        "M1 (ours) — model-parallel placement sensitivity (AlexNet, batch 1, 4 GPUs)",
        &[
            "shape",
            "mapped iter (ms)",
            "worst iter (ms)",
            "worst/mapped",
        ],
    );
    for r in run() {
        t.row(vec![
            r.shape.clone(),
            f(r.mapped_s * 1e3, 1),
            f(r.worst_s * 1e3, 1),
            format!("{:.2}x", r.sensitivity()),
        ]);
    }
    t.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapper_never_loses_to_the_worst_permutation() {
        for r in run() {
            assert!(
                r.mapped_s <= r.worst_s + 1e-12,
                "{}: mapped {} vs worst {}",
                r.shape,
                r.mapped_s,
                r.worst_s
            );
        }
    }

    #[test]
    fn sparse_graphs_are_more_placement_sensitive() {
        let rows = run();
        let clique = rows.iter().find(|r| r.shape.contains("clique")).unwrap();
        let pipeline = rows.iter().find(|r| r.shape.contains("pipeline")).unwrap();
        // The clique pays for every pair no matter what; a pipeline's cost
        // swings much harder with placement — §2's claim.
        assert!(
            pipeline.sensitivity() > clique.sensitivity(),
            "pipeline {:.3} vs clique {:.3}",
            pipeline.sensitivity(),
            clique.sensitivity()
        );
        assert!(pipeline.sensitivity() > 1.5);
    }

    #[test]
    fn renders() {
        assert!(render().contains("pipeline"));
    }
}
