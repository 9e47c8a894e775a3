//! The job communication graph `A` of §4.1.1.
//!
//! "Vertexes represent GPUs and edges represent communication. Each edge has
//! an associated weight denoting the communication volume." For the
//! data-parallel Caffe workloads of the evaluation the graph is complete and
//! uniform ("all GPUs communicating between each other with the same
//! weight", §5.1) with weight 4..1 by batch class; arbitrary weighted graphs
//! are supported for model-parallel workloads (the paper's future work).

use crate::spec::JobSpec;
use serde::{Deserialize, Serialize};

/// A dense symmetric communication graph over a job's tasks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobGraph {
    n: usize,
    /// Row-major upper-triangular-mirrored weight matrix; `w[i*n+j]`.
    weights: Vec<f64>,
}

impl JobGraph {
    /// Complete uniform graph over `n` tasks with pairwise weight `w`.
    /// With `n == 1` the graph has a single vertex and no edges.
    pub fn uniform(n: usize, w: f64) -> Self {
        assert!(n > 0, "a job has at least one task");
        assert!(
            w >= 0.0 && w.is_finite(),
            "weights must be finite and non-negative"
        );
        let mut weights = vec![w; n * n];
        for i in 0..n {
            weights[i * n + i] = 0.0;
        }
        Self { n, weights }
    }

    /// The communication graph the mapper should use for `spec`: the job's
    /// explicit graph when it declares one (model parallelism), otherwise
    /// the §5.1 data-parallel encoding — a complete graph with weight from
    /// the batch class (4 = tiny .. 1 = big); single-GPU jobs get no edges.
    pub fn from_spec(spec: &JobSpec) -> Self {
        match &spec.comm_graph {
            Some(g) => {
                debug_assert_eq!(g.n_tasks(), spec.n_gpus as usize);
                g.clone()
            }
            None => Self::uniform(spec.n_gpus as usize, spec.batch.comm_weight()),
        }
    }

    /// A pipeline (chain) graph: task `i` exchanges activations with task
    /// `i+1` only — the layer-partitioned model parallelism of §2. Cutting
    /// any single chain edge is cheap, so the mapper can split a pipeline
    /// across sockets at one boundary without hurting the rest.
    ///
    /// ```
    /// use gts_job::JobGraph;
    ///
    /// let g = JobGraph::pipeline(4, 4.0);
    /// assert_eq!(g.edge_count(), 3);
    /// assert_eq!(g.weight(1, 2), 4.0);
    /// assert_eq!(g.weight(0, 2), 0.0); // non-adjacent stages don't talk
    /// ```
    pub fn pipeline(n: usize, w: f64) -> Self {
        assert!(n > 0, "a job has at least one task");
        assert!(
            w >= 0.0 && w.is_finite(),
            "weights must be finite and non-negative"
        );
        let mut weights = vec![0.0; n * n];
        for i in 0..n.saturating_sub(1) {
            weights[i * n + (i + 1)] = w;
            weights[(i + 1) * n + i] = w;
        }
        Self { n, weights }
    }

    /// A ring graph: task `i` talks to `(i±1) mod n` — the communication
    /// shape of a ring allreduce made explicit.
    pub fn ring(n: usize, w: f64) -> Self {
        assert!(n > 0, "a job has at least one task");
        assert!(
            w >= 0.0 && w.is_finite(),
            "weights must be finite and non-negative"
        );
        if n <= 2 {
            return Self::uniform(n, w);
        }
        let mut weights = vec![0.0; n * n];
        for i in 0..n {
            let j = (i + 1) % n;
            weights[i * n + j] = w;
            weights[j * n + i] = w;
        }
        Self { n, weights }
    }

    /// Arbitrary symmetric weights (model parallelism). The matrix must be
    /// square; it is symmetrized by averaging and the diagonal zeroed.
    pub fn custom(matrix: Vec<Vec<f64>>) -> Self {
        let n = matrix.len();
        assert!(n > 0, "a job has at least one task");
        assert!(matrix.iter().all(|r| r.len() == n), "matrix must be square");
        let mut weights = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    weights[i * n + j] = 0.5 * (matrix[i][j] + matrix[j][i]);
                }
            }
        }
        Self { n, weights }
    }

    /// Checks what the constructors guarantee but deserialization does not:
    /// at least one task, exactly `n²` weights, finite non-negative weights,
    /// a zero diagonal and exact symmetry. [`JobSpec::validate`] calls it,
    /// so a malformed graph in a trace or manifest is a load error rather
    /// than a panic (or a silently lopsided mapping) in the mapper.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n;
        if n == 0 {
            return Err("communication graph has no tasks".into());
        }
        if n.checked_mul(n) != Some(self.weights.len()) {
            return Err(format!(
                "communication graph over {n} tasks needs {n}² weights, got {}",
                self.weights.len()
            ));
        }
        for i in 0..n {
            for j in 0..n {
                let w = self.weight(i, j);
                if !w.is_finite() || w < 0.0 {
                    return Err(format!(
                        "communication weight ({i}, {j}) must be finite and non-negative, got {w}"
                    ));
                }
                if i == j && w != 0.0 {
                    return Err(format!(
                        "communication weight ({i}, {i}) must be 0, got {w}"
                    ));
                }
                if w != self.weight(j, i) {
                    return Err(format!(
                        "communication weights ({i}, {j}) = {w} and ({j}, {i}) = {} differ",
                        self.weight(j, i)
                    ));
                }
            }
        }
        Ok(())
    }

    /// Number of tasks (`|A|` in Algorithm 2).
    #[inline]
    pub fn n_tasks(&self) -> usize {
        self.n
    }

    /// Weight between tasks `i` and `j` (0 on the diagonal).
    #[inline]
    pub fn weight(&self, i: usize, j: usize) -> f64 {
        self.weights[i * self.n + j]
    }

    /// Number of nonzero-weight edges.
    pub fn edge_count(&self) -> usize {
        self.edges().count()
    }

    /// Iterates nonzero edges once each as `(i, j, w)` with `i < j`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n).flat_map(move |i| {
            ((i + 1)..self.n).filter_map(move |j| {
                let w = self.weight(i, j);
                (w > 0.0).then_some((i, j, w))
            })
        })
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> f64 {
        self.edges().map(|(_, _, w)| w).sum()
    }

    /// Mean edge weight normalized to (0, 1] against the tiny-batch maximum
    /// of 4.0 — the §4.1.1 "normalized by the total available bandwidth"
    /// communication level. Zero for single-task jobs.
    pub fn comm_level(&self) -> f64 {
        let edges = self.edge_count();
        if edges == 0 {
            return 0.0;
        }
        (self.total_weight() / edges as f64) / 4.0
    }

    /// Largest single edge weight (0 when there are no edges).
    pub fn max_weight(&self) -> f64 {
        self.edges().map(|(_, _, w)| w).fold(0.0, f64::max)
    }

    /// Total weight incident to one task.
    pub fn incident_weight(&self, task: usize) -> f64 {
        (0..self.n).map(|j| self.weight(task, j)).sum()
    }

    /// Weight of the cut between a task subset and the rest: the
    /// communication volume that a partition boundary would carry.
    pub fn cut_weight(&self, in_set: &[bool]) -> f64 {
        assert_eq!(in_set.len(), self.n);
        self.edges()
            .filter(|&(i, j, _)| in_set[i] != in_set[j])
            .map(|(_, _, w)| w)
            .sum()
    }

    /// Communication weight between one task and a set of tasks.
    pub fn weight_to_set(&self, task: usize, set: &[usize]) -> f64 {
        set.iter()
            .filter(|&&t| t != task)
            .map(|&t| self.weight(task, t))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchClass;
    use crate::model::NnModel;

    #[test]
    fn uniform_graph_shape() {
        let g = JobGraph::uniform(4, 3.0);
        assert_eq!(g.n_tasks(), 4);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.total_weight(), 18.0);
        assert_eq!(g.weight(0, 0), 0.0);
        assert_eq!(g.weight(1, 3), 3.0);
    }

    #[test]
    fn single_task_job_has_no_edges() {
        let g = JobGraph::uniform(1, 4.0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.comm_level(), 0.0);
    }

    #[test]
    fn from_spec_uses_batch_weight() {
        let spec = JobSpec::new(0, NnModel::AlexNet, BatchClass::Tiny, 2);
        let g = JobGraph::from_spec(&spec);
        assert_eq!(g.weight(0, 1), 4.0);
        assert_eq!(g.comm_level(), 1.0);

        let spec = JobSpec::new(1, NnModel::AlexNet, BatchClass::Big, 2);
        assert_eq!(JobGraph::from_spec(&spec).comm_level(), 0.25);
    }

    #[test]
    fn custom_graph_is_symmetrized() {
        let g = JobGraph::custom(vec![
            vec![0.0, 2.0, 0.0],
            vec![4.0, 0.0, 1.0],
            vec![0.0, 1.0, 9.0], // diagonal junk must be zeroed
        ]);
        assert_eq!(g.weight(0, 1), 3.0);
        assert_eq!(g.weight(1, 0), 3.0);
        assert_eq!(g.weight(2, 2), 0.0);
        assert_eq!(g.edge_count(), 2); // (0,1) and (1,2)
    }

    #[test]
    fn pipeline_is_a_chain() {
        let g = JobGraph::pipeline(4, 2.0);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.weight(0, 1), 2.0);
        assert_eq!(g.weight(1, 2), 2.0);
        assert_eq!(g.weight(0, 2), 0.0);
        assert_eq!(g.weight(0, 3), 0.0);
        assert_eq!(g.incident_weight(1), 4.0);
        assert_eq!(g.incident_weight(0), 2.0);
        // Cutting one chain edge costs exactly w.
        assert_eq!(g.cut_weight(&[true, true, false, false]), 2.0);
    }

    #[test]
    fn ring_closes_the_loop() {
        let g = JobGraph::ring(4, 1.0);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.weight(0, 3), 1.0);
        assert_eq!(g.weight(0, 2), 0.0);
        // Any bipartition of a ring cuts an even number of edges ≥ 2.
        assert_eq!(g.cut_weight(&[true, true, false, false]), 2.0);
        // Rings of 1–2 tasks degenerate to the uniform graph.
        assert_eq!(JobGraph::ring(2, 3.0), JobGraph::uniform(2, 3.0));
        assert_eq!(JobGraph::ring(1, 3.0).edge_count(), 0);
    }

    #[test]
    fn max_weight_finds_the_heaviest_edge() {
        let g = JobGraph::custom(vec![
            vec![0.0, 1.0, 5.0],
            vec![1.0, 0.0, 2.0],
            vec![5.0, 2.0, 0.0],
        ]);
        assert_eq!(g.max_weight(), 5.0);
        assert_eq!(JobGraph::uniform(1, 0.0).max_weight(), 0.0);
    }

    #[test]
    fn from_spec_prefers_the_explicit_graph() {
        let spec = JobSpec::new(0, NnModel::AlexNet, BatchClass::Tiny, 3)
            .with_comm_graph(JobGraph::pipeline(3, 4.0));
        let g = JobGraph::from_spec(&spec);
        assert_eq!(g.edge_count(), 2, "pipeline, not the uniform 3-clique");
        assert!(spec.validate().is_ok());
        // A mismatched graph is rejected.
        let bad = JobSpec::new(1, NnModel::AlexNet, BatchClass::Tiny, 2)
            .with_comm_graph(JobGraph::pipeline(3, 4.0));
        assert!(bad.validate().is_err());
    }

    #[test]
    fn comm_graph_survives_json() {
        let spec = JobSpec::new(0, NnModel::AlexNet, BatchClass::Tiny, 3)
            .with_comm_graph(JobGraph::ring(3, 2.0));
        let json = serde_json::to_string(&spec).unwrap();
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        // Plain jobs serialize without the field at all.
        let plain = JobSpec::new(1, NnModel::AlexNet, BatchClass::Tiny, 2);
        assert!(!serde_json::to_string(&plain)
            .unwrap()
            .contains("comm_graph"));
    }

    #[test]
    fn cut_weight_counts_crossing_edges_only() {
        let g = JobGraph::uniform(4, 1.0);
        // {0,1} vs {2,3}: 4 crossing edges.
        assert_eq!(g.cut_weight(&[true, true, false, false]), 4.0);
        // {0} vs rest: 3 crossing edges.
        assert_eq!(g.cut_weight(&[true, false, false, false]), 3.0);
        // no cut.
        assert_eq!(g.cut_weight(&[true, true, true, true]), 0.0);
    }

    #[test]
    fn weight_to_set_sums_incident_edges() {
        let g = JobGraph::uniform(4, 2.0);
        assert_eq!(g.weight_to_set(0, &[1, 2]), 4.0);
        assert_eq!(g.weight_to_set(0, &[0, 1]), 2.0); // self filtered out
        assert_eq!(g.weight_to_set(0, &[]), 0.0);
    }

    #[test]
    fn constructed_graphs_validate() {
        for g in [
            JobGraph::uniform(1, 4.0),
            JobGraph::uniform(4, 3.0),
            JobGraph::pipeline(5, 2.0),
            JobGraph::ring(6, 1.0),
            JobGraph::custom(vec![vec![0.0, 2.0], vec![4.0, 9.0]]),
        ] {
            assert_eq!(g.validate(), Ok(()), "{g:?}");
        }
    }

    #[test]
    fn malformed_graphs_fail_validation() {
        let graph = |n: usize, weights: Vec<f64>| JobGraph { n, weights };
        let cases = [
            ("no tasks", graph(0, vec![]), "no tasks"),
            (
                "short weights",
                graph(2, vec![0.0]),
                "needs 2² weights, got 1",
            ),
            (
                "long weights",
                graph(1, vec![0.0, 1.0]),
                "needs 1² weights, got 2",
            ),
            ("overflowing n", graph(usize::MAX, vec![]), "weights, got 0"),
            (
                "negative",
                graph(2, vec![0.0, -1.0, -1.0, 0.0]),
                "non-negative",
            ),
            (
                "NaN",
                graph(2, vec![0.0, f64::NAN, f64::NAN, 0.0]),
                "finite",
            ),
            (
                "infinite",
                graph(2, vec![0.0, f64::INFINITY, f64::INFINITY, 0.0]),
                "finite",
            ),
            (
                "diagonal",
                graph(2, vec![1.0, 2.0, 2.0, 0.0]),
                "(0, 0) must be 0",
            ),
            ("asymmetric", graph(2, vec![0.0, 2.0, 3.0, 0.0]), "differ"),
        ];
        for (name, g, message) in cases {
            let err = g.validate().expect_err(name);
            assert!(err.contains(message), "{name}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn zero_tasks_rejected() {
        JobGraph::uniform(0, 1.0);
    }
}
