//! GPU affinity graphs — the partitioner's view of the physical topology.
//!
//! `physicalGraphBiPartition()` must split the available GPUs into two
//! topologically coherent halves (same socket together, same machine
//! together). Min-cut does that when edges encode *affinity* (closeness)
//! rather than distance: we use `affinity(i, j) = 1 / distance(i, j)`, so a
//! balanced minimum cut severs the weak long-distance couplings (the
//! inter-socket bus, the network) and keeps NVLink cliques intact.

use gts_topo::{GpuId, MachineTopology};

/// Dense symmetric affinity graph over an arbitrary set of GPUs.
#[derive(Debug, Clone)]
pub struct AffinityGraph {
    /// The GPU each vertex stands for, in vertex order.
    pub gpus: Vec<GpuId>,
    n: usize,
    weights: Vec<f64>,
}

impl AffinityGraph {
    /// Builds the affinity graph for `gpus` (a subset of one machine).
    pub fn from_machine(machine: &MachineTopology, gpus: &[GpuId]) -> Self {
        let n = gpus.len();
        let mut weights = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = machine.distance(gpus[i], gpus[j]);
                debug_assert!(d > 0.0, "distinct GPUs are at positive distance");
                let a = 1.0 / d;
                weights[i * n + j] = a;
                weights[j * n + i] = a;
            }
        }
        Self {
            gpus: gpus.to_vec(),
            n,
            weights,
        }
    }

    /// Builds an affinity graph from an explicit distance closure (used for
    /// cluster-wide sets where distances come from
    /// [`gts_topo::ClusterTopology`]).
    pub fn from_distances<F>(gpus: Vec<GpuId>, mut distance: F) -> Self
    where
        F: FnMut(usize, usize) -> f64,
    {
        let n = gpus.len();
        let mut weights = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = distance(i, j);
                assert!(d > 0.0, "distinct vertices need positive distance");
                let a = 1.0 / d;
                weights[i * n + j] = a;
                weights[j * n + i] = a;
            }
        }
        Self { gpus, n, weights }
    }

    /// Like [`AffinityGraph::from_distances`], but filling previously
    /// allocated buffers instead of allocating. The DRB recursion builds
    /// one graph per level, so reusing the `n × n` matrix removes the
    /// largest allocation from the mapper's hot path; buffers come back
    /// out through [`AffinityGraph::into_buffers`].
    pub fn from_distances_reusing<F>(
        source: &[GpuId],
        mut gpus: Vec<GpuId>,
        mut weights: Vec<f64>,
        mut distance: F,
    ) -> Self
    where
        F: FnMut(usize, usize) -> f64,
    {
        gpus.clear();
        gpus.extend_from_slice(source);
        let n = gpus.len();
        weights.clear();
        weights.resize(n * n, 0.0);
        for i in 0..n {
            for j in (i + 1)..n {
                let d = distance(i, j);
                assert!(d > 0.0, "distinct vertices need positive distance");
                let a = 1.0 / d;
                weights[i * n + j] = a;
                weights[j * n + i] = a;
            }
        }
        Self { gpus, n, weights }
    }

    /// Decomposes the graph into its `(gpus, weights)` buffers so a caller
    /// can reuse the allocations for the next build.
    pub fn into_buffers(self) -> (Vec<GpuId>, Vec<f64>) {
        (self.gpus, self.weights)
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Affinity between vertices `i` and `j` (0 on the diagonal).
    #[inline]
    pub fn affinity(&self, i: usize, j: usize) -> f64 {
        self.weights[i * self.n + j]
    }

    /// Sum of affinities between vertex `i` and every vertex in `side`.
    pub fn affinity_to_side(&self, i: usize, side: &[bool], value: bool) -> f64 {
        (0..self.n)
            .filter(|&j| j != i && side[j] == value)
            .map(|j| self.affinity(i, j))
            .sum()
    }

    /// Total affinity crossing a bipartition — the FM cut objective.
    pub fn cut(&self, side: &[bool]) -> f64 {
        assert_eq!(side.len(), self.n);
        let mut total = 0.0;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if side[i] != side[j] {
                    total += self.affinity(i, j);
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_topo::power8_minsky;

    fn all_gpus(m: &MachineTopology) -> Vec<GpuId> {
        m.gpus().collect()
    }

    #[test]
    fn affinity_is_inverse_distance() {
        let m = power8_minsky();
        let g = AffinityGraph::from_machine(&m, &all_gpus(&m));
        assert_eq!(g.affinity(0, 1), 1.0); // same socket, distance 1
        assert!((g.affinity(0, 2) - 1.0 / 22.0).abs() < 1e-12); // cross socket
        assert_eq!(g.affinity(1, 0), g.affinity(0, 1));
        assert_eq!(g.affinity(2, 2), 0.0);
    }

    #[test]
    fn socket_split_is_the_minimum_balanced_cut() {
        let m = power8_minsky();
        let g = AffinityGraph::from_machine(&m, &all_gpus(&m));
        let socket_cut = g.cut(&[true, true, false, false]);
        let mixed_cut = g.cut(&[true, false, true, false]);
        let other_mixed = g.cut(&[true, false, false, true]);
        assert!(socket_cut < mixed_cut);
        assert!(socket_cut < other_mixed);
    }

    #[test]
    fn affinity_to_side_sums_correctly() {
        let m = power8_minsky();
        let g = AffinityGraph::from_machine(&m, &all_gpus(&m));
        let side = [true, true, false, false];
        // GPU0 to its own side: just GPU1.
        assert_eq!(g.affinity_to_side(0, &side, true), 1.0);
        // GPU0 to the far side: GPU2 + GPU3.
        assert!((g.affinity_to_side(0, &side, false) - 2.0 / 22.0).abs() < 1e-12);
    }

    #[test]
    fn subset_graphs_reindex_vertices() {
        let m = power8_minsky();
        let g = AffinityGraph::from_machine(&m, &[GpuId(1), GpuId(3)]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.gpus, vec![GpuId(1), GpuId(3)]);
        assert!((g.affinity(0, 1) - 1.0 / 22.0).abs() < 1e-12);
    }

    #[test]
    fn from_distances_closure() {
        let g = AffinityGraph::from_distances(vec![GpuId(0), GpuId(1), GpuId(2)], |i, j| {
            ((i + j) * 2) as f64
        });
        assert!((g.affinity(0, 1) - 0.5).abs() < 1e-12);
        assert!((g.affinity(1, 2) - 1.0 / 6.0).abs() < 1e-12);
    }
}
