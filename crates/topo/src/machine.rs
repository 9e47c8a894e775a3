//! A single machine's physical GPU topology.
//!
//! Wraps the raw [`TopoGraph`] with the queries the scheduler actually needs:
//! GPU enumeration, socket membership, pairwise distances (precomputed),
//! the best-case Eq. 3 cost per GPU count (filled lazily) and full path
//! lookups.

use crate::graph::{NodeIdx, TopoGraph};
use crate::ids::{GpuId, SocketId};
use crate::paths::{shortest_path, GpuDistanceMatrix, PathInfo};
use std::sync::OnceLock;

/// Immutable physical topology of one machine.
///
/// Built once by the [`crate::builders`] and shared (`Arc`) across the
/// scheduler, simulator and performance model. All queries are `O(1)` except
/// [`MachineTopology::path`], which runs Dijkstra on demand.
#[derive(Debug, Clone)]
pub struct MachineTopology {
    name: String,
    graph: TopoGraph,
    machine_node: NodeIdx,
    socket_nodes: Vec<NodeIdx>,
    gpu_nodes: Vec<NodeIdx>,
    socket_of: Vec<SocketId>,
    distances: GpuDistanceMatrix,
    /// `best_cost[n]`: [`MachineTopology::best_pairwise_cost`], filled on
    /// first use per `n` (a DGX-2's full table is ~2M distance reads).
    best_cost: Box<[OnceLock<f64>]>,
}

impl MachineTopology {
    /// Assembles a machine topology from a finished graph.
    ///
    /// `gpu_nodes[i]` must be the vertex of `GpuId(i)` and `socket_of[i]` its
    /// socket. Used by the builders; downstream code should prefer those.
    ///
    /// # Panics
    ///
    /// Panics if the id mappings are inconsistent with the graph or if any
    /// GPU pair is mutually unreachable.
    pub fn from_parts(
        name: impl Into<String>,
        graph: TopoGraph,
        machine_node: NodeIdx,
        socket_nodes: Vec<NodeIdx>,
        gpu_nodes: Vec<NodeIdx>,
        socket_of: Vec<SocketId>,
    ) -> Self {
        assert_eq!(
            gpu_nodes.len(),
            socket_of.len(),
            "each GPU needs a socket assignment"
        );
        for (i, &n) in gpu_nodes.iter().enumerate() {
            assert_eq!(
                graph.node(n).as_gpu(),
                Some(GpuId(i as u32)),
                "gpu_nodes[{i}] does not hold GPU{i}"
            );
        }
        let distances = GpuDistanceMatrix::build(&graph);
        assert_eq!(distances.gpu_nodes, gpu_nodes, "GPU vertex order mismatch");
        for i in 0..gpu_nodes.len() {
            for j in 0..gpu_nodes.len() {
                assert!(
                    distances.distance(i, j).is_finite(),
                    "GPU{i} cannot reach GPU{j}: disconnected topology"
                );
            }
        }
        let best_cost = (0..=gpu_nodes.len()).map(|_| OnceLock::new()).collect();
        Self {
            name: name.into(),
            graph,
            machine_node,
            socket_nodes,
            gpu_nodes,
            socket_of,
            distances,
            best_cost,
        }
    }

    /// Human-readable model name ("power8-minsky", "dgx-1", ...).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying multi-level graph.
    pub fn graph(&self) -> &TopoGraph {
        &self.graph
    }

    /// The machine root vertex.
    pub fn machine_node(&self) -> NodeIdx {
        self.machine_node
    }

    /// Number of GPUs.
    pub fn n_gpus(&self) -> usize {
        self.gpu_nodes.len()
    }

    /// Number of CPU sockets.
    pub fn n_sockets(&self) -> usize {
        self.socket_nodes.len()
    }

    /// All GPU ids on this machine, ascending.
    pub fn gpus(&self) -> impl Iterator<Item = GpuId> + '_ {
        (0..self.gpu_nodes.len() as u32).map(GpuId)
    }

    /// All socket ids, ascending.
    pub fn sockets(&self) -> impl Iterator<Item = SocketId> + '_ {
        (0..self.socket_nodes.len() as u32).map(SocketId)
    }

    /// The graph vertex of a GPU.
    pub fn gpu_node(&self, gpu: GpuId) -> NodeIdx {
        self.gpu_nodes[gpu.index()]
    }

    /// The graph vertex of a socket.
    pub fn socket_node(&self, socket: SocketId) -> NodeIdx {
        self.socket_nodes[socket.index()]
    }

    /// The socket a GPU hangs off.
    pub fn socket_of(&self, gpu: GpuId) -> SocketId {
        self.socket_of[gpu.index()]
    }

    /// GPUs attached to `socket`, ascending.
    pub fn gpus_in_socket(&self, socket: SocketId) -> Vec<GpuId> {
        self.gpus().filter(|&g| self.socket_of(g) == socket).collect()
    }

    /// Qualitative distance between two GPUs (0 for the same GPU).
    pub fn distance(&self, a: GpuId, b: GpuId) -> f64 {
        self.distances.distance(a.index(), b.index())
    }

    /// Eq. 3 communication cost for a candidate GPU set: sum of pairwise
    /// distances over all unordered pairs.
    pub fn pairwise_cost(&self, gpus: &[GpuId]) -> f64 {
        let idx: Vec<usize> = gpus.iter().map(|g| g.index()).collect();
        self.distances.pairwise_cost(&idx)
    }

    /// The minimal Eq. 3 cost of any `n`-GPU subset of this machine when
    /// empty — the normalisation numerator of `u_cc`. The first call for
    /// each `n` brute-forces the `C(n_gpus, n)` subsets; later calls read
    /// the stored answer. It depends on the topology alone, and machines of
    /// one kind share one `Arc`, so each kind pays once per width.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the machine's GPU count.
    pub fn best_pairwise_cost(&self, n: usize) -> f64 {
        assert!(n <= self.n_gpus(), "machine cannot host {n} GPUs");
        *self.best_cost[n].get_or_init(|| self.min_subset_cost(n))
    }

    /// Brute force behind [`MachineTopology::best_pairwise_cost`]: walks the
    /// `n`-combinations of GPU indices in lexicographic order.
    fn min_subset_cost(&self, n: usize) -> f64 {
        if n <= 1 {
            return 0.0;
        }
        let total = self.n_gpus();
        let mut best = f64::INFINITY;
        let mut idx: Vec<usize> = (0..n).collect();
        loop {
            best = best.min(self.distances.pairwise_cost(&idx));
            // Next combination: bump the last index that has room, then
            // pack the ones after it.
            let Some(i) = (0..n).rev().find(|&i| idx[i] != i + total - n) else {
                return best;
            };
            idx[i] += 1;
            for j in (i + 1)..n {
                idx[j] = idx[j - 1] + 1;
            }
        }
    }

    /// Smallest nonzero pairwise distance on this machine — the best case a
    /// 2-GPU job can hope for. Used to normalize utilities.
    pub fn min_pair_distance(&self) -> f64 {
        let n = self.n_gpus();
        let mut best = f64::INFINITY;
        for i in 0..n {
            for j in (i + 1)..n {
                best = best.min(self.distances.distance(i, j));
            }
        }
        best
    }

    /// Largest pairwise distance on this machine — the worst case, used as
    /// the Eq. 1 normalization denominator `t_w`.
    pub fn max_pair_distance(&self) -> f64 {
        let n = self.n_gpus();
        let mut worst: f64 = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                worst = worst.max(self.distances.distance(i, j));
            }
        }
        worst
    }

    /// Full route between two GPUs (Dijkstra on demand).
    pub fn path(&self, a: GpuId, b: GpuId) -> PathInfo {
        shortest_path(&self.graph, self.gpu_node(a), self.gpu_node(b))
            .expect("machine topologies are connected by construction")
    }

    /// True when `a` and `b` can talk over direct P2P (NVLink edge or a
    /// switch-only route).
    pub fn is_p2p(&self, a: GpuId, b: GpuId) -> bool {
        self.path(a, b).is_p2p(&self.graph)
    }

    /// Bottleneck bandwidth of the cheapest route between two GPUs, GB/s.
    pub fn pair_bandwidth_gbs(&self, a: GpuId, b: GpuId) -> f64 {
        self.path(a, b).bottleneck_bandwidth_gbs()
    }

    /// True when the GPU set fits entirely inside one socket.
    pub fn is_packed(&self, gpus: &[GpuId]) -> bool {
        match gpus.split_first() {
            None => true,
            Some((&first, rest)) => {
                let s = self.socket_of(first);
                rest.iter().all(|&g| self.socket_of(g) == s)
            }
        }
    }

    /// Number of distinct sockets a GPU set spans.
    pub fn sockets_spanned(&self, gpus: &[GpuId]) -> usize {
        let mut seen: Vec<SocketId> = gpus.iter().map(|&g| self.socket_of(g)).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{dgx1, dgx2, power8_minsky, power8_pcie_k80};

    #[test]
    fn minsky_shape() {
        let m = power8_minsky();
        assert_eq!(m.n_gpus(), 4);
        assert_eq!(m.n_sockets(), 2);
        assert_eq!(m.name(), "power8-minsky");
        assert_eq!(m.socket_of(GpuId(0)), SocketId(0));
        assert_eq!(m.socket_of(GpuId(1)), SocketId(0));
        assert_eq!(m.socket_of(GpuId(2)), SocketId(1));
        assert_eq!(m.socket_of(GpuId(3)), SocketId(1));
        assert_eq!(m.gpus_in_socket(SocketId(0)), vec![GpuId(0), GpuId(1)]);
    }

    #[test]
    fn minsky_pack_beats_spread() {
        let m = power8_minsky();
        assert!(m.distance(GpuId(0), GpuId(1)) < m.distance(GpuId(0), GpuId(2)));
        assert!(m.is_packed(&[GpuId(0), GpuId(1)]));
        assert!(!m.is_packed(&[GpuId(1), GpuId(2)]));
        assert_eq!(m.sockets_spanned(&[GpuId(0), GpuId(3)]), 2);
        assert_eq!(m.sockets_spanned(&[GpuId(2), GpuId(3)]), 1);
        assert_eq!(m.sockets_spanned(&[]), 0);
    }

    #[test]
    fn minsky_p2p_classification() {
        let m = power8_minsky();
        assert!(m.is_p2p(GpuId(0), GpuId(1)));
        assert!(!m.is_p2p(GpuId(0), GpuId(2)));
        assert_eq!(m.pair_bandwidth_gbs(GpuId(0), GpuId(1)), 40.0);
    }

    #[test]
    fn pcie_variant_has_no_p2p_nvlink_edges() {
        let m = power8_pcie_k80();
        // Intra-socket still cheaper than cross-socket...
        assert!(m.distance(GpuId(0), GpuId(1)) < m.distance(GpuId(0), GpuId(2)));
        // ...but bandwidth is PCIe-limited.
        assert!(m.pair_bandwidth_gbs(GpuId(0), GpuId(1)) <= 16.0);
    }

    #[test]
    fn min_max_pair_distance() {
        let m = power8_minsky();
        assert_eq!(m.min_pair_distance(), 1.0);
        assert_eq!(m.max_pair_distance(), 22.0);
    }

    #[test]
    fn dgx1_shape() {
        let d = dgx1();
        assert_eq!(d.n_gpus(), 8);
        assert_eq!(d.n_sockets(), 2);
        // Quads live on their own sockets.
        for g in 0..4u32 {
            assert_eq!(d.socket_of(GpuId(g)), SocketId(0));
            assert_eq!(d.socket_of(GpuId(g + 4)), SocketId(1));
        }
    }

    #[test]
    fn dgx1_quad_is_mutually_nvlinked() {
        let d = dgx1();
        for a in 0..4u32 {
            for b in (a + 1)..4 {
                assert_eq!(d.distance(GpuId(a), GpuId(b)), 1.0, "GPU{a}-GPU{b}");
                assert!(d.is_p2p(GpuId(a), GpuId(b)));
            }
        }
    }

    #[test]
    fn dgx1_cross_links_exist() {
        let d = dgx1();
        // Paired cross links (0,4), (1,5), (2,6), (3,7) are direct NVLink.
        for g in 0..4u32 {
            assert_eq!(d.distance(GpuId(g), GpuId(g + 4)), 1.0);
        }
        // Unpaired cross-socket GPUs must route indirectly.
        assert!(d.distance(GpuId(0), GpuId(5)) > 1.0);
    }

    /// Minimum of `pairwise_cost` over every `n`-subset, enumerated by
    /// bitmask — independent of the combination walk the method uses.
    fn bitmask_best_cost(m: &MachineTopology, n: usize) -> f64 {
        let gpus: Vec<GpuId> = m.gpus().collect();
        if n <= 1 {
            return 0.0;
        }
        (0u32..1 << gpus.len())
            .filter(|mask| mask.count_ones() as usize == n)
            .map(|mask| {
                let subset: Vec<GpuId> = gpus
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| mask & 1 << i != 0)
                    .map(|(_, &g)| g)
                    .collect();
                m.pairwise_cost(&subset)
            })
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn best_pairwise_cost_matches_bitmask_enumeration() {
        for m in [power8_minsky(), dgx1(), dgx2(), power8_pcie_k80()] {
            for n in 0..=m.n_gpus() {
                let expected = bitmask_best_cost(&m, n);
                // Twice: the first call fills the table, the second reads it.
                for _ in 0..2 {
                    assert_eq!(
                        m.best_pairwise_cost(n).to_bits(),
                        expected.to_bits(),
                        "{} n={n}",
                        m.name()
                    );
                }
            }
        }
    }

    #[test]
    fn best_possible_cost_on_minsky() {
        let m = power8_minsky();
        assert_eq!(m.best_pairwise_cost(0), 0.0);
        assert_eq!(m.best_pairwise_cost(1), 0.0);
        assert_eq!(m.best_pairwise_cost(2), 1.0); // NVLink pair
        // 3 GPUs: best is a pair plus a cross-socket GPU: 1 + 22 + 22.
        assert_eq!(m.best_pairwise_cost(3), 45.0);
        // All 4: 2 pairs + 4 cross pairs.
        assert_eq!(m.best_pairwise_cost(4), 2.0 + 4.0 * 22.0);
    }

    #[test]
    #[should_panic(expected = "cannot host 5 GPUs")]
    fn best_pairwise_cost_rejects_oversized_sets() {
        power8_minsky().best_pairwise_cost(5);
    }

    #[test]
    fn pairwise_cost_matches_manual_sum() {
        let m = power8_minsky();
        let set = [GpuId(0), GpuId(1), GpuId(2)];
        let manual = m.distance(GpuId(0), GpuId(1))
            + m.distance(GpuId(0), GpuId(2))
            + m.distance(GpuId(1), GpuId(2));
        assert_eq!(m.pairwise_cost(&set), manual);
    }
}
