//! Shortest-path machinery over the physical topology graph.
//!
//! The paper defines the distance between two GPUs as "the sum of the weight
//! of the edges of the path" (§4.1.2) and uses the *combinatorial shortest
//! paths between all GPUs within the solution* as the communication cost
//! (Eq. 3). This module provides Dijkstra over the qualitative weights, an
//! all-pairs GPU distance matrix, and per-path physical characteristics
//! (bottleneck bandwidth, whether the route preserves P2P) consumed by the
//! performance model.

use crate::graph::{NodeIdx, TopoGraph};
use crate::link::LinkKind;
use crate::node::NodeKind;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A `f64` cost that implements `Ord` for use inside a binary heap.
/// Costs are always finite and non-negative here.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cost(f64);

impl Eq for Cost {}

impl PartialOrd for Cost {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cost {
    fn cmp(&self, other: &Self) -> Ordering {
        // Finite, non-NaN by construction.
        self.0
            .partial_cmp(&other.0)
            .expect("path costs are never NaN")
    }
}

/// Full description of the cheapest route between two GPUs.
#[derive(Debug, Clone, PartialEq)]
pub struct PathInfo {
    /// Sum of qualitative edge weights along the route (the paper's
    /// "distance").
    pub distance: f64,
    /// Vertices along the route, endpoints included.
    pub vertices: Vec<NodeIdx>,
    /// Physical links traversed, in order.
    pub links: Vec<LinkKind>,
}

impl PathInfo {
    /// Peak bandwidth of the narrowest link on the route, in GB/s.
    pub fn bottleneck_bandwidth_gbs(&self) -> f64 {
        self.links
            .iter()
            .map(|l| l.peak_bandwidth_gbs())
            .fold(f64::INFINITY, f64::min)
    }

    /// Number of physical hops.
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }

    /// True when the route supports direct peer-to-peer DMA: every
    /// intermediate vertex is a switch (PCIe switches forward P2P), i.e. the
    /// route never bounces through a socket, machine or network vertex, and
    /// no traversed link breaks P2P.
    pub fn is_p2p(&self, graph: &TopoGraph) -> bool {
        // No transit vertices on a GPU's route to itself.
        let transit = self.vertices.get(1..self.vertices.len().saturating_sub(1));
        let through_host = transit
            .unwrap_or_default()
            .iter()
            .any(|&v| !matches!(graph.node(v), NodeKind::Switch { .. } | NodeKind::Gpu(_)));
        !through_host && !self.links.iter().any(|l| l.breaks_p2p())
    }
}

/// Single-source Dijkstra: returns `(distances, predecessors)` indexed by
/// vertex. Unreachable vertices get `f64::INFINITY` / `None`.
///
/// GPU vertices are terminal: paths may start or end at a GPU but never
/// transit *through* one, because P100-generation NVLink endpoints do not
/// forward traffic (the paper: non-linked DGX-1 pairs "go over the PCI-e
/// switches and the system bus", not through a neighbouring GPU).
pub fn dijkstra(graph: &TopoGraph, source: NodeIdx) -> (Vec<f64>, Vec<Option<NodeIdx>>) {
    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut pred: Vec<Option<NodeIdx>> = vec![None; n];
    let mut heap: BinaryHeap<std::cmp::Reverse<(Cost, NodeIdx)>> = BinaryHeap::new();

    dist[source.index()] = 0.0;
    heap.push(std::cmp::Reverse((Cost(0.0), source)));

    while let Some(std::cmp::Reverse((Cost(d), u))) = heap.pop() {
        if d > dist[u.index()] {
            continue; // stale entry
        }
        if u != source && graph.node(u).is_gpu() {
            continue; // GPUs are endpoints, never routers
        }
        for edge in graph.neighbors(u) {
            let nd = d + edge.weight;
            if nd < dist[edge.to.index()] {
                dist[edge.to.index()] = nd;
                pred[edge.to.index()] = Some(u);
                heap.push(std::cmp::Reverse((Cost(nd), edge.to)));
            }
        }
    }
    (dist, pred)
}

/// Reconstructs the cheapest route from `source` to `target` with full link
/// detail. Returns `None` if `target` is unreachable.
pub fn shortest_path(graph: &TopoGraph, source: NodeIdx, target: NodeIdx) -> Option<PathInfo> {
    let (dist, pred) = dijkstra(graph, source);
    let path = trace_path(graph, &dist, &pred, target)?;
    debug_assert_eq!(path.vertices[0], source);
    Some(path)
}

/// The cheapest route to `target` from one [`dijkstra`] run's
/// `(distances, predecessors)`, with full link detail: what
/// [`shortest_path`] returns, without re-running Dijkstra for each target
/// of one source. Returns `None` if `target` is unreachable.
pub(crate) fn trace_path(
    graph: &TopoGraph,
    dist: &[f64],
    pred: &[Option<NodeIdx>],
    target: NodeIdx,
) -> Option<PathInfo> {
    if dist[target.index()].is_infinite() {
        return None;
    }
    let mut vertices = vec![target];
    let mut cur = target;
    while let Some(p) = pred[cur.index()] {
        vertices.push(p);
        cur = p;
    }
    vertices.reverse();

    let mut links = Vec::with_capacity(vertices.len().saturating_sub(1));
    for pair in vertices.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        // Among parallel edges pick the one consistent with the shortest
        // path: minimal weight, tie-broken by highest bandwidth.
        let edge = graph
            .neighbors(a)
            .iter()
            .filter(|e| e.to == b)
            .min_by(|x, y| {
                x.weight
                    .partial_cmp(&y.weight)
                    .unwrap_or(Ordering::Equal)
                    .then(
                        y.kind
                            .peak_bandwidth_gbs()
                            .partial_cmp(&x.kind.peak_bandwidth_gbs())
                            .unwrap_or(Ordering::Equal),
                    )
            })
            .expect("predecessor chain implies an edge");
        links.push(edge.kind);
    }
    Some(PathInfo {
        distance: dist[target.index()],
        vertices,
        links,
    })
}

/// Dense all-pairs GPU-to-GPU distance matrix.
///
/// `matrix[i][j]` is the qualitative distance between the i-th and j-th GPU
/// of `gpu_nodes` (diagonal is 0). Computed with one Dijkstra per GPU:
/// `O(|V_gpu| · E log V)`.
#[derive(Debug, Clone)]
pub struct GpuDistanceMatrix {
    /// The GPU vertices the matrix rows/columns refer to.
    pub gpu_nodes: Vec<NodeIdx>,
    dist: Vec<f64>,
    n: usize,
}

impl GpuDistanceMatrix {
    /// Builds the matrix for all GPU leaves of `graph`.
    pub fn build(graph: &TopoGraph) -> Self {
        let gpu_nodes = graph.gpu_nodes();
        let n = gpu_nodes.len();
        let mut dist = vec![0.0; n * n];
        for (i, &src) in gpu_nodes.iter().enumerate() {
            let (d, _) = dijkstra(graph, src);
            for (j, &dst) in gpu_nodes.iter().enumerate() {
                dist[i * n + j] = d[dst.index()];
            }
        }
        Self { gpu_nodes, dist, n }
    }

    /// Number of GPUs covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the machine has no GPUs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Distance between the `i`-th and `j`-th GPU (matrix indices, not ids).
    #[inline]
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        self.dist[i * self.n + j]
    }

    /// The paper's Eq. 3 communication cost of an allocation: sum of pairwise
    /// distances over all unordered GPU pairs given by matrix indices.
    pub fn pairwise_cost(&self, indices: &[usize]) -> f64 {
        let mut total = 0.0;
        for (a, &i) in indices.iter().enumerate() {
            for &j in &indices[a + 1..] {
                total += self.distance(i, j);
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{dgx1, power8_minsky};
    use crate::ids::GpuId;

    #[test]
    fn minsky_same_socket_gpus_are_one_hop() {
        let m = power8_minsky();
        let p = shortest_path(m.graph(), m.gpu_node(GpuId(0)), m.gpu_node(GpuId(1))).unwrap();
        // Direct dual-NVLink edge, weight 1.
        assert_eq!(p.distance, 1.0);
        assert_eq!(p.hop_count(), 1);
        assert!(p.is_p2p(m.graph()));
        assert_eq!(p.bottleneck_bandwidth_gbs(), 40.0);
    }

    #[test]
    fn minsky_cross_socket_gpus_route_through_sockets() {
        let m = power8_minsky();
        let p = shortest_path(m.graph(), m.gpu_node(GpuId(0)), m.gpu_node(GpuId(2))).unwrap();
        // GPU0 -S0- (bus) -S1- GPU2: 1 + 20 + 1 = 22.
        assert_eq!(p.distance, 22.0);
        assert!(!p.is_p2p(m.graph()));
        // Bottleneck is the inter-socket bus.
        assert_eq!(p.bottleneck_bandwidth_gbs(), 32.0);
    }

    #[test]
    fn minsky_distance_matrix_is_symmetric_with_zero_diagonal() {
        let m = power8_minsky();
        let dm = GpuDistanceMatrix::build(m.graph());
        assert_eq!(dm.len(), 4);
        for i in 0..4 {
            assert_eq!(dm.distance(i, i), 0.0);
            for j in 0..4 {
                assert_eq!(dm.distance(i, j), dm.distance(j, i));
            }
        }
    }

    #[test]
    fn minsky_pack_cost_lower_than_spread_cost() {
        let m = power8_minsky();
        let dm = GpuDistanceMatrix::build(m.graph());
        let pack = dm.pairwise_cost(&[0, 1]); // same socket
        let spread = dm.pairwise_cost(&[0, 2]); // cross socket
        assert!(pack < spread, "pack {pack} !< spread {spread}");
    }

    #[test]
    fn eq3_cost_sums_all_pairs() {
        let m = power8_minsky();
        let dm = GpuDistanceMatrix::build(m.graph());
        let all = dm.pairwise_cost(&[0, 1, 2, 3]);
        let manual: f64 = (0..4)
            .flat_map(|i| ((i + 1)..4).map(move |j| (i, j)))
            .map(|(i, j)| dm.distance(i, j))
            .sum();
        assert_eq!(all, manual);
    }

    #[test]
    fn dgx1_cube_neighbors_are_p2p() {
        let d = dgx1();
        // GPU0-GPU1 share an NVLink cube edge.
        let p = shortest_path(d.graph(), d.gpu_node(GpuId(0)), d.gpu_node(GpuId(1))).unwrap();
        assert_eq!(p.distance, 1.0);
        assert!(p.is_p2p(d.graph()));
    }

    #[test]
    fn dgx1_non_nvlink_pair_routes_via_pcie_switches() {
        let d = dgx1();
        // GPU0 and GPU3's connectivity: in our cube-mesh GPU0-GPU3 has a
        // direct NVLink (face diagonal) but GPU1-GPU4 does not (cross
        // socket); it must go over switches + sockets.
        let p = shortest_path(d.graph(), d.gpu_node(GpuId(1)), d.gpu_node(GpuId(4))).unwrap();
        assert!(p.distance > 1.0);
    }

    #[test]
    fn unreachable_returns_none() {
        use crate::graph::TopoGraph;
        use crate::node::NodeKind;
        let mut g = TopoGraph::new();
        let a = g.add_node(NodeKind::Gpu(GpuId(0)));
        let b = g.add_node(NodeKind::Gpu(GpuId(1)));
        assert!(shortest_path(&g, a, b).is_none());
    }
}
