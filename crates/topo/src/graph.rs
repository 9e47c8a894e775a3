//! General undirected weighted graph used for physical topologies.
//!
//! A small purpose-built adjacency-list graph: vertex payloads are
//! [`NodeKind`]s, edges carry a qualitative distance weight plus the
//! [`LinkKind`] of the physical interconnect they represent. The graph is
//! append-only (topologies are immutable once built), which lets queries hand
//! out indices that remain valid for the lifetime of the graph.

use crate::link::LinkKind;
use crate::node::NodeKind;
use serde::{Deserialize, Serialize};

/// Index of a vertex inside a [`TopoGraph`]. Plain `usize` newtype so it can
/// index vectors directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct NodeIdx(pub u32);

impl NodeIdx {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A half-edge stored in a vertex's adjacency list.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdgeRef {
    /// The vertex on the other end.
    pub to: NodeIdx,
    /// Qualitative distance weight (see [`crate::link::level_weight`]).
    pub weight: f64,
    /// The physical link this edge models.
    pub kind: LinkKind,
}

/// Undirected weighted multigraph over typed topology vertices.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopoGraph {
    nodes: Vec<NodeKind>,
    adjacency: Vec<Vec<EdgeRef>>,
    edge_count: usize,
}

impl TopoGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            adjacency: Vec::new(),
            edge_count: 0,
        }
    }

    /// Creates an empty graph with capacity for `n` vertices.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(n),
            adjacency: Vec::with_capacity(n),
            edge_count: 0,
        }
    }

    /// Adds a vertex and returns its index.
    pub fn add_node(&mut self, kind: NodeKind) -> NodeIdx {
        let idx = NodeIdx(self.nodes.len() as u32);
        self.nodes.push(kind);
        self.adjacency.push(Vec::new());
        idx
    }

    /// Adds an undirected edge between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of bounds, if `a == b` (the topology
    /// has no self-loops) or if `weight` is not finite and positive.
    pub fn add_edge(&mut self, a: NodeIdx, b: NodeIdx, weight: f64, kind: LinkKind) {
        assert!(
            a.index() < self.nodes.len(),
            "edge endpoint {a:?} out of bounds"
        );
        assert!(
            b.index() < self.nodes.len(),
            "edge endpoint {b:?} out of bounds"
        );
        assert_ne!(a, b, "self-loops are not allowed in a physical topology");
        assert!(
            weight.is_finite() && weight > 0.0,
            "edge weight must be finite and positive, got {weight}"
        );
        self.adjacency[a.index()].push(EdgeRef {
            to: b,
            weight,
            kind,
        });
        self.adjacency[b.index()].push(EdgeRef {
            to: a,
            weight,
            kind,
        });
        self.edge_count += 1;
    }

    /// Number of vertices.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The payload of vertex `idx`.
    #[inline]
    pub fn node(&self, idx: NodeIdx) -> NodeKind {
        self.nodes[idx.index()]
    }

    /// Adjacency list of vertex `idx`.
    #[inline]
    pub fn neighbors(&self, idx: NodeIdx) -> &[EdgeRef] {
        &self.adjacency[idx.index()]
    }

    /// Degree of vertex `idx`.
    #[inline]
    pub fn degree(&self, idx: NodeIdx) -> usize {
        self.adjacency[idx.index()].len()
    }

    /// Iterates over all vertices as `(index, kind)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeIdx, NodeKind)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, &k)| (NodeIdx(i as u32), k))
    }

    /// Iterates over every undirected edge exactly once as `(a, b, edge)`
    /// with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeIdx, NodeIdx, EdgeRef)> + '_ {
        self.adjacency.iter().enumerate().flat_map(move |(i, adj)| {
            let a = NodeIdx(i as u32);
            adj.iter()
                .filter(move |e| a < e.to)
                .map(move |&e| (a, e.to, e))
        })
    }

    /// Indices of all GPU leaf vertices, in insertion order.
    pub fn gpu_nodes(&self) -> Vec<NodeIdx> {
        self.nodes()
            .filter(|(_, k)| k.is_gpu())
            .map(|(i, _)| i)
            .collect()
    }

    /// Returns true if an edge of any kind directly connects `a` and `b`.
    pub fn has_edge(&self, a: NodeIdx, b: NodeIdx) -> bool {
        self.adjacency[a.index()].iter().any(|e| e.to == b)
    }

    /// Sum of all edge weights (each undirected edge counted once).
    pub fn total_edge_weight(&self) -> f64 {
        self.edges().map(|(_, _, e)| e.weight).sum()
    }

    /// Checks the multi-level weight discipline of §4.1.2: for every edge,
    /// the weight must be no smaller than the weight of any edge strictly
    /// deeper in the hierarchy. Returns a description of the first violation.
    ///
    /// This is a structural lint used by tests and by the synthetic builders;
    /// the mapping algorithm itself only requires the weights to be positive.
    pub fn validate_level_weights(&self) -> Result<(), String> {
        // Collect min weight per level-pair depth: depth of an edge is the
        // minimum level of its endpoints (closer to root = smaller).
        let mut deepest_weight_at: Vec<(u8, f64)> = self
            .edges()
            .map(|(a, b, e)| {
                let depth = self.node(a).level().min(self.node(b).level());
                (depth, e.weight)
            })
            .collect();
        deepest_weight_at.sort_by_key(|x| x.0);
        // Max weight among deeper edges must not exceed min weight among
        // shallower edges.
        for (i, &(depth_i, w_i)) in deepest_weight_at.iter().enumerate() {
            for &(depth_j, w_j) in &deepest_weight_at[i + 1..] {
                if depth_j > depth_i && w_j > w_i {
                    return Err(format!(
                        "edge at depth {depth_j} has weight {w_j} > weight {w_i} of an edge at shallower depth {depth_i}"
                    ));
                }
            }
        }
        Ok(())
    }
}

impl Default for TopoGraph {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{GpuId, SocketId};
    use crate::link::level_weight;

    fn tiny() -> (TopoGraph, NodeIdx, NodeIdx, NodeIdx) {
        let mut g = TopoGraph::new();
        let s = g.add_node(NodeKind::Socket(SocketId(0)));
        let g0 = g.add_node(NodeKind::Gpu(GpuId(0)));
        let g1 = g.add_node(NodeKind::Gpu(GpuId(1)));
        g.add_edge(s, g0, level_weight::GPU, LinkKind::NvLink { lanes: 2 });
        g.add_edge(s, g1, level_weight::GPU, LinkKind::NvLink { lanes: 2 });
        g.add_edge(g0, g1, level_weight::GPU, LinkKind::NvLink { lanes: 2 });
        (g, s, g0, g1)
    }

    #[test]
    fn counts_and_degrees() {
        let (g, s, g0, g1) = tiny();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(s), 2);
        assert_eq!(g.degree(g0), 2);
        assert_eq!(g.degree(g1), 2);
    }

    #[test]
    fn edges_iterated_once_each() {
        let (g, ..) = tiny();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for (a, b, _) in edges {
            assert!(a < b);
        }
    }

    #[test]
    fn gpu_nodes_found_in_order() {
        let (g, _, g0, g1) = tiny();
        assert_eq!(g.gpu_nodes(), vec![g0, g1]);
    }

    #[test]
    fn has_edge_is_symmetric() {
        let (g, s, g0, g1) = tiny();
        assert!(g.has_edge(g0, g1));
        assert!(g.has_edge(g1, g0));
        assert!(g.has_edge(s, g0));
        assert!(!g.has_edge(s, s));
    }

    #[test]
    fn total_edge_weight_sums_once() {
        let (g, ..) = tiny();
        assert!((g.total_edge_weight() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut g = TopoGraph::new();
        let n = g.add_node(NodeKind::Gpu(GpuId(0)));
        g.add_edge(n, n, 1.0, LinkKind::Containment);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn non_positive_weight_panics() {
        let mut g = TopoGraph::new();
        let a = g.add_node(NodeKind::Gpu(GpuId(0)));
        let b = g.add_node(NodeKind::Gpu(GpuId(1)));
        g.add_edge(a, b, 0.0, LinkKind::Containment);
    }

    #[test]
    fn level_weight_validation_accepts_paper_weights() {
        let (g, ..) = tiny();
        assert!(g.validate_level_weights().is_ok());
    }

    #[test]
    fn level_weight_validation_rejects_inversions() {
        let mut g = TopoGraph::new();
        let net = g.add_node(NodeKind::Network);
        let m = g.add_node(NodeKind::Machine(crate::ids::MachineId(0)));
        let s = g.add_node(NodeKind::Socket(SocketId(0)));
        let gpu = g.add_node(NodeKind::Gpu(GpuId(0)));
        // Network edge lighter than the GPU edge: inversion.
        g.add_edge(net, m, 1.0, LinkKind::Network);
        g.add_edge(m, s, 20.0, LinkKind::Containment);
        g.add_edge(s, gpu, 50.0, LinkKind::NvLink { lanes: 2 });
        assert!(g.validate_level_weights().is_err());
    }
}
