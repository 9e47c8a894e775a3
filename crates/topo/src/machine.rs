//! A single machine's physical GPU topology.
//!
//! Wraps the raw [`TopoGraph`] with the queries the scheduler actually needs:
//! GPU enumeration, socket membership, pairwise distances (precomputed),
//! each GPU pair's route, the best-case Eq. 3 subset per GPU count and each
//! socket's GPU mask (all filled lazily) and full path lookups.

use crate::graph::{NodeIdx, TopoGraph};
use crate::ids::{GpuId, SocketId};
use crate::paths::{dijkstra, shortest_path, trace_path, GpuDistanceMatrix, PathInfo};
use std::sync::OnceLock;

/// Immutable physical topology of one machine.
///
/// Built once by the [`crate::builders`] and shared (`Arc`) across the
/// scheduler, simulator and performance model. Every query but
/// [`MachineTopology::path`] (Dijkstra on demand) reads a table: the
/// distances are built with the machine, while the route table, the
/// best-subset table and the socket masks fill on first use (DESIGN.md
/// §13.6, §13.7), so the first [`MachineTopology::route`] pays one
/// Dijkstra per GPU and the first [`MachineTopology::best_subset`] of a
/// width walks its subsets.
#[derive(Debug, Clone)]
pub struct MachineTopology {
    name: String,
    graph: TopoGraph,
    machine_node: NodeIdx,
    socket_nodes: Vec<NodeIdx>,
    gpu_nodes: Vec<NodeIdx>,
    socket_of: Vec<SocketId>,
    distances: GpuDistanceMatrix,
    /// `routes[a * n_gpus + b]`: [`MachineTopology::route`], filled whole
    /// on first use.
    routes: OnceLock<Box<[PairRoute]>>,
    /// `best[n]`: [`MachineTopology::best_subset`] and its cost, filled on
    /// first use per `n` (a DGX-2's full table is ~2M distance reads).
    best: Box<[OnceLock<BestSubset>]>,
    /// `socket_masks[s]`: [`MachineTopology::socket_masks`], filled on
    /// first use.
    socket_masks: OnceLock<Box<[u128]>>,
}

/// The physical character of the cheapest route between two GPUs: what the
/// performance model reads of a [`PathInfo`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairRoute {
    /// The route supports direct peer-to-peer DMA ([`PathInfo::is_p2p`]).
    pub p2p: bool,
    /// Peak bandwidth of its narrowest link, GB/s
    /// ([`PathInfo::bottleneck_bandwidth_gbs`]; infinite from a GPU to
    /// itself).
    pub bandwidth_gbs: f64,
}

/// The first minimal-cost `n`-subset of an empty machine, in lexicographic
/// order of GPU indices, and its Eq. 3 cost.
#[derive(Debug, Clone)]
struct BestSubset {
    cost: f64,
    gpus: Box<[GpuId]>,
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
        let best = (0..=gpu_nodes.len()).map(|_| OnceLock::new()).collect();
        Self {
            name: name.into(),
            graph,
            machine_node,
            socket_nodes,
            gpu_nodes,
            socket_of,
            distances,
            routes: OnceLock::new(),
            best,
            socket_masks: OnceLock::new(),
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
        self.gpus()
            .filter(|&g| self.socket_of(g) == socket)
            .collect()
    }

    /// Each socket's GPUs as a bitmask (bit `g` set ⇔ `GpuId(g)` hangs off
    /// the socket), in socket order. The first call fills the table;
    /// machines of one kind share one `Arc`, so each kind pays once.
    ///
    /// # Panics
    ///
    /// Panics if the machine has more than 128 GPUs, the width of a mask
    /// (the scheduler's cap as well).
    pub fn socket_masks(&self) -> &[u128] {
        self.socket_masks.get_or_init(|| {
            assert!(self.n_gpus() <= 128, "socket masks cover at most 128 GPUs");
            let mut masks = vec![0u128; self.n_sockets()];
            for g in self.gpus() {
                masks[self.socket_of(g).index()] |= 1 << g.index();
            }
            masks.into()
        })
    }

    /// Qualitative distance between two GPUs (0 for the same GPU).
    pub fn distance(&self, a: GpuId, b: GpuId) -> f64 {
        self.distances.distance(a.index(), b.index())
    }

    /// Eq. 3 communication cost for a candidate GPU set: sum of pairwise
    /// distances over all unordered pairs.
    pub fn pairwise_cost(&self, gpus: &[GpuId]) -> f64 {
        // The pairs in `GpuDistanceMatrix::pairwise_cost`'s order, so the
        // sum is the same bits.
        let mut total = 0.0;
        for (a, i) in gpus.iter().enumerate() {
            for j in &gpus[a + 1..] {
                total += self.distances.distance(i.index(), j.index());
            }
        }
        total
    }

    /// The minimal Eq. 3 cost of any `n`-GPU subset of this machine when
    /// empty — the normalisation numerator of `u_cc`: the cost of
    /// [`MachineTopology::best_subset`].
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the machine's GPU count.
    pub fn best_pairwise_cost(&self, n: usize) -> f64 {
        self.best(n).cost
    }

    /// The first `n`-GPU subset of minimal Eq. 3 cost on this machine when
    /// empty, in lexicographic order of GPU indices (ascending GPU ids) —
    /// the placement of the ideal solo run. The first call for each `n`
    /// brute-forces the `C(n_gpus, n)` subsets; later calls read the stored
    /// answer. It depends on the topology alone, and machines of one kind
    /// share one `Arc`, so each kind pays once per width.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the machine's GPU count.
    pub fn best_subset(&self, n: usize) -> &[GpuId] {
        &self.best(n).gpus
    }

    fn best(&self, n: usize) -> &BestSubset {
        assert!(n <= self.n_gpus(), "machine cannot host {n} GPUs");
        self.best[n].get_or_init(|| self.min_cost_subset(n))
    }

    /// Brute force behind [`MachineTopology::best_subset`]: walks the
    /// `n`-combinations of GPU indices in lexicographic order and keeps the
    /// first of minimal cost.
    fn min_cost_subset(&self, n: usize) -> BestSubset {
        let total = self.n_gpus();
        let mut idx: Vec<usize> = (0..n).collect();
        let mut best = (f64::INFINITY, idx.clone());
        loop {
            let cost = self.distances.pairwise_cost(&idx);
            if cost < best.0 {
                best = (cost, idx.clone());
            }
            // Next combination: bump the last index that has room, then
            // pack the ones after it.
            let Some(i) = (0..n).rev().find(|&i| idx[i] != i + total - n) else {
                let gpus = best.1.iter().map(|&i| GpuId(i as u32)).collect();
                return BestSubset { cost: best.0, gpus };
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

    /// P2P flag and bottleneck bandwidth of [`MachineTopology::path`]`(a,
    /// b)`, read from a table. The first call fills the table for every
    /// ordered GPU pair, one Dijkstra per source GPU; machines of one kind
    /// share one `Arc`, so each kind pays once.
    pub fn route(&self, a: GpuId, b: GpuId) -> PairRoute {
        let routes = self.routes.get_or_init(|| {
            let mut table = Vec::with_capacity(self.n_gpus() * self.n_gpus());
            for &source in &self.gpu_nodes {
                let (dist, pred) = dijkstra(&self.graph, source);
                table.extend(self.gpu_nodes.iter().map(|&target| {
                    let path = trace_path(&self.graph, &dist, &pred, target)
                        .expect("machine topologies are connected by construction");
                    PairRoute {
                        p2p: path.is_p2p(&self.graph),
                        bandwidth_gbs: path.bottleneck_bandwidth_gbs(),
                    }
                }));
            }
            table.into()
        });
        routes[a.index() * self.n_gpus() + b.index()]
    }

    /// True when `a` and `b` can talk over direct P2P (NVLink edge or a
    /// switch-only route).
    pub fn is_p2p(&self, a: GpuId, b: GpuId) -> bool {
        self.route(a, b).p2p
    }

    /// Bottleneck bandwidth of the cheapest route between two GPUs, GB/s.
    pub fn pair_bandwidth_gbs(&self, a: GpuId, b: GpuId) -> f64 {
        self.route(a, b).bandwidth_gbs
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

    /// Number of distinct sockets a GPU set spans: the GPUs whose socket
    /// no earlier GPU of the set hangs off.
    pub fn sockets_spanned(&self, gpus: &[GpuId]) -> usize {
        gpus.iter()
            .enumerate()
            .filter(|&(i, &g)| {
                let socket = self.socket_of(g);
                gpus[..i].iter().all(|&h| self.socket_of(h) != socket)
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{dgx1, dgx2, power8_minsky, power8_pcie_k80, power9_ac922};
    use crate::discovery::{parse_topo_matrix, to_topo_matrix};

    /// The machine kinds the table guards cover: every built-in kind and a
    /// DGX-1 parsed back from its `nvidia-smi topo` text.
    fn table_machines() -> Vec<MachineTopology> {
        let parsed = parse_topo_matrix(&to_topo_matrix(&dgx1())).expect("round trip parses");
        vec![
            power8_minsky(),
            dgx1(),
            power8_pcie_k80(),
            dgx2(),
            power9_ac922(),
            parsed,
        ]
    }

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

    /// The `n`-subsets of `m`'s GPUs, each ascending, enumerated by
    /// bitmask — independent of the combination walk the method uses.
    fn bitmask_subsets(m: &MachineTopology, n: usize) -> Vec<Vec<GpuId>> {
        let gpus: Vec<GpuId> = m.gpus().collect();
        (0u32..1 << gpus.len())
            .filter(|mask| mask.count_ones() as usize == n)
            .map(|mask| {
                gpus.iter()
                    .enumerate()
                    .filter(|&(i, _)| mask & 1 << i != 0)
                    .map(|(_, &g)| g)
                    .collect()
            })
            .collect()
    }

    /// Minimum of `pairwise_cost` over every `n`-subset.
    fn bitmask_best_cost(m: &MachineTopology, n: usize) -> f64 {
        bitmask_subsets(m, n)
            .iter()
            .map(|s| m.pairwise_cost(s))
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

    /// The best-subset table against an independent enumeration: the
    /// lexicographically smallest of the bitmask subsets of least cost,
    /// whose cost bits must equal the cost table's.
    #[test]
    fn best_subset_matches_lexicographic_enumeration() {
        for m in table_machines() {
            for n in 0..=m.n_gpus() {
                let subsets = bitmask_subsets(&m, n);
                let least = bitmask_best_cost(&m, n);
                let expected = subsets
                    .iter()
                    .filter(|s| m.pairwise_cost(s) == least)
                    .min()
                    .expect("some subset has the least cost");
                // Twice: the first call fills the table, the second reads it.
                for _ in 0..2 {
                    let got = m.best_subset(n);
                    assert_eq!(got, expected.as_slice(), "{} n={n}", m.name());
                    assert_eq!(
                        m.pairwise_cost(got).to_bits(),
                        m.best_pairwise_cost(n).to_bits(),
                        "{} n={n}",
                        m.name()
                    );
                }
            }
        }
    }

    #[test]
    fn best_subset_is_the_nvlink_pair() {
        let m = power8_minsky();
        let s = m.best_subset(2);
        assert!(m.is_packed(s), "got {s:?}");
        assert_eq!(m.pairwise_cost(s), 1.0);
    }

    #[test]
    fn best_subset_of_four_is_everything() {
        let m = power8_minsky();
        assert_eq!(m.best_subset(4).len(), 4);
    }

    #[test]
    #[should_panic(expected = "cannot host 5 GPUs")]
    fn oversized_request_panics() {
        power8_minsky().best_subset(5);
    }

    /// The route table against a fresh Dijkstra per ordered GPU pair, the
    /// diagonal included (a GPU reaches itself over no link).
    #[test]
    fn route_table_matches_dijkstra_paths() {
        for m in table_machines() {
            // Twice: the first pass fills the table, the second reads it.
            for _ in 0..2 {
                for a in m.gpus() {
                    for b in m.gpus() {
                        let path = m.path(a, b);
                        let route = m.route(a, b);
                        assert_eq!(route.p2p, path.is_p2p(m.graph()), "{} {a}-{b}", m.name());
                        assert_eq!(
                            route.bandwidth_gbs.to_bits(),
                            path.bottleneck_bandwidth_gbs().to_bits(),
                            "{} {a}-{b}",
                            m.name()
                        );
                    }
                }
            }
            let g = GpuId(0);
            assert!(m.is_p2p(g, g));
            assert_eq!(m.pair_bandwidth_gbs(g, g), f64::INFINITY);
        }
    }

    #[test]
    fn socket_masks_match_socket_membership() {
        for m in table_machines() {
            let masks = m.socket_masks();
            assert_eq!(masks.len(), m.n_sockets(), "{}", m.name());
            for s in m.sockets() {
                let want = m
                    .gpus_in_socket(s)
                    .iter()
                    .fold(0u128, |mask, g| mask | 1 << g.index());
                assert_eq!(masks[s.index()], want, "{} {s:?}", m.name());
            }
        }
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
