//! Ready-made machine topologies from the paper, plus a parametric builder.
//!
//! All builders follow the multi-level encoding of Fig. 7: a machine vertex,
//! socket vertices joined by the inter-socket bus (weight 20), optional
//! switch vertices (weight 10 to their socket), GPU attachment edges
//! (weight 1) and direct GPU↔GPU NVLink edges (weight 1).

use crate::graph::{NodeIdx, TopoGraph};
use crate::ids::{GpuId, MachineId, SocketId};
use crate::link::{level_weight, LinkKind};
use crate::machine::MachineTopology;
use crate::node::NodeKind;

/// How GPUs connect to their host and to each other in a parametric machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// Link used for GPU → host (socket or switch) attachment.
    pub host_link: LinkKind,
    /// Direct link between sibling GPUs on the same socket, if any.
    pub peer_link: Option<LinkKind>,
}

impl LinkProfile {
    /// Power8 Minsky: dual-lane NVLink everywhere (40 GB/s bricks).
    pub fn nvlink_dual() -> Self {
        Self {
            host_link: LinkKind::NvLink { lanes: 2 },
            peer_link: Some(LinkKind::NvLink { lanes: 2 }),
        }
    }

    /// PCIe gen3 host attachment, no direct GPU links (K80-era machine).
    pub fn pcie_gen3() -> Self {
        Self {
            host_link: LinkKind::PciE { gen: 3 },
            peer_link: None,
        }
    }
}

pub(crate) struct MachineBuilder {
    graph: TopoGraph,
    machine: NodeIdx,
    pub(crate) sockets: Vec<NodeIdx>,
    pub(crate) gpus: Vec<NodeIdx>,
    socket_of: Vec<SocketId>,
}

impl MachineBuilder {
    pub(crate) fn new(n_sockets: usize) -> Self {
        let mut graph = TopoGraph::with_capacity(1 + n_sockets);
        let machine = graph.add_node(NodeKind::Machine(MachineId(0)));
        let sockets: Vec<NodeIdx> = (0..n_sockets)
            .map(|s| graph.add_node(NodeKind::Socket(SocketId(s as u32))))
            .collect();
        for &s in &sockets {
            graph.add_edge(machine, s, level_weight::MACHINE, LinkKind::Containment);
        }
        // Inter-socket bus: full mesh (2 sockets on all paper systems).
        for i in 0..sockets.len() {
            for j in (i + 1)..sockets.len() {
                graph.add_edge(
                    sockets[i],
                    sockets[j],
                    level_weight::SOCKET,
                    LinkKind::InterSocket,
                );
            }
        }
        Self {
            graph,
            machine,
            sockets,
            gpus: Vec::new(),
            socket_of: Vec::new(),
        }
    }

    pub(crate) fn add_gpu(
        &mut self,
        socket: SocketId,
        attach_to: NodeIdx,
        link: LinkKind,
    ) -> NodeIdx {
        let id = GpuId(self.gpus.len() as u32);
        let node = self.graph.add_node(NodeKind::Gpu(id));
        self.graph
            .add_edge(node, attach_to, level_weight::GPU, link);
        self.gpus.push(node);
        self.socket_of.push(socket);
        node
    }

    pub(crate) fn add_switch(&mut self, socket: SocketId, index: u32, link: LinkKind) -> NodeIdx {
        let node = self.graph.add_node(NodeKind::Switch { socket, index });
        self.graph.add_edge(
            self.sockets[socket.index()],
            node,
            level_weight::SWITCH,
            link,
        );
        node
    }

    pub(crate) fn peer_edge(&mut self, a: NodeIdx, b: NodeIdx, link: LinkKind) {
        self.graph.add_edge(a, b, level_weight::GPU, link);
    }

    pub(crate) fn finish(self, name: &str) -> MachineTopology {
        MachineTopology::from_parts(
            name,
            self.graph,
            self.machine,
            self.sockets,
            self.gpus,
            self.socket_of,
        )
    }
}

/// IBM Power8 S822LC "Minsky" (§3.1, Fig. 1 left): 2 sockets, 2 × Tesla P100
/// per socket. Intra-socket CPU↔GPU and GPU↔GPU links are dual-lane NVLink
/// (40 GB/s unidirectional); sockets are joined by the X-Bus.
///
/// ```
/// use gts_topo::{power8_minsky, GpuId};
///
/// let m = power8_minsky();
/// assert_eq!(m.n_gpus(), 4);
/// // NVLink siblings are one hop apart; cross-socket pairs ride the bus.
/// assert_eq!(m.distance(GpuId(0), GpuId(1)), 1.0);
/// assert_eq!(m.distance(GpuId(0), GpuId(2)), 22.0);
/// assert!(m.is_p2p(GpuId(0), GpuId(1)));
/// ```
pub fn power8_minsky() -> MachineTopology {
    let mut b = MachineBuilder::new(2);
    let nv = LinkKind::NvLink { lanes: 2 };
    let mut pairs = Vec::new();
    for s in 0..2u32 {
        let socket = SocketId(s);
        let sock_node = b.sockets[s as usize];
        let g0 = b.add_gpu(socket, sock_node, nv);
        let g1 = b.add_gpu(socket, sock_node, nv);
        pairs.push((g0, g1));
    }
    for (g0, g1) in pairs {
        b.peer_edge(g0, g1, nv);
    }
    b.finish("power8-minsky")
}

/// The PCIe-only Power8 comparison machine of §3.2: same shape as Minsky
/// but K80-era GPUs behind one PCIe gen3 switch per socket and no NVLink.
/// Same-switch peers can still do P2P DMA (through the switch, at PCIe
/// bandwidth); cross-socket traffic bounces through host memory.
pub fn power8_pcie_k80() -> MachineTopology {
    let mut b = MachineBuilder::new(2);
    let pcie = LinkKind::PciE { gen: 3 };
    for s in 0..2u32 {
        let socket = SocketId(s);
        let sw = b.add_switch(socket, 0, pcie);
        b.add_gpu(socket, sw, pcie);
        b.add_gpu(socket, sw, pcie);
    }
    b.finish("power8-pcie-k80")
}

/// NVIDIA DGX-1 (Fig. 1 right): 8 × P100 over a hybrid cube-mesh. Each
/// socket hosts two PCIe switches with two GPUs each; NVLink forms two
/// fully-connected quads (GPUs 0–3, GPUs 4–7) plus the four cross-socket
/// pairs (0,4), (1,5), (2,6), (3,7) — the "12 cube edges + 2 face diagonals
/// per side" wiring, single-lane per link.
pub fn dgx1() -> MachineTopology {
    let mut b = MachineBuilder::new(2);
    let nv1 = LinkKind::NvLink { lanes: 1 };
    let pcie = LinkKind::PciE { gen: 3 };

    // PCIe fabric: socket s has switches 2s, 2s+1, each with two GPUs.
    for s in 0..2u32 {
        let socket = SocketId(s);
        for sw in 0..2u32 {
            let sw_node = b.add_switch(socket, sw, pcie);
            b.add_gpu(socket, sw_node, pcie);
            b.add_gpu(socket, sw_node, pcie);
        }
    }
    // NVLink mesh.
    let quad = |base: usize| {
        [
            (base, base + 1),
            (base, base + 2),
            (base, base + 3),
            (base + 1, base + 2),
            (base + 1, base + 3),
            (base + 2, base + 3),
        ]
    };
    for (a, bb) in quad(0).into_iter().chain(quad(4)) {
        b.peer_edge(b.gpus[a], b.gpus[bb], nv1);
    }
    for g in 0..4usize {
        b.peer_edge(b.gpus[g], b.gpus[g + 4], nv1);
    }
    b.finish("dgx-1")
}

/// IBM Power9 AC922 ("Summit node"-style): 2 sockets × 3 Tesla V100, with
/// tri-lane NVLink bricks between the CPU and its GPUs and among the three
/// sibling GPUs. The immediate successor of the paper's testbed; included
/// to show the model generalizes beyond the evaluated machines.
pub fn power9_ac922() -> MachineTopology {
    let mut b = MachineBuilder::new(2);
    let nv3 = LinkKind::NvLink { lanes: 3 };
    for s in 0..2u32 {
        let socket = SocketId(s);
        let sock_node = b.sockets[s as usize];
        let local: Vec<NodeIdx> = (0..3).map(|_| b.add_gpu(socket, sock_node, nv3)).collect();
        for i in 0..local.len() {
            for j in (i + 1)..local.len() {
                b.peer_edge(local[i], local[j], nv3);
            }
        }
    }
    b.finish("power9-ac922")
}

/// NVIDIA DGX-2-style machine: 16 V100s on an NVSwitch plane that gives
/// every GPU pair full-bandwidth P2P. Modeled as one switch vertex per
/// 8-GPU baseboard carrying six-lane NVLink, with the plane bridged at the
/// GPU-adjacent weight — every pair is switch-routed P2P, so the topology
/// is communication-flat and only interference/fragmentation differentiate
/// placements.
pub fn dgx2() -> MachineTopology {
    let mut b = MachineBuilder::new(2);
    let nv6 = LinkKind::NvLink { lanes: 6 };
    let mut switches = Vec::new();
    for s in 0..2u32 {
        let socket = SocketId(s);
        let sw = b.add_switch(socket, 0, nv6);
        switches.push(sw);
        for _ in 0..8 {
            b.add_gpu(socket, sw, nv6);
        }
    }
    b.peer_edge(switches[0], switches[1], nv6);
    b.finish("dgx-2")
}

/// Parametric symmetric machine: `n_sockets` sockets × `gpus_per_socket`
/// GPUs, attached per `profile`. When `profile.peer_link` is set, sibling
/// GPUs on a socket get a full NVLink mesh (as on Minsky).
///
/// # Panics
///
/// Panics if `n_sockets == 0` or `gpus_per_socket == 0`.
pub fn symmetric_machine(
    name: &str,
    n_sockets: usize,
    gpus_per_socket: usize,
    profile: LinkProfile,
) -> MachineTopology {
    assert!(n_sockets > 0, "a machine needs at least one socket");
    assert!(
        gpus_per_socket > 0,
        "a machine needs at least one GPU per socket"
    );
    let mut b = MachineBuilder::new(n_sockets);
    for s in 0..n_sockets {
        let socket = SocketId(s as u32);
        let sock_node = b.sockets[s];
        let mut local = Vec::with_capacity(gpus_per_socket);
        for _ in 0..gpus_per_socket {
            local.push(b.add_gpu(socket, sock_node, profile.host_link));
        }
        if let Some(peer) = profile.peer_link {
            for i in 0..local.len() {
                for j in (i + 1)..local.len() {
                    b.peer_edge(local[i], local[j], peer);
                }
            }
        }
    }
    b.finish(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minsky_matches_fig7_weights() {
        let m = power8_minsky();
        assert!(m.graph().validate_level_weights().is_ok());
        // 1 machine + 2 sockets + 4 GPUs.
        assert_eq!(m.graph().node_count(), 7);
        // 2 containment + 1 bus + 4 attach + 2 peer = 9 edges.
        assert_eq!(m.graph().edge_count(), 9);
    }

    #[test]
    fn dgx1_matches_fig1_wiring() {
        let d = dgx1();
        assert!(d.graph().validate_level_weights().is_ok());
        // 1 machine + 2 sockets + 4 switches + 8 GPUs.
        assert_eq!(d.graph().node_count(), 15);
        // 2 containment + 1 bus + 4 socket-switch + 8 attach + 16 NVLink.
        assert_eq!(d.graph().edge_count(), 31);
        // Every GPU has exactly 4 NVLink neighbours (hybrid cube-mesh).
        for g in d.gpus() {
            let nvlinks = d
                .graph()
                .neighbors(d.gpu_node(g))
                .iter()
                .filter(|e| matches!(e.kind, LinkKind::NvLink { .. }))
                .count();
            assert_eq!(nvlinks, 4, "{g} should have 4 NVLink lanes");
        }
    }

    #[test]
    fn dgx1_unpaired_cross_socket_goes_over_pcie_and_bus() {
        let d = dgx1();
        // GPU1→GPU4 has no direct link and GPUs don't forward: the route is
        // GPU1 - SW - S0 - S1 - SW - GPU4 = 1 + 10 + 20 + 10 + 1 = 42.
        assert_eq!(d.distance(GpuId(1), GpuId(4)), 42.0);
        assert!(!d.is_p2p(GpuId(1), GpuId(4)));
    }

    #[test]
    fn dgx1_same_switch_pcie_route() {
        let d = dgx1();
        // GPU0/GPU1 share a switch, but the direct NVLink (weight 1) wins
        // over the PCIe route (1+1=2).
        let p = d.path(GpuId(0), GpuId(1));
        assert_eq!(p.distance, 1.0);
    }

    #[test]
    fn pcie_machine_same_switch_peers_keep_p2p_at_pcie_speed() {
        let m = power8_pcie_k80();
        let p = m.path(GpuId(0), GpuId(1));
        assert_eq!(p.distance, 2.0); // GPU0 - SW - GPU1
        assert!(p.is_p2p(m.graph()), "switch routes forward P2P");
        assert_eq!(p.bottleneck_bandwidth_gbs(), 16.0);
    }

    #[test]
    fn pcie_machine_cross_socket_bounces_through_host() {
        let m = power8_pcie_k80();
        let p = m.path(GpuId(0), GpuId(2));
        // GPU0 - SW - S0 - S1 - SW - GPU2 = 1 + 10 + 20 + 10 + 1.
        assert_eq!(p.distance, 42.0);
        assert!(!p.is_p2p(m.graph()));
        assert_eq!(p.bottleneck_bandwidth_gbs(), 16.0);
    }

    #[test]
    fn ac922_has_three_gpu_nvlink_triads() {
        let m = power9_ac922();
        assert_eq!(m.n_gpus(), 6);
        assert_eq!(m.n_sockets(), 2);
        assert!(m.graph().validate_level_weights().is_ok());
        // Triad members are one NVLink hop apart at 60 GB/s.
        for a in 0..3u32 {
            for bb in 0..3u32 {
                if a != bb {
                    assert_eq!(m.distance(GpuId(a), GpuId(bb)), 1.0);
                    assert_eq!(m.pair_bandwidth_gbs(GpuId(a), GpuId(bb)), 60.0);
                }
            }
        }
        // Cross socket goes over the bus.
        assert_eq!(m.distance(GpuId(0), GpuId(3)), 22.0);
        assert!(!m.is_p2p(GpuId(0), GpuId(3)));
    }

    #[test]
    fn dgx2_is_communication_flat() {
        let m = dgx2();
        assert_eq!(m.n_gpus(), 16);
        assert!(m.graph().validate_level_weights().is_ok());
        // Same baseboard: GPU-SW-GPU = 2; across the plane: +1 bridge hop.
        assert_eq!(m.distance(GpuId(0), GpuId(1)), 2.0);
        assert_eq!(m.distance(GpuId(0), GpuId(8)), 3.0);
        // Every pair is switch-routed P2P at NVSwitch bandwidth.
        for a in [0u32, 3, 8, 15] {
            for bb in [1u32, 7, 9, 14] {
                if a != bb {
                    assert!(m.is_p2p(GpuId(a), GpuId(bb)), "GPU{a}-GPU{bb}");
                    assert_eq!(m.pair_bandwidth_gbs(GpuId(a), GpuId(bb)), 120.0);
                }
            }
        }
    }

    #[test]
    fn symmetric_machine_scales() {
        let m = symmetric_machine("big", 4, 4, LinkProfile::nvlink_dual());
        assert_eq!(m.n_gpus(), 16);
        assert_eq!(m.n_sockets(), 4);
        assert!(m.graph().validate_level_weights().is_ok());
        // Sibling GPUs are 1 apart, cross-socket 22.
        assert_eq!(m.distance(GpuId(0), GpuId(1)), 1.0);
        assert_eq!(m.distance(GpuId(0), GpuId(4)), 22.0);
    }

    #[test]
    fn symmetric_pcie_machine_has_no_peer_links() {
        let m = symmetric_machine("pcie", 2, 2, LinkProfile::pcie_gen3());
        assert_eq!(m.distance(GpuId(0), GpuId(1)), 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one socket")]
    fn zero_sockets_rejected() {
        symmetric_machine("bad", 0, 2, LinkProfile::pcie_gen3());
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn zero_gpus_rejected() {
        symmetric_machine("bad", 2, 0, LinkProfile::pcie_gen3());
    }
}
