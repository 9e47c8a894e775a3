//! # gts-topo — GPU hardware topology model
//!
//! Models the physical connectivity of multi-GPU machines and clusters as the
//! multi-level weighted graph described in §4.1.2 / Fig. 7 of Amaral et al.,
//! *Topology-Aware GPU Scheduling for Learning Workloads in Cloud
//! Environments* (SC'17):
//!
//! * the first level is the **network**, followed by **machine**, **socket**,
//!   optional **switch** levels (PCIe / NVLink switches), and finally **GPUs**;
//! * GPUs may additionally be connected directly to each other (NVLink P2P),
//!   giving some GPU pairs multiple paths;
//! * edge weights are *qualitative distances*: edges right above the GPU level
//!   weigh 1, switch-level edges 10, socket-level 20, machine-level 40 and
//!   network-level 100 — higher levels always weigh more.
//!
//! The crate provides:
//!
//! * [`graph::TopoGraph`] — a general undirected weighted graph with typed
//!   vertices ([`node::NodeKind`]) and typed links ([`link::LinkKind`]);
//! * [`builders`] — ready-made machine models: IBM Power8 "Minsky"
//!   (NVLink, Fig. 1 left), NVIDIA DGX-1 (hybrid cube-mesh, Fig. 1 right),
//!   a PCIe-only Power8/K80 variant (§3.2) and parametric synthetic machines;
//! * [`paths`] — Dijkstra shortest paths, all-pairs GPU distance matrices and
//!   bottleneck-bandwidth queries used by the performance model;
//! * [`machine::MachineTopology`] and [`cluster::ClusterTopology`] — the
//!   physical graph `P` consumed by the mapping algorithm.

#![warn(missing_docs)]

pub mod builders;
pub mod cluster;
pub mod discovery;
pub mod dot;
pub mod graph;
pub mod ids;
pub mod link;
pub mod machine;
pub mod node;
pub mod numa;
pub mod paths;

pub use builders::{
    dgx1, dgx2, power8_minsky, power8_pcie_k80, power9_ac922, symmetric_machine, LinkProfile,
};
pub use cluster::{ClusterTopology, GlobalGpuId};
pub use discovery::{parse_topo_matrix, to_topo_matrix, DiscoveryError};
pub use dot::to_dot;
pub use graph::{EdgeRef, NodeIdx, TopoGraph};
pub use ids::{GpuId, MachineId, SocketId};
pub use link::LinkKind;
pub use machine::{MachineTopology, PairRoute};
pub use node::NodeKind;
pub use numa::{NumaInfo, NumaNode, NumaParseError};
