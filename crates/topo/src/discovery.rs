//! Topology discovery from `nvidia-smi topo --matrix` output.
//!
//! §5.1: "For discovering the topology during the system startup, it
//! executes the `nvidia-smi topo --matrix` command to create a matrix of
//! GPUs, and the command `numactl --hardware` to include socket distance
//! and CPU locality in the model." This module parses that matrix format —
//! the de-facto interchange for GPU connectivity — into a
//! [`MachineTopology`], so a deployment can feed real discovery output to
//! the scheduler.
//!
//! Recognized relationship tokens (the `nvidia-smi` legend):
//!
//! | token | meaning | modeled as |
//! |---|---|---|
//! | `X` | self | — |
//! | `NV#` | # bonded NVLink lanes | direct GPU↔GPU NVLink edge |
//! | `PIX` | same PCIe switch | shared switch vertex |
//! | `PXB` | multiple PCIe bridges | shared switch vertex |
//! | `PHB` / `NODE` | same socket, through the host bridge | common socket |
//! | `SYS` | crosses the inter-socket interconnect | different sockets |
//!
//! Socket membership comes from the trailing `CPU Affinity` column when
//! present (distinct affinity strings → distinct sockets, in order of first
//! appearance) and otherwise from the connected components of the non-`SYS`
//! relation.

use crate::builders::MachineBuilder;
use crate::ids::SocketId;
use crate::link::LinkKind;
use crate::machine::MachineTopology;
use std::fmt;

/// Why a matrix failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiscoveryError {
    /// The text contains no `GPU#` header row.
    MissingHeader,
    /// A data row does not match the header's GPU count.
    RaggedRow {
        /// The offending GPU row label.
        row: String,
    },
    /// An unknown relationship token.
    UnknownToken {
        /// The offending token.
        token: String,
    },
    /// The matrix is not symmetric.
    Asymmetric {
        /// First offending pair.
        pair: (usize, usize),
    },
    /// No GPU rows found.
    NoGpus,
}

impl fmt::Display for DiscoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiscoveryError::MissingHeader => write!(f, "no GPU header row found"),
            DiscoveryError::RaggedRow { row } => {
                write!(f, "row {row} does not match the header's GPU count")
            }
            DiscoveryError::UnknownToken { token } => {
                write!(f, "unknown relationship token '{token}'")
            }
            DiscoveryError::Asymmetric { pair } => {
                write!(f, "matrix is asymmetric at GPU{} / GPU{}", pair.0, pair.1)
            }
            DiscoveryError::NoGpus => write!(f, "no GPU rows found"),
        }
    }
}

impl std::error::Error for DiscoveryError {}

/// One parsed relationship.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Relation {
    SelfRel,
    NvLink(u8),
    SameSwitch,
    SameSocket,
    CrossSocket,
}

fn parse_token(tok: &str) -> Result<Relation, DiscoveryError> {
    let t = tok.trim().to_ascii_uppercase();
    if t == "X" {
        return Ok(Relation::SelfRel);
    }
    if let Some(lanes) = t.strip_prefix("NV") {
        let lanes: u8 = lanes.parse().map_err(|_| DiscoveryError::UnknownToken {
            token: tok.to_string(),
        })?;
        return Ok(Relation::NvLink(lanes.max(1)));
    }
    match t.as_str() {
        "PIX" | "PXB" => Ok(Relation::SameSwitch),
        "PHB" | "NODE" => Ok(Relation::SameSocket),
        "SYS" => Ok(Relation::CrossSocket),
        _ => Err(DiscoveryError::UnknownToken {
            token: tok.to_string(),
        }),
    }
}

/// Parses `nvidia-smi topo --matrix` text into a machine topology.
///
/// ```
/// use gts_topo::{parse_topo_matrix, GpuId};
///
/// let matrix = "\
///         GPU0    GPU1    CPU Affinity
/// GPU0     X      NV2     0-7
/// GPU1    NV2      X      0-7
/// ";
/// let machine = parse_topo_matrix(matrix).unwrap();
/// assert_eq!(machine.n_gpus(), 2);
/// assert_eq!(machine.pair_bandwidth_gbs(GpuId(0), GpuId(1)), 40.0);
/// ```
pub fn parse_topo_matrix(text: &str) -> Result<MachineTopology, DiscoveryError> {
    // Locate the header: the first line whose fields start with GPU names.
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines
        .find(|l| {
            l.split_whitespace()
                .next()
                .is_some_and(|w| w.starts_with("GPU"))
        })
        .ok_or(DiscoveryError::MissingHeader)?;
    let header_gpus = header
        .split_whitespace()
        .take_while(|w| w.starts_with("GPU"))
        .count();
    if header_gpus == 0 {
        return Err(DiscoveryError::MissingHeader);
    }

    // Collect GPU rows.
    let mut matrix: Vec<Vec<Relation>> = Vec::new();
    let mut affinities: Vec<Option<String>> = Vec::new();
    for line in lines {
        let mut fields = line.split_whitespace();
        let Some(label) = fields.next() else { continue };
        if !label.starts_with("GPU") {
            continue; // legend lines, NIC rows, etc.
        }
        let fields: Vec<&str> = fields.collect();
        if fields.len() < header_gpus {
            return Err(DiscoveryError::RaggedRow {
                row: label.to_string(),
            });
        }
        let rels: Result<Vec<Relation>, _> = fields[..header_gpus]
            .iter()
            .map(|t| parse_token(t))
            .collect();
        matrix.push(rels?);
        affinities.push(fields.get(header_gpus).map(|s| s.to_string()));
    }
    let n = matrix.len();
    if n == 0 {
        return Err(DiscoveryError::NoGpus);
    }
    if n != header_gpus {
        return Err(DiscoveryError::RaggedRow {
            row: format!("GPU{}", n),
        });
    }
    for (i, row) in matrix.iter().enumerate() {
        for (j, &rel) in row.iter().enumerate() {
            if i == j && rel != Relation::SelfRel {
                return Err(DiscoveryError::Asymmetric { pair: (i, j) });
            }
            if matrix[j][i] != rel {
                return Err(DiscoveryError::Asymmetric { pair: (i, j) });
            }
        }
    }

    // Socket membership: affinity strings if present, else connected
    // components of the non-SYS relation.
    let socket_of: Vec<usize> = if affinities.iter().all(|a| a.is_some()) {
        let mut seen: Vec<String> = Vec::new();
        affinities
            .iter()
            .map(|a| {
                let a = a.as_ref().expect("checked above");
                match seen.iter().position(|s| s == a) {
                    Some(i) => i,
                    None => {
                        seen.push(a.clone());
                        seen.len() - 1
                    }
                }
            })
            .collect()
    } else {
        // Union-find over non-SYS pairs.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for (i, row) in matrix.iter().enumerate() {
            for (j, &rel) in row.iter().enumerate().skip(i + 1) {
                if rel != Relation::CrossSocket {
                    let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                    if a != b {
                        parent[a] = b;
                    }
                }
            }
        }
        let mut seen: Vec<usize> = Vec::new();
        (0..n)
            .map(|i| {
                let root = find(&mut parent, i);
                match seen.iter().position(|&s| s == root) {
                    Some(k) => k,
                    None => {
                        seen.push(root);
                        seen.len() - 1
                    }
                }
            })
            .collect()
    };
    let n_sockets = socket_of.iter().copied().max().unwrap_or(0) + 1;

    // Switch groups: connected components of SameSwitch within a socket.
    let mut switch_group: Vec<Option<usize>> = vec![None; n];
    let mut next_switch = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            if matrix[i][j] == Relation::SameSwitch && socket_of[i] == socket_of[j] {
                let g = switch_group[i].or(switch_group[j]).unwrap_or_else(|| {
                    let g = next_switch;
                    next_switch += 1;
                    g
                });
                switch_group[i] = Some(g);
                switch_group[j] = Some(g);
            }
        }
    }

    // Assemble. GPUs with a switch group hang off a switch (PCIe); others
    // attach to the socket. Host link technology: NVLink machines attach
    // GPUs by NVLink (Power8-style), PCIe otherwise — inferred from whether
    // the GPU has any NVLink relation.
    let mut b = MachineBuilder::new(n_sockets);
    let pcie = LinkKind::PciE { gen: 3 };
    let mut switch_nodes: Vec<Option<crate::graph::NodeIdx>> = vec![None; next_switch];
    let mut gpu_nodes = Vec::with_capacity(n);
    for i in 0..n {
        let socket = SocketId(socket_of[i] as u32);
        let has_nvlink = matrix[i].iter().any(|r| matches!(r, Relation::NvLink(_)));
        let node = match switch_group[i] {
            Some(g) => {
                let sw = match switch_nodes[g] {
                    Some(sw) => sw,
                    None => {
                        let sw = b.add_switch(socket, g as u32, pcie);
                        switch_nodes[g] = Some(sw);
                        sw
                    }
                };
                b.add_gpu(socket, sw, pcie)
            }
            None => {
                let host_link = if has_nvlink {
                    LinkKind::NvLink { lanes: 2 }
                } else {
                    pcie
                };
                let sock_node = b.sockets[socket.index()];
                b.add_gpu(socket, sock_node, host_link)
            }
        };
        gpu_nodes.push(node);
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if let Relation::NvLink(lanes) = matrix[i][j] {
                b.peer_edge(gpu_nodes[i], gpu_nodes[j], LinkKind::NvLink { lanes });
            }
        }
    }
    Ok(b.finish("discovered"))
}

/// Renders a machine back into `nvidia-smi topo --matrix` text — the
/// inverse of [`parse_topo_matrix`], handy for golden files and for
/// describing synthetic machines to external tooling.
///
/// Relationships are derived from the shortest route between each pair:
/// direct NVLink edges become `NV#`, switch-only P2P routes `PIX`,
/// host-bridge routes within a socket `PHB`, and socket-crossing routes
/// `SYS`. CPU affinities are synthesized as 8 cores per socket.
pub fn to_topo_matrix(machine: &MachineTopology) -> String {
    use crate::paths::shortest_path;
    let n = machine.n_gpus();
    let mut out = String::new();
    out.push_str("        ");
    for g in machine.gpus() {
        out.push_str(&format!("{:<8}", g.to_string()));
    }
    out.push_str("CPU Affinity\n");
    for a in machine.gpus() {
        out.push_str(&format!("{:<8}", a.to_string()));
        for b in machine.gpus() {
            let token = if a == b {
                " X".to_string()
            } else {
                let path = shortest_path(machine.graph(), machine.gpu_node(a), machine.gpu_node(b))
                    .expect("machines are connected");
                let direct_nv = machine
                    .graph()
                    .neighbors(machine.gpu_node(a))
                    .iter()
                    .find(|e| {
                        e.to == machine.gpu_node(b) && matches!(e.kind, LinkKind::NvLink { .. })
                    })
                    .map(|e| match e.kind {
                        LinkKind::NvLink { lanes } => lanes,
                        _ => unreachable!(),
                    });
                match direct_nv {
                    Some(lanes) => format!("NV{lanes}"),
                    None if path.is_p2p(machine.graph()) => "PIX".to_string(),
                    None if machine.socket_of(a) == machine.socket_of(b) => "PHB".to_string(),
                    None => "SYS".to_string(),
                }
            };
            out.push_str(&format!("{token:<8}"));
        }
        let socket = machine.socket_of(a).0;
        out.push_str(&format!("{}-{}\n", socket * 8, socket * 8 + 7));
    }
    let _ = n;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::power8_minsky;
    use crate::ids::GpuId;

    const MINSKY_MATRIX: &str = "\
        GPU0    GPU1    GPU2    GPU3    CPU Affinity
GPU0     X      NV2     SYS     SYS     0-7
GPU1    NV2      X      SYS     SYS     0-7
GPU2    SYS     SYS      X      NV2     8-15
GPU3    SYS     SYS     NV2      X      8-15

Legend:
  X   = Self
  NV# = Connection traversing a bonded set of # NVLinks
  SYS = Connection traversing PCIe as well as the SMP interconnect
";

    #[test]
    fn minsky_matrix_reproduces_the_builder_topology() {
        let discovered = parse_topo_matrix(MINSKY_MATRIX).unwrap();
        let reference = power8_minsky();
        assert_eq!(discovered.n_gpus(), 4);
        assert_eq!(discovered.n_sockets(), 2);
        for a in discovered.gpus() {
            for bgpu in discovered.gpus() {
                assert_eq!(
                    discovered.distance(a, bgpu),
                    reference.distance(a, bgpu),
                    "{a}-{bgpu}"
                );
            }
        }
        assert!(discovered.is_p2p(GpuId(0), GpuId(1)));
        assert!(!discovered.is_p2p(GpuId(1), GpuId(2)));
        assert_eq!(discovered.pair_bandwidth_gbs(GpuId(0), GpuId(1)), 40.0);
    }

    #[test]
    fn pcie_switch_machine_parses_pix_groups() {
        let text = "\
        GPU0    GPU1    GPU2    GPU3    CPU Affinity
GPU0     X      PIX     SYS     SYS     0-7
GPU1    PIX      X      SYS     SYS     0-7
GPU2    SYS     SYS      X      PIX     8-15
GPU3    SYS     SYS     PIX      X      8-15
";
        let m = parse_topo_matrix(text).unwrap();
        assert_eq!(m.n_sockets(), 2);
        // Same-switch pair: distance 2 (GPU-SW-GPU), P2P through the switch.
        assert_eq!(m.distance(GpuId(0), GpuId(1)), 2.0);
        assert!(m.is_p2p(GpuId(0), GpuId(1)));
        // Cross socket: over switch + sockets.
        assert_eq!(m.distance(GpuId(0), GpuId(2)), 42.0);
    }

    #[test]
    fn affinity_free_matrix_uses_components() {
        let text = "\
        GPU0    GPU1    GPU2    GPU3
GPU0     X      NV1     SYS     SYS
GPU1    NV1      X      SYS     SYS
GPU2    SYS     SYS      X      NV1
GPU3    SYS     SYS     NV1      X
";
        let m = parse_topo_matrix(text).unwrap();
        assert_eq!(m.n_sockets(), 2);
        assert_eq!(m.socket_of(GpuId(0)), m.socket_of(GpuId(1)));
        assert_ne!(m.socket_of(GpuId(0)), m.socket_of(GpuId(2)));
        // Single-lane NVLink caps at 20 GB/s.
        assert_eq!(m.pair_bandwidth_gbs(GpuId(0), GpuId(1)), 20.0);
    }

    #[test]
    fn phb_rows_share_a_socket_without_a_switch() {
        let text = "\
        GPU0    GPU1    CPU Affinity
GPU0     X      PHB     0-7
GPU1    PHB      X      0-7
";
        let m = parse_topo_matrix(text).unwrap();
        assert_eq!(m.n_sockets(), 1);
        // Host-bridge route: GPU-S-GPU.
        assert_eq!(m.distance(GpuId(0), GpuId(1)), 2.0);
        assert!(!m.is_p2p(GpuId(0), GpuId(1)));
    }

    #[test]
    fn error_cases() {
        assert!(matches!(
            parse_topo_matrix("nothing here"),
            Err(DiscoveryError::MissingHeader)
        ));
        let ragged = "\
        GPU0    GPU1
GPU0     X      NV2
GPU1    NV2
";
        assert!(matches!(
            parse_topo_matrix(ragged),
            Err(DiscoveryError::RaggedRow { .. })
        ));
        let unknown = "\
        GPU0    GPU1
GPU0     X      ???
GPU1    ???      X
";
        assert!(matches!(
            parse_topo_matrix(unknown),
            Err(DiscoveryError::UnknownToken { .. })
        ));
        let asymmetric = "\
        GPU0    GPU1
GPU0     X      NV2
GPU1    SYS      X
";
        assert!(matches!(
            parse_topo_matrix(asymmetric),
            Err(DiscoveryError::Asymmetric { .. })
        ));
        let missing_rows = "\
        GPU0    GPU1
GPU0     X      NV2
";
        assert!(matches!(
            parse_topo_matrix(missing_rows),
            Err(DiscoveryError::RaggedRow { .. })
        ));
    }

    #[test]
    fn matrix_round_trips_through_the_renderer() {
        use crate::builders::{dgx1, power8_pcie_k80};
        for machine in [power8_minsky(), power8_pcie_k80(), dgx1()] {
            let text = to_topo_matrix(&machine);
            let parsed = parse_topo_matrix(&text)
                .unwrap_or_else(|e| panic!("{}: {e}\n{text}", machine.name()));
            assert_eq!(parsed.n_gpus(), machine.n_gpus(), "{}", machine.name());
            assert_eq!(
                parsed.n_sockets(),
                machine.n_sockets(),
                "{}",
                machine.name()
            );
            for a in machine.gpus() {
                for b in machine.gpus() {
                    if a == b {
                        continue;
                    }
                    // Route *class* survives the round trip (exact
                    // qualitative distances may differ when a switch is
                    // inferred rather than original).
                    assert_eq!(
                        parsed.is_p2p(a, b),
                        machine.is_p2p(a, b),
                        "{}: {a}-{b}",
                        machine.name()
                    );
                    assert_eq!(
                        parsed.socket_of(a) == parsed.socket_of(b),
                        machine.socket_of(a) == machine.socket_of(b),
                        "{}: {a}-{b}",
                        machine.name()
                    );
                }
            }
        }
    }

    #[test]
    fn legend_and_nic_rows_are_ignored() {
        let text = "\
        GPU0    GPU1    mlx5_0  CPU Affinity
GPU0     X      NV2     PHB     0-7
GPU1    NV2      X      PHB     0-7
mlx5_0  PHB     PHB      X
";
        let m = parse_topo_matrix(text).unwrap();
        assert_eq!(m.n_gpus(), 2);
    }
}
