//! NUMA information from `numactl --hardware`.
//!
//! §5.1: the prototype runs "the command `numactl --hardware` to include
//! socket distance and CPU locality in the model" and, "for preventing
//! performance variability related to NUMA remote memory access, the
//! applications with only GPUs in the same socket are bound to the socket
//! using the command `numactl`". This module parses that output and
//! produces the binding the enforcement layer would apply.

use crate::ids::SocketId;
use std::fmt;

/// One NUMA node's resources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NumaNode {
    /// Node id (socket id on the paper's systems).
    pub id: u32,
    /// CPUs local to the node.
    pub cpus: Vec<u32>,
    /// Memory size in MB (0 when the line is absent).
    pub size_mb: u64,
}

/// Parsed `numactl --hardware` output.
#[derive(Debug, Clone, PartialEq)]
pub struct NumaInfo {
    /// Nodes, ascending id.
    pub nodes: Vec<NumaNode>,
    /// ACPI SLIT distances, `distances[i][j]` (10 = local).
    pub distances: Vec<Vec<u32>>,
}

/// Parse failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NumaParseError {
    /// No `node # cpus:` lines found.
    NoNodes,
    /// The distance matrix is missing or ragged.
    BadDistances,
    /// A malformed field.
    Malformed {
        /// The offending line.
        line: String,
    },
}

impl fmt::Display for NumaParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumaParseError::NoNodes => write!(f, "no NUMA node cpu lines found"),
            NumaParseError::BadDistances => write!(f, "missing or ragged distance matrix"),
            NumaParseError::Malformed { line } => write!(f, "malformed line: {line}"),
        }
    }
}

impl std::error::Error for NumaParseError {}

impl NumaInfo {
    /// Parses `numactl --hardware` text.
    pub fn parse(text: &str) -> Result<Self, NumaParseError> {
        let mut nodes: Vec<NumaNode> = Vec::new();
        let mut distances: Vec<Vec<u32>> = Vec::new();
        let mut in_distances = false;

        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if line.starts_with("node distances") {
                in_distances = true;
                continue;
            }
            if in_distances {
                // Header row ("node   0   1") or data row ("  0:  10  40").
                if let Some((label, rest)) = line.split_once(':') {
                    if label.trim().parse::<u32>().is_ok() {
                        let row: Result<Vec<u32>, _> =
                            rest.split_whitespace().map(|t| t.parse()).collect();
                        let row = row.map_err(|_| NumaParseError::Malformed {
                            line: line.to_string(),
                        })?;
                        distances.push(row);
                    }
                }
                continue;
            }
            // "node 0 cpus: 0 1 2 3" / "node 0 size: 261788 MB".
            let mut parts = line.split_whitespace();
            if parts.next() != Some("node") {
                continue;
            }
            let Some(id_str) = parts.next() else { continue };
            let Ok(id) = id_str.parse::<u32>() else {
                continue;
            };
            match parts.next() {
                Some("cpus:") => {
                    let cpus: Result<Vec<u32>, _> = parts.map(|t| t.parse()).collect();
                    let cpus = cpus.map_err(|_| NumaParseError::Malformed {
                        line: line.to_string(),
                    })?;
                    nodes.push(NumaNode {
                        id,
                        cpus,
                        size_mb: 0,
                    });
                }
                Some("size:") => {
                    if let (Some(v), Some(node)) =
                        (parts.next(), nodes.iter_mut().find(|n| n.id == id))
                    {
                        node.size_mb = v.parse().map_err(|_| NumaParseError::Malformed {
                            line: line.to_string(),
                        })?;
                    }
                }
                _ => {}
            }
        }

        if nodes.is_empty() {
            return Err(NumaParseError::NoNodes);
        }
        nodes.sort_by_key(|n| n.id);
        if distances.len() != nodes.len() || distances.iter().any(|r| r.len() != nodes.len()) {
            return Err(NumaParseError::BadDistances);
        }
        Ok(Self { nodes, distances })
    }

    /// Number of NUMA nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// SLIT distance between two nodes.
    pub fn distance(&self, a: usize, b: usize) -> u32 {
        self.distances[a][b]
    }

    /// CPUs of a node, if it exists.
    pub fn cpus_of(&self, node: u32) -> Option<&[u32]> {
        self.nodes
            .iter()
            .find(|n| n.id == node)
            .map(|n| n.cpus.as_slice())
    }

    /// The §5.1 enforcement command for a job bound to one socket, e.g.
    /// `numactl --cpunodebind=0 --membind=0`.
    pub fn bind_command(&self, socket: SocketId) -> String {
        format!("numactl --cpunodebind={id} --membind={id}", id = socket.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINSKY_NUMACTL: &str = "\
available: 2 nodes (0-1)
node 0 cpus: 0 1 2 3 4 5 6 7
node 0 size: 261788 MB
node 0 free: 240211 MB
node 1 cpus: 8 9 10 11 12 13 14 15
node 1 size: 261788 MB
node 1 free: 251923 MB
node distances:
node   0   1
  0:  10  40
  1:  40  10
";

    #[test]
    fn parses_the_minsky_layout() {
        let info = NumaInfo::parse(MINSKY_NUMACTL).unwrap();
        assert_eq!(info.n_nodes(), 2);
        assert_eq!(info.cpus_of(0).unwrap(), &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(info.cpus_of(1).unwrap().len(), 8);
        assert_eq!(info.nodes[0].size_mb, 261788);
        assert_eq!(info.distance(0, 0), 10);
        assert_eq!(info.distance(0, 1), 40);
        assert_eq!(info.distance(1, 0), 40);
        assert!(info.cpus_of(9).is_none());
    }

    #[test]
    fn remote_distance_exceeds_local() {
        let info = NumaInfo::parse(MINSKY_NUMACTL).unwrap();
        for i in 0..info.n_nodes() {
            for j in 0..info.n_nodes() {
                if i == j {
                    assert_eq!(info.distance(i, j), 10);
                } else {
                    assert!(info.distance(i, j) > 10);
                }
            }
        }
    }

    #[test]
    fn bind_command_matches_the_paper_usage() {
        let info = NumaInfo::parse(MINSKY_NUMACTL).unwrap();
        assert_eq!(
            info.bind_command(SocketId(1)),
            "numactl --cpunodebind=1 --membind=1"
        );
    }

    #[test]
    fn error_cases() {
        assert_eq!(NumaInfo::parse("nonsense"), Err(NumaParseError::NoNodes));
        let no_matrix = "node 0 cpus: 0 1\n";
        assert_eq!(
            NumaInfo::parse(no_matrix),
            Err(NumaParseError::BadDistances)
        );
        let ragged = "\
node 0 cpus: 0 1
node 1 cpus: 2 3
node distances:
node   0   1
  0:  10  40
";
        assert_eq!(NumaInfo::parse(ragged), Err(NumaParseError::BadDistances));
        let bad_cpu = "node 0 cpus: a b\n";
        assert!(matches!(
            NumaInfo::parse(bad_cpu),
            Err(NumaParseError::Malformed { .. })
        ));
    }

    #[test]
    fn four_node_matrix() {
        let text = "\
node 0 cpus: 0
node 1 cpus: 1
node 2 cpus: 2
node 3 cpus: 3
node distances:
node   0   1   2   3
  0:  10  20  40  40
  1:  20  10  40  40
  2:  40  40  10  20
  3:  40  40  20  10
";
        let info = NumaInfo::parse(text).unwrap();
        assert_eq!(info.n_nodes(), 4);
        assert_eq!(info.distance(2, 3), 20);
    }
}
