//! Graphviz DOT export of the multi-level physical graph — Fig. 7 as an
//! artifact you can render.

use crate::graph::TopoGraph;
use crate::link::LinkKind;
use crate::node::NodeKind;
use std::fmt::Write;

/// Renders the graph in Graphviz DOT format. Vertex shapes encode levels
/// (network/machine/socket boxes, switch diamonds, GPU ellipses); edge
/// labels carry the qualitative weight, with NVLink edges drawn bold and
/// the inter-socket bus dashed.
pub fn to_dot(graph: &TopoGraph, name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "graph \"{name}\" {{");
    let _ = writeln!(out, "  layout=dot; rankdir=TB; splines=true;");
    for (idx, kind) in graph.nodes() {
        let (shape, style) = match kind {
            NodeKind::Network => ("box", "filled,bold"),
            NodeKind::Machine(_) => ("box", "filled"),
            NodeKind::Socket(_) => ("box", "rounded,filled"),
            NodeKind::Switch { .. } => ("diamond", "filled"),
            NodeKind::Gpu(_) => ("ellipse", "filled"),
        };
        let _ = writeln!(
            out,
            "  n{} [label=\"{}\" shape={} style=\"{}\"];",
            idx.0, kind, shape, style
        );
    }
    for (a, b, edge) in graph.edges() {
        let attrs = match edge.kind {
            LinkKind::NvLink { .. } => "penwidth=2.2",
            LinkKind::InterSocket => "style=dashed",
            LinkKind::Network => "style=dotted",
            LinkKind::PciE { .. } => "penwidth=1.2",
            LinkKind::Containment => "style=invis,constraint=true",
        };
        let _ = writeln!(
            out,
            "  n{} -- n{} [label=\"{}\" tooltip=\"{}\" {}];",
            a.0, b.0, edge.weight, edge.kind, attrs
        );
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{dgx1, power8_minsky};

    #[test]
    fn minsky_dot_contains_every_vertex_and_edge() {
        let m = power8_minsky();
        let dot = to_dot(m.graph(), "minsky");
        assert!(dot.starts_with("graph \"minsky\" {"));
        assert!(dot.trim_end().ends_with('}'));
        for label in ["M0", "S0", "S1", "GPU0", "GPU3"] {
            assert!(
                dot.contains(&format!("label=\"{label}\"")),
                "missing {label}"
            );
        }
        // 9 edges → 9 `--` lines.
        assert_eq!(dot.matches(" -- ").count(), m.graph().edge_count());
        // NVLink edges are bold; the bus is dashed.
        assert!(dot.contains("penwidth=2.2"));
        assert!(dot.contains("style=dashed"));
    }

    #[test]
    fn dgx1_dot_shows_switch_diamonds() {
        let d = dgx1();
        let dot = to_dot(d.graph(), "dgx-1");
        assert!(dot.contains("shape=diamond"));
        assert_eq!(dot.matches(" -- ").count(), d.graph().edge_count());
        // Weight labels present.
        assert!(dot.contains("label=\"10\""));
        assert!(dot.contains("label=\"20\""));
    }
}
