//! Fig. 6 — collocation slowdown matrix: two AlexNet 2-GPU jobs sharing a
//! Minsky, batch class × batch class.
//!
//! The paper's collocation study interleaves the two jobs across sockets
//! (the worst case for bus sharing — domain factor 1.0); the matrix shows
//! how much the row job slows down because of the column job. Pass a
//! smaller `domain_factor` to see the packed configuration the
//! topology-aware scheduler would choose instead (0.35).

use crate::table::{pct, TextTable};
use gts_core::perf::interference::pairwise_slowdown;
use gts_core::prelude::*;

/// The Fig. 6 matrix: `slowdown[victim][aggressor]`.
#[derive(Debug, Clone)]
pub struct Fig6Matrix {
    /// Domain factor the matrix was computed at.
    pub domain_factor: f64,
    /// `slowdown[victim.index()][aggressor.index()]`.
    pub slowdown: [[f64; 4]; 4],
}

/// Computes the matrix for two AlexNet jobs at the given bus-domain factor.
pub fn run(domain_factor: f64) -> Fig6Matrix {
    let mut slowdown = [[0.0; 4]; 4];
    for victim in BatchClass::ALL {
        for aggressor in BatchClass::ALL {
            slowdown[victim.index()][aggressor.index()] = pairwise_slowdown(
                (NnModel::AlexNet, victim),
                (NnModel::AlexNet, aggressor),
                domain_factor,
            );
        }
    }
    Fig6Matrix {
        domain_factor,
        slowdown,
    }
}

/// Renders both the shared-bus matrix (the paper's measurement) and the
/// packed alternative.
pub fn render() -> String {
    let mut out = String::new();
    for (factor, label) in [
        (1.0, "socket-sharing placement (the paper's measurement)"),
        (0.35, "socket-exclusive packing (what TOPO-AWARE chooses)"),
    ] {
        let m = run(factor);
        let mut t = TextTable::new(
            format!("Fig. 6 — collocation slowdown, {label}"),
            &["victim \\ aggressor", "tiny", "small", "medium", "big"],
        );
        for victim in BatchClass::ALL {
            let mut row = vec![victim.to_string()];
            for aggressor in BatchClass::ALL {
                row.push(pct(m.slowdown[victim.index()][aggressor.index()]));
            }
            t.row(row);
        }
        out.push_str(&t.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_anchor_cells() {
        let m = run(1.0);
        let s = |v: BatchClass, a: BatchClass| m.slowdown[v.index()][a.index()];
        assert!((s(BatchClass::Tiny, BatchClass::Tiny) - 0.30).abs() < 0.01);
        assert!((s(BatchClass::Tiny, BatchClass::Big) - 0.24).abs() < 0.01);
        assert!((s(BatchClass::Small, BatchClass::Big) - 0.21).abs() < 0.015);
        assert!(s(BatchClass::Big, BatchClass::Big) < 0.02);
    }

    #[test]
    fn matrix_monotone_in_both_axes() {
        let m = run(1.0);
        for i in 0..3 {
            for j in 0..4 {
                assert!(m.slowdown[i][j] >= m.slowdown[i + 1][j]);
                assert!(m.slowdown[j][i] >= m.slowdown[j][i + 1]);
            }
        }
    }

    #[test]
    fn packing_scales_the_matrix_down() {
        let shared = run(1.0);
        let packed = run(0.35);
        for i in 0..4 {
            for j in 0..4 {
                assert!((packed.slowdown[i][j] - 0.35 * shared.slowdown[i][j]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn renders_both_configurations() {
        let s = render();
        assert!(s.contains("socket-sharing"));
        assert!(s.contains("socket-exclusive"));
    }
}
