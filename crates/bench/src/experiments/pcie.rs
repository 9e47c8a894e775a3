//! §3.2 (text) — NVLink machine vs PCIe/K80 machine: pack speedups.
//!
//! Paper anchors: AlexNet batch 1 → 1.27× (NVLink) vs 1.24× (PCIe);
//! batch 2 → 1.30× vs 1.21×; batch 8 → 1.20× vs 1.10×. Our PCIe machine
//! routes peer traffic through a per-socket switch, so pack keeps P2P but
//! at PCIe bandwidth; the model reproduces the ordering and monotone decay,
//! with a smaller absolute PCIe gain (documented in EXPERIMENTS.md).

use super::fig4::speedup_on;
use crate::table::{f, TextTable};
use gts_core::prelude::*;

/// One machine-vs-machine comparison point.
#[derive(Debug, Clone, Copy)]
pub struct PciePoint {
    /// Per-GPU batch size.
    pub batch: u32,
    /// Pack speedup on the NVLink Minsky.
    pub nvlink: f64,
    /// Pack speedup on the PCIe/K80 machine.
    pub pcie: f64,
}

/// The paper's three quoted batch sizes plus the rest of the sweep.
pub fn run() -> Vec<PciePoint> {
    let nv = power8_minsky();
    let pc = power8_pcie_k80();
    [1u32, 2, 4, 8, 16, 32, 64, 128]
        .iter()
        .map(|&batch| PciePoint {
            batch,
            nvlink: speedup_on(&nv, NnModel::AlexNet, batch),
            pcie: speedup_on(&pc, NnModel::AlexNet, batch),
        })
        .collect()
}

/// Renders the comparison with the paper's quoted values alongside.
pub fn render() -> String {
    let mut t = TextTable::new(
        "§3.2 — pack speedup: NVLink vs PCIe machine (AlexNet)",
        &[
            "batch",
            "NVLink (ours)",
            "PCIe (ours)",
            "NVLink (paper)",
            "PCIe (paper)",
        ],
    );
    let paper: &[(u32, &str, &str)] = &[
        (1, "1.27", "1.24"),
        (2, "1.30", "1.21"),
        (8, "1.20", "1.10"),
    ];
    for p in run() {
        let quoted = paper.iter().find(|(b, _, _)| *b == p.batch);
        t.row(vec![
            p.batch.to_string(),
            f(p.nvlink, 3),
            f(p.pcie, 3),
            quoted
                .map(|(_, n, _)| n.to_string())
                .unwrap_or_else(|| "-".into()),
            quoted
                .map(|(_, _, q)| q.to_string())
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    t.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcie_still_benefits_but_less_than_nvlink() {
        for p in run().iter().filter(|p| p.batch <= 8) {
            assert!(
                p.pcie > 1.05,
                "batch {}: PCIe gain vanished: {}",
                p.batch,
                p.pcie
            );
            assert!(
                p.nvlink > p.pcie,
                "batch {}: NVLink gain {} should exceed PCIe {}",
                p.batch,
                p.nvlink,
                p.pcie
            );
        }
    }

    #[test]
    fn both_machines_decay_to_parity_at_big_batches() {
        let points = run();
        let last = points.last().unwrap();
        assert!((0.98..1.06).contains(&last.nvlink));
        assert!((0.98..1.06).contains(&last.pcie));
    }

    #[test]
    fn renders_with_paper_columns() {
        let s = render();
        assert!(s.contains("paper"));
        assert!(s.contains("1.27"));
    }
}
