//! Fig. 3 — application breakdown: % GPU computation vs communication,
//! under pack (P2P) and spread (no-P2P) placements.

use super::{minsky_cluster, pack_spread_pairs};
use crate::table::{pct, TextTable};
use gts_core::perf::breakdown;
use gts_core::prelude::*;

/// One bar group of Fig. 3.
#[derive(Debug, Clone, Copy)]
pub struct Fig3Row {
    /// Network.
    pub model: NnModel,
    /// Batch class.
    pub batch: BatchClass,
    /// Fraction of time computing (pack placement).
    pub compute_frac: f64,
    /// Fraction communicating under pack (P2P).
    pub comm_frac_pack: f64,
    /// Fraction communicating under spread (no P2P).
    pub comm_frac_spread: f64,
}

/// Computes every bar of Fig. 3.
pub fn run() -> Vec<Fig3Row> {
    let (cluster, _) = minsky_cluster(1);
    let machine = cluster.machine(MachineId(0));
    let (pack, spread) = pack_spread_pairs(machine);
    let mut rows = Vec::with_capacity(12);
    for model in NnModel::ALL {
        for batch in BatchClass::ALL {
            let b = breakdown::breakdown(machine, model, batch, &pack, &spread);
            rows.push(Fig3Row {
                model,
                batch,
                compute_frac: b.compute_frac,
                comm_frac_pack: b.comm_frac_pack,
                comm_frac_spread: b.comm_frac_spread,
            });
        }
    }
    rows
}

/// Renders the Fig. 3 table.
pub fn render() -> String {
    let mut t = TextTable::new(
        "Fig. 3 — execution-time breakdown (2-GPU jobs on Power8/NVLink)",
        &[
            "NN",
            "batch",
            "GPU-compute",
            "comm (pack=P2P)",
            "comm (spread=no-P2P)",
        ],
    );
    for r in run() {
        t.row(vec![
            r.model.to_string(),
            r.batch.to_string(),
            pct(r.compute_frac),
            pct(r.comm_frac_pack),
            pct(r.comm_frac_spread),
        ]);
    }
    t.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_twelve_bars() {
        assert_eq!(run().len(), 12);
    }

    #[test]
    fn paper_shape_holds() {
        let rows = run();
        // Tiny AlexNet is communication-dominated; big AlexNet compute-
        // dominated (the Fig. 3 extremes).
        let tiny_alex = rows
            .iter()
            .find(|r| r.model == NnModel::AlexNet && r.batch == BatchClass::Tiny)
            .unwrap();
        assert!(tiny_alex.comm_frac_pack > 0.5);
        let big_alex = rows
            .iter()
            .find(|r| r.model == NnModel::AlexNet && r.batch == BatchClass::Big)
            .unwrap();
        assert!(big_alex.compute_frac > 0.9);
        // GoogLeNet's communication share is small at every batch size.
        for r in rows.iter().filter(|r| r.model == NnModel::GoogLeNet) {
            assert!(r.comm_frac_pack < 0.25, "{:?}", r);
        }
        // Spread always communicates at least as long as pack.
        for r in &rows {
            assert!(r.comm_frac_spread >= r.comm_frac_pack - 1e-12);
        }
    }

    #[test]
    fn renders() {
        let s = render();
        assert!(s.contains("AlexNet"));
        assert!(s.contains("GoogLeNet"));
    }
}
