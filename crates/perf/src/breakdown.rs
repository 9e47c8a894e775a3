//! Fig. 3 — execution-time breakdown into GPU computation and GPU
//! communication, under pack (P2P) and spread (no-P2P) placements.

use crate::placement::{IterTime, PlacementPerf};
use gts_job::{BatchClass, NnModel};
use gts_topo::{GpuId, MachineTopology};

/// Compute/communication shares of a workload's execution time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Breakdown {
    /// Network measured.
    pub model: NnModel,
    /// Batch class measured.
    pub batch: BatchClass,
    /// Fraction of time in GPU compute, [0, 1].
    pub compute_frac: f64,
    /// Fraction of time in GPU communication under pack (P2P), [0, 1].
    pub comm_frac_pack: f64,
    /// Fraction of time in GPU communication under spread (no P2P), [0, 1].
    pub comm_frac_spread: f64,
}

fn fractions(iter: IterTime) -> (f64, f64) {
    let total = iter.total_s();
    (iter.compute_s / total, iter.comm_s / total)
}

/// Computes the Fig. 3 breakdown for a 2-GPU job of `model`/`batch` on
/// `machine`, using `pack` (two GPUs of one socket) and `spread` (one GPU
/// per socket) allocations.
pub fn breakdown(
    machine: &MachineTopology,
    model: NnModel,
    batch: BatchClass,
    pack: &[GpuId],
    spread: &[GpuId],
) -> Breakdown {
    let b = batch.representative_batch();
    let it_pack = PlacementPerf::evaluate(machine, pack).iter_time(model, b);
    let it_spread = PlacementPerf::evaluate(machine, spread).iter_time(model, b);
    let (compute_frac, comm_frac_pack) = fractions(it_pack);
    let (_, comm_frac_spread) = fractions(it_spread);
    Breakdown {
        model,
        batch,
        compute_frac,
        comm_frac_pack,
        comm_frac_spread,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_topo::power8_minsky;

    fn bd(model: NnModel, batch: BatchClass) -> Breakdown {
        let m = power8_minsky();
        breakdown(
            &m,
            model,
            batch,
            &[GpuId(0), GpuId(1)],
            &[GpuId(0), GpuId(2)],
        )
    }

    #[test]
    fn tiny_alexnet_is_communication_dominated() {
        let b = bd(NnModel::AlexNet, BatchClass::Tiny);
        assert!(b.comm_frac_pack > 0.5, "got {}", b.comm_frac_pack);
        // Spread spends an even larger share communicating.
        assert!(b.comm_frac_spread > b.comm_frac_pack);
    }

    #[test]
    fn big_alexnet_is_compute_dominated() {
        let b = bd(NnModel::AlexNet, BatchClass::Big);
        assert!(b.compute_frac > 0.9, "got {}", b.compute_frac);
        assert!(b.comm_frac_pack < 0.1);
    }

    #[test]
    fn googlenet_communicates_least() {
        let g = bd(NnModel::GoogLeNet, BatchClass::Tiny);
        let a = bd(NnModel::AlexNet, BatchClass::Tiny);
        assert!(g.comm_frac_pack < a.comm_frac_pack / 3.0);
    }

    #[test]
    fn comm_share_falls_monotonically_with_batch() {
        let mut prev = f64::INFINITY;
        for batch in BatchClass::ALL {
            let b = bd(NnModel::AlexNet, batch);
            assert!(b.comm_frac_pack < prev, "{batch}");
            prev = b.comm_frac_pack;
        }
    }

    #[test]
    fn fractions_sum_to_one() {
        for model in NnModel::ALL {
            for batch in BatchClass::ALL {
                let b = bd(model, batch);
                assert!((b.compute_frac + b.comm_frac_pack - 1.0).abs() < 1e-9);
            }
        }
    }
}
