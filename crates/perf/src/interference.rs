//! Collocation interference (§3.3, Fig. 6).
//!
//! Jobs never share GPUs, but they share the buses feeding them. The model:
//!
//! ```text
//! slowdown(A | B) = sens(batch_A)·scale(model_A) · press(batch_B)·scale(model_B) · domain
//! ```
//!
//! where `domain` is 1.0 when the jobs' GPU sets touch a common socket,
//! 0.35 when they only share machine-level buses, and 0 otherwise; `scale`
//! derates the coefficients for networks that barely use the bus
//! (GoogLeNet). Multiple aggressors add up, capped at
//! [`crate::calibration::SLOWDOWN_CAP`].

use crate::calibration::{
    pressure, sensitivity, DOMAIN_SAME_MACHINE, DOMAIN_SAME_SOCKET, SLOWDOWN_CAP,
};
use gts_job::{BatchClass, NnModel};
use gts_topo::{GpuId, MachineTopology};

/// Bus-usage scale of a network relative to AlexNet, clamped to [0, 1].
/// GoogLeNet's small gradients make it both less sensitive and less
/// aggressive.
pub fn model_bus_scale(model: NnModel) -> f64 {
    let alex = NnModel::AlexNet.gradient_bytes() as f64;
    (model.gradient_bytes() as f64 / alex).min(1.0)
}

/// Domain factor between two GPU allocations on the same machine: 1.0 when
/// they touch a common socket, 0.35 otherwise (same machine, different
/// sockets still share the X-Bus and memory controllers).
pub fn domain_factor(machine: &MachineTopology, gpus_a: &[GpuId], gpus_b: &[GpuId]) -> f64 {
    if gpus_a.is_empty() || gpus_b.is_empty() {
        return 0.0;
    }
    let shares_socket = gpus_a.iter().any(|&a| {
        gpus_b
            .iter()
            .any(|&b| machine.socket_of(a) == machine.socket_of(b))
    });
    if shares_socket {
        DOMAIN_SAME_SOCKET
    } else {
        DOMAIN_SAME_MACHINE
    }
}

/// Slowdown job A suffers from job B through a bus domain with the given
/// factor, before capping.
pub fn pairwise_slowdown(
    victim: (NnModel, BatchClass),
    aggressor: (NnModel, BatchClass),
    domain: f64,
) -> f64 {
    sensitivity(victim.1)
        * model_bus_scale(victim.0)
        * pressure(aggressor.1)
        * model_bus_scale(aggressor.0)
        * domain
}

/// Combined slowdown a job suffers from all co-runners: additive, capped.
/// Each co-runner is `(model, batch, domain_factor)`.
pub fn total_slowdown(
    victim: (NnModel, BatchClass),
    corunners: &[(NnModel, BatchClass, f64)],
) -> f64 {
    let sum: f64 = corunners
        .iter()
        .map(|&(m, b, d)| pairwise_slowdown(victim, (m, b), d))
        .sum();
    sum.min(SLOWDOWN_CAP)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_topo::power8_minsky;

    const A: NnModel = NnModel::AlexNet;

    #[test]
    fn fig6_tiny_tiny_is_30_percent() {
        let s = pairwise_slowdown((A, BatchClass::Tiny), (A, BatchClass::Tiny), 1.0);
        assert!((s - 0.30).abs() < 0.01, "got {s}");
    }

    #[test]
    fn fig6_tiny_suffers_24_percent_from_big() {
        let s = pairwise_slowdown((A, BatchClass::Tiny), (A, BatchClass::Big), 1.0);
        assert!((s - 0.24).abs() < 0.01, "got {s}");
    }

    #[test]
    fn fig6_small_suffers_21_percent_from_big() {
        let s = pairwise_slowdown((A, BatchClass::Small), (A, BatchClass::Big), 1.0);
        assert!((s - 0.21).abs() < 0.015, "got {s}");
    }

    #[test]
    fn fig6_big_big_is_negligible() {
        let s = pairwise_slowdown((A, BatchClass::Big), (A, BatchClass::Big), 1.0);
        assert!(s < 0.02, "got {s}");
    }

    #[test]
    fn googlenet_interferes_much_less() {
        let g = pairwise_slowdown(
            (A, BatchClass::Tiny),
            (NnModel::GoogLeNet, BatchClass::Tiny),
            1.0,
        );
        let a = pairwise_slowdown((A, BatchClass::Tiny), (A, BatchClass::Tiny), 1.0);
        assert!(g < a / 5.0, "googlenet {g} vs alexnet {a}");
    }

    #[test]
    fn domain_factor_depends_on_socket_overlap() {
        let m = power8_minsky();
        // Same socket.
        assert_eq!(domain_factor(&m, &[GpuId(0)], &[GpuId(1)]), 1.0);
        // Different sockets, same machine.
        assert_eq!(domain_factor(&m, &[GpuId(0)], &[GpuId(2)]), 0.35);
        // Overlapping multi-GPU sets: sharing any socket counts fully.
        assert_eq!(domain_factor(&m, &[GpuId(0), GpuId(2)], &[GpuId(3)]), 1.0);
        // Empty sets do not interfere.
        assert_eq!(domain_factor(&m, &[], &[GpuId(0)]), 0.0);
    }

    #[test]
    fn total_slowdown_adds_and_caps() {
        let one = total_slowdown((A, BatchClass::Tiny), &[(A, BatchClass::Tiny, 1.0)]);
        let two = total_slowdown(
            (A, BatchClass::Tiny),
            &[(A, BatchClass::Tiny, 1.0), (A, BatchClass::Tiny, 1.0)],
        );
        assert!((two - 2.0 * one).abs() < 1e-12);
        let many: Vec<_> = (0..10).map(|_| (A, BatchClass::Tiny, 1.0)).collect();
        assert_eq!(total_slowdown((A, BatchClass::Tiny), &many), 0.75);
    }

    #[test]
    fn solo_job_has_zero_slowdown() {
        assert_eq!(total_slowdown((A, BatchClass::Tiny), &[]), 0.0);
    }

    #[test]
    fn cross_socket_domain_reduces_interference() {
        let same = pairwise_slowdown((A, BatchClass::Tiny), (A, BatchClass::Tiny), 1.0);
        let cross = pairwise_slowdown((A, BatchClass::Tiny), (A, BatchClass::Tiny), 0.35);
        assert!((cross - 0.35 * same).abs() < 1e-12);
    }
}
