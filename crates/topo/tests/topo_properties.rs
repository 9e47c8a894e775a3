//! Property-based invariants of the topology substrate.

use gts_topo::{dgx1, power8_minsky, symmetric_machine, GpuId, LinkProfile, MachineTopology};
use proptest::prelude::*;

fn arb_machine() -> impl Strategy<Value = MachineTopology> {
    (1usize..=4, 1usize..=6, prop::bool::ANY).prop_map(|(sockets, gpus, nvlink)| {
        let profile = if nvlink {
            LinkProfile::nvlink_dual()
        } else {
            LinkProfile::pcie_gen3()
        };
        symmetric_machine("prop", sockets, gpus, profile)
    })
}

proptest! {
    #[test]
    fn distances_are_a_metric(m in arb_machine()) {
        let n = m.n_gpus();
        for i in 0..n {
            for j in 0..n {
                let a = GpuId(i as u32);
                let b = GpuId(j as u32);
                let d = m.distance(a, b);
                // Symmetry and identity.
                prop_assert_eq!(d, m.distance(b, a));
                if i == j {
                    prop_assert_eq!(d, 0.0);
                } else {
                    prop_assert!(d > 0.0);
                }
                // Triangle inequality (shortest paths are a metric, even
                // with the GPU-transit restriction, because the middle GPU
                // only weakens the bound).
                for k in 0..n {
                    let c = GpuId(k as u32);
                    prop_assert!(m.distance(a, b) <= m.distance(a, c) + m.distance(c, b) + 2.0);
                }
            }
        }
    }

    #[test]
    fn same_socket_is_never_farther_than_cross_socket(m in arb_machine()) {
        let n = m.n_gpus();
        let mut intra: f64 = 0.0;
        let mut cross = f64::INFINITY;
        for i in 0..n {
            for j in (i + 1)..n {
                let a = GpuId(i as u32);
                let b = GpuId(j as u32);
                let d = m.distance(a, b);
                if m.socket_of(a) == m.socket_of(b) {
                    intra = intra.max(d);
                } else {
                    cross = cross.min(d);
                }
            }
        }
        // Vacuously true when one of the classes is empty.
        prop_assert!(intra <= cross);
    }

    #[test]
    fn level_weights_validate(m in arb_machine()) {
        prop_assert!(m.graph().validate_level_weights().is_ok());
    }

    #[test]
    fn pairwise_cost_is_monotone_in_set_growth(m in arb_machine()) {
        let all: Vec<GpuId> = m.gpus().collect();
        for take in 1..=all.len() {
            let cost_small = m.pairwise_cost(&all[..take - 1]);
            let cost_big = m.pairwise_cost(&all[..take]);
            prop_assert!(cost_big >= cost_small);
        }
    }

    #[test]
    fn packed_sets_span_one_socket(m in arb_machine(), seed in 0usize..32) {
        let socket = gts_topo::SocketId((seed % m.n_sockets()) as u32);
        let set = m.gpus_in_socket(socket);
        prop_assert!(m.is_packed(&set));
        if !set.is_empty() {
            prop_assert_eq!(m.sockets_spanned(&set), 1);
        }
    }
}

#[test]
fn fixed_machines_are_metric_too() {
    for m in [power8_minsky(), dgx1()] {
        let n = m.n_gpus();
        for i in 0..n {
            for j in 0..n {
                assert_eq!(
                    m.distance(GpuId(i as u32), GpuId(j as u32)),
                    m.distance(GpuId(j as u32), GpuId(i as u32))
                );
            }
        }
    }
}
