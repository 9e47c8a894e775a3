//! Property-based invariants of the calibrated performance model.

use gts_job::{BatchClass, NnModel};
use gts_perf::{
    compute_time_s, pairwise_slowdown, sampled_bandwidth_gbs, total_slowdown, PlacementPerf,
};
use gts_topo::{power8_minsky, GpuId};
use proptest::prelude::*;

fn any_model() -> impl Strategy<Value = NnModel> {
    prop::sample::select(NnModel::ALL.to_vec())
}

fn any_batch_class() -> impl Strategy<Value = BatchClass> {
    prop::sample::select(BatchClass::ALL.to_vec())
}

proptest! {
    #[test]
    fn compute_time_is_positive_and_monotone(model in any_model(), b in 1u32..256) {
        let t = compute_time_s(model, b);
        prop_assert!(t > 0.0 && t.is_finite());
        prop_assert!(compute_time_s(model, b + 1) > t);
    }

    #[test]
    fn pack_never_loses_to_spread(model in any_model(), b in 1u32..=128) {
        let m = power8_minsky();
        let pack = PlacementPerf::evaluate(&m, &[GpuId(0), GpuId(1)]).iter_time(model, b);
        let spread = PlacementPerf::evaluate(&m, &[GpuId(0), GpuId(2)]).iter_time(model, b);
        prop_assert!(spread.total_s() >= pack.total_s() - 1e-12);
        // Compute phases are placement-independent.
        prop_assert!((spread.compute_s - pack.compute_s).abs() < 1e-12);
    }

    #[test]
    fn fig4_speedup_bounded_and_decaying(model in any_model()) {
        let m = power8_minsky();
        let mut prev = f64::INFINITY;
        for b in [1u32, 2, 4, 8, 16, 32, 64, 128] {
            let pack = PlacementPerf::evaluate(&m, &[GpuId(0), GpuId(1)])
                .iter_time(model, b).total_s();
            let spread = PlacementPerf::evaluate(&m, &[GpuId(0), GpuId(2)])
                .iter_time(model, b).total_s();
            let speedup = spread / pack;
            prop_assert!((1.0..=1.5).contains(&speedup), "{model} b={b}: {speedup}");
            prop_assert!(speedup <= prev + 1e-12);
            prev = speedup;
        }
    }

    #[test]
    fn interference_is_bounded_and_symmetric_in_structure(
        vm in any_model(), vb in any_batch_class(),
        am in any_model(), ab in any_batch_class(),
        domain in 0.0f64..=1.0,
    ) {
        let s = pairwise_slowdown((vm, vb), (am, ab), domain);
        prop_assert!((0.0..=0.35).contains(&s), "got {s}");
        // Scaling the domain scales the slowdown linearly.
        let half = pairwise_slowdown((vm, vb), (am, ab), domain / 2.0);
        prop_assert!((half - s / 2.0).abs() < 1e-12);
    }

    #[test]
    fn total_slowdown_caps_and_is_monotone_in_corunners(
        vb in any_batch_class(), n in 0usize..12,
    ) {
        let corunners: Vec<_> = (0..n)
            .map(|_| (NnModel::AlexNet, BatchClass::Tiny, 1.0))
            .collect();
        let s = total_slowdown((NnModel::AlexNet, vb), &corunners);
        prop_assert!((0.0..=0.75).contains(&s));
        if n > 0 {
            let fewer = total_slowdown((NnModel::AlexNet, vb), &corunners[..n - 1]);
            prop_assert!(s >= fewer - 1e-12);
        }
    }

    #[test]
    fn sampled_bandwidth_stays_physical(model in any_model(), b in 1u32..=128) {
        let m = power8_minsky();
        let iter = PlacementPerf::evaluate(&m, &[GpuId(0), GpuId(1)]).iter_time(model, b);
        let bw = sampled_bandwidth_gbs(iter, 0.0);
        // Base floor (4) up to just below peak + base (58).
        prop_assert!((4.0..58.0).contains(&bw), "{model} b={b}: {bw}");
        // Bigger batches never raise the sampled bandwidth.
        if b < 128 {
            let next = PlacementPerf::evaluate(&m, &[GpuId(0), GpuId(1)]).iter_time(model, b + 1);
            prop_assert!(sampled_bandwidth_gbs(next, 0.0) <= bw + 1e-9);
        }
    }

    #[test]
    fn iter_time_scales_inverse_with_bottleneck(b in 1u32..=128) {
        // Same route class: more bandwidth, less comm time.
        use gts_perf::comm::comm_time_s;
        use gts_perf::RouteClass;
        let slow = comm_time_s(NnModel::AlexNet, 2, RouteClass::P2p, 16.0);
        let fast = comm_time_s(NnModel::AlexNet, 2, RouteClass::P2p, 40.0);
        prop_assert!(fast < slow);
        let _ = b;
    }
}

#[test]
fn googlenet_is_always_the_least_communicative() {
    let m = power8_minsky();
    for b in [1u32, 4, 16, 64] {
        let g = PlacementPerf::evaluate(&m, &[GpuId(0), GpuId(1)]).iter_time(NnModel::GoogLeNet, b);
        for other in [NnModel::AlexNet, NnModel::CaffeRef] {
            let o = PlacementPerf::evaluate(&m, &[GpuId(0), GpuId(1)]).iter_time(other, b);
            assert!(g.comm_s < o.comm_s, "b={b} {other}");
            assert!(g.comm_duty() < o.comm_duty(), "b={b} {other}");
        }
    }
}
