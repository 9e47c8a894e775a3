//! §4.3 memory-bandwidth capacity constraint (`t_bw ≤ p_bw`): end-to-end
//! behaviour through the allocation state and every policy.

use gts_job::{BatchClass, JobSpec, NnModel};
use gts_perf::ProfileLibrary;
use gts_sched::{ClusterState, Policy, PolicyKind};
use gts_topo::{power8_minsky, ClusterTopology, GpuId, MachineId, SocketId};
use std::sync::Arc;

fn state(n_machines: usize, capacity: f64) -> ClusterState {
    let machine = power8_minsky();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 1));
    let cluster = Arc::new(ClusterTopology::homogeneous(machine, n_machines));
    ClusterState::new(cluster, profiles).with_bw_capacity(capacity)
}

fn hungry_job(id: u64, gpus: u32, demand: f64) -> JobSpec {
    JobSpec::new(id, NnModel::AlexNet, BatchClass::Tiny, gpus).with_bw_demand(demand)
}

#[test]
fn accounting_debits_and_credits_sockets() {
    let mut s = state(1, 100.0);
    assert_eq!(s.socket_bw_free(MachineId(0), SocketId(0)), 100.0);

    // 2-GPU job packed on socket 0 demanding 60 GB/s.
    let job = hungry_job(0, 2, 60.0);
    let gpus = gts_sched::state::on_machine(MachineId(0), &[GpuId(0), GpuId(1)]);
    s.place(job, gpus, 1.0);
    assert!((s.socket_bw_free(MachineId(0), SocketId(0)) - 40.0).abs() < 1e-9);
    assert_eq!(s.socket_bw_free(MachineId(0), SocketId(1)), 100.0);

    s.release(gts_job::JobId(0));
    assert_eq!(s.socket_bw_free(MachineId(0), SocketId(0)), 100.0);
}

#[test]
fn spread_allocation_splits_the_demand() {
    let mut s = state(1, 100.0);
    let job = hungry_job(0, 2, 60.0);
    let gpus = gts_sched::state::on_machine(MachineId(0), &[GpuId(0), GpuId(2)]);
    s.place(job, gpus, 0.5);
    assert!((s.socket_bw_free(MachineId(0), SocketId(0)) - 70.0).abs() < 1e-9);
    assert!((s.socket_bw_free(MachineId(0), SocketId(1)) - 70.0).abs() < 1e-9);
}

#[test]
fn fits_bw_rejects_oversubscription() {
    let mut s = state(1, 100.0);
    s.place(
        hungry_job(0, 2, 80.0),
        gts_sched::state::on_machine(MachineId(0), &[GpuId(0), GpuId(1)]),
        1.0,
    );
    // Socket 0 has 20 GB/s left: another 30 GB/s job does not fit there...
    assert!(!s.fits_bw(MachineId(0), &[GpuId(0)], 30.0));
    // ...but fits on socket 1.
    assert!(s.fits_bw(MachineId(0), &[GpuId(2)], 30.0));
    // Zero-demand jobs always fit.
    assert!(s.fits_bw(MachineId(0), &[GpuId(0)], 0.0));
}

#[test]
fn policies_route_around_bandwidth_saturated_machines() {
    for kind in PolicyKind::ALL {
        let mut s = state(2, 100.0);
        // Saturate machine 0's bandwidth with two 1-GPU jobs (one per
        // socket) so GPUs remain free but no bandwidth does.
        s.place(
            hungry_job(10, 1, 100.0),
            gts_sched::state::on_machine(MachineId(0), &[GpuId(0)]),
            1.0,
        );
        s.place(
            hungry_job(11, 1, 100.0),
            gts_sched::state::on_machine(MachineId(0), &[GpuId(2)]),
            1.0,
        );
        let d = Policy::new(kind)
            .decide(&s, &hungry_job(0, 2, 50.0))
            .unwrap_or_else(|| panic!("{kind}: machine 1 has room"));
        assert_eq!(
            d.gpus[0].machine,
            MachineId(1),
            "{kind} ignored the bw constraint"
        );
    }
}

#[test]
fn fully_saturated_cluster_defers_the_job() {
    let mut s = state(1, 50.0);
    s.place(
        hungry_job(10, 1, 50.0),
        gts_sched::state::on_machine(MachineId(0), &[GpuId(0)]),
        1.0,
    );
    s.place(
        hungry_job(11, 1, 50.0),
        gts_sched::state::on_machine(MachineId(0), &[GpuId(2)]),
        1.0,
    );
    for kind in PolicyKind::ALL {
        assert!(
            Policy::new(kind)
                .decide(&s, &hungry_job(0, 1, 10.0))
                .is_none(),
            "{kind} placed into a saturated machine"
        );
    }
    // A zero-demand job still fits: only bandwidth is exhausted, not GPUs.
    assert!(Policy::new(PolicyKind::Fcfs)
        .decide(&s, &hungry_job(1, 1, 0.0))
        .is_some());
}

#[test]
fn spec_validation_rejects_negative_demand() {
    let mut j = hungry_job(0, 1, 10.0);
    assert!(j.validate().is_ok());
    j.bw_demand_gbs = -1.0;
    assert!(j.validate().is_err());
    j.bw_demand_gbs = f64::NAN;
    assert!(j.validate().is_err());
}
