//! Scheduling breadth on machines beyond the paper's testbed: the
//! NVSwitch-flat DGX-2 and the NVLink-triad Power9 AC922.

use gpu_topo_aware::prelude::*;
use gpu_topo_aware::topo::{dgx2, power9_ac922};
use std::sync::Arc;

#[test]
fn dgx2_hosts_sixteen_gpu_jobs_and_stays_p2p() {
    let machine = dgx2();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 42));
    let cluster = Arc::new(ClusterTopology::homogeneous(machine, 1));
    let jobs = vec![
        JobSpec::new(0, NnModel::AlexNet, BatchClass::Tiny, 16).with_iterations(30),
        JobSpec::new(1, NnModel::AlexNet, BatchClass::Tiny, 4)
            .arriving_at(1e6)
            .with_iterations(30),
    ];
    let res = simulate(cluster, profiles, Policy::new(PolicyKind::TopoAware), jobs);
    assert_eq!(res.records.len(), 2);

    let topo = dgx2();
    for r in &res.records {
        let local: Vec<GpuId> = r.gpus.iter().map(|g| g.gpu).collect();
        let perf = PlacementPerf::evaluate(&topo, &local);
        assert_eq!(
            perf.route,
            RouteClass::P2p,
            "{}: NVSwitch keeps everything P2P",
            r.spec.id
        );
    }
}

#[test]
fn dgx2_pack_vs_spread_is_nearly_flat() {
    // The NVSwitch machine is communication-flat: placement barely matters
    // (which is exactly why the mapper's interference/fragmentation terms
    // still earn their keep there).
    let m = dgx2();
    let same_board = PlacementPerf::evaluate(&m, &[GpuId(0), GpuId(1)])
        .iter_time(NnModel::AlexNet, 1)
        .total_s();
    let cross_board = PlacementPerf::evaluate(&m, &[GpuId(0), GpuId(8)])
        .iter_time(NnModel::AlexNet, 1)
        .total_s();
    let ratio = cross_board / same_board;
    assert!((0.99..1.01).contains(&ratio), "got {ratio}");
}

#[test]
fn ac922_triads_give_a_bigger_pack_win_than_minsky() {
    // 60 GB/s triad NVLink vs the Minsky's 40 GB/s brick: the AC922 packs
    // even better relative to its cross-socket route.
    let m = power9_ac922();
    let pack = PlacementPerf::evaluate(&m, &[GpuId(0), GpuId(1)])
        .iter_time(NnModel::AlexNet, 1)
        .total_s();
    let spread = PlacementPerf::evaluate(&m, &[GpuId(0), GpuId(3)])
        .iter_time(NnModel::AlexNet, 1)
        .total_s();
    let speedup = spread / pack;
    assert!(speedup > 1.3, "got {speedup}");

    // And the scheduler fills triads coherently: a 3-GPU job lands on one
    // socket.
    let profiles = Arc::new(ProfileLibrary::generate(&m, 42));
    let cluster = Arc::new(ClusterTopology::homogeneous(power9_ac922(), 1));
    let state = ClusterState::new(cluster, profiles);
    let job = JobSpec::new(0, NnModel::AlexNet, BatchClass::Tiny, 3).with_min_utility(0.5);
    let d = Policy::new(PolicyKind::TopoAwareP)
        .decide(&state, &job)
        .unwrap();
    let local: Vec<GpuId> = d.gpus.iter().map(|g| g.gpu).collect();
    assert!(power9_ac922().is_packed(&local), "got {local:?}");
    assert!((d.utility - 1.0).abs() < 1e-9);
}

#[test]
fn mixed_generation_fleet_schedules_cleanly() {
    // Minsky + AC922 + DGX-2 in one cluster.
    let machines: Vec<Arc<MachineTopology>> = vec![
        Arc::new(power8_minsky()),
        Arc::new(power9_ac922()),
        Arc::new(dgx2()),
    ];
    let cluster = Arc::new(ClusterTopology::from_machines(machines));
    let profiles = Arc::new(ProfileLibrary::generate(&power8_minsky(), 42));
    let trace = WorkloadGenerator::with_defaults(88).generate(30);
    let res = simulate(
        cluster,
        profiles,
        Policy::new(PolicyKind::TopoAwareP),
        trace,
    );
    assert_eq!(res.records.len(), 30);
    assert_eq!(res.slo_violations, 0);
}
