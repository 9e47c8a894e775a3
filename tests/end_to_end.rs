//! Cross-crate integration: workload generation → scheduling → simulation
//! under every policy, checking the paper's qualitative claims on several
//! seeds and cluster shapes.

use gpu_topo_aware::prelude::*;
use std::sync::Arc;

fn setup(n_machines: usize) -> (Arc<ClusterTopology>, Arc<ProfileLibrary>) {
    let machine = power8_minsky();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 42));
    (
        Arc::new(ClusterTopology::homogeneous(machine, n_machines)),
        profiles,
    )
}

#[test]
fn every_policy_completes_every_placeable_job() {
    let (cluster, profiles) = setup(4);
    for seed in [1u64, 2, 3] {
        let trace = WorkloadGenerator::with_defaults(seed).generate(80);
        for kind in PolicyKind::ALL {
            let res = simulate(
                Arc::clone(&cluster),
                Arc::clone(&profiles),
                Policy::new(kind),
                trace.clone(),
            );
            assert_eq!(
                res.records.len() + res.unplaceable.len(),
                80,
                "seed {seed} {kind}: jobs lost"
            );
            assert!(res.unplaceable.is_empty(), "seed {seed} {kind}");
        }
    }
}

#[test]
fn topo_aware_p_never_violates_slos() {
    // TOPO-AWARE-P postpones instead of accepting sub-threshold placements,
    // so it must end every run with zero violations (the paper's headline
    // SLO claim).
    let (cluster, profiles) = setup(3);
    for seed in [10u64, 20, 30, 40] {
        let trace = WorkloadGenerator::with_defaults(seed).generate(60);
        let res = simulate(
            Arc::clone(&cluster),
            Arc::clone(&profiles),
            Policy::new(PolicyKind::TopoAwareP),
            trace,
        );
        assert_eq!(res.slo_violations, 0, "seed {seed}");
        for r in &res.records {
            assert!(!r.slo_violated, "seed {seed}: {}", r.spec.id);
            assert!(
                r.utility + 1e-9 >= r.spec.min_utility,
                "seed {seed}: {}",
                r.spec.id
            );
        }
    }
}

#[test]
fn topology_aware_placements_dominate_greedy_on_qos() {
    let (cluster, profiles) = setup(5);
    let mut tap_wins = 0;
    let mut total = 0;
    for seed in [100u64, 200, 300] {
        let trace = WorkloadGenerator::with_defaults(seed).generate(100);
        let fcfs = simulate(
            Arc::clone(&cluster),
            Arc::clone(&profiles),
            Policy::new(PolicyKind::Fcfs),
            trace.clone(),
        );
        let tap = simulate(
            Arc::clone(&cluster),
            Arc::clone(&profiles),
            Policy::new(PolicyKind::TopoAwareP),
            trace,
        );
        total += 1;
        if tap.mean_qos_slowdown() <= fcfs.mean_qos_slowdown() + 1e-9 {
            tap_wins += 1;
        }
    }
    assert_eq!(tap_wins, total, "TOPO-AWARE-P lost on mean QoS slowdown");
}

#[test]
fn gpus_are_never_double_booked_across_the_stack() {
    let (cluster, profiles) = setup(2);
    let trace = WorkloadGenerator::with_defaults(77).generate(50);
    for kind in PolicyKind::ALL {
        let res = simulate(
            Arc::clone(&cluster),
            Arc::clone(&profiles),
            Policy::new(kind),
            trace.clone(),
        );
        for (i, a) in res.timeline.iter().enumerate() {
            for b in &res.timeline[i + 1..] {
                let overlap = a.start_s < b.end_s - 1e-9 && b.start_s < a.end_s - 1e-9;
                if overlap {
                    for g in &a.gpus {
                        assert!(!b.gpus.contains(g), "{kind}: {g} double-booked");
                    }
                }
            }
        }
    }
}

#[test]
fn heterogeneous_cluster_of_minsky_and_dgx1() {
    // Mixed fleet: the scheduler must route 8-GPU jobs to the DGX-1s and
    // still serve small jobs anywhere.
    let minsky = Arc::new(power8_minsky());
    let dgx = Arc::new(dgx1());
    let cluster = Arc::new(ClusterTopology::from_machines(vec![
        Arc::clone(&minsky),
        Arc::clone(&dgx),
    ]));
    let profiles = Arc::new(ProfileLibrary::generate(&minsky, 42));

    let jobs = vec![
        JobSpec::new(0, NnModel::AlexNet, BatchClass::Tiny, 8)
            .arriving_at(0.0)
            .with_iterations(50),
        JobSpec::new(1, NnModel::AlexNet, BatchClass::Tiny, 2)
            .arriving_at(1.0)
            .with_iterations(50)
            .with_min_utility(0.5),
    ];
    let res = simulate(cluster, profiles, Policy::new(PolicyKind::TopoAware), jobs);
    assert_eq!(res.records.len(), 2);
    let j0 = res.record(JobId(0)).unwrap();
    assert!(
        j0.gpus.iter().all(|g| g.machine == MachineId(1)),
        "8-GPU job must use the DGX-1"
    );
    let j1 = res.record(JobId(1)).unwrap();
    assert!(
        j1.gpus.iter().all(|g| g.machine == MachineId(0)),
        "small job should avoid the busy DGX-1"
    );
}

#[test]
fn oversized_multi_node_job_spills_across_machines() {
    // The disaggregated-GPU extension: a 6-GPU job on 4-GPU machines runs
    // when (and only when) it allows multi-node execution.
    let (cluster, profiles) = setup(2);
    let mut spillable = JobSpec::new(0, NnModel::AlexNet, BatchClass::Tiny, 6)
        .arriving_at(0.0)
        .with_iterations(20);
    spillable.constraints = Constraints {
        single_node: false,
        anti_collocate: false,
    };
    let pinned = JobSpec::new(1, NnModel::AlexNet, BatchClass::Tiny, 6)
        .arriving_at(0.0)
        .with_iterations(20); // single-node: impossible on 4-GPU machines

    let res = simulate(
        Arc::clone(&cluster),
        Arc::clone(&profiles),
        Policy::new(PolicyKind::TopoAware),
        vec![spillable, pinned],
    );
    assert_eq!(res.records.len(), 1);
    assert_eq!(res.unplaceable.len(), 1);
    assert_eq!(res.unplaceable[0].id, JobId(1));

    let r = res.record(JobId(0)).unwrap();
    let m0 = r.gpus.iter().filter(|g| g.machine == MachineId(0)).count();
    let m1 = r.gpus.iter().filter(|g| g.machine == MachineId(1)).count();
    assert_eq!(
        m0.max(m1),
        4,
        "topology-aware spill fills a whole machine first"
    );
    assert_eq!(m0 + m1, 6);
}

#[test]
fn anti_collocated_jobs_run_across_machines_end_to_end() {
    let (cluster, profiles) = setup(3);
    let mut job = JobSpec::new(0, NnModel::AlexNet, BatchClass::Tiny, 3)
        .arriving_at(0.0)
        .with_iterations(20);
    job.constraints = Constraints {
        single_node: false,
        anti_collocate: true,
    };
    let res = simulate(
        cluster,
        profiles,
        Policy::new(PolicyKind::TopoAware),
        vec![job],
    );
    assert_eq!(res.records.len(), 1);
    let machines: std::collections::HashSet<MachineId> =
        res.records[0].gpus.iter().map(|g| g.machine).collect();
    assert_eq!(machines.len(), 3, "tasks must spread across 3 machines");
    // Network-bound gradient exchange makes execution far slower than the
    // single-node ideal — the cost the constraint explicitly accepts.
    assert!(res.records[0].qos_slowdown() > 0.5);
}
