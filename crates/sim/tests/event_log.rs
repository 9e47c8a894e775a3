//! The simulation event log: a faithful, time-ordered account of the run.

use gts_job::scenario::table1;
use gts_job::JobId;
use gts_perf::ProfileLibrary;
use gts_sched::{Policy, PolicyKind};
use gts_sim::engine::simulate;
use gts_sim::SimEvent;
use gts_topo::{power8_minsky, ClusterTopology, MachineId};
use std::sync::Arc;

fn run(kind: PolicyKind) -> gts_sim::SimResult {
    let machine = power8_minsky();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 42));
    let cluster = Arc::new(ClusterTopology::homogeneous(machine, 1));
    simulate(cluster, profiles, Policy::new(kind), table1())
}

#[test]
fn log_is_time_ordered_and_complete() {
    let res = run(PolicyKind::TopoAwareP);
    assert!(!res.events.is_empty());
    for w in res.events.windows(2) {
        assert!(w[0].t_s() <= w[1].t_s() + 1e-9, "{w:?}");
    }
    // Every job arrives, places and completes exactly once.
    for id in 0..6u64 {
        let job = JobId(id);
        let arrived = res
            .events
            .iter()
            .filter(|e| matches!(e, SimEvent::Arrived { job: j, .. } if *j == job))
            .count();
        let placed = res
            .events
            .iter()
            .filter(|e| matches!(e, SimEvent::Placed { job: j, .. } if *j == job))
            .count();
        let completed = res
            .events
            .iter()
            .filter(|e| matches!(e, SimEvent::Completed { job: j, .. } if *j == job))
            .count();
        assert_eq!((arrived, placed, completed), (1, 1, 1), "J{id}");
    }
}

#[test]
fn postponements_show_up_in_the_log() {
    let res = run(PolicyKind::TopoAwareP);
    let postponed: Vec<&SimEvent> = res
        .events
        .iter()
        .filter(|e| matches!(e, SimEvent::Postponed { .. }))
        .collect();
    assert!(
        postponed
            .iter()
            .any(|e| matches!(e, SimEvent::Postponed { job, .. } if *job == JobId(3))),
        "Job 3 must be postponed at least once: {postponed:?}"
    );
    // No other policy postpones.
    let fcfs = run(PolicyKind::Fcfs);
    assert!(fcfs
        .events
        .iter()
        .all(|e| !matches!(e, SimEvent::Postponed { .. })));
}

#[test]
fn failures_enter_the_log() {
    use gts_job::{BatchClass, JobSpec, NnModel};
    use gts_sim::{SimConfig, Simulation};
    let machine = power8_minsky();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 42));
    let cluster = Arc::new(ClusterTopology::homogeneous(machine, 2));
    let trace = vec![JobSpec::new(0, NnModel::AlexNet, BatchClass::Small, 2).with_iterations(400)];
    let config = SimConfig::new(Policy::new(PolicyKind::Fcfs))
        .with_machine_failures(vec![(10.0, MachineId(0))]);
    let res = Simulation::new(cluster, profiles, config).run(trace);
    assert!(res
        .events
        .iter()
        .any(|e| matches!(e, SimEvent::MachineFailed { machine, .. } if *machine == MachineId(0))));
    // The restarted job places twice in the log.
    let placed = res
        .events
        .iter()
        .filter(|e| matches!(e, SimEvent::Placed { job, .. } if *job == JobId(0)))
        .count();
    assert_eq!(placed, 2);
}

/// A failure lists the jobs it tore down, and only those: two machines
/// failing at one instant each report their own victim, although the
/// first one's victim is still queued for its restart when the second
/// fails.
#[test]
fn a_failure_lists_only_its_own_victims() {
    use gts_job::{BatchClass, JobSpec, NnModel};
    use gts_sim::{SimConfig, Simulation};
    let machine = power8_minsky();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 42));
    let cluster = Arc::new(ClusterTopology::homogeneous(machine, 3));
    let trace = (0..2)
        .map(|id| JobSpec::new(id, NnModel::AlexNet, BatchClass::Small, 4).with_iterations(400))
        .collect();
    let config = SimConfig::new(Policy::new(PolicyKind::Fcfs))
        .with_machine_failures(vec![(1.0, MachineId(0)), (1.0, MachineId(1))]);
    let res = Simulation::new(cluster, profiles, config).run(trace);
    let first_gpus: Vec<MachineId> = (0..2)
        .map(|id| {
            let seg = res
                .timeline
                .iter()
                .find(|s| s.job == JobId(id))
                .expect("placed");
            seg.gpus[0].machine
        })
        .collect();
    assert_eq!(
        first_gpus,
        [MachineId(0), MachineId(1)],
        "J0 and J1 start apart"
    );
    let failed: Vec<(MachineId, Vec<JobId>)> = res
        .events
        .iter()
        .filter_map(|e| match e {
            SimEvent::MachineFailed {
                machine,
                interrupted,
                ..
            } => Some((*machine, interrupted.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(
        failed,
        [
            (MachineId(0), vec![JobId(0)]),
            (MachineId(1), vec![JobId(1)]),
        ]
    );
    assert_eq!(res.records.len(), 2, "both jobs restart and finish");
}
