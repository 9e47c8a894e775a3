//! Machine-failure injection: jobs on a failed machine lose their progress,
//! return to the queue and restart elsewhere; the dead machine disappears
//! from every capacity query.

use gpu_topo_aware::prelude::*;
use std::sync::Arc;

fn setup(n: usize) -> (Arc<ClusterTopology>, Arc<ProfileLibrary>) {
    let machine = power8_minsky();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 42));
    (Arc::new(ClusterTopology::homogeneous(machine, n)), profiles)
}

fn job(id: u64, gpus: u32, arrival: f64, iters: u32) -> JobSpec {
    JobSpec::new(id, NnModel::AlexNet, BatchClass::Small, gpus)
        .arriving_at(arrival)
        .with_iterations(iters)
}

#[test]
fn job_restarts_on_the_surviving_machine() {
    let (cluster, profiles) = setup(2);
    // One job starts on machine 0 (FCFS picks the lowest id); machine 0
    // dies halfway through.
    let trace = vec![job(0, 2, 0.0, 400)];
    let solo = simulate(
        Arc::clone(&cluster),
        Arc::clone(&profiles),
        Policy::new(PolicyKind::Fcfs),
        trace.clone(),
    );
    let half = solo.records[0].execution_s() / 2.0;

    let config = SimConfig::new(Policy::new(PolicyKind::Fcfs))
        .with_machine_failures(vec![(half, MachineId(0))]);
    let res = Simulation::new(Arc::clone(&cluster), Arc::clone(&profiles), config).run(trace);

    assert_eq!(res.records.len(), 1);
    let r = &res.records[0];
    assert_eq!(r.restarts, 1);
    assert!(
        r.gpus.iter().all(|g| g.machine == MachineId(1)),
        "got {:?}",
        r.gpus
    );
    // Total time ≈ half a run wasted + a full run.
    assert!(
        res.makespan_s > solo.makespan_s * 1.4,
        "restart must cost time: {} vs {}",
        res.makespan_s,
        solo.makespan_s
    );
    assert_eq!(res.failures, vec![(half, MachineId(0))]);
    // The interrupted attempt still shows in the timeline.
    assert!(res.timeline.len() >= 2);
}

#[test]
fn failed_machine_takes_no_new_jobs() {
    let (cluster, profiles) = setup(2);
    let trace = vec![
        job(0, 1, 0.0, 200),
        job(1, 1, 50.0, 200),
        job(2, 1, 60.0, 200),
    ];
    let config = SimConfig::new(Policy::new(PolicyKind::TopoAware))
        .with_machine_failures(vec![(10.0, MachineId(0))]);
    let res = Simulation::new(cluster, profiles, config).run(trace);

    assert_eq!(res.records.len(), 3);
    for r in &res.records {
        // Jobs arriving (or restarting) after the failure avoid machine 0.
        if r.placed_at_s > 10.0 {
            assert!(
                r.gpus.iter().all(|g| g.machine == MachineId(1)),
                "{} landed on the dead machine",
                r.spec.id
            );
        }
    }
}

#[test]
fn losing_the_only_machine_strands_the_queue_gracefully() {
    let (cluster, profiles) = setup(1);
    let trace = vec![job(0, 2, 0.0, 400), job(1, 2, 5.0, 400)];
    let config = SimConfig::new(Policy::new(PolicyKind::Fcfs))
        .with_machine_failures(vec![(10.0, MachineId(0))]);
    let res = Simulation::new(cluster, profiles, config).run(trace);

    // Nothing can ever run again: both jobs end up unplaceable, none lost.
    assert_eq!(res.records.len(), 0);
    assert_eq!(res.unplaceable.len(), 2);
    assert_eq!(res.failures.len(), 1);
}

#[test]
fn failures_do_not_break_slo_accounting() {
    let (cluster, profiles) = setup(3);
    let trace = WorkloadGenerator::with_defaults(55).generate(40);
    let config = SimConfig::new(Policy::new(PolicyKind::TopoAwareP))
        .with_machine_failures(vec![(120.0, MachineId(1))]);
    let res = Simulation::new(cluster, profiles, config).run(trace);

    assert_eq!(res.records.len() + res.unplaceable.len(), 40);
    assert_eq!(res.slo_violations, 0, "postponement still guards the SLO");
    // At least one job should have been hit by the failure in a 40-job run.
    let restarted: u32 = res.records.iter().map(|r| r.restarts).sum();
    assert!(
        restarted >= 1,
        "failure at t=120 s should interrupt someone"
    );
}

#[test]
fn recovered_machine_rejoins_the_pool() {
    let (cluster, profiles) = setup(1);
    // The only machine dies at t=10 and comes back at t=50: the queued jobs
    // must eventually run instead of being stranded.
    let trace = vec![job(0, 2, 0.0, 300), job(1, 2, 5.0, 300)];
    let config = SimConfig::new(Policy::new(PolicyKind::Fcfs))
        .with_machine_failures(vec![(10.0, MachineId(0))])
        .with_machine_recoveries(vec![(50.0, MachineId(0))]);
    let res = Simulation::new(cluster, profiles, config).run(trace);

    assert_eq!(
        res.records.len(),
        2,
        "both jobs complete after the recovery"
    );
    assert!(res.unplaceable.is_empty());
    for r in &res.records {
        assert!(
            r.placed_at_s >= 50.0 - 1e-6,
            "{} ran before recovery",
            r.spec.id
        );
    }
    // The interrupted job restarted exactly once.
    assert_eq!(res.record(JobId(0)).unwrap().restarts, 1);
}
