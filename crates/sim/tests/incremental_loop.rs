//! The dirty-set argument, tested directly: an event on one machine must
//! not recompute the slowdowns of jobs on other machines (counted by
//! [`SimLoopStats`]), while every value stays numerically identical to the
//! reference loop's recompute-everything answer.

use gts_job::{BatchClass, JobId, JobSpec, NnModel};
use gts_perf::ProfileLibrary;
use gts_sched::{Policy, PolicyKind};
use gts_sim::{SimConfig, SimLoopStats, SimResult, Simulation};
use gts_topo::{power8_minsky, ClusterTopology};
use std::sync::Arc;

fn job(id: u64, gpus: u32, batch: BatchClass, iters: u32) -> JobSpec {
    JobSpec::new(id, NnModel::AlexNet, batch, gpus)
        .arriving_at(0.0)
        .with_iterations(iters)
        .with_min_utility(0.3)
}

fn run(n_machines: usize, trace: Vec<JobSpec>, incremental: bool) -> (SimResult, SimLoopStats) {
    let machine = power8_minsky();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 1));
    let cluster = Arc::new(ClusterTopology::homogeneous(machine, n_machines));
    let config = SimConfig::new(Policy::new(PolicyKind::TopoAware)).with_incremental(incremental);
    Simulation::new(cluster, profiles, config).run_with_stats(trace)
}

/// Three machine-filling jobs on three disjoint machines: the short one's
/// completion is an event on *its* machine only, so the incremental loop
/// must not re-derive the other two (one derivation each, at placement),
/// while the reference loop re-derives everything after every event.
#[test]
fn disjoint_machines_are_not_recomputed() {
    let trace = vec![
        job(0, 4, BatchClass::Tiny, 3000),
        job(1, 4, BatchClass::Tiny, 3000),
        job(2, 4, BatchClass::Tiny, 300), // completes first
    ];
    let (inc_res, inc) = run(3, trace.clone(), true);
    let (ref_res, reference) = run(3, trace, false);

    // Exactly one derivation per job: at placement time. Job 2's completion
    // leaves its machine empty, and jobs 0/1 share nothing with it.
    for id in 0..3 {
        assert_eq!(
            inc.evals_for(JobId(id)),
            1,
            "job {id} recomputed needlessly"
        );
    }
    assert_eq!(inc.slowdown_evals, 3);

    // The reference loop recomputed the survivors after job 2 completed.
    assert_eq!(reference.evals_for(JobId(0)), 2);
    assert_eq!(reference.evals_for(JobId(1)), 2);
    assert_eq!(reference.evals_for(JobId(2)), 1);

    // Skipping the recompute changed nothing: bit-identical results.
    assert_eq!(inc_res.records, ref_res.records);
    assert_eq!(inc_res.events, ref_res.events);
    assert_eq!(inc_res.makespan_s.to_bits(), ref_res.makespan_s.to_bits());
    // Disjoint machines ⇒ no interference anywhere.
    for r in &inc_res.records {
        assert!(
            r.qos_slowdown() < 1e-9,
            "{}: {}",
            r.spec.id,
            r.qos_slowdown()
        );
    }
}

/// A completion on a *shared* machine must re-derive the surviving sharer
/// (its co-runner set changed) but still skip the job on the other machine.
#[test]
fn shared_machine_sharers_are_recomputed_and_bystanders_skipped() {
    let trace = vec![
        job(0, 4, BatchClass::Tiny, 4000), // fills one machine, runs longest
        job(1, 2, BatchClass::Tiny, 600),  // shares the other machine…
        job(2, 2, BatchClass::Tiny, 200),  // …with this one, which finishes first
    ];
    let (inc_res, inc) = run(2, trace.clone(), true);
    let (ref_res, reference) = run(2, trace, false);

    // Job 2's completion re-derives its machine-sharer (job 1) only; job 0
    // on the other machine is never touched again. Job 1's later completion
    // leaves its machine empty, so it triggers nothing.
    assert_eq!(inc.evals_for(JobId(0)), 1, "bystander recomputed");
    assert_eq!(inc.evals_for(JobId(1)), 2, "sharer not recomputed");
    assert_eq!(inc.evals_for(JobId(2)), 1);

    // The reference loop re-derives every survivor after both completions.
    assert_eq!(reference.evals_for(JobId(0)), 3);
    assert_eq!(reference.evals_for(JobId(1)), 2);
    assert_eq!(reference.evals_for(JobId(2)), 1);

    assert_eq!(inc_res.records, ref_res.records);
    assert_eq!(inc_res.events, ref_res.events);
    assert_eq!(inc_res.makespan_s.to_bits(), ref_res.makespan_s.to_bits());
    // The shared pair really interfered (otherwise this test proves less
    // than it claims); the bystander ran clean.
    let rec = |id| inc_res.record(JobId(id)).unwrap();
    assert!(rec(1).qos_slowdown() > 0.01, "sharers did not interfere");
    assert!(rec(0).qos_slowdown() < 1e-9, "bystander interfered");
}

/// A job's finish time is solved once per change of its slowdown, so
/// events on machines it does not share cannot move it by even an ulp. Two
/// co-located AlexNet jobs fill machine 0 of two Minskys under FCFS; one
/// run has the pair alone, the other adds 400 short 4-GPU GoogLeNet jobs
/// that churn on machine 1. In both event loops, each of the pair's finish
/// times must be bit-identical between the two runs.
#[test]
fn unrelated_events_leave_a_finish_time_alone() {
    let pair = [
        job(0, 2, BatchClass::Tiny, 20_000),
        job(1, 2, BatchClass::Tiny, 20_000),
    ];
    let churn = (0..400u64).map(|i| {
        JobSpec::new(2 + i, NnModel::GoogLeNet, BatchClass::Big, 4)
            .arriving_at(i as f64 * 3.0)
            .with_iterations(1)
            .with_min_utility(0.3)
    });
    let machine = power8_minsky();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 1));
    let cluster = Arc::new(ClusterTopology::homogeneous(machine, 2));
    let run = |trace: Vec<JobSpec>, incremental: bool| {
        let config = SimConfig::new(Policy::new(PolicyKind::Fcfs)).with_incremental(incremental);
        Simulation::new(Arc::clone(&cluster), Arc::clone(&profiles), config).run(trace)
    };
    for incremental in [true, false] {
        let alone = run(pair.to_vec(), incremental);
        let churned = run(
            pair.iter().cloned().chain(churn.clone()).collect(),
            incremental,
        );
        assert_eq!(churned.records.len(), 402);
        for id in [JobId(0), JobId(1)] {
            let (a, c) = (alone.record(id).unwrap(), churned.record(id).unwrap());
            assert!(
                c.gpus.iter().all(|g| g.machine.0 == 0),
                "{id} left machine 0"
            );
            assert!(c.qos_slowdown() > 0.01, "{id}: the pair must interfere");
            assert_eq!(
                a.finished_at_s.to_bits(),
                c.finished_at_s.to_bits(),
                "{id} (incremental: {incremental}): {} alone vs {} with churn",
                a.finished_at_s,
                c.finished_at_s
            );
        }
        let pair_end = churned.record(JobId(0)).unwrap().finished_at_s;
        let busy = churned.records.iter().filter(|r| r.spec.id.0 >= 2);
        let busy = busy.filter(|r| r.finished_at_s < pair_end).count();
        assert_eq!(busy, 400, "the churn must run while the pair does");
    }
}
