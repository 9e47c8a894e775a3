//! Snapshot-invalidation edges of the cross-event decision replay
//! (DESIGN.md §15.7).
//!
//! The scripted tests drive the *public* `Scheduler` surface through an
//! event script twice — the production path vs the sequential reference —
//! and assert the iteration outcomes (placements, GPUs, utility bits) and
//! final cluster occupancy are identical, while the production run
//! actually exercised its snapshots. The scripts target the edges where a
//! stale snapshot would be most tempting to trust: a machine failing and
//! recovering while the queue is blocked, a cancel landing on a job whose
//! class is snapshotted, and a multi-node teardown between consecutive
//! retries. The last two tests drive `Policy` decisions directly: every
//! mutation kind must invalidate the snapshot, and a cloned state that
//! diverges must never replay its source's snapshot.

use gts_job::{BatchClass, Constraints, JobId, JobSpec, NnModel};
use gts_perf::ProfileLibrary;
use gts_sched::policy::Decision;
use gts_sched::{
    CancelOutcome, ClusterState, DecisionReplayStats, EvalCache, EvalParams, PlacementOutcome,
    Policy, PolicyKind, Scheduler, SchedulerConfig,
};
use gts_topo::{power8_minsky, ClusterTopology, GlobalGpuId, GpuId, MachineId};
use std::sync::Arc;

/// What a scripted cancel must have found (the `Stopped` allocation
/// itself is run-dependent, so only the kind is asserted).
#[derive(Clone, Copy, Debug)]
enum CancelKind {
    Dequeued,
    Stopped,
}

/// One scripted driver event.
#[derive(Clone)]
enum Ev {
    Submit(JobSpec),
    Complete(JobId),
    Cancel(JobId, CancelKind),
    Fail(MachineId),
    Recover(MachineId),
    /// Run one Algorithm 1 iteration and record its outcomes.
    Drain,
}

/// A racked Minsky cluster, rack-major machine ids.
fn racked_state(n_racks: usize, per_rack: usize) -> ClusterState {
    let machine = power8_minsky();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 1));
    let cluster = Arc::new(ClusterTopology::homogeneous_racked(machine, n_racks, per_rack));
    ClusterState::new(cluster, profiles)
}

fn job(id: u64, gpus: u32) -> JobSpec {
    JobSpec::new(id, NnModel::AlexNet, BatchClass::Tiny, gpus).with_min_utility(0.3)
}

/// A job allowed to spill across machines (and racks).
fn wide_job(id: u64, gpus: u32) -> JobSpec {
    let mut spec = JobSpec::new(id, NnModel::GoogLeNet, BatchClass::Big, gpus)
        .with_min_utility(0.3);
    spec.constraints = Constraints { single_node: false, anti_collocate: false };
    spec
}

/// Replays the script on a fresh scheduler running `eval`, auditing the
/// state after every drain. Returns the per-drain outcomes, the final
/// per-machine occupancy fingerprint, and the replay counters.
fn run_script(
    state: ClusterState,
    eval: EvalParams,
    script: &[Ev],
) -> (Vec<Vec<PlacementOutcome>>, Vec<usize>, DecisionReplayStats) {
    let n_machines = state.cluster().machines().count();
    let config = SchedulerConfig { policy: Policy::new(PolicyKind::TopoAware), eval };
    let mut sched = Scheduler::new(state, config);
    let mut drains = Vec::new();
    for ev in script {
        match ev {
            Ev::Submit(spec) => sched.submit(spec.clone()),
            Ev::Complete(id) => {
                sched.complete(*id);
            }
            Ev::Cancel(id, want) => {
                let got = sched.cancel(*id);
                match want {
                    CancelKind::Dequeued => {
                        assert!(matches!(got, CancelOutcome::Dequeued), "{id:?}: {got:?}")
                    }
                    CancelKind::Stopped => {
                        assert!(matches!(got, CancelOutcome::Stopped(_)), "{id:?}: {got:?}")
                    }
                }
            }
            Ev::Fail(m) => sched.fail_machine(*m),
            Ev::Recover(m) => sched.recover_machine(*m),
            Ev::Drain => {
                drains.push(sched.run_iteration());
                sched.audit().expect("state audits clean after drain");
            }
        }
    }
    let occupancy: Vec<usize> =
        (0..n_machines).map(|m| sched.state().free_gpus(MachineId(m as u32)).len()).collect();
    (drains, occupancy, sched.decision_replay_stats())
}

/// Outcome streams must agree bit for bit (utilities compared as bits).
#[track_caller]
fn assert_outcomes_identical(on: &[Vec<PlacementOutcome>], off: &[Vec<PlacementOutcome>]) {
    assert_eq!(on.len(), off.len(), "drain count diverged");
    for (i, (a, b)) in on.iter().zip(off).enumerate() {
        assert_eq!(a.len(), b.len(), "drain {i} outcome count diverged");
        for (x, y) in a.iter().zip(b) {
            match (x, y) {
                (
                    PlacementOutcome::Placed { spec: sa, gpus: ga, utility: ua, slo_violated: va },
                    PlacementOutcome::Placed { spec: sb, gpus: gb, utility: ub, slo_violated: vb },
                ) => {
                    assert_eq!(sa.id, sb.id, "drain {i} placed a different job");
                    assert_eq!(ga, gb, "drain {i} placed {:?} elsewhere", sa.id);
                    assert_eq!(ua.to_bits(), ub.to_bits(), "drain {i} utility bits diverged");
                    assert_eq!(va, vb, "drain {i} SLO flag diverged");
                }
                _ => assert_eq!(x, y, "drain {i} outcome kind diverged"),
            }
        }
    }
}

/// Runs the script on the production path and on the sequential
/// reference, asserts bit-identity, and hands back the production replay
/// counters for activity assertions.
fn assert_replay_invariant(state: ClusterState, script: &[Ev]) -> DecisionReplayStats {
    let (on, occ_on, stats_on) = run_script(state.clone(), EvalParams::parallel(2), script);
    let (off, occ_off, stats_off) = run_script(state, EvalParams::sequential(), script);
    assert_outcomes_identical(&on, &off);
    assert_eq!(occ_on, occ_off, "final occupancy diverged");
    assert_eq!(stats_off, DecisionReplayStats::default(), "the reference must not snapshot");
    stats_on
}

/// A machine fails while the queue head is blocked on capacity and later
/// recovers: the failure moves the state's version, so the head's retry
/// must decide again instead of trusting the pre-failure snapshot — and
/// the recovery retry must see the machine again.
#[test]
fn failure_and_recovery_mid_queue_invalidate_the_snapshot() {
    let state = racked_state(2, 2);
    let mut script = fill_but_two_gpus();
    script.push(Ev::Submit(job(10, 4)));
    script.push(Ev::Submit(job(11, 4)));
    // Head blocks: the decision snapshots a cluster with no 4-GPU slot,
    // and a retry with nothing moved replays it.
    script.push(Ev::Drain);
    script.push(Ev::Drain);
    // Tenant on machine 0 is cancelled, but the machine fails before the
    // retry — the freed GPUs must NOT admit the head.
    script.push(Ev::Cancel(JobId(0), CancelKind::Stopped));
    script.push(Ev::Fail(MachineId(0)));
    script.push(Ev::Drain);
    script.push(Ev::Drain);
    // Recovery makes the 4 GPUs real; the head must place on machine 0.
    script.push(Ev::Recover(MachineId(0)));
    script.push(Ev::Drain);
    // A completion elsewhere drains the second queued job too.
    script.push(Ev::Complete(JobId(3)));
    script.push(Ev::Drain);
    let stats = assert_replay_invariant(state, &script);
    assert_eq!(stats.hits, 2, "exactly the two retries with nothing moved replay: {stats:?}");
}

/// Fills machines 0–2 of a 2 × 2 racked cluster with one 4-GPU job each
/// (jobs 0–2) and puts a 2-GPU job on machine 3 (job 3): GPUs stay free,
/// so the queue keeps deciding, but no machine can take a 4-GPU job.
fn fill_but_two_gpus() -> Vec<Ev> {
    let mut script: Vec<Ev> = (0..3u64).map(|id| Ev::Submit(job(id, 4))).collect();
    script.push(Ev::Submit(job(3, 2)));
    script.push(Ev::Drain);
    script
}

/// Cancelling jobs around a snapshot: a cancel of a *running* job frees
/// capacity the snapshot predates (the retry must see it), and a cancel of
/// the *snapshotted queued job itself* must simply drop it. A dequeue
/// changes no state, so the next job of the class may replay the
/// snapshot: its key is the job class and guard, not the job, and the
/// answer is a wait, which cannot resurrect the dropped job.
#[test]
fn cancel_of_running_and_snapshotted_jobs_stays_exact() {
    let state = racked_state(2, 2);
    let mut script = fill_but_two_gpus();
    // Two queued same-class jobs: the head's Waiting decision is
    // snapshotted, and a retry with nothing moved replays it.
    script.push(Ev::Submit(job(20, 4)));
    script.push(Ev::Submit(job(21, 4)));
    script.push(Ev::Drain);
    script.push(Ev::Drain);
    // Cancel the snapshotted head while it waits: it must vanish, and
    // the job behind it replays the same wait.
    script.push(Ev::Cancel(JobId(20), CancelKind::Dequeued));
    script.push(Ev::Drain);
    // Cancel a running job: capacity reappears on machine 1 and the
    // surviving queued job (same class as the dropped one) must place
    // there despite the stale no-capacity snapshot.
    script.push(Ev::Cancel(JobId(1), CancelKind::Stopped));
    script.push(Ev::Drain);
    // One more same-class arrival decides on the moved state.
    script.push(Ev::Submit(job(22, 4)));
    script.push(Ev::Drain);
    script.push(Ev::Complete(JobId(2)));
    script.push(Ev::Drain);
    let stats = assert_replay_invariant(state, &script);
    assert_eq!(stats.hits, 2, "exactly the two retries with nothing moved replay: {stats:?}");
}

/// A multi-node teardown releases GPUs on several machines, in several
/// racks, in one event between two retries of the same queued class: the
/// retry must see every machine it freed.
#[test]
fn multi_node_teardown_between_retries_stays_exact() {
    let state = racked_state(3, 2);
    let mut script = Vec::new();
    // Occupy 2 of 4 GPUs on every machine, so no machine can host a
    // 4-GPU job but a spilling 8-GPU job spans several machines (and
    // with 2-machine racks, several racks).
    for id in 0..6u64 {
        script.push(Ev::Submit(job(id, 2)));
    }
    script.push(Ev::Drain);
    script.push(Ev::Submit(wide_job(30, 8)));
    script.push(Ev::Drain);
    // Queue two machine-filling jobs: the head blocks (every machine is
    // at least half full) and its class gets snapshotted.
    script.push(Ev::Submit(job(31, 4)));
    script.push(Ev::Submit(job(32, 4)));
    script.push(Ev::Drain);
    script.push(Ev::Drain);
    // A small completion on one machine: the first retry decides again.
    script.push(Ev::Complete(JobId(0)));
    script.push(Ev::Drain);
    // The multi-node teardown: GPUs return on machines across several
    // racks in one event, and the next retry must see all of them.
    script.push(Ev::Complete(JobId(30)));
    script.push(Ev::Drain);
    script.push(Ev::Complete(JobId(1)));
    script.push(Ev::Drain);
    let stats = assert_replay_invariant(state, &script);
    assert!(stats.hits > 0, "teardown scenario never replayed: {stats:?}");
}

/// The GPUs and utility bits of a decision.
fn bits(d: &Option<Decision>) -> Option<(Vec<GlobalGpuId>, u64)> {
    d.as_ref().map(|d| (d.gpus.clone(), d.utility.to_bits()))
}

/// Decides `job` through `cache` twice on the unchanged `state` (the
/// second must replay), applies `mutate`, and decides once more: that
/// decision must not replay and must equal a fresh decision without a
/// cache.
#[track_caller]
fn assert_mutation_invalidates(
    label: &str,
    state: &mut ClusterState,
    job: &JobSpec,
    mutate: impl FnOnce(&mut ClusterState),
) {
    let policy = Policy::new(PolicyKind::TopoAware);
    let params = EvalParams::parallel(2);
    let cache = EvalCache::with_capacity(64);
    policy.decide_with(state, job, params, Some(&cache), None);
    policy.decide_with(state, job, params, Some(&cache), None);
    assert_eq!(cache.replay_stats().hits, 1, "{label}: an unchanged state must replay");
    mutate(state);
    let got = policy.decide_with(state, job, params, Some(&cache), None);
    assert_eq!(cache.replay_stats().hits, 1, "{label}: the snapshot survived the mutation");
    let want = policy.decide_with(state, job, params, None, None);
    assert_eq!(bits(&got), bits(&want), "{label}: the decision after the mutation diverged");
}

/// Place, release, failure, recovery and a multi-node placement and
/// teardown each move the state's version, so each invalidates the
/// snapshot of a decision taken before it.
#[test]
fn every_mutation_kind_invalidates_the_snapshot() {
    let gpu = |m: u32, g: u32| GlobalGpuId { machine: MachineId(m), gpu: GpuId(g) };
    let probe = job(100, 2);
    let mut state = racked_state(2, 2);
    assert_mutation_invalidates("place", &mut state, &probe, |s| {
        s.place(job(1, 2), vec![gpu(0, 0), gpu(0, 1)], 1.0);
    });
    assert_mutation_invalidates("release", &mut state, &probe, |s| {
        s.release(JobId(1));
    });
    assert_mutation_invalidates("failure", &mut state, &probe, |s| {
        s.set_machine_down(MachineId(2), true);
    });
    assert_mutation_invalidates("recovery", &mut state, &probe, |s| {
        s.set_machine_down(MachineId(2), false);
    });
    assert_mutation_invalidates("multi-node place", &mut state, &probe, |s| {
        let wide = wide_job(2, 4);
        s.place(wide, vec![gpu(1, 0), gpu(1, 1), gpu(2, 0), gpu(2, 1)], 1.0);
    });
    assert_mutation_invalidates("multi-node teardown", &mut state, &probe, |s| {
        s.release(JobId(2));
    });
}

/// A clone of a state is another state instance: it draws a fresh epoch,
/// so after the two diverge by the same number of mutations — equal
/// versions, different contents — the clone must not replay the source's
/// snapshot (a counted fallback), and must decide what a fresh decision
/// on the clone decides.
#[test]
fn a_diverging_clone_never_replays_its_source_snapshot() {
    let gpu = |m: u32, g: u32| GlobalGpuId { machine: MachineId(m), gpu: GpuId(g) };
    let policy = Policy::new(PolicyKind::TopoAware);
    let params = EvalParams::parallel(2);
    let cache = EvalCache::with_capacity(64);
    let probe = job(100, 4);
    let mut source = racked_state(2, 1);
    let mut clone = source.clone();
    // Equal versions, different states: the source fills machine 0, the
    // clone machine 1.
    source.place(job(1, 4), vec![gpu(0, 0), gpu(0, 1), gpu(0, 2), gpu(0, 3)], 1.0);
    clone.place(job(1, 4), vec![gpu(1, 0), gpu(1, 1), gpu(1, 2), gpu(1, 3)], 1.0);
    let on_source = policy.decide_with(&source, &probe, params, Some(&cache), None);
    assert_eq!(on_source.expect("machine 1 is free").gpus[0].machine, MachineId(1));
    let on_clone = policy.decide_with(&clone, &probe, params, Some(&cache), None);
    assert_eq!(bits(&on_clone), bits(&policy.decide_with(&clone, &probe, params, None, None)));
    assert_eq!(on_clone.expect("machine 0 is free").gpus[0].machine, MachineId(0));
    let stats = cache.replay_stats();
    assert_eq!((stats.hits, stats.full_fallbacks), (0, 1), "the clone replayed: {stats:?}");
}
