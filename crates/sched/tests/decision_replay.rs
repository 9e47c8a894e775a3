//! Snapshot-invalidation edges of the cross-event decision-replay path
//! (DESIGN.md §12).
//!
//! Most tests drive the *public* `Scheduler` surface through an event
//! script twice — the production path vs the sequential reference — and
//! assert the iteration outcomes (placements, GPUs, utility bits) and
//! final cluster occupancy are identical, while the production run
//! actually exercised its snapshots. One drives `Policy` decisions directly, to pin a bound prune
//! inside a partial replay. The scripts target the edges where a stale snapshot would
//! be most tempting to trust: a machine failing and recovering while the
//! queue is blocked, a cancel landing on a job whose class is
//! snapshotted, and a multi-node teardown bumping several shard versions
//! between consecutive retries.

use gts_job::{BatchClass, Constraints, JobId, JobSpec, NnModel};
use gts_perf::ProfileLibrary;
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

/// A rack-partitioned cluster (auto shard spec follows the racks).
fn racked_state(n_racks: usize, per_rack: usize) -> ClusterState {
    let machine = power8_minsky();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 1));
    let cluster = Arc::new(ClusterTopology::homogeneous_racked(machine, n_racks, per_rack));
    ClusterState::new(cluster, profiles)
}

fn job(id: u64, gpus: u32) -> JobSpec {
    JobSpec::new(id, NnModel::AlexNet, BatchClass::Tiny, gpus).with_min_utility(0.3)
}

/// A job allowed to spill across machines (and shards).
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
/// recovers: the failure bumps its shard's version (and epoch bookkeeping),
/// so the head's retry must re-examine that shard instead of trusting the
/// pre-failure snapshot — and the recovery retry must see the machine
/// again.
#[test]
fn failure_and_recovery_mid_queue_invalidate_the_snapshot() {
    let state = racked_state(2, 2);
    let mut script = Vec::new();
    // Fill all four machines, then queue two more machine-filling jobs.
    for id in 0..4u64 {
        script.push(Ev::Submit(job(id, 4)));
    }
    script.push(Ev::Drain);
    script.push(Ev::Submit(job(10, 4)));
    script.push(Ev::Submit(job(11, 4)));
    // Head blocks: the decision snapshots a cluster with no capacity.
    script.push(Ev::Drain);
    // Tenant on machine 0 is cancelled, but the machine fails before the
    // retry — the freed GPUs must NOT admit the head.
    script.push(Ev::Cancel(JobId(0), CancelKind::Stopped));
    script.push(Ev::Fail(MachineId(0)));
    script.push(Ev::Drain);
    // Recovery makes the 4 GPUs real; the head must place on machine 0.
    script.push(Ev::Recover(MachineId(0)));
    script.push(Ev::Drain);
    // A completion elsewhere drains the second queued job too.
    script.push(Ev::Complete(JobId(3)));
    script.push(Ev::Drain);
    let stats = assert_replay_invariant(state, &script);
    assert!(stats.hits > 0, "blocked-head retries never replayed: {stats:?}");
}

/// Cancelling jobs around a snapshot: a cancel of a *running* job frees
/// capacity the snapshot predates (the retry must see it), and a cancel of
/// the *snapshotted queued job itself* must simply drop it — the orphaned
/// snapshot may linger but can never resurrect the job or leak into a
/// different job's decision (the snapshot key is the job class, and the
/// next same-class arrival revalidates versions before reuse).
#[test]
fn cancel_of_running_and_snapshotted_jobs_stays_exact() {
    let state = racked_state(2, 2);
    let mut script = Vec::new();
    for id in 0..4u64 {
        script.push(Ev::Submit(job(id, 4)));
    }
    script.push(Ev::Drain);
    // Two queued same-class jobs: the head's Waiting decision is
    // snapshotted.
    script.push(Ev::Submit(job(20, 4)));
    script.push(Ev::Submit(job(21, 4)));
    script.push(Ev::Drain);
    // Cancel the snapshotted head while it waits: it must vanish.
    script.push(Ev::Cancel(JobId(20), CancelKind::Dequeued));
    // Cancel a running job: capacity reappears on machine 1's shard and
    // the surviving queued job (same class as the dropped one) must place
    // there despite the stale no-capacity snapshot.
    script.push(Ev::Cancel(JobId(1), CancelKind::Stopped));
    script.push(Ev::Drain);
    // One more same-class arrival reuses the (now re-validated) snapshot
    // row without confusing it with the cancelled job.
    script.push(Ev::Submit(job(22, 4)));
    script.push(Ev::Drain);
    script.push(Ev::Complete(JobId(2)));
    script.push(Ev::Drain);
    let stats = assert_replay_invariant(state, &script);
    assert!(stats.hits > 0, "cancel scenario never replayed: {stats:?}");
}

/// A multi-node teardown releases GPUs on several machines at once,
/// bumping multiple shard versions between two retries of the same queued
/// class: the partial replay must re-evaluate every mutated shard, not
/// just one.
#[test]
fn multi_node_teardown_bumps_several_shards_between_retries() {
    let state = racked_state(3, 2);
    let mut script = Vec::new();
    // Occupy 2 of 4 GPUs on every machine, so no machine can host a
    // 4-GPU job but a spilling 8-GPU job spans several machines (and
    // with 2-machine racks, several shards).
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
    // A small completion in one shard: first retry partially replays.
    script.push(Ev::Complete(JobId(0)));
    script.push(Ev::Drain);
    // The multi-node teardown: GPUs return on machines across several
    // shards in one event, and the next retry must fold in all of them.
    script.push(Ev::Complete(JobId(30)));
    script.push(Ev::Drain);
    script.push(Ev::Complete(JobId(1)));
    script.push(Ev::Drain);
    let stats = assert_replay_invariant(state, &script);
    assert!(stats.hits > 0, "teardown scenario never replayed: {stats:?}");
    assert!(
        stats.shards_reeval > 0,
        "mutated shards must be re-evaluated, not trusted: {stats:?}"
    );
}

/// A shard that mutates and is then bound-pruned *during* a partial replay
/// must be snapshotted as pruned, not as never admitted: once the shards
/// that set the floor lose their idle machines, the next replay has to
/// re-test it. Scenario: three one-machine racks and a job whose
/// `min_utility` only an idle machine meets. A light co-runner on machine
/// 2 drops its shard's bound below the gate while idle machines 0 and 1
/// hold the floor at 1.0, so the first replay prunes shard 2; heavy
/// co-runners then land on machines 0 and 1, which leaves machine 2 the
/// best host.
#[test]
fn a_shard_pruned_inside_a_partial_replay_is_retested_later() {
    let mut state = racked_state(3, 1);
    let policy = Policy::new(PolicyKind::TopoAware);
    let params = EvalParams::parallel(2);
    let cache = EvalCache::with_capacity(64);
    let probe = JobSpec::new(100, NnModel::AlexNet, BatchClass::Tiny, 2).with_min_utility(0.9999);
    let gpu = |m: u32, g: u32| GlobalGpuId { machine: MachineId(m), gpu: GpuId(g) };

    // Cold decision: every shard is evaluated and snapshotted.
    policy.decide_with_cache(&state, &probe, params, Some(&cache));
    state.place(JobSpec::new(1, NnModel::GoogLeNet, BatchClass::Big, 1), vec![gpu(2, 0)], 1.0);
    // Partial replay: shard 2 mutated, and its bound fails the gate.
    policy.decide_with_cache(&state, &probe, params, Some(&cache));
    let first = cache.replay_stats();
    assert_eq!((first.hits, first.shards_reeval), (1, 0), "shard 2 must be pruned on replay");
    for (id, m) in [(2, 0), (3, 1)] {
        let noisy = JobSpec::new(id, NnModel::AlexNet, BatchClass::Tiny, 2);
        state.place(noisy, vec![gpu(m, 0), gpu(m, 1)], 1.0);
    }

    let replayed = policy.decide_with_cache(&state, &probe, params, Some(&cache));
    let fresh = policy.decide_with_cache(&state, &probe, params, None);
    let bits = |d: &Option<gts_sched::policy::Decision>| {
        d.as_ref().map(|d| (d.gpus.clone(), d.utility.to_bits()))
    };
    assert_eq!(bits(&replayed), bits(&fresh), "the replay skipped the pruned shard");
    assert_eq!(fresh.expect("machines are free").gpus[0].machine, MachineId(2));
    assert_eq!(cache.replay_stats().hits, 2, "both retries must replay");
}
