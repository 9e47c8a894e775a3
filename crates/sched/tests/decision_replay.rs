//! Invalidation edges of the scheduler's decision memo (DESIGN.md §14.2,
//! §15.7).
//!
//! Every test drives the *public* `Scheduler` surface through an event
//! script twice — the production path vs the sequential reference — and
//! asserts the iteration outcomes (placements, GPUs, utility bits) and
//! final cluster occupancy are identical, while the production run
//! actually answered from its memo. The scripts target the edges where a
//! stale memo would be most tempting to trust: a machine failing and
//! recovering while the queue is blocked, a cancel landing on a job whose
//! key is memoised, a multi-node teardown between consecutive retries,
//! every kind of state change one at a time, and a state swapped in
//! through `Scheduler::state_mut` at an equal version.

use gts_job::{BatchClass, Constraints, JobId, JobSpec, NnModel};
use gts_perf::ProfileLibrary;
use gts_sched::{
    CancelOutcome, ClusterState, EvalParams, PlacementOutcome, Policy, PolicyKind, Scheduler,
    SchedulerConfig,
};
use gts_topo::{dgx1, power8_minsky, ClusterTopology, GlobalGpuId, GpuId, MachineId};
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
    /// Borrow the state through `Scheduler::state_mut` and change nothing.
    TouchState,
    /// Swap in another state through `Scheduler::state_mut`.
    SwapState(Box<ClusterState>),
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

/// Replays the script on a fresh `kind` scheduler running `eval`,
/// auditing the state after every drain. Returns the per-drain outcomes,
/// the final per-machine occupancy fingerprint, and the jobs each drain
/// answered from the decision memo.
fn run_script(
    state: ClusterState,
    kind: PolicyKind,
    eval: EvalParams,
    script: &[Ev],
) -> (Vec<Vec<PlacementOutcome>>, Vec<usize>, Vec<u64>) {
    let n_machines = state.cluster().machines().count();
    let config = SchedulerConfig { policy: Policy::new(kind), eval };
    let mut sched = Scheduler::new(state, config);
    let mut drains = Vec::new();
    let mut hits = Vec::new();
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
            Ev::TouchState => {
                sched.state_mut();
            }
            Ev::SwapState(state) => *sched.state_mut() = ClusterState::clone(state),
            Ev::Drain => {
                let before = sched.replay_hits();
                drains.push(sched.run_iteration());
                hits.push(sched.replay_hits() - before);
                sched.audit().expect("state audits clean after drain");
            }
        }
    }
    let occupancy: Vec<usize> =
        (0..n_machines).map(|m| sched.state().free_gpus(MachineId(m as u32)).len()).collect();
    (drains, occupancy, hits)
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

/// Runs the script under `kind` on the production path and on the
/// sequential reference, asserts bit-identity, and hands back the
/// production drains' outcomes and the jobs each answered from the memo.
fn assert_memo_invariant(
    state: ClusterState,
    kind: PolicyKind,
    script: &[Ev],
) -> (Vec<Vec<PlacementOutcome>>, Vec<u64>) {
    let (on, occ_on, hits_on) = run_script(state.clone(), kind, EvalParams::parallel(2), script);
    let (off, occ_off, hits_off) = run_script(state, kind, EvalParams::sequential(), script);
    assert_outcomes_identical(&on, &off);
    assert_eq!(occ_on, occ_off, "final occupancy diverged");
    assert!(hits_off.iter().all(|&h| h == 0), "the reference must not memoise: {hits_off:?}");
    (on, hits_on)
}

/// [`assert_memo_invariant`] under TOPO-AWARE, hits summed over the
/// drains.
fn assert_replay_invariant(state: ClusterState, script: &[Ev]) -> u64 {
    assert_memo_invariant(state, PolicyKind::TopoAware, script).1.iter().sum()
}

/// The jobs a drain placed, with the number of machines each spans.
fn placed(drain: &[PlacementOutcome]) -> Vec<(JobId, usize)> {
    drain
        .iter()
        .filter_map(|o| match o {
            PlacementOutcome::Placed { spec, gpus, .. } => {
                let mut machines: Vec<MachineId> = gpus.iter().map(|g| g.machine).collect();
                machines.dedup();
                Some((spec.id, machines.len()))
            }
            _ => None,
        })
        .collect()
}

/// A machine fails while the queue head is blocked on capacity and later
/// recovers: the failure moves the state's version, so the head's retry
/// must decide again instead of trusting the pre-failure memo — and the
/// recovery retry must see the machine again.
#[test]
fn failure_and_recovery_mid_queue_invalidate_the_memo() {
    let state = racked_state(2, 2);
    let mut script = fill_but_two_gpus();
    script.push(Ev::Submit(job(10, 4)));
    script.push(Ev::Submit(job(11, 4)));
    // Head blocks: the memo keeps its wait on a cluster with no 4-GPU
    // slot, and a retry with nothing moved takes it from there.
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
    let hits = assert_replay_invariant(state, &script);
    assert_eq!(hits, 2, "exactly the two retries with nothing moved use the memo");
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

/// Cancelling jobs around a memoised answer: a cancel of a *running* job
/// frees capacity the memo predates (the retry must see it), and a cancel
/// of the *queued job whose answer is memoised* must simply drop it. A
/// dequeue changes no state, so the next job of the key may take the
/// memoised answer: its key is the job class, `min_utility` and
/// `single_node`, not the job, and the answer is a wait, which cannot
/// resurrect the dropped job.
#[test]
fn cancel_of_running_and_memoised_jobs_stays_exact() {
    let state = racked_state(2, 2);
    let mut script = fill_but_two_gpus();
    // Two queued same-class jobs: the head's wait is memoised, and a
    // retry with nothing moved takes it from the memo.
    script.push(Ev::Submit(job(20, 4)));
    script.push(Ev::Submit(job(21, 4)));
    script.push(Ev::Drain);
    script.push(Ev::Drain);
    // Cancel the memoised head while it waits: it must vanish, and the
    // job behind it takes the same wait from the memo.
    script.push(Ev::Cancel(JobId(20), CancelKind::Dequeued));
    script.push(Ev::Drain);
    // Cancel a running job: capacity reappears on machine 1 and the
    // surviving queued job (same class as the dropped one) must place
    // there despite the stale no-capacity answer.
    script.push(Ev::Cancel(JobId(1), CancelKind::Stopped));
    script.push(Ev::Drain);
    // One more same-class arrival decides on the moved state.
    script.push(Ev::Submit(job(22, 4)));
    script.push(Ev::Drain);
    script.push(Ev::Complete(JobId(2)));
    script.push(Ev::Drain);
    let hits = assert_replay_invariant(state, &script);
    assert_eq!(hits, 2, "exactly the two retries with nothing moved use the memo");
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
    // at least half full) and its wait is memoised.
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
    let hits = assert_replay_invariant(state, &script);
    assert!(hits > 0, "the teardown scenario never used the memo");
}

/// Two DGX-1s holding one 2-GPU job each (jobs 0 and 1) and an idle
/// Minsky, flat: no machine has eight free GPUs, but the Minsky can fail
/// and recover without ever fitting an 8-GPU job.
fn blocked_wide_state() -> ClusterState {
    let machines = vec![Arc::new(dgx1()), Arc::new(dgx1()), Arc::new(power8_minsky())];
    let cluster = Arc::new(ClusterTopology::from_machines(machines));
    let profiles = Arc::new(ProfileLibrary::generate(&power8_minsky(), 1));
    let mut state = ClusterState::new(cluster, profiles);
    for m in 0..2u32 {
        let gpus = (0..2).map(|g| GlobalGpuId { machine: MachineId(m), gpu: GpuId(g) });
        state.place(job(u64::from(m), 2), gpus.collect(), 1.0);
    }
    state
}

/// A blocked TOPO-AWARE head — an 8-GPU job (id 50) that no machine can
/// host — is answered from the memo after every arrival, and decided
/// afresh after each kind of state change, one at a time: a place, a
/// completion, a cancel of a running job, a multi-node place and its
/// teardown, a failure, a recovery, and a borrow through `state_mut()`
/// that changes nothing. Jobs with ids below 50 queue in front of the
/// head, the arrivals (ids above 50) behind it. A last completion frees a
/// DGX-1, and the head places there.
#[test]
fn every_state_change_invalidates_the_memo() {
    let changes = [
        // Two 1-GPU jobs place in front of the head.
        vec![Ev::Submit(job(20, 1)), Ev::Submit(job(21, 1))],
        vec![Ev::Complete(JobId(20))],
        vec![Ev::Cancel(JobId(21), CancelKind::Stopped)],
        // A spilling 8-GPU job places across machines in front of the head.
        vec![Ev::Submit(wide_job(30, 8))],
        vec![Ev::Complete(JobId(30))],
        vec![Ev::Fail(MachineId(2))],
        vec![Ev::Recover(MachineId(2))],
        vec![Ev::TouchState],
    ];
    // The head is decided; an arrival behind it finds its wait in the memo.
    let mut script = vec![Ev::Submit(job(50, 8)), Ev::Drain, Ev::Submit(job(51, 8)), Ev::Drain];
    let mut want = vec![0, 1];
    for (arrival, change) in (52..).zip(changes) {
        script.extend(change);
        script.extend([Ev::Drain, Ev::Submit(job(arrival, 8)), Ev::Drain]);
        want.extend([0, 1]);
    }
    // DGX-1 0 empties: the head places, and the next head is decided.
    script.extend([Ev::Complete(JobId(0)), Ev::Drain]);
    want.push(0);
    let (drains, hits) = assert_memo_invariant(blocked_wide_state(), PolicyKind::TopoAware, &script);
    assert_eq!(hits, want, "per-drain answers from the memo");
    assert_eq!(placed(&drains[2]), [(JobId(20), 1), (JobId(21), 1)]);
    let spill = placed(&drains[8]);
    assert!(matches!(spill[..], [(JobId(30), n)] if n > 1), "the 8-GPU job spills: {spill:?}");
    assert_eq!(placed(&drains[18]), [(JobId(50), 1)], "the head places last");
    for (i, drain) in drains.iter().enumerate().filter(|(i, _)| ![2, 8, 18].contains(i)) {
        assert!(placed(drain).is_empty(), "drain {i} placed {:?}", placed(drain));
    }
}

/// A state swapped in through `state_mut()` is decided afresh, even at an
/// equal version: two states that each took three single-machine
/// placements from the same fresh state share a version but not their
/// contents. Under TOPO-AWARE-P a 2-GPU job is postponed on the first
/// (machine 0 has one free GPU per socket, machine 1 is full) and the
/// postponement is memoised; on the swapped-in second (machine 0's free
/// GPUs share a socket) it must place, packed.
#[test]
fn a_swapped_in_state_is_decided_afresh() {
    let gpus = |m: u32, gs: &[u32]| -> Vec<GlobalGpuId> {
        gs.iter().map(|&g| GlobalGpuId { machine: MachineId(m), gpu: GpuId(g) }).collect()
    };
    let fresh = racked_state(2, 1);
    let occupied = |pair: [u32; 2]| {
        let mut state = fresh.clone();
        state.place(job(0, 1), gpus(0, &pair[..1]), 1.0);
        state.place(job(1, 1), gpus(0, &pair[1..]), 1.0);
        state.place(job(2, 4), gpus(1, &[0, 1, 2, 3]), 1.0);
        state
    };
    let spread = occupied([0, 2]);
    let packed = occupied([0, 1]);
    let head = job(10, 2).with_min_utility(0.5);
    let script = [
        Ev::Submit(head),
        Ev::Drain,
        Ev::Drain,
        Ev::SwapState(Box::new(packed)),
        Ev::Drain,
    ];
    let (drains, hits) = assert_memo_invariant(spread, PolicyKind::TopoAwareP, &script);
    assert_eq!(hits, [0, 1, 0], "the swapped-in state must be decided afresh");
    assert!(
        matches!(drains[1][..], [PlacementOutcome::PostponedLowUtility { id: JobId(10), .. }]),
        "the head is postponed on the spread state: {:?}",
        drains[1]
    );
    assert!(
        matches!(drains[2][..], [PlacementOutcome::Placed { .. }]),
        "the head places on the swapped-in state: {:?}",
        drains[2]
    );
}
