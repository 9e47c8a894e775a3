//! Property-based invariants over the whole stack: random workloads, random
//! cluster shapes, every policy.

use gpu_topo_aware::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn simulate_random(
    seed: u64,
    n_jobs: usize,
    n_machines: usize,
    kind: PolicyKind,
) -> SimResult {
    let machine = power8_minsky();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 42));
    let cluster = Arc::new(ClusterTopology::homogeneous(machine, n_machines));
    let trace = WorkloadGenerator::with_defaults(seed).generate(n_jobs);
    simulate(cluster, profiles, Policy::new(kind), trace)
}

fn simulate_random_traced(
    seed: u64,
    n_jobs: usize,
    n_machines: usize,
    kind: PolicyKind,
) -> SimResult {
    let machine = power8_minsky();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 42));
    let cluster = Arc::new(ClusterTopology::homogeneous(machine, n_machines));
    let trace = WorkloadGenerator::with_defaults(seed).generate(n_jobs);
    Simulation::new(cluster, profiles, SimConfig::new(Policy::new(kind)).with_trace())
        .run(trace)
}

fn any_policy() -> impl Strategy<Value = PolicyKind> {
    prop::sample::select(PolicyKind::ALL.to_vec())
}

/// Drives a scheduler by hand over a generated workload, auditing after
/// every mutation, and verifies the cluster drains back to empty.
fn drive_and_audit(kind: PolicyKind, seed: u64) {
    let machine = power8_minsky();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 42));
    let cluster = Arc::new(ClusterTopology::homogeneous(machine, 2));
    let capacity = cluster.n_gpus();
    let mut s = Scheduler::new(
        ClusterState::new(cluster, profiles),
        SchedulerConfig::new(Policy::new(kind)),
    );
    s.set_tracing(true);

    for (i, job) in WorkloadGenerator::with_defaults(seed)
        .generate(20)
        .into_iter()
        .enumerate()
    {
        s.set_now(i as f64);
        s.submit(job);
        s.run_iteration();
        s.audit().unwrap_or_else(|e| panic!("{kind:?}: audit after submit: {e}"));
    }
    // Retire running jobs lowest-id first until everything drains.
    while let Some(id) = s.state().running().map(|a| a.spec.id).min() {
        s.complete(id);
        s.run_iteration();
        s.audit().unwrap_or_else(|e| panic!("{kind:?}: audit after completion: {e}"));
    }

    assert_eq!(s.state().n_running(), 0, "{kind:?}: jobs left running");
    assert_eq!(s.state().total_free(), capacity, "{kind:?}: GPUs leaked");
    assert!(s.queue().is_empty(), "{kind:?}: jobs stranded in the queue");

    // Every job's lifecycle closes: exactly one Placed and one Released.
    let trace = s.take_trace();
    let count = |want: fn(&TraceEvent) -> Option<JobId>, id: JobId| {
        trace.iter().filter(|e| want(e) == Some(id)).count()
    };
    for id in (0..20).map(JobId) {
        let placed = count(
            |e| match e {
                TraceEvent::Placed { job, .. } => Some(*job),
                _ => None,
            },
            id,
        );
        let released = count(
            |e| match e {
                TraceEvent::Released { job, .. } => Some(*job),
                _ => None,
            },
            id,
        );
        assert_eq!(placed, 1, "{kind:?}: {id} placed {placed} times");
        assert_eq!(released, 1, "{kind:?}: {id} released {released} times");
    }
}

#[test]
fn every_policy_passes_the_audit_and_drains_the_cluster() {
    for kind in PolicyKind::ALL {
        drive_and_audit(kind, 7);
    }
}

/// One traced simulation with an explicit evaluation-engine setting.
/// Even-numbered seeds also script a failure/recovery cycle so the engine
/// is exercised across `fail_machine`/`recover_machine` invalidations.
/// The cross-event cache is pinned off so the comparison isolates the
/// memoized+parallel engine itself; `eval_cache_is_bit_identical_to_
/// uncached_runs` below covers the cache layer.
fn simulate_with_eval(
    seed: u64,
    n_machines: usize,
    kind: PolicyKind,
    eval: EvalParams,
) -> SimResult {
    let machine = power8_minsky();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 42));
    let cluster = Arc::new(ClusterTopology::homogeneous(machine, n_machines));
    let trace = WorkloadGenerator::with_defaults(seed).generate(24);
    let mut config = SimConfig::new(Policy::new(kind))
        .with_trace()
        .with_eval(eval)
        .with_eval_cache(false);
    if seed.is_multiple_of(2) {
        config = config
            .with_machine_failures(vec![(50.0, MachineId(1))])
            .with_machine_recoveries(vec![(400.0, MachineId(1))]);
    }
    Simulation::new(cluster, profiles, config).run(trace)
}

/// The memoized+parallel evaluation engine must be bit-identical to the
/// sequential reference: same placements, same trace events, same metrics,
/// for every policy across many seeds, including machine-failure runs.
/// (`mean_decision_s` is wall-clock and legitimately differs.)
#[test]
fn evaluation_engine_is_bit_identical_to_sequential_reference() {
    for kind in PolicyKind::ALL {
        for seed in 0..8u64 {
            let n_machines = 2 + (seed as usize % 3);
            let seq = simulate_with_eval(seed, n_machines, kind, EvalParams::sequential());
            let par = simulate_with_eval(seed, n_machines, kind, EvalParams::parallel(4));
            let ctx = format!("{kind:?} seed {seed} ({n_machines} machines)");
            assert_eq!(seq.policy, par.policy, "{ctx}: policy");
            assert_eq!(seq.records, par.records, "{ctx}: records");
            assert_eq!(seq.unplaceable, par.unplaceable, "{ctx}: unplaceable");
            assert_eq!(seq.timeline, par.timeline, "{ctx}: timeline");
            assert_eq!(seq.utility_series, par.utility_series, "{ctx}: utility series");
            assert_eq!(
                seq.makespan_s.to_bits(),
                par.makespan_s.to_bits(),
                "{ctx}: makespan {} vs {}",
                seq.makespan_s,
                par.makespan_s
            );
            assert_eq!(seq.slo_violations, par.slo_violations, "{ctx}: SLO violations");
            assert_eq!(seq.failures, par.failures, "{ctx}: failures");
            assert_eq!(seq.events, par.events, "{ctx}: events");
            assert_eq!(seq.trace, par.trace, "{ctx}: decision trace");
        }
    }
}

/// One traced simulation with an explicit event-loop selection. Even seeds
/// script a failure/recovery cycle (exercising teardown, resubmission, and
/// dirty-set marking across machines); seeds divisible by 3 add execution
/// jitter so per-job rates are irrational multiples of each other and the
/// completion heap sees no artificial ties.
fn simulate_with_loop(
    seed: u64,
    n_machines: usize,
    kind: PolicyKind,
    incremental: bool,
) -> SimResult {
    let machine = power8_minsky();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 42));
    let cluster = Arc::new(ClusterTopology::homogeneous(machine, n_machines));
    let trace = WorkloadGenerator::with_defaults(seed).generate(24);
    let mut config = SimConfig::new(Policy::new(kind))
        .with_trace()
        .with_incremental(incremental);
    if seed.is_multiple_of(2) {
        config = config
            .with_machine_failures(vec![(50.0, MachineId(1))])
            .with_machine_recoveries(vec![(400.0, MachineId(1))]);
    }
    if seed.is_multiple_of(3) {
        config = config.with_jitter(0.08, seed.wrapping_mul(0x9E37_79B9) + 1);
    }
    Simulation::new(cluster, profiles, config).run(trace)
}

/// The incremental event loop (machine-scoped slowdown refresh, completion
/// heap, schedule cursors) must be bit-identical to the recompute-everything
/// reference loop: same records, same trace, same events, same makespan
/// bits, for every policy across many seeds, including machine-failure and
/// jitter runs. (`mean_decision_s` is wall-clock and legitimately differs.)
#[test]
fn incremental_event_loop_is_bit_identical_to_reference() {
    for kind in PolicyKind::ALL {
        for seed in 0..8u64 {
            let n_machines = 2 + (seed as usize % 3);
            let reference = simulate_with_loop(seed, n_machines, kind, false);
            let inc = simulate_with_loop(seed, n_machines, kind, true);
            let ctx = format!("{kind:?} seed {seed} ({n_machines} machines)");
            assert_eq!(reference.policy, inc.policy, "{ctx}: policy");
            assert_eq!(reference.records, inc.records, "{ctx}: records");
            assert_eq!(reference.unplaceable, inc.unplaceable, "{ctx}: unplaceable");
            assert_eq!(reference.timeline, inc.timeline, "{ctx}: timeline");
            assert_eq!(reference.utility_series, inc.utility_series, "{ctx}: utility series");
            assert_eq!(
                reference.makespan_s.to_bits(),
                inc.makespan_s.to_bits(),
                "{ctx}: makespan {} vs {}",
                reference.makespan_s,
                inc.makespan_s
            );
            assert_eq!(reference.slo_violations, inc.slo_violations, "{ctx}: SLO violations");
            assert_eq!(reference.failures, inc.failures, "{ctx}: failures");
            assert_eq!(reference.events, inc.events, "{ctx}: events");
            assert_eq!(reference.trace, inc.trace, "{ctx}: decision trace");
        }
    }
}

/// One traced simulation with an explicit cross-event-cache selection, on
/// the evaluation engine path (the cache never engages on the sequential
/// reference). Even seeds script a failure/recovery cycle so cached class
/// keys survive `fail_machine`/`recover_machine` rebuilds; seeds divisible
/// by 3 add execution jitter so completion times (and therefore the arrival
/// interleavings the cache sees) vary per seed.
fn simulate_with_cache(
    seed: u64,
    n_machines: usize,
    kind: PolicyKind,
    eval_cache: bool,
) -> SimResult {
    let machine = power8_minsky();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 42));
    let cluster = Arc::new(ClusterTopology::homogeneous(machine, n_machines));
    let trace = WorkloadGenerator::with_defaults(seed).generate(24);
    let mut config = SimConfig::new(Policy::new(kind))
        .with_trace()
        .with_eval(EvalParams::parallel(4))
        .with_eval_cache(eval_cache);
    if seed.is_multiple_of(2) {
        config = config
            .with_machine_failures(vec![(50.0, MachineId(1))])
            .with_machine_recoveries(vec![(400.0, MachineId(1))]);
    }
    if seed.is_multiple_of(3) {
        config = config.with_jitter(0.08, seed.wrapping_mul(0x9E37_79B9) + 1);
    }
    Simulation::new(cluster, profiles, config).run(trace)
}

/// The cross-event placement cache must be invisible in every output: same
/// records, same trace events, same metrics, for every policy across many
/// seeds, including machine-failure and jitter runs. The only permitted
/// difference is the `EvalCacheStats` trace footer, which is stripped
/// before comparison. (`mean_decision_s` is wall-clock and legitimately
/// differs.)
#[test]
fn eval_cache_is_bit_identical_to_uncached_runs() {
    let strip_stats = |trace: Vec<TraceEvent>| -> Vec<TraceEvent> {
        trace
            .into_iter()
            .filter(|e| !matches!(e, TraceEvent::EvalCacheStats { .. }))
            .collect()
    };
    for kind in PolicyKind::ALL {
        for seed in 0..8u64 {
            let n_machines = 2 + (seed as usize % 3);
            let cold = simulate_with_cache(seed, n_machines, kind, false);
            let cached = simulate_with_cache(seed, n_machines, kind, true);
            let ctx = format!("{kind:?} seed {seed} ({n_machines} machines)");
            assert_eq!(cold.policy, cached.policy, "{ctx}: policy");
            assert_eq!(cold.records, cached.records, "{ctx}: records");
            assert_eq!(cold.unplaceable, cached.unplaceable, "{ctx}: unplaceable");
            assert_eq!(cold.timeline, cached.timeline, "{ctx}: timeline");
            assert_eq!(cold.utility_series, cached.utility_series, "{ctx}: utility series");
            assert_eq!(
                cold.makespan_s.to_bits(),
                cached.makespan_s.to_bits(),
                "{ctx}: makespan {} vs {}",
                cold.makespan_s,
                cached.makespan_s
            );
            assert_eq!(cold.slo_violations, cached.slo_violations, "{ctx}: SLO violations");
            assert_eq!(cold.failures, cached.failures, "{ctx}: failures");
            assert_eq!(cold.events, cached.events, "{ctx}: events");
            assert_eq!(
                strip_stats(cold.trace),
                strip_stats(cached.trace),
                "{ctx}: decision trace"
            );
        }
    }
}

/// One simulation on a rack-partitioned cluster with an explicit shard
/// count. Untraced on purpose: the sharded two-level decision path only
/// engages when tracing is off (traced runs always take the flat reference
/// path), so a traced comparison would be trivially identical. Even seeds
/// script a failure/recovery cycle so shard aggregates survive
/// `fail_machine`/`recover_machine`; seeds divisible by 3 add execution
/// jitter so arrival interleavings vary per seed.
fn simulate_with_shards(
    seed: u64,
    n_racks: usize,
    kind: PolicyKind,
    shards: usize,
) -> SimResult {
    simulate_with_shards_eval(seed, n_racks, kind, shards, EvalParams::parallel(4))
}

/// [`simulate_with_shards`] with explicit [`EvalParams`] so the
/// bound-pruning and replay knobs can be pinned per run, independent of the
/// process environment.
fn simulate_with_shards_eval(
    seed: u64,
    n_racks: usize,
    kind: PolicyKind,
    shards: usize,
    eval: EvalParams,
) -> SimResult {
    let machine = power8_minsky();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 42));
    let cluster = Arc::new(ClusterTopology::homogeneous_racked(machine, n_racks, 2));
    let trace = WorkloadGenerator::with_defaults(seed).generate(24);
    let mut config = SimConfig::new(Policy::new(kind)).with_eval(eval).with_shards(shards);
    if seed.is_multiple_of(2) {
        config = config
            .with_machine_failures(vec![(50.0, MachineId(1))])
            .with_machine_recoveries(vec![(400.0, MachineId(1))]);
    }
    if seed.is_multiple_of(3) {
        config = config.with_jitter(0.08, seed.wrapping_mul(0x9E37_79B9) + 1);
    }
    Simulation::new(cluster, profiles, config).run(trace)
}

/// Asserts two runs are bit-identical in everything but wall-clock.
#[track_caller]
fn assert_runs_identical(ctx: &str, reference: &SimResult, run: &SimResult) {
    assert_eq!(reference.policy, run.policy, "{ctx}: policy");
    assert_eq!(reference.records, run.records, "{ctx}: records");
    assert_eq!(reference.unplaceable, run.unplaceable, "{ctx}: unplaceable");
    assert_eq!(reference.timeline, run.timeline, "{ctx}: timeline");
    assert_eq!(reference.utility_series, run.utility_series, "{ctx}: utility series");
    assert_eq!(
        reference.makespan_s.to_bits(),
        run.makespan_s.to_bits(),
        "{ctx}: makespan {} vs {}",
        reference.makespan_s,
        run.makespan_s
    );
    assert_eq!(reference.slo_violations, run.slo_violations, "{ctx}: SLO violations");
    assert_eq!(reference.failures, run.failures, "{ctx}: failures");
    assert_eq!(reference.events, run.events, "{ctx}: events");
    assert_eq!(reference.trace, run.trace, "{ctx}: decision trace");
}

/// The sharded two-level scheduler (per-rack admission aggregates + shard-
/// local placement) must be bit-identical to the single-shard reference:
/// same records, same events, same metrics, for every policy across many
/// seeds, including machine-failure and jitter runs. (`mean_decision_s` is
/// wall-clock and legitimately differs.)
#[test]
fn sharded_scheduler_is_bit_identical_to_single_shard() {
    for kind in PolicyKind::ALL {
        for seed in 0..8u64 {
            let n_racks = 2 + (seed as usize % 3);
            let single = simulate_with_shards(seed, n_racks, kind, 1);
            let sharded = simulate_with_shards(seed, n_racks, kind, n_racks);
            let ctx = format!("{kind:?} seed {seed} ({n_racks} racks)");
            assert_runs_identical(&ctx, &single, &sharded);
        }
    }
}

/// The branch-and-bound shard pruning, on and off, must be bit-identical
/// to the single-shard reference: same records, same events, same metrics,
/// for every policy across many seeds, including machine-failure and
/// jitter runs. Uses 4+ racks so cold decisions walk several memo-miss
/// shards, and pins the knob through [`EvalParams`] so both sides run
/// in-process regardless of `GTS_SHARD_BOUND` in the environment. Debug
/// builds additionally shadow-evaluate every pruned shard inside the
/// decision path and assert the bound held.
#[test]
fn pruned_shards_are_bit_identical_to_single_shard() {
    for kind in PolicyKind::ALL {
        for seed in 0..8u64 {
            let n_racks = 4 + (seed as usize % 3);
            let single = simulate_with_shards(seed, n_racks, kind, 1);
            for bound in [false, true] {
                let eval = EvalParams::parallel(4).with_shard_bound(bound);
                let run = simulate_with_shards_eval(seed, n_racks, kind, n_racks, eval);
                let ctx = format!("{kind:?} seed {seed} ({n_racks} racks, bound={bound})");
                assert_runs_identical(&ctx, &single, &run);
            }
        }
    }
}

/// Every [`SimLoopStats`] counter must repeat exactly between two runs of
/// the same sharded trace: the decision path runs on the caller's thread,
/// so the eval-cache, replay, admission and bound counters are as
/// deterministic as the results. Only the wall-clock meters (`phase_*_ns`,
/// `decision_p99_ns`) may differ. Eight or more racks make cold decisions
/// re-evaluate at least four shards at once, and every run scripts a
/// machine failure and recovery.
#[test]
fn sharded_run_counters_repeat_exactly() {
    let counters = |s: SimLoopStats| SimLoopStats {
        phase_decision_ns: 0,
        decision_p99_ns: 0,
        phase_refresh_ns: 0,
        phase_heap_ns: 0,
        phase_drain_ns: 0,
        ..s
    };
    for kind in [PolicyKind::TopoAware, PolicyKind::TopoAwareP] {
        for seed in 0..4u64 {
            let n_racks = 8 + (seed as usize % 3);
            let run = || {
                let machine = power8_minsky();
                let profiles = Arc::new(ProfileLibrary::generate(&machine, 42));
                let cluster =
                    Arc::new(ClusterTopology::homogeneous_racked(machine, n_racks, 2));
                let trace = WorkloadGenerator::with_defaults(seed).generate(60);
                let config = SimConfig::new(Policy::new(kind))
                    .with_eval(EvalParams::parallel(4))
                    .with_eval_cache(true)
                    .with_shards(n_racks)
                    .with_phase_timing(true)
                    .with_machine_failures(vec![(30.0, MachineId(3))])
                    .with_machine_recoveries(vec![(300.0, MachineId(3))]);
                Simulation::new(cluster, profiles, config).run_with_stats(trace)
            };
            let (first_res, first) = run();
            let (second_res, second) = run();
            let ctx = format!("{kind:?} seed {seed} ({n_racks} racks)");
            assert_runs_identical(&ctx, &first_res, &second_res);
            assert!(first.shard_admission_checked > 0, "{ctx}: the sharded path never ran");
            assert!(first.eval_cache_misses > 0, "{ctx}: the eval cache never ran");
            assert_eq!(counters(first), counters(second), "{ctx}: counters drifted");
        }
    }
}

/// Cross-event decision replay (`GTS_DECISION_REPLAY`, DESIGN.md §12) must
/// be bit-identical to full re-evaluation: same records, same events, same
/// metrics, for every policy across many seeds — including machine-failure/
/// recovery and jitter runs, where snapshots go stale mid-queue — with
/// bound pruning both on and off (the cached per-shard floor seeds the
/// bound prune, so the interaction matters). The knobs are pinned through
/// [`EvalParams`] so the matrix is exercised in-process regardless of the
/// environment; debug builds additionally shadow every replayed retry with
/// a from-scratch decision inside the decision path and assert
/// GPU-for-GPU, bit-for-bit equality.
#[test]
fn decision_replay_is_bit_identical_to_full_reeval() {
    for kind in PolicyKind::ALL {
        for seed in 0..8u64 {
            let n_racks = 4 + (seed as usize % 3);
            let single = simulate_with_shards(seed, n_racks, kind, 1);
            for replay in [false, true] {
                for bound in [false, true] {
                    let eval = EvalParams::parallel(4)
                        .with_shard_bound(bound)
                        .with_decision_replay(replay);
                    let run = simulate_with_shards_eval(seed, n_racks, kind, n_racks, eval);
                    let ctx = format!(
                        "{kind:?} seed {seed} ({n_racks} racks, replay={replay}, bound={bound})"
                    );
                    assert_runs_identical(&ctx, &single, &run);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn simulation_conserves_jobs(seed in 0u64..1000, kind in any_policy()) {
        let res = simulate_random(seed, 30, 2, kind);
        prop_assert_eq!(res.records.len() + res.unplaceable.len(), 30);
    }

    #[test]
    fn records_are_causally_ordered(seed in 0u64..1000, kind in any_policy()) {
        let res = simulate_random(seed, 30, 2, kind);
        for r in &res.records {
            prop_assert!(r.placed_at_s + 1e-9 >= r.spec.arrival_s, "{} placed before arrival", r.spec.id);
            prop_assert!(r.finished_at_s > r.placed_at_s, "{} finished before starting", r.spec.id);
            // Execution can never beat the ideal placement.
            prop_assert!(
                r.execution_s() + 1e-6 >= r.ideal_duration_s,
                "{}: executed {} < ideal {}",
                r.spec.id, r.execution_s(), r.ideal_duration_s
            );
        }
    }

    #[test]
    fn postponing_policy_never_violates(seed in 0u64..1000) {
        let res = simulate_random(seed, 30, 2, PolicyKind::TopoAwareP);
        prop_assert_eq!(res.slo_violations, 0);
    }

    #[test]
    fn allocations_respect_request_size(seed in 0u64..1000, kind in any_policy()) {
        let res = simulate_random(seed, 25, 3, kind);
        for r in &res.records {
            prop_assert_eq!(r.gpus.len(), r.spec.n_gpus as usize);
            // All experiment jobs are single-node.
            let machines: std::collections::HashSet<_> = r.gpus.iter().map(|g| g.machine).collect();
            prop_assert_eq!(machines.len(), 1, "single-node constraint broken");
            // No duplicate GPUs.
            let mut gpus = r.gpus.clone();
            gpus.sort();
            gpus.dedup();
            prop_assert_eq!(gpus.len(), r.spec.n_gpus as usize);
        }
    }

    #[test]
    fn makespan_bounds_every_completion(seed in 0u64..1000, kind in any_policy()) {
        let res = simulate_random(seed, 20, 2, kind);
        for r in &res.records {
            prop_assert!(r.finished_at_s <= res.makespan_s + 1e-9);
        }
    }

    #[test]
    fn trace_pairs_place_and_release_per_completed_job(seed in 0u64..1000, kind in any_policy()) {
        let res = simulate_random_traced(seed, 25, 2, kind);
        for r in &res.records {
            let placed = res.trace.iter().filter(|e| matches!(
                e, TraceEvent::Placed { job, .. } if *job == r.spec.id
            )).count();
            let released = res.trace.iter().filter(|e| matches!(
                e, TraceEvent::Released { job, .. } if *job == r.spec.id
            )).count();
            prop_assert_eq!(placed, 1, "{} placed {} times", r.spec.id, placed);
            prop_assert_eq!(released, 1, "{} released {} times", r.spec.id, released);
        }
        // Cluster-wide, grants and releases balance: the run drained.
        let all_placed = res.trace.iter().filter(|e| matches!(e, TraceEvent::Placed { .. })).count();
        let all_released = res.trace.iter().filter(|e| matches!(e, TraceEvent::Released { .. })).count();
        prop_assert_eq!(all_placed, all_released);
    }

    #[test]
    fn utilities_are_normalized(seed in 0u64..1000, kind in any_policy()) {
        let res = simulate_random(seed, 20, 2, kind);
        for r in &res.records {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&r.utility), "{}: {}", r.spec.id, r.utility);
        }
    }
}
