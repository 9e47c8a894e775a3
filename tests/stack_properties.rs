//! Property-based invariants over the whole stack: random workloads, random
//! cluster shapes, every policy.

use gpu_topo_aware::prelude::*;
use gpu_topo_aware::sched::CancelOutcome;
use proptest::prelude::*;
use std::sync::Arc;

fn simulate_random(seed: u64, n_jobs: usize, n_machines: usize, kind: PolicyKind) -> SimResult {
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
    Simulation::new(
        cluster,
        profiles,
        SimConfig::new(Policy::new(kind)).with_trace(),
    )
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
        s.audit()
            .unwrap_or_else(|e| panic!("{kind:?}: audit after submit: {e}"));
    }
    // Retire running jobs lowest-id first until everything drains.
    while let Some(id) = s.state().running().map(|a| a.spec.id).min() {
        s.complete(id);
        s.run_iteration();
        s.audit()
            .unwrap_or_else(|e| panic!("{kind:?}: audit after completion: {e}"));
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

/// Asserts two runs are bit-identical in everything but wall-clock.
#[track_caller]
fn assert_runs_identical(ctx: &str, reference: &SimResult, run: &SimResult) {
    assert_eq!(reference.policy, run.policy, "{ctx}: policy");
    assert_eq!(reference.records, run.records, "{ctx}: records");
    assert_eq!(reference.unplaceable, run.unplaceable, "{ctx}: unplaceable");
    assert_eq!(reference.timeline, run.timeline, "{ctx}: timeline");
    assert_eq!(
        reference.utility_series, run.utility_series,
        "{ctx}: utility series"
    );
    assert_eq!(
        reference.makespan_s.to_bits(),
        run.makespan_s.to_bits(),
        "{ctx}: makespan {} vs {}",
        reference.makespan_s,
        run.makespan_s
    );
    assert_eq!(
        reference.slo_violations, run.slo_violations,
        "{ctx}: SLO violations"
    );
    assert_eq!(reference.failures, run.failures, "{ctx}: failures");
    assert_eq!(reference.events, run.events, "{ctx}: events");
    assert_eq!(reference.trace, run.trace, "{ctx}: decision trace");
}

/// One scenario of the differential runner: a cluster, its workload, and
/// how to run it.
struct Scenario {
    cluster: Arc<ClusterTopology>,
    profiles: Arc<ProfileLibrary>,
    trace: Vec<JobSpec>,
    /// Record and compare the decision traces too.
    traced: bool,
    /// Cluster shape, for failure messages.
    label: String,
}

impl Scenario {
    /// Flat Minsky cluster of 2–4 machines, traced, so the per-candidate
    /// decision traces are compared as well as the results.
    fn flat_minsky(seed: u64) -> Self {
        let n_machines = 2 + (seed as usize % 3);
        let machine = power8_minsky();
        Self {
            profiles: Arc::new(ProfileLibrary::generate(&machine, 42)),
            cluster: Arc::new(ClusterTopology::homogeneous(machine, n_machines)),
            trace: WorkloadGenerator::with_defaults(seed).generate(24),
            traced: true,
            label: format!("{n_machines} flat machines"),
        }
    }

    /// Minsky cluster of `min_racks` to `min_racks + 2` racks × 2 machines.
    /// Untraced on purpose: the decision memo never answers a traced
    /// decision, so only untraced runs exercise it.
    fn racked_minsky(seed: u64, min_racks: usize) -> Self {
        let n_racks = min_racks + (seed as usize % 3);
        let machine = power8_minsky();
        Self {
            profiles: Arc::new(ProfileLibrary::generate(&machine, 42)),
            cluster: Arc::new(ClusterTopology::homogeneous_racked(machine, n_racks, 2)),
            trace: WorkloadGenerator::with_defaults(seed).generate(24),
            traced: false,
            label: format!("{n_racks} racks"),
        }
    }

    /// Raises every second job's `min_utility` to 0.99, which only a
    /// packed placement with next to no interference meets: TOPO-AWARE-P
    /// postpones those jobs until such a slot opens, and TOPO-AWARE counts
    /// their violations.
    fn gated(mut self) -> Self {
        for job in self.trace.iter_mut().step_by(2) {
            job.min_utility = 0.99;
        }
        self.label.push_str(", gated");
        self
    }

    /// The same machines, jobs and options on one flat fabric.
    fn flattened(&self) -> Self {
        let machines = self
            .cluster
            .machines()
            .map(|m| self.cluster.machine_arc(m))
            .collect();
        Self {
            cluster: Arc::new(ClusterTopology::from_machines(machines)),
            profiles: Arc::clone(&self.profiles),
            trace: self.trace.clone(),
            traced: self.traced,
            label: format!("{}, flattened", self.label),
        }
    }

    /// A small `rack_overload`: 2–4 racks × 2 Minsky machines under 120
    /// jobs arriving at 1,200 a minute, so the queue backs up behind a
    /// full cluster and every wake-up walks the backlog. A fifth of the
    /// multi-GPU jobs carry a pipeline comm graph, which joins their job
    /// class and so their replay key, a fifth of all jobs may spill, and
    /// every third job asks for a `min_utility` of 0.4, so jobs of one
    /// class differ in both guards of the replay key.
    fn rack_backlog(seed: u64) -> Self {
        let n_racks = 2 + (seed as usize % 3);
        let machine = power8_minsky();
        let gen = GeneratorConfig {
            arrival_rate_per_min: 1200.0,
            model_parallel_fraction: 0.2,
            multi_node_fraction: 0.2,
            ..GeneratorConfig::default()
        };
        let mut trace = WorkloadGenerator::new(gen, seed).generate(120);
        for job in trace.iter_mut().step_by(3) {
            job.min_utility = 0.4;
        }
        Self {
            profiles: Arc::new(ProfileLibrary::generate(&machine, 42)),
            cluster: Arc::new(ClusterTopology::homogeneous_racked(machine, n_racks, 2)),
            trace,
            traced: false,
            label: format!("{n_racks}-rack backlog"),
        }
    }

    /// A heterogeneous fleet of 6–9 machines cycling Minsky, DGX-1 and
    /// PCIe-K80 (plus the 16-GPU DGX-2 on odd seeds). The workload adds
    /// pipeline comm-graph jobs (cached under their graph's job class) and
    /// jobs allowed to spill across machines; on DGX-2 fleets every second
    /// graph-free 4-GPU job is widened to 8 GPUs. `traced` records and
    /// compares the per-candidate decision traces as well.
    fn hetero_fleet(seed: u64, traced: bool) -> Self {
        let minsky = Arc::new(power8_minsky());
        let mut cycle = vec![
            Arc::clone(&minsky),
            Arc::new(dgx1()),
            Arc::new(power8_pcie_k80()),
        ];
        let n_machines = 6 + (seed as usize % 4);
        let with_dgx2 = !seed.is_multiple_of(2);
        if with_dgx2 {
            cycle.push(Arc::new(gpu_topo_aware::topo::dgx2()));
        }
        let machines = (0..n_machines)
            .map(|i| Arc::clone(&cycle[i % cycle.len()]))
            .collect();
        let gen = GeneratorConfig {
            model_parallel_fraction: 0.3,
            multi_node_fraction: 0.15,
            ..GeneratorConfig::default()
        };
        let mut trace = WorkloadGenerator::new(gen, seed).generate(24);
        if with_dgx2 {
            let narrow = trace
                .iter_mut()
                .filter(|j| j.n_gpus == 4 && j.comm_graph.is_none());
            for job in narrow.skip(1).step_by(2) {
                job.n_gpus = 8;
            }
        }
        Self {
            cluster: Arc::new(ClusterTopology::from_machines(machines)),
            profiles: Arc::new(ProfileLibrary::generate(&minsky, 42)),
            trace,
            traced,
            label: format!("{n_machines} mixed machines"),
        }
    }
}

/// Drops the end-of-run counter footer, the only trace event in which
/// production and the oracle legitimately differ.
fn strip_footers(mut result: SimResult) -> SimResult {
    result
        .trace
        .retain(|e| !matches!(e, TraceEvent::EvalCacheStats { .. }));
    result
}

/// The reference oracle: sequential flat decisions plus the
/// recompute-everything event loop.
fn oracle(config: SimConfig) -> SimConfig {
    config
        .with_eval(EvalParams::sequential())
        .with_incremental(false)
}

/// The production config of the differential runner for `scenario` under
/// `kind`. Even seeds script a failure and recovery of machine 1, so
/// caches, the decision memo and the class table survive
/// `fail_machine`/`recover_machine`; seeds divisible by 3 add execution
/// jitter, so completion times (and the interleavings the caches see) vary
/// per seed. Production pins the engine, so an ambient
/// `GTS_EVAL_THREADS=1` cannot turn a comparison into oracle against
/// oracle.
fn production_config(kind: PolicyKind, seed: u64, scenario: &Scenario) -> SimConfig {
    let mut production = SimConfig::new(Policy::new(kind)).with_eval(EvalParams::parallel(4));
    if scenario.traced {
        production = production.with_trace();
    }
    if seed.is_multiple_of(2) {
        production = production
            .with_machine_failures(vec![(50.0, MachineId(1))])
            .with_machine_recoveries(vec![(400.0, MachineId(1))]);
    }
    if seed.is_multiple_of(3) {
        production = production.with_jitter(0.08, seed.wrapping_mul(0x9E37_79B9) + 1);
    }
    production
}

/// Simulates `scenario` under `config`.
fn run_scenario(scenario: &Scenario, config: SimConfig) -> (SimResult, SimLoopStats) {
    Simulation::new(
        Arc::clone(&scenario.cluster),
        Arc::clone(&scenario.profiles),
        config,
    )
    .run_with_stats(scenario.trace.clone())
}

/// The differential runner: runs `scenario` under `kind` on the production
/// path and on `reference` applied to the production config (the full
/// [`oracle`], or one layer swapped for its reference form) and asserts
/// the two runs are bit-identical. Returns the loop counters of the
/// production and the reference run.
fn assert_matches_reference(
    kind: PolicyKind,
    seed: u64,
    scenario: &Scenario,
    reference: impl FnOnce(SimConfig) -> SimConfig,
) -> (SimLoopStats, SimLoopStats) {
    let production = production_config(kind, seed, scenario);
    let (want, reference_stats) = run_scenario(scenario, reference(production.clone()));
    let (got, stats) = run_scenario(scenario, production);
    let ctx = format!("{kind:?} seed {seed} ({})", scenario.label);
    assert_runs_identical(&ctx, &strip_footers(want), &strip_footers(got));
    (stats, reference_stats)
}

/// Runs racked `scenario` and its [`Scenario::flattened`] twin on the
/// production path and asserts the two runs are bit-identical: class keys
/// carry no location, so racks must be invisible to every single-machine
/// decision (DESIGN.md §15.6). Returns the racked run's loop counters.
fn assert_racks_invisible(kind: PolicyKind, seed: u64, scenario: &Scenario) -> SimLoopStats {
    let production = production_config(kind, seed, scenario);
    let (want, _) = run_scenario(&scenario.flattened(), production.clone());
    let (got, stats) = run_scenario(scenario, production);
    let ctx = format!("{kind:?} seed {seed} ({})", scenario.label);
    assert_runs_identical(&ctx, &strip_footers(want), &strip_footers(got));
    stats
}

/// The policies that decide through the evaluation engine.
fn is_topo_aware(kind: PolicyKind) -> bool {
    matches!(kind, PolicyKind::TopoAware | PolicyKind::TopoAwareP)
}

/// Runs `case` over the differential matrix: every policy × seeds 0–7.
fn for_each_case(mut case: impl FnMut(PolicyKind, u64)) {
    for kind in PolicyKind::ALL {
        for seed in 0..8u64 {
            case(kind, seed);
        }
    }
}

/// Asserts the class-level decision ran on a TOPO-AWARE(-P) production
/// run: it reads the eval cache, which the oracle never touches.
fn assert_class_path_ran(kind: PolicyKind, seed: u64, scenario: &Scenario, stats: &SimLoopStats) {
    if is_topo_aware(kind) {
        assert!(
            stats.eval_cache_hits + stats.eval_cache_misses > 0,
            "{kind:?} seed {seed} ({}): the class path never read the cache",
            scenario.label
        );
    }
}

#[test]
fn production_matches_oracle_on_flat_minsky() {
    for_each_case(|kind, seed| {
        assert_matches_reference(kind, seed, &Scenario::flat_minsky(seed), oracle);
    });
}

#[test]
fn production_matches_oracle_on_racked_minsky() {
    for_each_case(|kind, seed| {
        let scenario = Scenario::racked_minsky(seed, 4);
        let (stats, _) = assert_matches_reference(kind, seed, &scenario, oracle);
        assert_class_path_ran(kind, seed, &scenario, &stats);
    });
}

/// One drain's outcomes, each with the GPUs its job holds right after the
/// drain: a placed job's, read from the state's allocation of it, and none
/// for a job left queued.
type Drain = Vec<(PlacementOutcome, Vec<GlobalGpuId>)>;

/// Drives a TOPO-AWARE-P scheduler over `scenario` by hand: each job is
/// submitted and drained on arrival, then running jobs retire lowest id
/// first, one drain each. Returns every drain's outcomes, postponement
/// utilities and placed jobs' GPUs included, and the jobs answered from
/// the decision memo.
fn drive_backlog(scenario: &Scenario, eval: EvalParams) -> (Vec<Drain>, u64) {
    let state = ClusterState::new(
        Arc::clone(&scenario.cluster),
        Arc::clone(&scenario.profiles),
    );
    let policy = Policy::new(PolicyKind::TopoAwareP);
    let mut s = Scheduler::new(state, SchedulerConfig { policy, eval });
    let drain = |s: &mut Scheduler| -> Drain {
        let outcomes = s.run_iteration();
        let gpus = |o: &PlacementOutcome| match *o {
            PlacementOutcome::Placed { id, .. } => {
                let alloc = s.state().allocation(id);
                alloc.expect("a placed job runs").gpus.clone()
            }
            _ => Vec::new(),
        };
        outcomes.iter().map(|o| (*o, gpus(o))).collect()
    };
    let mut drains = Vec::new();
    for job in &scenario.trace {
        s.set_now(job.arrival_s);
        s.submit(job.clone());
        drains.push(drain(&mut s));
    }
    while let Some(id) = s.state().running().map(|a| a.spec.id).min() {
        s.complete(id);
        drains.push(drain(&mut s));
    }
    (drains, s.replay_hits())
}

/// A TOPO-AWARE-P backlog on racks: production gives a job the answer of
/// an earlier unplaced job with its replay key from the decision memo
/// instead of deciding, until the state changes, across iterations too.
/// The oracle decides every job, and the two must still agree: on the
/// simulation results, and on every drain's outcomes when a scheduler is
/// driven by hand — the only place a postponement's utility shows.
/// Production must answer from the memo at least once per seed in both;
/// the oracle never does.
#[test]
fn production_matches_oracle_on_rack_backlog() {
    for seed in 0..8u64 {
        let scenario = Scenario::rack_backlog(seed);
        let kind = PolicyKind::TopoAwareP;
        let ctx = format!("seed {seed} ({})", scenario.label);
        let (stats, reference) = assert_matches_reference(kind, seed, &scenario, oracle);
        assert_class_path_ran(kind, seed, &scenario, &stats);
        assert!(
            stats.replay_hits > 0,
            "{ctx}: production never answered from the memo"
        );
        assert_eq!(
            reference.replay_hits, 0,
            "{ctx}: the oracle answered from a memo"
        );

        let (got, hits) = drive_backlog(&scenario, EvalParams::parallel(4));
        let (want, reference) = drive_backlog(&scenario, EvalParams::sequential());
        assert_eq!(got, want, "{ctx}: hand-driven drains diverged");
        assert!(
            hits > 0,
            "{ctx}: hand-driven production never answered from the memo"
        );
        assert_eq!(
            reference, 0,
            "{ctx}: the hand-driven oracle answered from a memo"
        );
    }
}

/// Heterogeneous fleets ([`Scenario::hetero_fleet`]), traced: the class
/// outcomes expanded into per-candidate records must equal the
/// reference's records across mixed machine kinds, comm-graph jobs and
/// spills.
#[test]
fn production_matches_oracle_on_hetero_fleet() {
    for_each_case(|kind, seed| {
        let scenario = Scenario::hetero_fleet(seed, true);
        let (stats, _) = assert_matches_reference(kind, seed, &scenario, oracle);
        assert_class_path_ran(kind, seed, &scenario, &stats);
    });
}

/// The same heterogeneous fleets untraced — the path `hetero_flat`-like
/// clusters take: every TOPO-AWARE(-P) decision runs over the live
/// machine classes (DESIGN.md §15) behind the decision memo, and the
/// class cache must be read (the oracle never touches it), so the
/// comparison really is class path against oracle.
#[test]
fn production_matches_oracle_on_flat_hetero() {
    for_each_case(|kind, seed| {
        let scenario = Scenario::hetero_fleet(seed, false);
        let (stats, _) = assert_matches_reference(kind, seed, &scenario, oracle);
        assert_class_path_ran(kind, seed, &scenario, &stats);
    });
}

// The tests below swap one production layer at a time for its reference
// form, so a divergence the differential runner finds is pinned to a layer.

/// The evaluation engine (the class-level decision, the cross-event cache
/// and the decision memo) must be bit-identical to the sequential flat
/// decision, with the incremental loop on both sides.
#[test]
fn evaluation_engine_is_bit_identical_to_sequential_reference() {
    for_each_case(|kind, seed| {
        let reference = |c: SimConfig| c.with_eval(EvalParams::sequential());
        assert_matches_reference(kind, seed, &Scenario::flat_minsky(seed), reference);
    });
}

/// The incremental event loop (machine-scoped slowdown refresh, completion
/// heap, schedule cursors) must be bit-identical to the
/// recompute-everything loop, with the production engine on both sides.
#[test]
fn incremental_event_loop_is_bit_identical_to_reference() {
    for_each_case(|kind, seed| {
        let reference = |c: SimConfig| c.with_incremental(false);
        assert_matches_reference(kind, seed, &Scenario::flat_minsky(seed), reference);
    });
}

/// The cross-event placement cache must be invisible. A hand-driven
/// production run (flat Minsky, 2–4 machines, machine 1 failing and
/// recovering on even seeds) keeps one cache alive across every event;
/// before each scheduling pass, every waiting job's decision through that
/// cache must equal the uncached decision on the same state, GPU for GPU
/// and bit for bit.
#[test]
fn eval_cache_is_bit_identical_to_uncached_runs() {
    let params = EvalParams::parallel(4);
    for_each_case(|kind, seed| {
        let Scenario {
            cluster,
            profiles,
            trace,
            label,
            ..
        } = Scenario::flat_minsky(seed);
        let policy = Policy::new(kind);
        let state = ClusterState::new(cluster, profiles);
        let mut s = Scheduler::new(state, SchedulerConfig::new(policy));
        let cache = EvalCache::with_capacity(4096);
        let ctx = format!("{kind:?} seed {seed} ({label})");
        let probe = |s: &Scheduler| {
            for job in s.queue().iter() {
                let cached = policy.decide_with(s.state(), job, params, Some(&cache), None);
                let uncached = policy.decide_with(s.state(), job, params, None, None);
                assert_eq!(
                    cached.map(|d| (d.gpus, d.utility.to_bits())),
                    uncached.map(|d| (d.gpus, d.utility.to_bits())),
                    "{ctx}: {} diverged",
                    job.id
                );
            }
        };
        for (i, job) in trace.into_iter().enumerate() {
            s.set_now(i as f64);
            if seed.is_multiple_of(2) && i == 8 {
                // `fail_machine` expects machine 1 already emptied: tear
                // its jobs down and resubmit them, as the simulator does.
                for id in s.state().jobs_on_machine(MachineId(1)).to_vec() {
                    match s.cancel(id) {
                        CancelOutcome::Stopped(lost) => s.submit(lost.spec),
                        other => panic!("{ctx}: cancel of running {id} returned {other:?}"),
                    }
                }
                s.fail_machine(MachineId(1));
            }
            if seed.is_multiple_of(2) && i == 16 {
                s.recover_machine(MachineId(1));
            }
            s.submit(job);
            probe(&s);
            s.run_iteration();
        }
        while let Some(id) = s.state().running().map(|a| a.spec.id).min() {
            s.complete(id);
            probe(&s);
            s.run_iteration();
        }
        if is_topo_aware(kind) {
            assert!(
                cache.stats().hits > 0,
                "{ctx}: the cache never served a hit"
            );
        }
    });
}

/// Racks must be invisible: untraced production runs on 2–4 racks must be
/// bit-identical to the same machines on one flat fabric (DESIGN.md
/// §15.6), and the class path must run.
#[test]
fn racks_are_bit_identical_to_one_flat_fabric() {
    for_each_case(|kind, seed| {
        let scenario = Scenario::racked_minsky(seed, 2);
        let stats = assert_racks_invisible(kind, seed, &scenario);
        assert_class_path_ran(kind, seed, &scenario, &stats);
    });
}

/// Racks must stay invisible under `min_utility` gates on 4–6 racks,
/// where TOPO-AWARE-P postpones and the SLO gate narrows the selection
/// window ([`Scenario::gated`]).
#[test]
fn gated_racks_are_bit_identical_to_one_flat_fabric() {
    for_each_case(|kind, seed| {
        let scenario = Scenario::racked_minsky(seed, 4).gated();
        let stats = assert_racks_invisible(kind, seed, &scenario);
        assert_class_path_ran(kind, seed, &scenario, &stats);
    });
}

/// The decision memo must be bit-identical to full re-evaluation (the
/// sequential flat decision, which never memoises) on 4–6 racks,
/// including failure and jitter runs where memoised answers go stale
/// mid-queue; debug builds also shadow every answer from the memo with a
/// fresh class decision. The memo must answer somewhere in the matrix.
#[test]
fn decision_replay_is_bit_identical_to_full_reeval() {
    let mut replayed = 0;
    for_each_case(|kind, seed| {
        let scenario = Scenario::racked_minsky(seed, 4);
        let reference = |c: SimConfig| c.with_eval(EvalParams::sequential());
        let (stats, reference) = assert_matches_reference(kind, seed, &scenario, reference);
        assert_eq!(
            reference.replay_hits, 0,
            "{kind:?} seed {seed}: the reference memoised"
        );
        replayed += stats.replay_hits;
    });
    assert!(replayed > 0, "the memo never answered a job");
}

/// Every [`SimLoopStats`] counter must repeat exactly between two runs of
/// the same racked trace: the decision path runs on the caller's thread,
/// so the eval-cache, replay and `class_order_fallbacks` counters
/// are as deterministic as the results. Only the wall-clock meters
/// (`phase_*_ns`, `decision_p99_ns`) may differ. Runs use 8–10 racks and
/// script a machine failure and recovery.
#[test]
fn racked_run_counters_repeat_exactly() {
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
                let cluster = Arc::new(ClusterTopology::homogeneous_racked(machine, n_racks, 2));
                let trace = WorkloadGenerator::with_defaults(seed).generate(60);
                let config = SimConfig::new(Policy::new(kind))
                    .with_eval(EvalParams::parallel(4))
                    .with_phase_timing(true)
                    .with_machine_failures(vec![(30.0, MachineId(3))])
                    .with_machine_recoveries(vec![(300.0, MachineId(3))]);
                Simulation::new(cluster, profiles, config).run_with_stats(trace)
            };
            let (first_res, first) = run();
            let (second_res, second) = run();
            let ctx = format!("{kind:?} seed {seed} ({n_racks} racks)");
            assert_runs_identical(&ctx, &first_res, &second_res);
            assert!(
                first.eval_cache_misses > 0,
                "{ctx}: the class path never read the cache"
            );
            assert_eq!(counters(first), counters(second), "{ctx}: counters drifted");
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
