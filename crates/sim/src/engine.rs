//! The discrete-event loop.
//!
//! Events are job arrivals, job completions, and scripted machine
//! failures/recoveries; after every event batch the scheduler runs one
//! Algorithm 1 iteration ("the scheduler sleeps until a job has finished or
//! a time interval has expired" — with an analytic progress model the
//! interval wakeups are unnecessary, every state change is an event).
//! Running jobs progress at `1/(1+slowdown)`. A job's progress is an anchor
//! ([`RunningJob`]): slowdowns are re-derived after every placement or
//! completion, and a job whose slowdown's bits change is re-anchored at the
//! event and its completion time re-solved once. Nothing integrates
//! progress between events, so interference couples completion times
//! exactly as on the real machine, and an event leaves the completion time
//! of every job it does not couple to untouched.
//!
//! # Incremental event loop
//!
//! Production runs the incremental loop. `SimConfig::with_incremental(false)`
//! selects the reference loop, which together with
//! [`EvalParams::sequential`] forms the reference oracle. Both take the same
//! arithmetic: the same anchors, co-runner sums in job-id order
//! ([`current_slowdown`]), completion batches in `(time, job id)` order and
//! a fixed-point utility sum.
//!
//! * **Reference** — after every event, every running job's slowdown is
//!   re-derived against every other running job (O(J²) pairwise with a
//!   machine-set intersection per pair), and the next completion and the
//!   completion batch are found by scans over the running set.
//! * **Incremental** — interference couples jobs solely through shared
//!   machines, so an event can only change the slowdown of jobs holding
//!   GPUs on the machines it touched. The loop tracks a *dirty-machine set*
//!   fed by placements, completions and failures, and refreshes only the
//!   jobs on dirty machines. Completions come from a lazy min-heap of exact
//!   `(completion time, job id)` keys, pushed once per anchor; an entry is
//!   live while its job runs with that completion time. The sorted
//!   failure/recovery schedules pop through cursors.
//!
//! Bit-identity of production and the oracle across policies, seeds,
//! cluster shapes, failures, and jitter is enforced by the differential
//! runner in `tests/stack_properties.rs` at the workspace root and, in
//! debug builds, by a full O(J²) shadow check after every scoped refresh
//! and an equality check of the heap's next completion and completion batch
//! against the scans.

use crate::ideal::cluster_ideal_duration_s;
use crate::metrics::{JobRecord, SimEvent, SimResult, TimelineSegment, UtilitySample};
use crate::runtime::{current_slowdown, RunningJob};
use gts_job::{BatchClass, JobId, JobSpec, NnModel};
use gts_perf::ProfileLibrary;
use gts_sched::{
    CancelOutcome, ClusterState, EvalParams, PlacementOutcome, Policy, Scheduler, SchedulerConfig,
    TraceEvent,
};
use gts_topo::{ClusterTopology, MachineId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

/// A rejected [`SimConfig`] input, caught at construction time instead of
/// panicking deep inside the event loop.
#[derive(Debug, Clone, PartialEq)]
pub enum SimConfigError {
    /// A scripted failure/recovery schedule contains a NaN or infinite
    /// timestamp. The event loop orders schedules by time, so a non-finite
    /// entry has no well-defined position.
    NonFiniteTime {
        /// Which schedule the bad entry came from (`"failure"`/`"recovery"`).
        schedule: &'static str,
        /// Index of the offending entry in the caller's vector.
        index: usize,
        /// The rejected timestamp.
        time_s: f64,
    },
}

impl std::fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonFiniteTime {
                schedule,
                index,
                time_s,
            } => write!(
                f,
                "{schedule} schedule entry {index} has non-finite time {time_s}"
            ),
        }
    }
}

impl std::error::Error for SimConfigError {}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Placement policy under test.
    pub policy: Policy,
    /// Relative execution-time jitter (±fraction), emulating the run-to-run
    /// variance public clouds exhibit (\[24\], \[27\] in the paper's related
    /// work). Deterministic per `(jitter_seed, job id)`. 0 = exact model.
    pub jitter: f64,
    /// Seed for the jitter draw.
    pub jitter_seed: u64,
    /// Scripted machine failures: at each `(time_s, machine)` the machine
    /// goes offline, its running jobs lose their progress and return to the
    /// waiting queue to be restarted elsewhere.
    pub machine_failures: Vec<(f64, MachineId)>,
    /// Scripted machine recoveries: at each `(time_s, machine)` a failed
    /// machine rejoins the pool.
    pub machine_recoveries: Vec<(f64, MachineId)>,
    /// Record the scheduler's decision trace into `SimResult::trace` —
    /// per-candidate utility breakdowns for every placement decision. Off
    /// by default: tracing allocates per decision, so benches pay nothing.
    pub trace: bool,
    /// Candidate-evaluation engine parameters (defaults to
    /// [`EvalParams::from_env`]; `EvalParams::sequential()` selects the
    /// reference path).
    pub eval: EvalParams,
    /// Run the incremental event loop (machine-scoped slowdown refresh +
    /// completion heap; the default) instead of the O(J²)-per-event
    /// reference loop. Both produce bit-identical [`SimResult`]s.
    pub incremental: bool,
    /// Meter per-phase wall time (decision / refresh / heap / drain) into
    /// [`SimLoopStats`]. Off by default: the heap/refresh/drain phases
    /// need two `Instant` reads per event, which timed benches should not
    /// pay. Decision time is always available (the scheduler meters every
    /// decision regardless).
    pub phase_timing: bool,
}

impl SimConfig {
    /// Config with the given policy, no jitter, no failures.
    pub fn new(policy: Policy) -> Self {
        Self {
            policy,
            jitter: 0.0,
            jitter_seed: 0,
            machine_failures: Vec::new(),
            machine_recoveries: Vec::new(),
            trace: false,
            eval: EvalParams::from_env(),
            incremental: true,
            phase_timing: false,
        }
    }

    /// Turns decision-trace recording on.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Overrides the candidate-evaluation engine parameters.
    pub fn with_eval(mut self, eval: EvalParams) -> Self {
        self.eval = eval;
        self
    }

    /// Selects the incremental (`true`) or reference (`false`) event loop.
    pub fn with_incremental(mut self, incremental: bool) -> Self {
        self.incremental = incremental;
        self
    }

    /// Does nothing: the scheduler always owns its cross-event placement
    /// cache, and the sequential reference never reads it. Kept so that
    /// callers written against the old cache toggle still compile.
    pub fn with_eval_cache(self, _eval_cache: bool) -> Self {
        self
    }

    /// Rejects non-finite timestamps in a failure/recovery schedule. The
    /// event loop sorts and merges schedules by time, so a NaN or infinite
    /// entry has no meaningful position — catch it here, at construction,
    /// instead of panicking (or silently mis-sorting) mid-run.
    fn validate_schedule(
        schedule: &'static str,
        entries: &[(f64, MachineId)],
    ) -> Result<(), SimConfigError> {
        for (index, &(time_s, _)) in entries.iter().enumerate() {
            if !time_s.is_finite() {
                return Err(SimConfigError::NonFiniteTime {
                    schedule,
                    index,
                    time_s,
                });
            }
        }
        Ok(())
    }

    /// Schedules machine failures, rejecting non-finite timestamps.
    pub fn try_with_machine_failures(
        mut self,
        failures: Vec<(f64, MachineId)>,
    ) -> Result<Self, SimConfigError> {
        Self::validate_schedule("failure", &failures)?;
        self.machine_failures = failures;
        Ok(self)
    }

    /// Schedules machine recoveries, rejecting non-finite timestamps.
    pub fn try_with_machine_recoveries(
        mut self,
        recoveries: Vec<(f64, MachineId)>,
    ) -> Result<Self, SimConfigError> {
        Self::validate_schedule("recovery", &recoveries)?;
        self.machine_recoveries = recoveries;
        Ok(self)
    }

    /// Schedules machine failures.
    ///
    /// # Panics
    /// On non-finite timestamps; use
    /// [`try_with_machine_failures`](Self::try_with_machine_failures) to
    /// handle the error instead.
    pub fn with_machine_failures(self, failures: Vec<(f64, MachineId)>) -> Self {
        self.try_with_machine_failures(failures)
            .expect("failure schedule must use finite times")
    }

    /// Schedules machine recoveries.
    ///
    /// # Panics
    /// On non-finite timestamps; use
    /// [`try_with_machine_recoveries`](Self::try_with_machine_recoveries)
    /// to handle the error instead.
    pub fn with_machine_recoveries(self, recoveries: Vec<(f64, MachineId)>) -> Self {
        self.try_with_machine_recoveries(recoveries)
            .expect("recovery schedule must use finite times")
    }

    /// Enables the per-phase wall-time breakdown in [`SimLoopStats`].
    pub fn with_phase_timing(mut self, on: bool) -> Self {
        self.phase_timing = on;
        self
    }

    /// Enables execution-time jitter.
    pub fn with_jitter(mut self, jitter: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&jitter), "jitter must lie in [0, 1)");
        self.jitter = jitter;
        self.jitter_seed = seed;
        self
    }
}

/// Deterministic per-job jitter factor in `[1-jitter, 1+jitter)`, from a
/// splitmix64 hash of `(seed, job id)` — no RNG state to thread through the
/// event loop.
fn jitter_factor(seed: u64, job: u64, jitter: f64) -> f64 {
    if jitter == 0.0 {
        return 1.0;
    }
    let mut z = seed ^ job.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    1.0 + jitter * (2.0 * unit - 1.0)
}

/// Event-loop instrumentation: how much slowdown-derivation work the run
/// actually did. The scoped-refresh unit tests assert on these counters to
/// prove jobs on untouched machines are *not* recomputed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimLoopStats {
    /// Total `current_slowdown` derivations across the run.
    pub slowdown_evals: u64,
    /// Per-job `current_slowdown` derivation counts, every placement of
    /// the job included. A job's count joins the map when it leaves the
    /// running set (completion or failure), so it is complete once the run
    /// returns.
    pub evals_by_job: HashMap<JobId, u64>,
    /// Placement-cache lookups answered without running the DRB mapping
    /// (one lookup per machine equivalence class per arrival). 0 on the
    /// sequential reference, which never reads the cache.
    pub eval_cache_hits: u64,
    /// Placement-cache lookups that ran the full evaluation.
    pub eval_cache_misses: u64,
    /// Placement-cache entries displaced by LRU capacity pressure.
    pub eval_cache_evictions: u64,
    /// Always 0: the sharded path that counted admission passes is retired
    /// (DESIGN.md §10). Kept so that callers reading it keep compiling.
    pub shard_admission_checked: u64,
    /// Always 0, like [`SimLoopStats::shard_admission_checked`].
    pub shard_admission_skipped: u64,
    /// Always 0: the shard bound is retired (DESIGN.md §11). Kept so that
    /// callers reading it keep compiling.
    pub shard_bound_checked: u64,
    /// Always 0, like [`SimLoopStats::shard_bound_checked`].
    pub shard_bound_pruned: u64,
    /// Jobs answered from the scheduler's decision memo instead of a
    /// decision: an earlier job with the same replay key was left unplaced
    /// on the same state version (DESIGN.md §14.2). The decision meters do
    /// not count them. 0 on traced runs and on the sequential reference.
    pub replay_hits: u64,
    /// Always 0: partial replay is retired (DESIGN.md §12). Kept so that
    /// callers reading it keep compiling.
    pub replay_shards_reeval: u64,
    /// Always 0: the per-job-class decision snapshots whose unusable
    /// entries it counted are retired (DESIGN.md §15.7). Kept so that
    /// callers reading it keep compiling.
    pub replay_full_fallbacks: u64,
    /// TOPO-AWARE(-P) decisions whose class-level selection could not
    /// prove that scanning each surviving machine class once matches the
    /// reference member scan, and ran the ordered member scan instead
    /// (DESIGN.md §15.3). 0 on the sequential reference.
    pub class_order_fallbacks: u64,
    /// Placement decisions made (`decide` calls; answers from the decision
    /// memo are not decisions).
    pub decisions: u64,
    /// Wall nanoseconds spent inside placement decisions (always metered;
    /// answers from the memo are not decisions, so their time is drain
    /// time).
    pub phase_decision_ns: u64,
    /// 99th-percentile placement-decision latency, nanoseconds (always
    /// metered) — the retry tail a mean hides once most replays are O(1).
    pub decision_p99_ns: u64,
    /// Wall nanoseconds re-deriving slowdowns after event batches. 0
    /// unless [`SimConfig::phase_timing`] is on.
    pub phase_refresh_ns: u64,
    /// Wall nanoseconds in completion-heap maintenance (next-completion
    /// queries + completion processing). 0 unless phase timing is on.
    pub phase_heap_ns: u64,
    /// Wall nanoseconds inside `run_scheduler` queue drains (includes
    /// `phase_decision_ns`). 0 unless phase timing is on.
    pub phase_drain_ns: u64,
}

impl SimLoopStats {
    /// Derivation count for one job (0 if it never ran).
    pub fn evals_for(&self, id: JobId) -> u64 {
        self.evals_by_job.get(&id).copied().unwrap_or(0)
    }
}

/// A trace-driven simulation run.
pub struct Simulation {
    cluster: Arc<ClusterTopology>,
    scheduler: Scheduler,
    config: SimConfig,
    now: f64,
    pending: VecDeque<JobSpec>,
    running: Vec<RunningJob>,
    /// Position of each running job in `running` — kept exact across
    /// `push`/`swap_remove` so event processing never scans for a job.
    job_pos: HashMap<JobId, usize>,
    /// Sum of the running jobs' utilities in units of 2⁻³² — an integer, so
    /// the utility sample is exact whatever order jobs come and go in.
    utility_sum: u64,
    /// Machines touched since the last refresh (mask + list, so marking is
    /// O(1) and clearing is O(|dirty|)). Only fed in incremental mode.
    dirty_mask: Vec<bool>,
    dirty_list: Vec<MachineId>,
    /// Lazy min-heap of completion times: `(completion-time bits, job id)`,
    /// one entry pushed per anchor in incremental mode. Non-negative finite
    /// f64 bits order identically to the values, and the job id breaks
    /// exact ties. An entry is live while its job runs with exactly that
    /// completion time; a re-anchor or a departure leaves it stale, to be
    /// dropped when it reaches the top.
    completion_heap: BinaryHeap<Reverse<(u64, JobId)>>,
    /// Cursors into the sorted failure/recovery schedules — O(1) pops
    /// instead of `Vec::remove(0)`.
    failure_cursor: usize,
    recovery_cursor: usize,
    records: Vec<JobRecord>,
    unplaceable: Vec<JobSpec>,
    timeline: Vec<TimelineSegment>,
    utility_series: Vec<UtilitySample>,
    pending_failures: Vec<(f64, MachineId)>,
    pending_recoveries: Vec<(f64, MachineId)>,
    restarts: HashMap<JobId, u32>,
    failures_applied: Vec<(f64, MachineId)>,
    events: Vec<SimEvent>,
    /// The outcome buffer every drain clears and refills, so that no drain
    /// grows a vector from empty.
    outcomes: Vec<PlacementOutcome>,
    stats: SimLoopStats,
    /// Largest single-machine GPU count, precomputed so the admission
    /// pre-pass is O(1) per job instead of a cluster scan.
    max_machine_gpus: usize,
    /// `ideal_for` is a pure function of the spec shape (the machine set is
    /// fixed per run), so completed-job records memoize it instead of
    /// brute-forcing every machine per completion.
    ideal_cache: HashMap<(NnModel, BatchClass, u32, u32), f64>,
    /// Jobs with an explicit communication graph can't use `ideal_cache`
    /// directly (the graph is part of the cost), but generated workloads
    /// draw graphs from a tiny family, so a per-key list of seen
    /// `(graph, ideal)` pairs resolves almost every completion with one
    /// cheap structural compare.
    ideal_graph_cache: HashMap<IdealKey, Vec<(gts_job::JobGraph, f64)>>,
}

/// Spec-shape key for the `ideal_for` memo tables: model, batch class,
/// GPU count, and per-GPU memory demand.
type IdealKey = (NnModel, BatchClass, u32, u32);

impl Simulation {
    /// Builds a simulation over `cluster` with profile library `profiles`.
    pub fn new(
        cluster: Arc<ClusterTopology>,
        profiles: Arc<ProfileLibrary>,
        config: SimConfig,
    ) -> Self {
        let state = ClusterState::new(Arc::clone(&cluster), profiles);
        let mut scheduler = Scheduler::new(
            state,
            SchedulerConfig {
                policy: config.policy,
                eval: config.eval,
            },
        );
        scheduler.set_tracing(config.trace);
        // Schedule times are validated finite at config construction;
        // `total_cmp` keeps the sort a total order even for a config built
        // by hand with literal NaNs (which then fail loudly in the loop's
        // time comparisons rather than corrupting the sort).
        let mut pending_failures = config.machine_failures.clone();
        pending_failures.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut pending_recoveries = config.machine_recoveries.clone();
        pending_recoveries.sort_by(|a, b| a.0.total_cmp(&b.0));
        let n_machines = cluster.n_machines();
        let max_machine_gpus = cluster
            .machines()
            .map(|m| cluster.machine(m).n_gpus())
            .max()
            .unwrap_or(0);
        Self {
            cluster,
            scheduler,
            config,
            now: 0.0,
            pending: VecDeque::new(),
            running: Vec::new(),
            job_pos: HashMap::new(),
            utility_sum: 0,
            dirty_mask: vec![false; n_machines],
            dirty_list: Vec::new(),
            completion_heap: BinaryHeap::new(),
            failure_cursor: 0,
            recovery_cursor: 0,
            records: Vec::new(),
            unplaceable: Vec::new(),
            timeline: Vec::new(),
            utility_series: Vec::new(),
            pending_failures,
            pending_recoveries,
            restarts: HashMap::new(),
            failures_applied: Vec::new(),
            events: Vec::new(),
            outcomes: Vec::new(),
            stats: SimLoopStats::default(),
            max_machine_gpus,
            ideal_cache: HashMap::new(),
            ideal_graph_cache: HashMap::new(),
        }
    }

    /// Runs a whole trace to completion and returns the result.
    pub fn run(self, trace: Vec<JobSpec>) -> SimResult {
        self.run_with_stats(trace).0
    }

    /// Runs a whole trace to completion, also returning the event-loop
    /// instrumentation counters (see [`SimLoopStats`]).
    pub fn run_with_stats(mut self, mut trace: Vec<JobSpec>) -> (SimResult, SimLoopStats) {
        trace.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s).then(a.id.cmp(&b.id)));
        // Reject jobs that can never fit anywhere up front.
        for job in trace {
            if self.fits_somewhere(&job) {
                self.pending.push_back(job);
            } else {
                self.unplaceable.push(job);
            }
        }

        let phase_timing = self.config.phase_timing;
        loop {
            let next_arrival = self.pending.front().map(|j| j.arrival_s);
            let t0 = phase_timing.then(std::time::Instant::now);
            let next_completion = self.next_completion();
            if let Some(t0) = t0 {
                self.stats.phase_heap_ns += t0.elapsed().as_nanos() as u64;
            }
            let next_failure = self
                .pending_failures
                .get(self.failure_cursor)
                .map(|&(t, _)| t);
            let next_recovery = self
                .pending_recoveries
                .get(self.recovery_cursor)
                .map(|&(t, _)| t);

            let timed = [next_arrival, next_completion, next_failure, next_recovery]
                .into_iter()
                .flatten()
                .min_by(|a, b| a.partial_cmp(b).expect("finite"));
            let t = match timed {
                Some(t) => t,
                None => {
                    // No more timed events. Give the scheduler one more
                    // chance (the cluster is idle, so anything placeable
                    // places now); whatever still sticks at the head of the
                    // queue can never run.
                    self.run_scheduler();
                    if !self.running.is_empty() {
                        self.refresh_slowdowns();
                        continue;
                    }
                    match self.scheduler.drop_head() {
                        Some(stuck) => {
                            self.unplaceable.push(stuck);
                            continue;
                        }
                        None => break,
                    }
                }
            };

            self.now = t;
            self.scheduler.set_now(t);

            let t0 = phase_timing.then(std::time::Instant::now);
            self.process_completions();
            if let Some(t0) = t0 {
                self.stats.phase_heap_ns += t0.elapsed().as_nanos() as u64;
            }
            self.process_failures();
            self.process_recoveries();
            self.process_arrivals();
            let t0 = phase_timing.then(std::time::Instant::now);
            self.run_scheduler();
            if let Some(t0) = t0 {
                self.stats.phase_drain_ns += t0.elapsed().as_nanos() as u64;
            }
            let t0 = phase_timing.then(std::time::Instant::now);
            self.refresh_slowdowns();
            if let Some(t0) = t0 {
                self.stats.phase_refresh_ns += t0.elapsed().as_nanos() as u64;
            }
            self.sample_utility();

            if self.pending.is_empty()
                && self.running.is_empty()
                && self.scheduler.queue().is_empty()
            {
                break;
            }
        }

        let makespan_s = self
            .records
            .iter()
            .map(|r| r.finished_at_s)
            .fold(0.0, f64::max);
        let mut trace = self.scheduler.take_trace();
        let cache = self.scheduler.eval_cache_stats();
        self.stats.eval_cache_hits = cache.hits;
        self.stats.eval_cache_misses = cache.misses;
        self.stats.eval_cache_evictions = cache.evictions;
        if self.config.trace {
            trace.push(TraceEvent::EvalCacheStats {
                t_s: self.now,
                hits: cache.hits,
                misses: cache.misses,
                evictions: cache.evictions,
            });
        }
        self.stats.replay_hits = self.scheduler.replay_hits();
        self.stats.class_order_fallbacks = self.scheduler.state().classes().fallbacks();
        self.stats.decisions = self.scheduler.decision_stats().count() as u64;
        self.stats.phase_decision_ns = self.scheduler.decision_stats().total().as_nanos() as u64;
        self.stats.decision_p99_ns = self.scheduler.decision_stats().p99().as_nanos() as u64;
        let stats = std::mem::take(&mut self.stats);
        let result = SimResult {
            policy: self.config.policy.kind,
            makespan_s,
            slo_violations: self.scheduler.slo_violations(),
            mean_decision_s: self.scheduler.decision_stats().mean_s(),
            records: self.records,
            unplaceable: self.unplaceable,
            timeline: self.timeline,
            utility_series: self.utility_series,
            failures: self.failures_applied,
            events: self.events,
            trace,
        };
        (result, stats)
    }

    /// Marks a machine as touched by the current event batch.
    fn mark_dirty(&mut self, machine: MachineId) {
        if !self.config.incremental {
            return;
        }
        let i = machine.index();
        if !self.dirty_mask[i] {
            self.dirty_mask[i] = true;
            self.dirty_list.push(machine);
        }
    }

    /// Appends to `running`, keeping the position index and the utility
    /// sum exact; the incremental loop also keys the job's first anchor.
    fn push_running(&mut self, job: RunningJob) {
        let id = job.alloc.spec.id;
        self.job_pos.insert(id, self.running.len());
        self.utility_sum += utility_units(job.alloc.utility);
        if self.config.incremental {
            self.completion_heap
                .push(Reverse((job.completion_s().to_bits(), id)));
        }
        self.running.push(job);
    }

    /// `swap_remove` from `running`, keeping the position index and the
    /// utility sum exact, and folding the job's slowdown-derivation count
    /// into the stats. The removed job's heap entries go stale with it.
    /// The relocated tail job changes only its position: co-runners sum in
    /// job-id order, so no slowdown depends on the vector order.
    fn remove_running(&mut self, idx: usize) -> RunningJob {
        let job = self.running.swap_remove(idx);
        self.job_pos.remove(&job.alloc.spec.id);
        if job.slowdown_evals > 0 {
            *self
                .stats
                .evals_by_job
                .entry(job.alloc.spec.id)
                .or_insert(0) += job.slowdown_evals;
        }
        self.utility_sum -= utility_units(job.alloc.utility);
        if let Some(moved) = self.running.get(idx) {
            self.job_pos.insert(moved.alloc.spec.id, idx);
        }
        debug_assert_eq!(self.job_pos.len(), self.running.len());
        job
    }

    /// True while the heap entry `(bits, id)` is the running job's current
    /// completion time.
    fn is_live(&self, bits: u64, id: JobId) -> bool {
        self.job_pos
            .get(&id)
            .is_some_and(|&pos| self.running[pos].completion_s().to_bits() == bits)
    }

    /// Earliest completion time across the running set, or `None` if
    /// nothing runs. The reference mode scans; the incremental mode drops
    /// stale heads and reads the heap top, which debug builds check against
    /// the scan.
    fn next_completion(&mut self) -> Option<f64> {
        if !self.config.incremental {
            return self.scan_next_completion();
        }
        while let Some(&Reverse((bits, id))) = self.completion_heap.peek() {
            if self.is_live(bits, id) {
                debug_assert_eq!(
                    self.scan_next_completion().map(f64::to_bits),
                    Some(bits),
                    "completion heap diverged from the scan"
                );
                return Some(f64::from_bits(bits));
            }
            self.completion_heap.pop();
        }
        debug_assert!(
            self.running.is_empty(),
            "a running job has no live heap entry"
        );
        None
    }

    fn scan_next_completion(&self) -> Option<f64> {
        self.running
            .iter()
            .map(|r| r.completion_s())
            .min_by(f64::total_cmp)
    }

    /// Applies every failure scheduled at or before `now`: the machine's
    /// running jobs are torn down and resubmitted (losing their progress),
    /// then the machine goes dark.
    fn process_failures(&mut self) {
        while let Some(&(t, machine)) = self.pending_failures.get(self.failure_cursor) {
            if t > self.now + 1e-9 {
                break;
            }
            self.failure_cursor += 1;
            if self.scheduler.state().is_machine_down(machine) {
                continue;
            }
            // Tear down every running job touching the machine, in
            // running-vector order (both loops push and remove in the same
            // order, so they share it). The per-machine index hands us the
            // victims directly.
            let mut victims: Vec<JobId> = self.scheduler.state().jobs_on_machine(machine).to_vec();
            victims.sort_unstable_by_key(|id| self.job_pos[id]);
            for &id in &victims {
                let idx = self.job_pos[&id];
                let lost = self.remove_running(idx);
                match self.scheduler.cancel(id) {
                    CancelOutcome::Stopped(alloc) => {
                        // A multi-node victim's other machines lose a
                        // co-runner too.
                        for m in alloc.machines() {
                            self.mark_dirty(m);
                        }
                        // Interrupted segment still shows in the timeline.
                        self.timeline.push(TimelineSegment {
                            job: id,
                            gpus: alloc.gpus,
                            start_s: lost.started_at,
                            end_s: self.now,
                        });
                    }
                    other => panic!("cancel of running {id} returned {other:?}"),
                }
                *self.restarts.entry(id).or_insert(0) += 1;
                // Resubmit from scratch; arrival time stays the original so
                // queue fairness is preserved. `lost` is consumed here, so
                // the spec moves instead of cloning.
                self.scheduler.submit(lost.alloc.spec);
            }
            self.scheduler.fail_machine(machine);
            self.failures_applied.push((self.now, machine));
            victims.sort_unstable();
            self.events.push(SimEvent::MachineFailed {
                t_s: self.now,
                machine,
                interrupted: victims,
            });
        }
    }

    fn fits_somewhere(&self, job: &JobSpec) -> bool {
        if job.constraints.anti_collocate && job.n_gpus > 1 {
            return (job.n_gpus as usize) <= self.cluster.n_machines();
        }
        if !job.constraints.single_node {
            // Multi-node-capable jobs can spill across the whole cluster.
            return (job.n_gpus as usize) <= self.cluster.n_gpus();
        }
        (job.n_gpus as usize) <= self.max_machine_gpus
    }

    /// Completes every job whose completion time is at or before `now`, in
    /// `(time, job id)` order.
    fn process_completions(&mut self) {
        for id in self.completion_batch() {
            self.complete(id);
        }
    }

    /// The jobs due at `now`, in `(time, job id)` order. The reference mode
    /// scans; the incremental mode pops the heap up to `now`, which debug
    /// builds check against the scan. A job re-anchored back to an earlier
    /// completion time holds two equal entries; they pop together and the
    /// id is claimed once.
    fn completion_batch(&mut self) -> Vec<JobId> {
        if !self.config.incremental {
            return self.scan_completion_batch();
        }
        let mut batch: Vec<JobId> = Vec::new();
        while let Some(&Reverse((bits, id))) = self.completion_heap.peek() {
            if f64::from_bits(bits) > self.now {
                break;
            }
            self.completion_heap.pop();
            if self.is_live(bits, id) && batch.last() != Some(&id) {
                batch.push(id);
            }
        }
        debug_assert_eq!(
            batch,
            self.scan_completion_batch(),
            "completion heap diverged from the scan"
        );
        batch
    }

    fn scan_completion_batch(&self) -> Vec<JobId> {
        let mut due: Vec<(f64, JobId)> = self
            .running
            .iter()
            .filter(|r| r.completion_s() <= self.now)
            .map(|r| (r.completion_s(), r.alloc.spec.id))
            .collect();
        due.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        due.into_iter().map(|(_, id)| id).collect()
    }

    /// Completes a running job: releases it from the scheduler and appends
    /// its timeline/event/record entries.
    fn complete(&mut self, id: JobId) {
        let done = self.remove_running(self.job_pos[&id]);
        for m in done.alloc.machines() {
            self.mark_dirty(m);
        }
        let alloc = self.scheduler.complete(done.alloc.spec.id);
        debug_assert_eq!(alloc.gpus, done.alloc.gpus);
        let ideal = self.ideal_for(&done.alloc.spec);
        self.timeline.push(TimelineSegment {
            job: done.alloc.spec.id,
            gpus: done.alloc.gpus.clone(),
            start_s: done.started_at,
            end_s: self.now,
        });
        self.events.push(SimEvent::Completed {
            t_s: self.now,
            job: done.alloc.spec.id,
        });
        self.records.push(JobRecord {
            placed_at_s: done.started_at,
            finished_at_s: self.now,
            gpus: done.alloc.gpus,
            utility: done.alloc.utility,
            slo_violated: done.alloc.utility + 1e-9 < done.alloc.spec.min_utility,
            ideal_duration_s: ideal,
            postponements: self.scheduler.postpone_count(done.alloc.spec.id),
            restarts: self.restarts.get(&done.alloc.spec.id).copied().unwrap_or(0),
            spec: done.alloc.spec,
        });
    }

    /// Brings scheduled machines back online. A recovered machine is empty,
    /// so no running job's slowdown can change — nothing to mark dirty.
    fn process_recoveries(&mut self) {
        while let Some(&(t, machine)) = self.pending_recoveries.get(self.recovery_cursor) {
            if t > self.now + 1e-9 {
                break;
            }
            self.recovery_cursor += 1;
            if self.scheduler.state().is_machine_down(machine) {
                self.scheduler.recover_machine(machine);
            }
        }
    }

    fn process_arrivals(&mut self) {
        while let Some(job) = self.pending.front() {
            if job.arrival_s <= self.now + 1e-9 {
                let job = self.pending.pop_front().expect("front checked");
                self.events.push(SimEvent::Arrived {
                    t_s: self.now,
                    job: job.id,
                });
                self.scheduler.submit(job);
            } else {
                break;
            }
        }
    }

    /// Runs one Algorithm 1 iteration into the simulation's outcome buffer,
    /// reused across drains, and consumes its outcomes: a postponement
    /// becomes an event, and a placed job's running entry is built from a
    /// clone of its allocation in the scheduler's state, one spec and one
    /// GPU list per placement.
    fn run_scheduler(&mut self) {
        let mut outcomes = std::mem::take(&mut self.outcomes);
        self.scheduler.run_iteration_into(&mut outcomes);
        for &outcome in &outcomes {
            match outcome {
                PlacementOutcome::PostponedLowUtility { id, .. } => {
                    self.events.push(SimEvent::Postponed {
                        t_s: self.now,
                        job: id,
                    });
                }
                PlacementOutcome::Placed { id, utility, .. } => {
                    self.events.push(SimEvent::Placed {
                        t_s: self.now,
                        job: id,
                        utility,
                    });
                    let alloc = self
                        .scheduler
                        .state()
                        .allocation(id)
                        .expect("a placed job runs")
                        .clone();
                    let (seed, jitter) = (self.config.jitter_seed, self.config.jitter);
                    let work = jitter_factor(seed, id.0, jitter);
                    let job = RunningJob::start(alloc, &self.cluster, self.now, work);
                    for m in job.alloc.machines() {
                        self.mark_dirty(m);
                    }
                    self.push_running(job);
                }
                PlacementOutcome::WaitingForCapacity { .. } => {}
            }
        }
        self.outcomes = outcomes;
    }

    /// Re-derives slowdowns and re-anchors every job whose slowdown's bits
    /// changed. The reference loop refreshes every running job against the
    /// whole running set; the incremental loop only the jobs holding GPUs
    /// on dirty machines, against their machines' jobs.
    ///
    /// **Why the scoped refresh is exact** — a job's slowdown is
    /// `total_slowdown(victim, corunners)` where the co-runner list holds
    /// `(model, batch, max_domain_factor)` for every *other* running job
    /// sharing at least one machine, in job-id order. For a job with no GPU
    /// on a dirty machine, no allocation on any of its machines was created,
    /// destroyed, or resized (every such change marks the machine dirty),
    /// so its co-runner set, every shared-domain factor and their id order
    /// are unchanged. The reference recomputation would reproduce the
    /// stored bits, and leave the anchor alone. Debug builds verify this
    /// with a full O(J²) shadow recompute after every scoped refresh.
    fn refresh_slowdowns(&mut self) {
        let incremental = self.config.incremental;
        let victims: Vec<usize> = if incremental {
            let mut victims: Vec<usize> = Vec::new();
            for &m in &self.dirty_list {
                self.dirty_mask[m.index()] = false;
                for id in self.scheduler.state().jobs_on_machine(m) {
                    victims.push(self.job_pos[id]);
                }
            }
            self.dirty_list.clear();
            victims.sort_unstable();
            victims.dedup();
            victims
        } else {
            (0..self.running.len()).collect()
        };
        let state = self.scheduler.state();
        let updates: Vec<f64> = victims
            .iter()
            .map(|&pos| {
                let victim = &self.running[pos].alloc;
                if incremental {
                    let sharers = victim
                        .machines()
                        .into_iter()
                        .flat_map(|m| state.jobs_on_machine(m))
                        .map(|id| &self.running[self.job_pos[id]].alloc);
                    current_slowdown(victim, sharers, &self.cluster)
                } else {
                    current_slowdown(victim, self.running.iter().map(|r| &r.alloc), &self.cluster)
                }
            })
            .collect();
        for (pos, slowdown) in victims.into_iter().zip(updates) {
            let job = &mut self.running[pos];
            let id = job.alloc.spec.id;
            if job.set_slowdown(self.now, slowdown) && incremental {
                self.completion_heap
                    .push(Reverse((job.completion_s().to_bits(), id)));
            }
            job.slowdown_evals += 1;
            self.stats.slowdown_evals += 1;
        }
        #[cfg(debug_assertions)]
        if incremental {
            self.debug_verify_slowdowns();
        }
    }

    /// Debug shadow check: the scoped refresh must leave every running
    /// job's slowdown bit-identical to a full reference recomputation.
    #[cfg(debug_assertions)]
    fn debug_verify_slowdowns(&self) {
        for r in &self.running {
            let want = current_slowdown(
                &r.alloc,
                self.running.iter().map(|o| &o.alloc),
                &self.cluster,
            );
            assert_eq!(
                want.to_bits(),
                r.slowdown().to_bits(),
                "scoped refresh diverged for {}: want {want}, have {}",
                r.alloc.spec.id,
                r.slowdown()
            );
        }
    }

    /// Records the running jobs' mean utility (1 when nothing runs), read
    /// off the fixed-point sum.
    fn sample_utility(&mut self) {
        let mean = if self.running.is_empty() {
            1.0
        } else {
            self.utility_sum as f64 / UTILITY_UNIT / self.running.len() as f64
        };
        self.utility_series.push(UtilitySample {
            t_s: self.now,
            mean_utility: mean,
        });
    }

    /// [`cluster_ideal_duration_s`], memoised: it depends only on the spec
    /// shape and the (fixed) machine set. Graph-free jobs key directly on
    /// the shape tuple; jobs with an explicit communication graph are costed
    /// per edge, so they key on the tuple plus a structural compare of the
    /// graph against previously seen ones (generated workloads draw graphs
    /// from a tiny family, so the list stays short).
    fn ideal_for(&mut self, spec: &JobSpec) -> f64 {
        let key = (spec.model, spec.batch, spec.n_gpus, spec.iterations);
        match &spec.comm_graph {
            None => {
                if let Some(&v) = self.ideal_cache.get(&key) {
                    return v;
                }
            }
            Some(g) => {
                if let Some(seen) = self.ideal_graph_cache.get(&key) {
                    if let Some((_, v)) = seen.iter().find(|(sg, _)| sg == g) {
                        return *v;
                    }
                }
            }
        }
        let v = cluster_ideal_duration_s(spec, &self.cluster);
        match &spec.comm_graph {
            None => {
                self.ideal_cache.insert(key, v);
            }
            Some(g) => {
                self.ideal_graph_cache
                    .entry(key)
                    .or_default()
                    .push((g.clone(), v));
            }
        }
        v
    }
}

/// One unit of utility in the fixed-point sum: 2³² units.
const UTILITY_UNIT: f64 = (1u64 << 32) as f64;

/// A utility in `[0, 1]` as fixed-point units.
fn utility_units(utility: f64) -> u64 {
    (utility * UTILITY_UNIT).round() as u64
}

/// Convenience: run one trace under one policy on a homogeneous cluster.
///
/// ```
/// use gts_sim::engine::simulate;
/// use gts_sched::{Policy, PolicyKind};
/// use gts_perf::ProfileLibrary;
/// use gts_topo::{power8_minsky, ClusterTopology};
/// use gts_job::{BatchClass, JobSpec, NnModel};
/// use std::sync::Arc;
///
/// let machine = power8_minsky();
/// let profiles = Arc::new(ProfileLibrary::generate(&machine, 42));
/// let cluster = Arc::new(ClusterTopology::homogeneous(machine, 1));
/// let job = JobSpec::new(0, NnModel::AlexNet, BatchClass::Tiny, 2).with_iterations(10);
/// let result = simulate(cluster, profiles, Policy::new(PolicyKind::TopoAwareP), vec![job]);
/// assert_eq!(result.records.len(), 1);
/// assert_eq!(result.slo_violations, 0);
/// ```
pub fn simulate(
    cluster: Arc<ClusterTopology>,
    profiles: Arc<ProfileLibrary>,
    policy: Policy,
    trace: Vec<JobSpec>,
) -> SimResult {
    Simulation::new(cluster, profiles, SimConfig::new(policy)).run(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_job::{BatchClass, NnModel};
    use gts_sched::PolicyKind;
    use gts_topo::power8_minsky;

    fn setup(n_machines: usize) -> (Arc<ClusterTopology>, Arc<ProfileLibrary>) {
        let machine = power8_minsky();
        let profiles = Arc::new(ProfileLibrary::generate(&machine, 1));
        let cluster = Arc::new(ClusterTopology::homogeneous(machine, n_machines));
        (cluster, profiles)
    }

    fn job(id: u64, gpus: u32, batch: BatchClass, arrival: f64, iters: u32) -> JobSpec {
        JobSpec::new(id, NnModel::AlexNet, batch, gpus)
            .arriving_at(arrival)
            .with_iterations(iters)
            .with_min_utility(if gpus > 1 { 0.5 } else { 0.3 })
    }

    #[test]
    fn single_job_runs_at_ideal_speed() {
        let (c, p) = setup(1);
        let trace = vec![job(0, 2, BatchClass::Tiny, 0.0, 100)];
        let res = simulate(c, p, Policy::new(PolicyKind::TopoAware), trace);
        assert_eq!(res.records.len(), 1);
        let r = &res.records[0];
        assert!(r.qos_slowdown() < 1e-9, "got {}", r.qos_slowdown());
        assert_eq!(r.waiting_s(), 0.0);
        assert_eq!(res.slo_violations, 0);
        assert!(res.makespan_s > 0.0);
    }

    #[test]
    fn two_collocated_tiny_jobs_suffer_the_fig6_slowdown() {
        let (c, p) = setup(1);
        // Two 2-GPU tiny jobs on one machine: each packs a socket, they
        // interfere at the machine level (0.35 × 30 %).
        let trace = vec![
            job(0, 2, BatchClass::Tiny, 0.0, 400),
            job(1, 2, BatchClass::Tiny, 0.0, 400),
        ];
        let res = simulate(c, p, Policy::new(PolicyKind::TopoAware), trace);
        assert_eq!(res.records.len(), 2);
        for r in &res.records {
            let s = r.qos_slowdown();
            assert!((s - 0.105).abs() < 0.02, "expected ≈10.5 %, got {s}");
        }
    }

    #[test]
    fn sequential_jobs_do_not_interfere() {
        let (c, p) = setup(1);
        let trace = vec![
            job(0, 4, BatchClass::Tiny, 0.0, 50),
            job(1, 4, BatchClass::Tiny, 1e6, 50),
        ];
        let res = simulate(c, p, Policy::new(PolicyKind::TopoAware), trace);
        for r in &res.records {
            assert!(r.qos_slowdown() < 1e-9);
        }
    }

    #[test]
    fn queued_job_waits_for_capacity() {
        let (c, p) = setup(1);
        let trace = vec![
            job(0, 4, BatchClass::Big, 0.0, 20),
            job(1, 4, BatchClass::Big, 1.0, 20),
        ];
        let res = simulate(c, p, Policy::new(PolicyKind::Fcfs), trace);
        let r0 = res.record(gts_job::JobId(0)).unwrap();
        let r1 = res.record(gts_job::JobId(1)).unwrap();
        assert_eq!(r0.waiting_s(), 0.0);
        assert!(r1.waiting_s() > 0.0);
        assert!((r1.placed_at_s - r0.finished_at_s).abs() < 1e-6);
    }

    #[test]
    fn oversized_jobs_are_reported_unplaceable() {
        let (c, p) = setup(2);
        let trace = vec![
            job(0, 8, BatchClass::Tiny, 0.0, 10), // no machine has 8 GPUs
            job(1, 1, BatchClass::Tiny, 0.0, 10),
        ];
        let res = simulate(c, p, Policy::new(PolicyKind::TopoAware), trace);
        assert_eq!(res.unplaceable.len(), 1);
        assert_eq!(res.unplaceable[0].id, gts_job::JobId(0));
        assert_eq!(res.records.len(), 1);
    }

    #[test]
    fn timeline_matches_records() {
        let (c, p) = setup(1);
        let trace = vec![
            job(0, 2, BatchClass::Small, 0.0, 100),
            job(1, 2, BatchClass::Small, 5.0, 100),
        ];
        let res = simulate(c, p, Policy::new(PolicyKind::TopoAware), trace);
        assert_eq!(res.timeline.len(), 2);
        for seg in &res.timeline {
            let r = res.record(seg.job).unwrap();
            assert_eq!(seg.start_s, r.placed_at_s);
            assert_eq!(seg.end_s, r.finished_at_s);
            assert_eq!(seg.gpus, r.gpus);
        }
    }

    #[test]
    fn utility_series_is_time_ordered() {
        let (c, p) = setup(1);
        let trace: Vec<JobSpec> = (0..6)
            .map(|i| {
                job(
                    i,
                    1 + (i % 2) as u32,
                    BatchClass::Small,
                    i as f64 * 3.0,
                    100,
                )
            })
            .collect();
        let res = simulate(c, p, Policy::new(PolicyKind::TopoAwareP), trace);
        for w in res.utility_series.windows(2) {
            assert!(w[0].t_s <= w[1].t_s + 1e-9);
        }
        assert!(!res.utility_series.is_empty());
        for s in &res.utility_series {
            assert!((0.0..=1.0 + 1e-9).contains(&s.mean_utility));
        }
    }

    #[test]
    fn topo_aware_p_beats_fcfs_on_the_fragmentation_trap() {
        // The Fig. 8 situation in miniature: two 1-GPU jobs land on
        // different sockets; a 2-GPU tiny job arrives while they run. FCFS
        // spreads it across sockets; TOPO-AWARE-P waits for a free pair.
        let (c, p) = setup(1);
        let trace = vec![
            job(0, 1, BatchClass::Tiny, 0.0, 1200),
            job(1, 1, BatchClass::Tiny, 1.0, 2400),
            job(2, 2, BatchClass::Tiny, 2.0, 800),
        ];
        let fcfs = simulate(
            Arc::clone(&c),
            Arc::clone(&p),
            Policy::new(PolicyKind::Fcfs),
            trace.clone(),
        );
        let tap = simulate(c, p, Policy::new(PolicyKind::TopoAwareP), trace);

        let fcfs_j2 = fcfs.record(gts_job::JobId(2)).unwrap();
        let tap_j2 = tap.record(gts_job::JobId(2)).unwrap();
        // FCFS executes J2 spread (slow); TOPO-AWARE-P packs it (fast).
        assert!(
            tap_j2.execution_s() < fcfs_j2.execution_s(),
            "TAP exec {} !< FCFS exec {}",
            tap_j2.execution_s(),
            fcfs_j2.execution_s()
        );
        assert_eq!(tap.slo_violations, 0);
    }

    #[test]
    fn all_jobs_complete_under_every_policy() {
        let (c, p) = setup(2);
        let trace: Vec<JobSpec> = (0..20)
            .map(|i| {
                job(
                    i,
                    [1u32, 2, 2, 4][(i % 4) as usize],
                    BatchClass::ALL[(i % 4) as usize],
                    i as f64 * 4.0,
                    150,
                )
            })
            .collect();
        for kind in PolicyKind::ALL {
            let res = simulate(
                Arc::clone(&c),
                Arc::clone(&p),
                Policy::new(kind),
                trace.clone(),
            );
            assert_eq!(res.records.len(), 20, "{kind} lost jobs");
            assert!(res.unplaceable.is_empty(), "{kind}");
            // GPUs are never double-booked: check overlapping segments.
            for (i, a) in res.timeline.iter().enumerate() {
                for b in &res.timeline[i + 1..] {
                    let overlap = a.start_s < b.end_s - 1e-9 && b.start_s < a.end_s - 1e-9;
                    if overlap {
                        for g in &a.gpus {
                            assert!(
                                !b.gpus.contains(g),
                                "{kind}: {g} double-booked by {} and {}",
                                a.job,
                                b.job
                            );
                        }
                    }
                }
            }
        }
    }

    /// Both event loops must agree on a workload that exercises queueing,
    /// interference, and staggered completions.
    #[test]
    fn incremental_and_reference_loops_agree() {
        let (c, p) = setup(2);
        let trace: Vec<JobSpec> = (0..16)
            .map(|i| {
                job(
                    i,
                    [1u32, 2, 2, 4][(i % 4) as usize],
                    BatchClass::ALL[(i % 4) as usize],
                    i as f64 * 3.0,
                    120,
                )
            })
            .collect();
        for kind in PolicyKind::ALL {
            let run = |incremental: bool| {
                Simulation::new(
                    Arc::clone(&c),
                    Arc::clone(&p),
                    SimConfig::new(Policy::new(kind)).with_incremental(incremental),
                )
                .run(trace.clone())
            };
            let inc = run(true);
            let reference = run(false);
            assert_eq!(inc.records, reference.records, "{kind}");
            assert_eq!(inc.events, reference.events, "{kind}");
            assert_eq!(
                inc.makespan_s.to_bits(),
                reference.makespan_s.to_bits(),
                "{kind}"
            );
        }
    }

    /// Switches a production config to the reference oracle: sequential
    /// candidate evaluation and the recompute-everything event loop.
    fn oracle(config: SimConfig) -> SimConfig {
        config
            .with_eval(EvalParams::sequential())
            .with_incremental(false)
    }

    /// A traced production run must agree bit for bit with the oracle, and
    /// surface its cache counters through `SimLoopStats` and the trace
    /// footer (the only trace difference between the two; the oracle's
    /// footer counts nothing, since it never reads the cache).
    #[test]
    fn eval_cache_is_transparent_and_counted() {
        let (c, p) = setup(2);
        let trace: Vec<JobSpec> = (0..16)
            .map(|i| {
                job(
                    i,
                    [1u32, 2, 2, 4][(i % 4) as usize],
                    BatchClass::ALL[(i % 4) as usize],
                    i as f64 * 3.0,
                    120,
                )
            })
            .collect();
        let run = |config: SimConfig| {
            Simulation::new(Arc::clone(&c), Arc::clone(&p), config).run_with_stats(trace.clone())
        };
        let production = SimConfig::new(Policy::new(PolicyKind::TopoAware))
            .with_eval(EvalParams::parallel(2))
            .with_trace();
        let (mut on, on_stats) = run(production.clone());
        let (mut off, off_stats) = run(oracle(production));
        assert!(on_stats.eval_cache_hits + on_stats.eval_cache_misses > 0);
        assert_eq!(off_stats.eval_cache_hits, 0);
        assert_eq!(off_stats.eval_cache_misses, 0);
        match on.trace.pop() {
            Some(TraceEvent::EvalCacheStats {
                hits,
                misses,
                evictions,
                ..
            }) => {
                assert_eq!(hits, on_stats.eval_cache_hits);
                assert_eq!(misses, on_stats.eval_cache_misses);
                assert_eq!(evictions, on_stats.eval_cache_evictions);
            }
            other => panic!("expected EvalCacheStats footer, got {other:?}"),
        }
        assert!(matches!(
            off.trace.pop(),
            Some(TraceEvent::EvalCacheStats {
                hits: 0,
                misses: 0,
                evictions: 0,
                ..
            })
        ));
        assert_eq!(on.records, off.records, "records diverged");
        assert_eq!(on.events, off.events, "events diverged");
        assert_eq!(on.trace, off.trace, "traces diverged beyond the footer");
        assert_eq!(on.makespan_s.to_bits(), off.makespan_s.to_bits());
    }

    /// The failure cursor must apply scripted failures exactly like the old
    /// `Vec::remove(0)` pop, including skipping already-down machines.
    #[test]
    fn failure_and_recovery_cursors_apply_in_order() {
        let (c, p) = setup(2);
        let trace = vec![
            job(0, 2, BatchClass::Small, 0.0, 2000),
            job(1, 2, BatchClass::Small, 0.0, 2000),
        ];
        let config = SimConfig::new(Policy::new(PolicyKind::TopoAware))
            .with_machine_failures(vec![
                (10.0, MachineId(0)),
                (20.0, MachineId(0)), // already down: skipped
                (30.0, MachineId(1)),
            ])
            .with_machine_recoveries(vec![(40.0, MachineId(0)), (50.0, MachineId(1))]);
        let res = Simulation::new(c, p, config).run(trace);
        assert_eq!(
            res.failures,
            vec![(10.0, MachineId(0)), (30.0, MachineId(1))]
        );
        // Both jobs restart after their machines fail and still finish.
        assert_eq!(res.records.len(), 2);
        for r in &res.records {
            assert!(r.restarts >= 1, "{} never restarted", r.spec.id);
        }
    }

    /// Non-finite schedule times must be rejected at construction with a
    /// descriptive error, not discovered as a panic (or a silently corrupt
    /// sort order) deep inside the event loop.
    #[test]
    fn non_finite_schedule_times_are_rejected_at_construction() {
        let base = || SimConfig::new(Policy::new(PolicyKind::TopoAware));
        let err = base()
            .try_with_machine_failures(vec![(10.0, MachineId(0)), (f64::NAN, MachineId(1))])
            .unwrap_err();
        // NaN != NaN under the derived PartialEq, so match on shape and
        // check the payload is the NaN we passed in.
        let SimConfigError::NonFiniteTime {
            schedule,
            index,
            time_s,
        } = &err;
        assert_eq!((*schedule, *index), ("failure", 1));
        assert!(time_s.is_nan());
        assert!(err.to_string().contains("failure schedule entry 1"));
        let err = base()
            .try_with_machine_recoveries(vec![(f64::INFINITY, MachineId(0))])
            .unwrap_err();
        assert!(matches!(
            err,
            SimConfigError::NonFiniteTime {
                schedule: "recovery",
                index: 0,
                ..
            }
        ));
        // Finite schedules still pass through both the fallible and the
        // panicking builders.
        let ok = base()
            .try_with_machine_failures(vec![(10.0, MachineId(0))])
            .unwrap()
            .with_machine_recoveries(vec![(20.0, MachineId(0))]);
        assert_eq!(ok.machine_failures.len(), 1);
        assert_eq!(ok.machine_recoveries.len(), 1);
    }

    #[test]
    #[should_panic(expected = "failure schedule must use finite times")]
    fn infallible_failure_builder_panics_on_nan() {
        let _ = SimConfig::new(Policy::new(PolicyKind::TopoAware))
            .with_machine_failures(vec![(f64::NAN, MachineId(0))]);
    }

    /// A racked run decides over the live machine classes: the eval cache
    /// is read, the retired shard counters stay 0, and the racks are
    /// invisible in the results, which equal a run of the same machines on
    /// one flat fabric.
    #[test]
    fn racked_runs_decide_over_classes() {
        let run = |racked: bool| {
            let machine = power8_minsky();
            let profiles = Arc::new(ProfileLibrary::generate(&machine, 1));
            let cluster = if racked {
                ClusterTopology::homogeneous_racked(machine, 4, 2)
            } else {
                ClusterTopology::homogeneous(machine, 8)
            };
            let trace: Vec<JobSpec> = (0..12)
                .map(|i| {
                    job(
                        i,
                        [1u32, 2, 4][(i % 3) as usize],
                        BatchClass::Tiny,
                        i as f64,
                        60,
                    )
                })
                .collect();
            Simulation::new(
                Arc::new(cluster),
                profiles,
                SimConfig::new(Policy::new(PolicyKind::TopoAware))
                    .with_eval(EvalParams::parallel(2)),
            )
            .run_with_stats(trace)
        };
        let (racked_res, racked) = run(true);
        let (flat_res, _) = run(false);
        assert!(
            racked.eval_cache_hits + racked.eval_cache_misses > 0,
            "the class path never ran"
        );
        let retired = (
            racked.shard_admission_checked,
            racked.shard_bound_checked,
            racked.replay_shards_reeval,
        );
        assert_eq!(retired, (0, 0, 0), "retired counters must read 0");
        assert_eq!(racked_res.records, flat_res.records);
        assert_eq!(racked_res.events, flat_res.events);
        assert_eq!(
            racked_res.makespan_s.to_bits(),
            flat_res.makespan_s.to_bits()
        );
    }

    /// The decision memo must surface its counter through `SimLoopStats`,
    /// actually answer a queue that retries across events, and leave
    /// results bit-identical to the oracle. Scenario: two one-machine
    /// racks; the first job takes half of machine 0 and the rest fill a
    /// machine each, so the blocked TOPO-AWARE head retries on an unchanged
    /// state at every arrival — answered from the memo — and on a changed
    /// one at every completion.
    #[test]
    fn decision_replay_counters_surface_in_stats() {
        let run = |reference: bool| {
            let machine = power8_minsky();
            let profiles = Arc::new(ProfileLibrary::generate(&machine, 1));
            let cluster = Arc::new(ClusterTopology::homogeneous_racked(machine, 2, 1));
            let trace: Vec<JobSpec> = (0..6)
                .map(|i| {
                    JobSpec::new(
                        i,
                        NnModel::AlexNet,
                        BatchClass::Tiny,
                        if i == 0 { 2 } else { 4 },
                    )
                    .arriving_at(i as f64 * 0.5)
                    .with_iterations(500)
                    .with_min_utility(0.3)
                })
                .collect();
            let config = SimConfig::new(Policy::new(PolicyKind::TopoAware))
                .with_eval(EvalParams::parallel(2));
            let config = if reference {
                oracle(config)
            } else {
                config.with_phase_timing(true)
            };
            Simulation::new(cluster, profiles, config).run_with_stats(trace)
        };
        let (off_res, off) = run(true);
        assert_eq!(off.replay_hits, 0, "the oracle must not memoise");
        assert_eq!(off.replay_full_fallbacks, 0);
        assert_eq!(
            off.phase_drain_ns, 0,
            "phase timing off leaves drain unmetered"
        );
        let (on_res, on) = run(false);
        assert!(on.replay_hits > 0, "queue retries never replayed");
        assert!(on.phase_decision_ns > 0, "decisions are always metered");
        assert!(
            on.phase_drain_ns > 0,
            "phase timing on must meter the drain"
        );
        assert!(
            on.phase_drain_ns >= on.phase_decision_ns / 2,
            "the drain phase contains the decisions"
        );
        assert_eq!(on_res.records, off_res.records);
        assert_eq!(on_res.events, off_res.events);
        assert_eq!(on_res.makespan_s.to_bits(), off_res.makespan_s.to_bits());
    }

    /// A plain run must populate the slowdown-derivation counters, with
    /// the per-job counts summing to the total.
    #[test]
    fn eval_counters_are_populated() {
        let (c, p) = setup(1);
        let trace = vec![
            job(0, 2, BatchClass::Tiny, 0.0, 100),
            job(1, 2, BatchClass::Tiny, 0.0, 100),
        ];
        let (res, stats) =
            Simulation::new(c, p, SimConfig::new(Policy::new(PolicyKind::TopoAware)))
                .run_with_stats(trace);
        assert_eq!(res.records.len(), 2);
        assert!(stats.slowdown_evals >= 2, "got {}", stats.slowdown_evals);
        assert_eq!(
            stats.slowdown_evals,
            stats.evals_by_job.values().sum::<u64>()
        );
        assert!(stats.evals_for(gts_job::JobId(0)) >= 1);
    }
}
