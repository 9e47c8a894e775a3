//! The discrete-event loop.
//!
//! Events are job arrivals, job completions, and scripted machine
//! failures/recoveries; after every event batch the scheduler runs one
//! Algorithm 1 iteration ("the scheduler sleeps until a job has finished or
//! a time interval has expired" — with an analytic progress model the
//! interval wakeups are unnecessary, every state change is an event).
//! Between events, running jobs progress at `1/(1+slowdown)`; slowdowns are
//! re-derived after every placement or completion, so interference couples
//! job completion times exactly as on the real machine.
//!
//! # Incremental event loop
//!
//! Production runs the incremental loop. `SimConfig::with_incremental(false)`
//! selects the reference loop, which together with
//! [`EvalParams::sequential`] forms the reference oracle:
//!
//! * **Reference** — after every event, every running job's slowdown is
//!   re-derived against every other running job (O(J²) pairwise with a
//!   machine-set intersection per pair), and the next completion is found
//!   by a full scan over the running set.
//! * **Incremental** — interference couples jobs solely through shared
//!   machines ([`crate::runtime::current_slowdown`] takes the max
//!   `domain_factor` over shared machines and ignores everything else), so
//!   an event can only change the slowdown of jobs holding GPUs on the
//!   machines it touched. The loop tracks a *dirty-machine set* fed by
//!   placements, completions, failures, and running-vector reorders, and
//!   refreshes only the jobs on dirty machines — bit-identical to the
//!   reference, at O(affected) instead of O(J²) per event. The next
//!   completion comes from a lazy min-heap keyed by `(eta bits, job id)`
//!   that is re-keyed only when a job's rate changes, and the sorted
//!   failure/recovery schedules pop through cursors instead of
//!   `Vec::remove(0)`.
//!
//! Bit-identity of production and the oracle across policies, seeds,
//! cluster shapes, failures, and jitter is enforced by the differential
//! runner in `tests/stack_properties.rs` at the workspace root and, in
//! debug builds, by a full O(J²) shadow check after every scoped refresh.

use crate::ideal::ideal_duration_s;
use crate::metrics::{JobRecord, SimEvent, SimResult, TimelineSegment, UtilitySample};
use crate::runtime::{current_slowdown, RunningJob};
use gts_job::{BatchClass, JobId, JobSpec, NnModel};
use gts_perf::ProfileLibrary;
use gts_sched::{
    Allocation, CancelOutcome, ClusterState, DecisionReplayStats, EvalParams, PlacementOutcome,
    Policy, Scheduler, SchedulerConfig, TraceEvent,
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
            Self::NonFiniteTime { schedule, index, time_s } => write!(
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
    /// Record `(t, mean utility)` samples (cheap; on by default).
    pub sample_utility: bool,
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
    /// Config with the given policy, utility sampling on, no jitter, no
    /// failures.
    pub fn new(policy: Policy) -> Self {
        Self {
            policy,
            sample_utility: true,
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
                return Err(SimConfigError::NonFiniteTime { schedule, index, time_s });
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
    /// Per-job `current_slowdown` derivation counts.
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
    /// Decisions answered in O(1) from a decision snapshot: the state had
    /// not changed since the last decision for the job's class (DESIGN.md
    /// §15.7). 0 on traced runs and on the sequential reference.
    pub replay_hits: u64,
    /// Jobs given an earlier same-key job's answer within a scheduler
    /// iteration instead of a decision (DESIGN.md §14); neither
    /// `replay_hits` nor the decision meters count them. 0 on traced runs
    /// and on the sequential reference.
    pub replay_reused: u64,
    /// Always 0: partial replay is retired (DESIGN.md §12). Kept so that
    /// callers reading it keep compiling.
    pub replay_shards_reeval: u64,
    /// Snapshots present but unusable (another state instance or another
    /// guard), falling back to the class decision.
    pub replay_full_fallbacks: u64,
    /// TOPO-AWARE(-P) decisions whose class-level selection could not
    /// prove that scanning each surviving machine class once matches the
    /// reference member scan, and ran the ordered member scan instead
    /// (DESIGN.md §15.3). 0 on the sequential reference.
    pub class_order_fallbacks: u64,
    /// Placement decisions made (`decide` calls; reused answers are not
    /// decisions).
    pub decisions: u64,
    /// Wall nanoseconds spent inside placement decisions (always metered;
    /// reused answers are not decisions, so their time is drain time).
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
    fn note_eval(&mut self, id: JobId) {
        self.slowdown_evals += 1;
        *self.evals_by_job.entry(id).or_insert(0) += 1;
    }

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
    /// Machines touched since the last refresh (mask + list, so marking is
    /// O(1) and clearing is O(|dirty|)). Only fed in incremental mode.
    dirty_mask: Vec<bool>,
    dirty_list: Vec<MachineId>,
    /// Lazy min-heap of completion times: `(completion-time bits, job id)`.
    /// Positive-finite f64 bits order identically to the values, and the
    /// job id breaks exact ties deterministically. Entries are invalidated
    /// (not removed) when a job's rate changes or it leaves `running`;
    /// `heap_key` holds the one live key per job.
    completion_heap: BinaryHeap<Reverse<(u64, JobId)>>,
    heap_key: HashMap<JobId, u64>,
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
        let mut scheduler =
            Scheduler::new(state, SchedulerConfig { policy: config.policy, eval: config.eval });
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
            dirty_mask: vec![false; n_machines],
            dirty_list: Vec::new(),
            completion_heap: BinaryHeap::new(),
            heap_key: HashMap::new(),
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
            let next_failure = self.pending_failures.get(self.failure_cursor).map(|&(t, _)| t);
            let next_recovery =
                self.pending_recoveries.get(self.recovery_cursor).map(|&(t, _)| t);

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

            // Integrate progress up to the event.
            let dt = (t - self.now).max(0.0);
            for r in &mut self.running {
                r.advance(dt);
            }
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
            if self.config.sample_utility {
                self.sample_utility();
            }

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
        let replay = self.scheduler.decision_replay_stats();
        self.stats.replay_hits = replay.hits;
        self.stats.replay_reused = replay.reused;
        self.stats.replay_full_fallbacks = replay.full_fallbacks;
        // Footer only when there was replay activity: traced decisions
        // neither replay nor reuse (tracing needs per-candidate records),
        // so their counters are zero and their traces stay comparable
        // event-for-event without stripping.
        if self.config.trace && replay != DecisionReplayStats::default() {
            trace.push(TraceEvent::DecisionReplayStats {
                t_s: self.now,
                hits: replay.hits,
                reused: replay.reused,
                full_fallbacks: replay.full_fallbacks,
            });
        }
        self.stats.class_order_fallbacks = self.scheduler.state().classes().fallbacks();
        self.stats.decisions = self.scheduler.decision_stats().count() as u64;
        self.stats.phase_decision_ns =
            self.scheduler.decision_stats().total().as_nanos() as u64;
        self.stats.decision_p99_ns =
            self.scheduler.decision_stats().p99().as_nanos() as u64;
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

    /// Appends to `running`, keeping the position index exact.
    fn push_running(&mut self, job: RunningJob) {
        self.job_pos.insert(job.alloc.spec.id, self.running.len());
        self.running.push(job);
    }

    /// `swap_remove` from `running`, keeping the position index exact and
    /// invalidating the removed job's completion-heap entry. The relocated
    /// tail job changes its position in the vector; co-runner lists (and
    /// therefore the reference loop's f64 summation order) follow vector
    /// order, so every job sharing a machine with it must be re-summed —
    /// its machines join the dirty set.
    fn remove_running(&mut self, idx: usize) -> RunningJob {
        let job = self.running.swap_remove(idx);
        self.job_pos.remove(&job.alloc.spec.id);
        self.heap_key.remove(&job.alloc.spec.id);
        if idx < self.running.len() {
            let moved = self.running[idx].alloc.spec.id;
            self.job_pos.insert(moved, idx);
            if self.config.incremental {
                for m in self.running[idx].alloc.machines() {
                    self.mark_dirty(m);
                }
            }
        }
        debug_assert_eq!(self.job_pos.len(), self.running.len());
        job
    }

    /// Earliest completion time across the running set, or `None` if
    /// nothing runs. The reference mode scans; the incremental mode polls
    /// the lazy heap.
    fn next_completion(&mut self) -> Option<f64> {
        if !self.config.incremental {
            return self
                .running
                .iter()
                .map(|r| self.now + r.eta_s())
                .min_by(|a, b| a.partial_cmp(b).expect("finite"));
        }
        // Discard stale heads (entries whose key was superseded by a rate
        // change, or whose job left the running set).
        let top = loop {
            match self.completion_heap.peek() {
                None => return None,
                Some(&Reverse((bits, id))) => {
                    if self.heap_key.get(&id) == Some(&bits) {
                        break f64::from_bits(bits);
                    }
                    self.completion_heap.pop();
                }
            }
        };
        // Stored keys are exact samples of `fl(now + eta)` from the moment
        // each job was last refreshed. For jobs untouched since, the
        // reference scan re-rounds `now + remaining/rate` after every
        // `advance`, drifting by a few ulps per event — so the true minimum
        // can hide an ulp behind the heap top. Re-poll everything within a
        // band around the top, recompute exactly, and take the min; the
        // band (relative 1e-9) is orders of magnitude wider than any
        // accumulated rounding drift. The debug shadow check below pins
        // this against the full scan on every call.
        let band = top + 2.0 * (1e-9 + 1e-9 * top.abs());
        let mut best = f64::INFINITY;
        let mut polled: Vec<(u64, JobId)> = Vec::new();
        while let Some(&Reverse((bits, id))) = self.completion_heap.peek() {
            if f64::from_bits(bits) > band {
                break;
            }
            self.completion_heap.pop();
            if self.heap_key.get(&id) != Some(&bits) {
                continue; // stale entry inside the band: drop it
            }
            let exact = self.now + self.running[self.job_pos[&id]].eta_s();
            best = best.min(exact);
            polled.push((bits, id));
        }
        for (bits, id) in polled {
            self.completion_heap.push(Reverse((bits, id)));
        }
        debug_assert!(best.is_finite(), "band poll found no live entry");
        #[cfg(debug_assertions)]
        {
            let reference = self
                .running
                .iter()
                .map(|r| self.now + r.eta_s())
                .min_by(|a, b| a.partial_cmp(b).expect("finite"));
            assert_eq!(
                reference.map(f64::to_bits),
                Some(best.to_bits()),
                "completion heap diverged from the scan: {reference:?} vs {best}"
            );
        }
        Some(best)
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
            // Tear down every running job touching the machine. The
            // per-machine index hands us the victims directly; sorting by
            // position reproduces the running-vector order the old full
            // filter scan produced, so teardown order (and everything
            // downstream of it) is unchanged.
            let mut victims: Vec<JobId> =
                self.scheduler.state().jobs_on_machine(machine).to_vec();
            victims.sort_unstable_by_key(|id| self.job_pos[id]);
            for id in victims {
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
            let mut interrupted: Vec<JobId> = self
                .restarts
                .keys()
                .copied()
                .filter(|id| self.scheduler.queue().contains(*id))
                .collect();
            // `restarts` is a HashMap; sort so the event log is deterministic.
            interrupted.sort();
            self.events.push(SimEvent::MachineFailed {
                t_s: self.now,
                machine,
                interrupted,
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

    fn process_completions(&mut self) {
        if self.config.incremental {
            self.process_completions_heap();
            return;
        }
        let mut i = 0;
        while i < self.running.len() {
            if self.running[i].finished() {
                self.complete_at(i);
            } else {
                i += 1;
            }
        }
    }

    /// Heap-assisted completion discovery for the incremental mode: every
    /// finished job's completion-heap key sits within a rounding hair of
    /// `now` (keys are exact `fl(refresh_now + eta)` samples; `finished()`
    /// tolerates `1e-9` of leftover solo-seconds, i.e. `1e-9 × slowdown`
    /// of wall time, and per-event integration drift adds ulps), so a band
    /// five orders of magnitude wider than both — and still three orders
    /// below the event spacing — bounds the candidate set. `finished()`
    /// on the live job stays the ground truth; the band only proposes.
    /// Processing order reproduces the reference scan exactly: the scan
    /// always handles the finished job at the lowest vector position next
    /// (a `swap_remove` re-examines the vacated slot, which holds the old
    /// tail — below every other index it could have been checked at), so
    /// draining by minimum current position is the same order.
    fn process_completions_heap(&mut self) {
        let band = self.now + 1e-6 + 1e-9 * self.now.abs();
        let mut finished: Vec<JobId> = Vec::new();
        let mut keep: Vec<(u64, JobId)> = Vec::new();
        while let Some(&Reverse((bits, id))) = self.completion_heap.peek() {
            if f64::from_bits(bits) > band {
                break;
            }
            self.completion_heap.pop();
            if self.heap_key.get(&id) != Some(&bits) {
                continue; // stale entry inside the band: drop it
            }
            if self.running[self.job_pos[&id]].finished() {
                // Claim the id: a re-keyed-and-back job can leave two heap
                // entries carrying the same live bits — dropping the map
                // entry makes any duplicate fail the liveness check above
                // (the job is completing; `remove_running` would drop the
                // key anyway).
                self.heap_key.remove(&id);
                finished.push(id);
            } else {
                keep.push((bits, id));
            }
        }
        for e in keep {
            self.completion_heap.push(Reverse(e));
        }
        #[cfg(debug_assertions)]
        {
            let mut by_scan: Vec<JobId> = self
                .running
                .iter()
                .filter(|r| r.finished())
                .map(|r| r.alloc.spec.id)
                .collect();
            by_scan.sort_unstable();
            let mut by_heap = finished.clone();
            by_heap.sort_unstable();
            assert_eq!(
                by_scan, by_heap,
                "completion-heap band diverged from the reference scan"
            );
        }
        while !finished.is_empty() {
            let fi = finished
                .iter()
                .enumerate()
                .min_by_key(|(_, id)| self.job_pos[*id])
                .map(|(fi, _)| fi)
                .expect("nonempty");
            let id = finished.swap_remove(fi);
            let idx = self.job_pos[&id];
            self.complete_at(idx);
        }
    }

    /// Completes the running job at vector position `idx`: releases it
    /// from the scheduler and appends its timeline/event/record entries.
    fn complete_at(&mut self, idx: usize) {
        let done = self.remove_running(idx);
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
                self.events.push(SimEvent::Arrived { t_s: self.now, job: job.id });
                self.scheduler.submit(job);
            } else {
                break;
            }
        }
    }

    fn run_scheduler(&mut self) {
        let outcomes = self.scheduler.run_iteration();
        for outcome in outcomes {
            match outcome {
                PlacementOutcome::PostponedLowUtility { id, .. } => {
                    self.events.push(SimEvent::Postponed { t_s: self.now, job: id });
                }
                PlacementOutcome::Placed { spec, gpus, utility, .. } => {
                    self.events.push(SimEvent::Placed {
                        t_s: self.now,
                        job: spec.id,
                        utility,
                    });
                    // The outcome owns the same spec/gpus/utility the
                    // scheduler just committed to its state, so the running
                    // entry is built directly from it — no state lookup, no
                    // clone.
                    #[cfg(debug_assertions)]
                    {
                        let placed =
                            self.scheduler.state().allocation(spec.id).expect("just placed");
                        assert_eq!(placed.gpus, gpus);
                        assert_eq!(placed.utility.to_bits(), utility.to_bits());
                    }
                    let alloc = Allocation { spec, gpus, utility };
                    let mut job = RunningJob::start(alloc, &self.cluster, self.now);
                    if self.config.jitter != 0.0 {
                        job.remaining_solo_s *= jitter_factor(
                            self.config.jitter_seed,
                            job.alloc.spec.id.0,
                            self.config.jitter,
                        );
                    }
                    for m in job.alloc.machines() {
                        self.mark_dirty(m);
                    }
                    self.push_running(job);
                }
                PlacementOutcome::WaitingForCapacity { .. } => {}
            }
        }
    }

    fn refresh_slowdowns(&mut self) {
        if self.config.incremental {
            self.refresh_dirty_slowdowns();
            return;
        }
        let snapshot: Vec<RunningJob> = self.running.clone();
        let refs: Vec<&RunningJob> = snapshot.iter().collect();
        for r in &mut self.running {
            r.slowdown = current_slowdown(r, &refs, &self.cluster);
            self.stats.note_eval(r.alloc.spec.id);
        }
    }

    /// Machine-scoped refresh: re-derives slowdowns only for jobs holding
    /// GPUs on machines in the dirty set.
    ///
    /// **Why this is exact** — a job's slowdown is
    /// `total_slowdown(victim, corunners)` where the co-runner list holds
    /// `(model, batch, max_domain_factor)` for every *other* running job
    /// sharing at least one machine, in running-vector order. For a job
    /// with no GPU on a dirty machine: (1) no allocation on any of its
    /// machines was created, destroyed, or resized (every such change marks
    /// the machine dirty), so its co-runner set and every shared-domain
    /// factor are unchanged; (2) no co-runner changed its position in the
    /// running vector (`swap_remove` relocations mark the moved job's
    /// machines dirty), so the summation *order* is unchanged too. The
    /// reference recomputation would therefore reproduce the stored value
    /// bit for bit — skipping it changes nothing. Debug builds verify this
    /// with a full O(J²) shadow recompute after every scoped refresh.
    fn refresh_dirty_slowdowns(&mut self) {
        if !self.dirty_list.is_empty() {
            let mut victims: Vec<usize> = Vec::new();
            for &m in &self.dirty_list {
                for &id in self.scheduler.state().jobs_on_machine(m) {
                    victims.push(self.job_pos[&id]);
                }
            }
            for &m in &self.dirty_list {
                self.dirty_mask[m.index()] = false;
            }
            self.dirty_list.clear();
            victims.sort_unstable();
            victims.dedup();

            let mut updates: Vec<(usize, f64)> = Vec::with_capacity(victims.len());
            for &pos in &victims {
                let victim = &self.running[pos];
                // Co-runners via the per-machine index, sorted into
                // running-vector order: the same filtered list (and the
                // same f64 summation order) the reference full scan builds.
                let mut co_pos: Vec<usize> = Vec::new();
                for m in victim.alloc.machines() {
                    for &id in self.scheduler.state().jobs_on_machine(m) {
                        let p = self.job_pos[&id];
                        if p != pos {
                            co_pos.push(p);
                        }
                    }
                }
                co_pos.sort_unstable();
                co_pos.dedup();
                let refs: Vec<&RunningJob> =
                    co_pos.iter().map(|&p| &self.running[p]).collect();
                updates.push((pos, current_slowdown(victim, &refs, &self.cluster)));
            }
            for (pos, slowdown) in updates {
                let id = self.running[pos].alloc.spec.id;
                self.stats.note_eval(id);
                self.running[pos].slowdown = slowdown;
                // Re-key the completion heap with the exact post-refresh
                // completion time; the old entry (if any) goes stale and is
                // skipped at poll time.
                let t = self.now + self.running[pos].eta_s();
                debug_assert!(t.is_finite() && t >= 0.0);
                let bits = t.to_bits();
                if self.heap_key.insert(id, bits) != Some(bits) {
                    self.completion_heap.push(Reverse((bits, id)));
                }
            }
        }
        #[cfg(debug_assertions)]
        self.debug_verify_slowdowns();
    }

    /// Debug shadow check: the scoped refresh must leave every running
    /// job's slowdown bit-identical to a full reference recomputation.
    #[cfg(debug_assertions)]
    fn debug_verify_slowdowns(&self) {
        let refs: Vec<&RunningJob> = self.running.iter().collect();
        for r in &self.running {
            let want = current_slowdown(r, &refs, &self.cluster);
            assert_eq!(
                want.to_bits(),
                r.slowdown.to_bits(),
                "scoped refresh diverged for {}: want {want}, have {}",
                r.alloc.spec.id,
                r.slowdown
            );
        }
    }

    fn sample_utility(&mut self) {
        let mean = if self.running.is_empty() {
            1.0
        } else {
            self.running.iter().map(|r| r.alloc.utility).sum::<f64>() / self.running.len() as f64
        };
        self.utility_series.push(UtilitySample { t_s: self.now, mean_utility: mean });
    }

    fn ideal_for(&mut self, spec: &JobSpec) -> f64 {
        // `ideal_duration_s` depends only on the spec shape and the (fixed)
        // machine set — memoize it. Graph-free jobs key directly on the
        // shape tuple; jobs with an explicit communication graph are costed
        // per edge, so they key on the tuple plus a structural compare of
        // the graph against previously seen ones (generated workloads draw
        // graphs from a tiny family, so the list stays short).
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
        // Machines sharing a topology class share the ideal duration, so
        // evaluate one representative per class (one machine total on the
        // homogeneous clusters of the paper's setting). For heterogeneous
        // clusters this still takes the fastest class.
        let mut seen_classes: Vec<u32> = Vec::new();
        let best = self
            .cluster
            .machines()
            .filter(|&m| self.cluster.machine(m).n_gpus() >= spec.n_gpus as usize)
            .filter(|&m| {
                let c = self.cluster.machine_class(m);
                if seen_classes.contains(&c) {
                    false
                } else {
                    seen_classes.push(c);
                    true
                }
            })
            .map(|m| ideal_duration_s(spec, self.cluster.machine(m)))
            .fold(f64::INFINITY, f64::min);
        let v = if best.is_finite() {
            best
        } else {
            // Wider than any machine: the floor is a rack-local spill.
            crate::ideal::ideal_multi_node_duration_s(spec)
        };
        match &spec.comm_graph {
            None => {
                self.ideal_cache.insert(key, v);
            }
            Some(g) => {
                self.ideal_graph_cache.entry(key).or_default().push((g.clone(), v));
            }
        }
        v
    }
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
            .map(|i| job(i, 1 + (i % 2) as u32, BatchClass::Small, i as f64 * 3.0, 100))
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
            assert_eq!(inc.makespan_s.to_bits(), reference.makespan_s.to_bits(), "{kind}");
        }
    }

    /// Switches a production config to the reference oracle: sequential
    /// candidate evaluation and the recompute-everything event loop.
    fn oracle(config: SimConfig) -> SimConfig {
        config.with_eval(EvalParams::sequential()).with_incremental(false)
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
            Some(TraceEvent::EvalCacheStats { hits, misses, evictions, .. }) => {
                assert_eq!(hits, on_stats.eval_cache_hits);
                assert_eq!(misses, on_stats.eval_cache_misses);
                assert_eq!(evictions, on_stats.eval_cache_evictions);
            }
            other => panic!("expected EvalCacheStats footer, got {other:?}"),
        }
        assert!(matches!(
            off.trace.pop(),
            Some(TraceEvent::EvalCacheStats { hits: 0, misses: 0, evictions: 0, .. })
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
        let SimConfigError::NonFiniteTime { schedule, index, time_s } = &err;
        assert_eq!((*schedule, *index), ("failure", 1));
        assert!(time_s.is_nan());
        assert!(err.to_string().contains("failure schedule entry 1"));
        let err = base()
            .try_with_machine_recoveries(vec![(f64::INFINITY, MachineId(0))])
            .unwrap_err();
        assert!(matches!(
            err,
            SimConfigError::NonFiniteTime { schedule: "recovery", index: 0, .. }
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
                .map(|i| job(i, [1u32, 2, 4][(i % 3) as usize], BatchClass::Tiny, i as f64, 60))
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
        assert!(racked.eval_cache_hits + racked.eval_cache_misses > 0, "the class path never ran");
        let retired = (
            racked.shard_admission_checked,
            racked.shard_bound_checked,
            racked.replay_shards_reeval,
        );
        assert_eq!(retired, (0, 0, 0), "retired counters must read 0");
        assert_eq!(racked_res.records, flat_res.records);
        assert_eq!(racked_res.events, flat_res.events);
        assert_eq!(racked_res.makespan_s.to_bits(), flat_res.makespan_s.to_bits());
    }

    /// Cross-event decision replay must surface its counters through
    /// `SimLoopStats`, actually fire under a queue that retries across
    /// events, and leave results bit-identical to the oracle. Scenario:
    /// two one-machine racks; the first job takes half of machine 0 and
    /// the rest fill a machine each, so the blocked head retries on an
    /// unchanged state at every arrival — the O(1) hit — and on a changed
    /// one at every completion.
    #[test]
    fn decision_replay_counters_surface_in_stats() {
        let run = |reference: bool| {
            let machine = power8_minsky();
            let profiles = Arc::new(ProfileLibrary::generate(&machine, 1));
            let cluster = Arc::new(ClusterTopology::homogeneous_racked(machine, 2, 1));
            let trace: Vec<JobSpec> = (0..6)
                .map(|i| {
                    JobSpec::new(i, NnModel::AlexNet, BatchClass::Tiny, if i == 0 { 2 } else { 4 })
                        .arriving_at(i as f64 * 0.5)
                        .with_iterations(500)
                        .with_min_utility(0.3)
                })
                .collect();
            let config = SimConfig::new(Policy::new(PolicyKind::TopoAware))
                .with_eval(EvalParams::parallel(2));
            let config = if reference { oracle(config) } else { config.with_phase_timing(true) };
            Simulation::new(cluster, profiles, config).run_with_stats(trace)
        };
        let (off_res, off) = run(true);
        assert_eq!(off.replay_hits, 0, "the oracle must not snapshot");
        assert_eq!(off.replay_full_fallbacks, 0);
        assert_eq!(off.phase_drain_ns, 0, "phase timing off leaves drain unmetered");
        let (on_res, on) = run(false);
        assert!(on.replay_hits > 0, "queue retries never replayed");
        assert!(on.phase_decision_ns > 0, "decisions are always metered");
        assert!(on.phase_drain_ns > 0, "phase timing on must meter the drain");
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
        let (res, stats) = Simulation::new(
            c,
            p,
            SimConfig::new(Policy::new(PolicyKind::TopoAware)),
        )
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
