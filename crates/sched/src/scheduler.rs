//! Algorithm 1 — the topology-aware job placement loop.
//!
//! ```text
//! while availableResources(P) and Q ≠ ∅:
//!     A ← Q.pop()
//!     P' ← filterHostsByConstraints(A, P)
//!     s ← DRB(A, P', C)
//!     if U(s) < A.minimal_utility and postpone:
//!         postponed_list.add(A)
//!     else:
//!         place(A, s)
//! Q.add(postponed_list)
//! ```
//!
//! The loop is driven by the simulator (`gts-sim`) or the prototype
//! (`gts-proto`), which call [`Scheduler::run_iteration`] whenever a job
//! arrives or finishes ("wakeup after an event").
//!
//! The drain walks the queue in place (DESIGN.md §14): a job it does not
//! place keeps its slot, which is where `Q.add(postponed_list)` would put
//! it back, so only placed jobs leave the queue. A TOPO-AWARE(-P) job whose
//! replay key matches an earlier unplaced job's gets that answer from the
//! scheduler's decision memo instead of a decision, for as long as the
//! cluster state's version holds, across iterations too.

use crate::eval::{EvalCache, EvalCacheStats, EvalParams, ReplayKey};
use crate::overhead::DecisionStats;
use crate::policy::{Decision, Policy};
use crate::state::{Allocation, ClusterState};
use crate::trace::TraceEvent;
use gts_job::{JobId, JobSpec, WaitQueue};
use gts_topo::{GlobalGpuId, MachineId};
use std::time::Instant;

/// Scheduler construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// The placement policy to run.
    pub policy: Policy,
    /// Candidate-evaluation engine parameters:
    /// [`EvalParams::sequential`] selects the reference oracle.
    pub eval: EvalParams,
}

impl SchedulerConfig {
    /// Config with the environment-selected evaluation engine
    /// ([`EvalParams::from_env`]).
    pub fn new(policy: Policy) -> Self {
        Self { policy, eval: EvalParams::from_env() }
    }
}

/// What happened to one job during a scheduler iteration.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementOutcome {
    /// The job was placed on these GPUs with this utility.
    Placed {
        /// The placed job.
        spec: JobSpec,
        /// GPUs granted.
        gpus: Vec<GlobalGpuId>,
        /// Utility at decision time.
        utility: f64,
        /// True when the placement's utility is below the job's
        /// `min_utility` — an SLO violation the paper counts.
        slo_violated: bool,
    },
    /// TOPO-AWARE-P parked the job: its best utility was below threshold.
    PostponedLowUtility {
        /// The parked job.
        id: JobId,
        /// The rejected utility.
        utility: f64,
    },
    /// No feasible GPUs right now; the job waits for capacity.
    WaitingForCapacity {
        /// The waiting job.
        id: JobId,
    },
}

/// What [`Scheduler::cancel`] found and did.
#[derive(Debug, Clone, PartialEq)]
pub enum CancelOutcome {
    /// The job was waiting (postponed or not) and has been dropped.
    Dequeued,
    /// The job was running; its GPUs are free again and the returned
    /// allocation tells the driver what to tear down.
    Stopped(Allocation),
    /// No such job is known to the scheduler.
    NotFound,
}

/// The Algorithm 1 driver.
#[derive(Debug)]
pub struct Scheduler {
    policy: Policy,
    eval: EvalParams,
    /// The cross-event placement cache, alive for the whole run and sized
    /// by the cluster's racks ([`EvalCache::per_rack`]). The sequential
    /// reference never reads it.
    eval_cache: EvalCache,
    state: ClusterState,
    queue: WaitQueue,
    /// The decision memo (DESIGN.md §14.2): the answers of the jobs left
    /// unplaced since the state last changed, by replay key.
    memo: Vec<(ReplayKey, Option<Decision>)>,
    /// The state's version the memo's answers were decided on.
    memo_version: u64,
    /// Latencies of real decisions; answers from the memo are not
    /// decisions.
    stats: DecisionStats,
    /// Jobs answered from the memo instead of decided.
    replay_hits: u64,
    slo_violations: usize,
    postpone_counts: std::collections::HashMap<JobId, u32>,
    tracing: bool,
    now_s: f64,
    trace: Vec<TraceEvent>,
}

impl Scheduler {
    /// A scheduler over a fresh cluster state.
    pub fn new(state: ClusterState, config: SchedulerConfig) -> Self {
        let eval_cache = EvalCache::per_rack(state.cluster().n_racks());
        Self {
            policy: config.policy,
            eval: config.eval,
            eval_cache,
            memo_version: state.version(),
            state,
            queue: WaitQueue::new(),
            memo: Vec::new(),
            stats: DecisionStats::new(),
            replay_hits: 0,
            slo_violations: 0,
            postpone_counts: std::collections::HashMap::new(),
            tracing: false,
            now_s: 0.0,
            trace: Vec::new(),
        }
    }

    /// Counters of the cross-event cache.
    pub fn eval_cache_stats(&self) -> EvalCacheStats {
        self.eval_cache.stats()
    }

    /// Jobs answered from the decision memo so far instead of decided
    /// (DESIGN.md §14.4). Neither [`Scheduler::decision_stats`] nor any
    /// cache counter counts them.
    pub fn replay_hits(&self) -> u64 {
        self.replay_hits
    }

    /// Turns the decision-trace stream on or off. Off by default — tracing
    /// allocates per decision, so benches and steady-state runs pay nothing
    /// unless a driver opts in.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Whether the decision trace is being recorded.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Sets the wall-clock the next trace events will be stamped with.
    /// Drivers call this as their simulated (or real) time advances.
    pub fn set_now(&mut self, t_s: f64) {
        self.now_s = t_s;
    }

    /// Drains and returns the trace recorded so far.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.trace)
    }

    #[inline]
    fn emit(&mut self, event: TraceEvent) {
        if self.tracing {
            self.trace.push(event);
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Read access to the cluster state.
    pub fn state(&self) -> &ClusterState {
        &self.state
    }

    /// Mutable access to the cluster state — for drivers applying external
    /// events (machine failures/recoveries). Placement bookkeeping must
    /// still go through `place`/`complete`/`cancel`. Clears the decision
    /// memo: the caller may swap in a state whose version is equal.
    pub fn state_mut(&mut self) -> &mut ClusterState {
        self.memo.clear();
        &mut self.state
    }

    /// The waiting queue (arrival-ordered).
    pub fn queue(&self) -> &WaitQueue {
        &self.queue
    }

    /// Decision-latency statistics collected so far: one sample per
    /// `decide` call. Answers from the decision memo are not decisions and
    /// are left out ([`Scheduler::replay_hits`] counts them).
    pub fn decision_stats(&self) -> &DecisionStats {
        &self.stats
    }

    /// SLO violations recorded so far (placements below `min_utility`).
    pub fn slo_violations(&self) -> usize {
        self.slo_violations
    }

    /// How often a job has been postponed for low utility so far — the
    /// starvation-watch counter ("to avoid starvation ... the job waiting
    /// queue is sorted by the job's arrival time", §4.4).
    pub fn postpone_count(&self, id: JobId) -> u32 {
        self.postpone_counts.get(&id).copied().unwrap_or(0)
    }

    /// The highest postponement count any job has accumulated.
    pub fn max_postpone_count(&self) -> u32 {
        self.postpone_counts.values().copied().max().unwrap_or(0)
    }

    /// Removes and returns the head of the waiting queue without placing
    /// it. Drivers use this to evict a job that external analysis proved
    /// permanently unplaceable (it would otherwise block an in-order
    /// policy forever).
    pub fn drop_head(&mut self) -> Option<JobSpec> {
        self.queue.pop()
    }

    /// Enqueues an arriving job.
    pub fn submit(&mut self, job: JobSpec) {
        debug_assert!(job.validate().is_ok(), "invalid job submitted");
        self.emit(TraceEvent::Arrived { t_s: self.now_s, job: job.id });
        self.queue.add(job);
    }

    /// Releases a finished job's GPUs (the "a job has finished" wakeup
    /// event feeds this, then calls [`Scheduler::run_iteration`]).
    pub fn complete(&mut self, id: JobId) -> Allocation {
        self.emit(TraceEvent::Released { t_s: self.now_s, job: id });
        self.state.release(id)
    }

    /// Takes a machine offline, releasing nothing — the driver must have
    /// already cancelled (or migrated) the jobs running there. Emits a
    /// trace event, unlike raw `state_mut().set_machine_down`.
    pub fn fail_machine(&mut self, machine: MachineId) {
        self.emit(TraceEvent::MachineFailed { t_s: self.now_s, machine });
        self.state.set_machine_down(machine, true);
    }

    /// Brings a failed machine back into the pool.
    pub fn recover_machine(&mut self, machine: MachineId) {
        self.emit(TraceEvent::MachineRecovered { t_s: self.now_s, machine });
        self.state.set_machine_down(machine, false);
    }

    /// Cancels a job wherever it currently is.
    ///
    /// A queued job (postponed or not) is removed from the queue; a running job
    /// is released and its allocation returned so the driver can stop its
    /// execution. Unknown ids report [`CancelOutcome::NotFound`].
    pub fn cancel(&mut self, id: JobId) -> CancelOutcome {
        if self.queue.remove(id).is_some() {
            return CancelOutcome::Dequeued;
        }
        if self.state.allocation(id).is_some() {
            self.emit(TraceEvent::Released { t_s: self.now_s, job: id });
            return CancelOutcome::Stopped(self.state.release(id));
        }
        CancelOutcome::NotFound
    }

    /// One Algorithm 1 iteration: drains the queue as far as resources and
    /// the policy allow. Returns what happened, in processing order.
    ///
    /// The drain walks the queue in place: a placed job leaves it, an
    /// unplaced one keeps its slot, and an in-order policy stops at its
    /// blocked head. So the queue ends the iteration as it began minus the
    /// placed jobs, which is Algorithm 1's order once
    /// `Q.add(postponed_list)` has re-sorted the postponed jobs in
    /// (DESIGN.md §14.1).
    ///
    /// While the state's version holds, a job gets the same answer as any
    /// earlier unplaced job with its replay key (job class, `min_utility`,
    /// `single_node`): an untraced TOPO-AWARE(-P) job with a replay key
    /// takes that answer from the decision memo — a wait, or a
    /// postponement at the same utility — instead of deciding (DESIGN.md
    /// §14.2). The memo outlives the iteration; a placement, any other
    /// state change and [`Scheduler::state_mut`] clear it. Debug builds
    /// decide anyway and assert the two agree.
    pub fn run_iteration(&mut self) -> Vec<PlacementOutcome> {
        let mut outcomes = Vec::new();
        let postpones = self.policy.kind.postpones();
        self.refresh_memo();
        // The walk's position: every job before it stays queued, unplaced.
        let mut i = 0;
        while self.state.has_free_resources() {
            let Some(job) = self.queue.get(i) else { break };
            let id = job.id;
            let key = self.policy.replay_key(job, self.eval, self.tracing);
            let memo = key.as_ref().and_then(|k| self.memo.iter().find(|(seen, _)| seen == k));
            if let Some((_, answer)) = memo {
                #[cfg(debug_assertions)]
                debug_assert_memo_matches(&self.policy, &self.state, job, answer.as_ref());
                let utility = answer.as_ref().map(|d| d.utility);
                self.replay_hits += 1;
                match utility {
                    None => {
                        self.wait_for_capacity(id, &mut outcomes);
                        if !postpones {
                            break;
                        }
                    }
                    Some(u) => self.postpone_low_utility(id, u, &mut outcomes),
                }
                i += 1;
                continue;
            }

            let started = Instant::now();
            let mut evals = Vec::new();
            let decision = self.policy.decide_with(
                &self.state,
                job,
                self.eval,
                Some(&self.eval_cache),
                self.tracing.then_some(&mut evals),
            );
            self.stats.record(started.elapsed());
            if !evals.is_empty() {
                self.trace.push(TraceEvent::Evaluated {
                    t_s: self.now_s,
                    job: id,
                    candidates: evals,
                });
            }

            let min_utility = job.min_utility;
            match decision {
                None => {
                    self.wait_for_capacity(id, &mut outcomes);
                    if let Some(k) = key {
                        self.memo.push((k, None));
                    }
                    if !postpones {
                        // In-order policies block on the head job.
                        break;
                    }
                    // Out-of-order execution: leave it queued, keep draining.
                    i += 1;
                }
                Some(d) => {
                    let below = d.utility + 1e-9 < min_utility;
                    if below && postpones {
                        self.postpone_low_utility(id, d.utility, &mut outcomes);
                        if let Some(k) = key {
                            self.memo.push((k, Some(d)));
                        }
                        i += 1;
                    } else {
                        if below {
                            self.slo_violations += 1;
                        }
                        if self.tracing {
                            let mut machines: Vec<MachineId> =
                                d.gpus.iter().map(|g| g.machine).collect();
                            machines.sort_unstable();
                            machines.dedup();
                            if machines.len() > 1 {
                                self.trace.push(TraceEvent::Spilled {
                                    t_s: self.now_s,
                                    job: id,
                                    machines,
                                });
                            }
                            self.trace.push(TraceEvent::Placed {
                                t_s: self.now_s,
                                job: id,
                                gpus: d.gpus.clone(),
                                utility: d.utility,
                                slo_violated: below,
                            });
                        }
                        let job = self.queue.take(i).expect("the walk reads a queued job");
                        outcomes.push(PlacementOutcome::Placed {
                            spec: job.clone(),
                            gpus: d.gpus.clone(),
                            utility: d.utility,
                            slo_violated: below,
                        });
                        self.state.place(job, d.gpus, d.utility);
                        self.refresh_memo();
                    }
                }
            }
        }
        #[cfg(debug_assertions)]
        if let Err(e) = self.audit() {
            panic!("Scheduler::audit failed after iteration: {e}");
        }
        outcomes
    }

    /// Forgets the memo's answers once the state's version has moved past
    /// the one they were decided on.
    fn refresh_memo(&mut self) {
        let version = self.state.version();
        if self.memo_version != version {
            self.memo.clear();
            self.memo_version = version;
        }
    }

    /// Records that no GPUs could be found for job `id`; it stays queued.
    fn wait_for_capacity(&mut self, id: JobId, outcomes: &mut Vec<PlacementOutcome>) {
        self.emit(TraceEvent::Waiting { t_s: self.now_s, job: id });
        outcomes.push(PlacementOutcome::WaitingForCapacity { id });
    }

    /// Postpones job `id`, whose best placement scored `utility`, below its
    /// `min_utility`; it stays queued.
    fn postpone_low_utility(
        &mut self,
        id: JobId,
        utility: f64,
        outcomes: &mut Vec<PlacementOutcome>,
    ) {
        *self.postpone_counts.entry(id).or_insert(0) += 1;
        self.emit(TraceEvent::Postponed { t_s: self.now_s, job: id, utility });
        outcomes.push(PlacementOutcome::PostponedLowUtility { id, utility });
    }

    /// Cross-checks the scheduler's bookkeeping on top of
    /// [`ClusterState::audit`]: a job must live in exactly one place — the
    /// waiting queue or the running set — and the queue must be
    /// duplicate-free.
    pub fn audit(&self) -> Result<(), String> {
        self.state.audit()?;
        let mut seen = std::collections::HashSet::new();
        for job in self.queue.iter() {
            if !seen.insert(job.id) {
                return Err(format!("{} queued twice", job.id));
            }
            if self.state.allocation(job.id).is_some() {
                return Err(format!("{} is both queued and running", job.id));
            }
        }
        Ok(())
    }
}

/// Debug shadow behind every answer from the decision memo: decide the
/// job afresh, with no cache (so no cache hit), and assert the decision
/// equals the memoised one GPU for GPU and bit for bit.
#[cfg(debug_assertions)]
fn debug_assert_memo_matches(
    policy: &Policy,
    state: &ClusterState,
    job: &JobSpec,
    memo: Option<&Decision>,
) {
    let fresh = policy.fresh_class_decision(state, job);
    let bits = |d: Option<&Decision>| d.map(|d| (d.gpus.clone(), d.utility.to_bits()));
    assert_eq!(
        bits(memo),
        bits(fresh.as_ref()),
        "{}: the memoised answer diverges from a fresh decision",
        job.id
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Policy, PolicyKind};
    use gts_job::{BatchClass, NnModel};
    use gts_perf::ProfileLibrary;
    use gts_topo::{power8_minsky, ClusterTopology, GlobalGpuId, GpuId, MachineId};
    use std::sync::Arc;

    fn scheduler(kind: PolicyKind, n_machines: usize) -> Scheduler {
        let machine = power8_minsky();
        let profiles = Arc::new(ProfileLibrary::generate(&machine, 1));
        let cluster = Arc::new(ClusterTopology::homogeneous(machine, n_machines));
        Scheduler::new(
            ClusterState::new(cluster, profiles),
            SchedulerConfig::new(Policy::new(kind)),
        )
    }

    fn job(id: u64, gpus: u32, min_utility: f64) -> JobSpec {
        JobSpec::new(id, NnModel::AlexNet, BatchClass::Tiny, gpus)
            .with_min_utility(min_utility)
            .arriving_at(id as f64)
    }

    fn placed_ids(outcomes: &[PlacementOutcome]) -> Vec<JobId> {
        outcomes
            .iter()
            .filter_map(|o| match o {
                PlacementOutcome::Placed { spec, .. } => Some(spec.id),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn places_jobs_in_arrival_order() {
        let mut s = scheduler(PolicyKind::TopoAware, 1);
        s.submit(job(1, 1, 0.3));
        s.submit(job(0, 1, 0.3));
        let outcomes = s.run_iteration();
        assert_eq!(placed_ids(&outcomes), vec![JobId(0), JobId(1)]);
        assert_eq!(s.state().n_running(), 2);
        assert_eq!(s.decision_stats().count(), 2);
    }

    #[test]
    fn topo_aware_p_postpones_low_utility_placements() {
        let mut s = scheduler(PolicyKind::TopoAwareP, 1);
        // Fill one GPU per socket so a 2-GPU job faces a forced spread.
        s.submit(job(0, 1, 0.3));
        s.submit(job(1, 1, 0.3));
        s.run_iteration();
        // TOPO-AWARE-P put the two 1-GPU jobs on *different* sockets? No:
        // it placed them one by one; the second avoids the first's socket
        // (interference), so GPUs 0 and 2 are taken.
        let mut busy: Vec<GpuId> = s
            .state()
            .running()
            .flat_map(|a| a.gpus_on(MachineId(0)))
            .collect();
        busy.sort_unstable();
        assert_eq!(busy, vec![GpuId(0), GpuId(2)]);

        s.submit(job(2, 2, 0.5));
        let outcomes = s.run_iteration();
        assert!(matches!(
            outcomes[..],
            [PlacementOutcome::PostponedLowUtility { id: JobId(2), .. }]
        ));
        assert_eq!(s.state().n_running(), 2);
        // Parked job is back in the queue for the next iteration.
        assert!(s.queue().contains(JobId(2)));
        assert_eq!(s.slo_violations(), 0);

        // Once a socket frees up entirely, the job lands packed.
        s.complete(JobId(0));
        let outcomes = s.run_iteration();
        match &outcomes[..] {
            [PlacementOutcome::Placed { spec, gpus, utility, slo_violated }] => {
                assert_eq!(spec.id, JobId(2));
                let topo = s.state().cluster().machine(MachineId(0));
                let local: Vec<GpuId> = gpus.iter().map(|g| g.gpu).collect();
                assert!(topo.is_packed(&local), "got {local:?}");
                assert!(*utility >= 0.5, "got {utility}");
                assert!(!slo_violated);
            }
            other => panic!("unexpected outcomes {other:?}"),
        }
    }

    #[test]
    fn topo_aware_places_even_below_threshold_and_counts_violation() {
        let mut s = scheduler(PolicyKind::TopoAware, 1);
        s.submit(job(0, 1, 0.3));
        s.submit(job(1, 1, 0.3));
        s.run_iteration();
        s.submit(job(2, 2, 0.5));
        let outcomes = s.run_iteration();
        match &outcomes[..] {
            [PlacementOutcome::Placed { utility, slo_violated, .. }] => {
                assert!(*utility < 0.5);
                assert!(*slo_violated);
            }
            other => panic!("unexpected outcomes {other:?}"),
        }
        assert_eq!(s.slo_violations(), 1);
    }

    #[test]
    fn in_order_policies_block_behind_the_head_job() {
        let mut s = scheduler(PolicyKind::Fcfs, 1);
        s.submit(job(0, 3, 0.0));
        s.run_iteration();
        // A 3-GPU job leaves one GPU; the 2-GPU job is stuck, and the
        // 1-GPU job behind it must NOT jump the line under FCFS.
        s.submit(job(1, 2, 0.0));
        s.submit(job(2, 1, 0.0));
        let outcomes = s.run_iteration();
        assert_eq!(placed_ids(&outcomes), vec![]);
        assert!(matches!(
            outcomes[..],
            [PlacementOutcome::WaitingForCapacity { id: JobId(1) }]
        ));
        assert_eq!(s.queue().len(), 2);

        s.complete(JobId(0));
        let outcomes = s.run_iteration();
        assert_eq!(placed_ids(&outcomes), vec![JobId(1), JobId(2)]);
    }

    #[test]
    fn postponing_policy_lets_small_jobs_through() {
        let mut s = scheduler(PolicyKind::TopoAwareP, 1);
        s.submit(job(0, 4, 0.0));
        s.run_iteration();
        s.submit(job(1, 2, 0.0));
        s.submit(job(2, 1, 0.0));
        let outcomes = s.run_iteration();
        // No capacity for either (machine fully busy) — has_free_resources
        // is false, so nothing even gets popped.
        assert!(outcomes.is_empty());
        s.complete(JobId(0));
        let outcomes = s.run_iteration();
        assert_eq!(placed_ids(&outcomes), vec![JobId(1), JobId(2)]);
    }

    #[test]
    fn iteration_terminates_with_everything_postponed() {
        let mut s = scheduler(PolicyKind::TopoAwareP, 1);
        s.submit(job(0, 1, 0.3));
        s.submit(job(1, 1, 0.3));
        s.run_iteration();
        // Remaining GPUs are one per socket; two 2-GPU jobs will both be
        // postponed — the iteration must still end.
        s.submit(job(2, 2, 0.5));
        s.submit(job(3, 2, 0.5));
        let outcomes = s.run_iteration();
        assert_eq!(outcomes.len(), 2);
        assert!(placed_ids(&outcomes).is_empty());
        assert!(s.queue().contains(JobId(2)) && s.queue().contains(JobId(3)));
    }

    #[test]
    fn cancel_covers_queued_postponed_and_running_jobs() {
        use super::CancelOutcome;
        let mut s = scheduler(PolicyKind::TopoAwareP, 1);
        // Running job.
        s.submit(job(0, 1, 0.3));
        s.run_iteration();
        // Queued job that cannot start (machine needs to free up for 4).
        s.submit(job(1, 4, 0.0));
        s.run_iteration();

        // Cancel the queued one: capacity accounting untouched.
        assert_eq!(s.cancel(JobId(1)), CancelOutcome::Dequeued);
        assert!(!s.queue().contains(JobId(1)));

        // Cancel the running one: GPUs come back.
        let before = s.state().total_free();
        match s.cancel(JobId(0)) {
            CancelOutcome::Stopped(alloc) => assert_eq!(alloc.spec.id, JobId(0)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.state().total_free(), before + 1);

        // Unknown job.
        assert_eq!(s.cancel(JobId(42)), CancelOutcome::NotFound);
    }

    #[test]
    fn cancelling_a_blocking_head_unblocks_fcfs() {
        use super::CancelOutcome;
        let mut s = scheduler(PolicyKind::Fcfs, 1);
        s.submit(job(0, 3, 0.0));
        s.run_iteration();
        s.submit(job(1, 2, 0.0)); // stuck behind capacity
        s.submit(job(2, 1, 0.0)); // stuck behind J1 (in-order)
        s.run_iteration();
        assert_eq!(s.state().n_running(), 1);

        assert_eq!(s.cancel(JobId(1)), CancelOutcome::Dequeued);
        let outcomes = s.run_iteration();
        assert_eq!(placed_ids(&outcomes), vec![JobId(2)], "J2 should now run");
    }

    /// TOPO-AWARE-P on two one-machine racks with machine 0 full and
    /// machine 1 holding one 1-GPU job per socket: a 2-GPU job there faces
    /// a forced spread.
    fn split_racks() -> Scheduler {
        let machine = power8_minsky();
        let profiles = Arc::new(ProfileLibrary::generate(&machine, 1));
        let cluster = Arc::new(ClusterTopology::homogeneous_racked(machine, 2, 1));
        let mut s = Scheduler::new(
            ClusterState::new(cluster, profiles),
            SchedulerConfig {
                policy: Policy::new(PolicyKind::TopoAwareP),
                eval: EvalParams::parallel(2),
            },
        );
        let on = |m: u32, gpus: &[u32]| -> Vec<GlobalGpuId> {
            gpus.iter().map(|&g| GlobalGpuId { machine: MachineId(m), gpu: GpuId(g) }).collect()
        };
        s.state.place(job(100, 4, 0.0), on(0, &[0, 1, 2, 3]), 1.0);
        s.state.place(job(101, 1, 0.0), on(1, &[0]), 1.0);
        s.state.place(job(102, 1, 0.0), on(1, &[2]), 1.0);
        s
    }

    #[test]
    fn same_key_jobs_reuse_an_unplaced_answer() {
        let mut s = split_racks();
        s.submit(job(0, 2, 0.5));
        s.submit(job(1, 2, 0.5));
        let outcomes = s.run_iteration();
        match &outcomes[..] {
            [
                PlacementOutcome::PostponedLowUtility { id: JobId(0), utility: first },
                PlacementOutcome::PostponedLowUtility { id: JobId(1), utility: second },
            ] => assert_eq!(first.to_bits(), second.to_bits()),
            other => panic!("unexpected outcomes {other:?}"),
        }
        assert_eq!(s.postpone_count(JobId(1)), 1);
        assert_eq!(s.replay_hits(), 1);
        assert_eq!(s.decision_stats().count(), 1, "an answer from the memo is not a decision");

        // An arrival changes no state, so the memo carries over: jobs 0
        // and 1 take its answer again. A different min_utility is a
        // different key: job 2 is decided.
        s.submit(job(2, 2, 0.45));
        s.run_iteration();
        assert_eq!(s.replay_hits(), 3, "jobs 0 and 1 from the memo, not job 2");
        assert_eq!(s.decision_stats().count(), 2);
        assert_eq!(s.postpone_count(JobId(0)), 2);
    }

    #[test]
    fn a_placement_clears_the_reusable_answers() {
        let mut s = split_racks();
        s.submit(job(0, 2, 0.5));
        s.submit(job(1, 1, 0.0));
        s.submit(job(2, 2, 0.5));
        let outcomes = s.run_iteration();
        // Job 1 takes one of machine 1's two free GPUs, so job 2, of job
        // 0's key, finds no room at all instead of job 0's spread.
        assert!(
            matches!(
                outcomes[..],
                [
                    PlacementOutcome::PostponedLowUtility { id: JobId(0), .. },
                    PlacementOutcome::Placed { .. },
                    PlacementOutcome::WaitingForCapacity { id: JobId(2) },
                ]
            ),
            "unexpected outcomes {outcomes:?}"
        );
        assert_eq!(s.replay_hits(), 0);
        assert_eq!(s.decision_stats().count(), 3);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(100))]

        /// Every policy on 1–3 Minsky machines, some GPUs held by pre-placed
        /// 1-GPU jobs, with 2–12 queued jobs of mixed widths, batch classes
        /// and `min_utility`, on arrival times with ties. The drain runs
        /// until the queue empties or nothing runs, one job retiring
        /// between drains. After every drain the queue must be the queue
        /// before it minus exactly the placed jobs, in order, and every job
        /// left waiting or postponed must still be queued.
        #[test]
        fn a_drain_keeps_unplaced_jobs_in_queue_order(
            kind in proptest::sample::select(PolicyKind::ALL.to_vec()),
            n_machines in 1usize..4,
            busy in proptest::collection::vec(proptest::bool::ANY, 12),
            queued in proptest::collection::vec((1u32..5, 0usize..3, 0usize..2, 0u32..4), 2..13),
        ) {
            let mut s = scheduler(kind, n_machines);
            for slot in (0..4 * n_machines).filter(|&slot| busy[slot]) {
                let (machine, gpu) = (MachineId(slot as u32 / 4), GpuId(slot as u32 % 4));
                let gpus = vec![GlobalGpuId { machine, gpu }];
                s.state.place(job(1000 + slot as u64, 1, 0.0), gpus, 1.0);
            }
            for (id, &(width, u, batch, arrival)) in queued.iter().enumerate() {
                let batch = [BatchClass::Tiny, BatchClass::Big][batch];
                s.submit(
                    JobSpec::new(id as u64, NnModel::AlexNet, batch, width)
                        .with_min_utility([0.0, 0.5, 0.9][u])
                        .arriving_at(f64::from(arrival)),
                );
            }
            for drain in 0.. {
                let before: Vec<JobId> = s.queue().iter().map(|j| j.id).collect();
                let outcomes = s.run_iteration();
                let placed = placed_ids(&outcomes);
                let after: Vec<JobId> = s.queue().iter().map(|j| j.id).collect();
                let want: Vec<JobId> =
                    before.iter().copied().filter(|id| !placed.contains(id)).collect();
                proptest::prop_assert_eq!(&after, &want, "{} drain {}", kind, drain);
                proptest::prop_assert_eq!(
                    before.len() - after.len(),
                    placed.len(),
                    "{} drain {}: placed {:?}", kind, drain, placed
                );
                for o in &outcomes {
                    if let PlacementOutcome::WaitingForCapacity { id }
                    | PlacementOutcome::PostponedLowUtility { id, .. } = o
                    {
                        proptest::prop_assert!(
                            s.queue().contains(*id),
                            "{} drain {}: {} left the queue unplaced", kind, drain, id
                        );
                    }
                }
                if s.queue().is_empty() {
                    break;
                }
                match s.state().running().map(|a| a.spec.id).min() {
                    Some(id) => {
                        s.complete(id);
                    }
                    None => break,
                }
            }
        }
    }

    #[test]
    fn best_fit_consolidates_onto_used_machines() {
        let mut s = scheduler(PolicyKind::BestFit, 2);
        s.submit(job(0, 2, 0.0));
        s.run_iteration();
        s.submit(job(1, 2, 0.0));
        let outcomes = s.run_iteration();
        match &outcomes[..] {
            [PlacementOutcome::Placed { gpus, .. }] => {
                assert_eq!(gpus[0].machine, MachineId(0), "BF packs machine 0 first");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
