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
//! (`gts-proto`), which call [`Scheduler::run_iteration_into`] or
//! [`Scheduler::run_iteration`] whenever a job arrives or finishes ("wakeup
//! after an event").
//!
//! The drain walks the queue in place (DESIGN.md §14): a job it does not
//! place keeps its slot, which is where `Q.add(postponed_list)` would put
//! it back, so only placed jobs leave the queue. A TOPO-AWARE(-P) job whose
//! replay key matches an earlier unplaced job's gets that answer from the
//! scheduler's decision memo instead of a decision, for as long as the
//! cluster state's version holds, across iterations too. Both the key and
//! the job's class are interned once, at submit, to dense ids that ride in
//! the job's queue slot.

use crate::eval::{EvalCache, EvalCacheStats, EvalParams, JobClassId, JOB_CLASS_BOUND};
use crate::overhead::DecisionStats;
use crate::policy::{Decision, Policy};
use crate::state::{Allocation, ClusterState};
use crate::trace::TraceEvent;
use gts_job::{JobId, JobSpec, WaitQueue};
use gts_topo::MachineId;
use std::collections::HashMap;
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
        Self {
            policy,
            eval: EvalParams::from_env(),
        }
    }
}

/// What happened to one job during a scheduler iteration: a 24-byte record
/// the drain writes for every job it walks (DESIGN.md §14.9). A placed
/// job's spec and GPUs live in its allocation,
/// `Scheduler::state().allocation(id)`, from the placement until the job
/// is released.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlacementOutcome {
    /// The job was placed with this utility.
    Placed {
        /// The placed job.
        id: JobId,
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

const _: () = assert!(std::mem::size_of::<PlacementOutcome>() <= 24);

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

/// Dense id of a replay key: a job class, a `min_utility` bit pattern and
/// a `single_node` flag (DESIGN.md §14.2).
type ReplayId = u32;

/// The dense ids the scheduler interned for a queued job, riding in its
/// queue slot: the job-class id its cache lookups go by and the replay id
/// its decision-memo answers go by, both interned by
/// [`Scheduler::submit`], and the index of its postponement count, given
/// at its first postponement. A job that takes no class-level decision
/// has no class or replay id; a job whose class or replay key came past
/// the interning bound lacks that id and is decided uncached or
/// unmemoised.
#[derive(Debug, Clone, Copy, Default)]
pub struct Interned {
    class: Option<JobClassId>,
    replay: Option<ReplayId>,
    postponed: Option<u32>,
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
    queue: WaitQueue<Interned>,
    /// Replay keys `(job class, min_utility bits, single_node)` interned so
    /// far, at most [`JOB_CLASS_BOUND`].
    replay_ids: HashMap<(JobClassId, u64, bool), ReplayId>,
    /// The decision memo (DESIGN.md §14.2), indexed by replay id: the
    /// answer of the last unplaced job of that key and the memo epoch it
    /// was decided in. Only answers of the current epoch count.
    memo: Vec<(u64, Option<Decision>)>,
    /// The current memo epoch; advancing it forgets every answer.
    memo_epoch: u64,
    /// The state's version the current epoch's answers were decided on.
    memo_version: u64,
    /// Latencies of real decisions; answers from the memo are not
    /// decisions.
    stats: DecisionStats,
    /// Jobs answered from the memo instead of decided.
    replay_hits: u64,
    slo_violations: usize,
    /// Postponements so far of every job ever postponed, by postponement
    /// index: the walk bumps a count through the index in the job's queue
    /// slot, and the count outlives the job's placement and restarts.
    postpone_counts: Vec<u32>,
    /// The postponement index of every job ever postponed, by id.
    postpone_index: HashMap<JobId, u32>,
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
            queue: WaitQueue::default(),
            replay_ids: HashMap::new(),
            memo: Vec::new(),
            memo_epoch: 1,
            stats: DecisionStats::new(),
            replay_hits: 0,
            slo_violations: 0,
            postpone_counts: Vec::new(),
            postpone_index: HashMap::new(),
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
        self.memo_epoch += 1;
        &mut self.state
    }

    /// The waiting queue (arrival-ordered).
    pub fn queue(&self) -> &WaitQueue<Interned> {
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
        self.postpone_index
            .get(&id)
            .map_or(0, |&k| self.postpone_counts[k as usize])
    }

    /// Removes and returns the head of the waiting queue without placing
    /// it. Drivers use this to evict a job that external analysis proved
    /// permanently unplaceable (it would otherwise block an in-order
    /// policy forever).
    pub fn drop_head(&mut self) -> Option<JobSpec> {
        self.queue.pop()
    }

    /// Enqueues an arriving job, with the ids interned for it (DESIGN.md
    /// §14.2) in its queue slot.
    pub fn submit(&mut self, job: JobSpec) {
        debug_assert!(job.validate().is_ok(), "invalid job submitted");
        self.emit(TraceEvent::Arrived {
            t_s: self.now_s,
            job: job.id,
        });
        let interned = self.intern(&job);
        self.queue.add_tagged(job, interned);
    }

    /// Interns `job`'s class in the cross-event cache and its replay key
    /// in the memo, once per submit, so that no walk step builds a key. A
    /// job off the class path (FCFS, BF, the sequential reference,
    /// anti-collocated jobs) gets neither id.
    fn intern(&mut self, job: &JobSpec) -> Interned {
        if !self.policy.takes_class_path(job, self.eval) {
            return Interned::default();
        }
        let Some(class) = self.eval_cache.intern(job, self.policy.weights) else {
            return Interned::default();
        };
        let key = (
            class,
            job.min_utility.to_bits(),
            job.constraints.single_node,
        );
        let next = self.replay_ids.len();
        let replay = match self.replay_ids.get(&key) {
            Some(&id) => Some(id),
            None if next >= JOB_CLASS_BOUND => None,
            None => {
                self.replay_ids.insert(key, next as ReplayId);
                self.memo.push((0, None));
                Some(next as ReplayId)
            }
        };
        Interned {
            class: Some(class),
            replay,
            postponed: None,
        }
    }

    /// Releases a finished job's GPUs (the "a job has finished" wakeup
    /// event feeds this, then calls [`Scheduler::run_iteration`]).
    pub fn complete(&mut self, id: JobId) -> Allocation {
        self.emit(TraceEvent::Released {
            t_s: self.now_s,
            job: id,
        });
        self.state.release(id)
    }

    /// Takes a machine offline, releasing nothing — the driver must have
    /// already cancelled (or migrated) the jobs running there. Emits a
    /// trace event, unlike raw `state_mut().set_machine_down`.
    pub fn fail_machine(&mut self, machine: MachineId) {
        self.emit(TraceEvent::MachineFailed {
            t_s: self.now_s,
            machine,
        });
        self.state.set_machine_down(machine, true);
    }

    /// Brings a failed machine back into the pool.
    pub fn recover_machine(&mut self, machine: MachineId) {
        self.emit(TraceEvent::MachineRecovered {
            t_s: self.now_s,
            machine,
        });
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
            self.emit(TraceEvent::Released {
                t_s: self.now_s,
                job: id,
            });
            return CancelOutcome::Stopped(self.state.release(id));
        }
        CancelOutcome::NotFound
    }

    /// One Algorithm 1 iteration into a fresh vector: see
    /// [`Scheduler::run_iteration_into`]. A driver that drains often keeps
    /// one buffer and calls that instead.
    pub fn run_iteration(&mut self) -> Vec<PlacementOutcome> {
        let mut outcomes = Vec::new();
        self.run_iteration_into(&mut outcomes);
        outcomes
    }

    /// One Algorithm 1 iteration: drains the queue as far as resources and
    /// the policy allow. Clears `outcomes`, keeping its capacity, and fills
    /// it with what happened to every walked job, in processing order; a
    /// placed job's GPUs are in [`Scheduler::state`]'s allocation of it.
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
    pub fn run_iteration_into(&mut self, outcomes: &mut Vec<PlacementOutcome>) {
        outcomes.clear();
        let postpones = self.policy.kind.postpones();
        self.refresh_memo();
        // The walk's position: every job before it stays queued, unplaced.
        let mut i = 0;
        while self.state.has_free_resources() {
            let Some((job, &interned)) = self.queue.slot(i) else {
                break;
            };
            let id = job.id;
            let replay = interned
                .replay
                .filter(|_| !self.tracing)
                .map(|r| r as usize);
            let memo = replay
                .map(|r| &self.memo[r])
                .filter(|(epoch, _)| *epoch == self.memo_epoch);
            if let Some((_, answer)) = memo {
                #[cfg(debug_assertions)]
                debug_assert_memo_matches(&self.policy, &self.state, job, answer.as_ref());
                let utility = answer.as_ref().map(|d| d.utility);
                self.replay_hits += 1;
                match utility {
                    None => {
                        self.wait_for_capacity(id, outcomes);
                        if !postpones {
                            break;
                        }
                    }
                    Some(u) => self.postpone_low_utility(i, id, u, outcomes),
                }
                i += 1;
                continue;
            }

            let started = Instant::now();
            let mut evals = Vec::new();
            let decision = self.policy.decide_interned(
                &self.state,
                job,
                self.eval,
                interned.class.map(|class| (&self.eval_cache, class)),
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
                    self.wait_for_capacity(id, outcomes);
                    if let Some(r) = replay {
                        self.memo[r] = (self.memo_epoch, None);
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
                        self.postpone_low_utility(i, id, d.utility, outcomes);
                        if let Some(r) = replay {
                            self.memo[r] = (self.memo_epoch, Some(d));
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
                            id,
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
    }

    /// Forgets the memo's answers, by starting a new epoch, once the
    /// state's version has moved past the one they were decided on.
    fn refresh_memo(&mut self) {
        let version = self.state.version();
        if self.memo_version != version {
            self.memo_epoch += 1;
            self.memo_version = version;
        }
    }

    /// Records that no GPUs could be found for job `id`; it stays queued.
    fn wait_for_capacity(&mut self, id: JobId, outcomes: &mut Vec<PlacementOutcome>) {
        self.emit(TraceEvent::Waiting {
            t_s: self.now_s,
            job: id,
        });
        outcomes.push(PlacementOutcome::WaitingForCapacity { id });
    }

    /// Postpones job `id`, at position `i` of the queue, whose best
    /// placement scored `utility`, below its `min_utility`; it stays
    /// queued. Its count is found through its slot's postponement index;
    /// only a job's first postponement in a slot looks the index up by id.
    fn postpone_low_utility(
        &mut self,
        i: usize,
        id: JobId,
        utility: f64,
        outcomes: &mut Vec<PlacementOutcome>,
    ) {
        let slot = self.queue.tag_mut(i).expect("the walk reads a queued job");
        let k = *slot.postponed.get_or_insert_with(|| {
            let next = u32::try_from(self.postpone_counts.len()).expect("under 2^32 jobs");
            let k = *self.postpone_index.entry(id).or_insert(next);
            if k == next {
                self.postpone_counts.push(0);
            }
            k
        });
        self.postpone_counts[k as usize] += 1;
        self.emit(TraceEvent::Postponed {
            t_s: self.now_s,
            job: id,
            utility,
        });
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
    use gts_job::{BatchClass, JobGraph, NnModel};
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
                PlacementOutcome::Placed { id, .. } => Some(*id),
                _ => None,
            })
            .collect()
    }

    /// The GPUs of job `id`, read from the state's allocation.
    fn gpus_of(s: &Scheduler, id: JobId) -> Vec<GlobalGpuId> {
        s.state()
            .allocation(id)
            .expect("a placed job runs")
            .gpus
            .clone()
    }

    /// Each outcome with the GPUs its job holds in `s`: its allocation's
    /// for a placed job, none otherwise.
    fn with_gpus(
        s: &Scheduler,
        outcomes: &[PlacementOutcome],
    ) -> Vec<(PlacementOutcome, Vec<GlobalGpuId>)> {
        let gpus = |o: &PlacementOutcome| match *o {
            PlacementOutcome::Placed { id, .. } => gpus_of(s, id),
            _ => Vec::new(),
        };
        outcomes.iter().map(|o| (*o, gpus(o))).collect()
    }

    /// One drain's outcomes, each with the GPUs its job holds right after
    /// the drain.
    fn drain(s: &mut Scheduler) -> Vec<(PlacementOutcome, Vec<GlobalGpuId>)> {
        let outcomes = s.run_iteration();
        with_gpus(s, &outcomes)
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
            [PlacementOutcome::Placed {
                id,
                utility,
                slo_violated,
            }] => {
                assert_eq!(*id, JobId(2));
                let topo = s.state().cluster().machine(MachineId(0));
                let local: Vec<GpuId> = gpus_of(&s, *id).iter().map(|g| g.gpu).collect();
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
            [PlacementOutcome::Placed {
                utility,
                slo_violated,
                ..
            }] => {
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
        split_racks_with(EvalParams::parallel(2))
    }

    /// [`split_racks`] on the given evaluation path.
    fn split_racks_with(eval: EvalParams) -> Scheduler {
        let machine = power8_minsky();
        let profiles = Arc::new(ProfileLibrary::generate(&machine, 1));
        let cluster = Arc::new(ClusterTopology::homogeneous_racked(machine, 2, 1));
        let mut s = Scheduler::new(
            ClusterState::new(cluster, profiles),
            SchedulerConfig {
                policy: Policy::new(PolicyKind::TopoAwareP),
                eval,
            },
        );
        let on = |m: u32, gpus: &[u32]| -> Vec<GlobalGpuId> {
            gpus.iter()
                .map(|&g| GlobalGpuId {
                    machine: MachineId(m),
                    gpu: GpuId(g),
                })
                .collect()
        };
        s.state.place(job(100, 4, 0.0), on(0, &[0, 1, 2, 3]), 1.0);
        s.state.place(job(101, 1, 0.0), on(1, &[0]), 1.0);
        s.state.place(job(102, 1, 0.0), on(1, &[2]), 1.0);
        s
    }

    /// `run_iteration_into` clears a buffer it is handed, keeps its
    /// capacity, and fills it with exactly what `run_iteration` returns:
    /// over a backlog on [`split_racks`] whose drains postpone, answer
    /// from the memo, place, wait and stop for lack of free GPUs, driven
    /// side by side on two schedulers.
    #[test]
    fn run_iteration_into_refills_a_reused_buffer() {
        let (mut fresh, mut reused) = (split_racks(), split_racks());
        let backlog = [
            job(0, 2, 0.5),
            job(1, 2, 0.5),
            job(2, 1, 0.0),
            job(3, 2, 0.5),
            job(4, 1, 0.0),
        ];
        for spec in backlog {
            fresh.submit(spec.clone());
            reused.submit(spec);
        }
        let stale = PlacementOutcome::WaitingForCapacity { id: JobId(999) };
        let mut buffer = vec![stale; 3];
        buffer.reserve(16);
        let capacity = buffer.capacity();
        let mut kinds = Vec::new();
        for release in [None, Some(JobId(100)), Some(JobId(2)), Some(JobId(101))] {
            if let Some(id) = release {
                fresh.complete(id);
                reused.complete(id);
            }
            let want = drain(&mut fresh);
            reused.run_iteration_into(&mut buffer);
            assert_eq!(buffer.capacity(), capacity, "the buffer was reallocated");
            assert_eq!(
                with_gpus(&reused, &buffer),
                want,
                "after releasing {release:?}"
            );
            kinds.extend(want.iter().map(|(o, _)| match o {
                PlacementOutcome::Placed { .. } => "placed",
                PlacementOutcome::PostponedLowUtility { .. } => "postponed",
                PlacementOutcome::WaitingForCapacity { .. } => "waiting",
            }));
        }
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds, ["placed", "postponed", "waiting"]);
        assert_eq!(reused.replay_hits(), fresh.replay_hits());
        assert!(
            reused.replay_hits() > 0,
            "the backlog never reached the memo"
        );
        assert!(reused.queue().is_empty(), "the backlog did not drain");
    }

    #[test]
    fn same_key_jobs_reuse_an_unplaced_answer() {
        let mut s = split_racks();
        s.submit(job(0, 2, 0.5));
        s.submit(job(1, 2, 0.5));
        let outcomes = s.run_iteration();
        match &outcomes[..] {
            [PlacementOutcome::PostponedLowUtility {
                id: JobId(0),
                utility: first,
            }, PlacementOutcome::PostponedLowUtility {
                id: JobId(1),
                utility: second,
            }] => assert_eq!(first.to_bits(), second.to_bits()),
            other => panic!("unexpected outcomes {other:?}"),
        }
        assert_eq!(s.postpone_count(JobId(1)), 1);
        assert_eq!(s.replay_hits(), 1);
        assert_eq!(
            s.decision_stats().count(),
            1,
            "an answer from the memo is not a decision"
        );

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

    #[test]
    fn a_postponed_pipeline_job_is_memoised_until_a_placement() {
        let mut s = split_racks();
        let pipeline = |id| job(id, 2, 0.5).with_comm_graph(JobGraph::pipeline(2, 4.0));
        s.submit(pipeline(0));
        let outcomes = s.run_iteration();
        assert!(
            matches!(
                outcomes[..],
                [PlacementOutcome::PostponedLowUtility { id: JobId(0), .. }]
            ),
            "unexpected outcomes {outcomes:?}"
        );
        assert_eq!(s.decision_stats().count(), 1);

        // An arrival changes no state: job 0 takes its answer from the
        // memo, and so does job 1, whose graph equals job 0's.
        s.submit(pipeline(1));
        s.run_iteration();
        assert_eq!(s.replay_hits(), 2);
        assert_eq!(s.decision_stats().count(), 1);
        assert_eq!(s.postpone_count(JobId(0)), 2);

        // Job 2 lands behind them, taking one of the two free GPUs, and
        // its placement clears the memo.
        s.submit(job(2, 1, 0.0));
        let outcomes = s.run_iteration();
        assert_eq!(placed_ids(&outcomes), vec![JobId(2)]);
        assert_eq!((s.replay_hits(), s.decision_stats().count()), (4, 2));

        // So the next drain decides job 0 afresh: with one GPU left it now
        // waits, and job 1 takes that answer.
        let outcomes = s.run_iteration();
        assert!(
            matches!(
                outcomes[..],
                [
                    PlacementOutcome::WaitingForCapacity { id: JobId(0) },
                    PlacementOutcome::WaitingForCapacity { id: JobId(1) },
                ]
            ),
            "unexpected outcomes {outcomes:?}"
        );
        assert_eq!((s.replay_hits(), s.decision_stats().count()), (5, 3));
        assert_eq!(
            s.postpone_count(JobId(1)),
            2,
            "the count outlives the postponements"
        );
    }

    /// A job's postponement count keeps counting across iterations, is
    /// still answered once the job runs, and carries on where it stopped
    /// when the job is restarted and postponed again.
    #[test]
    fn postpone_counts_outlive_placement_and_restarts() {
        let mut s = split_racks();
        let on_1 = |gpu| {
            vec![GlobalGpuId {
                machine: MachineId(1),
                gpu: GpuId(gpu),
            }]
        };
        s.submit(job(0, 2, 0.5));
        s.run_iteration();
        s.run_iteration();
        assert_eq!(s.postpone_count(JobId(0)), 2);

        // Freeing GPU 2 opens a packed pair on socket 1: job 0 runs there.
        s.complete(JobId(102));
        assert_eq!(placed_ids(&s.run_iteration()), vec![JobId(0)]);
        assert_eq!(s.postpone_count(JobId(0)), 2, "answered after placement");

        // A restart: the job is stopped and submitted again, and with GPU 2
        // taken once more it faces the forced spread again.
        assert!(matches!(s.cancel(JobId(0)), CancelOutcome::Stopped(_)));
        s.state.place(job(103, 1, 0.0), on_1(2), 1.0);
        s.submit(job(0, 2, 0.5));
        s.submit(job(1, 2, 0.5));
        s.run_iteration();
        assert_eq!(
            s.postpone_count(JobId(0)),
            3,
            "the count carries over the restart"
        );
        assert_eq!(s.postpone_count(JobId(1)), 1);
        assert_eq!(s.postpone_count(JobId(7)), 0, "never postponed");
    }

    /// A job whose replay key comes past the interning bound is decided
    /// every time, with the cache; one whose class comes past it is also
    /// decided uncached. Both get the reference's outcomes.
    #[test]
    fn jobs_past_the_interning_bounds_are_decided_every_time() {
        let mut s = split_racks();
        let mut reference = split_racks_with(EvalParams::sequential());
        let weights = s.policy.weights;
        for i in 0..JOB_CLASS_BOUND {
            let interned = s.intern(&job(1000, 2, 0.9 + i as f64 * 1e-6));
            assert!(interned.class.is_some() && interned.replay.is_some());
        }
        let unmemoised = |s: &mut Scheduler| {
            s.submit(job(0, 2, 0.5));
            s.submit(job(1, 2, 0.5));
            drain(s)
        };
        assert_eq!(unmemoised(&mut s), unmemoised(&mut reference));
        assert_eq!((s.replay_hits(), s.decision_stats().count()), (0, 2));
        let hits = s.eval_cache_stats().hits;
        assert!(hits >= 1, "the second decision reads the cache");

        for i in 0..JOB_CLASS_BOUND {
            s.eval_cache
                .intern(&job(1000, 1, 0.0).with_bw_demand(i as f64 * 1e-6), weights);
        }
        let uncached = |s: &mut Scheduler| {
            s.submit(job(2, 2, 0.5).with_comm_graph(JobGraph::pipeline(2, 4.0)));
            drain(s)
        };
        assert_eq!(uncached(&mut s), uncached(&mut reference));
        assert_eq!((s.replay_hits(), s.decision_stats().count()), (0, 5));
        assert_eq!(
            s.eval_cache_stats().hits,
            hits + 2,
            "only jobs 0 and 1 read the cache"
        );
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
            [PlacementOutcome::Placed { id, .. }] => {
                let gpus = gpus_of(&s, *id);
                assert_eq!(gpus[0].machine, MachineId(0), "BF packs machine 0 first");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
