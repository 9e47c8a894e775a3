//! The four placement policies of §5.2: `TOPO-AWARE`, `TOPO-AWARE-P`,
//! `FCFS` and Best-Fit (`BF`).
//!
//! Every policy answers the same question — *which GPUs should this job
//! get right now?* — and differs only in how it searches:
//!
//! * **FCFS** walks machines in id order and grabs the first free GPUs —
//!   the greedy baseline with `Θ(|E_A| + |V_P|)` cost;
//! * **Best-Fit** bin-packs: the feasible machine with the *fewest* free
//!   GPUs wins, and inside it GPUs come from the most-utilized sockets;
//! * **TOPO-AWARE(-P)** runs the Algorithm 2/3 DRB mapping on every
//!   feasible machine and keeps the highest-utility solution; the `-P`
//!   variant additionally *postpones* jobs whose best utility falls below
//!   their `min_utility` SLO.

use crate::bound::ShardBoundCtx;
use crate::eval::{
    evaluate_topo_candidates, evaluate_topo_classes, resolve_candidate_outcome, CandidateOutcome,
    ClassedOutcomes, EvalCache, EvalParams, JobClassKey, MemoRow, ReplayGuard, ReplayKey,
    ShardClassed, ShardSlot, SnapState,
};
use crate::oracle::{placement_components, placement_utility, StateOracle};
use crate::shard::ShardIndex;
use crate::state::{on_machine, ClusterState};
use crate::trace::{CandidateEval, EvalOutcome};
use gts_job::{BatchClass, JobGraph, JobSpec, NnModel};
use gts_map::UtilityWeights;
use gts_topo::{GlobalGpuId, GpuId, MachineId};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Which placement strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// First come, first served over machines and GPU ids.
    Fcfs,
    /// Best-fit bin packing ("allocating first the GPUs from highly used
    /// domains").
    BestFit,
    /// Utility-guided DRB mapping; always places when feasible.
    TopoAware,
    /// Utility-guided DRB mapping; postpones placements whose utility is
    /// below the job's `min_utility`.
    TopoAwareP,
}

impl PolicyKind {
    /// All four evaluated policies, in the paper's comparison order.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::Fcfs,
        PolicyKind::BestFit,
        PolicyKind::TopoAware,
        PolicyKind::TopoAwareP,
    ];

    /// Whether this policy may postpone low-utility placements.
    pub fn postpones(self) -> bool {
        matches!(self, PolicyKind::TopoAwareP)
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PolicyKind::Fcfs => "FCFS",
            PolicyKind::BestFit => "BF",
            PolicyKind::TopoAware => "TOPO-AWARE",
            PolicyKind::TopoAwareP => "TOPO-AWARE-P",
        };
        f.write_str(s)
    }
}

/// A configured policy: the strategy plus the Eq. 2 weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Policy {
    /// The strategy.
    pub kind: PolicyKind,
    /// Utility weights (αcc, αb, αd).
    pub weights: UtilityWeights,
}

impl Policy {
    /// Policy with the paper's equal weights.
    pub fn new(kind: PolicyKind) -> Self {
        Self { kind, weights: UtilityWeights::default() }
    }
}

/// A concrete placement proposal.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// GPUs to grant, in task order.
    pub gpus: Vec<GlobalGpuId>,
    /// Normalized utility of the proposal.
    pub utility: f64,
}

impl Policy {
    /// Proposes a placement for `job`, or `None` when no feasible set of
    /// GPUs exists right now. Never mutates state. Evaluation-engine
    /// parameters come from the environment ([`EvalParams::from_env`]).
    pub fn decide(&self, state: &ClusterState, job: &JobSpec) -> Option<Decision> {
        self.decide_impl(state, job, None, EvalParams::from_env(), None)
    }

    /// [`Policy::decide`] with explicit evaluation-engine parameters —
    /// `EvalParams::sequential()` selects the reference path the engine is
    /// proven bit-identical to.
    pub fn decide_with(
        &self,
        state: &ClusterState,
        job: &JobSpec,
        params: EvalParams,
    ) -> Option<Decision> {
        self.decide_impl(state, job, None, params, None)
    }

    /// [`Policy::decide_with`] backed by a cross-event [`EvalCache`]: class
    /// evaluations already cached from earlier arrivals are replayed
    /// instead of re-running DRB, and on a sharded state the cache also
    /// holds the shard memo and decision snapshots. Pass the
    /// scheduler-owned cache here on every arrival; the sequential
    /// reference path ignores it.
    pub fn decide_with_cache(
        &self,
        state: &ClusterState,
        job: &JobSpec,
        params: EvalParams,
        cache: Option<&EvalCache>,
    ) -> Option<Decision> {
        self.decide_impl(state, job, None, params, cache)
    }

    /// Like [`Policy::decide`], but records every candidate machine the
    /// search touched — with its Eq. 2 utility breakdown — into `evals`.
    /// The evaluations appear in search order; the winning candidate (if
    /// any) is marked [`EvalOutcome::Chosen`].
    pub fn decide_traced(
        &self,
        state: &ClusterState,
        job: &JobSpec,
        evals: &mut Vec<CandidateEval>,
    ) -> Option<Decision> {
        self.decide_impl(state, job, Some(evals), EvalParams::from_env(), None)
    }

    /// [`Policy::decide_traced`] with explicit evaluation-engine parameters.
    pub fn decide_traced_with(
        &self,
        state: &ClusterState,
        job: &JobSpec,
        evals: &mut Vec<CandidateEval>,
        params: EvalParams,
    ) -> Option<Decision> {
        self.decide_impl(state, job, Some(evals), params, None)
    }

    /// [`Policy::decide_traced_with`] backed by a cross-event [`EvalCache`].
    /// Tracing always takes the flat reference path (per-candidate records
    /// need per-candidate components), so only the class cache is used.
    pub fn decide_traced_with_cache(
        &self,
        state: &ClusterState,
        job: &JobSpec,
        evals: &mut Vec<CandidateEval>,
        params: EvalParams,
        cache: Option<&EvalCache>,
    ) -> Option<Decision> {
        self.decide_impl(state, job, Some(evals), params, cache)
    }

    fn record_eval(
        &self,
        trace: &mut Option<&mut Vec<CandidateEval>>,
        state: &ClusterState,
        job: &JobSpec,
        machine: MachineId,
        gpus: &[GpuId],
        outcome: EvalOutcome,
    ) {
        if let Some(evals) = trace.as_deref_mut() {
            let (u_cc, u_b, u_d, utility) = if gpus.is_empty() {
                (0.0, 0.0, 0.0, 0.0)
            } else {
                let c = placement_components(state, machine, job, gpus);
                (
                    c.u_cc,
                    c.u_interference,
                    c.u_domains,
                    gts_map::utility(c, self.weights),
                )
            };
            evals.push(CandidateEval {
                machine,
                gpus: gpus.to_vec(),
                u_cc,
                u_b,
                u_d,
                utility,
                frag_after: fragmentation_after(state, machine, job, gpus),
                outcome,
            });
        }
    }

    /// Whether `job` takes the two-level sharded path (DESIGN.md §10):
    /// admission over shard aggregates, then shard-local class evaluation
    /// with a streaming selection scan — no per-candidate clones or
    /// allocations. Engaged only for the topo policies when the state is
    /// actually sharded and nothing forces the flat reference (tracing
    /// needs per-candidate records; sequential params *are* the
    /// reference); multi-GPU anti-collocated jobs have their own search.
    pub(crate) fn takes_sharded_path(
        &self,
        state: &ClusterState,
        job: &JobSpec,
        params: EvalParams,
        traced: bool,
    ) -> bool {
        matches!(self.kind, PolicyKind::TopoAware | PolicyKind::TopoAwareP)
            && !traced
            && !params.is_sequential()
            && state.shards().n_shards() > 1
            && !(job.constraints.anti_collocate && job.n_gpus > 1)
    }

    /// The key under which the sharded path's O(1) decision replay
    /// (DESIGN.md §12) answers `job`, or `None` when `job` never reaches
    /// the replay: it does not take the sharded path, or it carries a comm
    /// graph and so has no class key. Two jobs with equal keys get the
    /// same decision on the same cluster state.
    pub(crate) fn replay_key(
        &self,
        state: &ClusterState,
        job: &JobSpec,
        params: EvalParams,
        traced: bool,
    ) -> Option<ReplayKey> {
        if !self.takes_sharded_path(state, job, params, traced) {
            return None;
        }
        Some(ReplayKey { class: JobClassKey::of(job, self.weights)?, guard: ReplayGuard::of(job) })
    }

    fn decide_impl(
        &self,
        state: &ClusterState,
        job: &JobSpec,
        mut trace: Option<&mut Vec<CandidateEval>>,
        params: EvalParams,
        cache: Option<&EvalCache>,
    ) -> Option<Decision> {
        if job.constraints.anti_collocate && job.n_gpus > 1 {
            let decision = self.decide_anti_collocated(state, job);
            if let Some(d) = &decision {
                for g in &d.gpus {
                    self.record_eval(
                        &mut trace,
                        state,
                        job,
                        g.machine,
                        &[g.gpu],
                        EvalOutcome::Chosen,
                    );
                }
            }
            return decision;
        }
        if self.takes_sharded_path(state, job, params, trace.is_some()) {
            return self.decide_topo_sharded(state, job, cache);
        }
        let n = job.n_gpus as usize;
        let candidates = state.machines_with_capacity(n);
        if candidates.is_empty() {
            // Multi-node-capable jobs may spill across machines — the
            // disaggregated-GPU extension (§7 future work). Spill search is
            // cluster-wide; the scheduler traces it as a `Spilled` event
            // rather than per-machine evaluations.
            if !job.constraints.single_node {
                return self.decide_spilled(state, job);
            }
            return None;
        }
        match self.kind {
            PolicyKind::Fcfs => {
                // First machine (in id order) whose pick also satisfies the
                // §4.3 bandwidth constraint.
                for machine in candidates {
                    let gpus: Vec<GpuId> =
                        state.free_gpus(machine).into_iter().take(n).collect();
                    if state.fits_bw(machine, &gpus, job.bw_demand_gbs) {
                        self.record_eval(
                            &mut trace,
                            state,
                            job,
                            machine,
                            &gpus,
                            EvalOutcome::Chosen,
                        );
                        return Some(self.seal(state, job, machine, gpus));
                    }
                    self.record_eval(
                        &mut trace,
                        state,
                        job,
                        machine,
                        &gpus,
                        EvalOutcome::RejectedBandwidth,
                    );
                }
                None
            }
            PolicyKind::BestFit => {
                let mut ordered = candidates;
                ordered.sort_by_key(|&m| (state.free_count(m), m));
                for machine in ordered {
                    let gpus = best_fit_gpus(state, machine, n);
                    if state.fits_bw(machine, &gpus, job.bw_demand_gbs) {
                        self.record_eval(
                            &mut trace,
                            state,
                            job,
                            machine,
                            &gpus,
                            EvalOutcome::Chosen,
                        );
                        return Some(self.seal(state, job, machine, gpus));
                    }
                    self.record_eval(
                        &mut trace,
                        state,
                        job,
                        machine,
                        &gpus,
                        EvalOutcome::RejectedBandwidth,
                    );
                }
                None
            }
            PolicyKind::TopoAware | PolicyKind::TopoAwareP => {
                let graph = JobGraph::from_spec(job);
                let outcomes = evaluate_topo_candidates(
                    state,
                    job,
                    &graph,
                    self.weights,
                    &candidates,
                    params,
                    cache,
                );
                let mut feasible: Vec<(Decision, f64, usize)> = Vec::new();
                for (&machine, outcome) in candidates.iter().zip(outcomes) {
                    match outcome {
                        CandidateOutcome::NoMapping => {
                            self.record_eval(
                                &mut trace,
                                state,
                                job,
                                machine,
                                &[],
                                EvalOutcome::NoMapping,
                            );
                        }
                        CandidateOutcome::RejectedBandwidth { gpus } => {
                            self.record_eval(
                                &mut trace,
                                state,
                                job,
                                machine,
                                &gpus,
                                EvalOutcome::RejectedBandwidth,
                            );
                        }
                        CandidateOutcome::Feasible { gpus, utility, frag_after } => {
                            self.record_eval(
                                &mut trace,
                                state,
                                job,
                                machine,
                                &gpus,
                                EvalOutcome::Outscored,
                            );
                            let eval_idx =
                                trace.as_deref().map(|t| t.len() - 1).unwrap_or(0);
                            let d = Decision { gpus: on_machine(machine, &gpus), utility };
                            feasible.push((d, frag_after, eval_idx));
                        }
                    }
                }
                let winner = select_candidate(&feasible, job.min_utility)?;
                let (d, _, winner_idx) = feasible.swap_remove(winner);
                if let Some(evals) = trace {
                    evals[winner_idx].outcome = EvalOutcome::Chosen;
                }
                Some(d)
            }
        }
    }

    /// The two-level sharded decision for `TOPO-AWARE(-P)`, run entirely
    /// on the caller's thread:
    ///
    /// 1. **Admission** — consult every shard's aggregates and drop shards
    ///    with no machine wide enough for the job (O(shards), counters on
    ///    the shard index record the skip rate);
    /// 2. **Memo replay** — shards whose `(epoch, version)` pair is
    ///    unchanged since the last decision for this job class replay their
    ///    stored candidates/outcomes/u_max in O(1), establishing the
    ///    branch-and-bound floor without touching a machine;
    /// 3. **Branch and bound** — the remaining memo-miss shards are
    ///    repaired or evaluated one by one ([`Policy::eval_miss_shards`]),
    ///    best admissible utility bound ([`ShardBoundCtx`]) first, and any
    ///    shard whose bound proves it cannot enter the selection window is
    ///    skipped outright. Exact, not heuristic: see
    ///    [`bound_prunes`] and DESIGN.md §11 (debug builds shadow-evaluate
    ///    every pruned shard and assert the bound held). Memo puts follow
    ///    in ascending shard order;
    /// 4. **Selection** — the reference `select_candidate` scan streams
    ///    over the class outcomes in ascending shard order (contiguous
    ///    ascending ranges concatenate to the flat candidate order), with
    ///    whole entries skipped when even their `u_max` fails the window —
    ///    identical comparisons in identical order either way.
    ///
    /// Only the winning candidate's GPUs are cloned into the returned
    /// [`Decision`], which is bit-identical to the flat path's.
    fn decide_topo_sharded(
        &self,
        state: &ClusterState,
        job: &JobSpec,
        cache: Option<&EvalCache>,
    ) -> Option<Decision> {
        let n = job.n_gpus as usize;
        let shards = state.shards();
        // One key for the whole decision: the memo probe, the replay
        // snapshot and the class-cache lookups all share it.
        let job_key = JobClassKey::of(job, self.weights);

        // Level 0: cross-event decision replay (DESIGN.md §12). A queue
        // retry whose snapshot guards hold re-evaluates only the shards
        // whose version stamps moved since the last decision for this job
        // class; `None` falls through to the full path below.
        if let (Some(cache), Some(k)) = (cache, job_key.as_ref()) {
            if let Some(replayed) = self.try_replay(state, job, n, cache, k) {
                return replayed;
            }
        }
        // Built only past the replay probe: a full replay hit never reads it.
        let graph = JobGraph::from_spec(job);

        ADMITTED_SCRATCH.with(|cell| {
            // Level 1: global admission over the cached per-shard
            // aggregates, into the reusable per-thread scratch.
            let mut admitted = cell.borrow_mut();
            let admitted = &mut *admitted;
            let total = shards.n_shards();
            admitted.clear();
            admitted.extend((0..total).filter(|&s| shards.has_capacity(s, n)));
            shards.note_admission(total as u64, (total - admitted.len()) as u64);

            // Level 2a: memo replay. The per-shard u_max folds compose
            // under `f64::max` exactly as the reference's flat
            // candidate-order fold (max is associative; NEG_INFINITY is its
            // identity), so the selection floor comes out identical. The
            // replayed maxima double as the pruning floor for the misses.
            // Hits only raise the floor here — the selection scan reads
            // them in place under the same lock later, so a decision's
            // dozens of replays cost zero `Arc` clone/drop pairs. Each miss
            // carries its out-of-date memo entry, if any: a changed shard
            // usually changed on one or two machines, so the old entry
            // seeds a repair ([`repair_shard`]) instead of a from-scratch
            // evaluation. One memo lock and one row probe serve the whole
            // decision; each admitted shard then costs a plain indexed
            // `(epoch, version)` compare against its slot.
            let mut misses: Vec<(usize, Option<Arc<ShardClassed>>)> = Vec::new();
            let mut u_floor = f64::NEG_INFINITY;
            if let (Some(cache), Some(k)) = (cache, job_key.as_ref()) {
                cache.with_memo_row(k, shards.n_shards(), |row| {
                    for &s in admitted.iter() {
                        let slot = &row.slots[s];
                        match &slot.value {
                            Some(v)
                                if slot.epoch == shards.epoch()
                                    && slot.version == shards.version(s) =>
                            {
                                u_floor = u_floor.max(v.u_max);
                            }
                            stale => misses.push((s, stale.clone())),
                        }
                    }
                });
            } else {
                misses.extend(admitted.iter().map(|&s| (s, None)));
            }

            // Level 2b: branch-and-bound over the misses.
            let (mut fresh, mut pruned) = self.eval_miss_shards(
                state, job, &graph, n, cache, job_key.as_ref(), &misses, &mut u_floor,
            );
            // The repairs are done with their seeds; releasing them lets
            // the entries they replace be recycled below.
            drop(misses);
            fresh.sort_unstable_by_key(|&(s, _)| s);
            pruned.sort_unstable_by_key(|&(s, _)| s);

            // Publish the fresh entries and run the fold + selection scan
            // in one lock scope, reading replayed hits in place — ascending
            // shard order throughout, exactly the flat scan's visit order.
            // Every admitted shard is now either a live memo slot or pruned.
            if let (Some(cache), Some(k)) = (cache, job_key.as_ref()) {
                let mut retired = Vec::new();
                let decision = cache.with_memo_row(k, shards.n_shards(), |row| {
                    retired = publish_entries(row, shards, &fresh);
                    let mut cut = pruned.iter().map(|&(s, _)| s).peekable();
                    let used: Vec<usize> = admitted
                        .iter()
                        .copied()
                        .filter(|&s| cut.next_if_eq(&s).is_none())
                        .collect();
                    let decision = self.finish_memoized(state, job, &graph, n, row, &used, &pruned);
                    // Snapshot the whole decision for the replay path: how
                    // every shard resolved, under which version vector, and
                    // what came out (DESIGN.md §12).
                    store_decision_snap(
                        row,
                        shards,
                        job,
                        used.into_iter(),
                        pruned.iter().copied(),
                        decision.as_ref(),
                    );
                    decision
                });
                recycle_entries(retired);
                decision
            } else {
                // No memo available: every unpruned admitted shard was
                // freshly evaluated.
                let entries: Vec<&ShardClassed> = fresh.iter().map(|(_, e)| e.as_ref()).collect();
                self.finish_sharded(state, job, &graph, n, &entries, &pruned)
            }
        })
    }

    /// Branch and bound over memo-miss shards, on the caller's thread.
    /// `misses` pairs each shard (ascending) with its out-of-date memo
    /// entry, if any, which seeds a repair ([`eval_or_repair`]).
    ///
    /// Shards go best admissible bound first (ties on ascending shard),
    /// every evaluation raises `u_floor` for the shards still queued, and a
    /// shard whose bound [`bound_prunes`] against the running floor is
    /// skipped. Returns the fresh `(shard, entry)` pairs in evaluation
    /// order and the pruned `(shard, bound)` pairs.
    #[allow(clippy::too_many_arguments)]
    fn eval_miss_shards(
        &self,
        state: &ClusterState,
        job: &JobSpec,
        graph: &JobGraph,
        n: usize,
        cache: Option<&EvalCache>,
        job_key: Option<&JobClassKey>,
        misses: &[(usize, Option<Arc<ShardClassed>>)],
        u_floor: &mut f64,
    ) -> (FreshEntries, Vec<(usize, f64)>) {
        let shards = state.shards();
        let mut fresh = Vec::with_capacity(misses.len());
        let mut pruned = Vec::new();
        if misses.is_empty() {
            return (fresh, pruned);
        }
        let ctx = cached_bound_ctx(state, job, self.weights, shards.epoch());
        let mut order: Vec<(usize, f64)> = misses
            .iter()
            .enumerate()
            .map(|(k, &(s, _))| (k, ctx.shard_bound(shards, s)))
            .collect();
        order.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        for (k, bound) in order {
            let (s, stale) = &misses[k];
            if bound_prunes(bound, *u_floor, job.min_utility) {
                pruned.push((*s, bound));
                continue;
            }
            let entry = eval_or_repair(
                state, job, graph, self.weights, shards, *s, n, cache, job_key, stale.as_ref(),
            );
            *u_floor = u_floor.max(entry.u_max);
            fresh.push((*s, entry));
        }
        shards.note_bound(misses.len() as u64, pruned.len() as u64);
        (fresh, pruned)
    }

    /// The selection tail over memoized entries: `used` lists the shards
    /// (ascending) whose live entries sit in `row`, `pruned` the shards the
    /// bound skipped. Debug builds first re-check every used entry against
    /// a fresh evaluation.
    #[allow(clippy::too_many_arguments)]
    fn finish_memoized(
        &self,
        state: &ClusterState,
        job: &JobSpec,
        graph: &JobGraph,
        n: usize,
        row: &MemoRow,
        used: &[usize],
        pruned: &[(usize, f64)],
    ) -> Option<Decision> {
        let entries: Vec<&ShardClassed> = used
            .iter()
            .map(|&s| row.slots[s].value.as_deref().expect("used slots hold entries"))
            .collect();
        #[cfg(debug_assertions)]
        for (&s, entry) in used.iter().zip(&entries) {
            debug_assert_shard_memo_matches(state, job, graph, self.weights, s, n, entry);
        }
        self.finish_sharded(state, job, graph, n, &entries, pruned)
    }

    /// Cross-event decision replay (DESIGN.md §12): answers a queue-drain
    /// retry from the last decision snapshot for this job class, paying
    /// only for the shards whose version stamps moved since.
    ///
    /// Returns `Some(decision)` when the snapshot answered the retry (the
    /// decision may itself be `None` — a replayed postponement), or `None`
    /// when the full path must run (no snapshot yet, or a guard mismatch).
    ///
    /// Correctness leans on the version-vector funnel: every eval-relevant
    /// mutation rebuilds the touched machine's class key, which bumps that
    /// machine's shard version and the index-wide total. So
    ///
    /// * equal `(epoch, total_version)` pins the *entire* cluster state
    ///   (versions are monotone; an unchanged sum pins every summand) —
    ///   the stored decision, including `None` and spill outcomes, replays
    ///   bit-identically in O(1);
    /// * an unchanged per-shard version pins that shard's aggregates
    ///   (admission), candidate set, class outcomes and admissible bound —
    ///   its snapshot resolution is still live, so only mutated shards
    ///   re-evaluate, seeded with their stale memo entries exactly as the
    ///   full path would seed a repair;
    /// * the kept entries' `u_max` fold is a real achieved utility, hence a
    ///   valid exact branch-and-bound floor ([`bound_prunes`]) for both the
    ///   mutated shards and the re-test of snapshot-pruned shards (the
    ///   prune test is monotone in the floor, so one pass is exact).
    ///
    /// Debug builds shadow every replayed decision with a full fresh
    /// decision and assert bit-equality.
    #[allow(clippy::too_many_arguments)]
    fn try_replay(
        &self,
        state: &ClusterState,
        job: &JobSpec,
        n: usize,
        cache: &EvalCache,
        job_key: &JobClassKey,
    ) -> Option<Option<Decision>> {
        let shards = state.shards();
        enum Probe {
            /// No snapshot yet — cold, run the full path (not a fallback).
            Miss,
            /// Snapshot present but a guard mismatched — full path.
            Fallback,
            /// `(epoch, total_version)` both match: nothing moved anywhere,
            /// the stored decision is the decision.
            Full(Option<(Vec<GlobalGpuId>, f64)>),
            /// Same epoch, some versions moved: re-evaluate only those.
            Partial {
                /// Mutated shards + their stale memo entries (repair seeds).
                mutated: Vec<(usize, Option<Arc<ShardClassed>>)>,
                /// Unmutated evaluated shards (entries live in the memo).
                kept: Vec<usize>,
                /// Unmutated pruned shards: `(shard, stored bound, seed)`.
                pruned: Vec<(usize, f64, Option<Arc<ShardClassed>>)>,
                /// `u_max` fold over the kept entries.
                u_floor: f64,
            },
        }

        // Phase A (one lock): diff the live version vector against the
        // snapshot and classify every shard.
        let probe = cache.with_memo_row(job_key, shards.n_shards(), |row| {
            let Some(snap) = row.snap.as_ref() else {
                return Probe::Miss;
            };
            if snap.epoch != shards.epoch()
                || snap.versions.len() != shards.n_shards()
                || snap.guard != ReplayGuard::of(job)
            {
                return Probe::Fallback;
            }
            if snap.total_version == shards.total_version() {
                return Probe::Full(snap.decision.clone());
            }
            let live = shards.versions();
            let mut mutated = Vec::new();
            let mut kept = Vec::new();
            let mut pruned = Vec::new();
            let mut u_floor = f64::NEG_INFINITY;
            for (s, &snap_v) in snap.versions.iter().enumerate() {
                if snap_v != live[s] {
                    mutated.push((s, row.slots[s].value.clone()));
                    continue;
                }
                match snap.states[s] {
                    SnapState::NotAdmitted => {}
                    SnapState::Evaluated => {
                        let slot = &row.slots[s];
                        match &slot.value {
                            Some(v)
                                if slot.epoch == shards.epoch()
                                    && slot.version == live[s] =>
                            {
                                u_floor = u_floor.max(v.u_max);
                                kept.push(s);
                            }
                            // Defensive: the slot no longer carries the
                            // snapshotted entry (shouldn't happen — slot
                            // and snapshot update together) — re-evaluate.
                            other => mutated.push((s, other.clone())),
                        }
                    }
                    SnapState::Pruned { bound } => {
                        pruned.push((s, bound, row.slots[s].value.clone()));
                    }
                }
            }
            Probe::Partial { mutated, kept, pruned, u_floor }
        });

        let (mut mutated, kept, pruned_snap, mut u_floor) = match probe {
            Probe::Miss => return None,
            Probe::Fallback => {
                cache.note_replay_fallback();
                return None;
            }
            Probe::Full(stored) => {
                cache.note_replay_hit();
                let decision =
                    stored.map(|(gpus, utility)| Decision { gpus, utility });
                #[cfg(debug_assertions)]
                self.debug_assert_replay_matches(state, job, &decision);
                return Some(decision);
            }
            Probe::Partial { mutated, kept, pruned, u_floor } => {
                (mutated, kept, pruned, u_floor)
            }
        };

        // Phase B (no lock): re-run admission for the mutated shards only
        // (an unmutated shard's aggregates are pinned by its version, so
        // its snapshot admission outcome is still live), then evaluate the
        // survivors through the full path's branch and bound and repair.
        // A mutated shard pruned here is snapshotted as pruned, like any
        // other, so a later replay re-tests it once the floor moves.
        let graph = &JobGraph::from_spec(job);
        let total_mutated = mutated.len() as u64;
        mutated.retain(|&(s, _)| shards.has_capacity(s, n));
        shards.note_admission(total_mutated, total_mutated - mutated.len() as u64);
        let (mut fresh, mut pruned) = self.eval_miss_shards(
            state, job, graph, n, Some(cache), Some(job_key), &mutated, &mut u_floor,
        );

        // Re-test the snapshot-pruned shards against the current floor.
        // One pass is exact: [`bound_prunes`] is monotone in the floor and
        // the floor only rises from here, so a shard pruned now stays
        // prunable at the final floor; one that fails re-evaluates (and
        // may itself raise the floor — harmless, see above).
        for (s, bound, seed) in pruned_snap {
            if bound_prunes(bound, u_floor, job.min_utility) {
                pruned.push((s, bound));
                continue;
            }
            let entry = eval_or_repair(
                state, job, graph, self.weights, shards, s, n, Some(cache), Some(job_key),
                seed.as_ref(),
            );
            u_floor = u_floor.max(entry.u_max);
            fresh.push((s, entry));
        }

        cache.note_replay_hit();
        cache.note_replay_reeval(fresh.len() as u64);
        drop(mutated);

        // Phase C (one lock): publish the fresh entries, reassemble the
        // ascending-shard entry list from kept ∪ fresh, run the reference
        // selection tail, and refresh the snapshot in place.
        fresh.sort_unstable_by_key(|&(s, _)| s);
        let mut retired = Vec::new();
        let decision = cache.with_memo_row(job_key, shards.n_shards(), |row| {
            retired = publish_entries(row, shards, &fresh);
            // `kept` ascends (Phase A walks shards in order) and `fresh`
            // is small (the mutated handful), so sorting just `fresh` and
            // merging beats sorting the full union; the two sets are
            // disjoint by construction (a shard is classified exactly
            // once).
            let mut used: Vec<usize> = Vec::with_capacity(kept.len() + fresh.len());
            {
                let (mut i, mut j) = (0, 0);
                while i < kept.len() || j < fresh.len() {
                    if j >= fresh.len() || (i < kept.len() && kept[i] < fresh[j].0) {
                        used.push(kept[i]);
                        i += 1;
                    } else {
                        used.push(fresh[j].0);
                        j += 1;
                    }
                }
            }
            let decision = self.finish_memoized(state, job, graph, n, row, &used, &pruned);
            store_decision_snap(
                row,
                shards,
                job,
                used.into_iter(),
                pruned.iter().copied(),
                decision.as_ref(),
            );
            decision
        });
        drop(fresh);
        recycle_entries(retired);
        #[cfg(debug_assertions)]
        self.debug_assert_replay_matches(state, job, &decision);
        Some(decision)
    }

    /// Debug shadow behind every replayed decision: re-run the whole
    /// sharded decision with no cache — so no memo and no replay, the
    /// fresh reference — and assert the replay produced bit-identical
    /// output.
    #[cfg(debug_assertions)]
    fn debug_assert_replay_matches(
        &self,
        state: &ClusterState,
        job: &JobSpec,
        got: &Option<Decision>,
    ) {
        let want = self.decide_topo_sharded(state, job, None);
        match (got, &want) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.gpus, b.gpus, "replayed GPUs diverge from fresh decision");
                assert_eq!(
                    a.utility.to_bits(),
                    b.utility.to_bits(),
                    "replayed utility diverges from fresh decision"
                );
            }
            _ => panic!("replayed decision {got:?} != fresh decision {want:?}"),
        }
    }

    /// The tail of the two-level decision: fold the selection floor over
    /// the per-shard entries (ascending shard order), fall through to the
    /// spill path when no shard holds a candidate, debug-check the pruned
    /// shards against the final window, and stream the reference
    /// [`select_candidate`] scan over each entry's contender window.
    ///
    /// Entries arrive as plain references so the memoized path can lend
    /// them straight out of the locked slot row — replay costs no `Arc`
    /// traffic — while the memo-less path lends its freshly built ones.
    /// `pruned` holds the `(shard, bound)` pairs the bound skipped.
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    fn finish_sharded(
        &self,
        state: &ClusterState,
        job: &JobSpec,
        graph: &JobGraph,
        n: usize,
        entries: &[&ShardClassed],
        pruned: &[(usize, f64)],
    ) -> Option<Decision> {
        // Fold the floor in ascending shard order (the entries are
        // already ascending; no reassembly copy needed).
        let mut u_max = f64::NEG_INFINITY;
        let mut any_candidates = false;
        for e in entries {
            if e.candidates.is_empty() {
                continue;
            }
            any_candidates = true;
            u_max = u_max.max(e.u_max);
        }
        if !any_candidates {
            // No machine anywhere can host the job single-node — same
            // spill fallthrough as the flat path's empty-candidates
            // case. Pruning can never land here: a prune requires a
            // floor above the (nonnegative) bound, and any finite floor
            // came from an entry with a feasible candidate.
            debug_assert!(pruned.is_empty(), "pruned shards without a feasible floor");
            if !job.constraints.single_node {
                return self.decide_spilled(state, job);
            }
            return None;
        }

        let (floor, gate) = selection_floor_gate(u_max, job.min_utility);

        // Shadow-recompute every pruned shard against the final window:
        // the bound must dominate the shard's true best utility
        // (admissibility) *and* that best must fail the selection
        // window (exactness). Debug builds only — the release path
        // trusts the proof in DESIGN.md §11.
        #[cfg(debug_assertions)]
        for &(s, bound) in pruned {
            let shard_u_max = fresh_shard_u_max(state, job, graph, self.weights, s, n);
            assert!(
                shard_u_max <= bound,
                "shard {s} bound {bound} below its true u_max {shard_u_max}"
            );
            assert!(
                skip_candidate(shard_u_max, floor, gate),
                "pruned shard {s} (u_max {shard_u_max}) survives the selection window \
                 (floor {floor}, gate {gate})"
            );
        }

        // The reference select_candidate scan, restricted to each
        // entry's precomputed contender window. Entries whose own
        // maximum fails the window are skipped wholesale; within an
        // entry, every non-contender carries a utility strictly below
        // `entry.u_max − FRAG_TIE_EPS ≤ floor` (monotone subtraction),
        // so the reference scan would skip it too — the survivors and
        // their visit order are the flat scan's exactly, and every
        // survivor still runs the full per-candidate predicates.
        let mut best: Option<(f64, f64, MachineId, &[GpuId])> = None;
        for entry in entries {
            if entry.candidates.is_empty() || skip_candidate(entry.u_max, floor, gate) {
                continue;
            }
            for &ci in &entry.contenders {
                let machine = entry.candidates[ci as usize];
                let c = entry.classed.class_of[ci as usize];
                let CandidateOutcome::Feasible { gpus, utility, frag_after } =
                    &entry.classed.outcomes[c]
                else {
                    continue;
                };
                if skip_candidate(*utility, floor, gate) {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((bu, bf, _, _)) => beats_winner(*frag_after, *utility, bf, bu),
                };
                if better {
                    best = Some((*utility, *frag_after, machine, gpus));
                }
            }
        }
        best.map(|(utility, _, machine, gpus)| Decision {
            gpus: on_machine(machine, gpus),
            utility,
        })
    }

    /// Spills a multi-node-capable job across machines when no single
    /// machine can host it.
    fn decide_spilled(&self, state: &ClusterState, job: &JobSpec) -> Option<Decision> {
        match self.kind {
            PolicyKind::TopoAware | PolicyKind::TopoAwareP => {
                crate::spill::decide_spill(state, job, self.weights)
            }
            PolicyKind::Fcfs => {
                let order: Vec<MachineId> = state.cluster().machines().collect();
                crate::spill::greedy_spill(state, job, &order, self.weights)
            }
            PolicyKind::BestFit => {
                let mut order: Vec<MachineId> = state.machines_with_capacity(1);
                order.sort_by_key(|&m| (state.free_count(m), m));
                crate::spill::greedy_spill(state, job, &order, self.weights)
            }
        }
    }

    /// Anti-collocated multi-GPU jobs take one GPU from each of `n`
    /// distinct machines. Greedy for the baselines; utility-ranked machine
    /// choice for the topology-aware policies (emptier machines first to
    /// limit interference).
    fn decide_anti_collocated(&self, state: &ClusterState, job: &JobSpec) -> Option<Decision> {
        let n = job.n_gpus as usize;
        let per_task_bw = job.bw_demand_gbs / n as f64;
        // One free-GPU query per machine: the first free GPU doubles as the
        // bandwidth probe and the eventual grant, and a machine whose
        // capacity vanished between queries simply drops out instead of
        // panicking on an empty free list.
        let mut hosts: Vec<(MachineId, GpuId)> = state
            .machines_with_capacity(1)
            .into_iter()
            .filter_map(|m| {
                let first = state.first_free_gpu(m)?;
                state.fits_bw(m, &[first], per_task_bw).then_some((m, first))
            })
            .collect();
        if hosts.len() < n {
            return None;
        }
        match self.kind {
            PolicyKind::Fcfs => {}
            PolicyKind::BestFit => {
                hosts.sort_by_key(|&(m, _)| (state.free_count(m), m));
            }
            PolicyKind::TopoAware | PolicyKind::TopoAwareP => {
                // Prefer machines where the task will feel the least
                // interference; score each host once, then sort.
                let mut scored: Vec<(f64, MachineId, GpuId)> = hosts
                    .into_iter()
                    .map(|(m, g)| {
                        (StateOracle::new(state, m, job).interference_one(&[g]), m, g)
                    })
                    .collect();
                // total_cmp, not partial_cmp().expect(): a NaN interference
                // score (however a profile produced it) must degrade to a
                // deterministic order, not panic mid-decision.
                scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                hosts = scored.into_iter().map(|(_, m, g)| (m, g)).collect();
            }
        }
        let gpus: Vec<GlobalGpuId> = hosts[..n]
            .iter()
            .map(|&(machine, gpu)| GlobalGpuId { machine, gpu })
            .collect();
        // Utility: communication crosses the network by construction, so
        // u_cc uses the cluster-level best (which equals the actual for a
        // forced spread — the job *asked* for it): score interference only.
        let mean_interference: f64 = gpus
            .iter()
            .map(|g| {
                StateOracle::new(state, g.machine, job).interference_one(&[g.gpu])
            })
            .sum::<f64>()
            / n as f64;
        let utility = self.weights.cc * 1.0
            + self.weights.b * mean_interference
            + self.weights.d * 1.0;
        Some(Decision { gpus, utility })
    }

    /// Packages a single-machine GPU pick into a [`Decision`] with its
    /// utility.
    fn seal(
        &self,
        state: &ClusterState,
        job: &JobSpec,
        machine: MachineId,
        gpus: Vec<GpuId>,
    ) -> Decision {
        let utility = placement_utility(state, machine, job, &gpus, self.weights);
        Decision { gpus: on_machine(machine, &gpus), utility }
    }
}


/// Utilities closer than this are indistinguishable: the Eq. 4 interference
/// model is only a few percent accurate against the Fig. 6 measurements, so
/// preferring a machine for a sub-percent utility edge is noise-chasing.
const FRAG_TIE_EPS: f64 = 0.01;

thread_local! {
    /// Reusable per-decision admitted-shard list (hoisted allocation — the
    /// sharded path runs tens of thousands of decisions per simulation).
    static ADMITTED_SCRATCH: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    /// Reusable per-shard candidate list. Shard-memo entries must own their
    /// candidates, so the builder fills this scratch (absorbing the growth
    /// reallocations) and clones out at exactly the final length.
    static CANDIDATE_SCRATCH: RefCell<Vec<MachineId>> = const { RefCell::new(Vec::new()) };
    /// Reusable old-class → rebuilt-outcome index map for [`repair_shard`]
    /// (cleared and refilled per repair; never escapes).
    static REMAP_SCRATCH: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    /// Recycled [`ShardClassed`] entries: when a decision's put loop
    /// replaces a memo slot, the retired entry (sole-owner by then — the
    /// repair's borrow is gone) is reclaimed via [`Arc::try_unwrap`] and
    /// its buffers handed back to [`repair_shard`], which would otherwise
    /// allocate five `Vec`s per rebuilt shard, every decision.
    static ENTRY_POOL: RefCell<Vec<ShardClassed>> = const { RefCell::new(Vec::new()) };
}

/// Freshly evaluated `(shard, entry)` pairs of one decision.
type FreshEntries = Vec<(usize, Arc<ShardClassed>)>;

/// Upper bound on pooled entries — comfortably above the memo-miss shards
/// of one decision, small enough that an idle pool pins only a few KB.
const ENTRY_POOL_CAP: usize = 32;

/// Stores (or refreshes, reusing its allocations) the decision snapshot in
/// `row`: the live version vector, how every shard resolved — default
/// [`SnapState::NotAdmitted`], overridden for the `evaluated` and `pruned`
/// shards — the selection guards, and the decision itself (DESIGN.md §12).
fn store_decision_snap(
    row: &mut MemoRow,
    shards: &ShardIndex,
    job: &JobSpec,
    evaluated: impl Iterator<Item = usize>,
    pruned: impl Iterator<Item = (usize, f64)>,
    decision: Option<&Decision>,
) {
    let snap = row.snap.get_or_insert_with(Default::default);
    snap.epoch = shards.epoch();
    snap.total_version = shards.total_version();
    snap.versions.clear();
    snap.versions.extend_from_slice(shards.versions());
    snap.states.clear();
    snap.states.resize(shards.n_shards(), SnapState::NotAdmitted);
    for s in evaluated {
        snap.states[s] = SnapState::Evaluated;
    }
    for (s, bound) in pruned {
        snap.states[s] = SnapState::Pruned { bound };
    }
    snap.guard = ReplayGuard::of(job);
    snap.decision = decision.map(|d| (d.gpus.clone(), d.utility));
}

/// Publishes freshly evaluated `(shard, entry)` pairs into `row` under the
/// live `(epoch, version)` stamps, returning the entries they replaced.
fn publish_entries(
    row: &mut MemoRow,
    shards: &ShardIndex,
    fresh: &[(usize, Arc<ShardClassed>)],
) -> Vec<Arc<ShardClassed>> {
    let mut retired = Vec::with_capacity(fresh.len());
    for (s, entry) in fresh {
        let prev = std::mem::replace(
            &mut row.slots[*s],
            ShardSlot {
                epoch: shards.epoch(),
                version: shards.version(*s),
                value: Some(Arc::clone(entry)),
            },
        );
        if let Some(old) = prev.value {
            retired.push(old);
        }
    }
    retired
}

/// Reclaims replaced memo entries' buffers for the next decision's repairs.
/// Callers drop the repairs' seeds first, so a genuinely replaced entry is
/// sole-owned here and unwraps; a fast-path re-register (old == new) stays
/// shared and is simply dropped.
fn recycle_entries(retired: Vec<Arc<ShardClassed>>) {
    if retired.is_empty() {
        return;
    }
    ENTRY_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        for a in retired {
            if pool.len() >= ENTRY_POOL_CAP {
                break;
            }
            if let Ok(e) = Arc::try_unwrap(a) {
                pool.push(e);
            }
        }
    });
}

/// The exact branch-and-bound prune test: `true` only when *no* candidate
/// in a shard bounded by `bound` could affect the decision, given that some
/// already-evaluated shard reached `u_best`.
///
/// Exactness argument (every comparison in the selection scan is monotone
/// in the candidate utility, and every candidate in the shard scores
/// `≤ bound ≤ u_best ≤` the final `u_max`):
///
/// * the pruned shard cannot move the `u_max` fold (`f64::max` with a
///   value `≤` the running max is the identity, bit for bit), so the final
///   floor and gate are unchanged;
/// * first arm: `bound + 1e-12 < u_best − FRAG_TIE_EPS ≤` the final floor
///   (float subtraction is monotone), so every candidate fails
///   [`skip_candidate`]'s floor test;
/// * second arm: `u_best` already activates the SLO gate (so the final
///   `u_max` does too), and every candidate sits below `min_utility` by
///   the same `1e-9` margin the gate test uses — all skipped.
///
/// The `bound > u_best` early-out keeps the test conservative when the
/// bound *could* raise the maximum (then the shard must be evaluated, no
/// matter how the arms would read).
fn bound_prunes(bound: f64, u_best: f64, min_utility: f64) -> bool {
    if bound > u_best {
        return false;
    }
    bound + 1e-12 < u_best - FRAG_TIE_EPS
        || (u_best + 1e-9 >= min_utility && bound + 1e-9 < min_utility)
}

/// Key for the per-thread [`ShardBoundCtx`] memo: everything the context
/// depends on. The `epoch` is process-unique per [`ShardIndex`] instance
/// (fresh on build and on clone), and every other context input — the
/// profile library, the shard partition's static class sets, geometry and
/// widths — is fixed for that instance's lifetime, so an entry can only be
/// cold, never stale.
#[derive(PartialEq, Eq, Hash)]
struct BoundCtxKey {
    epoch: u64,
    model: NnModel,
    batch: BatchClass,
    n_gpus: u32,
    weight_bits: [u64; 3],
}

thread_local! {
    /// Cross-decision [`ShardBoundCtx`] memo. Building a context costs a
    /// library sweep plus one Eq. 4 per co-runner count — trivial once,
    /// but the sharded path runs tens of thousands of decisions that
    /// recycle a handful of job classes.
    static BOUND_CTX_MEMO: RefCell<HashMap<BoundCtxKey, Rc<ShardBoundCtx>>> =
        RefCell::new(HashMap::new());
}

/// Distinct (index, job class) bound contexts kept per thread; far above
/// any real trace's steady state, cleared wholesale when exceeded.
const BOUND_CTX_CAP: usize = 256;

/// The memoized bound context for this decision (see [`BoundCtxKey`] for
/// why entries never go stale).
fn cached_bound_ctx(
    state: &ClusterState,
    job: &JobSpec,
    weights: UtilityWeights,
    epoch: u64,
) -> Rc<ShardBoundCtx> {
    BOUND_CTX_MEMO.with(|cell| {
        let mut memo = cell.borrow_mut();
        if memo.len() >= BOUND_CTX_CAP {
            memo.clear();
        }
        let key = BoundCtxKey {
            epoch,
            model: job.model,
            batch: job.batch,
            n_gpus: job.n_gpus,
            weight_bits: [weights.cc.to_bits(), weights.b.to_bits(), weights.d.to_bits()],
        };
        Rc::clone(
            memo.entry(key)
                .or_insert_with(|| Rc::new(ShardBoundCtx::new(state, job, weights))),
        )
    })
}

/// The per-shard contender window: indices of the feasible candidates
/// whose utility survives the floor test at the *tightest* floor the shard
/// can ever face (`u_max − FRAG_TIE_EPS`, its own maximum), with
/// consecutive same-class runs collapsed to their head. Written with
/// the same float expressions as [`skip_candidate`]'s floor arm, so
/// exclusion here provably implies a skip in the reference scan at any
/// actual floor (the global `u_max` is ≥ this shard's, and subtracting
/// `FRAG_TIE_EPS` is monotone); run collapsing is exact because repeats
/// carry the head's exact bits (see the inline argument).
fn fold_contenders(classed: &ClassedOutcomes, u_max: f64) -> Vec<u32> {
    let mut out = Vec::new();
    fold_contenders_into(classed, u_max, &mut out);
    out
}

/// [`fold_contenders`] writing into a caller-owned (pooled) buffer.
fn fold_contenders_into(classed: &ClassedOutcomes, u_max: f64, out: &mut Vec<u32>) {
    let local_floor = u_max - FRAG_TIE_EPS;
    out.clear();
    let mut last_kept: Option<usize> = None;
    for (ci, &c) in classed.class_of.iter().enumerate() {
        if let CandidateOutcome::Feasible { utility, .. } = classed.outcomes[c] {
            if utility + 1e-12 >= local_floor {
                // Collapse consecutive same-class runs: a window-passing
                // candidate whose class equals the previous window-passing
                // candidate's carries bit-identical (utility, frag), and
                // `beats_winner` is false on equal bits — whether or not
                // the run's head became the running best, the repeat can
                // never displace it (floor-skipped candidates in between
                // leave the running best untouched), so the reference scan
                // provably ignores it.
                if last_kept != Some(c) {
                    out.push(ci as u32);
                    last_kept = Some(c);
                }
            }
        }
    }
}

/// Builds one shard's candidate list (through the per-thread scratch) and
/// runs the class evaluation, folding the shard's feasible-utility maximum.
#[allow(clippy::too_many_arguments)]
fn evaluate_shard(
    state: &ClusterState,
    job: &JobSpec,
    graph: &JobGraph,
    weights: UtilityWeights,
    shards: &ShardIndex,
    s: usize,
    n: usize,
    cache: Option<&EvalCache>,
) -> Arc<ShardClassed> {
    CANDIDATE_SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        buf.clear();
        buf.extend(shards.machines(s).iter().copied().filter(|&m| state.free_count(m) >= n));
        let classed = evaluate_topo_classes(state, job, graph, weights, &buf, cache);
        let stamps: Vec<u64> = buf.iter().map(|&m| state.key_stamp(m)).collect();
        let mut u_max = f64::NEG_INFINITY;
        for &c in &classed.class_of {
            if let CandidateOutcome::Feasible { utility, .. } = classed.outcomes[c] {
                u_max = u_max.max(utility);
            }
        }
        let contenders = fold_contenders(&classed, u_max);
        Arc::new(ShardClassed { candidates: buf.clone(), stamps, classed, u_max, contenders })
    })
}

/// Rebuilds a stale whole-shard memo entry from its unchanged parts
/// instead of re-evaluating every class. A candidate whose stored
/// rebuild stamp still equals its live stamp provably kept its class key
/// ([`ClusterState::key_stamp`]), and the key is a pure function of
/// machine state (DESIGN.md §9), so its stored outcome bits are its live
/// outcome bits — one `u64` compare per candidate, no key traffic.
/// Changed or newly-feasible machines resolve through the class cache
/// exactly as a fresh evaluation would ([`resolve_candidate_outcome`]),
/// so every per-candidate outcome is bit-identical to a from-scratch
/// pass.
///
/// The rebuilt grouping keeps one outcome per *surviving old class* plus
/// one per changed machine, so it may duplicate a class a fresh pass
/// would merge — `class_of` only needs alignment, not minimality: the
/// `u_max` fold, [`fold_contenders`] and the selection scan all walk
/// per-candidate sequences, and a duplicated class carries bit-equal
/// outcomes, on which `beats_winner` is always false.
#[allow(clippy::too_many_arguments)]
fn repair_shard(
    state: &ClusterState,
    job: &JobSpec,
    graph: &JobGraph,
    weights: UtilityWeights,
    shards: &ShardIndex,
    s: usize,
    n: usize,
    cache: Option<&EvalCache>,
    job_key: Option<&JobClassKey>,
    old: &Arc<ShardClassed>,
) -> Arc<ShardClassed> {
    CANDIDATE_SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        buf.clear();
        buf.extend(shards.machines(s).iter().copied().filter(|&m| state.free_count(m) >= n));
        let job_bits = job_key.map_or(0, JobClassKey::bits);
        // Fast path: the version bump was invisible to this job class —
        // every candidate survived with its stamp (hence key) intact,
        // e.g. the touched machine is infeasible for `n` both before and
        // after. The old entry is then bit-valid wholesale and simply
        // re-registers under the new version.
        let same_list = buf.len() == old.candidates.len() && buf.iter().eq(old.candidates.iter());
        if same_list && buf.iter().zip(&old.stamps).all(|(&m, &st)| state.key_stamp(m) == st) {
            return Arc::clone(old);
        }
        // Build into a recycled entry (its five buffers keep their
        // capacity across decisions) — a steady-state repair costs zero
        // `Vec` growth, only the `Arc` cell itself.
        let mut entry = ENTRY_POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
        entry.candidates.clear();
        entry.stamps.clear();
        entry.classed.class_of.clear();
        entry.classed.outcomes.clear();
        // Bulk path for the dominant repair shape: identical candidate
        // list, a handful of changed stamps. The old vectors copy over
        // wholesale (outcome clones are refcount bumps) and only the
        // changed slots resolve, each as its own appended class — exactly
        // the outcome bits the walk below would assign. Wholesale copy
        // keeps old orphaned classes, so the path is gated on the outcome
        // table not yet outgrowing the candidate count; past that the
        // remap walk below compacts them away, bounding accumulation
        // across repeated repairs.
        if same_list && old.classed.outcomes.len() <= old.candidates.len() {
            entry.candidates.extend_from_slice(&old.candidates);
            entry.stamps.extend_from_slice(&old.stamps);
            entry.classed.class_of.extend_from_slice(&old.classed.class_of);
            entry.classed.outcomes.extend_from_slice(&old.classed.outcomes);
            let stamps = &mut entry.stamps;
            let class_of = &mut entry.classed.class_of;
            let outcomes = &mut entry.classed.outcomes;
            for (idx, &m) in buf.iter().enumerate() {
                let stamp = state.key_stamp(m);
                if old.stamps[idx] == stamp {
                    continue;
                }
                stamps[idx] = stamp;
                // The prev-key run-join of the walk below compares against
                // the *previous candidate's live key*; here the previous
                // candidate's outcome slot is authoritative either way, so
                // joining when keys match keeps the same bits while
                // skipping a resolve (idx 0 has no previous candidate).
                if idx > 0
                    && state.machine_class_key(buf[idx - 1]) == state.machine_class_key(m)
                {
                    class_of[idx] = class_of[idx - 1];
                } else {
                    let outcome = resolve_candidate_outcome(
                        state,
                        job,
                        graph,
                        weights,
                        m,
                        state.machine_class_key(m),
                        job_key,
                        job_bits,
                        cache,
                    );
                    class_of[idx] = outcomes.len();
                    outcomes.push(outcome);
                }
            }
            let mut u_max = f64::NEG_INFINITY;
            for &c in &entry.classed.class_of {
                if let CandidateOutcome::Feasible { utility, .. } = entry.classed.outcomes[c] {
                    u_max = u_max.max(utility);
                }
            }
            fold_contenders_into(&entry.classed, u_max, &mut entry.contenders);
            entry.u_max = u_max;
            return Arc::new(entry);
        }
        let stamps = &mut entry.stamps;
        let class_of = &mut entry.classed.class_of;
        let outcomes = &mut entry.classed.outcomes;
        // Old class index → rebuilt outcome index, filled lazily so
        // orphaned classes (all members gone or changed) are dropped and
        // repeated repairs can't accumulate them.
        REMAP_SCRATCH.with(|remap_cell| {
            let mut remap = remap_cell.borrow_mut();
            remap.clear();
            remap.resize(old.classed.outcomes.len(), usize::MAX);
            let mut old_mpos = 0usize;
            let mut prev: Option<MachineId> = None;
            for (idx, &m) in buf.iter().enumerate() {
                let stamp = state.key_stamp(m);
                let mut old_pos = idx;
                let reusable = if same_list {
                    // Identical candidate lists (the common repair: the
                    // touched machine stayed feasible) — old slot is the
                    // same index, only the stamp needs a look.
                    old.stamps[idx] == stamp
                } else {
                    // Both candidate lists ascend by machine id — a merge
                    // walk finds m's old slot (when it was feasible last
                    // time) in O(1) amortized.
                    while old_mpos < old.candidates.len() && old.candidates[old_mpos] < m {
                        old_mpos += 1;
                    }
                    old_pos = old_mpos;
                    old_pos < old.candidates.len()
                        && old.candidates[old_pos] == m
                        && old.stamps[old_pos] == stamp
                };
                if reusable {
                    let oc = old.classed.class_of[old_pos];
                    if remap[oc] == usize::MAX {
                        remap[oc] = outcomes.len();
                        outcomes.push(old.classed.outcomes[oc].clone());
                    }
                    class_of.push(remap[oc]);
                } else if prev.is_some_and(|p| {
                    state.machine_class_key(p) == state.machine_class_key(m)
                }) {
                    // A changed machine whose live key equals the previous
                    // candidate's joins its class: equal keys pin equal
                    // outcome bits, and keeping the run intact keeps the
                    // contender window as tight as a fresh grouping's (the
                    // common case — a release returning a machine to the
                    // idle class of its neighbours).
                    class_of.push(*class_of.last().expect("prev implies nonempty"));
                } else {
                    let outcome = resolve_candidate_outcome(
                        state,
                        job,
                        graph,
                        weights,
                        m,
                        state.machine_class_key(m),
                        job_key,
                        job_bits,
                        cache,
                    );
                    class_of.push(outcomes.len());
                    outcomes.push(outcome);
                }
                stamps.push(stamp);
                prev = Some(m);
            }
        });
        let mut u_max = f64::NEG_INFINITY;
        for &c in &entry.classed.class_of {
            if let CandidateOutcome::Feasible { utility, .. } = entry.classed.outcomes[c] {
                u_max = u_max.max(utility);
            }
        }
        fold_contenders_into(&entry.classed, u_max, &mut entry.contenders);
        entry.u_max = u_max;
        entry.candidates.extend_from_slice(&buf);
        Arc::new(entry)
    })
}

/// Evaluates one memo-miss shard, repairing its stale entry when one
/// exists ([`repair_shard`]) and evaluating from scratch otherwise.
#[allow(clippy::too_many_arguments)]
fn eval_or_repair(
    state: &ClusterState,
    job: &JobSpec,
    graph: &JobGraph,
    weights: UtilityWeights,
    shards: &ShardIndex,
    s: usize,
    n: usize,
    cache: Option<&EvalCache>,
    job_key: Option<&JobClassKey>,
    stale: Option<&Arc<ShardClassed>>,
) -> Arc<ShardClassed> {
    match stale {
        Some(old) => {
            repair_shard(state, job, graph, weights, shards, s, n, cache, job_key, old)
        }
        None => evaluate_shard(state, job, graph, weights, shards, s, n, cache),
    }
}

/// Fresh (cache-free) evaluation of one shard's best feasible utility — the
/// debug shadow check behind bound pruning.
#[cfg(debug_assertions)]
fn fresh_shard_u_max(
    state: &ClusterState,
    job: &JobSpec,
    graph: &JobGraph,
    weights: UtilityWeights,
    shard: usize,
    n: usize,
) -> f64 {
    let candidates: Vec<MachineId> = state
        .shards()
        .machines(shard)
        .iter()
        .copied()
        .filter(|&m| state.free_count(m) >= n)
        .collect();
    let fresh = evaluate_topo_classes(state, job, graph, weights, &candidates, None);
    let mut u_max = f64::NEG_INFINITY;
    for &c in &fresh.class_of {
        if let CandidateOutcome::Feasible { utility, .. } = fresh.outcomes[c] {
            u_max = u_max.max(utility);
        }
    }
    u_max
}

/// Debug check behind every shard-memo hit: rebuild the candidate list and
/// re-run the class evaluation against the live state, then assert the memo
/// replays the same *per-candidate* bits — the shadow-recompute discipline
/// (DESIGN.md §9) applied to the cross-decision shard memo. A failure here
/// means some mutation path changed eval-relevant state without rebuilding
/// the touched machine's class key (and thereby bumping the shard version).
///
/// The comparison is per candidate rather than structural on purpose: a
/// repaired entry ([`repair_shard`]) may group candidates into more classes
/// than a fresh pass would merge, and its contender window may anchor runs
/// at different heads — both are invisible to the selection scan, which
/// only dereferences `outcomes[class_of[i]]` per candidate. The contender
/// window is instead checked for internal consistency against the entry's
/// *own* grouping, which is exactly what the scan walks.
#[cfg(debug_assertions)]
#[allow(clippy::too_many_arguments)]
fn debug_assert_shard_memo_matches(
    state: &ClusterState,
    job: &JobSpec,
    graph: &JobGraph,
    weights: UtilityWeights,
    shard: usize,
    n: usize,
    entry: &ShardClassed,
) {
    let candidates: Vec<MachineId> = state
        .shards()
        .machines(shard)
        .iter()
        .copied()
        .filter(|&m| state.free_count(m) >= n)
        .collect();
    let fresh = evaluate_topo_classes(state, job, graph, weights, &candidates, None);
    assert_eq!(entry.candidates, candidates, "shard {shard} memo: stale candidate set");
    for (i, &m) in candidates.iter().enumerate() {
        assert_eq!(
            entry.stamps[i],
            state.key_stamp(m),
            "shard {shard} memo: stale key stamp for machine {m}"
        );
        assert_eq!(
            entry.classed.outcomes[entry.classed.class_of[i]],
            fresh.outcomes[fresh.class_of[i]],
            "shard {shard} memo: stale outcome for machine {m}"
        );
    }
    let mut want_u_max = f64::NEG_INFINITY;
    for &c in &fresh.class_of {
        if let CandidateOutcome::Feasible { utility, .. } = fresh.outcomes[c] {
            want_u_max = want_u_max.max(utility);
        }
    }
    assert_eq!(
        entry.u_max.to_bits(),
        want_u_max.to_bits(),
        "shard {shard} memo: stale u_max fold"
    );
    assert_eq!(
        entry.contenders,
        fold_contenders(&entry.classed, entry.u_max),
        "shard {shard} memo: inconsistent contender window"
    );
}

/// The selection thresholds derived from the best feasible utility: the
/// near-tie `floor` and the SLO `gate`. Only gate on the SLO when the best
/// candidate clears it; otherwise the job is getting a violation either way
/// and pure utility should rule.
fn selection_floor_gate(u_max: f64, min_utility: f64) -> (f64, f64) {
    let floor = u_max - FRAG_TIE_EPS;
    let gate = if u_max + 1e-9 >= min_utility {
        min_utility
    } else {
        f64::NEG_INFINITY
    };
    (floor, gate)
}

/// Whether a feasible candidate drops out of the selection scan: outside
/// the near-tie band of the best utility, or below the (active) SLO gate.
fn skip_candidate(utility: f64, floor: f64, gate: f64) -> bool {
    utility + 1e-12 < floor || utility + 1e-9 < gate
}

/// Whether a surviving candidate displaces the current winner: strictly
/// lower Eq. 5 fragmentation, or equal fragmentation with strictly higher
/// utility (both to the same epsilon the flat scan has always used).
fn beats_winner(frag: f64, utility: f64, best_frag: f64, best_utility: f64) -> bool {
    frag + 1e-12 < best_frag
        || ((frag - best_frag).abs() <= 1e-12 && utility > best_utility + 1e-12)
}

/// Picks the winning candidate among `(decision, frag_after, eval_idx)`
/// triples: highest utility wins, but candidates within [`FRAG_TIE_EPS`] of
/// the best are treated as a tie and resolved by the Eq. 5 fragmentation
/// each machine would be left with — topping off a busy machine beats
/// cracking open an idle one that a wide job will need. Tied candidates
/// below `min_utility` never displace one that satisfies the SLO.
///
/// The sharded fast path streams this exact scan (same predicates via
/// [`skip_candidate`]/[`beats_winner`], same order) over class-outcome
/// references — keep the two in lockstep.
fn select_candidate(feasible: &[(Decision, f64, usize)], min_utility: f64) -> Option<usize> {
    let u_max = feasible
        .iter()
        .map(|(d, _, _)| d.utility)
        .fold(f64::NEG_INFINITY, f64::max);
    let (floor, gate) = selection_floor_gate(u_max, min_utility);
    let mut winner: Option<usize> = None;
    for (i, (d, frag, _)) in feasible.iter().enumerate() {
        if skip_candidate(d.utility, floor, gate) {
            continue;
        }
        let better = match winner {
            None => true,
            Some(w) => {
                let (dw, fw, _) = &feasible[w];
                beats_winner(*frag, d.utility, *fw, dw.utility)
            }
        };
        if better {
            winner = Some(i);
        }
    }
    winner
}

/// Eq. 5 fragmentation `machine` would be left with after granting `gpus`.
fn fragmentation_after(
    state: &ClusterState,
    machine: MachineId,
    job: &JobSpec,
    gpus: &[GpuId],
) -> f64 {
    use gts_map::PlacementOracle as _;
    StateOracle::new(state, machine, job).fragmentation_after(gpus)
}

/// Best-Fit GPU selection within a machine: GPUs from the most-utilized
/// sockets first (fewest free GPUs), then by id.
fn best_fit_gpus(state: &ClusterState, machine: MachineId, n: usize) -> Vec<GpuId> {
    let topo = state.cluster().machine(machine);
    let occupancy = state.socket_occupancy(machine);
    let mut free = state.free_gpus(machine);
    free.sort_by_key(|&g| {
        let socket = topo.socket_of(g);
        (occupancy[socket.index()].0, socket, g)
    });
    free.truncate(n);
    free
}

impl StateOracle<'_> {
    /// Public-ish shim over `PlacementOracle::interference` for policy code.
    pub(crate) fn interference_one(&self, gpus: &[GpuId]) -> f64 {
        use gts_map::PlacementOracle as _;
        self.interference(gpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_job::{BatchClass, Constraints, NnModel};
    use gts_perf::ProfileLibrary;
    use gts_topo::{power8_minsky, ClusterTopology};
    use std::sync::Arc;

    fn state(n_machines: usize) -> ClusterState {
        let machine = power8_minsky();
        let profiles = Arc::new(ProfileLibrary::generate(&machine, 1));
        let cluster = Arc::new(ClusterTopology::homogeneous(machine, n_machines));
        ClusterState::new(cluster, profiles)
    }

    fn job(id: u64, gpus: u32) -> JobSpec {
        JobSpec::new(id, NnModel::AlexNet, BatchClass::Tiny, gpus).with_min_utility(0.5)
    }

    fn g(m: u32, gpu: u32) -> GlobalGpuId {
        GlobalGpuId { machine: MachineId(m), gpu: GpuId(gpu) }
    }

    #[test]
    fn fcfs_takes_lowest_ids() {
        let s = state(2);
        let d = Policy::new(PolicyKind::Fcfs).decide(&s, &job(0, 2)).unwrap();
        assert_eq!(d.gpus, vec![g(0, 0), g(0, 1)]);
    }

    #[test]
    fn fcfs_is_topology_blind_under_fragmentation() {
        let mut s = state(1);
        // GPUs 1 and 2 free: one per socket.
        s.place(job(10, 1), vec![g(0, 0)], 1.0);
        s.place(job(11, 1), vec![g(0, 3)], 1.0);
        let d = Policy::new(PolicyKind::Fcfs).decide(&s, &job(0, 2)).unwrap();
        assert_eq!(d.gpus, vec![g(0, 1), g(0, 2)]);
        assert!(d.utility < 0.5, "cross-socket pick scores low: {}", d.utility);
    }

    #[test]
    fn best_fit_prefers_the_fuller_machine() {
        let mut s = state(2);
        s.place(job(10, 2), vec![g(1, 0), g(1, 1)], 1.0);
        // Machine 1 has 2 free, machine 0 has 4 free: BF picks machine 1.
        let d = Policy::new(PolicyKind::BestFit).decide(&s, &job(0, 2)).unwrap();
        assert_eq!(d.gpus[0].machine, MachineId(1));
    }

    #[test]
    fn best_fit_packs_into_the_fuller_socket() {
        let mut s = state(1);
        s.place(job(10, 1), vec![g(0, 0)], 1.0);
        // Socket 0 has 1 free, socket 1 has 2: BF takes GPU1 first.
        let d = Policy::new(PolicyKind::BestFit).decide(&s, &job(0, 1)).unwrap();
        assert_eq!(d.gpus, vec![g(0, 1)]);
    }

    #[test]
    fn topo_aware_packs_a_two_gpu_job() {
        let s = state(1);
        let d = Policy::new(PolicyKind::TopoAware).decide(&s, &job(0, 2)).unwrap();
        let topo = s.cluster().machine(MachineId(0));
        let local: Vec<GpuId> = d.gpus.iter().map(|x| x.gpu).collect();
        assert!(topo.is_packed(&local), "got {local:?}");
        assert!((d.utility - 1.0).abs() < 1e-9);
    }

    #[test]
    fn near_tie_consolidates_instead_of_cracking_open_an_idle_machine() {
        // Regression: a 2-GPU job joining a machine whose only tenant sits
        // on the *other* socket loses well under FRAG_TIE_EPS of utility,
        // yet the policy used to chase that sliver onto an empty machine —
        // strewing 1–2-GPU jobs across the cluster until no machine could
        // drain for a 4-GPU job (the fig10 seed-1001 waiting-time bug).
        let mut s = state(2);
        let mild = JobSpec::new(10, NnModel::GoogLeNet, BatchClass::Big, 2)
            .with_min_utility(0.5);
        s.place(mild, vec![g(0, 0), g(0, 1)], 1.0);
        let d = Policy::new(PolicyKind::TopoAware).decide(&s, &job(0, 2)).unwrap();
        assert_eq!(
            d.gpus[0].machine,
            MachineId(0),
            "a near-tie must resolve toward the machine that stays packed"
        );
        assert!(d.utility > 0.99, "the tie really is near: {}", d.utility);
    }

    #[test]
    fn tie_break_never_trades_an_slo_pass_for_a_violation() {
        let far = Decision { gpus: vec![g(0, 0)], utility: 0.503 };
        let near = Decision { gpus: vec![g(1, 0)], utility: 0.498 };
        // Both within FRAG_TIE_EPS; the lower-fragmentation pick misses the
        // job's min_utility, so the SLO-satisfying candidate must win.
        let feasible = vec![(far, 0.5, 0), (near, 0.0, 1)];
        let winner = select_candidate(&feasible, 0.5).unwrap();
        assert_eq!(winner, 0);
        // With no SLO in reach, fragmentation decides.
        let winner = select_candidate(&feasible, 0.9).unwrap();
        assert_eq!(winner, 1);
    }

    #[test]
    fn topo_aware_prefers_an_idle_machine_over_a_contended_one() {
        let mut s = state(2);
        // Machine 0 hosts a noisy tiny-batch job.
        s.place(job(10, 2), vec![g(0, 0), g(0, 1)], 1.0);
        let d = Policy::new(PolicyKind::TopoAware).decide(&s, &job(0, 2)).unwrap();
        assert_eq!(d.gpus[0].machine, MachineId(1), "should dodge interference");
    }

    #[test]
    fn decide_returns_none_when_nothing_fits() {
        let mut s = state(1);
        s.place(job(10, 4), vec![g(0, 0), g(0, 1), g(0, 2), g(0, 3)], 1.0);
        for kind in PolicyKind::ALL {
            assert!(Policy::new(kind).decide(&s, &job(0, 1)).is_none(), "{kind}");
        }
    }

    #[test]
    fn fragmented_machine_yields_low_utility_for_topo_aware() {
        let mut s = state(1);
        s.place(job(10, 1), vec![g(0, 0)], 1.0);
        s.place(job(11, 1), vec![g(0, 2)], 1.0);
        let d = Policy::new(PolicyKind::TopoAwareP).decide(&s, &job(0, 2)).unwrap();
        assert!(d.utility < 0.5, "got {}", d.utility);
        // The policy itself only *proposes*; postponement is the
        // scheduler's call (Algorithm 1).
    }

    #[test]
    fn anti_collocated_job_spreads_across_machines() {
        let s = state(3);
        let mut j = job(0, 2);
        j.constraints = Constraints { single_node: false, anti_collocate: true };
        for kind in PolicyKind::ALL {
            let d = Policy::new(kind).decide(&s, &j).unwrap();
            let machines: Vec<MachineId> = d.gpus.iter().map(|x| x.machine).collect();
            assert_eq!(machines.len(), 2, "{kind}");
            assert_ne!(machines[0], machines[1], "{kind} must spread");
        }
    }

    #[test]
    fn anti_collocated_needs_enough_machines() {
        let s = state(1);
        let mut j = job(0, 2);
        j.constraints = Constraints { single_node: false, anti_collocate: true };
        assert!(Policy::new(PolicyKind::TopoAware).decide(&s, &j).is_none());
    }

    #[test]
    fn policy_display_names_match_the_paper() {
        assert_eq!(PolicyKind::Fcfs.to_string(), "FCFS");
        assert_eq!(PolicyKind::BestFit.to_string(), "BF");
        assert_eq!(PolicyKind::TopoAware.to_string(), "TOPO-AWARE");
        assert_eq!(PolicyKind::TopoAwareP.to_string(), "TOPO-AWARE-P");
        assert!(PolicyKind::TopoAwareP.postpones());
        assert!(!PolicyKind::TopoAware.postpones());
    }
}
