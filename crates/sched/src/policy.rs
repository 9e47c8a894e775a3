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

use crate::classes::ClassId;
use crate::eval::{
    evaluate_live_classes, evaluate_topo_candidates, CandidateOutcome, EvalCache, EvalParams,
    JobClassId,
};
use crate::oracle::{placement_components, placement_utility, StateOracle};
use crate::state::{on_machine, ClusterState};
use crate::trace::{CandidateEval, EvalOutcome};
use gts_job::{JobGraph, JobSpec};
use gts_map::UtilityWeights;
use gts_topo::{GlobalGpuId, GpuId, MachineId};
use serde::{Deserialize, Serialize};
use std::fmt;

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
        Self {
            kind,
            weights: UtilityWeights::default(),
        }
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
    /// parameters come from the environment ([`EvalParams::from_env`]);
    /// there is no cache and no trace.
    pub fn decide(&self, state: &ClusterState, job: &JobSpec) -> Option<Decision> {
        self.decide_with(state, job, EvalParams::from_env(), None, None)
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

    /// Whether `job` takes the production class-level decision (DESIGN.md
    /// §15): the topo policies under production parameters, except
    /// multi-GPU anti-collocated jobs, which have their own search. Only
    /// these jobs read the cross-event cache and the scheduler's decision
    /// memo.
    pub(crate) fn takes_class_path(&self, job: &JobSpec, params: EvalParams) -> bool {
        matches!(self.kind, PolicyKind::TopoAware | PolicyKind::TopoAwareP)
            && !params.is_sequential()
            && !(job.constraints.anti_collocate && job.n_gpus > 1)
    }

    /// [`Policy::decide`] with explicit evaluation-engine parameters, an
    /// optional cross-event cache and an optional trace.
    ///
    /// * `params`: [`EvalParams::sequential`] selects the reference path
    ///   the engine is proven bit-identical to; that path ignores `cache`.
    /// * `cache`: class evaluations already cached from earlier arrivals
    ///   are replayed instead of re-running DRB. A job on the class path
    ///   has its class interned in `cache` first; the scheduler interns at
    ///   submit instead and decides through `Policy::decide_interned`.
    /// * `trace`: receives every candidate machine the search touched,
    ///   with its Eq. 2 utility breakdown, in search order; the winning
    ///   candidate (if any) is marked [`EvalOutcome::Chosen`]. Traced
    ///   decisions decide over the live machine classes (DESIGN.md §15)
    ///   and expand the class outcomes into one record per candidate.
    pub fn decide_with(
        &self,
        state: &ClusterState,
        job: &JobSpec,
        params: EvalParams,
        cache: Option<&EvalCache>,
        trace: Option<&mut Vec<CandidateEval>>,
    ) -> Option<Decision> {
        let cached = match cache {
            Some(cache) if self.takes_class_path(job, params) => {
                cache.intern(job, self.weights).map(|class| (cache, class))
            }
            _ => None,
        };
        self.decide_interned(state, job, params, cached, trace)
    }

    /// [`Policy::decide_with`] for a job whose class the caller has
    /// already interned: `cached` names the cache and the job's class id
    /// in it, and is `None` when the job is to be decided uncached.
    pub(crate) fn decide_interned(
        &self,
        state: &ClusterState,
        job: &JobSpec,
        params: EvalParams,
        cached: Option<(&EvalCache, JobClassId)>,
        mut trace: Option<&mut Vec<CandidateEval>>,
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
        if self.takes_class_path(job, params) {
            return self.decide_topo_classes(state, job, trace, cached, true);
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
                    let gpus: Vec<GpuId> = state.free_gpus(machine).into_iter().take(n).collect();
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
                // The sequential reference: one evaluation and one
                // `Decision` per feasible candidate, then the member scan.
                let graph = JobGraph::from_spec(job);
                let outcomes =
                    evaluate_topo_candidates(state, job, &graph, self.weights, &candidates);
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
                        CandidateOutcome::Feasible {
                            gpus,
                            utility,
                            frag_after,
                        } => {
                            self.record_eval(
                                &mut trace,
                                state,
                                job,
                                machine,
                                &gpus,
                                EvalOutcome::Outscored,
                            );
                            let eval_idx = trace.as_deref().map(|t| t.len() - 1).unwrap_or(0);
                            let d = Decision {
                                gpus: on_machine(machine, &gpus),
                                utility,
                            };
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

    /// The class-level decision with no cache, counting no fallback: what
    /// the scheduler's debug shadow compares an answer from its decision
    /// memo against.
    #[cfg(debug_assertions)]
    pub(crate) fn fresh_class_decision(
        &self,
        state: &ClusterState,
        job: &JobSpec,
    ) -> Option<Decision> {
        self.decide_topo_classes(state, job, None, None, false)
    }

    /// The class-level decision for `TOPO-AWARE(-P)` (DESIGN.md §15), racked
    /// or flat, traced or not: one outcome per live machine class with at
    /// least `n` free GPUs (ascending lowest member, looked up in the
    /// cross-event cache under the job's interned class, `cached`, before
    /// any miss evaluates), the reference selection scan over the classes,
    /// and one [`Decision`] on the winning class's lowest member. A traced
    /// run expands the class outcomes into the reference's per-candidate
    /// records. `count_fallback` is false only for the debug shadow, so
    /// that it leaves `class_order_fallbacks` as a release build counts it.
    fn decide_topo_classes(
        &self,
        state: &ClusterState,
        job: &JobSpec,
        trace: Option<&mut Vec<CandidateEval>>,
        cached: Option<(&EvalCache, JobClassId)>,
        count_fallback: bool,
    ) -> Option<Decision> {
        let n = job.n_gpus as usize;
        let table = state.classes();
        let mut classes: Vec<(MachineId, ClassId)> = Vec::new();
        table.with_capacity_into(n, &mut classes);
        if classes.is_empty() {
            if !job.constraints.single_node {
                return self.decide_spilled(state, job);
            }
            return None;
        }
        let outcomes = evaluate_live_classes(state, job, self.weights, &classes, cached);
        let mut feasible: Vec<FeasibleClass> = Vec::new();
        for (i, outcome) in outcomes.iter().enumerate() {
            if let CandidateOutcome::Feasible {
                utility,
                frag_after,
                ..
            } = outcome
            {
                feasible.push(FeasibleClass {
                    lowest: classes[i].0,
                    utility: *utility,
                    frag_after: *frag_after,
                    index: i,
                });
            }
        }
        let winner = pick_class_winner(
            &feasible,
            job.min_utility,
            |f| table.members(classes[feasible[f].index].1).iter().copied(),
            || {
                if count_fallback {
                    table.note_fallback();
                }
            },
        );
        if let Some(evals) = trace {
            self.record_class_evals(evals, state, job, &classes, &outcomes, winner.map(|w| w.0));
        }
        let (machine, f) = winner?;
        let CandidateOutcome::Feasible { gpus, utility, .. } = &outcomes[feasible[f].index] else {
            unreachable!("feasible classes hold feasible outcomes");
        };
        Some(Decision {
            gpus: on_machine(machine, gpus),
            utility: *utility,
        })
    }

    /// The traced form of a class-level decision: one [`CandidateEval`] per
    /// member of every class in `classes`, in ascending machine order,
    /// carrying its class's outcome — the records the sequential
    /// reference writes — with `chosen` marked [`EvalOutcome::Chosen`].
    fn record_class_evals(
        &self,
        evals: &mut Vec<CandidateEval>,
        state: &ClusterState,
        job: &JobSpec,
        classes: &[(MachineId, ClassId)],
        outcomes: &[CandidateOutcome],
        chosen: Option<MachineId>,
    ) {
        let table = state.classes();
        let mut candidates: Vec<(MachineId, usize)> = classes
            .iter()
            .enumerate()
            .flat_map(|(i, &(_, c))| table.members(c).iter().map(move |&m| (m, i)))
            .collect();
        candidates.sort_unstable();
        let mut trace = Some(evals);
        for (machine, i) in candidates {
            let (gpus, outcome): (&[GpuId], EvalOutcome) = match &outcomes[i] {
                CandidateOutcome::NoMapping => (&[], EvalOutcome::NoMapping),
                CandidateOutcome::RejectedBandwidth { gpus } => {
                    (gpus, EvalOutcome::RejectedBandwidth)
                }
                CandidateOutcome::Feasible { gpus, .. } if Some(machine) == chosen => {
                    (gpus, EvalOutcome::Chosen)
                }
                CandidateOutcome::Feasible { gpus, .. } => (gpus, EvalOutcome::Outscored),
            };
            self.record_eval(&mut trace, state, job, machine, gpus, outcome);
        }
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
                state
                    .fits_bw(m, &[first], per_task_bw)
                    .then_some((m, first))
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
                    .map(|(m, g)| (StateOracle::new(state, m, job).interference_one(&[g]), m, g))
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
            .map(|g| StateOracle::new(state, g.machine, job).interference_one(&[g.gpu]))
            .sum::<f64>()
            / n as f64;
        let utility =
            self.weights.cc * 1.0 + self.weights.b * mean_interference + self.weights.d * 1.0;
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
        Decision {
            gpus: on_machine(machine, &gpus),
            utility,
        }
    }
}

/// Utilities closer than this are indistinguishable: the Eq. 4 interference
/// model is only a few percent accurate against the Fig. 6 measurements, so
/// preferring a machine for a sub-percent utility edge is noise-chasing.
const FRAG_TIE_EPS: f64 = 0.01;

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
/// Only the sequential reference calls this. The class-level decision
/// runs the same scan (same predicates via [`skip_candidate`] and
/// [`beats_winner`]) once per surviving class ([`pick_class_winner`]) —
/// keep the two in lockstep.
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

/// One feasible live class as the class-level selection sees it.
#[derive(Debug, Clone, Copy)]
struct FeasibleClass {
    /// The class's lowest member id.
    lowest: MachineId,
    /// The class's Eq. 2 utility.
    utility: f64,
    /// The class's Eq. 5 fragmentation-after.
    frag_after: f64,
    /// Position of the class in the decision's class list.
    index: usize,
}

/// The class-level form of [`select_candidate`] (DESIGN.md §15.3):
/// `feasible` lists the feasible classes ascending by lowest member, and
/// `members(f)` yields the members of `feasible[f]`. Returns the machine
/// the reference scan over every member in ascending id would pick, the
/// position of its class in `feasible`; `on_fallback` runs when the pick
/// needed the ordered member scan.
///
/// Class members carry identical outcome bits, so when [`beats_winner`]
/// is a strict order on the surviving classes ([`frags_separated`]) no
/// member after the first of its class can displace the running winner,
/// and scanning the survivors once each, by lowest member, picks the
/// lowest member of the reference's winning class. Otherwise the
/// survivors' members are merged into ascending id order and scanned one
/// by one, exactly as the reference does.
fn pick_class_winner<F, I>(
    feasible: &[FeasibleClass],
    min_utility: f64,
    members: F,
    on_fallback: impl FnOnce(),
) -> Option<(MachineId, usize)>
where
    F: Fn(usize) -> I,
    I: IntoIterator<Item = MachineId>,
{
    let u_max = feasible
        .iter()
        .map(|c| c.utility)
        .fold(f64::NEG_INFINITY, f64::max);
    let (floor, gate) = selection_floor_gate(u_max, min_utility);
    let survives = |c: &FeasibleClass| !skip_candidate(c.utility, floor, gate);
    let mut best: Option<usize> = None;
    if frags_separated(
        feasible
            .iter()
            .filter(|c| survives(c))
            .map(|c| c.frag_after),
    ) {
        for (f, c) in feasible.iter().enumerate() {
            if !survives(c) {
                continue;
            }
            let better = best.is_none_or(|b| {
                beats_winner(
                    c.frag_after,
                    c.utility,
                    feasible[b].frag_after,
                    feasible[b].utility,
                )
            });
            if better {
                best = Some(f);
            }
        }
        return best.map(|f| (feasible[f].lowest, f));
    }
    on_fallback();
    let mut order: Vec<(MachineId, usize)> = feasible
        .iter()
        .enumerate()
        .filter(|(_, c)| survives(c))
        .flat_map(|(f, _)| members(f).into_iter().map(move |m| (m, f)))
        .collect();
    order.sort_unstable();
    let mut winner: Option<MachineId> = None;
    for (m, f) in order {
        let c = &feasible[f];
        let better = best.is_none_or(|b| {
            beats_winner(
                c.frag_after,
                c.utility,
                feasible[b].frag_after,
                feasible[b].utility,
            )
        });
        if better {
            best = Some(f);
            winner = Some(m);
        }
    }
    Some((winner?, best?))
}

/// The order check behind [`pick_class_winner`]: true when the distinct
/// fragmentations among the surviving classes, sorted, are pairwise
/// separated under both [`beats_winner`] arms (`a + 1e-12 < b` and
/// `|b − a| > 1e-12`). Then `beats_winner` on the survivors is
/// "strictly lower fragmentation, or bit-equal fragmentation and a
/// utility more than 1e-12 higher" — asymmetric and transitive
/// (DESIGN.md §15.3). Checking neighbours suffices, as both readings are
/// monotone in the gap. Signed zeros and NaNs fail the check, so they
/// take the member scan.
fn frags_separated(frags: impl Iterator<Item = f64>) -> bool {
    let mut sorted: Vec<f64> = frags.collect();
    sorted.sort_unstable_by(f64::total_cmp);
    sorted.dedup_by(|a, b| a.to_bits() == b.to_bits());
    sorted
        .windows(2)
        .all(|w| w[0] + 1e-12 < w[1] && (w[1] - w[0]).abs() > 1e-12)
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
        GlobalGpuId {
            machine: MachineId(m),
            gpu: GpuId(gpu),
        }
    }

    #[test]
    fn fcfs_takes_lowest_ids() {
        let s = state(2);
        let d = Policy::new(PolicyKind::Fcfs)
            .decide(&s, &job(0, 2))
            .unwrap();
        assert_eq!(d.gpus, vec![g(0, 0), g(0, 1)]);
    }

    #[test]
    fn fcfs_is_topology_blind_under_fragmentation() {
        let mut s = state(1);
        // GPUs 1 and 2 free: one per socket.
        s.place(job(10, 1), vec![g(0, 0)], 1.0);
        s.place(job(11, 1), vec![g(0, 3)], 1.0);
        let d = Policy::new(PolicyKind::Fcfs)
            .decide(&s, &job(0, 2))
            .unwrap();
        assert_eq!(d.gpus, vec![g(0, 1), g(0, 2)]);
        assert!(
            d.utility < 0.5,
            "cross-socket pick scores low: {}",
            d.utility
        );
    }

    #[test]
    fn best_fit_prefers_the_fuller_machine() {
        let mut s = state(2);
        s.place(job(10, 2), vec![g(1, 0), g(1, 1)], 1.0);
        // Machine 1 has 2 free, machine 0 has 4 free: BF picks machine 1.
        let d = Policy::new(PolicyKind::BestFit)
            .decide(&s, &job(0, 2))
            .unwrap();
        assert_eq!(d.gpus[0].machine, MachineId(1));
    }

    #[test]
    fn best_fit_packs_into_the_fuller_socket() {
        let mut s = state(1);
        s.place(job(10, 1), vec![g(0, 0)], 1.0);
        // Socket 0 has 1 free, socket 1 has 2: BF takes GPU1 first.
        let d = Policy::new(PolicyKind::BestFit)
            .decide(&s, &job(0, 1))
            .unwrap();
        assert_eq!(d.gpus, vec![g(0, 1)]);
    }

    #[test]
    fn topo_aware_packs_a_two_gpu_job() {
        let s = state(1);
        let d = Policy::new(PolicyKind::TopoAware)
            .decide(&s, &job(0, 2))
            .unwrap();
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
        let mild = JobSpec::new(10, NnModel::GoogLeNet, BatchClass::Big, 2).with_min_utility(0.5);
        s.place(mild, vec![g(0, 0), g(0, 1)], 1.0);
        let d = Policy::new(PolicyKind::TopoAware)
            .decide(&s, &job(0, 2))
            .unwrap();
        assert_eq!(
            d.gpus[0].machine,
            MachineId(0),
            "a near-tie must resolve toward the machine that stays packed"
        );
        assert!(d.utility > 0.99, "the tie really is near: {}", d.utility);
    }

    #[test]
    fn tie_break_never_trades_an_slo_pass_for_a_violation() {
        let far = Decision {
            gpus: vec![g(0, 0)],
            utility: 0.503,
        };
        let near = Decision {
            gpus: vec![g(1, 0)],
            utility: 0.498,
        };
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
        let d = Policy::new(PolicyKind::TopoAware)
            .decide(&s, &job(0, 2))
            .unwrap();
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
        let d = Policy::new(PolicyKind::TopoAwareP)
            .decide(&s, &job(0, 2))
            .unwrap();
        assert!(d.utility < 0.5, "got {}", d.utility);
        // The policy itself only *proposes*; postponement is the
        // scheduler's call (Algorithm 1).
    }

    #[test]
    fn anti_collocated_job_spreads_across_machines() {
        let s = state(3);
        let mut j = job(0, 2);
        j.constraints = Constraints {
            single_node: false,
            anti_collocate: true,
        };
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
        j.constraints = Constraints {
            single_node: false,
            anti_collocate: true,
        };
        assert!(Policy::new(PolicyKind::TopoAware).decide(&s, &j).is_none());
    }

    /// A fabricated class for the selection tests: its outcome bits and
    /// its members.
    struct FakeClass {
        utility: f64,
        frag: f64,
        members: Vec<MachineId>,
    }

    /// The reference: one `Decision` per member, ascending machine id,
    /// through `select_candidate`.
    fn member_scan(classes: &[FakeClass], min_utility: f64) -> Option<MachineId> {
        let mut members: Vec<(MachineId, usize)> = classes
            .iter()
            .enumerate()
            .flat_map(|(i, c)| c.members.iter().map(move |&m| (m, i)))
            .collect();
        members.sort_unstable();
        let feasible: Vec<(Decision, f64, usize)> = members
            .iter()
            .map(|&(m, i)| {
                let d = Decision {
                    gpus: vec![g(m.0, 0)],
                    utility: classes[i].utility,
                };
                (d, classes[i].frag, 0)
            })
            .collect();
        select_candidate(&feasible, min_utility).map(|w| members[w].0)
    }

    /// The class-level selection over the same classes; returns the pick
    /// and how many fallbacks it counted.
    fn class_scan(classes: &[FakeClass], min_utility: f64) -> (Option<MachineId>, u32) {
        let mut order: Vec<usize> = (0..classes.len()).collect();
        order.sort_by_key(|&i| classes[i].members.iter().min().copied());
        let feasible: Vec<FeasibleClass> = order
            .iter()
            .map(|&i| FeasibleClass {
                lowest: *classes[i].members.iter().min().expect("members"),
                utility: classes[i].utility,
                frag_after: classes[i].frag,
                index: i,
            })
            .collect();
        let fallbacks = std::cell::Cell::new(0);
        let pick = pick_class_winner(
            &feasible,
            min_utility,
            |f| classes[feasible[f].index].members.iter().copied(),
            || fallbacks.set(fallbacks.get() + 1),
        );
        (pick.map(|(m, _)| m), fallbacks.get())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2000))]

        /// Classes whose utilities and fragmentations differ by 0 to 2e-12
        /// in steps of 0.5e-12 — around both `beats_winner` epsilons, where
        /// float rounding decides the arms — plus some outside the near-tie
        /// band, with members interleaved at random. The class-level
        /// selection must pick the machine the reference member scan picks.
        #[test]
        fn class_selection_matches_the_member_scan(
            shape in proptest::collection::vec((0u32..7, 0u32..5, 1usize..4), 1..7),
            base_u in proptest::sample::select(vec![0.0, 0.45, 0.6, 0.9]),
            base_f in proptest::sample::select(vec![0.0, 0.25, 0.5, 1.0]),
            min_utility in proptest::sample::select(vec![0.0, 0.45, 0.6, 0.9, 1.1]),
            shuffle in 0u64..u64::MAX,
        ) {
            const STEP: f64 = 0.5e-12;
            let total: usize = shape.iter().map(|&(_, _, k)| k).sum();
            // Machine ids 0..total in a seed-driven order, dealt to the
            // classes in turn: a random interleaving of the member sets.
            let mut ids: Vec<(u64, u32)> = (0..total as u32)
                .map(|m| ((u64::from(m) + 1).wrapping_mul(shuffle | 1).rotate_left(17), m))
                .collect();
            ids.sort_unstable();
            let mut next = ids.into_iter().map(|(_, m)| MachineId(m));
            let classes: Vec<FakeClass> = shape
                .iter()
                .map(|&(du, df, k)| FakeClass {
                    utility: match du {
                        5 => base_u - 0.005,
                        6 => base_u - 0.02,
                        _ => base_u + f64::from(du) * STEP,
                    },
                    frag: base_f + f64::from(df) * STEP,
                    members: next.by_ref().take(k).collect(),
                })
                .collect();
            let (got, _) = class_scan(&classes, min_utility);
            proptest::prop_assert_eq!(got, member_scan(&classes, min_utility));
        }
    }

    /// Three classes whose `beats_winner` relation is a cycle (A beats B
    /// and B beats C on utility within the fragmentation tie band, C beats
    /// A on fragmentation): the order check must reject them, and the
    /// counted member scan must return the reference's pick — here a
    /// later member of B, which a class-by-class scan would miss.
    #[test]
    fn selection_falls_back_on_a_beats_winner_cycle() {
        let (a, b, c) = ((0.9 + 4e-12, 1.8e-12), (0.9 + 2e-12, 0.9e-12), (0.9, 0.0));
        assert!(beats_winner(a.1, a.0, b.1, b.0), "A beats B");
        assert!(beats_winner(b.1, b.0, c.1, c.0), "B beats C");
        assert!(beats_winner(c.1, c.0, a.1, a.0), "C beats A");
        let class = |(utility, frag): (f64, f64), ids: &[u32]| FakeClass {
            utility,
            frag,
            members: ids.iter().map(|&m| MachineId(m)).collect(),
        };
        let classes = [class(a, &[0]), class(b, &[1, 3]), class(c, &[2])];
        let want = member_scan(&classes, 0.5);
        assert_eq!(
            want,
            Some(MachineId(3)),
            "the reference picks B's second member"
        );
        assert_eq!(
            class_scan(&classes, 0.5),
            (want, 1),
            "one counted fallback, same pick"
        );
    }

    /// The class-level decision places on the lowest member of the
    /// winning class and leaves the fallback counter alone on an ordered
    /// selection.
    #[test]
    fn class_decision_places_on_the_lowest_member() {
        let mut s = state(4);
        // Machines 1 and 3 run the same mild co-runner on the same GPUs:
        // the packed 2-GPU slot next to it wins the near-tie on
        // fragmentation over the idle machines 0 and 2.
        let mild = |id| JobSpec::new(id, NnModel::GoogLeNet, BatchClass::Big, 2);
        s.place(mild(10), vec![g(3, 0), g(3, 1)], 1.0);
        s.place(mild(11), vec![g(1, 0), g(1, 1)], 1.0);
        let want = Policy::new(PolicyKind::TopoAware)
            .decide_with(&s, &job(0, 2), EvalParams::sequential(), None, None)
            .unwrap();
        let got = Policy::new(PolicyKind::TopoAware)
            .decide_with(&s, &job(0, 2), EvalParams::parallel(2), None, None)
            .unwrap();
        assert_eq!(got, want);
        assert_eq!(
            got.gpus[0].machine,
            MachineId(1),
            "lowest member of the winning class"
        );
        assert_eq!(s.classes().fallbacks(), 0);
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
