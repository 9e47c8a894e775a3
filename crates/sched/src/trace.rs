//! Placement decision tracing.
//!
//! Every Algorithm 1 decision leaves an auditable record: which machines
//! the policy looked at, the Eq. 2 utility breakdown (`u_cc`, `u_b`, `u_d`)
//! each candidate scored, and what the scheduler finally did. The stream is
//! opt-in (see [`crate::Scheduler::set_tracing`]) so steady-state runs and
//! benches pay nothing; the simulator surfaces it as `SimResult::trace` and
//! the `gts trace` subcommand pretty-prints it.

use gts_job::JobId;
use gts_topo::{GlobalGpuId, GpuId, MachineId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// What happened to one candidate machine during a placement search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvalOutcome {
    /// This candidate won the search and became the decision.
    Chosen,
    /// Feasible, but another machine scored a higher utility.
    Outscored,
    /// The §4.3 bandwidth constraint rejected the pick.
    RejectedBandwidth,
    /// The DRB mapper could not produce an assignment here.
    NoMapping,
}

impl fmt::Display for EvalOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EvalOutcome::Chosen => "chosen",
            EvalOutcome::Outscored => "outscored",
            EvalOutcome::RejectedBandwidth => "rejected-bw",
            EvalOutcome::NoMapping => "no-mapping",
        };
        f.write_str(s)
    }
}

/// One candidate machine's evaluation: the GPU pick the policy would make
/// there and its Eq. 2 utility breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateEval {
    /// The machine evaluated.
    pub machine: MachineId,
    /// The machine-local GPUs the policy would grant there.
    pub gpus: Vec<GpuId>,
    /// Communication quality (`best_cost / actual_cost`), ∈ (0, 1].
    pub u_cc: f64,
    /// Interference quality (Eq. 4 mean of solo/collocated ratios), ∈ (0, 1].
    pub u_b: f64,
    /// Domain-spanning quality (Eq. 5 reading), ∈ [0, 1].
    pub u_d: f64,
    /// The weighted Eq. 2 total.
    pub utility: f64,
    /// Eq. 5 fragmentation the machine would be left with after this pick
    /// (0 = sockets topped off, 1 = everything free) — the consolidation
    /// tie-break the search applies between near-equal utilities.
    pub frag_after: f64,
    /// How the search disposed of this candidate.
    pub outcome: EvalOutcome,
}

/// One entry of the decision-trace stream, in event order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A job entered the waiting queue.
    Arrived {
        /// Event time, seconds.
        t_s: f64,
        /// The arriving job.
        job: JobId,
    },
    /// The policy searched candidate machines for a job. Present only for
    /// decisions where at least one machine passed the capacity filter.
    Evaluated {
        /// Event time, seconds.
        t_s: f64,
        /// The job being placed.
        job: JobId,
        /// Per-machine evaluations, in search order.
        candidates: Vec<CandidateEval>,
    },
    /// The job was granted GPUs.
    Placed {
        /// Event time, seconds.
        t_s: f64,
        /// The placed job.
        job: JobId,
        /// GPUs granted, in task order.
        gpus: Vec<GlobalGpuId>,
        /// Decision-time utility.
        utility: f64,
        /// True when the utility fell below the job's `min_utility`.
        slo_violated: bool,
    },
    /// TOPO-AWARE-P parked the job for low utility.
    Postponed {
        /// Event time, seconds.
        t_s: f64,
        /// The parked job.
        job: JobId,
        /// The rejected utility.
        utility: f64,
    },
    /// No feasible GPUs right now; the job keeps waiting.
    Waiting {
        /// Event time, seconds.
        t_s: f64,
        /// The waiting job.
        job: JobId,
    },
    /// A finished (or cancelled) job gave its GPUs back.
    Released {
        /// Event time, seconds.
        t_s: f64,
        /// The releasing job.
        job: JobId,
    },
    /// A multi-node-capable job was placed across machines because no
    /// single machine could host it.
    Spilled {
        /// Event time, seconds.
        t_s: f64,
        /// The spilled job.
        job: JobId,
        /// Machines the allocation spans.
        machines: Vec<MachineId>,
    },
    /// A machine went offline.
    MachineFailed {
        /// Event time, seconds.
        t_s: f64,
        /// The failed machine.
        machine: MachineId,
    },
    /// A failed machine rejoined the pool.
    MachineRecovered {
        /// Event time, seconds.
        t_s: f64,
        /// The recovered machine.
        machine: MachineId,
    },
    /// End-of-run counters of the cross-event placement cache
    /// ([`crate::EvalCache`]). Appended once at the end of every traced
    /// simulation (all zero on the sequential reference, which never reads
    /// the cache); strip it to compare traces event-for-event.
    EvalCacheStats {
        /// Event time, seconds (the run's final clock).
        t_s: f64,
        /// Class evaluations answered from the cache.
        hits: u64,
        /// Class evaluations that ran the full DRB mapping.
        misses: u64,
        /// Entries displaced by LRU capacity pressure.
        evictions: u64,
    },
}

impl TraceEvent {
    /// The event's timestamp, seconds.
    pub fn t_s(&self) -> f64 {
        match self {
            TraceEvent::Arrived { t_s, .. }
            | TraceEvent::Evaluated { t_s, .. }
            | TraceEvent::Placed { t_s, .. }
            | TraceEvent::Postponed { t_s, .. }
            | TraceEvent::Waiting { t_s, .. }
            | TraceEvent::Released { t_s, .. }
            | TraceEvent::Spilled { t_s, .. }
            | TraceEvent::MachineFailed { t_s, .. }
            | TraceEvent::MachineRecovered { t_s, .. }
            | TraceEvent::EvalCacheStats { t_s, .. } => *t_s,
        }
    }

    /// The job this event concerns, if any.
    pub fn job(&self) -> Option<JobId> {
        match self {
            TraceEvent::Arrived { job, .. }
            | TraceEvent::Evaluated { job, .. }
            | TraceEvent::Placed { job, .. }
            | TraceEvent::Postponed { job, .. }
            | TraceEvent::Waiting { job, .. }
            | TraceEvent::Released { job, .. }
            | TraceEvent::Spilled { job, .. } => Some(*job),
            TraceEvent::MachineFailed { .. }
            | TraceEvent::MachineRecovered { .. }
            | TraceEvent::EvalCacheStats { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_cover_every_variant() {
        let events = [
            TraceEvent::Arrived { t_s: 1.0, job: JobId(1) },
            TraceEvent::Evaluated { t_s: 2.0, job: JobId(1), candidates: vec![] },
            TraceEvent::Placed {
                t_s: 3.0,
                job: JobId(1),
                gpus: vec![],
                utility: 1.0,
                slo_violated: false,
            },
            TraceEvent::Postponed { t_s: 4.0, job: JobId(2), utility: 0.2 },
            TraceEvent::Waiting { t_s: 5.0, job: JobId(3) },
            TraceEvent::Released { t_s: 6.0, job: JobId(1) },
            TraceEvent::Spilled { t_s: 7.0, job: JobId(4), machines: vec![] },
            TraceEvent::MachineFailed { t_s: 8.0, machine: MachineId(0) },
            TraceEvent::MachineRecovered { t_s: 9.0, machine: MachineId(0) },
            TraceEvent::EvalCacheStats { t_s: 10.0, hits: 5, misses: 2, evictions: 0 },
        ];
        for (i, e) in events.iter().enumerate() {
            assert!((e.t_s() - (i as f64 + 1.0)).abs() < 1e-12);
        }
        assert_eq!(events[0].job(), Some(JobId(1)));
        assert_eq!(events[7].job(), None);
        assert_eq!(events[9].job(), None);
    }

    #[test]
    fn trace_events_round_trip_through_json() {
        let e = TraceEvent::Placed {
            t_s: 12.5,
            job: JobId(7),
            gpus: vec![GlobalGpuId { machine: MachineId(1), gpu: GpuId(2) }],
            utility: 0.875,
            slo_violated: true,
        };
        let json = serde_json::to_string(&e).expect("serializes");
        let back: TraceEvent = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, e);
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(EvalOutcome::Chosen.to_string(), "chosen");
        assert_eq!(EvalOutcome::RejectedBandwidth.to_string(), "rejected-bw");
    }
}
