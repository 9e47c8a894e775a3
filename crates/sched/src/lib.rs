//! # gts-sched — the topology-aware scheduler (§4.4, §5.2)
//!
//! Implements Algorithm 1 around the `gts-map` mapping engine:
//!
//! * [`state`] — live cluster allocation state (free GPUs per machine,
//!   running jobs and their §4.2 profiles);
//! * [`classes`] — the live machine-class table the state keeps: every
//!   machine-class key in use, with its ordered members, bucketed by free
//!   GPUs;
//! * [`oracle`] — the [`gts_map::PlacementOracle`] backed by that state:
//!   Eq. 4 interference prediction and Eq. 5 fragmentation;
//! * [`eval`] — the memoized candidate-evaluation engine behind
//!   `TOPO-AWARE(-P)`: one evaluation per live machine class on the
//!   caller's thread, the cross-event `(machine class, job class)`
//!   outcome cache, and [`EvalParams`], whose [`EvalParams::sequential`]
//!   selects the reference oracle;
//! * [`policy`] — the four evaluated policies: `TOPO-AWARE`,
//!   `TOPO-AWARE-P` (postponing), `FCFS` and Best-Fit (`BF`);
//! * [`scheduler`] — the Algorithm 1 loop: arrival-ordered queue, host
//!   filtering, placement or postponement, SLO accounting, and the
//!   decision memo that answers a retry on an unchanged state;
//! * [`overhead`] — decision-latency metering for the §5.5.3 analysis;
//! * [`trace`] — opt-in decision-trace events: per-candidate Eq. 2 utility
//!   breakdowns and every place/postpone/release/failure the loop makes.

#![warn(missing_docs)]

pub mod classes;
pub mod enforcement;
pub mod eval;
pub mod oracle;
pub mod overhead;
pub mod policy;
pub mod scheduler;
pub mod spill;
pub mod state;
pub mod trace;

pub use enforcement::{launch_plan, LaunchPlan};
pub use eval::{EvalCache, EvalCacheStats, EvalParams};
pub use oracle::StateOracle;
pub use overhead::DecisionStats;
pub use policy::{Policy, PolicyKind};
pub use scheduler::{CancelOutcome, PlacementOutcome, Scheduler, SchedulerConfig};
pub use spill::{decide_spill, ClusterOracle};
pub use state::{Allocation, ClusterState};
pub use trace::{CandidateEval, EvalOutcome, TraceEvent};
