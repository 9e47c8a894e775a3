//! # gts-sim — trace-driven cluster simulation (§5.3–§5.5)
//!
//! A discrete-event simulator around the `gts-sched` scheduler. Jobs arrive
//! from a trace, get placed by the configured policy, and then *progress at
//! a rate coupled to interference*: whenever a placement or completion
//! changes a job's co-runners, its slowdown is re-derived from the Fig. 6
//! model, its progress re-anchored and its completion time re-solved once.
//! This is what lets the simulator reproduce the prototype's behaviour
//! (Fig. 9 validates one against the other) and scale to the paper's
//! 10 k-job / 1 k-machine scenario (Fig. 11).
//!
//! * [`runtime`] — running-job state (anchored progress, exact completion
//!   time) and the slowdown model the prototype shares;
//! * [`engine`] — the event loop (arrivals, completions, scheduler
//!   wakeups): the incremental loop (machine-scoped slowdown refresh + a
//!   completion heap of exact times) in production, and the bit-identical
//!   O(J²)-per-event reference loop behind `SimConfig::with_incremental(false)`;
//! * [`metrics`] — per-job records (QoS slowdown, QoS+wait slowdown,
//!   utility, SLO violations), timelines and summary statistics;
//! * [`ideal`] — the "fastest execution" baseline every slowdown is
//!   measured against (packed GPUs, empty machine), shared with the
//!   prototype.

#![warn(missing_docs)]

pub mod bandwidth;
pub mod engine;
pub mod ideal;
pub mod metrics;
pub mod runtime;

pub use bandwidth::{bandwidth_series, MachineBandwidthSeries};
pub use engine::{SimConfig, SimConfigError, SimLoopStats, Simulation};
pub use ideal::{cluster_ideal_duration_s, ideal_duration_s};
pub use metrics::{JobRecord, SimEvent, SimResult, TimelineSegment};
pub use runtime::{current_slowdown, max_domain_factor, solo_iter_time, RunningJob};
