//! # gts-perf — calibrated performance model for DL training
//!
//! Replaces the paper's Power8/P100 testbed measurements (Caffe + NCCL,
//! nvprof, `nvidia-smi nvlink` counters, Perfmon2) with an analytic model
//! anchored to every number §3 reports. The model answers the questions the
//! scheduler and simulator ask:
//!
//! * [`compute`] — per-iteration GPU compute time `c0 + c1·batch`, scaled per
//!   network (fits "computation ≈1 s at batch 1..2 and ≈66 s at batch 128
//!   for 40 AlexNet iterations");
//! * [`comm`] — per-iteration gradient exchange time: ring-allreduce volume
//!   over the effective bandwidth of the allocation's worst route (fits
//!   "communication ≈2 s for all batch sizes" and the 1.30× pack speedup);
//! * [`placement`] — classifies an allocation's route (P2P vs host-routed,
//!   bottleneck link) from the `gts-topo` graph;
//! * [`interference`] — the Fig. 6 collocation-slowdown model
//!   (sensitivity × pressure × domain factor);
//! * [`bandwidth`] — the sampled link-bandwidth counter emulation behind
//!   Fig. 5 and the Fig. 8 traces;
//! * [`mod@breakdown`] — Fig. 3 compute/communication shares;
//! * [`profiler`] — generates §4.2 job profiles the way §5.1 prescribes
//!   (95th percentile of five jittered runs, solo and collocated).

#![warn(missing_docs)]

pub mod bandwidth;
pub mod breakdown;
pub mod calibration;
pub mod comm;
pub mod compute;
pub mod interference;
pub mod placement;
pub mod profiler;

pub use bandwidth::{sampled_bandwidth_gbs, BandwidthTrace};
pub use breakdown::{breakdown, Breakdown};
pub use comm::{comm_time_s, ring_volume_gb};
pub use compute::compute_time_s;
pub use interference::{domain_factor, domain_factor_of_masks, pairwise_slowdown, total_slowdown};
pub use placement::{classify_route, IterTime, PlacementPerf, RouteClass};
pub use profiler::{profile_for, ProfileLibrary};
