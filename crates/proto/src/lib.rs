//! # gts-proto — the prototype runtime (§5.1, §5.2)
//!
//! The paper's prototype is a C/Python daemon that loads JSON job
//! manifests, places jobs with the topology-aware algorithm, launches real
//! Caffe processes pinned to the granted GPUs (`CUDA_VISIBLE_DEVICES`,
//! `numactl`) and polls `nvidia-smi nvlink` counters while they run. This
//! crate reproduces that *architecture* with real concurrency:
//!
//! * a **scheduler daemon** owns the `gts-sched` scheduler and reacts to
//!   submission/completion events over one `std::sync::mpsc` channel;
//! * one **worker thread per running job** executes time-scaled training
//!   iterations (the calibrated `gts-perf` model stands in for Caffe),
//!   reading its current interference slowdown from shared state and
//!   publishing its link traffic to per-machine counters;
//! * a **monitor thread** samples those counters once per scaled second,
//!   yielding the Fig. 5 / Fig. 8 bandwidth traces;
//! * an **arrival injector** replays a trace in scaled real time.
//!
//! Everything runs at a configurable [`clock::TimeScale`] so the 530-second
//! Fig. 8 scenario executes in well under a second of wall time while
//! keeping genuine thread interleavings.

#![warn(missing_docs)]

pub mod clock;
pub mod counters;
pub mod daemon;
pub mod result;
pub mod worker;

pub use clock::{ScaledClock, TimeScale};
pub use counters::LinkCounters;
pub use daemon::{ProtoConfig, Prototype};
pub use result::{BandwidthSample, ProtoResult};
