//! # gts-job — learning-workload model
//!
//! Everything the scheduler knows about a *job*, per §2, §4.1.1, §4.2 and
//! §5.2.1 of the paper:
//!
//! * [`model::NnModel`] / [`batch::BatchClass`] — the three Caffe networks
//!   (AlexNet, CaffeRef, GoogLeNet) and the four batch-size classes
//!   (tiny/small/medium/big) that drive communication intensity;
//! * [`spec::JobSpec`] — a job request: GPUs wanted, minimum utility (the
//!   SLO proxy), arrival time, placement constraints;
//! * [`graph::JobGraph`] — the job communication graph `A`: vertices are the
//!   requested GPUs, every pair connected with a uniform weight 4..1 keyed by
//!   batch class (§5.1, data-parallel all-to-all);
//! * [`profile::JobProfile`] — the §4.2 profile: solo times for best/worst
//!   placements plus interference sensitivity/pressure coefficients;
//! * [`queue::WaitQueue`] — the arrival-ordered waiting queue that
//!   Algorithm 1 walks in place;
//! * [`generator::WorkloadGenerator`] — Poisson arrivals with binomial batch
//!   and model mixes (§5.3);
//! * [`manifest`] — the JSON job-manifest format the paper's prototype
//!   consumes (Appendix A.3), plus trace export/replay.

#![warn(missing_docs)]

pub mod batch;
pub mod generator;
pub mod graph;
pub mod manifest;
pub mod model;
pub mod profile;
pub mod queue;
pub mod scenario;
pub mod spec;

pub use batch::BatchClass;
pub use generator::{GeneratorConfig, WorkloadGenerator};
pub use graph::JobGraph;
pub use manifest::{JobManifest, Trace};
pub use model::NnModel;
pub use profile::JobProfile;
pub use queue::WaitQueue;
pub use spec::{Constraints, JobId, JobSpec};
