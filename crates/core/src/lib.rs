//! # gpu-topo-aware — topology-aware GPU scheduling for learning workloads
//!
//! A Rust implementation of Amaral et al., *Topology-Aware GPU Scheduling
//! for Learning Workloads in Cloud Environments* (SC'17): a placement
//! algorithm that maps a job's communication graph onto the physical GPU
//! topology via utility-guided dual recursive bipartitioning, two
//! scheduling policies built on it (`TOPO-AWARE`, `TOPO-AWARE-P`), the
//! greedy baselines it is evaluated against (FCFS, Best-Fit), and the full
//! evaluation stack: a calibrated DL performance model, a discrete-event
//! cluster simulator and a concurrent prototype runtime.
//!
//! ## Quickstart
//!
//! ```rust
//! use gts_core::prelude::*;
//! use std::sync::Arc;
//!
//! // An IBM Power8 "Minsky": 2 sockets × 2 NVLink-attached P100s.
//! let machine = power8_minsky();
//! let profiles = Arc::new(ProfileLibrary::generate(&machine, 42));
//! let cluster = Arc::new(ClusterTopology::homogeneous(machine, 4));
//!
//! // A 2-GPU AlexNet training job with a tiny batch (communication-heavy).
//! let job = JobSpec::new(0, NnModel::AlexNet, BatchClass::Tiny, 2)
//!     .with_min_utility(0.5);
//!
//! // Ask the topology-aware policy where it should run.
//! let state = ClusterState::new(cluster, profiles);
//! let policy = Policy::new(PolicyKind::TopoAwareP);
//! let decision = policy.decide(&state, &job).expect("cluster has room");
//!
//! // The mapper packs communication-heavy jobs onto NVLink pairs.
//! assert_eq!(decision.gpus.len(), 2);
//! assert!((decision.utility - 1.0).abs() < 1e-9);
//! ```
//!
//! ## Crate map
//!
//! | Module | Contents | Paper section |
//! |---|---|---|
//! | [`topo`] | machines, links, multi-level topology graphs | §4.1.2, Fig. 1/7 |
//! | [`job`] | job specs, communication graphs, profiles, workload generator | §4.1.1, §4.2, §5.3 |
//! | [`perf`] | calibrated compute/comm/interference/bandwidth models | §2, §3 |
//! | [`map`] | Fiduccia–Mattheyses, DRB (Alg. 2/3), Eq. 1–5 | §4.3, §4.4 |
//! | [`sched`] | Algorithm 1, the four policies, allocation state | §4.4, §5.2 |
//! | [`sim`] | trace-driven discrete-event simulation | §5.3–§5.5 |
//! | [`proto`] | concurrent scaled-time prototype runtime | §5.1, §5.2 |

#![warn(missing_docs)]

pub use gts_job as job;
pub use gts_map as map;
pub use gts_perf as perf;
pub use gts_proto as proto;
pub use gts_sched as sched;
pub use gts_sim as sim;
pub use gts_topo as topo;

/// The one-import surface for typical users.
pub mod prelude {
    pub use gts_job::{
        BatchClass, Constraints, GeneratorConfig, JobGraph, JobId, JobManifest, JobProfile,
        JobSpec, NnModel, Trace, WorkloadGenerator,
    };
    pub use gts_map::{drb_map, utility, UtilityComponents, UtilityWeights};
    pub use gts_perf::{PlacementPerf, ProfileLibrary, RouteClass};
    pub use gts_proto::{ProtoConfig, ProtoResult, Prototype, TimeScale};
    pub use gts_sched::{
        launch_plan, Allocation, CandidateEval, ClusterState, EvalCache, EvalCacheStats,
        EvalOutcome, EvalParams, LaunchPlan, PlacementOutcome, Policy, PolicyKind, Scheduler,
        SchedulerConfig, TraceEvent,
    };
    pub use gts_sim::{
        engine::simulate, JobRecord, SimConfig, SimConfigError, SimLoopStats, SimResult,
        Simulation, TimelineSegment,
    };
    pub use gts_topo::{
        dgx1, parse_topo_matrix, power8_minsky, power8_pcie_k80, symmetric_machine,
        ClusterTopology, GlobalGpuId, GpuId, LinkKind, LinkProfile, MachineId, MachineTopology,
        NumaInfo, SocketId,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use std::sync::Arc;

    #[test]
    fn facade_wires_the_whole_stack_together() {
        let machine = power8_minsky();
        let profiles = Arc::new(ProfileLibrary::generate(&machine, 1));
        let cluster = Arc::new(ClusterTopology::homogeneous(machine, 2));
        let trace = WorkloadGenerator::with_defaults(7).generate(10);
        let res = simulate(
            cluster,
            profiles,
            Policy::new(PolicyKind::TopoAwareP),
            trace,
        );
        assert_eq!(res.records.len(), 10);
    }
}
