//! # gts-map — the paper's graph-mapping engine (§4.3, §4.4)
//!
//! The algorithmic core of the contribution:
//!
//! * [`affinity`] — turns a set of available GPUs into the affinity graph
//!   the partitioner consumes (affinity = inverse qualitative distance, so
//!   min-cut keeps close GPUs together);
//! * [`fm`] — the Fiduccia–Mattheyses linear-time min-cut bipartitioner \[15\]
//!   used by `physicalGraphBiPartition()`;
//! * [`drb`] — Algorithm 2, Hierarchical Static Mapping Dual Recursive
//!   Bi-Partitioning after Ercal et al. \[12\] / SCOTCH \[34\], driven by the
//!   utility-based job bipartition of Algorithm 3;
//! * [`mod@utility`] — Equations 1–5: objective, utility, communication cost,
//!   interference and fragmentation, plus the normalized per-job utility the
//!   postponement threshold compares against.
//!
//! The engine is pure: anything that needs live cluster state (running
//! jobs, free GPUs) reaches it through the [`drb::PlacementOracle`] trait,
//! implemented by `gts-sched`.

#![warn(missing_docs)]

pub mod affinity;
pub mod drb;
pub mod fm;
pub mod utility;

pub use affinity::AffinityGraph;
pub use drb::{drb_map, split_memo_len, MappingError, PlacementOracle};
pub use fm::{fm_bipartition, fm_bipartition_with, Bipartition, FmScratch};
pub use utility::{
    eq3_comm_cost, eq4_interference, eq5_fragmentation, eq5_fragmentation_iter, utility,
    UtilityComponents, UtilityWeights,
};
