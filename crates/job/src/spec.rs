//! Job specifications — the scheduler-facing description of a submission.

use crate::batch::BatchClass;
use crate::graph::JobGraph;
use crate::model::NnModel;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Cluster-wide unique job identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct JobId(pub u64);

impl JobId {
    /// Raw index value.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "J{}", self.0)
    }
}

/// Placement constraints a job may declare (§4.4: anti-collocation policies,
/// single-node requirements; §4.3: capacity constraints are always enforced).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Constraints {
    /// All tasks must land on a single machine (set for every job in the
    /// paper's experiments: multi-node Caffe is out of scope there).
    pub single_node: bool,
    /// Tasks must be spread across *different* machines (the paper's
    /// anti-collocation policy; mutually exclusive with `single_node`).
    pub anti_collocate: bool,
}

impl Constraints {
    /// The default for the paper's experiments: single-node jobs.
    pub fn single_node() -> Self {
        Self { single_node: true, anti_collocate: false }
    }

    /// Validity check: a job cannot demand both shapes at once.
    pub fn is_valid(self) -> bool {
        !(self.single_node && self.anti_collocate)
    }
}

/// A job submission, as read from a JSON manifest (Appendix A.3) or produced
/// by the workload generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Unique id.
    pub id: JobId,
    /// Network to train.
    pub model: NnModel,
    /// Per-GPU batch-size class (drives communication intensity).
    pub batch: BatchClass,
    /// Number of GPUs requested (`|A|` in §4.4).
    pub n_gpus: u32,
    /// Minimum acceptable placement utility (Table 1's "Min. Utility"); the
    /// SLO proxy. `TOPO-AWARE-P` postpones placements scoring below this.
    pub min_utility: f64,
    /// Arrival time in seconds since experiment start.
    pub arrival_s: f64,
    /// Training iterations to run (the paper uses 4 000 for timing runs).
    pub iterations: u32,
    /// Placement constraints.
    #[serde(default)]
    pub constraints: Constraints,
    /// Explicit communication graph (model parallelism). When absent, the
    /// data-parallel uniform graph keyed by the batch class is used (§5.1).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub comm_graph: Option<JobGraph>,
    /// Host memory-bandwidth demand in GB/s — the §4.3 capacity constraint
    /// `t_bw ≤ p_bw`. Zero (the default) means unconstrained.
    #[serde(default)]
    pub bw_demand_gbs: f64,
}

impl JobSpec {
    /// Builder-style constructor with the paper's defaults: single-node,
    /// 4 000 iterations, min utility 0 (always placeable).
    pub fn new(id: u64, model: NnModel, batch: BatchClass, n_gpus: u32) -> Self {
        Self {
            id: JobId(id),
            model,
            batch,
            n_gpus,
            min_utility: 0.0,
            arrival_s: 0.0,
            iterations: 4000,
            constraints: Constraints::single_node(),
            comm_graph: None,
            bw_demand_gbs: 0.0,
        }
    }

    /// Sets the arrival time.
    pub fn arriving_at(mut self, t: f64) -> Self {
        self.arrival_s = t;
        self
    }

    /// Sets the minimum utility (SLO).
    pub fn with_min_utility(mut self, u: f64) -> Self {
        self.min_utility = u;
        self
    }

    /// Sets the iteration budget.
    pub fn with_iterations(mut self, n: u32) -> Self {
        self.iterations = n;
        self
    }

    /// Attaches an explicit communication graph (model parallelism). The
    /// graph's task count must equal `n_gpus`.
    pub fn with_comm_graph(mut self, graph: JobGraph) -> Self {
        self.comm_graph = Some(graph);
        self
    }

    /// Declares a host memory-bandwidth demand (GB/s) for the §4.3
    /// `t_bw ≤ p_bw` capacity constraint.
    pub fn with_bw_demand(mut self, gbs: f64) -> Self {
        self.bw_demand_gbs = gbs;
        self
    }

    /// Whether this job communicates at all (multi-GPU data parallelism).
    pub fn communicates(&self) -> bool {
        self.n_gpus > 1
    }

    /// Sanity validation: positive GPU count, utility in [0, 1], coherent
    /// constraints, finite arrival.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_gpus == 0 {
            return Err(format!("{}: requests zero GPUs", self.id));
        }
        if !(0.0..=1.0).contains(&self.min_utility) {
            return Err(format!(
                "{}: min_utility {} outside [0,1]",
                self.id, self.min_utility
            ));
        }
        if !self.arrival_s.is_finite() || self.arrival_s < 0.0 {
            return Err(format!("{}: bad arrival time {}", self.id, self.arrival_s));
        }
        if self.iterations == 0 {
            return Err(format!("{}: zero iterations", self.id));
        }
        if !self.constraints.is_valid() {
            return Err(format!("{}: contradictory constraints", self.id));
        }
        if !self.bw_demand_gbs.is_finite() || self.bw_demand_gbs < 0.0 {
            return Err(format!(
                "{}: bandwidth demand must be finite and non-negative, got {}",
                self.id, self.bw_demand_gbs
            ));
        }
        if let Some(g) = &self.comm_graph {
            if g.n_tasks() != self.n_gpus as usize {
                return Err(format!(
                    "{}: communication graph has {} tasks but the job requests {} GPUs",
                    self.id,
                    g.n_tasks(),
                    self.n_gpus
                ));
            }
            g.validate().map_err(|e| format!("{}: {e}", self.id))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec::new(7, NnModel::AlexNet, BatchClass::Tiny, 2)
            .arriving_at(15.0)
            .with_min_utility(0.5)
    }

    #[test]
    fn builder_sets_fields() {
        let j = spec();
        assert_eq!(j.id, JobId(7));
        assert_eq!(j.arrival_s, 15.0);
        assert_eq!(j.min_utility, 0.5);
        assert!(j.constraints.single_node);
        assert!(j.communicates());
    }

    #[test]
    fn single_gpu_job_does_not_communicate() {
        let j = JobSpec::new(0, NnModel::GoogLeNet, BatchClass::Big, 1);
        assert!(!j.communicates());
    }

    #[test]
    fn validation_catches_bad_specs() {
        let mut j = spec();
        j.n_gpus = 0;
        assert!(j.validate().is_err());

        let mut j = spec();
        j.min_utility = 1.5;
        assert!(j.validate().is_err());

        let mut j = spec();
        j.arrival_s = f64::NAN;
        assert!(j.validate().is_err());

        let mut j = spec();
        j.iterations = 0;
        assert!(j.validate().is_err());

        let mut j = spec();
        j.constraints = Constraints { single_node: true, anti_collocate: true };
        assert!(j.validate().is_err());

        assert!(spec().validate().is_ok());
    }

    #[test]
    fn manifest_json_round_trip() {
        let j = spec();
        let json = serde_json::to_string_pretty(&j).unwrap();
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(j, back);
    }

    #[test]
    fn constraints_default_is_permissive() {
        let c = Constraints::default();
        assert!(!c.single_node && !c.anti_collocate && c.is_valid());
    }

    #[test]
    fn display_ids() {
        assert_eq!(JobId(3).to_string(), "J3");
    }
}
