//! Prototype run results.

use gts_job::Trace;
use gts_sched::PolicyKind;
use gts_sim::JobRecord;

/// One monitor sample: per-machine link bandwidth at a point in (simulated)
/// time — the bottom panels of Fig. 8.
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthSample {
    /// Simulated timestamp of the sample.
    pub t_s: f64,
    /// Machine the sample covers.
    pub machine: usize,
    /// Observed P2P bandwidth, GB/s.
    pub p2p_gbs: f64,
    /// Observed GPU–CPU–GPU bandwidth, GB/s.
    pub host_gbs: f64,
}

/// Outcome of one prototype run.
#[derive(Debug, Clone)]
pub struct ProtoResult {
    /// Policy that drove the run.
    pub policy: PolicyKind,
    /// Per-job records (same schema as the simulator's, enabling the
    /// Fig. 9 validation).
    pub records: Vec<JobRecord>,
    /// Jobs cancelled before completion (operator actions).
    pub cancelled: Vec<gts_job::JobId>,
    /// Bandwidth trace from the monitor thread.
    pub bandwidth: Vec<BandwidthSample>,
    /// Simulated completion time of the whole scenario.
    pub makespan_s: f64,
    /// SLO violations recorded by the scheduler.
    pub slo_violations: usize,
}

impl ProtoResult {
    /// Looks up one job's record.
    pub fn record(&self, id: gts_job::JobId) -> Option<&JobRecord> {
        self.records.iter().find(|r| r.spec.id == id)
    }

    /// Peak P2P bandwidth observed on any machine.
    pub fn peak_p2p_gbs(&self) -> f64 {
        self.bandwidth.iter().map(|b| b.p2p_gbs).fold(0.0, f64::max)
    }

    /// Peak host-routed bandwidth observed on any machine.
    pub fn peak_host_gbs(&self) -> f64 {
        self.bandwidth
            .iter()
            .map(|b| b.host_gbs)
            .fold(0.0, f64::max)
    }

    /// Exports the run as a replayable [`Trace`] — §5.3's workflow: "the
    /// traces are generated by performing multiple experiments on the
    /// prototype. Afterward, the trace files are parsed and transformed
    /// into a format compatible with the simulator."
    pub fn to_trace(&self, source: impl Into<String>) -> Trace {
        Trace::new(
            source,
            self.records.iter().map(|r| r.spec.clone()).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peaks_over_empty_trace_are_zero() {
        let r = ProtoResult {
            policy: PolicyKind::Fcfs,
            records: vec![],
            cancelled: vec![],
            bandwidth: vec![],
            makespan_s: 0.0,
            slo_violations: 0,
        };
        assert_eq!(r.peak_p2p_gbs(), 0.0);
        assert_eq!(r.peak_host_gbs(), 0.0);
        assert!(r.record(gts_job::JobId(0)).is_none());
    }

    #[test]
    fn peaks_take_the_max() {
        let r = ProtoResult {
            policy: PolicyKind::TopoAwareP,
            records: vec![],
            cancelled: vec![],
            bandwidth: vec![
                BandwidthSample {
                    t_s: 0.0,
                    machine: 0,
                    p2p_gbs: 10.0,
                    host_gbs: 1.0,
                },
                BandwidthSample {
                    t_s: 1.0,
                    machine: 0,
                    p2p_gbs: 40.0,
                    host_gbs: 3.0,
                },
            ],
            makespan_s: 2.0,
            slo_violations: 0,
        };
        assert_eq!(r.peak_p2p_gbs(), 40.0);
        assert_eq!(r.peak_host_gbs(), 3.0);
    }
}
