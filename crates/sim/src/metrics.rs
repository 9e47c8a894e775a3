//! Per-job records, placement timelines and run summaries.

use gts_job::{JobId, JobSpec};
use gts_sched::PolicyKind;
use gts_topo::GlobalGpuId;
use serde::{Deserialize, Serialize};

/// Everything measured about one job across its lifetime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// The job as submitted.
    pub spec: JobSpec,
    /// When the scheduler placed it (wall-clock seconds).
    pub placed_at_s: f64,
    /// When it finished.
    pub finished_at_s: f64,
    /// GPUs it ran on.
    pub gpus: Vec<GlobalGpuId>,
    /// Placement utility at decision time.
    pub utility: f64,
    /// True when placed below its `min_utility` (SLO violation).
    pub slo_violated: bool,
    /// Solo duration under the *ideal* placement (packed, empty machine).
    pub ideal_duration_s: f64,
    /// How many scheduler iterations postponed this job before placement
    /// (TOPO-AWARE-P's starvation-watch counter; 0 for other policies).
    #[serde(default)]
    pub postponements: u32,
    /// How many times the job restarted after a machine failure.
    #[serde(default)]
    pub restarts: u32,
}

impl JobRecord {
    /// Actual execution time (placement → completion).
    pub fn execution_s(&self) -> f64 {
        self.finished_at_s - self.placed_at_s
    }

    /// Queue waiting time (arrival → placement).
    pub fn waiting_s(&self) -> f64 {
        self.placed_at_s - self.spec.arrival_s
    }

    /// Fig. 8(e): slowdown attributable to the placement decision alone —
    /// `execution / ideal − 1`, clamped at 0.
    pub fn qos_slowdown(&self) -> f64 {
        (self.execution_s() / self.ideal_duration_s - 1.0).max(0.0)
    }

    /// Fig. 8(f): slowdown including scheduler queue time —
    /// `(waiting + execution) / ideal − 1`, clamped at 0.
    pub fn qos_wait_slowdown(&self) -> f64 {
        ((self.waiting_s() + self.execution_s()) / self.ideal_duration_s - 1.0).max(0.0)
    }
}

/// One bar of the Fig. 8(a)–(d) placement timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineSegment {
    /// The job occupying the GPUs.
    pub job: JobId,
    /// The GPUs held.
    pub gpus: Vec<GlobalGpuId>,
    /// Segment start (placement time).
    pub start_s: f64,
    /// Segment end (completion time).
    pub end_s: f64,
}

/// One entry of the simulation's event log — the observable history of a
/// run, in time order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SimEvent {
    /// A job entered the waiting queue.
    Arrived {
        /// Event time.
        t_s: f64,
        /// The job.
        job: JobId,
    },
    /// A job received GPUs.
    Placed {
        /// Event time.
        t_s: f64,
        /// The job.
        job: JobId,
        /// Decision utility.
        utility: f64,
    },
    /// TOPO-AWARE-P parked a job below its utility threshold.
    Postponed {
        /// Event time.
        t_s: f64,
        /// The job.
        job: JobId,
    },
    /// A job finished.
    Completed {
        /// Event time.
        t_s: f64,
        /// The job.
        job: JobId,
    },
    /// A machine failed; listed jobs restarted.
    MachineFailed {
        /// Event time.
        t_s: f64,
        /// The machine.
        machine: gts_topo::MachineId,
        /// Jobs that lost their progress.
        interrupted: Vec<JobId>,
    },
}

impl SimEvent {
    /// The event's timestamp.
    pub fn t_s(&self) -> f64 {
        match self {
            SimEvent::Arrived { t_s, .. }
            | SimEvent::Placed { t_s, .. }
            | SimEvent::Postponed { t_s, .. }
            | SimEvent::Completed { t_s, .. }
            | SimEvent::MachineFailed { t_s, .. } => *t_s,
        }
    }
}

/// A `(time, mean running-job utility)` sample (Fig. 9 bottom panels).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UtilitySample {
    /// Sample time.
    pub t_s: f64,
    /// Mean utility across running jobs (1.0 when idle).
    pub mean_utility: f64,
}

/// The outcome of one simulated run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// Policy that produced this run.
    pub policy: PolicyKind,
    /// Per-job records, by completion order.
    pub records: Vec<JobRecord>,
    /// Jobs that could never be placed (exceed any machine's capacity).
    pub unplaceable: Vec<JobSpec>,
    /// Placement timeline for Fig. 8/9-style plots.
    pub timeline: Vec<TimelineSegment>,
    /// Mean-utility samples over time.
    pub utility_series: Vec<UtilitySample>,
    /// Completion time of the last job — the paper's "cumulative execution
    /// time" comparison point.
    pub makespan_s: f64,
    /// Placements below `min_utility`.
    pub slo_violations: usize,
    /// Mean scheduler decision latency, seconds (§5.5.3), over the
    /// `decide` calls only: answers from the scheduler's decision memo are
    /// not decisions and are left out (`SimLoopStats::replay_hits` counts
    /// them).
    pub mean_decision_s: f64,
    /// Machine failures applied during the run, as `(time, machine)`.
    #[serde(default)]
    pub failures: Vec<(f64, gts_topo::MachineId)>,
    /// Time-ordered event log of the whole run.
    #[serde(default)]
    pub events: Vec<SimEvent>,
    /// The scheduler's decision trace — empty unless the run opted in via
    /// [`crate::engine::SimConfig::with_trace`].
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub trace: Vec<gts_sched::TraceEvent>,
}

impl SimResult {
    /// Looks up a job's record.
    pub fn record(&self, id: JobId) -> Option<&JobRecord> {
        self.records.iter().find(|r| r.spec.id == id)
    }

    /// Jobs sorted worst→best by QoS slowdown (the Fig. 8(e)/10(a)/11(a)
    /// x-axis ordering).
    pub fn qos_slowdowns_sorted(&self) -> Vec<(JobId, f64)> {
        let mut v: Vec<(JobId, f64)> = self
            .records
            .iter()
            .map(|r| (r.spec.id, r.qos_slowdown()))
            .collect();
        // `total_cmp`: a pathological NaN slowdown (e.g. a 0-second ideal
        // duration) must degrade to a deterministic order, not panic a
        // metrics accessor after the whole simulation already ran.
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Jobs sorted worst→best by QoS+wait slowdown.
    pub fn qos_wait_slowdowns_sorted(&self) -> Vec<(JobId, f64)> {
        let mut v: Vec<(JobId, f64)> = self
            .records
            .iter()
            .map(|r| (r.spec.id, r.qos_wait_slowdown()))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Mean QoS slowdown across jobs.
    pub fn mean_qos_slowdown(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.qos_slowdown()).sum::<f64>() / self.records.len() as f64
    }

    /// Total GPU-seconds consumed by completed jobs.
    pub fn gpu_seconds(&self) -> f64 {
        self.records
            .iter()
            .map(|r| r.execution_s() * r.gpus.len() as f64)
            .sum()
    }

    /// Mean cluster GPU utilization over the run: busy GPU-seconds divided
    /// by `total_gpus × makespan`. Note that interference *inflates* this
    /// number (slowed jobs hold their GPUs longer); for the abstract's
    /// "higher resource utilization" claim use
    /// [`SimResult::effective_gpu_utilization`].
    pub fn gpu_utilization(&self, total_gpus: usize) -> f64 {
        if total_gpus == 0 || self.makespan_s <= 0.0 {
            return 0.0;
        }
        self.gpu_seconds() / (total_gpus as f64 * self.makespan_s)
    }

    /// Useful work per capacity-time: each job contributes its *ideal*
    /// GPU-seconds (what the work is worth on perfectly placed, solo GPUs),
    /// normalized by `total_gpus × makespan`. Interference and bad
    /// placements lower this — the utilization the scheduler can actually
    /// improve.
    pub fn effective_gpu_utilization(&self, total_gpus: usize) -> f64 {
        if total_gpus == 0 || self.makespan_s <= 0.0 {
            return 0.0;
        }
        let useful: f64 = self
            .records
            .iter()
            .map(|r| r.ideal_duration_s * r.gpus.len() as f64)
            .sum();
        useful / (total_gpus as f64 * self.makespan_s)
    }

    /// The worst postponement count any completed job accumulated.
    pub fn max_postponements(&self) -> u32 {
        self.records.iter().map(|r| r.postponements).max().unwrap_or(0)
    }

    /// Serializes the result to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("results serialize")
    }

    /// Parses a result from JSON text.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Writes the result to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Loads a result from a file.
    pub fn load(path: &std::path::Path) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Mean waiting time across jobs.
    pub fn mean_waiting_s(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.waiting_s()).sum::<f64>() / self.records.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_job::{BatchClass, NnModel};

    fn record(id: u64, arrival: f64, placed: f64, finished: f64, ideal: f64) -> JobRecord {
        JobRecord {
            spec: JobSpec::new(id, NnModel::AlexNet, BatchClass::Tiny, 1).arriving_at(arrival),
            placed_at_s: placed,
            finished_at_s: finished,
            gpus: vec![],
            utility: 1.0,
            slo_violated: false,
            ideal_duration_s: ideal,
            postponements: 0,
            restarts: 0,
        }
    }

    fn result(records: Vec<JobRecord>) -> SimResult {
        SimResult {
            policy: PolicyKind::Fcfs,
            records,
            unplaceable: vec![],
            timeline: vec![],
            utility_series: vec![],
            makespan_s: 0.0,
            slo_violations: 0,
            mean_decision_s: 0.0,
            failures: vec![],
            events: vec![],
            trace: vec![],
        }
    }

    #[test]
    fn slowdown_arithmetic() {
        let r = record(0, 0.0, 10.0, 140.0, 100.0);
        assert!((r.execution_s() - 130.0).abs() < 1e-12);
        assert!((r.waiting_s() - 10.0).abs() < 1e-12);
        assert!((r.qos_slowdown() - 0.30).abs() < 1e-12);
        assert!((r.qos_wait_slowdown() - 0.40).abs() < 1e-12);
    }

    #[test]
    fn ideal_run_has_zero_slowdown() {
        let r = record(0, 5.0, 5.0, 105.0, 100.0);
        assert_eq!(r.qos_slowdown(), 0.0);
        assert_eq!(r.qos_wait_slowdown(), 0.0);
    }

    #[test]
    fn sorted_slowdowns_run_worst_to_best() {
        let res = result(vec![
            record(0, 0.0, 0.0, 100.0, 100.0),
            record(1, 0.0, 0.0, 150.0, 100.0),
            record(2, 0.0, 0.0, 120.0, 100.0),
        ]);
        let sorted = res.qos_slowdowns_sorted();
        assert_eq!(
            sorted.iter().map(|(id, _)| id.0).collect::<Vec<_>>(),
            vec![1, 2, 0]
        );
        for w in sorted.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    /// A zero ideal duration makes the slowdown infinite (or, with zero
    /// execution too, NaN — clamped to 0 by `max`). The sorted accessors
    /// must order such degenerate records deterministically instead of
    /// panicking the way the old `partial_cmp(..).expect("finite")`
    /// comparator did on NaN.
    #[test]
    fn sorted_slowdowns_tolerate_non_finite_values() {
        let res = result(vec![
            record(3, 0.0, 0.0, 100.0, 0.0), // +inf slowdown
            record(1, 0.0, 0.0, 120.0, 100.0),
            record(2, 0.0, 0.0, 100.0, 0.0), // +inf, ties with job 3
            record(0, 0.0, 50.0, 50.0, 0.0), // 0/0 → NaN → clamped to 0
        ]);
        for sorted in [res.qos_slowdowns_sorted(), res.qos_wait_slowdowns_sorted()] {
            let ids: Vec<u64> = sorted.iter().map(|(id, _)| id.0).collect();
            // Infinities first (tie broken by job id), finite next. Job 0's
            // qos slowdown clamps to 0 and sorts last; its wait variant is
            // +inf (50 s wait / 0 ideal) and joins the infinite group — so
            // only assert the invariants common to both accessors.
            assert!(sorted.windows(2).all(|w| w[0].1 >= w[1].1 || w[0].1.is_nan()));
            let inf_ids: Vec<u64> = sorted
                .iter()
                .filter(|(_, s)| s.is_infinite())
                .map(|(id, _)| id.0)
                .collect();
            assert!(inf_ids.windows(2).all(|w| w[0] < w[1]), "inf ties unsorted: {ids:?}");
            assert!(inf_ids.contains(&2) && inf_ids.contains(&3));
        }
    }

    #[test]
    fn means_over_records() {
        let res = result(vec![
            record(0, 0.0, 10.0, 110.0, 100.0),
            record(1, 0.0, 30.0, 160.0, 100.0),
        ]);
        assert!((res.mean_waiting_s() - 20.0).abs() < 1e-12);
        assert!((res.mean_qos_slowdown() - 0.15).abs() < 1e-12);
        assert!(result(vec![]).mean_qos_slowdown() == 0.0);
    }

    #[test]
    fn gpu_utilization_accounting() {
        let mut r1 = record(0, 0.0, 0.0, 100.0, 100.0);
        r1.gpus = vec![
            gts_topo::GlobalGpuId { machine: gts_topo::MachineId(0), gpu: gts_topo::GpuId(0) },
            gts_topo::GlobalGpuId { machine: gts_topo::MachineId(0), gpu: gts_topo::GpuId(1) },
        ];
        let mut res = result(vec![r1]);
        res.makespan_s = 100.0;
        // One 2-GPU job busy for the whole run on a 4-GPU cluster: 50 %.
        assert!((res.gpu_seconds() - 200.0).abs() < 1e-9);
        assert!((res.gpu_utilization(4) - 0.5).abs() < 1e-9);
        assert_eq!(res.gpu_utilization(0), 0.0);
    }

    #[test]
    fn results_round_trip_through_json() {
        let res = result(vec![record(0, 0.0, 10.0, 110.0, 100.0)]);
        let back = SimResult::from_json(&res.to_json()).unwrap();
        assert_eq!(back.records.len(), 1);
        assert_eq!(back.records[0].spec.id, gts_job::JobId(0));
        assert_eq!(back.policy, res.policy);
        assert!(SimResult::from_json("{broken").is_err());
    }

    #[test]
    fn record_lookup() {
        let res = result(vec![record(7, 0.0, 0.0, 1.0, 1.0)]);
        assert!(res.record(JobId(7)).is_some());
        assert!(res.record(JobId(8)).is_none());
    }
}
