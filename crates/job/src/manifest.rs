//! JSON job manifests and workload traces.
//!
//! Appendix A.3: "the program continuously loads JSON files containing the
//! necessary information about the submitted jobs" and the simulator is
//! trace-driven: "the trace files are parsed and transformed into a format
//! compatible with the simulator". This module is that interchange layer:
//! a [`JobManifest`] is one submission file, a [`Trace`] is a replayable
//! workload with metadata.

use crate::spec::JobSpec;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::Path;

/// One submission manifest — what a user drops into the scheduler's watch
/// directory in the paper's prototype.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobManifest {
    /// The jobs submitted by this manifest (usually one).
    pub jobs: Vec<JobSpec>,
}

impl JobManifest {
    /// Parses a manifest from JSON text.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("manifest serialization cannot fail")
    }

    /// Loads and validates a manifest file: malformed JSON and invalid
    /// jobs are both `InvalidData` errors.
    pub fn load(path: &Path) -> io::Result<Self> {
        let text = fs::read_to_string(path)?;
        let manifest = Self::from_json(&text).map_err(invalid_data)?;
        manifest.validate().map_err(invalid_data)?;
        Ok(manifest)
    }

    /// Writes a manifest file.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        fs::write(path, self.to_json())
    }

    /// Validates every contained job.
    pub fn validate(&self) -> Result<(), String> {
        if self.jobs.is_empty() {
            return Err("manifest contains no jobs".into());
        }
        for job in &self.jobs {
            job.validate()?;
        }
        Ok(())
    }
}

fn invalid_data(e: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// A replayable workload trace: the bridge between prototype logs and the
/// trace-driven simulator (§5.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Free-form provenance label (generator seed, prototype run id, ...).
    pub source: String,
    /// Arrival-ordered jobs.
    pub jobs: Vec<JobSpec>,
}

impl Trace {
    /// Builds a trace, sorting jobs by arrival time for replay.
    pub fn new(source: impl Into<String>, mut jobs: Vec<JobSpec>) -> Self {
        jobs.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s).then(a.id.cmp(&b.id)));
        Self {
            source: source.into(),
            jobs,
        }
    }

    /// Parses a trace from JSON text.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace serialization cannot fail")
    }

    /// Loads and validates a trace file: malformed JSON and invalid jobs
    /// are both `InvalidData` errors.
    pub fn load(path: &Path) -> io::Result<Self> {
        let text = fs::read_to_string(path)?;
        let trace = Self::from_json(&text).map_err(invalid_data)?;
        trace.validate().map_err(invalid_data)?;
        Ok(trace)
    }

    /// Validates every job ([`JobSpec::validate`]). An empty trace is
    /// valid.
    pub fn validate(&self) -> Result<(), String> {
        self.jobs.iter().try_for_each(JobSpec::validate)
    }

    /// Writes a trace file.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        fs::write(path, self.to_json())
    }

    /// Total number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when the trace holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Duration between the first and last arrival, seconds.
    pub fn span_s(&self) -> f64 {
        match (self.jobs.first(), self.jobs.last()) {
            (Some(a), Some(b)) => b.arrival_s - a.arrival_s,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchClass;
    use crate::generator::WorkloadGenerator;
    use crate::model::NnModel;
    use crate::spec::JobId;

    fn sample_jobs() -> Vec<JobSpec> {
        vec![
            JobSpec::new(1, NnModel::GoogLeNet, BatchClass::Small, 1).arriving_at(15.0),
            JobSpec::new(0, NnModel::AlexNet, BatchClass::Tiny, 2).arriving_at(0.5),
        ]
    }

    #[test]
    fn manifest_round_trip() {
        let m = JobManifest {
            jobs: sample_jobs(),
        };
        let back = JobManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(m, back);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn empty_manifest_fails_validation() {
        assert!(JobManifest { jobs: vec![] }.validate().is_err());
    }

    #[test]
    fn manifest_with_invalid_job_fails_validation() {
        let mut jobs = sample_jobs();
        jobs[0].n_gpus = 0;
        assert!(JobManifest { jobs }.validate().is_err());
    }

    #[test]
    fn trace_sorts_by_arrival() {
        let t = Trace::new("test", sample_jobs());
        assert_eq!(t.jobs[0].id, JobId(0));
        assert_eq!(t.jobs[1].id, JobId(1));
        assert!((t.span_s() - 14.5).abs() < 1e-12);
    }

    #[test]
    fn trace_file_round_trip() {
        let dir = std::env::temp_dir().join("gts-job-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let t = Trace::new(
            "generator-seed-42",
            WorkloadGenerator::with_defaults(42).generate(20),
        );
        t.save(&path).unwrap();
        let back = Trace::load(&path).unwrap();
        assert_eq!(t, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn loading_rejects_invalid_jobs() {
        let dir = std::env::temp_dir().join("gts-job-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("invalid-trace.json");
        let mut zero_gpus = sample_jobs();
        zero_gpus[1].n_gpus = 0;
        let mut short_weights = sample_jobs();
        let graph = serde_json::from_str(r#"{"n": 2, "weights": [0.0]}"#).unwrap();
        short_weights[1] = short_weights[1].clone().with_comm_graph(graph);
        for (jobs, message) in [
            (zero_gpus, "zero GPUs"),
            (short_weights, "needs 2² weights"),
        ] {
            Trace::new("invalid", jobs.clone()).save(&path).unwrap();
            let err = Trace::load(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(message), "{err}");
            JobManifest { jobs }.save(&path).unwrap();
            let err = JobManifest::load(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(Trace::from_json("{not json").is_err());
        assert!(JobManifest::from_json("[]").is_err()); // wrong shape
    }

    #[test]
    fn empty_trace_has_zero_span() {
        let t = Trace::new("empty", vec![]);
        assert!(t.is_empty());
        assert_eq!(t.span_s(), 0.0);
    }
}
