//! The Appendix A.3 experiment workflow.
//!
//! The paper's artifact is driven by configuration files: a system config
//! choosing simulation or prototype mode (`etc/configs/sys-config.ini`),
//! one config per scheduling algorithm, a workload manifest, and a single
//! `python main.py` entry point. This module reproduces that workflow with
//! JSON configs (serde is already a dependency; an INI parser is not) and
//! the `gts` binary as the entry point. "Samples of all configuration
//! files are provided in the source code" — [`SysConfig::sample`] is ours.

use gts_core::job::scenario::table1;
use gts_core::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Which machine model populates the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum MachineKind {
    /// IBM Power8 "Minsky" (the paper's testbed).
    Power8Minsky,
    /// NVIDIA DGX-1.
    Dgx1,
    /// PCIe/K80 Power8 variant.
    Power8PcieK80,
    /// NVIDIA DGX-2 (NVSwitch, 16 GPUs).
    Dgx2,
    /// IBM Power9 AC922 (2 × 3 V100 over tri-lane NVLink).
    Power9Ac922,
}

impl MachineKind {
    /// Builds one machine of this kind.
    pub fn build(self) -> MachineTopology {
        match self {
            MachineKind::Power8Minsky => power8_minsky(),
            MachineKind::Dgx1 => dgx1(),
            MachineKind::Power8PcieK80 => power8_pcie_k80(),
            MachineKind::Dgx2 => gts_core::topo::dgx2(),
            MachineKind::Power9Ac922 => gts_core::topo::power9_ac922(),
        }
    }
}

/// Where jobs come from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum WorkloadSource {
    /// Load a [`Trace`] JSON file.
    TraceFile {
        /// Path to the trace.
        path: String,
    },
    /// Generate with the §5.3 generator.
    Generate {
        /// Number of jobs.
        jobs: usize,
        /// RNG seed.
        seed: u64,
    },
    /// The built-in Table 1 scenario.
    Table1,
}

/// One scheduling algorithm's configuration (the per-algorithm
/// `algo-name-config.ini` of the appendix).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlgoConfig {
    /// Policy to run.
    pub policy: String,
    /// Eq. 2 weights; defaults to the paper's equal thirds.
    #[serde(default)]
    pub weights: Option<[f64; 3]>,
}

impl AlgoConfig {
    /// Resolves into a [`Policy`].
    pub fn resolve(&self) -> Result<Policy, ConfigError> {
        let kind = match self.policy.to_ascii_lowercase().as_str() {
            "fcfs" => PolicyKind::Fcfs,
            "bf" | "best-fit" | "bestfit" => PolicyKind::BestFit,
            "topo-aware" | "topoaware" => PolicyKind::TopoAware,
            "topo-aware-p" | "topoawarep" => PolicyKind::TopoAwareP,
            other => return Err(ConfigError::UnknownPolicy(other.to_string())),
        };
        let weights = match self.weights {
            None => UtilityWeights::default(),
            Some([cc, b, d]) => UtilityWeights::new(cc, b, d).map_err(ConfigError::BadWeights)?,
        };
        Ok(Policy { kind, weights })
    }
}

/// The system configuration (the appendix's `sys-config.ini`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SysConfig {
    /// True → trace-driven simulation; false → the concurrent prototype
    /// runtime ("changing the parameter simulation to True or False").
    pub simulation: bool,
    /// Number of machines in the cluster.
    pub machines: usize,
    /// Machine model.
    pub machine_kind: MachineKind,
    /// Seed for the §5.1 profile-generation campaign; omitted → 42 (see
    /// [`SysConfig::profile_seed`]).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub profile_seed: Option<u64>,
    /// Prototype time compression (wall seconds per simulated second);
    /// omitted → 0.002 (see [`SysConfig::time_scale`]).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub time_scale: Option<f64>,
    /// Optional rack count; when set, machines are split evenly into racks
    /// (top-of-rack vs aggregation network tiers).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub racks: Option<usize>,
    /// Scripted operator cancellations, `(time_s, job_id)` pairs.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub cancellations: Vec<(f64, u64)>,
    /// Scripted machine failures (simulation mode), `(time_s, machine)`.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub machine_failures: Vec<(f64, u32)>,
    /// Algorithms to run, one system execution each ("if many are
    /// provided, the system will execute multiple runs").
    pub algorithms: Vec<AlgoConfig>,
    /// The workload.
    pub workload: WorkloadSource,
}

impl SysConfig {
    /// The profile-campaign seed, with the documented default of 42 when
    /// the config omits the field.
    pub fn profile_seed(&self) -> u64 {
        self.profile_seed.unwrap_or(42)
    }

    /// The prototype time compression, with the documented default of
    /// 0.002 when the config omits the field.
    pub fn time_scale(&self) -> f64 {
        self.time_scale.unwrap_or(0.002)
    }

    /// A ready-to-edit sample configuration.
    pub fn sample() -> Self {
        Self {
            simulation: true,
            machines: 1,
            machine_kind: MachineKind::Power8Minsky,
            profile_seed: Some(42),
            time_scale: Some(0.002),
            racks: None,
            cancellations: Vec::new(),
            machine_failures: Vec::new(),
            algorithms: vec![
                AlgoConfig {
                    policy: "topo-aware-p".into(),
                    weights: None,
                },
                AlgoConfig {
                    policy: "fcfs".into(),
                    weights: None,
                },
            ],
            workload: WorkloadSource::Table1,
        }
    }

    /// Parses a config from JSON text.
    pub fn from_json(text: &str) -> Result<Self, ConfigError> {
        serde_json::from_str(text).map_err(|e| ConfigError::Parse(e.to_string()))
    }

    /// Loads a config file.
    pub fn load(path: &Path) -> Result<Self, ConfigError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ConfigError::Io(format!("{}: {e}", path.display())))?;
        Self::from_json(&text)
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("config serialization cannot fail")
    }

    fn workload(&self) -> Result<Vec<JobSpec>, ConfigError> {
        match &self.workload {
            WorkloadSource::TraceFile { path } => {
                let trace = Trace::load(Path::new(path)).map_err(|e| {
                    let msg = format!("{path}: {e}");
                    match e.kind() {
                        std::io::ErrorKind::InvalidData => ConfigError::Invalid(msg),
                        _ => ConfigError::Io(msg),
                    }
                })?;
                Ok(trace.jobs)
            }
            WorkloadSource::Generate { jobs, seed } => {
                Ok(WorkloadGenerator::with_defaults(*seed).generate(*jobs))
            }
            WorkloadSource::Table1 => Ok(table1()),
        }
    }

    /// Rejects a prototype run that would panic a thread: a time scale that
    /// is not positive and finite, or a simulated time the scaled clock
    /// cannot sleep until (`TimeScale::to_wall` panics on a wall time no
    /// `Duration` holds). The clock sleeps until each arrival and
    /// cancellation, and the bandwidth monitor ticks once per simulated
    /// second.
    fn check_prototype_clock(&self, jobs: &[JobSpec]) -> Result<(), ConfigError> {
        let scale = self.time_scale();
        if !(scale.is_finite() && scale > 0.0) {
            return Err(ConfigError::Invalid(format!(
                "time_scale must be positive and finite, got {scale}"
            )));
        }
        let mut times = std::iter::once(1.0)
            .chain(jobs.iter().map(|j| j.arrival_s))
            .chain(self.cancellations.iter().map(|&(t, _)| t));
        match times.find(|&t| Duration::try_from_secs_f64((t * scale).max(0.0)).is_err()) {
            Some(t) => Err(ConfigError::Invalid(format!(
                "simulated time {t} s overflows the prototype clock at time_scale {scale:e}"
            ))),
            None => Ok(()),
        }
    }

    /// Runs every configured algorithm and reports results. A config that
    /// would panic a run returns [`ConfigError::Invalid`] before any run.
    pub fn run(&self) -> Result<Vec<RunReport>, ConfigError> {
        if self.machines == 0 {
            return Err(ConfigError::Invalid("machines must be positive".into()));
        }
        if self.algorithms.is_empty() {
            return Err(ConfigError::Invalid("no algorithms configured".into()));
        }
        let machine = self.machine_kind.build();
        let profiles = Arc::new(ProfileLibrary::generate(&machine, self.profile_seed()));
        let cluster = match self.racks {
            Some(racks) => {
                if racks == 0 || !self.machines.is_multiple_of(racks) {
                    return Err(ConfigError::Invalid(format!(
                        "{} machines do not divide evenly into {racks} racks",
                        self.machines
                    )));
                }
                Arc::new(ClusterTopology::homogeneous_racked(
                    machine,
                    racks,
                    self.machines / racks,
                ))
            }
            None => Arc::new(ClusterTopology::homogeneous(machine, self.machines)),
        };
        let jobs = self.workload()?;
        if let Some(&(_, m)) = self
            .machine_failures
            .iter()
            .find(|&&(_, m)| m as usize >= self.machines)
        {
            return Err(ConfigError::Invalid(format!(
                "machine failure names machine {m}, but the cluster has {} machine(s)",
                self.machines
            )));
        }
        if !self.simulation {
            self.check_prototype_clock(&jobs)?;
        }

        let mut reports = Vec::with_capacity(self.algorithms.len());
        for algo in &self.algorithms {
            let policy = algo.resolve()?;
            let report = if self.simulation {
                let config = SimConfig::new(policy)
                    .try_with_machine_failures(
                        self.machine_failures
                            .iter()
                            .map(|&(t, m)| (t, MachineId(m)))
                            .collect(),
                    )
                    .map_err(|e| ConfigError::Invalid(e.to_string()))?;
                let res = Simulation::new(Arc::clone(&cluster), Arc::clone(&profiles), config)
                    .run(jobs.clone());
                RunReport {
                    policy: policy.kind,
                    mode: "simulation".into(),
                    completed: res.records.len(),
                    unplaceable: res.unplaceable.len(),
                    makespan_s: res.makespan_s,
                    mean_wait_s: res.mean_waiting_s(),
                    mean_qos_slowdown: res.mean_qos_slowdown(),
                    slo_violations: res.slo_violations,
                    gpu_utilization: res.gpu_utilization(cluster.n_gpus()),
                }
            } else {
                let mut config = ProtoConfig::with_scale(policy, TimeScale::new(self.time_scale()));
                config.cancellations = self
                    .cancellations
                    .iter()
                    .map(|&(t, id)| (t, JobId(id)))
                    .collect();
                let res = Prototype::new(Arc::clone(&cluster), Arc::clone(&profiles), config)
                    .run(jobs.clone());
                let mean_wait = if res.records.is_empty() {
                    0.0
                } else {
                    res.records.iter().map(|r| r.waiting_s()).sum::<f64>()
                        / res.records.len() as f64
                };
                let mean_qos = if res.records.is_empty() {
                    0.0
                } else {
                    res.records.iter().map(|r| r.qos_slowdown()).sum::<f64>()
                        / res.records.len() as f64
                };
                let gpu_seconds: f64 = res
                    .records
                    .iter()
                    .map(|r| (r.finished_at_s - r.placed_at_s) * r.gpus.len() as f64)
                    .sum();
                RunReport {
                    policy: policy.kind,
                    mode: "prototype".into(),
                    completed: res.records.len(),
                    unplaceable: 0,
                    makespan_s: res.makespan_s,
                    mean_wait_s: mean_wait,
                    mean_qos_slowdown: mean_qos,
                    slo_violations: res.slo_violations,
                    gpu_utilization: gpu_seconds
                        / (cluster.n_gpus() as f64 * res.makespan_s.max(1e-9)),
                }
            };
            reports.push(report);
        }
        Ok(reports)
    }
}

/// Summary of one algorithm's execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Policy executed.
    pub policy: PolicyKind,
    /// "simulation" or "prototype".
    pub mode: String,
    /// Jobs completed.
    pub completed: usize,
    /// Jobs that could never be placed.
    pub unplaceable: usize,
    /// Completion time of the last job.
    pub makespan_s: f64,
    /// Mean queue wait.
    pub mean_wait_s: f64,
    /// Mean QoS slowdown vs ideal.
    pub mean_qos_slowdown: f64,
    /// SLO violations.
    pub slo_violations: usize,
    /// Mean GPU utilization.
    pub gpu_utilization: f64,
}

/// Configuration-processing failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// JSON did not parse.
    Parse(String),
    /// File I/O failed.
    Io(String),
    /// Unknown policy name.
    UnknownPolicy(String),
    /// Weights failed validation.
    BadWeights(String),
    /// Semantically invalid configuration.
    Invalid(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Parse(e) => write!(f, "config parse error: {e}"),
            ConfigError::Io(e) => write!(f, "config I/O error: {e}"),
            ConfigError::UnknownPolicy(p) => write!(
                f,
                "unknown policy '{p}' (expected fcfs, bf, topo-aware or topo-aware-p)"
            ),
            ConfigError::BadWeights(e) => write!(f, "bad utility weights: {e}"),
            ConfigError::Invalid(e) => write!(f, "invalid config: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_config_round_trips_and_runs() {
        let sample = SysConfig::sample();
        let back = SysConfig::from_json(&sample.to_json()).unwrap();
        assert_eq!(sample, back);

        let reports = back.run().unwrap();
        assert_eq!(reports.len(), 2);
        let tap = &reports[0];
        let fcfs = &reports[1];
        assert_eq!(tap.policy, PolicyKind::TopoAwareP);
        assert_eq!(tap.completed, 6);
        assert_eq!(tap.slo_violations, 0);
        assert!(tap.makespan_s < fcfs.makespan_s);
    }

    #[test]
    fn omitted_seed_and_scale_fall_back_to_documented_defaults() {
        // Regression: these used to parse as 0/0.0 (the derive treated
        // `default = "path"` as plain `default`), which silently changed
        // the profile campaign and would zero out the prototype clock.
        let cfg_text = r#"{
            "simulation": true,
            "machines": 1,
            "machine_kind": "power8-minsky",
            "algorithms": [{"policy": "fcfs"}],
            "workload": "table1"
        }"#;
        let cfg = SysConfig::from_json(cfg_text).unwrap();
        assert_eq!(cfg.profile_seed(), 42);
        assert!((cfg.time_scale() - 0.002).abs() < 1e-12);
        // Explicit values still win.
        let explicit = SysConfig::sample();
        assert_eq!(explicit.profile_seed(), 42);
        let mut cfg = cfg;
        cfg.profile_seed = Some(7);
        cfg.time_scale = Some(0.5);
        assert_eq!(cfg.profile_seed(), 7);
        assert!((cfg.time_scale() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn generated_workload_source() {
        let mut cfg = SysConfig::sample();
        cfg.machines = 2;
        cfg.workload = WorkloadSource::Generate { jobs: 12, seed: 3 };
        cfg.algorithms = vec![AlgoConfig {
            policy: "bf".into(),
            weights: None,
        }];
        let reports = cfg.run().unwrap();
        assert_eq!(reports[0].completed, 12);
        assert_eq!(reports[0].policy, PolicyKind::BestFit);
    }

    #[test]
    fn custom_weights_are_honored() {
        let cfg_text = r#"{
            "simulation": true,
            "machines": 1,
            "machine_kind": "power8-minsky",
            "algorithms": [{"policy": "topo-aware", "weights": [0.6, 0.2, 0.2]}],
            "workload": "table1"
        }"#;
        let cfg = SysConfig::from_json(cfg_text).unwrap();
        assert_eq!(cfg.algorithms[0].resolve().unwrap().weights.cc, 0.6);
        assert!(cfg.run().is_ok());
    }

    #[test]
    fn error_paths() {
        assert!(matches!(
            SysConfig::from_json("{oops"),
            Err(ConfigError::Parse(_))
        ));
        let bad_policy = AlgoConfig {
            policy: "lottery".into(),
            weights: None,
        };
        assert!(matches!(
            bad_policy.resolve(),
            Err(ConfigError::UnknownPolicy(_))
        ));
        let bad_weights = AlgoConfig {
            policy: "fcfs".into(),
            weights: Some([0.9, 0.9, 0.9]),
        };
        assert!(matches!(
            bad_weights.resolve(),
            Err(ConfigError::BadWeights(_))
        ));
        let mut cfg = SysConfig::sample();
        cfg.machines = 0;
        assert!(matches!(cfg.run(), Err(ConfigError::Invalid(_))));
        cfg.machines = 1;
        cfg.algorithms.clear();
        assert!(matches!(cfg.run(), Err(ConfigError::Invalid(_))));

        // Inputs that would panic a thread of the run, in simulation
        // (`true`) or prototype mode. The vendored JSON parser reads
        // `1e400` as infinity.
        assert_eq!(serde_json::from_str::<f64>("1e400").unwrap(), f64::INFINITY);
        let invalid = |what: &str, simulation: bool, edit: &dyn Fn(&mut SysConfig)| {
            let mut cfg = SysConfig::sample();
            cfg.simulation = simulation;
            edit(&mut cfg);
            let err = cfg.run().expect_err(what);
            assert!(matches!(err, ConfigError::Invalid(_)), "{what}: {err}");
        };
        invalid("failure on machine 5 of 1", true, &|c| {
            c.machine_failures = vec![(10.0, 5)]
        });
        invalid("failure at 1e400", true, &|c| {
            c.machine_failures = vec![(f64::INFINITY, 0)]
        });
        invalid("time_scale 0", false, &|c| c.time_scale = Some(0.0));
        invalid("time_scale -1", false, &|c| c.time_scale = Some(-1.0));
        invalid("cancellation at 1e400", false, &|c| {
            c.cancellations = vec![(f64::INFINITY, 0)]
        });
        invalid("time_scale 1e300", false, &|c| c.time_scale = Some(1e300));
    }

    /// A trace file with an invalid job is a config error, not a panic
    /// deep in the simulator (zero GPUs, a comm graph whose task count
    /// disagrees with the GPU request or whose weight matrix is short) or
    /// a silently unplaceable job (`min_utility` above 1).
    #[test]
    fn invalid_trace_jobs_are_config_errors() {
        let dir = std::env::temp_dir().join("gts-appendix-test");
        std::fs::create_dir_all(&dir).unwrap();
        let job = |id, n_gpus| JobSpec::new(id, NnModel::AlexNet, BatchClass::Tiny, n_gpus);
        let short_weights: JobGraph =
            serde_json::from_str(r#"{"n": 2, "weights": [0.0]}"#).unwrap();
        let cases = [
            ("zero-gpus", job(0, 0)),
            (
                "bad-graph",
                job(1, 2).with_comm_graph(JobGraph::pipeline(3, 4.0)),
            ),
            ("bad-utility", job(2, 2).with_min_utility(7.0)),
            ("short-weights", job(3, 2).with_comm_graph(short_weights)),
        ];
        for (name, job) in cases {
            let path = dir.join(format!("{name}.json"));
            Trace::new(name, vec![job]).save(&path).unwrap();
            let mut cfg = SysConfig::sample();
            cfg.workload = WorkloadSource::TraceFile {
                path: path.display().to_string(),
            };
            let err = cfg.run().expect_err(name);
            assert!(matches!(err, ConfigError::Invalid(_)), "{name}: {err}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn dgx1_cluster_config() {
        let mut cfg = SysConfig::sample();
        cfg.machine_kind = MachineKind::Dgx1;
        cfg.algorithms = vec![AlgoConfig {
            policy: "topo-aware-p".into(),
            weights: None,
        }];
        let reports = cfg.run().unwrap();
        assert_eq!(reports[0].completed, 6);
        assert_eq!(reports[0].slo_violations, 0);
    }

    #[test]
    fn scripted_failures_and_cancellations_flow_through_the_config() {
        // Simulation mode with a machine failure.
        let mut cfg = SysConfig::sample();
        cfg.machines = 2;
        cfg.machine_failures = vec![(60.0, 0)];
        cfg.algorithms = vec![AlgoConfig {
            policy: "topo-aware-p".into(),
            weights: None,
        }];
        let reports = cfg.run().unwrap();
        assert_eq!(reports[0].completed, 6, "all jobs survive via restarts");

        // Prototype mode with a cancellation.
        let mut cfg = SysConfig::sample();
        cfg.simulation = false;
        cfg.time_scale = Some(0.001);
        cfg.cancellations = vec![(40.0, 0)];
        cfg.algorithms = vec![AlgoConfig {
            policy: "fcfs".into(),
            weights: None,
        }];
        let reports = cfg.run().unwrap();
        assert_eq!(reports[0].completed, 5, "J0 was cancelled");
    }

    #[test]
    fn racked_and_exotic_machine_configs_run() {
        let mut cfg = SysConfig::sample();
        cfg.machines = 4;
        cfg.racks = Some(2);
        cfg.machine_kind = MachineKind::Power9Ac922;
        cfg.workload = WorkloadSource::Generate { jobs: 8, seed: 1 };
        cfg.algorithms = vec![AlgoConfig {
            policy: "topo-aware".into(),
            weights: None,
        }];
        let reports = cfg.run().unwrap();
        assert_eq!(reports[0].completed, 8);

        cfg.racks = Some(3); // 4 % 3 != 0
        assert!(matches!(cfg.run(), Err(ConfigError::Invalid(_))));

        cfg.racks = None;
        cfg.machine_kind = MachineKind::Dgx2;
        cfg.machines = 1;
        assert!(cfg.run().is_ok());
    }

    #[test]
    fn prototype_mode_runs_through_the_daemon() {
        let mut cfg = SysConfig::sample();
        cfg.simulation = false;
        cfg.time_scale = Some(0.001);
        cfg.algorithms = vec![AlgoConfig {
            policy: "topo-aware-p".into(),
            weights: None,
        }];
        let reports = cfg.run().unwrap();
        assert_eq!(reports[0].mode, "prototype");
        assert_eq!(reports[0].completed, 6);
    }
}
