//! The three benchmark workloads and their set-up.
//!
//! Every workload is an open-loop Poisson trace in simulated time, consumed
//! by the host as one batch, so host metrics are throughput at a fixed
//! input size. Each one exists to load a different layer (see
//! `simbench/README.md` for what each exercises and bypasses).

use gts_core::prelude::*;
use gts_core::topo::dgx2;
use std::sync::Arc;

/// Seed of the profile library: the profiles stand for measured data, so
/// they are part of the system under test, not of the generated input.
const PROFILE_SEED: u64 = 42;

/// Iteration budget of every generated job (the committed `sim/huge`
/// shape): short jobs keep many completions per simulated hour.
const ITERATIONS: u32 = 150;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["dc_steady", "rack_overload", "hetero_flat"];

/// How the machines are laid out.
#[derive(Debug, Clone, Copy)]
enum Fleet {
    /// Rack-major Minsky machines; the default shard spec gives one shard
    /// per rack.
    Racked { racks: usize, per_rack: usize },
    /// A flat (single-shard) fleet cycling Minsky, DGX-1, PCIe-K80 and
    /// DGX-2 machines in a 3:2:2:1 ratio.
    Hetero { machines: usize },
}

/// One workload's shape.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name as given on the command line.
    pub name: &'static str,
    policy: PolicyKind,
    fleet: Fleet,
    /// Trace length.
    pub jobs: usize,
    rate_per_min: f64,
    /// Share of multi-GPU jobs given a pipeline communication graph.
    model_parallel: f64,
    /// Share of jobs allowed to spill across machines.
    multi_node: f64,
    /// Widen every second graph-free 4-GPU job to 8 GPUs.
    widen: bool,
    /// Fail two wide machines for a while in the middle of the trace.
    failures: bool,
}

/// The 3:2:2:1 machine cycle of the heterogeneous fleet.
const HETERO_CYCLE: [usize; 8] = [0, 0, 0, 1, 1, 2, 2, 3];

impl Workload {
    /// The full-size workload called `name`.
    pub fn by_name(name: &str) -> Option<Self> {
        let base = Workload {
            name: "",
            policy: PolicyKind::TopoAware,
            fleet: Fleet::Racked {
                racks: 32,
                per_rack: 32,
            },
            jobs: 0,
            rate_per_min: 0.0,
            model_parallel: 0.0,
            multi_node: 0.0,
            widen: false,
            failures: false,
        };
        Some(match name {
            // The committed `sim/huge` regime: 90 jobs/min per 256 machines.
            "dc_steady" => Workload {
                name: "dc_steady",
                fleet: Fleet::Racked {
                    racks: 128,
                    per_rack: 32,
                },
                jobs: 10_000,
                rate_per_min: 90.0 * 4096.0 / 256.0,
                ..base
            },
            // A backlog: ten times the rate the cluster drains, for six
            // simulated seconds. Near-critical arrivals (3000 jobs/min) make
            // the queue walk, and so the host work, vary several-fold
            // between seeds.
            "rack_overload" => Workload {
                name: "rack_overload",
                policy: PolicyKind::TopoAwareP,
                jobs: 3000,
                rate_per_min: 30_000.0,
                ..base
            },
            "hetero_flat" => Workload {
                name: "hetero_flat",
                policy: PolicyKind::TopoAwareP,
                fleet: Fleet::Hetero { machines: 512 },
                jobs: 3000,
                rate_per_min: 1000.0,
                model_parallel: 0.3,
                multi_node: 0.1,
                widen: true,
                failures: true,
            },
            _ => return None,
        })
    }

    /// A copy small enough for the reference oracle (sequential flat
    /// decisions, recompute-everything loop) to finish in about a second:
    /// a sixteenth of the machines and of the rate, so the load stays the
    /// same, at most 600 jobs, and racked fleets keep two or more shards.
    pub fn reduced(&self) -> Self {
        let fleet = match self.fleet {
            Fleet::Racked { racks, per_rack } => Fleet::Racked {
                racks: racks / 16,
                per_rack,
            },
            Fleet::Hetero { machines } => Fleet::Hetero {
                machines: machines / 16,
            },
        };
        Workload {
            fleet,
            jobs: (self.jobs / 16).min(600),
            rate_per_min: self.rate_per_min / 16.0,
            ..self.clone()
        }
    }

    /// One machine of every kind the fleet holds.
    pub fn machine_kinds(&self) -> Vec<MachineTopology> {
        match self.fleet {
            Fleet::Racked { .. } => vec![power8_minsky()],
            Fleet::Hetero { .. } => vec![power8_minsky(), dgx1(), power8_pcie_k80(), dgx2()],
        }
    }

    /// Whether the trace holds pipeline-graph jobs.
    pub fn has_pipelines(&self) -> bool {
        self.model_parallel > 0.0
    }

    /// Job widths the trace can request.
    pub fn widths(&self) -> &'static [u32] {
        if self.widen {
            &[1, 2, 4, 8]
        } else {
            &[1, 2, 4]
        }
    }

    /// Builds the cluster topology (the `topo` layer).
    pub fn build_cluster(&self) -> Arc<ClusterTopology> {
        Arc::new(match self.fleet {
            Fleet::Racked { racks, per_rack } => {
                ClusterTopology::homogeneous_racked(power8_minsky(), racks, per_rack)
            }
            Fleet::Hetero { machines } => {
                // One shared allocation per kind, so same-kind machines
                // form one topology class.
                let kinds: Vec<Arc<MachineTopology>> =
                    self.machine_kinds().into_iter().map(Arc::new).collect();
                let fleet = (0..machines)
                    .map(|i| Arc::clone(&kinds[HETERO_CYCLE[i % HETERO_CYCLE.len()]]))
                    .collect();
                ClusterTopology::from_machines(fleet)
            }
        })
    }

    /// Profiles every workload class (the `perf` layer).
    pub fn build_profiles(&self) -> Arc<ProfileLibrary> {
        Arc::new(ProfileLibrary::generate(&power8_minsky(), PROFILE_SEED))
    }

    /// Generates the trace and the machine-failure script from `seed` (the
    /// `job` layer). Every spec is checked with [`JobSpec::validate`]: a
    /// release build only `debug_assert!`s it on submit.
    pub fn generate(&self, seed: u64) -> Result<(Vec<JobSpec>, FailureScript), String> {
        let gen = GeneratorConfig {
            arrival_rate_per_min: self.rate_per_min,
            iterations: ITERATIONS,
            model_parallel_fraction: self.model_parallel,
            multi_node_fraction: self.multi_node,
            ..GeneratorConfig::default()
        };
        let mut trace = WorkloadGenerator::new(gen, seed).generate(self.jobs);
        if self.widen {
            let mut flip = false;
            for job in trace
                .iter_mut()
                .filter(|j| j.n_gpus == 4 && j.comm_graph.is_none())
            {
                if flip {
                    job.n_gpus = 8;
                }
                flip = !flip;
            }
        }
        for job in &trace {
            job.validate()?;
        }
        let script = if self.failures {
            self.failure_script(&trace)
        } else {
            FailureScript::default()
        };
        Ok((trace, script))
    }

    /// Fails the first DGX-1 and the first DGX-2 when a third of the jobs
    /// have arrived and recovers them when half have.
    fn failure_script(&self, trace: &[JobSpec]) -> FailureScript {
        let at = |share: f64| trace[(trace.len() as f64 * share) as usize].arrival_s;
        let machines = [MachineId(3), MachineId(7)];
        FailureScript {
            failures: machines.iter().map(|&m| (at(1.0 / 3.0), m)).collect(),
            recoveries: machines.iter().map(|&m| (at(0.5), m)).collect(),
        }
    }

    /// The shipped-defaults configuration of this workload.
    pub fn config(&self, script: &FailureScript) -> SimConfig {
        SimConfig::new(Policy::new(self.policy))
            .with_machine_failures(script.failures.clone())
            .with_machine_recoveries(script.recoveries.clone())
    }

    /// The reference oracle: sequential flat decisions and the
    /// recompute-everything event loop, without the cross-event cache.
    pub fn oracle_config(&self, script: &FailureScript) -> SimConfig {
        self.config(script)
            .with_eval(EvalParams::sequential())
            .with_incremental(false)
            .with_eval_cache(false)
    }
}

/// Scripted machine failures and recoveries, as `(time_s, machine)`.
#[derive(Debug, Clone, Default)]
pub struct FailureScript {
    pub failures: Vec<(f64, MachineId)>,
    pub recoveries: Vec<(f64, MachineId)>,
}
