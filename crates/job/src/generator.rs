//! Synthetic workload generation (§5.3, Appendix A.3).
//!
//! "For generating the workloads, a Poisson distribution with arrival rate
//! λ = 10 is used. To create the job's configuration, we used a Binomial
//! distribution generating integer values between 0 and 3 to define the
//! batch size [...] and also a Binomial distribution generating integer
//! values between 0 and 2 to determine the NN type."
//!
//! Arrivals are Poisson in *jobs per minute*; inter-arrival gaps are drawn
//! from the matching exponential. All draws come from a seeded [`StdRng`] so
//! traces are reproducible.

use crate::batch::BatchClass;
use crate::model::NnModel;
use crate::spec::{Constraints, JobSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Tunable knobs of the workload generator, with the paper's §5.2.1/§5.3
/// values as defaults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Poisson arrival rate in jobs per minute (λ = 10 in the paper).
    pub arrival_rate_per_min: f64,
    /// Success probability of the Binomial(3, p) batch-class draw.
    pub batch_p: f64,
    /// Success probability of the Binomial(2, p) NN-type draw.
    pub model_p: f64,
    /// Probability weights over GPU request sizes (1, 2, 4 GPUs).
    pub gpu_count_weights: [f64; 3],
    /// Minimum utility assigned to single-GPU jobs (Table 1: 0.3).
    pub min_utility_single: f64,
    /// Minimum utility assigned to multi-GPU jobs (Table 1: 0.5).
    pub min_utility_multi: f64,
    /// Iteration budget per job.
    pub iterations: u32,
    /// Fraction of multi-GPU jobs declared model-parallel (a pipeline
    /// communication graph instead of the data-parallel clique). 0 in the
    /// paper's experiments.
    #[serde(default)]
    pub model_parallel_fraction: f64,
    /// Fraction of jobs allowed to spill across machines (multi-node
    /// capable; §7 future work). 0 in the paper's experiments.
    #[serde(default)]
    pub multi_node_fraction: f64,
    /// Host memory-bandwidth demand per GPU, GB/s (§4.3 `t_bw ≤ p_bw`);
    /// 0 disables the constraint, as in the paper's experiments.
    #[serde(default)]
    pub bw_demand_per_gpu_gbs: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            arrival_rate_per_min: 10.0,
            batch_p: 0.5,
            model_p: 0.5,
            gpu_count_weights: [0.35, 0.45, 0.20],
            min_utility_single: 0.3,
            min_utility_multi: 0.5,
            iterations: 400,
            model_parallel_fraction: 0.0,
            multi_node_fraction: 0.0,
            bw_demand_per_gpu_gbs: 0.0,
        }
    }
}

/// Reproducible Poisson/Binomial workload generator.
#[derive(Debug)]
pub struct WorkloadGenerator {
    config: GeneratorConfig,
    rng: StdRng,
    next_id: u64,
    clock_s: f64,
}

impl WorkloadGenerator {
    /// Creates a generator with the given config and RNG seed.
    pub fn new(config: GeneratorConfig, seed: u64) -> Self {
        assert!(
            config.arrival_rate_per_min > 0.0,
            "arrival rate must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&config.batch_p) && (0.0..=1.0).contains(&config.model_p),
            "binomial probabilities must lie in [0,1]"
        );
        Self {
            config,
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
            clock_s: 0.0,
        }
    }

    /// The paper's default generator (λ=10/min, p=0.5 binomials).
    pub fn with_defaults(seed: u64) -> Self {
        Self::new(GeneratorConfig::default(), seed)
    }

    /// Binomial(n, p) sample as the sum of `n` Bernoulli draws — tiny `n`
    /// makes the naive method exact and branch-cheap.
    fn binomial(&mut self, n: u32, p: f64) -> u32 {
        (0..n).filter(|_| self.rng.gen_bool(p)).count() as u32
    }

    /// Exponential inter-arrival gap in seconds for the configured λ.
    fn next_gap_s(&mut self) -> f64 {
        let lambda_per_s = self.config.arrival_rate_per_min / 60.0;
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        -u.ln() / lambda_per_s
    }

    /// Draws the next job; the internal clock advances by an exponential
    /// gap, so consecutive calls produce a Poisson arrival process.
    pub fn next_job(&mut self) -> JobSpec {
        self.clock_s += self.next_gap_s();
        let batch = BatchClass::from_index(self.binomial(3, self.config.batch_p) as usize)
            .expect("binomial(3) yields 0..=3");
        let model = NnModel::from_index(self.binomial(2, self.config.model_p) as usize)
            .expect("binomial(2) yields 0..=2");
        let n_gpus = self.sample_gpu_count();
        let min_utility = if n_gpus == 1 {
            self.config.min_utility_single
        } else {
            self.config.min_utility_multi
        };
        let id = self.next_id;
        self.next_id += 1;

        let comm_graph = (n_gpus > 1
            && self.config.model_parallel_fraction > 0.0
            && self.rng.gen_bool(self.config.model_parallel_fraction))
        .then(|| crate::graph::JobGraph::pipeline(n_gpus as usize, batch.comm_weight()));
        let constraints = if self.config.multi_node_fraction > 0.0
            && self.rng.gen_bool(self.config.multi_node_fraction)
        {
            Constraints {
                single_node: false,
                anti_collocate: false,
            }
        } else {
            Constraints::single_node()
        };
        JobSpec {
            id: crate::spec::JobId(id),
            model,
            batch,
            n_gpus,
            min_utility,
            arrival_s: self.clock_s,
            iterations: self.config.iterations,
            constraints,
            comm_graph,
            bw_demand_gbs: self.config.bw_demand_per_gpu_gbs * f64::from(n_gpus),
        }
    }

    fn sample_gpu_count(&mut self) -> u32 {
        let w = self.config.gpu_count_weights;
        let total: f64 = w.iter().sum();
        let mut x = self.rng.gen_range(0.0..total);
        for (i, &wi) in w.iter().enumerate() {
            if x < wi {
                return [1u32, 2, 4][i];
            }
            x -= wi;
        }
        4
    }

    /// Generates a complete workload of `n` jobs.
    pub fn generate(&mut self, n: usize) -> Vec<JobSpec> {
        (0..n).map(|_| self.next_job()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = WorkloadGenerator::with_defaults(42).generate(50);
        let b = WorkloadGenerator::with_defaults(42).generate(50);
        assert_eq!(a, b);
        let c = WorkloadGenerator::with_defaults(43).generate(50);
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_are_strictly_increasing() {
        let jobs = WorkloadGenerator::with_defaults(1).generate(200);
        for w in jobs.windows(2) {
            assert!(w[1].arrival_s > w[0].arrival_s);
        }
    }

    #[test]
    fn mean_interarrival_matches_lambda() {
        // λ = 10/min → mean gap 6 s. With 5 000 samples the sample mean
        // should land within ±10 %.
        let jobs = WorkloadGenerator::with_defaults(7).generate(5000);
        let total = jobs.last().unwrap().arrival_s;
        let mean_gap = total / jobs.len() as f64;
        assert!(
            (5.4..6.6).contains(&mean_gap),
            "mean inter-arrival {mean_gap} s, expected ≈6 s"
        );
    }

    #[test]
    fn binomial_mix_covers_all_classes_and_models() {
        let jobs = WorkloadGenerator::with_defaults(3).generate(2000);
        for class in BatchClass::ALL {
            assert!(
                jobs.iter().any(|j| j.batch == class),
                "class {class} never generated"
            );
        }
        for model in NnModel::ALL {
            assert!(
                jobs.iter().any(|j| j.model == model),
                "model {model} never generated"
            );
        }
    }

    #[test]
    fn binomial_batch_mode_is_central() {
        // Binomial(3, 0.5) puts 75 % of mass on classes 1 and 2.
        let jobs = WorkloadGenerator::with_defaults(11).generate(4000);
        let central = jobs
            .iter()
            .filter(|j| matches!(j.batch, BatchClass::Small | BatchClass::Medium))
            .count();
        let frac = central as f64 / jobs.len() as f64;
        assert!((0.70..0.80).contains(&frac), "central mass {frac}");
    }

    #[test]
    fn min_utility_follows_gpu_count() {
        let jobs = WorkloadGenerator::with_defaults(5).generate(500);
        for j in &jobs {
            if j.n_gpus == 1 {
                assert_eq!(j.min_utility, 0.3);
            } else {
                assert_eq!(j.min_utility, 0.5);
            }
            assert!(j.validate().is_ok());
        }
    }

    #[test]
    fn extended_knobs_produce_the_new_job_shapes() {
        let config = GeneratorConfig {
            model_parallel_fraction: 0.5,
            multi_node_fraction: 0.3,
            bw_demand_per_gpu_gbs: 20.0,
            ..GeneratorConfig::default()
        };
        let jobs = WorkloadGenerator::new(config, 17).generate(400);
        let model_parallel = jobs.iter().filter(|j| j.comm_graph.is_some()).count();
        let multi_node = jobs.iter().filter(|j| !j.constraints.single_node).count();
        assert!(model_parallel > 50, "got {model_parallel}");
        assert!(multi_node > 50, "got {multi_node}");
        for j in &jobs {
            assert!(j.validate().is_ok(), "{}", j.id);
            assert!((j.bw_demand_gbs - 20.0 * f64::from(j.n_gpus)).abs() < 1e-9);
            if let Some(g) = &j.comm_graph {
                assert_eq!(g.n_tasks(), j.n_gpus as usize);
            }
        }
        // Single-GPU jobs never carry a communication graph.
        assert!(jobs
            .iter()
            .filter(|j| j.n_gpus == 1)
            .all(|j| j.comm_graph.is_none()));
    }

    #[test]
    fn defaults_keep_the_papers_job_shapes() {
        let jobs = WorkloadGenerator::with_defaults(3).generate(100);
        assert!(jobs.iter().all(|j| j.comm_graph.is_none()));
        assert!(jobs.iter().all(|j| j.constraints.single_node));
        assert!(jobs.iter().all(|j| j.bw_demand_gbs == 0.0));
    }

    #[test]
    fn ids_are_sequential() {
        let jobs = WorkloadGenerator::with_defaults(9).generate(10);
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id.0, i as u64);
        }
    }
}
