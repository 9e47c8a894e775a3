//! §4.2 / §5.1 job-profile generation.
//!
//! "The profile then contains the 95th percentile of the execution time from
//! five executions of each workload within different scenarios." We emulate
//! the measurement campaign: five jittered model evaluations per scenario
//! (packed solo, spread solo), plus the interference coefficients the
//! scheduler's `getInter()` consumes.

use crate::calibration::PROFILE_JITTER;
use crate::interference::model_bus_scale;
use crate::placement::PlacementPerf;
use gts_job::{BatchClass, JobProfile, NnModel};
use gts_topo::{GpuId, MachineTopology, SocketId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// 95th percentile via the nearest-rank method (with n=5 this is the max,
/// matching a conservative profiling discipline).
fn p95(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty());
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let rank = ((0.95 * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Reference packed allocation: the first two GPUs of socket 0 (or one GPU
/// if the socket has a single GPU).
fn reference_pack(machine: &MachineTopology) -> Vec<GpuId> {
    let mut gpus = machine.gpus_in_socket(SocketId(0));
    gpus.truncate(2);
    gpus
}

/// Reference spread allocation: the first GPU of each of the first two
/// sockets; falls back to packed on single-socket machines.
fn reference_spread(machine: &MachineTopology) -> Vec<GpuId> {
    if machine.n_sockets() < 2 {
        return reference_pack(machine);
    }
    let a = machine.gpus_in_socket(SocketId(0));
    let b = machine.gpus_in_socket(SocketId(1));
    match (a.first(), b.first()) {
        (Some(&x), Some(&y)) => vec![x, y],
        _ => reference_pack(machine),
    }
}

/// Runs the five-execution measurement campaign for one workload class on
/// `machine` and distills it into a [`JobProfile`].
pub fn profile_for(
    machine: &MachineTopology,
    model: NnModel,
    batch: BatchClass,
    seed: u64,
) -> JobProfile {
    let mut rng =
        StdRng::seed_from_u64(seed ^ ((model.index() as u64) << 8 | batch.index() as u64));
    let b = batch.representative_batch();

    let measure = |gpus: &[GpuId], rng: &mut StdRng| -> f64 {
        let base = PlacementPerf::evaluate(machine, gpus)
            .iter_time(model, b)
            .total_s();
        let mut samples: Vec<f64> = (0..5)
            .map(|_| base * (1.0 + rng.gen_range(-PROFILE_JITTER..PROFILE_JITTER)))
            .collect();
        p95(&mut samples)
    };

    let pack = reference_pack(machine);
    let spread = reference_spread(machine);
    let iter_time_packed_s = measure(&pack, &mut rng);
    let iter_time_spread_s = measure(&spread, &mut rng).max(iter_time_packed_s);

    let scale = model_bus_scale(model);
    JobProfile {
        model,
        batch,
        iter_time_packed_s,
        iter_time_spread_s,
        sensitivity: crate::calibration::sensitivity(batch) * scale,
        pressure: crate::calibration::pressure(batch) * scale,
        comm_level: batch.comm_level(),
    }
}

/// All twelve (model × batch) profiles for one machine type, generated once
/// and shared by the scheduler and simulator.
#[derive(Debug, Clone)]
pub struct ProfileLibrary {
    profiles: HashMap<(NnModel, BatchClass), JobProfile>,
}

impl ProfileLibrary {
    /// Profiles every workload class on `machine`.
    pub fn generate(machine: &MachineTopology, seed: u64) -> Self {
        let mut profiles = HashMap::with_capacity(12);
        for model in NnModel::ALL {
            for batch in BatchClass::ALL {
                profiles.insert((model, batch), profile_for(machine, model, batch, seed));
            }
        }
        Self { profiles }
    }

    /// Looks up the profile for a workload class.
    pub fn get(&self, model: NnModel, batch: BatchClass) -> &JobProfile {
        self.profiles
            .get(&(model, batch))
            .expect("library covers every (model, batch) pair")
    }

    /// Number of stored profiles (always 12).
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Never true — the library is generated fully populated.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_topo::power8_minsky;

    #[test]
    fn profiles_validate_and_are_deterministic() {
        let m = power8_minsky();
        let lib = ProfileLibrary::generate(&m, 42);
        assert_eq!(lib.len(), 12);
        for model in NnModel::ALL {
            for batch in BatchClass::ALL {
                let p = lib.get(model, batch);
                p.validate()
                    .unwrap_or_else(|e| panic!("{model}/{batch}: {e}"));
            }
        }
        let lib2 = ProfileLibrary::generate(&m, 42);
        for model in NnModel::ALL {
            for batch in BatchClass::ALL {
                assert_eq!(lib.get(model, batch), lib2.get(model, batch));
            }
        }
    }

    #[test]
    fn alexnet_tiny_profile_predicts_the_1_3_speedup() {
        let m = power8_minsky();
        let p = profile_for(&m, NnModel::AlexNet, BatchClass::Tiny, 7);
        let speedup = p.pack_speedup();
        // Jitter widens the window slightly beyond the analytic 1.25..1.35.
        assert!((1.2..1.4).contains(&speedup), "got {speedup}");
    }

    #[test]
    fn googlenet_profiles_have_low_interference_coefficients() {
        let m = power8_minsky();
        let p = profile_for(&m, NnModel::GoogLeNet, BatchClass::Tiny, 7);
        assert!(p.sensitivity < 0.2);
        assert!(p.pressure < 0.05);
    }

    #[test]
    fn p95_of_five_is_the_max() {
        let mut s = vec![3.0, 1.0, 5.0, 2.0, 4.0];
        assert_eq!(p95(&mut s), 5.0);
        let mut one = vec![2.5];
        assert_eq!(p95(&mut one), 2.5);
    }

    #[test]
    fn spread_never_beats_pack_in_a_profile() {
        let m = power8_minsky();
        for model in NnModel::ALL {
            for batch in BatchClass::ALL {
                let p = profile_for(&m, model, batch, 99);
                assert!(
                    p.iter_time_spread_s >= p.iter_time_packed_s,
                    "{model}/{batch}"
                );
            }
        }
    }

    #[test]
    fn single_socket_machine_degenerates_gracefully() {
        let m = gts_topo::symmetric_machine("one", 1, 2, gts_topo::LinkProfile::nvlink_dual());
        let p = profile_for(&m, NnModel::AlexNet, BatchClass::Tiny, 1);
        assert!(p.validate().is_ok());
    }
}
