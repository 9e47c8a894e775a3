//! Sampled link-bandwidth counter emulation (Fig. 5, Fig. 8 bottom panels).
//!
//! The paper samples `nvidia-smi nvlink` transmit counters once per second
//! and plots the observed GB/s. A training iteration alternates a compute
//! phase (links ≈idle apart from input-pipeline traffic) with a burst that
//! drives the link near peak; a 1 Hz sample therefore sees
//! `base + peak·duty` where `duty` is the fraction of time spent in
//! communication. Deterministic, seeded jitter stands in for testbed noise.

use crate::calibration::{BW_SAMPLE_BASE_GBS, BW_SAMPLE_PEAK_GBS};
use crate::placement::IterTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Expected sampled bandwidth for a job with the given iteration profile,
/// derated by the interference slowdown it currently suffers (a stalled job
/// communicates less often).
pub fn sampled_bandwidth_gbs(iter: IterTime, slowdown: f64) -> f64 {
    if iter.comm_s == 0.0 {
        // Non-communicating job: only input-pipeline traffic.
        return BW_SAMPLE_BASE_GBS;
    }
    let stretched = IterTime {
        compute_s: iter.compute_s * (1.0 + slowdown),
        comm_s: iter.comm_s * (1.0 + slowdown),
    };
    BW_SAMPLE_BASE_GBS + BW_SAMPLE_PEAK_GBS * stretched.comm_duty()
}

/// A 1 Hz bandwidth time series for one job, as the prototype monitor
/// records it.
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthTrace {
    /// Sample period in seconds (1.0 in the paper's plots).
    pub period_s: f64,
    /// Sampled bandwidth in GB/s, one entry per period.
    pub samples_gbs: Vec<f64>,
}

impl BandwidthTrace {
    /// Generates a trace of `duration_s` seconds for a job running with the
    /// given iteration profile, with ±5 % seeded jitter.
    pub fn generate(iter: IterTime, slowdown: f64, duration_s: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mean = sampled_bandwidth_gbs(iter, slowdown);
        let n = duration_s.max(0.0).round() as usize;
        let samples_gbs = (0..n)
            .map(|_| {
                let jitter = 1.0 + rng.gen_range(-0.05f64..0.05);
                (mean * jitter).max(0.0)
            })
            .collect();
        Self {
            period_s: 1.0,
            samples_gbs,
        }
    }

    /// Mean of the samples (0 for an empty trace).
    pub fn mean_gbs(&self) -> f64 {
        if self.samples_gbs.is_empty() {
            0.0
        } else {
            self.samples_gbs.iter().sum::<f64>() / self.samples_gbs.len() as f64
        }
    }

    /// Maximum sample (0 for an empty trace).
    pub fn peak_gbs(&self) -> f64 {
        self.samples_gbs.iter().fold(0.0, |a, &b| a.max(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PlacementPerf;
    use gts_job::NnModel;
    use gts_topo::{power8_minsky, GpuId};

    fn alexnet_iter(batch: u32) -> IterTime {
        let m = power8_minsky();
        PlacementPerf::evaluate(&m, &[GpuId(0), GpuId(1)]).iter_time(NnModel::AlexNet, batch)
    }

    #[test]
    fn fig5_batch1_saturates_near_40() {
        let bw = sampled_bandwidth_gbs(alexnet_iter(1), 0.0);
        assert!((38.0..42.0).contains(&bw), "got {bw}");
    }

    #[test]
    fn fig5_batch128_idles_near_6() {
        let bw = sampled_bandwidth_gbs(alexnet_iter(128), 0.0);
        assert!((5.0..7.0).contains(&bw), "got {bw}");
    }

    #[test]
    fn fig5_ordering_over_batches() {
        let bws: Vec<f64> = [1u32, 4, 64, 128]
            .iter()
            .map(|&b| sampled_bandwidth_gbs(alexnet_iter(b), 0.0))
            .collect();
        for w in bws.windows(2) {
            assert!(w[0] > w[1], "bandwidth must fall with batch size: {bws:?}");
        }
    }

    #[test]
    fn slowdown_does_not_change_duty_cycle_bandwidth() {
        // Both phases stretch equally, so the sampled duty is unchanged —
        // interference shows up as a longer runtime, not a different duty.
        let a = sampled_bandwidth_gbs(alexnet_iter(1), 0.0);
        let b = sampled_bandwidth_gbs(alexnet_iter(1), 0.3);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn non_communicating_job_shows_base_traffic() {
        let it = IterTime {
            compute_s: 0.025,
            comm_s: 0.0,
        };
        assert_eq!(sampled_bandwidth_gbs(it, 0.0), 4.0);
    }

    #[test]
    fn trace_is_deterministic_and_jittered() {
        let it = alexnet_iter(1);
        let a = BandwidthTrace::generate(it, 0.0, 30.0, 9);
        let b = BandwidthTrace::generate(it, 0.0, 30.0, 9);
        assert_eq!(a, b);
        assert_eq!(a.samples_gbs.len(), 30);
        // Jitter keeps samples within ±5 % of the mean.
        let mean = sampled_bandwidth_gbs(it, 0.0);
        for &s in &a.samples_gbs {
            assert!((s - mean).abs() <= mean * 0.05 + 1e-9);
        }
        assert!(a.peak_gbs() >= a.mean_gbs());
    }

    #[test]
    fn empty_trace_statistics() {
        let t = BandwidthTrace {
            period_s: 1.0,
            samples_gbs: vec![],
        };
        assert_eq!(t.mean_gbs(), 0.0);
        assert_eq!(t.peak_gbs(), 0.0);
    }
}
