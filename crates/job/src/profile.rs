//! The §4.2 job profile: "not only the job's communication graph but also a
//! performance model defining the level of interference the collocated jobs
//! will suffer and cause".
//!
//! Profiles are *data* here; they are produced experimentally by
//! `gts-perf`'s profiler (solo and pairwise-collocated runs, 95th percentile
//! of five executions, §5.1) and consumed by the mapping algorithm's
//! `getInter()` and by Eq. 4.

use crate::batch::BatchClass;
use crate::model::NnModel;
use serde::{Deserialize, Serialize};

/// Interference coefficients and reference timings for one (model, batch)
/// workload class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobProfile {
    /// Network this profile describes.
    pub model: NnModel,
    /// Batch class this profile describes.
    pub batch: BatchClass,
    /// Per-iteration time (seconds) under the best placement (packed,
    /// P2P-capable GPUs), solo.
    pub iter_time_packed_s: f64,
    /// Per-iteration time (seconds) under the worst single-machine placement
    /// (spread across sockets), solo.
    pub iter_time_spread_s: f64,
    /// How much this workload *suffers* from bus contention, in [0, 1]
    /// (`sens` in the DESIGN.md interference model).
    pub sensitivity: f64,
    /// How much bus pressure this workload *causes*, in [0, 1].
    pub pressure: f64,
    /// Normalized communication level in [0, 1] (mirrors
    /// [`crate::graph::JobGraph::comm_level`], cached here for Eq. 2).
    pub comm_level: f64,
}

impl JobProfile {
    /// Pack-over-spread speedup this profile predicts for a solo 2-GPU run —
    /// the Fig. 4 quantity.
    pub fn pack_speedup(&self) -> f64 {
        self.iter_time_spread_s / self.iter_time_packed_s
    }

    /// Predicted slowdown this job suffers when co-located with `other`
    /// through a shared bus domain scaled by `domain_factor` (1.0 same
    /// socket, 0.35 same machine across sockets — DESIGN.md §2).
    pub fn slowdown_from(&self, other: &JobProfile, domain_factor: f64) -> f64 {
        (self.sensitivity * other.pressure * domain_factor).clamp(0.0, 1.0)
    }

    /// The Eq. 4 mean interference over a set of co-runners: the average of
    /// `solo_time / collocation_time` over this job and all running jobs,
    /// where `collocation_time = solo_time · (1 + slowdown)`. A value of 1.0
    /// means no interference; smaller is worse. Each co-runner is its
    /// profile and the domain factor between it and this job.
    pub fn eq4_interference(&self, corunners: &[(JobProfile, f64)]) -> f64 {
        self.eq4_interference_iter(corunners.iter().map(|(p, factor)| (p, *factor)))
    }

    /// [`JobProfile::eq4_interference`] over an iterator of co-runners,
    /// which it walks twice (cloned), so a caller can derive each domain
    /// factor on the fly instead of collecting them. Both walks add in
    /// iteration order, so equal co-runner sequences give equal bits.
    pub fn eq4_interference_iter<'a, I>(&self, corunners: I) -> f64
    where
        I: Iterator<Item = (&'a JobProfile, f64)> + Clone,
    {
        // Contribution of this job (suffering) plus each co-runner (caused).
        let mut sum = 0.0;
        let mut suffered = 0.0;
        let mut n = 0usize;
        for (p, factor) in corunners.clone() {
            suffered += self.slowdown_from(p, factor);
            n += 1;
        }
        sum += 1.0 / (1.0 + suffered.min(0.75));
        for (p, factor) in corunners {
            let caused = p.slowdown_from(self, factor);
            sum += 1.0 / (1.0 + caused.min(0.75));
        }
        sum / (n + 1) as f64
    }

    /// Checks internal coherence of a profile.
    pub fn validate(&self) -> Result<(), String> {
        let fields = [
            ("iter_time_packed_s", self.iter_time_packed_s),
            ("iter_time_spread_s", self.iter_time_spread_s),
        ];
        for (name, v) in fields {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("{name} must be positive, got {v}"));
            }
        }
        if self.iter_time_spread_s + 1e-12 < self.iter_time_packed_s {
            return Err("spread placement cannot beat packed placement".into());
        }
        for (name, v) in [
            ("sensitivity", self.sensitivity),
            ("pressure", self.pressure),
            ("comm_level", self.comm_level),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must lie in [0,1], got {v}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_profile() -> JobProfile {
        JobProfile {
            model: NnModel::AlexNet,
            batch: BatchClass::Tiny,
            iter_time_packed_s: 0.075,
            iter_time_spread_s: 0.0975,
            sensitivity: 1.0,
            pressure: 0.30,
            comm_level: 1.0,
        }
    }

    fn big_profile() -> JobProfile {
        JobProfile {
            model: NnModel::AlexNet,
            batch: BatchClass::Big,
            iter_time_packed_s: 1.70,
            iter_time_spread_s: 1.73,
            sensitivity: 0.05,
            pressure: 0.24,
            comm_level: 0.25,
        }
    }

    #[test]
    fn pack_speedup_matches_ratio() {
        assert!((tiny_profile().pack_speedup() - 1.30).abs() < 1e-9);
    }

    #[test]
    fn interference_anchors_from_fig6() {
        let tiny = tiny_profile();
        let big = big_profile();
        // tiny | tiny ≈ 30 %.
        assert!((tiny.slowdown_from(&tiny, 1.0) - 0.30).abs() < 1e-9);
        // tiny | big ≈ 24 %.
        assert!((tiny.slowdown_from(&big, 1.0) - 0.24).abs() < 1e-9);
        // big | big ≈ 1 %.
        assert!(big.slowdown_from(&big, 1.0) < 0.02);
        // Domain factor scales it down.
        assert!(tiny.slowdown_from(&tiny, 0.35) < tiny.slowdown_from(&tiny, 1.0));
    }

    #[test]
    fn eq4_is_one_when_solo() {
        assert_eq!(tiny_profile().eq4_interference(&[]), 1.0);
    }

    #[test]
    fn eq4_decreases_with_corunners() {
        let tiny = tiny_profile();
        let one = tiny.eq4_interference(&[(tiny, 1.0)]);
        let two = tiny.eq4_interference(&[(tiny, 1.0), (tiny, 1.0)]);
        assert!(one < 1.0);
        assert!(two < one);
        assert!(one > 0.0);
    }

    #[test]
    fn validation_rules() {
        assert!(tiny_profile().validate().is_ok());

        let mut p = tiny_profile();
        p.iter_time_packed_s = -1.0;
        assert!(p.validate().is_err());

        let mut p = tiny_profile();
        p.iter_time_spread_s = p.iter_time_packed_s / 2.0;
        assert!(p.validate().is_err());

        let mut p = tiny_profile();
        p.sensitivity = 1.5;
        assert!(p.validate().is_err());
    }

    #[test]
    fn serde_round_trip() {
        let p = tiny_profile();
        let json = serde_json::to_string(&p).unwrap();
        let back: JobProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
