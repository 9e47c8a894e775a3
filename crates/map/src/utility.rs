//! Equations 1–5: the objective function and job utility (§4.3).
//!
//! The paper's Eq. 2 (`U = αcc/t + αb/I + αd/ω`) leaves units open; as laid
//! out in DESIGN.md §2 we implement the normalized form — every component
//! lies in [0, 1], 1 is ideal — so a job's `min_utility` threshold (Table 1:
//! 0.3 / 0.5) has a stable meaning:
//!
//! * `u_cc` — `best_cost / actual_cost` (Eq. 3 costs), 1 when the job got
//!   the closest GPUs physically possible, → 0 as the placement spreads;
//! * `u_interference` — the Eq. 4 mean of `solo/collocated` ratios, 1 when
//!   nothing interferes;
//! * `u_domains` — 1 minus the fraction of extra allocation domains the job
//!   spans (the job-level fragmentation reading of Eq. 5; the system-level
//!   reading is [`eq5_fragmentation`] and steers Algorithm 3's side choice).

use serde::{Deserialize, Serialize};

/// The α weights of Eq. 1 / Eq. 2. They must sum to 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UtilityWeights {
    /// Weight of the communication-cost term (αcc).
    pub cc: f64,
    /// Weight of the interference term (αb).
    pub b: f64,
    /// Weight of the fragmentation term (αd).
    pub d: f64,
}

impl UtilityWeights {
    /// Builds weights, validating the Eq. 1 constraint `αcc + αb + αd = 1`.
    pub fn new(cc: f64, b: f64, d: f64) -> Result<Self, String> {
        let sum = cc + b + d;
        if (sum - 1.0).abs() > 1e-9 {
            return Err(format!("utility weights must sum to 1, got {sum}"));
        }
        if cc < 0.0 || b < 0.0 || d < 0.0 {
            return Err("utility weights must be non-negative".into());
        }
        Ok(Self { cc, b, d })
    }
}

impl Default for UtilityWeights {
    /// "We set equal weights (0.33) to the parameters of the utility
    /// function" (§5.2.1).
    fn default() -> Self {
        Self {
            cc: 1.0 / 3.0,
            b: 1.0 / 3.0,
            d: 1.0 / 3.0,
        }
    }
}

/// Eq. 3: the communication cost of an allocation — the sum of pairwise
/// shortest-path distances over all unordered GPU pairs, supplied through a
/// distance closure so it works for machines and clusters alike.
pub fn eq3_comm_cost<F>(n: usize, mut distance: F) -> f64
where
    F: FnMut(usize, usize) -> f64,
{
    let mut total = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            total += distance(i, j);
        }
    }
    total
}

/// Eq. 4: average interference over this job and its co-runners, each entry
/// being `solo_time / collocation_time ∈ (0, 1]`. Returns 1 for an empty
/// slice (a solo job on an idle machine).
pub fn eq4_interference(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 1.0;
    }
    debug_assert!(ratios.iter().all(|r| (0.0..=1.0 + 1e-9).contains(r)));
    ratios.iter().sum::<f64>() / ratios.len() as f64
}

/// Eq. 5: system fragmentation — the mean over sockets of
/// `free_gpus / total_gpus`. 0 when every GPU is allocated, 1 when all are
/// free.
pub fn eq5_fragmentation(sockets: &[(u32, u32)]) -> f64 {
    if sockets.is_empty() {
        return 0.0;
    }
    let sum: f64 = sockets
        .iter()
        .map(|&(free, total)| {
            debug_assert!(free <= total && total > 0);
            f64::from(free) / f64::from(total)
        })
        .sum();
    sum / sockets.len() as f64
}

/// The normalized components of a placement's utility.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilityComponents {
    /// Communication quality: `best_cost / actual_cost` ∈ (0, 1].
    pub u_cc: f64,
    /// Interference quality: Eq. 4 value ∈ (0, 1].
    pub u_interference: f64,
    /// Domain-spanning quality ∈ [0, 1].
    pub u_domains: f64,
}

impl UtilityComponents {
    /// Communication quality from Eq. 3 costs. Jobs without communication
    /// (single GPU → zero best cost) score a perfect 1.
    pub fn u_cc_from_costs(best_cost: f64, actual_cost: f64) -> f64 {
        if actual_cost <= 0.0 {
            1.0
        } else {
            (best_cost / actual_cost).clamp(0.0, 1.0)
        }
    }

    /// Domain quality from the number of allocation domains (sockets) the
    /// job spans, out of `total` domains on the host. Spanning one domain is
    /// perfect; spanning all of them scores 0.
    pub fn u_domains_from_span(spanned: usize, total: usize) -> f64 {
        if total <= 1 || spanned <= 1 {
            return 1.0;
        }
        let extra = (spanned - 1) as f64;
        let max_extra = (total - 1) as f64;
        (1.0 - extra / max_extra).clamp(0.0, 1.0)
    }
}

/// The job utility `U` compared against `min_utility` (the SLO proxy).
pub fn utility(c: UtilityComponents, w: UtilityWeights) -> f64 {
    w.cc * c.u_cc + w.b * c.u_interference + w.d * c.u_domains
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_weights_are_equal_thirds() {
        let w = UtilityWeights::default();
        assert!((w.cc + w.b + w.d - 1.0).abs() < 1e-12);
        assert!((w.cc - w.b).abs() < 1e-12);
    }

    #[test]
    fn weight_validation() {
        assert!(UtilityWeights::new(0.5, 0.3, 0.2).is_ok());
        assert!(UtilityWeights::new(0.5, 0.5, 0.5).is_err());
        assert!(UtilityWeights::new(1.2, -0.1, -0.1).is_err());
    }

    #[test]
    fn eq3_sums_pairs() {
        // Distances: d(0,1)=1, d(0,2)=22, d(1,2)=22.
        let d = |i: usize, j: usize| if i == 0 && j == 1 { 1.0 } else { 22.0 };
        assert_eq!(eq3_comm_cost(3, d), 45.0);
        assert_eq!(eq3_comm_cost(1, d), 0.0);
        assert_eq!(eq3_comm_cost(0, d), 0.0);
    }

    #[test]
    fn eq4_mean_and_identity() {
        assert_eq!(eq4_interference(&[]), 1.0);
        assert_eq!(eq4_interference(&[1.0, 1.0]), 1.0);
        assert!((eq4_interference(&[1.0, 0.5]) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn eq5_fragmentation_range() {
        assert_eq!(eq5_fragmentation(&[(0, 2), (0, 2)]), 0.0);
        assert_eq!(eq5_fragmentation(&[(2, 2), (2, 2)]), 1.0);
        assert!((eq5_fragmentation(&[(1, 2), (0, 2)]) - 0.25).abs() < 1e-12);
        assert_eq!(eq5_fragmentation(&[]), 0.0);
    }

    #[test]
    fn u_cc_perfect_for_packed_and_single() {
        assert_eq!(UtilityComponents::u_cc_from_costs(1.0, 1.0), 1.0);
        assert_eq!(UtilityComponents::u_cc_from_costs(0.0, 0.0), 1.0);
        let spread = UtilityComponents::u_cc_from_costs(1.0, 22.0);
        assert!((spread - 1.0 / 22.0).abs() < 1e-12);
    }

    #[test]
    fn u_domains_penalizes_spanning() {
        assert_eq!(UtilityComponents::u_domains_from_span(1, 2), 1.0);
        assert_eq!(UtilityComponents::u_domains_from_span(2, 2), 0.0);
        assert_eq!(
            UtilityComponents::u_domains_from_span(2, 4),
            1.0 - 1.0 / 3.0
        );
        assert_eq!(UtilityComponents::u_domains_from_span(1, 1), 1.0);
    }

    #[test]
    fn ideal_placement_scores_one() {
        let c = UtilityComponents {
            u_cc: 1.0,
            u_interference: 1.0,
            u_domains: 1.0,
        };
        assert!((utility(c, UtilityWeights::default()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fig8_job3_cross_socket_falls_below_half() {
        // The DESIGN.md §2 anchor: a comm-heavy 2-GPU job offered one GPU
        // per socket on a busy Minsky must score below its 0.5 threshold.
        let c = UtilityComponents {
            u_cc: 1.0 / 22.0,
            u_interference: 0.74,
            u_domains: 0.0,
        };
        let u = utility(c, UtilityWeights::default());
        assert!(u < 0.5, "got {u}");
        assert!(u > 0.2, "should not be absurdly low: {u}");
    }

    #[test]
    fn weights_shift_the_score() {
        let c = UtilityComponents {
            u_cc: 0.0,
            u_interference: 1.0,
            u_domains: 1.0,
        };
        let comm_heavy = UtilityWeights::new(0.8, 0.1, 0.1).unwrap();
        let frag_heavy = UtilityWeights::new(0.1, 0.1, 0.8).unwrap();
        assert!(utility(c, comm_heavy) < utility(c, frag_heavy));
    }
}
