//! Every fitted constant of the performance model, in one place.
//!
//! Each constant is anchored to a number the paper reports; the anchor is
//! recorded next to the constant and asserted by the tests at the bottom of
//! this file, so any recalibration that breaks an anchor fails loudly.

use gts_job::BatchClass;

/// Base per-iteration compute time in seconds (batch-independent overhead:
/// kernel launches, weight update, host sync). Anchor: AlexNet batch 1
/// compute ≈ 25 ms/iteration (≈1 s over the paper's 40 profiling
/// iterations, §3.2).
pub const COMPUTE_BASE_S: f64 = 0.012;

/// Per-sample compute time in seconds for AlexNet (other networks scale by
/// [`gts_job::NnModel::compute_scale`]). Anchor: AlexNet batch 128 compute
/// ≈ 66 s over 40 iterations → 1.65 s/iteration (§3.2).
pub const COMPUTE_PER_SAMPLE_S: f64 = 0.0128;

/// Fraction of a route's bottleneck link bandwidth that a ring allreduce
/// actually achieves over a *P2P-capable* route (NVLink direct or
/// switch-only). Anchor: AlexNet communication ≈ 2 s per 40 iterations
/// (50 ms/iteration) for a 244 MB gradient over the 40 GB/s dual NVLink →
/// effective ≈ 4.88 GB/s.
pub const EFF_P2P: f64 = 0.122;

/// Achieved fraction for *host-routed* traffic (bounced through socket
/// memory; extra copies, driver staging). Anchor: pack-over-spread speedup
/// ≈ 1.30× for AlexNet at batch 1 on Minsky (Fig. 4) → cross-socket
/// communication ≈ 72.5 ms/iteration → effective ≈ 3.37 GB/s over the
/// 32 GB/s X-Bus.
pub const EFF_HOST: f64 = 0.105;

/// Peak sampled link bandwidth for the Fig. 5 counter emulation, GB/s.
/// Anchor: AlexNet batch 1 saturates the counters at ≈ 40 GB/s.
pub const BW_SAMPLE_PEAK_GBS: f64 = 54.0;

/// Baseline ancillary traffic (input pipeline, parameter broadcasts) always
/// present on the sampled links, GB/s. Anchor: AlexNet batch 128 still
/// shows ≈ 6 GB/s in Fig. 5.
pub const BW_SAMPLE_BASE_GBS: f64 = 4.0;

/// Interference sensitivity per batch class (how much a job *suffers*).
/// Anchors (Fig. 6): tiny|tiny ≈ 30 %, small|big ≈ 21 %, big|big ≈ ~0 %.
pub fn sensitivity(batch: BatchClass) -> f64 {
    match batch {
        BatchClass::Tiny => 1.00,
        BatchClass::Small => 0.85,
        BatchClass::Medium => 0.45,
        BatchClass::Big => 0.05,
    }
}

/// Bus pressure per batch class (how much a job *causes*). Anchor (Fig. 6):
/// a big-batch job still slows a tiny-batch job by ≈ 24 % — "a job composed
/// by a big batch can cause performance interference since it still
/// consumes bandwidth".
pub fn pressure(batch: BatchClass) -> f64 {
    match batch {
        BatchClass::Tiny => 0.30,
        BatchClass::Small => 0.27,
        BatchClass::Medium => 0.25,
        BatchClass::Big => 0.24,
    }
}

/// Domain factor when two jobs share CPU↔GPU links of the *same socket*.
pub const DOMAIN_SAME_SOCKET: f64 = 1.0;

/// Domain factor when two jobs share only the machine-level buses
/// (different sockets, same machine).
pub const DOMAIN_SAME_MACHINE: f64 = 0.35;

/// Cap on the combined slowdown from any number of co-runners: a job never
/// degrades past this (the bus saturates; Fig. 6 tops out around 30 % for a
/// single aggressor and the prototype never exceeds ≈ 50–80 % total).
pub const SLOWDOWN_CAP: f64 = 0.75;

/// Relative jitter (± fraction) applied to "measured" runs by the §5.1
/// profiler, emulating run-to-run variance of the real testbed.
pub const PROFILE_JITTER: f64 = 0.03;

#[cfg(test)]
mod tests {
    use super::*;

    /// AlexNet per-iteration compute at the paper's batch endpoints.
    #[test]
    fn compute_anchors() {
        let b1 = COMPUTE_BASE_S + COMPUTE_PER_SAMPLE_S;
        assert!((0.02..0.03).contains(&b1), "batch-1 ≈ 25 ms, got {b1}");
        let b128 = COMPUTE_BASE_S + 128.0 * COMPUTE_PER_SAMPLE_S;
        assert!((1.6..1.7).contains(&b128), "batch-128 ≈ 1.65 s, got {b128}");
    }

    /// 244 MB gradient over κ·40 GB/s NVLink ≈ 50 ms (2 s / 40 iterations).
    #[test]
    fn comm_anchor_packed() {
        let volume_gb = 61_000_000.0 * 4.0 / 1e9;
        let t = volume_gb / (EFF_P2P * 40.0);
        assert!((0.045..0.055).contains(&t), "packed comm ≈ 50 ms, got {t}");
    }

    /// Cross-socket route yields the 1.30× batch-1 pack speedup.
    #[test]
    fn comm_anchor_speedup() {
        let volume_gb = 61_000_000.0 * 4.0 / 1e9;
        let packed = volume_gb / (EFF_P2P * 40.0);
        let spread = volume_gb / (EFF_HOST * 32.0);
        let comp = COMPUTE_BASE_S + COMPUTE_PER_SAMPLE_S;
        let speedup = (comp + spread) / (comp + packed);
        assert!(
            (1.25..1.35).contains(&speedup),
            "batch-1 speedup ≈ 1.30, got {speedup}"
        );
    }

    /// Fig. 6 anchors reproduced by the sensitivity/pressure tables.
    #[test]
    fn interference_anchors() {
        let tt = sensitivity(BatchClass::Tiny) * pressure(BatchClass::Tiny);
        assert!((tt - 0.30).abs() < 0.01, "tiny|tiny ≈ 30 %, got {tt}");
        let tb = sensitivity(BatchClass::Tiny) * pressure(BatchClass::Big);
        assert!((tb - 0.24).abs() < 0.01, "tiny|big ≈ 24 %, got {tb}");
        let sb = sensitivity(BatchClass::Small) * pressure(BatchClass::Big);
        assert!((sb - 0.21).abs() < 0.015, "small|big ≈ 21 %, got {sb}");
        let bb = sensitivity(BatchClass::Big) * pressure(BatchClass::Big);
        assert!(bb < 0.02, "big|big ≈ 0, got {bb}");
    }

    /// Fig. 5 endpoints: ≈40 GB/s at batch 1, ≈6 GB/s at batch 128.
    #[test]
    fn bandwidth_sample_anchors() {
        let comm = 0.050;
        let duty_b1 = comm / (COMPUTE_BASE_S + COMPUTE_PER_SAMPLE_S + comm);
        let bw_b1 = BW_SAMPLE_BASE_GBS + BW_SAMPLE_PEAK_GBS * duty_b1;
        assert!(
            (38.0..42.0).contains(&bw_b1),
            "batch-1 ≈ 40 GB/s, got {bw_b1}"
        );

        let comp_128 = COMPUTE_BASE_S + 128.0 * COMPUTE_PER_SAMPLE_S;
        let duty_b128 = comm / (comp_128 + comm);
        let bw_b128 = BW_SAMPLE_BASE_GBS + BW_SAMPLE_PEAK_GBS * duty_b128;
        assert!(
            (5.0..7.0).contains(&bw_b128),
            "batch-128 ≈ 6 GB/s, got {bw_b128}"
        );
    }

    #[test]
    fn tables_are_monotone_in_batch() {
        let classes = BatchClass::ALL;
        for w in classes.windows(2) {
            assert!(sensitivity(w[0]) > sensitivity(w[1]));
            assert!(pressure(w[0]) > pressure(w[1]));
        }
    }
}
