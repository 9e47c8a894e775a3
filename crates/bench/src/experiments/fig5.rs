//! Fig. 5 — NVLink bandwidth usage over time for AlexNet at batch sizes
//! 1, 4, 64 and 128 (2 GPUs, packed, 250 s window).

use super::{minsky_cluster, pack_spread_pairs};
use crate::table::{f, TextTable};
use gts_core::perf::bandwidth::BandwidthTrace;
use gts_core::prelude::*;

/// The batch sizes the paper plots.
pub const BATCHES: [u32; 4] = [1, 4, 64, 128];

/// Plot window, seconds.
pub const WINDOW_S: f64 = 250.0;

/// One trace of Fig. 5.
#[derive(Debug, Clone)]
pub struct Fig5Trace {
    /// Per-GPU batch size.
    pub batch: u32,
    /// The 1 Hz bandwidth samples.
    pub trace: BandwidthTrace,
}

/// Generates the four traces.
pub fn run(seed: u64) -> Vec<Fig5Trace> {
    let (cluster, _) = minsky_cluster(1);
    let machine = cluster.machine(MachineId(0));
    let (pack, _) = pack_spread_pairs(machine);
    let perf = PlacementPerf::evaluate(machine, &pack);
    BATCHES
        .iter()
        .map(|&batch| {
            let iter = perf.iter_time(NnModel::AlexNet, batch);
            Fig5Trace {
                batch,
                trace: BandwidthTrace::generate(iter, 0.0, WINDOW_S, seed ^ u64::from(batch)),
            }
        })
        .collect()
}

/// Renders summary rows plus a coarse (25 s step) series.
pub fn render() -> String {
    let traces = run(42);
    let mut out = String::new();
    let mut t = TextTable::new(
        "Fig. 5 — NVLink bandwidth usage, AlexNet 2-GPU packed (GB/s)",
        &["batch", "mean", "peak"],
    );
    for tr in &traces {
        t.row(vec![
            tr.batch.to_string(),
            f(tr.trace.mean_gbs(), 1),
            f(tr.trace.peak_gbs(), 1),
        ]);
    }
    out.push_str(&t.to_string());

    let mut series = TextTable::new(
        "  sampled series (every 25 s)",
        &["t(s)", "b=1", "b=4", "b=64", "b=128"],
    );
    for step in 0..10 {
        let idx = step * 25;
        let mut row = vec![idx.to_string()];
        for tr in &traces {
            row.push(f(tr.trace.samples_gbs[idx], 1));
        }
        series.row(row);
    }
    out.push_str(&series.to_string());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_endpoints() {
        let traces = run(42);
        let b1 = traces.iter().find(|t| t.batch == 1).unwrap();
        let b128 = traces.iter().find(|t| t.batch == 128).unwrap();
        // ≈40 GB/s at batch 1, ≈6 GB/s at batch 128.
        assert!(
            (37.0..43.0).contains(&b1.trace.mean_gbs()),
            "{}",
            b1.trace.mean_gbs()
        );
        assert!(
            (4.5..7.5).contains(&b128.trace.mean_gbs()),
            "{}",
            b128.trace.mean_gbs()
        );
    }

    #[test]
    fn bandwidth_orders_inversely_with_batch() {
        let traces = run(7);
        for w in traces.windows(2) {
            assert!(w[0].trace.mean_gbs() > w[1].trace.mean_gbs());
        }
    }

    #[test]
    fn traces_cover_the_window() {
        for tr in run(1) {
            assert_eq!(tr.trace.samples_gbs.len(), WINDOW_S as usize);
        }
    }

    #[test]
    fn renders() {
        let s = render();
        assert!(s.contains("b=128"));
    }
}
