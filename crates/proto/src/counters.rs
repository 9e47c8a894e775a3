//! Per-machine link-traffic counters — the `nvidia-smi nvlink` stand-in.
//!
//! The monitor thread reads cumulative totals once per scaled second and
//! differentiates to GB/s, exactly how the paper computes NVLink bandwidth
//! from transmit counters (§5.1). Three channels per machine: P2P traffic
//! (direct NVLink / switch routes), host-routed traffic (GPU–CPU–GPU) and
//! DRAM (the Perfmon2/PMU stand-in — §5.1 computes DRAM bandwidth "using
//! the Power8 performance counters").
//!
//! Workers report *rates*, not byte blobs: each publishes its current
//! per-channel GB/s (via [`LinkCounters::update_rates`]) and the counter
//! integrates the machine's aggregate rate continuously over simulated
//! time. A blob design — each worker adding `rate × chunk` bytes whenever
//! its chunk happens to end — made the cumulative count advance in stair
//! steps, so a monitor window that caught an extra step read up to
//! `1 + chunk/window` times the true bandwidth. Continuous integration
//! gives every window exactly the flow that crossed it, whatever the
//! worker chunking. One-shot byte adds ([`LinkCounters::add_p2p`] and
//! friends) remain for instantaneous transfers.

use std::sync::{Mutex, MutexGuard};

/// One channel's integrated traffic: settled bytes plus the aggregate rate
/// all workers are currently driving through it.
#[derive(Debug, Default, Clone, Copy)]
struct Flow {
    bytes: f64,
    rate_gbs: f64,
    last_t_s: f64,
}

impl Flow {
    /// Integrates the current rate up to `t_s`. Out-of-order timestamps
    /// (workers race by a chunk) settle nothing rather than going negative.
    fn settle(&mut self, t_s: f64) {
        if t_s > self.last_t_s {
            self.bytes += self.rate_gbs * (t_s - self.last_t_s) * 1e9;
            self.last_t_s = t_s;
        }
    }

    fn total_at(&self, t_s: f64) -> u64 {
        let extra = self.rate_gbs * (t_s - self.last_t_s).max(0.0) * 1e9;
        (self.bytes + extra).max(0.0) as u64
    }
}

#[derive(Debug, Default)]
struct MachineFlows {
    p2p: Flow,
    host: Flow,
    dram: Flow,
}

/// Cumulative transferred bytes per machine, split by route class.
#[derive(Debug)]
pub struct LinkCounters {
    machines: Vec<Mutex<MachineFlows>>,
}

impl LinkCounters {
    /// Counters for `n_machines` machines, all zero.
    pub fn new(n_machines: usize) -> Self {
        Self {
            machines: (0..n_machines)
                .map(|_| Mutex::new(MachineFlows::default()))
                .collect(),
        }
    }

    /// Number of machines covered.
    pub fn n_machines(&self) -> usize {
        self.machines.len()
    }

    /// Locks one machine's flows.
    fn flows(&self, machine: usize) -> MutexGuard<'_, MachineFlows> {
        self.machines[machine].lock().expect("counters poisoned")
    }

    /// Adds P2P bytes on one machine as an instantaneous transfer.
    pub fn add_p2p(&self, machine: usize, bytes: u64) {
        self.flows(machine).p2p.bytes += bytes as f64;
    }

    /// Adds host-routed bytes on one machine as an instantaneous transfer.
    pub fn add_host(&self, machine: usize, bytes: u64) {
        self.flows(machine).host.bytes += bytes as f64;
    }

    /// Adds DRAM traffic (input pipeline / staging) on one machine as an
    /// instantaneous transfer.
    pub fn add_dram(&self, machine: usize, bytes: u64) {
        self.flows(machine).dram.bytes += bytes as f64;
    }

    /// Changes a machine's aggregate channel rates by the given deltas at
    /// simulated time `t_s`. Traffic already flowing is settled first, so
    /// a worker adjusting its published rate never rewrites history. A
    /// worker finishing (or torn down) must retire its contribution by
    /// passing the negated rates it last published.
    pub fn update_rates(
        &self,
        machine: usize,
        t_s: f64,
        d_p2p_gbs: f64,
        d_host_gbs: f64,
        d_dram_gbs: f64,
    ) {
        let mut flows = self.flows(machine);
        let MachineFlows { p2p, host, dram } = &mut *flows;
        for (flow, delta) in [(p2p, d_p2p_gbs), (host, d_host_gbs), (dram, d_dram_gbs)] {
            flow.settle(t_s);
            flow.rate_gbs = (flow.rate_gbs + delta).max(0.0);
        }
    }

    /// Cumulative `(p2p, host)` bytes on one machine, as settled so far.
    pub fn totals(&self, machine: usize) -> (u64, u64) {
        let flows = self.flows(machine);
        (
            flows.p2p.total_at(flows.p2p.last_t_s),
            flows.host.total_at(flows.host.last_t_s),
        )
    }

    /// Cumulative `(p2p, host)` bytes on one machine at simulated time
    /// `t_s`, including traffic still flowing at the current rates — what
    /// the bandwidth monitor reads each window.
    pub fn totals_at(&self, machine: usize, t_s: f64) -> (u64, u64) {
        let flows = self.flows(machine);
        (flows.p2p.total_at(t_s), flows.host.total_at(t_s))
    }

    /// Cumulative DRAM bytes on one machine, as settled so far.
    pub fn dram_total(&self, machine: usize) -> u64 {
        let flows = self.flows(machine);
        flows.dram.total_at(flows.dram.last_t_s)
    }

    /// Cumulative DRAM bytes on one machine at simulated time `t_s`.
    pub fn dram_total_at(&self, machine: usize, t_s: f64) -> u64 {
        self.flows(machine).dram.total_at(t_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_accumulate() {
        let c = LinkCounters::new(2);
        c.add_p2p(0, 100);
        c.add_p2p(0, 50);
        c.add_host(1, 7);
        assert_eq!(c.totals(0), (150, 0));
        assert_eq!(c.totals(1), (0, 7));
        assert_eq!(c.n_machines(), 2);
        c.add_dram(1, 99);
        assert_eq!(c.dram_total(1), 99);
        assert_eq!(c.dram_total(0), 0);
    }

    #[test]
    fn concurrent_adds_do_not_lose_updates() {
        let c = Arc::new(LinkCounters::new(1));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.add_p2p(0, 1);
                        c.add_host(0, 2);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.totals(0), (8000, 16000));
    }

    #[test]
    fn rates_integrate_continuously_over_time() {
        let c = LinkCounters::new(1);
        c.update_rates(0, 0.0, 40.0, 0.0, 10.0);
        // Half a second in: 20 GB of P2P, 5 GB of DRAM — no blob steps.
        assert_eq!(c.totals_at(0, 0.5), (20_000_000_000, 0));
        assert_eq!(c.dram_total_at(0, 0.5), 5_000_000_000);
        assert_eq!(c.totals_at(0, 1.0), (40_000_000_000, 0));
    }

    #[test]
    fn rate_changes_settle_earlier_traffic_first() {
        let c = LinkCounters::new(1);
        c.update_rates(0, 0.0, 40.0, 0.0, 0.0);
        // Rate drops at t=1: the first second's 40 GB must stay counted.
        c.update_rates(0, 1.0, -30.0, 0.0, 0.0);
        assert_eq!(c.totals_at(0, 2.0), (50_000_000_000, 0));
    }

    #[test]
    fn retiring_a_rate_freezes_the_total() {
        let c = LinkCounters::new(1);
        c.update_rates(0, 0.0, 0.0, 25.0, 0.0);
        c.update_rates(0, 2.0, 0.0, -25.0, 0.0);
        assert_eq!(c.totals_at(0, 10.0), (0, 50_000_000_000));
        // Negative aggregates clamp to zero rather than draining bytes.
        c.update_rates(0, 10.0, 0.0, -5.0, 0.0);
        assert_eq!(c.totals_at(0, 20.0), (0, 50_000_000_000));
    }

    #[test]
    fn two_workers_on_one_machine_sum_their_rates() {
        let c = LinkCounters::new(1);
        c.update_rates(0, 0.0, 10.0, 0.0, 0.0);
        c.update_rates(0, 0.0, 15.0, 0.0, 0.0);
        assert_eq!(c.totals_at(0, 1.0), (25_000_000_000, 0));
    }
}
