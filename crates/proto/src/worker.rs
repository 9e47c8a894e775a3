//! Job worker threads — the stand-in for a Caffe training process.
//!
//! A worker burns down its job's work stock in small wall-clock chunks.
//! Each chunk it (a) reads its current interference slowdown from the
//! shared table the daemon maintains, (b) advances `dt / (1 + slowdown)`
//! solo-seconds of progress, and (c) publishes the bandwidth its links are
//! carrying to the machine's [`LinkCounters`] as a *rate*, which the
//! counters integrate continuously — so the monitor's per-second windows
//! read true GB/s regardless of worker chunking. When the stock is gone
//! the worker retires its rates and reports completion over the event
//! channel.

use crate::clock::ScaledClock;
use crate::counters::LinkCounters;
use crate::daemon::Event;
use crossbeam::channel::Sender;
use gts_job::JobId;
use gts_perf::{sampled_bandwidth_gbs, IterTime, RouteClass};
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

/// Everything a worker thread needs to execute one placed job.
pub struct WorkerParams {
    /// The job being executed.
    pub job: JobId,
    /// Machine hosting the job's (first) GPUs, for counter attribution.
    pub machine: usize,
    /// Solo per-iteration profile under the granted placement.
    pub iter: IterTime,
    /// Worst-pair route class of the placement.
    pub route: RouteClass,
    /// Total work, in solo-execution seconds.
    pub total_solo_s: f64,
    /// Declared host memory-bandwidth demand (GB/s) — fed to the DRAM
    /// counter (the Perfmon2 stand-in).
    pub dram_demand_gbs: f64,
    /// The experiment clock.
    pub clock: ScaledClock,
    /// Shared link counters.
    pub counters: Arc<LinkCounters>,
    /// Shared slowdown table, updated by the daemon on every state change.
    pub slowdowns: Arc<RwLock<HashMap<JobId, f64>>>,
    /// Jobs the daemon has cancelled; members stop without reporting
    /// completion.
    pub cancelled: Arc<RwLock<HashSet<JobId>>>,
    /// Completion events back to the daemon.
    pub events: Sender<Event>,
}

/// Wall-clock chunk length workers sleep per step.
const CHUNK: Duration = Duration::from_micros(500);

/// Runs one job to completion (blocking; spawn on a dedicated thread).
pub fn run_worker(p: WorkerParams) {
    let mut remaining = p.total_solo_s;
    let mut last_sim = p.clock.now_sim();
    // The per-channel rates this worker has published so far; retired on
    // every exit path so the machine aggregate stays exact.
    let (mut pub_p2p, mut pub_host, mut pub_dram) = (0.0f64, 0.0f64, 0.0f64);
    let mut torn_down = false;
    while remaining > 0.0 {
        if p.cancelled.read().contains(&p.job) {
            torn_down = true; // daemon tore it down; no completion event
            break;
        }
        // Publish the bandwidth this job drives at its current slowdown.
        let slowdown = p.slowdowns.read().get(&p.job).copied().unwrap_or(0.0);
        let bw = sampled_bandwidth_gbs(p.iter, slowdown);
        let (want_p2p, want_host) = if p.iter.comm_s > 0.0 && p.route == RouteClass::P2p {
            (bw, 0.0)
        } else {
            (0.0, bw)
        };
        if want_p2p != pub_p2p || want_host != pub_host || p.dram_demand_gbs != pub_dram {
            p.counters.update_rates(
                p.machine,
                last_sim,
                want_p2p - pub_p2p,
                want_host - pub_host,
                p.dram_demand_gbs - pub_dram,
            );
            (pub_p2p, pub_host, pub_dram) = (want_p2p, want_host, p.dram_demand_gbs);
        }

        std::thread::sleep(CHUNK);
        let now_sim = p.clock.now_sim();
        let dt_sim = (now_sim - last_sim).max(0.0);
        last_sim = now_sim;
        remaining -= dt_sim / (1.0 + slowdown);
    }
    let finished_at = p.clock.now_sim();
    p.counters
        .update_rates(p.machine, finished_at, -pub_p2p, -pub_host, -pub_dram);
    if torn_down {
        return;
    }
    // The daemon may have shut down if it already saw every completion —
    // ignore a closed channel.
    let _ = p.events.send(Event::Finished {
        job: p.job,
        at_sim_s: finished_at,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TimeScale;
    use crossbeam::channel::unbounded;

    fn params(
        total_solo_s: f64,
        slowdown: f64,
    ) -> (WorkerParams, crossbeam::channel::Receiver<Event>) {
        params_at(total_solo_s, slowdown, TimeScale::new(0.001))
    }

    /// [`params`] on a clock running at `scale`.
    fn params_at(
        total_solo_s: f64,
        slowdown: f64,
        scale: TimeScale,
    ) -> (WorkerParams, crossbeam::channel::Receiver<Event>) {
        let (tx, rx) = unbounded();
        let slowdowns = Arc::new(RwLock::new(HashMap::new()));
        slowdowns.write().insert(JobId(0), slowdown);
        let p = WorkerParams {
            job: JobId(0),
            machine: 0,
            iter: IterTime {
                compute_s: 0.025,
                comm_s: 0.050,
            },
            route: RouteClass::P2p,
            total_solo_s,
            dram_demand_gbs: 0.0,
            clock: ScaledClock::start(scale),
            counters: Arc::new(LinkCounters::new(1)),
            slowdowns,
            cancelled: Arc::new(RwLock::new(HashSet::new())),
            events: tx,
        };
        (p, rx)
    }

    #[test]
    fn worker_finishes_and_reports() {
        let (p, rx) = params(20.0, 0.0);
        let counters = Arc::clone(&p.counters);
        let handle = std::thread::spawn(move || run_worker(p));
        let event = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("completion event");
        match event {
            Event::Finished { job, at_sim_s } => {
                assert_eq!(job, JobId(0));
                assert!(at_sim_s >= 20.0, "finished too early: {at_sim_s}");
                assert!(at_sim_s < 60.0, "finished far too late: {at_sim_s}");
            }
            other => panic!("unexpected {other:?}"),
        }
        handle.join().unwrap();
        let (p2p, host) = counters.totals(0);
        assert!(p2p > 0, "P2P traffic must have been recorded");
        assert_eq!(host, 0);
    }

    /// Wall time that the host steals from a worker (a late thread start,
    /// a preempted sleep) lands in its finish time. At 10 ms of wall per
    /// sim-second a 10 ms stall costs 1 sim-s, so the fast worker's 15
    /// sim-s would need a stall of about 50 ms to break the 1.5× margin
    /// (at 1 ms per sim-second, 10 ms was enough).
    #[test]
    fn slowdown_stretches_wall_time() {
        let scale = TimeScale::new(0.01);
        let (p_fast, rx_fast) = params_at(15.0, 0.0, scale);
        let (p_slow, rx_slow) = params_at(15.0, 1.0, scale);
        std::thread::spawn(move || run_worker(p_fast));
        std::thread::spawn(move || run_worker(p_slow));
        let t_fast = match rx_fast.recv_timeout(Duration::from_secs(5)).unwrap() {
            Event::Finished { at_sim_s, .. } => at_sim_s,
            other => panic!("unexpected {other:?}"),
        };
        let t_slow = match rx_slow.recv_timeout(Duration::from_secs(5)).unwrap() {
            Event::Finished { at_sim_s, .. } => at_sim_s,
            other => panic!("unexpected {other:?}"),
        };
        assert!(
            t_slow > t_fast * 1.5,
            "100 % slowdown should roughly double runtime: fast {t_fast}, slow {t_slow}"
        );
    }

    #[test]
    fn cancelled_worker_exits_without_reporting() {
        let (p, rx) = params(1_000.0, 0.0); // would run ~1000 sim-seconds
        let cancelled = Arc::clone(&p.cancelled);
        let handle = std::thread::spawn(move || run_worker(p));
        std::thread::sleep(Duration::from_millis(5));
        cancelled.write().insert(JobId(0));
        handle.join().unwrap();
        assert!(
            rx.try_recv().is_err(),
            "cancelled workers must not send completion events"
        );
    }

    #[test]
    fn dram_demand_feeds_the_pmu_counter() {
        let (mut p, rx) = params(10.0, 0.0);
        p.dram_demand_gbs = 50.0;
        let counters = Arc::clone(&p.counters);
        std::thread::spawn(move || run_worker(p));
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let dram = counters.dram_total(0);
        // ≈50 GB/s × ≈10 simulated seconds, within scheduling slack.
        assert!(dram > 300_000_000_000, "got {dram}");
    }

    #[test]
    fn host_routed_traffic_lands_in_the_host_channel() {
        let (mut p, rx) = params(10.0, 0.0);
        p.route = RouteClass::HostRouted;
        let counters = Arc::clone(&p.counters);
        std::thread::spawn(move || run_worker(p));
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let (p2p, host) = counters.totals(0);
        assert_eq!(p2p, 0);
        assert!(host > 0);
    }
}
