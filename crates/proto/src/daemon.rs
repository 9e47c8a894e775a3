//! The scheduler daemon — the prototype's main loop.
//!
//! Owns the `gts-sched` scheduler and serializes all state changes:
//! arrivals come in from the injector thread, completions from workers,
//! and after every event the daemon runs one Algorithm 1 iteration,
//! spawns workers for fresh placements and refreshes the shared slowdown
//! table every worker reads.

use crate::clock::{ScaledClock, TimeScale};
use crate::counters::LinkCounters;
use crate::result::{BandwidthSample, ProtoResult};
use crate::worker::{run_worker, WorkerParams};
use gts_job::{JobId, JobSpec};
use gts_perf::{PlacementPerf, ProfileLibrary};
use gts_sched::{Allocation, ClusterState, PlacementOutcome, Policy, Scheduler, SchedulerConfig};
use gts_sim::{cluster_ideal_duration_s, current_slowdown, solo_iter_time, JobRecord};
use gts_topo::ClusterTopology;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Events flowing into the daemon.
#[derive(Debug, Clone)]
pub enum Event {
    /// A job manifest arrived.
    Submit(JobSpec),
    /// A worker finished its job.
    Finished {
        /// The finished job.
        job: JobId,
        /// Completion timestamp in simulated seconds.
        at_sim_s: f64,
    },
    /// An operator cancelled a job (queued or running).
    Cancel {
        /// The job to tear down.
        job: JobId,
    },
}

/// Prototype configuration.
#[derive(Debug, Clone)]
pub struct ProtoConfig {
    /// Placement policy.
    pub policy: Policy,
    /// Experiment time compression.
    pub scale: TimeScale,
    /// Scripted cancellations: `(sim_time_s, job)` pairs injected while the
    /// experiment runs.
    pub cancellations: Vec<(f64, JobId)>,
}

impl ProtoConfig {
    /// Policy at the default fast scale (1 sim s = 2 wall ms).
    pub fn new(policy: Policy) -> Self {
        Self {
            policy,
            scale: TimeScale::fast(),
            cancellations: Vec::new(),
        }
    }

    /// Policy at an explicit scale.
    pub fn with_scale(policy: Policy, scale: TimeScale) -> Self {
        Self {
            policy,
            scale,
            cancellations: Vec::new(),
        }
    }
}

/// The prototype runtime.
pub struct Prototype {
    cluster: Arc<ClusterTopology>,
    profiles: Arc<ProfileLibrary>,
    config: ProtoConfig,
}

impl Prototype {
    /// Builds a prototype over a cluster (usually one Minsky, as in §5.2).
    pub fn new(
        cluster: Arc<ClusterTopology>,
        profiles: Arc<ProfileLibrary>,
        config: ProtoConfig,
    ) -> Self {
        Self {
            cluster,
            profiles,
            config,
        }
    }

    /// Executes a trace in scaled real time and collects the results.
    pub fn run(&self, mut trace: Vec<JobSpec>) -> ProtoResult {
        trace.sort_by(|a, b| {
            a.arrival_s
                .partial_cmp(&b.arrival_s)
                .expect("finite arrivals")
                .then(a.id.cmp(&b.id))
        });
        let mut expected = 0usize;
        let mut runnable = Vec::new();
        for job in trace {
            let fits = self
                .cluster
                .machines()
                .any(|m| self.cluster.machine(m).n_gpus() >= job.n_gpus as usize)
                || (job.constraints.anti_collocate
                    && (job.n_gpus as usize) <= self.cluster.n_machines());
            if fits {
                expected += 1;
                runnable.push(job);
            }
        }

        let clock = ScaledClock::start(self.config.scale);
        let (tx, rx) = channel::<Event>();
        let counters = Arc::new(LinkCounters::new(self.cluster.n_machines()));
        let slowdowns: Arc<RwLock<HashMap<JobId, f64>>> = Arc::new(RwLock::new(HashMap::new()));
        let cancelled: Arc<RwLock<HashSet<JobId>>> = Arc::new(RwLock::new(HashSet::new()));
        let stop = Arc::new(AtomicBool::new(false));

        // Cancellation injector (scripted operator actions).
        let canceller = {
            let mut schedule = self.config.cancellations.clone();
            schedule.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
            let tx = tx.clone();
            let clock = clock.clone();
            std::thread::spawn(move || {
                for (at_s, job) in schedule {
                    clock.sleep_until_sim(at_s);
                    if tx.send(Event::Cancel { job }).is_err() {
                        return;
                    }
                }
            })
        };

        // Arrival injector.
        let injector = {
            let tx = tx.clone();
            let clock = clock.clone();
            std::thread::spawn(move || {
                for job in runnable {
                    clock.sleep_until_sim(job.arrival_s);
                    if tx.send(Event::Submit(job)).is_err() {
                        return;
                    }
                }
            })
        };

        // Bandwidth monitor: one sample per simulated second.
        let monitor = {
            let counters = Arc::clone(&counters);
            let clock = clock.clone();
            let stop = Arc::clone(&stop);
            let scale = self.config.scale;
            std::thread::spawn(move || {
                let mut samples = Vec::new();
                let t0 = clock.now_sim();
                let mut last: Vec<(u64, u64)> = (0..counters.n_machines())
                    .map(|m| counters.totals_at(m, t0))
                    .collect();
                let mut last_t = t0;
                let tick = scale.to_wall(1.0).max(Duration::from_micros(500));
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(tick);
                    let now = clock.now_sim();
                    let dt = (now - last_t).max(1e-9);
                    for (m, prev) in last.iter_mut().enumerate() {
                        let (p2p, host) = counters.totals_at(m, now);
                        let (lp, lh) = *prev;
                        samples.push(BandwidthSample {
                            t_s: now,
                            machine: m,
                            p2p_gbs: (p2p - lp) as f64 / dt / 1e9,
                            host_gbs: (host - lh) as f64 / dt / 1e9,
                        });
                        *prev = (p2p, host);
                    }
                    last_t = now;
                }
                samples
            })
        };

        // The daemon loop itself.
        let state = ClusterState::new(Arc::clone(&self.cluster), Arc::clone(&self.profiles));
        let mut scheduler = Scheduler::new(state, SchedulerConfig::new(self.config.policy));
        let mut placed_at: HashMap<JobId, f64> = HashMap::new();
        let mut records: Vec<JobRecord> = Vec::new();
        let mut cancelled_jobs: Vec<JobId> = Vec::new();
        let mut workers: Vec<JoinHandle<()>> = Vec::new();
        let mut completed = 0usize;
        let idle_timeout = Duration::from_millis(200);

        while completed < expected {
            match rx.recv_timeout(idle_timeout) {
                Ok(Event::Submit(job)) => {
                    scheduler.submit(job);
                }
                Ok(Event::Finished { job, at_sim_s }) => {
                    let alloc = scheduler.complete(job);
                    slowdowns.write().expect("slowdowns poisoned").remove(&job);
                    let start = placed_at.remove(&job).expect("finished job was placed");
                    let mut record = self.record_for(alloc, start, at_sim_s);
                    record.postponements = scheduler.postpone_count(job);
                    records.push(record);
                    completed += 1;
                }
                Ok(Event::Cancel { job }) => {
                    use gts_sched::CancelOutcome;
                    match scheduler.cancel(job) {
                        CancelOutcome::Stopped(_) => {
                            cancelled.write().expect("cancelled poisoned").insert(job);
                            slowdowns.write().expect("slowdowns poisoned").remove(&job);
                            placed_at.remove(&job);
                            cancelled_jobs.push(job);
                            expected -= 1;
                        }
                        CancelOutcome::Dequeued => {
                            cancelled_jobs.push(job);
                            expected -= 1;
                        }
                        CancelOutcome::NotFound => {}
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    // A stuck head job (e.g. blocked in-order policy with
                    // nothing ever finishing) would hang the run; with an
                    // idle cluster nothing placeable remains, so anything
                    // still queued is abandoned.
                    if scheduler.state().n_running() == 0 {
                        if scheduler.drop_head().is_some() {
                            expected -= 1;
                            continue;
                        }
                        if scheduler.queue().is_empty() {
                            // Spurious timeout: arrivals still in flight.
                            continue;
                        }
                    }
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }

            for outcome in scheduler.run_iteration() {
                if let PlacementOutcome::Placed { id, .. } = outcome {
                    let alloc = scheduler.state().allocation(id).expect("just placed");
                    let now = clock.now_sim();
                    placed_at.insert(id, now);
                    slowdowns
                        .write()
                        .expect("slowdowns poisoned")
                        .insert(id, 0.0);
                    workers.push(self.spawn_worker(
                        alloc,
                        &clock,
                        &counters,
                        &slowdowns,
                        &cancelled,
                        tx.clone(),
                    ));
                }
            }
            self.refresh_slowdowns(&scheduler, &slowdowns);
        }

        drop(tx);
        stop.store(true, Ordering::Relaxed);
        injector.join().expect("injector thread");
        canceller.join().expect("canceller thread");
        for w in workers {
            w.join().expect("worker thread");
        }
        let bandwidth = monitor.join().expect("monitor thread");

        let makespan_s = records.iter().map(|r| r.finished_at_s).fold(0.0, f64::max);
        ProtoResult {
            policy: self.config.policy.kind,
            records,
            cancelled: cancelled_jobs,
            bandwidth,
            makespan_s,
            slo_violations: scheduler.slo_violations(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn spawn_worker(
        &self,
        alloc: &Allocation,
        clock: &ScaledClock,
        counters: &Arc<LinkCounters>,
        slowdowns: &Arc<RwLock<HashMap<JobId, f64>>>,
        cancelled: &Arc<RwLock<HashSet<JobId>>>,
        events: Sender<Event>,
    ) -> JoinHandle<()> {
        let iter = solo_iter_time(alloc, &self.cluster);
        let params = WorkerParams {
            job: alloc.spec.id,
            machine: alloc.gpus[0].machine.index(),
            iter,
            route: PlacementPerf::evaluate_cluster(&self.cluster, &alloc.gpus).route,
            total_solo_s: f64::from(alloc.spec.iterations) * iter.total_s(),
            dram_demand_gbs: alloc.spec.bw_demand_gbs,
            clock: clock.clone(),
            counters: Arc::clone(counters),
            slowdowns: Arc::clone(slowdowns),
            cancelled: Arc::clone(cancelled),
            events,
        };
        std::thread::spawn(move || run_worker(params))
    }

    /// Re-derives every running job's slowdown from the Fig. 6 model.
    fn refresh_slowdowns(&self, scheduler: &Scheduler, table: &Arc<RwLock<HashMap<JobId, f64>>>) {
        let running = || scheduler.state().running();
        let fresh = running()
            .map(|victim| {
                (
                    victim.spec.id,
                    current_slowdown(victim, running(), &self.cluster),
                )
            })
            .collect();
        *table.write().expect("slowdowns poisoned") = fresh;
    }

    fn record_for(&self, alloc: Allocation, placed_at_s: f64, finished_at_s: f64) -> JobRecord {
        JobRecord {
            placed_at_s,
            finished_at_s,
            ideal_duration_s: cluster_ideal_duration_s(&alloc.spec, &self.cluster),
            gpus: alloc.gpus,
            utility: alloc.utility,
            slo_violated: alloc.utility + 1e-9 < alloc.spec.min_utility,
            postponements: 0, // filled by the daemon loop below when known
            restarts: 0,
            spec: alloc.spec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_job::{BatchClass, NnModel};
    use gts_sched::PolicyKind;
    use gts_topo::power8_minsky;

    fn prototype(kind: PolicyKind) -> Prototype {
        let machine = power8_minsky();
        let profiles = Arc::new(ProfileLibrary::generate(&machine, 42));
        let cluster = Arc::new(ClusterTopology::homogeneous(machine, 1));
        Prototype::new(cluster, profiles, ProtoConfig::new(Policy::new(kind)))
    }

    fn quick_job(id: u64, gpus: u32, arrival: f64, iters: u32) -> JobSpec {
        JobSpec::new(id, NnModel::AlexNet, BatchClass::Tiny, gpus)
            .arriving_at(arrival)
            .with_iterations(iters)
            .with_min_utility(if gpus > 1 { 0.5 } else { 0.3 })
    }

    #[test]
    fn single_job_completes_with_accurate_timing() {
        let p = prototype(PolicyKind::TopoAware);
        let res = p.run(vec![quick_job(0, 2, 0.0, 200)]);
        assert_eq!(res.records.len(), 1);
        let r = &res.records[0];
        // 200 iterations × 74.9 ms ≈ 15 s of simulated execution; thread
        // scheduling jitter at the fast scale warrants a loose band.
        assert!(
            (10.0..25.0).contains(&r.execution_s()),
            "got {}",
            r.execution_s()
        );
        assert_eq!(res.slo_violations, 0);
    }

    #[test]
    fn two_jobs_share_the_machine_and_both_finish() {
        let p = prototype(PolicyKind::TopoAware);
        let res = p.run(vec![quick_job(0, 2, 0.0, 150), quick_job(1, 2, 0.0, 150)]);
        assert_eq!(res.records.len(), 2);
        // They ran concurrently: makespan well under the serial sum.
        let serial: f64 = res.records.iter().map(|r| r.execution_s()).sum();
        assert!(res.makespan_s < serial * 0.8, "no concurrency observed");
    }

    #[test]
    fn bandwidth_monitor_sees_p2p_traffic_near_40_gbs() {
        let p = prototype(PolicyKind::TopoAware);
        let res = p.run(vec![quick_job(0, 2, 0.0, 400)]);
        // A packed tiny-batch AlexNet saturates NVLink: Fig. 5 says ≈40 GB/s.
        let peak = res.peak_p2p_gbs();
        assert!((30.0..50.0).contains(&peak), "got {peak}");
    }

    #[test]
    fn queued_job_waits_then_runs() {
        let p = prototype(PolicyKind::Fcfs);
        let res = p.run(vec![quick_job(0, 4, 0.0, 120), quick_job(1, 4, 1.0, 120)]);
        let r1 = res.record(JobId(1)).unwrap();
        assert!(r1.waiting_s() > 1.0, "got {}", r1.waiting_s());
    }

    /// A job wider than every machine records the simulator's ideal, the
    /// multi-node floor, not an infinite one (which would read as a QoS
    /// slowdown of 0).
    #[test]
    fn a_job_wider_than_every_machine_records_the_simulators_ideal() {
        let machine = power8_minsky();
        let profiles = Arc::new(ProfileLibrary::generate(&machine, 42));
        let cluster = Arc::new(ClusterTopology::homogeneous(machine, 5));
        let mut job = quick_job(0, 5, 0.0, 20);
        job.constraints = gts_job::Constraints {
            single_node: false,
            anti_collocate: true,
        };
        let policy = Policy::new(PolicyKind::TopoAware);
        let proto = Prototype::new(
            Arc::clone(&cluster),
            Arc::clone(&profiles),
            ProtoConfig::new(policy),
        )
        .run(vec![job.clone()]);
        let sim = gts_sim::engine::simulate(cluster, profiles, policy, vec![job]);
        assert_eq!(proto.records.len(), 1);
        let ideal = proto.records[0].ideal_duration_s;
        assert!(ideal.is_finite(), "prototype ideal {ideal}");
        assert_eq!(ideal.to_bits(), sim.records[0].ideal_duration_s.to_bits());
        assert!(proto.records[0].qos_slowdown() > 0.0);
    }

    #[test]
    fn oversized_job_is_skipped_not_hung() {
        let p = prototype(PolicyKind::Fcfs);
        let res = p.run(vec![
            quick_job(0, 8, 0.0, 10), // no machine has 8 GPUs
            quick_job(1, 1, 0.0, 100),
        ]);
        assert_eq!(res.records.len(), 1);
        assert_eq!(res.records[0].spec.id, JobId(1));
    }
}
