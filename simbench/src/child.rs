//! What one child process does: set up and run a workload once, check the
//! outputs, and print what it measured as tab-separated lines
//! (`val`, `span`, `digest`, `fail`) for the parent to aggregate.
//!
//! Every measured run is a fresh process, so no run inherits the peak RSS,
//! thread-local pools or warmed caches of an earlier one.

use crate::workload::Workload;
use gts_core::prelude::*;
use gts_core::sched::StateOracle;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per child. The first runs on a cold heap, pays its page faults
/// and takes two to three times as long as the later ones; the child
/// reports the one with the median CPU time, a warm one.
const SETUPS: usize = 5;

/// `drb_map` calls per probe, spread evenly over the combinations: enough
/// for ten samples beyond the p99.
const PROBE_CALLS: usize = 3000;

/// Spans kept in memory and printed when the child ends.
struct Spans {
    epoch: Instant,
    spans: Vec<(&'static str, Option<usize>, u64, u64)>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the child's epoch.
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, parent: Option<usize>, start: u64, end: u64) -> usize {
        self.spans.push((name, parent, start, end));
        self.spans.len() - 1
    }

    fn print(&self) {
        for (id, (name, parent, start, end)) in self.spans.iter().enumerate() {
            let parent = parent.map_or("-".to_string(), |p| p.to_string());
            println!("span\t{id}\t{parent}\t{name}\t{start}\t{end}");
        }
    }
}

fn val(key: &str, value: impl std::fmt::Debug) {
    println!("val\t{key}\t{value:?}");
}

fn fail(check: &str, detail: impl std::fmt::Display) {
    println!("fail\t{check}\t{detail}");
}

/// Sets up `workload` at `seed`, runs it once through
/// `Simulation::run_with_stats`, checks the outputs and prints the
/// measurements. `traced` turns on the simulator's phase meters and adds
/// the `drb_map` probe.
pub fn run(workload: &Workload, seed: u64, traced: bool) -> Result<(), String> {
    let mut spans = Spans::new();

    // Set-up, SETUPS times over, each freed before the next is built; the
    // run uses the last. Wall spans and CPU times are taken at shared
    // boundaries, so the four layers sum exactly to their set-up.
    let mut built = None;
    let mut setup_cpu: Vec<[u64; 5]> = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        drop(built.take());
        let mut cpu = [0; 5];
        let t0 = spans.now();
        cpu[0] = process_cpu_ns();
        let cluster = workload.build_cluster();
        let t1 = spans.now();
        cpu[1] = process_cpu_ns();
        let profiles = workload.build_profiles();
        let t2 = spans.now();
        cpu[2] = process_cpu_ns();
        let (trace, script) = workload.generate(seed)?;
        let t3 = spans.now();
        cpu[3] = process_cpu_ns();
        let config = workload.config(&script).with_phase_timing(traced);
        let sim = Simulation::new(Arc::clone(&cluster), Arc::clone(&profiles), config);
        let t4 = spans.now();
        cpu[4] = process_cpu_ns();
        let setup = spans.push("setup", None, t0, t4);
        spans.push("topo.build", Some(setup), t0, t1);
        spans.push("perf.profiles", Some(setup), t1, t2);
        spans.push("job.generate", Some(setup), t2, t3);
        spans.push("sim.new", Some(setup), t3, t4);
        setup_cpu.push(cpu);
        built = Some((cluster, profiles, trace, sim));
    }
    let (cluster, profiles, trace, sim) = built.expect("SETUPS is at least 1");
    setup_cpu.sort_by_key(|cpu| cpu[4] - cpu[0]);
    let cpu = setup_cpu[(SETUPS - 1) / 2];
    for (key, from, to) in [
        ("setup_cpu_ns", 0, 4),
        ("topo_build_cpu_ns", 0, 1),
        ("perf_profiles_cpu_ns", 1, 2),
        ("job_generate_cpu_ns", 2, 3),
        ("sim_new_cpu_ns", 3, 4),
    ] {
        val(key, cpu[to] - cpu[from]);
    }

    let ids: Vec<JobId> = trace.iter().map(|j| j.id).collect();
    let (steal0, total0) = cpu_ticks();
    let cpu0 = process_cpu_ns();
    let t5 = spans.now();
    let (result, stats) = black_box(sim.run_with_stats(black_box(trace)));
    let t6 = spans.now();
    let cpu1 = process_cpu_ns();
    let (steal1, total1) = cpu_ticks();
    val(
        "host_steal_share",
        (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64,
    );
    val("run_cpu_ns", cpu1 - cpu0);
    spans.push("sim.run", None, t5, t6);
    val("peak_rss_kb", peak_rss_kb()?);

    let t7 = spans.now();
    let failed = check(&ids, &result);
    val("failed_jobs", failed);
    println!("digest\trun\t{:016x}", digest(&result));
    report_result(&result, cluster.n_gpus());
    report_stats(&stats);
    let t8 = spans.now();
    spans.push("bench.check", None, t7, t8);

    if traced {
        let mut samples = probe(workload, profiles, &mut spans);
        samples.sort_unstable();
        val("probe_calls", samples.len() as u64);
        val("probe_p50_ns", percentile(&samples, 50));
        val("probe_p99_ns", percentile(&samples, 99));
    }
    let threads = EvalParams::from_env();
    val("eval_threads", threads.threads as u64);
    val("shard_par", threads.shard_par as u64);
    val("shard_bound", threads.shard_bound as u64);
    val("decision_replay", threads.decision_replay as u64);
    val("jobs", ids.len() as u64);
    spans.print();
    Ok(())
}

/// Runs the reduced instance of `workload` through the shipped defaults
/// and through the reference oracle, checking both and printing both
/// outcome digests.
pub fn oracle(workload: &Workload, seed: u64) -> Result<(), String> {
    let reduced = workload.reduced();
    let cluster = reduced.build_cluster();
    let profiles = reduced.build_profiles();
    let (trace, script) = reduced.generate(seed)?;
    let ids: Vec<JobId> = trace.iter().map(|j| j.id).collect();
    let mut failed = 0;
    for (label, config) in [
        ("default", reduced.config(&script)),
        ("oracle", reduced.oracle_config(&script)),
    ] {
        let result =
            Simulation::new(Arc::clone(&cluster), Arc::clone(&profiles), config).run(trace.clone());
        failed += check(&ids, &result);
        println!("digest\t{label}\t{:016x}", digest(&result));
    }
    val("failed_jobs", failed);
    val("jobs", 2 * ids.len() as u64);
    Ok(())
}

/// Output checks; returns how many trace jobs failed them or ended
/// unplaceable, and prints one `fail` line per broken check.
fn check(ids: &[JobId], result: &SimResult) -> u64 {
    let mut seen: HashMap<JobId, u32> = ids.iter().map(|&id| (id, 0)).collect();
    let mut strangers = 0u64;
    let outcomes = result
        .records
        .iter()
        .map(|r| r.spec.id)
        .chain(result.unplaceable.iter().map(|j| j.id));
    for id in outcomes {
        match seen.get_mut(&id) {
            Some(n) => *n += 1,
            None => strangers += 1,
        }
    }
    let miscounted = seen.values().filter(|&&n| n != 1).count() as u64;
    if miscounted > 0 || strangers > 0 {
        fail(
            "conservation",
            format!("{miscounted} jobs not reported exactly once, {strangers} unknown"),
        );
    }
    let unplaceable = result.unplaceable.len() as u64;

    // No GPU is held by two timeline segments at once.
    let mut by_gpu: HashMap<GlobalGpuId, Vec<(f64, f64, JobId)>> = HashMap::new();
    for seg in &result.timeline {
        for &g in &seg.gpus {
            by_gpu
                .entry(g)
                .or_default()
                .push((seg.start_s, seg.end_s, seg.job));
        }
    }
    let mut double_booked: Vec<JobId> = Vec::new();
    for segs in by_gpu.values_mut() {
        segs.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        for w in segs.windows(2) {
            if w[1].0 < w[0].1 - 1e-9 {
                double_booked.extend([w[0].2, w[1].2]);
            }
        }
    }
    double_booked.sort_unstable();
    double_booked.dedup();
    if !double_booked.is_empty() {
        fail(
            "double_booking",
            format!("{} jobs share a GPU in time", double_booked.len()),
        );
    }
    miscounted + strangers + unplaceable + double_booked.len() as u64
}

/// FNV-1a offset basis: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the 64-bit FNV-1a hash `h`.
pub fn fnv1a(mut h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over each job's outcome, in job-id order: its GPUs, the bits of
/// its placement and finish times and its utility bits, then the
/// unplaceable ids and the SLO violation count.
fn digest(result: &SimResult) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |x: u64| h = fnv1a(h, x.to_le_bytes());
    let mut records: Vec<&JobRecord> = result.records.iter().collect();
    records.sort_by_key(|r| r.spec.id);
    for r in records {
        eat(r.spec.id.0);
        eat(r.gpus.len() as u64);
        for g in &r.gpus {
            eat((u64::from(g.machine.0) << 32) | u64::from(g.gpu.0));
        }
        eat(r.placed_at_s.to_bits());
        eat(r.finished_at_s.to_bits());
        eat(r.utility.to_bits());
    }
    let mut unplaceable: Vec<u64> = result.unplaceable.iter().map(|j| j.id.0).collect();
    unplaceable.sort_unstable();
    unplaceable.into_iter().for_each(&mut eat);
    eat(result.slo_violations as u64);
    h
}

/// The simulated metrics and the scheduler meters of one run.
fn report_result(result: &SimResult, total_gpus: usize) {
    let jobs = result.records.len() as f64;
    let met = result.records.iter().filter(|r| !r.slo_violated).count() as f64;
    let jct = result
        .records
        .iter()
        .map(|r| r.finished_at_s - r.spec.arrival_s)
        .sum::<f64>();
    val("completed", result.records.len() as u64);
    val("mean_qos_slowdown", result.mean_qos_slowdown());
    val("mean_jct_s", jct / jobs);
    val("mean_wait_s", result.mean_waiting_s());
    val("slo_attainment", met / jobs);
    val("slo_violations", result.slo_violations as u64);
    val("gpu_util", result.effective_gpu_utilization(total_gpus));
    val("decision_mean_s", result.mean_decision_s);
    val("events", result.events.len() as u64);
    val(
        "postponements",
        result
            .records
            .iter()
            .map(|r| u64::from(r.postponements))
            .sum::<u64>(),
    );
}

fn report_stats(s: &SimLoopStats) {
    let counts = [
        ("slowdown_evals", s.slowdown_evals),
        ("eval_cache_hits", s.eval_cache_hits),
        ("eval_cache_misses", s.eval_cache_misses),
        ("eval_cache_evictions", s.eval_cache_evictions),
        ("shard_admission_checked", s.shard_admission_checked),
        ("shard_admission_skipped", s.shard_admission_skipped),
        ("shard_bound_checked", s.shard_bound_checked),
        ("shard_bound_pruned", s.shard_bound_pruned),
        ("replay_hits", s.replay_hits),
        ("replay_shards_reeval", s.replay_shards_reeval),
        ("replay_full_fallbacks", s.replay_full_fallbacks),
        ("phase_decision_ns", s.phase_decision_ns),
        ("decision_p99_ns", s.decision_p99_ns),
        ("phase_refresh_ns", s.phase_refresh_ns),
        ("phase_heap_ns", s.phase_heap_ns),
        ("phase_drain_ns", s.phase_drain_ns),
    ];
    for (k, v) in counts {
        val(k, v);
    }
}

/// Times `drb_map` on an idle machine of every kind the workload's fleet
/// holds, for every width and graph kind its trace generates. Returns the
/// per-call nanoseconds.
fn probe(workload: &Workload, profiles: Arc<ProfileLibrary>, spans: &mut Spans) -> Vec<u64> {
    let kinds = workload.machine_kinds();
    let cluster = Arc::new(ClusterTopology::from_machines(
        kinds.into_iter().map(Arc::new).collect(),
    ));
    let state = ClusterState::new(Arc::clone(&cluster), profiles);
    let mut combos: Vec<(MachineId, JobSpec, JobGraph)> = Vec::new();
    for machine in cluster.machines() {
        let fits = state.free_gpus(machine).len();
        for &width in workload.widths().iter().filter(|&&w| w as usize <= fits) {
            let job = JobSpec::new(0, NnModel::AlexNet, BatchClass::Tiny, width);
            combos.push((machine, job.clone(), JobGraph::from_spec(&job)));
            if workload.has_pipelines() && width > 1 {
                let pipeline = JobGraph::pipeline(width as usize, BatchClass::Tiny.comm_weight());
                combos.push((machine, job, pipeline));
            }
        }
    }
    let reps = PROBE_CALLS.div_ceil(combos.len());
    let weights = UtilityWeights::default();
    let start = spans.now();
    let mut samples = Vec::with_capacity(reps * combos.len());
    for (machine, job, graph) in &combos {
        let free = state.free_gpus(*machine);
        let oracle = StateOracle::new(&state, *machine, job);
        for _ in 0..reps {
            let t = Instant::now();
            let mapped = drb_map(black_box(graph), &free, &oracle, weights);
            samples.push(t.elapsed().as_nanos() as u64);
            black_box(mapped.expect("an idle machine fits every probed width"));
        }
    }
    let end = spans.now();
    spans.push("map.probe", None, start, end);
    samples
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() * p).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Peak resident set of this process (`VmHWM`), kilobytes.
fn peak_rss_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// CPU time this process has used, all threads (ended ones included), in
/// nanoseconds. The kernel charges a process only for time it ran, not for
/// time the hypervisor gave its CPUs to other guests, so unlike wall time
/// this does not stretch when the host is oversubscribed.
fn process_cpu_ns() -> u64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Host-wide `(steal, total)` CPU ticks from `/proc/stat`. Steal is time the
/// hypervisor gave this machine's CPUs to other guests; a run during which
/// it rose was slowed by the host, not by the program.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}
