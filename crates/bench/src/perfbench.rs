//! `gts bench` — microbenchmarks of the placement engine's hot paths.
//!
//! Five groups, each entry timed by a small sampler of its own (one
//! warm-up call, then a fixed number of timed calls, summarised by
//! `summarize`) and serialized to `BENCH_sched.json` so the perf
//! trajectory is tracked in-repo:
//!
//! 1. **`drb_map`** — one Algorithm 2/3 mapping on an idle Minsky machine
//!    (2 and 4 GPUs) and an idle DGX-2 (8 GPUs). The sampler repeats the
//!    call, so these time the warm path: after the warm-up call the split
//!    memo answers every `physicalGraphBiPartition` (DESIGN.md §13);
//! 2. **`arrival`** — a full TOPO-AWARE `decide` on a 64-machine
//!    mostly-idle cluster, sequential reference vs the memoized engine,
//!    plus a 256-machine cold-engine vs warm cross-event-cache arrival
//!    (DESIGN.md §9);
//! 3. **`sim`** — a whole small fig10-style simulation under both paths;
//! 4. **`sim/large_*`** — a large-cluster simulation (256 machines, 2 048
//!    jobs, arrivals dense enough that many jobs run concurrently):
//!    recompute-everything reference event loop vs the production
//!    incremental loop, both with the cross-event placement cache. The
//!    hit rate of the production run is measured separately via
//!    `run_with_stats` and reported as `eval_cache_hit_rate`;
//! 5. **`sim/huge`, `decision/huge`** — the production path on a
//!    4 096-machine racked cluster under a sustained Poisson stream.

use crate::experiments::minsky_cluster;
use gts_core::prelude::*;
use gts_core::sched::state::on_machine;
use gts_core::sched::StateOracle;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One benchmark's timings, as `summarize` writes them (in `u64`: the
/// vendored serde caps integers there).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct BenchEntry {
    /// `group/name` label.
    pub label: String,
    /// Mean per-iteration time, nanoseconds.
    pub mean_ns: u64,
    /// Fastest iteration, nanoseconds.
    pub min_ns: u64,
    /// Median of the `samples` (the lower middle one for an even count),
    /// nanoseconds; 0 in reports written before medians existed.
    #[serde(default)]
    pub median_ns: u64,
    /// Timed iterations.
    pub samples: u64,
    /// 99th-percentile latency, nanoseconds, written only where at least
    /// ten samples lie beyond it (≥ 1 000 samples). Only the
    /// `decision/huge` entry qualifies: the worst per-decision tail across
    /// its sample runs — the quantity a mean hides once replay answers
    /// most retries in O(1) — when every run made ≥ 1 000 decisions.
    /// Sampled entries take far fewer samples.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub p99_ns: Option<u64>,
}

/// Samples a p99 needs: ten beyond it.
const P99_MIN_SAMPLES: usize = 1_000;

/// Summarises one sample set in nanoseconds: the mean (floored), the
/// minimum, the lower median and the count, plus the nearest-rank p99 when
/// there are at least 1 000 samples, ten of them beyond it.
fn summarize(label: &str, mut samples_ns: Vec<u64>) -> BenchEntry {
    assert!(!samples_ns.is_empty(), "{label}: no samples to summarize");
    samples_ns.sort_unstable();
    let n = samples_ns.len();
    let sum: u128 = samples_ns.iter().map(|&ns| u128::from(ns)).sum();
    BenchEntry {
        label: label.to_string(),
        mean_ns: (sum / n as u128) as u64,
        min_ns: samples_ns[0],
        median_ns: samples_ns[(n - 1) / 2],
        samples: n as u64,
        p99_ns: (n >= P99_MIN_SAMPLES).then(|| samples_ns[(99 * n).div_ceil(100) - 1]),
    }
}

/// Times `routine`: one warm-up call, then `samples` timed calls. Each
/// call's result is dropped after its clock stops.
fn sample<O>(label: &str, samples: usize, mut routine: impl FnMut() -> O) -> BenchEntry {
    black_box(routine());
    let times = (0..samples)
        .map(|_| {
            let started = Instant::now();
            let out = black_box(routine());
            let elapsed = started.elapsed();
            drop(out);
            elapsed.as_nanos().min(u128::from(u64::MAX)) as u64
        })
        .collect();
    let entry = summarize(label, times);
    println!(
        "bench {label}: mean {:?}, min {:?} over {} iterations",
        Duration::from_nanos(entry.mean_ns),
        Duration::from_nanos(entry.min_ns),
        entry.samples
    );
    entry
}

/// One machines-vs-decision-latency point of the production scheduler
/// (`gts bench scale-curve`): [`SCALE_RUNS`] runs of one trace at one
/// cluster size.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ScalePoint {
    /// Cluster size the point ran at.
    pub machines: u64,
    /// Jobs in the sustained Poisson stream.
    pub jobs: u64,
    /// Runs of the trace behind the point.
    #[serde(default)]
    pub runs: u64,
    /// Median over the runs of `SimResult::mean_decision_s`, in
    /// nanoseconds — the per-decision scheduler latency that must stay
    /// flat as the cluster grows.
    pub mean_decision_ns: u64,
    /// Minimum over the runs of the same mean, nanoseconds.
    #[serde(default)]
    pub mean_decision_min_ns: u64,
    /// Median end-to-end wall time of a run, milliseconds.
    pub wall_ms: u64,
    /// Median end-to-end wall time of a run, nanoseconds — the same
    /// measurement as `wall_ms` without the millisecond floor, so smoke
    /// points (sub-ms) and curve ratios stay meaningful.
    #[serde(default)]
    pub wall_ns: u64,
    /// Median over the runs of the wall time outside decisions per job,
    /// `(wall_ns − phase_decision_ns) / jobs`, nanoseconds — the event
    /// loop's per-job cost, which anchored progress keeps from growing
    /// with the cluster.
    #[serde(default)]
    pub loop_ns_per_job: u64,
    /// Jobs answered from the scheduler's decision memo instead of a
    /// decision in one run (DESIGN.md §14.2). The runs simulate one trace
    /// on one thread, so they agree.
    #[serde(default)]
    pub replay_hits: u64,
}

/// Runs per scale-curve point: enough for a median and a minimum.
pub const SCALE_RUNS: usize = 3;

/// Where one instrumented `sim/large_cached`-shaped run spends its wall
/// time, as fractions of the end-to-end wall (`gts bench`). `drain`
/// contains `decision` (decisions happen inside queue drains); the four
/// shares therefore do not sum to 1 — the remainder outside
/// refresh+heap+drain is event bookkeeping.
#[derive(Debug, Clone, Copy, Default, serde::Serialize, serde::Deserialize)]
pub struct PhaseShares {
    /// Placement decisions (subset of `drain`).
    pub decision: f64,
    /// Slowdown re-derivation after event batches.
    pub refresh: f64,
    /// Completion-heap maintenance.
    pub heap: f64,
    /// `run_scheduler` queue drains, decisions included.
    pub drain: f64,
}

/// The `BENCH_sched.json` payload. Deserializable so `gts bench
/// scale-curve` can merge fresh curve points into a committed report
/// without re-running the whole suite.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct BenchReport {
    /// The `GTS_EVAL_THREADS` value of the run (`1` = the sequential
    /// reference; the engine itself always runs on one thread).
    pub threads: u64,
    /// True when run with `--smoke` (tiny sample counts; numbers are only
    /// good for checking the harness, not for comparison).
    pub smoke: bool,
    /// Sequential-reference mean over engine mean for the 64-machine
    /// mostly-idle TOPO-AWARE arrival (the headline speedup).
    pub arrival_speedup: f64,
    /// Reference event-loop mean over incremental event-loop mean for the
    /// large-cluster simulation (`sim/large_reference` /
    /// `sim/large_cached`; both keep the placement cache).
    pub sim_loop_speedup: f64,
    /// Cold-engine mean over warm-cache mean for the 256-machine arrival
    /// (`arrival/topo256_cold` / `arrival/topo256_warm`) — what a
    /// steady-state arrival saves when its classes are already cached.
    pub warm_arrival_speedup: f64,
    /// hits / (hits + misses) of the placement cache over one full
    /// `sim/large_cached`-shaped run (0 when the cache saw no lookups).
    pub eval_cache_hit_rate: f64,
    /// Phase-time shares of one instrumented `sim/large_cached`-shaped
    /// run (all-zero in reports written before phase timing existed).
    #[serde(default)]
    pub phase_shares: PhaseShares,
    /// Machines-vs-decision-latency samples from `gts bench scale-curve`
    /// (empty until that subcommand merges them in).
    #[serde(default)]
    pub scale_curve: Vec<ScalePoint>,
    /// All benchmark timings.
    pub results: Vec<BenchEntry>,
}

impl BenchReport {
    /// Pretty JSON for `BENCH_sched.json`.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Parses a previously written `BENCH_sched.json`.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| format!("malformed bench report: {e}"))
    }

    /// Mean nanoseconds of the entry with this label, if present.
    pub fn mean_ns(&self, label: &str) -> Option<u64> {
        self.results
            .iter()
            .find(|e| e.label == label)
            .map(|e| e.mean_ns)
    }
}

/// A 64-machine Minsky cluster with a couple of tenants — the "mostly
/// idle" arrival scenario where equivalence-class memoization collapses
/// ~62 identical idle machines into one evaluation.
fn mostly_idle_state(n_machines: usize) -> ClusterState {
    let (cluster, profiles) = minsky_cluster(n_machines);
    let mut state = ClusterState::new(cluster, profiles);
    state.place(
        JobSpec::new(9001, NnModel::AlexNet, BatchClass::Small, 2),
        on_machine(MachineId(0), &[GpuId(0), GpuId(1)]),
        1.0,
    );
    state.place(
        JobSpec::new(9002, NnModel::GoogLeNet, BatchClass::Big, 1),
        on_machine(MachineId(1), &[GpuId(0)]),
        1.0,
    );
    state
}

/// A cluster of 16-GPU machines occupied with a varied tenant mix: two
/// 1-GPU jobs per machine whose profiles cycle independently, yielding
/// ~144 distinct machine classes (every 16th machine stays idle). An
/// arrival here defeats the per-arrival memoizer — almost every machine
/// is its own class — which is exactly the steady-state shape where the
/// cross-event cache pays: the cold engine runs one full DRB evaluation
/// over 14 free GPUs per class, a warm cache answers every class from
/// memory.
fn diverse_state(n_machines: usize) -> ClusterState {
    let machine = symmetric_machine("wide16", 4, 4, LinkProfile::nvlink_dual());
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 1));
    let cluster = Arc::new(ClusterTopology::homogeneous(machine, n_machines));
    let mut state = ClusterState::new(cluster, profiles);
    let models = [NnModel::AlexNet, NnModel::CaffeRef, NnModel::GoogLeNet];
    let batches = [
        BatchClass::Tiny,
        BatchClass::Small,
        BatchClass::Medium,
        BatchClass::Big,
    ];
    let mut id = 10_000u64;
    for m in 0..n_machines {
        if m % 16 == 0 {
            continue;
        }
        // The two tenant profiles cycle with coprime-ish periods so the
        // (tenant 0, tenant 1) pair walks all 12×12 combinations.
        let machine = MachineId(m as u32);
        for mix in [m % 12, (m / 12) % 12] {
            let spec = JobSpec::new(id, models[mix % 3], batches[mix / 3], 1);
            id += 1;
            let free = state.free_gpus(machine);
            state.place(spec, on_machine(machine, &free[..1]), 1.0);
        }
    }
    state
}

/// Runs the full microbench suite. `smoke` shrinks sample counts to keep
/// CI fast; the derived speedup is still computed (and asserted ≥ 1 by the
/// smoke test, not by this function).
pub fn run(smoke: bool) -> BenchReport {
    let samples = if smoke { 3 } else { 40 };
    let sim_samples = if smoke { 1 } else { 5 };
    let mut results = Vec::new();

    // 1. drb_map on an idle machine: 2- and 4-GPU jobs on a Minsky, an
    // 8-GPU job on a DGX-2, whose 16 GPUs make the widest split sweep.
    let (_, profiles) = minsky_cluster(1);
    for (name, machine, width) in [
        ("minsky", power8_minsky(), 2u32),
        ("minsky", power8_minsky(), 4),
        ("dgx2", gts_core::topo::dgx2(), 8),
    ] {
        let cluster = Arc::new(ClusterTopology::homogeneous(machine, 1));
        let idle = ClusterState::new(cluster, Arc::clone(&profiles));
        let job = JobSpec::new(0, NnModel::AlexNet, BatchClass::Tiny, width);
        let graph = JobGraph::from_spec(&job);
        let free = idle.free_gpus(MachineId(0));
        let oracle = StateOracle::new(&idle, MachineId(0), &job);
        results.push(sample(
            &format!("drb_map/{name}_{width}gpu"),
            samples,
            || drb_map(&graph, &free, &oracle, UtilityWeights::default()).unwrap(),
        ));
    }

    // 2. The headline: one TOPO-AWARE arrival on 64 mostly-idle machines.
    let state = mostly_idle_state(64);
    let job = JobSpec::new(0, NnModel::AlexNet, BatchClass::Tiny, 2).with_min_utility(0.5);
    let policy = Policy::new(PolicyKind::TopoAware);
    let engine = EvalParams::from_env();
    results.push(sample("arrival/topo64_sequential", samples, || {
        policy.decide_with(&state, &job, EvalParams::sequential(), None, None)
    }));
    results.push(sample("arrival/topo64_engine", samples, || {
        policy.decide_with(&state, &job, engine, None, None)
    }));

    // 2b. The cross-event cache at scale: a 4-GPU arrival on 256
    // diversely occupied 16-GPU machines (~144 distinct classes, so the
    // per-arrival memoizer barely helps). Cold pays one DRB evaluation
    // per class every time (its topology-only kernels stay warm across
    // iterations, DESIGN.md §13); warm consults a persistent cache already
    // holding every class this state produces (one priming decision), so
    // the decision reduces to class lookups and the selection over the
    // classes.
    let state = diverse_state(256);
    let wide_job = JobSpec::new(1, NnModel::AlexNet, BatchClass::Tiny, 4).with_min_utility(0.5);
    let warm_cache = EvalCache::with_capacity(4096);
    policy.decide_with(&state, &wide_job, engine, Some(&warm_cache), None);
    results.push(sample("arrival/topo256_cold", samples, || {
        policy.decide_with(&state, &wide_job, engine, None, None)
    }));
    results.push(sample("arrival/topo256_warm", samples, || {
        policy.decide_with(&state, &wide_job, engine, Some(&warm_cache), None)
    }));

    // 3. A whole small simulation (fig10-shaped) under both paths.
    let (cluster, profiles) = minsky_cluster(5);
    let trace = WorkloadGenerator::with_defaults(1001).generate(if smoke { 20 } else { 60 });
    for (label, eval) in [
        ("fig10_slice_sequential", EvalParams::sequential()),
        ("fig10_slice_engine", engine),
    ] {
        results.push(sample(&format!("sim/{label}"), sim_samples, || {
            let config = SimConfig::new(Policy::new(PolicyKind::TopoAwareP)).with_eval(eval);
            Simulation::new(Arc::clone(&cluster), Arc::clone(&profiles), config).run(trace.clone())
        }));
    }

    // 4. The large-cluster simulation: reference vs incremental event loop.
    // Arrivals at 90 jobs/min over machine-filling-sized requests keep a
    // large running set alive, so the reference loop's O(J²)-per-event
    // refresh dominates; smoke shrinks the cluster and trace but keeps the
    // overlap structure.
    let (large_machines, large_jobs) = if smoke { (16, 96) } else { (256, 2048) };
    let large_samples = if smoke { 1 } else { 3 };
    let gen = GeneratorConfig {
        arrival_rate_per_min: 90.0,
        iterations: 150,
        ..GeneratorConfig::default()
    };
    let (cluster, profiles) = minsky_cluster(large_machines);
    let trace = WorkloadGenerator::new(gen, 2002).generate(large_jobs);
    for (label, incremental) in [("large_reference", false), ("large_cached", true)] {
        results.push(sample(&format!("sim/{label}"), large_samples, || {
            let config = SimConfig::new(Policy::new(PolicyKind::TopoAware))
                .with_eval(engine)
                .with_incremental(incremental);
            Simulation::new(Arc::clone(&cluster), Arc::clone(&profiles), config).run(trace.clone())
        }));
    }

    // One instrumented production run for the hit rate and the phase-time
    // breakdown (not sampled; its own wall clock normalizes the shares).
    let stats_config = SimConfig::new(Policy::new(PolicyKind::TopoAware))
        .with_eval(engine)
        .with_phase_timing(true);
    let stats_started = Instant::now();
    let (_, loop_stats) = Simulation::new(cluster, profiles, stats_config).run_with_stats(trace);
    let stats_wall_ns = stats_started.elapsed().as_nanos().max(1) as f64;
    let phase_shares = PhaseShares {
        decision: loop_stats.phase_decision_ns as f64 / stats_wall_ns,
        refresh: loop_stats.phase_refresh_ns as f64 / stats_wall_ns,
        heap: loop_stats.phase_heap_ns as f64 / stats_wall_ns,
        drain: loop_stats.phase_drain_ns as f64 / stats_wall_ns,
    };
    let lookups = loop_stats.eval_cache_hits + loop_stats.eval_cache_misses;
    let eval_cache_hit_rate = if lookups == 0 {
        0.0
    } else {
        loop_stats.eval_cache_hits as f64 / lookups as f64
    };

    // 5. The datacenter-scale run: the production path on a racked
    // cluster under a sustained Poisson stream dense enough to keep the
    // cluster saturated. It runs HUGE_SAMPLES independent sims (distinct
    // Poisson seeds over the same regime) and the entries carry the
    // mean/min/median across them instead of trusting one run. The
    // `decision/huge` entry carries `SimResult::mean_decision_s` —
    // per-decision scheduler latency — rather than wall time.
    const HUGE_SAMPLES: usize = 5;
    let (huge_racks, huge_per_rack, huge_jobs) = if smoke {
        (8, 4, 256)
    } else {
        (128, 32, 50_000)
    };
    let huge_machines = huge_racks * huge_per_rack;
    let (huge_cluster, huge_profiles) = racked_minsky_cluster(huge_racks, huge_per_rack);
    let huge_traces: Vec<Vec<JobSpec>> = (0..HUGE_SAMPLES)
        .map(|i| {
            poisson_trace(
                huge_machines,
                (huge_jobs / HUGE_SAMPLES).max(1),
                3003 + i as u64,
            )
        })
        .collect();

    let runs: Vec<SimRun> = huge_traces
        .iter()
        .map(|t| production_sim(&huge_cluster, &huge_profiles, t))
        .collect();
    // Worst per-run p99: the decision-latency tail across every sampled
    // trace, not a tail of means — written only when every run's own p99
    // rests on enough decisions.
    let fewest = runs
        .iter()
        .map(|r| r.decisions)
        .min()
        .expect("at least one run");
    let dec_p99 = (fewest >= P99_MIN_SAMPLES as u64).then(|| {
        runs.iter()
            .map(|r| r.decision_p99_ns)
            .max()
            .expect("at least one run")
    });
    results.push(summarize(
        "sim/huge",
        runs.iter().map(|r| r.wall_ns).collect(),
    ));
    results.push(BenchEntry {
        p99_ns: dec_p99,
        ..summarize(
            "decision/huge",
            runs.iter().map(|r| r.mean_decision_ns).collect(),
        )
    });
    results.sort_by(|a, b| a.label.cmp(&b.label));

    let report = BenchReport {
        threads: engine.threads as u64,
        smoke,
        arrival_speedup: 0.0,
        sim_loop_speedup: 0.0,
        warm_arrival_speedup: 0.0,
        eval_cache_hit_rate,
        phase_shares,
        scale_curve: Vec::new(),
        results,
    };
    let ratio = |num: &str, den: &str| match (report.mean_ns(num), report.mean_ns(den)) {
        (Some(n), Some(d)) if d > 0 => n as f64 / d as f64,
        _ => 0.0,
    };
    let arrival_speedup = ratio("arrival/topo64_sequential", "arrival/topo64_engine");
    let sim_loop_speedup = ratio("sim/large_reference", "sim/large_cached");
    let warm_arrival_speedup = ratio("arrival/topo256_cold", "arrival/topo256_warm");
    BenchReport {
        arrival_speedup,
        sim_loop_speedup,
        warm_arrival_speedup,
        ..report
    }
}

/// A racked Minsky cluster (rack-major contiguous machine ids).
fn racked_minsky_cluster(
    n_racks: usize,
    per_rack: usize,
) -> (Arc<ClusterTopology>, Arc<ProfileLibrary>) {
    let machine = power8_minsky();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 42));
    let cluster = Arc::new(ClusterTopology::homogeneous_racked(
        machine, n_racks, per_rack,
    ));
    (cluster, profiles)
}

/// A sustained Poisson stream sized to keep `n_machines` saturated: the
/// 90 jobs/min that loads 256 machines in `sim/large_*` is scaled
/// linearly with cluster size.
fn poisson_trace(n_machines: usize, n_jobs: usize, seed: u64) -> Vec<JobSpec> {
    let gen = GeneratorConfig {
        arrival_rate_per_min: 90.0 * (n_machines as f64 / 256.0),
        iterations: 150,
        ..GeneratorConfig::default()
    };
    WorkloadGenerator::new(gen, seed).generate(n_jobs)
}

/// Timings and loop counters from one [`production_sim`] run.
struct SimRun {
    /// End-to-end wall time, nanoseconds.
    wall_ns: u64,
    /// `SimResult::mean_decision_s` in nanoseconds.
    mean_decision_ns: u64,
    /// `SimLoopStats::decision_p99_ns` — the per-decision tail.
    decision_p99_ns: u64,
    /// `SimLoopStats::decisions` — the samples behind that tail.
    decisions: u64,
    /// The run's event-loop counters (replay activity, phase splits).
    stats: SimLoopStats,
}

/// One full production TOPO-AWARE simulation, instrumented.
fn production_sim(
    cluster: &Arc<ClusterTopology>,
    profiles: &Arc<ProfileLibrary>,
    trace: &[JobSpec],
) -> SimRun {
    let config = SimConfig::new(Policy::new(PolicyKind::TopoAware));
    let started = Instant::now();
    let (result, stats) = Simulation::new(Arc::clone(cluster), Arc::clone(profiles), config)
        .run_with_stats(trace.to_vec());
    let wall_ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    SimRun {
        wall_ns,
        mean_decision_ns: (result.mean_decision_s * 1e9).round() as u64,
        decision_p99_ns: stats.decision_p99_ns,
        decisions: stats.decisions,
        stats,
    }
}

/// Runs the production scheduler across a sweep of cluster sizes and
/// returns one machines-vs-decision-latency point per size (`gts bench
/// scale-curve`). Rack size is fixed (32 machines full, 4 smoke) so the
/// rack count grows with the cluster; jobs and arrival rate scale linearly
/// so every size sees the same saturation regime. Each size runs its trace
/// [`SCALE_RUNS`] times, and the point records the median and the minimum
/// of the runs' mean decision times.
pub fn scale_curve(smoke: bool) -> Vec<ScalePoint> {
    let (sizes, per_rack, jobs_per_machine): (&[usize], usize, usize) = if smoke {
        (&[16, 32, 64], 4, 4)
    } else {
        (&[256, 1024, 4096, 10_240, 40_960], 32, 6)
    };
    sizes
        .iter()
        .map(|&machines| {
            let (cluster, profiles) = racked_minsky_cluster(machines / per_rack, per_rack);
            let jobs = machines * jobs_per_machine;
            let trace = poisson_trace(machines, jobs, 3003);
            let runs: Vec<SimRun> = (0..SCALE_RUNS)
                .map(|_| production_sim(&cluster, &profiles, &trace))
                .collect();
            let median = |pick: fn(&SimRun) -> u64| {
                let mut vals: Vec<u64> = runs.iter().map(pick).collect();
                vals.sort_unstable();
                vals[(vals.len() - 1) / 2]
            };
            let wall_ns = median(|r| r.wall_ns);
            // Flooring by `jobs` is monotone, so it commutes with the median.
            let loop_ns_per_job =
                median(|r| r.wall_ns.saturating_sub(r.stats.phase_decision_ns)) / jobs as u64;
            ScalePoint {
                machines: machines as u64,
                jobs: jobs as u64,
                runs: runs.len() as u64,
                mean_decision_ns: median(|r| r.mean_decision_ns),
                mean_decision_min_ns: runs.iter().map(|r| r.mean_decision_ns).min().unwrap_or(0),
                wall_ms: wall_ns / 1_000_000,
                wall_ns,
                loop_ns_per_job,
                replay_hits: runs[0].stats.replay_hits,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_suite_produces_all_entries_and_json() {
        let report = run(true);
        assert!(report.smoke);
        for label in [
            "drb_map/minsky_2gpu",
            "drb_map/minsky_4gpu",
            "drb_map/dgx2_8gpu",
            "arrival/topo64_sequential",
            "arrival/topo64_engine",
            "arrival/topo256_cold",
            "arrival/topo256_warm",
            "sim/fig10_slice_sequential",
            "sim/fig10_slice_engine",
            "sim/large_reference",
            "sim/large_cached",
            "sim/huge",
            "decision/huge",
        ] {
            assert!(
                report.mean_ns(label).is_some_and(|ns| ns > 0),
                "missing or empty bench {label}"
            );
        }
        // The huge entries must aggregate several independent runs, not
        // trust one sample.
        for label in ["sim/huge", "decision/huge"] {
            let entry = report.results.iter().find(|e| e.label == label).unwrap();
            assert!(
                entry.samples >= 5,
                "{label} ran {} samples, need ≥ 5",
                entry.samples
            );
            assert!(entry.min_ns <= entry.mean_ns, "{label} min above mean");
        }
        // Every entry carries a median; a p99 only with ten samples beyond
        // it, which no sampled entry takes, and which the smoke
        // suite's small huge runs do not reach either.
        for entry in &report.results {
            let label = &entry.label;
            assert!(entry.median_ns > 0, "{label} missing its median");
            assert!(entry.min_ns <= entry.median_ns, "{label} median below min");
            assert_eq!(
                entry.p99_ns, None,
                "{label} wrote a p99 from too few samples"
            );
        }
        // Phase shares come from the instrumented run: decisions happen
        // inside drains, and every share is a fraction of the wall.
        let ps = report.phase_shares;
        for (name, share) in [
            ("decision", ps.decision),
            ("refresh", ps.refresh),
            ("heap", ps.heap),
            ("drain", ps.drain),
        ] {
            assert!(
                (0.0..=1.0).contains(&share),
                "phase share {name} = {share} not a fraction"
            );
        }
        assert!(ps.drain > 0.0, "the instrumented run must meter its drains");
        assert!(ps.drain >= ps.decision, "decisions happen inside drains");
        assert!(report.arrival_speedup > 0.0);
        assert!(report.sim_loop_speedup > 0.0);
        assert!(report.warm_arrival_speedup > 0.0);
        assert!(
            (0.0..=1.0).contains(&report.eval_cache_hit_rate),
            "hit rate must be a ratio, got {}",
            report.eval_cache_hit_rate
        );
        let json = report.to_json();
        assert!(json.contains("arrival_speedup"));
        assert!(json.contains("sim_loop_speedup"));
        assert!(json.contains("warm_arrival_speedup"));
        assert!(json.contains("eval_cache_hit_rate"));
        assert!(json.contains("topo64_engine"));
        assert!(json.contains("large_reference"));
        assert!(json.contains("large_cached"));
        // The merge path `gts bench scale-curve` relies on: reports round-
        // trip through JSON, including one with curve points attached.
        let mut back = BenchReport::from_json(&json).expect("report round-trips");
        assert_eq!(back.results.len(), report.results.len());
        assert!(
            back.scale_curve.is_empty(),
            "run() leaves the curve to the subcommand"
        );
        back.scale_curve = vec![ScalePoint {
            machines: 16,
            jobs: 64,
            runs: SCALE_RUNS as u64,
            mean_decision_ns: 2,
            mean_decision_min_ns: 1,
            wall_ms: 1,
            wall_ns: 1_000_000,
            loop_ns_per_job: 500,
            replay_hits: 0,
        }];
        let merged = BenchReport::from_json(&back.to_json()).expect("merged round-trips");
        assert_eq!(merged.scale_curve.len(), 1);
        assert!(BenchReport::from_json("{broken").is_err());
    }

    /// The scale-curve sweep must produce one point per cluster size, each
    /// resting on several runs, with live latency numbers.
    #[test]
    fn scale_curve_smoke_produces_ordered_points() {
        let points = scale_curve(true);
        assert_eq!(points.len(), 3);
        for w in points.windows(2) {
            assert!(w[0].machines < w[1].machines, "sizes must ascend");
        }
        for p in &points {
            assert!(
                p.runs >= 3,
                "{} machines rest on {} run(s)",
                p.machines,
                p.runs
            );
            assert!(p.jobs > 0);
            assert!(
                p.mean_decision_ns > 0,
                "decision latency unmeasured at {}",
                p.machines
            );
            assert!(
                p.mean_decision_min_ns <= p.mean_decision_ns,
                "the minimum exceeds the median at {}",
                p.machines
            );
            assert!(p.wall_ns > 0, "wall unmeasured at {}", p.machines);
            assert_eq!(
                p.wall_ms,
                p.wall_ns / 1_000_000,
                "wall_ms must floor wall_ns"
            );
            assert!(
                p.loop_ns_per_job > 0,
                "loop time unmeasured at {}",
                p.machines
            );
            assert!(
                p.loop_ns_per_job * p.jobs <= p.wall_ns,
                "loop time exceeds the wall"
            );
        }
    }

    /// A curve point written before `loop_ns_per_job` existed still parses,
    /// reading 0 for it.
    #[test]
    fn old_scale_points_still_parse() {
        let old = r#"{"machines": 256, "jobs": 1536, "runs": 3, "mean_decision_ns": 3718,
            "mean_decision_min_ns": 3640, "wall_ms": 17, "wall_ns": 17947136,
            "replay_hits": 0, "replay_full_fallbacks": 0}"#;
        let point: ScalePoint = serde_json::from_str(old).expect("old point parses");
        assert_eq!(
            (point.machines, point.wall_ns, point.loop_ns_per_job),
            (256, 17947136, 0)
        );
    }

    /// Every entry's statistics on fixed samples: an odd and an even count
    /// (the lower middle sample is the median, the mean floors), and the
    /// p99 appearing at exactly 1 000 samples, ten of them beyond it.
    #[test]
    fn summarize_reads_fixed_samples() {
        let stats = |e: BenchEntry| (e.mean_ns, e.min_ns, e.median_ns, e.samples, e.p99_ns);
        assert_eq!(
            stats(summarize("odd", vec![30, 10, 20])),
            (20, 10, 20, 3, None)
        );
        assert_eq!(
            stats(summarize("even", vec![40, 10, 31, 20])),
            (25, 10, 20, 4, None)
        );
        assert_eq!(summarize("one short", (1..=999).collect()).p99_ns, None);
        let full = summarize("full", (1..=1000).rev().collect());
        assert_eq!(full.label, "full");
        assert_eq!(stats(full), (500, 1, 500, 1000, Some(990)));
    }

    #[test]
    fn engine_and_sequential_pick_the_same_placement() {
        let state = mostly_idle_state(64);
        let job = JobSpec::new(0, NnModel::AlexNet, BatchClass::Tiny, 2).with_min_utility(0.5);
        let policy = Policy::new(PolicyKind::TopoAware);
        let seq = policy.decide_with(&state, &job, EvalParams::sequential(), None, None);
        let eng = policy.decide_with(&state, &job, EvalParams::parallel(4), None, None);
        assert_eq!(seq, eng);
    }
}
