//! The repository benchmark: three simulator workloads run through the
//! public `gts-core` API, end-to-end metrics, output checks, and a traced
//! run for the per-layer split.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path simbench/Cargo.toml -- \
//!     --workload <dc_steady|rack_overload|hetero_flat> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation checks a reduced instance of the workload against the
//! reference oracle, then repeats timed runs of the full workload for
//! `--seconds`, each in a fresh child process with every `GTS_*` variable
//! removed (the shipped defaults). The first six runs make two runs each of
//! three traces, to check that a rerun reproduces its outcome; every later
//! run draws a fresh trace from the seed. `--trace 1` adds one run with the
//! simulator's phase meters and a `drb_map` probe. The last line of standard
//! output is one JSON object: `correct`, `attempted` and `failed` jobs, and
//! the end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics. Spans,
//! counters and the host record go to
//! `simbench/out/<workload>-seed<n>-trace<t>.json`.

mod child;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workload::{Workload, NAMES};

const USAGE: &str = "usage: simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Trace `k` of `--seed s` is generated from seed `s × TRACE_STRIDE + k`.
/// Timed runs 0–5 use traces 0, 0, 1, 1, 2, 2, so that each rerun is
/// checked to reproduce its outcome; every later run `i` draws a fresh trace
/// `i − 3`. The cost of a trace varies by about a tenth between draws of the
/// job mix, so an invocation's medians rest on as many draws as it has time
/// for.
const TRACE_STRIDE: u64 = 1 << 20;

/// Fewest timed runs per invocation, however long they take: the first
/// three traces, twice each.
const MIN_RUNS: usize = 6;

/// Fewest decisions a run may make: ten samples must lie beyond the p99.
const MIN_DECISIONS: f64 = 1000.0;

/// Counters whose repeatability is recorded: a claim may rest on a count
/// only if it repeats exactly across identical runs.
const COUNTS: [&str; 15] = [
    "completed",
    "events",
    "postponements",
    "slowdown_evals",
    "eval_cache_hits",
    "eval_cache_misses",
    "eval_cache_evictions",
    "shard_admission_checked",
    "shard_admission_skipped",
    "shard_bound_checked",
    "shard_bound_pruned",
    "replay_hits",
    "replay_shards_reeval",
    "replay_full_fallbacks",
    "slo_violations",
];

/// Simulated outcomes: deterministic at a fixed seed, so every run must
/// reproduce them bit for bit.
const SIMULATED: [&str; 6] = [
    "mean_qos_slowdown",
    "mean_jct_s",
    "slo_attainment",
    "gpu_util",
    "mean_wait_s",
    "slo_violations",
];

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag, value);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let name = get("--workload")?;
    let workload = Workload::by_name(name)
        .ok_or_else(|| format!("unknown workload {name}; one of {}", NAMES.join(", ")))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--child") {
        return child_main(&args[1..]);
    }
    match parse(&args) {
        Ok(opts) => bench(&opts),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// `--child run <workload> <trace seed> <0|1>` or
/// `--child oracle <workload> <trace seed>`.
fn child_main(args: &[String]) -> ExitCode {
    let workload = args.get(1).and_then(|n| Workload::by_name(n));
    let seed = args.get(2).and_then(|s| s.parse().ok());
    let outcome = match (args.first().map(String::as_str), workload, seed) {
        (Some("run"), Some(w), Some(seed)) => {
            child::run(&w, seed, args.get(3).is_some_and(|t| t == "1"))
        }
        (Some("oracle"), Some(w), Some(seed)) => child::oracle(&w, seed),
        _ => Err(format!("bad child arguments {args:?}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("child error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One span as a child printed it.
struct SpanRec {
    id: usize,
    parent: Option<usize>,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

/// Everything one child process printed.
struct ChildOut {
    kind: &'static str,
    trace_seed: u64,
    vals: BTreeMap<String, f64>,
    digests: BTreeMap<String, String>,
    spans: Vec<SpanRec>,
    fails: Vec<String>,
    /// Set when the child did not exit cleanly: its jobs all count as failed.
    crashed: Option<String>,
    /// Host wall of the whole child process, seconds.
    wall_s: f64,
}

impl ChildOut {
    fn val(&self, key: &str) -> f64 {
        self.vals.get(key).copied().unwrap_or(f64::NAN)
    }

    fn span_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map_or(f64::NAN, |s| (s.end_ns - s.start_ns) as f64 / 1e9)
    }
}

/// Runs this executable as a child in a fresh process, with every `GTS_*`
/// variable removed so it measures the shipped defaults, and waits for it.
/// `kind` is `oracle`, `timed` or `traced`.
fn spawn(kind: &'static str, workload: &str, trace_seed: u64) -> ChildOut {
    let args = match kind {
        "oracle" => vec![
            "oracle".to_string(),
            workload.to_string(),
            trace_seed.to_string(),
        ],
        _ => vec![
            "run".to_string(),
            workload.to_string(),
            trace_seed.to_string(),
            u8::from(kind == "traced").to_string(),
        ],
    };
    let mut out = ChildOut {
        kind,
        trace_seed,
        vals: BTreeMap::new(),
        digests: BTreeMap::new(),
        spans: Vec::new(),
        fails: Vec::new(),
        crashed: None,
        wall_s: 0.0,
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            out.crashed = Some(format!("cannot locate the benchmark executable: {e}"));
            return out;
        }
    };
    let mut cmd = Command::new(exe);
    cmd.arg("--child")
        .args(&args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("GTS_") {
            cmd.env_remove(key);
        }
    }
    let started = Instant::now();
    let output = cmd.output();
    out.wall_s = started.elapsed().as_secs_f64();
    let output = match output {
        Ok(o) => o,
        Err(e) => {
            out.crashed = Some(format!("cannot start child: {e}"));
            return out;
        }
    };
    if !output.status.success() {
        out.crashed = Some(format!("child {args:?} exited with {}", output.status));
    }
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let f: Vec<&str> = line.split('\t').collect();
        match f.as_slice() {
            ["val", key, v] => {
                out.vals
                    .insert(key.to_string(), v.parse().unwrap_or(f64::NAN));
            }
            ["digest", label, hex] => {
                out.digests.insert(label.to_string(), hex.to_string());
            }
            ["fail", check, detail] => out.fails.push(format!("{check}: {detail}")),
            ["span", id, parent, name, start, end] => out.spans.push(SpanRec {
                id: id.parse().unwrap_or(0),
                parent: parent.parse().ok(),
                name: name.to_string(),
                start_ns: start.parse().unwrap_or(0),
                end_ns: end.parse().unwrap_or(0),
            }),
            _ => out.fails.push(format!("unparsable child line {line:?}")),
        }
    }
    out
}

/// Python's `statistics.median`: the mean of the middle two for an even
/// count.
fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was attempted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn bench(opts: &Options) -> ExitCode {
    let w = &opts.workload;
    let trace_seed = |run: usize| {
        let k = if run < MIN_RUNS {
            run / 2
        } else {
            run - MIN_RUNS / 2
        };
        opts.seed.wrapping_mul(TRACE_STRIDE).wrapping_add(k as u64)
    };

    let oracle = spawn("oracle", w.name, trace_seed(0));
    // The traced run goes right before the two timed runs of its trace,
    // so that the tracing overhead compares runs made close together.
    let traced = opts.trace.then(|| spawn("traced", w.name, trace_seed(0)));
    let mut runs: Vec<ChildOut> = Vec::new();
    let window = Instant::now();
    loop {
        let mean_wall = runs.iter().map(|r| r.wall_s).sum::<f64>() / runs.len().max(1) as f64;
        if runs.len() >= MIN_RUNS && window.elapsed().as_secs_f64() + mean_wall > opts.seconds {
            break;
        }
        runs.push(spawn("timed", w.name, trace_seed(runs.len())));
    }

    // Failure accounting: a job fails when it ends unplaceable or fails an
    // output check; a child that crashed fails all of its jobs.
    let mut fails: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let reduced_jobs = 2 * w.reduced().jobs as u64;
    for c in std::iter::once(&oracle).chain(&runs).chain(traced.as_ref()) {
        let jobs = if c.kind == "oracle" {
            reduced_jobs
        } else {
            w.jobs as u64
        };
        attempted += jobs;
        match &c.crashed {
            Some(why) => {
                fails.push(why.clone());
                failed += jobs;
            }
            None => failed += c.val("failed_jobs") as u64,
        }
        fails.extend(c.fails.iter().cloned());
    }
    if oracle.crashed.is_none() && oracle.digests.get("default") != oracle.digests.get("oracle") {
        fails.push("reduced instance: default path and reference oracle disagree".into());
        failed += reduced_jobs / 2;
    }
    // Every run must reproduce the outcome of the first run of its trace,
    // and make enough decisions for ten samples to lie beyond the p99.
    let measured: Vec<&ChildOut> = runs
        .iter()
        .chain(traced.as_ref())
        .filter(|c| c.crashed.is_none())
        .collect();
    for c in &measured {
        if decisions(c) < MIN_DECISIONS {
            fails.push(format!(
                "{} run made {} decisions, fewer than {MIN_DECISIONS}",
                c.kind,
                decisions(c)
            ));
        }
    }
    for c in &measured {
        let first = first_of_trace(&measured, c.trace_seed);
        if c.digests.get("run") != first.digests.get("run") {
            fails.push(format!(
                "{} run outcome differs from the first run of its trace",
                c.kind
            ));
            failed += w.jobs as u64;
        }
        for key in SIMULATED {
            if c.val(key).to_bits() != first.val(key).to_bits() {
                fails.push(format!("{key} differs between runs of one trace"));
            }
        }
    }

    let timed: Vec<&ChildOut> = runs.iter().filter(|c| c.crashed.is_none()).collect();
    let (metrics, printed) = match &traced {
        None => end_to_end(&timed),
        Some(t) => (per_layer(&timed, t, &measured, &mut fails), Vec::new()),
    };
    for m in &metrics {
        if !m.value.is_finite() {
            fails.push(format!("metric {} is not a finite number", m.name));
        }
    }
    let correct = fails.is_empty();

    let host = host_record(measured.first().copied());
    let record = trace_record(
        opts,
        &host,
        &oracle,
        &runs,
        traced.as_ref(),
        &measured,
        &fails,
    );
    if let Err(e) = write_record(opts, &record) {
        eprintln!("warning: could not write the trace record: {e}");
    }

    println!(
        "simbench {} seed={} trace={} runs={} {}",
        w.name,
        opts.seed,
        u8::from(opts.trace),
        runs.len(),
        host.iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for f in &fails {
        println!("  FAILED CHECK: {f}");
    }
    for m in &metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for m in &printed {
        println!(
            "  {:<34} {:>16.6} {} (printed only)",
            m.name, m.value, m.unit
        );
    }
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    ExitCode::SUCCESS
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The end-to-end metrics: medians over the timed runs for host metrics,
/// the mean of the (run-invariant) simulated outcome over the three traces
/// of the first `MIN_RUNS` timed runs for the rest, so that those depend on
/// the seed alone and not on how many runs the host had time for. Host
/// times are CPU times: wall times stretch with the hypervisor's steal,
/// which on a shared host moves them by tens of percent within minutes.
/// The second list holds figures that are printed but not part of the
/// result: the wall-clock throughput and the scheduler's own decision
/// meters (wall clock, so they stretch with steal), and the wait and
/// violation counts, which are exactly 0 on some workloads, so the JCT and
/// SLO attainment stand in.
fn end_to_end(timed: &[&ChildOut]) -> (Vec<Metric>, Vec<Metric>) {
    let med = |f: &dyn Fn(&ChildOut) -> f64| median(timed.iter().map(|c| f(c)));
    let firsts: Vec<&ChildOut> = timed[..MIN_RUNS.min(timed.len())]
        .iter()
        .copied()
        .filter(|&c| std::ptr::eq(c, first_of_trace(timed, c.trace_seed)))
        .collect();
    let sim = |key: &str| firsts.iter().map(|c| c.val(key)).sum::<f64>() / firsts.len() as f64;
    let result = vec![
        metric(
            "jobs_per_cpu_s",
            med(&|c| c.val("completed") / (c.val("run_cpu_ns") / 1e9)),
            "jobs/cpu_s",
        ),
        metric("setup_s", med(&|c| c.val("setup_cpu_ns") / 1e9), "s"),
        metric("peak_rss_mb", med(&|c| c.val("peak_rss_kb") / 1024.0), "MB"),
        metric("mean_qos_slowdown", sim("mean_qos_slowdown"), "ratio"),
        metric("mean_jct_s", sim("mean_jct_s"), "sim_s"),
        metric("slo_attainment", sim("slo_attainment"), "fraction"),
        metric("gpu_util", sim("gpu_util"), "fraction"),
    ];
    let printed = vec![
        metric(
            "jobs_per_s",
            med(&|c| c.val("completed") / c.span_s("sim.run")),
            "jobs/s",
        ),
        metric(
            "decision_mean_us",
            med(&|c| c.val("decision_mean_s") * 1e6),
            "us",
        ),
        metric(
            "decision_p99_us",
            med(&|c| c.val("decision_p99_ns") / 1e3),
            "us",
        ),
        metric("mean_wait_s", sim("mean_wait_s"), "sim_s"),
        metric("slo_violations", sim("slo_violations"), "count"),
    ];
    (result, printed)
}

/// The per-layer split of the traced run `t`, with set-up CPU times from the
/// timed run whose set-up time is the (lower) median.
fn per_layer(
    timed: &[&ChildOut],
    t: &ChildOut,
    measured: &[&ChildOut],
    fails: &mut Vec<String>,
) -> Vec<Metric> {
    let mut by_setup: Vec<&ChildOut> = timed.to_vec();
    by_setup.sort_by(|a, b| a.val("setup_cpu_ns").total_cmp(&b.val("setup_cpu_ns")));
    let setup = by_setup
        .get(by_setup.len().saturating_sub(1) / 2)
        .copied()
        .unwrap_or(t);

    let ns = |key: &str| t.val(key) / 1e9;
    let run_s = t.span_s("sim.run");
    let decide = ns("phase_decision_ns");
    let drain_self = ns("phase_drain_ns") - decide;
    let refresh = ns("phase_refresh_ns");
    let heap = ns("phase_heap_ns");
    let loop_self = run_s - ns("phase_drain_ns") - refresh - heap;
    for (part, v) in [
        ("sched.drain_self_s", drain_self),
        ("sim.loop_self_s", loop_self),
    ] {
        if v < 0.0 {
            fails.push(format!("run split part {part} is negative ({v})"));
        }
    }
    let untraced = median(
        timed
            .iter()
            .filter(|c| c.trace_seed == t.trace_seed)
            .map(|c| c.span_s("sim.run")),
    );
    let decisions = decisions(t);
    let inexact = COUNTS.iter().filter(|&&k| !is_exact(measured, k)).count();
    let count = |name, key| metric(name, t.val(key), "count");
    let share = |name, num, den| metric(name, ratio(t.val(num), t.val(den)), "ratio");
    let cache_lookups = t.val("eval_cache_hits") + t.val("eval_cache_misses");
    vec![
        metric("topo.build_s", setup.val("topo_build_cpu_ns") / 1e9, "s"),
        metric(
            "perf.profiles_s",
            setup.val("perf_profiles_cpu_ns") / 1e9,
            "s",
        ),
        metric(
            "job.generate_s",
            setup.val("job_generate_cpu_ns") / 1e9,
            "s",
        ),
        metric("sim.new_s", setup.val("sim_new_cpu_ns") / 1e9, "s"),
        metric("sim.run_s", run_s, "s"),
        metric("sched.decide_s", decide, "s"),
        metric("sched.drain_self_s", drain_self, "s"),
        metric("sim.refresh_s", refresh, "s"),
        metric("sim.heap_s", heap, "s"),
        metric("sim.loop_self_s", loop_self, "s"),
        metric("bench.trace_overhead", run_s / untraced - 1.0, "ratio"),
        metric("bench.inexact_counts", inexact as f64, "count"),
        metric(
            "sched.decision_mean_us",
            t.val("decision_mean_s") * 1e6,
            "us",
        ),
        metric(
            "sched.decision_p99_us",
            t.val("decision_p99_ns") / 1e3,
            "us",
        ),
        metric("sched.decisions", decisions, "count"),
        metric(
            "sched.decisions_per_job",
            decisions / t.val("jobs"),
            "ratio",
        ),
        count("sched.postponements", "postponements"),
        count("sched.slo_violations", "slo_violations"),
        metric("sim.mean_wait_s", t.val("mean_wait_s"), "sim_s"),
        count("sched.eval_cache_hits", "eval_cache_hits"),
        count("sched.eval_cache_misses", "eval_cache_misses"),
        metric(
            "sched.eval_cache_hit_ratio",
            ratio(t.val("eval_cache_hits"), cache_lookups),
            "ratio",
        ),
        count("sched.eval_cache_evictions", "eval_cache_evictions"),
        count("sched.shard_admission_checked", "shard_admission_checked"),
        share(
            "sched.shard_admission_skip_ratio",
            "shard_admission_skipped",
            "shard_admission_checked",
        ),
        count("sched.shard_bound_checked", "shard_bound_checked"),
        share(
            "sched.shard_bound_prune_ratio",
            "shard_bound_pruned",
            "shard_bound_checked",
        ),
        count("sched.replay_hits", "replay_hits"),
        count("sched.replay_shards_reeval", "replay_shards_reeval"),
        count("sched.replay_full_fallbacks", "replay_full_fallbacks"),
        count("sim.events", "events"),
        count("sim.slowdown_evals", "slowdown_evals"),
        metric("map.drb_map_p50_us", t.val("probe_p50_ns") / 1e3, "us"),
        metric("map.drb_map_p99_us", t.val("probe_p99_ns") / 1e3, "us"),
        count("map.drb_map_calls", "probe_calls"),
    ]
}

/// Decisions a run made. `SimResult` publishes the decision mean and the
/// metered total, not the count, so the count is derived (to within the
/// mean's 1 ns rounding).
fn decisions(c: &ChildOut) -> f64 {
    (c.val("phase_decision_ns") / (c.val("decision_mean_s") * 1e9)).round()
}

/// The first of `children` that ran trace `trace_seed`.
fn first_of_trace<'a>(children: &[&'a ChildOut], trace_seed: u64) -> &'a ChildOut {
    children
        .iter()
        .find(|c| c.trace_seed == trace_seed)
        .expect("the child asked about is among the children")
}

/// Whether counter `key` read the same in every measured run of a trace.
fn is_exact(measured: &[&ChildOut], key: &str) -> bool {
    measured
        .iter()
        .all(|c| c.val(key).to_bits() == first_of_trace(measured, c.trace_seed).val(key).to_bits())
}

/// `nproc`, the engine settings the children ran with, and the revision.
fn host_record(child: Option<&ChildOut>) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let knob = |key: &str| child.map_or("?".to_string(), |c| format!("{}", c.val(key)));
    vec![
        ("nproc", nproc.to_string()),
        ("eval_threads", knob("eval_threads")),
        ("shard_par", knob("shard_par")),
        ("shard_bound", knob("shard_bound")),
        ("decision_replay", knob("decision_replay")),
        ("revision", revision(Path::new("."))),
    ]
}

/// The git revision of the checkout at `root`, or, outside a git checkout,
/// an FNV-1a fingerprint of every file under `crates/`.
fn revision(root: &Path) -> String {
    if root.join(".git").exists() {
        let git = Command::new("git")
            .args(["rev-parse", "HEAD"])
            .current_dir(root)
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output();
        if let Ok(out) = git {
            if out.status.success() {
                return String::from_utf8_lossy(&out.stdout).trim().to_string();
            }
        }
    }
    let mut files = Vec::new();
    let mut dirs = vec![root.join("crates")];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    let h = files.iter().fold(child::FNV_OFFSET, |h, path| {
        let name = path.strip_prefix(root).unwrap_or(path).to_string_lossy();
        let h = child::fnv1a(h, name.bytes());
        child::fnv1a(h, std::fs::read(path).unwrap_or_default())
    });
    format!("source-fnv-{h:016x}")
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The record written beside the result: host, every child's spans and
/// values, and which counters repeated exactly.
fn trace_record(
    opts: &Options,
    host: &[(&'static str, String)],
    oracle: &ChildOut,
    runs: &[ChildOut],
    traced: Option<&ChildOut>,
    measured: &[&ChildOut],
    fails: &[String],
) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {},\n\"host\": {{",
        json_str(opts.workload.name),
        opts.seed,
        json_num(opts.seconds),
        opts.trace
    );
    let host: Vec<String> = host
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let _ = write!(s, "{}}},\n\"failed_checks\": [", host.join(", "));
    let fails: Vec<String> = fails.iter().map(|f| json_str(f)).collect();
    let _ = write!(s, "{}],\n\"counts_exact\": {{", fails.join(", "));
    let exact: Vec<String> = COUNTS
        .iter()
        .map(|k| format!("{}: {}", json_str(k), is_exact(measured, k)))
        .collect();
    let _ = write!(s, "{}}},\n\"children\": [\n", exact.join(", "));
    let children: Vec<&ChildOut> = std::iter::once(oracle).chain(runs).chain(traced).collect();
    for (i, c) in children.iter().enumerate() {
        let vals: Vec<String> = c
            .vals
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
            .collect();
        let digests: Vec<String> = c
            .digests
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        let spans: Vec<String> = c
            .spans
            .iter()
            .map(|sp| {
                format!(
                    "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                    sp.id,
                    sp.parent.map_or("null".into(), |p| p.to_string()),
                    json_str(&sp.name),
                    sp.start_ns,
                    sp.end_ns
                )
            })
            .collect();
        let _ = write!(
            s,
            "{{\"child\": {i}, \"kind\": {}, \"trace_seed\": {}, \"wall_s\": {}, \"crashed\": {}, \"values\": {{{}}}, \"digests\": {{{}}},\n \"spans\": [{}]}}{}\n",
            json_str(c.kind),
            c.trace_seed,
            json_num(c.wall_s),
            c.crashed.as_deref().map_or("null".into(), json_str),
            vals.join(", "),
            digests.join(", "),
            spans.join(",\n  "),
            if i + 1 < children.len() { "," } else { "" }
        );
    }
    s.push_str("]\n}\n");
    s
}

/// Writes the record under `simbench/out/` of the checkout the benchmark
/// runs from (its working directory), and nowhere else.
fn write_record(opts: &Options, record: &str) -> std::io::Result<()> {
    let bench = Path::new("simbench");
    if !bench.join("Cargo.toml").is_file() {
        return Err(std::io::Error::other("not run from the root of a checkout"));
    }
    let dir = bench.join("out");
    std::fs::create_dir_all(&dir)?;
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        opts.workload.name,
        opts.seed,
        u8::from(opts.trace)
    ));
    std::fs::write(file, record)
}
