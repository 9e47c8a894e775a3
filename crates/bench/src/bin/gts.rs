//! `gts` — the Appendix A.3 entry point: run the system from configuration
//! files, in simulation or prototype mode.
//!
//! ```text
//! gts --sample-config > sys-config.json   # emit an editable sample
//! gts sys-config.json                     # execute it
//! gts sys-config.json --json              # machine-readable reports
//! gts trace --seed 7 --policy topo-aware-p
//!                                         # replay a seeded workload and
//!                                         # print every placement decision
//! gts bench [--smoke] [--out BENCH_sched.json]
//!                                         # microbench the placement
//!                                         # engine and emit JSON
//! gts bench scale-curve [--smoke] [--out BENCH_sched.json]
//!                                         # sweep cluster sizes under the
//!                                         # production scheduler and merge
//!                                         # machines-vs-decision-latency
//!                                         # points into the report
//! ```

use gts_bench::appendix::{AlgoConfig, SysConfig};
use gts_bench::table::f;
use gts_bench::TextTable;
use gts_core::prelude::*;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--sample-config") {
        println!("{}", SysConfig::sample().to_json());
        return ExitCode::SUCCESS;
    }
    if args.first().map(String::as_str) == Some("trace") {
        return run_trace(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("bench") {
        return run_bench(&args[1..]);
    }
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!("usage: gts <sys-config.json> [--json] | gts --sample-config");
        return ExitCode::FAILURE;
    };
    let config = match SysConfig::load(Path::new(path)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let reports = match config.run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    if args.iter().any(|a| a == "--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&reports).expect("reports serialize")
        );
        return ExitCode::SUCCESS;
    }

    let mut t = TextTable::new(
        format!(
            "gts — {} mode, {} machine(s)",
            if config.simulation {
                "simulation"
            } else {
                "prototype"
            },
            config.machines
        ),
        &[
            "policy",
            "completed",
            "makespan (s)",
            "mean wait (s)",
            "mean QoS",
            "SLO viol.",
            "GPU util.",
        ],
    );
    for r in &reports {
        t.row(vec![
            r.policy.to_string(),
            r.completed.to_string(),
            f(r.makespan_s, 1),
            f(r.mean_wait_s, 1),
            f(r.mean_qos_slowdown, 3),
            r.slo_violations.to_string(),
            format!("{:.1}%", r.gpu_utilization * 100.0),
        ]);
    }
    print!("{t}");
    ExitCode::SUCCESS
}

/// `gts bench`: run the placement-engine microbench suite and write
/// `BENCH_sched.json`. `--smoke` shrinks sample counts for CI.
fn run_bench(args: &[String]) -> ExitCode {
    if args.first().map(String::as_str) == Some("scale-curve") {
        return run_scale_curve(&args[1..]);
    }
    let mut smoke = false;
    let mut out = "BENCH_sched.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => match it.next() {
                Some(v) => out = v.clone(),
                None => {
                    eprintln!("--out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown argument '{other}'");
                eprintln!("usage: gts bench [scale-curve] [--smoke] [--out BENCH_sched.json]");
                return ExitCode::FAILURE;
            }
        }
    }
    let report = gts_bench::perfbench::run(smoke);
    println!(
        "arrival/topo64 speedup (sequential/engine, {} thread(s)): {:.2}x{}",
        report.threads,
        report.arrival_speedup,
        if smoke {
            "  [smoke — not comparable]"
        } else {
            ""
        },
    );
    println!(
        "sim/large event-loop speedup (reference/incremental): {:.2}x, \
         placement-cache hit rate {:.3}{}",
        report.sim_loop_speedup,
        report.eval_cache_hit_rate,
        if smoke {
            "  [smoke — not comparable]"
        } else {
            ""
        },
    );
    println!(
        "arrival/topo256 warm-cache speedup (cold/warm): {:.2}x{}",
        report.warm_arrival_speedup,
        if smoke {
            "  [smoke — not comparable]"
        } else {
            ""
        },
    );
    println!(
        "phase shares of instrumented sim/large_cached run: decision {:.1}%, \
         refresh {:.1}%, heap {:.1}%, drain {:.1}%",
        report.phase_shares.decision * 100.0,
        report.phase_shares.refresh * 100.0,
        report.phase_shares.heap * 100.0,
        report.phase_shares.drain * 100.0,
    );
    if let Err(e) = std::fs::write(&out, report.to_json() + "\n") {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");
    ExitCode::SUCCESS
}

/// `gts bench scale-curve`: sweep cluster sizes under the production
/// scheduler and merge the machines-vs-decision-latency points into an
/// existing `BENCH_sched.json` (which must have been written by
/// `gts bench` first — the rest of the report is preserved).
fn run_scale_curve(args: &[String]) -> ExitCode {
    let mut smoke = false;
    let mut out = "BENCH_sched.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => match it.next() {
                Some(v) => out = v.clone(),
                None => {
                    eprintln!("--out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown argument '{other}'");
                eprintln!("usage: gts bench scale-curve [--smoke] [--out BENCH_sched.json]");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut report = match std::fs::read_to_string(&out)
        .map_err(|e| format!("cannot read {out}: {e} (run `gts bench` first)"))
        .and_then(|json| gts_bench::perfbench::BenchReport::from_json(&json))
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    report.scale_curve = gts_bench::perfbench::scale_curve(smoke);
    for p in &report.scale_curve {
        println!(
            "{:>6} machines: mean decision {:>9.1} µs median, {:>9.1} µs min over {} run(s) \
             of {} jobs ({:.1} ms median wall, {:.1} µs loop per job, {} replay hit(s)){}",
            p.machines,
            p.mean_decision_ns as f64 / 1_000.0,
            p.mean_decision_min_ns as f64 / 1_000.0,
            p.runs,
            p.jobs,
            p.wall_ns as f64 / 1e6,
            p.loop_ns_per_job as f64 / 1_000.0,
            p.replay_hits,
            if smoke {
                "  [smoke — not comparable]"
            } else {
                ""
            },
        );
    }
    if let Err(e) = std::fs::write(&out, report.to_json() + "\n") {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");
    ExitCode::SUCCESS
}

/// `gts trace`: replay a seeded workload with decision tracing on and
/// pretty-print every Algorithm 1 decision with its Eq. 2 breakdown.
fn run_trace(args: &[String]) -> ExitCode {
    let mut seed = 42u64;
    let mut jobs = 40usize;
    let mut machines = 4usize;
    let mut policy = "topo-aware-p".to_string();
    let mut json = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let parsed = match arg.as_str() {
            "--seed" => value("--seed").and_then(|v| {
                v.parse()
                    .map(|n| seed = n)
                    .map_err(|e| format!("--seed: {e}"))
            }),
            "--jobs" => value("--jobs").and_then(|v| {
                v.parse()
                    .map(|n| jobs = n)
                    .map_err(|e| format!("--jobs: {e}"))
            }),
            "--machines" => value("--machines").and_then(|v| {
                v.parse()
                    .map(|n| machines = n)
                    .map_err(|e| format!("--machines: {e}"))
            }),
            "--policy" => value("--policy").map(|v| policy = v),
            "--json" => {
                json = true;
                Ok(())
            }
            other => Err(format!("unknown argument '{other}'")),
        };
        if let Err(e) = parsed {
            eprintln!("{e}");
            eprintln!(
                "usage: gts trace [--seed N] [--jobs N] [--machines N] \
                 [--policy fcfs|bf|topo-aware|topo-aware-p] [--json]"
            );
            return ExitCode::FAILURE;
        }
    }

    let policy = match (AlgoConfig {
        policy,
        weights: None,
    })
    .resolve()
    {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let machine = power8_minsky();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 42));
    let cluster = Arc::new(ClusterTopology::homogeneous(machine, machines));
    let workload = WorkloadGenerator::with_defaults(seed).generate(jobs);
    let result =
        Simulation::new(cluster, profiles, SimConfig::new(policy).with_trace()).run(workload);

    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&result.trace).expect("trace serializes")
        );
        return ExitCode::SUCCESS;
    }

    println!(
        "gts trace — {} over {jobs} jobs (seed {seed}) on {machines} machine(s)",
        result.policy
    );
    for event in &result.trace {
        print_event(event);
    }
    let placed = result
        .trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::Placed { .. }))
        .count();
    let postponed = result
        .trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::Postponed { .. }))
        .count();
    println!(
        "{} events: {placed} placements, {postponed} postponements, \
         {} SLO violation(s), makespan {}s",
        result.trace.len(),
        result.slo_violations,
        f(result.makespan_s, 1),
    );
    ExitCode::SUCCESS
}

fn print_event(event: &TraceEvent) {
    match event {
        TraceEvent::Arrived { t_s, job } => {
            println!("[{:>9}s] {job} arrived", f(*t_s, 1));
        }
        TraceEvent::Evaluated {
            t_s,
            job,
            candidates,
        } => {
            println!(
                "[{:>9}s] {job} evaluated {} candidate(s):",
                f(*t_s, 1),
                candidates.len()
            );
            for c in candidates {
                let gpus: Vec<String> = c.gpus.iter().map(|g| g.to_string()).collect();
                println!(
                    "             {:<4} gpus=[{}] u_cc={} u_b={} u_d={} U={} frag={}  {}",
                    c.machine.to_string(),
                    gpus.join(","),
                    f(c.u_cc, 3),
                    f(c.u_b, 3),
                    f(c.u_d, 3),
                    f(c.utility, 3),
                    f(c.frag_after, 3),
                    c.outcome,
                );
            }
        }
        TraceEvent::Placed {
            t_s,
            job,
            gpus,
            utility,
            slo_violated,
        } => {
            let gpus: Vec<String> = gpus.iter().map(|g| g.to_string()).collect();
            println!(
                "[{:>9}s] {job} PLACED on [{}] U={}{}",
                f(*t_s, 1),
                gpus.join(","),
                f(*utility, 3),
                if *slo_violated {
                    "  ** SLO VIOLATION **"
                } else {
                    ""
                },
            );
        }
        TraceEvent::Postponed { t_s, job, utility } => {
            println!(
                "[{:>9}s] {job} postponed (best U={} below threshold)",
                f(*t_s, 1),
                f(*utility, 3),
            );
        }
        TraceEvent::Waiting { t_s, job } => {
            println!("[{:>9}s] {job} waiting (no feasible GPUs)", f(*t_s, 1));
        }
        TraceEvent::Released { t_s, job } => {
            println!("[{:>9}s] {job} released its GPUs", f(*t_s, 1));
        }
        TraceEvent::Spilled { t_s, job, machines } => {
            let ms: Vec<String> = machines.iter().map(|m| m.to_string()).collect();
            println!(
                "[{:>9}s] {job} spilled across [{}]",
                f(*t_s, 1),
                ms.join(",")
            );
        }
        TraceEvent::MachineFailed { t_s, machine } => {
            println!("[{:>9}s] {machine} FAILED", f(*t_s, 1));
        }
        TraceEvent::MachineRecovered { t_s, machine } => {
            println!("[{:>9}s] {machine} recovered", f(*t_s, 1));
        }
        TraceEvent::EvalCacheStats {
            t_s,
            hits,
            misses,
            evictions,
        } => {
            let total = hits + misses;
            let rate = if total == 0 {
                0.0
            } else {
                *hits as f64 / total as f64
            };
            println!(
                "[{:>9}s] placement cache: {hits} hit(s), {misses} miss(es), \
                 {evictions} eviction(s) ({} hit rate)",
                f(*t_s, 1),
                f(rate, 3),
            );
        }
    }
}
