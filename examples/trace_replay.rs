//! Trace-driven workflow (§5.3, Appendix A.3): generate a workload, save it
//! as a JSON trace, reload it and replay it through the simulator — the
//! exact interchange the paper uses between its prototype logs and its
//! large-scale simulation.
//!
//! ```text
//! cargo run --example trace_replay
//! ```

use gpu_topo_aware::prelude::*;
use std::sync::Arc;

fn main() -> std::io::Result<()> {
    // 1. Generate and persist a workload trace.
    let jobs = WorkloadGenerator::with_defaults(7).generate(40);
    let trace = Trace::new("generator seed=7, λ=10/min", jobs);
    let dir = std::env::temp_dir().join("gpu-topo-aware-example");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("workload.json");
    trace.save(&path)?;
    println!(
        "wrote {} jobs spanning {:.0}s to {}",
        trace.len(),
        trace.span_s(),
        path.display()
    );

    // 2. A manifest for one job, as the prototype's watch directory
    //    would receive it.
    let manifest = JobManifest {
        jobs: vec![trace.jobs[0].clone()],
    };
    println!(
        "\nfirst job as a submission manifest:\n{}",
        manifest.to_json()
    );

    // 3. Reload and replay.
    let reloaded = Trace::load(&path)?;
    assert_eq!(reloaded, trace, "JSON round-trip must be lossless");

    let machine = power8_minsky();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 42));
    let cluster = Arc::new(ClusterTopology::homogeneous(machine, 3));
    let res = simulate(
        cluster,
        profiles,
        Policy::new(PolicyKind::TopoAwareP),
        reloaded.jobs,
    );

    println!(
        "replay: {} jobs completed, makespan {:.0}s, mean wait {:.1}s, {} SLO violations",
        res.records.len(),
        res.makespan_s,
        res.mean_waiting_s(),
        res.slo_violations
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}
