//! Cluster operations day-2 walkthrough: racked fleets, disaggregated
//! multi-node jobs, machine failures and job cancellation — the extensions
//! layered on top of the paper's scheduler.
//!
//! ```text
//! cargo run --example cluster_operations
//! ```

use gpu_topo_aware::prelude::*;
use std::sync::Arc;

fn main() {
    // A 2-rack × 3-Minsky fleet: cross-rack traffic pays the aggregation
    // layer (halved network bandwidth in the model).
    let machine = power8_minsky();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 42));
    let cluster = Arc::new(ClusterTopology::homogeneous_racked(machine, 2, 3));
    println!(
        "fleet: {} machines in {} racks, {} GPUs",
        cluster.n_machines(),
        cluster.n_racks(),
        cluster.n_gpus()
    );

    // A workload where every fifth job is *wider than any machine* and
    // therefore must spill across machines (the §7 future-work extension).
    let mut jobs = WorkloadGenerator::with_defaults(4242).generate(30);
    for (i, j) in jobs.iter_mut().enumerate() {
        if i % 5 == 0 {
            j.n_gpus = 6;
            j.constraints = Constraints {
                single_node: false,
                anti_collocate: false,
            };
            j.min_utility = 0.3;
        }
    }

    // Machine 1 will fail twenty minutes in; its jobs restart elsewhere.
    let config = SimConfig::new(Policy::new(PolicyKind::TopoAwareP))
        .with_machine_failures(vec![(1200.0, MachineId(1))]);
    let res = Simulation::new(Arc::clone(&cluster), Arc::clone(&profiles), config).run(jobs);

    println!(
        "\ncompleted {} jobs, makespan {:.0}s, {} SLO violations",
        res.records.len(),
        res.makespan_s,
        res.slo_violations
    );
    for (t, m) in &res.failures {
        println!("machine failure applied: {m} at t={t:.0}s");
    }
    let restarted: Vec<String> = res
        .records
        .iter()
        .filter(|r| r.restarts > 0)
        .map(|r| format!("{} (x{})", r.spec.id, r.restarts))
        .collect();
    println!(
        "restarted jobs: {}",
        if restarted.is_empty() {
            "none".into()
        } else {
            restarted.join(", ")
        }
    );

    println!("\nwide (6-GPU) jobs and where they ran:");
    for r in res.records.iter().filter(|r| r.spec.n_gpus == 6) {
        let mut machines: Vec<String> = r.gpus.iter().map(|g| g.machine.to_string()).collect();
        machines.sort();
        machines.dedup();
        let mut racks: Vec<u32> = r.gpus.iter().map(|g| cluster.rack_of(g.machine)).collect();
        racks.sort_unstable();
        racks.dedup();
        println!(
            "  {}: machines {} — {} rack(s), slowdown {:.2}",
            r.spec.id,
            machines.join("+"),
            racks.len(),
            r.qos_slowdown()
        );
    }

    // Live cancellation through the scheduler API.
    let mut scheduler = Scheduler::new(
        ClusterState::new(Arc::clone(&cluster), profiles),
        SchedulerConfig::new(Policy::new(PolicyKind::TopoAwareP)),
    );
    scheduler.submit(JobSpec::new(100, NnModel::AlexNet, BatchClass::Tiny, 2));
    scheduler.run_iteration();
    println!("\ncancelling J100: {:?}", scheduler.cancel(JobId(100)));
}
