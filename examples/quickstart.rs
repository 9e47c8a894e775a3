//! Quickstart: ask the topology-aware scheduler where a training job
//! should run on an IBM Power8 "Minsky".
//!
//! ```text
//! cargo run --example quickstart
//! ```

use gpu_topo_aware::prelude::*;
use std::sync::Arc;

fn main() {
    // 1. Describe the hardware: 2 sockets × 2 Tesla P100 over dual NVLink
    //    (Fig. 1 left in the paper). Profiles are the §4.2 measurement
    //    campaign run against the calibrated performance model.
    let machine = power8_minsky();
    println!(
        "machine: {} ({} GPUs, {} sockets)",
        machine.name(),
        machine.n_gpus(),
        machine.n_sockets()
    );
    for a in machine.gpus() {
        for b in machine.gpus() {
            if a < b {
                println!(
                    "  {a} ↔ {b}: distance {:>4}  {}  {:>4.0} GB/s",
                    machine.distance(a, b),
                    if machine.is_p2p(a, b) {
                        "P2P       "
                    } else {
                        "host-route"
                    },
                    machine.pair_bandwidth_gbs(a, b),
                );
            }
        }
    }

    let profiles = Arc::new(ProfileLibrary::generate(&machine, 42));
    let cluster = Arc::new(ClusterTopology::homogeneous(machine, 1));
    let mut state = ClusterState::new(cluster, profiles);

    // 2. A communication-heavy job: AlexNet, batch 1 per GPU, 2 GPUs.
    let job = JobSpec::new(0, NnModel::AlexNet, BatchClass::Tiny, 2).with_min_utility(0.5);

    // 3. Decide. The DRB mapper packs it onto the NVLink pair.
    let policy = Policy::new(PolicyKind::TopoAwareP);
    let decision = policy
        .decide(&state, &job)
        .expect("an idle machine always fits");
    println!(
        "\njob {} ({} × {} GPUs, batch {}):",
        job.id, job.model, job.n_gpus, job.batch
    );
    println!(
        "  placed on {:?} with utility {:.3}",
        decision.gpus, decision.utility
    );
    state.place(job.clone(), decision.gpus.clone(), decision.utility);

    // 4. A second identical job now faces interference; the mapper steers
    //    it to the other socket.
    let job2 = JobSpec::new(1, NnModel::AlexNet, BatchClass::Tiny, 2).with_min_utility(0.5);
    let d2 = policy.decide(&state, &job2).expect("two GPUs remain");
    println!(
        "job {}: placed on {:?} with utility {:.3}",
        job2.id, d2.gpus, d2.utility
    );

    // 5. What the jobs will actually experience, per the calibrated model.
    let topo = state.cluster().machine(MachineId(0));
    let local: Vec<GpuId> = decision.gpus.iter().map(|g| g.gpu).collect();
    let perf = PlacementPerf::evaluate(topo, &local);
    let iter = perf.iter_time(job.model, job.batch.representative_batch());
    println!(
        "\nper-iteration: {:.1} ms compute + {:.1} ms allreduce = {:.1} ms ({} route)",
        iter.compute_s * 1e3,
        iter.comm_s * 1e3,
        iter.total_s() * 1e3,
        match perf.route {
            RouteClass::P2p => "P2P",
            RouteClass::HostRouted => "host",
        }
    );
}
