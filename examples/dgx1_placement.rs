//! Placement on an NVIDIA DGX-1 (Fig. 1 right): the hybrid cube-mesh gives
//! some GPU pairs single-hop NVLink and forces others over PCIe switches
//! and the inter-socket bus — the mapper must tell them apart.
//!
//! ```text
//! cargo run --example dgx1_placement
//! ```

use gpu_topo_aware::prelude::*;
use std::sync::Arc;

fn main() {
    let machine = dgx1();
    println!("machine: {} ({} GPUs)", machine.name(), machine.n_gpus());

    // The NVLink adjacency of the cube-mesh.
    println!("\nNVLink adjacency (distance 1 pairs):");
    for a in machine.gpus() {
        let peers: Vec<String> = machine
            .gpus()
            .filter(|&b| b != a && machine.distance(a, b) == 1.0)
            .map(|b| b.to_string())
            .collect();
        println!("  {a}: {}", peers.join(" "));
    }

    let profiles = Arc::new(ProfileLibrary::generate(&machine, 42));
    let cluster = Arc::new(ClusterTopology::homogeneous(machine, 1));
    let mut state = ClusterState::new(cluster, profiles);
    let policy = Policy::new(PolicyKind::TopoAware);

    // Place jobs of growing width and watch the mapper respect the quads.
    for (id, n_gpus) in [(0u64, 2u32), (1, 4), (2, 2)] {
        let job =
            JobSpec::new(id, NnModel::AlexNet, BatchClass::Tiny, n_gpus).with_min_utility(0.5);
        let d = policy.decide(&state, &job).expect("the DGX-1 has room");
        let local: Vec<GpuId> = d.gpus.iter().map(|g| g.gpu).collect();
        let topo = state.cluster().machine(MachineId(0));
        let all_nvlinked = local
            .iter()
            .all(|&a| local.iter().all(|&b| a == b || topo.distance(a, b) == 1.0));
        println!(
            "\njob {id} ({n_gpus} GPUs) → {:?}  utility {:.3}  fully NVLinked: {all_nvlinked}",
            local, d.utility
        );
        state.place(job, d.gpus, d.utility);
    }

    // An 8-GPU job takes the whole box; its worst pair rides the bus.
    let mut state = ClusterState::new(
        Arc::new(ClusterTopology::homogeneous(dgx1(), 1)),
        state.profiles_arc(),
    );
    let big = JobSpec::new(9, NnModel::GoogLeNet, BatchClass::Medium, 8);
    let d = policy.decide(&state, &big).expect("empty box");
    let local: Vec<GpuId> = d.gpus.iter().map(|g| g.gpu).collect();
    let topo = dgx1();
    let perf = PlacementPerf::evaluate(&topo, &local);
    println!(
        "\njob 9 (8 GPUs) → whole machine; worst-pair route: {:?} at {:.0} GB/s",
        perf.route, perf.bottleneck_gbs
    );
    state.place(big, d.gpus, d.utility);
}
