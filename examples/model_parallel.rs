//! Model parallelism (§2): when the *network* is partitioned across GPUs,
//! the communication graph is no longer uniform — a layer pipeline only
//! talks along the chain. The paper flags this as the case where topology
//! awareness matters even more; this example shows the mapper exploiting
//! the structure.
//!
//! ```text
//! cargo run --example model_parallel
//! ```

use gpu_topo_aware::perf::placement::graph_iter_time;
use gpu_topo_aware::prelude::*;
use std::sync::Arc;

fn main() {
    let machine = power8_minsky();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 42));
    let cluster = Arc::new(ClusterTopology::homogeneous(machine, 1));
    let state = ClusterState::new(cluster, profiles);
    let policy = Policy::new(PolicyKind::TopoAware);

    // A 4-stage AlexNet pipeline: stage i feeds stage i+1.
    let pipeline = JobSpec::new(0, NnModel::AlexNet, BatchClass::Tiny, 4)
        .with_comm_graph(JobGraph::pipeline(4, 4.0));
    // The same resources asked for by a data-parallel job.
    let dataparallel = JobSpec::new(1, NnModel::AlexNet, BatchClass::Tiny, 4);

    let d = policy.decide(&state, &pipeline).expect("idle machine");
    let mapping: Vec<GpuId> = d.gpus.iter().map(|g| g.gpu).collect();
    println!("pipeline stages → GPUs: {mapping:?}");

    let topo = power8_minsky();
    let graph = JobGraph::pipeline(4, 4.0);
    let cross = graph
        .edges()
        .filter(|&(i, j, _)| topo.socket_of(mapping[i]) != topo.socket_of(mapping[j]))
        .count();
    println!("chain edges crossing the socket boundary: {cross} (1 is optimal)");

    let good = graph_iter_time(&topo, NnModel::AlexNet, 1, &graph, &mapping);
    let interleaved = [GpuId(0), GpuId(2), GpuId(1), GpuId(3)];
    let bad = graph_iter_time(&topo, NnModel::AlexNet, 1, &graph, &interleaved);
    println!(
        "\nper-iteration comm: mapped {:.1} ms vs interleaved {:.1} ms ({:.2}x worse)",
        good.comm_s * 1e3,
        bad.comm_s * 1e3,
        bad.comm_s / good.comm_s
    );

    let dp = PlacementPerf::evaluate(&topo, &mapping).iter_time(NnModel::AlexNet, 1);
    println!(
        "data-parallel on the same GPUs: {:.1} ms comm — the pipeline's sparse graph\n\
         is cheaper, exactly why §2 expects topology awareness to matter more there",
        dp.comm_s * 1e3
    );
    let _ = dataparallel;
}
