//! Model-parallel jobs through the whole stack: explicit communication
//! graphs flow from JSON manifests through the mapper into the simulator.

use gpu_topo_aware::prelude::*;
use std::sync::Arc;

fn setup() -> (Arc<ClusterTopology>, Arc<ProfileLibrary>) {
    let machine = power8_minsky();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 42));
    (Arc::new(ClusterTopology::homogeneous(machine, 1)), profiles)
}

#[test]
fn pipeline_job_simulates_faster_than_data_parallel_twin() {
    let (cluster, profiles) = setup();
    let pipeline = JobSpec::new(0, NnModel::AlexNet, BatchClass::Tiny, 4)
        .with_iterations(200)
        .with_comm_graph(JobGraph::pipeline(4, 4.0));
    let dataparallel = JobSpec::new(1, NnModel::AlexNet, BatchClass::Tiny, 4)
        .arriving_at(1e6)
        .with_iterations(200);

    let res = simulate(
        cluster,
        profiles,
        Policy::new(PolicyKind::TopoAware),
        vec![pipeline, dataparallel],
    );
    let p = res.record(JobId(0)).unwrap();
    let d = res.record(JobId(1)).unwrap();
    assert!(
        p.execution_s() < d.execution_s(),
        "pipeline {:.1}s should beat data-parallel {:.1}s on 4 GPUs",
        p.execution_s(),
        d.execution_s()
    );
    // Both ran solo at their respective ideals.
    assert!(p.qos_slowdown() < 0.05, "got {}", p.qos_slowdown());
    assert!(d.qos_slowdown() < 0.05, "got {}", d.qos_slowdown());
}

#[test]
fn model_parallel_specs_survive_the_manifest_layer() {
    let spec = JobSpec::new(0, NnModel::GoogLeNet, BatchClass::Small, 4)
        .with_comm_graph(JobGraph::ring(4, 3.0));
    let manifest = JobManifest {
        jobs: vec![spec.clone()],
    };
    let back = JobManifest::from_json(&manifest.to_json()).unwrap();
    assert_eq!(back.jobs[0], spec);
    assert!(back.validate().is_ok());
    assert_eq!(JobGraph::from_spec(&back.jobs[0]).edge_count(), 4);
}

#[test]
fn custom_star_graph_places_the_hub_centrally() {
    // A parameter-server-style star: task 0 talks to everyone.
    let (cluster, profiles) = setup();
    let star = JobGraph::custom(vec![
        vec![0.0, 4.0, 4.0, 4.0],
        vec![4.0, 0.0, 0.0, 0.0],
        vec![4.0, 0.0, 0.0, 0.0],
        vec![4.0, 0.0, 0.0, 0.0],
    ]);
    let job = JobSpec::new(0, NnModel::AlexNet, BatchClass::Tiny, 4)
        .with_iterations(50)
        .with_comm_graph(star);
    let res = simulate(
        cluster,
        profiles,
        Policy::new(PolicyKind::TopoAware),
        vec![job],
    );
    assert_eq!(res.records.len(), 1);
    // On a 4-GPU machine the star necessarily spans sockets; the job still
    // completes and is costed via the graph model.
    assert!(res.records[0].execution_s() > 0.0);
}
