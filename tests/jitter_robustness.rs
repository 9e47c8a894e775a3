//! Cloud-variability robustness: the paper's conclusions must not hinge on
//! exact execution times ("because of the cloud's high variability, our
//! model does not need to be optimal; high-quality decisions will be
//! accurate enough", §4.2). We add ±10 % per-job execution jitter and check
//! the headline orderings still hold.

use gpu_topo_aware::job::scenario::table1;
use gpu_topo_aware::prelude::*;
use std::sync::Arc;

fn setup(n: usize) -> (Arc<ClusterTopology>, Arc<ProfileLibrary>) {
    let machine = power8_minsky();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 42));
    (Arc::new(ClusterTopology::homogeneous(machine, n)), profiles)
}

fn run_jittered(
    cluster: &Arc<ClusterTopology>,
    profiles: &Arc<ProfileLibrary>,
    kind: PolicyKind,
    trace: Vec<JobSpec>,
    seed: u64,
) -> SimResult {
    let config = SimConfig::new(Policy::new(kind)).with_jitter(0.10, seed);
    Simulation::new(Arc::clone(cluster), Arc::clone(profiles), config).run(trace)
}

#[test]
fn jitter_is_deterministic_and_bounded() {
    let (cluster, profiles) = setup(1);
    let a = run_jittered(&cluster, &profiles, PolicyKind::TopoAwareP, table1(), 9);
    let b = run_jittered(&cluster, &profiles, PolicyKind::TopoAwareP, table1(), 9);
    assert_eq!(a.makespan_s, b.makespan_s, "same seed → same run");

    let c = run_jittered(&cluster, &profiles, PolicyKind::TopoAwareP, table1(), 10);
    assert_ne!(a.makespan_s, c.makespan_s, "different seed → different run");

    // Every job's execution stays within the jitter envelope of the exact
    // model (interference aside, so compare against a generous band).
    let exact = simulate(
        Arc::clone(&cluster),
        Arc::clone(&profiles),
        Policy::new(PolicyKind::TopoAwareP),
        table1(),
    );
    for r in &a.records {
        let e = exact.record(r.spec.id).unwrap();
        let ratio = r.execution_s() / e.execution_s();
        assert!((0.8..1.25).contains(&ratio), "{}: ratio {ratio}", r.spec.id);
    }
}

#[test]
fn fig8_ordering_survives_jitter() {
    let (cluster, profiles) = setup(1);
    for seed in [1u64, 2, 3, 4, 5] {
        let tap = run_jittered(&cluster, &profiles, PolicyKind::TopoAwareP, table1(), seed);
        let bf = run_jittered(&cluster, &profiles, PolicyKind::BestFit, table1(), seed);
        assert!(
            tap.makespan_s < bf.makespan_s,
            "seed {seed}: TA-P {:.1} !< BF {:.1}",
            tap.makespan_s,
            bf.makespan_s
        );
        assert_eq!(tap.slo_violations, 0, "seed {seed}");
    }
}

#[test]
fn scenario1_slo_guarantee_survives_jitter() {
    let (cluster, profiles) = setup(3);
    let trace = WorkloadGenerator::with_defaults(77).generate(50);
    for seed in [11u64, 22, 33] {
        let res = run_jittered(
            &cluster,
            &profiles,
            PolicyKind::TopoAwareP,
            trace.clone(),
            seed,
        );
        assert_eq!(res.records.len(), 50, "seed {seed}");
        assert_eq!(res.slo_violations, 0, "seed {seed}");
    }
}
