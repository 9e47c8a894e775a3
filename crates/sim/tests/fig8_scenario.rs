//! End-to-end check of the Fig. 8 prototype scenario (Table 1 workload).

use gts_job::scenario::table1;
use gts_perf::ProfileLibrary;
use gts_sched::{Policy, PolicyKind};
use gts_sim::engine::simulate;
use gts_topo::{power8_minsky, ClusterTopology};
use std::sync::Arc;

fn run(kind: PolicyKind) -> gts_sim::SimResult {
    let machine = power8_minsky();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 42));
    let cluster = Arc::new(ClusterTopology::homogeneous(machine, 1));
    simulate(cluster, profiles, Policy::new(kind), table1())
}

#[test]
fn all_six_jobs_complete_under_every_policy() {
    for kind in PolicyKind::ALL {
        let res = run(kind);
        assert_eq!(res.records.len(), 6, "{kind}");
        assert!(res.unplaceable.is_empty(), "{kind}");
    }
}

#[test]
fn job3_is_postponed_but_not_starved() {
    use gts_job::JobId;
    let res = run(PolicyKind::TopoAwareP);
    let j3 = res.record(JobId(3)).unwrap();
    // TOPO-AWARE-P parks Job 3 at least once while it waits for a packed
    // pair, and the arrival-ordered queue keeps the count small.
    assert!(j3.postponements >= 1, "got {}", j3.postponements);
    assert!(
        res.max_postponements() <= 10,
        "got {}",
        res.max_postponements()
    );
    // No other policy postpones.
    assert_eq!(run(PolicyKind::Fcfs).max_postponements(), 0);
}

#[test]
fn topo_aware_p_has_no_slo_violations() {
    let res = run(PolicyKind::TopoAwareP);
    assert_eq!(res.slo_violations, 0);
    for r in &res.records {
        assert!(!r.slo_violated, "{} violated its SLO", r.spec.id);
    }
}

#[test]
fn fig8_cumulative_time_ordering() {
    let bf = run(PolicyKind::BestFit).makespan_s;
    let fcfs = run(PolicyKind::Fcfs).makespan_s;
    let ta = run(PolicyKind::TopoAware).makespan_s;
    let tap = run(PolicyKind::TopoAwareP).makespan_s;
    eprintln!("BF={bf:.1}s FCFS={fcfs:.1}s TOPO-AWARE={ta:.1}s TOPO-AWARE-P={tap:.1}s");
    eprintln!(
        "speedups: vs BF {:.2}x, vs FCFS {:.2}x, vs TA {:.2}x",
        bf / tap,
        fcfs / tap,
        ta / tap
    );
    // The paper: BF 461.7 s, FCFS 456.2 s, TA 454.2 s, TA-P 356.9 s →
    // TOPO-AWARE-P wins by ≈1.27–1.30×.
    assert!(tap < bf && tap < fcfs && tap < ta, "TOPO-AWARE-P must win");
    let speedup = bf / tap;
    assert!(
        (1.1..1.6).contains(&speedup),
        "speedup vs BF should be ≈1.3×, got {speedup:.3}"
    );
    // The greedy policies and plain TOPO-AWARE cluster together (the paper:
    // 461.7 / 456.2 / 454.2 s — within ~2 %); the postponing policy is the
    // outlier.
    assert!((bf / ta - 1.0).abs() < 0.05, "BF {bf} vs TA {ta}");
    assert!((fcfs / ta - 1.0).abs() < 0.05, "FCFS {fcfs} vs TA {ta}");
    assert!(ta / tap > 1.1, "TA {ta} vs TA-P {tap}");
}

#[test]
fn fig8_topo_aware_p_packs_job3_after_waiting() {
    use gts_job::JobId;
    let tap = run(PolicyKind::TopoAwareP);
    let ta = run(PolicyKind::TopoAware);
    let machine = power8_minsky();

    // TOPO-AWARE-P delays Job 3 until it can grant same-socket GPUs...
    let tap_j3 = tap.record(JobId(3)).unwrap();
    let local: Vec<gts_topo::GpuId> = tap_j3.gpus.iter().map(|g| g.gpu).collect();
    assert!(machine.is_packed(&local), "TA-P gave Job 3 {local:?}");
    assert!(tap_j3.waiting_s() > 0.0);

    // ...while plain TOPO-AWARE places it immediately across sockets.
    let ta_j3 = ta.record(JobId(3)).unwrap();
    let local: Vec<gts_topo::GpuId> = ta_j3.gpus.iter().map(|g| g.gpu).collect();
    assert!(!machine.is_packed(&local), "TA gave Job 3 {local:?}");
    // And Job 3 executes faster under TA-P despite the wait.
    assert!(tap_j3.execution_s() < ta_j3.execution_s());
}
