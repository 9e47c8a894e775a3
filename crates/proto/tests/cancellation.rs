//! Operator cancellations under real concurrency: scripted cancel events
//! tear down queued and running jobs without wedging the daemon.

use gts_job::{scenario::table1, JobId};
use gts_perf::ProfileLibrary;
use gts_proto::{ProtoConfig, Prototype, TimeScale};
use gts_sched::{Policy, PolicyKind};
use gts_topo::{power8_minsky, ClusterTopology};
use std::sync::Arc;

fn setup() -> (Arc<ClusterTopology>, Arc<ProfileLibrary>) {
    let machine = power8_minsky();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 42));
    (Arc::new(ClusterTopology::homogeneous(machine, 1)), profiles)
}

#[test]
fn cancelling_a_running_job_frees_its_gpus_for_the_queue() {
    let (cluster, profiles) = setup();
    let mut config =
        ProtoConfig::with_scale(Policy::new(PolicyKind::TopoAwareP), TimeScale::new(0.002));
    // Kill Job 0 (a long 1-GPU job) shortly after the whole scenario is in
    // flight; everything else must still complete.
    config.cancellations = vec![(40.0, JobId(0))];
    let res = Prototype::new(cluster, profiles, config).run(table1());

    assert_eq!(res.cancelled, vec![JobId(0)]);
    assert_eq!(res.records.len(), 5, "the other five jobs complete");
    assert!(res.record(JobId(0)).is_none());
    for id in [1u64, 2, 3, 4, 5] {
        assert!(res.record(JobId(id)).is_some(), "J{id} missing");
    }
    // With Job 0's socket freed early, Job 3 starts earlier than in the
    // uncancelled run (≈75 s).
    let j3 = res.record(JobId(3)).unwrap();
    assert!(j3.placed_at_s < 70.0, "got {}", j3.placed_at_s);
}

#[test]
fn cancelling_a_queued_job_just_removes_it() {
    let (cluster, profiles) = setup();
    let mut config = ProtoConfig::with_scale(Policy::new(PolicyKind::Fcfs), TimeScale::new(0.002));
    // Job 5 arrives at 29.89 s and waits in the FCFS queue for a long time;
    // cancel it while it still waits.
    config.cancellations = vec![(35.0, JobId(5))];
    let res = Prototype::new(cluster, profiles, config).run(table1());

    assert_eq!(res.cancelled, vec![JobId(5)]);
    assert_eq!(res.records.len(), 5);
    assert!(res.record(JobId(5)).is_none());
}

#[test]
fn cancelling_an_unknown_job_is_harmless() {
    let (cluster, profiles) = setup();
    let mut config =
        ProtoConfig::with_scale(Policy::new(PolicyKind::TopoAware), TimeScale::new(0.002));
    config.cancellations = vec![(10.0, JobId(999))];
    let res = Prototype::new(cluster, profiles, config).run(table1());
    assert!(res.cancelled.is_empty());
    assert_eq!(res.records.len(), 6);
}
