//! Integration tests for the cross-event placement cache and the
//! incrementally maintained machine class index (DESIGN.md §9).
//!
//! The unit tests in `eval.rs` cover the cache data structure; these tests
//! drive the *public* surface: `Policy::decide_with` with a cache under LRU
//! pressure, and the `ClusterState` class index across every mutation kind
//! — with `audit()` (whose check 7 re-derives every key from scratch)
//! after each step.

use gts_job::{BatchClass, JobId, JobSpec, NnModel};
use gts_perf::ProfileLibrary;
use gts_sched::eval::EvalCache;
use gts_sched::state::on_machine;
use gts_sched::{ClusterState, EvalParams, Policy, PolicyKind};
use gts_topo::{power8_minsky, ClusterTopology, GlobalGpuId, MachineId};
use std::sync::Arc;

fn fresh_state(n_machines: usize) -> ClusterState {
    let machine = power8_minsky();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 1));
    let cluster = Arc::new(ClusterTopology::homogeneous(machine, n_machines));
    ClusterState::new(cluster, profiles)
}

/// Occupies the state so candidate machines differ (co-runners on M0, a
/// busy socket on M1) and decisions are non-trivial.
fn occupied_state() -> ClusterState {
    let mut state = fresh_state(3);
    let a = JobSpec::new(9001, NnModel::AlexNet, BatchClass::Small, 2);
    let free = state.free_gpus(MachineId(0));
    state.place(a, on_machine(MachineId(0), &free[..2]), 1.0);
    let b = JobSpec::new(9002, NnModel::GoogLeNet, BatchClass::Big, 1);
    let free = state.free_gpus(MachineId(1));
    state.place(b, on_machine(MachineId(1), &free[..1]), 1.0);
    state.audit().expect("setup state audits clean");
    state
}

/// Every (model, batch, width) combination — far more job classes than a
/// capacity-1 cache can hold.
fn job_classes() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    let mut id = 0u64;
    for model in [NnModel::AlexNet, NnModel::CaffeRef, NnModel::GoogLeNet] {
        for batch in [
            BatchClass::Tiny,
            BatchClass::Small,
            BatchClass::Medium,
            BatchClass::Big,
        ] {
            for n_gpus in 1..=2u32 {
                jobs.push(JobSpec::new(id, model, batch, n_gpus));
                id += 1;
            }
        }
    }
    jobs
}

/// A cache too small for the working set must evict — and every decision
/// made through it, including re-decisions of evicted classes, must be
/// bit-identical to uncached evaluation.
#[test]
fn lru_eviction_then_recompute_is_bit_identical() {
    let state = occupied_state();
    let policy = Policy::new(PolicyKind::TopoAware);
    let params = EvalParams::parallel(2);
    let tiny = EvalCache::with_capacity(1);
    let jobs = job_classes();

    // First sweep: mostly misses, with evictions as classes churn through
    // the one-entry cache.
    let first: Vec<_> = jobs
        .iter()
        .map(|j| policy.decide_with(&state, j, params, Some(&tiny), None))
        .collect();
    let stats = tiny.stats();
    assert!(stats.misses > 0, "sweep must populate the cache");
    assert!(
        stats.evictions > 0,
        "24 job classes through a one-entry cache must evict, got {stats:?}"
    );

    // Second sweep: evicted classes recompute; answers must not drift.
    let second: Vec<_> = jobs
        .iter()
        .map(|j| policy.decide_with(&state, j, params, Some(&tiny), None))
        .collect();

    // Reference: no cache at all.
    for (i, job) in jobs.iter().enumerate() {
        let reference = policy.decide_with(&state, job, params, None, None);
        for (label, got) in [("first", &first[i]), ("second", &second[i])] {
            match (&reference, got) {
                (None, None) => {}
                (Some(want), Some(have)) => {
                    assert_eq!(want.gpus, have.gpus, "job {i} ({label} sweep): gpus");
                    assert_eq!(
                        want.utility.to_bits(),
                        have.utility.to_bits(),
                        "job {i} ({label} sweep): utility bits"
                    );
                }
                other => panic!("job {i} ({label} sweep): {other:?}"),
            }
        }
    }
}

/// A roomy cache must answer repeat sweeps from memory (hits) and still
/// agree with the uncached reference.
#[test]
fn warm_cache_serves_hits_without_drift() {
    let state = occupied_state();
    let policy = Policy::new(PolicyKind::TopoAwareP);
    let params = EvalParams::parallel(2);
    let cache = EvalCache::with_capacity(4096);
    let jobs = job_classes();

    for j in &jobs {
        policy.decide_with(&state, j, params, Some(&cache), None);
    }
    let cold = cache.stats();
    for j in &jobs {
        let cached = policy.decide_with(&state, j, params, Some(&cache), None);
        let reference = policy.decide_with(&state, j, params, None, None);
        assert_eq!(
            cached.map(|d| (d.gpus, d.utility.to_bits())),
            reference.map(|d| (d.gpus, d.utility.to_bits())),
            "{} diverged on the warm sweep",
            j.id
        );
    }
    let warm = cache.stats();
    assert_eq!(warm.misses, cold.misses, "warm sweep must not miss");
    assert!(warm.hits > cold.hits, "warm sweep must hit");
    assert_eq!(warm.evictions, 0, "capacity 4096 must not evict here");
}

/// The incrementally maintained class index must stay equal to a
/// from-scratch derivation across place, release, failure, recovery, and
/// multi-node teardown — `audit()` check 7 does the re-derivation.
#[test]
fn class_index_tracks_every_mutation_kind() {
    let mut state = fresh_state(3);
    let (m0, m1, m2) = (MachineId(0), MachineId(1), MachineId(2));

    // Pristine machines are one equivalence class: equal keys, equal hashes.
    assert_eq!(state.machine_class_key(m0), state.machine_class_key(m1));
    assert_eq!(
        state.machine_class_key(m0).hash_bits(),
        state.machine_class_key(m2).hash_bits()
    );
    state.audit().expect("pristine");

    // Place: the touched machine leaves the empty class.
    let spec = JobSpec::new(0, NnModel::AlexNet, BatchClass::Small, 2);
    let free = state.free_gpus(m0);
    state.place(spec, on_machine(m0, &free[..2]), 1.0);
    state.audit().expect("after place");
    assert_ne!(state.machine_class_key(m0), state.machine_class_key(m1));
    assert_eq!(state.corunners(m0).len(), 1);
    // The key interns the same co-runner signature the oracle reads.
    assert!(Arc::ptr_eq(
        state.corunners(m0),
        &state.machine_class_key(m0).inner().corunners
    ));

    // An identically loaded machine rejoins the same class.
    let spec = JobSpec::new(1, NnModel::AlexNet, BatchClass::Small, 2);
    let free = state.free_gpus(m1);
    state.place(spec, on_machine(m1, &free[..2]), 1.0);
    state.audit().expect("after twin place");
    assert_eq!(state.machine_class_key(m0), state.machine_class_key(m1));
    assert_eq!(
        state.machine_class_key(m0).hash_bits(),
        state.machine_class_key(m1).hash_bits()
    );

    // Release: back to the empty class.
    state.release(JobId(0));
    state.audit().expect("after release");
    assert_eq!(state.machine_class_key(m0), state.machine_class_key(m2));

    // Failure and recovery: a down machine keys differently (no capacity),
    // a recovered one rejoins the empty class.
    state.set_machine_down(m2, true);
    state.audit().expect("after failure");
    assert_ne!(state.machine_class_key(m2), state.machine_class_key(m0));
    state.set_machine_down(m2, false);
    state.audit().expect("after recovery");
    assert_eq!(state.machine_class_key(m2), state.machine_class_key(m0));

    // Multi-node allocation: both spanned machines change class on place
    // and revert on teardown.
    state.release(JobId(1));
    state.audit().expect("drained");
    let mut wide = JobSpec::new(2, NnModel::GoogLeNet, BatchClass::Big, 4);
    wide.constraints = gts_job::Constraints {
        single_node: false,
        anti_collocate: false,
    };
    let mut gpus: Vec<GlobalGpuId> = Vec::new();
    gpus.extend(on_machine(m0, &state.free_gpus(m0)[..2]));
    gpus.extend(on_machine(m1, &state.free_gpus(m1)[..2]));
    state.place(wide, gpus, 1.0);
    state.audit().expect("after multi-node place");
    assert_ne!(state.machine_class_key(m0), state.machine_class_key(m2));
    assert_ne!(state.machine_class_key(m1), state.machine_class_key(m2));
    // Both spanned machines see the same co-runner (same job), but their
    // keys still differ from each other only if their masks differ — here
    // both host GPUs 0-1, so they are one class.
    assert_eq!(state.machine_class_key(m0), state.machine_class_key(m1));

    state.release(JobId(2));
    state.audit().expect("after multi-node teardown");
    assert_eq!(state.machine_class_key(m0), state.machine_class_key(m2));
    assert_eq!(state.machine_class_key(m1), state.machine_class_key(m2));
}
