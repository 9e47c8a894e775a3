//! Property tests over the allocation state: arbitrary interleavings of
//! place / release / fail / recover operations preserve the bookkeeping
//! invariants, and the readings derived from the free mask and the class
//! keys agree with the allocations. These run in release builds too,
//! where `ClusterState::audit` does not run after each mutation.

use gts_job::{BatchClass, JobId, JobSpec, NnModel};
use gts_perf::ProfileLibrary;
use gts_sched::state::on_machine;
use gts_sched::ClusterState;
use gts_topo::{power8_minsky, ClusterTopology, GpuId, MachineId, SocketId};
use proptest::prelude::*;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Place { machine: u32, demand: f64 },
    ReleaseOldest,
    Fail(u32),
    Recover(u32),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..3, 0.0f64..60.0).prop_map(|(machine, demand)| Op::Place { machine, demand }),
        Just(Op::ReleaseOldest),
        (0u32..3).prop_map(Op::Fail),
        (0u32..3).prop_map(Op::Recover),
    ]
}

fn fresh_state() -> ClusterState {
    let machine = power8_minsky();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 1));
    let cluster = Arc::new(ClusterTopology::homogeneous(machine, 3));
    ClusterState::new(cluster, profiles)
}

/// `(unallocated, total)` GPUs per socket of `m`, counted from the
/// running allocations and the topology.
fn recount_occupancy(state: &ClusterState, m: MachineId) -> Vec<(u32, u32)> {
    let topo = state.cluster().machine(m);
    let mut occupancy = vec![(0, 0); topo.n_sockets()];
    for gpu in topo.gpus() {
        let (free, total) = &mut occupancy[topo.socket_of(gpu).index()];
        *free += 1;
        *total += 1;
    }
    for alloc in state.running_on(m) {
        for gpu in alloc.gpus_on(m) {
            occupancy[topo.socket_of(gpu).index()].0 -= 1;
        }
    }
    occupancy
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bookkeeping_invariants_hold_under_any_interleaving(ops in prop::collection::vec(arb_op(), 1..60)) {
        let mut state = fresh_state();
        let mut live: Vec<JobId> = Vec::new();
        let mut next_id = 0u64;

        for op in ops {
            match op {
                Op::Place { machine, demand } => {
                    let m = MachineId(machine);
                    let free = state.free_gpus(m);
                    if free.is_empty() || !state.fits_bw(m, &free[..1], demand) {
                        continue;
                    }
                    let spec = JobSpec::new(next_id, NnModel::AlexNet, BatchClass::Small, 1)
                        .with_bw_demand(demand);
                    state.place(spec, on_machine(m, &free[..1]), 1.0);
                    live.push(JobId(next_id));
                    next_id += 1;
                }
                Op::ReleaseOldest => {
                    if let Some(id) = live.first().copied() {
                        live.remove(0);
                        let alloc = state.release(id);
                        prop_assert_eq!(alloc.spec.id, id);
                    }
                }
                Op::Fail(machine) => {
                    let m = MachineId(machine);
                    // Only fail machines with nothing running (the driver's
                    // contract); otherwise skip.
                    if state.running_on(m).is_empty() {
                        state.set_machine_down(m, true);
                    }
                }
                Op::Recover(machine) => {
                    state.set_machine_down(MachineId(machine), false);
                }
            }

            // Invariant 1: free + allocated == capacity, per machine (down
            // machines report zero free but their GPUs are not leaked).
            let mut allocated_total = 0usize;
            let machines: Vec<MachineId> = state.cluster().machines().collect();
            for m in machines {
                let allocated: usize = state
                    .running_on(m)
                    .iter()
                    .map(|a| a.gpus_on(m).len())
                    .sum();
                allocated_total += allocated;
                if !state.is_machine_down(m) {
                    prop_assert_eq!(
                        state.free_count(m) + allocated,
                        4,
                        "machine {} leaks GPUs", m
                    );
                }
                // Invariant 2: committed bandwidth never exceeds capacity.
                let sockets: Vec<SocketId> = state.cluster().machine(m).sockets().collect();
                for s in sockets {
                    prop_assert!(state.socket_bw_free(m, s) >= -1e-9);
                    prop_assert!(state.socket_bw_free(m, s) <= state.bw_capacity_gbs() + 1e-9);
                }
                // Invariant 4: per-socket occupancy is a recount of the
                // GPUs no allocation holds, down machines included.
                prop_assert_eq!(state.socket_occupancy(m), recount_occupancy(&state, m));
                // Invariant 5: the co-runner signature is the class key's.
                prop_assert!(Arc::ptr_eq(
                    state.corunners(m),
                    &state.machine_class_key(m).inner().corunners
                ));
            }
            // Invariant 3: the running table matches the live set.
            prop_assert_eq!(state.n_running(), live.len());
            prop_assert_eq!(allocated_total, live.len());
        }

        // Drain everything: the state returns to pristine bandwidth.
        for id in live {
            state.release(id);
        }
        let machines: Vec<MachineId> = state.cluster().machines().collect();
        for m in machines {
            state.set_machine_down(m, false);
            prop_assert_eq!(state.free_count(m), 4);
            let sockets: Vec<SocketId> = state.cluster().machine(m).sockets().collect();
            for s in sockets {
                prop_assert!((state.socket_bw_free(m, s) - state.bw_capacity_gbs()).abs() < 1e-6);
            }
        }
    }
}

#[test]
fn down_machine_is_invisible_to_capacity_queries() {
    let mut state = fresh_state();
    state.set_machine_down(MachineId(1), true);
    assert_eq!(state.machines_with_capacity(1).len(), 2);
    assert!(state.free_gpus(MachineId(1)).is_empty());
    assert_eq!(state.free_count(MachineId(1)), 0);
    assert_eq!(state.total_free(), 8);
    state.set_machine_down(MachineId(1), false);
    assert_eq!(state.total_free(), 12);
    let _ = SocketId(0); // keep the import exercised on all feature sets
    let _ = GpuId(0);
}
