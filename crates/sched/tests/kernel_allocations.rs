//! The placement kernels allocate nothing but their results: a DRB
//! mapping (Algorithms 2–3) allocates only the GPU list it returns, and
//! the oracle's Eq. 4 interference, Eq. 5 fragmentation and the Eq. 2
//! utility allocate nothing.
//!
//! A counting global allocator sees every allocation in the process, so
//! this binary holds a single test: no other test thread can add to the
//! count while a kernel runs.

use gts_job::{BatchClass, JobGraph, JobSpec, NnModel};
use gts_map::{drb_map, PlacementOracle, UtilityWeights};
use gts_perf::ProfileLibrary;
use gts_sched::oracle::placement_utility;
use gts_sched::state::on_machine;
use gts_sched::{ClusterState, StateOracle};
use gts_topo::{dgx2, ClusterTopology, GpuId, MachineId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts every allocation and reallocation, then defers to the system
/// allocator.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: `ptr` came from this allocator, which hands out the
        // system allocator's blocks.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::SeqCst) - before)
}

#[test]
fn kernels_allocate_only_their_results() {
    // A DGX-2 holding two co-runners, one on each baseboard.
    let machine = dgx2();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 1));
    let cluster = Arc::new(ClusterTopology::homogeneous(machine, 1));
    let mut state = ClusterState::new(cluster, profiles);
    let m = MachineId(0);
    let tiny = JobSpec::new(1, NnModel::AlexNet, BatchClass::Tiny, 2);
    state.place(tiny, on_machine(m, &[GpuId(0), GpuId(1)]), 1.0);
    let big = JobSpec::new(2, NnModel::GoogLeNet, BatchClass::Big, 3);
    state.place(big, on_machine(m, &[GpuId(8), GpuId(9), GpuId(10)]), 1.0);

    let job = JobSpec::new(3, NnModel::CaffeRef, BatchClass::Small, 8);
    let graph = JobGraph::from_spec(&job);
    let free = state.free_gpus(m);
    let all: Vec<GpuId> = (0..16).map(GpuId).collect();
    let weights = UtilityWeights::default();
    let oracle = StateOracle::new(&state, m, &job);

    // Warm-up: the thread's DRB scratch, its split memo, and the
    // topology's tables fill on first use.
    let warm = drb_map(&graph, &free, &oracle, weights).expect("11 free GPUs fit 8 tasks");
    let warm_utility = placement_utility(&state, m, &job, &warm, weights);
    let warm_interference = oracle.interference(&all);
    let warm_frag = oracle.fragmentation_after(&all);

    let (mapped, n) = counted(|| drb_map(&graph, &free, &oracle, weights));
    assert_eq!(mapped.as_ref(), Ok(&warm));
    assert_eq!(
        n, 1,
        "drb_map made {n} allocations; only its result may allocate"
    );

    let (interference, n) = counted(|| oracle.interference(&all));
    assert_eq!(interference.to_bits(), warm_interference.to_bits());
    assert_eq!(n, 0, "Eq. 4 on 16 GPUs made {n} allocations");

    let (frag, n) = counted(|| oracle.fragmentation_after(&all));
    assert_eq!(frag.to_bits(), warm_frag.to_bits());
    assert_eq!(n, 0, "Eq. 5 on 16 GPUs made {n} allocations");

    let (utility, n) = counted(|| placement_utility(&state, m, &job, &warm, weights));
    assert_eq!(utility.to_bits(), warm_utility.to_bits());
    assert_eq!(n, 0, "the Eq. 2 utility made {n} allocations");
}
