//! A digest over the placement kernels' outputs: DRB's mapping
//! (Algorithms 2–3), the Eq. 5 fragmentation the oracle reads after it and
//! the Eq. 2 utility of the result, plus the cluster-wide spill.
//!
//! Production and the reference oracle call the same `drb_map`,
//! `StateOracle` and `placement_utility`, so the differential runner in
//! `tests/stack_properties.rs` cannot see a wrong rewrite of them. This
//! test can: it folds every GPU list and the bit pattern of every utility,
//! interference and fragmentation over a fixed, seeded case list into one
//! FNV-1a digest and compares it with the digest recorded from an earlier,
//! independently written implementation of the same kernels.
//!
//! Run with `-- --nocapture` to print one line per case; diffing that
//! output between two builds names the first case that moved.

use gts_job::{BatchClass, JobGraph, JobSpec, NnModel};
use gts_map::{drb_map, PlacementOracle, UtilityWeights};
use gts_perf::ProfileLibrary;
use gts_sched::oracle::placement_utility;
use gts_sched::state::on_machine;
use gts_sched::{decide_spill, ClusterState, StateOracle};
use gts_topo::{
    dgx1, dgx2, power8_minsky, power8_pcie_k80, symmetric_machine, ClusterTopology, LinkProfile,
    MachineId, MachineTopology,
};
use std::sync::Arc;

/// The digest of every case below, recorded before the kernels were
/// rewritten to run allocation-free.
const RECORDED_DIGEST: u64 = 0xb546_2121_6a3c_eeaa;

/// Single-machine cases, spread evenly over the machine kinds.
const MACHINE_CASES: u64 = 200;

/// Cluster-wide spill cases, each over more than 32 free GPUs.
const SPILL_CASES: u64 = 6;

/// SplitMix64: a seeded generator with no dependency on the code under
/// test or on a vendored crate's stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.range(0, items.len() - 1)]
    }
}

/// FNV-1a over 64-bit words, fed little-endian.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

const MODELS: [NnModel; 3] = [NnModel::AlexNet, NnModel::CaffeRef, NnModel::GoogLeNet];
const BATCHES: [BatchClass; 4] = [
    BatchClass::Tiny,
    BatchClass::Small,
    BatchClass::Medium,
    BatchClass::Big,
];

/// The machine kinds the cases cover: the four built-in kinds the
/// heterogeneous workloads mix, and a 96-GPU machine whose free sets are
/// too large for the split memo.
fn kinds() -> Vec<Arc<MachineTopology>> {
    vec![
        Arc::new(power8_minsky()),
        Arc::new(dgx1()),
        Arc::new(power8_pcie_k80()),
        Arc::new(dgx2()),
        Arc::new(symmetric_machine(
            "wide96",
            4,
            24,
            LinkProfile::nvlink_dual(),
        )),
    ]
}

/// Places up to `max_jobs` co-runners of random profiles on random free
/// GPUs of `machine`, each at most `max_width` wide, leaving at least
/// `keep_free` GPUs free. Returns the next unused job id.
fn place_corunners(
    state: &mut ClusterState,
    rng: &mut SplitMix,
    machine: MachineId,
    max_jobs: usize,
    max_width: usize,
    keep_free: usize,
    mut id: u64,
) -> u64 {
    for _ in 0..rng.range(0, max_jobs) {
        let mut free = state.free_gpus(machine);
        if free.len() <= keep_free {
            break;
        }
        let width = rng.range(1, max_width.min(free.len() - keep_free));
        // A partial Fisher–Yates shuffle picks `width` random free GPUs.
        for i in 0..width {
            let j = rng.range(i, free.len() - 1);
            free.swap(i, j);
        }
        let spec = JobSpec::new(id, rng.pick(&MODELS), rng.pick(&BATCHES), width as u32);
        state.place(spec, on_machine(machine, &free[..width]), 1.0);
        id += 1;
    }
    id
}

/// A job of `n` tasks whose communication graph is uniform (the §5.1
/// encoding), a pipeline, a ring or random symmetric weights.
fn job(rng: &mut SplitMix, id: u64, n: usize) -> (JobSpec, &'static str) {
    let spec = JobSpec::new(id, rng.pick(&MODELS), rng.pick(&BATCHES), n as u32);
    let w = spec.batch.comm_weight();
    match rng.range(0, 3) {
        0 => (spec, "uniform"),
        1 => (spec.with_comm_graph(JobGraph::pipeline(n, w)), "pipeline"),
        2 => (spec.with_comm_graph(JobGraph::ring(n, w)), "ring"),
        _ => {
            let matrix = (0..n)
                .map(|_| (0..n).map(|_| rng.range(0, 8) as f64 * 0.5).collect())
                .collect();
            (spec.with_comm_graph(JobGraph::custom(matrix)), "random")
        }
    }
}

fn weights(rng: &mut SplitMix) -> UtilityWeights {
    if rng.range(0, 1) == 0 {
        UtilityWeights::default()
    } else {
        UtilityWeights::new(0.5, 0.3, 0.2).expect("weights sum to 1")
    }
}

#[test]
fn kernel_outputs_match_the_recorded_digest() {
    let profiles = Arc::new(ProfileLibrary::generate(&power8_minsky(), 1));
    let kinds = kinds();
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);

    // One machine per case: random co-runners, then `drb_map` over the
    // free GPUs and the scores of its answer.
    for case in 0..MACHINE_CASES {
        let mut rng = SplitMix(case);
        let kind = &kinds[case as usize % kinds.len()];
        let cluster = Arc::new(ClusterTopology::from_machines(vec![Arc::clone(kind)]));
        let mut state = ClusterState::new(cluster, Arc::clone(&profiles));
        let m = MachineId(0);
        let max_width = (kind.n_gpus() / 4).max(1);
        let next_id = place_corunners(&mut state, &mut rng, m, 3, max_width, 1, 1);
        let free = state.free_gpus(m);
        // `placement_utility` reads the best-case Eq. 3 cost, whose first
        // read per width walks every subset of the machine: keep the
        // 96-GPU machine's jobs narrow enough for that walk.
        let widest = if kind.n_gpus() > 32 { 3 } else { 16 };
        let n = rng.range(1, free.len().min(widest));
        let (spec, shape) = job(&mut rng, next_id, n);
        let w = weights(&mut rng);
        let oracle = StateOracle::new(&state, m, &spec);
        let gpus = drb_map(&JobGraph::from_spec(&spec), &free, &oracle, w)
            .expect("the task count fits the free GPUs");
        let interference = oracle.interference(&gpus);
        let frag = oracle.fragmentation_after(&gpus);
        let utility = placement_utility(&state, m, &spec, &gpus, w);
        digest.word(gpus.len() as u64);
        for g in &gpus {
            digest.word(u64::from(g.0));
        }
        digest.word(interference.to_bits());
        digest.word(frag.to_bits());
        digest.word(utility.to_bits());
        println!(
            "case {case}: {} free {:#x} {shape} n={n} gpus {:?} interference {:#018x} \
             frag {:#018x} utility {:#018x} digest {:#018x}",
            kind.name(),
            state.free_mask_bits(m),
            gpus.iter().map(|g| g.0).collect::<Vec<_>>(),
            interference.to_bits(),
            frag.to_bits(),
            utility.to_bits(),
            digest.0
        );
    }

    // The cluster-wide spill: one DRB mapping over every free GPU of a
    // mixed cluster, more than 32 of them, so the top split runs the full
    // ratio-cut sweep with no memo.
    let fleet: Vec<Arc<MachineTopology>> = vec![
        Arc::clone(&kinds[3]),
        Arc::clone(&kinds[3]),
        Arc::clone(&kinds[1]),
        Arc::clone(&kinds[0]),
        Arc::clone(&kinds[2]),
    ];
    let cluster = Arc::new(ClusterTopology::from_machines(fleet));
    for case in 0..SPILL_CASES {
        let mut rng = SplitMix(MACHINE_CASES + case);
        let mut state = ClusterState::new(Arc::clone(&cluster), Arc::clone(&profiles));
        let mut id = 1;
        let machines: Vec<MachineId> = cluster.machines().collect();
        for &m in &machines {
            id = place_corunners(&mut state, &mut rng, m, 2, 3, 1, id);
        }
        let free = state.total_free();
        assert!(free > 32, "spill case {case} keeps {free} GPUs free");
        let n = rng.range(9, 20);
        let (spec, shape) = job(&mut rng, id, n);
        let w = weights(&mut rng);
        let decision = decide_spill(&state, &spec, w).expect("the cluster fits the job");
        digest.word(decision.gpus.len() as u64);
        for g in &decision.gpus {
            digest.word(u64::from(g.machine.0));
            digest.word(u64::from(g.gpu.0));
        }
        digest.word(decision.utility.to_bits());
        println!(
            "spill {case}: free {free} {shape} n={n} gpus {:?} utility {:#018x} digest {:#018x}",
            decision
                .gpus
                .iter()
                .map(|g| (g.machine.0, g.gpu.0))
                .collect::<Vec<_>>(),
            decision.utility.to_bits(),
            digest.0
        );
    }

    assert_eq!(
        digest.0, RECORDED_DIGEST,
        "kernel outputs moved: digest {:#018x}, recorded {RECORDED_DIGEST:#018x}; \
         rerun with --nocapture and diff the case lines against the recording build",
        digest.0
    );
}
