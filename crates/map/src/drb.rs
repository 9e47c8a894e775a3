//! Algorithms 2 & 3 — utility-driven Dual Recursive Bi-partitioning.
//!
//! `DRB(A, P, C)` recursively splits the physical GPU set `P` (Fiduccia–
//! Mattheyses over the affinity graph) and the job's task set `A`
//! (Algorithm 3: each task goes to the sub-partition offering it higher
//! utility, subject to capacity), bottoming out when a sub-partition holds
//! one GPU, which is then assigned the task routed there. Asymptotic cost
//! `Θ(|E_A| · log₂|V_P|)` as in Pellegrini & Roman \[35\].
//!
//! The `C` array of Algorithm 2 — "the communication cost of all GPUs, even
//! the ones not into the sub-partition" — is carried here as a per-task
//! accumulator of communication costs to tasks already routed to *other*
//! sub-partitions, so deeper levels still feel the pull of split-off
//! partners.
//!
//! `physicalGraphBiPartition(P)` reads only the distances between the GPUs
//! of `P`: its winning side is a pure function of the affinity matrix (FM
//! is deterministic and the ratio-cut sweep has a fixed tie rule). For
//! sets of at most 32 GPUs the side is memoized per thread, keyed on the
//! bits of the matrix's upper triangle, so a machine shape seen before
//! skips the whole FM sweep (DESIGN.md §13). Debug builds re-run the sweep
//! on every memo hit and assert the same side.

use crate::affinity::AffinityGraph;
use crate::fm::{fm_bipartition_with, Bipartition, FmScratch};
use crate::utility::UtilityWeights;
use gts_job::JobGraph;
use gts_topo::GpuId;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Largest GPU set whose split is memoized: its side fits a `u32` mask.
/// Larger sets (cluster-wide spill) run the sweep every time.
const SPLIT_MEMO_MAX_N: usize = 32;

/// Split-memo entries kept per thread; the memo is cleared wholesale when
/// an insert would exceed this. A fleet contributes one entry per distinct
/// free-GPU shape it recurses through — a few dozen on a mixed fleet — so
/// the cap only bounds memory: at most ~1 MB per thread, at 32 GPUs a key.
const SPLIT_MEMO_CAP: usize = 256;

/// Word-at-a-time multiplicative hash (the `FxHasher` mixing step) for the
/// split memo's `[u64]` keys. It gives up SipHash's resistance to crafted
/// collisions, but [`SPLIT_MEMO_CAP`] bounds any collision chain.
#[derive(Debug, Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_ne_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }
}

/// Reusable buffers for one thread's [`drb_map`] calls: the FM scratch,
/// pools of affinity-graph buffers (one set per live recursion level —
/// each level returns its buffers before recursing, so the pools stay at
/// depth-of-recursion size), and the split memo.
#[derive(Debug, Default)]
struct DrbScratch {
    fm: FmScratch,
    gpu_bufs: Vec<Vec<GpuId>>,
    weight_bufs: Vec<Vec<f64>>,
    /// `[n, affinity bits of the upper triangle row by row]` → mask of the
    /// GPUs (by index into the set) on the left side of the best split.
    split_memo: HashMap<Box<[u64]>, u32, BuildHasherDefault<WordHasher>>,
    /// Buffer the memo key is built in, so a lookup allocates nothing.
    split_key: Vec<u64>,
}

thread_local! {
    static DRB_SCRATCH: RefCell<DrbScratch> = RefCell::new(DrbScratch::default());
}

/// Live-cluster queries the mapping needs but cannot own (allocation state,
/// running-job profiles). Implemented by the scheduler; tests use mocks.
pub trait PlacementOracle {
    /// Qualitative distance between two GPUs of the candidate set.
    fn distance(&self, a: GpuId, b: GpuId) -> f64;

    /// Eq. 4-style predicted interference were the job to occupy `gpus`:
    /// 1.0 = no interference, smaller is worse (bounded below by ~0.5).
    fn interference(&self, gpus: &[GpuId]) -> f64;

    /// Eq. 5 system fragmentation after hypothetically allocating `gpus`:
    /// 0 = fully utilized domains, 1 = everything free/fragmented.
    fn fragmentation_after(&self, gpus: &[GpuId]) -> f64;
}

/// Why a mapping attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingError {
    /// More tasks than available GPUs (`t_gpu ≤ p_gpu` violated, §4.3).
    InsufficientGpus {
        /// Tasks requested.
        requested: usize,
        /// GPUs available.
        available: usize,
    },
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::InsufficientGpus {
                requested,
                available,
            } => write!(
                f,
                "job requests {requested} GPUs but only {available} are available"
            ),
        }
    }
}

impl std::error::Error for MappingError {}

/// Mean distance between the members of two GPU sets (used to estimate the
/// cost of an edge that crosses sub-partitions). Falls back to 0 for empty
/// sets.
fn mean_cross_distance(oracle: &dyn PlacementOracle, a: &[GpuId], b: &[GpuId]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mut sum = 0.0;
    for &x in a {
        for &y in b {
            sum += oracle.distance(x, y);
        }
    }
    sum / (a.len() * b.len()) as f64
}

/// Mean pairwise distance within one GPU set (0 for sets of size < 2).
fn mean_internal_distance(oracle: &dyn PlacementOracle, gpus: &[GpuId]) -> f64 {
    if gpus.len() < 2 {
        return 0.0;
    }
    let mut sum = 0.0;
    let mut pairs = 0usize;
    for (i, &x) in gpus.iter().enumerate() {
        for &y in &gpus[i + 1..] {
            sum += oracle.distance(x, y);
            pairs += 1;
        }
    }
    sum / pairs as f64
}

/// Algorithm 3: split the tasks in `tasks` between sub-partitions `p0` /
/// `p1`, choosing per task the side with the higher utility, under the
/// capacity constraint. Returns `(tasks0, tasks1, c0, c1)` where the `c`
/// vectors carry each task's accumulated external communication cost.
#[allow(clippy::too_many_arguments)]
fn job_graph_bipartition(
    job: &JobGraph,
    tasks: &[usize],
    c: &[f64],
    p0: &[GpuId],
    p1: &[GpuId],
    oracle: &dyn PlacementOracle,
    weights: UtilityWeights,
) -> (Vec<usize>, Vec<usize>, Vec<f64>, Vec<f64>) {
    // When the whole task set fits one side but not the other, splitting it
    // would push job edges across the *current* boundary — the most
    // expensive cut of the whole recursion — for no capacity reason. Route
    // it wholesale and let the deeper levels arrange it.
    if tasks.len() > p0.len() && tasks.len() <= p1.len() {
        let a1: Vec<usize> = (0..tasks.len()).collect();
        let costs1: Vec<f64> = a1.iter().map(|&s| c[s]).collect();
        return (Vec::new(), tasks.to_vec(), Vec::new(), costs1);
    }
    if tasks.len() > p1.len() && tasks.len() <= p0.len() {
        let a0: Vec<usize> = (0..tasks.len()).collect();
        let costs0: Vec<f64> = a0.iter().map(|&s| c[s]).collect();
        return (tasks.to_vec(), Vec::new(), costs0, Vec::new());
    }

    let d_within0 = mean_internal_distance(oracle, p0).max(1.0);
    let d_within1 = mean_internal_distance(oracle, p1).max(1.0);
    let d_cross = mean_cross_distance(oracle, p0, p1).max(1.0);

    // Per-side placement factors are evaluated once per call (they do not
    // depend on the task): Algorithm 3's getInter()/getFragmentation().
    let i0 = oracle.interference(p0);
    let i1 = oracle.interference(p1);
    let w0 = oracle.fragmentation_after(p0);
    let w1 = oracle.fragmentation_after(p1);

    let mut a0: Vec<usize> = Vec::new();
    let mut a1: Vec<usize> = Vec::new();
    let mut c0 = vec![0.0; tasks.len()];
    let mut c1 = vec![0.0; tasks.len()];

    for (slot, &task) in tasks.iter().enumerate() {
        // getCommCost(): cost of joining each side given the partners
        // already routed.
        let to_a0: f64 = a0.iter().map(|&s| job.weight(task, tasks[s])).sum();
        let to_a1: f64 = a1.iter().map(|&s| job.weight(task, tasks[s])).sum();
        let external = c[slot];
        let tcc0 = to_a0 * d_within0 + to_a1 * d_cross + external;
        let tcc1 = to_a1 * d_within1 + to_a0 * d_cross + external;

        // Utility of each side (Eq. 2 shape: higher is better; the
        // communication term is damped to stay comparable with the unit
        // interference/fragmentation terms).
        let u0 = weights.cc * (1.0 / (1.0 + tcc0)) + weights.b * i0 + weights.d * (1.0 - w0);
        let u1 = weights.cc * (1.0 / (1.0 + tcc1)) + weights.b * i1 + weights.d * (1.0 - w1);

        let cap0 = p0.len();
        let cap1 = p1.len();
        let prefer0 = u0 >= u1;
        if (prefer0 && a0.len() < cap0) || a1.len() >= cap1 {
            a0.push(slot);
        } else {
            a1.push(slot);
        }
    }

    // Accumulate external costs for the recursion: a task in A0 keeps
    // feeling its edges to tasks now fixed in A1 at the cross distance.
    for &s in &a0 {
        let cross: f64 = a1.iter().map(|&t| job.weight(tasks[s], tasks[t])).sum();
        c0[s] = c[s] + cross * d_cross;
    }
    for &s in &a1 {
        let cross: f64 = a0.iter().map(|&t| job.weight(tasks[s], tasks[t])).sum();
        c1[s] = c[s] + cross * d_cross;
    }

    let tasks0: Vec<usize> = a0.iter().map(|&s| tasks[s]).collect();
    let tasks1: Vec<usize> = a1.iter().map(|&s| tasks[s]).collect();
    let costs0: Vec<f64> = a0.iter().map(|&s| c0[s]).collect();
    let costs1: Vec<f64> = a1.iter().map(|&s| c1[s]).collect();
    (tasks0, tasks1, costs0, costs1)
}

/// Algorithm 2: recursive mapping step. `assignment[task] = gpu`.
#[allow(clippy::too_many_arguments)]
fn drb_recurse(
    job: &JobGraph,
    tasks: &[usize],
    c: &[f64],
    gpus: &[GpuId],
    oracle: &dyn PlacementOracle,
    weights: UtilityWeights,
    assignment: &mut [Option<GpuId>],
    scratch: &mut DrbScratch,
) {
    if tasks.is_empty() {
        return; // this partition is not a candidate
    }
    if gpus.len() == 1 {
        debug_assert_eq!(tasks.len(), 1, "capacity was enforced on the way down");
        assignment[tasks[0]] = Some(gpus[0]);
        return;
    }
    if tasks.len() == gpus.len() && tasks.len() <= 2 {
        // Both orderings are equivalent for a 2-clique on 2 GPUs; skip the
        // partitioner for the trivial base case.
        for (&t, &g) in tasks.iter().zip(gpus.iter()) {
            assignment[t] = Some(g);
        }
        return;
    }

    let (p0, p1) = if gpus.len() <= SPLIT_MEMO_MAX_N {
        let mask = memoized_split(gpus, oracle, scratch);
        partition_gpus(gpus, |i| mask & (1 << i) != 0)
    } else {
        let side = ratio_cut_sweep(gpus, oracle, scratch);
        partition_gpus(gpus, |i| side[i])
    };

    let (t0, t1, c0, c1) = job_graph_bipartition(job, tasks, c, &p0, &p1, oracle, weights);
    drb_recurse(job, &t0, &c0, &p0, oracle, weights, assignment, scratch);
    drb_recurse(job, &t1, &c1, &p1, oracle, weights, assignment, scratch);
}

/// physicalGraphBiPartition(P): FM over the affinity graph of `gpus`.
/// Returns the left side of the best split. The natural topology boundary
/// rarely sits exactly at the midpoint (a busy machine may leave 4 free
/// GPUs next to two idle 4-GPU machines), so several split ratios are
/// tried and compared by *ratio cut* — cut / (|left|·|right|) — which is
/// scale-free across imbalances.
fn ratio_cut_sweep(
    gpus: &[GpuId],
    oracle: &dyn PlacementOracle,
    scratch: &mut DrbScratch,
) -> Vec<bool> {
    let n = gpus.len();
    let gpu_buf = scratch.gpu_bufs.pop().unwrap_or_default();
    let weight_buf = scratch.weight_bufs.pop().unwrap_or_default();
    let affinity = AffinityGraph::from_distances_reusing(gpus, gpu_buf, weight_buf, |i, j| {
        oracle.distance(gpus[i], gpus[j])
    });
    // Sweep targets and keep the best ratio cut; on ties the later target
    // wins, matching what `Iterator::min_by` over the collected sweep did.
    let mut best: Option<Bipartition> = None;
    let mut best_ratio = f64::INFINITY;
    let mut try_target = |t: usize, fm: &mut FmScratch| {
        let candidate = fm_bipartition_with(&affinity, t, 3, fm);
        let left = candidate.side.iter().filter(|&&s| s).count();
        let ratio = candidate.cut / (left * (n - left)) as f64;
        assert!(ratio.is_finite(), "finite ratio cuts");
        if best.is_none() || ratio <= best_ratio {
            best_ratio = ratio;
            best = Some(candidate);
        }
    };
    if n <= 32 {
        for t in 1..n {
            try_target(t, &mut scratch.fm);
        }
    } else {
        // A 15-point sweep keeps large (cluster-wide spill) instances
        // tractable while still straddling machine-sized boundaries. For
        // n > 32 the points are strictly increasing and interior, so no
        // dedup or range filter is needed.
        for k in 1..16 {
            try_target(k * n / 16, &mut scratch.fm);
        }
    }
    // The graph is done before the recursion goes on: hand its buffers
    // back so the child levels (and the next drb_map call) reuse them.
    let (gpu_buf, weight_buf) = affinity.into_buffers();
    scratch.gpu_bufs.push(gpu_buf);
    scratch.weight_bufs.push(weight_buf);
    best.expect("at least one target is valid for n ≥ 2").side
}

/// [`ratio_cut_sweep`] through the thread's split memo, for sets of at most
/// [`SPLIT_MEMO_MAX_N`] GPUs. Returns the left side as a mask over indices
/// into `gpus`.
fn memoized_split(gpus: &[GpuId], oracle: &dyn PlacementOracle, scratch: &mut DrbScratch) -> u32 {
    let n = gpus.len();
    let mut key = std::mem::take(&mut scratch.split_key);
    key.clear();
    key.push(n as u64);
    for (i, &a) in gpus.iter().enumerate() {
        for &b in &gpus[i + 1..] {
            let d = oracle.distance(a, b);
            assert!(d > 0.0, "distinct vertices need positive distance");
            key.push((1.0 / d).to_bits());
        }
    }
    let mask = match scratch.split_memo.get(key.as_slice()) {
        Some(&mask) => {
            #[cfg(debug_assertions)]
            assert_eq!(
                mask,
                side_mask(&ratio_cut_sweep(gpus, oracle, scratch)),
                "stale split memo entry for {gpus:?}"
            );
            mask
        }
        None => {
            let mask = side_mask(&ratio_cut_sweep(gpus, oracle, scratch));
            if scratch.split_memo.len() >= SPLIT_MEMO_CAP {
                scratch.split_memo.clear();
            }
            scratch.split_memo.insert(key.as_slice().into(), mask);
            mask
        }
    };
    scratch.split_key = key;
    mask
}

/// Packs a side assignment of at most 32 vertices into a mask.
fn side_mask(side: &[bool]) -> u32 {
    side.iter()
        .enumerate()
        .filter(|&(_, &left)| left)
        .fold(0, |m, (i, _)| m | 1 << i)
}

/// Splits `gpus` into `(left, right)` by index, keeping their order.
fn partition_gpus(gpus: &[GpuId], left: impl Fn(usize) -> bool) -> (Vec<GpuId>, Vec<GpuId>) {
    let mut p0 = Vec::new();
    let mut p1 = Vec::new();
    for (i, &g) in gpus.iter().enumerate() {
        if left(i) {
            p0.push(g);
        } else {
            p1.push(g);
        }
    }
    (p0, p1)
}

/// Entries in the calling thread's split memo (0 while a mapping runs on
/// it). Exposed for tests that check the memo warms and wraps.
pub fn split_memo_len() -> usize {
    DRB_SCRATCH.with(|cell| cell.try_borrow().map_or(0, |s| s.split_memo.len()))
}

/// Maps a job's communication graph onto the available GPUs.
///
/// Returns `gpus[task]` — one GPU per task, all distinct. Errors when the
/// capacity constraint `|A| ≤ |P|` does not hold.
pub fn drb_map(
    job: &JobGraph,
    available: &[GpuId],
    oracle: &dyn PlacementOracle,
    weights: UtilityWeights,
) -> Result<Vec<GpuId>, MappingError> {
    let n = job.n_tasks();
    if n > available.len() {
        return Err(MappingError::InsufficientGpus {
            requested: n,
            available: available.len(),
        });
    }
    let tasks: Vec<usize> = (0..n).collect();
    let c = vec![0.0; n];
    let mut assignment: Vec<Option<GpuId>> = vec![None; n];
    DRB_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut s) => {
            drb_recurse(
                job,
                &tasks,
                &c,
                available,
                oracle,
                weights,
                &mut assignment,
                &mut s,
            );
        }
        // Re-entrant call (an oracle callback mapping again): fall back to
        // a fresh scratch rather than panicking on the RefCell.
        Err(_) => drb_recurse(
            job,
            &tasks,
            &c,
            available,
            oracle,
            weights,
            &mut assignment,
            &mut DrbScratch::default(),
        ),
    });
    let out: Vec<GpuId> = assignment
        .into_iter()
        .map(|a| a.expect("every task is assigned by the recursion"))
        .collect();
    debug_assert!(
        {
            let mut sorted = out.clone();
            sorted.sort_unstable();
            sorted.windows(2).all(|w| w[0] != w[1])
        },
        "assignments must be distinct"
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_topo::{power8_minsky, MachineTopology};

    /// Oracle over a bare machine: no running jobs, all sockets empty.
    struct BareMachine<'a> {
        machine: &'a MachineTopology,
        /// Sockets already hosting foreign work (for interference tests).
        busy_sockets: Vec<gts_topo::SocketId>,
    }

    impl PlacementOracle for BareMachine<'_> {
        fn distance(&self, a: GpuId, b: GpuId) -> f64 {
            self.machine.distance(a, b)
        }
        fn interference(&self, gpus: &[GpuId]) -> f64 {
            let touches_busy = gpus
                .iter()
                .any(|&g| self.busy_sockets.contains(&self.machine.socket_of(g)));
            if touches_busy {
                0.7
            } else {
                1.0
            }
        }
        fn fragmentation_after(&self, _gpus: &[GpuId]) -> f64 {
            0.5
        }
    }

    fn bare(machine: &MachineTopology) -> BareMachine<'_> {
        BareMachine {
            machine,
            busy_sockets: vec![],
        }
    }

    #[test]
    fn two_gpu_job_packs_into_one_socket() {
        let m = power8_minsky();
        let oracle = bare(&m);
        let job = JobGraph::uniform(2, 4.0);
        let all: Vec<GpuId> = m.gpus().collect();
        let g = drb_map(&job, &all, &oracle, UtilityWeights::default()).unwrap();
        assert_eq!(g.len(), 2);
        assert!(m.is_packed(&g), "got {g:?}");
    }

    #[test]
    fn two_gpu_job_avoids_the_busy_socket() {
        let m = power8_minsky();
        let oracle = BareMachine {
            machine: &m,
            busy_sockets: vec![gts_topo::SocketId(0)],
        };
        let job = JobGraph::uniform(2, 4.0);
        let all: Vec<GpuId> = m.gpus().collect();
        let g = drb_map(&job, &all, &oracle, UtilityWeights::default()).unwrap();
        // Socket 1's GPUs are 2 and 3.
        let mut got = g.clone();
        got.sort_unstable();
        assert_eq!(got, vec![GpuId(2), GpuId(3)], "should pick the idle socket");
    }

    #[test]
    fn four_gpu_job_takes_the_whole_machine() {
        let m = power8_minsky();
        let oracle = bare(&m);
        let job = JobGraph::uniform(4, 3.0);
        let all: Vec<GpuId> = m.gpus().collect();
        let g = drb_map(&job, &all, &oracle, UtilityWeights::default()).unwrap();
        let mut got = g.clone();
        got.sort_unstable();
        assert_eq!(got, all);
    }

    #[test]
    fn single_task_job_maps_to_one_gpu() {
        let m = power8_minsky();
        let oracle = bare(&m);
        let job = JobGraph::uniform(1, 0.0);
        let all: Vec<GpuId> = m.gpus().collect();
        let g = drb_map(&job, &all, &oracle, UtilityWeights::default()).unwrap();
        assert_eq!(g.len(), 1);
        assert!(all.contains(&g[0]));
    }

    #[test]
    fn fragmented_availability_still_maps() {
        let m = power8_minsky();
        let oracle = bare(&m);
        let job = JobGraph::uniform(2, 4.0);
        // Only one GPU per socket available: the dreaded Fig. 8 situation.
        let avail = [GpuId(1), GpuId(2)];
        let g = drb_map(&job, &avail, &oracle, UtilityWeights::default()).unwrap();
        let mut got = g.clone();
        got.sort_unstable();
        assert_eq!(got, vec![GpuId(1), GpuId(2)]);
        assert!(!m.is_packed(&got), "placement is necessarily spread");
    }

    #[test]
    fn insufficient_capacity_is_an_error() {
        let m = power8_minsky();
        let oracle = bare(&m);
        let job = JobGraph::uniform(3, 4.0);
        let avail = [GpuId(0), GpuId(1)];
        let err = drb_map(&job, &avail, &oracle, UtilityWeights::default()).unwrap_err();
        assert_eq!(
            err,
            MappingError::InsufficientGpus {
                requested: 3,
                available: 2
            }
        );
    }

    #[test]
    fn assignments_are_distinct_gpus() {
        let m = gts_topo::symmetric_machine("m", 2, 4, gts_topo::LinkProfile::nvlink_dual());
        let oracle = bare(&m);
        for n in 1..=8usize {
            let job = JobGraph::uniform(n, 2.0);
            let all: Vec<GpuId> = m.gpus().collect();
            let g = drb_map(&job, &all, &oracle, UtilityWeights::default()).unwrap();
            let mut sorted = g.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), n, "duplicate GPUs for n={n}: {g:?}");
        }
    }

    #[test]
    fn pipeline_job_splits_at_a_chain_boundary() {
        // A 4-stage pipeline on a 4-GPU Minsky must cut exactly one chain
        // edge at the socket boundary: consecutive stages stay together.
        let m = power8_minsky();
        let oracle = bare(&m);
        let job = JobGraph::pipeline(4, 4.0);
        let all: Vec<GpuId> = m.gpus().collect();
        let g = drb_map(&job, &all, &oracle, UtilityWeights::default()).unwrap();
        let mut cross_edges = 0;
        for (i, j, _) in job.edges() {
            if m.socket_of(g[i]) != m.socket_of(g[j]) {
                cross_edges += 1;
            }
        }
        assert_eq!(
            cross_edges, 1,
            "mapping {g:?} cuts {cross_edges} chain edges"
        );
    }

    #[test]
    fn ring_job_cuts_at_most_two_edges() {
        let m = power8_minsky();
        let oracle = bare(&m);
        let job = JobGraph::ring(4, 4.0);
        let all: Vec<GpuId> = m.gpus().collect();
        let g = drb_map(&job, &all, &oracle, UtilityWeights::default()).unwrap();
        let cross = job
            .edges()
            .filter(|&(i, j, _)| m.socket_of(g[i]) != m.socket_of(g[j]))
            .count();
        assert!(
            cross <= 2,
            "a 4-ring over 2 sockets needs at most 2 cuts, got {cross}"
        );
    }

    #[test]
    fn three_tasks_on_eight_gpus_stay_on_one_socket() {
        let m = gts_topo::symmetric_machine("m", 2, 4, gts_topo::LinkProfile::nvlink_dual());
        let oracle = bare(&m);
        let job = JobGraph::uniform(3, 4.0);
        let all: Vec<GpuId> = m.gpus().collect();
        let g = drb_map(&job, &all, &oracle, UtilityWeights::default()).unwrap();
        assert!(m.is_packed(&g), "3 tasks fit a 4-GPU socket: {g:?}");
    }
}
