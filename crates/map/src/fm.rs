//! Fiduccia–Mattheyses bipartitioning \[15\].
//!
//! `physicalGraphBiPartition()` splits the available GPUs into two coherent
//! halves by minimizing the affinity crossing the cut. This is the classic
//! FM pass structure: every vertex is moved at most once per pass in order
//! of best gain (subject to a balance corridor), the best balanced prefix of
//! the move sequence is kept, and passes repeat until a pass yields no
//! improvement.
//!
//! Affinity weights are real-valued, so instead of integer gain buckets we
//! keep a gain array and select the maximum by scan — `O(n)` per move,
//! `O(n²)` per pass, which at topology sizes (≤ tens of GPUs per machine,
//! hundreds of machines) is comfortably below a microsecond-to-millisecond
//! budget and preserves FM's pass semantics exactly.

use crate::affinity::AffinityGraph;
use std::cell::RefCell;

/// Result of a bipartition: `side[i]` is `true` when vertex `i` landed in
/// the left part.
#[derive(Debug, Clone, PartialEq)]
pub struct Bipartition {
    /// Side assignment per vertex (`true` = left).
    pub side: Vec<bool>,
    /// Total affinity crossing the cut.
    pub cut: f64,
}

impl Bipartition {
    /// Vertex indices of the left part.
    pub fn left(&self) -> Vec<usize> {
        (0..self.side.len()).filter(|&i| self.side[i]).collect()
    }

    /// Vertex indices of the right part.
    pub fn right(&self) -> Vec<usize> {
        (0..self.side.len()).filter(|&i| !self.side[i]).collect()
    }
}

/// Reusable buffers for [`fm_bipartition_with`]: one allocation set per
/// thread instead of per call. The DRB recursion runs FM once per split
/// ratio per level, so the per-call seed/gain/lock vectors dominated the
/// mapper's allocation profile before hoisting them here.
#[derive(Debug, Default)]
pub struct FmScratch {
    /// The four deterministic multi-start seed partitions.
    seeds: [Vec<bool>; 4],
    /// Best side assignment of the seed currently being refined.
    best_side: Vec<bool>,
    /// Per-pass move locks.
    locked: Vec<bool>,
    /// Working side assignment during a pass.
    cur_side: Vec<bool>,
    /// Incrementally maintained move gains.
    gains: Vec<f64>,
    /// Move sequence of the current pass.
    moves: Vec<usize>,
    /// Staging buffer for adopting the best balanced prefix.
    adopted: Vec<bool>,
    /// Side assignment of the best seed seen so far.
    winner: Vec<bool>,
}

impl FmScratch {
    /// Writes the four deterministic seed partitions (prefix, suffix,
    /// interleaved, greedy-affinity) into `self.seeds`, reusing their
    /// buffers.
    fn fill_seeds(&mut self, g: &AffinityGraph, target_left: usize) {
        let n = g.len();
        // Prefix: the first `target_left` vertices.
        self.seeds[0].clear();
        self.seeds[0].extend((0..n).map(|i| i < target_left));
        // Suffix: the last `target_left` vertices.
        self.seeds[1].clear();
        self.seeds[1].extend((0..n).map(|i| i >= n - target_left));
        // Interleaved: evens first (a deliberately scrambled seed).
        self.seeds[2].clear();
        self.seeds[2].resize(n, false);
        for v in (0..n).step_by(2).chain((1..n).step_by(2)).take(target_left) {
            self.seeds[2][v] = true;
        }
        // Greedy: grow the left side from vertex 0 by max affinity to the set.
        self.seeds[3].clear();
        self.seeds[3].resize(n, false);
        self.seeds[3][0] = true;
        for _ in 1..target_left {
            let in_left = &self.seeds[3];
            let pick = (0..n)
                .filter(|&v| !in_left[v])
                .max_by(|&a, &b| {
                    let fa = g.affinity_to_side(a, in_left, true);
                    let fb = g.affinity_to_side(b, in_left, true);
                    fa.partial_cmp(&fb).expect("finite").then(b.cmp(&a))
                })
                .expect("vertices remain");
            self.seeds[3][pick] = true;
        }
    }
}

/// Gain of moving vertex `v` to the opposite side: external minus internal
/// affinity. Positive gain reduces the cut.
fn gain(g: &AffinityGraph, side: &[bool], v: usize) -> f64 {
    let mut internal = 0.0;
    let mut external = 0.0;
    for j in 0..g.len() {
        if j == v {
            continue;
        }
        let a = g.affinity(v, j);
        if side[j] == side[v] {
            internal += a;
        } else {
            external += a;
        }
    }
    external - internal
}

/// Bipartitions `g` into a left part of exactly `target_left` vertices and
/// its complement, minimizing the cut affinity.
///
/// ```
/// use gts_map::{fm_bipartition, AffinityGraph};
/// use gts_topo::power8_minsky;
///
/// let machine = power8_minsky();
/// let gpus: Vec<_> = machine.gpus().collect();
/// let graph = AffinityGraph::from_machine(&machine, &gpus);
/// let split = fm_bipartition(&graph, 2, 3);
/// // The NVLink pairs end up on the same side: the cut crosses only the
/// // four weak inter-socket couplings.
/// assert_eq!(split.side[0], split.side[1]);
/// assert_eq!(split.side[2], split.side[3]);
/// ```
///
/// Runs up to `max_passes` FM passes (2–4 suffice in practice; SCOTCH
/// defaults to a small constant too) from several deterministic initial
/// partitions (multi-start guards against the local minima single-seed FM
/// is known for). Deterministic: ties break on vertex index.
///
/// # Panics
///
/// Panics unless `0 < target_left < g.len()`.
pub fn fm_bipartition(g: &AffinityGraph, target_left: usize, max_passes: usize) -> Bipartition {
    thread_local! {
        static SCRATCH: RefCell<FmScratch> = RefCell::new(FmScratch::default());
    }
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut s) => fm_bipartition_with(g, target_left, max_passes, &mut s),
        // Re-entrant call (an oracle callback partitioning again): fall
        // back to a fresh scratch rather than panicking on the RefCell.
        Err(_) => fm_bipartition_with(g, target_left, max_passes, &mut FmScratch::default()),
    })
}

/// [`fm_bipartition`] with caller-owned scratch buffers — the allocation-free
/// path the DRB recursion drives. Identical results to `fm_bipartition`.
///
/// # Panics
///
/// Panics unless `0 < target_left < g.len()`.
pub fn fm_bipartition_with(
    g: &AffinityGraph,
    target_left: usize,
    max_passes: usize,
    s: &mut FmScratch,
) -> Bipartition {
    let n = g.len();
    assert!(
        target_left > 0 && target_left < n,
        "target_left must split the graph, got {target_left} of {n}"
    );

    // Multi-start: prefix, suffix, interleaved, and greedy-affinity seeds.
    s.fill_seeds(g, target_left);
    let mut best_cut = f64::INFINITY;
    let mut have_best = false;
    for k in 0..s.seeds.len() {
        let cut = fm_from_seed(g, target_left, max_passes, s, k);
        if !have_best || cut < best_cut - 1e-12 {
            best_cut = cut;
            s.winner.clone_from(&s.best_side);
            have_best = true;
        }
    }
    assert!(have_best, "at least one seed partition");
    Bipartition {
        side: s.winner.clone(),
        cut: best_cut,
    }
}

/// The classic FM pass loop from seed partition `s.seeds[k]`. Leaves the
/// refined side assignment in `s.best_side` and returns its cut.
fn fm_from_seed(
    g: &AffinityGraph,
    target_left: usize,
    max_passes: usize,
    s: &mut FmScratch,
    k: usize,
) -> f64 {
    let n = g.len();
    s.best_side.clone_from(&s.seeds[k]);
    let mut best_cut = g.cut(&s.best_side);

    for _ in 0..max_passes {
        let pass_start_cut = best_cut;
        s.locked.clear();
        s.locked.resize(n, false);
        s.cur_side.clone_from(&s.best_side);
        let mut cur_cut = best_cut;
        let mut left_count = target_left;

        // Balance corridor during the pass: ±1 around the target so moves in
        // both directions stay possible; only exactly-balanced prefixes are
        // eligible as results.
        s.moves.clear();
        let mut best_prefix: Option<(usize, f64)> = None;
        // Gains are maintained incrementally: O(n²) to seed, O(n) per move.
        s.gains.clear();
        for v in 0..n {
            let gv = gain(g, &s.cur_side, v);
            s.gains.push(gv);
        }
        for _ in 0..n {
            // Pick the unlocked vertex with max gain whose move keeps the
            // corridor.
            let mut pick: Option<(usize, f64)> = None;
            for v in 0..n {
                if s.locked[v] {
                    continue;
                }
                let new_left = if s.cur_side[v] {
                    left_count - 1
                } else {
                    left_count + 1
                };
                if new_left + 1 < target_left
                    || new_left > target_left + 1
                    || new_left == 0
                    || new_left == n
                {
                    continue;
                }
                let gv = s.gains[v];
                match pick {
                    Some((_, best_g)) if gv <= best_g => {}
                    _ => pick = Some((v, gv)),
                }
            }
            let Some((v, gv)) = pick else { break };
            // Flip v and patch neighbour gains: a vertex that shared v's old
            // side gains 2·a(u,v) (that edge turns external), the other side
            // loses it.
            for u in 0..n {
                if u == v {
                    continue;
                }
                let a = g.affinity(u, v);
                if s.cur_side[u] == s.cur_side[v] {
                    s.gains[u] += 2.0 * a;
                } else {
                    s.gains[u] -= 2.0 * a;
                }
            }
            s.cur_side[v] = !s.cur_side[v];
            s.gains[v] = -gv;
            left_count = if s.cur_side[v] {
                left_count + 1
            } else {
                left_count - 1
            };
            cur_cut -= gv;
            s.locked[v] = true;
            s.moves.push(v);
            if left_count == target_left && best_prefix.is_none_or(|(_, c)| cur_cut < c) {
                best_prefix = Some((s.moves.len(), cur_cut));
            }
        }

        // Adopt the best balanced prefix if it improves on the pass start.
        if let Some((prefix_len, cut)) = best_prefix {
            if cut + 1e-12 < best_cut {
                s.adopted.clone_from(&s.best_side);
                for &v in &s.moves[..prefix_len] {
                    s.adopted[v] = !s.adopted[v];
                }
                std::mem::swap(&mut s.best_side, &mut s.adopted);
                best_cut = cut;
            }
        }

        if best_cut + 1e-12 >= pass_start_cut {
            break; // pass converged
        }
    }

    best_cut
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_topo::{power8_minsky, symmetric_machine, GpuId, LinkProfile};

    #[test]
    fn minsky_splits_along_the_socket_boundary() {
        let m = power8_minsky();
        let gpus: Vec<GpuId> = m.gpus().collect();
        let g = AffinityGraph::from_machine(&m, &gpus);
        let p = fm_bipartition(&g, 2, 4);
        // The two NVLink pairs must stay together.
        assert_eq!(p.side[0], p.side[1], "GPU0/GPU1 separated");
        assert_eq!(p.side[2], p.side[3], "GPU2/GPU3 separated");
        assert_ne!(p.side[0], p.side[2]);
        assert!((p.cut - 4.0 / 22.0).abs() < 1e-9);
    }

    #[test]
    fn adversarial_initial_partition_is_repaired() {
        // Order the GPUs so the naive initial split is the worst case:
        // [GPU0, GPU2, GPU1, GPU3] puts one GPU of each socket left.
        let m = power8_minsky();
        let order = [GpuId(0), GpuId(2), GpuId(1), GpuId(3)];
        let g = AffinityGraph::from_machine(&m, &order);
        let p = fm_bipartition(&g, 2, 4);
        // Vertices 0 (GPU0) and 2 (GPU1) must end together.
        assert_eq!(p.side[0], p.side[2]);
        assert_eq!(p.side[1], p.side[3]);
        assert!((p.cut - 4.0 / 22.0).abs() < 1e-9);
    }

    #[test]
    fn four_socket_machine_splits_socket_coherently() {
        let m = symmetric_machine("quad", 4, 2, LinkProfile::nvlink_dual());
        let gpus: Vec<GpuId> = m.gpus().collect();
        let g = AffinityGraph::from_machine(&m, &gpus);
        let p = fm_bipartition(&g, 4, 4);
        // Sibling pairs (2k, 2k+1) stay together.
        for k in 0..4 {
            assert_eq!(p.side[2 * k], p.side[2 * k + 1], "socket {k} split");
        }
    }

    #[test]
    fn odd_sized_sets_split_to_requested_sizes() {
        let m = power8_minsky();
        let gpus = [GpuId(0), GpuId(1), GpuId(2)];
        let g = AffinityGraph::from_machine(&m, &gpus);
        let p = fm_bipartition(&g, 2, 4);
        assert_eq!(p.left().len(), 2);
        assert_eq!(p.right().len(), 1);
        // The NVLink pair sticks together; GPU2 is the singleton.
        assert_eq!(p.side[0], p.side[1]);
        assert_ne!(p.side[2], p.side[0]);
    }

    #[test]
    fn two_vertices_split_trivially() {
        let m = power8_minsky();
        let g = AffinityGraph::from_machine(&m, &[GpuId(0), GpuId(2)]);
        let p = fm_bipartition(&g, 1, 4);
        assert_eq!(p.left().len(), 1);
        assert_eq!(p.right().len(), 1);
        assert!((p.cut - 1.0 / 22.0).abs() < 1e-9);
    }

    #[test]
    fn cut_matches_partition_recomputation() {
        let m = symmetric_machine("m", 2, 4, LinkProfile::nvlink_dual());
        let gpus: Vec<GpuId> = m.gpus().collect();
        let g = AffinityGraph::from_machine(&m, &gpus);
        let p = fm_bipartition(&g, 4, 4);
        assert!((p.cut - g.cut(&p.side)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must split")]
    fn degenerate_target_rejected() {
        let m = power8_minsky();
        let g = AffinityGraph::from_machine(&m, &[GpuId(0), GpuId(1)]);
        fm_bipartition(&g, 0, 4);
    }

    #[test]
    fn deterministic_across_calls() {
        let m = symmetric_machine("m", 3, 3, LinkProfile::nvlink_dual());
        let gpus: Vec<GpuId> = m.gpus().collect();
        let g = AffinityGraph::from_machine(&m, &gpus);
        let a = fm_bipartition(&g, 4, 4);
        let b = fm_bipartition(&g, 4, 4);
        assert_eq!(a, b);
    }

    /// A scratch reused across graphs of different sizes and targets must
    /// give bit-identical results to fresh scratch per call: no stale
    /// buffer contents may leak between runs.
    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        let big = symmetric_machine("big", 4, 4, LinkProfile::nvlink_dual());
        let small = power8_minsky();
        let big_gpus: Vec<GpuId> = big.gpus().collect();
        let small_gpus: Vec<GpuId> = small.gpus().collect();
        let gb = AffinityGraph::from_machine(&big, &big_gpus);
        let gs = AffinityGraph::from_machine(&small, &small_gpus);

        let mut reused = FmScratch::default();
        // Interleave shapes so every buffer shrinks and regrows.
        for (g, targets) in [(&gb, 1..16usize), (&gs, 1..4usize)] {
            for t in targets {
                let with_reuse = fm_bipartition_with(g, t, 4, &mut reused);
                let fresh = fm_bipartition_with(g, t, 4, &mut FmScratch::default());
                assert_eq!(with_reuse, fresh, "target {t}");
                assert_eq!(
                    with_reuse.cut.to_bits(),
                    fresh.cut.to_bits(),
                    "cut bits diverged at target {t}"
                );
            }
        }
        // And the big graph again after the small one shrank the buffers.
        let again = fm_bipartition_with(&gb, 8, 4, &mut reused);
        assert_eq!(
            again,
            fm_bipartition_with(&gb, 8, 4, &mut FmScratch::default())
        );
    }
}
