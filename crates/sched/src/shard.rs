//! Machine-partition sharding for datacenter-scale scheduling.
//!
//! At 4k–10k machines the flat Algorithm 1 arrival path stops scaling: even
//! with the equivalence-class engine and the cross-event cache, every
//! decision still walks the whole cluster to enumerate candidates and
//! allocates per-candidate bookkeeping. Sharding splits the cluster into
//! contiguous machine partitions (rack-aligned by default — rack locality
//! is what the §3 topology model already optimizes inside) and keeps cheap
//! per-shard aggregates so a decision becomes two levels:
//!
//! 1. **Global admission** — O(shards): consult the per-shard free-GPU
//!    histogram to skip every shard that cannot host the job at all;
//! 2. **Shard-local placement** — the existing class-grouped evaluation
//!    runs only over admitted shards, with one shared [`crate::EvalCache`].
//!
//! The aggregates are maintained O(1) per GPU on every
//! `place`/`release`/failure by [`crate::ClusterState`], re-derived from
//! scratch by `audit()` check 8 (and therefore shadow-recomputed after
//! every mutation in debug builds). Shards are always *contiguous,
//! ascending* machine-id ranges, so concatenating the shards' members
//! reproduces the flat ascending candidate order — the keystone of the
//! sharded-vs-flat bit-identity argument (DESIGN.md §10).

use gts_topo::{ClusterTopology, MachineId};
use std::sync::atomic::{AtomicU64, Ordering};

/// How to partition the cluster's machines into shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardSpec {
    /// Rack-aligned: each contiguous run of equal rack ids becomes one
    /// shard (a single shard on flat fabrics — the pre-shard reference).
    Auto,
    /// `n` equal contiguous chunks (clamped to `1..=n_machines`). `1` is
    /// the single-shard reference path.
    Count(usize),
}

/// The incremental shard index: the machine→shard partition plus the
/// admission aggregates (per-shard free-GPU histogram and totals).
///
/// The partition is immutable for the life of the state; the aggregates
/// track every `place`/`release`/failure O(1) per touched GPU. Admission
/// counters are atomics so the read-only decision path can record how many
/// shards it skipped without `&mut`.
#[derive(Debug)]
pub struct ShardIndex {
    /// Machine index → shard index.
    shard_of: Vec<u32>,
    /// Per-shard member machines, ascending; shards are contiguous id
    /// ranges, so concatenating members reproduces `0..n_machines`.
    members: Vec<Vec<MachineId>>,
    /// `hist[s][k]` — machines of shard `s` with exactly `k` free GPUs
    /// (down machines count as 0 free). `k` ranges to the widest machine.
    hist: Vec<Vec<u32>>,
    /// `idle_hist[s][k]` — machines of shard `s` that are *idle* (every GPU
    /// free, i.e. free == width; down machines are never idle) and have `k`
    /// GPUs. Split out of `hist` because the utility bound treats idle
    /// machines differently: an idle host has no co-runners, so `u_b = 1`
    /// is achievable there, while an occupied machine in bucket `k` hosts
    /// at least one co-runner.
    idle_hist: Vec<Vec<u32>>,
    /// Installed GPU count per machine (static).
    width_of: Vec<u32>,
    /// Widest machine per shard (static).
    max_width: Vec<u32>,
    /// Distinct topology-class ids present in each shard, ascending
    /// (static — the partition and the machines never change).
    classes: Vec<Vec<u32>>,
    /// Per topology class: `(n_sockets, widest socket's GPU count)` for the
    /// pigeonhole `u_d` bound (static, indexed by class id).
    class_geom: Vec<(u32, u32)>,
    /// Free GPUs per shard (Σ k·hist\[s\]\[k\]).
    free_total: Vec<usize>,
    /// Free GPUs across the cluster.
    cluster_free: usize,
    /// Per-shard mutation counters: bumped whenever a member machine's
    /// class key is rebuilt. `(epoch, version)` uniquely identifies a
    /// shard's contents for the cross-decision shard memo
    /// ([`crate::EvalCache`]); an unchanged pair proves no member's
    /// eval-relevant state moved.
    versions: Vec<u64>,
    /// Sum of all per-shard version bumps — the O(1) "did *anything*
    /// eval-relevant move since this stamp?" probe behind the decision
    /// replay fast path (DESIGN.md §12). Equal totals under an equal epoch
    /// prove equal per-shard version vectors (versions only ever grow).
    total_version: u64,
    /// Process-unique id for this index instance, fresh on build *and* on
    /// clone, so two indices can never alias each other's version space
    /// even when their counters coincide.
    epoch: u64,
    /// Shards examined by admission passes.
    admission_checked: AtomicU64,
    /// Shards skipped by admission (no machine wide enough for the job).
    admission_skipped: AtomicU64,
    /// Memo-miss shards whose utility bound was consulted.
    bound_checked: AtomicU64,
    /// Memo-miss shards skipped because the bound proved them
    /// uncompetitive (branch-and-bound prune).
    bound_pruned: AtomicU64,
}

/// Allocates a process-unique epoch id (never reused, never 0).
fn next_epoch() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Clone for ShardIndex {
    fn clone(&self) -> Self {
        Self {
            shard_of: self.shard_of.clone(),
            members: self.members.clone(),
            hist: self.hist.clone(),
            idle_hist: self.idle_hist.clone(),
            width_of: self.width_of.clone(),
            max_width: self.max_width.clone(),
            classes: self.classes.clone(),
            class_geom: self.class_geom.clone(),
            free_total: self.free_total.clone(),
            cluster_free: self.cluster_free,
            versions: self.versions.clone(),
            total_version: self.total_version,
            // A clone diverges from its source from here on; a shared epoch
            // would let both advance the same (epoch, version) pairs with
            // different contents and poison each other's memo entries.
            epoch: next_epoch(),
            admission_checked: AtomicU64::new(self.admission_checked.load(Ordering::Relaxed)),
            admission_skipped: AtomicU64::new(self.admission_skipped.load(Ordering::Relaxed)),
            bound_checked: AtomicU64::new(self.bound_checked.load(Ordering::Relaxed)),
            bound_pruned: AtomicU64::new(self.bound_pruned.load(Ordering::Relaxed)),
        }
    }
}

impl ShardIndex {
    /// Builds the index for `cluster` under `spec`, reading each machine's
    /// current free-GPU count from `free_count`.
    pub fn build(
        cluster: &ClusterTopology,
        spec: ShardSpec,
        free_count: impl Fn(MachineId) -> usize,
    ) -> Self {
        let n = cluster.n_machines();
        let shard_of: Vec<u32> = match spec {
            ShardSpec::Auto => {
                // Contiguous runs of equal rack id become shards, so even a
                // cluster whose rack labels interleave still yields
                // contiguous (if more numerous) shards.
                let mut ids = Vec::with_capacity(n);
                let mut shard = 0u32;
                let mut prev_rack: Option<u32> = None;
                for m in cluster.machines() {
                    let rack = cluster.rack_of(m);
                    if prev_rack.is_some_and(|p| p != rack) {
                        shard += 1;
                    }
                    prev_rack = Some(rack);
                    ids.push(shard);
                }
                ids
            }
            ShardSpec::Count(c) => {
                let c = c.clamp(1, n.max(1));
                let chunk = n.div_ceil(c).max(1);
                (0..n).map(|i| (i / chunk) as u32).collect()
            }
        };
        let n_shards = shard_of.last().map_or(0, |&s| s as usize + 1);
        let width = cluster
            .machines()
            .map(|m| cluster.machine(m).n_gpus())
            .max()
            .unwrap_or(0);
        let mut members = vec![Vec::new(); n_shards];
        let mut hist = vec![vec![0u32; width + 1]; n_shards];
        let mut idle_hist = vec![vec![0u32; width + 1]; n_shards];
        let mut width_of = vec![0u32; n];
        let mut max_width = vec![0u32; n_shards];
        let mut classes = vec![Vec::new(); n_shards];
        let mut class_geom = vec![(0u32, 0u32); cluster.n_machine_classes()];
        let mut free_total = vec![0usize; n_shards];
        let mut cluster_free = 0usize;
        for m in cluster.machines() {
            let s = shard_of[m.index()] as usize;
            let free = free_count(m);
            let topo = cluster.machine(m);
            let w = topo.n_gpus();
            let class = cluster.machine_class(m);
            members[s].push(m);
            hist[s][free] += 1;
            if free == w {
                idle_hist[s][free] += 1;
            }
            width_of[m.index()] = w as u32;
            max_width[s] = max_width[s].max(w as u32);
            if !classes[s].contains(&class) {
                classes[s].push(class);
            }
            let max_socket = topo
                .sockets()
                .map(|sk| topo.gpus_in_socket(sk).len())
                .max()
                .unwrap_or(0);
            class_geom[class as usize] = (topo.n_sockets() as u32, max_socket as u32);
            free_total[s] += free;
            cluster_free += free;
        }
        for cs in &mut classes {
            cs.sort_unstable();
        }
        Self {
            shard_of,
            members,
            hist,
            idle_hist,
            width_of,
            max_width,
            classes,
            class_geom,
            free_total,
            cluster_free,
            versions: vec![0; n_shards],
            total_version: 0,
            epoch: next_epoch(),
            admission_checked: AtomicU64::new(0),
            admission_skipped: AtomicU64::new(0),
            bound_checked: AtomicU64::new(0),
            bound_pruned: AtomicU64::new(0),
        }
    }

    /// The index's process-unique epoch (see the field docs).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The shard's mutation counter: advances every time a member
    /// machine's class key is rebuilt.
    pub fn version(&self, shard: usize) -> u64 {
        self.versions[shard]
    }

    /// The full per-shard version vector, indexed by shard.
    pub fn versions(&self) -> &[u64] {
        &self.versions
    }

    /// Total version bumps across every shard. Under an unchanged epoch, an
    /// unchanged total proves the whole version vector is unchanged —
    /// versions are monotone, so the sum pins every summand.
    pub fn total_version(&self) -> u64 {
        self.total_version
    }

    /// Records that `machine`'s class key was rebuilt, invalidating every
    /// memoized per-shard evaluation of its shard.
    pub fn bump_version(&mut self, machine: MachineId) {
        self.versions[self.shard_of[machine.index()] as usize] += 1;
        self.total_version += 1;
    }

    /// Number of shards (0 only on an empty cluster).
    pub fn n_shards(&self) -> usize {
        self.members.len()
    }

    /// The shard holding `machine`.
    pub fn shard_of(&self, machine: MachineId) -> usize {
        self.shard_of[machine.index()] as usize
    }

    /// The shard's member machines, ascending id.
    pub fn machines(&self, shard: usize) -> &[MachineId] {
        &self.members[shard]
    }

    /// Free GPUs in one shard.
    pub fn free_in(&self, shard: usize) -> usize {
        self.free_total[shard]
    }

    /// Free GPUs across the whole cluster — the O(1) replacement for the
    /// flat per-machine scan.
    pub fn cluster_free(&self) -> usize {
        self.cluster_free
    }

    /// The admission predicate: does `shard` hold at least one machine with
    /// `n` or more free GPUs? O(max machine width) suffix scan of the
    /// histogram — independent of shard size.
    pub fn has_capacity(&self, shard: usize, n: usize) -> bool {
        let h = &self.hist[shard];
        if n >= h.len() {
            return false;
        }
        h[n..].iter().any(|&c| c > 0)
    }

    /// Widest free-GPU count any machine of `shard` offers right now.
    pub fn max_free(&self, shard: usize) -> usize {
        self.hist[shard]
            .iter()
            .rposition(|&c| c > 0)
            .unwrap_or(0)
    }

    /// O(1) aggregate maintenance: `machine` went from `old_free` to
    /// `new_free` free GPUs.
    pub fn update(&mut self, machine: MachineId, old_free: usize, new_free: usize) {
        if old_free == new_free {
            return;
        }
        let s = self.shard_of[machine.index()] as usize;
        debug_assert!(self.hist[s][old_free] > 0, "{machine} histogram underflow");
        self.hist[s][old_free] -= 1;
        self.hist[s][new_free] += 1;
        let w = self.width_of[machine.index()] as usize;
        if old_free == w {
            debug_assert!(self.idle_hist[s][w] > 0, "{machine} idle underflow");
            self.idle_hist[s][w] -= 1;
        }
        if new_free == w {
            self.idle_hist[s][w] += 1;
        }
        self.free_total[s] = self.free_total[s] + new_free - old_free;
        self.cluster_free = self.cluster_free + new_free - old_free;
    }

    /// The shard's free-GPU histogram (`[k]` = machines with `k` free).
    pub fn hist(&self, shard: usize) -> &[u32] {
        &self.hist[shard]
    }

    /// The shard's idle-machine histogram (`[k]` = fully-idle machines with
    /// `k` installed GPUs).
    pub fn idle_hist(&self, shard: usize) -> &[u32] {
        &self.idle_hist[shard]
    }

    /// Installed GPUs on `machine`.
    pub fn width_of(&self, machine: MachineId) -> usize {
        self.width_of[machine.index()] as usize
    }

    /// Widest machine in `shard` (installed GPUs, not current free count).
    pub fn max_width(&self, shard: usize) -> usize {
        self.max_width[shard] as usize
    }

    /// Distinct topology-class ids present in `shard`, ascending.
    pub fn classes_in(&self, shard: usize) -> &[u32] {
        &self.classes[shard]
    }

    /// Per topology class `(n_sockets, widest socket's GPU count)`.
    pub fn class_geom(&self) -> &[(u32, u32)] {
        &self.class_geom
    }

    /// Records one bound pass over memo-miss shards: `checked` bounds
    /// consulted, `pruned` shards skipped on their strength.
    pub fn note_bound(&self, checked: u64, pruned: u64) {
        self.bound_checked.fetch_add(checked, Ordering::Relaxed);
        self.bound_pruned.fetch_add(pruned, Ordering::Relaxed);
    }

    /// Total `(checked, pruned)` bound counters so far.
    pub fn bound_stats(&self) -> (u64, u64) {
        (
            self.bound_checked.load(Ordering::Relaxed),
            self.bound_pruned.load(Ordering::Relaxed),
        )
    }

    /// Records one admission pass: `checked` shards consulted, `skipped` of
    /// them rejected outright by the aggregates.
    pub fn note_admission(&self, checked: u64, skipped: u64) {
        self.admission_checked.fetch_add(checked, Ordering::Relaxed);
        self.admission_skipped.fetch_add(skipped, Ordering::Relaxed);
    }

    /// Total `(checked, skipped)` admission counters so far.
    pub fn admission_stats(&self) -> (u64, u64) {
        (
            self.admission_checked.load(Ordering::Relaxed),
            self.admission_skipped.load(Ordering::Relaxed),
        )
    }

    /// Re-derives every aggregate (and the partition's structural
    /// invariants) from scratch and compares — `audit()` check 8. Any drift
    /// means a mutation path forgot to call [`ShardIndex::update`].
    pub fn verify(
        &self,
        cluster: &ClusterTopology,
        free_count: impl Fn(MachineId) -> usize,
    ) -> Result<(), String> {
        if self.shard_of.len() != cluster.n_machines() {
            return Err(format!(
                "shard index covers {} machines, cluster has {}",
                self.shard_of.len(),
                cluster.n_machines()
            ));
        }
        // Structural: members agree with shard_of, and concatenating the
        // shards walks machine ids in ascending order (contiguity).
        let mut walked = 0usize;
        for (s, ms) in self.members.iter().enumerate() {
            for &m in ms {
                if m.index() != walked {
                    return Err(format!(
                        "shard {s} member {m} breaks the contiguous ascending order \
                         (expected machine{walked})"
                    ));
                }
                if self.shard_of[m.index()] as usize != s {
                    return Err(format!(
                        "{m} listed in shard {s} but shard_of says {}",
                        self.shard_of[m.index()]
                    ));
                }
                walked += 1;
            }
        }
        if walked != cluster.n_machines() {
            return Err(format!(
                "shard members cover {walked} machines of {}",
                cluster.n_machines()
            ));
        }
        // Aggregates: recompute the histograms and totals from the ground
        // truth free counts.
        let mut want_hist: Vec<Vec<u32>> =
            self.hist.iter().map(|h| vec![0u32; h.len()]).collect();
        let mut want_free = vec![0usize; self.members.len()];
        let mut want_cluster = 0usize;
        for m in cluster.machines() {
            let s = self.shard_of[m.index()] as usize;
            let free = free_count(m);
            if free >= want_hist[s].len() {
                return Err(format!(
                    "{m} reports {free} free GPUs, histogram caps at {}",
                    want_hist[s].len() - 1
                ));
            }
            want_hist[s][free] += 1;
            want_free[s] += free;
            want_cluster += free;
        }
        for s in 0..self.members.len() {
            if self.hist[s] != want_hist[s] {
                return Err(format!(
                    "shard {s} histogram {:?} disagrees with ground truth {:?}",
                    self.hist[s], want_hist[s]
                ));
            }
            if self.free_total[s] != want_free[s] {
                return Err(format!(
                    "shard {s} free total {} disagrees with ground truth {}",
                    self.free_total[s], want_free[s]
                ));
            }
        }
        if self.cluster_free != want_cluster {
            return Err(format!(
                "cluster free total {} disagrees with ground truth {want_cluster}",
                self.cluster_free
            ));
        }
        Ok(())
    }

    /// Re-derives every input of the per-shard utility bound from scratch
    /// and compares — `audit()` check 9. Any drift means a mutation path
    /// maintained `hist` but not the bound state (or vice versa).
    pub fn verify_bound_state(
        &self,
        cluster: &ClusterTopology,
        free_count: impl Fn(MachineId) -> usize,
    ) -> Result<(), String> {
        let n_shards = self.members.len();
        let buckets = self.hist.first().map_or(1, Vec::len);
        let mut want_idle = vec![vec![0u32; buckets]; n_shards];
        let mut want_max_width = vec![0u32; n_shards];
        let mut want_classes: Vec<Vec<u32>> = vec![Vec::new(); n_shards];
        let mut want_geom = vec![(0u32, 0u32); cluster.n_machine_classes()];
        for m in cluster.machines() {
            let s = self.shard_of[m.index()] as usize;
            let topo = cluster.machine(m);
            let w = topo.n_gpus();
            if self.width_of[m.index()] as usize != w {
                return Err(format!(
                    "{m} width {} disagrees with topology {w}",
                    self.width_of[m.index()]
                ));
            }
            if free_count(m) == w {
                want_idle[s][w] += 1;
            }
            want_max_width[s] = want_max_width[s].max(w as u32);
            let class = cluster.machine_class(m);
            if !want_classes[s].contains(&class) {
                want_classes[s].push(class);
            }
            let max_socket = topo
                .sockets()
                .map(|sk| topo.gpus_in_socket(sk).len())
                .max()
                .unwrap_or(0);
            want_geom[class as usize] = (topo.n_sockets() as u32, max_socket as u32);
        }
        for cs in &mut want_classes {
            cs.sort_unstable();
        }
        for s in 0..n_shards {
            if self.idle_hist[s] != want_idle[s] {
                return Err(format!(
                    "shard {s} idle histogram {:?} disagrees with ground truth {:?}",
                    self.idle_hist[s], want_idle[s]
                ));
            }
            if self.max_width[s] != want_max_width[s] {
                return Err(format!(
                    "shard {s} max width {} disagrees with ground truth {}",
                    self.max_width[s], want_max_width[s]
                ));
            }
            if self.classes[s] != want_classes[s] {
                return Err(format!(
                    "shard {s} class set {:?} disagrees with ground truth {:?}",
                    self.classes[s], want_classes[s]
                ));
            }
        }
        if self.class_geom != want_geom {
            return Err(format!(
                "class geometry {:?} disagrees with ground truth {:?}",
                self.class_geom, want_geom
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_topo::power8_minsky;

    #[test]
    fn auto_partition_follows_racks() {
        let c = ClusterTopology::homogeneous_racked(power8_minsky(), 3, 2);
        let idx = ShardIndex::build(&c, ShardSpec::Auto, |_| 4);
        assert_eq!(idx.n_shards(), 3);
        assert_eq!(idx.machines(1), &[MachineId(2), MachineId(3)]);
        assert_eq!(idx.shard_of(MachineId(5)), 2);
        assert_eq!(idx.free_in(0), 8);
        assert_eq!(idx.cluster_free(), 24);
        idx.verify(&c, |_| 4).unwrap();
    }

    #[test]
    fn flat_fabric_is_one_shard_and_counts_chunk_contiguously() {
        let c = ClusterTopology::homogeneous(power8_minsky(), 6);
        let auto = ShardIndex::build(&c, ShardSpec::Auto, |_| 4);
        assert_eq!(auto.n_shards(), 1);
        let chunked = ShardIndex::build(&c, ShardSpec::Count(4), |_| 4);
        assert_eq!(chunked.n_shards(), 3, "6 machines in ceil-sized chunks of 2");
        assert_eq!(chunked.machines(0), &[MachineId(0), MachineId(1)]);
        chunked.verify(&c, |_| 4).unwrap();
        let clamped = ShardIndex::build(&c, ShardSpec::Count(100), |_| 4);
        assert_eq!(clamped.n_shards(), 6);
    }

    #[test]
    fn updates_track_capacity_and_verify_catches_drift() {
        let c = ClusterTopology::homogeneous_racked(power8_minsky(), 2, 2);
        let mut idx = ShardIndex::build(&c, ShardSpec::Auto, |_| 4);
        assert!(idx.has_capacity(0, 4));
        assert_eq!(idx.max_free(0), 4);
        idx.update(MachineId(0), 4, 1);
        idx.update(MachineId(1), 4, 2);
        assert!(!idx.has_capacity(0, 3), "widest machine in shard 0 offers 2");
        assert!(idx.has_capacity(0, 2));
        assert_eq!(idx.max_free(0), 2);
        assert_eq!(idx.free_in(0), 3);
        assert_eq!(idx.cluster_free(), 11);
        assert!(idx.has_capacity(1, 4), "shard 1 untouched");
        assert!(!idx.has_capacity(1, 5), "wider than any machine");
        let counts = [1usize, 2, 4, 4];
        idx.verify(&c, |m| counts[m.index()]).unwrap();
        let err = idx.verify(&c, |_| 4).unwrap_err();
        assert!(err.contains("histogram"), "got: {err}");
    }

    #[test]
    fn versions_advance_per_shard_and_clones_change_epoch() {
        let c = ClusterTopology::homogeneous_racked(power8_minsky(), 2, 2);
        let mut idx = ShardIndex::build(&c, ShardSpec::Auto, |_| 4);
        assert_eq!((idx.version(0), idx.version(1)), (0, 0));
        idx.bump_version(MachineId(1));
        idx.bump_version(MachineId(1));
        idx.bump_version(MachineId(2));
        assert_eq!((idx.version(0), idx.version(1)), (2, 1));
        assert_eq!(idx.versions(), &[2, 1]);
        assert_eq!(idx.total_version(), 3, "total sums the per-shard bumps");
        let cloned = idx.clone();
        assert_eq!(cloned.version(0), 2, "counters carry over");
        assert_eq!(cloned.total_version(), 3, "the total carries over too");
        assert_ne!(cloned.epoch(), idx.epoch(), "epochs never alias");
        let rebuilt = ShardIndex::build(&c, ShardSpec::Auto, |_| 4);
        assert_ne!(rebuilt.epoch(), idx.epoch());
    }

    #[test]
    fn idle_histogram_tracks_full_width_transitions() {
        let c = ClusterTopology::homogeneous_racked(power8_minsky(), 2, 2);
        let mut idx = ShardIndex::build(&c, ShardSpec::Auto, |_| 4);
        assert_eq!(idx.idle_hist(0), &[0, 0, 0, 0, 2], "all machines start idle");
        assert_eq!(idx.max_width(0), 4);
        assert_eq!(idx.width_of(MachineId(3)), 4);
        // Partial occupancy leaves the idle bucket, full release re-enters
        // it, and an intermediate step never touches it.
        idx.update(MachineId(0), 4, 2);
        assert_eq!(idx.idle_hist(0), &[0, 0, 0, 0, 1]);
        idx.update(MachineId(0), 2, 1);
        assert_eq!(idx.idle_hist(0), &[0, 0, 0, 0, 1]);
        idx.update(MachineId(0), 1, 4);
        assert_eq!(idx.idle_hist(0), &[0, 0, 0, 0, 2]);
        // A failure (idle machine → 0 free) drains the idle bucket without
        // a matching 0-width entry: down machines are never idle.
        idx.update(MachineId(1), 4, 0);
        assert_eq!(idx.idle_hist(0), &[0, 0, 0, 0, 1]);
        let counts = [4usize, 0, 4, 4];
        idx.verify(&c, |m| counts[m.index()]).unwrap();
        idx.verify_bound_state(&c, |m| counts[m.index()]).unwrap();
        // Recovery restores the idle bucket.
        idx.update(MachineId(1), 0, 4);
        idx.verify_bound_state(&c, |_| 4).unwrap();
    }

    #[test]
    fn bound_state_verify_catches_idle_drift() {
        let c = ClusterTopology::homogeneous_racked(power8_minsky(), 2, 2);
        let idx = ShardIndex::build(&c, ShardSpec::Auto, |_| 4);
        // Ground truth says machine0 is occupied, but the index still lists
        // it idle: check 9 must object even though plain `hist` disagrees
        // too — drift detection must not depend on check 8 running first.
        let counts = [2usize, 4, 4, 4];
        let err = idx.verify_bound_state(&c, |m| counts[m.index()]).unwrap_err();
        assert!(err.contains("idle histogram"), "got: {err}");
    }

    #[test]
    fn class_sets_and_geometry_are_derived_at_build() {
        let c = ClusterTopology::homogeneous_racked(power8_minsky(), 3, 2);
        let idx = ShardIndex::build(&c, ShardSpec::Auto, |_| 4);
        for s in 0..idx.n_shards() {
            assert_eq!(idx.classes_in(s), &[0], "homogeneous cluster: one class");
        }
        // power8_minsky: 4 GPUs over 2 sockets, 2 per socket.
        assert_eq!(idx.class_geom(), &[(2, 2)]);
        idx.verify_bound_state(&c, |_| 4).unwrap();
    }

    #[test]
    fn bound_counters_accumulate_through_shared_refs() {
        let c = ClusterTopology::homogeneous(power8_minsky(), 2);
        let idx = ShardIndex::build(&c, ShardSpec::Count(2), |_| 4);
        idx.note_bound(3, 2);
        idx.note_bound(1, 0);
        assert_eq!(idx.bound_stats(), (4, 2));
        let cloned = idx.clone();
        assert_eq!(cloned.bound_stats(), (4, 2));
    }

    #[test]
    fn admission_counters_accumulate_through_shared_refs() {
        let c = ClusterTopology::homogeneous(power8_minsky(), 2);
        let idx = ShardIndex::build(&c, ShardSpec::Count(2), |_| 4);
        idx.note_admission(2, 1);
        idx.note_admission(2, 0);
        assert_eq!(idx.admission_stats(), (4, 1));
        let cloned = idx.clone();
        assert_eq!(cloned.admission_stats(), (4, 1));
    }
}
