//! The placement evaluation engine: memoized candidate scoring for the
//! `TOPO-AWARE(-P)` policies.
//!
//! The naive Algorithm 1 arrival cost is one full Algorithm 2/3 DRB
//! mapping per feasible machine — linear in cluster size. Two observations
//! make it sublinear in practice:
//!
//! 1. **Equivalence classes.** A candidate evaluation is a pure function
//!    of `(machine topology class, free-GPU set, per-socket committed
//!    bandwidth, co-runner signature)` — the machine *id* never enters
//!    Eq. 2–5. On a mostly-idle homogeneous cluster almost every machine
//!    collapses into a handful of classes, so the engine runs one DRB
//!    mapping per live class of the state's class table
//!    ([`crate::classes`], DESIGN.md §15).
//! 2. **One thread, first-seen order.** Representatives are evaluated on
//!    the caller's thread in the order a scan over the machines first
//!    meets their classes. Together with the oracle's canonical co-runner
//!    order this keeps every utility bit-identical to the sequential
//!    reference ([`EvalParams::sequential`]), and every cache counter
//!    repeats exactly between identical runs.
//!
//! The engine never changes *which* candidate wins: the policy runs the
//! reference tie-breaking (`FRAG_TIE_EPS` + Eq. 5) over the classes in
//! lowest-member order, checking per decision that this equals the
//! per-candidate scan (DESIGN.md §15.3).
//!
//! 3. **Cross-event caching.** Because the class key is a pure function of
//!    machine state and the job-side inputs reduce to a small *job class*,
//!    a `(machine class, job class) → outcome` entry never goes stale —
//!    only cold. [`EvalCache`] therefore persists across arrivals for the
//!    whole scheduler/simulation run (one LRU, owned by the
//!    [`crate::Scheduler`]), so steady-state arrivals that revisit known
//!    keys skip the DRB mapping entirely (DESIGN.md §9). The same cache
//!    holds one decision snapshot per job class, which answers a retry on
//!    an unchanged state in O(1) (DESIGN.md §15.7).

use crate::classes::ClassId;
use crate::oracle::{placement_utility, StateOracle};
use crate::policy::Decision;
use crate::state::{ClusterState, MachineClassKey};
use gts_job::{BatchClass, JobGraph, JobSpec, NnModel};
use gts_map::{drb_map, PlacementOracle as _, UtilityWeights};
use gts_topo::{GpuId, MachineId};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// Evaluation-engine parameters, threaded from the drivers down to
/// [`crate::Policy::decide_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalParams {
    /// `1` selects the sequential reference path: every candidate is
    /// evaluated in order with no memoization, exactly as the pre-engine
    /// scheduler did. Any other value selects the production path, which
    /// always runs on the caller's thread; the scheduler never reads this
    /// as a worker count. The value still sizes the `gts-bench` experiment
    /// sweeps.
    pub threads: usize,
    /// Always `false`, and read by nothing: the sharded path it switched
    /// is retired (DESIGN.md §10). The field stays so that callers
    /// reporting it keep compiling.
    pub shard_par: bool,
    /// Always `true`, and read by nothing: the shard bound it named is
    /// retired (DESIGN.md §11). The field stays so that callers reporting
    /// it keep compiling.
    pub shard_bound: bool,
    /// Always `true`: the production path always answers a retry on an
    /// unchanged state from the per-job-class decision snapshot (DESIGN.md
    /// §15.7). The field stays so that callers reporting it keep
    /// compiling.
    pub decision_replay: bool,
}

impl EvalParams {
    /// The sequential reference: candidates evaluated one by one, no
    /// memoization.
    pub fn sequential() -> Self {
        Self::with_threads(1)
    }

    /// The production path with an explicit `threads` value (`≥ 2`;
    /// clamped up). The engine itself is single-threaded; see
    /// [`EvalParams::threads`].
    pub fn parallel(threads: usize) -> Self {
        Self::with_threads(threads.max(2))
    }

    /// Reads `GTS_EVAL_THREADS` (cached after the first read). Unset or
    /// unparsable values default to the host's available parallelism, with
    /// a floor of 2 so the production path stays on even on single-core
    /// hosts.
    pub fn from_env() -> Self {
        static CACHED: OnceLock<usize> = OnceLock::new();
        Self::with_threads(*CACHED.get_or_init(|| {
            match std::env::var("GTS_EVAL_THREADS") {
                Ok(v) => match v.trim().parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => default_threads(),
                },
                Err(_) => default_threads(),
            }
        }))
    }

    fn with_threads(threads: usize) -> Self {
        Self { threads, shard_par: false, shard_bound: true, decision_replay: true }
    }

    /// True when this selects the sequential reference path.
    pub fn is_sequential(&self) -> bool {
        self.threads <= 1
    }
}

impl Default for EvalParams {
    fn default() -> Self {
        Self::from_env()
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2)
}

/// What evaluating one candidate machine produced.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CandidateOutcome {
    /// DRB found no mapping on this machine.
    NoMapping,
    /// A mapping exists but violates the §4.3 bandwidth constraint.
    RejectedBandwidth {
        /// The rejected GPU pick (shared: every cache hit clones the
        /// outcome, so the pick is refcounted rather than reallocated per
        /// clone).
        gpus: Arc<[GpuId]>,
    },
    /// A feasible placement with its Eq. 2 utility and Eq. 5
    /// fragmentation-after.
    Feasible {
        /// Machine-local GPUs, in task order (shared; see
        /// [`CandidateOutcome::RejectedBandwidth`]).
        gpus: Arc<[GpuId]>,
        /// Normalized Eq. 2 utility.
        utility: f64,
        /// Eq. 5 fragmentation the machine would be left with.
        frag_after: f64,
    },
}

/// The job-side half of a cross-event cache key: every *job* input the
/// per-candidate evaluation depends on, floats by bit pattern. `min_utility`,
/// arrival time and iteration count never enter Eq. 2–5, so jobs differing
/// only there share entries. Jobs carrying an explicit `comm_graph` are not
/// keyable (the graph is arbitrary) and bypass the cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct JobClassKey {
    model: NnModel,
    batch: BatchClass,
    n_gpus: u32,
    bw_bits: u64,
    weight_bits: [u64; 3],
}

impl JobClassKey {
    /// The job's class, or `None` when the job is not cacheable (explicit
    /// communication graph).
    pub(crate) fn of(job: &JobSpec, weights: UtilityWeights) -> Option<Self> {
        if job.comm_graph.is_some() {
            return None;
        }
        Some(Self {
            model: job.model,
            batch: job.batch,
            n_gpus: job.n_gpus,
            bw_bits: job.bw_demand_gbs.to_bits(),
            weight_bits: [weights.cc.to_bits(), weights.b.to_bits(), weights.d.to_bits()],
        })
    }

    /// The class's FNV-1a fingerprint, hoisted by callers so building one
    /// [`CacheKey`] per machine class costs a mix, not a re-hash.
    pub(crate) fn bits(&self) -> u64 {
        let mut h = FnvHasher::default();
        self.hash(&mut h);
        h.finish()
    }
}

/// The job inputs that steer a decision's selection but stay out of
/// [`JobClassKey`], because the per-candidate evaluation never reads them:
/// `min_utility` (selection window and SLO gate) and `single_node` (the
/// spill fallthrough). A [`DecisionSnap`] stores the guard of its decision
/// and replays only for a job with an equal one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ReplayGuard {
    min_utility_bits: u64,
    single_node: bool,
}

impl ReplayGuard {
    /// `job`'s guard, floats by bit pattern.
    pub(crate) fn of(job: &JobSpec) -> Self {
        Self {
            min_utility_bits: job.min_utility.to_bits(),
            single_node: job.constraints.single_node,
        }
    }
}

/// What the O(1) decision replay (DESIGN.md §15.7) is keyed by: the job
/// class the snapshot is stored under, and the snapshot's guard. On one
/// cluster state, jobs with equal keys get the same decision, which is
/// what lets a scheduler iteration reuse an unplaced job's answer for
/// every later job of its key (DESIGN.md §14).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ReplayKey {
    pub class: JobClassKey,
    pub guard: ReplayGuard,
}

/// A cross-event cache key: machine equivalence class × job class. Both
/// halves are pure functions of (state, job-class) — machine ids, job ids
/// and clock values never enter — so an entry can only be *cold*, never
/// *stale* (DESIGN.md §9).
///
/// The 64-bit `bits` mix is carried inside the key and is all [`Hash`]
/// ever writes: the machine half's hash is precomputed by `ClusterState`
/// and the job half's once per evaluation call ([`JobClassKey::bits`]),
/// so probing the cache never re-hashes key payloads. Equal keys produce
/// equal mixes by construction, keeping `Eq`/`Hash` consistent.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CacheKey {
    machine: MachineClassKey,
    job: JobClassKey,
    bits: u64,
}

impl CacheKey {
    /// Builds a key around the precomputed halves: `job_bits` must be
    /// `job.bits()` (hoisted out of per-class probe loops by callers).
    fn new(machine: MachineClassKey, job: JobClassKey, job_bits: u64) -> Self {
        let bits = machine.hash_bits().rotate_left(32) ^ job_bits;
        Self { machine, job, bits }
    }
}

impl Hash for CacheKey {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        h.write_u64(self.bits);
    }
}

/// Cache entries granted per rack: a cluster of `n` racks gets one
/// [`EvalCache`] of `n ×` this capacity (DESIGN.md §15.8).
const CAPACITY_PER_RACK: usize = 4096;

/// Hit/miss/eviction counters of an [`EvalCache`], read at any point of a
/// run. One lookup is counted per *equivalence class* per arrival (the
/// engine groups candidates first), not per candidate machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalCacheStats {
    /// Class evaluations answered from the cache.
    pub hits: u64,
    /// Class evaluations that ran the full DRB mapping (and filled the
    /// cache).
    pub misses: u64,
    /// Entries displaced by LRU capacity pressure.
    pub evictions: u64,
}

impl EvalCacheStats {
    /// `hits / (hits + misses)`, or 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Cross-event decision-replay counters (DESIGN.md §15.7), read at any
/// point of a run via [`crate::Scheduler::decision_replay_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionReplayStats {
    /// Decisions answered from a snapshot: the state had not changed since
    /// the last decision for the job's class.
    pub hits: u64,
    /// Jobs answered without a decision: a scheduler iteration gave an
    /// earlier unplaced job with the same replay key (job class,
    /// `min_utility`, `single_node`) its answer and placed nothing since,
    /// so this job gets that answer too (DESIGN.md §14). Without reuse
    /// each would have been decided again, by an O(1) full replay hit
    /// unless a same-class job with other guards decided in between. None
    /// is counted in `hits` or in the scheduler's decision statistics.
    pub reused: u64,
    /// Snapshots present but unusable (another state instance, or another
    /// guard) — the class decision ran instead.
    pub full_fallbacks: u64,
}

const NIL: usize = usize::MAX;

/// The LRU: a hash map into a slab threaded with an intrusive doubly-linked
/// list (`head` = most recent, `tail` = eviction victim). All operations
/// are O(1).
struct Lru {
    map: HashMap<CacheKey, usize, std::hash::BuildHasherDefault<FnvHasher>>,
    slab: Vec<Entry>,
    head: usize,
    tail: usize,
    capacity: usize,
}

struct Entry {
    key: CacheKey,
    value: CandidateOutcome,
    prev: usize,
    next: usize,
}

impl Lru {
    fn new(capacity: usize) -> Self {
        Self { map: HashMap::default(), slab: Vec::new(), head: NIL, tail: NIL, capacity }
    }

    fn unlink(&mut self, i: usize) {
        let (p, n) = (self.slab[i].prev, self.slab[i].next);
        match p {
            NIL => self.head = n,
            _ => self.slab[p].next = n,
        }
        match n {
            NIL => self.tail = p,
            _ => self.slab[n].prev = p,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slab[i].prev = NIL;
        self.slab[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slab[h].prev = i,
        }
        self.head = i;
    }

    fn get(&mut self, key: &CacheKey) -> Option<CandidateOutcome> {
        let &i = self.map.get(key)?;
        self.unlink(i);
        self.push_front(i);
        Some(self.slab[i].value.clone())
    }

    /// Inserts (or refreshes) an entry; returns `true` when an older entry
    /// was evicted to make room.
    fn insert(&mut self, key: CacheKey, value: CandidateOutcome) -> bool {
        if let Some(&i) = self.map.get(&key) {
            self.slab[i].value = value;
            self.unlink(i);
            self.push_front(i);
            return false;
        }
        if self.map.len() >= self.capacity {
            // Reuse the LRU victim's slot in place.
            let lru = self.tail;
            self.unlink(lru);
            let old_key = self.slab[lru].key.clone();
            self.map.remove(&old_key);
            self.slab[lru].key = key.clone();
            self.slab[lru].value = value;
            self.map.insert(key, lru);
            self.push_front(lru);
            return true;
        }
        let i = self.slab.len();
        self.slab.push(Entry { key: key.clone(), value, prev: NIL, next: NIL });
        self.map.insert(key, i);
        self.push_front(i);
        false
    }
}

/// The cross-event placement cache: a capacity-bounded LRU from
/// `(machine class, job class)` to the evaluated candidate outcome, owned
/// by a [`crate::Scheduler`] for the whole run, plus the last decision per
/// job class (DESIGN.md §15.7).
///
/// Both key halves are pure functions of state (DESIGN.md §9), so entries
/// never go stale — a machine whose occupancy changes simply stops
/// producing the old key. Results are bit-identical with or without the
/// cache because a hit replays the bits a miss would have computed (debug
/// builds re-run the evaluation on every hit and assert exactly that).
///
/// The whole decision path runs on the caller's thread, so the cache is
/// plain single-threaded state: `RefCell`s and `Cell` counters, no locks.
pub struct EvalCache {
    lru: RefCell<Lru>,
    /// The last decision per job class, stamped with the state's
    /// `(epoch, version)` (DESIGN.md §15.7).
    snaps: RefCell<SnapMap>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    evictions: Cell<u64>,
    /// Decisions answered from a snapshot in O(1).
    replay_hits: Cell<u64>,
    /// Snapshots present but unusable (epoch or guard mismatch), falling
    /// back to the class decision.
    replay_full_fallbacks: Cell<u64>,
}

/// The last decision for one job class (DESIGN.md §15.7): the state's
/// `(epoch, version)` when it was taken, the deciding job's guard, and the
/// decision. While the state's pair is unchanged nothing a decision reads
/// has changed, so a job of the class with an equal guard gets the stored
/// decision.
#[derive(Debug)]
pub(crate) struct DecisionSnap {
    /// The state instance the decision ran on ([`ClusterState::epoch`]).
    pub epoch: u64,
    /// The state's mutation counter then ([`ClusterState::version`]).
    pub version: u64,
    /// The deciding job's guard.
    pub guard: ReplayGuard,
    /// The decision, or `None` when nothing (the spill fallthrough
    /// included) placed.
    pub decision: Option<Decision>,
}

/// FNV-1a for the scheduler-internal hash maps (the snapshots, the LRU map
/// and the class table). Their keys are hashed on the per-decision hot path, where the
/// default SipHash's DoS resistance buys nothing (keys are small,
/// fixed-shape and entirely trusted) but costs a measurable slice of
/// steady-state decision latency.
pub(crate) struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        self.0 = h;
    }
}

/// The decision snapshots, one per job class.
type SnapMap = HashMap<JobClassKey, DecisionSnap, std::hash::BuildHasherDefault<FnvHasher>>;

/// Safety valve on distinct job classes with a snapshot. Real traces carry
/// a few dozen job classes, so this is far above steady state.
const SNAP_CAP: usize = 512;

impl std::fmt::Debug for EvalCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalCache").field("stats", &self.stats()).finish()
    }
}

impl EvalCache {
    /// A cache bounded at `capacity` total entries (floor of one).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            lru: RefCell::new(Lru::new(capacity.max(1))),
            snaps: RefCell::new(SnapMap::default()),
            hits: Cell::new(0),
            misses: Cell::new(0),
            evictions: Cell::new(0),
            replay_hits: Cell::new(0),
            replay_full_fallbacks: Cell::new(0),
        }
    }

    /// The cache for a cluster of `n_racks` racks (1 on a flat fabric):
    /// 4,096 entries per rack (DESIGN.md §15.8).
    pub fn per_rack(n_racks: usize) -> Self {
        Self::with_capacity(CAPACITY_PER_RACK.saturating_mul(n_racks.max(1)))
    }

    /// The stored decision for `job` when its snapshot was taken on this
    /// `(epoch, version)` under an equal `guard`, counting the hit. A
    /// snapshot of another epoch or guard counts a fallback; either way,
    /// and on a moved version, `None` means the decision must run.
    pub(crate) fn replay(
        &self,
        job: &JobClassKey,
        epoch: u64,
        version: u64,
        guard: ReplayGuard,
    ) -> Option<Option<Decision>> {
        let snaps = self.snaps.borrow();
        let snap = snaps.get(job)?;
        if snap.epoch != epoch || snap.guard != guard {
            bump(&self.replay_full_fallbacks, 1);
            return None;
        }
        if snap.version != version {
            return None;
        }
        bump(&self.replay_hits, 1);
        Some(snap.decision.clone())
    }

    /// Stores `snap` as the last decision for `job`, replacing the class's
    /// previous one. Past [`SNAP_CAP`] classes the map is cleared first,
    /// which costs later replays, never an answer.
    pub(crate) fn store_snapshot(&self, job: &JobClassKey, snap: DecisionSnap) {
        let mut snaps = self.snaps.borrow_mut();
        if let Some(slot) = snaps.get_mut(job) {
            *slot = snap;
            return;
        }
        if snaps.len() >= SNAP_CAP {
            snaps.clear();
        }
        snaps.insert(job.clone(), snap);
    }

    /// Counters so far.
    pub fn stats(&self) -> EvalCacheStats {
        EvalCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
        }
    }

    /// Decision-replay counters so far. `reused` reads 0: reuse happens in
    /// the scheduler, above the cache ([`crate::Scheduler::decision_replay_stats`]).
    pub fn replay_stats(&self) -> DecisionReplayStats {
        DecisionReplayStats {
            hits: self.replay_hits.get(),
            reused: 0,
            full_fallbacks: self.replay_full_fallbacks.get(),
        }
    }

    fn get(&self, key: &CacheKey) -> Option<CandidateOutcome> {
        let hit = self.lru.borrow_mut().get(key);
        bump(if hit.is_some() { &self.hits } else { &self.misses }, 1);
        hit
    }

    fn insert(&self, key: CacheKey, value: CandidateOutcome) {
        if self.lru.borrow_mut().insert(key, value) {
            bump(&self.evictions, 1);
        }
    }
}

fn bump(counter: &Cell<u64>, n: u64) {
    counter.set(counter.get() + n);
}

/// Evaluates one candidate machine for `job`: DRB mapping, bandwidth
/// check, utility and fragmentation-after. Pure in the cluster state.
fn evaluate_one(
    state: &ClusterState,
    job: &JobSpec,
    graph: &JobGraph,
    weights: UtilityWeights,
    machine: MachineId,
) -> CandidateOutcome {
    let free = state.free_gpus(machine);
    let oracle = StateOracle::new(state, machine, job);
    let Ok(gpus) = drb_map(graph, &free, &oracle, weights) else {
        return CandidateOutcome::NoMapping;
    };
    if !state.fits_bw(machine, &gpus, job.bw_demand_gbs) {
        return CandidateOutcome::RejectedBandwidth { gpus: gpus.into() };
    }
    let frag_after = oracle.fragmentation_after(&gpus);
    let utility = placement_utility(state, machine, job, &gpus, weights);
    CandidateOutcome::Feasible { gpus: gpus.into(), utility, frag_after }
}

/// Debug check behind every cache hit: re-run the full evaluation and
/// assert the cached bits are exactly what a miss would have produced —
/// the PR 4 shadow-recompute discipline applied to the cross-event cache.
#[cfg(debug_assertions)]
fn debug_assert_hit_matches(
    state: &ClusterState,
    job: &JobSpec,
    graph: &JobGraph,
    weights: UtilityWeights,
    machine: MachineId,
    hit: &CandidateOutcome,
) {
    let fresh = evaluate_one(state, job, graph, weights, machine);
    let bits_equal = match (&fresh, hit) {
        (CandidateOutcome::NoMapping, CandidateOutcome::NoMapping) => true,
        (
            CandidateOutcome::RejectedBandwidth { gpus: a },
            CandidateOutcome::RejectedBandwidth { gpus: b },
        ) => a == b,
        (
            CandidateOutcome::Feasible { gpus: ga, utility: ua, frag_after: fa },
            CandidateOutcome::Feasible { gpus: gb, utility: ub, frag_after: fb },
        ) => ga == gb && ua.to_bits() == ub.to_bits() && fa.to_bits() == fb.to_bits(),
        _ => false,
    };
    assert!(
        bits_equal,
        "stale cross-event cache entry for {machine}: cached {hit:?}, fresh {fresh:?}"
    );
}

/// The sequential reference's evaluation: every candidate machine in
/// order, one full evaluation each — no classing, no cache.
pub(crate) fn evaluate_topo_candidates(
    state: &ClusterState,
    job: &JobSpec,
    graph: &JobGraph,
    weights: UtilityWeights,
    candidates: &[MachineId],
) -> Vec<CandidateOutcome> {
    candidates.iter().map(|&m| evaluate_one(state, job, graph, weights, m)).collect()
}

/// One outcome per live machine class in `classes` (`(lowest member,
/// class)` pairs, ascending by lowest member — the order in which a scan
/// over the machines first meets each class), evaluated on the lowest
/// member when the cross-event `cache` does not know it (DESIGN.md §15).
/// The per-machine capacity filter, class grouping and per-candidate
/// fan-out of a flat scan never run: the class table already holds the
/// grouping.
pub(crate) fn evaluate_live_classes(
    state: &ClusterState,
    job: &JobSpec,
    graph: &JobGraph,
    weights: UtilityWeights,
    classes: &[(MachineId, ClassId)],
    cache: Option<&EvalCache>,
) -> Vec<CandidateOutcome> {
    let table = state.classes();
    let reps: Vec<(MachineId, &MachineClassKey)> =
        classes.iter().map(|&(lowest, c)| (lowest, table.key(c))).collect();
    resolve_classes(state, job, graph, weights, &reps, cache)
}

/// Resolves one outcome per `(representative, key)` class, in order.
/// Every class is looked up in the cross-event cache before any is
/// inserted: an insert can evict a later class's entry, so this order
/// decides the hit/miss/eviction counts. The misses then evaluate on their
/// representatives, in order, and fill the cache. Jobs without a class
/// key (explicit comm graph) bypass the cache.
fn resolve_classes(
    state: &ClusterState,
    job: &JobSpec,
    graph: &JobGraph,
    weights: UtilityWeights,
    reps: &[(MachineId, &MachineClassKey)],
    cache: Option<&EvalCache>,
) -> Vec<CandidateOutcome> {
    let job_class = cache.and_then(|_| JobClassKey::of(job, weights));
    let (Some(cache), Some(jc)) = (cache, job_class) else {
        return reps.iter().map(|&(m, _)| evaluate_one(state, job, graph, weights, m)).collect();
    };
    let job_bits = jc.bits();
    let mut outcomes: Vec<Option<CandidateOutcome>> = Vec::with_capacity(reps.len());
    let mut pending: Vec<usize> = Vec::new();
    for (i, &(_m, key)) in reps.iter().enumerate() {
        let hit = cache.get(&CacheKey::new(key.clone(), jc.clone(), job_bits));
        #[cfg(debug_assertions)]
        if let Some(hit) = &hit {
            debug_assert_hit_matches(state, job, graph, weights, _m, hit);
        }
        if hit.is_none() {
            pending.push(i);
        }
        outcomes.push(hit);
    }
    for i in pending {
        let (m, key) = reps[i];
        let outcome = evaluate_one(state, job, graph, weights, m);
        cache.insert(CacheKey::new(key.clone(), jc.clone(), job_bits), outcome.clone());
        outcomes[i] = Some(outcome);
    }
    outcomes.into_iter().map(|o| o.expect("every class resolved")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::on_machine;
    use gts_perf::ProfileLibrary;
    use gts_topo::{power8_minsky, ClusterTopology};
    use std::sync::Arc;

    fn state(n_machines: usize) -> ClusterState {
        let machine = power8_minsky();
        let profiles = Arc::new(ProfileLibrary::generate(&machine, 1));
        let cluster = Arc::new(ClusterTopology::homogeneous(machine, n_machines));
        ClusterState::new(cluster, profiles)
    }

    fn job(id: u64, gpus: u32) -> JobSpec {
        JobSpec::new(id, NnModel::AlexNet, BatchClass::Tiny, gpus).with_min_utility(0.5)
    }

    fn outcomes(s: &ClusterState, j: &JobSpec, params: EvalParams) -> Vec<CandidateOutcome> {
        outcomes_cached(s, j, params, None)
    }

    fn outcomes_cached(
        s: &ClusterState,
        j: &JobSpec,
        params: EvalParams,
        cache: Option<&EvalCache>,
    ) -> Vec<CandidateOutcome> {
        let graph = JobGraph::from_spec(j);
        let weights = UtilityWeights::default();
        let candidates = s.machines_with_capacity(j.n_gpus as usize);
        if params.is_sequential() {
            return evaluate_topo_candidates(s, j, &graph, weights, &candidates);
        }
        // The production form: one outcome per live class, expanded here
        // to the candidates for comparison.
        let mut classes = Vec::new();
        s.classes().with_capacity_into(j.n_gpus as usize, &mut classes);
        let outcomes = evaluate_live_classes(s, j, &graph, weights, &classes, cache);
        candidates
            .iter()
            .map(|&m| {
                let class = s.classes().class_of(m);
                let i = classes.iter().position(|&(_, c)| c == class).expect("live class");
                outcomes[i].clone()
            })
            .collect()
    }

    #[test]
    fn env_knob_parses_and_clamps() {
        assert!(EvalParams::sequential().is_sequential());
        assert!(!EvalParams::parallel(1).is_sequential());
        assert_eq!(EvalParams::parallel(1).threads, 2);
    }

    #[test]
    fn engine_matches_sequential_reference_bitwise() {
        let mut s = state(12);
        // Differentiate a few machines so several classes exist.
        s.place(job(100, 2), on_machine(MachineId(0), &[GpuId(0), GpuId(1)]), 1.0);
        s.place(job(101, 1), on_machine(MachineId(1), &[GpuId(2)]), 1.0);
        s.place(
            JobSpec::new(102, NnModel::GoogLeNet, BatchClass::Big, 1),
            on_machine(MachineId(2), &[GpuId(0)]),
            1.0,
        );
        let j = job(0, 2);
        let seq = outcomes(&s, &j, EvalParams::sequential());
        let engine = outcomes(&s, &j, EvalParams::parallel(4));
        assert_eq!(seq.len(), 12);
        assert_eq!(seq, engine);
        // Bit-exact utilities, not just PartialEq-equal.
        for (a, b) in seq.iter().zip(&engine) {
            if let (
                CandidateOutcome::Feasible { utility: ua, frag_after: fa, .. },
                CandidateOutcome::Feasible { utility: ub, frag_after: fb, .. },
            ) = (a, b)
            {
                assert_eq!(ua.to_bits(), ub.to_bits());
                assert_eq!(fa.to_bits(), fb.to_bits());
            }
        }
    }

    #[test]
    fn idle_identical_machines_collapse_to_one_class() {
        let s = state(16);
        let candidates = s.machines_with_capacity(2);
        let mut keys: Vec<MachineClassKey> = candidates
            .iter()
            .map(|&m| s.machine_class_key(m).clone())
            .collect();
        keys.dedup();
        assert_eq!(keys.len(), 1, "an idle homogeneous cluster is one class");
    }

    #[test]
    fn class_key_separates_occupancy_and_corunners() {
        let mut s = state(3);
        s.place(job(100, 1), on_machine(MachineId(1), &[GpuId(0)]), 1.0);
        s.place(
            JobSpec::new(101, NnModel::GoogLeNet, BatchClass::Tiny, 1),
            on_machine(MachineId(2), &[GpuId(0)]),
            1.0,
        );
        let k0 = s.machine_class_key(MachineId(0));
        let k1 = s.machine_class_key(MachineId(1));
        let k2 = s.machine_class_key(MachineId(2));
        assert_ne!(k0, k1, "occupancy differs");
        assert_ne!(k1, k2, "co-runner model differs at equal occupancy");
    }

    #[test]
    fn corunner_signature_ignores_job_ids() {
        // Same model/batch/GPUs under different job ids → same class.
        let mut s = state(2);
        s.place(job(7, 1), on_machine(MachineId(0), &[GpuId(0)]), 1.0);
        s.place(job(900, 1), on_machine(MachineId(1), &[GpuId(0)]), 1.0);
        assert_eq!(
            s.machine_class_key(MachineId(0)),
            s.machine_class_key(MachineId(1))
        );
        assert_eq!(
            s.machine_class_key(MachineId(0)).hash_bits(),
            s.machine_class_key(MachineId(1)).hash_bits()
        );
    }

    #[test]
    fn down_machines_never_reach_the_engine_but_key_safely() {
        let mut s = state(2);
        s.set_machine_down(MachineId(1), true);
        assert_eq!(s.machine_class_key(MachineId(1)).inner().free_mask, 0);
    }

    #[test]
    fn cache_serves_hits_and_counts_misses_across_arrivals() {
        let s = state(8);
        let j = job(0, 2);
        let cache = EvalCache::with_capacity(64);
        let cold = outcomes_cached(&s, &j, EvalParams::parallel(2), Some(&cache));
        let after_cold = cache.stats();
        assert_eq!(after_cold.hits, 0);
        assert!(after_cold.misses >= 1);

        // Same state + same job class (different id / min_utility) → hits.
        let j2 = job(99, 2).with_min_utility(0.9);
        let warm = outcomes_cached(&s, &j2, EvalParams::parallel(2), Some(&cache));
        let after_warm = cache.stats();
        assert_eq!(warm, cold);
        assert_eq!(after_warm.misses, after_cold.misses, "no new evaluations");
        assert!(after_warm.hits >= 1);
        assert!((after_warm.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cache_on_and_off_agree_bitwise() {
        let mut s = state(12);
        s.place(job(100, 2), on_machine(MachineId(0), &[GpuId(0), GpuId(1)]), 1.0);
        s.place(job(101, 1), on_machine(MachineId(1), &[GpuId(2)]), 1.0);
        let cache = EvalCache::with_capacity(64);
        let j = job(0, 2);
        // Prime, then compare warm-hit outcomes against the uncached engine.
        outcomes_cached(&s, &j, EvalParams::parallel(4), Some(&cache));
        let warm = outcomes_cached(&s, &j, EvalParams::parallel(4), Some(&cache));
        let uncached = outcomes(&s, &j, EvalParams::parallel(4));
        for (a, b) in warm.iter().zip(&uncached) {
            match (a, b) {
                (
                    CandidateOutcome::Feasible { gpus: ga, utility: ua, frag_after: fa },
                    CandidateOutcome::Feasible { gpus: gb, utility: ub, frag_after: fb },
                ) => {
                    assert_eq!(ga, gb);
                    assert_eq!(ua.to_bits(), ub.to_bits());
                    assert_eq!(fa.to_bits(), fb.to_bits());
                }
                (x, y) => assert_eq!(x, y),
            }
        }
    }

    #[test]
    fn jobs_with_explicit_graphs_bypass_the_cache() {
        let s = state(4);
        let cache = EvalCache::with_capacity(64);
        let j = JobSpec::new(0, NnModel::AlexNet, BatchClass::Tiny, 2)
            .with_comm_graph(JobGraph::pipeline(2, 4.0));
        outcomes_cached(&s, &j, EvalParams::parallel(2), Some(&cache));
        outcomes_cached(&s, &j, EvalParams::parallel(2), Some(&cache));
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 0, "graph jobs are not keyable");
    }

    #[test]
    fn lru_evicts_and_counts() {
        // A two-entry LRU: touching the older entry makes the newer one
        // the victim of the next insert.
        let s = state(2);
        let cache = EvalCache::with_capacity(2);
        let widths = |ws: &[u32]| {
            for &w in ws {
                outcomes_cached(&s, &job(0, w), EvalParams::parallel(2), Some(&cache));
            }
        };
        widths(&[1, 2, 1, 3]);
        assert_eq!(
            cache.stats(),
            EvalCacheStats { hits: 1, misses: 3, evictions: 1 },
            "the width-3 class evicts width 2, the least recent"
        );
        widths(&[1, 2]);
        assert_eq!(
            cache.stats(),
            EvalCacheStats { hits: 2, misses: 4, evictions: 2 },
            "width 1 survived, width 2 was evicted and now evicts width 3"
        );
    }

    #[test]
    fn snapshots_replay_only_on_their_epoch_version_and_guard() {
        let weights = UtilityWeights::default();
        let j = job(0, 2);
        let key = JobClassKey::of(&j, weights).expect("plain job is keyable");
        let guard = ReplayGuard::of(&j);
        let decision =
            Some(Decision { gpus: on_machine(MachineId(1), &[GpuId(0), GpuId(1)]), utility: 0.75 });
        let cache = EvalCache::with_capacity(16);
        assert_eq!(cache.replay(&key, 7, 3, guard), None, "no snapshot yet");
        let idle = DecisionReplayStats::default();
        assert_eq!(cache.replay_stats(), idle, "a cold miss counts nothing");
        let snap = DecisionSnap { epoch: 7, version: 3, guard, decision: decision.clone() };
        cache.store_snapshot(&key, snap);
        assert_eq!(cache.replay(&key, 7, 3, guard), Some(decision), "same state, same guard");
        assert_eq!(cache.replay(&key, 7, 4, guard), None, "the state moved");
        assert_eq!(cache.replay_stats().hits, 1);
        assert_eq!(cache.replay_stats().full_fallbacks, 0, "a moved version is a plain miss");
        assert_eq!(cache.replay(&key, 8, 3, guard), None, "another state instance");
        let other_guard = ReplayGuard::of(&job(1, 2).with_min_utility(0.9));
        assert_eq!(cache.replay(&key, 7, 3, other_guard), None, "another guard");
        assert_eq!(cache.replay_stats().full_fallbacks, 2);
        let other = JobClassKey::of(&job(2, 3), weights).expect("keyable");
        assert_eq!(cache.replay(&other, 7, 3, guard), None, "each job class has its own snapshot");
        // A newer decision of the class replaces the snapshot.
        cache.store_snapshot(&key, DecisionSnap { epoch: 7, version: 5, guard, decision: None });
        assert_eq!(cache.replay(&key, 7, 5, guard), Some(None), "a stored wait replays too");
        assert_eq!(cache.replay(&key, 7, 3, guard), None);
        // Uncacheable jobs (explicit comm graph) have no class key, so the
        // policy can never reach a snapshot for them.
        let mut exotic = job(3, 2);
        exotic.comm_graph = Some(JobGraph::uniform(2, 1.0));
        assert!(JobClassKey::of(&exotic, weights).is_none());
    }

    #[test]
    fn snapshot_map_is_capped() {
        let cache = EvalCache::with_capacity(16);
        let guard = ReplayGuard::default();
        let key = |bw: usize| {
            let mut j = job(0, 1);
            j.bw_demand_gbs = bw as f64;
            JobClassKey::of(&j, UtilityWeights::default()).expect("keyable")
        };
        for bw in 0..=SNAP_CAP {
            let snap = DecisionSnap { epoch: 1, version: 1, guard, decision: None };
            cache.store_snapshot(&key(bw), snap);
        }
        assert_eq!(cache.snaps.borrow().len(), 1, "the insert past the cap clears the map first");
        assert_eq!(cache.replay(&key(SNAP_CAP), 1, 1, guard), Some(None));
        assert_eq!(cache.replay(&key(0), 1, 1, guard), None, "cleared snapshots are gone");
    }
}
