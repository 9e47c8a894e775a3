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
//!    machine state and the job-side inputs reduce to a small *job class*
//!    (a comm graph's content included), a `(machine class, job class) →
//!    outcome` entry never goes stale — only cold. [`EvalCache`] therefore
//!    persists across arrivals for the whole scheduler/simulation run (one
//!    LRU, owned by the [`crate::Scheduler`]), so steady-state arrivals
//!    that revisit known keys skip the DRB mapping entirely (DESIGN.md §9).
//!    The cache interns each job class to a dense id, which the scheduler
//!    takes once per job, at submit; a lookup then hashes the machine
//!    class's precomputed hash and that id. A retry on an unchanged state
//!    is mostly answered above the cache, by the scheduler's decision memo
//!    (DESIGN.md §14.2).

use crate::classes::ClassId;
use crate::oracle::StateOracle;
use crate::state::{mask_gpus, ClusterState, MachineClassKey};
use gts_job::{BatchClass, JobGraph, JobSpec, NnModel};
use gts_map::{drb_map, PlacementOracle as _, UtilityWeights};
use gts_topo::{GpuId, MachineId};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
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
    /// is deleted. The field stays so that callers reporting it keep
    /// compiling.
    pub shard_par: bool,
    /// Always `true`, and read by nothing: the shard bound it named is
    /// deleted. The field stays so that callers reporting it keep
    /// compiling.
    pub shard_bound: bool,
    /// Always `true`, and read by nothing: on the production path the
    /// scheduler always answers a retry on an unchanged state from its
    /// decision memo (DESIGN.md §14.2). The field stays so that callers
    /// reporting it keep compiling.
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
            std::env::var("GTS_EVAL_THREADS")
                .map_or_else(|_| default_threads(), |v| eval_threads(&v))
        }))
    }

    fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            shard_par: false,
            shard_bound: true,
            decision_replay: true,
        }
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

/// The `threads` value a `GTS_EVAL_THREADS` setting selects: a positive
/// integer, surrounding whitespace allowed, as given; anything else the
/// default.
fn eval_threads(value: &str) -> usize {
    match value.trim().parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => default_threads(),
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
/// per-candidate evaluation depends on, floats by bit pattern, including
/// an explicit comm graph's task count and the bits of every weight.
/// Equality compares all of it; no hash stands in for the graph.
/// `min_utility`, arrival time and iteration count never enter Eq. 2–5, so
/// jobs differing only there share entries. An [`EvalCache`] interns each
/// key once, to a dense [`JobClassId`], and keys its entries by that id.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct JobClassKey {
    model: NnModel,
    batch: BatchClass,
    n_gpus: u32,
    bw_bits: u64,
    weight_bits: [u64; 3],
    /// The explicit comm graph's task count and weight bits, row-major;
    /// `None` for the implicit uniform graph of `(n_gpus, batch)`.
    graph: Option<(usize, Box<[u64]>)>,
}

impl JobClassKey {
    fn of(job: &JobSpec, weights: UtilityWeights) -> Self {
        let graph = job.comm_graph.as_ref().map(|g| {
            let n = g.n_tasks();
            let bits = (0..n).flat_map(|i| (0..n).map(move |j| g.weight(i, j).to_bits()));
            (n, bits.collect())
        });
        Self {
            model: job.model,
            batch: job.batch,
            n_gpus: job.n_gpus,
            bw_bits: job.bw_demand_gbs.to_bits(),
            weight_bits: [
                weights.cc.to_bits(),
                weights.b.to_bits(),
                weights.d.to_bits(),
            ],
            graph,
        }
    }
}

/// Dense id of a job class interned by an [`EvalCache`].
pub(crate) type JobClassId = u32;

/// Job classes one [`EvalCache`] interns at most. A job of a class past
/// the bound is decided uncached (DESIGN.md §9.1).
pub(crate) const JOB_CLASS_BOUND: usize = 4096;

/// What the LRU map is keyed by: a machine class's precomputed hash and a
/// job-class id — a probe builds it from the two without cloning either
/// key. Equal hashes do not prove equal machine classes, so a probe that
/// finds an entry also compares the entry's machine key in full, and a
/// different class under the same hash is a miss that its insert then
/// overwrites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Probe {
    machine_hash: u64,
    job: JobClassId,
}

impl Probe {
    fn new(machine: &MachineClassKey, job: JobClassId) -> Self {
        Self {
            machine_hash: machine.hash_bits(),
            job,
        }
    }
}

impl Hash for Probe {
    fn hash<H: Hasher>(&self, h: &mut H) {
        h.write_u64(self.machine_hash.rotate_left(32) ^ u64::from(self.job));
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

const NIL: usize = usize::MAX;

/// The LRU: a hash map into a slab threaded with an intrusive doubly-linked
/// list (`head` = most recent, `tail` = eviction victim). All operations
/// are O(1).
struct Lru {
    map: HashMap<Probe, usize, BuildHasherDefault<FnvHasher>>,
    slab: Vec<Entry>,
    head: usize,
    tail: usize,
    capacity: usize,
}

struct Entry {
    machine: MachineClassKey,
    job: JobClassId,
    value: CandidateOutcome,
    prev: usize,
    next: usize,
}

impl Lru {
    fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::default(),
            slab: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
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

    fn get(&mut self, machine: &MachineClassKey, job: JobClassId) -> Option<CandidateOutcome> {
        let &i = self.map.get(&Probe::new(machine, job))?;
        let entry = &mut self.slab[i];
        if !entry.machine.same_instance(machine) {
            if entry.machine != *machine {
                return None;
            }
            // The class died and came back under a new key instance: hold
            // the live one, so later hits compare pointers and the dead
            // key's allocations are freed.
            entry.machine = machine.clone();
        }
        self.unlink(i);
        self.push_front(i);
        Some(self.slab[i].value.clone())
    }

    /// Inserts (or overwrites) an entry; returns `true` when an older entry
    /// was evicted to make room.
    fn insert(
        &mut self,
        machine: &MachineClassKey,
        job: JobClassId,
        value: CandidateOutcome,
    ) -> bool {
        let probe = Probe::new(machine, job);
        let entry = Entry {
            machine: machine.clone(),
            job,
            value,
            prev: NIL,
            next: NIL,
        };
        if let Some(&i) = self.map.get(&probe) {
            self.unlink(i);
            self.slab[i] = entry;
            self.push_front(i);
            return false;
        }
        if self.map.len() >= self.capacity {
            // Reuse the LRU victim's slot in place.
            let lru = self.tail;
            self.unlink(lru);
            let victim = &self.slab[lru];
            self.map.remove(&Probe::new(&victim.machine, victim.job));
            self.slab[lru] = entry;
            self.map.insert(probe, lru);
            self.push_front(lru);
            return true;
        }
        let i = self.slab.len();
        self.slab.push(entry);
        self.map.insert(probe, i);
        self.push_front(i);
        false
    }
}

/// The cross-event placement cache: a capacity-bounded LRU from
/// `(machine class, job-class id)` to the evaluated candidate outcome,
/// owned by a [`crate::Scheduler`] for the whole run, with the table that
/// interns each job class to its id (at most 4,096 of them).
///
/// Both key halves are pure functions of state (DESIGN.md §9), so entries
/// never go stale — a machine whose occupancy changes simply stops
/// producing the old key. Results are bit-identical with or without the
/// cache because a hit replays the bits a miss would have computed (debug
/// builds re-run the evaluation on every hit and assert exactly that).
///
/// The whole decision path runs on the caller's thread, so the cache is
/// plain single-threaded state: a `RefCell` and `Cell` counters, no locks.
pub struct EvalCache {
    lru: RefCell<Lru>,
    /// Every job class interned so far, with its dense id. The keys come
    /// from job specs, which a trace or manifest supplies, so the map
    /// keeps the default hasher; it is read once per job, at submit.
    job_classes: RefCell<HashMap<JobClassKey, JobClassId>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    evictions: Cell<u64>,
}

/// FNV-1a for the scheduler-internal hash maps (the LRU map and the class
/// table). Their keys are hashed on the per-decision hot path, where the
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

impl std::fmt::Debug for EvalCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl EvalCache {
    /// A cache bounded at `capacity` total entries (floor of one).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            lru: RefCell::new(Lru::new(capacity.max(1))),
            job_classes: RefCell::default(),
            hits: Cell::new(0),
            misses: Cell::new(0),
            evictions: Cell::new(0),
        }
    }

    /// The cache for a cluster of `n_racks` racks (1 on a flat fabric):
    /// 4,096 entries per rack (DESIGN.md §15.8).
    pub fn per_rack(n_racks: usize) -> Self {
        Self::with_capacity(CAPACITY_PER_RACK.saturating_mul(n_racks.max(1)))
    }

    /// Counters so far.
    pub fn stats(&self) -> EvalCacheStats {
        EvalCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
        }
    }

    /// The dense id of `job`'s class under `weights`, interned on first
    /// sight, or `None` when [`JOB_CLASS_BOUND`] other classes hold every
    /// id. Ids are handed out in interning order and never change.
    pub(crate) fn intern(&self, job: &JobSpec, weights: UtilityWeights) -> Option<JobClassId> {
        let key = JobClassKey::of(job, weights);
        let mut ids = self.job_classes.borrow_mut();
        if let Some(&id) = ids.get(&key) {
            return Some(id);
        }
        let id = ids.len();
        if id >= JOB_CLASS_BOUND {
            return None;
        }
        ids.insert(key, id as JobClassId);
        Some(id as JobClassId)
    }

    fn get(&self, machine: &MachineClassKey, job: JobClassId) -> Option<CandidateOutcome> {
        let hit = self.lru.borrow_mut().get(machine, job);
        bump(
            if hit.is_some() {
                &self.hits
            } else {
                &self.misses
            },
            1,
        );
        hit
    }

    fn insert(&self, machine: &MachineClassKey, job: JobClassId, value: CandidateOutcome) {
        if self.lru.borrow_mut().insert(machine, job, value) {
            bump(&self.evictions, 1);
        }
    }
}

fn bump(counter: &Cell<u64>, n: u64) {
    counter.set(counter.get() + n);
}

/// Evaluates one candidate machine for `job`: DRB mapping, bandwidth
/// check, utility and fragmentation-after, all through one oracle. Pure in
/// the cluster state; allocates only the mapping it returns.
fn evaluate_one(
    state: &ClusterState,
    job: &JobSpec,
    graph: &JobGraph,
    weights: UtilityWeights,
    machine: MachineId,
) -> CandidateOutcome {
    let mut buf = [GpuId(0); 128];
    let free = mask_gpus(state.free_mask_bits(machine), &mut buf);
    let oracle = StateOracle::new(state, machine, job);
    let Ok(gpus) = drb_map(graph, free, &oracle, weights) else {
        return CandidateOutcome::NoMapping;
    };
    if !state.fits_bw(machine, &gpus, job.bw_demand_gbs) {
        return CandidateOutcome::RejectedBandwidth { gpus: gpus.into() };
    }
    let frag_after = oracle.fragmentation_after(&gpus);
    let utility = oracle.utility(&gpus, weights);
    CandidateOutcome::Feasible {
        gpus: gpus.into(),
        utility,
        frag_after,
    }
}

/// Debug check behind every cache hit: re-run the full evaluation, on a
/// graph of its own, and assert the cached bits are exactly what a miss
/// would have produced.
#[cfg(debug_assertions)]
fn debug_assert_hit_matches(
    state: &ClusterState,
    job: &JobSpec,
    weights: UtilityWeights,
    machine: MachineId,
    hit: &CandidateOutcome,
) {
    let fresh = evaluate_one(state, job, &JobGraph::from_spec(job), weights, machine);
    let bits_equal = match (&fresh, hit) {
        (CandidateOutcome::NoMapping, CandidateOutcome::NoMapping) => true,
        (
            CandidateOutcome::RejectedBandwidth { gpus: a },
            CandidateOutcome::RejectedBandwidth { gpus: b },
        ) => a == b,
        (
            CandidateOutcome::Feasible {
                gpus: ga,
                utility: ua,
                frag_after: fa,
            },
            CandidateOutcome::Feasible {
                gpus: gb,
                utility: ub,
                frag_after: fb,
            },
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
    candidates
        .iter()
        .map(|&m| evaluate_one(state, job, graph, weights, m))
        .collect()
}

/// One outcome per live machine class in `classes` (`(lowest member,
/// class)` pairs, ascending by lowest member — the order in which a scan
/// over the machines first meets each class), evaluated on the lowest
/// member when the cross-event cache does not know it (DESIGN.md §15).
/// The per-machine capacity filter, class grouping and per-candidate
/// fan-out of a flat scan never run: the class table already holds the
/// grouping.
///
/// `cached` names the cache and `job`'s interned class in it; a job
/// without one (no cache, or a class past [`JOB_CLASS_BOUND`]) is
/// evaluated uncached. Every class is looked up before any is inserted:
/// an insert can evict a later class's entry, so this order decides the
/// hit/miss/eviction counts. The misses then evaluate on their lowest
/// members, in order, and fill the cache; the job's graph is built only
/// when some class misses.
pub(crate) fn evaluate_live_classes(
    state: &ClusterState,
    job: &JobSpec,
    weights: UtilityWeights,
    classes: &[(MachineId, ClassId)],
    cached: Option<(&EvalCache, JobClassId)>,
) -> Vec<CandidateOutcome> {
    let Some((cache, job_class)) = cached else {
        let graph = JobGraph::from_spec(job);
        return classes
            .iter()
            .map(|&(m, _)| evaluate_one(state, job, &graph, weights, m))
            .collect();
    };
    let table = state.classes();
    let mut outcomes: Vec<Option<CandidateOutcome>> = Vec::with_capacity(classes.len());
    let mut pending: Vec<usize> = Vec::new();
    for (i, &(_m, c)) in classes.iter().enumerate() {
        let hit = cache.get(table.key(c), job_class);
        #[cfg(debug_assertions)]
        if let Some(hit) = &hit {
            debug_assert_hit_matches(state, job, weights, _m, hit);
        }
        if hit.is_none() {
            pending.push(i);
        }
        outcomes.push(hit);
    }
    if !pending.is_empty() {
        let graph = JobGraph::from_spec(job);
        for i in pending {
            let (m, c) = classes[i];
            let outcome = evaluate_one(state, job, &graph, weights, m);
            cache.insert(table.key(c), job_class, outcome.clone());
            outcomes[i] = Some(outcome);
        }
    }
    outcomes
        .into_iter()
        .map(|o| o.expect("every class resolved"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::on_machine;
    use gts_perf::ProfileLibrary;
    use gts_topo::{power8_minsky, ClusterTopology};
    use proptest::prelude::*;
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
        let weights = UtilityWeights::default();
        let candidates = s.machines_with_capacity(j.n_gpus as usize);
        if params.is_sequential() {
            return evaluate_topo_candidates(s, j, &JobGraph::from_spec(j), weights, &candidates);
        }
        // The production form: one outcome per live class, expanded here
        // to the candidates for comparison.
        let mut classes = Vec::new();
        s.classes()
            .with_capacity_into(j.n_gpus as usize, &mut classes);
        let cached = cache.and_then(|c| Some((c, c.intern(j, weights)?)));
        let outcomes = evaluate_live_classes(s, j, weights, &classes, cached);
        candidates
            .iter()
            .map(|&m| {
                let class = s.classes().class_of(m);
                let i = classes
                    .iter()
                    .position(|&(_, c)| c == class)
                    .expect("live class");
                outcomes[i].clone()
            })
            .collect()
    }

    #[test]
    fn parallel_clamps_to_two() {
        assert!(EvalParams::sequential().is_sequential());
        assert!(!EvalParams::parallel(1).is_sequential());
        assert_eq!(EvalParams::parallel(1).threads, 2);
    }

    #[test]
    fn eval_threads_selects_the_reference_or_the_default() {
        for value in ["1", " 1\n"] {
            let params = EvalParams::with_threads(eval_threads(value));
            assert!(params.is_sequential(), "{value:?}");
        }
        assert!(default_threads() >= 2);
        for value in ["", "0", "-1", "abc", "18446744073709551616"] {
            assert_eq!(eval_threads(value), default_threads(), "{value:?}");
        }
    }

    /// Strings over the characters the parse branches on (digits, signs,
    /// whitespace, letters, a multi-byte character), mixed with arbitrary
    /// Unicode scalar values.
    fn arb_setting() -> impl Strategy<Value = String> {
        let alphabet = prop::sample::select("0123456789 +-\t\nxé".chars().collect::<Vec<_>>());
        let any_char = (0u32..=0x10_FFFF).prop_map(|c| char::from_u32(c).unwrap_or('\u{FFFD}'));
        prop::collection::vec(prop_oneof![alphabet, any_char], 0..24).prop_map(String::from_iter)
    }

    proptest! {
        #[test]
        fn eval_threads_never_panics_and_selects_at_least_one(value in arb_setting()) {
            prop_assert!(eval_threads(&value) >= 1);
        }
    }

    #[test]
    fn engine_matches_sequential_reference_bitwise() {
        let mut s = state(12);
        // Differentiate a few machines so several classes exist.
        s.place(
            job(100, 2),
            on_machine(MachineId(0), &[GpuId(0), GpuId(1)]),
            1.0,
        );
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
                CandidateOutcome::Feasible {
                    utility: ua,
                    frag_after: fa,
                    ..
                },
                CandidateOutcome::Feasible {
                    utility: ub,
                    frag_after: fb,
                    ..
                },
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
        s.place(
            job(100, 2),
            on_machine(MachineId(0), &[GpuId(0), GpuId(1)]),
            1.0,
        );
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
                    CandidateOutcome::Feasible {
                        gpus: ga,
                        utility: ua,
                        frag_after: fa,
                    },
                    CandidateOutcome::Feasible {
                        gpus: gb,
                        utility: ub,
                        frag_after: fb,
                    },
                ) => {
                    assert_eq!(ga, gb);
                    assert_eq!(ua.to_bits(), ub.to_bits());
                    assert_eq!(fa.to_bits(), fb.to_bits());
                }
                (x, y) => assert_eq!(x, y),
            }
        }
    }

    /// Jobs with equal comm graphs intern to one class and share its
    /// entries; a job whose graph differs from another's in a weight, in
    /// its shape, or only in being uniform never shares theirs.
    #[test]
    fn comm_graph_jobs_share_entries_only_with_equal_graphs() {
        let s = state(4);
        let weights = UtilityWeights::default();
        let on = |id, graph: Option<JobGraph>| {
            let j = JobSpec::new(id, NnModel::AlexNet, BatchClass::Tiny, 4);
            match graph {
                Some(g) => j.with_comm_graph(g),
                None => j,
            }
        };
        let pipeline = || Some(JobGraph::pipeline(4, 4.0));
        let production = EvalParams::parallel(2);

        let cache = EvalCache::with_capacity(64);
        let (first, twin) = (on(0, pipeline()), on(1, pipeline()).with_min_utility(0.9));
        assert_eq!(cache.intern(&first, weights), cache.intern(&twin, weights));
        let cold = outcomes_cached(&s, &first, production, Some(&cache));
        let after_cold = cache.stats();
        assert_eq!(after_cold.hits, 0);
        assert!(after_cold.misses >= 1);
        let warm = outcomes_cached(&s, &twin, production, Some(&cache));
        assert_eq!(warm, cold);
        assert_eq!(
            cache.stats().misses,
            after_cold.misses,
            "the twin evaluates nothing"
        );
        assert_eq!(
            cache.stats().hits,
            after_cold.misses,
            "the twin hits every class"
        );

        let others = [
            ("a lighter pipeline", Some(JobGraph::pipeline(4, 3.0))),
            ("a ring", Some(JobGraph::ring(4, 4.0))),
            ("the uniform graph", Some(JobGraph::uniform(4, 4.0))),
            ("no graph", None),
        ];
        for (name, graph) in others {
            let cache = EvalCache::with_capacity(64);
            let other = on(1, graph);
            assert_ne!(
                cache.intern(&first, weights),
                cache.intern(&other, weights),
                "{name}"
            );
            outcomes_cached(&s, &first, production, Some(&cache));
            let before = cache.stats();
            let got = outcomes_cached(&s, &other, production, Some(&cache));
            let after = cache.stats();
            assert_eq!(after.hits, before.hits, "{name} hit the pipeline's entries");
            assert_eq!(after.misses, 2 * before.misses, "{name} missed every class");
            assert_eq!(
                got,
                outcomes(&s, &other, EvalParams::sequential()),
                "{name}"
            );
        }
    }

    /// Once the interning table is full, a job of a new class gets no id
    /// and is decided uncached, equal to the sequential reference; the
    /// classes interned before it keep their ids.
    #[test]
    fn a_job_past_the_interning_bound_decides_uncached() {
        let mut s = state(3);
        s.place(
            job(100, 2),
            on_machine(MachineId(0), &[GpuId(0), GpuId(1)]),
            1.0,
        );
        let weights = UtilityWeights::default();
        let cache = EvalCache::with_capacity(64);
        let filler = |i: usize| job(1000 + i as u64, 1).with_bw_demand(i as f64 * 1e-6);
        for i in 0..JOB_CLASS_BOUND {
            assert_eq!(cache.intern(&filler(i), weights), Some(i as JobClassId));
        }
        let late = JobSpec::new(0, NnModel::GoogLeNet, BatchClass::Big, 2)
            .with_comm_graph(JobGraph::pipeline(2, 1.0));
        assert_eq!(cache.intern(&late, weights), None);
        assert_eq!(
            cache.intern(&filler(7), weights),
            Some(7),
            "interned ids stay"
        );

        let policy = crate::Policy::new(crate::PolicyKind::TopoAwareP);
        let got = policy.decide_with(&s, &late, EvalParams::parallel(2), Some(&cache), None);
        let want = policy.decide_with(&s, &late, EvalParams::sequential(), None, None);
        let bits = |d: Option<crate::policy::Decision>| d.map(|d| (d.gpus, d.utility.to_bits()));
        assert_eq!(bits(got), bits(want));
        assert_eq!(
            cache.stats(),
            EvalCacheStats::default(),
            "no lookup for an uninterned class"
        );
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
            EvalCacheStats {
                hits: 1,
                misses: 3,
                evictions: 1
            },
            "the width-3 class evicts width 2, the least recent"
        );
        widths(&[1, 2]);
        assert_eq!(
            cache.stats(),
            EvalCacheStats {
                hits: 2,
                misses: 4,
                evictions: 2
            },
            "width 1 survived, width 2 was evicted and now evicts width 3"
        );
    }

    /// A machine class that dies and comes back holds a new key instance,
    /// equal by content. The first hit on its entry re-points the entry at
    /// the live instance and answers and counts as any hit does.
    #[test]
    fn a_revived_class_repoints_its_cache_entry() {
        let mut s = state(1);
        let j = job(0, 2);
        let cache = EvalCache::with_capacity(8);
        let cold = outcomes_cached(&s, &j, EvalParams::parallel(2), Some(&cache));
        let dead = s.machine_class_key(MachineId(0)).clone();
        // The class's only member leaves it, so it dies, and comes back.
        s.place(job(100, 1), on_machine(MachineId(0), &[GpuId(3)]), 1.0);
        s.release(gts_job::JobId(100));
        let live = s.machine_class_key(MachineId(0)).clone();
        assert!(live == dead && !live.same_instance(&dead));
        let id = cache.intern(&j, UtilityWeights::default());
        let entry_key = |cache: &EvalCache| {
            let lru = cache.lru.borrow();
            let probe = Probe::new(&live, id.expect("interned"));
            lru.slab[lru.map[&probe]].machine.clone()
        };
        assert!(entry_key(&cache).same_instance(&dead));

        for hits in 1..=2 {
            let warm = outcomes_cached(&s, &j, EvalParams::parallel(2), Some(&cache));
            assert_eq!(warm, cold);
            let stats = EvalCacheStats {
                hits,
                misses: 1,
                evictions: 0,
            };
            assert_eq!(cache.stats(), stats);
            assert!(entry_key(&cache).same_instance(&live));
        }
    }
}
