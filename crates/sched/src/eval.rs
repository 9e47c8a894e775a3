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
//!    mapping per *class* and fans the result out to every member.
//! 2. **One thread, candidate order.** Representatives are evaluated on
//!    the caller's thread in first-seen order. Together with the oracle's
//!    canonical co-runner order this keeps every utility bit-identical to
//!    the sequential reference ([`EvalParams::sequential`]), and every
//!    cache counter repeats exactly between identical runs.
//!
//! The engine never changes *which* candidate wins: the policy's
//! tie-breaking (`FRAG_TIE_EPS` + Eq. 5) runs sequentially over the
//! fanned-out per-candidate outcomes in original candidate order.
//!
//! 3. **Cross-event caching.** Because the class key is a pure function of
//!    machine state and the job-side inputs reduce to a small *job class*,
//!    a `(machine class, job class) → outcome` entry never goes stale —
//!    only cold. [`EvalCache`] therefore persists across arrivals for the
//!    whole scheduler/simulation run (one LRU, owned by the
//!    [`crate::Scheduler`]), so steady-state arrivals that revisit known
//!    keys skip the DRB mapping entirely (DESIGN.md §9).

use crate::oracle::{placement_utility, StateOracle};
use crate::state::{ClusterState, MachineClassKey};
use gts_job::{BatchClass, JobGraph, JobSpec, NnModel};
use gts_map::{drb_map, PlacementOracle as _, UtilityWeights};
use gts_topo::{GlobalGpuId, GpuId, MachineId};
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
    /// Always `false`: memo-miss shards evaluate on the caller's thread.
    /// The field stays so that callers reporting the knob keep compiling.
    pub shard_par: bool,
    /// Always `true`: the production path always prunes memo-miss shards
    /// whose admissible utility bound proves them uncompetitive (exact
    /// branch-and-bound, DESIGN.md §11). The field stays so that callers
    /// reporting it keep compiling.
    pub shard_bound: bool,
    /// Always `true`: the production path always replays queue retries
    /// from the per-job-class decision snapshot (DESIGN.md §12). The field
    /// stays so that callers reporting it keep compiling.
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
        /// The rejected GPU pick (shared: outcomes are cloned between
        /// the cross-event cache, shard memo entries and repairs, so the
        /// pick is refcounted rather than reallocated per clone).
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
/// `min_utility` (selection window and bound pruning) and `single_node`
/// (the spill fallthrough). A [`DecisionSnap`] stores the guard of its
/// decision and replays only for a job with an equal one.
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

/// What the O(1) decision replay (DESIGN.md §12) is keyed by: the job
/// class of the memo row that holds the snapshot, and the snapshot's
/// guard. On one cluster state, jobs with equal keys get the same
/// decision, which is what lets a scheduler iteration reuse an unplaced
/// job's answer for every later job of its key (DESIGN.md §14).
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

/// Cache entries granted per state shard: a cluster split into `n`
/// shards gets one [`EvalCache`] of `n ×` this capacity.
const CAPACITY_PER_SHARD: usize = 4096;

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

/// Cross-event decision-replay counters (DESIGN.md §12), read at any point
/// of a run via [`crate::Scheduler::decision_replay_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionReplayStats {
    /// Retries answered from a snapshot (full or partial replay).
    pub hits: u64,
    /// Jobs answered without a decision: a scheduler iteration gave an
    /// earlier unplaced job with the same replay key (job class,
    /// `min_utility`, `single_node`) its answer and placed nothing since,
    /// so this job gets that answer too (DESIGN.md §14). Without reuse
    /// each would have been decided again, by an O(1) full replay hit
    /// unless a same-class job with other guards decided in between. None
    /// is counted in `hits` or in the scheduler's decision statistics.
    pub reused: u64,
    /// Shards re-evaluated by partial replays; everything else was reused.
    pub shards_reeval: u64,
    /// Snapshots present but unusable (epoch/guard mismatch) — the
    /// decision fell back to the full path.
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
/// by a [`crate::Scheduler`] for the whole run.
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
    /// Cross-decision memo of whole-shard evaluations for the two-level
    /// sharded path, keyed by (state shard, job class) and guarded by the
    /// shard index's `(epoch, version)` pair — see [`ShardClassed`].
    shard_memo: RefCell<ShardMemoMap>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    evictions: Cell<u64>,
    /// Queue-drain retries answered wholesale from a decision snapshot
    /// (nothing moved anywhere — O(1) replay, zero shards touched).
    replay_hits: Cell<u64>,
    /// Shards re-evaluated by partial replays (everything else reused).
    replay_shards_reeval: Cell<u64>,
    /// Snapshots present but unusable (epoch or guard mismatch), falling
    /// back to the full decision path.
    replay_full_fallbacks: Cell<u64>,
}

/// One state-shard's fully grouped evaluation for one job class: the
/// capacity-filtered candidate list (ascending machine id), the class
/// grouping with per-class outcomes, and the shard-local `u_max` fold —
/// everything `decide_topo_sharded` needs to stream its selection scan
/// without re-walking the shard's machines.
///
/// Validity is proven by the shard index's `(epoch, version)` pair: the
/// version advances whenever a member machine's class key is rebuilt, and
/// every eval-relevant mutation rebuilds the touched machine's key (the
/// same purity argument that keeps [`EvalCache`] entries from going stale,
/// DESIGN.md §9–§10). An unchanged pair therefore pins both the candidate
/// set (free masks are key components) and every class outcome.
#[derive(Default)]
pub(crate) struct ShardClassed {
    /// Shard members with `free_count >= job.n_gpus`, ascending id.
    pub candidates: Vec<MachineId>,
    /// Each candidate's class-key rebuild stamp
    /// ([`ClusterState::key_stamp`]) at evaluation time, aligned with
    /// `candidates`. A stale entry (version moved on) is *repaired*
    /// instead of rebuilt: a candidate whose stored stamp still equals
    /// its live stamp provably kept its class key — the key only changes
    /// through the stamp-bumping rebuild — and the key is a pure function
    /// of machine state, so the stored outcome bits are its live outcome
    /// bits. A plain `u64` compare per candidate, no `Arc` traffic.
    pub stamps: Vec<u64>,
    /// Class grouping + one outcome per class, aligned with `candidates`.
    pub classed: ClassedOutcomes,
    /// `max` fold of the feasible utilities in candidate order
    /// (`NEG_INFINITY` when none are feasible).
    pub u_max: f64,
    /// Indices into `candidates` (ascending) of the only candidates that
    /// can ever win a selection scan: those whose feasible utility is
    /// within `FRAG_TIE_EPS` of this shard's own `u_max`, keeping just the
    /// head of each consecutive same-class run. The global floor is
    /// `u_global_max − FRAG_TIE_EPS ≥ u_max − FRAG_TIE_EPS` (float
    /// subtraction of a constant is monotone), so every below-window
    /// candidate provably fails the scan's floor test; a run repeat
    /// carries its head's exact `(utility, frag)` bits, on which
    /// `beats_winner` is always false — the scan walks this (typically
    /// tiny) window instead of the whole shard.
    pub contenders: Vec<u32>,
}

/// One state shard's memo slot for one job class: the `(epoch, version)`
/// pair the stored whole-shard evaluation was built under. `value: None`
/// means never filled (or wiped by a cap clear / shard-count change).
#[derive(Default)]
pub(crate) struct ShardSlot {
    pub epoch: u64,
    pub version: u64,
    pub value: Option<Arc<ShardClassed>>,
}

/// How the last snapshotted decision for a job class resolved one shard.
/// `Evaluated` carries no entry of its own: the per-shard [`ShardSlot`] in
/// the same row holds it (stored and guarded together).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) enum SnapState {
    /// The shard failed admission (no machine wide enough for the job).
    #[default]
    NotAdmitted,
    /// The shard was fully evaluated; its entry sits in the row's slot.
    Evaluated,
    /// The shard was branch-and-bound pruned under this admissible bound.
    Pruned {
        /// The exact [`crate::bound::ShardBoundCtx`] bound at prune time —
        /// still the live bound while the shard's version is unchanged
        /// (every bound input is pinned by the `(epoch, version)` pair).
        bound: f64,
    },
}

/// A whole-decision snapshot for one job class (DESIGN.md §12): the
/// per-shard version vector captured at decision time, how each shard
/// resolved, and the decision itself. A retry whose live `(epoch, total
/// version)` stamps match replays the decision in O(1); a partial match
/// re-evaluates only the shards whose version moved, reusing everything
/// else (the per-shard states stay valid because every eval-relevant
/// mutation bumps the touched shard's version — the same funnel argument
/// that guards the shard memo).
///
/// The [`ReplayGuard`] inputs are *not* part of [`JobClassKey`] but do
/// steer the selection, so the snapshot carries its decision's guard and a
/// mismatch falls back to the full path.
#[derive(Debug, Default)]
pub(crate) struct DecisionSnap {
    /// The shard index epoch the snapshot was taken under.
    pub epoch: u64,
    /// Sum of per-shard versions at decision time (O(1) full-match probe).
    pub total_version: u64,
    /// Per-shard versions at decision time, indexed by shard.
    pub versions: Vec<u64>,
    /// Per-shard resolution at decision time, indexed by shard.
    pub states: Vec<SnapState>,
    /// The deciding job's guard.
    pub guard: ReplayGuard,
    /// The decision the full path produced: granted GPUs and utility, or
    /// `None` when nothing (including the spill fallthrough) placed.
    pub decision: Option<(Vec<GlobalGpuId>, f64)>,
}

/// One job class's row in the shard memo: the per-shard slots plus the
/// whole-decision snapshot, guarded together.
#[derive(Default)]
pub(crate) struct MemoRow {
    /// Per state-shard memo slots, indexed by shard.
    pub slots: Box<[ShardSlot]>,
    /// The last decision snapshot for this class (replay path), if any.
    pub snap: Option<DecisionSnap>,
}

/// FNV-1a for the scheduler-internal hash maps (the shard memo and the LRU
/// map). Their keys are hashed on the per-decision hot path, where the
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

/// The shard memo, inverted: one row of per-shard slots (plus the decision
/// snapshot) per job class. A decision probes every admitted shard with the
/// *same* job class, so this layout pays one key hash per decision and then
/// a plain indexed version compare per shard, instead of a keyed map probe
/// (hash + equality) per shard.
type ShardMemoMap = HashMap<JobClassKey, MemoRow, std::hash::BuildHasherDefault<FnvHasher>>;

/// Safety valve on distinct job-class rows in the memo. Real traces carry
/// a few dozen job classes, so this is far above steady state.
const SHARD_MEMO_CAP: usize = 512;

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
            shard_memo: RefCell::new(ShardMemoMap::default()),
            hits: Cell::new(0),
            misses: Cell::new(0),
            evictions: Cell::new(0),
            replay_hits: Cell::new(0),
            replay_shards_reeval: Cell::new(0),
            replay_full_fallbacks: Cell::new(0),
        }
    }

    /// The cache for a state split into `n_shards` shards: one cache shared
    /// by every shard, with a fixed capacity granted per shard (the same
    /// total budget a cache-per-shard split would claim). Sharing matters
    /// because machine-class keys recur across shards — an idle machine's
    /// key is the same in every rack — so one cache learns each (machine
    /// class, job class) pair once rather than once per shard.
    pub fn per_shard(n_shards: usize) -> Self {
        Self::with_capacity(CAPACITY_PER_SHARD.saturating_mul(n_shards.max(1)))
    }

    /// Runs `f` over the memo row (per-shard slots + decision snapshot) for
    /// `job`, creating (or re-sizing) the row on first touch — one borrow
    /// and one key hash per call no matter how many shards the caller then
    /// reads or writes. Past [`SHARD_MEMO_CAP`] distinct job classes the
    /// memo is cleared wholesale (that rare insert hashes twice); a row
    /// whose slot count disagrees with `n_shards` (the shard layout
    /// changed, which also advances the epoch) is reset empty, snapshot
    /// included. `f` must not re-enter the memo.
    pub(crate) fn with_memo_row<R>(
        &self,
        job: &JobClassKey,
        n_shards: usize,
        f: impl FnOnce(&mut MemoRow) -> R,
    ) -> R {
        let mut memo = self.shard_memo.borrow_mut();
        if memo.len() >= SHARD_MEMO_CAP && !memo.contains_key(job) {
            memo.clear();
        }
        let row = memo.entry(job.clone()).or_default();
        if row.slots.len() != n_shards {
            let slots: Box<[ShardSlot]> = (0..n_shards).map(|_| ShardSlot::default()).collect();
            *row = MemoRow { slots, snap: None };
        }
        f(row)
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
            shards_reeval: self.replay_shards_reeval.get(),
            full_fallbacks: self.replay_full_fallbacks.get(),
        }
    }

    /// Counts one retry answered from a snapshot.
    pub(crate) fn note_replay_hit(&self) {
        bump(&self.replay_hits, 1);
    }

    /// Counts `n` shards re-evaluated by a partial replay.
    pub(crate) fn note_replay_reeval(&self, n: u64) {
        bump(&self.replay_shards_reeval, n);
    }

    /// Counts one snapshot that was present but unusable.
    pub(crate) fn note_replay_fallback(&self) {
        bump(&self.replay_full_fallbacks, 1);
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

/// Resolves one candidate machine's outcome the way a fresh
/// [`evaluate_topo_classes`] pass would: served from the cross-event cache
/// when the `(machine class, job class)` pair is known, otherwise the full
/// evaluation runs and fills the cache. The shard-repair path calls this
/// for exactly the machines whose class key changed since the memoized
/// pass; `job_bits` must be `job_class.bits()`, hoisted by the caller.
#[allow(clippy::too_many_arguments)]
pub(crate) fn resolve_candidate_outcome(
    state: &ClusterState,
    job: &JobSpec,
    graph: &JobGraph,
    weights: UtilityWeights,
    machine: MachineId,
    key: &MachineClassKey,
    job_class: Option<&JobClassKey>,
    job_bits: u64,
    cache: Option<&EvalCache>,
) -> CandidateOutcome {
    if let (Some(cache), Some(jc)) = (cache, job_class) {
        let k = CacheKey::new(key.clone(), jc.clone(), job_bits);
        if let Some(hit) = cache.get(&k) {
            #[cfg(debug_assertions)]
            debug_assert_hit_matches(state, job, graph, weights, machine, &hit);
            return hit;
        }
        let outcome = evaluate_one(state, job, graph, weights, machine);
        cache.insert(k, outcome.clone());
        outcome
    } else {
        evaluate_one(state, job, graph, weights, machine)
    }
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

/// Evaluates every candidate machine, returning outcomes in candidate
/// order. `params.threads == 1` is the sequential reference; otherwise
/// candidates are deduplicated into equivalence classes via the state's
/// precomputed keys and one representative per class is evaluated. With a
/// `cache`, class results are first looked up in — and misses fill — the
/// cross-event cache.
pub(crate) fn evaluate_topo_candidates(
    state: &ClusterState,
    job: &JobSpec,
    graph: &JobGraph,
    weights: UtilityWeights,
    candidates: &[MachineId],
    params: EvalParams,
    cache: Option<&EvalCache>,
) -> Vec<CandidateOutcome> {
    if params.is_sequential()
        || candidates.is_empty()
        || (candidates.len() < 2 && cache.is_none())
    {
        return candidates
            .iter()
            .map(|&m| evaluate_one(state, job, graph, weights, m))
            .collect();
    }
    let classed = evaluate_topo_classes(state, job, graph, weights, candidates, cache);
    // Fan each class result out to its members, preserving candidate order.
    classed
        .class_of
        .into_iter()
        .map(|c| classed.outcomes[c].clone())
        .collect()
}

/// Class-grouped candidate evaluation without the per-candidate fan-out:
/// each candidate maps to an index into `outcomes` via `class_of`. The
/// two-level sharded decision path consumes this form directly, streaming
/// the selection scan over by-reference class outcomes instead of cloning
/// one outcome per candidate machine.
#[derive(Default)]
pub(crate) struct ClassedOutcomes {
    /// Per candidate (input order): index into `outcomes`.
    pub class_of: Vec<usize>,
    /// One outcome per distinct equivalence class.
    pub outcomes: Vec<CandidateOutcome>,
}

/// The engine's class-level core: groups `candidates` into equivalence
/// classes via the state's precomputed keys, answers what it can from the
/// cross-event `cache`, and evaluates the remaining representatives in
/// first-seen order. Outcomes are bit-identical to evaluating each
/// candidate individually, by the class-key purity argument (DESIGN.md §7,
/// §9).
pub(crate) fn evaluate_topo_classes(
    state: &ClusterState,
    job: &JobSpec,
    graph: &JobGraph,
    weights: UtilityWeights,
    candidates: &[MachineId],
    cache: Option<&EvalCache>,
) -> ClassedOutcomes {
    // Group candidates into equivalence classes; the first member of each
    // class is its representative. Keys are precomputed by `ClusterState`
    // (rebuilt only for machines the last events touched), so this loop is
    // O(candidates) hash-map probes with zero key construction.
    let mut class_of: Vec<usize> = Vec::with_capacity(candidates.len());
    let mut reps: Vec<MachineId> = Vec::new();
    let mut rep_keys: Vec<MachineClassKey> = Vec::new();
    let mut index: HashMap<MachineClassKey, usize> = HashMap::new();
    for &m in candidates {
        let key = state.machine_class_key(m);
        let class = match index.get(key) {
            Some(&c) => c,
            None => {
                index.insert(key.clone(), reps.len());
                reps.push(m);
                rep_keys.push(key.clone());
                reps.len() - 1
            }
        };
        class_of.push(class);
    }

    // Serve whatever the cross-event cache already knows; evaluate the rest.
    // Every class is looked up before any is inserted: an insert can evict
    // a later class's entry, so this order decides the hit/miss counts.
    let job_class = cache.and_then(|_| JobClassKey::of(job, weights));
    let cache = if job_class.is_some() { cache } else { None };
    let mut rep_outcomes: Vec<Option<CandidateOutcome>> = vec![None; reps.len()];
    let mut pending: Vec<usize> = Vec::new();
    if let (Some(cache), Some(jc)) = (cache, &job_class) {
        let job_bits = jc.bits();
        for (i, key) in rep_keys.iter().enumerate() {
            match cache.get(&CacheKey::new(key.clone(), jc.clone(), job_bits)) {
                Some(hit) => {
                    #[cfg(debug_assertions)]
                    debug_assert_hit_matches(state, job, graph, weights, reps[i], &hit);
                    rep_outcomes[i] = Some(hit);
                }
                None => pending.push(i),
            }
        }
    } else {
        pending.extend(0..reps.len());
    }

    for i in pending {
        let outcome = evaluate_one(state, job, graph, weights, reps[i]);
        if let (Some(cache), Some(jc)) = (cache, &job_class) {
            cache.insert(
                CacheKey::new(rep_keys[i].clone(), jc.clone(), jc.bits()),
                outcome.clone(),
            );
        }
        rep_outcomes[i] = Some(outcome);
    }
    ClassedOutcomes {
        class_of,
        outcomes: rep_outcomes
            .into_iter()
            .map(|o| o.expect("every class evaluated"))
            .collect(),
    }
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
        let candidates = s.machines_with_capacity(j.n_gpus as usize);
        evaluate_topo_candidates(
            s,
            j,
            &graph,
            UtilityWeights::default(),
            &candidates,
            params,
            cache,
        )
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
    fn shard_memo_round_trips_and_guards_on_epoch_and_version() {
        let s = state(4);
        let j = job(0, 2);
        let weights = UtilityWeights::default();
        let cache = EvalCache::with_capacity(16);
        let candidates: Vec<MachineId> = s.machines_with_capacity(2);
        let graph = JobGraph::from_spec(&j);
        let classed = evaluate_topo_classes(&s, &j, &graph, weights, &candidates, None);
        let stamps: Vec<u64> = candidates.iter().map(|&m| s.key_stamp(m)).collect();
        let entry = Arc::new(ShardClassed {
            candidates,
            stamps,
            classed,
            u_max: 0.75,
            contenders: vec![0],
        });
        let key = JobClassKey::of(&j, weights).expect("plain job is keyable");
        cache.with_memo_row(&key, 2, |row| {
            assert_eq!(row.slots.len(), 2, "row sized to the shard count");
            assert!(row.slots[0].value.is_none(), "empty memo has no entry");
            assert!(row.snap.is_none(), "fresh row has no decision snapshot");
            row.slots[0] = ShardSlot { epoch: 7, version: 3, value: Some(Arc::clone(&entry)) };
            row.snap = Some(DecisionSnap {
                epoch: 7,
                total_version: 3,
                versions: vec![3, 0],
                states: vec![SnapState::Evaluated, SnapState::NotAdmitted],
                guard: ReplayGuard::of(&j),
                decision: None,
            });
        });
        cache.with_memo_row(&key, 2, |row| {
            let hit = &row.slots[0];
            assert_eq!((hit.epoch, hit.version), (7, 3), "guard pair round-trips");
            let v = hit.value.as_ref().expect("filled slot persists");
            assert!(Arc::ptr_eq(v, &entry), "the stored Arc itself comes back");
            assert_eq!(v.u_max.to_bits(), entry.u_max.to_bits());
            assert_eq!(v.contenders, entry.contenders);
            assert!(row.slots[1].value.is_none(), "entries are per state-shard");
            let snap = row.snap.as_ref().expect("snapshot persists with the row");
            assert_eq!((snap.epoch, snap.total_version), (7, 3));
            assert_eq!(snap.states, vec![SnapState::Evaluated, SnapState::NotAdmitted]);
        });
        let other = JobClassKey::of(&job(1, 3), weights).expect("keyable");
        cache.with_memo_row(&other, 2, |row| {
            assert!(row.slots[0].value.is_none(), "a different job class has its own row");
        });
        cache.with_memo_row(&key, 3, |row| {
            assert_eq!(row.slots.len(), 3);
            assert!(
                row.slots.iter().all(|s| s.value.is_none()),
                "a shard-count change resets the row"
            );
            assert!(row.snap.is_none(), "a shard-count change drops the snapshot");
        });
        // Uncacheable jobs (explicit comm graph) have no class key, so the
        // caller can never reach the memo for them.
        let mut exotic = job(2, 2);
        exotic.comm_graph = Some(JobGraph::uniform(2, 1.0));
        assert!(JobClassKey::of(&exotic, weights).is_none());
    }
}
