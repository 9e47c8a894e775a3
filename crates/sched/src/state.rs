//! Live cluster allocation state.
//!
//! Tracks which GPUs are free on every machine and which jobs hold the
//! rest, together with the §4.2 profiles the interference predictor needs.
//! Allocations are cluster-wide GPU sets ([`GlobalGpuId`]) so single-node
//! jobs and anti-collocated (one-task-per-machine) jobs share one code
//! path. All placement policies operate on this state; the simulator and
//! the prototype mutate it through `place`/`release`.

use crate::classes::ClassTable;
use gts_job::{BatchClass, JobId, JobProfile, JobSpec, NnModel};
use gts_perf::ProfileLibrary;
use gts_topo::{ClusterTopology, GlobalGpuId, GpuId, MachineId, SocketId};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A job's GPU allocation (possibly spanning machines).
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// The placed job.
    pub spec: JobSpec,
    /// GPUs granted, in task order.
    pub gpus: Vec<GlobalGpuId>,
    /// Utility the placement scored at decision time.
    pub utility: f64,
}

impl Allocation {
    /// The job's profile, looked up from a library.
    pub fn profile<'a>(&self, lib: &'a ProfileLibrary) -> &'a JobProfile {
        lib.get(self.spec.model, self.spec.batch)
    }

    /// The GPUs this allocation holds on one machine.
    pub fn gpus_on(&self, machine: MachineId) -> Vec<GpuId> {
        self.gpus
            .iter()
            .filter(|g| g.machine == machine)
            .map(|g| g.gpu)
            .collect()
    }

    /// Machines touched by this allocation, deduplicated and ascending.
    pub fn machines(&self) -> Vec<MachineId> {
        let mut ms: Vec<MachineId> = self.gpus.iter().map(|g| g.machine).collect();
        ms.sort_unstable();
        ms.dedup();
        ms
    }

    /// True when the allocation sits entirely on one machine.
    pub fn is_single_node(&self) -> bool {
        self.machines().len() <= 1
    }
}

/// Default per-socket host memory bandwidth, GB/s (Power8 "Minsky": 115 GB/s
/// sustained per socket, §3.1's 256 GB DDR4 configuration).
pub const DEFAULT_SOCKET_BW_GBS: f64 = 115.0;

/// One running job's contribution to a machine's co-runner signature: the
/// §4.2 profile plus the local GPU set it holds there. Entries are interned
/// per machine in canonical `(model, batch, mask)` order and shared (behind
/// one `Arc`) between the evaluation engine's class keys and every
/// [`crate::StateOracle`] Eq. 4 sum, so neither clones profiles or GPU
/// lists per candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Corunner {
    /// Profile of the running job (model + batch resolved once at
    /// placement time).
    pub profile: JobProfile,
    /// Local GPUs held on this machine, as a bitmask.
    pub mask: u128,
    /// Local GPUs, ascending (derived from `mask`).
    pub gpus: Vec<GpuId>,
}

impl Corunner {
    /// The canonical sort key: job ids never enter, so two machines running
    /// the same workload classes on the same GPUs are indistinguishable.
    fn sort_key(&self) -> (NnModel, BatchClass, u128) {
        (self.profile.model, self.profile.batch, self.mask)
    }
}

/// Payload of a machine's equivalence-class key — every input the
/// per-candidate placement evaluation depends on, with floats captured by
/// bit pattern so `Eq`/`Hash` are exact. A pure function of machine state:
/// the machine *id* and job ids never enter, so equal keys imply
/// bit-identical evaluation results (DESIGN.md §7, §9).
#[derive(Debug)]
pub struct KeyInner {
    /// Topology class ([`gts_topo::ClusterTopology::machine_class`]).
    pub topo_class: u32,
    /// Free-GPU bitmask (0 when the machine is down).
    pub free_mask: u128,
    /// Per-socket committed bandwidth, bit patterns.
    pub bw_bits: Vec<u64>,
    /// The machine's interned co-runner signature, canonical order.
    pub corunners: Arc<Vec<Corunner>>,
}

impl PartialEq for KeyInner {
    fn eq(&self, other: &Self) -> bool {
        self.topo_class == other.topo_class
            && self.free_mask == other.free_mask
            && self.bw_bits == other.bw_bits
            && (Arc::ptr_eq(&self.corunners, &other.corunners)
                || (self.corunners.len() == other.corunners.len()
                    && self
                        .corunners
                        .iter()
                        .zip(other.corunners.iter())
                        .all(|(a, b)| a.sort_key() == b.sort_key())))
    }
}

impl Eq for KeyInner {}

impl Hash for KeyInner {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.topo_class.hash(h);
        self.free_mask.hash(h);
        self.bw_bits.hash(h);
        self.corunners.len().hash(h);
        for c in self.corunners.iter() {
            c.sort_key().hash(h);
        }
    }
}

/// A machine's evaluation-engine equivalence-class key, maintained
/// incrementally by [`ClusterState`] on every `place`/`release`/failure so
/// arrival-time candidate grouping reads precomputed keys in O(feasible
/// machines) — no re-hashing of untouched machines. The 64-bit hash is
/// precomputed at rebuild time; `Hash` just replays it and `Eq`
/// short-circuits on it (then on `Arc` pointer identity) before falling
/// back to a field compare.
#[derive(Debug, Clone)]
pub struct MachineClassKey {
    hash: u64,
    inner: Arc<KeyInner>,
}

impl MachineClassKey {
    fn new(inner: KeyInner) -> Self {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        inner.hash(&mut h);
        Self {
            hash: h.finish(),
            inner: Arc::new(inner),
        }
    }

    /// The precomputed 64-bit hash (stable for the life of the process).
    pub fn hash_bits(&self) -> u64 {
        self.hash
    }

    /// The key's payload.
    pub fn inner(&self) -> &KeyInner {
        &self.inner
    }

    /// True when both keys are one instance (one shared payload), not just
    /// equal.
    pub(crate) fn same_instance(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl PartialEq for MachineClassKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && (self.same_instance(other) || self.inner == other.inner)
    }
}

impl Eq for MachineClassKey {}

impl Hash for MachineClassKey {
    fn hash<H: Hasher>(&self, h: &mut H) {
        h.write_u64(self.hash);
    }
}

/// Free/busy GPU bookkeeping across the cluster plus the running-job table.
///
/// The running-allocation table is the ground truth. Each other fact is
/// kept once, as an index over it that every `place`/`release`/failure
/// updates: one free-GPU bitmask per machine, the job ids per machine, the
/// committed bandwidth per socket, the free counter and the class keys.
/// The hot-path queries ([`ClusterState::free_gpus`],
/// [`ClusterState::free_count`], [`ClusterState::socket_occupancy`],
/// [`ClusterState::running_on`]) read those indexes instead of
/// recomputing, and [`ClusterState::audit`] re-derives every index from
/// the allocation table.
#[derive(Debug, Clone)]
pub struct ClusterState {
    cluster: Arc<ClusterTopology>,
    profiles: Arc<ProfileLibrary>,
    /// Per-machine free-GPU bitmask (bit `g` set ⇔ GPU `g` is held by no
    /// allocation), the one free-GPU index. A down machine keeps its bits;
    /// [`ClusterState::free_mask_bits`] reads 0 for it. Machines are
    /// capped at 128 GPUs.
    free_mask: Vec<u128>,
    /// Job ids holding at least one GPU on each machine, unordered.
    jobs_on: Vec<Vec<JobId>>,
    /// `bw_used[machine][socket]` — committed memory bandwidth, GB/s (§4.3's
    /// `t_bw ≤ p_bw` constraint).
    bw_used: Vec<Vec<f64>>,
    /// Machines currently failed/offline — excluded from every capacity
    /// query until marked up again.
    down: Vec<bool>,
    /// Per-machine equivalence-class key, rebuilt eagerly for exactly the
    /// machines a `place`/`release`/failure touches. Its co-runner
    /// signature is the one served to every [`crate::StateOracle`].
    class_keys: Vec<MachineClassKey>,
    /// Per-socket bandwidth capacity, GB/s.
    bw_capacity_gbs: f64,
    running: HashMap<JobId, Allocation>,
    /// Free GPUs across the cluster (down machines count none), kept by
    /// every `place`/`release`/failure.
    total_free: usize,
    /// The live machine classes (DESIGN.md §15): `class_keys` interned,
    /// with ordered member sets, bucketed by free count; updated with
    /// every key rebuild.
    classes: ClassTable,
    /// Bumped by every key rebuild, which every eval-relevant mutation
    /// ends with: an unchanged version proves that nothing a decision
    /// reads has changed (DESIGN.md §15.7).
    version: u64,
}

impl ClusterState {
    /// Fresh state: everything free, nothing running, default socket
    /// bandwidth capacity.
    pub fn new(cluster: Arc<ClusterTopology>, profiles: Arc<ProfileLibrary>) -> Self {
        let free_mask = cluster
            .machines()
            .map(|m| {
                let n = cluster.machine(m).n_gpus();
                assert!(n <= 128, "machines are capped at 128 GPUs");
                full_mask(n)
            })
            .collect();
        let jobs_on = vec![Vec::new(); cluster.n_machines()];
        let bw_used = cluster
            .machines()
            .map(|m| vec![0.0; cluster.machine(m).n_sockets()])
            .collect();
        let down = vec![false; cluster.n_machines()];
        let total_free = cluster.n_gpus();
        let n_machines = cluster.n_machines();
        let max_free = cluster
            .machines()
            .map(|m| cluster.machine(m).n_gpus())
            .max()
            .unwrap_or(0);
        let mut state = Self {
            cluster,
            profiles,
            free_mask,
            jobs_on,
            bw_used,
            bw_capacity_gbs: DEFAULT_SOCKET_BW_GBS,
            down,
            class_keys: Vec::with_capacity(n_machines),
            running: HashMap::new(),
            total_free,
            classes: ClassTable::default(),
            version: 0,
        };
        // A fresh machine's key depends on its topology class alone (all
        // GPUs free, no bandwidth committed, no co-runners), so one
        // ascending pass computes one key per topology class, shares it
        // with every member, and hands the class table whole classes.
        let mut by_topo: Vec<Option<(MachineClassKey, usize, Vec<MachineId>)>> =
            vec![None; state.cluster.n_machine_classes()];
        for m in state.cluster.machines() {
            let class = &mut by_topo[state.cluster.machine_class(m) as usize];
            let (key, _, members) = class.get_or_insert_with(|| {
                let key = state.compute_machine_key(m);
                (key, state.free_count(m), Vec::new())
            });
            members.push(m);
            state.class_keys.push(key.clone());
        }
        state.classes =
            ClassTable::from_classes(n_machines, max_free, by_topo.into_iter().flatten());
        state
    }

    /// Re-derives one machine's class key, its co-runner signature
    /// included, from `jobs_on` and `running`. Pure read; the eager rebuild
    /// paths and `audit()` check 6 both go through this.
    fn compute_machine_key(&self, machine: MachineId) -> MachineClassKey {
        let mi = machine.index();
        let mut list: Vec<Corunner> = self.jobs_on[mi]
            .iter()
            .map(|id| {
                let alloc = &self.running[id];
                let mut mask = 0u128;
                for g in alloc.gpus_on(machine) {
                    mask |= 1u128 << g.index();
                }
                let mut bits = mask;
                let mut gpus = Vec::with_capacity(bits.count_ones() as usize);
                while bits != 0 {
                    gpus.push(GpuId(bits.trailing_zeros()));
                    bits &= bits - 1;
                }
                Corunner {
                    profile: *alloc.profile(&self.profiles),
                    mask,
                    gpus,
                }
            })
            .collect();
        list.sort_by_key(Corunner::sort_key);
        MachineClassKey::new(KeyInner {
            topo_class: self.cluster.machine_class(machine),
            free_mask: self.free_mask_bits(machine),
            bw_bits: self.bw_used[mi].iter().map(|b| b.to_bits()).collect(),
            corunners: Arc::new(list),
        })
    }

    /// Eagerly rebuilds one machine's key after a mutation. O(jobs on that
    /// machine) — paid once per touched machine per event, never per
    /// candidate.
    fn rebuild_machine_key(&mut self, machine: MachineId) {
        let key = self.compute_machine_key(machine);
        self.classes.update(machine, &key, self.free_count(machine));
        self.class_keys[machine.index()] = key;
        // Every eval-relevant mutation funnels through this rebuild, so
        // bumping here is what makes an unchanged version prove that the
        // scheduler's memoised decisions still match the live state.
        self.version += 1;
    }

    /// The machine's precomputed equivalence-class key (DESIGN.md §7, §9).
    pub fn machine_class_key(&self, machine: MachineId) -> &MachineClassKey {
        &self.class_keys[machine.index()]
    }

    /// The live machine-class table (DESIGN.md §15).
    pub fn classes(&self) -> &ClassTable {
        &self.classes
    }

    /// The mutation counter: bumped by every class-key rebuild, and so by
    /// every `place`, `release` and `set_machine_down`.
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// The machine's interned co-runner signature, canonical
    /// `(model, batch, mask)` order — the class key's own.
    pub fn corunners(&self, machine: MachineId) -> &Arc<Vec<Corunner>> {
        &self.class_keys[machine.index()].inner().corunners
    }

    /// Marks a machine offline (failed) or back online. Offline machines
    /// vanish from every capacity query; the caller is responsible for
    /// cancelling/requeueing whatever was running there first.
    ///
    /// # Panics
    ///
    /// Panics when taking a machine down that still hosts allocations.
    pub fn set_machine_down(&mut self, machine: MachineId, down: bool) {
        if down {
            assert!(
                self.running_on(machine).is_empty(),
                "cancel {machine}'s jobs before failing it"
            );
        }
        let old_free = self.free_count(machine);
        self.down[machine.index()] = down;
        // The key's free-mask component (and the free counter's view of the
        // machine's capacity) reads 0 while down; rebuild so both track the
        // transition in both directions.
        self.total_free = self.total_free - old_free + self.free_count(machine);
        self.rebuild_machine_key(machine);
    }

    /// True when the machine is marked offline.
    pub fn is_machine_down(&self, machine: MachineId) -> bool {
        self.down[machine.index()]
    }

    /// Overrides the per-socket memory-bandwidth capacity (GB/s). The
    /// capacity steers decisions without rebuilding any key or moving the
    /// version.
    pub fn with_bw_capacity(mut self, gbs: f64) -> Self {
        assert!(gbs > 0.0 && gbs.is_finite(), "capacity must be positive");
        self.bw_capacity_gbs = gbs;
        self
    }

    /// Per-socket bandwidth capacity in force, GB/s.
    pub fn bw_capacity_gbs(&self) -> f64 {
        self.bw_capacity_gbs
    }

    /// Remaining memory bandwidth on one socket, GB/s.
    pub fn socket_bw_free(&self, machine: MachineId, socket: SocketId) -> f64 {
        (self.bw_capacity_gbs - self.bw_used[machine.index()][socket.index()]).max(0.0)
    }

    /// How a job's bandwidth demand lands on sockets: proportional to the
    /// GPUs it holds there.
    fn bw_shares(&self, machine: MachineId, gpus: &[GpuId], demand: f64) -> Vec<(usize, f64)> {
        if demand <= 0.0 || gpus.is_empty() {
            return Vec::new();
        }
        let topo = self.cluster.machine(machine);
        let per_gpu = demand / gpus.len() as f64;
        let mut shares: Vec<(usize, f64)> = Vec::new();
        for &g in gpus {
            let s = topo.socket_of(g).index();
            match shares.iter_mut().find(|(idx, _)| *idx == s) {
                Some((_, v)) => *v += per_gpu,
                None => shares.push((s, per_gpu)),
            }
        }
        shares
    }

    /// §4.3 capacity check: would placing `demand` GB/s over these GPUs
    /// keep every touched socket within `p_bw`?
    pub fn fits_bw(&self, machine: MachineId, gpus: &[GpuId], demand: f64) -> bool {
        self.bw_shares(machine, gpus, demand)
            .iter()
            .all(|&(s, share)| {
                self.bw_used[machine.index()][s] + share <= self.bw_capacity_gbs + 1e-9
            })
    }

    /// The topology this state tracks.
    pub fn cluster(&self) -> &ClusterTopology {
        &self.cluster
    }

    /// The profile library in force.
    pub fn profiles(&self) -> &ProfileLibrary {
        &self.profiles
    }

    /// Shared handle to the profile library.
    pub fn profiles_arc(&self) -> Arc<ProfileLibrary> {
        Arc::clone(&self.profiles)
    }

    /// Free GPUs on `machine`, ascending (none when the machine is down).
    pub fn free_gpus(&self, machine: MachineId) -> Vec<GpuId> {
        let mut mask = self.free_mask_bits(machine);
        let mut gpus = Vec::with_capacity(mask.count_ones() as usize);
        while mask != 0 {
            let g = mask.trailing_zeros();
            gpus.push(GpuId(g));
            mask &= mask - 1;
        }
        gpus
    }

    /// Lowest-id free GPU on `machine`, if any.
    pub fn first_free_gpu(&self, machine: MachineId) -> Option<GpuId> {
        let mask = self.free_mask_bits(machine);
        (mask != 0).then(|| GpuId(mask.trailing_zeros()))
    }

    /// The machine's free-GPU set as a bitmask (bit `g` set ⇔ GPU `g`
    /// free; 0 when the machine is down) — the evaluation engine's
    /// equivalence-class key component.
    pub fn free_mask_bits(&self, machine: MachineId) -> u128 {
        if self.down[machine.index()] {
            return 0;
        }
        self.free_mask[machine.index()]
    }

    /// Committed per-socket memory bandwidth on `machine`, GB/s.
    pub fn socket_bw_used(&self, machine: MachineId) -> &[f64] {
        &self.bw_used[machine.index()]
    }

    /// Number of free GPUs on `machine` (0 when the machine is down).
    pub fn free_count(&self, machine: MachineId) -> usize {
        self.free_mask_bits(machine).count_ones() as usize
    }

    /// Total free GPUs across the cluster — an O(1) counter.
    pub fn total_free(&self) -> usize {
        self.total_free
    }

    /// True when at least one GPU is free anywhere ("availableResources(P)"
    /// in Algorithm 1).
    pub fn has_free_resources(&self) -> bool {
        self.total_free() > 0
    }

    /// Unallocated GPUs of `machine` grouped per socket as `(free,
    /// total)` — the Eq. 5 input, counted off the free mask. A down
    /// machine still counts the GPUs no allocation holds.
    pub fn socket_occupancy(&self, machine: MachineId) -> Vec<(u32, u32)> {
        let topo = self.cluster.machine(machine);
        let free = self.free_mask[machine.index()];
        let mut occupancy = vec![(0, 0); topo.n_sockets()];
        for gpu in topo.gpus() {
            let (f, t) = &mut occupancy[topo.socket_of(gpu).index()];
            *f += (free >> gpu.index()) as u32 & 1;
            *t += 1;
        }
        occupancy
    }

    /// Machines with at least `n` free GPUs, ascending id — the Algorithm 1
    /// `filterHostsByConstraints` capacity filter, a plain scan. Only the
    /// baselines, the anti-collocated search and the sequential reference
    /// read it; the production `TOPO-AWARE(-P)` decision reads the live
    /// class table instead (DESIGN.md §15).
    pub fn machines_with_capacity(&self, n: usize) -> Vec<MachineId> {
        self.cluster
            .machines()
            .filter(|&m| self.free_count(m) >= n)
            .collect()
    }

    /// Ids of the jobs holding at least one GPU on `machine`, in placement
    /// order — the raw per-machine index behind
    /// [`ClusterState::running_on`]. The simulator's incremental event loop
    /// reuses this index to scope slowdown refreshes and failure teardown
    /// to the machines an event actually touched, instead of scanning the
    /// whole running set.
    pub fn jobs_on_machine(&self, machine: MachineId) -> &[JobId] {
        &self.jobs_on[machine.index()]
    }

    /// Allocations holding at least one GPU on `machine`, ascending job id.
    /// Served from the per-machine job index — no cluster-wide scan.
    pub fn running_on(&self, machine: MachineId) -> Vec<&Allocation> {
        let mut v: Vec<&Allocation> = self.jobs_on[machine.index()]
            .iter()
            .map(|id| &self.running[id])
            .collect();
        v.sort_by_key(|a| a.spec.id);
        v
    }

    /// All running allocations, by job id.
    pub fn running(&self) -> impl Iterator<Item = &Allocation> {
        self.running.values()
    }

    /// Looks up one running allocation.
    pub fn allocation(&self, id: JobId) -> Option<&Allocation> {
        self.running.get(&id)
    }

    /// Number of running jobs.
    pub fn n_running(&self) -> usize {
        self.running.len()
    }

    /// Commits a placement, marking its GPUs busy.
    ///
    /// # Panics
    ///
    /// Panics if any requested GPU is already allocated or the job id is
    /// already running — both indicate a scheduler bug.
    pub fn place(&mut self, spec: JobSpec, gpus: Vec<GlobalGpuId>, utility: f64) {
        assert!(
            !self.running.contains_key(&spec.id),
            "{} placed twice",
            spec.id
        );
        for &g in &gpus {
            assert!(
                !self.down[g.machine.index()],
                "{} is down; the scheduler must not place there",
                g.machine
            );
            let mask = &mut self.free_mask[g.machine.index()];
            let bit = gpu_bit(g.gpu);
            assert!(*mask & bit != 0, "{g} is already allocated or absent");
            *mask &= !bit;
            self.total_free -= 1;
        }
        // Commit the bandwidth demand per machine.
        let mut machines: Vec<MachineId> = gpus.iter().map(|g| g.machine).collect();
        machines.sort_unstable();
        machines.dedup();
        for &m in &machines {
            self.jobs_on[m.index()].push(spec.id);
            let local: Vec<GpuId> = gpus
                .iter()
                .filter(|g| g.machine == m)
                .map(|g| g.gpu)
                .collect();
            let machine_share = spec.bw_demand_gbs * local.len() as f64 / gpus.len().max(1) as f64;
            for (s, share) in self.bw_shares(m, &local, machine_share) {
                self.bw_used[m.index()][s] += share;
            }
        }
        let id = spec.id;
        self.running.insert(
            id,
            Allocation {
                spec,
                gpus,
                utility,
            },
        );
        for m in machines {
            self.rebuild_machine_key(m);
        }
        self.debug_audit();
    }

    /// Releases a finished job's GPUs. Returns the allocation it held.
    ///
    /// # Panics
    ///
    /// Panics if the job is not running.
    pub fn release(&mut self, id: JobId) -> Allocation {
        let alloc = self
            .running
            .remove(&id)
            .unwrap_or_else(|| panic!("{id} is not running"));
        for &g in &alloc.gpus {
            self.free_mask[g.machine.index()] |= gpu_bit(g.gpu);
            self.total_free += 1;
        }
        for m in alloc.machines() {
            self.jobs_on[m.index()].retain(|&j| j != id);
            let local = alloc.gpus_on(m);
            let machine_share =
                alloc.spec.bw_demand_gbs * local.len() as f64 / alloc.gpus.len().max(1) as f64;
            for (s, share) in self.bw_shares(m, &local, machine_share) {
                let used = &mut self.bw_used[m.index()][s];
                *used = (*used - share).max(0.0);
            }
        }
        for m in alloc.machines() {
            self.rebuild_machine_key(m);
        }
        self.debug_audit();
        alloc
    }

    /// Exhaustively cross-checks every index of the state against the
    /// running-allocation table, the ground truth. Cheap enough to run
    /// after every mutation in debug builds (it is, under
    /// `debug_assertions`); release builds call it only where a driver
    /// explicitly asks.
    ///
    /// Invariants checked:
    ///
    /// 1. **No double-booking** — no GPU appears in two allocations (or
    ///    twice in one), and every allocated GPU exists;
    /// 2. **Conservation** — a GPU's free-mask bit is set *iff* no
    ///    allocation holds it, and no bit past the machine's GPUs is set;
    /// 3. **Bandwidth accounting** — per-socket `bw_used` equals the sum of
    ///    the running allocations' committed shares, within capacity;
    /// 4. **Down machines are empty** — an offline machine hosts no
    ///    allocation and reports no capacity;
    /// 5. **Job index** — `jobs_on` lists exactly the jobs holding a GPU
    ///    on each machine;
    /// 6. **Class keys** — every machine's key, its co-runner signature
    ///    and its hash equal a re-derivation;
    /// 7. **Free counter** — `total_free` equals the machines' free GPUs;
    /// 8. **Class table** — the live classes equal a re-derivation from
    ///    the keys.
    pub fn audit(&self) -> Result<(), String> {
        // 1, and 4's first half: walk allocations, claiming each GPU
        // exactly once.
        let mut held = vec![0u128; self.free_mask.len()];
        for (id, alloc) in &self.running {
            if alloc.spec.id != *id {
                return Err(format!("running table key {id} holds {}", alloc.spec.id));
            }
            for g in &alloc.gpus {
                let mi = g.machine.index();
                if self.down[mi] {
                    return Err(format!("{} is down but hosts {id}", g.machine));
                }
                if g.gpu.index() >= self.cluster.machine(g.machine).n_gpus() {
                    return Err(format!("{id} holds {g}, which does not exist"));
                }
                if held[mi] & gpu_bit(g.gpu) != 0 {
                    return Err(format!("{g} double-booked, the second time by {id}"));
                }
                held[mi] |= gpu_bit(g.gpu);
            }
        }
        // 2 + 4: the free mask is the complement of the claimed GPUs, and a
        // down machine reports no capacity.
        for m in self.cluster.machines() {
            let mi = m.index();
            let want = full_mask(self.cluster.machine(m).n_gpus()) & !held[mi];
            if self.free_mask[mi] != want {
                return Err(format!(
                    "{m} free mask {:#x} disagrees with the allocations ({want:#x})",
                    self.free_mask[mi]
                ));
            }
            if self.down[mi] && self.free_count(m) != 0 {
                return Err(format!("{m} is down but reports free capacity"));
            }
        }
        // 3: recompute committed bandwidth from scratch.
        let mut expected: Vec<Vec<f64>> = self.bw_used.iter().map(|m| vec![0.0; m.len()]).collect();
        for alloc in self.running.values() {
            for m in alloc.machines() {
                let local = alloc.gpus_on(m);
                let machine_share =
                    alloc.spec.bw_demand_gbs * local.len() as f64 / alloc.gpus.len().max(1) as f64;
                for (s, share) in self.bw_shares(m, &local, machine_share) {
                    expected[m.index()][s] += share;
                }
            }
        }
        for (mi, sockets) in self.bw_used.iter().enumerate() {
            for (si, &used) in sockets.iter().enumerate() {
                let want = expected[mi][si];
                if (used - want).abs() > 1e-6 {
                    return Err(format!(
                        "machine{mi}/socket{si} bandwidth ledger {used} GB/s \
                         disagrees with allocations ({want} GB/s)"
                    ));
                }
                if used > self.bw_capacity_gbs + 1e-6 {
                    return Err(format!(
                        "machine{mi}/socket{si} over capacity: {used} > {}",
                        self.bw_capacity_gbs
                    ));
                }
            }
        }
        // 5: the per-machine job index. It runs before 6, which reads it.
        for m in self.cluster.machines() {
            let mut want_jobs: Vec<JobId> = self
                .running
                .values()
                .filter(|a| a.gpus.iter().any(|g| g.machine == m))
                .map(|a| a.spec.id)
                .collect();
            want_jobs.sort_unstable();
            let mut have = self.jobs_on[m.index()].clone();
            have.sort_unstable();
            if have != want_jobs {
                return Err(format!(
                    "{m} jobs_on index {have:?} disagrees with allocations {want_jobs:?}"
                ));
            }
        }
        // 6: the class keys. Re-derive every machine's key, co-runner
        // signature and precomputed hash included; drift here means a
        // place/release/failure path forgot to rebuild a touched machine.
        for m in self.cluster.machines() {
            let want = self.compute_machine_key(m);
            let have = &self.class_keys[m.index()];
            if have.inner().corunners != want.inner().corunners {
                return Err(format!(
                    "{m} co-runner signature {:?} disagrees with the allocations {:?}",
                    have.inner().corunners,
                    want.inner().corunners
                ));
            }
            if *have != want {
                return Err(format!(
                    "{m} class key {have:?} disagrees with re-derived key {want:?}"
                ));
            }
            if have.hash_bits() != want.hash_bits() {
                return Err(format!(
                    "{m} class key hash {:#x} disagrees with re-derived hash {:#x}",
                    have.hash_bits(),
                    want.hash_bits()
                ));
            }
        }
        // 7: the free counter. Re-derive it from the free masks and the
        // down flags; drift means a place/release/failure path skipped it.
        let want_free: usize = self.cluster.machines().map(|m| self.free_count(m)).sum();
        if self.total_free != want_free {
            return Err(format!(
                "free counter {} disagrees with the machines' free GPUs ({want_free})",
                self.total_free
            ));
        }
        // 8: the live class table. Re-derive the classes from the
        // per-machine keys (checked against the allocations by 6); drift
        // means a key rebuild skipped the table update.
        self.classes
            .verify(&self.class_keys, |m| self.free_count(m))?;
        Ok(())
    }

    #[inline]
    fn debug_audit(&self) {
        #[cfg(debug_assertions)]
        if let Err(e) = self.audit() {
            panic!("ClusterState::audit failed after mutation: {e}");
        }
    }
}

/// Lifts machine-local GPU ids into the cluster id space.
pub fn on_machine(machine: MachineId, gpus: &[GpuId]) -> Vec<GlobalGpuId> {
    gpus.iter()
        .map(|&gpu| GlobalGpuId { machine, gpu })
        .collect()
}

/// A GPU's bit in a machine's free mask; 0 for an index past the mask.
fn gpu_bit(gpu: GpuId) -> u128 {
    1u128.checked_shl(gpu.0).unwrap_or(0)
}

/// Bitmask with the low `n` bits set (`n ≤ 128`).
fn full_mask(n: usize) -> u128 {
    if n == 128 {
        u128::MAX
    } else {
        (1u128 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_job::{BatchClass, NnModel};
    use gts_topo::power8_minsky;

    fn state(n_machines: usize) -> ClusterState {
        let machine = power8_minsky();
        let profiles = Arc::new(ProfileLibrary::generate(&machine, 1));
        let cluster = Arc::new(ClusterTopology::homogeneous(machine, n_machines));
        ClusterState::new(cluster, profiles)
    }

    fn spec(id: u64, gpus: u32) -> JobSpec {
        JobSpec::new(id, NnModel::AlexNet, BatchClass::Tiny, gpus)
    }

    fn g(m: u32, gpu: u32) -> GlobalGpuId {
        GlobalGpuId {
            machine: MachineId(m),
            gpu: GpuId(gpu),
        }
    }

    #[test]
    fn fresh_state_is_fully_free() {
        let s = state(2);
        assert_eq!(s.total_free(), 8);
        assert!(s.has_free_resources());
        assert_eq!(s.free_gpus(MachineId(0)).len(), 4);
        assert_eq!(s.socket_occupancy(MachineId(0)), vec![(2, 2), (2, 2)]);
    }

    #[test]
    fn place_and_release_round_trip() {
        let mut s = state(1);
        s.place(spec(0, 2), vec![g(0, 0), g(0, 1)], 1.0);
        assert_eq!(s.free_count(MachineId(0)), 2);
        assert_eq!(s.socket_occupancy(MachineId(0)), vec![(0, 2), (2, 2)]);
        assert_eq!(s.n_running(), 1);
        assert!(s.allocation(JobId(0)).is_some());

        let alloc = s.release(JobId(0));
        assert_eq!(alloc.gpus, vec![g(0, 0), g(0, 1)]);
        assert!(alloc.is_single_node());
        assert_eq!(s.free_count(MachineId(0)), 4);
        assert_eq!(s.n_running(), 0);
    }

    #[test]
    fn capacity_filter_respects_occupancy() {
        let mut s = state(2);
        s.place(spec(0, 3), vec![g(0, 0), g(0, 1), g(0, 2)], 1.0);
        assert_eq!(s.machines_with_capacity(2), vec![MachineId(1)]);
        assert_eq!(
            s.machines_with_capacity(1),
            vec![MachineId(0), MachineId(1)]
        );
        assert_eq!(s.machines_with_capacity(5), vec![]);
    }

    #[test]
    fn multi_machine_allocation_is_tracked_per_machine() {
        let mut s = state(2);
        let mut j = spec(0, 2);
        j.constraints = gts_job::Constraints {
            single_node: false,
            anti_collocate: true,
        };
        s.place(j, vec![g(0, 0), g(1, 0)], 0.9);
        let alloc = s.allocation(JobId(0)).unwrap();
        assert!(!alloc.is_single_node());
        assert_eq!(alloc.machines(), vec![MachineId(0), MachineId(1)]);
        assert_eq!(alloc.gpus_on(MachineId(1)), vec![GpuId(0)]);
        assert_eq!(s.running_on(MachineId(0)).len(), 1);
        assert_eq!(s.running_on(MachineId(1)).len(), 1);
        s.release(JobId(0));
        assert_eq!(s.total_free(), 8);
    }

    #[test]
    #[should_panic(expected = "already allocated")]
    fn double_allocation_panics() {
        let mut s = state(1);
        s.place(spec(0, 1), vec![g(0, 0)], 1.0);
        s.place(spec(1, 1), vec![g(0, 0)], 1.0);
    }

    #[test]
    #[should_panic(expected = "placed twice")]
    fn duplicate_job_panics() {
        let mut s = state(1);
        s.place(spec(0, 1), vec![g(0, 0)], 1.0);
        s.place(spec(0, 1), vec![g(0, 1)], 1.0);
    }

    #[test]
    #[should_panic(expected = "is not running")]
    fn releasing_unknown_job_panics() {
        let mut s = state(1);
        s.release(JobId(9));
    }

    #[test]
    fn running_on_filters_by_machine() {
        let mut s = state(2);
        s.place(spec(0, 1), vec![g(0, 0)], 1.0);
        s.place(spec(1, 1), vec![g(1, 0)], 1.0);
        assert_eq!(s.running_on(MachineId(0)).len(), 1);
        assert_eq!(s.running_on(MachineId(1))[0].spec.id, JobId(1));
    }

    #[test]
    fn on_machine_lifts_ids() {
        let lifted = on_machine(MachineId(3), &[GpuId(0), GpuId(2)]);
        assert_eq!(lifted, vec![g(3, 0), g(3, 2)]);
    }

    #[test]
    fn incremental_caches_track_place_release_and_failure() {
        let mut s = state(2);
        assert_eq!(s.free_mask_bits(MachineId(0)), 0b1111);
        assert_eq!(s.first_free_gpu(MachineId(0)), Some(GpuId(0)));

        s.place(spec(0, 2), vec![g(0, 0), g(0, 2)], 1.0);
        assert_eq!(s.free_mask_bits(MachineId(0)), 0b1010);
        assert_eq!(s.first_free_gpu(MachineId(0)), Some(GpuId(1)));
        assert_eq!(s.free_gpus(MachineId(0)), vec![GpuId(1), GpuId(3)]);
        assert_eq!(s.socket_occupancy(MachineId(0)), vec![(1, 2), (1, 2)]);
        s.audit().unwrap();

        s.release(JobId(0));
        assert_eq!(s.free_mask_bits(MachineId(0)), 0b1111);
        s.audit().unwrap();

        // A down machine reports an empty mask but keeps its bookkeeping:
        // its occupancy still counts the GPUs no allocation holds.
        s.set_machine_down(MachineId(1), true);
        assert_eq!(s.free_mask_bits(MachineId(1)), 0);
        assert_eq!(s.first_free_gpu(MachineId(1)), None);
        assert_eq!(s.free_count(MachineId(1)), 0);
        assert_eq!(s.socket_occupancy(MachineId(1)), vec![(2, 2), (2, 2)]);
        s.audit().unwrap();
        s.set_machine_down(MachineId(1), false);
        assert_eq!(s.free_mask_bits(MachineId(1)), 0b1111);
    }

    /// Each index `audit()` checks, corrupted on its own, is caught: the
    /// free mask both ways, the per-machine job index, the bandwidth
    /// ledger, the free counter, a class key and the class table; and so
    /// are a GPU held by two jobs and a down machine hosting one.
    #[test]
    fn audit_rejects_each_corrupted_index() {
        let mut s = state(3);
        let mut single = spec(0, 2);
        single.bw_demand_gbs = 10.0;
        s.place(single, vec![g(0, 0), g(0, 1)], 1.0);
        let mut multi = spec(1, 2);
        multi.bw_demand_gbs = 8.0;
        multi.constraints = gts_job::Constraints {
            single_node: false,
            anti_collocate: true,
        };
        s.place(multi, vec![g(0, 2), g(1, 0)], 0.9);
        s.audit().unwrap();

        let caught = |what: &str, corrupt: &dyn Fn(&mut ClusterState)| {
            let mut bad = s.clone();
            corrupt(&mut bad);
            assert!(bad.audit().is_err(), "audit missed a corrupted {what}");
        };
        caught("GPU held twice", &|s| {
            s.running.get_mut(&JobId(1)).unwrap().gpus.push(g(0, 0))
        });
        caught("down flag of a busy machine", &|s| s.down[1] = true);
        caught("free bit of a held GPU", &|s| s.free_mask[0] |= 1 << 1);
        caught("busy bit of an unheld GPU", &|s| {
            s.free_mask[1] &= !(1 << 3)
        });
        caught("stray job on a machine", &|s| s.jobs_on[2].push(JobId(0)));
        caught("bandwidth ledger", &|s| s.bw_used[1][0] += 1.0);
        caught("free counter", &|s| s.total_free += 1);
        caught("another machine's class key", &|s| {
            s.class_keys[0] = s.class_keys[2].clone()
        });
        let other = state(3);
        caught("another state's class table", &|s| {
            s.classes = other.classes.clone()
        });
    }

    /// `(lowest member, free GPUs)` of every live class with ≥ `n` free.
    fn classes_with(s: &ClusterState, n: usize) -> Vec<(MachineId, usize)> {
        let mut out = Vec::new();
        s.classes().with_capacity_into(n, &mut out);
        out.into_iter()
            .map(|(m, c)| (m, s.classes().free(c)))
            .collect()
    }

    #[test]
    fn class_table_tracks_place_release_and_failure() {
        let mut s = state(4);
        assert_eq!(
            s.classes().n_live(),
            1,
            "a fresh homogeneous cluster is one class"
        );
        assert_eq!(classes_with(&s, 1), vec![(MachineId(0), 4)]);

        // Two machines running the same job class on the same GPUs share
        // a class; the idle class keeps the rest, lowest member first.
        s.place(spec(0, 2), vec![g(0, 0), g(0, 1)], 1.0);
        s.place(spec(1, 2), vec![g(2, 0), g(2, 1)], 1.0);
        assert_eq!(s.classes().n_live(), 2);
        assert_eq!(
            classes_with(&s, 1),
            vec![(MachineId(0), 2), (MachineId(1), 4)]
        );
        assert_eq!(classes_with(&s, 3), vec![(MachineId(1), 4)]);
        let busy = s.classes().class_of(MachineId(0));
        assert_eq!(s.classes().class_of(MachineId(2)), busy);
        assert!(s
            .classes()
            .members(busy)
            .iter()
            .eq([MachineId(0), MachineId(2)].iter()));

        // The last member leaving drops the class.
        s.release(JobId(0));
        s.release(JobId(1));
        assert_eq!(s.classes().n_live(), 1);
        assert_eq!(classes_with(&s, 1), vec![(MachineId(0), 4)]);

        // A down machine is a class of its own with no free GPUs.
        s.set_machine_down(MachineId(0), true);
        assert_eq!(s.classes().n_live(), 2);
        assert_eq!(
            classes_with(&s, 0),
            vec![(MachineId(0), 0), (MachineId(1), 4)]
        );
        assert_eq!(classes_with(&s, 1), vec![(MachineId(1), 4)]);
        s.set_machine_down(MachineId(0), false);
        assert_eq!(classes_with(&s, 1), vec![(MachineId(0), 4)]);
        s.audit().unwrap();
    }

    #[test]
    fn fresh_state_has_one_class_per_topology_class() {
        let minsky = Arc::new(power8_minsky());
        let k80 = Arc::new(gts_topo::power8_pcie_k80());
        let machines = vec![Arc::clone(&k80), Arc::clone(&minsky), k80, minsky];
        let cluster = Arc::new(ClusterTopology::from_machines(machines));
        let profiles = Arc::new(ProfileLibrary::generate(&power8_minsky(), 1));
        let s = ClusterState::new(cluster, profiles);
        assert_eq!(s.classes().n_live(), 2);
        assert_eq!(
            s.classes().class_of(MachineId(0)),
            s.classes().class_of(MachineId(2))
        );
        assert_eq!(
            classes_with(&s, 1),
            vec![(MachineId(0), 4), (MachineId(1), 4)]
        );
        s.audit().unwrap();
    }

    /// Every mutation moves the version (DESIGN.md §15.7).
    #[test]
    fn mutations_move_the_version() {
        let mut s = state(2);
        let mut version = s.version();
        let mut moved = |s: &ClusterState, what: &str| {
            assert!(
                s.version() > version,
                "{what} left the version at {version}"
            );
            version = s.version();
        };
        s.place(spec(0, 2), vec![g(0, 0), g(0, 1)], 1.0);
        moved(&s, "place");
        s.release(JobId(0));
        moved(&s, "release");
        s.set_machine_down(MachineId(1), true);
        moved(&s, "failure");
        s.set_machine_down(MachineId(1), false);
        moved(&s, "recovery");
    }

    #[test]
    fn free_counter_tracks_place_release_and_failure() {
        let mut s = state(2);
        assert_eq!(s.total_free(), 8);
        s.place(spec(0, 3), vec![g(0, 0), g(0, 1), g(0, 2)], 1.0);
        assert_eq!(s.total_free(), 5);
        s.set_machine_down(MachineId(1), true);
        assert_eq!(s.total_free(), 1, "a down machine counts no free GPU");
        s.release(JobId(0));
        assert_eq!(s.total_free(), 4);
        s.set_machine_down(MachineId(1), false);
        assert_eq!(s.total_free(), 8);
        s.audit().unwrap();
    }

    #[test]
    fn socket_bw_used_tracks_commitments() {
        let mut s = state(1);
        assert_eq!(s.socket_bw_used(MachineId(0)), &[0.0, 0.0]);
        let mut j = spec(0, 2);
        j.bw_demand_gbs = 10.0;
        s.place(j, vec![g(0, 0), g(0, 2)], 1.0);
        assert_eq!(s.socket_bw_used(MachineId(0)), &[5.0, 5.0]);
        s.release(JobId(0));
        assert_eq!(s.socket_bw_used(MachineId(0)), &[0.0, 0.0]);
    }
}
