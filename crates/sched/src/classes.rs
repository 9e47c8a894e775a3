//! The live machine-class table (DESIGN.md §15).
//!
//! Eq. 2–5 read a machine only through its [`MachineClassKey`], so a
//! `TOPO-AWARE(-P)` decision needs one outcome per *live class* plus each
//! class's lowest member id, not one per machine. [`ClassTable`] interns
//! every key that some machine currently holds to a dense class id with an
//! ordered member set and the members' shared free-GPU count, and buckets
//! the live classes by that count, so "every class with ≥ n free GPUs" is
//! a walk over a few buckets instead of a scan over the machines.
//!
//! The table is maintained by [`crate::ClusterState`] inside its class-key
//! rebuild, the funnel every eval-relevant mutation takes, and
//! re-derived from the per-machine keys by [`crate::ClusterState::audit`].

use crate::eval::FnvHasher;
use crate::state::MachineClassKey;
use gts_topo::MachineId;
use std::collections::{BTreeSet, HashMap};
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, Ordering};

/// Dense id of a live machine class. Ids of dropped classes are reused.
pub(crate) type ClassId = u32;

/// One live class: its key, its members (ascending, never empty) and the
/// free-GPU count every member shares (the key pins the free mask).
#[derive(Debug, Clone)]
struct ClassSlot {
    key: MachineClassKey,
    members: BTreeSet<MachineId>,
    free: usize,
    /// Position of this class in `by_free[free]`.
    pos: usize,
}

/// The live machine-class table: key → class id, per-class ordered member
/// sets and free counts, and the live classes bucketed by free count.
#[derive(Debug, Default)]
pub struct ClassTable {
    ids: HashMap<MachineClassKey, ClassId, BuildHasherDefault<FnvHasher>>,
    /// Indexed by class id; `None` marks a dropped class whose id waits in
    /// `vacant`.
    slots: Vec<Option<ClassSlot>>,
    vacant: Vec<ClassId>,
    /// Class id of every machine.
    class_of: Vec<ClassId>,
    /// `by_free[f]`: the live classes whose members have `f` free GPUs,
    /// unordered.
    by_free: Vec<Vec<ClassId>>,
    /// Decisions whose class-level selection could not prove the
    /// member-order equivalence and ran the ordered member scan instead
    /// (DESIGN.md §15.3).
    fallbacks: AtomicU64,
}

impl Clone for ClassTable {
    fn clone(&self) -> Self {
        Self {
            ids: self.ids.clone(),
            slots: self.slots.clone(),
            vacant: self.vacant.clone(),
            class_of: self.class_of.clone(),
            by_free: self.by_free.clone(),
            fallbacks: AtomicU64::new(self.fallbacks.load(Ordering::Relaxed)),
        }
    }
}

impl ClassTable {
    /// Builds the table from whole classes: each item is a key, its
    /// members' free count and its members in ascending id order. The
    /// keys must be distinct and the member lists must cover `0..n_machines`
    /// exactly once; no key is hashed per member.
    pub(crate) fn from_classes(
        n_machines: usize,
        max_free: usize,
        classes: impl IntoIterator<Item = (MachineClassKey, usize, Vec<MachineId>)>,
    ) -> Self {
        let mut table = Self {
            ids: HashMap::default(),
            slots: Vec::new(),
            vacant: Vec::new(),
            class_of: vec![ClassId::MAX; n_machines],
            by_free: vec![Vec::new(); max_free + 1],
            fallbacks: AtomicU64::new(0),
        };
        for (key, free, members) in classes {
            let id = table.slots.len() as ClassId;
            for &m in &members {
                table.class_of[m.index()] = id;
            }
            table.ids.insert(key.clone(), id);
            let pos = table.by_free[free].len();
            table.by_free[free].push(id);
            table.slots.push(Some(ClassSlot {
                key,
                members: members.into_iter().collect(),
                free,
                pos,
            }));
        }
        debug_assert!(table.class_of.iter().all(|&c| c != ClassId::MAX));
        table
    }

    fn slot(&self, class: ClassId) -> &ClassSlot {
        self.slots[class as usize].as_ref().expect("live class id")
    }

    /// Moves `machine` to the class of its rebuilt `key` (with `free` free
    /// GPUs): leaves its old class, dropping that class when it empties,
    /// and joins the class `key` interns to, creating it when new.
    /// O(log members) plus one key probe.
    pub(crate) fn update(&mut self, machine: MachineId, key: &MachineClassKey, free: usize) {
        let old = self.class_of[machine.index()];
        if self.slot(old).key == *key {
            return;
        }
        let slot = self.slots[old as usize].as_mut().expect("live class id");
        slot.members.remove(&machine);
        if slot.members.is_empty() {
            let slot = self.slots[old as usize].take().expect("live class id");
            self.ids.remove(&slot.key);
            self.unbucket(slot.free, slot.pos);
            self.vacant.push(old);
        }
        let id = match self.ids.get(key) {
            Some(&id) => {
                self.slots[id as usize]
                    .as_mut()
                    .expect("interned ids are live")
                    .members
                    .insert(machine);
                id
            }
            None => {
                let slot = ClassSlot {
                    key: key.clone(),
                    members: BTreeSet::from([machine]),
                    free,
                    pos: self.by_free[free].len(),
                };
                let id = match self.vacant.pop() {
                    Some(id) => {
                        self.slots[id as usize] = Some(slot);
                        id
                    }
                    None => {
                        self.slots.push(Some(slot));
                        (self.slots.len() - 1) as ClassId
                    }
                };
                self.by_free[free].push(id);
                self.ids.insert(key.clone(), id);
                id
            }
        };
        self.class_of[machine.index()] = id;
    }

    /// Removes the class at `pos` of bucket `free`, patching the position
    /// of the class swapped into its place.
    fn unbucket(&mut self, free: usize, pos: usize) {
        let bucket = &mut self.by_free[free];
        bucket.swap_remove(pos);
        if let Some(&moved) = bucket.get(pos) {
            self.slots[moved as usize]
                .as_mut()
                .expect("bucketed ids are live")
                .pos = pos;
        }
    }

    /// Fills `out` with `(lowest member, class)` for every live class whose
    /// members have at least `n` free GPUs, ascending by lowest member —
    /// the order in which a scan over the machines first meets each class.
    pub(crate) fn with_capacity_into(&self, n: usize, out: &mut Vec<(MachineId, ClassId)>) {
        out.clear();
        for bucket in self.by_free.iter().skip(n) {
            out.extend(bucket.iter().map(|&c| (self.lowest(c), c)));
        }
        out.sort_unstable();
    }

    /// The class's interned key.
    pub(crate) fn key(&self, class: ClassId) -> &MachineClassKey {
        &self.slot(class).key
    }

    /// The class's members, ascending.
    pub(crate) fn members(&self, class: ClassId) -> &BTreeSet<MachineId> {
        &self.slot(class).members
    }

    /// The class's lowest member id.
    pub(crate) fn lowest(&self, class: ClassId) -> MachineId {
        *self
            .slot(class)
            .members
            .first()
            .expect("live classes have members")
    }

    /// Free GPUs on each member of the class.
    #[cfg(test)]
    pub(crate) fn free(&self, class: ClassId) -> usize {
        self.slot(class).free
    }

    /// The class `machine` belongs to.
    #[cfg(test)]
    pub(crate) fn class_of(&self, machine: MachineId) -> ClassId {
        self.class_of[machine.index()]
    }

    /// Number of live classes.
    pub(crate) fn n_live(&self) -> usize {
        self.slots.len() - self.vacant.len()
    }

    /// Decisions so far whose class-level selection fell back to the
    /// ordered member scan (DESIGN.md §15.3).
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    /// Counts one fallback to the ordered member scan.
    pub(crate) fn note_fallback(&self) {
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Re-derives the table from the per-machine keys and free counts and
    /// reports the first disagreement: every machine sits in the live
    /// class interned for its key, member sets are exactly the machines
    /// holding that key, each class carries its members' free count and
    /// sits once in that count's bucket, no live class is empty, and the
    /// vacant list names exactly the dropped ids.
    pub(crate) fn verify(
        &self,
        keys: &[MachineClassKey],
        free: impl Fn(MachineId) -> usize,
    ) -> Result<(), String> {
        let mut want: HashMap<&MachineClassKey, Vec<MachineId>> = HashMap::new();
        for (mi, key) in keys.iter().enumerate() {
            want.entry(key).or_default().push(MachineId(mi as u32));
        }
        if want.len() != self.n_live() || self.ids.len() != self.n_live() {
            return Err(format!(
                "class table holds {} live classes and {} interned keys; the machines \
                 hold {} distinct keys",
                self.n_live(),
                self.ids.len(),
                want.len()
            ));
        }
        for (key, machines) in &want {
            let Some(&id) = self.ids.get(*key) else {
                return Err(format!("class table lacks the key of {}", machines[0]));
            };
            let Some(slot) = self.slots.get(id as usize).and_then(Option::as_ref) else {
                return Err(format!(
                    "key of {} interns to dropped class {id}",
                    machines[0]
                ));
            };
            if slot.key != **key {
                return Err(format!(
                    "class {id} holds another key than the one interned to it"
                ));
            }
            if !slot.members.iter().eq(machines.iter()) {
                return Err(format!(
                    "class {id} members {:?} disagree with the machines holding its key {machines:?}",
                    slot.members
                ));
            }
            for &m in machines {
                if self.class_of[m.index()] != id {
                    return Err(format!(
                        "{m} maps to class {}, its key to {id}",
                        self.class_of[m.index()]
                    ));
                }
                if free(m) != slot.free {
                    return Err(format!(
                        "class {id} records {} free GPUs, member {m} has {}",
                        slot.free,
                        free(m)
                    ));
                }
            }
            if self.by_free[slot.free].get(slot.pos) != Some(&id) {
                return Err(format!(
                    "class {id} is not at its position in bucket {}",
                    slot.free
                ));
            }
        }
        let bucketed: usize = self.by_free.iter().map(Vec::len).sum();
        let occupied = self.slots.iter().filter(|s| s.is_some()).count();
        if bucketed != self.n_live() || occupied != self.n_live() {
            return Err(format!(
                "{bucketed} bucketed classes and {occupied} occupied slots, {} live",
                self.n_live()
            ));
        }
        for &id in &self.vacant {
            if self.slots.get(id as usize).is_none_or(Option::is_some) {
                return Err(format!("vacant class id {id} is in use"));
            }
        }
        Ok(())
    }
}
