//! The scheduler's waiting queue (Algorithm 1).
//!
//! "To avoid starvation and enforce fairness as much as possible, the job
//! waiting queue is sorted by the job's arrival time. Thus, the oldest jobs
//! have priority to be placed." The scheduler walks the queue in place
//! ([`WaitQueue::slot`]) and takes out only the jobs it places
//! ([`WaitQueue::take`]): a postponed job keeps its slot, which is where
//! Algorithm 1's end-of-iteration `Q.add(postponed_list)` would put it back
//! (DESIGN.md §14.1).

use crate::spec::{JobId, JobSpec};
use std::collections::VecDeque;

/// Whether `a` sorts strictly after `b` in the queue order `(arrival_s, id)`.
fn after(a: &JobSpec, b: &JobSpec) -> bool {
    (a.arrival_s, a.id) > (b.arrival_s, b.id)
}

/// Arrival-ordered waiting queue. Each slot holds a job and a tag of type
/// `T` that the owner attaches when it adds the job
/// ([`WaitQueue::add_tagged`]) and reads back as its walk visits the slot
/// ([`WaitQueue::slot`]): the scheduler tags each job with the ids it
/// interned for it at submit.
#[derive(Debug, Clone)]
pub struct WaitQueue<T = ()> {
    queue: VecDeque<(JobSpec, T)>,
}

impl<T> Default for WaitQueue<T> {
    fn default() -> Self {
        Self { queue: VecDeque::new() }
    }
}

impl WaitQueue {
    /// An empty, untagged queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts an untagged job; see [`WaitQueue::add_tagged`].
    pub fn add(&mut self, job: JobSpec) {
        self.add_tagged(job, ());
    }
}

impl<T> WaitQueue<T> {
    /// Inserts a job with its tag, keeping the queue sorted by
    /// `(arrival_s, id)` — stable FIFO for simultaneous arrivals: the job
    /// goes after every queued job with an equal key. The slot is found by
    /// binary search and the insert shifts the shorter side, so an arrival
    /// (the largest key) costs O(log n).
    pub fn add_tagged(&mut self, job: JobSpec, tag: T) {
        let pos = self.queue.partition_point(|(j, _)| !after(j, &job));
        self.queue.insert(pos, (job, tag));
    }

    /// Pops the oldest job.
    pub fn pop(&mut self) -> Option<JobSpec> {
        self.queue.pop_front().map(|(job, _)| job)
    }

    /// The job at position `i` in queue order with its tag, if any.
    pub fn slot(&self, i: usize) -> Option<(&JobSpec, &T)> {
        self.queue.get(i).map(|(job, tag)| (job, tag))
    }

    /// The tag of the job at position `i` in queue order, if any, for the
    /// owner to update in place.
    pub fn tag_mut(&mut self, i: usize) -> Option<&mut T> {
        self.queue.get_mut(i).map(|(_, tag)| tag)
    }

    /// Removes and returns the job at position `i`, shifting the shorter
    /// side; the jobs behind it move up one slot in order.
    pub fn take(&mut self, i: usize) -> Option<JobSpec> {
        self.queue.remove(i).map(|(job, _)| job)
    }

    /// Number of jobs waiting.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no job is waiting.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Whether a job id is in the queue.
    pub fn contains(&self, id: JobId) -> bool {
        self.iter().any(|j| j.id == id)
    }

    /// Removes a job by id and returns its spec, if it was queued — the
    /// cancellation path.
    pub fn remove(&mut self, id: JobId) -> Option<JobSpec> {
        let pos = self.iter().position(|j| j.id == id)?;
        self.take(pos)
    }

    /// Iterates over waiting jobs in priority order.
    pub fn iter(&self) -> impl Iterator<Item = &JobSpec> {
        self.queue.iter().map(|(job, _)| job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchClass;
    use crate::model::NnModel;
    use proptest::prelude::*;

    fn job(id: u64, arrival: f64) -> JobSpec {
        JobSpec::new(id, NnModel::AlexNet, BatchClass::Tiny, 1).arriving_at(arrival)
    }

    #[test]
    fn pops_in_arrival_order_regardless_of_insertion_order() {
        let mut q = WaitQueue::new();
        q.add(job(2, 30.0));
        q.add(job(0, 10.0));
        q.add(job(1, 20.0));
        assert_eq!(q.pop().unwrap().id, JobId(0));
        assert_eq!(q.pop().unwrap().id, JobId(1));
        assert_eq!(q.pop().unwrap().id, JobId(2));
        assert!(q.pop().is_none());
    }

    #[test]
    fn simultaneous_arrivals_are_fifo_by_id() {
        let mut q = WaitQueue::new();
        q.add(job(5, 10.0));
        q.add(job(3, 10.0));
        assert_eq!(q.pop().unwrap().id, JobId(3));
        assert_eq!(q.pop().unwrap().id, JobId(5));
    }

    #[test]
    fn remove_pulls_a_job_from_inside_the_queue() {
        let mut q = WaitQueue::new();
        q.add(job(0, 1.0));
        q.add(job(1, 2.0));
        q.add(job(2, 3.0));

        assert_eq!(q.remove(JobId(1)).unwrap().id, JobId(1));
        assert!(q.remove(JobId(9)).is_none());
        assert!(!q.contains(JobId(1)));
        let left: Vec<JobId> = q.iter().map(|j| j.id).collect();
        assert_eq!(left, vec![JobId(0), JobId(2)]);
    }

    /// The queue as it was before the binary search: every insertion scans
    /// from the front. The property test below holds [`WaitQueue`] to this.
    #[derive(Default)]
    struct FrontScanQueue {
        queue: VecDeque<(JobSpec, usize)>,
    }

    impl FrontScanQueue {
        fn add(&mut self, job: JobSpec, tag: usize) {
            let pos = self
                .queue
                .iter()
                .position(|(j, _)| (j.arrival_s, j.id) > (job.arrival_s, job.id))
                .unwrap_or(self.queue.len());
            self.queue.insert(pos, (job, tag));
        }

        fn pop(&mut self) -> Option<JobSpec> {
            self.queue.pop_front().map(|(j, _)| j)
        }

        fn slot(&self, i: usize) -> Option<(&JobSpec, &usize)> {
            self.queue.get(i).map(|(j, t)| (j, t))
        }

        fn tag_mut(&mut self, i: usize) -> Option<&mut usize> {
            self.queue.get_mut(i).map(|(_, t)| t)
        }

        fn take(&mut self, i: usize) -> Option<JobSpec> {
            self.queue.remove(i).map(|(j, _)| j)
        }

        fn remove(&mut self, id: JobId) -> Option<JobSpec> {
            let pos = self.queue.iter().position(|(j, _)| j.id == id)?;
            self.take(pos)
        }
    }

    /// A job's identity for comparisons: id and arrival bits (`JobSpec`
    /// equality would also accept `-0.0 == 0.0`).
    fn ident(j: &JobSpec) -> (u64, u64) {
        (j.id.0, j.arrival_s.to_bits())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Random interleavings of every queue operation, over few ids and
        /// few arrival times (`-0.0` and `0.0` among them) so that equal
        /// arrivals and duplicate `(arrival, id)` keys are common; each job
        /// is tagged with the step that added it, `tag_mut` adds 100 to a
        /// tag, and `slot`, `tag_mut` and `take` read the id as a position,
        /// so some fall past the end. Queue order, every slot's tag and
        /// every `pop`, `slot`, `take` and `remove` result must match the
        /// front-scan queue exactly.
        #[test]
        fn queue_matches_the_front_scan_oracle(
            ops in prop::collection::vec((0u8..7, 0u64..8, 0usize..5), 0..120)
        ) {
            const ARRIVALS: [f64; 5] = [-0.0, 0.0, 1.0, 1.0, 2.5];
            let mut q: WaitQueue<usize> = WaitQueue::default();
            let mut oracle = FrontScanQueue::default();
            for (step, &(op, id, t)) in ops.iter().enumerate() {
                let i = id as usize;
                let tagged = |s: Option<(&JobSpec, &usize)>| s.map(|(j, &tag)| (ident(j), tag));
                match op {
                    0 | 1 => {
                        q.add_tagged(job(id, ARRIVALS[t]), step);
                        oracle.add(job(id, ARRIVALS[t]), step);
                    }
                    2 => {
                        prop_assert_eq!(
                            q.pop().as_ref().map(ident),
                            oracle.pop().as_ref().map(ident),
                            "pop at step {}", step
                        );
                    }
                    3 => {
                        prop_assert_eq!(
                            tagged(q.slot(i)),
                            tagged(oracle.slot(i)),
                            "slot({}) at step {}", i, step
                        );
                    }
                    4 => {
                        prop_assert_eq!(
                            q.take(i).as_ref().map(ident),
                            oracle.take(i).as_ref().map(ident),
                            "take({}) at step {}", i, step
                        );
                    }
                    5 => {
                        let (got, want) = (q.tag_mut(i), oracle.tag_mut(i));
                        prop_assert_eq!(
                            got.is_some(),
                            want.is_some(),
                            "tag_mut({}) at step {}", i, step
                        );
                        if let (Some(got), Some(want)) = (got, want) {
                            *got += 100;
                            *want += 100;
                        }
                    }
                    _ => {
                        prop_assert_eq!(
                            q.remove(JobId(id)).as_ref().map(ident),
                            oracle.remove(JobId(id)).as_ref().map(ident),
                            "remove at step {}", step
                        );
                    }
                }
                let queued: Vec<_> = (0..q.len()).map(|i| tagged(q.slot(i))).collect();
                let want: Vec<_> =
                    (0..oracle.queue.len()).map(|i| tagged(oracle.slot(i))).collect();
                prop_assert_eq!(queued, want, "queue order and tags after step {}", step);
            }
        }
    }
}
