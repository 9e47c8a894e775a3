//! The scheduler's waiting queue (Algorithm 1).
//!
//! "To avoid starvation and enforce fairness as much as possible, the job
//! waiting queue is sorted by the job's arrival time. Thus, the oldest jobs
//! have priority to be placed." The scheduler walks the queue in place
//! ([`WaitQueue::get`]) and takes out only the jobs it places
//! ([`WaitQueue::take`]): a postponed job keeps its slot, which is where
//! Algorithm 1's end-of-iteration `Q.add(postponed_list)` would put it back
//! (DESIGN.md §14.1).

use crate::spec::{JobId, JobSpec};
use std::collections::VecDeque;

/// Whether `a` sorts strictly after `b` in the queue order `(arrival_s, id)`.
fn after(a: &JobSpec, b: &JobSpec) -> bool {
    (a.arrival_s, a.id) > (b.arrival_s, b.id)
}

/// Arrival-ordered waiting queue.
#[derive(Debug, Clone, Default)]
pub struct WaitQueue {
    queue: VecDeque<JobSpec>,
}

impl WaitQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a job keeping the queue sorted by `(arrival_s, id)` —
    /// stable FIFO for simultaneous arrivals: the job goes after every
    /// queued job with an equal key. The slot is found by binary search and
    /// the insert shifts the shorter side, so an arrival (the largest key)
    /// costs O(log n).
    pub fn add(&mut self, job: JobSpec) {
        let pos = self.queue.partition_point(|j| !after(j, &job));
        self.queue.insert(pos, job);
    }

    /// Pops the oldest job.
    pub fn pop(&mut self) -> Option<JobSpec> {
        self.queue.pop_front()
    }

    /// The job at position `i` in queue order, if any.
    pub fn get(&self, i: usize) -> Option<&JobSpec> {
        self.queue.get(i)
    }

    /// Removes and returns the job at position `i`, shifting the shorter
    /// side; the jobs behind it move up one slot in order.
    pub fn take(&mut self, i: usize) -> Option<JobSpec> {
        self.queue.remove(i)
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
        self.queue.iter().any(|j| j.id == id)
    }

    /// Removes a job by id and returns its spec, if it was queued — the
    /// cancellation path.
    pub fn remove(&mut self, id: JobId) -> Option<JobSpec> {
        let pos = self.queue.iter().position(|j| j.id == id)?;
        self.queue.remove(pos)
    }

    /// Iterates over waiting jobs in priority order.
    pub fn iter(&self) -> impl Iterator<Item = &JobSpec> {
        self.queue.iter()
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
        queue: VecDeque<JobSpec>,
    }

    impl FrontScanQueue {
        fn add(&mut self, job: JobSpec) {
            let pos = self
                .queue
                .iter()
                .position(|j| (j.arrival_s, j.id) > (job.arrival_s, job.id))
                .unwrap_or(self.queue.len());
            self.queue.insert(pos, job);
        }

        fn pop(&mut self) -> Option<JobSpec> {
            self.queue.pop_front()
        }

        fn get(&self, i: usize) -> Option<&JobSpec> {
            self.queue.get(i)
        }

        fn take(&mut self, i: usize) -> Option<JobSpec> {
            self.queue.remove(i)
        }

        fn remove(&mut self, id: JobId) -> Option<JobSpec> {
            let pos = self.queue.iter().position(|j| j.id == id)?;
            self.queue.remove(pos)
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
        /// arrivals and duplicate `(arrival, id)` keys are common; `get` and
        /// `take` read the id as a position, so some fall past the end.
        /// Queue order and every `pop`, `get`, `take` and `remove` result
        /// must match the front-scan queue exactly.
        #[test]
        fn queue_matches_the_front_scan_oracle(
            ops in prop::collection::vec((0u8..6, 0u64..8, 0usize..5), 0..120)
        ) {
            const ARRIVALS: [f64; 5] = [-0.0, 0.0, 1.0, 1.0, 2.5];
            let mut q = WaitQueue::new();
            let mut oracle = FrontScanQueue::default();
            for (step, &(op, id, t)) in ops.iter().enumerate() {
                let i = id as usize;
                match op {
                    0 | 1 => {
                        q.add(job(id, ARRIVALS[t]));
                        oracle.add(job(id, ARRIVALS[t]));
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
                            q.get(i).map(ident),
                            oracle.get(i).map(ident),
                            "get({}) at step {}", i, step
                        );
                    }
                    4 => {
                        prop_assert_eq!(
                            q.take(i).as_ref().map(ident),
                            oracle.take(i).as_ref().map(ident),
                            "take({}) at step {}", i, step
                        );
                    }
                    _ => {
                        prop_assert_eq!(
                            q.remove(JobId(id)).as_ref().map(ident),
                            oracle.remove(JobId(id)).as_ref().map(ident),
                            "remove at step {}", step
                        );
                    }
                }
                let queued: Vec<_> = q.iter().map(ident).collect();
                let want: Vec<_> = oracle.queue.iter().map(ident).collect();
                prop_assert_eq!(queued, want, "queue order after step {}", step);
            }
        }
    }
}
