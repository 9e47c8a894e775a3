//! The scheduler's waiting queue (Algorithm 1).
//!
//! "To avoid starvation and enforce fairness as much as possible, the job
//! waiting queue is sorted by the job's arrival time. Thus, the oldest jobs
//! have priority to be placed." Postponed jobs (TOPO-AWARE-P) are parked in
//! a side list and re-queued at the end of each scheduler iteration.

use crate::spec::{JobId, JobSpec};
use std::collections::VecDeque;

/// Whether `a` sorts strictly after `b` in the queue order `(arrival_s, id)`.
fn after(a: &JobSpec, b: &JobSpec) -> bool {
    (a.arrival_s, a.id) > (b.arrival_s, b.id)
}

/// Arrival-ordered waiting queue with a postponement side list.
#[derive(Debug, Clone, Default)]
pub struct WaitQueue {
    queue: VecDeque<JobSpec>,
    postponed: Vec<JobSpec>,
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
    /// and a blocked head put back (the smallest) cost O(log n).
    pub fn add(&mut self, job: JobSpec) {
        let pos = self.queue.partition_point(|j| !after(j, &job));
        self.queue.insert(pos, job);
    }

    /// Pops the oldest job (`Q.pop()` in Algorithm 1).
    pub fn pop(&mut self) -> Option<JobSpec> {
        self.queue.pop_front()
    }

    /// Parks a job whose placement utility fell below threshold
    /// (`postponed_list.add(A)`).
    pub fn postpone(&mut self, job: JobSpec) {
        self.postponed.push(job);
    }

    /// End-of-iteration re-queue (`Q.add(postponed_list)`): postponed jobs
    /// return in arrival order for the next wake-up.
    ///
    /// Equal to calling [`WaitQueue::add`] on each postponed job in
    /// postponement order: both give a stable sort of the queue followed by
    /// the postponed run, which is the sorted queue merged with a stable
    /// sort of the run, ties going to the queue. So the run is stable-sorted
    /// by `(arrival_s, id)` — one O(postponed) pass over every run the drain
    /// produces, since it pops and postpones in queue order — and merged in
    /// one pass from the back: queued jobs that sort after the whole run
    /// stay where they are, and the rest are pushed onto their front. A
    /// drain's postponed jobs all sort before what is still queued, so the
    /// merge costs O(postponed) too.
    pub fn requeue_postponed(&mut self) {
        let mut run = std::mem::take(&mut self.postponed);
        // A total order: arrival times are finite (`JobSpec::validate`).
        run.sort_by(|a, b| after(a, b).cmp(&after(b, a)));
        if let Some(last) = run.last() {
            let cut = self.queue.partition_point(|j| !after(j, last));
            let mut head: Vec<JobSpec> = self.queue.drain(..cut).collect();
            while let Some(job) = run.pop() {
                while head.last().is_some_and(|q| after(q, &job)) {
                    self.queue.push_front(head.pop().expect("checked non-empty"));
                }
                self.queue.push_front(job);
            }
            while let Some(q) = head.pop() {
                self.queue.push_front(q);
            }
        }
        // Keep the run's allocation for the next iteration's postponements.
        self.postponed = run;
    }

    /// Number of jobs currently waiting (excluding postponed).
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no job is waiting (postponed jobs not counted — they only
    /// come back at the end of an iteration).
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Number of jobs parked in the postponement list.
    pub fn postponed_len(&self) -> usize {
        self.postponed.len()
    }

    /// True when neither queue nor postponed list hold any job.
    pub fn fully_drained(&self) -> bool {
        self.queue.is_empty() && self.postponed.is_empty()
    }

    /// Peeks at the next job without removing it.
    pub fn peek(&self) -> Option<&JobSpec> {
        self.queue.front()
    }

    /// Whether a job id is anywhere in the queue or postponed list.
    pub fn contains(&self, id: JobId) -> bool {
        self.queue.iter().any(|j| j.id == id) || self.postponed.iter().any(|j| j.id == id)
    }

    /// Removes a job from wherever it waits (queue or postponed list).
    /// Returns the removed spec, if any — the cancellation path.
    pub fn remove(&mut self, id: JobId) -> Option<JobSpec> {
        if let Some(pos) = self.queue.iter().position(|j| j.id == id) {
            return self.queue.remove(pos);
        }
        if let Some(pos) = self.postponed.iter().position(|j| j.id == id) {
            return Some(self.postponed.remove(pos));
        }
        None
    }

    /// Iterates over waiting jobs in priority order.
    pub fn iter(&self) -> impl Iterator<Item = &JobSpec> {
        self.queue.iter()
    }

    /// Iterates over jobs parked in the postponement side list, in
    /// postponement order. Auditors use this to check the two lists stay
    /// disjoint from each other and from the running set.
    pub fn postponed_iter(&self) -> impl Iterator<Item = &JobSpec> {
        self.postponed.iter()
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
    fn postponed_jobs_return_at_end_of_iteration() {
        let mut q = WaitQueue::new();
        q.add(job(0, 1.0));
        q.add(job(1, 2.0));
        let j0 = q.pop().unwrap();
        q.postpone(j0);
        assert_eq!(q.len(), 1);
        assert_eq!(q.postponed_len(), 1);
        assert!(!q.fully_drained());

        q.requeue_postponed();
        assert_eq!(q.postponed_len(), 0);
        // Back in arrival order: J0 first again.
        assert_eq!(q.pop().unwrap().id, JobId(0));
        assert_eq!(q.pop().unwrap().id, JobId(1));
        assert!(q.fully_drained());
    }

    #[test]
    fn contains_searches_both_lists() {
        let mut q = WaitQueue::new();
        q.add(job(0, 1.0));
        let j = q.pop().unwrap();
        assert!(!q.contains(JobId(0)));
        q.postpone(j);
        assert!(q.contains(JobId(0)));
    }

    #[test]
    fn remove_pulls_from_either_list() {
        let mut q = WaitQueue::new();
        q.add(job(0, 1.0));
        q.add(job(1, 2.0));
        q.postpone(job(2, 3.0));

        assert_eq!(q.remove(JobId(0)).unwrap().id, JobId(0));
        assert_eq!(q.remove(JobId(2)).unwrap().id, JobId(2));
        assert!(q.remove(JobId(9)).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.postponed_len(), 0);
        assert_eq!(q.pop().unwrap().id, JobId(1));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = WaitQueue::new();
        q.add(job(0, 1.0));
        assert_eq!(q.peek().unwrap().id, JobId(0));
        assert_eq!(q.len(), 1);
    }

    /// The queue as it was before the merge: every insertion scans from
    /// the front, and the re-queue inserts postponed jobs one by one. The
    /// property test below holds [`WaitQueue`] to this.
    #[derive(Default)]
    struct FrontScanQueue {
        queue: VecDeque<JobSpec>,
        postponed: Vec<JobSpec>,
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

        fn requeue_postponed(&mut self) {
            for job in std::mem::take(&mut self.postponed) {
                self.add(job);
            }
        }

        fn remove(&mut self, id: JobId) -> Option<JobSpec> {
            if let Some(pos) = self.queue.iter().position(|j| j.id == id) {
                return self.queue.remove(pos);
            }
            if let Some(pos) = self.postponed.iter().position(|j| j.id == id) {
                return Some(self.postponed.remove(pos));
            }
            None
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
        /// arrivals and duplicate `(arrival, id)` keys are common, and with
        /// jobs postponed both in queue order (popped) and out of it (made
        /// up). Queue order, the postponed list, and every `pop` and
        /// `remove` result must match the front-scan queue exactly.
        #[test]
        fn queue_matches_the_front_scan_oracle(
            ops in prop::collection::vec((0u8..6, 0u64..8, 0usize..5), 0..120)
        ) {
            const ARRIVALS: [f64; 5] = [-0.0, 0.0, 1.0, 1.0, 2.5];
            let mut q = WaitQueue::new();
            let mut oracle = FrontScanQueue::default();
            for (step, &(op, id, t)) in ops.iter().enumerate() {
                match op {
                    0 | 1 => {
                        q.add(job(id, ARRIVALS[t]));
                        oracle.add(job(id, ARRIVALS[t]));
                    }
                    2 => {
                        let got = q.pop();
                        prop_assert_eq!(
                            got.as_ref().map(ident),
                            oracle.queue.pop_front().as_ref().map(ident),
                            "pop at step {}", step
                        );
                        // Most popped jobs are postponed, as in a drain.
                        if let (Some(j), true) = (got, id < 6) {
                            oracle.postponed.push(j.clone());
                            q.postpone(j);
                        }
                    }
                    3 => {
                        q.postpone(job(id, ARRIVALS[t]));
                        oracle.postponed.push(job(id, ARRIVALS[t]));
                    }
                    4 => {
                        q.requeue_postponed();
                        oracle.requeue_postponed();
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
                let parked: Vec<_> = q.postponed_iter().map(ident).collect();
                let want: Vec<_> = oracle.postponed.iter().map(ident).collect();
                prop_assert_eq!(parked, want, "postponed list after step {}", step);
            }
        }
    }
}
