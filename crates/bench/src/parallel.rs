//! Order-preserving parallel map for the sweep harnesses.
//!
//! The fig10/fig11/failures/validate experiments run independent
//! simulations per `(seed, policy)` cell; each cell is deterministic, so
//! running them on a scoped worker pool changes nothing but wall-clock.
//! Thread count follows the evaluation engine's `GTS_EVAL_THREADS` knob —
//! `1` makes every sweep serial again.

use gts_core::prelude::EvalParams;
use std::sync::Mutex;

/// Maps `f` over `items` on a scoped worker pool, returning results in
/// input order. Serial when `GTS_EVAL_THREADS=1` or there is at most one
/// item.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = EvalParams::from_env().threads;
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n_workers = threads.min(items.len());
    let queue = Mutex::new(items.into_iter().enumerate());
    let (queue, f) = (&queue, &f);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..n_workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        // A statement of its own: the guard drops here, so
                        // no worker holds the queue while `f` runs.
                        let next = queue.lock().expect("par_map queue poisoned").next();
                        let Some((i, item)) = next else { break };
                        done.push((i, f(item)));
                    }
                    done
                })
            })
            .collect();
        // A worker whose item panicked re-raises that panic in the caller;
        // the scope still waits for the other workers.
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let out = par_map((0..64).collect::<Vec<u64>>(), |x| x * x);
        assert_eq!(out, (0..64).map(|x| x * x).collect::<Vec<u64>>());
    }

    #[test]
    fn handles_empty_and_singleton() {
        assert_eq!(par_map(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(par_map(vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn backpressure_keeps_order_on_large_inputs() {
        // Far more items than workers, with uneven per-item cost so
        // workers finish out of order.
        let out = par_map((0..500).collect::<Vec<u64>>(), |x| {
            if x % 7 == 0 {
                std::thread::yield_now();
            }
            x.wrapping_mul(x) ^ 0xABCD
        });
        let want: Vec<u64> = (0..500).map(|x: u64| x.wrapping_mul(x) ^ 0xABCD).collect();
        assert_eq!(out, want);
    }

    /// A panicking item panics the caller: the pool neither hangs nor
    /// returns with that item's result missing.
    #[test]
    #[should_panic(expected = "item 13 failed")]
    fn a_panicking_item_panics_the_pool() {
        par_map((0..64).collect::<Vec<u64>>(), |x| {
            if x == 13 {
                panic!("item 13 failed");
            }
            x
        });
    }
}
