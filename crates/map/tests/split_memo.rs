//! The per-thread split memo behind `physicalGraphBiPartition` must be
//! invisible: a `drb_map` call on a thread whose memo is empty and the same
//! call on a thread whose memo is warm (or has wrapped past its cap) return
//! the same mapping. The scheduler's reference oracle runs the same
//! mapper, so these tests — not the differential runner — guard the memo.

use gts_job::JobGraph;
use gts_map::{drb_map, split_memo_len, PlacementOracle, UtilityWeights};
use gts_topo::GpuId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::thread;

/// A machine given by its distance matrix. Interference and fragmentation
/// vary with the candidate set so the task routing of Algorithm 3 has
/// something to weigh besides distance.
struct MatrixOracle {
    n: usize,
    dist: Vec<f64>,
}

impl PlacementOracle for MatrixOracle {
    fn distance(&self, a: GpuId, b: GpuId) -> f64 {
        self.dist[a.index() * self.n + b.index()]
    }
    fn interference(&self, gpus: &[GpuId]) -> f64 {
        let odd = gpus.iter().filter(|g| g.index() % 2 == 1).count();
        1.0 - 0.3 * odd as f64 / gpus.len().max(1) as f64
    }
    fn fragmentation_after(&self, gpus: &[GpuId]) -> f64 {
        1.0 - gpus.len() as f64 / self.n as f64
    }
}

/// Distance shapes: all-equal (NVSwitch-like), two sockets of random
/// sizes, a few discrete link levels, and continuous random distances.
#[derive(Clone, Copy)]
enum Shape {
    AllEqual,
    TwoSocket,
    Levels,
    Continuous,
}

fn random_machine(rng: &mut StdRng, n: usize) -> MatrixOracle {
    let shape = [
        Shape::AllEqual,
        Shape::TwoSocket,
        Shape::Levels,
        Shape::Continuous,
    ][rng.gen_range(0..4usize)];
    machine_of_shape(rng, n, shape)
}

fn machine_of_shape(rng: &mut StdRng, n: usize, shape: Shape) -> MatrixOracle {
    let socket_size = rng.gen_range(1..n.max(2));
    let levels = [1.0, 2.0, 10.0, 22.0];
    let mut dist = vec![0.0; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = match shape {
                Shape::AllEqual => 1.0,
                Shape::TwoSocket if (i < socket_size) == (j < socket_size) => 1.0,
                Shape::TwoSocket => 22.0,
                Shape::Levels => levels[rng.gen_range(0..levels.len())],
                Shape::Continuous => rng.gen_range(1.0f64..50.0),
            };
            dist[i * n + j] = d;
            dist[j * n + i] = d;
        }
    }
    MatrixOracle { n, dist }
}

/// One `drb_map` call: a machine, the free GPUs on it, and a job graph.
struct Case {
    machine: MatrixOracle,
    available: Vec<GpuId>,
    graph: JobGraph,
}

impl Case {
    fn map(&self) -> Vec<GpuId> {
        drb_map(
            &self.graph,
            &self.available,
            &self.machine,
            UtilityWeights::default(),
        )
        .expect("the job fits the free GPUs")
    }
}

/// `calls_per_machine` calls on each of `machines` random machines of 2 to
/// `max_n` GPUs: random free subsets (the whole machine one time in three)
/// and uniform, pipeline or ring jobs that fit them.
fn cases(seed: u64, machines: usize, calls_per_machine: usize, max_n: usize) -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for _ in 0..machines {
        let n = rng.gen_range(2..=max_n);
        let proto = random_machine(&mut rng, n);
        for _ in 0..calls_per_machine {
            let machine = MatrixOracle {
                n,
                dist: proto.dist.clone(),
            };
            let mut available: Vec<GpuId> = if rng.gen_range(0u32..3) == 0 {
                (0..n as u32).map(GpuId).collect()
            } else {
                (0..n as u32)
                    .filter(|_| rng.gen_bool(0.6))
                    .map(GpuId)
                    .collect()
            };
            if available.is_empty() {
                available.push(GpuId(rng.gen_range(0..n as u32)));
            }
            let k = rng.gen_range(1..=available.len());
            let w = [1.0, 2.0, 4.0][rng.gen_range(0..3usize)];
            let graph = match rng.gen_range(0u32..3) {
                0 => JobGraph::uniform(k, w),
                1 => JobGraph::pipeline(k, w),
                _ => JobGraph::ring(k, w),
            };
            out.push(Case {
                machine,
                available,
                graph,
            });
        }
    }
    out
}

/// Each case mapped on a thread of its own, so every split is computed
/// from an empty memo.
fn cold_mappings(cases: &[Case]) -> Vec<Vec<GpuId>> {
    thread::scope(|s| {
        cases
            .iter()
            .map(|c| s.spawn(|| c.map()).join().expect("cold mapping"))
            .collect()
    })
}

/// What one thread saw while mapping every case `passes` times in a row.
struct Passes {
    mappings: Vec<Vec<Vec<GpuId>>>,
    /// Memo size after each pass.
    entries: Vec<usize>,
    /// Times the memo shrank, i.e. was cleared at the cap.
    wraps: usize,
}

/// Maps every case `passes` times on one new thread, so the memo starts
/// empty and then warms (and possibly wraps) across calls.
fn on_one_thread(cases: &[Case], passes: usize) -> Passes {
    thread::scope(|s| {
        s.spawn(|| {
            assert_eq!(
                split_memo_len(),
                0,
                "a new thread starts with an empty memo"
            );
            let mut out = Passes {
                mappings: Vec::new(),
                entries: Vec::new(),
                wraps: 0,
            };
            let mut last = 0;
            for _ in 0..passes {
                let mut pass = Vec::new();
                for c in cases {
                    pass.push(c.map());
                    let len = split_memo_len();
                    if len < last {
                        out.wraps += 1;
                    }
                    last = len;
                }
                out.mappings.push(pass);
                out.entries.push(last);
            }
            out
        })
        .join()
        .expect("mapping thread")
    })
}

#[test]
fn warm_memo_matches_empty_memo() {
    let cases = cases(0x5EED, 24, 6, 16);
    let cold = cold_mappings(&cases);
    let seen = on_one_thread(&cases, 2);
    assert_eq!(seen.wraps, 0, "the cases must fit under the cap");
    assert!(seen.entries[0] > 0, "the memo was used");
    assert_eq!(
        seen.entries[1], seen.entries[0],
        "the second pass only hits"
    );
    for (p, pass) in seen.mappings.iter().enumerate() {
        for (i, c) in cases.iter().enumerate() {
            let (k, free) = (c.graph.n_tasks(), &c.available);
            assert_eq!(
                pass[i], cold[i],
                "pass {p}, case {i}: {k} tasks on {free:?}"
            );
        }
    }
}

#[test]
fn overflowing_the_memo_cap_changes_no_answer() {
    // Continuous random distances make nearly every split a new key, so
    // these calls insert well over the 256-entry cap and the memo wraps
    // mid-pass.
    let mut rng = StdRng::seed_from_u64(0xCA9);
    let cases: Vec<Case> = (0..120)
        .map(|_| {
            let n = rng.gen_range(10usize..=16);
            let machine = machine_of_shape(&mut rng, n, Shape::Continuous);
            let available = (0..n as u32).map(GpuId).collect();
            Case {
                machine,
                available,
                graph: JobGraph::uniform(n, 4.0),
            }
        })
        .collect();
    let cold = cold_mappings(&cases);
    let seen = on_one_thread(&cases, 2);
    assert!(
        seen.wraps >= 2,
        "the memo wrapped {} times; the test must overflow the cap",
        seen.wraps
    );
    for pass in &seen.mappings {
        assert_eq!(pass, &cold);
    }
}
