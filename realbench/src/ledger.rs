//! The layer ledger: per-operation costs of the public work pools, timed
//! on the workload's own task type, multiplied by the counters a traced
//! search returns.  Together with the generator time it should account
//! for the skeleton's worker time; the rest is reported as unexplained.

use std::collections::VecDeque;
use std::time::Instant;

use yewpar::metrics::WorkerMetrics;
use yewpar::workpool::ordered::{OrderedPool, SeqKey};
use yewpar::workpool::{ShardedPool, Task, POP_BATCH, STEAL_BATCH};

use crate::stats::median;

/// Uncontended cost of each pool operation, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpCosts {
    /// `ShardedPool::push_batch` of one generator burst.
    pub push_batch_ns: f64,
    /// `ShardedPool::pop_batch_local` of up to `POP_BATCH` tasks.
    pub pop_batch_ns: f64,
    /// `ShardedPool::steal_batch` of up to `STEAL_BATCH` tasks.
    pub steal_batch_ns: f64,
    /// `OrderedPool::push_batch_from` of one generator burst.
    pub ordered_push_ns: f64,
    /// `OrderedPool::pop`.
    pub ordered_pop_ns: f64,
}

const ROUNDS: usize = 2_000;
const REPEATS: usize = 5;

/// Time each pool operation on bursts of `sample` (cloned once, then
/// recycled through the pools, so the timings contain no clones).
pub fn measure<N: Clone>(sample: &[N]) -> OpCosts {
    assert!(!sample.is_empty(), "the ledger needs at least one task");
    let mut push = Vec::new();
    let mut pop = Vec::new();
    let mut steal = Vec::new();
    let mut opush = Vec::new();
    let mut opop = Vec::new();
    for _ in 0..REPEATS {
        let (a, b, c) = sharded(sample);
        push.push(a);
        pop.push(b);
        steal.push(c);
        let (d, e) = ordered(sample);
        opush.push(d);
        opop.push(e);
    }
    OpCosts {
        push_batch_ns: median(&push),
        pop_batch_ns: median(&pop),
        steal_batch_ns: median(&steal),
        ordered_push_ns: median(&opush),
        ordered_pop_ns: median(&opop),
    }
}

fn sharded<N: Clone>(sample: &[N]) -> (f64, f64, f64) {
    let pool: ShardedPool<N> = ShardedPool::new(2);
    let mut burst: Vec<Task<N>> = sample.iter().map(|n| Task::new(n.clone(), 1)).collect();
    let mut out: VecDeque<Task<N>> = VecDeque::with_capacity(burst.len());
    let (mut push_ns, mut pop_ns, mut steal_ns) = (0u128, 0u128, 0u128);
    let (mut pops, mut steals) = (0u64, 0u64);
    for round in 0..ROUNDS {
        let start = Instant::now();
        pool.push_batch(0, &mut burst);
        push_ns += start.elapsed().as_nanos();
        loop {
            let start = Instant::now();
            // Alternate owner pops and thief steals so both paths run on
            // the same queue contents.
            let taken = if round % 2 == 0 {
                let n = pool.pop_batch_local(0, POP_BATCH, &mut out);
                pop_ns += start.elapsed().as_nanos();
                pops += 1;
                n
            } else {
                let n = pool.steal_batch(1, STEAL_BATCH, &mut out);
                steal_ns += start.elapsed().as_nanos();
                steals += 1;
                n
            };
            burst.extend(out.drain(..));
            if taken == 0 {
                break;
            }
        }
    }
    (
        push_ns as f64 / ROUNDS as f64,
        pop_ns as f64 / pops.max(1) as f64,
        steal_ns as f64 / steals.max(1) as f64,
    )
}

fn ordered<N: Clone>(sample: &[N]) -> (f64, f64) {
    let pool: OrderedPool<N> = OrderedPool::with_shards(2);
    let parent = SeqKey::root().child(0);
    let mut burst: Vec<(SeqKey, N)> = sample
        .iter()
        .enumerate()
        .map(|(i, n)| (parent.child(i as u32), n.clone()))
        .collect();
    let (mut push_ns, mut pop_ns, mut pops) = (0u128, 0u128, 0u64);
    for _ in 0..ROUNDS {
        let start = Instant::now();
        pool.push_batch_from(0, burst.drain(..));
        push_ns += start.elapsed().as_nanos();
        loop {
            let start = Instant::now();
            let entry = pool.pop();
            pop_ns += start.elapsed().as_nanos();
            pops += 1;
            match entry {
                Some(entry) => burst.push(entry),
                None => break,
            }
        }
    }
    (push_ns as f64 / ROUNDS as f64, pop_ns as f64 / pops as f64)
}

/// Estimated pool seconds of one search from its counters: one
/// `push_batch` per batched release, one steal per steal attempt, and
/// every other lock acquisition priced as a batched pop.  `ordered`
/// prices pushes and pops at the ordered pool's costs.
pub fn pool_seconds(totals: &WorkerMetrics, costs: &OpCosts, ordered: bool) -> f64 {
    let steals = totals.steals + totals.failed_steals;
    let pushes = totals.batch_pushes;
    let ns = if ordered {
        let pops = totals.lock_acquisitions.saturating_sub(pushes);
        pushes as f64 * costs.ordered_push_ns + pops as f64 * costs.ordered_pop_ns
    } else {
        let pops = totals.lock_acquisitions.saturating_sub(pushes + steals);
        pushes as f64 * costs.push_batch_ns
            + pops as f64 * costs.pop_batch_ns
            + steals as f64 * costs.steal_batch_ns
    };
    ns * 1e-9
}
