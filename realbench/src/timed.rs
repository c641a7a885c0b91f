//! The traced run's view of the `apps` layer: a [`SearchProblem`] adapter
//! that delegates everything to the wrapped application, counts every
//! `generator()` call and times `generator()` plus every `next()` of one
//! generator in [`SAMPLE`] per thread.
//!
//! Sampling keeps the adapter's own cost small next to nodes that take
//! tens of nanoseconds; the counts are exact.  Counters are sharded by
//! thread so workers do not contend on one cache line.  Only traced runs
//! wrap problems; end-to-end runs call the applications directly.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use yewpar::{Decide, Enumerate, Optimise, PruneLevel, SearchProblem};

/// One generator in this many (per thread) is timed.
pub const SAMPLE: u32 = 8;

const SHARDS: usize = 16;

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's counter shard.
    static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
    /// Generators built on this thread since the last timed one.
    static TICK: Cell<u32> = const { Cell::new(0) };
}

/// One cache line of counters.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Shard {
    /// `generator()` calls.
    calls: AtomicU64,
    /// Timed generators.
    sampled: AtomicU64,
    /// Timed regions of the timed generators: `generator()` and each `next()`.
    spans: AtomicU64,
    /// Nanoseconds inside the timed regions, timer reads included.
    nanos: AtomicU64,
}

/// Generator counters of one [`Timed`] problem.
#[derive(Debug, Default)]
pub struct GenCounters {
    shards: [Shard; SHARDS],
}

/// A snapshot of [`GenCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GenTotals {
    /// `generator()` calls.
    pub calls: u64,
    /// Timed generators.
    pub sampled: u64,
    /// Timed regions.
    pub spans: u64,
    /// Seconds inside the timed regions, before timer-cost correction.
    pub raw_s: f64,
}

impl GenTotals {
    /// Add another snapshot.
    pub fn add(&mut self, other: GenTotals) {
        self.calls += other.calls;
        self.sampled += other.sampled;
        self.spans += other.spans;
        self.raw_s += other.raw_s;
    }

    /// Estimated seconds in all generators: the timed regions minus what an
    /// empty timed region reads (`span_s` each), scaled from the timed
    /// generators to all of them.
    pub fn estimated_s(&self, span_s: f64) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        let timed = (self.raw_s - self.spans as f64 * span_s).max(0.0);
        timed * self.calls as f64 / self.sampled as f64
    }
}

impl GenCounters {
    /// Read the counters (call after the search has finished).
    pub fn totals(&self) -> GenTotals {
        let mut totals = GenTotals::default();
        for shard in &self.shards {
            // ordering: read after the search's workers were joined; the
            // join orders every update before these loads.
            totals.calls += shard.calls.load(Ordering::Relaxed);
            totals.sampled += shard.sampled.load(Ordering::Relaxed);
            totals.spans += shard.spans.load(Ordering::Relaxed);
            totals.raw_s += shard.nanos.load(Ordering::Relaxed) as f64 * 1e-9;
        }
        totals
    }

    fn shard(&self) -> &Shard {
        &self.shards[SHARD.with(|s| *s)]
    }
}

/// The adapter: an owned application plus shared counters.
#[derive(Debug, Clone)]
pub struct Timed<P> {
    inner: P,
    counters: Arc<GenCounters>,
}

impl<P> Timed<P> {
    /// Wrap `inner` with fresh counters.
    pub fn new(inner: P) -> Self {
        Timed {
            inner,
            counters: Arc::new(GenCounters::default()),
        }
    }

    /// A handle on the counters that outlives the problem (runtime
    /// submissions move the problem into the runtime).
    pub fn counters(&self) -> Arc<GenCounters> {
        Arc::clone(&self.counters)
    }
}

/// The wrapped generator; `timing` holds the timed regions' count and
/// nanoseconds for a sampled generator, flushed on drop.
pub struct TimedGen<'a, P: SearchProblem + 'a> {
    inner: P::Gen<'a>,
    counters: &'a GenCounters,
    timing: Option<(u64, u64)>,
}

impl<'a, P: SearchProblem + 'a> Iterator for TimedGen<'a, P> {
    type Item = P::Node;

    fn next(&mut self) -> Option<P::Node> {
        let Some((spans, nanos)) = &mut self.timing else {
            return self.inner.next();
        };
        let start = Instant::now();
        let child = self.inner.next();
        *nanos += start.elapsed().as_nanos() as u64;
        *spans += 1;
        child
    }
}

impl<'a, P: SearchProblem + 'a> Drop for TimedGen<'a, P> {
    fn drop(&mut self) {
        if let Some((spans, nanos)) = self.timing {
            let shard = self.counters.shard();
            // ordering: statistics only, read after the search joins.
            shard.sampled.fetch_add(1, Ordering::Relaxed);
            shard.spans.fetch_add(spans, Ordering::Relaxed);
            shard.nanos.fetch_add(nanos, Ordering::Relaxed);
        }
    }
}

impl<P: SearchProblem> SearchProblem for Timed<P> {
    type Node = P::Node;
    type Gen<'a>
        = TimedGen<'a, P>
    where
        Self: 'a;

    fn root(&self) -> P::Node {
        self.inner.root()
    }

    fn generator<'a>(&'a self, node: &P::Node) -> TimedGen<'a, P> {
        // ordering: statistics only, read after the search joins.
        self.counters.shard().calls.fetch_add(1, Ordering::Relaxed);
        let sampled = TICK.with(|tick| {
            let t = tick.get() + 1;
            tick.set(if t == SAMPLE { 0 } else { t });
            t == SAMPLE
        });
        if !sampled {
            return TimedGen {
                inner: self.inner.generator(node),
                counters: &self.counters,
                timing: None,
            };
        }
        let start = Instant::now();
        let inner = self.inner.generator(node);
        let nanos = start.elapsed().as_nanos() as u64;
        TimedGen {
            inner,
            counters: &self.counters,
            timing: Some((1, nanos)),
        }
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

impl<P: Enumerate> Enumerate for Timed<P> {
    type Value = P::Value;

    fn value(&self, node: &P::Node) -> P::Value {
        self.inner.value(node)
    }
}

impl<P: Optimise> Optimise for Timed<P> {
    type Score = P::Score;

    fn objective(&self, node: &P::Node) -> P::Score {
        self.inner.objective(node)
    }

    fn bound(&self, node: &P::Node) -> Option<P::Score> {
        self.inner.bound(node)
    }

    fn prune_level(&self) -> PruneLevel {
        self.inner.prune_level()
    }
}

impl<P: Decide> Decide for Timed<P> {
    fn target(&self) -> P::Score {
        self.inner.target()
    }
}

/// What an empty timed region reads, in seconds (median of many), used to
/// correct the generator spans for the timer's own cost.
pub fn empty_span_s() -> f64 {
    let reads: Vec<f64> = (0..20_001)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::median(&reads) * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use yewpar::{Coordination, Skeleton};
    use yewpar_apps::irregular::Irregular;
    use yewpar_apps::maxclique::MaxClique;
    use yewpar_apps::semigroups::Semigroups;
    use yewpar_instances::graph;

    #[test]
    fn wrapped_and_unwrapped_runs_agree() {
        let seq = Skeleton::new(Coordination::Sequential);

        let clique = MaxClique::new(graph::p_hat_like(40, 0.3, 0.8, 5));
        let timed = Timed::new(clique.clone());
        let plain = seq.maximise(&clique);
        let wrapped = seq.maximise(&timed);
        assert_eq!(plain.try_score(), wrapped.try_score());
        assert_eq!(plain.metrics.nodes(), wrapped.metrics.nodes());
        let totals = timed.counters().totals();
        assert!(totals.calls > 0 && totals.sampled > 0 && totals.spans >= totals.sampled);

        let semigroups = Semigroups::new(12);
        let plain = seq.enumerate(&semigroups);
        let wrapped = seq.enumerate(&Timed::new(semigroups.clone()));
        assert_eq!(plain.value, wrapped.value);
        assert_eq!(plain.metrics.nodes(), wrapped.metrics.nodes());

        let irregular = Irregular::new(9, 3);
        let timed = Timed::new(irregular.clone());
        let plain = seq.enumerate(&irregular);
        let wrapped = seq.enumerate(&timed);
        assert_eq!(plain.value, wrapped.value);
        assert_eq!(plain.metrics.nodes(), wrapped.metrics.nodes());
        // Every expanded node built exactly one generator.
        assert_eq!(timed.counters().totals().calls, plain.metrics.nodes());
    }
}
