//! The runtime's per-search fixed cost, seen from outside: a closed loop of
//! small searches on a 2-worker `FairShare` runtime must run on the pool's
//! persistent threads alone (no per-search driver thread) and must not make
//! the elastic scheduler grow and reclaim leases on searches that finish
//! within a replan period.

use std::time::{Duration, Instant};

use yewpar::monoid::Sum;
use yewpar::skeleton::EnumOutcome;
use yewpar::trace::analyze::{analyze, AnalyzeConfig, FindingKind};
use yewpar::{
    Coordination, Enumerate, FairShare, Runtime, RuntimeConfig, SearchConfig, SearchHandle,
    SearchProblem, ShutdownMode, Skeleton,
};

/// Pool size of the runtime under test.
const WORKERS: usize = 2;
/// Searches per loop.
const SEARCHES: usize = 200;
/// Searches in flight at once: one per worker, like a closed-loop service.
const IN_FLIGHT: usize = WORKERS;
/// Distinct searches the loop cycles through.
const KINDS: usize = 8;

/// Deterministic irregular tree; node = (depth, seed).
struct Irregular {
    depth: usize,
    seed: u64,
}

impl SearchProblem for Irregular {
    type Node = (usize, u64);
    type Gen<'a> = std::vec::IntoIter<(usize, u64)>;
    fn root(&self) -> (usize, u64) {
        (0, self.seed)
    }
    fn generator(&self, node: &(usize, u64)) -> Self::Gen<'_> {
        let (depth, seed) = *node;
        if depth >= self.depth {
            return Vec::new().into_iter();
        }
        let fanout = (seed % 4) as usize + 1;
        (0..fanout)
            .map(|i| {
                (
                    depth + 1,
                    seed.wrapping_mul(6364136223846793005)
                        .wrapping_add(i as u64 + 1),
                )
            })
            .collect::<Vec<_>>()
            .into_iter()
    }
}

impl Enumerate for Irregular {
    type Value = Sum<u64>;
    fn value(&self, _node: &(usize, u64)) -> Sum<u64> {
        Sum(1)
    }
}

/// The `i`th search of the loop: alternately Sequential on one worker and
/// Depth-Bounded on the whole pool, over a few small trees.  The
/// Sequential ones are the larger (around a millisecond), so each lives
/// through several Depth-Bounded arrivals and completions: the pattern
/// that made the scheduler grow a search onto a freed worker and reclaim
/// it for the next arrival, again and again.
fn search(i: usize) -> (Irregular, SearchConfig) {
    let problem = Irregular {
        depth: if i % 2 == 0 { 11 } else { 9 },
        seed: (i % KINDS) as u64 + 1,
    };
    let mut config = if i % 2 == 0 {
        SearchConfig::new(Coordination::Sequential)
    } else {
        SearchConfig::new(Coordination::depth_bounded(2))
    };
    config.workers = if i % 2 == 0 { 1 } else { WORKERS };
    (problem, config)
}

/// Threads of this process right now, or `None` where `/proc` is absent.
fn threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task")
        .ok()
        .map(|tasks| tasks.count())
}

/// Run the closed loop on `runtime`: keep `IN_FLIGHT` searches submitted,
/// replacing whichever finishes first, check every answer against the
/// blocking facade, and call `sample` after each submission and each
/// completion.
fn closed_loop(runtime: &Runtime, mut sample: impl FnMut()) {
    let expected: Vec<u64> = (0..KINDS)
        .map(|i| {
            let (problem, _) = search(i);
            Skeleton::new(Coordination::Sequential)
                .enumerate(&problem)
                .value
                .0
        })
        .collect();
    let mut in_flight: Vec<(usize, SearchHandle<EnumOutcome<Sum<u64>>>)> = Vec::new();
    let (mut submitted, mut finished) = (0, 0);
    while finished < SEARCHES {
        if submitted < SEARCHES && in_flight.len() < IN_FLIGHT {
            let (problem, config) = search(submitted);
            in_flight.push((submitted, runtime.enumerate(problem, &config)));
            submitted += 1;
            sample();
            continue;
        }
        let Some(k) = in_flight
            .iter()
            .position(|(_, handle)| handle.is_finished())
        else {
            std::thread::sleep(Duration::from_micros(20));
            continue;
        };
        let (i, mut handle) = in_flight.swap_remove(k);
        let out = handle.try_result().expect("a finished search has a result");
        assert!(out.status.is_complete(), "search {i}");
        assert_eq!(out.value.0, expected[i % KINDS], "search {i}");
        finished += 1;
        sample();
    }
}

/// One test, not two: both phases start runtimes, and the thread counts of
/// the first must not see the threads of a concurrently running second.
#[test]
fn small_searches_run_on_the_pool_threads_without_grant_thrash() {
    // Phase 1: count threads around an untraced loop.
    if let Some(baseline) = threads() {
        let runtime = Runtime::with_policy(
            RuntimeConfig::default().workers(WORKERS),
            Box::new(FairShare),
        );
        // The pool's threads plus the dispatcher; a thread per search would
        // push the count past this bound with two searches in flight.
        let bound = baseline + WORKERS + 1;
        closed_loop(&runtime, || {
            let now = threads().expect("/proc stays mounted");
            assert!(
                now <= bound,
                "{now} threads with {WORKERS} workers (baseline {baseline})"
            );
        });
        runtime.shutdown(ShutdownMode::Graceful);
        // A joined thread can stay in the count for a moment after `join`
        // returns: the kernel reaps it just after it wakes the joiner.
        let settle = Instant::now() + Duration::from_secs(1);
        let mut after = threads();
        while after != Some(baseline) && Instant::now() < settle {
            std::thread::sleep(Duration::from_millis(1));
            after = threads();
        }
        assert_eq!(after, Some(baseline), "shutdown joins every runtime thread");
    }

    // Phase 2: the same loop, traced, shows no grant thrash.
    let runtime = Runtime::with_policy(
        RuntimeConfig::default().workers(WORKERS).trace(true),
        Box::new(FairShare),
    );
    closed_loop(&runtime, || {});
    let records = runtime.drain_trace();
    assert!(!records.is_empty(), "the traced loop recorded events");
    let findings = analyze(&records, &AnalyzeConfig::default());
    assert!(
        findings.iter().all(|f| f.kind != FindingKind::GrantThrash),
        "grant thrash over {SEARCHES} searches: {findings:?}"
    );
}
