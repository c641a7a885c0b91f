//! `runtime`: a closed loop that keeps `nproc` small mixed searches in
//! flight on one persistent `Runtime` under `FairShare`.
//!
//! The generator (the main thread) submits from a seeded pool of Knapsack
//! maximise, SIP decide, small MaxClique and small TSP searches, half of
//! them Sequential on one worker and half Depth-Bounded on `nproc`
//! workers.  One waiter thread per in-flight slot blocks in
//! `SearchHandle::wait` and hands the result back, and the generator
//! submits the slot's next search at once.  Per-search fixed costs
//! dominate here: submission, dispatch, lease, wake-up, pool and
//! termination set-up, and result hand-off.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use yewpar::metrics::WorkerMetrics;
use yewpar::{
    Coordination, Decide, DecideOutcome, FairShare, Metrics, OptimOutcome, Optimise, Runtime,
    RuntimeConfig, RuntimeStats, SearchConfig, SearchHandle, ShutdownMode, Skeleton,
};
use yewpar_apps::knapsack::Knapsack;
use yewpar_apps::maxclique::{baseline, MaxClique};
use yewpar_apps::sip::Sip;
use yewpar_apps::tsp::Tsp;
use yewpar_instances::graph;
use yewpar_instances::knapsack::{KnapsackClass, KnapsackInstance};
use yewpar_instances::sip::SipInstance;
use yewpar_instances::tsp::TspInstance;

use crate::flight::{self, Flight};
use crate::ledger::{self, OpCosts};
use crate::report::{peak_rss_mb, setup_seconds, threads, Report};
use crate::stats::{geomean, lower_quartile, median, percentile, ratio};
use crate::suite::Leg;
use crate::timed::{GenCounters, GenTotals, Timed};
use crate::{mix, Options};

/// Searches of each kind in the pool.
const PER_KIND: u64 = 128;
/// Depth-Bounded cutoff of the parallel searches.
const DCUTOFF: usize = 2;
/// Segments of a run: each is a facade pass plus a stretch of the loop.
const SEGMENTS: usize = 4;
/// Completions per window: `solve_s` is a window's wall time, and each
/// window's p99 latency has ten searches beyond it.
const WINDOW: usize = 1000;
/// Percentile of the run's windows reported as its steady value.
const WINDOW_QUANTILE: f64 = 10.0;
/// Budget backtracks of the traced run's Budget pass over the pool.
const PASS_BUDGET: u64 = 100;
/// Completions between flight-recorder drains in the traced phase.
const DRAIN_EVERY: usize = 32;

/// One search problem of the pool.
#[derive(Debug, Clone)]
pub enum Problem {
    /// 0/1 Knapsack, maximise.
    Knapsack(Knapsack),
    /// Subgraph isomorphism with a planted embedding, decide.
    Sip(Sip),
    /// Small Maximum Clique, maximise.
    Clique(MaxClique),
    /// Small TSP, maximise (minimise tour length).
    Tsp(Tsp),
}

impl Problem {
    fn kind(&self) -> &'static str {
        match self {
            Problem::Knapsack(_) => "knapsack",
            Problem::Sip(_) => "sip",
            Problem::Clique(_) => "clique",
            Problem::Tsp(_) => "tsp",
        }
    }
}

/// The reference answer of a pool entry, computed without YewPar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expected {
    /// Knapsack optimum by dynamic programming.
    Profit(u64),
    /// The planted embedding exists.
    Embedding,
    /// Clique number from the hand-written solver.
    Omega(u32),
    /// Optimal tour length by Held-Karp.
    Tour(u64),
}

/// A pool entry: problem, coordination and reference answer.
#[derive(Debug)]
pub struct Entry {
    problem: Problem,
    parallel: bool,
    expected: Expected,
}

/// The seeded pool of problems, `parallel` alternating within each kind.
/// The families are the ones whose search size varies little between
/// seeds (strongly correlated knapsacks and large SIP targets have heavy
/// tails), so one pool's mix stands for another's.
pub fn pool(seed: u64) -> Vec<(Problem, bool)> {
    let mut out = Vec::new();
    for i in 0..PER_KIND {
        let s = |kind: u64| mix(seed, kind, i);
        let class = if s(10) % 2 == 0 {
            KnapsackClass::Uncorrelated
        } else {
            KnapsackClass::WeaklyCorrelated
        };
        let parallel = i % 2 == 1;
        out.push((
            Problem::Knapsack(Knapsack::new(KnapsackInstance::generate(
                class,
                40,
                200,
                s(0),
            ))),
            parallel,
        ));
        out.push((
            Problem::Sip(Sip::new(SipInstance::with_embedding(60, 14, 0.3, s(1)))),
            parallel,
        ));
        out.push((
            Problem::Clique(MaxClique::new(graph::gnp(80, 0.5, s(2)))),
            parallel,
        ));
        out.push((
            Problem::Tsp(Tsp::new(TspInstance::random_euclidean(8, 1000.0, s(3)))),
            parallel,
        ));
    }
    out
}

fn expected(problem: &Problem) -> Expected {
    match problem {
        Problem::Knapsack(p) => Expected::Profit(p.instance().optimum_by_dp()),
        Problem::Sip(_) => Expected::Embedding,
        Problem::Clique(p) => Expected::Omega(baseline::sequential_max_clique(p.graph()).size),
        Problem::Tsp(p) => Expected::Tour(p.instance().optimum_by_held_karp()),
    }
}

fn check_optimum<N, S: PartialEq>(
    out: &OptimOutcome<N, S>,
    score: S,
    verify: impl Fn(&N) -> bool,
) -> bool {
    out.status.is_complete()
        && out.metrics.outstanding_tasks == 0
        && out.try_score() == Some(&score)
        && out.try_node().is_some_and(verify)
}

fn check_decision<N>(out: &DecideOutcome<N>, verify: impl Fn(&N) -> bool) -> bool {
    out.status.is_complete()
        && out.metrics.outstanding_tasks == 0
        && out.witness.as_ref().is_some_and(verify)
}

/// A finished search as the waiter saw it.
struct Done {
    finished: Instant,
    ok: bool,
    metrics: Option<Box<Metrics>>,
    gen: GenTotals,
}

type Job = Box<dyn FnOnce() -> Done + Send>;

/// The coordination and worker count of a pool entry.
fn entry_config(parallel: bool, nproc: usize) -> SearchConfig {
    if parallel {
        config(Coordination::depth_bounded(DCUTOFF), nproc)
    } else {
        config(Coordination::Sequential, 1)
    }
}

/// The wait-and-check half of a submission, run on a waiter thread.
fn job<T: Send + 'static>(
    handle: SearchHandle<T>,
    counters: Option<Arc<GenCounters>>,
    entry: Arc<Entry>,
    check: impl FnOnce(&Entry, &T) -> bool + Send + 'static,
    metrics: impl FnOnce(&T) -> &Metrics + Send + 'static,
    keep: bool,
) -> Job {
    Box::new(move || {
        let out = handle.wait();
        let finished = Instant::now();
        Done {
            finished,
            ok: check(&entry, &out),
            metrics: keep.then(|| Box::new(metrics(&out).clone())),
            gen: counters.map(|c| c.totals()).unwrap_or_default(),
        }
    })
}

/// A submitted search and, when traced, its generator counters.
type Submitted<T> = (SearchHandle<T>, Option<Arc<GenCounters>>);

fn maximise<P: Optimise + Clone + 'static>(
    rt: &Runtime,
    problem: P,
    config: &SearchConfig,
    traced: bool,
) -> Submitted<OptimOutcome<P::Node, P::Score>> {
    if traced {
        let timed = Timed::new(problem);
        let counters = timed.counters();
        (rt.maximise(timed, config), Some(counters))
    } else {
        (rt.maximise(problem, config), None)
    }
}

fn decide<P: Decide + Clone + 'static>(
    rt: &Runtime,
    problem: P,
    config: &SearchConfig,
    traced: bool,
) -> Submitted<DecideOutcome<P::Node>> {
    if traced {
        let timed = Timed::new(problem);
        let counters = timed.counters();
        (rt.decide(timed, config), Some(counters))
    } else {
        (rt.decide(problem, config), None)
    }
}

/// Submit `entry` (its problem already cloned into `problem`) and return
/// the waiter's job, which keeps the outcome's metrics if `keep` is set
/// (per-layer runs only: end-to-end runs keep no per-search state that
/// would grow with throughput).
fn submit(
    rt: &Runtime,
    entry: &Arc<Entry>,
    problem: Problem,
    config: &SearchConfig,
    traced: bool,
    keep: bool,
) -> Job {
    let entry = Arc::clone(entry);
    match problem {
        Problem::Knapsack(p) => {
            let (h, c) = maximise(rt, p, config, traced);
            job(
                h,
                c,
                entry,
                |e, o| check(e, Answer::Knapsack(o)),
                |o| &o.metrics,
                keep,
            )
        }
        Problem::Clique(p) => {
            let (h, c) = maximise(rt, p, config, traced);
            job(
                h,
                c,
                entry,
                |e, o| check(e, Answer::Clique(o)),
                |o| &o.metrics,
                keep,
            )
        }
        Problem::Tsp(p) => {
            let (h, c) = maximise(rt, p, config, traced);
            job(
                h,
                c,
                entry,
                |e, o| check(e, Answer::Tsp(o)),
                |o| &o.metrics,
                keep,
            )
        }
        Problem::Sip(p) => {
            let (h, c) = decide(rt, p, config, traced);
            job(
                h,
                c,
                entry,
                |e, o| check(e, Answer::Sip(o)),
                |o| &o.metrics,
                keep,
            )
        }
    }
}

/// An outcome of any of the pool's search kinds.
enum Answer<'a> {
    Knapsack(&'a OptimOutcome<yewpar_apps::knapsack::KnapsackNode, u64>),
    Clique(&'a OptimOutcome<yewpar_apps::maxclique::CliqueNode, u32>),
    Tsp(&'a OptimOutcome<yewpar_apps::tsp::TourNode, yewpar::objective::MinimiseScore<u64>>),
    Sip(&'a DecideOutcome<yewpar_apps::sip::SipNode>),
}

/// Check an outcome against the entry's reference answer.
fn check(entry: &Entry, answer: Answer<'_>) -> bool {
    match (&entry.problem, entry.expected, answer) {
        (Problem::Knapsack(p), Expected::Profit(v), Answer::Knapsack(o)) => {
            check_optimum(o, v, |n| p.verify(n))
        }
        (Problem::Clique(p), Expected::Omega(w), Answer::Clique(o)) => {
            check_optimum(o, w, |n| p.verify(n))
        }
        (Problem::Tsp(p), Expected::Tour(len), Answer::Tsp(o)) => {
            check_optimum(o, yewpar::objective::MinimiseScore(len), |n| {
                p.verify(n) && p.tour_cost(n) == len
            })
        }
        (Problem::Sip(p), Expected::Embedding, Answer::Sip(o)) => {
            check_decision(o, |n| p.verify(n))
        }
        _ => false,
    }
}

/// Facade solve of one entry under `config`: wall seconds, correctness,
/// counters, and the drained trace when `traced`.
fn facade(
    entry: &Entry,
    config: SearchConfig,
    traced: bool,
) -> (f64, bool, Metrics, Option<Flight>) {
    let skeleton = Skeleton::from_config(config);
    let skeleton = if traced {
        skeleton.trace(true)
    } else {
        skeleton
    };
    let start = Instant::now();
    let (ok, metrics) = match &entry.problem {
        Problem::Knapsack(p) => {
            let o = skeleton.maximise(p);
            (check(entry, Answer::Knapsack(&o)), o.metrics)
        }
        Problem::Clique(p) => {
            let o = skeleton.maximise(p);
            (check(entry, Answer::Clique(&o)), o.metrics)
        }
        Problem::Tsp(p) => {
            let o = skeleton.maximise(p);
            (check(entry, Answer::Tsp(&o)), o.metrics)
        }
        Problem::Sip(p) => {
            let o = skeleton.decide(p);
            (check(entry, Answer::Sip(&o)), o.metrics)
        }
    };
    let secs = start.elapsed().as_secs_f64();
    let flight = traced.then(|| {
        flight::read(
            &skeleton.take_trace(),
            metrics.workers,
            metrics.elapsed,
            skeleton.trace_dropped(),
        )
    });
    (secs, ok, metrics, flight)
}

/// One completed search of the closed loop.
struct Completion {
    entry: usize,
    /// Submit → result, seconds.
    latency_s: f64,
    /// Duration of the submit call, seconds.
    submit_s: f64,
    done_ok: bool,
    metrics: Option<Box<Metrics>>,
    gen: GenTotals,
}

/// One window of [`WINDOW`] consecutive completions.
struct Window {
    /// Wall time from the previous window's last completion (or the
    /// segment's start) to this window's last completion.
    wall_s: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// What the closed loop measured over one or more segments.
#[derive(Default)]
struct Phase {
    wall_s: f64,
    completions: Vec<Completion>,
    windows: Vec<Window>,
    trace_records: u64,
}

impl Phase {
    fn extend(&mut self, segment: Phase) {
        self.wall_s += segment.wall_s;
        self.completions.extend(segment.completions);
        self.windows.extend(segment.windows);
        self.trace_records += segment.trace_records;
    }
}

/// Keep `nproc` searches in flight for `seconds`, cycling through the pool.
fn closed_loop(
    rt: &Runtime,
    pool: &[Arc<Entry>],
    seconds: f64,
    traced: bool,
    keep: bool,
    nproc: usize,
) -> Phase {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut completions = Vec::new();
    let mut windows = Vec::new();
    let mut window_start = started;
    let mut trace_records = 0u64;
    let (done_tx, done_rx) = mpsc::channel::<(usize, Done)>();
    std::thread::scope(|scope| {
        let mut slots: Vec<mpsc::Sender<Job>> = Vec::new();
        for slot in 0..nproc {
            let (job_tx, job_rx) = mpsc::channel::<Job>();
            let done_tx = done_tx.clone();
            scope.spawn(move || {
                for job in job_rx {
                    // A panicking search re-raises in `wait`; report it as a
                    // failure instead of losing the slot.
                    let done = catch_unwind(AssertUnwindSafe(job)).unwrap_or_else(|_| Done {
                        finished: Instant::now(),
                        ok: false,
                        metrics: None,
                        gen: GenTotals::default(),
                    });
                    if done_tx.send((slot, done)).is_err() {
                        break;
                    }
                }
            });
            slots.push(job_tx);
        }
        let mut next = 0;
        let mut in_flight: Vec<Option<(usize, Instant, f64)>> = vec![None; nproc];
        let mut launch = |slot: usize, in_flight: &mut Vec<Option<(usize, Instant, f64)>>| {
            let index = next % pool.len();
            next += 1;
            let entry = &pool[index];
            let problem = entry.problem.clone();
            let cfg = entry_config(entry.parallel, nproc);
            let submitted = Instant::now();
            let job = submit(rt, entry, problem, &cfg, traced, keep);
            let submit_s = submitted.elapsed().as_secs_f64();
            slots[slot]
                .send(job)
                .expect("waiter threads outlive the loop");
            in_flight[slot] = Some((index, submitted, submit_s));
        };
        for slot in 0..nproc {
            launch(slot, &mut in_flight);
        }
        let mut active = nproc;
        while active > 0 {
            let (slot, done) = done_rx
                .recv()
                .expect("a waiter holds each in-flight search");
            let (entry, submitted, submit_s) = in_flight[slot].take().expect("slot was in flight");
            completions.push(Completion {
                entry,
                latency_s: done.finished.duration_since(submitted).as_secs_f64(),
                submit_s,
                done_ok: done.ok,
                metrics: done.metrics,
                gen: done.gen,
            });
            if completions.len() % WINDOW == 0 {
                let ms: Vec<f64> = completions[completions.len() - WINDOW..]
                    .iter()
                    .map(|c| c.latency_s * 1e3)
                    .collect();
                windows.push(Window {
                    wall_s: done.finished.duration_since(window_start).as_secs_f64(),
                    p50_ms: percentile(&ms, 50.0),
                    p99_ms: percentile(&ms, 99.0),
                });
                window_start = done.finished;
            }
            if traced && completions.len() % DRAIN_EVERY == 0 {
                trace_records += rt.drain_trace().len() as u64;
            }
            if Instant::now() < deadline {
                launch(slot, &mut in_flight);
            } else {
                active -= 1;
            }
        }
        drop(slots);
    });
    if traced {
        trace_records += rt.drain_trace().len() as u64;
    }
    Phase {
        wall_s: started.elapsed().as_secs_f64(),
        completions,
        windows,
        trace_records,
    }
}

fn start_runtime(nproc: usize, traced: bool) -> Runtime {
    Runtime::with_policy(
        RuntimeConfig::default().workers(nproc).trace(traced),
        Box::new(FairShare),
    )
}

/// Wait until the runtime's completion gauge reaches `submitted` (it is
/// updated just after each handle resolves), for at most a second.
fn settled(rt: &Runtime, submitted: u64) -> bool {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let stats = rt.stats();
        if stats.completed_searches == submitted && stats.active_searches == 0 {
            return true;
        }
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The thread count once it is back at `baseline`, or after a second.  A
/// joined thread can stay in the count for a moment after `join` returns
/// (the kernel reaps it just after it wakes the joiner).
fn threads_after_exit(baseline: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let now = threads();
        if now <= baseline || Instant::now() > deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// `runtime.*` and `schedule.*` metrics from searches run through a
/// runtime: each search's submit-call seconds, submit → result seconds and
/// outcome metrics, the runtime's gauges, and the threads left after its
/// shutdown.
pub fn runtime_layer(
    report: &mut Report,
    searches: &[(f64, f64, &Metrics)],
    stats: RuntimeStats,
    leaked: f64,
) {
    let ms = |f: &dyn Fn(f64, &Metrics) -> f64| -> Vec<f64> {
        searches
            .iter()
            .map(|&(_, latency, m)| f(latency, m) * 1e3)
            .collect()
    };
    let queue_ms = ms(&|_, m| m.queue_wait.as_secs_f64());
    let search_ms = ms(&|_, m| m.elapsed.as_secs_f64());
    let dispatch_ms =
        ms(&|latency, m| (latency - m.queue_wait.as_secs_f64() - m.elapsed.as_secs_f64()).max(0.0));
    let submit_us: Vec<f64> = searches
        .iter()
        .map(|&(submit, _, _)| submit * 1e6)
        .collect();
    let granted: f64 = searches
        .iter()
        .map(|&(_, _, m)| m.granted_workers as f64)
        .sum();
    report.put("runtime.submit_us", "us", median(&submit_us));
    report.put(
        "runtime.queue_wait_ms.p50",
        "ms",
        percentile(&queue_ms, 50.0),
    );
    report.put(
        "runtime.queue_wait_ms.p99",
        "ms",
        percentile(&queue_ms, 99.0),
    );
    report.put("runtime.search_ms.p50", "ms", percentile(&search_ms, 50.0));
    report.put(
        "runtime.dispatch_ms.p50",
        "ms",
        percentile(&dispatch_ms, 50.0),
    );
    report.put(
        "runtime.dispatch_ms.p99",
        "ms",
        percentile(&dispatch_ms, 99.0),
    );
    report.put(
        "runtime.granted_workers",
        "count",
        ratio(granted, searches.len() as f64),
    );
    report.put(
        "runtime.peak_active",
        "count",
        stats.peak_active_searches as f64,
    );
    report.put(
        "schedule.grant_changes",
        "count",
        stats.grant_changes as f64,
    );
    report.put("runtime.threads_leaked", "count", leaked);
}

/// The facade workloads' view of the runtime layer (traced runs only):
/// their own searches submitted one at a time through a fresh `FairShare`
/// runtime, so `runtime.*` shows the per-search costs on coarse searches.
pub struct Probe {
    rt: Runtime,
    baseline_threads: u64,
    searches: Vec<(f64, f64, Metrics)>,
}

impl Probe {
    /// Start the runtime.
    pub fn start(nproc: usize) -> Self {
        let baseline_threads = threads();
        Probe {
            rt: start_runtime(nproc, false),
            baseline_threads,
            searches: Vec::new(),
        }
    }

    /// Submit one search, wait for it and record it.
    pub fn run<T>(
        &mut self,
        submit: impl FnOnce(&Runtime) -> SearchHandle<T>,
        metrics: impl Fn(&T) -> &Metrics,
    ) -> T {
        let submitted = Instant::now();
        let handle = submit(&self.rt);
        let submit_s = submitted.elapsed().as_secs_f64();
        let out = handle.wait();
        let latency_s = submitted.elapsed().as_secs_f64();
        self.searches
            .push((submit_s, latency_s, metrics(&out).clone()));
        out
    }

    /// Shut the runtime down, check its accounting and report the layer.
    pub fn finish(self, report: &mut Report) {
        let submitted = self.searches.len() as u64;
        report.check(settled(&self.rt, submitted), || {
            "probe runtime lost a search".to_string()
        });
        let stats = self.rt.stats();
        self.rt.shutdown(ShutdownMode::Graceful);
        let leaked =
            threads_after_exit(self.baseline_threads) as f64 - self.baseline_threads as f64;
        report.check(leaked == 0.0, || {
            format!("{leaked} threads left after the probe runtime's shutdown")
        });
        let searches: Vec<(f64, f64, &Metrics)> =
            self.searches.iter().map(|(s, l, m)| (*s, *l, m)).collect();
        runtime_layer(report, &searches, stats, leaked);
    }
}

/// A search configuration: `workers` workers of `coordination`.
pub fn config(coordination: Coordination, workers: usize) -> SearchConfig {
    let mut config = SearchConfig::new(coordination);
    config.workers = workers;
    config
}

/// Run the workload.
pub fn run(opts: &Options) -> Report {
    let mut report = Report::default();
    let nproc = opts.nproc;
    let baseline_threads = threads();
    let setup_s = setup_seconds(
        || (pool(opts.seed), start_runtime(nproc, false)),
        |(_, rt)| rt.shutdown(ShutdownMode::Graceful),
    );
    let gen_s = setup_seconds(|| pool(opts.seed), drop);
    let entries: Vec<Arc<Entry>> = pool(opts.seed)
        .into_iter()
        .map(|(problem, parallel)| {
            let expected = expected(&problem);
            Arc::new(Entry {
                problem,
                parallel,
                expected,
            })
        })
        .collect();
    let rt = start_runtime(nproc, false);
    let trt = opts.trace.then(|| start_runtime(nproc, true));

    // Segments alternate a facade pass over the pool (the reference times)
    // with a stretch of the closed loop, so both sample the host's speed
    // across the whole run.  A traced run sends odd segments to a traced
    // runtime with wrapped problems.
    let segment_s = opts.seconds / SEGMENTS as f64;
    let mut facade_s: Vec<Vec<f64>> = vec![Vec::new(); entries.len()];
    let mut plain = Phase::default();
    let mut traced = Phase::default();
    for segment in 0..SEGMENTS {
        for (i, entry) in entries.iter().enumerate() {
            let (secs, ok, _, _) = facade(entry, entry_config(entry.parallel, nproc), false);
            report.check(ok, || {
                format!(
                    "facade {}: wrong answer or unclean exit",
                    entry.problem.kind()
                )
            });
            facade_s[i].push(secs);
        }
        match &trt {
            Some(trt) if segment % 2 == 1 => {
                traced.extend(closed_loop(trt, &entries, segment_s, true, true, nproc))
            }
            _ => plain.extend(closed_loop(
                &rt, &entries, segment_s, false, opts.trace, nproc,
            )),
        }
    }
    for c in &plain.completions {
        report.check(c.done_ok, || {
            format!(
                "runtime {}: wrong answer or unclean exit",
                entries[c.entry].problem.kind()
            )
        });
    }
    let submitted = plain.completions.len() as u64;
    report.check(settled(&rt, submitted), || {
        format!(
            "runtime completed {} of {submitted} searches",
            rt.stats().completed_searches
        )
    });
    let stats = rt.stats();
    let dropped = trt.map_or(0, |trt| {
        let dropped = trt.trace_dropped();
        trt.shutdown(ShutdownMode::Graceful);
        dropped
    });
    rt.shutdown(ShutdownMode::Graceful);
    let leaked = threads_after_exit(baseline_threads) as f64 - baseline_threads as f64;
    report.check(leaked == 0.0, || {
        format!("{leaked} threads left after shutdown")
    });

    // Steady values: the host's speed drifts towards slower by tens of
    // percent on a scale of seconds, so every time below is a low quantile
    // of its repetitions: the lower quartile of an entry's facade solves or
    // of its searches, and the tenth percentile of the run's windows of
    // WINDOW consecutive completions (about eighty per run).
    let reference: Vec<f64> = facade_s.iter().map(|times| lower_quartile(times)).collect();
    let overhead = |parallel: bool| -> f64 {
        let ratios: Vec<f64> = (0..entries.len())
            .filter(|&i| entries[i].parallel == parallel)
            .map(|i| {
                let latencies: Vec<f64> = plain
                    .completions
                    .iter()
                    .filter(|c| c.entry == i)
                    .map(|c| c.latency_s)
                    .collect();
                lower_quartile(&latencies) / reference[i]
            })
            .collect();
        geomean(&ratios)
    };

    if opts.trace {
        let inputs = LayerInputs {
            entries: &entries,
            plain: &plain,
            traced: &traced,
            dropped,
            stats,
            leaked,
            gen_setup_s: gen_s,
            costs: entries
                .iter()
                .take(4)
                .map(|e| ledger_costs(&e.problem))
                .collect(),
            nproc,
            pass: coordination_pass(&entries, nproc, &mut report),
            baseline: baseline_pass(&entries, nproc),
        };
        per_layer(&mut report, &inputs);
    } else {
        let window_s: Vec<f64> = plain.windows.iter().map(|w| w.wall_s).collect();
        let solve_s = percentile(&window_s, WINDOW_QUANTILE);
        let searches_per_s = WINDOW as f64 / solve_s;
        let mean_reference_s = reference.iter().sum::<f64>() / reference.len() as f64;
        report.put("setup_s", "s", setup_s);
        report.put("solve_s", "s", solve_s);
        report.put("seq_overhead", "ratio", overhead(false));
        report.put("par_overhead", "ratio", overhead(true));
        report.put("speedup", "ratio", mean_reference_s * searches_per_s);
        report.put("searches_per_s", "1/s", searches_per_s);
        let p50: Vec<f64> = plain.windows.iter().map(|w| w.p50_ms).collect();
        let p99: Vec<f64> = plain.windows.iter().map(|w| w.p99_ms).collect();
        report.put("latency_p50_ms", "ms", percentile(&p50, WINDOW_QUANTILE));
        report.put("latency_p99_ms", "ms", percentile(&p99, WINDOW_QUANTILE));
        report.put("peak_rss_mb", "MB", peak_rss_mb());
        for kind in ["knapsack", "sip", "clique", "tsp"] {
            for parallel in [false, true] {
                let of_kind =
                    |i: usize| entries[i].problem.kind() == kind && entries[i].parallel == parallel;
                let refs: Vec<f64> = (0..entries.len())
                    .filter(|&i| of_kind(i))
                    .map(|i| reference[i] * 1e3)
                    .collect();
                let lat: Vec<f64> = plain
                    .completions
                    .iter()
                    .filter(|c| of_kind(c.entry))
                    .map(|c| c.latency_s * 1e3)
                    .collect();
                report.notes.push(format!(
                        "{kind} {}: facade ms p50 {:.3} max {:.3}; runtime latency ms p50 {:.3} p99 {:.3}",
                        if parallel { "depth-bounded" } else { "sequential" },
                        median(&refs),
                        percentile(&refs, 100.0),
                        percentile(&lat, 50.0),
                        percentile(&lat, 99.0)
                    ));
            }
        }
        report.notes.push(format!(
            "latency samples: {} searches in {} windows of {WINDOW}",
            plain.completions.len(),
            plain.windows.len()
        ));
    }
    report
}

fn ledger_costs(problem: &Problem) -> OpCosts {
    use yewpar::SearchProblem;
    fn children<P: SearchProblem>(p: &P) -> Vec<P::Node> {
        let mut nodes: Vec<P::Node> = p.generator(&p.root()).take(8).collect();
        if nodes.is_empty() {
            nodes.push(p.root());
        }
        nodes
    }
    match problem {
        Problem::Knapsack(p) => ledger::measure(&children(p)),
        Problem::Sip(p) => ledger::measure(&children(p)),
        Problem::Clique(p) => ledger::measure(&children(p)),
        Problem::Tsp(p) => ledger::measure(&children(p)),
    }
}

/// Coordination parameters of the pool's searches, by leg.
fn pool_coordination(leg: Leg) -> Coordination {
    match leg {
        Leg::Sequential => Coordination::Sequential,
        Leg::DepthBounded => Coordination::depth_bounded(DCUTOFF),
        Leg::StackStealing => Coordination::stack_stealing(),
        Leg::Budget => Coordination::budget(PASS_BUDGET),
        Leg::Ordered => Coordination::ordered(DCUTOFF),
        Leg::HandSeq | Leg::HandPar => unreachable!("not a skeleton"),
    }
}

/// One facade pass over the pool under every skeleton (traced runs only).
struct CoordinationPass {
    /// Seconds of the whole pass, per leg of [`Leg::SKELETONS`].
    secs: [f64; 5],
    /// Counters summed over the pass, per leg.
    totals: [WorkerMetrics; 5],
    /// Steal latencies from a second, traced Stack-Stealing pass.
    steal_latencies_s: Vec<f64>,
    /// Records that pass's rings dropped.
    dropped: u64,
}

fn coordination_pass(
    entries: &[Arc<Entry>],
    nproc: usize,
    report: &mut Report,
) -> CoordinationPass {
    let mut pass = CoordinationPass {
        secs: [0.0; 5],
        totals: [WorkerMetrics::default(); 5],
        steal_latencies_s: Vec::new(),
        dropped: 0,
    };
    for (k, leg) in Leg::SKELETONS.into_iter().enumerate() {
        let width = if leg == Leg::Sequential { 1 } else { nproc };
        for entry in entries {
            let (secs, ok, metrics, _) =
                facade(entry, config(pool_coordination(leg), width), false);
            report.check(ok && metrics.outstanding_tasks == 0, || {
                format!(
                    "facade {} {}: wrong answer or unclean exit",
                    entry.problem.kind(),
                    leg.name()
                )
            });
            pass.secs[k] += secs;
            pass.totals[k].merge(&metrics.totals);
        }
    }
    for entry in entries {
        let config = config(pool_coordination(Leg::StackStealing), nproc);
        if let (_, _, _, Some(flight)) = facade(entry, config, true) {
            pass.dropped += flight.dropped;
            if flight.dropped == 0 {
                pass.steal_latencies_s.extend(flight.steal_latencies_s);
            }
        }
    }
    pass
}

/// Seconds of the hand-written solvers over the pool: the reference
/// answers (knapsack DP, Held-Karp, sequential clique) and the depth-1
/// parallel clique solver on the clique entries.
fn baseline_pass(entries: &[Arc<Entry>], nproc: usize) -> (f64, f64) {
    let start = Instant::now();
    for entry in entries {
        std::hint::black_box(expected(&entry.problem));
    }
    let seq_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for entry in entries {
        if let Problem::Clique(p) = &entry.problem {
            std::hint::black_box(baseline::parallel_max_clique_depth1(p.graph(), nproc));
        }
    }
    (seq_s, start.elapsed().as_secs_f64())
}

/// Everything the runtime workload's per-layer metrics are made from.
struct LayerInputs<'a> {
    entries: &'a [Arc<Entry>],
    plain: &'a Phase,
    traced: &'a Phase,
    dropped: u64,
    stats: RuntimeStats,
    leaked: f64,
    gen_setup_s: f64,
    costs: Vec<OpCosts>,
    nproc: usize,
    pass: CoordinationPass,
    baseline: (f64, f64),
}

/// Per-layer metrics of the runtime workload.  A "pass" is one search of
/// every pool entry; counts and times are per pass.
fn per_layer(report: &mut Report, inputs: &LayerInputs<'_>) {
    let LayerInputs {
        entries,
        plain,
        traced,
        pass,
        costs,
        ..
    } = inputs;
    let per_pass = entries.len() as f64;
    let plain_n = plain.completions.len().max(1) as f64;
    let traced_n = traced.completions.len().max(1) as f64;
    let metrics: Vec<&Metrics> = plain
        .completions
        .iter()
        .filter_map(|c| c.metrics.as_deref())
        .collect();
    let sum = |f: &dyn Fn(&Metrics) -> u64| metrics.iter().map(|m| f(m)).sum::<u64>() as f64;
    let span_s = crate::timed::empty_span_s();

    // Generator time as a share of the traced phase's worker time (same
    // searches, so host noise cancels); pool time from the untraced
    // phase's counters as a share of its worker time.
    let worker_s = |phase: &Phase, keep: &dyn Fn(&Completion) -> bool| -> f64 {
        phase
            .completions
            .iter()
            .filter(|c| keep(c))
            .filter_map(|c| c.metrics.as_deref())
            .map(|m| m.elapsed.as_secs_f64() * m.granted_workers.max(1) as f64)
            .sum()
    };
    let gen_of = |keep: &dyn Fn(&Completion) -> bool| -> GenTotals {
        let mut gen = GenTotals::default();
        for c in traced.completions.iter().filter(|c| keep(c)) {
            gen.add(c.gen);
        }
        gen
    };
    let sequential = |c: &Completion| !entries[c.entry].parallel;
    let gen = gen_of(&|_| true);
    let gen_share = ratio(gen.estimated_s(span_s), worker_s(traced, &|_| true));
    let seq_gen_share = ratio(
        gen_of(&sequential).estimated_s(span_s),
        worker_s(traced, &sequential),
    )
    .min(1.0);
    let mut pool_s = 0.0;
    for c in &plain.completions {
        if let Some(m) = c.metrics.as_deref() {
            pool_s += ledger::pool_seconds(&m.totals, &costs[c.entry % costs.len()], false);
        }
    }
    let pool_share = ratio(pool_s, worker_s(plain, &|_| true));

    report.put("instances.gen_s", "s", inputs.gen_setup_s);
    report.put(
        "apps.gen_calls",
        "count",
        gen.calls as f64 / traced_n * per_pass,
    );
    report.put(
        "apps.gen_s",
        "s",
        gen.estimated_s(span_s) / traced_n * per_pass,
    );
    report.put("apps.gen_share", "ratio", gen_share);
    report.put("baseline.seq_s", "s", inputs.baseline.0);
    report.put("baseline.par_s", "s", inputs.baseline.1);
    for (k, leg) in Leg::SKELETONS.into_iter().enumerate() {
        report.put(&format!("skeleton.{}.s", leg.name()), "s", pass.secs[k]);
    }

    // engine: the per-node cost from the closed loop's Sequential searches.
    let seq_nodes: f64 = plain
        .completions
        .iter()
        .filter(|c| sequential(c))
        .filter_map(|c| c.metrics.as_deref())
        .map(|m| m.nodes() as f64)
        .sum();
    let seq_s = worker_s(plain, &sequential);
    let pass_seq_nodes = pass.totals[0].nodes as f64;
    let pass_par_nodes: f64 = pass.totals[1..]
        .iter()
        .map(|t| (t.nodes + t.speculative_nodes) as f64)
        .sum();
    report.put("engine.nodes", "count", pass_seq_nodes);
    report.put(
        "engine.ns_per_node",
        "ns",
        ratio(seq_s * (1.0 - seq_gen_share) * 1e9, seq_nodes),
    );
    report.put(
        "engine.node_inflation",
        "ratio",
        ratio(pass_par_nodes / 4.0, pass_seq_nodes),
    );
    let imbalances: Vec<f64> = metrics
        .iter()
        .filter(|m| m.workers > 1)
        .map(|m| m.imbalance())
        .collect();
    report.put("engine.imbalance", "ratio", median(&imbalances));
    let busy = worker_s(plain, &|_| true);
    let capacity = plain.wall_s * inputs.nproc as f64;
    report.put("engine.busy_share", "ratio", ratio(busy, capacity));
    report.put(
        "engine.idle_s",
        "s",
        (capacity - busy).max(0.0) / plain_n * per_pass,
    );

    let spawns = sum(&|m| m.totals.spawns);
    let locks = sum(&|m| m.totals.lock_acquisitions);
    let nodes = sum(&|m| m.totals.nodes);
    report.put("workpool.spawns", "count", spawns / plain_n * per_pass);
    report.put(
        "workpool.lock_acquisitions",
        "count",
        locks / plain_n * per_pass,
    );
    report.put(
        "workpool.locks_per_knode",
        "count",
        ratio(locks, nodes / 1e3),
    );
    report.put(
        "workpool.spawns_per_batch",
        "ratio",
        ratio(spawns, sum(&|m| m.totals.batch_pushes)),
    );
    let mean_cost = |f: fn(&OpCosts) -> f64| costs.iter().map(f).sum::<f64>() / costs.len() as f64;
    report.put(
        "workpool.op_ns.push_batch",
        "ns",
        mean_cost(|c| c.push_batch_ns),
    );
    report.put(
        "workpool.op_ns.pop_batch",
        "ns",
        mean_cost(|c| c.pop_batch_ns),
    );
    report.put(
        "workpool.op_ns.steal_batch",
        "ns",
        mean_cost(|c| c.steal_batch_ns),
    );
    report.put("workpool.est_s", "s", pool_s / plain_n * per_pass);

    let hits = sum(&|m| m.totals.steals);
    let misses = sum(&|m| m.totals.failed_steals);
    report.put("steal.hits", "count", hits / plain_n * per_pass);
    report.put("steal.misses", "count", misses / plain_n * per_pass);
    report.put("steal.hit_ratio", "ratio", ratio(hits, hits + misses));
    report.put(
        "steal.latency_us",
        "us",
        percentile(&pass.steal_latencies_s, 50.0) * 1e6,
    );

    let ordered = &pass.totals[4];
    report.put("ordered.spawns", "count", ordered.ordered_spawns as f64);
    report.put(
        "ordered.priority_inversions",
        "count",
        ordered.priority_inversions as f64,
    );
    report.put(
        "ordered.speculative_share",
        "ratio",
        ratio(
            ordered.speculative_nodes as f64,
            (ordered.nodes + ordered.speculative_nodes) as f64,
        ),
    );
    report.put(
        "ordered.cancelled_tasks",
        "count",
        ordered.cancelled_tasks as f64,
    );
    report.put("ordered.op_ns.push", "ns", mean_cost(|c| c.ordered_push_ns));
    report.put("ordered.op_ns.pop", "ns", mean_cost(|c| c.ordered_pop_ns));

    report.put(
        "knowledge.incumbent_updates",
        "count",
        sum(&|m| m.totals.incumbent_updates) / plain_n * per_pass,
    );
    report.put(
        "knowledge.prune_ratio",
        "ratio",
        ratio(sum(&|m| m.totals.prunes), nodes),
    );
    report.put(
        "lifecycle.polls_per_knode",
        "count",
        ratio(sum(&|m| m.totals.poll_checks), nodes / 1e3),
    );
    report.put(
        "termination.outstanding",
        "count",
        sum(&|m| m.outstanding_tasks),
    );

    let searches: Vec<(f64, f64, &Metrics)> = plain
        .completions
        .iter()
        .filter_map(|c| c.metrics.as_deref().map(|m| (c.submit_s, c.latency_s, m)))
        .collect();
    runtime_layer(report, &searches, inputs.stats, inputs.leaked);

    report.put(
        "trace.slowdown",
        "ratio",
        ratio(plain_n / plain.wall_s, traced_n / traced.wall_s),
    );
    report.put(
        "trace.records",
        "count",
        traced.trace_records as f64 / traced_n * per_pass,
    );
    let dropped = inputs.dropped + pass.dropped;
    report.put("trace.dropped", "count", dropped as f64);
    if dropped > 0 {
        report.notes.push(format!(
            "trace: rings dropped {dropped} records; trace.records is a lower bound and lossy steal traces are excluded"
        ));
    }
    report.put(
        "ledger.unexplained_share",
        "ratio",
        1.0 - gen_share - pool_share,
    );
    report.notes.push(
        "skeleton.*.s, engine.nodes, engine.node_inflation, steal.latency_us and ordered.* come from one facade pass over the pool per skeleton; baseline.* from the reference solvers".to_string(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_pool_and_node_counts() {
        let a = pool(5);
        let b = pool(5);
        assert_eq!(a.len(), b.len());
        for ((pa, xa), (pb, xb)) in a.iter().zip(&b) {
            assert_eq!(xa, xb);
            assert_eq!(expected(pa), expected(pb));
            let ea = Entry {
                problem: pa.clone(),
                parallel: false,
                expected: expected(pa),
            };
            let eb = Entry {
                problem: pb.clone(),
                parallel: false,
                expected: expected(pb),
            };
            let (_, ok_a, ma, _) = facade(&ea, config(Coordination::Sequential, 1), false);
            let (_, ok_b, mb, _) = facade(&eb, config(Coordination::Sequential, 1), false);
            assert!(
                ok_a && ok_b,
                "{} reference disagrees with the skeleton",
                pa.kind()
            );
            assert_eq!(ma.nodes(), mb.nodes());
        }
        assert_ne!(expected(&pool(6)[0].0), Expected::Profit(0));
    }
}
