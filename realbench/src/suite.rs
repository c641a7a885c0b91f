//! Shared machinery of the facade-driven workloads (`clique`, `enum`):
//! timed skeleton calls, the round loop, and the end-to-end and per-layer
//! metrics computed from the samples of every round.

use std::time::{Duration, Instant};

use yewpar::{Coordination, EnumOutcome, Enumerate, Metrics, OptimOutcome, Optimise, Skeleton};

use crate::flight::{self, Flight};
use crate::ledger::{self, OpCosts};
use crate::report::{peak_rss_mb, Report};
use crate::stats::{geomean, lower_quartile, percentile, ratio};
use crate::timed::{GenTotals, Timed};

/// Per-worker flight-recorder ring size for traced searches: large enough
/// that the workloads' searches drop nothing.
const TRACE_CAPACITY: usize = 1 << 18;

/// Rounds every run makes, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// One solver configuration of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    /// The hand-written sequential solver.
    HandSeq,
    /// The hand-written parallel solver at `nproc` workers.
    HandPar,
    /// YewPar Sequential.
    Sequential,
    /// YewPar Depth-Bounded at `nproc` workers.
    DepthBounded,
    /// YewPar Stack-Stealing at `nproc` workers.
    StackStealing,
    /// YewPar Budget at `nproc` workers.
    Budget,
    /// YewPar Ordered at `nproc` workers.
    Ordered,
}

impl Leg {
    /// Every YewPar leg, in metric order.
    pub const SKELETONS: [Leg; 5] = [
        Leg::Sequential,
        Leg::DepthBounded,
        Leg::StackStealing,
        Leg::Budget,
        Leg::Ordered,
    ];

    /// Whether the leg runs a YewPar skeleton.
    pub fn is_skeleton(self) -> bool {
        !matches!(self, Leg::HandSeq | Leg::HandPar)
    }

    /// Whether the leg runs a parallel YewPar coordination.
    pub fn is_parallel_skeleton(self) -> bool {
        self.is_skeleton() && self != Leg::Sequential
    }

    /// The leg's name in per-layer metric names.
    pub fn name(self) -> &'static str {
        match self {
            Leg::HandSeq => "hand_seq",
            Leg::HandPar => "hand_par",
            Leg::Sequential => "sequential",
            Leg::DepthBounded => "depth_bounded",
            Leg::StackStealing => "stack_stealing",
            Leg::Budget => "budget",
            Leg::Ordered => "ordered",
        }
    }
}

/// One timed solve.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Round the solve belongs to.
    pub round: usize,
    /// Index of the instance in the workload.
    pub instance: usize,
    /// Solver configuration.
    pub leg: Leg,
    /// Whether the solve belongs to a traced round (YewPar legs of traced
    /// rounds run with the flight recorder and the generator adapter).
    pub traced: bool,
    /// Wall time of the call, in seconds.
    pub secs: f64,
    /// The skeleton's counters (YewPar legs only).
    pub metrics: Option<Metrics>,
    /// Generator time (traced YewPar legs only).
    pub gen: GenTotals,
    /// The drained trace (traced YewPar legs only).
    pub flight: Option<Flight>,
}

/// The result of one facade call.
pub struct Ran<T> {
    /// What the skeleton returned.
    pub out: T,
    /// Wall time of the call, in seconds.
    pub secs: f64,
    /// Generator time (traced only).
    pub gen: GenTotals,
    /// The drained trace (traced only).
    pub flight: Option<Flight>,
}

impl<T> Ran<T> {
    /// Turn into a sample.
    pub fn sample(self, round: usize, instance: usize, leg: Leg, metrics: Metrics) -> (T, Sample) {
        let sample = Sample {
            round,
            instance,
            leg,
            traced: self.flight.is_some(),
            secs: self.secs,
            metrics: Some(metrics),
            gen: self.gen,
            flight: self.flight,
        };
        (self.out, sample)
    }
}

fn call<T>(
    coordination: Coordination,
    workers: usize,
    traced: bool,
    run: impl FnOnce(&Skeleton) -> T,
    metrics: impl Fn(&T) -> &Metrics,
) -> (T, f64, Option<Flight>) {
    let skeleton = Skeleton::new(coordination).workers(workers);
    let skeleton = if traced {
        skeleton.trace_capacity(TRACE_CAPACITY)
    } else {
        skeleton
    };
    let start = Instant::now();
    let out = run(&skeleton);
    let secs = start.elapsed().as_secs_f64();
    let flight = traced.then(|| {
        let m = metrics(&out);
        flight::read(
            &skeleton.take_trace(),
            m.workers,
            m.elapsed,
            skeleton.trace_dropped(),
        )
    });
    (out, secs, flight)
}

/// Enumerate `problem`; traced calls wrap it in the generator adapter and
/// switch the flight recorder on.
pub fn enumerate<P: Enumerate + Clone>(
    problem: &P,
    coordination: Coordination,
    workers: usize,
    traced: bool,
) -> Ran<EnumOutcome<P::Value>> {
    if traced {
        let timed = Timed::new(problem.clone());
        let (out, secs, flight) = call(
            coordination,
            workers,
            true,
            |s| s.enumerate(&timed),
            |o| &o.metrics,
        );
        let gen = timed.counters().totals();
        Ran {
            out,
            secs,
            gen,
            flight,
        }
    } else {
        let (out, secs, flight) = call(
            coordination,
            workers,
            false,
            |s| s.enumerate(problem),
            |o| &o.metrics,
        );
        Ran {
            out,
            secs,
            gen: GenTotals::default(),
            flight,
        }
    }
}

/// Maximise `problem`; traced calls wrap it like [`enumerate`].
pub fn maximise<P: Optimise + Clone>(
    problem: &P,
    coordination: Coordination,
    workers: usize,
    traced: bool,
) -> Ran<OptimOutcome<P::Node, P::Score>> {
    if traced {
        let timed = Timed::new(problem.clone());
        let (out, secs, flight) = call(
            coordination,
            workers,
            true,
            |s| s.maximise(&timed),
            |o| &o.metrics,
        );
        let gen = timed.counters().totals();
        Ran {
            out,
            secs,
            gen,
            flight,
        }
    } else {
        let (out, secs, flight) = call(
            coordination,
            workers,
            false,
            |s| s.maximise(problem),
            |o| &o.metrics,
        );
        Ran {
            out,
            secs,
            gen: GenTotals::default(),
            flight,
        }
    }
}

/// A hand-written solve as a sample of a traced or untraced round (the
/// hand-written solvers themselves are never traced).
pub fn hand<T>(
    round: usize,
    traced: bool,
    instance: usize,
    leg: Leg,
    solve: impl FnOnce() -> T,
) -> (T, Sample) {
    let start = Instant::now();
    let out = solve();
    let secs = start.elapsed().as_secs_f64();
    let sample = Sample {
        round,
        instance,
        leg,
        traced,
        secs,
        metrics: None,
        gen: GenTotals::default(),
        flight: None,
    };
    (out, sample)
}

/// Status and accounting gate shared by every skeleton outcome.
pub fn clean_exit(status: yewpar::SearchStatus, metrics: &Metrics) -> bool {
    status.is_complete() && metrics.outstanding_tasks == 0
}

/// Run rounds until `seconds` have passed (and at least [`MIN_ROUNDS`]
/// of them untraced).  With `trace` on, odd rounds run traced, so the traced
/// run also measures the same rounds untraced for `trace.slowdown`.
pub fn rounds(
    seconds: f64,
    trace: bool,
    mut round: impl FnMut(usize, bool) -> Vec<Sample>,
) -> Vec<Sample> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    // A traced run needs one untraced and one traced round.
    let min_rounds = if trace { 2 } else { MIN_ROUNDS };
    let mut samples = Vec::new();
    let mut r = 0;
    while r < min_rounds || Instant::now() < deadline {
        samples.extend(round(r, trace && r % 2 == 1));
        r += 1;
    }
    samples
}

fn untraced(samples: &[Sample]) -> impl Iterator<Item = &Sample> {
    samples.iter().filter(|s| !s.traced)
}

fn traced(samples: &[Sample]) -> impl Iterator<Item = &Sample> {
    samples.iter().filter(|s| s.traced)
}

fn rounds_of<'a>(samples: impl Iterator<Item = &'a Sample>) -> Vec<usize> {
    let mut rounds: Vec<usize> = samples.map(|s| s.round).collect();
    rounds.sort_unstable();
    rounds.dedup();
    rounds
}

/// The steady time of `leg` on `instance` in traced or untraced rounds:
/// the lower quartile of its repetitions (0 if the leg never ran).  The
/// host's speed drifts by tens of percent on a scale of seconds, always
/// towards slower (other tenants share the machine), so a low quantile of
/// the repetitions tracks the undisturbed speed far more steadily than the
/// median does.
fn leg_time(samples: &[Sample], traced: bool, instance: usize, leg: Leg) -> f64 {
    let times: Vec<f64> = samples
        .iter()
        .filter(|s| s.traced == traced && s.instance == instance && s.leg == leg)
        .map(|s| s.secs)
        .collect();
    lower_quartile(&times)
}

/// Steady times of every (instance, leg) pair `keep` selects.
fn leg_times(samples: &[Sample], traced: bool, keep: impl Fn(Leg) -> bool) -> Vec<f64> {
    let mut pairs: Vec<(usize, u8, Leg)> = samples
        .iter()
        .filter(|s| keep(s.leg))
        .map(|s| (s.instance, s.leg as u8, s.leg))
        .collect();
    pairs.sort_by_key(|&(i, l, _)| (i, l));
    pairs.dedup_by_key(|&mut (i, l, _)| (i, l));
    pairs
        .into_iter()
        .map(|(i, _, leg)| leg_time(samples, traced, i, leg))
        .collect()
}

/// Sum of the steady times `keep` selects: one pass over the workload.
fn pass_s(samples: &[Sample], traced: bool, keep: impl Fn(Leg) -> bool) -> f64 {
    leg_times(samples, traced, keep)
        .iter()
        .fold(0.0, |a, b| a + b)
}

/// End-to-end metrics of a facade-driven workload.
pub fn end_to_end(report: &mut Report, samples: &[Sample], instances: usize, setup_s: f64) {
    let mut legs: Vec<Leg> = samples.iter().map(|s| s.leg).collect();
    legs.sort_by_key(|l| *l as u8);
    legs.dedup();
    let time = |i, leg| leg_time(samples, false, i, leg);
    let mut seq_ratio = Vec::new();
    let mut par_ratio = Vec::new();
    let mut speedups = Vec::new();
    for i in 0..instances {
        let seq = time(i, Leg::Sequential);
        seq_ratio.push(seq / time(i, Leg::HandSeq));
        par_ratio.push(time(i, Leg::DepthBounded) / time(i, Leg::HandPar));
        for &leg in legs.iter().filter(|l| l.is_parallel_skeleton()) {
            speedups.push(seq / time(i, leg));
        }
    }
    let searches = leg_times(samples, false, Leg::is_skeleton);
    let latencies_ms: Vec<f64> = searches.iter().map(|s| s * 1e3).collect();
    let solve_s = searches.iter().sum::<f64>();
    report.put("setup_s", "s", setup_s);
    report.put("solve_s", "s", solve_s);
    report.put("seq_overhead", "ratio", geomean(&seq_ratio));
    report.put("par_overhead", "ratio", geomean(&par_ratio));
    report.put("speedup", "ratio", geomean(&speedups));
    report.put("searches_per_s", "1/s", searches.len() as f64 / solve_s);
    report.put("latency_p50_ms", "ms", percentile(&latencies_ms, 50.0));
    report.put("latency_p99_ms", "ms", percentile(&latencies_ms, 99.0));
    report.put("peak_rss_mb", "MB", peak_rss_mb());
    report.notes.push(format!(
        "latency samples: {} YewPar searches, each the lower quartile of {} untraced rounds",
        searches.len(),
        rounds_of(untraced(samples)).len()
    ));
}

/// Sum of a counter over the selected samples' metrics.
fn total(samples: &[&Sample], counter: impl Fn(&Metrics) -> u64) -> f64 {
    samples
        .iter()
        .filter_map(|s| s.metrics.as_ref())
        .map(&counter)
        .sum::<u64>() as f64
}

/// Per-layer metrics of a facade-driven workload's traced run.
/// `costs[i]` are the ledger's pool costs on instance `i`'s task type;
/// `span_s` is what an empty timed region reads.
pub fn per_layer(report: &mut Report, samples: &[Sample], costs: &[OpCosts], span_s: f64) {
    let plain_rounds = rounds_of(untraced(samples)).len().max(1) as f64;
    let traced_rounds = rounds_of(traced(samples)).len().max(1) as f64;
    let plain: Vec<&Sample> = untraced(samples).filter(|s| s.leg.is_skeleton()).collect();
    let plain_par: Vec<&Sample> = plain
        .iter()
        .copied()
        .filter(|s| s.leg.is_parallel_skeleton())
        .collect();
    let plain_seq: Vec<&Sample> = plain
        .iter()
        .copied()
        .filter(|s| s.leg == Leg::Sequential)
        .collect();
    let plain_ord: Vec<&Sample> = plain
        .iter()
        .copied()
        .filter(|s| s.leg == Leg::Ordered)
        .collect();
    let lossy: Vec<&Sample> = traced(samples)
        .filter(|s| s.flight.as_ref().is_some_and(|f| f.dropped > 0))
        .collect();
    for s in &lossy {
        report.notes.push(format!(
            "trace: {} records dropped in round {} instance {} leg {}; excluded from busy/idle/steal figures",
            s.flight.as_ref().map_or(0, |f| f.dropped),
            s.round,
            s.instance,
            s.leg.name()
        ));
    }
    let traced_yew: Vec<&Sample> = traced(samples).filter(|s| s.leg.is_skeleton()).collect();
    let clean: Vec<&Flight> = traced_yew
        .iter()
        .filter_map(|s| s.flight.as_ref())
        .filter(|f| f.dropped == 0)
        .collect();
    let clean_par: Vec<&Flight> = traced_yew
        .iter()
        .filter(|s| s.leg.is_parallel_skeleton())
        .filter_map(|s| s.flight.as_ref())
        .filter(|f| f.dropped == 0)
        .collect();

    // apps: generator time through the adapter, as a share of the traced
    // rounds' worker time (both from the same rounds, so host noise
    // cancels), applied to untraced time where a time is reported.
    let mut gen = GenTotals::default();
    let mut seq_gen = GenTotals::default();
    let mut traced_worker_s = 0.0;
    let mut traced_seq_s = 0.0;
    for s in &traced_yew {
        gen.add(s.gen);
        if s.leg == Leg::Sequential {
            seq_gen.add(s.gen);
            traced_seq_s += s.secs;
        }
        if let Some(m) = &s.metrics {
            traced_worker_s += m.elapsed.as_secs_f64() * m.workers as f64;
        }
    }
    let gen_share = ratio(gen.estimated_s(span_s), traced_worker_s);
    let seq_gen_share = ratio(seq_gen.estimated_s(span_s), traced_seq_s).min(1.0);
    let mut worker_s = 0.0;
    let mut pool_s = 0.0;
    for s in &plain {
        if let Some(m) = &s.metrics {
            worker_s += m.elapsed.as_secs_f64() * m.workers as f64;
            pool_s += ledger::pool_seconds(&m.totals, &costs[s.instance], s.leg == Leg::Ordered);
        }
    }
    let pool_s = pool_s / plain_rounds;
    let pool_share = ratio(pool_s, worker_s / plain_rounds);
    report.put("apps.gen_calls", "count", gen.calls as f64 / traced_rounds);
    report.put("apps.gen_s", "s", gen.estimated_s(span_s) / traced_rounds);
    report.put("apps.gen_share", "ratio", gen_share);
    report.put(
        "baseline.seq_s",
        "s",
        pass_s(samples, false, |leg| leg == Leg::HandSeq),
    );
    report.put(
        "baseline.par_s",
        "s",
        pass_s(samples, false, |leg| leg == Leg::HandPar),
    );
    for leg in Leg::SKELETONS {
        report.put(
            &format!("skeleton.{}.s", leg.name()),
            "s",
            pass_s(samples, false, |l| l == leg),
        );
    }

    // engine
    let seq_nodes = total(&plain_seq, |m| m.totals.nodes) / plain_rounds;
    let seq_s = pass_s(samples, false, |leg| leg == Leg::Sequential);
    let par_nodes = total(&plain_par, |m| m.totals.nodes + m.totals.speculative_nodes);
    report.put("engine.nodes", "count", seq_nodes);
    report.put(
        "engine.ns_per_node",
        "ns",
        ratio(seq_s * (1.0 - seq_gen_share) * 1e9, seq_nodes),
    );
    // Mean nodes of a parallel search over mean nodes of a Sequential one;
    // every instance runs every leg, so the means weigh instances alike.
    report.put(
        "engine.node_inflation",
        "ratio",
        ratio(
            par_nodes / plain_par.len().max(1) as f64,
            total(&plain_seq, |m| m.totals.nodes) / plain_seq.len().max(1) as f64,
        ),
    );
    let imbalances: Vec<f64> = plain_par
        .iter()
        .filter_map(|s| s.metrics.as_ref())
        .map(Metrics::imbalance)
        .collect();
    report.put(
        "engine.imbalance",
        "ratio",
        crate::stats::median(&imbalances),
    );
    let busy: f64 = clean_par.iter().map(|f| f.busy_s).sum();
    let capacity: f64 = clean_par.iter().map(|f| f.capacity_s).sum();
    report.put("engine.busy_share", "ratio", ratio(busy, capacity));
    report.put(
        "engine.idle_s",
        "s",
        clean_par.iter().map(|f| f.idle_s()).sum::<f64>() / traced_rounds,
    );

    // workpool
    let spawns = total(&plain_par, |m| m.totals.spawns);
    let locks = total(&plain_par, |m| m.totals.lock_acquisitions);
    let batches = total(&plain_par, |m| m.totals.batch_pushes);
    report.put("workpool.spawns", "count", spawns / plain_rounds);
    report.put("workpool.lock_acquisitions", "count", locks / plain_rounds);
    report.put(
        "workpool.locks_per_knode",
        "count",
        ratio(locks, par_nodes / 1e3),
    );
    report.put("workpool.spawns_per_batch", "ratio", ratio(spawns, batches));
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
    report.put("workpool.est_s", "s", pool_s);

    // steal
    let hits = total(&plain_par, |m| m.totals.steals);
    let misses = total(&plain_par, |m| m.totals.failed_steals);
    let latencies: Vec<f64> = clean
        .iter()
        .flat_map(|f| f.steal_latencies_s.iter().copied())
        .collect();
    report.put("steal.hits", "count", hits / plain_rounds);
    report.put("steal.misses", "count", misses / plain_rounds);
    report.put("steal.hit_ratio", "ratio", ratio(hits, hits + misses));
    report.put("steal.latency_us", "us", percentile(&latencies, 50.0) * 1e6);

    // ordered
    let ord_nodes = total(&plain_ord, |m| m.totals.nodes);
    let ord_spec = total(&plain_ord, |m| m.totals.speculative_nodes);
    report.put(
        "ordered.spawns",
        "count",
        total(&plain_ord, |m| m.totals.ordered_spawns) / plain_rounds,
    );
    report.put(
        "ordered.priority_inversions",
        "count",
        total(&plain_ord, |m| m.totals.priority_inversions) / plain_rounds,
    );
    report.put(
        "ordered.speculative_share",
        "ratio",
        ratio(ord_spec, ord_nodes + ord_spec),
    );
    report.put(
        "ordered.cancelled_tasks",
        "count",
        total(&plain_ord, |m| m.totals.cancelled_tasks) / plain_rounds,
    );
    report.put("ordered.op_ns.push", "ns", mean_cost(|c| c.ordered_push_ns));
    report.put("ordered.op_ns.pop", "ns", mean_cost(|c| c.ordered_pop_ns));

    // knowledge, lifecycle, termination
    let nodes = total(&plain, |m| m.totals.nodes);
    report.put(
        "knowledge.incumbent_updates",
        "count",
        total(&plain, |m| m.totals.incumbent_updates) / plain_rounds,
    );
    report.put(
        "knowledge.prune_ratio",
        "ratio",
        ratio(total(&plain, |m| m.totals.prunes), nodes),
    );
    report.put(
        "lifecycle.polls_per_knode",
        "count",
        ratio(total(&plain, |m| m.totals.poll_checks), nodes / 1e3),
    );
    let all: Vec<&Sample> = samples.iter().collect();
    report.put(
        "termination.outstanding",
        "count",
        total(&all, |m| m.outstanding_tasks),
    );

    // trace
    report.put(
        "trace.slowdown",
        "ratio",
        ratio(
            pass_s(samples, true, Leg::is_skeleton),
            pass_s(samples, false, Leg::is_skeleton),
        ),
    );
    let flights: Vec<&Flight> = traced_yew
        .iter()
        .filter_map(|s| s.flight.as_ref())
        .collect();
    report.put(
        "trace.records",
        "count",
        flights.iter().map(|f| f.records).sum::<u64>() as f64 / traced_rounds,
    );
    report.put(
        "trace.dropped",
        "count",
        flights.iter().map(|f| f.dropped).sum::<u64>() as f64,
    );
    report.put(
        "ledger.unexplained_share",
        "ratio",
        1.0 - gen_share - pool_share,
    );
}
