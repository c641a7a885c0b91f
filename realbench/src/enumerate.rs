//! `enum`: fine-grained enumeration with no incumbent.
//!
//! Numerical Semigroups to genus [`GENUS`] (≈2 M nodes) and an Irregular
//! tree of depth [`IRREGULAR_DEPTH`] (≈7.8 M nodes).  Every round runs each
//! instance through a hand-written recursive fold and YewPar Sequential,
//! then a hand-written depth-[`DCUTOFF`] split fold and YewPar
//! Depth-Bounded([`DCUTOFF`]), Budget([`BUDGET`]) and chunked
//! Stack-Stealing at `nproc` workers.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use yewpar::{Coordination, Enumerate, Monoid, SearchProblem};
use yewpar_apps::irregular::Irregular;
use yewpar_apps::semigroups::Semigroups;

use crate::ledger::{self, OpCosts};
use crate::report::{setup_seconds, Report};
use crate::runtime;
use crate::suite::{self, clean_exit, hand, Leg, Sample};
use crate::{mix, Options};

/// Numerical Semigroups target genus.
pub const GENUS: u32 = 26;
/// Irregular tree depth.
pub const IRREGULAR_DEPTH: usize = 18;
/// Depth-Bounded cutoff, also the hand-written split depth.
pub const DCUTOFF: usize = 8;
/// Budget backtracks between spawns.
pub const BUDGET: u64 = 10_000;

/// The Irregular root state for `seed`.  A node's fan-out depends only on
/// the two low bits of its state, so they are fixed (`01`) and every seed
/// gives a tree of the same shape and size; the other bits come from the
/// seed.
pub fn irregular_seed(seed: u64) -> u64 {
    (mix(seed, 1, 0) & !3) | 1
}

/// The workload's two instances.
pub fn instances(seed: u64) -> (Semigroups, Irregular) {
    (
        Semigroups::new(GENUS),
        Irregular::new(IRREGULAR_DEPTH, irregular_seed(seed)),
    )
}

fn fold_into<P: Enumerate>(problem: &P, node: &P::Node, acc: &mut P::Value) {
    let current = std::mem::replace(acc, P::Value::empty());
    *acc = current.combine(problem.value(node));
    for child in problem.generator(node) {
        fold_into(problem, &child, acc);
    }
}

/// Hand-written sequential enumeration: plain recursion over the lazy
/// generator, folding into one accumulator.
pub fn fold<P: Enumerate>(problem: &P) -> P::Value {
    let mut acc = P::Value::empty();
    fold_into(problem, &problem.root(), &mut acc);
    acc
}

/// Hand-written parallel enumeration: fold the nodes above `depth` on the
/// calling thread, then hand the subtrees rooted at `depth` to `workers`
/// scoped threads through a shared ticket, in generation order.
pub fn split_fold<P: Enumerate>(problem: &P, workers: usize, depth: usize) -> P::Value {
    let mut above = P::Value::empty();
    let mut frontier = Vec::new();
    let mut stack = vec![(problem.root(), 0usize)];
    while let Some((node, d)) = stack.pop() {
        if d == depth {
            frontier.push(node);
            continue;
        }
        above = above.combine(problem.value(&node));
        let children: Vec<P::Node> = problem.generator(&node).collect();
        stack.extend(children.into_iter().rev().map(|c| (c, d + 1)));
    }
    let next = AtomicUsize::new(0);
    let partials = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| {
                let mut acc = P::Value::empty();
                loop {
                    // ordering: work-distribution ticket; the frontier is
                    // read-only shared data.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(node) = frontier.get(i) else { break };
                    fold_into(problem, node, &mut acc);
                }
                partials
                    .lock()
                    .expect("no worker panics holding the lock")
                    .push(acc);
            });
        }
    });
    partials
        .into_inner()
        .expect("no worker panicked holding the lock")
        .into_iter()
        .fold(above, Monoid::combine)
}

fn coordination(leg: Leg) -> Coordination {
    match leg {
        Leg::Sequential => Coordination::Sequential,
        Leg::DepthBounded => Coordination::depth_bounded(DCUTOFF),
        Leg::Budget => Coordination::budget(BUDGET),
        Leg::StackStealing => Coordination::stack_stealing_chunked(),
        Leg::Ordered => Coordination::ordered(DCUTOFF),
        other => unreachable!("enum runs no {other:?} leg"),
    }
}

/// One round of one instance: every leg, each checked against `expected`
/// (the Sequential skeleton's value from the calibration solve).
#[allow(clippy::too_many_arguments)]
fn round_of<P>(
    problem: &P,
    instance: usize,
    round: usize,
    traced: bool,
    legs: &[Leg],
    workers: usize,
    expected: &P::Value,
    report: &mut Report,
) -> Vec<Sample>
where
    P: Enumerate + Clone,
    P::Value: PartialEq + std::fmt::Debug,
{
    let mut samples = Vec::new();
    for &leg in legs {
        let (ok, sample) = match leg {
            Leg::HandSeq | Leg::HandPar => {
                let (value, sample) = hand(round, traced, instance, leg, || {
                    if leg == Leg::HandSeq {
                        fold(problem)
                    } else {
                        split_fold(problem, workers, DCUTOFF)
                    }
                });
                (value == *expected, sample)
            }
            _ => {
                let width = if leg == Leg::Sequential { 1 } else { workers };
                let ran = suite::enumerate(problem, coordination(leg), width, traced);
                let metrics = ran.out.metrics.clone();
                let (out, sample) = ran.sample(round, instance, leg, metrics);
                (
                    clean_exit(out.status, &out.metrics) && out.value == *expected,
                    sample,
                )
            }
        };
        report.check(ok, || {
            format!(
                "{} {}: wrong sum or unclean exit",
                problem.name(),
                leg.name()
            )
        });
        samples.push(sample);
    }
    samples
}

/// Run the workload.
pub fn run(opts: &Options) -> Report {
    let mut report = Report::default();
    let workers = opts.nproc;
    let setup_s = setup_seconds(|| instances(opts.seed), drop);
    let (semigroups, irregular) = instances(opts.seed);
    let seq = yewpar::Skeleton::new(Coordination::Sequential);
    let ns_expected = seq.enumerate(&semigroups).value;
    let irr_expected = seq.enumerate(&irregular).value;
    report.notes.push(format!(
        "instances: semigroups genus {GENUS} ({} nodes), irregular depth {IRREGULAR_DEPTH} root {} ({} nodes)",
        ns_expected.total(),
        irregular_seed(opts.seed),
        irr_expected.0
    ));

    // The traced run adds an Ordered leg so every skeleton's layer is seen.
    let mut legs = vec![
        Leg::HandSeq,
        Leg::Sequential,
        Leg::HandPar,
        Leg::DepthBounded,
        Leg::Budget,
        Leg::StackStealing,
    ];
    if opts.trace {
        legs.push(Leg::Ordered);
    }
    let samples = suite::rounds(opts.seconds, opts.trace, |round, traced| {
        let mut samples = round_of(
            &semigroups,
            0,
            round,
            traced,
            &legs,
            workers,
            &ns_expected,
            &mut report,
        );
        samples.extend(round_of(
            &irregular,
            1,
            round,
            traced,
            &legs,
            workers,
            &irr_expected,
            &mut report,
        ));
        samples
    });

    if opts.trace {
        let costs: Vec<OpCosts> = vec![
            ledger::measure(
                &semigroups
                    .generator(&semigroups.root())
                    .chain([semigroups.root()])
                    .collect::<Vec<_>>(),
            ),
            ledger::measure(&irregular.generator(&irregular.root()).collect::<Vec<_>>()),
        ];
        report.put("instances.gen_s", "s", setup_s);
        suite::per_layer(&mut report, &samples, &costs, crate::timed::empty_span_s());
        let mut probe = runtime::Probe::start(workers);
        for leg in [Leg::Sequential, Leg::DepthBounded] {
            let width = if leg == Leg::Sequential { 1 } else { workers };
            let config = runtime::config(coordination(leg), width);
            let ns = probe.run(
                |rt| rt.enumerate(semigroups.clone(), &config),
                |o| &o.metrics,
            );
            let irr = probe.run(
                |rt| rt.enumerate(irregular.clone(), &config),
                |o| &o.metrics,
            );
            let ok = clean_exit(ns.status, &ns.metrics)
                && ns.value == ns_expected
                && clean_exit(irr.status, &irr.metrics)
                && irr.value == irr_expected;
            report.check(ok, || {
                format!(
                    "{} through the runtime: wrong sum or unclean exit",
                    leg.name()
                )
            });
        }
        probe.finish(&mut report);
    } else {
        suite::end_to_end(&mut report, &samples, 2, setup_s);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use yewpar::Skeleton;

    #[test]
    fn same_seed_same_instances_and_node_counts() {
        let (_, a) = instances(11);
        let (_, b) = instances(11);
        assert_eq!(a.root(), b.root());
        let small = |p: &Irregular| Irregular::new(10, p.root().1);
        let x = Skeleton::new(Coordination::Sequential).enumerate(&small(&a));
        let y = Skeleton::new(Coordination::Sequential).enumerate(&small(&b));
        assert_eq!(x.metrics.nodes(), y.metrics.nodes());
        assert_ne!(instances(12).1.root(), a.root());
    }

    #[test]
    fn hand_written_folds_match_the_skeleton() {
        let semigroups = Semigroups::new(14);
        let irregular = Irregular::new(10, irregular_seed(3));
        let seq = Skeleton::new(Coordination::Sequential);
        let ns = seq.enumerate(&semigroups);
        assert_eq!(fold(&semigroups), ns.value);
        assert_eq!(split_fold(&semigroups, 2, 4), ns.value);
        let irr = seq.enumerate(&irregular);
        assert_eq!(fold(&irregular), irr.value);
        assert_eq!(split_fold(&irregular, 3, 3), irr.value);
        assert_eq!(irr.value.0, irr.metrics.nodes());
    }
}
