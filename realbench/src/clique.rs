//! `clique`: Table 1 at a scale where the search dominates.
//!
//! A seeded mix of p_hat-, brock-, san- and G(n,p)-like graphs, two of
//! each family, each calibrated so the hand-written sequential solver
//! expands about [`TARGET_NODES`] nodes (≈0.1 s).  Every round runs each instance
//! through the hand-written sequential solver and YewPar Sequential, then
//! the hand-written depth-1 parallel solver and YewPar Depth-Bounded(1),
//! Stack-Stealing and Ordered(1) at `nproc` workers.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use yewpar::{Coordination, Optimise};
use yewpar_apps::maxclique::{baseline, MaxClique};
use yewpar_instances::{graph, Graph};

use crate::report::{setup_seconds, Report};
use crate::suite::{self, clean_exit, hand, Leg, Sample};
use crate::{ledger, runtime};
use crate::{mix, Options};

/// Hand-written sequential nodes each instance is calibrated to.
pub const TARGET_NODES: u64 = 100_000;

/// Budget backtracks of the traced run's Budget leg.
const BUDGET: u64 = 1_000;

/// Calibration accepts an instance within this factor of the target.
const BAND: f64 = 1.10;

/// Candidate graphs tried per slot before the closest one is taken.
const ATTEMPTS: u64 = 24;

/// A graph family with its density parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Family {
    /// `p_hat_like(n, lo, hi)`: wide degree spread.
    PHat(f64, f64),
    /// `planted_clique(n, p, k)`: a hidden clique a little above the
    /// natural clique number (brock-like) or far above it (san-like).
    Planted(f64, usize),
    /// `gnp(n, p)`.
    Gnp(f64),
}

/// The instance slots: name, family and order.  The orders put the
/// median hand-written sequential node count near [`TARGET_NODES`]; the
/// order stays fixed so the cost of a node does not vary between seeds.
const SLOTS: [(&str, Family, usize); 10] = [
    ("p_hat-sparse-a", Family::PHat(0.3, 0.85), 249),
    ("p_hat-dense-a", Family::PHat(0.6, 0.9), 158),
    ("brock-a", Family::Planted(0.65, 20), 235),
    ("san-a", Family::Planted(0.8, 30), 168),
    ("gnp-a", Family::Gnp(0.75), 149),
    ("p_hat-sparse-b", Family::PHat(0.3, 0.85), 249),
    ("p_hat-dense-b", Family::PHat(0.6, 0.9), 158),
    ("brock-b", Family::Planted(0.65, 20), 235),
    ("san-b", Family::Planted(0.8, 30), 168),
    ("gnp-b", Family::Gnp(0.75), 149),
];

/// A calibrated instance: enough to rebuild its graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    family: Family,
    n: usize,
    seed: u64,
}

impl Spec {
    fn graph(&self) -> Graph {
        match self.family {
            Family::PHat(lo, hi) => graph::p_hat_like(self.n, lo, hi, self.seed),
            Family::Planted(p, k) => graph::planted_clique(self.n, p, k.min(self.n), self.seed),
            Family::Gnp(p) => graph::gnp(self.n, p, self.seed),
        }
    }
}

/// One calibrated slot: the spec, its clique number and the hand-written
/// sequential node count.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibrated {
    /// Slot name.
    pub name: &'static str,
    /// How to rebuild the graph.
    pub spec: Spec,
    /// Clique number found by the hand-written solver.
    pub omega: u32,
    /// Hand-written sequential nodes.
    pub nodes: u64,
}

/// Choose one graph per slot whose hand-written sequential node count lies
/// within [`BAND`] of `target`, trying seeds derived from `seed` in turn
/// and keeping the closest if none does.  Slots are calibrated on
/// `workers` threads; the result is deterministic in `seed` and `target`.
/// Targets below [`TARGET_NODES`] shrink the orders (tests).
pub fn calibrate(seed: u64, target: u64, workers: usize) -> Vec<Calibrated> {
    let scale = (target as f64 / TARGET_NODES as f64).powf(1.0 / 8.0);
    let slot = |slot: usize| {
        let (name, family, n) = SLOTS[slot];
        let n = ((n as f64 * scale).round() as usize).max(20);
        let mut best: Option<(f64, Calibrated)> = None;
        for attempt in 0..ATTEMPTS {
            let spec = Spec {
                family,
                n,
                seed: mix(seed, slot as u64, attempt),
            };
            let solved = baseline::sequential_max_clique(&spec.graph());
            let miss = (solved.nodes.max(1) as f64 / target as f64).ln().abs();
            if best.as_ref().is_none_or(|(m, _)| miss < *m) {
                let candidate = Calibrated {
                    name,
                    spec,
                    omega: solved.size,
                    nodes: solved.nodes,
                };
                best = Some((miss, candidate));
            }
            if miss <= BAND.ln() {
                break;
            }
        }
        best.expect("at least one attempt").1
    };
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Calibrated)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| loop {
                // ordering: work-distribution ticket only.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= SLOTS.len() {
                    break;
                }
                let calibrated = slot(i);
                done.lock()
                    .expect("no calibration thread panics holding the lock")
                    .push((i, calibrated));
            });
        }
    });
    let mut done = done.into_inner().expect("no calibration thread panicked");
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, c)| c).collect()
}

/// Run the workload.
pub fn run(opts: &Options) -> Report {
    let mut report = Report::default();
    let workers = opts.nproc;
    let start = std::time::Instant::now();
    let calibrated = calibrate(opts.seed, TARGET_NODES, workers);
    report.notes.push(format!(
        "calibration: {:.2} s of hand-written solves choosing the instances (not part of setup_s)",
        start.elapsed().as_secs_f64()
    ));
    for c in &calibrated {
        report.notes.push(format!(
            "instance {}: {:?} n={} omega={} hand_seq_nodes={}",
            c.name, c.spec.family, c.spec.n, c.omega, c.nodes
        ));
    }
    let build = || {
        calibrated
            .iter()
            .map(|c| MaxClique::new(c.spec.graph()))
            .collect::<Vec<_>>()
    };
    let setup_s = setup_seconds(build, drop);
    let problems = build();

    let coordination = |leg: Leg| match leg {
        Leg::Sequential => Coordination::Sequential,
        Leg::DepthBounded => Coordination::depth_bounded(1),
        Leg::StackStealing => Coordination::stack_stealing(),
        Leg::Budget => Coordination::budget(BUDGET),
        Leg::Ordered => Coordination::ordered(1),
        other => unreachable!("clique runs no {other:?} leg"),
    };
    let width = |leg: Leg| if leg == Leg::Sequential { 1 } else { workers };
    // The traced run adds a Budget leg so every skeleton's layer is seen.
    let mut legs = vec![
        Leg::HandSeq,
        Leg::Sequential,
        Leg::HandPar,
        Leg::DepthBounded,
        Leg::StackStealing,
        Leg::Ordered,
    ];
    if opts.trace {
        legs.push(Leg::Budget);
    }
    let samples = suite::rounds(opts.seconds, opts.trace, |round, traced| {
        let mut samples: Vec<Sample> = Vec::new();
        for (i, (problem, c)) in problems.iter().zip(&calibrated).enumerate() {
            let graph = problem.graph();
            for &leg in &legs {
                let sample = match leg {
                    Leg::HandSeq | Leg::HandPar => {
                        let (out, sample) = hand(round, traced, i, leg, || {
                            if leg == Leg::HandSeq {
                                baseline::sequential_max_clique(graph)
                            } else {
                                baseline::parallel_max_clique_depth1(graph, workers)
                            }
                        });
                        report.check(out.size == c.omega && graph.is_clique(&out.clique), || {
                            format!(
                                "{} {}: omega {} (expected {})",
                                c.name,
                                leg.name(),
                                out.size,
                                c.omega
                            )
                        });
                        sample
                    }
                    _ => {
                        let ran = suite::maximise(problem, coordination(leg), width(leg), traced);
                        let metrics = ran.out.metrics.clone();
                        let (out, sample) = ran.sample(round, i, leg, metrics);
                        let ok = clean_exit(out.status, &out.metrics)
                            && out.try_score() == Some(&c.omega)
                            && out.try_node().is_some_and(|n| {
                                problem.verify(n) && problem.objective(n) == c.omega
                            });
                        report.check(ok, || {
                            format!(
                                "{} {}: status {:?} outstanding {} score {:?} (expected {})",
                                c.name,
                                leg.name(),
                                out.status,
                                out.metrics.outstanding_tasks,
                                out.try_score(),
                                c.omega
                            )
                        });
                        sample
                    }
                };
                samples.push(sample);
            }
        }
        samples
    });

    if opts.trace {
        let costs: Vec<ledger::OpCosts> = problems
            .iter()
            .map(|p| {
                use yewpar::SearchProblem;
                let children: Vec<_> = p.generator(&p.root()).take(8).collect();
                ledger::measure(&children)
            })
            .collect();
        report.put("instances.gen_s", "s", setup_s);
        suite::per_layer(&mut report, &samples, &costs, crate::timed::empty_span_s());
        let mut probe = runtime::Probe::start(workers);
        for (problem, c) in problems.iter().zip(&calibrated) {
            for leg in [Leg::Sequential, Leg::DepthBounded] {
                let config = runtime::config(coordination(leg), width(leg));
                let out = probe.run(|rt| rt.maximise(problem.clone(), &config), |o| &o.metrics);
                report.check(
                    clean_exit(out.status, &out.metrics) && out.try_score() == Some(&c.omega),
                    || {
                        format!(
                            "{} {} through the runtime: wrong answer or unclean exit",
                            c.name,
                            leg.name()
                        )
                    },
                );
            }
        }
        probe.finish(&mut report);
    } else {
        suite::end_to_end(&mut report, &samples, problems.len(), setup_s);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use yewpar::Skeleton;

    #[test]
    fn same_seed_same_instances_and_node_counts() {
        let a = calibrate(7, 2_000, 2);
        let b = calibrate(7, 2_000, 2);
        assert_eq!(a, b);
        for c in &a {
            let problem = MaxClique::new(c.spec.graph());
            let x = Skeleton::new(Coordination::Sequential).maximise(&problem);
            let y =
                Skeleton::new(Coordination::Sequential).maximise(&MaxClique::new(c.spec.graph()));
            assert_eq!(x.metrics.nodes(), y.metrics.nodes());
            assert_eq!(x.try_score(), Some(&c.omega));
        }
        assert_ne!(calibrate(8, 2_000, 1), a);
    }
}
