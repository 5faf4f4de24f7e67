#![warn(missing_docs)]
//! Non-explainable DSE baselines, reimplementing the comparison set of the
//! Explainable-DSE paper's §5: grid search, random search, simulated
//! annealing (SciPy-style), a genetic algorithm (scikit-opt style),
//! Bayesian optimization, HyperMapper-2.0-style constrained Bayesian
//! optimization, and Confuciux-style constrained reinforcement learning.
//!
//! Every technique is an ask/tell state machine ([`DseTechnique`], shared
//! with the explainable search): [`DseTechnique::propose`] hands out the
//! next batch of design points and [`DseTechnique::observe`] takes that
//! batch's outcomes. Techniques never see the evaluator; one driver
//! ([`edse_core::SearchDriver`]) owns the loop for every technique, so
//! blocking, stepped and cancelled runs share one code path
//! and report the same [`edse_core::cost::Trace`] format as the
//! explainable DSE, and every figure compares like with like. The
//! registry [`by_name`] builds all eight techniques of the comparison.
//!
//! # Example
//!
//! ```
//! use baselines::{DseTechnique, RandomSearch};
//! use edse_core::evaluate::CodesignEvaluator;
//! use edse_core::space::edge_space;
//! use mapper::FixedMapper;
//! use workloads::zoo;
//!
//! let evaluator =
//!     CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper);
//! let trace = RandomSearch::new(7).run(&evaluator, 20);
//! assert_eq!(trace.evaluations(), 20);
//! ```

pub mod bo;
pub mod hybrid;
pub mod rl;
pub mod sensitivity;
pub mod simple;

pub use bo::{BayesianOpt, HyperMapperLike};
pub use edse_core::{DseTechnique, EvalResult, Problem};
pub use hybrid::{Refine, WarmStartHybrid};
pub use rl::ConfuciuxRl;
pub use sensitivity::SensitivityGuided;
pub use simple::{GeneticAlgorithm, GridSearch, RandomSearch, SimulatedAnnealing};

use edse_core::bottleneck::dnn_latency_model;
use edse_core::cost::Trace;
use edse_core::evaluate::Evaluator;
use edse_core::space::{DesignPoint, DesignSpace};
use edse_core::{DseConfig, ExplainableDse, SearchDriver};
use edse_telemetry::Collector;

/// The technique registry shared by the bench harness and `edse-serve`:
/// the technique labelled `name` — `"explainable"` (Explainable-DSE on the
/// DNN-latency bottleneck model, from the space's minimum point) or one of
/// the black-box baselines `"grid"`, `"random"`, `"annealing"`,
/// `"genetic"`, `"bayesian"`, `"hypermapper"` and `"rl"` — seeded with
/// `seed`; the genetic algorithm gets a population of 16. Every technique
/// takes its budget from the [`Problem`]. `None` for any other name.
pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn DseTechnique>> {
    Some(match name {
        "explainable" => Box::new(ExplainableDse::new(
            dnn_latency_model(),
            DseConfig {
                seed,
                ..DseConfig::default()
            },
        )),
        "grid" => Box::new(GridSearch::new()),
        "random" => Box::new(RandomSearch::new(seed)),
        "annealing" => Box::new(SimulatedAnnealing::new(seed)),
        "genetic" => Box::new(GeneticAlgorithm::new(16, seed)),
        "bayesian" => Box::new(BayesianOpt::new(seed)),
        "hypermapper" => Box::new(HyperMapperLike::new(seed)),
        "rl" => Box::new(ConfuciuxRl::new(seed)),
        _ => return None,
    })
}

/// Builder and runner for one blocking exploration by any
/// [`DseTechnique`]: telemetry, then a run to completion through
/// [`SearchDriver`]. An interrupted run resumes by running the same
/// technique (same seed, same budget) again over the interrupted run's
/// disk tier: the steps it had completed are assembled from the layer
/// outcomes on disk, and the trace is bit-identical to an uninterrupted
/// run's.
///
/// ```
/// use baselines::{BaselineSession, RandomSearch};
/// use edse_core::evaluate::CodesignEvaluator;
/// use edse_core::space::edge_space;
/// use mapper::FixedMapper;
/// use workloads::zoo;
///
/// let evaluator =
///     CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper);
/// let mut technique = RandomSearch::new(7);
/// let trace = BaselineSession::new(&mut technique).run(&evaluator, 20);
/// assert_eq!(trace.evaluations(), 20);
/// ```
pub struct BaselineSession<'t> {
    technique: Box<dyn DseTechnique + 't>,
    telemetry: Collector,
}

impl<'t> BaselineSession<'t> {
    /// Starts a session around a technique (owned or `&mut`). Telemetry
    /// defaults to the inert collector.
    pub fn new(technique: impl DseTechnique + 't) -> Self {
        BaselineSession {
            technique: Box::new(technique),
            telemetry: Collector::noop(),
        }
    }

    /// Attaches a telemetry collector: a black-box run gets
    /// `baseline/<name>` spans and per-sample iteration records.
    pub fn telemetry(mut self, telemetry: Collector) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Runs the technique for `budget` evaluations.
    pub fn run(self, evaluator: &dyn Evaluator, budget: usize) -> Trace {
        SearchDriver::new(self.technique, evaluator, budget)
            .telemetry(self.telemetry)
            .run_to_completion()
            .into_trace()
    }
}

/// Uniformly random point in a space.
pub(crate) fn random_point(space: &DesignSpace, rng: &mut rand::rngs::StdRng) -> DesignPoint {
    use rand::Rng;
    DesignPoint::new(
        space
            .params()
            .iter()
            .map(|p| rng.gen_range(0..p.len()))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use edse_core::cost::Sample;
    use edse_core::evaluate::CodesignEvaluator;
    use edse_core::space::edge_space;
    use edse_core::StepOutcome;
    use mapper::FixedMapper;
    use workloads::zoo;

    fn evaluator() -> CodesignEvaluator<FixedMapper> {
        CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper)
    }

    #[test]
    fn every_technique_respects_budget_and_reports_samples() {
        let budget = 15;
        let mut techs: Vec<Box<dyn DseTechnique>> = vec![
            Box::new(GridSearch::new()),
            Box::new(RandomSearch::new(1)),
            Box::new(SimulatedAnnealing::new(1)),
            Box::new(GeneticAlgorithm::new(6, 1)),
            Box::new(BayesianOpt::new(1)),
            Box::new(HyperMapperLike::new(1)),
            Box::new(ConfuciuxRl::new(1)),
        ];
        for t in &mut techs {
            let ev = evaluator();
            let trace = t.run(&ev, budget);
            assert!(
                trace.evaluations() <= budget,
                "{} overshot: {}",
                t.name(),
                trace.evaluations()
            );
            assert!(trace.evaluations() > 0, "{} did nothing", t.name());
            assert!(!trace.technique.is_empty());
        }
    }

    #[test]
    fn registry_builds_every_baseline_by_name() {
        for name in [
            "explainable",
            "grid",
            "random",
            "annealing",
            "genetic",
            "bayesian",
            "hypermapper",
            "rl",
        ] {
            let technique = by_name(name, 3).expect("registered");
            assert_eq!(technique.name(), name);
        }
        assert!(by_name("nope", 3).is_none());
    }

    #[test]
    fn registry_explainable_reports_like_its_session() {
        use edse_core::SearchSession;
        use edse_telemetry::{Event, IterationRecord, MemorySink, ProvenanceRecord};
        type Records = (Vec<IterationRecord>, Vec<ProvenanceRecord>);
        fn records(events: Vec<Event>) -> Records {
            let mut records = Records::default();
            for event in events {
                match event {
                    Event::Iteration { record, .. } => records.0.push(record),
                    Event::Provenance { record, .. } => records.1.push(record),
                    _ => {}
                }
            }
            records
        }
        let budget = 30;
        let session_sink = MemorySink::new();
        let ev = evaluator();
        let result = SearchSession::new(
            dnn_latency_model(),
            DseConfig {
                budget,
                seed: 2,
                ..DseConfig::default()
            },
        )
        .evaluator(&ev)
        .telemetry(Collector::builder().sink(session_sink.clone()).build())
        .run(ev.space().minimum_point());

        let registry_sink = MemorySink::new();
        let mut technique = by_name("explainable", 2).expect("registered");
        let trace = BaselineSession::new(technique.as_mut())
            .telemetry(Collector::builder().sink(registry_sink.clone()).build())
            .run(&evaluator(), budget);
        assert_eq!(trace.samples, result.trace().samples);
        let session = records(session_sink.events());
        assert!(!session.0.is_empty() && !session.1.is_empty());
        assert_eq!(records(registry_sink.events()), session);
    }

    #[test]
    fn traced_session_matches_run_and_emits_comparable_records() {
        use edse_telemetry::{Event, MemorySink};
        let budget = 12;
        let plain = RandomSearch::new(3).run(&evaluator(), budget);

        let sink = MemorySink::new();
        let collector = Collector::builder().sink(sink.clone()).build();
        let mut technique = RandomSearch::new(3);
        let traced = BaselineSession::new(&mut technique)
            .telemetry(collector.clone())
            .run(&evaluator(), budget);
        // Identical samples; wall_seconds legitimately differs between runs.
        assert_eq!(
            plain.samples, traced.samples,
            "telemetry must not change the search"
        );

        let events = sink.events();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::SpanEnter { name, .. } if name == "baseline/random")),
            "the traced session must open a technique span"
        );
        let records: Vec<_> = events
            .into_iter()
            .filter_map(|e| match e {
                Event::Iteration { record, .. } => Some(record),
                _ => None,
            })
            .collect();
        assert_eq!(records.len(), traced.evaluations());
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(rec.technique, "random");
            assert_eq!(rec.iteration as usize, i);
            // A black box offers no explanation — that contrast with the
            // explainable DSE's records is the point.
            assert!(rec.bottleneck.is_none());
            assert_eq!((rec.proposed, rec.deduped, rec.evaluated), (1, 0, 1));
            assert_eq!(rec.budget_remaining as usize, budget - (i + 1));
        }
    }

    #[test]
    fn baseline_warm_starts_from_a_shared_disk_cache() {
        use edse_core::DiskCache;
        use std::sync::Arc;
        let dir = std::env::temp_dir().join(format!(
            "edse-baseline-diskcache-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let budget = 10;
        let cold = {
            let disk = Arc::new(DiskCache::open(&dir).unwrap());
            let ev = evaluator().with_disk_cache(disk);
            let mut technique = RandomSearch::new(5);
            BaselineSession::new(&mut technique).run(&ev, budget)
        };
        // Same technique in a fresh process: identical trace, all layer
        // mappings answered from disk.
        let disk = Arc::new(DiskCache::open(&dir).unwrap());
        let ev = evaluator().with_disk_cache(disk);
        let mut technique = RandomSearch::new(5);
        let warm = BaselineSession::new(&mut technique).run(&ev, budget);
        assert_eq!(cold.samples, warm.samples, "warm must be bit-identical");
        let disk_stats = ev.cache_stats().disk.unwrap();
        assert!(disk_stats.hits > 0);
        assert_eq!(disk_stats.misses, 0);
        drop(ev);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn baseline_resumes_by_replay_bit_identically() {
        use edse_core::DiskCache;
        use std::sync::Arc;
        let dir = std::env::temp_dir().join(format!(
            "edse-baseline-resume-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let budget = 14;
        let layers = zoo::resnet18().unique_shape_count();
        let on_disk = || evaluator().with_disk_cache(Arc::new(DiskCache::open(&dir).unwrap()));

        let full_ev = evaluator();
        let mut technique = SimulatedAnnealing::new(9);
        let uninterrupted = BaselineSession::new(&mut technique).run(&full_ev, budget);

        // "Interrupted" run: annealing proposes one point per step. The run
        // is dropped after step 7, and the disk tier holds the layer
        // outcomes of the seven steps.
        let mut driver = SearchDriver::new(Box::new(SimulatedAnnealing::new(9)), on_disk(), budget);
        for _ in 1..=7 {
            assert_eq!(driver.step(), StepOutcome::Pending);
        }
        let interrupted = driver.evaluator().unique_evaluations();
        assert_eq!(
            driver.evaluator().cache_stats().disk.unwrap().appends,
            (interrupted * layers) as u64
        );
        drop(driver);

        // Resume: run a fresh technique from the start over the same disk
        // tier; the interrupted steps are assembled without mapping.
        let ev = on_disk();
        let mut technique = SimulatedAnnealing::new(9);
        let resumed = BaselineSession::new(&mut technique).run(&ev, budget);
        assert_eq!(
            uninterrupted.samples, resumed.samples,
            "resume must be bit-identical"
        );
        assert_eq!(ev.unique_evaluations(), full_ev.unique_evaluations());
        let disk = ev.cache_stats().disk.unwrap();
        let saved = (interrupted * layers) as u64;
        assert_eq!(disk.hits, saved);
        assert_eq!(
            disk.misses,
            full_ev.cache_stats().layer.misses - saved,
            "a resume must not remap the interrupted steps"
        );
        drop(ev);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Counts the `propose` calls of the technique it wraps.
    struct CountProposals<T> {
        inner: T,
        calls: usize,
    }

    impl<T: DseTechnique> DseTechnique for CountProposals<T> {
        fn name(&self) -> String {
            self.inner.name()
        }

        fn propose(&mut self, problem: &Problem) -> Option<Vec<DesignPoint>> {
            self.calls += 1;
            self.inner.propose(problem)
        }

        fn observe(&mut self, problem: &Problem, samples: &[Sample], results: Vec<EvalResult>) {
            self.inner.observe(problem, samples, results)
        }
    }

    #[test]
    fn stepping_proposes_once_per_step_and_never_replays() {
        let budget = 100;
        let mut blocking = CountProposals {
            inner: BayesianOpt::new(4),
            calls: 0,
        };
        let blocking_trace = blocking.run(&evaluator(), budget);

        let mut stepped = CountProposals {
            inner: BayesianOpt::new(4),
            calls: 0,
        };
        let ev = evaluator();
        let mut driver = SearchDriver::new(Box::new(&mut stepped), &ev, budget);
        let mut steps = 1;
        while driver.step() == StepOutcome::Pending {
            steps += 1;
        }
        let stepped_trace = driver.finish().into_trace();
        assert_eq!(stepped_trace.samples, blocking_trace.samples);
        // An initial design of 20 points, 80 single-point rounds, and the
        // call that reports the technique done.
        assert_eq!(blocking.calls, 1 + 80 + 1);
        assert_eq!(stepped.calls, blocking.calls);
        assert_eq!(steps, stepped.calls, "one proposal per step");
    }

    #[test]
    fn penalized_cost_orders_infeasible_below_feasible() {
        let ev = evaluator();
        // Minimum point: infeasible (violates the throughput floor).
        let bad = ev.space().minimum_point();
        let eval = ev.evaluate(&bad);
        let problem = Problem {
            space: ev.space(),
            constraints: ev.constraints(),
            budget: 1,
        };
        let sample = Sample {
            point: bad,
            objective: eval.objective,
            feasible: eval.feasible(ev.constraints()),
            constraint_values: eval.constraint_values,
        };
        assert!(!sample.feasible);
        assert!(problem.cost(&sample) >= 1e12);
    }
}
