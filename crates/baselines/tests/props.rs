//! Property-based tests for the baseline optimizers against a synthetic
//! evaluator (fast, no DNN machinery): every technique must respect its
//! budget, stay within parameter domains, and be seed-reproducible.

use baselines::{
    BayesianOpt, ConfuciuxRl, DseTechnique, GeneticAlgorithm, GridSearch, HyperMapperLike,
    RandomSearch, SensitivityGuided, SimulatedAnnealing, WarmStartHybrid,
};
use edse_core::cost::{Constraint, Evaluation};
use edse_core::evaluate::Evaluator;
use edse_core::space::{DesignPoint, DesignSpace, ParamDef};
use proptest::prelude::*;
use std::cell::Cell;

/// A cheap synthetic problem: quadratic bowl objective with one synthetic
/// constraint, over an arbitrary discrete space. The call counter uses a
/// `Cell` because [`Evaluator::evaluate`] takes `&self`.
struct Bowl {
    space: DesignSpace,
    constraints: Vec<Constraint>,
    evals: Cell<usize>,
}

impl Bowl {
    fn new(sizes: &[usize]) -> Self {
        let params = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| ParamDef::new(format!("p{i}"), (0..n).map(|v| v as f64 + 1.0).collect()))
            .collect();
        Self {
            space: DesignSpace::new(params),
            constraints: vec![Constraint::new("sum", 1e9)],
            evals: Cell::new(0),
        }
    }
}

impl Evaluator for Bowl {
    fn evaluate(&self, point: &DesignPoint) -> Evaluation {
        self.evals.set(self.evals.get() + 1);
        let obj: f64 = point
            .indices()
            .iter()
            .enumerate()
            .map(|(i, &idx)| {
                let center = self.space.param(i).len() as f64 / 2.0;
                (idx as f64 - center).powi(2)
            })
            .sum::<f64>()
            + 1.0;
        Evaluation {
            objective: obj,
            mappable: true,
            constraint_values: vec![obj],
            layers: vec![],
            area_mm2: 0.0,
            power_w: 0.0,
            energy_mj: 0.0,
        }
    }

    fn space(&self) -> &DesignSpace {
        &self.space
    }

    fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    fn unique_evaluations(&self) -> usize {
        self.evals.get()
    }

    fn decode(&self, _point: &DesignPoint) -> accel_model::AcceleratorConfig {
        accel_model::AcceleratorConfig::edge_baseline()
    }
}

/// Sum of `{cache}shardNN{kind}` counters, e.g. all `point_cache/` misses.
fn kind_sum(counters: &std::collections::BTreeMap<String, u64>, cache: &str, kind: &str) -> u64 {
    counters
        .iter()
        .filter(|(k, _)| k.starts_with(cache) && k.ends_with(kind))
        .map(|(_, v)| *v)
        .sum()
}

fn techniques(seed: u64) -> Vec<Box<dyn DseTechnique>> {
    vec![
        Box::new(GridSearch::new()),
        Box::new(RandomSearch::new(seed)),
        Box::new(SimulatedAnnealing::new(seed)),
        Box::new(GeneticAlgorithm::new(8, seed)),
        Box::new(BayesianOpt::new(seed)),
        Box::new(HyperMapperLike::new(seed)),
        Box::new(ConfuciuxRl::new(seed)),
        Box::new(SensitivityGuided::new(seed)),
        Box::new(WarmStartHybrid::new(
            Box::new(RandomSearch::new(seed)),
            0.4,
            seed,
        )),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Budget discipline and in-domain sampling on arbitrary spaces.
    #[test]
    fn budget_and_domains_hold(
        sizes in proptest::collection::vec(1usize..9, 2..6),
        budget in 5usize..40,
        seed in 0u64..100,
    ) {
        for mut t in techniques(seed) {
            let bowl = Bowl::new(&sizes);
            let trace = t.run(&bowl, budget);
            prop_assert!(trace.evaluations() <= budget, "{}", t.name());
            prop_assert!(trace.evaluations() > 0);
            for s in &trace.samples {
                prop_assert_eq!(s.point.indices().len(), sizes.len());
                for (i, &idx) in s.point.indices().iter().enumerate() {
                    prop_assert!(idx < sizes[i], "{} out of domain", t.name());
                }
            }
        }
    }

    /// Seeded runs are exactly reproducible.
    #[test]
    fn reproducibility(seed in 0u64..50) {
        let sizes = [5usize, 7, 3];
        for (mut a, mut b) in techniques(seed).into_iter().zip(techniques(seed)) {
            let ta = a.run(&Bowl::new(&sizes), 20);
            let tb = b.run(&Bowl::new(&sizes), 20);
            let pa: Vec<_> = ta.samples.iter().map(|s| s.point.clone()).collect();
            let pb: Vec<_> = tb.samples.iter().map(|s| s.point.clone()).collect();
            prop_assert_eq!(pa, pb, "{} not reproducible", a.name());
        }
    }

    /// On the easy bowl, every feedback technique improves over its first
    /// sample given a moderate budget.
    #[test]
    fn feedback_techniques_improve_on_the_bowl(seed in 0u64..20) {
        let sizes = [9usize, 9, 9];
        for mut t in techniques(seed) {
            if t.name() == "grid" {
                continue; // non-feedback; coverage, not improvement
            }
            let trace = t.run(&Bowl::new(&sizes), 60);
            let first = trace.samples.first().unwrap().objective;
            let best = trace.best_feasible().unwrap().objective;
            prop_assert!(best <= first, "{} got worse", t.name());
        }
    }

    /// Whole-DSE determinism across the evaluation engine: the explainable
    /// DSE over a parallel codesign evaluator reproduces the serial run's
    /// incumbent trace (points, objectives, best) exactly, for any seed.
    #[test]
    fn dse_batch_matches_serial_incumbent_trace(seed in 0u64..12) {
        use edse_core::evaluate::{CodesignEvaluator, EvalEngine};
        use edse_core::space::edge_space;
        use edse_core::dse::DseConfig;
        use edse_core::bottleneck::dnn_latency_model;

        let run = |engine: EvalEngine| {
            let ev = CodesignEvaluator::new(
                edge_space(),
                vec![workloads::zoo::resnet18()],
                mapper::FixedMapper,
            )
            .with_engine(engine);
            let session = edse_core::SearchSession::new(
                dnn_latency_model(),
                DseConfig { budget: 40, seed, ..DseConfig::default() },
            )
            .evaluator(&ev);
            let initial = ev.space().minimum_point();
            let result = session.run(initial);
            (result, ev.unique_evaluations())
        };
        let (serial, serial_uniques) = run(EvalEngine::serial());
        let (parallel, parallel_uniques) = run(EvalEngine::with_threads(4));

        prop_assert_eq!(serial_uniques, parallel_uniques);
        prop_assert_eq!(serial.trace().samples.len(), parallel.trace().samples.len());
        for (a, b) in serial.trace().samples.iter().zip(&parallel.trace().samples) {
            prop_assert_eq!(&a.point, &b.point);
            prop_assert_eq!(a.objective, b.objective);
            prop_assert_eq!(&a.constraint_values, &b.constraint_values);
            prop_assert_eq!(a.feasible, b.feasible);
        }
        match (serial.best(), parallel.best()) {
            (Some((pa, ea)), Some((pb, eb))) => {
                prop_assert_eq!(pa, pb);
                prop_assert_eq!(ea, eb);
            }
            (a, b) => prop_assert_eq!(a.is_some(), b.is_some()),
        }
    }

    /// Telemetry counter accounting across the evaluation engine: the
    /// 4-thread run's counters sum exactly to the serial run's values, and
    /// the point-cache miss counter IS the unique-evaluation count.
    ///
    /// The parallel engine reshuffles *classifications*, never totals:
    /// an access that is a `hit` serially may be an `inflight_wait` in a
    /// race — but misses stay misses and every access is still counted
    /// exactly once. Both engines take the one batch path, so both
    /// pre-warm the same layer slots.
    #[test]
    fn telemetry_counters_parallel_sum_to_serial(seed in 0u64..6) {
        use edse_core::evaluate::{CodesignEvaluator, EvalEngine};
        use edse_core::space::edge_space;
        use edse_core::dse::DseConfig;
        use edse_core::bottleneck::dnn_latency_model;
        use edse_telemetry::{Collector, Event, MemorySink};

        let run = |engine: EvalEngine| {
            let sink = MemorySink::new();
            let collector = Collector::builder().sink(sink.clone()).build();
            let ev = CodesignEvaluator::new(
                edge_space(),
                vec![workloads::zoo::resnet18()],
                mapper::FixedMapper,
            )
            .with_engine(engine)
            .with_telemetry(collector.clone());
            let session = edse_core::SearchSession::new(
                dnn_latency_model(),
                DseConfig { budget: 40, seed, ..DseConfig::default() },
            )
            .evaluator(&ev)
            .telemetry(collector.clone());
            let _ = session.run(ev.space().minimum_point());
            (ev.unique_evaluations(), collector.counters(), sink.events())
        };
        let (serial_uniques, serial, serial_events) = run(EvalEngine::serial());
        let (parallel_uniques, parallel, parallel_events) = run(EvalEngine::with_threads(4));

        // unique_evaluations() equals the point-cache miss counter — both
        // count inside the same once-guard.
        prop_assert_eq!(kind_sum(&serial, "point_cache/", "/miss") as usize, serial_uniques);
        prop_assert_eq!(kind_sum(&parallel, "point_cache/", "/miss") as usize, parallel_uniques);
        prop_assert_eq!(serial_uniques, parallel_uniques);

        // Misses are engine-invariant for both caches: the same unique
        // work happens exactly once either way.
        prop_assert_eq!(
            kind_sum(&serial, "layer_cache/", "/miss"),
            kind_sum(&parallel, "layer_cache/", "/miss")
        );

        // Point-cache accesses: same total, with serial hits split into
        // parallel hits + in-flight waits.
        let total = |c: &std::collections::BTreeMap<String, u64>, cache: &str| {
            kind_sum(c, cache, "/hit") + kind_sum(c, cache, "/miss")
                + kind_sum(c, cache, "/inflight_wait")
        };
        prop_assert_eq!(total(&serial, "point_cache/"), total(&parallel, "point_cache/"));
        prop_assert_eq!(
            kind_sum(&serial, "point_cache/", "/hit"),
            kind_sum(&parallel, "point_cache/", "/hit")
                + kind_sum(&parallel, "point_cache/", "/inflight_wait")
        );

        // Layer-cache accesses: each engine looks every pre-warmed slot
        // up twice (warm miss + point-assembly hit). The Batch records say
        // how many slots each pre-warmed: the same number, and exactly the
        // misses, cross-checking counters against records.
        let prewarmed = |events: &[Event]| -> u64 {
            events
                .iter()
                .filter_map(|e| match e {
                    Event::Batch { record, .. } if record.stage == "engine/mapping" => {
                        Some(record.items)
                    }
                    _ => None,
                })
                .sum()
        };
        prop_assert_eq!(prewarmed(&serial_events), prewarmed(&parallel_events));
        prop_assert_eq!(prewarmed(&serial_events), kind_sum(&serial, "layer_cache/", "/miss"));
        prop_assert_eq!(total(&parallel, "layer_cache/"), total(&serial, "layer_cache/"));
        prop_assert_eq!(
            kind_sum(&serial, "layer_cache/", "/hit"),
            kind_sum(&parallel, "layer_cache/", "/hit")
                + kind_sum(&parallel, "layer_cache/", "/inflight_wait")
        );
    }
}
