//! The pinned bench scenarios behind the golden fixtures.
//!
//! Each scenario is a deterministic, seconds-scale exploration — every
//! technique of the paper's comparison on the Fig. 4 toy setting
//! ([`bench::toy`]), plus two short full-edge-space runs — reported
//! through the same [`bench::BenchReport`] machinery the figure binaries
//! use for `--json`. The serialized report (config, per-sample series,
//! derived summary metrics) is what `golden/*.json` pins: a change in the
//! cost model, a search technique, the acquisition order, or the report
//! schema shows up as a fixture diff naming the exact metric that moved.

use baselines::{BaselineSession, DseTechnique, GeneticAlgorithm};
use bench::toy::{single_layer_model, toy_space};
use bench::{BenchArgs, BenchReport, TechniqueKind};
use edse_core::cost::Trace;
use edse_core::evaluate::{CodesignEvaluator, EvalEngine, Evaluator};
use edse_core::space::edge_space;
use edse_telemetry::json::Json;
use mapper::FixedMapper;
use workloads::zoo;

/// The toy setting's throughput floor as a latency target in ms
/// (40 FPS ⇒ 25 ms), the "target" of iterations-to-target metrics.
pub const TOY_TARGET_MS: f64 = 25.0;

/// Evaluation budget of every toy scenario.
pub const TOY_BUDGET: usize = 30;

/// Seed of every pinned scenario.
pub const SCENARIO_SEED: u64 = 7;

/// 1-based index of the first feasible sample at or below `target`, if the
/// trace ever got there.
pub fn iterations_to_target(trace: &Trace, target: f64) -> Option<usize> {
    trace
        .samples
        .iter()
        .position(|s| s.feasible && s.objective <= target)
        .map(|i| i + 1)
}

/// Runs one technique on the toy setting (serial engine, fixed dataflow)
/// and returns its trace.
pub fn run_toy(kind: TechniqueKind, budget: usize, seed: u64) -> Trace {
    let evaluator = CodesignEvaluator::new(toy_space(), vec![single_layer_model()], FixedMapper)
        .with_engine(EvalEngine::serial());
    run_with(kind, &evaluator, budget, seed)
}

/// The technique of `kind` as every conformance scenario and oracle builds
/// it: the shared registry's technique, except that the genetic algorithm
/// gets the toy setting's population of 8.
pub fn toy_technique(kind: TechniqueKind, seed: u64) -> Box<dyn DseTechnique> {
    match kind {
        TechniqueKind::Genetic => Box::new(GeneticAlgorithm::new(8, seed)),
        other => baselines::by_name(other.name(), seed).expect("every kind is registered"),
    }
}

/// Runs one technique against an arbitrary evaluator (the scenarios' and
/// paper-bound tests' shared driver; mirrors `bench::run_technique`
/// without the telemetry/checkpoint plumbing the fixtures don't pin).
pub fn run_with<E: Evaluator>(
    kind: TechniqueKind,
    evaluator: E,
    budget: usize,
    seed: u64,
) -> Trace {
    BaselineSession::new(toy_technique(kind, seed).as_mut()).run(&evaluator, budget)
}

/// What a [`Scenario`] runs.
enum Runner {
    /// One technique on the toy setting.
    Toy(TechniqueKind),
    /// One technique on the full edge space against ResNet-18.
    Edge(TechniqueKind),
}

/// One pinned scenario: a name (also the fixture file stem) and the run
/// that regenerates its report.
pub struct Scenario {
    /// Fixture name — the report is committed as `golden/<name>.json`.
    pub name: &'static str,
    runner: Runner,
}

impl Scenario {
    /// Regenerates this scenario's report document.
    pub fn run(&self) -> Json {
        match self.runner {
            Runner::Toy(kind) => toy_report(self.name, kind),
            Runner::Edge(kind) => edge_report(self.name, kind),
        }
    }
}

fn scenario_args(budget: usize) -> BenchArgs {
    BenchArgs::parse_from(
        &[
            "--iters",
            &budget.to_string(),
            "--seed",
            &SCENARIO_SEED.to_string(),
        ],
        budget,
    )
}

fn toy_report(name: &str, kind: TechniqueKind) -> Json {
    let args = scenario_args(TOY_BUDGET);
    let mut report = BenchReport::new(name, &args);
    let trace = run_toy(kind, args.spec.budget, args.spec.seed);
    report.push_trace("toy", &trace);
    report.metric(
        "iterations_to_target",
        iterations_to_target(&trace, TOY_TARGET_MS)
            .map(|n| Json::Num(n as f64))
            .unwrap_or(Json::Null),
    );
    report.to_json()
}

/// Evaluation budget of the edge-space scenarios (kept short: every point
/// maps all of ResNet-18's unique layers).
const EDGE_BUDGET: usize = 12;

fn edge_report(name: &str, kind: TechniqueKind) -> Json {
    let args = scenario_args(EDGE_BUDGET);
    let mut report = BenchReport::new(name, &args);
    let evaluator = CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper)
        .with_engine(EvalEngine::serial());
    let trace = run_with(kind, &evaluator, args.spec.budget, args.spec.seed);
    report.push_trace("resnet18", &trace);
    report.metric(
        "unique_evaluations",
        Json::Num(evaluator.unique_evaluations() as f64),
    );
    report.to_json()
}

/// Every pinned scenario, in fixture order.
pub fn all_scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "toy_explainable",
            runner: Runner::Toy(TechniqueKind::Explainable),
        },
        Scenario {
            name: "toy_grid",
            runner: Runner::Toy(TechniqueKind::Grid),
        },
        Scenario {
            name: "toy_random",
            runner: Runner::Toy(TechniqueKind::Random),
        },
        Scenario {
            name: "toy_annealing",
            runner: Runner::Toy(TechniqueKind::Annealing),
        },
        Scenario {
            name: "toy_genetic",
            runner: Runner::Toy(TechniqueKind::Genetic),
        },
        Scenario {
            name: "toy_bayesian",
            runner: Runner::Toy(TechniqueKind::Bayesian),
        },
        Scenario {
            name: "toy_hypermapper",
            runner: Runner::Toy(TechniqueKind::HyperMapper),
        },
        Scenario {
            name: "toy_rl",
            runner: Runner::Toy(TechniqueKind::Rl),
        },
        Scenario {
            name: "edge_explainable_resnet18",
            runner: Runner::Edge(TechniqueKind::Explainable),
        },
        Scenario {
            name: "edge_random_resnet18",
            runner: Runner::Edge(TechniqueKind::Random),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_names_are_unique() {
        let names: Vec<&str> = all_scenarios().iter().map(|s| s.name).collect();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(names.len(), deduped.len());
    }

    #[test]
    fn toy_runs_are_deterministic() {
        let a = run_toy(TechniqueKind::Random, 10, SCENARIO_SEED);
        let b = run_toy(TechniqueKind::Random, 10, SCENARIO_SEED);
        assert_eq!(a.samples, b.samples);
    }
}
