//! Head-to-head comparison of every DSE technique on one workload —
//! a miniature of the paper's Fig. 9/10 sweep.
//!
//! Run with: `cargo run --release --example compare_optimizers [budget]`

use explainable_dse::opt::{
    BayesianOpt, ConfuciuxRl, DseTechnique, GeneticAlgorithm, GridSearch, HyperMapperLike,
    RandomSearch, SimulatedAnnealing,
};
use explainable_dse::prelude::*;

fn main() {
    let budget: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(120);
    let model = zoo::resnet18();
    println!(
        "comparing DSE techniques for {} (budget {budget} evaluations, fixed dataflow)\n",
        model.name()
    );
    println!(
        "{:>14} {:>8} {:>14} {:>10} {:>9}",
        "technique", "evals", "best (ms)", "feasible%", "time (s)"
    );

    let run = |trace: Trace| {
        let best = trace
            .best_feasible()
            .map(|s| format!("{:.3}", s.objective))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:>14} {:>8} {:>14} {:>9.1}% {:>9.2}",
            trace.technique,
            trace.evaluations(),
            best,
            trace.feasibility_rate() * 100.0,
            trace.wall_seconds
        );
    };

    // Baselines (each on a fresh evaluator so caching is fair).
    let mut baselines: Vec<Box<dyn DseTechnique>> = vec![
        Box::new(GridSearch::new()),
        Box::new(RandomSearch::new(1)),
        Box::new(SimulatedAnnealing::new(1)),
        Box::new(GeneticAlgorithm::new(16, 1)),
        Box::new(BayesianOpt::new(1)),
        Box::new(HyperMapperLike::new(1)),
        Box::new(ConfuciuxRl::new(1)),
    ];
    for technique in &mut baselines {
        let evaluator = CodesignEvaluator::new(edge_space(), vec![model.clone()], FixedMapper);
        run(technique.run(&evaluator, budget));
    }

    // Explainable-DSE.
    let evaluator = CodesignEvaluator::new(edge_space(), vec![model.clone()], FixedMapper);
    let session = SearchSession::new(
        dnn_latency_model(),
        DseConfig {
            budget,
            ..DseConfig::default()
        },
    )
    .evaluator(&evaluator);
    let initial = evaluator.space().minimum_point();
    let result = session.run(initial);
    run(result.into_trace());
}
