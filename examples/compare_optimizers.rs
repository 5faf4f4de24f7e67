//! Head-to-head comparison of every DSE technique on one workload —
//! a miniature of the paper's Fig. 9/10 sweep.
//!
//! Run with: `cargo run --release --example compare_optimizers [budget]`

use explainable_dse::opt::by_name;
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

    // Every technique of the registry, each on a fresh evaluator so
    // caching is fair: the baselines with seed 1, then Explainable-DSE
    // with the default seed.
    for (name, seed) in [
        ("grid", 1),
        ("random", 1),
        ("annealing", 1),
        ("genetic", 1),
        ("bayesian", 1),
        ("hypermapper", 1),
        ("rl", 1),
        ("explainable", DseConfig::default().seed),
    ] {
        let mut technique = by_name(name, seed).expect("registered");
        let evaluator = CodesignEvaluator::new(edge_space(), vec![model.clone()], FixedMapper);
        run(technique.run(&evaluator, budget));
    }
}
