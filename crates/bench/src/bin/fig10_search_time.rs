//! Fig. 10 — Search time (bars) and designs evaluated (triangles) per DSE
//! technique, for the fixed-dataflow and codesign settings. The paper's
//! headline: Explainable-DSE evaluates ~59 (fixed) / ~54 (codesign) designs
//! where black-box techniques spend the full 2500, cutting search time by
//! 53x / 103x on average.
//!
//! Usage: `fig10_search_time [--full] [--iters N] [--trials N] [--models a,b]
//! [--json PATH]`

use bench::{
    fail, print_table, run_technique, BenchArgs, BenchReport, Harness, MapperKind, TechniqueKind,
};
use edse_telemetry::json::Json;
use workloads::zoo;

fn main() {
    let args = BenchArgs::parse(2500);
    let telemetry = args.telemetry();
    let harness = Harness::new(&args, &telemetry);
    let default = vec![zoo::resnet18(), zoo::efficientnet_b0(), zoo::transformer()];
    let models = args
        .models_or(default)
        .unwrap_or_else(|e| fail(&telemetry, &e));

    println!(
        "Fig. 10: exploration cost per technique (budget {} evaluations)\n",
        args.spec.budget
    );

    let settings = [
        (TechniqueKind::Random, MapperKind::FixedDataflow),
        (TechniqueKind::Bayesian, MapperKind::FixedDataflow),
        (TechniqueKind::HyperMapper, MapperKind::FixedDataflow),
        (TechniqueKind::Rl, MapperKind::FixedDataflow),
        (TechniqueKind::Explainable, MapperKind::FixedDataflow),
        (
            TechniqueKind::Random,
            MapperKind::Random(args.spec.map_trials),
        ),
        (
            TechniqueKind::HyperMapper,
            MapperKind::Random(args.spec.map_trials),
        ),
        (
            TechniqueKind::Explainable,
            MapperKind::Linear(args.spec.map_trials),
        ),
    ];

    let mut report = BenchReport::new("fig10_search_time", &args);
    for model in &models {
        println!("== {} ==", model.name());
        let mut rows = Vec::new();
        let mut explainable_seconds: Option<f64> = None;
        let mut blackbox_seconds: Vec<f64> = Vec::new();
        for (kind, mapper) in settings {
            let result = run_technique(
                &harness,
                kind,
                mapper,
                model,
                args.spec.budget,
                args.spec.seed,
            );
            let (trace, converged) = (result.trace(), result.converged_after());
            if kind == TechniqueKind::Explainable {
                explainable_seconds.get_or_insert(trace.wall_seconds.max(1e-3));
            } else {
                blackbox_seconds.push(trace.wall_seconds);
            }
            // The JSON report pins designs-evaluated, not seconds: the
            // paper's search-time claim is a proxy for evaluation counts,
            // and wall-clock is excluded from reports by policy.
            report.push_trace(
                &format!("{}{}/{}", kind.label(), mapper.suffix(), model.name()),
                trace,
            );
            if kind == TechniqueKind::Explainable {
                if let Some(first) = converged.first() {
                    report.metric(
                        &format!("converged_at{}/{}", mapper.suffix(), model.name()),
                        Json::Num(*first as f64),
                    );
                }
            }
            let evals = match converged.first() {
                Some(first) => format!("{} (converged at {first})", trace.evaluations()),
                None => trace.evaluations().to_string(),
            };
            rows.push(vec![
                format!("{}{}", kind.label(), mapper.suffix()),
                evals,
                format!("{:.2}", trace.wall_seconds),
                trace
                    .best_feasible()
                    .map(|s| format!("{:.2}", s.objective))
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
        print_table(
            &["technique", "designs evaluated", "time (s)", "best (ms)"],
            &rows,
        );
        if let Some(es) = explainable_seconds {
            let avg: f64 =
                blackbox_seconds.iter().sum::<f64>() / blackbox_seconds.len().max(1) as f64;
            println!(
                "search-time reduction vs mean black-box: {:.0}x\n",
                avg / es
            );
        }
    }
    println!(
        "paper shape: tens of designs for Explainable-DSE vs the full budget for\n\
         black-box techniques; 53x (fixed) and 103x (codesign) mean time reduction."
    );
    report.write_if_requested(&args);
}
