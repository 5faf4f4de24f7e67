//! Fig. 6 — The paper's walkthrough, end to end: exploring a ResNet-18
//! accelerator with every step narrated — (b) per-layer bottleneck
//! analysis, (c) aggregation across layers, (d) bottleneck-mitigating
//! acquisitions, (e) constraints-aware update — rendered as the markdown
//! report the framework produces for any run.
//!
//! Usage: `fig06_walkthrough [--iters N] [--seed N] [--json PATH]`

use bench::{BenchArgs, BenchReport, Harness};
use edse_core::bottleneck::dnn_latency_model;
use edse_core::dse::{DseConfig, ExplainableDse};
use edse_core::evaluate::Evaluator;
use edse_core::space::edge_space;
use edse_telemetry::json::Json;
use mapper::FixedMapper;
use workloads::zoo;

fn main() {
    let args = BenchArgs::parse(80);
    let telemetry = args.telemetry();
    let harness = Harness::new(&args, &telemetry);
    let evaluator = harness.evaluator(edge_space(), vec![zoo::resnet18()], FixedMapper);
    let technique = Box::new(ExplainableDse::new(
        dnn_latency_model(),
        DseConfig {
            restarts: 0,
            seed: args.spec.seed,
            ..DseConfig::default()
        },
    ));
    let budget = args.spec.budget.max(60);
    let result = harness.run("explainable", technique, &evaluator, budget);
    println!(
        "{}",
        result.report(evaluator.space(), evaluator.constraints())
    );

    let mut report = BenchReport::new("fig06_walkthrough", &args);
    report.push_trace("explainable-walkthrough", result.trace());
    report.metric("attempts", Json::Num(result.attempts().len() as f64));
    report.metric("termination", Json::Str(result.termination().to_string()));
    report.write_if_requested(&args);
}
