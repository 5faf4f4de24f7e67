//! Fig. 4 — Toy two-parameter exploration (#PEs x shared-memory size) for a
//! late ResNet convolution (CONV5_2-class layer), tracing the acquisitions
//! of a HyperMapper-2.0-style optimizer against Explainable-DSE. All other
//! parameters are frozen mid-range, exactly the setting of the paper's
//! illustration.
//!
//! Usage: `fig04_toy_trace [--iters N] [--seed N] [--out PATH]
//! [--json PATH] [--checkpoint PATH [--resume]]`
//!
//! `--checkpoint PATH` writes the two searches' checkpoints to
//! `PATH.hypermapper` and `PATH.explainable` as each search starts, and
//! persists their layer outcomes in `PATH.cache/` (or in `--cache-dir`).
//!
//! `--out` writes a machine-readable result summary (sample objectives,
//! best feasible latency, attempt count — deliberately no wall-clock
//! times) so interrupted-and-resumed runs can be diffed against
//! uninterrupted ones; `scripts/check.sh` does exactly that.

use baselines::HyperMapperLike;
use bench::toy::{single_layer_model, toy_space};
use bench::{BenchArgs, BenchReport, Harness};
use edse_core::dse::{DseConfig, ExplainableDse};
use edse_core::evaluate::Evaluator;
use edse_core::space::{edge, DesignSpace};
use edse_core::{bottleneck::dnn_latency_model, DseResult, Trace};
use edse_telemetry::json::Json;
use mapper::FixedMapper;

fn print_trace(title: &str, space: &DesignSpace, trace: &Trace) {
    println!("\n--- {title} ---");
    println!(
        "{:>4} {:>6} {:>8} {:>12} {:>5}",
        "iter", "PEs", "L2 (kB)", "latency (ms)", "ok"
    );
    for (i, s) in trace.samples.iter().enumerate() {
        println!(
            "{:>4} {:>6} {:>8} {:>12} {:>5}",
            i + 1,
            space.value(&s.point, edge::PES),
            space.value(&s.point, edge::L2_KB),
            if s.objective.is_finite() {
                format!("{:.3}", s.objective)
            } else {
                "inf".into()
            },
            if s.feasible { "yes" } else { "no" }
        );
    }
    match trace.best_feasible() {
        Some(b) => println!("best feasible: {:.3} ms", b.objective),
        None => println!("no feasible point found"),
    }
}

/// The deterministic portion of one trace: everything a resumed run must
/// reproduce bit-for-bit. Wall-clock times are deliberately excluded.
fn trace_json(trace: &Trace) -> Json {
    Json::obj(vec![
        ("technique", Json::Str(trace.technique.clone())),
        ("evaluations", Json::Num(trace.evaluations() as f64)),
        (
            "samples",
            Json::Arr(
                trace
                    .samples
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            (
                                "point",
                                Json::Arr(
                                    s.point
                                        .indices()
                                        .iter()
                                        .map(|&i| Json::Num(i as f64))
                                        .collect(),
                                ),
                            ),
                            ("objective", Json::Num(s.objective)),
                            ("feasible", Json::Bool(s.feasible)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "best",
            trace
                .best_feasible()
                .map(|b| Json::Num(b.objective))
                .unwrap_or(Json::Null),
        ),
    ])
}

/// The full deterministic result summary written by `--out`.
fn result_json(hm: &Trace, result: &DseResult, unique_evaluations: usize) -> Json {
    Json::obj(vec![
        ("hypermapper", trace_json(hm)),
        ("explainable", trace_json(result.trace())),
        ("attempts", Json::Num(result.attempts().len() as f64)),
        (
            "converged_after",
            Json::Arr(
                result
                    .converged_after()
                    .iter()
                    .map(|&n| Json::Num(n as f64))
                    .collect(),
            ),
        ),
        ("termination", Json::Str(result.termination().to_string())),
        ("unique_evaluations", Json::Num(unique_evaluations as f64)),
    ])
}

fn main() {
    let args = BenchArgs::parse(25);
    let telemetry = args.telemetry();
    let harness = Harness::new(&args, &telemetry);
    let space = toy_space();
    let model = single_layer_model();
    let budget = args.spec.budget;

    // HyperMapper-2.0-style exploration (Fig. 4a).
    let ev = harness.evaluator(space.clone(), vec![model.clone()], FixedMapper);
    let technique = Box::new(HyperMapperLike::new(args.spec.seed));
    let hm = harness
        .run("hypermapper", technique, &ev, budget)
        .into_trace();
    print_trace("HyperMapper 2.0 (black-box)", &space, &hm);

    // Explainable-DSE (Fig. 4b), from the space's minimum point.
    let ev = harness.evaluator(space.clone(), vec![model], FixedMapper);
    let technique = Box::new(ExplainableDse::new(
        dnn_latency_model(),
        DseConfig {
            seed: args.spec.seed,
            ..DseConfig::default()
        },
    ));
    let result = harness.run("explainable", technique, &ev, budget);
    print_trace(
        "Explainable-DSE (bottleneck-guided)",
        &space,
        result.trace(),
    );
    println!("\nexplanations:");
    for a in result.attempts().iter().take(6) {
        println!("  attempt {}: {}", a.index(), a.decision());
        if let Some(line) = a.analyses().first() {
            let short: String = line.chars().take(120).collect();
            println!("    {short}");
        }
    }

    if let Some(out) = &args.out {
        let unique = ev.unique_evaluations();
        let line = result_json(&hm, &result, unique).to_line();
        if let Err(e) = std::fs::write(out, line + "\n") {
            eprintln!("cannot write result file {out}: {e}");
            std::process::exit(1);
        }
        println!("\nresult summary written to {out}");
    }

    let mut report = BenchReport::new("fig04_toy_trace", &args);
    report.push_trace("hypermapper-toy", &hm);
    report.push_trace("explainable-toy", result.trace());
    report.metric("attempts", Json::Num(result.attempts().len() as f64));
    report.metric(
        "converged_after",
        Json::Arr(
            result
                .converged_after()
                .iter()
                .map(|&n| Json::Num(n as f64))
                .collect(),
        ),
    );
    report.metric("termination", Json::Str(result.termination().to_string()));
    report.write_if_requested(&args);
}
