//! Workload ingestion demo: import a model from its JSON description and
//! run a quick explainable exploration for it — the end-to-end path a
//! downstream user takes for a network that is not in the built-in zoo.
//!
//! Usage: `import_model <path/to/model.json> [--iters N] [--seed N] [--json PATH]`
//! (default path: `assets/custom_model.json`)

use bench::{fail, BenchArgs, BenchReport, Harness};
use edse_core::bottleneck::dnn_latency_model;
use edse_core::dse::{DseConfig, ExplainableDse};
use edse_core::evaluate::Evaluator;
use edse_core::space::edge_space;
use edse_telemetry::json::Json;
use mapper::LinearMapper;

fn main() {
    let path = std::env::args()
        .nth(1)
        .filter(|a| !a.starts_with("--"))
        .unwrap_or_else(|| "assets/custom_model.json".into());
    let mut args = BenchArgs::parse(150);
    // The first positional argument is the model path, not an unknown flag.
    args.warnings
        .retain(|w| !w.ends_with(&format!("argument {path}")));
    let telemetry = args.telemetry();

    let json = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&telemetry, &format!("cannot read {path}: {e}")));
    let model = edse_core::import::from_json_str(&json)
        .unwrap_or_else(|e| fail(&telemetry, &format!("import failed: {e}")));

    let mut report = BenchReport::new("import_model", &args);
    report.metric(
        "model",
        Json::obj(vec![
            ("name", Json::Str(model.name().to_string())),
            ("layers", Json::Num(model.layer_count() as f64)),
            (
                "unique_shapes",
                Json::Num(model.unique_shape_count() as f64),
            ),
            ("total_macs", Json::Num(model.total_macs() as f64)),
            (
                "target_inferences_per_second",
                Json::Num(model.target().inferences_per_second()),
            ),
        ]),
    );
    println!(
        "imported {}: {} layers ({} unique shapes), {:.2} GMACs, floor {:.1} inf/s",
        model.name(),
        model.layer_count(),
        model.unique_shape_count(),
        model.total_macs() as f64 / 1e9,
        model.target().inferences_per_second()
    );
    for u in model.unique_shapes().iter().take(8) {
        println!("  {:>14} x{:<3} {}", u.name, u.count, u.shape.describe());
    }

    let harness = Harness::new(&args, &telemetry);
    let evaluator = harness.evaluator(
        edge_space(),
        vec![model],
        LinearMapper::new(args.spec.map_trials),
    );
    let technique = Box::new(ExplainableDse::new(
        dnn_latency_model(),
        DseConfig {
            seed: args.spec.seed,
            ..DseConfig::default()
        },
    ));
    let result = harness.run(technique, &evaluator, args.spec.budget);
    report.push_trace("explainable-import", result.trace());
    report.metric("termination", Json::Str(result.termination().to_string()));
    println!(
        "\nexplored {} designs ({})",
        result.trace().evaluations(),
        result.termination()
    );
    match &result.best() {
        Some((point, eval)) => {
            let cfg = evaluator.decode(point);
            report.metric(
                "best_design",
                Json::obj(vec![
                    ("pes", Json::Num(cfg.pes as f64)),
                    ("l1_bytes", Json::Num(cfg.l1_bytes as f64)),
                    ("l2_bytes", Json::Num(cfg.l2_bytes as f64)),
                    ("offchip_bw_mbps", Json::Num(cfg.offchip_bw_mbps as f64)),
                    ("objective_ms", Json::Num(eval.objective)),
                    ("area_mm2", Json::Num(eval.area_mm2)),
                    ("power_w", Json::Num(eval.power_w)),
                ]),
            );
            println!(
                "best codesign: {} PEs, {} B RF, {} kB SPM, {} MB/s -> {:.3} ms, {:.1} mm^2, {:.2} W",
                cfg.pes,
                cfg.l1_bytes,
                cfg.l2_bytes / 1024,
                cfg.offchip_bw_mbps,
                eval.objective,
                eval.area_mm2,
                eval.power_w
            );
        }
        None => println!("no feasible design within the budget"),
    }
    report.write_if_requested(&args);
}
