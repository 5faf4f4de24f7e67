//! Fig. 3 — Effectiveness of non-explainable vs explainable DSE for the
//! EfficientNet-B0 edge-accelerator design: (a) efficiency (best latency),
//! (b) feasibility (% of evaluated solutions meeting constraints),
//! (c) agility (exploration time).
//!
//! Usage: `fig03_effectiveness [--full] [--iters N] [--seed N] [--json PATH]`

use bench::{
    constraints_for, print_table, run_technique, BenchArgs, BenchReport, Harness, MapperKind,
    TechniqueKind,
};
use edse_telemetry::json::Json;
use workloads::zoo;

fn main() {
    let args = BenchArgs::parse(2500);
    let telemetry = args.telemetry();
    let harness = Harness::new(&args, &telemetry);
    let model = zoo::efficientnet_b0();
    let constraints = constraints_for(std::slice::from_ref(&model));
    println!(
        "Fig. 3: DSE effectiveness for {} ({} iterations budget)\n",
        model.name(),
        args.spec.budget
    );

    let mut report = BenchReport::new("fig03_effectiveness", &args);
    let mut rows = Vec::new();
    for kind in TechniqueKind::ALL {
        let trace = run_technique(
            &harness,
            kind,
            MapperKind::FixedDataflow,
            &model,
            args.spec.budget,
            args.spec.seed,
        )
        .into_trace();
        report.push_trace(kind.label(), &trace);
        report.metric(
            &format!("area_power_feasibility/{}", kind.label()),
            Json::Num(trace.feasibility_rate_first(2, &constraints)),
        );
        let best = trace
            .best_feasible()
            .map(|s| format!("{:.2}", s.objective))
            .unwrap_or_else(|| "-".into());
        rows.push(vec![
            kind.label().to_string(),
            trace.evaluations().to_string(),
            best,
            format!("{:.1}%", trace.feasibility_rate() * 100.0),
            format!(
                "{:.1}%",
                trace.feasibility_rate_first(2, &constraints) * 100.0
            ),
            format!("{:.2}", trace.wall_seconds / 60.0),
        ]);
    }
    print_table(
        &[
            "technique",
            "evals",
            "best latency (ms)",
            "feasible (all)",
            "feasible (area+power)",
            "time (min)",
        ],
        &rows,
    );
    println!(
        "\npaper shape: non-explainable DSEs reach up to 35x higher latency even\n\
         after 2500 trials, with <=18% feasibility; Explainable-DSE converges in\n\
         tens of evaluations within minutes."
    );
    report.write_if_requested(&args);
}
