//! Fig. 9 — Final latency of the codesigns obtained by every DSE technique
//! for every model after the static exploration budget (paper: 2500
//! iterations). Fixed-dataflow settings for all techniques plus the
//! codesign settings for random search, HyperMapper 2.0 and
//! Explainable-DSE.
//!
//! Usage: `fig09_static_dse [--full] [--iters N] [--trials N] [--models a,b] [--seed N]
//! [--trace-out t.jsonl] [--verbose] [--json PATH]`

use bench::{
    constraints_for, fail, latency_cell, print_table, run_technique, BenchArgs, BenchReport,
    Harness, MapperKind, TechniqueKind,
};
use edse_telemetry::Level;
use workloads::zoo;

fn main() {
    let args = BenchArgs::parse(2500);
    let telemetry = args.telemetry();
    let harness = Harness::new(&args, &telemetry);
    let models = args
        .models_or(zoo::all_models())
        .unwrap_or_else(|e| fail(&telemetry, &e));
    println!(
        "Fig. 9: best feasible latency (ms) after {} evaluations ({} mapping trials\n\
         per layer for black-box codesign)\n",
        args.spec.budget, args.spec.map_trials
    );

    let settings: Vec<(TechniqueKind, MapperKind, String)> = {
        let mut v: Vec<(TechniqueKind, MapperKind, String)> = TechniqueKind::ALL
            .iter()
            .map(|k| {
                (
                    *k,
                    MapperKind::FixedDataflow,
                    format!("{}-FixDF", k.label()),
                )
            })
            .collect();
        for k in [TechniqueKind::Random, TechniqueKind::HyperMapper] {
            v.push((
                k,
                MapperKind::Random(args.spec.map_trials),
                format!("{}-Codesign", k.label()),
            ));
        }
        v.push((
            TechniqueKind::Explainable,
            MapperKind::Linear(args.spec.map_trials),
            "Explainable-DSE-Codesign".into(),
        ));
        v
    };

    let mut headers: Vec<String> = vec!["technique".into()];
    headers.extend(models.iter().map(|m| m.name().to_string()));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();

    let mut report = BenchReport::new("fig09_static_dse", &args);
    let mut rows = Vec::new();
    for (kind, mapper, label) in &settings {
        let mut row = vec![label.clone()];
        for model in &models {
            let constraints = constraints_for(std::slice::from_ref(model));
            let trace = run_technique(
                &harness,
                *kind,
                *mapper,
                model,
                args.spec.budget,
                args.spec.seed,
            )
            .into_trace();
            report.push_trace(&format!("{label}/{}", model.name()), &trace);
            row.push(latency_cell(&trace, &constraints));
            telemetry.log(
                Level::Info,
                &format!(
                    "[{label} / {}] best={} evals={} {:.1}s",
                    model.name(),
                    row.last().unwrap(),
                    trace.evaluations(),
                    trace.wall_seconds
                ),
            );
        }
        rows.push(row);
    }
    telemetry.flush();
    print_table(&header_refs, &rows);
    println!(
        "\n'-' = no design met all constraints; '-*' = not even area/power were met.\n\
         paper shape: Explainable-DSE codesigns reach ~6x lower latency on average\n\
         than the best non-explainable technique."
    );
    report.write_if_requested(&args);
}
