//! Table 2 — Dynamic DSE: latency minimized by every technique within 100
//! iterations. Cells report the best feasible latency in ms; `-` marks
//! runs that found designs meeting area/power but not the throughput
//! floor or mapping compatibility, `-*` marks runs where not even
//! area/power were met.
//!
//! Usage: `tab02_dynamic_dse [--iters N] [--models a,b] [--seed N] [--json PATH]`

use bench::{
    constraints_for, fail, latency_cell, print_table, run_technique, BenchArgs, BenchReport,
    Harness, MapperKind, TechniqueKind,
};
use workloads::zoo;

fn main() {
    let mut args = BenchArgs::parse(100);
    if args.quick {
        args.spec.budget = 100; // Table 2's budget *is* the dynamic budget.
    }
    let telemetry = args.telemetry();
    let harness = Harness::new(&args, &telemetry);
    let models = args
        .models_or(zoo::all_models())
        .unwrap_or_else(|e| fail(&telemetry, &e));
    println!(
        "Table 2: best feasible latency (ms) within {} iterations\n",
        args.spec.budget
    );

    let settings: Vec<(TechniqueKind, MapperKind, String)> = {
        let mut v: Vec<(TechniqueKind, MapperKind, String)> = TechniqueKind::ALL
            .iter()
            .filter(|k| **k != TechniqueKind::Explainable)
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
            "ExplainableDSE-Codesign".into(),
        ));
        v
    };

    let mut headers: Vec<String> = vec!["technique".into()];
    headers.extend(models.iter().map(|m| m.name().to_string()));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();

    let mut report = BenchReport::new("tab02_dynamic_dse", &args);
    let mut rows = Vec::new();
    let mut explainable_evals = Vec::new();
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
            if *kind == TechniqueKind::Explainable {
                explainable_evals.push(trace.evaluations());
            }
            row.push(latency_cell(&trace, &constraints));
        }
        rows.push(row);
    }
    print_table(&header_refs, &rows);
    if !explainable_evals.is_empty() {
        let mean: f64 =
            explainable_evals.iter().sum::<usize>() as f64 / explainable_evals.len() as f64;
        println!("\nExplainable-DSE evaluated ~{mean:.0} designs (paper: ~54).");
    }
    println!(
        "paper shape: under the short budget, non-explainable techniques mostly\n\
         fail to land feasible designs (shaded/dash cells); Explainable-DSE lands\n\
         solutions one to two orders of magnitude faster."
    );
    report.write_if_requested(&args);
}
