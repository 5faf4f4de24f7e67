//! Cost-model validation: analytical latency vs the event-driven tile
//! pipeline simulator, across layers and mapping styles.
//!
//! This experiment has no direct counterpart figure in the paper — it
//! addresses the calibration note that the whole evaluation rests on
//! analytical models (ideal overlap). For each layer we report the
//! analytical `max(T_comp, T_comm, T_dma)` bound, the simulated pipeline
//! latency, and the overlap inefficiency (sim / busiest-resource bound);
//! values near 1.0 mean the ideal-overlap assumption is sound for that
//! mapping.
//!
//! Usage: `validate_model [--models a,b] [--json PATH]`

use accel_model::{simulate, AcceleratorConfig};
use bench::{fail, print_table, BenchArgs, BenchReport};
use edse_telemetry::json::Json;
use mapper::{FixedMapper, LinearMapper, MappingOptimizer};
use workloads::zoo;

fn main() {
    let args = BenchArgs::parse(0);
    let telemetry = args.telemetry();
    let models = args
        .models_or(vec![zoo::resnet18(), zoo::mobilenet_v2()])
        .unwrap_or_else(|e| fail(&telemetry, &e));
    let cfg = AcceleratorConfig {
        pes: 256,
        l1_bytes: 128,
        l2_bytes: 256 * 1024,
        noc_phys_links: [64; 4],
        noc_virt_links: [512; 4],
        ..AcceleratorConfig::edge_baseline()
    };
    println!(
        "cost-model validation on {} PEs / {} kB SPM (sim limit 2M steps)\n",
        cfg.pes,
        cfg.l2_bytes / 1024
    );

    let mut report = BenchReport::new("validate_model", &args);
    let mut rows = Vec::new();
    let mut ineffs: Vec<f64> = Vec::new();
    for model in &models {
        for u in model.unique_shapes() {
            for (style, mapped) in [
                ("fixed-os", FixedMapper.optimize(&u.shape, &cfg)),
                ("linear", LinearMapper::new(60).optimize(&u.shape, &cfg)),
            ] {
                let Some(mapped) = mapped else { continue };
                let analytical = mapped.profile.latency_cycles;
                match simulate(&cfg, &u.shape, &mapped.mapping, 2_000_000) {
                    Ok(sim) => {
                        let ineff = sim.overlap_inefficiency();
                        ineffs.push(ineff);
                        report.metric(
                            &format!("case/{} {}/{style}", model.name(), u.name),
                            Json::obj(vec![
                                ("analytical_cycles", Json::Num(analytical)),
                                ("simulated_cycles", Json::Num(sim.cycles)),
                                ("overlap_inefficiency", Json::Num(ineff)),
                            ]),
                        );
                        rows.push(vec![
                            format!("{} {}", model.name(), u.name),
                            style.into(),
                            format!("{analytical:.0}"),
                            format!("{:.0}", sim.cycles),
                            format!("{:.2}", sim.cycles / analytical),
                            format!("{ineff:.2}"),
                        ]);
                    }
                    Err(_) => continue, // nest too large for simulation
                }
            }
        }
    }
    print_table(
        &[
            "layer",
            "mapping",
            "analytical (cyc)",
            "simulated (cyc)",
            "sim/analytical",
            "overlap ineff.",
        ],
        &rows,
    );
    if !ineffs.is_empty() {
        let mean = ineffs.iter().sum::<f64>() / ineffs.len() as f64;
        let max = ineffs.iter().cloned().fold(0.0, f64::max);
        report.metric("simulable_cases", Json::Num(ineffs.len() as f64));
        report.metric("mean_overlap_inefficiency", Json::Num(mean));
        report.metric("max_overlap_inefficiency", Json::Num(max));
        println!(
            "\noverlap inefficiency over {} simulable cases: mean {:.2}, max {:.2}",
            ineffs.len(),
            mean,
            max
        );
        println!(
            "interpretation: values near 1 validate the analytical ideal-overlap\n\
             assumption the paper's evaluation (and dMazeRunner) relies on."
        );
    }
    report.write_if_requested(&args);
}
