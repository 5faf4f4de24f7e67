//! Quickstart: explore an edge-accelerator codesign for ResNet-18 with
//! Explainable-DSE and print the explanation artifacts.
//!
//! Run with: `cargo run --release --example quickstart`

use explainable_dse::prelude::*;

fn main() {
    // 1) The problem: the paper's Table-1 design space, one target
    //    workload, edge constraints (75 mm^2, 4 W, 40 FPS), and a mapping
    //    optimizer in the loop (tightly coupled codesign).
    let model = zoo::resnet18();
    println!(
        "workload: {} ({} layers, {:.2} GMACs, needs {} FPS)",
        model.name(),
        model.layer_count(),
        model.total_macs() as f64 / 1e9,
        model.target().inferences_per_second()
    );
    let evaluator = CodesignEvaluator::new(edge_space(), vec![model], LinearMapper::new(64));

    // 2) The explorer: the DNN latency bottleneck model drives
    //    acquisitions. To make the run resumable, give the evaluator a
    //    disk tier: `.with_disk_cache(Arc::new(DiskCache::open("cache")?))`.
    //    Running again over the same directory then resumes a killed run,
    //    bit-identically, and maps only what it had left undone.
    let session = SearchSession::new(
        dnn_latency_model(),
        DseConfig {
            budget: 150,
            ..DseConfig::default()
        },
    )
    .evaluator(&evaluator);

    // 3) Run from the minimum configuration.
    let initial = evaluator.space().minimum_point();
    let result = session.run(initial);

    // 4) Report: best codesign, convergence, and per-attempt explanations.
    println!(
        "\nexplored {} designs in {:.1} s ({})",
        result.trace().evaluations(),
        result.trace().wall_seconds,
        result.termination()
    );
    match &result.best() {
        Some((point, eval)) => {
            let cfg = evaluator.decode(point);
            println!(
                "best codesign: {} PEs, {} B RF, {} kB SPM, {} MB/s, {}-bit NoCs",
                cfg.pes,
                cfg.l1_bytes,
                cfg.l2_bytes / 1024,
                cfg.offchip_bw_mbps,
                cfg.noc_width_bits
            );
            println!(
                "latency {:.3} ms | area {:.1} mm^2 | power {:.2} W | energy {:.2} mJ",
                eval.objective, eval.area_mm2, eval.power_w, eval.energy_mj
            );
        }
        None => println!("no feasible codesign found within the budget"),
    }

    println!("\n--- why the DSE did what it did (first three attempts) ---");
    for attempt in result.attempts().iter().take(3) {
        println!("attempt {}: {}", attempt.index(), attempt.decision());
        for line in attempt.analyses().iter().take(2) {
            println!("  {line}");
        }
    }
}
