//! The paper's Fig. 6 walkthrough as an executable test: analyzing each
//! layer of a DNN on the current design, aggregating mitigation across
//! layers, and verifying that acting on the predictions actually reduces
//! the measured cost — the core promise of explainability.

use explainable_dse::core::bottleneck::{dnn_latency_model, LayerCtx};
use explainable_dse::core::space::{decode_edge_point, edge, edge_space};
use explainable_dse::core::LayerEval;
use explainable_dse::prelude::*;

#[test]
fn bottleneck_predictions_reduce_latency_when_applied() {
    let space = edge_space();
    let model = zoo::resnet18();
    let evaluator = CodesignEvaluator::new(space.clone(), vec![model.clone()], FixedMapper);

    // A mid-range point whose bottleneck is unambiguous.
    let mut point = space.minimum_point();
    for (param, idx) in [
        (edge::PES, 2),
        (edge::L1_BYTES, 4),
        (edge::L2_KB, 2),
        (edge::NOC_WIDTH, 3),
        (edge::phys_links(0), 15),
        (edge::phys_links(1), 15),
        (edge::phys_links(2), 15),
        (edge::phys_links(3), 15),
        (edge::virt_links(0), 2),
        (edge::virt_links(1), 2),
        (edge::virt_links(2), 2),
        (edge::virt_links(3), 2),
    ] {
        point = point.with_index(param, idx);
    }
    let before = evaluator.evaluate(&point);
    assert!(before.mappable, "walkthrough point must be mappable");

    // Analyze the most expensive layer and apply its first prediction.
    let bottleneck_model = dnn_latency_model();
    let cfg = decode_edge_point(&space, &point);
    let critical = before
        .layers
        .iter()
        .max_by(|a, b| a.latency_ms.partial_cmp(&b.latency_ms).unwrap())
        .expect("layers");
    let ctx = LayerCtx {
        cfg,
        profile: *critical.profile().expect("profile"),
    };
    let analysis = bottleneck_model.analyze(&ctx, 1);
    assert!(
        !analysis.predictions.is_empty(),
        "analysis must predict something"
    );

    // Apply every predicted parameter move (the attempt's combined
    // candidate) and verify the objective drops.
    let mut improved = point.clone();
    for p in &analysis.predictions {
        let def = space.param(p.param);
        let cur = improved.index(p.param);
        let idx = match p.value {
            Some(v) => def.round_up_index(v).max(cur),
            None => (cur + 1).min(def.len() - 1),
        };
        improved = improved.with_index(p.param, idx);
    }
    assert_ne!(
        improved, point,
        "predictions must move at least one parameter"
    );
    let after = evaluator.evaluate(&improved);
    assert!(
        after.objective < before.objective,
        "applying mitigation should reduce latency: {} -> {}",
        before.objective,
        after.objective
    );
}

#[test]
fn per_layer_bottlenecks_differ_across_the_network() {
    // Fig. 6(b): different layers expose different bottlenecks on the same
    // hardware — the reason aggregation (§4.4) exists at all.
    let space = edge_space();
    let evaluator = CodesignEvaluator::new(space.clone(), vec![zoo::resnet18()], FixedMapper);
    let mut point = space.minimum_point();
    for (param, idx) in [
        (edge::PES, 3),
        (edge::OFFCHIP_BW, 2),
        (edge::virt_links(1), 2),
        (edge::virt_links(3), 2),
        (edge::phys_links(1), 31),
        (edge::phys_links(3), 31),
    ] {
        point = point.with_index(param, idx);
    }
    let eval = evaluator.evaluate(&point);
    let cfg = decode_edge_point(&space, &point);
    let model = dnn_latency_model();

    let mut bottlenecks = std::collections::BTreeSet::new();
    for &profile in eval.layers.iter().filter_map(LayerEval::profile) {
        let a = model.analyze(&LayerCtx { cfg, profile }, 1);
        bottlenecks.insert(a.bottleneck.split(':').next().unwrap_or("").to_string());
    }
    assert!(
        !bottlenecks.is_empty(),
        "at least one layer must be analyzable"
    );
}

#[test]
fn scaling_matches_ratio_of_top_factors() {
    // §4.3: s balances the bottleneck against the runner-up factor.
    let cfg = AcceleratorConfig::edge_baseline();
    let layer = LayerShape::conv(1, 64, 64, 56, 56, 3, 3, 1);
    let mapping = Mapping::fixed_output_stationary(&layer, &cfg);
    let profile = cfg.execute(&layer, &mapping).unwrap();
    let model = dnn_latency_model();
    let analysis = model.analyze(&LayerCtx { cfg, profile }, 1);

    let factors = [profile.t_comp, profile.t_noc_max, profile.t_dma];
    let mut sorted = factors;
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let expected = (sorted[0] / sorted[1]).max(1.25);
    assert!(
        (analysis.scaling - expected).abs() / expected < 0.05,
        "scaling {} vs expected {expected}",
        analysis.scaling
    );
}
