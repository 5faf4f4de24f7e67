//! Rendering DSE results as human-readable reports — the paper's central
//! promise is that the exploration can *explain itself*; this module turns
//! a [`DseResult`] into that explanation.

use crate::cost::Constraint;
use crate::dse::DseResult;
use crate::space::DesignSpace;
use std::fmt::Write as _;

impl DseResult {
    /// Renders the exploration as a markdown report: the outcome, the
    /// convergence story, and every acquisition attempt's reasoning.
    ///
    /// `space` and `constraints` must be the ones the exploration ran
    /// against (used to decode parameter names and budgets).
    pub fn report(&self, space: &DesignSpace, constraints: &[Constraint]) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Explainable-DSE report\n");
        let _ = writeln!(
            out,
            "- evaluations: {} (converged after {:?})",
            self.trace().evaluations(),
            self.converged_after()
        );
        let _ = writeln!(out, "- wall time: {:.2} s", self.trace().wall_seconds);
        let _ = writeln!(out, "- termination: {}", self.termination());
        match self.best() {
            Some((point, eval)) => {
                let _ = writeln!(out, "\n## Best feasible design\n");
                let _ = writeln!(out, "- objective: {:.4}", eval.objective);
                for (i, c) in constraints.iter().enumerate() {
                    let v = eval.constraint_values.get(i).copied().unwrap_or(f64::NAN);
                    let _ = writeln!(
                        out,
                        "- {}: {:.3} / {:.3} ({:.0}% of budget)",
                        c.name,
                        v,
                        c.threshold,
                        c.utilization(v) * 100.0
                    );
                }
                let _ = writeln!(out, "\n| parameter | value |");
                let _ = writeln!(out, "|---|---|");
                for (i, def) in space.params().iter().enumerate() {
                    let _ = writeln!(out, "| {} | {} |", def.name(), def.values()[point.index(i)]);
                }
            }
            None => {
                let _ = writeln!(out, "\n## No feasible design found\n");
            }
        }

        let _ = writeln!(out, "\n## Acquisition attempts\n");
        for a in self.attempts() {
            let _ = writeln!(out, "### Attempt {}\n", a.index());
            for line in a.analyses() {
                let _ = writeln!(out, "- {line}");
            }
            if !a.acquisitions().is_empty() {
                let names: Vec<String> = a
                    .acquisitions()
                    .iter()
                    .map(|(p, idx)| {
                        let def = space.param(*p);
                        format!("{} -> {}", def.name(), def.values()[*idx])
                    })
                    .collect();
                let _ = writeln!(out, "- acquired: {}", names.join(", "));
            }
            let _ = writeln!(out, "- decision: {}\n", a.decision());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::bottleneck::dnn_latency_model;
    use crate::dse::DseConfig;
    use crate::evaluate::{CodesignEvaluator, Evaluator};
    use crate::session::SearchSession;
    use crate::space::edge_space;
    use mapper::FixedMapper;
    use workloads::zoo;

    /// Fig. 4's toy setting: only #PEs and the shared L2 are free, one
    /// CONV5_2-class layer. Small enough that the report's claims can be
    /// pinned down exactly.
    #[test]
    fn report_names_dominant_factor_and_proposed_values_for_toy_model() {
        use crate::space::{edge, DesignSpace, ParamDef};
        use workloads::constraints::ThroughputTarget;
        use workloads::model::Layer;
        use workloads::LayerShape;

        let params = edge_space()
            .params()
            .iter()
            .enumerate()
            .map(|(i, p)| {
                if i == edge::PES || i == edge::L2_KB {
                    p.clone()
                } else {
                    let values = p.values();
                    ParamDef::new(p.name().to_string(), vec![values[values.len() - 1]])
                }
            })
            .collect();
        let space = DesignSpace::new(params);
        let model = workloads::model::DnnModel::new(
            "ResNet-CONV5_2",
            vec![Layer::new(
                "conv5_2b",
                LayerShape::conv(1, 512, 512, 7, 7, 3, 3, 1),
                1,
            )],
            ThroughputTarget::fps(40.0),
        );
        let evaluator = CodesignEvaluator::new(space, vec![model], FixedMapper);
        let result = SearchSession::new(
            dnn_latency_model(),
            DseConfig {
                budget: 25,
                restarts: 0,
                ..DseConfig::default()
            },
        )
        .evaluator(&evaluator)
        .run(evaluator.space().minimum_point());
        let report = result.report(evaluator.space(), evaluator.constraints());

        // The analysis lines must name the dominant latency factor (all
        // factors of the DNN latency tree are `t_`-prefixed) and its
        // required scaling.
        assert!(
            report.contains("bottleneck t_"),
            "dominant factor missing:\n{report}"
        );
        assert!(report.contains("needs"), "scaling `s` missing:\n{report}");
        // The acquisitions must propose concrete values for the two free
        // parameters, rendered as `name -> value`.
        assert!(
            report.contains("acquired: ") && (report.contains("pes -> ")),
            "proposed parameter values missing:\n{report}"
        );
        // The single analyzed sub-function dominates 100% of the cost.
        assert!(
            report.contains("conv5_2b (100.0% of cost)"),
            "per-layer contribution missing:\n{report}"
        );
    }

    #[test]
    fn report_mentions_outcome_parameters_and_reasoning() {
        let evaluator = CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper);
        let initial = evaluator.space().minimum_point();
        let result = SearchSession::new(
            dnn_latency_model(),
            DseConfig {
                budget: 80,
                restarts: 0,
                ..DseConfig::default()
            },
        )
        .evaluator(&evaluator)
        .run(initial);
        let report = result.report(evaluator.space(), evaluator.constraints());
        assert!(report.contains("# Explainable-DSE report"));
        assert!(report.contains("Acquisition attempts"));
        assert!(report.contains("pes"), "parameter table expected");
        assert!(report.contains("decision:"));
        if result.best().is_some() {
            assert!(report.contains("Best feasible design"));
            assert!(report.contains("area_mm2"));
        }
    }

    /// Edge cases of the §4.4 sub-function aggregation, exercised directly
    /// through `analyze_subfunctions` with hand-built layer evaluations so
    /// threshold arithmetic is exact.
    mod aggregation_edges {
        use crate::bottleneck::{BottleneckModel, TreeBuilder};
        use crate::cost::{Evaluation, LayerEval};
        use crate::diskcache::LayerOutcome;
        use crate::dse::{analyze_subfunctions, Aggregation, DseConfig};

        /// A one-leaf model over `f64` contexts (the layer latency). The
        /// mitigation for parameter 0 predicts the context value itself,
        /// so the merged per-parameter aggregate can be pinned down.
        fn latency_model() -> BottleneckModel<f64> {
            BottleneckModel::new(|ctx: &f64| {
                let mut b = TreeBuilder::new();
                let t = b.leaf("t_only", *ctx);
                let root = b.max("t_total", vec![t]);
                b.build(root)
            })
            .relate("t_only", vec![0])
            .mitigation(0, |ctx, _| Some(*ctx))
        }

        /// A layer whose analysis context is its latency; only whether it
        /// is mappable is read from its outcome.
        fn layer(name: &str, latency_ms: f64, mappable: bool) -> LayerEval {
            let outcome = if mappable {
                let shape = workloads::LayerShape::conv(1, 16, 16, 14, 14, 3, 3, 1);
                let cfg = accel_model::AcceleratorConfig::edge_baseline();
                let mapped = mapper::MappingOptimizer::optimize(&mapper::FixedMapper, &shape, &cfg);
                LayerOutcome::Mapped(mapped.expect("maps"))
            } else {
                LayerOutcome::Unmappable(None)
            };
            LayerEval {
                name: name.into(),
                model: "synthetic".into(),
                count: 1,
                outcome: std::sync::Arc::new(outcome),
                latency_ms,
            }
        }

        /// Runs the analysis step over hand-built layers, each one's
        /// context being its latency.
        fn analyze(
            config: DseConfig,
            layers: Vec<LayerEval>,
        ) -> (Vec<(usize, Option<f64>)>, Vec<String>) {
            let eval = Evaluation {
                objective: layers.iter().map(|l| l.latency_ms).sum(),
                mappable: layers.iter().all(|l| l.mappable()),
                constraint_values: vec![],
                layers,
                area_mm2: 0.0,
                power_w: 0.0,
                energy_mj: 0.0,
            };
            let (merged, analyses, _summary) =
                analyze_subfunctions(&latency_model(), &config, &eval, 1, |l| Some(l.latency_ms));
            (merged, analyses)
        }

        #[test]
        fn contribution_exactly_at_threshold_is_still_analyzed() {
            // Two layers: threshold = 0.5 / 2 = 0.25, and the second layer
            // holds exactly 1.0 / 4.0 = 0.25 of the cost (both exact in
            // binary). The cut is strict, so a tie at the threshold is
            // analyzed...
            let (_, analyses) = analyze(
                DseConfig::default(),
                vec![layer("big", 3.0, true), layer("tie", 1.0, true)],
            );
            assert_eq!(analyses.len(), 2, "tie at threshold must be analyzed");
            assert!(
                analyses[1].starts_with("tie (25.0% of cost)"),
                "{analyses:?}"
            );
            // ...while nudged strictly below (0.8 / 4.0 = 0.2) it is cut.
            let (_, analyses) = analyze(
                DseConfig::default(),
                vec![layer("big", 3.2, true), layer("small", 0.8, true)],
            );
            assert_eq!(analyses.len(), 1, "below threshold must be cut");
            assert!(analyses[0].starts_with("big"), "{analyses:?}");
        }

        #[test]
        fn layers_below_threshold_after_the_leader_are_cut() {
            // Four layers, threshold = 0.5 / 4 = 0.125: the three small
            // layers hold 5% each, so only the dominant one is explained.
            let (merged, analyses) = analyze(
                DseConfig::default(),
                vec![
                    layer("dominant", 8.5, true),
                    layer("a", 0.5, true),
                    layer("b", 0.5, true),
                    layer("c", 0.5, true),
                ],
            );
            assert_eq!(analyses.len(), 1);
            assert!(
                analyses[0].starts_with("dominant (85.0% of cost)"),
                "{analyses:?}"
            );
            assert_eq!(merged, vec![(0, Some(8.5))]);
        }

        #[test]
        fn single_layer_model_is_always_analyzed() {
            // One layer: threshold = 0.5, contribution = 1.0 — the sole
            // sub-function always survives the cut.
            let (merged, analyses) = analyze(DseConfig::default(), vec![layer("only", 2.0, true)]);
            assert_eq!(analyses.len(), 1);
            assert!(
                analyses[0].starts_with("only (100.0% of cost)"),
                "{analyses:?}"
            );
            assert_eq!(merged, vec![(0, Some(2.0))]);
        }

        #[test]
        fn zero_total_cost_treats_every_layer_as_dominant() {
            // Degenerate zero-latency layers: contributions are pinned at
            // 1.0, so nothing is below threshold and top_k is the only cap.
            let layers = (0..3).map(|i| layer(&format!("l{i}"), 0.0, true)).collect();
            let (_, analyses) = analyze(DseConfig::default(), layers);
            assert_eq!(analyses.len(), 3);
        }

        #[test]
        fn top_k_caps_tied_layers_in_input_order() {
            // Four identical layers (25% each, threshold 12.5%): all
            // qualify, but top_k = 2 keeps only the first two. The rank
            // sort is stable, so ties preserve input order.
            let config = DseConfig {
                top_k: 2,
                ..DseConfig::default()
            };
            let layers = (0..4).map(|i| layer(&format!("l{i}"), 1.0, true)).collect();
            let (_, analyses) = analyze(config, layers);
            assert_eq!(analyses.len(), 2);
            assert!(analyses[0].starts_with("l0"), "{analyses:?}");
            assert!(analyses[1].starts_with("l1"), "{analyses:?}");
        }

        #[test]
        fn unmappable_layers_are_analyzed_first_regardless_of_cost_share() {
            // The unmappable layer (infinite latency, contribution pinned
            // at 1.0) outranks every mappable layer and is never cut; the
            // 10% layer is below the 0.5 / 3 threshold and is cut.
            let (_, analyses) = analyze(
                DseConfig::default(),
                vec![
                    layer("huge", 9.0, true),
                    layer("broken", f64::INFINITY, false),
                    layer("tiny", 1.0, true),
                ],
            );
            assert_eq!(analyses.len(), 2, "{analyses:?}");
            assert!(
                analyses[0].starts_with("broken (100.0% of cost)"),
                "{analyses:?}"
            );
            assert!(analyses[1].starts_with("huge"), "{analyses:?}");
        }

        #[test]
        fn min_and_max_aggregation_merge_per_param_predictions() {
            // Both layers are analyzed (25% ties the threshold) and the
            // mitigation predicts the layer latency, so the merged value is
            // the min across sub-functions by default (§4.4) or the max
            // under the ablation alternative.
            let layers = || vec![layer("big", 3.0, true), layer("tie", 1.0, true)];
            let (merged, _) = analyze(DseConfig::default(), layers());
            assert_eq!(merged, vec![(0, Some(1.0))]);
            let config = DseConfig {
                aggregation: Aggregation::Max,
                ..DseConfig::default()
            };
            let (merged, _) = analyze(config, layers());
            assert_eq!(merged, vec![(0, Some(3.0))]);
        }
    }
}
