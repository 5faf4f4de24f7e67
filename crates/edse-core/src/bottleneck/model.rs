//! The bottleneck-model API of the paper's Fig. 7: a domain-specific
//! bottleneck model is expressed to the domain-independent DSE as
//!
//! 1. a **tree builder** that populates a bottleneck graph from the current
//!    sub-function context (Fig. 7a);
//! 2. a **dictionary** relating node names to the design parameters that
//!    influence them (Fig. 7b);
//! 3. **mitigation subroutines** per parameter that predict the parameter's
//!    next value from the required scaling and the execution
//!    characteristics (Fig. 7c).
//!
//! The model is generic over the context type `C`, so entirely different
//! domains (or different costs, e.g. energy instead of latency) can reuse
//! the same analyzer and DSE.

use crate::bottleneck::tree::{BottleneckTree, NodeId};
use crate::space::ParamId;
use std::collections::HashMap;
use std::sync::Arc;

/// Inputs handed to a mitigation subroutine.
#[derive(Debug, Clone)]
pub struct MitigationInputs {
    /// The scaling `s` by which the bottleneck factor's cost should shrink.
    pub scaling: f64,
    /// Name of the bottleneck factor node (a child of the root).
    pub factor: String,
    /// Name of the dominant leaf under that factor (carries the operand
    /// tag, e.g. `"dma_bytes:wt"`).
    pub leaf: String,
}

/// The progress floor for the scaling `s`: when the bottleneck is nearly
/// balanced against the runner-up, the DSE still scales by at least this
/// much.
const MIN_SCALING: f64 = 1.25;

/// A mitigation subroutine: predicts the new raw value of one parameter, or
/// `None` when no prediction applies (the DSE then falls back to its
/// black-box counterpart, sampling the neighboring value).
pub type MitigationFn<C> = Arc<dyn Fn(&C, &MitigationInputs) -> Option<f64> + Send + Sync>;

/// A predicted parameter update for bottleneck mitigation.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The parameter to change.
    pub param: ParamId,
    /// Predicted raw value (`None` = step to the neighboring domain value).
    pub value: Option<f64>,
    /// Human-readable rationale (the explainability artifact).
    pub rationale: String,
}

/// Result of analyzing one sub-function.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The populated bottleneck tree.
    pub tree: BottleneckTree,
    /// Name of the primary bottleneck factor.
    pub bottleneck: String,
    /// The primary scaling requirement.
    pub scaling: f64,
    /// Parameter predictions, primary bottleneck first.
    pub predictions: Vec<Prediction>,
}

/// A domain-specific bottleneck model (see module docs).
#[derive(Clone)]
pub struct BottleneckModel<C> {
    tree_fn: Arc<dyn Fn(&C) -> BottleneckTree + Send + Sync>,
    param_dict: Vec<(String, Vec<ParamId>)>,
    mitigations: HashMap<ParamId, MitigationFn<C>>,
}

impl<C> std::fmt::Debug for BottleneckModel<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BottleneckModel")
            .field("param_dict", &self.param_dict)
            .field("mitigations", &self.mitigations.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl<C> BottleneckModel<C> {
    /// Creates a model from a tree builder (Fig. 7a).
    pub fn new(tree_fn: impl Fn(&C) -> BottleneckTree + Send + Sync + 'static) -> Self {
        Self {
            tree_fn: Arc::new(tree_fn),
            param_dict: Vec::new(),
            mitigations: HashMap::new(),
        }
    }

    /// Relates a node name (or name prefix before the `:` tag) to the
    /// parameters that influence it (Fig. 7b). Chainable.
    pub fn relate(mut self, node: impl Into<String>, params: Vec<ParamId>) -> Self {
        self.param_dict.push((node.into(), params));
        self
    }

    /// Registers the mitigation subroutine for one parameter (Fig. 7c).
    /// Chainable.
    pub fn mitigation(
        mut self,
        param: ParamId,
        f: impl Fn(&C, &MitigationInputs) -> Option<f64> + Send + Sync + 'static,
    ) -> Self {
        self.mitigations.insert(param, Arc::new(f));
        self
    }

    /// Builds and populates the bottleneck tree for a context.
    pub fn tree(&self, ctx: &C) -> BottleneckTree {
        (self.tree_fn)(ctx)
    }

    /// Composes several models into one with a new tree builder: the
    /// parameter dictionaries and mitigation subroutines of `parts` are
    /// merged (earlier parts win on conflicts). This supports weighted
    /// multi-cost trees (§4.2) that graft the parts' subtrees under a new
    /// root while reusing their domain knowledge unchanged.
    pub fn compose(
        tree_fn: impl Fn(&C) -> BottleneckTree + Send + Sync + 'static,
        parts: Vec<BottleneckModel<C>>,
    ) -> Self {
        let mut merged = Self::new(tree_fn);
        for part in parts {
            for (node, params) in part.param_dict {
                merged.param_dict.push((node, params));
            }
            for (param, f) in part.mitigations {
                merged.mitigations.entry(param).or_insert(f);
            }
        }
        merged
    }

    fn params_for(&self, node_name: &str) -> Vec<ParamId> {
        let base = node_name.split(':').next().unwrap_or(node_name);
        self.param_dict
            .iter()
            .filter(|(n, _)| n == node_name || n == base)
            .flat_map(|(_, ps)| ps.iter().copied())
            .collect()
    }

    /// Analyzes one sub-function context: pinpoints the ranked bottleneck
    /// factors, computes the required scaling, and collects parameter
    /// predictions from the mitigation subroutines (§4.3 steps a-c).
    ///
    /// `top_factors` bounds how many ranked factors contribute predictions
    /// (1 = only the primary bottleneck).
    pub fn analyze(&self, ctx: &C, top_factors: usize) -> Analysis {
        let tree = self.tree(ctx);
        let ranked = tree.ranked_factors();
        let root_value = tree.value(tree.root());
        let scaling = tree.required_scaling(MIN_SCALING);

        let mut predictions = Vec::new();
        let mut seen: Vec<ParamId> = Vec::new();
        for (rank, (factor_id, contribution)) in ranked.iter().take(top_factors.max(1)).enumerate()
        {
            let factor_value = tree.value(*factor_id);
            if factor_value <= 0.0 {
                continue;
            }
            // Primary factor: balance against the runner-up. Secondary
            // factors: their own ratio to the root, floored for progress.
            let s = if rank == 0 {
                scaling
            } else {
                (root_value / factor_value).max(MIN_SCALING)
            };
            let path = tree.dominant_path_from(*factor_id);
            let leaf = tree
                .node(*path.last().expect("path non-empty"))
                .name
                .clone();
            let factor_name = tree.node(*factor_id).name.clone();
            let inputs = MitigationInputs {
                scaling: s,
                factor: factor_name.clone(),
                leaf: leaf.clone(),
            };

            // Collect parameters along the dominant sub-path.
            let mut params: Vec<ParamId> = Vec::new();
            for id in &path {
                for p in self.params_for(&tree.node(*id).name) {
                    if !params.contains(&p) {
                        params.push(p);
                    }
                }
            }
            for p in params {
                if seen.contains(&p) {
                    continue;
                }
                seen.push(p);
                let (value, how) = match self.mitigations.get(&p) {
                    Some(f) => match f(ctx, &inputs) {
                        Some(v) => (Some(v), format!("predicted {v:.1}")),
                        None => (None, "no prediction; stepping".into()),
                    },
                    None => (None, "no subroutine; stepping".into()),
                };
                predictions.push(Prediction {
                    param: p,
                    value,
                    rationale: format!(
                        "{factor_name} contributes {:.0}% (scale {s:.2}x via {leaf}): {how}",
                        contribution * 100.0
                    ),
                });
            }
        }

        let bottleneck = ranked
            .first()
            .map(|(id, _)| tree.node(*id).name.clone())
            .unwrap_or_else(|| tree.node(tree.root()).name.clone());
        Analysis {
            tree,
            bottleneck,
            scaling,
            predictions,
        }
    }
}

/// Extracts a trailing numeric-ish descent path once; see [`NodeId`].
#[allow(dead_code)]
fn _doc_anchor(_: NodeId) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bottleneck::tree::TreeBuilder;

    /// Toy context: latencies of two factors plus one parameter value.
    struct Ctx {
        comp: f64,
        dma: f64,
        pes: f64,
    }

    fn toy_model() -> BottleneckModel<Ctx> {
        BottleneckModel::new(|ctx: &Ctx| {
            let mut b = TreeBuilder::new();
            let comp = b.leaf("t_comp", ctx.comp);
            let dma = b.leaf("t_dma:a", ctx.dma);
            let root = b.max("latency", vec![comp, dma]);
            b.build(root)
        })
        .relate("t_comp", vec![0])
        .relate("t_dma", vec![1])
        .mitigation(0, |ctx: &Ctx, m| Some(ctx.pes * m.scaling))
    }

    #[test]
    fn compute_bound_predicts_pe_scaling() {
        let model = toy_model();
        let a = model.analyze(
            &Ctx {
                comp: 414.0,
                dma: 100.0,
                pes: 64.0,
            },
            1,
        );
        assert_eq!(a.bottleneck, "t_comp");
        assert!((a.scaling - 4.14).abs() < 1e-9);
        let p = &a.predictions[0];
        assert_eq!(p.param, 0);
        // The paper's walkthrough: scale PEs by 4.14x => 265 PEs requested.
        assert!((p.value.unwrap() - 64.0 * 4.14).abs() < 1e-6);
    }

    #[test]
    fn dma_bound_falls_back_to_stepping() {
        let model = toy_model();
        let a = model.analyze(
            &Ctx {
                comp: 100.0,
                dma: 414.0,
                pes: 64.0,
            },
            1,
        );
        assert_eq!(a.bottleneck, "t_dma:a");
        // Param 1 has no registered subroutine => step prediction.
        assert_eq!(a.predictions[0].param, 1);
        assert_eq!(a.predictions[0].value, None);
    }

    #[test]
    fn secondary_factors_add_predictions() {
        let model = toy_model();
        let a = model.analyze(
            &Ctx {
                comp: 100.0,
                dma: 414.0,
                pes: 64.0,
            },
            2,
        );
        let params: Vec<ParamId> = a.predictions.iter().map(|p| p.param).collect();
        assert!(params.contains(&1) && params.contains(&0));
    }

    #[test]
    fn tag_matching_relates_prefixed_nodes() {
        // "t_dma:a" matches the dictionary entry for "t_dma".
        let model = toy_model();
        let a = model.analyze(
            &Ctx {
                comp: 1.0,
                dma: 2.0,
                pes: 64.0,
            },
            1,
        );
        assert_eq!(a.predictions[0].param, 1);
    }

    #[test]
    fn rationales_are_explanations() {
        let model = toy_model();
        let a = model.analyze(
            &Ctx {
                comp: 414.0,
                dma: 100.0,
                pes: 64.0,
            },
            1,
        );
        let r = &a.predictions[0].rationale;
        assert!(
            r.contains('%') && r.contains('x'),
            "rationale should explain: {r}"
        );
    }
}
