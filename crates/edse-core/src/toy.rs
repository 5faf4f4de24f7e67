//! The paper's Fig. 4 toy setting, shared by `fig04_toy_trace`, the
//! conformance suite and `edse-serve`'s `"toy"` space: a two-parameter
//! exploration (#PEs x shared-memory size) for a late ResNet convolution,
//! with every other parameter frozen at its largest value. Small enough
//! that a full search runs in well under a second, which makes it the
//! standard fixture for paper-bound assertions (explainable vs black-box
//! iterations-to-target, as in Fig. 4/11).

use crate::space::{edge, edge_space, DesignSpace, ParamDef};
use workloads::{DnnModel, Layer, LayerShape, ThroughputTarget};

/// The edge space with every parameter except #PEs and L2 frozen to its
/// largest value (single-option domains).
pub fn toy_space() -> DesignSpace {
    let full = edge_space();
    let params = full
        .params()
        .iter()
        .enumerate()
        .map(|(i, p)| {
            if i == edge::PES || i == edge::L2_KB {
                p.clone()
            } else {
                let largest = p.values()[p.len() - 1];
                ParamDef::new(p.name(), vec![largest])
            }
        })
        .collect();
    DesignSpace::new(params)
}

/// The single CONV5_2-class workload of the toy setting.
pub fn single_layer_model() -> DnnModel {
    DnnModel::new(
        "ResNet-CONV5_2",
        vec![Layer::new(
            "conv5_2b",
            LayerShape::conv(1, 512, 512, 7, 7, 3, 3, 1),
            1,
        )],
        ThroughputTarget::fps(40.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toy_space_frees_exactly_two_parameters() {
        let space = toy_space();
        let free: Vec<usize> = space
            .params()
            .iter()
            .enumerate()
            .filter(|(_, p)| p.len() > 1)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(free, vec![edge::PES, edge::L2_KB]);
    }

    #[test]
    fn toy_model_is_a_single_conv() {
        let m = single_layer_model();
        assert_eq!(m.layer_count(), 1);
        assert_eq!(m.unique_shape_count(), 1);
    }
}
