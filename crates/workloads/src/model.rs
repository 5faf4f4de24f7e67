//! Whole-model descriptions: named layer lists with repeat counts, plus
//! unique-shape extraction used by the DSE (the paper analyzes bottlenecks
//! per *unique* execution-critical operator shape and weights them by how
//! often the shape occurs in the network).

use crate::constraints::ThroughputTarget;
use crate::layer::LayerShape;
use std::collections::BTreeMap;

/// One named operator instance in a network, possibly repeated.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Layer {
    /// Layer name as it would appear in the framework export.
    pub name: String,
    /// Operator shape.
    pub shape: LayerShape,
    /// Number of times this exact layer occurs consecutively (identical
    /// repeated blocks are collapsed to keep the tables readable).
    pub repeat: u64,
}

impl Layer {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, shape: LayerShape, repeat: u64) -> Self {
        assert!(repeat > 0, "layer repeat count must be non-zero");
        Self {
            name: name.into(),
            shape,
            repeat,
        }
    }
}

/// A unique operator shape together with how many layer instances share it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniqueShape {
    /// Representative name (first layer encountered with this shape).
    pub name: String,
    /// The shape.
    pub shape: LayerShape,
    /// Total occurrences across the network (sum of repeats).
    pub count: u64,
}

/// A deep neural network as an ordered list of execution-critical operators.
#[derive(Debug, Clone, PartialEq)]
pub struct DnnModel {
    name: String,
    layers: Vec<Layer>,
    target: ThroughputTarget,
}

impl DnnModel {
    /// Builds a model description.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty.
    pub fn new(name: impl Into<String>, layers: Vec<Layer>, target: ThroughputTarget) -> Self {
        assert!(!layers.is_empty(), "a model needs at least one layer");
        Self {
            name: name.into(),
            layers,
            target,
        }
    }

    /// Model name, e.g. `"ResNet18"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Ordered layer list (repeated blocks collapsed via [`Layer::repeat`]).
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// The inference throughput requirement for this model (drives the
    /// latency constraint of the DSE).
    pub fn target(&self) -> ThroughputTarget {
        self.target
    }

    /// Total number of operator instances (expanding repeats).
    pub fn layer_count(&self) -> u64 {
        self.layers.iter().map(|l| l.repeat).sum()
    }

    /// Total multiply-accumulate operations for one inference.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.shape.macs() * l.repeat).sum()
    }

    /// Unique operator shapes with occurrence counts, in first-seen order.
    ///
    /// The DSE performs bottleneck analysis once per unique shape and weights
    /// the result by `count`, exactly as the paper evaluates e.g. an
    /// 18-layer DNN with "nine layers of unique tensor shapes".
    pub fn unique_shapes(&self) -> Vec<UniqueShape> {
        let mut order: Vec<LayerShape> = Vec::new();
        let mut acc: BTreeMap<LayerShape, (String, u64)> = BTreeMap::new();
        for l in &self.layers {
            match acc.get_mut(&l.shape) {
                Some((_, count)) => *count += l.repeat,
                None => {
                    order.push(l.shape);
                    acc.insert(l.shape, (l.name.clone(), l.repeat));
                }
            }
        }
        order
            .into_iter()
            .map(|shape| {
                let (name, count) = acc[&shape].clone();
                UniqueShape { name, shape, count }
            })
            .collect()
    }

    /// The same model at a different batch size (every layer's `N` extent
    /// scaled; the throughput target is unchanged — callers decide whether
    /// a batched pass amortizes it).
    pub fn with_batch(&self, n: u64) -> Self {
        let layers = self
            .layers
            .iter()
            .map(|l| Layer {
                name: l.name.clone(),
                shape: l.shape.with_batch(n),
                repeat: l.repeat,
            })
            .collect();
        Self {
            name: format!("{}@b{n}", self.name),
            layers,
            target: self.target,
        }
    }

    /// The `l` used for the paper's aggregation threshold
    /// `0.5 * (1/l) * 100%`: the number of unique shapes.
    pub fn unique_shape_count(&self) -> usize {
        self.unique_shapes().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::ThroughputTarget;
    use crate::layer::LayerShape;

    fn toy() -> DnnModel {
        DnnModel::new(
            "toy",
            vec![
                Layer::new("a", LayerShape::conv(1, 8, 3, 8, 8, 3, 3, 1), 1),
                Layer::new("b", LayerShape::conv(1, 8, 8, 8, 8, 3, 3, 1), 3),
                Layer::new("c", LayerShape::conv(1, 8, 8, 8, 8, 3, 3, 1), 2),
                Layer::new("d", LayerShape::gemm(10, 1, 128), 1),
            ],
            ThroughputTarget::fps(30.0),
        )
    }

    #[test]
    fn unique_shapes_merge_counts() {
        let m = toy();
        let u = m.unique_shapes();
        assert_eq!(u.len(), 3);
        assert_eq!(m.layer_count(), 7);
        // b and c share a shape: 3 + 2 occurrences.
        let merged = u.iter().find(|s| s.name == "b").unwrap();
        assert_eq!(merged.count, 5);
        // First-seen order is preserved.
        assert_eq!(u[0].name, "a");
    }

    #[test]
    fn total_macs_weights_repeats() {
        let m = toy();
        let by_hand: u64 = m.layers().iter().map(|l| l.shape.macs() * l.repeat).sum();
        assert_eq!(m.total_macs(), by_hand);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_model_rejected() {
        let _ = DnnModel::new("empty", vec![], ThroughputTarget::fps(1.0));
    }
}
