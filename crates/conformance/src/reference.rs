//! A straight-line reference implementation of the codesign cost model.
//!
//! [`edse_core::CodesignEvaluator`] earns its speed from sharded memo
//! tables, batch fan-out, and a fault boundary. This module reimplements
//! the *arithmetic* of an evaluation with none of that machinery: decode
//! the point, price area and power, map every unique layer of every model
//! in declaration order, and accumulate latency/energy in exactly the
//! order the fast path does. Because f64 addition is order-sensitive, the
//! matching order makes the two paths **bit-identical**, which is what the
//! differential oracle in `tests/oracles.rs` asserts — any divergence
//! means a cache, batching, or fault-path change leaked into results.

use edse_core::cost::{Constraint, Evaluation, LayerEval};
use edse_core::space::{decode_edge_point, DesignPoint, DesignSpace};
use edse_core::LayerOutcome;
use energy_area::Tech;
use mapper::MappingOptimizer;
use std::sync::Arc;
use workloads::DnnModel;

/// The cacheless, boundary-free reference evaluator.
pub struct NaiveReferenceEvaluator<M> {
    space: DesignSpace,
    constraints: Vec<Constraint>,
    models: Vec<DnnModel>,
    tech: Tech,
    mapper: M,
}

impl<M: MappingOptimizer> NaiveReferenceEvaluator<M> {
    /// Builds the reference with the same constraint list construction as
    /// [`edse_core::CodesignEvaluator::new`]: area < 75 mm², power < 4 W,
    /// one latency ceiling per model, at 45 nm.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn new(space: DesignSpace, models: Vec<DnnModel>, mapper: M) -> Self {
        assert!(!models.is_empty(), "need at least one target workload");
        let mut constraints = vec![
            Constraint::new("area_mm2", 75.0),
            Constraint::new("power_w", 4.0),
        ];
        for m in &models {
            constraints.push(Constraint::new(
                format!("latency_ms:{}", m.name()),
                m.target().latency_ceiling_ms(),
            ));
        }
        NaiveReferenceEvaluator {
            space,
            constraints,
            models,
            tech: Tech::n45(),
            mapper,
        }
    }

    /// The constraint list, aligned with `Evaluation::constraint_values`.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The design space the reference decodes against.
    pub fn space(&self) -> &DesignSpace {
        &self.space
    }

    /// Evaluates one point from first principles: no memo tables, no
    /// batching, no panic guard — every mapper call runs fresh.
    pub fn evaluate(&self, point: &DesignPoint) -> Evaluation {
        let cfg = decode_edge_point(&self.space, point);
        let area = cfg.area_mm2(&self.tech);
        let power = cfg.max_power_w(&self.tech);

        let mut layers = Vec::new();
        let mut per_model_latency = Vec::with_capacity(self.models.len());
        let mut energy_mj = 0.0;
        let mut mappable = true;
        for model in &self.models {
            let mut model_latency = 0.0f64;
            for u in model.unique_shapes() {
                let mapped = self.mapper.optimize(&u.shape, &cfg);
                let diagnostic = if mapped.is_none() {
                    self.mapper.diagnose(&u.shape, &cfg)
                } else {
                    None
                };
                mappable &= mapped.is_some();
                let profile = mapped.map(|m| m.profile).or(diagnostic);
                let latency_ms = profile
                    .map(|p| p.latency_ms(cfg.freq_mhz) * u.count as f64)
                    .unwrap_or(f64::INFINITY);
                if let Some(m) = &mapped {
                    energy_mj += m.profile.energy_mj() * u.count as f64;
                }
                model_latency += latency_ms;
                let outcome = match mapped {
                    Some(m) => LayerOutcome::Mapped(m),
                    None => LayerOutcome::Unmappable(diagnostic),
                };
                layers.push(LayerEval {
                    name: u.name.into(),
                    model: model.name().into(),
                    count: u.count,
                    outcome: Arc::new(outcome),
                    latency_ms,
                });
            }
            per_model_latency.push(model_latency);
        }

        let objective: f64 = per_model_latency.iter().sum();
        let mut constraint_values = vec![area, power];
        constraint_values.extend(per_model_latency);
        Evaluation {
            objective,
            mappable,
            constraint_values,
            layers,
            area_mm2: area,
            power_w: power,
            energy_mj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edse_core::space::edge_space;
    use mapper::FixedMapper;
    use workloads::zoo;

    #[test]
    fn reference_constraints_match_the_fast_path() {
        use edse_core::Evaluator as _;
        let models = vec![zoo::resnet18(), zoo::bert_base()];
        let reference = NaiveReferenceEvaluator::new(edge_space(), models.clone(), FixedMapper);
        let fast = edse_core::CodesignEvaluator::new(edge_space(), models, FixedMapper);
        assert_eq!(reference.constraints(), fast.constraints());
    }
}
