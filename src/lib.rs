#![warn(missing_docs)]
//! Explainable-DSE: a reproduction of "Explainable-DSE: An Agile and
//! Explainable Exploration of Efficient HW/SW Codesigns of Deep Learning
//! Accelerators Using Bottleneck Analysis" (ASPLOS 2023) as a Rust library
//! suite.
//!
//! This facade crate re-exports the workspace members so applications can
//! depend on a single crate:
//!
//! * [`core`] (`edse-core`) — bottleneck models, the analyzer, and the
//!   Explainable-DSE loop;
//! * [`accel`] (`accel-model`) — the analytical accelerator execution model;
//! * [`tech`] (`energy-area`) — area/energy/power technology models;
//! * [`mapping`] (`mapper`) — mapping-space construction and optimizers;
//! * [`nets`] (`workloads`) — the eleven evaluated DNN workloads;
//! * [`opt`] (`baselines`) — non-explainable baseline optimizers and the
//!   registry of every technique (`opt::by_name`).
//!
//! See `examples/quickstart.rs` for an end-to-end run and DESIGN.md /
//! EXPERIMENTS.md for the experiment inventory.

pub use accel_model as accel;
pub use baselines as opt;
pub use edse_core as core;
pub use energy_area as tech;
pub use mapper as mapping;
pub use workloads as nets;

/// Convenience prelude pulling in the types most applications need.
pub mod prelude {
    pub use accel_model::{AcceleratorConfig, ExecutionProfile, Mapping};
    pub use baselines::{BaselineSession, DseTechnique};
    pub use edse_core::bottleneck::{dnn_latency_model, BottleneckModel, LayerCtx, TreeBuilder};
    pub use edse_core::dse::{Attempt, DseConfig, DseResult, ExplainableDse};
    pub use edse_core::evaluate::{CodesignEvaluator, EvalEngine, Evaluator};
    pub use edse_core::fault::EvalFault;
    pub use edse_core::session::SearchSession;
    pub use edse_core::space::{edge_space, DesignPoint, DesignSpace};
    pub use edse_core::{Constraint, Trace};
    pub use mapper::{FixedMapper, LinearMapper, MappingOptimizer, RandomMapper};
    pub use workloads::{zoo, DnnModel, LayerShape};
}
