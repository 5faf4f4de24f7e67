#![warn(missing_docs)]
//! Explainable-DSE: agile, explainable design-space exploration of DNN
//! accelerator hardware/software codesigns using bottleneck analysis.
//!
//! This crate is the primary contribution of the reproduced ASPLOS 2023
//! paper. It provides:
//!
//! * [`space`] — design-space descriptions and the paper's Table-1 edge
//!   accelerator space;
//! * [`cost`] — constraints, evaluations, and exploration traces shared by
//!   all DSE techniques;
//! * [`evaluate`] — codesign evaluators that pair hardware decoding with
//!   per-layer mapping optimization and the technology model;
//! * [`bottleneck`] — the bottleneck-model API (tree + parameter
//!   dictionary + mitigation subroutines) and the concrete DNN-accelerator
//!   latency model;
//! * [`diskcache`] — the persistent, content-addressed evaluation cache
//!   that warm-starts repeated runs across processes;
//! * [`technique`] — the ask/tell [`DseTechnique`] shape every search
//!   technique shares, and the [`Problem`] it explores;
//! * [`dse`] — the constraints-aware, bottleneck-guided exploration loop,
//!   [`ExplainableDse`], one such technique;
//! * [`session`] — the one stepwise, cancellable [`SearchDriver`] that
//!   steps every technique, and the [`SearchSession`] front door of the
//!   explainable search (builder-style configuration of evaluator and
//!   telemetry);
//! * [`job`] — the [`JobSpec`] declarative job description shared by the
//!   bench harness and the `edse-serve` service;
//! * [`import`] — the model-description importer (JSON to
//!   [`workloads::DnnModel`]); the [`space::space_from_json`] and
//!   [`JobSpec::from_json_str`] documents read their members the same way;
//! * [`toy`] — the paper's Fig. 4 two-parameter space and single-layer
//!   model;
//! * [`fault`] — the evaluation fault boundary.
//!
//! A search resumes by running again over the same [`diskcache`]: every
//! technique's state is a pure function of its seed, its budget and the
//! evaluations it has observed, so the rerun lands on the same trajectory
//! and maps only what the interrupted run left undone.
//!
//! # Quick start
//!
//! ```
//! use edse_core::bottleneck::dnn_latency_model;
//! use edse_core::{CodesignEvaluator, DseConfig, Evaluator, SearchSession};
//! use edse_core::space::edge_space;
//! use mapper::FixedMapper;
//! use workloads::zoo;
//!
//! let evaluator =
//!     CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper);
//! let initial = evaluator.space().minimum_point();
//! let result = SearchSession::new(
//!     dnn_latency_model(),
//!     DseConfig { budget: 40, ..DseConfig::default() },
//! )
//! .evaluator(&evaluator)
//! .run(initial);
//! assert!(result.trace().evaluations() <= 40);
//! ```

pub mod bottleneck;
pub mod cost;
pub mod diskcache;
pub mod dse;
pub mod evaluate;
pub mod explain;
pub mod fault;
pub mod import;
pub mod job;
pub mod session;
pub mod space;
pub mod technique;
pub mod toy;

pub use bottleneck::{dnn_latency_model, BottleneckModel, BottleneckTree, LayerCtx, TreeBuilder};
pub use cost::{Constraint, Evaluation, LayerEval, Sample, Trace};
pub use diskcache::{DiskCache, DiskCacheStats, LayerOutcome};
pub use dse::{Attempt, DseConfig, DseResult, ExplainableDse, Explanation};
pub use evaluate::{CacheStats, CodesignEvaluator, EvalEngine, Evaluator, TierStats};
pub use fault::EvalFault;
pub use job::JobSpec;
pub use session::{CancelToken, SearchDriver, SearchSession, StepOutcome};
pub use space::{
    datacenter_space, decode_edge_point, edge, edge_space, space_from_json, DesignPoint,
    DesignSpace, ParamDef, ParamId,
};
pub use technique::{DseTechnique, EvalResult, Problem};

/// One-stop import for the public session/driver/job surface:
/// `use edse_core::prelude::*;` brings in everything needed to configure,
/// run, step, cancel, and inspect a search.
pub mod prelude {
    pub use crate::cost::{Constraint, Evaluation, Trace};
    pub use crate::dse::{Attempt, DseConfig, DseResult};
    pub use crate::evaluate::{CacheStats, CodesignEvaluator, EvalEngine, Evaluator};
    pub use crate::job::JobSpec;
    pub use crate::session::{CancelToken, SearchDriver, SearchSession, StepOutcome};
    pub use crate::space::{DesignPoint, DesignSpace};
}
