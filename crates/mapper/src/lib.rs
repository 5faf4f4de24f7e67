#![warn(missing_docs)]
//! Mapping-space construction and mapping optimizers for DNN accelerators.
//!
//! This crate fills the role dMazeRunner's mapper and the Timeloop-style
//! black-box mappers play in the Explainable-DSE paper (§4.8, §F):
//!
//! * [`space`] constructs a pruned space of valid, *effectual* mappings for
//!   one layer on one hardware configuration — valid loop tilings by
//!   divisor factorization, utilization-threshold pruning with automatic
//!   threshold adjustment to yield a top-`N` space, and the three
//!   maximal-reuse loop-order classes per memory level;
//! * [`optimize`] provides the optimizers compared in the paper:
//!   the linear (exhaustive-over-pruned-space) dMazeRunner-style mapper,
//!   Timeloop-style random search, simulated annealing, and a genetic
//!   algorithm (Fig. 15);
//! * [`size`] reproduces the paper's Table 7 mapping-space size analysis
//!   (columns A-H).
//!
//! # Example
//!
//! ```
//! use accel_model::AcceleratorConfig;
//! use mapper::{LinearMapper, MappingOptimizer};
//! use workloads::LayerShape;
//!
//! let cfg = AcceleratorConfig::edge_baseline();
//! let layer = LayerShape::conv(1, 64, 64, 56, 56, 3, 3, 1);
//! let mut mapper = LinearMapper::new(200);
//! let best = mapper.optimize(&layer, &cfg).expect("a feasible mapping exists");
//! assert!(best.profile.latency_cycles > 0.0);
//! ```

pub mod optimize;
pub mod size;
pub mod space;
pub mod sweep;

pub use optimize::{
    AnnealingMapper, FaultInjector, FixedMapper, GeneticMapper, InstrumentedMapper,
    InterstellarMapper, LinearMapper, MappedLayer, MappingOptimizer, RandomMapper,
};
pub use size::{layer_space_size, SpaceSize};
pub use space::{space_cache_stats, MappingSpace, SpaceBudget, SpaceCacheStats, Thresholds};
pub use sweep::{sweep_stats, SweepConf, SweepStats};

#[cfg(test)]
mod props;
#[cfg(test)]
mod space_edges;
