#![warn(missing_docs)]
//! Analytical execution model of a spatial DNN accelerator.
//!
//! This crate reimplements the cost-model role that dMazeRunner plays in
//! the Explainable-DSE paper: given an accelerator configuration
//! ([`AcceleratorConfig`]), a DNN layer ([`workloads::LayerShape`]) and a
//! mapping ([`Mapping`]: a four-level loop tiling plus per-memory-level
//! loop-order/stationarity), it computes
//!
//! * the time spent in computation (`T_comp`), per-operand NoC
//!   communication (`T_noc`), and off-chip DMA transfers (`T_dma`),
//!   combined as `latency = max(T_comp, max_op T_noc, T_dma)` under ideal
//!   double buffering (the structure of the paper's Fig. 8);
//! * per-operand data volumes at every level of the hierarchy, NoC
//!   group/broadcast requirements, and exploited/remaining reuse — the
//!   *execution characteristics* the bottleneck model consumes (§4.7);
//! * total inference energy using the [`energy_area`] per-access table.
//!
//! The architecture template matches the paper's: a PE array (one int16
//! MAC + register file per PE), a shared L2 scratchpad, four dedicated
//! operand NoCs with physical and time-shared ("virtual") unicast links,
//! and a DMA engine to off-chip DRAM.
//!
//! # Example
//!
//! ```
//! use accel_model::{AcceleratorConfig, Mapping};
//! use workloads::LayerShape;
//!
//! let cfg = AcceleratorConfig::edge_baseline();
//! let layer = LayerShape::conv(1, 64, 64, 56, 56, 3, 3, 1);
//! let mapping = Mapping::fixed_output_stationary(&layer, &cfg);
//! let profile = cfg.execute(&layer, &mapping).expect("feasible mapping");
//! assert!(profile.latency_cycles > 0.0);
//! assert!(profile.t_comp > 0.0);
//! ```

pub mod arch;
pub mod batch;
pub mod exec;
pub mod mapping;
pub mod profile;
pub mod sim;

pub use arch::AcceleratorConfig;
pub use batch::TilingBatch;
pub use exec::{ExecError, TilingEval, Validity};
pub use mapping::{Level, Mapping, Stationarity, Tiling};
pub use profile::{ExecutionProfile, OperandStats};
pub use sim::{simulate, SimError, SimReport};

#[cfg(test)]
mod props;
