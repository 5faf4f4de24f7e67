//! Event-driven validation simulator for the analytical execution model.
//!
//! The paper's evaluation (like dMazeRunner's) rests on analytical cost
//! models; their known soundness risk is the ideal-overlap assumption
//! (`latency = max(T_comp, T_comm, T_dma)`). This module *simulates* the
//! tile pipeline instead: it walks the actual DRAM-level and
//! scratchpad-level loop nests in stationarity order, detects per-step
//! operand (re)loads exactly, and advances a double-buffered two-level
//! pipeline — DMA fetch ahead of NoC delivery ahead of compute.
//!
//! The simulated latency is a *refinement* of the analytical bound:
//!
//! * it can never be smaller than the busiest resource's total busy time
//!   (the analytical `max`), and
//! * it approaches that bound when one factor dominates, but exposes the
//!   pipeline fill/drain and per-step imbalance the analytical model
//!   ignores.
//!
//! Tests (and the `validate_model` experiment binary) assert exactly this
//! sandwich, which is how we validate the analytical substrate without the
//! authors' testbed.

use crate::arch::AcceleratorConfig;
use crate::exec::Validity;
use crate::mapping::{tile_volume, Level, Mapping};
use workloads::layer::Dim;
use workloads::{LayerShape, Tensor};

/// Outcome of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimReport {
    /// End-to-end simulated latency in cycles.
    pub cycles: f64,
    /// Total cycles the DMA engine was busy.
    pub dma_busy: f64,
    /// Total busy cycles of the busiest operand NoC.
    pub noc_busy: f64,
    /// Total compute cycles (MACs / PEs used).
    pub compute_busy: f64,
    /// DRAM-level steps simulated.
    pub dram_steps: u64,
    /// Scratchpad-level steps simulated per DRAM step.
    pub l2_steps: u64,
}

impl SimReport {
    /// The analytical ideal-overlap bound implied by the simulated busy
    /// times: `max(compute, noc, dma)`.
    pub fn ideal_bound(&self) -> f64 {
        self.compute_busy.max(self.noc_busy).max(self.dma_busy)
    }

    /// Pipeline inefficiency: simulated cycles over the ideal bound
    /// (1.0 = the analytical model was exact).
    pub fn overlap_inefficiency(&self) -> f64 {
        self.cycles / self.ideal_bound().max(1.0)
    }
}

/// Why a simulation could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The mapping is invalid or infeasible for the configuration.
    Infeasible(String),
    /// The loop nest has more steps than `max_steps` allows.
    TooLarge {
        /// Steps the nest requires.
        steps: u64,
        /// The configured limit.
        limit: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Infeasible(e) => write!(f, "infeasible mapping: {e}"),
            SimError::TooLarge { steps, limit } => {
                write!(
                    f,
                    "nest of {steps} steps exceeds the simulation limit {limit}"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A multi-index iterator over one temporal level's loop nest, ordered so
/// that dimensions irrelevant to the stationary operand spin innermost
/// (the same ordering abstraction the analytical model uses).
struct NestWalker {
    /// Dimension order, outermost first.
    dims: Vec<Dim>,
    /// Extent per dimension (aligned with `dims`).
    extents: Vec<u64>,
    /// Current indices.
    idx: Vec<u64>,
    done: bool,
}

impl NestWalker {
    fn new(layer: &LayerShape, mapping: &Mapping, level: Level, stationary: Tensor) -> Self {
        let t = &mapping.tiling;
        // Relevant dims of the stationary operand outermost; its irrelevant
        // (reuse) dims innermost.
        let mut dims: Vec<Dim> = Dim::ALL
            .iter()
            .copied()
            .filter(|d| layer.relevant(stationary, *d))
            .collect();
        dims.extend(
            Dim::ALL
                .iter()
                .copied()
                .filter(|d| !layer.relevant(stationary, *d)),
        );
        let extents = dims.iter().map(|d| t.factor(*d, level)).collect();
        Self {
            dims,
            extents,
            idx: vec![0; 7],
            done: false,
        }
    }

    fn steps(&self) -> u64 {
        self.extents.iter().product()
    }

    /// Advances to the next step; returns the set of dimensions whose index
    /// changed, or `None` when the nest is exhausted.
    fn advance(&mut self) -> Option<Vec<Dim>> {
        if self.done {
            return None;
        }
        let mut changed = Vec::new();
        for i in (0..self.dims.len()).rev() {
            if self.extents[i] <= 1 {
                continue;
            }
            changed.push(self.dims[i]);
            self.idx[i] += 1;
            if self.idx[i] < self.extents[i] {
                return Some(changed);
            }
            self.idx[i] = 0;
        }
        self.done = true;
        None
    }
}

/// Per-operand bytes moved when its tile at `level` is (re)loaded.
fn tile_bytes(layer: &LayerShape, mapping: &Mapping, level: Level, op: Tensor, elem: u64) -> f64 {
    (tile_volume(layer, |d| mapping.tiling.tile_extent(d, level), op) * elem) as f64
}

/// Simulates one layer/mapping on a configuration.
///
/// `max_steps` bounds `dram_steps * l2_steps`; larger nests return
/// [`SimError::TooLarge`] (the simulator exists to validate the analytical
/// model on tractable cases, not to replace it).
///
/// # Errors
///
/// [`SimError::Infeasible`] when the mapping does not validate;
/// [`SimError::TooLarge`] when the nest exceeds `max_steps`.
pub fn simulate(
    cfg: &AcceleratorConfig,
    layer: &LayerShape,
    mapping: &Mapping,
    max_steps: u64,
) -> Result<SimReport, SimError> {
    Validity::check(cfg, layer, mapping).map_err(|e| SimError::Infeasible(e.to_string()))?;
    let t = &mapping.tiling;
    let elem = cfg.elem_bytes;

    let dram_steps = t.steps(Level::Dram);
    let l2_steps = t.steps(Level::Spm);
    let total = dram_steps.saturating_mul(l2_steps);
    if total > max_steps {
        return Err(SimError::TooLarge {
            steps: total,
            limit: max_steps,
        });
    }

    // --- static per-event costs.
    let bw = cfg.offchip_bytes_per_cycle();
    let noc_bpc = cfg.noc_bytes_per_cycle();
    let rf_steps: u64 = Dim::ALL.iter().map(|d| t.factor(*d, Level::Rf)).product();
    let compute_per_l2_step = rf_steps as f64; // one MAC per PE per cycle

    // NoC delivery time for one operand's RF tile to all its groups.
    let noc_delivery = |op: Tensor| -> f64 {
        let groups = crate::exec::noc_groups(layer, t, op);
        let links = cfg.noc_phys_links[op.index()].max(1);
        let rounds = groups.div_ceil(links);
        let bytes = tile_bytes(layer, mapping, Level::Rf, op, elem);
        rounds as f64 * (bytes / noc_bpc).ceil()
    };
    let dma_fetch = |op: Tensor| -> f64 {
        let bytes = tile_bytes(layer, mapping, Level::Spm, op, elem);
        bytes / bw + cfg.dma_burst_overhead_cycles as f64
    };

    // --- outer (DRAM) walk: which operands reload per step.
    let dram_st = mapping.dram_order.tensor();
    let mut outer = NestWalker::new(layer, mapping, Level::Dram, dram_st);
    debug_assert_eq!(outer.steps(), dram_steps);

    // --- inner (SPM) per-step profile, computed once: the inner nest is
    // identical across DRAM steps. Simulate its NoC/compute pipeline.
    let spm_st = mapping.spm_order.tensor();
    let mut inner = NestWalker::new(layer, mapping, Level::Spm, spm_st);
    let mut inner_noc_busy = 0.0f64;
    let mut inner_pipeline_end;
    let mut noc_ready = 0.0f64;
    let mut compute_done = 0.0f64;
    // First inner step loads every operand.
    let mut reload: Vec<bool> = vec![true; 4];
    loop {
        let delivery: f64 = Tensor::ALL
            .iter()
            .filter(|op| reload[op.index()] && !matches!(op, Tensor::OutputRead))
            .map(|op| noc_delivery(*op))
            .sum();
        inner_noc_busy += delivery;
        // Double-buffered: delivery of step i overlaps compute of step i-1.
        noc_ready = noc_ready.max(compute_done - compute_per_l2_step) + delivery;
        compute_done = noc_ready.max(compute_done) + compute_per_l2_step;
        inner_pipeline_end = compute_done;

        match inner.advance() {
            Some(changed) => {
                for op in Tensor::ALL {
                    reload[op.index()] = changed.iter().any(|d| layer.relevant(op, *d));
                }
            }
            None => break,
        }
    }

    // --- outer pipeline: DMA fetch of step i+1 overlaps processing of i.
    let mut dma_busy = 0.0f64;
    let mut fetch_done = 0.0f64;
    let mut proc_done = 0.0f64;
    let mut outer_reload: Vec<bool> = vec![true; 4];
    loop {
        let fetch: f64 = Tensor::ALL
            .iter()
            .filter(|op| outer_reload[op.index()] && !matches!(op, Tensor::OutputRead))
            .map(|op| dma_fetch(*op))
            .sum();
        dma_busy += fetch;
        fetch_done = fetch_done.max(proc_done - inner_pipeline_end) + fetch;
        proc_done = fetch_done.max(proc_done) + inner_pipeline_end;

        match outer.advance() {
            Some(changed) => {
                for op in Tensor::ALL {
                    outer_reload[op.index()] = changed.iter().any(|d| layer.relevant(op, *d));
                }
            }
            None => break,
        }
    }

    let compute_busy = layer.macs() as f64 / t.pes_used() as f64;
    Ok(SimReport {
        cycles: proc_done,
        dma_busy,
        noc_busy: inner_noc_busy * dram_steps as f64,
        compute_busy,
        dram_steps,
        l2_steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Mapping;

    fn setup(layer: LayerShape) -> (AcceleratorConfig, Mapping) {
        let cfg = AcceleratorConfig::edge_baseline();
        let m = Mapping::fixed_output_stationary(&layer, &cfg);
        (cfg, m)
    }

    #[test]
    fn simulation_sandwiches_the_analytical_bound() {
        let layer = LayerShape::conv(1, 64, 64, 14, 14, 3, 3, 1);
        let (cfg, m) = setup(layer);
        let analytical = cfg.execute(&layer, &m).expect("feasible");
        let sim = simulate(&cfg, &layer, &m, 2_000_000).expect("simulable");
        // The pipeline can never beat the busiest resource...
        assert!(
            sim.cycles >= sim.ideal_bound() * 0.999,
            "sim {} below its own bound {}",
            sim.cycles,
            sim.ideal_bound()
        );
        // ...and the analytical latency is the same kind of bound.
        assert!(
            sim.cycles >= analytical.latency_cycles * 0.5,
            "sim {} far below analytical {}",
            sim.cycles,
            analytical.latency_cycles
        );
        // Overlap inefficiency is bounded for sane mappings.
        assert!(
            sim.overlap_inefficiency() < 4.0,
            "{}",
            sim.overlap_inefficiency()
        );
    }

    #[test]
    fn compute_bound_case_approaches_ideal() {
        // Huge bandwidth + wide NoCs: compute dominates and the pipeline
        // should be near-perfect.
        let layer = LayerShape::conv(1, 32, 64, 14, 14, 3, 3, 1);
        let cfg = AcceleratorConfig {
            pes: 64,
            offchip_bw_mbps: 51_200,
            noc_width_bits: 256,
            noc_phys_links: [64; 4],
            noc_virt_links: [512; 4],
            ..AcceleratorConfig::edge_baseline()
        };
        let m = Mapping::fixed_output_stationary(&layer, &cfg);
        let sim = simulate(&cfg, &layer, &m, 2_000_000).expect("simulable");
        assert!(
            sim.overlap_inefficiency() < 1.6,
            "compute-bound pipeline should be tight: {}",
            sim.overlap_inefficiency()
        );
        assert!(sim.compute_busy >= sim.dma_busy);
    }

    #[test]
    fn too_large_nests_are_rejected() {
        let layer = LayerShape::conv(1, 512, 512, 56, 56, 3, 3, 1);
        let cfg = AcceleratorConfig {
            noc_phys_links: [512; 4],
            noc_virt_links: [512; 4],
            ..AcceleratorConfig::edge_minimum()
        };
        let m = Mapping::fixed_output_stationary(&layer, &cfg);
        match simulate(&cfg, &layer, &m, 10) {
            Err(SimError::TooLarge { steps, limit }) => {
                assert!(steps > limit);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_mappings_are_rejected() {
        let layer = LayerShape::conv(1, 64, 64, 14, 14, 3, 3, 1);
        let cfg = AcceleratorConfig {
            noc_phys_links: [1; 4],
            noc_virt_links: [1; 4],
            ..AcceleratorConfig::edge_baseline()
        };
        let m = Mapping::fixed_output_stationary(&layer, &cfg);
        assert!(matches!(
            simulate(&cfg, &layer, &m, 1_000_000),
            Err(SimError::Infeasible(_))
        ));
    }

    #[test]
    fn busy_times_match_analytical_characteristics() {
        let layer = LayerShape::conv(1, 64, 32, 14, 14, 3, 3, 1);
        let (cfg, m) = setup(layer);
        let analytical = cfg.execute(&layer, &m).expect("feasible");
        let sim = simulate(&cfg, &layer, &m, 2_000_000).expect("simulable");
        // Compute busy time is identical by construction.
        assert!((sim.compute_busy - analytical.t_comp).abs() < 1e-6);
        // The simulator walks the same reuse pattern, so its DMA busy time
        // should track the analytical DMA time (burst accounting differs
        // slightly: per-tile overhead vs per-run overhead).
        let ratio = sim.dma_busy / analytical.t_dma.max(1.0);
        assert!((0.3..3.0).contains(&ratio), "dma ratio {ratio}");
    }
}
