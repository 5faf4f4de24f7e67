//! The execution model: validity checks and cost/characteristic evaluation.

use crate::arch::AcceleratorConfig;
use crate::mapping::{rf_bytes, spm_bytes, tile_volume, Level, Mapping, Stationarity, Tiling};
use crate::profile::{ExecutionProfile, OperandStats};
use energy_area::{EnergyTable, Tech};
use std::fmt;
use workloads::layer::Dim;
use workloads::{LayerShape, Tensor};

/// Why a mapping cannot execute on a configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The tiling's factor products do not match the layer extents.
    InvalidTiling(String),
    /// More PEs spatialized than available.
    PesExceeded {
        /// PEs required by the spatial factors.
        used: u64,
        /// PEs available.
        available: u64,
    },
    /// Register-file working set exceeds L1 capacity.
    RfOverflow {
        /// Bytes needed per PE.
        needed: u64,
        /// Bytes available per PE.
        available: u64,
    },
    /// Scratchpad working set exceeds L2 capacity.
    SpmOverflow {
        /// Bytes needed.
        needed: u64,
        /// Bytes available.
        available: u64,
    },
    /// An operand needs more concurrent PE groups than its NoC can serve
    /// even with time-shared (virtual) unicasting — the hardware/dataflow
    /// incompatibility the paper highlights for fixed-dataflow DSE.
    NocInfeasible {
        /// The starved operand.
        operand: Tensor,
        /// PE groups needing distinct data.
        groups: u64,
        /// `physical links x virtual (time-shared) instances`.
        capacity: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::InvalidTiling(msg) => write!(f, "invalid tiling: {msg}"),
            ExecError::PesExceeded { used, available } => {
                write!(
                    f,
                    "spatial factors need {used} PEs, only {available} available"
                )
            }
            ExecError::RfOverflow { needed, available } => {
                write!(
                    f,
                    "register file overflow: {needed} B needed, {available} B available"
                )
            }
            ExecError::SpmOverflow { needed, available } => {
                write!(
                    f,
                    "scratchpad overflow: {needed} B needed, {available} B available"
                )
            }
            ExecError::NocInfeasible {
                operand,
                groups,
                capacity,
            } => write!(
                f,
                "NoC for {} cannot serve {groups} PE groups (capacity {capacity})",
                operand.tag()
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// Cheap validity/utilization summary used by mapping-space pruning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Validity {
    /// PE-array utilization in `[0, 1]`.
    pub pe_utilization: f64,
    /// Register-file utilization in `[0, 1]`.
    pub rf_utilization: f64,
    /// Scratchpad utilization in `[0, 1]`.
    pub spm_utilization: f64,
}

impl Validity {
    /// Checks a mapping against a layer and configuration without running
    /// the full cost evaluation.
    ///
    /// # Errors
    ///
    /// Returns the first violated resource as an [`ExecError`].
    pub fn check(
        cfg: &AcceleratorConfig,
        layer: &LayerShape,
        mapping: &Mapping,
    ) -> Result<Self, ExecError> {
        let t = &mapping.tiling;
        Tiling::from_factors(layer, *t.factors()).map_err(ExecError::InvalidTiling)?;

        let used = t.pes_used();
        if used > cfg.pes {
            return Err(ExecError::PesExceeded {
                used,
                available: cfg.pes,
            });
        }
        let rf = rf_bytes(layer, t, cfg.elem_bytes);
        if rf > cfg.l1_bytes {
            return Err(ExecError::RfOverflow {
                needed: rf,
                available: cfg.l1_bytes,
            });
        }
        let spm = spm_bytes(layer, t, cfg.elem_bytes);
        if spm > cfg.l2_bytes {
            return Err(ExecError::SpmOverflow {
                needed: spm,
                available: cfg.l2_bytes,
            });
        }
        for op in Tensor::ALL {
            // The psum-read NoC needs links only when partial sums are
            // ever evicted and re-read (output-stationary mappings
            // complete reductions in place and never use it).
            if op == Tensor::OutputRead && !output_reads_back(layer, mapping) {
                continue;
            }
            let groups = noc_groups(layer, t, op);
            let capacity = cfg.noc_phys_links[op.index()] * cfg.noc_virt_links[op.index()];
            if groups > capacity {
                return Err(ExecError::NocInfeasible {
                    operand: op,
                    groups,
                    capacity,
                });
            }
        }
        Ok(Self {
            pe_utilization: used as f64 / cfg.pes as f64,
            rf_utilization: rf as f64 / cfg.l1_bytes as f64,
            spm_utilization: spm as f64 / cfg.l2_bytes as f64,
        })
    }
}

/// Whether a mapping ever evicts and re-reads partial sums (at either
/// memory boundary).
pub(crate) fn output_reads_back(layer: &LayerShape, mapping: &Mapping) -> bool {
    let t = &mapping.tiling;
    let out = Tensor::OutputWrite;
    let visits_dram = irrelevant_iters(layer, t, Level::Dram, out)
        / reuse_at(layer, t, Level::Dram, mapping.dram_order, out);
    let visits_l2 = irrelevant_iters(layer, t, Level::Spm, out)
        / reuse_at(layer, t, Level::Spm, mapping.spm_order, out);
    visits_dram * visits_l2 > 1.0
}

/// PE groups needing distinct data for an operand: the product of spatial
/// factors over the operand's *relevant* dimensions (PEs along irrelevant
/// spatial dimensions share data via multicast).
pub(crate) fn noc_groups(layer: &LayerShape, t: &Tiling, op: Tensor) -> u64 {
    Dim::ALL
        .iter()
        .filter(|d| layer.relevant(op, **d))
        .map(|d| t.factor(*d, Level::Spatial))
        .product()
}

/// Reuse of `op` exploited at a temporal `level` under loop-order class
/// `order`: the product of that level's factors over dimensions irrelevant
/// to both `op` and the stationary tensor (those loops sit innermost, so
/// `op` stays resident across them).
fn reuse_at(layer: &LayerShape, t: &Tiling, level: Level, order: Stationarity, op: Tensor) -> f64 {
    let st = order.tensor();
    Dim::ALL
        .iter()
        .filter(|d| !layer.relevant(op, **d) && !layer.relevant(st, **d))
        .map(|d| t.factor(*d, level) as f64)
        .product()
}

/// Product of a level's factors over dimensions irrelevant to `op`
/// (the total reuse available at that level).
fn irrelevant_iters(layer: &LayerShape, t: &Tiling, level: Level, op: Tensor) -> f64 {
    Dim::ALL
        .iter()
        .filter(|d| !layer.relevant(op, **d))
        .map(|d| t.factor(*d, level) as f64)
        .product()
}

/// Contiguous DRAM burst length (elements) for an operand's SPM tile,
/// walking the tensor's innermost layout dimensions while the tile covers
/// them fully (the dMazeRunner "non-contiguous access" model).
fn contiguous_run_elems(layer: &LayerShape, t: &Tiling, op: Tensor) -> f64 {
    // Layout orders, innermost first.
    let dims: &[Dim] = match op {
        Tensor::Weight => &[Dim::Fx, Dim::Fy, Dim::C, Dim::M],
        Tensor::Input => &[Dim::Ox, Dim::Oy, Dim::C, Dim::N],
        Tensor::OutputRead | Tensor::OutputWrite => &[Dim::Ox, Dim::Oy, Dim::M, Dim::N],
    };
    let mut run = 1.0;
    for &d in dims {
        let tile = t.tile_extent(d, Level::Spm);
        run *= tile as f64;
        if tile < layer.dim(d) {
            break;
        }
    }
    run.max(1.0)
}

/// Position of a stationarity class in [`Stationarity::ALL`] — the row
/// index of [`TilingEval`]'s precomputed reuse tables.
#[inline]
pub(crate) fn st_index(order: Stationarity) -> usize {
    match order {
        Stationarity::InputStationary => 0,
        Stationarity::WeightStationary => 1,
        Stationarity::OutputStationary => 2,
    }
}

/// Ordering-invariant per-operand quantities, precomputed once per tiling.
/// Fields are crate-visible so [`crate::batch::TilingBatch`] can scatter
/// them into its struct-of-arrays scratch.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct OperandPre {
    /// SPM tile volume in elements.
    pub(crate) spm_tile: f64,
    /// `rf_tile * elem` (also the NoC bytes per PE group).
    pub(crate) rf_tile_bytes: f64,
    pub(crate) spm_tile_bytes: f64,
    pub(crate) noc_groups: u64,
    pub(crate) noc_rounds: u64,
    /// `groups * rf_tile * elem` — NoC bytes per SPM-to-PEs delivery.
    pub(crate) transmitted_per_delivery: f64,
    /// `noc_rounds * ceil(rf_tile * elem / noc_bpc)` — NoC cycles per delivery.
    pub(crate) cycles_per_delivery: f64,
    /// Total reuse available at the SPM level (`irrelevant_iters`).
    pub(crate) irr_l2: f64,
    /// Total reuse available at the DRAM level.
    pub(crate) irr_dram: f64,
    /// Contiguous DRAM burst length in bytes.
    pub(crate) run_bytes: f64,
}

/// The ordering-invariant half of [`AcceleratorConfig::execute`].
///
/// [`AcceleratorConfig::prepare_tiling`] performs, once per
/// `(layer, tiling)`, everything that does not depend on the loop-order
/// classes: the resource validity checks, tile steps and volumes, MAC
/// counts, NoC group/round geometry, available-reuse products, DMA burst
/// lengths, and the energy-per-access table. [`TilingEval::complete`] then
/// finishes the evaluation for one `(spm_order, dram_order)` pair — only
/// the reuse/visit counts, traffic volumes, latency, and energy totals —
/// so sweeping all 9 orderings of a tiling costs one precomputation plus
/// nine cheap completions instead of nine full evaluations.
///
/// Every arithmetic expression is evaluated in exactly the order of the
/// straight-line reference cost model retained in this crate's tests;
/// precomputation only hoists whole sub-expressions, so the factored
/// result is bit-identical, which property tests enforce.
#[derive(Debug, Clone)]
pub struct TilingEval {
    validity: Validity,
    pes_used: u64,
    macs: f64,
    pub(crate) t_comp: f64,
    elem: f64,
    pub(crate) dram_steps: f64,
    pub(crate) l2_steps: f64,
    bw_bpc: f64,
    dma_burst_cycles: f64,
    /// `reuse_at(Dram, order, op)` indexed `[st_index(order)][op.index()]`.
    pub(crate) reuse_dram: [[f64; 4]; 3],
    /// `reuse_at(Spm, order, op)` indexed `[st_index(order)][op.index()]`.
    pub(crate) reuse_spm: [[f64; 4]; 3],
    pub(crate) ops: [OperandPre; 4],
    /// `(groups, capacity)` for operands whose NoC demand exceeds capacity;
    /// resolved per ordering in [`Self::complete`] (all `None` when the
    /// check was relaxed).
    pub(crate) noc_fail: [Option<(u64, u64)>; 4],
    energy: EnergyTable,
    /// `macs * rf_accesses_per_mac * elem` — the MAC-side RF traffic term.
    rf_mac_bytes: f64,
}

impl TilingEval {
    /// Finishes the evaluation for one loop ordering.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::NocInfeasible`] when an operand this ordering
    /// actually uses needs more PE groups than its NoC can serve (never
    /// errs when prepared with the check relaxed).
    pub fn complete(
        &self,
        spm_order: Stationarity,
        dram_order: Stationarity,
    ) -> Result<ExecutionProfile, ExecError> {
        let si = st_index(spm_order);
        let di = st_index(dram_order);
        let outw = Tensor::OutputWrite.index();

        // Raw (un-clamped) output visit counts decide whether partial sums
        // are ever evicted and re-read — the `output_reads_back` predicate
        // that gates the psum-read NoC admission check.
        let raw_visits_dram = self.ops[outw].irr_dram / self.reuse_dram[di][outw];
        let raw_visits_l2 = self.ops[outw].irr_l2 / self.reuse_spm[si][outw];
        let reads_back = raw_visits_dram * raw_visits_l2 > 1.0;
        for op in Tensor::ALL {
            if op == Tensor::OutputRead && !reads_back {
                continue;
            }
            if let Some((groups, capacity)) = self.noc_fail[op.index()] {
                return Err(ExecError::NocInfeasible {
                    operand: op,
                    groups,
                    capacity,
                });
            }
        }

        let visits_dram = raw_visits_dram.max(1.0);
        let visits_l2 = raw_visits_l2.max(1.0);
        let total_out_visits = (visits_dram * visits_l2).max(1.0);

        let mut operands = [OperandStats::default(); 4];
        for op in Tensor::ALL {
            let pre = &self.ops[op.index()];
            let stats = &mut operands[op.index()];
            stats.rf_tile_bytes = pre.rf_tile_bytes;
            stats.spm_tile_bytes = pre.spm_tile_bytes;

            // --- off-chip traffic.
            let reuse_dram = self.reuse_dram[di][op.index()];
            let base_offchip = pre.spm_tile * self.dram_steps / reuse_dram;
            stats.offchip_bytes = match op {
                Tensor::OutputRead => {
                    // First visit of each tile needs no partial-sum fetch.
                    base_offchip * self.elem * (visits_dram - 1.0) / visits_dram
                }
                _ => base_offchip * self.elem,
            };

            // --- NoC traffic and time.
            stats.noc_groups = pre.noc_groups;
            stats.bytes_per_group = pre.rf_tile_bytes;
            stats.noc_rounds = pre.noc_rounds;

            let reuse_l2 = self.reuse_spm[si][op.index()];
            let deliveries_per_step = self.l2_steps / reuse_l2;
            let mut deliveries = deliveries_per_step * self.dram_steps;
            if op == Tensor::OutputRead {
                // The very first visit of every output element skips the
                // read-back of partial sums.
                deliveries *= (total_out_visits - 1.0) / total_out_visits;
            }
            stats.noc_bytes = deliveries * pre.transmitted_per_delivery;
            stats.t_noc = deliveries * pre.cycles_per_delivery;

            // --- remaining (unexploited) reuse, for bottleneck mitigation.
            stats.reuse_remaining_spm = (pre.irr_dram / reuse_dram).max(1.0);
            stats.reuse_remaining_rf =
                ((pre.irr_l2 / reuse_l2) * stats.reuse_remaining_spm).max(1.0);
        }

        // ----------------------------------------------------- DMA time
        let mut t_dma = 0.0;
        for op in Tensor::ALL {
            let bytes = operands[op.index()].offchip_bytes;
            if bytes <= 0.0 {
                continue;
            }
            let bursts = (bytes / self.ops[op.index()].run_bytes).ceil();
            t_dma += bytes / self.bw_bpc + bursts * self.dma_burst_cycles;
        }

        let t_noc_max = operands.iter().map(|o| o.t_noc).fold(0.0, f64::max);
        let latency_cycles = self.t_comp.max(t_noc_max).max(t_dma);

        // ------------------------------------------------------- energy
        let e = &self.energy;
        let rf_traffic_bytes =
            self.rf_mac_bytes + operands.iter().map(|o| o.noc_bytes).sum::<f64>();
        let noc_total: f64 = operands.iter().map(|o| o.noc_bytes).sum();
        let offchip_total: f64 = operands.iter().map(|o| o.offchip_bytes).sum();
        let spm_traffic = noc_total + offchip_total;
        let energy_pj = self.macs * e.mac_pj
            + rf_traffic_bytes * e.rf_pj_per_byte
            + noc_total * e.noc_pj_per_byte
            + spm_traffic * e.spm_pj_per_byte
            + offchip_total * e.dram_pj_per_byte;

        Ok(ExecutionProfile {
            t_comp: self.t_comp,
            t_dma,
            t_noc_max,
            latency_cycles,
            energy_pj,
            macs: self.macs,
            pes_used: self.pes_used,
            pe_utilization: self.validity.pe_utilization,
            rf_utilization: self.validity.rf_utilization,
            spm_utilization: self.validity.spm_utilization,
            operands,
        })
    }
}

impl AcceleratorConfig {
    /// Evaluates one layer/mapping on this configuration.
    ///
    /// Returns the full [`ExecutionProfile`] (latency factors, per-operand
    /// data volumes, reuse characteristics, energy).
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] if the mapping is invalid for the layer or
    /// infeasible on this hardware (PE, RF, SPM, or NoC capacity).
    pub fn execute(
        &self,
        layer: &LayerShape,
        mapping: &Mapping,
    ) -> Result<ExecutionProfile, ExecError> {
        self.execute_inner(layer, mapping, false)
    }

    /// Diagnostic execution with the NoC-capacity check relaxed: for a
    /// hardware/dataflow-incompatible design the returned profile models
    /// the (physically unexpressible) time-shared serialization the
    /// mapping *would* need, so bottleneck analysis can attribute the
    /// incompatibility to the starved NoC and predict the link counts that
    /// would fix it. Relaxed evaluations never report
    /// [`ExecError::NocInfeasible`].
    pub fn execute_relaxed(
        &self,
        layer: &LayerShape,
        mapping: &Mapping,
    ) -> Result<ExecutionProfile, ExecError> {
        self.execute_inner(layer, mapping, true)
    }

    fn execute_inner(
        &self,
        layer: &LayerShape,
        mapping: &Mapping,
        relax_noc: bool,
    ) -> Result<ExecutionProfile, ExecError> {
        self.prepare_tiling_with(layer, &mapping.tiling, &Tech::n45(), relax_noc)?
            .complete(mapping.spm_order, mapping.dram_order)
    }

    /// Precomputes the ordering-invariant half of [`Self::execute`] for one
    /// tiling (see [`TilingEval`]); call [`TilingEval::complete`] per loop
    /// ordering. `execute(layer, m)` is exactly
    /// `prepare_tiling(layer, &m.tiling, tech)?.complete(m.spm_order, m.dram_order)`.
    ///
    /// # Errors
    ///
    /// Returns the ordering-invariant infeasibilities — invalid tiling, PE,
    /// RF, or SPM overflow. NoC infeasibility depends on the ordering (the
    /// psum-read NoC is only needed when the ordering evicts partial sums),
    /// so it surfaces from [`TilingEval::complete`] instead.
    pub fn prepare_tiling(
        &self,
        layer: &LayerShape,
        tiling: &Tiling,
        tech: &Tech,
    ) -> Result<TilingEval, ExecError> {
        self.prepare_tiling_with(layer, tiling, tech, false)
    }

    /// [`Self::prepare_tiling`] with the NoC-capacity check optionally
    /// relaxed (see [`Self::execute_relaxed`]); relaxed evaluations never
    /// report [`ExecError::NocInfeasible`].
    ///
    /// # Errors
    ///
    /// As [`Self::prepare_tiling`].
    pub fn prepare_tiling_with(
        &self,
        layer: &LayerShape,
        tiling: &Tiling,
        tech: &Tech,
        relax_noc: bool,
    ) -> Result<TilingEval, ExecError> {
        let t = tiling;
        Tiling::from_factors(layer, *t.factors()).map_err(ExecError::InvalidTiling)?;

        let used = t.pes_used();
        if used > self.pes {
            return Err(ExecError::PesExceeded {
                used,
                available: self.pes,
            });
        }
        let rf = rf_bytes(layer, t, self.elem_bytes);
        if rf > self.l1_bytes {
            return Err(ExecError::RfOverflow {
                needed: rf,
                available: self.l1_bytes,
            });
        }
        let spm = spm_bytes(layer, t, self.elem_bytes);
        if spm > self.l2_bytes {
            return Err(ExecError::SpmOverflow {
                needed: spm,
                available: self.l2_bytes,
            });
        }
        // NoC capacity is checked per ordering (psum read-back is
        // ordering-dependent): record each operand's shortfall here and let
        // `complete` resolve which one, if any, surfaces.
        let mut noc_fail = [None; 4];
        if !relax_noc {
            for op in Tensor::ALL {
                let groups = noc_groups(layer, t, op);
                let capacity = self.noc_phys_links[op.index()] * self.noc_virt_links[op.index()];
                if groups > capacity {
                    noc_fail[op.index()] = Some((groups, capacity));
                }
            }
        }
        let validity = Validity {
            pe_utilization: used as f64 / self.pes as f64,
            rf_utilization: rf as f64 / self.l1_bytes as f64,
            spm_utilization: spm as f64 / self.l2_bytes as f64,
        };

        let elem = self.elem_bytes as f64;
        let dram_steps = t.steps(Level::Dram) as f64;
        let l2_steps = t.steps(Level::Spm) as f64;
        let macs = layer.macs() as f64;
        let noc_bpc = self.noc_bytes_per_cycle();

        let mut reuse_dram = [[0.0; 4]; 3];
        let mut reuse_spm = [[0.0; 4]; 3];
        for (si, st) in Stationarity::ALL.iter().enumerate() {
            for op in Tensor::ALL {
                reuse_dram[si][op.index()] = reuse_at(layer, t, Level::Dram, *st, op);
                reuse_spm[si][op.index()] = reuse_at(layer, t, Level::Spm, *st, op);
            }
        }

        let mut ops = [OperandPre::default(); 4];
        for op in Tensor::ALL {
            let rf_tile = tile_volume(layer, |d| t.tile_extent(d, Level::Rf), op) as f64;
            let spm_tile = tile_volume(layer, |d| t.tile_extent(d, Level::Spm), op) as f64;
            let groups = noc_groups(layer, t, op);
            let links = self.noc_phys_links[op.index()].max(1);
            let noc_rounds = groups.div_ceil(links);
            ops[op.index()] = OperandPre {
                spm_tile,
                rf_tile_bytes: rf_tile * elem,
                spm_tile_bytes: spm_tile * elem,
                noc_groups: groups,
                noc_rounds,
                transmitted_per_delivery: (groups as f64) * rf_tile * elem,
                cycles_per_delivery: noc_rounds as f64 * (rf_tile * elem / noc_bpc).ceil(),
                irr_l2: irrelevant_iters(layer, t, Level::Spm, op),
                irr_dram: irrelevant_iters(layer, t, Level::Dram, op),
                run_bytes: contiguous_run_elems(layer, t, op) * elem,
            };
        }

        Ok(TilingEval {
            validity,
            pes_used: used,
            macs,
            t_comp: macs / used as f64,
            elem,
            dram_steps,
            l2_steps,
            bw_bpc: self.offchip_bytes_per_cycle(),
            dma_burst_cycles: self.dma_burst_overhead_cycles as f64,
            reuse_dram,
            reuse_spm,
            ops,
            noc_fail,
            energy: tech.energy_table(&self.resources()),
            rf_mac_bytes: macs * tech.rf_accesses_per_mac * elem,
        })
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Mapping;

    fn layer() -> LayerShape {
        LayerShape::conv(1, 64, 64, 56, 56, 3, 3, 1)
    }

    fn eval(cfg: &AcceleratorConfig) -> ExecutionProfile {
        let l = layer();
        let m = Mapping::fixed_output_stationary(&l, cfg);
        cfg.execute(&l, &m).expect("feasible")
    }

    #[test]
    fn latency_is_max_of_factors() {
        let p = eval(&AcceleratorConfig::edge_baseline());
        assert!((p.latency_cycles - p.t_comp.max(p.t_noc_max).max(p.t_dma)).abs() < 1e-9);
    }

    #[test]
    fn more_pes_reduce_compute_time() {
        let base = AcceleratorConfig::edge_baseline();
        let big = AcceleratorConfig { pes: 1024, ..base };
        assert!(eval(&big).t_comp < eval(&base).t_comp);
    }

    #[test]
    fn more_bandwidth_reduces_dma_time() {
        let base = AcceleratorConfig::edge_baseline();
        let fast = AcceleratorConfig {
            offchip_bw_mbps: 51_200,
            ..base
        };
        assert!(eval(&fast).t_dma < eval(&base).t_dma);
    }

    #[test]
    fn offchip_traffic_at_least_compulsory() {
        // Weights must be fetched at least once.
        let cfg = AcceleratorConfig::edge_baseline();
        let p = eval(&cfg);
        let l = layer();
        let compulsory = (l.tensor_elems(Tensor::Weight) * cfg.elem_bytes) as f64;
        assert!(p.operand(Tensor::Weight).offchip_bytes >= compulsory * 0.999);
    }

    #[test]
    fn output_read_never_exceeds_output_write() {
        let p = eval(&AcceleratorConfig::edge_baseline());
        assert!(
            p.operand(Tensor::OutputRead).offchip_bytes
                <= p.operand(Tensor::OutputWrite).offchip_bytes + 1e-9
        );
    }

    #[test]
    fn output_stationary_avoids_psum_spills() {
        // The fixed mapping keeps reductions inside SPM tiles, so output
        // partial sums should never be read back from DRAM.
        let p = eval(&AcceleratorConfig::edge_baseline());
        assert!(p.operand(Tensor::OutputRead).offchip_bytes < 1.0);
    }

    #[test]
    fn noc_infeasibility_detected() {
        let l = layer();
        let cfg = AcceleratorConfig {
            noc_phys_links: [1, 1, 1, 1],
            noc_virt_links: [1, 1, 1, 1],
            ..AcceleratorConfig::edge_baseline()
        };
        // A mapping that spatializes M over 64 PEs needs 64 weight groups.
        let mut f = [[1u64; 4]; 7];
        f[Dim::M.index()] = [1, 64, 1, 1];
        f[Dim::C.index()] = [1, 1, 1, 64];
        f[Dim::Oy.index()] = [1, 1, 1, 56];
        f[Dim::Ox.index()] = [1, 1, 1, 56];
        f[Dim::Fy.index()] = [1, 1, 1, 3];
        f[Dim::Fx.index()] = [1, 1, 1, 3];
        f[Dim::N.index()] = [1, 1, 1, 1];
        let tiling = Tiling::from_factors(&l, f).unwrap();
        let m = Mapping::new(
            tiling,
            Stationarity::OutputStationary,
            Stationarity::OutputStationary,
        );
        let err = cfg.execute(&l, &m).unwrap_err();
        assert!(matches!(err, ExecError::NocInfeasible { .. }), "{err}");
    }

    #[test]
    fn energy_positive_and_dominated_by_reasonable_terms() {
        let p = eval(&AcceleratorConfig::edge_baseline());
        assert!(p.energy_pj > p.macs, "at least 1 pJ per MAC");
    }

    #[test]
    fn utilizations_bounded() {
        let p = eval(&AcceleratorConfig::edge_baseline());
        for u in [p.pe_utilization, p.rf_utilization, p.spm_utilization] {
            assert!((0.0..=1.0).contains(&u), "{u}");
        }
    }

    #[test]
    fn gemm_executes() {
        let g = LayerShape::gemm(1000, 1, 512);
        let cfg = AcceleratorConfig::edge_baseline();
        let m = Mapping::fixed_output_stationary(&g, &cfg);
        let p = cfg.execute(&g, &m).expect("gemm feasible");
        assert!(p.latency_cycles >= p.t_comp);
        assert!(p.macs as u64 == g.macs());
    }

    #[test]
    fn depthwise_executes() {
        let d = LayerShape::dwconv(1, 96, 56, 56, 3, 3, 1);
        let cfg = AcceleratorConfig::edge_baseline();
        let m = Mapping::fixed_output_stationary(&d, &cfg);
        let p = cfg.execute(&d, &m).expect("dwconv feasible");
        assert!(p.latency_cycles > 0.0);
    }

    #[test]
    fn factored_execute_matches_reference_for_all_orderings() {
        let l = layer();
        let cfg = AcceleratorConfig::edge_baseline();
        let base = Mapping::fixed_output_stationary(&l, &cfg);
        let eval = cfg
            .prepare_tiling(&l, &base.tiling, &Tech::n45())
            .expect("tiling feasible");
        for spm in Stationarity::ALL {
            for dram in Stationarity::ALL {
                let m = Mapping::new(base.tiling, spm, dram);
                assert_eq!(eval.complete(spm, dram), cfg.execute_reference(&l, &m));
                assert_eq!(cfg.execute(&l, &m), cfg.execute_reference(&l, &m));
            }
        }
    }

    #[test]
    fn factored_execute_matches_reference_on_noc_starved_hardware() {
        // Same shape as `noc_infeasibility_detected`, but sweeping all 9
        // orderings: the factored path must reproduce the reference's
        // error-vs-profile decision (psum NoC admission is per ordering)
        // and the exact starved operand.
        let l = layer();
        let cfg = AcceleratorConfig {
            noc_phys_links: [1, 1, 1, 1],
            noc_virt_links: [1, 1, 1, 1],
            ..AcceleratorConfig::edge_baseline()
        };
        let mut f = [[1u64; 4]; 7];
        f[Dim::M.index()] = [1, 64, 1, 1];
        f[Dim::C.index()] = [1, 1, 1, 64];
        f[Dim::Oy.index()] = [1, 1, 1, 56];
        f[Dim::Ox.index()] = [1, 1, 1, 56];
        f[Dim::Fy.index()] = [1, 1, 1, 3];
        f[Dim::Fx.index()] = [1, 1, 1, 3];
        f[Dim::N.index()] = [1, 1, 1, 1];
        let tiling = Tiling::from_factors(&l, f).unwrap();
        for spm in Stationarity::ALL {
            for dram in Stationarity::ALL {
                let m = Mapping::new(tiling, spm, dram);
                assert_eq!(cfg.execute(&l, &m), cfg.execute_reference(&l, &m));
                assert_eq!(
                    cfg.execute_relaxed(&l, &m),
                    cfg.execute_reference_with(&l, &m, &Tech::n45(), true)
                );
            }
        }
    }

    #[test]
    fn weight_stationary_cuts_weight_offchip_traffic() {
        // Compare weight off-chip traffic under weight- vs input-stationary
        // DRAM orders for a tiling with DRAM-level output iteration.
        let l = layer();
        let cfg = AcceleratorConfig::edge_baseline();
        let mut f = [[1u64; 4]; 7];
        f[Dim::N.index()] = [1, 1, 1, 1];
        f[Dim::M.index()] = [1, 16, 1, 4];
        f[Dim::C.index()] = [2, 1, 8, 4];
        f[Dim::Oy.index()] = [1, 1, 7, 8];
        f[Dim::Ox.index()] = [1, 8, 7, 1];
        f[Dim::Fy.index()] = [3, 1, 1, 1];
        f[Dim::Fx.index()] = [3, 1, 1, 1];
        let tiling = Tiling::from_factors(&l, f).unwrap();
        let ws = cfg
            .execute(
                &l,
                &Mapping::new(
                    tiling,
                    Stationarity::OutputStationary,
                    Stationarity::WeightStationary,
                ),
            )
            .unwrap();
        let is = cfg
            .execute(
                &l,
                &Mapping::new(
                    tiling,
                    Stationarity::OutputStationary,
                    Stationarity::InputStationary,
                ),
            )
            .unwrap();
        assert!(
            ws.operand(Tensor::Weight).offchip_bytes < is.operand(Tensor::Weight).offchip_bytes
        );
    }
}
