//! The straight-line reference cost model, compiled only for tests.
//!
//! [`AcceleratorConfig::execute_reference`] is the original single-pass
//! body of [`AcceleratorConfig::execute`], retained verbatim as the oracle
//! the factored fast path ([`AcceleratorConfig::prepare_tiling`] +
//! [`TilingEval::complete`](crate::TilingEval::complete)) and the batched
//! kernel ([`crate::TilingBatch`]) are pinned to bit for bit. It shares
//! the crate-private reuse, NoC-group and burst helpers with the fast path
//! but none of its precomputation.

use super::{
    contiguous_run_elems, irrelevant_iters, noc_groups, output_reads_back, reuse_at, ExecError,
    Validity,
};
use crate::arch::AcceleratorConfig;
use crate::mapping::{rf_bytes, spm_bytes, tile_volume, Level, Mapping, Tiling};
use crate::profile::{ExecutionProfile, OperandStats};
use energy_area::Tech;
use workloads::{LayerShape, Tensor};

impl Validity {
    /// [`Self::check`] with the NoC-capacity requirement optionally
    /// relaxed, as the relaxed reference evaluation needs it.
    pub(crate) fn check_with(
        cfg: &AcceleratorConfig,
        layer: &LayerShape,
        mapping: &Mapping,
        relax_noc: bool,
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
        if !relax_noc {
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
        }
        Ok(Self {
            pe_utilization: used as f64 / cfg.pes as f64,
            rf_utilization: rf as f64 / cfg.l1_bytes as f64,
            spm_utilization: spm as f64 / cfg.l2_bytes as f64,
        })
    }
}

impl AcceleratorConfig {
    /// Straight-line reference implementation of [`Self::execute`]. Tests
    /// assert the factored and batched paths agree with it bit for bit.
    pub(crate) fn execute_reference(
        &self,
        layer: &LayerShape,
        mapping: &Mapping,
    ) -> Result<ExecutionProfile, ExecError> {
        self.execute_reference_inner(layer, mapping, &Tech::n45(), false)
    }

    /// [`Self::execute_reference`] with explicit technology and
    /// NoC-relaxation controls (mirrors [`Self::execute_relaxed`]).
    pub(crate) fn execute_reference_with(
        &self,
        layer: &LayerShape,
        mapping: &Mapping,
        tech: &Tech,
        relax_noc: bool,
    ) -> Result<ExecutionProfile, ExecError> {
        self.execute_reference_inner(layer, mapping, tech, relax_noc)
    }

    fn execute_reference_inner(
        &self,
        layer: &LayerShape,
        mapping: &Mapping,
        tech: &Tech,
        relax_noc: bool,
    ) -> Result<ExecutionProfile, ExecError> {
        let validity = Validity::check_with(self, layer, mapping, relax_noc)?;
        let t = &mapping.tiling;
        let elem = self.elem_bytes as f64;

        let dram_steps = t.steps(Level::Dram) as f64;
        let l2_steps = t.steps(Level::Spm) as f64;
        let pes_used = t.pes_used();

        // ------------------------------------------------ computation time
        let macs = layer.macs() as f64;
        let t_comp = macs / pes_used as f64;

        // ------------------------------------- per-operand movement + time
        let mut operands = [OperandStats::default(); 4];
        let noc_bpc = self.noc_bytes_per_cycle();

        // Output visit counts (how often an output tile is revisited after
        // being evicted, forcing partial-sum read-back).
        let out = Tensor::OutputWrite;
        let visits_dram = (irrelevant_iters(layer, t, Level::Dram, out)
            / reuse_at(layer, t, Level::Dram, mapping.dram_order, out))
        .max(1.0);
        let visits_l2 = (irrelevant_iters(layer, t, Level::Spm, out)
            / reuse_at(layer, t, Level::Spm, mapping.spm_order, out))
        .max(1.0);
        let total_out_visits = (visits_dram * visits_l2).max(1.0);

        for op in Tensor::ALL {
            let stats = &mut operands[op.index()];

            // Tile volumes at each level.
            let rf_tile = tile_volume(layer, |d| t.tile_extent(d, Level::Rf), op) as f64;
            let spatial_tile = tile_volume(layer, |d| t.tile_extent(d, Level::Spatial), op) as f64;
            let spm_tile = tile_volume(layer, |d| t.tile_extent(d, Level::Spm), op) as f64;
            stats.rf_tile_bytes = rf_tile * elem;
            stats.spm_tile_bytes = spm_tile * elem;

            // --- off-chip traffic.
            let reuse_dram = reuse_at(layer, t, Level::Dram, mapping.dram_order, op);
            let base_offchip = spm_tile * dram_steps / reuse_dram;
            stats.offchip_bytes = match op {
                Tensor::OutputWrite => base_offchip * elem,
                Tensor::OutputRead => {
                    // First visit of each tile needs no partial-sum fetch.
                    base_offchip * elem * (visits_dram - 1.0) / visits_dram
                }
                _ => base_offchip * elem,
            };

            // --- NoC traffic and time.
            let groups = noc_groups(layer, t, op);
            stats.noc_groups = groups;
            stats.bytes_per_group = rf_tile * elem;
            let links = self.noc_phys_links[op.index()].max(1);
            stats.noc_rounds = groups.div_ceil(links);

            let reuse_l2 = reuse_at(layer, t, Level::Spm, mapping.spm_order, op);
            let deliveries_per_step = l2_steps / reuse_l2;
            let mut deliveries = deliveries_per_step * dram_steps;
            if op == Tensor::OutputRead {
                // The very first visit of every output element skips the
                // read-back of partial sums.
                deliveries *= (total_out_visits - 1.0) / total_out_visits;
            }
            // Unique data per delivery is the spatial tile; transmission
            // serializes over groups (halo overlap between input groups is
            // re-sent, matching a unicast NoC).
            let transmitted_per_delivery = (groups as f64) * rf_tile * elem;
            let _ = spatial_tile; // spatial tile = unique bytes; kept for clarity
            stats.noc_bytes = deliveries * transmitted_per_delivery;
            let cycles_per_delivery = stats.noc_rounds as f64 * (rf_tile * elem / noc_bpc).ceil();
            stats.t_noc = deliveries * cycles_per_delivery;

            // --- remaining (unexploited) reuse, for bottleneck mitigation.
            let irr_l2 = irrelevant_iters(layer, t, Level::Spm, op);
            let irr_dram = irrelevant_iters(layer, t, Level::Dram, op);
            stats.reuse_remaining_spm = (irr_dram / reuse_dram).max(1.0);
            stats.reuse_remaining_rf = ((irr_l2 / reuse_l2) * stats.reuse_remaining_spm).max(1.0);
        }

        // ----------------------------------------------------- DMA time
        let bw_bpc = self.offchip_bytes_per_cycle();
        let mut t_dma = 0.0;
        for op in Tensor::ALL {
            let bytes = operands[op.index()].offchip_bytes;
            if bytes <= 0.0 {
                continue;
            }
            let run_bytes = contiguous_run_elems(layer, t, op) * elem;
            let bursts = (bytes / run_bytes).ceil();
            t_dma += bytes / bw_bpc + bursts * self.dma_burst_overhead_cycles as f64;
        }

        let t_noc_max = operands.iter().map(|o| o.t_noc).fold(0.0, f64::max);
        let latency_cycles = t_comp.max(t_noc_max).max(t_dma);

        // ------------------------------------------------------- energy
        let e = tech.energy_table(&self.resources());
        let rf_traffic_bytes = macs * tech.rf_accesses_per_mac * elem
            + operands.iter().map(|o| o.noc_bytes).sum::<f64>();
        let noc_total: f64 = operands.iter().map(|o| o.noc_bytes).sum();
        let offchip_total: f64 = operands.iter().map(|o| o.offchip_bytes).sum();
        let spm_traffic = noc_total + offchip_total;
        let energy_pj = macs * e.mac_pj
            + rf_traffic_bytes * e.rf_pj_per_byte
            + noc_total * e.noc_pj_per_byte
            + spm_traffic * e.spm_pj_per_byte
            + offchip_total * e.dram_pj_per_byte;

        Ok(ExecutionProfile {
            t_comp,
            t_dma,
            t_noc_max,
            latency_cycles,
            energy_pj,
            macs,
            pes_used,
            pe_utilization: validity.pe_utilization,
            rf_utilization: validity.rf_utilization,
            spm_utilization: validity.spm_utilization,
            operands,
        })
    }
}
