//! Execution profiles: the rich, explicitly analyzable output of the cost
//! model that bottleneck models are built from (paper §4.7).

use workloads::Tensor;

/// Per-operand execution characteristics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OperandStats {
    /// Bytes moved between DRAM and the scratchpad for this operand
    /// (`data_offchip` in the paper's bottleneck-model vocabulary).
    pub offchip_bytes: f64,
    /// Bytes transmitted over this operand's NoC (`data_noc`).
    pub noc_bytes: f64,
    /// Maximum concurrent PE groups needing distinct data
    /// (`NoC_groups_needed`).
    pub noc_groups: u64,
    /// Bytes broadcast to each group per delivery (`NoC_bytes_per_group`).
    pub bytes_per_group: f64,
    /// Serialization rounds actually used (`ceil(groups / physical links)`).
    pub noc_rounds: u64,
    /// Cycles this operand's NoC is busy.
    pub t_noc: f64,
    /// Bytes of this operand resident in one PE's register file (`data_RF`).
    pub rf_tile_bytes: f64,
    /// Bytes of this operand resident in the scratchpad (`data_SPM`).
    pub spm_tile_bytes: f64,
    /// Reuse of this operand still unexploited at the register file:
    /// how many times the same element is re-delivered over the NoC
    /// (`max_reuse_available_RF`).
    pub reuse_remaining_rf: f64,
    /// Reuse still unexploited at the scratchpad: how many times the same
    /// element is re-fetched from DRAM (`max_reuse_available_SPM`).
    pub reuse_remaining_spm: f64,
}

/// Complete execution profile of one layer on one configuration+mapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionProfile {
    /// Computation cycles (`T_comp`).
    pub t_comp: f64,
    /// Total DMA cycles across all operands (`T_dma`; the DMA channel is
    /// shared, so operand transfers serialize).
    pub t_dma: f64,
    /// The slowest operand NoC (`T_comm`; the four NoCs run concurrently).
    pub t_noc_max: f64,
    /// End-to-end latency in cycles: `max(T_comp, T_comm, T_dma)` under
    /// ideal double buffering.
    pub latency_cycles: f64,
    /// Total energy in picojoules.
    pub energy_pj: f64,
    /// Multiply-accumulates executed.
    pub macs: f64,
    /// PEs actually used by the spatial factors.
    pub pes_used: u64,
    /// PE-array utilization in `[0, 1]`.
    pub pe_utilization: f64,
    /// Register-file utilization in `[0, 1]`.
    pub rf_utilization: f64,
    /// Scratchpad utilization in `[0, 1]`.
    pub spm_utilization: f64,
    /// Per-operand characteristics, indexed by [`Tensor::index`].
    pub operands: [OperandStats; 4],
}

impl ExecutionProfile {
    /// Stats for one operand.
    pub fn operand(&self, t: Tensor) -> &OperandStats {
        &self.operands[t.index()]
    }

    /// Total off-chip footprint in bytes (sum over operands).
    pub fn offchip_footprint_bytes(&self) -> f64 {
        self.operands.iter().map(|o| o.offchip_bytes).sum()
    }

    /// Latency in milliseconds at the given clock.
    pub fn latency_ms(&self, freq_mhz: u64) -> f64 {
        self.latency_cycles / (freq_mhz as f64 * 1e3)
    }

    /// Energy in millijoules.
    pub fn energy_mj(&self) -> f64 {
        self.energy_pj * 1e-9
    }

    /// Which of the three top-level factors dominates latency.
    pub fn dominant_factor(&self) -> LatencyFactor {
        if self.t_comp >= self.t_noc_max && self.t_comp >= self.t_dma {
            LatencyFactor::Compute
        } else if self.t_dma >= self.t_noc_max {
            LatencyFactor::Dma
        } else {
            LatencyFactor::Noc
        }
    }
}

/// Top-level latency factors (children of the bottleneck-tree root).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatencyFactor {
    /// PE computation time dominates.
    Compute,
    /// On-chip NoC communication dominates.
    Noc,
    /// Off-chip DMA transfers dominate.
    Dma,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(t_comp: f64, t_noc: f64, t_dma: f64) -> ExecutionProfile {
        ExecutionProfile {
            t_comp,
            t_dma,
            t_noc_max: t_noc,
            latency_cycles: t_comp.max(t_noc).max(t_dma),
            energy_pj: 1.0,
            macs: 1.0,
            pes_used: 1,
            pe_utilization: 1.0,
            rf_utilization: 0.5,
            spm_utilization: 0.5,
            operands: [OperandStats::default(); 4],
        }
    }

    #[test]
    fn dominant_factor_picks_maximum() {
        assert_eq!(
            profile(3.0, 1.0, 2.0).dominant_factor(),
            LatencyFactor::Compute
        );
        assert_eq!(profile(1.0, 3.0, 2.0).dominant_factor(), LatencyFactor::Noc);
        assert_eq!(profile(1.0, 2.0, 3.0).dominant_factor(), LatencyFactor::Dma);
    }

    #[test]
    fn unit_conversions() {
        let p = profile(500_000.0, 0.0, 0.0);
        assert!((p.latency_ms(500) - 1.0).abs() < 1e-12);
        assert!((profile(1.0, 0.0, 0.0).energy_mj() - 1e-9).abs() < 1e-20);
    }
}
