//! Technology node coefficients and the top-level model entry points.

use crate::area::AreaBreakdown;
use crate::energy::EnergyTable;
use crate::power::PowerBreakdown;
use crate::AcceleratorResources;

/// Coefficients of one technology node.
///
/// All energies are picojoules, all areas square millimetres. The defaults
/// ([`Tech::n45`]) are anchored to published 45 nm numbers; every formula in
/// [`crate::area`], [`crate::energy`] and [`crate::power`] reads these
/// coefficients, so alternative nodes can be modelled by scaling them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tech {
    /// Node name, informational only.
    pub node_nm: u32,
    /// Energy of one int16 multiply-accumulate (pJ).
    pub mac_pj: f64,
    /// Register-file access energy per byte at the reference 64 B size (pJ/B).
    pub rf_base_pj_per_byte: f64,
    /// RF energy growth per doubling beyond the 64 B reference (fraction).
    pub rf_growth_per_doubling: f64,
    /// Scratchpad access energy per byte at the reference 64 kB size (pJ/B).
    pub spm_base_pj_per_byte: f64,
    /// SPM energy scaling exponent with capacity (CACTI-like sqrt => 0.5).
    pub spm_capacity_exponent: f64,
    /// NoC transport energy per byte for an 8x8 array (pJ/B); grows with
    /// the square root of the PE count (wire length).
    pub noc_base_pj_per_byte: f64,
    /// Off-chip (LPDDR4-class) access energy per byte (pJ/B).
    pub dram_pj_per_byte: f64,
    /// Area of one int16 MAC datapath (mm^2).
    pub mac_area_mm2: f64,
    /// Per-PE control/pipeline overhead area (mm^2).
    pub pe_ctrl_area_mm2: f64,
    /// Register-file area per byte (mm^2/B) — small arrays, low density.
    pub rf_area_mm2_per_byte: f64,
    /// Scratchpad SRAM area per byte (mm^2/B).
    pub spm_area_mm2_per_byte: f64,
    /// NoC area per link-bit of width (mm^2) — wires, muxes, repeaters.
    pub noc_area_mm2_per_link_bit: f64,
    /// Fixed DMA-engine/controller area (mm^2).
    pub dma_base_area_mm2: f64,
    /// PHY/controller area per byte-per-cycle of off-chip bandwidth (mm^2).
    pub dma_area_mm2_per_byte_cycle: f64,
    /// RF accesses charged per MAC when computing peak PE power (reads of
    /// two source operands plus a partial-sum read-modify-write ~ 3).
    pub rf_accesses_per_mac: f64,
    /// Static/leakage power as a fraction of peak dynamic power.
    pub static_fraction: f64,
}

impl Tech {
    /// The 45 nm node used throughout the paper's evaluation.
    ///
    /// Anchors: a full int16 PE costs ~3.5 pJ/MAC (datapath plus pipeline,
    /// clocking and control — Eyeriss reports 5-10 pJ/MAC all-in at 65 nm);
    /// the SRAM/DRAM ladder follows Horowitz (ISSCC'14) and the Eyeriss
    /// relative-cost table; SRAM/PE densities follow CACTI 6.0 at 45 nm
    /// with array overheads; LPDDR4-class off-chip energy (~30 pJ/B) as
    /// appropriate for an edge device.
    pub fn n45() -> Self {
        Self {
            node_nm: 45,
            mac_pj: 3.5,
            rf_base_pj_per_byte: 0.10,
            rf_growth_per_doubling: 0.12,
            spm_base_pj_per_byte: 0.70,
            spm_capacity_exponent: 0.5,
            noc_base_pj_per_byte: 0.10,
            dram_pj_per_byte: 30.0,
            mac_area_mm2: 0.0030,
            pe_ctrl_area_mm2: 0.0015,
            rf_area_mm2_per_byte: 24.0e-6,
            spm_area_mm2_per_byte: 6.0e-6,
            noc_area_mm2_per_link_bit: 0.60e-6,
            dma_base_area_mm2: 0.5,
            dma_area_mm2_per_byte_cycle: 0.01,
            rf_accesses_per_mac: 3.0,
            static_fraction: 0.10,
        }
    }

    /// Computes the area breakdown for a configuration.
    pub fn area(&self, r: &AcceleratorResources) -> AreaBreakdown {
        AreaBreakdown::compute(self, r)
    }

    /// Computes the per-access energy table for a configuration.
    pub fn energy_table(&self, r: &AcceleratorResources) -> EnergyTable {
        EnergyTable::compute(self, r)
    }

    /// Computes peak (max single-cycle energy x frequency) power.
    pub fn max_power(&self, r: &AcceleratorResources) -> PowerBreakdown {
        PowerBreakdown::compute(self, r)
    }
}

impl Default for Tech {
    fn default() -> Self {
        Self::n45()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_45nm() {
        assert_eq!(Tech::default().node_nm, 45);
    }

    #[test]
    fn energy_ladder_ordering() {
        // The classic hierarchy: RF < NoC-ish < SPM << DRAM per byte.
        let t = Tech::n45();
        assert!(t.rf_base_pj_per_byte < t.spm_base_pj_per_byte);
        assert!(t.spm_base_pj_per_byte < t.dram_pj_per_byte);
    }
}
