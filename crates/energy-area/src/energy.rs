//! Per-access energy table (Accelergy's "energy per data access" output).

use crate::tech::Tech;
use crate::AcceleratorResources;

/// Per-access energies (picojoules) for one accelerator configuration.
///
/// The execution model multiplies these with access counts to obtain total
/// inference energy; the power model uses them for peak single-cycle energy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyTable {
    /// One int16 multiply-accumulate.
    pub mac_pj: f64,
    /// Register-file access, per byte.
    pub rf_pj_per_byte: f64,
    /// Shared scratchpad access, per byte.
    pub spm_pj_per_byte: f64,
    /// NoC transport from the scratchpad to a PE group, per byte.
    pub noc_pj_per_byte: f64,
    /// Off-chip DRAM access, per byte.
    pub dram_pj_per_byte: f64,
}

impl EnergyTable {
    /// Evaluates the energy model for a configuration.
    ///
    /// * RF energy grows linearly with each capacity doubling past 64 B
    ///   (wider decode + longer bitlines in a small array).
    /// * SPM energy follows a CACTI-like `(capacity/64kB)^0.5` law.
    /// * NoC energy grows with `sqrt(PEs)` (average wire length across the
    ///   array).
    pub fn compute(tech: &Tech, r: &AcceleratorResources) -> Self {
        let rf_doublings = ((r.l1_bytes.max(1) as f64) / 64.0).log2().max(0.0);
        let rf_pj_per_byte =
            tech.rf_base_pj_per_byte * (1.0 + tech.rf_growth_per_doubling * rf_doublings);
        let spm_ratio = (r.l2_bytes.max(1) as f64) / (64.0 * 1024.0);
        let spm_pj_per_byte =
            tech.spm_base_pj_per_byte * spm_ratio.powf(tech.spm_capacity_exponent).max(1.0);
        let noc_pj_per_byte = tech.noc_base_pj_per_byte * ((r.pes.max(1) as f64) / 64.0).sqrt();
        Self {
            mac_pj: tech.mac_pj,
            rf_pj_per_byte,
            spm_pj_per_byte,
            noc_pj_per_byte,
            dram_pj_per_byte: tech.dram_pj_per_byte,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(l1: u64, l2: u64, pes: u64) -> AcceleratorResources {
        AcceleratorResources {
            pes,
            l1_bytes: l1,
            l2_bytes: l2,
            noc_width_bits: 32,
            noc_phys_links: [4; 4],
            offchip_bw_mbps: 8192,
            freq_mhz: 500,
        }
    }

    #[test]
    fn larger_memories_cost_more_per_access() {
        let t = Tech::n45();
        let small = EnergyTable::compute(&t, &cfg(64, 64 * 1024, 64));
        let large = EnergyTable::compute(&t, &cfg(1024, 4096 * 1024, 64));
        assert!(large.rf_pj_per_byte > small.rf_pj_per_byte);
        assert!(large.spm_pj_per_byte > small.spm_pj_per_byte);
    }

    #[test]
    fn small_memories_do_not_go_below_base() {
        let t = Tech::n45();
        let tiny = EnergyTable::compute(&t, &cfg(8, 1024, 64));
        assert!(tiny.rf_pj_per_byte >= t.rf_base_pj_per_byte);
        assert!(tiny.spm_pj_per_byte >= t.spm_base_pj_per_byte);
    }

    #[test]
    fn noc_energy_scales_with_array_size() {
        let t = Tech::n45();
        let small = EnergyTable::compute(&t, &cfg(64, 64 * 1024, 64));
        let large = EnergyTable::compute(&t, &cfg(64, 64 * 1024, 4096));
        assert!((large.noc_pj_per_byte / small.noc_pj_per_byte - 8.0).abs() < 1e-9);
    }

    #[test]
    fn hierarchy_preserved_for_all_configs() {
        let t = Tech::n45();
        for (l1, l2, pes) in [(8, 64 << 10, 64), (1024, 4096 << 10, 4096)] {
            let e = EnergyTable::compute(&t, &cfg(l1, l2, pes));
            assert!(e.rf_pj_per_byte < e.spm_pj_per_byte);
            assert!(e.spm_pj_per_byte < e.dram_pj_per_byte);
        }
    }
}
