//! Peak-power model: maximum energy consumable by all components in one
//! cycle, times frequency (the paper's Accelergy-based definition), plus a
//! static fraction.

use crate::energy::EnergyTable;
use crate::tech::Tech;
use crate::AcceleratorResources;

/// Per-component peak power in watts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBreakdown {
    /// PE array at full MAC + RF activity.
    pub pe_array_w: f64,
    /// Scratchpad serving all NoCs at full width.
    pub spm_w: f64,
    /// NoC transport at full width.
    pub noc_w: f64,
    /// Off-chip interface at full bandwidth.
    pub dram_w: f64,
    /// Leakage (a fixed fraction of peak dynamic power).
    pub static_w: f64,
}

impl PowerBreakdown {
    /// Evaluates the peak power model for a configuration.
    ///
    /// Per cycle, at full activity:
    /// * every PE performs one MAC and `rf_accesses_per_mac` two-byte RF
    ///   accesses;
    /// * each NoC moves `width/8` bytes out of the scratchpad (one SPM read
    ///   or write plus one NoC transport per byte);
    /// * the DMA moves `BW/freq` bytes across the off-chip interface.
    pub fn compute(tech: &Tech, r: &AcceleratorResources) -> Self {
        let e = EnergyTable::compute(tech, r);
        let freq_hz = r.freq_mhz as f64 * 1e6;
        let pj_to_w = |pj_per_cycle: f64| pj_per_cycle * 1e-12 * freq_hz;

        let elem_bytes = 2.0; // int16 datapath
        let pe_pj =
            r.pes as f64 * (e.mac_pj + tech.rf_accesses_per_mac * elem_bytes * e.rf_pj_per_byte);
        let noc_bytes = r.noc_bytes_per_cycle();
        let spm_pj = noc_bytes * e.spm_pj_per_byte;
        let noc_pj = noc_bytes * e.noc_pj_per_byte;
        let dram_pj = r.offchip_bytes_per_cycle() * e.dram_pj_per_byte;

        let dynamic = pj_to_w(pe_pj) + pj_to_w(spm_pj) + pj_to_w(noc_pj) + pj_to_w(dram_pj);
        Self {
            pe_array_w: pj_to_w(pe_pj),
            spm_w: pj_to_w(spm_pj),
            noc_w: pj_to_w(noc_pj),
            dram_w: pj_to_w(dram_pj),
            static_w: dynamic * tech.static_fraction,
        }
    }

    /// Total peak power in watts.
    pub fn total_w(&self) -> f64 {
        self.pe_array_w + self.spm_w + self.noc_w + self.dram_w + self.static_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(pes: u64, bw: u64) -> AcceleratorResources {
        AcceleratorResources {
            pes,
            l1_bytes: 64,
            l2_bytes: 256 * 1024,
            noc_width_bits: 32,
            noc_phys_links: [4; 4],
            offchip_bw_mbps: bw,
            freq_mhz: 500,
        }
    }

    #[test]
    fn power_scales_with_pes() {
        let t = Tech::n45();
        let p1 = t.max_power(&cfg(256, 8192));
        let p2 = t.max_power(&cfg(1024, 8192));
        assert!(
            (p2.pe_array_w / p1.pe_array_w - 4.0).abs() < 1e-9,
            "PE power scales linearly"
        );
        assert!(p2.total_w() > 2.0 * p1.total_w());
    }

    #[test]
    fn bandwidth_contributes_measurably() {
        let t = Tech::n45();
        let lo = t.max_power(&cfg(256, 1024));
        let hi = t.max_power(&cfg(256, 51_200));
        assert!(hi.dram_w > 10.0 * lo.dram_w);
        assert!(hi.total_w() > lo.total_w());
    }

    #[test]
    fn mid_range_fits_edge_budget() {
        // A representative efficient edge design (1024 PEs) must fit 4 W,
        // mirroring the paper's feasible region.
        let t = Tech::n45();
        let p = t.max_power(&cfg(1024, 8192));
        assert!(p.total_w() < 4.0, "got {} W", p.total_w());
    }

    #[test]
    fn breakdown_sums_to_total() {
        let t = Tech::n45();
        let p = t.max_power(&cfg(512, 8192));
        let sum = p.pe_array_w + p.spm_w + p.noc_w + p.dram_w + p.static_w;
        assert!((sum - p.total_w()).abs() < 1e-12);
    }

    #[test]
    fn wider_nocs_draw_more_power() {
        let t = Tech::n45();
        let narrow = t.max_power(&AcceleratorResources {
            noc_width_bits: 16,
            ..cfg(256, 8192)
        });
        let wide = t.max_power(&AcceleratorResources {
            noc_width_bits: 256,
            ..cfg(256, 8192)
        });
        assert!(wide.noc_w > narrow.noc_w);
        assert!(wide.spm_w > narrow.spm_w, "SPM serves the NoCs");
    }

    #[test]
    fn static_power_is_fraction_of_dynamic() {
        let t = Tech::n45();
        let p = t.max_power(&cfg(512, 8192));
        let dynamic = p.pe_array_w + p.spm_w + p.noc_w + p.dram_w;
        assert!((p.static_w - dynamic * t.static_fraction).abs() < 1e-12);
    }
}
