//! Silicon area model (CACTI-style SRAM density plus datapath estimates).

use crate::tech::Tech;
use crate::AcceleratorResources;

/// Per-component area estimate in mm^2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaBreakdown {
    /// PE array: MAC datapaths, control, and per-PE register files.
    pub pe_array_mm2: f64,
    /// Shared scratchpad SRAM.
    pub spm_mm2: f64,
    /// All four operand NoCs (wires/muxes proportional to links x width).
    pub noc_mm2: f64,
    /// DMA engine and off-chip PHY/controller.
    pub dma_mm2: f64,
}

impl AreaBreakdown {
    /// Evaluates the area model for a configuration.
    pub fn compute(tech: &Tech, r: &AcceleratorResources) -> Self {
        let rf_per_pe = r.l1_bytes as f64 * tech.rf_area_mm2_per_byte;
        let pe_array_mm2 = r.pes as f64 * (tech.mac_area_mm2 + tech.pe_ctrl_area_mm2 + rf_per_pe);
        let spm_mm2 = r.l2_bytes as f64 * tech.spm_area_mm2_per_byte;
        let link_bits: f64 = r
            .noc_phys_links
            .iter()
            .map(|&l| l as f64 * r.noc_width_bits as f64)
            .sum();
        let noc_mm2 = link_bits * tech.noc_area_mm2_per_link_bit;
        let dma_mm2 =
            tech.dma_base_area_mm2 + r.offchip_bytes_per_cycle() * tech.dma_area_mm2_per_byte_cycle;
        Self {
            pe_array_mm2,
            spm_mm2,
            noc_mm2,
            dma_mm2,
        }
    }

    /// Total die area in mm^2.
    pub fn total_mm2(&self) -> f64 {
        self.pe_array_mm2 + self.spm_mm2 + self.noc_mm2 + self.dma_mm2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> AcceleratorResources {
        AcceleratorResources {
            pes: 256,
            l1_bytes: 64,
            l2_bytes: 256 * 1024,
            noc_width_bits: 32,
            noc_phys_links: [8, 8, 8, 8],
            offchip_bw_mbps: 8192,
            freq_mhz: 500,
        }
    }

    #[test]
    fn area_monotone_in_every_resource() {
        let t = Tech::n45();
        let b = base();
        let total = t.area(&b).total_mm2();
        for grow in [
            AcceleratorResources { pes: 512, ..b },
            AcceleratorResources { l1_bytes: 128, ..b },
            AcceleratorResources {
                l2_bytes: 512 * 1024,
                ..b
            },
            AcceleratorResources {
                noc_width_bits: 64,
                ..b
            },
            AcceleratorResources {
                noc_phys_links: [16; 4],
                ..b
            },
            AcceleratorResources {
                offchip_bw_mbps: 16384,
                ..b
            },
        ] {
            assert!(t.area(&grow).total_mm2() > total, "{grow:?}");
        }
    }

    #[test]
    fn breakdown_sums_to_total() {
        let t = Tech::n45();
        let a = t.area(&base());
        let sum = a.pe_array_mm2 + a.spm_mm2 + a.noc_mm2 + a.dma_mm2;
        assert!((sum - a.total_mm2()).abs() < 1e-12);
    }

    #[test]
    fn noc_area_counts_all_four_operand_networks() {
        let t = Tech::n45();
        let one = AcceleratorResources {
            noc_phys_links: [8, 0, 0, 0],
            ..base()
        };
        let four = AcceleratorResources {
            noc_phys_links: [2, 2, 2, 2],
            ..base()
        };
        // Same total link-bits => same NoC area.
        assert!((t.area(&one).noc_mm2 - t.area(&four).noc_mm2).abs() < 1e-12);
    }

    #[test]
    fn dma_area_has_a_fixed_floor() {
        let t = Tech::n45();
        let tiny = AcceleratorResources {
            offchip_bw_mbps: 500,
            ..base()
        };
        assert!(t.area(&tiny).dma_mm2 >= t.dma_base_area_mm2);
    }

    #[test]
    fn pe_array_dominates_compute_heavy_configs() {
        let t = Tech::n45();
        let big_pes = AcceleratorResources {
            pes: 4096,
            ..base()
        };
        let a = t.area(&big_pes);
        assert!(a.pe_array_mm2 > a.spm_mm2 + a.noc_mm2 + a.dma_mm2);
    }
}
