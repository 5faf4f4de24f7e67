//! Accelerator configuration: the hardware half of a codesign point.

use energy_area::{AcceleratorResources, Tech};

/// One accelerator hardware configuration (the paper's Table 1 parameters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AcceleratorConfig {
    /// Number of processing elements.
    pub pes: u64,
    /// Register-file (L1) bytes per PE.
    pub l1_bytes: u64,
    /// Shared scratchpad (L2) bytes.
    pub l2_bytes: u64,
    /// Off-chip bandwidth, megabytes per second.
    pub offchip_bw_mbps: u64,
    /// Data width of every operand NoC, bits.
    pub noc_width_bits: u64,
    /// Physical concurrent unicast links per operand NoC
    /// (input, weight, output-read, output-write).
    pub noc_phys_links: [u64; 4],
    /// Time-shared ("virtual") unicast instances allowed per operand NoC:
    /// serialization rounds the NoC may take to serve all PE groups.
    pub noc_virt_links: [u64; 4],
    /// Clock frequency, MHz.
    pub freq_mhz: u64,
    /// Bytes per data element (2 for the paper's int16 precision).
    pub elem_bytes: u64,
    /// Fixed per-burst DMA setup overhead in cycles (non-contiguous access
    /// penalty, a dMazeRunner-specific modelling feature).
    pub dma_burst_overhead_cycles: u64,
}

impl AcceleratorConfig {
    /// The smallest Table-1 configuration (every parameter at its minimum);
    /// the paper uses this as the initial DSE point and as the reference
    /// hardware for mapping-space analyses (Table 7, footnote 6).
    pub fn edge_minimum() -> Self {
        Self {
            pes: 64,
            l1_bytes: 8,
            l2_bytes: 64 * 1024,
            offchip_bw_mbps: 1024,
            noc_width_bits: 16,
            noc_phys_links: [1, 1, 1, 1],
            noc_virt_links: [1, 1, 1, 1],
            freq_mhz: 500,
            elem_bytes: 2,
            dma_burst_overhead_cycles: 8,
        }
    }

    /// A mid-range edge configuration useful as a documented example and in
    /// tests (256 PEs, 128 B RF, 256 kB scratchpad, 8 GB/s).
    pub fn edge_baseline() -> Self {
        Self {
            pes: 256,
            l1_bytes: 128,
            l2_bytes: 256 * 1024,
            offchip_bw_mbps: 8192,
            noc_width_bits: 64,
            noc_phys_links: [16, 16, 16, 16],
            noc_virt_links: [64, 64, 64, 64],
            freq_mhz: 500,
            elem_bytes: 2,
            dma_burst_overhead_cycles: 8,
        }
    }

    /// Off-chip bytes per accelerator cycle at full bandwidth.
    pub fn offchip_bytes_per_cycle(&self) -> f64 {
        self.offchip_bw_mbps as f64 / self.freq_mhz as f64
    }

    /// NoC payload bytes per cycle for one operand NoC.
    pub fn noc_bytes_per_cycle(&self) -> f64 {
        self.noc_width_bits as f64 / 8.0
    }

    /// Cycles per millisecond at this clock.
    pub fn cycles_per_ms(&self) -> f64 {
        self.freq_mhz as f64 * 1e3
    }

    /// The physical-resource view consumed by the technology model.
    pub fn resources(&self) -> AcceleratorResources {
        AcceleratorResources {
            pes: self.pes,
            l1_bytes: self.l1_bytes,
            l2_bytes: self.l2_bytes,
            noc_width_bits: self.noc_width_bits,
            noc_phys_links: self.noc_phys_links,
            offchip_bw_mbps: self.offchip_bw_mbps,
            freq_mhz: self.freq_mhz,
        }
    }

    /// Total die area under `tech`, mm^2.
    pub fn area_mm2(&self, tech: &Tech) -> f64 {
        tech.area(&self.resources()).total_mm2()
    }

    /// Peak power under `tech`, watts.
    pub fn max_power_w(&self, tech: &Tech) -> f64 {
        tech.max_power(&self.resources()).total_w()
    }
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        Self::edge_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimum_is_smaller_than_baseline() {
        let min = AcceleratorConfig::edge_minimum();
        let base = AcceleratorConfig::edge_baseline();
        assert!(min.pes < base.pes);
        assert!(min.l2_bytes < base.l2_bytes);
        let t = Tech::n45();
        assert!(min.area_mm2(&t) < base.area_mm2(&t));
        assert!(min.max_power_w(&t) < base.max_power_w(&t));
    }

    #[test]
    fn unit_conversions() {
        let c = AcceleratorConfig::edge_baseline();
        assert!((c.offchip_bytes_per_cycle() - 8192.0 / 500.0).abs() < 1e-12);
        assert!((c.noc_bytes_per_cycle() - 8.0).abs() < 1e-12);
        assert!((c.cycles_per_ms() - 500_000.0).abs() < 1e-9);
    }
}
