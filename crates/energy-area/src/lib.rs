#![warn(missing_docs)]
//! Technology-level area, energy, and power models for spatial DNN
//! accelerators, in the spirit of Accelergy with CACTI/Aladdin plugins.
//!
//! The paper uses Accelergy to obtain total area, energy-per-access, and
//! maximum power at a 45 nm node; maximum power is "the maximum energy
//! consumed by all design components in a single cycle" times frequency.
//! This crate reproduces that interface with documented analytical scaling
//! formulas anchored to published 45 nm numbers (Horowitz ISSCC'14 energy
//! table, Eyeriss ISCA'16 relative access costs, CACTI SRAM densities).
//! Absolute calibration targets the paper's constraint regime: the largest
//! Table-1 configuration must exceed the 75 mm^2 / 4 W edge budgets while
//! mid-range configurations fit comfortably.
//!
//! # Example
//!
//! ```
//! use energy_area::{AcceleratorResources, Tech};
//!
//! let tech = Tech::n45();
//! let small = AcceleratorResources {
//!     pes: 256,
//!     l1_bytes: 128,
//!     l2_bytes: 128 * 1024,
//!     noc_width_bits: 32,
//!     noc_phys_links: [4, 4, 4, 4],
//!     offchip_bw_mbps: 8192,
//!     freq_mhz: 500,
//! };
//! let area = tech.area(&small);
//! let power = tech.max_power(&small);
//! assert!(area.total_mm2() < 75.0);
//! assert!(power.total_w() < 4.0);
//! ```

pub mod area;
pub mod energy;
pub mod power;
pub mod tech;

pub use area::AreaBreakdown;
pub use energy::EnergyTable;
pub use power::PowerBreakdown;
pub use tech::Tech;

/// Physical resources of one accelerator configuration, as consumed by the
/// technology model. This mirrors the hardware half of the paper's Table 1
/// design space (virtual unicast links are time-multiplexing and add no
/// physical resources beyond small control, so they do not appear here).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorResources {
    /// Number of processing elements (each one scalar int16 MAC + RF).
    pub pes: u64,
    /// Register-file (L1) bytes per PE.
    pub l1_bytes: u64,
    /// Shared scratchpad (L2) bytes.
    pub l2_bytes: u64,
    /// Data width of each operand NoC in bits.
    pub noc_width_bits: u64,
    /// Physical unicast links per operand NoC (input, weight, output-read,
    /// output-write).
    pub noc_phys_links: [u64; 4],
    /// Off-chip bandwidth in megabytes per second.
    pub offchip_bw_mbps: u64,
    /// Clock frequency in MHz.
    pub freq_mhz: u64,
}

impl AcceleratorResources {
    /// Off-chip bytes transferred per accelerator cycle at full bandwidth.
    pub fn offchip_bytes_per_cycle(&self) -> f64 {
        self.offchip_bw_mbps as f64 / self.freq_mhz as f64
    }

    /// Total on-chip NoC payload bytes movable per cycle (all four NoCs).
    pub fn noc_bytes_per_cycle(&self) -> f64 {
        4.0 * self.noc_width_bits as f64 / 8.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_table1() -> AcceleratorResources {
        AcceleratorResources {
            pes: 4096,
            l1_bytes: 1024,
            l2_bytes: 4096 * 1024,
            noc_width_bits: 256,
            noc_phys_links: [4096; 4],
            offchip_bw_mbps: 51_200,
            freq_mhz: 500,
        }
    }

    fn min_table1() -> AcceleratorResources {
        AcceleratorResources {
            pes: 64,
            l1_bytes: 8,
            l2_bytes: 64 * 1024,
            noc_width_bits: 16,
            noc_phys_links: [1, 1, 1, 1],
            offchip_bw_mbps: 1024,
            freq_mhz: 500,
        }
    }

    #[test]
    fn constraint_regime_matches_paper() {
        let tech = Tech::n45();
        // The largest configuration must violate the edge budgets...
        let max = max_table1();
        assert!(
            tech.area(&max).total_mm2() > 75.0 || tech.max_power(&max).total_w() > 4.0,
            "largest Table-1 point should exceed at least one edge budget"
        );
        // ...and the smallest must fit with ample margin.
        let min = min_table1();
        assert!(tech.area(&min).total_mm2() < 10.0);
        assert!(tech.max_power(&min).total_w() < 1.0);
    }

    #[test]
    fn bandwidth_conversions() {
        let r = min_table1();
        assert!((r.offchip_bytes_per_cycle() - 2.048).abs() < 1e-12);
        assert!((r.noc_bytes_per_cycle() - 8.0).abs() < 1e-12);
    }
}
