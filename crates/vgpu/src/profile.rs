//! Device profiles: the four GPUs of the paper's Table III.
//!
//! The virtual device executes kernels functionally on the host CPU; these
//! profiles parameterise the *performance model* ([`crate::perfmodel`]) that
//! converts counted memory transactions and floating-point operations into a
//! modeled kernel time for each platform. Peak numbers come straight from
//! Table III; double-precision throughput ratios are the published
//! architectural ratios of each chip.

use serde::Serialize;

/// A modeled GPU.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DeviceProfile {
    /// Display name (as in the paper's figures).
    pub name: String,
    /// Peak memory bandwidth in GB/s (Table III).
    pub mem_bw_gbs: f64,
    /// Peak single-precision GFLOP/s (Table III).
    pub sp_gflops: f64,
    /// Double-precision : single-precision throughput ratio (architectural).
    pub dp_ratio: f64,
    /// Fraction of peak bandwidth achievable by well-coalesced streams
    /// (DRAM efficiency).
    pub bw_efficiency: f64,
    /// Fixed per-launch overhead in microseconds (driver + dispatch).
    pub launch_overhead_us: f64,
    /// Memory transaction (cache line) size in bytes — 128 B on all four
    /// GPUs' L1/texture path.
    pub transaction_bytes: u64,
    /// Inter-device link bandwidth in GB/s, charged for halo-exchange
    /// bytes when a grid is sharded across devices (PCIe 3.0 x16
    /// peer-to-peer class; none of the Table III platforms had NVLink).
    pub link_bw_gbs: f64,
}

impl DeviceProfile {
    /// Peak GFLOP/s at the given precision.
    pub fn gflops(&self, double_precision: bool) -> f64 {
        if double_precision {
            self.sp_gflops * self.dp_ratio
        } else {
            self.sp_gflops
        }
    }

    /// NVIDIA GeForce GTX 780 (Kepler GK110, consumer DP 1/24).
    pub fn gtx780() -> Self {
        DeviceProfile {
            name: "GTX780".into(),
            mem_bw_gbs: 288.0,
            sp_gflops: 3977.0,
            dp_ratio: 1.0 / 24.0,
            bw_efficiency: 0.75,
            launch_overhead_us: 6.0,
            transaction_bytes: 128,
            link_bw_gbs: 12.0,
        }
    }

    /// AMD Radeon HD 7970 (Tahiti, DP 1/4).
    pub fn hd7970() -> Self {
        DeviceProfile {
            name: "AMD7970".into(),
            mem_bw_gbs: 288.0,
            sp_gflops: 4096.0,
            dp_ratio: 0.25,
            bw_efficiency: 0.7,
            launch_overhead_us: 8.0,
            transaction_bytes: 128,
            link_bw_gbs: 12.0,
        }
    }

    /// NVIDIA GTX TITAN Black (GK110B with full-rate DP enabled, 1/3).
    pub fn titan_black() -> Self {
        DeviceProfile {
            name: "Titan Black".into(),
            mem_bw_gbs: 337.0,
            sp_gflops: 5120.0,
            dp_ratio: 1.0 / 3.0,
            bw_efficiency: 0.75,
            launch_overhead_us: 6.0,
            transaction_bytes: 128,
            link_bw_gbs: 12.0,
        }
    }

    /// AMD Radeon R9 295X2 (one Hawaii GPU of the pair, DP 1/8).
    pub fn r9_295x2() -> Self {
        DeviceProfile {
            name: "RadeonR9".into(),
            mem_bw_gbs: 320.0,
            sp_gflops: 5733.0,
            dp_ratio: 0.125,
            bw_efficiency: 0.7,
            launch_overhead_us: 8.0,
            transaction_bytes: 128,
            link_bw_gbs: 12.0,
        }
    }

    /// All four platforms of Table III, in the paper's plotting order.
    pub fn paper_platforms() -> Vec<DeviceProfile> {
        vec![Self::hd7970(), Self::gtx780(), Self::r9_295x2(), Self::titan_black()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_metrics() {
        let p = DeviceProfile::gtx780();
        assert_eq!(p.mem_bw_gbs, 288.0);
        assert_eq!(p.sp_gflops, 3977.0);
        let t = DeviceProfile::titan_black();
        assert_eq!(t.mem_bw_gbs, 337.0);
        assert_eq!(t.sp_gflops, 5120.0);
    }

    #[test]
    fn dp_ratios_order_platforms() {
        // Titan Black is the DP monster; GTX 780 the weakest.
        let tb = DeviceProfile::titan_black().gflops(true);
        let gtx = DeviceProfile::gtx780().gflops(true);
        let amd = DeviceProfile::hd7970().gflops(true);
        assert!(tb > amd && amd > gtx);
    }

    #[test]
    fn four_platforms() {
        assert_eq!(DeviceProfile::paper_platforms().len(), 4);
    }
}
