//! Integer roofline analysis (Fig. 9).
//!
//! The paper augments Nsight's FLOP roofline with *integer* instruction
//! metrics, weighting `IMAD` as two operations and everything else as one.
//! A kernel's position is `(arithmetic intensity [INTOP/byte],
//! performance [GINTOP/s])`; ceilings come from the INT32 pipes and the
//! memory system.

use crate::device::DeviceSpec;
use crate::machine::SimResult;

/// Which ceiling limits a kernel at its arithmetic intensity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Left of the knee: the DRAM bandwidth roof is the binding ceiling.
    Memory,
    /// At or right of the knee: the INT32 compute ceiling binds.
    Compute,
}

impl Bound {
    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            Bound::Memory => "memory-bound",
            Bound::Compute => "compute-bound",
        }
    }
}

/// One point plotted inside the roofline envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflinePoint {
    /// Kernel label, e.g. `"FF_mul"`.
    pub label: String,
    /// INTOP per byte of DRAM traffic.
    pub arithmetic_intensity: f64,
    /// Achieved GINTOP/s.
    pub gintops: f64,
    /// Fraction of the compute ceiling achieved.
    pub compute_fraction: f64,
}

/// The device's roofline ceilings.
#[derive(Debug, Clone, PartialEq)]
pub struct Roofline {
    /// Peak integer throughput in GINTOP/s.
    pub peak_gintops: f64,
    /// DRAM bandwidth in GB/s.
    pub dram_gbs: f64,
    /// L2 bandwidth in GB/s (modelled at 3× DRAM).
    pub l2_gbs: f64,
    /// L1 bandwidth in GB/s (modelled at 10× DRAM).
    pub l1_gbs: f64,
}

impl Roofline {
    /// The ceilings of a device.
    pub fn of(device: &DeviceSpec) -> Self {
        Self {
            peak_gintops: device.peak_gintops(),
            dram_gbs: device.mem_bandwidth_gbs,
            l2_gbs: device.mem_bandwidth_gbs * 3.0,
            l1_gbs: device.mem_bandwidth_gbs * 10.0,
        }
    }

    /// Attainable GINTOP/s at a given arithmetic intensity (DRAM roof).
    pub fn attainable(&self, ai: f64) -> f64 {
        (ai * self.dram_gbs).min(self.peak_gintops)
    }

    /// The intensity where the DRAM roof meets the compute ceiling.
    pub fn knee(&self) -> f64 {
        self.peak_gintops / self.dram_gbs
    }

    /// Classifies an arithmetic intensity: which ceiling binds there. Used
    /// identically by measured ([`Roofline::place`]) and static
    /// ([`Roofline::place_static`]) points.
    pub fn bound(&self, ai: f64) -> Bound {
        if ai < self.knee() {
            Bound::Memory
        } else {
            Bound::Compute
        }
    }

    /// Positions a simulated kernel in the envelope. The simulation covers
    /// one SMSP; performance scales by the device's SMSP count, as per-SM
    /// behaviour is constant (§IV-D).
    pub fn place(&self, device: &DeviceSpec, label: &str, sim: &SimResult) -> RooflinePoint {
        self.place_static(
            device,
            label,
            sim.cycles,
            sim.int_ops,
            sim.arithmetic_intensity(),
        )
    }

    /// Positions a kernel from *static* analysis alone: predicted issue
    /// cycles (one warp-set on one SMSP), static INT32 ops per warp ×
    /// resident warps, and static arithmetic intensity — no execution.
    pub fn place_static(
        &self,
        device: &DeviceSpec,
        label: &str,
        predicted_cycles: u64,
        int_ops: u64,
        ai: f64,
    ) -> RooflinePoint {
        let seconds = predicted_cycles as f64 / (device.clock_ghz * 1e9);
        let smsps = f64::from(device.sm_count * device.smsp_per_sm);
        let gintops = int_ops as f64 * smsps / seconds / 1e9;
        RooflinePoint {
            label: label.to_owned(),
            arithmetic_intensity: ai,
            gintops,
            compute_fraction: gintops / self.peak_gintops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::a40;

    #[test]
    fn ceilings_are_consistent() {
        let r = Roofline::of(&a40());
        assert!(r.peak_gintops > 10_000.0);
        assert!(r.l1_gbs > r.l2_gbs && r.l2_gbs > r.dram_gbs);
        // Below the knee the roof is bandwidth; above, compute.
        let knee = r.knee();
        assert!(r.attainable(knee * 0.5) < r.peak_gintops);
        assert_eq!(r.attainable(knee * 10.0), r.peak_gintops);
    }

    #[test]
    fn bound_flips_at_the_knee() {
        let r = Roofline::of(&a40());
        let knee = r.knee();
        assert_eq!(r.bound(knee * 0.5), Bound::Memory);
        assert_eq!(r.bound(knee * 2.0), Bound::Compute);
    }

    #[test]
    fn attainable_scales_linearly_below_knee() {
        let r = Roofline::of(&a40());
        let a = r.attainable(1.0);
        let b = r.attainable(2.0);
        assert!((b / a - 2.0).abs() < 1e-9);
    }
}
