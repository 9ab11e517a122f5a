//! Occupancy calculation (§IV-C4).
//!
//! *Theoretical occupancy* is bounded by compute capability limits,
//! per-thread register usage, and per-block shared memory; *achieved
//! occupancy* additionally by the launch configuration
//! `<<<blocks, threads>>>`.

use crate::device::DeviceSpec;
use crate::isa::Program;

/// Infers registers-per-thread for a program from the static analyzer's
/// max-live-register pressure — the alternative to hand-typing the
/// §IV-C4 figures into [`LaunchConfig::registers_per_thread`]. An actual
/// compiler allocates at least this many (plus spill/ABI overhead), so it
/// is a sound lower bound for occupancy math.
pub fn registers_per_thread_from(program: &Program) -> u32 {
    crate::analysis::max_live_registers(program)
}

/// A kernel launch configuration with its resource appetite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Grid size (number of blocks).
    pub blocks: u64,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Live registers per thread (e.g. 228–244 for the MSM kernels, 56 for
    /// NTT — §IV-C4).
    pub registers_per_thread: u32,
    /// Shared memory per block in bytes.
    pub shared_mem_per_block: u32,
}

impl LaunchConfig {
    /// Warps per block (rounded up).
    pub fn warps_per_block(&self, warp_size: u32) -> u32 {
        self.threads_per_block.div_ceil(warp_size)
    }

    /// Builds a launch whose register appetite is inferred from `program`
    /// by the static analyzer (see [`registers_per_thread_from`]).
    pub fn for_program(
        program: &Program,
        blocks: u64,
        threads_per_block: u32,
        shared_mem_per_block: u32,
    ) -> Self {
        LaunchConfig {
            blocks,
            threads_per_block,
            registers_per_thread: registers_per_thread_from(program),
            shared_mem_per_block,
        }
    }
}

/// Occupancy analysis results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occupancy {
    /// Blocks that fit on one SM given the resource limits.
    pub blocks_per_sm: u32,
    /// Resident warps per SM.
    pub warps_per_sm: u32,
    /// Theoretical occupancy: resident warps / max warps.
    pub theoretical: f64,
    /// Achieved occupancy, additionally limited by the grid size.
    pub achieved: f64,
    /// Which resource bounds the occupancy.
    pub limiter: &'static str,
}

/// Computes occupancy for a launch on a device.
pub fn occupancy(device: &DeviceSpec, launch: &LaunchConfig) -> Occupancy {
    let warps_per_block = launch.warps_per_block(device.warp_size).max(1);

    // Warp-count limit.
    let by_warps = device.max_warps_per_sm / warps_per_block;
    // Register limit (allocated per warp at warp_size granularity).
    let regs_per_block = launch
        .registers_per_thread
        .max(32)
        .saturating_mul(device.warp_size)
        .saturating_mul(warps_per_block);
    let by_regs = device
        .registers_per_sm
        .checked_div(regs_per_block)
        .unwrap_or(device.max_blocks_per_sm);
    // Shared memory limit.
    let by_shared = (device.shared_mem_per_sm_kib * 1024)
        .checked_div(launch.shared_mem_per_block)
        .unwrap_or(device.max_blocks_per_sm);
    let by_blocks = device.max_blocks_per_sm;

    let blocks_per_sm = by_warps.min(by_regs).min(by_shared).min(by_blocks);
    // Attribute the limiter to the binding resource; the defaulted limits
    // (no shared memory requested, register floor) cannot be limiters.
    let limiter = if launch.registers_per_thread > 32 && blocks_per_sm == by_regs {
        "registers"
    } else if launch.shared_mem_per_block > 0 && blocks_per_sm == by_shared {
        "shared memory"
    } else if blocks_per_sm == by_warps {
        "warp slots"
    } else {
        "block slots"
    };

    let warps_per_sm = blocks_per_sm * warps_per_block;
    let theoretical = f64::from(warps_per_sm) / f64::from(device.max_warps_per_sm);

    // Achieved: the grid may not have enough blocks to fill every SM.
    let resident_blocks =
        (launch.blocks as f64 / f64::from(device.sm_count)).min(f64::from(blocks_per_sm));
    let achieved_warps = resident_blocks * f64::from(warps_per_block);
    let achieved = (achieved_warps / f64::from(device.max_warps_per_sm)).min(theoretical);

    Occupancy {
        blocks_per_sm,
        warps_per_sm,
        theoretical,
        achieved,
        limiter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::a40;

    #[test]
    fn msm_kernels_are_register_limited() {
        // ymc: 244 registers/thread, <<<84, 128>>> on the A40 (§IV-C4).
        let d = a40();
        let launch = LaunchConfig {
            blocks: 84,
            threads_per_block: 128,
            registers_per_thread: 244,
            shared_mem_per_block: 0,
        };
        let occ = occupancy(&d, &launch);
        assert_eq!(occ.limiter, "registers");
        // 244 regs × 32 threads × 4 warps/block ≈ 31232 regs/block ->
        // 2 blocks/SM -> 8 warps of 48.
        assert_eq!(occ.blocks_per_sm, 2);
        assert_eq!(occ.warps_per_sm, 8);
        assert!((occ.theoretical - 8.0 / 48.0).abs() < 1e-9);
    }

    #[test]
    fn ntt_low_register_kernels_fit_more_warps() {
        // NTT: 56 live registers (§IV-C4) — warp-slot limited instead.
        let d = a40();
        let launch = LaunchConfig {
            blocks: 168,
            threads_per_block: 128,
            registers_per_thread: 56,
            shared_mem_per_block: 0,
        };
        let occ = occupancy(&d, &launch);
        assert!(occ.warps_per_sm > 8);
        assert!(occ.theoretical > 0.5);
    }

    #[test]
    fn small_grids_cap_achieved_occupancy() {
        let d = a40();
        let launch = LaunchConfig {
            blocks: 10, // fewer blocks than SMs
            threads_per_block: 128,
            registers_per_thread: 56,
            shared_mem_per_block: 0,
        };
        let occ = occupancy(&d, &launch);
        assert!(occ.achieved < occ.theoretical);
        assert!(occ.achieved < 0.05 * 10.0); // tiny
    }

    #[test]
    fn bellperson_radix2_tail_kernel_underutilizes() {
        // §IV-A: "16 million blocks of 2 threads each" — each block still
        // occupies a warp slot, so 31/32 lanes idle.
        let d = a40();
        let launch = LaunchConfig {
            blocks: 16 << 20,
            threads_per_block: 2,
            registers_per_thread: 32,
            shared_mem_per_block: 0,
        };
        let occ = occupancy(&d, &launch);
        // One warp per block -> warp slots fill with 2-thread warps.
        assert_eq!(occ.warps_per_sm, d.max_blocks_per_sm);
        // Lane utilization within those warps is 2/32.
        let lane_util = 2.0 / f64::from(d.warp_size);
        assert!(lane_util < 0.07);
    }

    #[test]
    fn shared_memory_can_limit() {
        let d = a40();
        let launch = LaunchConfig {
            blocks: 1000,
            threads_per_block: 64,
            registers_per_thread: 32,
            shared_mem_per_block: 48 * 1024,
        };
        let occ = occupancy(&d, &launch);
        assert_eq!(occ.limiter, "shared memory");
        assert_eq!(occ.blocks_per_sm, 2);
    }
}
