//! Analytical performance models of the five GPU ZKP libraries (Table I)
//! and the arkworks CPU baseline.
//!
//! The micro layer (`microbench`) supplies measured per-`FF_op` SMSP-cycle
//! throughputs; this layer composes them with the *algorithmic* operation
//! counts of Pippenger MSM and Cooley–Tukey NTT, the libraries' launch
//! configurations, and their transfer disciplines (§IV-A), producing the
//! per-scale kernel times behind Table II and Figs. 1/5/6/7. The paper's
//! qualitative descriptions fix each model's structure; a small number of
//! calibration constants (documented below) pin absolute positions.

use crate::calibration::{best_window, pippenger_padds};
use crate::ffprogs::FfOp;
use crate::field32::Field32;
use crate::microbench::bench_ff_op;
use gpu_sim::device::DeviceSpec;
use gpu_sim::transfer::{combine, transfer_seconds, PhaseTime, TransferMode};
use std::sync::OnceLock;
use zkp_ff::{Fq381Config, Fr381Config};

/// Measured SMSP-level costs of the field operations, in SMSP-cycles per
/// operation (throughput-inverse at the saturating 2-warp configuration),
/// plus warp-instruction counts per op for Fig. 6's instruction rates.
#[derive(Debug, Clone, Copy)]
pub struct KernelCosts {
    /// 12-limb (Fq) multiply.
    pub mul12: f64,
    /// 12-limb add/sub.
    pub add12: f64,
    /// 12-limb double.
    pub dbl12: f64,
    /// 8-limb (Fr) multiply.
    pub mul8: f64,
    /// 8-limb add/sub.
    pub add8: f64,
    /// Warp instructions per 12-limb multiply.
    pub instr_mul12: f64,
    /// Warp instructions per 12-limb add.
    pub instr_add12: f64,
    /// Warp instructions per 8-limb butterfly (mul + add + sub).
    pub instr_bfly8: f64,
}

/// Measures (once) the kernel costs on the simulator.
pub fn kernel_costs() -> &'static KernelCosts {
    static COSTS: OnceLock<KernelCosts> = OnceLock::new();
    COSTS.get_or_init(|| {
        let fq = Field32::of::<Fq381Config, 6>();
        let fr = Field32::of::<Fr381Config, 4>();
        let warps = 2;
        let iters = 8;
        let per_op = |field: &Field32, op: FfOp| {
            let r = bench_ff_op(field, op, warps, iters, 7);
            // Thread-ops completed: every thread of every warp runs `iters`.
            let ops = f64::from(iters) * 32.0 * warps as f64;
            let smsp_cycles_per_op = r.sim.cycles as f64 / ops;
            // Warp instructions per (per-warp) op, for Fig. 6.
            let instr = r.sim.instructions as f64 / (f64::from(iters) * warps as f64);
            (instr, smsp_cycles_per_op)
        };
        let (i_mul12, c_mul12) = per_op(&fq, FfOp::Mul);
        let (i_add12, c_add12) = per_op(&fq, FfOp::Add);
        let (_, c_dbl12) = per_op(&fq, FfOp::Dbl);
        let (i_mul8, c_mul8) = per_op(&fr, FfOp::Mul);
        let (i_add8, c_add8) = per_op(&fr, FfOp::Add);
        KernelCosts {
            mul12: c_mul12,
            add12: c_add12,
            dbl12: c_dbl12,
            mul8: c_mul8,
            add8: c_add8,
            instr_mul12: i_mul12,
            instr_add12: i_add12,
            instr_bfly8: i_mul8 + 2.0 * i_add8,
        }
    })
}

/// The libraries of Table I (plus the CPU baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LibraryId {
    /// arkworks (CPU).
    Arkworks,
    /// bellperson (GPU, Jacobian MSM + radix-256 NTT).
    Bellperson,
    /// sppark (GPU, XYZZ + sorted buckets).
    Sppark,
    /// cuZK (GPU, own framework; NTT fails past 2^23).
    Cuzk,
    /// yrrid (GPU, ZPrize MSM; no NTT).
    Yrrid,
    /// ymc (GPU, yrrid + signed digits + precompute + chunking; no NTT).
    Ymc,
}

impl LibraryId {
    /// Every library, the CPU baseline first.
    const ALL: [LibraryId; 6] = [
        LibraryId::Arkworks,
        LibraryId::Bellperson,
        LibraryId::Sppark,
        LibraryId::Cuzk,
        LibraryId::Yrrid,
        LibraryId::Ymc,
    ];

    /// All GPU libraries.
    pub fn gpu_libraries() -> [LibraryId; 5] {
        let [_, gpu @ ..] = Self::ALL;
        gpu
    }

    /// The library a name spells (`"sppark"`, `"ymc"`, …; any case).
    pub fn by_name(name: &str) -> Option<LibraryId> {
        Self::ALL
            .into_iter()
            .find(|lib| lib.name().eq_ignore_ascii_case(name))
    }

    /// Display name (paper spelling).
    pub fn name(&self) -> &'static str {
        match self {
            LibraryId::Arkworks => "arkworks",
            LibraryId::Bellperson => "bellperson",
            LibraryId::Sppark => "sppark",
            LibraryId::Cuzk => "cuzk",
            LibraryId::Yrrid => "yrrid",
            LibraryId::Ymc => "ymc",
        }
    }
}

/// One kernel-phase estimate.
#[derive(Debug, Clone, Copy)]
pub struct PhaseEstimate {
    /// Timing with transfer overlap applied.
    pub time: PhaseTime,
    /// Kernel launches submitted.
    pub launches: u64,
    /// Warp instructions executed (for Fig. 6).
    pub instructions: f64,
    /// GPU activity factor for the energy model.
    pub activity: f64,
}

impl PhaseEstimate {
    /// Wall seconds.
    pub fn seconds(&self) -> f64 {
        self.time.total_s
    }

    /// Kilo-instructions per second (Fig. 6's metric).
    pub fn kips(&self) -> f64 {
        self.instructions / self.seconds() / 1e3
    }
}

/// The fastest GPU library for one phase: the first argmin of `estimate`'s
/// seconds over [`LibraryId::gpu_libraries`], skipping libraries that do
/// not implement the phase (`None`).
///
/// # Panics
///
/// Panics if no library implements the phase.
pub fn best_library(
    estimate: impl Fn(LibraryId) -> Option<PhaseEstimate>,
) -> (LibraryId, PhaseEstimate) {
    LibraryId::gpu_libraries()
        .into_iter()
        .filter_map(|lib| estimate(lib).map(|e| (lib, e)))
        .min_by(|a, b| {
            a.1.seconds()
                .partial_cmp(&b.1.seconds())
                .expect("finite estimates")
        })
        .expect("at least one GPU library models every phase")
}

/// Fixed cost per kernel launch.
pub const LAUNCH_OVERHEAD_S: f64 = 5e-6;
/// Scalar bytes (8 × 32-bit limbs).
pub const SCALAR_BYTES: u64 = 32;
/// Affine G1 point bytes (2 × 12 limbs).
pub const POINT_BYTES: u64 = 96;

/// PADD cost in SMSP-cycles for the two bucket representations
/// (Table V operation counts × measured per-op costs).
fn padd_cost(xyzz: bool) -> f64 {
    let k = kernel_costs();
    if xyzz {
        // XYZZ mixed add: 8 mul + 2 sqr + 6 sub + 1 dbl.
        10.0 * k.mul12 + 6.0 * k.add12 + k.dbl12
    } else {
        // Jacobian mixed add: 7 mul + 4 sqr + 8 sub + 1 add + 5 dbl.
        11.0 * k.mul12 + 9.0 * k.add12 + 5.0 * k.dbl12
    }
}

fn instr_per_padd(xyzz: bool) -> f64 {
    let k = kernel_costs();
    if xyzz {
        10.0 * k.instr_mul12 + 7.0 * k.instr_add12
    } else {
        11.0 * k.instr_mul12 + 14.0 * k.instr_add12
    }
}

/// GPU MSM model. Returns `None` if the library has no MSM for this scale
/// (all five have MSM at every studied scale).
pub fn msm_estimate(lib: LibraryId, device: &DeviceSpec, log_n: u32) -> Option<PhaseEstimate> {
    let n = 1u64 << log_n;
    let smsps = f64::from(device.sm_count * device.smsp_per_sm);
    let clock = device.clock_ghz * 1e9;

    // (effective INT32 efficiency, xyzz, signed, fixed per-call seconds).
    // Efficiency captures everything between the INT32-bound ideal and a
    // real library (sorting, atomics, load imbalance); the fixed cost is
    // host-side setup plus preprocessing. Both are calibrated against the
    // A40 anchors of Table II (see EXPERIMENTS.md): sppark from 2^15/2^20,
    // ymc from 2^22/2^26, yrrid from 2^21.
    let (eff, xyzz, signed, pre_fixed) = match lib {
        LibraryId::Bellperson => (0.060, false, false, 0.020),
        LibraryId::Cuzk => (0.120, false, false, 0.025),
        LibraryId::Sppark => (0.167, true, false, 0.0223),
        // yrrid/ymc: signed digits; ZPrize preprocessing (point
        // transforms, sorting, chunk setup) is heavy at small scales
        // (§IV-A: "up to 30% of the MSM compute time").
        LibraryId::Yrrid => (0.424, true, true, 0.0841),
        LibraryId::Ymc => (0.6404, true, true, 0.1143),
        LibraryId::Arkworks => return None,
    };
    let c = best_window(n, signed);
    let (acc, red, w) = pippenger_padds(n, c, signed);
    let padds = acc + red;
    let compute_s = padds * padd_cost(xyzz) / (smsps * eff) / clock + pre_fixed;

    let bytes = n * (POINT_BYTES + SCALAR_BYTES);
    let transfer_s = transfer_seconds(device, bytes);
    let mode = match lib {
        // Optimized MSMs overlap transfers with compute (§IV-A / Fig. 7);
        // only Ampere+ has the async-copy path.
        LibraryId::Sppark | LibraryId::Yrrid | LibraryId::Ymc | LibraryId::Cuzk
            if device.async_copy =>
        {
            TransferMode::Overlapped
        }
        _ => TransferMode::Synchronous,
    };
    let launches = u64::from(w) * 2 + 4;
    let time = combine(
        compute_s + launches as f64 * LAUNCH_OVERHEAD_S,
        transfer_s,
        mode,
    );
    Some(PhaseEstimate {
        time,
        launches,
        instructions: padds * instr_per_padd(xyzz),
        activity: 0.65 + 0.25 * eff,
    })
}

/// GPU NTT model (scale = one transform of `2^log_n` Fr elements).
/// Returns `None` where the library has no working NTT (yrrid/ymc: none;
/// cuZK: "Memory Allocation and Segmentation Fault errors" past 2^23).
///
/// `bellperson` moves the whole vector to and from the host around *every
/// pass* through pageable (unpinned) OpenCL buffers — the §IV-A finding
/// that "the on-device compute time of the butterfly operation is modest
/// compared to the expensive CPU–GPU data transfers". `cuZK` keeps data
/// and twiddles resident and pays one host transfer per transform.
/// Constants are calibrated against Table II anchors (bellperson from
/// 2^16/2^24, cuZK from 2^18/2^23); see EXPERIMENTS.md.
pub fn ntt_estimate(lib: LibraryId, device: &DeviceSpec, log_n: u32) -> Option<PhaseEstimate> {
    let n = 1u64 << log_n;
    let smsps = f64::from(device.sm_count * device.smsp_per_sm);
    let clock = device.clock_ghz * 1e9;
    let k = kernel_costs();
    let bfly_cost = k.mul8 + 2.0 * k.add8;
    let butterflies = (n / 2) as f64 * f64::from(log_n);

    /// Effective bandwidth of pageable (unpinned) host copies.
    const PAGEABLE_GBS: f64 = 6.2;

    // (efficiency, radix log2, setup s, tail penalty?, per-pass host copies?)
    let (eff, radix_log, setup_s, tail_penalty, per_pass_copies) = match lib {
        LibraryId::Bellperson => (1.0, 8u32, 2.0e-3, true, true),
        LibraryId::Cuzk => {
            if log_n > 23 {
                return None;
            }
            (0.0224, 8, 5.5e-3, false, false)
        }
        LibraryId::Sppark => (0.010, 7, 3.0e-3, true, false),
        _ => return None,
    };

    // Pass structure: full-radix passes plus a possibly tiny tail pass.
    let full_passes = log_n / radix_log;
    let tail_stages = log_n % radix_log;
    let per_pass_butterflies = (n / 2) as f64 * f64::from(radix_log);
    let mut compute_s =
        f64::from(full_passes) * per_pass_butterflies * bfly_cost / (smsps * eff) / clock;
    let mut launches = u64::from(full_passes);
    if tail_stages > 0 {
        // The tail kernel launches blocks of 2^tail_stages threads
        // (§IV-A: "16 million blocks of 2 threads each") — lanes beyond
        // the block size idle within each warp.
        let tail_butterflies = (n / 2) as f64 * f64::from(tail_stages);
        let lane_util = if tail_penalty {
            (f64::from(2u32.pow(tail_stages.min(5))) / 32.0).min(1.0)
        } else {
            1.0
        };
        compute_s += tail_butterflies * bfly_cost / (smsps * eff * lane_util) / clock;
        launches += 1;
    }
    debug_assert!(butterflies > 0.0);

    let transfer_s = if per_pass_copies {
        // Up-and-down around every pass, through pageable buffers, with a
        // ~0.5 ms queue-synchronization cost per round trip.
        launches as f64 * (2.0 * (n * SCALAR_BYTES) as f64 / (PAGEABLE_GBS * 1e9) + 5.0e-4)
    } else {
        transfer_seconds(device, n * SCALAR_BYTES)
    };
    let time = combine(
        compute_s + setup_s + launches as f64 * LAUNCH_OVERHEAD_S,
        transfer_s,
        TransferMode::Synchronous,
    );
    Some(PhaseEstimate {
        time,
        launches,
        instructions: butterflies * k.instr_bfly8,
        activity: 0.25 + 0.3 * eff.min(1.0) * 0.3,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::device::a40;

    #[test]
    fn kernel_costs_are_sane() {
        let k = kernel_costs();
        // 12-limb mul ≈ 2900 cycles per 64 threads ≈ 45 SMSP-cycles/op.
        assert!((30.0..70.0).contains(&k.mul12), "{k:?}");
        assert!(k.mul12 > 5.0 * k.add12);
        assert!(k.mul8 < k.mul12);
        assert!(k.instr_mul12 > 300.0);
    }

    #[test]
    fn ntt_support_matrix_matches_table1() {
        let d = a40();
        assert!(ntt_estimate(LibraryId::Yrrid, &d, 20).is_none());
        assert!(ntt_estimate(LibraryId::Ymc, &d, 20).is_none());
        assert!(ntt_estimate(LibraryId::Cuzk, &d, 23).is_some());
        assert!(
            ntt_estimate(LibraryId::Cuzk, &d, 24).is_none(),
            "cuZK OOMs past 2^23"
        );
        assert!(ntt_estimate(LibraryId::Bellperson, &d, 26).is_some());
    }

    #[test]
    fn bellperson_tail_kernel_hurts_2_25() {
        // 2^24 = 3 clean radix-256 passes; 2^25 adds a radix-2 tail.
        let d = a40();
        let t24 = ntt_estimate(LibraryId::Bellperson, &d, 24).expect("exists");
        let t25 = ntt_estimate(LibraryId::Bellperson, &d, 25).expect("exists");
        // Doubling the input normally ~doubles the time; the radix-2 tail
        // adds a disproportionate jump on top.
        assert!(t25.seconds() > 2.2 * t24.seconds());
        // And the clean 2^24 point is *faster per element* than 2^23+tail.
        let t23 = ntt_estimate(LibraryId::Bellperson, &d, 23).expect("exists");
        let per24 = t24.seconds() / (1u64 << 24) as f64;
        let per23 = t23.seconds() / (1u64 << 23) as f64;
        assert!(per24 < per23 * 1.05, "per-element {per24} vs {per23}");
    }

    #[test]
    fn msm_transfer_hidden_ntt_exposed() {
        let d = a40();
        let msm = msm_estimate(LibraryId::Ymc, &d, 24).expect("exists");
        let ntt = ntt_estimate(LibraryId::Bellperson, &d, 24).expect("exists");
        assert!(msm.time.transfer_fraction() < 0.3);
        assert!(ntt.time.transfer_fraction() > 0.5);
    }
}
