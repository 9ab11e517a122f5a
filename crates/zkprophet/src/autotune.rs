//! The §V autotuner: "motivating the development of autotuning tools which
//! can optimally adapt an application to a Zero-Knowledge Proof on the
//! target GPU at runtime."
//!
//! Given a target device and circuit size, the tuner picks the kernel
//! implementations Table II's analysis recommends, a precomputed-window
//! configuration that fits the device memory (Fig. 12), and a launch
//! configuration within the occupancy limits (§IV-C4).

use crate::prover_model::gpu_prover;
use crate::report::{f, secs, Table};
use crate::sim::GpuCostModel;
use gpu_kernels::curveprogs::xyzz_madd_kernel;
use gpu_kernels::field32::Field32;
use gpu_kernels::libraries::LibraryId;
use gpu_sim::device::DeviceSpec;
use gpu_sim::occupancy::{occupancy, registers_per_thread_from, LaunchConfig};
use zkp_ff::Fq381Config;
use zkp_msm::precompute_cost;

/// An autotuning recommendation for one (device, scale) pair.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// Target device name.
    pub device: String,
    /// Circuit scale exponent.
    pub log_scale: u32,
    /// Recommended MSM library.
    pub msm_library: LibraryId,
    /// Recommended NTT library.
    pub ntt_library: LibraryId,
    /// Precomputed-window count that fits device memory (23-bit windows).
    pub precompute_windows: u32,
    /// Storage the precompute table needs (GiB).
    pub precompute_gib: f64,
    /// Suggested MSM launch configuration.
    pub launch: LaunchConfig,
    /// Theoretical occupancy of that launch.
    pub occupancy_pct: f64,
    /// Predicted prover wall time.
    pub predicted_seconds: f64,
}

/// Produces a recommendation.
pub fn recommend(device: &DeviceSpec, log_scale: u32) -> Recommendation {
    let gpu = GpuCostModel::best_of_breed(device.clone());
    let (msm_library, _) = gpu.msm(log_scale);
    let (ntt_library, _) = gpu.ntt(log_scale + 1);

    // Smallest window count whose table fits in 90% of device memory,
    // leaving room for buckets and working sets.
    let n = 1u64 << log_scale;
    let budget = f64::from(device.memory_gib) * 0.9 * (1u64 << 30) as f64;
    let precompute = (1..=11u32)
        .find(|&w| {
            let c = precompute_cost(n, 253, 23, w, 10, 48);
            (c.storage_bytes as f64) <= budget
        })
        .unwrap_or(11);
    let cost = precompute_cost(n, 253, 23, precompute, 10, 48);

    // MSM-style launch: one block of 128 threads per SM per wave. The
    // register appetite is no longer a hand-typed §IV-C4 constant: it is
    // inferred by the static analyzer from the XYZZ mixed-addition kernel
    // the bucket phase actually runs (a live-range lower bound on what
    // sppark/ymc's 228–244-register allocations must accommodate).
    let madd = xyzz_madd_kernel(&Field32::of::<Fq381Config, 6>()).program;
    let launch = LaunchConfig {
        blocks: u64::from(device.sm_count),
        threads_per_block: 128,
        registers_per_thread: registers_per_thread_from(&madd),
        shared_mem_per_block: 0,
    };
    let occ = occupancy(device, &launch);

    Recommendation {
        device: device.name.to_owned(),
        log_scale,
        msm_library,
        ntt_library,
        precompute_windows: precompute,
        precompute_gib: cost.storage_bytes as f64 / (1u64 << 30) as f64,
        launch,
        occupancy_pct: 100.0 * occ.theoretical,
        predicted_seconds: gpu_prover(device, log_scale).critical_path_s(),
    }
}

/// Renders a recommendation.
pub fn render(rec: &Recommendation) -> String {
    let mut t = Table::new(
        &format!(
            "Autotune: {} at 2^{} constraints",
            rec.device, rec.log_scale
        ),
        &["Parameter", "Choice"],
    );
    t.row(vec!["MSM library".into(), rec.msm_library.name().into()]);
    t.row(vec!["NTT library".into(), rec.ntt_library.name().into()]);
    t.row(vec![
        "Precompute windows (c=23)".into(),
        format!(
            "{} ({} GiB table)",
            rec.precompute_windows,
            f(rec.precompute_gib)
        ),
    ]);
    t.row(vec![
        "MSM launch".into(),
        format!(
            "<<<{}, {}>>> @ {} regs",
            rec.launch.blocks, rec.launch.threads_per_block, rec.launch.registers_per_thread
        ),
    ]);
    t.row(vec![
        "Theoretical occupancy".into(),
        format!("{}%", f(rec.occupancy_pct)),
    ]);
    t.row(vec![
        "Predicted prover time".into(),
        secs(rec.predicted_seconds),
    ]);
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::device::{a100, a40, h100, l4, t4};

    #[test]
    fn library_choice_tracks_scale() {
        let d = a40();
        assert_eq!(recommend(&d, 16).msm_library, LibraryId::Sppark);
        assert_eq!(recommend(&d, 26).msm_library, LibraryId::Ymc);
        assert_eq!(recommend(&d, 16).ntt_library, LibraryId::Bellperson);
        assert_eq!(recommend(&d, 19).ntt_library, LibraryId::Cuzk);
    }

    #[test]
    fn bigger_memory_allows_fewer_windows() {
        // The §IV-D recommendation: H100's 80 GB supports more
        // precomputation than the A40's 48 GB or the L4's 24 GB.
        let at = |d: &DeviceSpec| recommend(d, 26).precompute_windows;
        assert_eq!(at(&h100()), 1);
        assert_eq!(at(&a100()), 1);
        assert_eq!(at(&a40()), 2);
        assert_eq!(at(&l4()), 4);
        assert!(at(&t4()) > 4);
    }

    #[test]
    fn small_circuits_need_no_extra_copies() {
        // At 2^16 even one window's full table is tiny.
        let rec = recommend(&t4(), 16);
        assert_eq!(rec.precompute_windows, 1);
        assert!(rec.precompute_gib < 0.1);
    }

    #[test]
    fn occupancy_reflects_register_pressure() {
        let rec = recommend(&a40(), 22);
        // The analyzer-inferred XYZZ pressure (three-digit, like the
        // paper's 244) caps occupancy well below 50% (§IV-C4).
        assert!(rec.launch.registers_per_thread > 100);
        assert!(rec.occupancy_pct < 50.0);
        assert!(rec.occupancy_pct > 0.0);
    }

    #[test]
    fn render_mentions_the_choices() {
        let s = render(&recommend(&a40(), 24));
        assert!(s.contains("ymc"));
        assert!(s.contains("Predicted prover time"));
    }
}
