//! Table III: CPU energy consumption normalized to GPU for NTT and MSM.
//!
//! The paper measures with Zeus; we model run energy as
//! `(platform floor + activity·TDP) × wall time` on both sides. Following
//! the measurement conventions the paper's numbers imply: the CPU MSM
//! baseline is the (serial) arkworks run, the CPU NTT baseline is the
//! parallel arkworks transform, and GPU measurement windows include a
//! fixed setup tail for the MSM batch runs. These conventions are
//! calibration, documented in DESIGN.md; the *trends* — NTT's flat ~3×,
//! MSM's growth to ~400× — emerge from the time models.

use crate::report::{f, Table};
use crate::sim::GpuCostModel;
use gpu_kernels::calibration::{cpu_msm_seconds, cpu_ntt_seconds};
use gpu_sim::device::DeviceSpec;
use gpu_sim::energy::{cpu_energy_joules, epyc_7742_dual, gpu_energy_joules};

/// Paper Table III: `(log scale, NTT ratio, MSM ratio)`.
pub const PAPER_TABLE3: [(u32, f64, f64); 6] = [
    (16, 2.74, 2.74),
    (18, 3.08, 9.06),
    (20, 3.21, 27.59),
    (22, 3.31, 102.59),
    (24, 2.93, 236.90),
    (26, 3.62, 398.40),
];

/// Parallel-NTT wall-time divisor for the CPU energy baseline (64 cores at
/// 35% scaling efficiency).
const CPU_NTT_PARALLEL_SPEEDUP: f64 = 22.4;
/// Measurement tail included in the GPU MSM energy window (seconds).
const GPU_MSM_TAIL_S: f64 = 0.1;

/// One Table III row.
#[derive(Debug, Clone, Copy)]
pub struct Table3Row {
    /// Scale exponent.
    pub log_scale: u32,
    /// CPU/GPU energy ratio for NTT.
    pub ntt_ratio: f64,
    /// CPU/GPU energy ratio for MSM.
    pub msm_ratio: f64,
}

/// Reproduces Table III on a device.
pub fn table3(device: &DeviceSpec) -> Vec<Table3Row> {
    let cpu = epyc_7742_dual();
    let gpu = GpuCostModel::best_of_breed(device.clone());
    PAPER_TABLE3
        .iter()
        .map(|&(lg, ..)| {
            // --- NTT ---
            let cpu_ntt_wall = cpu_ntt_seconds(lg) / CPU_NTT_PARALLEL_SPEEDUP;
            let e_cpu_ntt = cpu_energy_joules(&cpu, cpu_ntt_wall, 128);
            let (_, ntt) = gpu.ntt(lg);
            let e_gpu_ntt = gpu_energy_joules(
                device,
                ntt.seconds(),
                ntt.time.transfer_fraction() * ntt.seconds(),
                ntt.activity,
            ) + 90.0 * ntt.seconds(); // host keeps driving the launches

            // --- MSM ---
            let e_cpu_msm = cpu_energy_joules(&cpu, cpu_msm_seconds(lg), 1);
            let (_, msm) = gpu.msm(lg);
            let wall = msm.seconds() + GPU_MSM_TAIL_S;
            let e_gpu_msm = gpu_energy_joules(device, wall, 0.0, 0.5) + 90.0 * wall;

            Table3Row {
                log_scale: lg,
                ntt_ratio: e_cpu_ntt / e_gpu_ntt,
                msm_ratio: e_cpu_msm / e_gpu_msm,
            }
        })
        .collect()
}

/// Renders Table III with paper values side by side.
pub fn render_table3(rows: &[Table3Row]) -> String {
    let mut t = Table::new(
        "Table III: CPU energy normalized to GPU (paper: NTT flat ~3x, MSM grows to ~400x)",
        &["Scale", "NTT", "paper NTT", "MSM", "paper MSM"],
    );
    for r in rows {
        let p = PAPER_TABLE3
            .iter()
            .find(|(lg, ..)| *lg == r.log_scale)
            .expect("paper row");
        t.row(vec![
            format!("2^{}", r.log_scale),
            f(r.ntt_ratio),
            f(p.1),
            f(r.msm_ratio),
            f(p.2),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::device::a40;

    #[test]
    fn ntt_ratio_is_flat_and_small() {
        let rows = table3(&a40());
        for r in &rows {
            assert!(
                (0.8..8.0).contains(&r.ntt_ratio),
                "2^{}: NTT ratio {}",
                r.log_scale,
                r.ntt_ratio
            );
        }
        let spread = rows.iter().map(|r| r.ntt_ratio).fold(f64::MIN, f64::max)
            / rows.iter().map(|r| r.ntt_ratio).fold(f64::MAX, f64::min);
        assert!(spread < 6.0, "NTT ratios should stay in one band: {spread}");
    }

    #[test]
    fn msm_ratio_grows_two_orders() {
        let rows = table3(&a40());
        let first = rows.first().expect("rows").msm_ratio;
        let last = rows.last().expect("rows").msm_ratio;
        assert!(last > 30.0 * first, "{first} -> {last}");
        assert!(
            last > 150.0,
            "MSM at 2^26 should be in the hundreds: {last}"
        );
        // Monotone growth like the paper's column.
        for w in rows.windows(2) {
            assert!(w[1].msm_ratio > w[0].msm_ratio);
        }
    }

    #[test]
    fn render_includes_paper_columns() {
        let s = render_table3(&table3(&a40()));
        assert!(s.contains("paper NTT"));
        assert!(s.contains("398"));
    }
}
