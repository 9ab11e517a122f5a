//! Kernel-layer experiments (§IV-A): Table II, Fig. 1, Fig. 5, Fig. 6,
//! Fig. 7.

use crate::prover_model::{cpu_prover_seconds, gpu_prover};
use crate::report::{f, secs, Table};
use crate::sim::GpuCostModel;
use gpu_kernels::calibration::{cpu_msm_seconds, cpu_ntt_seconds};
use gpu_kernels::LibraryId;
use gpu_sim::device::DeviceSpec;

/// The scales every kernel-layer experiment sweeps.
pub const SCALES: [u32; 12] = [15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26];

/// Paper Table II MSM column: `(log scale, speedup, fastest library)`.
pub const PAPER_TABLE2_MSM: [(u32, f64, &str); 12] = [
    (15, 34.1, "sppark"),
    (16, 52.5, "sppark"),
    (17, 69.7, "sppark"),
    (18, 78.1, "sppark"),
    (19, 127.5, "sppark"),
    (20, 176.1, "sppark"),
    (21, 254.1, "yrrid"),
    (22, 408.1, "ymc"),
    (23, 589.4, "ymc"),
    (24, 693.2, "ymc"),
    (25, 754.3, "ymc"),
    (26, 799.5, "ymc"),
];

/// Paper Table II NTT column.
pub const PAPER_TABLE2_NTT: [(u32, f64, &str); 12] = [
    (15, 12.5, "bellperson"),
    (16, 12.3, "bellperson"),
    (17, 14.8, "bellperson"),
    (18, 20.4, "cuzk"),
    (19, 27.9, "cuzk"),
    (20, 35.4, "cuzk"),
    (21, 45.0, "cuzk"),
    (22, 50.6, "cuzk"),
    (23, 50.3, "cuzk"),
    (24, 40.5, "bellperson"),
    (25, 20.4, "bellperson"),
    (26, 24.3, "bellperson"),
];

/// One Table II row: measured fastest library and speedup per kernel.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Scale exponent.
    pub log_scale: u32,
    /// Fastest MSM library.
    pub msm_lib: LibraryId,
    /// MSM speedup over the CPU baseline.
    pub msm_speedup: f64,
    /// Fastest NTT library.
    pub ntt_lib: LibraryId,
    /// NTT speedup over the CPU baseline.
    pub ntt_speedup: f64,
}

/// Reproduces Table II on a device.
pub fn table2(device: &DeviceSpec) -> Vec<Table2Row> {
    let gpu = GpuCostModel::best_of_breed(device.clone());
    SCALES
        .iter()
        .map(|&lg| {
            let (msm_lib, msm) = gpu.msm(lg);
            let (ntt_lib, ntt) = gpu.ntt(lg);
            Table2Row {
                log_scale: lg,
                msm_lib,
                msm_speedup: cpu_msm_seconds(lg) / msm.seconds(),
                ntt_lib,
                ntt_speedup: cpu_ntt_seconds(lg) / ntt.seconds(),
            }
        })
        .collect()
}

/// Renders Table II with the paper's values side by side.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut t = Table::new(
        "Table II: speedup over CPU for the fastest MSM and NTT implementations",
        &[
            "Scale",
            "MSM x",
            "lib",
            "paper x",
            "paper lib",
            "NTT x",
            "lib",
            "paper x",
            "paper lib",
        ],
    );
    for r in rows {
        let pm = PAPER_TABLE2_MSM
            .iter()
            .find(|(lg, ..)| *lg == r.log_scale)
            .expect("scale in paper table");
        let pn = PAPER_TABLE2_NTT
            .iter()
            .find(|(lg, ..)| *lg == r.log_scale)
            .expect("scale in paper table");
        t.row(vec![
            format!("2^{}", r.log_scale),
            f(r.msm_speedup),
            r.msm_lib.name().into(),
            f(pm.1),
            pm.2.into(),
            f(r.ntt_speedup),
            r.ntt_lib.name().into(),
            f(pn.1),
            pn.2.into(),
        ]);
    }
    t.render()
}

/// One Fig. 1 point: end-to-end prover speedup.
#[derive(Debug, Clone, Copy)]
pub struct Fig1Point {
    /// Scale exponent (number of constraints).
    pub log_scale: u32,
    /// GPU prover speedup over the CPU prover.
    pub speedup: f64,
}

/// Reproduces Fig. 1: end-to-end ZKP speedup over CPU vs constraint count.
pub fn fig1(device: &DeviceSpec) -> Vec<Fig1Point> {
    SCALES
        .iter()
        .map(|&lg| Fig1Point {
            log_scale: lg,
            speedup: cpu_prover_seconds(lg) / gpu_prover(device, lg).critical_path_s(),
        })
        .collect()
}

/// Renders Fig. 1 as a table plus a crude ASCII sparkline.
pub fn render_fig1(points: &[Fig1Point]) -> String {
    let mut t = Table::new(
        "Fig 1: speedup of the GPU ZKP over CPU (paper: rises to ~200x, dips at large scales)",
        &["Constraints", "Speedup", "Bar"],
    );
    let max = points.iter().map(|p| p.speedup).fold(1.0, f64::max);
    for p in points {
        let bar = "#".repeat(((p.speedup / max) * 40.0).round() as usize);
        t.row(vec![format!("2^{}", p.log_scale), f(p.speedup), bar]);
    }
    t.render()
}

/// One Fig. 5 row: the prover's MSM/NTT split.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Scale exponent.
    pub log_scale: u32,
    /// MSM share of prover time (%).
    pub msm_pct: f64,
    /// NTT share of prover time (%).
    pub ntt_pct: f64,
    /// Libraries used.
    pub msm_lib: LibraryId,
    /// NTT library used.
    pub ntt_lib: LibraryId,
}

/// Reproduces Fig. 5: execution-time breakdown into MSM and NTT.
pub fn fig5(device: &DeviceSpec) -> Vec<Fig5Row> {
    let gpu = GpuCostModel::best_of_breed(device.clone());
    SCALES
        .iter()
        .map(|&lg| {
            let b = gpu_prover(device, lg);
            Fig5Row {
                log_scale: lg,
                msm_pct: 100.0 * b.msm_fraction(),
                ntt_pct: 100.0 * b.ntt_fraction(),
                // The A/B₁/L MSMs run at 2^lg, the transforms on 2^(lg+1).
                msm_lib: gpu.msm(lg).0,
                ntt_lib: gpu.ntt(lg + 1).0,
            }
        })
        .collect()
}

/// Renders Fig. 5.
pub fn render_fig5(rows: &[Fig5Row]) -> String {
    let mut t = Table::new(
        "Fig 5: ZKP execution time breakdown into MSM and NTT (paper: NTT ~50% at 2^20, up to 91%)",
        &["Scale", "MSM %", "NTT %", "MSM lib", "NTT lib", "NTT bar"],
    );
    for r in rows {
        t.row(vec![
            format!("2^{}", r.log_scale),
            f(r.msm_pct),
            f(r.ntt_pct),
            r.msm_lib.name().into(),
            r.ntt_lib.name().into(),
            "#".repeat((r.ntt_pct / 2.5).round() as usize),
        ]);
    }
    t.render()
}

/// One Fig. 6 row: instruction throughput of the optimal kernels.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Scale exponent.
    pub log_scale: u32,
    /// Best-MSM kilo-instructions per second.
    pub msm_kips: f64,
    /// Best-NTT kilo-instructions per second.
    pub ntt_kips: f64,
}

/// Reproduces Fig. 6: kilo-instructions per second for the fastest MSM and
/// NTT at each scale.
pub fn fig6(device: &DeviceSpec) -> Vec<Fig6Row> {
    let gpu = GpuCostModel::best_of_breed(device.clone());
    SCALES
        .iter()
        .map(|&lg| {
            let (_, msm) = gpu.msm(lg);
            let (_, ntt) = gpu.ntt(lg);
            Fig6Row {
                log_scale: lg,
                msm_kips: msm.kips(),
                ntt_kips: ntt.kips(),
            }
        })
        .collect()
}

/// Renders Fig. 6.
pub fn render_fig6(rows: &[Fig6Row]) -> String {
    let mut t = Table::new(
        "Fig 6: kilo-instructions/second of optimal MSM and NTT (paper: NTT executes far fewer)",
        &["Scale", "MSM KIPS", "NTT KIPS", "NTT/MSM"],
    );
    for r in rows {
        t.row(vec![
            format!("2^{}", r.log_scale),
            format!("{:.3e}", r.msm_kips),
            format!("{:.3e}", r.ntt_kips),
            f(r.ntt_kips / r.msm_kips),
        ]);
    }
    t.render()
}

/// Fig. 7: average compute vs CPU–GPU transfer shares over 2^23–2^26.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// MSM on-device-compute share of wall time (%).
    pub msm_compute_pct: f64,
    /// MSM exposed-transfer share (%).
    pub msm_transfer_pct: f64,
    /// NTT compute share (%).
    pub ntt_compute_pct: f64,
    /// NTT exposed-transfer share (%).
    pub ntt_transfer_pct: f64,
}

/// Reproduces Fig. 7.
pub fn fig7(device: &DeviceSpec) -> Fig7Result {
    let gpu = GpuCostModel::best_of_breed(device.clone());
    let scales = [23u32, 24, 25, 26];
    let mut msm_c = 0.0;
    let mut msm_t = 0.0;
    let mut ntt_c = 0.0;
    let mut ntt_t = 0.0;
    for &lg in &scales {
        let (_, m) = gpu.msm(lg);
        msm_c += m.time.compute_fraction();
        msm_t += m.time.transfer_fraction();
        let (_, n) = gpu.ntt(lg);
        ntt_c += n.time.compute_fraction();
        ntt_t += n.time.transfer_fraction();
    }
    let k = scales.len() as f64;
    Fig7Result {
        msm_compute_pct: 100.0 * msm_c / k,
        msm_transfer_pct: 100.0 * msm_t / k,
        ntt_compute_pct: 100.0 * ntt_c / k,
        ntt_transfer_pct: 100.0 * ntt_t / k,
    }
}

/// Renders Fig. 7.
pub fn render_fig7(r: &Fig7Result) -> String {
    let mut t = Table::new(
        "Fig 7: % time in on-device compute vs CPU-GPU transfer, avg 2^23-2^26 \
         (paper: MSM hides transfers, NTT does not)",
        &["Kernel", "Compute %", "Transfer %"],
    );
    t.row(vec![
        "MSM".into(),
        f(r.msm_compute_pct),
        f(r.msm_transfer_pct),
    ]);
    t.row(vec![
        "NTT".into(),
        f(r.ntt_compute_pct),
        f(r.ntt_transfer_pct),
    ]);
    t.render()
}

/// Renders the per-scale absolute times used by the experiments above
/// (useful context not in the paper's tables).
pub fn render_absolute_times(device: &DeviceSpec) -> String {
    let mut t = Table::new(
        "Absolute modeled kernel times (A40)",
        &["Scale", "CPU MSM", "GPU MSM", "CPU NTT", "GPU NTT"],
    );
    let gpu = GpuCostModel::best_of_breed(device.clone());
    for &lg in &SCALES {
        let (_, m) = gpu.msm(lg);
        let (_, n) = gpu.ntt(lg);
        t.row(vec![
            format!("2^{lg}"),
            secs(cpu_msm_seconds(lg)),
            secs(m.seconds()),
            secs(cpu_ntt_seconds(lg)),
            secs(n.seconds()),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::device::a40;

    #[test]
    fn table2_winners_match_paper() {
        let rows = table2(&a40());
        for (row, (lg, _, plib)) in rows.iter().zip(PAPER_TABLE2_MSM) {
            assert_eq!(row.log_scale, lg);
            assert_eq!(row.msm_lib.name(), plib, "MSM winner at 2^{lg}");
        }
        for (row, (lg, _, plib)) in rows.iter().zip(PAPER_TABLE2_NTT) {
            assert_eq!(row.ntt_lib.name(), plib, "NTT winner at 2^{lg}");
        }
    }

    #[test]
    fn table2_speedups_track_paper_within_2x() {
        let rows = table2(&a40());
        for (row, (lg, pspd, _)) in rows.iter().zip(PAPER_TABLE2_MSM) {
            let ratio = row.msm_speedup / pspd;
            assert!((0.5..2.0).contains(&ratio), "MSM 2^{lg}: {ratio}");
        }
        for (row, (lg, pspd, _)) in rows.iter().zip(PAPER_TABLE2_NTT) {
            let ratio = row.ntt_speedup / pspd;
            assert!((0.5..2.0).contains(&ratio), "NTT 2^{lg}: {ratio}");
        }
    }

    #[test]
    fn fig1_shape() {
        let pts = fig1(&a40());
        // Rises from tens to hundreds...
        assert!(pts[0].speedup < 60.0);
        let peak = pts.iter().map(|p| p.speedup).fold(0.0, f64::max);
        assert!(peak > 150.0);
        // ...and the largest scale is below the peak (the NTT collapse).
        assert!(pts.last().expect("non-empty").speedup < peak);
    }

    #[test]
    fn fig5_ntt_share_grows() {
        let rows = fig5(&a40());
        let at = |lg: u32| {
            rows.iter()
                .find(|r| r.log_scale == lg)
                .expect("scale present")
                .ntt_pct
        };
        assert!(at(26) > 70.0, "NTT dominates at 2^26: {}", at(26));
        assert!((25.0..75.0).contains(&at(20)), "mid-scale ~50%: {}", at(20));
        assert!(at(26) > at(16));
    }

    #[test]
    fn fig6_ntt_executes_fewer_instructions_per_second() {
        let rows = fig6(&a40());
        // At large scales NTT's instruction rate falls well below MSM's.
        let last = rows.last().expect("non-empty");
        assert!(last.ntt_kips < 0.5 * last.msm_kips);
    }

    #[test]
    fn fig7_transfer_asymmetry() {
        let r = fig7(&a40());
        assert!(r.msm_compute_pct > 70.0);
        assert!(r.ntt_transfer_pct > 30.0);
        assert!(r.ntt_transfer_pct > r.msm_transfer_pct);
    }

    #[test]
    fn renders_do_not_panic() {
        let d = a40();
        assert!(render_table2(&table2(&d)).contains("sppark"));
        assert!(render_fig1(&fig1(&d)).contains("2^26"));
        assert!(render_fig5(&fig5(&d)).contains("NTT"));
        assert!(render_fig6(&fig6(&d)).contains("KIPS"));
        assert!(render_fig7(&fig7(&d)).contains("Transfer"));
        assert!(render_absolute_times(&d).contains("CPU MSM"));
    }
}
