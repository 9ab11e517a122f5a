//! Microarchitecture-layer experiments (§IV-C): Fig. 9, Fig. 10, Table VI.

use crate::report::{f, Table};
use gpu_kernels::{catalog, run_ff_op, FfInputs, FfOp, Field32};
use gpu_sim::analysis::StaticMetrics;
use gpu_sim::device::DeviceSpec;
use gpu_sim::machine::{SimResult, SmspConfig};
use gpu_sim::occupancy::{occupancy, LaunchConfig};
use gpu_sim::roofline::{Roofline, RooflinePoint};
use zkp_ff::Fq381Config;

fn run_op(field: &Field32, op: FfOp, warps: usize, iters: u32) -> SimResult {
    let inputs = FfInputs::random(field, warps, 21);
    run_ff_op(field, op, &SmspConfig::default(), &inputs, warps, iters).sim
}

// ---------------------------------------------------------------------------
// Fig. 9 — roofline
// ---------------------------------------------------------------------------

/// Reproduces Fig. 9: places each FF op inside the device's integer
/// roofline. Kernels run one op per element (load → op → store), the
/// memory-facing configuration the roofline's intensity axis assumes.
pub fn fig9(device: &DeviceSpec) -> (Roofline, Vec<RooflinePoint>) {
    let field = Field32::of::<Fq381Config, 6>();
    let roof = Roofline::of(device);
    let points = FfOp::all()
        .into_iter()
        .map(|op| {
            let sim = run_op(&field, op, 2, 1);
            roof.place(device, op.name(), &sim)
        })
        .collect();
    (roof, points)
}

/// Renders Fig. 9.
pub fn render_fig9(roof: &Roofline, points: &[RooflinePoint]) -> String {
    let mut t = Table::new(
        "Fig 9: integer roofline of FF ops (paper: mul/sqr ~60% of peak, add/sub/dbl <=40%)",
        &["Op", "AI (intop/B)", "GINTOP/s", "% of peak", "bound"],
    );
    for p in points {
        t.row(vec![
            p.label.clone(),
            f(p.arithmetic_intensity),
            f(p.gintops),
            f(100.0 * p.compute_fraction),
            roof.bound(p.arithmetic_intensity).label().into(),
        ]);
    }
    t.row(vec![
        "(ceiling)".into(),
        f(roof.knee()),
        f(roof.peak_gintops),
        "100".into(),
        format!("DRAM {} GB/s", roof.dram_gbs),
    ]);
    t.render()
}

// ---------------------------------------------------------------------------
// Fig. 10 — warp stalls vs resident warps
// ---------------------------------------------------------------------------

/// One Fig. 10 configuration: `FF_mul` stall profile at a warp count.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Warps resident per SMSP.
    pub warps: u32,
    /// `(category, cycles per issued instruction)`.
    pub stalls: [(&'static str, f64); 5],
    /// Total average warp stall latency.
    pub total: f64,
    /// Wall cycles per FF_mul (throughput view).
    pub cycles_per_op: f64,
}

/// Reproduces Fig. 10: FF_mul warp-stall breakdown with 1–16 warps/SMSP.
pub fn fig10() -> Vec<Fig10Row> {
    let field = Field32::of::<Fq381Config, 6>();
    [1usize, 2, 4, 8, 16]
        .into_iter()
        .map(|w| {
            let sim = run_op(&field, FfOp::Mul, w, 8);
            Fig10Row {
                warps: w as u32,
                stalls: sim.stalls_per_issue(),
                total: sim.warp_stall_latency(),
                cycles_per_op: sim.cycles as f64 / 8.0,
            }
        })
        .collect()
}

/// Renders Fig. 10.
pub fn render_fig10(rows: &[Fig10Row]) -> String {
    let mut t = Table::new(
        "Fig 10: FF_mul warp-stall latency vs warps/SMSP \
         (paper: Wait ~4 constant; MathPipeThrottle & NotSelected grow with warps)",
        &[
            "Warps",
            "Wait",
            "Selected",
            "PipeThrottle",
            "NotSelected",
            "Other",
            "Total",
        ],
    );
    for r in rows {
        let get = |k: &str| {
            r.stalls
                .iter()
                .find(|(n, _)| *n == k)
                .map_or(0.0, |(_, v)| *v)
        };
        t.row(vec![
            r.warps.to_string(),
            f(get("Wait")),
            f(get("Selected")),
            f(get("MathPipeThrottle")),
            f(get("NotSelected")),
            f(get("Other")),
            f(r.total),
        ]);
    }
    t.render()
}

// ---------------------------------------------------------------------------
// Table VI — per-op microarchitecture metrics
// ---------------------------------------------------------------------------

/// Paper Table VI branch efficiencies.
pub const PAPER_BRANCH_EFF: [(&str, f64); 5] = [
    ("FF_add", 52.5),
    ("FF_sub", 56.2),
    ("FF_dbl", 77.5),
    ("FF_mul", 84.0),
    ("FF_sqr", 96.9),
];

/// One Table VI column (per FF op).
#[derive(Debug, Clone)]
pub struct Table6Row {
    /// Operation.
    pub op: FfOp,
    /// Measured branch efficiency (%).
    pub branch_efficiency: f64,
    /// Achieved occupancy (%) of the microbenchmark launch.
    pub achieved_occupancy: f64,
    /// Dominant SASS instruction.
    pub dominant: &'static str,
    /// Pipeline the op saturates.
    pub bottleneck: &'static str,
}

/// Reproduces Table VI on a device.
pub fn table6(device: &DeviceSpec) -> Vec<Table6Row> {
    let field = Field32::of::<Fq381Config, 6>();
    // The §IV-B microbenchmark launch: 2 warps per SMSP on every SM.
    let launch = LaunchConfig {
        blocks: u64::from(device.sm_count) * 2,
        threads_per_block: 128,
        registers_per_thread: 80,
        shared_mem_per_block: 0,
    };
    let occ = occupancy(device, &launch);
    FfOp::all()
        .into_iter()
        .map(|op| {
            let sim = run_op(&field, op, 2, 16);
            let int32_share: u64 = sim
                .dynamic_mix
                .iter()
                .filter(|(m, _)| !matches!(*m, "BRA" | "EXIT" | "LDG" | "STG"))
                .map(|(_, c)| *c)
                .sum();
            Table6Row {
                op,
                branch_efficiency: 100.0 * sim.branch_efficiency(),
                achieved_occupancy: 100.0 * occ.achieved,
                dominant: sim.dominant_instruction(),
                bottleneck: if int32_share * 2 > sim.instructions {
                    "Integer"
                } else {
                    "Memory"
                },
            }
        })
        .collect()
}

/// Renders Table VI.
pub fn render_table6(rows: &[Table6Row]) -> String {
    let mut t = Table::new(
        "Table VI: GPU microarchitecture metrics for FF ops",
        &["Metric", "FF_add", "FF_sub", "FF_dbl", "FF_mul", "FF_sqr"],
    );
    let cell = |g: &dyn Fn(&Table6Row) -> String| -> Vec<String> { rows.iter().map(g).collect() };
    let mut row = vec!["Branch eff (%)".to_owned()];
    row.extend(cell(&|r| f(r.branch_efficiency)));
    t.row(row);
    let mut row = vec!["(paper)".to_owned()];
    row.extend(PAPER_BRANCH_EFF.iter().map(|(_, v)| f(*v)));
    t.row(row);
    let mut row = vec!["Achieved occ (%)".to_owned()];
    row.extend(cell(&|r| f(r.achieved_occupancy)));
    t.row(row);
    let mut row = vec!["Dominant SASS".to_owned()];
    row.extend(cell(&|r| r.dominant.to_owned()));
    t.row(row);
    let mut row = vec!["Bottleneck".to_owned()];
    row.extend(cell(&|r| r.bottleneck.to_owned()));
    t.row(row);
    t.render()
}

// ---------------------------------------------------------------------------
// §IV-C4 — register pressure and occupancy of the composed kernels
// ---------------------------------------------------------------------------

/// Register usage of the composed MSM/NTT kernels and the occupancy each
/// implies (§IV-C4's "228, 216, and 244 registers per thread … NTT has a
/// lower live register count of 56").
#[derive(Debug, Clone)]
pub struct RegisterPressure {
    /// Registers per thread of the XYZZ mixed-addition kernel.
    pub msm_madd_regs: u32,
    /// Registers per thread of the radix-2 butterfly kernel.
    pub ntt_butterfly_regs: u32,
    /// Analyzer-inferred max-live pressure of the XYZZ kernel (the lower
    /// bound a register allocator could reach).
    pub msm_madd_live: u32,
    /// Analyzer-inferred max-live pressure of the butterfly kernel.
    pub ntt_butterfly_live: u32,
    /// Theoretical occupancy of an MSM-style launch with that pressure.
    pub msm_occupancy: f64,
    /// Theoretical occupancy of an NTT-style launch.
    pub ntt_occupancy: f64,
}

/// Measures register pressure from the catalog's kernels themselves — both
/// the allocation footprint (the generator's bump allocator hands out a
/// dense prefix of the register file, all of it touched) and the dataflow
/// max-live lower bound from `gpu_sim::analysis`.
pub fn register_pressure(device: &DeviceSpec) -> RegisterPressure {
    let zoo = catalog();
    let metrics = |name: &str| {
        let k = zoo.iter().find(|k| k.name == name).expect("in the catalog");
        StaticMetrics::compute(&k.program)
    };
    let (madd, bfly) = (metrics("XYZZ madd"), metrics("NTT butterfly"));
    let occ = |regs: u32| {
        occupancy(
            device,
            &LaunchConfig {
                blocks: 4 * u64::from(device.sm_count),
                threads_per_block: 128,
                registers_per_thread: regs,
                shared_mem_per_block: 0,
            },
        )
        .theoretical
    };
    RegisterPressure {
        msm_madd_regs: madd.registers_touched,
        ntt_butterfly_regs: bfly.registers_touched,
        msm_madd_live: madd.max_live_regs,
        ntt_butterfly_live: bfly.max_live_regs,
        msm_occupancy: occ(madd.registers_touched),
        ntt_occupancy: occ(bfly.registers_touched),
    }
}

/// Renders the register-pressure comparison.
pub fn render_register_pressure(r: &RegisterPressure) -> String {
    let mut t = Table::new(
        "SIV-C4: register pressure of the composed kernels          (paper: MSM 216-244 regs/thread, NTT ~56; high pressure caps occupancy)",
        &["Kernel", "regs/thread", "max-live", "paper", "occupancy %"],
    );
    t.row(vec![
        "MSM XYZZ mixed add".into(),
        r.msm_madd_regs.to_string(),
        r.msm_madd_live.to_string(),
        "216-244".into(),
        f(100.0 * r.msm_occupancy),
    ]);
    t.row(vec![
        "NTT radix-2 butterfly".into(),
        r.ntt_butterfly_regs.to_string(),
        r.ntt_butterfly_live.to_string(),
        "56".into(),
        f(100.0 * r.ntt_occupancy),
    ]);
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::device::a40;

    #[test]
    fn register_pressure_bands() {
        let r = register_pressure(&a40());
        // Same bands as §IV-C4: MSM kernels an order denser than NTT.
        assert!(
            (150..=250).contains(&r.msm_madd_regs),
            "{}",
            r.msm_madd_regs
        );
        assert!((40..=70).contains(&r.ntt_butterfly_regs));
        // Max-live is a lower bound on the allocation footprint, and the
        // same ~3-4x MSM/NTT pressure ratio shows up in both views.
        assert!(r.msm_madd_live <= r.msm_madd_regs);
        assert!(r.ntt_butterfly_live <= r.ntt_butterfly_regs);
        assert!(r.msm_madd_live > 2 * r.ntt_butterfly_live);
        // And the occupancy consequence: the MSM kernel fits far fewer
        // warps per SM.
        assert!(r.msm_occupancy < r.ntt_occupancy);
        assert!(r.msm_occupancy < 0.35);
        assert!(render_register_pressure(&r).contains("regs/thread"));
    }

    #[test]
    fn fig9_mul_reaches_higher_compute_fraction() {
        let (_, points) = fig9(&a40());
        let frac = |name: &str| {
            points
                .iter()
                .find(|p| p.label == name)
                .expect("op present")
                .compute_fraction
        };
        assert!(frac("FF_mul") > frac("FF_add"));
        assert!(frac("FF_sqr") > frac("FF_dbl"));
        assert!(frac("FF_mul") > 0.3, "{}", frac("FF_mul"));
        // Mul also has the higher arithmetic intensity.
        let ai = |name: &str| {
            points
                .iter()
                .find(|p| p.label == name)
                .expect("op present")
                .arithmetic_intensity
        };
        assert!(ai("FF_mul") > 3.0 * ai("FF_add"));
    }

    #[test]
    fn fig10_shapes_match_paper() {
        let rows = fig10();
        let get = |r: &Fig10Row, k: &str| {
            r.stalls
                .iter()
                .find(|(n, _)| *n == k)
                .map_or(0.0, |(_, v)| *v)
        };
        // Wait is a ~constant fixed-latency term.
        let waits: Vec<f64> = rows.iter().map(|r| get(r, "Wait")).collect();
        for w in &waits {
            assert!((waits[0] - w).abs() < 0.5, "{waits:?}");
        }
        // Throttle and NotSelected grow with warps.
        for pair in rows.windows(2) {
            assert!(get(&pair[1], "MathPipeThrottle") >= get(&pair[0], "MathPipeThrottle") - 1e-9);
            assert!(get(&pair[1], "NotSelected") >= get(&pair[0], "NotSelected") - 1e-9);
        }
        // Selected is exactly the 1-cycle issue.
        for r in &rows {
            assert!((get(r, "Selected") - 1.0).abs() < 1e-9);
        }
        // Adding warps does not improve per-op throughput once saturated
        // (the paper's "additional threads may increase stalls" takeaway).
        let t2 = rows[1].cycles_per_op / 2.0;
        let t16 = rows[4].cycles_per_op / 16.0;
        assert!(t16 > 0.9 * t2, "per-warp throughput flat: {t2} vs {t16}");
    }

    #[test]
    fn table6_trends() {
        let rows = table6(&a40());
        let get = |op: FfOp| rows.iter().find(|r| r.op == op).expect("op present");
        // Every op is INT32-pipe bound (paper: "Pipeline Bottleneck:
        // Integer" across the board).
        for r in &rows {
            assert_eq!(r.bottleneck, "Integer", "{:?}", r.op);
        }
        // Branch efficiency: add/sub ~50%, mul/sqr noticeably higher.
        assert!(get(FfOp::Add).branch_efficiency < 60.0);
        assert!(get(FfOp::Mul).branch_efficiency > get(FfOp::Add).branch_efficiency);
        assert!(get(FfOp::Sqr).branch_efficiency > 60.0);
        // Dominant SASS: IADD3 for add/sub, IMAD for mul/sqr.
        assert_eq!(get(FfOp::Add).dominant, "IADD3");
        assert_eq!(get(FfOp::Mul).dominant, "IMAD");
        assert_eq!(get(FfOp::Sqr).dominant, "IMAD");
        // Occupancy equals the 2-warp/SMSP microbenchmark residency.
        assert!(get(FfOp::Add).achieved_occupancy < 30.0);
    }

    #[test]
    fn renders_do_not_panic() {
        let d = a40();
        let (roof, pts) = fig9(&d);
        assert!(render_fig9(&roof, &pts).contains("GINTOP"));
        assert!(render_fig10(&fig10()).contains("PipeThrottle"));
        assert!(render_table6(&table6(&d)).contains("Branch eff"));
    }
}
