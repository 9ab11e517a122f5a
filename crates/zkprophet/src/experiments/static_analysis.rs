//! Static-analysis report: per-kernel instruction mix, INT32-pipe share,
//! register pressure, dependence depth, and lint status — computed entirely
//! without running the simulator, the way Nsight Compute's static section
//! reports on compiled SASS. This is the paper's kernel-characterization
//! evidence (Table VI instruction mixes, §IV-C4 register pressure)
//! regenerated from the programs themselves.
//!
//! Four further sections exercise the deeper analyzer passes:
//!
//! - [`prediction_report`] — the static scoreboard model
//!   ([`gpu_sim::analysis::schedule`]) against the cycle-accurate
//!   simulator, per kernel per GPU generation;
//! - [`memory_report`] — the static memory-access analyzer
//!   ([`gpu_sim::analysis::memory`]): coalescing classification and
//!   predicted sector traffic, differenced against the simulator's DRAM
//!   counters;
//! - [`static_roofline_report`] — roofline placement from static
//!   analysis alone (predicted cycles, static INT32 ops, static AI)
//!   against the measured Fig. 9-style placement, per device;
//! - [`range_proof_report`] — the value-range pass
//!   ([`gpu_sim::analysis::ranges`]) discharging the `< 2p` Montgomery
//!   output obligations of every canonical-input multiply on all four
//!   fields;
//! - [`optimizer_report`] — the verified optimizer
//!   ([`gpu_sim::analysis::optimize`]) over the full zoo per device:
//!   instruction and predicted issue-cycle reductions plus the
//!   stall-breakdown deltas, every row backed by a translation-validation
//!   certificate.
//!
//! Every section iterates the one kernel [`catalog`] and simulates through
//! the one [`launch`] harness, so all tables show the same kernel set at
//! the same occupancy ([`OPT_WARPS`]).

use crate::report::{f, Table};
use gpu_kernels::catalog::{catalog, kernels_over, launch, random_operands, Kernel};
use gpu_kernels::optimized::OPT_WARPS;
use gpu_kernels::Field32;
use gpu_sim::analysis::{self, StaticMetrics};
use gpu_sim::device::DeviceSpec;
use gpu_sim::machine::{SimResult, SmspConfig};
use gpu_sim::{Roofline, RooflinePoint};

/// One row of the static report.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Kernel name (paper style: `FF_mul`, `XYZZ madd`, ...).
    pub name: String,
    /// Analyzer metrics.
    pub metrics: StaticMetrics,
    /// Number of error-severity lint diagnostics (0 for every shipped
    /// kernel). The uniform CIOS emitter does ship warning-severity
    /// dead writes — the overflow-word bookkeeping of the final row —
    /// which the verified optimizer removes; see [`optimizer_report`].
    pub lints: usize,
}

/// Analyzes the full kernel zoo: the five `FF` ops over the base field plus
/// both curve kernels.
pub fn static_report() -> Vec<KernelReport> {
    catalog()
        .iter()
        .map(|k| KernelReport {
            name: k.name.to_owned(),
            metrics: StaticMetrics::compute(&k.program),
            lints: analysis::lint(&k.program, &k.entry_regs())
                .iter()
                .filter(|d| d.severity() == analysis::Severity::Error)
                .count(),
        })
        .collect()
}

/// Renders the static report table.
pub fn render_static_report(rows: &[KernelReport]) -> String {
    let mut t = Table::new(
        "Static analysis: per-kernel mix, pressure, and lint status  (paper: FF_mul ~70.8% IMAD; MSM 216-244 regs, NTT ~56; no simulator run)",
        &[
            "Kernel",
            "instrs",
            "IMAD %",
            "INT32 %",
            "max-live",
            "dep depth",
            "lint errors",
        ],
    );
    for r in rows {
        t.row(vec![
            r.name.clone(),
            r.metrics.instructions.to_string(),
            f(100.0 * r.metrics.imad_share),
            f(100.0 * r.metrics.int32_share),
            r.metrics.max_live_regs.to_string(),
            r.metrics.dep_chain_depth.to_string(),
            if r.lints == 0 {
                "clean".into()
            } else {
                r.lints.to_string()
            },
        ]);
    }
    t.render()
}

/// One row of the predicted-vs-simulated validation table.
#[derive(Debug, Clone)]
pub struct PredictionRow {
    /// Kernel name.
    pub kernel: String,
    /// Device model the SMSP configuration came from.
    pub device: String,
    /// Resident warps modeled/simulated.
    pub warps: u32,
    /// Cycles the static scoreboard model predicts.
    pub predicted_cycles: u64,
    /// Cycles the cycle-accurate simulator measures.
    pub simulated_cycles: u64,
    /// `100·(predicted - simulated)/simulated`.
    pub error_pct: f64,
    /// Latency-weighted dependence critical path (static).
    pub critical_path: u64,
    /// Warps needed to hide dependence latency (static).
    pub ilp_headroom: f64,
}

/// Simulates [`OPT_WARPS`] warps of `kernel` on random canonical operands
/// (timing only — curve coordinates need not lie on the curve) and returns
/// the measured counters.
fn simulate(kernel: &Kernel, cfg: &SmspConfig) -> SimResult {
    let warps = OPT_WARPS as usize;
    let operands = random_operands(kernel, warps, 42);
    launch(kernel, &kernel.program, cfg, warps, &operands).sim
}

/// Validates the static scoreboard model against the simulator for the
/// whole kernel zoo on each device in `devices` (the generational study
/// uses V100 / A100 / H100).
///
/// Note the SMSP *shape* (32-wide warps over 16 INT32 lanes, 4-cycle
/// `IMAD`) is generation-invariant across every device the paper studies
/// — generations differ in SM count and clock, which scale chip-level
/// throughput, not the per-scheduler cycle schedule. The table therefore
/// validates the conversion path per device; matching rows across
/// devices are the expected physical outcome, not a shortcut.
pub fn prediction_report(devices: &[DeviceSpec]) -> Vec<PredictionRow> {
    let zoo = catalog();
    let mut rows = Vec::new();
    for device in devices {
        let cfg = SmspConfig::from(device);
        for k in &zoo {
            // The memory analyzer supplies per-access LSU wavefront counts,
            // so strided (AoS) kernels are predicted with the same
            // serialization the simulator charges; for the coalesced FF
            // kernels the timings are the default single wavefront.
            let pred = k
                .predict(&cfg, OPT_WARPS, &k.memory(&cfg))
                .expect("schedulable kernel");
            let simulated = simulate(k, &cfg).cycles;
            rows.push(PredictionRow {
                kernel: k.name.to_owned(),
                device: device.name.to_owned(),
                warps: OPT_WARPS,
                predicted_cycles: pred.cycles,
                simulated_cycles: simulated,
                error_pct: 100.0 * (pred.cycles as f64 - simulated as f64) / simulated as f64,
                critical_path: pred.critical_path,
                ilp_headroom: pred.ilp_headroom,
            });
        }
    }
    rows
}

/// Renders the predicted-vs-simulated table.
pub fn render_prediction_report(rows: &[PredictionRow]) -> String {
    let mut t = Table::new(
        "Static schedule model vs simulator  (scoreboard prediction; error within +/-3%, see docs/static_analysis.md)",
        &[
            "Kernel",
            "Device",
            "warps",
            "predicted",
            "simulated",
            "err %",
            "crit path",
            "ILP headroom",
        ],
    );
    for r in rows {
        t.row(vec![
            r.kernel.clone(),
            r.device.clone(),
            r.warps.to_string(),
            r.predicted_cycles.to_string(),
            r.simulated_cycles.to_string(),
            f(r.error_pct),
            r.critical_path.to_string(),
            f(r.ilp_headroom),
        ]);
    }
    t.render()
}

/// One row of the static memory table: the memory analyzer's coalescing
/// classification and traffic prediction for one kernel, differenced
/// against the simulator's DRAM sector counters.
#[derive(Debug, Clone)]
pub struct MemoryRow {
    /// Kernel name.
    pub kernel: String,
    /// Global-memory accesses (LDG + STG sites) in the program.
    pub accesses: usize,
    /// Distinct access patterns, in first-occurrence order (`coalesced`,
    /// `strided(k)`, ...).
    pub patterns: String,
    /// Predicted 32B-sector transactions per warp.
    pub transactions_per_warp: u64,
    /// Predicted DRAM bytes per warp (static).
    pub static_bytes_per_warp: u64,
    /// Measured DRAM bytes per warp (simulator).
    pub simulated_bytes_per_warp: u64,
    /// Static arithmetic intensity (INT32 op / DRAM byte).
    pub arithmetic_intensity: f64,
    /// Whether the static prediction is exact (all accesses affine and
    /// the trace resolved) rather than a bound.
    pub exact: bool,
    /// Memory lints (one per uncoalesced access).
    pub lints: usize,
}

/// Static memory analysis of the kernel zoo: the five FF ops (coalesced
/// warp-interleaved layout) and both curve kernels (deliberately AoS —
/// the scattered access pattern the paper's MSM bucket phase exhibits).
/// Each row pairs the static prediction with the simulator's measured
/// DRAM traffic; they agree byte-for-byte.
pub fn memory_report() -> Vec<MemoryRow> {
    let cfg = SmspConfig::default();
    catalog()
        .iter()
        .map(|k| {
            let mem = k.memory(&cfg);
            let sim = simulate(k, &cfg);
            let mut patterns: Vec<String> = Vec::new();
            for a in &mem.accesses {
                let label = a.pattern.label();
                if !patterns.contains(&label) {
                    patterns.push(label);
                }
            }
            MemoryRow {
                kernel: k.name.to_owned(),
                accesses: mem.accesses.len(),
                patterns: patterns.join("/"),
                transactions_per_warp: mem.transactions_per_warp,
                static_bytes_per_warp: mem.bytes_per_warp(),
                simulated_bytes_per_warp: sim.dram_bytes() / u64::from(OPT_WARPS),
                arithmetic_intensity: mem.arithmetic_intensity(),
                exact: mem.exact,
                lints: mem.lints.len(),
            }
        })
        .collect()
}

/// Renders the static memory table.
pub fn render_memory_report(rows: &[MemoryRow]) -> String {
    let mut t = Table::new(
        "Static memory analysis: coalescing and 32B-sector traffic  (predicted == simulated bytes; curve kernels keep the paper's scattered AoS layout)",
        &[
            "Kernel",
            "accesses",
            "pattern",
            "txn/warp",
            "B/warp (static)",
            "B/warp (sim)",
            "AI",
            "exact",
            "lints",
        ],
    );
    for r in rows {
        t.row(vec![
            r.kernel.clone(),
            r.accesses.to_string(),
            r.patterns.clone(),
            r.transactions_per_warp.to_string(),
            r.static_bytes_per_warp.to_string(),
            r.simulated_bytes_per_warp.to_string(),
            f(r.arithmetic_intensity),
            if r.exact { "yes" } else { "bound" }.into(),
            if r.lints == 0 {
                "clean".into()
            } else {
                r.lints.to_string()
            },
        ]);
    }
    t.render()
}

/// One row of the static-roofline table: a kernel placed in a device's
/// roofline envelope twice — once from static analysis alone and once
/// from the simulated counters.
#[derive(Debug, Clone)]
pub struct StaticRooflineRow {
    /// Kernel name.
    pub kernel: String,
    /// Device model.
    pub device: String,
    /// Resident warps modeled/simulated.
    pub warps: u32,
    /// Binding ceiling at the *static* arithmetic intensity.
    pub bound: &'static str,
    /// Binding ceiling at the *measured* arithmetic intensity.
    pub measured_bound: &'static str,
    /// Placement from static analysis (predicted cycles, static INT32
    /// ops, static AI).
    pub static_point: RooflinePoint,
    /// Placement from the simulator's counters (Fig. 9 methodology).
    pub measured_point: RooflinePoint,
    /// `100·(static - measured)/measured` on `compute_fraction`.
    pub compute_fraction_err_pct: f64,
}

/// Places `FF_mul` (Fig. 9 methodology: coalesced layout) and the XYZZ
/// madd kernel (scattered AoS buckets) in each device's roofline envelope
/// from static analysis alone, next to the measured placement.
pub fn static_roofline_report(devices: &[DeviceSpec]) -> Vec<StaticRooflineRow> {
    let zoo = catalog();
    let mut rows = Vec::new();
    for device in devices {
        let cfg = SmspConfig::from(device);
        let roof = Roofline::of(device);
        for k in zoo
            .iter()
            .filter(|k| matches!(k.name, "FF_mul" | "XYZZ madd"))
        {
            let mem = k.memory(&cfg);
            let pred = k
                .predict(&cfg, OPT_WARPS, &mem)
                .expect("schedulable kernel");
            let sim = simulate(k, &cfg);
            let ai = mem.arithmetic_intensity();
            let static_point = roof.place_static(
                device,
                k.name,
                pred.cycles,
                mem.int_ops_per_warp * u64::from(OPT_WARPS),
                ai,
            );
            let measured_point = roof.place(device, k.name, &sim);
            rows.push(StaticRooflineRow {
                kernel: k.name.to_owned(),
                device: device.name.to_owned(),
                warps: OPT_WARPS,
                bound: roof.bound(ai).label(),
                measured_bound: roof.bound(sim.arithmetic_intensity()).label(),
                compute_fraction_err_pct: 100.0
                    * (static_point.compute_fraction - measured_point.compute_fraction)
                    / measured_point.compute_fraction,
                static_point,
                measured_point,
            });
        }
    }
    rows
}

/// Renders the static-roofline table.
pub fn render_static_roofline_report(rows: &[StaticRooflineRow]) -> String {
    let mut t = Table::new(
        "Static roofline placement vs measured  (no execution: predicted cycles + static INT32 ops + static AI; within +/-5% of the simulated point)",
        &[
            "Kernel",
            "Device",
            "warps",
            "bound",
            "AI static",
            "AI sim",
            "%peak static",
            "%peak sim",
            "err %",
        ],
    );
    for r in rows {
        t.row(vec![
            r.kernel.clone(),
            r.device.clone(),
            r.warps.to_string(),
            r.bound.into(),
            f(r.static_point.arithmetic_intensity),
            f(r.measured_point.arithmetic_intensity),
            f(100.0 * r.static_point.compute_fraction),
            f(100.0 * r.measured_point.compute_fraction),
            f(r.compute_fraction_err_pct),
        ]);
    }
    t.render()
}

/// One row of the range-proof table: obligations discharged for one
/// kernel on one field.
#[derive(Debug, Clone)]
pub struct RangeProofRow {
    /// Kernel name.
    pub kernel: String,
    /// Field name.
    pub field: String,
    /// `< 2p` obligations the generator attached.
    pub obligations: usize,
    /// Obligations the analyzer proved.
    pub proved: usize,
    /// Range diagnostics (overflow or unprovable obligations).
    pub diagnostics: usize,
}

/// Discharges the `< 2p` Montgomery output obligations of every kernel
/// that carries one — `FF_mul`, `FF_sqr` and the canonical-input
/// multiplies of both curve kernels, all instances of the one
/// `FfEmitter::mul` — on all four supported fields.
pub fn range_proof_report() -> Vec<RangeProofRow> {
    let mut rows = Vec::new();
    for field in &Field32::supported() {
        for k in kernels_over(field, field) {
            if k.facts.obligations.is_empty() {
                continue;
            }
            let ra = k.ranges();
            rows.push(RangeProofRow {
                kernel: k.name.to_owned(),
                field: field.name.to_owned(),
                obligations: k.facts.obligations.len(),
                proved: ra.proved.len(),
                diagnostics: ra.diagnostics.len(),
            });
        }
    }
    rows
}

/// Renders the range-proof table.
pub fn render_range_proof_report(rows: &[RangeProofRow]) -> String {
    let mut t = Table::new(
        "Value-range soundness: Montgomery `< 2p` output proofs  (interval + chain-certificate tiers; every canonical-input multiply)",
        &["Kernel", "Field", "obligations", "proved", "diags", "status"],
    );
    for r in rows {
        let status = if r.diagnostics == 0 && r.proved == r.obligations {
            "proved"
        } else {
            "FAILED"
        };
        t.row(vec![
            r.kernel.clone(),
            r.field.clone(),
            r.obligations.to_string(),
            r.proved.to_string(),
            r.diagnostics.to_string(),
            status.into(),
        ]);
    }
    t.render()
}

/// One row of the optimizer table: the verified optimizer's effect on
/// one kernel for one device, with the stall-breakdown delta between
/// the before and after schedule predictions.
#[derive(Debug, Clone)]
pub struct OptimizerRow {
    /// Kernel name.
    pub kernel: String,
    /// Device name.
    pub device: String,
    /// Instruction count before optimization.
    pub instructions_before: usize,
    /// Instruction count after optimization.
    pub instructions_after: usize,
    /// Predicted issue cycles before.
    pub cycles_before: u64,
    /// Predicted issue cycles after.
    pub cycles_after: u64,
    /// Predicted issue-cycle reduction, percent.
    pub gain_pct: f64,
    /// Warp-cycle *Selected* delta (before − after).
    pub d_selected: i64,
    /// Warp-cycle *Stall Wait* delta (before − after).
    pub d_wait: i64,
    /// Warp-cycle *Math Pipe Throttle* delta (before − after).
    pub d_math: i64,
    /// Warp-cycle *Not Selected* + *Other* delta (before − after).
    pub d_other: i64,
    /// Stores proven or matched by the translation validator.
    pub stores_certified: usize,
}

/// Runs the verified optimizer over the full zoo for each device,
/// panicking if the translation validator rejects a shipped kernel —
/// exactly the condition the optimizer gate treats as a build break.
pub fn optimizer_report(devices: &[DeviceSpec]) -> Vec<OptimizerRow> {
    let mut rows = Vec::new();
    for device in devices {
        for k in gpu_kernels::optimized::optimized_zoo(device) {
            let r = &k.optimized.report;
            let (before, after) = match (&r.before, &r.after) {
                (Some(b), Some(a)) => (b, a),
                _ => continue,
            };
            let d = |b: u64, a: u64| b as i64 - a as i64;
            rows.push(OptimizerRow {
                kernel: k.kernel.name.to_owned(),
                device: device.name.to_owned(),
                instructions_before: r.instructions_before,
                instructions_after: r.instructions_after,
                cycles_before: before.cycles,
                cycles_after: after.cycles,
                gain_pct: r.cycle_gain_pct().unwrap_or(0.0),
                d_selected: d(before.stalls.selected, after.stalls.selected),
                d_wait: d(before.stalls.wait, after.stalls.wait),
                d_math: d(
                    before.stalls.math_pipe_throttle,
                    after.stalls.math_pipe_throttle,
                ),
                d_other: d(
                    before.stalls.not_selected + before.stalls.other,
                    after.stalls.not_selected + after.stalls.other,
                ),
                stores_certified: k.optimized.certificate.stores_matched()
                    + k.optimized.certificate.stores_elided(),
            });
        }
    }
    rows
}

/// Renders the optimizer table. Deltas are `before − after` warp-cycles:
/// positive numbers are cycles the optimizer removed from that stall
/// class.
pub fn render_optimizer_report(rows: &[OptimizerRow]) -> String {
    let mut t = Table::new(
        "Verified optimizer: per-kernel gains with stall-breakdown deltas  (translation-validated; dead overflow-word bookkeeping + list scheduling)",
        &[
            "Kernel",
            "Device",
            "instrs",
            "cycles",
            "gain %",
            "d sel",
            "d wait",
            "d math",
            "d other",
            "stores ok",
        ],
    );
    for r in rows {
        t.row(vec![
            r.kernel.clone(),
            r.device.clone(),
            format!("{}->{}", r.instructions_before, r.instructions_after),
            format!("{}->{}", r.cycles_before, r.cycles_after),
            f(r.gain_pct),
            r.d_selected.to_string(),
            r.d_wait.to_string(),
            r.d_math.to_string(),
            r.d_other.to_string(),
            r.stores_certified.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shipped_kernel_is_lint_clean_in_the_report() {
        for r in static_report() {
            assert_eq!(r.lints, 0, "{}: error-severity lints", r.name);
        }
    }

    #[test]
    fn optimizer_report_hits_the_headline_gains() {
        let devices = [
            gpu_sim::device::v100(),
            gpu_sim::device::a100(),
            gpu_sim::device::h100(),
        ];
        let rows = optimizer_report(&devices);
        assert_eq!(
            rows.len(),
            3 * catalog().len(),
            "one row per kernel per device"
        );
        for r in &rows {
            assert!(r.cycles_after <= r.cycles_before, "{} regressed", r.kernel);
            assert!(r.stores_certified > 0, "{}: no stores certified", r.kernel);
            if r.kernel == "FF_mul" || r.kernel == "XYZZ madd" {
                assert!(
                    r.gain_pct >= 5.0,
                    "{} on {}: gain {:.2}% < 5%",
                    r.kernel,
                    r.device,
                    r.gain_pct
                );
            }
        }
    }

    #[test]
    fn report_reproduces_the_paper_mix_and_pressure_story() {
        let rows = static_report();
        let get = |n: &str| rows.iter().find(|r| r.name == n).expect("kernel present");
        // FF_mul's static mix is IMAD-dominated like the paper's 70.8%.
        assert!(get("FF_mul").metrics.imad_share > 0.6);
        // MSM pressure dwarfs NTT pressure.
        let madd = get("XYZZ madd").metrics.max_live_regs;
        let bfly = get("NTT butterfly").metrics.max_live_regs;
        assert!(madd > 2 * bfly, "{madd} vs {bfly}");
        // Everything the report covers is INT32-heavy.
        for r in &rows {
            assert!(r.metrics.int32_share > 0.5, "{}", r.name);
        }
    }

    #[test]
    fn predictions_stay_within_tolerance_across_generations() {
        let devices = [
            gpu_sim::device::v100(),
            gpu_sim::device::a100(),
            gpu_sim::device::h100(),
        ];
        let rows = prediction_report(&devices);
        assert_eq!(rows.len(), catalog().len() * devices.len());
        for r in &rows {
            assert!(
                r.error_pct.abs() <= 3.0,
                "{} on {}: predicted {} vs simulated {} ({:+.2}%)",
                r.kernel,
                r.device,
                r.predicted_cycles,
                r.simulated_cycles,
                r.error_pct
            );
        }
    }

    #[test]
    fn memory_report_certifies_coalescing_and_exact_traffic() {
        let rows = memory_report();
        assert_eq!(rows.len(), catalog().len());
        for r in &rows {
            // Every kernel's accesses are provably affine, so the static
            // traffic prediction is exact — and it matches the simulator
            // byte-for-byte.
            assert!(r.exact, "{}", r.kernel);
            assert_eq!(
                r.static_bytes_per_warp, r.simulated_bytes_per_warp,
                "{}",
                r.kernel
            );
        }
        // FF kernels: warp-interleaved layout, fully coalesced, clean.
        // Curve kernels: deliberately AoS — strided accesses that the
        // analyzer flags as uncoalesced.
        for r in &rows {
            if matches!(r.kernel.as_str(), "XYZZ madd" | "NTT butterfly") {
                assert!(r.patterns.contains("strided"), "{}", r.kernel);
                assert!(r.lints > 0, "{}", r.kernel);
            } else {
                assert_eq!(r.patterns, "coalesced", "{}", r.kernel);
                assert_eq!(r.lints, 0, "{}", r.kernel);
            }
        }
    }

    #[test]
    fn static_roofline_tracks_the_measured_placement_on_every_device() {
        let devices = gpu_sim::device::catalog();
        let rows = static_roofline_report(&devices);
        assert_eq!(rows.len(), 2 * devices.len());
        for r in &rows {
            assert!(
                r.compute_fraction_err_pct.abs() <= 5.0,
                "{} on {}: static {:.4} vs measured {:.4} ({:+.2}%)",
                r.kernel,
                r.device,
                r.static_point.compute_fraction,
                r.measured_point.compute_fraction,
                r.compute_fraction_err_pct
            );
            assert_eq!(r.bound, r.measured_bound, "{} on {}", r.kernel, r.device);
        }
    }

    #[test]
    fn range_proofs_cover_both_generators_on_all_fields() {
        let rows = range_proof_report();
        // 4 fields x (FF_mul, FF_sqr, xyzz, butterfly): the microbenchmark
        // generator and the curve-kernel generator, one emitter.
        assert_eq!(rows.len(), 16);
        for r in &rows {
            assert!(r.obligations >= 1, "{} {}", r.kernel, r.field);
            assert_eq!(r.proved, r.obligations, "{} on {}", r.kernel, r.field);
            assert_eq!(r.diagnostics, 0, "{} on {}", r.kernel, r.field);
        }
    }

    #[test]
    fn render_contains_every_kernel() {
        let rows = static_report();
        let s = render_static_report(&rows);
        for r in &rows {
            assert!(s.contains(&r.name), "{}", r.name);
        }
        assert!(s.contains("clean"));
    }
}
