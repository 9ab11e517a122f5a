//! The benchmark's contract: workloads, end-to-end and per-layer metrics with
//! unit, direction and bound. `BENCHMARK.json` at the repository root is
//! generated from these tables (`zkbench --print-benchmark-json`) and a test
//! keeps the two equal.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 10;

/// The benchmark's directory, relative to the repository root.
pub const BENCH_DIR: &str = "zkbench";

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// One line: what it stresses that the others do not.
    pub why: &'static str,
    /// Weight of the chain yardstick in this workload's calibration mix (see
    /// `clock`), fitted as the mix that minimises the run-to-run spread of the
    /// workload's median over ten runs and rounded to one of three values:
    /// 0.7 for the NTT pipeline (dependent butterflies), 0.35 for the MSM-bound
    /// proofs, 0 for the simulator and for the two-worker service, which lose
    /// as much to a busy sibling thread as the ILP yardstick does. The README
    /// has the data and how to refit (`--samples`).
    pub chain_share: f64,
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen (end-to-end only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// The five workloads. All are closed loops with one client (one batch in
/// flight on `serve_dense_256`), generated in-process from `--seed`.
pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "prove_dense_1k",
        why: "warm 1-thread MiMC proof, 1 024 constraints, full-width witness: the G1/G2 MSMs are nearly all of it, so ff (Fq), curves and msm accumulation work shows here",
        chain_share: 0.35,
    },
    WorkloadDef {
        name: "prove_bits_1k",
        why: "same call on 16 u64 range checks (0/1 witness, 16 public inputs): A/B/L MSMs go sparse and reduction-bound, leaving the H MSM, the 7 transforms and witness evaluation",
        chain_share: 0.35,
    },
    WorkloadDef {
        name: "quotient_32k",
        why: "quotient_poly_in at 2^15 over Fr: ntt and ff (Fr) do all the work and msm/curves none, the CPU analogue of NTT dominating once MSM is fast",
        chain_share: 0.7,
    },
    WorkloadDef {
        name: "serve_dense_256",
        why: "batches of 4 MiMC jobs through ProofService on min(2, nproc) workers: the only workload where the runtime queue and the groth16 service layer matter",
        chain_share: 0.0,
    },
    WorkloadDef {
        name: "sim_ff_zoo",
        why: "FF microbenchmarks on the SMSP simulator plus the kernel optimizer: no prover layer runs, so prover work must leave it flat and simulator work must keep sim_cycles",
        chain_share: 0.0,
    },
];

/// End-to-end metrics; every workload reports every one with `--trace 0`.
///
/// Times are calibrated seconds (see `clock`). The sample of `latency_*` is
/// one op of the workload: a proof, a quotient, a batch of 4 jobs, or one FF
/// sweep plus one optimizer run. `throughput_per_cal_s` is items (proofs,
/// quotients, sweeps) completed ÷ Σ calibrated op time.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("latency_p50_cal_s", "s", Better::Lower, 0.12),
    e2e("latency_tail_cal_s", "s", Better::Lower, 0.15),
    e2e("throughput_per_cal_s", "1/s", Better::Higher, 0.12),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
];

/// Per-layer metrics; every run with `--trace 1` reports every one. Prefix =
/// module name. `*_cal_*` are yardstick-calibrated medians, the rest exact
/// counts or ratios.
pub const PER_LAYER: [MetricDef; 81] = [
    // ff: dependent chains.
    lower("ff.fq381_mul_cal_ns", "ns"),
    lower("ff.fq381_sqr_cal_ns", "ns"),
    lower("ff.fq381_add_cal_ns", "ns"),
    lower("ff.fq381_inv_cal_ns", "ns"),
    lower("ff.fr381_mul_cal_ns", "ns"),
    lower("ff.fr381_add_cal_ns", "ns"),
    lower("ff.fr381_batch_inv_cal_ns", "ns"),
    // curves: XYZZ mixed addition and doubling, pairing, counted formulas.
    lower("curves.g1_madd_cal_ns", "ns"),
    lower("curves.g1_dbl_cal_ns", "ns"),
    lower("curves.g2_madd_cal_ns", "ns"),
    lower("curves.pairing_cal_s", "s"),
    lower("curves.g1_madd_ffmul", "count"),
    lower("curves.g1_madd_ffadd", "count"),
    lower("curves.g2_madd_ffmul", "count"),
    lower("curves.madd_model_residual", "ratio"),
    // msm: probes at the prove workloads' shapes, 1 thread, session config.
    lower("msm.g1_dense_cal_s", "s"),
    lower("msm.g1_bits_cal_s", "s"),
    lower("msm.g2_dense_cal_s", "s"),
    lower("msm.g1_dense_padds", "count"),
    lower("msm.g1_bits_padds", "count"),
    lower("msm.g2_dense_padds", "count"),
    lower("msm.g1_dense_accum_share", "ratio"),
    lower("msm.g1_bits_accum_share", "ratio"),
    lower("msm.g1_dense_batch_inversions", "count"),
    lower("msm.g1_cal_ns_per_padd", "ns"),
    lower("msm.g1_padd_model_residual", "ratio"),
    lower("msm.plan_build_cal_s", "s"),
    lower("msm.plan_storage_mb", "MiB"),
    // ntt
    lower("ntt.fwd_2k_cal_s", "s"),
    lower("ntt.inv_2k_cal_s", "s"),
    lower("ntt.fwd_32k_cal_s", "s"),
    lower("ntt.coset_mul_32k_cal_s", "s"),
    lower("ntt.twiddle_build_32k_cal_s", "s"),
    lower("ntt.cal_ns_per_butterfly_32k", "ns"),
    lower("ntt.butterfly_model_residual", "ratio"),
    lower("ntt.quotient_transforms", "count"),
    // r1cs
    lower("r1cs.synthesize_cal_s", "s"),
    lower("r1cs.is_satisfied_cal_s", "s"),
    lower("r1cs.constraints", "count"),
    lower("r1cs.variables", "count"),
    // backend: stage rows of the traced prove.
    lower("backend.witness_eval_cal_s", "s"),
    lower("backend.ntt_inverse_cal_s", "s"),
    lower("backend.coset_mul_cal_s", "s"),
    lower("backend.ntt_forward_cal_s", "s"),
    lower("backend.msm_g1_h_cal_s", "s"),
    lower("backend.msm_g1_a_cal_s", "s"),
    lower("backend.msm_g1_b1_cal_s", "s"),
    lower("backend.msm_g1_l_cal_s", "s"),
    lower("backend.msm_g2_b2_cal_s", "s"),
    lower("backend.ops_dispatched", "count"),
    lower("backend.trace_overhead_ratio", "ratio"),
    // groth16
    lower("groth16.prove_self_cal_s", "s"),
    lower("groth16.stage_sum_residual", "ratio"),
    lower("groth16.keygen_cal_s", "s"),
    lower("groth16.session_build_cal_s", "s"),
    lower("groth16.cold_proof_cal_s", "s"),
    lower("groth16.cold_over_warm", "ratio"),
    lower("groth16.workspace_mb", "MiB"),
    lower("groth16.verify_cal_s", "s"),
    lower("groth16.verify_batch_cal_s_per_proof", "s"),
    lower("groth16.proof_codec_cal_us", "us"),
    higher("groth16.service_efficiency", "ratio"),
    higher("groth16.jobs_completed", "count"),
    lower("groth16.jobs_failed", "count"),
    lower("groth16.jobs_retried", "count"),
    lower("groth16.jobs_rejected", "count"),
    // runtime
    lower("runtime.queue_wait_p50_cal_s", "s"),
    lower("runtime.job_latency_p50_cal_s", "s"),
    lower("runtime.job_latency_tail_cal_s", "s"),
    higher("runtime.pool_threads", "count"),
    lower("runtime.warm_allocs_per_proof", "count"),
    // gpu-sim: one FF sweep (host time and simulated statistics).
    lower("gpu-sim.warp_instructions", "count"),
    lower("gpu-sim.host_cal_ns_per_warp_instr", "ns"),
    lower("gpu-sim.cycles_ff_mul_fq381", "cycles"),
    lower("gpu-sim.issue_stall_share", "ratio"),
    lower("gpu-sim.mem_transactions", "count"),
    lower("gpu-sim.sim_cycles", "cycles"),
    // gpu-kernels
    lower("gpu-kernels.program_build_cal_s", "s"),
    lower("gpu-kernels.optimize_zoo_cal_s", "s"),
    lower("gpu-kernels.zoo_cycles_before", "cycles"),
    lower("gpu-kernels.zoo_cycles_after", "cycles"),
];

/// Per-layer metrics that are counts made by the program (or sizes that follow
/// from them) and so repeat exactly between two runs of one seed.
pub const EXACT_PER_LAYER: [&str; 20] = [
    "curves.g1_madd_ffmul",
    "curves.g1_madd_ffadd",
    "curves.g2_madd_ffmul",
    "msm.g1_dense_padds",
    "msm.g1_bits_padds",
    "msm.g2_dense_padds",
    "msm.g1_dense_batch_inversions",
    "msm.plan_storage_mb",
    "ntt.quotient_transforms",
    "r1cs.constraints",
    "r1cs.variables",
    "backend.ops_dispatched",
    "groth16.workspace_mb",
    "runtime.warm_allocs_per_proof",
    "gpu-sim.warp_instructions",
    "gpu-sim.cycles_ff_mul_fq381",
    "gpu-sim.mem_transactions",
    "gpu-sim.sim_cycles",
    "gpu-kernels.zoo_cycles_before",
    "gpu-kernels.zoo_cycles_after",
];

/// The calibration mix of the layer probes (field-arithmetic code).
pub const PROBE_CHAIN_SHARE: f64 = 0.5;

/// The workload called `name`.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Whether `name` fits the contract: starts with a letter or digit, at most 64
/// of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Whether `unit` fits the contract: at most 16 of letters, digits and
/// `_ / % . -`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::new();
    out.push_str("{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"");
    let _ = write!(
        out,
        "{BENCH_DIR}/Cargo.toml\", \"--\"],\n  \"paths\": [\"{BENCH_DIR}\"],\n"
    );
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics have bounds"),
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.as_str(),
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The result of one run, as its last line of standard output carries it.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or whose output failed its check.
    pub failed: u64,
    /// `(name, value, unit)` in the order of the metric table.
    pub metrics: Vec<(String, f64, String)>,
}

impl ResultLine {
    /// Collects `defs` from `values`.
    ///
    /// # Errors
    ///
    /// Names a metric that is missing or not finite: a run that cannot report
    /// every metric reports none.
    pub fn collect(
        defs: &[MetricDef],
        values: &Values,
        attempted: u64,
        failed: u64,
    ) -> Result<Self, String> {
        let mut metrics = Vec::with_capacity(defs.len());
        for d in defs {
            match values.get(d.name) {
                Some(v) if v.is_finite() => {
                    metrics.push((d.name.to_owned(), *v, d.unit.to_owned()))
                }
                Some(v) => return Err(format!("metric {} is not finite ({v})", d.name)),
                None => return Err(format!("metric {} was not measured", d.name)),
            }
        }
        Ok(Self {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
        })
    }

    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// One JSON object on one line.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    /// Parses a line written by [`to_json`](Self::to_json); not a general JSON
    /// parser.
    pub fn parse(line: &str) -> Option<Self> {
        let field = |key: &str| -> Option<&str> {
            let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
            let rest = &line[at..];
            Some(&rest[..rest.find([',', '}'])?])
        };
        let correct = field("correct")?.parse().ok()?;
        let attempted = field("attempted")?.parse().ok()?;
        let failed = field("failed")?.parse().ok()?;
        let mut rest = &line[line.find("\"metrics\": {")? + 12..];
        let mut metrics = Vec::new();
        while let Some(open) = rest.find('"') {
            let name_end = open + 1 + rest[open + 1..].find('"')?;
            let name = &rest[open + 1..name_end];
            let v_at = name_end + rest[name_end..].find("\"value\": ")? + 9;
            let v_end = v_at + rest[v_at..].find(',')?;
            let u_at = v_end + rest[v_end..].find("\"unit\": \"")? + 9;
            let u_end = u_at + rest[u_at..].find('"')?;
            metrics.push((
                name.to_owned(),
                rest[v_at..v_end].parse().ok()?,
                rest[u_at..u_end].to_owned(),
            ));
            rest = &rest[u_end + 2..];
        }
        Some(Self {
            correct,
            attempted,
            failed,
            metrics,
        })
    }
}
