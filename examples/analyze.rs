//! `analyze` — machine-readable static analysis of the kernel zoo.
//!
//! Runs every analyzer pass (metrics, lints, scoreboard schedule
//! prediction, memory-access analysis, value-range proofs) over the
//! generated kernels without ever invoking the simulator, and emits one
//! JSON array on stdout — the shape a CI gate or dashboard would ingest.
//!
//! Usage: `analyze [device] [kernel-substring]`
//!    or: `analyze [device] optimize [kernel-substring]`
//!
//! The `optimize` mode runs the verified optimizer
//! ([`gpu_sim::analysis::optimize`]) over the zoo instead and emits one
//! JSON object per kernel: the before/after [`OptReport`] (instruction
//! counts, per-pass rewrite counts, predicted schedules) and the
//! translation-validation certificate summary. The optional trailing
//! argument filters kernels by case-insensitive substring in either
//! mode (e.g. `analyze a100 mul`).
//!
//! [`OptReport`]: gpu_sim::analysis::OptReport

use gpu_kernels::catalog;
use gpu_kernels::optimized::{optimize_kernel, OPT_WARPS};
use gpu_sim::analysis::{self, StaticMetrics};
use gpu_sim::machine::SmspConfig;
use zkp_examples::device_from_args;

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() {
    let device = device_from_args();
    let mut rest: Vec<String> = std::env::args().skip(2).collect();
    let optimize_mode = rest.first().is_some_and(|a| a == "optimize");
    if optimize_mode {
        rest.remove(0);
    }
    let filter = rest.first().map(|s| s.to_lowercase());
    let config = SmspConfig::from(&device);
    let warps = OPT_WARPS; // §IV-B: two resident warps per SMSP.

    let mut objects = Vec::new();
    for kernel in catalog() {
        let (name, field) = (kernel.name, kernel.field.name);
        if let Some(fr) = &filter {
            if !name.to_lowercase().contains(fr.as_str()) {
                continue;
            }
        }
        if optimize_mode {
            let object = match optimize_kernel(kernel, &config) {
                Ok(k) => format!(
                    "{{\"kernel\":{},\"field\":{},\"device\":{},\
                     \"report\":{},\"certificate\":{}}}",
                    json_str(name),
                    json_str(field),
                    json_str(device.name),
                    k.optimized.report.to_json(),
                    k.optimized.certificate.to_json()
                ),
                Err(e) => format!(
                    "{{\"kernel\":{},\"field\":{},\"device\":{},\"error\":{}}}",
                    json_str(name),
                    json_str(field),
                    json_str(device.name),
                    json_str(&e.to_string())
                ),
            };
            objects.push(object);
            continue;
        }
        let metrics = StaticMetrics::compute(&kernel.program);
        let lints: Vec<String> = analysis::lint(&kernel.program, &kernel.entry_regs())
            .iter()
            .map(|d| json_str(&d.to_string()))
            .collect();
        // Memory-aware prediction: strided (AoS) kernels issue multiple
        // LSU wavefronts per access, which the schedule must charge.
        let memory = kernel.memory(&config);
        let schedule = kernel
            .predict(&config, warps, &memory)
            .map(|p| p.to_json())
            .unwrap_or_else(|e| format!("{{\"error\":{}}}", json_str(&e.to_string())));
        objects.push(format!(
            "{{\"kernel\":{},\"field\":{},\"device\":{},\"warps\":{},\
             \"metrics\":{},\"lints\":[{}],\"schedule\":{},\"memory\":{},\"ranges\":{}}}",
            json_str(name),
            json_str(field),
            json_str(device.name),
            warps,
            metrics.to_json(),
            lints.join(","),
            schedule,
            memory.to_json(),
            kernel.ranges().to_json()
        ));
    }
    println!("[{}]", objects.join(",\n"));
}
