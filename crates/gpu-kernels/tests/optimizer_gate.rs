//! The optimizer gate: every shipped kernel must pass translation
//! validation on every cataloged device, the headline kernels must show
//! the paper-motivated instruction-count win, and predicted cycles must
//! not regress against the committed `BENCH_kernels.json` baseline.

use gpu_kernels::catalog;
use gpu_kernels::optimized::{optimized_zoo, OptimizedKernel};
use gpu_sim::analysis::SchedulePrediction;

fn zoo_for(device: &str) -> Vec<OptimizedKernel> {
    let spec = gpu_sim::device::by_name(device).expect("cataloged device");
    optimized_zoo(&spec)
}

#[test]
fn every_kernel_validates_on_every_device() {
    for device in ["v100", "a100", "h100"] {
        // `optimized_zoo` panics if validation rejects any kernel.
        let zoo = zoo_for(device);
        assert_eq!(zoo.len(), catalog().len(), "zoo shrank on {device}");
        for k in &zoo {
            assert!(
                k.optimized.certificate.live_out_checked() > 0,
                "{device}/{}: certificate proved nothing",
                k.kernel.name
            );
            assert!(
                k.optimized.report.instructions_after <= k.optimized.report.instructions_before,
                "{device}/{}: optimizer grew the kernel",
                k.kernel.name
            );
            // The raw generators may ship dead-write warnings (the
            // uniform CIOS overflow-word schema); the optimized kernel
            // must be clean of every diagnostic, warnings included.
            let diags = gpu_sim::analysis::lint(&k.optimized.program, &k.kernel.entry_regs());
            assert!(
                diags.is_empty(),
                "{device}/{}: optimized kernel lints:\n{}",
                k.kernel.name,
                diags
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }
    }
}

#[test]
fn headline_kernels_gain_five_percent() {
    for device in ["v100", "a100", "h100"] {
        let zoo = zoo_for(device);
        for name in ["FF_mul", "XYZZ madd"] {
            let k = zoo
                .iter()
                .find(|k| k.kernel.name == name)
                .unwrap_or_else(|| panic!("{name} missing from zoo"));
            let gain = k
                .optimized
                .report
                .cycle_gain_pct()
                .unwrap_or_else(|| panic!("{device}/{name}: no schedule prediction"));
            assert!(
                gain >= 5.0,
                "{device}/{name}: predicted issue-cycle gain {gain:.2}% < 5%"
            );
        }
    }
}

/// Pulls `"key":<integer>` out of a one-kernel-per-line JSON baseline
/// without a JSON dependency. The committed file is generated by
/// `analyze v100 optimize` and keeps each kernel object on one line.
fn extract_u64(line: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = line
        .find(&needle)
        .unwrap_or_else(|| panic!("baseline line missing {key:?}: {line}"))
        + needle.len();
    line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|e| panic!("baseline {key} not an integer: {e}"))
}

/// `BENCH_kernels.json` as `analyze v100 optimize` would regenerate it.
fn regenerated_baseline(zoo: &[OptimizedKernel]) -> String {
    let rows: Vec<String> = zoo
        .iter()
        .map(|k| {
            let r = &k.optimized.report;
            let cycles =
                |p: &Option<SchedulePrediction>| p.as_ref().expect("schedule prediction").cycles;
            format!(
                "    {{\"name\":\"{}\",\"field\":\"{}\",\"instructions_before\":{},\
                 \"instructions_after\":{},\"cycles_before\":{},\"cycles_after\":{}}}",
                k.kernel.name,
                k.kernel.field.name,
                r.instructions_before,
                r.instructions_after,
                cycles(&r.before),
                cycles(&r.after)
            )
        })
        .collect();
    format!(
        "{{\n  \"device\": \"v100\",\n  \"warps\": {},\n  \"kernels\": [\n{}\n  ]\n}}\n",
        gpu_kernels::OPT_WARPS,
        rows.join(",\n")
    )
}

/// Fails on a regression or a kernel-set mismatch only; on any other
/// difference it prints the regenerated file, ready to paste.
#[test]
fn predicted_cycles_do_not_regress_vs_committed_baseline() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    let baseline = std::fs::read_to_string(path).expect("committed BENCH_kernels.json");
    let zoo = zoo_for("v100");
    let regenerated = regenerated_baseline(&zoo);
    if regenerated != baseline {
        eprintln!("BENCH_kernels.json differs; regenerated file:\n{regenerated}");
    }
    let mut matched = 0;
    for line in baseline.lines().filter(|l| l.contains("\"name\":")) {
        let k = zoo
            .iter()
            .find(|k| line.contains(&format!("\"name\":\"{}\"", k.kernel.name)))
            .unwrap_or_else(|| panic!("baseline kernel missing from zoo: {line}"));
        let r = &k.optimized.report;
        let after = r.after.as_ref().expect("schedule prediction").cycles;
        assert!(
            after <= extract_u64(line, "cycles_after"),
            "{}: predicted issue cycles regressed vs baseline ({} > {})",
            k.kernel.name,
            after,
            extract_u64(line, "cycles_after")
        );
        assert!(
            r.instructions_after <= extract_u64(line, "instructions_after") as usize,
            "{}: optimized instruction count regressed vs baseline",
            k.kernel.name
        );
        matched += 1;
    }
    assert_eq!(
        matched,
        zoo.len(),
        "baseline and zoo cover different kernels"
    );
}

#[test]
fn print_zoo_summary() {
    let zoo = zoo_for("v100");
    for k in &zoo {
        let r = &k.optimized.report;
        eprintln!(
            "{:14} {:7} instrs {}->{} folded={} cse={} dse={} dce={} moved={} live {}->{} reg {}->{} gain={:?}",
            k.kernel.name,
            k.kernel.field.name,
            r.instructions_before,
            r.instructions_after,
            r.simplified,
            r.loads_eliminated,
            r.stores_eliminated,
            r.dead_removed,
            r.moved,
            r.max_live_before,
            r.max_live_after,
            r.max_reg_before,
            r.max_reg_after,
            r.cycle_gain_pct()
        );
        if let (Some(b), Some(a)) = (&r.before, &r.after) {
            eprintln!("    cycles {} -> {}", b.cycles, a.cycles);
        }
    }
}
