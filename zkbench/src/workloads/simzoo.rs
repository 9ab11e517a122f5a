//! `sim_ff_zoo`: the five FF microbenchmarks over Fq381 and Fr381 on the
//! SMSP simulator, then the verified optimizer over the kernel zoo. Host time
//! is the latency; simulated time is `gpu-sim.sim_cycles` and must repeat.

use super::{measure, put_median, Fnv, Outcome, RunCfg, SetupTimes};
use crate::adapter::{
    gpu_limbs, optimized_zoo, run_ff_op, v100, zoo_entries, FfInputs, FfOp, FfOpReport, Field,
    Field32, Fp, FpConfig, Fq381Config, Fr381Config, OptimizedKernel, SeedableRng, SmspConfig,
    StdRng,
};
use crate::clock::now_ns;
use crate::metrics::Values;
use crate::spans::Meter;

/// One field's operands and what the host computes from them.
struct FieldCase {
    field: Field32,
    inputs: FfInputs,
    /// Expected output limbs per op (in `FfOp::all()` order), per thread.
    expected: Vec<Vec<Vec<u32>>>,
}

fn field_case<C: FpConfig<N>, const N: usize>(
    threads: usize,
    iters: u32,
    rng: &mut StdRng,
) -> FieldCase {
    let xs: Vec<Fp<C, N>> = (0..threads).map(|_| Fp::random(rng)).collect();
    let ys: Vec<Fp<C, N>> = (0..threads).map(|_| Fp::random(rng)).collect();
    let expected = FfOp::all()
        .iter()
        .map(|op| {
            xs.iter()
                .zip(&ys)
                .map(|(x, y)| {
                    let mut acc = *x;
                    for _ in 0..iters {
                        acc = match op {
                            FfOp::Add => acc + *y,
                            FfOp::Sub => acc - *y,
                            FfOp::Dbl => acc.double(),
                            FfOp::Mul => acc * *y,
                            FfOp::Sqr => acc.square(),
                        };
                    }
                    gpu_limbs(&acc)
                })
                .collect()
        })
        .collect();
    FieldCase {
        field: Field32::of::<C, N>(),
        inputs: FfInputs {
            a: xs.iter().map(gpu_limbs).collect(),
            b: ys.iter().map(gpu_limbs).collect(),
        },
        expected,
    }
}

/// Simulated statistics of one op, which every op of a run must reproduce.
#[derive(Debug, Clone, Default, PartialEq)]
struct SimFigures {
    sim_cycles: u64,
    warp_instructions: u64,
    mem_transactions: u64,
    stall_cycles: u64,
    warp_cycles: u64,
    cycles_ff_mul_fq: u64,
    zoo_before: u64,
    zoo_after: u64,
}

/// The op's simulated statistics and the digest of its output limbs.
fn figures(reports: &[FfOpReport], zoo: &[OptimizedKernel]) -> (SimFigures, u64) {
    let mut f = SimFigures::default();
    let mut digest = Fnv::new();
    for (i, r) in reports.iter().enumerate() {
        f.sim_cycles += r.sim.cycles;
        f.warp_instructions += r.sim.instructions;
        f.mem_transactions += r.sim.mem_transactions;
        f.warp_cycles += r.sim.stalls.total();
        f.stall_cycles += r.sim.stalls.total() - r.sim.stalls.selected;
        // Reports come field-major, Fq first, in `FfOp::all()` order.
        if i < FfOp::all().len() && r.op == FfOp::Mul {
            f.cycles_ff_mul_fq = r.sim.cycles;
        }
        for limbs in &r.outputs {
            for l in limbs {
                digest.update(&l.to_le_bytes());
            }
        }
    }
    for k in zoo {
        if let (Some(before), Some(after)) = (&k.optimized.report.before, &k.optimized.report.after)
        {
            f.zoo_before += before.cycles;
            f.zoo_after += after.cycles;
        }
    }
    f.sim_cycles += f.zoo_after;
    (f, digest.finish())
}

/// Runs the workload.
pub fn run(cfg: &RunCfg, meter: &mut Meter, layer: &mut Values) -> Outcome {
    const NAME: &str = "sim_ff_zoo";
    let warps = cfg.sizes.sim_warps;
    let iters = cfg.sizes.sim_iters;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let config = SmspConfig::default();
    let device = v100();

    let cases = [
        field_case::<Fq381Config, 6>(warps * 32, iters, &mut rng),
        field_case::<Fr381Config, 4>(warps * 32, iters, &mut rng),
    ];
    let sweep = || -> Vec<FfOpReport> {
        let mut reports = Vec::with_capacity(2 * FfOp::all().len());
        for case in &cases {
            for op in FfOp::all() {
                reports.push(run_ff_op(
                    &case.field,
                    op,
                    &config,
                    &case.inputs,
                    warps,
                    iters,
                ));
            }
        }
        reports
    };

    // Set-up: kernel-program generation for the whole zoo (the simulator
    // entry points regenerate their programs per call; this times generation
    // on its own so that work moved into it shows), then one cold sweep and
    // one cold optimizer run.
    meter.spans.scope(NAME, -1);
    let mut setups = SetupTimes::default();
    let mut build_s = Vec::new();
    while setups.wants_more(cfg) {
        meter.cal.refresh();
        let (_, t_build, _) = meter.timed("gpu-kernels", "zoo_entries", zoo_entries);
        let (_, t_cold, _) = meter.timed("gpu-sim", "run_ff_op sweep+optimized_zoo(cold)", || {
            (sweep(), optimized_zoo(&device))
        });
        setups.push(&[t_build, t_cold]);
        build_s.push(t_build.cal_s);
    }

    let mut first: Option<(SimFigures, u64)> = None;
    let mut failed = 0;
    let (mut sweep_cal, mut zoo_cal) = (Vec::new(), Vec::new());
    let samples = measure(cfg, meter, NAME, |i, meter| {
        // One yardstick bracket around both parts; the sweep's share of the
        // wall time splits the calibrated time between the two layers.
        let ((mut reports, zoo, sweep_ns), t, span) =
            meter.timed("gpu-sim", "run_ff_op sweep+optimized_zoo", || {
                let start = now_ns();
                let reports = sweep();
                let sweep_ns = now_ns() - start;
                (reports, optimized_zoo(&device), sweep_ns)
            });
        let zoo_ns = (t.end_ns - t.start_ns).saturating_sub(sweep_ns);
        meter
            .spans
            .stage(span, "run_ff_op sweep", "gpu-sim", sweep_ns);
        meter
            .spans
            .stage(span, "optimized_zoo", "gpu-kernels", zoo_ns);
        sweep_cal.push(sweep_ns as f64 * 1e-9 * t.factor());
        zoo_cal.push(zoo_ns as f64 * 1e-9 * t.factor());

        // Checks: outputs equal the host's field arithmetic, and simulated
        // statistics equal the first op's.
        if cfg.corrupt && i == 0 {
            reports[0].outputs[0][0] ^= 1;
        }
        let per_field = FfOp::all().len();
        let outputs_ok = reports
            .iter()
            .enumerate()
            .all(|(at, r)| r.outputs == cases[at / per_field].expected[at % per_field]);
        let now = figures(&reports, &zoo);
        meter
            .spans
            .count(span, "warp_instructions", now.0.warp_instructions);
        meter.spans.count(span, "sim_cycles", now.0.sim_cycles);
        let repeats = first.as_ref().is_none_or(|(f, _)| *f == now.0);
        if !outputs_ok || !repeats {
            failed += 1;
        }
        first.get_or_insert(now);
        t
    });

    let (f, outputs_digest) = first.expect("at least one op ran");
    if cfg.traced {
        layer.insert("gpu-sim.warp_instructions", f.warp_instructions as f64);
        let sweep = crate::clock::median(&sweep_cal);
        layer.insert(
            "gpu-sim.host_cal_ns_per_warp_instr",
            sweep * 1e9 / f.warp_instructions as f64,
        );
        layer.insert("gpu-sim.cycles_ff_mul_fq381", f.cycles_ff_mul_fq as f64);
        layer.insert(
            "gpu-sim.issue_stall_share",
            f.stall_cycles as f64 / f.warp_cycles as f64,
        );
        layer.insert("gpu-sim.mem_transactions", f.mem_transactions as f64);
        layer.insert("gpu-sim.sim_cycles", f.sim_cycles as f64);
        put_median(layer, "gpu-kernels.program_build_cal_s", &build_s);
        put_median(layer, "gpu-kernels.optimize_zoo_cal_s", &zoo_cal);
        layer.insert("gpu-kernels.zoo_cycles_before", f.zoo_before as f64);
        layer.insert("gpu-kernels.zoo_cycles_after", f.zoo_after as f64);
    }

    let (setup_cal_s, setup_raw_s) = setups.into_parts();
    Outcome {
        workload: NAME,
        attempted: samples.len() as u64,
        failed,
        samples,
        items_per_op: 1,
        setup_cal_s,
        setup_raw_s,
        digest: outputs_digest,
        exact: vec![
            ("sim_cycles", f.sim_cycles),
            ("warp_instructions", f.warp_instructions),
            ("zoo_cycles_after", f.zoo_after),
        ],
        threads: 1,
    }
}
