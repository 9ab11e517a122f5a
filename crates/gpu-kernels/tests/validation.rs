//! Functional cross-validation: the 32-bit-limb GPU kernels must compute
//! exactly what the 64-bit-limb host fields compute, for every operation,
//! on both curves' base and scalar fields.
//!
//! The host elements' raw Montgomery representations are fed to the GPU
//! kernels as plain integers. Because `R = 2^(64·N) = 2^(32·2N)` is the
//! same constant at both limb widths, Montgomery products agree limb set
//! for limb set, and add/sub/dbl are plain modular arithmetic either way.

use gpu_kernels::{run_ff_op, FfInputs, FfOp, Field32};
use gpu_sim::machine::SmspConfig;
use rand::{rngs::StdRng, SeedableRng};
use zkp_ff::{Field, Fp, FpConfig, Fq377Config, Fq381Config, Fr377Config, Fr381Config};

/// Runs every op for `iters` feedback iterations on 2 warps and compares
/// all 64 lanes against the host field.
fn validate<C: FpConfig<N>, const N: usize>(seed: u64) {
    let field = Field32::of::<C, N>();
    let warps = 2;
    let iters = 3;
    let mut rng = StdRng::seed_from_u64(seed);

    // Host-side random elements; raw reprs go to the GPU.
    let xs: Vec<Fp<C, N>> = (0..warps * 32).map(|_| Fp::random(&mut rng)).collect();
    let ys: Vec<Fp<C, N>> = (0..warps * 32).map(|_| Fp::random(&mut rng)).collect();
    let inputs = FfInputs {
        a: xs
            .iter()
            .map(|x| gpu_kernels::split_limbs(x.montgomery_repr().limbs()))
            .collect(),
        b: ys
            .iter()
            .map(|y| gpu_kernels::split_limbs(y.montgomery_repr().limbs()))
            .collect(),
    };

    for op in FfOp::all() {
        let report = run_ff_op(&field, op, &SmspConfig::default(), &inputs, warps, iters);
        for (t, (x, y)) in xs.iter().zip(&ys).enumerate() {
            // Replicate the kernel's feedback loop on the host.
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
            let expect = gpu_kernels::split_limbs(acc.montgomery_repr().limbs());
            assert_eq!(
                report.outputs[t],
                expect,
                "{} {} lane {t} diverged from host",
                field.name,
                op.name()
            );
        }
    }
}

#[test]
fn fr381_kernels_match_host() {
    validate::<Fr381Config, 4>(1);
}

#[test]
fn fq381_kernels_match_host() {
    validate::<Fq381Config, 6>(2);
}

#[test]
fn fr377_kernels_match_host() {
    validate::<Fr377Config, 4>(3);
}

#[test]
fn fq377_kernels_match_host() {
    validate::<Fq377Config, 6>(4);
}

#[test]
fn edge_values_survive() {
    // 0, 1, p-1 in every slot combination for add/sub/mul.
    let field = Field32::of::<Fr381Config, 4>();
    type F = zkp_ff::Fr381;
    let zero = F::zero();
    let one = F::one();
    let minus_one = -F::one();
    let cases = [zero, one, minus_one];
    // Build 64 lanes cycling through the 9 combinations.
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for t in 0..64 {
        xs.push(cases[t % 3]);
        ys.push(cases[(t / 3) % 3]);
    }
    let inputs = FfInputs {
        a: xs
            .iter()
            .map(|x| gpu_kernels::split_limbs(x.montgomery_repr().limbs()))
            .collect(),
        b: ys
            .iter()
            .map(|y| gpu_kernels::split_limbs(y.montgomery_repr().limbs()))
            .collect(),
    };
    for op in [FfOp::Add, FfOp::Sub, FfOp::Mul, FfOp::Dbl, FfOp::Sqr] {
        let report = run_ff_op(&field, op, &SmspConfig::default(), &inputs, 2, 1);
        for (t, (x, y)) in xs.iter().zip(&ys).enumerate() {
            let expect = match op {
                FfOp::Add => *x + *y,
                FfOp::Sub => *x - *y,
                FfOp::Dbl => x.double(),
                FfOp::Mul => *x * *y,
                FfOp::Sqr => x.square(),
            };
            assert_eq!(
                report.outputs[t],
                gpu_kernels::split_limbs(expect.montgomery_repr().limbs()),
                "{} edge lane {t}",
                op.name()
            );
        }
    }
}

/// The emitters' aliasing contract (see `ffprogs`): `out` may alias either
/// operand and the operands each other. One kernel per field drives every
/// emitter through the patterns the curve kernels use — `out == x`,
/// `out == y`, `x == y`, all distinct — reloading the operands before
/// each case and storing each result as one element of the output region.
fn aliasing<C: FpConfig<N>, const N: usize>(seed: u64) {
    use gpu_kernels::catalog::{launch, Kernel, Layout, Region};
    use gpu_kernels::ffprogs::{regs, FfEmitter, LIMB_STRIDE_WORDS};

    // (out, x, y) over the banks X, Y and a third bank Z.
    let (bx, by, bz) = (regs::A0, regs::B0, 48);
    let patterns = [
        ("out==x", bx, bx, by),
        ("out==y", by, bx, by),
        ("x==y", bz, bx, bx),
        ("distinct", bz, bx, by),
    ];

    let field = Field32::of::<C, N>();
    let words = field.num_limbs() as u32 * LIMB_STRIDE_WORDS;
    let mut e = FfEmitter::new(&field, regs::SCRATCH);
    let mut cases = Vec::new();
    // `Sqr` is `Mul` under `x == y`; `Dbl` ignores `y`.
    for op in [FfOp::Add, FfOp::Sub, FfOp::Mul, FfOp::Dbl] {
        for (pattern, out, x, y) in patterns {
            e.load(bx, regs::ADDR_A, 0, LIMB_STRIDE_WORDS);
            e.load(by, regs::ADDR_B, 0, LIMB_STRIDE_WORDS);
            match op {
                FfOp::Add => e.add(out, x, y),
                FfOp::Sub => e.sub(out, x, y),
                FfOp::Mul => e.mul(out, x, y, None),
                FfOp::Dbl | FfOp::Sqr => e.dbl(out, x),
            }
            let at = cases.len() as u32 * words;
            e.store(out, regs::ADDR_OUT, at, LIMB_STRIDE_WORDS);
            cases.push((op, pattern, x == y));
        }
    }
    e.b.exit();
    let (program, facts) = e.finish();
    let kernel = Kernel {
        name: "aliasing",
        field: field.clone(),
        program,
        facts,
        regions: vec![
            Region::input(regs::ADDR_A, 1),
            Region::input(regs::ADDR_B, 1),
            Region::output(regs::ADDR_OUT, cases.len()),
        ],
        layout: Layout::Interleaved,
    };

    let mut rng = StdRng::seed_from_u64(seed);
    let edge = [Fp::<C, N>::zero(), Fp::one(), -Fp::<C, N>::one()];
    let xs: Vec<Fp<C, N>> = (0..32)
        .map(|t| {
            edge.get(t % 8)
                .copied()
                .unwrap_or_else(|| Fp::random(&mut rng))
        })
        .collect();
    let ys: Vec<Fp<C, N>> = (0..32)
        .map(|t| {
            edge.get(t / 8)
                .copied()
                .unwrap_or_else(|| Fp::random(&mut rng))
        })
        .collect();
    let limbs = |v: &Fp<C, N>| gpu_kernels::split_limbs(v.montgomery_repr().limbs());
    let operands = [
        xs.iter().map(limbs).collect::<Vec<_>>(),
        ys.iter().map(limbs).collect(),
        Vec::new(),
    ];
    let run = launch(
        &kernel,
        &kernel.program,
        &SmspConfig::default(),
        1,
        &operands,
    );

    let n = field.num_limbs();
    for (t, (x, y)) in xs.iter().zip(&ys).enumerate() {
        for (c, (op, pattern, squared)) in cases.iter().enumerate() {
            let y = if *squared { x } else { y };
            let expect = match op {
                FfOp::Add => *x + *y,
                FfOp::Sub => *x - *y,
                FfOp::Mul => *x * *y,
                FfOp::Dbl | FfOp::Sqr => x.double(),
            };
            assert_eq!(
                run.regions[2][t][c * n..(c + 1) * n],
                limbs(&expect),
                "{} {} {pattern} lane {t}",
                field.name,
                op.name()
            );
        }
    }
}

#[test]
fn emitters_honour_the_aliasing_contract_on_every_field() {
    aliasing::<Fr381Config, 4>(11);
    aliasing::<Fq381Config, 6>(12);
    aliasing::<Fr377Config, 4>(13);
    aliasing::<Fq377Config, 6>(14);
}
