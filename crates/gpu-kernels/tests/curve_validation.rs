//! Functional validation of the curve-operation kernels: the simulated GPU
//! must compute exactly what the host curve arithmetic computes — and the
//! simulated-side ladder: a curve kernel is Table V's op counts times the
//! FF emitter bodies the microbenchmarks measure, in instructions exactly
//! and in cycles to a stated residual.

use gpu_kernels::catalog::{kernels_over, launch, random_operands};
use gpu_kernels::curveprogs::{butterfly_kernel, xyzz_madd_kernel};
use gpu_kernels::ffprogs::{regs, FfEmitter};
use gpu_kernels::{run_ff_op, split_limbs, FfInputs, FfOp, Field32};
use gpu_sim::machine::SmspConfig;
use rand::{rngs::StdRng, SeedableRng};
use zkp_curves::bls12_381::G1;
use zkp_curves::{Affine, Jacobian, SwCurve, Xyzz};
use zkp_ff::{Field, Fp, FpConfig, Fq381Config, Fr381, Fr381Config, PrimeField};

fn random_point(seed: u64) -> Affine<G1> {
    let mut rng = StdRng::seed_from_u64(seed);
    Jacobian::from(G1::generator())
        .mul_scalar(&Fr381::random(&mut rng))
        .to_affine()
}

/// The concatenated Montgomery limbs of `coords`, as one lane's operand.
fn lane<C: FpConfig<N>, const N: usize>(coords: &[Fp<C, N>]) -> Vec<u32> {
    coords
        .iter()
        .flat_map(|c| split_limbs(c.montgomery_repr().limbs()))
        .collect()
}

#[test]
fn xyzz_madd_kernel_matches_host_curve() {
    let kernel = xyzz_madd_kernel(&Field32::of::<Fq381Config, 6>());

    // 32 lanes, each with its own (bucket, point) pair.
    let buckets: Vec<Xyzz<G1>> = (0..32)
        .map(|i| Xyzz::from(random_point(i)).double())
        .collect();
    let points: Vec<Affine<G1>> = (0..32).map(|i| random_point(100 + i)).collect();
    let operands = [
        buckets
            .iter()
            .map(|b| lane(&[b.x, b.y, b.zz, b.zzz]))
            .collect::<Vec<_>>(),
        points.iter().map(|p| lane(&[p.x, p.y])).collect(),
    ];

    let run = launch(
        &kernel,
        &kernel.program,
        &SmspConfig::default(),
        1,
        &operands,
    );
    assert!(run.sim.instructions > 1000, "kernel should be substantial");

    for (t, (bucket, point)) in buckets.iter().zip(&points).enumerate() {
        let expect = bucket.add_affine(point);
        assert_eq!(
            run.regions[0][t],
            lane(&[expect.x, expect.y, expect.zz, expect.zzz]),
            "lane {t}"
        );
    }
}

#[test]
fn butterfly_kernel_matches_host_ntt_step() {
    let kernel = butterfly_kernel(&Field32::of::<Fr381Config, 4>());

    let mut rng = StdRng::seed_from_u64(5);
    let a: Vec<Fr381> = (0..32).map(|_| Fr381::random(&mut rng)).collect();
    let b: Vec<Fr381> = (0..32).map(|_| Fr381::random(&mut rng)).collect();
    let w = Fr381::root_of_unity(1 << 16).expect("two-adic");
    let operands = [
        a.iter().map(|x| lane(&[*x])).collect::<Vec<_>>(),
        b.iter().map(|x| lane(&[*x])).collect(),
        vec![lane(&[w]); 32],
    ];

    let run = launch(
        &kernel,
        &kernel.program,
        &SmspConfig::default(),
        1,
        &operands,
    );

    for t in 0..32 {
        let tw = b[t] * w;
        assert_eq!(run.regions[0][t], lane(&[a[t] + tw]), "lane {t} lo");
        assert_eq!(run.regions[1][t], lane(&[a[t] - tw]), "lane {t} hi");
    }
}

/// Instructions one emitter call adds to an empty program.
fn body_len(field: &Field32, emit: impl FnOnce(&mut FfEmitter)) -> usize {
    let mut e = FfEmitter::new(field, regs::SCRATCH);
    emit(&mut e);
    e.b.next_pc()
}

/// The instruction rung: a curve kernel is exactly its loads and stores,
/// its `EXIT`, and Table V's op counts (`curves.g1_madd_ffmul` 10 and
/// `curves.g1_madd_ffadd` 7 = 6 sub + 1 dbl in zkbench's host count) times
/// the emitter bodies — on every field.
#[test]
fn kernel_lengths_are_the_sum_of_their_emitter_bodies() {
    let (a, b) = (regs::A0, regs::B0);
    for field in Field32::supported() {
        let n = field.num_limbs();
        let add = body_len(&field, |e| e.add(a, a, b));
        let sub = body_len(&field, |e| e.sub(a, a, b));
        let dbl = body_len(&field, |e| e.dbl(a, a));
        let mul = body_len(&field, |e| e.mul(a, a, b, None));
        let zoo = kernels_over(&field, &field);
        let len = |name: &str| {
            let k = zoo.iter().find(|k| k.name == name).expect("in the zoo");
            k.program.len()
        };
        // 6 element loads + 4 stores; `T1 = 2Q` doubles out of place, which
        // costs the copy.
        assert_eq!(
            len("XYZZ madd"),
            10 * mul + 6 * sub + (dbl + n) + 10 * n + 1,
            "{}",
            field.name
        );
        // 3 element loads + 2 stores.
        assert_eq!(
            len("NTT butterfly"),
            mul + sub + add + 5 * n + 1,
            "{}",
            field.name
        );
    }
}

/// The cycle rung (Table V × Table IV): one warp of the XYZZ madd costs
/// what ten `FF_mul`, six `FF_sub` and one `FF_dbl` cost in the looped
/// microbenchmarks, to within 5%.
#[test]
fn madd_kernel_cycles_track_table_v_cost() {
    let field = Field32::of::<Fq381Config, 6>();
    let config = SmspConfig::default();

    // Per-iteration cost of a microbenchmark: the slope between two trip
    // counts, which cancels its loads and stores.
    let (short, long) = (2u32, 10u32);
    let inputs = FfInputs::random(&field, 1, 7);
    let per_op = |op: FfOp| {
        let cycles = |iters| run_ff_op(&field, op, &config, &inputs, 1, iters).sim.cycles;
        (cycles(long) - cycles(short)) as f64 / f64::from(long - short)
    };
    let model = 10.0 * per_op(FfOp::Mul) + 6.0 * per_op(FfOp::Sub) + per_op(FfOp::Dbl);

    let kernel = xyzz_madd_kernel(&field);
    let operands = random_operands(&kernel, 1, 7);
    let simulated = launch(&kernel, &kernel.program, &config, 1, &operands)
        .sim
        .cycles as f64;
    let residual = (simulated - model) / simulated;
    eprintln!("XYZZ madd ladder: simulated {simulated}, model {model:.0}, residual {residual:+.3}");
    assert!(
        residual.abs() <= 0.05,
        "XYZZ madd: simulated {simulated} vs 10·mul + 6·sub + dbl = {model:.0} \
         (residual {residual:+.3})"
    );
}
