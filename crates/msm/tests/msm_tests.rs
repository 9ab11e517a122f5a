//! MSM correctness across configurations, curves, and the precompute path.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use zkp_curves::{bls12_377, bls12_381, Affine, Jacobian, SwCurve};
use zkp_ff::{Field, PrimeField};
use zkp_msm::{
    msm, msm_parallel, msm_serial, msm_shape, msm_with_config, precompute_cost, MsmConfig, MsmPlan,
    PrecomputedPoints,
};

fn random_inputs<Cu: SwCurve>(n: usize, seed: u64) -> (Vec<Affine<Cu>>, Vec<Cu::Scalar>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = Jacobian::from(Cu::generator());
    let points = (0..n)
        .map(|_| g.mul_scalar(&Cu::Scalar::random(&mut rng)).to_affine())
        .collect();
    let scalars = (0..n).map(|_| Cu::Scalar::random(&mut rng)).collect();
    (points, scalars)
}

fn all_configs() -> Vec<MsmConfig> {
    let mut configs = vec![
        MsmConfig::default(),
        MsmConfig::sppark_style(),
        MsmConfig::ymc_style(),
        MsmConfig::bellperson_style(),
        MsmConfig::glv_style(),
    ];
    for bits in [3, 5, 8, 13] {
        for signed in [false, true] {
            for endomorphism in [false, true] {
                configs.push(MsmConfig {
                    window_bits: Some(bits),
                    signed_digits: signed,
                    endomorphism,
                });
            }
        }
    }
    configs
}

#[test]
fn every_config_matches_serial_381() {
    let (points, scalars) = random_inputs::<bls12_381::G1>(50, 7);
    let expect = msm_serial(&points, &scalars);
    for config in all_configs() {
        let got = msm_with_config(&points, &scalars, &config).point;
        assert_eq!(got, expect, "config diverged: {config:?}");
    }
}

#[test]
fn every_config_matches_serial_377() {
    let (points, scalars) = random_inputs::<bls12_377::G1>(50, 8);
    let expect = msm_serial(&points, &scalars);
    for config in all_configs() {
        let got = msm_with_config(&points, &scalars, &config).point;
        assert_eq!(got, expect, "config diverged: {config:?}");
    }
}

#[test]
fn g2_msm_matches_serial() {
    // The Groth16 prover also runs a (smaller) G2 MSM (§II-A).
    let (points, scalars) = random_inputs::<bls12_381::G2>(20, 9);
    assert_eq!(msm(&points, &scalars), msm_serial(&points, &scalars));
}

#[test]
fn parallel_matches_sequential() {
    let (points, scalars) = random_inputs::<bls12_381::G1>(97, 10);
    let expect = msm(&points, &scalars);
    for threads in [1, 2, 3, 8, 200] {
        let got = msm_parallel(&points, &scalars, &MsmConfig::default(), threads);
        assert_eq!(got, expect, "threads={threads}");
    }
}

/// Degenerate inputs through the single front door: every case × {one-shot,
/// planned with budgets `None` / `Some(0)`} × GLV must equal the
/// double-and-add reference.
#[test]
fn empty_and_degenerate_inputs() {
    type G1 = bls12_381::G1;
    type Fr = zkp_ff::Fr381;
    let (pts, ks) = random_inputs::<G1>(13, 11);
    let inf = Affine::<G1>::identity();
    type Case = (&'static str, Vec<Affine<G1>>, Vec<Fr>);
    let cases: Vec<Case> = vec![
        ("empty", vec![], vec![]),
        ("length 1", pts[..1].to_vec(), ks[..1].to_vec()),
        ("length 3", pts[..3].to_vec(), ks[..3].to_vec()),
        ("length 13", pts.clone(), ks.clone()),
        ("all-zero scalars", pts.clone(), vec![Fr::zero(); 13]),
        ("r-1 scalars", pts.clone(), vec![-Fr::one(); 13]),
        (
            "(P, -P) with equal scalars",
            vec![pts[0], pts[0].neg(), pts[1]],
            vec![ks[0], ks[0], ks[1]],
        ),
        (
            "(P, P) with equal scalars",
            vec![pts[0], pts[0], pts[1]],
            vec![ks[0], ks[0], ks[1]],
        ),
        ("all-infinity bases", vec![inf; 5], ks[..5].to_vec()),
        (
            "infinity among bases",
            vec![pts[0], inf, pts[2]],
            ks[..3].to_vec(),
        ),
    ];
    let pool = zkp_runtime::ThreadPool::with_threads(2);
    for (name, points, scalars) in &cases {
        let expect = msm_serial(points, scalars);
        for glv in [false, true] {
            let config = MsmConfig {
                signed_digits: glv,
                endomorphism: glv,
                ..MsmConfig::default()
            };
            let what = format!("{name}: {config:?}");
            let one_shot = msm_with_config(points, scalars, &config);
            assert_eq!(one_shot.point, expect, "{what} one-shot");
            for budget in [None, Some(0)] {
                let plan = MsmPlan::build(points, &config, budget, &pool);
                let planned = plan.execute(scalars, &pool);
                assert_eq!(planned.point, expect, "{what} budget {budget:?}");
            }
        }
    }
}

/// An out-of-range window size is rejected where the run is laid out,
/// instead of dividing by zero (0), masking every digit to zero and
/// returning the identity in release (64), or overflowing the `i32` digit
/// (signed 32).
fn msm_with_window_bits(window_bits: u32, signed_digits: bool) {
    let (points, scalars) = random_inputs::<bls12_381::G1>(4, 3);
    let config = MsmConfig {
        window_bits: Some(window_bits),
        signed_digits,
        ..MsmConfig::default()
    };
    msm_with_config(&points, &scalars, &config);
}

#[test]
#[should_panic(expected = "window bits must be in 1..=20, got 0")]
fn zero_window_bits_are_rejected() {
    msm_with_window_bits(0, false);
}

#[test]
#[should_panic(expected = "window bits must be in 1..=20, got 64")]
fn word_wide_window_bits_are_rejected() {
    msm_with_window_bits(64, false);
}

#[test]
#[should_panic(expected = "window bits must be in 1..=20, got 32")]
fn digit_overflowing_signed_window_bits_are_rejected() {
    msm_with_window_bits(32, true);
}

#[test]
fn single_pair_is_scalar_mul() {
    let (points, scalars) = random_inputs::<bls12_381::G1>(1, 12);
    assert_eq!(msm(&points, &scalars), points[0].mul_scalar(&scalars[0]));
}

#[test]
fn handles_extreme_scalars() {
    let g = bls12_381::G1::generator();
    let minus_one = -zkp_ff::Fr381::one();
    let points = vec![g, g, g];
    let scalars = vec![zkp_ff::Fr381::one(), minus_one, zkp_ff::Fr381::from_u64(5)];
    // 1 - 1 + 5 = 5
    let expect = Jacobian::from(g).mul_limbs(&[5]);
    for config in all_configs() {
        assert_eq!(
            msm_with_config(&points, &scalars, &config).point,
            expect,
            "config: {config:?}"
        );
    }
}

#[test]
fn stats_reflect_structure() {
    let (points, scalars) = random_inputs::<bls12_381::G1>(64, 13);
    let config = MsmConfig {
        window_bits: Some(4),
        ..MsmConfig::default()
    };
    let out = msm_with_config(&points, &scalars, &config);
    let w = zkp_ff::Fr381::modulus_bits().div_ceil(4);
    assert_eq!(out.stats.windows, w);
    assert_eq!(out.stats.buckets_per_window, 15);
    // Sum-of-sums: 2 PADDs per bucket per window.
    assert_eq!(out.stats.reduction_padds, u64::from(w) * 15 * 2);
    // Window reduction: s doublings + 1 add per window.
    assert_eq!(out.stats.window_pdbls, u64::from(w) * 4);
    assert_eq!(out.stats.window_padds, u64::from(w));
    // Accumulation: at most one PADD per (point, window).
    assert!(out.stats.accumulation_padds <= 64 * u64::from(w));

    // Signed digits halve the buckets.
    let signed = msm_with_config(
        &points,
        &scalars,
        &MsmConfig {
            window_bits: Some(4),
            signed_digits: true,
            ..MsmConfig::default()
        },
    );
    assert_eq!(signed.stats.buckets_per_window, 8);
}

#[test]
fn glv_stats_reflect_decomposition() {
    let (points, scalars) = random_inputs::<bls12_381::G1>(64, 21);
    let out = msm_with_config(&points, &scalars, &MsmConfig::glv_style());
    assert_eq!(out.stats.glv_decompositions, 64);
    assert_eq!(out.stats.endomorphism_muls, 64);
    // Half-width subscalars need roughly half the windows of the plain
    // signed path at the same window size.
    let s = msm_shape::<bls12_381::G1>(64, &MsmConfig::glv_style(), Some(0)).window_bits;
    assert_eq!(out.stats.buckets_per_window, 1 << (s - 1));
    let plain_w = zkp_msm::num_windows::<zkp_ff::Fr381>(s, true);
    assert!(out.stats.windows <= plain_w.div_ceil(2) + 1);

    // The plain path reports no GLV work.
    let plain = msm_with_config(&points, &scalars, &MsmConfig::default());
    assert_eq!(plain.stats.glv_decompositions, 0);
    assert_eq!(plain.stats.endomorphism_muls, 0);
}

/// G2 splits 4 ways on `ψ`: 64-bit base-`|x|` digits, a quarter of the
/// windows, three images per base at two `Fq2` multiplications each.
fn assert_g2_splits<Cu: SwCurve>(seed: u64) {
    const N: usize = 16;
    let (points, scalars) = random_inputs::<Cu>(N, seed);
    let config = MsmConfig::glv_style();
    let out = msm_with_config(&points, &scalars, &config);
    assert_eq!(out.point, msm_serial(&points, &scalars));
    assert_eq!(out.stats.glv_decompositions, N as u64);
    assert_eq!(out.stats.endomorphism_muls, 3 * 2 * N as u64);
    let s = msm_shape::<Cu>(N, &config, Some(0)).window_bits;
    assert_eq!(out.stats.windows, 65u32.div_ceil(s));
    let plain_w = zkp_msm::num_windows::<Cu::Scalar>(s, true);
    assert!(out.stats.windows <= plain_w.div_ceil(4) + 1);
}

#[test]
fn endomorphism_config_splits_on_g2() {
    assert_g2_splits::<bls12_381::G2>(22);
    assert_g2_splits::<bls12_377::G2>(24);
}

/// A curve without GLV parameters (the trait default): G1's equation and
/// generator under a marker type of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
struct PlainG1;

impl SwCurve for PlainG1 {
    type Base = <bls12_381::G1 as SwCurve>::Base;
    type Scalar = zkp_ff::Fr381;
    fn b() -> Self::Base {
        bls12_381::G1::b()
    }
    fn generator() -> Affine<Self> {
        let g = bls12_381::G1::generator();
        Affine::new(g.x, g.y).expect("same curve equation")
    }
    const NAME: &'static str = "G1 without GLV";
}

#[test]
fn endomorphism_config_falls_back_without_glv_params() {
    // No GLV parameters: the flag must be a silent no-op.
    let (points, scalars) = random_inputs::<PlainG1>(16, 25);
    let out = msm_with_config(&points, &scalars, &MsmConfig::glv_style());
    assert_eq!(out.point, msm_serial(&points, &scalars));
    assert_eq!(out.stats.glv_decompositions, 0);
    assert_eq!(out.stats.endomorphism_muls, 0);
    assert_eq!(
        out.stats,
        msm_with_config(&points, &scalars, &MsmConfig::ymc_style()).stats
    );
}

/// Bases at infinity have no table rows: at random positions, all of
/// them, or mixed with zero scalars, one-shot and planned runs equal the
/// double-and-add reference on G1 (`φ`) and G2 (`ψ`), and a plan's
/// `len()` still counts the caller's whole base set.
fn assert_infinity_rows_are_dropped<Cu: SwCurve>(seed: u64) {
    const N: usize = 23;
    let (points, scalars) = random_inputs::<Cu>(N, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let inf = Affine::<Cu>::identity();
    let holes: Vec<Affine<Cu>> = points
        .iter()
        .map(|p| if rng.gen::<bool>() { inf } else { *p })
        .collect();
    let zeroed: Vec<Cu::Scalar> = scalars
        .iter()
        .map(|k| {
            if rng.gen::<bool>() {
                Cu::Scalar::zero()
            } else {
                *k
            }
        })
        .collect();
    let mut ends = points.clone();
    (ends[0], ends[N - 1]) = (inf, inf);
    let cases = [
        ("random positions", holes.clone(), &scalars[..]),
        ("all at infinity", vec![inf; N], &scalars[..]),
        ("with zero scalars", holes, &zeroed[..]),
        ("first and last", ends, &scalars[..]),
    ];
    let pool = zkp_runtime::ThreadPool::with_threads(2);
    for (name, bases, scalars) in &cases {
        let finite = bases.iter().filter(|p| !p.is_identity()).count();
        let expect = msm_serial(bases, scalars);
        for config in [MsmConfig::glv_style(), MsmConfig::default()] {
            let what = format!("{} {name}: {config:?}", Cu::NAME);
            let one_shot = msm_with_config(bases, scalars, &config);
            assert_eq!(one_shot.point, expect, "{what} one-shot");
            if config.endomorphism {
                assert_eq!(one_shot.stats.glv_decompositions, finite as u64, "{what}");
            }
            for budget in [None, Some(0)] {
                let plan = MsmPlan::build(bases, &config, budget, &pool);
                assert_eq!(
                    plan.execute(scalars, &pool).point,
                    expect,
                    "{what} {budget:?}"
                );
                assert_eq!(plan.len(), N, "{what}");
                // The table holds finite rows only, as many per finite base.
                assert!(plan.table().iter().all(|p| !p.is_identity()), "{what}");
                assert_eq!(plan.stored_points() == 0, finite == 0, "{what}");
                assert_eq!(plan.stored_points() % finite.max(1), 0, "{what}");
            }
        }
    }
}

#[test]
fn infinity_rows_are_dropped_on_g1_and_g2() {
    assert_infinity_rows_are_dropped::<bls12_381::G1>(26);
    assert_infinity_rows_are_dropped::<bls12_381::G2>(27);
    assert_infinity_rows_are_dropped::<bls12_377::G2>(28);
}

#[test]
fn precomputed_msm_matches_plain() {
    let (points, scalars) = random_inputs::<bls12_381::G1>(40, 14);
    let expect = msm(&points, &scalars);
    for target_windows in [1u32, 2, 4, 7, 64] {
        let table = PrecomputedPoints::build(&points, 8, target_windows);
        let got = table.msm(&scalars);
        assert_eq!(got.point, expect, "target_windows={target_windows}");
        // Storage grows as copies shrink the window count.
        let w = zkp_ff::Fr381::modulus_bits().div_ceil(8);
        assert_eq!(
            table.stored_points(),
            40 * (w.div_ceil(target_windows.min(w)) as usize)
        );
    }
}

#[test]
fn precompute_cost_model_matches_paper_example() {
    // §IV-D1a: c = 23, 253-bit scalars -> w = 11 windows; each window's
    // Sum-of-Sums needs 2·2^23 ≈ 16.7M PADDs.
    let cost = precompute_cost(1 << 26, 253, 23, 11, 10, 48);
    assert_eq!(cost.windows, 11);
    let padds_per_window = 2u64 * (1 << 23);
    assert!((16_000_000..17_000_000).contains(&padds_per_window));
    assert_eq!(cost.bucket_reduction_ff_muls, 11 * padds_per_window * 10);
    // Full table (w = 1): 11 copies of 2^26 points.
    let full = precompute_cost(1 << 26, 253, 23, 1, 10, 48);
    assert_eq!(full.stored_points, 11 << 26);
    // Baseline storage (one copy of the points in Affine form) is 6 GiB
    // for 2^26 points with 48-byte coordinates.
    let base = precompute_cost(1 << 26, 253, 23, 11, 10, 48);
    assert_eq!(base.storage_bytes, (1u64 << 26) * 96);
    assert_eq!(base.storage_bytes, 6 << 30);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn msm_linear_in_scalars(seed in any::<u64>(), n in 2usize..24) {
        let (points, s1) = random_inputs::<bls12_381::G1>(n, seed);
        let (_, s2) = random_inputs::<bls12_381::G1>(n, seed.wrapping_add(1));
        let sum: Vec<_> = s1.iter().zip(&s2).map(|(a, b)| *a + *b).collect();
        let lhs = msm(&points, &sum);
        let rhs = msm(&points, &s1).add(&msm(&points, &s2));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn decomposed_matches_plain_381(seed in any::<u64>(), n in 1usize..40) {
        let (points, scalars) = random_inputs::<bls12_381::G1>(n, seed);
        let plain = msm_with_config(&points, &scalars, &MsmConfig::default()).point;
        let glv = msm_with_config(&points, &scalars, &MsmConfig::glv_style()).point;
        prop_assert_eq!(plain, glv);
    }

    #[test]
    fn decomposed_matches_plain_377(seed in any::<u64>(), n in 1usize..40) {
        let (points, scalars) = random_inputs::<bls12_377::G1>(n, seed);
        let plain = msm_with_config(&points, &scalars, &MsmConfig::default()).point;
        let glv = msm_with_config(&points, &scalars, &MsmConfig::glv_style()).point;
        prop_assert_eq!(plain, glv);
    }

    #[test]
    fn window_default_is_sane(n in 1usize..5_000_000, signed in any::<bool>(), glv in any::<bool>()) {
        let config = MsmConfig { signed_digits: signed, endomorphism: glv, ..MsmConfig::default() };
        for budget in [Some(0), None] {
            let w = msm_shape::<bls12_381::G1>(n, &config, budget).window_bits;
            prop_assert!((3..=16).contains(&w));
        }
    }
}
