//! MsmPlan correctness: the cached GLV + precompute path must compute the
//! same group element as every other MSM path, stay bit-identical across
//! thread counts, respect its memory budget, run at the window the cost
//! model picks for the folded table, and deliver the ≥30% point-addition
//! saving the plan exists for.

use rand::{rngs::StdRng, SeedableRng};
use zkp_curves::{batch_to_affine, bls12_377, bls12_381, Affine, Jacobian, SwCurve};
use zkp_ff::Field;
use zkp_msm::{
    msm_parallel_with_config, msm_serial, msm_shape, num_windows, MsmConfig, MsmOutput, MsmPlan,
    MsmShape,
};
use zkp_runtime::ThreadPool;

fn random_inputs<Cu: SwCurve>(n: usize, seed: u64) -> (Vec<Affine<Cu>>, Vec<Cu::Scalar>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = Jacobian::from(Cu::generator());
    let points = (0..n)
        .map(|_| g.mul_scalar(&Cu::Scalar::random(&mut rng)).to_affine())
        .collect();
    let scalars = (0..n).map(|_| Cu::Scalar::random(&mut rng)).collect();
    (points, scalars)
}

/// `n` distinct points as `G, 2G, 3G, …` — one PADD each instead of a full
/// scalar multiplication, so large-`n` tests stay cheap.
fn incremental_points<Cu: SwCurve>(n: usize) -> Vec<Affine<Cu>> {
    let g = Jacobian::from(Cu::generator());
    let mut acc = g;
    let mut jac = Vec::with_capacity(n);
    for _ in 0..n {
        jac.push(acc);
        acc = acc.add(&g);
    }
    batch_to_affine(&jac)
}

fn plan_configs() -> Vec<MsmConfig> {
    vec![
        MsmConfig::default(),
        MsmConfig::glv_style(),
        MsmConfig {
            window_bits: Some(5),
            ..MsmConfig::glv_style()
        },
        MsmConfig {
            window_bits: Some(7),
            signed_digits: true,
            endomorphism: false,
        },
    ]
}

#[test]
fn plan_matches_plain_msm_381() {
    let (points, scalars) = random_inputs::<bls12_381::G1>(53, 31);
    let pool = ThreadPool::with_threads(4);
    let expect = msm_serial(&points, &scalars);
    for config in plan_configs() {
        for budget in [None, Some(0), Some(1 << 14), Some(u64::MAX)] {
            let plan = MsmPlan::build(&points, &config, budget, &pool);
            let got = plan.execute(&scalars, &pool);
            assert_eq!(got.point, expect, "config {config:?} budget {budget:?}");
            if let Some(b) = budget {
                // Zero/small budgets degrade to a single copy, never over.
                assert!(
                    plan.stored_points() == points.len()
                        || plan.stored_points() == 2 * points.len()
                        || plan.storage_bytes() <= b,
                    "budget exceeded: {} > {b}",
                    plan.storage_bytes()
                );
            }
        }
    }
}

#[test]
fn plan_matches_plain_msm_377() {
    let (points, scalars) = random_inputs::<bls12_377::G1>(41, 32);
    let pool = ThreadPool::with_threads(4);
    let expect = msm_serial(&points, &scalars);
    for config in [MsmConfig::glv_style(), MsmConfig::default()] {
        let plan = MsmPlan::build(&points, &config, None, &pool);
        assert_eq!(plan.execute(&scalars, &pool).point, expect);
    }
}

#[test]
fn plan_reuses_across_scalar_sets() {
    // The whole point of the cache: one build, many proofs.
    let (points, _) = random_inputs::<bls12_381::G1>(48, 33);
    let pool = ThreadPool::with_threads(4);
    let plan = MsmPlan::build(&points, &MsmConfig::glv_style(), None, &pool);
    for seed in 40..44 {
        let (_, scalars) = random_inputs::<bls12_381::G1>(48, seed);
        assert_eq!(
            plan.execute(&scalars, &pool).point,
            msm_serial(&points, &scalars),
            "seed {seed}"
        );
    }
}

#[test]
fn plan_is_bit_identical_across_thread_counts() {
    let (points, scalars) = random_inputs::<bls12_381::G1>(200, 34);
    let build_pool = ThreadPool::with_threads(3);
    let plan = MsmPlan::build(&points, &MsmConfig::glv_style(), None, &build_pool);
    let reference = plan.execute(&scalars, &ThreadPool::with_threads(1));
    for threads in [2usize, 3, 8] {
        let out = plan.execute(&scalars, &ThreadPool::with_threads(threads));
        assert_eq!(out.point.x, reference.point.x, "{threads} threads");
        assert_eq!(out.point.y, reference.point.y, "{threads} threads");
        assert_eq!(out.point.z, reference.point.z, "{threads} threads");
        assert_eq!(out.stats, reference.stats, "{threads} threads");
    }
}

/// Same coordinates (not merely the same group element) and same stats.
fn assert_same_run<Cu: SwCurve>(a: &MsmOutput<Cu>, b: &MsmOutput<Cu>, what: &str) {
    assert_eq!(a.point.x, b.point.x, "{what}");
    assert_eq!(a.point.y, b.point.y, "{what}");
    assert_eq!(a.point.z, b.point.z, "{what}");
    assert_eq!(a.stats, b.stats, "{what}");
}

/// A one-shot MSM *is* a plan run over a borrowed single-copy table: the
/// zero-budget plan reproduces its point bit for bit and its stats exactly,
/// except that the plan paid `φ` at build time.
#[test]
fn one_shot_is_the_zero_budget_plan() {
    let (points, scalars) = random_inputs::<bls12_381::G1>(150, 38);
    let pool = ThreadPool::with_threads(3);
    for config in plan_configs() {
        let mut one_shot = msm_parallel_with_config(&points, &scalars, &config, &pool);
        let planned = MsmPlan::build(&points, &config, Some(0), &pool).execute(&scalars, &pool);
        let glv = u64::from(config.endomorphism);
        assert_eq!(one_shot.stats.endomorphism_muls, 150 * glv, "{config:?}");
        one_shot.stats.endomorphism_muls = 0;
        assert_same_run(&planned, &one_shot, &format!("{config:?}"));
    }
}

/// Boundary test for the raw-pointer writes of the recoder and the engine:
/// row counts that are no multiple of the recoder's 128-row grain or of the
/// engine's sort blocks, and a table whose last copy is only partly used
/// (`w % W ≠ 0`), at every pool width. Debug builds also check each
/// computed digit cell against the matrix length.
#[test]
fn uneven_splits_stay_in_bounds_and_bit_identical() {
    const N: usize = 3 * 128 + 5;
    let points = incremental_points::<bls12_381::G1>(N);
    let mut rng = StdRng::seed_from_u64(39);
    let scalars: Vec<zkp_ff::Fr381> = (0..N).map(|_| zkp_ff::Fr381::random(&mut rng)).collect();
    let expect = msm_serial(&points, &scalars);
    let serial_pool = ThreadPool::with_threads(1);
    for config in [
        MsmConfig {
            window_bits: Some(5),
            ..MsmConfig::glv_style()
        },
        MsmConfig {
            window_bits: Some(3),
            ..MsmConfig::default()
        },
    ] {
        let rows = if config.endomorphism { 2 * N } else { N };
        // Room for 4 copies: the plan picks a W with ⌈w/W⌉ ≤ 4 (3 copies
        // of 9 windows for w = 26, and of 29 for w = 85).
        let budget = (4 * rows * core::mem::size_of::<Affine<bls12_381::G1>>()) as u64;
        let plan = MsmPlan::build(&points, &config, Some(budget), &serial_pool);
        let planned = plan.execute(&scalars, &serial_pool);
        let one_shot = msm_parallel_with_config(&points, &scalars, &config, &serial_pool);
        assert_eq!(planned.point, expect, "{config:?}");
        assert_eq!(one_shot.point, expect, "{config:?}");
        // The last copy is ragged: copies·W exceeds the w windows in use.
        let copies = (plan.stored_points() / rows) as u32;
        assert!(copies > 1 && copies * plan.target_windows() > one_shot.stats.windows);
        for threads in [2usize, 3, 8] {
            let pool = ThreadPool::with_threads(threads);
            let what = format!("{threads} threads, {config:?}");
            assert_same_run(&plan.execute(&scalars, &pool), &planned, &what);
            let rebuilt = MsmPlan::build(&points, &config, Some(budget), &pool);
            assert_same_run(&rebuilt.execute(&scalars, &pool), &planned, &what);
            let again = msm_parallel_with_config(&points, &scalars, &config, &pool);
            assert_same_run(&again, &one_shot, &what);
        }
    }
}

/// `FF_inv` in `FF_mul` units, as the cost model charges it.
const INV: u64 = 41;

/// Every fold `(s, W)` a budget admits for one full-width window count
/// `w(s)` and copy size, priced by the cost model as `Layout::shape` states
/// it for `rows·w` nonzero digits spread evenly over the `W·buckets`
/// buckets of a run:
/// - the bucket sums: each occupied bucket's first point is free, so
///   `rows·w − min(rows·w, W·buckets)` affine additions (6 `FF_mul`); per
///   block of `2·1 024` digits, rounds that each add half the points left
///   but never below one per occupied bucket, one inversion per started
///   batch of 512;
/// - per reduced window its walk ([`reduction`]) and its sum's move to
///   Jacobian coordinates (8), and after the top window `s` doublings (7)
///   and one addition (16);
/// - every inversion at [`INV`];
/// - bookkeeping, in fifths of an `FF_mul`: 7 per digit in the share of
///   the table past 2 MiB (a gathered row that misses the cache) and 15
///   per bucket.
fn priced_folds(
    rows: u64,
    signed: bool,
    windows: impl Fn(u32) -> u32,
    copy_bytes: u64,
    budget: Option<u64>,
    sizes: impl IntoIterator<Item = u32>,
) -> Vec<MsmShape> {
    let mut folds = Vec::new();
    for s in sizes {
        let w = windows(s);
        let buckets = if signed { 1 << (s - 1) } else { (1 << s) - 1 };
        for big_w in 1..=w {
            let copies = w.div_ceil(big_w);
            if copies > 1 && budget.is_some_and(|b| copy_bytes * u64::from(copies) > b) {
                continue;
            }
            let (entries, windows) = (rows * u64::from(w), u64::from(big_w));
            let occupied = entries.min(windows * buckets);
            let blocks = entries.div_ceil(2048).max(1);
            let (mut left, floor) = (entries.div_ceil(blocks), occupied.div_ceil(blocks));
            let mut rounds = 0;
            while left > floor {
                let pairs = (left / 2).min(left - floor).max(1);
                rounds += pairs.div_ceil(512);
                left -= pairs;
            }
            let (walk_muls, walk_inversions) = reduction(buckets);
            let muls = (entries - occupied) * 6
                + windows * (walk_muls + 8)
                + (windows - 1) * (u64::from(s) * 7 + 16);
            let inversions = blocks * rounds + windows * walk_inversions;
            let bytes = copy_bytes * u64::from(copies);
            let misses = entries * bytes.saturating_sub(2 << 20) / bytes;
            folds.push(MsmShape {
                window_bits: s,
                target_windows: big_w,
                copies,
                cost: muls + inversions * INV + (misses * 7 + windows * buckets * 15) / 5,
                inversions,
            });
        }
    }
    folds
}

/// One window's walk as `Layout::shape` prices it, as `(FF_mul units,
/// inversions)`: the serial XYZZ sum-of-sums, a mixed addition (10) and
/// an addition (14) per bucket but the first, unless `K` segments cost
/// less. `K` is the power of two nearest `√(4·buckets·INV / 34)` (at most
/// `buckets/2` and 512), worth it only if a round of `K` additions repays
/// its inversion (`4·K ≥ INV`). Its `m = ⌈buckets/K⌉`-step walk takes
/// `2·buckets − 2K` affine additions (6) in `2m − 2` inverted rounds; its
/// tail `K − 2` mixed (10) and full (14) additions, `log₂ m` XYZZ
/// doublings (9) and `K` mixed additions (10).
fn reduction(buckets: u64) -> (u64, u64) {
    let serial = ((buckets - 1) * 24, 0);
    let mut k = 1;
    while 4 * k * k <= 4 * buckets * INV / 34 && 2 * k <= (buckets / 2).min(512) {
        k *= 2;
    }
    if 4 * k < INV {
        return serial;
    }
    let m = buckets.div_ceil(k);
    assert!(m.is_power_of_two(), "{buckets} buckets, {k} segments");
    let walk = (2 * buckets - 2 * k) * 6;
    let tail = (k - 2) * 24 + u64::from(m.trailing_zeros()) * 9 + k * 10;
    let segmented = (walk + tail, 2 * m - 2);
    let cost = |(muls, inversions): (u64, u64)| muls + inversions * INV;
    if cost(segmented) < cost(serial) {
        segmented
    } else {
        serial
    }
}

/// The picker's rule over `folds`: within 1% of the cheapest, and no fold
/// inside that band stores fewer copies.
fn assert_in_band(chosen: &MsmShape, folds: &[MsmShape], what: &str) {
    assert!(folds.contains(chosen), "{what}: {chosen:?} is not a fold");
    let cheapest = folds.iter().map(|f| f.cost).min().expect("folds");
    assert!(chosen.cost * 100 <= cheapest * 101, "{what}: {chosen:?}");
    let band = folds.iter().filter(|f| f.cost * 100 <= cheapest * 101);
    let fewest = band.map(|f| f.copies).min().expect("band");
    assert_eq!(chosen.copies, fewest, "{what}: {chosen:?}");
}

/// The one picker, held to the cost model by counts alone: at every
/// scale, digit encoding, GLV setting and budget the chosen `(s, W)` is a
/// fold that fits, costs at most 1% over the argmin of every fold that
/// fits, and no fold inside that band stores fewer copies. A pinned window
/// is never overridden and follows the same rule over its own folds.
#[test]
fn picker_is_the_argmin_of_the_cost_model() {
    type G1 = bls12_381::G1;
    let point_bytes = core::mem::size_of::<Affine<G1>>() as u64;
    for log_n in [8u32, 10, 12, 16] {
        let n = 1usize << log_n;
        for (signed, glv) in [(false, false), (false, true), (true, false), (true, true)] {
            let config = MsmConfig {
                signed_digits: signed,
                endomorphism: glv,
                ..MsmConfig::default()
            };
            let rows = (n as u64) * if glv { 2 } else { 1 };
            let copy_bytes = rows * point_bytes;
            let windows = |s: u32| {
                if glv {
                    let sub_bits = G1::endomorphism().expect("G1 has φ").sub_bits;
                    (sub_bits + u32::from(signed)).div_ceil(s)
                } else {
                    num_windows::<zkp_ff::Fr381>(s, signed)
                }
            };
            let what = format!("n = 2^{log_n}, signed {signed}, glv {glv}");
            let mut last_cost = 0;
            // Shrinking budgets: unbounded, four copies, the one-shot run.
            for budget in [None, Some(4 * copy_bytes), Some(0)] {
                let what = format!("{what}, budget {budget:?}");
                for s in 3..=16 {
                    let pinned = MsmConfig {
                        window_bits: Some(s),
                        ..config
                    };
                    let shape = msm_shape::<G1>(n, &pinned, budget);
                    assert_eq!(shape.window_bits, s, "{what}");
                    let own = priced_folds(rows, signed, windows, copy_bytes, budget, [s]);
                    assert_in_band(&shape, &own, &format!("{what}, s = {s}"));
                }
                let chosen = msm_shape::<G1>(n, &config, budget);
                let all = priced_folds(rows, signed, windows, copy_bytes, budget, 3..=16);
                assert_in_band(&chosen, &all, &what);
                // A smaller budget admits a subset of the folds, so its
                // pick costs at least the larger budget's argmin — at
                // least its pick less the 2% band.
                assert!(
                    chosen.cost * 102 >= last_cost * 100,
                    "{what}: a smaller budget got cheaper"
                );
                last_cost = chosen.cost;
            }
        }
    }

    // The shape is what runs: the prover's 1 026-base GLV plan folds every
    // window into one and so affords s = 12, where the one-shot rule sized
    // for 16 separate windows said 8. Its 2 052·11 digits fill 2 048
    // buckets, so 20 524 affine additions, in 12 blocks of rounds of 940,
    // 470, 235 and 65 additions (5 inversions each); one 2 048-bucket walk
    // in 64 segments of 32: 3 968 affine additions in 62 rounds, then the
    // 64-point tail; 122 inversions in all. The table's 2 347 488 bytes
    // overflow 2 MiB by a ninth, so 2 407 of its digits miss the cache.
    let config = MsmConfig::glv_style();
    let shape = msm_shape::<G1>(1026, &config, None);
    assert_eq!((shape.window_bits, shape.target_windows), (12, 1));
    let additions = 2052 * 11 - 2048;
    let inversions = 12 * (2 + 1 + 1 + 1) + 62;
    let walk = 3968 * 6 + 62 * (10 + 14) + 5 * 9 + 64 * 10;
    let muls = additions * 6 + walk + 8;
    let bookkeeping = (2407 * 7 + 2048 * 15) / 5;
    assert_eq!(shape.inversions, 122);
    assert_eq!(shape.inversions, inversions);
    assert_eq!(shape.cost, muls + inversions * INV + bookkeeping);
    assert_eq!(shape.cost, 163_648);
    let (points, scalars) = random_inputs::<G1>(40, 41);
    let pool = ThreadPool::with_threads(2);
    for budget in [None, Some(4 * 80 * point_bytes), Some(0)] {
        let shape = msm_shape::<G1>(40, &config, budget);
        let plan = MsmPlan::build(&points, &config, budget, &pool);
        let stats = plan.execute(&scalars, &pool).stats;
        assert_eq!(plan.target_windows(), shape.target_windows);
        assert_eq!(stats.windows, shape.target_windows);
        assert_eq!(stats.buckets_per_window, 1 << (shape.window_bits - 1));
    }
}

/// The prover's unbounded plans as `(s, W, copies)`. On G2 the dense key's
/// 513 finite B2 bases fold fully onto six copies; the bits key's 1 025
/// stop at three, because the deeper folds model within 1% and the table
/// past 2 MiB pays for its cache misses. The G1 keys fold fully. Every one
/// of these runs batch-affine buckets.
#[test]
fn prover_plan_shapes_are_pinned() {
    fn shape<Cu: SwCurve>(n: usize) -> (u32, u32, u32) {
        let s = msm_shape::<Cu>(n, &MsmConfig::glv_style(), None);
        (s.window_bits, s.target_windows, s.copies)
    }
    assert_eq!(shape::<bls12_381::G2>(513), (11, 1, 6));
    assert_eq!(shape::<bls12_381::G2>(1025), (11, 2, 3));
    assert_eq!(shape::<bls12_381::G1>(1026), (12, 1, 11));
    assert_eq!(shape::<bls12_381::G1>(513), (11, 1, 12));
    assert_eq!(shape::<bls12_381::G1>(1024), (12, 1, 11));
    assert_eq!(shape::<bls12_381::G1>(2047), (13, 1, 10));
}

/// Batches invert only where there is something to add: a 2^10-base GLV
/// plan (about 11 rows per bucket) spends an inversion per batch of 256 to
/// 512 additions, and its full 2 048-bucket window walks with one per
/// round of its 64 segments of 32 (`2·32 − 2`), while a 1-point one-shot
/// inverts at most once: its rows meet in a bucket in few windows, and
/// all windows of a run share their rounds. Both equal `msm_serial`. The prover's 2-point blinding product runs at `s = 3`
/// (4 buckets).
#[test]
fn batches_invert_only_where_they_pay() {
    type G1 = bls12_381::G1;
    const N: usize = 1 << 10;
    let points = incremental_points::<G1>(N);
    let mut rng = StdRng::seed_from_u64(45);
    let scalars: Vec<zkp_ff::Fr381> = (0..N).map(|_| zkp_ff::Fr381::random(&mut rng)).collect();
    let pool = ThreadPool::with_threads(2);
    let config = MsmConfig::glv_style();

    let plan = MsmPlan::build(&points, &config, None, &pool);
    let out = plan.execute(&scalars, &pool);
    assert_eq!(out.point, msm_serial(&points, &scalars));
    let adds = out.stats.accumulation_padds;
    assert!(
        (adds / 512..=adds / 256).contains(&out.stats.batch_inversions),
        "{} inversions for {adds} additions",
        out.stats.batch_inversions
    );
    assert_eq!(out.stats.reduction_inversions, 2 * 32 - 2);

    let out = msm_parallel_with_config(&points[..1], &scalars[..1], &config, &pool);
    assert_eq!(out.point, msm_serial(&points[..1], &scalars[..1]));
    // Its two GLV rows meet in a bucket of some of its 43 windows at most
    // once each, and all those pairs are one round.
    assert!(out.stats.batch_inversions <= 1);
    assert_eq!(out.stats.reduction_inversions, 0);

    let one_shot = |shape: MsmShape| (shape.window_bits, shape.target_windows);
    for n in [1, 2] {
        assert_eq!(one_shot(msm_shape::<G1>(n, &config, Some(0))), (3, 43));
    }
    let g2 = msm_shape::<bls12_381::G2>(1, &config, Some(0));
    assert_eq!(one_shot(g2), (3, 22));
}

/// Degenerate inputs through plans whose reduction segments (`s = 11`
/// and 12, 1 024 and 2 048 buckets): every base the same point, so buckets
/// and running sums meet `P + P` and `P − P` at every turn, and every
/// scalar the same, so every row of one copy lands in the same buckets.
/// Each equals `msm_serial` and is bit-identical, stats included, at 1 and
/// 3 threads.
#[test]
fn segmented_plans_survive_equal_bases_and_equal_scalars() {
    type G1 = bls12_381::G1;
    const N: usize = 600;
    let (random_points, random_scalars) = random_inputs::<G1>(N, 46);
    let equal_points = vec![random_points[0]; N];
    let equal_scalars = vec![random_scalars[0]; N];
    for (points, scalars) in [
        (&equal_points, &random_scalars),
        (&random_points, &equal_scalars),
    ] {
        let expect = msm_serial(points, scalars);
        for s in [11, 12] {
            let config = MsmConfig {
                window_bits: Some(s),
                ..MsmConfig::glv_style()
            };
            let plan = MsmPlan::build(points, &config, None, &ThreadPool::with_threads(1));
            let serial = plan.execute(scalars, &ThreadPool::with_threads(1));
            assert_eq!(serial.point, expect, "s = {s}");
            assert!(serial.stats.reduction_inversions > 0, "s = {s}");
            let parallel = plan.execute(scalars, &ThreadPool::with_threads(3));
            assert_same_run(&parallel, &serial, &format!("s = {s}, 3 threads"));
        }
    }
}

/// The point of sizing the window for the folded table: the prover-sized
/// GLV plan does about 20% fewer point additions than the same bases at
/// the one-shot window (2 052 rows × 16 windows of 8 bits, folded onto 8
/// copies and 2 reduced windows, against 11 of 12 bits plus one
/// 2·2 048-bucket reduction) — and models cheaper. (Before a table's cache
/// misses were priced, the 8-bit plan folded onto 16 copies and this one
/// also stored fewer; now the 8-bit plan stores 8.)
#[test]
fn plan_window_beats_the_one_shot_window() {
    const N: usize = 1026;
    let points = incremental_points::<bls12_381::G1>(N);
    let mut rng = StdRng::seed_from_u64(42);
    let scalars: Vec<zkp_ff::Fr381> = (0..N).map(|_| zkp_ff::Fr381::random(&mut rng)).collect();
    let pool = ThreadPool::with_threads(2);
    let pinned = MsmConfig {
        window_bits: Some(8),
        ..MsmConfig::glv_style()
    };
    let old = MsmPlan::build(&points, &pinned, None, &pool);
    let new = MsmPlan::build(&points, &MsmConfig::glv_style(), None, &pool);
    let (old_run, new_run) = (old.execute(&scalars, &pool), new.execute(&scalars, &pool));
    assert_eq!(new_run.point, msm_serial(&points, &scalars));
    assert_eq!(new_run.point, old_run.point);
    let (before, after) = (old_run.stats.total_padds(), new_run.stats.total_padds());
    assert!(
        after * 100 <= before * 82,
        "expected ≥ 18% fewer PADDs: {before} at s = 8, {after} picked"
    );
    let shape = |config: &MsmConfig| msm_shape::<bls12_381::G1>(N, config, None);
    assert!(shape(&MsmConfig::glv_style()).cost < shape(&pinned).cost);
    assert_eq!(old.target_windows(), shape(&pinned).target_windows);
}

/// The image rows of every copy are mapped from the copy's affine rows;
/// that is the table the builder would get by carrying `mapʲ(Pᵢ)` through
/// the doubling sweep. Bases at infinity get no rows.
fn assert_phi_mapped_table_is_the_doubled_table<Cu: SwCurve>(seed: u64) {
    let endo = Cu::endomorphism().expect("an endomorphism");
    let d = endo.rows();
    let g = Jacobian::from(Cu::generator());
    let (mut points, _) = random_inputs::<Cu>(5, seed);
    // Small multiples of the generator and bases at infinity.
    points.extend(batch_to_affine(&[g, g.double(), g.double().add(&g)]));
    points.insert(2, Affine::identity());
    points.push(Affine::identity());
    let finite: Vec<Affine<Cu>> = points
        .iter()
        .copied()
        .filter(|p| !p.is_identity())
        .collect();
    let n = finite.len();
    let pool = ThreadPool::with_threads(2);
    let config = MsmConfig {
        window_bits: Some(12),
        ..MsmConfig::glv_style()
    };
    let copy_bytes = (d * n * core::mem::size_of::<Affine<Cu>>()) as u64;
    for (budget, copies) in [(Some(3 * copy_bytes), 3), (None, 11)] {
        let plan = MsmPlan::build(&points, &config, budget, &pool);
        assert_eq!(plan.stored_points(), copies * d * n);
        assert_eq!(plan.len(), points.len());
        let mut rows: Vec<Jacobian<Cu>> = Vec::new();
        let mut power = finite.clone();
        for _ in 0..d {
            rows.extend(power.iter().map(|p| Jacobian::from(*p)));
            power = power.iter().map(|p| endo.map(p)).collect();
        }
        for (j, copy) in plan.table().chunks_exact(d * n).enumerate() {
            if j > 0 {
                for row in &mut rows {
                    for _ in 0..plan.target_windows() * 12 {
                        *row = row.double();
                    }
                }
            }
            for (got, want) in copy.iter().zip(batch_to_affine(&rows)) {
                assert_eq!(
                    (got.x, got.y, got.infinity),
                    (want.x, want.y, want.infinity)
                );
                assert!(!got.is_identity());
            }
        }
    }
}

#[test]
fn phi_mapped_table_is_the_doubled_table() {
    assert_phi_mapped_table_is_the_doubled_table::<bls12_381::G1>(43);
    assert_phi_mapped_table_is_the_doubled_table::<bls12_377::G1>(44);
}

#[test]
fn plan_handles_empty_and_zero() {
    let pool = ThreadPool::with_threads(2);
    let empty: Vec<Affine<bls12_381::G1>> = Vec::new();
    let plan = MsmPlan::build(&empty, &MsmConfig::glv_style(), None, &pool);
    assert!(plan.is_empty());
    assert!(plan.execute(&[], &pool).point.is_identity());

    let (points, _) = random_inputs::<bls12_381::G1>(9, 35);
    let plan = MsmPlan::build(&points, &MsmConfig::glv_style(), None, &pool);
    let zeros = vec![zkp_ff::Fr381::zero(); 9];
    let out = plan.execute(&zeros, &pool);
    assert!(out.point.is_identity());
    assert_eq!(out.stats.accumulation_padds, 0);
}

#[test]
fn budget_knob_walks_the_fig12_tradeoff() {
    // Smaller budgets → fewer copies → more reduced windows, monotonically.
    // No slack for the picker's 1% band is needed: on these 128 rows one
    // more reduced window costs ~3 650 `FF_mul` units of ~25 000, so the
    // band never holds a shallower fold than the deepest that fits.
    let (points, scalars) = random_inputs::<bls12_381::G1>(64, 36);
    let pool = ThreadPool::with_threads(4);
    let expect = msm_serial(&points, &scalars);
    let config = MsmConfig {
        window_bits: Some(8),
        ..MsmConfig::glv_style()
    };
    let mut last_windows = 0;
    let mut last_storage = u64::MAX;
    for budget in [u64::MAX, 1 << 20, 1 << 16, 1 << 14, 0] {
        let plan = MsmPlan::build(&points, &config, Some(budget), &pool);
        assert_eq!(plan.execute(&scalars, &pool).point, expect);
        assert!(plan.target_windows() >= last_windows, "budget {budget}");
        assert!(plan.storage_bytes() <= last_storage, "budget {budget}");
        last_windows = plan.target_windows();
        last_storage = plan.storage_bytes();
    }
}

/// Acceptance: at the paper's 2^16 G1 scale the cached GLV + full-precompute
/// plan performs ≥30% fewer total bucket point-additions than the unsigned
/// baseline — measured via [`zkp_msm::MsmStats`] op counts, not wall-clock.
#[test]
fn glv_plan_saves_thirty_percent_padds_at_2_16() {
    const N: usize = 1 << 16;
    let points = incremental_points::<bls12_381::G1>(N);
    let mut rng = StdRng::seed_from_u64(37);
    let scalars: Vec<zkp_ff::Fr381> = (0..N).map(|_| zkp_ff::Fr381::random(&mut rng)).collect();
    let pool = zkp_runtime::global();

    let baseline = msm_parallel_with_config(&points, &scalars, &MsmConfig::default(), pool);

    let config = MsmConfig {
        window_bits: Some(16),
        ..MsmConfig::glv_style()
    };
    let plan = MsmPlan::build(&points, &config, None, pool);
    let planned = plan.execute(&scalars, pool);

    assert_eq!(planned.point, baseline.point);
    let base = baseline.stats.total_padds();
    let ours = planned.stats.total_padds();
    assert!(
        ours * 10 <= base * 7,
        "expected ≥30% fewer PADDs: baseline {base}, planned {ours} \
         ({:.1}% saved)",
        100.0 * (1.0 - ours as f64 / base as f64)
    );
}
