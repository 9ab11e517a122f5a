//! Layer probes of the traced run: `ff`, `curves`, `msm` and `ntt` measured on
//! their own public functions at the workloads' shapes, each layer predicted
//! from the one below it (the three `*_model_residual` figures).

use crate::adapter::{
    batch_inverse, consecutive_multiples, count_madd, default_msm_config,
    distribute_powers_parallel, msm_parallel_with_config_in, ntt_parallel_on, pairing, Affine,
    CountedG1, CountedG2, Domain, Field, Fq, Fr, MsmConfig, MsmPlan, MsmScratch, MsmStats, Rng,
    SeedableRng, StdRng, SwCurve, ThreadPool, TwiddleTable, Xyzz, G1, G2,
};
use crate::clock::median;
use crate::metrics::Values;
use crate::spans::Meter;
use crate::workloads::RunCfg;
use std::hint::black_box;

/// Median calibrated seconds of `reps` runs of `f`.
fn probe<T>(
    meter: &mut Meter,
    reps: usize,
    layer: &'static str,
    name: &'static str,
    mut f: impl FnMut() -> T,
) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| meter.timed(layer, name, &mut f).1.cal_s)
        .collect();
    median(&times)
}

/// Median calibrated nanoseconds per link of a dependent chain of `n`.
fn chain_ns<F: Copy>(
    meter: &mut Meter,
    reps: usize,
    layer: &'static str,
    name: &'static str,
    n: usize,
    start: F,
    step: impl Fn(F) -> F,
) -> f64 {
    let total = probe(meter, reps, layer, name, || {
        let mut x = black_box(start);
        for _ in 0..n {
            x = step(x);
        }
        x
    });
    total * 1e9 / n as f64
}

/// What the `ff` probes hand to the layers above.
struct FieldCosts {
    fq_mul: f64,
    fq_sqr: f64,
    fq_add: f64,
    fr_mul: f64,
    fr_add: f64,
}

fn ff(cfg: &RunCfg, meter: &mut Meter, out: &mut Values, rng: &mut StdRng) -> FieldCosts {
    let (reps, n) = (cfg.sizes.probe_reps, cfg.sizes.ff_chain);
    let (xq, yq) = (Fq::random(rng), Fq::random(rng));
    let (xr, yr) = (Fr::random(rng), Fr::random(rng));
    let fq_mul = chain_ns(meter, reps, "ff", "Fq381 mul", n, xq, |x| x * yq);
    let fq_sqr = chain_ns(meter, reps, "ff", "Fq381 square", n, xq, |x| x.square());
    let fq_add = chain_ns(meter, reps, "ff", "Fq381 add", n, xq, |x| x + yq);
    let fq_inv = chain_ns(
        meter,
        reps,
        "ff",
        "Fq381 inverse",
        (n / 50).max(1),
        xq,
        |x| x.inverse().expect("a random chain does not reach zero") + yq,
    );
    let fr_mul = chain_ns(meter, reps, "ff", "Fr381 mul", n, xr, |x| x * yr);
    let fr_add = chain_ns(meter, reps, "ff", "Fr381 add", n, xr, |x| x + yr);
    let batch: Vec<Fr> = (0..(n / 25).max(2)).map(|_| Fr::random(rng)).collect();
    let mut work = batch.clone();
    let fr_batch_inv = probe(meter, reps, "ff", "Fr381 batch_inverse", || {
        work.copy_from_slice(&batch);
        batch_inverse(&mut work);
    }) * 1e9
        / batch.len() as f64;
    out.insert("ff.fq381_mul_cal_ns", fq_mul);
    out.insert("ff.fq381_sqr_cal_ns", fq_sqr);
    out.insert("ff.fq381_add_cal_ns", fq_add);
    out.insert("ff.fq381_inv_cal_ns", fq_inv);
    out.insert("ff.fr381_mul_cal_ns", fr_mul);
    out.insert("ff.fr381_add_cal_ns", fr_add);
    out.insert("ff.fr381_batch_inv_cal_ns", fr_batch_inv);
    FieldCosts {
        fq_mul,
        fq_sqr,
        fq_add,
        fr_mul,
        fr_add,
    }
}

/// Nanoseconds per XYZZ mixed addition over a ring of 64 distinct points.
fn madd_ns<Cu: SwCurve>(meter: &mut Meter, reps: usize, name: &'static str, n: usize) -> f64 {
    let ring: Vec<Affine<Cu>> = consecutive_multiples(64);
    let total = probe(meter, reps, "curves", name, || {
        let mut acc = Xyzz::from(ring[63]).double();
        for i in 0..n {
            acc = acc.add_affine(&ring[i % 64]);
        }
        acc
    });
    total * 1e9 / n as f64
}

/// Returns calibrated ns per G1 mixed addition.
fn curves(cfg: &RunCfg, meter: &mut Meter, out: &mut Values, ff: &FieldCosts) -> f64 {
    let reps = cfg.sizes.probe_reps;
    let n = (cfg.sizes.ff_chain / 5).max(8);
    let g1_madd = madd_ns::<G1>(meter, reps, "G1 Xyzz::add_affine", n);
    let g2_madd = madd_ns::<G2>(meter, reps, "G2 Xyzz::add_affine", n / 4);
    let start = Xyzz::from(G1::generator());
    let g1_dbl = chain_ns(meter, reps, "curves", "G1 Xyzz::double", n, start, |p| {
        p.double()
    });
    let (p, q) = (G1::generator(), G2::generator());
    let pairing_s = probe(meter, reps, "curves", "pairing", || pairing(&p, &q));

    let g1 = count_madd::<CountedG1>();
    let g2 = count_madd::<CountedG2>();
    let g1_addlike = g1.total() - g1.mul - g1.sqr - g1.inv;
    let predicted =
        g1.mul as f64 * ff.fq_mul + g1.sqr as f64 * ff.fq_sqr + g1_addlike as f64 * ff.fq_add;
    out.insert("curves.g1_madd_cal_ns", g1_madd);
    out.insert("curves.g1_dbl_cal_ns", g1_dbl);
    out.insert("curves.g2_madd_cal_ns", g2_madd);
    out.insert("curves.pairing_cal_s", pairing_s);
    out.insert("curves.g1_madd_ffmul", (g1.mul + g1.sqr) as f64);
    out.insert("curves.g1_madd_ffadd", g1_addlike as f64);
    out.insert("curves.g2_madd_ffmul", (g2.mul + g2.sqr) as f64);
    out.insert("curves.madd_model_residual", 1.0 - predicted / g1_madd);
    g1_madd
}

/// One MSM shape: median calibrated seconds and the work counters.
fn g1_msm(
    cfg: &RunCfg,
    meter: &mut Meter,
    name: &'static str,
    plan: &MsmPlan<G1>,
    scalars: &[Fr],
    pool: &ThreadPool,
) -> (f64, MsmStats) {
    let mut scratch = MsmScratch::new();
    let mut stats = plan.execute_in(scalars, pool, &mut scratch).stats;
    let time = probe(meter, cfg.sizes.probe_reps, "msm", name, || {
        stats = plan.execute_in(scalars, pool, &mut scratch).stats;
    });
    (time, stats)
}

fn msm(cfg: &RunCfg, meter: &mut Meter, out: &mut Values, rng: &mut StdRng, g1_madd_ns: f64) {
    let pool = ThreadPool::with_threads(1);
    // The prove workloads' A-query shapes: 1 + public + private variables.
    let dense_n = 2 * cfg.sizes.dense_rounds + 2;
    let bits_n = 65 * cfg.sizes.bits_words + 1;
    let bases: Vec<Affine<G1>> = consecutive_multiples(dense_n.max(bits_n));
    let dense: Vec<Fr> = (0..dense_n).map(|_| Fr::random(rng)).collect();
    let bits: Vec<Fr> = (0..bits_n)
        .map(|_| Fr::from_u64(rng.gen::<u64>() & 1))
        .collect();

    let config = MsmConfig::glv_style();
    let mut dense_plan = None;
    let plan_build = {
        let times: Vec<f64> = (0..cfg.sizes.probe_reps)
            .map(|_| {
                let (plan, t, _) = meter.timed("msm", "MsmPlan::build", || {
                    MsmPlan::build(&bases[..dense_n], &config, None, &pool)
                });
                dense_plan = Some(plan);
                t.cal_s
            })
            .collect();
        median(&times)
    };
    let dense_plan = dense_plan.expect("at least one probe repetition");
    let bits_plan = MsmPlan::build(&bases[..bits_n], &config, None, &pool);

    let (dense_s, dense_stats) = g1_msm(
        cfg,
        meter,
        "MsmPlan::execute_in dense",
        &dense_plan,
        &dense,
        &pool,
    );
    let (bits_s, bits_stats) = g1_msm(
        cfg,
        meter,
        "MsmPlan::execute_in bits",
        &bits_plan,
        &bits,
        &pool,
    );

    let g2_bases: Vec<Affine<G2>> = consecutive_multiples(dense_n);
    let g2_config = default_msm_config();
    let mut scratch = MsmScratch::new();
    let mut g2_stats =
        msm_parallel_with_config_in(&g2_bases, &dense, &g2_config, &pool, &mut scratch).stats;
    let g2_s = probe(
        meter,
        cfg.sizes.probe_reps,
        "msm",
        "msm_parallel_with_config_in G2",
        || {
            g2_stats =
                msm_parallel_with_config_in(&g2_bases, &dense, &g2_config, &pool, &mut scratch)
                    .stats;
        },
    );

    let share = |s: &MsmStats| s.accumulation_padds as f64 / s.total_padds().max(1) as f64;
    let dense_padds = dense_stats.total_padds() as f64;
    out.insert("msm.g1_dense_cal_s", dense_s);
    out.insert("msm.g1_bits_cal_s", bits_s);
    out.insert("msm.g2_dense_cal_s", g2_s);
    out.insert("msm.g1_dense_padds", dense_padds);
    out.insert("msm.g1_bits_padds", bits_stats.total_padds() as f64);
    out.insert("msm.g2_dense_padds", g2_stats.total_padds() as f64);
    out.insert("msm.g1_dense_accum_share", share(&dense_stats));
    out.insert("msm.g1_bits_accum_share", share(&bits_stats));
    out.insert(
        "msm.g1_dense_batch_inversions",
        dense_stats.batch_inversions as f64,
    );
    out.insert("msm.g1_cal_ns_per_padd", dense_s * 1e9 / dense_padds);
    out.insert(
        "msm.g1_padd_model_residual",
        1.0 - dense_padds * g1_madd_ns / (dense_s * 1e9),
    );
    out.insert("msm.plan_build_cal_s", plan_build);
    out.insert(
        "msm.plan_storage_mb",
        dense_plan.storage_bytes() as f64 / (1024.0 * 1024.0),
    );
}

fn ntt(cfg: &RunCfg, meter: &mut Meter, out: &mut Values, rng: &mut StdRng, ff: &FieldCosts) {
    let reps = cfg.sizes.probe_reps;
    let pool = ThreadPool::with_threads(1);
    let mut transform = |meter: &mut Meter, log: u32, name: &'static str, invert: bool| {
        let n = 1usize << log;
        let domain = Domain::<Fr>::new(n as u64).expect("probe size within Fr's two-adicity");
        let table = TwiddleTable::new(&domain);
        let input: Vec<Fr> = (0..n).map(|_| Fr::random(rng)).collect();
        let mut work = input.clone();
        probe(meter, reps, "ntt", name, || {
            work.copy_from_slice(&input);
            ntt_parallel_on(&mut work, &table, invert, &pool);
        })
    };
    let small = cfg.sizes.ntt_small_log;
    let large = cfg.sizes.quotient_log;
    let fwd_small = transform(meter, small, "ntt_parallel_on forward 2k", false);
    let inv_small = transform(meter, small, "ntt_parallel_on inverse 2k", true);
    let fwd_large = transform(meter, large, "ntt_parallel_on forward 32k", false);

    let n = 1usize << large;
    let domain = Domain::<Fr>::new(n as u64).expect("probe size within Fr's two-adicity");
    let twiddles = probe(meter, reps, "ntt", "TwiddleTable::new 32k", || {
        TwiddleTable::new(&domain)
    });
    let mut work: Vec<Fr> = (0..n).map(|_| Fr::random(rng)).collect();
    let coset = probe(meter, reps, "ntt", "distribute_powers_parallel 32k", || {
        distribute_powers_parallel(&pool, &mut work, domain.coset_gen());
    });

    let butterflies = (n / 2) as f64 * f64::from(large);
    let per_butterfly = fwd_large * 1e9 / butterflies;
    out.insert("ntt.fwd_2k_cal_s", fwd_small);
    out.insert("ntt.inv_2k_cal_s", inv_small);
    out.insert("ntt.fwd_32k_cal_s", fwd_large);
    out.insert("ntt.coset_mul_32k_cal_s", coset);
    out.insert("ntt.twiddle_build_32k_cal_s", twiddles);
    out.insert("ntt.cal_ns_per_butterfly_32k", per_butterfly);
    out.insert(
        "ntt.butterfly_model_residual",
        1.0 - (ff.fr_mul + 2.0 * ff.fr_add) / per_butterfly,
    );
}

/// Runs every layer probe, bottom-up.
pub fn run(cfg: &RunCfg, meter: &mut Meter, out: &mut Values) {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x70_726f_6265);
    meter.spans.scope("probes", -1);
    meter.cal.refresh();
    let costs = ff(cfg, meter, out, &mut rng);
    let g1_madd_ns = curves(cfg, meter, out, &costs);
    msm(cfg, meter, out, &mut rng, g1_madd_ns);
    ntt(cfg, meter, out, &mut rng, &costs);
}
