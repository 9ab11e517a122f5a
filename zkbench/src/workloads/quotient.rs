//! `quotient_32k`: one in-place `quotient_poly_in` per op on one thread.

use super::{measure, Fnv, Outcome, RunCfg, SetupTimes};
use crate::adapter::{
    quotient_poly, quotient_poly_in, Domain, Field, Fr, PrimeField, SeedableRng, StdRng,
    ThreadPool, TwiddleTable,
};
use crate::metrics::Values;
use crate::spans::Meter;

fn digest(values: &[Fr]) -> u64 {
    let mut h = Fnv::new();
    let mut limbs = [0u64; 4];
    for v in values {
        v.write_uint(&mut limbs);
        for l in limbs {
            h.update(&l.to_le_bytes());
        }
    }
    h.finish()
}

/// Runs the workload.
pub fn run(cfg: &RunCfg, meter: &mut Meter, layer: &mut Values) -> Outcome {
    const NAME: &str = "quotient_32k";
    let n = 1usize << cfg.sizes.quotient_log;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let pool = ThreadPool::with_threads(1);

    // Inputs: evaluations with a·b = c on the domain, so the division is exact.
    let a0: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
    let b0: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
    let c0: Vec<Fr> = a0.iter().zip(&b0).map(|(a, b)| *a * *b).collect();

    // Set-up: the domain, its twiddle table, the three work buffers, and one
    // cold quotient that touches them for the first time.
    meter.spans.scope(NAME, -1);
    let mut setups = SetupTimes::default();
    let mut last = None;
    while setups.wants_more(cfg) {
        drop(last.take());
        meter.cal.refresh();
        let (mut built, t_build, _) = meter.timed("ntt", "Domain::new+TwiddleTable::new", || {
            let domain = Domain::<Fr>::new(n as u64).expect("size is within Fr's two-adicity");
            let table = TwiddleTable::new(&domain);
            (domain, table, (a0.clone(), b0.clone(), c0.clone()))
        });
        let (_, t_cold, _) = meter.timed("ntt", "quotient_poly_in(cold)", || {
            let (domain, table, (a, b, c)) = &mut built;
            quotient_poly_in(domain, table, a, b, c, &pool)
        });
        setups.push(&[t_build, t_cold]);
        last = Some(built);
    }
    let (domain, table, (mut a, mut b, mut c)) = last.expect("at least one set-up repetition");

    let mut digests = Vec::with_capacity(256);
    let mut first = Vec::new();
    let mut transforms = 0;
    let samples = measure(cfg, meter, NAME, |i, meter| {
        a.copy_from_slice(&a0);
        b.copy_from_slice(&b0);
        c.copy_from_slice(&c0);
        let (count, t, span) = meter.timed("ntt", "quotient_poly_in", || {
            quotient_poly_in(&domain, &table, &mut a, &mut b, &mut c, &pool)
        });
        transforms = count;
        meter.spans.count(span, "transforms", u64::from(count));
        if i == 0 {
            first = a.clone();
        }
        digests.push(digest(&a));
        t
    });

    // Checks: the first result equals the serial pipeline's, and every op's
    // digest equals the serial result's.
    if cfg.corrupt {
        first[n / 2] += Fr::one();
        digests[0] = digest(&first);
    }
    let (reference, _) = meter.untimed("ntt", "quotient_poly", || {
        quotient_poly(&domain, &a0, &b0, &c0)
    });
    let reference_digest = digest(&reference);
    let mut failed = digests.iter().filter(|d| **d != reference_digest).count() as u64;
    if first != reference && digests[0] == reference_digest {
        failed += 1;
    }

    if cfg.traced {
        layer.insert("ntt.quotient_transforms", f64::from(transforms));
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
        digest: digests[0],
        exact: Vec::new(),
        threads: 1,
    }
}
