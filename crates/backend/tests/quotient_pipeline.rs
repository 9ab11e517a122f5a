//! `quotient_pipeline_in` directly (the proof digest covers it only
//! through the whole prover): its output against the serial reference
//! `zkp_ntt::quotient_poly`, the ops it dispatches, and the stage boundary
//! an expired deadline stops at.

use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;
use zkp_backend::{
    quotient_pipeline_in, BackendError, CpuBackend, ExecBackend, OpKind, TracingBackend,
};
use zkp_curves::bls12_381::Bls12381;
use zkp_ff::{Field, Fr381};
use zkp_ntt::{quotient_poly, Domain, TwiddleTable};
use zkp_runtime::ThreadPool;

/// Runs the pipeline on satisfied evaluation vectors (`c = a·b`) of size
/// `n`; returns `h`, the serial reference for it, and the traced op kinds.
fn run(
    n: usize,
    threads: usize,
    deadline: Option<Instant>,
) -> (Result<Vec<Fr381>, BackendError>, Vec<Fr381>, Vec<OpKind>) {
    let domain = Domain::<Fr381>::new(n as u64).expect("within two-adicity");
    let table = TwiddleTable::new(&domain);
    let mut rng = StdRng::seed_from_u64(17);
    let a: Vec<Fr381> = (0..n).map(|_| Fr381::random(&mut rng)).collect();
    let b: Vec<Fr381> = (0..n).map(|_| Fr381::random(&mut rng)).collect();
    let c: Vec<Fr381> = a.iter().zip(&b).map(|(x, y)| *x * *y).collect();
    let (expect, _) = quotient_poly(&domain, &a, &b, &c);

    let pool = ThreadPool::with_threads(threads);
    let traced = TracingBackend::new(CpuBackend::on(&pool));
    let on = |backend: &dyn ExecBackend<Bls12381>| -> Result<Vec<Fr381>, BackendError> {
        let (mut h, mut b, mut c) = (a.clone(), b.clone(), c.clone());
        let transforms =
            quotient_pipeline_in(&domain, &table, &mut h, &mut b, &mut c, backend, deadline)?;
        assert_eq!(transforms, 7);
        Ok(h)
    };
    let h = on(&traced);
    assert_eq!(h, on(traced.inner()), "tracing changes the outcome");
    let trace = ExecBackend::<Bls12381>::take_trace(&traced);
    (h, expect, trace.records.iter().map(|r| r.kind).collect())
}

#[test]
fn pipeline_equals_the_reference_quotient_and_dispatches_eleven_ops() {
    // 2^13: transforms and scalings fan out on the multi-thread pools.
    for threads in [1usize, 2, 3, 8] {
        let (h, expect, kinds) = run(1 << 13, threads, None);
        assert_eq!(h, Ok(expect), "{threads} threads");
        let count = |kind| kinds.iter().filter(|k| **k == kind).count();
        let (inv, coset, fwd) = (OpKind::NttInverse, OpKind::CosetMul, OpKind::NttForward);
        assert_eq!(
            (kinds.len(), count(inv), count(coset), count(fwd)),
            (11, 4, 4, 3)
        );
        if threads == 1 {
            // No interleaving: chains a, b, c, then the final coset INTT.
            let chain = [inv, coset, fwd];
            assert_eq!(kinds, [&chain[..], &chain, &chain, &chain[..2]].concat());
        }
    }
}

#[test]
fn expired_deadline_stops_at_the_first_stage_boundary() {
    let (h, _, kinds) = run(1 << 4, 1, Some(Instant::now()));
    let stage = "quotient-a";
    assert_eq!(h, Err(BackendError::DeadlineExceeded { stage }));
    assert!(kinds.is_empty(), "{kinds:?}");
}
