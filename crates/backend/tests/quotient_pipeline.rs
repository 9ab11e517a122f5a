//! `quotient_pipeline_in` directly (the proof digest covers it only
//! through the whole prover): its output against the serial reference
//! `zkp_ntt::quotient_poly`, the ops it dispatches, and where a
//! `DeadlineBackend` stops it.

use rand::{rngs::StdRng, SeedableRng};
use std::time::{Duration, Instant};
use zkp_backend::{
    quotient_pipeline_in, BackendError, CpuBackend, DeadlineBackend, ExecBackend,
    FaultInjectingBackend, FaultPlan, OpKind, TracingBackend,
};
use zkp_curves::bls12_381::Bls12381;
use zkp_ff::{Field, Fr381};
use zkp_ntt::{quotient_poly, Domain, TwiddleTable};
use zkp_runtime::ThreadPool;

/// Satisfied evaluation vectors (`c = a·b`) of size `n`, and the serial
/// reference `h` for them.
struct Fixture {
    domain: Domain<Fr381>,
    table: TwiddleTable<Fr381>,
    abc: [Vec<Fr381>; 3],
    expect: Vec<Fr381>,
}

impl Fixture {
    fn new(n: usize) -> Self {
        let domain = Domain::<Fr381>::new(n as u64).expect("within two-adicity");
        let table = TwiddleTable::new(&domain);
        let mut rng = StdRng::seed_from_u64(17);
        let a: Vec<Fr381> = (0..n).map(|_| Fr381::random(&mut rng)).collect();
        let b: Vec<Fr381> = (0..n).map(|_| Fr381::random(&mut rng)).collect();
        let c: Vec<Fr381> = a.iter().zip(&b).map(|(x, y)| *x * *y).collect();
        let (expect, _) = quotient_poly(&domain, &a, &b, &c);
        Self {
            domain,
            table,
            abc: [a, b, c],
            expect,
        }
    }

    /// Runs the pipeline on copies of the inputs; returns `h`.
    fn run(&self, backend: &dyn ExecBackend<Bls12381>) -> Result<Vec<Fr381>, BackendError> {
        let [mut h, mut b, mut c] = self.abc.clone();
        let (domain, table) = (&self.domain, &self.table);
        let transforms = quotient_pipeline_in(domain, table, &mut h, &mut b, &mut c, backend)?;
        assert_eq!(transforms, 7);
        Ok(h)
    }
}

/// The op kinds `backend` traced since the last call.
fn traced_kinds(backend: &dyn ExecBackend<Bls12381>) -> Vec<OpKind> {
    let trace = backend.take_trace();
    trace.records.iter().map(|r| r.kind).collect()
}

#[test]
fn pipeline_equals_the_reference_quotient_and_dispatches_eleven_ops() {
    // 2^13: transforms and scalings fan out on the multi-thread pools.
    let fixture = Fixture::new(1 << 13);
    for threads in [1usize, 2, 3, 8] {
        let pool = ThreadPool::with_threads(threads);
        let traced = TracingBackend::new(CpuBackend::on(&pool));
        let h = fixture.run(&traced);
        assert_eq!(
            h,
            fixture.run(traced.inner()),
            "tracing changes the outcome"
        );
        assert_eq!(h, Ok(fixture.expect.clone()), "{threads} threads");
        let kinds = traced_kinds(&traced);
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
    let fixture = Fixture::new(1 << 4);
    let pool = ThreadPool::with_threads(1);
    let traced = TracingBackend::new(CpuBackend::on(&pool));
    let expired = DeadlineBackend::new(&traced, Some(Instant::now()));
    let op = "ntt_inverse";
    assert_eq!(
        fixture.run(&expired),
        Err(BackendError::DeadlineExceeded { op })
    );
    let kinds = traced_kinds(&traced);
    assert!(kinds.is_empty(), "{kinds:?}");
}

#[test]
fn deadline_passing_during_an_op_stops_after_it() {
    let fixture = Fixture::new(1 << 4);
    let pool = ThreadPool::with_threads(1);
    // The first op sleeps 20 ms, well past the 5 ms deadline: it still
    // runs to completion (and is traced), then the check after it fires,
    // and no later op starts.
    let plan = FaultPlan::none().delay_at(0, Duration::from_millis(20));
    let traced = TracingBackend::new(FaultInjectingBackend::new(CpuBackend::on(&pool), plan));
    let deadline = Instant::now() + Duration::from_millis(5);
    let backend = DeadlineBackend::new(&traced, Some(deadline));
    let op = "ntt_inverse";
    assert_eq!(
        fixture.run(&backend),
        Err(BackendError::DeadlineExceeded { op })
    );
    assert_eq!(traced_kinds(&traced), [OpKind::NttInverse]);
}
