//! Service/sequential equivalence: a proof served through the
//! `ProofService` — any worker count, any interleaving — must be
//! byte-identical to the same `(circuit, seed)` proved sequentially with
//! the one-shot prover, because jobs carry their RNG seed and every
//! kernel is schedule-deterministic.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::OnceLock;
use std::time::Duration;
use zkp_curves::bls12_381::Bls12381;
use zkp_ff::{Field, Fr381};
use zkp_groth16::{
    prove, setup, verify, JobError, ProofService, ProverSession, ProvingKey, SubmitError,
};
use zkp_r1cs::circuits::mimc;
use zkp_r1cs::ConstraintSystem;

const ROUNDS: usize = 16;

/// One session for the whole binary: the proving key depends only on the
/// circuit *shape* (mimc with [`ROUNDS`] rounds), not on the input.
fn session() -> &'static ProverSession<Bls12381> {
    static SESSION: OnceLock<ProverSession<Bls12381>> = OnceLock::new();
    SESSION.get_or_init(|| {
        let cs = mimc(Fr381::from_u64(5), ROUNDS);
        let mut rng = StdRng::seed_from_u64(7);
        let pk: ProvingKey<Bls12381> = setup(&cs, &mut rng);
        ProverSession::new(pk)
    })
}

fn circuit(x: u64) -> ConstraintSystem<Fr381> {
    mimc(Fr381::from_u64(x), ROUNDS)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn served_proofs_match_sequential_at_any_worker_count(
        x in 1u64..u64::MAX / 2,
        seed in any::<u64>(),
    ) {
        let session = session();
        const JOBS: u64 = 4;
        // Sequential ground truth, one proof per (circuit, seed) pair.
        let expected: Vec<[u8; zkp_groth16::PROOF_BYTES]> = (0..JOBS)
            .map(|i| {
                let cs = circuit(x + i);
                let mut rng = StdRng::seed_from_u64(seed ^ i);
                let (proof, _) = prove(session.pk(), &cs, &mut rng);
                proof.to_bytes()
            })
            .collect();

        for workers in [1usize, 2, 8] {
            let service = ProofService::start(session, workers, 32);
            let tickets: Vec<_> = (0..JOBS)
                .map(|i| {
                    service
                        .submit(circuit(x + i), seed ^ i)
                        .expect("queue has room")
                })
                .collect();
            for (i, ticket) in tickets.into_iter().enumerate() {
                let done = ticket.wait().expect("job completed");
                prop_assert_eq!(
                    done.proof.to_bytes(),
                    expected[i],
                    "service proof {} diverged at {} workers",
                    i,
                    workers
                );
                prop_assert!(verify(
                    session.vk(),
                    &done.proof,
                    &circuit(x + i as u64).assignment.public
                ));
            }
            let stats = service.shutdown();
            prop_assert_eq!(stats.completed, JOBS);
            prop_assert_eq!(stats.expired, 0);
            prop_assert!(stats.proofs_per_sec > 0.0);
            prop_assert!(stats.latency_p95_s >= stats.latency_p50_s);
        }
    }
}

#[test]
fn zero_deadline_jobs_expire_at_dequeue() {
    let session = session();
    let service = ProofService::start(session, 1, 8);
    let ticket = service
        .submit_with_deadline(circuit(3), 1, Some(Duration::ZERO))
        .expect("queue has room");
    match ticket.wait() {
        Err(JobError::DeadlineExpired { waited }) => assert!(waited > Duration::ZERO),
        other => panic!("expected deadline expiry, got {other:?}"),
    }
    let stats = service.shutdown();
    assert_eq!(stats.completed, 0);
    assert_eq!(stats.expired, 1);
}

/// A deadline too far to add to the submission instant means no deadline:
/// the job proves, and the sole worker lives on to prove the next one.
#[test]
fn far_deadline_is_no_deadline() {
    let session = session();
    let service = ProofService::start(session, 1, 8);
    let far = service
        .submit_with_deadline(circuit(3), 1, Some(Duration::MAX))
        .expect("queue has room");
    let plain = service.submit(circuit(4), 2).expect("queue has room");
    far.wait().expect("a far deadline does not stop the job");
    plain.wait().expect("the worker survives the far deadline");
    let stats = service.shutdown();
    assert_eq!(stats.completed, 2);
}

#[test]
fn admission_control_counts_rejections() {
    let session = session();
    let service = ProofService::start(session, 1, 1);
    // Flood the 1-deep queue; every rejection must be QueueFull and the
    // shutdown stats must account for exactly the rejected submissions.
    let mut accepted = Vec::new();
    let mut rejected = 0u64;
    for i in 0..32u64 {
        match service.submit(circuit(i + 1), i) {
            Ok(t) => accepted.push(t),
            Err(e) => {
                assert_eq!(e, SubmitError::QueueFull);
                rejected += 1;
            }
        }
    }
    let completed = accepted.len() as u64;
    for t in accepted {
        t.wait().expect("accepted job completes");
    }
    let stats = service.shutdown();
    assert_eq!(stats.completed, completed);
    assert_eq!(stats.rejected, rejected);
    assert_eq!(stats.completed + stats.rejected, 32);
}

#[test]
fn submissions_after_shutdown_are_closed() {
    let session = session();
    let service = ProofService::start(session, 2, 4);
    let ticket = service.submit(circuit(9), 42).expect("queue has room");
    assert!(ticket.wait().is_ok());
    // Queue depth drains to zero before shutdown completes.
    let stats = service.shutdown();
    assert_eq!(stats.completed, 1);

    // A fresh service, dropped without shutdown, still joins its workers
    // and resolves outstanding tickets.
    let service = ProofService::start(session, 1, 4);
    let ticket = service.submit(circuit(10), 43).expect("queue has room");
    drop(service);
    assert!(matches!(
        ticket.wait(),
        Ok(_) | Err(JobError::ServiceStopped)
    ));
}

/// Submitters racing on one service: admission and counting happen under
/// one lock, so every refusal is counted once and every admitted job
/// resolves once.
#[test]
fn concurrent_submitters_are_counted_exactly() {
    let session = session();
    let service = ProofService::start(session, 2, 2);
    let (submitters, per_submitter) = (4u64, 8u64);
    let (completed, rejected) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..submitters)
            .map(|t| {
                let service = &service;
                s.spawn(move || {
                    let mut tickets = Vec::new();
                    let mut rejected = 0u64;
                    for i in 0..per_submitter {
                        let job = t * per_submitter + i;
                        match service.submit(circuit(job + 1), job) {
                            Ok(ticket) => tickets.push(ticket),
                            Err(e) => {
                                assert_eq!(e, SubmitError::QueueFull);
                                rejected += 1;
                            }
                        }
                    }
                    let completed = tickets.len() as u64;
                    for ticket in tickets {
                        ticket.wait().expect("admitted job completes");
                    }
                    (completed, rejected)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter"))
            .fold((0, 0), |(c, r), (dc, dr)| (c + dc, r + dr))
    });
    let stats = service.shutdown();
    assert_eq!(stats.completed, completed);
    assert_eq!(stats.rejected, rejected);
    assert_eq!(stats.completed + stats.rejected, submitters * per_submitter);
}
