//! Chaos suite: the hardened `ProofService` under deterministic fault
//! injection.
//!
//! Property under test, at 1/2/8 workers, under random op failures,
//! panics, and deadline storms: **every submitted job terminates with
//! exactly one ticket outcome** (proof / expired / failed), **every
//! completed proof is byte-identical to a sequential no-fault prove** of
//! the same `(circuit, seed)`, and **the service never deadlocks** —
//! every run executes under a watchdog that fails the test if the
//! service does not wind down in bounded time.
//!
//! Fault schedules come from seeded [`FaultPlan`]s, so a failing case is
//! reproducible from its logged seed. `chaos_randomized_seed_from_env`
//! additionally honors a `CHAOS_SEED` environment variable, which the CI
//! chaos-gate sets to a fresh value and logs for reproduction.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use zkp_backend::{
    BackendError, CpuBackend, ExecBackend, FaultInjectingBackend, FaultPlan, G1Msm, Op, OpKind,
    TracingBackend,
};
use zkp_curves::bls12_381::Bls12381;
use zkp_ff::{Field, Fr381};
use zkp_groth16::{
    prove, setup, verify, BackendFactory, JobError, ProofService, ProverSession, ProvingKey,
    RetryPolicy, ServiceConfig, SubmitError,
};
use zkp_r1cs::circuits::mimc;
use zkp_r1cs::ConstraintSystem;
use zkp_runtime::ThreadPool;

const ROUNDS: usize = 16;

/// One session for the whole binary (the key depends only on the shape).
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

/// Sequential no-fault ground truth for `(circuit(x), seed)`.
fn expected_bytes(x: u64, seed: u64) -> [u8; zkp_groth16::PROOF_BYTES] {
    let cs = circuit(x);
    let mut rng = StdRng::seed_from_u64(seed);
    let (proof, _) = prove(session().pk(), &cs, &mut rng);
    proof.to_bytes()
}

/// Silences the default panic hook for *injected* panics only — the
/// suite injects hundreds of them on purpose and the backtrace spam
/// would bury real failures. Everything else still prints.
fn quiet_injected_panics() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("injected") {
                prev(info);
            }
        }));
    });
}

/// Runs `f` on a helper thread and fails the test if it has not finished
/// within `limit` — the no-deadlock bound. Panics from `f` propagate.
fn with_watchdog<F>(limit: Duration, f: F)
where
    F: FnOnce() + Send + 'static,
{
    let worker = std::thread::Builder::new()
        .name("chaos-run".into())
        .spawn(f)
        .expect("spawn chaos run");
    let t0 = Instant::now();
    while !worker.is_finished() {
        assert!(
            t0.elapsed() < limit,
            "chaos run still live after {limit:?} — service deadlocked"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    if let Err(payload) = worker.join() {
        std::panic::resume_unwind(payload);
    }
}

/// A per-worker fault-injecting CPU backend; worker index perturbs the
/// plan seed so concurrent workers see different (but reproducible)
/// schedules.
fn fault_factory(plan: FaultPlan, base_seed: u64) -> BackendFactory<Bls12381> {
    Arc::new(move |worker| {
        let seed = base_seed ^ (worker as u64).wrapping_mul(0x9e37_79b9);
        Box::new(FaultInjectingBackend::new(
            CpuBackend::global(),
            plan.clone().with_seed(seed),
        ))
    })
}

/// One chaos round: submit `jobs` mimc proofs through a fault-injected
/// service and check the resolution/byte-identity invariants.
fn run_chaos(
    workers: usize,
    base_seed: u64,
    error_rate: f64,
    panic_rate: f64,
    deadline: Option<Duration>,
) {
    quiet_injected_panics();
    let jobs: u64 = 6;
    let cfg = ServiceConfig {
        workers,
        capacity: 32,
        retry: RetryPolicy {
            max_retries: 4,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(8),
        },
        // Degradation off: this test wants every submission admitted so
        // each ticket's single resolution can be asserted. Degradation
        // has its own deterministic tests below.
        degrade_after_failures: 0,
    };
    let plan = FaultPlan::new(base_seed)
        .with_error_rate(error_rate)
        .with_panic_rate(panic_rate);
    let service = ProofService::start_with_backend(session(), cfg, fault_factory(plan, base_seed));

    let tickets: Vec<_> = (0..jobs)
        .map(|i| {
            service
                .submit_with_deadline(circuit(i + 1), base_seed ^ i, deadline)
                .expect("queue has room and degradation is off")
        })
        .collect();

    let max_attempts = 5; // 1 + max_retries
    for (i, ticket) in tickets.into_iter().enumerate() {
        let i = i as u64;
        match ticket.wait() {
            Ok(done) => {
                assert_eq!(
                    done.proof.to_bytes(),
                    expected_bytes(i + 1, base_seed ^ i),
                    "surviving proof {i} diverged from sequential no-fault prove"
                );
                assert!(verify(
                    session().vk(),
                    &done.proof,
                    &circuit(i + 1).assignment.public
                ));
                assert!(done.retries < max_attempts);
            }
            Err(JobError::DeadlineExpired { .. }) => {
                assert!(deadline.is_some(), "job {i} expired with no deadline set");
            }
            Err(JobError::Failed { attempts }) => {
                assert_eq!(attempts, max_attempts, "job {i} gave up early");
            }
            Err(JobError::ServiceStopped) => panic!("job {i} stranded by a live service"),
        }
    }
    let stats = service.shutdown();
    assert_eq!(
        stats.completed + stats.failed + stats.expired + stats.abandoned,
        jobs,
        "every job accounted for exactly once: {stats}"
    );
    assert_eq!(stats.rejected, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn chaos_every_job_resolves_and_survivors_match_sequential(
        fault_seed in any::<u64>(),
        error_pct in 0u32..6,
        panic_pct in 0u32..3,
        storm in any::<bool>(),
    ) {
        // Deadline storms give every job a tight deadline, forcing a mix
        // of dequeue drops and mid-prove abandonment alongside the
        // error/panic retries.
        let deadline = storm.then(|| Duration::from_millis(150));
        for workers in [1usize, 2, 8] {
            let seed = fault_seed ^ workers as u64;
            with_watchdog(Duration::from_secs(120), move || {
                run_chaos(
                    workers,
                    seed,
                    f64::from(error_pct) / 100.0,
                    f64::from(panic_pct) / 100.0,
                    deadline,
                );
            });
        }
    }
}

/// CI chaos-gate entry point: a randomized-seed run whose seed is logged
/// (and settable) via `CHAOS_SEED` for reproduction.
#[test]
fn chaos_randomized_seed_from_env() {
    let seed = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE);
    eprintln!("chaos_randomized_seed_from_env: CHAOS_SEED={seed}");
    with_watchdog(Duration::from_secs(120), move || {
        run_chaos(2, seed, 0.04, 0.01, None);
    });
}

/// Fault rate zero through the whole hardened stack must reproduce the
/// sequential digest with no retries, respawns, or degradation — the
/// "hardening is free when nothing fails" acceptance criterion.
#[test]
fn zero_fault_rate_reproduces_sequential_proofs_exactly() {
    let cfg = ServiceConfig::new(2, 16);
    let service =
        ProofService::start_with_backend(session(), cfg, fault_factory(FaultPlan::none(), 0));
    let tickets: Vec<_> = (0..4u64)
        .map(|i| service.submit(circuit(i + 1), 1000 + i).expect("admitted"))
        .collect();
    for (i, t) in tickets.into_iter().enumerate() {
        let i = i as u64;
        let done = t.wait().expect("no faults, no failures");
        assert_eq!(done.proof.to_bytes(), expected_bytes(i + 1, 1000 + i));
        assert_eq!(done.retries, 0);
    }
    let stats = service.shutdown();
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.retries, 0);
    assert_eq!(stats.respawns, 0);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.degraded_s, 0.0);
}

/// An exact injected error at the first op (the witness eval of the
/// first attempt) is retried, and the retried proof is byte-identical
/// to a fault-free sequential prove — the RNG re-seeds per attempt.
#[test]
fn injected_error_is_retried_to_a_byte_identical_proof() {
    quiet_injected_panics();
    let mut cfg = ServiceConfig::new(1, 4);
    cfg.retry = RetryPolicy {
        max_retries: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
    };
    let service = ProofService::start_with_backend(
        session(),
        cfg,
        fault_factory(FaultPlan::none().fail_at(0), 0),
    );
    let done = service
        .submit(circuit(21), 77)
        .expect("admitted")
        .wait()
        .expect("retry succeeds");
    assert_eq!(done.retries, 1);
    assert_eq!(done.proof.to_bytes(), expected_bytes(21, 77));
    let stats = service.shutdown();
    assert_eq!((stats.completed, stats.failed, stats.retries), (1, 0, 1));
    assert_eq!(stats.respawns, 0, "plain errors do not cost a worker");
}

/// One injected error under `backend`: `try_prove_in_on` returns it as a
/// typed `Err` (no unwinding), the trace holds exactly the ops that
/// completed, and the same session then proves byte-identically.
fn fails_at_op_3_then_recovers<B: ExecBackend<Bls12381>>(
    backend: &B,
    dispatched: impl Fn() -> u64,
) {
    let cs = circuit(3);
    let mut session = session().fork();
    let mut rng = StdRng::seed_from_u64(11);
    let err = session
        .try_prove_in_on(&cs, &mut rng, backend)
        .expect_err("op 3 is failed by the plan");
    // On a 1-thread pool the quotient's a-chain runs first: witness eval
    // #0, INTT #1, coset #2, NTT #3.
    assert!(
        matches!(
            err,
            BackendError::OpFailed {
                op: "ntt_forward",
                index: 3,
                ..
            }
        ),
        "{err}"
    );
    assert_eq!(
        backend.take_trace().records.len() as u64,
        dispatched() - 1,
        "every dispatched op but the failed one is recorded"
    );

    let mut rng = StdRng::seed_from_u64(11);
    let (proof, _) = session
        .try_prove_in_on(&cs, &mut rng, backend)
        .expect("the plan's only fault is spent");
    assert_eq!(proof.to_bytes(), expected_bytes(3, 11));
    assert_eq!(backend.take_trace().records.len(), 15);
}

/// Decorators compose in either order without losing the error channel.
#[test]
fn injected_error_is_an_err_under_either_decorator_nesting() {
    let pool = ThreadPool::with_threads(1);
    let plan = FaultPlan::new(1).fail_at(3);

    let traced_fault = TracingBackend::new(FaultInjectingBackend::new(
        CpuBackend::on(&pool),
        plan.clone(),
    ));
    fails_at_op_3_then_recovers(&traced_fault, || traced_fault.inner().ops_dispatched());

    let fault_traced = FaultInjectingBackend::new(TracingBackend::new(CpuBackend::on(&pool)), plan);
    fails_at_op_3_then_recovers(&fault_traced, || fault_traced.ops_dispatched());
}

/// A hook that returns `Ok` for ops of one kind without running their
/// kernel: a broken backend the prover must refuse, not trust.
struct SkipsKernel<'p> {
    inner: CpuBackend<'p>,
    skip: OpKind,
}

impl ExecBackend<Bls12381> for SkipsKernel<'_> {
    fn name(&self) -> String {
        "skips-kernel".into()
    }
    fn pool(&self) -> &ThreadPool {
        ExecBackend::<Bls12381>::pool(&self.inner)
    }
    fn run_op(&self, op: &Op<'_>, kernel: &mut dyn FnMut()) -> Result<(), BackendError> {
        if op.kind == self.skip {
            return Ok(());
        }
        ExecBackend::<Bls12381>::run_op(&self.inner, op, kernel)
    }
}

/// A skipped kernel is an `Err`, never a panic and never a proof.
#[test]
fn a_hook_that_skips_the_kernel_is_an_err() {
    let pool = ThreadPool::with_threads(1);
    let cs = circuit(3);
    for skip in [
        OpKind::WitnessEval,
        OpKind::NttInverse,
        OpKind::CosetMul,
        OpKind::NttForward,
        OpKind::MsmG1(G1Msm::H),
        OpKind::MsmG1(G1Msm::A),
        OpKind::MsmG2,
    ] {
        let backend = SkipsKernel {
            inner: CpuBackend::on(&pool),
            skip,
        };
        let mut rng = StdRng::seed_from_u64(11);
        let err = session()
            .fork()
            .try_prove_in_on(&cs, &mut rng, &backend)
            .expect_err("a skipped kernel yields no proof");
        assert!(
            matches!(err, BackendError::OpFailed { op, .. } if op == skip.name()),
            "{skip:?}: {err}"
        );
    }
}

/// Every op kind, end to end: failing the first op of that kind, at the
/// dispatch index a traced run of the same proof places it, reports it by
/// op name and index.
#[test]
fn each_op_kind_fails_its_first_op() {
    let pool = ThreadPool::with_threads(1);
    let cs = circuit(3);
    let traced = TracingBackend::new(CpuBackend::on(&pool));
    let mut rng = StdRng::seed_from_u64(11);
    session()
        .fork()
        .try_prove_in_on(&cs, &mut rng, &traced)
        .expect("no faults");
    // One thread: completion order is dispatch order.
    let kinds: Vec<OpKind> = ExecBackend::<Bls12381>::take_trace(&traced)
        .records
        .iter()
        .map(|r| r.kind)
        .collect();
    assert_eq!(kinds.len(), 15);
    // The expected name of each kind, written out here: the backend's own
    // mapping is what is under test.
    let name = |kind: OpKind| match kind {
        OpKind::WitnessEval => "witness_eval",
        OpKind::NttForward => "ntt_forward",
        OpKind::NttInverse => "ntt_inverse",
        OpKind::CosetMul => "coset_mul",
        OpKind::MsmG1(_) => "msm_g1",
        OpKind::MsmG2 => "msm_g2",
    };
    let mut seen = Vec::new();
    for (first, &kind) in kinds.iter().enumerate() {
        if seen.contains(&kind) {
            continue;
        }
        seen.push(kind);
        let (name, first) = (name(kind), first as u64);
        let plan = FaultPlan::none().fail_at(first);
        let backend = FaultInjectingBackend::new(CpuBackend::on(&pool), plan);
        let mut rng = StdRng::seed_from_u64(11);
        let err = session()
            .fork()
            .try_prove_in_on(&cs, &mut rng, &backend)
            .expect_err("the kind's first op fails");
        assert!(
            matches!(err, BackendError::OpFailed { op, index, .. } if op == name && index == first),
            "{kind:?}: expected {name} #{first}, got {err}"
        );
    }
    assert_eq!(seen.len(), 7, "every op kind is traced: {seen:?}");
}

/// Errors at ops 0, 1, and 2 kill all three attempts (each failed
/// attempt consumes exactly one op index — the witness eval), so the
/// job resolves as `Failed { attempts: 3 }`.
#[test]
fn exhausted_retries_resolve_failed() {
    quiet_injected_panics();
    let mut cfg = ServiceConfig::new(1, 4);
    cfg.retry = RetryPolicy {
        max_retries: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
    };
    cfg.degrade_after_failures = 0;
    let service = ProofService::start_with_backend(
        session(),
        cfg,
        fault_factory(FaultPlan::none().fail_at(0).fail_at(1).fail_at(2), 0),
    );
    let out = service.submit(circuit(4), 5).expect("admitted").wait();
    assert_eq!(out.unwrap_err(), JobError::Failed { attempts: 3 });
    let stats = service.shutdown();
    assert_eq!((stats.completed, stats.failed, stats.retries), (0, 1, 2));
}

/// An injected panic is caught, the job still succeeds on retry with
/// byte-identical output, and the worker replaces itself afterwards.
#[test]
fn injected_panic_retries_and_respawns_the_worker() {
    quiet_injected_panics();
    let mut cfg = ServiceConfig::new(1, 4);
    cfg.retry = RetryPolicy {
        max_retries: 1,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
    };
    let service = ProofService::start_with_backend(
        session(),
        cfg,
        fault_factory(FaultPlan::none().panic_at(0), 0),
    );
    let done = service
        .submit(circuit(8), 13)
        .expect("admitted")
        .wait()
        .expect("retry after panic succeeds");
    assert_eq!(done.proof.to_bytes(), expected_bytes(8, 13));
    let stats = service.shutdown();
    assert_eq!((stats.completed, stats.failed), (1, 0));
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.respawns, 1, "a panicked worker must replace itself");
}

/// A panicking sole worker must not strand the backlog: its replacement
/// (with a fresh backend whose op counter restarts, hence `panic_at(0)`
/// fires again per worker generation) keeps draining until every ticket
/// resolves.
#[test]
fn respawned_workers_drain_the_backlog() {
    quiet_injected_panics();
    let mut cfg = ServiceConfig::new(1, 8);
    cfg.retry = RetryPolicy {
        max_retries: 1,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
    };
    let service = ProofService::start_with_backend(
        session(),
        cfg,
        fault_factory(FaultPlan::none().panic_at(0), 0),
    );
    let tickets: Vec<_> = (0..3u64)
        .map(|i| service.submit(circuit(i + 2), i).expect("admitted"))
        .collect();
    for (i, t) in tickets.into_iter().enumerate() {
        let i = i as u64;
        let done = t.wait().expect("every job completes despite panics");
        assert_eq!(done.proof.to_bytes(), expected_bytes(i + 2, i));
    }
    let stats = service.shutdown();
    assert_eq!(stats.completed, 3);
    // Each replacement gets a fresh backend whose op counter restarts at
    // zero, so `panic_at(0)` fires once per worker generation: every job
    // panics on its first attempt, succeeds on retry, and costs one
    // respawn — three generations for three jobs.
    assert_eq!(stats.respawns, 3);
    assert_eq!(stats.retries, 3);
}

/// A delayed first op plus a short deadline forces mid-prove
/// abandonment: the deadline passes while the witness eval sleeps, the
/// next stage boundary abandons, and the ticket expires without the
/// service finishing dead work.
#[test]
fn mid_prove_deadline_abandons_instead_of_finishing() {
    quiet_injected_panics();
    let mut cfg = ServiceConfig::new(1, 4);
    cfg.retry = RetryPolicy::none();
    let service = ProofService::start_with_backend(
        session(),
        cfg,
        fault_factory(FaultPlan::none().delay_at(0, Duration::from_millis(120)), 0),
    );
    let out = service
        .submit_with_deadline(circuit(6), 3, Some(Duration::from_millis(60)))
        .expect("admitted")
        .wait();
    assert!(
        matches!(out, Err(JobError::DeadlineExpired { .. })),
        "expected mid-prove abandonment, got {out:?}"
    );
    let stats = service.shutdown();
    assert_eq!(stats.completed, 0);
    assert_eq!(stats.expired, 0, "the job was dequeued in time");
    assert_eq!(stats.abandoned, 1, "…but abandoned between stages");
}

/// Two consecutive failures trip shed-load mode: new submissions are
/// rejected with `SubmitError::Degraded` and counted as rejected.
#[test]
fn consecutive_failures_trip_degraded_mode() {
    quiet_injected_panics();
    let mut cfg = ServiceConfig::new(1, 8);
    cfg.retry = RetryPolicy::none();
    cfg.degrade_after_failures = 2;
    let service = ProofService::start_with_backend(
        session(),
        cfg,
        fault_factory(FaultPlan::none().fail_at(0).fail_at(1), 0),
    );
    for i in 0..2u64 {
        let out = service.submit(circuit(i + 3), i).expect("admitted").wait();
        assert_eq!(out.unwrap_err(), JobError::Failed { attempts: 1 });
    }
    // note_failure runs before the ticket resolves, so after the second
    // failed wait() the flag is deterministically visible.
    assert!(service.is_degraded());
    match service.submit(circuit(9), 9) {
        Err(e) => assert_eq!(e, SubmitError::Degraded),
        Ok(_) => panic!("degraded service admitted a job"),
    }
    let stats = service.shutdown();
    assert_eq!((stats.failed, stats.rejected), (2, 1));
    assert!(stats.degraded_s > 0.0, "open degraded interval is counted");
}

/// Queued successes behind the failures recover the service: the
/// degraded window opens, then closes after four consecutive
/// completions — hysteresis, not flapping.
#[test]
fn degraded_mode_recovers_after_consecutive_successes() {
    quiet_injected_panics();
    let mut cfg = ServiceConfig::new(1, 8);
    cfg.retry = RetryPolicy::none();
    cfg.degrade_after_failures = 2;
    // Hold the worker on job 0 long enough for the whole burst to queue
    // (ops: job0 = 0..15 delayed at 0, job1 fails at 15, job2 at 16,
    // then jobs 3..=6 prove clean and the fourth recovers the service).
    let plan = FaultPlan::none()
        .delay_at(0, Duration::from_millis(300))
        .fail_at(15)
        .fail_at(16);
    let service = ProofService::start_with_backend(session(), cfg, fault_factory(plan, 0));
    let tickets: Vec<_> = (0..7u64)
        .map(|i| service.submit(circuit(i + 1), i).expect("admitted"))
        .collect();
    let outcomes: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
    assert!(outcomes[0].is_ok(), "held job still completes");
    assert!(outcomes[1].is_err() && outcomes[2].is_err());
    assert!(
        outcomes[3..].iter().all(Result::is_ok),
        "post-failure jobs complete"
    );
    assert!(!service.is_degraded(), "successes recovered the service");
    let stats = service.shutdown();
    assert_eq!((stats.completed, stats.failed), (5, 2));
    assert!(stats.degraded_s > 0.0);
}
