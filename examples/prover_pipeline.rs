//! The kernel-layer study (§IV-A): Table II, Figs. 1/5/6/7, Table III —
//! the full per-scale sweep of the GPU prover pipeline, plus the
//! generational study (Fig. 11) and the precompute trade-off (Fig. 12).
//!
//! Pass `--all` for the complete report including the FF-op layer.
//!
//! Pass `--backend <spec>` to instead run **real proofs** through a
//! pluggable execution backend via a reusable [`ProverSession`] and print
//! the trace-derived breakdown: `cpu`, `tracing`, or
//! `sim:<device>[:<lib>]` (e.g. `sim:a40:sppark`). `--mimc N` sizes the
//! MiMC circuit; `--rounds N` proves N times through one session so the
//! cold (workspace-sizing) round can be compared with the warm
//! steady-state rounds, which allocate nothing on the hot path.
//!
//! Pass `--faults <rate>` to serve a batch of real proofs through the
//! fault-tolerant `ProofService` with a deterministic per-op error rate
//! injected under every worker (`--deadline-ms N` adds a per-job
//! deadline so some jobs expire or are abandoned mid-prove). The binary
//! asserts that every surviving proof verifies and prints the service's
//! `ServiceStats` summary line.
//!
//! ```sh
//! cargo run --release -p zkp-examples --bin prover_pipeline [device] [--all]
//! cargo run --release -p zkp-examples --bin prover_pipeline -- --backend sim:a40:sppark --rounds 3
//! cargo run --release -p zkp-examples --bin prover_pipeline -- --faults 0.05 --deadline-ms 2000
//! ```

use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;
use zkp_curves::bls12_381::Bls12381;
use zkp_examples::device_from_args;
use zkp_ff::{Field, Fr381};
use zkp_groth16::{setup, verify, ProverSession};
use zkp_r1cs::circuits::mimc;
use zkprophet::experiments::{e2e_trace, energy, kernel_layer, scaling};
use zkprophet::{full_report, BackendSpec};

fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

/// Runs `session_rounds` real proofs through one [`ProverSession`] on the
/// chosen backend, prints the cold/warm timing split and the
/// trace-derived per-stage breakdown (priced, plus the Amdahl
/// extrapolation, when the spec names a simulated device).
fn run_backend_demo(spec_str: &str, mimc_rounds: usize, session_rounds: usize) {
    let spec = BackendSpec::parse(spec_str).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let backend = spec.build::<Bls12381>();
    let model = match &spec {
        BackendSpec::Sim(model) => Some(model.clone()),
        _ => None,
    };
    println!("backend: {}", backend.name());
    println!("circuit: mimc, {mimc_rounds} rounds");

    let cs = mimc(Fr381::from_u64(11), mimc_rounds);
    let mut rng = StdRng::seed_from_u64(42);
    let pk = setup::<Bls12381, _>(&cs, &mut rng);
    let mut session = ProverSession::new(pk);
    println!(
        "session: domain 2^{}, plans {:.2} MiB `{}`",
        session.domain_size().trailing_zeros(),
        session.plan().storage_bytes() as f64 / (1024.0 * 1024.0),
        session.plan().algorithm()
    );

    // Every round reseeds the prover RNG identically, so every round must
    // produce the same bytes — the cheapest possible integrity check that
    // workspace reuse never leaks state between proofs.
    let mut timings = Vec::with_capacity(session_rounds);
    let mut first: Option<(zkp_groth16::Proof<Bls12381>, _, _)> = None;
    for round in 1..=session_rounds {
        let mut rng = StdRng::seed_from_u64(9);
        let start = Instant::now();
        let (proof, stats) = session.prove_in_on(&cs, &mut rng, backend.as_ref());
        let elapsed = start.elapsed().as_secs_f64();
        timings.push(elapsed);
        let label = if round == 1 { "cold" } else { "warm" };
        println!("round {round} ({label}): {elapsed:.3}s");
        match &first {
            None => {
                // Round 1 owns the trace; later rounds would append to it.
                let trace = backend.take_trace();
                first = Some((proof, stats, trace));
            }
            Some((p0, _, _)) => {
                assert_eq!(
                    proof.to_bytes(),
                    p0.to_bytes(),
                    "warm round {round} diverged from the cold proof"
                );
            }
        }
    }
    let (proof, stats, trace) = first.expect("at least one round");
    let measured_prove_s = timings[0];
    if let Some(best_warm) = timings[1..]
        .iter()
        .copied()
        .fold(None::<f64>, |m, t| Some(m.map_or(t, |m| m.min(t))))
    {
        println!(
            "session amortization: cold {:.3}s vs best warm {best_warm:.3}s ({:.2}x)",
            timings[0],
            timings[0] / best_warm
        );
    }
    let verified = verify(session.vk(), &proof, &cs.assignment.public);
    println!("stats:   {stats:?}");
    // Machine-greppable digest: proof bytes must be identical whichever
    // backend ran.
    let digest: String = proof
        .to_bytes()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    println!("proof:   {digest}");
    println!();

    if trace.records.is_empty() {
        // The plain CPU backend records nothing; report the run only.
        println!(
            "proved in {measured_prove_s:.3}s, verified: {verified} \
             (backend records no trace; try tracing or sim:<device>)"
        );
        if !verified {
            std::process::exit(1);
        }
        return;
    }
    let tp = e2e_trace::TracedProof {
        trace,
        model,
        verified,
        measured_prove_s,
    };
    println!("{}", e2e_trace::render_trace_breakdown(&tp));
    if let Some(model) = &tp.model {
        println!("{}", e2e_trace::render_amdahl(&model.device));
    }
    if !verified {
        std::process::exit(1);
    }
}

/// Serves `JOBS` real MiMC proofs through the hardened `ProofService`
/// with a fault-injecting backend under every worker, asserting
/// in-binary that every surviving proof verifies. Errors only (no
/// injected panics): this is a console demo, not the chaos suite.
fn run_fault_demo(rate: f64, deadline_ms: Option<u64>, mimc_rounds: usize) {
    use std::sync::Arc;
    use std::time::Duration;
    use zkp_backend::{CpuBackend, FaultInjectingBackend, FaultPlan};
    use zkp_groth16::{BackendFactory, JobError, ProofService, RetryPolicy, ServiceConfig};

    const JOBS: u64 = 8;
    println!(
        "fault-injected proof service: per-op error rate {:.1}%, deadline {}, mimc({mimc_rounds})",
        rate * 100.0,
        deadline_ms.map_or("none".into(), |ms| format!("{ms} ms")),
    );
    let cs = mimc(Fr381::from_u64(11), mimc_rounds);
    let mut rng = StdRng::seed_from_u64(42);
    let pk = setup::<Bls12381, _>(&cs, &mut rng);
    let session = ProverSession::new(pk);

    let mut cfg = ServiceConfig::new(2, JOBS as usize);
    cfg.retry = RetryPolicy {
        max_retries: 3,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(10),
    };
    cfg.degrade_after_failures = 0; // fixed offered load: admit the whole batch
    let factory: BackendFactory<Bls12381> = Arc::new(move |worker| {
        Box::new(FaultInjectingBackend::new(
            CpuBackend::global(),
            FaultPlan::new(0xFA17 ^ worker as u64).with_error_rate(rate),
        ))
    });
    let service = ProofService::start_with_backend(&session, cfg, factory);
    let deadline = deadline_ms.map(Duration::from_millis);
    let tickets: Vec<_> = (0..JOBS)
        .map(|i| {
            let cs = mimc(Fr381::from_u64(100 + i), mimc_rounds);
            service
                .submit_with_deadline(cs, 7 + i, deadline)
                .expect("queue sized for the batch")
        })
        .collect();
    let (mut ok, mut failed, mut expired) = (0u64, 0u64, 0u64);
    for (i, ticket) in tickets.into_iter().enumerate() {
        match ticket.wait() {
            Ok(done) => {
                let cs = mimc(Fr381::from_u64(100 + i as u64), mimc_rounds);
                assert!(
                    verify(session.vk(), &done.proof, &cs.assignment.public),
                    "surviving proof {i} failed verification"
                );
                ok += 1;
                println!(
                    "job {i}: ok ({} retries, {:.3}s end-to-end)",
                    done.retries,
                    done.latency().as_secs_f64()
                );
            }
            Err(JobError::DeadlineExpired { waited }) => {
                expired += 1;
                println!(
                    "job {i}: deadline expired after {:.3}s",
                    waited.as_secs_f64()
                );
            }
            Err(JobError::Failed { attempts }) => {
                failed += 1;
                println!("job {i}: failed after {attempts} attempts");
            }
            Err(JobError::ServiceStopped) => println!("job {i}: service stopped"),
        }
    }
    let stats = service.shutdown();
    println!("service: {stats}");
    assert_eq!(ok, stats.completed, "ticket/stats completion mismatch");
    assert_eq!(ok + failed + expired, JOBS, "a job went unaccounted");
    println!("all {ok} surviving proofs verified");
}

fn main() {
    if let Some(rate) = arg_value("--faults") {
        let rate: f64 = rate.parse().unwrap_or_else(|_| {
            eprintln!("--faults expects a rate in [0, 1], e.g. 0.05");
            std::process::exit(2);
        });
        let deadline_ms = arg_value("--deadline-ms").and_then(|v| v.parse().ok());
        let mimc_rounds = arg_value("--mimc")
            .and_then(|r| r.parse().ok())
            .unwrap_or(255);
        run_fault_demo(rate.clamp(0.0, 1.0), deadline_ms, mimc_rounds);
        return;
    }
    if let Some(spec) = arg_value("--backend") {
        let mimc_rounds = arg_value("--mimc")
            .and_then(|r| r.parse().ok())
            .unwrap_or(e2e_trace::TRACE_ROUNDS);
        let session_rounds = arg_value("--rounds")
            .and_then(|r| r.parse().ok())
            .unwrap_or(1)
            .max(1);
        run_backend_demo(&spec, mimc_rounds, session_rounds);
        return;
    }
    let device = device_from_args();
    if std::env::args().any(|a| a == "--all") {
        println!("{}", full_report(&device));
        return;
    }
    println!("target: {}\n", device.name);
    println!(
        "{}",
        kernel_layer::render_table2(&kernel_layer::table2(&device))
    );
    println!(
        "{}",
        kernel_layer::render_fig1(&kernel_layer::fig1(&device))
    );
    println!(
        "{}",
        kernel_layer::render_fig5(&kernel_layer::fig5(&device))
    );
    println!(
        "{}",
        kernel_layer::render_fig6(&kernel_layer::fig6(&device))
    );
    println!(
        "{}",
        kernel_layer::render_fig7(&kernel_layer::fig7(&device))
    );
    println!("{}", energy::render_table3(&energy::table3(&device)));
    println!("{}", scaling::render_fig11(&scaling::fig11()));
    println!("{}", scaling::render_fig12(&scaling::fig12()));
    println!(
        "{}",
        scaling::render_montgomery_trick(&scaling::montgomery_trick())
    );
    println!("{}", kernel_layer::render_absolute_times(&device));
}
