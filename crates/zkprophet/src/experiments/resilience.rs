//! Proof-serving resilience: the hardened service under injected faults.
//!
//! The serving sweep (`serving.rs`) asks what the scheduler delivers
//! when every op succeeds; a production prover also has to answer what
//! happens when ops *fail*. This experiment drives the real
//! `zkp_groth16::ProofService` — retry/backoff, panic isolation,
//! shed-load degradation — through a seeded
//! [`FaultInjectingBackend`],
//! sweeping per-op fault rates × worker counts over real MiMC proofs,
//! and reports goodput (completed proofs per second), p95 latency, and
//! retry amplification (attempts per completed proof).
//!
//! The zero-fault row doubles as the hardening-overhead check: the
//! fallible execution path must deliver the same throughput (±10%) as
//! the pre-hardening service, which the serving sweep measures.
//!
//! Injection is errors-only here (no panics): the report is generated
//! from a normal binary where the default panic hook would spray
//! backtraces into the output. Panic isolation is exercised by the
//! chaos test suite instead.

use super::serving::{job_circuit, SERVING_ROUNDS};
use crate::report::{f, secs, Table};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;
use zkp_backend::fault::splitmix64;
use zkp_backend::{CpuBackend, FaultInjectingBackend, FaultPlan};
use zkp_curves::bls12_381::Bls12381;
use zkp_groth16::{
    setup, verify, BackendFactory, ProofService, ProverSession, RetryPolicy, ServiceConfig,
};

/// One (fault rate, worker count) cell of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct ResiliencePoint {
    /// Per-op injected error probability.
    pub fault_rate: f64,
    /// Service worker threads.
    pub workers: usize,
    /// Jobs submitted.
    pub jobs: u64,
    /// Jobs that produced a (verified) proof.
    pub completed: u64,
    /// Jobs that exhausted every retry.
    pub failed: u64,
    /// Completed proofs per wall-clock second — throughput that
    /// survived the faults, not raw attempt rate.
    pub goodput_per_sec: f64,
    /// 95th-percentile end-to-end latency among completed jobs, seconds.
    pub latency_p95_s: f64,
    /// Retry attempts across all jobs.
    pub retries: u64,
    /// Attempts per completed proof (1.0 = nothing wasted).
    pub retry_amplification: f64,
}

/// The resilience sweep.
#[derive(Debug, Clone)]
pub struct ResilienceReport {
    /// Circuit rounds ([`SERVING_ROUNDS`], the serving sweep's workload).
    pub rounds: usize,
    /// NTT domain size of the workload.
    pub domain_size: u64,
    /// Attempts a job gets before resolving as failed.
    pub max_attempts: u32,
    /// One point per (fault rate, worker count) pair.
    pub points: Vec<ResiliencePoint>,
}

/// Runs the sweep: `jobs_per_point` proofs at every `fault_rates` ×
/// `concurrency` cell, all against one shared session. Fault schedules
/// are seeded per cell, so the sweep is reproducible run to run.
pub fn resilience_report(
    jobs_per_point: u64,
    fault_rates: &[f64],
    concurrency: &[usize],
) -> ResilienceReport {
    let cs = job_circuit(12);
    let mut rng = StdRng::seed_from_u64(21);
    let pk = setup::<Bls12381, _>(&cs, &mut rng);
    let session = ProverSession::new(pk);
    let domain_size = session.domain_size();

    let retry = RetryPolicy {
        max_retries: 3,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(8),
    };
    let max_attempts = retry.max_retries + 1;

    let mut points = Vec::new();
    for (ri, &rate) in fault_rates.iter().enumerate() {
        for &workers in concurrency {
            let cfg = ServiceConfig {
                workers,
                capacity: jobs_per_point as usize,
                retry,
                // Degradation off: the sweep measures goodput over a
                // fixed offered load, so every job must be admitted.
                degrade_after_failures: 0,
            };
            let cell_seed = splitmix64(((ri as u64) << 16) | workers as u64);
            let plan = FaultPlan::new(cell_seed).with_error_rate(rate);
            let factory: BackendFactory<Bls12381> = Arc::new(move |worker| {
                let seed = cell_seed ^ (worker as u64).wrapping_mul(0x9e37_79b9);
                Box::new(FaultInjectingBackend::new(
                    CpuBackend::global(),
                    plan.clone().with_seed(seed),
                ))
            });
            let service = ProofService::start_with_backend(&session, cfg, factory);
            let tickets: Vec<_> = (0..jobs_per_point)
                .map(|i| {
                    service
                        .submit(job_circuit(i), 500 + i)
                        .expect("queue sized for the batch")
                })
                .collect();
            let survivors: Vec<_> = tickets
                .into_iter()
                .enumerate()
                .filter_map(|(i, ticket)| Some((i as u64, ticket.wait().ok()?)))
                .collect();
            // Shut down before verifying: goodput's wall-clock window must
            // match the serving sweep's (prove time only), and verification
            // is a correctness gate, not part of the served workload.
            let stats = service.shutdown();
            for (i, done) in &survivors {
                assert!(
                    verify(
                        session.vk(),
                        &done.proof,
                        &job_circuit(*i).assignment.public
                    ),
                    "surviving proof failed verification under fault injection"
                );
            }
            points.push(ResiliencePoint {
                fault_rate: rate,
                workers,
                jobs: jobs_per_point,
                completed: stats.completed,
                failed: stats.failed,
                goodput_per_sec: stats.proofs_per_sec,
                latency_p95_s: stats.latency_p95_s,
                retries: stats.retries,
                retry_amplification: stats.retry_amplification(),
            });
        }
    }
    ResilienceReport {
        rounds: SERVING_ROUNDS,
        domain_size,
        max_attempts,
        points,
    }
}

/// Renders the sweep as the report's resilience section.
pub fn render_resilience(report: &ResilienceReport) -> String {
    let mut t = Table::new(
        &format!(
            "Proof service resilience — mimc({}) on a 2^{} domain, \
             injected per-op faults, {} attempts/job",
            report.rounds,
            report.domain_size.trailing_zeros(),
            report.max_attempts
        ),
        &[
            "fault rate",
            "workers",
            "jobs",
            "ok",
            "failed",
            "goodput/s",
            "p95 latency",
            "retries",
            "retry amp",
        ],
    );
    for p in &report.points {
        t.row(vec![
            format!("{:.0}%", p.fault_rate * 100.0),
            p.workers.to_string(),
            p.jobs.to_string(),
            p.completed.to_string(),
            p.failed.to_string(),
            f(p.goodput_per_sec),
            secs(p.latency_p95_s),
            p.retries.to_string(),
            format!("{:.2}x", p.retry_amplification),
        ]);
    }
    let mut out = t.render();
    out += "goodput counts only completed (verified) proofs; retry amplification is \
            total attempts per completed proof — the price of keeping the pipeline \
            alive under fallible ops\n";
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_accounts_for_every_job() {
        let report = resilience_report(3, &[0.0, 0.05], &[1, 2]);
        assert_eq!(report.points.len(), 4);
        assert_eq!(report.domain_size, 512);
        for p in &report.points {
            assert_eq!(
                p.completed + p.failed,
                p.jobs,
                "every job resolves as ok or failed"
            );
            assert!(p.retry_amplification >= 1.0 || p.jobs == 0);
        }
        // The zero-fault cells complete everything with no retries.
        for p in report.points.iter().filter(|p| p.fault_rate == 0.0) {
            assert_eq!(p.completed, p.jobs);
            assert_eq!((p.failed, p.retries), (0, 0));
            assert!((p.retry_amplification - 1.0).abs() < 1e-12);
        }
        let rendered = render_resilience(&report);
        assert!(rendered.contains("Proof service resilience"));
        assert!(rendered.contains("retry amp"));
    }
}
