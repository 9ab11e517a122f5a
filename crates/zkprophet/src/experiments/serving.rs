//! Proof-serving throughput: the multi-proof scheduler under load.
//!
//! The paper characterizes *single-proof* latency; deployments run
//! provers as a service, where the question becomes proofs/second at a
//! given concurrency and what the tail latency costs. This experiment
//! drives the real `zkp_groth16::ProofService` — forked proving sessions
//! over the shared thread pool, bounded admission queue — with a batch of
//! MiMC proofs per concurrency level and reports throughput, latency
//! percentiles, and the cold-vs-warm session amortization that the
//! zero-reallocation workspace buys.
//!
//! Everything here is **measured on the host CPU** (real proofs, wall
//! clock) rather than modeled — it characterizes the serving layer itself.

use crate::report::{f, secs, Table};
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;
use zkp_curves::bls12_381::Bls12381;
use zkp_ff::{Field, Fr381};
use zkp_groth16::{setup, ProofService, ProverSession};
use zkp_r1cs::circuits::mimc;
use zkp_r1cs::ConstraintSystem;

/// MiMC rounds for the serving workload: 2·255 constraints land on a 2^9
/// domain — a real proof in single-digit milliseconds, so a full sweep
/// stays inside a report run.
pub const SERVING_ROUNDS: usize = 255;

/// One concurrency level of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct ServingPoint {
    /// Service worker threads.
    pub workers: usize,
    /// Jobs submitted (all completed).
    pub jobs: u64,
    /// Completed proofs per wall-clock second.
    pub proofs_per_sec: f64,
    /// Median end-to-end latency (queue + prove), seconds.
    pub latency_p50_s: f64,
    /// 95th-percentile end-to-end latency, seconds.
    pub latency_p95_s: f64,
    /// Worst-case end-to-end latency, seconds.
    pub latency_max_s: f64,
    /// Median queue wait, seconds.
    pub queue_wait_p50_s: f64,
    /// Throughput relative to the 1-worker point.
    pub speedup_vs_1: f64,
}

/// The serving sweep plus the session cold/warm split.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// Circuit rounds ([`SERVING_ROUNDS`]).
    pub rounds: usize,
    /// NTT domain size of the workload.
    pub domain_size: u64,
    /// First proof through a fresh session (sizes the workspace).
    pub cold_s: f64,
    /// Best steady-state proof (workspace reused, zero allocation).
    pub warm_s: f64,
    /// One point per concurrency level.
    pub points: Vec<ServingPoint>,
}

/// Job `i` of a sweep (shared with the resilience sweep): MiMC over
/// [`SERVING_ROUNDS`] rounds from input `1 + i`.
pub(crate) fn job_circuit(i: u64) -> ConstraintSystem<Fr381> {
    mimc(Fr381::from_u64(1 + i), SERVING_ROUNDS)
}

/// Runs the sweep: `jobs_per_point` proofs at each level of
/// `concurrency`, all against one shared session.
pub fn serving_report(jobs_per_point: u64, concurrency: &[usize]) -> ServingReport {
    let cs = job_circuit(12);
    let mut rng = StdRng::seed_from_u64(21);
    let pk = setup::<Bls12381, _>(&cs, &mut rng);
    let mut session = ProverSession::new(pk);
    let domain_size = session.domain_size();

    // Cold vs warm: the first proof grows every workspace buffer; the
    // steady state reuses them without touching the heap.
    let mut rng = StdRng::seed_from_u64(33);
    let t = Instant::now();
    let _ = session.prove_in(&cs, &mut rng);
    let cold_s = t.elapsed().as_secs_f64();
    let warm_s = (0..3)
        .map(|_| {
            let mut rng = StdRng::seed_from_u64(33);
            let t = Instant::now();
            let _ = session.prove_in(&cs, &mut rng);
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);

    let mut points = Vec::new();
    let mut base_throughput = None;
    for &workers in concurrency {
        let service = ProofService::start(&session, workers, jobs_per_point as usize);
        let tickets: Vec<_> = (0..jobs_per_point)
            .map(|i| {
                service
                    .submit(job_circuit(i), 100 + i)
                    .expect("queue sized for the batch")
            })
            .collect();
        for ticket in tickets {
            ticket.wait().expect("serving job completes");
        }
        let stats = service.shutdown();
        let base = *base_throughput.get_or_insert(stats.proofs_per_sec);
        points.push(ServingPoint {
            workers,
            jobs: stats.completed,
            proofs_per_sec: stats.proofs_per_sec,
            latency_p50_s: stats.latency_p50_s,
            latency_p95_s: stats.latency_p95_s,
            latency_max_s: stats.latency_max_s,
            queue_wait_p50_s: stats.queue_wait_p50_s,
            speedup_vs_1: if base > 0.0 {
                stats.proofs_per_sec / base
            } else {
                0.0
            },
        });
    }
    ServingReport {
        rounds: SERVING_ROUNDS,
        domain_size,
        cold_s,
        warm_s,
        points,
    }
}

/// Renders the sweep as the report's serving section.
pub fn render_serving(report: &ServingReport) -> String {
    let mut t = Table::new(
        &format!(
            "Proof service throughput — mimc({}) on a 2^{} domain, real CPU proofs",
            report.rounds,
            report.domain_size.trailing_zeros()
        ),
        &[
            "workers",
            "jobs",
            "proofs/s",
            "p50 latency",
            "p95 latency",
            "max latency",
            "p50 queue wait",
            "speedup vs 1",
        ],
    );
    for p in &report.points {
        t.row(vec![
            p.workers.to_string(),
            p.jobs.to_string(),
            f(p.proofs_per_sec),
            secs(p.latency_p50_s),
            secs(p.latency_p95_s),
            secs(p.latency_max_s),
            secs(p.queue_wait_p50_s),
            format!("{:.2}x", p.speedup_vs_1),
        ]);
    }
    let mut out = t.render();
    out += &format!(
        "session amortization: cold proof {} (workspace sizing) vs warm {} ({:.2}x); \
         steady-state prove_in allocates nothing on the hot path\n",
        secs(report.cold_s),
        secs(report.warm_s),
        if report.warm_s > 0.0 {
            report.cold_s / report.warm_s
        } else {
            0.0
        }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_concurrency_level() {
        let report = serving_report(3, &[1, 2]);
        assert_eq!(report.points.len(), 2);
        assert_eq!(report.domain_size, 512);
        assert!(report.cold_s > 0.0 && report.warm_s > 0.0);
        for p in &report.points {
            assert_eq!(p.jobs, 3);
            assert!(p.proofs_per_sec > 0.0);
            assert!(p.latency_p95_s >= p.latency_p50_s);
        }
        assert!((report.points[0].speedup_vs_1 - 1.0).abs() < 1e-9);
        let rendered = render_serving(&report);
        assert!(rendered.contains("Proof service throughput"));
        assert!(rendered.contains("session amortization"));
    }
}
