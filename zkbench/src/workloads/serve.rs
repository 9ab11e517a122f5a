//! `serve_dense_256`: batches of distinct MiMC jobs through `ProofService`,
//! submitted together and waited for, as a sequencer closing a batch does.

use super::prove::check_proofs;
use super::{fnv1a, measure, put_median, Outcome, RunCfg, SetupTimes};
use crate::adapter::{
    global_pool_threads, mimc, setup, ConstraintSystem, CpuBackend, Field, Fr, Proof,
    ProverSession, Rng, SeedableRng, Service, StdRng, ThreadPool,
};
use crate::clock::{median, tail};
use crate::metrics::Values;
use crate::spans::Meter;

/// Queue capacity: far above one batch, so admission never rejects.
const CAPACITY: usize = 64;

fn job(cfg: &RunCfg, rng: &mut StdRng) -> (ConstraintSystem, u64) {
    (mimc(Fr::random(rng), cfg.sizes.serve_rounds), rng.gen())
}

/// What one batch produced.
struct Batch {
    /// Proofs with their public inputs.
    proofs: Vec<(Proof, Vec<Fr>)>,
    /// Each job's `(queue wait, latency)` in wall seconds.
    timings: Vec<(f64, f64)>,
    /// Jobs that were refused or did not produce a proof.
    lost: u64,
}

/// Submits `jobs` together and waits for all of them.
fn run_batch(service: &Service, jobs: Vec<(ConstraintSystem, u64)>) -> Batch {
    let mut lost = 0;
    let mut tickets = Vec::with_capacity(jobs.len());
    for (cs, seed) in jobs {
        let inputs = cs.assignment.public.clone();
        match service.submit(cs, seed) {
            Ok(ticket) => tickets.push((ticket, inputs)),
            Err(_) => lost += 1,
        }
    }
    let mut proofs = Vec::with_capacity(tickets.len());
    let mut timings = Vec::with_capacity(tickets.len());
    for (ticket, inputs) in tickets {
        match ticket.wait() {
            Ok(done) => {
                timings.push((done.queue_wait.as_secs_f64(), done.latency().as_secs_f64()));
                proofs.push((done.proof, inputs));
            }
            Err(_) => lost += 1,
        }
    }
    Batch {
        proofs,
        timings,
        lost,
    }
}

/// Runs the workload.
pub fn run(cfg: &RunCfg, meter: &mut Meter, layer: &mut Values) -> Outcome {
    const NAME: &str = "serve_dense_256";
    let workers = cfg.plan.workers;
    let batch = cfg.sizes.serve_batch;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Set-up: synthesis, key generation, session, one cold proof, service
    // start, and warm-up jobs that size each worker's workspace.
    meter.spans.scope(NAME, -1);
    let mut setups = SetupTimes::default();
    let mut last: Option<(Service, ProverSession)> = None;
    while setups.wants_more(cfg) {
        if let Some((service, _)) = last.take() {
            service.shutdown();
        }
        meter.cal.refresh();
        let ((cs, seed), t_synth, _) = meter.timed("r1cs", "synthesize", || job(cfg, &mut rng));
        let (pk, t_keygen, _) = meter.timed("groth16", "setup", || setup(&cs, &mut rng));
        let (mut session, t_session, _) =
            meter.timed("groth16", "ProverSession::new", || ProverSession::new(pk));
        let (_, t_cold, _) = meter.timed("groth16", "prove_in(cold)", || {
            session.prove_in(&cs, &mut StdRng::seed_from_u64(seed)).0
        });
        let warmup: Vec<_> = (0..2 * workers).map(|_| job(cfg, &mut rng)).collect();
        let (service, t_start, _) = meter.timed("groth16", "ProofService::start+warm-up", || {
            let service = Service::start(&session, workers, CAPACITY);
            let warm = run_batch(&service, warmup);
            assert_eq!(warm.lost, 0, "warm-up job was refused or failed");
            service
        });
        setups.push(&[t_synth, t_keygen, t_session, t_cold, t_start]);
        last = Some((service, session));
    }
    let (service, mut session) = last.expect("at least one set-up repetition");

    // Measured window: one batch per op.
    let mut proofs: Vec<(Proof, Vec<Fr>)> = Vec::new();
    let (mut waits, mut latencies) = (Vec::new(), Vec::new());
    let mut lost_jobs = 0;
    let mut lost_batches = 0;
    let samples = measure(cfg, meter, NAME, |_, meter| {
        let jobs: Vec<_> = (0..batch).map(|_| job(cfg, &mut rng)).collect();
        let (
            Batch {
                proofs: done,
                timings,
                lost,
            },
            t,
            span,
        ) = meter.timed("groth16", "ProofService::submit+wait", || {
            run_batch(&service, jobs)
        });
        meter.spans.count(span, "jobs", batch as u64);
        for (wait, latency) in timings {
            waits.push(wait * t.factor());
            latencies.push(latency * t.factor());
        }
        lost_jobs += lost;
        lost_batches += u64::from(lost > 0);
        proofs.extend(done);
        t
    });
    let stats = meter.untimed("groth16", "ProofService::shutdown", || service.shutdown());

    // Checks: every served proof round-trips and verifies.
    let digest = proofs.first().map_or(0, |(p, _)| fnv1a(&p.to_bytes()));
    let bad_proofs = check_proofs(session.vk(), &mut proofs, cfg.corrupt, &mut rng, meter);
    // A batch fails if any of its jobs was lost or produced a bad proof; bad
    // proofs are charged one batch each, which can only over-count.
    let failed = (lost_batches + bad_proofs).min(samples.len() as u64);

    let (setup_cal_s, setup_raw_s) = setups.into_parts();
    let outcome = Outcome {
        workload: NAME,
        attempted: samples.len() as u64,
        failed,
        samples,
        items_per_op: batch as u64,
        setup_cal_s,
        setup_raw_s,
        digest,
        exact: Vec::new(),
        threads: cfg.plan.busy_threads(),
    };

    if cfg.traced {
        put_median(layer, "runtime.queue_wait_p50_cal_s", &waits);
        put_median(layer, "runtime.job_latency_p50_cal_s", &latencies);
        let job_tail = tail(&latencies).map_or_else(|| median(&latencies), |(_, v)| v);
        layer.insert("runtime.job_latency_tail_cal_s", job_tail);
        layer.insert("runtime.pool_threads", global_pool_threads() as f64);
        layer.insert("groth16.jobs_completed", stats.completed as f64);
        layer.insert("groth16.jobs_failed", (stats.failed + lost_jobs) as f64);
        layer.insert("groth16.jobs_retried", stats.retries as f64);
        layer.insert("groth16.jobs_rejected", stats.rejected as f64);

        // What the same proofs cost one at a time on one thread: the
        // denominator of the service's efficiency.
        let pool = ThreadPool::with_threads(1);
        let backend = CpuBackend::on(&pool);
        let mut alone = Vec::new();
        meter.cal.refresh();
        for _ in 0..cfg.sizes.probe_reps {
            let (cs, _) = job(cfg, &mut rng);
            let (_, t, _) = meter.timed("groth16", "prove_in_on(1 thread)", || {
                session.prove_in_on(&cs, &mut rng, &backend).0
            });
            alone.push(t.cal_s);
        }
        let warm_alone = median(&alone);
        layer.insert(
            "groth16.service_efficiency",
            outcome.throughput() / (workers as f64 / warm_alone),
        );
    }

    outcome
}
