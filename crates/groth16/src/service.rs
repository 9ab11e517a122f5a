//! A fault-tolerant multi-proof serving layer on top of [`ProverSession`].
//!
//! The service owns a bounded job queue (admission control: full queue →
//! immediate rejection, not unbounded buffering) and a set of worker
//! threads, each holding a [`fork`](ProverSession::fork) of one session —
//! the proving key, MSM plans, and twiddles are shared, only the scratch
//! workspace is per-worker. Every worker proves on the *same* underlying
//! thread pool, so the MSM and NTT stages of concurrent proofs interleave
//! over the shared workers instead of oversubscribing the machine — the
//! stage-pipelined schedule that turns per-proof latency into throughput.
//!
//! Jobs carry an explicit RNG seed, which makes service output
//! *reproducible*: a job proved through the service is byte-identical to
//! the same `(circuit, seed)` proved sequentially — including proofs that
//! only succeeded on a retry, because the RNG is re-seeded at the start
//! of every attempt.
//!
//! # Failure model
//!
//! Backends are fallible: an op can fail ([`BackendError::OpFailed`]),
//! hang past a deadline, or panic. The service survives all three:
//!
//! * **Retry with backoff** — a failed attempt is retried up to
//!   [`RetryPolicy::max_retries`] times with capped exponential backoff
//!   and deterministic seeded jitter (a pure function of job id, seed,
//!   and attempt — no global RNG).
//! * **Mid-prove deadlines** — every attempt proves through a
//!   [`DeadlineBackend`] holding the job's deadline, which checks it
//!   before and after every op, so a proof that cannot finish in time is
//!   abandoned instead of completing dead work.
//! * **Panic isolation** — each attempt runs under
//!   [`catch_unwind`](std::panic::catch_unwind); a panic is treated as a
//!   retryable failure, the job still resolves exactly once, and the
//!   worker replaces itself with a fresh fork afterwards (counted in
//!   [`ServiceStats::respawns`]).
//! * **Graceful degradation** — consecutive job failures trip shed-load
//!   mode: new submissions are rejected with [`SubmitError::Degraded`]
//!   until a run of consecutive successes recovers the service
//!   (hysteresis, so it does not flap).

use crate::protocol::{Proof, ProverStats};
use crate::session::ProverSession;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use zkp_backend::fault::{splitmix64, unit_f64};
use zkp_backend::{BackendError, CpuBackend, DeadlineBackend, ExecBackend};
use zkp_curves::Bls12Config;
use zkp_r1cs::ConstraintSystem;
use zkp_runtime::service::{percentile, JobQueue};

pub use zkp_runtime::service::SubmitError;

/// Builds one execution backend per worker (called with the worker
/// index). Lets tests and experiments interpose e.g. a
/// [`FaultInjectingBackend`](zkp_backend::FaultInjectingBackend) under
/// the whole service.
pub type BackendFactory<C> = Arc<dyn Fn(usize) -> Box<dyn ExecBackend<C> + Send> + Send + Sync>;

/// Per-job retry behavior: how many times to re-attempt a failed proof
/// and how long to back off between attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 = fail fast).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry.
    pub backoff_base: Duration,
    /// Ceiling on any single backoff sleep.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// No retries: every job gets exactly one attempt.
    pub fn none() -> Self {
        Self {
            max_retries: 0,
            ..Self::default()
        }
    }
}

/// Service tuning: worker/queue sizing, retry policy, and the
/// degradation (shed-load) thresholds.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads (each with a forked session).
    pub workers: usize,
    /// Queue capacity (admission control).
    pub capacity: usize,
    /// Retry/backoff behavior per job.
    pub retry: RetryPolicy,
    /// Consecutive job failures that trip shed-load mode (0 disables
    /// failure-based degradation).
    pub degrade_after_failures: u32,
    /// Consecutive job successes required to leave shed-load mode — the
    /// hysteresis that keeps a flapping backend from re-admitting load
    /// after a single lucky proof.
    pub recover_after_successes: u32,
}

impl ServiceConfig {
    /// Defaults: the given sizing, default retry policy, degradation
    /// after 8 consecutive failures, recovery after 4 consecutive
    /// successes.
    pub fn new(workers: usize, capacity: usize) -> Self {
        Self {
            workers,
            capacity,
            retry: RetryPolicy::default(),
            degrade_after_failures: 8,
            recover_after_successes: 4,
        }
    }
}

/// A successfully served proof, with its queue/prove timings.
#[derive(Debug)]
pub struct CompletedProof<C: Bls12Config> {
    /// The service-assigned job id (submission order).
    pub id: u64,
    /// The proof.
    pub proof: Proof<C>,
    /// The prover's work counters.
    pub stats: ProverStats,
    /// Time the job sat in the queue before a worker picked it up.
    pub queue_wait: Duration,
    /// Time the worker spent on the job — all attempts plus backoff.
    pub prove_time: Duration,
    /// Attempts beyond the first that this job needed.
    pub retries: u32,
}

impl<C: Bls12Config> CompletedProof<C> {
    /// End-to-end latency: queue wait plus prove time.
    pub fn latency(&self) -> Duration {
        self.queue_wait + self.prove_time
    }
}

/// Why a submitted job did not produce a proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobError {
    /// The job's deadline passed — either before a worker dequeued it
    /// (never started) or at an op boundary (abandoned mid-prove;
    /// counted in [`ServiceStats::abandoned`]).
    DeadlineExpired {
        /// How long the job had been in the service when it was dropped.
        waited: Duration,
    },
    /// Every attempt failed; the job was given up after `attempts`
    /// tries (1 + retries).
    Failed {
        /// Total attempts made, including the first.
        attempts: u32,
    },
    /// The service shut down before the job completed.
    ServiceStopped,
}

/// A handle to one submitted job; redeem it with [`ProofTicket::wait`].
pub struct ProofTicket<C: Bls12Config> {
    id: u64,
    rx: mpsc::Receiver<Result<CompletedProof<C>, JobError>>,
}

impl<C: Bls12Config> ProofTicket<C> {
    /// The service-assigned job id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the job completes, expires, fails, or the service
    /// stops. Every submitted ticket resolves exactly once.
    pub fn wait(self) -> Result<CompletedProof<C>, JobError> {
        self.rx.recv().unwrap_or(Err(JobError::ServiceStopped))
    }
}

struct QueuedJob<C: Bls12Config> {
    id: u64,
    cs: ConstraintSystem<C::Fr>,
    seed: u64,
    deadline: Option<Duration>,
    submitted: Instant,
    reply: mpsc::Sender<Result<CompletedProof<C>, JobError>>,
}

#[derive(Default)]
struct StatsInner {
    /// End-to-end latency (queue + prove) per completed job, seconds.
    latencies: Vec<f64>,
    /// Queue wait per completed job, seconds.
    waits: Vec<f64>,
    expired: u64,
}

#[derive(Default)]
struct DegradedTime {
    since: Option<Instant>,
    total: Duration,
}

/// Aggregate serving statistics, reported by [`ProofService::shutdown`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Jobs proved to completion.
    pub completed: u64,
    /// Jobs that exhausted every retry and resolved as
    /// [`JobError::Failed`].
    pub failed: u64,
    /// Jobs dropped because their deadline passed before a worker
    /// started them.
    pub expired: u64,
    /// Jobs abandoned mid-prove (or mid-backoff) by a deadline check —
    /// dead work the service declined to finish.
    pub abandoned: u64,
    /// Jobs rejected at submission (queue full, closed, or degraded).
    pub rejected: u64,
    /// Retry attempts across all jobs (attempts beyond each first).
    pub retries: u64,
    /// Workers that replaced themselves after observing a panic.
    pub respawns: u64,
    /// Total wall-clock time spent in shed-load (degraded) mode, seconds.
    pub degraded_s: f64,
    /// Median end-to-end latency in seconds (queue wait + prove).
    pub latency_p50_s: f64,
    /// 95th-percentile end-to-end latency in seconds.
    pub latency_p95_s: f64,
    /// Worst-case end-to-end latency in seconds.
    pub latency_max_s: f64,
    /// Median queue wait in seconds.
    pub queue_wait_p50_s: f64,
    /// Wall-clock life of the service in seconds.
    pub elapsed_s: f64,
    /// Completed proofs per wall-clock second.
    pub proofs_per_sec: f64,
}

impl ServiceStats {
    /// Retry amplification: total attempts per completed proof. 1.0
    /// means no attempt was wasted; NaN-free (returns 0 with nothing
    /// completed and nothing retried, and `inf` only if attempts were
    /// made with zero completions).
    pub fn retry_amplification(&self) -> f64 {
        let attempts = (self.completed + self.failed) as f64 + self.retries as f64;
        if attempts == 0.0 {
            return 0.0;
        }
        if self.completed == 0 {
            return f64::INFINITY;
        }
        attempts / self.completed as f64
    }
}

impl std::fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ok / {} failed / {} expired / {} abandoned / {} rejected; \
             {} retries, {} respawns; p50 {:.1} ms, p95 {:.1} ms; \
             {:.2} proofs/s; degraded {:.2} s",
            self.completed,
            self.failed,
            self.expired,
            self.abandoned,
            self.rejected,
            self.retries,
            self.respawns,
            self.latency_p50_s * 1e3,
            self.latency_p95_s * 1e3,
            self.proofs_per_sec,
            self.degraded_s,
        )
    }
}

/// State shared between the handle, the workers, and their replacements.
struct ServiceShared<C: Bls12Config> {
    queue: JobQueue<QueuedJob<C>>,
    cfg: ServiceConfig,
    factory: Option<BackendFactory<C>>,
    stats: Mutex<StatsInner>,
    /// Every live worker JoinHandle — initial workers and respawned
    /// replacements alike. A replacement is pushed *before* its
    /// predecessor exits, so draining this vec until empty joins every
    /// worker that will ever exist.
    handles: Mutex<Vec<JoinHandle<()>>>,
    retries: AtomicU64,
    failed: AtomicU64,
    abandoned: AtomicU64,
    respawns: AtomicU64,
    consecutive_failures: AtomicU32,
    consecutive_successes: AtomicU32,
    degraded: AtomicBool,
    degraded_time: Mutex<DegradedTime>,
}

impl<C: Bls12Config> ServiceShared<C> {
    fn enter_degraded(&self) {
        if !self.degraded.swap(true, Ordering::SeqCst) {
            let mut dt = self.degraded_time.lock().expect("degraded poisoned");
            dt.since = Some(Instant::now());
        }
    }

    fn exit_degraded(&self) {
        if self.degraded.swap(false, Ordering::SeqCst) {
            let mut dt = self.degraded_time.lock().expect("degraded poisoned");
            if let Some(since) = dt.since.take() {
                dt.total += since.elapsed();
            }
        }
    }

    fn note_success(&self) {
        self.consecutive_failures.store(0, Ordering::SeqCst);
        let ok = self.consecutive_successes.fetch_add(1, Ordering::SeqCst) + 1;
        if self.degraded.load(Ordering::SeqCst) && ok >= self.cfg.recover_after_successes {
            self.exit_degraded();
        }
    }

    fn note_failure(&self) {
        self.consecutive_successes.store(0, Ordering::SeqCst);
        let bad = self.consecutive_failures.fetch_add(1, Ordering::SeqCst) + 1;
        if self.cfg.degrade_after_failures > 0 && bad >= self.cfg.degrade_after_failures {
            self.enter_degraded();
        }
    }

    /// Total degraded time so far, folding in an open interval.
    fn degraded_secs(&self) -> f64 {
        let dt = self.degraded_time.lock().expect("degraded poisoned");
        let open = dt.since.map_or(Duration::ZERO, |s| s.elapsed());
        (dt.total + open).as_secs_f64()
    }
}

/// A running proof service: bounded queue, per-worker forked sessions,
/// retry/backoff, panic-isolated workers, shed-load degradation.
///
/// Dropping the service without calling [`shutdown`](Self::shutdown)
/// closes the queue and joins the workers (pending jobs still drain).
pub struct ProofService<C: Bls12Config> {
    shared: Arc<ServiceShared<C>>,
    rejected: AtomicU64,
    next_id: AtomicU64,
    started: Instant,
}

impl<C: Bls12Config> ProofService<C> {
    /// Starts `workers` proving threads over forks of `session`, with a
    /// queue admitting at most `capacity` pending jobs and the default
    /// [`ServiceConfig`] thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `capacity` is zero.
    pub fn start(session: &ProverSession<C>, workers: usize, capacity: usize) -> Self {
        Self::start_inner(session, ServiceConfig::new(workers, capacity), None)
    }

    /// [`start`](Self::start) with explicit retry/degradation tuning and a
    /// per-worker backend factory — the hook fault-injection tests and
    /// resilience experiments use to put a
    /// [`FaultInjectingBackend`](zkp_backend::FaultInjectingBackend)
    /// under every worker.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers` or `config.capacity` is zero.
    pub fn start_with_backend(
        session: &ProverSession<C>,
        config: ServiceConfig,
        factory: BackendFactory<C>,
    ) -> Self {
        Self::start_inner(session, config, Some(factory))
    }

    fn start_inner(
        session: &ProverSession<C>,
        config: ServiceConfig,
        factory: Option<BackendFactory<C>>,
    ) -> Self {
        assert!(config.workers > 0, "service needs at least one worker");
        let workers = config.workers;
        let shared = Arc::new(ServiceShared {
            queue: JobQueue::new(config.capacity),
            cfg: config,
            factory,
            stats: Mutex::new(StatsInner::default()),
            handles: Mutex::new(Vec::with_capacity(workers)),
            retries: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            abandoned: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            consecutive_failures: AtomicU32::new(0),
            consecutive_successes: AtomicU32::new(0),
            degraded: AtomicBool::new(false),
            degraded_time: Mutex::new(DegradedTime::default()),
        });
        for i in 0..workers {
            let handle = spawn_worker(i, session.fork(), Arc::clone(&shared));
            shared
                .handles
                .lock()
                .expect("handles poisoned")
                .push(handle);
        }
        Self {
            shared,
            rejected: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Submits a proof job. The `seed` determines the blinding factors:
    /// the served proof is byte-identical to `prove` with
    /// `StdRng::seed_from_u64(seed)` — even if it needed retries, since
    /// the RNG is re-seeded per attempt.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the queue is at capacity,
    /// [`SubmitError::Degraded`] while the service is shedding load,
    /// [`SubmitError::Closed`] after shutdown began. In every error case
    /// the job is *not* enqueued.
    pub fn submit(
        &self,
        cs: ConstraintSystem<C::Fr>,
        seed: u64,
    ) -> Result<ProofTicket<C>, SubmitError> {
        self.submit_with_deadline(cs, seed, None)
    }

    /// [`submit`](Self::submit) with a relative deadline: if the job is
    /// still queued when the deadline elapses, the worker drops it at
    /// dequeue; if it expires mid-prove, the proof stops at the next op
    /// boundary. Either way the ticket resolves to
    /// [`JobError::DeadlineExpired`].
    ///
    /// # Errors
    ///
    /// Same admission errors as [`submit`](Self::submit).
    pub fn submit_with_deadline(
        &self,
        cs: ConstraintSystem<C::Fr>,
        seed: u64,
        deadline: Option<Duration>,
    ) -> Result<ProofTicket<C>, SubmitError> {
        if self.shared.degraded.load(Ordering::Relaxed) {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Degraded);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        let job = QueuedJob {
            id,
            cs,
            seed,
            deadline,
            submitted: Instant::now(),
            reply: tx,
        };
        match self.shared.queue.try_push(job) {
            Ok(()) => Ok(ProofTicket { id, rx }),
            Err(e) => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Jobs currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Whether the service is currently in shed-load (degraded) mode.
    pub fn is_degraded(&self) -> bool {
        self.shared.degraded.load(Ordering::Relaxed)
    }

    /// Workers that have replaced themselves after a panic so far.
    pub fn respawns(&self) -> u64 {
        self.shared.respawns.load(Ordering::Relaxed)
    }

    fn join_workers(&self) {
        loop {
            let handle = self.shared.handles.lock().expect("handles poisoned").pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
    }

    /// Stops admitting jobs, drains the backlog, joins the workers (and
    /// any respawned replacements), and returns the aggregate statistics.
    pub fn shutdown(self) -> ServiceStats {
        self.shared.queue.close();
        self.join_workers();
        let shared = &self.shared;
        let elapsed = self.started.elapsed().as_secs_f64();
        let inner = shared.stats.lock().expect("stats poisoned");
        let mut latencies = inner.latencies.clone();
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let mut waits = inner.waits.clone();
        waits.sort_by(|a, b| a.partial_cmp(b).expect("finite waits"));
        let completed = latencies.len() as u64;
        ServiceStats {
            completed,
            failed: shared.failed.load(Ordering::Relaxed),
            expired: inner.expired,
            abandoned: shared.abandoned.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            retries: shared.retries.load(Ordering::Relaxed),
            respawns: shared.respawns.load(Ordering::Relaxed),
            degraded_s: shared.degraded_secs(),
            latency_p50_s: percentile(&latencies, 50.0).unwrap_or(0.0),
            latency_p95_s: percentile(&latencies, 95.0).unwrap_or(0.0),
            latency_max_s: latencies.last().copied().unwrap_or(0.0),
            queue_wait_p50_s: percentile(&waits, 50.0).unwrap_or(0.0),
            elapsed_s: elapsed,
            proofs_per_sec: if elapsed > 0.0 {
                completed as f64 / elapsed
            } else {
                0.0
            },
        }
    }
}

impl<C: Bls12Config> Drop for ProofService<C> {
    fn drop(&mut self) {
        self.shared.queue.close();
        self.join_workers();
    }
}

fn spawn_worker<C: Bls12Config>(
    worker_id: usize,
    session: ProverSession<C>,
    shared: Arc<ServiceShared<C>>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("zkp-prover-{worker_id}"))
        .spawn(move || worker_entry(worker_id, session, shared))
        .expect("spawn proof worker")
}

fn worker_entry<C: Bls12Config>(
    worker_id: usize,
    mut session: ProverSession<C>,
    shared: Arc<ServiceShared<C>>,
) {
    let backend: Box<dyn ExecBackend<C> + Send> = match &shared.factory {
        Some(f) => f(worker_id),
        None => Box::new(CpuBackend::global()),
    };
    while let Some(job) = shared.queue.pop() {
        let panicked = run_job(&mut session, backend.as_ref(), &shared, job);
        if panicked {
            // The job above already resolved; replace this worker with a
            // fresh fork (pristine workspace) before exiting, pushing the
            // new handle *first* so shutdown's drain-until-empty join
            // sees it. Respawn even when the queue is closed, so a dying
            // sole worker cannot strand the backlog.
            shared.respawns.fetch_add(1, Ordering::Relaxed);
            let replacement = spawn_worker(worker_id, session.fork(), Arc::clone(&shared));
            shared
                .handles
                .lock()
                .expect("handles poisoned")
                .push(replacement);
            return;
        }
    }
}

/// Deterministic capped exponential backoff: `base · 2^(attempt-1)`,
/// capped, scaled by a jitter in `[0.5, 1.0)` hashed from the job's
/// identity and the attempt number.
fn backoff_delay(policy: &RetryPolicy, attempt: u32, job_id: u64, seed: u64) -> Duration {
    let exp = policy
        .backoff_base
        .saturating_mul(1u32 << (attempt - 1).min(20));
    let capped = exp.min(policy.backoff_cap);
    let bits = splitmix64(seed ^ job_id.rotate_left(17) ^ u64::from(attempt));
    capped.mul_f64(0.5 + 0.5 * unit_f64(bits))
}

/// Runs one job to resolution — attempts, backoff, deadline checks —
/// and returns whether any attempt panicked (the worker then respawns).
/// The job's ticket resolves exactly once on every path.
fn run_job<C: Bls12Config>(
    session: &mut ProverSession<C>,
    backend: &dyn ExecBackend<C>,
    shared: &ServiceShared<C>,
    job: QueuedJob<C>,
) -> bool {
    let waited = job.submitted.elapsed();
    if job.deadline.is_some_and(|d| waited > d) {
        shared.stats.lock().expect("stats poisoned").expired += 1;
        let _ = job.reply.send(Err(JobError::DeadlineExpired { waited }));
        return false;
    }
    // A deadline past what `Instant` can represent is no deadline.
    let deadline = job.deadline.and_then(|d| job.submitted.checked_add(d));
    let backend = DeadlineBackend::new(backend, deadline);
    let attempts = shared.cfg.retry.max_retries.saturating_add(1);
    let mut panicked = false;
    let t0 = Instant::now();
    for attempt in 0..attempts {
        if attempt > 0 {
            shared.retries.fetch_add(1, Ordering::Relaxed);
            let delay = backoff_delay(&shared.cfg.retry, attempt, job.id, job.seed);
            // Never sleep past the deadline; if it already passed, the
            // check below abandons instead of attempting dead work.
            let delay = match deadline {
                Some(d) => delay.min(d.saturating_duration_since(Instant::now())),
                None => delay,
            };
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            shared.abandoned.fetch_add(1, Ordering::Relaxed);
            let _ = job.reply.send(Err(JobError::DeadlineExpired {
                waited: job.submitted.elapsed(),
            }));
            return panicked;
        }
        // Re-seed per attempt: a proof that succeeds on retry is
        // byte-identical to one that succeeded first try.
        let mut rng = StdRng::seed_from_u64(job.seed);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            session.try_prove_in_on(&job.cs, &mut rng, &backend)
        }));
        match outcome {
            Ok(Ok((proof, pstats))) => {
                let prove_time = t0.elapsed();
                {
                    let mut inner = shared.stats.lock().expect("stats poisoned");
                    inner.latencies.push((waited + prove_time).as_secs_f64());
                    inner.waits.push(waited.as_secs_f64());
                }
                shared.note_success();
                let _ = job.reply.send(Ok(CompletedProof {
                    id: job.id,
                    proof,
                    stats: pstats,
                    queue_wait: waited,
                    prove_time,
                    retries: attempt,
                }));
                return panicked;
            }
            Ok(Err(BackendError::DeadlineExceeded { .. })) => {
                // Dead work abandoned mid-prove; not a health signal.
                shared.abandoned.fetch_add(1, Ordering::Relaxed);
                let _ = job.reply.send(Err(JobError::DeadlineExpired {
                    waited: job.submitted.elapsed(),
                }));
                return panicked;
            }
            Ok(Err(BackendError::OpFailed { .. })) => {}
            Err(_payload) => {
                // The pool forwards in-op panics to this (submitting)
                // thread and stays usable; the workspace is refilled at
                // the start of the next attempt, so retrying in place is
                // sound. The worker still respawns after this job.
                panicked = true;
            }
        }
    }
    shared.failed.fetch_add(1, Ordering::Relaxed);
    shared.note_failure();
    let _ = job.reply.send(Err(JobError::Failed { attempts }));
    panicked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_display_format_is_pinned() {
        // The serving example and CI logs parse/eyeball this line; treat
        // it as a stable format.
        let stats = ServiceStats {
            completed: 12,
            failed: 1,
            expired: 2,
            abandoned: 3,
            rejected: 4,
            retries: 5,
            respawns: 1,
            degraded_s: 1.25,
            latency_p50_s: 0.0123,
            latency_p95_s: 0.0456,
            latency_max_s: 0.5,
            queue_wait_p50_s: 0.001,
            elapsed_s: 2.0,
            proofs_per_sec: 6.0,
        };
        assert_eq!(
            stats.to_string(),
            "12 ok / 1 failed / 2 expired / 3 abandoned / 4 rejected; \
             5 retries, 1 respawns; p50 12.3 ms, p95 45.6 ms; \
             6.00 proofs/s; degraded 1.25 s"
        );
    }

    #[test]
    fn backoff_is_deterministic_jittered_and_capped() {
        let policy = RetryPolicy {
            max_retries: 8,
            backoff_base: Duration::from_millis(4),
            backoff_cap: Duration::from_millis(20),
        };
        for attempt in 1..=8 {
            let a = backoff_delay(&policy, attempt, 3, 99);
            let b = backoff_delay(&policy, attempt, 3, 99);
            assert_eq!(a, b, "same (job, seed, attempt) must back off equally");
            // Jitter keeps the delay in [cap/2 idea: half of the capped
            // exponential, never above it].
            let exp = policy
                .backoff_base
                .saturating_mul(1u32 << (attempt - 1))
                .min(policy.backoff_cap);
            assert!(
                a >= exp.mul_f64(0.5) && a < exp,
                "attempt {attempt}: {a:?} vs {exp:?}"
            );
        }
        // Different jobs de-synchronize (thundering-herd avoidance).
        let a = backoff_delay(&policy, 1, 1, 7);
        let b = backoff_delay(&policy, 1, 2, 7);
        assert_ne!(a, b);
    }

    #[test]
    fn retry_amplification_handles_edges() {
        let mut s = ServiceStats::default();
        assert_eq!(s.retry_amplification(), 0.0, "idle service");
        s.completed = 10;
        s.retries = 5;
        assert!((s.retry_amplification() - 1.5).abs() < 1e-12);
        s.completed = 0;
        s.failed = 1;
        assert!(s.retry_amplification().is_infinite());
    }
}
