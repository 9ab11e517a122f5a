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
//!   retryable failure and the job still resolves exactly once. After
//!   such a job the worker refreshes in place with a fresh
//!   [`fork`](ProverSession::fork) and a fresh backend (counted in
//!   [`ServiceStats::respawns`]).
//! * **Graceful degradation** — consecutive job failures trip shed-load
//!   mode: new submissions are rejected with [`SubmitError::Degraded`]
//!   until four consecutive successes recover the service
//!   (hysteresis, so it does not flap).

use crate::protocol::{Proof, ProverStats};
use crate::session::ProverSession;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use zkp_backend::fault::{splitmix64, unit_f64};
use zkp_backend::{BackendError, CpuBackend, DeadlineBackend, ExecBackend};
use zkp_curves::Bls12Config;
use zkp_r1cs::ConstraintSystem;

/// Consecutive job successes that take the service out of shed-load mode
/// — the hysteresis that keeps a flapping backend from re-admitting load
/// after a single lucky proof.
const RECOVER_AFTER_SUCCESSES: u32 = 4;

/// Why a job submission was not admitted. Nothing was enqueued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity; the caller should retry later or shed
    /// load.
    QueueFull,
    /// Shutdown began; no further jobs are accepted.
    Closed,
    /// The service is in shed-load (degraded) mode — consecutive job
    /// failures tripped it — and rejects new work until it recovers.
    Degraded,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "job queue is full"),
            SubmitError::Closed => write!(f, "job queue is closed"),
            SubmitError::Degraded => write!(f, "service is degraded and shedding load"),
        }
    }
}

impl std::error::Error for SubmitError {}

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
    /// failure-based degradation); four consecutive successes leave it.
    pub degrade_after_failures: u32,
}

impl ServiceConfig {
    /// Defaults: the given sizing, default retry policy, degradation
    /// after 8 consecutive failures.
    pub fn new(workers: usize, capacity: usize) -> Self {
        Self {
            workers,
            capacity,
            retry: RetryPolicy::default(),
            degrade_after_failures: 8,
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
    rx: mpsc::Receiver<Result<CompletedProof<C>, JobError>>,
}

impl<C: Bls12Config> ProofTicket<C> {
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
    /// Jobs with a panicked attempt, after each of which the worker
    /// refreshed its session fork and backend.
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

/// Everything that changes while the service runs: the queue, the
/// counters, and the degrade hysteresis.
struct State<C: Bls12Config> {
    jobs: VecDeque<QueuedJob<C>>,
    closed: bool,
    next_id: u64,
    rejected: u64,
    retries: u64,
    failed: u64,
    expired: u64,
    abandoned: u64,
    respawns: u64,
    /// End-to-end latency (queue + prove) per completed job, seconds.
    latencies: Vec<f64>,
    /// Queue wait per completed job, seconds.
    waits: Vec<f64>,
    consecutive_failures: u32,
    consecutive_successes: u32,
    /// Start of the open shed-load interval; `Some` means degraded.
    degraded_since: Option<Instant>,
    /// Closed shed-load intervals so far.
    degraded_total: Duration,
}

/// What the handle and the workers share: one lock over [`State`], and
/// the condvar idle workers wait on.
struct Shared<C: Bls12Config> {
    state: Mutex<State<C>>,
    ready: Condvar,
    cfg: ServiceConfig,
    factory: Option<BackendFactory<C>>,
}

impl<C: Bls12Config> Shared<C> {
    fn new(cfg: ServiceConfig, factory: Option<BackendFactory<C>>) -> Self {
        Self {
            state: Mutex::new(State {
                jobs: VecDeque::with_capacity(cfg.capacity),
                closed: false,
                next_id: 0,
                rejected: 0,
                retries: 0,
                failed: 0,
                expired: 0,
                abandoned: 0,
                respawns: 0,
                latencies: Vec::new(),
                waits: Vec::new(),
                consecutive_failures: 0,
                consecutive_successes: 0,
                degraded_since: None,
                degraded_total: Duration::ZERO,
            }),
            ready: Condvar::new(),
            cfg,
            factory,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<C>> {
        self.state.lock().expect("service state poisoned")
    }

    /// Admits a job or says why not: degraded first, then closed, then
    /// full. A refusal is counted and enqueues nothing.
    fn admit(
        &self,
        cs: ConstraintSystem<C::Fr>,
        seed: u64,
        deadline: Option<Duration>,
    ) -> Result<ProofTicket<C>, SubmitError> {
        let (reply, rx) = mpsc::channel();
        let mut st = self.lock();
        let refusal = if st.degraded_since.is_some() {
            Some(SubmitError::Degraded)
        } else if st.closed {
            Some(SubmitError::Closed)
        } else if st.jobs.len() >= self.cfg.capacity {
            Some(SubmitError::QueueFull)
        } else {
            None
        };
        if let Some(e) = refusal {
            st.rejected += 1;
            return Err(e);
        }
        let id = st.next_id;
        st.next_id += 1;
        st.jobs.push_back(QueuedJob {
            id,
            cs,
            seed,
            deadline,
            submitted: Instant::now(),
            reply,
        });
        drop(st);
        self.ready.notify_one();
        Ok(ProofTicket { rx })
    }

    /// Blocks until a job is available; `None` means closed and drained.
    fn pop(&self) -> Option<QueuedJob<C>> {
        let mut st = self.lock();
        loop {
            if let Some(job) = st.jobs.pop_front() {
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).expect("service state poisoned");
        }
    }

    /// Stops admission; queued jobs still drain, then `pop` ends.
    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Counts a started job's resolution and moves the degrade
    /// hysteresis. Runs before the job's reply is sent, so a caller that
    /// saw the reply sees its effect.
    fn record(&self, run: &Run<C>) {
        let st = &mut *self.lock();
        st.retries += u64::from(run.retries);
        st.respawns += u64::from(run.panicked);
        match &run.reply {
            Ok(done) => {
                st.latencies.push(done.latency().as_secs_f64());
                st.waits.push(done.queue_wait.as_secs_f64());
                st.consecutive_failures = 0;
                st.consecutive_successes = st.consecutive_successes.saturating_add(1);
                if st.consecutive_successes >= RECOVER_AFTER_SUCCESSES {
                    if let Some(since) = st.degraded_since.take() {
                        st.degraded_total += since.elapsed();
                    }
                }
            }
            Err(JobError::Failed { .. }) => {
                st.failed += 1;
                st.consecutive_successes = 0;
                st.consecutive_failures = st.consecutive_failures.saturating_add(1);
                let trip = self.cfg.degrade_after_failures;
                if trip > 0 && st.consecutive_failures >= trip && st.degraded_since.is_none() {
                    st.degraded_since = Some(Instant::now());
                }
            }
            // Dead work abandoned mid-prove; not a health signal.
            Err(_) => st.abandoned += 1,
        }
    }
}

/// A running proof service: bounded queue, per-worker forked sessions,
/// retry/backoff, panic-isolated workers, shed-load degradation.
///
/// Dropping the service without calling [`shutdown`](Self::shutdown)
/// closes the queue and joins the workers (pending jobs still drain).
pub struct ProofService<C: Bls12Config> {
    shared: Arc<Shared<C>>,
    workers: Vec<JoinHandle<()>>,
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
        assert!(config.capacity > 0, "queue capacity must be positive");
        let shared = Arc::new(Shared::new(config, factory));
        let workers = (0..shared.cfg.workers)
            .map(|i| {
                let session = session.fork();
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("zkp-prover-{i}"))
                    .spawn(move || worker_loop(i, session, &shared))
                    .expect("spawn proof worker")
            })
            .collect();
        Self {
            shared,
            workers,
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
    /// [`SubmitError::Degraded`] while the service is shedding load,
    /// [`SubmitError::Closed`] after shutdown began,
    /// [`SubmitError::QueueFull`] when the queue is at capacity — checked
    /// in that order. In every error case the job is *not* enqueued.
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
        self.shared.admit(cs, seed, deadline)
    }

    /// Whether the service is currently in shed-load (degraded) mode.
    pub fn is_degraded(&self) -> bool {
        self.shared.lock().degraded_since.is_some()
    }

    fn close_and_join(&mut self) {
        self.shared.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// Stops admitting jobs, drains the backlog, joins the workers, and
    /// returns the aggregate statistics.
    pub fn shutdown(mut self) -> ServiceStats {
        self.close_and_join();
        let elapsed = self.started.elapsed().as_secs_f64();
        let st = &mut *self.shared.lock();
        st.latencies.sort_by(f64::total_cmp);
        st.waits.sort_by(f64::total_cmp);
        let completed = st.latencies.len() as u64;
        let degraded =
            st.degraded_total + st.degraded_since.map_or(Duration::ZERO, |s| s.elapsed());
        ServiceStats {
            completed,
            failed: st.failed,
            expired: st.expired,
            abandoned: st.abandoned,
            rejected: st.rejected,
            retries: st.retries,
            respawns: st.respawns,
            degraded_s: degraded.as_secs_f64(),
            latency_p50_s: percentile(&st.latencies, 50.0).unwrap_or(0.0),
            latency_p95_s: percentile(&st.latencies, 95.0).unwrap_or(0.0),
            latency_max_s: st.latencies.last().copied().unwrap_or(0.0),
            queue_wait_p50_s: percentile(&st.waits, 50.0).unwrap_or(0.0),
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
        self.close_and_join();
    }
}

/// The `p`-th percentile (0–100) of an **ascending-sorted** slice, by the
/// nearest-rank method. Returns `None` on an empty slice.
///
/// Out-of-range `p` is saturated rather than rejected: `p ≤ 0` (and NaN)
/// returns the minimum, `p ≥ 100` the maximum — a single-element sample
/// therefore answers every percentile with its one element.
fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    // NaN and negative `p` both saturate to rank 0 here (float→int casts
    // saturate), which the clamp below turns into the minimum.
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// One worker: pop, prove, count, reply — until the queue is closed and
/// drained. After a job whose attempt panicked it refreshes in place: a
/// fresh fork (pristine workspace) and a fresh backend, what a brand-new
/// worker would start with.
fn worker_loop<C: Bls12Config>(
    worker_id: usize,
    mut session: ProverSession<C>,
    shared: &Shared<C>,
) {
    let new_backend = || -> Box<dyn ExecBackend<C> + Send> {
        match &shared.factory {
            Some(f) => f(worker_id),
            None => Box::new(CpuBackend::global()),
        }
    };
    let mut backend = new_backend();
    while let Some(job) = shared.pop() {
        let waited = job.submitted.elapsed();
        if job.deadline.is_some_and(|d| waited > d) {
            shared.lock().expired += 1;
            let _ = job.reply.send(Err(JobError::DeadlineExpired { waited }));
            continue;
        }
        let run = run_job(
            &mut session,
            backend.as_ref(),
            &shared.cfg.retry,
            &job,
            waited,
        );
        shared.record(&run);
        let panicked = run.panicked;
        let _ = job.reply.send(run.reply);
        if panicked {
            session = session.fork();
            backend = new_backend();
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

/// How a started job resolved: its reply, the retries it took, and
/// whether any attempt panicked.
struct Run<C: Bls12Config> {
    reply: Result<CompletedProof<C>, JobError>,
    retries: u32,
    panicked: bool,
}

/// Runs one dequeued job to resolution — attempts, backoff, deadline
/// checks. Touches no shared state; the worker counts the result.
fn run_job<C: Bls12Config>(
    session: &mut ProverSession<C>,
    backend: &dyn ExecBackend<C>,
    policy: &RetryPolicy,
    job: &QueuedJob<C>,
    waited: Duration,
) -> Run<C> {
    // A deadline past what `Instant` can represent is no deadline.
    let deadline = job.deadline.and_then(|d| job.submitted.checked_add(d));
    let backend = DeadlineBackend::new(backend, deadline);
    let attempts = policy.max_retries.saturating_add(1);
    let mut panicked = false;
    let t0 = Instant::now();
    let abandoned = |retries, panicked| Run {
        reply: Err(JobError::DeadlineExpired {
            waited: job.submitted.elapsed(),
        }),
        retries,
        panicked,
    };
    for attempt in 0..attempts {
        if attempt > 0 {
            let delay = backoff_delay(policy, attempt, job.id, job.seed);
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
            return abandoned(attempt, panicked);
        }
        // Re-seed per attempt: a proof that succeeds on retry is
        // byte-identical to one that succeeded first try.
        let mut rng = StdRng::seed_from_u64(job.seed);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            session.try_prove_in_on(&job.cs, &mut rng, &backend)
        }));
        match outcome {
            Ok(Ok((proof, stats))) => {
                let reply = Ok(CompletedProof {
                    id: job.id,
                    proof,
                    stats,
                    queue_wait: waited,
                    prove_time: t0.elapsed(),
                    retries: attempt,
                });
                return Run {
                    reply,
                    retries: attempt,
                    panicked,
                };
            }
            Ok(Err(BackendError::DeadlineExceeded { .. })) => return abandoned(attempt, panicked),
            Ok(Err(BackendError::OpFailed { .. })) => {}
            // The pool forwards in-op panics to this (submitting) thread
            // and stays usable; the workspace is refilled at the start of
            // the next attempt, so retrying in place is sound.
            Err(_payload) => panicked = true,
        }
    }
    Run {
        reply: Err(JobError::Failed { attempts }),
        retries: attempts - 1,
        panicked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::TryRecvError;
    use zkp_curves::bls12_381::Bls12381;

    /// The service's queue with no workers behind it.
    fn queue(capacity: usize) -> Shared<Bls12381> {
        Shared::new(ServiceConfig::new(1, capacity), None)
    }

    /// Submits an empty job whose seed tags it.
    fn push(q: &Shared<Bls12381>, tag: u64) -> Result<ProofTicket<Bls12381>, SubmitError> {
        q.admit(ConstraintSystem::new(), tag, None)
    }

    fn pop_tag(q: &Shared<Bls12381>) -> Option<u64> {
        q.pop().map(|job| job.seed)
    }

    #[test]
    fn push_pop_fifo() {
        let q = queue(4);
        push(&q, 1).unwrap();
        push(&q, 2).unwrap();
        assert_eq!(pop_tag(&q), Some(1));
        assert_eq!(pop_tag(&q), Some(2));
    }

    #[test]
    fn rejects_when_full_then_admits_after_pop() {
        let q = queue(2);
        push(&q, 1).unwrap();
        push(&q, 2).unwrap();
        assert_eq!(push(&q, 3).err(), Some(SubmitError::QueueFull));
        assert_eq!(pop_tag(&q), Some(1));
        push(&q, 3).unwrap();
        assert_eq!(q.lock().jobs.len(), 2);
        assert_eq!(q.lock().rejected, 1);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = queue(4);
        push(&q, 7).unwrap();
        q.close();
        assert_eq!(push(&q, 8).err(), Some(SubmitError::Closed));
        assert_eq!(pop_tag(&q), Some(7));
        assert_eq!(pop_tag(&q), None);
    }

    #[test]
    fn workers_drain_concurrently() {
        let total = 64u64;
        let q = queue(total as usize);
        for i in 0..total {
            push(&q, i).unwrap();
        }
        q.close();
        let sum: u64 = std::thread::scope(|s| {
            let drains: Vec<_> = (0..4)
                .map(|_| s.spawn(|| std::iter::from_fn(|| pop_tag(&q)).sum::<u64>()))
                .collect();
            drains.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(sum, total * (total - 1) / 2);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[3.5], 99.0), Some(3.5));
    }

    #[test]
    fn percentile_saturates_on_degenerate_inputs() {
        let v = [1.0, 2.0, 3.0, 4.0];
        // p ≤ 0 (and NaN) saturate to the minimum, p ≥ 100 to the maximum.
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, -10.0), Some(1.0));
        assert_eq!(percentile(&v, f64::NAN), Some(1.0));
        assert_eq!(percentile(&v, 150.0), Some(4.0));
        // A single-element sample answers every percentile with that
        // element — including the degenerate p values above.
        for p in [-1.0, 0.0, 50.0, 100.0, 101.0, f64::NAN] {
            assert_eq!(percentile(&[7.25], p), Some(7.25));
        }
        // Empty stays None whatever p is.
        assert_eq!(percentile(&[], f64::NAN), None);
        assert_eq!(percentile(&[], 0.0), None);
    }

    #[test]
    fn close_wakes_a_blocked_pop() {
        let q = Arc::new(queue(2));
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || pop_tag(&q))
        };
        // Give the waiter time to actually block on the condvar, then
        // close with no jobs: pop must wake and return None, not hang.
        std::thread::sleep(Duration::from_millis(50));
        assert!(!waiter.is_finished(), "pop returned before close");
        assert!(!q.lock().closed);
        q.close();
        assert!(q.lock().closed);
        assert_eq!(waiter.join().expect("waiter"), None);
    }

    #[test]
    fn dropping_the_queue_drops_pending_jobs() {
        let q = queue(4);
        let tickets: Vec<_> = (0..3).map(|i| push(&q, i).unwrap()).collect();
        for t in &tickets {
            assert_eq!(t.rx.try_recv().err(), Some(TryRecvError::Empty));
        }
        // Queued but never popped jobs are released on drop: their reply
        // channels disconnect, which resolves every ticket.
        drop(q);
        for t in tickets {
            assert_eq!(t.wait().err(), Some(JobError::ServiceStopped));
        }
    }

    #[test]
    fn degraded_submit_error_is_distinct_and_displays() {
        assert_ne!(SubmitError::Degraded, SubmitError::QueueFull);
        assert_ne!(SubmitError::Degraded, SubmitError::Closed);
        assert_eq!(SubmitError::Degraded, SubmitError::Degraded);
        assert_eq!(
            SubmitError::Degraded.to_string(),
            "service is degraded and shedding load"
        );
    }

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
