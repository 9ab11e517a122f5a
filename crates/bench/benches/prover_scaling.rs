//! Thread-scaling benchmark for the parallel prover stack: MSM, NTT, and
//! the full Groth16 prove at 1, 2, 4, and all hardware threads, emitting
//! machine-readable JSON to `BENCH_prover.json` at the repository root.
//!
//! Run with:
//!
//! ```sh
//! cargo bench -p zkp-bench --bench prover_scaling
//! ```
//!
//! Pass `quick` after `--` to shrink the problem sizes (CI smoke run).

use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;
use zkp_backend::{CpuBackend, ExecBackend, ExecTrace, TracingBackend};
use zkp_bench::random_pairs;
use zkp_curves::bls12_381::{Bls12381, G1};
use zkp_ff::{Field, Fr381};
use zkp_groth16::{prove_with_backend, setup, ProofService, ProverSession};
use zkp_msm::{msm_parallel_with_config, MsmConfig};
use zkp_ntt::{ntt_parallel_on, Domain, TwiddleTable};
use zkp_r1cs::circuits::mimc;
use zkp_runtime::ThreadPool;

/// Best-of-`reps` wall time of `f`, in seconds.
fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

struct Row {
    bench: &'static str,
    size: usize,
    threads: usize,
    seconds: f64,
    /// Which execution backend ran the workload.
    backend: String,
    /// Which MSM algorithm the workload used (`MsmConfig::describe()` /
    /// `ExecBackend::msm_algorithm`), or `"-"` for non-MSM kernels. Makes
    /// rows comparable across runs where the default config changed.
    algorithm: String,
    /// Per-stage rows from the execution trace, when the workload runs
    /// through a tracing backend (the full prove does; raw kernels don't).
    breakdown: Option<ExecTrace>,
}

/// Renders a trace's per-stage summary as a JSON array fragment.
fn breakdown_json(trace: &ExecTrace) -> String {
    let rows: Vec<String> = trace
        .summarize()
        .rows
        .iter()
        .map(|r| {
            format!(
                "{{\"stage\": \"{}\", \"calls\": {}, \"elements\": {}, \"seconds\": {:.6}}}",
                r.stage, r.calls, r.elements, r.wall_s
            )
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

fn thread_counts() -> Vec<usize> {
    let all = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut counts = vec![1, 2, 4, all];
    counts.retain(|&t| t <= all || t <= 4);
    counts.dedup();
    counts.sort_unstable();
    counts.dedup();
    counts
}

fn main() {
    let quick = std::env::args().any(|a| a == "quick");
    let (msm_log, ntt_log, mimc_rounds, reps) = if quick {
        (12u32, 14u32, 64usize, 2usize)
    } else {
        (16, 18, 1 << 11, 3)
    };
    let counts = thread_counts();
    let mut rows: Vec<Row> = Vec::new();

    // --- MSM ---------------------------------------------------------------
    // Both the unsigned baseline and the GLV-decomposed path, so the
    // speedup of the endomorphism split is visible in the JSON.
    let n = 1usize << msm_log;
    let (points, scalars) = random_pairs::<G1>(n, 41);
    for config in [MsmConfig::default(), MsmConfig::glv_style()] {
        let algo = config.describe();
        println!("msm 2^{msm_log} ({n} pairs, {algo})");
        for &t in &counts {
            let pool = ThreadPool::with_threads(t);
            let secs = time_best(reps, || {
                std::hint::black_box(msm_parallel_with_config(&points, &scalars, &config, &pool));
            });
            println!("  threads={t:<3} {secs:.4}s");
            rows.push(Row {
                bench: if config.endomorphism {
                    "msm_glv"
                } else {
                    "msm"
                },
                size: n,
                threads: t,
                seconds: secs,
                backend: "cpu".into(),
                algorithm: algo.clone(),
                breakdown: None,
            });
        }
    }

    // --- NTT ---------------------------------------------------------------
    let n = 1usize << ntt_log;
    let domain = Domain::<Fr381>::new(n as u64).expect("within two-adicity");
    let table = TwiddleTable::new(&domain);
    let mut rng = StdRng::seed_from_u64(42);
    let input: Vec<Fr381> = (0..n).map(|_| Fr381::random(&mut rng)).collect();
    println!("ntt 2^{ntt_log} ({n} elements)");
    for &t in &counts {
        let pool = ThreadPool::with_threads(t);
        let secs = time_best(reps, || {
            let mut v = input.clone();
            ntt_parallel_on(&mut v, &table, false, &pool);
            std::hint::black_box(&v);
        });
        println!("  threads={t:<3} {secs:.4}s");
        rows.push(Row {
            bench: "ntt",
            size: n,
            threads: t,
            seconds: secs,
            backend: "cpu".into(),
            algorithm: "-".into(),
            breakdown: None,
        });
    }

    // --- Groth16 prove -----------------------------------------------------
    let cs = mimc(Fr381::from_u64(7), mimc_rounds);
    let mut rng = StdRng::seed_from_u64(43);
    let pk = setup::<Bls12381, _>(&cs, &mut rng);
    let constraints = cs.num_constraints();
    println!("prove mimc ({constraints} constraints)");
    for &t in &counts {
        let pool = ThreadPool::with_threads(t);
        // The prove rows go through the tracing backend so the JSON gets a
        // per-stage breakdown alongside the end-to-end time; recording is
        // one mutex push per dispatched op and does not perturb the timing.
        let backend = TracingBackend::new(CpuBackend::on(&pool));
        let algorithm = ExecBackend::<Bls12381>::msm_algorithm(&backend);
        let mut trace = ExecTrace::empty("traced:cpu".to_string(), t);
        let secs = time_best(reps, || {
            let mut prove_rng = StdRng::seed_from_u64(44);
            let (proof, _) =
                prove_with_backend::<Bls12381, _, _>(&pk, &cs, &mut prove_rng, &backend);
            std::hint::black_box(proof);
            trace = ExecBackend::<Bls12381>::take_trace(&backend);
        });
        println!("  threads={t:<3} {secs:.4}s");
        rows.push(Row {
            bench: "prove",
            size: constraints,
            threads: t,
            seconds: secs,
            backend: trace.backend.clone(),
            algorithm: algorithm.clone(),
            breakdown: Some(trace),
        });
    }

    // --- Session cold/warm -------------------------------------------------
    // The reusable-session prover: the cold round sizes the workspace, the
    // warm rounds reuse it without touching the heap. The cold/warm split
    // is the amortization the session layer buys per proof.
    let session = ProverSession::new(pk);
    let session_algo = session.plan().algorithm();
    println!("prove (session) mimc ({constraints} constraints)");
    for &t in &counts {
        let pool = ThreadPool::with_threads(t);
        let cpu = CpuBackend::on(&pool);
        let mut s = session.fork();
        let mut prove_rng = StdRng::seed_from_u64(44);
        let t0 = Instant::now();
        let (proof, _) = s.prove_in_on(&cs, &mut prove_rng, &cpu);
        let cold = t0.elapsed().as_secs_f64();
        std::hint::black_box(proof);
        let warm = time_best(reps, || {
            let mut prove_rng = StdRng::seed_from_u64(44);
            let (proof, _) = s.prove_in_on(&cs, &mut prove_rng, &cpu);
            std::hint::black_box(proof);
        });
        println!("  threads={t:<3} cold {cold:.4}s, warm {warm:.4}s");
        for (bench, seconds) in [("prove_session_cold", cold), ("prove_session_warm", warm)] {
            rows.push(Row {
                bench,
                size: constraints,
                threads: t,
                seconds,
                backend: "cpu".into(),
                algorithm: session_algo.clone(),
                breakdown: None,
            });
        }
    }

    // --- Service throughput ------------------------------------------------
    // Proofs/second through the multi-proof scheduler: forked sessions on
    // worker threads over the shared global pool. `seconds` is seconds per
    // completed proof (1/throughput) so speedup_vs_1 reads as the
    // concurrency gain.
    let jobs: u64 = if quick { 6 } else { 16 };
    println!("service throughput ({constraints} constraints, {jobs} jobs/point)");
    for &w in &counts {
        let service = ProofService::start(&session, w, jobs as usize);
        let tickets: Vec<_> = (0..jobs)
            .map(|i| {
                service
                    .submit(mimc(Fr381::from_u64(7 + i), mimc_rounds), 100 + i)
                    .expect("queue sized for the batch")
            })
            .collect();
        for ticket in tickets {
            ticket.wait().expect("service job completes");
        }
        let stats = service.shutdown();
        println!(
            "  workers={w:<3} {:.2} proofs/s (p50 {:.4}s, p95 {:.4}s)",
            stats.proofs_per_sec, stats.latency_p50_s, stats.latency_p95_s
        );
        rows.push(Row {
            bench: "service",
            size: constraints,
            threads: w,
            seconds: 1.0 / stats.proofs_per_sec,
            backend: "cpu".into(),
            algorithm: session_algo.clone(),
            breakdown: None,
        });
    }

    // --- JSON report -------------------------------------------------------
    let base: std::collections::HashMap<&str, f64> = rows
        .iter()
        .filter(|r| r.threads == 1)
        .map(|r| (r.bench, r.seconds))
        .collect();
    // Host metadata on every row: a ~1x thread speedup is expected, not a
    // regression, when the CI box only has one hardware thread.
    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut json = String::from("{\n  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let speedup = base[r.bench] / r.seconds;
        let breakdown = r.breakdown.as_ref().map_or(String::new(), |t| {
            format!(", \"breakdown\": {}", breakdown_json(t))
        });
        json.push_str(&format!(
            "    {{\"bench\": \"{}\", \"size\": {}, \"threads\": {}, \"host_cpus\": {}, \
             \"backend\": \"{}\", \"algorithm\": \"{}\", \"seconds\": {:.6}, \
             \"speedup_vs_1\": {:.3}{}}}{}\n",
            r.bench,
            r.size,
            r.threads,
            host_cpus,
            r.backend,
            r.algorithm,
            r.seconds,
            speedup,
            breakdown,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_prover.json");
    std::fs::write(path, &json).expect("write BENCH_prover.json");
    println!("wrote {path}");
}
