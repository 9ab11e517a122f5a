//! One run of one workload: untraced (end-to-end metrics) or traced
//! (per-layer metrics, spans).

use crate::adapter::{
    mimc, set_global_pool_threads, setup, verify, Field, Fr, ProverSession, SeedableRng, StdRng,
};
use crate::clock::{median, tail};
use crate::host::{peak_rss_mb, Host};
use crate::metrics::{
    workload, MetricDef, ResultLine, Values, END_TO_END, PER_LAYER, PROBE_CHAIN_SHARE, WORKLOADS,
};
use crate::probes;
use crate::spans::{Meter, Spans};
use crate::workloads::prove::Circuit;
use crate::workloads::{prove, quotient, serve, simzoo, Outcome, RunCfg};
use std::time::Instant;

/// Share of `--seconds` the selected workload measures for in a traced run;
/// the rest of the run goes to the other layers' workloads and the probes.
const TRACED_WINDOW_SHARE: f64 = 0.3;

/// Ops of the workloads a traced run adds for the layers the selected
/// workload does not reach.
const TRACED_REFERENCE_OPS: usize = 6;

/// What one run produced.
pub struct Report {
    /// The line the driver reads.
    pub result: ResultLine,
    /// Every workload that ran (one, unless traced).
    pub outcomes: Vec<Outcome>,
    /// The span buffer (empty unless traced).
    pub spans: Spans,
}

/// Sizes the process-wide pool and runs every lazily initialised constant
/// (field parameters, curve derivations, generator tables) once, so that no
/// timed call pays for them. Returns the wall seconds it took.
pub fn process_warm_up(host: &Host) -> f64 {
    set_global_pool_threads(host.plan.pool_threads);
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(0);
    let cs = mimc(Fr::random(&mut rng), 4);
    let pk = setup(&cs, &mut rng);
    let mut session = ProverSession::new(pk);
    let (proof, _) = session.prove_in(&cs, &mut rng);
    assert!(
        verify(session.vk(), &proof, &cs.assignment.public),
        "warm-up proof does not verify"
    );
    start.elapsed().as_secs_f64()
}

fn dispatch(name: &str, cfg: &RunCfg, meter: &mut Meter, layer: &mut Values) -> Outcome {
    match name {
        "prove_dense_1k" => prove::run(Circuit::Dense, cfg, meter, layer),
        "prove_bits_1k" => prove::run(Circuit::Bits, cfg, meter, layer),
        "quotient_32k" => quotient::run(cfg, meter, layer),
        "serve_dense_256" => serve::run(cfg, meter, layer),
        "sim_ff_zoo" => simzoo::run(cfg, meter, layer),
        other => unreachable!("workload {other} was validated before"),
    }
}

/// Runs `name` with its own meter (the yardsticks run on as many threads as
/// the workload keeps busy) and hands the span buffer back.
fn run_one(
    name: &'static str,
    cfg: &RunCfg,
    host: &Host,
    spans: Spans,
    layer: &mut Values,
) -> (Outcome, Spans) {
    let threads = if name == "serve_dense_256" {
        cfg.plan.busy_threads().min(cfg.plan.nproc)
    } else {
        1
    };
    let chain_share = workload(name).expect("validated before").chain_share;
    let mut meter = Meter::new(threads, chain_share, spans);
    let outcome = dispatch(name, cfg, &mut meter, layer);
    host.print(name, outcome.threads, meter.cal.readings());
    (outcome, meter.spans)
}

fn end_to_end(outcome: &Outcome) -> Values {
    let cal = outcome.cal();
    let mut v = Values::new();
    v.insert("latency_p50_cal_s", median(&cal));
    // Below 21 samples (only `--smoke` goes there) the tail is the median.
    v.insert(
        "latency_tail_cal_s",
        tail(&cal).map_or_else(|| median(&cal), |(_, value)| value),
    );
    v.insert("throughput_per_cal_s", outcome.throughput());
    v.insert("setup_s", median(&outcome.setup_cal_s));
    if let Some(rss) = peak_rss_mb() {
        v.insert("peak_rss_mb", rss);
    }
    v
}

fn print_values(workload: &str, defs: &[MetricDef], values: &Values) {
    for d in defs {
        if let Some(v) = values.get(d.name) {
            println!("metric {workload} {} = {v} {}", d.name, d.unit);
        }
    }
}

fn print_outcome(o: &Outcome, samples: bool) {
    let (cal, raw) = (o.cal(), o.raw());
    let w = o.workload;
    println!(
        "info {w} samples={} tail_percentile={} attempted={} failed={} fail_ratio={}",
        cal.len(),
        tail(&cal).map_or("none".to_owned(), |(p, _)| format!("{p:.1}")),
        o.attempted,
        o.failed,
        o.failed as f64 / o.attempted.max(1) as f64,
    );
    println!(
        "info {w} raw_latency_p50_s={:.6} raw_latency_tail_s={:.6} raw_setup_s={:.6} setup_reps={}",
        median(&raw),
        tail(&raw).map_or_else(|| median(&raw), |(_, v)| v),
        median(&o.setup_raw_s),
        o.setup_raw_s.len(),
    );
    if samples {
        for (i, t) in o.samples.iter().enumerate() {
            println!(
                "sample {w} {i} raw_s={} chain_before={} ilp_before={} chain_after={} ilp_after={}",
                t.raw_s, t.before.chain, t.before.ilp, t.after.chain, t.after.ilp
            );
        }
    }
    println!("exact {w} proof_digest {}", o.digest);
    for (name, value) in &o.exact {
        println!("exact {w} {name} {value}");
    }
}

/// The untraced run: only `name` runs, and every end-to-end metric is reported.
///
/// # Errors
///
/// A metric that could not be measured.
pub fn untraced(name: &'static str, cfg: &RunCfg, host: &Host) -> Result<Report, String> {
    let mut layer = Values::new();
    let (outcome, spans) = run_one(name, cfg, host, Spans::off(), &mut layer);
    let values = end_to_end(&outcome);
    print_outcome(&outcome, cfg.print_samples);
    print_values(name, &END_TO_END, &values);
    let result = ResultLine::collect(&END_TO_END, &values, outcome.attempted, outcome.failed)?;
    Ok(Report {
        result,
        outcomes: vec![outcome],
        spans,
    })
}

/// The traced run: `name` runs with spans on for part of the window, then
/// one workload per layer it does not reach, then the layer probes. Every
/// per-layer metric is reported; `backend.*` rows come from `name` when it is
/// a prove workload and from `prove_dense_1k` otherwise.
///
/// # Errors
///
/// A metric that could not be measured.
pub fn traced(name: &'static str, cfg: &RunCfg, host: &Host) -> Result<Report, String> {
    let prover = if name == "prove_bits_1k" {
        "prove_bits_1k"
    } else {
        "prove_dense_1k"
    };
    let mut layer = Values::new();
    let mut spans = Spans::on();
    let mut outcomes = Vec::new();
    for w in WORKLOADS.iter().map(|w| w.name) {
        if w.starts_with("prove_") && w != prover {
            continue;
        }
        let this = RunCfg {
            seconds: if w == name {
                cfg.seconds * TRACED_WINDOW_SHARE
            } else {
                0.0
            },
            min_ops: cfg.min_ops.min(TRACED_REFERENCE_OPS),
            ..*cfg
        };
        let (outcome, back) = run_one(w, &this, host, spans, &mut layer);
        spans = back;
        print_outcome(&outcome, cfg.print_samples);
        outcomes.push(outcome);
    }
    let mut meter = Meter::new(1, PROBE_CHAIN_SHARE, spans);
    probes::run(cfg, &mut meter, &mut layer);
    host.print("probes", 1, meter.cal.readings());
    let spans = meter.spans;
    if spans.dropped() > 0 {
        println!("warning {} spans did not fit the buffer", spans.dropped());
    }

    print_values(name, &PER_LAYER, &layer);
    let attempted = outcomes.iter().map(|o| o.attempted).sum();
    let failed = outcomes.iter().map(|o| o.failed).sum();
    let result = ResultLine::collect(&PER_LAYER, &layer, attempted, failed)?;
    Ok(Report {
        result,
        outcomes,
        spans,
    })
}

/// The `&'static` name of a workload the user named.
///
/// # Errors
///
/// Lists the workloads when `name` is not one of them.
pub fn resolve(name: &str) -> Result<&'static str, String> {
    workload(name).map(|w| w.name).ok_or_else(|| {
        let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name}; expected one of {}",
            known.join(", ")
        )
    })
}
