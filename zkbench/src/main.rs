//! `zkbench` command line. The driver's form is
//! `zkbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`, whose
//! last line of standard output is the result; without `--workload` every
//! workload runs in a child process of its own. See `README.md`.

use std::process::ExitCode;
use zkbench::adapter::CountingAlloc;
use zkbench::host::Host;
use zkbench::metrics::{benchmark_json, RUN_SECONDS, WORKLOADS};
use zkbench::repeat::{compare, run_all, ChildArgs};
use zkbench::run::{process_warm_up, resolve, traced, untraced, Report};
use zkbench::selftest;
use zkbench::workloads::{RunCfg, Sizes, MIN_OPS};

/// Counts allocations per thread, for `runtime.warm_allocs_per_proof`.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: zkbench [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
               [--trace-out <file>] [--samples] [--smoke] [--repeat-check] [--self-test]
               [--print-benchmark-json]";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<String>,
    smoke: bool,
    samples: bool,
    repeat_check: bool,
    self_test: bool,
    print_benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        traced: false,
        trace_out: None,
        smoke: false,
        samples: false,
        repeat_check: false,
        self_test: false,
        print_benchmark_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&args.seconds) {
                    return Err("--seconds must be between 0 and 600".to_owned());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => args.traced = true,
            "--trace-out" => args.trace_out = Some(value()?),
            "--smoke" => args.smoke = true,
            "--samples" => args.samples = true,
            "--repeat-check" => args.repeat_check = true,
            "--self-test" => args.self_test = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn run_cfg(args: &Args, host: &Host) -> RunCfg {
    if args.smoke {
        RunCfg {
            seed: args.seed,
            seconds: 0.0,
            min_ops: 3,
            setup_reps: 1,
            traced: args.traced,
            sizes: Sizes::smoke(),
            plan: host.plan,
            corrupt: false,
            print_samples: args.samples,
        }
    } else {
        RunCfg {
            seed: args.seed,
            seconds: args.seconds,
            min_ops: MIN_OPS,
            setup_reps: if args.traced { 1 } else { 3 },
            traced: args.traced,
            sizes: Sizes::full(),
            plan: host.plan,
            corrupt: false,
            print_samples: args.samples,
        }
    }
}

/// One workload in this process; the result is the last line printed.
fn single(name: &str, args: &Args, host: &Host) -> Result<bool, String> {
    let name = resolve(name)?;
    let cfg = run_cfg(args, host);
    let Report { result, spans, .. } = if cfg.traced {
        traced(name, &cfg, host)?
    } else {
        untraced(name, &cfg, host)?
    };
    if let Some(path) = &args.trace_out {
        std::fs::write(path, spans.to_chrome_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("info wrote {} spans to {path}", spans.all().len());
    }
    println!("{}", result.to_json());
    Ok(result.correct)
}

/// `--smoke`: every workload untraced, then one traced run, all in-process.
fn smoke(args: &Args, host: &Host) -> Result<bool, String> {
    let mut ok = true;
    for w in &WORKLOADS {
        let untraced_args = Args {
            traced: false,
            trace_out: None,
            ..args.clone()
        };
        ok &= single(w.name, &untraced_args, host)?;
    }
    let traced_args = Args {
        traced: true,
        ..args.clone()
    };
    ok &= single(WORKLOADS[0].name, &traced_args, host)?;
    Ok(ok)
}

fn all(args: &Args) -> Result<bool, String> {
    let child = ChildArgs {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
    };
    let first = run_all(child)?;
    let mut ok = first.iter().all(|s| s.result.correct);
    if args.repeat_check {
        let second = run_all(child)?;
        ok &= second.iter().all(|s| s.result.correct);
        ok &= compare(&first, &second, args.traced);
    }
    println!(
        "summary: one row per (workload, metric) of the {} run",
        if args.traced { "traced" } else { "untraced" }
    );
    for s in &first {
        for (name, value, unit) in &s.result.metrics {
            println!("summary {} {name} = {value} {unit}", s.workload);
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("zkbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    if let Some(Err(e)) = args.workload.as_deref().map(resolve) {
        eprintln!("zkbench: {e}");
        return ExitCode::from(2);
    }
    let outcome = if args.workload.is_none() && !args.smoke && !args.self_test {
        all(&args)
    } else {
        let host = Host::detect();
        let warm = process_warm_up(&host);
        println!("info process warm-up {warm:.3} s (lazy constants; not part of any metric)");
        if args.self_test {
            Ok(selftest::run(args.seed, &host))
        } else if let Some(name) = &args.workload {
            // The driver's form: the result line carries `correct`, so the
            // exit code only says whether a result was produced.
            single(name, &args, &host).map(|_| true)
        } else {
            smoke(&args, &host)
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("zkbench: an output check or a repeat check failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("zkbench: {e}");
            ExitCode::from(1)
        }
    }
}
