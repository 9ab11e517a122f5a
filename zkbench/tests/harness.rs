//! Tests of the harness itself: the statistics, the contract tables and their
//! limits, the adapter rule, and a `--smoke` pass of the real binary.
//!
//! Run with `cargo test --release --manifest-path zkbench/Cargo.toml`.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;
use std::time::Instant;
use zkbench::clock::{calibrate, median, tail, Reading, YARDSTICK_REF_S};
use zkbench::host::ThreadPlan;
use zkbench::metrics::{
    benchmark_json, valid_name, valid_unit, Better, ResultLine, Values, END_TO_END,
    EXACT_PER_LAYER, PER_LAYER, RUN_SECONDS, WORKLOADS,
};
use zkbench::repeat::worsening;
use zkbench::spans::Spans;

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    // 40 samples: p75 is the 30th value, and ten lie beyond it.
    assert_eq!(tail(&ramp(40)), Some((75.0, 30.0)));
    // 19 or 20 samples: that percentile is not above the median.
    assert_eq!(tail(&ramp(19)), None);
    assert_eq!(tail(&ramp(20)), None);
    let (p, v) = tail(&ramp(21)).expect("21 samples have a tail");
    assert!(p > 50.0 && v == 11.0);
    // Order of arrival does not matter.
    let mut shuffled = ramp(40);
    shuffled.reverse();
    assert_eq!(tail(&shuffled), Some((75.0, 30.0)));
}

#[test]
fn median_handles_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn calibrated_time_divides_out_the_host_speed() {
    let at = |chain: f64, ilp: f64| Reading {
        chain: chain * YARDSTICK_REF_S,
        ilp: ilp * YARDSTICK_REF_S,
    };
    for share in [0.0, 0.5, 1.0] {
        // A host at reference speed reports wall time unchanged.
        let quiet = calibrate(0.3, at(1.0, 1.0), at(1.0, 1.0), share);
        assert!((quiet - 0.3).abs() < 1e-12);
        // The same work on a host uniformly twice as slow reads the same.
        let slow = calibrate(0.6, at(2.0, 2.0), at(2.0, 2.0), share);
        assert!((slow - quiet).abs() < 1e-12);
        // A speed change during the op is split between the two readings.
        let mixed = calibrate(0.45, at(1.0, 1.0), at(2.0, 2.0), share);
        assert!((mixed - 0.3).abs() < 1e-12);
    }
    // A disturbance that costs the chain 1.5x and the ILP kernel 2x costs a
    // half-and-half workload their geometric mean, and a simulator-like one 2x.
    let disturbed = at(1.5, 2.0);
    let half = calibrate(0.3 * (1.5f64 * 2.0).sqrt(), disturbed, disturbed, 0.5);
    assert!((half - 0.3).abs() < 1e-12);
    let ilp_only = calibrate(0.6, disturbed, disturbed, 0.0);
    assert!((ilp_only - 0.3).abs() < 1e-12);
}

#[test]
fn worsening_follows_the_metric_direction() {
    assert!((worsening(Better::Lower, 1.0, 1.1) - 0.1).abs() < 1e-12);
    assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
    assert!(worsening(Better::Lower, 1.0, 0.9) < 0.0);
}

#[test]
fn names_units_and_limits_fit_the_contract() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((1..=60).contains(&RUN_SECONDS));
    let mut seen = BTreeSet::new();
    for w in &WORKLOADS {
        assert!(valid_name(w.name), "{}", w.name);
        assert!(seen.insert(w.name), "{} is used twice", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why is {} long",
            w.name,
            w.why.len()
        );
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_name(m.name), "{}", m.name);
        assert!(valid_unit(m.unit), "{}: unit {}", m.name, m.unit);
        assert!(seen.insert(m.name), "{} is used twice", m.name);
    }
    for m in &END_TO_END {
        let bound = m.bound.expect("end-to-end metrics have bounds");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
    }
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    let widest = END_TO_END
        .iter()
        .map(|m| m.bound.unwrap())
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
    for name in &EXACT_PER_LAYER {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "{name} is not a per-layer metric"
        );
    }
    // The charset rule itself.
    for bad in ["", "-x", "a b", "a/b", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad:?}");
    }
    for good in ["a", "9", "gpu-sim.sim_cycles", "latency_p50_cal_s"] {
        assert!(valid_name(good), "{good}");
    }
    assert!(valid_unit("1/s") && valid_unit("%") && !valid_unit("per second") && !valid_unit(""));
}

#[test]
fn committed_benchmark_json_is_the_generated_one() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        benchmark_json(),
        "regenerate with: zkbench --print-benchmark-json > BENCHMARK.json"
    );
    assert!(committed.len() <= 64 * 1024);
}

#[test]
fn result_line_round_trips() {
    let mut values = Values::new();
    for (i, m) in END_TO_END.iter().enumerate() {
        values.insert(m.name, 0.125 + i as f64 * 1.5e-7);
    }
    let line = ResultLine::collect(&END_TO_END, &values, 40, 0).expect("every metric present");
    assert!(line.correct);
    let json = line.to_json();
    assert!(!json.contains('\n'));
    assert_eq!(ResultLine::parse(&json), Some(line));

    values.remove("setup_s");
    assert!(
        ResultLine::collect(&END_TO_END, &values, 40, 0).is_err(),
        "a missing metric is an error"
    );
    values.insert("setup_s", f64::NAN);
    assert!(
        ResultLine::collect(&END_TO_END, &values, 40, 0).is_err(),
        "NaN is an error"
    );
    values.insert("setup_s", 1.0);
    assert!(
        !ResultLine::collect(&END_TO_END, &values, 40, 1)
            .unwrap()
            .correct
    );
}

#[test]
fn thread_plan_never_exceeds_the_host() {
    for nproc in 1..=64 {
        let plan = ThreadPlan::for_host(nproc);
        assert!(plan.workers >= 1 && plan.pool_threads >= 1);
        assert!(plan.busy_threads() <= nproc, "{plan:?}");
        assert!(!plan.oversubscribed());
    }
    assert_eq!(ThreadPlan::for_host(2).workers, 2);
    assert_eq!(ThreadPlan::for_host(2).pool_threads, 1);
    let forced = ThreadPlan {
        nproc: 1,
        workers: 2,
        pool_threads: 2,
    };
    assert!(
        forced.oversubscribed(),
        "the guard fires when threads exceed CPUs"
    );
}

#[test]
fn spans_nest_and_self_time_excludes_children() {
    let mut spans = Spans::on();
    spans.scope("w", 3);
    let op = spans.record("op", "groth16", 1_000, 11_000);
    spans.stage(op, "stage-a", "backend", 4_000);
    spans.stage(op, "stage-b", "backend", 5_000);
    spans.count(op, "ops_dispatched", 2);
    assert_eq!(spans.self_ns()[op as usize], 1_000);
    let all = spans.all();
    assert_eq!(all.len(), 3);
    assert_eq!(all[1].parent, Some(op));
    assert_eq!((all[1].start_ns, all[1].end_ns), (1_000, 5_000));
    assert_eq!((all[2].start_ns, all[2].end_ns), (5_000, 10_000));
    assert!(all[2].duration_only && all[2].op_index == 3);

    let json = spans.to_chrome_json();
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
    assert!(json.contains("\"ops_dispatched\":2") && json.contains("\"self_us\":1.000"));

    // A disabled buffer records nothing and tolerates every call.
    let mut off = Spans::off();
    let id = off.record("op", "groth16", 0, 1);
    off.stage(id, "s", "backend", 1);
    off.count(id, "k", 1);
    assert!(off.all().is_empty());
}

#[test]
fn only_the_adapter_names_repository_crates() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut stack = vec![src];
    let mut checked = 0;
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(dir).expect("src is readable") {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.file_name().is_some_and(|n| n != "adapter.rs") {
                let text = std::fs::read_to_string(&path).expect("source is UTF-8");
                for krate in ["zkp_", "gpu_sim", "gpu_kernels", "rand::"] {
                    assert!(!text.contains(krate), "{} names {krate}", path.display());
                }
                checked += 1;
            }
        }
    }
    assert!(checked >= 10, "the scan found the sources");
}

#[test]
fn api_surface_lists_what_the_adapter_names() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let adapter = std::fs::read_to_string(root.join("src/adapter.rs")).expect("adapter.rs");
    let surface = std::fs::read_to_string(root.join("API_SURFACE.json")).expect("API_SURFACE.json");
    let named = &surface[surface.find("\"named\"").expect("named list")
        ..surface
            .find("\"through_values\"")
            .expect("through_values list")];
    let listed: Vec<&str> = named.split('"').filter(|s| s.contains("::")).collect();
    assert!(listed.len() > 40, "the surface is listed");
    for path in &listed {
        let item = path.rsplit("::").next().unwrap();
        assert!(
            adapter.contains(item),
            "{path} is listed but the adapter does not name {item}"
        );
    }
    // Every `use` path segment the adapter imports is listed.
    for line in adapter
        .lines()
        .filter(|l| l.starts_with("pub use ") || l.starts_with("use "))
    {
        let krate = line
            .split("use ")
            .nth(1)
            .unwrap()
            .split("::")
            .next()
            .unwrap();
        assert!(
            listed.iter().any(|p| p.starts_with(krate)),
            "{krate} is imported but missing from the surface"
        );
    }
}

fn zkbench(args: &[&str]) -> (bool, String, f64) {
    let start = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_zkbench"))
        .args(args)
        .output()
        .expect("zkbench runs");
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
    }
    (out.status.success(), text, start.elapsed().as_secs_f64())
}

#[test]
fn smoke_pass_emits_every_named_metric() {
    let (ok, out, seconds) = zkbench(&["--smoke", "--seed", "7"]);
    assert!(ok, "smoke pass failed:\n{out}");
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let needle = format!("metric {} {} = ", w.name, m.name);
            assert!(out.contains(&needle), "missing `{needle}`");
        }
    }
    for m in &PER_LAYER {
        let needle = format!(" {} = ", m.name);
        assert!(out.contains(&needle), "missing per-layer `{}`", m.name);
    }
    let results: Vec<ResultLine> = out.lines().filter_map(ResultLine::parse).collect();
    assert_eq!(
        results.len(),
        WORKLOADS.len() + 1,
        "five untraced results and one traced"
    );
    assert!(results
        .iter()
        .all(|r| r.correct && r.failed == 0 && r.attempted >= 1));
    assert_eq!(results.last().unwrap().metrics.len(), PER_LAYER.len());
    // Generous: the pass takes ~10 s on the 2-core development host.
    assert!(seconds < 60.0, "smoke pass took {seconds:.1} s");
}

#[test]
fn self_test_shows_each_check_firing() {
    let (ok, out, _) = zkbench(&["--self-test", "--seed", "7"]);
    assert!(ok, "self-test failed:\n{out}");
    assert_eq!(out.matches("corrupt=true").count(), 3);
    assert!(!out.contains("DID NOT"));
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--frobnicate"],
    ] {
        let (ok, out, _) = zkbench(args);
        assert!(!ok, "{args:?} must fail");
        assert!(out.lines().filter_map(ResultLine::parse).next().is_none());
    }
}
