//! Running every workload (one child process each, so that peak memory does
//! not accumulate) and `--repeat-check`, the A/A tool: the full untraced set
//! twice, compared against the benchmark's own bounds.

use crate::metrics::{Better, ResultLine, END_TO_END, EXACT_PER_LAYER, WORKLOADS};
use std::process::Command;

/// One workload's run, as read back from its child process.
#[derive(Debug, Clone)]
pub struct Summary {
    /// The workload.
    pub workload: &'static str,
    /// Its result line.
    pub result: ResultLine,
    /// Its `exact` lines: `(name, value)`.
    pub exact: Vec<(String, u64)>,
}

/// Arguments every child run shares.
#[derive(Debug, Clone, Copy)]
pub struct ChildArgs {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--trace`.
    pub traced: bool,
}

/// Runs every workload in a child process of this executable, echoing its
/// output.
///
/// # Errors
///
/// A child that could not be started, exited non-zero, or printed no result.
pub fn run_all(args: ChildArgs) -> Result<Vec<Summary>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut summaries = Vec::with_capacity(WORKLOADS.len());
    for w in &WORKLOADS {
        // `output` waits for the child to end.
        let out = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("cannot run {}: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        if !out.status.success() {
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            return Err(format!("{} exited with {}", w.name, out.status));
        }
        let result = stdout
            .lines()
            .last()
            .and_then(ResultLine::parse)
            .ok_or_else(|| format!("{} printed no result line", w.name))?;
        let exact = stdout
            .lines()
            .filter_map(|l| parse_exact(l, w.name))
            .collect();
        summaries.push(Summary {
            workload: w.name,
            result,
            exact,
        });
    }
    Ok(summaries)
}

/// `(name, value)` of an `exact <workload> <name> <value>` line of `workload`.
fn parse_exact(line: &str, workload: &str) -> Option<(String, u64)> {
    let mut parts = line.split_whitespace();
    if parts.next()? != "exact" || parts.next()? != workload {
        return None;
    }
    Some((parts.next()?.to_owned(), parts.next()?.parse().ok()?))
}

/// How much worse `second` is than `first`, as a share of `first`; negative
/// when it is better.
pub fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Compares two sets of runs of the same code; prints one row per (metric,
/// workload) and returns whether every end-to-end row is within its bound and
/// every exact figure is identical. Traced sets are compared on their exact
/// per-layer counts only (per-layer times have no bound).
pub fn compare(first: &[Summary], second: &[Summary], traced: bool) -> bool {
    let mut ok = true;
    println!("repeat-check: second set against first; worse = share of the first's value");
    for (a, b) in first.iter().zip(second) {
        for name in EXACT_PER_LAYER.iter().filter(|_| traced) {
            let (x, y) = (a.result.get(name), b.result.get(name));
            let same = x.is_some() && x == y;
            println!(
                "repeat {} exact {name} first={x:?} second={y:?} {}",
                a.workload,
                if same { "identical" } else { "DIFFERS" },
            );
            ok &= same;
        }
        for def in END_TO_END.iter().filter(|_| !traced) {
            let (Some(x), Some(y)) = (a.result.get(def.name), b.result.get(def.name)) else {
                println!("repeat {} {} MISSING", a.workload, def.name);
                ok = false;
                continue;
            };
            let bound = def.bound.expect("end-to-end metrics have bounds");
            let worse = worsening(def.better, x, y);
            let within = worse <= bound;
            println!(
                "repeat {} {} first={x} second={y} worse={:+.4} bound={bound} {}",
                a.workload,
                def.name,
                worse,
                if within { "ok" } else { "BREACH" },
            );
            ok &= within;
        }
        if a.result.failed + b.result.failed > 0 {
            println!(
                "repeat {} failed ops: {} then {}",
                a.workload, a.result.failed, b.result.failed
            );
            ok = false;
        }
        for (name, value) in &a.exact {
            let other = b.exact.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            let same = other == Some(*value);
            println!(
                "repeat {} exact {name} first={value} second={} {}",
                a.workload,
                other.map_or("missing".to_owned(), |v| v.to_string()),
                if same { "identical" } else { "DIFFERS" },
            );
            ok &= same;
        }
    }
    ok
}
