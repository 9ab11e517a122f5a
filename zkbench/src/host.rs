//! The host record printed with every run, and the thread plan that keeps the
//! load within the machine.

use crate::clock::{min_med_max, Reading, YARDSTICK_SPREAD_WARN};
use std::process::Command;

/// How many threads each part of the benchmark may use on a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPlan {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// `ProofService` workers on the serve workload.
    pub workers: usize,
    /// Threads of the process-wide pool (`ZKP_THREADS`), which the service
    /// workers share and sessions build their plans on.
    pub pool_threads: usize,
}

impl ThreadPlan {
    /// The plan for a host with `nproc` CPUs: `min(2, nproc)` workers, and a
    /// shared pool sized so that workers plus the pool's own threads never
    /// exceed `nproc` (the pool counts its caller as one of its threads).
    pub fn for_host(nproc: usize) -> Self {
        let nproc = nproc.max(1);
        let workers = nproc.min(2);
        Self {
            nproc,
            workers,
            pool_threads: (nproc + 1 - workers).max(1),
        }
    }

    /// Threads that can be busy at once on the serve workload.
    pub fn busy_threads(&self) -> usize {
        self.workers + self.pool_threads - 1
    }

    /// More busy threads than CPUs: times then measure contention, not work.
    pub fn oversubscribed(&self) -> bool {
        self.busy_threads() > self.nproc
    }
}

/// What the run ran on.
#[derive(Debug, Clone)]
pub struct Host {
    /// The thread plan in force.
    pub plan: ThreadPlan,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version` of the toolchain on `PATH`.
    pub toolchain: String,
}

impl Host {
    /// Reads the host.
    pub fn detect() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        // `output` waits for the child, so no process outlives the run.
        let toolchain = Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned());
        Self {
            plan: ThreadPlan::for_host(nproc),
            cpu_model,
            toolchain,
        }
    }

    /// Prints the record; `readings` is every yardstick reading of one workload.
    pub fn print(&self, workload: &str, threads: usize, readings: &[Reading]) {
        println!(
            "host workload={workload} nproc={} cpu=\"{}\" ZKP_THREADS={} workers={} \
             workload_threads={threads} oversubscribed={} toolchain=\"{}\"",
            self.plan.nproc,
            self.cpu_model,
            self.plan.pool_threads,
            self.plan.workers,
            threads > self.plan.nproc || self.plan.oversubscribed(),
            self.toolchain,
        );
        let chain: Vec<f64> = readings.iter().map(|r| r.chain).collect();
        let ilp: Vec<f64> = readings.iter().map(|r| r.ilp).collect();
        for (name, values) in [("chain", &chain), ("ilp", &ilp)] {
            let (lo, med, hi) = min_med_max(values);
            println!(
                "host workload={workload} yardstick_{name}_ms min={:.3} median={:.3} max={:.3} readings={}",
                lo * 1e3,
                med * 1e3,
                hi * 1e3,
                values.len()
            );
            if hi > YARDSTICK_SPREAD_WARN * lo {
                println!(
                    "warning workload={workload} {name} yardstick spread {:.2}x exceeds \
                     {YARDSTICK_SPREAD_WARN}x: the host was disturbed during this run",
                    hi / lo
                );
            }
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
