//! The five workloads and what they share: sizes, the measuring loop, the
//! outcome of a run.

pub mod prove;
pub mod quotient;
pub mod serve;
pub mod simzoo;

use crate::clock::{median, Timed};
use crate::host::ThreadPlan;
use crate::metrics::Values;
use crate::spans::Meter;
use std::time::Instant;

/// Ops a measured window never goes below, so that the tail percentile stays
/// above the median (see [`crate::clock::tail`]).
pub const MIN_OPS: usize = 22;

/// Problem sizes. Full sizes keep one op under ~0.3 s, so that the yardsticks
/// around it sample the same noise as the op and a 10 s window holds 35+ ops.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// MiMC rounds of `prove_dense_1k` (2 constraints each).
    pub dense_rounds: usize,
    /// `u64` range checks of `prove_bits_1k` (65 constraints each).
    pub bits_words: usize,
    /// MiMC rounds of `serve_dense_256`.
    pub serve_rounds: usize,
    /// Jobs per batch on `serve_dense_256`.
    pub serve_batch: usize,
    /// log2 of the `quotient_32k` domain.
    pub quotient_log: u32,
    /// log2 of the small NTT probe (the prove workloads' domain).
    pub ntt_small_log: u32,
    /// Resident warps of the simulated FF microbenchmarks.
    pub sim_warps: usize,
    /// Iterations per thread of the simulated FF microbenchmarks.
    pub sim_iters: u32,
    /// Length of the dependent chains of the field probes.
    pub ff_chain: usize,
    /// Repetitions of each probe (the median is reported).
    pub probe_reps: usize,
}

impl Sizes {
    /// The sizes every reported number uses.
    pub fn full() -> Self {
        Self {
            dense_rounds: 512,
            bits_words: 16,
            serve_rounds: 128,
            serve_batch: 4,
            quotient_log: 15,
            ntt_small_log: 11,
            sim_warps: 4,
            sim_iters: 8,
            ff_chain: 100_000,
            probe_reps: 3,
        }
    }

    /// Tiny sizes for `--smoke`: every code path, no meaningful number.
    pub fn smoke() -> Self {
        Self {
            dense_rounds: 16,
            bits_words: 1,
            serve_rounds: 8,
            serve_batch: 2,
            quotient_log: 10,
            ntt_small_log: 6,
            sim_warps: 1,
            sim_iters: 1,
            ff_chain: 500,
            probe_reps: 1,
        }
    }
}

/// How one workload is run.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds the measured window lasts.
    pub seconds: f64,
    /// Ops the window never goes below.
    pub min_ops: usize,
    /// Times set-up is repeated (the median is reported).
    pub setup_reps: usize,
    /// Record spans, stage rows and per-layer figures.
    pub traced: bool,
    /// Problem sizes.
    pub sizes: Sizes,
    /// Threads each part may use.
    pub plan: ThreadPlan,
    /// Deliberately corrupt one output before checking it (`--self-test`).
    pub corrupt: bool,
    /// Print every op's wall time and yardstick readings (`--samples`), the
    /// data a workload's calibration mix is fitted on.
    pub print_samples: bool,
}

/// What one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload's name.
    pub workload: &'static str,
    /// One entry per timed op.
    pub samples: Vec<Timed>,
    /// Items (proofs, quotients, sweeps) one op completes.
    pub items_per_op: u64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored or whose output failed its check.
    pub failed: u64,
    /// Calibrated seconds of each set-up repetition.
    pub setup_cal_s: Vec<f64>,
    /// Wall seconds of each set-up repetition.
    pub setup_raw_s: Vec<f64>,
    /// FNV-1a digest of the first op's output bytes.
    pub digest: u64,
    /// Counts that must repeat exactly between two runs of one seed.
    pub exact: Vec<(&'static str, u64)>,
    /// OS threads the workload keeps busy.
    pub threads: usize,
}

impl Outcome {
    /// Calibrated seconds of every op.
    pub fn cal(&self) -> Vec<f64> {
        self.samples.iter().map(|t| t.cal_s).collect()
    }

    /// Wall seconds of every op.
    pub fn raw(&self) -> Vec<f64> {
        self.samples.iter().map(|t| t.raw_s).collect()
    }

    /// Items ÷ Σ calibrated op time.
    pub fn throughput(&self) -> f64 {
        let total: f64 = self.cal().iter().sum();
        (self.samples.len() as u64 * self.items_per_op) as f64 / total
    }
}

/// Set-up repetitions: `(calibrated, wall)` seconds of each.
#[derive(Debug, Default)]
pub struct SetupTimes {
    cal: Vec<f64>,
    raw: Vec<f64>,
}

impl SetupTimes {
    /// Adds one repetition as the sum of its yardstick-bracketed parts.
    pub fn push(&mut self, parts: &[Timed]) {
        self.cal.push(parts.iter().map(|t| t.cal_s).sum());
        self.raw.push(parts.iter().map(|t| t.raw_s).sum());
    }

    /// Whether set-up should be repeated once more: at least `cfg.setup_reps`
    /// times, and up to nine while the repetitions so far total under a
    /// quarter second, so that a millisecond-scale set-up is not reported from
    /// three samples.
    pub fn wants_more(&self, cfg: &RunCfg) -> bool {
        let n = self.raw.len();
        n < cfg.setup_reps || (n < 3 * cfg.setup_reps && self.raw.iter().sum::<f64>() < 0.25)
    }

    /// Moves the repetitions into an outcome's fields.
    pub fn into_parts(self) -> (Vec<f64>, Vec<f64>) {
        (self.cal, self.raw)
    }
}

/// Runs `op` in a closed loop for `cfg.seconds`, and at least `cfg.min_ops`
/// times. The window includes the yardsticks between ops.
pub fn measure(
    cfg: &RunCfg,
    meter: &mut Meter,
    workload: &'static str,
    mut op: impl FnMut(usize, &mut Meter) -> Timed,
) -> Vec<Timed> {
    let mut samples = Vec::with_capacity(256);
    meter.spans.scope(workload, -1);
    meter.cal.refresh();
    let started = Instant::now();
    while samples.len() < cfg.min_ops || started.elapsed().as_secs_f64() < cfg.seconds {
        let i = samples.len();
        meter.spans.scope(workload, i as i64);
        samples.push(op(i, meter));
    }
    meter.spans.scope(workload, -1);
    samples
}

/// Streaming FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The empty digest.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.update(bytes);
    h.finish()
}

/// Stores the median of `samples` under `name`, if there are any.
pub fn put_median(layer: &mut Values, name: &'static str, samples: &[f64]) {
    if !samples.is_empty() {
        layer.insert(name, median(samples));
    }
}
