//! The benchmark's clock: wall time normalised by two yardsticks.
//!
//! Raw wall time does not repeat on a small shared host: its effective speed
//! flips between two states tens of times a second and drifts over minutes
//! (see the README for the measurements). Every gated time is therefore
//! divided by the time of two fixed, register-only integer kernels measured
//! immediately before and after the timed call.
//!
//! Two, because the disturbance is not uniform: what slows the host down
//! (another tenant on the sibling hardware thread) costs code that keeps the
//! multiplier busy about 1.9x and code that waits on its own results about
//! 1.5x. A *chain* yardstick (one dependent multiply-accumulate chain) and an
//! *ILP* yardstick (four independent chains interleaved) bracket that range,
//! and each workload is calibrated against their geometric mix.

use std::sync::OnceLock;
use std::time::Instant;

/// Steps of the dependent chain (≈ 30 ms on the quiet development host).
pub const CHAIN_STEPS: u32 = 1_100_000;

/// Steps of each of the four interleaved chains (≈ 30 ms in total, quiet).
pub const ILP_STEPS_PER_LANE: u32 = 365_000;

/// The yardstick time that defines one calibrated second: a timed call that
/// takes `t` wall seconds between yardsticks of this length reports `t`.
pub const YARDSTICK_REF_S: f64 = 0.030;

/// A yardstick spread (max ÷ min within one workload) above this is reported
/// as a warning in the host record.
pub const YARDSTICK_SPREAD_WARN: f64 = 2.0;

/// Nanoseconds since the first call in this process: the origin of every span.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

const MULTIPLIER: [u64; 6] = [0xbf58_476d_1ce4_e5b9, 17, 19, 23, 29, 31];

/// One 6x6-limb `u64 x u64 -> u128` multiply-accumulate: no memory traffic and
/// no repository code, so nothing a change to the repository does can move it.
#[inline(always)]
fn mac6(a: &[u64; 6]) -> [u64; 6] {
    let mut t = [0u64; 6];
    for i in 0..6 {
        let mut carry = 0u128;
        for (j, m) in MULTIPLIER.iter().enumerate() {
            let k = (i + j) % 6;
            let v = u128::from(a[i]) * u128::from(*m) + u128::from(t[k]) + carry;
            t[k] = v as u64;
            carry = v >> 64;
        }
        t[i] ^= carry as u64;
    }
    t[0] |= 1;
    t
}

/// The chain yardstick: every step waits for the one before it.
#[inline(never)]
pub fn yardstick_chain() -> f64 {
    let start = Instant::now();
    let mut a = [0x9e37_79b9_7f4a_7c15u64, 3, 5, 7, 11, 13];
    for _ in 0..CHAIN_STEPS {
        a = mac6(&a);
    }
    std::hint::black_box(a);
    start.elapsed().as_secs_f64()
}

/// The ILP yardstick: four independent chains, so the multiplier stays busy.
#[inline(never)]
pub fn yardstick_ilp() -> f64 {
    let start = Instant::now();
    let mut lanes = [[0x9e37_79b9_7f4a_7c15u64, 3, 5, 7, 11, 13]; 4];
    for (i, lane) in lanes.iter_mut().enumerate() {
        lane[1] += i as u64;
    }
    for _ in 0..ILP_STEPS_PER_LANE {
        for lane in &mut lanes {
            *lane = mac6(lane);
        }
    }
    std::hint::black_box(lanes);
    start.elapsed().as_secs_f64()
}

/// One reading of both yardsticks, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// The chain yardstick.
    pub chain: f64,
    /// The ILP yardstick.
    pub ilp: f64,
}

impl Reading {
    fn take() -> Self {
        Self {
            chain: yardstick_chain(),
            ilp: yardstick_ilp(),
        }
    }

    /// Both yardsticks on `threads` OS threads at once, as a multi-threaded
    /// workload loads the host; the mean over the threads.
    pub fn take_on(threads: usize) -> Self {
        if threads <= 1 {
            return Self::take();
        }
        let all: Vec<Self> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(Self::take)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("yardstick thread panicked"))
                .collect()
        });
        let n = all.len() as f64;
        Self {
            chain: all.iter().map(|r| r.chain).sum::<f64>() / n,
            ilp: all.iter().map(|r| r.ilp).sum::<f64>() / n,
        }
    }
}

/// Calibrated seconds of a call that took `raw_s` between two readings.
/// `chain_share` is the weight of the chain yardstick in the geometric mix;
/// the ILP yardstick takes the rest.
pub fn calibrate(raw_s: f64, before: Reading, after: Reading, chain_share: f64) -> f64 {
    let chain = 0.5 * (before.chain + after.chain) / YARDSTICK_REF_S;
    let ilp = 0.5 * (before.ilp + after.ilp) / YARDSTICK_REF_S;
    raw_s / (chain.powf(chain_share) * ilp.powf(1.0 - chain_share))
}

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// Wall seconds.
    pub raw_s: f64,
    /// Calibrated seconds.
    pub cal_s: f64,
    /// Start, as [`now_ns`].
    pub start_ns: u64,
    /// End, as [`now_ns`].
    pub end_ns: u64,
    /// The yardstick reading before the call.
    pub before: Reading,
    /// The yardstick reading after the call.
    pub after: Reading,
}

impl Timed {
    /// Calibrated ÷ raw: the factor that converts a wall duration measured
    /// inside this call (a stage row) into calibrated seconds.
    pub fn factor(&self) -> f64 {
        if self.raw_s > 0.0 {
            self.cal_s / self.raw_s
        } else {
            0.0
        }
    }
}

/// Brackets timed calls with yardstick readings. The reading after call *i* is
/// the one before call *i+1*, so callers keep untimed work between calls short.
pub struct Calibrator {
    threads: usize,
    chain_share: f64,
    last: Reading,
    readings: Vec<Reading>,
}

impl Calibrator {
    /// A calibrator whose yardsticks run on `threads` threads and are mixed
    /// with `chain_share`; takes the first reading.
    pub fn new(threads: usize, chain_share: f64) -> Self {
        let threads = threads.max(1);
        let last = Reading::take_on(threads);
        let mut readings = Vec::with_capacity(256);
        readings.push(last);
        Self {
            threads,
            chain_share,
            last,
            readings,
        }
    }

    /// Takes a fresh "before" reading; call after long untimed work.
    pub fn refresh(&mut self) {
        self.last = Reading::take_on(self.threads);
        self.readings.push(self.last);
    }

    /// Runs `f` between two readings.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let before = self.last;
        let start_ns = now_ns();
        let out = std::hint::black_box(f());
        let end_ns = now_ns();
        let raw_s = (end_ns - start_ns) as f64 * 1e-9;
        self.refresh();
        let timed = Timed {
            raw_s,
            cal_s: calibrate(raw_s, before, self.last, self.chain_share),
            start_ns,
            end_ns,
            before,
            after: self.last,
        };
        (out, timed)
    }

    /// Every reading so far.
    pub fn readings(&self) -> &[Reading] {
        &self.readings
    }
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The tail of `values`: the highest percentile that still has ten samples
/// beyond it, as `(percentile, value)`; `None` when that percentile is not
/// above the median (20 samples or fewer).
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= 20 {
        return None;
    }
    let v = sorted(values);
    let rank = n - 10;
    Some((100.0 * rank as f64 / n as f64, v[rank - 1]))
}

/// `(min, median, max)` of `values`.
pub fn min_med_max(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    (v[0], median(&v), v[v.len() - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("sample is NaN"));
    v
}
