//! Pippenger's bucket algorithm for Multi-Scalar Multiplication.
//!
//! `Q = Σ kᵢ·Pᵢ` is computed per Fig. 4(a) of the paper: split each λ-bit
//! scalar into `w` windows of `s` bits; within each window place points into
//! buckets keyed by the window digit (*Bucket Accumulation*), reduce buckets
//! with the running *Sum-of-Sums* trick (*Bucket Reduction*, `2·2^s` PADDs
//! per window), and finally combine window sums with doublings (*Window
//! Reduction* — the serial part, "often performed on the CPU").
//!
//! # The endomorphism split
//!
//! When [`MsmConfig::endomorphism`] is set and the curve exposes one
//! ([`SwCurve::endomorphism`]), every scalar is first split into `D` short
//! subscalars `k = Σ kᵢ·eⁱ (mod r)` and each base contributes `D` rows
//! `P, map(P), …, map^{D−1}(P)`: `D = 2` on BLS12 G1 (GLV's `φ`, ~128-bit
//! signed halves), `D = 4` on G2 (`ψ`, 64-bit base-`|x|` digits). The
//! engine then runs over `D·n` rows but `1/D` of the windows — the
//! first-order MSM lever of §IV-D / SZKP. A curve without an endomorphism
//! falls back to the plain path transparently.
//!
//! # Bases at infinity
//!
//! A base at infinity contributes nothing whatever its scalar, so no table
//! holds one: tables — a plan's and the one-shot expansion alike — are built
//! over the finite bases only, with a row → scalar index map, and the
//! window is sized for the rows that remain.
//!
//! # The window
//!
//! The window size and fold are chosen by one cost model ([`msm_shape`])
//! over the shape that runs: a one-shot reduces each of its `w` windows, a
//! plan folded onto shifted copies reduces `W ≤ w`, and the fewer
//! reductions a run pays the larger the window it affords. Among the folds
//! within 2% of the cheapest the picker keeps the smallest table.
//!
//! # One front door
//!
//! Every MSM is a *plan run*: a [`Layout`] says how the digits of each
//! (sub)scalar fold onto a table of shifted point copies, the one recoder
//! ([`fill_digit_matrix`]) turns scalars into that digit matrix, and the
//! bucket engine consumes it. [`msm_parallel_with_config_in`] runs the
//! single-copy layout over the caller's points; [`MsmPlan`](crate::MsmPlan)
//! runs a layout whose table it built once. Both go through [`execute`].
//!
//! # Parallel decomposition
//!
//! Every MSM runs on a [`zkp_runtime::ThreadPool`] over a task grid of
//! `windows × chunks`: each task accumulates one window's buckets over one
//! contiguous chunk of the input into batch-affine buckets
//! ([`AffineBuckets`], `affine.rs` — the one bucket store), every chunk's
//! partial buckets fold into one sum-of-sums per window — segmented, its
//! additions batch-affine too, where that pays ([`affine_window_sum`]) —
//! and the window reduction happens exactly once. (The previous scheme ran a
//! complete Pippenger per chunk and paid the `2·2^s` bucket reduction plus
//! `s·w` doublings again in every chunk.) The grid shape is a pure function
//! of the problem size — never the thread count — so the computation DAG,
//! the resulting point, and the [`MsmStats`] are bit-identical at any pool
//! width.

use crate::affine::{
    affine_batch_len, affine_window_sum, worth_a_batch, AffineBuckets, BucketAdd, Reduction,
};
use crate::config::MsmConfig;
use zkp_curves::{Affine, Endomorphism, Jacobian, SwCurve};
use zkp_ff::glv::GlvScalar;
use zkp_ff::PrimeField;
use zkp_runtime::ThreadPool;

/// Execution statistics of one MSM, consumed by the GPU kernel models.
///
/// Counters describe the canonical serial Pippenger schedule (one bucket
/// array per window); the chunk-fold additions the parallel engine
/// performs are an implementation detail and are excluded, which is what
/// keeps the stats identical at every thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MsmStats {
    /// Mixed point additions performed during bucket accumulation.
    pub accumulation_padds: u64,
    /// Point additions performed during bucket reduction.
    pub reduction_padds: u64,
    /// Point additions in the final window reduction.
    pub window_padds: u64,
    /// Point doublings in the final window reduction.
    pub window_pdbls: u64,
    /// Number of windows processed.
    pub windows: u32,
    /// Buckets per window.
    pub buckets_per_window: u64,
    /// Scalars split into subscalars by the endomorphism (one per finite
    /// base).
    pub glv_decompositions: u64,
    /// Coordinate-field multiplications spent mapping bases through the
    /// endomorphism (`D − 1` images per finite base, one multiplication
    /// each under `φ`, two under `ψ`; zero when a plan's table holds them).
    pub endomorphism_muls: u64,
    /// Field inversions of the batch-affine bucket accumulation: one per
    /// flushed batch of bucket additions (0 where a batch cannot repay its
    /// inversion, as in a 1-point MSM). A bucket that meets the same point
    /// twice pays one more for its doubling, which is not counted here.
    pub batch_inversions: u64,
    /// Field inversions of the batch-affine bucket reduction: one per round
    /// of segment additions that repays its inversion, and one where hot
    /// buckets are normalised (0 for an unsegmented window).
    pub reduction_inversions: u64,
}

impl MsmStats {
    /// Total point additions of any phase.
    pub fn total_padds(&self) -> u64 {
        self.accumulation_padds + self.reduction_padds + self.window_padds
    }
}

/// The result of an MSM together with its statistics.
#[derive(Debug, Clone)]
pub struct MsmOutput<Cu: SwCurve> {
    /// The computed sum `Σ kᵢ·Pᵢ`.
    pub point: Jacobian<Cu>,
    /// Work counters.
    pub stats: MsmStats,
}

/// Largest accepted window size: a window of `s` bits costs `2^s` buckets
/// (or table entries), and a signed digit must fit an `i32`.
pub(crate) const MAX_WINDOW_BITS: u32 = 20;

/// Rejects a window size outside `1..=MAX_WINDOW_BITS` — the one bound
/// every caller-supplied window size passes through.
///
/// # Panics
///
/// Panics on an out-of-range `window_bits`: 0 would divide by zero in the
/// window count, and 32 or more overflow the digit type or the shift that
/// builds the digit mask.
pub(crate) fn check_window_bits(window_bits: u32) {
    assert!(
        (1..=MAX_WINDOW_BITS).contains(&window_bits),
        "window bits must be in 1..={MAX_WINDOW_BITS}, got {window_bits}"
    );
}

/// The `bits`-wide window of a little-endian magnitude starting at bit
/// `lo`, read word-wise (at most two limbs); bits past the top limb are
/// zero. The only place the crate extracts window bits from limbs.
pub(crate) fn window_digit(limbs: &[u64], lo: u32, bits: u32) -> u64 {
    debug_assert!((1..64).contains(&bits));
    let (limb, off) = ((lo / 64) as usize, lo % 64);
    let Some(&word) = limbs.get(limb) else {
        return 0;
    };
    let mut raw = word >> off;
    if off + bits > 64 {
        // The window straddles a limb boundary (so `off > 0`).
        raw |= limbs.get(limb + 1).map_or(0, |next| next << (64 - off));
    }
    raw & ((1u64 << bits) - 1)
}

/// Recodes a raw little-endian magnitude into its row of the signed-digit
/// matrix, optionally negating every digit (how a negative subscalar
/// enters the bucket engine: `-Σ d·2^(qs) = Σ (-d)·2^(qs)`).
///
/// A digit `d` is stored as a plain `i32`: `d > 0` adds the point to
/// bucket `d - 1`, `d < 0` adds its negation to bucket `-d - 1`, `0` is
/// skipped. With `signed`, digits are recoded into `[-2^(s-1), 2^(s-1)]`,
/// halving the bucket count — the signed-digit trick `ymc` uses (§IV-A).
fn recode_row(limbs: &[u64], window_bits: u32, signed: bool, negate: bool, row: &mut [i32]) {
    let mut carry = 0u64;
    let base = 1u64 << window_bits;
    for (w, slot) in row.iter_mut().enumerate() {
        let d = carry + window_digit(limbs, w as u32 * window_bits, window_bits);
        carry = 0;
        *slot = if signed && d > base / 2 {
            // Recode: d - 2^s (zero when d accumulated to exactly 2^s via
            // the incoming carry), carry 1 into the next window.
            carry = 1;
            -((base - d) as i32)
        } else {
            d as i32
        };
    }
    // The only guard between an over-wide (sub)scalar and a silently wrong
    // point, so it holds in release builds too.
    assert_eq!(carry, 0, "top window must absorb the final carry");
    if negate {
        for slot in row {
            *slot = -*slot;
        }
    }
}

/// How many windows a scalar field needs at a given window size.
///
/// For signed digits one extra bit is required for the final carry.
pub fn num_windows<F: PrimeField>(window_bits: u32, signed: bool) -> u32 {
    let bits = F::modulus_bits() + u32::from(signed);
    bits.div_ceil(window_bits)
}

/// Buckets per window for a digit encoding: signed digits cover
/// `[-2^(s-1), 2^(s-1)]` with `2^(s-1)` buckets, unsigned `[1, 2^s)` with
/// `2^s - 1`.
fn buckets_for(window_bits: u32, signed: bool) -> u64 {
    if signed {
        1u64 << (window_bits - 1)
    } else {
        (1u64 << window_bits) - 1
    }
}

/// Input chunks per window. A chunk costs one more addition per bucket in
/// the sum-of-sums (`2^s` PADDs), so chunks are only opened once the
/// per-window accumulation work dwarfs that; the cap bounds partial-bucket
/// memory.
/// Purely a function of problem shape — never thread count — so results
/// stay bit-identical across pool widths.
fn chunk_grid(n: usize, buckets_per_window: u64) -> usize {
    let merge_cost = 8 * buckets_per_window as usize;
    (n / merge_cost.max(1)).clamp(1, 8)
}

// ---------------------------------------------------------------------------
// Reusable scratch state
// ---------------------------------------------------------------------------

/// Reusable scratch memory for one MSM call site.
///
/// Every transient buffer an MSM needs — both digit matrices, the
/// subscalars, the one-shot table of finite bases and their images with
/// its row → scalar index, the bucket tasks — lives here and is reused run
/// to run, so a warmed scratch makes [`msm_parallel_with_config_in`] /
/// [`MsmPlan::execute_in`](crate::MsmPlan::execute_in) allocation-free in
/// steady state. Buffers only ever grow; results are bit-identical to the
/// scratch-free entry points.
#[derive(Default)]
pub struct MsmScratch<Cu: SwCurve> {
    /// One bucket task per (window, chunk), task-major: task
    /// `t = win·chunks + chunk`, so one window's chunk partials are
    /// contiguous; after the reduction pass, bucket 0 of a window's first
    /// task holds that window's sum-of-sums.
    tasks: Vec<AffineBuckets<Cu>>,
    /// `ppc × w`: every (sub)scalar's digits over its full window count.
    full_digits: Vec<i32>,
    /// `(copies·ppc) × W`: `full_digits` folded onto the table's copies.
    digits: Vec<i32>,
    /// `n × D` subscalars, scalar-major.
    subs: Vec<GlvScalar>,
    expanded: Vec<Affine<Cu>>,
    index: Vec<usize>,
}

impl<Cu: SwCurve> MsmScratch<Cu> {
    /// An empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

// ---------------------------------------------------------------------------
// The bucket engine
// ---------------------------------------------------------------------------

/// A fully prepared bucket-engine problem: points paired row-for-row with a
/// flat signed-digit matrix, as [`execute`] builds it.
struct EngineInput<'a, Cu: SwCurve> {
    /// The points, one per digit-matrix row.
    pub points: &'a [Affine<Cu>],
    /// Flat `points.len() × windows` digit matrix, row-major.
    pub digits: &'a [i32],
    /// Window size `s` in bits.
    pub window_bits: u32,
    /// Number of windows `w`.
    pub windows: u32,
    /// Buckets per window.
    pub buckets_per_window: u64,
}

/// Window reduction (serial; Fig. 4a bottom): Horner over 2^s, from the
/// top window's sum down.
fn horner<Cu: SwCurve>(
    window_sums: impl DoubleEndedIterator<Item = Jacobian<Cu>>,
    window_bits: u32,
) -> Jacobian<Cu> {
    let mut acc = Jacobian::identity();
    for sum in window_sums.rev() {
        for _ in 0..window_bits {
            acc = acc.double();
        }
        acc = acc.add(&sum);
    }
    acc
}

/// The bucket engine: accumulation over the `windows × chunks` task grid,
/// one [`AffineBuckets`] per task in `tasks`, then each window's chunk
/// partials folded into its sum-of-sums, then the window reduction.
fn bucket_engine_in<Cu: SwCurve>(
    inp: EngineInput<'_, Cu>,
    pool: &ThreadPool,
    tasks: &mut Vec<AffineBuckets<Cu>>,
) -> MsmOutput<Cu> {
    let n = inp.points.len();
    debug_assert!(n > 0, "execute() answers the empty MSM itself");
    debug_assert_eq!(inp.digits.len(), n * inp.windows as usize);
    // A bucket addition names its table row as a `u32`.
    assert!(u32::try_from(n).is_ok(), "{n} table rows exceed u32");
    let chunks = chunk_grid(n, inp.buckets_per_window);
    let chunk_len = n.div_ceil(chunks);
    let wu = inp.windows as usize;
    let bpw = inp.buckets_per_window as usize;
    let (points, digits) = (inp.points, inp.digits);

    // Tasks only ever grow in number, like the other scratch buffers.
    if tasks.len() < wu * chunks {
        tasks.resize_with(wu * chunks, AffineBuckets::default);
    }
    let tasks = &mut tasks[..wu * chunks];
    pool.for_each_block_mut(tasks, 1, 1, |t, task| {
        let task = &mut task[0];
        let win = t / chunks;
        let lo = (t % chunks) * chunk_len;
        task.reset(bpw);
        for i in lo..(lo + chunk_len).min(n) {
            let d = digits[i * wu + win];
            if d != 0 {
                let add = BucketAdd {
                    bucket: d.unsigned_abs() - 1,
                    row: i as u32,
                    neg: d < 0,
                };
                task.push(points, add);
            }
        }
        task.finish(points);
    });
    pool.for_each_block_mut(tasks, chunks, 1, |_, window| {
        window[0].buckets[0] = affine_window_sum(window);
    });

    let sums = tasks
        .chunks_exact(chunks)
        .map(|window| window[0].buckets[0].to_jacobian());
    let count = |f: fn(&AffineBuckets<Cu>) -> u64| tasks.iter().map(f).sum();
    let (s, w) = (u64::from(inp.window_bits), u64::from(inp.windows));
    MsmOutput {
        point: horner(sums, inp.window_bits),
        stats: MsmStats {
            accumulation_padds: count(|t| t.adds),
            reduction_padds: 2 * inp.buckets_per_window * w,
            window_padds: w,
            window_pdbls: s * w,
            windows: inp.windows,
            buckets_per_window: inp.buckets_per_window,
            batch_inversions: count(|t| t.flushes),
            reduction_inversions: count(|t| t.reduction_inversions),
            ..MsmStats::default()
        },
    }
}

// ---------------------------------------------------------------------------
// The plan run: layout → recoder → engine
// ---------------------------------------------------------------------------

/// The shape of one plan run: how the full-width digits of every
/// (sub)scalar fold onto a table of shifted copies of the base rows. A
/// one-shot MSM is the single-copy case (`target_windows = full_windows`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout<Cu: SwCurve> {
    /// Finite base points, i.e. rows per endomorphism power.
    pub(crate) n: usize,
    /// The endomorphism scalars are split on at run time; the rows of one
    /// copy are then `[P…, map(P)…, …, map^{D−1}(P)…]`.
    pub(crate) endo: Option<&'static Endomorphism<Cu>>,
    /// Window size `s` in bits.
    pub(crate) window_bits: u32,
    /// Windows `w` of one (sub)scalar before folding into copies.
    pub(crate) full_windows: u32,
    /// Windows reduced per run (`W` of Fig. 12).
    pub(crate) target_windows: u32,
    /// Signed-digit recoding.
    pub(crate) signed: bool,
}

/// Costs in `FF_mul` units (`FF_mul` + `FF_sqr`), as `Counted<F>` reports
/// them for the formulas the engine runs: the XYZZ mixed and full addition
/// of hot buckets and the sum-of-sums, the Jacobian doubling of the Horner
/// tail, the XYZZ doubling of the segmented reduction's tail, and one
/// batch-affine addition with its three multiplications of the batch
/// inversion.
pub(crate) const MADD_FF_MULS: u64 = 10;
pub(crate) const ADD_FF_MULS: u64 = 14;
const DBL_FF_MULS: u64 = 7;
pub(crate) const XYZZ_DBL_FF_MULS: u64 = 9;
pub(crate) const AFFINE_ADD_FF_MULS: u64 = 6;
/// `FF_inv` in `FF_mul` units — measured, not counted (`Counted` tallies
/// an inversion as one op): divsteps against a Montgomery multiplication on
/// the 6-limb Fq, zkbench's `ff.fq381_inv_cal_ns` / `ff.fq381_mul_cal_ns`
/// in three traced `prove_dense_1k` runs on a 2-vCPU Xeon: 2 633 / 64.4,
/// 1 939 / 51.8 and 2 388 / 38.0 cal-ns, median ratio 41.
pub(crate) const INV_FF_MULS: u64 = 41;

/// The picker's band: folds within this many percent of the cheapest count
/// as equally fast, and the one storing the fewest copies runs. Past one
/// chunk of rows a deeper fold only trades reductions for chunk folds, and
/// the band keeps a table from doubling for a percent or two of modeled
/// work: at the bits key's B2 the six-copy fold models 0.8% cheaper than
/// the three copies that run.
const BAND_PERCENT: u64 = 2;

impl<Cu: SwCurve> Layout<Cu> {
    /// The layout of `n` finite points under `config` whose table fits
    /// `budget_bytes` (`None` = unbounded; `Some(0)` is the one-shot run
    /// over a single copy) — the one window picker. It prices every fold
    /// [`Layout::folds`] yields by [`Layout::shape`] and keeps, among those
    /// within [`BAND_PERCENT`] of the cheapest, the one with the fewest
    /// copies (then the cheaper, then the smaller window).
    ///
    /// Allocation-free — the folds are walked twice, never collected —
    /// because every one-shot MSM, the prover's 1- and 2-point blinding
    /// products included, lays itself out here.
    ///
    /// # Panics
    ///
    /// Panics if `config.window_bits` is out of range
    /// ([`check_window_bits`]).
    pub(crate) fn new(n: usize, config: &MsmConfig, budget_bytes: Option<u64>) -> Self {
        let cheapest = Self::folds(n, config, budget_bytes)
            .map(|layout| layout.shape().cost)
            .min()
            .expect("every window has its single copy");
        Self::folds(n, config, budget_bytes)
            .filter(|layout| layout.shape().cost * 100 <= cheapest * (100 + BAND_PERCENT))
            .min_by_key(Self::footprint)
            .expect("the cheapest fold is inside its own band")
    }

    /// Every layout the picker prices: each window size (`3..=16`, or the
    /// pinned one) folded onto each `W` whose table fits the budget, plus
    /// the single un-shifted copy, which runs when nothing else fits.
    fn folds(
        n: usize,
        config: &MsmConfig,
        budget_bytes: Option<u64>,
    ) -> impl Iterator<Item = Self> + '_ {
        config
            .window_bits
            .map_or(3..=16, |s| s..=s)
            .flat_map(move |s| {
                let single = Self::at(n, config, s);
                let copy_bytes =
                    (single.points_per_copy() * core::mem::size_of::<Affine<Cu>>()) as u64;
                (1..=single.full_windows)
                    .map(move |target_windows| Self {
                        target_windows,
                        ..single
                    })
                    .filter(move |layout| {
                        let copies = u64::from(layout.copies());
                        copies == 1 || budget_bytes.is_none_or(|b| copy_bytes * copies <= b)
                    })
            })
    }

    /// The picker's order inside the band: the smallest table first.
    fn footprint(&self) -> (u32, u64, u32) {
        (self.copies(), self.shape().cost, self.window_bits)
    }

    /// The single-copy layout at window size `s`.
    fn at(n: usize, config: &MsmConfig, s: u32) -> Self {
        check_window_bits(s);
        let endo = if config.endomorphism {
            Cu::endomorphism()
        } else {
            None
        };
        let full_windows = match endo {
            // A subscalar magnitude is bounded by `2^sub_bits`.
            Some(endo) => (endo.sub_bits + u32::from(config.signed_digits)).div_ceil(s),
            None => num_windows::<Cu::Scalar>(s, config.signed_digits),
        };
        Self {
            n,
            endo,
            window_bits: s,
            full_windows,
            target_windows: full_windows,
            signed: config.signed_digits,
        }
    }

    /// This run's [`MsmShape`], with its modeled work: `rows·w` bucket
    /// additions, then per reduced window the sum-of-sums as [`Reduction`]
    /// prices it — the reduction that runs — and the `s` doublings and one
    /// addition of the Horner tail.
    ///
    /// A bucket addition is an affine one plus a share of one inversion per
    /// full batch and one per task for its last batch — or, where even a
    /// full batch cannot repay its inversion, an XYZZ mixed addition.
    pub(crate) fn shape(&self) -> MsmShape {
        let rows = self.points_per_copy();
        let buckets = buckets_for(self.window_bits, self.signed);
        let chunks = chunk_grid(rows * self.copies() as usize, buckets) as u64;
        let adds = rows as u64 * u64::from(self.full_windows);
        let windows = u64::from(self.target_windows);
        let tail = windows * (u64::from(self.window_bits) * DBL_FF_MULS + ADD_FF_MULS);
        let batch = affine_batch_len(buckets);
        let (muls, inversions) = if worth_a_batch(batch as usize) {
            (adds * AFFINE_ADD_FF_MULS, adds / batch + windows * chunks)
        } else {
            (adds * MADD_FF_MULS, 0)
        };
        let sums = Reduction::new(buckets, chunks);
        let muls = muls + windows * sums.muls + tail;
        let inversions = inversions + windows * sums.inversions;
        MsmShape {
            window_bits: self.window_bits,
            target_windows: self.target_windows,
            copies: self.copies(),
            cost: muls + inversions * INV_FF_MULS,
            inversions,
        }
    }

    /// Table rows per copy: `n`, or `D·n` under a `D`-way endomorphism.
    pub(crate) fn points_per_copy(&self) -> usize {
        self.n * self.endo.map_or(1, |endo| endo.rows())
    }

    /// Stored copies `⌈w/W⌉`; copy `j` is copy `j−1` doubled `W·s` times.
    pub(crate) fn copies(&self) -> u32 {
        self.full_windows.div_ceil(self.target_windows)
    }

    /// The algorithm tag of this run, naming the split that really runs
    /// (`glv` or `psi`) and the digit encoding: `glv+signed`, `unsigned`.
    pub(crate) fn describe(&self) -> String {
        let digits = if self.signed { "signed" } else { "unsigned" };
        match self.endo {
            Some(endo) => format!("{}+{digits}", endo.name),
            None => digits.to_string(),
        }
    }
}

/// How the picker sizes one MSM run: see [`msm_shape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsmShape {
    /// Window size `s` in bits.
    pub window_bits: u32,
    /// Windows reduced per run (`W`), the `windows` of the run's stats.
    pub target_windows: u32,
    /// Stored table copies `⌈w/W⌉`.
    pub copies: u32,
    /// Modeled work of one run in `FF_mul` units: its `FF_mul` + `FF_sqr`
    /// plus `inversions` at the measured price of one.
    pub cost: u64,
    /// Modeled field inversions of one run.
    pub inversions: u64,
}

/// The shape an MSM of `n` points runs at under `config` when its table may
/// spend `budget_bytes` (as in [`MsmPlan::build`](crate::MsmPlan::build);
/// a one-shot MSM is `Some(0)`), and what the cost model charges for it.
/// `window_bits: Some(s)` prices that window instead of choosing one.
pub fn msm_shape<Cu: SwCurve>(n: usize, config: &MsmConfig, budget_bytes: Option<u64>) -> MsmShape {
    Layout::<Cu>::new(n, config, budget_bytes).shape()
}

/// Splits the scalar of every finite base into its `D` subscalars in
/// parallel, scalar-major, reusing `subs`' capacity.
fn split_into<Cu: SwCurve>(
    scalars: &[Cu::Scalar],
    index: &[usize],
    endo: &Endomorphism<Cu>,
    pool: &ThreadPool,
    subs: &mut Vec<GlvScalar>,
) {
    // Every block is rewritten, so stale contents need no clearing.
    subs.resize(index.len() * endo.rows(), GlvScalar::default());
    pool.for_each_block_mut(subs, endo.rows(), 512, |i, block| {
        endo.split(&scalars[index[i]], block);
    });
}

/// The table's row → scalar index: the positions of the finite `points`,
/// written into `index` (capacity reused).
pub(crate) fn finite_positions<Cu: SwCurve>(points: &[Affine<Cu>], index: &mut Vec<usize>) {
    index.clear();
    index.extend((0..points.len()).filter(|&i| !points[i].infinity));
}

/// Appends one table copy over `rows` to `out`: the rows themselves and,
/// under a `D`-way endomorphism, their images
/// `[P…, map(P)…, …, map^{D−1}(P)…]`, each power mapped from the one
/// before — a multiplication or two per image, whichever multiple of the
/// bases the rows are, since `map(2^k·P) = 2^k·map(P)`.
pub(crate) fn push_copy<Cu: SwCurve>(
    rows: impl IntoIterator<Item = Affine<Cu>>,
    endo: Option<&Endomorphism<Cu>>,
    out: &mut Vec<Affine<Cu>>,
) {
    let start = out.len();
    out.extend(rows);
    let Some(endo) = endo else { return };
    for prev in start..start + (endo.rows() - 1) * (out.len() - start) {
        let image = endo.map(&out[prev]);
        out.push(image);
    }
}

/// Scalar limbs copied to the stack on the per-row hot path; every
/// supported scalar field fits (BLS12 Fr has 4 limbs).
pub(crate) const SCALAR_LIMBS_STACK: usize = 8;

/// The recoder: fills the flat `(copies·ppc) × W` digit matrix over the
/// layout's table in two contiguous passes. Row `r = j·n + i < ppc` pairs
/// with `mapʲ(Pᵢ)`, the `i`-th finite base's `j`-th image, and carries
/// subscalar `j` of scalar `index[i]` (without an endomorphism, `j = 0`
/// and the scalar itself). Pass 1 recodes each row over its FULL `w`
/// windows into `full` — the signed-digit carry crosses copy boundaries;
/// pass 2 copies digits `j·W ..` of row `r` into row `j·ppc + r` of
/// `digits`, zero-padding the last copy's columns past `w`.
fn fill_digit_matrix<Cu: SwCurve>(
    layout: &Layout<Cu>,
    scalars: &[Cu::Scalar],
    index: &[usize],
    subs: &[GlvScalar],
    pool: &ThreadPool,
    full: &mut Vec<i32>,
    digits: &mut Vec<i32>,
) {
    let (n, ppc) = (layout.n, layout.points_per_copy());
    let (s, signed) = (layout.window_bits, layout.signed);
    let (w, wu) = (layout.full_windows as usize, layout.target_windows as usize);
    // Both passes write every cell, so stale contents need no clearing.
    full.resize(ppc * w, 0);
    pool.for_each_block_mut(full, w, 128, |r, row| {
        if let Some(endo) = layout.endo {
            let sub = subs[(r % n) * endo.rows() + r / n];
            recode_row(&sub.limbs(), s, signed, sub.neg, row);
        } else if Cu::Scalar::NUM_LIMBS <= SCALAR_LIMBS_STACK {
            let mut limbs = [0u64; SCALAR_LIMBS_STACK];
            scalars[index[r]].write_uint(&mut limbs);
            recode_row(&limbs[..Cu::Scalar::NUM_LIMBS], s, signed, false, row);
        } else {
            recode_row(&scalars[index[r]].to_uint(), s, signed, false, row);
        }
    });
    let full = &full[..];
    digits.resize(ppc * layout.copies() as usize * wu, 0);
    pool.for_each_block_mut(digits, ppc * wu, 1, |j, copy| {
        let lo = j * wu;
        let len = wu.min(w - lo);
        // An element loop, not `copy_from_slice`: a deeply folded plan's
        // rows are one or two digits wide, and a `memcpy` call per row
        // would cost more than the copy.
        for (out, row) in copy.chunks_exact_mut(wu).zip(full.chunks_exact(w)) {
            let padded = row[lo..lo + len]
                .iter()
                .copied()
                .chain(std::iter::repeat(0));
            for (slot, d) in out.iter_mut().zip(padded) {
                *slot = d;
            }
        }
    });
}

/// Runs one MSM of `scalars` against `table` — `layout.copies()` shifted
/// copies of the `layout.points_per_copy()` rows over the finite bases
/// `index` names — the single road to the bucket engine: optional
/// endomorphism split → recoder → engine.
pub(crate) fn execute<Cu: SwCurve>(
    layout: &Layout<Cu>,
    table: &[Affine<Cu>],
    index: &[usize],
    scalars: &[Cu::Scalar],
    pool: &ThreadPool,
    scratch: &mut MsmScratch<Cu>,
) -> MsmOutput<Cu> {
    assert_eq!(index.len(), layout.n, "one index per finite base");
    assert_eq!(
        table.len(),
        layout.points_per_copy() * layout.copies() as usize,
        "table must hold every copy of every row"
    );
    if layout.n == 0 {
        return MsmOutput {
            point: Jacobian::identity(),
            stats: MsmStats::default(),
        };
    }
    if let Some(endo) = layout.endo {
        split_into(scalars, index, endo, pool, &mut scratch.subs);
    }
    fill_digit_matrix(
        layout,
        scalars,
        index,
        &scratch.subs,
        pool,
        &mut scratch.full_digits,
        &mut scratch.digits,
    );
    let mut out = bucket_engine_in(
        EngineInput {
            points: table,
            digits: &scratch.digits,
            window_bits: layout.window_bits,
            windows: layout.target_windows,
            buckets_per_window: buckets_for(layout.window_bits, layout.signed),
        },
        pool,
        &mut scratch.tasks,
    );
    if layout.endo.is_some() {
        out.stats.glv_decompositions = layout.n as u64;
    }
    out
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// Pippenger MSM with an explicit configuration (serial schedule).
///
/// # Panics
///
/// Panics if `points` and `scalars` differ in length.
pub fn msm_with_config<Cu: SwCurve>(
    points: &[Affine<Cu>],
    scalars: &[Cu::Scalar],
    config: &MsmConfig,
) -> MsmOutput<Cu> {
    msm_parallel_with_config(points, scalars, config, &ThreadPool::with_threads(1))
}

/// Pippenger MSM on an explicit thread pool.
///
/// The resulting point and statistics are bit-identical to
/// [`msm_with_config`] regardless of the pool's thread count.
///
/// # Panics
///
/// Panics if `points` and `scalars` differ in length.
pub fn msm_parallel_with_config<Cu: SwCurve>(
    points: &[Affine<Cu>],
    scalars: &[Cu::Scalar],
    config: &MsmConfig,
    pool: &ThreadPool,
) -> MsmOutput<Cu> {
    msm_parallel_with_config_in(points, scalars, config, pool, &mut MsmScratch::new())
}

/// [`msm_parallel_with_config`] with caller-owned scratch memory: a plan
/// run over the single-copy table of the finite `points` (and, under an
/// endomorphism, their images) built into `scratch`, identical in point and
/// stats to a zero-budget [`MsmPlan`](crate::MsmPlan) except that the
/// images are paid here.
///
/// A warmed `scratch` (one prior run of the same shape) makes the call
/// allocation-free; the result is bit-identical to the scratch-free path.
///
/// # Panics
///
/// Panics if `points` and `scalars` differ in length.
pub fn msm_parallel_with_config_in<Cu: SwCurve>(
    points: &[Affine<Cu>],
    scalars: &[Cu::Scalar],
    config: &MsmConfig,
    pool: &ThreadPool,
    scratch: &mut MsmScratch<Cu>,
) -> MsmOutput<Cu> {
    assert_eq!(
        points.len(),
        scalars.len(),
        "points and scalars must pair up"
    );
    // Lend the table and its index out of the scratch for the run (moving
    // a `Vec` neither allocates nor frees).
    let (mut table, mut index) = (
        std::mem::take(&mut scratch.expanded),
        std::mem::take(&mut scratch.index),
    );
    finite_positions(points, &mut index);
    let layout = Layout::new(index.len(), config, Some(0));
    table.clear();
    push_copy(index.iter().map(|&i| points[i]), layout.endo, &mut table);
    let mut out = execute(&layout, &table, &index, scalars, pool, scratch);
    if let Some(endo) = layout.endo {
        out.stats.endomorphism_muls = (table.len() - index.len()) as u64 * endo.map_muls();
    }
    (scratch.expanded, scratch.index) = (table, index);
    out
}

/// Pippenger MSM with defaults (unsigned digits, auto window).
pub fn msm<Cu: SwCurve>(points: &[Affine<Cu>], scalars: &[Cu::Scalar]) -> Jacobian<Cu> {
    msm_with_config(points, scalars, &MsmConfig::default()).point
}

/// Multi-threaded MSM on a transient pool of `threads` threads ("the N
/// points and scalars processed within each window can be split into
/// multiple sub-tasks", §II-A).
///
/// Prefer [`msm_parallel_with_config`] with a long-lived pool; this
/// wrapper exists for call sites that only have a thread count.
pub fn msm_parallel<Cu: SwCurve>(
    points: &[Affine<Cu>],
    scalars: &[Cu::Scalar],
    config: &MsmConfig,
    threads: usize,
) -> Jacobian<Cu> {
    let pool = ThreadPool::with_threads(threads.max(1));
    msm_parallel_with_config(points, scalars, config, &pool).point
}

/// Reference serial MSM (`Σ kᵢ·Pᵢ` by double-and-add), for cross-checking.
pub fn msm_serial<Cu: SwCurve>(points: &[Affine<Cu>], scalars: &[Cu::Scalar]) -> Jacobian<Cu> {
    points
        .iter()
        .zip(scalars)
        .fold(Jacobian::identity(), |acc, (p, k)| {
            acc.add(&p.mul_scalar(k))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::tests::{add, multiples};
    use zkp_curves::{bls12_381, Xyzz};
    use zkp_ff::counter::{with_counting, Counted};
    use zkp_ff::{Fq381, Fr381};

    type G1 = bls12_381::G1;

    /// BLS12-381 G1 over op-counted coordinates.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
    struct CountedG1;

    impl SwCurve for CountedG1 {
        type Base = Counted<Fq381>;
        type Scalar = Fr381;
        fn b() -> Self::Base {
            Counted(G1::b())
        }
        fn generator() -> Affine<Self> {
            let g = G1::generator();
            Affine {
                x: Counted(g.x),
                y: Counted(g.y),
                infinity: false,
            }
        }
        const NAME: &'static str = "G1(counted)";
    }

    #[test]
    fn cost_constants_are_counted() {
        let muls = |c: zkp_ff::OpCounts| c.mul + c.sqr;
        let p = multiples::<CountedG1>(4);
        let xyzz = |a: usize, b: usize| Xyzz::from(p[a]).add_affine(&p[b]);
        let (_, madd) = with_counting(|| xyzz(0, 1));
        let (_, full) = with_counting(|| xyzz(0, 1).add(&xyzz(2, 3)));
        let (_, madds) = with_counting(|| (xyzz(0, 1), xyzz(2, 3)));
        let jac = Jacobian::from(p[0]).add_affine(&p[1]);
        let (_, dbl) = with_counting(|| jac.double());
        let (_, xyzz_dbl) = with_counting(|| xyzz(0, 1).double());
        assert_eq!(muls(madd), MADD_FF_MULS);
        assert_eq!(muls(full) - muls(madds), ADD_FF_MULS);
        assert_eq!(muls(dbl), DBL_FF_MULS);
        assert_eq!(muls(xyzz_dbl) - muls(madd), XYZZ_DBL_FF_MULS);

        // N affine additions into N filled buckets: one batch, one
        // inversion, and `AFFINE_ADD_FF_MULS` multiplications each.
        const N: usize = 100;
        let points = multiples::<CountedG1>(2 * N);
        let mut task = AffineBuckets::default();
        task.reset(N);
        for r in 0..N as u32 {
            task.push(&points, add(r, r, false));
        }
        let (_, batch) = with_counting(|| {
            for r in 0..N as u32 {
                task.push(&points, add(r, N as u32 + r, false));
            }
            task.finish(&points);
        });
        assert_eq!((batch.inv, task.flushes), (1, 1));
        assert_eq!(muls(batch), AFFINE_ADD_FF_MULS * N as u64);

        // One segmented window, every bucket of both chunk tasks affine:
        // the reduction spends exactly what `Layout::shape` charges for it.
        // Chunk `c`'s bucket `i` holds row `2i + c`, so no running sum
        // meets its own point.
        const BUCKETS: usize = 1024;
        const CHUNKS: usize = 2;
        let priced = Reduction::new(BUCKETS as u64, CHUNKS as u64);
        assert_eq!(priced.segments, 64);
        let points = multiples::<CountedG1>(CHUNKS * BUCKETS);
        let mut window: Vec<AffineBuckets<CountedG1>> = (0..CHUNKS)
            .map(|c| {
                let mut task = AffineBuckets::default();
                task.reset(BUCKETS);
                for i in 0..BUCKETS as u32 {
                    task.push(&points, add(i, CHUNKS as u32 * i + c as u32, false));
                }
                task.finish(&points);
                task
            })
            .collect();
        let (_, reduced) = with_counting(|| affine_window_sum(&mut window));
        assert_eq!(
            (muls(reduced), reduced.inv),
            (priced.muls, priced.inversions)
        );
        assert_eq!(window[0].reduction_inversions, priced.inversions);
    }

    #[test]
    fn signed_rows_round_trip_with_a_spare_top_window() {
        // 0xff in 4-bit signed digits: [-1, 0, 1] = -1 + 0·16 + 1·256.
        let mut row = [0i32; 3];
        recode_row(&[0xff], 4, true, false, &mut row);
        assert_eq!(row, [-1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "top window must absorb the final carry")]
    fn over_wide_magnitude_is_rejected_in_release_too() {
        // Two windows cannot hold 0xff in signed digits: the carry out of
        // the top window would be dropped and the MSM silently wrong.
        recode_row(&[0xff], 4, true, false, &mut [0i32; 2]);
    }
}
