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
//! Every MSM runs on a [`zkp_runtime::ThreadPool`]. The engine
//! counting-sorts the nonzero digits of every window by bucket, so each
//! bucket's points are one run of the sorted order; tasks are bucket
//! ranges cut at about equal row counts, each summing its runs in pairwise
//! batch-affine rounds ([`Task`], `affine.rs`), and no bucket is ever split
//! across tasks. Each window then reduces once — by the segmented walk
//! over its buckets, or, when few are occupied, as a small MSM over them —
//! and the window reduction happens exactly once. Every bucket's addition
//! tree is fixed by the sort, and the ranges are cut where the sort's
//! blocks end, so the resulting point and the [`MsmStats`] are
//! bit-identical at any pool width.

use crate::affine::{block, Accumulation, Reduction, Task, NEG};
use crate::config::MsmConfig;
use zkp_curves::{Affine, Endomorphism, Jacobian, SwCurve};
use zkp_ff::glv::GlvScalar;
use zkp_ff::{Field, PrimeField};
use zkp_runtime::ThreadPool;

/// Execution statistics of one MSM, consumed by the GPU kernel models.
///
/// Counters describe the canonical serial Pippenger schedule (one bucket
/// array per window, `2·buckets` reduction additions each, however a
/// window reduces), and are identical at every thread count.
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
    /// batch of a round's bucket additions (0 where no bucket meets a
    /// second point).
    pub batch_inversions: u64,
    /// Field inversions of the bucket reduction: one per round of the
    /// segmented walk, and those of the MSM a sparse window reduces
    /// through (0 for an unsegmented window).
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

/// Most tasks one phase of the engine splits into.
const MAX_TASKS: usize = 16;

// ---------------------------------------------------------------------------
// Reusable scratch state
// ---------------------------------------------------------------------------

/// Reusable scratch memory for one MSM call site.
///
/// Every transient buffer an MSM needs — both digit matrices, the
/// subscalars, the one-shot table of finite bases and their images with
/// its row → scalar index, the sorted digits, the bucket sums, the task
/// buffers and the scratch of the MSMs sparse windows reduce through —
/// lives here and is reused run to run, so a warmed scratch makes
/// [`msm_parallel_with_config_in`] /
/// [`MsmPlan::execute_in`](crate::MsmPlan::execute_in) allocation-free in
/// steady state. Buffers only ever grow; results are bit-identical to the
/// scratch-free entry points.
#[derive(Default)]
pub struct MsmScratch<Cu: SwCurve> {
    /// `ppc × w`: every (sub)scalar's digits over its full window count.
    full_digits: Vec<i32>,
    /// `(copies·ppc) × W`: `full_digits` folded onto the table's copies.
    digits: Vec<i32>,
    /// `n × D` subscalars, scalar-major.
    subs: Vec<GlvScalar>,
    expanded: Vec<Affine<Cu>>,
    index: Vec<usize>,
    /// The nonzero digits' table rows sorted by (window, bucket), each
    /// with its sign in [`NEG`].
    order: Vec<u32>,
    /// `W·buckets + 1` run boundaries of `order`.
    starts: Vec<u32>,
    /// `W·buckets` bucket sums, the identity for an empty bucket.
    sums: Vec<Affine<Cu>>,
    /// Each window's sum.
    window_sums: Vec<Jacobian<Cu>>,
    /// One per accumulation task: the block and batch buffers (the
    /// walk uses the first's).
    tasks: Vec<Task<Cu>>,
    sparse: Sparse<Cu>,
}

/// The buffers of the MSMs sparse windows reduce through: a window's
/// occupied bucket sums, their weights `b + 1`, the identity index over
/// them, and the MSM's own scratch.
#[derive(Default)]
struct Sparse<Cu: SwCurve> {
    occupied: Vec<Affine<Cu>>,
    weights: Vec<Cu::Scalar>,
    positions: Vec<usize>,
    inner: Option<Box<MsmScratch<Cu>>>,
}

impl<Cu: SwCurve> Sparse<Cu> {
    /// The sum-of-sums `Σ (b+1)·S_b` of `window` over its occupied buckets:
    /// an MSM of their sums with scalars of at most `s` bits, through the
    /// one front door ([`execute`], at [`Layout::over_occupied`]). Returns
    /// it with the inversions it spent.
    fn reduce(
        &mut self,
        layout: &Layout<Cu>,
        window: &[Affine<Cu>],
        pool: &ThreadPool,
    ) -> (Jacobian<Cu>, u64) {
        self.occupied.clear();
        self.weights.clear();
        // Reserved to the window's bound, so varying occupancy never grows
        // a warm scratch.
        reserve_to(&mut self.occupied, window.len());
        reserve_to(&mut self.weights, window.len());
        reserve_to(&mut self.positions, window.len());
        for (b, sum) in window.iter().enumerate().filter(|(_, p)| !p.infinity) {
            self.occupied.push(*sum);
            self.weights.push(Cu::Scalar::from_u64(b as u64 + 1));
        }
        self.positions.clear();
        self.positions.extend(0..self.occupied.len());
        let inner = self.inner.get_or_insert_with(Box::default);
        layout.reserve_inner(inner);
        let run = layout.over_occupied(self.occupied.len());
        let out = execute(
            &run,
            &self.occupied,
            &self.positions,
            &self.weights,
            pool,
            inner,
        );
        (
            out.point,
            out.stats.batch_inversions + out.stats.reduction_inversions,
        )
    }
}

impl<Cu: SwCurve> MsmScratch<Cu> {
    /// An empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Grows `v`'s capacity to at least `len` elements.
fn reserve_to<T>(v: &mut Vec<T>, len: usize) {
    v.reserve(len.saturating_sub(v.len()));
}

/// Splits `data` into consecutive parts ending at `ends` (ascending, the
/// last `data.len()`), on the stack.
fn split_at_ends<'a, T>(mut data: &'a mut [T], ends: &[usize]) -> [&'a mut [T]; MAX_TASKS] {
    let mut parts: [&mut [T]; MAX_TASKS] = Default::default();
    let mut at = 0;
    for (part, &end) in parts.iter_mut().zip(ends) {
        let (head, tail) = std::mem::take(&mut data).split_at_mut(end - at);
        (*part, data, at) = (head, tail, end);
    }
    parts
}

// ---------------------------------------------------------------------------
// The bucket engine
// ---------------------------------------------------------------------------

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

/// Counting-sorts the nonzero digits of the row-major `rows × windows`
/// matrix `digits` by (window, bucket): `order[starts[k]..starts[k + 1]]`
/// are the rows whose digit in window `k / buckets` names bucket
/// `k % buckets`, ascending, each with its sign in [`NEG`].
fn sort_by_bucket(
    digits: &[i32],
    windows: usize,
    buckets: usize,
    order: &mut Vec<u32>,
    starts: &mut Vec<u32>,
) {
    let keys = windows * buckets;
    let key = |w: usize, d: i32| w * buckets + d.unsigned_abs() as usize - 1;
    starts.clear();
    starts.resize(keys + 1, 0);
    for row in digits.chunks_exact(windows) {
        for (w, &d) in row.iter().enumerate() {
            if d != 0 {
                starts[key(w, d) + 1] += 1;
            }
        }
    }
    let mut total = 0;
    for start in starts.iter_mut() {
        total += *start;
        *start = total;
    }
    // Scatter with `starts[k]` as bucket `k`'s cursor, which leaves it at
    // the run's end, i.e. the next run's start: shift back by one.
    order.resize(total as usize, 0);
    for (i, row) in digits.chunks_exact(windows).enumerate() {
        for (w, &d) in row.iter().enumerate() {
            if d != 0 {
                let k = key(w, d);
                order[starts[k] as usize] = i as u32 | if d < 0 { NEG } else { 0 };
                starts[k] += 1;
            }
        }
    }
    starts.copy_within(..keys, 1);
    starts[0] = 0;
}

/// Cuts the sorted runs into at most `parts` bucket ranges of about equal
/// rows, each ending where the [`block`] walk ends a block between
/// buckets; writes the ranges' ends into `ends` and returns their number.
fn cut(starts: &[u32], parts: usize, ends: &mut [usize; MAX_TASKS]) -> usize {
    let keys = starts.len() - 1;
    let total = u64::from(starts[keys]);
    let (mut at, mut count) = ((0, 0), 0);
    while parts > 1 && at.0 < keys && count + 1 < parts {
        block(starts, &mut at, keys, |_, _, _, _| {});
        let done = u64::from(at.1) * parts as u64;
        if at.0 < keys && at.1 == starts[at.0] && done >= total * (count + 1) as u64 {
            ends[count] = at.0;
            count += 1;
        }
    }
    ends[count] = keys;
    count + 1
}

/// One accumulation task: its first bucket, the sums of its bucket range
/// and its buffers.
type Range<'a, Cu> = (usize, &'a mut [Affine<Cu>], Option<&'a mut Task<Cu>>);

/// The bucket engine over `points`, the table whose rows pair with the
/// scratch's digit matrix: the sort, the accumulation over bucket ranges in
/// parallel, each window's reduction, then the window reduction.
fn bucket_engine_in<Cu: SwCurve>(
    layout: &Layout<Cu>,
    points: &[Affine<Cu>],
    pool: &ThreadPool,
    scratch: &mut MsmScratch<Cu>,
) -> MsmOutput<Cu> {
    let MsmScratch {
        digits,
        order,
        starts,
        sums,
        window_sums,
        tasks,
        sparse,
        ..
    } = scratch;
    let n = points.len();
    debug_assert!(n > 0, "execute() answers the empty MSM itself");
    // A sorted entry names its table row in 31 bits.
    assert!(n < NEG as usize, "{n} table rows exceed 31 bits");
    let wu = layout.target_windows as usize;
    let bpw = buckets_for(layout.window_bits, layout.signed) as usize;
    debug_assert_eq!(digits.len(), n * wu);
    reserve_to(order, digits.len());
    sort_by_bucket(digits, wu, bpw, order, starts);
    let (order, starts) = (&order[..], &starts[..]);

    let threads = pool.num_threads().min(MAX_TASKS);
    if tasks.len() < threads {
        tasks.resize_with(threads, Task::new);
    }
    // Accumulation: one task per bucket range.
    sums.resize(wu * bpw, Affine::identity());
    let mut ends = [0; MAX_TASKS];
    let parts = cut(starts, threads, &mut ends);
    let mut work: [Range<'_, Cu>; MAX_TASKS] = Default::default();
    let mut first = 0;
    let ranges = split_at_ends(sums, &ends[..parts]);
    for ((slot, range), task) in work.iter_mut().zip(ranges).zip(tasks.iter_mut()) {
        task.inversions = 0;
        (first, *slot) = (first + range.len(), (first, range, Some(task)));
    }
    pool.for_each_block_mut(&mut work[..parts], 1, 1, |_, w| {
        let (first, range, task) = &mut w[0];
        let task = task.as_mut().expect("a task per range");
        task.sum_buckets(points, order, starts, *first, range);
    });
    let inversions = |tasks: &mut [Task<Cu>]| -> u64 {
        tasks
            .iter_mut()
            .map(|t| std::mem::take(&mut t.inversions))
            .sum()
    };
    let batch_inversions = inversions(tasks);

    // Reduction: each window walks its buckets on the first task's batch
    // buffers or, with few occupied, reduces through them.
    window_sums.clear();
    let mut reduction_inversions = 0;
    for window in sums.chunks_mut(bpw) {
        let filled = window.iter().filter(|p| !p.infinity).count();
        window_sums.push(if filled >= layout.occupied_below {
            tasks[0].affine_window_sum(window).to_jacobian()
        } else {
            let (sum, spent) = sparse.reduce(layout, window, pool);
            reduction_inversions += spent;
            sum
        });
    }
    reduction_inversions += inversions(tasks);

    let (s, w) = (u64::from(layout.window_bits), wu as u64);
    MsmOutput {
        point: horner(window_sums.iter().copied(), layout.window_bits),
        stats: MsmStats {
            accumulation_padds: order.len() as u64,
            reduction_padds: 2 * bpw as u64 * w,
            window_padds: w,
            window_pdbls: s * w,
            windows: layout.target_windows,
            buckets_per_window: bpw as u64,
            batch_inversions,
            reduction_inversions,
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
    /// The scalar width of a run over a sparse window's occupied buckets
    /// (`Some(s)`: its scalars `b + 1` have at most `s` bits), which never
    /// reduces through occupied buckets itself.
    bits: Option<u32>,
    /// A window with fewer occupied buckets reduces through them
    /// ([`Layout::over_occupied`]): below this count that MSM prices under
    /// the walk. 0 for a run over occupied buckets.
    pub(crate) occupied_below: usize,
}

/// Costs in `FF_mul` units (`FF_mul` + `FF_sqr`), as `Counted<F>` reports
/// them for the formulas the engine runs: the XYZZ mixed and full addition
/// of the sum-of-sums, the Jacobian doubling and addition of the Horner
/// tail, a window sum's move from XYZZ to Jacobian coordinates, the XYZZ
/// doubling of the segmented reduction's tail, and one batch-affine
/// addition with its three multiplications of the batch inversion.
pub(crate) const MADD_FF_MULS: u64 = 10;
pub(crate) const ADD_FF_MULS: u64 = 14;
const DBL_FF_MULS: u64 = 7;
const JAC_ADD_FF_MULS: u64 = 16;
const TO_JACOBIAN_FF_MULS: u64 = 8;
pub(crate) const XYZZ_DBL_FF_MULS: u64 = 9;
pub(crate) const AFFINE_ADD_FF_MULS: u64 = 6;
/// `FF_inv` in `FF_mul` units — measured, not counted (`Counted` tallies
/// an inversion as one op): divsteps against a Montgomery multiplication on
/// the 6-limb Fq, zkbench's `ff.fq381_inv_cal_ns` / `ff.fq381_mul_cal_ns`
/// in three traced `prove_dense_1k` runs on a 2-vCPU Xeon: 2 633 / 64.4,
/// 1 939 / 51.8 and 2 388 / 38.0 cal-ns, median ratio 41.
pub(crate) const INV_FF_MULS: u64 = 41;
/// What the field-op counts miss, in fifths of an `FF_mul`: a gathered
/// row that misses the cache, and a bucket's sort slot, run, sum and walk
/// step. The sort hands the rounds their rows in bucket order, so a row is
/// a miss in the share of the table that overflows one core's
/// [`CACHE_BYTES`]. Set with the picker's band so that the prover shapes
/// keep the folds that measured fastest, or within a percent of it with
/// fewer copies, in interleaved one-thread timings on a 2-vCPU Xeon
/// (`docs/msm.md`).
const MISS_FIFTHS: u64 = 7;
const BUCKET_FIFTHS: u64 = 15;
/// The L2 of one core of that host.
const CACHE_BYTES: u64 = 2 << 20;
/// What handing one occupied bucket to [`Layout::over_occupied`]'s MSM
/// costs beyond its priced work: copying its sum, making and recoding its
/// weight. Keeps a full window on the walk, which measured about 1% faster
/// than the MSM over all its buckets in interleaved timings (`docs/msm.md`).
const OCCUPIED_FF_MULS: u64 = 3;

/// The picker's band: folds within this many percent of the cheapest count
/// as equally fast, and the one storing the fewest copies runs. The band
/// keeps a table from doubling for a percent of modeled work: at the bits
/// key's B2 the six-copy fold models cheaper than the three copies that
/// run.
const BAND_PERCENT: u64 = 1;

impl<Cu: SwCurve> Layout<Cu> {
    /// The layout of `n` finite points under `config` whose table fits
    /// `budget_bytes` (`None` = unbounded; `Some(0)` is the one-shot run
    /// over a single copy) — the one window picker. It prices every fold
    /// [`Layout::folds`] yields by [`Layout::shape`] and keeps, among those
    /// within [`BAND_PERCENT`] of the cheapest, the one with the fewest
    /// copies (then the cheaper, then the smaller window).
    ///
    /// Allocation-free — the folds are walked twice, never collected —
    /// because every one-shot MSM, the prover's 2-point blinding product
    /// included, lays itself out here.
    ///
    /// # Panics
    ///
    /// Panics if `config.window_bits` is out of range
    /// ([`check_window_bits`]).
    pub(crate) fn new(n: usize, config: &MsmConfig, budget_bytes: Option<u64>) -> Self {
        let mut layout = Self::pick(n, config, budget_bytes, None);
        layout.occupied_below = layout.occupied_limit();
        layout
    }

    /// [`Layout::new`] over scalars of at most `bits` bits where given.
    fn pick(n: usize, config: &MsmConfig, budget_bytes: Option<u64>, bits: Option<u32>) -> Self {
        let cheapest = Self::folds(n, config, budget_bytes, bits)
            .map(|layout| layout.shape().cost)
            .min()
            .expect("every window has its single copy");
        Self::folds(n, config, budget_bytes, bits)
            .filter(|layout| layout.shape().cost * 100 <= cheapest * (100 + BAND_PERCENT))
            .min_by_key(Self::footprint)
            .expect("the cheapest fold is inside its own band")
    }

    /// Every layout the picker prices: each window size (`3..=16`, at most
    /// a bounded scalar's width, or the pinned one) folded onto each `W`
    /// whose table fits the budget, plus the single un-shifted copy, which
    /// runs when nothing else fits.
    fn folds(
        n: usize,
        config: &MsmConfig,
        budget_bytes: Option<u64>,
        bits: Option<u32>,
    ) -> impl Iterator<Item = Self> + '_ {
        let widest = bits.map_or(16, |b| b.clamp(3, 16));
        config
            .window_bits
            .map_or(3..=widest, |s| s..=s)
            .flat_map(move |s| {
                let single = Self::at(n, config, s, bits);
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
    fn at(n: usize, config: &MsmConfig, s: u32, bits: Option<u32>) -> Self {
        check_window_bits(s);
        let endo = if config.endomorphism {
            Cu::endomorphism()
        } else {
            None
        };
        let signed = u32::from(config.signed_digits);
        let full_windows = match (bits, endo) {
            (Some(bits), _) => (bits + signed).div_ceil(s),
            // A subscalar magnitude is bounded by `2^sub_bits`.
            (None, Some(endo)) => (endo.sub_bits + signed).div_ceil(s),
            (None, None) => num_windows::<Cu::Scalar>(s, config.signed_digits),
        };
        Self {
            n,
            endo,
            window_bits: s,
            full_windows,
            target_windows: full_windows,
            signed: config.signed_digits,
            bits,
            occupied_below: 0,
        }
    }

    /// This run's [`MsmShape`]: its [`Layout::work`] with each inversion
    /// at [`INV_FF_MULS`], plus the bookkeeping the field ops miss — a
    /// gathered row's share of a cache miss and a bucket's own price
    /// ([`MISS_FIFTHS`], [`BUCKET_FIFTHS`]).
    ///
    /// A full window walks: the MSM over occupied buckets costs about the
    /// walk once most buckets are filled, and a dense model fills them all.
    /// Pricing the occupied path here would have the picker lay out
    /// windows of buckets that are never filled; a sparse window that runs
    /// prices it against the walk instead ([`Layout::occupied_below`]).
    pub(crate) fn shape(&self) -> MsmShape {
        let (muls, inversions) = self.work();
        let buckets = u64::from(self.target_windows) * buckets_for(self.window_bits, self.signed);
        let rows = (self.points_per_copy() * self.copies() as usize) as u64;
        let bytes = rows * core::mem::size_of::<Affine<Cu>>() as u64;
        let misses = self.entries() * bytes.saturating_sub(CACHE_BYTES) / bytes.max(1);
        MsmShape {
            window_bits: self.window_bits,
            target_windows: self.target_windows,
            copies: self.copies(),
            cost: muls
                + inversions * INV_FF_MULS
                + (misses * MISS_FIFTHS + buckets * BUCKET_FIFTHS) / 5,
            inversions,
        }
    }

    /// The run's field work, `(FF_mul + FF_sqr, FF_inv)`, for digits that
    /// are all nonzero and evenly spread: the `rows·w` entries' bucket sums
    /// as [`Accumulation`] prices them, then per reduced window the walk as
    /// [`Reduction`] prices it and its sum's move to Jacobian coordinates,
    /// and the `s` doublings and one addition of the Horner tail after the
    /// top window.
    pub(crate) fn work(&self) -> (u64, u64) {
        let buckets = buckets_for(self.window_bits, self.signed);
        let windows = u64::from(self.target_windows);
        let sums = Accumulation::new(self.entries(), windows * buckets);
        let walk = Reduction::new(buckets);
        let tail = (windows - 1) * (u64::from(self.window_bits) * DBL_FF_MULS + JAC_ADD_FF_MULS);
        (
            sums.additions * AFFINE_ADD_FF_MULS
                + windows * (walk.muls + TO_JACOBIAN_FF_MULS)
                + tail,
            sums.inversions + windows * walk.inversions,
        )
    }

    /// Nonzero digits of a dense run: `rows·w`.
    fn entries(&self) -> u64 {
        self.points_per_copy() as u64 * u64::from(self.full_windows)
    }

    /// The one-shot layout of the MSM `Σ (b+1)·S_b` over a window's `o`
    /// occupied bucket sums: unsplit, digits as this run's, scalars of at
    /// most `s` bits (`b + 1 ≤ buckets < 2^s`), the window picked for them.
    pub(crate) fn over_occupied(&self, o: usize) -> Self {
        Self::pick(o, &self.occupied_config(), Some(0), Some(self.window_bits))
    }

    /// The configuration of [`Layout::over_occupied`]: this run's digits,
    /// no endomorphism split.
    fn occupied_config(&self) -> MsmConfig {
        MsmConfig {
            window_bits: None,
            signed_digits: self.signed,
            endomorphism: false,
        }
    }

    /// The fewest occupied buckets at which [`Layout::over_occupied`],
    /// with [`OCCUPIED_FF_MULS`] for each point and weight it is handed,
    /// prices at least the walk: that price never falls as `o` grows, so
    /// windows below it reduce through their occupied buckets. 0 for a run
    /// over occupied buckets, so it never recurses.
    fn occupied_limit(&self) -> usize {
        if self.bits.is_some() {
            return 0;
        }
        let buckets = buckets_for(self.window_bits, self.signed) as usize;
        let walk = Reduction::new(buckets as u64).cost() + TO_JACOBIAN_FF_MULS;
        let (mut lo, mut hi) = (0, buckets + 1);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let occupied = self.over_occupied(mid).shape().cost + mid as u64 * OCCUPIED_FF_MULS;
            if occupied < walk {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Reserves `inner`'s buffers for any [`Layout::over_occupied`] run of
    /// this layout's windows — at most `buckets` rows, each window's
    /// digits at most as many as the narrowest window's — so varying
    /// occupancy never grows a warm scratch.
    fn reserve_inner(&self, inner: &mut MsmScratch<Cu>) {
        let rows = buckets_for(self.window_bits, self.signed) as usize;
        let config = self.occupied_config();
        let (mut windows, mut keys) = (0, 0);
        for layout in Self::folds(rows, &config, Some(0), Some(self.window_bits)) {
            let w = layout.target_windows as usize;
            windows = windows.max(w);
            keys = keys.max(w * buckets_for(layout.window_bits, layout.signed) as usize);
        }
        reserve_to(&mut inner.full_digits, rows * windows);
        reserve_to(&mut inner.digits, rows * windows);
        reserve_to(&mut inner.order, rows * windows);
        reserve_to(&mut inner.starts, keys + 1);
        reserve_to(&mut inner.sums, keys);
        reserve_to(&mut inner.window_sums, windows);
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
    let mut out = bucket_engine_in(layout, table, pool, scratch);
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
    use crate::affine::tests::multiples;
    use crate::MsmPlan;
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
        let other = Jacobian::from(p[2]).add_affine(&p[3]);
        let (_, jac_add) = with_counting(|| jac.add(&other));
        let (_, to_jacobian) = with_counting(|| xyzz(0, 1).to_jacobian());
        assert_eq!(muls(jac_add), JAC_ADD_FF_MULS);
        assert_eq!(muls(to_jacobian) - muls(madd), TO_JACOBIAN_FF_MULS);

        // One full dense window: a copy of 512 rows over 8 windows folded
        // into one, at s = 10 signed, so each of the 512 buckets holds 8
        // points. Its sums take two blocks, each rounds of 1 024, 512 and
        // 256 additions (2 + 1 + 1 inversions), its walk 32 segments of 16
        // (30 rounds):
        // the run spends exactly the field work `Layout::work` charges,
        // which `Layout::shape` prices.
        let dense = Layout::<CountedG1> {
            n: 512,
            endo: None,
            window_bits: 10,
            full_windows: 8,
            target_windows: 1,
            signed: true,
            bits: None,
            occupied_below: 0,
        };
        let points = multiples::<CountedG1>(4096);
        let pool = ThreadPool::with_threads(1);
        let mut scratch = MsmScratch::new();
        scratch.digits = (0..4096).map(|r| r % 512 + 1).collect();
        let (out, counted) =
            with_counting(|| bucket_engine_in(&dense, &points, &pool, &mut scratch));
        assert_eq!((muls(counted), counted.inv), dense.work());
        assert_eq!(
            (out.stats.batch_inversions, out.stats.reduction_inversions),
            (8, 30)
        );
        let shape = dense.shape();
        assert_eq!(shape.inversions, 38);
        assert!(shape.cost > dense.work().0 + 38 * INV_FF_MULS);

        // One sparse window: 14 of 4 095 unsigned buckets (s = 12) occupied.
        // Their weights `b + 1` have every base-8 digit nonzero and each
        // digit value twice in each of the 4 windows the MSM over them picks
        // (s = 3, 7 buckets): a dense run of its own, whose counts equal its
        // priced work.
        let sparse = Layout::<CountedG1> {
            window_bits: 12,
            signed: false,
            ..dense
        };
        let run = sparse.over_occupied(14);
        assert_eq!((run.window_bits, run.target_windows), (3, 4));
        let mut window = vec![Affine::identity(); 4095];
        let sums = multiples::<CountedG1>(14);
        for (i, sum) in sums.into_iter().enumerate() {
            let digit = |j: usize| (i + j * (i / 7)) % 7 + 1;
            window[(0..4).map(|j| digit(j) << (3 * j)).sum::<usize>() - 1] = sum;
        }
        let mut reducer = Sparse::default();
        let ((sum, spent), counted) = with_counting(|| reducer.reduce(&sparse, &window, &pool));
        assert_eq!((muls(counted), counted.inv), run.work());
        assert_eq!(spent, 1);
        // The same window through the walk: the same point.
        let walked = Task::new().affine_window_sum(&mut window).to_jacobian();
        assert_eq!(sum, walked);
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

    /// One adversarial schedule per case, on `Cu`: `n` rows over repeated
    /// and negated bases (one base at infinity), digits of at most two
    /// windows of `s` bits — window `j` empty, in one bucket, in every
    /// bucket or random, as `fill[j]` says — and `hot` percent of the rows
    /// with the digit 1. Run with the reduced windows `W = 1` (every window
    /// folded onto copies) and `W = w`, each at 1, 2 and 8 threads, it must
    /// give `msm_serial`'s point with the same coordinates and stats at
    /// every width; with every window walked, and with every window through
    /// its occupied buckets, the same point.
    #[allow(clippy::too_many_arguments)]
    fn check_schedule<Cu: SwCurve>(
        n: usize,
        s: u32,
        signed: bool,
        hot: u64,
        repeat: u64,
        fill: [u64; 2],
        seed: u64,
    ) {
        let mut state = seed | 1;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound.max(1)
        };
        let base = multiples::<Cu>(n);
        let mut points = Vec::with_capacity(n);
        for i in 0..n {
            let p = if i > 0 && next(100) < repeat {
                points[next(i as u64) as usize]
            } else {
                base[i]
            };
            points.push(if next(2) == 0 { p } else { Affine::neg(&p) });
        }
        points[next(n as u64) as usize] = Affine::identity();
        let top = 1u64 << s;
        let scalars: Vec<Cu::Scalar> = (0..n as u64)
            .map(|i| {
                let mut digit = |j: usize| match fill[j] {
                    0 => 0,
                    1 => 5 % top,
                    2 => i % top,
                    _ => next(top),
                };
                let (low, high) = (digit(0), digit(1));
                let low = if next(100) < hot { 1 } else { low };
                Cu::Scalar::from_u64(low + (high << s))
            })
            .collect();
        let expect = msm_serial(&points, &scalars);
        let config = MsmConfig {
            window_bits: Some(s),
            signed_digits: signed,
            endomorphism: false,
        };
        let mut index = Vec::new();
        finite_positions(&points, &mut index);
        let one = ThreadPool::with_threads(1);
        for folded in [true, false] {
            let mut layout = Layout::<Cu>::new(index.len(), &config, Some(0));
            if folded {
                layout.target_windows = 1;
            }
            let what = format!("s = {s}, signed {signed}, W = {}", layout.target_windows);
            let plan = MsmPlan::from_layout(&points, index.clone(), layout, &one);
            let serial = plan.execute(&scalars, &one);
            assert_eq!(serial.point, expect, "{what}");
            for threads in [2, 8] {
                let out = plan.execute(&scalars, &ThreadPool::with_threads(threads));
                let (a, b) = (&out.point, &serial.point);
                assert_eq!(
                    (a.x, a.y, a.z),
                    (b.x, b.y, b.z),
                    "{what}, {threads} threads"
                );
                assert_eq!(out.stats, serial.stats, "{what}, {threads} threads");
            }
            for occupied_below in [0, usize::MAX] {
                let layout = Layout {
                    occupied_below,
                    ..layout
                };
                let plan = MsmPlan::from_layout(&points, index.clone(), layout, &one);
                let out = plan.execute(&scalars, &one);
                assert_eq!(out.point, expect, "{what}, occupied below {occupied_below}");
            }
        }
    }

    proptest::proptest! {
        // A handful of cases under the optimised debug profile; a release
        // build (as CI runs it) sweeps eight times as many.
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 4 } else { 32 }
        ))]

        /// The bucket engine's adversarial schedules against `msm_serial`
        /// on G1 and G2: one bucket holding most rows, repeated and negated
        /// bases whose `P + P` and `P − P` land inside one pair, windows
        /// with none, one or all buckets occupied, `W = 1` and `W > 1`.
        #[test]
        fn adversarial_schedules_match_the_reference(
            n in 2usize..160,
            s in 3u32..10,
            signed in proptest::prelude::any::<bool>(),
            hot in 0u64..=100,
            repeat in 0u64..=100,
            low in 0u64..4,
            high in 0u64..4,
            seed in proptest::prelude::any::<u64>(),
        ) {
            check_schedule::<G1>(n, s, signed, hot, repeat, [low, high], seed);
            check_schedule::<bls12_381::G2>(n / 4 + 2, s, signed, hot, repeat, [low, high], seed);
        }
    }
}
