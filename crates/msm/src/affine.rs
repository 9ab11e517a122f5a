//! Batch-affine bucket work — the Montgomery trick of §IV-D1b applied to
//! Pippenger's buckets, bucket-major.
//!
//! The engine counting-sorts each window's nonzero digits by bucket
//! (`pippenger.rs`), so every bucket's points are one contiguous run of the
//! sorted order. A [`Task`] sums the runs of a bucket range in pairwise
//! rounds ([`Task::sum_buckets`]): round 1 adds neighbouring points of a
//! run straight from the table, each later round neighbouring partial sums.
//! All additions of a round are independent, so they share one inversion
//! per [`AFFINE_BATCH`], and a hot bucket is an ordinary tree of affine
//! additions. [`Accumulation`] prices it.
//!
//! [`affine_window_sum`] is the bucket reduction: a window's sum-of-sums as
//! `K` segment running sums whose additions share one inversion per round,
//! `K` chosen and priced by [`Reduction`]. At `K = 1` it is the serial XYZZ
//! sum-of-sums.
//!
//! Both run their additions through [`Task::round`], the one place a pair
//! of affine points is added, and where `P ± P` is decided.

use crate::pippenger::{
    ADD_FF_MULS, AFFINE_ADD_FF_MULS, INV_FF_MULS, MADD_FF_MULS, XYZZ_DBL_FF_MULS,
};
use zkp_curves::{Affine, SwCurve, Xyzz};
use zkp_ff::{batch_inverse_in, Field};

/// Additions one inversion serves. A batch's denominators and prefix
/// products are two field elements per addition — tens of KiB, where the
/// paper's GPU batch of 2^20 holds ~300 MB (§IV-D1b).
pub const AFFINE_BATCH: usize = 512;

/// Partial sums one block of a task's bucket range holds: a block takes
/// whole buckets while their round-1 sums fit, and a bucket that alone
/// overflows a block in pieces, each piece's sum carried into the next.
/// It bounds a task's buffer to 1 024 points (≈ 105 KiB on G1), where the
/// whole window's first round would take half the table.
pub(crate) const BLOCK: usize = 1024;

/// The sign bit of a sorted entry: the row's point enters negated.
pub(crate) const NEG: u32 = 1 << 31;

/// Whether a round of `len` affine additions saves more multiplications
/// over XYZZ mixed additions than its inversion costs (at least 11).
pub(crate) fn worth_a_batch(len: usize) -> bool {
    len as u64 * (MADD_FF_MULS - AFFINE_ADD_FF_MULS) >= INV_FF_MULS
}

/// The point of sorted entry `e`: its table row, negated under [`NEG`].
fn entry<Cu: SwCurve>(points: &[Affine<Cu>], e: u32) -> Affine<Cu> {
    let p = points[(e & !NEG) as usize];
    if e & NEG != 0 {
        p.neg()
    } else {
        p
    }
}

/// A round's operand: a stored point, and whether it enters negated.
type Operand<'a, Cu> = (&'a Affine<Cu>, bool);

/// The `y` an operand enters with.
fn y<Cu: SwCurve>((p, neg): Operand<'_, Cu>) -> Cu::Base {
    if neg {
        -p.y
    } else {
        p.y
    }
}

/// The slope denominator of `a + b` where the sum needs one: `x₂ − x₁`, or
/// `2y` when `b = a` doubles it. `None` where the sum completes without an
/// inversion: an operand is empty, or `b = −a` (which includes `P + P`
/// with `y = 0`). This is where `P ± P` is decided, outside the batch, so
/// the batch inversion never sees a zero. Only `x` is read unless the two
/// `x` agree — or, outside the `finite` table, an operand may be empty —
/// so a round's first pass gathers half of each table row.
fn denominator<Cu: SwCurve>(
    a: Operand<'_, Cu>,
    b: Operand<'_, Cu>,
    finite: bool,
) -> Option<Cu::Base> {
    if !finite && (a.0.infinity || b.0.infinity) {
        None
    } else if a.0.x != b.0.x {
        Some(b.0.x - a.0.x)
    } else if y(a) == -y(b) {
        None
    } else {
        Some(y(a).double())
    }
}

/// `a + b`, taking the inverse of its [`denominator`] from `inverse` when
/// it has one: the chord through both, the tangent at `a = b`, or a copy
/// or the identity where no inversion is needed.
fn join<Cu: SwCurve>(
    a: Operand<'_, Cu>,
    b: Operand<'_, Cu>,
    finite: bool,
    inverse: impl FnOnce() -> Cu::Base,
) -> Affine<Cu> {
    if !finite && (a.0.infinity || b.0.infinity) {
        let (p, neg) = if a.0.infinity { b } else { a };
        return if neg { p.neg() } else { *p };
    }
    let (xa, ya, yb) = (a.0.x, y(a), y(b));
    let lambda = if xa != b.0.x {
        (yb - ya) * inverse()
    } else if ya == -yb {
        return Affine::identity();
    } else {
        let xx = xa.square();
        (xx.double() + xx) * inverse()
    };
    let x = lambda.square() - xa - b.0.x;
    Affine {
        x,
        y: lambda * (xa - x) - ya,
        infinity: false,
    }
}

/// Where a round's operands are: sorted entries of the table (round 1 of
/// the accumulation), whose points are all finite, or the round's own
/// buffer.
#[derive(Clone, Copy)]
enum Operands<'a, Cu: SwCurve> {
    Table(&'a [Affine<Cu>], &'a [u32]),
    Buffer,
}

impl<'a, Cu: SwCurve> Operands<'a, Cu> {
    fn finite(&self) -> bool {
        matches!(self, Operands::Table(..))
    }

    fn get<'b>(&self, buf: &'b [Affine<Cu>], i: u32) -> Operand<'b, Cu>
    where
        'a: 'b,
    {
        match *self {
            Operands::Table(points, order) => {
                let e = order[i as usize];
                (&points[(e & !NEG) as usize], e & NEG != 0)
            }
            Operands::Buffer => (&buf[i as usize], false),
        }
    }
}

/// One bucket's partial sums in a block: `len` points from `start` of the
/// buffer, their total bound for bucket `bucket` of the task's range.
#[derive(Clone, Copy)]
struct Run {
    bucket: u32,
    start: u32,
    len: u32,
}

/// Buffer slots a bucket's run of `h` sorted entries takes in round 1: one
/// per pair and per odd point, and one for a carried sum. A lone point
/// needs none: it is its bucket's sum.
fn slots(carry: bool, h: u32) -> usize {
    if !carry && h <= 1 {
        0
    } else {
        usize::from(carry) + h.div_ceil(2) as usize
    }
}

/// Advances `at` — a bucket and an entry of the sorted order — over one
/// block of the runs below bucket `end`, calling `visit(bucket, lo, hi,
/// carry)` for every run `lo..hi` it takes (`carry`: the bucket's sum so
/// far joins the run). Whole buckets are taken while their [`slots`] fit
/// [`BLOCK`]; a bucket that alone overflows it gives a piece of
/// `2·(BLOCK − carry)` entries. The task split cuts ranges where this walk
/// ends a block between buckets, and every task walks its range from the
/// cut with the same state, so where the tasks fall changes no addition.
pub(crate) fn block(
    starts: &[u32],
    at: &mut (usize, u32),
    end: usize,
    mut visit: impl FnMut(usize, u32, u32, bool),
) {
    let mut used = 0;
    while at.0 < end {
        let (b, lo) = *at;
        let (hi, carry) = (starts[b + 1], lo > starts[b]);
        let need = slots(carry, hi - lo);
        if used + need > BLOCK {
            if used == 0 {
                let piece = lo + 2 * (BLOCK - usize::from(carry)) as u32;
                visit(b, lo, piece, carry);
                at.1 = piece;
            }
            return;
        }
        visit(b, lo, hi, carry);
        used += need;
        *at = (b + 1, hi);
    }
}

/// The accumulation of one run of the engine, as
/// [`Layout::shape`](crate::pippenger::Layout::shape) prices it: `entries`
/// nonzero digits spread evenly over `buckets` buckets (every window of
/// the run), summed block by block in pairwise rounds.
///
/// An occupied bucket's first point is free, so the additions are
/// `entries − min(entries, buckets)`. A block takes `2·BLOCK` entries; in
/// it, each round adds half the points left but never below one per
/// occupied bucket, and inverts once per started [`AFFINE_BATCH`]. Exact
/// for a window whose every bucket holds the same power of two of points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Accumulation {
    /// Affine additions.
    pub(crate) additions: u64,
    /// Batch inversions.
    pub(crate) inversions: u64,
}

impl Accumulation {
    pub(crate) fn new(entries: u64, buckets: u64) -> Self {
        let occupied = entries.min(buckets);
        let blocks = entries.div_ceil(2 * BLOCK as u64).max(1);
        let (mut left, floor) = (entries.div_ceil(blocks), occupied.div_ceil(blocks));
        let mut inversions = 0;
        while left > floor {
            let pairs = (left / 2).min(left - floor).max(1);
            inversions += pairs.div_ceil(AFFINE_BATCH as u64);
            left -= pairs;
        }
        Self {
            additions: entries - occupied,
            inversions: blocks * inversions,
        }
    }
}

/// The bucket reduction of one window of `buckets` buckets: how many
/// segments [`affine_window_sum`] runs, and what
/// [`Layout::shape`](crate::pippenger::Layout::shape) charges for it.
///
/// `K` segments of `m = ⌈buckets/K⌉` buckets cost, for a window whose every
/// bucket holds a point, `2·buckets − 2K` affine additions (each segment's
/// first `Rⱼ` and `Sⱼ` are free copies) in `2m − 2` inverted rounds, then
/// the `K`-point XYZZ tail. Those inversions and the tail's
/// `≈ K·(2·MADD + ADD)` balance at `K ≈ √(2·buckets·INV / (2·MADD + ADD))`,
/// taken to the nearest power of two, at most `buckets/2` and at most one
/// batch ([`AFFINE_BATCH`]). Segments run only where a round of `K`
/// additions repays its inversion and the whole beats the serial XYZZ
/// sum-of-sums, `(buckets − 1)·(MADD + ADD)`; otherwise `K = 1`, which *is*
/// that sum-of-sums. Exact for a full window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Reduction {
    /// Segments `K`.
    pub(crate) segments: u64,
    /// `FF_mul` + `FF_sqr` of the window.
    pub(crate) muls: u64,
    /// Batch inversions of the window.
    pub(crate) inversions: u64,
}

impl Reduction {
    pub(crate) fn new(buckets: u64) -> Self {
        let serial = Self {
            segments: 1,
            muls: buckets.saturating_sub(1) * (MADD_FF_MULS + ADD_FF_MULS),
            inversions: 0,
        };
        // The largest power of two whose square is at most twice `K²`,
        // i.e. the nearest to `K` on a log scale, within the bounds.
        let twice_k2 = 4 * buckets * INV_FF_MULS / (2 * MADD_FF_MULS + ADD_FF_MULS);
        let bound = (buckets / 2).min(AFFINE_BATCH as u64);
        let mut k = 1;
        while 4 * k * k <= twice_k2 && 2 * k <= bound {
            k *= 2;
        }
        if !worth_a_batch(k as usize) {
            return serial;
        }
        let m = buckets.div_ceil(k);
        // The tail: `Σⱼ j·Tⱼ` over `j = K−1 … 1` (its first addition of
        // each kind free), `m` times that by double-and-add, plus `K` `Sⱼ`.
        let tail = (k - 2) * (MADD_FF_MULS + ADD_FF_MULS)
            + u64::from(m.ilog2()) * XYZZ_DBL_FF_MULS
            + u64::from(m.count_ones() - 1) * ADD_FF_MULS
            + k * MADD_FF_MULS;
        let segmented = Self {
            segments: k,
            muls: (2 * buckets - 2 * k) * AFFINE_ADD_FF_MULS + tail,
            inversions: 2 * m - 2,
        };
        if segmented.cost() < serial.cost() {
            segmented
        } else {
            serial
        }
    }

    /// The window's price in `FF_mul` units.
    pub(crate) fn cost(&self) -> u64 {
        self.muls + self.inversions * INV_FF_MULS
    }
}

/// The buffers of one engine task, reused run to run: a block's partial
/// sums and runs, a round's additions, and the batch inversion's
/// denominators and prefix products. The bucket reduction's rounds use the
/// same batch buffers.
pub(crate) struct Task<Cu: SwCurve> {
    buf: Vec<Affine<Cu>>,
    runs: Vec<Run>,
    /// A round's additions `[into, a, b]`: `buf[into] = a + b`, operands
    /// named as the round's [`Operands`] say.
    pairs: Vec<[u32; 3]>,
    dens: Vec<Cu::Base>,
    prefix: Vec<Cu::Base>,
    /// Batch inversions since the counter was last cleared.
    pub(crate) inversions: u64,
}

impl<Cu: SwCurve> Task<Cu> {
    /// A task with every buffer reserved to its bound, so a warm task
    /// allocates nothing whatever the digits.
    pub(crate) fn new() -> Self {
        Self {
            buf: Vec::with_capacity(BLOCK),
            runs: Vec::with_capacity(BLOCK),
            pairs: Vec::with_capacity(BLOCK),
            dens: Vec::with_capacity(AFFINE_BATCH),
            prefix: Vec::with_capacity(AFFINE_BATCH),
            inversions: 0,
        }
    }

    /// Completes every addition of `self.pairs` into `buf`, in order, one
    /// inversion per batch of [`AFFINE_BATCH`] denominators. A pair reads
    /// its operands twice — for its denominator and to complete — so an
    /// in-place round must never write an operand of a later pair before
    /// that pair completes: rounds write pair `k` of a run at most at its
    /// own first operand's position.
    fn round(&mut self, ops: Operands<'_, Cu>, buf: &mut [Affine<Cu>]) {
        let finite = ops.finite();
        let mut done = 0;
        while done < self.pairs.len() {
            self.dens.clear();
            let mut end = done;
            while end < self.pairs.len() && self.dens.len() < AFFINE_BATCH {
                let [_, a, b] = self.pairs[end];
                if let Some(den) = denominator(ops.get(buf, a), ops.get(buf, b), finite) {
                    self.dens.push(den);
                }
                end += 1;
            }
            if !self.dens.is_empty() {
                batch_inverse_in(&mut self.dens, &mut self.prefix);
                self.inversions += 1;
            }
            let mut inverses = self.dens.iter();
            for &[into, a, b] in &self.pairs[done..end] {
                let sum = join(ops.get(buf, a), ops.get(buf, b), finite, || {
                    *inverses.next().expect("one inverse per denominator")
                });
                buf[into as usize] = sum;
            }
            done = end;
        }
    }

    /// Sums the runs of buckets `first .. first + sums.len()` of the sorted
    /// `order` (run `b` is `order[starts[b]..starts[b + 1]]`) into `sums`,
    /// the identity for an empty bucket: block by block ([`block`]), each in
    /// pairwise rounds that halve every run until one point is left.
    pub(crate) fn sum_buckets(
        &mut self,
        points: &[Affine<Cu>],
        order: &[u32],
        starts: &[u32],
        first: usize,
        sums: &mut [Affine<Cu>],
    ) {
        let end = first + sums.len();
        let mut at = (first, starts[first]);
        while at.0 < end {
            let mut buf = std::mem::take(&mut self.buf);
            let (runs, pairs) = (&mut self.runs, &mut self.pairs);
            runs.clear();
            pairs.clear();
            // The block's next free slot. Round 1 writes every slot it
            // names, so the buffer only grows, within its capacity, and
            // keeps stale points.
            let mut used = 0u32;
            let place = |buf: &mut Vec<Affine<Cu>>, at: u32, p: Affine<Cu>| {
                if buf.len() <= at as usize {
                    buf.resize(at as usize + 1, Affine::identity());
                }
                buf[at as usize] = p;
            };
            block(starts, &mut at, end, |b, lo, hi, carry| {
                let sum = &mut sums[b - first];
                if !carry && hi - lo <= 1 {
                    *sum = match hi > lo {
                        true => entry(points, order[lo as usize]),
                        false => Affine::identity(),
                    };
                    return;
                }
                let start = used;
                if carry {
                    place(&mut buf, used, *sum);
                    used += 1;
                }
                for i in (lo..hi - 1).step_by(2) {
                    pairs.push([used, i, i + 1]);
                    used += 1;
                }
                if (hi - lo) % 2 == 1 {
                    place(&mut buf, used, entry(points, order[hi as usize - 1]));
                    used += 1;
                }
                runs.push(Run {
                    bucket: (b - first) as u32,
                    start,
                    len: used - start,
                });
            });
            if buf.len() < used as usize {
                buf.resize(used as usize, Affine::identity());
            }
            // Round 1 reads its pairs straight from the table.
            self.round(Operands::Table(points, order), &mut buf);
            loop {
                self.pairs.clear();
                for run in &mut self.runs {
                    // An odd run keeps its first point; pair `k` of the
                    // rest lands on slot `k` after it.
                    let (s, odd, half) = (run.start + run.len % 2, run.len % 2, run.len / 2);
                    self.pairs
                        .extend((0..half).map(|k| [s + k, s + 2 * k, s + 2 * k + 1]));
                    run.len = odd + half;
                }
                if self.pairs.is_empty() {
                    break;
                }
                self.round(Operands::Buffer, &mut buf);
            }
            for run in &self.runs {
                sums[run.bucket as usize] = buf[run.start as usize];
            }
            self.buf = buf;
        }
    }

    /// The window's sum-of-sums `Σ (i+1)·Bᵢ` over its bucket sums `sums`,
    /// which it uses up.
    ///
    /// The buckets are cut into `K` segments of `m` (from [`Reduction`]).
    /// Walking `t = m−1 … 0`, every segment `j` adds bucket `j·m + t` into
    /// its running sum `Rⱼ`, then `Rⱼ` into `Sⱼ`: one round each, whose
    /// affine additions share one inversion ([`Task::round`]). The running
    /// sums live in buckets the walk has used up: `Sⱼ` in the segment's top
    /// bucket, where it starts equal to `Rⱼ`, and `Rⱼ` in bucket `j·m + t`
    /// once step `t` has moved it there. With `Tⱼ` the final `Rⱼ`, the
    /// window sum is `Σⱼ Sⱼ + m·Σⱼ j·Tⱼ`, the last term a `K`-point XYZZ
    /// sum-of-sums scaled by double-and-add. At `K = 1` that is the serial
    /// XYZZ sum-of-sums.
    pub(crate) fn affine_window_sum(&mut self, sums: &mut [Affine<Cu>]) -> Xyzz<Cu> {
        let buckets = sums.len();
        let k = Reduction::new(buckets as u64).segments as usize;
        let m = buckets.div_ceil(k);
        let top = |j: usize| ((j + 1) * m).min(buckets) - 1;
        let (mut running, mut acc) = (Xyzz::identity(), Xyzz::identity());
        if k == 1 {
            for bucket in sums.iter().rev() {
                running = running.add_affine(bucket);
                acc = acc.add(&running);
            }
            return acc;
        }
        for t in (0..m - 1).rev() {
            let segments = (0..k).filter(|j| j * m + t < top(*j));
            // `Rⱼ` moves from bucket `i + 1` into bucket `i`, taking its
            // point; then `Rⱼ` joins `Sⱼ`.
            self.pairs.clear();
            self.pairs.extend(segments.clone().map(|j| {
                let i = (j * m + t) as u32;
                [i, i + 1, i]
            }));
            self.round(Operands::Buffer, sums);
            self.pairs.clear();
            self.pairs.extend(segments.map(|j| {
                let (i, top) = ((j * m + t) as u32, top(j) as u32);
                [top, top, i]
            }));
            self.round(Operands::Buffer, sums);
        }
        // `Tⱼ`, the final `Rⱼ`, is in bucket `j·m` and `Sⱼ` in the
        // segment's top one: `Σⱼ j·Tⱼ` is a sum-of-sums over
        // `j = K−1 … 1`, taken `m` times by double-and-add, and every `Sⱼ`
        // joins it.
        let filled = |j: &usize| j * m < buckets;
        for j in (1..k).rev().filter(filled) {
            running = running.add_affine(&sums[j * m]);
            acc = acc.add(&running);
        }
        let mut total = Xyzz::identity();
        for bit in (0..usize::BITS - m.leading_zeros()).rev() {
            total = total.double();
            if m >> bit & 1 == 1 {
                total = total.add(&acc);
            }
        }
        for j in (0..k).filter(filled) {
            total = total.add_affine(&sums[top(j)]);
        }
        total
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::msm_serial;
    use zkp_curves::{batch_to_affine, bls12_381, Jacobian};
    use zkp_ff::Fr381;

    type G1 = bls12_381::G1;

    /// `G, 2G, …, n·G`: row `r` is `(r + 1)·G`, so sums of rows are rows.
    pub(crate) fn multiples<Cu: SwCurve>(n: usize) -> Vec<Affine<Cu>> {
        let g = Jacobian::from(Cu::generator());
        let mut acc = Jacobian::identity();
        let jac: Vec<Jacobian<Cu>> = (0..n)
            .map(|_| {
                acc = acc.add(&g);
                acc
            })
            .collect();
        batch_to_affine(&jac)
    }

    /// The sorted order and run boundaries of `schedule`, a list of
    /// `(bucket, row, negated)` additions over `buckets` buckets.
    pub(crate) fn sorted(schedule: &[(u32, u32, bool)], buckets: usize) -> (Vec<u32>, Vec<u32>) {
        let mut starts = vec![0u32; buckets + 1];
        for &(b, _, _) in schedule {
            starts[b as usize + 1] += 1;
        }
        for b in 0..buckets {
            starts[b + 1] += starts[b];
        }
        let mut at = starts.clone();
        let mut order = vec![0; schedule.len()];
        for &(b, row, neg) in schedule {
            order[at[b as usize] as usize] = row | if neg { NEG } else { 0 };
            at[b as usize] += 1;
        }
        (order, starts)
    }

    /// Every bucket sum of `schedule` against `msm_serial` over its points,
    /// summed over buckets `lo..` by one task and below `lo` by another.
    fn check_buckets(points: &[Affine<G1>], buckets: usize, schedule: &[(u32, u32, bool)]) -> u64 {
        let (order, starts) = sorted(schedule, buckets);
        let mut sums = vec![Affine::identity(); buckets];
        let mut task = Task::new();
        let (low, high) = sums.split_at_mut(buckets / 2);
        task.sum_buckets(points, &order, &starts, 0, low);
        task.sum_buckets(points, &order, &starts, buckets / 2, high);
        for (b, sum) in sums.iter().enumerate() {
            let (terms, ones): (Vec<_>, Vec<_>) = schedule
                .iter()
                .filter(|a| a.0 as usize == b)
                .map(|&(_, row, neg)| {
                    let p = points[row as usize];
                    (if neg { p.neg() } else { p }, Fr381::one())
                })
                .unzip();
            assert_eq!(
                Jacobian::from(*sum),
                msm_serial(&terms, &ones),
                "bucket {b}"
            );
        }
        task.inversions
    }

    #[test]
    fn a_hot_bucket_is_a_tree_of_rounds() {
        // 512 points into one bucket beside 100 single ones: 9 rounds of
        // 256, 128, …, 1 additions, the first with the others' pairs.
        let points = multiples::<G1>(800);
        let mut schedule: Vec<_> = (0..512).map(|r| (0, r, r % 5 == 0)).collect();
        schedule.extend((0..100).map(|i| (1 + i, 600 + i, false)));
        assert_eq!(check_buckets(&points, 128, &schedule), 9);
    }

    #[test]
    fn a_bucket_empties_and_refills() {
        let points = multiples::<G1>(16);
        for schedule in [
            // P − P empties the bucket within one pair.
            vec![(3, 9, false), (3, 9, true)],
            // … and the odd P left over refills it in round 2.
            vec![(3, 9, false), (3, 9, true), (3, 9, false)],
            // (2G − 2G) + (3G + 5G): an empty partial sum meets a point.
            vec![(3, 1, false), (3, 1, true), (3, 2, false), (3, 4, false)],
            // 2G + 3G − 5G: a chord, then the sum cancels the odd point.
            vec![(3, 1, false), (3, 2, false), (3, 4, true)],
        ] {
            check_buckets(&points, 8, &schedule);
        }
    }

    #[test]
    fn a_bucket_meets_the_same_point_twice() {
        let points = multiples::<G1>(16);
        for schedule in [
            // P + P and (−P) + (−P) double inside one pair.
            vec![(3, 4, false), (3, 4, false)],
            vec![(3, 4, true), (3, 4, true)],
            // 2G + 3G = 5G meets 5G in round 2 and doubles there.
            vec![(3, 1, false), (3, 2, false), (3, 4, false)],
            vec![(3, 1, false), (3, 2, false), (3, 4, false), (3, 4, false)],
        ] {
            check_buckets(&points, 8, &schedule);
        }
    }

    #[test]
    fn a_task_too_small_to_batch_never_inverts() {
        // Every bucket holds at most one point, so no round has an
        // addition to batch, however many buckets there are.
        let points = multiples::<G1>(500);
        let schedule: Vec<_> = (0..500u32).map(|r| (r, r, r % 3 == 0)).collect();
        assert_eq!(check_buckets(&points, 512, &schedule), 0);
        assert_eq!(check_buckets(&points, 4, &[(2, 7, true)]), 0);
    }

    #[test]
    fn batches_end_on_either_side_of_the_boundary() {
        let points = multiples::<G1>(2 * AFFINE_BATCH + 4);
        for k in [AFFINE_BATCH - 1, AFFINE_BATCH, AFFINE_BATCH + 1] {
            // k buckets of two points: one round of k additions.
            let schedule: Vec<_> = (0..2 * k as u32).map(|r| (r / 2, r, false)).collect();
            let inversions = check_buckets(&points, 2 * AFFINE_BATCH + 2, &schedule);
            assert_eq!(inversions, k.div_ceil(AFFINE_BATCH) as u64, "k = {k}");
        }
    }

    #[test]
    fn hot_buckets_sum_beside_cold_ones() {
        // Every third point goes to one of four hot buckets, the rest
        // spread over 600 others: a round mixes the hot trees' pairs with
        // the cold buckets' ones.
        let n = 1536u32;
        let points = multiples::<G1>(n as usize);
        let schedule: Vec<_> = (0..n)
            .map(|r| {
                let bucket = if r % 3 == 0 { r % 4 } else { 4 + r % 600 };
                (bucket, r, r % 7 == 0)
            })
            .collect();
        check_buckets(&points, 1024, &schedule);
    }

    #[test]
    fn a_bucket_larger_than_a_block_carries_its_pieces() {
        // 3·BLOCK + 5 points in one bucket take two blocks, the first
        // piece's sum carried into the second, beside buckets on either
        // side.
        let n = 3 * BLOCK + 5;
        let points = multiples::<G1>(n + 40);
        let mut schedule: Vec<_> = (0..20).map(|i| (i % 3, n as u32 + i, false)).collect();
        schedule.extend((0..n as u32).map(|r| (3, r, r % 7 == 0)));
        schedule.extend((20..40).map(|i| (4 + i % 3, n as u32 + i, true)));
        check_buckets(&points, 8, &schedule);
    }

    /// Runs a window through the walk and checks it against `msm_serial`.
    fn assert_walk(sums: &[Affine<G1>]) -> u64 {
        let weights: Vec<Fr381> = (1..=sums.len() as u64).map(Fr381::from_u64).collect();
        let expect = msm_serial(sums, &weights);
        let mut task = Task::new();
        let got = task.affine_window_sum(&mut sums.to_vec()).to_jacobian();
        assert_eq!(got, expect, "{} buckets", sums.len());
        task.inversions
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The walk at windows that segment and at ones that do not
        /// against `msm_serial`: unsigned (`2^s − 1`, a short last segment)
        /// and signed bucket counts, buckets filled at any rate with whole
        /// segments left empty, and, with `same`, every bucket holding `±P`,
        /// so that running sums meet `P + P` and `P − P`.
        #[test]
        fn segmented_reduction_matches_the_reference(
            shape in 0usize..6,
            fill in 0u64..=100,
            empty_segment in 0usize..8,
            same in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let buckets = [15usize, 64, 1023, 1024, 2047, 512][shape];
            let k = Reduction::new(buckets as u64).segments as usize;
            let m = buckets.div_ceil(k);
            let points = multiples::<G1>(buckets);
            let mut state = seed | 1;
            let mut next = move |bound: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % bound
            };
            let sums: Vec<Affine<G1>> = (0..buckets)
                .map(|i| {
                    if (i / m) % 8 == empty_segment || next(100) >= fill {
                        return Affine::identity();
                    }
                    let p = points[if same { 0 } else { i }];
                    if next(2) == 0 { p.neg() } else { p }
                })
                .collect();
            assert_walk(&sums);
        }
    }

    #[test]
    fn a_full_window_walks_in_two_rounds_a_step() {
        for buckets in [1024usize, 2048] {
            let priced = Reduction::new(buckets as u64);
            let m = buckets as u64 / priced.segments;
            let points = multiples::<G1>(buckets);
            assert_eq!(assert_walk(&points), 2 * m - 2);
            assert_eq!(priced.inversions, 2 * m - 2);
        }
    }
}
