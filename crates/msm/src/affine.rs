//! Batch-affine bucket accumulation — the Montgomery trick of §IV-D1b
//! applied to Pippenger's buckets.
//!
//! One [`AffineBuckets`] serves one (window, chunk) task of the bucket
//! engine, and is the engine's only bucket store: affine buckets, a batch
//! of additions that share one inversion, a bounded queue for additions to
//! buckets already in the batch, and XYZZ buckets for the hot ones. A task
//! whose batch can never repay its inversion never batches and takes every
//! addition into an occupied bucket by an XYZZ mixed addition.
//!
//! [`affine_window_sum`] is the bucket reduction: it folds a window's chunk
//! tasks into its sum-of-sums as `K` segment running sums whose additions
//! share one inversion per round, `K` chosen and priced by [`Reduction`].
//! At `K = 1` it is the serial XYZZ sum-of-sums.

use crate::pippenger::{
    ADD_FF_MULS, AFFINE_ADD_FF_MULS, INV_FF_MULS, MADD_FF_MULS, XYZZ_DBL_FF_MULS,
};
use zkp_curves::{Affine, SwCurve, Xyzz};
use zkp_ff::{batch_inverse_in, Field};

/// Bucket additions one inversion serves: a batch is flushed once it holds
/// `min(AFFINE_BATCH, buckets)` additions, one per bucket. Its denominators
/// and prefix products are two field elements per addition — tens of KiB,
/// where the paper's GPU batch of 2^20 holds ~300 MB (§IV-D1b).
pub const AFFINE_BATCH: usize = 512;

/// Additions that may wait for a bucket already in the batch. A full
/// queue flushes the batch early; if the next batch is then too small to
/// pay for its inversion, a few hot buckets hold the waiting additions
/// (every scalar of a 0/1 witness has the digit 1), and they are spilled.
const AFFINE_QUEUE: usize = AFFINE_BATCH;

/// Additions per batch inversion at `buckets` buckets per window.
pub(crate) fn affine_batch_len(buckets: u64) -> u64 {
    buckets.min(AFFINE_BATCH as u64)
}

/// Whether a batch of `len` affine additions saves more multiplications
/// over XYZZ mixed additions than its inversion costs (at least 11).
pub(crate) fn worth_a_batch(len: usize) -> bool {
    len as u64 * (MADD_FF_MULS - AFFINE_ADD_FF_MULS) >= INV_FF_MULS
}

/// `FF_mul` units of normalising one hot XYZZ bucket: 3 of the batch
/// inversion of its `ZZZ`, then `1/Z = ZZ/ZZZ`, its square, `x` and `y`.
const NORMALISE_FF_MULS: u64 = 7;

/// Inverts every element of `dens` in place through one shared inversion:
/// the crate's only Montgomery trick, serving the accumulation's batches,
/// the reduction's rounds and the normalisation of hot buckets alike.
fn invert<F: Field>(dens: &mut [F], prefix: &mut Vec<F>) {
    batch_inverse_in(dens, prefix);
}

/// The slope denominator of the affine addition `sum + p`: `x₂ − x₁`, or
/// `2y` when `p = sum` doubles it.
fn denominator<Cu: SwCurve>(sum: &Xyzz<Cu>, p: &Affine<Cu>) -> Cu::Base {
    if sum.x == p.x {
        sum.y.double()
    } else {
        p.x - sum.x
    }
}

/// The slope numerator of the affine addition `sum + p` over its
/// [`denominator`]: `y₂ − y₁`, or `3x²` for a doubling.
fn numerator<Cu: SwCurve>(sum: &Xyzz<Cu>, p: &Affine<Cu>) -> Cu::Base {
    if sum.x == p.x {
        let xx = sum.x.square();
        xx.double() + xx
    } else {
        p.y - sum.y
    }
}

/// Completes the affine addition `sum + p` along the slope `lambda`.
fn add_with_slope<Cu: SwCurve>(sum: &mut Xyzz<Cu>, p: &Affine<Cu>, lambda: Cu::Base) {
    let x3 = lambda.square() - sum.x - p.x;
    sum.y = lambda * (sum.x - x3) - sum.y;
    sum.x = x3;
}

/// The affine point an `Affine`-slot value holds.
fn affine<Cu: SwCurve>(p: &Xyzz<Cu>) -> Affine<Cu> {
    Affine {
        x: p.x,
        y: p.y,
        infinity: false,
    }
}

/// Turns an affine value into an XYZZ one (`ZZ = ZZZ = 1`).
fn heat<Cu: SwCurve>(p: &mut Xyzz<Cu>, slot: &mut Slot) {
    (p.zz, p.zzz) = (Cu::Base::one(), Cu::Base::one());
    *slot = Slot::Xyzz;
}

/// `acc + p` in XYZZ, each read as its slot says: an affine `acc` is taken
/// with `ZZ = ZZZ = 1`, as a bucket turning hot is.
fn plus<Cu: SwCurve>(acc: &Xyzz<Cu>, acc_slot: Slot, p: &Xyzz<Cu>, slot: Slot) -> Xyzz<Cu> {
    let heated;
    let acc = match acc_slot {
        Slot::Affine => {
            heated = Xyzz::from(affine(acc));
            &heated
        }
        _ => acc,
    };
    match slot {
        Slot::Empty => *acc,
        Slot::Affine => acc.add_affine(&affine(p)),
        Slot::Xyzz => acc.add(p),
        Slot::Batched => unreachable!("a round completes its batch"),
    }
}

/// What one bucket of an [`AffineBuckets`] task holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    /// Nothing: the next addition fills it for free.
    Empty,
    /// An affine point in the bucket's `x`, `y` (`zz`, `zzz` are stale).
    Affine,
    /// An affine point with an addition waiting in the batch.
    Batched,
    /// An XYZZ point: a hot bucket, fed by mixed additions.
    Xyzz,
}

/// One bucket addition: the point of table row `row`, negated when `neg`,
/// into bucket `bucket`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BucketAdd {
    pub(crate) bucket: u32,
    pub(crate) row: u32,
    pub(crate) neg: bool,
}

impl BucketAdd {
    fn point<Cu: SwCurve>(&self, points: &[Affine<Cu>]) -> Affine<Cu> {
        let p = &points[self.row as usize];
        if self.neg {
            p.neg()
        } else {
            *p
        }
    }
}

/// The batch-affine accumulator of one (window, chunk) task — the
/// Montgomery trick of §IV-D1b applied to bucket accumulation. Buckets are
/// affine, so an empty bucket is filled for free and an addition costs
/// `AFFINE_ADD_FF_MULS` multiplications plus a share of one inversion per
/// batch. An addition to a bucket already in the batch waits in a bounded
/// queue for the next batch. Affine buckets are canonical: the order the
/// additions complete in cannot change a bucket's value. At so few buckets
/// that even a full batch cannot repay its inversion, the task never
/// batches: a bucket turns XYZZ at its second addition.
#[derive(Default)]
pub(crate) struct AffineBuckets<Cu: SwCurve> {
    /// Bucket values, read as `slots` says.
    pub(crate) buckets: Vec<Xyzz<Cu>>,
    slots: Vec<Slot>,
    /// Additions waiting for the batch inversion, one per bucket.
    batch: Vec<BucketAdd>,
    /// `x₂ − x₁` of each batched addition, inverted in place by the flush.
    dens: Vec<Cu::Base>,
    /// The batch inversion's prefix products.
    prefix: Vec<Cu::Base>,
    /// Additions whose bucket is already in the batch.
    queue: Vec<BucketAdd>,
    /// Whether a full batch repays its inversion at this bucket count.
    batches: bool,
    /// Additions taken since the last reset.
    pub(crate) adds: u64,
    /// Batch inversions of the accumulation since the last reset.
    pub(crate) flushes: u64,
    /// Batch inversions of the window's reduction (a first task only).
    pub(crate) reduction_inversions: u64,
}

impl<Cu: SwCurve> AffineBuckets<Cu> {
    /// Empties the task for `buckets` buckets. Every buffer is reserved to
    /// its bound here, so a warm task allocates nothing whatever the digits.
    /// A task that never batches leaves the batch buffers and the queue
    /// unused, so it reserves none: the blinding MSMs run 43 such tasks.
    /// The bucket reduction needs no buffer of its own: its running sums
    /// live in the first task's buckets, and its rounds and normalisation
    /// fit the batch buffers ([`Reduction`] keeps `K` within a batch).
    pub(crate) fn reset(&mut self, buckets: usize) {
        debug_assert!(self.batch.is_empty() && self.queue.is_empty());
        self.buckets.resize(buckets, Xyzz::identity());
        self.slots.clear();
        self.slots.resize(buckets, Slot::Empty);
        let cap = self.cap();
        self.batches = worth_a_batch(cap);
        (self.adds, self.flushes, self.reduction_inversions) = (0, 0, 0);
        if !self.batches {
            return;
        }
        self.prefix.clear();
        self.batch.reserve(cap);
        self.dens.reserve(cap);
        self.prefix.reserve(cap);
        self.queue.reserve(AFFINE_QUEUE);
    }

    fn cap(&self) -> usize {
        affine_batch_len(self.slots.len() as u64) as usize
    }

    /// Takes one addition.
    pub(crate) fn push(&mut self, points: &[Affine<Cu>], add: BucketAdd) {
        self.adds += 1;
        let batched = |task: &Self| task.slots[add.bucket as usize] == Slot::Batched;
        if batched(self) {
            if self.queue.len() == AFFINE_QUEUE {
                // The flush schedules at least one waiting addition, so
                // the queue has room afterwards.
                self.flush(points);
                if !worth_a_batch(self.batch.len()) {
                    self.spill(points);
                }
            }
            if batched(self) {
                self.queue.push(add);
                return;
            }
        }
        self.schedule(points, add);
        if self.batch.len() == self.cap() {
            self.flush(points);
        }
    }

    /// Adds into a bucket that has nothing batched.
    fn schedule(&mut self, points: &[Affine<Cu>], add: BucketAdd) {
        let b = add.bucket as usize;
        if !self.batches && self.slots[b] == Slot::Affine {
            heat(&mut self.buckets[b], &mut self.slots[b]);
        }
        let p = add.point(points);
        let bucket = &mut self.buckets[b];
        match self.slots[b] {
            Slot::Empty => {
                (bucket.x, bucket.y) = (p.x, p.y);
                self.slots[b] = Slot::Affine;
            }
            Slot::Affine if bucket.x == p.x => {
                // `P + P` or `P − P` has no `x₂ − x₁` to batch. Rare, so
                // the doubling pays its own inversion.
                let sum = Affine {
                    x: bucket.x,
                    y: bucket.y,
                    infinity: false,
                }
                .add(&p);
                (bucket.x, bucket.y) = (sum.x, sum.y);
                self.slots[b] = if sum.infinity {
                    Slot::Empty
                } else {
                    Slot::Affine
                };
            }
            Slot::Affine => {
                self.dens.push(p.x - bucket.x);
                self.batch.push(add);
                self.slots[b] = Slot::Batched;
            }
            Slot::Xyzz => *bucket = bucket.add_affine(&p),
            Slot::Batched => unreachable!("a batched bucket's additions wait in the queue"),
        }
    }

    /// Completes every batched addition through one shared inversion.
    fn apply(&mut self, points: &[Affine<Cu>]) {
        if self.batch.is_empty() {
            return;
        }
        invert(&mut self.dens, &mut self.prefix);
        for (add, inv) in self.batch.iter().zip(&self.dens) {
            let b = add.bucket as usize;
            let (bucket, p) = (&mut self.buckets[b], add.point(points));
            add_with_slope(bucket, &p, (p.y - bucket.y) * *inv);
            self.slots[b] = Slot::Affine;
        }
        self.batch.clear();
        self.dens.clear();
        self.flushes += 1;
    }

    /// Flushes the batch and lets the waiting additions into the next one,
    /// for as long as they fill it.
    fn flush(&mut self, points: &[Affine<Cu>]) {
        loop {
            self.apply(points);
            let mut kept = 0;
            for i in 0..self.queue.len() {
                let add = self.queue[i];
                if self.slots[add.bucket as usize] == Slot::Batched
                    || self.batch.len() == self.cap()
                {
                    self.queue[kept] = add;
                    kept += 1;
                } else {
                    self.schedule(points, add);
                }
            }
            self.queue.truncate(kept);
            if self.batch.len() < self.cap() {
                return;
            }
        }
    }

    /// Takes every batched and waiting addition by an XYZZ mixed addition
    /// instead, which turns their buckets into XYZZ ones. (A waiting
    /// addition's bucket is always batched: a flush keeps no other.)
    fn spill(&mut self, points: &[Affine<Cu>]) {
        self.dens.clear();
        for i in 0..self.batch.len() + self.queue.len() {
            let add = match self.batch.get(i) {
                Some(add) => *add,
                None => self.queue[i - self.batch.len()],
            };
            let b = add.bucket as usize;
            if self.slots[b] == Slot::Batched {
                // A hot bucket, fed by mixed additions from now on.
                heat(&mut self.buckets[b], &mut self.slots[b]);
            }
            self.schedule(points, add);
        }
        self.batch.clear();
        self.queue.clear();
    }

    /// Completes every addition taken: batches while they pay for their
    /// inversion, then the rest by spilling.
    pub(crate) fn finish(&mut self, points: &[Affine<Cu>]) {
        while worth_a_batch(self.batch.len()) {
            self.flush(points);
        }
        self.spill(points);
    }
}

/// The bucket reduction of one window of `buckets` buckets over `chunks`
/// chunk tasks: how many segments [`affine_window_sum`] runs, and what
/// [`Layout::shape`](crate::pippenger::Layout::shape) charges for it.
///
/// `K` segments of `m = ⌈buckets/K⌉` buckets cost, for a window whose every
/// bucket holds an affine point, `(chunks+1)·buckets − 2K` affine additions
/// (each segment's first `Rⱼ` and `Sⱼ` are free copies) in
/// `(chunks+1)·m − 2` inverted rounds, then the `K`-point XYZZ tail. Those
/// inversions and the tail's `≈ K·(2·MADD + ADD)` balance at
/// `K ≈ √(buckets·(chunks+1)·INV / (2·MADD + ADD))`, taken to the nearest
/// power of two, at most `buckets/2` and at most one batch
/// ([`AFFINE_BATCH`]), so a round fits the task's batch buffers. Segments
/// run only where a round of `K` additions repays its inversion and the
/// whole beats the serial XYZZ sum-of-sums, `buckets·(chunks·MADD + ADD)`;
/// otherwise `K = 1`, which *is* that sum-of-sums.
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
    /// The reduction of a window of `buckets` buckets over `chunks` tasks.
    pub(crate) fn new(buckets: u64, chunks: u64) -> Self {
        let serial = Self {
            segments: 1,
            muls: buckets * (chunks * MADD_FF_MULS + ADD_FF_MULS),
            inversions: 0,
        };
        // The largest power of two whose square is at most twice `K²`,
        // i.e. the nearest to `K` on a log scale, within the bounds.
        let twice_k2 = 2 * buckets * (chunks + 1) * INV_FF_MULS / (2 * MADD_FF_MULS + ADD_FF_MULS);
        let bound = affine_batch_len(buckets / 2);
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
            muls: ((chunks + 1) * buckets - 2 * k) * AFFINE_ADD_FF_MULS + tail,
            inversions: (chunks + 1) * m - 2,
        };
        if segmented.muls + segmented.inversions * INV_FF_MULS < serial.muls {
            segmented
        } else {
            serial
        }
    }
}

/// What one round of the reduction's walk adds at step `t`, in every
/// segment `j` whose bucket `i = j·m + t` exists. The running sums live in
/// the window's first task's buckets, each in one the walk has used up:
/// `Sⱼ` in the segment's top bucket, where it starts equal to `Rⱼ`, and
/// `Rⱼ` in bucket `i` once step `t` has moved it there.
#[derive(Clone, Copy)]
enum Round<'a, Cu: SwCurve> {
    /// `Rⱼ` moves from bucket `i + 1` into bucket `i`, taking its point.
    Move,
    /// Another chunk task's bucket `i` joins `Rⱼ`.
    Chunk(&'a AffineBuckets<Cu>),
    /// `Rⱼ` joins `Sⱼ`.
    Sum,
}

impl<'a, Cu: SwCurve> Round<'a, Cu> {
    /// Segment `j`'s target bucket in the first task and the bucket its
    /// addend is in, at step `t` of `m` over `buckets` buckets.
    fn op(self, j: usize, m: usize, t: usize, buckets: usize) -> Option<(usize, usize)> {
        let (i, top) = (j * m + t, ((j + 1) * m).min(buckets) - 1);
        match self {
            Round::Move => (i < top).then_some((i, i + 1)),
            Round::Chunk(_) => (i <= top).then_some((i, i)),
            Round::Sum => (i < top).then_some((top, i)),
        }
    }

    /// The addend in bucket `a`, of the first task (`head`) or the chunk.
    fn addend<'b>(self, head: &'b AffineBuckets<Cu>, a: usize) -> (&'b Xyzz<Cu>, Slot)
    where
        'a: 'b,
    {
        let task = match self {
            Round::Chunk(chunk) => chunk,
            Round::Move | Round::Sum => head,
        };
        (&task.buckets[a], task.slots[a])
    }
}

/// One round of the walk at step `t` of a reduction in `segments`
/// segments of `m` buckets: adds the round's addend into its target bucket
/// of the window's first task `head`, in every segment. An empty addend is
/// skipped and an empty target takes a free copy. Where both are affine
/// and the reduction is segmented, `P − P` empties the target and any
/// other sum, `P + P` included (a sum meets an unchanged running sum after
/// each empty bucket), joins one batch. Everything else is added in XYZZ,
/// which turns the target XYZZ for the rest of the walk, so each of the
/// `t + 1` steps left then costs at least `MADD − AFF` more: the batch is
/// inverted where that repays the inversion, and otherwise added in XYZZ
/// too. An XYZZ addition runs with the running sum as the accumulator, as
/// in the serial sum-of-sums. Returns the inversions spent.
fn round<Cu: SwCurve>(
    head: &mut AffineBuckets<Cu>,
    kind: Round<'_, Cu>,
    segments: usize,
    m: usize,
    t: usize,
) -> u64 {
    let buckets = head.slots.len();
    let steps = if segments > 1 { t + 1 } else { 0 };
    for (target, a) in (0..segments).filter_map(|j| kind.op(j, m, t, buckets)) {
        let (p, from) = kind.addend(head, a);
        let (sum, slot) = (&head.buckets[target], head.slots[target]);
        let (value, slot) = match (slot, from) {
            (_, Slot::Empty) => continue,
            (Slot::Empty, _) => (Some(*p), from),
            (Slot::Affine, Slot::Affine) if steps > 0 && sum.x == p.x && sum.y == -p.y => {
                (None, Slot::Empty)
            }
            (Slot::Affine, Slot::Affine) if steps > 0 => {
                head.dens.push(denominator(sum, &affine(p)));
                (None, Slot::Batched)
            }
            // A move's target is the bucket and its addend `Rⱼ`.
            _ => match kind {
                Round::Move => (Some(plus(p, from, sum, slot)), Slot::Xyzz),
                Round::Chunk(_) | Round::Sum => (Some(plus(sum, slot, p, from)), Slot::Xyzz),
            },
        };
        if let Some(value) = value {
            head.buckets[target] = value;
        }
        head.slots[target] = slot;
    }
    if head.dens.is_empty() {
        return 0;
    }
    let inverted = worth_a_batch(head.dens.len() * steps);
    if inverted {
        invert(&mut head.dens, &mut head.prefix);
    }
    let mut inverse = 0;
    for (target, a) in (0..segments).filter_map(|j| kind.op(j, m, t, buckets)) {
        if head.slots[target] != Slot::Batched {
            continue;
        }
        let p = affine(kind.addend(head, a).0);
        let (sum, slot) = (&mut head.buckets[target], &mut head.slots[target]);
        if inverted {
            add_with_slope(sum, &p, numerator(sum, &p) * head.dens[inverse]);
            inverse += 1;
            *slot = Slot::Affine;
        } else {
            heat(sum, slot);
            *sum = sum.add_affine(&p);
        }
    }
    head.dens.clear();
    u64::from(inverted)
}

/// Whether turning the window's hot XYZZ buckets affine through one shared
/// inversion costs less than letting each segment that holds one finish on
/// the XYZZ path: from its highest hot bucket `t` down, such a segment pays
/// `MADD` for `AFF` per chunk and `ADD` for `AFF` per step. At most `cap`
/// buckets are normalised, so the task's reserved buffers hold them.
fn normalising_pays<Cu: SwCurve>(window: &[AffineBuckets<Cu>], m: usize) -> bool {
    let per_step = window.len() as u64 * (MADD_FF_MULS - AFFINE_ADD_FF_MULS) + ADD_FF_MULS
        - AFFINE_ADD_FF_MULS;
    let (mut hot, mut leave, mut segment) = (0, 0, usize::MAX);
    for i in (0..window[0].slots.len()).rev() {
        let here = window.iter().filter(|c| c.slots[i] == Slot::Xyzz).count();
        if here > 0 {
            hot += here;
            if i / m != segment {
                segment = i / m;
                leave += (i % m + 1) as u64 * per_step;
            }
        }
    }
    hot > 0 && hot <= window[0].cap() && INV_FF_MULS + hot as u64 * NORMALISE_FF_MULS < leave
}

/// Turns every hot XYZZ bucket of the window affine through one batch
/// inversion of their `ZZZ` (`1/Z = ZZ/ZZZ`); a hot bucket that summed to
/// the identity empties. Returns the inversions spent (0 if every hot
/// bucket emptied).
fn normalise<Cu: SwCurve>(window: &mut [AffineBuckets<Cu>]) -> u64 {
    let (mut dens, mut prefix) = (
        std::mem::take(&mut window[0].dens),
        std::mem::take(&mut window[0].prefix),
    );
    for chunk in window.iter_mut() {
        for (bucket, slot) in chunk.buckets.iter().zip(chunk.slots.iter_mut()) {
            if *slot == Slot::Xyzz {
                if bucket.is_identity() {
                    *slot = Slot::Empty;
                } else {
                    dens.push(bucket.zzz);
                }
            }
        }
    }
    let spent = u64::from(!dens.is_empty());
    if spent > 0 {
        invert(&mut dens, &mut prefix);
    }
    let mut inverses = dens.iter();
    for chunk in window.iter_mut() {
        for (bucket, slot) in chunk.buckets.iter_mut().zip(chunk.slots.iter_mut()) {
            if *slot == Slot::Xyzz {
                let zzz_inv = *inverses.next().expect("one inverse per hot bucket");
                let z_inv = bucket.zz * zzz_inv;
                (bucket.x, bucket.y) = (bucket.x * z_inv.square(), bucket.y * zzz_inv);
                *slot = Slot::Affine;
            }
        }
    }
    dens.clear();
    (window[0].dens, window[0].prefix) = (dens, prefix);
    spent
}

/// The sum-of-sums `Σ (i+1)·Bᵢ` of one window whose buckets are split over
/// its chunk tasks, where `Bᵢ` is every chunk's bucket `i`.
///
/// The buckets are cut into `K` segments of `m` (from [`Reduction`]).
/// Walking `t = m−1 … 0`, every segment `j` adds each chunk's bucket
/// `j·m + t` into its running sum `Rⱼ`, one round per chunk, then `Rⱼ`
/// into `Sⱼ`, one more round; each round's affine additions share one
/// inversion where that repays it ([`round`]). With `Tⱼ` the final `Rⱼ`,
/// the window sum is `Σⱼ Sⱼ + m·Σⱼ j·Tⱼ`, the last term a `K`-point XYZZ
/// sum-of-sums scaled by double-and-add. At `K = 1` nothing is batched and
/// that is, coordinate for coordinate, the serial XYZZ sum-of-sums. Hot
/// XYZZ buckets are normalised first where that pays
/// ([`normalising_pays`]). The running sums live in the first task's
/// buckets ([`Round`]), and the inversions spent are left in its
/// `reduction_inversions`.
pub(crate) fn affine_window_sum<Cu: SwCurve>(window: &mut [AffineBuckets<Cu>]) -> Xyzz<Cu> {
    let buckets = window[0].slots.len();
    let k = Reduction::new(buckets as u64, window.len() as u64).segments as usize;
    let m = buckets.div_ceil(k);
    let segmented = k > 1;
    let mut inversions = 0;
    if segmented && normalising_pays(window, m) {
        inversions += normalise(window);
    }
    let (head, chunks) = window.split_first_mut().expect("a window has a task");
    for t in (0..m).rev() {
        inversions += round(head, Round::Move, k, m, t);
        for chunk in chunks.iter() {
            inversions += round(head, Round::Chunk(chunk), k, m, t);
        }
        inversions += round(head, Round::Sum, k, m, t);
    }
    // `Tⱼ`, the final `Rⱼ`, is in bucket `j·m` and `Sⱼ` in the segment's
    // top one: `Σⱼ j·Tⱼ` is a sum-of-sums over `j = K−1 … 1`, taken `m`
    // times by double-and-add, and every `Sⱼ` joins it.
    let filled = |j: &usize| j * m < buckets;
    let at = |i: usize| (&head.buckets[i], head.slots[i]);
    let (mut running, mut acc) = (Xyzz::identity(), Xyzz::identity());
    for j in (1..k).rev().filter(filled) {
        let (t_j, slot) = at(j * m);
        running = plus(&running, Slot::Xyzz, t_j, slot);
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
        let (s_j, slot) = at(((j + 1) * m).min(buckets) - 1);
        total = plus(&total, Slot::Xyzz, s_j, slot);
    }
    head.reduction_inversions = inversions;
    total
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

    pub(crate) fn add(bucket: u32, row: u32, neg: bool) -> BucketAdd {
        BucketAdd { bucket, row, neg }
    }

    /// Runs each schedule as one chunk task of a `buckets`-bucket window and
    /// checks the window's sum-of-sums against `msm_serial` over the same
    /// additions (`Σ (bucket + 1)·±P`). Returns the tasks as accumulation
    /// left them, for inspection (the reduction works in their buckets).
    fn check(
        points: &[Affine<G1>],
        buckets: usize,
        chunks: &[Vec<BucketAdd>],
    ) -> Vec<AffineBuckets<G1>> {
        assert_reduction(points, chunks, &mut accumulate(points, buckets, chunks));
        accumulate(points, buckets, chunks)
    }

    /// Runs each schedule as one chunk task of a `buckets`-bucket window.
    fn accumulate(
        points: &[Affine<G1>],
        buckets: usize,
        chunks: &[Vec<BucketAdd>],
    ) -> Vec<AffineBuckets<G1>> {
        chunks
            .iter()
            .map(|schedule| {
                let mut task = AffineBuckets::default();
                task.reset(buckets);
                for &a in schedule {
                    task.push(points, a);
                }
                task.finish(points);
                assert!(task.batch.is_empty() && task.queue.is_empty());
                assert!(!task.slots.contains(&Slot::Batched));
                assert_eq!(task.adds, schedule.len() as u64);
                task
            })
            .collect()
    }

    /// The window's sum-of-sums against `msm_serial` over its additions.
    fn assert_reduction(
        points: &[Affine<G1>],
        chunks: &[Vec<BucketAdd>],
        tasks: &mut [AffineBuckets<G1>],
    ) {
        let (terms, weights): (Vec<_>, Vec<_>) = chunks
            .iter()
            .flatten()
            .map(|a| (a.point(points), Fr381::from_u64(u64::from(a.bucket) + 1)))
            .unzip();
        assert_eq!(
            affine_window_sum(tasks).to_jacobian(),
            msm_serial(&terms, &weights)
        );
    }

    #[test]
    fn every_addition_queues_behind_one_bucket() {
        // Each addition after the first waits for bucket 0; the full queue
        // flushes a batch of one, which is not worth its inversion, so the
        // waiting additions spill and the bucket turns XYZZ.
        let n = 3 * AFFINE_QUEUE;
        let points = multiples::<G1>(n);
        let schedule = (0..n as u32).map(|r| add(0, r, r % 5 == 0)).collect();
        let tasks = check(&points, 128, &[schedule]);
        assert_eq!(tasks[0].slots[0], Slot::Xyzz);
        assert!(tasks[0].flushes <= 2, "{} inversions", tasks[0].flushes);
    }

    #[test]
    fn a_bucket_empties_and_refills() {
        let points = multiples::<G1>(200);
        // 3G + 5G = 8G is batched beside 80 other additions, enough to pay
        // for the inversion; −8G and G wait, then −8G cancels the bucket
        // and G refills it.
        let mut schedule = vec![add(7, 2, false), add(7, 4, false)];
        schedule.extend((0..160).map(|i| add(8 + i % 80, 8 + i, false)));
        schedule.extend([add(7, 7, true), add(7, 0, false)]);
        let tasks = check(&points, 128, &[schedule]);
        assert_eq!(tasks[0].slots[7], Slot::Affine);
        assert_eq!(tasks[0].flushes, 1);
        // P then −P straight away, then P again.
        let tasks = check(
            &points,
            128,
            &[vec![add(3, 9, false), add(3, 9, true), add(3, 9, false)]],
        );
        assert_eq!(tasks[0].slots[3], Slot::Affine);
    }

    #[test]
    fn a_bucket_meets_the_same_point_twice() {
        let points = multiples::<G1>(16);
        // At 16 buckets the XYZZ addition doubles, at 128 the affine one.
        for buckets in [16, 128] {
            check(
                &points,
                buckets,
                &[vec![add(3, 4, false), add(3, 4, false)]],
            );
            check(&points, buckets, &[vec![add(3, 4, true), add(3, 4, true)]]);
            // 2G + 3G = 5G is batched; 5G waits, then doubles it.
            check(
                &points,
                buckets,
                &[vec![add(3, 1, false), add(3, 2, false), add(3, 4, false)]],
            );
        }
    }

    #[test]
    fn a_task_too_small_to_batch_never_inverts() {
        // Even a full batch of 8 additions cannot repay an inversion, so
        // every bucket turns XYZZ at its second addition.
        let points = multiples::<G1>(500);
        let schedule = (0..500u32).map(|r| add(r % 8, r, r % 3 == 0)).collect();
        let tasks = check(&points, 8, &[schedule]);
        assert_eq!(tasks[0].flushes, 0);
        assert!(tasks[0].slots.iter().all(|s| *s == Slot::Xyzz));
    }

    #[test]
    fn batches_end_on_either_side_of_the_boundary() {
        let points = multiples::<G1>(2 * AFFINE_BATCH + 2);
        for k in [AFFINE_BATCH - 1, AFFINE_BATCH, AFFINE_BATCH + 1] {
            // k free fills, then k additions to the same buckets.
            let schedule = (0..2 * k as u32)
                .map(|r| add(r % k as u32, r, false))
                .collect();
            let tasks = check(&points, 2 * AFFINE_BATCH, &[schedule]);
            // One full or nearly full batch; past the boundary the single
            // addition left is not worth an inversion and spills.
            assert_eq!(tasks[0].flushes, 1, "k = {k}");
            let spilled = tasks[0].slots.iter().filter(|s| **s == Slot::Xyzz).count();
            assert_eq!(spilled, usize::from(k > AFFINE_BATCH), "k = {k}");
        }
    }

    #[test]
    fn a_full_queue_spills_only_behind_hot_buckets() {
        // Every third addition goes to one of four hot buckets, the rest
        // spread over 600 others: the queue fills with hot additions, and
        // only the hot buckets turn XYZZ.
        let n = 3 * AFFINE_QUEUE;
        let points = multiples::<G1>(n);
        let schedule = (0..n as u32)
            .map(|r| {
                let bucket = if r % 3 == 0 { r % 4 } else { 4 + r % 600 };
                add(bucket, r, r % 7 == 0)
            })
            .collect();
        let tasks = check(&points, 1024, &[schedule]);
        for (b, slot) in tasks[0].slots.iter().enumerate() {
            assert_eq!(*slot == Slot::Xyzz, b < 4, "bucket {b}");
        }
    }

    #[test]
    fn chunk_partials_fold_into_one_running_sum() {
        let points = multiples::<G1>(300);
        let chunks: Vec<Vec<BucketAdd>> = (0..3u32)
            .map(|c| {
                (0..100u32)
                    .map(|i| add((7 * i + c) % 96, 100 * c + i, (i + c) % 4 == 0))
                    .collect()
            })
            .collect();
        check(&points, 96, &chunks);
    }

    /// Re-expresses bucket `i` of `task` as a hot XYZZ bucket of the same
    /// value, `(x·Z², y·Z³, Z², Z³)` for `Z = z`.
    fn make_hot(task: &mut AffineBuckets<G1>, i: usize, z: u64) {
        let z = zkp_ff::Fq381::from_u64(z);
        let (zz, zzz) = (z.square(), z.square() * z);
        let b = &mut task.buckets[i];
        (b.x, b.y, b.zz, b.zzz) = (b.x * zz, b.y * zzz, zz, zzz);
        task.slots[i] = Slot::Xyzz;
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The one reduction at windows that segment (`K = 128` or 256)
        /// against `msm_serial`: unsigned (`2^s − 1`, a short last segment)
        /// and signed bucket counts, one or three chunks — or eight over
        /// 512 buckets, 256 segments of two — buckets filled at
        /// any rate with whole segments left empty, hot XYZZ buckets high
        /// or low in their segments (normalised or left on the XYZZ path),
        /// and, with `same`, every bucket holding `±P`, so that running
        /// sums meet `P + P` and `P − P`.
        #[test]
        fn segmented_reduction_matches_the_reference(
            shape in 0usize..7,
            fill in 0u64..=100,
            empty_segment in 0usize..8,
            hot in 0usize..12,
            hot_high in proptest::prelude::any::<bool>(),
            same in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let (buckets, chunks): (usize, usize) =
                [(1023, 1), (1023, 3), (1024, 1), (1024, 3), (2047, 1), (2047, 3), (512, 8)][shape];
            let reduction = Reduction::new(buckets as u64, chunks as u64);
            proptest::prop_assert!(reduction.segments > 1);
            let m = buckets.div_ceil(reduction.segments as usize);
            let points = multiples::<G1>(chunks * buckets);
            let mut state = seed | 1;
            let mut next = move |bound: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % bound
            };
            let mut schedules = vec![Vec::new(); chunks];
            for (c, schedule) in schedules.iter_mut().enumerate() {
                for i in (0..buckets).filter(|i| (i / m) % 8 != empty_segment) {
                    if next(100) < fill {
                        let row = if same { 0 } else { c * buckets + i };
                        schedule.push(add(i as u32, row as u32, next(2) == 0));
                    }
                }
            }
            let mut tasks = accumulate(&points, buckets, &schedules);
            for (c, schedule) in schedules.iter().enumerate() {
                // Up to `hot` filled buckets per chunk, at the top or the
                // bottom of their segments.
                for a in schedule.iter().filter(|a| (a.bucket as usize % m < 2) != hot_high).take(hot) {
                    make_hot(&mut tasks[c], a.bucket as usize, 2 + next(1000));
                }
            }
            assert_reduction(&points, &schedules, &mut tasks);
        }
    }

    #[test]
    fn hot_buckets_are_normalised_only_where_it_pays() {
        // Eight hot buckets at the top of eight segments leave 8·8 steps
        // of XYZZ work behind, which one inversion saves; at the bottom of
        // their segments they cost less than it and stay XYZZ.
        let buckets = 1024;
        let m = buckets / Reduction::new(buckets as u64, 1).segments as usize;
        let points = multiples::<G1>(buckets);
        let chunks = [(0..buckets as u32).map(|i| add(i, i, false)).collect()];
        for (offset, inversions) in [(m - 1, 1), (0, 0)] {
            let mut tasks = accumulate(&points, buckets, &chunks);
            for j in 0..8 {
                make_hot(&mut tasks[0], j * m + offset, 3 + j as u64);
            }
            assert!(normalising_pays(&tasks, m) == (inversions == 1));
            let rounds = 2 * m as u64 - 2;
            assert_reduction(&points, &chunks, &mut tasks);
            assert_eq!(tasks[0].reduction_inversions, rounds + inversions);
        }
    }
}
