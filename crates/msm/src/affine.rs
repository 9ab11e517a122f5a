//! Batch-affine bucket accumulation — the Montgomery trick of §IV-D1b
//! applied to Pippenger's buckets.
//!
//! One [`AffineBuckets`] serves one (window, chunk) task of the bucket
//! engine, and is the engine's only bucket store: affine buckets, a batch
//! of additions that share one inversion, a bounded queue for additions to
//! buckets already in the batch, and XYZZ buckets for the hot ones. A task
//! whose batch can never repay its inversion never batches and takes every
//! addition into an occupied bucket by an XYZZ mixed addition.
//! [`affine_window_sum`] folds a window's chunk tasks into its sum-of-sums.

use crate::pippenger::{AFFINE_ADD_FF_MULS, INV_FF_MULS, MADD_FF_MULS};
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
/// over XYZZ mixed additions than its inversion costs (at least 68).
pub(crate) fn worth_a_batch(len: usize) -> bool {
    len as u64 * (MADD_FF_MULS - AFFINE_ADD_FF_MULS) >= INV_FF_MULS
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
    /// Batch inversions spent since the last reset.
    pub(crate) flushes: u64,
}

impl<Cu: SwCurve> AffineBuckets<Cu> {
    /// Empties the task for `buckets` buckets. Every buffer is reserved to
    /// its bound here, so a warm task allocates nothing whatever the digits.
    /// A task that never batches leaves the batch buffers and the queue
    /// unused, so it reserves none: the blinding MSMs run 43 such tasks.
    pub(crate) fn reset(&mut self, buckets: usize) {
        debug_assert!(self.batch.is_empty() && self.queue.is_empty());
        self.buckets.resize(buckets, Xyzz::identity());
        self.slots.clear();
        self.slots.resize(buckets, Slot::Empty);
        let cap = self.cap();
        self.batches = worth_a_batch(cap);
        (self.adds, self.flushes) = (0, 0);
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
            self.heat(b);
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
        batch_inverse_in(&mut self.dens, &mut self.prefix);
        for (add, inv) in self.batch.iter().zip(&self.dens) {
            let p = add.point(points);
            let b = add.bucket as usize;
            let bucket = &mut self.buckets[b];
            let lambda = (p.y - bucket.y) * *inv;
            let x3 = lambda.square() - bucket.x - p.x;
            bucket.y = lambda * (bucket.x - x3) - bucket.y;
            bucket.x = x3;
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

    /// Turns bucket `b`'s affine point into a hot XYZZ bucket, fed by
    /// mixed additions from now on.
    fn heat(&mut self, b: usize) {
        let bucket = &mut self.buckets[b];
        (bucket.zz, bucket.zzz) = (Cu::Base::one(), Cu::Base::one());
        self.slots[b] = Slot::Xyzz;
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
                self.heat(b);
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

/// The sum-of-sums `Σ (i+1)·Bᵢ` of one window whose buckets are split over
/// `chunks` tasks: every chunk's bucket `i` is folded into the running sum
/// by a mixed addition (a full one for a hot XYZZ bucket), so the chunk
/// partials are never merged on their own.
pub(crate) fn affine_window_sum<Cu: SwCurve>(chunks: &[AffineBuckets<Cu>]) -> Xyzz<Cu> {
    let mut running = Xyzz::identity();
    let mut sum = Xyzz::identity();
    for i in (0..chunks[0].slots.len()).rev() {
        for chunk in chunks {
            let bucket = &chunk.buckets[i];
            match chunk.slots[i] {
                Slot::Affine => {
                    running = running.add_affine(&Affine {
                        x: bucket.x,
                        y: bucket.y,
                        infinity: false,
                    });
                }
                Slot::Xyzz => running = running.add(bucket),
                Slot::Empty => {}
                Slot::Batched => unreachable!("finish() completes every batch"),
            }
        }
        sum = sum.add(&running);
    }
    sum
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
    /// additions (`Σ (bucket + 1)·±P`). Returns the tasks for inspection.
    fn check(
        points: &[Affine<G1>],
        buckets: usize,
        chunks: &[Vec<BucketAdd>],
    ) -> Vec<AffineBuckets<G1>> {
        let tasks: Vec<AffineBuckets<G1>> = chunks
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
            .collect();
        let (terms, weights): (Vec<_>, Vec<_>) = chunks
            .iter()
            .flatten()
            .map(|a| (a.point(points), Fr381::from_u64(u64::from(a.bucket) + 1)))
            .unzip();
        assert_eq!(
            affine_window_sum(&tasks).to_jacobian(),
            msm_serial(&terms, &weights)
        );
        tasks
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
}
