//! The production transform family: two per-domain tables, a
//! multiplication-free head pass, one butterfly kernel, and a pooled
//! transform and coset scaling.
//!
//! These mirror the optimizations §IV-A attributes to `cuZK` ("storing
//! precomputed twiddle factors in device memory") and the stage-parallel
//! structure every GPU NTT exploits — here realized with lookup tables
//! and a `zkp-runtime` pool. This is the path the prover and the
//! benchmark both run; the on-the-fly network in [`crate::transform`] is
//! the independent reference it is cross-checked against.
//!
//! A [`TwiddleTable`] holds two runs of field elements, built once per
//! domain and read by every transform after it:
//!
//! * the stage twiddles, `n − 1` entries laid out the way the kernel walks
//!   them: each stage reads one contiguous run, there is one direction (the
//!   inverse transform is the forward network on the index-negated input),
//!   and no butterfly multiplies by `ω⁰ = 1`;
//! * the coset powers `n⁻¹·gⁱ`, `n + 1` entries, which make every coset
//!   scaling one multiplication per element instead of a serial power
//!   chain: 2^15 · 32 B = 1 MiB of memory for the quotient's domain.

use crate::domain::Domain;
use crate::transform::bit_reverse_permute;
use zkp_ff::{Field, PrimeField};
use zkp_runtime::ThreadPool;

/// Precomputed factors for one domain. The twiddles are in stage order:
/// the stage with block size `m` reads its `m/2` twiddles
/// `ω_m⁰ … ω_m^(m/2−1)` (`ω_m = ω^(n/m)`) contiguously at
/// `[m/2 − 1, m − 1)` — `n − 1` entries in all — replacing the serial
/// `w *= w_m` chains of the on-the-fly transform with independent,
/// unit-stride lookups. The coset powers `coset[i] = n⁻¹·gⁱ`,
/// `i ∈ 0..=n`, do the same for the coset scalings [`coset_scale_on`]
/// applies; the entry past the domain, `n⁻¹·gⁿ`, closes the reversed read
/// at `i = 0`.
#[derive(Debug, Clone)]
pub struct TwiddleTable<F: PrimeField> {
    stages: Vec<F>,
    coset: Vec<F>,
    size: u64,
}

impl<F: PrimeField> TwiddleTable<F> {
    /// Builds the tables for a domain (3n/2 multiplications, done once):
    /// the last stage by the running product `ωʲ`, every earlier stage as
    /// every other entry of the one after it (`ω_(m/2)ʲ = ω_m²ʲ`), and the
    /// coset powers by the running product `n⁻¹·gⁱ`.
    pub fn new(domain: &Domain<F>) -> Self {
        let n = domain.size() as usize;
        let mut stages = vec![F::one(); n - 1];
        let mut power = F::one();
        for entry in &mut stages[n / 2..] {
            power *= domain.omega();
            *entry = power;
        }
        let mut m = n;
        while m > 2 {
            for j in 0..m / 4 {
                stages[m / 4 - 1 + j] = stages[m / 2 - 1 + 2 * j];
            }
            m /= 2;
        }
        let coset =
            std::iter::successors(Some(domain.size_inv()), |p| Some(*p * domain.coset_gen()))
                .take(n + 1)
                .collect();
        Self {
            stages,
            coset,
            size: domain.size(),
        }
    }

    /// Memory the tables occupy in bytes (the "device memory" cost cuZK
    /// pays for this optimization).
    pub fn bytes(&self) -> usize {
        (self.stages.len() + self.coset.len()) * F::NUM_LIMBS * 8
    }

    /// The twiddles of the stage with block size `m`.
    fn stage(&self, m: usize) -> &[F] {
        &self.stages[m / 2 - 1..m - 1]
    }
}

/// Stages 1 and 2 of one bit-reversed quadruple in a single pass. Their
/// twiddles are `1`, `1` and `ω^(n/4)`, so of the four butterflies only the
/// last multiplies: `a ± b`, `c ± d`, one product by `quarter = ω^(n/4)`,
/// four more additions and subtractions.
#[inline]
fn head_pass<F: Field>(quad: &mut [F], quarter: F) {
    let [a, b, c, d] = quad else {
        unreachable!("the head pass runs on blocks of four")
    };
    let (ab, a_b, cd) = (*a + *b, *a - *b, *c + *d);
    let t = quarter * (*c - *d);
    (*a, *b, *c, *d) = (ab + cd, a_b + t, ab - cd, a_b - t);
}

/// The butterfly kernel, under every stage after the head pass: lanes
/// `offset..offset + lo.len()` of one block, `lo` and `hi` being those
/// lanes of its lower and upper half and `tw` the block's stage of the
/// table. Lane 0 takes `ω⁰ = 1` and is not multiplied.
#[inline]
fn butterflies<F: Field>(lo: &mut [F], hi: &mut [F], tw: &[F], offset: usize) {
    let butterfly = |l: &mut F, h: &mut F, t: F| {
        let u = *l;
        *l = u + t;
        *h = u - t;
    };
    let mut lanes = lo.iter_mut().zip(hi.iter_mut()).zip(&tw[offset..]);
    if offset == 0 {
        if let Some(((l, h), _one)) = lanes.next() {
            let t = *h;
            butterfly(l, h, t);
        }
    }
    for ((l, h), w) in lanes {
        let t = *w * *h;
        butterfly(l, h, t);
    }
}

/// In-place NTT by table lookup on a [`ThreadPool`]: every stage's
/// butterflies are independent, so each stage fans out across the pool
/// with a barrier between stages (the CPU shape of the GPU's
/// one-thread-per-butterfly mapping); one-thread pools and sizes below
/// 2^10 run the stages in line. Butterfly values are exact, so the output
/// is bit-identical to the reference network at any thread count.
///
/// `invert` runs the same network: the DFT by `ω⁻¹` is the DFT by `ω` of
/// the index-negated input (`x[(n − i) mod n]`, i.e. `values[1..]`
/// reversed), so there is no inverse table. It does *not* apply `n⁻¹`:
/// the coset powers of [`coset_scale_on`] carry it.
///
/// # Panics
///
/// Panics if `values.len()` differs from the table's domain size.
pub fn ntt_parallel_on<F: PrimeField>(
    values: &mut [F],
    table: &TwiddleTable<F>,
    invert: bool,
    pool: &ThreadPool,
) {
    assert_eq!(
        values.len() as u64,
        table.size,
        "input length must match the table's domain"
    );
    let n = values.len();
    if invert {
        values[1..].reverse();
    }
    bit_reverse_permute(values);
    let in_line = pool.num_threads() == 1 || n < 1 << 10;
    // Tasks below ~2^11 butterflies are dominated by scheduling overhead.
    const MIN_ELEMS: usize = 1 << 12;
    // Stages 1–2 are the head pass; a lone pair (n = 2) is lane 0 of the
    // loop below.
    let first_stage = if n < 4 {
        1
    } else {
        let quarter = table.stage(4)[1];
        let head = |quad: &mut [F]| head_pass(quad, quarter);
        if in_line {
            values.chunks_mut(4).for_each(head);
        } else {
            pool.for_each_block_mut(values, 4, MIN_ELEMS / 4, |_, quad| head(quad));
        }
        3
    };
    for s in first_stage..=n.trailing_zeros() {
        let m = 1usize << s;
        let tw = table.stage(m);
        let whole_block = |block: &mut [F]| {
            let (lo, hi) = block.split_at_mut(m / 2);
            butterflies(lo, hi, tw, 0);
        };
        if in_line {
            values.chunks_mut(m).for_each(whole_block);
        } else if n / m >= pool.num_threads() {
            // Early stages: parallelize across whole blocks.
            pool.for_each_block_mut(values, m, (MIN_ELEMS / m).max(1), |_, block| {
                whole_block(block)
            });
        } else {
            // Late stages, few large blocks: parallelize the lanes inside
            // each block across aligned half-slices.
            for block in values.chunks_mut(m) {
                let (lo, hi) = block.split_at_mut(m / 2);
                pool.zip_chunks_mut(lo, hi, MIN_ELEMS / 2, |_, offset, lo, hi| {
                    butterflies(lo, hi, tw, offset);
                });
            }
        }
    }
}

/// Chunks below this are dominated by scheduling overhead.
const MIN_SCALE_CHUNK: usize = 4096;

/// The coset scaling by table lookup, one multiplication per element, in
/// one pass on a pool. Forward, `values[i] *= n⁻¹·gⁱ`: an inverse
/// transform's `n⁻¹` and the shift onto the coset `g·⟨ω⟩`. With `invert`,
/// the table read backwards, `values[i] *= n⁻¹·g^(n−i)`: the shift back,
/// `n⁻¹·g⁻ⁱ`, times the constant `gⁿ`, which the caller cancels elsewhere
/// (the quotient's element-wise pass multiplies by `g⁻ⁿ`). Field
/// multiplication is exact, so the result is
/// bit-identical to [`crate::distribute_powers`] and a sweep by the
/// constant at any thread count.
///
/// # Panics
///
/// Panics if `values.len()` differs from the table's domain size.
pub fn coset_scale_on<F: PrimeField>(
    values: &mut [F],
    table: &TwiddleTable<F>,
    invert: bool,
    pool: &ThreadPool,
) {
    assert_eq!(
        values.len() as u64,
        table.size,
        "input length must match the table's domain"
    );
    let n = values.len();
    let coset = &table.coset;
    pool.for_each_chunk_mut(values, MIN_SCALE_CHUNK, |_, offset, chunk| {
        let scale = |(v, p): (&mut F, &F)| *v *= *p;
        if invert {
            let top = n - offset;
            let powers = coset[top + 1 - chunk.len()..=top].iter().rev();
            chunk.iter_mut().zip(powers).for_each(scale);
        } else {
            chunk.iter_mut().zip(&coset[offset..]).for_each(scale);
        }
    });
}

/// [`crate::distribute_powers`] on a thread pool, `values[i] *= gⁱ` for
/// any `g`: each chunk seeds its running power with `g^offset` and scans
/// locally. Bit-identical to the serial scan at any thread count.
pub fn distribute_powers_parallel<F: Field>(pool: &ThreadPool, values: &mut [F], g: F) {
    pool.for_each_chunk_mut(values, MIN_SCALE_CHUNK, |_, offset, chunk| {
        let mut acc = g.pow(&[offset as u64]);
        for v in chunk.iter_mut() {
            *v *= acc;
            acc *= g;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{intt, ntt};
    use rand::{rngs::StdRng, SeedableRng};
    use zkp_ff::Fr381;

    fn random_vec(n: usize, seed: u64) -> Vec<Fr381> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Fr381::random(&mut rng)).collect()
    }

    #[test]
    fn tabled_matches_on_the_fly() {
        let pool = ThreadPool::with_threads(1);
        for log_n in [1u32, 4, 10] {
            let d = Domain::<Fr381>::new(1 << log_n).expect("small domain");
            let table = TwiddleTable::new(&d);
            let v = random_vec(1 << log_n, u64::from(log_n));
            let mut a = v.clone();
            let mut b = v.clone();
            ntt(&d, &mut a);
            ntt_parallel_on(&mut b, &table, false, &pool);
            assert_eq!(a, b, "forward 2^{log_n}");
            intt(&d, &mut a);
            ntt_parallel_on(&mut b, &table, true, &pool);
            b.iter_mut().for_each(|x| *x *= d.size_inv());
            assert_eq!(a, b, "inverse 2^{log_n}");
            assert_eq!(b, v);
        }
    }

    #[test]
    fn parallel_matches_serial_across_thread_counts() {
        let d = Domain::<Fr381>::new(1 << 12).expect("small domain");
        let table = TwiddleTable::new(&d);
        let v = random_vec(1 << 12, 3);
        let mut expect = v.clone();
        ntt(&d, &mut expect);
        for threads in [1usize, 2, 3, 7, 32] {
            let mut got = v.clone();
            ntt_parallel_on(&mut got, &table, false, &ThreadPool::with_threads(threads));
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn parallel_inverse_round_trips() {
        let d = Domain::<Fr381>::new(1 << 11).expect("small domain");
        let table = TwiddleTable::new(&d);
        let pool = ThreadPool::with_threads(4);
        let v = random_vec(1 << 11, 4);
        let mut w = v.clone();
        ntt_parallel_on(&mut w, &table, false, &pool);
        ntt_parallel_on(&mut w, &table, true, &pool);
        w.iter_mut().for_each(|x| *x *= d.size_inv());
        assert_eq!(w, v);
    }

    #[test]
    fn table_is_laid_out_in_stage_order() {
        for log_n in 0u32..=12 {
            let n = 1usize << log_n;
            let d = Domain::<Fr381>::new(n as u64).expect("small domain");
            let table = TwiddleTable::new(&d);
            assert_eq!(table.bytes(), (2 * n) * Fr381::NUM_LIMBS * 8);
            for (i, power) in table.coset.iter().enumerate() {
                let expect = d.size_inv() * d.coset_gen().pow(&[i as u64]);
                assert_eq!(*power, expect, "n=2^{log_n} coset power {i}");
            }
            assert_eq!(table.coset.len(), n + 1);
            for s in 1..=log_n {
                let m = 1usize << s;
                for j in 0..m / 2 {
                    assert_eq!(
                        table.stages[m / 2 - 1 + j],
                        d.element((j * (n / m)) as u64),
                        "n=2^{log_n} m={m} j={j}"
                    );
                }
            }
        }
    }

    #[test]
    fn table_memory_accounting() {
        let d = Domain::<Fr381>::new(1 << 10).expect("small domain");
        let table = TwiddleTable::new(&d);
        // n/2 + n/4 + … + 1 twiddles of 4 limbs each, one direction, and
        // the n + 1 coset powers n⁻¹·gⁱ.
        assert_eq!(table.bytes(), ((1 << 10) - 1 + (1 << 10) + 1) * 32);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn size_mismatch_rejected() {
        let d = Domain::<Fr381>::new(16).expect("small domain");
        let table = TwiddleTable::new(&d);
        let mut v = random_vec(8, 5);
        ntt_parallel_on(&mut v, &table, false, &ThreadPool::with_threads(1));
    }
}
