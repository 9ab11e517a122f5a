//! Windowed fixed-base scalar multiplication.
//!
//! Groth16's trusted setup evaluates thousands of powers of a single
//! generator (`uᵢ(τ)·G`). With a per-window table of all `2^c` multiples,
//! each scalar multiplication collapses to `⌈λ/c⌉` point additions.

use crate::pippenger::{check_window_bits, window_digit, SCALAR_LIMBS_STACK};
use zkp_curves::{batch_to_affine, Affine, Jacobian, SwCurve};
use zkp_ff::PrimeField;

/// A precomputed table for repeated scalar multiplication of one base point.
///
/// # Examples
///
/// ```
/// use zkp_msm::FixedBase;
/// use zkp_curves::{bls12_381::G1, Jacobian, SwCurve};
/// use zkp_ff::{Field, Fr381};
///
/// let table = FixedBase::new(G1::generator(), 4);
/// let k = Fr381::from_u64(123_456);
/// assert_eq!(table.mul(&k), Jacobian::from(G1::generator()).mul_scalar(&k));
/// ```
#[derive(Debug, Clone)]
pub struct FixedBase<Cu: SwCurve> {
    /// `windows[w][d]` = `d · 2^(w·c) · base` for digits `d ∈ [1, 2^c)`.
    windows: Vec<Vec<Affine<Cu>>>,
    window_bits: u32,
}

impl<Cu: SwCurve> FixedBase<Cu> {
    /// Builds the table.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= window_bits <= 20` (table growth is `2^c`).
    pub fn new(base: Affine<Cu>, window_bits: u32) -> Self {
        check_window_bits(window_bits);
        let scalar_bits = Cu::Scalar::modulus_bits();
        let num_windows = scalar_bits.div_ceil(window_bits);
        let digits = (1usize << window_bits) - 1;
        let mut windows = Vec::with_capacity(num_windows as usize);
        let mut window_base = Jacobian::from(base);
        for _ in 0..num_windows {
            let mut multiples = Vec::with_capacity(digits);
            let mut acc = window_base;
            for _ in 0..digits {
                multiples.push(acc);
                acc = acc.add(&window_base);
            }
            windows.push(batch_to_affine(&multiples));
            window_base = acc; // = 2^c · previous window base
        }
        Self {
            windows,
            window_bits,
        }
    }

    /// Multiplies the base by `k` using only table lookups and additions,
    /// without allocating.
    pub fn mul(&self, k: &Cu::Scalar) -> Jacobian<Cu> {
        let mut stack = [0u64; SCALAR_LIMBS_STACK];
        let heap;
        let limbs: &[u64] = if Cu::Scalar::NUM_LIMBS <= SCALAR_LIMBS_STACK {
            k.write_uint(&mut stack);
            &stack
        } else {
            heap = k.to_uint();
            &heap
        };
        let mut acc = Jacobian::identity();
        for (w, table) in self.windows.iter().enumerate() {
            let lo = w as u32 * self.window_bits;
            let digit = window_digit(limbs, lo, self.window_bits) as usize;
            if digit != 0 {
                acc = acc.add_affine(&table[digit - 1]);
            }
        }
        acc
    }

    /// Multiplies the base by every scalar, normalizing in one batch.
    /// Runs on the process-wide [`zkp_runtime::global`] pool.
    pub fn batch_mul(&self, scalars: &[Cu::Scalar]) -> Vec<Affine<Cu>> {
        self.batch_mul_on(zkp_runtime::global(), scalars)
    }

    /// [`Self::batch_mul`] on an explicit pool. Output order is by scalar
    /// index regardless of scheduling.
    pub fn batch_mul_on(
        &self,
        pool: &zkp_runtime::ThreadPool,
        scalars: &[Cu::Scalar],
    ) -> Vec<Affine<Cu>> {
        let jac: Vec<Jacobian<Cu>> = pool.map(scalars.len(), 32, |i| self.mul(&scalars[i]));
        batch_to_affine(&jac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use zkp_curves::bls12_381::{G1, G2};
    use zkp_ff::{Field, Fr381};

    #[test]
    fn matches_double_and_add() {
        let mut rng = StdRng::seed_from_u64(3);
        let table = FixedBase::new(G1::generator(), 6);
        for _ in 0..10 {
            let k = Fr381::random(&mut rng);
            assert_eq!(
                table.mul(&k),
                Jacobian::from(G1::generator()).mul_scalar(&k)
            );
        }
    }

    #[test]
    fn works_on_g2() {
        let table = FixedBase::new(G2::generator(), 5);
        let k = Fr381::from_u64(987_654_321);
        assert_eq!(
            table.mul(&k),
            Jacobian::from(G2::generator()).mul_scalar(&k)
        );
    }

    #[test]
    fn zero_and_one() {
        let table = FixedBase::new(G1::generator(), 4);
        assert!(table.mul(&Fr381::zero()).is_identity());
        assert_eq!(table.mul(&Fr381::one()).to_affine(), G1::generator());
    }

    #[test]
    fn batch_matches_individual() {
        let mut rng = StdRng::seed_from_u64(4);
        let table = FixedBase::new(G1::generator(), 8);
        let scalars: Vec<Fr381> = (0..20).map(|_| Fr381::random(&mut rng)).collect();
        let batch = table.batch_mul(&scalars);
        for (k, p) in scalars.iter().zip(&batch) {
            assert_eq!(table.mul(k).to_affine(), *p);
        }
    }
}
