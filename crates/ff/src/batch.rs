//! Batched field inversion — the "Montgomery Trick" of §IV-D1b.
//!
//! The paper analyzes replacing `N` `FF_inv` operations with `1` `FF_inv`
//! plus `3N` `FF_mul` operations so that MSM can afford Affine point
//! addition. This module provides that primitive for the CPU stack and is
//! the ground truth for the Fig. 12-adjacent op-count analysis in
//! `zkprophet`.

use crate::traits::Field;

/// Inverts every non-zero element of `values` in place using a single field
/// inversion and `3(N-1)` multiplications (Montgomery's trick).
///
/// Zero entries are left untouched (their "inverse" stays zero), matching
/// the convention of batch EC-point normalization where points at infinity
/// pass through.
///
/// # Examples
///
/// ```
/// use zkp_ff::{batch_inverse, Field, Fr381};
/// let mut v = vec![Fr381::from_u64(2), Fr381::zero(), Fr381::from_u64(4)];
/// batch_inverse(&mut v);
/// assert_eq!(v[0] * Fr381::from_u64(2), Fr381::one());
/// assert!(v[1].is_zero());
/// ```
pub fn batch_inverse<F: Field>(values: &mut [F]) {
    batch_inverse_counted(values);
}

/// Like [`batch_inverse`], but returns `(inversions, multiplications)`
/// actually performed — used by the §IV-D1b experiment to validate the
/// paper's `1 FF_inv + 3N FF_mul` accounting.
pub fn batch_inverse_counted<F: Field>(values: &mut [F]) -> (usize, usize) {
    // Forward pass: prefix products of the non-zero entries.
    let mut muls = 0;
    let mut prefix = Vec::with_capacity(values.len());
    let mut acc = F::one();
    for v in values.iter() {
        if !v.is_zero() {
            prefix.push(acc);
            acc *= *v;
            muls += 1;
        } else {
            prefix.push(F::zero()); // placeholder, never read
        }
    }
    if acc.is_zero() {
        return (0, muls);
    }
    // One inversion of the running product.
    let mut inv_acc = acc.inverse().expect("product of non-zero elements");
    // Backward pass: peel off one element per step.
    for (v, pre) in values.iter_mut().zip(prefix.iter()).rev() {
        if v.is_zero() {
            continue;
        }
        let inv_v = inv_acc * *pre;
        inv_acc *= *v;
        *v = inv_v;
        muls += 2;
    }
    (1, muls)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::Fr381;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn inverts_every_element() {
        let mut rng = StdRng::seed_from_u64(7);
        let orig: Vec<Fr381> = (0..33).map(|_| Fr381::random(&mut rng)).collect();
        let mut v = orig.clone();
        batch_inverse(&mut v);
        for (a, ai) in orig.iter().zip(&v) {
            assert_eq!(*a * *ai, Fr381::one());
        }
    }

    #[test]
    fn zeros_pass_through() {
        let mut v = vec![Fr381::zero(); 5];
        batch_inverse(&mut v);
        assert!(v.iter().all(|x| x.is_zero()));
    }

    #[test]
    fn op_count_matches_paper_model() {
        let mut rng = StdRng::seed_from_u64(8);
        let n = 100;
        let mut v: Vec<Fr381> = (0..n).map(|_| Fr381::random(&mut rng)).collect();
        let (invs, muls) = batch_inverse_counted(&mut v);
        assert_eq!(invs, 1);
        // Paper model: 3N multiplications; exact count is 3N (N prefix +
        // 2N backward), minus the constant-factor savings at the ends.
        assert!(muls <= 3 * n && muls >= 3 * n - 3, "muls = {muls}");
    }

    #[test]
    fn empty_and_singleton() {
        let mut v: Vec<Fr381> = vec![];
        batch_inverse(&mut v);
        let mut v = vec![Fr381::from_u64(3)];
        batch_inverse(&mut v);
        assert_eq!(v[0] * Fr381::from_u64(3), Fr381::one());
    }
}
