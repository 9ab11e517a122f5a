//! The reference transform family: on-the-fly radix-2 Cooley–Tukey and
//! the quadratic DFT.
//!
//! Nothing here is on the prover's path. [`ntt_radix2_in_place`] is the
//! textbook network (§II-B): `log₂ n` stages of `n/2` butterflies with a
//! running twiddle product, generic over any [`Field`] so it runs equally
//! over plain and op-counted elements (Fig. 8). [`ntt`], [`intt`], the
//! coset variants and [`slow_dft`] are what the tests and the benchmark's
//! output check hold the tabled, pooled family in [`crate::fast`] against,
//! which is why they share no butterfly or scaling code with it.

use crate::domain::Domain;
use zkp_ff::{Field, PrimeField};

/// Swaps elements into bit-reversed order (the "shuffle" between NTT stages
/// hoisted to the front of a decimation-in-time network).
pub fn bit_reverse_permute<T>(values: &mut [T]) {
    let n = values.len();
    assert!(n.is_power_of_two(), "NTT size must be a power of two");
    if n <= 2 {
        // The permutation is the identity, and at n = 1 the shift below
        // would be by the full word width.
        return;
    }
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u64).reverse_bits() as usize >> (64 - bits);
        if i < j {
            values.swap(i, j);
        }
    }
}

/// In-place radix-2 decimation-in-time NTT by the given root of unity.
///
/// `omega` must be a primitive `values.len()`-th root of unity.
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn ntt_radix2_in_place<F: Field>(values: &mut [F], omega: F) {
    let n = values.len();
    bit_reverse_permute(values);
    let log_n = n.trailing_zeros();
    for s in 1..=log_n {
        let m = 1usize << s;
        // ω_m = ω^(n/m): primitive m-th root.
        let w_m = omega.pow(&[(n / m) as u64]);
        for k in (0..n).step_by(m) {
            let mut w = F::one();
            for j in 0..m / 2 {
                // The butterfly (Fig. 4b): t = w·a[hi]; a[hi] = a[lo] - t;
                // a[lo] = a[lo] + t.
                let t = w * values[k + j + m / 2];
                let u = values[k + j];
                values[k + j] = u + t;
                values[k + j + m / 2] = u - t;
                w *= w_m;
            }
        }
    }
}

/// Forward NTT over a [`Domain`]: coefficients → evaluations on `⟨ω⟩`.
pub fn ntt<F: PrimeField>(domain: &Domain<F>, values: &mut [F]) {
    assert_eq!(
        values.len() as u64,
        domain.size(),
        "input length must equal the domain size"
    );
    ntt_radix2_in_place(values, domain.omega());
}

/// Inverse NTT over a [`Domain`]: evaluations → coefficients (includes the
/// `n⁻¹` scaling).
pub fn intt<F: PrimeField>(domain: &Domain<F>, values: &mut [F]) {
    assert_eq!(
        values.len() as u64,
        domain.size(),
        "input length must equal the domain size"
    );
    ntt_radix2_in_place(values, domain.omega_inv());
    let n_inv = domain.size_inv();
    for v in values.iter_mut() {
        *v *= n_inv;
    }
}

/// Forward NTT on the coset `g·⟨ω⟩`: scales coefficients by powers of `g`
/// first, then transforms.
pub fn coset_ntt<F: PrimeField>(domain: &Domain<F>, values: &mut [F]) {
    distribute_powers(values, domain.coset_gen());
    ntt(domain, values);
}

/// Inverse of [`coset_ntt`].
pub fn coset_intt<F: PrimeField>(domain: &Domain<F>, values: &mut [F]) {
    intt(domain, values);
    distribute_powers(values, domain.coset_gen_inv());
}

/// Multiplies `values[i]` by `g^i`.
pub fn distribute_powers<F: Field>(values: &mut [F], g: F) {
    let mut acc = F::one();
    for v in values.iter_mut() {
        *v *= acc;
        acc *= g;
    }
}

/// Reference quadratic-time DFT, for cross-checking the fast transforms.
pub fn slow_dft<F: PrimeField>(domain: &Domain<F>, values: &[F]) -> Vec<F> {
    let n = values.len() as u64;
    assert_eq!(n, domain.size());
    (0..n)
        .map(|i| {
            let mut acc = F::zero();
            let w_i = domain.element(i);
            let mut w_ij = F::one();
            for v in values {
                acc += *v * w_ij;
                w_ij *= w_i;
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use zkp_ff::Fr381;

    fn random_vec(n: usize, seed: u64) -> Vec<Fr381> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Fr381::random(&mut rng)).collect()
    }

    #[test]
    fn bit_reverse_is_involution() {
        let mut v: Vec<u32> = (0..64).collect();
        let orig = v.clone();
        bit_reverse_permute(&mut v);
        assert_ne!(v, orig);
        bit_reverse_permute(&mut v);
        assert_eq!(v, orig);
    }

    #[test]
    fn matches_slow_dft() {
        let d = Domain::<Fr381>::new(32).expect("small domain");
        let v = random_vec(32, 1);
        let expect = slow_dft(&d, &v);
        let mut fast = v.clone();
        ntt(&d, &mut fast);
        assert_eq!(fast, expect);
    }

    #[test]
    fn intt_inverts_ntt() {
        let d = Domain::<Fr381>::new(256).expect("small domain");
        let v = random_vec(256, 2);
        let mut w = v.clone();
        ntt(&d, &mut w);
        intt(&d, &mut w);
        assert_eq!(w, v);
    }

    #[test]
    fn coset_round_trip() {
        let d = Domain::<Fr381>::new(128).expect("small domain");
        let v = random_vec(128, 3);
        let mut w = v.clone();
        coset_ntt(&d, &mut w);
        assert_ne!(w, v);
        coset_intt(&d, &mut w);
        assert_eq!(w, v);
    }

    #[test]
    fn ntt_of_delta_is_all_ones() {
        // NTT of the unit impulse is the all-ones vector.
        let d = Domain::<Fr381>::new(16).expect("small domain");
        let mut v = vec![Fr381::zero(); 16];
        v[0] = Fr381::one();
        ntt(&d, &mut v);
        assert!(v.iter().all(|x| x.is_one()));
    }

    #[test]
    fn ntt_evaluates_polynomial() {
        // NTT output i equals P(ω^i) for the coefficient-form input.
        let d = Domain::<Fr381>::new(8).expect("small domain");
        let coeffs = random_vec(8, 6);
        let mut evals = coeffs.clone();
        ntt(&d, &mut evals);
        for i in 0..8u64 {
            let x = d.element(i);
            let mut expect = Fr381::zero();
            let mut xp = Fr381::one();
            for c in &coeffs {
                expect += *c * xp;
                xp *= x;
            }
            assert_eq!(evals[i as usize], expect);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let mut v = random_vec(3, 7);
        ntt_radix2_in_place(&mut v, Fr381::one());
    }
}
