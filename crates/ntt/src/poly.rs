//! Dense polynomial arithmetic built on the NTT, as used by the Groth16
//! quotient computation (Fig. 3: the `h` polynomial pipeline).

use crate::domain::Domain;
use crate::fast::{coset_scale_on, ntt_parallel_on, TwiddleTable};
use crate::transform::{coset_intt, coset_ntt, intt, ntt};
use std::convert::Infallible;
use zkp_ff::{Field, PrimeField};
use zkp_runtime::ThreadPool;

/// A dense polynomial in coefficient form (index = degree).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DensePoly<F: Field> {
    /// Coefficients, lowest degree first. May carry trailing zeros.
    pub coeffs: Vec<F>,
}

impl<F: PrimeField> DensePoly<F> {
    /// Builds from coefficients.
    pub fn from_coeffs(coeffs: Vec<F>) -> Self {
        Self { coeffs }
    }

    /// The zero polynomial.
    pub fn zero() -> Self {
        Self { coeffs: Vec::new() }
    }

    /// Degree (`0` for constants; `None` for the zero polynomial).
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.iter().rposition(|c| !c.is_zero())
    }

    /// Horner evaluation at `x`.
    pub fn evaluate(&self, x: &F) -> F {
        let mut acc = F::zero();
        for c in self.coeffs.iter().rev() {
            acc = acc * *x + *c;
        }
        acc
    }

    /// Product via NTT on a domain of size ≥ `deg(a) + deg(b) + 1`.
    pub fn mul_via_ntt(&self, rhs: &Self) -> Self {
        let (da, db) = match (self.degree(), rhs.degree()) {
            (Some(da), Some(db)) => (da, db),
            _ => return Self::zero(),
        };
        let d = Domain::<F>::for_size(da + db + 1).expect("product fits the field two-adicity");
        let n = d.size() as usize;
        let mut a = self.coeffs.clone();
        a.resize(n, F::zero());
        let mut b = rhs.coeffs.clone();
        b.resize(n, F::zero());
        ntt(&d, &mut a);
        ntt(&d, &mut b);
        for (x, y) in a.iter_mut().zip(&b) {
            *x *= *y;
        }
        intt(&d, &mut a);
        Self { coeffs: a }
    }

    /// Schoolbook product, for cross-checking.
    pub fn mul_naive(&self, rhs: &Self) -> Self {
        let (da, db) = match (self.degree(), rhs.degree()) {
            (Some(da), Some(db)) => (da, db),
            _ => return Self::zero(),
        };
        let mut out = vec![F::zero(); da + db + 1];
        for (i, a) in self.coeffs.iter().enumerate().take(da + 1) {
            for (j, b) in rhs.coeffs.iter().enumerate().take(db + 1) {
                out[i + j] += *a * *b;
            }
        }
        Self { coeffs: out }
    }
}

/// Computes the Groth16 quotient evaluations: given the *evaluations* of
/// `a`, `b`, `c` on the domain (satisfying `a·b - c ≡ 0` on it), returns the
/// coefficients of `h = (a·b - c)/Z` — the exact 7-NTT pipeline of Fig. 3:
/// 3 inverse NTTs, 3 coset NTTs, element-wise ops, 1 coset inverse NTT.
///
/// Returned alongside is the number of NTT-shaped transforms performed.
///
/// # Panics
///
/// Panics if the slices differ in length from the domain size.
pub fn quotient_poly<F: PrimeField>(
    domain: &Domain<F>,
    a_evals: &[F],
    b_evals: &[F],
    c_evals: &[F],
) -> (Vec<F>, u32) {
    let n = domain.size() as usize;
    assert!(
        a_evals.len() == n && b_evals.len() == n && c_evals.len() == n,
        "evaluation vectors must match the domain size"
    );
    let mut a = a_evals.to_vec();
    let mut b = b_evals.to_vec();
    let mut c = c_evals.to_vec();

    // (1–3) INTT: evaluations → coefficients.
    intt(domain, &mut a);
    intt(domain, &mut b);
    intt(domain, &mut c);
    // (4–6) coset NTT: coefficients → evaluations on g·⟨ω⟩.
    coset_ntt(domain, &mut a);
    coset_ntt(domain, &mut b);
    coset_ntt(domain, &mut c);
    // Element-wise (a·b - c) / Z — Z is the constant gⁿ - 1 on the coset.
    let z_inv = domain
        .vanishing_on_coset()
        .inverse()
        .expect("coset avoids the domain");
    for i in 0..n {
        a[i] = (a[i] * b[i] - c[i]) * z_inv;
    }
    // (7) coset INTT: back to coefficients of h.
    coset_intt(domain, &mut a);
    (a, 7)
}

/// One transform of [`quotient_schedule`], as its hook sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotientStep {
    /// Inverse NTT, in place, *without* the `n⁻¹` scaling — the schedule
    /// folds that into the following coset scaling.
    NttInverse,
    /// `values[i] *= n⁻¹·gⁱ`, or `n⁻¹·g^(n−i)` for the final coset INTT:
    /// one table lookup and one multiplication per element.
    CosetMul,
    /// Forward NTT, in place.
    NttForward,
}

/// The pooled 7-transform quotient schedule `h = (a·b − c)/Z`, fully in
/// place: three concurrent INTT → coset scaling → NTT chains (one per
/// input vector; each transform also fans out internally on `pool`), the
/// chunk-parallel element-wise `(a·b − c)·Z⁻¹·g⁻ⁿ` (`Z` is constant on the
/// coset), and one final coset INTT whose scaling pass, `n⁻¹·g^(n−i)`,
/// completes `n⁻¹·Z⁻¹·g⁻ⁱ`. Every scaling reads the table's coset powers.
/// Consumes the evaluation vectors and leaves the coefficients of `h` in
/// `a` (`b`, `c` clobbered as scratch), allocating nothing.
///
/// Each of its 11 steps (7 transforms, 4 coset scalings) is handed to
/// `wrap` as its [`QuotientStep`], its length and a closure that runs it:
/// the hook runs the step or returns the error that stops the schedule. The benchmark's
/// [`quotient_poly_in`] wraps nothing; the prover's
/// `zkp_backend::quotient_pipeline_in` dispatches each one as a backend
/// op.
///
/// Returns the number of NTT-shaped transforms performed (7).
///
/// # Errors
///
/// The first error `wrap` returns (chains are checked in a/b/c order).
///
/// # Panics
///
/// Panics if the slices or the table differ in length from the domain size.
pub fn quotient_schedule<F, E, W>(
    domain: &Domain<F>,
    table: &TwiddleTable<F>,
    pool: &ThreadPool,
    a: &mut [F],
    b: &mut [F],
    c: &mut [F],
    wrap: W,
) -> Result<u32, E>
where
    F: PrimeField,
    E: Send,
    W: Fn(QuotientStep, usize, &mut dyn FnMut()) -> Result<(), E> + Sync,
{
    let n = domain.size() as usize;
    assert!(
        a.len() == n && b.len() == n && c.len() == n,
        "evaluation vectors must match the domain size"
    );
    let inverse = |v: &mut [F]| {
        wrap(QuotientStep::NttInverse, v.len(), &mut || {
            ntt_parallel_on(v, table, true, pool)
        })
    };
    let coset = |v: &mut [F], invert: bool| {
        wrap(QuotientStep::CosetMul, v.len(), &mut || {
            coset_scale_on(v, table, invert, pool)
        })
    };
    let forward = |v: &mut [F]| {
        wrap(QuotientStep::NttForward, v.len(), &mut || {
            ntt_parallel_on(v, table, false, pool)
        })
    };
    // (1–3) INTT + (4–6) coset NTT per input vector, the INTT's n⁻¹ folded
    // into the coset scaling.
    let intt_then_coset = |v: &mut [F]| -> Result<(), E> {
        inverse(v)?;
        coset(v, false)?;
        forward(v)
    };
    let (ra, (rb, rc)) = pool.join(
        || intt_then_coset(&mut *a),
        || pool.join(|| intt_then_coset(&mut *b), || intt_then_coset(&mut *c)),
    );
    ra?;
    rb?;
    rc?;
    // Element-wise a·b - c, times the constants of the final scaling: the
    // division by Z — the constant gⁿ - 1 on the coset — and the g⁻ⁿ that
    // turns the reversed table read n⁻¹·g^(n−i) into n⁻¹·g⁻ⁱ. Both commute
    // with the linear transform between. This stays on the pool rather
    // than becoming an op: it is part of the prover's serial-residual
    // phase, not an accelerated kernel.
    let k = domain.vanishing_on_coset_inv() * domain.coset_gen_inv().pow(&[n as u64]);
    let (b, c): (&[F], &[F]) = (b, c);
    pool.for_each_chunk_mut(a, 4096, |_, offset, chunk| {
        for (j, x) in chunk.iter_mut().enumerate() {
            *x = (*x * b[offset + j] - c[offset + j]) * k;
        }
    });
    // (7) coset INTT: back to coefficients of h.
    inverse(a)?;
    coset(a, true)?;
    Ok(7)
}

/// [`quotient_poly`] on a thread pool with precomputed twiddles, fully in
/// place: [`quotient_schedule`] with every transform run as it is. Output
/// is bit-identical to the serial reference at any thread count.
///
/// Returns the number of NTT-shaped transforms performed.
///
/// # Panics
///
/// Panics if the slices or the table differ in length from the domain size.
pub fn quotient_poly_in<F: PrimeField>(
    domain: &Domain<F>,
    table: &TwiddleTable<F>,
    a: &mut [F],
    b: &mut [F],
    c: &mut [F],
    pool: &ThreadPool,
) -> u32 {
    let run = |_, _, transform: &mut dyn FnMut()| -> Result<(), Infallible> {
        transform();
        Ok(())
    };
    match quotient_schedule(domain, table, pool, a, b, c, run) {
        Ok(transforms) => transforms,
        Err(never) => match never {},
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use zkp_ff::Fr381;

    fn random_poly(deg: usize, seed: u64) -> DensePoly<Fr381> {
        let mut rng = StdRng::seed_from_u64(seed);
        DensePoly::from_coeffs((0..=deg).map(|_| Fr381::random(&mut rng)).collect())
    }

    #[test]
    fn ntt_mul_matches_naive() {
        let a = random_poly(13, 1);
        let b = random_poly(20, 2);
        let fast = a.mul_via_ntt(&b);
        let slow = a.mul_naive(&b);
        assert_eq!(fast.degree(), slow.degree());
        let d = slow.degree().expect("non-zero");
        assert_eq!(&fast.coeffs[..=d], &slow.coeffs[..=d]);
    }

    #[test]
    fn mul_with_zero() {
        let a = random_poly(5, 3);
        assert_eq!(a.mul_via_ntt(&DensePoly::zero()), DensePoly::zero());
        assert_eq!(DensePoly::<Fr381>::zero().degree(), None);
    }

    #[test]
    fn evaluate_horner() {
        // p(x) = 3 + 2x + x²; p(5) = 38
        let p = DensePoly::from_coeffs(vec![
            Fr381::from_u64(3),
            Fr381::from_u64(2),
            Fr381::from_u64(1),
        ]);
        assert_eq!(p.evaluate(&Fr381::from_u64(5)), Fr381::from_u64(38));
    }

    #[test]
    fn quotient_poly_divides_exactly() {
        // Build a, b with random evaluations and set c = a·b on the domain;
        // then h·Z must equal a·b - c as polynomials.
        let d = Domain::<Fr381>::new(16).expect("small domain");
        let mut rng = StdRng::seed_from_u64(4);
        let a_evals: Vec<Fr381> = (0..16).map(|_| Fr381::random(&mut rng)).collect();
        let b_evals: Vec<Fr381> = (0..16).map(|_| Fr381::random(&mut rng)).collect();
        let c_evals: Vec<Fr381> = a_evals.iter().zip(&b_evals).map(|(x, y)| *x * *y).collect();
        let (h, transforms) = quotient_poly(&d, &a_evals, &b_evals, &c_evals);
        assert_eq!(transforms, 7);

        // Verify (a·b - c)(x) = h(x)·Z(x) at off-domain points.
        let mut a = a_evals;
        let mut b = b_evals;
        let mut c = c_evals;
        intt(&d, &mut a);
        intt(&d, &mut b);
        intt(&d, &mut c);
        let pa = DensePoly::from_coeffs(a);
        let pb = DensePoly::from_coeffs(b);
        let pc = DensePoly::from_coeffs(c);
        let ph = DensePoly::from_coeffs(h);
        for probe in [7u64, 123, 99999] {
            let x = Fr381::from_u64(probe);
            let lhs = pa.evaluate(&x) * pb.evaluate(&x) - pc.evaluate(&x);
            let rhs = ph.evaluate(&x) * d.eval_vanishing(&x);
            assert_eq!(lhs, rhs);
        }
    }
}
