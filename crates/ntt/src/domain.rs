//! Power-of-two evaluation domains over a two-adic prime field.

use core::fmt;
use zkp_ff::PrimeField;

/// A multiplicative subgroup `⟨ω⟩` of size `n = 2^k`, with the constants an
/// NTT needs (ω, ω⁻¹, n⁻¹, and a coset generator for Groth16's
/// divide-by-vanishing step).
///
/// # Examples
///
/// ```
/// use zkp_ntt::Domain;
/// use zkp_ff::{Field, Fr381};
/// let d = Domain::<Fr381>::new(1 << 10).expect("2^10 <= 2^32");
/// assert_eq!(d.size(), 1 << 10);
/// assert!(d.omega().pow(&[1 << 10]).is_one());
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Domain<F: PrimeField> {
    size: u64,
    log_size: u32,
    omega: F,
    omega_inv: F,
    size_inv: F,
    coset_gen: F,
    coset_gen_inv: F,
    vanishing_on_coset_inv: F,
}

impl<F: PrimeField> Domain<F> {
    /// Creates a domain of the given power-of-two size.
    ///
    /// Returns `None` if `size` is not a power of two or exceeds the field's
    /// two-adicity.
    pub fn new(size: u64) -> Option<Self> {
        if size == 0 || !size.is_power_of_two() {
            return None;
        }
        let omega = F::root_of_unity(size)?;
        let coset_gen = F::multiplicative_generator();
        let vanishing_on_coset = coset_gen.pow(&[size]) - F::one();
        Some(Self {
            size,
            log_size: size.trailing_zeros(),
            omega,
            omega_inv: omega.inverse().expect("root of unity is a unit"),
            size_inv: F::from_u64(size).inverse().expect("n < p"),
            coset_gen,
            coset_gen_inv: coset_gen.inverse().expect("generator is a unit"),
            vanishing_on_coset_inv: vanishing_on_coset
                .inverse()
                .expect("the coset avoids the domain"),
        })
    }

    /// Smallest domain that fits `n` points.
    pub fn for_size(n: usize) -> Option<Self> {
        Self::new((n.max(1) as u64).next_power_of_two())
    }

    /// Number of elements.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// `log2` of the size.
    pub fn log_size(&self) -> u32 {
        self.log_size
    }

    /// The primitive `n`-th root of unity generating the domain.
    pub fn omega(&self) -> F {
        self.omega
    }

    /// `ω⁻¹`.
    pub fn omega_inv(&self) -> F {
        self.omega_inv
    }

    /// `n⁻¹` (for inverse-NTT scaling).
    pub fn size_inv(&self) -> F {
        self.size_inv
    }

    /// The coset shift `g` (the field's multiplicative generator).
    pub fn coset_gen(&self) -> F {
        self.coset_gen
    }

    /// `g⁻¹`.
    pub fn coset_gen_inv(&self) -> F {
        self.coset_gen_inv
    }

    /// The `i`-th domain element `ωⁱ`.
    pub fn element(&self, i: u64) -> F {
        self.omega.pow(&[i])
    }

    /// All domain elements in order (O(n) multiplications).
    pub fn elements(&self) -> Vec<F> {
        let mut out = Vec::with_capacity(self.size as usize);
        let mut acc = F::one();
        for _ in 0..self.size {
            out.push(acc);
            acc *= self.omega;
        }
        out
    }

    /// Evaluates the vanishing polynomial `Z(X) = Xⁿ - 1` at a point.
    pub fn eval_vanishing(&self, x: &F) -> F {
        x.pow(&[self.size]) - F::one()
    }

    /// The (constant) value of `Z` on the coset `g·⟨ω⟩`: `gⁿ - 1`.
    ///
    /// `Z` is constant on every coset of the domain, which is what makes the
    /// Groth16 `h = (ab - c)/Z` division a pointwise scale (§II-B).
    pub fn vanishing_on_coset(&self) -> F {
        self.coset_gen.pow(&[self.size]) - F::one()
    }

    /// `1 / (gⁿ - 1)`, computed once with the domain: the quotient divides
    /// by `Z` on every proof.
    pub fn vanishing_on_coset_inv(&self) -> F {
        self.vanishing_on_coset_inv
    }
}

impl<F: PrimeField> fmt::Debug for Domain<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Domain({}, 2^{})", F::NAME, self.log_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkp_ff::{Field, Fr377, Fr381};

    #[test]
    fn rejects_bad_sizes() {
        assert!(Domain::<Fr381>::new(0).is_none());
        assert!(Domain::<Fr381>::new(3).is_none());
        assert!(Domain::<Fr381>::new(1 << 33).is_none()); // beyond two-adicity 32
        assert!(Domain::<Fr377>::new(1 << 33).is_some()); // 377 has two-adicity 47
    }

    #[test]
    fn for_size_rounds_up() {
        assert_eq!(Domain::<Fr381>::for_size(1000).expect("fits").size(), 1024);
        assert_eq!(Domain::<Fr381>::for_size(1024).expect("fits").size(), 1024);
        assert_eq!(Domain::<Fr381>::for_size(0).expect("fits").size(), 1);
    }

    #[test]
    fn omega_has_exact_order() {
        let d = Domain::<Fr381>::new(64).expect("small domain");
        assert!(d.omega().pow(&[64]).is_one());
        assert!(!d.omega().pow(&[32]).is_one());
        assert_eq!(d.omega() * d.omega_inv(), Fr381::one());
    }

    #[test]
    fn elements_enumerate_subgroup() {
        let d = Domain::<Fr381>::new(8).expect("small domain");
        let els = d.elements();
        assert_eq!(els.len(), 8);
        assert_eq!(els[0], Fr381::one());
        for (i, e) in els.iter().enumerate() {
            assert_eq!(*e, d.element(i as u64));
            assert!(d.eval_vanishing(e).is_zero());
        }
    }

    #[test]
    fn vanishing_nonzero_off_domain() {
        let d = Domain::<Fr381>::new(8).expect("small domain");
        assert!(!d.vanishing_on_coset().is_zero());
        assert_eq!(
            d.vanishing_on_coset() * d.vanishing_on_coset_inv(),
            Fr381::one()
        );
        assert!(!d.eval_vanishing(&Fr381::from_u64(12345)).is_zero());
    }
}
