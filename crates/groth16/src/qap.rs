//! R1CS → Quadratic Arithmetic Program reduction.
//!
//! The application's constraints become the polynomials `a⃗, b⃗, c⃗, Z` of
//! Fig. 3. Following the libsnark/arkworks construction, the constraint
//! rows are extended with one row per public variable (enforcing input
//! consistency) and the whole thing lives on a power-of-two NTT domain.

use zkp_ff::{batch_inverse, PrimeField};
use zkp_ntt::Domain;
use zkp_r1cs::ConstraintSystem;

/// The QAP view of a constraint system.
#[derive(Debug, Clone)]
pub struct Qap<F: PrimeField> {
    /// The NTT domain everything is evaluated over.
    pub domain: Domain<F>,
    /// Constraint rows (before padding).
    pub num_rows: usize,
}

impl<F: PrimeField> Qap<F> {
    /// Sizes the domain for a constraint system: constraints plus one row
    /// per public variable (including the constant one).
    ///
    /// # Panics
    ///
    /// Panics if the required domain exceeds the field's two-adicity.
    pub fn for_system(cs: &ConstraintSystem<F>) -> Self {
        let num_rows = cs.num_constraints() + cs.num_public() + 1;
        let domain = Domain::for_size(num_rows)
            .expect("circuit too large for the scalar field's two-adicity");
        Self { domain, num_rows }
    }

    /// Evaluates every variable polynomial `uᵢ, vᵢ, wᵢ` at the point `tau`,
    /// using the Lagrange basis over the domain.
    ///
    /// Returns `(u, v, w)` indexed by `z`-vector position. Used by the
    /// trusted setup.
    ///
    /// # Panics
    ///
    /// Panics if `tau` lies inside the evaluation domain (re-sample it).
    pub fn evaluate_at(&self, cs: &ConstraintSystem<F>, tau: &F) -> (Vec<F>, Vec<F>, Vec<F>) {
        let lagrange = self.lagrange_coeffs_at(tau);
        let nv = cs.num_variables();
        let mut u = vec![F::zero(); nv];
        let mut v = vec![F::zero(); nv];
        let mut w = vec![F::zero(); nv];
        for (row, constraint) in cs.constraints.iter().enumerate() {
            let l = lagrange[row];
            for (var, coeff) in &constraint.a.terms {
                u[cs.z_index(*var)] += *coeff * l;
            }
            for (var, coeff) in &constraint.b.terms {
                v[cs.z_index(*var)] += *coeff * l;
            }
            for (var, coeff) in &constraint.c.terms {
                w[cs.z_index(*var)] += *coeff * l;
            }
        }
        // Input-consistency rows: A = variable j, for j = 0..=num_public.
        for j in 0..=cs.num_public() {
            u[j] += lagrange[cs.num_constraints() + j];
        }
        (u, v, w)
    }

    /// All Lagrange basis polynomials evaluated at `tau`:
    /// `L_j(τ) = Z(τ)·ω^j / (n·(τ - ω^j))`.
    ///
    /// # Panics
    ///
    /// Panics if `tau` is a domain element.
    pub fn lagrange_coeffs_at(&self, tau: &F) -> Vec<F> {
        let n = self.domain.size();
        let z_tau = self.domain.eval_vanishing(tau);
        assert!(
            !z_tau.is_zero(),
            "evaluation point collides with the domain; re-sample"
        );
        let omegas = self.domain.elements();
        let mut denoms: Vec<F> = omegas.iter().map(|w| *tau - *w).collect();
        batch_inverse(&mut denoms);
        let n_inv = self.domain.size_inv();
        let scale = z_tau * n_inv;
        (0..n as usize)
            .map(|j| scale * omegas[j] * denoms[j])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkp_ff::{Field, Fr381};
    use zkp_r1cs::circuits::mimc;

    #[test]
    fn lagrange_basis_is_dual_to_domain() {
        let cs = mimc(Fr381::from_u64(3), 4);
        let qap = Qap::for_system(&cs);
        let tau = Fr381::from_u64(0xdead_beef);
        let lagrange = qap.lagrange_coeffs_at(&tau);
        // Σ L_j(τ) = 1 (partition of unity).
        let sum: Fr381 = lagrange.iter().copied().sum();
        assert!(sum.is_one());
        // Interpolating the identity function recovers τ:
        // Σ ω^j · L_j(τ) = τ.
        let omegas = qap.domain.elements();
        let interp: Fr381 = omegas.iter().zip(&lagrange).map(|(w, l)| *w * *l).sum();
        assert_eq!(interp, tau);
    }

    #[test]
    fn qap_identity_holds_at_tau() {
        // For a satisfied system, (Σ zᵢuᵢ)(Σ zᵢvᵢ) - Σ zᵢwᵢ ≡ 0 mod Z, so
        // evaluating the three sums at τ and subtracting must be divisible
        // by Z(τ) via the quotient — equivalently, the witness maps agree
        // with the variable polynomials.
        let cs = mimc(Fr381::from_u64(7), 3);
        assert!(cs.is_satisfied());
        let qap = Qap::for_system(&cs);
        let tau = Fr381::from_u64(987_654_321);
        let (u, v, w) = qap.evaluate_at(&cs, &tau);
        let z = cs.assignment.to_vec();
        let ua: Fr381 = u.iter().zip(&z).map(|(x, y)| *x * *y).sum();
        let vb: Fr381 = v.iter().zip(&z).map(|(x, y)| *x * *y).sum();
        let wc: Fr381 = w.iter().zip(&z).map(|(x, y)| *x * *y).sum();

        // Interpolate the witness maps and evaluate at τ — must match.
        let (mut a_evals, mut b_evals, mut c_evals) = (Vec::new(), Vec::new(), Vec::new());
        zkp_backend::witness_maps_into(
            &cs,
            qap.domain.size(),
            &mut a_evals,
            &mut b_evals,
            &mut c_evals,
        );
        let lagrange = qap.lagrange_coeffs_at(&tau);
        let a_tau: Fr381 = a_evals.iter().zip(&lagrange).map(|(x, l)| *x * *l).sum();
        let b_tau: Fr381 = b_evals.iter().zip(&lagrange).map(|(x, l)| *x * *l).sum();
        let c_tau: Fr381 = c_evals.iter().zip(&lagrange).map(|(x, l)| *x * *l).sum();
        assert_eq!(ua, a_tau);
        assert_eq!(vb, b_tau);
        assert_eq!(wc, c_tau);
    }

    #[test]
    fn domain_covers_rows() {
        let cs = mimc(Fr381::from_u64(1), 10);
        let qap = Qap::for_system(&cs);
        assert!(qap.domain.size() as usize >= qap.num_rows);
        assert_eq!(qap.num_rows, cs.num_constraints() + cs.num_public() + 1);
    }
}
