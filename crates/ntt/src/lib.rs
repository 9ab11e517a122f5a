//! Number-Theoretic Transform kernels for the ZKProphet reproduction.
//!
//! NTT is "the Fast Fourier Transform for elements in a finite field"
//! (paper §II-B) and — after MSM's heavy optimization — the dominant
//! bottleneck of GPU proof generation (up to 91% of *Prover* runtime,
//! Fig. 5). This crate provides the CPU-side algorithms:
//!
//! * [`Domain`] — power-of-two evaluation domains with coset support,
//! * [`DensePoly`] — dense polynomials with NTT multiplication,
//!
//! and two transform families that share no butterfly or scaling code:
//!
//! * **Reference** (`transform.rs`, and the serial [`quotient_poly`]) —
//!   the textbook on-the-fly radix-2 network [`ntt_radix2_in_place`]
//!   (generic over `Field`, so it also runs on op-counted elements),
//!   [`ntt`] / [`intt`] / [`coset_ntt`] / [`coset_intt`] /
//!   [`distribute_powers`], and the quadratic [`slow_dft`]. The prover
//!   never calls these: they are what the tests and the benchmark's output
//!   check hold the production family against, so they are not wrappers
//!   over it.
//! * **Production** (`fast.rs` + `poly.rs`) — one per-domain
//!   [`TwiddleTable`] holding the stage-ordered twiddles (`n − 1` entries,
//!   each stage's twiddles contiguous, no inverse copy: the inverse
//!   transform is the forward network on the index-negated input) and the
//!   coset powers `n⁻¹·gⁱ` (`n + 1` entries, 1 MiB at 2^15 over Fr), a
//!   multiplication-free head pass over stages 1–2 and one butterfly kernel
//!   under the pooled [`ntt_parallel_on`], one tabled coset scaling
//!   [`coset_scale_on`] (one multiplication per element, the `n⁻¹` folded
//!   in), and one pooled 7-transform [`quotient_schedule`] (Fig. 3), the
//!   only caller of those two kernels in the prover. It hands each of its 11 steps, as a
//!   [`QuotientStep`], to one hook: [`quotient_poly_in`] runs them as they
//!   are and `zkp_backend::quotient_pipeline_in` dispatches each as a
//!   backend op — what the benchmark times is what the prover runs.
//!
//! # Examples
//!
//! ```
//! use zkp_ntt::{ntt, intt, Domain};
//! use zkp_ff::{Field, Fr381};
//!
//! let domain = Domain::<Fr381>::new(8).expect("size within two-adicity");
//! let coeffs: Vec<Fr381> = (1..=8).map(Fr381::from_u64).collect();
//! let mut evals = coeffs.clone();
//! ntt(&domain, &mut evals);      // coefficients -> evaluations
//! intt(&domain, &mut evals);     // evaluations -> coefficients
//! assert_eq!(evals, coeffs);
//! ```

#![forbid(unsafe_code)]

mod domain;
mod fast;
mod poly;
mod transform;

pub use domain::Domain;
pub use fast::{coset_scale_on, distribute_powers_parallel, ntt_parallel_on, TwiddleTable};
pub use poly::{quotient_poly, quotient_poly_in, quotient_schedule, DensePoly, QuotientStep};
pub use transform::{
    bit_reverse_permute, coset_intt, coset_ntt, distribute_powers, intt, ntt, ntt_radix2_in_place,
    slow_dft,
};
