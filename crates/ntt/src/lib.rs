//! Number-Theoretic Transform kernels for the ZKProphet reproduction.
//!
//! NTT is "the Fast Fourier Transform for elements in a finite field"
//! (paper §II-B) and — after MSM's heavy optimization — the dominant
//! bottleneck of GPU proof generation (up to 91% of *Prover* runtime,
//! Fig. 5). This crate provides the CPU-side algorithms:
//!
//! * [`Domain`] — power-of-two evaluation domains with coset support,
//! * [`ntt`] / [`intt`] / [`coset_ntt`] / [`coset_intt`] — radix-2
//!   Cooley–Tukey transforms,
//! * [`ntt_staged`] — the radix-2^r staged schedule GPU kernels use
//!   (radix-256 in `bellperson`),
//! * [`DensePoly`] and [`quotient_poly`] — the polynomial layer the Groth16
//!   prover builds its `h` computation on (the 7-NTT pipeline of Fig. 3).
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

mod domain;
mod fast;
mod poly;
mod transform;

pub use domain::Domain;
pub use fast::{
    intt_tabled, ntt_parallel, ntt_parallel_on, ntt_tabled, ntt_with_table, TwiddleTable,
};
pub use poly::{quotient_poly, quotient_poly_in, DensePoly};
pub use transform::{
    bit_reverse_permute, coset_intt, coset_ntt, distribute_powers, distribute_powers_parallel,
    intt, ntt, ntt_radix2_in_place, ntt_staged, slow_dft, NttStats,
};
