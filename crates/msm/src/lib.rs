//! Multi-Scalar Multiplication kernels for the ZKProphet reproduction.
//!
//! MSM computes `Q = Σ kᵢ·Pᵢ` over millions of elliptic-curve points — the
//! operation GPU acceleration efforts (ZPrize, `sppark`, `ymc`) have pushed
//! to ~800× CPU speedups (paper Table II). This crate implements:
//!
//! * [`msm`] / [`msm_with_config`] / [`msm_parallel_with_config_in`] —
//!   Pippenger's bucket algorithm (Fig. 4a) with the algorithmic options
//!   that differentiate the studied libraries ([`MsmConfig`]): bucket
//!   representation (Jacobian, XYZZ, batch-affine), signed-digit recoding,
//!   window sizing, and the GLV split (`k = k1 + λ·k2` with half-width
//!   signed subscalars over `[P…, φ(P)…]`) on curves that expose an
//!   endomorphism. [`msm_parallel`] is the same on a transient pool.
//! * [`MsmPlan`] — a per-base-set plan caching the GLV expansion and the
//!   Fig. 12 window precompute for bases reused across proofs (the
//!   Groth16 proving key); [`PrecomputedPoints`] is the same table with
//!   the window count given explicitly (§IV-D1a).
//! * [`FixedBase`] — a per-window comb for many multiples of one base.
//! * [`msm_serial`] — a double-and-add reference for cross-checking.
//!
//! There is one front door: every MSM is a *plan run* — a layout (how
//! digits fold onto a table of shifted point copies), one scalar→digit
//! recoder, one bucket engine. A one-shot MSM is the single-copy layout
//! over the caller's points, so it equals a zero-budget [`MsmPlan`] bit for
//! bit; see `docs/msm.md`.
//!
//! # Examples
//!
//! ```
//! use zkp_msm::{msm, msm_serial};
//! use zkp_curves::{bls12_381::G1, Jacobian, SwCurve};
//! use zkp_ff::{Field, Fr381};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let g = G1::generator();
//! let points = vec![g; 32];
//! let scalars: Vec<Fr381> = (0..32).map(|_| Fr381::random(&mut rng)).collect();
//! assert_eq!(msm(&points, &scalars), msm_serial(&points, &scalars));
//! ```

mod config;
mod fixed_base;
mod pippenger;
mod plan;

pub use config::{BucketRepr, MsmConfig};
pub use fixed_base::FixedBase;
pub use pippenger::{
    msm, msm_parallel, msm_parallel_with_config, msm_parallel_with_config_in, msm_serial,
    msm_shape, msm_with_config, num_windows, MsmOutput, MsmScratch, MsmShape, MsmStats,
};
pub use plan::{precompute_cost, MsmPlan, PrecomputeCost, PrecomputedPoints};

/// Batch-affine bucket accumulation (§IV-D1b) observed through the front
/// door: `BucketRepr::BatchAffine` and the `MsmStats` it reports.
#[cfg(test)]
mod batch_affine {
    mod tests {
        use crate::{msm, msm_serial, msm_with_config, BucketRepr, MsmConfig, MsmOutput};
        use rand::{rngs::StdRng, SeedableRng};
        use zkp_curves::{batch_to_affine, bls12_381::G1, Affine, Jacobian, SwCurve};
        use zkp_ff::{Field, Fr381};

        fn random_inputs(n: usize, seed: u64) -> (Vec<Affine<G1>>, Vec<Fr381>) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = Jacobian::from(G1::generator());
            let points = batch_to_affine(
                &(0..n)
                    .map(|_| g.mul_scalar(&Fr381::random(&mut rng)))
                    .collect::<Vec<_>>(),
            );
            let scalars = (0..n).map(|_| Fr381::random(&mut rng)).collect();
            (points, scalars)
        }

        fn batch_affine(
            points: &[Affine<G1>],
            scalars: &[Fr381],
            window_bits: Option<u32>,
        ) -> MsmOutput<G1> {
            let config = MsmConfig {
                window_bits,
                bucket_repr: BucketRepr::BatchAffine,
                ..MsmConfig::default()
            };
            msm_with_config(points, scalars, &config)
        }

        #[test]
        fn matches_reference_msm() {
            let (points, scalars) = random_inputs(120, 1);
            let out = batch_affine(&points, &scalars, None);
            assert_eq!(out.point, msm(&points, &scalars));
            assert!(out.stats.batch_inversions >= 1);
            assert!(out.stats.accumulation_padds > 0);
        }

        #[test]
        fn collisions_force_extra_rounds() {
            // All points share one scalar -> every update of a window
            // targets the same bucket, so each needs a round (and a batched
            // inversion) of its own: n rounds per non-empty window.
            let (points, _) = random_inputs(16, 2);
            let scalars = vec![Fr381::from_u64(0b101_0000_0001); 16];
            let out = batch_affine(&points, &scalars, Some(4));
            assert_eq!(out.stats.accumulation_padds, 2 * 16);
            assert_eq!(out.stats.batch_inversions, out.stats.accumulation_padds);
            assert_eq!(out.point, msm_serial(&points, &scalars));
        }

        #[test]
        fn doubling_and_cancellation_paths() {
            let (points, _) = random_inputs(3, 3);
            let p = points[0];
            // P + P (forces the batched affine-doubling path) and P + (−P)
            // (forces the bucket-emptying path), all in bucket 1.
            let pts = vec![p, p, p, p.neg()];
            let scalars = vec![Fr381::from_u64(1); 4];
            let out = batch_affine(&pts, &scalars, Some(3));
            // P + P + P - P = 2P.
            assert_eq!(out.point, Jacobian::from(p).double());
        }

        #[test]
        fn empty_and_zero_inputs() {
            assert!(batch_affine(&[], &[], None).point.is_identity());
            let (points, _) = random_inputs(5, 4);
            let zeros = vec![Fr381::zero(); 5];
            assert!(batch_affine(&points, &zeros, None).point.is_identity());
            let ids = vec![Affine::<G1>::identity(); 5];
            let ones = vec![Fr381::from_u64(1); 5];
            assert!(batch_affine(&ids, &ones, None).point.is_identity());
        }

        #[test]
        fn inversion_count_is_rounds_not_additions() {
            // The whole point of §IV-D1b: FF_inv count is per *round*, not
            // per addition.
            let (points, scalars) = random_inputs(200, 5);
            let out = batch_affine(&points, &scalars, Some(8));
            assert!(out.stats.accumulation_padds > 10 * out.stats.batch_inversions);
        }
    }
}
