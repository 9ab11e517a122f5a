//! Multi-Scalar Multiplication kernels for the ZKProphet reproduction.
//!
//! MSM computes `Q = Σ kᵢ·Pᵢ` over millions of elliptic-curve points — the
//! operation GPU acceleration efforts (ZPrize, `sppark`, `ymc`) have pushed
//! to ~800× CPU speedups (paper Table II). This crate implements:
//!
//! * [`msm`] / [`msm_with_config`] / [`msm_parallel_with_config_in`] —
//!   Pippenger's bucket algorithm (Fig. 4a) with the algorithmic options
//!   that differentiate the studied libraries ([`MsmConfig`]):
//!   signed-digit recoding, window sizing, and the endomorphism split on
//!   curves that expose one (`D` short subscalars per scalar over
//!   `[P…, map(P)…, …]`: GLV's `φ`, `D = 2`, on BLS12 G1; `ψ`, `D = 4`, on
//!   G2). Bases at infinity get no table rows. [`msm_parallel`] is the same
//!   on a transient pool.
//! * [`MsmPlan`] — a per-base-set plan caching the endomorphism images and
//!   the Fig. 12 window precompute for bases reused across proofs (the
//!   Groth16 proving key); [`PrecomputedPoints`] is the same table with
//!   the window count given explicitly (§IV-D1a).
//! * [`FixedBase`] — a per-window comb for many multiples of one base.
//! * [`msm_serial`] — a double-and-add reference for cross-checking.
//!
//! There is one front door: every MSM is a *plan run* — a layout (how
//! digits fold onto a table of shifted point copies), one scalar→digit
//! recoder, one bucket engine over batch-affine buckets (the Montgomery
//! trick of §IV-D1b, with XYZZ buckets for hot ones). A one-shot MSM is
//! the single-copy layout over the caller's finite points, so it equals a
//! zero-budget [`MsmPlan`] bit for bit; see `docs/msm.md`.
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

#![forbid(unsafe_code)]

mod affine;
mod config;
mod fixed_base;
mod pippenger;
mod plan;

pub use affine::AFFINE_BATCH;
pub use config::MsmConfig;
pub use fixed_base::FixedBase;
pub use pippenger::{
    msm, msm_parallel, msm_parallel_with_config, msm_parallel_with_config_in, msm_serial,
    msm_shape, msm_with_config, num_windows, MsmOutput, MsmScratch, MsmShape, MsmStats,
};
pub use plan::{precompute_cost, MsmPlan, PrecomputeCost, PrecomputedPoints};
