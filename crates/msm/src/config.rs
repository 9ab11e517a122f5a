//! MSM configuration knobs — the algorithmic choices that distinguish the
//! GPU libraries the paper compares (§IV-A).

/// Configuration of a Pippenger MSM run.
///
/// Every run accumulates into the one bucket store, batch-affine buckets
/// with XYZZ ones for hot buckets (`affine.rs`), so the knobs are the
/// digit encoding, the window and the endomorphism split.
///
/// # Examples
///
/// ```
/// use zkp_msm::MsmConfig;
/// let ymc_style = MsmConfig {
///     window_bits: Some(16),
///     signed_digits: true,
///     endomorphism: false,
/// };
/// assert!(ymc_style.signed_digits);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MsmConfig {
    /// Window size `s` in bits, `1..=20` (anything else panics when the
    /// run is laid out); `None` picks from `3..=16` by the crate's cost
    /// model for the shape that runs — a one-shot's `w` separate windows,
    /// or a plan's folded table (see [`msm_shape`](crate::msm_shape)).
    pub window_bits: Option<u32>,
    /// Signed-digit recoding, halving the bucket count (the endomorphism-
    /// style trick `ymc` uses, §IV-A).
    pub signed_digits: bool,
    /// Endomorphism split: write every scalar as `D` short subscalars and
    /// give every base `D` rows through the curve's cheap map — GLV's `φ`
    /// on BLS12 G1 (`D = 2`), `ψ` on G2 (`D = 4`); silently ignored on a
    /// curve whose [`SwCurve::endomorphism`] is `None`.
    ///
    /// [`SwCurve::endomorphism`]: zkp_curves::SwCurve::endomorphism
    pub endomorphism: bool,
}

impl MsmConfig {
    /// The configuration `sppark` models: unsigned digits — the default
    /// (its bucket sorting is a GPU load-balancing detail with no CPU
    /// counterpart).
    pub fn sppark_style() -> Self {
        Self::default()
    }

    /// The configuration `ymc`/`yrrid` model: signed digits.
    pub fn ymc_style() -> Self {
        Self {
            signed_digits: true,
            ..Self::default()
        }
    }

    /// The configuration `bellperson` models on the CPU: unsigned digits
    /// through the one bucket accumulator. Its Jacobian buckets live only
    /// in `gpu-kernels`' library model.
    pub fn bellperson_style() -> Self {
        Self::default()
    }

    /// Endomorphism split + signed digits — the fastest CPU configuration
    /// measured on BLS12 G1 and G2 (§IV-D).
    pub fn glv_style() -> Self {
        Self {
            window_bits: None,
            signed_digits: true,
            endomorphism: true,
        }
    }
}
