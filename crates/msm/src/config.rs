//! MSM configuration knobs — the algorithmic choices that distinguish the
//! GPU libraries the paper compares (§IV-A).

/// Which point representation buckets are accumulated in (Table V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BucketRepr {
    /// Jacobian projective buckets (`bellperson`, `cuZK`).
    Jacobian,
    /// XYZZ buckets — the cheaper mixed addition `sppark`/`ymc` use.
    #[default]
    Xyzz,
}

/// Configuration of a Pippenger MSM run.
///
/// # Examples
///
/// ```
/// use zkp_msm::{BucketRepr, MsmConfig};
/// let ymc_style = MsmConfig {
///     window_bits: Some(16),
///     signed_digits: true,
///     bucket_repr: BucketRepr::Xyzz,
///     endomorphism: false,
/// };
/// assert!(ymc_style.signed_digits);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MsmConfig {
    /// Window size `s` in bits, `1..=20` (anything else panics when the
    /// run is laid out); `None` picks from `3..=16` by the crate's cost
    /// model for the shape that runs — a one-shot's `w` separate windows,
    /// or a plan's folded table (see [`msm_shape`](crate::msm_shape)).
    pub window_bits: Option<u32>,
    /// Signed-digit recoding, halving the bucket count (the endomorphism-
    /// style trick `ymc` uses, §IV-A).
    pub signed_digits: bool,
    /// Bucket point representation.
    pub bucket_repr: BucketRepr,
    /// Endomorphism split: write every scalar as `D` short subscalars and
    /// give every base `D` rows through the curve's cheap map — GLV's `φ`
    /// on BLS12 G1 (`D = 2`), `ψ` on G2 (`D = 4`); silently ignored on a
    /// curve whose [`SwCurve::endomorphism`] is `None`.
    ///
    /// [`SwCurve::endomorphism`]: zkp_curves::SwCurve::endomorphism
    pub endomorphism: bool,
}

impl Default for MsmConfig {
    fn default() -> Self {
        Self {
            window_bits: None,
            signed_digits: false,
            bucket_repr: BucketRepr::Xyzz,
            endomorphism: false,
        }
    }
}

impl MsmConfig {
    /// Short human-readable algorithm tag (`"glv+signed+xyzz"`) for
    /// traces and benchmark metadata.
    pub fn describe(&self) -> String {
        format!(
            "{}{}{}",
            if self.endomorphism { "glv+" } else { "" },
            if self.signed_digits {
                "signed+"
            } else {
                "unsigned+"
            },
            match self.bucket_repr {
                BucketRepr::Jacobian => "jacobian",
                BucketRepr::Xyzz => "xyzz",
            },
        )
    }

    /// The configuration `sppark` models: XYZZ buckets, unsigned — the
    /// default (its bucket sorting is a GPU load-balancing detail with no
    /// CPU counterpart).
    pub fn sppark_style() -> Self {
        Self::default()
    }

    /// The configuration `ymc`/`yrrid` model: XYZZ + signed digits.
    pub fn ymc_style() -> Self {
        Self {
            window_bits: None,
            signed_digits: true,
            bucket_repr: BucketRepr::Xyzz,
            endomorphism: false,
        }
    }

    /// The configuration `bellperson` models: Jacobian buckets, unsigned.
    pub fn bellperson_style() -> Self {
        Self {
            window_bits: None,
            signed_digits: false,
            bucket_repr: BucketRepr::Jacobian,
            endomorphism: false,
        }
    }

    /// Endomorphism split + signed-digit XYZZ buckets — the fastest CPU
    /// configuration measured on BLS12 G1 and G2 (§IV-D).
    pub fn glv_style() -> Self {
        Self {
            window_bits: None,
            signed_digits: true,
            bucket_repr: BucketRepr::Xyzz,
            endomorphism: true,
        }
    }
}
