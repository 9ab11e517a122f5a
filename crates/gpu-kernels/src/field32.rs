//! 32-bit-limb views of the workspace's prime fields.
//!
//! "Since the large integers are longer than the word size of modern GPUs,
//! they are represented using word-sized limbs: a 377-bit integer can be
//! represented using 12 32-bit limbs" (paper §II). The host fields use
//! 64-bit limbs; this module derives the GPU-side constants (32-bit limb
//! modulus, `-p⁻¹ mod 2³²`) and converts values between the two shapes.

use zkp_ff::{FpConfig, Fq377Config, Fq381Config, Fr377Config, Fr381Config};

/// GPU-side constants of a prime field over 32-bit limbs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field32 {
    /// Display name of the field.
    pub name: &'static str,
    /// The modulus, little-endian 32-bit limbs.
    pub modulus: Vec<u32>,
    /// `⌈p/2⌉ = (p+1)/2`, used by the `FF_dbl` pre-shift comparison.
    pub half_ceil: Vec<u32>,
    /// `-p⁻¹ mod 2³²` — the per-limb Montgomery factor.
    pub inv32: u32,
}

impl Field32 {
    /// Derives the GPU view from a host field configuration.
    pub fn of<C: FpConfig<N>, const N: usize>() -> Self {
        let modulus = split_limbs(C::MODULUS.limbs());
        // (p+1)/2: p is odd, so add one and shift right across limbs.
        let (plus_one, carry) = C::MODULUS.adc(&zkp_bigint::Uint::ONE);
        debug_assert_eq!(carry, 0);
        let half_ceil = split_limbs(plus_one.shr1().limbs());
        // p⁻¹ mod 2⁶⁴ reduces to p⁻¹ mod 2³².
        let inv32 = (C::INV & 0xffff_ffff) as u32;
        Self {
            name: C::NAME,
            modulus,
            half_ceil,
            inv32,
        }
    }

    /// The four fields every kernel is generated and validated over: the
    /// scalar and base fields of BLS12-381 and BLS12-377.
    pub fn supported() -> [Self; 4] {
        [
            Self::of::<Fr381Config, 4>(),
            Self::of::<Fq381Config, 6>(),
            Self::of::<Fr377Config, 4>(),
            Self::of::<Fq377Config, 6>(),
        ]
    }

    /// Number of 32-bit limbs (8 for the ~255-bit scalar fields, 12 for
    /// the ~381-bit base fields).
    pub fn num_limbs(&self) -> usize {
        self.modulus.len()
    }
}

/// Splits 64-bit limbs into twice as many 32-bit limbs (little-endian).
pub fn split_limbs(limbs64: &[u64]) -> Vec<u32> {
    limbs64
        .iter()
        .flat_map(|l| [(*l & 0xffff_ffff) as u32, (*l >> 32) as u32])
        .collect()
}

/// Joins 32-bit limbs back into 64-bit limbs.
///
/// # Panics
///
/// Panics if the length is odd.
pub fn join_limbs(limbs32: &[u32]) -> Vec<u64> {
    assert!(limbs32.len().is_multiple_of(2), "odd 32-bit limb count");
    limbs32
        .chunks(2)
        .map(|c| u64::from(c[0]) | (u64::from(c[1]) << 32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkp_ff::{Fq381Config, Fr381Config};

    #[test]
    fn limb_counts_match_paper() {
        // §II: 377-bit -> 12 limbs; the 255-bit scalar field -> 8 limbs.
        let fq = Field32::of::<Fq381Config, 6>();
        assert_eq!(fq.num_limbs(), 12);
        let fr = Field32::of::<Fr381Config, 4>();
        assert_eq!(fr.num_limbs(), 8);
    }

    #[test]
    fn split_join_round_trip() {
        let v = [0x0123_4567_89ab_cdefu64, 0xfedc_ba98_7654_3210];
        assert_eq!(join_limbs(&split_limbs(&v)), v);
    }

    #[test]
    fn inv32_is_montgomery_inverse() {
        let f = Field32::of::<Fr381Config, 4>();
        // inv32 · p ≡ -1 mod 2^32.
        assert_eq!(f.inv32.wrapping_mul(f.modulus[0]), u32::MAX);
    }
}
