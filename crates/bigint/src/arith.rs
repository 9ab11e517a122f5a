//! Low-level limb arithmetic primitives shared by [`Uint`](crate::Uint) and
//! the Montgomery field implementations built on top of this crate.
//!
//! All primitives operate on 64-bit limbs — the 64-bit-native pipeline the
//! paper contrasts with the GPU's 32-bit one. The multiply-accumulates go
//! through `u128`, which LLVM lowers to `MUL` + `ADD`/`ADC`; the carry and
//! borrow steps do not (see [`adc`], [`sbb`] and the note on the one
//! target-specific module at the end of this file).

/// Adds `a + b + carry` for a carry bit (`0` or `1`), returning the low limb
/// and the carry out.
///
/// # Examples
///
/// ```
/// use zkp_bigint::arith::adc;
/// assert_eq!(adc(u64::MAX, 1, 0), (0, 1));
/// ```
#[inline(always)]
pub fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    debug_assert!(carry <= 1, "adc takes a carry bit");
    carry_chain::adc(a, b, carry)
}

/// Subtracts `a - b - borrow` for a borrow bit (`0` or `1`), returning the
/// low limb and the borrow out (`1` if the subtraction wrapped, `0`
/// otherwise).
///
/// # Examples
///
/// ```
/// use zkp_bigint::arith::sbb;
/// assert_eq!(sbb(0, 1, 0), (u64::MAX, 1));
/// ```
#[inline(always)]
pub fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    debug_assert!(borrow <= 1, "sbb takes a borrow bit");
    carry_chain::sbb(a, b, borrow)
}

/// [`adc`] and [`sbb`] spelled in portable Rust: what constant evaluation
/// uses (the field moduli's Montgomery constants) and what every target but
/// x86-64 runs.
pub mod portable {
    /// [`adc`](super::adc) as a `const fn`.
    #[inline(always)]
    pub const fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
        let (s1, c1) = a.overflowing_add(b);
        let (s2, c2) = s1.overflowing_add(carry);
        (s2, (c1 | c2) as u64)
    }

    /// [`sbb`](super::sbb) as a `const fn`.
    #[inline(always)]
    pub const fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
        let (d1, b1) = a.overflowing_sub(b);
        let (d2, b2) = d1.overflowing_sub(borrow);
        (d2, (b1 | b2) as u64)
    }
}

/// The only target-specific code in the workspace, settled from `--emit asm`
/// of `Fq381` add/sub/neg/double on rustc 1.95 (ROADMAP item 1 records the
/// measurements). A loop of [`portable::adc`]/[`portable::sbb`] compiles to one
/// `ADD` + N−1 `ADC` (`SUB` + N−1 `SBB`) between two run-time operands, but
/// not against a compile-time constant such as a field modulus: there LLVM
/// rewrites `usub.with.overflow(x, C)` into an add of `-C` and a compare
/// before the backend can match the chain, so "subtract p if ≥ p" loses its
/// last limb to a `setb/cmp/jb` pair and "add p back" becomes a serial
/// `cmp/seta/add/setb/or` ladder (a `u128` spelling is ≈ 6 ALU instructions
/// per limb everywhere). That costs 2× on a dependent `Fq381` add or double
/// and 11% on a G2 mixed addition. `_addcarry_u64`/`_subborrow_u64` are
/// baseline x86-64 (no target feature, no run-time detection), safe to call,
/// and lower to `ADC`/`SBB` at instruction selection whatever the operands.
#[cfg(target_arch = "x86_64")]
mod carry_chain {
    use core::arch::x86_64::{_addcarry_u64, _subborrow_u64};

    #[inline(always)]
    pub fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
        let mut sum = 0;
        let carry = _addcarry_u64(carry as u8, a, b, &mut sum);
        (sum, carry as u64)
    }

    #[inline(always)]
    pub fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
        let mut diff = 0;
        let borrow = _subborrow_u64(borrow as u8, a, b, &mut diff);
        (diff, borrow as u64)
    }
}
#[cfg(not(target_arch = "x86_64"))]
use portable as carry_chain;

/// Computes `a + b * c + carry`, returning the low limb and the high limb.
///
/// This is the multiply-accumulate step of schoolbook and Montgomery
/// multiplication (the 64-bit analogue of the GPU `IMAD` instruction the
/// paper identifies as dominating `FF_mul`).
#[inline(always)]
pub const fn mac(a: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + (b as u128) * (c as u128) + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// Computes `b * c + carry`, returning the low limb and the high limb.
#[inline(always)]
pub const fn mul_carry(b: u64, c: u64, carry: u64) -> (u64, u64) {
    let t = (b as u128) * (c as u128) + carry as u128;
    (t as u64, (t >> 64) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adc_chains_carries() {
        let (lo, c) = adc(u64::MAX, u64::MAX, 1);
        assert_eq!(lo, u64::MAX);
        assert_eq!(c, 1);
        assert_eq!(adc(1, 2, 0), (3, 0));
    }

    #[test]
    fn sbb_borrows() {
        assert_eq!(sbb(5, 3, 0), (2, 0));
        assert_eq!(sbb(3, 5, 0), (u64::MAX - 1, 1));
        // The incoming borrow alone wraps, and wraps on top of `a < b`.
        assert_eq!(sbb(0, 0, 1), (u64::MAX, 1));
        assert_eq!(sbb(0, u64::MAX, 1), (0, 1));
        assert_eq!(sbb(u64::MAX, u64::MAX, 1), (u64::MAX, 1));
        assert_eq!(sbb(1, 0, 1), (0, 0));
    }

    #[test]
    fn target_spelling_matches_portable() {
        let words = [0, 1, 2, u64::MAX / 2, u64::MAX - 1, u64::MAX];
        for a in words {
            for b in words {
                for bit in [0, 1] {
                    assert_eq!(adc(a, b, bit), portable::adc(a, b, bit));
                    assert_eq!(sbb(a, b, bit), portable::sbb(a, b, bit));
                    let wide = a as u128 + b as u128 + bit as u128;
                    assert_eq!(adc(a, b, bit), (wide as u64, (wide >> 64) as u64));
                }
            }
        }
    }

    #[test]
    fn mac_full_range() {
        // (2^64-1)^2 + (2^64-1) + (2^64-1) fits exactly in 128 bits.
        let m = u64::MAX;
        let (lo, hi) = mac(m, m, m, m);
        let expect = m as u128 + (m as u128) * (m as u128) + m as u128;
        assert_eq!(lo, expect as u64);
        assert_eq!(hi, (expect >> 64) as u64);
    }

    #[test]
    fn mul_carry_matches_mac_with_zero_addend() {
        assert_eq!(mul_carry(7, 9, 4), mac(0, 7, 9, 4));
    }
}
