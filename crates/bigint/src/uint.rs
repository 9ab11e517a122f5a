//! Fixed-width little-endian multi-precision unsigned integers.
//!
//! [`Uint<N>`] is the raw representation used by the finite-field crates:
//! `Uint<4>` holds the ~253/255-bit scalar fields and `Uint<6>` the
//! ~377/381-bit base fields of the BLS12 curves studied in the paper.

use crate::arith::{adc, mac, sbb};
use core::cmp::Ordering;
use core::fmt;

/// A fixed-width unsigned integer with `N` 64-bit limbs, least-significant
/// limb first.
///
/// # Examples
///
/// ```
/// use zkp_bigint::Uint;
/// let a = Uint::<4>::from_u64(7);
/// let b = Uint::<4>::from_u64(8);
/// assert!(a < b);
/// assert_eq!(a.checked_add(&b), Some(Uint::from_u64(15)));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Uint<const N: usize>(pub [u64; N]);

impl<const N: usize> Default for Uint<N> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const N: usize> Uint<N> {
    /// The value zero.
    pub const ZERO: Self = Self([0; N]);

    /// The value one.
    pub const ONE: Self = {
        let mut limbs = [0; N];
        limbs[0] = 1;
        Self(limbs)
    };

    /// The largest representable value (all bits set).
    pub const MAX: Self = Self([u64::MAX; N]);

    /// Total number of bits in the representation.
    pub const BITS: u32 = 64 * N as u32;

    /// Creates a `Uint` from a single `u64`.
    pub const fn from_u64(v: u64) -> Self {
        let mut limbs = [0; N];
        limbs[0] = v;
        Self(limbs)
    }

    /// Creates a `Uint` from a `u128`.
    ///
    /// # Panics
    ///
    /// Panics if `N < 2` and the value does not fit.
    pub fn from_u128(v: u128) -> Self {
        let mut limbs = [0; N];
        limbs[0] = v as u64;
        let hi = (v >> 64) as u64;
        if hi != 0 {
            assert!(N >= 2, "u128 value does not fit in Uint<{N}>");
            limbs[1] = hi;
        }
        Self(limbs)
    }

    /// Parses a big-endian hexadecimal string (optionally `0x`-prefixed).
    ///
    /// # Panics
    ///
    /// Panics if the string is not valid hex or does not fit in `N` limbs —
    /// a build error when evaluated in a `const`, which is how the field
    /// moduli transcribed from the literature are parsed.
    pub const fn from_hex(s: &str) -> Self {
        let bytes = s.as_bytes();
        let start = if bytes.len() >= 2 && bytes[0] == b'0' && bytes[1] == b'x' {
            2
        } else {
            0
        };
        let mut limbs = [0u64; N];
        // Nibbles placed so far, counted from the least-significant end.
        let mut placed = 0;
        let mut i = bytes.len();
        while i > start {
            i -= 1;
            let nibble = match bytes[i] {
                b @ b'0'..=b'9' => b - b'0',
                b @ b'a'..=b'f' => b - b'a' + 10,
                b @ b'A'..=b'F' => b - b'A' + 10,
                b'_' => continue,
                b if b.is_ascii_whitespace() => continue,
                _ => panic!("invalid hex digit in Uint constant"),
            };
            if placed / 16 < N {
                limbs[placed / 16] |= (nibble as u64) << (4 * (placed % 16));
            } else {
                // Leading zeros beyond the width are fine; set bits are not.
                assert!(nibble == 0, "hex constant does not fit in Uint<N>");
            }
            placed += 1;
        }
        Self(limbs)
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&l| l == 0)
    }

    /// Returns `true` if the lowest bit is clear.
    pub fn is_even(&self) -> bool {
        self.0[0] & 1 == 0
    }

    /// Returns `true` if the lowest bit is set.
    pub fn is_odd(&self) -> bool {
        self.0[0] & 1 == 1
    }

    /// Returns bit `i` (little-endian); bits past the width read as `false`.
    pub fn bit(&self, i: u32) -> bool {
        let limb = (i / 64) as usize;
        if limb >= N {
            return false;
        }
        (self.0[limb] >> (i % 64)) & 1 == 1
    }

    /// Number of significant bits (`0` for zero).
    pub const fn num_bits(&self) -> u32 {
        let mut i = N;
        while i > 0 {
            i -= 1;
            if self.0[i] != 0 {
                return 64 * i as u32 + (64 - self.0[i].leading_zeros());
            }
        }
        0
    }

    /// Wrapping addition; returns `(sum, carry)`.
    pub fn adc(&self, rhs: &Self) -> (Self, u64) {
        let mut out = [0u64; N];
        let mut carry = 0;
        // An index loop, here and in `sbb`: the `iter_mut().enumerate()`
        // spelling of the same chain measured 3% slower on a G2 mixed
        // addition (every field add/sub inlines these two).
        let mut i = 0;
        while i < N {
            (out[i], carry) = adc(self.0[i], rhs.0[i], carry);
            i += 1;
        }
        (Self(out), carry)
    }

    /// Wrapping subtraction; returns `(difference, borrow)`.
    pub fn sbb(&self, rhs: &Self) -> (Self, u64) {
        let mut out = [0u64; N];
        let mut borrow = 0;
        let mut i = 0;
        while i < N {
            (out[i], borrow) = sbb(self.0[i], rhs.0[i], borrow);
            i += 1;
        }
        (Self(out), borrow)
    }

    /// Addition that returns `None` on overflow.
    pub fn checked_add(&self, rhs: &Self) -> Option<Self> {
        let (s, c) = self.adc(rhs);
        (c == 0).then_some(s)
    }

    /// Subtraction that returns `None` on underflow.
    pub fn checked_sub(&self, rhs: &Self) -> Option<Self> {
        let (d, b) = self.sbb(rhs);
        (b == 0).then_some(d)
    }

    /// Wrapping addition, discarding the carry.
    pub fn wrapping_add(&self, rhs: &Self) -> Self {
        self.adc(rhs).0
    }

    /// Wrapping subtraction, discarding the borrow.
    pub fn wrapping_sub(&self, rhs: &Self) -> Self {
        self.sbb(rhs).0
    }

    /// Full schoolbook multiplication into `2N` limbs, returned `(lo, hi)`.
    ///
    /// Always inlined: it is the unreduced product under every `Fq2`
    /// multiplication, and left to the inliner some call sites kept it out
    /// of line, which measured a G2 mixed addition at 1 418 ns against
    /// 1 340 (BLS12-381, one thread, 2-vCPU Xeon).
    #[inline(always)]
    pub fn widening_mul(&self, rhs: &Self) -> (Self, Self) {
        let mut lo = [0u64; N];
        let mut hi = [0u64; N];
        for i in 0..N {
            let mut carry = 0;
            for j in 0..N {
                let k = i + j;
                let cur = if k < N { lo[k] } else { hi[k - N] };
                let (l, c) = mac(cur, self.0[i], rhs.0[j], carry);
                if k < N {
                    lo[k] = l;
                } else {
                    hi[k - N] = l;
                }
                carry = c;
            }
            // Column `i + N` has not been written by any earlier row.
            hi[i] = carry;
        }
        (Self(lo), Self(hi))
    }

    /// Shifts left by one bit; returns `(value, carry_out)`.
    pub const fn shl1(&self) -> (Self, u64) {
        let mut out = [0u64; N];
        let mut carry = 0;
        let mut i = 0;
        while i < N {
            out[i] = (self.0[i] << 1) | carry;
            carry = self.0[i] >> 63;
            i += 1;
        }
        (Self(out), carry)
    }

    /// Shifts right by one bit (logical).
    pub fn shr1(&self) -> Self {
        let mut out = [0u64; N];
        let mut carry = 0;
        for i in (0..N).rev() {
            out[i] = (self.0[i] >> 1) | (carry << 63);
            carry = self.0[i] & 1;
        }
        Self(out)
    }

    /// Little-endian byte serialization (`8 * N` bytes).
    pub fn to_le_bytes(&self) -> Vec<u8> {
        self.0.iter().flat_map(|l| l.to_le_bytes()).collect()
    }

    /// Parses little-endian bytes; missing high bytes read as zero.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() > 8 * N`.
    pub fn from_le_bytes(bytes: &[u8]) -> Self {
        assert!(bytes.len() <= 8 * N, "byte string too long for Uint<{N}>");
        let mut limbs = [0u64; N];
        for (i, b) in bytes.iter().enumerate() {
            limbs[i / 8] |= (*b as u64) << (8 * (i % 8));
        }
        Self(limbs)
    }

    /// Returns the limbs as a slice.
    pub fn limbs(&self) -> &[u64; N] {
        &self.0
    }

    /// Iterator over bits from most significant set bit down to bit 0.
    ///
    /// Useful for double-and-add loops; yields nothing for zero.
    pub fn bits_msb_first(&self) -> impl Iterator<Item = bool> + '_ {
        let n = self.num_bits();
        (0..n).rev().map(move |i| self.bit(i))
    }

    /// Extracts `width` bits starting at bit `lo` as a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `width > 64`.
    pub fn bits_at(&self, lo: u32, width: u32) -> u64 {
        assert!(
            width > 0 && width <= 64,
            "bit window width must be in 1..=64"
        );
        let mut v = 0u64;
        for i in 0..width {
            if self.bit(lo + i) {
                v |= 1 << i;
            }
        }
        v
    }
}

impl<const N: usize> PartialOrd for Uint<N> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<const N: usize> Ord for Uint<N> {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..N).rev() {
            match self.0[i].cmp(&other.0[i]) {
                Ordering::Equal => continue,
                non_eq => return non_eq,
            }
        }
        Ordering::Equal
    }
}

impl<const N: usize> fmt::Debug for Uint<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Uint({self:x})")
    }
}

impl<const N: usize> fmt::Display for Uint<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{self:x}")
    }
}

impl<const N: usize> fmt::LowerHex for Uint<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut started = false;
        for &l in self.0.iter().rev() {
            if started {
                write!(f, "{l:016x}")?;
            } else if l != 0 {
                write!(f, "{l:x}")?;
                started = true;
            }
        }
        if !started {
            write!(f, "0")?;
        }
        Ok(())
    }
}

impl<const N: usize> From<u64> for Uint<N> {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type U4 = Uint<4>;

    #[test]
    fn hex_round_trip() {
        let v = U4::from_hex("0x1a0111ea397fe69a4b1ba7b6434bacd7");
        assert_eq!(format!("{v:x}"), "1a0111ea397fe69a4b1ba7b6434bacd7");
        assert_eq!(U4::from_hex("0").to_string(), "0x0");
    }

    #[test]
    fn hex_leading_zeros_beyond_width_are_accepted() {
        // 65 nibbles, value 2^256 - 1: fits exactly.
        let s = format!("0{}", "f".repeat(64));
        assert_eq!(U4::from_hex(&s), U4::MAX);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn hex_set_bits_beyond_width_are_rejected() {
        let s = format!("1{}", "0".repeat(64));
        let _ = U4::from_hex(&s);
    }

    #[test]
    fn add_sub_inverse() {
        let a = U4::from_hex("ffffffffffffffffffffffffffffffffffffffff");
        let b = U4::from_hex("123456789abcdef0fedcba9876543210");
        let (s, c) = a.adc(&b);
        assert_eq!(c, 0);
        let (d, br) = s.sbb(&b);
        assert_eq!(br, 0);
        assert_eq!(d, a);
    }

    #[test]
    fn overflow_carries() {
        let (s, c) = U4::MAX.adc(&U4::ONE);
        assert_eq!(s, U4::ZERO);
        assert_eq!(c, 1);
        let (d, b) = U4::ZERO.sbb(&U4::ONE);
        assert_eq!(d, U4::MAX);
        assert_eq!(b, 1);
    }

    #[test]
    fn widening_mul_small() {
        let a = U4::from_u64(u64::MAX);
        let (lo, hi) = a.widening_mul(&a);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        assert_eq!(lo.0, [1, u64::MAX - 1, 0, 0]);
        assert!(hi.is_zero());
    }

    #[test]
    fn widening_mul_max() {
        let (lo, hi) = U4::MAX.widening_mul(&U4::MAX);
        // MAX^2 = 2^512 - 2^257 + 1 -> lo = 1, hi = MAX - 1 pattern
        assert_eq!(lo.0, [1, 0, 0, 0]);
        assert_eq!(hi.0, [u64::MAX - 1, u64::MAX, u64::MAX, u64::MAX]);
    }

    #[test]
    fn bit_access_and_count() {
        let v = U4::from_hex("8000000000000000000000000000000000000001");
        assert!(v.bit(0));
        assert!(v.bit(159));
        assert!(!v.bit(100));
        assert_eq!(v.num_bits(), 160);
        assert_eq!(U4::ZERO.num_bits(), 0);
    }

    #[test]
    fn bits_at_windows() {
        let v = U4::from_u64(0b1101_1010);
        assert_eq!(v.bits_at(1, 4), 0b1101);
        assert_eq!(v.bits_at(4, 4), 0b1101);
        assert_eq!(v.bits_at(200, 16), 0);
    }

    #[test]
    fn shifts() {
        let v = U4::from_u64(0x8000_0000_0000_0000);
        let (s, c) = v.shl1();
        assert_eq!(c, 0);
        assert_eq!(s.0, [0, 1, 0, 0]);
        assert_eq!(s.shr1(), v);
        let (_, c) = U4::MAX.shl1();
        assert_eq!(c, 1);
    }

    #[test]
    fn byte_round_trip() {
        let v = U4::from_hex("0123456789abcdef00112233445566778899aabbccddeeff");
        assert_eq!(U4::from_le_bytes(&v.to_le_bytes()), v);
    }

    #[test]
    fn ordering() {
        let a = U4::from_hex("ffffffffffffffff");
        let b = U4::from_hex("10000000000000000");
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }
}
