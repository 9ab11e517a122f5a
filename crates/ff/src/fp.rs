//! Montgomery-form prime field elements over 64-bit limbs.
//!
//! This is the CPU-side field arithmetic (the paper's baseline: "CPUs can
//! natively process 64-bit data elements", §IV-B). The matching 32-bit-limb
//! GPU kernels live in the `gpu-kernels` crate and are cross-validated
//! against this implementation.
//!
//! A lone product goes through one fused CIOS kernel (`*`) or one SOS
//! squaring; both end in a conditional subtract, the squaring through the
//! one Montgomery reduction [`PrimeField::redc`]. Where products are summed
//! before anything reads them, the [`Wide`] layer keeps them unreduced —
//! [`PrimeField::mul_wide`], [`PrimeField::karatsuba_wide`],
//! [`PrimeField::wide_add`] / [`PrimeField::wide_sub`] modulo `p·R` — so a
//! sum of products pays one reduction: [`Field::mul_sub_mul`] here, `Fq2`
//! multiplication in `zkp-curves`.
//!
//! Inversion is not the binary extended Euclid the paper prices at ~100×
//! `FF_mul` on GPUs (§IV-B3) — one multi-limb shift per bit, a branch on
//! every bit — but Bernstein–Yang divsteps (`safegcd.rs`): 62 steps on one
//! machine word per 2×2 matrix, applied to the full-width values through
//! `i128` products, about 40 multiplications' worth on the 6-limb Fq.

use crate::params::{modulus_from_hex, mont_inv, pow2_mod, FieldParams};
use crate::traits::{Field, PrimeField};
use core::cmp::Ordering;
use core::fmt;
use core::iter::{Product, Sum};
use core::marker::PhantomData;
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use rand::Rng;
use zkp_bigint::arith::{adc, mac, sbb};
use zkp_bigint::Uint;

/// Static configuration of a prime field: the modulus and a small generator.
///
/// Implementors are zero-sized marker types that transcribe
/// [`MODULUS_HEX`](Self::MODULUS_HEX), [`GENERATOR`](Self::GENERATOR) and
/// [`NAME`](Self::NAME) and leave the five provided constants alone: the
/// compiler evaluates them from the hex string, so every field operation
/// reads its modulus as an immediate. The modulus must be odd and leave the
/// top bit of its `N` limbs clear (all BLS12 fields do); a configuration that
/// does not is a build error wherever its arithmetic is used:
///
/// ```compile_fail
/// use zkp_ff::{Field, FieldParams, Fp, FpConfig};
///
/// #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
/// struct NoSpareBit;
/// impl FpConfig<1> for NoSpareBit {
///     const MODULUS_HEX: &'static str = "ffffffff00000001"; // 64 bits in one limb
///     const GENERATOR: u64 = 7;
///     const NAME: &'static str = "Goldilocks without a spare bit";
///     fn params() -> &'static FieldParams<1> {
///         unimplemented!()
///     }
/// }
/// let _ = Fp::<NoSpareBit, 1>::one() + Fp::<NoSpareBit, 1>::one();
/// ```
pub trait FpConfig<const N: usize>:
    'static + Copy + Clone + Send + Sync + fmt::Debug + Eq + core::hash::Hash + Default
{
    /// Big-endian hex encoding of the modulus.
    const MODULUS_HEX: &'static str;
    /// A small multiplicative generator of `F_p*` (must be a non-residue).
    const GENERATOR: u64;
    /// Display name, e.g. `"BLS12-381 Fr"`.
    const NAME: &'static str;

    /// The modulus `p`, parsed and checked at compile time.
    const MODULUS: Uint<N> = modulus_from_hex(Self::MODULUS_HEX);
    /// `-p⁻¹ mod 2⁶⁴` — the per-limb Montgomery factor.
    const INV: u64 = mont_inv(Self::MODULUS.0[0]);
    /// `R = 2^(64N) mod p` — the Montgomery representation of one.
    const R: Uint<N> = pow2_mod(&Self::MODULUS, Uint::<N>::BITS);
    /// `R² mod p` — multiplying by it enters the Montgomery domain.
    const R2: Uint<N> = pow2_mod(&Self::MODULUS, 2 * Uint::<N>::BITS);
    /// `R³ mod p` — multiplying a raw inverse `a⁻¹R⁻¹` by it gives `a⁻¹R`.
    const R3: Uint<N> = pow2_mod(&Self::MODULUS, 3 * Uint::<N>::BITS);

    /// The two-adic structure of this field, derived at first use.
    fn params() -> &'static FieldParams<N>;
}

/// An element of the prime field selected by `C`, stored in Montgomery form.
///
/// # Examples
///
/// ```
/// use zkp_ff::{Field, PrimeField, Fr381};
/// let two = Fr381::from_u64(2);
/// let half = two.inverse().expect("2 is invertible");
/// assert_eq!(half + half, Fr381::one());
/// assert_eq!(Fr381::NAME, "BLS12-381 Fr");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fp<C: FpConfig<N>, const N: usize> {
    repr: Uint<N>,
    _marker: PhantomData<C>,
}

impl<C: FpConfig<N>, const N: usize> Fp<C, N> {
    /// Constructs from a raw Montgomery representation (internal).
    pub(crate) const fn from_repr_raw(repr: Uint<N>) -> Self {
        Self {
            repr,
            _marker: PhantomData,
        }
    }

    /// The raw Montgomery-form limbs.
    pub fn montgomery_repr(&self) -> &Uint<N> {
        &self.repr
    }

    /// Builds an element from a canonical integer `< p`.
    ///
    /// Returns `None` if `value >= p`.
    pub fn from_canonical(value: Uint<N>) -> Option<Self> {
        if value >= C::MODULUS {
            return None;
        }
        // Enter the Montgomery domain: value * R² * R^{-1} = value * R.
        Some(Self::from_repr_raw(Self::mont_mul(&value, &C::R2)))
    }

    /// Builds from a big-endian hex string (must be `< p`).
    ///
    /// # Panics
    ///
    /// Panics if the constant is invalid — intended for transcribing
    /// published test vectors and curve parameters.
    pub fn from_hex(s: &str) -> Self {
        Self::from_canonical(Uint::from_hex(s)).expect("hex constant not reduced mod p")
    }

    /// The canonical integer representative in `[0, p)`.
    pub fn to_canonical(&self) -> Uint<N> {
        Self::mont_mul(&self.repr, &Uint::ONE)
    }

    /// The one conditional subtract: `t - p` if `t >= p`, else `t`, for any
    /// `t < 2p` — the "compare limbs then conditionally reduce" step the
    /// paper measures at 70.5% of `FF_add` latency on GPUs (§IV-B1). Here
    /// the subtraction is the comparison: one `SUB`/`SBB` chain against the
    /// modulus as immediates, and its final borrow picks the result.
    ///
    /// This is the branching form, and only [`Self::mont_mul`] and `redc`
    /// (hence [`Self::mont_square`]) end in it, on purpose: the additive operators
    /// take [`Self::select_on_borrow`] instead. Ending the two kernels in
    /// the select as well was measured with `zkbench` (two alternating pairs
    /// per workload) and lost on both sides: `quotient_32k`
    /// `latency_p50_cal_s` 0.053 → 0.060 (+12%) and `prove_dense_1k`
    /// 0.100 → 0.106 (+6%). The CIOS is issue-bound, so the ~3N extra ALU
    /// operations are not free, while the branch resolves in the shadow of
    /// the next multiplication's `MUL`s.
    #[inline(always)]
    fn reduce_once(t: Uint<N>) -> Uint<N> {
        let (reduced, borrow) = t.sbb(&C::MODULUS);
        if borrow == 0 {
            reduced
        } else {
            t
        }
    }

    /// The branch-free select under `add`, `double` and `sub` (hence `neg`):
    /// `on_borrow` if `borrow == 1`, `otherwise` if `borrow == 0`, as
    /// `(on_borrow & mask) | (otherwise & !mask)` per limb with
    /// `mask = 0 − borrow`. On the residues a transform or a curve formula
    /// carries, the final borrow of an addition or a subtraction is a coin
    /// flip, and as a jump it is mispredicted about as often — the CPU shape
    /// of the divergence §IV-B1 attributes 70.5% of `FF_add` to. Measured
    /// over 2^15 independent random `Fr381` operand pairs (ns per operation,
    /// loads and store included): `add` 6.5 → 3.3, `sub` 6.1 → 3.1, `double`
    /// 5.9 → 2.5. Compiled, `add` is `ADD`/`ADC`, `SUB`/`SBB` against the
    /// modulus, `SETB` + `NEG`/`DEC` for the two masks and `AND`/`AND`/`OR`
    /// per limb; `sub` is `SUB`/`SBB`, one `SBB r,r` for the mask, `AND` per
    /// limb of `p` and `ADD`/`ADC` — no conditional jump in either.
    #[inline(always)]
    fn select_on_borrow(borrow: u64, on_borrow: &Uint<N>, otherwise: &Uint<N>) -> Uint<N> {
        let mask = borrow.wrapping_neg();
        let mut out = [0u64; N];
        for (o, (b, k)) in out.iter_mut().zip(on_borrow.0.iter().zip(&otherwise.0)) {
            *o = (b & mask) | (k & !mask);
        }
        Uint(out)
    }

    /// The one fused multiplication kernel: `a * b * R^{-1} mod p` for
    /// `a, b < p` by interleaved ("no-carry") CIOS Montgomery multiplication.
    ///
    /// Every round adds `a * b[i] + m * p` to the running total and drops a
    /// limb, which keeps the total below `2p`; [`FpConfig::MODULUS`] has a
    /// spare bit, so `2p < 2^(64N)`, the two carry words of a round sum to
    /// less than `2^64` and no `t[N]` word exists.
    ///
    /// Its `2N²` multiply-accumulates are the `N²` of [`Self::product`] plus
    /// the `N²` of `redc`, so a lone product stays fused; the split pays
    /// where two products are summed before anything reads them
    /// ([`Field::mul_sub_mul`], `karatsuba_wide`) and one reduction does.
    #[inline(always)]
    fn mont_mul(a: &Uint<N>, b: &Uint<N>) -> Uint<N> {
        let (a, b, p) = (&a.0, &b.0, &C::MODULUS.0);
        let mut t = [0u64; N];
        for &bi in b {
            let (t0, mut carry_ab) = mac(t[0], a[0], bi, 0);
            let m = t0.wrapping_mul(C::INV);
            let (_, mut carry_mp) = mac(t0, m, p[0], 0);
            for j in 1..N {
                let tj;
                (tj, carry_ab) = mac(t[j], a[j], bi, carry_ab);
                (t[j - 1], carry_mp) = mac(tj, m, p[j], carry_mp);
            }
            t[N - 1] = carry_ab + carry_mp;
        }
        Self::reduce_once(Uint(t))
    }

    /// The one squaring kernel: `a * a * R^{-1} mod p` by separated operand
    /// scanning. The `N(N-1)/2` off-diagonal products are computed once and
    /// doubled in one shift pass, the `N` diagonal products added, and the
    /// `2N`-limb square handed to `redc`: `N(N+1)/2 + N²` multiplications
    /// against the `2N²` of [`Self::mont_mul`].
    #[inline(always)]
    fn mont_square(a: &Uint<N>) -> Self {
        let a = &a.0;
        let mut r = [[0u64; N]; 2];
        for i in 0..N {
            let mut carry = 0;
            for j in i + 1..N {
                let l = limb(&mut r, i + j);
                (*l, carry) = mac(*l, a[i], a[j], carry);
            }
            r[1][i] = carry;
        }
        let (lo, top) = Uint(r[0]).shl1();
        let (hi, _) = Uint(r[1]).shl1();
        r = [lo.0, hi.0];
        r[1][0] |= top;
        let mut carry = 0;
        for (i, &ai) in a.iter().enumerate() {
            let l = limb(&mut r, 2 * i);
            (*l, carry) = mac(*l, ai, ai, carry);
            let l = limb(&mut r, 2 * i + 1);
            (*l, carry) = adc(*l, carry, 0);
        }
        Self::redc(Wide(r))
    }

    /// The schoolbook `N²` product of two `N`-limb integers, unreduced, as a
    /// [`Wide`]. The operands need not be residues: `karatsuba_wide` passes
    /// sums below `2p`.
    #[inline(always)]
    fn product(a: &Uint<N>, b: &Uint<N>) -> Wide<N> {
        let (lo, hi) = a.widening_mul(b);
        Wide([lo.0, hi.0])
    }
}

/// An unreduced double-width value below `p·R` — `2N` limbs held as the low
/// and high halves (`[u64; 2 * N]` is not expressible with stable const
/// generics). [`PrimeField::mul_wide`] makes one, [`PrimeField::wide_add`]
/// and [`PrimeField::wide_sub`] combine them modulo `p·R` and
/// [`PrimeField::redc`] reduces one to a canonical element.
///
/// Only a field's own operations build one, so the bound holds for the
/// field that built it; the limbs are not exposed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Wide<const N: usize>([[u64; N]; 2]);

impl<const N: usize> Wide<N> {
    /// The `2N`-limb sum and its carry out.
    #[inline(always)]
    fn adc(&self, rhs: &Self) -> (Self, u64) {
        let mut out = [[0u64; N]; 2];
        let mut carry = 0;
        let limbs = self.0.as_flattened().iter().zip(rhs.0.as_flattened());
        for (o, (&x, &y)) in out.as_flattened_mut().iter_mut().zip(limbs) {
            (*o, carry) = adc(x, y, carry);
        }
        (Self(out), carry)
    }

    /// The `2N`-limb difference and its borrow out.
    #[inline(always)]
    fn sbb(&self, rhs: &Self) -> (Self, u64) {
        let mut out = [[0u64; N]; 2];
        let mut borrow = 0;
        let limbs = self.0.as_flattened().iter().zip(rhs.0.as_flattened());
        for (o, (&x, &y)) in out.as_flattened_mut().iter_mut().zip(limbs) {
            (*o, borrow) = sbb(x, y, borrow);
        }
        (Self(out), borrow)
    }
}

/// Limb `k` of a `2N`-limb integer held as its low and high halves.
#[inline(always)]
fn limb<const N: usize>(wide: &mut [[u64; N]; 2], k: usize) -> &mut u64 {
    &mut wide[k / N][k % N]
}

impl<C: FpConfig<N>, const N: usize> Field for Fp<C, N> {
    fn zero() -> Self {
        Self::from_repr_raw(Uint::ZERO)
    }

    fn one() -> Self {
        Self::from_repr_raw(C::R)
    }

    fn is_zero(&self) -> bool {
        self.repr.is_zero()
    }

    #[inline]
    fn double(&self) -> Self {
        // FF_dbl: left shift each limb and propagate carries (§IV-B1),
        // then conditionally reduce; the spare bit absorbs the shift.
        let (shifted, _) = self.repr.shl1();
        let (reduced, borrow) = shifted.sbb(&C::MODULUS);
        Self::from_repr_raw(Self::select_on_borrow(borrow, &shifted, &reduced))
    }

    #[inline]
    fn square(&self) -> Self {
        // On the GPU FF_sqr shares FF_mul's profile (§IV-B2); on the host
        // the symmetric products are worth a kernel of their own.
        Self::mont_square(&self.repr)
    }

    #[inline]
    fn mul_sub_mul(a: Self, b: Self, c: Self, d: Self) -> Self {
        // Two products, one subtraction modulo p·R, one reduction: 3N²
        // multiply-accumulates where two fused multiplications are 4N².
        Self::redc(Self::wide_sub(a.mul_wide(&b), c.mul_wide(&d)))
    }

    /// Bernstein–Yang divsteps (`safegcd.rs`) on the Montgomery
    /// form: the raw inverse of `aR` is `a⁻¹R⁻¹`, and one multiplication by
    /// [`FpConfig::R3`] makes it `a⁻¹R`. Variable time, like the binary
    /// extended Euclid it replaced; constant time is not a goal here.
    fn inverse(&self) -> Option<Self> {
        if self.is_zero() {
            return None;
        }
        let raw = crate::safegcd::inverse::<C, N>(&self.repr);
        Some(Self::from_repr_raw(Self::mont_mul(&raw, &C::R3)))
    }

    fn from_u64(v: u64) -> Self {
        Self::from_canonical(Uint::from_u64(v)).unwrap_or_else(|| {
            // Sub-64-bit moduli (test fields): reduce first.
            let p0 = C::MODULUS.0[0];
            Self::from_canonical(Uint::from_u64(v % p0)).expect("v mod p is reduced")
        })
    }

    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // Rejection-sample a canonical value below p.
        let num_bits = C::MODULUS.num_bits();
        loop {
            let mut limbs = [0u64; N];
            for l in &mut limbs {
                *l = rng.gen();
            }
            // Mask everything above the modulus width to make acceptance
            // likely on the first draw (handles moduli occupying any
            // number of limbs).
            for (i, l) in limbs.iter_mut().enumerate() {
                let lo_bit = 64 * i as u32;
                if lo_bit >= num_bits {
                    *l = 0;
                } else if num_bits - lo_bit < 64 {
                    *l &= (1u64 << (num_bits - lo_bit)) - 1;
                }
            }
            let candidate = Uint(limbs);
            if candidate < C::MODULUS {
                // Already uniform over [0, p); enter the Montgomery domain.
                return Self::from_canonical(candidate).expect("candidate < p");
            }
        }
    }
}

impl<C: FpConfig<N>, const N: usize> PrimeField for Fp<C, N> {
    const NUM_LIMBS: usize = N;
    const NAME: &'static str = C::NAME;
    type Wide = Wide<N>;

    #[inline(always)]
    fn mul_wide(&self, rhs: &Self) -> Wide<N> {
        Self::product(&self.repr, &rhs.repr)
    }

    /// The reduction `mont_square` ends in, limb by limb: for a wide value
    /// `T < p·R`, `(T + M·p) / R < 2p` as in the fused kernel, so the carry
    /// out of the top limb is zero after the last round and one conditional
    /// subtract leaves a residue.
    #[inline(always)]
    fn redc(wide: Wide<N>) -> Self {
        let (mut r, p) = (wide.0, &C::MODULUS.0);
        let mut top_carry = 0;
        for i in 0..N {
            let m = r[0][i].wrapping_mul(C::INV);
            let (_, mut carry) = mac(r[0][i], m, p[0], 0);
            for (j, &pj) in p.iter().enumerate().skip(1) {
                let l = limb(&mut r, i + j);
                (*l, carry) = mac(*l, m, pj, carry);
            }
            (r[1][i], top_carry) = adc(r[1][i], carry, top_carry);
        }
        Self::from_repr_raw(Self::reduce_once(Uint(r[1])))
    }

    /// `p·R` is `p` in the high half over a zero low half, so the sum
    /// (below `2p·R < R²`: no carry out) is compared against it, and `p`
    /// taken off, on the high half alone.
    #[inline(always)]
    fn wide_add(a: Wide<N>, b: Wide<N>) -> Wide<N> {
        let (sum, _) = a.adc(&b);
        let (reduced, borrow) = Uint(sum.0[1]).sbb(&C::MODULUS);
        Wide([
            sum.0[0],
            Self::select_on_borrow(borrow, &Uint(sum.0[1]), &reduced).0,
        ])
    }

    /// Adds `p·R` back on a borrow: `p` into the high half, where the
    /// carry out cancels the borrow's wrap.
    #[inline(always)]
    fn wide_sub(a: Wide<N>, b: Wide<N>) -> Wide<N> {
        let (diff, borrow) = a.sbb(&b);
        let p_or_zero = Self::select_on_borrow(borrow, &C::MODULUS, &Uint::ZERO);
        Wide([diff.0[0], Uint(diff.0[1]).wrapping_add(&p_or_zero).0])
    }

    /// Three `N²` products where the fused `Fp` kernel would take three
    /// `2N²` multiplications, and the caller reduces what it needs.
    /// `a0 + a1 < 2p` fits in `N` limbs (the spare bit), and
    /// `(a0 + a1)(b0 + b1) − a0·b0 − a1·b1 = a0·b1 + a1·b0` is non-negative,
    /// so neither sum nor difference needs a correction.
    #[inline(always)]
    fn karatsuba_wide(a: [Self; 2], b: [Self; 2]) -> [Wide<N>; 3] {
        const {
            assert!(
                C::MODULUS.num_bits() + 2 <= Uint::<N>::BITS,
                "karatsuba_wide needs 4p < R: two spare bits in the top limb"
            )
        };
        let t0 = Self::product(&a[0].repr, &b[0].repr);
        let t1 = Self::product(&a[1].repr, &b[1].repr);
        let (sum_a, _) = a[0].repr.adc(&a[1].repr);
        let (sum_b, _) = b[0].repr.adc(&b[1].repr);
        let (cross, _) = Self::product(&sum_a, &sum_b).sbb(&t0);
        let (cross, _) = cross.sbb(&t1);
        [t0, t1, cross]
    }

    fn to_uint(&self) -> Vec<u64> {
        self.to_canonical().limbs().to_vec()
    }

    fn write_uint(&self, out: &mut [u64]) {
        assert!(out.len() >= N, "write_uint: output too short");
        out[..N].copy_from_slice(self.to_canonical().limbs());
        out[N..].fill(0);
    }

    fn from_le_limbs(limbs: &[u64]) -> Option<Self> {
        if limbs.len() > N {
            return None;
        }
        let mut arr = [0u64; N];
        arr[..limbs.len()].copy_from_slice(limbs);
        Self::from_canonical(Uint(arr))
    }

    fn modulus_limbs() -> Vec<u64> {
        C::MODULUS.0.to_vec()
    }

    fn modulus_bits() -> u32 {
        C::MODULUS.num_bits()
    }

    fn two_adicity() -> u32 {
        C::params().two_adicity
    }

    fn two_adic_root_of_unity() -> Self {
        Self::from_canonical(C::params().two_adic_root).expect("root < p")
    }

    fn multiplicative_generator() -> Self {
        Self::from_u64(C::params().generator)
    }

    fn legendre(&self) -> i8 {
        if self.is_zero() {
            return 0;
        }
        let e = C::params().half_order;
        let v = self.pow(e.limbs());
        if v.is_one() {
            1
        } else {
            -1
        }
    }

    fn sqrt(&self) -> Option<Self> {
        if self.is_zero() {
            return Some(*self);
        }
        if self.legendre() != 1 {
            return None;
        }
        // Tonelli–Shanks over the two-adic structure.
        let p = C::params();
        let s = p.two_adicity;
        let trace = p.trace.limbs().to_vec();
        // x = a^((t+1)/2); b = a^t
        let t_plus_1_half = {
            let t1 = p.trace.add(&zkp_bigint::UBig::one());
            t1.shr(1).limbs().to_vec()
        };
        let mut x = self.pow(&t_plus_1_half);
        let mut b = self.pow(&trace);
        let mut g = Self::two_adic_root_of_unity();
        let mut r = s;
        while !b.is_one() {
            // Find least m with b^(2^m) = 1.
            let mut m = 0;
            let mut t = b;
            while !t.is_one() {
                t = t.square();
                m += 1;
                if m == r {
                    return None; // not a residue (defensive; legendre said it was)
                }
            }
            // g' = g^(2^(r-m-1))
            let mut gs = g;
            for _ in 0..(r - m - 1) {
                gs = gs.square();
            }
            x *= gs;
            g = gs.square();
            b *= g;
            r = m;
        }
        debug_assert_eq!(x.square(), *self);
        Some(x)
    }
}

impl<C: FpConfig<N>, const N: usize> Add for Fp<C, N> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        // FF_add: limb adds with carry chains (the spare bit holds the
        // sum), then the conditional reduction whose divergence the paper
        // quantifies (§IV-B1) — a select here, so nothing diverges.
        let (sum, _) = self.repr.adc(&rhs.repr);
        let (reduced, borrow) = sum.sbb(&C::MODULUS);
        Self::from_repr_raw(Self::select_on_borrow(borrow, &sum, &reduced))
    }
}

impl<C: FpConfig<N>, const N: usize> Sub for Fp<C, N> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        // Add `p` back on a borrow: `diff + (p & mask)`.
        let (diff, borrow) = self.repr.sbb(&rhs.repr);
        let p_or_zero = Self::select_on_borrow(borrow, &C::MODULUS, &Uint::ZERO);
        Self::from_repr_raw(diff.wrapping_add(&p_or_zero))
    }
}

impl<C: FpConfig<N>, const N: usize> Mul for Fp<C, N> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::from_repr_raw(Self::mont_mul(&self.repr, &rhs.repr))
    }
}

impl<C: FpConfig<N>, const N: usize> Neg for Fp<C, N> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::zero() - self
    }
}

impl<C: FpConfig<N>, const N: usize> AddAssign for Fp<C, N> {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<C: FpConfig<N>, const N: usize> SubAssign for Fp<C, N> {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<C: FpConfig<N>, const N: usize> MulAssign for Fp<C, N> {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<C: FpConfig<N>, const N: usize> Sum for Fp<C, N> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::zero(), |a, b| a + b)
    }
}

impl<C: FpConfig<N>, const N: usize> Product for Fp<C, N> {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::one(), |a, b| a * b)
    }
}

impl<C: FpConfig<N>, const N: usize> Default for Fp<C, N> {
    fn default() -> Self {
        Self::zero()
    }
}

impl<C: FpConfig<N>, const N: usize> PartialOrd for Fp<C, N> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<C: FpConfig<N>, const N: usize> Ord for Fp<C, N> {
    /// Orders by canonical integer representative.
    fn cmp(&self, other: &Self) -> Ordering {
        self.to_canonical().cmp(&other.to_canonical())
    }
}

impl<C: FpConfig<N>, const N: usize> fmt::Debug for Fp<C, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", C::NAME, self.to_canonical())
    }
}

impl<C: FpConfig<N>, const N: usize> fmt::Display for Fp<C, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_canonical())
    }
}

#[cfg(test)]
mod tests {
    //! Differential tests of the compile-time-modulus kernels against the
    //! runtime-modulus code they replaced, and of divsteps inversion against
    //! the binary extended Euclid, each kept here as the oracle.

    use super::*;
    use crate::configs::{Fq377Config, Fq381Config, Fr377Config, Fr381Config};
    use crate::params::tests::{ubig_montgomery_constants, Goldilocks4};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};
    use zkp_bigint::UBig;

    /// The generic looped CIOS with a `t[N]` word that was `Fp`'s only
    /// kernel: modulus and `inv` are run-time arguments, nothing is unrolled,
    /// and the reduction is a compare followed by a subtraction.
    fn mont_mul_oracle<const N: usize>(a: &Uint<N>, b: &Uint<N>, p: &Uint<N>, inv: u64) -> Uint<N> {
        let (a, b, pl) = (a.limbs(), b.limbs(), p.limbs());
        let mut t = [0u64; N];
        let mut t_n = 0u64;
        for &ai in a {
            let mut carry = 0;
            for j in 0..N {
                (t[j], carry) = mac(t[j], ai, b[j], carry);
            }
            let (tn, overflow) = adc(t_n, carry, 0);
            assert_eq!(overflow, 0, "modulus spare bit violated");
            t_n = tn;

            let m = t[0].wrapping_mul(inv);
            let (_, mut carry) = mac(t[0], m, pl[0], 0);
            for j in 1..N {
                (t[j - 1], carry) = mac(t[j], m, pl[j], carry);
            }
            (t[N - 1], t_n) = adc(t_n, carry, 0);
            assert_eq!(t_n, 0, "modulus spare bit violated");
        }
        let r = Uint(t);
        if r >= *p {
            r.wrapping_sub(p)
        } else {
            r
        }
    }

    fn reduced<const N: usize>(x: UBig, p: &UBig) -> Uint<N> {
        x.div_rem(p).1.to_uint().expect("a residue fits")
    }

    /// Every operation on the Montgomery forms `a, b < p` against the oracle
    /// (`mul`, `square`, both conversions) or plain integers modulo `p`
    /// (the additive ones: the Montgomery map is linear).
    fn check_against_oracle<C: FpConfig<N>, const N: usize>(a: Uint<N>, b: Uint<N>) {
        let p = C::MODULUS;
        let (inv, _, r2) = ubig_montgomery_constants(&p);
        let p_big = UBig::from(p);
        assert!(a < p && b < p, "test vectors are residues");
        let (x, y) = (Fp::<C, N>::from_repr_raw(a), Fp::<C, N>::from_repr_raw(b));
        let (a_big, b_big) = (UBig::from(a), UBig::from(b));

        assert_eq!((x * y).repr, mont_mul_oracle(&a, &b, &p, inv), "mul");
        assert_eq!(x.square().repr, mont_mul_oracle(&a, &a, &p, inv), "square");
        assert_eq!((x + y).repr, reduced(a_big.add(&b_big), &p_big), "add");
        assert_eq!(
            (x - y).repr,
            reduced(a_big.add(&p_big).sub(&b_big), &p_big),
            "sub"
        );
        assert_eq!(
            x.double().repr,
            reduced(a_big.add(&a_big), &p_big),
            "double"
        );
        assert_eq!((-x).repr, reduced(p_big.sub(&a_big), &p_big), "neg");
        assert_eq!(
            x.to_canonical(),
            mont_mul_oracle(&a, &Uint::ONE, &p, inv),
            "to_canonical"
        );
        // `a` read as a canonical integer enters the domain as a·R.
        let entered = Fp::<C, N>::from_canonical(a).expect("a < p");
        assert_eq!(
            entered.repr,
            mont_mul_oracle(&a, &r2, &p, inv),
            "from_canonical"
        );
        assert_eq!(entered.to_canonical(), a, "round trip");
        // The split kernel: the schoolbook product is the integer a·b, and
        // its reduction is the fused kernel's result.
        let wide = x.mul_wide(&y);
        assert_eq!(to_ubig(&wide), a_big.mul(&b_big), "mul_wide");
        assert_eq!(
            Fp::<C, N>::redc(wide).repr,
            mont_mul_oracle(&a, &b, &p, inv),
            "redc(mul_wide)"
        );
        // a·b − c·d with c·d below, equal to and (for a < b) above a·b.
        let mut results = vec![x * y, x.square(), x + y, x - y, x.double(), -x];
        for (c, d) in [(x, x), (x, y), (y, y), (y, x)] {
            let fused = Fp::mul_sub_mul(x, y, c, d);
            assert_eq!(fused, x * y - c * d, "mul_sub_mul");
            results.push(fused);
        }
        for result in results {
            assert!(result.repr < p, "results are canonical residues");
        }
    }

    fn to_ubig<const N: usize>(w: &Wide<N>) -> UBig {
        UBig::from_limbs(&w.0.concat())
    }

    /// `wide_add` / `wide_sub` modulo `p·R` where the correction flips:
    /// results `0` and `p·R − 1`, reached with and without a carry or a
    /// borrow, then every pair of a set straddling `p·R` against `UBig`.
    fn wide_boundary_vectors<C: FpConfig<N>, const N: usize>() {
        let (add, sub) = (Fp::<C, N>::wide_add, Fp::<C, N>::wide_sub);
        let p = C::MODULUS;
        let (zero, max) = ([0; N], [u64::MAX; N]);
        let (one, p_minus_1) = (Uint::<N>::ONE.0, p.wrapping_sub(&Uint::ONE).0);
        let w_zero = Wide([zero, zero]);
        let w_one = Wide([one, zero]);
        let r_minus_1 = Wide([max, zero]);
        let r = Wide([zero, one]);
        let pr_minus_r = Wide([zero, p_minus_1]);
        let pr_minus_1 = Wide([max, p_minus_1]);

        // A sum of exactly p·R is 0: with a carry out of the low half, and
        // without one.
        assert_eq!(add(pr_minus_1, w_one), w_zero, "(pR − 1) + 1");
        assert_eq!(add(pr_minus_r, r), w_zero, "(pR − R) + R");
        // One short of p·R is left alone.
        assert_eq!(add(pr_minus_r, r_minus_1), pr_minus_1, "(pR − R) + (R − 1)");
        assert_eq!(add(pr_minus_1, w_zero), pr_minus_1, "(pR − 1) + 0");
        // x − x is 0; x − (x + 1) is −1, which is p·R − 1, with the borrow
        // starting in the low half and in the high half; and a borrow
        // between the halves that leaves no final borrow.
        assert_eq!(sub(pr_minus_1, pr_minus_1), w_zero, "x − x");
        assert_eq!(sub(w_zero, w_one), pr_minus_1, "0 − 1");
        assert_eq!(sub(r_minus_1, r), pr_minus_1, "(R − 1) − R");
        assert_eq!(sub(r, w_one), r_minus_1, "R − 1");

        let m = Fp::<C, N>::from_repr_raw(Uint(p_minus_1));
        let vectors = [
            w_zero,
            w_one,
            r_minus_1,
            r,
            pr_minus_r,
            pr_minus_1,
            m.mul_wide(&m),
        ];
        let pr = UBig::from(p).shl(Uint::<N>::BITS);
        for x in vectors {
            for y in vectors {
                let (xb, yb) = (to_ubig(&x), to_ubig(&y));
                assert_eq!(to_ubig(&add(x, y)), xb.add(&yb).div_rem(&pr).1, "wide_add");
                assert_eq!(
                    to_ubig(&sub(x, y)),
                    xb.add(&pr).sub(&yb).div_rem(&pr).1,
                    "wide_sub"
                );
            }
        }
    }

    /// The Karatsuba primitive at its largest operands, `a0 = a1 = b0 = b1 =
    /// p − 1` — the product of the unreduced sums is `4(p − 1)²`, the
    /// largest intermediate it forms — then against the fused kernel.
    fn karatsuba_vectors<C: FpConfig<N>, const N: usize>() {
        let m = Fp::<C, N>::from_repr_raw(C::MODULUS.wrapping_sub(&Uint::ONE));
        let square = UBig::from(m.repr).mul(&UBig::from(m.repr));
        let [t0, t1, cross] = Fp::karatsuba_wide([m, m], [m, m]);
        assert_eq!(
            (to_ubig(&t0), to_ubig(&t1)),
            (square.clone(), square.clone())
        );
        assert_eq!(to_ubig(&cross), square.add(&square), "cross term");
        assert_eq!(Fp::redc(cross), (m * m).double());

        let mut rng = StdRng::seed_from_u64(N as u64);
        for _ in 0..64 {
            let [a0, a1, b0, b1] = [(); 4].map(|_| Fp::<C, N>::random(&mut rng));
            let [t0, t1, cross] = Fp::karatsuba_wide([a0, a1], [b0, b1]);
            assert_eq!(Fp::redc(t0), a0 * b0);
            assert_eq!(Fp::redc(t1), a1 * b1);
            assert_eq!(Fp::redc(cross), a0 * b1 + a1 * b0);
        }
    }

    /// `0, 1, p − 1, R mod p`, residues sharing the modulus's top limbs
    /// (`p − 1 − k` for a few word-sized `k`), all pairs — `(p−1)·(p−1)` is
    /// the largest product the no-carry shortcut has to hold.
    fn edge_vectors<C: FpConfig<N>, const N: usize>() {
        let p = C::MODULUS;
        let p_minus_1 = p.wrapping_sub(&Uint::ONE);
        let mut vectors = vec![Uint::ZERO, Uint::ONE, p_minus_1, C::R, C::R2];
        for k in [1, 2, u64::MAX / 3, u64::MAX] {
            if let Some(v) = p_minus_1.checked_sub(&Uint::from_u64(k)) {
                vectors.push(v);
            }
        }
        for &a in &vectors {
            for &b in &vectors {
                check_against_oracle::<C, N>(a, b);
            }
        }
        assert_eq!(-Fp::<C, N>::zero(), Fp::<C, N>::zero(), "-0 == 0");
    }

    /// Pairs that straddle the reduction, where the select on the final
    /// borrow flips: `a + b ∈ {p − 1, p, p + 1}`, `a − b ∈ {−1, 0, 1}`, and
    /// `a = (p ± 1)/2`, whose doubles are `p ± 1`.
    fn select_boundary_vectors<C: FpConfig<N>, const N: usize>() {
        let p = C::MODULUS;
        let one = Uint::ONE;
        let half_down = p.shr1(); // (p − 1)/2: p is odd
        let half_up = half_down.wrapping_add(&one);
        let interior = C::R2; // a residue away from every boundary
        for a in [one, half_down, half_up, interior, p.wrapping_sub(&one)] {
            // a + b = p + k and a − b' = k for k ∈ {−1, 0, 1}.
            for b in [p.wrapping_sub(&a), a] {
                check_against_oracle::<C, N>(a, b);
                if let Some(less) = b.checked_sub(&one) {
                    check_against_oracle::<C, N>(a, less);
                }
                let more = b.wrapping_add(&one);
                if more < p {
                    check_against_oracle::<C, N>(a, more);
                }
            }
        }
    }

    /// The binary extended Euclid `Fp::inverse` ran before divsteps — the
    /// algorithm §IV-B3 attributes GPU `FF_inv`'s ~100× `FF_mul` to: one
    /// multi-limb shift per bit, a branch on every bit. Starting `b` at
    /// `R²` lands the inverse of `aR` at `a⁻¹R`.
    fn binary_eea<C: FpConfig<N>, const N: usize>(x: Fp<C, N>) -> Option<Fp<C, N>> {
        if x.is_zero() {
            return None;
        }
        let modulus = C::MODULUS;
        let halve = |b: &mut Fp<C, N>| {
            if b.repr.is_even() {
                b.repr = b.repr.shr1();
            } else {
                let (sum, carry) = b.repr.adc(&modulus);
                b.repr = sum.shr1();
                // Restore the carried-out bit at the top.
                b.repr.0[N - 1] |= carry << 63;
            }
        };
        let (mut u, mut v) = (x.repr, modulus);
        let mut b = Fp::<C, N>::from_repr_raw(C::R2);
        let mut c = Fp::<C, N>::zero();
        while u != Uint::ONE && v != Uint::ONE {
            while u.is_even() {
                u = u.shr1();
                halve(&mut b);
            }
            while v.is_even() {
                v = v.shr1();
                halve(&mut c);
            }
            if u >= v {
                u = u.wrapping_sub(&v);
                b -= c;
            } else {
                v = v.wrapping_sub(&u);
                c -= b;
            }
        }
        Some(if u == Uint::ONE { b } else { c })
    }

    /// `inverse` against the binary Euclid and Fermat's `x^(p−2)`; zero has
    /// none.
    fn check_inverse<C: FpConfig<N>, const N: usize>(x: Fp<C, N>) {
        let inv = x.inverse();
        assert_eq!(inv, binary_eea(x), "binary Euclid at {x:?}");
        match inv {
            None => assert!(x.is_zero(), "{x:?} has no inverse"),
            Some(inv) => {
                let p_minus_2 = C::MODULUS.wrapping_sub(&Uint::from_u64(2));
                assert_eq!(inv, x.pow(&p_minus_2.0), "Fermat at {x:?}");
                assert!(inv.repr < C::MODULUS, "canonical residue");
            }
        }
    }

    /// Zero, `1`, `−1`, `2`, every `2^k` below the modulus, the raw
    /// representations `1` and `p − 1`, `R mod p`, and values with long
    /// zero runs: `2^(b−2) + 1` and `p` with its low half cleared, for a
    /// `b`-bit `p`.
    fn inverse_vectors<C: FpConfig<N>, const N: usize>() {
        let p = C::MODULUS;
        let bits = p.num_bits() as usize;
        let one = Fp::<C, N>::one();
        let power = |k: usize| {
            let mut limbs = [0u64; N];
            limbs[k / 64] = 1 << (k % 64);
            Uint(limbs)
        };
        let mut low_half_cleared = p;
        for k in 0..bits / 2 {
            low_half_cleared.0[k / 64] &= !(1 << (k % 64));
        }
        let mut canonical = vec![
            C::R,
            power(bits - 2).wrapping_add(&Uint::ONE),
            low_half_cleared,
        ];
        canonical.extend((0..bits - 1).map(power));
        let raw = [Uint::ZERO, Uint::ONE, p.wrapping_sub(&Uint::ONE)];
        let values = [one, -one, one.double()]
            .into_iter()
            .chain(raw.map(Fp::<C, N>::from_repr_raw))
            .chain(
                canonical
                    .into_iter()
                    .map(|v| Fp::<C, N>::from_canonical(v).expect("vectors are residues")),
            );
        for x in values {
            check_inverse(x);
        }
    }

    /// One suite per field; a field with `4p < R` also names a Karatsuba
    /// test (on BLS12-381 Fr the primitive does not build).
    macro_rules! differential {
        ($mod_name:ident, $C:ty, $N:literal $(, $karatsuba:ident)?) => {
            mod $mod_name {
                use super::*;

                #[test]
                fn edge_vectors_match_the_oracle() {
                    edge_vectors::<$C, $N>();
                }

                #[test]
                fn select_boundaries_match_the_oracle() {
                    select_boundary_vectors::<$C, $N>();
                }

                #[test]
                fn wide_add_sub_straddle_p_times_r() {
                    wide_boundary_vectors::<$C, $N>();
                }

                #[test]
                fn inverse_vectors_match_euclid_and_fermat() {
                    inverse_vectors::<$C, $N>();
                }

                $(
                    #[test]
                    fn $karatsuba() {
                        karatsuba_vectors::<$C, $N>();
                    }
                )?

                proptest! {
                    #[test]
                    fn random_residues_match_the_oracle(seed in any::<u64>()) {
                        let mut rng = StdRng::seed_from_u64(seed);
                        let a = Fp::<$C, $N>::random(&mut rng);
                        let b = Fp::<$C, $N>::random(&mut rng);
                        check_against_oracle::<$C, $N>(a.repr, b.repr);
                    }

                    #[test]
                    fn random_inverses_match_euclid_and_fermat(seed in any::<u64>()) {
                        check_inverse(Fp::<$C, $N>::random(&mut StdRng::seed_from_u64(seed)));
                    }
                }
            }
        };
    }

    differential!(fr381, Fr381Config, 4);
    differential!(fq381, Fq381Config, 6, karatsuba_cross_term_at_p_minus_1);
    differential!(fr377, Fr377Config, 4, karatsuba_cross_term_at_p_minus_1);
    differential!(fq377, Fq377Config, 6, karatsuba_cross_term_at_p_minus_1);
    differential!(
        goldilocks4,
        Goldilocks4,
        4,
        karatsuba_cross_term_at_p_minus_1
    );
}
