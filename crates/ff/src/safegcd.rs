//! Modular inversion by Bernstein–Yang divsteps ("safegcd"), in the
//! variable-time form of libsecp256k1's `modinv64_var`.
//!
//! Bernstein & Yang, "Fast constant-time gcd computation and modular
//! inversion" (TCHES 2019), replace the binary extended Euclid's one
//! multi-limb shift per bit with *divsteps* on the low 64 bits of `f` and
//! `g` alone. Sixty-two of them are collected into one 2×2 transition
//! matrix `t` (scaled by `2^62`), and only then is `t` applied to the
//! full-width `f, g` and to the Bézout coefficients `d, e`, each held as
//! signed 62-bit limbs so the matrix products fit `i128`. The walk keeps
//! `d·x ≡ f` and `e·x ≡ g (mod p)` from `f = p, g = x, d = 0, e = 1` until
//! `g = 0`; then `f = ±1` and `±d` is the inverse.
//!
//! Constant time is not a goal: the number of matrices, the zero runs a
//! divstep batch skips and the shrinking length of `f, g` all depend on the
//! input, like the bucket schedule of the MSM that inverts most often.

use crate::fp::FpConfig;
use zkp_bigint::Uint;

/// The low 62 bits.
const M62: u64 = u64::MAX >> 2;

/// Limbs of the signed-62 buffers: a modulus of up to eight 62-bit limbs,
/// one more than its `64N` bits need (the top limb holds the sign).
const MAX_LIMBS: usize = 8;

/// An integer as little-endian signed 62-bit limbs: every limb but the top
/// one of the current length lies in `[0, 2^62)`, the top one carries the
/// sign and whatever is left above.
type Signed62 = [i64; MAX_LIMBS];

/// The transition matrix of 62 divsteps, `[u v; q r]`, scaled by `2^62`:
/// it maps `(f, g)` to `2^62·(f', g')`.
struct Transition {
    u: i64,
    v: i64,
    q: i64,
    r: i64,
}

/// The limb count of `N` 64-bit limbs in signed 62-bit form: `64N/62 + 1`,
/// 7 for the 6-limb Fq and 5 for the 4-limb Fr.
const fn limbs(n: usize) -> usize {
    64 * n / 62 + 1
}

/// `x⁻¹ mod p` for `0 < x < p` and `p = C::MODULUS` prime.
pub(crate) fn inverse<C: FpConfig<N>, const N: usize>(x: &Uint<N>) -> Uint<N> {
    const { assert!(limbs(N) <= MAX_LIMBS, "the buffers hold 8 limbs") };
    let p = const { to_signed62(&C::MODULUS) };
    // `p⁻¹ mod 2^62`, from the Montgomery factor `−p⁻¹ mod 2^64`.
    let p_inv62 = C::INV.wrapping_neg() & M62;
    let (mut d, mut e, mut f, mut g) = ([0; MAX_LIMBS], [0; MAX_LIMBS], p, to_signed62(x));
    e[0] = 1;
    let mut len = limbs(N);
    let mut eta = -1;
    loop {
        let t;
        (eta, t) = divsteps_62(eta, f[0] as u64, g[0] as u64);
        update_de(&mut d, &mut e, &t, &p, p_inv62, limbs(N));
        update_fg(&mut f, &mut g, &t, len);
        if g[..len].iter().all(|&limb| limb == 0) {
            break;
        }
        // Drop the top limb once it is only sign in both `f` and `g`,
        // folding it into the limb below.
        let (fn_, gn) = (f[len - 1], g[len - 1]);
        if len > 1 && fn_ == fn_ >> 63 && gn == gn >> 63 {
            f[len - 2] |= ((fn_ as u64) << 62) as i64;
            g[len - 2] |= ((gn as u64) << 62) as i64;
            len -= 1;
        }
    }
    // `g = 0` leaves `f = ±gcd(p, x) = ±1`, and `d·x ≡ f`.
    normalize(&mut d, f[len - 1], &p, limbs(N));
    from_signed62(&d)
}

/// Sixty-two divsteps on the low bits of `f` (odd) and `g`: returns the
/// new `eta = −δ` and the transition matrix. A run of zero bits of `g` is
/// taken at once; otherwise `f` cancels the low 4 bits of `g` (6 after a
/// swap) in one step, no more than `eta + 1` of them, so `eta` changes sign
/// at most where a single divstep would.
fn divsteps_62(mut eta: i64, f0: u64, g0: u64) -> (i64, Transition) {
    let (mut u, mut v, mut q, mut r) = (1u64, 0u64, 0u64, 1u64);
    let (mut f, mut g) = (f0, g0);
    let mut i = 62;
    loop {
        // A sentinel bit at `i` stops the count at the steps left.
        let zeros = (g | (u64::MAX << i)).trailing_zeros();
        g >>= zeros;
        u <<= zeros;
        v <<= zeros;
        eta -= i64::from(zeros);
        i -= zeros;
        if i == 0 {
            break;
        }
        debug_assert!(f & 1 == 1 && g & 1 == 1);
        let limit = (eta.abs() + 1).min(i64::from(i)) as u32;
        let (mask, w);
        if eta < 0 {
            eta = -eta;
            (f, g) = (g, f.wrapping_neg());
            (u, q) = (q, u.wrapping_neg());
            (v, r) = (r, v.wrapping_neg());
            // `f·g·(f² − 2) ≡ −g/f (mod 64)` for odd `f`.
            mask = (u64::MAX >> (64 - limit)) & 63;
            w = f
                .wrapping_mul(g)
                .wrapping_mul(f.wrapping_mul(f).wrapping_sub(2))
                & mask;
        } else {
            // `f + ((f + 1) & 4)·2 ≡ f⁻¹ (mod 16)` for odd `f`.
            mask = (u64::MAX >> (64 - limit)) & 15;
            let f_inv = f.wrapping_add((f.wrapping_add(1) & 4) << 1);
            w = f_inv.wrapping_neg().wrapping_mul(g) & mask;
        }
        g = g.wrapping_add(f.wrapping_mul(w));
        q = q.wrapping_add(u.wrapping_mul(w));
        r = r.wrapping_add(v.wrapping_mul(w));
        debug_assert!(g & mask == 0);
    }
    let t = Transition {
        u: u as i64,
        v: v as i64,
        q: q as i64,
        r: r as i64,
    };
    (eta, t)
}

/// `(d, e) ← (t·(d, e) + p·(md, me)) / 2^62` over `len` limbs, with `md, me`
/// chosen so the low 62 bits vanish: the division by `2^62` is exact and
/// the pair stays congruent to `t·(d, e)/2^62 (mod p)`. Adding `(u, q)`
/// for a negative `d` and `(v, r)` for a negative `e` first keeps both in
/// `(−2p, p)`.
fn update_de(
    d: &mut Signed62,
    e: &mut Signed62,
    t: &Transition,
    p: &Signed62,
    p_inv62: u64,
    len: usize,
) {
    let (u, v, q, r) = (t.u, t.v, t.q, t.r);
    let (sd, se) = (d[len - 1] >> 63, e[len - 1] >> 63);
    let mut md = (u & sd) + (v & se);
    let mut me = (q & sd) + (r & se);
    let mut cd = mul(u, d[0]) + mul(v, e[0]);
    let mut ce = mul(q, d[0]) + mul(r, e[0]);
    md -= (p_inv62.wrapping_mul(cd as u64).wrapping_add(md as u64) & M62) as i64;
    me -= (p_inv62.wrapping_mul(ce as u64).wrapping_add(me as u64) & M62) as i64;
    cd += mul(p[0], md);
    ce += mul(p[0], me);
    debug_assert!(cd as u64 & M62 == 0 && ce as u64 & M62 == 0);
    cd >>= 62;
    ce >>= 62;
    for i in 1..len {
        cd += mul(u, d[i]) + mul(v, e[i]) + mul(p[i], md);
        ce += mul(q, d[i]) + mul(r, e[i]) + mul(p[i], me);
        d[i - 1] = (cd as u64 & M62) as i64;
        e[i - 1] = (ce as u64 & M62) as i64;
        cd >>= 62;
        ce >>= 62;
    }
    d[len - 1] = cd as i64;
    e[len - 1] = ce as i64;
}

/// `(f, g) ← t·(f, g) / 2^62` over the first `len` limbs, exact because
/// the divsteps cleared the low 62 bits of both products.
fn update_fg(f: &mut Signed62, g: &mut Signed62, t: &Transition, len: usize) {
    let (u, v, q, r) = (t.u, t.v, t.q, t.r);
    let mut cf = mul(u, f[0]) + mul(v, g[0]);
    let mut cg = mul(q, f[0]) + mul(r, g[0]);
    debug_assert!(cf as u64 & M62 == 0 && cg as u64 & M62 == 0);
    cf >>= 62;
    cg >>= 62;
    for i in 1..len {
        cf += mul(u, f[i]) + mul(v, g[i]);
        cg += mul(q, f[i]) + mul(r, g[i]);
        f[i - 1] = (cf as u64 & M62) as i64;
        g[i - 1] = (cg as u64 & M62) as i64;
        cf >>= 62;
        cg >>= 62;
    }
    f[len - 1] = cf as i64;
    g[len - 1] = cg as i64;
}

/// The full product of two limbs.
#[inline(always)]
fn mul(a: i64, b: i64) -> i128 {
    i128::from(a) * i128::from(b)
}

/// Brings `d ∈ (−2p, p)` to `sign·d mod p ∈ [0, p)` with every limb in
/// `[0, 2^62)`: add `p` if negative, negate if `sign < 0`, add `p` again if
/// that left it negative.
fn normalize(d: &mut Signed62, sign: i64, p: &Signed62, len: usize) {
    let add_p_if_negative = |d: &mut Signed62| {
        if d[len - 1] < 0 {
            for (limb, &pi) in d[..len].iter_mut().zip(p) {
                *limb += pi;
            }
        }
    };
    add_p_if_negative(d);
    if sign < 0 {
        for limb in &mut d[..len] {
            *limb = -*limb;
        }
    }
    carry(d, len);
    add_p_if_negative(d);
    carry(d, len);
}

/// Moves everything above bit 62 of each limb into the next one.
fn carry(d: &mut Signed62, len: usize) {
    for i in 0..len - 1 {
        d[i + 1] += d[i] >> 62;
        d[i] &= M62 as i64;
    }
}

/// The 62-bit limbs of a non-negative `N`-limb integer; `const` so the
/// modulus's are immediates.
const fn to_signed62<const N: usize>(x: &Uint<N>) -> Signed62 {
    let mut out = [0; MAX_LIMBS];
    let mut i = 0;
    while i < limbs(N) {
        let (word, off) = (62 * i / 64, 62 * i % 64);
        if word < N {
            let mut bits = x.0[word] >> off;
            if off > 2 && word + 1 < N {
                bits |= x.0[word + 1] << (64 - off);
            }
            out[i] = (bits & M62) as i64;
        }
        i += 1;
    }
    out
}

/// The `N`-limb integer of non-negative 62-bit limbs below `2^(64N)`.
fn from_signed62<const N: usize>(x: &Signed62) -> Uint<N> {
    let mut out = [0u64; N];
    for (i, &limb) in x.iter().enumerate().take(limbs(N)) {
        let (word, off) = (62 * i / 64, 62 * i % 64);
        if word < N {
            out[word] |= (limb as u64) << off;
            if off > 2 && word + 1 < N {
                out[word + 1] |= limb as u64 >> (64 - off);
            }
        }
    }
    Uint(out)
}
