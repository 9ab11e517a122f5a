//! Short-Weierstrass elliptic-curve arithmetic in the three coordinate
//! systems the paper compares (Table V): Affine, Jacobian, and XYZZ.
//!
//! All curves in the BLS12 family have `a = 0` (`y² = x³ + b`), which the
//! formulas below assume. The operation *decompositions* (which `FF_op` each
//! step counts as) deliberately follow the Explicit-Formulas Database
//! variants the GPU libraries use — `madd-2007-bl`/`dbl-2009-l` for Jacobian
//! and `madd-2008-s`/`dbl-2008-s` for XYZZ — so that counting them with
//! [`zkp_ff::Counted`] reproduces the paper's Table V.
//!
//! Every XYZZ `Y3` has the shape `a·b − c·d` and is computed by
//! [`Field::mul_sub_mul`]: on `Fq` and `Fq2` the two products are subtracted
//! unreduced and reduced once, while `Counted` keeps the trait's default and
//! tallies the 2 `FF_mul` and 1 `FF_sub` the formula is written with.

use core::fmt;
use core::hash::Hash;
use zkp_bigint::UBig;
use zkp_ff::{batch_inverse, Field, PrimeField};

/// Static description of a short-Weierstrass curve `y² = x³ + b` over a
/// (possibly extension) field, with a prime-order scalar field acting on the
/// cryptographic subgroup.
pub trait SwCurve:
    'static + Copy + Clone + fmt::Debug + Send + Sync + Eq + PartialEq + Hash + Default
{
    /// Field the coordinates live in (`Fq` for G1, `Fq2` for G2).
    type Base: Field;
    /// The subgroup's scalar field `Fr`.
    type Scalar: PrimeField;

    /// The constant term `b`.
    fn b() -> Self::Base;

    /// A generator of the prime-order subgroup.
    fn generator() -> Affine<Self>;

    /// The efficiently computable endomorphism an MSM splits scalars on
    /// (`φ` on BLS12 G1, `ψ` on G2). `None` — the default — makes callers
    /// such as the MSM engine fall back to the plain path.
    fn endomorphism() -> Option<&'static crate::endo::Endomorphism<Self>> {
        None
    }

    /// Curve name for diagnostics, e.g. `"BLS12-381 G1"`.
    const NAME: &'static str;
}

/// A point in affine coordinates `(x, y)`, with an explicit flag for the
/// point at infinity.
///
/// # Examples
///
/// ```
/// use zkp_curves::{Affine, Jacobian, SwCurve, bls12_381::G1};
/// let g = G1::generator();
/// let two_g = Jacobian::from(g).double().to_affine();
/// assert!(two_g.is_on_curve());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Affine<Cu: SwCurve> {
    /// The x-coordinate (meaningless when `infinity` is set).
    pub x: Cu::Base,
    /// The y-coordinate (meaningless when `infinity` is set).
    pub y: Cu::Base,
    /// Marker for the group identity.
    pub infinity: bool,
}

/// A point in Jacobian projective coordinates `(X : Y : Z)` representing
/// the affine point `(X/Z², Y/Z³)`.
#[derive(Clone, Copy)]
pub struct Jacobian<Cu: SwCurve> {
    /// Projective X.
    pub x: Cu::Base,
    /// Projective Y.
    pub y: Cu::Base,
    /// Projective Z (zero encodes the identity).
    pub z: Cu::Base,
}

/// A point in XYZZ coordinates `(X, Y, ZZ, ZZZ)` with the invariants
/// `ZZ³ = ZZZ²`, representing the affine point `(X/ZZ, Y/ZZZ)`.
///
/// This is the representation `sppark` and the ZPrize MSM entries use: it
/// has the cheapest mixed addition of the three (Table V: 17 FF_ops vs 25
/// for Jacobian) at the cost of one extra coordinate of storage.
#[derive(Clone, Copy)]
pub struct Xyzz<Cu: SwCurve> {
    /// Numerator X.
    pub x: Cu::Base,
    /// Numerator Y.
    pub y: Cu::Base,
    /// Denominator Z² (zero encodes the identity).
    pub zz: Cu::Base,
    /// Denominator Z³.
    pub zzz: Cu::Base,
}

// ---------------------------------------------------------------------------
// Affine
// ---------------------------------------------------------------------------

impl<Cu: SwCurve> Affine<Cu> {
    /// The group identity (point at infinity).
    pub fn identity() -> Self {
        Self {
            x: Cu::Base::zero(),
            y: Cu::Base::zero(),
            infinity: true,
        }
    }

    /// Constructs a point from coordinates, checking the curve equation.
    pub fn new(x: Cu::Base, y: Cu::Base) -> Option<Self> {
        let p = Self {
            x,
            y,
            infinity: false,
        };
        p.is_on_curve().then_some(p)
    }

    /// Whether this is the point at infinity.
    pub fn is_identity(&self) -> bool {
        self.infinity
    }

    /// Checks `y² = x³ + b` (vacuously true at infinity).
    pub fn is_on_curve(&self) -> bool {
        self.infinity || self.y.square() == self.x.square() * self.x + Cu::b()
    }

    /// The additive inverse.
    pub fn neg(&self) -> Self {
        Self {
            x: self.x,
            y: -self.y,
            infinity: self.infinity,
        }
    }

    /// Full affine addition — the paper's Affine `PADD` (Table V:
    /// 6 `FF_sub`, 3 `FF_mul`, 1 `FF_inv`).
    ///
    /// Complete on its inputs: a point at infinity returns the other
    /// operand, `P + (−P)` returns the identity without an inversion, and
    /// `P + P`, where the chord slope is undefined, returns
    /// [`Affine::double`] of `P` (the tangent slope, its own inversion).
    /// Batch-affine bucket accumulation relies on this for the rare bucket
    /// that meets its own point.
    pub fn add(&self, rhs: &Self) -> Self {
        if self.infinity {
            return *rhs;
        }
        if rhs.infinity {
            return *self;
        }
        if self.x == rhs.x {
            return if self.y == rhs.y {
                self.double()
            } else {
                Self::identity()
            };
        }
        let num = rhs.y - self.y;
        let den = rhs.x - self.x;
        let lambda = num * den.inverse().expect("x1 != x2");
        let x3 = lambda * lambda - self.x - rhs.x;
        let y3 = lambda * (self.x - x3) - self.y;
        Self {
            x: x3,
            y: y3,
            infinity: false,
        }
    }

    /// Affine doubling — the paper's Affine `PDBL` (Table V row: dominated
    /// by the `FF_inv` of `2y`).
    pub fn double(&self) -> Self {
        if self.infinity || self.y.is_zero() {
            return Self::identity();
        }
        let xx = self.x.square();
        let num = xx.double() + xx; // 3x²
        let den = self.y.double(); // 2y
        let lambda = num * den.inverse().expect("y != 0");
        let x3 = lambda.square() - self.x.double();
        let y3 = lambda * (self.x - x3) - self.y;
        Self {
            x: x3,
            y: y3,
            infinity: false,
        }
    }

    /// Scalar multiplication (double-and-add over the canonical scalar).
    pub fn mul_scalar(&self, k: &Cu::Scalar) -> Jacobian<Cu> {
        Jacobian::from(*self).mul_scalar(k)
    }
}

impl<Cu: SwCurve> fmt::Debug for Affine<Cu> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.infinity {
            write!(f, "{}::infinity", Cu::NAME)
        } else {
            write!(f, "{}({:?}, {:?})", Cu::NAME, self.x, self.y)
        }
    }
}

// ---------------------------------------------------------------------------
// Jacobian
// ---------------------------------------------------------------------------

impl<Cu: SwCurve> Jacobian<Cu> {
    /// The group identity.
    pub fn identity() -> Self {
        Self {
            x: Cu::Base::one(),
            y: Cu::Base::one(),
            z: Cu::Base::zero(),
        }
    }

    /// Whether this is the identity.
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Converts to affine coordinates (one field inversion).
    pub fn to_affine(&self) -> Affine<Cu> {
        if self.is_identity() {
            return Affine::identity();
        }
        let zinv = self.z.inverse().expect("non-identity");
        let zinv2 = zinv.square();
        Affine {
            x: self.x * zinv2,
            y: self.y * zinv2 * zinv,
            infinity: false,
        }
    }

    /// Point doubling — Jacobian `PDBL`, EFD `dbl-2009-l` (2M + 5S).
    pub fn double(&self) -> Self {
        if self.is_identity() {
            return *self;
        }
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        // D = 2((X+B)² - A - C)
        let d = ((self.x + b).square() - a - c).double();
        let e = a.double() + a; // 3A
        let f = e.square();
        let x3 = f - d.double();
        let y3 = e * (d - x3) - c.double().double().double(); // 8C
        let z3 = (self.y * self.z).double();
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition with an affine point — Jacobian `PADD`, EFD
    /// `madd-2007-bl` (7M + 4S). This is the hot operation of Pippenger
    /// bucket accumulation.
    pub fn add_affine(&self, rhs: &Affine<Cu>) -> Self {
        if rhs.infinity {
            return *self;
        }
        if self.is_identity() {
            return Self::from(*rhs);
        }
        let z1z1 = self.z.square();
        let u2 = rhs.x * z1z1;
        let s2 = rhs.y * self.z * z1z1;
        if u2 == self.x {
            return if s2 == self.y {
                self.double()
            } else {
                Self::identity()
            };
        }
        let h = u2 - self.x;
        let hh = h.square();
        let i = hh.double().double(); // 4HH
        let j = h * i;
        let r = (s2 - self.y).double();
        let v = self.x * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (self.y * j).double();
        let z3 = (self.z + h).square() - z1z1 - hh;
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Full Jacobian + Jacobian addition (EFD `add-2007-bl`).
    pub fn add(&self, rhs: &Self) -> Self {
        if self.is_identity() {
            return *rhs;
        }
        if rhs.is_identity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = rhs.z.square();
        let u1 = self.x * z2z2;
        let u2 = rhs.x * z1z1;
        let s1 = self.y * rhs.z * z2z2;
        let s2 = rhs.y * self.z * z1z1;
        if u1 == u2 {
            return if s1 == s2 {
                self.double()
            } else {
                Self::identity()
            };
        }
        let h = u2 - u1;
        let i = h.double().square();
        let j = h * i;
        let r = (s2 - s1).double();
        let v = u1 * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (s1 * j).double();
        let z3 = ((self.z + rhs.z).square() - z1z1 - z2z2) * h;
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// The additive inverse.
    pub fn neg(&self) -> Self {
        Self {
            x: self.x,
            y: -self.y,
            z: self.z,
        }
    }

    /// Scalar multiplication by a little-endian limb-encoded integer.
    pub fn mul_limbs(&self, k: &[u64]) -> Self {
        let mut acc = Self::identity();
        let mut started = false;
        for i in (0..64 * k.len()).rev() {
            if started {
                acc = acc.double();
            }
            if (k[i / 64] >> (i % 64)) & 1 == 1 {
                acc = acc.add(self);
                started = true;
            }
        }
        acc
    }

    /// Scalar multiplication by an arbitrary-precision integer (used for
    /// cofactor clearing during curve-constant derivation).
    pub fn mul_ubig(&self, k: &UBig) -> Self {
        self.mul_limbs(k.limbs())
    }

    /// Scalar multiplication by a scalar-field element.
    pub fn mul_scalar(&self, k: &Cu::Scalar) -> Self {
        // Trailing zero limbs are harmless to `mul_limbs` (it skips
        // leading zeros), so a fixed stack buffer avoids the allocation.
        if Cu::Scalar::NUM_LIMBS <= 8 {
            let mut limbs = [0u64; 8];
            k.write_uint(&mut limbs);
            self.mul_limbs(&limbs)
        } else {
            self.mul_limbs(&k.to_uint())
        }
    }
}

impl<Cu: SwCurve> From<Affine<Cu>> for Jacobian<Cu> {
    fn from(p: Affine<Cu>) -> Self {
        if p.infinity {
            Self::identity()
        } else {
            Self {
                x: p.x,
                y: p.y,
                z: Cu::Base::one(),
            }
        }
    }
}

impl<Cu: SwCurve> PartialEq for Jacobian<Cu> {
    /// Equality of the represented group elements (cross-multiplied, no
    /// inversion).
    fn eq(&self, other: &Self) -> bool {
        match (self.is_identity(), other.is_identity()) {
            (true, true) => true,
            (true, false) | (false, true) => false,
            _ => {
                let z1z1 = self.z.square();
                let z2z2 = other.z.square();
                self.x * z2z2 == other.x * z1z1
                    && self.y * z2z2 * other.z == other.y * z1z1 * self.z
            }
        }
    }
}

impl<Cu: SwCurve> Eq for Jacobian<Cu> {}

impl<Cu: SwCurve> fmt::Debug for Jacobian<Cu> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:?}", Cu::NAME, self.to_affine())
    }
}

// ---------------------------------------------------------------------------
// XYZZ
// ---------------------------------------------------------------------------

impl<Cu: SwCurve> Xyzz<Cu> {
    /// The group identity.
    pub fn identity() -> Self {
        Self {
            x: Cu::Base::one(),
            y: Cu::Base::one(),
            zz: Cu::Base::zero(),
            zzz: Cu::Base::zero(),
        }
    }

    /// Whether this is the identity.
    pub fn is_identity(&self) -> bool {
        self.zz.is_zero()
    }

    /// Converts to affine coordinates (one field inversion).
    pub fn to_affine(&self) -> Affine<Cu> {
        if self.is_identity() {
            return Affine::identity();
        }
        Affine {
            x: self.x * self.zz.inverse().expect("non-identity"),
            y: self.y * self.zzz.inverse().expect("non-identity"),
            infinity: false,
        }
    }

    /// Point doubling — XYZZ `PDBL`, EFD `dbl-2008-s` (6M + 3S; Table V:
    /// 1 add, 3 sub, 3 dbl, 6 mul, 3 sqr).
    pub fn double(&self) -> Self {
        if self.is_identity() {
            return *self;
        }
        let u = self.y.double();
        let v = u.square();
        let w = u * v;
        let s = self.x * v;
        let xx = self.x.square();
        let m = xx.double() + xx; // 3X²
        let x3 = m.square() - s.double();
        let y3 = Cu::Base::mul_sub_mul(m, s - x3, w, self.y);
        Self {
            x: x3,
            y: y3,
            zz: v * self.zz,
            zzz: w * self.zzz,
        }
    }

    /// Mixed addition with an affine point — XYZZ `PADD`, EFD `madd-2008-s`
    /// (8M + 2S; Table V: 6 sub, 1 dbl, 8 mul, 2 sqr). The cheapest mixed
    /// addition of the three representations.
    pub fn add_affine(&self, rhs: &Affine<Cu>) -> Self {
        if rhs.infinity {
            return *self;
        }
        if self.is_identity() {
            return Self::from(*rhs);
        }
        let u2 = rhs.x * self.zz;
        let s2 = rhs.y * self.zzz;
        if u2 == self.x {
            return if s2 == self.y {
                self.double()
            } else {
                Self::identity()
            };
        }
        let p = u2 - self.x;
        let r = s2 - self.y;
        let pp = p.square();
        let ppp = p * pp;
        let q = self.x * pp;
        let x3 = r.square() - ppp - q.double();
        let y3 = Cu::Base::mul_sub_mul(r, q - x3, self.y, ppp);
        Self {
            x: x3,
            y: y3,
            zz: self.zz * pp,
            zzz: self.zzz * ppp,
        }
    }

    /// Full XYZZ + XYZZ addition (EFD `add-2008-s`).
    pub fn add(&self, rhs: &Self) -> Self {
        if self.is_identity() {
            return *rhs;
        }
        if rhs.is_identity() {
            return *self;
        }
        let u1 = self.x * rhs.zz;
        let u2 = rhs.x * self.zz;
        let s1 = self.y * rhs.zzz;
        let s2 = rhs.y * self.zzz;
        if u1 == u2 {
            return if s1 == s2 {
                self.double()
            } else {
                Self::identity()
            };
        }
        let p = u2 - u1;
        let r = s2 - s1;
        let pp = p.square();
        let ppp = p * pp;
        let q = u1 * pp;
        let x3 = r.square() - ppp - q.double();
        let y3 = Cu::Base::mul_sub_mul(r, q - x3, s1, ppp);
        Self {
            x: x3,
            y: y3,
            zz: self.zz * rhs.zz * pp,
            zzz: self.zzz * rhs.zzz * ppp,
        }
    }

    /// The additive inverse.
    pub fn neg(&self) -> Self {
        Self {
            x: self.x,
            y: -self.y,
            zz: self.zz,
            zzz: self.zzz,
        }
    }

    /// Converts to Jacobian coordinates without an inversion: the affine
    /// point `(X/ZZ, Y/ZZZ)` is `(X'/Z'², Y'/Z'³)` for `Z' = ZZ·ZZZ`,
    /// `X' = X·ZZ·ZZZ²` and `Y' = Y·ZZ³·ZZZ²`.
    pub fn to_jacobian(&self) -> Jacobian<Cu> {
        if self.is_identity() {
            return Jacobian::identity();
        }
        // X' = X·Z'²/ZZ and Y' = Y·Z'³/ZZZ, with the divisions cancelled.
        let z = self.zz * self.zzz;
        let zz2 = self.zzz.square();
        Jacobian {
            x: self.x * self.zz * zz2,
            y: self.y * self.zz.square() * self.zz * zz2,
            z,
        }
    }
}

impl<Cu: SwCurve> From<Affine<Cu>> for Xyzz<Cu> {
    fn from(p: Affine<Cu>) -> Self {
        if p.infinity {
            Self::identity()
        } else {
            Self {
                x: p.x,
                y: p.y,
                zz: Cu::Base::one(),
                zzz: Cu::Base::one(),
            }
        }
    }
}

impl<Cu: SwCurve> PartialEq for Xyzz<Cu> {
    fn eq(&self, other: &Self) -> bool {
        match (self.is_identity(), other.is_identity()) {
            (true, true) => true,
            (true, false) | (false, true) => false,
            _ => self.x * other.zz == other.x * self.zz && self.y * other.zzz == other.y * self.zzz,
        }
    }
}

impl<Cu: SwCurve> Eq for Xyzz<Cu> {}

impl<Cu: SwCurve> fmt::Debug for Xyzz<Cu> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:?}", Cu::NAME, self.to_affine())
    }
}

/// Normalizes a batch of Jacobian points to affine with a single inversion
/// (Montgomery trick — §IV-D1b applied to point coordinates).
pub fn batch_to_affine<Cu: SwCurve>(points: &[Jacobian<Cu>]) -> Vec<Affine<Cu>> {
    let mut zs: Vec<Cu::Base> = points.iter().map(|p| p.z).collect();
    batch_inverse(&mut zs);
    points
        .iter()
        .zip(&zs)
        .map(|(p, zinv)| {
            if p.is_identity() {
                Affine::identity()
            } else {
                let zinv2 = zinv.square();
                Affine {
                    x: p.x * zinv2,
                    y: p.y * zinv2 * *zinv,
                    infinity: false,
                }
            }
        })
        .collect()
}
