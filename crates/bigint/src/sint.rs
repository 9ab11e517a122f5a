//! Signed arbitrary-precision integers: a sign and a [`UBig`] magnitude.

use crate::UBig;

/// A signed arbitrary-precision integer (sign–magnitude over [`UBig`]).
///
/// Zero is always stored non-negative, so the derived equality is numeric
/// equality. There is deliberately no ordering: comparing the fields would
/// order by sign first, which is not numeric order.
///
/// # Examples
///
/// ```
/// use zkp_bigint::{SInt, UBig};
///
/// let a = SInt::from(10u64);
/// let d = a.sub(&SInt::from(25u64)); // -15
/// assert!(d.neg);
/// assert_eq!(d.abs, UBig::from(15u64));
/// assert_eq!(d.mul(&d), SInt::from(225u64));
/// assert!(d.add(&d.negated()).is_zero());
/// let h = SInt::new(UBig::from(30u64), true).half_exact(); // -15
/// assert_eq!(h, d);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SInt {
    /// Absolute value.
    pub abs: UBig,
    /// Sign; `true` means negative. Zero is stored non-negative.
    pub neg: bool,
}

impl SInt {
    /// Zero.
    pub fn zero() -> Self {
        Self::from_ubig(UBig::zero())
    }

    /// Builds a non-negative value.
    pub fn from_ubig(abs: UBig) -> Self {
        Self { abs, neg: false }
    }

    /// Builds with an explicit sign (a negative zero is stored as zero).
    pub fn new(abs: UBig, neg: bool) -> Self {
        let neg = neg && !abs.is_zero();
        Self { abs, neg }
    }

    /// Whether the value is zero.
    pub fn is_zero(&self) -> bool {
        self.abs.is_zero()
    }

    /// The additive inverse.
    pub fn negated(&self) -> Self {
        Self::new(self.abs.clone(), !self.neg)
    }

    /// Addition.
    pub fn add(&self, rhs: &Self) -> Self {
        if self.neg == rhs.neg {
            Self::new(self.abs.add(&rhs.abs), self.neg)
        } else if self.abs >= rhs.abs {
            Self::new(self.abs.sub(&rhs.abs), self.neg)
        } else {
            Self::new(rhs.abs.sub(&self.abs), rhs.neg)
        }
    }

    /// Subtraction.
    pub fn sub(&self, rhs: &Self) -> Self {
        self.add(&rhs.negated())
    }

    /// Multiplication.
    pub fn mul(&self, rhs: &Self) -> Self {
        Self::new(self.abs.mul(&rhs.abs), self.neg != rhs.neg)
    }

    /// Exact halving.
    ///
    /// # Panics
    ///
    /// Panics if the value is odd.
    pub fn half_exact(&self) -> Self {
        assert!(self.abs.is_even(), "SInt::half_exact on odd value");
        Self::new(self.abs.shr(1), self.neg)
    }

    /// Converts to `UBig`.
    ///
    /// # Panics
    ///
    /// Panics if negative.
    pub fn into_ubig(self) -> UBig {
        assert!(!self.neg, "expected non-negative value");
        self.abs
    }
}

impl From<u64> for SInt {
    fn from(v: u64) -> Self {
        Self::from_ubig(UBig::from(v))
    }
}
