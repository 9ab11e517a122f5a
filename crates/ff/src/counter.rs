//! Operation-counting instrumentation.
//!
//! The paper's finite-field layer analysis (Fig. 8, Table V, Fig. 12) is
//! built on *operation counts*: how many `FF_add` / `FF_sub` / `FF_dbl` /
//! `FF_mul` / `FF_sqr` / `FF_inv` a kernel performs. [`Counted<F>`] wraps
//! any [`Field`] and tallies every operation into a thread-local
//! [`OpCounts`], so the exact production algorithms (curve formulas,
//! Pippenger, NTT butterflies) can be measured without modification.

use crate::traits::Field;
use core::cell::Cell;
use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use rand::Rng;

/// Tally of finite-field operations, named as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    /// `FF_add` — modular additions.
    pub add: u64,
    /// `FF_sub` — modular subtractions (includes negations).
    pub sub: u64,
    /// `FF_dbl` — modular doublings.
    pub dbl: u64,
    /// `FF_mul` — modular multiplications.
    pub mul: u64,
    /// `FF_sqr` — modular squarings.
    pub sqr: u64,
    /// `FF_inv` — modular inversions.
    pub inv: u64,
}

impl OpCounts {
    /// Total operations of any kind.
    pub fn total(&self) -> u64 {
        self.add + self.sub + self.dbl + self.mul + self.sqr + self.inv
    }

    /// Fraction of operations that are `FF_mul`/`FF_sqr`, as in Table V's
    /// bottom row.
    pub fn mul_sqr_fraction(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.mul + self.sqr) as f64 / self.total() as f64
    }

    /// Element-wise difference (`self - earlier`), for windowed measurement.
    pub fn since(&self, earlier: &OpCounts) -> OpCounts {
        OpCounts {
            add: self.add - earlier.add,
            sub: self.sub - earlier.sub,
            dbl: self.dbl - earlier.dbl,
            mul: self.mul - earlier.mul,
            sqr: self.sqr - earlier.sqr,
            inv: self.inv - earlier.inv,
        }
    }
}

impl fmt::Display for OpCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "add={} sub={} dbl={} mul={} sqr={} inv={}",
            self.add, self.sub, self.dbl, self.mul, self.sqr, self.inv
        )
    }
}

thread_local! {
    static COUNTS: Cell<OpCounts> = const { Cell::new(OpCounts {
        add: 0, sub: 0, dbl: 0, mul: 0, sqr: 0, inv: 0,
    }) };
}

fn bump(f: impl FnOnce(&mut OpCounts)) {
    COUNTS.with(|c| {
        let mut v = c.get();
        f(&mut v);
        c.set(v);
    });
}

/// Snapshot of this thread's operation tally.
pub fn current_counts() -> OpCounts {
    COUNTS.with(|c| c.get())
}

/// Resets this thread's tally to zero.
pub fn reset_counts() {
    COUNTS.with(|c| c.set(OpCounts::default()));
}

/// Runs `f` and returns its result together with the operations it performed
/// on this thread.
///
/// # Examples
///
/// ```
/// use zkp_ff::{counter::{with_counting, Counted}, Field, Fr381};
/// let (_, counts) = with_counting(|| {
///     let a = Counted::from(Fr381::from_u64(3));
///     let b = Counted::from(Fr381::from_u64(4));
///     a * b + a
/// });
/// assert_eq!(counts.mul, 1);
/// assert_eq!(counts.add, 1);
/// ```
pub fn with_counting<T>(f: impl FnOnce() -> T) -> (T, OpCounts) {
    let before = current_counts();
    let out = f();
    let after = current_counts();
    (out, after.since(&before))
}

/// A [`Field`] wrapper that counts every operation performed through it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Counted<F: Field>(pub F);

impl<F: Field> From<F> for Counted<F> {
    fn from(f: F) -> Self {
        Counted(f)
    }
}

impl<F: Field> Counted<F> {
    /// Unwraps the underlying element.
    pub fn into_inner(self) -> F {
        self.0
    }
}

impl<F: Field> Field for Counted<F> {
    fn zero() -> Self {
        Counted(F::zero())
    }
    fn one() -> Self {
        Counted(F::one())
    }
    fn is_zero(&self) -> bool {
        self.0.is_zero()
    }
    fn double(&self) -> Self {
        bump(|c| c.dbl += 1);
        Counted(self.0.double())
    }
    fn square(&self) -> Self {
        bump(|c| c.sqr += 1);
        Counted(self.0.square())
    }
    fn inverse(&self) -> Option<Self> {
        bump(|c| c.inv += 1);
        self.0.inverse().map(Counted)
    }
    fn from_u64(v: u64) -> Self {
        Counted(F::from_u64(v))
    }
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Counted(F::random(rng))
    }
}

impl<F: Field> Add for Counted<F> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        bump(|c| c.add += 1);
        Counted(self.0 + rhs.0)
    }
}

impl<F: Field> Sub for Counted<F> {
    type Output = Self;
    // The `+` is on the op counter, not the wrapped value.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn sub(self, rhs: Self) -> Self {
        bump(|c| c.sub += 1);
        Counted(self.0 - rhs.0)
    }
}

impl<F: Field> Mul for Counted<F> {
    type Output = Self;
    // The `+` is on the op counter, not the wrapped value.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn mul(self, rhs: Self) -> Self {
        bump(|c| c.mul += 1);
        Counted(self.0 * rhs.0)
    }
}

impl<F: Field> Neg for Counted<F> {
    type Output = Self;
    fn neg(self) -> Self {
        bump(|c| c.sub += 1);
        Counted(-self.0)
    }
}

impl<F: Field> AddAssign for Counted<F> {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<F: Field> SubAssign for Counted<F> {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<F: Field> MulAssign for Counted<F> {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<F: Field> Sum for Counted<F> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::zero(), |a, b| a + b)
    }
}

impl<F: Field> Product for Counted<F> {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::one(), |a, b| a * b)
    }
}

impl<F: Field> fmt::Debug for Counted<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Counted({:?})", self.0)
    }
}

impl<F: Field> fmt::Display for Counted<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::Fr381;

    #[test]
    fn counts_each_op_kind() {
        let ((), counts) = with_counting(|| {
            let a = Counted::from(Fr381::from_u64(5));
            let b = Counted::from(Fr381::from_u64(6));
            let _ = a + b;
            let _ = a - b;
            let _ = a * b;
            let _ = a.double();
            let _ = a.square();
            let _ = a.inverse();
            let _ = -a;
        });
        assert_eq!(
            counts,
            OpCounts {
                add: 1,
                sub: 2, // explicit sub + neg
                dbl: 1,
                mul: 1,
                sqr: 1,
                inv: 1,
            }
        );
        assert_eq!(counts.total(), 7);
    }

    #[test]
    fn mul_sub_mul_counts_as_the_formula_is_written() {
        let (a, b) = (
            Counted::from(Fr381::from_u64(7)),
            Counted::from(Fr381::from_u64(3)),
        );
        let (v, counts) = with_counting(|| Counted::mul_sub_mul(b, b, a, b));
        assert_eq!(v.into_inner(), -Fr381::from_u64(12));
        assert_eq!(
            counts,
            OpCounts {
                mul: 2,
                sub: 1,
                ..OpCounts::default()
            }
        );
    }

    #[test]
    fn nested_windows_compose() {
        reset_counts();
        let a = Counted::from(Fr381::from_u64(2));
        let _ = a * a;
        let (_, inner) = with_counting(|| {
            let _ = a * a;
            let _ = a * a;
        });
        assert_eq!(inner.mul, 2);
        assert_eq!(current_counts().mul, 3);
    }

    #[test]
    fn computation_is_transparent() {
        let a = Counted::from(Fr381::from_u64(10));
        let b = Counted::from(Fr381::from_u64(3));
        assert_eq!((a * b).into_inner(), Fr381::from_u64(30));
        assert_eq!((a - b).into_inner(), Fr381::from_u64(7));
    }
}
