//! Fixed-point time arithmetic used across the whole workspace.
//!
//! Simulated *true time* as well as local clock readings are represented in
//! integer **picoseconds** (`i64`). Picosecond resolution leaves comfortable
//! headroom below the smallest physical effects we model (sub-nanosecond
//! drift accumulation per event) while an `i64` still spans ±106 days, far
//! beyond the paper's longest 3600 s measurement runs. Using a fixed-point
//! integer instead of `f64` keeps comparisons exact and event ordering
//! deterministic.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// Picoseconds per second.
pub const PS_PER_SEC: i64 = 1_000_000_000_000;
/// Picoseconds per millisecond.
pub const PS_PER_MS: i64 = 1_000_000_000;
/// Picoseconds per microsecond.
pub const PS_PER_US: i64 = 1_000_000;
/// Picoseconds per nanosecond.
pub const PS_PER_NS: i64 = 1_000;

/// An instant on some time axis (true time or a local clock), in picoseconds
/// since that axis' origin. May be negative: a worker clock that starts
/// behind the master produces negative local readings near the origin.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Time(i64);

/// A signed span between two [`Time`] values, in picoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Dur(i64);

impl Time {
    /// The origin of the axis.
    pub const ZERO: Time = Time(0);
    /// Largest representable instant.
    pub const MAX: Time = Time(i64::MAX);
    /// Smallest representable instant.
    pub const MIN: Time = Time(i64::MIN);

    /// Instant from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: i64) -> Self {
        Time(ps)
    }

    /// Instant from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: i64) -> Self {
        Time(ns * PS_PER_NS)
    }

    /// Instant from microseconds.
    #[inline]
    pub const fn from_us(us: i64) -> Self {
        Time(us * PS_PER_US)
    }

    /// Instant from milliseconds.
    #[inline]
    pub const fn from_ms(ms: i64) -> Self {
        Time(ms * PS_PER_MS)
    }

    /// Instant from whole seconds.
    #[inline]
    pub const fn from_secs(s: i64) -> Self {
        Time(s * PS_PER_SEC)
    }

    /// Instant from fractional seconds (rounded to the nearest picosecond).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        Time((s * PS_PER_SEC as f64).round() as i64)
    }

    /// Raw picoseconds.
    #[inline]
    pub const fn as_ps(self) -> i64 {
        self.0
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// Fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Element-wise maximum.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// Element-wise minimum.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }

    /// Saturating addition of a span.
    #[inline]
    pub fn saturating_add(self, d: Dur) -> Time {
        Time(self.0.saturating_add(d.0))
    }

    /// Saturating subtraction of a span.
    #[inline]
    pub fn saturating_sub(self, d: Dur) -> Time {
        Time(self.0.saturating_sub(d.0))
    }

    /// Saturating span from `earlier` to `self` (`self - earlier`, clamped
    /// to the representable range instead of wrapping or panicking).
    ///
    /// The CLC kernels run over tenant-supplied timestamps, which may sit
    /// at the `i64` edges; plain `Time - Time` debug-panics there.
    #[inline]
    pub fn saturating_since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// Round down to an integer multiple of `res` (no-op for `res <= 1 ps`).
    ///
    /// Models the finite resolution of a timer: `gettimeofday()` cannot
    /// report below one microsecond, a 3 GHz timestamp counter below one
    /// third of a nanosecond.
    #[inline]
    pub fn quantize(self, res: Dur) -> Time {
        if res.0 <= 1 {
            return self;
        }
        Time(self.0.div_euclid(res.0) * res.0)
    }
}

impl Dur {
    /// Zero-length span.
    pub const ZERO: Dur = Dur(0);
    /// Largest representable span.
    pub const MAX: Dur = Dur(i64::MAX);

    /// Span from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: i64) -> Self {
        Dur(ps)
    }

    /// Span from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: i64) -> Self {
        Dur(ns * PS_PER_NS)
    }

    /// Span from microseconds.
    #[inline]
    pub const fn from_us(us: i64) -> Self {
        Dur(us * PS_PER_US)
    }

    /// Span from milliseconds.
    #[inline]
    pub const fn from_ms(ms: i64) -> Self {
        Dur(ms * PS_PER_MS)
    }

    /// Span from whole seconds.
    #[inline]
    pub const fn from_secs(s: i64) -> Self {
        Dur(s * PS_PER_SEC)
    }

    /// Span from fractional seconds (rounded to the nearest picosecond).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        Dur((s * PS_PER_SEC as f64).round() as i64)
    }

    /// Span from fractional microseconds.
    #[inline]
    pub fn from_us_f64(us: f64) -> Self {
        Dur((us * PS_PER_US as f64).round() as i64)
    }

    /// Raw picoseconds.
    #[inline]
    pub const fn as_ps(self) -> i64 {
        self.0
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// Fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Fractional nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Absolute value.
    #[inline]
    pub const fn abs(self) -> Dur {
        Dur(self.0.abs())
    }

    /// True if the span is negative.
    #[inline]
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Element-wise maximum.
    #[inline]
    pub fn max(self, other: Dur) -> Dur {
        Dur(self.0.max(other.0))
    }

    /// Element-wise minimum.
    #[inline]
    pub fn min(self, other: Dur) -> Dur {
        Dur(self.0.min(other.0))
    }

    /// Multiply by a dimensionless factor, rounding to the nearest ps, ties
    /// away from zero, saturating at the `i64` edges — bit for bit
    /// `(ps as f64 * f).round() as i64`. `f64::round` is a libm call on
    /// baseline x86-64 and this sits on the CLC's per-event path, so the
    /// rounding is one addition and the truncating cast instead.
    ///
    /// Why `(y + h.copysign(y)) as i64`, with `h = ½ − 2⁻⁵⁴` the double just
    /// below one half, is that rounding — for `y ≥ 0` (signs mirror) with
    /// integer part `n` and `u` the spacing of doubles at `y`:
    ///
    /// * `y < ½`: the exact sum is at most `2h`, the double just below 1,
    ///   and float rounding is monotone — it truncates to 0;
    /// * fraction below ½, `y ≥ 1`: the fraction is at most `½ − u` (zero
    ///   once `u ≥ ½`), so the exact sum lies below `n + 1 − u`, itself a
    ///   double; the rounded sum stays below `n + 1` and truncates to `n`.
    ///   From `2⁵²` on `y` is an integer and `+ h` rounds straight back;
    /// * fraction at least ½: the exact sum is at least `n + 1 − 2⁻⁵⁴`,
    ///   nearer to `n + 1` than to any double below it (for `n = 0` a tie,
    ///   which round-to-even gives to `1.0`) and below `n + 2`: it
    ///   truncates to `n + 1`. (A plain `+ 0.5` fails the first case: it
    ///   carries `h` itself up to 1.)
    ///
    /// NaN casts to 0 and ±∞ saturate either way. Pinned against
    /// `f64::round` over the full range by this module's tests.
    #[inline]
    pub fn scale(self, f: f64) -> Dur {
        let y = self.0 as f64 * f;
        Dur((y + 0.499_999_999_999_999_94_f64.copysign(y)) as i64)
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Dur) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Dur) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign<Dur> for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Dur) {
        self.0 -= rhs.0;
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Time) -> Dur {
        Dur(self.0 - rhs.0)
    }
}

impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}

impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0 - rhs.0)
    }
}

impl SubAssign for Dur {
    #[inline]
    fn sub_assign(&mut self, rhs: Dur) {
        self.0 -= rhs.0;
    }
}

impl Neg for Dur {
    type Output = Dur;
    #[inline]
    fn neg(self) -> Dur {
        Dur(-self.0)
    }
}

impl Mul<i64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: i64) -> Dur {
        Dur(self.0 * rhs)
    }
}

impl Div<i64> for Dur {
    type Output = Dur;
    #[inline]
    fn div(self, rhs: i64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T[{:.9}s]", self.as_secs_f64())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.9}", self.as_secs_f64())
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D[{:.3}us]", self.as_us_f64())
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Time::from_secs(2), Time::from_ms(2000));
        assert_eq!(Time::from_ms(3), Time::from_us(3000));
        assert_eq!(Time::from_us(5), Time::from_ns(5000));
        assert_eq!(Time::from_ns(7), Time::from_ps(7000));
        assert_eq!(Dur::from_secs(1), Dur::from_ps(PS_PER_SEC));
    }

    #[test]
    fn float_round_trip() {
        let t = Time::from_secs_f64(1_234.567_890_123);
        assert!((t.as_secs_f64() - 1_234.567_890_123).abs() < 1e-9);
        let d = Dur::from_us_f64(4.29);
        assert!((d.as_us_f64() - 4.29).abs() < 1e-6);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_secs(10);
        let d = Dur::from_us(250);
        assert_eq!((t + d) - t, d);
        assert_eq!(t - d + d, t);
        assert_eq!(d * 4, Dur::from_ms(1));
        assert_eq!(Dur::from_ms(1) / 4, d);
        assert_eq!(-d + d, Dur::ZERO);
    }

    #[test]
    fn quantize_floors_to_grid() {
        let res = Dur::from_us(1);
        let t = Time::from_ns(1999);
        assert_eq!(t.quantize(res), Time::from_us(1));
        // Negative instants still land on the grid below.
        let neg = Time::from_ns(-500);
        assert_eq!(neg.quantize(res), Time::from_us(-1));
        // Sub-picosecond resolution is a no-op.
        assert_eq!(t.quantize(Dur::from_ps(1)), t);
    }

    #[test]
    fn ordering_and_minmax() {
        let a = Time::from_us(1);
        let b = Time::from_us(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(Dur::from_us(-3).abs(), Dur::from_us(3));
        assert!(Dur::from_ns(-1).is_negative());
    }

    #[test]
    fn scale_rounds() {
        let d = Dur::from_us(10);
        assert_eq!(d.scale(0.5), Dur::from_us(5));
        assert_eq!(d.scale(1e-6), Dur::from_ps(10));
    }

    /// What `scale` must equal, bit for bit: the libm rounding it replaced.
    fn scale_by_round(d: i64, f: f64) -> i64 {
        (d as f64 * f).round() as i64
    }

    #[test]
    fn scale_equals_libm_round_on_the_hard_cases() {
        let p52 = 1i64 << 52;
        let mut spans = vec![0, 1, -1, 2, 3, 5, 7, 999_999, i64::MAX, i64::MIN, i64::MAX - 1];
        for e in [51, 52, 53, 62] {
            let p = 1i64 << e;
            spans.extend([p - 3, p - 1, p, p + 1, p + 3, -p - 1, -p, -p + 1]);
        }
        // Odd spans × 0.5 are exact halves up to 2⁵³; around 2⁵¹ and 2⁵²
        // the spacing of doubles passes through ½ and 1.
        spans.extend((0..64).map(|j| 2 * j + 1));
        spans.extend((0..64).flat_map(|j| [p52 - 1 - 2 * j, 2 * p52 - 1 - 2 * j, p52 / 2 + 1 + 2 * j]));
        let below_half = 0.499_999_999_999_999_94_f64;
        let factors = [
            0.5, 0.99, 1.0, 50.0, 0.0, -0.0, -0.5, -1.0, 0.25, 0.75, 1e-6, 1e-18, 1e18, below_half,
            f64::EPSILON, f64::MIN_POSITIVE, f64::MAX, f64::NAN, f64::INFINITY, f64::NEG_INFINITY,
        ];
        for &d in &spans {
            for &f in &factors {
                let got = Dur::from_ps(d).scale(f).as_ps();
                assert_eq!(got, scale_by_round(d, f), "{d} ps × {f:e}");
            }
        }
        // The one double a plain `+ 0.5` gets wrong, reached exactly.
        assert_eq!(Dur::from_ps(1).scale(below_half), Dur::ZERO);
        assert_eq!(Dur::from_ps(-1).scale(below_half), Dur::ZERO);
        assert_eq!(Dur::from_ps(1).scale(0.5), Dur::from_ps(1));
        assert_eq!(Dur::from_ps(-1).scale(0.5), Dur::from_ps(-1));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        /// Full-range spans against the factors the CLC uses (`mu`, the
        /// literal 1.0 of the re-forward pass, the backward window factor,
        /// a clamped ramp fraction) and arbitrary ones.
        #[test]
        fn scale_equals_libm_round(
            d in i64::MIN..i64::MAX,
            shift in 0u32..64,
            frac in 0.0f64..1.0,
            wide in -1e6f64..1e6,
        ) {
            // Uniform draws are nearly all above 2⁶²: shift some down so
            // every magnitude — every double spacing — is covered.
            let d = d >> shift;
            for f in [0.99, 1.0, 50.0, 0.5, 1.0 - frac, frac.clamp(0.0, 1.0), wide] {
                proptest::prop_assert_eq!(Dur::from_ps(d).scale(f).as_ps(), scale_by_round(d, f));
            }
            let odd = d | 1;
            proptest::prop_assert_eq!(Dur::from_ps(odd).scale(0.5).as_ps(), scale_by_round(odd, 0.5));
        }
    }

    #[test]
    fn saturating_ops_clamp_at_the_edges() {
        assert_eq!(Time::MAX.saturating_add(Dur::from_ps(1)), Time::MAX);
        assert_eq!(Time::MIN.saturating_sub(Dur::from_ps(1)), Time::MIN);
        assert_eq!(Time::MAX.saturating_since(Time::MIN), Dur::MAX);
        assert_eq!(
            Time::MIN.saturating_since(Time::MAX),
            Dur::from_ps(i64::MIN)
        );
        assert_eq!(Dur::MAX.saturating_add(Dur::from_ps(1)), Dur::MAX);
        assert_eq!(
            Dur::from_ps(i64::MIN).saturating_sub(Dur::from_ps(1)),
            Dur::from_ps(i64::MIN)
        );
        // Away from the edges the saturating forms are the plain ops.
        let t = Time::from_us(5);
        let d = Dur::from_us(2);
        assert_eq!(t.saturating_add(d), t + d);
        assert_eq!(t.saturating_sub(d), t - d);
        assert_eq!(t.saturating_since(Time::from_us(1)), Dur::from_us(4));
    }
}
