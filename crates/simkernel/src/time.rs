//! Virtual time for the simulation.
//!
//! Time is a `u64` count of nanoseconds since simulation start. Nanosecond
//! resolution comfortably covers the paper's scales: serialization of a
//! 64 B frame at 10 Gbit/s takes 67.2 ns, and a full case-study experiment
//! spans about three hours of virtual time (≈ 1.08 × 10¹³ ns), far below
//! `u64::MAX`.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// An instant on the simulation clock, in nanoseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from nanoseconds since simulation start.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant from microseconds since simulation start.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates an instant from milliseconds since simulation start.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates an instant from seconds since simulation start.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (lossy; for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`; simulated clocks never run
    /// backwards, so this indicates a logic error in the caller.
    #[inline]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::duration_since: earlier instant is in the future"),
        )
    }

    /// The duration elapsed since `earlier`, or zero if `earlier` is later.
    #[inline]
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from minutes.
    #[inline]
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60 * 1_000_000_000)
    }

    /// Creates a duration from hours.
    #[inline]
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600 * 1_000_000_000)
    }

    /// Creates a duration from a float number of seconds, rounding to the
    /// nearest nanosecond. Negative or non-finite inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos_rounded(s * 1e9)
    }

    /// Creates a duration from a float number of nanoseconds, rounded to
    /// the nearest one, half away from zero: bit for bit
    /// `SimDuration::from_nanos(ns.round() as u64)`, so negative and NaN
    /// inputs give zero and huge ones saturate.
    ///
    /// `f64::round` is a library call on baseline x86-64, which has no
    /// rounding instruction, and the packet path rounds a service or
    /// departure time per packet. Below 2⁵² the whole part fits an `i64`
    /// and `ns - whole` is exact, so one comparison rounds; the rest of
    /// the range keeps the library call.
    #[inline]
    pub fn from_nanos_rounded(ns: f64) -> Self {
        const EXACT: f64 = (1u64 << 52) as f64;
        if (0.0..EXACT).contains(&ns) {
            let whole = ns as i64;
            SimDuration((whole + i64::from(ns - whole as f64 >= 0.5)) as u64)
        } else {
            SimDuration(ns.round() as u64)
        }
    }

    /// The duration in nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration in whole microseconds (truncating).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// The duration in whole milliseconds (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The duration in whole seconds (truncating).
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// The duration in seconds, as a float (lossy; for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Checked multiplication by an integer factor.
    #[inline]
    pub fn checked_mul(self, n: u64) -> Option<SimDuration> {
        self.0.checked_mul(n).map(SimDuration)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime overflow: instant past the end of representable time"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime underflow: instant before simulation start"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

/// Formats a nanosecond count using the most natural unit.
fn format_ns(ns: u64) -> String {
    if ns == 0 {
        "0ns".to_owned()
    } else if ns.is_multiple_of(1_000_000_000) {
        format!("{}s", ns / 1_000_000_000)
    } else if ns.is_multiple_of(1_000_000) {
        format!("{}ms", ns / 1_000_000)
    } else if ns.is_multiple_of(1_000) {
        format!("{}us", ns / 1_000)
    } else if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_mins(60));
        assert_eq!(SimDuration::from_mins(1), SimDuration::from_secs(60));
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_millis(250);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d).duration_since(t), d);
    }

    #[test]
    fn saturating_duration_since_clamps() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(b.saturating_duration_since(a), SimDuration::from_secs(1));
        assert_eq!(a.saturating_duration_since(b), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "in the future")]
    fn duration_since_panics_backwards() {
        let _ = SimTime::from_secs(1).duration_since(SimTime::from_secs(2));
    }

    #[test]
    fn from_secs_f64_rounds_and_clamps() {
        assert_eq!(
            SimDuration::from_secs_f64(1.5),
            SimDuration::from_millis(1_500)
        );
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        // 67.2ns (64B at 10Gbit/s) rounds to the nearest nanosecond.
        assert_eq!(
            SimDuration::from_secs_f64(67.2e-9),
            SimDuration::from_nanos(67)
        );
    }

    /// The reference: what every caller computed before the helper.
    fn library_round(ns: f64) -> SimDuration {
        SimDuration::from_nanos(ns.round() as u64)
    }

    #[test]
    fn from_nanos_rounded_edge_cases() {
        let two52 = (1u64 << 52) as f64;
        let mut cases = vec![
            0.0,
            -0.0,
            0.49999999999999994,
            0.5,
            -0.5,
            -0.49999999999999994,
            -1.5,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            two52,
            two52 - 0.5,
            two52 + 1.0,
            ((1u64 << 53) + 1) as f64,
            2f64.powi(63),
            2f64.powi(64),
            f64::MAX,
        ];
        cases.extend((0..64).map(|k| f64::from(k) + 0.5));
        cases.extend((0..52).map(|e| 2f64.powi(e) + 0.5));
        cases.extend((1..52).map(|e| f64::from_bits((2f64.powi(e) + 0.5).to_bits() - 1)));
        for x in cases {
            assert_eq!(
                SimDuration::from_nanos_rounded(x),
                library_round(x),
                "{x:e}"
            );
        }
        assert_eq!(
            SimDuration::from_nanos_rounded(0.49999999999999994),
            SimDuration::ZERO
        );
        assert_eq!(
            SimDuration::from_nanos_rounded(2.5),
            SimDuration::from_nanos(3)
        );
        assert_eq!(
            SimDuration::from_nanos_rounded(2f64.powi(64)).as_nanos(),
            u64::MAX
        );
    }

    proptest! {
        #[test]
        fn prop_from_nanos_rounded_matches_library_round(bits: u64) {
            let x = f64::from_bits(bits);
            prop_assert_eq!(SimDuration::from_nanos_rounded(x), library_round(x));
        }

        #[test]
        fn prop_from_nanos_rounded_matches_near_halves(whole in 0u64..1 << 52, ulps in -2i64..=2) {
            // Arbitrary bit patterns rarely land next to a half; these do.
            let half = whole as f64 + 0.5;
            let x = f64::from_bits(half.to_bits().wrapping_add_signed(ulps));
            prop_assert_eq!(SimDuration::from_nanos_rounded(x), library_round(x));
        }
    }

    #[test]
    fn display_picks_natural_unit() {
        assert_eq!(SimTime::from_secs(3).to_string(), "3s");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5ms");
        assert_eq!(SimDuration::from_micros(7).to_string(), "7us");
        assert_eq!(SimDuration::from_nanos(9).to_string(), "9ns");
        assert_eq!(SimDuration::ZERO.to_string(), "0ns");
        assert_eq!(SimDuration::from_nanos(1_500_000_001).to_string(), "1.500s");
    }

    #[test]
    fn duration_scalar_ops() {
        let d = SimDuration::from_micros(10);
        assert_eq!(d * 3, SimDuration::from_micros(30));
        assert_eq!(d / 2, SimDuration::from_micros(5));
        assert_eq!(d.checked_mul(u64::MAX), None);
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert_eq!(SimTime::MAX.checked_add(SimDuration::from_nanos(1)), None);
        assert!(SimTime::ZERO
            .checked_add(SimDuration::from_hours(3))
            .is_some());
    }

    #[test]
    fn case_study_scale_fits() {
        // Three hours of virtual time, the paper's experiment duration,
        // is comfortably representable.
        let end = SimTime::ZERO + SimDuration::from_hours(3);
        assert_eq!(end.as_nanos(), 10_800_000_000_000);
    }
}
