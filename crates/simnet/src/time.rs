//! Simulation time.
//!
//! [`SimTime`] is a nanosecond-resolution instant/duration hybrid (the same
//! type is used for both, like `std::time::Duration`).  The paper reports
//! timings at millisecond granularity with a 4 ms measurement precision;
//! nanosecond resolution keeps rounding errors out of the reproduction.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time (or a duration), in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds a time from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Builds a time from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Builds a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Builds a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Builds a time from fractional seconds (rounds to nanoseconds).
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s * 1e9).round().max(0.0) as u64)
    }

    /// The value in nanoseconds.
    pub const fn as_nanos(&self) -> u64 {
        self.0
    }

    /// The value in whole microseconds (truncating).
    pub const fn as_micros(&self) -> u64 {
        self.0 / 1_000
    }

    /// The value in whole milliseconds (truncating).
    pub const fn as_millis(&self) -> u64 {
        self.0 / 1_000_000
    }

    /// The value in fractional seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The value in fractional milliseconds.
    pub fn as_millis_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Checked addition.
    pub fn checked_add(self, other: SimTime) -> Option<SimTime> {
        self.0.checked_add(other.0).map(SimTime)
    }

    /// The later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// The signed difference `self - other` in fractional milliseconds.
    ///
    /// Used for the paper's Figure 8, where negative values mean the control
    /// plane claimed completion *before* the data plane caught up.
    pub fn signed_delta_millis(self, other: SimTime) -> f64 {
        (self.0 as i128 - other.0 as i128) as f64 / 1e6
    }
}

impl From<SimTime> for std::time::Duration {
    fn from(t: SimTime) -> Self {
        std::time::Duration::from_nanos(t.0)
    }
}

impl From<std::time::Duration> for SimTime {
    fn from(d: std::time::Duration) -> Self {
        SimTime(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
    }
}

/// Saturating: a delay that overflows the clock (`Duration::MAX` converts
/// to [`SimTime::MAX`]) lands on the end of time — "never" — instead of
/// wrapping into the past.
impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{}us", self.as_micros())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimTime::from_secs(2).as_millis(), 2000);
        assert_eq!(SimTime::from_secs_f64(0.001).as_micros(), 1000);
        assert!((SimTime::from_millis(250).as_secs_f64() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_millis(10);
        let b = SimTime::from_millis(4);
        assert_eq!(a + b, SimTime::from_millis(14));
        assert_eq!(a - b, SimTime::from_millis(6));
        assert_eq!(a * 3, SimTime::from_millis(30));
        assert_eq!(a / 2, SimTime::from_millis(5));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let mut c = a;
        c += b;
        c -= SimTime::from_millis(2);
        assert_eq!(c, SimTime::from_millis(12));
    }

    #[test]
    fn adding_past_the_end_of_time_saturates() {
        let never = SimTime::from(std::time::Duration::MAX);
        assert_eq!(never, SimTime::MAX);
        assert_eq!(SimTime::from_secs(3) + never, SimTime::MAX);
        assert_eq!(SimTime::MAX + SimTime::from_nanos(1), SimTime::MAX);
        let mut t = SimTime::from_secs(3);
        t += never;
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn signed_delta() {
        let dp = SimTime::from_millis(100);
        let cp = SimTime::from_millis(400);
        // control plane lags data plane -> positive delay
        assert!((cp.signed_delta_millis(dp) - 300.0).abs() < 1e-9);
        // control plane acked before the data plane -> negative (incorrect)
        assert!((dp.signed_delta_millis(cp) + 300.0).abs() < 1e-9);
    }

    #[test]
    fn ordering_and_minmax() {
        let a = SimTime::from_millis(1);
        let b = SimTime::from_millis(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn sum_and_display() {
        let total: SimTime = [1u64, 2, 3]
            .iter()
            .map(|&ms| SimTime::from_millis(ms))
            .sum();
        assert_eq!(total, SimTime::from_millis(6));
        assert_eq!(format!("{}", SimTime::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimTime::from_micros(12)), "12us");
        assert_eq!(format!("{}", SimTime::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(2)), "2.000s");
    }

    #[test]
    fn from_secs_f64_clamps_negative() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
    }
}
