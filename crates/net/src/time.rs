//! Simulated time.
//!
//! All simulated timestamps and durations are microseconds held in a `u64`.
//! Microsecond resolution keeps arithmetic exact (no floating-point clock
//! drift) while spanning ~584,000 years of simulated time.

/// A point in (or span of) simulated time, in microseconds.
pub type Time = u64;

/// One millisecond.
pub const MILLISECOND: Time = 1_000;
/// One second.
pub const SECOND: Time = 1_000_000;

/// Converts milliseconds to [`Time`].
pub const fn from_millis(ms: u64) -> Time {
    ms * MILLISECOND
}

/// Converts (fractional) milliseconds to [`Time`].
pub fn from_millis_f64(ms: f64) -> Time {
    (ms * MILLISECOND as f64).round() as Time
}

/// Converts seconds to [`Time`].
pub const fn from_secs(secs: u64) -> Time {
    secs * SECOND
}

/// Renders a [`Time`] as fractional seconds.
pub fn as_secs_f64(time: Time) -> f64 {
    time as f64 / SECOND as f64
}

/// Renders a [`Time`] as fractional milliseconds.
pub fn as_millis_f64(time: Time) -> f64 {
    time as f64 / MILLISECOND as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(from_millis(250), 250_000);
        assert_eq!(from_secs(2), 2_000_000);
        assert_eq!(as_secs_f64(1_500_000), 1.5);
        assert_eq!(as_millis_f64(1_500), 1.5);
        assert_eq!(from_millis_f64(0.5), 500);
    }
}
