//! Virtual time value types and the per-rank clock.
//!
//! Time is represented as `f64` nanoseconds. All arithmetic in the
//! simulation is deterministic (no wall-clock reads), so `f64` rounding is
//! reproducible bit-for-bit across runs. Nanosecond floats keep the model
//! readable (cost constants are quoted in ns) while retaining sub-ns
//! resolution for per-byte costs.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute point in virtual time, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct VTime(f64);

/// A span of virtual time, in nanoseconds. May only be non-negative.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct VDur(f64);

impl VTime {
    /// Simulation epoch: `t = 0`.
    pub const ZERO: VTime = VTime(0.0);

    /// Construct from nanoseconds. Panics on negative or non-finite input.
    #[inline]
    pub fn from_nanos(ns: f64) -> Self {
        assert!(ns.is_finite() && ns >= 0.0, "invalid VTime: {ns}");
        VTime(ns)
    }

    /// Nanoseconds since the simulation epoch.
    #[inline]
    pub fn as_nanos(self) -> f64 {
        self.0
    }

    /// Microseconds since the simulation epoch (the unit OMB reports).
    #[inline]
    pub fn as_micros(self) -> f64 {
        self.0 / 1_000.0
    }

    /// Seconds since the simulation epoch (the unit `MPI_Wtime` reports).
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0 / 1e9
    }

    /// The later of two instants — the fundamental merge operation of the
    /// virtual-time protocol (a receive merges the message arrival time
    /// into the local clock).
    #[inline]
    pub fn max(self, other: VTime) -> VTime {
        if other.0 > self.0 {
            other
        } else {
            self
        }
    }

    /// Time elapsed since `earlier`. Saturates at zero if `earlier` is in
    /// the future (callers comparing across ranks may legitimately observe
    /// skew before a barrier).
    #[inline]
    pub fn saturating_since(self, earlier: VTime) -> VDur {
        VDur((self.0 - earlier.0).max(0.0))
    }
}

impl VDur {
    /// Zero-length span.
    pub const ZERO: VDur = VDur(0.0);

    /// Construct from nanoseconds. Panics on negative or non-finite input.
    #[inline]
    pub fn from_nanos(ns: f64) -> Self {
        assert!(ns.is_finite() && ns >= 0.0, "invalid VDur: {ns}");
        VDur(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub fn from_micros(us: f64) -> Self {
        Self::from_nanos(us * 1_000.0)
    }

    /// Nanoseconds in this span.
    #[inline]
    pub fn as_nanos(self) -> f64 {
        self.0
    }

    /// Microseconds in this span.
    #[inline]
    pub fn as_micros(self) -> f64 {
        self.0 / 1_000.0
    }

    /// Seconds in this span.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0 / 1e9
    }
}

impl fmt::Debug for VTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}ns", self.0)
    }
}

impl fmt::Debug for VDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ns", self.0)
    }
}

impl fmt::Display for VDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e6 {
            write!(f, "{:.3}ms", self.0 / 1e6)
        } else if self.0 >= 1e3 {
            write!(f, "{:.3}us", self.0 / 1e3)
        } else {
            write!(f, "{:.1}ns", self.0)
        }
    }
}

// VTime/VDur contain finite, non-negative floats by construction, so a
// total order exists.
impl Eq for VTime {}
impl PartialOrd for VTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for VTime {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("VTime is always finite")
    }
}
impl Eq for VDur {}
impl PartialOrd for VDur {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for VDur {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("VDur is always finite")
    }
}

impl Add<VDur> for VTime {
    type Output = VTime;
    #[inline]
    fn add(self, rhs: VDur) -> VTime {
        VTime(self.0 + rhs.0)
    }
}
impl AddAssign<VDur> for VTime {
    #[inline]
    fn add_assign(&mut self, rhs: VDur) {
        self.0 += rhs.0;
    }
}
impl Sub<VTime> for VTime {
    type Output = VDur;
    /// Exact difference; panics (debug) if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: VTime) -> VDur {
        debug_assert!(self.0 >= rhs.0, "VTime subtraction went negative");
        VDur((self.0 - rhs.0).max(0.0))
    }
}
impl Add for VDur {
    type Output = VDur;
    #[inline]
    fn add(self, rhs: VDur) -> VDur {
        VDur(self.0 + rhs.0)
    }
}
impl AddAssign for VDur {
    #[inline]
    fn add_assign(&mut self, rhs: VDur) {
        self.0 += rhs.0;
    }
}
impl Sub for VDur {
    type Output = VDur;
    #[inline]
    fn sub(self, rhs: VDur) -> VDur {
        VDur((self.0 - rhs.0).max(0.0))
    }
}
impl SubAssign for VDur {
    #[inline]
    fn sub_assign(&mut self, rhs: VDur) {
        *self = *self - rhs;
    }
}
impl Mul<f64> for VDur {
    type Output = VDur;
    #[inline]
    fn mul(self, rhs: f64) -> VDur {
        VDur::from_nanos(self.0 * rhs)
    }
}
impl Div<f64> for VDur {
    type Output = VDur;
    #[inline]
    fn div(self, rhs: f64) -> VDur {
        VDur::from_nanos(self.0 / rhs)
    }
}
impl Sum for VDur {
    fn sum<I: Iterator<Item = VDur>>(iter: I) -> VDur {
        iter.fold(VDur::ZERO, |a, b| a + b)
    }
}

/// A per-rank virtual clock.
///
/// Exactly one thread (the rank's thread) ever touches a given clock, so no
/// synchronization is needed; cross-rank time only flows through message
/// timestamps.
#[derive(Debug, Clone)]
pub struct Clock {
    now: VTime,
    /// Total time charged via [`Clock::charge`], for introspection (e.g.
    /// separating compute time from wait time in reports).
    charged: VDur,
    /// Local-work cost multiplier. 1.0 for a healthy rank; a fault plan
    /// may set it above 1.0 to model a straggler (thermal throttling,
    /// noisy neighbor). Waiting is never scaled — only charged work.
    rate: f64,
}

impl Default for Clock {
    fn default() -> Self {
        Clock {
            now: VTime::ZERO,
            charged: VDur::ZERO,
            rate: 1.0,
        }
    }
}

impl Clock {
    /// A clock at the simulation epoch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> VTime {
        self.now
    }

    /// Set the local-work cost multiplier (must be >= 1 and finite).
    pub fn set_rate(&mut self, rate: f64) {
        assert!(
            rate.is_finite() && rate >= 1.0,
            "invalid clock rate: {rate}"
        );
        self.rate = rate;
    }

    /// Advance the clock by a local-work cost (scaled by the rank's rate).
    #[inline]
    pub fn charge(&mut self, d: VDur) {
        let d = if self.rate == 1.0 { d } else { d * self.rate };
        self.now += d;
        self.charged += d;
    }

    /// Merge an externally-observed instant (e.g. a message arrival): the
    /// clock jumps forward to `t` if `t` is in the local future, otherwise
    /// it is unchanged. Returns the time spent waiting (how far the clock
    /// jumped).
    #[inline]
    pub fn merge(&mut self, t: VTime) -> VDur {
        let wait = t.saturating_since(self.now);
        self.now = self.now.max(t);
        wait
    }

    /// The local-work cost multiplier in force.
    #[inline]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// A detached clock positioned at `t` with the same rate. Used for
    /// self-timed progression timelines (e.g. offloaded collective
    /// schedules) that advance independently of the rank's own clock and
    /// are merged back at a synchronization point.
    pub fn fork_at(&self, t: VTime) -> Clock {
        Clock {
            now: t,
            charged: VDur::ZERO,
            rate: self.rate,
        }
    }

    /// Total local-work time charged so far (excludes waiting).
    pub fn total_charged(&self) -> VDur {
        self.charged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vtime_arithmetic_roundtrips() {
        let t = VTime::from_nanos(1500.0);
        let d = VDur::from_micros(2.0);
        let t2 = t + d;
        assert_eq!(t2.as_nanos(), 3500.0);
        assert_eq!((t2 - t).as_nanos(), 2000.0);
        assert_eq!(t2.as_micros(), 3.5);
    }

    #[test]
    fn vtime_max_and_saturating() {
        let a = VTime::from_nanos(10.0);
        let b = VTime::from_nanos(20.0);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
        assert_eq!(a.saturating_since(b), VDur::ZERO);
        assert_eq!(b.saturating_since(a).as_nanos(), 10.0);
    }

    #[test]
    fn vdur_sub_saturates() {
        let a = VDur::from_nanos(5.0);
        let b = VDur::from_nanos(8.0);
        assert_eq!(a - b, VDur::ZERO);
        assert_eq!((b - a).as_nanos(), 3.0);
    }

    #[test]
    fn vdur_scaling() {
        let d = VDur::from_nanos(4.0);
        assert_eq!((d * 2.5).as_nanos(), 10.0);
        assert_eq!((d / 4.0).as_nanos(), 1.0);
    }

    #[test]
    fn vdur_sum() {
        let total: VDur = (1..=4).map(|i| VDur::from_nanos(i as f64)).sum();
        assert_eq!(total.as_nanos(), 10.0);
    }

    #[test]
    #[should_panic(expected = "invalid VDur")]
    fn vdur_rejects_negative() {
        let _ = VDur::from_nanos(-1.0);
    }

    #[test]
    #[should_panic(expected = "invalid VTime")]
    fn vtime_rejects_nan() {
        let _ = VTime::from_nanos(f64::NAN);
    }

    #[test]
    fn clock_charge_and_merge() {
        let mut c = Clock::new();
        c.charge(VDur::from_nanos(100.0));
        assert_eq!(c.now().as_nanos(), 100.0);
        // Merging a past instant is a no-op.
        assert_eq!(c.merge(VTime::from_nanos(50.0)), VDur::ZERO);
        assert_eq!(c.now().as_nanos(), 100.0);
        // Merging a future instant jumps forward and reports the wait.
        let wait = c.merge(VTime::from_nanos(400.0));
        assert_eq!(wait.as_nanos(), 300.0);
        assert_eq!(c.now().as_nanos(), 400.0);
        // Only `charge` counts as local work.
        assert_eq!(c.total_charged().as_nanos(), 100.0);
    }

    #[test]
    fn clock_rate_scales_charges_only() {
        let mut c = Clock::new();
        c.set_rate(2.0);
        c.charge(VDur::from_nanos(100.0));
        assert_eq!(c.now().as_nanos(), 200.0);
        assert_eq!(c.total_charged().as_nanos(), 200.0);
        // Waiting (merge) is not scaled.
        let wait = c.merge(VTime::from_nanos(500.0));
        assert_eq!(wait.as_nanos(), 300.0);
        assert_eq!(c.now().as_nanos(), 500.0);
    }

    #[test]
    fn vdur_display_units() {
        assert_eq!(format!("{}", VDur::from_nanos(12.0)), "12.0ns");
        assert_eq!(format!("{}", VDur::from_nanos(1200.0)), "1.200us");
        assert_eq!(format!("{}", VDur::from_nanos(2.5e6)), "2.500ms");
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            VTime::from_nanos(3.0),
            VTime::from_nanos(1.0),
            VTime::from_nanos(2.0),
        ];
        v.sort();
        assert_eq!(v[0].as_nanos(), 1.0);
        assert_eq!(v[2].as_nanos(), 3.0);
    }
}
