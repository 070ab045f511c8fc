//! Always-on flight recorder: a bounded last-N window of trace events.
//!
//! Full tracing (`ObsOptions::tracing`) keeps every event and is priced
//! accordingly — fine for a benchmark sweep, unaffordable for long or
//! large runs. The flight window is a view of the rank's one event ring:
//! its newest [`FLIGHT_CAPACITY`] events. The ring holds at least that
//! many whenever the window is live, and every event that ages out of the
//! window is counted in the [`DROPPED_PVAR`] pvar so a reader knows
//! exactly how much history the window lost. The window is what an
//! incident bundle drains when a fault fires (see [`crate::incident`]).
//!
//! Costs: zero virtual time (events only read clocks), and on the wall
//! clock a push is a `VecDeque` rotate — no allocation once the ring is
//! full.

use crate::trace::TraceEvent;

/// Counts events that aged out of the flight window.
pub const DROPPED_PVAR: &str = crate::pvar::FLIGHT_DROPPED.name();

/// Flight-window size: large enough to hold the full protocol exchange
/// for the last few operations on a rank, small enough that a 4k-rank
/// incident bundle stays in the tens of megabytes.
pub const FLIGHT_CAPACITY: usize = 512;

/// A drained flight window: the last `events.len()` events recorded on a
/// rank, plus how many older events the window dropped to stay bounded.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightWindow {
    pub events: Vec<TraceEvent>,
    pub dropped: u64,
}

impl FlightWindow {
    /// Virtual timestamp of the newest event in the window, if any.
    pub fn last_event_ns(&self) -> Option<f64> {
        self.events.last().map(|e| e.ts_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{install, instant, uninstall, ObsOptions};

    /// Record `n` instants (timestamps `0..n`) on a flight-only recorder.
    fn drain(n: usize) -> FlightWindow {
        install(0, ObsOptions::default().with_flight());
        for i in 0..n {
            instant("e", "test", vtime::VTime::from_nanos(i as f64), vec![]);
        }
        uninstall()
            .and_then(|r| r.flight)
            .expect("flight window drained")
    }

    #[test]
    fn under_capacity_drops_nothing() {
        let w = drain(3);
        assert_eq!(w.dropped, 0);
        assert_eq!(w.events.len(), 3);
    }

    #[test]
    fn drained_order_is_stable_across_reruns() {
        assert_eq!(drain(FLIGHT_CAPACITY + 4), drain(FLIGHT_CAPACITY + 4));
    }
}
