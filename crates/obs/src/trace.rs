//! The per-rank virtual-time event tracer.
//!
//! Events are stamped with the owning rank's *virtual* clock — reading a
//! clock never advances it, so tracing is invisible to the simulation.
//! Events accumulate in a bounded ring: when it fills, the oldest events
//! are dropped, so a long run's trace holds its tail — the part a user
//! debugging a slow benchmark iteration actually wants. The ring counts
//! every push, so each sink reading a tail of it (the trace, the flight
//! window) knows how many events it lost.

use std::collections::VecDeque;

use vtime::VTime;

/// A typed event argument. `&'static str` everywhere keeps the hot path
/// allocation-free; algorithm/protocol names are static by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(&'static str),
    Bool(bool),
}

/// Which side of a cross-rank flow arrow an event marks (Chrome
/// trace_event `ph:"s"` / `ph:"f"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowDir {
    /// Flow begin — the send side (`ph:"s"`).
    Begin,
    /// Flow end — the recv side (`ph:"f"`, binding point `"e"`).
    End,
}

/// One trace event: a complete span (`dur_ns` present), an instant, or a
/// flow begin/end (`flow` present) that Perfetto renders as a send→recv
/// arrow between rank tracks.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub name: &'static str,
    /// Category, e.g. `"pt2pt"`, `"coll"`, `"mrt"` — Perfetto can filter
    /// on it.
    pub cat: &'static str,
    /// Virtual begin time (ns since simulation epoch).
    pub ts_ns: f64,
    /// Span length; `None` marks an instant or flow event.
    pub dur_ns: Option<f64>,
    /// Flow direction and the globally unique flow id tying the two ends
    /// of one message together.
    pub flow: Option<(FlowDir, u64)>,
    pub args: Vec<(&'static str, ArgValue)>,
}

impl TraceEvent {
    /// A complete span covering `[begin, end)`.
    pub fn span(
        name: &'static str,
        cat: &'static str,
        begin: VTime,
        end: VTime,
        args: Vec<(&'static str, ArgValue)>,
    ) -> Self {
        TraceEvent {
            name,
            cat,
            ts_ns: begin.as_nanos(),
            dur_ns: Some(end.saturating_since(begin).as_nanos()),
            flow: None,
            args,
        }
    }

    /// An instant event.
    pub fn instant(
        name: &'static str,
        cat: &'static str,
        at: VTime,
        args: Vec<(&'static str, ArgValue)>,
    ) -> Self {
        TraceEvent {
            name,
            cat,
            ts_ns: at.as_nanos(),
            dur_ns: None,
            flow: None,
            args,
        }
    }

    /// A flow begin/end event. The same `id` on a `Begin` on one rank and
    /// an `End` on another draws the send→recv arrow.
    pub fn flow(
        name: &'static str,
        cat: &'static str,
        at: VTime,
        dir: FlowDir,
        id: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) -> Self {
        TraceEvent {
            name,
            cat,
            ts_ns: at.as_nanos(),
            dur_ns: None,
            flow: Some((dir, id)),
            args,
        }
    }
}

/// Bounded event ring: keeps the newest `capacity` events.
#[derive(Debug, Clone)]
pub struct TraceRing {
    capacity: usize,
    buf: VecDeque<TraceEvent>,
    pushed: u64,
}

impl TraceRing {
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRing {
            capacity,
            buf: VecDeque::new(),
            pushed: 0,
        }
    }

    /// Push an event, evicting the oldest when the ring is full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(ev);
        self.pushed += 1;
    }

    /// Events pushed so far, evicted ones included.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Drain into the held events, oldest first.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.buf.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> TraceEvent {
        TraceEvent::instant(
            "e",
            "t",
            VTime::from_nanos(i as f64),
            vec![("i", ArgValue::U64(i))],
        )
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut r = TraceRing::new(3);
        for i in 0..5 {
            r.push(ev(i));
        }
        assert_eq!(r.pushed(), 5);
        let evs = r.into_events();
        let ts: Vec<f64> = evs.iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn ring_capacity_is_at_least_one() {
        let mut r = TraceRing::new(0);
        r.push(ev(1));
        r.push(ev(2));
        assert_eq!(r.pushed(), 2);
        assert_eq!(r.into_events().len(), 1);
    }

    #[test]
    fn flow_events_carry_direction_and_id() {
        let b = TraceEvent::flow(
            "msg",
            "flow",
            VTime::from_nanos(5.0),
            FlowDir::Begin,
            42,
            vec![],
        );
        let e = TraceEvent::flow(
            "msg",
            "flow",
            VTime::from_nanos(9.0),
            FlowDir::End,
            42,
            vec![],
        );
        assert_eq!(b.flow, Some((FlowDir::Begin, 42)));
        assert_eq!(e.flow, Some((FlowDir::End, 42)));
        assert_eq!(b.dur_ns, None);
    }

    #[test]
    fn span_duration_is_end_minus_begin() {
        let e = TraceEvent::span(
            "s",
            "c",
            VTime::from_nanos(100.0),
            VTime::from_nanos(350.0),
            vec![],
        );
        assert_eq!(e.ts_ns, 100.0);
        assert_eq!(e.dur_ns, Some(250.0));
    }
}
