//! Fault-triggered incident bundles.
//!
//! When a fault surfaces on a rank — its own crash time passing, a peer
//! exhausting retransmits, the receive watchdog naming a silent peer —
//! the engine drops an *incident mark* into that rank's recorder
//! ([`crate::incident_mark`]). The first mark wins per rank (it is the
//! point where that rank's view of the run diverged from the plan;
//! everything after is fallout). When the job harness collects the rank
//! reports, any mark present turns the report into an incident bundle:
//! one JSON document holding, per rank, the mark, the drained flight
//! window (the last-N trace events, chrome-shaped so existing tooling can
//! read them), the cumulative pvar snapshot, and the telemetry series if
//! sampling was on. `obs-analyze --incident` reconstructs the
//! last-window picture from the bundle alone.
//!
//! Determinism: every field is virtual-time data — marks carry virtual
//! timestamps, windows hold virtual-time events, pvars and series are
//! order-independent — so the same seeded crash run produces a
//! byte-identical bundle every time, and a test enforces it.

use crate::json::JsonBuf;
use crate::{telemetry, JobReport};

/// The first fault a rank observed.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentMark {
    /// Virtual time at which the fault surfaced on the observing rank.
    pub t_ns: f64,
    /// Fault class: `"rank_failed"`, `"transport_failure"`, `"watchdog"`.
    pub kind: &'static str,
    /// The rank the engine blames (for a self-crash, the observer).
    pub failed_rank: usize,
    /// Free-form context (retry counts, the call that failed, …).
    pub detail: String,
}

fn write_mark(w: &mut JsonBuf, rank: usize, m: &IncidentMark) {
    w.begin_obj();
    w.key("t_ns");
    w.num_val(m.t_ns);
    w.key("kind");
    w.str_val(m.kind);
    w.key("rank");
    w.uint_val(rank as u64);
    w.key("failed_rank");
    w.uint_val(m.failed_rank as u64);
    w.key("detail");
    w.str_val(&m.detail);
    w.end_obj();
}

/// Serialize the job's incident bundle, or `None` when no rank recorded
/// a mark (no fault fired — nothing to bundle).
pub fn bundle_json(report: &JobReport) -> Option<String> {
    // Reason = the earliest mark anywhere, ties broken by observer rank:
    // the first rank to see the fault names it for the whole job.
    let (reason_rank, reason) = report
        .ranks
        .iter()
        .filter_map(|r| r.incident.as_ref().map(|m| (r.rank, m)))
        .min_by(|(ra, a), (rb, b)| {
            a.t_ns
                .partial_cmp(&b.t_ns)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(ra.cmp(rb))
        })?;

    let mut w = JsonBuf::new();
    w.begin_obj();
    w.key("schema");
    w.uint_val(1);
    w.key("kind");
    w.str_val("incident");
    w.key("reason");
    write_mark(&mut w, reason_rank, reason);
    w.key("ranks");
    w.begin_arr();
    for r in &report.ranks {
        w.newline();
        w.begin_obj();
        w.key("rank");
        w.uint_val(r.rank as u64);
        w.key("label");
        w.str_val(&r.label);
        w.key("incident");
        match &r.incident {
            Some(m) => write_mark(&mut w, r.rank, m),
            None => w.raw_val("null"),
        }
        w.key("flight");
        match &r.flight {
            Some(fw) => {
                w.begin_obj();
                w.key("dropped");
                w.uint_val(fw.dropped);
                w.key("events");
                w.begin_arr();
                for ev in &fw.events {
                    w.newline();
                    crate::write_chrome_event(&mut w, r.rank as u64, ev);
                }
                w.newline();
                w.end_arr();
                w.end_obj();
            }
            None => w.raw_val("null"),
        }
        w.key("pvars");
        r.pvars.write_json(&mut w);
        w.key("telemetry");
        match &r.telemetry {
            Some(series) => telemetry::write_rank_series(&mut w, series),
            None => w.raw_val("null"),
        }
        w.end_obj();
    }
    w.newline();
    w.end_arr();
    w.end_obj();
    w.newline();
    Some(w.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::{FlightWindow, PvarSet, RankReport, TraceEvent};

    fn rank(rank: usize, incident: Option<IncidentMark>, last_ts: f64) -> RankReport {
        RankReport {
            rank,
            label: format!("rank {rank}"),
            pvars: PvarSet::new(),
            events: vec![],
            dropped_events: 0,
            flight: Some(FlightWindow {
                events: vec![TraceEvent::instant(
                    "e",
                    "t",
                    vtime::VTime::from_nanos(last_ts),
                    vec![],
                )],
                dropped: 2,
            }),
            telemetry: None,
            incident,
            wall: None,
        }
    }

    #[test]
    fn no_marks_means_no_bundle() {
        let rep = JobReport {
            ranks: vec![rank(0, None, 1.0)],
            sim_perf: None,
        };
        assert!(bundle_json(&rep).is_none());
    }

    #[test]
    fn reason_is_earliest_mark_and_bundle_parses() {
        let rep = JobReport {
            ranks: vec![
                rank(
                    0,
                    Some(IncidentMark {
                        t_ns: 900.0,
                        kind: "watchdog",
                        failed_rank: 1,
                        detail: "recv stalled".to_string(),
                    }),
                    850.0,
                ),
                rank(
                    1,
                    Some(IncidentMark {
                        t_ns: 400.0,
                        kind: "rank_failed",
                        failed_rank: 1,
                        detail: "self crash".to_string(),
                    }),
                    400.0,
                ),
            ],
            sim_perf: None,
        };
        let text = bundle_json(&rep).unwrap();
        let v = parse(&text).unwrap();
        let reason = v.get("reason").unwrap();
        assert_eq!(reason.get("kind").unwrap().as_str(), Some("rank_failed"));
        assert_eq!(reason.get("failed_rank").unwrap().as_f64(), Some(1.0));
        assert_eq!(reason.get("rank").unwrap().as_f64(), Some(1.0));
        let ranks = v.get("ranks").unwrap().as_arr().unwrap();
        assert_eq!(ranks.len(), 2);
        let flight = ranks[0].get("flight").unwrap();
        assert_eq!(flight.get("dropped").unwrap().as_f64(), Some(2.0));
        assert_eq!(flight.get("events").unwrap().as_arr().unwrap().len(), 1);
        // Byte-stable across re-serialization.
        assert_eq!(bundle_json(&rep).unwrap(), text);
    }
}
