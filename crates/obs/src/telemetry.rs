//! Virtual-time telemetry: periodic pvar sampling into compact per-rank
//! time-series.
//!
//! The sampler divides the simulation's virtual timeline into fixed
//! intervals (`ObsOptions::telemetry_interval_ns`) and attributes every
//! pvar update to the interval containing the *virtual event time* the
//! engine last hinted via [`crate::telemetry_tick`] — the arrival time of
//! the delivery being handled, or the application clock at a binding
//! call. Binning at update time (instead of snapshotting live recorder
//! state on a timer) is what keeps the series deterministic: the interval
//! a counter increment lands in is a pure function of the message's
//! virtual arrival, which the fabric derives deterministically, and
//! interval sums are independent of the real-time order in which a rank
//! pops deliveries from its mailbox. Gauges report the interval's
//! high-water mark for the same reason (`last` is kept too, but only the
//! max is order-independent when a rank has several peers).
//!
//! Like every other `obs` surface, sampling reads virtual clocks and
//! never charges one: the measured simulation is bit-identical with
//! telemetry on or off.

use std::collections::BTreeMap;

use crate::json::JsonBuf;
use crate::pvar::{PvarSet, PvarValue};
use crate::{JobReport, RankReport};

/// One closed sampling interval: `t_ns` is the interval's start
/// (`index * interval_ns`), `pvars` holds what happened inside it
/// (counter deltas, gauge levels, histogram samples).
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub t_ns: f64,
    pub pvars: PvarSet,
}

/// One rank's telemetry series. Sparse: intervals with no activity are
/// simply absent.
#[derive(Debug, Clone, PartialEq)]
pub struct RankSeries {
    pub interval_ns: f64,
    pub samples: Vec<Sample>,
}

/// The live per-rank sampler owned by the recorder.
#[derive(Debug, Clone)]
pub(crate) struct Sampler {
    interval_ns: f64,
    /// Interval index of the engine's last virtual-time hint.
    cur: u64,
    /// Interval index → activity inside it. `BTreeMap` so the exported
    /// series is time-ordered even when hints arrive out of order
    /// (deliveries from different peers pop in real-time order).
    bins: BTreeMap<u64, PvarSet>,
}

impl Sampler {
    pub(crate) fn new(interval_ns: f64) -> Self {
        Sampler {
            interval_ns: interval_ns.max(1.0),
            cur: 0,
            bins: BTreeMap::new(),
        }
    }

    /// Move the sampler to the interval containing virtual time `t_ns`.
    #[inline]
    pub(crate) fn tick(&mut self, t_ns: f64) {
        self.cur = (t_ns / self.interval_ns) as u64;
    }

    /// The pvar set of the current interval.
    #[inline]
    pub(crate) fn bin(&mut self) -> &mut PvarSet {
        self.bins.entry(self.cur).or_default()
    }

    /// Close the series: time-ordered samples stamped with interval
    /// start times.
    pub(crate) fn into_series(self) -> RankSeries {
        let interval_ns = self.interval_ns;
        RankSeries {
            interval_ns,
            samples: self
                .bins
                .into_iter()
                .map(|(idx, pvars)| Sample {
                    t_ns: idx as f64 * interval_ns,
                    pvars,
                })
                .collect(),
        }
    }
}

/// Write one rank's series as a JSON object (used by both the standalone
/// telemetry export and the incident bundle).
pub(crate) fn write_rank_series(w: &mut JsonBuf, s: &RankSeries) {
    w.begin_obj();
    w.key("interval_ns");
    w.num_val(s.interval_ns);
    w.key("samples");
    w.begin_arr();
    for sample in &s.samples {
        w.newline();
        w.begin_obj();
        w.key("t_ns");
        w.num_val(sample.t_ns);
        w.key("pvars");
        sample.pvars.write_json(w);
        w.end_obj();
    }
    w.newline();
    w.end_arr();
    w.end_obj();
}

/// Serialize a job's telemetry series as a standalone JSON document (the
/// `ombj --telemetry-out` file, consumed by `obs-analyze --timeline`).
/// `None` when no rank sampled (telemetry was off).
pub fn series_json(report: &JobReport) -> Option<String> {
    if report.ranks.iter().all(|r| r.telemetry.is_none()) {
        return None;
    }
    let mut w = JsonBuf::new();
    w.begin_obj();
    w.key("schema");
    w.uint_val(1);
    w.key("kind");
    w.str_val("telemetry");
    w.key("ranks");
    w.begin_arr();
    for r in &report.ranks {
        let Some(series) = &r.telemetry else { continue };
        w.newline();
        w.begin_obj();
        w.key("rank");
        w.uint_val(r.rank as u64);
        w.key("label");
        w.str_val(&r.label);
        w.key("series");
        write_rank_series(&mut w, series);
        w.end_obj();
    }
    w.newline();
    w.end_arr();
    w.end_obj();
    w.newline();
    Some(w.finish())
}

/// CSV export: one row per (rank, interval, pvar).
pub fn series_csv(report: &JobReport) -> Option<String> {
    if report.ranks.iter().all(|r| r.telemetry.is_none()) {
        return None;
    }
    let mut out = String::from("rank,t_ns,pvar,kind,value\n");
    for r in &report.ranks {
        let Some(series) = &r.telemetry else { continue };
        for s in &series.samples {
            for (name, v) in s.pvars.iter() {
                let (kind, value) = match v {
                    PvarValue::Counter(n) => ("counter", *n as f64),
                    PvarValue::Gauge { max, .. } => ("gauge_max", *max as f64),
                    PvarValue::Hist(h) => ("hist_count", h.count as f64),
                };
                out.push_str(&format!(
                    "{},{},{},{},{}\n",
                    r.rank, s.t_ns, name, kind, value
                ));
            }
        }
    }
    Some(out)
}

/// Convenience for tests and the analyzer: total of counter `name`
/// across every sample of every rank (must equal the cumulative pvar —
/// binning never loses an increment).
pub fn series_counter_total(ranks: &[RankReport], name: &str) -> u64 {
    ranks
        .iter()
        .filter_map(|r| r.telemetry.as_ref())
        .flat_map(|s| s.samples.iter())
        .map(|s| s.pvars.counter(name))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pvar::{CounterId, BIND_CALLS, NIF_TRANSITIONS};

    #[test]
    fn binning_is_order_independent_for_counters() {
        let run = |order: &[(f64, CounterId)]| {
            let mut s = Sampler::new(100.0);
            for &(t, id) in order {
                s.tick(t);
                s.bin().count(id, 1);
            }
            s.into_series()
        };
        let (x, y) = (BIND_CALLS, NIF_TRANSITIONS);
        let a = run(&[(50.0, x), (250.0, y), (130.0, x)]);
        let b = run(&[(130.0, x), (50.0, x), (250.0, y)]);
        assert_eq!(a, b, "interval sums must not depend on pop order");
        assert_eq!(a.samples.len(), 3);
        assert_eq!(a.samples[0].t_ns, 0.0);
        assert_eq!(a.samples[1].t_ns, 100.0);
        assert_eq!(a.samples[1].pvars.counter(x.name()), 1);
        assert_eq!(a.samples[2].t_ns, 200.0);
        assert_eq!(a.samples[2].pvars.counter(y.name()), 1);
    }

    #[test]
    fn series_is_sparse() {
        let mut s = Sampler::new(10.0);
        s.tick(5.0);
        s.bin().count(BIND_CALLS, 1);
        s.tick(1_000_005.0);
        s.bin().count(BIND_CALLS, 2);
        let series = s.into_series();
        assert_eq!(series.samples.len(), 2, "quiet intervals are absent");
        assert_eq!(series.samples[1].t_ns, 1_000_000.0);
    }

    #[test]
    fn zero_interval_is_clamped() {
        let mut s = Sampler::new(0.0);
        s.tick(123.0);
        s.bin().count(BIND_CALLS, 1);
        assert_eq!(s.into_series().samples.len(), 1);
    }
}
