//! `obs` — the MPI_T-style observability layer of the MVAPICH2-J
//! reproduction.
//!
//! The real MVAPICH2 ships the MPI_T tool-information interface and the
//! OSU INAM monitoring stack; this crate plays that role for the
//! simulation: every layer (engine, collectives, managed runtime, JNI
//! boundary, buffering pool, bindings) reports *performance variables*
//! (counters / gauges / histograms, resolved through the static table in
//! [`pvar`]) and *virtual-time trace events* (see [`trace`]) through a
//! per-rank recorder. On top of those primitives sit three time-aware
//! surfaces:
//!
//! * [`telemetry`] — a virtual-time sampler binning every pvar update
//!   into fixed intervals of the simulation clock (per-rank time-series).
//! * [`flight`] — an always-on bounded flight recorder: a view of the
//!   newest [`FLIGHT_CAPACITY`] events of the rank's one event ring,
//!   older events counted in `flight.dropped`.
//! * [`incident`] — fault-triggered bundles: ring + pvars + telemetry
//!   drained into one JSON document when a fault fires.
//!
//! ## Design rules
//!
//! * **Zero virtual cost.** Instrumentation only ever *reads* virtual
//!   clocks; it never charges one. Simulated timings are bit-identical
//!   with observability on or off, and a test in the workspace root
//!   enforces that.
//! * **Deterministic output.** Timestamps are virtual, pvar iteration is
//!   name-ordered, and ranks are assembled in rank order, so two
//!   identical runs serialize to byte-identical trace files, telemetry
//!   series, and incident bundles.
//! * **No plumbing through signatures.** Each rank runs on its own OS
//!   thread (see `simfabric::run_cluster`), so the recorder is a
//!   thread-local installed by the job harness around the rank closure.
//!   Every layer below calls the free functions ([`count`], [`observe`],
//!   [`span`], …), naming a pvar by its [`pvar`] table id.
//! * **Cheap when off.** Every free function opens with one relaxed load
//!   of a thread-local gate word and returns if no sink wants the record
//!   — no `RefCell` borrow, no argument-vector allocation downstream
//!   (callers check [`tracing_enabled`] first). perfbench prices the
//!   enabled path (`obs.busy_s`, `obs.records_per_op`) so regressions
//!   here are a number, not a feeling.

pub mod analyze;
pub mod flight;
pub mod incident;
pub mod json;
pub mod pvar;
pub mod telemetry;
pub mod trace;
pub mod wallprof;

pub use flight::{FlightWindow, FLIGHT_CAPACITY};
pub use incident::IncidentMark;
pub use pvar::{Hist, PvarSet, PvarValue};
pub use telemetry::{RankSeries, Sample};
pub use trace::{ArgValue, FlowDir, TraceEvent, TraceRing};

/// Pvar counting trace events evicted from the ring (satellite of the
/// analyzer: truncated traces are flagged, not silently misread).
pub const DROPPED_EVENTS_PVAR: &str = pvar::TRACE_DROPPED_EVENTS.name();

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};

use pvar::{CounterId, GaugeId, HistId};
use vtime::VTime;

/// Per-job observability switches. Carried by the job configuration of
/// the bindings crates; `Copy` so configs stay `Copy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObsOptions {
    /// Collect trace events (pvars are always collected while a recorder
    /// is installed; the unbounded-ish event ring is the expensive part).
    pub tracing: bool,
    /// Trace capacity per rank (newest events win).
    pub ring_capacity: usize,
    /// Wall-clock self-profiling of the simulator (see [`wallprof`]).
    /// Never affects virtual time or any determinism digest.
    pub profiling: bool,
    /// Keep a flight window of the newest [`FLIGHT_CAPACITY`] trace
    /// events (see [`flight`]) — independent of `tracing`, cheap enough to
    /// stay on for long runs.
    pub flight: bool,
    /// Telemetry sampling interval in virtual nanoseconds; `0.0` turns
    /// the sampler off (see [`telemetry`]).
    pub telemetry_interval_ns: f64,
}

impl ObsOptions {
    pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;
    /// Default sampling interval: 10 virtual microseconds — fine enough
    /// to localize a retransmit storm inside an `osu_latency` sweep,
    /// coarse enough that a series stays a few hundred samples.
    pub const DEFAULT_TELEMETRY_INTERVAL_NS: f64 = 10_000.0;

    /// Tracing on, default ring.
    pub fn traced() -> Self {
        ObsOptions {
            tracing: true,
            ..Default::default()
        }
    }

    /// Wall-clock self-profiling on, tracing off.
    pub fn profiled() -> Self {
        ObsOptions {
            profiling: true,
            ..Default::default()
        }
    }

    /// Enable the flight recorder.
    pub fn with_flight(mut self) -> Self {
        self.flight = true;
        self
    }

    /// Enable telemetry sampling at `interval_ns` virtual nanoseconds
    /// (values `<= 0.0` fall back to the default interval).
    pub fn with_telemetry(mut self, interval_ns: f64) -> Self {
        self.telemetry_interval_ns = if interval_ns > 0.0 {
            interval_ns
        } else {
            Self::DEFAULT_TELEMETRY_INTERVAL_NS
        };
        self
    }
}

impl Default for ObsOptions {
    fn default() -> Self {
        ObsOptions {
            tracing: false,
            ring_capacity: Self::DEFAULT_RING_CAPACITY,
            profiling: false,
            flight: false,
            telemetry_interval_ns: 0.0,
        }
    }
}

// ---------------------------------------------------------------------
// The fast gate: one thread-local word saying which sinks are live.
//
// Every record call starts with a single relaxed load of this word; when
// it is zero (the common case in unit tests driving a layer directly,
// and the *only* case priced into disabled-path benchmarks) the call
// returns before touching the `RefCell` recorder slot or wallprof.
// ---------------------------------------------------------------------

/// A recorder is installed: pvar updates have somewhere to go.
pub(crate) const GATE_PVARS: u32 = 1;
/// At least one event sink (the trace and/or the flight window, both read
/// from the recorder's one event ring) wants span/instant/flow records.
pub(crate) const GATE_EVENTS: u32 = 1 << 1;
/// The telemetry sampler is binning updates by virtual time.
pub(crate) const GATE_TELEMETRY: u32 = 1 << 2;
/// Wall-clock self-profiling is live (owned by [`wallprof`]).
pub(crate) const GATE_WALLPROF: u32 = 1 << 3;

thread_local! {
    static GATE: AtomicU32 = const { AtomicU32::new(0) };
}

#[inline]
pub(crate) fn gate() -> u32 {
    GATE.with(|g| g.load(Ordering::Relaxed))
}

pub(crate) fn set_gate(bit: u32, on: bool) {
    GATE.with(|g| {
        let cur = g.load(Ordering::Relaxed);
        let next = if on { cur | bit } else { cur & !bit };
        g.store(next, Ordering::Relaxed);
    });
}

/// The per-rank recorder: a thread-local, swapped per rank by
/// [`swap_context`] where ranks share a thread.
struct Recorder {
    rank: usize,
    label: String,
    pvars: PvarSet,
    /// The one event ring both event sinks read, sized for the larger.
    ring: TraceRing,
    /// Trace capacity (`ObsOptions::ring_capacity`) when tracing is on.
    trace_capacity: Option<usize>,
    /// The flight window (`ObsOptions::flight`) is live.
    flight: bool,
    /// Virtual-time sampler (`ObsOptions::telemetry_interval_ns > 0`).
    telemetry: Option<telemetry::Sampler>,
    /// First fault this rank observed (first mark wins).
    incident: Option<IncidentMark>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Install a recorder for this thread (one simulated rank). Replaces any
/// previous recorder.
pub fn install(rank: usize, opts: ObsOptions) {
    let trace_capacity = opts.tracing.then(|| opts.ring_capacity.max(1));
    let flight_capacity = if opts.flight { FLIGHT_CAPACITY } else { 0 };
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            rank,
            label: format!("rank {rank}"),
            pvars: PvarSet::new(),
            ring: TraceRing::new(trace_capacity.unwrap_or(0).max(flight_capacity)),
            trace_capacity,
            flight: opts.flight,
            telemetry: (opts.telemetry_interval_ns > 0.0)
                .then(|| telemetry::Sampler::new(opts.telemetry_interval_ns)),
            incident: None,
        });
    });
    set_gate(GATE_PVARS, true);
    set_gate(GATE_EVENTS, opts.tracing || opts.flight);
    set_gate(GATE_TELEMETRY, opts.telemetry_interval_ns > 0.0);
    if opts.profiling {
        wallprof::install();
    } else {
        wallprof::reset();
    }
}

/// One rank's observability state while it is switched out: its
/// recorder, its gate word and its [`wallprof`] state. A scheduler that
/// runs several ranks on one thread keeps one per rank and calls
/// [`swap_context`] around each turn the rank gets.
#[derive(Default)]
pub struct RankContext {
    gate: u32,
    recorder: Option<Recorder>,
    wallprof: wallprof::Saved,
}

/// Exchange this thread's observability state with `ctx`: swap a rank's
/// context in before it runs, and call again with the same `ctx` to swap
/// it back out. The open [`wallprof`] span is settled at swap-out and
/// restarted at swap-in, so time a rank spends switched out accrues to
/// no subsystem.
pub fn swap_context(ctx: &mut RankContext) {
    GATE.with(|g| ctx.gate = g.swap(ctx.gate, Ordering::Relaxed));
    RECORDER.with(|r| std::mem::swap(&mut *r.borrow_mut(), &mut ctx.recorder));
    wallprof::swap(&mut ctx.wallprof);
}

/// Name this rank's process row in trace viewers (e.g.
/// `"rank 3 (MVAPICH2-J, threaded engine)"`).
pub fn set_process_label(label: String) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.label = label;
        }
    });
}

/// Remove this thread's recorder and return what it collected.
pub fn uninstall() -> Option<RankReport> {
    let wall = wallprof::harvest();
    set_gate(GATE_PVARS | GATE_EVENTS | GATE_TELEMETRY, false);
    RECORDER.with(|r| r.borrow_mut().take()).map(|rec| {
        let pushed = rec.ring.pushed();
        let mut events = rec.ring.into_events();
        let flight = rec.flight.then(|| {
            let from = events.len().saturating_sub(FLIGHT_CAPACITY);
            // Without tracing the ring holds only the window: move it out.
            let window = match rec.trace_capacity {
                Some(_) => events[from..].to_vec(),
                None => events.split_off(from),
            };
            FlightWindow {
                dropped: pushed - window.len() as u64,
                events: window,
            }
        });
        let kept = events.len().min(rec.trace_capacity.unwrap_or(0));
        events.drain(..events.len() - kept);
        RankReport {
            rank: rec.rank,
            label: rec.label,
            pvars: rec.pvars,
            events,
            dropped_events: rec.trace_capacity.map_or(0, |_| pushed - kept as u64),
            flight,
            telemetry: rec.telemetry.map(telemetry::Sampler::into_series),
            incident: rec.incident,
            wall,
        }
    })
}

/// Whether any event sink (trace or flight window) is live
/// (lets callers skip building argument vectors when nothing would
/// record them).
#[inline]
pub fn tracing_enabled() -> bool {
    gate() & GATE_EVENTS != 0
}

impl Recorder {
    /// Apply a pvar update to the cumulative set and to the telemetry bin
    /// of the current virtual interval.
    fn update(&mut self, f: impl Fn(&mut PvarSet)) {
        f(&mut self.pvars);
        if let Some(s) = self.telemetry.as_mut() {
            f(s.bin());
        }
    }

    /// Push an event into the ring if a sink is live. Each push past a
    /// sink's capacity ages one event out of it, counted under
    /// `flight.dropped` / `trace.dropped_events`.
    fn record(&mut self, ev: TraceEvent) {
        if self.trace_capacity.is_none() && !self.flight {
            return;
        }
        self.ring.push(ev);
        let pushed = self.ring.pushed();
        if self.flight && pushed > FLIGHT_CAPACITY as u64 {
            self.update(|p| p.count(pvar::FLIGHT_DROPPED, 1));
        }
        if self.trace_capacity.is_some_and(|c| pushed > c as u64) {
            self.update(|p| p.count(pvar::TRACE_DROPPED_EVENTS, 1));
        }
    }
}

/// The one record path: run `f` on this thread's recorder unless every
/// gate bit in `mask` is clear, timing it as obs work in the wall
/// profile.
#[inline]
fn probe(mask: u32, f: impl FnOnce(&mut Recorder)) {
    if gate() & mask == 0 {
        return;
    }
    let _wp = wallprof::obs_record_span();
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            f(rec);
        }
    });
}

/// Bump counter `id` by `n`.
#[inline]
pub fn count(id: CounterId, n: u64) {
    probe(u32::MAX, |rec| rec.update(|p| p.count(id, n)));
}

/// Set gauge `id` to level `v`.
#[inline]
pub fn gauge_set(id: GaugeId, v: i64) {
    probe(u32::MAX, |rec| rec.update(|p| p.gauge_set(id, v)));
}

/// Record a sample of histogram `id`.
#[inline]
pub fn observe(id: HistId, v: f64) {
    probe(u32::MAX, |rec| rec.update(|p| p.observe(id, v)));
}

/// Move this rank's telemetry sampler to the interval containing virtual
/// time `t`. The engine calls this with the arrival time of the delivery
/// it is about to handle (and the bindings with the application clock at
/// each call), so subsequent pvar updates bin to the virtual moment that
/// caused them — which is what makes the series independent of real-time
/// mailbox pop order.
#[inline]
pub fn telemetry_tick(t: VTime) {
    if gate() & GATE_TELEMETRY == 0 {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            if let Some(s) = rec.telemetry.as_mut() {
                s.tick(t.as_nanos());
            }
        }
    });
}

/// Account `bytes` sent from `src` to `dst` under the per-link pvars
/// `fabric.link.{src}->{dst}.bytes` / `.msgs`. Only live while telemetry
/// is sampling (the timeline analyzer is their only consumer).
#[inline]
pub fn link_traffic(src: usize, dst: usize, bytes: u64) {
    probe(GATE_TELEMETRY, |rec| {
        rec.update(|p| p.link_traffic(src, dst, bytes))
    });
}

/// Drop an incident mark on this rank: the engine observed fault `kind`
/// (blaming `failed_rank`) at virtual time `at`. The first mark wins —
/// later faults on the same rank are fallout and only bump the
/// `incident.marks` counter. Also lands an `"incident"` instant event in
/// the live event sinks so the mark shows up inside the flight window
/// itself.
pub fn incident_mark(kind: &'static str, failed_rank: usize, at: VTime, detail: String) {
    probe(GATE_PVARS, |rec| {
        rec.update(|p| p.count(pvar::INCIDENT_MARKS, 1));
        rec.record(TraceEvent::instant(
            "incident",
            "incident",
            at,
            vec![
                ("kind", ArgValue::Str(kind)),
                ("failed_rank", ArgValue::U64(failed_rank as u64)),
            ],
        ));
        rec.incident.get_or_insert(IncidentMark {
            t_ns: at.as_nanos(),
            kind,
            failed_rank,
            detail,
        });
    });
}

/// Record a complete span `[begin, end)` (no-op unless an event sink or
/// the wall profiler is live).
#[inline]
pub fn span(
    name: &'static str,
    cat: &'static str,
    begin: VTime,
    end: VTime,
    args: Vec<(&'static str, ArgValue)>,
) {
    probe(GATE_EVENTS | GATE_WALLPROF, |rec| {
        rec.record(TraceEvent::span(name, cat, begin, end, args))
    });
}

/// Record an instant event (no-op unless an event sink is live).
#[inline]
pub fn instant(
    name: &'static str,
    cat: &'static str,
    at: VTime,
    args: Vec<(&'static str, ArgValue)>,
) {
    probe(GATE_EVENTS | GATE_WALLPROF, |rec| {
        rec.record(TraceEvent::instant(name, cat, at, args))
    });
}

/// Record a flow begin/end event (no-op unless an event sink is live).
/// Matching ids on a `Begin` and an `End` across ranks become one
/// Perfetto arrow.
#[inline]
pub fn flow(
    name: &'static str,
    cat: &'static str,
    at: VTime,
    dir: FlowDir,
    id: u64,
    args: Vec<(&'static str, ArgValue)>,
) {
    probe(GATE_EVENTS | GATE_WALLPROF, |rec| {
        rec.record(TraceEvent::flow(name, cat, at, dir, id, args))
    });
}

/// Everything one rank's recorder collected.
#[derive(Debug, Clone)]
pub struct RankReport {
    pub rank: usize,
    pub label: String,
    pub pvars: PvarSet,
    /// Oldest-first trace events that survived the ring.
    pub events: Vec<TraceEvent>,
    /// Events evicted by ring overflow.
    pub dropped_events: u64,
    /// Drained flight window (only with `ObsOptions::flight`).
    pub flight: Option<FlightWindow>,
    /// Telemetry time-series (only with a sampling interval set).
    pub telemetry: Option<RankSeries>,
    /// First fault observed on this rank, if any.
    pub incident: Option<IncidentMark>,
    /// Wall-clock self-profile (only with `ObsOptions::profiling`).
    pub wall: Option<wallprof::RankWallProf>,
}

/// Rank reports compare on the *virtual-time* payload only: the
/// wall-clock profile differs on every run by nature and must never
/// participate in a determinism check. Everything else — including the
/// flight window, telemetry series, and incident mark — is virtual data
/// and *does* participate.
impl PartialEq for RankReport {
    fn eq(&self, other: &Self) -> bool {
        self.rank == other.rank
            && self.label == other.label
            && self.pvars == other.pvars
            && self.events == other.events
            && self.dropped_events == other.dropped_events
            && self.flight == other.flight
            && self.telemetry == other.telemetry
            && self.incident == other.incident
    }
}

/// A whole job's observability output, ranks in rank order.
#[derive(Debug, Clone, Default)]
pub struct JobReport {
    pub ranks: Vec<RankReport>,
    /// The simulator's own wall-clock profile (only with
    /// `ObsOptions::profiling`); excluded from equality and from every
    /// serialized digest (`pvar_dump`, `chrome_trace_json`).
    pub sim_perf: Option<wallprof::SimPerf>,
}

/// Same contract as [`RankReport`]'s equality: `sim_perf` is wall-clock
/// data and stays outside all determinism comparisons.
impl PartialEq for JobReport {
    fn eq(&self, other: &Self) -> bool {
        self.ranks == other.ranks
    }
}

/// Serialize one event in Chrome `trace_event` object shape under
/// process id `pid` (shared between the full trace export and the
/// incident bundle's flight windows).
pub(crate) fn write_chrome_event(w: &mut json::JsonBuf, pid: u64, ev: &TraceEvent) {
    w.begin_obj();
    w.key("ph");
    w.str_val(match (ev.flow, ev.dur_ns.is_some()) {
        (Some((FlowDir::Begin, _)), _) => "s",
        (Some((FlowDir::End, _)), _) => "f",
        (None, true) => "X",
        (None, false) => "i",
    });
    w.key("pid");
    w.uint_val(pid);
    w.key("tid");
    w.uint_val(0);
    w.key("ts");
    w.num_val(ev.ts_ns / 1_000.0);
    if let Some((dir, id)) = ev.flow {
        w.key("id");
        w.uint_val(id);
        if dir == FlowDir::End {
            // Bind the arrow head to the enclosing slice.
            w.key("bp");
            w.str_val("e");
        }
    } else if let Some(dur) = ev.dur_ns {
        w.key("dur");
        w.num_val(dur / 1_000.0);
    } else {
        // Thread-scoped instant marker.
        w.key("s");
        w.str_val("t");
    }
    w.key("name");
    w.str_val(ev.name);
    w.key("cat");
    w.str_val(ev.cat);
    if !ev.args.is_empty() {
        w.key("args");
        w.begin_obj();
        for (k, v) in &ev.args {
            w.key(k);
            match v {
                ArgValue::U64(n) => w.uint_val(*n),
                ArgValue::I64(n) => w.int_val(*n),
                ArgValue::F64(x) => w.num_val(*x),
                ArgValue::Str(s) => w.str_val(s),
                ArgValue::Bool(b) => w.bool_val(*b),
            }
        }
        w.end_obj();
    }
    w.end_obj();
}

impl JobReport {
    /// Cross-rank pvar aggregation (counters add, gauges max, histograms
    /// merge).
    pub fn merged_pvars(&self) -> PvarSet {
        let mut out = PvarSet::new();
        for r in &self.ranks {
            out.merge(&r.pvars);
        }
        out
    }

    /// Total events dropped across all rings.
    pub fn dropped_events(&self) -> u64 {
        self.ranks.iter().map(|r| r.dropped_events).sum()
    }

    /// The job's incident bundle, if a fault fired (see [`incident`]).
    pub fn incident_bundle_json(&self) -> Option<String> {
        incident::bundle_json(self)
    }

    /// The job's telemetry series as JSON, if sampling was on.
    pub fn telemetry_json(&self) -> Option<String> {
        telemetry::series_json(self)
    }

    /// The job's telemetry series as CSV, if sampling was on.
    pub fn telemetry_csv(&self) -> Option<String> {
        telemetry::series_csv(self)
    }

    /// Serialize every rank's events as a Chrome `trace_event` JSON file
    /// (the "JSON Object Format"), loadable in Perfetto / chrome://tracing.
    /// `pid` is the rank; timestamps are virtual microseconds.
    pub fn chrome_trace_json(&self) -> String {
        let mut w = json::JsonBuf::new();
        w.begin_obj();
        w.key("traceEvents");
        w.begin_arr();
        for r in &self.ranks {
            w.newline();
            // Process-name metadata row.
            w.begin_obj();
            w.key("ph");
            w.str_val("M");
            w.key("pid");
            w.uint_val(r.rank as u64);
            w.key("tid");
            w.uint_val(0);
            w.key("name");
            w.str_val("process_name");
            w.key("args");
            w.begin_obj();
            w.key("name");
            w.str_val(&r.label);
            w.end_obj();
            w.end_obj();
            for ev in &r.events {
                w.newline();
                write_chrome_event(&mut w, r.rank as u64, ev);
            }
        }
        w.newline();
        w.end_arr();
        w.key("displayTimeUnit");
        w.str_val("ns");
        // Carried in-band so the offline analyzer can flag truncated
        // traces without the pvar dump.
        w.key("droppedEvents");
        w.uint_val(self.dropped_events());
        w.end_obj();
        w.newline();
        w.finish()
    }

    /// Human-readable snapshot of the merged pvars (the `--pvar-dump`
    /// output).
    pub fn pvar_dump(&self) -> String {
        let merged = self.merged_pvars();
        let mut out = String::new();
        out.push_str(&format!(
            "# pvar snapshot ({} ranks, merged: counters sum, gauges max, hists merge)\n",
            self.ranks.len()
        ));
        for (name, v) in merged.iter() {
            match v {
                PvarValue::Counter(n) => out.push_str(&format!("{name:<40} counter {n}\n")),
                PvarValue::Gauge { last, max } => {
                    out.push_str(&format!("{name:<40} gauge   last={last} max={max}\n"))
                }
                PvarValue::Hist(h) => out.push_str(&format!(
                    "{name:<40} hist    count={} mean={:.1} max={:.1}\n",
                    h.count,
                    h.mean(),
                    h.max
                )),
            }
        }
        let dropped = self.dropped_events();
        if dropped > 0 {
            out.push_str(&format!("# trace ring dropped {dropped} events\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvar::{BIND_CALLS, MPJBUF_POOL_OUTSTANDING, MRT_GC_PAUSES_NS};

    /// Run `f` with a recorder installed, returning its report.
    fn with_recorder(opts: ObsOptions, f: impl FnOnce()) -> RankReport {
        install(0, opts);
        f();
        uninstall().expect("recorder was installed")
    }

    #[test]
    fn uninstalled_api_is_a_no_op() {
        assert_eq!(gate(), 0, "no recorder installed");
        count(BIND_CALLS, 1);
        gauge_set(MPJBUF_POOL_OUTSTANDING, 2);
        observe(MRT_GC_PAUSES_NS, 3.0);
        span("s", "c", VTime::ZERO, VTime::from_nanos(1.0), vec![]);
        telemetry_tick(VTime::from_nanos(5.0));
        link_traffic(0, 1, 64);
        incident_mark("rank_failed", 1, VTime::ZERO, String::new());
        assert!(uninstall().is_none());
    }

    #[test]
    fn recorder_collects_pvars_and_events() {
        let rep = with_recorder(ObsOptions::traced(), || {
            count(BIND_CALLS, 2);
            gauge_set(MPJBUF_POOL_OUTSTANDING, 5);
            observe(MRT_GC_PAUSES_NS, 12.0);
            span(
                "op",
                "test",
                VTime::from_nanos(10.0),
                VTime::from_nanos(30.0),
                vec![("bytes", ArgValue::U64(64))],
            );
            instant("mark", "test", VTime::from_nanos(15.0), vec![]);
        });
        assert_eq!(rep.pvars.counter("bind.calls"), 2);
        assert_eq!(rep.events.len(), 2);
        assert_eq!(rep.events[0].name, "op");
        assert_eq!(rep.events[0].dur_ns, Some(20.0));
        assert_eq!(rep.events[1].dur_ns, None);
        assert_eq!(rep.dropped_events, 0);
        assert!(rep.flight.is_none());
        assert!(rep.telemetry.is_none());
        assert!(rep.incident.is_none());
    }

    #[test]
    fn tracing_off_still_collects_pvars() {
        let rep = with_recorder(ObsOptions::default(), || {
            assert!(!tracing_enabled());
            count(BIND_CALLS, 1);
            span("op", "test", VTime::ZERO, VTime::from_nanos(1.0), vec![]);
        });
        assert_eq!(rep.pvars.counter("bind.calls"), 1);
        assert!(rep.events.is_empty());
    }

    #[test]
    fn ring_overflow_is_reported() {
        let rep = with_recorder(
            ObsOptions {
                tracing: true,
                ring_capacity: 4,
                ..Default::default()
            },
            || {
                for i in 0..10 {
                    instant("e", "t", VTime::from_nanos(i as f64), vec![]);
                }
            },
        );
        assert_eq!(rep.events.len(), 4);
        assert_eq!(rep.dropped_events, 6);
        assert_eq!(rep.events[0].ts_ns, 6.0);
        // Evictions are surfaced as a pvar, not just a field.
        assert_eq!(rep.pvars.counter(DROPPED_EVENTS_PVAR), 6);
    }

    #[test]
    fn flight_window_wraps_and_counts_drops() {
        let rep = with_recorder(ObsOptions::default().with_flight(), || {
            assert!(tracing_enabled(), "flight alone lights the event gate");
            for i in 0..FLIGHT_CAPACITY + 6 {
                instant("e", "t", VTime::from_nanos(i as f64), vec![]);
            }
        });
        // The trace sink is off — only the window reads the ring.
        assert!(rep.events.is_empty());
        assert_eq!(rep.dropped_events, 0);
        let w = rep.flight.expect("flight window drained");
        assert_eq!(w.events.len(), FLIGHT_CAPACITY);
        assert_eq!(w.dropped, 6);
        let ts: Vec<f64> = w.events.iter().map(|e| e.ts_ns).collect();
        let newest: Vec<f64> = (6..FLIGHT_CAPACITY + 6).map(|i| i as f64).collect();
        assert_eq!(ts, newest, "oldest dropped first");
        assert_eq!(rep.pvars.counter(flight::DROPPED_PVAR), 6);
    }

    #[test]
    fn tracing_and_flight_both_record() {
        let rep = with_recorder(ObsOptions::traced().with_flight(), || {
            for i in 0..FLIGHT_CAPACITY + 3 {
                instant("e", "t", VTime::from_nanos(i as f64), vec![]);
            }
        });
        assert_eq!(
            rep.events.len(),
            FLIGHT_CAPACITY + 3,
            "full ring keeps everything"
        );
        let w = rep.flight.unwrap();
        assert_eq!(w.events.len(), FLIGHT_CAPACITY);
        assert_eq!(w.dropped, 3);
        assert_eq!(w.events[0].ts_ns, 3.0, "the window is the newest tail");
        assert_eq!(rep.pvars.counter(flight::DROPPED_PVAR), 3);
        assert_eq!(rep.pvars.counter(DROPPED_EVENTS_PVAR), 0);
    }

    #[test]
    fn short_trace_and_flight_window_read_one_ring() {
        let opts = ObsOptions {
            ring_capacity: 4,
            ..ObsOptions::traced()
        };
        let rep = with_recorder(opts.with_flight(), || {
            for i in 0..FLIGHT_CAPACITY + 1 {
                instant("e", "t", VTime::from_nanos(i as f64), vec![]);
            }
        });
        assert_eq!(rep.events.len(), 4);
        assert_eq!(rep.events[0].ts_ns, (FLIGHT_CAPACITY - 3) as f64);
        assert_eq!(rep.dropped_events, FLIGHT_CAPACITY as u64 - 3);
        let w = rep.flight.unwrap();
        assert_eq!(w.events.len(), FLIGHT_CAPACITY);
        assert_eq!(w.dropped, 1);
        assert_eq!(rep.pvars.counter(DROPPED_EVENTS_PVAR), rep.dropped_events);
        assert_eq!(rep.pvars.counter(flight::DROPPED_PVAR), 1);
    }

    #[test]
    fn telemetry_bins_by_virtual_tick() {
        let rep = with_recorder(ObsOptions::default().with_telemetry(100.0), || {
            telemetry_tick(VTime::from_nanos(10.0));
            count(BIND_CALLS, 1);
            telemetry_tick(VTime::from_nanos(250.0));
            count(BIND_CALLS, 2);
            link_traffic(0, 1, 64);
        });
        let series = rep.telemetry.expect("sampler drained");
        assert_eq!(series.interval_ns, 100.0);
        assert_eq!(series.samples.len(), 2);
        assert_eq!(series.samples[0].t_ns, 0.0);
        assert_eq!(series.samples[0].pvars.counter("bind.calls"), 1);
        assert_eq!(series.samples[1].t_ns, 200.0);
        assert_eq!(series.samples[1].pvars.counter("bind.calls"), 2);
        assert_eq!(
            series.samples[1].pvars.counter("fabric.link.0->1.bytes"),
            64
        );
        // Cumulative pvars see the same totals.
        assert_eq!(rep.pvars.counter("bind.calls"), 3);
        assert_eq!(rep.pvars.counter("fabric.link.0->1.msgs"), 1);
    }

    #[test]
    fn link_traffic_is_inert_without_telemetry() {
        let rep = with_recorder(ObsOptions::default(), || {
            link_traffic(0, 1, 64);
        });
        assert_eq!(rep.pvars.counter("fabric.link.0->1.bytes"), 0);
    }

    #[test]
    fn first_incident_mark_wins() {
        let rep = with_recorder(ObsOptions::default().with_flight(), || {
            incident_mark(
                "transport_failure",
                1,
                VTime::from_nanos(100.0),
                "retries exhausted".to_string(),
            );
            incident_mark("watchdog", 2, VTime::from_nanos(900.0), String::new());
        });
        let m = rep.incident.expect("mark kept");
        assert_eq!(m.kind, "transport_failure");
        assert_eq!(m.failed_rank, 1);
        assert_eq!(m.t_ns, 100.0);
        assert_eq!(rep.pvars.counter("incident.marks"), 2);
        // Marks are visible inside the flight window too.
        let w = rep.flight.unwrap();
        assert_eq!(w.events.iter().filter(|e| e.name == "incident").count(), 2);
    }

    #[test]
    fn flow_events_serialize_as_s_and_f_records() {
        let rep = with_recorder(ObsOptions::traced(), || {
            flow(
                "msg",
                "flow",
                VTime::from_nanos(1000.0),
                FlowDir::Begin,
                7,
                vec![("bytes", ArgValue::U64(8))],
            );
            flow(
                "msg",
                "flow",
                VTime::from_nanos(2000.0),
                FlowDir::End,
                7,
                vec![],
            );
        });
        let json = JobReport {
            ranks: vec![rep],
            sim_perf: None,
        }
        .chrome_trace_json();
        assert!(json.contains(r#""ph":"s","pid":0,"tid":0,"ts":1,"id":7"#));
        assert!(json.contains(r#""ph":"f","pid":0,"tid":0,"ts":2,"id":7,"bp":"e""#));
    }

    #[test]
    fn chrome_trace_shape_and_determinism() {
        let mk = || {
            let rep = with_recorder(ObsOptions::traced(), || {
                set_process_label("rank 0 (TEST)".to_string());
                span(
                    "bcast",
                    "coll",
                    VTime::from_nanos(1000.0),
                    VTime::from_nanos(3500.0),
                    vec![
                        ("algo", ArgValue::Str("two_level")),
                        ("bytes", ArgValue::U64(4096)),
                    ],
                );
            });
            JobReport {
                ranks: vec![rep],
                sim_perf: None,
            }
            .chrome_trace_json()
        };
        let a = mk();
        assert_eq!(a, mk(), "trace export must be deterministic");
        assert!(a.contains(r#""name":"process_name""#));
        assert!(a.contains(r#""name":"rank 0 (TEST)""#));
        assert!(a.contains(r#""ph":"X""#));
        assert!(a.contains(r#""ts":1,"dur":2.5"#));
        assert!(a.contains(r#""algo":"two_level""#));
        assert!(a.starts_with('{') && a.trim_end().ends_with('}'));
    }

    #[test]
    fn pvar_dump_lists_merged_values() {
        let r0 = with_recorder(ObsOptions::default(), || count(BIND_CALLS, 1));
        let r1 = {
            install(1, ObsOptions::default());
            count(BIND_CALLS, 2);
            uninstall().unwrap()
        };
        let dump = JobReport {
            ranks: vec![r0, r1],
            sim_perf: None,
        }
        .pvar_dump();
        assert!(dump.contains("2 ranks"));
        assert!(dump.contains("counter 3"));
    }

    /// Two ranks' recorders with different options, interleaved on one
    /// thread: each keeps only its own pvars and ring records, and the
    /// thread's own (empty) state is back after every swap.
    #[test]
    fn swap_context_keeps_each_rank_to_its_own_state() {
        let (mut a, mut b) = (RankContext::default(), RankContext::default());
        swap_context(&mut a);
        install(0, ObsOptions::traced());
        swap_context(&mut a);
        swap_context(&mut b);
        install(1, ObsOptions::default().with_flight());
        swap_context(&mut b);
        for i in 0..3 {
            assert_eq!(gate(), 0, "the thread's own state is back");
            let at = VTime::from_nanos(i as f64);
            swap_context(&mut a);
            count(BIND_CALLS, 1);
            instant("a", "test", at, vec![]);
            swap_context(&mut a);
            swap_context(&mut b);
            gauge_set(MPJBUF_POOL_OUTSTANDING, i);
            instant("b", "test", at, vec![]);
            swap_context(&mut b);
        }
        let report = |ctx: &mut RankContext| {
            swap_context(ctx);
            let rep = uninstall().expect("the rank's recorder");
            swap_context(ctx);
            rep
        };
        let (ra, rb) = (report(&mut a), report(&mut b));
        assert!(uninstall().is_none(), "no recorder leaked to the thread");
        assert_eq!((ra.rank, rb.rank), (0, 1));
        assert_eq!(ra.pvars.counter(BIND_CALLS.name()), 3);
        assert!(ra.pvars.get(MPJBUF_POOL_OUTSTANDING.name()).is_none());
        assert_eq!(rb.pvars.counter(BIND_CALLS.name()), 0);
        assert!(rb.pvars.get(MPJBUF_POOL_OUTSTANDING.name()).is_some());
        assert_eq!(ra.events.len(), 3);
        assert!(ra.events.iter().all(|e| e.name == "a"));
        assert!(ra.flight.is_none() && rb.events.is_empty());
        let flight = rb.flight.expect("rank 1 keeps a flight window");
        assert_eq!(flight.events.len(), 3);
        assert!(flight.events.iter().all(|e| e.name == "b"));
    }

    /// A wallprof span open across a swap accrues only the time its rank
    /// was swapped in; the rank's wall still covers the whole interval.
    #[test]
    fn span_open_across_a_swap_skips_the_switched_out_time() {
        use std::time::Duration;
        const AWAY: Duration = Duration::from_millis(60);
        let mut ctx = RankContext::default();
        swap_context(&mut ctx);
        install(0, ObsOptions::profiled());
        let span = wallprof::span(wallprof::Subsystem::Engine);
        swap_context(&mut ctx);
        std::thread::sleep(AWAY);
        swap_context(&mut ctx);
        drop(span);
        let wall = uninstall().and_then(|r| r.wall).expect("profiled");
        swap_context(&mut ctx);
        let engine = wall.subs_ns[wallprof::Subsystem::Engine as usize];
        assert!(
            engine < AWAY.as_nanos() as u64 / 2,
            "engine accrued {engine} ns of a {AWAY:?} absence"
        );
        assert!(wall.wall_ns >= AWAY.as_nanos() as u64);
    }

    #[test]
    fn gate_resets_after_uninstall() {
        install(0, ObsOptions::traced().with_flight().with_telemetry(10.0));
        assert_ne!(gate() & GATE_PVARS, 0, "recorder installed");
        assert!(tracing_enabled());
        uninstall();
        assert_eq!(gate() & (GATE_PVARS | GATE_EVENTS | GATE_TELEMETRY), 0);
    }
}
