//! `wallprof` — wall-clock self-profiling of the *simulator itself*: the
//! real-time mirror of the virtual-time tracer.
//!
//! Everything else in `obs` measures the *simulated* program in virtual
//! time. This module measures the *simulator* in real time: scoped
//! exclusive timers over its hot subsystems (engine dispatch, fabric
//! injection, tag matching, reliability framing, schedule progression,
//! buffer pooling, and the observability record path itself) plus flat
//! counters (injections, deliveries, match comparisons, allocations, …).
//! Per rank-thread totals are harvested into [`RankWallProf`] and merged
//! into a job-level [`SimPerf`] with the headline metrics: events/sec,
//! virtual-ns simulated per wall-second, allocations per message, and
//! per-subsystem wall-time shares.
//!
//! ## Determinism contract
//!
//! Wall-clock readings differ on every run, so they must never leak into
//! a determinism digest: they are not pvars, they never enter the trace
//! ring, `JobReport::pvar_dump` / `chrome_trace_json` ignore them, and
//! the report equality impls skip them (see the manual `PartialEq` on
//! `RankReport` / `JobReport`). Profiling also never *charges* virtual
//! time — with profiling on or off, every simulated number is
//! bit-identical, enforced by workspace tests.
//!
//! Like the recorder, the state is a thread-local that every probe
//! checks with a single `Cell` read when profiling is off. Where several
//! ranks share a thread (the event engine's rank contexts), each rank's
//! state is swapped in for its turn by [`crate::swap_context`], which
//! stops the open span's clock while the rank is switched out.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use crate::json::JsonBuf;

/// Number of tracked subsystems (== `SUBSYSTEM_NAMES.len()`).
pub const NSUBS: usize = 7;

/// Simulator subsystems whose exclusive wall time is attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Subsystem {
    /// Engine event dispatch (`Engine::handle`).
    Engine = 0,
    /// Fabric injection + delivery bookkeeping.
    Fabric = 1,
    /// Tag-matching scans (posted list + unexpected queue).
    Match = 2,
    /// Reliability-sublayer framing (checksums, admission, retransmit).
    Reliability = 3,
    /// Non-blocking schedule progression polls.
    Sched = 4,
    /// Buffer-pool acquire/release and staging allocations.
    Pool = 5,
    /// Pvar / tracer record cost (the observability layer itself).
    Obs = 6,
}

/// Display names, indexed by `Subsystem as usize`.
pub const SUBSYSTEM_NAMES: [&str; NSUBS] = [
    "engine",
    "fabric",
    "match",
    "reliability",
    "sched",
    "pool",
    "obs",
];

/// Number of flat counters (== `COUNTER_NAMES.len()`).
pub const NCOUNTERS: usize = 10;

/// Flat wall-side counters. These mirror some pvars but live outside the
/// determinism digests, so they may count real-time-dependent work (e.g.
/// per-scan comparisons) that a pvar never could.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Messages handed to the fabric (including retransmit copies).
    Injections = 0,
    /// Deliveries dispatched by the engine.
    Deliveries = 1,
    /// Tag-matching scan operations.
    MatchScans = 2,
    /// Envelope comparisons performed across all scans.
    MatchComparisons = 3,
    /// Non-blocking schedule progression polls.
    SchedPolls = 4,
    /// Buffer-pool acquires (hits + misses).
    PoolAcquires = 5,
    /// Payload/staging allocations (message copies, pool misses).
    Allocs = 6,
    /// MPI-level messages sent.
    Messages = 7,
    /// Pvar/trace record operations.
    ObsRecords = 8,
    /// Payload bytes copied on the host along the point-to-point and
    /// one-sided paths: datatype pack/unpack, the engine's frame capture
    /// and window deposits, and the bindings' receive deposits, staging
    /// gathers/scatters and window synchronization. Collective-internal
    /// fragment copies are not counted.
    CopyBytes = 9,
}

/// Display names, indexed by `Counter as usize`.
pub const COUNTER_NAMES: [&str; NCOUNTERS] = [
    "injections",
    "deliveries",
    "match_scans",
    "match_comparisons",
    "sched_polls",
    "pool_acquires",
    "allocs",
    "messages",
    "obs_records",
    "copy_bytes",
];

/// Per-thread profiling state. `Cell`-based so the hot probes never pay
/// a `RefCell` borrow; only the (cold) span stack uses one.
struct WpState {
    active: Cell<bool>,
    started: Cell<Option<Instant>>,
    subs_ns: [Cell<u64>; NSUBS],
    counters: [Cell<u64>; NCOUNTERS],
    /// Subsystem currently accruing exclusive time, and since when.
    cur: Cell<Option<usize>>,
    cur_since: Cell<Option<Instant>>,
    /// Interrupted subsystems (`span` nests; exclusive time means the
    /// inner span's cost is *not* double-counted in the outer one).
    stack: RefCell<Vec<Option<usize>>>,
}

thread_local! {
    static WP: WpState = WpState {
        active: Cell::new(false),
        started: Cell::new(None),
        subs_ns: std::array::from_fn(|_| Cell::new(0)),
        counters: std::array::from_fn(|_| Cell::new(0)),
        cur: Cell::new(None),
        cur_since: Cell::new(None),
        stack: RefCell::new(Vec::with_capacity(8)),
    };
}

/// A rank's profiling state while it is switched out (see
/// [`crate::swap_context`]). The open span's start is not kept: it is
/// settled at swap-out and restarted at swap-in.
#[derive(Default)]
pub(crate) struct Saved {
    active: bool,
    started: Option<Instant>,
    subs_ns: [u64; NSUBS],
    counters: [u64; NCOUNTERS],
    cur: Option<usize>,
    stack: Vec<Option<usize>>,
}

/// Exchange this thread's profiling state with `saved`.
pub(crate) fn swap(saved: &mut Saved) {
    WP.with(|s| {
        let now = (s.cur.get().is_some() || saved.cur.is_some()).then(Instant::now);
        if let (Some(cur), Some(since), Some(now)) = (s.cur.get(), s.cur_since.get(), now) {
            let cell = &s.subs_ns[cur];
            cell.set(cell.get() + now.duration_since(since).as_nanos() as u64);
        }
        saved.active = s.active.replace(saved.active);
        saved.started = s.started.replace(saved.started);
        for (cell, v) in s.subs_ns.iter().zip(&mut saved.subs_ns) {
            *v = cell.replace(*v);
        }
        for (cell, v) in s.counters.iter().zip(&mut saved.counters) {
            *v = cell.replace(*v);
        }
        saved.cur = s.cur.replace(saved.cur);
        s.cur_since.set(s.cur.get().and(now));
        std::mem::swap(&mut *s.stack.borrow_mut(), &mut saved.stack);
    });
}

/// Activate profiling for this thread, zeroing all state.
pub fn install() {
    crate::set_gate(crate::GATE_WALLPROF, true);
    WP.with(|s| {
        s.active.set(true);
        s.started.set(Some(Instant::now()));
        for c in &s.subs_ns {
            c.set(0);
        }
        for c in &s.counters {
            c.set(0);
        }
        s.cur.set(None);
        s.cur_since.set(None);
        s.stack.borrow_mut().clear();
    });
}

/// Deactivate without harvesting (used when a recorder is reinstalled
/// with profiling off, so stale state never leaks into a later harvest).
pub fn reset() {
    crate::set_gate(crate::GATE_WALLPROF, false);
    WP.with(|s| s.active.set(false));
}

/// Deactivate and return this thread's totals; `None` if profiling was
/// never activated.
pub fn harvest() -> Option<RankWallProf> {
    crate::set_gate(crate::GATE_WALLPROF, false);
    WP.with(|s| {
        if !s.active.get() {
            return None;
        }
        s.active.set(false);
        let wall_ns = s
            .started
            .take()
            .map(|t| t.elapsed().as_nanos() as u64)
            .unwrap_or(0);
        Some(RankWallProf {
            wall_ns,
            subs_ns: std::array::from_fn(|i| s.subs_ns[i].get()),
            counters: std::array::from_fn(|i| s.counters[i].get()),
        })
    })
}

/// Whether profiling is active on this thread.
#[inline]
pub fn enabled() -> bool {
    WP.with(|s| s.active.get())
}

/// Bump counter `c` by `n` (one thread-local read when inactive).
#[inline]
pub fn add(c: Counter, n: u64) {
    WP.with(|s| {
        if s.active.get() {
            let cell = &s.counters[c as usize];
            cell.set(cell.get() + n);
        }
    });
}

/// RAII guard for an exclusive-time subsystem span.
#[must_use = "the span ends when the guard drops"]
pub struct SpanGuard {
    live: bool,
}

/// Enter subsystem `sub`: wall time accrues to it until the guard drops
/// (or a nested span preempts it). Inert — a single thread-local read —
/// when profiling is off.
#[inline]
pub fn span(sub: Subsystem) -> SpanGuard {
    let live = WP.with(|s| {
        if !s.active.get() {
            return false;
        }
        enter(s, sub as usize);
        true
    });
    SpanGuard { live }
}

/// One probe for the observability record path: counts an obs record and
/// opens an `Obs` span in a single thread-local access.
#[inline]
pub fn obs_record_span() -> SpanGuard {
    let live = WP.with(|s| {
        if !s.active.get() {
            return false;
        }
        let cell = &s.counters[Counter::ObsRecords as usize];
        cell.set(cell.get() + 1);
        enter(s, Subsystem::Obs as usize);
        true
    });
    SpanGuard { live }
}

fn enter(s: &WpState, sub: usize) {
    let now = Instant::now();
    if let (Some(cur), Some(since)) = (s.cur.get(), s.cur_since.get()) {
        let cell = &s.subs_ns[cur];
        cell.set(cell.get() + now.duration_since(since).as_nanos() as u64);
    }
    s.stack.borrow_mut().push(s.cur.get());
    s.cur.set(Some(sub));
    s.cur_since.set(Some(now));
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        WP.with(|s| {
            // Harvested mid-span: totals are already frozen.
            if !s.active.get() {
                return;
            }
            let now = Instant::now();
            if let (Some(cur), Some(since)) = (s.cur.get(), s.cur_since.get()) {
                let cell = &s.subs_ns[cur];
                cell.set(cell.get() + now.duration_since(since).as_nanos() as u64);
            }
            let prev = s.stack.borrow_mut().pop().flatten();
            s.cur.set(prev);
            s.cur_since.set(prev.map(|_| now));
        });
    }
}

/// One rank-thread's harvested totals.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RankWallProf {
    /// Wall time from install to harvest (the rank thread's lifetime).
    pub wall_ns: u64,
    /// Exclusive wall nanoseconds per subsystem.
    pub subs_ns: [u64; NSUBS],
    /// Flat counters.
    pub counters: [u64; NCOUNTERS],
}

impl RankWallProf {
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// The simulator's unit of work: fabric injections + deliveries.
    pub fn events(&self) -> u64 {
        self.counter(Counter::Injections) + self.counter(Counter::Deliveries)
    }

    /// Accumulate `other` (counters and subsystem times sum; wall takes
    /// the max — concurrent rank threads overlap in wall time).
    pub fn merge(&mut self, other: &RankWallProf) {
        self.wall_ns = self.wall_ns.max(other.wall_ns);
        for i in 0..NSUBS {
            self.subs_ns[i] += other.subs_ns[i];
        }
        for i in 0..NCOUNTERS {
            self.counters[i] += other.counters[i];
        }
    }
}

/// One rank's slice of the job-level profile.
#[derive(Debug, Clone)]
pub struct RankPerf {
    pub rank: usize,
    /// Final virtual clock of this rank (ns) — deterministic.
    pub virtual_ns: f64,
    pub prof: RankWallProf,
}

/// The job-level self-profile merged into `JobReport` (outside every
/// determinism digest — see the module docs).
#[derive(Debug, Clone)]
pub struct SimPerf {
    /// Cluster engine the job ran under (`"threaded"` or `"event"`).
    /// Events are counted per rank either way (injections + deliveries
    /// through each rank's endpoint), so `events/sec` is directly
    /// comparable across engines.
    pub engine: &'static str,
    /// Wall time of the whole job as measured by the harness (ns).
    pub wall_ns: u64,
    /// Final virtual clock of the job: max across ranks (ns).
    pub virtual_ns: f64,
    /// Per-rank detail, rank order.
    pub ranks: Vec<RankPerf>,
}

impl Default for SimPerf {
    fn default() -> Self {
        SimPerf {
            engine: "threaded",
            wall_ns: 0,
            virtual_ns: 0.0,
            ranks: Vec::new(),
        }
    }
}

impl SimPerf {
    /// Assemble from per-rank harvests plus the harness wall measurement
    /// (threaded-engine label; see [`SimPerf::from_ranks_on`]).
    pub fn from_ranks(wall_ns: u64, ranks: Vec<RankPerf>) -> SimPerf {
        Self::from_ranks_on("threaded", wall_ns, ranks)
    }

    /// [`SimPerf::from_ranks`] with an explicit engine label.
    pub fn from_ranks_on(engine: &'static str, wall_ns: u64, ranks: Vec<RankPerf>) -> SimPerf {
        let virtual_ns = ranks.iter().map(|r| r.virtual_ns).fold(0.0, f64::max);
        SimPerf {
            engine,
            wall_ns,
            virtual_ns,
            ranks,
        }
    }

    /// Cross-rank totals (counters/subsystem ns summed, wall = max rank).
    pub fn totals(&self) -> RankWallProf {
        let mut out = RankWallProf::default();
        for r in &self.ranks {
            out.merge(&r.prof);
        }
        out
    }

    fn wall_secs(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }

    /// Total simulator events (injections + deliveries) across ranks.
    pub fn events(&self) -> u64 {
        self.ranks.iter().map(|r| r.prof.events()).sum()
    }

    /// Headline: simulator events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.events() as f64 / self.wall_secs()
    }

    /// Headline: virtual nanoseconds simulated per wall-clock second.
    pub fn vns_per_wall_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.virtual_ns / self.wall_secs()
    }

    /// Headline: payload allocations per MPI-level message.
    pub fn allocs_per_msg(&self) -> f64 {
        let t = self.totals();
        let msgs = t.counter(Counter::Messages);
        if msgs == 0 {
            return 0.0;
        }
        t.counter(Counter::Allocs) as f64 / msgs as f64
    }

    /// Share of the job's wall time spent (exclusively) in subsystem
    /// `i`; the remainder is "other/idle" (app code, thread parking).
    /// The whole is the job wall on the event engine, where one rank
    /// runs at a time, and the ranks' summed thread lifetime on the
    /// threaded engine, where they run side by side.
    pub fn subsystem_share_pct(&self, i: usize) -> f64 {
        let busy_base: u64 = if self.engine == "event" {
            self.wall_ns
        } else {
            self.ranks.iter().map(|r| r.prof.wall_ns).sum()
        };
        if busy_base == 0 {
            return 0.0;
        }
        100.0 * self.totals().subs_ns[i] as f64 / busy_base as f64
    }

    /// The `obs-perf` report: a `#`-prefixed block usable directly as a
    /// text-report footer.
    pub fn render_text(&self) -> String {
        let t = self.totals();
        let mut out = String::new();
        out.push_str(&format!(
            "# sim-perf: {} ranks ({} engine), wall {:.2} ms, virtual {:.3} ms\n",
            self.ranks.len(),
            self.engine,
            self.wall_ns as f64 / 1e6,
            self.virtual_ns / 1e6,
        ));
        out.push_str(&format!(
            "#   events/sec   {:>12.0}  (injections {}, deliveries {})\n",
            self.events_per_sec(),
            t.counter(Counter::Injections),
            t.counter(Counter::Deliveries),
        ));
        out.push_str(&format!(
            "#   vns/wall-sec {:>12.3e}\n",
            self.vns_per_wall_sec()
        ));
        out.push_str(&format!(
            "#   allocs/msg   {:>12.2}  (allocs {}, messages {}, copy bytes {})\n",
            self.allocs_per_msg(),
            t.counter(Counter::Allocs),
            t.counter(Counter::Messages),
            t.counter(Counter::CopyBytes),
        ));
        let scans = t.counter(Counter::MatchScans);
        let cmps = t.counter(Counter::MatchComparisons);
        out.push_str(&format!(
            "#   match        scans {scans}  comparisons {cmps}  ({:.2}/scan)\n",
            if scans == 0 {
                0.0
            } else {
                cmps as f64 / scans as f64
            }
        ));
        out.push_str(&format!(
            "#   sched polls  {}  pool acquires {}  obs records {}\n",
            t.counter(Counter::SchedPolls),
            t.counter(Counter::PoolAcquires),
            t.counter(Counter::ObsRecords),
        ));
        out.push_str("#   wall-time shares:");
        let mut accounted = 0.0;
        for (i, name) in SUBSYSTEM_NAMES.iter().enumerate() {
            let pct = self.subsystem_share_pct(i);
            accounted += pct;
            out.push_str(&format!(" {name} {pct:.1}%"));
        }
        out.push_str(&format!(" other/idle {:.1}%\n", 100.0 - accounted));
        out
    }

    /// Write the `sim_perf` JSON object (the `ombj --format json` block).
    pub fn write_json(&self, w: &mut JsonBuf) {
        let t = self.totals();
        w.begin_obj();
        w.key("engine");
        w.str_val(self.engine);
        w.key("ranks");
        w.uint_val(self.ranks.len() as u64);
        w.key("wall_ms");
        w.num_val(self.wall_ns as f64 / 1e6);
        w.key("virtual_ms");
        w.num_val(self.virtual_ns / 1e6);
        w.key("events");
        w.uint_val(self.events());
        w.key("events_per_sec");
        w.num_val(self.events_per_sec());
        w.key("vns_per_ws");
        w.num_val(self.vns_per_wall_sec());
        w.key("alloc_per_msg");
        w.num_val(self.allocs_per_msg());
        w.key("counters");
        w.begin_obj();
        for (i, name) in COUNTER_NAMES.iter().enumerate() {
            w.key(name);
            w.uint_val(t.counters[i]);
        }
        w.end_obj();
        w.key("subsystems");
        w.begin_arr();
        for (i, name) in SUBSYSTEM_NAMES.iter().enumerate() {
            w.begin_obj();
            w.key("name");
            w.str_val(name);
            w.key("wall_ns");
            w.uint_val(t.subs_ns[i]);
            w.key("share_pct");
            w.num_val(self.subsystem_share_pct(i));
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t0 = Instant::now();
        while (t0.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn inactive_probes_are_inert() {
        reset();
        add(Counter::Injections, 3);
        {
            let _g = span(Subsystem::Engine);
        }
        assert!(!enabled());
        assert!(harvest().is_none());
    }

    #[test]
    fn counters_and_spans_accumulate() {
        install();
        add(Counter::Messages, 2);
        add(Counter::Allocs, 3);
        {
            let _g = span(Subsystem::Engine);
            spin(200_000);
        }
        let p = harvest().expect("was active");
        assert_eq!(p.counter(Counter::Messages), 2);
        assert_eq!(p.counter(Counter::Allocs), 3);
        assert!(p.subs_ns[Subsystem::Engine as usize] >= 100_000);
        assert!(p.wall_ns >= p.subs_ns[Subsystem::Engine as usize]);
        // A second harvest yields nothing.
        assert!(harvest().is_none());
    }

    #[test]
    fn nested_spans_attribute_exclusive_time() {
        install();
        {
            let _outer = span(Subsystem::Engine);
            spin(100_000);
            {
                let _inner = span(Subsystem::Match);
                spin(100_000);
            }
            spin(100_000);
        }
        let p = harvest().unwrap();
        let engine = p.subs_ns[Subsystem::Engine as usize];
        let matching = p.subs_ns[Subsystem::Match as usize];
        assert!(engine >= 150_000, "engine exclusive {engine}");
        assert!(matching >= 50_000, "match exclusive {matching}");
        // Exclusive attribution: the sum cannot exceed total wall time
        // (inclusive accounting would make engine alone ≈ wall).
        assert!(engine + matching <= p.wall_ns);
    }

    #[test]
    fn simperf_headline_metrics() {
        let mut prof = RankWallProf {
            wall_ns: 1_000_000, // 1 ms
            ..Default::default()
        };
        prof.counters[Counter::Injections as usize] = 600;
        prof.counters[Counter::Deliveries as usize] = 400;
        prof.counters[Counter::Messages as usize] = 500;
        prof.counters[Counter::Allocs as usize] = 1000;
        prof.subs_ns[Subsystem::Engine as usize] = 250_000;
        let perf = SimPerf::from_ranks(
            2_000_000,
            vec![RankPerf {
                rank: 0,
                virtual_ns: 4_000_000.0,
                prof,
            }],
        );
        assert_eq!(perf.events(), 1000);
        assert!((perf.events_per_sec() - 500_000.0).abs() < 1e-6);
        assert!((perf.vns_per_wall_sec() - 2e9).abs() < 1.0);
        assert!((perf.allocs_per_msg() - 2.0).abs() < 1e-12);
        assert!((perf.subsystem_share_pct(Subsystem::Engine as usize) - 25.0).abs() < 1e-9);
        let text = perf.render_text();
        assert!(text.contains("events/sec"), "{text}");
        assert!(text.contains("other/idle"), "{text}");
        assert!(text.lines().all(|l| l.starts_with('#')), "{text}");
        let mut w = JsonBuf::new();
        perf.write_json(&mut w);
        let j = w.finish();
        let v = crate::json::parse(&j).expect("sim_perf json parses");
        assert_eq!(v.get("events").and_then(|e| e.as_f64()), Some(1000.0));
        assert!(v.get("subsystems").and_then(|s| s.as_arr()).is_some());
    }

    #[test]
    fn share_denominator_follows_the_engine() {
        // Four ranks, each alive for the whole 1 ms job, with 250 us of
        // engine time between them.
        let ranks: Vec<RankPerf> = (0..4)
            .map(|rank| {
                let mut prof = RankWallProf {
                    wall_ns: 1_000_000,
                    ..Default::default()
                };
                prof.subs_ns[Subsystem::Engine as usize] = 62_500;
                RankPerf {
                    rank,
                    virtual_ns: 0.0,
                    prof,
                }
            })
            .collect();
        let engine = Subsystem::Engine as usize;
        // One rank runs at a time: the job wall is the whole.
        let event = SimPerf::from_ranks_on("event", 1_000_000, ranks.clone());
        assert!((event.subsystem_share_pct(engine) - 25.0).abs() < 1e-9);
        // Ranks run side by side: their summed lifetimes are the whole.
        let threaded = SimPerf::from_ranks_on("threaded", 1_000_000, ranks);
        assert!((threaded.subsystem_share_pct(engine) - 6.25).abs() < 1e-9);
    }

    #[test]
    fn empty_simperf_divides_safely() {
        let perf = SimPerf::default();
        assert_eq!(perf.events_per_sec(), 0.0);
        assert_eq!(perf.vns_per_wall_sec(), 0.0);
        assert_eq!(perf.allocs_per_msg(), 0.0);
        assert_eq!(perf.subsystem_share_pct(0), 0.0);
    }
}
