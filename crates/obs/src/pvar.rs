//! Performance variables (pvars), in the spirit of the MPI_T tool
//! information interface.
//!
//! A pvar is a named, typed metric a library layer exports because a tool
//! might want to read it: protocol decision counters, queue-depth gauges,
//! pause-time histograms. Every pvar is one line of the static [`TABLE`]:
//! an id, a dotted name (`pt2pt.eager_msgs`) and a class. As an MPI_T tool
//! binds a handle once, the recording side names a pvar by its id and
//! updates a dense slot; names are read back only at dump time. An id's
//! type carries its class. The README's pvar catalogue documents the
//! table, and a test keeps the two equal.
//!
//! Three classes, mirroring MPI_T's counter / level / aggregate split:
//!
//! * **Counter** — monotonically increasing `u64` (events, bytes).
//! * **Gauge** — instantaneous level; records the last and the high-water
//!   value (unexpected-queue depth, outstanding pool buffers).
//! * **Hist** — count, mean and max of `f64` samples (GC pause ns).
//!
//! Per-directed-link traffic, `fabric.link.{src}->{dst}.{bytes,msgs}`, is
//! the one family outside the table: a set names a link when it first
//! sees it.

use std::collections::BTreeMap;

/// A pvar's class, fixed by its [`TABLE`] line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Counter,
    Gauge,
    Hist,
}

/// One [`TABLE`] line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Desc {
    pub name: &'static str,
    pub class: Class,
}

/// The id of a [`TABLE`] line whose class is `CLASS` (a `Class as u8`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Id<const CLASS: u8>(u8);

pub type CounterId = Id<{ Class::Counter as u8 }>;
pub type GaugeId = Id<{ Class::Gauge as u8 }>;
pub type HistId = Id<{ Class::Hist as u8 }>;

impl<const CLASS: u8> Id<CLASS> {
    /// The pvar's dotted name.
    pub const fn name(self) -> &'static str {
        TABLE[self.0 as usize].name
    }
}

macro_rules! pvar_table {
    ($($id:ident = $name:literal, $class:ident;)*) => {
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        #[repr(u8)]
        enum Line {
            $($id,)*
        }
        $(
            #[doc = concat!("`", $name, "`")]
            pub const $id: Id<{ Class::$class as u8 }> = Id(Line::$id as u8);
        )*
        /// Every pvar, sorted by name; an id is the index of its line.
        pub const TABLE: &[Desc] = &[$(Desc { name: $name, class: Class::$class },)*];
    };
}

pvar_table! {
    BIND_CALLS                             = "bind.calls", Counter;
    COLL_ALLREDUCE_ALGO_RABENSEIFNER       = "coll.allreduce.algo.rabenseifner", Counter;
    COLL_ALLREDUCE_ALGO_RECURSIVE_DOUBLING = "coll.allreduce.algo.recursive_doubling", Counter;
    COLL_ALLREDUCE_ALGO_RING               = "coll.allreduce.algo.ring", Counter;
    COLL_ALLREDUCE_ALGO_TWO_LEVEL          = "coll.allreduce.algo.two_level", Counter;
    COLL_BCAST_ALGO_BINOMIAL               = "coll.bcast.algo.binomial", Counter;
    COLL_BCAST_ALGO_BINOMIAL_SEGMENTED     = "coll.bcast.algo.binomial_segmented", Counter;
    COLL_BCAST_ALGO_SCATTER_ALLGATHER      = "coll.bcast.algo.scatter_allgather", Counter;
    COLL_BCAST_ALGO_TWO_LEVEL              = "coll.bcast.algo.two_level", Counter;
    COLL_NB_BYTES                          = "coll.nb.bytes", Counter;
    COLL_NB_COMPLETED                      = "coll.nb.completed", Counter;
    COLL_NB_POSTED                         = "coll.nb.posted", Counter;
    COLL_NB_RECVS                          = "coll.nb.recvs", Counter;
    COLL_NB_REDUCE_BYTES                   = "coll.nb.reduce_bytes", Counter;
    COLL_NB_ROUNDS                         = "coll.nb.rounds", Counter;
    COLL_NB_SENDS                          = "coll.nb.sends", Counter;
    ENGINE_DELIVERIES                      = "engine.deliveries", Counter;
    FABRIC_ACKS                            = "fabric.acks", Counter;
    FABRIC_CORRUPT_DETECTED                = "fabric.corrupt_detected", Counter;
    FABRIC_DROPS_INJECTED                  = "fabric.drops_injected", Counter;
    FABRIC_DUPS_SUPPRESSED                 = "fabric.dups_suppressed", Counter;
    FABRIC_RETRANSMITS                     = "fabric.retransmits", Counter;
    FABRIC_WATCHDOG_TRIPS                  = "fabric.watchdog_trips", Counter;
    FLIGHT_DROPPED                         = "flight.dropped", Counter;
    INCIDENT_MARKS                         = "incident.marks", Counter;
    MPJBUF_POOL_FALLBACK_ALLOCS            = "mpjbuf.pool.fallback_allocs", Counter;
    MPJBUF_POOL_HITS                       = "mpjbuf.pool.hits", Counter;
    MPJBUF_POOL_MISSES                     = "mpjbuf.pool.misses", Counter;
    MPJBUF_POOL_OUTSTANDING                = "mpjbuf.pool.outstanding", Gauge;
    MPJBUF_POOL_RELEASES                   = "mpjbuf.pool.releases", Counter;
    MRT_GC_BYTES_COPIED                    = "mrt.gc.bytes_copied", Counter;
    MRT_GC_COLLECTIONS                     = "mrt.gc.collections", Counter;
    MRT_GC_PAUSES_NS                       = "mrt.gc.pauses_ns", Hist;
    MRT_HEAP_ALLOC_BYTES                   = "mrt.heap.alloc_bytes", Counter;
    MRT_HEAP_ALLOCS                        = "mrt.heap.allocs", Counter;
    NIF_CROSSINGS_COPY                     = "nif.crossings.copy", Counter;
    NIF_CROSSINGS_CRITICAL                 = "nif.crossings.critical", Counter;
    NIF_CROSSINGS_DIRECT                   = "nif.crossings.direct", Counter;
    NIF_TRANSITIONS                        = "nif.transitions", Counter;
    PT2PT_EAGER_BYTES                      = "pt2pt.eager_bytes", Counter;
    PT2PT_EAGER_MSGS                       = "pt2pt.eager_msgs", Counter;
    PT2PT_MATCH_MAXDEPTH                   = "pt2pt.match.maxdepth", Gauge;
    PT2PT_MATCH_SCANS                      = "pt2pt.match.scans", Counter;
    PT2PT_RNDV_BYTES                       = "pt2pt.rndv_bytes", Counter;
    PT2PT_RNDV_MSGS                        = "pt2pt.rndv_msgs", Counter;
    PT2PT_UNEXPECTED_DEPTH                 = "pt2pt.unexpected_depth", Gauge;
    PT2PT_UNEXPECTED_HITS                  = "pt2pt.unexpected_hits", Counter;
    RELIABILITY_BACKOFF_NS                 = "reliability.backoff_ns", Counter;
    RMA_ACC_APPLIED                        = "rma.acc.applied", Counter;
    RMA_ACC_BYTES                          = "rma.acc.bytes", Counter;
    RMA_ACC_MSGS                           = "rma.acc.msgs", Counter;
    RMA_EPOCH_DEFERRED                     = "rma.epoch.deferred", Counter;
    RMA_FENCE_EPOCHS                       = "rma.fence.epochs", Counter;
    RMA_GET_BYTES                          = "rma.get.bytes", Counter;
    RMA_GET_MSGS                           = "rma.get.msgs", Counter;
    RMA_LOCK_ACQUIRED                      = "rma.lock.acquired", Counter;
    RMA_PUT_APPLIED                        = "rma.put.applied", Counter;
    RMA_PUT_BYTES                          = "rma.put.bytes", Counter;
    RMA_PUT_EAGER                          = "rma.put.eager", Counter;
    RMA_PUT_MSGS                           = "rma.put.msgs", Counter;
    RMA_PUT_ZCOPY                          = "rma.put.zcopy", Counter;
    RMA_REG_EVICT                          = "rma.reg.evict", Counter;
    RMA_REG_HIT                            = "rma.reg.hit", Counter;
    RMA_REG_MISS                           = "rma.reg.miss", Counter;
    RMA_WIN_CREATED                        = "rma.win.created", Counter;
    TRACE_DROPPED_EVENTS                   = "trace.dropped_events", Counter;
}

/// Summary of a histogram pvar's non-negative `f64` samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Hist {
    pub count: u64,
    pub sum: f64,
    pub max: f64,
}

impl Hist {
    /// Record one sample.
    pub fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        if v > self.max {
            self.max = v;
        }
    }

    /// Mean of all samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Accumulate `other` into `self`.
    pub fn merge(&mut self, other: &Hist) {
        self.count += other.count;
        self.sum += other.sum;
        if other.max > self.max {
            self.max = other.max;
        }
    }
}

/// One pvar's current value.
#[derive(Debug, Clone, PartialEq)]
pub enum PvarValue {
    Counter(u64),
    Gauge { last: i64, max: i64 },
    Hist(Hist),
}

impl PvarValue {
    /// Counter value, if this is a counter.
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            PvarValue::Counter(n) => Some(*n),
            _ => None,
        }
    }

    /// Gauge high-water mark, if this is a gauge.
    pub fn as_gauge_max(&self) -> Option<i64> {
        match self {
            PvarValue::Gauge { max, .. } => Some(*max),
            _ => None,
        }
    }
}

/// Fold `v` into a slot (an update or a cross-rank merge): counters add,
/// gauges keep the max level, histograms combine; an empty slot takes `v`.
fn merge_slot(slot: &mut Option<PvarValue>, v: Option<&PvarValue>) {
    match (slot.as_mut(), v) {
        (_, None) => {}
        (Some(PvarValue::Counter(a)), Some(PvarValue::Counter(b))) => *a += b,
        (Some(PvarValue::Gauge { last, max }), Some(PvarValue::Gauge { last: bl, max: bm })) => {
            *last = (*last).max(*bl);
            *max = (*max).max(*bm);
        }
        (Some(PvarValue::Hist(a)), Some(PvarValue::Hist(b))) => a.merge(b),
        (_, Some(v)) => *slot = Some(v.clone()),
    }
}

/// A link's `bytes` and `msgs` pvars with their rendered names.
type Link = [(String, Option<PvarValue>); 2];

/// A set of pvar values: one dense slot per [`TABLE`] line, empty until
/// first touched, plus the links seen, keyed by `(src, dst)`. Iteration
/// (and therefore every dump/export) is in name order.
#[derive(Debug, Clone, PartialEq)]
pub struct PvarSet {
    slots: Box<[Option<PvarValue>]>,
    links: BTreeMap<(usize, usize), Link>,
}

impl Default for PvarSet {
    fn default() -> Self {
        PvarSet {
            slots: vec![None; TABLE.len()].into_boxed_slice(),
            links: BTreeMap::new(),
        }
    }
}

impl PvarSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bump a counter by `n`.
    pub(crate) fn count(&mut self, id: CounterId, n: u64) {
        merge_slot(&mut self.slots[id.0 as usize], Some(&PvarValue::Counter(n)));
    }

    /// Set a gauge's level (high-water mark is kept automatically).
    pub(crate) fn gauge_set(&mut self, id: GaugeId, v: i64) {
        match &mut self.slots[id.0 as usize] {
            Some(PvarValue::Gauge { last, max }) => {
                *last = v;
                *max = (*max).max(v);
            }
            slot => *slot = Some(PvarValue::Gauge { last: v, max: v }),
        }
    }

    /// Record a histogram sample.
    pub(crate) fn observe(&mut self, id: HistId, v: f64) {
        let mut h = Hist::default();
        h.observe(v);
        merge_slot(&mut self.slots[id.0 as usize], Some(&PvarValue::Hist(h)));
    }

    /// Account one message of `bytes` on the directed link `src -> dst`.
    pub(crate) fn link_traffic(&mut self, src: usize, dst: usize, bytes: u64) {
        let link = self.links.entry((src, dst)).or_insert_with(|| {
            ["bytes", "msgs"].map(|k| (format!("fabric.link.{src}->{dst}.{k}"), None))
        });
        for ((_, slot), n) in link.iter_mut().zip([bytes, 1]) {
            merge_slot(slot, Some(&PvarValue::Counter(n)));
        }
    }

    /// Every touched pvar, unordered.
    fn entries(&self) -> impl Iterator<Item = (&str, &PvarValue)> {
        let links = self.links.values().flatten();
        TABLE
            .iter()
            .map(|d| d.name)
            .zip(self.slots.iter())
            .chain(links.map(|(name, v)| (name.as_str(), v)))
            .filter_map(|(name, v)| Some((name, v.as_ref()?)))
    }

    pub fn get(&self, name: &str) -> Option<&PvarValue> {
        self.entries().find(|&(n, _)| n == name).map(|(_, v)| v)
    }

    /// Counter value by name (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.get(name).and_then(PvarValue::as_counter).unwrap_or(0)
    }

    /// Every touched pvar, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &PvarValue)> {
        let mut all: Vec<_> = self.entries().collect();
        all.sort_unstable_by_key(|&(name, _)| name);
        all.into_iter()
    }

    /// Cross-rank aggregation: counters add, gauges keep the max level,
    /// histograms combine. A pvar present in only one set is carried over
    /// unchanged.
    pub fn merge(&mut self, other: &PvarSet) {
        for (slot, v) in self.slots.iter_mut().zip(other.slots.iter()) {
            merge_slot(slot, v.as_ref());
        }
        for (key, theirs) in &other.links {
            let mine = self
                .links
                .entry(*key)
                .or_insert_with(|| theirs.clone().map(|(name, _)| (name, None)));
            for ((_, slot), (_, v)) in mine.iter_mut().zip(theirs) {
                merge_slot(slot, v.as_ref());
            }
        }
    }

    /// Serialize as a JSON object: counters as numbers, gauges as
    /// `{"last","max"}`, histograms as `{"count","mean","max"}`.
    pub fn write_json(&self, w: &mut crate::json::JsonBuf) {
        w.begin_obj();
        for (name, v) in self.iter() {
            w.key(name);
            match v {
                PvarValue::Counter(n) => w.uint_val(*n),
                PvarValue::Gauge { last, max } => {
                    w.begin_obj();
                    w.key("last");
                    w.int_val(*last);
                    w.key("max");
                    w.int_val(*max);
                    w.end_obj();
                }
                PvarValue::Hist(h) => {
                    w.begin_obj();
                    w.key("count");
                    w.uint_val(h.count);
                    w.key("mean");
                    w.num_val(h.mean());
                    w.key("max");
                    w.num_val(h.max);
                    w.end_obj();
                }
            }
        }
        w.end_obj();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_sorted_by_name() {
        for pair in TABLE.windows(2) {
            assert!(pair[0].name < pair[1].name, "{pair:?}");
        }
        assert_eq!(PT2PT_EAGER_MSGS.name(), "pt2pt.eager_msgs");
        assert_eq!(TABLE[MRT_GC_PAUSES_NS.0 as usize].class, Class::Hist);
    }

    /// Expand a README catalogue cell such as
    /// `` `a.{x,y}` / `a.z` `` into its dotted names.
    fn expand(cell: &str) -> Vec<String> {
        let mut out = Vec::new();
        for quoted in cell.split('`').skip(1).step_by(2) {
            let mut names = vec![String::new()];
            let mut rest = quoted;
            while let Some(open) = rest.find('{') {
                let close = rest[open..].find('}').expect("closing brace") + open;
                names = names
                    .iter()
                    .flat_map(|n| {
                        rest[open + 1..close]
                            .split(',')
                            .map(move |alt| format!("{n}{}{alt}", &rest[..open]))
                    })
                    .collect();
                rest = &rest[close + 1..];
            }
            out.extend(names.into_iter().map(|n| n + rest));
        }
        out
    }

    #[test]
    fn readme_catalogue_matches_the_table() {
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
                .expect("README.md at the workspace root");
        let section = readme
            .split("### Pvar catalogue")
            .nth(1)
            .expect("README has a pvar catalogue")
            .split("\n#")
            .next()
            .unwrap();
        let mut documented: Vec<(String, Class)> = Vec::new();
        for row in section.lines().filter(|l| l.starts_with("| `")) {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            let class = match cells[2] {
                "counter" => Class::Counter,
                "gauge" => Class::Gauge,
                "histogram" => Class::Hist,
                other => panic!("unknown pvar kind {other:?} in {row:?}"),
            };
            for name in expand(cells[1]) {
                // The per-link family is rendered per rank pair, not tabled.
                if name.starts_with("fabric.link.src->dst.") {
                    assert_eq!(class, Class::Counter);
                    continue;
                }
                documented.push((name, class));
            }
        }
        documented.sort();
        let tabled: Vec<(String, Class)> = TABLE
            .iter()
            .map(|d| (d.name.to_string(), d.class))
            .collect();
        assert_eq!(documented, tabled, "README pvar catalogue and TABLE differ");
    }

    #[test]
    fn counters_accumulate_from_first_touch() {
        let mut p = PvarSet::new();
        assert_eq!(p.counter("pt2pt.eager_msgs"), 0);
        assert!(p.get("pt2pt.eager_msgs").is_none());
        p.count(PT2PT_EAGER_MSGS, 1);
        p.count(PT2PT_EAGER_MSGS, 3);
        assert_eq!(p.counter("pt2pt.eager_msgs"), 4);
    }

    #[test]
    fn gauges_track_last_and_high_water() {
        let mut p = PvarSet::new();
        p.gauge_set(PT2PT_UNEXPECTED_DEPTH, 2);
        p.gauge_set(PT2PT_UNEXPECTED_DEPTH, 7);
        p.gauge_set(PT2PT_UNEXPECTED_DEPTH, 1);
        assert_eq!(
            p.get("pt2pt.unexpected_depth"),
            Some(&PvarValue::Gauge { last: 1, max: 7 })
        );
    }

    #[test]
    fn hist_stats() {
        let mut h = Hist::default();
        for v in [1.0, 2.0, 3.0, 10.0] {
            h.observe(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.mean(), 4.0);
        assert_eq!(h.max, 10.0);
    }

    #[test]
    fn merge_semantics_per_class() {
        let mut a = PvarSet::new();
        a.count(BIND_CALLS, 5);
        a.gauge_set(MPJBUF_POOL_OUTSTANDING, 3);
        a.observe(MRT_GC_PAUSES_NS, 2.0);
        let mut b = PvarSet::new();
        b.count(BIND_CALLS, 7);
        b.gauge_set(MPJBUF_POOL_OUTSTANDING, 9);
        b.observe(MRT_GC_PAUSES_NS, 8.0);
        b.count(NIF_TRANSITIONS, 1);
        b.link_traffic(1, 0, 64);
        a.merge(&b);
        assert_eq!(a.counter("bind.calls"), 12);
        assert_eq!(
            a.get("mpjbuf.pool.outstanding").unwrap().as_gauge_max(),
            Some(9)
        );
        let Some(PvarValue::Hist(h)) = a.get("mrt.gc.pauses_ns") else {
            panic!("mrt.gc.pauses_ns is a histogram");
        };
        assert_eq!(h.count, 2);
        assert_eq!(h.max, 8.0);
        assert_eq!(a.counter("nif.transitions"), 1);
        assert_eq!(a.counter("fabric.link.1->0.bytes"), 64);
    }

    #[test]
    fn merge_is_commutative_on_counters_and_hists() {
        let mut a = PvarSet::new();
        a.count(BIND_CALLS, 5);
        a.observe(MRT_GC_PAUSES_NS, 4.0);
        a.link_traffic(0, 1, 8);
        let mut b = PvarSet::new();
        b.count(BIND_CALLS, 2);
        b.observe(MRT_GC_PAUSES_NS, 100.0);
        b.link_traffic(0, 1, 16);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("fabric.link.0->1.msgs"), 2);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut p = PvarSet::new();
        p.count(TRACE_DROPPED_EVENTS, 1);
        p.count(BIND_CALLS, 1);
        p.count(FABRIC_RETRANSMITS, 1);
        p.link_traffic(10, 2, 1);
        p.link_traffic(1, 0, 1);
        p.count(FABRIC_DUPS_SUPPRESSED, 1);
        let names: Vec<&str> = p.iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            vec![
                "bind.calls",
                "fabric.dups_suppressed",
                "fabric.link.1->0.bytes",
                "fabric.link.1->0.msgs",
                "fabric.link.10->2.bytes",
                "fabric.link.10->2.msgs",
                "fabric.retransmits",
                "trace.dropped_events",
            ]
        );
    }

    #[test]
    fn json_export_covers_all_classes() {
        let mut p = PvarSet::new();
        p.count(BIND_CALLS, 3);
        p.gauge_set(MPJBUF_POOL_OUTSTANDING, -2);
        p.gauge_set(MPJBUF_POOL_OUTSTANDING, 5);
        p.observe(MRT_GC_PAUSES_NS, 4.0);
        let mut w = crate::json::JsonBuf::new();
        p.write_json(&mut w);
        let s = w.finish();
        assert!(s.contains(r#""bind.calls":3"#));
        assert!(s.contains(r#""mpjbuf.pool.outstanding":{"last":5,"max":5}"#));
        assert!(s.contains(r#""mrt.gc.pauses_ns":{"count":1,"mean":4,"max":4}"#));
    }
}
