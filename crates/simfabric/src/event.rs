//! The discrete-event engine: a timestamped event queue and a
//! cooperative rank scheduler that runs a whole cluster as a
//! single-threaded discrete-event simulation.
//!
//! Under [`EngineMode::EventDriven`] every rank is a stackful context
//! (see the `context` module) on the thread that called
//! [`run_cluster_event`]: exactly one rank executes at any instant, and
//! every fabric operation that would park a thread in the threaded
//! engine instead parks the rank's context. The parking rank chooses
//! its successor — the next frame from a binary-heap event queue
//! ordered by `(arrival time, src, seq)`, else a polling rank — and
//! suspends; the runner resumes the chosen rank, swapping its
//! observability state in around the turn. Blocking semantics,
//! watchdogs, and fault handling key off *structural* conditions (is
//! any progress still possible?) instead of wall-clock timeouts, so a
//! 1024-rank job needs no real concurrency at all. A rank that panics
//! poisons the engine; the runner then resumes every unfinished rank
//! once so it unwinds, and re-throws the first panic.
//!
//! Determinism argument: execution is globally serialized (one Running
//! rank), so event-queue sequence numbers are assigned in a
//! reproducible order; the queue pops in total `(time, src, seq)`
//! order; and the engine above is insensitive to delivery order by
//! construction (arrival timestamps are pure functions of per-link
//! injection sequences, which follow program order). Both engines
//! therefore produce bit-identical virtual clocks and payloads — the
//! contract `tests/engine_diff.rs` enforces case by case.

use std::any::Any;
use std::collections::{BTreeSet, BinaryHeap};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};

use vtime::VTime;

use crate::context::Context;
use crate::endpoint::{Delivery, Endpoint};
use crate::topology::Topology;

/// Which cluster engine executes a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// One OS thread per rank; mailboxes are mpsc channels; blocking is
    /// real thread parking. The original engine.
    #[default]
    Threaded,
    /// Single-threaded discrete-event loop: every rank is a stackful
    /// context on one OS thread, frames are delivered from a
    /// binary-heap event queue in `(time, src, seq)` order, and
    /// blocking compiles to park/resume transitions. Scales to
    /// thousands of ranks in one process.
    EventDriven,
}

impl EngineMode {
    /// Short CLI/report label.
    pub fn label(self) -> &'static str {
        match self {
            EngineMode::Threaded => "threaded",
            EngineMode::EventDriven => "event",
        }
    }

    /// Parse a CLI spelling (`threaded` | `event`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "threaded" | "thread" => Ok(EngineMode::Threaded),
            "event" | "event-driven" | "eventdriven" => Ok(EngineMode::EventDriven),
            other => Err(format!(
                "unknown engine {other:?} (expected `threaded` or `event`)"
            )),
        }
    }
}

// ----------------------------------------------------------------------
// Event queue
// ----------------------------------------------------------------------

/// One timestamped event popped from an [`EventQueue`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event<T> {
    /// Virtual instant the event becomes deliverable.
    pub time: VTime,
    /// Source rank (first tie-break for equal times).
    pub src: usize,
    /// Queue-assigned sequence number (final tie-break; preserves
    /// per-source push order among equal timestamps).
    pub seq: u64,
    /// Payload.
    pub item: T,
}

struct HeapEntry<T>(Event<T>);

impl<T> HeapEntry<T> {
    #[inline]
    fn key(&self) -> (VTime, usize, u64) {
        (self.0.time, self.0.src, self.0.seq)
    }
}
impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    /// Reversed: `BinaryHeap` is a max-heap and we want the earliest
    /// `(time, src, seq)` at the top.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key().cmp(&self.key())
    }
}

/// A deterministic timestamped event queue with a total pop order.
///
/// Pops come out in ascending `(time, src, seq)` order; `seq` is
/// assigned at push, so events pushed for the same `(time, src)` pop in
/// push order (stability). [`EventQueue::push_replay`] re-inserts a
/// previously popped event with its original sequence number, which is
/// how deferred deliveries (e.g. RMA epoch deferral) re-enter the queue
/// without losing their place in the tie-break order.
pub struct EventQueue<T> {
    heap: BinaryHeap<HeapEntry<T>>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Insert an event; returns the sequence number it was assigned.
    pub fn push(&mut self, time: VTime, src: usize, item: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry(Event {
            time,
            src,
            seq,
            item,
        }));
        seq
    }

    /// Re-insert a previously popped event (deferral/replay), keeping
    /// its original sequence number so the total order is unchanged.
    pub fn push_replay(&mut self, ev: Event<T>) {
        self.heap.push(HeapEntry(ev));
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<Event<T>> {
        self.heap.pop().map(|e| e.0)
    }

    /// The earliest pending timestamp, if any.
    pub fn peek_time(&self) -> Option<VTime> {
        self.heap.peek().map(|e| e.0.time)
    }

    /// Pending event count.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

// ----------------------------------------------------------------------
// The cooperative rank scheduler
// ----------------------------------------------------------------------

/// Where a rank's state machine currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RankStatus {
    /// Executing (or chosen to run next). At most one rank at a time.
    Running,
    /// Parked inside a blocking receive; only a delivery (or a
    /// structural deadlock) resumes it.
    BlockedRecv,
    /// Parked inside a watchdog receive; a delivery resumes it, and a
    /// global stall (no runnable rank, no pending event) resumes it
    /// with a timeout verdict — the virtual-deadline watchdog.
    BlockedTimeout,
    /// Yielded from a non-blocking poll (or not yet started): runnable
    /// whenever the scheduler has nothing timestamped to deliver.
    PollYield,
    /// The rank program returned (or unwound).
    Done,
}

struct RankSlot<M> {
    /// The frame the scheduler handed this rank when it resumed it. A
    /// rank holds at most one: it takes the frame as soon as it runs,
    /// so the slot is always empty while the rank is parked.
    inbox: Option<Delivery<M>>,
    status: RankStatus,
    /// Set (with `Running`) when the rank is stall-woken: the scheduler
    /// proved no further progress is possible while it was parked.
    stall_wake: bool,
}

struct CoreState<M> {
    queue: EventQueue<(usize, Delivery<M>)>,
    slots: Vec<RankSlot<M>>,
    /// The ranks in `PollYield`, so poll rotation finds the next one
    /// without scanning every slot.
    polling: BTreeSet<usize>,
    /// The rank the runner resumes next: chosen by the rank that last
    /// gave up control, taken by the runner when that rank suspends.
    handoff: Option<usize>,
    /// A fault plan is installed somewhere: late frames for exited
    /// ranks are the crash model, not a wiring bug.
    fault_mode: bool,
    /// A rank panicked (or the fabric hit a wiring bug): every
    /// unfinished rank must unwind instead of waiting forever.
    poisoned: Option<&'static str>,
    /// The first rank that panicked, so the runner can re-throw *its*
    /// payload rather than a cascade panic from an innocent rank.
    original_panicker: Option<usize>,
}

impl<M> CoreState<M> {
    /// Mark the running `rank` parked in `status`.
    fn park(&mut self, rank: usize, status: RankStatus) {
        debug_assert!(
            self.slots[rank].inbox.is_none(),
            "rank {rank} parks holding an undelivered frame"
        );
        self.slots[rank].status = status;
        if status == RankStatus::PollYield {
            self.polling.insert(rank);
        }
    }

    /// Mark `rank` as the one to run next.
    fn resume(&mut self, rank: usize) -> usize {
        if self.slots[rank].status == RankStatus::PollYield {
            self.polling.remove(&rank);
        }
        self.slots[rank].status = RankStatus::Running;
        rank
    }

    /// Pick the next rank and mark it `Running`. `from` is the rank
    /// that is parking (or finishing); it rotates poll-yield resumption
    /// so a polling rank cannot starve the others, and it may pick
    /// itself. `None` means every rank is done or the core was just
    /// poisoned.
    fn schedule_next(&mut self, from: usize) -> Option<usize> {
        obs::wallprof::add(obs::wallprof::Counter::SchedPolls, 1);
        // 1) The earliest timestamped event, handed straight to the
        //    rank it resumes.
        while let Some(ev) = self.queue.pop() {
            let (dst, d) = ev.item;
            if self.slots[dst].status == RankStatus::Done {
                if self.fault_mode {
                    // A crashed/failed rank's stragglers vanish, like a
                    // closed mailbox under a fault plan.
                    continue;
                }
                self.poisoned = Some(POISON_LATE_FRAME);
                return None;
            }
            self.slots[dst].inbox = Some(d);
            return Some(self.resume(dst));
        }
        // 2) A poll-yielded (or not-yet-started) rank, rotating from
        //    the parker so repeated polls round-robin.
        let polled = self.polling.range(from + 1..).next();
        if let Some(&r) = polled.or_else(|| self.polling.first()) {
            return Some(self.resume(r));
        }
        // 3) Global stall: nothing runnable, nothing queued. Wake the
        //    lowest parked rank with the stall verdict — its watchdog
        //    (or deadlock diagnostics) takes it from there. One at a
        //    time: the woken rank re-enters the scheduler when it next
        //    parks or finishes.
        let r = self.slots.iter().position(|s| {
            matches!(
                s.status,
                RankStatus::BlockedRecv | RankStatus::BlockedTimeout
            )
        })?;
        self.slots[r].stall_wake = true;
        Some(self.resume(r))
    }
}

/// Shared state of one event-driven cluster: the event queue and the
/// per-rank slots. Every rank runs as a [`Context`] on the runner's
/// thread, so the lock is never contended; it stays because an
/// [`Endpoint`] must be `Send` for the threaded engine.
pub(crate) struct EventCore<M> {
    state: Mutex<CoreState<M>>,
}

const POISON_CASCADE: &str = "event engine poisoned: another rank panicked";
const POISON_LATE_FRAME: &str = "fabric mailbox closed: a rank exited early (event engine)";

impl<M> EventCore<M> {
    pub(crate) fn new(n: usize) -> Self {
        assert!(n > 0, "cluster must have at least one rank");
        let slots = (0..n)
            .map(|rank| RankSlot {
                inbox: None,
                // Rank 0 runs first; every other rank is
                // runnable-from-the-start, which is exactly a poll
                // yield at its first instruction.
                status: if rank == 0 {
                    RankStatus::Running
                } else {
                    RankStatus::PollYield
                },
                stall_wake: false,
            })
            .collect();
        EventCore {
            state: Mutex::new(CoreState {
                queue: EventQueue::new(),
                slots,
                polling: (1..n).collect(),
                handoff: None,
                fault_mode: false,
                poisoned: None,
                original_panicker: None,
            }),
        }
    }

    /// Ignore mutex poisoning: unwinding is coordinated through the
    /// explicit `poisoned` flag, which carries a useful message.
    fn lock(&self) -> MutexGuard<'_, CoreState<M>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// [`EventCore::lock`], unwinding instead if the core is poisoned.
    fn lock_unpoisoned(&self) -> MutexGuard<'_, CoreState<M>> {
        let st = self.lock();
        if let Some(msg) = st.poisoned {
            drop(st);
            panic!("{msg}");
        }
        st
    }

    /// Treat late frames to finished ranks as the crash model rather
    /// than a wiring bug (set when any endpoint installs a fault plan).
    pub(crate) fn set_fault_mode(&self) {
        self.lock().fault_mode = true;
    }

    /// Choose who runs after `rank` and leave the choice for the
    /// runner. Returns whether the choice was `rank` itself, in which
    /// case it keeps running. Priced as scheduler time.
    fn choose_next(&self, mut st: MutexGuard<'_, CoreState<M>>, rank: usize) -> bool {
        let _sched = obs::wallprof::span(obs::wallprof::Subsystem::Sched);
        let next = st.schedule_next(rank);
        if next == Some(rank) {
            return true;
        }
        st.handoff = next;
        false
    }

    /// Mark the running `rank` parked in `status` and switch its context
    /// out until the runner resumes it.
    fn suspend(&self, mut st: MutexGuard<'_, CoreState<M>>, rank: usize, status: RankStatus) {
        st.park(rank, status);
        if self.choose_next(st, rank) {
            return;
        }
        // Every rank shares the runner thread's panic count, so a rank
        // switched out mid-unwind would make the next one look like it
        // is unwinding too.
        if std::thread::panicking() {
            crate::context::abort(&format!(
                "event engine: rank {rank} tried to park while unwinding"
            ));
        }
        crate::context::suspend();
    }

    /// First thing a rank runs: unwind at once if the engine was
    /// poisoned before the rank ever started.
    fn start_wait(&self) {
        drop(self.lock_unpoisoned());
    }

    /// Event-mode blocking receive: take the handed frame or park until
    /// one is delivered. A stall wake here means no frame can ever
    /// arrive — a structural deadlock, which the threaded engine would
    /// express as a hang; the event engine makes it a diagnosis.
    pub(crate) fn recv_blocking(&self, rank: usize) -> Delivery<M> {
        loop {
            let mut st = self.lock_unpoisoned();
            if let Some(d) = st.slots[rank].inbox.take() {
                st.slots[rank].stall_wake = false;
                return d;
            }
            if st.slots[rank].stall_wake {
                st.slots[rank].stall_wake = false;
                st.poisoned = Some(
                    "event engine stalled: a rank is blocked in recv with no runnable \
                     rank and no pending events (deadlock)",
                );
                drop(st);
                panic!(
                    "event engine stalled: rank {rank} blocked in recv with no runnable \
                     rank and no pending events (deadlock)"
                );
            }
            self.suspend(st, rank, RankStatus::BlockedRecv);
        }
    }

    /// Event-mode watchdog receive: like [`EventCore::recv_blocking`],
    /// but a stall wake returns `None` — the virtual-deadline watchdog
    /// verdict ("no progress is coming"), which the threaded engine
    /// approximates with a wall-clock timeout.
    pub(crate) fn recv_progress_or_stall(&self, rank: usize) -> Option<Delivery<M>> {
        loop {
            let mut st = self.lock_unpoisoned();
            if let Some(d) = st.slots[rank].inbox.take() {
                st.slots[rank].stall_wake = false;
                return Some(d);
            }
            if st.slots[rank].stall_wake {
                st.slots[rank].stall_wake = false;
                return None;
            }
            self.suspend(st, rank, RankStatus::BlockedTimeout);
        }
    }

    /// Event-mode non-blocking poll: take the handed frame, or yield
    /// once and try again. Returning `None` is possible only after the
    /// scheduler ran — so poll loops make progress for the whole
    /// cluster instead of spinning.
    pub(crate) fn try_recv(&self, rank: usize) -> Option<Delivery<M>> {
        let mut st = self.lock_unpoisoned();
        if let Some(d) = st.slots[rank].inbox.take() {
            return Some(d);
        }
        self.suspend(st, rank, RankStatus::PollYield);
        self.lock_unpoisoned().slots[rank].inbox.take()
    }

    /// Enqueue a frame for `dst`. `sender_has_plan` mirrors the
    /// threaded engine's closed-mailbox rule: without a fault plan a
    /// frame for a finished rank is a wiring bug.
    pub(crate) fn push(&self, dst: usize, delivery: Delivery<M>, sender_has_plan: bool) {
        let mut st = self.lock();
        if st.slots[dst].status == RankStatus::Done {
            if sender_has_plan || st.fault_mode {
                return;
            }
            drop(st);
            panic!("fabric mailbox closed: rank {dst} exited early (event engine)");
        }
        let (src, time) = (delivery.src, delivery.arrival);
        st.queue.push(time, src, (dst, delivery));
    }

    /// Mark a rank finished and choose who runs next (or, if it
    /// unwound, poison the core so every unfinished rank unwinds too).
    fn finish_rank(&self, rank: usize, panicked: bool) {
        let mut st = self.lock();
        st.slots[rank].status = RankStatus::Done;
        st.slots[rank].inbox = None;
        if panicked {
            st.original_panicker.get_or_insert(rank);
            st.poisoned = Some(POISON_CASCADE);
        } else {
            self.choose_next(st, rank);
        }
    }

    /// The rank to resume next, if any rank chose one.
    fn take_handoff(&self) -> Option<usize> {
        self.lock().handoff.take()
    }

    fn original_panicker(&self) -> Option<usize> {
        self.lock().original_panicker
    }
}

// ----------------------------------------------------------------------
// The event-driven cluster runner
// ----------------------------------------------------------------------

/// Stack size of each rank's context under the event engine. Only one
/// rank runs at a time, and a rank touches only the pages it uses, so a
/// 1024-rank job reserves 2 GiB of address space but little memory.
const RANK_STACK_BYTES: usize = 2 << 20;

/// [`crate::run_cluster`]'s event-driven twin: run `f` once per rank as
/// a cooperatively scheduled state machine. Same contract — per-rank
/// results in rank order, panics propagate — but only one rank ever
/// executes at a time, driven by the `(time, src, seq)` event queue.
///
/// Every rank is a stackful context on the calling thread. The runner
/// resumes the rank the scheduler chose; that rank runs until it parks
/// or finishes, having chosen the next one, and the runner resumes
/// that. Around each resume the runner swaps the rank's observability
/// state ([`obs::swap_context`]) in and back out.
pub fn run_cluster_event<M, R, F>(topo: Topology, f: F) -> Vec<R>
where
    M: Send + 'static,
    R: Send,
    F: Fn(Endpoint<M>) -> R + Sync,
{
    let n = topo.size();
    let core: Arc<EventCore<M>> = Arc::new(EventCore::new(n));
    let f = &f;
    type Caught<R> = Result<R, Box<dyn Any + Send>>;
    let slots: Vec<Mutex<Option<Caught<R>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let mut ranks: Vec<(Context<'_>, obs::RankContext)> = slots
        .iter()
        .enumerate()
        .map(|(rank, slot)| {
            let ep = Endpoint::new_event(rank, topo, core.clone());
            let core = core.clone();
            let body = move || {
                let out = catch_unwind(AssertUnwindSafe(|| {
                    core.start_wait();
                    f(ep)
                }));
                core.finish_rank(rank, out.is_err());
                *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
            };
            let ctx = Context::new(RANK_STACK_BYTES, body)
                .unwrap_or_else(|e| panic!("cannot map the stack of rank {rank}: {e}"));
            (ctx, obs::RankContext::default())
        })
        .collect();
    let mut next = Some(0);
    while let Some(rank) = next {
        run_turn(&mut ranks[rank]);
        next = core.take_handoff();
    }
    // Nobody was chosen: every rank is done, or the core is poisoned and
    // each unfinished rank unwinds as soon as it runs again.
    for rank in ranks.iter_mut().filter(|(ctx, _)| !ctx.is_done()) {
        run_turn(rank);
    }
    if let Some(rank) = ranks.iter().position(|(ctx, _)| !ctx.is_done()) {
        panic!("event engine: rank {rank} did not unwind after the engine was poisoned");
    }
    drop(ranks);
    let mut results: Vec<Caught<R>> = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("a finished rank left its result")
        })
        .collect();
    // Re-throw the first panic from the rank that caused it, not from
    // a rank that merely unwound in the cascade.
    if let Some(r) = core.original_panicker() {
        if results[r].is_err() {
            if let Err(payload) = results.swap_remove(r) {
                resume_unwind(payload);
            }
        }
    }
    results
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(payload) => resume_unwind(payload),
        })
        .collect()
}

/// Give one rank a turn, with its observability state swapped in.
fn run_turn((ctx, obs): &mut (Context<'_>, obs::RankContext)) {
    obs::swap_context(obs);
    ctx.resume();
    obs::swap_context(obs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtime::LogGp;

    fn params() -> LogGp {
        LogGp {
            latency_ns: 1000.0,
            o_send_ns: 100.0,
            o_recv_ns: 100.0,
            gap_msg_ns: 50.0,
            gap_per_byte_ns: 0.1,
        }
    }

    #[test]
    fn queue_pops_in_time_src_seq_order() {
        let mut q = EventQueue::new();
        q.push(VTime::from_nanos(30.0), 0, "c");
        q.push(VTime::from_nanos(10.0), 1, "a2");
        q.push(VTime::from_nanos(10.0), 0, "a1");
        q.push(VTime::from_nanos(20.0), 0, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|e| e.item).collect();
        assert_eq!(order, vec!["a1", "a2", "b", "c"]);
    }

    #[test]
    fn queue_equal_keys_pop_in_push_order() {
        let mut q = EventQueue::new();
        for i in 0..16 {
            q.push(VTime::from_nanos(5.0), 3, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|e| e.item).collect();
        assert_eq!(order, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn queue_replay_keeps_total_order() {
        let mut q = EventQueue::new();
        q.push(VTime::from_nanos(10.0), 0, "first");
        q.push(VTime::from_nanos(10.0), 0, "second");
        let ev = q.pop().unwrap();
        assert_eq!(ev.item, "first");
        // Deferral: the popped event re-enters and still sorts first.
        q.push_replay(ev);
        assert_eq!(q.pop().unwrap().item, "first");
        assert_eq!(q.pop().unwrap().item, "second");
        assert!(q.pop().is_none());
    }

    #[test]
    fn event_ring_matches_threaded_semantics() {
        let topo = Topology::new(2, 4); // 8 ranks
        let results = run_cluster_event::<u64, u64, _>(topo, |mut ep| {
            let n = ep.size();
            let rank = ep.rank();
            let next = (rank + 1) % n;
            if rank == 0 {
                ep.send(next, VTime::ZERO, 8, &params(), 1).unwrap();
                ep.recv_blocking().msg
            } else {
                let d = ep.recv_blocking();
                ep.send(next, d.arrival, 8, &params(), d.msg + 1).unwrap();
                d.msg
            }
        });
        assert_eq!(results[0], 8);
        for (r, v) in results.iter().enumerate().skip(1) {
            assert_eq!(*v, r as u64);
        }
    }

    #[test]
    fn event_engine_poll_loops_make_progress() {
        // Rank 1 spins on try_recv until the frame shows up; the yield
        // must let rank 0 run so the send ever happens.
        let results = run_cluster_event::<u32, u32, _>(Topology::new(2, 1), |mut ep| {
            if ep.rank() == 0 {
                ep.send(1, VTime::ZERO, 8, &params(), 77).unwrap();
                0
            } else {
                loop {
                    if let Some(d) = ep.try_recv() {
                        return d.msg;
                    }
                }
            }
        });
        assert_eq!(results, vec![0, 77]);
    }

    #[test]
    #[should_panic(expected = "rank 2 failed")]
    fn event_rank_panic_propagates() {
        // When rank 2 panics, every other rank is parked in a different
        // state, and each must unwind: rank 0 in `BlockedRecv`, rank 1
        // in `BlockedTimeout`, rank 3 in `PollYield`, and rank 4 not yet
        // started. A rank left suspended would fail the runner instead
        // of re-throwing rank 2's payload.
        run_cluster_event::<u32, (), _>(Topology::new(5, 1), |mut ep| match ep.rank() {
            0 => {
                ep.recv_blocking();
            }
            1 => {
                ep.recv_timeout(std::time::Duration::from_millis(1));
            }
            2 => {
                // Parks until rank 3 has started and is polling; the
                // frame then resumes it from the heap, ahead of rank 4.
                ep.recv_blocking();
                panic!("rank 2 failed");
            }
            3 => {
                ep.send(2, VTime::ZERO, 8, &params(), 1).unwrap();
                loop {
                    ep.try_recv();
                }
            }
            _ => unreachable!("rank 4 never starts"),
        });
    }

    /// A rank whose unwinding reaches a schedule point must abort the
    /// process, naming itself, rather than switch to another rank with
    /// the shared panic count still raised. Runs in a child process
    /// re-executing this test.
    #[cfg(unix)]
    #[test]
    fn parking_while_unwinding_aborts_naming_the_rank() {
        use std::os::unix::process::ExitStatusExt;
        const CHILD: &str = "SIMFABRIC_PARK_WHILE_UNWINDING_CHILD";
        if std::env::var_os(CHILD).is_some() {
            struct PollOnDrop<'a>(&'a mut Endpoint<u32>);
            impl Drop for PollOnDrop<'_> {
                fn drop(&mut self) {
                    self.0.try_recv();
                }
            }
            run_cluster_event::<u32, (), _>(Topology::new(2, 1), |mut ep| {
                if ep.rank() == 0 {
                    // Stays runnable, so rank 1's park picks it.
                    loop {
                        ep.try_recv();
                    }
                }
                let _poll = PollOnDrop(&mut ep);
                panic!("rank 1 unwinds");
            });
            std::process::exit(0);
        }
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "event::tests::parking_while_unwinding_aborts_naming_the_rank",
            ])
            .args(["--test-threads", "1", "--nocapture"])
            .env(CHILD, "1")
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.signal(),
            Some(6),
            "want SIGABRT; stderr:\n{stderr}"
        );
        assert!(
            stderr.contains("rank 1 tried to park while unwinding"),
            "stderr:\n{stderr}"
        );
    }

    /// One rank's receives in order: (source, arrival ns bits, payload).
    type Received = Vec<(usize, u64, u64)>;

    fn lcg(x: &mut u64) -> u64 {
        *x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *x >> 33
    }

    /// A seeded program over `n` ranks that drives every scheduling
    /// rule: in each round a rank sends to a few LCG-chosen peers,
    /// polling once now and then between sends, then receives until it
    /// holds every frame addressed to it so far, each with
    /// `recv_blocking`, a `try_recv` poll loop, or `recv_timeout`.
    /// Afterwards some ranks make a last `recv_timeout` that no frame
    /// can satisfy, which the event engine answers with stall wakes.
    /// Rank 0's first send goes to rank `n - 1`, which is then resumed
    /// for the first time holding a frame.
    fn mixed_receive_program(mode: EngineMode, topo: Topology, seed: u64) -> Vec<Received> {
        const ROUNDS: usize = 3;
        let n = topo.size();
        // sends[round][src] = destinations, in send order.
        let mut x = seed;
        let sends: Vec<Vec<Vec<usize>>> = (0..ROUNDS)
            .map(|round| {
                (0..n)
                    .map(|src| {
                        let count = 1 + lcg(&mut x) as usize % 3;
                        (0..count)
                            .map(|i| {
                                if round == 0 && src == 0 && i == 0 {
                                    return n - 1;
                                }
                                (src + 1 + lcg(&mut x) as usize % (n - 1)) % n
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let program = |mut ep: Endpoint<u64>| -> Received {
            let rank = ep.rank();
            let mut x = seed ^ (rank as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut got = Received::new();
            let record = |got: &mut Received, d: Delivery<u64>| {
                got.push((d.src, d.arrival.as_nanos().to_bits(), d.msg))
            };
            let mut quota = 0;
            for (round, plan) in sends.iter().enumerate() {
                for (i, &dst) in plan[rank].iter().enumerate() {
                    let now = (round * 100_000 + (rank * 7 + i * 13) % 1000) as f64;
                    let msg = ((rank * ROUNDS + round) * 8 + i) as u64;
                    ep.send(dst, VTime::from_nanos(now), 64, &params(), msg)
                        .unwrap();
                    // A poll with sends still to make: the event engine
                    // resumes this rank by poll rotation.
                    if lcg(&mut x).is_multiple_of(2) {
                        if let Some(d) = ep.try_recv() {
                            record(&mut got, d);
                        }
                    }
                }
                // Receive up to every frame addressed to this rank so
                // far (a poll above may already have taken some).
                quota += plan.iter().flatten().filter(|&&d| d == rank).count();
                while got.len() < quota {
                    let d = match lcg(&mut x) % 3 {
                        0 => ep.recv_blocking(),
                        1 => loop {
                            if let Some(d) = ep.try_recv() {
                                break d;
                            }
                            std::thread::yield_now();
                        },
                        _ => ep
                            .recv_timeout(std::time::Duration::from_secs(60))
                            .expect("a frame is still on its way"),
                    };
                    record(&mut got, d);
                }
            }
            if lcg(&mut x).is_multiple_of(3) {
                let late = ep.recv_timeout(std::time::Duration::from_millis(20));
                assert!(late.is_none(), "rank {rank} got a frame nobody sent");
            }
            got
        };
        crate::run_cluster_on(mode, topo, program)
    }

    fn per_source(got: &Received, n: usize) -> Vec<Vec<(u64, u64)>> {
        let mut by_src = vec![Vec::new(); n];
        for &(src, arrival, msg) in got {
            by_src[src].push((arrival, msg));
        }
        by_src
    }

    #[test]
    fn scheduler_128_ranks_is_deterministic_and_matches_threaded() {
        let topo = Topology::new(8, 16);
        let a = mixed_receive_program(EngineMode::EventDriven, topo, 0x5eed);
        let b = mixed_receive_program(EngineMode::EventDriven, topo, 0x5eed);
        assert_eq!(a, b, "event-engine receive order differs between runs");
        let t = mixed_receive_program(EngineMode::Threaded, topo, 0x5eed);
        for (rank, (ev, th)) in a.iter().zip(&t).enumerate() {
            assert_eq!(
                per_source(ev, 128),
                per_source(th, 128),
                "rank {rank}: per-source deliveries differ between engines"
            );
        }
        assert!(a.iter().map(Vec::len).sum::<usize>() > 128 * 3);
    }

    #[test]
    fn watchdog_recv_returns_none_on_structural_stall() {
        let results = run_cluster_event::<u32, bool, _>(Topology::new(2, 1), |ep| {
            if ep.rank() == 0 {
                // Never sends: rank 1's watchdog receive must come back
                // with the stall verdict instead of hanging.
                true
            } else {
                ep.recv_timeout(std::time::Duration::from_millis(1))
                    .is_none()
            }
        });
        assert_eq!(results, vec![true, true]);
    }

    #[test]
    fn event_results_are_in_rank_order() {
        let r = run_cluster_event::<(), usize, _>(Topology::new(2, 3), |ep| ep.rank());
        assert_eq!(r, vec![0, 1, 2, 3, 4, 5]);
    }
}
