//! Per-rank fabric endpoints.
//!
//! An [`Endpoint`] is the one object through which a simulated rank talks
//! to the cluster: it owns the rank's injection ports (sender-side
//! serialization state), the sender handles to every other rank's mailbox,
//! and its own mailbox receiver. Endpoints are created by
//! [`crate::run_cluster`] and moved into the rank's thread; they are not
//! `Sync` and never shared.
//!
//! When a [`FaultPlan`] is installed the endpoint also decides the *fate*
//! of every injection (drop / corrupt / duplicate / jitter / crash
//! blackhole) at send time — see the `fault` module for why sender-side
//! oracle decisions are the only ones that stay deterministic.

use std::collections::HashMap;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

use vtime::{LinkState, LogGp, VDur, VTime};

use crate::event::EventCore;
use crate::fault::{mix, unit, FabricError, Fate, FaultPlan, FaultTarget, SendOutcome};
use crate::topology::Topology;

/// A message delivered through the fabric, stamped with its (virtual)
/// arrival time at the destination NIC.
#[derive(Debug, Clone)]
pub struct Delivery<M> {
    /// Sending rank.
    pub src: usize,
    /// Virtual arrival instant at the destination (before `o_recv`).
    pub arrival: VTime,
    /// Library-defined payload.
    pub msg: M,
}

/// Counters describing what an endpoint has injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SendStats {
    /// Messages injected (duplicated copies count).
    pub messages: u64,
    /// Sum of the wire sizes passed to [`Endpoint::send`].
    pub wire_bytes: u64,
}

/// Per-destination fault state: the injection counter keying the fault
/// RNG, and the last (possibly jittered) arrival for the monotonicity
/// clamp.
#[derive(Debug, Clone, Copy, Default)]
struct FaultLink {
    injections: u64,
    last_arrival: VTime,
}

/// How deliveries move between ranks: real mpsc mailboxes under the
/// threaded engine, or the shared event queue under the event engine.
/// Injection timing (the `links` below) is identical either way — the
/// transport only decides *when a thread runs*, never *what time it is*.
enum Transport<M> {
    Threaded {
        /// Mailbox senders, indexed by destination rank.
        txs: Vec<Sender<Delivery<M>>>,
        /// This rank's mailbox.
        rx: Receiver<Delivery<M>>,
    },
    Event {
        core: Arc<EventCore<M>>,
    },
}

/// One rank's attachment point to the fabric.
pub struct Endpoint<M> {
    rank: usize,
    topo: Topology,
    transport: Transport<M>,
    /// Per-destination injection serialization. Keyed by (src, dst) pair —
    /// never shared across destinations — so arrival times are a pure
    /// function of the per-pair message sequence, which is FIFO. This is
    /// what makes the whole simulation deterministic even when a progress
    /// engine emits messages in real-time pop order.
    links: Vec<LinkState>,
    /// Additional injection channels, keyed by (dst, channel id). A
    /// channel models a dedicated send queue (e.g. the QP a hardware-
    /// offloaded non-blocking collective schedule owns): traffic on
    /// distinct channels does not serialize against channel 0 or against
    /// other channels. Layers above route any traffic whose *emission
    /// order* is driven by message arrival (rather than program order)
    /// onto its own channel, so every channel's injection sequence — and
    /// therefore every arrival time — stays deterministic.
    channels: HashMap<(usize, u64), LinkState>,
    /// Installed fault plan, if any.
    plan: Option<FaultPlan>,
    /// Per-destination fault RNG state (parallel to `links`).
    fault_links: Vec<FaultLink>,
    stats: SendStats,
}

impl<M> Endpoint<M> {
    pub(crate) fn new(
        rank: usize,
        topo: Topology,
        txs: Vec<Sender<Delivery<M>>>,
        rx: Receiver<Delivery<M>>,
    ) -> Self {
        Self::with_transport(rank, topo, Transport::Threaded { txs, rx })
    }

    /// An endpoint wired to an event-driven core instead of mailboxes.
    pub(crate) fn new_event(rank: usize, topo: Topology, core: Arc<EventCore<M>>) -> Self {
        Self::with_transport(rank, topo, Transport::Event { core })
    }

    fn with_transport(rank: usize, topo: Topology, transport: Transport<M>) -> Self {
        let n = topo.size();
        Endpoint {
            rank,
            topo,
            transport,
            links: (0..n).map(|_| LinkState::new()).collect(),
            channels: HashMap::new(),
            plan: None,
            fault_links: vec![FaultLink::default(); n],
            stats: SendStats::default(),
        }
    }

    /// This endpoint's rank.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The cluster topology.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of ranks in the cluster.
    #[inline]
    pub fn size(&self) -> usize {
        self.topo.size()
    }

    /// Whether `dst` shares this rank's node.
    #[inline]
    pub fn is_local(&self, dst: usize) -> bool {
        self.topo.same_node(self.rank, dst)
    }

    /// Install a fault plan. Every subsequent [`Endpoint::send`] draws a
    /// fate from it. Call once, before any traffic, or the fault sequence
    /// will not be reproducible across runs.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.plan = Some(plan);
        if let Transport::Event { core } = &self.transport {
            core.set_fault_mode();
        }
    }

    /// The installed fault plan, if any (layers above read reliability
    /// tuning — rto, retry cap, watchdog — from here).
    #[inline]
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.plan
    }

    /// Enqueue a delivery. A closed mailbox (threaded) or a finished
    /// rank (event engine) means the destination already exited: under
    /// a fault plan that is the crash model (the message silently
    /// disappears); without one it is a wiring bug. Under the event
    /// engine the delivery enters the shared event queue keyed by its
    /// `arrival`; the threaded mpsc path needs no key because
    /// per-sender FIFO already carries the ordering.
    fn deliver(&self, dst: usize, msg: Delivery<M>) {
        match &self.transport {
            Transport::Threaded { txs, .. } => {
                if txs[dst].send(msg).is_err() && self.plan.is_none() {
                    panic!("fabric mailbox closed: a rank thread exited early");
                }
            }
            Transport::Event { core } => {
                core.push(dst, msg, self.plan.is_some());
            }
        }
    }

    /// Inject a message towards `dst`.
    ///
    /// * `now` — the sender's clock *after* charging `o_send`;
    /// * `wire_bytes` — the size used for serialization timing (headers +
    ///   payload as the library chooses to model them);
    /// * `params` — the LogGP parameters of the path the library selected
    ///   (its shm path or its network path).
    ///
    /// Returns the virtual arrival instant at `dst` and the message's
    /// fault fate ([`Fate::Delivered`] whenever no plan is installed), or
    /// a typed [`FabricError`] for an out-of-range destination.
    /// Serialization state is per (src, dst) pair: back-to-back messages
    /// to one destination queue behind each other, while traffic to
    /// distinct destinations only serializes through the CPU-time charges
    /// of the layers above.
    pub fn send(
        &mut self,
        dst: usize,
        now: VTime,
        wire_bytes: usize,
        params: &LogGp,
        msg: M,
    ) -> Result<SendOutcome, FabricError>
    where
        M: FaultTarget,
    {
        self.send_on(dst, 0, now, wire_bytes, params, msg)
    }

    /// [`Endpoint::send`] on a specific injection channel. Channel 0 is
    /// the default port; any other id names a dedicated send queue whose
    /// serialization horizon is independent of all other channels (see
    /// the `channels` field).
    pub fn send_on(
        &mut self,
        dst: usize,
        channel: u64,
        now: VTime,
        wire_bytes: usize,
        params: &LogGp,
        msg: M,
    ) -> Result<SendOutcome, FabricError>
    where
        M: FaultTarget,
    {
        if dst >= self.topo.size() {
            return Err(FabricError::DestinationOutOfRange {
                dst,
                size: self.topo.size(),
            });
        }
        let link = if channel == 0 {
            &mut self.links[dst]
        } else {
            self.channels.entry((dst, channel)).or_default()
        };
        let arrival = link.inject(now, wire_bytes, params);
        obs::wallprof::add(obs::wallprof::Counter::Injections, 1);
        obs::link_traffic(self.rank, dst, wire_bytes as u64);
        self.stats.messages += 1;
        self.stats.wire_bytes += wire_bytes as u64;

        let Some(plan) = self.plan else {
            self.deliver(
                dst,
                Delivery {
                    src: self.rank,
                    arrival,
                    msg,
                },
            );
            return Ok(SendOutcome {
                arrival,
                fate: Fate::Delivered,
            });
        };

        // One deterministic base draw per injection, keyed by the link
        // and its injection count; sub-decisions chain off it.
        let fl = &mut self.fault_links[dst];
        let base = mix(plan.seed
            ^ mix(((self.rank as u64) << 20) | dst as u64)
            ^ fl.injections.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        fl.injections += 1;
        let (r_drop, r_corrupt, r_dup, r_jitter) =
            (mix(base), mix(base ^ 1), mix(base ^ 2), mix(base ^ 3));

        // Delay shaping first: fixed per-link extra, then uniform jitter,
        // then the per-link monotonicity clamp (jitter models queueing,
        // not reordering — the engine above relies on per-link FIFO).
        let mut arrival = arrival;
        if let Some((s, d, extra)) = plan.link_delay {
            if s == self.rank && d == dst {
                arrival += VDur::from_nanos(extra);
            }
        }
        if plan.jitter_ns > 0.0 {
            arrival += VDur::from_nanos(unit(r_jitter) * plan.jitter_ns);
        }
        arrival = arrival.max(fl.last_arrival);
        let fl_last = &mut self.fault_links[dst].last_arrival;
        *fl_last = arrival;

        // Crash blackhole: the wire consumed the bytes; the dead NIC
        // dropped them.
        if let Some((crashed, at_ns)) = plan.crash {
            if dst == crashed && arrival.as_nanos() >= at_ns {
                return Ok(SendOutcome {
                    arrival,
                    fate: Fate::Dropped,
                });
            }
        }

        let drop_prob = match plan.link_drop {
            Some((s, d, p)) if s == self.rank && d == dst => p,
            _ => plan.drop_prob,
        };
        if unit(r_drop) < drop_prob {
            return Ok(SendOutcome {
                arrival,
                fate: Fate::Dropped,
            });
        }

        if unit(r_corrupt) < plan.corrupt_prob {
            let mut msg = msg;
            msg.corrupt(r_corrupt | 1);
            self.deliver(
                dst,
                Delivery {
                    src: self.rank,
                    arrival,
                    msg,
                },
            );
            return Ok(SendOutcome {
                arrival,
                fate: Fate::Corrupted,
            });
        }

        if unit(r_dup) < plan.duplicate_prob {
            self.deliver(
                dst,
                Delivery {
                    src: self.rank,
                    arrival,
                    msg: msg.clone(),
                },
            );
            // The duplicate consumes the link again, behind the original.
            let link = if channel == 0 {
                &mut self.links[dst]
            } else {
                self.channels.entry((dst, channel)).or_default()
            };
            let dup_arrival = link.inject(now, wire_bytes, params).max(arrival);
            self.fault_links[dst].last_arrival = dup_arrival;
            self.stats.messages += 1;
            self.stats.wire_bytes += wire_bytes as u64;
            self.deliver(
                dst,
                Delivery {
                    src: self.rank,
                    arrival: dup_arrival,
                    msg,
                },
            );
            return Ok(SendOutcome {
                arrival,
                fate: Fate::Duplicated,
            });
        }

        self.deliver(
            dst,
            Delivery {
                src: self.rank,
                arrival,
                msg,
            },
        );
        Ok(SendOutcome {
            arrival,
            fate: Fate::Delivered,
        })
    }

    /// Deliver a control message out-of-band: at a caller-computed
    /// arrival instant, without occupying an injection port and without
    /// fault application. The reliability sublayer above uses this for
    /// positive acks, which a hardware RC transport generates at the NIC
    /// — they neither queue behind data traffic nor themselves fail.
    pub fn send_oob(&self, dst: usize, arrival: VTime, msg: M) {
        obs::wallprof::add(obs::wallprof::Counter::Injections, 1);
        self.deliver(
            dst,
            Delivery {
                src: self.rank,
                arrival,
                msg,
            },
        );
    }

    /// Block until the next message is delivered to this rank's mailbox.
    ///
    /// Under the threaded engine blocking is *real* (thread parking)
    /// but carries no timing meaning: virtual time is read from the
    /// returned [`Delivery::arrival`]. Under the event engine the rank
    /// parks its state machine and the scheduler releases the next
    /// queued frame.
    pub fn recv_blocking(&self) -> Delivery<M> {
        match &self.transport {
            Transport::Threaded { rx, .. } => rx
                .recv()
                .expect("fabric mailbox closed: all sender handles dropped"),
            Transport::Event { core } => core.recv_blocking(self.rank),
        }
    }

    /// Like [`Endpoint::recv_blocking`] but with a watchdog verdict:
    /// `None` means "no progress is coming". The threaded engine
    /// approximates that with `timeout` of *real* time (a disconnected
    /// mailbox — every peer exited — also returns `None`); the event
    /// engine proves it structurally (no runnable rank, no pending
    /// event) and ignores `timeout` entirely, so the watchdog fires at
    /// its virtual deadline with zero wall-clock waiting.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Delivery<M>> {
        match &self.transport {
            Transport::Threaded { rx, .. } => match rx.recv_timeout(timeout) {
                Ok(d) => Some(d),
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
            },
            Transport::Event { core } => core.recv_progress_or_stall(self.rank),
        }
    }

    /// Non-blocking poll of the mailbox. Under the event engine an
    /// empty poll yields the baton once (so poll loops drive cluster
    /// progress instead of spinning) before reporting `None`.
    pub fn try_recv(&self) -> Option<Delivery<M>> {
        match &self.transport {
            Transport::Threaded { rx, .. } => match rx.try_recv() {
                Ok(d) => Some(d),
                Err(TryRecvError::Empty) => None,
                Err(TryRecvError::Disconnected) => {
                    if self.plan.is_some() {
                        None
                    } else {
                        panic!("fabric mailbox closed: all sender handles dropped")
                    }
                }
            },
            Transport::Event { core } => core.try_recv(self.rank),
        }
    }

    /// Injection counters.
    pub fn stats(&self) -> SendStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel as unbounded;
    use vtime::VDur;

    fn params() -> LogGp {
        LogGp {
            latency_ns: 1000.0,
            o_send_ns: 100.0,
            o_recv_ns: 100.0,
            gap_msg_ns: 50.0,
            gap_per_byte_ns: 0.1,
        }
    }

    /// Build a 2-rank, 2-node loop-back pair of endpoints for unit tests.
    fn pair(topo: Topology) -> (Endpoint<u32>, Endpoint<u32>) {
        let (t0, r0) = unbounded();
        let (t1, r1) = unbounded();
        let e0 = Endpoint::new(0, topo, vec![t0.clone(), t1.clone()], r0);
        let e1 = Endpoint::new(1, topo, vec![t0, t1], r1);
        (e0, e1)
    }

    fn send_ok(
        e: &mut Endpoint<u32>,
        dst: usize,
        now: VTime,
        bytes: usize,
        p: &LogGp,
        msg: u32,
    ) -> VTime {
        e.send(dst, now, bytes, p, msg).unwrap().arrival
    }

    #[test]
    fn send_delivers_with_arrival_time() {
        let (mut e0, e1) = pair(Topology::new(2, 1));
        let arr = send_ok(&mut e0, 1, VTime::ZERO, 100, &params(), 7);
        let d = e1.recv_blocking();
        assert_eq!(d.src, 0);
        assert_eq!(d.msg, 7);
        assert_eq!(d.arrival, arr);
        // 50 + 100*0.1 + 1000 = 1060
        assert_eq!(arr.as_nanos(), 1060.0);
    }

    #[test]
    fn per_sender_fifo_is_preserved() {
        let (mut e0, e1) = pair(Topology::new(2, 1));
        for i in 0..64u32 {
            send_ok(&mut e0, 1, VTime::ZERO, 1, &params(), i);
        }
        for i in 0..64u32 {
            assert_eq!(e1.recv_blocking().msg, i);
        }
    }

    #[test]
    fn shm_and_net_ports_do_not_serialize_against_each_other() {
        // 3 ranks: 0 and 1 on node 0, rank 2 on node 1.
        let topo = Topology::new(2, 2); // ranks 0,1 node0; 2,3 node1
        let (t0, _r0) = unbounded::<Delivery<u32>>();
        let (t1, r1) = unbounded();
        let (t2, r2) = unbounded();
        let (t3, _r3) = unbounded();
        let mut e0 = Endpoint::new(0, topo, vec![t0, t1, t2, t3], unbounded().1);
        let p = params();
        // Saturate the shm port with a large local message...
        let a_local = send_ok(&mut e0, 1, VTime::ZERO, 1_000_000, &p, 1);
        // ...then a remote message at the same instant must NOT queue
        // behind it, because it leaves through the NIC port.
        let a_remote = send_ok(&mut e0, 2, VTime::ZERO, 1, &p, 2);
        assert!(a_remote < a_local);
        assert_eq!(r1.recv().unwrap().msg, 1);
        assert_eq!(r2.recv().unwrap().msg, 2);
    }

    #[test]
    fn same_port_messages_serialize() {
        let (mut e0, _e1) = pair(Topology::new(2, 1));
        let p = params();
        let a1 = send_ok(&mut e0, 1, VTime::ZERO, 10_000, &p, 1);
        let a2 = send_ok(&mut e0, 1, VTime::ZERO, 10_000, &p, 2);
        let ser = p.serialize(10_000);
        assert_eq!((a2 - a1), ser);
    }

    #[test]
    fn stats_accumulate() {
        let (mut e0, _e1) = pair(Topology::new(2, 1));
        send_ok(&mut e0, 1, VTime::ZERO, 10, &params(), 1);
        send_ok(&mut e0, 1, VTime::ZERO, 20, &params(), 2);
        assert_eq!(
            e0.stats(),
            SendStats {
                messages: 2,
                wire_bytes: 30
            }
        );
    }

    #[test]
    fn try_recv_empty_then_some() {
        let (mut e0, e1) = pair(Topology::new(2, 1));
        assert!(e1.try_recv().is_none());
        send_ok(&mut e0, 1, VTime::ZERO, 1, &params(), 9);
        // mpsc channels make the send visible immediately.
        let d = e1.try_recv().expect("message should be queued");
        assert_eq!(d.msg, 9);
    }

    #[test]
    fn self_send_is_allowed() {
        let topo = Topology::single_node(1);
        let (t0, r0) = unbounded();
        let mut e0 = Endpoint::<u32>::new(0, topo, vec![t0], r0);
        send_ok(&mut e0, 0, VTime::ZERO, 8, &params(), 42);
        assert_eq!(e0.recv_blocking().msg, 42);
    }

    #[test]
    fn send_out_of_range_is_typed_error() {
        let (mut e0, _e1) = pair(Topology::new(2, 1));
        let err = e0.send(5, VTime::ZERO, 1, &params(), 0).unwrap_err();
        assert_eq!(err, FabricError::DestinationOutOfRange { dst: 5, size: 2 });
        // Nothing was injected.
        assert_eq!(e0.stats(), SendStats::default());
    }

    #[test]
    fn arrival_monotone_per_link_even_with_clock_skew() {
        // Even if the sender's clock jumps backwards between sends (it
        // cannot in practice, but the port must still be safe), arrivals
        // on one port never reorder.
        let (mut e0, _e1) = pair(Topology::new(2, 1));
        let p = params();
        let a1 = send_ok(&mut e0, 1, VTime::from_nanos(5000.0), 100, &p, 1);
        let a2 = send_ok(&mut e0, 1, VTime::from_nanos(0.0), 100, &p, 2);
        assert!(a2 >= a1);
        let _ = VDur::ZERO;
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// A payload whose corruption is observable.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Probe(u64);
    impl FaultTarget for Probe {
        fn corrupt(&mut self, salt: u64) {
            self.0 ^= salt | 1;
        }
    }

    fn faulty_pair(plan: FaultPlan) -> (Endpoint<Probe>, Endpoint<Probe>) {
        let (t0, r0) = unbounded();
        let (t1, r1) = unbounded();
        let topo = Topology::new(2, 1);
        let mut e0 = Endpoint::new(0, topo, vec![t0.clone(), t1.clone()], r0);
        let mut e1 = Endpoint::new(1, topo, vec![t0, t1], r1);
        e0.install_faults(plan);
        e1.install_faults(plan);
        (e0, e1)
    }

    #[test]
    fn drops_lose_messages_but_consume_wire_time() {
        let mut plan = FaultPlan::new(42);
        plan.drop_prob = 0.5;
        let (mut e0, e1) = faulty_pair(plan);
        let p = params();
        let mut fates = Vec::new();
        for i in 0..100 {
            let out = e0.send(1, VTime::ZERO, 100, &p, Probe(i)).unwrap();
            fates.push(out.fate);
        }
        let dropped = fates.iter().filter(|f| **f == Fate::Dropped).count();
        assert!((20..=80).contains(&dropped), "p=0.5 over 100: {dropped}");
        let mut got = 0;
        while e1.try_recv().is_some() {
            got += 1;
        }
        assert_eq!(got, 100 - dropped, "dropped copies never surface");
    }

    #[test]
    fn fates_are_deterministic_per_seed() {
        let fates = |seed: u64| -> Vec<Fate> {
            let mut plan = FaultPlan::new(seed);
            plan.drop_prob = 0.3;
            plan.corrupt_prob = 0.1;
            plan.duplicate_prob = 0.1;
            let (mut e0, _e1) = faulty_pair(plan);
            let p = params();
            (0..200)
                .map(|i| e0.send(1, VTime::ZERO, 64, &p, Probe(i)).unwrap().fate)
                .collect()
        };
        assert_eq!(fates(7), fates(7), "same seed, same fates");
        assert_ne!(fates(7), fates(8), "different seed, different fates");
    }

    #[test]
    fn corruption_mutates_payload_in_flight() {
        let mut plan = FaultPlan::new(3);
        plan.corrupt_prob = 1.0;
        let (mut e0, e1) = faulty_pair(plan);
        let out = e0.send(1, VTime::ZERO, 8, &params(), Probe(0)).unwrap();
        assert_eq!(out.fate, Fate::Corrupted);
        let d = e1.recv_blocking();
        assert_ne!(d.msg, Probe(0), "payload was flipped in flight");
    }

    #[test]
    fn duplication_delivers_twice_in_order() {
        let mut plan = FaultPlan::new(3);
        plan.duplicate_prob = 1.0;
        let (mut e0, e1) = faulty_pair(plan);
        let out = e0.send(1, VTime::ZERO, 8, &params(), Probe(9)).unwrap();
        assert_eq!(out.fate, Fate::Duplicated);
        let first = e1.recv_blocking();
        let second = e1.recv_blocking();
        assert_eq!(first.msg, Probe(9));
        assert_eq!(second.msg, Probe(9));
        assert!(second.arrival >= first.arrival);
    }

    #[test]
    fn jitter_preserves_per_link_order() {
        let mut plan = FaultPlan::new(11);
        plan.jitter_ns = 5_000.0;
        let (mut e0, e1) = faulty_pair(plan);
        let p = params();
        let mut last = VTime::ZERO;
        for i in 0..50 {
            let out = e0.send(1, VTime::ZERO, 16, &p, Probe(i)).unwrap();
            assert!(out.arrival >= last, "jitter must not reorder a link");
            last = out.arrival;
        }
        let mut prev = VTime::ZERO;
        while let Some(d) = e1.try_recv() {
            assert!(d.arrival >= prev);
            prev = d.arrival;
        }
    }

    #[test]
    fn link_delay_applies_to_one_link_only() {
        let mut plan = FaultPlan::new(0);
        plan.link_delay = Some((0, 1, 10_000.0));
        let (mut e0, _e1) = faulty_pair(plan);
        let p = params();
        let delayed = e0.send(1, VTime::ZERO, 100, &p, Probe(0)).unwrap().arrival;
        // Same message shape on the undelayed reverse direction.
        let (mut f1, _f0) = {
            let (a, b) = faulty_pair(plan);
            (b, a)
        };
        let plain = f1.send(0, VTime::ZERO, 100, &p, Probe(0)).unwrap().arrival;
        assert_eq!((delayed - plain).as_nanos(), 10_000.0);
    }

    #[test]
    fn crashed_destination_blackholes_after_crash_time() {
        let mut plan = FaultPlan::new(0);
        plan.crash = Some((1, 2_000.0));
        let (mut e0, e1) = faulty_pair(plan);
        let p = params();
        // Arrival ~1060ns < 2000ns: delivered.
        let before = e0.send(1, VTime::ZERO, 100, &p, Probe(1)).unwrap();
        assert_eq!(before.fate, Fate::Delivered);
        // Much later: blackholed.
        let after = e0
            .send(1, VTime::from_nanos(10_000.0), 100, &p, Probe(2))
            .unwrap();
        assert_eq!(after.fate, Fate::Dropped);
        assert_eq!(e1.recv_blocking().msg, Probe(1));
        assert!(e1.try_recv().is_none());
    }

    #[test]
    fn recv_timeout_times_out_on_silence() {
        let (_e0, e1) = pair(Topology::new(2, 1));
        assert!(e1.recv_timeout(Duration::from_millis(10)).is_none());
    }
}
