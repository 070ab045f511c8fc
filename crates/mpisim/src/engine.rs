//! The per-rank progress engine: MPI point-to-point semantics (matching,
//! eager and rendezvous protocols, requests) over a fabric endpoint.
//!
//! ## Protocols
//!
//! * **Eager** (payload ≤ path threshold): the sender copies the payload
//!   into a bounce buffer (charged per byte), injects one message, and
//!   completes immediately. The receiver pays a copy-out when it consumes
//!   the message — plus an extra touch if the message arrived before the
//!   receive was posted (unexpected queue).
//! * **Rendezvous** (payload > threshold): the sender injects a small RTS
//!   and completes only after the receiver's CTS arrives; the payload then
//!   moves zero-copy (RDMA-style) — no per-byte CPU charge, only wire
//!   serialization time.
//!
//! ## Virtual-time discipline
//!
//! The engine never advances its clock just because a message *popped out
//! of the channel*; costs attach to the operation that consumes the
//! message. This matters because the underlying channel delivers in real
//! time order, which may interleave messages whose virtual arrivals are
//! far apart. Control traffic (RTS/CTS) is handled "asynchronously" — the
//! modern hardware-offloaded rendezvous — so it never inflates the
//! receiver's application-visible clock.

use obs::pvar;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use obs::wallprof::{self, Counter as WpCounter, Subsystem as WpSub};
use simfabric::{one_sided_channel, Delivery, Endpoint, Fate, FaultPlan, OneSidedClass};
use vtime::{Clock, LogGp, VDur, VTime};

use crate::error::{MpiError, MpiResult};
use crate::op::ReduceOp;
use crate::profile::{PathParams, Profile};
use crate::Payload;

/// Wildcard source (MPI_ANY_SOURCE) for receive matching.
pub const ANY_SOURCE: i32 = -1;
/// Wildcard tag (MPI_ANY_TAG) for receive matching.
pub const ANY_TAG: i32 = -2;
/// Largest user tag; the collective layer uses tags above this.
pub const TAG_UB: i32 = 1 << 24;
/// Base of the non-blocking collective tag space (above every blocking
/// collective tag base). Traffic tagged here is schedule traffic: its
/// emission order is driven by message arrival rather than program order,
/// so it is injected on per-schedule fabric channels (see
/// [`injection_channel`]).
pub(crate) const NBC_TAG_BASE: i32 = TAG_UB + 0x1000;
/// Tag window stride per schedule; also the cap on rounds per schedule.
pub(crate) const NBC_ROUNDS_MAX: usize = 512;

/// Injection-channel classes for non-blocking-collective traffic. Each
/// class has a deterministic internal emission order but races against
/// the other classes in real time, so each gets its own channel.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ChannelClass {
    /// Eager payloads and RTS frames posted by a schedule round (fired in
    /// round order).
    Data = 0,
    /// CTS responses to a schedule's rendezvous sends (emitted in the
    /// peer's round order).
    Cts = 1,
    /// Rendezvous payloads released by a CTS (emitted in round order).
    RndvData = 2,
}

/// The fabric injection channel for a message with the given envelope.
///
/// Ordinary point-to-point and blocking-collective traffic (tags at or
/// below the blocking tag space) is emitted in program order, so it all
/// shares channel 0 and serializes realistically. Non-blocking-collective
/// schedule traffic is emitted whenever progression happens to run, which
/// real time decides — injecting it on the shared port would let OS
/// scheduling reorder the port's busy horizon and leak wall-clock
/// nondeterminism into virtual arrival times. Each schedule window (and
/// each response class within it) therefore gets a dedicated channel,
/// modeling the per-schedule send queue a hardware-offloaded NBC engine
/// owns. Within one channel the emission order is deterministic, so
/// arrivals stay a pure function of virtual time.
fn injection_channel(context: u32, tag: i32, class: ChannelClass) -> u64 {
    if tag < NBC_TAG_BASE {
        return 0;
    }
    let window = ((tag - NBC_TAG_BASE) as u64) / NBC_ROUNDS_MAX as u64;
    1 + (((context as u64) << 16) | window) * 3 + class as u64
}

/// Message envelope used for matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope {
    /// Sender's world rank.
    pub src: usize,
    /// Message tag.
    pub tag: i32,
    /// Communication context (communicator id × pt2pt/collective stream).
    pub context: u32,
}

/// Causal stamp carried by every payload-bearing wire message: `flow` is
/// the globally unique flow id tying a send to its matching recv (bits
/// 40.. hold `src+1`, bits 0..40 a per-sender sequence number, so ids
/// from the same (src,dst,tag) stream are monotonically increasing);
/// `coll` is the collective-instance id (0 for plain pt2pt traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowStamp {
    pub flow: u64,
    pub coll: u64,
}

/// Fabric payload exchanged between engines.
#[derive(Debug, Clone)]
pub enum Wire {
    /// Eagerly sent message with inline payload.
    Eager {
        env: Envelope,
        data: Payload,
        stamp: FlowStamp,
    },
    /// Rendezvous request-to-send.
    Rts {
        env: Envelope,
        sender_req: u64,
        nbytes: usize,
        stamp: FlowStamp,
    },
    /// Clear-to-send, answering an RTS.
    Cts { sender_req: u64 },
    /// Rendezvous payload (conceptually an RDMA write).
    RndvData {
        env: Envelope,
        data: Payload,
        stamp: FlowStamp,
    },
    /// Reliability-sublayer positive acknowledgement of frame `seq`
    /// (only emitted while a fault plan is active).
    Ack { seq: u64 },
    /// One-sided RDMA write into window `win` at `offset`. Bypasses tag
    /// matching entirely: the target NIC deposits the payload into the
    /// exposed window memory without a posted receive. `epoch` carries the
    /// origin's access-epoch number for the window; the target defers
    /// frames from epochs it has not opened yet (see
    /// [`Engine::win_epoch_advance`]).
    Put {
        win: u32,
        epoch: u64,
        offset: usize,
        data: Payload,
        stamp: FlowStamp,
    },
    /// One-sided read request: the target NIC answers with [`Wire::GetReply`]
    /// carrying `nbytes` from window `win` at `offset`, addressed to the
    /// origin's request `req`.
    GetReq {
        win: u32,
        epoch: u64,
        offset: usize,
        nbytes: usize,
        origin: usize,
        req: u64,
        stamp: FlowStamp,
    },
    /// Payload answering a [`Wire::GetReq`] (conceptually the RDMA-read
    /// response DMA'd straight into the origin's registered memory).
    GetReply {
        req: u64,
        data: Payload,
        stamp: FlowStamp,
    },
    /// One-sided accumulate: element-wise `op` of the payload into window
    /// memory, applied by the target side on arrival.
    Acc {
        win: u32,
        epoch: u64,
        offset: usize,
        op: ReduceOp,
        data: Payload,
        stamp: FlowStamp,
    },
}

/// The unit the engine actually puts on the fabric: a [`Wire`] message
/// framed with a per-link sequence number and a checksum. Outside a fault
/// plan both fields stay zero and are never inspected, so the reliability
/// sublayer costs nothing on a healthy fabric.
///
/// The wire content is shared (`Arc`) so retransmission clones a pointer,
/// not the payload: the reliability sublayer allocates the message once
/// however many copies the fabric ends up carrying. A [`Wire`] clone
/// shares its [`Payload`] bytes too.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Per-(src,dst) sequence number (1-based; 0 marks control acks).
    pub seq: u64,
    /// FNV-1a over `seq` and the wire content (0 when no plan is active).
    pub checksum: u64,
    /// The MPI-level message.
    pub wire: Arc<Wire>,
}

impl simfabric::FaultTarget for Frame {
    /// Bit-flip the frame the way a faulty wire would: payload bytes when
    /// there are any, otherwise the checksum itself (control frames).
    /// `seq` is left intact so the receiver can still attribute the frame.
    /// `Arc::make_mut` and [`Payload::make_mut`] unshare the wire and its
    /// bytes first, so the sender's pristine copy (needed for
    /// retransmission) is never damaged.
    fn corrupt(&mut self, salt: u64) {
        match Arc::make_mut(&mut self.wire) {
            Wire::Eager { data, .. }
            | Wire::RndvData { data, .. }
            | Wire::Put { data, .. }
            | Wire::GetReply { data, .. }
            | Wire::Acc { data, .. }
                if !data.is_empty() =>
            {
                let idx = (salt as usize) % data.len();
                data.make_mut()[idx] ^= (salt as u8) | 1;
            }
            _ => self.checksum ^= salt | 1,
        }
    }
}

/// FNV-1a hasher for frame checksums (checksum field excluded).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    fn eat_u64(&mut self, v: u64) {
        self.eat(&v.to_le_bytes());
    }
}

/// Checksum of a frame's integrity-relevant content.
fn frame_checksum(seq: u64, wire: &Wire) -> u64 {
    let mut h = Fnv::new();
    h.eat_u64(seq);
    let env_of = |h: &mut Fnv, env: &Envelope| {
        h.eat_u64(env.src as u64);
        h.eat_u64(env.tag as u64);
        h.eat_u64(env.context as u64);
    };
    match wire {
        Wire::Eager { env, data, stamp } => {
            h.eat_u64(1);
            env_of(&mut h, env);
            h.eat_u64(stamp.flow);
            h.eat(data);
        }
        Wire::Rts {
            env,
            sender_req,
            nbytes,
            stamp,
        } => {
            h.eat_u64(2);
            env_of(&mut h, env);
            h.eat_u64(*sender_req);
            h.eat_u64(*nbytes as u64);
            h.eat_u64(stamp.flow);
        }
        Wire::Cts { sender_req } => {
            h.eat_u64(3);
            h.eat_u64(*sender_req);
        }
        Wire::RndvData { env, data, stamp } => {
            h.eat_u64(4);
            env_of(&mut h, env);
            h.eat_u64(stamp.flow);
            h.eat(data);
        }
        Wire::Ack { seq } => {
            h.eat_u64(5);
            h.eat_u64(*seq);
        }
        Wire::Put {
            win,
            epoch,
            offset,
            data,
            stamp,
        } => {
            h.eat_u64(6);
            h.eat_u64(*win as u64);
            h.eat_u64(*epoch);
            h.eat_u64(*offset as u64);
            h.eat_u64(stamp.flow);
            h.eat(data);
        }
        Wire::GetReq {
            win,
            epoch,
            offset,
            nbytes,
            origin,
            req,
            stamp,
        } => {
            h.eat_u64(7);
            h.eat_u64(*win as u64);
            h.eat_u64(*epoch);
            h.eat_u64(*offset as u64);
            h.eat_u64(*nbytes as u64);
            h.eat_u64(*origin as u64);
            h.eat_u64(*req);
            h.eat_u64(stamp.flow);
        }
        Wire::GetReply { req, data, stamp } => {
            h.eat_u64(8);
            h.eat_u64(*req);
            h.eat_u64(stamp.flow);
            h.eat(data);
        }
        Wire::Acc {
            win,
            epoch,
            offset,
            op,
            data,
            stamp,
        } => {
            h.eat_u64(9);
            h.eat_u64(*win as u64);
            h.eat_u64(*epoch);
            h.eat_u64(*offset as u64);
            h.eat_u64(*op as u64);
            h.eat_u64(stamp.flow);
            h.eat(data);
        }
    }
    h.0
}

/// Completion information for a receive (subset of MPI_Status).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// World rank of the sender.
    pub source: usize,
    /// Tag of the matched message.
    pub tag: i32,
    /// Payload bytes received.
    pub bytes: usize,
}

/// Opaque request handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request(u64);

/// What a posted receive is willing to match.
///
/// Besides the exact fields, the spec precomputes a packed `(mask, key)`
/// pre-filter: context in bits 32.., truncated source in bits 16..32,
/// truncated tag in bits 0..16, with wildcard fields masked out. One AND
/// and compare rejects almost every non-matching envelope before the full
/// (counted) comparison runs; truncation can only produce false
/// *positives*, which the exact check then rejects.
#[derive(Debug, Clone, Copy)]
struct MatchSpec {
    context: u32,
    src: Option<usize>,
    tag: Option<i32>,
    mask: u64,
    key: u64,
}

/// Packed envelope key mirroring [`MatchSpec`]'s pre-filter layout.
#[inline]
fn env_key(env: &Envelope) -> u64 {
    ((env.context as u64) << 32) | ((env.src as u16 as u64) << 16) | (env.tag as u16 as u64)
}

impl MatchSpec {
    fn new(context: u32, src: Option<usize>, tag: Option<i32>) -> MatchSpec {
        let mut mask = 0xFFFF_FFFFu64 << 32;
        let mut key = (context as u64) << 32;
        if let Some(s) = src {
            mask |= 0xFFFF << 16;
            key |= (s as u16 as u64) << 16;
        }
        if let Some(t) = tag {
            mask |= 0xFFFF;
            key |= t as u16 as u64;
        }
        MatchSpec {
            context,
            src,
            tag,
            mask,
            key,
        }
    }

    /// Cheap packed-key rejection test; `true` means "might match".
    #[inline]
    fn prefilter(&self, packed: u64) -> bool {
        packed & self.mask == self.key
    }

    fn matches(&self, env: &Envelope) -> bool {
        env.context == self.context
            && self.src.is_none_or(|s| s == env.src)
            && self.tag.is_none_or(|t| t == env.tag)
    }
}

/// A message that arrived before a matching receive was posted. The
/// packed envelope key is computed once at enqueue so receive-side scans
/// pre-filter without touching the envelope.
#[derive(Debug)]
enum Unexpected {
    Eager {
        env: Envelope,
        key: u64,
        arrival: VTime,
        data: Payload,
        stamp: FlowStamp,
    },
    Rts {
        env: Envelope,
        key: u64,
        arrival: VTime,
        sender_req: u64,
        nbytes: usize,
    },
}

impl Unexpected {
    fn env(&self) -> &Envelope {
        match self {
            Unexpected::Eager { env, .. } | Unexpected::Rts { env, .. } => env,
        }
    }

    fn key(&self) -> u64 {
        match self {
            Unexpected::Eager { key, .. } | Unexpected::Rts { key, .. } => *key,
        }
    }
}

#[derive(Debug)]
enum SendState {
    /// Eager send: already complete at this instant.
    EagerDone { complete_at: VTime },
    /// Rendezvous: RTS injected, waiting for CTS.
    AwaitCts {
        dst: usize,
        data: Payload,
        env: Envelope,
        stamp: FlowStamp,
    },
    /// Rendezvous payload injected.
    RndvDone { complete_at: VTime },
}

#[derive(Debug)]
enum RecvState {
    /// Posted, nothing matched yet (records the posting instant so that
    /// control responses are timed deterministically).
    Posted { posted_at: VTime },
    /// Matched an RTS and answered CTS; waiting for the payload.
    AwaitData { src: usize },
    /// Payload is here (not yet consumed by `wait`).
    Ready {
        env: Envelope,
        arrival: VTime,
        data: Payload,
        /// True if the message took the unexpected path (extra copy).
        was_unexpected: bool,
        stamp: FlowStamp,
    },
}

#[derive(Debug)]
enum ReqState {
    Send(SendState),
    Recv {
        spec: MatchSpec,
        capacity: usize,
        state: RecvState,
    },
    /// Outstanding one-sided get: waiting for the target's [`Wire::GetReply`]
    /// to land in origin memory. Never enters the posted list — one-sided
    /// traffic bypasses tag matching.
    RmaGet {
        target: usize,
        state: Option<(Payload, VTime)>,
    },
}

/// A completed receive, returned by [`Engine::wait`].
#[derive(Debug)]
pub struct Completion {
    /// Receive payload (empty for send requests).
    pub data: Payload,
    /// Matching metadata.
    pub status: Status,
}

/// The per-rank MPI progress engine.
pub struct Engine {
    ep: Endpoint<Frame>,
    clock: Clock,
    profile: Profile,
    requests: HashMap<u64, ReqState>,
    next_req: u64,
    /// Receive requests in post order (for arrival-side matching), each
    /// carrying its spec's packed pre-filter so scans reject non-matching
    /// entries without a request-table lookup. Entries leave this list as
    /// soon as their payload is ready (matched), not at consumption — a
    /// matched-but-unconsumed receive can never match again, so keeping it
    /// here only lengthens every later scan.
    posted: Vec<PostedEntry>,
    /// Arrived-but-unmatched messages in arrival order.
    unexpected: Vec<Unexpected>,
    /// Per-sender flow sequence number (monotonic over all sends, hence
    /// over every (src,dst,tag) stream).
    next_flow: u64,
    /// Collective instance currently in flight, and the context whose
    /// traffic it labels (stale outside a collective; the context gate
    /// keeps user pt2pt traffic unlabelled).
    coll_instance: u64,
    coll_ctx: Option<u32>,
    /// Per-context collective call counter; collectives are globally
    /// ordered per communicator, so every rank derives the same ids.
    coll_seq: HashMap<u32, u64>,
    /// Fault plan in force (copied from the endpoint at construction).
    /// `None` disables the entire reliability sublayer — no checksums,
    /// no acks, no dedup state — so a healthy fabric pays nothing.
    plan: Option<FaultPlan>,
    /// Next frame sequence number per destination (1-based).
    next_seq: Vec<u64>,
    /// Accepted frame seqs per source, for duplicate suppression.
    seen: Vec<HashSet<u64>>,
    /// Exposed one-sided window memory by window id (the "NIC view" the
    /// fabric deposits into and serves gets from).
    windows: HashMap<u32, WinMem>,
}

/// One exposed window: memory, the access epoch this rank has opened, and
/// one-sided frames from epochs it has not opened yet.
///
/// Epoch gating is what keeps one-sided traffic deterministic: an origin
/// that leaves a fence early (in *real* time) may inject next-epoch
/// operations before a slower target has closed the previous epoch, and
/// applying those on arrival would make window contents depend on OS
/// scheduling. Deferring every frame stamped with a future epoch, and
/// applying the backlog in virtual-arrival order when the target itself
/// advances, reproduces MPI's epoch semantics exactly: a deposit becomes
/// visible at the fence that closes the epoch it was issued in.
struct WinMem {
    mem: Payload,
    /// Byte ranges of `mem` that remote deposits (puts, accumulates) have
    /// written since the owner last synchronized its user storage with
    /// it; [`Engine::win_publish`] leaves them alone.
    deposited: Vec<Range<usize>>,
    /// Number of fence epochs this rank has opened on the window (0 =
    /// between creation and the first fence).
    epoch: u64,
    /// Frames stamped with an epoch this rank has not opened yet, in
    /// arrival (real-time) order; replayed deterministically at
    /// [`Engine::win_epoch_advance`] / [`Engine::win_deliver_current`].
    deferred: Vec<DeferredRma>,
}

impl WinMem {
    /// Record that a remote deposit wrote `r`, merging it into the last
    /// recorded range when the two touch (repeated puts to one region
    /// stay one range).
    fn record_deposit(&mut self, r: Range<usize>) {
        match self.deposited.last_mut() {
            Some(last) if r.start <= last.end && last.start <= r.end => {
                last.start = last.start.min(r.start);
                last.end = last.end.max(r.end);
            }
            _ => self.deposited.push(r),
        }
    }
}

/// A one-sided frame parked until its epoch opens at the target.
struct DeferredRma {
    src: usize,
    arrival: VTime,
    wire: Wire,
}

impl DeferredRma {
    fn epoch(&self) -> u64 {
        match &self.wire {
            Wire::Put { epoch, .. } | Wire::GetReq { epoch, .. } | Wire::Acc { epoch, .. } => {
                *epoch
            }
            _ => unreachable!("only one-sided frames are deferred"),
        }
    }

    fn is_get(&self) -> bool {
        matches!(self.wire, Wire::GetReq { .. })
    }
}

/// One posted-receive entry: request id plus its spec's packed pre-filter.
#[derive(Debug, Clone, Copy)]
struct PostedEntry {
    id: u64,
    mask: u64,
    key: u64,
}

impl Engine {
    /// Wrap a fabric endpoint with MPI semantics under `profile`.
    pub fn new(ep: Endpoint<Frame>, profile: Profile) -> Self {
        let plan = ep.fault_plan();
        let n = ep.size();
        let mut clock = Clock::new();
        if let Some((rank, factor)) = plan.and_then(|p| p.slowdown) {
            if rank == ep.rank() {
                clock.set_rate(factor);
            }
        }
        Engine {
            ep,
            clock,
            profile,
            requests: HashMap::new(),
            next_req: 1,
            posted: Vec::new(),
            unexpected: Vec::new(),
            next_flow: 0,
            coll_instance: 0,
            coll_ctx: None,
            coll_seq: HashMap::new(),
            plan,
            next_seq: vec![1; n],
            seen: vec![HashSet::new(); n],
            windows: HashMap::new(),
        }
    }

    /// World rank of this engine.
    #[inline]
    pub fn rank(&self) -> usize {
        self.ep.rank()
    }

    /// Number of ranks in the world.
    #[inline]
    pub fn world_size(&self) -> usize {
        self.ep.size()
    }

    /// The library profile in force.
    #[inline]
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// The fabric topology.
    pub fn topology(&self) -> &simfabric::Topology {
        self.ep.topology()
    }

    /// Mutable access to the rank's virtual clock (the bindings layer
    /// charges JNI and copy costs here).
    #[inline]
    pub fn clock_mut(&mut self) -> &mut Clock {
        &mut self.clock
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> VTime {
        self.clock.now()
    }

    fn path_to(&self, dst: usize) -> &PathParams {
        self.profile.path(self.ep.is_local(dst))
    }

    fn alloc_req(&mut self, st: ReqState) -> Request {
        let id = self.next_req;
        self.next_req += 1;
        self.requests.insert(id, st);
        Request(id)
    }

    /// Next flow id: bits 40.. are `src+1`, bits 0..40 the per-sender
    /// sequence — globally unique and monotonic per (src,dst,tag).
    fn alloc_flow(&mut self) -> u64 {
        self.next_flow += 1;
        ((self.rank() as u64 + 1) << 40) | self.next_flow
    }

    /// Begin a collective on context `ctx`: derive its deterministic
    /// instance id (`ctx << 32 | per-context call count`) and label the
    /// context's traffic with it until the next collective.
    pub fn begin_collective(&mut self, ctx: u32) -> u64 {
        let seq = self.coll_seq.entry(ctx).or_insert(0);
        *seq += 1;
        let id = ((ctx as u64) << 32) | *seq;
        self.coll_instance = id;
        self.coll_ctx = Some(ctx);
        id
    }

    /// Re-install a previously allocated collective label (context +
    /// instance id), returning the label it replaced. Non-blocking
    /// collective schedules use this so traffic posted during progression
    /// — possibly interleaved with other collectives — keeps carrying the
    /// instance id allocated at post time.
    pub fn swap_coll_label(&mut self, ctx: Option<u32>, id: u64) -> (Option<u32>, u64) {
        let old = (self.coll_ctx, self.coll_instance);
        self.coll_ctx = ctx;
        self.coll_instance = id;
        old
    }

    /// Instance id of the most recently begun collective (0 if none).
    pub fn current_collective(&self) -> u64 {
        self.coll_instance
    }

    /// Collective-instance label for traffic on `context`.
    fn coll_of(&self, context: u32) -> u64 {
        if self.coll_ctx == Some(context) {
            self.coll_instance
        } else {
            0
        }
    }

    // ------------------------------------------------------------------
    // Reliability sublayer
    // ------------------------------------------------------------------

    /// Inject `wire` towards `dst`, retransmitting on loss or corruption.
    ///
    /// Without a fault plan this is a plain injection (zero-cost framing).
    /// With one, the frame is sequenced and checksummed, and the sender
    /// retransmits with exponential backoff until a copy is delivered
    /// intact or the retry cap is hit. Retransmission is *oracle-timed*:
    /// the fabric's fault fates are seeded deterministic sender-side
    /// decisions, so the sender already knows whether a copy will survive
    /// and can schedule the retransmit at `t + rto·2^attempt` in virtual
    /// time without a real timer. The application clock is never charged —
    /// the reliability sublayer is NIC-offloaded, like the RC transport it
    /// stands in for — so faults surface as later arrivals (wait time),
    /// with `retransmit` spans recording the cause for attribution.
    fn inject_reliable(
        &mut self,
        dst: usize,
        channel: u64,
        t: VTime,
        wire_bytes: usize,
        loggp: &LogGp,
        wire: Wire,
    ) -> MpiResult<VTime> {
        let _wp = wallprof::span(WpSub::Fabric);
        let Some(plan) = self.plan else {
            let frame = Frame {
                seq: 0,
                checksum: 0,
                wire: Arc::new(wire),
            };
            let out = self
                .ep
                .send_on(dst, channel, t, wire_bytes, loggp, frame)
                .unwrap_or_else(|e| panic!("engine routed to invalid destination: {e}"));
            return Ok(out.arrival);
        };

        let seq = self.next_seq[dst];
        self.next_seq[dst] += 1;
        let checksum = {
            let _wr = wallprof::span(WpSub::Reliability);
            frame_checksum(seq, &wire)
        };
        // The payload is captured once; every (re)transmitted copy shares
        // it through the Arc, so retries cost a pointer clone, not an
        // allocation.
        let wire = Arc::new(wire);
        let mut attempt = 0u32;
        let mut t = t;
        loop {
            let frame = Frame {
                seq,
                checksum,
                wire: Arc::clone(&wire),
            };
            let out = self
                .ep
                .send_on(dst, channel, t, wire_bytes, loggp, frame)
                .unwrap_or_else(|e| panic!("engine routed to invalid destination: {e}"));
            match out.fate {
                Fate::Delivered | Fate::Duplicated | Fate::Corrupted => {
                    // Corrupted copies *are* delivered; the receiver's
                    // checksum rejects them and the oracle retransmits.
                }
                Fate::Dropped => {
                    obs::count(pvar::FABRIC_DROPS_INJECTED, 1);
                }
            }
            if matches!(out.fate, Fate::Delivered | Fate::Duplicated) {
                return Ok(out.arrival);
            }
            if attempt >= plan.max_retries {
                // A destination that is dropping because it crashed is a
                // failed rank, not a flaky link.
                if let Some((crashed, _)) = plan.crash {
                    if crashed == dst {
                        obs::incident_mark(
                            "rank_failed",
                            dst,
                            t,
                            format!("peer {dst} unreachable after {attempt} retries"),
                        );
                        return Err(MpiError::RankFailed { rank: dst });
                    }
                }
                obs::incident_mark(
                    "transport_failure",
                    dst,
                    t,
                    format!("retries exhausted towards peer {dst}"),
                );
                return Err(MpiError::TransportFailure {
                    peer: dst,
                    retries: attempt,
                });
            }
            let backoff = plan.rto_ns * 2f64.powi(attempt as i32);
            obs::count(pvar::FABRIC_RETRANSMITS, 1);
            obs::count(pvar::RELIABILITY_BACKOFF_NS, backoff as u64);
            let resend_at = t + VDur::from_nanos(backoff);
            if obs::tracing_enabled() {
                obs::span(
                    "retransmit",
                    "retransmit",
                    t,
                    resend_at,
                    vec![
                        ("dst", obs::ArgValue::U64(dst as u64)),
                        ("seq", obs::ArgValue::U64(seq)),
                        ("attempt", obs::ArgValue::U64(attempt as u64 + 1)),
                    ],
                );
            }
            t = resend_at;
            attempt += 1;
        }
    }

    /// Error out if this rank's own crash time has passed: a crashed rank
    /// stops initiating MPI operations (its thread then unwinds through
    /// the errhandler).
    fn check_self_crash(&self) -> MpiResult<()> {
        if let Some((rank, at_ns)) = self.plan.and_then(|p| p.crash) {
            if rank == self.rank() && self.clock.now().as_nanos() >= at_ns {
                obs::incident_mark(
                    "rank_failed",
                    rank,
                    self.clock.now(),
                    "own crash time passed".to_string(),
                );
                return Err(MpiError::RankFailed { rank });
            }
        }
        Ok(())
    }

    /// Pull the next delivery for the progress loop. When the plan
    /// declares a crashed rank, blocking is bounded by the watchdog: a
    /// stall longer than `watchdog_ms` of *real* time means the missing
    /// message is never coming (the dead rank will not send it), and the
    /// stall is converted into a deterministic `RankFailed`. Without a
    /// crash in the plan the fabric never loses a message permanently
    /// (retransmission is bounded), so unbounded blocking stays safe and
    /// real time stays out of the simulation entirely.
    fn recv_progress(&mut self) -> MpiResult<Delivery<Frame>> {
        match self
            .plan
            .and_then(|p| p.crash.map(|(r, _)| (r, p.watchdog_ms)))
        {
            None => Ok(self.ep.recv_blocking()),
            Some((crashed, ms)) => match self.ep.recv_timeout(Duration::from_millis(ms)) {
                Some(d) => Ok(d),
                None => {
                    obs::count(pvar::FABRIC_WATCHDOG_TRIPS, 1);
                    obs::incident_mark(
                        "watchdog",
                        crashed,
                        self.clock.now(),
                        format!("recv stalled {ms} ms waiting on rank {crashed}"),
                    );
                    Err(MpiError::RankFailed { rank: crashed })
                }
            },
        }
    }

    // ------------------------------------------------------------------
    // Posting
    // ------------------------------------------------------------------

    /// Non-blocking send of a contiguous byte payload.
    ///
    /// The payload is captured immediately (MPI buffer-reuse semantics for
    /// the simulation); timing follows the eager or rendezvous protocol.
    pub fn isend_bytes(
        &mut self,
        data: &[u8],
        dst: usize,
        tag: i32,
        context: u32,
    ) -> MpiResult<Request> {
        if dst >= self.world_size() {
            return Err(MpiError::InvalidRank {
                rank: dst as i32,
                comm_size: self.world_size(),
            });
        }
        self.check_self_crash()?;
        wallprof::add(WpCounter::Messages, 1);
        let path = *self.path_to(dst);
        let env = Envelope {
            src: self.rank(),
            tag,
            context,
        };
        let stamp = FlowStamp {
            flow: self.alloc_flow(),
            coll: self.coll_of(context),
        };
        if data.len() <= path.eager_threshold {
            // Eager: CPU copy into the bounce buffer, inject, done.
            wallprof::add(WpCounter::Allocs, 1); // payload capture below
            wallprof::add(WpCounter::CopyBytes, data.len() as u64);
            self.clock.charge(path.eager_copy(data.len()));
            self.clock.charge(path.loggp.o_send());
            let wire = path.header_bytes + data.len();
            let inject_at = self.clock.now();
            let arrival = self.inject_reliable(
                dst,
                injection_channel(context, tag, ChannelClass::Data),
                inject_at,
                wire,
                &path.loggp,
                Wire::Eager {
                    env,
                    data: Payload::copy_from(data),
                    stamp,
                },
            )?;
            obs::count(pvar::PT2PT_EAGER_MSGS, 1);
            obs::count(pvar::PT2PT_EAGER_BYTES, data.len() as u64);
            if obs::tracing_enabled() {
                self.trace_send(stamp, "eager", dst, tag, data.len(), inject_at, arrival);
            }
            Ok(self.alloc_req(ReqState::Send(SendState::EagerDone {
                complete_at: self.clock.now(),
            })))
        } else {
            // Rendezvous: inject RTS, park the payload until CTS.
            self.clock.charge(path.loggp.o_send());
            obs::count(pvar::PT2PT_RNDV_MSGS, 1);
            obs::count(pvar::PT2PT_RNDV_BYTES, data.len() as u64);
            if obs::tracing_enabled() {
                // The fabric span for the payload is emitted when the CTS
                // triggers the actual transfer.
                let now = self.clock.now();
                self.trace_send(stamp, "rndv", dst, tag, data.len(), now, now);
            }
            let nbytes = data.len();
            wallprof::add(WpCounter::Allocs, 1); // payload parked until CTS
            wallprof::add(WpCounter::CopyBytes, nbytes as u64);
            let req = self.alloc_req(ReqState::Send(SendState::AwaitCts {
                dst,
                data: Payload::copy_from(data),
                env,
                stamp,
            }));
            let Request(id) = req;
            if let Err(e) = self.inject_reliable(
                dst,
                injection_channel(context, tag, ChannelClass::Data),
                self.clock.now(),
                path.header_bytes,
                &path.loggp,
                Wire::Rts {
                    env,
                    sender_req: id,
                    nbytes,
                    stamp,
                },
            ) {
                self.requests.remove(&id);
                return Err(e);
            }
            Ok(req)
        }
    }

    /// Trace one send: the "send" instant, the flow-begin arrow anchor,
    /// and (when `arrival > inject_at`) the sender-side fabric-transfer
    /// span. Reads clocks only — never charges one.
    #[allow(clippy::too_many_arguments)]
    fn trace_send(
        &self,
        stamp: FlowStamp,
        proto: &'static str,
        dst: usize,
        tag: i32,
        bytes: usize,
        inject_at: VTime,
        arrival: VTime,
    ) {
        obs::instant(
            "send",
            "pt2pt",
            inject_at,
            vec![
                ("proto", obs::ArgValue::Str(proto)),
                ("dst", obs::ArgValue::U64(dst as u64)),
                ("tag", obs::ArgValue::I64(tag as i64)),
                ("bytes", obs::ArgValue::U64(bytes as u64)),
                ("flow", obs::ArgValue::U64(stamp.flow)),
                ("coll", obs::ArgValue::U64(stamp.coll)),
            ],
        );
        obs::flow(
            "msg",
            "flow",
            inject_at,
            obs::FlowDir::Begin,
            stamp.flow,
            vec![
                ("bytes", obs::ArgValue::U64(bytes as u64)),
                ("dst", obs::ArgValue::U64(dst as u64)),
                ("coll", obs::ArgValue::U64(stamp.coll)),
            ],
        );
        if arrival > inject_at {
            obs::span(
                "xfer",
                "fabric",
                inject_at,
                arrival,
                vec![
                    ("bytes", obs::ArgValue::U64(bytes as u64)),
                    ("dst", obs::ArgValue::U64(dst as u64)),
                    ("flow", obs::ArgValue::U64(stamp.flow)),
                ],
            );
        }
    }

    /// Non-blocking receive of up to `capacity` bytes.
    ///
    /// `src < 0` means [`ANY_SOURCE`]; `tag == ANY_TAG` matches any tag.
    pub fn irecv_bytes(
        &mut self,
        capacity: usize,
        src: i32,
        tag: i32,
        context: u32,
    ) -> MpiResult<Request> {
        if src >= self.world_size() as i32 {
            return Err(MpiError::InvalidRank {
                rank: src,
                comm_size: self.world_size(),
            });
        }
        // Note: internal collective traffic uses tags above TAG_UB; the
        // user-facing tag range check lives in the `Mpi` facade.
        if tag != ANY_TAG && tag < 0 {
            return Err(MpiError::InvalidTag { tag });
        }
        self.check_self_crash()?;
        let spec = MatchSpec::new(
            context,
            (src >= 0).then_some(src as usize),
            (tag != ANY_TAG).then_some(tag),
        );
        // First look at the unexpected queue (arrival order).
        let pos = {
            let _wp = wallprof::span(WpSub::Match);
            obs::count(pvar::PT2PT_MATCH_SCANS, 1);
            wallprof::add(WpCounter::MatchScans, 1);
            let mut full = 0u64;
            let pos = self.unexpected.iter().position(|u| {
                if !spec.prefilter(u.key()) {
                    return false;
                }
                full += 1;
                spec.matches(u.env())
            });
            wallprof::add(WpCounter::MatchComparisons, full);
            pos
        };
        if let Some(pos) = pos {
            let u = self.unexpected.remove(pos);
            obs::count(pvar::PT2PT_UNEXPECTED_HITS, 1);
            obs::gauge_set(pvar::PT2PT_UNEXPECTED_DEPTH, self.unexpected.len() as i64);
            return self.match_unexpected(spec, capacity, u);
        }
        let posted_at = self.clock.now();
        let req = self.alloc_req(ReqState::Recv {
            spec,
            capacity,
            state: RecvState::Posted { posted_at },
        });
        self.posted.push(PostedEntry {
            id: req.0,
            mask: spec.mask,
            key: spec.key,
        });
        Ok(req)
    }

    /// Consume a previously-unmatched message for a newly posted receive.
    fn match_unexpected(
        &mut self,
        spec: MatchSpec,
        capacity: usize,
        u: Unexpected,
    ) -> MpiResult<Request> {
        match u {
            Unexpected::Eager {
                env,
                key: _,
                arrival,
                data,
                stamp,
            } => {
                if data.len() > capacity {
                    return Err(MpiError::Truncated {
                        incoming: data.len(),
                        capacity,
                    });
                }
                let was_unexpected = arrival < self.clock.now();
                Ok(self.alloc_req(ReqState::Recv {
                    spec,
                    capacity,
                    state: RecvState::Ready {
                        env,
                        arrival,
                        data,
                        was_unexpected,
                        stamp,
                    },
                }))
            }
            Unexpected::Rts {
                env,
                key: _,
                arrival,
                sender_req,
                nbytes,
            } => {
                if nbytes > capacity {
                    return Err(MpiError::Truncated {
                        incoming: nbytes,
                        capacity,
                    });
                }
                // The sender has been waiting for us: CTS goes out at
                // max(now, rts arrival) + handling. Offloaded, exactly like
                // the posted-receive path in `handle()` — whether the RTS
                // physically beat the `irecv` call is an OS-scheduling
                // accident, so the two paths must leave the application
                // clock in the same state or intermediate timestamps
                // (e.g. the start of a later wait) become nondeterministic.
                let path = *self.path_to(env.src);
                let t = self.clock.now().max(arrival) + VDur::from_nanos(path.cts_handling_ns);
                let req = self.alloc_req(ReqState::Recv {
                    spec,
                    capacity,
                    state: RecvState::AwaitData { src: env.src },
                });
                // The request must be findable when the payload arrives.
                self.posted.push(PostedEntry {
                    id: req.0,
                    mask: spec.mask,
                    key: spec.key,
                });
                self.inject_reliable(
                    env.src,
                    injection_channel(env.context, env.tag, ChannelClass::Cts),
                    t,
                    path.header_bytes,
                    &path.loggp,
                    Wire::Cts { sender_req },
                )?;
                Ok(req)
            }
        }
    }

    // ------------------------------------------------------------------
    // Progress
    // ------------------------------------------------------------------

    /// Handle one delivery. Control traffic is processed "offloaded" (no
    /// application clock charge); payload timing attaches at consumption.
    ///
    /// With a fault plan active, frames pass admission first: acks are
    /// counted and dropped, corrupt frames are rejected by checksum (the
    /// sender's oracle already retransmitted), duplicates are suppressed
    /// by seq, and every accepted frame is positively acknowledged
    /// out-of-band. Protocol violations that previously aborted the
    /// process surface as [`MpiError::ProtocolError`].
    fn handle(&mut self, d: Delivery<Frame>) -> MpiResult<()> {
        let _wp = wallprof::span(WpSub::Engine);
        wallprof::add(WpCounter::Deliveries, 1);
        // Bin subsequent pvar updates to this delivery's virtual arrival:
        // the telemetry interval an update lands in is then a function of
        // the message, not of real-time mailbox pop order.
        obs::telemetry_tick(d.arrival);
        obs::count(pvar::ENGINE_DELIVERIES, 1);
        let frame = d.msg;
        if self.plan.is_some() {
            let _wr = wallprof::span(WpSub::Reliability);
            if let Wire::Ack { .. } = &*frame.wire {
                // Pure bookkeeping at the original sender; the ack was
                // counted when emitted (the emit count is a deterministic
                // function of accepted frames, the drain count is not).
                return Ok(());
            }
            if frame.checksum != frame_checksum(frame.seq, &frame.wire) {
                obs::count(pvar::FABRIC_CORRUPT_DETECTED, 1);
                return Ok(());
            }
            if !self.seen[d.src].insert(frame.seq) {
                obs::count(pvar::FABRIC_DUPS_SUPPRESSED, 1);
                return Ok(());
            }
            // Positive ack, out-of-band: one latency after the frame
            // landed, without occupying the reverse data port (the RC
            // transport acks from the NIC, not through the send queue).
            let path = *self.path_to(d.src);
            obs::count(pvar::FABRIC_ACKS, 1);
            self.ep.send_oob(
                d.src,
                d.arrival + VDur::from_nanos(path.loggp.latency_ns),
                Frame {
                    seq: 0,
                    checksum: 0,
                    wire: Arc::new(Wire::Ack { seq: frame.seq }),
                },
            );
        }
        // Consume the shared wire: sole owner on the common path, else a
        // clone that shares the payload bytes with the twin still in
        // flight (a duplicate, or the sender's retransmission handle).
        // Either way the receive deposits from the frame's own bytes, so
        // the host copies do not depend on which thread let go first.
        let wire = Arc::try_unwrap(frame.wire).unwrap_or_else(|shared| (*shared).clone());
        match wire {
            Wire::Eager { env, data, stamp } => {
                if let Some((pos, rid)) = self.find_posted(&env) {
                    let Some(ReqState::Recv {
                        capacity, state, ..
                    }) = self.requests.get_mut(&rid)
                    else {
                        unreachable!("posted list holds recv requests");
                    };
                    let RecvState::Posted { posted_at } = *state else {
                        unreachable!("find_posted only returns Posted requests");
                    };
                    // Truncation surfaces at wait(); record ready state.
                    // Whether the message took the unexpected path is a
                    // *virtual-time* predicate (arrival before the receive
                    // was posted), so it cannot depend on OS scheduling.
                    let _ = capacity;
                    *state = RecvState::Ready {
                        env,
                        arrival: d.arrival,
                        data,
                        was_unexpected: d.arrival < posted_at,
                        stamp,
                    };
                    self.posted.remove(pos);
                } else {
                    self.unexpected.push(Unexpected::Eager {
                        env,
                        key: env_key(&env),
                        arrival: d.arrival,
                        data,
                        stamp,
                    });
                    obs::gauge_set(pvar::PT2PT_UNEXPECTED_DEPTH, self.unexpected.len() as i64);
                }
            }
            Wire::Rts {
                env,
                sender_req,
                nbytes,
                stamp: _, // the payload (RndvData) re-carries the stamp
            } => {
                if let Some((_, rid)) = self.find_posted(&env) {
                    // Receive already posted: answer CTS now. Handled as
                    // offloaded progress: timed from the RTS arrival, not
                    // from the application clock.
                    let path = *self.path_to(env.src);
                    let Some(ReqState::Recv {
                        capacity, state, ..
                    }) = self.requests.get_mut(&rid)
                    else {
                        unreachable!("posted list holds recv requests");
                    };
                    let RecvState::Posted { posted_at } = *state else {
                        unreachable!("find_posted only returns Posted requests");
                    };
                    // Offloaded rendezvous: the CTS goes out when both the
                    // RTS has arrived and the receive was posted —
                    // independent of what the CPU happens to be doing.
                    let t = posted_at.max(d.arrival) + VDur::from_nanos(path.cts_handling_ns);
                    let _ = nbytes.min(*capacity); // truncation checked at data arrival
                    *state = RecvState::AwaitData { src: env.src };
                    self.inject_reliable(
                        env.src,
                        injection_channel(env.context, env.tag, ChannelClass::Cts),
                        t,
                        path.header_bytes,
                        &path.loggp,
                        Wire::Cts { sender_req },
                    )?;
                } else {
                    self.unexpected.push(Unexpected::Rts {
                        env,
                        key: env_key(&env),
                        arrival: d.arrival,
                        sender_req,
                        nbytes,
                    });
                    obs::gauge_set(pvar::PT2PT_UNEXPECTED_DEPTH, self.unexpected.len() as i64);
                }
            }
            Wire::Cts { sender_req } => {
                let Some(ReqState::Send(st)) = self.requests.get_mut(&sender_req) else {
                    return Err(MpiError::ProtocolError("CTS for an unknown send request"));
                };
                if !matches!(st, SendState::AwaitCts { .. }) {
                    return Err(MpiError::ProtocolError("CTS for a send not awaiting one"));
                }
                let SendState::AwaitCts {
                    dst,
                    data,
                    env,
                    stamp,
                } = std::mem::replace(
                    st,
                    SendState::RndvDone {
                        complete_at: VTime::ZERO,
                    },
                )
                else {
                    unreachable!("state checked above");
                };
                // Inject the payload. With hardware-offloaded rendezvous
                // (RDMA read/write) the transfer starts when the CTS
                // arrives at the NIC, independent of the CPU.
                let path = *self.path_to(dst);
                let t = d.arrival + path.loggp.o_send();
                let wire = path.header_bytes + data.len();
                let nbytes = data.len();
                let arrival = self.inject_reliable(
                    dst,
                    injection_channel(env.context, env.tag, ChannelClass::RndvData),
                    t,
                    wire,
                    &path.loggp,
                    Wire::RndvData { env, data, stamp },
                )?;
                if obs::tracing_enabled() && arrival > t {
                    obs::span(
                        "xfer",
                        "fabric",
                        t,
                        arrival,
                        vec![
                            ("bytes", obs::ArgValue::U64(nbytes as u64)),
                            ("dst", obs::ArgValue::U64(dst as u64)),
                            ("flow", obs::ArgValue::U64(stamp.flow)),
                        ],
                    );
                }
                let Some(ReqState::Send(st)) = self.requests.get_mut(&sender_req) else {
                    unreachable!();
                };
                *st = SendState::RndvDone { complete_at: t };
            }
            Wire::RndvData { env, data, stamp } => {
                // Find the AwaitData receive matching this source/context.
                let idx = {
                    let _wm = wallprof::span(WpSub::Match);
                    obs::count(pvar::PT2PT_MATCH_SCANS, 1);
                    obs::gauge_set(pvar::PT2PT_MATCH_MAXDEPTH, self.posted.len() as i64);
                    wallprof::add(WpCounter::MatchScans, 1);
                    let ek = env_key(&env);
                    let requests = &self.requests;
                    let mut full = 0u64;
                    let idx = self.posted.iter().position(|p| {
                        if ek & p.mask != p.key {
                            return false;
                        }
                        full += 1;
                        matches!(
                            requests.get(&p.id),
                            Some(ReqState::Recv {
                                spec,
                                state: RecvState::AwaitData { src },
                                ..
                            }) if *src == env.src && spec.matches(&env)
                        )
                    });
                    wallprof::add(WpCounter::MatchComparisons, full);
                    idx
                };
                let Some(pos) = idx else {
                    return Err(MpiError::ProtocolError(
                        "rendezvous data without a matching posted receive",
                    ));
                };
                let rid = self.posted[pos].id;
                let Some(ReqState::Recv { state, .. }) = self.requests.get_mut(&rid) else {
                    unreachable!();
                };
                *state = RecvState::Ready {
                    env,
                    arrival: d.arrival,
                    data,
                    was_unexpected: false,
                    stamp,
                };
                self.posted.remove(pos);
            }
            Wire::Ack { .. } => {
                // Only reachable without a plan (admission consumes acks),
                // i.e. never — no plan means no acks are ever emitted.
                return Err(MpiError::ProtocolError("ack frame without a fault plan"));
            }
            wire @ (Wire::Put { .. } | Wire::GetReq { .. } | Wire::Acc { .. }) => {
                // One-sided traffic: gate on the window's access epoch.
                // Frames from an epoch this rank has not opened yet are
                // parked and replayed (in virtual-arrival order) when the
                // epoch advances — real-time races between an origin that
                // left a fence early and a slower target cannot leak
                // next-epoch deposits into the current one.
                let (win, epoch) = match &wire {
                    Wire::Put { win, epoch, .. }
                    | Wire::GetReq { win, epoch, .. }
                    | Wire::Acc { win, epoch, .. } => (*win, *epoch),
                    _ => unreachable!("matched one-sided variants above"),
                };
                let Some(w) = self.windows.get_mut(&win) else {
                    return Err(MpiError::ProtocolError(
                        "one-sided frame for an unknown window",
                    ));
                };
                if epoch > w.epoch {
                    w.deferred.push(DeferredRma {
                        src: d.src,
                        arrival: d.arrival,
                        wire,
                    });
                    obs::count(pvar::RMA_EPOCH_DEFERRED, 1);
                } else {
                    self.apply_one_sided(d.src, d.arrival, wire)?;
                }
            }

            Wire::GetReply { req, data, stamp } => match self.requests.get_mut(&req) {
                Some(ReqState::RmaGet { state, .. }) if state.is_none() => {
                    if obs::tracing_enabled() {
                        obs::flow(
                            "msg",
                            "flow",
                            d.arrival,
                            obs::FlowDir::End,
                            stamp.flow,
                            vec![("src", obs::ArgValue::U64(d.src as u64))],
                        );
                    }
                    *state = Some((data, d.arrival));
                }
                _ => {
                    return Err(MpiError::ProtocolError(
                        "one-sided reply for an unknown get request",
                    ))
                }
            },
        }
        Ok(())
    }

    /// Find the oldest posted receive in `Posted` state matching `env`,
    /// returning its position in the posted list and its request id. The
    /// caller removes the entry once the request leaves `Posted`.
    fn find_posted(&mut self, env: &Envelope) -> Option<(usize, u64)> {
        let _wp = wallprof::span(WpSub::Match);
        // Scan count and queue depth are structural (one scan per accepted
        // message; depth = receives the app had outstanding), so they are
        // safe as pvars; comparison counts depend on the packed pre-filter
        // and stay wall-side only.
        obs::count(pvar::PT2PT_MATCH_SCANS, 1);
        obs::gauge_set(pvar::PT2PT_MATCH_MAXDEPTH, self.posted.len() as i64);
        wallprof::add(WpCounter::MatchScans, 1);
        let ek = env_key(env);
        let requests = &self.requests;
        let mut full = 0u64;
        let idx = self.posted.iter().position(|p| {
            if ek & p.mask != p.key {
                return false;
            }
            full += 1;
            matches!(
                requests.get(&p.id),
                Some(ReqState::Recv {
                    spec,
                    state: RecvState::Posted { .. },
                    ..
                }) if spec.matches(env)
            )
        });
        wallprof::add(WpCounter::MatchComparisons, full);
        idx.map(|i| (i, self.posted[i].id))
    }

    fn is_complete(&self, req: Request) -> bool {
        matches!(
            self.requests.get(&req.0),
            Some(ReqState::Send(SendState::EagerDone { .. }))
                | Some(ReqState::Send(SendState::RndvDone { .. }))
                | Some(ReqState::Recv {
                    state: RecvState::Ready { .. },
                    ..
                })
                | Some(ReqState::RmaGet { state: Some(_), .. })
        )
    }

    /// Whether `req` is complete (delivery-wise) without consuming it.
    /// Like MPI_Request_get_status; progression must be driven separately
    /// ([`Engine::poll`] / [`Engine::block_for_delivery`]).
    pub fn is_done(&self, req: Request) -> bool {
        self.is_complete(req)
    }

    /// Whether `req` is still live (posted and not yet consumed).
    pub fn has_request(&self, req: Request) -> bool {
        self.requests.contains_key(&req.0)
    }

    /// Virtual completion instant of a *complete* request: the send's
    /// local completion or the receive's payload arrival. `None` while the
    /// request is still in flight. Used to consume a set of completed
    /// requests in virtual-arrival order (deterministic and
    /// progression-optimal) instead of posting order.
    pub fn completion_time(&self, req: Request) -> Option<VTime> {
        match self.requests.get(&req.0) {
            Some(ReqState::Send(SendState::EagerDone { complete_at }))
            | Some(ReqState::Send(SendState::RndvDone { complete_at })) => Some(*complete_at),
            Some(ReqState::Recv {
                state: RecvState::Ready { arrival, .. },
                ..
            })
            | Some(ReqState::RmaGet {
                state: Some((_, arrival)),
                ..
            }) => Some(*arrival),
            _ => None,
        }
    }

    /// Drain every delivery the fabric has ready, without blocking and
    /// without touching the application clock (payload costs attach when
    /// a request is consumed).
    pub fn poll(&mut self) -> MpiResult<()> {
        self.check_self_crash()?;
        while let Some(d) = self.ep.try_recv() {
            self.handle(d)?;
        }
        Ok(())
    }

    /// Block for exactly one fabric delivery and process it. The crash
    /// watchdog applies, so a dead peer surfaces as [`MpiError::RankFailed`]
    /// instead of a hang. Callers loop on this to make blocking progress
    /// for request sets the single-request [`Engine::wait`] cannot express
    /// (waitall, collective schedules).
    pub fn block_for_delivery(&mut self) -> MpiResult<()> {
        self.check_self_crash()?;
        let d = self.recv_progress()?;
        self.handle(d)
    }

    /// Consume `req` if it is already complete (charging its consumption
    /// costs), without driving progression. `Ok(None)` while in flight.
    pub fn try_complete(&mut self, req: Request) -> MpiResult<Option<Completion>> {
        if !self.requests.contains_key(&req.0) {
            return Err(MpiError::InvalidRequest);
        }
        if self.is_complete(req) {
            self.finish(req).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Run `f` with the engine's clock swapped for a detached timeline
    /// positioned at `t`; restores the rank clock afterwards and returns
    /// `f`'s result plus where the timeline advanced to. This is how
    /// self-timed (offloaded) progression reuses every engine primitive —
    /// sends, receives, completions — while charging their costs to the
    /// schedule's own timeline instead of the application clock.
    pub fn with_timeline<R>(&mut self, t: VTime, f: impl FnOnce(&mut Engine) -> R) -> (R, VTime) {
        let detached = self.clock.fork_at(t);
        let saved = std::mem::replace(&mut self.clock, detached);
        let out = f(self);
        let advanced = self.clock.now();
        self.clock = saved;
        (out, advanced)
    }

    /// Block until `req` completes; consume it and charge its costs.
    pub fn wait(&mut self, req: Request) -> MpiResult<Completion> {
        if !self.requests.contains_key(&req.0) {
            return Err(MpiError::InvalidRequest);
        }
        self.check_self_crash()?;
        let wait_begin = self.clock.now();
        while !self.is_complete(req) {
            let d = self.recv_progress()?;
            self.handle(d)?;
        }
        let c = self.finish(req)?;
        // Re-anchor the sampler on the application clock: pvars counted
        // by the caller after this wait bin to the post-wait instant.
        obs::telemetry_tick(self.clock.now());
        obs::span(
            "mpi.wait",
            "pt2pt",
            wait_begin,
            self.clock.now(),
            Vec::new(),
        );
        Ok(c)
    }

    /// Non-blocking completion check. Drains any pending deliveries, then
    /// returns the completion if `req` is done.
    pub fn test(&mut self, req: Request) -> MpiResult<Option<Completion>> {
        if !self.requests.contains_key(&req.0) {
            return Err(MpiError::InvalidRequest);
        }
        self.check_self_crash()?;
        while let Some(d) = self.ep.try_recv() {
            self.handle(d)?;
        }
        if self.is_complete(req) {
            self.finish(req).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Consume a completed request: charge consumption costs, advance the
    /// clock, and return the payload.
    fn finish(&mut self, req: Request) -> MpiResult<Completion> {
        let state = self
            .requests
            .remove(&req.0)
            .ok_or(MpiError::InvalidRequest)?;
        match state {
            ReqState::Send(SendState::EagerDone { complete_at })
            | ReqState::Send(SendState::RndvDone { complete_at }) => {
                self.clock.merge(complete_at);
                Ok(Completion {
                    data: Payload::default(),
                    status: Status {
                        source: self.rank(),
                        tag: 0,
                        bytes: 0,
                    },
                })
            }
            ReqState::Send(SendState::AwaitCts { .. }) => {
                unreachable!("wait loop returned before send completion")
            }
            ReqState::Recv {
                capacity,
                state:
                    RecvState::Ready {
                        env,
                        arrival,
                        data,
                        was_unexpected,
                        stamp,
                    },
                ..
            } => {
                if data.len() > capacity {
                    return Err(MpiError::Truncated {
                        incoming: data.len(),
                        capacity,
                    });
                }
                let path = *self.path_to(env.src);
                self.clock.merge(arrival);
                self.clock.charge(path.loggp.o_recv());
                if data.len() <= path.eager_threshold {
                    // Eager copy-out of the bounce buffer.
                    self.clock.charge(path.recv_copy(data.len()));
                    if was_unexpected {
                        self.clock.charge(path.unexpected_extra(data.len()));
                    }
                }
                if obs::tracing_enabled() {
                    obs::instant(
                        "recv",
                        "pt2pt",
                        self.clock.now(),
                        vec![
                            ("src", obs::ArgValue::U64(env.src as u64)),
                            ("tag", obs::ArgValue::I64(env.tag as i64)),
                            ("bytes", obs::ArgValue::U64(data.len() as u64)),
                            ("unexpected", obs::ArgValue::Bool(was_unexpected)),
                            ("flow", obs::ArgValue::U64(stamp.flow)),
                            ("coll", obs::ArgValue::U64(stamp.coll)),
                        ],
                    );
                    obs::flow(
                        "msg",
                        "flow",
                        self.clock.now(),
                        obs::FlowDir::End,
                        stamp.flow,
                        vec![
                            ("src", obs::ArgValue::U64(env.src as u64)),
                            ("coll", obs::ArgValue::U64(stamp.coll)),
                        ],
                    );
                }
                Ok(Completion {
                    data,
                    status: Status {
                        source: env.src,
                        tag: env.tag,
                        bytes: 0, // filled by caller from data.len()
                    },
                })
            }
            ReqState::Recv { .. } => unreachable!("wait loop returned before recv completion"),
            ReqState::RmaGet {
                target,
                state: Some((data, arrival)),
            } => {
                // RDMA read completion: the reply was DMA'd into origin
                // memory, so consumption costs only the completion check —
                // no per-byte copy.
                let path = *self.path_to(target);
                self.clock.merge(arrival);
                self.clock.charge(path.loggp.o_recv());
                Ok(Completion {
                    data,
                    status: Status {
                        source: target,
                        tag: 0,
                        bytes: 0, // filled by caller from data.len()
                    },
                })
            }
            ReqState::RmaGet { state: None, .. } => {
                unreachable!("wait loop returned before get completion")
            }
        }
    }

    // ------------------------------------------------------------------
    // One-sided (RMA) operations
    // ------------------------------------------------------------------

    /// Path parameters towards `dst`. Facade layers read protocol
    /// thresholds and registration costs from here.
    #[inline]
    pub fn path_params(&self, dst: usize) -> &PathParams {
        self.path_to(dst)
    }

    /// Apply one one-sided frame to this rank's window state: deposit a
    /// put, combine an accumulate, or serve a get reply. `src`/`arrival`
    /// come from the frame's fabric delivery; timing is offloaded (no
    /// application clock charge — the target CPU is not involved).
    fn apply_one_sided(&mut self, src: usize, arrival: VTime, wire: Wire) -> MpiResult<()> {
        match wire {
            Wire::Put {
                win,
                epoch: _,
                offset,
                data,
                stamp,
            } => {
                // RDMA write: deposit into exposed window memory. No tag
                // matching, no posted receive.
                let Some(w) = self.windows.get_mut(&win) else {
                    return Err(MpiError::ProtocolError(
                        "one-sided put to an unknown window",
                    ));
                };
                let end = offset
                    .checked_add(data.len())
                    .filter(|&e| e <= w.mem.len())
                    .ok_or(MpiError::ProtocolError("one-sided put outside the window"))?;
                w.mem.make_mut()[offset..end].copy_from_slice(&data);
                w.record_deposit(offset..end);
                wallprof::add(WpCounter::CopyBytes, data.len() as u64);
                obs::count(pvar::RMA_PUT_APPLIED, 1);
                if obs::tracing_enabled() {
                    obs::flow(
                        "msg",
                        "flow",
                        arrival,
                        obs::FlowDir::End,
                        stamp.flow,
                        vec![("src", obs::ArgValue::U64(src as u64))],
                    );
                }
            }
            Wire::GetReq {
                win,
                epoch: _,
                offset,
                nbytes,
                origin,
                req,
                stamp,
            } => {
                // RDMA read: the target NIC serves the reply out of window
                // memory, timed from the request's arrival — the target
                // application clock is never touched.
                let data = {
                    let Some(w) = self.windows.get(&win) else {
                        return Err(MpiError::ProtocolError(
                            "one-sided get from an unknown window",
                        ));
                    };
                    let end = offset
                        .checked_add(nbytes)
                        .filter(|&e| e <= w.mem.len())
                        .ok_or(MpiError::ProtocolError("one-sided get outside the window"))?;
                    Payload::copy_from(&w.mem[offset..end])
                };
                wallprof::add(WpCounter::Allocs, 1); // reply payload capture above
                wallprof::add(WpCounter::CopyBytes, nbytes as u64);
                let path = *self.path_to(origin);
                let t = arrival + path.loggp.o_send();
                let wire_bytes = path.header_bytes + nbytes;
                let reply_arrival = self.inject_reliable(
                    origin,
                    one_sided_channel(win, OneSidedClass::Reply),
                    t,
                    wire_bytes,
                    &path.loggp,
                    Wire::GetReply { req, data, stamp },
                )?;
                if obs::tracing_enabled() && reply_arrival > t {
                    obs::span(
                        "xfer",
                        "fabric",
                        t,
                        reply_arrival,
                        vec![
                            ("bytes", obs::ArgValue::U64(nbytes as u64)),
                            ("dst", obs::ArgValue::U64(origin as u64)),
                            ("flow", obs::ArgValue::U64(stamp.flow)),
                        ],
                    );
                }
            }
            Wire::Acc {
                win,
                epoch: _,
                offset,
                op,
                data,
                stamp,
            } => {
                // Like Put, but combining instead of overwriting. Epochs
                // restrict concurrent accumulates to commutative
                // well-definedness (MPI semantics).
                let Some(w) = self.windows.get_mut(&win) else {
                    return Err(MpiError::ProtocolError(
                        "one-sided accumulate to an unknown window",
                    ));
                };
                let end = offset
                    .checked_add(data.len())
                    .filter(|&e| e <= w.mem.len())
                    .ok_or(MpiError::ProtocolError(
                        "one-sided accumulate outside the window",
                    ))?;
                let mem = &mut w.mem.make_mut()[offset..end];
                crate::op::apply(op, &crate::datatype::INT, mem, &data)?;
                w.record_deposit(offset..end);
                wallprof::add(WpCounter::CopyBytes, data.len() as u64);
                obs::count(pvar::RMA_ACC_APPLIED, 1);
                if obs::tracing_enabled() {
                    obs::flow(
                        "msg",
                        "flow",
                        arrival,
                        obs::FlowDir::End,
                        stamp.flow,
                        vec![("src", obs::ArgValue::U64(src as u64))],
                    );
                }
            }
            _ => unreachable!("only one-sided frames reach apply_one_sided"),
        }
        Ok(())
    }

    /// Replay deferred one-sided frames for `win`: deposits (put /
    /// accumulate) stamped at or before `deposit_horizon`, plus reads
    /// stamped at or before the window's current epoch, in virtual-arrival
    /// order (source rank breaks ties) — a deterministic order however the
    /// frames raced in real time.
    fn run_deferred(&mut self, win: u32, deposit_horizon: u64) -> MpiResult<()> {
        let Some(w) = self.windows.get_mut(&win) else {
            return Err(MpiError::ProtocolError("replaying an unknown window"));
        };
        let read_horizon = w.epoch;
        let mut ready = Vec::new();
        let mut parked = Vec::new();
        for d in w.deferred.drain(..) {
            let horizon = if d.is_get() {
                read_horizon
            } else {
                deposit_horizon
            };
            if d.epoch() <= horizon {
                ready.push(d);
            } else {
                parked.push(d);
            }
        }
        w.deferred = parked;
        // Stable sort: same-source frames keep their per-link FIFO order.
        ready.sort_by(|a, b| {
            a.arrival
                .as_nanos()
                .partial_cmp(&b.arrival.as_nanos())
                .expect("virtual times are finite")
                .then(a.src.cmp(&b.src))
        });
        for d in ready {
            self.apply_one_sided(d.src, d.arrival, d.wire)?;
        }
        Ok(())
    }

    /// Close the window's current access epoch and open the next
    /// (the target half of MPI_Win_fence). Applies every deferred deposit
    /// stamped with the closing epoch or earlier — making exactly the
    /// closed epoch's one-sided traffic visible — and serves deferred
    /// reads up to the newly opened epoch (an origin that left the shared
    /// barrier early may already have issued next-epoch gets; parking them
    /// past this point would deadlock its epoch-closing flush against our
    /// fence).
    pub fn win_epoch_advance(&mut self, win: u32) -> MpiResult<()> {
        let Some(w) = self.windows.get_mut(&win) else {
            return Err(MpiError::ProtocolError("advancing an unknown window"));
        };
        let closing = w.epoch;
        w.epoch = closing + 1;
        self.run_deferred(win, closing)
    }

    /// Apply every deferred frame stamped with the current epoch or
    /// earlier, without advancing (the target half of MPI_Win_sync):
    /// passive-target deposits that raced ahead of this rank's last fence
    /// become visible at its next local synchronization.
    pub fn win_deliver_current(&mut self, win: u32) -> MpiResult<()> {
        let Some(w) = self.windows.get(&win) else {
            return Err(MpiError::ProtocolError("syncing an unknown window"));
        };
        let horizon = w.epoch;
        self.run_deferred(win, horizon)
    }

    /// Expose `size` bytes of zero-initialized window memory under `win`.
    /// The id must be agreed across ranks (the facade reuses the
    /// context-agreement collective); exposure is local — callers
    /// synchronize before targeting the window.
    pub fn win_create(&mut self, win: u32, size: usize) -> MpiResult<()> {
        let state = WinMem {
            mem: Payload::zeroed(size),
            deposited: Vec::new(),
            epoch: 0,
            deferred: Vec::new(),
        };
        if self.windows.insert(win, state).is_some() {
            return Err(MpiError::ProtocolError("window id created twice"));
        }
        // Window memory is a one-time setup allocation, not per-message
        // work; charging it to `Allocs` would pollute the allocs/msg
        // metric every RMA benchmark is gated on.
        Ok(())
    }

    /// Tear down window `win`'s exposed memory.
    pub fn win_free(&mut self, win: u32) -> MpiResult<()> {
        self.windows
            .remove(&win)
            .map(|_| ())
            .ok_or(MpiError::ProtocolError("freeing an unknown window"))
    }

    /// Read this rank's exposed window memory (the NIC view the fabric
    /// deposits into), lent beside the rank's clock so the caller can
    /// charge a copy straight out of it. Zero virtual cost itself: local
    /// loads from pinned memory.
    pub fn win_mem(&mut self, win: u32) -> MpiResult<(&[u8], &mut Clock)> {
        let w = self
            .windows
            .get(&win)
            .ok_or(MpiError::ProtocolError("reading an unknown window"))?;
        Ok((&w.mem[..], &mut self.clock))
    }

    /// Copy the owner's `image` of window `win` into its memory, except
    /// the bytes remote deposits wrote since [`Engine::win_mark_synced`]:
    /// a local store never overwrites a deposit.
    pub fn win_publish(&mut self, win: u32, image: &[u8]) -> MpiResult<()> {
        let w = self
            .windows
            .get_mut(&win)
            .ok_or(MpiError::ProtocolError("writing an unknown window"))?;
        let n = w.mem.len().min(image.len());
        let mem = w.mem.make_mut();
        w.deposited.sort_unstable_by_key(|r| r.start);
        // Copy the gaps between deposits (which may overlap), then the
        // tail after the last one.
        let (mut at, mut copied) = (0, 0);
        for r in w.deposited.iter().cloned().chain(std::iter::once(n..n)) {
            let end = r.start.min(n);
            if at < end {
                mem[at..end].copy_from_slice(&image[at..end]);
                copied += end - at;
            }
            at = at.max(r.end);
        }
        wallprof::add(WpCounter::CopyBytes, copied as u64);
        Ok(())
    }

    /// Forget window `win`'s recorded deposits: the owner's user storage
    /// now mirrors its memory.
    pub fn win_mark_synced(&mut self, win: u32) -> MpiResult<()> {
        self.windows
            .get_mut(&win)
            .map(|w| w.deposited.clear())
            .ok_or(MpiError::ProtocolError("syncing an unknown window"))
    }

    /// The access epoch this rank currently has open on `win` (stamped
    /// into every outbound one-sided frame so targets can gate
    /// application on their own epoch progress).
    fn win_epoch(&self, win: u32) -> MpiResult<u64> {
        self.windows
            .get(&win)
            .map(|w| w.epoch)
            .ok_or(MpiError::ProtocolError(
                "one-sided operation without the window",
            ))
    }

    /// One-sided put: RDMA-write `data` into `dst`'s window `win` at byte
    /// `offset`. Returns the deposit's virtual arrival at the target; the
    /// origin completes locally (fire-and-forget until the epoch closes).
    ///
    /// Payloads at or below the path's RMA eager threshold go through a
    /// pre-registered bounce buffer (per-byte copy charge); larger ones
    /// move zero-copy out of registered user memory — the facade charges
    /// registration via its cache before calling here.
    pub fn rma_put(
        &mut self,
        dst: usize,
        win: u32,
        offset: usize,
        data: &[u8],
    ) -> MpiResult<VTime> {
        self.check_rma_target(dst)?;
        let epoch = self.win_epoch(win)?;
        wallprof::add(WpCounter::Messages, 1);
        wallprof::add(WpCounter::Allocs, 1); // payload capture into the wire frame
        wallprof::add(WpCounter::CopyBytes, data.len() as u64);
        let path = *self.path_to(dst);
        if data.len() <= path.rma_eager_threshold {
            self.clock.charge(path.eager_copy(data.len()));
            obs::count(pvar::RMA_PUT_EAGER, 1);
        } else {
            obs::count(pvar::RMA_PUT_ZCOPY, 1);
        }
        self.clock.charge(path.loggp.o_send());
        let stamp = FlowStamp {
            flow: self.alloc_flow(),
            coll: 0,
        };
        let inject_at = self.clock.now();
        let wire_bytes = path.header_bytes + data.len();
        let arrival = self.inject_reliable(
            dst,
            one_sided_channel(win, OneSidedClass::Data),
            inject_at,
            wire_bytes,
            &path.loggp,
            Wire::Put {
                win,
                epoch,
                offset,
                data: Payload::copy_from(data),
                stamp,
            },
        )?;
        obs::count(pvar::RMA_PUT_MSGS, 1);
        obs::count(pvar::RMA_PUT_BYTES, data.len() as u64);
        if obs::tracing_enabled() {
            self.trace_rma("rma.put", dst, data.len(), stamp, inject_at, arrival);
        }
        Ok(arrival)
    }

    /// One-sided accumulate: combine `data` into `dst`'s window with `op`
    /// (32-bit integer lanes). Always staged through the bounce buffer —
    /// the operand must be packed for the target-side ALU pass — so the
    /// per-byte copy is charged regardless of size.
    pub fn rma_accumulate(
        &mut self,
        dst: usize,
        win: u32,
        offset: usize,
        op: ReduceOp,
        data: &[u8],
    ) -> MpiResult<VTime> {
        self.check_rma_target(dst)?;
        if !data.len().is_multiple_of(4) {
            return Err(MpiError::ProtocolError(
                "accumulate payloads must be whole 32-bit lanes",
            ));
        }
        let epoch = self.win_epoch(win)?;
        wallprof::add(WpCounter::Messages, 1);
        wallprof::add(WpCounter::Allocs, 1); // payload capture into the wire frame
        wallprof::add(WpCounter::CopyBytes, data.len() as u64);
        let path = *self.path_to(dst);
        self.clock.charge(path.eager_copy(data.len()));
        self.clock.charge(path.loggp.o_send());
        let stamp = FlowStamp {
            flow: self.alloc_flow(),
            coll: 0,
        };
        let inject_at = self.clock.now();
        let wire_bytes = path.header_bytes + data.len();
        let arrival = self.inject_reliable(
            dst,
            one_sided_channel(win, OneSidedClass::Data),
            inject_at,
            wire_bytes,
            &path.loggp,
            Wire::Acc {
                win,
                epoch,
                offset,
                op,
                data: Payload::copy_from(data),
                stamp,
            },
        )?;
        obs::count(pvar::RMA_ACC_MSGS, 1);
        obs::count(pvar::RMA_ACC_BYTES, data.len() as u64);
        if obs::tracing_enabled() {
            self.trace_rma("rma.acc", dst, data.len(), stamp, inject_at, arrival);
        }
        Ok(arrival)
    }

    /// One-sided get: request `nbytes` from `dst`'s window; returns a
    /// request that completes when the RDMA-read reply lands in origin
    /// memory. Waited like any other request (epoch close does this).
    pub fn rma_get(
        &mut self,
        dst: usize,
        win: u32,
        offset: usize,
        nbytes: usize,
    ) -> MpiResult<Request> {
        self.check_rma_target(dst)?;
        let epoch = self.win_epoch(win)?;
        wallprof::add(WpCounter::Messages, 1);
        let path = *self.path_to(dst);
        self.clock.charge(path.loggp.o_send());
        let stamp = FlowStamp {
            flow: self.alloc_flow(),
            coll: 0,
        };
        let inject_at = self.clock.now();
        let req = self.alloc_req(ReqState::RmaGet {
            target: dst,
            state: None,
        });
        let Request(id) = req;
        if let Err(e) = self.inject_reliable(
            dst,
            one_sided_channel(win, OneSidedClass::Data),
            inject_at,
            path.header_bytes,
            &path.loggp,
            Wire::GetReq {
                win,
                epoch,
                offset,
                nbytes,
                origin: self.rank(),
                req: id,
                stamp,
            },
        ) {
            self.requests.remove(&id);
            return Err(e);
        }
        obs::count(pvar::RMA_GET_MSGS, 1);
        obs::count(pvar::RMA_GET_BYTES, nbytes as u64);
        if obs::tracing_enabled() {
            self.trace_rma("rma.get", dst, nbytes, stamp, inject_at, inject_at);
        }
        Ok(req)
    }

    /// Passive-target control round trip (lock acquire/release): one
    /// NIC-level atomic to `target`, charged entirely at the origin. The
    /// target CPU is never involved, so no wire message is exchanged and
    /// the exchange cannot deadlock against program order. Lock
    /// *contention* is deliberately not modeled (see DESIGN.md).
    pub fn rma_control_roundtrip(&mut self, target: usize) -> MpiResult<()> {
        self.check_rma_target(target)?;
        let path = *self.path_to(target);
        self.clock.charge(path.loggp.o_send());
        let reply_at =
            self.clock.now() + VDur::from_nanos(2.0 * path.loggp.latency_ns + path.cts_handling_ns);
        self.clock.merge(reply_at);
        self.clock.charge(path.loggp.o_recv());
        Ok(())
    }

    fn check_rma_target(&self, dst: usize) -> MpiResult<()> {
        if dst >= self.world_size() {
            return Err(MpiError::InvalidRank {
                rank: dst as i32,
                comm_size: self.world_size(),
            });
        }
        self.check_self_crash()
    }

    /// Trace one one-sided origination: instant + flow-begin + (when the
    /// wire took time) the origin-side fabric span. Reads clocks only.
    fn trace_rma(
        &self,
        name: &'static str,
        dst: usize,
        bytes: usize,
        stamp: FlowStamp,
        inject_at: VTime,
        arrival: VTime,
    ) {
        obs::instant(
            name,
            "rma",
            inject_at,
            vec![
                ("dst", obs::ArgValue::U64(dst as u64)),
                ("bytes", obs::ArgValue::U64(bytes as u64)),
                ("flow", obs::ArgValue::U64(stamp.flow)),
            ],
        );
        obs::flow(
            "msg",
            "flow",
            inject_at,
            obs::FlowDir::Begin,
            stamp.flow,
            vec![
                ("bytes", obs::ArgValue::U64(bytes as u64)),
                ("dst", obs::ArgValue::U64(dst as u64)),
            ],
        );
        if arrival > inject_at {
            obs::span(
                "xfer",
                "fabric",
                inject_at,
                arrival,
                vec![
                    ("bytes", obs::ArgValue::U64(bytes as u64)),
                    ("dst", obs::ArgValue::U64(dst as u64)),
                    ("flow", obs::ArgValue::U64(stamp.flow)),
                ],
            );
        }
    }

    // ------------------------------------------------------------------
    // Blocking conveniences
    // ------------------------------------------------------------------

    /// Blocking send.
    pub fn send_bytes(&mut self, data: &[u8], dst: usize, tag: i32, context: u32) -> MpiResult<()> {
        let r = self.isend_bytes(data, dst, tag, context)?;
        self.wait(r).map(|_| ())
    }

    /// Blocking receive; returns the payload and its status.
    pub fn recv_bytes(
        &mut self,
        capacity: usize,
        src: i32,
        tag: i32,
        context: u32,
    ) -> MpiResult<(Payload, Status)> {
        let r = self.irecv_bytes(capacity, src, tag, context)?;
        let c = self.wait(r)?;
        let bytes = c.data.len();
        Ok((c.data, Status { bytes, ..c.status }))
    }

    /// Fabric-level injection counters (for tests/ablations).
    pub fn fabric_stats(&self) -> simfabric::SendStats {
        self.ep.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;
    use simfabric::{run_cluster, Topology};

    fn run2<R: Send>(f: impl Fn(&mut Engine) -> R + Sync) -> Vec<R> {
        run_cluster(Topology::new(2, 1), |ep| {
            let mut e = Engine::new(ep, Profile::mvapich2());
            f(&mut e)
        })
    }

    #[test]
    fn wire_stays_eight_words() {
        // Every frame and deferred one-sided message holds a `Wire`; a
        // payload handle must fit beside the largest variant's header
        // fields without growing it.
        assert!(std::mem::size_of::<Wire>() <= 64);
    }

    #[test]
    fn eager_roundtrip() {
        let data: Vec<u8> = (0..64).collect();
        let expect = data.clone();
        run2(move |e| {
            if e.rank() == 0 {
                e.send_bytes(&data, 1, 7, 0).unwrap();
            } else {
                let (got, st) = e.recv_bytes(1024, 0, 7, 0).unwrap();
                assert_eq!(&got[..], &expect[..]);
                assert_eq!(st.source, 0);
                assert_eq!(st.tag, 7);
                assert_eq!(st.bytes, 64);
                assert!(e.now() > VTime::ZERO);
            }
        });
    }

    #[test]
    fn rendezvous_roundtrip() {
        // Force rendezvous by exceeding every eager threshold.
        let n = 1 << 20;
        run2(move |e| {
            if e.rank() == 0 {
                let data = vec![0xA5u8; n];
                e.send_bytes(&data, 1, 0, 0).unwrap();
            } else {
                let (got, st) = e.recv_bytes(n, 0, 0, 0).unwrap();
                assert_eq!(got.len(), n);
                assert!(got.iter().all(|&b| b == 0xA5));
                assert_eq!(st.bytes, n);
            }
        });
    }

    #[test]
    fn unexpected_message_is_matched_later() {
        run2(|e| {
            if e.rank() == 0 {
                e.send_bytes(&[1, 2, 3], 1, 5, 0).unwrap();
                e.send_bytes(&[9], 1, 6, 0).unwrap();
            } else {
                // Receive the *second* message first: the first lands in
                // the unexpected queue, then is matched by the later recv.
                let (b, _) = e.recv_bytes(16, 0, 6, 0).unwrap();
                assert_eq!(&b[..], &[9]);
                let (a, _) = e.recv_bytes(16, 0, 5, 0).unwrap();
                assert_eq!(&a[..], &[1, 2, 3]);
            }
        });
    }

    #[test]
    fn tag_and_source_wildcards() {
        run2(|e| {
            if e.rank() == 0 {
                e.send_bytes(&[42], 1, 17, 0).unwrap();
            } else {
                let (b, st) = e.recv_bytes(8, ANY_SOURCE, ANY_TAG, 0).unwrap();
                assert_eq!(&b[..], &[42]);
                assert_eq!(st.source, 0);
                assert_eq!(st.tag, 17);
            }
        });
    }

    #[test]
    fn non_overtaking_same_tag() {
        run2(|e| {
            if e.rank() == 0 {
                for i in 0..10u8 {
                    e.send_bytes(&[i], 1, 3, 0).unwrap();
                }
            } else {
                for i in 0..10u8 {
                    let (b, _) = e.recv_bytes(8, 0, 3, 0).unwrap();
                    assert_eq!(b[0], i, "messages must not overtake");
                }
            }
        });
    }

    #[test]
    fn truncation_error_eager() {
        run2(|e| {
            if e.rank() == 0 {
                e.send_bytes(&[0u8; 100], 1, 0, 0).unwrap();
            } else {
                let err = e.recv_bytes(10, 0, 0, 0).unwrap_err();
                assert!(matches!(
                    err,
                    MpiError::Truncated {
                        incoming: 100,
                        capacity: 10
                    }
                ));
            }
        });
    }

    #[test]
    fn nonblocking_overlap() {
        run2(|e| {
            if e.rank() == 0 {
                let r1 = e.isend_bytes(&[1], 1, 1, 0).unwrap();
                let r2 = e.isend_bytes(&[2], 1, 2, 0).unwrap();
                e.wait(r1).unwrap();
                e.wait(r2).unwrap();
            } else {
                let r2 = e.irecv_bytes(8, 0, 2, 0).unwrap();
                let r1 = e.irecv_bytes(8, 0, 1, 0).unwrap();
                let c2 = e.wait(r2).unwrap();
                let c1 = e.wait(r1).unwrap();
                assert_eq!(&c1.data[..], &[1]);
                assert_eq!(&c2.data[..], &[2]);
            }
        });
    }

    #[test]
    fn test_polls_without_blocking() {
        run2(|e| {
            if e.rank() == 0 {
                // Wait until rank 1 signals, then send.
                let (_, _) = e.recv_bytes(1, 1, 9, 0).unwrap();
                e.send_bytes(&[7], 1, 0, 0).unwrap();
            } else {
                let r = e.irecv_bytes(8, 0, 0, 0).unwrap();
                assert!(e.test(r).unwrap().is_none(), "nothing sent yet");
                e.send_bytes(&[], 0, 9, 0).unwrap();
                // Spin on test until completion.
                let c = loop {
                    if let Some(c) = e.test(r).unwrap() {
                        break c;
                    }
                    std::thread::yield_now();
                };
                assert_eq!(&c.data[..], &[7]);
            }
        });
    }

    #[test]
    fn wait_on_consumed_request_errors() {
        run2(|e| {
            if e.rank() == 0 {
                let r = e.isend_bytes(&[1], 1, 0, 0).unwrap();
                e.wait(r).unwrap();
                assert!(matches!(e.wait(r), Err(MpiError::InvalidRequest)));
            } else {
                let _ = e.recv_bytes(8, 0, 0, 0).unwrap();
            }
        });
    }

    #[test]
    fn invalid_rank_rejected() {
        run2(|e| {
            assert!(matches!(
                e.isend_bytes(&[1], 99, 0, 0),
                Err(MpiError::InvalidRank { .. })
            ));
        });
    }

    #[test]
    fn rendezvous_sender_blocks_until_recv_posted() {
        // Timing property: sender completion time must be at least one
        // round trip after the receiver posts.
        let n = 1 << 20;
        let times = run2(move |e| {
            if e.rank() == 0 {
                let data = vec![1u8; n];
                e.send_bytes(&data, 1, 0, 0).unwrap();
                e.now().as_nanos()
            } else {
                // Delay posting the receive by 1 ms of virtual compute.
                e.clock_mut().charge(VDur::from_micros(1000.0));
                let _ = e.recv_bytes(n, 0, 0, 0).unwrap();
                e.now().as_nanos()
            }
        });
        assert!(
            times[0] > 1_000_000.0,
            "sender should not complete before receiver posted (got {}ns)",
            times[0]
        );
    }

    #[test]
    fn eager_sender_does_not_block() {
        let times = run2(|e| {
            if e.rank() == 0 {
                e.send_bytes(&[0u8; 16], 1, 0, 0).unwrap();
                e.now().as_nanos()
            } else {
                e.clock_mut().charge(VDur::from_micros(1000.0));
                let _ = e.recv_bytes(16, 0, 0, 0).unwrap();
                e.now().as_nanos()
            }
        });
        assert!(
            times[0] < 10_000.0,
            "eager sender must complete locally (got {}ns)",
            times[0]
        );
    }

    #[test]
    fn contexts_isolate_traffic() {
        run2(|e| {
            if e.rank() == 0 {
                e.send_bytes(&[1], 1, 0, 42).unwrap();
                e.send_bytes(&[2], 1, 0, 43).unwrap();
            } else {
                // Same tag, different contexts: matching must respect the
                // context even when posted in reverse order.
                let (b43, _) = e.recv_bytes(8, 0, 0, 43).unwrap();
                let (b42, _) = e.recv_bytes(8, 0, 0, 42).unwrap();
                assert_eq!(&b43[..], &[2]);
                assert_eq!(&b42[..], &[1]);
            }
        });
    }

    #[test]
    fn stray_cts_is_an_error_not_an_abort() {
        // A CTS naming a request id that was never allocated used to
        // abort the process; it must surface as a ProtocolError instead.
        run2(|e| {
            if e.rank() == 0 {
                let path = *e.path_to(1);
                let t = e.now();
                e.ep.send(
                    1,
                    t,
                    path.header_bytes,
                    &path.loggp,
                    Frame {
                        seq: 0,
                        checksum: 0,
                        wire: Arc::new(Wire::Cts { sender_req: 999 }),
                    },
                )
                .unwrap();
            } else {
                let r = e.irecv_bytes(8, 0, 0, 0).unwrap();
                let err = e.wait(r).unwrap_err();
                assert!(matches!(err, MpiError::ProtocolError(_)), "{err:?}");
            }
        });
    }

    #[test]
    fn duplicate_cts_for_a_completed_send_is_an_error() {
        // A CTS that names a live send request in the wrong state (here:
        // an eager send, already complete) is a protocol violation, not a
        // panic.
        run2(|e| {
            if e.rank() == 0 {
                // Eager send allocates request id 1 and completes without
                // awaiting a CTS; keep the request live (not waited).
                let _r = e.isend_bytes(&[1, 2, 3], 1, 0, 0).unwrap();
                let r2 = e.irecv_bytes(8, 1, 1, 0).unwrap();
                let err = e.wait(r2).unwrap_err();
                assert!(matches!(err, MpiError::ProtocolError(_)), "{err:?}");
            } else {
                let (b, _) = e.recv_bytes(8, 0, 0, 0).unwrap();
                assert_eq!(&b[..], &[1, 2, 3]);
                // Forge a CTS naming the sender's eager request.
                let path = *e.path_to(0);
                let t = e.now();
                e.ep.send(
                    0,
                    t,
                    path.header_bytes,
                    &path.loggp,
                    Frame {
                        seq: 0,
                        checksum: 0,
                        wire: Arc::new(Wire::Cts { sender_req: 1 }),
                    },
                )
                .unwrap();
            }
        });
    }

    #[test]
    fn ping_pong_latency_is_symmetric_and_deterministic() {
        let run = || {
            run2(|e| {
                let iters = 10;
                if e.rank() == 0 {
                    let t0 = e.now();
                    for _ in 0..iters {
                        e.send_bytes(&[0u8; 8], 1, 0, 0).unwrap();
                        let _ = e.recv_bytes(8, 1, 0, 0).unwrap();
                    }
                    (e.now() - t0).as_nanos() / iters as f64
                } else {
                    for _ in 0..iters {
                        let _ = e.recv_bytes(8, 0, 0, 0).unwrap();
                        e.send_bytes(&[0u8; 8], 0, 0, 0).unwrap();
                    }
                    0.0
                }
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "virtual timing must be deterministic");
        assert!(a[0] > 0.0);
    }
}
