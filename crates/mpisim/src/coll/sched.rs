//! Non-blocking collectives: schedule compilation and progression.
//!
//! Each `I*` collective compiles — using the same tuned algorithm
//! selection as its blocking counterpart — into a [`Schedule`]: a static
//! DAG of send/recv/reduce/copy steps grouped into *rounds* (LibNBC
//! style). A round's compute steps consume the previous round's receives;
//! its sends and receives are posted non-blocking and the round retires
//! when all of them complete. Any number of schedules can be outstanding
//! per rank; the [`Mpi`](crate::mpi::Mpi) facade advances them whenever
//! the rank enters the library (Test/Wait/any MPI call).
//!
//! ## Virtual-time discipline
//!
//! A schedule advances on its *own timeline*, forked from the rank clock
//! at post time ([`vtime::Clock::fork_at`]). Every step cost — per-hop
//! software overhead, eager copies, o_send/o_recv, reduction arithmetic —
//! is charged to that timeline via [`Engine::with_timeline`], and message
//! arrivals merge into it. The rank's own clock only moves when the
//! application *consumes* the operation (Wait/Test), where it merges the
//! schedule's final timeline instant. This models offloaded progression
//! (a NIC/async-thread driving the collective while the CPU computes) and
//! keeps timing byte-identical across reruns: *when* the OS thread
//! happens to notice a delivery affects only real-time progress, never
//! the virtual result — the same rule the engine already applies to
//! rendezvous control traffic.
//!
//! ## Tag discipline
//!
//! Schedule traffic travels in the communicator's collective context with
//! tags from [`nbc_tag`]: a per-schedule window (derived from a per-comm
//! sequence number every member derives identically) crossed with the
//! round index. Distinct tags per round make matching immune to a
//! neighbor racing several rounds ahead, and distinct windows keep any
//! realistic number of outstanding schedules on one communicator apart.

use vtime::{VDur, VTime};

use crate::comm::CommHandle;
use crate::datatype::Datatype;
use crate::engine::{Engine, Request, NBC_ROUNDS_MAX, NBC_TAG_BASE};
use crate::error::{MpiError, MpiResult};
use crate::mpi::Mpi;
use crate::op::{self, ReduceOp};
use crate::profile::CollTuning;

/// Number of schedule windows before tags wrap (windows this far apart
/// cannot have traffic in flight simultaneously on one communicator).
const NBC_WINDOWS: u64 = 512;

/// Tag for round `round` of the schedule with per-communicator sequence
/// number `seq`.
fn nbc_tag(seq: u64, round: usize) -> i32 {
    debug_assert!(round < NBC_ROUNDS_MAX);
    NBC_TAG_BASE + ((seq % NBC_WINDOWS) as i32) * (NBC_ROUNDS_MAX as i32) + round as i32
}

/// One primitive operation of a schedule. Buffer indices refer to the
/// schedule's buffer table; ranks are communicator ranks.
#[derive(Debug, Clone)]
enum Step {
    /// Send `bufs[buf][off..off+len]` to `dst`.
    Send {
        buf: usize,
        off: usize,
        len: usize,
        dst: usize,
    },
    /// Receive `len` bytes from `src` into `bufs[buf][off..]`.
    Recv {
        buf: usize,
        off: usize,
        len: usize,
        src: usize,
    },
    /// `bufs[dst][doff..] = bufs[dst][doff..] OP bufs[src][soff..]` over
    /// `len` bytes (charged at the profile's reduction rate).
    Reduce {
        src: usize,
        soff: usize,
        dst: usize,
        doff: usize,
        len: usize,
    },
    /// Plain copy between schedule buffers (uncharged, like the payload
    /// shuffling inside the blocking algorithms).
    Copy {
        src: usize,
        soff: usize,
        dst: usize,
        doff: usize,
        len: usize,
    },
}

/// A group of steps that post together. Compute steps (`Reduce`/`Copy`)
/// run first — consuming the previous round's receives — then the round's
/// sends and receives are posted non-blocking.
#[derive(Debug, Default)]
struct Round {
    steps: Vec<Step>,
}

/// A receive in flight: where its payload lands when it completes.
#[derive(Debug)]
struct RecvSlot {
    buf: usize,
    off: usize,
    len: usize,
}

/// A compiled, progressing non-blocking collective.
pub(crate) struct Schedule {
    /// Collective context stream of the communicator.
    ctx: u32,
    /// Collective instance id (allocated by `Engine::begin_collective`).
    pub(crate) coll_id: u64,
    /// OMB-style name ("ibcast", ...), used for spans.
    pub(crate) name: &'static str,
    /// World ranks by communicator rank.
    ranks: Vec<usize>,
    /// Per-communicator non-blocking sequence number (tag window).
    seq: u64,
    /// Reduction parameters (reduce schedules only).
    red: Option<(ReduceOp, Datatype)>,
    /// Per-internal-message software overhead (profile tuning).
    perhop: VDur,
    /// Reduction cost per combined byte (profile).
    reduce_per_byte_ns: f64,
    bufs: Vec<Vec<u8>>,
    rounds: Vec<Round>,
    /// Index of the buffer holding the result at completion.
    out: usize,
    /// Next round to fire.
    next_round: usize,
    /// Requests of the fired-but-unretired round, in posting order, with
    /// receive landing slots.
    inflight: Vec<(Request, Option<RecvSlot>)>,
    /// Prefix of `inflight` already consumed (completion is drained in
    /// posting order so the timeline folds deterministically).
    inflight_done: usize,
    /// The schedule's own virtual timeline.
    timeline: VTime,
    /// Timeline instant the schedule was posted at.
    pub(crate) posted_at: VTime,
}

impl Schedule {
    /// Whether every round has fired and retired.
    pub(crate) fn is_done(&self) -> bool {
        self.next_round >= self.rounds.len() && self.inflight_done >= self.inflight.len()
    }

    /// Final timeline instant (meaningful once [`Schedule::is_done`]).
    pub(crate) fn finish_time(&self) -> VTime {
        self.timeline
    }

    /// The result payload (meaningful once done).
    pub(crate) fn take_output(mut self) -> Vec<u8> {
        std::mem::take(&mut self.bufs[self.out])
    }

    /// Fire round `next_round`: run its compute steps (charged to the
    /// timeline), then post its sends/receives through the engine with the
    /// clock swapped for the timeline.
    fn fire_round(&mut self, eng: &mut Engine) -> MpiResult<()> {
        let round = &self.rounds[self.next_round];
        let tag = nbc_tag(self.seq, self.next_round);
        // Compute steps first: they consume the previous round's receives.
        let mut compute_ns = 0.0f64;
        for step in &round.steps {
            match *step {
                Step::Reduce {
                    src,
                    soff,
                    dst,
                    doff,
                    len,
                } => {
                    let (op, dt) = self.red.as_ref().expect("reduce step needs an op");
                    let (op, dt) = (*op, dt.clone());
                    let (sbuf, dbuf) = if src < dst {
                        let (a, b) = self.bufs.split_at_mut(dst);
                        (&a[src][soff..soff + len], &mut b[0][doff..doff + len])
                    } else {
                        let (a, b) = self.bufs.split_at_mut(src);
                        (&b[0][soff..soff + len], &mut a[dst][doff..doff + len])
                    };
                    op::apply(op, &dt, dbuf, sbuf)?;
                    compute_ns += len as f64 * self.reduce_per_byte_ns;
                    obs::count(obs::pvar::COLL_NB_REDUCE_BYTES, len as u64);
                }
                Step::Copy {
                    src,
                    soff,
                    dst,
                    doff,
                    len,
                } => {
                    if src == dst {
                        self.bufs[dst].copy_within(soff..soff + len, doff);
                    } else {
                        let (from, to) = if src < dst {
                            let (a, b) = self.bufs.split_at_mut(dst);
                            (&a[src], &mut b[0])
                        } else {
                            let (a, b) = self.bufs.split_at_mut(src);
                            (&b[0], &mut a[dst])
                        };
                        to[doff..doff + len].copy_from_slice(&from[soff..soff + len]);
                    }
                }
                _ => {}
            }
        }
        // Post the communication steps on the schedule timeline.
        let me_world = eng.rank();
        let label = eng.swap_coll_label(Some(self.ctx), self.coll_id);
        let (posted, advanced) = eng.with_timeline(self.timeline, |eng| -> MpiResult<_> {
            if compute_ns > 0.0 {
                eng.clock_mut().charge(VDur::from_nanos(compute_ns));
            }
            let mut posted = Vec::new();
            for step in &self.rounds[self.next_round].steps {
                match *step {
                    Step::Recv { buf, off, len, src } => {
                        let world = self.ranks[src] as i32;
                        let r = eng.irecv_bytes(len, world, tag, self.ctx)?;
                        posted.push((r, Some(RecvSlot { buf, off, len })));
                        obs::count(obs::pvar::COLL_NB_RECVS, 1);
                    }
                    Step::Send { buf, off, len, dst } => {
                        let world = self.ranks[dst];
                        debug_assert_ne!(world, me_world, "schedules never self-send");
                        eng.clock_mut().charge(self.perhop);
                        let data = &self.bufs[buf][off..off + len];
                        let r = eng.isend_bytes(data, world, tag, self.ctx)?;
                        posted.push((r, None));
                        obs::count(obs::pvar::COLL_NB_SENDS, 1);
                        obs::count(obs::pvar::COLL_NB_BYTES, len as u64);
                    }
                    _ => {}
                }
            }
            Ok(posted)
        });
        let (old_ctx, old_id) = label;
        eng.swap_coll_label(old_ctx, old_id);
        self.timeline = advanced;
        self.inflight = posted?;
        self.inflight_done = 0;
        self.next_round += 1;
        Ok(())
    }

    /// Advance as far as already-arrived traffic permits: retire inflight
    /// requests (in posting order, folding arrivals into the timeline) and
    /// fire follow-on rounds. Never blocks; returns whether the schedule
    /// is now done.
    pub(crate) fn advance(&mut self, eng: &mut Engine) -> MpiResult<bool> {
        let _wp = obs::wallprof::span(obs::wallprof::Subsystem::Sched);
        obs::wallprof::add(obs::wallprof::Counter::SchedPolls, 1);
        loop {
            // Retire the current round's requests in posting order.
            while self.inflight_done < self.inflight.len() {
                let (req, slot) = &self.inflight[self.inflight_done];
                let req = *req;
                if !eng.is_done(req) {
                    return Ok(false);
                }
                let (completion, advanced) =
                    eng.with_timeline(self.timeline, |eng| eng.try_complete(req));
                let completion = completion?.expect("request checked complete");
                self.timeline = advanced;
                if let Some(RecvSlot { buf, off, len }) = slot {
                    let got = completion.data;
                    if got.len() != *len {
                        return Err(MpiError::Truncated {
                            incoming: got.len(),
                            capacity: *len,
                        });
                    }
                    self.bufs[*buf][*off..*off + *len].copy_from_slice(&got);
                }
                self.inflight_done += 1;
            }
            if self.next_round >= self.rounds.len() {
                return Ok(true);
            }
            self.fire_round(eng)?;
        }
    }
}

/// Builder used by the per-collective compilers.
struct Build {
    bufs: Vec<Vec<u8>>,
    rounds: Vec<Round>,
    out: usize,
}

impl Build {
    fn new() -> Self {
        Build {
            bufs: Vec::new(),
            rounds: Vec::new(),
            out: 0,
        }
    }

    fn buf(&mut self, data: Vec<u8>) -> usize {
        self.bufs.push(data);
        self.bufs.len() - 1
    }

    fn round(&mut self) -> &mut Round {
        self.rounds.push(Round::default());
        self.rounds.last_mut().unwrap()
    }
}

/// Even byte partition of `n` over `p` (same as the blocking
/// scatter-allgather bcast).
fn block_range(n: usize, p: usize, i: usize) -> (usize, usize) {
    let bs = n.div_ceil(p);
    let lo = (bs * i).min(n);
    let hi = (bs * (i + 1)).min(n);
    (lo, hi)
}

/// Element-aligned byte partition for reduce schedules: boundaries land
/// on base-type elements (like the blocking ring's `chunk_range`) so
/// [`op::apply`] always sees whole elements.
fn elem_block_range(n: usize, elem: usize, p: usize, i: usize) -> (usize, usize) {
    let elems = n / elem;
    let per = elems.div_ceil(p);
    let lo = (per * i).min(elems);
    let hi = (per * (i + 1)).min(elems);
    (lo * elem, hi * elem)
}

fn ceil_log2(p: usize) -> usize {
    (usize::BITS - (p - 1).leading_zeros()) as usize
}

/// Parameters shared by every compiler: communicator geometry plus the
/// payload, in *communicator ranks*.
struct Geo {
    me: usize,
    p: usize,
}

// ----------------------------------------------------------------------
// Compilers. Each returns (bufs, rounds, out-buffer index).
// ----------------------------------------------------------------------

/// Ibarrier: dissemination, ⌈log₂ p⌉ rounds of zero-byte exchanges.
fn compile_barrier(g: &Geo) -> Build {
    let mut b = Build::new();
    b.out = b.buf(Vec::new());
    let mut dist = 1usize;
    while dist < g.p {
        let r = b.round();
        r.steps.push(Step::Recv {
            buf: 0,
            off: 0,
            len: 0,
            src: (g.me + g.p - dist) % g.p,
        });
        r.steps.push(Step::Send {
            buf: 0,
            off: 0,
            len: 0,
            dst: (g.me + dist) % g.p,
        });
        dist *= 2;
    }
    b
}

/// Ibcast: binomial tree for small payloads, binomial-scatter +
/// ring-allgather (van de Geijn) above the binomial threshold — the same
/// selection the blocking `bcast` makes for flat communicators.
fn compile_bcast(g: &Geo, data: Vec<u8>, root: usize, tuning: &CollTuning) -> Build {
    let n = data.len();
    let mut b = Build::new();
    b.out = b.buf(data);
    if g.p == 1 || n == 0 {
        return b;
    }
    let vrank = (g.me + g.p - root) % g.p;
    let from_v = |v: usize| (v + root) % g.p;
    if n <= tuning.bcast_binomial_max {
        // Doubling binomial: after round k the first 2^(k+1) vranks hold
        // the payload.
        for k in 0..ceil_log2(g.p) {
            let mask = 1usize << k;
            let r = b.round();
            if vrank < mask {
                if vrank + mask < g.p {
                    r.steps.push(Step::Send {
                        buf: 0,
                        off: 0,
                        len: n,
                        dst: from_v(vrank + mask),
                    });
                }
            } else if vrank < 2 * mask {
                r.steps.push(Step::Recv {
                    buf: 0,
                    off: 0,
                    len: n,
                    src: from_v(vrank - mask),
                });
            }
        }
        return b;
    }
    // Scatter-allgather: binomial scatter of vrank-indexed blocks, then a
    // ring allgather.
    for k in (0..ceil_log2(g.p)).rev() {
        let mask = 1usize << k;
        let r = b.round();
        if vrank & (mask - 1) == 0 {
            if vrank & mask == 0 {
                // Holder of [vrank, vrank+2*mask): pass the upper half.
                if vrank + mask < g.p {
                    let (lo, _) = block_range(n, g.p, vrank + mask);
                    let (_, hi) = block_range(n, g.p, (vrank + 2 * mask).min(g.p));
                    if hi > lo {
                        r.steps.push(Step::Send {
                            buf: 0,
                            off: lo,
                            len: hi - lo,
                            dst: from_v(vrank + mask),
                        });
                    }
                }
            } else {
                let (lo, _) = block_range(n, g.p, vrank);
                let (_, hi) = block_range(n, g.p, (vrank + mask).min(g.p));
                if hi > lo {
                    r.steps.push(Step::Recv {
                        buf: 0,
                        off: lo,
                        len: hi - lo,
                        src: from_v(vrank - mask),
                    });
                }
            }
        }
    }
    // Ring allgather over vrank blocks.
    for step in 0..g.p - 1 {
        let r = b.round();
        let send_block = (vrank + g.p - step) % g.p;
        let recv_block = (vrank + g.p - step - 1) % g.p;
        let (slo, shi) = block_range(n, g.p, send_block);
        let (rlo, rhi) = block_range(n, g.p, recv_block);
        if shi > slo {
            r.steps.push(Step::Send {
                buf: 0,
                off: slo,
                len: shi - slo,
                dst: from_v((vrank + 1) % g.p),
            });
        }
        if rhi > rlo {
            r.steps.push(Step::Recv {
                buf: 0,
                off: rlo,
                len: rhi - rlo,
                src: from_v((vrank + g.p - 1) % g.p),
            });
        }
    }
    b
}

/// Iallgather: ring — p−1 rounds, each forwarding the block received in
/// the previous round.
fn compile_allgather(g: &Geo, mine: Vec<u8>) -> Build {
    let nb = mine.len();
    let mut b = Build::new();
    let mut out = vec![0u8; nb * g.p];
    out[g.me * nb..(g.me + 1) * nb].copy_from_slice(&mine);
    b.out = b.buf(out);
    if g.p == 1 || nb == 0 {
        return b;
    }
    let right = (g.me + 1) % g.p;
    let left = (g.me + g.p - 1) % g.p;
    for step in 0..g.p - 1 {
        let send_block = (g.me + g.p - step) % g.p;
        let recv_block = (g.me + g.p - step - 1) % g.p;
        let r = b.round();
        r.steps.push(Step::Send {
            buf: 0,
            off: send_block * nb,
            len: nb,
            dst: right,
        });
        r.steps.push(Step::Recv {
            buf: 0,
            off: recv_block * nb,
            len: nb,
            src: left,
        });
    }
    b
}

/// Igather: binomial fan-in over vranks, then (at the root) a
/// vrank→rank permutation of the accumulated blocks.
fn compile_gather(g: &Geo, mine: Vec<u8>, root: usize) -> Build {
    let nb = mine.len();
    let mut b = Build::new();
    let vrank = (g.me + g.p - root) % g.p;
    let from_v = |v: usize| (v + root) % g.p;
    // Accumulation buffer in vrank block order; own block at vrank.
    let mut acc = vec![0u8; nb * g.p];
    acc[vrank * nb..(vrank + 1) * nb].copy_from_slice(&mine);
    let acc = b.buf(acc);
    let out = b.buf(vec![0u8; nb * g.p]);
    b.out = out;
    if g.p == 1 || nb == 0 {
        if nb > 0 {
            b.round().steps.push(Step::Copy {
                src: acc,
                soff: 0,
                dst: out,
                doff: 0,
                len: nb,
            });
        }
        return b;
    }
    for k in 0..ceil_log2(g.p) {
        let mask = 1usize << k;
        let r = b.round();
        if vrank & mask != 0 {
            // My accumulated range is [vrank, min(vrank+mask, p)).
            let hi = (vrank + mask).min(g.p);
            r.steps.push(Step::Send {
                buf: acc,
                off: vrank * nb,
                len: (hi - vrank) * nb,
                dst: from_v(vrank - mask),
            });
            break;
        } else if vrank + mask < g.p {
            let hi = (vrank + 2 * mask).min(g.p);
            r.steps.push(Step::Recv {
                buf: acc,
                off: (vrank + mask) * nb,
                len: (hi - vrank - mask) * nb,
                src: from_v(vrank + mask),
            });
        }
    }
    if vrank == 0 {
        // Root: permute vrank blocks into communicator-rank order.
        let r = b.round();
        for v in 0..g.p {
            r.steps.push(Step::Copy {
                src: acc,
                soff: v * nb,
                dst: out,
                doff: from_v(v) * nb,
                len: nb,
            });
        }
    }
    b
}

/// Ialltoall: pairwise exchange — p−1 rounds with partner offsets
/// 1..p−1, plus the local block copied upfront.
fn compile_alltoall(g: &Geo, send: Vec<u8>) -> Build {
    let nb = send.len() / g.p;
    let mut b = Build::new();
    let sbuf = b.buf(send);
    let out = b.buf(vec![0u8; nb * g.p]);
    b.out = out;
    if nb == 0 {
        return b;
    }
    b.round().steps.push(Step::Copy {
        src: sbuf,
        soff: g.me * nb,
        dst: out,
        doff: g.me * nb,
        len: nb,
    });
    for off in 1..g.p {
        let dst = (g.me + off) % g.p;
        let src = (g.me + g.p - off) % g.p;
        let r = b.round();
        r.steps.push(Step::Send {
            buf: sbuf,
            off: dst * nb,
            len: nb,
            dst,
        });
        r.steps.push(Step::Recv {
            buf: out,
            off: src * nb,
            len: nb,
            src,
        });
    }
    b
}

/// Iallreduce: recursive doubling for small power-of-two communicators,
/// binomial reduce + binomial bcast for small non-power-of-two ones, and
/// a ring (reduce-scatter + allgather) above the recursive-doubling
/// threshold — mirroring the blocking selection.
fn compile_allreduce(g: &Geo, mine: Vec<u8>, tuning: &CollTuning, elem: usize) -> Build {
    let n = mine.len();
    if g.p == 1 || n == 0 {
        let mut b = Build::new();
        b.out = b.buf(mine);
        return b;
    }
    let small = n <= tuning.allreduce_rd_max;
    if small && g.p.is_power_of_two() {
        compile_allreduce_rd(g, mine)
    } else if small || !tuning.allreduce_ring_above_rd {
        compile_allreduce_redbcast(g, mine)
    } else {
        compile_allreduce_ring(g, mine, elem)
    }
}

/// Recursive doubling (p a power of two): log₂ p exchange rounds, each
/// followed by a combine of the partner's contribution.
fn compile_allreduce_rd(g: &Geo, mine: Vec<u8>) -> Build {
    let n = mine.len();
    let mut b = Build::new();
    let acc = b.buf(mine);
    let tmp = b.buf(vec![0u8; n]);
    b.out = acc;
    let k = ceil_log2(g.p);
    for i in 0..k {
        let partner = g.me ^ (1usize << i);
        let r = b.round();
        if i > 0 {
            r.steps.push(Step::Reduce {
                src: tmp,
                soff: 0,
                dst: acc,
                doff: 0,
                len: n,
            });
        }
        r.steps.push(Step::Send {
            buf: acc,
            off: 0,
            len: n,
            dst: partner,
        });
        r.steps.push(Step::Recv {
            buf: tmp,
            off: 0,
            len: n,
            src: partner,
        });
    }
    // Final combine of the last round's receive.
    b.round().steps.push(Step::Reduce {
        src: tmp,
        soff: 0,
        dst: acc,
        doff: 0,
        len: n,
    });
    b
}

/// Binomial reduce to comm rank 0, then binomial bcast back out (any p).
fn compile_allreduce_redbcast(g: &Geo, mine: Vec<u8>) -> Build {
    let n = mine.len();
    let mut b = Build::new();
    let acc = b.buf(mine);
    let tmp = b.buf(vec![0u8; n]);
    b.out = acc;
    let k = ceil_log2(g.p);
    // Fan-in: rank `me` receives in rounds below its lowest set bit, then
    // sends once and falls silent.
    let mut sent = false;
    let mut pending_reduce = false;
    for i in 0..k {
        let mask = 1usize << i;
        let r = b.round();
        if pending_reduce {
            r.steps.push(Step::Reduce {
                src: tmp,
                soff: 0,
                dst: acc,
                doff: 0,
                len: n,
            });
            pending_reduce = false;
        }
        if sent {
            continue;
        }
        if g.me & mask != 0 {
            r.steps.push(Step::Send {
                buf: acc,
                off: 0,
                len: n,
                dst: g.me - mask,
            });
            sent = true;
        } else if g.me + mask < g.p {
            r.steps.push(Step::Recv {
                buf: tmp,
                off: 0,
                len: n,
                src: g.me + mask,
            });
            pending_reduce = true;
        }
    }
    // Every rank adds this round even when it has nothing to fold:
    // round indices double as tag offsets, so all members must agree on
    // the round count at every point of the schedule.
    {
        let r = b.round();
        if pending_reduce {
            r.steps.push(Step::Reduce {
                src: tmp,
                soff: 0,
                dst: acc,
                doff: 0,
                len: n,
            });
        }
    }
    // Fan-out: doubling binomial bcast from rank 0.
    for i in 0..k {
        let mask = 1usize << i;
        let r = b.round();
        if g.me < mask {
            if g.me + mask < g.p {
                r.steps.push(Step::Send {
                    buf: acc,
                    off: 0,
                    len: n,
                    dst: g.me + mask,
                });
            }
        } else if g.me < 2 * mask {
            r.steps.push(Step::Recv {
                buf: acc,
                off: 0,
                len: n,
                src: g.me - mask,
            });
        }
    }
    b
}

/// Ring allreduce: a reduce-scatter ring (p−1 rounds) leaves each rank
/// owning one fully-reduced block, then a ring allgather (p−1 rounds)
/// circulates the owned blocks. Handles any p and uneven blocks.
fn compile_allreduce_ring(g: &Geo, mine: Vec<u8>, elem: usize) -> Build {
    let n = mine.len();
    let mut b = Build::new();
    let acc = b.buf(mine);
    let bs = (n / elem).div_ceil(g.p) * elem;
    let tmp = b.buf(vec![0u8; bs]);
    b.out = acc;
    let right = (g.me + 1) % g.p;
    let left = (g.me + g.p - 1) % g.p;
    // Reduce-scatter: in round r, send block (me−r) (just combined, for
    // r ≥ 1) and receive block (me−r−1) into tmp.
    for step in 0..g.p - 1 {
        let send_block = (g.me + g.p - step) % g.p;
        let recv_block = (g.me + g.p - step - 1) % g.p;
        let (slo, shi) = elem_block_range(n, elem, g.p, send_block);
        let (rlo, rhi) = elem_block_range(n, elem, g.p, recv_block);
        let r = b.round();
        if step > 0 && shi > slo {
            r.steps.push(Step::Reduce {
                src: tmp,
                soff: 0,
                dst: acc,
                doff: slo,
                len: shi - slo,
            });
        }
        if shi > slo {
            r.steps.push(Step::Send {
                buf: acc,
                off: slo,
                len: shi - slo,
                dst: right,
            });
        }
        if rhi > rlo {
            r.steps.push(Step::Recv {
                buf: tmp,
                off: 0,
                len: rhi - rlo,
                src: left,
            });
        }
    }
    // Fold the final receive: rank me now owns block (me+1). The round
    // exists on every rank (round indices double as tag offsets) even if
    // this rank's owned block is empty.
    let owned = (g.me + 1) % g.p;
    let (olo, ohi) = elem_block_range(n, elem, g.p, owned);
    {
        let r = b.round();
        if ohi > olo {
            r.steps.push(Step::Reduce {
                src: tmp,
                soff: 0,
                dst: acc,
                doff: olo,
                len: ohi - olo,
            });
        }
    }
    // Allgather ring of the owned blocks.
    for step in 0..g.p - 1 {
        let send_block = (g.me + 1 + g.p - step) % g.p;
        let recv_block = (g.me + g.p - step) % g.p;
        let (slo, shi) = elem_block_range(n, elem, g.p, send_block);
        let (rlo, rhi) = elem_block_range(n, elem, g.p, recv_block);
        let r = b.round();
        if shi > slo {
            r.steps.push(Step::Send {
                buf: acc,
                off: slo,
                len: shi - slo,
                dst: right,
            });
        }
        if rhi > rlo {
            r.steps.push(Step::Recv {
                buf: acc,
                off: rlo,
                len: rhi - rlo,
                src: left,
            });
        }
    }
    b
}

/// Which collective to compile (payloads are packed bytes).
pub(crate) enum IcollKind {
    Barrier,
    Bcast {
        data: Vec<u8>,
        root: usize,
    },
    Allreduce {
        mine: Vec<u8>,
        op: ReduceOp,
        dt: Datatype,
    },
    Allgather {
        mine: Vec<u8>,
    },
    Gather {
        mine: Vec<u8>,
        root: usize,
    },
    Alltoall {
        send: Vec<u8>,
    },
}

impl IcollKind {
    pub(crate) fn name(&self) -> &'static str {
        match self {
            IcollKind::Barrier => "ibarrier",
            IcollKind::Bcast { .. } => "ibcast",
            IcollKind::Allreduce { .. } => "iallreduce",
            IcollKind::Allgather { .. } => "iallgather",
            IcollKind::Gather { .. } => "igather",
            IcollKind::Alltoall { .. } => "ialltoall",
        }
    }
}

/// Compile `kind` into a schedule and fire its first round. Must be
/// called with the communicator's collective instance already begun (the
/// id labels the schedule's traffic end-to-end).
pub(crate) fn compile(
    mpi: &mut Mpi,
    comm: CommHandle,
    kind: IcollKind,
    seq: u64,
) -> MpiResult<Schedule> {
    let (ctx, ranks, me) = {
        let info = mpi.info(comm)?;
        (
            info.coll_context(),
            info.group.ranks().to_vec(),
            info.my_rank,
        )
    };
    let g = Geo { me, p: ranks.len() };
    let profile = *mpi.profile();
    let tuning = profile.coll;
    let reduce_per_byte_ns = profile.reduce_per_byte_ns;
    let mut perhop = VDur::from_nanos(tuning.perhop_ns);
    let name = kind.name();
    let (build, red) = match kind {
        IcollKind::Barrier => (compile_barrier(&g), None),
        IcollKind::Bcast { data, root } => {
            perhop += VDur::from_nanos(tuning.bcast_perhop_extra_ns);
            (compile_bcast(&g, data, root, &tuning), None)
        }
        IcollKind::Allreduce { mine, op, dt } => {
            perhop += VDur::from_nanos(tuning.allreduce_perhop_extra_ns);
            let elem = dt.base_type().size();
            (compile_allreduce(&g, mine, &tuning, elem), Some((op, dt)))
        }
        IcollKind::Allgather { mine } => (compile_allgather(&g, mine), None),
        IcollKind::Gather { mine, root } => (compile_gather(&g, mine, root), None),
        IcollKind::Alltoall { send } => (compile_alltoall(&g, send), None),
    };
    if build.rounds.len() >= NBC_ROUNDS_MAX {
        return Err(MpiError::ProtocolError(
            "non-blocking schedule exceeds the round cap",
        ));
    }
    let eng = mpi.engine_mut();
    let now = eng.now();
    let mut sched = Schedule {
        ctx,
        coll_id: eng.current_collective(),
        name,
        ranks,
        seq,
        red,
        perhop,
        reduce_per_byte_ns,
        bufs: build.bufs,
        rounds: build.rounds,
        out: build.out,
        next_round: 0,
        inflight: Vec::new(),
        inflight_done: 0,
        timeline: now,
        posted_at: now,
    };
    obs::count(obs::pvar::COLL_NB_POSTED, 1);
    obs::count(obs::pvar::COLL_NB_ROUNDS, sched.rounds.len() as u64);
    // Fire round 0 immediately: receives are pre-posted and first-round
    // sends leave at post time, so wire time overlaps whatever the
    // application computes before Wait.
    sched.advance(eng)?;
    Ok(sched)
}
