//! Blocking collective operations.
//!
//! Every collective is implemented as a real message-passing algorithm
//! over the point-to-point engine (no magic "collective primitive"), so
//! the latency differences between library profiles emerge from algorithm
//! choice and tuning — exactly the paper's explanation for Figures 14–17:
//!
//! * **MVAPICH2 profile** (`hierarchical = true`): two-level algorithms —
//!   a network stage among node leaders plus shared-memory stages within
//!   each node — with binomial/scatter-allgather/Rabenseifner inner
//!   algorithms by message size.
//! * **Open MPI profile** (`hierarchical = false`): flat, topology-unaware
//!   binomial/recursive-doubling/pipeline algorithms with heavier
//!   per-call and per-hop software overheads.
//!
//! All algorithms operate on *packed* byte payloads. Entry points cross
//! into that domain through [`Mpi::pack_payload`] and
//! [`Mpi::unpack_payload`], which borrow a contiguous layout's bytes and
//! pack (charging the native pack engine) only a non-contiguous one.
//! Fragments are sent as borrowed slices of the payload, and received
//! fragments are deposited straight into it ([`crecv_into`],
//! [`exchange_into`]).

mod allgather;
mod alltoall;
mod bcast;
mod gather;
mod reduce;
pub(crate) mod sched;

pub use allgather::{allgather, allgatherv};
pub use alltoall::{alltoall, alltoallv};
pub use bcast::bcast;
pub use gather::{gather, gatherv, scatter, scatterv};
pub use reduce::{allreduce, reduce};

use std::ops::Range;

use obs::wallprof::{self, Counter};
use vtime::VDur;

use crate::comm::CommHandle;
use crate::error::{MpiError, MpiResult};
use crate::mpi::Mpi;
use crate::Payload;

/// Tag bases for internal collective traffic (above the user tag space;
/// collective traffic additionally travels in its own context stream).
pub(crate) mod tags {
    use crate::engine::TAG_UB;
    pub const BARRIER: i32 = TAG_UB + 0x10;
    pub const BCAST: i32 = TAG_UB + 0x20;
    pub const REDUCE: i32 = TAG_UB + 0x30;
    pub const ALLREDUCE: i32 = TAG_UB + 0x40;
    pub const GATHER: i32 = TAG_UB + 0x50;
    pub const SCATTER: i32 = TAG_UB + 0x60;
    pub const ALLGATHER: i32 = TAG_UB + 0x70;
    pub const ALLTOALL: i32 = TAG_UB + 0x80;
}

/// Snapshot of the communicator/profile state one collective call needs.
#[derive(Debug, Clone)]
pub(crate) struct Cc {
    /// Collective context stream of the communicator.
    pub ctx: u32,
    /// World ranks in communicator order.
    pub ranks: Vec<usize>,
    /// Caller's communicator rank.
    pub me: usize,
    /// Per-internal-message software overhead (profile tuning).
    pub perhop: VDur,
    /// Per-call software overhead (profile tuning).
    pub percall: VDur,
}

impl Cc {
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    pub fn world(&self, comm_rank: usize) -> usize {
        self.ranks[comm_rank]
    }
}

/// Build the collective context for `comm` and charge the per-call
/// overhead.
pub(crate) fn cc(mpi: &mut Mpi, comm: CommHandle) -> MpiResult<Cc> {
    // Entering any blocking collective is a library entry: let
    // outstanding non-blocking schedules progress first.
    mpi.nb_progress()?;
    let (ctx, ranks, me) = {
        let info = mpi.info(comm)?;
        (
            info.coll_context(),
            info.group.ranks().to_vec(),
            info.my_rank,
        )
    };
    let tuning = mpi.profile().coll;
    let c = Cc {
        ctx,
        ranks,
        me,
        perhop: VDur::from_nanos(tuning.perhop_ns),
        percall: VDur::from_nanos(tuning.percall_ns),
    };
    mpi.clock_mut().charge(c.percall);
    // Collectives are globally ordered per communicator, so every member
    // derives the same instance id; internal pt2pt traffic is stamped with
    // it for cross-rank causal analysis.
    mpi.engine_mut().begin_collective(ctx);
    Ok(c)
}

/// Whether the communicator spans more than one node.
pub(crate) fn spans_nodes(mpi: &Mpi, cc: &Cc) -> bool {
    let topo = *mpi.topology();
    let first = topo.node_of(cc.ranks[0]);
    cc.ranks.iter().any(|&r| topo.node_of(r) != first)
}

/// Internal blocking send of a collective fragment.
pub(crate) fn csend(mpi: &mut Mpi, cc: &Cc, data: &[u8], dst: usize, tag: i32) -> MpiResult<()> {
    mpi.clock_mut().charge(cc.perhop);
    let world = cc.world(dst);
    mpi.engine_mut().send_bytes(data, world, tag, cc.ctx)
}

/// Internal non-blocking send of a collective fragment.
pub(crate) fn cisend(
    mpi: &mut Mpi,
    cc: &Cc,
    data: &[u8],
    dst: usize,
    tag: i32,
) -> MpiResult<crate::engine::Request> {
    mpi.clock_mut().charge(cc.perhop);
    let world = cc.world(dst);
    mpi.engine_mut().isend_bytes(data, world, tag, cc.ctx)
}

/// Internal blocking receive of a collective fragment from communicator
/// rank `src`.
pub(crate) fn crecv(
    mpi: &mut Mpi,
    cc: &Cc,
    cap: usize,
    src: usize,
    tag: i32,
) -> MpiResult<Payload> {
    let world = cc.world(src) as i32;
    let (data, _) = mpi.engine_mut().recv_bytes(cap, world, tag, cc.ctx)?;
    Ok(data)
}

/// Internal blocking receive of a fragment from communicator rank `src`,
/// deposited into the front of `dst` (at most `dst.len()` bytes): the
/// one host copy of a received fragment.
pub(crate) fn crecv_into(
    mpi: &mut Mpi,
    cc: &Cc,
    dst: &mut [u8],
    src: usize,
    tag: i32,
) -> MpiResult<()> {
    let got = crecv(mpi, cc, dst.len(), src, tag)?;
    dst[..got.len()].copy_from_slice(&got);
    wallprof::add(Counter::CopyBytes, got.len() as u64);
    Ok(())
}

/// Simultaneous exchange with a partner: isend to `dst`, recv from `src`,
/// complete the send. The workhorse of ring and recursive-doubling
/// algorithms.
pub(crate) fn exchange(
    mpi: &mut Mpi,
    cc: &Cc,
    data: &[u8],
    dst: usize,
    cap: usize,
    src: usize,
    tag: i32,
) -> MpiResult<Payload> {
    let sreq = cisend(mpi, cc, data, dst, tag)?;
    let got = crecv(mpi, cc, cap, src, tag)?;
    mpi.engine_mut().wait(sreq)?;
    Ok(got)
}

/// [`exchange`] within one payload: send `buf[send]` to `dst` and
/// deposit what `src` sends into `buf[recv]`. The send captures its
/// bytes before the receive lands.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exchange_into(
    mpi: &mut Mpi,
    cc: &Cc,
    buf: &mut [u8],
    send: Range<usize>,
    dst: usize,
    recv: Range<usize>,
    src: usize,
    tag: i32,
) -> MpiResult<()> {
    let sreq = cisend(mpi, cc, &buf[send], dst, tag)?;
    crecv_into(mpi, cc, &mut buf[recv], src, tag)?;
    mpi.engine_mut().wait(sreq)?;
    Ok(())
}

/// Byte range of block `i` when `n` bytes split into `p` near-equal
/// blocks.
pub(crate) fn block_range(n: usize, p: usize, i: usize) -> (usize, usize) {
    let bs = n.div_ceil(p);
    let lo = (bs * i).min(n);
    let hi = (bs * (i + 1)).min(n);
    (lo, hi)
}

/// [`block_range`] with boundaries on `elem`-byte base elements, so a
/// reduction always sees whole elements.
pub(crate) fn elem_block_range(n: usize, elem: usize, p: usize, i: usize) -> (usize, usize) {
    let (lo, hi) = block_range(n / elem, p, i);
    (lo * elem, hi * elem)
}

/// Validate a collective root argument.
pub(crate) fn check_root(cc: &Cc, root: usize) -> MpiResult<()> {
    if root >= cc.size() {
        Err(MpiError::InvalidRank {
            rank: root as i32,
            comm_size: cc.size(),
        })
    } else {
        Ok(())
    }
}

/// MPI_Barrier: dissemination algorithm — ⌈log₂ p⌉ rounds of exchanges at
/// distance 2^k.
pub fn barrier(mpi: &mut Mpi, comm: CommHandle) -> MpiResult<()> {
    let c = cc(mpi, comm)?;
    let p = c.size();
    if p == 1 {
        return Ok(());
    }
    let me = c.me;
    let mut dist = 1usize;
    while dist < p {
        let dst = (me + dist) % p;
        let src = (me + p - dist) % p;
        let tag = tags::BARRIER + dist.trailing_zeros() as i32;
        exchange(mpi, &c, &[], dst, 0, src, tag)?;
        dist *= 2;
    }
    Ok(())
}

/// Hierarchy description used by two-level algorithms.
#[derive(Debug)]
pub(crate) struct Hierarchy {
    /// All node leaders (lowest comm rank per node), in node order of
    /// appearance.
    pub leaders: Vec<usize>,
    /// This rank's index within `leaders` (if a leader).
    pub leader_index: Option<usize>,
    /// Communicator ranks on this rank's node, in comm-rank order
    /// (first entry is the leader).
    pub my_node: Vec<usize>,
}

/// Group the communicator's ranks by physical node. The lowest
/// communicator rank on each node acts as its leader.
pub(crate) fn hierarchy(mpi: &Mpi, cc: &Cc) -> Hierarchy {
    let topo = *mpi.topology();
    let my_node_id = topo.node_of(cc.world(cc.me));
    let mut leaders: Vec<usize> = Vec::new();
    let mut seen_nodes: Vec<usize> = Vec::new();
    let mut my_node: Vec<usize> = Vec::new();
    for (cr, &wr) in cc.ranks.iter().enumerate() {
        let node = topo.node_of(wr);
        if !seen_nodes.contains(&node) {
            seen_nodes.push(node);
            leaders.push(cr);
        }
        if node == my_node_id {
            my_node.push(cr);
        }
    }
    let leader_index = leaders.iter().position(|&l| l == cc.me);
    Hierarchy {
        leaders,
        leader_index,
        my_node,
    }
}

/// A sub-`Cc` restricted to the given communicator ranks (used by
/// two-level algorithms to run a flat algorithm among leaders or within a
/// node). Traffic stays in the parent's collective context; the distinct
/// `tag` keeps stages from colliding.
pub(crate) fn sub_cc(cc: &Cc, members: &[usize]) -> Option<(Cc, usize)> {
    let me = members.iter().position(|&m| m == cc.me)?;
    let ranks = members.iter().map(|&m| cc.world(m)).collect();
    Some((
        Cc {
            ctx: cc.ctx,
            ranks,
            me,
            perhop: cc.perhop,
            percall: VDur::ZERO,
        },
        me,
    ))
}
