//! Reduction collectives: MPI_Reduce and MPI_Allreduce.
//!
//! Algorithms:
//!
//! * `reduce`: binomial tree (children combined in deterministic mask
//!   order).
//! * `allreduce`, flat: recursive doubling for small payloads,
//!   Rabenseifner (recursive-halving reduce-scatter + recursive-doubling
//!   allgather) for large ones, with the standard non-power-of-two fold.
//! * `allreduce`, hierarchical (MVAPICH2): shared-memory fan-in to the
//!   node leader, flat allreduce among leaders over the network,
//!   shared-memory binomial broadcast of the result.

use super::{
    bcast, cc, check_root, crecv, crecv_into, csend, elem_block_range, exchange, exchange_into,
    hierarchy, spans_nodes, sub_cc, tags, Cc,
};
use crate::comm::CommHandle;
use crate::datatype::Datatype;
use crate::error::{MpiError, MpiResult};
use crate::mpi::Mpi;
use crate::op::{self, ReduceOp};
use crate::profile::CollTuning;
use vtime::VDur;

/// Charge the reduction-compute cost for combining `bytes` of operands.
fn charge_reduce(mpi: &mut Mpi, bytes: usize) {
    let per_byte = mpi.profile().reduce_per_byte_ns;
    mpi.clock_mut()
        .charge(VDur::from_nanos(bytes as f64 * per_byte));
}

/// Combine `src` into `acc` and charge the flops.
fn combine(
    mpi: &mut Mpi,
    op: ReduceOp,
    dt: &Datatype,
    acc: &mut [u8],
    src: &[u8],
) -> MpiResult<()> {
    op::apply(op, dt, acc, src)?;
    charge_reduce(mpi, src.len());
    Ok(())
}

/// MPI_Reduce: binomial tree rooted at `root`.
#[allow(clippy::too_many_arguments)]
pub fn reduce(
    mpi: &mut Mpi,
    send: &[u8],
    recv: Option<&mut [u8]>,
    count: usize,
    dt: &Datatype,
    op: ReduceOp,
    root: usize,
    comm: CommHandle,
) -> MpiResult<()> {
    let c = cc(mpi, comm)?;
    check_root(&c, root)?;
    let mut acc = mpi.pack_owned(send, count, dt)?;
    let p = c.size();

    if p > 1 {
        let vrank = (c.me + p - root) % p;
        let real = |v: usize| (v + root) % p;
        let mut mask = 1usize;
        while mask < p {
            if vrank & mask == 0 {
                let child = vrank + mask;
                if child < p {
                    let got = crecv(mpi, &c, acc.len(), real(child), tags::REDUCE)?;
                    if got.len() != acc.len() {
                        return Err(MpiError::CollectiveMismatch(
                            "reduce contributions differ in size",
                        ));
                    }
                    combine(mpi, op, dt, &mut acc, &got)?;
                }
            } else {
                csend(mpi, &c, &acc, real(vrank - mask), tags::REDUCE)?;
                break;
            }
            mask <<= 1;
        }
    }

    if c.me == root {
        let out = recv.ok_or(MpiError::BufferTooSmall {
            needed: acc.len(),
            available: 0,
        })?;
        mpi.unpack_payload(&acc, count, dt, out, 0)?;
    }
    Ok(())
}

/// MPI_Allreduce: algorithm selection per profile.
pub fn allreduce(
    mpi: &mut Mpi,
    send: &[u8],
    recv: &mut [u8],
    count: usize,
    dt: &Datatype,
    op: ReduceOp,
    comm: CommHandle,
) -> MpiResult<()> {
    let mut c = cc(mpi, comm)?;
    // Allreduce-specific scheduling overhead (profile tuning).
    c.perhop += VDur::from_nanos(mpi.profile().coll.allreduce_perhop_extra_ns);
    let nbytes = dt.size() * count;
    // A contiguous layout that fits is reduced in the receive buffer:
    // `send` is copied there once. Otherwise the reduction runs in an
    // owned accumulator, unpacked into `recv` at the end (where a short
    // `recv` fails, after the rank has taken its full part).
    let in_place = dt.is_contiguous() && recv.len() >= nbytes;
    let mut packed = Vec::new();
    if in_place {
        let mine = mpi.pack_payload(send, 0, count, dt)?;
        mpi.unpack_payload(&mine, count, dt, recv, 0)?;
    } else {
        packed = mpi.pack_owned(send, count, dt)?;
    }
    let acc: &mut [u8] = if in_place {
        &mut recv[..nbytes]
    } else {
        &mut packed
    };
    let begin = mpi.now();

    if c.size() > 1 && !acc.is_empty() {
        let tuning = mpi.profile().coll;
        if tuning.hierarchical && spans_nodes(mpi, &c) && acc.len() <= tuning.two_level_max {
            obs::count(obs::pvar::COLL_ALLREDUCE_ALGO_TWO_LEVEL, 1);
            two_level(mpi, &c, acc, dt, op, &tuning)?;
        } else {
            flat(mpi, &c, acc, dt, op, &tuning, false)?;
        }
    }

    if !in_place {
        mpi.unpack_payload(&packed, count, dt, recv, 0)?;
    }
    if obs::tracing_enabled() {
        obs::span(
            "allreduce",
            "coll",
            begin,
            mpi.now(),
            vec![
                ("bytes", obs::ArgValue::U64(nbytes as u64)),
                ("ranks", obs::ArgValue::U64(c.size() as u64)),
            ],
        );
    }
    Ok(())
}

/// Flat allreduce over `c`: recursive doubling or Rabenseifner, with the
/// standard fold for non-power-of-two sizes, or the ring where the
/// profile prefers it. The leader stage of the two-level algorithm
/// (`leader_stage`) never takes the ring and counts no algorithm pvar.
pub(super) fn flat(
    mpi: &mut Mpi,
    c: &Cc,
    acc: &mut [u8],
    dt: &Datatype,
    op: ReduceOp,
    tuning: &CollTuning,
    leader_stage: bool,
) -> MpiResult<()> {
    let rd_max = tuning.allreduce_rd_max;
    // Ring allreduce (Open MPI's large-message default): bandwidth
    // optimal but with a 2(p-1)-step critical path.
    if !leader_stage
        && acc.len() > rd_max
        && tuning.allreduce_ring_above_rd
        && acc.len() >= c.size() * dt.base_type().size()
    {
        obs::count(obs::pvar::COLL_ALLREDUCE_ALGO_RING, 1);
        return ring(mpi, c, acc, dt, op);
    }
    let p = c.size();
    let pof2 = prev_power_of_two(p);
    let rem = p - pof2;
    let me = c.me;

    // Fold phase: the first 2*rem ranks pair up; evens push their vector
    // into odds, halving the active set to a power of two.
    let newrank: Option<usize> = if me < 2 * rem {
        if me.is_multiple_of(2) {
            csend(mpi, c, acc, me + 1, tags::ALLREDUCE + 1)?;
            None
        } else {
            let got = crecv(mpi, c, acc.len(), me - 1, tags::ALLREDUCE + 1)?;
            combine(mpi, op, dt, acc, &got)?;
            Some(me / 2)
        }
    } else {
        Some(me - rem)
    };

    if let Some(nr) = newrank {
        // Map a new rank back to a communicator rank.
        let real = |v: usize| if v < rem { 2 * v + 1 } else { v + rem };
        let count_algo = |pvar| {
            if !leader_stage {
                obs::count(pvar, 1);
            }
        };
        if acc.len() <= rd_max || acc.len() < pof2 * dt.base_type().size() {
            count_algo(obs::pvar::COLL_ALLREDUCE_ALGO_RECURSIVE_DOUBLING);
            recursive_doubling(mpi, c, acc, dt, op, nr, pof2, real)?;
        } else {
            count_algo(obs::pvar::COLL_ALLREDUCE_ALGO_RABENSEIFNER);
            rabenseifner(mpi, c, acc, dt, op, nr, pof2, real)?;
        }
    }

    // Unfold: odds hand the final vector back to their even partner.
    if me < 2 * rem {
        if me % 2 == 1 {
            csend(mpi, c, acc, me - 1, tags::ALLREDUCE + 2)?;
        } else {
            crecv_into(mpi, c, acc, me + 1, tags::ALLREDUCE + 2)?;
        }
    }
    Ok(())
}

/// Binomial tree reduction of `acc` to communicator rank `root` of the
/// sub-communicator (children combined in deterministic mask order).
pub(super) fn tree_reduce(
    mpi: &mut Mpi,
    c: &Cc,
    acc: &mut [u8],
    dt: &Datatype,
    op: ReduceOp,
    root: usize,
    tag: i32,
) -> MpiResult<()> {
    let p = c.size();
    if p <= 1 {
        return Ok(());
    }
    let vrank = (c.me + p - root) % p;
    let real = |v: usize| (v + root) % p;
    let mut mask = 1usize;
    while mask < p {
        if vrank & mask == 0 {
            let child = vrank + mask;
            if child < p {
                let got = crecv(mpi, c, acc.len(), real(child), tag)?;
                combine(mpi, op, dt, acc, &got)?;
            }
        } else {
            csend(mpi, c, acc, real(vrank - mask), tag)?;
            break;
        }
        mask <<= 1;
    }
    Ok(())
}

/// Ring reduce-scatter: p-1 steps of n/p bytes. Afterwards rank `me`
/// holds the fully-reduced chunk `(me + 1) % p`.
fn ring_reduce_scatter(
    mpi: &mut Mpi,
    c: &Cc,
    acc: &mut [u8],
    dt: &Datatype,
    op: ReduceOp,
) -> MpiResult<usize> {
    let p = c.size();
    let me = c.me;
    let bs = dt.base_type().size();
    let n = acc.len();
    let next = (me + 1) % p;
    let prev = (me + p - 1) % p;
    for s in 0..p - 1 {
        let send_id = (me + p - s) % p;
        let recv_id = (me + p - s - 1) % p;
        let (slo, shi) = elem_block_range(n, bs, p, send_id);
        let (rlo, rhi) = elem_block_range(n, bs, p, recv_id);
        let got = exchange(
            mpi,
            c,
            &acc[slo..shi],
            next,
            rhi - rlo,
            prev,
            tags::ALLREDUCE + 8,
        )?;
        combine(mpi, op, dt, &mut acc[rlo..rhi], &got)?;
    }
    Ok((me + 1) % p)
}

/// Ring allgather of the per-rank chunks (inverse of the reduce-scatter).
fn ring_allgather(mpi: &mut Mpi, c: &Cc, acc: &mut [u8], bs: usize) -> MpiResult<()> {
    let p = c.size();
    let me = c.me;
    let n = acc.len();
    let next = (me + 1) % p;
    let prev = (me + p - 1) % p;
    for s in 0..p - 1 {
        let send_id = (me + 1 + p - s) % p;
        let recv_id = (me + p - s) % p;
        let (slo, shi) = elem_block_range(n, bs, p, send_id);
        let (rlo, rhi) = elem_block_range(n, bs, p, recv_id);
        exchange_into(
            mpi,
            c,
            acc,
            slo..shi,
            next,
            rlo..rhi,
            prev,
            tags::ALLREDUCE + 9,
        )?;
    }
    Ok(())
}

/// Ring allreduce: ring reduce-scatter followed by a ring allgather.
fn ring(mpi: &mut Mpi, c: &Cc, acc: &mut [u8], dt: &Datatype, op: ReduceOp) -> MpiResult<()> {
    ring_reduce_scatter(mpi, c, acc, dt, op)?;
    ring_allgather(mpi, c, acc, dt.base_type().size())
}

fn prev_power_of_two(p: usize) -> usize {
    let mut v = 1;
    while v * 2 <= p {
        v *= 2;
    }
    v
}

/// Recursive doubling among `pof2` active ranks (`real` maps new ranks to
/// communicator ranks).
#[allow(clippy::too_many_arguments)]
fn recursive_doubling(
    mpi: &mut Mpi,
    c: &Cc,
    acc: &mut [u8],
    dt: &Datatype,
    op: ReduceOp,
    newrank: usize,
    pof2: usize,
    real: impl Fn(usize) -> usize,
) -> MpiResult<()> {
    let mut mask = 1usize;
    while mask < pof2 {
        let partner = real(newrank ^ mask);
        let tag = tags::ALLREDUCE + 4 + mask.trailing_zeros() as i32;
        let got = exchange(mpi, c, acc, partner, acc.len(), partner, tag)?;
        if got.len() != acc.len() {
            return Err(MpiError::CollectiveMismatch(
                "allreduce contributions differ in size",
            ));
        }
        combine(mpi, op, dt, acc, &got)?;
        mask <<= 1;
    }
    Ok(())
}

/// Rabenseifner's algorithm among `pof2` active ranks: recursive-halving
/// reduce-scatter, then a mirrored recursive-doubling allgather.
#[allow(clippy::too_many_arguments)]
fn rabenseifner(
    mpi: &mut Mpi,
    c: &Cc,
    acc: &mut [u8],
    dt: &Datatype,
    op: ReduceOp,
    newrank: usize,
    pof2: usize,
    real: impl Fn(usize) -> usize,
) -> MpiResult<()> {
    let bs = dt.base_type().size();
    let elems = acc.len() / bs;
    debug_assert_eq!(acc.len() % bs, 0);

    // Reduce-scatter by recursive halving.
    let mut lo = 0usize;
    let mut hi = elems;
    let mut mask = pof2 >> 1;
    let mut steps: Vec<(usize, usize, usize, usize)> = Vec::new(); // (lo, hi, mid, mask)
    while mask > 0 {
        let partner_new = newrank ^ mask;
        let partner = real(partner_new);
        let mid = lo + (hi - lo) / 2;
        let tag = tags::ALLREDUCE + 16 + mask.trailing_zeros() as i32;
        // Keep one half, trade away the other.
        let (keep, give) = if newrank < partner_new {
            (lo * bs..mid * bs, mid * bs..hi * bs)
        } else {
            (mid * bs..hi * bs, lo * bs..mid * bs)
        };
        let got = exchange(mpi, c, &acc[give], partner, keep.len(), partner, tag)?;
        combine(mpi, op, dt, &mut acc[keep], &got)?;
        steps.push((lo, hi, mid, mask));
        if newrank < partner_new {
            hi = mid;
        } else {
            lo = mid;
        }
        mask >>= 1;
    }

    // Allgather by recursive doubling, mirroring the halving steps.
    for &(plo, phi, mid, mask) in steps.iter().rev() {
        let partner_new = newrank ^ mask;
        let partner = real(partner_new);
        let tag = tags::ALLREDUCE + 48 + mask.trailing_zeros() as i32;
        // The lower partner owns [plo, mid), the upper one [mid, phi).
        let (mine, theirs) = if newrank < partner_new {
            (plo * bs..mid * bs, mid * bs..phi * bs)
        } else {
            (mid * bs..phi * bs, plo * bs..mid * bs)
        };
        exchange_into(mpi, c, acc, mine, partner, theirs, partner, tag)?;
    }
    Ok(())
}

/// MVAPICH2-style two-level allreduce.
///
/// Small payloads: serialized shared-memory fan-in to the node leader.
/// Large payloads: cooperative intra-node ring reduce-scatter so all
/// cores share the combining work, then a chunk gather to the leader —
/// the shm-slot behaviour of the real library.
fn two_level(
    mpi: &mut Mpi,
    c: &Cc,
    acc: &mut [u8],
    dt: &Datatype,
    op: ReduceOp,
    tuning: &CollTuning,
) -> MpiResult<()> {
    let h = hierarchy(mpi, c);
    let fanin_max = tuning.two_level_fanin_max;
    let bs = dt.base_type().size();

    // Stage A: node-local reduction to the leader.
    if h.my_node.len() > 1 {
        let m = h.my_node.len();
        if acc.len() <= fanin_max || acc.len() < m * bs {
            // Binomial tree reduction to the node leader (shm-slot-fast
            // for latency-bound payloads).
            if let Some((nc, _)) = sub_cc(c, &h.my_node) {
                tree_reduce(mpi, &nc, acc, dt, op, 0, tags::ALLREDUCE + 80)?;
            }
        } else if let Some((nc, my)) = sub_cc(c, &h.my_node) {
            // Cooperative: ring reduce-scatter, then chunks to the leader.
            let owned = ring_reduce_scatter(mpi, &nc, acc, dt, op)?;
            let n = acc.len();
            if my == 0 {
                // Leader: collect the other m-1 reduced chunks.
                for peer in 1..m {
                    let (lo, hi) = elem_block_range(n, bs, m, (peer + 1) % m);
                    crecv_into(mpi, &nc, &mut acc[lo..hi], peer, tags::ALLREDUCE + 81)?;
                }
            } else {
                let (lo, hi) = elem_block_range(n, bs, m, owned);
                csend(mpi, &nc, &acc[lo..hi], 0, tags::ALLREDUCE + 81)?;
            }
        }
    }

    // Stage B: flat allreduce among the node leaders over the network.
    if h.leader_index.is_some() && h.leaders.len() > 1 {
        if let Some((lc, _)) = sub_cc(c, &h.leaders) {
            flat(mpi, &lc, acc, dt, op, tuning, true)?;
        }
    }

    // Stage C: shared-memory broadcast of the result within each node —
    // binomial when latency-bound, scatter+allgather when
    // bandwidth-bound.
    if h.my_node.len() > 1 {
        if let Some((nc, _)) = sub_cc(c, &h.my_node) {
            if acc.len() <= fanin_max {
                bcast::binomial(mpi, &nc, acc, 0, tags::ALLREDUCE + 96)?;
            } else {
                bcast::scatter_allgather(mpi, &nc, acc, 0, tags::ALLREDUCE + 96)?;
            }
        }
    }
    Ok(())
}
