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

use super::{bcast, cc, check_root, crecv, csend, hierarchy, spans_nodes, sub_cc, tags, Cc};
use crate::comm::CommHandle;
use crate::datatype::Datatype;
use crate::error::{MpiError, MpiResult};
use crate::mpi::Mpi;
use crate::op::{self, ReduceOp};
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

/// Pack the send buffer, charging for non-contiguous layouts.
fn pack_charged(mpi: &mut Mpi, buf: &[u8], count: usize, dt: &Datatype) -> MpiResult<Vec<u8>> {
    let p = dt.pack(buf, count)?;
    if !dt.is_contiguous() {
        let per_byte = mpi.profile().pack_per_byte_ns;
        mpi.clock_mut()
            .charge(VDur::from_nanos(p.len() as f64 * per_byte));
    }
    Ok(p)
}

fn unpack_charged(
    mpi: &mut Mpi,
    data: &[u8],
    count: usize,
    dt: &Datatype,
    out: &mut [u8],
) -> MpiResult<()> {
    dt.unpack(data, count, out)?;
    if !dt.is_contiguous() {
        let per_byte = mpi.profile().pack_per_byte_ns;
        mpi.clock_mut()
            .charge(VDur::from_nanos(data.len() as f64 * per_byte));
    }
    Ok(())
}

/// MPI_Reduce: binomial tree rooted at `root`.
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
    let mut acc = pack_charged(mpi, send, count, dt)?;
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
        unpack_charged(mpi, &acc, count, dt, out)?;
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
    let mut acc = pack_charged(mpi, send, count, dt)?;
    let begin = mpi.now();
    let nbytes = acc.len();

    if c.size() > 1 && !acc.is_empty() {
        let tuning = mpi.profile().coll;
        if tuning.hierarchical && spans_nodes(mpi, &c) && acc.len() <= tuning.two_level_max {
            obs::count(obs::pvar::COLL_ALLREDUCE_ALGO_TWO_LEVEL, 1);
            two_level(mpi, &c, &mut acc, dt, op, tuning.allreduce_rd_max)?;
        } else {
            flat(mpi, &c, &mut acc, dt, op, &tuning)?;
        }
    }

    unpack_charged(mpi, &acc, count, dt, recv)?;
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
/// standard fold for non-power-of-two sizes.
pub(super) fn flat(
    mpi: &mut Mpi,
    c: &Cc,
    acc: &mut [u8],
    dt: &Datatype,
    op: ReduceOp,
    tuning: &crate::profile::CollTuning,
) -> MpiResult<()> {
    let rd_max = tuning.allreduce_rd_max;
    // Ring allreduce (Open MPI's large-message default): bandwidth
    // optimal but with a 2(p-1)-step critical path.
    if acc.len() > rd_max
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
        if me % 2 == 0 {
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
        if acc.len() <= rd_max || acc.len() < pof2 * dt.base_type().size() {
            obs::count(obs::pvar::COLL_ALLREDUCE_ALGO_RECURSIVE_DOUBLING, 1);
            recursive_doubling(mpi, c, acc, dt, op, nr, pof2, real)?;
        } else {
            obs::count(obs::pvar::COLL_ALLREDUCE_ALGO_RABENSEIFNER, 1);
            rabenseifner(mpi, c, acc, dt, op, nr, pof2, real)?;
        }
    }

    // Unfold: odds hand the final vector back to their even partner.
    if me < 2 * rem {
        if me % 2 == 1 {
            csend(mpi, c, acc, me - 1, tags::ALLREDUCE + 2)?;
        } else {
            let got = crecv(mpi, c, acc.len(), me + 1, tags::ALLREDUCE + 2)?;
            acc.copy_from_slice(&got);
        }
    }
    Ok(())
}

/// Flat allreduce restricted to RD/Rabenseifner (used by the leader
/// stage of the two-level algorithm).
fn flat_rd_or_raben(
    mpi: &mut Mpi,
    c: &Cc,
    acc: &mut [u8],
    dt: &Datatype,
    op: ReduceOp,
    rd_max: usize,
) -> MpiResult<()> {
    let p = c.size();
    let pof2 = prev_power_of_two(p);
    let rem = p - pof2;
    let me = c.me;
    let newrank: Option<usize> = if me < 2 * rem {
        if me % 2 == 0 {
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
        let real = |v: usize| if v < rem { 2 * v + 1 } else { v + rem };
        if acc.len() <= rd_max || acc.len() < pof2 * dt.base_type().size() {
            recursive_doubling(mpi, c, acc, dt, op, nr, pof2, real)?;
        } else {
            rabenseifner(mpi, c, acc, dt, op, nr, pof2, real)?;
        }
    }
    if me < 2 * rem {
        if me % 2 == 1 {
            csend(mpi, c, acc, me - 1, tags::ALLREDUCE + 2)?;
        } else {
            let got = crecv(mpi, c, acc.len(), me + 1, tags::ALLREDUCE + 2)?;
            acc.copy_from_slice(&got);
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

/// Chunk boundaries (bytes) for splitting `elems` base elements into `p`
/// near-equal chunks.
fn chunk_range(elems: usize, bs: usize, p: usize, i: usize) -> (usize, usize) {
    let per = elems.div_ceil(p);
    let lo = (per * i).min(elems);
    let hi = (per * (i + 1)).min(elems);
    (lo * bs, hi * bs)
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
    let elems = acc.len() / bs;
    let next = (me + 1) % p;
    let prev = (me + p - 1) % p;
    for s in 0..p - 1 {
        let send_id = (me + p - s) % p;
        let recv_id = (me + p - s - 1) % p;
        let (slo, shi) = chunk_range(elems, bs, p, send_id);
        let frag = acc[slo..shi].to_vec();
        let (rlo, rhi) = chunk_range(elems, bs, p, recv_id);
        let got = super::exchange(mpi, c, &frag, next, rhi - rlo, prev, tags::ALLREDUCE + 8)?;
        let dst = &mut acc[rlo..rhi];
        op::apply(op, dt, dst, &got)?;
        charge_reduce(mpi, got.len());
    }
    Ok((me + 1) % p)
}

/// Ring allgather of the per-rank chunks (inverse of the reduce-scatter).
fn ring_allgather(mpi: &mut Mpi, c: &Cc, acc: &mut [u8], bs: usize) -> MpiResult<()> {
    let p = c.size();
    let me = c.me;
    let elems = acc.len() / bs;
    let next = (me + 1) % p;
    let prev = (me + p - 1) % p;
    for s in 0..p - 1 {
        let send_id = (me + 1 + p - s) % p;
        let recv_id = (me + p - s) % p;
        let (slo, shi) = chunk_range(elems, bs, p, send_id);
        let frag = acc[slo..shi].to_vec();
        let (rlo, rhi) = chunk_range(elems, bs, p, recv_id);
        let got = super::exchange(mpi, c, &frag, next, rhi - rlo, prev, tags::ALLREDUCE + 9)?;
        acc[rlo..rlo + got.len()].copy_from_slice(&got);
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
        let got = super::exchange(mpi, c, acc, partner, acc.len(), partner, tag)?;
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
        if newrank < partner_new {
            // Keep [lo, mid); trade away [mid, hi).
            let send_frag = acc[mid * bs..hi * bs].to_vec();
            let got = super::exchange(mpi, c, &send_frag, partner, (mid - lo) * bs, partner, tag)?;
            let dst = &mut acc[lo * bs..mid * bs];
            op::apply(op, dt, dst, &got)?;
            charge_reduce(mpi, got.len());
            steps.push((lo, hi, mid, mask));
            hi = mid;
        } else {
            let send_frag = acc[lo * bs..mid * bs].to_vec();
            let got = super::exchange(mpi, c, &send_frag, partner, (hi - mid) * bs, partner, tag)?;
            let dst = &mut acc[mid * bs..hi * bs];
            op::apply(op, dt, dst, &got)?;
            charge_reduce(mpi, got.len());
            steps.push((lo, hi, mid, mask));
            lo = mid;
        }
        mask >>= 1;
    }

    // Allgather by recursive doubling, mirroring the halving steps.
    for &(plo, phi, mid, mask) in steps.iter().rev() {
        let partner_new = newrank ^ mask;
        let partner = real(partner_new);
        let tag = tags::ALLREDUCE + 48 + mask.trailing_zeros() as i32;
        if newrank < partner_new {
            // I own [plo, mid); partner owns [mid, phi).
            let send_frag = acc[plo * bs..mid * bs].to_vec();
            let got = super::exchange(mpi, c, &send_frag, partner, (phi - mid) * bs, partner, tag)?;
            acc[mid * bs..mid * bs + got.len()].copy_from_slice(&got);
        } else {
            let send_frag = acc[mid * bs..phi * bs].to_vec();
            let got = super::exchange(mpi, c, &send_frag, partner, (mid - plo) * bs, partner, tag)?;
            acc[plo * bs..plo * bs + got.len()].copy_from_slice(&got);
        }
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
    rd_max: usize,
) -> MpiResult<()> {
    let h = hierarchy(mpi, c);
    let fanin_max = mpi.profile().coll.two_level_fanin_max;
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
            let elems = acc.len() / bs;
            if my == 0 {
                // Leader: collect the other m-1 reduced chunks.
                for peer in 1..m {
                    let peer_chunk = (peer + 1) % m;
                    let (lo, hi) = chunk_range(elems, bs, m, peer_chunk);
                    let got = crecv(mpi, &nc, hi - lo, peer, tags::ALLREDUCE + 81)?;
                    acc[lo..lo + got.len()].copy_from_slice(&got);
                }
            } else {
                let (lo, hi) = chunk_range(elems, bs, m, owned);
                let frag = acc[lo..hi].to_vec();
                csend(mpi, &nc, &frag, 0, tags::ALLREDUCE + 81)?;
            }
        }
    }

    // Stage B: flat allreduce among the node leaders over the network.
    if h.leader_index.is_some() && h.leaders.len() > 1 {
        if let Some((lc, _)) = sub_cc(c, &h.leaders) {
            flat_rd_or_raben(mpi, &lc, acc, dt, op, rd_max)?;
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
