//! Broadcast algorithms.
//!
//! * `binomial` — ⌈log₂ p⌉ hops; the classic small-message algorithm.
//! * `scatter_allgather` — van de Geijn: binomial scatter of 1/p blocks
//!   followed by a ring allgather; bandwidth-optimal for large payloads.
//! * `binomial_segmented` — the binomial tree applied segment by
//!   segment; Open MPI's large-message default.
//! * `two_level` — MVAPICH2-style hierarchical: network stage among node
//!   leaders, shared-memory stage within each node.

use super::{
    block_range, cc, check_root, crecv_into, csend, exchange_into, hierarchy, spans_nodes, sub_cc,
    tags, Cc,
};
use crate::comm::CommHandle;
use crate::datatype::Datatype;
use crate::error::MpiResult;
use crate::mpi::Mpi;

/// Entry point: algorithm selection per the library profile.
pub fn bcast(
    mpi: &mut Mpi,
    buf: &mut [u8],
    count: usize,
    dt: &Datatype,
    root: usize,
    comm: CommHandle,
) -> MpiResult<()> {
    let mut c = cc(mpi, comm)?;
    check_root(&c, root)?;
    // Bcast-specific scheduling overhead (profile tuning).
    c.perhop += vtime::VDur::from_nanos(mpi.profile().coll.bcast_perhop_extra_ns);
    let nbytes = dt.size() * count;
    if c.size() == 1 || nbytes == 0 {
        return Ok(());
    }

    // A contiguous layout that fits is broadcast in the caller's buffer
    // itself. Otherwise the root packs (a short contiguous root buffer
    // fails here) and the others receive into a temporary, unpacked
    // after the rank has taken its full part.
    let in_place = dt.is_contiguous() && buf.len() >= nbytes;
    let mut packed = Vec::new();
    if !in_place {
        packed = if c.me == root {
            mpi.pack_payload(buf, 0, count, dt)?.into_owned()
        } else {
            vec![0u8; nbytes]
        };
    }
    let payload: &mut [u8] = if in_place {
        &mut buf[..nbytes]
    } else {
        &mut packed
    };

    let tuning = mpi.profile().coll;
    let begin = mpi.now();
    let algo = if tuning.hierarchical && spans_nodes(mpi, &c) {
        two_level(mpi, &c, payload, root, tuning.bcast_binomial_max)?;
        obs::count(obs::pvar::COLL_BCAST_ALGO_TWO_LEVEL, 1);
        "two_level"
    } else if nbytes <= tuning.bcast_binomial_max {
        binomial(mpi, &c, payload, root, tags::BCAST)?;
        obs::count(obs::pvar::COLL_BCAST_ALGO_BINOMIAL, 1);
        "binomial"
    } else if tuning.hierarchical {
        // MVAPICH2 on a single node: bandwidth-optimal scatter+allgather.
        scatter_allgather(mpi, &c, payload, root, tags::BCAST)?;
        obs::count(obs::pvar::COLL_BCAST_ALGO_SCATTER_ALLGATHER, 1);
        "scatter_allgather"
    } else {
        // Open MPI's tuned module: segmented (pipelined) binomial tree.
        binomial_segmented(mpi, &c, payload, root, tuning.bcast_segment, tags::BCAST)?;
        obs::count(obs::pvar::COLL_BCAST_ALGO_BINOMIAL_SEGMENTED, 1);
        "binomial_segmented"
    };

    if !in_place && c.me != root {
        mpi.unpack_payload(&packed, count, dt, buf, 0)?;
    }
    if obs::tracing_enabled() {
        obs::span(
            "bcast",
            "coll",
            begin,
            mpi.now(),
            vec![
                ("algo", obs::ArgValue::Str(algo)),
                ("bytes", obs::ArgValue::U64(nbytes as u64)),
                ("root", obs::ArgValue::U64(root as u64)),
                ("ranks", obs::ArgValue::U64(c.size() as u64)),
            ],
        );
    }
    Ok(())
}

/// Binomial-tree broadcast over the whole sub-communicator `c`.
pub(super) fn binomial(
    mpi: &mut Mpi,
    c: &Cc,
    payload: &mut [u8],
    root: usize,
    tag: i32,
) -> MpiResult<()> {
    let p = c.size();
    let vrank = (c.me + p - root) % p;
    let real = |v: usize| (v + root) % p;

    // Receive phase: the lowest set bit of vrank identifies the parent.
    let mut mask = 1usize;
    while mask < p {
        if vrank & mask != 0 {
            crecv_into(mpi, c, payload, real(vrank - mask), tag)?;
            break;
        }
        mask <<= 1;
    }
    // Send phase: peel off bits below the receive mask.
    mask >>= 1;
    while mask > 0 {
        if vrank + mask < p {
            csend(mpi, c, payload, real(vrank + mask), tag)?;
        }
        mask >>= 1;
    }
    Ok(())
}

/// Van-de-Geijn broadcast: binomial scatter of 1/p blocks, then a ring
/// allgather. Every rank ends with the full payload.
pub(super) fn scatter_allgather(
    mpi: &mut Mpi,
    c: &Cc,
    payload: &mut [u8],
    root: usize,
    tag: i32,
) -> MpiResult<()> {
    let p = c.size();
    let n = payload.len();
    let vrank = (c.me + p - root) % p;
    let real = |v: usize| (v + root) % p;
    let span = |lo_blk: usize, hi_blk: usize| -> (usize, usize) {
        (block_range(n, p, lo_blk).0, block_range(n, p, hi_blk - 1).1)
    };

    // --- Binomial scatter: after this phase, vrank v holds block v. ---
    // Receive phase: on receipt at distance `mask`, this rank temporarily
    // owns blocks [vrank, min(vrank+mask, p)).
    let mut mask = 1usize;
    let mut owned_hi = p; // root owns everything
    while mask < p {
        if vrank & mask != 0 {
            let (lo, hi) = span(vrank, (vrank + mask).min(p));
            crecv_into(mpi, c, &mut payload[lo..hi], real(vrank - mask), tag)?;
            owned_hi = (vrank + mask).min(p);
            break;
        }
        mask <<= 1;
    }
    // Send phase: hand the upper half of the owned range to the child.
    // (For the root the receive loop exits with mask = 2^⌈log₂ p⌉.)
    mask >>= 1;
    while mask > 0 {
        if vrank + mask < owned_hi {
            let child_lo = vrank + mask;
            let child_hi = owned_hi.min(child_lo + mask);
            // A degenerate tiny payload sends an empty fragment, which
            // still synchronizes the child.
            let (lo, hi) = span(child_lo, child_hi.max(child_lo + 1));
            csend(mpi, c, &payload[lo..hi], real(child_lo), tag)?;
            owned_hi = child_lo;
        }
        mask >>= 1;
    }

    // --- Ring allgather of the p blocks (block ids are vranks). ---
    let next = real((vrank + 1) % p);
    let prev = real((vrank + p - 1) % p);
    let mut have = vrank; // block id we forward next
    for _ in 0..p - 1 {
        let (lo, hi) = block_range(n, p, have);
        let incoming = (have + p - 1) % p;
        let (ilo, ihi) = block_range(n, p, incoming);
        exchange_into(mpi, c, payload, lo..hi, next, ilo..ihi, prev, tag + 1)?;
        have = incoming;
    }
    Ok(())
}

/// Segmented binomial broadcast: the binomial tree is applied
/// segment-by-segment, so an inner node forwards segment `s` to its
/// children while receiving segment `s+1` from its parent (eager sends
/// make the overlap real). Open MPI's tuned large-message behaviour.
pub(super) fn binomial_segmented(
    mpi: &mut Mpi,
    c: &Cc,
    payload: &mut [u8],
    root: usize,
    segment: usize,
    tag: i32,
) -> MpiResult<()> {
    let n = payload.len();
    let segment = segment.max(1);
    let mut lo = 0usize;
    while lo < n {
        let hi = (lo + segment).min(n);
        binomial(mpi, c, &mut payload[lo..hi], root, tag)?;
        lo = hi;
    }
    Ok(())
}

/// MVAPICH2-style two-level broadcast.
pub(super) fn two_level(
    mpi: &mut Mpi,
    c: &Cc,
    payload: &mut [u8],
    root: usize,
    binomial_max: usize,
) -> MpiResult<()> {
    let h = hierarchy(mpi, c);
    // The leader of the root's node starts the network stage.
    let topo = *mpi.topology();
    let root_node = topo.node_of(c.world(root));
    let root_leader = *h
        .leaders
        .iter()
        .find(|&&l| topo.node_of(c.world(l)) == root_node)
        .expect("root's node has a leader");

    // Stage A: root hands the payload to its node leader if needed.
    if root != root_leader {
        if c.me == root {
            csend(mpi, c, payload, root_leader, tags::BCAST + 7)?;
        } else if c.me == root_leader {
            crecv_into(mpi, c, payload, root, tags::BCAST + 7)?;
        }
    }

    // Stage B: broadcast among node leaders (network stage).
    if h.leaders.len() > 1 {
        if let Some((lc, _)) = sub_cc(c, &h.leaders) {
            let lroot = h
                .leaders
                .iter()
                .position(|&l| l == root_leader)
                .expect("root leader is a leader");
            if payload.len() <= binomial_max {
                binomial(mpi, &lc, payload, lroot, tags::BCAST + 8)?;
            } else {
                scatter_allgather(mpi, &lc, payload, lroot, tags::BCAST + 8)?;
            }
        }
    }

    // Stage C: shared-memory broadcast within each node, rooted at the
    // node leader. Binomial for latency-bound payloads, scatter+allgather
    // for bandwidth-bound ones (the shm-slot pipelined path).
    if h.my_node.len() > 1 {
        if let Some((nc, _)) = sub_cc(c, &h.my_node) {
            if payload.len() <= binomial_max {
                binomial(mpi, &nc, payload, 0, tags::BCAST + 12)?;
            } else {
                scatter_allgather(mpi, &nc, payload, 0, tags::BCAST + 12)?;
            }
        }
    }
    Ok(())
}
