//! Broadcast algorithms.
//!
//! * `binomial` — ⌈log₂ p⌉ hops; the classic small-message algorithm.
//! * `scatter_allgather` — van de Geijn: binomial scatter of 1/p blocks
//!   followed by a ring allgather; bandwidth-optimal for large payloads.
//! * `chain` — pipelined chain through the ranks in communicator order;
//!   Open MPI's large-message default, whose long critical path on a
//!   multi-node communicator is a key ingredient of Figure 15.
//! * `two_level` — MVAPICH2-style hierarchical: network stage among node
//!   leaders, shared-memory stage within each node.

use super::{cc, check_root, cisend, crecv, csend, hierarchy, spans_nodes, sub_cc, tags, Cc};
use crate::comm::CommHandle;
use crate::datatype::Datatype;
use crate::error::MpiResult;
use crate::mpi::Mpi;
use vtime::VDur;

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

    // Move to the packed-bytes domain.
    let contiguous = dt.is_contiguous();
    let mut payload: Vec<u8> = if c.me == root {
        let p = dt.pack(buf, count)?;
        if !contiguous {
            let per_byte = mpi.profile().pack_per_byte_ns;
            mpi.clock_mut()
                .charge(VDur::from_nanos(p.len() as f64 * per_byte));
        }
        p
    } else {
        vec![0u8; nbytes]
    };

    let tuning = mpi.profile().coll;
    let begin = mpi.now();
    let algo = if tuning.hierarchical && spans_nodes(mpi, &c) {
        two_level(mpi, &c, &mut payload, root, tuning.bcast_binomial_max)?;
        obs::count(obs::pvar::COLL_BCAST_ALGO_TWO_LEVEL, 1);
        "two_level"
    } else if nbytes <= tuning.bcast_binomial_max {
        binomial(mpi, &c, &mut payload, root, tags::BCAST)?;
        obs::count(obs::pvar::COLL_BCAST_ALGO_BINOMIAL, 1);
        "binomial"
    } else if tuning.hierarchical {
        // MVAPICH2 on a single node: bandwidth-optimal scatter+allgather.
        scatter_allgather(mpi, &c, &mut payload, root, tags::BCAST)?;
        obs::count(obs::pvar::COLL_BCAST_ALGO_SCATTER_ALLGATHER, 1);
        "scatter_allgather"
    } else {
        // Open MPI's tuned module: segmented (pipelined) binomial tree.
        binomial_segmented(
            mpi,
            &c,
            &mut payload,
            root,
            tuning.bcast_segment,
            tags::BCAST,
        )?;
        obs::count(obs::pvar::COLL_BCAST_ALGO_BINOMIAL_SEGMENTED, 1);
        "binomial_segmented"
    };

    if c.me != root {
        dt.unpack(&payload, count, buf)?;
        if !contiguous {
            let per_byte = mpi.profile().pack_per_byte_ns;
            mpi.clock_mut()
                .charge(VDur::from_nanos(payload.len() as f64 * per_byte));
        }
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
            let parent = vrank - mask;
            let got = crecv(mpi, c, payload.len(), real(parent), tag)?;
            payload[..got.len()].copy_from_slice(&got);
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

/// Block boundaries for splitting `n` bytes into `p` near-equal blocks.
fn block_range(n: usize, p: usize, i: usize) -> (usize, usize) {
    let bs = n.div_ceil(p);
    let lo = (bs * i).min(n);
    let hi = (bs * (i + 1)).min(n);
    (lo, hi)
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
            let parent = vrank - mask;
            let (lo, hi) = span(vrank, (vrank + mask).min(p));
            let got = crecv(mpi, c, hi - lo, real(parent), tag)?;
            payload[lo..lo + got.len()].copy_from_slice(&got);
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
            let (lo, hi) = span(child_lo, child_hi.max(child_lo + 1));
            if hi > lo {
                let frag = payload[lo..hi].to_vec();
                csend(mpi, c, &frag, real(child_lo), tag)?;
            } else {
                // Degenerate tiny payload: still synchronize the child.
                csend(mpi, c, &[], real(child_lo), tag)?;
            }
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
        let frag = payload[lo..hi].to_vec();
        let sreq = cisend(mpi, c, &frag, next, tag + 1)?;
        let incoming = (have + p - 1) % p;
        let (ilo, ihi) = block_range(n, p, incoming);
        let got = crecv(mpi, c, ihi - ilo, prev, tag + 1)?;
        payload[ilo..ilo + got.len()].copy_from_slice(&got);
        mpi.engine_mut().wait(sreq)?;
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

/// Pipelined chain broadcast: payload flows root → root+1 → … in
/// `segment`-byte pieces; downstream hops overlap with upstream ones.
/// (Kept for the ablation benches; the Open MPI profile uses the
/// segmented binomial above.)
#[allow(dead_code)]
pub(super) fn chain(
    mpi: &mut Mpi,
    c: &Cc,
    payload: &mut [u8],
    root: usize,
    segment: usize,
    tag: i32,
) -> MpiResult<()> {
    let p = c.size();
    let n = payload.len();
    let vrank = (c.me + p - root) % p;
    let real = |v: usize| (v + root) % p;
    let segment = segment.max(1);
    let nseg = n.div_ceil(segment);
    let mut send_reqs = Vec::new();
    for s in 0..nseg {
        let lo = s * segment;
        let hi = (lo + segment).min(n);
        if vrank > 0 {
            let got = crecv(mpi, c, hi - lo, real(vrank - 1), tag)?;
            payload[lo..lo + got.len()].copy_from_slice(&got);
        }
        if vrank + 1 < p {
            let frag = payload[lo..hi].to_vec();
            send_reqs.push(cisend(mpi, c, &frag, real(vrank + 1), tag)?);
        }
    }
    for r in send_reqs {
        mpi.engine_mut().wait(r)?;
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
            let got = crecv(mpi, c, payload.len(), root, tags::BCAST + 7)?;
            payload[..got.len()].copy_from_slice(&got);
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
