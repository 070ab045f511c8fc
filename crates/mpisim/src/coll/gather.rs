//! Rooted data-movement collectives: gather, scatter and their vectored
//! variants.
//!
//! Gather and scatter use binomial trees (subtree aggregation / recursive
//! splitting). The vectored variants use the linear root-centric
//! algorithm, like most production MPI implementations: irregular block
//! sizes defeat tree aggregation.

use std::borrow::Cow;

use super::{cc, check_root, cisend, crecv, csend, tags};
use crate::comm::CommHandle;
use crate::datatype::Datatype;
use crate::error::{MpiError, MpiResult};
use crate::mpi::Mpi;
use crate::Payload;
use obs::wallprof::{self, Counter};

/// MPI_Gather: binomial subtree aggregation.
pub fn gather(
    mpi: &mut Mpi,
    send: &[u8],
    recv: Option<&mut [u8]>,
    count: usize,
    dt: &Datatype,
    root: usize,
    comm: CommHandle,
) -> MpiResult<()> {
    let c = cc(mpi, comm)?;
    check_root(&c, root)?;
    let p = c.size();
    let bs = dt.size() * count; // packed block size per rank
    let vrank = (c.me + p - root) % p;
    let real = |v: usize| (v + root) % p;

    // Subtree buffer in vrank order: block for vrank v at (v - vrank)*bs.
    let mut vbuf = mpi.pack_owned(send, count, dt)?;

    let mut mask = 1usize;
    let mut subtree = 1usize; // blocks currently held: [vrank, vrank+subtree)
    while mask < p {
        if vrank & mask == 0 {
            let child = vrank + mask;
            if child < p {
                let child_blocks = mask.min(p - child);
                let got = crecv(mpi, &c, child_blocks * bs, real(child), tags::GATHER)?;
                vbuf.extend_from_slice(&got);
                wallprof::add(Counter::CopyBytes, got.len() as u64);
                subtree += child_blocks;
            }
        } else {
            csend(mpi, &c, &vbuf, real(vrank - mask), tags::GATHER)?;
            break;
        }
        mask <<= 1;
    }
    let _ = subtree;

    if c.me == root {
        let out = recv.ok_or(MpiError::BufferTooSmall {
            needed: p * bs,
            available: 0,
        })?;
        // vbuf holds blocks for vranks 0..p; map vrank v → comm rank.
        for v in 0..p {
            let r = real(v);
            mpi.unpack_payload(&vbuf[v * bs..(v + 1) * bs], count, dt, out, r * count)?;
        }
    }
    Ok(())
}

/// MPI_Gatherv: linear algorithm; `recvcounts`/`displs` are in elements,
/// significant only at the root.
#[allow(clippy::too_many_arguments)]
pub fn gatherv(
    mpi: &mut Mpi,
    send: &[u8],
    sendcount: usize,
    recv: Option<&mut [u8]>,
    recvcounts: &[i32],
    displs: &[i32],
    dt: &Datatype,
    root: usize,
    comm: CommHandle,
) -> MpiResult<()> {
    let c = cc(mpi, comm)?;
    check_root(&c, root)?;
    let p = c.size();

    if c.me != root {
        let payload = mpi.pack_payload(send, 0, sendcount, dt)?;
        return csend(mpi, &c, &payload, root, tags::GATHER + 1);
    }

    if recvcounts.len() != p || displs.len() != p {
        return Err(MpiError::CollectiveMismatch(
            "gatherv counts/displs must have one entry per rank",
        ));
    }
    let out = recv.ok_or(MpiError::BufferTooSmall {
        needed: 0,
        available: 0,
    })?;
    for r in 0..p {
        let cnt = recvcounts[r];
        if cnt < 0 || displs[r] < 0 {
            return Err(MpiError::InvalidCount { count: cnt });
        }
        let cnt = cnt as usize;
        let (packed, got);
        let block: &[u8] = if r == root {
            packed = mpi.pack_payload(send, 0, sendcount.min(cnt), dt)?;
            &packed
        } else {
            got = crecv(mpi, &c, cnt * dt.size(), r, tags::GATHER + 1)?;
            &got
        };
        mpi.unpack_payload(block, cnt, dt, out, displs[r] as usize)?;
    }
    Ok(())
}

/// MPI_Scatter: binomial recursive splitting (inverse of gather).
pub fn scatter(
    mpi: &mut Mpi,
    send: Option<&[u8]>,
    recv: &mut [u8],
    count: usize,
    dt: &Datatype,
    root: usize,
    comm: CommHandle,
) -> MpiResult<()> {
    let c = cc(mpi, comm)?;
    check_root(&c, root)?;
    let p = c.size();
    let bs = dt.size() * count;
    let vrank = (c.me + p - root) % p;
    let real = |v: usize| (v + root) % p;

    // vbuf holds packed blocks for vranks [vrank, vrank+owned): the
    // root packs them, every other rank receives them.
    let mut packed_blocks = Vec::new();
    let got_blocks: Payload;
    let vbuf: &[u8];
    let mut owned: usize;
    if c.me == root {
        let src = send.ok_or(MpiError::BufferTooSmall {
            needed: p * bs,
            available: 0,
        })?;
        // Pack per-rank blocks into vrank order.
        packed_blocks.reserve(p * bs);
        for v in 0..p {
            let packed = mpi.pack_payload(src, real(v) * count, count, dt)?;
            packed_blocks.extend_from_slice(&packed);
            wallprof::add(Counter::CopyBytes, packed.len() as u64);
        }
        vbuf = &packed_blocks;
        owned = p;
    } else {
        // Receive phase of the binomial tree.
        let mut mask = 1usize;
        while vrank & mask == 0 {
            mask <<= 1;
        }
        owned = mask.min(p - vrank);
        got_blocks = crecv(mpi, &c, owned * bs, real(vrank - mask), tags::SCATTER)?;
        vbuf = &got_blocks;
    }

    // Send phase: peel the upper halves off to children.
    let mut mask = {
        // The mask at which this rank received (or 2^⌈log₂p⌉ for root).
        if vrank == 0 {
            p.next_power_of_two()
        } else {
            vrank & vrank.wrapping_neg() // lowest set bit
        }
    } >> 1;
    while mask > 0 {
        if vrank + mask < vrank + owned {
            let child = vrank + mask;
            let child_blocks = owned - mask;
            let frag = &vbuf[mask * bs..(mask + child_blocks) * bs];
            csend(mpi, &c, frag, real(child), tags::SCATTER)?;
            owned = mask;
        }
        mask >>= 1;
    }

    mpi.unpack_payload(&vbuf[..bs.min(vbuf.len())], count, dt, recv, 0)?;
    Ok(())
}

/// MPI_Scatterv: linear algorithm from the root.
#[allow(clippy::too_many_arguments)]
pub fn scatterv(
    mpi: &mut Mpi,
    send: Option<&[u8]>,
    sendcounts: &[i32],
    displs: &[i32],
    recv: &mut [u8],
    recvcount: usize,
    dt: &Datatype,
    root: usize,
    comm: CommHandle,
) -> MpiResult<()> {
    let c = cc(mpi, comm)?;
    check_root(&c, root)?;
    let p = c.size();

    if c.me != root {
        let got = crecv(mpi, &c, recvcount * dt.size(), root, tags::SCATTER + 1)?;
        let n = got.len() / dt.size().max(1);
        return mpi.unpack_payload(&got, n, dt, recv, 0);
    }

    if sendcounts.len() != p || displs.len() != p {
        return Err(MpiError::CollectiveMismatch(
            "scatterv counts/displs must have one entry per rank",
        ));
    }
    let src = send.ok_or(MpiError::BufferTooSmall {
        needed: 0,
        available: 0,
    })?;
    let mut reqs = Vec::new();
    let mut own: Option<Cow<[u8]>> = None;
    for r in 0..p {
        let cnt = sendcounts[r];
        if cnt < 0 || displs[r] < 0 {
            return Err(MpiError::InvalidCount { count: cnt });
        }
        let packed = mpi.pack_payload(src, displs[r] as usize, cnt as usize, dt)?;
        if r == root {
            own = Some(packed);
        } else {
            reqs.push(cisend(mpi, &c, &packed, r, tags::SCATTER + 1)?);
        }
    }
    if let Some(mine) = own {
        let n = mine.len() / dt.size().max(1);
        mpi.unpack_payload(&mine, n.min(recvcount), dt, recv, 0)?;
    }
    for r in reqs {
        mpi.engine_mut().wait(r)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::super::mpi::run_mpi;
    use crate::datatype::INT;
    use crate::profile::Profile;
    use simfabric::Topology;

    fn ints(v: &[i32]) -> Vec<u8> {
        v.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    fn to_ints(b: &[u8]) -> Vec<i32> {
        b.chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    #[test]
    fn gather_collects_in_rank_order() {
        for p in [1usize, 2, 3, 5, 8] {
            for root in [0, p - 1] {
                let res = run_mpi(Topology::new(1, p), Profile::mvapich2(), move |mpi| {
                    let w = mpi.world();
                    let me = mpi.rank(w).unwrap() as i32;
                    let send = ints(&[me * 10, me * 10 + 1]);
                    let mut recv = vec![0u8; 8 * p];
                    let out = (me as usize == root).then_some(&mut recv[..]);
                    mpi.gather(&send, out, 2, &INT, root, w).unwrap();
                    (me as usize == root).then(|| to_ints(&recv))
                });
                let got = res[root].clone().unwrap();
                let want: Vec<i32> = (0..p as i32).flat_map(|r| [r * 10, r * 10 + 1]).collect();
                assert_eq!(got, want, "p={p} root={root}");
            }
        }
    }

    #[test]
    fn scatter_distributes_in_rank_order() {
        for p in [1usize, 2, 4, 6] {
            for root in [0, p / 2] {
                let res = run_mpi(Topology::new(1, p), Profile::openmpi_ucx(), move |mpi| {
                    let w = mpi.world();
                    let me = mpi.rank(w).unwrap();
                    let all: Vec<i32> = (0..2 * p as i32).collect();
                    let send = ints(&all);
                    let mut recv = vec![0u8; 8];
                    let src = (me == root).then_some(&send[..]);
                    mpi.scatter(src, &mut recv, 2, &INT, root, w).unwrap();
                    to_ints(&recv)
                });
                for (r, got) in res.iter().enumerate() {
                    assert_eq!(got, &[2 * r as i32, 2 * r as i32 + 1], "p={p} root={root}");
                }
            }
        }
    }

    #[test]
    fn gatherv_with_uneven_blocks() {
        let p = 4;
        let res = run_mpi(Topology::new(2, 2), Profile::mvapich2(), move |mpi| {
            let w = mpi.world();
            let me = mpi.rank(w).unwrap();
            // Rank r contributes r+1 ints.
            let mine: Vec<i32> = (0..=me as i32).map(|i| me as i32 * 100 + i).collect();
            let send = ints(&mine);
            let recvcounts = [1, 2, 3, 4];
            let displs = [0, 1, 3, 6];
            let mut recv = vec![0u8; 4 * 10];
            let out = (me == 0).then_some(&mut recv[..]);
            mpi.gatherv(&send, me as i32 + 1, out, &recvcounts, &displs, &INT, 0, w)
                .unwrap();
            (me == 0).then(|| to_ints(&recv))
        });
        let got = res[0].clone().unwrap();
        assert_eq!(got, vec![0, 100, 101, 200, 201, 202, 300, 301, 302, 303]);
        let _ = p;
    }

    #[test]
    fn scatterv_with_uneven_blocks() {
        let res = run_mpi(Topology::new(1, 3), Profile::openmpi_ucx(), |mpi| {
            let w = mpi.world();
            let me = mpi.rank(w).unwrap();
            let all: Vec<i32> = (0..6).collect();
            let send = ints(&all);
            let sendcounts = [3i32, 1, 2];
            let displs = [0i32, 3, 4];
            let want = sendcounts[me] as usize;
            let mut recv = vec![0u8; 4 * want];
            let src = (me == 0).then_some(&send[..]);
            mpi.scatterv(
                src,
                &sendcounts,
                &displs,
                &mut recv,
                want as i32,
                &INT,
                0,
                w,
            )
            .unwrap();
            to_ints(&recv)
        });
        assert_eq!(res[0], vec![0, 1, 2]);
        assert_eq!(res[1], vec![3]);
        assert_eq!(res[2], vec![4, 5]);
    }
}
