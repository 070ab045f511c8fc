//! Alltoall and alltoallv: pairwise-exchange (ring-offset) algorithm.
//!
//! At step `s`, every rank sends its block for `(me + s) mod p` and
//! receives from `(me - s) mod p`; p steps move all p² blocks with full
//! link utilization and no hot spot.

use super::{cc, cisend, crecv, tags};
use crate::comm::CommHandle;
use crate::datatype::Datatype;
use crate::error::{MpiError, MpiResult};
use crate::mpi::Mpi;

/// MPI_Alltoall (equal blocks of `count` elements).
pub fn alltoall(
    mpi: &mut Mpi,
    send: &[u8],
    recv: &mut [u8],
    count: usize,
    dt: &Datatype,
    comm: CommHandle,
) -> MpiResult<()> {
    let c = cc(mpi, comm)?;
    let p = c.size();
    let me = c.me;

    // Step 0: local block.
    let own = mpi.pack_payload(send, me * count, count, dt)?;
    mpi.unpack_payload(&own, count, dt, recv, me * count)?;

    for s in 1..p {
        let dst = (me + s) % p;
        let src = (me + p - s) % p;
        let out = mpi.pack_payload(send, dst * count, count, dt)?;
        let sreq = cisend(mpi, &c, &out, dst, tags::ALLTOALL)?;
        let got = crecv(mpi, &c, count * dt.size(), src, tags::ALLTOALL)?;
        mpi.engine_mut().wait(sreq)?;
        mpi.unpack_payload(&got, count, dt, recv, src * count)?;
    }
    Ok(())
}

/// MPI_Alltoallv: pairwise exchange with per-peer counts/displacements
/// (all in elements).
#[allow(clippy::too_many_arguments)]
pub fn alltoallv(
    mpi: &mut Mpi,
    send: &[u8],
    sendcounts: &[i32],
    sdispls: &[i32],
    recv: &mut [u8],
    recvcounts: &[i32],
    rdispls: &[i32],
    dt: &Datatype,
    comm: CommHandle,
) -> MpiResult<()> {
    let c = cc(mpi, comm)?;
    let p = c.size();
    let me = c.me;
    if sendcounts.len() != p || sdispls.len() != p || recvcounts.len() != p || rdispls.len() != p {
        return Err(MpiError::CollectiveMismatch(
            "alltoallv counts/displs must have one entry per rank",
        ));
    }
    for r in 0..p {
        if sendcounts[r] < 0 || recvcounts[r] < 0 || sdispls[r] < 0 || rdispls[r] < 0 {
            return Err(MpiError::InvalidCount {
                count: sendcounts[r]
                    .min(recvcounts[r])
                    .min(sdispls[r])
                    .min(rdispls[r]),
            });
        }
    }

    let own = mpi.pack_payload(send, sdispls[me] as usize, sendcounts[me] as usize, dt)?;
    mpi.unpack_payload(
        &own,
        recvcounts[me] as usize,
        dt,
        recv,
        rdispls[me] as usize,
    )?;

    for s in 1..p {
        let dst = (me + s) % p;
        let src = (me + p - s) % p;
        let out = mpi.pack_payload(send, sdispls[dst] as usize, sendcounts[dst] as usize, dt)?;
        let sreq = cisend(mpi, &c, &out, dst, tags::ALLTOALL + 1)?;
        let got = crecv(
            mpi,
            &c,
            recvcounts[src] as usize * dt.size(),
            src,
            tags::ALLTOALL + 1,
        )?;
        mpi.engine_mut().wait(sreq)?;
        mpi.unpack_payload(
            &got,
            recvcounts[src] as usize,
            dt,
            recv,
            rdispls[src] as usize,
        )?;
    }
    Ok(())
}
