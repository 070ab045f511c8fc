//! Allgather and allgatherv: ring algorithm.
//!
//! The ring moves each rank's contribution `p-1` hops; every step
//! overlaps a send with a receive, so the wall-clock cost is `(p-1) ×
//! (block transfer)` — the standard bandwidth-friendly choice for
//! medium/large payloads and perfectly adequate for the paper's
//! workloads.

use super::{cc, cisend, crecv, tags};
use crate::comm::CommHandle;
use crate::datatype::Datatype;
use crate::error::{MpiError, MpiResult};
use crate::mpi::Mpi;
use crate::Payload;

/// MPI_Allgather (equal contributions): ring.
pub fn allgather(
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
    let mine = mpi.pack_payload(send, 0, count, dt)?;

    // Own block.
    mpi.unpack_payload(&mine, count, dt, recv, me * count)?;
    if p == 1 {
        return Ok(());
    }

    let next = (me + 1) % p;
    let prev = (me + p - 1) % p;
    // The packed block we pass along next: ours, then the last received.
    let mut forward: Option<Payload> = None;
    for s in 0..p - 1 {
        // The block arriving at step s originated s+1 ranks behind us.
        let incoming_id = (me + p - 1 - s) % p;
        let block = forward.as_deref().unwrap_or(&mine);
        let sreq = cisend(mpi, &c, block, next, tags::ALLGATHER)?;
        let got = crecv(mpi, &c, count * dt.size(), prev, tags::ALLGATHER)?;
        mpi.engine_mut().wait(sreq)?;
        mpi.unpack_payload(&got, count, dt, recv, incoming_id * count)?;
        forward = Some(got);
    }
    Ok(())
}

/// MPI_Allgatherv: ring with per-rank block sizes. `recvcounts`/`displs`
/// are in elements and must be identical on all ranks (MPI requirement).
#[allow(clippy::too_many_arguments)]
pub fn allgatherv(
    mpi: &mut Mpi,
    send: &[u8],
    sendcount: usize,
    recv: &mut [u8],
    recvcounts: &[i32],
    displs: &[i32],
    dt: &Datatype,
    comm: CommHandle,
) -> MpiResult<()> {
    let c = cc(mpi, comm)?;
    let p = c.size();
    let me = c.me;
    if recvcounts.len() != p || displs.len() != p {
        return Err(MpiError::CollectiveMismatch(
            "allgatherv counts/displs must have one entry per rank",
        ));
    }
    if recvcounts[me] as usize != sendcount {
        return Err(MpiError::CollectiveMismatch(
            "allgatherv sendcount must equal recvcounts[me]",
        ));
    }
    let mine = mpi.pack_payload(send, 0, sendcount, dt)?;
    mpi.unpack_payload(&mine, sendcount, dt, recv, displs[me] as usize)?;
    if p == 1 {
        return Ok(());
    }

    let next = (me + 1) % p;
    let prev = (me + p - 1) % p;
    let mut forward: Option<Payload> = None;
    for s in 0..p - 1 {
        let incoming_id = (me + p - 1 - s) % p;
        let cnt = recvcounts[incoming_id];
        if cnt < 0 {
            return Err(MpiError::InvalidCount { count: cnt });
        }
        let cnt = cnt as usize;
        let block = forward.as_deref().unwrap_or(&mine);
        let sreq = cisend(mpi, &c, block, next, tags::ALLGATHER + 1)?;
        let got = crecv(mpi, &c, cnt * dt.size(), prev, tags::ALLGATHER + 1)?;
        mpi.engine_mut().wait(sreq)?;
        mpi.unpack_payload(&got, cnt, dt, recv, displs[incoming_id] as usize)?;
        forward = Some(got);
    }
    Ok(())
}
