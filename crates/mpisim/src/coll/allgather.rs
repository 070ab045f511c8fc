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
use crate::payload::Payload;
use vtime::VDur;

fn pack_charged(mpi: &mut Mpi, buf: &[u8], count: usize, dt: &Datatype) -> MpiResult<Vec<u8>> {
    let p = dt.pack(buf, count)?;
    if !dt.is_contiguous() {
        let per_byte = mpi.profile().pack_per_byte_ns;
        mpi.clock_mut()
            .charge(VDur::from_nanos(p.len() as f64 * per_byte));
    }
    Ok(p)
}

fn unpack_block(
    mpi: &mut Mpi,
    data: &[u8],
    count: usize,
    dt: &Datatype,
    out: &mut [u8],
    elem_offset: usize,
) -> MpiResult<()> {
    let start = elem_offset * dt.extent();
    let end = start + dt.span(count);
    if out.len() < end {
        return Err(MpiError::BufferTooSmall {
            needed: end,
            available: out.len(),
        });
    }
    dt.unpack(data, count, &mut out[start..end])?;
    if !dt.is_contiguous() {
        let per_byte = mpi.profile().pack_per_byte_ns;
        mpi.clock_mut()
            .charge(VDur::from_nanos(data.len() as f64 * per_byte));
    }
    Ok(())
}

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
    let mine = pack_charged(mpi, send, count, dt)?;

    // Own block.
    unpack_block(mpi, &mine, count, dt, recv, me * count)?;
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
        unpack_block(mpi, &got, count, dt, recv, incoming_id * count)?;
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
    let mine = pack_charged(mpi, send, sendcount, dt)?;
    unpack_block(mpi, &mine, sendcount, dt, recv, displs[me] as usize)?;
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
        unpack_block(mpi, &got, cnt, dt, recv, displs[incoming_id] as usize)?;
        forward = Some(got);
    }
    Ok(())
}
