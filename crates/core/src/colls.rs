//! Collective bindings (Section IV-D): blocking collectives and their
//! vectored variants, for direct ByteBuffers and Java arrays.
//!
//! "Like the point-to-point primitives, the buffering layer is used for
//! Java arrays. Again, the idea is to keep the Java layer as minimal as
//! possible and utilize all optimizations and advanced collective
//! algorithms available in the native MVAPICH2 library."
//!
//! Each collective has one native body, over [`Region`]s: the buffer
//! variant runs it on the caller's direct buffers, and the array variant
//! stages the participating region through pooled direct buffers, runs
//! the same body on their stores, then unstages and releases them.
//!
//! A rooted receive (reduce, gather, gatherv) is resolved by the body
//! itself, after its address crossing, so the array variant acquires the
//! root's receive store after the crossing: the virtual clock is a sum of
//! `f64` charges, and their order is part of every pinned figure.

use mpisim::datatype::Datatype;
use mpisim::{CommHandle, Mpi, MpiResult, ReduceOp};
use mrt::prim::Prim;
use mrt::{DirectBuffer, JArray};

use crate::datatype::datatype_of;
use crate::env::{missing_root_buffer, Env, Region};
use crate::error::BindResult;
use crate::stage::Staging;

impl Env {
    // ------------------------------------------------------------------
    // Barrier
    // ------------------------------------------------------------------

    /// `comm.barrier()`.
    pub fn barrier(&mut self, comm: CommHandle) -> BindResult<()> {
        self.binding_call();
        self.mpi.barrier(comm)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Native bodies. Each crosses the boundary once, on the region every
    // rank names; the other region is an uncharged snapshot. The three
    // shapes below hold the root checks and the deposit for every
    // collective but bcast.
    // ------------------------------------------------------------------

    /// Every rank sends `send` and receives into `recv`.
    fn exchange(
        &mut self,
        send: Region,
        recv: Region,
        call: impl FnOnce(&mut Mpi, &[u8], &mut [u8]) -> MpiResult<()>,
    ) -> BindResult<()> {
        let sendbytes = self.crossing(send)?;
        let mut temp = self.snapshot(recv)?;
        call(&mut self.mpi, &sendbytes, &mut temp)?;
        self.deposit(recv, &temp)
    }

    /// Every rank sends `send`; the root receives into the region `recv`
    /// resolves, which must exist there (the error names `needed` bytes).
    fn collect(
        &mut self,
        send: Region,
        recv: impl FnOnce(&mut Self) -> BindResult<Option<Region>>,
        root: usize,
        comm: CommHandle,
        needed: usize,
        call: impl FnOnce(&mut Mpi, &[u8], Option<&mut [u8]>) -> MpiResult<()>,
    ) -> BindResult<()> {
        let sendbytes = self.crossing(send)?;
        if self.mpi.rank(comm)? != root {
            return Ok(call(&mut self.mpi, &sendbytes, None)?);
        }
        let out = recv(self)?.ok_or(missing_root_buffer(needed))?;
        let mut temp = self.snapshot(out)?;
        call(&mut self.mpi, &sendbytes, Some(&mut temp))?;
        self.deposit(out, &temp)
    }

    /// The root sends `send`, which must exist there; every rank receives
    /// into `recv`.
    fn distribute(
        &mut self,
        send: Option<Region>,
        recv: Region,
        root: usize,
        comm: CommHandle,
        call: impl FnOnce(&mut Mpi, Option<&[u8]>, &mut [u8]) -> MpiResult<()>,
    ) -> BindResult<()> {
        let mut temp = self.crossing(recv)?;
        let sendbytes = if self.mpi.rank(comm)? == root {
            Some(self.snapshot(send.ok_or(missing_root_buffer(0))?)?)
        } else {
            None
        };
        call(&mut self.mpi, sendbytes.as_deref(), &mut temp)?;
        self.deposit(recv, &temp)
    }

    fn bcast_native(
        &mut self,
        buf: Region,
        count: i32,
        dt: &Datatype,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<()> {
        let mut temp = self.crossing(buf)?;
        self.mpi.bcast(&mut temp, count, dt, root, comm)?;
        self.deposit(buf, &temp)
    }

    #[allow(clippy::too_many_arguments)]
    fn reduce_native(
        &mut self,
        send: Region,
        recv: impl FnOnce(&mut Self) -> BindResult<Option<Region>>,
        count: i32,
        dt: &Datatype,
        op: ReduceOp,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<()> {
        let needed = dt.span(count.max(0) as usize);
        self.collect(send, recv, root, comm, needed, |m, s, r| {
            m.reduce(s, r, count, dt, op, root, comm)
        })
    }

    fn allreduce_native(
        &mut self,
        send: Region,
        recv: Region,
        count: i32,
        dt: &Datatype,
        op: ReduceOp,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.exchange(send, recv, |m, s, r| m.allreduce(s, r, count, dt, op, comm))
    }

    fn gather_native(
        &mut self,
        send: Region,
        recv: impl FnOnce(&mut Self) -> BindResult<Option<Region>>,
        count: i32,
        dt: &Datatype,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.collect(send, recv, root, comm, 0, |m, s, r| {
            m.gather(s, r, count, dt, root, comm)
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn gatherv_native(
        &mut self,
        send: Region,
        sendcount: i32,
        recv: impl FnOnce(&mut Self) -> BindResult<Option<Region>>,
        recvcounts: &[i32],
        displs: &[i32],
        dt: &Datatype,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.collect(send, recv, root, comm, 0, |m, s, r| {
            m.gatherv(s, sendcount, r, recvcounts, displs, dt, root, comm)
        })
    }

    fn scatter_native(
        &mut self,
        send: Option<Region>,
        recv: Region,
        count: i32,
        dt: &Datatype,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.distribute(send, recv, root, comm, |m, s, r| {
            m.scatter(s, r, count, dt, root, comm)
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn scatterv_native(
        &mut self,
        send: Option<Region>,
        sendcounts: &[i32],
        displs: &[i32],
        recv: Region,
        recvcount: i32,
        dt: &Datatype,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.distribute(send, recv, root, comm, |m, s, r| {
            m.scatterv(s, sendcounts, displs, r, recvcount, dt, root, comm)
        })
    }

    fn allgather_native(
        &mut self,
        send: Region,
        recv: Region,
        count: i32,
        dt: &Datatype,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.exchange(send, recv, |m, s, r| m.allgather(s, r, count, dt, comm))
    }

    #[allow(clippy::too_many_arguments)]
    fn allgatherv_native(
        &mut self,
        send: Region,
        sendcount: i32,
        recv: Region,
        recvcounts: &[i32],
        displs: &[i32],
        dt: &Datatype,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.exchange(send, recv, |m, s, r| {
            m.allgatherv(s, sendcount, r, recvcounts, displs, dt, comm)
        })
    }

    fn alltoall_native(
        &mut self,
        send: Region,
        recv: Region,
        count: i32,
        dt: &Datatype,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.exchange(send, recv, |m, s, r| m.alltoall(s, r, count, dt, comm))
    }

    #[allow(clippy::too_many_arguments)]
    fn alltoallv_native(
        &mut self,
        send: Region,
        sendcounts: &[i32],
        sdispls: &[i32],
        recv: Region,
        recvcounts: &[i32],
        rdispls: &[i32],
        dt: &Datatype,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.exchange(send, recv, |m, s, r| {
            m.alltoallv(s, sendcounts, sdispls, r, recvcounts, rdispls, dt, comm)
        })
    }

    // ------------------------------------------------------------------
    // Bcast
    // ------------------------------------------------------------------

    /// `comm.bcast(ByteBuffer, count, datatype, root)`.
    pub fn bcast_buffer(
        &mut self,
        buf: DirectBuffer,
        count: i32,
        dt: &Datatype,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        self.bcast_native(buf.into(), count, dt, root, comm)
    }

    /// `comm.bcast(type[] arr, count, datatype, root)`.
    pub fn bcast_array<T: Prim>(
        &mut self,
        arr: JArray<T>,
        count: i32,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        let me = self.mpi.rank(comm)?;
        let dt = datatype_of::<T>();
        let elems = count.max(0) as usize;
        let s = if me == root {
            self.stage_in(arr, 0, elems, dt.clone())?
        } else {
            self.staging(arr, 0, elems, dt.clone())
        };
        let out = self.bcast_native(s.region(), count, &dt, root, comm);
        self.close(out, [Some(s)])
    }

    // ------------------------------------------------------------------
    // Reduce / Allreduce
    // ------------------------------------------------------------------

    /// `comm.reduce(send, recv, count, datatype, op, root)` over direct
    /// buffers; `recv` is significant at the root.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce_buffer(
        &mut self,
        send: DirectBuffer,
        recv: Option<DirectBuffer>,
        count: i32,
        dt: &Datatype,
        op: ReduceOp,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        let recv = |_: &mut Self| Ok(recv.map(Region::from));
        self.reduce_native(send.into(), recv, count, dt, op, root, comm)
    }

    /// Array flavour of reduce.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce_array<T: Prim>(
        &mut self,
        send: JArray<T>,
        recv: Option<JArray<T>>,
        count: i32,
        op: ReduceOp,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        let dt = datatype_of::<T>();
        let elems = count.max(0) as usize;
        let s = self.stage_in(send, 0, elems, dt.clone())?;
        let mut r = None;
        let out = self.reduce_native(
            s.region(),
            |env| {
                r = recv.map(|a| env.staging(a, 0, elems, dt.clone()));
                Ok(r.as_ref().map(Staging::region))
            },
            count,
            &dt,
            op,
            root,
            comm,
        );
        self.close(out, [r, Some(s)])
    }

    /// `comm.allReduce(send, recv, count, datatype, op)` over buffers.
    pub fn allreduce_buffer(
        &mut self,
        send: DirectBuffer,
        recv: DirectBuffer,
        count: i32,
        dt: &Datatype,
        op: ReduceOp,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        self.allreduce_native(send.into(), recv.into(), count, dt, op, comm)
    }

    /// Array flavour of allreduce.
    pub fn allreduce_array<T: Prim>(
        &mut self,
        send: JArray<T>,
        recv: JArray<T>,
        count: i32,
        op: ReduceOp,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        let dt = datatype_of::<T>();
        let elems = count.max(0) as usize;
        let s = self.stage_in(send, 0, elems, dt.clone())?;
        let r = self.staging(recv, 0, elems, dt.clone());
        let out = self.allreduce_native(s.region(), r.region(), count, &dt, op, comm);
        self.close(out, [Some(r), Some(s)])
    }

    // ------------------------------------------------------------------
    // Gather / Scatter (+v)
    // ------------------------------------------------------------------

    /// `comm.gather` over buffers; `recv` significant at root and must
    /// hold `size * count` elements.
    #[allow(clippy::too_many_arguments)]
    pub fn gather_buffer(
        &mut self,
        send: DirectBuffer,
        recv: Option<DirectBuffer>,
        count: i32,
        dt: &Datatype,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        let recv = |_: &mut Self| Ok(recv.map(Region::from));
        self.gather_native(send.into(), recv, count, dt, root, comm)
    }

    /// Array flavour of gather.
    #[allow(clippy::too_many_arguments)]
    pub fn gather_array<T: Prim>(
        &mut self,
        send: JArray<T>,
        recv: Option<JArray<T>>,
        count: i32,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        let dt = datatype_of::<T>();
        let elems = count.max(0) as usize;
        let p = self.mpi.size(comm)?;
        let s = self.stage_in(send, 0, elems, dt.clone())?;
        let mut r = None;
        let out = self.gather_native(
            s.region(),
            |env| {
                r = recv.map(|a| env.staging(a, 0, elems * p, dt.clone()));
                Ok(r.as_ref().map(Staging::region))
            },
            count,
            &dt,
            root,
            comm,
        );
        self.close(out, [r, Some(s)])
    }

    /// `comm.gatherv` over buffers (vectored blocking collective).
    #[allow(clippy::too_many_arguments)]
    pub fn gatherv_buffer(
        &mut self,
        send: DirectBuffer,
        sendcount: i32,
        recv: Option<DirectBuffer>,
        recvcounts: &[i32],
        displs: &[i32],
        dt: &Datatype,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        let recv = |_: &mut Self| Ok(recv.map(Region::from));
        self.gatherv_native(
            send.into(),
            sendcount,
            recv,
            recvcounts,
            displs,
            dt,
            root,
            comm,
        )
    }

    /// Array flavour of gatherv.
    #[allow(clippy::too_many_arguments)]
    pub fn gatherv_array<T: Prim>(
        &mut self,
        send: JArray<T>,
        sendcount: i32,
        recv: Option<JArray<T>>,
        recvcounts: &[i32],
        displs: &[i32],
        root: usize,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        let dt = datatype_of::<T>();
        let s = self.stage_in(send, 0, send.len(), dt.clone())?;
        let mut r = None;
        let out = self.gatherv_native(
            s.region(),
            sendcount,
            |env| {
                // Seeded: gatherv only fills the blocks.
                r = recv.map(|a| env.seeded(a)).transpose()?;
                Ok(r.as_ref().map(Staging::region))
            },
            recvcounts,
            displs,
            &dt,
            root,
            comm,
        );
        self.close(out, [r, Some(s)])
    }

    /// `comm.scatter` over buffers; `send` significant at root.
    #[allow(clippy::too_many_arguments)]
    pub fn scatter_buffer(
        &mut self,
        send: Option<DirectBuffer>,
        recv: DirectBuffer,
        count: i32,
        dt: &Datatype,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        self.scatter_native(send.map(Region::from), recv.into(), count, dt, root, comm)
    }

    /// Array flavour of scatter.
    #[allow(clippy::too_many_arguments)]
    pub fn scatter_array<T: Prim>(
        &mut self,
        send: Option<JArray<T>>,
        recv: JArray<T>,
        count: i32,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        let dt = datatype_of::<T>();
        let me = self.mpi.rank(comm)?;
        // The whole receive array is scattered back, so the store starts
        // as the array does.
        let r = self.seeded(recv)?;
        let s = match send.filter(|_| me == root) {
            Some(src) => match self.stage_in(src, 0, src.len(), dt.clone()) {
                Ok(s) => Some(s),
                Err(e) => return self.close(Err(e), [Some(r)]),
            },
            None => None,
        };
        let out = self.scatter_native(
            s.as_ref().map(Staging::region),
            r.region(),
            count,
            &dt,
            root,
            comm,
        );
        self.close(out, [s, Some(r)])
    }

    /// `comm.scatterv` over buffers.
    #[allow(clippy::too_many_arguments)]
    pub fn scatterv_buffer(
        &mut self,
        send: Option<DirectBuffer>,
        sendcounts: &[i32],
        displs: &[i32],
        recv: DirectBuffer,
        recvcount: i32,
        dt: &Datatype,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        self.scatterv_native(
            send.map(Region::from),
            sendcounts,
            displs,
            recv.into(),
            recvcount,
            dt,
            root,
            comm,
        )
    }

    /// Array flavour of scatterv.
    #[allow(clippy::too_many_arguments)]
    pub fn scatterv_array<T: Prim>(
        &mut self,
        send: Option<JArray<T>>,
        sendcounts: &[i32],
        displs: &[i32],
        recv: JArray<T>,
        recvcount: i32,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        let dt = datatype_of::<T>();
        let me = self.mpi.rank(comm)?;
        // Seeded: scatterv only fills the received block.
        let r = self.seeded(recv)?;
        let s = match send.filter(|_| me == root) {
            Some(src) => match self.stage_in(src, 0, src.len(), dt.clone()) {
                Ok(s) => Some(s),
                Err(e) => return self.close(Err(e), [Some(r)]),
            },
            None => None,
        };
        let out = self.scatterv_native(
            s.as_ref().map(Staging::region),
            sendcounts,
            displs,
            r.region(),
            recvcount,
            &dt,
            root,
            comm,
        );
        self.close(out, [s, Some(r)])
    }

    // ------------------------------------------------------------------
    // Allgather / Alltoall (+v)
    // ------------------------------------------------------------------

    /// `comm.allGather` over buffers.
    pub fn allgather_buffer(
        &mut self,
        send: DirectBuffer,
        recv: DirectBuffer,
        count: i32,
        dt: &Datatype,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        self.allgather_native(send.into(), recv.into(), count, dt, comm)
    }

    /// Array flavour of allgather.
    pub fn allgather_array<T: Prim>(
        &mut self,
        send: JArray<T>,
        recv: JArray<T>,
        count: i32,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        let dt = datatype_of::<T>();
        let elems = count.max(0) as usize;
        let p = self.mpi.size(comm)?;
        let s = self.stage_in(send, 0, elems, dt.clone())?;
        let r = self.staging(recv, 0, elems * p, dt.clone());
        let out = self.allgather_native(s.region(), r.region(), count, &dt, comm);
        self.close(out, [Some(r), Some(s)])
    }

    /// `comm.allGatherv` over buffers.
    #[allow(clippy::too_many_arguments)]
    pub fn allgatherv_buffer(
        &mut self,
        send: DirectBuffer,
        sendcount: i32,
        recv: DirectBuffer,
        recvcounts: &[i32],
        displs: &[i32],
        dt: &Datatype,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        self.allgatherv_native(
            send.into(),
            sendcount,
            recv.into(),
            recvcounts,
            displs,
            dt,
            comm,
        )
    }

    /// Array flavour of allgatherv.
    #[allow(clippy::too_many_arguments)]
    pub fn allgatherv_array<T: Prim>(
        &mut self,
        send: JArray<T>,
        sendcount: i32,
        recv: JArray<T>,
        recvcounts: &[i32],
        displs: &[i32],
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        let dt = datatype_of::<T>();
        let s = self.stage_in(send, 0, send.len(), dt.clone())?;
        let r = match self.seeded(recv) {
            Ok(r) => r,
            Err(e) => return self.close(Err(e), [Some(s)]),
        };
        let out = self.allgatherv_native(
            s.region(),
            sendcount,
            r.region(),
            recvcounts,
            displs,
            &dt,
            comm,
        );
        self.close(out, [Some(r), Some(s)])
    }

    /// `comm.allToAll` over buffers.
    pub fn alltoall_buffer(
        &mut self,
        send: DirectBuffer,
        recv: DirectBuffer,
        count: i32,
        dt: &Datatype,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        self.alltoall_native(send.into(), recv.into(), count, dt, comm)
    }

    /// Array flavour of alltoall.
    pub fn alltoall_array<T: Prim>(
        &mut self,
        send: JArray<T>,
        recv: JArray<T>,
        count: i32,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        let dt = datatype_of::<T>();
        let elems = count.max(0) as usize;
        let p = self.mpi.size(comm)?;
        let s = self.stage_in(send, 0, elems * p, dt.clone())?;
        let r = self.staging(recv, 0, elems * p, dt.clone());
        let out = self.alltoall_native(s.region(), r.region(), count, &dt, comm);
        self.close(out, [Some(r), Some(s)])
    }

    /// `comm.allToAllv` over buffers.
    #[allow(clippy::too_many_arguments)]
    pub fn alltoallv_buffer(
        &mut self,
        send: DirectBuffer,
        sendcounts: &[i32],
        sdispls: &[i32],
        recv: DirectBuffer,
        recvcounts: &[i32],
        rdispls: &[i32],
        dt: &Datatype,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        self.alltoallv_native(
            send.into(),
            sendcounts,
            sdispls,
            recv.into(),
            recvcounts,
            rdispls,
            dt,
            comm,
        )
    }

    /// Array flavour of alltoallv.
    #[allow(clippy::too_many_arguments)]
    pub fn alltoallv_array<T: Prim>(
        &mut self,
        send: JArray<T>,
        sendcounts: &[i32],
        sdispls: &[i32],
        recv: JArray<T>,
        recvcounts: &[i32],
        rdispls: &[i32],
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        let dt = datatype_of::<T>();
        let s = self.stage_in(send, 0, send.len(), dt.clone())?;
        let r = match self.seeded(recv) {
            Ok(r) => r,
            Err(e) => return self.close(Err(e), [Some(s)]),
        };
        let out = self.alltoallv_native(
            s.region(),
            sendcounts,
            sdispls,
            r.region(),
            recvcounts,
            rdispls,
            &dt,
            comm,
        );
        self.close(out, [Some(r), Some(s)])
    }
}
