//! Non-blocking collective bindings: `iBcast`, `iAllReduce`,
//! `iAllGather`, `iGather`, `iAllToAll`, and `iBarrier`, for direct
//! ByteBuffers and Java arrays.
//!
//! The native library compiles each call into a collective schedule and
//! progresses it whenever the rank is inside MPI (see `mpisim::coll::
//! sched`); the binding returns a [`JRequest`] whose completion deposits
//! the result.
//!
//! * **Direct ByteBuffers**: the source is read at post time, the
//!   destination deposited at `Wait`/`Test` — zero Java-side copies.
//! * **Java arrays** (MVAPICH2-J only, like non-blocking
//!   point-to-point): the participating region stages through a pooled
//!   direct buffer. The request *pins* that buffer — it is not
//!   returned to the pool until completion, so a collection running
//!   while the schedule is in flight can never hand the storage to
//!   someone else. GC safety is by construction, not by luck.

use mpisim::datatype::Datatype;
use mpisim::{CommHandle, ReduceOp};
use mrt::prim::Prim;
use mrt::{DirectBuffer, JArray};

use crate::datatype::datatype_of;
use crate::env::{elems, missing_root_buffer, Env, Region};
use crate::error::{BindError, BindResult};
use crate::request::{JRequest, PostAction};

const ARRAYS_NB_COLL: &str = "Java arrays with non-blocking collective operations";

impl Env {
    /// The documented restriction: Open MPI-J cannot pair Java arrays
    /// with non-blocking operations (`what` names them).
    pub(crate) fn check_array_nb(&self, what: &'static str) -> BindResult<()> {
        if !self.flavor.arrays_with_nonblocking {
            return Err(BindError::Unsupported(what));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Barrier
    // ------------------------------------------------------------------

    /// `comm.iBarrier()`.
    pub fn ibarrier(&mut self, comm: CommHandle) -> BindResult<JRequest> {
        self.binding_call();
        let native = self.mpi.ibarrier(comm)?;
        Ok(JRequest::new(native, PostAction::SendDone))
    }

    // ------------------------------------------------------------------
    // Native bodies: the source is read at post time, the destination
    // deposited at completion.
    // ------------------------------------------------------------------

    fn ibcast_native(
        &mut self,
        buf: Region,
        count: i32,
        dt: &Datatype,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        let buf = buf.fit(elems(count)?, dt)?;
        let bytes = self.crossing(buf)?;
        let native = self.mpi.ibcast(&bytes, count, dt, root, comm)?;
        Ok(JRequest::new(native, PostAction::RecvBuffer(buf)))
    }

    fn iallreduce_native(
        &mut self,
        send: Region,
        recv: Region,
        count: i32,
        dt: &Datatype,
        op: ReduceOp,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        let n = elems(count)?;
        let recv = recv.fit(n, dt)?;
        let bytes = self.crossing(send.fit(n, dt)?)?;
        let native = self.mpi.iallreduce(&bytes, count, dt, op, comm)?;
        Ok(JRequest::new(native, PostAction::RecvBuffer(recv)))
    }

    fn iallgather_native(
        &mut self,
        send: Region,
        recv: Region,
        count: i32,
        dt: &Datatype,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        let n = elems(count)?;
        let p = self.mpi.size(comm)?;
        let recv = recv.fit(n * p, dt)?;
        let bytes = self.crossing(send.fit(n, dt)?)?;
        let native = self.mpi.iallgather(&bytes, count, dt, comm)?;
        Ok(JRequest::new(native, PostAction::RecvBuffer(recv)))
    }

    fn igather_native(
        &mut self,
        send: Region,
        recv: Option<Region>,
        count: i32,
        dt: &Datatype,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        let n = elems(count)?;
        let send = send.fit(n, dt)?;
        let me = self.mpi.rank(comm)?;
        let post = if me == root {
            let p = self.mpi.size(comm)?;
            let out = recv.ok_or(missing_root_buffer(dt.span(n * p)))?;
            PostAction::RecvBuffer(out.fit(n * p, dt)?)
        } else {
            PostAction::SendDone
        };
        let bytes = self.crossing(send)?;
        let native = self.mpi.igather(&bytes, count, dt, root, comm)?;
        Ok(JRequest::new(native, post))
    }

    fn ialltoall_native(
        &mut self,
        send: Region,
        recv: Region,
        count: i32,
        dt: &Datatype,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        let n = elems(count)?;
        let p = self.mpi.size(comm)?;
        let recv = recv.fit(n * p, dt)?;
        let bytes = self.crossing(send.fit(n * p, dt)?)?;
        let native = self.mpi.ialltoall(&bytes, count, dt, comm)?;
        Ok(JRequest::new(native, PostAction::RecvBuffer(recv)))
    }

    // ------------------------------------------------------------------
    // Direct-ByteBuffer flavour
    // ------------------------------------------------------------------

    /// `comm.iBcast(ByteBuffer, count, datatype, root)`: the buffer is
    /// read at the root and receives the payload on every rank at
    /// completion.
    pub fn ibcast_buffer(
        &mut self,
        buf: DirectBuffer,
        count: i32,
        dt: &Datatype,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        self.binding_call();
        self.ibcast_native(buf.into(), count, dt, root, comm)
    }

    /// `comm.iAllReduce(send, recv, count, datatype, op)` over buffers.
    pub fn iallreduce_buffer(
        &mut self,
        send: DirectBuffer,
        recv: DirectBuffer,
        count: i32,
        dt: &Datatype,
        op: ReduceOp,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        self.binding_call();
        self.iallreduce_native(send.into(), recv.into(), count, dt, op, comm)
    }

    /// `comm.iAllGather(send, recv, count, datatype)` over buffers;
    /// `recv` holds `size × count` elements at completion.
    pub fn iallgather_buffer(
        &mut self,
        send: DirectBuffer,
        recv: DirectBuffer,
        count: i32,
        dt: &Datatype,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        self.binding_call();
        self.iallgather_native(send.into(), recv.into(), count, dt, comm)
    }

    /// `comm.iGather(send, recv, count, datatype, root)` over buffers;
    /// `recv` is significant only at the root.
    #[allow(clippy::too_many_arguments)]
    pub fn igather_buffer(
        &mut self,
        send: DirectBuffer,
        recv: Option<DirectBuffer>,
        count: i32,
        dt: &Datatype,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        self.binding_call();
        self.igather_native(send.into(), recv.map(Region::from), count, dt, root, comm)
    }

    /// `comm.iAllToAll(send, recv, count, datatype)` over buffers; both
    /// hold `size × count` elements (one block per peer).
    pub fn ialltoall_buffer(
        &mut self,
        send: DirectBuffer,
        recv: DirectBuffer,
        count: i32,
        dt: &Datatype,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        self.binding_call();
        self.ialltoall_native(send.into(), recv.into(), count, dt, comm)
    }

    // ------------------------------------------------------------------
    // Java-array flavour (staging pinned for the schedule lifetime)
    // ------------------------------------------------------------------

    /// `comm.iBcast(type[] arr, count, datatype, root)`.
    pub fn ibcast_array<T: Prim>(
        &mut self,
        arr: JArray<T>,
        count: i32,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        self.check_array_nb(ARRAYS_NB_COLL)?;
        self.binding_call();
        let n = elems(count)?;
        let dt = datatype_of::<T>();
        let me = self.mpi.rank(comm)?;
        // The root stages its payload in; every rank (root included)
        // receives the delivered payload back through the same store at
        // completion.
        let s = if me == root {
            self.stage_in(arr, 0, n, dt.clone())?
        } else {
            self.staging(arr, 0, n, dt.clone())
        };
        let out = self.ibcast_native(s.region(), count, &dt, root, comm);
        self.posted(out, Some(s), None)
    }

    /// `comm.iAllReduce(type[] send, type[] recv, count, op)`.
    pub fn iallreduce_array<T: Prim>(
        &mut self,
        send: JArray<T>,
        recv: JArray<T>,
        count: i32,
        op: ReduceOp,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        self.check_array_nb(ARRAYS_NB_COLL)?;
        self.binding_call();
        let n = elems(count)?;
        let dt = datatype_of::<T>();
        let s = self.stage_in(send, 0, n, dt.clone())?;
        let r = self.staging(recv, 0, n, dt.clone());
        let out = self.iallreduce_native(s.region(), r.region(), count, &dt, op, comm);
        self.posted(out, Some(r), Some(s))
    }

    /// `comm.iAllGather(type[] send, type[] recv, count)`; `recv` must
    /// hold `size × count` elements.
    pub fn iallgather_array<T: Prim>(
        &mut self,
        send: JArray<T>,
        recv: JArray<T>,
        count: i32,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        self.check_array_nb(ARRAYS_NB_COLL)?;
        self.binding_call();
        let n = elems(count)?;
        let p = self.mpi.size(comm)?;
        let dt = datatype_of::<T>();
        let s = self.stage_in(send, 0, n, dt.clone())?;
        let r = self.staging(recv, 0, n * p, dt.clone());
        let out = self.iallgather_native(s.region(), r.region(), count, &dt, comm);
        self.posted(out, Some(r), Some(s))
    }

    /// `comm.iGather(type[] send, type[] recv, count, root)`; `recv` is
    /// significant only at the root.
    pub fn igather_array<T: Prim>(
        &mut self,
        send: JArray<T>,
        recv: Option<JArray<T>>,
        count: i32,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        self.check_array_nb(ARRAYS_NB_COLL)?;
        self.binding_call();
        let n = elems(count)?;
        let dt = datatype_of::<T>();
        let me = self.mpi.rank(comm)?;
        let p = self.mpi.size(comm)?;
        let s = self.stage_in(send, 0, n, dt.clone())?;
        let r = recv
            .filter(|_| me == root)
            .map(|a| self.staging(a, 0, n * p, dt.clone()));
        let out = self.igather_native(
            s.region(),
            r.as_ref().map(|r| r.region()),
            count,
            &dt,
            root,
            comm,
        );
        self.posted(out, r, Some(s))
    }

    /// `comm.iAllToAll(type[] send, type[] recv, count)`; both arrays
    /// hold `size × count` elements.
    pub fn ialltoall_array<T: Prim>(
        &mut self,
        send: JArray<T>,
        recv: JArray<T>,
        count: i32,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        self.check_array_nb(ARRAYS_NB_COLL)?;
        self.binding_call();
        let n = elems(count)?;
        let p = self.mpi.size(comm)?;
        let dt = datatype_of::<T>();
        let s = self.stage_in(send, 0, n * p, dt.clone())?;
        let r = self.staging(recv, 0, n * p, dt.clone());
        let out = self.ialltoall_native(s.region(), r.region(), count, &dt, comm);
        self.posted(out, Some(r), Some(s))
    }
}
