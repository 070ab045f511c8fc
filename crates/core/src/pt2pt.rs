//! Point-to-point bindings: the Open-MPI-Java-style API over the native
//! library, for both buffer kinds.
//!
//! * **Direct ByteBuffers** (Section IV-C): the binding resolves the
//!   buffer's stable native address (`GetDirectBufferAddress`) and hands
//!   it straight to the native library — zero Java-side copies.
//! * **Java arrays** (Section IV-B): the binding stages the data through
//!   a pooled direct buffer from the buffering layer (one explicit copy
//!   each way), which also enables derived datatypes and — as an
//!   extension the paper proposes for the future — array *subsets* via an
//!   offset argument (`send_array_slice`).

use mpisim::datatype::Datatype;
use mpisim::{CommHandle, Deposit, Deposits, Payload};
use mpjbuf::Buffer;
use mrt::prim::Prim;
use mrt::{DirectBuffer, JArray, Runtime};

use crate::datatype::{check_base, datatype_of};
use crate::env::{elems, Env, Region};
use crate::error::{BindError, BindResult};
use crate::request::{JRequest, JStatus, PostAction, TestOutcome};

const ARRAYS_NB_PT2PT: &str = "Java arrays with non-blocking point-to-point operations";

impl Env {
    // ------------------------------------------------------------------
    // Native bodies
    // ------------------------------------------------------------------

    fn isend_native(
        &mut self,
        buf: Region,
        count: i32,
        dt: &Datatype,
        dst: usize,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        let buf = buf.fit(elems(count)?, dt)?;
        let bytes = buf.send_bytes(&mut self.rt, self.mpi.clock_mut())?;
        let native = self.mpi.isend(bytes, count, dt, dst, tag, comm)?;
        Ok(JRequest::new(native, PostAction::SendDone))
    }

    fn irecv_native(
        &mut self,
        buf: Region,
        count: i32,
        dt: &Datatype,
        src: i32,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        let buf = buf.fit(elems(count)?, dt)?;
        nif::get_direct_buffer_address_mut(&mut self.rt, self.mpi.clock_mut(), buf.buf)?;
        let native = self.mpi.irecv(count, dt, src, tag, comm)?;
        Ok(JRequest::new(native, PostAction::RecvBuffer(buf)))
    }

    // ------------------------------------------------------------------
    // Direct-ByteBuffer path
    // ------------------------------------------------------------------

    /// `comm.send(ByteBuffer, count, datatype, dst, tag)`.
    pub fn send_buffer(
        &mut self,
        buf: DirectBuffer,
        count: i32,
        dt: &Datatype,
        dst: usize,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        let req = self.isend_native(buf.into(), count, dt, dst, tag, comm)?;
        self.wait_raw(req).map(|_| ())
    }

    /// `comm.recv(ByteBuffer, count, datatype, src, tag)`.
    pub fn recv_buffer(
        &mut self,
        buf: DirectBuffer,
        count: i32,
        dt: &Datatype,
        src: i32,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<JStatus> {
        self.binding_call();
        let req = self.irecv_native(buf.into(), count, dt, src, tag, comm)?;
        self.wait_raw(req)
    }

    /// `comm.iSend(ByteBuffer, ...)`.
    pub fn isend_buffer(
        &mut self,
        buf: DirectBuffer,
        count: i32,
        dt: &Datatype,
        dst: usize,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        self.binding_call();
        self.isend_native(buf.into(), count, dt, dst, tag, comm)
    }

    /// `comm.iRecv(ByteBuffer, ...)`.
    pub fn irecv_buffer(
        &mut self,
        buf: DirectBuffer,
        count: i32,
        dt: &Datatype,
        src: i32,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        self.binding_call();
        self.irecv_native(buf.into(), count, dt, src, tag, comm)
    }

    // ------------------------------------------------------------------
    // Java-array path (through the buffering layer)
    // ------------------------------------------------------------------

    /// Check an array call's count and datatype; returns the element
    /// count and the contiguous run of base elements the native body
    /// sees in the staging store.
    fn array_args<T: Prim>(count: i32, dt: &Datatype) -> BindResult<(usize, i32)> {
        let count = elems(count)?;
        if !check_base::<T>(dt) {
            return Err(BindError::DatatypeMismatch {
                expected: T::TYPE.name(),
                datatype: dt.name(),
            });
        }
        Ok((count, (dt.size() * count / T::SIZE) as i32))
    }

    #[allow(clippy::too_many_arguments)]
    fn isend_array_raw<T: Prim>(
        &mut self,
        arr: JArray<T>,
        elem_off: usize,
        count: i32,
        dt: &Datatype,
        dst: usize,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        let (count, elems) = Self::array_args::<T>(count, dt)?;
        // Buffering layer: pooled direct buffer + gather copy. From the
        // floor up the store's storage then travels as the frame.
        let s = self.stage_in(arr, elem_off, count, dt.clone())?;
        let out = self.isend_native(s.region(), elems, &datatype_of::<T>(), dst, tag, comm);
        self.posted(out, None, Some(s))
    }

    #[allow(clippy::too_many_arguments)]
    fn irecv_array_raw<T: Prim>(
        &mut self,
        arr: JArray<T>,
        elem_off: usize,
        count: i32,
        dt: &Datatype,
        src: i32,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        let (count, elems) = Self::array_args::<T>(count, dt)?;
        // Completion scatters straight out of the frame.
        let r = self.landing(arr, elem_off, count, dt.clone());
        let out = self.irecv_native(r.region(), elems, &datatype_of::<T>(), src, tag, comm);
        self.posted(out, Some(r), None)
    }

    /// `comm.send(type[] arr, count, datatype, dst, tag)` — natural
    /// datatype.
    pub fn send_array<T: Prim>(
        &mut self,
        arr: JArray<T>,
        count: i32,
        dst: usize,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<()> {
        let dt = datatype_of::<T>();
        self.send_array_dt(arr, count, &dt, dst, tag, comm)
    }

    /// Array send with an explicit (possibly derived) datatype.
    pub fn send_array_dt<T: Prim>(
        &mut self,
        arr: JArray<T>,
        count: i32,
        dt: &Datatype,
        dst: usize,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        let req = self.isend_array_raw(arr, 0, count, dt, dst, tag, comm)?;
        self.wait_raw(req).map(|_| ())
    }

    /// Extension (Section IV-B): send a *subset* of an array, restoring
    /// the `offset` argument the Open MPI Java API dropped. The buffering
    /// layer copies only the subset.
    pub fn send_array_slice<T: Prim>(
        &mut self,
        arr: JArray<T>,
        elem_off: usize,
        count: i32,
        dst: usize,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        let dt = datatype_of::<T>();
        let req = self.isend_array_raw(arr, elem_off, count, &dt, dst, tag, comm)?;
        self.wait_raw(req).map(|_| ())
    }

    /// `comm.recv(type[] arr, count, datatype, src, tag)`.
    pub fn recv_array<T: Prim>(
        &mut self,
        arr: JArray<T>,
        count: i32,
        src: i32,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<JStatus> {
        let dt = datatype_of::<T>();
        self.recv_array_dt(arr, count, &dt, src, tag, comm)
    }

    /// Array receive with an explicit (possibly derived) datatype.
    pub fn recv_array_dt<T: Prim>(
        &mut self,
        arr: JArray<T>,
        count: i32,
        dt: &Datatype,
        src: i32,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<JStatus> {
        self.binding_call();
        let req = self.irecv_array_raw(arr, 0, count, dt, src, tag, comm)?;
        self.wait_raw(req)
    }

    /// Extension: receive into a subset of an array.
    pub fn recv_array_slice<T: Prim>(
        &mut self,
        arr: JArray<T>,
        elem_off: usize,
        count: i32,
        src: i32,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<JStatus> {
        self.binding_call();
        let dt = datatype_of::<T>();
        let req = self.irecv_array_raw(arr, elem_off, count, &dt, src, tag, comm)?;
        self.wait_raw(req)
    }

    /// `comm.iSend(type[] arr, ...)`. MVAPICH2-J supports this; Open
    /// MPI-J raises the documented unsupported-operation error.
    pub fn isend_array<T: Prim>(
        &mut self,
        arr: JArray<T>,
        count: i32,
        dst: usize,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        self.check_array_nb(ARRAYS_NB_PT2PT)?;
        self.binding_call();
        let dt = datatype_of::<T>();
        self.isend_array_raw(arr, 0, count, &dt, dst, tag, comm)
    }

    /// `comm.iRecv(type[] arr, ...)` (same restriction as
    /// [`Env::isend_array`]).
    pub fn irecv_array<T: Prim>(
        &mut self,
        arr: JArray<T>,
        count: i32,
        src: i32,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        self.check_array_nb(ARRAYS_NB_PT2PT)?;
        self.binding_call();
        let dt = datatype_of::<T>();
        self.irecv_array_raw(arr, 0, count, &dt, src, tag, comm)
    }

    // ------------------------------------------------------------------
    // Completion
    // ------------------------------------------------------------------

    /// Where the native library delivers a completing request's payload:
    /// into the receive's direct buffer itself (conceptually DMA —
    /// uncharged), or, for an array receive, into `got` as the frame's
    /// own bytes, which completion scatters from.
    fn destination<'r>(
        rt: &'r mut Runtime,
        post: &PostAction,
        got: &'r mut Payload,
    ) -> BindResult<Option<Deposit<'r>>> {
        Ok(match post {
            PostAction::SendDone => None,
            PostAction::RecvBuffer(r) => {
                Some(Deposit::Into(&mut rt.direct_bytes_mut(r.buf)?[..r.len]))
            }
            PostAction::RecvArray(_) => Some(Deposit::Take(got)),
        })
    }

    /// Run the Java-side completion actions once the native request is
    /// done and its payload delivered (`got` for an array receive).
    fn finish_post(
        &mut self,
        post: PostAction,
        st: mpisim::Status,
        got: Payload,
    ) -> BindResult<JStatus> {
        if let PostAction::RecvArray(r) = post {
            // Buffering layer scatters into the managed array, straight
            // out of the frame.
            self.unstage_bytes(r, &got)?;
        }
        Ok(JStatus {
            source: st.source as i32,
            tag: st.tag,
            bytes: st.bytes,
        })
    }

    /// Release a request's pinned send-side staging (array sends hold
    /// theirs until completion).
    fn release_pinned(&mut self, pinned: Option<Buffer>) {
        if let Some(staging) = pinned {
            let clock = self.mpi.clock_mut();
            staging.free(&mut self.pool, &mut self.rt, clock);
        }
    }

    pub(crate) fn wait_raw(&mut self, req: JRequest) -> BindResult<JStatus> {
        let mut got = Payload::default();
        let dest = Self::destination(&mut self.rt, &req.post, &mut got)?;
        let st = self.mpi.wait_into(req.native, dest)?;
        self.release_pinned(req.pinned);
        self.finish_post(req.post, st, got)
    }

    /// `request.waitFor()`.
    pub fn wait(&mut self, req: JRequest) -> BindResult<JStatus> {
        self.binding_call();
        self.wait_raw(req)
    }

    /// `Request.waitAll(...)`: statuses come back in request order, but
    /// progression is joint — the whole batch is handed to the native
    /// library's `Waitall`, so an early-completing later request (or a
    /// non-blocking collective mixed in with point-to-point requests)
    /// never waits on an earlier slow one. Each receive deposits in
    /// place when the native library consumes it, so several receives
    /// may share one buffer.
    pub fn waitall(&mut self, reqs: Vec<JRequest>) -> BindResult<Vec<JStatus>> {
        self.binding_call();
        let mut natives = Vec::with_capacity(reqs.len());
        let mut posts = Vec::with_capacity(reqs.len());
        let mut pins = Vec::with_capacity(reqs.len());
        for r in reqs {
            natives.push(r.native);
            posts.push(r.post);
            pins.push(r.pinned);
        }
        // Resolve every destination up front, so lending one out below
        // cannot fail.
        for post in &posts {
            Self::destination(&mut self.rt, post, &mut Payload::default())?;
        }
        let mut got: Vec<Payload> = posts.iter().map(|_| Payload::default()).collect();
        let dests = PostDeposits {
            rt: &mut self.rt,
            posts: &posts,
            got: &mut got,
        };
        let statuses = self.mpi.waitall(natives, dests)?;
        let mut out = Vec::with_capacity(posts.len());
        for (((post, pinned), st), got) in posts.into_iter().zip(pins).zip(statuses).zip(got) {
            self.release_pinned(pinned);
            out.push(self.finish_post(post, st, got)?);
        }
        Ok(out)
    }

    /// `request.test()`: non-blocking completion check; hands the request
    /// back when still pending.
    pub fn test(&mut self, req: JRequest) -> BindResult<TestOutcome> {
        self.binding_call();
        let mut got = Payload::default();
        let dest = Self::destination(&mut self.rt, &req.post, &mut got)?;
        match self.mpi.test_into(&req.native, dest)? {
            None => Ok(TestOutcome::Pending(req)),
            Some(st) => {
                self.release_pinned(req.pinned);
                self.finish_post(req.post, st, got).map(TestOutcome::Done)
            }
        }
    }

    /// `Request.testAny(...)`: poll the batch once; on a hit the
    /// completed request is removed from `reqs` and its original index
    /// and status are returned. Each poll also progresses every
    /// outstanding non-blocking collective.
    pub fn testany(&mut self, reqs: &mut Vec<JRequest>) -> BindResult<Option<(usize, JStatus)>> {
        self.binding_call();
        for i in 0..reqs.len() {
            let mut got = Payload::default();
            let dest = Self::destination(&mut self.rt, &reqs[i].post, &mut got)?;
            if let Some(st) = self.mpi.test_into(&reqs[i].native, dest)? {
                let req = reqs.remove(i);
                self.release_pinned(req.pinned);
                let status = self.finish_post(req.post, st, got)?;
                return Ok(Some((i, status)));
            }
        }
        Ok(None)
    }
}

/// The destinations of a batch of requests, lent to the native `Waitall`
/// one request at a time; array receives take their frames into `got`.
struct PostDeposits<'a> {
    rt: &'a mut Runtime,
    posts: &'a [PostAction],
    got: &'a mut [Payload],
}

impl Deposits for PostDeposits<'_> {
    fn deposit(&mut self, i: usize) -> Option<Deposit<'_>> {
        Env::destination(self.rt, &self.posts[i], &mut self.got[i])
            .ok()
            .flatten()
    }
}
