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
use mpisim::{CommHandle, Deposits};
use mpjbuf::Buffer;
use mrt::prim::Prim;
use mrt::{DirectBuffer, JArray, Runtime};
use vtime::VDur;

use crate::datatype::{check_base, datatype_of};
use crate::env::Env;
use crate::error::{BindError, BindResult};
use crate::request::{ArrayDest, JRequest, JStatus, PostAction, TestOutcome};
use crate::stage::{stage_from_array, unstage_to_array};

impl Env {
    /// Charge the `GetDirectBufferAddress` JNI cost.
    pub(crate) fn charge_buffer_address(&mut self) {
        let cost = *self.rt.cost();
        let t0 = self.mpi.now();
        let clock = self.mpi.clock_mut();
        clock.charge(cost.jni_transition());
        clock.charge(VDur::from_nanos(cost.jni.get_direct_buffer_address_ns));
        obs::span("direct_address", "nif", t0, self.mpi.now(), Vec::new());
    }

    pub(crate) fn check_dt_capacity(
        buf: DirectBuffer,
        count: i32,
        dt: &Datatype,
    ) -> BindResult<usize> {
        if count < 0 {
            return Err(BindError::Mpi(mpisim::MpiError::InvalidCount { count }));
        }
        let span = dt.span(count as usize);
        if span > buf.capacity() {
            return Err(BindError::Runtime(mrt::MrtError::BufferOverflow {
                needed: span,
                available: buf.capacity(),
            }));
        }
        Ok(span)
    }

    // ------------------------------------------------------------------
    // Direct-ByteBuffer path
    // ------------------------------------------------------------------

    fn isend_buffer_raw(
        &mut self,
        buf: DirectBuffer,
        count: i32,
        dt: &Datatype,
        dst: usize,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        let span = Self::check_dt_capacity(buf, count, dt)?;
        self.charge_buffer_address();
        // The native call reads straight out of the buffer's storage.
        let bytes = self.rt.direct_bytes(buf)?;
        let native = self.mpi.isend(&bytes[..span], count, dt, dst, tag, comm)?;
        Ok(JRequest {
            native,
            post: PostAction::SendDone,
            pinned: None,
        })
    }

    fn irecv_buffer_raw(
        &mut self,
        buf: DirectBuffer,
        count: i32,
        dt: &Datatype,
        src: i32,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        let span = Self::check_dt_capacity(buf, count, dt)?;
        self.charge_buffer_address();
        let native = self.mpi.irecv(count, dt, src, tag, comm)?;
        Ok(JRequest {
            native,
            post: PostAction::RecvBuffer { buf, span },
            pinned: None,
        })
    }

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
        let req = self.isend_buffer_raw(buf, count, dt, dst, tag, comm)?;
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
        let req = self.irecv_buffer_raw(buf, count, dt, src, tag, comm)?;
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
        self.isend_buffer_raw(buf, count, dt, dst, tag, comm)
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
        self.irecv_buffer_raw(buf, count, dt, src, tag, comm)
    }

    // ------------------------------------------------------------------
    // Java-array path (through the buffering layer)
    // ------------------------------------------------------------------

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
        if count < 0 {
            return Err(BindError::Mpi(mpisim::MpiError::InvalidCount { count }));
        }
        if !check_base::<T>(dt) {
            return Err(BindError::DatatypeMismatch {
                expected: T::TYPE.name(),
                datatype: dt.name(),
            });
        }
        let count = count as usize;
        let packed = dt.size() * count;
        // Buffering layer: pooled direct buffer + gather copy.
        let clock = self.mpi.clock_mut();
        let staging = Buffer::from_pool(&mut self.pool, &mut self.rt, clock, packed.max(1));
        stage_from_array(
            &mut self.rt,
            clock,
            staging.store(),
            arr.handle(),
            elem_off * T::SIZE,
            count,
            dt,
        )?;
        self.charge_buffer_address();
        // Native sees a contiguous run of base elements.
        let base_dt = datatype_of::<T>();
        let elems = (packed / T::SIZE) as i32;
        let bytes = self.rt.direct_bytes(staging.store())?;
        let native = self
            .mpi
            .isend(&bytes[..packed], elems, &base_dt, dst, tag, comm)?;
        Ok(JRequest {
            native,
            post: PostAction::SendStaged { staging },
            pinned: None,
        })
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
        if count < 0 {
            return Err(BindError::Mpi(mpisim::MpiError::InvalidCount { count }));
        }
        if !check_base::<T>(dt) {
            return Err(BindError::DatatypeMismatch {
                expected: T::TYPE.name(),
                datatype: dt.name(),
            });
        }
        let count = count as usize;
        let packed = dt.size() * count;
        let clock = self.mpi.clock_mut();
        let staging = Buffer::from_pool(&mut self.pool, &mut self.rt, clock, packed.max(1));
        self.charge_buffer_address();
        let base_dt = datatype_of::<T>();
        let elems = (packed / T::SIZE) as i32;
        let native = self.mpi.irecv(elems, &base_dt, src, tag, comm)?;
        Ok(JRequest {
            native,
            post: PostAction::RecvArray {
                staging,
                dest: ArrayDest {
                    handle: arr.handle(),
                    byte_off: elem_off * T::SIZE,
                    byte_len: arr.byte_len(),
                },
                dt: dt.clone(),
                count,
            },
            pinned: None,
        })
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
        if !self.flavor.arrays_with_nonblocking {
            return Err(BindError::Unsupported(
                "Java arrays with non-blocking point-to-point operations",
            ));
        }
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
        if !self.flavor.arrays_with_nonblocking {
            return Err(BindError::Unsupported(
                "Java arrays with non-blocking point-to-point operations",
            ));
        }
        self.binding_call();
        let dt = datatype_of::<T>();
        self.irecv_array_raw(arr, 0, count, &dt, src, tag, comm)
    }

    // ------------------------------------------------------------------
    // Completion
    // ------------------------------------------------------------------

    /// The region the native library deposits a completing request's
    /// payload into: the receive's direct buffer itself, or the array
    /// receive's staging store (conceptually DMA — uncharged).
    fn deposit_region<'r>(
        rt: &'r mut Runtime,
        post: &PostAction,
    ) -> BindResult<Option<&'r mut [u8]>> {
        Ok(match post {
            PostAction::SendDone | PostAction::SendStaged { .. } => None,
            PostAction::RecvBuffer { buf, span } => Some(&mut rt.direct_bytes_mut(*buf)?[..*span]),
            PostAction::RecvArray {
                staging, dt, count, ..
            } => Some(&mut rt.direct_bytes_mut(staging.store())?[..dt.size() * count]),
        })
    }

    /// Run the Java-side completion actions once the native request is
    /// done and its payload deposited.
    fn finish_post(&mut self, post: PostAction, st: mpisim::Status) -> BindResult<JStatus> {
        match post {
            PostAction::SendDone | PostAction::RecvBuffer { .. } => {}
            PostAction::SendStaged { staging } => {
                let clock = self.mpi.clock_mut();
                staging.free(&mut self.pool, &mut self.rt, clock);
            }
            PostAction::RecvArray {
                staging,
                dest,
                dt,
                count,
            } => {
                // Buffering layer scatters into the managed array.
                let clock = self.mpi.clock_mut();
                unstage_to_array(
                    &mut self.rt,
                    clock,
                    staging.store(),
                    &dest,
                    count,
                    &dt,
                    st.bytes,
                )?;
                let clock = self.mpi.clock_mut();
                staging.free(&mut self.pool, &mut self.rt, clock);
            }
        }
        Ok(JStatus {
            source: st.source as i32,
            tag: st.tag,
            bytes: st.bytes,
        })
    }

    /// Release a request's pinned send-side staging (collective sends
    /// hold theirs until completion).
    fn release_pinned(&mut self, pinned: Option<mpjbuf::Buffer>) {
        if let Some(staging) = pinned {
            let clock = self.mpi.clock_mut();
            staging.free(&mut self.pool, &mut self.rt, clock);
        }
    }

    pub(crate) fn wait_raw(&mut self, req: JRequest) -> BindResult<JStatus> {
        let dest = Self::deposit_region(&mut self.rt, &req.post)?;
        let st = self.mpi.wait(req.native, dest)?;
        self.release_pinned(req.pinned);
        self.finish_post(req.post, st)
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
            Self::deposit_region(&mut self.rt, post)?;
        }
        let dests = PostDeposits {
            rt: &mut self.rt,
            posts: &posts,
        };
        let statuses = self.mpi.waitall(natives, dests)?;
        let mut out = Vec::with_capacity(posts.len());
        for ((post, pinned), st) in posts.into_iter().zip(pins).zip(statuses) {
            self.release_pinned(pinned);
            out.push(self.finish_post(post, st)?);
        }
        Ok(out)
    }

    /// `request.test()`: non-blocking completion check; hands the request
    /// back when still pending.
    pub fn test(&mut self, req: JRequest) -> BindResult<TestOutcome> {
        self.binding_call();
        let dest = Self::deposit_region(&mut self.rt, &req.post)?;
        match self.mpi.test(&req.native, dest)? {
            None => Ok(TestOutcome::Pending(req)),
            Some(st) => {
                self.release_pinned(req.pinned);
                self.finish_post(req.post, st).map(TestOutcome::Done)
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
            let dest = Self::deposit_region(&mut self.rt, &reqs[i].post)?;
            if let Some(st) = self.mpi.test(&reqs[i].native, dest)? {
                let req = reqs.remove(i);
                self.release_pinned(req.pinned);
                let status = self.finish_post(req.post, st)?;
                return Ok(Some((i, status)));
            }
        }
        Ok(None)
    }
}

/// The deposit regions of a batch of requests, lent to the native
/// `Waitall` one request at a time.
struct PostDeposits<'a> {
    rt: &'a mut Runtime,
    posts: &'a [PostAction],
}

impl Deposits for PostDeposits<'_> {
    fn region(&mut self, i: usize) -> Option<&mut [u8]> {
        Env::deposit_region(self.rt, &self.posts[i]).ok().flatten()
    }
}
