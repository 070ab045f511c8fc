//! The per-rank native MPI facade: typed point-to-point over the progress
//! engine, communicator management, and entry points to the collectives.
//!
//! This is the API surface the Java-style bindings call through the
//! JNI-analog boundary — the equivalent of `MPI_Send`, `MPI_Irecv`,
//! `MPI_Bcast`, `MPI_Comm_split`, … in the native library.

use std::borrow::Cow;
use std::collections::HashMap;

use obs::wallprof::{self, Counter};
use simfabric::{run_cluster, run_cluster_on, Endpoint, EngineMode, FaultPlan, Topology};
use vtime::{Clock, VDur, VTime};

use crate::coll;
use crate::coll::sched::{self, IcollKind, Schedule};
use crate::comm::{CommHandle, CommInfo, Group, COMM_WORLD};
use crate::datatype::Datatype;
use crate::engine::{Completion, Engine, Frame, Request, Status};
use crate::error::{MpiError, MpiResult};
use crate::op::ReduceOp;
use crate::profile::Profile;
use crate::rma::{RegCache, RegLookup};
use crate::Payload;

/// What an [`MpiRequest`] refers to: an engine-level point-to-point
/// request, or an outstanding non-blocking collective schedule (keyed by
/// the facade's schedule table).
#[derive(Debug, Clone, Copy)]
enum ReqKind {
    P2p(Request),
    Coll(u64),
}

/// A request returned by the non-blocking typed operations (pt2pt and
/// collective alike — `Wait`/`Test`/`Waitall`/`Testany` accept any mix).
#[derive(Debug)]
pub struct MpiRequest {
    raw: ReqKind,
    /// For operations producing data: the datatype/count needed to unpack
    /// at completion.
    recv: Option<(Datatype, usize)>,
    /// Communicator the operation was posted on (status translation,
    /// error-handler routing).
    comm: CommHandle,
}

impl MpiRequest {
    /// Whether completion carries data that needs a destination buffer.
    pub fn is_recv(&self) -> bool {
        self.recv.is_some()
    }

    /// Whether this request is a non-blocking collective.
    pub fn is_coll(&self) -> bool {
        matches!(self.raw, ReqKind::Coll(_))
    }
}

/// The destinations of an [`Mpi::waitall`]: lends out the region one
/// request deposits into, one request at a time, so several receives may
/// name the same buffer.
pub trait Deposits {
    /// The region request `i` deposits into; `None` for a request that
    /// carries no data.
    fn region(&mut self, i: usize) -> Option<&mut [u8]>;
}

/// One region (or none) per request, by index; missing trailing entries
/// are `None`.
impl Deposits for Vec<Option<&mut [u8]>> {
    fn region(&mut self, i: usize) -> Option<&mut [u8]> {
        self.get_mut(i)?.as_deref_mut()
    }
}

/// An outstanding non-blocking collective: the schedule plus the facade
/// metadata needed to consume it. Errors raised while *progressing* the
/// schedule opportunistically (from some unrelated MPI call) are parked
/// here and surface at `Wait`/`Test` of this request, routed through the
/// communicator the collective was posted on — MPI ties an operation's
/// errors to its own communicator.
struct IcollState {
    id: u64,
    comm: CommHandle,
    sched: Schedule,
    err: Option<MpiError>,
}

/// Per-communicator error handler (MPI_Errhandler).
///
/// Routing applies only to *transport-class* errors
/// ([`MpiError::is_transport`]): failures of the fabric or a peer rank,
/// which the application did nothing to cause. Argument errors
/// (truncation, invalid rank, ...) are always returned to the caller
/// directly, matching the seed behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Errhandler {
    /// MPI_ERRORS_ARE_FATAL (the MPI default): a transport-class error
    /// aborts the whole job.
    #[default]
    ErrorsAbort,
    /// MPI_ERRORS_RETURN: transport-class errors surface as `Err` for the
    /// application to handle.
    ErrorsReturn,
}

/// The per-rank native MPI library instance.
pub struct Mpi {
    eng: Engine,
    comms: Vec<Option<CommInfo>>,
    next_context: u32,
    /// Error handler per communicator slot (parallel to `comms`;
    /// inherited from the parent at creation, like MPI).
    errhandlers: Vec<Errhandler>,
    /// Outstanding non-blocking collective schedules, in post order
    /// (progression iterates in this order so virtual time is independent
    /// of hash layout).
    scheds: Vec<IcollState>,
    /// Next schedule table key.
    next_icoll: u64,
    /// Per-collective-context sequence numbers for non-blocking tag
    /// windows. Collectives are globally ordered per communicator, so
    /// every member derives the same sequence.
    nbc_seq: HashMap<u32, u64>,
    /// One-sided windows by handle slot (`None` after free).
    wins: Vec<Option<WinInfo>>,
    /// Next window-id proposal (agreed across ranks at creation, like
    /// context ids).
    next_win: u32,
    /// NIC registration (pin-down) cache shared by every window on this
    /// rank — the pinned-memory budget is per HCA, not per window.
    reg: RegCache,
}

/// Pinned regions the registration cache can hold per rank. Small enough
/// that benchmark-scale working sets exercise eviction.
const REG_CACHE_REGIONS: usize = 64;

/// A one-sided communication window handle (MPI_Win analog).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Win(usize);

/// Token for an outstanding one-sided get; the payload is handed back
/// when the epoch closes (`win_fence` / `win_unlock`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RmaGet(Request);

/// Facade-side state of one window.
struct WinInfo {
    /// Engine-level (fabric) window id.
    id: u32,
    /// Communicator the window was created over.
    comm: CommHandle,
    /// Bytes this rank exposes.
    size: usize,
    /// Target-arrival horizon of every put/accumulate issued this epoch,
    /// with the world rank it targets (passive-target flushes filter).
    pending_puts: Vec<(usize, VTime)>,
    /// Outstanding gets in issue order, with their world-rank targets.
    pending_gets: Vec<(usize, RmaGet)>,
    /// Passive-target lock currently held (world rank of the target).
    locked: Option<usize>,
}

/// Run an MPI "job": one thread per rank under `topo`, each executing `f`
/// with its own [`Mpi`] instance configured with `profile`.
pub fn run_mpi<R, F>(topo: Topology, profile: Profile, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut Mpi) -> R + Sync,
{
    run_cluster::<Frame, R, _>(topo, |ep| {
        let mut mpi = Mpi::new(ep, profile);
        f(&mut mpi)
    })
}

/// [`run_mpi`] under an explicit cluster engine ([`EngineMode`]). The
/// virtual outcome is engine-invariant; the event engine runs the whole
/// job as one discrete-event loop, which is how 1k+-rank jobs fit in a
/// single process.
pub fn run_mpi_on<R, F>(mode: EngineMode, topo: Topology, profile: Profile, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut Mpi) -> R + Sync,
{
    run_cluster_on::<Frame, R, _>(mode, topo, |ep| {
        let mut mpi = Mpi::new(ep, profile);
        f(&mut mpi)
    })
}

/// Like [`run_mpi`], but with `plan` installed on every rank's endpoint:
/// the fabric injects the plan's faults and the engine's reliability
/// sublayer rides over them.
pub fn run_mpi_faulty<R, F>(topo: Topology, profile: Profile, plan: FaultPlan, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut Mpi) -> R + Sync,
{
    run_mpi_faulty_on(EngineMode::Threaded, topo, profile, plan, f)
}

/// [`run_mpi_faulty`] under an explicit cluster engine. Fault fates are
/// decided at the sender, so they too are engine-invariant.
pub fn run_mpi_faulty_on<R, F>(
    mode: EngineMode,
    topo: Topology,
    profile: Profile,
    plan: FaultPlan,
    f: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(&mut Mpi) -> R + Sync,
{
    if let Err(e) = plan.check_ranks(topo.size()) {
        panic!("fault plan: {e}");
    }
    run_cluster_on::<Frame, R, _>(mode, topo, |mut ep| {
        ep.install_faults(plan);
        let mut mpi = Mpi::new(ep, profile);
        f(&mut mpi)
    })
}

impl Mpi {
    /// Wrap a fabric endpoint. `MPI_COMM_WORLD` covers all ranks.
    pub fn new(ep: Endpoint<Frame>, profile: Profile) -> Self {
        let world = CommInfo {
            base_context: 0,
            group: Group::new((0..ep.size()).collect()).expect("world ranks are distinct"),
            my_rank: ep.rank(),
        };
        Mpi {
            eng: Engine::new(ep, profile),
            comms: vec![Some(world)],
            next_context: 1,
            errhandlers: vec![Errhandler::default()],
            scheds: Vec::new(),
            next_icoll: 0,
            nbc_seq: HashMap::new(),
            wins: Vec::new(),
            next_win: 1,
            reg: RegCache::new(REG_CACHE_REGIONS),
        }
    }

    /// Set the error handler of `comm` (MPI_Comm_set_errhandler).
    pub fn set_errhandler(&mut self, comm: CommHandle, h: Errhandler) -> MpiResult<()> {
        self.info(comm)?;
        self.errhandlers[comm.0] = h;
        Ok(())
    }

    /// The error handler in force on `comm`.
    pub fn errhandler(&self, comm: CommHandle) -> Errhandler {
        self.errhandlers.get(comm.0).copied().unwrap_or_default()
    }

    /// Route a transport-class error through `comm`'s error handler:
    /// abort the job (panic, like MPI_ERRORS_ARE_FATAL) or hand the error
    /// back. Non-transport errors pass through untouched.
    fn route<T>(&self, comm: CommHandle, r: MpiResult<T>) -> MpiResult<T> {
        match r {
            Err(e) if e.is_transport() => match self.errhandler(comm) {
                Errhandler::ErrorsAbort => {
                    panic!("MPI job aborted (MPI_ERRORS_ARE_FATAL): {e}")
                }
                Errhandler::ErrorsReturn => Err(e),
            },
            other => other,
        }
    }

    /// MPI_COMM_WORLD.
    #[inline]
    pub fn world(&self) -> CommHandle {
        COMM_WORLD
    }

    pub(crate) fn info(&self, comm: CommHandle) -> MpiResult<&CommInfo> {
        self.comms
            .get(comm.0)
            .and_then(|c| c.as_ref())
            .ok_or(MpiError::InvalidComm)
    }

    pub(crate) fn engine_mut(&mut self) -> &mut Engine {
        &mut self.eng
    }

    /// This process's rank in `comm`.
    pub fn rank(&self, comm: CommHandle) -> MpiResult<usize> {
        Ok(self.info(comm)?.my_rank)
    }

    /// Size of `comm`.
    pub fn size(&self, comm: CommHandle) -> MpiResult<usize> {
        Ok(self.info(comm)?.group.size())
    }

    /// The group of `comm` (MPI_Comm_group).
    pub fn comm_group(&self, comm: CommHandle) -> MpiResult<Group> {
        Ok(self.info(comm)?.group.clone())
    }

    /// The library profile in force.
    pub fn profile(&self) -> &Profile {
        self.eng.profile()
    }

    /// The fabric topology (nodes × ppn).
    pub fn topology(&self) -> &Topology {
        self.eng.topology()
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> VTime {
        self.eng.now()
    }

    /// MPI_Wtime in (virtual) seconds.
    #[inline]
    pub fn wtime(&self) -> f64 {
        self.eng.now().as_secs()
    }

    /// Mutable clock access for layers above (JNI/runtime costs).
    #[inline]
    pub fn clock_mut(&mut self) -> &mut Clock {
        self.eng.clock_mut()
    }

    /// Wrap a collective entry point in a cat-`"coll"` trace span tagged
    /// with the instance id allocated inside `coll::cc`. Zero virtual
    /// cost: only reads the clock before and after.
    fn coll_span<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> MpiResult<T>,
    ) -> MpiResult<T> {
        if !obs::tracing_enabled() {
            return f(self);
        }
        let begin = self.eng.now();
        let out = f(self);
        obs::span(
            name,
            "coll",
            begin,
            self.eng.now(),
            vec![("coll", obs::ArgValue::U64(self.eng.current_collective()))],
        );
        out
    }

    // ------------------------------------------------------------------
    // Typed point-to-point
    // ------------------------------------------------------------------

    fn check_count(count: i32) -> MpiResult<usize> {
        if count < 0 {
            Err(MpiError::InvalidCount { count })
        } else {
            Ok(count as usize)
        }
    }

    fn world_dst(&self, comm: CommHandle, dst: usize) -> MpiResult<usize> {
        let info = self.info(comm)?;
        info.group
            .world_rank(dst)
            .map_err(|_| MpiError::InvalidRank {
                rank: dst as i32,
                comm_size: info.group.size(),
            })
    }

    /// The dense payload for `count` elements of `dt`, starting
    /// `elem_offset` elements into `buf`: the caller's own bytes for a
    /// contiguous layout, else a packed copy, charging the native pack
    /// engine. With [`Mpi::unpack_payload`], the one place the packed-bytes
    /// rule lives.
    pub(crate) fn pack_payload<'b>(
        &mut self,
        buf: &'b [u8],
        elem_offset: usize,
        count: usize,
        dt: &Datatype,
    ) -> MpiResult<Cow<'b, [u8]>> {
        let start = elem_offset * dt.extent();
        let end = start + dt.span(count);
        let src = buf.get(start..end).ok_or(MpiError::BufferTooSmall {
            needed: end,
            available: buf.len(),
        })?;
        if dt.is_contiguous() {
            return Ok(Cow::Borrowed(src));
        }
        let payload = dt.pack(src, count)?;
        self.charge_pack(payload.len());
        Ok(Cow::Owned(payload))
    }

    /// [`Mpi::pack_payload`] into storage of its own, for an accumulator
    /// or a schedule that reads its input after the call returns.
    pub(crate) fn pack_owned(
        &mut self,
        buf: &[u8],
        count: usize,
        dt: &Datatype,
    ) -> MpiResult<Vec<u8>> {
        Ok(match self.pack_payload(buf, 0, count, dt)? {
            Cow::Borrowed(b) => {
                wallprof::add(Counter::CopyBytes, b.len() as u64);
                b.to_vec()
            }
            Cow::Owned(v) => v,
        })
    }

    /// Deposit the dense `data` (at most `count` elements of `dt`)
    /// starting `elem_offset` elements into `out`, charging the native
    /// pack engine for a non-contiguous layout. A short `out` is reported
    /// in whole-buffer terms.
    pub(crate) fn unpack_payload(
        &mut self,
        data: &[u8],
        count: usize,
        dt: &Datatype,
        out: &mut [u8],
        elem_offset: usize,
    ) -> MpiResult<()> {
        let start = elem_offset * dt.extent();
        let available = out.len();
        let dst = out.get_mut(start..).unwrap_or_default();
        dt.unpack(data, count, dst).map_err(|e| match e {
            MpiError::BufferTooSmall { needed, .. } => MpiError::BufferTooSmall {
                needed: start + needed,
                available,
            },
            e => e,
        })?;
        if !dt.is_contiguous() {
            self.charge_pack(data.len());
        }
        Ok(())
    }

    /// The native pack engine's cost for `bytes` of a non-contiguous
    /// layout.
    fn charge_pack(&mut self, bytes: usize) {
        let per_byte = self.eng.profile().pack_per_byte_ns;
        self.eng
            .clock_mut()
            .charge(VDur::from_nanos(bytes as f64 * per_byte));
    }

    /// Blocking standard-mode send (MPI_Send).
    pub fn send(
        &mut self,
        buf: &[u8],
        count: i32,
        dt: &Datatype,
        dst: usize,
        tag: i32,
        comm: CommHandle,
    ) -> MpiResult<()> {
        let r = self.isend(buf, count, dt, dst, tag, comm)?;
        self.wait(r, None).map(|_| ())
    }

    /// Blocking receive (MPI_Recv). Returns a status with the source as a
    /// communicator rank.
    pub fn recv(
        &mut self,
        buf: &mut [u8],
        count: i32,
        dt: &Datatype,
        src: i32,
        tag: i32,
        comm: CommHandle,
    ) -> MpiResult<Status> {
        let r = self.irecv(count, dt, src, tag, comm)?;
        self.wait(r, Some(buf))
    }

    /// Non-blocking send (MPI_Isend).
    pub fn isend(
        &mut self,
        buf: &[u8],
        count: i32,
        dt: &Datatype,
        dst: usize,
        tag: i32,
        comm: CommHandle,
    ) -> MpiResult<MpiRequest> {
        let count = Self::check_count(count)?;
        if !(0..=crate::engine::TAG_UB).contains(&tag) {
            return Err(MpiError::InvalidTag { tag });
        }
        let progressed = self.nb_progress();
        self.route(comm, progressed)?;
        let wdst = self.world_dst(comm, dst)?;
        let ctx = self.info(comm)?.pt2pt_context();
        let payload = self.pack_payload(buf, 0, count, dt)?;
        let raw = self.eng.isend_bytes(&payload, wdst, tag, ctx);
        let raw = self.route(comm, raw)?;
        Ok(MpiRequest {
            raw: ReqKind::P2p(raw),
            recv: None,
            comm,
        })
    }

    /// Non-blocking receive (MPI_Irecv). `src < 0` is MPI_ANY_SOURCE
    /// (communicator-relative otherwise).
    pub fn irecv(
        &mut self,
        count: i32,
        dt: &Datatype,
        src: i32,
        tag: i32,
        comm: CommHandle,
    ) -> MpiResult<MpiRequest> {
        let count = Self::check_count(count)?;
        if tag != crate::engine::ANY_TAG && !(0..=crate::engine::TAG_UB).contains(&tag) {
            return Err(MpiError::InvalidTag { tag });
        }
        let progressed = self.nb_progress();
        self.route(comm, progressed)?;
        let info = self.info(comm)?;
        let ctx = info.pt2pt_context();
        let wsrc = if src < 0 {
            -1
        } else {
            info.group.world_rank(src as usize)? as i32
        };
        let cap = dt.size() * count;
        let raw = self.eng.irecv_bytes(cap, wsrc, tag, ctx);
        let raw = self.route(comm, raw)?;
        Ok(MpiRequest {
            raw: ReqKind::P2p(raw),
            recv: Some((dt.clone(), count)),
            comm,
        })
    }

    /// Translate and unpack a point-to-point completion: map the source
    /// to a communicator rank and deposit receive payloads into `buf`.
    fn finish_p2p(
        &mut self,
        comm: CommHandle,
        recv: &Option<(Datatype, usize)>,
        completion: Completion,
        buf: Option<&mut [u8]>,
    ) -> MpiResult<Status> {
        let source = self
            .info(comm)?
            .group
            .rank_of(completion.status.source)
            .unwrap_or(usize::MAX);
        let status = Status {
            source,
            ..completion.status
        };
        match recv {
            None => Ok(status),
            Some((dt, count)) => {
                let bytes = completion.data.len();
                let out = buf.ok_or(MpiError::BufferTooSmall {
                    needed: bytes,
                    available: 0,
                })?;
                self.unpack_payload(&completion.data, *count, dt, out, 0)?;
                Ok(Status { bytes, ..status })
            }
        }
    }

    /// Wait for completion (MPI_Wait). Requests producing data require the
    /// destination buffer; others ignore it. Works on point-to-point and
    /// non-blocking collective requests alike; while waiting, *every*
    /// outstanding collective schedule keeps progressing.
    pub fn wait(&mut self, req: MpiRequest, buf: Option<&mut [u8]>) -> MpiResult<Status> {
        match req.raw {
            ReqKind::P2p(raw) => {
                let progressed = self.nb_progress();
                self.route(req.comm, progressed)?;
                let completion = self.eng.wait(raw);
                let completion = self.route(req.comm, completion)?;
                self.finish_p2p(req.comm, &req.recv, completion, buf)
            }
            ReqKind::Coll(id) => self.wait_icoll(id, req.comm, req.recv, buf),
        }
    }

    /// Non-blocking completion test (MPI_Test). On completion of a data-
    /// producing request, the payload is unpacked into `buf`. A `Some`
    /// return consumes the underlying operation — drop the request.
    pub fn test(&mut self, req: &MpiRequest, buf: Option<&mut [u8]>) -> MpiResult<Option<Status>> {
        let progressed = self.nb_progress();
        self.route(req.comm, progressed)?;
        match req.raw {
            ReqKind::P2p(raw) => {
                let polled = self.eng.test(raw);
                match self.route(req.comm, polled)? {
                    None => Ok(None),
                    Some(completion) => self
                        .finish_p2p(req.comm, &req.recv, completion, buf)
                        .map(Some),
                }
            }
            ReqKind::Coll(id) => {
                let idx = self
                    .scheds
                    .iter()
                    .position(|s| s.id == id)
                    .ok_or(MpiError::InvalidRequest)?;
                let st = &self.scheds[idx];
                if st.err.is_none() && !st.sched.is_done() {
                    return Ok(None);
                }
                self.consume_icoll(idx, req.recv.clone(), buf, None)
                    .map(Some)
            }
        }
    }

    /// Complete all of `reqs` (MPI_Waitall over any mix of point-to-point
    /// and collective requests). Statuses come back in request order, but
    /// progression is *joint*: everything is driven to completion first,
    /// then consumption costs are charged in virtual-completion-time order
    /// — an early-completing later request never waits on an earlier slow
    /// one.
    ///
    /// Each data-producing request deposits into the region `dests` lends
    /// out for its index, when that request is consumed.
    pub fn waitall(
        &mut self,
        reqs: Vec<MpiRequest>,
        mut dests: impl Deposits,
    ) -> MpiResult<Vec<Status>> {
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        let wait_begin = self.eng.now();
        // Phase 1: drive everything to completion without consuming.
        loop {
            let progressed = self.nb_progress();
            self.route(reqs[0].comm, progressed)?;
            let all_done = reqs.iter().all(|r| match r.raw {
                ReqKind::P2p(raw) => self.eng.is_done(raw),
                ReqKind::Coll(id) => self
                    .scheds
                    .iter()
                    .find(|s| s.id == id)
                    .is_none_or(|s| s.err.is_some() || s.sched.is_done()),
            });
            if all_done {
                break;
            }
            let delivered = self.eng.block_for_delivery();
            self.route(reqs[0].comm, delivered)?;
        }
        // Phase 2: consume in virtual-completion-time order (ties broken
        // by request index) so the costs charged at consumption stack up
        // the way a perfectly-scheduled drain would.
        let mut order: Vec<(f64, usize)> = Vec::with_capacity(reqs.len());
        for (i, r) in reqs.iter().enumerate() {
            let t = match r.raw {
                ReqKind::P2p(raw) => self
                    .eng
                    .completion_time(raw)
                    .map(|t| t.as_nanos())
                    .unwrap_or(f64::MAX),
                ReqKind::Coll(id) => self
                    .scheds
                    .iter()
                    .find(|s| s.id == id)
                    .map(|s| s.sched.finish_time().as_nanos())
                    .unwrap_or(f64::MAX),
            };
            order.push((t, i));
        }
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut reqs: Vec<Option<MpiRequest>> = reqs.into_iter().map(Some).collect();
        let mut statuses: Vec<Option<Status>> =
            std::iter::repeat_with(|| None).take(reqs.len()).collect();
        for (_, i) in order {
            let req = reqs[i].take().expect("each index consumed once");
            let buf = dests.region(i);
            let status = match req.raw {
                ReqKind::P2p(raw) => {
                    let completion = self.eng.try_complete(raw);
                    let completion = self
                        .route(req.comm, completion)?
                        .expect("driven to completion above");
                    self.finish_p2p(req.comm, &req.recv, completion, buf)?
                }
                ReqKind::Coll(id) => {
                    let idx = self
                        .scheds
                        .iter()
                        .position(|s| s.id == id)
                        .ok_or(MpiError::InvalidRequest)?;
                    self.consume_icoll(idx, req.recv, buf, None)?
                }
            };
            statuses[i] = Some(status);
        }
        obs::span("mpi.wait", "pt2pt", wait_begin, self.eng.now(), Vec::new());
        Ok(statuses
            .into_iter()
            .map(|s| s.expect("all indices consumed"))
            .collect())
    }

    /// MPI_Testany: test the requests in order and complete the first one
    /// found done. Returns its index and status; the caller must drop that
    /// request (its underlying operation is consumed).
    pub fn testany(
        &mut self,
        reqs: &[MpiRequest],
        bufs: &mut [Option<&mut [u8]>],
    ) -> MpiResult<Option<(usize, Status)>> {
        for (i, req) in reqs.iter().enumerate() {
            let buf = bufs.get_mut(i).and_then(|b| b.as_deref_mut());
            if let Some(status) = self.test(req, buf)? {
                return Ok(Some((i, status)));
            }
        }
        Ok(None)
    }

    /// Translate a world rank in a status to a communicator rank.
    pub fn comm_rank_of_world(&self, comm: CommHandle, world: usize) -> MpiResult<Option<usize>> {
        Ok(self.info(comm)?.group.rank_of(world))
    }

    // ------------------------------------------------------------------
    // Collectives (algorithm selection lives in `coll`)
    // ------------------------------------------------------------------

    /// MPI_Barrier.
    pub fn barrier(&mut self, comm: CommHandle) -> MpiResult<()> {
        let r = self.coll_span("barrier", |m| coll::barrier(m, comm));
        self.route(comm, r)
    }

    /// MPI_Bcast over `count` elements of `dt` in `buf`.
    pub fn bcast(
        &mut self,
        buf: &mut [u8],
        count: i32,
        dt: &Datatype,
        root: usize,
        comm: CommHandle,
    ) -> MpiResult<()> {
        let count = Self::check_count(count)?;
        let r = self.coll_span("bcast", |m| coll::bcast(m, buf, count, dt, root, comm));
        self.route(comm, r)
    }

    /// MPI_Reduce. `recv` must be `Some` on the root.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce(
        &mut self,
        send: &[u8],
        recv: Option<&mut [u8]>,
        count: i32,
        dt: &Datatype,
        op: ReduceOp,
        root: usize,
        comm: CommHandle,
    ) -> MpiResult<()> {
        let count = Self::check_count(count)?;
        let r = self.coll_span("reduce", |m| {
            coll::reduce(m, send, recv, count, dt, op, root, comm)
        });
        self.route(comm, r)
    }

    /// MPI_Allreduce.
    pub fn allreduce(
        &mut self,
        send: &[u8],
        recv: &mut [u8],
        count: i32,
        dt: &Datatype,
        op: ReduceOp,
        comm: CommHandle,
    ) -> MpiResult<()> {
        let count = Self::check_count(count)?;
        let r = self.coll_span("allreduce", |m| {
            coll::allreduce(m, send, recv, count, dt, op, comm)
        });
        self.route(comm, r)
    }

    /// MPI_Gather (equal contributions). `recv` significant at root.
    pub fn gather(
        &mut self,
        send: &[u8],
        recv: Option<&mut [u8]>,
        count: i32,
        dt: &Datatype,
        root: usize,
        comm: CommHandle,
    ) -> MpiResult<()> {
        let count = Self::check_count(count)?;
        let r = self.coll_span("gather", |m| {
            coll::gather(m, send, recv, count, dt, root, comm)
        });
        self.route(comm, r)
    }

    /// MPI_Gatherv. `recvcounts`/`displs` are in elements, significant at
    /// root.
    #[allow(clippy::too_many_arguments)]
    pub fn gatherv(
        &mut self,
        send: &[u8],
        sendcount: i32,
        recv: Option<&mut [u8]>,
        recvcounts: &[i32],
        displs: &[i32],
        dt: &Datatype,
        root: usize,
        comm: CommHandle,
    ) -> MpiResult<()> {
        let sendcount = Self::check_count(sendcount)?;
        let r = self.coll_span("gatherv", |m| {
            coll::gatherv(m, send, sendcount, recv, recvcounts, displs, dt, root, comm)
        });
        self.route(comm, r)
    }

    /// MPI_Scatter (equal blocks). `send` significant at root.
    pub fn scatter(
        &mut self,
        send: Option<&[u8]>,
        recv: &mut [u8],
        count: i32,
        dt: &Datatype,
        root: usize,
        comm: CommHandle,
    ) -> MpiResult<()> {
        let count = Self::check_count(count)?;
        let r = self.coll_span("scatter", |m| {
            coll::scatter(m, send, recv, count, dt, root, comm)
        });
        self.route(comm, r)
    }

    /// MPI_Scatterv.
    #[allow(clippy::too_many_arguments)]
    pub fn scatterv(
        &mut self,
        send: Option<&[u8]>,
        sendcounts: &[i32],
        displs: &[i32],
        recv: &mut [u8],
        recvcount: i32,
        dt: &Datatype,
        root: usize,
        comm: CommHandle,
    ) -> MpiResult<()> {
        let recvcount = Self::check_count(recvcount)?;
        let r = self.coll_span("scatterv", |m| {
            coll::scatterv(m, send, sendcounts, displs, recv, recvcount, dt, root, comm)
        });
        self.route(comm, r)
    }

    /// MPI_Allgather (equal contributions).
    pub fn allgather(
        &mut self,
        send: &[u8],
        recv: &mut [u8],
        count: i32,
        dt: &Datatype,
        comm: CommHandle,
    ) -> MpiResult<()> {
        let count = Self::check_count(count)?;
        let r = self.coll_span("allgather", |m| {
            coll::allgather(m, send, recv, count, dt, comm)
        });
        self.route(comm, r)
    }

    /// MPI_Allgatherv.
    #[allow(clippy::too_many_arguments)]
    pub fn allgatherv(
        &mut self,
        send: &[u8],
        sendcount: i32,
        recv: &mut [u8],
        recvcounts: &[i32],
        displs: &[i32],
        dt: &Datatype,
        comm: CommHandle,
    ) -> MpiResult<()> {
        let sendcount = Self::check_count(sendcount)?;
        let r = self.coll_span("allgatherv", |m| {
            coll::allgatherv(m, send, sendcount, recv, recvcounts, displs, dt, comm)
        });
        self.route(comm, r)
    }

    /// MPI_Alltoall (equal blocks).
    pub fn alltoall(
        &mut self,
        send: &[u8],
        recv: &mut [u8],
        count: i32,
        dt: &Datatype,
        comm: CommHandle,
    ) -> MpiResult<()> {
        let count = Self::check_count(count)?;
        let r = self.coll_span("alltoall", |m| {
            coll::alltoall(m, send, recv, count, dt, comm)
        });
        self.route(comm, r)
    }

    /// MPI_Alltoallv.
    #[allow(clippy::too_many_arguments)]
    pub fn alltoallv(
        &mut self,
        send: &[u8],
        sendcounts: &[i32],
        sdispls: &[i32],
        recv: &mut [u8],
        recvcounts: &[i32],
        rdispls: &[i32],
        dt: &Datatype,
        comm: CommHandle,
    ) -> MpiResult<()> {
        let r = self.coll_span("alltoallv", |m| {
            coll::alltoallv(
                m, send, sendcounts, sdispls, recv, recvcounts, rdispls, dt, comm,
            )
        });
        self.route(comm, r)
    }

    // ------------------------------------------------------------------
    // Non-blocking collectives (schedule compilation lives in
    // `coll::sched`)
    // ------------------------------------------------------------------

    /// Opportunistically progress every outstanding non-blocking
    /// collective schedule: drain pending deliveries, then let each
    /// schedule retire arrivals and fire follow-on rounds. Invoked at
    /// every library entry, so a rank that is "inside MPI" for any reason
    /// keeps its collectives moving — the progression-engine behavior the
    /// overlap benchmarks measure. Errors raised by an individual
    /// schedule are parked on it (surfacing at its own `Wait`/`Test`);
    /// only rank-local failures propagate from here.
    pub(crate) fn nb_progress(&mut self) -> MpiResult<()> {
        if self.scheds.is_empty() {
            return Ok(());
        }
        self.eng.poll()?;
        for st in self.scheds.iter_mut() {
            if st.err.is_some() || st.sched.is_done() {
                continue;
            }
            if let Err(e) = st.sched.advance(&mut self.eng) {
                st.err = Some(e);
            }
        }
        Ok(())
    }

    /// Compile and post one non-blocking collective: charge the per-call
    /// software overhead, open the collective instance (labelling the
    /// schedule's traffic for causal tracing), and fire the schedule's
    /// first round.
    fn post_icoll(
        &mut self,
        comm: CommHandle,
        kind: IcollKind,
        recv: Option<(Datatype, usize)>,
    ) -> MpiResult<MpiRequest> {
        let progressed = self.nb_progress();
        self.route(comm, progressed)?;
        let ctx = self.info(comm)?.coll_context();
        let percall = VDur::from_nanos(self.profile().coll.percall_ns);
        self.eng.clock_mut().charge(percall);
        self.eng.begin_collective(ctx);
        let seq = {
            let s = self.nbc_seq.entry(ctx).or_insert(0);
            let cur = *s;
            *s += 1;
            cur
        };
        let compiled = sched::compile(self, comm, kind, seq);
        let compiled = self.route(comm, compiled)?;
        let id = self.next_icoll;
        self.next_icoll += 1;
        self.scheds.push(IcollState {
            id,
            comm,
            sched: compiled,
            err: None,
        });
        Ok(MpiRequest {
            raw: ReqKind::Coll(id),
            recv,
            comm,
        })
    }

    /// Block until schedule `id` is done, keeping *all* outstanding
    /// schedules progressing (a neighbor's later collective may be what
    /// unblocks ours), then consume it.
    fn wait_icoll(
        &mut self,
        id: u64,
        comm: CommHandle,
        recv: Option<(Datatype, usize)>,
        buf: Option<&mut [u8]>,
    ) -> MpiResult<Status> {
        let wait_begin = self.eng.now();
        loop {
            let progressed = self.nb_progress();
            self.route(comm, progressed)?;
            let st = self
                .scheds
                .iter()
                .find(|s| s.id == id)
                .ok_or(MpiError::InvalidRequest)?;
            if st.err.is_some() || st.sched.is_done() {
                break;
            }
            let delivered = self.eng.block_for_delivery();
            self.route(comm, delivered)?;
        }
        let idx = self
            .scheds
            .iter()
            .position(|s| s.id == id)
            .expect("present: found in wait loop");
        self.consume_icoll(idx, recv, buf, Some(wait_begin))
    }

    /// Consume a finished (or failed) schedule: merge its timeline into
    /// the rank clock, emit the wait + collective spans, and unpack the
    /// result.
    fn consume_icoll(
        &mut self,
        idx: usize,
        recv: Option<(Datatype, usize)>,
        buf: Option<&mut [u8]>,
        wait_begin: Option<VTime>,
    ) -> MpiResult<Status> {
        let st = self.scheds.remove(idx);
        if let Some(e) = st.err {
            return self.route(st.comm, Err(e));
        }
        let finish = st.sched.finish_time();
        self.eng.clock_mut().merge(finish);
        let now = self.eng.now();
        if let Some(begin) = wait_begin {
            obs::span("mpi.wait", "pt2pt", begin, now, Vec::new());
        }
        // The collective's own span covers post→finish on the schedule
        // timeline: `obs-analyze` sees the operation's true extent and can
        // attribute the part hidden under application compute as overlap.
        if obs::tracing_enabled() {
            obs::span(
                st.sched.name,
                "coll",
                st.sched.posted_at,
                finish,
                vec![("coll", obs::ArgValue::U64(st.sched.coll_id))],
            );
        }
        obs::count(obs::pvar::COLL_NB_COMPLETED, 1);
        let my_rank = self.info(st.comm)?.my_rank;
        let data = st.sched.take_output();
        match recv {
            None => Ok(Status {
                source: my_rank,
                tag: 0,
                bytes: 0,
            }),
            Some((dt, count)) => {
                let bytes = data.len();
                let out = buf.ok_or(MpiError::BufferTooSmall {
                    needed: bytes,
                    available: 0,
                })?;
                self.unpack_payload(&data, count, &dt, out, 0)?;
                Ok(Status {
                    source: my_rank,
                    tag: 0,
                    bytes,
                })
            }
        }
    }

    /// Validate a root argument against `comm`.
    fn check_icoll_root(&self, comm: CommHandle, root: usize) -> MpiResult<()> {
        let size = self.size(comm)?;
        if root >= size {
            return Err(MpiError::InvalidRank {
                rank: root as i32,
                comm_size: size,
            });
        }
        Ok(())
    }

    /// MPI_Ibarrier.
    pub fn ibarrier(&mut self, comm: CommHandle) -> MpiResult<MpiRequest> {
        self.post_icoll(comm, IcollKind::Barrier, None)
    }

    /// MPI_Ibcast over `count` elements of `dt`. `buf` is read at the
    /// root; every rank receives the payload into the buffer passed to
    /// `Wait`/`Test`.
    pub fn ibcast(
        &mut self,
        buf: &[u8],
        count: i32,
        dt: &Datatype,
        root: usize,
        comm: CommHandle,
    ) -> MpiResult<MpiRequest> {
        let count = Self::check_count(count)?;
        self.check_icoll_root(comm, root)?;
        let me = self.rank(comm)?;
        let data = if me == root {
            self.pack_owned(buf, count, dt)?
        } else {
            vec![0u8; dt.size() * count]
        };
        self.post_icoll(
            comm,
            IcollKind::Bcast { data, root },
            Some((dt.clone(), count)),
        )
    }

    /// MPI_Iallreduce.
    pub fn iallreduce(
        &mut self,
        send: &[u8],
        count: i32,
        dt: &Datatype,
        op: ReduceOp,
        comm: CommHandle,
    ) -> MpiResult<MpiRequest> {
        let count = Self::check_count(count)?;
        let mine = self.pack_owned(send, count, dt)?;
        self.post_icoll(
            comm,
            IcollKind::Allreduce {
                mine,
                op,
                dt: dt.clone(),
            },
            Some((dt.clone(), count)),
        )
    }

    /// MPI_Iallgather (equal contributions). The completion buffer holds
    /// `size × count` elements.
    pub fn iallgather(
        &mut self,
        send: &[u8],
        count: i32,
        dt: &Datatype,
        comm: CommHandle,
    ) -> MpiResult<MpiRequest> {
        let count = Self::check_count(count)?;
        let size = self.size(comm)?;
        let mine = self.pack_owned(send, count, dt)?;
        self.post_icoll(
            comm,
            IcollKind::Allgather { mine },
            Some((dt.clone(), count * size)),
        )
    }

    /// MPI_Igather (equal contributions). Only the root's completion
    /// carries data (`size × count` elements).
    pub fn igather(
        &mut self,
        send: &[u8],
        count: i32,
        dt: &Datatype,
        root: usize,
        comm: CommHandle,
    ) -> MpiResult<MpiRequest> {
        let count = Self::check_count(count)?;
        self.check_icoll_root(comm, root)?;
        let size = self.size(comm)?;
        let me = self.rank(comm)?;
        let mine = self.pack_owned(send, count, dt)?;
        let recv = (me == root).then(|| (dt.clone(), count * size));
        self.post_icoll(comm, IcollKind::Gather { mine, root }, recv)
    }

    /// MPI_Ialltoall (equal blocks): `send` holds `size × count`
    /// elements, one block per destination; so does the completion
    /// buffer, one block per source.
    pub fn ialltoall(
        &mut self,
        send: &[u8],
        count: i32,
        dt: &Datatype,
        comm: CommHandle,
    ) -> MpiResult<MpiRequest> {
        let count = Self::check_count(count)?;
        let size = self.size(comm)?;
        let packed = self.pack_owned(send, count * size, dt)?;
        self.post_icoll(
            comm,
            IcollKind::Alltoall { send: packed },
            Some((dt.clone(), count * size)),
        )
    }

    // ------------------------------------------------------------------
    // One-sided communication (MPI_Win_*)
    // ------------------------------------------------------------------

    fn win_info(&self, win: Win) -> MpiResult<&WinInfo> {
        self.wins
            .get(win.0)
            .and_then(|w| w.as_ref())
            .ok_or(MpiError::InvalidWin("invalid or freed window handle"))
    }

    fn win_info_mut(&mut self, win: Win) -> MpiResult<&mut WinInfo> {
        self.wins
            .get_mut(win.0)
            .and_then(|w| w.as_mut())
            .ok_or(MpiError::InvalidWin("invalid or freed window handle"))
    }

    /// Collective window creation (MPI_Win_create): every member of `comm`
    /// exposes `size` bytes of zero-initialized memory. The window id is
    /// agreed like a context id and doubles as the one-sided fabric
    /// channel; the closing barrier guarantees no rank targets a window a
    /// peer has not exposed yet.
    pub fn win_create(&mut self, size: usize, comm: CommHandle) -> MpiResult<Win> {
        let progressed = self.nb_progress();
        self.route(comm, progressed)?;
        self.info(comm)?;
        let mine = self.next_win;
        let mut out = [0u8; 4];
        self.allreduce(
            &mine.to_le_bytes(),
            &mut out,
            1,
            &crate::datatype::INT,
            ReduceOp::Max,
            comm,
        )?;
        let id = u32::from_le_bytes(out);
        self.next_win = id + 1;
        let created = self.eng.win_create(id, size);
        self.route(comm, created)?;
        self.barrier(comm)?;
        self.wins.push(Some(WinInfo {
            id,
            comm,
            size,
            pending_puts: Vec::new(),
            pending_gets: Vec::new(),
            locked: None,
        }));
        obs::count(obs::pvar::RMA_WIN_CREATED, 1);
        Ok(Win(self.wins.len() - 1))
    }

    /// Collective window destruction (MPI_Win_free). All one-sided
    /// operations on the window must have been completed by an epoch
    /// close (`win_fence` / `win_unlock`) first.
    pub fn win_free(&mut self, win: Win) -> MpiResult<()> {
        let progressed = self.nb_progress();
        let comm = self.win_info(win)?.comm;
        self.route(comm, progressed)?;
        {
            let w = self.win_info(win)?;
            if !w.pending_puts.is_empty() || !w.pending_gets.is_empty() || w.locked.is_some() {
                return Err(MpiError::InvalidWin(
                    "window freed with an open access epoch",
                ));
            }
        }
        // No member may tear down exposure while a peer could still be
        // issuing; mirror the creation barrier.
        self.barrier(comm)?;
        let id = self.win_info(win)?.id;
        let freed = self.eng.win_free(id);
        self.route(comm, freed)?;
        self.wins[win.0] = None;
        Ok(())
    }

    /// Bytes this rank exposes through `win`.
    pub fn win_size(&self, win: Win) -> MpiResult<usize> {
        Ok(self.win_info(win)?.size)
    }

    /// Read this rank's exposed window memory (the NIC view deposits land
    /// in), lent beside the rank's clock so the caller can charge a copy
    /// straight out of it. Zero virtual cost itself — callers synchronize
    /// via epochs.
    pub fn win_mem(&mut self, win: Win) -> MpiResult<(&[u8], &mut Clock)> {
        let id = self.win_info(win)?.id;
        self.eng.win_mem(id)
    }

    /// Publish the user's image of this rank's window into the NIC view:
    /// every byte a remote deposit has not written since the last
    /// [`Mpi::win_mark_synced`]. Zero virtual cost.
    pub fn win_publish(&mut self, win: Win, image: &[u8]) -> MpiResult<()> {
        let id = self.win_info(win)?.id;
        self.eng.win_publish(id, image)
    }

    /// Record that the user's storage now mirrors the NIC view: forget
    /// the remote deposits made so far. Zero virtual cost.
    pub fn win_mark_synced(&mut self, win: Win) -> MpiResult<()> {
        let id = self.win_info(win)?.id;
        self.eng.win_mark_synced(id)
    }

    /// Charge NIC registration for a zero-copy transfer of `bytes` from
    /// the region identified by `reg_key`, through the pin-down cache.
    /// Transfers at or below the path's RMA eager threshold use
    /// pre-registered bounce buffers and skip registration entirely.
    fn charge_registration(&mut self, wtarget: usize, bytes: usize, reg_key: u64) {
        let path = *self.eng.path_params(wtarget);
        if bytes <= path.rma_eager_threshold {
            return;
        }
        match self.reg.lookup(reg_key, bytes) {
            RegLookup::Hit => obs::count(obs::pvar::RMA_REG_HIT, 1),
            RegLookup::Miss { evicted } => {
                obs::count(obs::pvar::RMA_REG_MISS, 1);
                if evicted {
                    obs::count(obs::pvar::RMA_REG_EVICT, 1);
                }
                let begin = self.eng.now();
                self.eng.clock_mut().charge(path.rma_reg(bytes));
                if obs::tracing_enabled() {
                    obs::span(
                        "rma.reg",
                        "rma",
                        begin,
                        self.eng.now(),
                        vec![
                            ("bytes", obs::ArgValue::U64(bytes as u64)),
                            ("key", obs::ArgValue::U64(reg_key)),
                        ],
                    );
                }
            }
        }
    }

    /// One-sided put (MPI_Put): RDMA-write `data` into `target`'s window
    /// at byte `offset`. `target` is a communicator rank; `reg_key`
    /// identifies the origin region for the registration cache (zero-copy
    /// path). Completes at the target when the epoch closes.
    pub fn win_put(
        &mut self,
        win: Win,
        data: &[u8],
        reg_key: u64,
        target: usize,
        offset: usize,
    ) -> MpiResult<()> {
        let progressed = self.nb_progress();
        let (comm, id) = {
            let w = self.win_info(win)?;
            (w.comm, w.id)
        };
        self.route(comm, progressed)?;
        let wtarget = self.world_dst(comm, target)?;
        self.charge_registration(wtarget, data.len(), reg_key);
        let arrival = self.eng.rma_put(wtarget, id, offset, data);
        let arrival = self.route(comm, arrival)?;
        self.win_info_mut(win)?
            .pending_puts
            .push((wtarget, arrival));
        Ok(())
    }

    /// One-sided accumulate (MPI_Accumulate) of 32-bit integer lanes:
    /// combine `data` into `target`'s window with `op`. Operands are
    /// always staged through pre-registered bounce buffers, so no
    /// registration charge applies.
    pub fn win_accumulate(
        &mut self,
        win: Win,
        data: &[u8],
        op: ReduceOp,
        target: usize,
        offset: usize,
    ) -> MpiResult<()> {
        let progressed = self.nb_progress();
        let (comm, id) = {
            let w = self.win_info(win)?;
            (w.comm, w.id)
        };
        self.route(comm, progressed)?;
        let wtarget = self.world_dst(comm, target)?;
        let arrival = self.eng.rma_accumulate(wtarget, id, offset, op, data);
        let arrival = self.route(comm, arrival)?;
        self.win_info_mut(win)?
            .pending_puts
            .push((wtarget, arrival));
        Ok(())
    }

    /// One-sided get (MPI_Get): fetch `nbytes` from `target`'s window at
    /// byte `offset`. The payload is delivered when the epoch closes;
    /// `reg_key` identifies the origin destination region (the RDMA-read
    /// reply lands there zero-copy).
    pub fn win_get(
        &mut self,
        win: Win,
        target: usize,
        offset: usize,
        nbytes: usize,
        reg_key: u64,
    ) -> MpiResult<RmaGet> {
        let progressed = self.nb_progress();
        let (comm, id) = {
            let w = self.win_info(win)?;
            (w.comm, w.id)
        };
        self.route(comm, progressed)?;
        let wtarget = self.world_dst(comm, target)?;
        self.charge_registration(wtarget, nbytes, reg_key);
        let raw = self.eng.rma_get(wtarget, id, offset, nbytes);
        let raw = self.route(comm, raw)?;
        let tok = RmaGet(raw);
        self.win_info_mut(win)?.pending_gets.push((wtarget, tok));
        Ok(tok)
    }

    /// Complete the outstanding gets in `tokens` (issue order) and merge
    /// the put horizon, returning `(token, payload)` pairs.
    fn flush_rma(
        &mut self,
        comm: CommHandle,
        puts: Vec<(usize, VTime)>,
        gets: Vec<(usize, RmaGet)>,
    ) -> MpiResult<Vec<(RmaGet, Payload)>> {
        for (_, arrival) in puts {
            self.eng.clock_mut().merge(arrival);
        }
        let mut out = Vec::with_capacity(gets.len());
        for (_, tok) in gets {
            let c = self.eng.wait(tok.0);
            let c = self.route(comm, c)?;
            out.push((tok, c.data));
        }
        Ok(out)
    }

    /// Close the current active-target epoch (MPI_Win_fence): complete
    /// every one-sided operation this rank issued, synchronize the
    /// window's communicator, and hand back completed get payloads in
    /// issue order.
    ///
    /// Remote deposits are visible after the fence because the barrier's
    /// completion causally depends on every origin's entry, which in turn
    /// follows its last put's injection — the fabric delivers in causal
    /// order, so the deposits are drained before the barrier completes.
    pub fn win_fence(&mut self, win: Win) -> MpiResult<Vec<(RmaGet, Payload)>> {
        let progressed = self.nb_progress();
        let comm = self.win_info(win)?.comm;
        self.route(comm, progressed)?;
        if self.win_info(win)?.locked.is_some() {
            return Err(MpiError::InvalidWin("fence inside a passive-target epoch"));
        }
        let begin = self.eng.now();
        let puts = std::mem::take(&mut self.win_info_mut(win)?.pending_puts);
        let gets = std::mem::take(&mut self.win_info_mut(win)?.pending_gets);
        let out = self.flush_rma(comm, puts, gets)?;
        obs::count(obs::pvar::RMA_FENCE_EPOCHS, 1);
        self.barrier(comm)?;
        // A 1-rank window's barrier moves no messages; drain self-targeted
        // deliveries explicitly so local puts are applied before reads.
        let polled = self.eng.poll();
        self.route(comm, polled)?;
        // Close the epoch: every frame stamped with it is causally in the
        // mailbox by the end of the barrier (origins flush before they
        // enter), so the deterministic replay below sees them all — while
        // next-epoch frames from origins that raced ahead stay deferred.
        let id = self.win_info(win)?.id;
        let advanced = self.eng.win_epoch_advance(id);
        self.route(comm, advanced)?;
        if obs::tracing_enabled() {
            obs::span("rma.fence", "rma", begin, self.eng.now(), Vec::new());
        }
        Ok(out)
    }

    /// Local window synchronization (MPI_Win_sync analog): drain any
    /// one-sided deliveries already addressed to this rank so deposits a
    /// peer has causally completed (e.g. before a barrier this rank just
    /// left) are visible in the window memory. Purely local — no epoch
    /// semantics of its own.
    pub fn win_sync(&mut self, win: Win) -> MpiResult<()> {
        let progressed = self.nb_progress();
        let comm = self.win_info(win)?.comm;
        self.route(comm, progressed)?;
        let polled = self.eng.poll();
        self.route(comm, polled)?;
        // Passive-target deposits that raced ahead of this rank's last
        // fence sit deferred under the current epoch; surface them now.
        let id = self.win_info(win)?.id;
        let delivered = self.eng.win_deliver_current(id);
        self.route(comm, delivered)?;
        Ok(())
    }

    /// Begin a passive-target epoch on `target` (MPI_Win_lock,
    /// exclusive). Modeled as a NIC-level atomic: one control round trip
    /// charged at the origin, no target CPU involvement, and no lock
    /// *contention* queueing (documented limitation).
    pub fn win_lock(&mut self, win: Win, target: usize) -> MpiResult<()> {
        let progressed = self.nb_progress();
        let comm = self.win_info(win)?.comm;
        self.route(comm, progressed)?;
        if self.win_info(win)?.locked.is_some() {
            return Err(MpiError::InvalidWin("window is already locked"));
        }
        let wtarget = self.world_dst(comm, target)?;
        let r = self.eng.rma_control_roundtrip(wtarget);
        self.route(comm, r)?;
        self.win_info_mut(win)?.locked = Some(wtarget);
        obs::count(obs::pvar::RMA_LOCK_ACQUIRED, 1);
        Ok(())
    }

    /// End a passive-target epoch (MPI_Win_unlock): flush every operation
    /// issued to `target` under the lock, then release with another
    /// control round trip. Completed get payloads return in issue order.
    pub fn win_unlock(&mut self, win: Win, target: usize) -> MpiResult<Vec<(RmaGet, Payload)>> {
        let progressed = self.nb_progress();
        let comm = self.win_info(win)?.comm;
        self.route(comm, progressed)?;
        let wtarget = self.world_dst(comm, target)?;
        if self.win_info(win)?.locked != Some(wtarget) {
            return Err(MpiError::InvalidWin("unlock without a matching lock"));
        }
        let begin = self.eng.now();
        let (puts, gets) = {
            let w = self.win_info_mut(win)?;
            let (puts, keep_p): (Vec<_>, Vec<_>) = std::mem::take(&mut w.pending_puts)
                .into_iter()
                .partition(|&(t, _)| t == wtarget);
            let (gets, keep_g): (Vec<_>, Vec<_>) = std::mem::take(&mut w.pending_gets)
                .into_iter()
                .partition(|&(t, _)| t == wtarget);
            w.pending_puts = keep_p;
            w.pending_gets = keep_g;
            (puts, gets)
        };
        let out = self.flush_rma(comm, puts, gets)?;
        let r = self.eng.rma_control_roundtrip(wtarget);
        self.route(comm, r)?;
        self.win_info_mut(win)?.locked = None;
        if obs::tracing_enabled() {
            obs::span("rma.unlock", "rma", begin, self.eng.now(), Vec::new());
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Communicator management
    // ------------------------------------------------------------------

    fn push_comm(&mut self, parent: CommHandle, info: CommInfo) -> CommHandle {
        self.comms.push(Some(info));
        self.errhandlers.push(self.errhandler(parent));
        CommHandle(self.comms.len() - 1)
    }

    /// Agree on a fresh base context across the members of `comm`
    /// (allreduce-MAX of the local proposals, like real MPI's context-id
    /// agreement).
    fn agree_context(&mut self, comm: CommHandle) -> MpiResult<u32> {
        let mine = self.next_context;
        let mut out = [0u8; 4];
        self.allreduce(
            &mine.to_le_bytes(),
            &mut out,
            1,
            &crate::datatype::INT,
            ReduceOp::Max,
            comm,
        )?;
        let agreed = u32::from_le_bytes(out);
        self.next_context = agreed + 1;
        Ok(agreed)
    }

    /// MPI_Comm_dup: same group, fresh context.
    pub fn comm_dup(&mut self, comm: CommHandle) -> MpiResult<CommHandle> {
        let ctx = self.agree_context(comm)?;
        let info = self.info(comm)?;
        let dup = CommInfo {
            base_context: ctx,
            group: info.group.clone(),
            my_rank: info.my_rank,
        };
        Ok(self.push_comm(comm, dup))
    }

    /// MPI_Comm_split. `color < 0` means MPI_UNDEFINED (no communicator
    /// for this process). Members are ordered by `(key, parent rank)`.
    pub fn comm_split(
        &mut self,
        comm: CommHandle,
        color: i32,
        key: i32,
    ) -> MpiResult<Option<CommHandle>> {
        let (my_rank, size) = {
            let info = self.info(comm)?;
            (info.my_rank, info.group.size())
        };
        // Allgather (color, key) over the parent communicator.
        let mut mine = [0u8; 8];
        mine[..4].copy_from_slice(&color.to_le_bytes());
        mine[4..].copy_from_slice(&key.to_le_bytes());
        let mut all = vec![0u8; 8 * size];
        self.allgather(&mine, &mut all, 8, &crate::datatype::BYTE, comm)?;
        let ctx = self.agree_context(comm)?;
        if color < 0 {
            return Ok(None);
        }
        // Members with my color, sorted by (key, parent rank).
        let mut members: Vec<(i32, usize)> = (0..size)
            .filter_map(|r| {
                let c = i32::from_le_bytes(all[8 * r..8 * r + 4].try_into().unwrap());
                let k = i32::from_le_bytes(all[8 * r + 4..8 * r + 8].try_into().unwrap());
                (c == color).then_some((k, r))
            })
            .collect();
        members.sort_unstable();
        let parent_group = self.info(comm)?.group.clone();
        let world_ranks: Vec<usize> = members
            .iter()
            .map(|&(_, r)| parent_group.world_rank(r).expect("member of parent"))
            .collect();
        let my_new = members
            .iter()
            .position(|&(_, r)| r == my_rank)
            .expect("caller has this color");
        let info = CommInfo {
            base_context: ctx,
            group: Group::new(world_ranks)?,
            my_rank: my_new,
        };
        Ok(Some(self.push_comm(comm, info)))
    }

    /// MPI_Comm_create: collective over `comm`; returns a communicator
    /// only on members of `group`.
    pub fn comm_create(
        &mut self,
        comm: CommHandle,
        group: &Group,
    ) -> MpiResult<Option<CommHandle>> {
        let ctx = self.agree_context(comm)?;
        let my_world = {
            let info = self.info(comm)?;
            info.group.world_rank(info.my_rank)?
        };
        match group.rank_of(my_world) {
            None => Ok(None),
            Some(my_rank) => {
                let info = CommInfo {
                    base_context: ctx,
                    group: group.clone(),
                    my_rank,
                };
                Ok(Some(self.push_comm(comm, info)))
            }
        }
    }

    /// MPI_Comm_free. The world communicator cannot be freed.
    pub fn comm_free(&mut self, comm: CommHandle) -> MpiResult<()> {
        if comm == COMM_WORLD {
            return Err(MpiError::InvalidComm);
        }
        let slot = self.comms.get_mut(comm.0).ok_or(MpiError::InvalidComm)?;
        if slot.take().is_none() {
            return Err(MpiError::InvalidComm);
        }
        Ok(())
    }

    /// Fabric-level traffic counters for this rank.
    pub fn fabric_stats(&self) -> simfabric::SendStats {
        self.eng.fabric_stats()
    }
}
