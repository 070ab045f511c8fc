//! The per-rank bindings environment: a managed runtime ("JVM"), a native
//! MPI library instance, and the buffering layer, wired to one virtual
//! clock.
//!
//! `Env` is what a Java MPI process is in the paper: user code manipulates
//! managed arrays and direct ByteBuffers through it, and communicates via
//! the bindings methods (see the `pt2pt` and `colls` modules), each of
//! which crosses the JNI-analog boundary into the native library.

use mpisim::datatype::Datatype;
use mpisim::{Frame, Mpi, Profile, SendBuf};
use mpjbuf::{BufferPool, PoolStats};
use mrt::prim::Prim;
use mrt::{DirectBuffer, GcStats, JArray, MrtResult, Runtime};
use obs::wallprof::{self, Counter};
use simfabric::{run_cluster_on, EngineMode, FaultPlan, Topology};
use vtime::{Clock, CostModel, VDur, VTime};

use crate::error::{BindError, BindResult};
use crate::flavor::{BindingFlavor, MVAPICH2J};
use crate::rma::WinState;

/// Job configuration: cluster shape, native library, binding flavor, and
/// managed-heap sizing.
#[derive(Debug, Clone, Copy)]
pub struct JobConfig {
    /// Cluster shape (nodes × ppn).
    pub topo: Topology,
    /// Native MPI library model underneath the bindings.
    pub profile: Profile,
    /// Java-layer personality.
    pub flavor: BindingFlavor,
    /// Calibrated cost model for the managed runtime.
    pub cost: CostModel,
    /// Initial managed heap per rank (-Xms).
    pub heap_initial: usize,
    /// Max managed heap per rank (-Xmx).
    pub heap_max: usize,
    /// Buffers the buffering-layer pool may park per size class; 0
    /// disables pooling entirely (every message allocates a fresh direct
    /// buffer — the configuration the pool exists to avoid).
    pub pool_limit: usize,
    /// Observability switches (pvar collection is always on under
    /// [`run_job_with_obs`]; this controls the per-rank event tracer).
    pub obs: obs::ObsOptions,
    /// Fault plan installed on every rank's endpoint before traffic
    /// starts; `None` runs on a perfect fabric with the reliability
    /// sublayer disabled.
    pub faults: Option<FaultPlan>,
    /// Cluster engine: one OS thread per rank (`Threaded`) or the
    /// single-threaded discrete-event loop (`EventDriven`). Virtual
    /// results are engine-invariant; the event engine lifts the rank
    /// ceiling into the thousands.
    pub engine: EngineMode,
}

impl JobConfig {
    /// MVAPICH2-J over the MVAPICH2 native profile (the paper's library).
    pub fn mvapich2j(topo: Topology) -> Self {
        JobConfig {
            topo,
            profile: Profile::mvapich2(),
            flavor: MVAPICH2J,
            cost: CostModel::default(),
            heap_initial: mrt::runtime::DEFAULT_HEAP,
            heap_max: mrt::runtime::DEFAULT_MAX_HEAP,
            pool_limit: 8,
            obs: obs::ObsOptions::default(),
            faults: None,
            engine: EngineMode::Threaded,
        }
    }

    /// Same cluster, different flavor/profile.
    pub fn with_flavor(mut self, flavor: BindingFlavor, profile: Profile) -> Self {
        self.flavor = flavor;
        self.profile = profile;
        self
    }

    /// Same job, different observability switches.
    pub fn with_obs(mut self, obs: obs::ObsOptions) -> Self {
        self.obs = obs;
        self
    }

    /// Same job, with a fault plan injected at the fabric.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Same job, run under a different cluster engine.
    pub fn with_engine(mut self, engine: EngineMode) -> Self {
        self.engine = engine;
        self
    }
}

/// The bytes of a direct buffer a native body hands the library: the
/// whole buffer on the buffer path, the packed prefix of a pooled store
/// on the array path (the pool may hand out more than the call needs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Region {
    pub(crate) buf: DirectBuffer,
    pub(crate) len: usize,
    /// Whether `buf` is a staging store the call owns, whose storage a
    /// send may hand over; a user's buffer is only ever lent.
    pub(crate) staged: bool,
}

impl From<DirectBuffer> for Region {
    fn from(buf: DirectBuffer) -> Self {
        Region {
            buf,
            len: buf.capacity(),
            staged: false,
        }
    }
}

impl Region {
    /// The prefix holding the user-layout span of `elems` elements of
    /// `dt`, which the region must have room for.
    pub(crate) fn fit(self, elems: usize, dt: &Datatype) -> BindResult<Region> {
        let len = dt.span(elems);
        if len > self.len {
            return Err(BindError::Runtime(mrt::MrtError::BufferOverflow {
                needed: len,
                available: self.len,
            }));
        }
        Ok(Region { len, ..self })
    }

    /// What a native send body hands the library, after the one address
    /// crossing (charged through `nif`): a staged store of
    /// [`mrt::store::FLOOR`] bytes or more hands over its storage, cut to
    /// the region, which travels as the frame (the pool would park the
    /// store on release anyway); any other region lends its bytes, which
    /// the library captures.
    pub(crate) fn send_bytes<'r>(
        self,
        rt: &'r mut Runtime,
        clock: &mut Clock,
    ) -> MrtResult<SendBuf<'r>> {
        nif::get_direct_buffer_address(rt, clock, self.buf)?;
        if self.staged {
            if let Some(mut bytes) = rt.hand_over_direct(self.buf)? {
                bytes.truncate(self.len);
                return Ok(SendBuf::Owned(bytes));
            }
        }
        Ok(SendBuf::Borrowed(&rt.direct_bytes(self.buf)?[..self.len]))
    }

    /// The prefix holding the user-layout span of `count` elements of
    /// `dt`, or the whole region if it is shorter: a short buffer then
    /// fails inside the library after the rank has taken part, as a
    /// whole-buffer region does.
    pub(crate) fn clamp(self, count: i32, dt: &Datatype) -> Region {
        let len = dt.span(count.max(0) as usize).min(self.len);
        Region { len, ..self }
    }
}

/// The error of a rooted collective called at its root without the
/// buffer that is significant there.
pub(crate) fn missing_root_buffer(needed: usize) -> BindError {
    BindError::Mpi(mpisim::MpiError::BufferTooSmall {
        needed,
        available: 0,
    })
}

/// A binding's element-count argument, which must not be negative.
pub(crate) fn elems(count: i32) -> BindResult<usize> {
    if count < 0 {
        return Err(BindError::Mpi(mpisim::MpiError::InvalidCount { count }));
    }
    Ok(count as usize)
}

/// One rank's bindings environment.
pub struct Env {
    pub(crate) rt: Runtime,
    pub(crate) mpi: Mpi,
    pub(crate) pool: BufferPool,
    pub(crate) flavor: BindingFlavor,
    pub(crate) binding_calls: u64,
    pub(crate) wins: Vec<Option<WinState>>,
}

/// Run a simulated Java MPI job: `f` executes once per rank with its own
/// [`Env`]. Results come back in rank order.
pub fn run_job<R, F>(cfg: JobConfig, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut Env) -> R + Sync,
{
    run_job_with_obs(cfg, f).0
}

/// Like [`run_job`], but also harvest each rank's observability recorder
/// (pvars, and trace events when `cfg.obs.tracing` is on) into a
/// [`obs::JobReport`] with ranks in rank order.
///
/// With `cfg.obs.profiling` on, the report also carries a
/// [`obs::wallprof::SimPerf`] section: the job's wall time (measured
/// here, around the whole cluster run), each rank's final virtual clock,
/// and the per-rank wall-clock profiles. Wall readings are collected
/// strictly *after* each rank's virtual execution — they never feed a
/// virtual clock or a determinism digest.
pub fn run_job_with_obs<R, F>(cfg: JobConfig, f: F) -> (Vec<R>, obs::JobReport)
where
    R: Send,
    F: Fn(&mut Env) -> R + Sync,
{
    use std::sync::Mutex;
    if let Some(Err(e)) = cfg.faults.map(|plan| plan.check_ranks(cfg.topo.size())) {
        panic!("fault plan: {e}");
    }
    let reports: Mutex<Vec<(obs::RankReport, f64)>> = Mutex::new(Vec::new());
    mrt::store::release_cached();
    let wall_start = std::time::Instant::now();
    let results = run_cluster_on::<Frame, R, _>(cfg.engine, cfg.topo, |mut ep| {
        if let Some(plan) = cfg.faults {
            ep.install_faults(plan);
        }
        let rank = ep.rank();
        obs::install(rank, cfg.obs);
        // The engine is part of the span/process identity so traces from
        // the two engines are distinguishable at a glance; virtual span
        // begin/end times themselves stay engine-invariant.
        obs::set_process_label(format!(
            "rank {rank} ({}, {} engine)",
            cfg.flavor.name,
            cfg.engine.label()
        ));
        let mut env = Env {
            rt: Runtime::with_heap(cfg.cost, cfg.heap_initial, cfg.heap_max),
            mpi: Mpi::new(ep, cfg.profile),
            pool: BufferPool::with_limit(cfg.pool_limit),
            flavor: cfg.flavor,
            binding_calls: 0,
            wins: Vec::new(),
        };
        let out = f(&mut env);
        let virtual_end_ns = env.mpi.now().as_nanos();
        if let Some(rep) = obs::uninstall() {
            reports
                .lock()
                .expect("report sink")
                .push((rep, virtual_end_ns));
        }
        out
    });
    let wall_ns = wall_start.elapsed().as_nanos() as u64;
    let mut ranks = reports.into_inner().expect("report sink");
    ranks.sort_by_key(|r| r.0.rank);
    let sim_perf = cfg.obs.profiling.then(|| {
        obs::wallprof::SimPerf::from_ranks_on(
            cfg.engine.label(),
            wall_ns,
            ranks
                .iter()
                .map(|(rep, virtual_ns)| obs::wallprof::RankPerf {
                    rank: rep.rank,
                    virtual_ns: *virtual_ns,
                    prof: rep.wall.clone().unwrap_or_default(),
                })
                .collect(),
        )
    });
    let ranks = ranks.into_iter().map(|(rep, _)| rep).collect();
    (results, obs::JobReport { ranks, sim_perf })
}

impl Env {
    /// The binding flavor (library identity).
    pub fn flavor(&self) -> BindingFlavor {
        self.flavor
    }

    /// Charge the Java-side cost of one binding call: a JNI transition,
    /// argument handling, and the small-object churn that keeps the
    /// collector honest.
    pub(crate) fn binding_call(&mut self) {
        self.binding_calls += 1;
        // Anchor the telemetry sampler on the application clock at every
        // binding entry, so caller-side pvars bin to the call's virtual
        // moment under both binding flavors.
        obs::telemetry_tick(self.mpi.now());
        obs::count(obs::pvar::BIND_CALLS, 1);
        let garbage = self.flavor.garbage_per_call;
        let overhead = self.flavor.call_overhead_ns;
        let t0 = self.mpi.now();
        let clock = self.mpi.clock_mut();
        nif::jni_transition(&self.rt, clock);
        clock.charge(VDur::from_nanos(overhead));
        if garbage > 0 {
            // Status/request wrapper objects: allocated, then immediately
            // unreachable. GC pauses triggered by this churn are charged
            // inside alloc_object.
            if let Ok(h) = self.rt.alloc_object(garbage, clock) {
                let _ = self.rt.release_object(h);
            }
        }
        obs::span("bind.call", "nif", t0, self.mpi.now(), Vec::new());
    }

    /// A native body's one address crossing: `GetDirectBufferAddress`
    /// through `nif` (charged, counted and traced there), then a snapshot
    /// of the region for the native call (see [`Env::snapshot`]).
    pub(crate) fn crossing(&mut self, r: Region) -> BindResult<Vec<u8>> {
        let bytes = nif::get_direct_buffer_address(&self.rt, self.mpi.clock_mut(), r.buf)?;
        wallprof::add(Counter::CopyBytes, r.len as u64);
        Ok(bytes[..r.len].to_vec())
    }

    /// Uncharged snapshot of a region (the native library reads it in
    /// place; the copy is a simulation artifact).
    pub(crate) fn snapshot(&self, r: Region) -> BindResult<Vec<u8>> {
        let bytes = self.rt.direct_bytes(r.buf)?[..r.len].to_vec();
        wallprof::add(Counter::CopyBytes, r.len as u64);
        Ok(bytes)
    }

    /// Uncharged deposit back into a region (native DMA).
    pub(crate) fn deposit(&mut self, r: Region, bytes: &[u8]) -> BindResult<()> {
        self.rt.direct_bytes_mut(r.buf)?[..bytes.len()].copy_from_slice(bytes);
        wallprof::add(Counter::CopyBytes, bytes.len() as u64);
        Ok(())
    }

    /// Number of binding calls made so far (introspection).
    pub fn binding_call_count(&self) -> u64 {
        self.binding_calls
    }

    // ------------------------------------------------------------------
    // World / time
    // ------------------------------------------------------------------

    /// MPI_COMM_WORLD.
    pub fn world(&self) -> mpisim::CommHandle {
        self.mpi.world()
    }

    /// This process's rank in the world.
    pub fn rank(&self) -> usize {
        self.mpi.rank(self.mpi.world()).expect("world is valid")
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.mpi.size(self.mpi.world()).expect("world is valid")
    }

    /// `MPI.wtime()` in virtual seconds.
    pub fn wtime(&self) -> f64 {
        self.mpi.wtime()
    }

    /// Current virtual time.
    pub fn now(&self) -> VTime {
        self.mpi.now()
    }

    /// Charge pure application compute time (a workload's "think time").
    pub fn compute(&mut self, d: VDur) {
        self.mpi.clock_mut().charge(d);
    }

    // ------------------------------------------------------------------
    // Managed-runtime delegates (the "Java program" side)
    // ------------------------------------------------------------------

    /// `new T[len]`.
    pub fn new_array<T: Prim>(&mut self, len: usize) -> MrtResult<JArray<T>> {
        let clock = self.mpi.clock_mut();
        self.rt.alloc_array(len, clock)
    }

    /// Drop an array reference.
    pub fn free_array<T: Prim>(&mut self, arr: JArray<T>) -> MrtResult<()> {
        self.rt.release_array(arr)
    }

    /// `arr[idx]`.
    pub fn array_get<T: Prim>(&mut self, arr: JArray<T>, idx: usize) -> MrtResult<T> {
        let clock = self.mpi.clock_mut();
        self.rt.array_get(arr, idx, clock)
    }

    /// `arr[idx] = v`.
    pub fn array_set<T: Prim>(&mut self, arr: JArray<T>, idx: usize, v: T) -> MrtResult<()> {
        let clock = self.mpi.clock_mut();
        self.rt.array_set(arr, idx, v, clock)
    }

    /// Bulk read from an array.
    pub fn array_read<T: Prim>(
        &mut self,
        arr: JArray<T>,
        off: usize,
        out: &mut [T],
    ) -> MrtResult<()> {
        let clock = self.mpi.clock_mut();
        self.rt.array_read(arr, off, out, clock)
    }

    /// Bulk write into an array.
    pub fn array_write<T: Prim>(&mut self, arr: JArray<T>, off: usize, src: &[T]) -> MrtResult<()> {
        let clock = self.mpi.clock_mut();
        self.rt.array_write(arr, off, src, clock)
    }

    /// `ByteBuffer.allocateDirect(cap)`.
    pub fn new_direct(&mut self, cap: usize) -> DirectBuffer {
        let clock = self.mpi.clock_mut();
        self.rt.allocate_direct(cap, clock)
    }

    /// Free a direct buffer.
    pub fn free_direct(&mut self, b: DirectBuffer) -> MrtResult<()> {
        let clock = self.mpi.clock_mut();
        self.rt.free_direct(b, clock)
    }

    /// Absolute typed put on a direct buffer.
    pub fn direct_put<T: Prim>(&mut self, b: DirectBuffer, byte_idx: usize, v: T) -> MrtResult<()> {
        let clock = self.mpi.clock_mut();
        self.rt.direct_put(b, byte_idx, v, clock)
    }

    /// Absolute typed get on a direct buffer.
    pub fn direct_get<T: Prim>(&mut self, b: DirectBuffer, byte_idx: usize) -> MrtResult<T> {
        let clock = self.mpi.clock_mut();
        self.rt.direct_get(b, byte_idx, clock)
    }

    /// Charge a populate/validate loop over `n` array elements (helper
    /// for benchmarks; virtual cost identical to `n` `array_get/set`s).
    pub fn charge_array_loop(&mut self, n: usize) {
        let clock = self.mpi.clock_mut();
        self.rt.charge_array_loop(n, clock);
    }

    /// Charge a populate/validate loop over `n` direct-buffer elements.
    pub fn charge_direct_loop(&mut self, n: usize) {
        let clock = self.mpi.clock_mut();
        self.rt.charge_direct_loop(n, clock);
    }

    /// Force a collection (`System.gc()`).
    pub fn gc(&mut self) {
        let clock = self.mpi.clock_mut();
        self.rt.gc(clock);
    }

    /// Collector statistics.
    pub fn gc_stats(&self) -> GcStats {
        self.rt.gc_stats()
    }

    /// Buffering-layer pool statistics.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Direct buffers ever created by this rank's runtime.
    pub fn direct_allocations(&self) -> u64 {
        self.rt.direct_allocations()
    }

    /// Fabric-level traffic counters.
    pub fn fabric_stats(&self) -> simfabric::SendStats {
        self.mpi.fabric_stats()
    }

    /// Escape hatch: the underlying native library (for tests comparing
    /// the Java layer against direct native calls, as Figure 11 does).
    pub fn native_mut(&mut self) -> &mut Mpi {
        &mut self.mpi
    }

    /// Escape hatch: the managed runtime.
    pub fn runtime_mut(&mut self) -> (&mut Runtime, &mut vtime::Clock) {
        (&mut self.rt, self.mpi.clock_mut())
    }
}
