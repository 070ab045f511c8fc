//! The three workloads: what each rank runs, and why each exists.
//!
//! Every workload is driven from the benchmark's own rank closures
//! through `mvapich2j::run_job_with_obs`. Each repetition of a run is one
//! whole job over the same generated inputs, so every repetition must
//! produce the same virtual-time digest.

use mvapich2j::datatype::{BYTE, LONG};
use mvapich2j::{BindResult, DirectBuffer, EngineMode, Env, JArray, JobConfig, ReduceOp, Topology};
use simfabric::FaultPlan;

use crate::inputs::{Api, Inputs, Msg};
use crate::probe::Probe;

/// One workload: cluster shape, engine, size range and operation mix.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why it exists and which layers it is meant to move.
    pub why: &'static str,
    pub nodes: usize,
    pub ppn: usize,
    /// `true`: the event engine. `false`: the default engine of
    /// `JobConfig::mvapich2j`, whichever that is.
    pub event_engine: bool,
    /// Sizes span octaves `2^lo_exp ..= 2^hi_exp` bytes.
    pub lo_exp: u32,
    pub hi_exp: u32,
    /// Passes over the message list per job (pt2pt workloads).
    pub rounds: usize,
    /// Round trips per message (pt2pt workloads).
    pub pingpongs: usize,
    /// Messages in flight per windowed-bandwidth step (pt2pt workloads).
    pub window: usize,
    /// Fence-epoch put beside get per message (pt2pt workloads).
    pub rma: bool,
    /// Seeded lossy fabric with the flight ring and telemetry on.
    pub lossy: bool,
    /// Mixed into the seed so workloads never share inputs.
    pub salt: u64,
}

/// The lossy fabric a user diagnosing a flaky network would run.
pub const FAULTS: &str = "drop=0.02,corrupt=0.001,dup=0.005,jitter=200";

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "pt2pt_large",
        why: "64 KiB-4 MiB ping-pong, windowed bandwidth and put-beside-get over both APIs: \
              moves the payload layers (mpisim pack/unpack, nif copies, mpjbuf staging, mrt heap/GC)",
        nodes: 2,
        ppn: 1,
        event_engine: false,
        lo_exp: 16,
        hi_exp: 22,
        rounds: 1,
        pingpongs: 1,
        window: 2,
        rma: true,
        lossy: false,
        salt: 0x7032_7032_6c61_7267,
    },
    Workload {
        name: "coll_256_event",
        why: "256 ranks on the event engine running bcast, SUM allreduce and barrier at 4 B-1 KiB: \
              moves the simfabric baton scheduler and event queue, then mpisim collectives and matching",
        nodes: 8,
        ppn: 32,
        event_engine: true,
        lo_exp: 2,
        hi_exp: 10,
        rounds: 1,
        pingpongs: 0,
        window: 0,
        rma: false,
        lossy: false,
        salt: 0x636f_6c6c_3235_3665,
    },
    Workload {
        name: "pt2pt_small_lossy",
        why: "1 B-8 KiB ping-pong and windowed bandwidth over both APIs on a seeded lossy fabric \
              with flight ring and telemetry on: moves the per-message path (bindings, matching, \
              reliability, obs records)",
        nodes: 2,
        ppn: 1,
        event_engine: false,
        lo_exp: 0,
        hi_exp: 13,
        rounds: 8,
        pingpongs: 4,
        window: 8,
        rma: false,
        lossy: true,
        salt: 0x736d_616c_6c6c_6f73,
    },
];

impl Workload {
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn ranks(&self) -> usize {
        self.nodes * self.ppn
    }

    /// The job configuration. `profiling` arms the program's wall-clock
    /// profiler, which only the traced run reads.
    pub fn config(&self, inputs: &Inputs, profiling: bool) -> JobConfig {
        let mut cfg = JobConfig::mvapich2j(Topology::new(self.nodes, self.ppn));
        if self.event_engine {
            cfg = cfg.with_engine(EngineMode::EventDriven);
        }
        let mut opts = obs::ObsOptions::default();
        if self.lossy {
            let mut plan = FaultPlan::parse(FAULTS).expect("fault spec is well-formed");
            plan.seed = inputs.fault_seed;
            cfg = cfg.with_faults(plan);
            opts = opts.with_flight().with_telemetry(0.0);
        }
        opts.profiling = profiling;
        cfg.with_obs(opts)
    }

    /// One rank's whole workload.
    pub fn run_rank(&self, inp: &Inputs, env: &mut Env, p: &mut Probe) -> BindResult<()> {
        let world = env.world();
        // Start line: every rank is past set-up before the first operation.
        p.next_op();
        p.call("barrier", || env.barrier(world))?;
        if self.ranks() == 2 {
            pt2pt(self, inp, env, p)
        } else {
            collectives(self, inp, env, p)
        }
    }
}

/// A message buffer of either API.
#[derive(Clone, Copy)]
enum Mem {
    Direct(DirectBuffer),
    Array(JArray<i8>),
}

/// A Java array is allocated per message, like application code does; a
/// direct buffer is long-lived, so `reuse` serves the buffer API.
fn take(
    env: &mut Env,
    p: &mut Probe,
    api: Api,
    size: usize,
    reuse: DirectBuffer,
) -> BindResult<Mem> {
    Ok(match api {
        Api::Buffer => Mem::Direct(reuse),
        Api::Array => Mem::Array(p.heap("new_array", || env.new_array::<i8>(size))?),
    })
}

fn give_back(env: &mut Env, p: &mut Probe, m: Mem) -> BindResult<()> {
    if let Mem::Array(a) = m {
        p.heap("free_array", || env.free_array(a))?;
    }
    Ok(())
}

/// Populate `m` with `bytes`, charging the Java element loop.
fn fill(env: &mut Env, p: &mut Probe, m: Mem, bytes: &[u8]) -> BindResult<()> {
    p.heap("fill", || {
        let n = bytes.len();
        match m {
            Mem::Direct(b) => {
                env.runtime_mut().0.direct_bytes_mut(b)?[..n].copy_from_slice(bytes);
                env.charge_direct_loop(n);
            }
            Mem::Array(a) => {
                env.runtime_mut().0.heap_mut().bytes_mut(a.handle())?[..n].copy_from_slice(bytes);
                env.charge_array_loop(n);
            }
        }
        Ok(())
    })
}

/// Overwrite the start of `m` with the complement of the `bytes` a
/// receive into it must deliver, so no receive finds them already in
/// place (long-lived buffers are reused, and messages repeat). Charges
/// no virtual time.
fn poison(env: &mut Env, m: Mem, bytes: &[u8]) -> BindResult<()> {
    let (rt, _) = env.runtime_mut();
    let dst = match m {
        Mem::Direct(b) => rt.direct_bytes_mut(b)?,
        Mem::Array(a) => rt.heap_mut().bytes_mut(a.handle())?,
    };
    for (d, s) in dst.iter_mut().zip(bytes) {
        *d = !s;
    }
    Ok(())
}

/// Whether `m` starts with `bytes`, charging the Java element loop.
fn holds(env: &mut Env, p: &mut Probe, m: Mem, bytes: &[u8]) -> BindResult<bool> {
    p.heap("validate", || {
        let n = bytes.len();
        let ok = match m {
            Mem::Direct(b) => {
                let ok = env.runtime_mut().0.direct_bytes(b)?[..n] == *bytes;
                env.charge_direct_loop(n);
                ok
            }
            Mem::Array(a) => {
                let ok = env.runtime_mut().0.heap().bytes(a.handle())?[..n] == *bytes;
                env.charge_array_loop(n);
                ok
            }
        };
        Ok(ok)
    })
}

fn send(env: &mut Env, p: &mut Probe, m: Mem, n: usize, dst: usize, tag: i32) -> BindResult<()> {
    let w = env.world();
    p.call("send", || match m {
        Mem::Direct(b) => env.send_buffer(b, n as i32, &BYTE, dst, tag, w),
        Mem::Array(a) => env.send_array(a, n as i32, dst, tag, w),
    })
}

fn recv(env: &mut Env, p: &mut Probe, m: Mem, n: usize, src: usize, tag: i32) -> BindResult<usize> {
    let w = env.world();
    let st = p.call("recv", || match m {
        Mem::Direct(b) => env.recv_buffer(b, n as i32, &BYTE, src as i32, tag, w),
        Mem::Array(a) => env.recv_array(a, n as i32, src as i32, tag, w),
    })?;
    Ok(st.bytes)
}

/// Record that `m` holds exactly the expected `n` bytes.
fn expect(env: &mut Env, p: &mut Probe, m: Mem, got: usize, bytes: &[u8]) -> BindResult<()> {
    let ok = got == bytes.len() && holds(env, p, m, bytes)?;
    p.check(ok);
    p.fold(env.now().as_nanos().to_bits());
    Ok(())
}

fn pt2pt(w: &Workload, inp: &Inputs, env: &mut Env, p: &mut Probe) -> BindResult<()> {
    let me = env.rank();
    let peer = 1 - me;
    // Long-lived buffers are sized to the range's top, whatever the seed.
    let max = 1 << w.hi_exp;
    let sbuf = p.heap("new_direct", || env.new_direct(max));
    let mut rbufs = Vec::new();
    for _ in 0..w.window.max(1) {
        rbufs.push(p.heap("new_direct", || env.new_direct(max)));
    }
    let ack = p.heap("new_direct", || env.new_direct(4));
    let rounds = inp.msgs.iter().cycle().take(inp.msgs.len() * w.rounds);
    for (i, m) in rounds.enumerate() {
        let tag = i as i32 * 4;
        pingpong(w, inp, env, p, m, tag, sbuf, rbufs[0], me, peer)?;
        bandwidth(w, inp, env, p, m, tag + 1, sbuf, &rbufs, ack, me, peer)?;
        if w.rma {
            put_beside_get(inp, env, p, m, me, peer)?;
        }
    }
    for b in rbufs.into_iter().chain([sbuf, ack]) {
        p.heap("free_direct", || env.free_direct(b))?;
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn pingpong(
    w: &Workload,
    inp: &Inputs,
    env: &mut Env,
    p: &mut Probe,
    m: &Msg,
    tag: i32,
    sbuf: DirectBuffer,
    rbuf: DirectBuffer,
    me: usize,
    peer: usize,
) -> BindResult<()> {
    let bytes = inp.payload(m.shift, m.size);
    for _ in 0..w.pingpongs {
        p.next_op();
        if me == 0 {
            let s = take(env, p, m.api, m.size, sbuf)?;
            fill(env, p, s, bytes)?;
            send(env, p, s, m.size, peer, tag)?;
            let r = take(env, p, m.api, m.size, rbuf)?;
            poison(env, r, bytes)?;
            let got = recv(env, p, r, m.size, peer, tag)?;
            expect(env, p, r, got, bytes)?;
            give_back(env, p, s)?;
            give_back(env, p, r)?;
        } else {
            let r = take(env, p, m.api, m.size, rbuf)?;
            poison(env, r, bytes)?;
            let got = recv(env, p, r, m.size, peer, tag)?;
            expect(env, p, r, got, bytes)?;
            send(env, p, r, m.size, peer, tag)?;
            give_back(env, p, r)?;
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn bandwidth(
    w: &Workload,
    inp: &Inputs,
    env: &mut Env,
    p: &mut Probe,
    m: &Msg,
    tag: i32,
    sbuf: DirectBuffer,
    rbufs: &[DirectBuffer],
    ack: DirectBuffer,
    me: usize,
    peer: usize,
) -> BindResult<()> {
    let world = env.world();
    let bytes = inp.payload(m.shift, m.size);
    let n = m.size as i32;
    p.next_op();
    if me == 0 {
        let s = take(env, p, m.api, m.size, sbuf)?;
        fill(env, p, s, bytes)?;
        let mut reqs = Vec::with_capacity(w.window);
        for _ in 0..w.window {
            reqs.push(p.call("isend", || match s {
                Mem::Direct(b) => env.isend_buffer(b, n, &BYTE, peer, tag, world),
                Mem::Array(a) => env.isend_array(a, n, peer, tag, world),
            })?);
        }
        p.call("waitall", || env.waitall(reqs))?;
        give_back(env, p, s)?;
        let got = recv(env, p, Mem::Direct(ack), 4, peer, tag)?;
        p.check(got == 4);
    } else {
        let mut mems = Vec::with_capacity(w.window);
        let mut reqs = Vec::with_capacity(w.window);
        for &rb in rbufs.iter().take(w.window) {
            let r = take(env, p, m.api, m.size, rb)?;
            poison(env, r, bytes)?;
            reqs.push(p.call("irecv", || match r {
                Mem::Direct(b) => env.irecv_buffer(b, n, &BYTE, peer as i32, tag, world),
                Mem::Array(a) => env.irecv_array(a, n, peer as i32, tag, world),
            })?);
            mems.push(r);
        }
        let sts = p.call("waitall", || env.waitall(reqs))?;
        for (r, st) in mems.into_iter().zip(sts) {
            expect(env, p, r, st.bytes, bytes)?;
            give_back(env, p, r)?;
        }
        send(env, p, Mem::Direct(ack), 4, peer, tag)?;
    }
    p.fold(env.now().as_nanos().to_bits());
    Ok(())
}

/// One fence epoch in which rank 0 puts into rank 1's window while rank 1
/// gets from rank 0's window, so writes run beside reads.
fn put_beside_get(
    inp: &Inputs,
    env: &mut Env,
    p: &mut Probe,
    m: &Msg,
    me: usize,
    peer: usize,
) -> BindResult<()> {
    let world = env.world();
    let n = m.size;
    let put_bytes = inp.payload(m.shift, n);
    let win_bytes = inp.payload(m.shift + 1, n);
    p.next_op();
    let (window, origin) = match m.api {
        Api::Buffer => (
            Mem::Direct(p.heap("new_direct", || env.new_direct(n))),
            Mem::Direct(p.heap("new_direct", || env.new_direct(n))),
        ),
        Api::Array => (
            Mem::Array(p.heap("new_array", || env.new_array::<i8>(n))?),
            Mem::Array(p.heap("new_array", || env.new_array::<i8>(n))?),
        ),
    };
    let win = p.call("win_create", || match window {
        Mem::Direct(b) => env.win_create_buffer(b, world),
        Mem::Array(a) => env.win_create_array(a, world),
    })?;
    if me == 0 {
        fill(env, p, window, win_bytes)?;
        fill(env, p, origin, put_bytes)?;
    } else {
        poison(env, window, put_bytes)?;
        poison(env, origin, win_bytes)?;
    }
    p.call("win_fence", || env.win_fence(win))?;
    if me == 0 {
        p.call("put", || match origin {
            Mem::Direct(b) => env.put_buffer(win, b, n as i32, &BYTE, peer, 0),
            Mem::Array(a) => env.put_array(win, a, n as i32, peer, 0),
        })?;
    } else {
        p.call("get", || match origin {
            Mem::Direct(b) => env.get_buffer(win, b, n as i32, &BYTE, peer, 0),
            Mem::Array(a) => env.get_array(win, a, n as i32, peer, 0),
        })?;
    }
    p.call("win_fence", || env.win_fence(win))?;
    if me == 1 {
        expect(env, p, window, n, put_bytes)?;
        expect(env, p, origin, n, win_bytes)?;
    }
    p.call("win_free", || env.win_free(win))?;
    for mem in [window, origin] {
        match mem {
            Mem::Direct(b) => p.heap("free_direct", || env.free_direct(b))?,
            Mem::Array(a) => p.heap("free_array", || env.free_array(a))?,
        }
    }
    p.fold(env.now().as_nanos().to_bits());
    Ok(())
}

fn collectives(w: &Workload, inp: &Inputs, env: &mut Env, p: &mut Probe) -> BindResult<()> {
    let me = env.rank();
    let world = env.world();
    let max = (1 << w.hi_exp).max(8);
    let buf = p.heap("new_direct", || env.new_direct(max));
    let sbuf = p.heap("new_direct", || env.new_direct(max));
    let rbuf = p.heap("new_direct", || env.new_direct(max));
    for s in &inp.steps {
        let bytes = inp.payload(s.shift, s.bcast_bytes);
        p.next_op();
        if me == s.root {
            fill(env, p, Mem::Direct(buf), bytes)?;
        } else {
            poison(env, Mem::Direct(buf), bytes)?;
        }
        let n = s.bcast_bytes as i32;
        p.call("bcast", || env.bcast_buffer(buf, n, &BYTE, s.root, world))?;
        expect(env, p, Mem::Direct(buf), s.bcast_bytes, bytes)?;

        p.next_op();
        let mine: Vec<u8> = s.contrib[me].iter().flat_map(|x| x.to_le_bytes()).collect();
        fill(env, p, Mem::Direct(sbuf), &mine)?;
        let count = s.expected.len() as i32;
        let want: Vec<u8> = s.expected.iter().flat_map(|x| x.to_le_bytes()).collect();
        poison(env, Mem::Direct(rbuf), &want)?;
        p.call("allreduce", || {
            env.allreduce_buffer(sbuf, rbuf, count, &LONG, ReduceOp::Sum, world)
        })?;
        expect(env, p, Mem::Direct(rbuf), want.len(), &want)?;

        p.next_op();
        p.call("barrier", || env.barrier(world))?;
        p.fold(env.now().as_nanos().to_bits());
    }
    for b in [buf, sbuf, rbuf] {
        p.heap("free_direct", || env.free_direct(b))?;
    }
    Ok(())
}
