//! The benchmark's own probes, placed around the calls it makes into each
//! crate's public functions. Nothing here is inside the program.
//!
//! Untraced, a probe only times binding calls (wall µs per call, op
//! counts, the rank's closure entry and exit). Traced, every call also
//! cuts the rank thread's time into segments at each boundary between
//! binding calls (`mvapich2j`), managed-heap calls (`mrt`), and the
//! benchmark's own code. Each segment records its wall time, its thread
//! CPU time and the program's `obs::wallprof` exclusive subsystem times
//! and counters, read by harvesting and re-arming the profiler at the
//! boundary. The segments tile the rank thread's life from the
//! profiler's install (inside the job launch) to the closure's exit.

use std::time::Instant;

use obs::wallprof::{self, NCOUNTERS, NSUBS};

/// What a rank thread is doing, from the benchmark's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seg {
    /// Job launch: `Runtime` heap, `Mpi::new`, pool and obs install.
    Setup = 0,
    /// Inside a binding call (`mvapich2j`).
    Call = 1,
    /// Inside a managed-heap call (`mrt`: new/free/fill/validate).
    Heap = 2,
    /// The benchmark's own code between calls.
    Bench = 3,
}

pub const NSEG: usize = 4;

/// Totals of one segment kind on one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SegTotals {
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub subs_ns: [u64; NSUBS],
}

impl SegTotals {
    pub fn add(&mut self, o: &SegTotals) {
        self.wall_ns += o.wall_ns;
        self.cpu_ns += o.cpu_ns;
        for i in 0..NSUBS {
            self.subs_ns[i] += o.subs_ns[i];
        }
    }
}

/// One recorded call. Spans of one operation (the heap calls that fill
/// and check its payload, and its binding calls) share `op`.
#[derive(Debug, Clone)]
pub struct Span {
    pub op: u32,
    pub rank: u32,
    pub layer: &'static str,
    pub name: &'static str,
    /// Wall ns since the job launch.
    pub start_ns: u64,
    pub end_ns: u64,
    pub cpu_ns: u64,
    /// Program subsystem time inside the span (`wallprof` order).
    pub inner_ns: [u64; NSUBS],
}

/// Thread or process CPU time in ns, from `clock_gettime`.
#[cfg(target_os = "linux")]
fn cpu_clock_ns(clock: i32) -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock ids
    // used below are the fixed Linux constants.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by the calling thread.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(3) // CLOCK_THREAD_CPUTIME_ID
}

/// CPU time consumed by the whole process.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(2) // CLOCK_PROCESS_CPUTIME_ID
}

/// Per-rank probe state; returned from the rank closure at its exit.
pub struct Probe {
    pub rank: usize,
    traced: bool,
    keep_spans: bool,
    record_samples: bool,
    launch: Instant,
    op: u32,
    cur: Seg,
    seg_start: Instant,
    seg_cpu: u64,
    /// Wall ns from the launch to closure entry / exit.
    pub entry_ns: u64,
    pub exit_ns: u64,
    pub calls: u64,
    pub call_ns: u64,
    pub heap_ns: u64,
    /// Wall ns of each binding call (rank 0 only).
    pub samples_ns: Vec<u64>,
    pub segs: [SegTotals; NSEG],
    /// The profiler's work counters over the rank's whole life.
    pub counters: [u64; NCOUNTERS],
    pub spans: Vec<Span>,
    /// Failed operations: errors, bad payloads, wrong reductions.
    pub failed: u64,
    /// FNV-1a over this rank's virtual-time results.
    pub digest: u64,
}

impl Probe {
    /// Called first thing in the rank closure. Traced, this closes the
    /// set-up segment the profiler has been timing since its install.
    pub fn enter(rank: usize, launch: Instant, traced: bool, keep_spans: bool) -> Probe {
        let now = Instant::now();
        let mut p = Probe {
            rank,
            traced,
            keep_spans,
            record_samples: rank == 0,
            launch,
            op: 0,
            cur: Seg::Setup,
            seg_start: now,
            seg_cpu: 0,
            entry_ns: now.duration_since(launch).as_nanos() as u64,
            exit_ns: 0,
            calls: 0,
            call_ns: 0,
            heap_ns: 0,
            samples_ns: Vec::new(),
            segs: [SegTotals::default(); NSEG],
            counters: [0; NCOUNTERS],
            spans: Vec::new(),
            failed: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        };
        if traced {
            p.boundary(Seg::Bench, now, true);
        }
        p
    }

    /// Start a new operation: later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Close the current segment at `now` and open `next`. At the first
    /// boundary the set-up segment's length comes from the profiler.
    fn boundary(&mut self, next: Seg, now: Instant, first: bool) -> SegTotals {
        let cpu = thread_cpu_ns();
        let prof = wallprof::harvest().unwrap_or_default();
        if next != Seg::Setup {
            wallprof::install();
        }
        let wall_ns = if first {
            prof.wall_ns
        } else {
            now.duration_since(self.seg_start).as_nanos() as u64
        };
        let seg = SegTotals {
            wall_ns,
            cpu_ns: cpu.saturating_sub(self.seg_cpu),
            subs_ns: prof.subs_ns,
        };
        self.segs[self.cur as usize].add(&seg);
        for (t, c) in self.counters.iter_mut().zip(prof.counters) {
            *t += c;
        }
        self.cur = next;
        self.seg_start = now;
        self.seg_cpu = cpu;
        seg
    }

    fn timed<R>(
        &mut self,
        seg: Seg,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let t0 = Instant::now();
        if self.traced {
            self.boundary(seg, t0, false);
        }
        let out = f();
        let t1 = Instant::now();
        let ns = t1.duration_since(t0).as_nanos() as u64;
        if self.traced {
            let s = self.boundary(Seg::Bench, t1, false);
            if self.keep_spans {
                self.spans.push(Span {
                    op: self.op,
                    rank: self.rank as u32,
                    layer,
                    name,
                    start_ns: t0.duration_since(self.launch).as_nanos() as u64,
                    end_ns: t1.duration_since(self.launch).as_nanos() as u64,
                    cpu_ns: s.cpu_ns,
                    inner_ns: s.subs_ns,
                });
            }
        }
        match seg {
            Seg::Call => {
                self.calls += 1;
                self.call_ns += ns;
                if self.record_samples {
                    self.samples_ns.push(ns);
                }
            }
            _ => self.heap_ns += ns,
        }
        out
    }

    /// Time one binding call (one MPI operation).
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.timed(Seg::Call, "mvapich2j", name, f)
    }

    /// Time one managed-heap call.
    pub fn heap<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.timed(Seg::Heap, "mrt", name, f)
    }

    /// Fold a virtual-time result into the digest.
    pub fn fold(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.digest ^= b as u64;
            self.digest = self.digest.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Record a check: a failed one counts against the operation.
    pub fn check(&mut self, ok: bool) {
        self.fold(ok as u64);
        if !ok {
            self.failed += 1;
        }
    }

    /// Called last thing in the rank closure.
    pub fn exit(&mut self) {
        let now = Instant::now();
        self.exit_ns = now.duration_since(self.launch).as_nanos() as u64;
        if self.traced {
            // `Setup` as the next kind leaves the profiler disarmed.
            self.boundary(Seg::Setup, now, false);
        }
    }
}
