//! Exact work counters of representative OMB-J jobs, pinned in tier-1:
//! point-to-point, collectives, a non-blocking collective, one-sided,
//! a lossy fabric and an array job whose collector moves payload.
//!
//! On the threaded engine, the order in which frames arrive relative to
//! receive posting is up to the OS. So are the counters that follow
//! from it: match scans and comparisons (an early frame is matched by a
//! scan of the unexpected queue, a late one by a scan of the posted
//! list), the obs records that count those updates, the schedule polls
//! of a non-blocking collective, and, under a fault plan, the frames a
//! rank drains before it exits (deliveries). Those stay unpinned on
//! threaded rows; every other counter here repeats exactly. A receive
//! shares the bytes of a frame whose duplicate or retransmitted twin is
//! still in flight instead of copying them, so `copy_bytes` is pinned on
//! the lossy row too.

mod harness;

use harness::pins::{assert_pinned, Work};
use mvapich2j::Env;
use obs::wallprof::Counter;
use ombj::{Api, BenchOptions, Benchmark, CollOp, Library, NbOp, RunSpec};
use simfabric::{EngineMode, FaultPlan, Topology};

/// The per-message paths: what each message costs in fabric work,
/// staging and managed-heap traffic.
const PAYLOAD: [Work; 9] = [
    Work::Wp(Counter::Injections),
    Work::Wp(Counter::Deliveries),
    Work::Wp(Counter::Allocs),
    Work::Wp(Counter::Messages),
    Work::Wp(Counter::PoolAcquires),
    Work::Pvar("mrt.gc.bytes_copied"),
    Work::Pvar("mrt.heap.alloc_bytes"),
    Work::WireBytes,
    Work::Wp(Counter::CopyBytes),
];

/// [`PAYLOAD`] on a lossy fabric: deliveries follow which frames are
/// still in flight when a rank exits (racy on the threaded engine); the
/// reliability sublayer's retransmits and acks are decided by the
/// seeded plan.
const LOSSY: [Work; 10] = [
    Work::Wp(Counter::Injections),
    Work::Wp(Counter::Allocs),
    Work::Wp(Counter::Messages),
    Work::Wp(Counter::PoolAcquires),
    Work::Pvar("mrt.gc.bytes_copied"),
    Work::Pvar("mrt.heap.alloc_bytes"),
    Work::WireBytes,
    Work::Pvar("fabric.retransmits"),
    Work::Pvar("fabric.acks"),
    Work::Wp(Counter::CopyBytes),
];

struct Row {
    job: &'static str,
    spec: RunSpec,
    /// Runs on every rank before the benchmark.
    prelude: fn(&mut Env),
    pins: &'static [Work],
    want: &'static [u64],
}

fn spec(benchmark: Benchmark, topo: Topology, max_size: usize) -> RunSpec {
    RunSpec {
        library: Library::Mvapich2J,
        benchmark,
        api: Api::Buffer,
        topo,
        opts: BenchOptions {
            max_size,
            ..BenchOptions::quick()
        },
        faults: None,
        engine: EngineMode::Threaded,
    }
}

/// One binding call leaves a garbage wrapper object at the bottom of the
/// heap. OMB-J allocates its arrays before any call, so the collector
/// never has to move them and `mrt.gc.bytes_copied` reads 0 on every
/// plain OMB-J job; with this garbage below them, the collections that
/// make room on the full heap slide the arrays down.
fn garbage_first(env: &mut Env) {
    let w = env.world();
    env.barrier(w).expect("barrier");
}

fn rows() -> Vec<Row> {
    let pt2pt = Topology::new(2, 1);
    let mut lossy = spec(Benchmark::Latency, pt2pt, 1 << 10);
    let mut plan = FaultPlan::parse("drop=0.02,corrupt=0.001,dup=0.005,jitter=200")
        .expect("static fault spec parses");
    plan.seed = 42;
    lossy.faults = Some(plan);
    // 8 MiB arrays fill the default 16 MiB heap: one sweep step and a
    // short window keep the payload at 32 MiB.
    let arrays_bw = RunSpec {
        api: Api::Arrays,
        opts: BenchOptions {
            min_size: 8 << 20,
            max_size: 8 << 20,
            warmup_large: 0,
            iterations_large: 1,
            window_size: 4,
            ..BenchOptions::quick()
        },
        ..spec(Benchmark::Bandwidth, pt2pt, 8 << 20)
    };
    let row = |job, spec, pins: &'static [Work], want: &'static [u64]| Row {
        job,
        spec,
        prelude: |_| {},
        pins,
        want,
    };
    vec![
        row(
            "pt2pt_latency",
            spec(Benchmark::Latency, pt2pt, 1 << 10),
            &PAYLOAD,
            &[308, 308, 308, 308, 0, 0, 27_456, 68_840, 98_256],
        ),
        row(
            "pt2pt_bw",
            spec(Benchmark::Bandwidth, pt2pt, 1 << 10),
            &PAYLOAD,
            &[
                8_646, 8_646, 8_646, 8_646, 0, 0, 839_520, 2_125_968, 3_145_248,
            ],
        ),
        row(
            "bcast_8",
            spec(
                Benchmark::Collective(CollOp::Bcast),
                Topology::new(2, 4),
                1 << 10,
            ),
            &PAYLOAD,
            &[4_510, 4_510, 4_510, 4_510, 0, 0, 109_824, 424_156, 741_496],
        ),
        row(
            "allreduce_64",
            spec(
                Benchmark::Collective(CollOp::Allreduce),
                Topology::new(2, 4),
                1 << 10,
            ),
            &PAYLOAD,
            &[
                5_434, 5_434, 5_434, 5_434, 0, 0, 109_824, 642_568, 1_281_904,
            ],
        ),
        row(
            "ibcast_overlap",
            spec(
                Benchmark::NonBlocking {
                    op: NbOp::Ibcast,
                    overlap: true,
                },
                Topology::new(2, 2),
                1 << 10,
            ),
            &PAYLOAD,
            &[1_100, 1_100, 1_100, 1_100, 0, 0, 109_824, 212_504, 741_144],
        ),
        row(
            "rma_put_latency",
            spec(Benchmark::PutLatency, pt2pt, 1 << 10),
            &PAYLOAD,
            &[204, 204, 204, 204, 0, 0, 22_368, 37_628, 49_144],
        ),
        row(
            "rma_put_latency_4k",
            spec(Benchmark::PutLatency, pt2pt, 1 << 12),
            &PAYLOAD,
            &[240, 240, 240, 240, 0, 0, 26_400, 113_660, 196_600],
        ),
        row(
            "rma_get_bw",
            spec(Benchmark::GetBandwidth, pt2pt, 1 << 10),
            &PAYLOAD,
            &[
                16_946, 16_946, 8_498, 8_498, 0, 0, 420_480, 2_656_648, 3_166_736,
            ],
        ),
        row(
            "lossy_latency",
            lossy,
            &LOSSY,
            &[620, 308, 308, 0, 0, 27_456, 69_170, 4, 308, 98_256],
        ),
        Row {
            prelude: garbage_first,
            ..row(
                "arrays_bw_gc",
                arrays_bw,
                &PAYLOAD,
                &[
                    22, 22, 20, 14, 12, 16_777_216, 33_555_600, 33_555_844, 67_108_876,
                ],
            )
        },
    ]
}

#[test]
fn basket_jobs_keep_their_exact_work_counters() {
    for r in rows() {
        let work = assert_pinned(r.job, r.spec, r.prelude, r.pins, r.want);
        if matches!(r.spec.benchmark, Benchmark::Latency | Benchmark::Bandwidth) {
            // A message is copied twice. A direct-buffer one is captured
            // into the frame and deposited into the receive buffer. An
            // array one from the 64 KiB floor up (every rendezvous message
            // of the array rows) is gathered into a store that travels as
            // the frame and scattered straight out of it; below the floor
            // (every eager one) the frame captures the store, a third copy.
            let (eager, rndv) = (
                work.get(Work::Pvar("pt2pt.eager_bytes")),
                work.get(Work::Pvar("pt2pt.rndv_bytes")),
            );
            let bound = match r.spec.api {
                Api::Buffer => 2 * (eager + rndv),
                Api::Arrays => 2 * rndv + 3 * eager,
            };
            assert!(
                work.get(Work::Wp(Counter::CopyBytes)) <= bound,
                "{}: more copies per payload byte than the path makes",
                r.job
            );
        }
        if r.spec.api == Api::Buffer {
            // Over direct buffers every message costs exactly one payload
            // allocation, one-sided puts included (a window's one-time
            // allocation is not charged to `Allocs`).
            assert_eq!(
                work.get(Work::Wp(Counter::Allocs)),
                work.get(Work::Wp(Counter::Messages)),
                "{}: one staging alloc per message",
                r.job
            );
        }
    }
}
