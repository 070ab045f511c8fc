//! Golden byte-identity of every observability export.
//!
//! The other observability tests compare two runs of the *same* build.
//! This one pins the exported bytes across builds: it runs two
//! event-engine jobs (where every pvar is deterministic) and checks the
//! FNV-1a digest and length of the pvar dump, the telemetry JSON and CSV,
//! the Chrome trace and the incident bundle against recorded values. A
//! refactor of the record path must leave every one of them unchanged.
//!
//! * `lossy_16_ranks`: a 4×4 job on a seeded lossy plan with tracing,
//!   the flight ring and telemetry on, running pt2pt (eager and
//!   rendezvous), bcast, allreduce, a GC and one RMA fence epoch. Ranks
//!   10–15 make link names such as `10->2` sort as strings, not numbers.
//! * `crash_8_ranks`: an allreduce sweep whose fault plan kills rank 5.
//!   Tracing keeps a 256-event ring beside the 512-event flight window,
//!   so the trace and the incident bundle read different tails of the
//!   same events.

use mvapich2j::datatype::{BYTE, INT};
use mvapich2j::{run_job_with_obs, EngineMode, JobConfig, ReduceOp, Topology};
use ombj::{run_with_obs, Api, BenchOptions, Benchmark, CollOp, Library, RunSpec};
use simfabric::FaultPlan;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(name, length, digest)` of every export of `report`; an absent
/// export reads as length 0, digest 0.
fn digests(report: &obs::JobReport) -> Vec<(&'static str, usize, u64)> {
    let pin = |name, s: Option<String>| {
        let s = s.unwrap_or_default();
        let digest = if s.is_empty() { 0 } else { fnv1a(s.as_bytes()) };
        (name, s.len(), digest)
    };
    vec![
        pin("pvar_dump", Some(report.pvar_dump())),
        pin("telemetry_json", report.telemetry_json()),
        pin("telemetry_csv", report.telemetry_csv()),
        pin("chrome_trace_json", Some(report.chrome_trace_json())),
        pin("incident_bundle_json", report.incident_bundle_json()),
    ]
}

fn assert_golden(job: &str, report: &obs::JobReport, want: &[(&str, usize, u64)]) {
    let got = digests(report);
    for ((name, len, digest), (wname, wlen, wdigest)) in got.iter().zip(want) {
        assert_eq!(name, wname);
        assert_eq!(
            (*len, *digest),
            (*wlen, *wdigest),
            "{job}: {name} changed (length {len}, digest {digest:#018x})"
        );
    }
    assert_eq!(got.len(), want.len());
}

#[test]
fn lossy_16_ranks() {
    let mut plan = FaultPlan::parse("drop=0.02,corrupt=0.001,dup=0.01,jitter=200")
        .expect("fault spec is well-formed");
    plan.seed = 11;
    let cfg = JobConfig::mvapich2j(Topology::new(4, 4))
        .with_engine(EngineMode::EventDriven)
        .with_faults(plan)
        .with_obs(obs::ObsOptions::traced().with_flight().with_telemetry(0.0));
    let (_, report) = run_job_with_obs(cfg, |env| {
        let w = env.world();
        let me = env.rank();
        let n = env.size();
        let (right, left) = ((me + 1) % n, (me + n - 1) % n);
        // Ring exchange over Java arrays: eager and rendezvous sizes.
        for (round, elems) in [64usize, 16 * 1024].into_iter().enumerate() {
            let send = env.new_array::<i32>(elems).unwrap();
            let recv = env.new_array::<i32>(elems).unwrap();
            let vals: Vec<i32> = (0..elems as i32).map(|i| (me as i32) << 20 | i).collect();
            env.array_write(send, 0, &vals).unwrap();
            let tag = round as i32;
            let rr = env
                .irecv_array(recv, elems as i32, left as i32, tag, w)
                .unwrap();
            let sr = env.isend_array(send, elems as i32, right, tag, w).unwrap();
            env.waitall(vec![sr, rr]).unwrap();
            assert_eq!(
                env.array_get(recv, elems - 1).unwrap(),
                (left as i32) << 20 | (elems as i32 - 1)
            );
            env.free_array(send).unwrap();
            env.free_array(recv).unwrap();
        }
        env.gc();
        // Bcast over a direct buffer from a high rank.
        let b = env.new_direct(4096);
        if me == 13 {
            env.direct_put::<i32>(b, 0, 0x5eed).unwrap();
        }
        env.bcast_buffer(b, 4096, &BYTE, 13, w).unwrap();
        assert_eq!(env.direct_get::<i32>(b, 0).unwrap(), 0x5eed);
        // Allreduce over Java arrays.
        let send = env.new_array::<i32>(256).unwrap();
        let recv = env.new_array::<i32>(256).unwrap();
        env.array_write(send, 0, &[me as i32 + 1; 256]).unwrap();
        env.allreduce_array(send, recv, 256, ReduceOp::Sum, w)
            .unwrap();
        assert_eq!(env.array_get(recv, 255).unwrap(), (n * (n + 1) / 2) as i32);
        // One fence epoch: every rank puts into its right neighbour.
        let target = env.new_direct(1024);
        let origin = env.new_direct(1024);
        env.direct_put::<i32>(origin, 0, me as i32).unwrap();
        let win = env.win_create_buffer(target, w).unwrap();
        env.win_fence(win).unwrap();
        env.put_buffer(win, origin, 256, &INT, right, 0).unwrap();
        env.win_fence(win).unwrap();
        assert_eq!(env.direct_get::<i32>(target, 0).unwrap(), left as i32);
        env.win_free(win).unwrap();
    });
    assert!(report.ranks.iter().all(|r| r.flight.is_some()));
    assert_golden(
        "lossy_16_ranks",
        &report,
        &[
            ("pvar_dump", 10932, 0x65c53cdd79e43fc0),
            ("telemetry_json", 80472, 0x4010a368cf33391b),
            ("telemetry_csv", 108633, 0x3175fb934380ecb5),
            ("chrome_trace_json", 476688, 0xa5526a2784928e4f),
            ("incident_bundle_json", 0, 0),
        ],
    );
}

#[test]
fn crash_8_ranks() {
    let mut plan = FaultPlan::new(7);
    plan.crash = Some((5, 200_000.0));
    plan.watchdog_ms = 100;
    let spec = RunSpec {
        library: Library::Mvapich2J,
        benchmark: Benchmark::Collective(CollOp::Allreduce),
        api: Api::Buffer,
        topo: Topology::new(2, 4),
        opts: BenchOptions {
            max_size: 1 << 10,
            ..BenchOptions::quick()
        },
        faults: Some(plan),
        engine: EngineMode::EventDriven,
    };
    let opts = obs::ObsOptions {
        ring_capacity: 256,
        ..obs::ObsOptions::traced()
    }
    .with_flight()
    .with_telemetry(0.0);
    let (series, report) = run_with_obs(spec, opts);
    assert!(series.is_none(), "the planned crash aborts the benchmark");
    assert_golden(
        "crash_8_ranks",
        &report,
        &[
            ("pvar_dump", 4262, 0x5c6f4d9ed3326316),
            ("telemetry_json", 93236, 0xf0580b0d81a0231e),
            ("telemetry_csv", 134895, 0x8ce572779bc6f5c1),
            ("chrome_trace_json", 287043, 0x61e400f8ebd69249),
            ("incident_bundle_json", 672685, 0xfc5ad0e7249c2b28),
        ],
    );
}
