//! Scale tier: the event engine's reason to exist. One OS thread per
//! rank tops out around the low hundreds of ranks (stack + scheduler
//! pressure); the cooperative discrete-event scheduler runs exactly one
//! rank at a time, so a 1024-rank job is just a longer event loop in
//! one process.
//!
//! The quick tests (64–128 ranks) run in the default tier; the
//! 1024-rank and 256-rank-crash runs are `#[ignore]`d by default and
//! executed by CI's `scale` job (`cargo test --test scale -- --ignored`).

mod harness;

use harness::pins::{assert_pinned, Work};
use obs::wallprof::Counter;
use ombj::{run_with_obs, Api, BenchOptions, Benchmark, CollOp, Library, RunSpec};
use simfabric::{EngineMode, FaultPlan, Topology};

fn coll_spec(op: CollOp, topo: Topology) -> RunSpec {
    RunSpec {
        library: Library::Mvapich2J,
        benchmark: Benchmark::Collective(op),
        api: Api::Buffer,
        topo,
        opts: BenchOptions {
            max_size: 1 << 10,
            ..BenchOptions::quick()
        },
        faults: None,
        engine: EngineMode::EventDriven,
    }
}

/// Exact work counters, summed over a job's ranks. On the event engine
/// each is a pure function of the schedule, so a change to the schedule
/// order, the match path or the record path moves one of them, while
/// wall-time work on the simulator leaves all of them as they are.
const PINNED: [Work; 8] = [
    Work::Wp(Counter::SchedPolls),
    Work::Wp(Counter::Injections),
    Work::Wp(Counter::Deliveries),
    Work::Wp(Counter::MatchScans),
    Work::Wp(Counter::MatchComparisons),
    Work::Wp(Counter::ObsRecords),
    Work::Wp(Counter::Allocs),
    Work::Wp(Counter::Messages),
];

/// Run `spec` profiled; its [`PINNED`] counters must equal `want`, in
/// that order (an empty `want` only requires the job to complete).
fn assert_completes(job: &str, spec: RunSpec, want: &[u64]) {
    assert_pinned(job, spec, |_| {}, &PINNED, want);
}

/// 64 ranks in the default tier: cheap enough to run always, large
/// enough to catch scheduler regressions before the ignored tier does.
#[test]
fn bcast_64_ranks_event_engine() {
    assert_completes(
        "bcast_64",
        coll_spec(CollOp::Bcast, Topology::new(8, 8)),
        &[
            64_661, 64_724, 64_724, 129_448, 64_724, 645_806, 64_724, 64_724,
        ],
    );
}

#[test]
fn allreduce_128_ranks_event_engine() {
    assert_completes(
        "allreduce_128",
        coll_spec(CollOp::Allreduce, Topology::new(16, 8)),
        &[
            169_185, 169_312, 169_312, 338_624, 169_312, 1_614_976, 169_312, 169_312,
        ],
    );
}

/// The acceptance run: a 1024-rank `osu_bcast` in one process.
#[test]
#[ignore = "scale tier: run via `cargo test --test scale -- --ignored` (CI `scale` job)"]
fn bcast_1024_ranks_event_engine() {
    assert_completes(
        "bcast_1024",
        coll_spec(CollOp::Bcast, Topology::new(16, 64)),
        &[],
    );
}

#[test]
#[ignore = "scale tier: run via `cargo test --test scale -- --ignored` (CI `scale` job)"]
fn allreduce_1024_ranks_event_engine() {
    assert_completes(
        "allreduce_1024",
        coll_spec(CollOp::Allreduce, Topology::new(16, 64)),
        &[],
    );
}

/// Fault smoke at scale: a 256-rank job where the crash plan kills one
/// rank mid-sweep. The event engine's structural watchdog (a stalled
/// event loop, not a wall-clock timeout) must convert the stall into a
/// rank failure, and the incident bundle must name the failed rank.
fn crash_at_scale(topo: Topology, victim: usize) {
    let mut plan = FaultPlan::new(7);
    plan.crash = Some((victim, 200_000.0));
    plan.watchdog_ms = 100;
    let spec = RunSpec {
        library: Library::Mvapich2J,
        benchmark: Benchmark::Collective(CollOp::Allreduce),
        api: Api::Buffer,
        topo,
        opts: BenchOptions {
            max_size: 1 << 10,
            ..BenchOptions::quick()
        },
        faults: Some(plan),
        engine: EngineMode::EventDriven,
    };
    let (series, report) = run_with_obs(
        spec,
        obs::ObsOptions::default().with_flight().with_telemetry(0.0),
    );
    assert!(series.is_none(), "the planned crash aborts the benchmark");
    let bundle = report
        .incident_bundle_json()
        .expect("a crashed run must yield an incident bundle");
    let inc = obs::analyze::incident_from_json(&bundle).expect("bundle parses");
    assert_eq!(
        inc.failed_rank, victim,
        "the bundle must name the crashed rank"
    );
    assert_eq!(
        inc.ranks.len(),
        topo.size(),
        "every rank's flight window is in the bundle"
    );
    assert!(inc.render_text().contains(&format!("rank {victim} failed")));
}

/// Small always-on version of the crash smoke (8 ranks).
#[test]
fn crash_8_ranks_event_engine_names_failed_rank() {
    crash_at_scale(Topology::new(2, 4), 5);
}

#[test]
#[ignore = "scale tier: run via `cargo test --test scale -- --ignored` (CI `scale` job)"]
fn crash_256_ranks_event_engine_names_failed_rank() {
    crash_at_scale(Topology::new(8, 32), 129);
}
