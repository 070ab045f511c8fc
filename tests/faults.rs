//! Workspace-level tests for the fault-injection fabric riding under the
//! full benchmark stack: OMB-J sweeps must complete with validation under
//! a seeded non-crash plan, the fault pvars must fire exactly when a plan
//! is active, and a lossy `--analyze` run must replay byte-identically
//! for the same seed.

use mvapich2j::datatype::INT;
use mvapich2j::{run_job, run_job_with_obs, BindError, JobConfig, ReduceOp, Topology};
use ombj::{run_with_obs, Api, BenchOptions, Benchmark, Library, RunSpec};
use simfabric::{EngineMode, FaultPlan};

fn lossy_plan(seed: u64) -> FaultPlan {
    let mut p = FaultPlan::parse("drop=0.03,corrupt=0.005,dup=0.02,jitter=150").unwrap();
    p.seed = seed;
    p
}

fn spec(faults: Option<FaultPlan>) -> RunSpec {
    RunSpec {
        library: Library::Mvapich2J,
        benchmark: Benchmark::Latency,
        api: Api::Buffer,
        topo: Topology::new(2, 1),
        opts: BenchOptions {
            max_size: 1 << 17,
            validate: true,
            ..BenchOptions::quick()
        },
        faults,
        engine: EngineMode::Threaded,
    }
}

#[test]
fn lossy_benchmark_validates_and_fault_pvars_fire() {
    let (series, report) = run_with_obs(spec(Some(lossy_plan(7))), obs::ObsOptions::default());
    let s = series.expect("latency runs under a lossy plan");
    assert!(s.points.iter().all(|p| p.value > 0.0));
    let pvars = report.merged_pvars();
    // A 3% drop rate over a full sweep injects many drops; each one is
    // answered by at least one retransmit, and every accepted frame by
    // an ack.
    for name in [
        "fabric.drops_injected",
        "fabric.retransmits",
        "fabric.corrupt_detected",
        "fabric.dups_suppressed",
        "fabric.acks",
        "reliability.backoff_ns",
    ] {
        assert!(pvars.counter(name) > 0, "pvar {name} missing or zero");
    }
}

#[test]
fn fault_free_run_keeps_reliability_pvars_at_zero() {
    let (series, report) = run_with_obs(spec(None), obs::ObsOptions::default());
    series.expect("latency runs");
    let pvars = report.merged_pvars();
    for name in [
        "fabric.drops_injected",
        "fabric.retransmits",
        "fabric.corrupt_detected",
        "fabric.dups_suppressed",
        "fabric.acks",
        "reliability.backoff_ns",
        "fabric.watchdog_trips",
    ] {
        assert_eq!(pvars.counter(name), 0, "pvar {name} fired without a plan");
    }
}

#[test]
fn fault_free_plan_matches_no_plan_measurements() {
    // Acceptance criterion: with no faults firing, the reliability
    // sublayer adds zero virtual-time overhead to the measured series.
    let (clean, _) = run_with_obs(spec(None), obs::ObsOptions::default());
    let (framed, _) = run_with_obs(spec(Some(FaultPlan::new(3))), obs::ObsOptions::default());
    assert_eq!(
        clean.unwrap().points,
        framed.unwrap().points,
        "inactive plan must not move any measured latency"
    );
}

#[test]
fn lossy_analyze_output_is_byte_identical_for_the_same_seed() {
    let run_once = || {
        let (series, report) = run_with_obs(spec(Some(lossy_plan(11))), obs::ObsOptions::traced());
        let a = obs::analyze::analyze(&report);
        (
            series.expect("latency runs"),
            a.render_text(),
            a.render_csv(),
            report.pvar_dump(),
        )
    };
    assert_eq!(
        run_once(),
        run_once(),
        "a seeded lossy run must replay byte-for-byte"
    );
}

#[test]
fn retransmit_category_shows_up_in_lossy_attribution() {
    // The analyzer's `retrans` category exists and the lossy run's
    // retransmit spans land in it (share may round to zero, but the
    // category wiring must place them ahead of generic wait time).
    let (_, report) = run_with_obs(spec(Some(lossy_plan(5))), obs::ObsOptions::traced());
    let a = obs::analyze::analyze(&report);
    assert!(!a.buckets.is_empty());
    let header = a.render_text();
    assert!(header.contains("retrans%"), "analysis table: {header}");
    assert!(
        a.category_share_pct("retrans") >= 0.0,
        "retrans category must be defined"
    );
    let total: f64 = a
        .buckets
        .iter()
        .map(|b| {
            b.cat_ns[obs::analyze::CATEGORY_NAMES
                .iter()
                .position(|&n| n == "retrans")
                .unwrap()]
        })
        .sum();
    assert!(
        total > 0.0,
        "a 3% drop sweep must accumulate retransmit backoff on the critical path"
    );
}

#[test]
fn lossy_collective_benchmark_validates() {
    let spec = RunSpec {
        library: Library::Mvapich2J,
        benchmark: Benchmark::Collective(ombj::CollOp::Allreduce),
        api: Api::Buffer,
        topo: Topology::new(2, 2),
        opts: BenchOptions {
            max_size: 1 << 12,
            validate: true,
            ..BenchOptions::quick()
        },
        faults: Some(lossy_plan(9)),
        engine: EngineMode::Threaded,
    };
    let (series, _) = run_with_obs(spec, obs::ObsOptions::default());
    let s = series.expect("allreduce runs under a lossy plan");
    assert!(s.points.iter().all(|p| p.value > 0.0));
}

#[test]
fn nonblocking_collectives_validate_under_a_lossy_plan() {
    // A schedule in flight keeps several rounds of traffic outstanding
    // at once; a seeded drop plan must cost retransmits, never payload.
    let mut plan = FaultPlan::parse("drop=0.05,jitter=100").unwrap();
    plan.seed = 13;
    let n = 2048usize;
    let (_, report) = run_job_with_obs(
        JobConfig::mvapich2j(Topology::new(2, 2)).with_faults(plan),
        move |env| {
            let w = env.world();
            let p = env.size() as i32;
            let me = env.rank() as i32;
            let buf = env.new_direct(n * 4);
            let send = env.new_direct(n * 4);
            let recv = env.new_direct(n * 4);
            for round in 0..8i32 {
                if me == 1 {
                    for i in 0..n {
                        env.direct_put::<i32>(buf, i * 4, round ^ i as i32 ^ 0x5a)
                            .unwrap();
                    }
                }
                let req = env.ibcast_buffer(buf, n as i32, &INT, 1, w).unwrap();
                env.wait(req).unwrap();
                for i in 0..n {
                    assert_eq!(
                        env.direct_get::<i32>(buf, i * 4).unwrap(),
                        round ^ i as i32 ^ 0x5a
                    );
                }

                for i in 0..n {
                    env.direct_put::<i32>(send, i * 4, me + round + i as i32)
                        .unwrap();
                }
                let req = env
                    .iallreduce_buffer(send, recv, n as i32, &INT, ReduceOp::Sum, w)
                    .unwrap();
                env.wait(req).unwrap();
                let ranksum: i32 = (0..p).sum();
                for i in 0..n {
                    assert_eq!(
                        env.direct_get::<i32>(recv, i * 4).unwrap(),
                        ranksum + p * (round + i as i32)
                    );
                }
            }
        },
    );
    let pvars = report.merged_pvars();
    assert!(pvars.counter("coll.nb.completed") > 0);
    assert!(
        pvars.counter("fabric.drops_injected") > 0,
        "a 5% plan over two schedules must drop at least one frame"
    );
    assert!(pvars.counter("fabric.retransmits") > 0);
}

#[test]
fn crashed_rank_surfaces_rank_failed_from_nonblocking_wait() {
    // Rank 1 is dead from virtual time 0. The surviving rank's Wait on a
    // non-blocking broadcast must come back with a typed `RankFailed`
    // within the watchdog bound — not hang in the progression loop.
    let mut plan = FaultPlan::new(0);
    plan.crash = Some((1, 0.0));
    plan.watchdog_ms = 100;
    plan.rto_ns = 50.0;
    plan.max_retries = 3;
    let results = run_job(
        JobConfig::mvapich2j(Topology::single_node(2)).with_faults(plan),
        |env| {
            let w = env.world();
            env.native_mut()
                .set_errhandler(w, mpisim::Errhandler::ErrorsReturn)
                .unwrap();
            let started = std::time::Instant::now();
            let buf = env.new_direct(64 * 4);
            let err = env
                .ibcast_buffer(buf, 64, &INT, 0, w)
                .and_then(|req| env.wait(req).map(|_| ()))
                .unwrap_err();
            assert!(
                started.elapsed().as_millis() < 5_000,
                "watchdog must fire near its bound"
            );
            err
        },
    );
    for (rank, err) in results.iter().enumerate() {
        assert_eq!(
            *err,
            BindError::Mpi(mpisim::MpiError::RankFailed { rank: 1 }),
            "rank {rank} got {err:?}"
        );
    }
}

#[test]
#[should_panic(expected = "fault plan: linkdrop names rank 3, but the job has 2 ranks")]
fn a_plan_naming_a_rank_outside_the_job_fails_before_any_rank_starts() {
    let plan = FaultPlan::parse("linkdrop=0-3:0.5").unwrap();
    run_job(
        JobConfig::mvapich2j(Topology::new(2, 1)).with_faults(plan),
        |_| unreachable!("no rank may start under a plan that names rank 3"),
    );
}
