//! Engine-differential tier: the threaded engine (one OS thread per
//! rank, real blocking) and the event-driven engine (cooperative
//! discrete-event scheduler) must be *observationally identical* on
//! every determinism surface. The seeded conformance generator (shared
//! with `tests/conformance.rs` via `tests/harness/`) draws collectives,
//! sizes, roots, reduce ops, and communicator splits — blocking and
//! non-blocking, buffer and array flavor — plus the four-epoch
//! one-sided (RMA) workload, and each sampled case runs under both
//! engines. The assertions are exact, not statistical:
//!
//! * **byte-identical payload digests** — both engines moved the same
//!   bytes through the same algorithms;
//! * **bit-identical virtual clocks** — arrival times are a pure
//!   function of per-sender program order, so the schedule an engine
//!   picks must not leak into virtual time;
//! * **identical pvar deltas** — except the small documented set of
//!   arrival-vs-post race counters, which legitimately depend on *when*
//!   a frame lands relative to the matching receive being posted;
//! * **rerun stability** — the event engine replays itself exactly.

mod harness;

use harness::{conformance_body, rma_body};
use mvapich2j::{run_job, run_job_with_obs, EngineMode, JobConfig, Topology};

/// Pvars whose deltas legitimately differ across engines (and reruns of
/// the threaded engine): they count arrival-before-post races, and the
/// two engines interleave frame arrival with receive posting
/// differently while producing the same payloads and virtual clocks.
const RACY_PVARS: [&str; 4] = [
    "pt2pt.unexpected_hits",
    "pt2pt.unexpected_depth",
    "pt2pt.match.maxdepth",
    "rma.epoch.deferred",
];

fn topo(ranks: usize) -> Topology {
    if ranks > 4 {
        Topology::new(ranks / 4, 4)
    } else {
        Topology::single_node(ranks)
    }
}

fn cfg(ranks: usize, engine: EngineMode, openmpij: bool) -> JobConfig {
    let cfg = JobConfig::mvapich2j(topo(ranks)).with_engine(engine);
    if openmpij {
        cfg.with_flavor(mvapich2j::OPENMPIJ, mvapich2j::Profile::openmpi_ucx())
    } else {
        cfg
    }
}

fn conformance_on(
    engine: EngineMode,
    ranks: usize,
    trials: u64,
    seed: u64,
    arrays: bool,
    openmpij: bool,
) -> Vec<(u64, u64)> {
    run_job(cfg(ranks, engine, openmpij), move |env| {
        conformance_body(env, trials, seed, arrays)
    })
}

fn assert_engines_agree(a: &[(u64, u64)], b: &[(u64, u64)], what: &str) {
    for (r, (t, e)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            t.0, e.0,
            "{what}: rank {r} payload digest differs across engines"
        );
        assert_eq!(
            t.1, e.1,
            "{what}: rank {r} virtual clock differs across engines"
        );
    }
}

/// Every sampled collective case — blocking and NBC, world and split
/// communicators, both binding flavors — produces the same payload
/// digest and the same final clock bits under both engines.
#[test]
fn collectives_match_across_engines_both_flavors() {
    for arrays in [false, true] {
        let threaded = conformance_on(EngineMode::Threaded, 4, 10, 2, arrays, false);
        let event = conformance_on(EngineMode::EventDriven, 4, 10, 2, arrays, false);
        assert_engines_agree(&threaded, &event, if arrays { "arrays" } else { "buffer" });
    }
}

/// Same at 16 ranks (multi-node topology, hierarchical collectives).
#[test]
fn collectives_match_across_engines_16_ranks() {
    let threaded = conformance_on(EngineMode::Threaded, 16, 6, 3, false, false);
    let event = conformance_on(EngineMode::EventDriven, 16, 6, 3, false, false);
    assert_engines_agree(&threaded, &event, "16 ranks");
}

/// The comparator flavor (Open MPI-J profile) is engine-invariant too.
#[test]
fn openmpij_flavor_matches_across_engines() {
    let threaded = conformance_on(EngineMode::Threaded, 4, 8, 5, false, true);
    let event = conformance_on(EngineMode::EventDriven, 4, 8, 5, false, true);
    assert_engines_agree(&threaded, &event, "openmpij");
}

/// One-sided epochs (active fence, accumulate, get, passive
/// lock/unlock) are engine-invariant for both window backings.
#[test]
fn rma_matches_across_engines_both_flavors() {
    for arrays in [false, true] {
        let seed = 11;
        let run_on = |engine| {
            run_job(cfg(4, engine, false), move |env| {
                rma_body(env, seed, arrays)
            })
        };
        let threaded = run_on(EngineMode::Threaded);
        let event = run_on(EngineMode::EventDriven);
        assert_engines_agree(
            &threaded,
            &event,
            if arrays { "rma arrays" } else { "rma buffer" },
        );
    }
}

/// The event engine replays itself bit-for-bit: digests, clocks, and
/// the *entire* merged pvar surface (racy counters included — within
/// one engine the interleaving is deterministic).
#[test]
fn event_engine_reruns_are_bit_identical() {
    let run_once = || {
        let (results, report) = run_job_with_obs(
            cfg(4, EngineMode::EventDriven, false).with_obs(obs::ObsOptions::default()),
            move |env| conformance_body(env, 8, 7, false),
        );
        (results, report.pvar_dump())
    };
    let (r1, p1) = run_once();
    let (r2, p2) = run_once();
    assert_eq!(r1, r2, "event engine must replay digests and clocks");
    assert_eq!(p1, p2, "event engine must replay the full pvar dump");
}

/// Pvar deltas match across engines for everything except the
/// documented arrival-vs-post race counters: same message counts, same
/// protocol splits, same retransmissions, same pool traffic.
#[test]
fn pvar_deltas_match_across_engines_except_racy() {
    let run_on = |engine: EngineMode| {
        let (_, report) = run_job_with_obs(
            cfg(4, engine, false).with_obs(obs::ObsOptions::default()),
            move |env| conformance_body(env, 8, 7, true),
        );
        report.merged_pvars()
    };
    let threaded = run_on(EngineMode::Threaded);
    let event = run_on(EngineMode::EventDriven);
    let mut compared = 0usize;
    for (name, v) in event.iter() {
        if RACY_PVARS.contains(&name) {
            continue;
        }
        if let Some(c) = v.as_counter() {
            assert_eq!(
                threaded.counter(name),
                c,
                "pvar {name} differs between engines"
            );
            compared += 1;
        }
    }
    assert!(
        compared > 10,
        "the comparison must cover the pvar surface (saw {compared})"
    );
    // The workload exercised every layer the tier claims to compare.
    assert!(
        event.counter("coll.nb.posted") > 0,
        "harness drew NBC cases"
    );
    assert!(event.counter("pt2pt.eager_msgs") > 0);
    assert!(event.counter("mpjbuf.pool.hits") > 0, "array flavor staged");
}

/// Same contract for the one-sided pvar surface.
#[test]
fn rma_pvar_deltas_match_across_engines_except_racy() {
    let run_on = |engine: EngineMode| {
        let (_, report) = run_job_with_obs(
            cfg(4, engine, false).with_obs(obs::ObsOptions::default()),
            move |env| rma_body(env, 12, false),
        );
        report.merged_pvars()
    };
    let threaded = run_on(EngineMode::Threaded);
    let event = run_on(EngineMode::EventDriven);
    for (name, v) in event.iter() {
        if !name.starts_with("rma.") || RACY_PVARS.contains(&name) {
            continue;
        }
        if let Some(c) = v.as_counter() {
            assert_eq!(
                threaded.counter(name),
                c,
                "rma pvar {name} differs between engines"
            );
        }
    }
    assert!(event.counter("rma.put.msgs") > 0, "harness issued puts");
}
