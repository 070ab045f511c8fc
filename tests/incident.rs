//! Workspace-level tests for the flight recorder, virtual-time
//! telemetry, and fault-triggered incident bundles riding under the full
//! benchmark stack. The core contracts:
//!
//! * a seeded crash run auto-emits an incident bundle that is
//!   **byte-identical** across reruns of the same seed;
//! * `obs-analyze --incident` (the same parser, called as a library)
//!   names the failed rank from the bundle alone;
//! * telemetry series are deterministic under a lossy seed, never lose a
//!   counter increment to binning, and cost zero virtual time;
//! * the always-on flight ring wraps without losing the newest window
//!   and accounts every eviction in `flight.dropped`.

use ombj::{run_with_obs, Api, BenchOptions, Benchmark, Library, RunSpec};
use simfabric::{EngineMode, FaultPlan, Topology};

fn latency_spec(faults: Option<FaultPlan>) -> RunSpec {
    RunSpec {
        library: Library::Mvapich2J,
        benchmark: Benchmark::Latency,
        api: Api::Buffer,
        topo: Topology::new(2, 1),
        opts: BenchOptions {
            max_size: 1 << 14,
            ..BenchOptions::quick()
        },
        faults,
        engine: EngineMode::Threaded,
    }
}

/// Rank 1 dies mid-sweep; rank 0's watchdog converts the stall into a
/// rank failure. The runner downgrades the world to `ErrorsReturn`, so
/// the job exits cleanly with no series and a drained report.
fn crash_plan() -> FaultPlan {
    let mut p = FaultPlan::new(7);
    p.crash = Some((1, 200_000.0));
    p.watchdog_ms = 100;
    p
}

fn crash_obs() -> obs::ObsOptions {
    obs::ObsOptions::default().with_flight().with_telemetry(0.0)
}

#[test]
fn crash_run_emits_bit_identical_incident_bundles() {
    let run_once = || {
        let (series, report) = run_with_obs(latency_spec(Some(crash_plan())), crash_obs());
        assert!(series.is_none(), "the planned crash aborts the benchmark");
        report
            .incident_bundle_json()
            .expect("a crashed run must yield an incident bundle")
    };
    let b1 = run_once();
    let b2 = run_once();
    assert_eq!(b1, b2, "incident bundles must replay byte-identically");
}

#[test]
fn analyzer_names_the_failed_rank_from_the_bundle_alone() {
    let (_, report) = run_with_obs(latency_spec(Some(crash_plan())), crash_obs());
    let bundle = report.incident_bundle_json().expect("bundle emitted");
    // The analyzer sees only the serialized bundle — exactly what
    // `obs-analyze --incident` reads off disk.
    let inc = obs::analyze::incident_from_json(&bundle).expect("bundle parses");
    assert_eq!(inc.failed_rank, 1, "the crash plan killed rank 1");
    assert!(
        matches!(
            inc.kind.as_str(),
            "rank_failed" | "transport_failure" | "watchdog"
        ),
        "unexpected incident kind {:?}",
        inc.kind
    );
    assert_eq!(inc.ranks.len(), 2, "every rank's window is in the bundle");
    for r in &inc.ranks {
        assert!(
            r.window_events > 0,
            "rank {}'s flight window drained empty",
            r.rank
        );
    }
    let text = inc.render_text();
    assert!(text.contains("rank 1 failed"), "report names the rank");
}

#[test]
fn clean_run_emits_no_incident_bundle() {
    let (series, report) = run_with_obs(latency_spec(None), crash_obs());
    series.expect("fault-free latency runs");
    assert!(
        report.incident_bundle_json().is_none(),
        "no fault, no bundle"
    );
    assert_eq!(report.merged_pvars().counter("incident.marks"), 0);
}

#[test]
fn flight_ring_wraps_and_accounts_every_eviction() {
    // A full sweep records far more than the default 512-event window;
    // the ring must wrap, count every eviction in `flight.dropped`, and
    // still hold exactly `capacity` events.
    let (series, report) =
        run_with_obs(latency_spec(None), obs::ObsOptions::default().with_flight());
    series.expect("latency runs");
    for r in &report.ranks {
        let w = r.flight.as_ref().expect("flight was on for every rank");
        assert_eq!(w.events.len(), obs::FLIGHT_CAPACITY);
        assert!(w.dropped > 0, "a full sweep must overflow the window");
        assert_eq!(
            r.pvars.counter(obs::flight::DROPPED_PVAR),
            w.dropped,
            "the dropped pvar must match the ring's own count"
        );
        // The window holds the newest events: its last timestamp reaches
        // the end of the run, far past the first retained event. (Strict
        // per-event ts order is not guaranteed — spans are recorded at
        // close time but stamped with their begin time.)
        let newest = w.last_event_ns().expect("window is non-empty");
        assert!(
            newest > w.events[0].ts_ns,
            "rank {}'s window does not extend past its oldest event",
            r.rank
        );
    }
}

#[test]
fn lossy_telemetry_series_replays_and_loses_no_increment() {
    let mut plan = FaultPlan::parse("drop=0.03,corrupt=0.005,dup=0.02,jitter=150").unwrap();
    plan.seed = 42;
    let run_once = || {
        run_with_obs(
            latency_spec(Some(plan)),
            obs::ObsOptions::default().with_telemetry(0.0),
        )
    };
    let (s1, r1) = run_once();
    let (s2, r2) = run_once();
    assert_eq!(
        s1.unwrap().points,
        s2.unwrap().points,
        "lossy series replays"
    );
    let t1 = r1.telemetry_json().expect("telemetry was on");
    let t2 = r2.telemetry_json().expect("telemetry was on");
    assert_eq!(t1, t2, "telemetry documents must be byte-identical");

    // Binning must not lose (or invent) a single increment: the series
    // total of each counter equals the cumulative pvar.
    let merged = r1.merged_pvars();
    for name in [
        "engine.deliveries",
        "fabric.retransmits",
        "fabric.drops_injected",
        "fabric.acks",
        "pt2pt.eager_msgs",
    ] {
        assert_eq!(
            obs::telemetry::series_counter_total(&r1.ranks, name),
            merged.counter(name),
            "binned total of {name} diverged from the cumulative pvar"
        );
    }

    // The retransmit burst is visible from the timeline alone (the
    // README walkthrough): some interval carries a retransmit spike.
    let tl = obs::analyze::timeline_from_json(&t1).expect("telemetry doc parses");
    assert!(tl.peak_retransmit_t_ns().is_some(), "lossy run retransmits");
    assert!(!tl.links.is_empty(), "per-link counters populate the table");
}

#[test]
fn incident_bundle_embeds_telemetry_and_survives_reserialization() {
    let (_, report) = run_with_obs(latency_spec(Some(crash_plan())), crash_obs());
    let bundle = report.incident_bundle_json().expect("bundle emitted");
    let doc = obs::json::parse(&bundle).expect("bundle is valid JSON");
    let ranks = doc
        .get("ranks")
        .and_then(|v| v.as_arr())
        .expect("ranks array");
    for r in ranks {
        assert!(
            r.get("telemetry").is_some(),
            "bundle carries each rank's telemetry series"
        );
        assert!(r.get("pvars").is_some(), "bundle carries the pvar snapshot");
    }
}
