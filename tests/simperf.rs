//! Workspace-level tests for the simulator self-profiling layer
//! (`obs::wallprof`) and the perf-trajectory basket. The core contract:
//! wall-clock telemetry lives strictly *outside* every determinism
//! surface — digests, dumps, and measured series are bit-identical with
//! profiling on, off, or across reruns, while the wall numbers
//! themselves are free to differ run to run.

use ombj::{run_with_obs, Api, BenchOptions, Benchmark, Library, RunSpec};
use ombj_bench::perf;
use simfabric::{EngineMode, Topology};

fn latency_spec() -> RunSpec {
    RunSpec {
        library: Library::Mvapich2J,
        benchmark: Benchmark::Latency,
        api: Api::Buffer,
        topo: Topology::new(2, 1),
        opts: BenchOptions {
            max_size: 1 << 14,
            ..BenchOptions::quick()
        },
        faults: None,
        engine: EngineMode::Threaded,
    }
}

fn profiled_and_traced() -> obs::ObsOptions {
    obs::ObsOptions {
        tracing: true,
        profiling: true,
        ..Default::default()
    }
}

#[test]
fn profiling_preserves_bitwise_determinism() {
    // Two profiled runs: every determinism digest is byte-identical even
    // though the embedded wall-clock profiles inevitably differ.
    let run_once = || run_with_obs(latency_spec(), profiled_and_traced());
    let (s1, r1) = run_once();
    let (s2, r2) = run_once();
    assert_eq!(s1, s2, "measured series must replay exactly");
    assert_eq!(r1.pvar_dump(), r2.pvar_dump(), "pvar dump is a digest");
    assert_eq!(
        r1.chrome_trace_json(),
        r2.chrome_trace_json(),
        "trace file is a digest"
    );
    // JobReport equality itself is a determinism digest: it must hold
    // even though both reports carry (different) wall-clock profiles.
    assert_eq!(r1, r2, "report equality must ignore wall metrics");
    for r in [&r1, &r2] {
        let p = r.sim_perf.as_ref().expect("profiling was on");
        assert!(p.wall_ns > 0, "job wall clock must have advanced");
        assert!(p.events() > 0, "latency run injects and delivers");
    }
}

#[test]
fn profiling_has_zero_virtual_cost() {
    // The measured numbers are bit-identical with profiling on or off:
    // wallprof reads `Instant`, never a virtual clock.
    let (with, _) = run_with_obs(latency_spec(), obs::ObsOptions::profiled());
    let (without, _) = run_with_obs(latency_spec(), obs::ObsOptions::default());
    assert_eq!(
        with.unwrap().points,
        without.unwrap().points,
        "profiling must not advance any virtual clock"
    );
}

#[test]
fn wall_metrics_never_reach_determinism_digests() {
    let (_, report) = run_with_obs(latency_spec(), profiled_and_traced());
    assert!(report.sim_perf.is_some(), "profile was collected");
    // The digest surfaces never mention wall-clock fields, so the
    // profile cannot leak into byte-diffed CI artifacts.
    for digest in [report.pvar_dump(), report.chrome_trace_json()] {
        for key in ["wall_ns", "wall_ms", "events_per_sec", "vns_per_ws"] {
            assert!(
                !digest.contains(key),
                "wall-clock key {key:?} leaked into a determinism digest"
            );
        }
    }
    // RankReport equality also excludes the per-rank wall profile.
    let mut a = report.ranks[0].clone();
    let mut b = report.ranks[0].clone();
    a.wall = Some(obs::wallprof::RankWallProf {
        wall_ns: 1,
        ..Default::default()
    });
    b.wall = Some(obs::wallprof::RankWallProf {
        wall_ns: 999_999,
        ..Default::default()
    });
    assert_eq!(a, b, "rank equality must ignore the wall profile");
}

#[test]
fn disabled_profiling_and_obs_paths_stay_cheap() {
    // Satellite experiment (see EXPERIMENTS.md): with no recorder and no
    // profiler installed, the instrumentation probes on the hot path are
    // a single thread-local read — no formatting, no allocation. The
    // bound is deliberately generous (debug builds, shared CI boxes):
    // 100k disabled probes must finish inside 250 ms, i.e. < 2.5 µs per
    // probe where the real cost is a few nanoseconds.
    obs::uninstall();
    obs::wallprof::reset();
    assert!(!obs::tracing_enabled());
    assert!(!obs::wallprof::enabled());
    const N: u64 = 100_000;
    let start = std::time::Instant::now();
    for i in 0..N {
        obs::count(obs::pvar::BIND_CALLS, 1);
        obs::wallprof::add(obs::wallprof::Counter::Deliveries, 1);
        let _s = obs::wallprof::span(obs::wallprof::Subsystem::Engine);
        std::hint::black_box(i);
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed.as_millis() < 250,
        "disabled probes took {elapsed:?} for {N} iterations"
    );
    // And they must observe nothing: a fresh harvest sees no state.
    assert!(obs::wallprof::harvest().is_none());
}

#[test]
fn bench_json_roundtrips_and_reruns_keep_virtual_clocks() {
    // Satellite 3: the BENCH_*.json document round-trips through
    // `obs::json` with every required key, and rerunning the basket
    // yields *identical virtual clocks* (and counters) while the wall
    // fields are free to differ.
    let run_once = || {
        let results = perf::run_basket(true);
        let text = perf::bench_json(&results, "deadbeef", 6, true);
        perf::parse_bench(&text).expect("bench json parses")
    };
    let d1 = run_once();
    let d2 = run_once();

    assert_eq!(
        d1.get("schema_version").and_then(|v| v.as_f64()),
        Some(perf::SCHEMA_VERSION as f64)
    );
    assert_eq!(d1.get("commit").and_then(|v| v.as_str()), Some("deadbeef"));
    let totals = d1.get("totals").expect("totals object");
    for key in ["events", "events_per_sec", "vns_per_ws", "alloc_per_msg"] {
        assert!(
            totals.get(key).and_then(|v| v.as_f64()).is_some(),
            "totals missing {key}"
        );
    }
    let basket = d1.get("basket").and_then(|b| b.as_arr()).expect("basket");
    assert_eq!(basket.len(), perf::basket(true).len());

    let virtuals = |d: &obs::json::JsonValue| -> Vec<(String, f64, f64)> {
        d.get("basket")
            .and_then(|b| b.as_arr())
            .unwrap()
            .iter()
            .map(|e| {
                let p = e.get("sim_perf").expect("per-entry profile");
                (
                    e.get("name").and_then(|n| n.as_str()).unwrap().to_string(),
                    p.get("virtual_ms").and_then(|v| v.as_f64()).unwrap(),
                    p.get("events").and_then(|v| v.as_f64()).unwrap(),
                )
            })
            .collect()
    };
    assert_eq!(
        virtuals(&d1),
        virtuals(&d2),
        "virtual clocks and event counts must replay exactly"
    );
    // Wall fields exist in both but are not asserted equal — that is
    // the whole point of the wall/virtual split.
    for d in [&d1, &d2] {
        let wall = d
            .get("totals")
            .and_then(|t| t.get("wall_ms"))
            .and_then(|v| v.as_f64())
            .unwrap();
        assert!(wall > 0.0, "basket consumed real time");
    }
}

#[test]
fn baseline_gate_passes_against_itself_and_fails_on_regression() {
    let results = perf::run_basket(true);
    let text = perf::bench_json(&results, "x", 6, true);
    let doc = perf::parse_bench(&text).unwrap();
    // A document always passes against itself (0% delta).
    assert!(perf::compare_baseline(&doc, &doc, perf::DEFAULT_GATE_PCT).is_ok());
    // A baseline 10x faster trips the 25% gate.
    let mut inflated = text.clone();
    let eps = doc
        .get("totals")
        .and_then(|t| t.get("events_per_sec"))
        .and_then(|v| v.as_f64())
        .unwrap();
    let needle = format!("\"events_per_sec\":{}", obs::json::num(eps));
    assert!(inflated.contains(&needle), "totals events_per_sec present");
    inflated = inflated.replacen(
        &needle,
        &format!("\"events_per_sec\":{}", obs::json::num(eps * 10.0)),
        1,
    );
    let base = perf::parse_bench(&inflated).unwrap();
    assert!(
        perf::compare_baseline(&doc, &base, perf::DEFAULT_GATE_PCT).is_err(),
        "a 90% drop must fail the gate"
    );
    // Mode mismatch (quick vs full) skips the gate rather than lying.
    let full = perf::parse_bench(&text.replacen("\"quick\":true", "\"quick\":false", 1)).unwrap();
    assert!(perf::compare_baseline(&doc, &full, perf::DEFAULT_GATE_PCT).is_ok());
}

#[test]
fn rma_put_latency_allocs_exactly_one_buffer_per_message() {
    // Regression guard for the BENCH_7 drift: `win_create` used to charge
    // its one-time window allocation to `Allocs`, nudging the RMA
    // benchmark's allocs/msg to 1.007. The steady-state contract is
    // exact: every Buffer-API put stages one pooled buffer and sends one
    // message, so Allocs == Messages and alloc_per_msg is 1.00, not
    // 1.00-and-change.
    let spec = RunSpec {
        benchmark: Benchmark::PutLatency,
        opts: BenchOptions {
            max_size: 1 << 12,
            ..BenchOptions::quick()
        },
        ..latency_spec()
    };
    let (series, report) = run_with_obs(spec, obs::ObsOptions::profiled());
    series.expect("put_latency runs under the Buffer API");
    let perf = report.sim_perf.expect("profiling was on");
    let totals = perf.totals();
    let allocs = totals.counter(obs::wallprof::Counter::Allocs);
    let messages = totals.counter(obs::wallprof::Counter::Messages);
    assert!(messages > 0, "the benchmark sent messages");
    assert_eq!(
        allocs, messages,
        "RMA put must charge exactly one staging alloc per message"
    );
    assert_eq!(perf.allocs_per_msg(), 1.0, "alloc_per_msg is exact");
}

#[test]
fn sim_perf_is_engine_labeled_and_comparable_across_engines() {
    // Events are counted per rank (injections + deliveries), so the
    // events/sec metric means the same thing under both engines; the
    // profile says which engine produced it.
    let threaded = latency_spec();
    let mut event = latency_spec();
    event.engine = EngineMode::EventDriven;
    let (s_t, r_t) = run_with_obs(threaded, obs::ObsOptions::profiled());
    let (s_e, r_e) = run_with_obs(event, obs::ObsOptions::profiled());
    assert_eq!(
        s_t.unwrap().points,
        s_e.unwrap().points,
        "virtual-time series must not depend on the engine"
    );
    let p_t = r_t.sim_perf.expect("profiling was on");
    let p_e = r_e.sim_perf.expect("profiling was on");
    assert_eq!(p_t.engine, "threaded");
    assert_eq!(p_e.engine, "event");
    assert_eq!(
        p_t.events(),
        p_e.events(),
        "per-rank event counts are engine-invariant"
    );
    assert!(p_e.render_text().contains("(event engine)"));
    let mut w = obs::json::JsonBuf::new();
    p_e.write_json(&mut w);
    assert!(w.finish().contains("\"engine\":\"event\""));
}

#[test]
fn perf_basket_carries_the_event_engine_rows() {
    // Satellite: the trajectory basket prices the event engine too —
    // one row comparable 1:1 with `bcast_8`, one scale row that only
    // the event engine can host at full size (1024 ranks).
    let entries = perf::basket(true);
    let engine_of = |name: &str| {
        entries
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("basket entry {name} missing"))
            .spec
            .engine
    };
    assert_eq!(engine_of("bcast_8"), EngineMode::Threaded);
    assert_eq!(engine_of("bcast_8_event"), EngineMode::EventDriven);
    assert_eq!(engine_of("bcast_1k_event"), EngineMode::EventDriven);
    let full: Vec<_> = perf::basket(false)
        .into_iter()
        .filter(|e| e.name == "bcast_1k_event")
        .collect();
    assert_eq!(full[0].spec.topo.size(), 1024, "full-mode scale row");
}

#[test]
fn match_depth_pvars_are_structural() {
    // Satellite 6: the tag-matching pvars. `pt2pt.match.scans` counts
    // one scan per accepted delivery / posted-list probe, so it is
    // structural (identical across reruns — covered by the pvar-dump
    // digest test above). Here: it fires on a pt2pt run, and the
    // posted-depth gauge is bounded by what the benchmark can post.
    let (_, report) = run_with_obs(latency_spec(), obs::ObsOptions::default());
    let merged = report.merged_pvars();
    assert!(merged.counter("pt2pt.match.scans") > 0, "scans pvar fires");
    let depth = merged
        .get("pt2pt.match.maxdepth")
        .and_then(|v| v.as_gauge_max())
        .expect("maxdepth gauge present");
    assert!(
        (1..=2).contains(&depth),
        "osu_latency posts one recv at a time (saw depth {depth})"
    );
}
