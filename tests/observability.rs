//! Workspace-level tests for the observability layer's two contracts:
//!
//! * **Determinism** — all trace timestamps are virtual, so two identical
//!   traced runs serialize to byte-identical Chrome trace files and pvar
//!   dumps.
//! * **Zero virtual cost** — instrumentation only reads virtual clocks,
//!   so every measured number is bit-identical with tracing on or off.

use mvapich2j::{run_job_with_obs, EngineMode, JobConfig, Topology};
use ombj::{run_with_obs, Api, BenchOptions, Benchmark, Library, RunSpec};

fn latency_spec() -> RunSpec {
    // Inter-node osu_latency: crosses the eager→rendezvous switch.
    RunSpec {
        library: Library::Mvapich2J,
        benchmark: Benchmark::Latency,
        api: Api::Buffer,
        topo: Topology::new(2, 1),
        opts: BenchOptions {
            max_size: 1 << 17,
            ..BenchOptions::quick()
        },
        faults: None,
        engine: EngineMode::Threaded,
    }
}

#[test]
fn traced_runs_serialize_byte_identically() {
    let run_once = || {
        let (series, report) = run_with_obs(latency_spec(), obs::ObsOptions::traced());
        (
            series.expect("latency runs"),
            report.chrome_trace_json(),
            report.pvar_dump(),
        )
    };
    let (s1, trace1, pvars1) = run_once();
    let (s2, trace2, pvars2) = run_once();
    assert_eq!(s1, s2, "measured series must replay exactly");
    assert_eq!(trace1, trace2, "trace files must be byte-identical");
    assert_eq!(pvars1, pvars2, "pvar dumps must be byte-identical");

    // The trace is a Chrome trace_event JSON object with per-rank
    // process rows and complete spans.
    assert!(trace1.starts_with('{') && trace1.trim_end().ends_with('}'));
    assert!(trace1.contains(r#""traceEvents":["#));
    assert!(trace1.contains(r#""name":"process_name""#));
    assert!(trace1.contains(r#""name":"rank 1 (MVAPICH2-J, threaded engine)""#));
    assert!(trace1.contains(r#""ph":"X""#), "complete spans present");
    assert!(trace1.contains(r#""cat":"pt2pt""#));
    assert!(trace1.contains(r#""proto":"eager""#));
    assert!(
        trace1.contains(r#""proto":"rndv""#),
        "128 kB sweeps past the rndv threshold"
    );
}

#[test]
fn tracing_has_zero_virtual_cost() {
    // Every observability sink — tracer, flight ring, telemetry sampler,
    // and all three together — only *reads* virtual clocks. The measured
    // series must be bit-identical whichever combination is live.
    let (without, _) = run_with_obs(latency_spec(), obs::ObsOptions::default());
    let baseline = without.unwrap().points;
    for (label, o) in [
        ("tracing", obs::ObsOptions::traced()),
        ("flight", obs::ObsOptions::default().with_flight()),
        ("telemetry", obs::ObsOptions::default().with_telemetry(0.0)),
        (
            "all sinks",
            obs::ObsOptions::traced().with_flight().with_telemetry(0.0),
        ),
    ] {
        let (with, _) = run_with_obs(latency_spec(), o);
        assert_eq!(
            with.unwrap().points,
            baseline,
            "{label} must not advance any virtual clock"
        );
    }
}

#[test]
fn fig14_is_bit_identical_with_tracing_on() {
    let plain = ombj_bench::run_figure("fig14", ombj_bench::Scale::Quick);
    ombj_bench::figures::set_tracing(true);
    let traced = ombj_bench::run_figure("fig14", ombj_bench::Scale::Quick);
    ombj_bench::figures::set_tracing(false);
    assert_eq!(
        plain.series, traced.series,
        "figure output must not depend on tracing"
    );
}

#[test]
fn pvar_snapshot_covers_every_layer() {
    let spec = RunSpec {
        api: Api::Arrays,
        ..latency_spec()
    };
    let (_, report) = run_with_obs(spec, obs::ObsOptions::default());
    let merged = report.merged_pvars();
    // Engine (pt2pt), bindings, managed runtime, pool — one pvar from
    // each layer on the benchmark path proves the wiring end to end.
    for name in [
        "pt2pt.eager_msgs",
        "pt2pt.rndv_msgs",
        "bind.calls",
        "mrt.heap.allocs",
        "mpjbuf.pool.hits",
    ] {
        assert!(merged.counter(name) > 0, "pvar {name} missing or zero");
    }
}

#[test]
fn bindings_cross_the_boundary_through_nif() {
    // Every binding call is one JNI transition, and every direct buffer
    // the bindings hand the native library (a pooled store, for arrays)
    // is one `GetDirectBufferAddress` crossing, both counted by `nif`.
    let bcast = RunSpec {
        benchmark: Benchmark::Collective(ombj::CollOp::Bcast),
        topo: Topology::new(2, 2),
        ..latency_spec()
    };
    let latency = RunSpec {
        api: Api::Arrays,
        ..latency_spec()
    };
    for spec in [bcast, latency] {
        let (_, report) = run_with_obs(spec, obs::ObsOptions::default());
        let pvars = report.merged_pvars();
        let calls = pvars.counter("bind.calls");
        assert!(calls > 0, "{spec:?}");
        assert_eq!(pvars.counter("nif.transitions"), calls, "{spec:?}");
        assert!(pvars.counter("nif.crossings.direct") > 0, "{spec:?}");
    }
}

#[test]
fn nif_crossing_pvars_cover_all_three_access_modes() {
    // The bindings only take direct-buffer addresses (see above); the
    // copy and critical access modes are exercised at the `nif` crate's
    // own API surface, as the `ablations` binary uses them: one counter
    // per access mode the paper distinguishes.
    use vtime::{Clock, CostModel};
    obs::install(0, obs::ObsOptions::default());
    let mut rt = mrt::Runtime::new(CostModel::default());
    let mut clock = Clock::new();
    nif::jni_transition(&rt, &mut clock);
    let arr = rt.alloc_array::<i32>(16, &mut clock).unwrap();
    let native = nif::get_array_elements(&rt, &mut clock, arr).unwrap();
    nif::release_array_elements(&mut rt, &mut clock, arr, &native, nif::ReleaseMode::Abort)
        .unwrap();
    {
        let _g = nif::get_primitive_array_critical(&mut rt, &mut clock, arr).unwrap();
    }
    let db = rt.allocate_direct(64, &mut clock);
    let _ = nif::get_direct_buffer_address(&rt, &mut clock, db).unwrap();
    let report = obs::uninstall().expect("recorder installed");
    let pvars = &report.pvars;
    assert_eq!(pvars.counter("nif.transitions"), 1);
    assert_eq!(pvars.counter("nif.crossings.copy"), 2);
    assert_eq!(pvars.counter("nif.crossings.critical"), 1);
    assert!(pvars.counter("nif.crossings.direct") >= 1);
}

#[test]
fn bcast_recv_flows_pair_with_exactly_one_send() {
    // Tentpole contract: on a 4-rank bcast, every consumed message (flow
    // `End`) pairs with exactly one injection (flow `Begin`) — no orphans,
    // no duplicate flow ids — and the constituent messages carry a
    // collective instance id the analyzer can group.
    let spec = RunSpec {
        library: Library::Mvapich2J,
        benchmark: Benchmark::Collective(ombj::CollOp::Bcast),
        api: Api::Buffer,
        topo: Topology::new(2, 2),
        opts: BenchOptions {
            max_size: 1 << 12,
            ..BenchOptions::quick()
        },
        faults: None,
        engine: EngineMode::Threaded,
    };
    let (_, report) = run_with_obs(spec, obs::ObsOptions::traced());
    let a = obs::analyze::analyze(&report);
    assert!(a.flows.sends > 0, "bcast must inject messages");
    assert_eq!(a.flows.sends, a.flows.recvs, "every send is consumed");
    assert_eq!(a.flows.unmatched_recvs, 0, "recv without a matching send");
    assert_eq!(a.flows.unmatched_sends, 0, "send never consumed");
    assert_eq!(a.flows.duplicate_ids, 0, "flow ids must be unique");
    assert_eq!(a.dropped_events, 0, "default ring must hold a quick run");
    let bcast = a
        .collectives
        .iter()
        .find(|c| c.op == "bcast")
        .expect("bcast instances grouped by collective id");
    assert!(bcast.instances > 0);
    assert!(
        bcast.critical_hops >= 1,
        "a bcast critical path crosses at least one message edge"
    );
}

#[test]
fn latency_attribution_has_no_unattributed_gap() {
    // Tentpole contract: the critical path of each osu_latency iteration
    // equals the sum of the attributed segments — the per-size category
    // shares partition wall time exactly (gap == 0 by construction, and
    // the shares must sum to 100%).
    let (_, report) = run_with_obs(latency_spec(), obs::ObsOptions::traced());
    let a = obs::analyze::analyze(&report);
    assert!(!a.buckets.is_empty(), "size markers must produce buckets");
    for b in &a.buckets {
        assert!(
            b.unattributed_ns().abs() < 1e-6,
            "size {}: unattributed gap of {} ns",
            b.size,
            b.unattributed_ns()
        );
        let total: f64 = (0..obs::analyze::NCATS).map(|i| b.share_pct(i)).sum();
        assert!(
            (total - 100.0).abs() < 1e-6,
            "size {}: shares sum to {total}%",
            b.size
        );
    }
}

#[test]
fn arrays_attribution_shows_more_boundary_cost_than_buffers() {
    // The paper's headline story, recovered automatically: the arrays API
    // pays for staging copies and pool traffic that the direct-ByteBuffer
    // API never incurs.
    let run_api = |api| {
        let spec = RunSpec {
            api,
            ..latency_spec()
        };
        let (_, report) = run_with_obs(spec, obs::ObsOptions::traced());
        obs::analyze::analyze(&report)
    };
    let arrays = run_api(Api::Arrays);
    let buffer = run_api(Api::Buffer);
    assert!(
        arrays.boundary_share_pct() > buffer.boundary_share_pct(),
        "arrays copy+staging+gc share ({:.2}%) must exceed buffer's ({:.2}%)",
        arrays.boundary_share_pct(),
        buffer.boundary_share_pct()
    );
    assert!(
        arrays.category_share_pct("staging") > 0.0,
        "arrays runs stage through the pool"
    );
    assert_eq!(
        buffer.category_share_pct("staging"),
        0.0,
        "buffer runs never touch the staging layer"
    );
}

#[test]
fn analysis_output_is_byte_identical_across_runs() {
    let run_once = || {
        let (_, report) = run_with_obs(latency_spec(), obs::ObsOptions::traced());
        let a = obs::analyze::analyze(&report);
        (a.render_text(), a.render_json(), a.render_csv())
    };
    assert_eq!(run_once(), run_once(), "analysis must replay byte-for-byte");
}

#[test]
fn dropped_events_surface_in_pvars_and_analysis() {
    // A deliberately tiny ring drops events; the loss is recorded as the
    // `trace.dropped_events` pvar and the analyzer flags the truncation
    // instead of silently attributing a partial trace.
    let spec = latency_spec();
    let (_, report) = run_with_obs(
        spec,
        obs::ObsOptions {
            tracing: true,
            ring_capacity: 8,
            ..Default::default()
        },
    );
    assert!(
        report.merged_pvars().counter(obs::DROPPED_EVENTS_PVAR) > 0,
        "a 8-event ring cannot hold an osu_latency sweep"
    );
    let a = obs::analyze::analyze(&report);
    assert!(a.dropped_events > 0);
    assert!(
        a.render_text().contains("WARNING: trace ring dropped"),
        "analysis must surface the truncation"
    );
}

#[test]
fn unexpected_message_pvars_fire() {
    // Rank 1 sends tag 5 then tag 6; rank 0 receives tag 6 *first*.
    // Draining the mailbox for tag 6 parks the tag-5 message in the
    // unexpected queue (depth gauge); the second receive then finds it
    // there (hit counter).
    let (_, report) = run_job_with_obs(JobConfig::mvapich2j(Topology::new(2, 1)), |env| {
        let w = env.world();
        if env.rank() == 0 {
            let b6 = env.new_direct(64);
            env.recv_buffer(b6, 64, &mvapich2j::datatype::BYTE, 1, 6, w)
                .unwrap();
            let b5 = env.new_direct(64);
            env.recv_buffer(b5, 64, &mvapich2j::datatype::BYTE, 1, 5, w)
                .unwrap();
        } else {
            let buf = env.new_direct(64);
            env.send_buffer(buf, 64, &mvapich2j::datatype::BYTE, 0, 5, w)
                .unwrap();
            env.send_buffer(buf, 64, &mvapich2j::datatype::BYTE, 0, 6, w)
                .unwrap();
        }
    });
    let merged = report.merged_pvars();
    assert!(merged.counter("pt2pt.unexpected_hits") >= 1);
    let depth_max = merged
        .get("pt2pt.unexpected_depth")
        .and_then(|v| v.as_gauge_max())
        .expect("unexpected-depth gauge present");
    assert!(depth_max >= 1);
}
