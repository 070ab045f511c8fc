//! OMB-J command-line driver.
//!
//! ```text
//! ombj <benchmark> [options]
//! ombj --benchmark <benchmark> [options]
//!
//! benchmarks:
//!   latency | bw | bibw | put_latency | get_bw | put_bibw | bcast |
//!   reduce | allreduce | allgather | allgatherv | gather | gatherv |
//!   scatter | scatterv | alltoall | alltoallv | barrier | ibcast |
//!   iallreduce
//!
//! options:
//!   --lib mvapich2j|openmpij    library under test (default mvapich2j)
//!   --engine threaded|event     cluster engine: one OS thread per rank, or the
//!                               cooperative discrete-event scheduler (same
//!                               virtual-time results; `event` scales to 1k+ ranks)
//!   --overlap | --no-overlap    non-blocking collectives only: put the
//!                               simulated compute between post and wait
//!                               (default) or after the wait (control)
//!   --api buffer|arrays         user-buffer kind   (default buffer)
//!   --nodes N --ppn P           topology           (default 1x2; 4x16 for collectives)
//!   --min B --max B             message size range
//!   --iters N --warmup N        iteration counts (small messages)
//!   --validate                  populate + verify inside the timed loop
//!   --compare                   run all four library×API series side by side
//!   --format text|json|csv      output format (default text)
//!   --trace-out PATH            record a virtual-time Chrome trace to PATH
//!   --analyze                   trace the run and append the latency attribution
//!   --perf                      profile the simulator itself (wall clock) and
//!                               append the sim-perf footer / `sim_perf` block
//!   --pvar-dump                 print the merged pvar snapshot after the table
//!   --telemetry                 sample pvars on the virtual clock and append the
//!                               timeline (text/csv) or raw series (json)
//!   --telemetry-interval NS     sampling interval in virtual ns (default 10000)
//!   --telemetry-out PATH        write the telemetry series JSON to PATH
//!                               (implies --telemetry; feed to obs-analyze --timeline)
//!   --flight                    keep an always-on bounded flight ring per rank
//!   --incident-out PATH         write the fault-triggered incident bundle to PATH
//!                               (implies --flight; feed to obs-analyze --incident)
//!   --faults SPEC               seeded fault plan, e.g. drop=0.02,corrupt=0.001,jitter=200
//!                               (crash=R@NS plans need --flight or --incident-out)
//!   --fault-seed N              seed for the fault plan (default 0)
//! ```

use ombj::{run, run_with_obs, Api, BenchOptions, Benchmark, CollOp, Library, NbOp, RunSpec};
use simfabric::{EngineMode, FaultPlan, Topology};

fn usage() -> ! {
    eprintln!(
        "usage: ombj <latency|bw|bibw|put_latency|get_bw|put_bibw|bcast|reduce|allreduce|allgather|allgatherv|gather|gatherv|scatter|scatterv|alltoall|alltoallv|barrier|ibcast|iallreduce> \
         [--lib mvapich2j|openmpij] [--engine threaded|event] [--api buffer|arrays] \
         [--nodes N] [--ppn P] \
         [--min B] [--max B] [--iters N] [--warmup N] [--validate] [--compare] \
         [--overlap|--no-overlap] [--format text|json|csv] [--trace-out PATH] \
         [--analyze] [--perf] [--pvar-dump] [--telemetry] [--telemetry-interval NS] \
         [--telemetry-out PATH] [--flight] [--incident-out PATH] \
         [--faults SPEC] [--fault-seed N] \
         (the benchmark may also be passed as --benchmark NAME)"
    );
    std::process::exit(2)
}

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
    Csv,
}

fn parse_benchmark(name: &str) -> Benchmark {
    match name {
        "ibcast" => Benchmark::NonBlocking {
            op: NbOp::Ibcast,
            overlap: true,
        },
        "iallreduce" => Benchmark::NonBlocking {
            op: NbOp::Iallreduce,
            overlap: true,
        },
        "latency" => Benchmark::Latency,
        "bw" => Benchmark::Bandwidth,
        "bibw" => Benchmark::BiBandwidth,
        "put_latency" => Benchmark::PutLatency,
        "get_bw" => Benchmark::GetBandwidth,
        "put_bibw" => Benchmark::PutBiBandwidth,
        "bcast" => Benchmark::Collective(CollOp::Bcast),
        "reduce" => Benchmark::Collective(CollOp::Reduce),
        "allreduce" => Benchmark::Collective(CollOp::Allreduce),
        "allgather" => Benchmark::Collective(CollOp::Allgather),
        "allgatherv" => Benchmark::Collective(CollOp::Allgatherv),
        "gather" => Benchmark::Collective(CollOp::Gather),
        "gatherv" => Benchmark::Collective(CollOp::Gatherv),
        "scatter" => Benchmark::Collective(CollOp::Scatter),
        "scatterv" => Benchmark::Collective(CollOp::Scatterv),
        "alltoall" => Benchmark::Collective(CollOp::Alltoall),
        "alltoallv" => Benchmark::Collective(CollOp::Alltoallv),
        "barrier" => Benchmark::Collective(CollOp::Barrier),
        _ => usage(),
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    // The benchmark is positional, or named via `--benchmark NAME`.
    let bench_name = if !args[0].starts_with("--") {
        args.remove(0)
    } else {
        let pos = args
            .iter()
            .position(|a| a == "--benchmark")
            .unwrap_or_else(|| usage());
        if pos + 1 >= args.len() {
            usage();
        }
        let name = args.remove(pos + 1);
        args.remove(pos);
        name
    };
    let mut benchmark = parse_benchmark(&bench_name);
    let is_collective = matches!(
        benchmark,
        Benchmark::Collective(_) | Benchmark::NonBlocking { .. }
    );

    let mut library = Library::Mvapich2J;
    let mut engine = EngineMode::Threaded;
    let mut api = Api::Buffer;
    let (mut nodes, mut ppn) = if is_collective { (4, 16) } else { (1, 2) };
    let mut opts = BenchOptions::default();
    if is_collective {
        // Collective sweeps on 64 ranks: trim the default range a bit.
        opts.max_size = 1 << 20;
        opts.iterations = 40;
        opts.iterations_large = 8;
    }
    let mut compare = false;
    let mut format = Format::Text;
    let mut trace_out: Option<String> = None;
    let mut analyze = false;
    let mut perf = false;
    let mut pvar_dump = false;
    let mut telemetry = false;
    let mut telemetry_interval = obs::ObsOptions::DEFAULT_TELEMETRY_INTERVAL_NS;
    let mut telemetry_out: Option<String> = None;
    let mut flight = false;
    let mut incident_out: Option<String> = None;
    let mut faults: Option<FaultPlan> = None;
    let mut fault_seed: Option<u64> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let val = |it: &mut std::slice::Iter<String>| -> String {
            it.next().cloned().unwrap_or_else(|| usage())
        };
        match a.as_str() {
            "--lib" => {
                library = match val(&mut it).as_str() {
                    "mvapich2j" => Library::Mvapich2J,
                    "openmpij" => Library::OpenMpiJ,
                    _ => usage(),
                }
            }
            "--engine" => {
                engine = EngineMode::parse(&val(&mut it)).unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                })
            }
            "--api" => {
                api = match val(&mut it).as_str() {
                    "buffer" => Api::Buffer,
                    "arrays" => Api::Arrays,
                    _ => usage(),
                }
            }
            "--nodes" => nodes = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--ppn" => ppn = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--min" => opts.min_size = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--max" => opts.max_size = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--iters" => opts.iterations = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--warmup" => opts.warmup = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--validate" => opts.validate = true,
            "--compare" => compare = true,
            "--overlap" | "--no-overlap" => match benchmark {
                Benchmark::NonBlocking { op, .. } => {
                    benchmark = Benchmark::NonBlocking {
                        op,
                        overlap: a == "--overlap",
                    }
                }
                _ => {
                    eprintln!("error: {a} only applies to ibcast/iallreduce");
                    std::process::exit(2);
                }
            },
            "--format" => {
                format = match val(&mut it).as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    "csv" => Format::Csv,
                    _ => usage(),
                }
            }
            "--trace-out" => trace_out = Some(val(&mut it)),
            "--analyze" => analyze = true,
            "--perf" => perf = true,
            "--pvar-dump" => pvar_dump = true,
            "--telemetry" => telemetry = true,
            "--telemetry-interval" => {
                telemetry = true;
                telemetry_interval = val(&mut it).parse().unwrap_or_else(|_| usage());
            }
            "--telemetry-out" => {
                telemetry = true;
                telemetry_out = Some(val(&mut it));
            }
            "--flight" => flight = true,
            "--incident-out" => {
                flight = true;
                incident_out = Some(val(&mut it));
            }
            "--faults" => {
                faults = Some(FaultPlan::parse(&val(&mut it)).unwrap_or_else(|e| {
                    eprintln!("error: bad --faults spec: {e}");
                    std::process::exit(2);
                }))
            }
            "--fault-seed" => fault_seed = Some(val(&mut it).parse().unwrap_or_else(|_| usage())),
            _ => usage(),
        }
    }
    if let Some(seed) = fault_seed {
        faults.get_or_insert_with(|| FaultPlan::new(0)).seed = seed;
    }
    let crashy = faults.is_some_and(|p| p.crash.is_some());
    if crashy && !flight {
        // Without a flight ring there is nothing to drain into an
        // incident bundle, so a crash plan would just abort the job.
        eprintln!(
            "error: --faults crash=R@... aborts the benchmark job; add --flight \
             (or --incident-out PATH) to capture an incident bundle instead"
        );
        std::process::exit(2);
    }
    if compare && (trace_out.is_some() || analyze || pvar_dump || perf || telemetry || flight) {
        eprintln!(
            "--trace-out/--analyze/--perf/--pvar-dump/--telemetry/--flight apply to a \
             single run; drop --compare"
        );
        std::process::exit(2);
    }

    if nodes == 0 || ppn == 0 {
        eprintln!("error: --nodes and --ppn must be at least 1 (got {nodes} x {ppn})");
        std::process::exit(2);
    }
    let topo = Topology::new(nodes, ppn);
    if topo.size() < benchmark.min_ranks() {
        eprintln!(
            "error: {} needs at least {} ranks; --nodes {nodes} --ppn {ppn} gives {}",
            benchmark.name(),
            benchmark.min_ranks(),
            topo.size()
        );
        std::process::exit(2);
    }
    if let Some(Err(e)) = faults.map(|plan| plan.check_ranks(topo.size())) {
        eprintln!("error: bad --faults spec: {e}");
        std::process::exit(2);
    }
    if compare {
        let mut series = Vec::new();
        for lib in [Library::Mvapich2J, Library::OpenMpiJ] {
            for api in [Api::Buffer, Api::Arrays] {
                if let Some(s) = run(RunSpec {
                    library: lib,
                    benchmark,
                    api,
                    topo,
                    opts,
                    faults,
                    engine,
                }) {
                    series.push(s);
                } else {
                    eprintln!(
                        "note: {} {} unsupported for {} — series omitted (as in the paper)",
                        lib.label(),
                        api.label(),
                        benchmark.name()
                    );
                }
            }
        }
        let refs: Vec<&ombj::Series> = series.iter().collect();
        let title = format!(
            "{} on {}x{} ({})",
            benchmark.name(),
            nodes,
            ppn,
            benchmark.unit()
        );
        match format {
            Format::Text => print!("{}", ombj::report::render_comparison(&title, &refs)),
            Format::Json => print!("{}", ombj::report::render_comparison_json(&title, &refs)),
            Format::Csv => print!("{}", ombj::report::render_comparison_csv(&refs)),
        }
    } else {
        let spec = RunSpec {
            library,
            benchmark,
            api,
            topo,
            opts,
            faults,
            engine,
        };
        let obs_opts = obs::ObsOptions {
            tracing: trace_out.is_some() || analyze,
            profiling: perf,
            flight,
            telemetry_interval_ns: if telemetry { telemetry_interval } else { 0.0 },
            ..Default::default()
        };
        let (series, report) = run_with_obs(spec, obs_opts);
        let analysis = analyze.then(|| obs::analyze::analyze(&report));
        match series {
            Some(s) => match format {
                Format::Text => {
                    print!("{}", ombj::report::render_series(&s));
                    if let Some(a) = &analysis {
                        print!("{}", a.render_text());
                    }
                    if let Some(p) = &report.sim_perf {
                        print!("{}", p.render_text());
                    }
                }
                Format::Json => print!(
                    "{}",
                    ombj::report::render_series_json_full(
                        &s,
                        analysis.as_ref(),
                        report.sim_perf.as_ref()
                    )
                ),
                Format::Csv => {
                    print!("{}", ombj::report::render_series_csv(&s));
                    if let Some(a) = &analysis {
                        print!("{}", a.render_csv());
                    }
                    if let Some(p) = &report.sim_perf {
                        print!("{}", ombj::report::render_sim_perf_csv(p));
                    }
                }
            },
            None if crashy => {
                // The fault plan killed the job on purpose; the incident
                // bundle below is the run's real product.
                eprintln!(
                    "note: job aborted by the planned crash — no benchmark series \
                     (incident artifacts follow)"
                );
            }
            None => {
                eprintln!(
                    "{} does not support {} with the {} API",
                    library.label(),
                    benchmark.name(),
                    api.label()
                );
                std::process::exit(1);
            }
        }
        if let Some(path) = trace_out {
            if let Err(e) = std::fs::write(&path, report.chrome_trace_json()) {
                eprintln!("error: writing trace to {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote virtual-time trace to {path} (open in Perfetto / chrome://tracing)");
        }
        if telemetry {
            let doc = report.telemetry_json().unwrap_or_else(|| {
                eprintln!("error: telemetry was enabled but no rank sampled");
                std::process::exit(1);
            });
            if let Some(path) = &telemetry_out {
                if let Err(e) = std::fs::write(path, &doc) {
                    eprintln!("error: writing telemetry to {path}: {e}");
                    std::process::exit(1);
                }
                eprintln!("wrote telemetry series to {path} (feed to obs-analyze --timeline)");
            } else {
                // No file requested: append the timeline straight to the
                // report, via the same parser obs-analyze uses.
                match format {
                    Format::Text => match obs::analyze::timeline_from_json(&doc) {
                        Ok(tl) => print!("{}", tl.render_text()),
                        Err(e) => eprintln!("error: rendering timeline: {e}"),
                    },
                    Format::Csv => match obs::analyze::timeline_from_json(&doc) {
                        Ok(tl) => print!("{}", tl.render_csv()),
                        Err(e) => eprintln!("error: rendering timeline: {e}"),
                    },
                    Format::Json => print!("{doc}"),
                }
            }
        }
        if let Some(path) = &incident_out {
            match report.incident_bundle_json() {
                Some(bundle) => {
                    if let Err(e) = std::fs::write(path, &bundle) {
                        eprintln!("error: writing incident bundle to {path}: {e}");
                        std::process::exit(1);
                    }
                    eprintln!("wrote incident bundle to {path} (feed to obs-analyze --incident)");
                }
                None => eprintln!("note: run completed without incident — no bundle written"),
            }
        }
        if pvar_dump {
            print!("{}", report.pvar_dump());
        }
    }
}
