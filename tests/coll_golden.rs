//! Golden digests of every OMB-J collective, across buffer kinds and
//! binding libraries.
//!
//! `figures_golden.rs` pins only the bcast/allreduce series, and
//! `conformance.rs` compares clocks within one build. This test runs each
//! blocking collective and each non-blocking one (`ibcast`,
//! `iallreduce`) over direct buffers and over Java arrays, under
//! MVAPICH2-J and Open MPI-J where the library supports the pairing, on
//! 2 nodes × 2 ranks (event engine) with validation on, and folds the
//! results into two FNV-1a digests:
//!
//! * the results digest: benchmark, series label, and the exact bits of
//!   every per-size value (and overlap breakdown) — a change that moves a
//!   simulated collective number fails here;
//! * the pvar digest: every run's merged pvar dump — a change to what the
//!   layers count fails here.
//!
//! Re-pin either only with the reason recorded in CHANGES.md.

use ombj::{run_with_obs, Api, BenchOptions, Benchmark, CollOp, Library, NbOp, RunSpec, Series};
use simfabric::{EngineMode, Topology};

/// Digest of the per-size result bits of every run.
const RESULTS_DIGEST: u64 = 0x5683_05ea_761e_7b94;
/// Digest of every run's merged pvar dump.
const PVAR_DIGEST: u64 = 0x8e8a_8c7d_2810_68d1;

const BLOCKING: [CollOp; 12] = [
    CollOp::Bcast,
    CollOp::Reduce,
    CollOp::Allreduce,
    CollOp::Allgather,
    CollOp::Allgatherv,
    CollOp::Gather,
    CollOp::Gatherv,
    CollOp::Scatter,
    CollOp::Scatterv,
    CollOp::Alltoall,
    CollOp::Alltoallv,
    CollOp::Barrier,
];

/// Fold bytes into a running 64-bit FNV-1a hash.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Fold a string and a terminator, so adjacent strings cannot alias.
fn fnv_str(h: &mut u64, s: &str) {
    fnv(h, s.as_bytes());
    fnv(h, &[0]);
}

fn fold_series(h: &mut u64, s: &Series) {
    fnv_str(h, s.benchmark);
    fnv_str(h, &s.label);
    for p in &s.points {
        fnv(h, &(p.size as u64).to_le_bytes());
        fnv(h, &p.value.to_bits().to_le_bytes());
    }
    for o in s.overlap.iter().flatten() {
        fnv(h, &(o.size as u64).to_le_bytes());
        for v in [o.overall_us, o.pure_us, o.compute_us, o.overlap_pct] {
            fnv(h, &v.to_bits().to_le_bytes());
        }
    }
}

/// Every (benchmark, library, api) run, in digest order.
fn specs() -> Vec<RunSpec> {
    let benchmarks = BLOCKING.iter().map(|&op| Benchmark::Collective(op)).chain(
        [NbOp::Ibcast, NbOp::Iallreduce].map(|op| Benchmark::NonBlocking { op, overlap: true }),
    );
    let mut out = Vec::new();
    for benchmark in benchmarks {
        for library in [Library::Mvapich2J, Library::OpenMpiJ] {
            for api in [Api::Buffer, Api::Arrays] {
                out.push(RunSpec {
                    library,
                    benchmark,
                    api,
                    topo: Topology::new(2, 2),
                    opts: BenchOptions {
                        max_size: 4096,
                        validate: true,
                        ..BenchOptions::default()
                    },
                    faults: None,
                    engine: EngineMode::EventDriven,
                });
            }
        }
    }
    out
}

#[test]
fn every_collective_matches_the_pinned_digests() {
    // The event engine keeps every pvar a pure function of the schedule;
    // two worker threads halve the wall time, and the fold below runs in
    // spec order whatever order the runs finish in.
    let specs = specs();
    let half = specs.len().div_ceil(2);
    let outcomes: Vec<(Option<Series>, String)> = std::thread::scope(|s| {
        let workers: Vec<_> = specs
            .chunks(half)
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&spec| {
                            let (series, report) = run_with_obs(spec, obs::ObsOptions::default());
                            (series, report.pvar_dump())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("worker completes"))
            .collect()
    });
    let (mut results, mut pvars) = (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
    let mut runs = 0;
    for (spec, (series, dump)) in specs.iter().zip(outcomes) {
        let unsupported = spec.library == Library::OpenMpiJ
            && spec.api == Api::Arrays
            && matches!(spec.benchmark, Benchmark::NonBlocking { .. });
        let Some(series) = series else {
            assert!(unsupported, "{spec:?} produced no series");
            continue;
        };
        assert!(!unsupported, "{spec:?} ran arrays under Open MPI-J");
        fold_series(&mut results, &series);
        fnv_str(&mut pvars, &dump);
        runs += 1;
    }
    assert_eq!(runs, 54);
    assert_eq!(
        (results, pvars),
        (RESULTS_DIGEST, PVAR_DIGEST),
        "collectives moved: results {results:#018x}, pvars {pvars:#018x}; \
         re-pin only with the reason in CHANGES.md"
    );
}
