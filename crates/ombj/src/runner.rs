//! Benchmark runner: resolve a (library, benchmark, API, topology)
//! specification into a measured series.

use mpjbuf::PoolStats;
use mvapich2j::{run_job_with_obs, BindError, BindResult, Env, JobConfig, Topology};
use simfabric::{EngineMode, FaultPlan};

use crate::coll::{collective, CollOp};
use crate::nbcoll::{nb_collective, NbOp, OverlapPoint};
use crate::options::{Api, BenchOptions, SizeValue};
use crate::pt2pt::{bandwidth, bibandwidth, lat_impl};

/// The libraries OMB-J can drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Library {
    /// MVAPICH2-J over the MVAPICH2 native profile.
    Mvapich2J,
    /// Open MPI-J over the Open MPI + UCX native profile.
    OpenMpiJ,
}

impl Library {
    /// Label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            Library::Mvapich2J => "MVAPICH2-J",
            Library::OpenMpiJ => "Open MPI-J",
        }
    }

    /// Job configuration on `topo`.
    pub fn config(self, topo: Topology) -> JobConfig {
        match self {
            Library::Mvapich2J => JobConfig::mvapich2j(topo),
            Library::OpenMpiJ => openmpij_config(topo),
        }
    }
}

/// Open MPI-J configuration (kept here so `ombj` does not depend on the
/// comparator crate's re-exports).
fn openmpij_config(topo: Topology) -> JobConfig {
    JobConfig::mvapich2j(topo).with_flavor(mvapich2j::OPENMPIJ, mpisim::Profile::openmpi_ucx())
}

/// The benchmarks OMB-J implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Benchmark {
    /// `osu_latency`.
    Latency,
    /// `osu_bw`.
    Bandwidth,
    /// `osu_bibw`.
    BiBandwidth,
    /// `osu_put_latency`: one-sided put under a passive-target epoch.
    PutLatency,
    /// `osu_get_bw`: windowed one-sided reads, completed at the unlock.
    GetBandwidth,
    /// `osu_put_bibw`: bidirectional put streams closed by fence epochs.
    PutBiBandwidth,
    /// A blocking (possibly vectored) collective.
    Collective(CollOp),
    /// A non-blocking collective with overlap measurement. `overlap`
    /// places the simulated compute between post and wait; without it
    /// the compute runs after the wait (the `--no-overlap` control).
    NonBlocking { op: NbOp, overlap: bool },
}

impl Benchmark {
    /// OMB benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Latency => "osu_latency",
            Benchmark::Bandwidth => "osu_bw",
            Benchmark::BiBandwidth => "osu_bibw",
            Benchmark::PutLatency => "osu_put_latency",
            Benchmark::GetBandwidth => "osu_get_bw",
            Benchmark::PutBiBandwidth => "osu_put_bibw",
            Benchmark::Collective(op) => op.name(),
            Benchmark::NonBlocking { op, .. } => op.name(),
        }
    }

    /// Ranks the benchmark needs: point-to-point and one-sided ones run
    /// between ranks 0 and 1.
    pub fn min_ranks(self) -> usize {
        match self {
            Benchmark::Collective(_) | Benchmark::NonBlocking { .. } => 1,
            _ => 2,
        }
    }

    /// Metric unit.
    pub fn unit(self) -> &'static str {
        match self {
            Benchmark::Latency
            | Benchmark::PutLatency
            | Benchmark::Collective(_)
            | Benchmark::NonBlocking { .. } => "us",
            Benchmark::Bandwidth
            | Benchmark::BiBandwidth
            | Benchmark::GetBandwidth
            | Benchmark::PutBiBandwidth => "MB/s",
        }
    }
}

/// A fully-specified benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub library: Library,
    pub benchmark: Benchmark,
    pub api: Api,
    pub topo: Topology,
    pub opts: BenchOptions,
    /// Fault plan injected at the fabric (`None` = perfect fabric). The
    /// reliability sublayer keeps benchmark semantics unchanged under any
    /// non-crash plan; latency then reflects retransmission cost.
    pub faults: Option<FaultPlan>,
    /// Cluster engine: one OS thread per rank (`Threaded`) or the
    /// cooperative discrete-event scheduler (`EventDriven`), which lifts
    /// the rank ceiling into the thousands. Virtual-time results are
    /// identical (see `tests/engine_diff.rs`).
    pub engine: EngineMode,
}

/// A measured series.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// e.g. "MVAPICH2-J buffer".
    pub label: String,
    /// Benchmark name, e.g. "osu_latency".
    pub benchmark: &'static str,
    /// Metric unit.
    pub unit: &'static str,
    /// Measured points.
    pub points: Vec<SizeValue>,
    /// Rank 0's buffering-layer pool counters at the end of the run
    /// (`None` for series not produced by the runner, e.g. derived ones).
    pub pool: Option<PoolStats>,
    /// Full overlap breakdown for non-blocking collective benchmarks
    /// (`points` then carries the overall latency column).
    pub overlap: Option<Vec<OverlapPoint>>,
}

/// Execute a run. Returns `None` when the combination is unsupported by
/// the library (Open MPI-J + arrays + non-blocking benchmarks), matching
/// the missing series in the paper's figures.
pub fn run(spec: RunSpec) -> Option<Series> {
    run_with_obs(spec, obs::ObsOptions::default()).0
}

impl RunSpec {
    /// The job configuration this run launches, observed under `o`.
    pub fn config(&self, o: obs::ObsOptions) -> JobConfig {
        let cfg = self
            .library
            .config(self.topo)
            .with_engine(self.engine)
            .with_obs(o);
        match self.faults {
            Some(plan) => cfg.with_faults(plan),
            None => cfg,
        }
    }

    /// One rank's part of the benchmark: the measured points, and the
    /// overlap breakdown of a non-blocking collective.
    pub fn run_rank(&self, env: &mut Env) -> BindResult<RankPoints> {
        let (opts, api) = (&self.opts, self.api);
        Ok(match self.benchmark {
            Benchmark::Latency => (lat_impl(env, opts, api)?, None),
            Benchmark::Bandwidth => (bandwidth(env, opts, api)?, None),
            Benchmark::BiBandwidth => (bibandwidth(env, opts, api)?, None),
            Benchmark::PutLatency => (crate::rma::put_latency(env, opts, api)?, None),
            Benchmark::GetBandwidth => (crate::rma::get_bw(env, opts, api)?, None),
            Benchmark::PutBiBandwidth => (crate::rma::put_bibw(env, opts, api)?, None),
            Benchmark::Collective(op) => (collective(env, opts, api, op)?, None),
            Benchmark::NonBlocking { op, overlap } => {
                let pts = nb_collective(env, opts, api, op, overlap)?;
                let latency = pts
                    .iter()
                    .map(|p| SizeValue {
                        size: p.size,
                        value: p.overall_us,
                    })
                    .collect();
                (latency, Some(pts))
            }
        })
    }
}

/// What [`RunSpec::run_rank`] measured on one rank.
pub type RankPoints = (Vec<SizeValue>, Option<Vec<OverlapPoint>>);

/// Execute a run and also harvest the per-rank observability recorders
/// (pvars always; trace events when `o.tracing`). The report covers the
/// whole job even when the series itself is unsupported.
pub fn run_with_obs(spec: RunSpec, o: obs::ObsOptions) -> (Option<Series>, obs::JobReport) {
    let crashy = spec.faults.is_some_and(|p| p.crash.is_some());
    let f = move |env: &mut Env| -> BindResult<(RankPoints, PoolStats)> {
        if crashy {
            // Under a crash plan, failures are data rather than panics:
            // every rank returns the typed error, its recorder drains
            // normally, and the job report can assemble an incident
            // bundle from the flight windows.
            let w = env.world();
            env.native_mut()
                .set_errhandler(w, mpisim::Errhandler::ErrorsReturn)
                .expect("world accepts an errhandler");
        }
        Ok((spec.run_rank(env)?, env.pool_stats()))
    };
    let cfg = spec.config(o);
    let (results, report) = run_job_with_obs(cfg, f);
    let series = match results.into_iter().next().expect("rank 0 exists") {
        Ok(((points, overlap), pool)) => Some(Series {
            label: format!("{} {}", spec.library.label(), spec.api.label()),
            benchmark: spec.benchmark.name(),
            unit: spec.benchmark.unit(),
            points,
            pool: Some(pool),
            overlap,
        }),
        Err(BindError::Unsupported(_)) => None,
        // Expected outcome of a crash-plan run: no series, but the
        // report (pvars, flight windows, incident marks) is intact.
        Err(BindError::Mpi(e)) if crashy && e.is_transport() => None,
        Err(e) => panic!("benchmark {} failed: {e}", spec.benchmark.name()),
    };
    (series, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec(library: Library, benchmark: Benchmark, api: Api) -> RunSpec {
        RunSpec {
            library,
            benchmark,
            api,
            topo: Topology::single_node(2),
            opts: BenchOptions::quick(),
            faults: None,
            engine: EngineMode::Threaded,
        }
    }

    #[test]
    fn latency_produces_monotonic_sizes() {
        let s = run(quick_spec(
            Library::Mvapich2J,
            Benchmark::Latency,
            Api::Buffer,
        ))
        .unwrap();
        assert_eq!(s.unit, "us");
        assert!(!s.points.is_empty());
        assert!(s.points.windows(2).all(|w| w[0].size < w[1].size));
        assert!(s.points.iter().all(|p| p.value > 0.0));
        // Large messages cost more than small ones.
        assert!(s.points.last().unwrap().value > s.points[0].value);
    }

    #[test]
    fn bandwidth_grows_with_message_size() {
        let s = run(quick_spec(
            Library::Mvapich2J,
            Benchmark::Bandwidth,
            Api::Buffer,
        ))
        .unwrap();
        assert!(s.points.last().unwrap().value > s.points[0].value * 5.0);
    }

    #[test]
    fn openmpij_arrays_bandwidth_is_missing() {
        // The paper's missing series.
        assert!(run(quick_spec(
            Library::OpenMpiJ,
            Benchmark::Bandwidth,
            Api::Arrays
        ))
        .is_none());
        assert!(run(quick_spec(
            Library::OpenMpiJ,
            Benchmark::BiBandwidth,
            Api::Arrays
        ))
        .is_none());
        // But buffers work.
        assert!(run(quick_spec(
            Library::OpenMpiJ,
            Benchmark::Bandwidth,
            Api::Buffer
        ))
        .is_some());
        // And MVAPICH2-J arrays work.
        assert!(run(quick_spec(
            Library::Mvapich2J,
            Benchmark::Bandwidth,
            Api::Arrays
        ))
        .is_some());
    }

    #[test]
    fn collective_benchmark_runs_on_multinode() {
        let spec = RunSpec {
            library: Library::Mvapich2J,
            benchmark: Benchmark::Collective(CollOp::Bcast),
            api: Api::Arrays,
            topo: Topology::new(2, 2),
            opts: BenchOptions {
                max_size: 1 << 10,
                ..BenchOptions::quick()
            },
            faults: None,
            engine: EngineMode::Threaded,
        };
        let s = run(spec).unwrap();
        assert_eq!(s.benchmark, "osu_bcast");
        assert!(s.points.iter().all(|p| p.value > 0.0));
    }

    #[test]
    fn runs_are_deterministic() {
        let spec = quick_spec(Library::Mvapich2J, Benchmark::Latency, Api::Arrays);
        assert_eq!(run(spec).unwrap().points, run(spec).unwrap().points);
    }

    fn nb_spec(op: NbOp, api: Api, overlap: bool) -> RunSpec {
        RunSpec {
            library: Library::Mvapich2J,
            benchmark: Benchmark::NonBlocking { op, overlap },
            api,
            topo: Topology::new(2, 2),
            opts: BenchOptions {
                min_size: 1 << 10,
                max_size: 1 << 16,
                ..BenchOptions::quick()
            },
            faults: None,
            engine: EngineMode::Threaded,
        }
    }

    #[test]
    fn nonblocking_overlap_hides_communication_under_compute() {
        for op in [NbOp::Ibcast, NbOp::Iallreduce] {
            let s = run(nb_spec(op, Api::Buffer, true)).unwrap();
            let overlap = s.overlap.as_ref().expect("overlap breakdown present");
            assert_eq!(s.points.len(), overlap.len());
            // With a schedule-based progression engine the largest
            // messages hide most of their communication.
            let last = overlap.last().unwrap();
            assert!(
                last.overlap_pct > 50.0,
                "{}: large-message overlap only {:.1}%",
                op.name(),
                last.overlap_pct
            );
            // And overlap grows with message size (software post/wait
            // overhead dominates the small sizes).
            assert!(overlap.first().unwrap().overlap_pct < last.overlap_pct);
            for p in overlap {
                assert!(p.pure_us > 0.0 && p.overall_us >= p.pure_us);
            }
        }
    }

    #[test]
    fn nonblocking_without_overlap_reports_zero() {
        let s = run(nb_spec(NbOp::Iallreduce, Api::Buffer, false)).unwrap();
        for p in s.overlap.unwrap() {
            assert!(
                p.overlap_pct < 1.0,
                "no-overlap control leaked {:.2}% at {} bytes",
                p.overlap_pct,
                p.size
            );
        }
    }

    #[test]
    fn nonblocking_runs_are_deterministic() {
        let spec = nb_spec(NbOp::Ibcast, Api::Arrays, true);
        let a = run(spec).unwrap();
        let b = run(spec).unwrap();
        assert_eq!(a.overlap, b.overlap);
        assert!(a.overlap.unwrap().last().unwrap().overlap_pct > 0.0);
    }

    #[test]
    fn openmpij_arrays_nonblocking_collectives_are_missing() {
        let spec = RunSpec {
            library: Library::OpenMpiJ,
            ..nb_spec(NbOp::Ibcast, Api::Arrays, true)
        };
        assert!(run(spec).is_none());
        let spec = RunSpec {
            library: Library::OpenMpiJ,
            ..nb_spec(NbOp::Ibcast, Api::Buffer, true)
        };
        assert!(run(spec).is_some());
    }

    #[test]
    fn arrays_runs_surface_pool_stats_and_pvars() {
        let (series, report) = run_with_obs(
            quick_spec(Library::Mvapich2J, Benchmark::Latency, Api::Arrays),
            obs::ObsOptions::default(),
        );
        let pool = series
            .unwrap()
            .pool
            .expect("runner always records pool stats");
        assert!(pool.hits > 0, "steady-state staging reuses pooled buffers");
        assert!(pool.hits > pool.misses);
        let merged = report.merged_pvars();
        assert_eq!(merged.counter("mpjbuf.pool.hits"), 2 * pool.hits);
        assert!(merged.counter("pt2pt.eager_msgs") > 0);
        // Buffer runs bypass the buffering layer entirely.
        let s = run(quick_spec(
            Library::Mvapich2J,
            Benchmark::Latency,
            Api::Buffer,
        ))
        .unwrap();
        let pool = s.pool.unwrap();
        assert_eq!(pool.hits + pool.misses, 0);
    }
}
