//! Exact work counters of one OMB-J job, and the assertion that pins
//! them. A pinned counter is a pure function of the job (config and
//! seed), so a change to a per-message path (one more staging alloc, a
//! doubled injection, a second GC copy) fails its pin, while wall-time
//! work on the simulator leaves every pin as it is.

use mvapich2j::{run_job_with_obs, Env};
use obs::wallprof::{Counter, SimPerf, COUNTER_NAMES};
use obs::PvarSet;
use ombj::RunSpec;

/// One work counter of a job, summed over its ranks.
#[derive(Clone, Copy, Debug)]
pub enum Work {
    /// A counter of the simulator's profiler (`obs::wallprof`).
    Wp(Counter),
    /// A counter pvar.
    Pvar(&'static str),
    /// Bytes the ranks' fabric endpoints injected.
    WireBytes,
}

/// What one profiled job did, summed over its ranks.
pub struct JobWork {
    perf: SimPerf,
    pvars: PvarSet,
    wire_bytes: u64,
}

impl JobWork {
    pub fn get(&self, w: Work) -> u64 {
        match w {
            Work::Wp(c) => self.perf.totals().counter(c),
            Work::Pvar(name) => self.pvars.counter(name),
            Work::WireBytes => self.wire_bytes,
        }
    }
}

fn name(w: Work) -> &'static str {
    match w {
        Work::Wp(c) => COUNTER_NAMES[c as usize],
        Work::Pvar(name) => name,
        Work::WireBytes => "wire_bytes",
    }
}

/// Run `spec` profiled, each rank calling `prelude` first, and require
/// every rank to complete and rank 0 to measure a positive value at
/// every size. Then each of `pins` must equal the value at the same
/// index of `want`; an empty `want` pins nothing. `job` names the run
/// in a failure message.
pub fn assert_pinned(
    job: &str,
    spec: RunSpec,
    prelude: fn(&mut Env),
    pins: &[Work],
    want: &[u64],
) -> JobWork {
    assert!(
        want.is_empty() || want.len() == pins.len(),
        "{job}: one value per pin"
    );
    let (ranks, report) = run_job_with_obs(spec.config(obs::ObsOptions::profiled()), |env| {
        prelude(env);
        let res = spec.run_rank(env);
        (res, env.fabric_stats().wire_bytes)
    });
    let mut wire_bytes = 0;
    for (rank, (res, wire)) in ranks.into_iter().enumerate() {
        let (points, _) = res.unwrap_or_else(|e| panic!("{job}: rank {rank} failed: {e}"));
        if rank == 0 {
            assert!(!points.is_empty(), "{job}: rank 0 measured nothing");
            assert!(points.iter().all(|p| p.value > 0.0), "{job}: rank 0");
        }
        wire_bytes += wire;
    }
    let pvars = report.merged_pvars();
    let perf = report.sim_perf.expect("profiling was on");
    assert_eq!(perf.engine, spec.engine.label(), "{job}: engine label");
    assert!(perf.events() > 0, "{job}: the job injected and delivered");
    let work = JobWork {
        perf,
        pvars,
        wire_bytes,
    };
    for (&w, &v) in pins.iter().zip(want) {
        assert_eq!(
            work.get(w),
            v,
            "{job}: work counter {} moved: the schedule or a per-message path changed",
            name(w)
        );
    }
    work
}
