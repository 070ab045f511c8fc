//! `perfbench`: seeded end-to-end and per-layer wall-time benchmark of the
//! MVAPICH2-J simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pt2pt_large --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run repeats one whole job of the workload, each in a fresh process,
//! until `--seconds` have passed. `--trace 0` prints the end-to-end
//! metrics, measured with the per-layer probes off. `--trace 1` runs
//! untraced jobs for half the time and traced jobs for the other half,
//! and prints the per-layer metrics. Either way the last stdout line is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`, and
//! the exit code is non-zero when any output check failed. `README.md`
//! beside this crate describes the workloads and metrics.

mod attrib;
mod inputs;
mod job;
mod probe;
mod replay;
mod report;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use job::Rep;
use workload::Workload;

const USAGE: &str = "usage: perfbench --workload <pt2pt_large|coll_256_event|pt2pt_small_lossy> \
                     --seed <n> --seconds <1..60> --trace <0|1>";

/// A run still going after this long gives up with a non-zero exit.
const DEADLINE: Duration = Duration::from_secs(170);

/// Exit with a non-zero code once `after` has passed: a hung rank must
/// not hang the benchmark.
fn watchdog(after: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(after);
        eprintln!("perfbench: still running after {after:?}; giving up");
        std::process::exit(3);
    });
}

fn flags() -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if out.insert(key.to_string(), value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    Ok(out)
}

fn take<T: std::str::FromStr>(f: &mut BTreeMap<String, String>, key: &str) -> Result<T, String> {
    let v = f
        .remove(key)
        .ok_or_else(|| format!("--{key} is required"))?;
    v.parse().map_err(|_| format!("bad --{key} `{v}`"))
}

fn workload(name: &str) -> Result<&'static Workload, String> {
    Workload::find(name).ok_or_else(|| format!("unknown workload `{name}`"))
}

fn flag_bit(v: u8, key: &str) -> Result<bool, String> {
    match v {
        0 | 1 => Ok(v == 1),
        _ => Err(format!("--{key} must be 0 or 1")),
    }
}

/// Run one job in a child process of this executable. The child gives
/// up before this process's own deadline, so no job outlives the run.
fn spawn_job(
    w: &Workload,
    seed: u64,
    traced: bool,
    spans: bool,
    start: Instant,
) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let left = DEADLINE.saturating_sub(start.elapsed() + Duration::from_secs(5));
    let out = Command::new(exe)
        .args(["--job", w.name, "--seed", &seed.to_string()])
        .args(["--deadline-ms", &left.as_millis().to_string()])
        .args(["--traced", if traced { "1" } else { "0" }])
        .args(["--spans", if spans { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("starting job process: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "job process {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Rep::decode(&String::from_utf8_lossy(&out.stdout))
}

/// Repeat jobs until `budget` has passed and at least `min_jobs` ran.
fn phase(
    w: &Workload,
    seed: u64,
    traced: bool,
    budget: f64,
    min_jobs: usize,
    start: Instant,
) -> Result<Vec<Rep>, String> {
    let t0 = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min_jobs || t0.elapsed().as_secs_f64() < budget {
        reps.push(spawn_job(
            w,
            seed,
            traced,
            traced && reps.is_empty(),
            start,
        )?);
    }
    Ok(reps)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let mut f = match flags() {
        Ok(f) => f,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if f.contains_key("job") {
        return job_main(&mut f);
    }
    watchdog(DEADLINE);
    let args = (|| -> Result<_, String> {
        let w = workload(&take::<String>(&mut f, "workload")?)?;
        let seed: u64 = take(&mut f, "seed")?;
        let seconds: u64 = take(&mut f, "seconds")?;
        if !(1..=60).contains(&seconds) {
            return Err(format!("--seconds {seconds} outside 1..=60"));
        }
        let trace = flag_bit(take(&mut f, "trace")?, "trace")?;
        if let Some(k) = f.keys().next() {
            return Err(format!("unknown flag --{k}"));
        }
        Ok((w, seed, seconds as f64, trace))
    })();
    let (w, seed, seconds, trace) = match args {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = || -> Result<(Vec<Rep>, Vec<Rep>), String> {
        if trace {
            let plain = phase(w, seed, false, seconds / 2.0, 1, start)?;
            let traced = phase(w, seed, true, seconds / 2.0, 2, start)?;
            Ok((plain, traced))
        } else {
            Ok((phase(w, seed, false, seconds, 1, start)?, Vec::new()))
        }
    };
    match run() {
        Ok((plain, traced)) => {
            let line = format!(
                "{} seed={seed} seconds={seconds} trace={}",
                w.name, trace as u8
            );
            let inp = inputs::Inputs::generate(w, seed);
            if report::print(w, &line, &inp, &plain, &traced, trace) {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", w.name);
            println!("{}", report::failure_json());
            ExitCode::from(1)
        }
    }
}

/// `--job <workload> --seed <n> --deadline-ms <ms> --traced <0|1>
/// --spans <0|1>`: run one job in this process and print its result as
/// text.
fn job_main(f: &mut BTreeMap<String, String>) -> ExitCode {
    let res = (|| -> Result<Rep, String> {
        watchdog(Duration::from_millis(take(f, "deadline-ms")?));
        let w = workload(&take::<String>(f, "job")?)?;
        let seed = take(f, "seed")?;
        let traced = flag_bit(take(f, "traced")?, "traced")?;
        let spans = flag_bit(take(f, "spans")?, "spans")?;
        job::run(w, seed, traced, spans)
    })();
    match res {
        Ok(rep) => {
            print!("{}", rep.encode());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(1)
        }
    }
}
