//! One repetition: one whole job, run in a process of its own so that
//! every job starts from a fresh process, as a user's run does, and its
//! peak memory is its own. The job process prints its [`Rep`] as text;
//! the parent reads it back.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::attrib::{attribute, Attribution, RankTime};
use crate::inputs::Inputs;
use crate::probe::{process_cpu_ns, Probe, Span, NSEG};
use crate::report;
use crate::workload::Workload;

/// What one job yields.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    /// Launch until every rank has entered the workload closure.
    pub setup_ns: u64,
    /// Launch until the job returned.
    pub wall_ns: u64,
    pub ops: u64,
    pub failed: u64,
    pub digest: u64,
    pub call_ns: u64,
    pub heap_ns: u64,
    /// Peak resident memory of the job process, KiB.
    pub rss_kib: u64,
    /// Rank 0's binding-call wall times.
    pub samples_ns: Vec<u64>,
    /// Traced jobs only.
    pub attribution: Option<Attribution>,
    pub counters: Vec<(String, u64)>,
}

impl Rep {
    pub fn after_setup_s(&self) -> f64 {
        self.wall_ns.saturating_sub(self.setup_ns) as f64 / 1e9
    }

    pub fn encode(&self) -> String {
        let mut out = format!(
            "job {} {} {} {} {} {} {} {}\nsamples",
            self.setup_ns,
            self.wall_ns,
            self.ops,
            self.failed,
            self.digest,
            self.call_ns,
            self.heap_ns,
            self.rss_kib
        );
        for s in &self.samples_ns {
            out.push_str(&format!(" {s}"));
        }
        out.push('\n');
        if let Some(a) = &self.attribution {
            out.push_str(&format!("attr {} {}", a.wall_ns, a.unattributed_ns));
            for b in a.buckets {
                out.push_str(&format!(" {b}"));
            }
            out.push('\n');
        }
        for (name, v) in &self.counters {
            out.push_str(&format!("counter {name} {v}\n"));
        }
        out
    }

    pub fn decode(text: &str) -> Result<Rep, String> {
        fn nums<T: std::str::FromStr>(it: std::str::SplitWhitespace) -> Result<Vec<T>, String> {
            it.map(|x| x.parse().map_err(|_| format!("bad number `{x}`")))
                .collect()
        }
        let mut rep = None;
        let mut samples = Vec::new();
        let mut attribution = None;
        let mut counters = Vec::new();
        for line in text.lines() {
            let mut it = line.split_whitespace();
            match it.next() {
                Some("job") => {
                    let v: Vec<u64> = nums(it)?;
                    let v: [u64; 8] = v[..]
                        .try_into()
                        .map_err(|_| format!("bad job line `{line}`"))?;
                    rep = Some(v);
                }
                Some("samples") => samples = nums(it)?,
                Some("attr") => {
                    let v: Vec<f64> = nums(it)?;
                    let mut a = Attribution::default();
                    if v.len() != 2 + a.buckets.len() {
                        return Err(format!("bad attr line `{line}`"));
                    }
                    a.wall_ns = v[0];
                    a.unattributed_ns = v[1];
                    a.buckets.copy_from_slice(&v[2..]);
                    attribution = Some(a);
                }
                Some("counter") => {
                    let (name, v) = (it.next(), it.next().and_then(|v| v.parse().ok()));
                    match (name, v) {
                        (Some(n), Some(v)) => counters.push((n.to_string(), v)),
                        _ => return Err(format!("bad counter line `{line}`")),
                    }
                }
                _ => {}
            }
        }
        let [setup_ns, wall_ns, ops, failed, digest, call_ns, heap_ns, rss_kib] =
            rep.ok_or("job process printed no result")?;
        Ok(Rep {
            setup_ns,
            wall_ns,
            ops,
            failed,
            digest,
            call_ns,
            heap_ns,
            rss_kib,
            samples_ns: samples,
            attribution,
            counters,
        })
    }
}

fn panic_text(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// Run the workload once as a whole job in this process. `traced` arms
/// the segment probes and the program's profiler; `spans` also keeps
/// every call span and writes them out.
pub fn run(w: &Workload, seed: u64, traced: bool, spans: bool) -> Result<Rep, String> {
    let inp = Inputs::generate(w, seed);
    let cfg = w.config(&inp, traced);
    let cpu0 = process_cpu_ns();
    let launch = Instant::now();
    let job = catch_unwind(AssertUnwindSafe(|| {
        mvapich2j::run_job_with_obs(cfg, |env| {
            let mut p = Probe::enter(env.rank(), launch, traced, spans);
            let res = w.run_rank(&inp, env, &mut p);
            p.exit();
            let wire = env.fabric_stats();
            res.map(|()| (p, wire))
                .map_err(|e| format!("rank {}: {e}", env.rank()))
        })
    }));
    let wall_ns = launch.elapsed().as_nanos() as u64;
    let cpu_ns = process_cpu_ns().saturating_sub(cpu0);
    let (results, obs_report) = job.map_err(|e| format!("job panicked: {}", panic_text(e)))?;
    let ranks = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for (p, _) in &ranks {
        for b in p.digest.to_le_bytes() {
            digest = (digest ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    let mut rep = Rep {
        setup_ns: ranks.iter().map(|(p, _)| p.entry_ns).max().unwrap_or(0),
        wall_ns,
        ops: ranks.iter().map(|(p, _)| p.calls).sum(),
        failed: ranks.iter().map(|(p, _)| p.failed).sum(),
        digest,
        call_ns: ranks.iter().map(|(p, _)| p.call_ns).sum(),
        heap_ns: ranks.iter().map(|(p, _)| p.heap_ns).sum(),
        rss_kib: report::peak_rss_kib(),
        samples_ns: ranks[0].0.samples_ns.clone(),
        attribution: None,
        counters: Vec::new(),
    };
    if traced {
        let times: Vec<RankTime> = ranks
            .iter()
            .map(|(p, _)| RankTime {
                exit_ns: p.exit_ns,
                segs: p.segs,
            })
            .collect();
        rep.attribution = Some(attribute(w.event_engine, wall_ns, cpu_ns, &times));
        let wire_bytes = ranks.iter().map(|(_, s)| s.wire_bytes).sum();
        let probes: Vec<&Probe> = ranks.iter().map(|(p, _)| p).collect();
        rep.counters = report::counters(&obs_report.merged_pvars(), &probes, wire_bytes);
    }
    if spans {
        let all: Vec<&Span> = ranks.iter().flat_map(|(p, _)| &p.spans).collect();
        write_spans(w, &all).map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(rep)
}

/// Where a workload's spans are written: beside this crate, under `out/`.
pub fn spans_path(w: &Workload) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}.jsonl", w.name))
}

/// Write spans as JSON lines, one object per span.
fn write_spans(w: &Workload, spans: &[&Span]) -> std::io::Result<()> {
    let path = spans_path(w);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut text = String::with_capacity(spans.len() * 160);
    for sp in spans {
        let inner: Vec<String> = crate::attrib::BUCKETS[NSEG..crate::attrib::BLOCKED]
            .iter()
            .zip(sp.inner_ns)
            .filter(|(_, ns)| *ns > 0)
            .map(|(b, ns)| format!("\"{b}\": {ns}"))
            .collect();
        text.push_str(&format!(
            "{{\"op\": {}, \"rank\": {}, \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"cpu_ns\": {}, \"inner_ns\": {{{}}}}}\n",
            sp.op,
            sp.rank,
            sp.layer,
            sp.name,
            sp.start_ns,
            sp.end_ns,
            sp.cpu_ns,
            inner.join(", ")
        ));
    }
    std::fs::write(&path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rep_text_round_trips() {
        let mut a = Attribution {
            wall_ns: 1234.5,
            unattributed_ns: 0.25,
            ..Default::default()
        };
        a.buckets[3] = 1e-3;
        let rep = Rep {
            setup_ns: 1,
            wall_ns: 2,
            ops: 3,
            failed: 0,
            digest: u64::MAX,
            call_ns: 5,
            heap_ns: 6,
            rss_kib: 7,
            samples_ns: vec![9, 8],
            attribution: Some(a),
            counters: vec![("mrt.gc.collections".to_string(), 12)],
        };
        assert_eq!(Rep::decode(&rep.encode()), Ok(rep));
    }
}
