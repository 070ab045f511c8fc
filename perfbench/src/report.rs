//! Output checks, metric assembly and printing. Human-readable lines go
//! first on stdout; the last line is the JSON result.

use std::time::Duration;

use obs::wallprof::{COUNTER_NAMES, NCOUNTERS};
use obs::PvarSet;

use crate::attrib::{Attribution, BUCKETS};
use crate::inputs::Inputs;
use crate::job::{spans_path, Rep};
use crate::probe::Probe;
use crate::replay::{replay, Replay};
use crate::stats::{median, tail};
use crate::workload::Workload;

/// Counter pvars the traced run reads.
const PVARS: [&str; 17] = [
    "bind.calls",
    "engine.deliveries",
    "fabric.acks",
    "fabric.corrupt_detected",
    "fabric.dups_suppressed",
    "fabric.retransmits",
    "mpjbuf.pool.hits",
    "mpjbuf.pool.misses",
    "mrt.gc.bytes_copied",
    "mrt.gc.collections",
    "mrt.heap.alloc_bytes",
    "mrt.heap.allocs",
    "nif.crossings.copy",
    "nif.crossings.direct",
    "nif.transitions",
    "pt2pt.unexpected_hits",
    "rma.epoch.deferred",
];

/// Gauge pvars (their cross-rank maximum).
const GAUGES: [&str; 2] = ["pt2pt.unexpected_depth", "pt2pt.match.maxdepth"];

/// Counters that depend on the order frames arrive in relative to
/// receive posting, which the threaded engine leaves to the OS: the
/// racy pvars of `tests/engine_diff.rs`, and the profiler's match scans
/// and comparisons (an early arrival is matched by a scan of the
/// unexpected queue, a late one by a scan of the posted list), and the
/// obs records that count those updates. On the event engine every
/// counter is exact.
const RACY: [&str; 7] = [
    "pt2pt.unexpected_hits",
    "pt2pt.unexpected_depth",
    "pt2pt.match.maxdepth",
    "rma.epoch.deferred",
    "match_scans",
    "match_comparisons",
    "obs_records",
];

/// Counters of frames drained at the receiver. With a fault plan, late
/// acks, duplicates and corrupt copies are counted only if the rank
/// drains them before its closure exits, which on the threaded engine
/// is up to the OS (the ack emit count `fabric.acks` is exact).
const DRAINED: [&str; 4] = [
    "deliveries",
    "engine.deliveries",
    "fabric.corrupt_detected",
    "fabric.dups_suppressed",
];

/// Every work counter of one traced job, summed over ranks.
pub fn counters(pvars: &PvarSet, ranks: &[&Probe], wire_bytes: u64) -> Vec<(String, u64)> {
    let mut wp = [0u64; NCOUNTERS];
    for p in ranks {
        for (t, c) in wp.iter_mut().zip(p.counters) {
            *t += c;
        }
    }
    let mut out: Vec<(&str, u64)> = COUNTER_NAMES.iter().copied().zip(wp).collect();
    out.extend(PVARS.iter().map(|&n| (n, pvars.counter(n))));
    out.extend(GAUGES.iter().map(|&n| {
        let v = pvars.get(n).and_then(|v| v.as_gauge_max()).unwrap_or(0);
        (n, v.max(0) as u64)
    }));
    out.push(("simfabric.wire_bytes", wire_bytes));
    out.into_iter().map(|(n, v)| (n.to_string(), v)).collect()
}

/// Peak resident memory of this process (`VmHWM`), KiB.
pub fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// A metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The result line of a run that could not finish.
pub fn failure_json() -> String {
    json_result(false, 1, 1, &[])
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn rate(r: &Rep) -> f64 {
    ratio(r.ops as f64, r.after_setup_s())
}

/// Throughput after set-up: the median over jobs.
fn ops_per_s(reps: &[Rep]) -> f64 {
    let rates: Vec<f64> = reps.iter().map(rate).collect();
    median(&rates)
}

/// Check, print, and return whether every output check passed.
pub fn print(
    w: &Workload,
    args: &str,
    inp: &Inputs,
    plain: &[Rep],
    traced: &[Rep],
    trace: bool,
) -> bool {
    let all: Vec<&Rep> = plain.iter().chain(traced).collect();
    let first = all[0].digest;
    let attempted: u64 = all.iter().map(|r| r.ops).sum();
    let mut failed: u64 = all.iter().map(|r| r.failed).sum();
    let mismatched: Vec<&&Rep> = all.iter().filter(|r| r.digest != first).collect();
    failed += mismatched.iter().map(|r| r.ops).sum::<u64>();
    let correct = failed == 0;

    println!("# perfbench {args}");
    println!("# workload: {}", w.why);
    println!(
        "# {} ranks, {} engine, {} jobs, each in a fresh process",
        w.ranks(),
        if w.event_engine {
            "event"
        } else {
            "default (threaded)"
        },
        all.len()
    );
    if mismatched.is_empty() {
        println!(
            "# virtual-time digest {first:016x}, identical in all {} jobs",
            all.len()
        );
    } else {
        println!(
            "# FAILED: virtual-time digest differs from the first job's {first:016x} in {} of {} jobs",
            mismatched.len(),
            all.len()
        );
    }
    let failed_pct = 100.0 * ratio(failed as f64, attempted as f64);

    let metrics = if trace {
        per_layer(w, inp, plain, traced)
    } else {
        end_to_end(plain, failed_pct, attempted, failed)
    };
    println!("{}", json_result(correct, attempted, failed, &metrics));
    correct
}

fn end_to_end(plain: &[Rep], failed_pct: f64, attempted: u64, failed: u64) -> Vec<Metric> {
    let mut samples: Vec<u64> = plain
        .iter()
        .flat_map(|r| r.samples_ns.iter().copied())
        .collect();
    samples.sort_unstable();
    let n = samples.len();
    let (p50_pct, p50) = tail(&samples, 50.0).unwrap_or((50.0, 0));
    let (p99_pct, p99) = tail(&samples, 99.0).unwrap_or((99.0, 0));
    let setups: Vec<f64> = plain.iter().map(|r| r.setup_ns as f64 / 1e9).collect();
    let rss: Vec<f64> = plain.iter().map(|r| r.rss_kib as f64 / 1024.0).collect();
    let m: Vec<Metric> = vec![
        ("ops_per_s", ops_per_s(plain), "1/s"),
        ("op_us_p50", p50 as f64 / 1e3, "us"),
        ("op_us_p99", p99 as f64 / 1e3, "us"),
        ("setup_s", median(&setups), "s"),
        ("peak_rss_mb", median(&rss), "MB"),
    ];
    let notes = [
        format!(
            "MPI operations per wall second after set-up, median of {} jobs",
            plain.len()
        ),
        format!("p{p50_pct:.1} of n={n} rank-0 binding calls, all jobs"),
        format!("p{p99_pct:.1} of n={n}: highest percentile <= p99 with >= 10 samples beyond"),
        format!(
            "median of {} jobs, launch to last closure entry",
            setups.len()
        ),
        format!("median over {} job processes of VmHWM", rss.len()),
    ];
    for ((name, v, unit), note) in m.iter().zip(notes) {
        println!("{name:<16} {v:>14.4} {unit:<4} # {note}");
    }
    println!(
        "{:<16} {failed_pct:>14.4} {:<4} # {failed} of {attempted} operations failed",
        "ops_failed_pct", "%"
    );
    m
}

fn per_layer(w: &Workload, inp: &Inputs, plain: &[Rep], traced: &[Rep]) -> Vec<Metric> {
    let jobs = traced.len() as f64;
    let mut a = Attribution::default();
    for r in traced {
        a.add(
            r.attribution
                .as_ref()
                .expect("traced job carries attribution"),
        );
    }
    a.scale(1.0 / jobs);
    let s = |ns: f64| ns / 1e9;

    // Counters: exact ones must repeat in every traced job of this seed.
    let names: Vec<&str> = traced[0].counters.iter().map(|c| c.0.as_str()).collect();
    println!(
        "# work counters per job over {} traced jobs (exact: identical in every job)",
        traced.len()
    );
    let mut c = std::collections::BTreeMap::new();
    for (i, name) in names.iter().enumerate() {
        let vals: Vec<u64> = traced.iter().map(|r| r.counters[i].1).collect();
        let (lo, hi) = (
            *vals.iter().min().unwrap_or(&0),
            *vals.iter().max().unwrap_or(&0),
        );
        let racy = !w.event_engine && (RACY.contains(name) || w.lossy && DRAINED.contains(name));
        let fvals: Vec<f64> = vals.iter().map(|&v| v as f64).collect();
        c.insert(*name, median(&fvals));
        let class = match (racy, lo == hi) {
            (true, _) => format!("racy   spread {lo}..{hi}"),
            (false, true) => "exact".to_string(),
            (false, false) => format!("FLAG   differs between runs of one seed: {lo}..{hi}"),
        };
        println!("#   {name:<28} {:>14} {class}", vals[0]);
    }
    let cnt = |n: &str| *c.get(n).unwrap_or(&0.0);

    println!(
        "# wall-time attribution per job (denominator: {})",
        if w.event_engine {
            "job wall time"
        } else {
            "sum of rank-thread lifetimes"
        }
    );
    for (name, ns) in BUCKETS.iter().zip(a.buckets) {
        println!(
            "#   {name:<20} {:>10.6} s {:>6.2}%",
            s(ns),
            100.0 * ratio(ns, a.wall_ns)
        );
    }
    println!(
        "#   {:<20} {:>10.6} s {:>6.2}%",
        "unattributed",
        s(a.unattributed_ns),
        100.0 * ratio(a.unattributed_ns, a.wall_ns)
    );
    println!(
        "#   {:<20} {:>10.6} s (attributed {:.6} + unattributed {:.6})",
        "wall",
        s(a.wall_ns),
        s(a.attributed_ns()),
        s(a.unattributed_ns)
    );

    let mut sizes: Vec<usize> = inp.msgs.iter().map(|m| m.size).collect();
    sizes.extend(inp.steps.iter().map(|st| st.bcast_bytes));
    let rp: Replay = replay(&sizes, Duration::from_millis(300));
    println!(
        "# kernel replay over {} bytes at the workload's sizes: memcpy {:.3} GB/s, pack {:.3} GB/s, stage+unstage {:.3} GB/s",
        rp.bytes, rp.memcpy_gb_per_s, rp.pack_gb_per_s, rp.stage_gb_per_s
    );
    println!(
        "# spans of the first traced job: {}",
        spans_path(w).display()
    );

    let calls = traced.iter().map(|r| r.ops).sum::<u64>() as f64 / jobs;
    let call_ns = traced.iter().map(|r| r.call_ns).sum::<u64>() as f64 / jobs;
    let heap_ns = traced.iter().map(|r| r.heap_ns).sum::<u64>() as f64 / jobs;
    let hits = cnt("mpjbuf.pool.hits");
    // Acks are control frames, never useful. With a fault plan every
    // accepted frame (not a duplicate, not corrupt) is acked exactly once
    // when it lands, so the ack emit count is the useful delivery count;
    // without one every delivery is useful.
    let acks = cnt("fabric.acks");
    let useful = if w.lossy { acks } else { cnt("deliveries") };
    let plain_ops = ops_per_s(plain);
    let traced_ops = ops_per_s(traced);
    let m: Vec<Metric> = vec![
        ("mvapich2j.calls", calls, "count"),
        ("mvapich2j.call_s", s(call_ns), "s"),
        ("mvapich2j.self_s", s(a.get("mvapich2j")), "s"),
        ("mrt.app_s", s(heap_ns), "s"),
        ("mrt.self_s", s(a.get("mrt")), "s"),
        ("mrt.gc.collections", cnt("mrt.gc.collections"), "count"),
        ("mrt.gc.bytes_copied", cnt("mrt.gc.bytes_copied"), "bytes"),
        ("mrt.heap.alloc_bytes", cnt("mrt.heap.alloc_bytes"), "bytes"),
        ("nif.transitions", cnt("nif.transitions"), "count"),
        ("nif.crossings.copy", cnt("nif.crossings.copy"), "count"),
        ("nif.crossings.direct", cnt("nif.crossings.direct"), "count"),
        ("mpjbuf.busy_s", s(a.get("mpjbuf.pool")), "s"),
        ("mpjbuf.pool.hits", hits, "count"),
        ("mpjbuf.pool.misses", cnt("mpjbuf.pool.misses"), "count"),
        (
            "mpjbuf.pool.hit_ratio",
            ratio(hits, hits + cnt("mpjbuf.pool.misses")),
            "ratio",
        ),
        ("mpjbuf.stage_gb_per_s", rp.stage_gb_per_s, "GB/s"),
        ("mpisim.datatype.pack_gb_per_s", rp.pack_gb_per_s, "GB/s"),
        (
            "mpisim.datatype.copy_efficiency",
            rp.copy_efficiency,
            "ratio",
        ),
        ("memcpy_gb_per_s", rp.memcpy_gb_per_s, "GB/s"),
        ("simfabric.fabric_s", s(a.get("simfabric.fabric")), "s"),
        ("simfabric.sched_s", s(a.get("simfabric.sched")), "s"),
        ("simfabric.sched_polls", cnt("sched_polls"), "count"),
        (
            "simfabric.us_per_sched_poll",
            ratio(a.get("simfabric.sched") / 1e3, cnt("sched_polls")),
            "us",
        ),
        ("simfabric.wire_bytes", cnt("simfabric.wire_bytes"), "bytes"),
        ("simfabric.injections", cnt("injections"), "count"),
        ("mpisim.engine_s", s(a.get("mpisim.engine")), "s"),
        ("mpisim.match_s", s(a.get("mpisim.match")), "s"),
        (
            "mpisim.match.comparisons_per_scan",
            ratio(cnt("match_comparisons"), cnt("match_scans")),
            "ratio",
        ),
        ("mpisim.messages", cnt("messages"), "count"),
        ("mpisim.deliveries", cnt("deliveries"), "count"),
        ("mpisim.allocs", cnt("allocs"), "count"),
        ("mpisim.reliability_s", s(a.get("mpisim.reliability")), "s"),
        ("mpisim.retransmits", cnt("fabric.retransmits"), "count"),
        (
            "mpisim.delivery_ratio",
            ratio(useful, cnt("injections") - acks),
            "ratio",
        ),
        ("obs.busy_s", s(a.get("obs")), "s"),
        ("obs.records", cnt("obs_records"), "count"),
        (
            "obs.records_per_op",
            ratio(cnt("obs_records"), calls),
            "ratio",
        ),
        ("setup.self_s", s(a.get("setup")), "s"),
        ("perfbench.self_s", s(a.get("perfbench")), "s"),
        ("wall_s", s(a.wall_ns), "s"),
        ("blocked_s", s(a.get("blocked")), "s"),
        ("unattributed_s", s(a.unattributed_ns), "s"),
        (
            "unattributed_pct",
            100.0 * ratio(a.unattributed_ns, a.wall_ns),
            "%",
        ),
        (
            "trace_overhead_pct",
            100.0 * ratio(plain_ops - traced_ops, plain_ops),
            "%",
        ),
    ];
    for (name, v, unit) in &m {
        println!("{name:<34} {v:>16.6} {unit}");
    }
    m
}
