//! Layer attribution of a job's wall time.
//!
//! The denominator depends on the engine. On the event engine exactly one
//! rank thread runs at a time, so the job's wall time is the whole to
//! divide. On the threaded engine rank threads run side by side, so the
//! whole is the sum of the rank threads' lifetimes (launch to closure
//! exit). Shares are built from the profiler's raw exclusive `wall_ns`
//! per segment, never from `SimPerf::subsystem_share_pct`.
//!
//! Each segment's wall time splits into the program subsystems the
//! profiler timed inside it, the segment owner's own on-CPU time (its
//! thread CPU time minus those subsystems), and off-CPU time. Off-CPU
//! time is `blocked` on the threaded engine (a rank waiting on the
//! fabric). On the event engine a parked rank's off-CPU time overlaps the
//! running rank's, so `blocked` is instead the part of the job wall no
//! thread of the process spent on a CPU: baton hand-off. Whatever no
//! bucket covers is `unattributed`, so attributed plus unattributed is
//! the measured wall by construction.

use obs::wallprof::NSUBS;

use crate::probe::{SegTotals, NSEG};

/// Buckets in report order: the owners of the four segment kinds
/// (`probe::Seg` order), then the program subsystems (`wallprof` order),
/// then `blocked`.
pub const BUCKETS: [&str; NSEG + NSUBS + 1] = [
    "setup",
    "mvapich2j",
    "mrt",
    "perfbench",
    "mpisim.engine",
    "simfabric.fabric",
    "mpisim.match",
    "mpisim.reliability",
    "simfabric.sched",
    "mpjbuf.pool",
    "obs",
    "blocked",
];

pub const BLOCKED: usize = NSEG + NSUBS;

/// One rank's input to the attribution.
#[derive(Debug, Clone, Default)]
pub struct RankTime {
    /// Wall ns from the job launch to the closure's exit.
    pub exit_ns: u64,
    pub segs: [SegTotals; NSEG],
}

/// A job's wall time split into buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// The denominator, ns.
    pub wall_ns: f64,
    /// ns per bucket, `BUCKETS` order.
    pub buckets: [f64; NSEG + NSUBS + 1],
    pub unattributed_ns: f64,
}

impl Attribution {
    pub fn attributed_ns(&self) -> f64 {
        self.buckets.iter().sum()
    }

    pub fn add(&mut self, o: &Attribution) {
        self.wall_ns += o.wall_ns;
        for (a, b) in self.buckets.iter_mut().zip(o.buckets) {
            *a += b;
        }
        self.unattributed_ns += o.unattributed_ns;
    }

    pub fn scale(&mut self, k: f64) {
        self.wall_ns *= k;
        for b in &mut self.buckets {
            *b *= k;
        }
        self.unattributed_ns *= k;
    }

    pub fn get(&self, name: &str) -> f64 {
        let i = BUCKETS
            .iter()
            .position(|&b| b == name)
            .expect("known bucket");
        self.buckets[i]
    }
}

impl Default for Attribution {
    fn default() -> Self {
        Attribution {
            wall_ns: 0.0,
            buckets: [0.0; NSEG + NSUBS + 1],
            unattributed_ns: 0.0,
        }
    }
}

/// Attribute one job. `job_wall_ns` and `process_cpu_ns` are measured by
/// the launching thread around the whole job.
pub fn attribute(
    event_engine: bool,
    job_wall_ns: u64,
    process_cpu_ns: u64,
    ranks: &[RankTime],
) -> Attribution {
    let mut a = Attribution::default();
    let mut off_cpu = 0.0;
    for r in ranks {
        for (kind, s) in r.segs.iter().enumerate() {
            let subs: u64 = s.subs_ns.iter().sum();
            for (i, &ns) in s.subs_ns.iter().enumerate() {
                a.buckets[NSEG + i] += ns as f64;
            }
            let own = s.cpu_ns.min(s.wall_ns).saturating_sub(subs);
            a.buckets[kind] += own as f64;
            off_cpu += s.wall_ns.saturating_sub(subs + own) as f64;
        }
    }
    if event_engine {
        a.wall_ns = job_wall_ns as f64;
        a.buckets[BLOCKED] = job_wall_ns.saturating_sub(process_cpu_ns) as f64;
    } else {
        a.wall_ns = ranks.iter().map(|r| r.exit_ns as f64).sum();
        a.buckets[BLOCKED] = off_cpu;
    }
    a.unattributed_ns = a.wall_ns - a.attributed_ns();
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(wall: u64, cpu: u64, subs: &[(usize, u64)]) -> SegTotals {
        let mut s = SegTotals {
            wall_ns: wall,
            cpu_ns: cpu,
            ..Default::default()
        };
        for &(i, ns) in subs {
            s.subs_ns[i] = ns;
        }
        s
    }

    fn rank(exit: u64, segs: [SegTotals; NSEG]) -> RankTime {
        RankTime {
            exit_ns: exit,
            segs,
        }
    }

    fn assert_sums(a: &Attribution) {
        let total = a.attributed_ns() + a.unattributed_ns;
        assert!((total - a.wall_ns).abs() < 1e-6, "{total} != {}", a.wall_ns);
    }

    #[test]
    fn threaded_shares_divide_by_summed_rank_lifetimes() {
        let r0 = rank(
            1_000,
            [
                seg(100, 100, &[]),
                seg(600, 300, &[(0, 120), (2, 80)]),
                seg(150, 150, &[(6, 30)]),
                seg(100, 100, &[]),
            ],
        );
        let r1 = rank(
            900,
            [
                seg(80, 80, &[]),
                seg(700, 200, &[(0, 50)]),
                seg(50, 50, &[]),
                seg(20, 20, &[]),
            ],
        );
        let a = attribute(false, 1_000, 2_000, &[r0, r1]);
        assert_eq!(a.wall_ns, 1_900.0, "sum of lifetimes, not job wall");
        assert_sums(&a);
        // Rank 0's binding calls: 300 on CPU of which 200 in subsystems.
        assert_eq!(a.get("mvapich2j"), 100.0 + 150.0);
        assert_eq!(a.get("mpisim.engine"), 170.0);
        assert_eq!(a.get("blocked"), 300.0 + 500.0);
        // Launch-to-install time is the only thing left over.
        assert_eq!(a.unattributed_ns, (1_000.0 - 950.0) + (900.0 - 850.0));
    }

    #[test]
    fn event_shares_divide_by_job_wall_and_blocked_is_idle_process() {
        let ranks: Vec<RankTime> = (0..4)
            .map(|_| {
                rank(
                    10_000,
                    [
                        seg(50, 50, &[]),
                        seg(5_000, 400, &[(4, 100)]),
                        seg(40, 40, &[]),
                        seg(30, 30, &[]),
                    ],
                )
            })
            .collect();
        let a = attribute(true, 3_000, 2_400, &ranks);
        assert_eq!(a.wall_ns, 3_000.0);
        assert_eq!(a.get("blocked"), 600.0);
        assert_eq!(a.get("simfabric.sched"), 400.0);
        assert_eq!(a.get("mvapich2j"), 1_200.0);
        assert_sums(&a);
        assert!(a.unattributed_ns >= 0.0);
    }

    #[test]
    fn over_reported_subsystems_still_sum_to_wall() {
        // Subsystem time read a little past the segment's own clock.
        let r = rank(
            500,
            [
                seg(10, 10, &[]),
                seg(100, 90, &[(1, 120)]),
                seg(0, 0, &[]),
                seg(0, 0, &[]),
            ],
        );
        let a = attribute(false, 500, 500, &[r]);
        assert_sums(&a);
        assert_eq!(a.get("mvapich2j"), 0.0);
        assert_eq!(a.get("blocked"), 0.0);
    }
}
