//! Seeded, deterministic fault injection for the fabric.
//!
//! A [`FaultPlan`] describes everything that may go wrong on the wire:
//! per-link message drops, byte corruption, duplication, delivery jitter,
//! a rank crashing at a virtual instant, and a rank running slow. The
//! plan is applied at [`crate::Endpoint::send`] delivery time, so the
//! *fate* of every injection is decided by the sender — an oracle model
//! that keeps the whole simulation deterministic: fates are a pure
//! function of `(seed, src, dst, nth-message-on-link)`, never of OS
//! scheduling.
//!
//! ## Determinism
//!
//! The fault RNG is keyed per *link* with a per-link injection counter,
//! for the same reason [`vtime::LinkState`] is per-link: the order of
//! injections on one (src, dst) pair is fixed by program order on the
//! sender, while the interleaving *across* links is a real-time accident.
//! A single per-endpoint RNG would leak that accident into the fault
//! sequence; a per-link counter cannot.

use std::fmt;

use vtime::VTime;

/// Errors surfaced by the fabric itself (as opposed to the MPI layers
/// above it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricError {
    /// `send` named a destination rank outside the topology.
    DestinationOutOfRange {
        /// The requested destination.
        dst: usize,
        /// Ranks in the cluster.
        size: usize,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::DestinationOutOfRange { dst, size } => {
                write!(
                    f,
                    "destination rank {dst} out of range for cluster of {size}"
                )
            }
        }
    }
}

impl std::error::Error for FabricError {}

/// What the fabric did with one injected message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Delivered intact.
    Delivered,
    /// Consumed wire time, then lost (drop or crashed destination).
    Dropped,
    /// Delivered, but the payload was mutated in flight.
    Corrupted,
    /// Delivered intact twice.
    Duplicated,
}

/// Result of one [`crate::Endpoint::send`] under (possible) faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendOutcome {
    /// Virtual arrival instant of the (first) copy at the destination
    /// NIC. For [`Fate::Dropped`] this is when the copy *would have*
    /// arrived — the link time was consumed either way.
    pub arrival: VTime,
    /// What happened to the message.
    pub fate: Fate,
}

/// A payload the fabric is allowed to corrupt. The default is a no-op so
/// plain test payloads (`u32`, `()`, …) can ride the faulty fabric; real
/// protocol frames override it to flip actual bytes.
pub trait FaultTarget: Clone {
    /// Mutate the payload "in flight". `salt` is a deterministic random
    /// value; implementations should derive which bytes to flip from it.
    fn corrupt(&mut self, _salt: u64) {}
}

impl FaultTarget for () {}
impl FaultTarget for u8 {}
impl FaultTarget for u32 {}
impl FaultTarget for u64 {}

/// A seeded, deterministic description of everything that may go wrong.
///
/// `Copy` by design: the plan travels inside job-configuration structs
/// that are themselves `Copy`, so list-like knobs are modelled as single
/// optional entries (one crashed rank, one slow rank, one special link).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for every fault decision.
    pub seed: u64,
    /// Per-message drop probability on every link.
    pub drop_prob: f64,
    /// Per-message corruption probability.
    pub corrupt_prob: f64,
    /// Per-message duplication probability.
    pub duplicate_prob: f64,
    /// Uniform extra delivery delay in `[0, jitter_ns)` per message.
    pub jitter_ns: f64,
    /// Rank that crashes, and the virtual time (ns) it dies. Messages
    /// arriving at the crashed rank after that instant are blackholed.
    pub crash: Option<(usize, f64)>,
    /// Rank whose local work runs `factor`× slower (straggler model).
    pub slowdown: Option<(usize, f64)>,
    /// One (src, dst) link with a fixed extra delay in ns.
    pub link_delay: Option<(usize, usize, f64)>,
    /// One (src, dst) link whose drop probability overrides `drop_prob`.
    pub link_drop: Option<(usize, usize, f64)>,
    /// Reliability-sublayer retransmission timeout (virtual ns).
    pub rto_ns: f64,
    /// Retransmission attempts before the sender gives up.
    pub max_retries: u32,
    /// Real-time progress-watchdog bound (ms) used by layers above to
    /// convert a stall into a rank-failure error when `crash` is set.
    pub watchdog_ms: u64,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a parse/builder base).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            duplicate_prob: 0.0,
            jitter_ns: 0.0,
            crash: None,
            slowdown: None,
            link_delay: None,
            link_drop: None,
            rto_ns: 20_000.0,
            max_retries: 12,
            watchdog_ms: 250,
        }
    }

    /// Whether the plan can actually perturb a run.
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0
            || self.corrupt_prob > 0.0
            || self.duplicate_prob > 0.0
            || self.jitter_ns > 0.0
            || self.crash.is_some()
            || self.slowdown.is_some()
            || self.link_delay.is_some()
            || self.link_drop.is_some()
    }

    /// Check that every rank the plan names (crash, slow, and both ends
    /// of the delay and linkdrop links) is one of a job's `size` ranks.
    /// A fault aimed outside the job would silently never fire.
    pub fn check_ranks(&self, size: usize) -> Result<(), String> {
        let named = [
            self.crash.map(|(r, _)| ("crash", r)),
            self.slowdown.map(|(r, _)| ("slow", r)),
            self.link_delay.map(|(s, _, _)| ("delay", s)),
            self.link_delay.map(|(_, d, _)| ("delay", d)),
            self.link_drop.map(|(s, _, _)| ("linkdrop", s)),
            self.link_drop.map(|(_, d, _)| ("linkdrop", d)),
        ];
        match named.into_iter().flatten().find(|&(_, r)| r >= size) {
            Some((key, r)) => Err(format!(
                "{key} names rank {r}, but the job has {size} ranks (0..{size})"
            )),
            None => Ok(()),
        }
    }

    /// Parse a `--faults` specification: comma-separated `key=value`
    /// entries.
    ///
    /// ```text
    /// drop=0.02,corrupt=0.001,dup=0.01,jitter=200,crash=2@1000000,
    /// slow=1:2.0,delay=0-1:500,linkdrop=0-1:0.2,rto=20000,retries=12,
    /// watchdog=250
    /// ```
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(0);
        for entry in spec.split(',').filter(|s| !s.is_empty()) {
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault entry `{entry}` is not key=value"))?;
            let prob = |v: &str, what: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("{what} `{v}` is not a number"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("{what} `{v}` outside [0, 1]"));
                }
                Ok(p)
            };
            let num = |v: &str, what: &str| -> Result<f64, String> {
                let x: f64 = v
                    .parse()
                    .map_err(|_| format!("{what} `{v}` is not a number"))?;
                if !x.is_finite() || x < 0.0 {
                    return Err(format!("{what} `{v}` must be finite and non-negative"));
                }
                Ok(x)
            };
            fn link(v: &str) -> Result<(usize, usize, &str), String> {
                let (pair, rest) = v
                    .split_once(':')
                    .ok_or_else(|| format!("link entry `{v}` is not SRC-DST:VALUE"))?;
                let (s, d) = pair
                    .split_once('-')
                    .ok_or_else(|| format!("link pair `{pair}` is not SRC-DST"))?;
                let s = s.parse().map_err(|_| format!("bad src rank `{s}`"))?;
                let d = d.parse().map_err(|_| format!("bad dst rank `{d}`"))?;
                Ok((s, d, rest))
            }
            match key {
                "drop" => plan.drop_prob = prob(value, "drop probability")?,
                "corrupt" => plan.corrupt_prob = prob(value, "corruption probability")?,
                "dup" => plan.duplicate_prob = prob(value, "duplication probability")?,
                "jitter" => plan.jitter_ns = num(value, "jitter")?,
                "crash" => {
                    let (rank, at) = value
                        .split_once('@')
                        .ok_or_else(|| format!("crash `{value}` is not RANK@VTIME_NS"))?;
                    let rank = rank
                        .parse()
                        .map_err(|_| format!("bad crash rank `{rank}`"))?;
                    plan.crash = Some((rank, num(at, "crash time")?));
                }
                "slow" => {
                    let (rank, factor) = value
                        .split_once(':')
                        .ok_or_else(|| format!("slow `{value}` is not RANK:FACTOR"))?;
                    let rank = rank
                        .parse()
                        .map_err(|_| format!("bad slow rank `{rank}`"))?;
                    let factor = num(factor, "slowdown factor")?;
                    if factor < 1.0 {
                        return Err(format!("slowdown factor `{factor}` must be >= 1"));
                    }
                    plan.slowdown = Some((rank, factor));
                }
                "delay" => {
                    let (s, d, v) = link(value)?;
                    plan.link_delay = Some((s, d, num(v, "link delay")?));
                }
                "linkdrop" => {
                    let (s, d, v) = link(value)?;
                    plan.link_drop = Some((s, d, prob(v, "link drop probability")?));
                }
                "rto" => plan.rto_ns = num(value, "rto")?,
                "retries" => {
                    plan.max_retries = value
                        .parse()
                        .map_err(|_| format!("retries `{value}` is not an integer"))?;
                }
                "watchdog" => {
                    plan.watchdog_ms = value
                        .parse()
                        .map_err(|_| format!("watchdog `{value}` is not an integer"))?;
                }
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("seed `{value}` is not an integer"))?;
                }
                _ => return Err(format!("unknown fault key `{key}`")),
            }
        }
        Ok(plan)
    }
}

/// SplitMix64 finalizer: the one hash every fault decision flows through.
#[inline]
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map a hash to a uniform f64 in [0, 1).
#[inline]
pub(crate) fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let p = FaultPlan::parse(
            "drop=0.02,corrupt=0.001,dup=0.01,jitter=200,crash=2@1000000,\
             slow=1:2.0,delay=0-1:500,linkdrop=0-1:0.2,rto=30000,retries=6,\
             watchdog=100,seed=7",
        )
        .unwrap();
        assert_eq!(p.drop_prob, 0.02);
        assert_eq!(p.corrupt_prob, 0.001);
        assert_eq!(p.duplicate_prob, 0.01);
        assert_eq!(p.jitter_ns, 200.0);
        assert_eq!(p.crash, Some((2, 1_000_000.0)));
        assert_eq!(p.slowdown, Some((1, 2.0)));
        assert_eq!(p.link_delay, Some((0, 1, 500.0)));
        assert_eq!(p.link_drop, Some((0, 1, 0.2)));
        assert_eq!(p.rto_ns, 30_000.0);
        assert_eq!(p.max_retries, 6);
        assert_eq!(p.watchdog_ms, 100);
        assert_eq!(p.seed, 7);
        assert!(p.is_active());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("drop=2.0").is_err());
        assert!(FaultPlan::parse("drop").is_err());
        assert!(FaultPlan::parse("nosuch=1").is_err());
        assert!(FaultPlan::parse("crash=1").is_err());
        assert!(FaultPlan::parse("delay=01:5").is_err());
        assert!(FaultPlan::parse("slow=1:0.5").is_err());
    }

    #[test]
    fn ranks_outside_the_job_are_rejected_naming_rank_and_size() {
        for (spec, key, rank) in [
            ("crash=9@100", "crash", 9),
            ("slow=2:2.0", "slow", 2),
            ("delay=0-9:100", "delay", 9),
            ("delay=5-0:100", "delay", 5),
            ("linkdrop=7-0:0.5", "linkdrop", 7),
            ("linkdrop=1-2:0.5", "linkdrop", 2),
        ] {
            let plan = FaultPlan::parse(spec).unwrap();
            assert_eq!(
                plan.check_ranks(2),
                Err(format!(
                    "{key} names rank {rank}, but the job has 2 ranks (0..2)"
                )),
                "{spec}"
            );
            assert_eq!(plan.check_ranks(rank + 1), Ok(()), "{spec}");
        }
        assert_eq!(FaultPlan::parse("drop=0.5").unwrap().check_ranks(1), Ok(()));
    }

    #[test]
    fn empty_plan_is_inactive() {
        let p = FaultPlan::parse("").unwrap();
        assert!(!p.is_active());
        assert_eq!(p, FaultPlan::new(0));
    }

    #[test]
    fn unit_stays_in_range_and_varies() {
        let mut seen_low = false;
        let mut seen_high = false;
        for i in 0..1000u64 {
            let u = unit(mix(i));
            assert!((0.0..1.0).contains(&u));
            seen_low |= u < 0.1;
            seen_high |= u > 0.9;
        }
        assert!(seen_low && seen_high, "hash output covers the unit range");
    }

    #[test]
    fn fabric_error_display() {
        let e = FabricError::DestinationOutOfRange { dst: 5, size: 2 };
        assert!(e.to_string().contains("5"));
        assert!(e.to_string().contains("out of range"));
    }
}
