//! The LogGP network model and per-link serialization state.
//!
//! LogGP (Alexandrov et al., 1995) extends LogP with a per-byte gap `G` so
//! that large-message bandwidth is modelled realistically:
//!
//! * `L` — wire latency between two NICs;
//! * `o_send`/`o_recv` — CPU overhead to inject / drain a message;
//! * `g` — minimum gap between consecutive message injections (per-message
//!   cost at the NIC);
//! * `G` — gap per byte (inverse bandwidth) at the bottleneck link.
//!
//! A message of `n` bytes injected by a sender whose clock reads `t` is
//! modelled as:
//!
//! ```text
//! inject_start  = max(t + o_send, link_free)
//! inject_done   = inject_start + g + n * G
//! arrival       = inject_done + L
//! link_free'    = inject_done
//! ```
//!
//! The receiver charges `o_recv` on top of `arrival` when it matches the
//! message. [`LinkState`] carries `link_free` for one direction of one
//! (src, dst) pair and is only ever touched by the sending rank's thread,
//! which keeps the whole simulation deterministic.

use crate::time::{VDur, VTime};

/// LogGP parameters for one class of transfers (e.g. the inter-node RDMA
/// path of one MPI library, or its intra-node shared-memory path).
///
/// All values are in nanoseconds (per byte for `gap_per_byte_ns`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogGp {
    /// Wire/transport latency `L`.
    pub latency_ns: f64,
    /// Sender CPU overhead `o_send`.
    pub o_send_ns: f64,
    /// Receiver CPU overhead `o_recv`.
    pub o_recv_ns: f64,
    /// Per-message injection gap `g`.
    pub gap_msg_ns: f64,
    /// Per-byte gap `G` (inverse of the bottleneck bandwidth).
    pub gap_per_byte_ns: f64,
}

impl LogGp {
    /// Inverse bandwidth helper: `G` for a link of `gbps` gigabits/s.
    ///
    /// `G [ns/B] = 8 / gbps`.
    pub fn gap_for_gbps(gbps: f64) -> f64 {
        assert!(gbps > 0.0);
        8.0 / gbps
    }

    /// Time the sender's CPU is busy injecting an `n`-byte message
    /// (overhead only; serialization is accounted by [`LinkState`]).
    #[inline]
    pub fn o_send(&self) -> VDur {
        VDur::from_nanos(self.o_send_ns)
    }

    /// Receiver-side drain overhead.
    #[inline]
    pub fn o_recv(&self) -> VDur {
        VDur::from_nanos(self.o_recv_ns)
    }

    /// Pure serialization time of `n` bytes: `g + n * G`.
    #[inline]
    pub fn serialize(&self, n: usize) -> VDur {
        VDur::from_nanos(self.gap_msg_ns + n as f64 * self.gap_per_byte_ns)
    }

    /// End-to-end unloaded transfer time of `n` bytes (no queueing):
    /// `o_send + g + n*G + L`. Useful for analytic expectations in tests.
    pub fn unloaded(&self, n: usize) -> VDur {
        self.o_send() + self.serialize(n) + VDur::from_nanos(self.latency_ns)
    }
}

/// Serialization state of one direction of one (src, dst) link.
///
/// Owned (logically) by the sending rank: only that rank's thread ever
/// calls [`LinkState::inject`], so no locking is required and the outcome
/// is independent of thread scheduling.
#[derive(Debug, Clone, Default)]
pub struct LinkState {
    free_at: VTime,
}

impl LinkState {
    /// Fresh link, free from the epoch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inject an `n`-byte message whose sender clock reads `sender_now`
    /// (already including `o_send`). Returns the arrival instant at the
    /// destination NIC and updates the link's busy horizon.
    pub fn inject(&mut self, sender_now: VTime, n: usize, p: &LogGp) -> VTime {
        let start = sender_now.max(self.free_at);
        let done = start + p.serialize(n);
        self.free_at = done;
        done + VDur::from_nanos(p.latency_ns)
    }

    /// When the link next becomes free (for introspection/tests).
    pub fn free_at(&self) -> VTime {
        self.free_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> LogGp {
        LogGp {
            latency_ns: 1000.0,
            o_send_ns: 100.0,
            o_recv_ns: 100.0,
            gap_msg_ns: 50.0,
            gap_per_byte_ns: 0.1,
        }
    }

    #[test]
    fn gap_for_gbps_matches_bandwidth() {
        // 100 Gb/s => 12.5 GB/s => 0.08 ns/B
        let g = LogGp::gap_for_gbps(100.0);
        assert!((g - 0.08).abs() < 1e-12);
    }

    #[test]
    fn unloaded_single_message() {
        let p = params();
        // 100 + 50 + 1000*0.1 + 1000 = 1250
        assert_eq!(p.unloaded(1000).as_nanos(), 1250.0);
    }

    #[test]
    fn link_serializes_back_to_back_messages() {
        let p = params();
        let mut link = LinkState::new();
        let t0 = VTime::from_nanos(0.0);
        // First message: starts at 0, serialization 50 + 100*0.1 = 60,
        // arrival 60 + 1000 = 1060.
        let a1 = link.inject(t0, 100, &p);
        assert_eq!(a1.as_nanos(), 1060.0);
        assert_eq!(link.free_at().as_nanos(), 60.0);
        // Second message "sent" at t=0 again (e.g. window of isends):
        // must wait for the link, starts at 60, arrives at 60+60+1000.
        let a2 = link.inject(t0, 100, &p);
        assert_eq!(a2.as_nanos(), 1120.0);
    }

    #[test]
    fn link_idle_gap_does_not_accumulate() {
        let p = params();
        let mut link = LinkState::new();
        let a1 = link.inject(VTime::from_nanos(0.0), 0, &p);
        assert_eq!(a1.as_nanos(), 1050.0);
        // A much later message is not delayed by the long-idle link.
        let a2 = link.inject(VTime::from_nanos(10_000.0), 0, &p);
        assert_eq!(a2.as_nanos(), 11_050.0);
    }

    #[test]
    fn bandwidth_asymptote_is_one_over_g() {
        let p = params();
        let mut link = LinkState::new();
        let n = 1 << 20; // 1 MiB
        let mut t = VTime::ZERO;
        let iters = 16;
        let mut last_arrival = VTime::ZERO;
        for _ in 0..iters {
            t += p.o_send(); // sender CPU
            last_arrival = link.inject(t, n, &p);
        }
        let total = last_arrival.as_nanos();
        let bytes = (iters * n) as f64;
        let gbs = bytes / total; // bytes per ns == GB/s
        let model = 1.0 / p.gap_per_byte_ns;
        // Within 5% of the asymptote for 16 MiB of traffic.
        assert!(
            (gbs - model).abs() / model < 0.05,
            "gbs={gbs} model={model}"
        );
    }
}
