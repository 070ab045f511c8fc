//! Library profiles: the tunable performance models of the two native MPI
//! libraries the paper evaluates.
//!
//! The paper attributes its headline collective gaps "largely to the
//! performance differences of the native libraries". A profile captures
//! those differences as (a) LogGP parameters per path (shared-memory vs.
//! network), (b) protocol thresholds, and (c) collective algorithm
//! selection and software overheads. `Profile::mvapich2()` and
//! `Profile::openmpi_ucx()` are calibrated against the published curves —
//! see `EXPERIMENTS.md` for the resulting paper-vs-measured comparison.

use vtime::{LogGp, VDur};

/// Per-path (shm or network) transport parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathParams {
    /// Timing of the wire/copy pipe.
    pub loggp: LogGp,
    /// Largest payload sent eagerly; above this the rendezvous protocol
    /// is used.
    pub eager_threshold: usize,
    /// Sender CPU cost per byte to stage an eager payload into the bounce
    /// buffer.
    pub eager_copy_per_byte_ns: f64,
    /// Receiver CPU cost per byte to copy an eager payload out of the
    /// bounce buffer.
    pub recv_copy_per_byte_ns: f64,
    /// Additional per-byte cost when the eager payload took the
    /// unexpected-message path (staged once more).
    pub unexpected_extra_per_byte_ns: f64,
    /// Receiver-side cost to turn an RTS into a CTS.
    pub cts_handling_ns: f64,
    /// Wire header added to every message for serialization timing.
    pub header_bytes: usize,
    /// Largest one-sided payload sent through the pre-registered eager
    /// (copy-based) RDMA-write path; above this the payload moves
    /// zero-copy from registered user memory (rendezvous crossover).
    pub rma_eager_threshold: usize,
    /// Base cost of registering (pinning) a memory region with the NIC on
    /// a registration-cache miss.
    pub rma_reg_base_ns: f64,
    /// Per-byte cost of registering a memory region.
    pub rma_reg_per_byte_ns: f64,
}

impl PathParams {
    /// Sender staging cost for an `n`-byte eager payload.
    #[inline]
    pub fn eager_copy(&self, n: usize) -> VDur {
        VDur::from_nanos(n as f64 * self.eager_copy_per_byte_ns)
    }

    /// Receiver copy-out cost for an `n`-byte eager payload.
    #[inline]
    pub fn recv_copy(&self, n: usize) -> VDur {
        VDur::from_nanos(n as f64 * self.recv_copy_per_byte_ns)
    }

    /// Extra cost for consuming an unexpected `n`-byte eager payload.
    #[inline]
    pub fn unexpected_extra(&self, n: usize) -> VDur {
        VDur::from_nanos(n as f64 * self.unexpected_extra_per_byte_ns)
    }

    /// NIC registration (pinning) cost for an `n`-byte region — paid on a
    /// registration-cache miss before a zero-copy one-sided transfer.
    #[inline]
    pub fn rma_reg(&self, n: usize) -> VDur {
        VDur::from_nanos(self.rma_reg_base_ns + n as f64 * self.rma_reg_per_byte_ns)
    }
}

/// Collective algorithm tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollTuning {
    /// Use topology-aware two-level algorithms (node leaders over the
    /// network + shared-memory stages). MVAPICH2's signature strength.
    pub hierarchical: bool,
    /// Largest payload handled by the two-level algorithms; above this
    /// the library falls back to flat bandwidth-optimal algorithms.
    pub two_level_max: usize,
    /// Within the two-level allreduce, payloads ≤ this use the simple
    /// leader fan-in; larger payloads use the cooperative intra-node
    /// ring reduce-scatter (serialized fan-in does not scale to megabyte
    /// vectors).
    pub two_level_fanin_max: usize,
    /// Bcast: payloads ≤ this use the binomial tree; larger payloads use
    /// scatter + allgather (hierarchical) or a segmented binomial tree
    /// (flat).
    pub bcast_binomial_max: usize,
    /// Segment size of the flat segmented-binomial bcast.
    pub bcast_segment: usize,
    /// Allreduce: payloads ≤ this use recursive doubling; larger use
    /// Rabenseifner (reduce-scatter + allgather) or — if
    /// `allreduce_ring_above_rd` — a ring, Open MPI's large-message
    /// default with its long per-step critical path.
    pub allreduce_rd_max: usize,
    /// Use the ring allreduce above `allreduce_rd_max` (Open MPI tuned
    /// behaviour) instead of Rabenseifner.
    pub allreduce_ring_above_rd: bool,
    /// Extra per-hop software overhead specific to broadcast (models the
    /// segmented splitted-binary scheduling of Open MPI's tuned module,
    /// the main ingredient of the paper's 6.2x gap).
    pub bcast_perhop_extra_ns: f64,
    /// Extra per-hop software overhead specific to allreduce.
    pub allreduce_perhop_extra_ns: f64,
    /// Fixed software overhead charged per collective call (decision
    /// logic, argument checking) on every rank.
    pub percall_ns: f64,
    /// Extra software overhead charged per tree/ring hop (progression,
    /// scheduling) on the sending side of each internal message.
    pub perhop_ns: f64,
}

/// A native MPI library performance model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Profile {
    /// Human-readable library name (figure labels).
    pub name: &'static str,
    /// Intra-node (shared-memory) path.
    pub shm: PathParams,
    /// Inter-node (network) path.
    pub net: PathParams,
    /// Collective tuning.
    pub coll: CollTuning,
    /// Reduction compute cost per byte of operand combined.
    pub reduce_per_byte_ns: f64,
    /// Native pack/unpack cost per byte for non-contiguous datatypes.
    pub pack_per_byte_ns: f64,
}

impl Profile {
    /// The path used between this rank and `local` (same-node) peers.
    #[inline]
    pub fn path(&self, local: bool) -> &PathParams {
        if local {
            &self.shm
        } else {
            &self.net
        }
    }

    /// MVAPICH2-X 2.3.6-like model: very fast shared-memory path, tuned
    /// hierarchical collectives, RDMA network path.
    pub fn mvapich2() -> Profile {
        Profile {
            name: "MVAPICH2",
            shm: PathParams {
                loggp: LogGp {
                    latency_ns: 80.0,
                    o_send_ns: 45.0,
                    o_recv_ns: 45.0,
                    gap_msg_ns: 20.0,
                    // Single-copy (CMA/kernel-assisted) streaming:
                    // ~18 GB/s effective.
                    gap_per_byte_ns: 0.055,
                },
                eager_threshold: 8 * 1024,
                eager_copy_per_byte_ns: 0.030,
                recv_copy_per_byte_ns: 0.030,
                unexpected_extra_per_byte_ns: 0.030,
                cts_handling_ns: 80.0,
                header_bytes: 48,
                rma_eager_threshold: 8 * 1024,
                // CMA-backed shm "registration" is cheap (VMA bookkeeping).
                rma_reg_base_ns: 6_000.0,
                rma_reg_per_byte_ns: 0.008,
            },
            net: PathParams {
                loggp: LogGp {
                    latency_ns: 850.0,
                    o_send_ns: 140.0,
                    o_recv_ns: 140.0,
                    gap_msg_ns: 40.0,
                    // HDR-100 InfiniBand: ~12.2 GB/s.
                    gap_per_byte_ns: 0.082,
                },
                eager_threshold: 16 * 1024,
                eager_copy_per_byte_ns: 0.030,
                recv_copy_per_byte_ns: 0.030,
                unexpected_extra_per_byte_ns: 0.030,
                cts_handling_ns: 120.0,
                header_bytes: 64,
                rma_eager_threshold: 16 * 1024,
                // ibv_reg_mr: page pinning plus HCA translation update.
                rma_reg_base_ns: 25_000.0,
                rma_reg_per_byte_ns: 0.010,
            },
            coll: CollTuning {
                hierarchical: true,
                two_level_max: usize::MAX,
                two_level_fanin_max: 2 * 1024,
                bcast_binomial_max: 16 * 1024,
                bcast_segment: 128 * 1024,
                allreduce_rd_max: 16 * 1024,
                allreduce_ring_above_rd: false,
                bcast_perhop_extra_ns: 0.0,
                allreduce_perhop_extra_ns: 0.0,
                percall_ns: 150.0,
                perhop_ns: 30.0,
            },
            reduce_per_byte_ns: 0.045,
            pack_per_byte_ns: 0.030,
        }
    }

    /// Open MPI 4.1.2 + UCX 1.13-like model: comparable network path,
    /// noticeably slower small-message shared-memory path, flat
    /// (topology-unaware) collective defaults with heavier decision
    /// overhead — the combination behind Figures 5, 14–17.
    pub fn openmpi_ucx() -> Profile {
        Profile {
            name: "Open MPI",
            shm: PathParams {
                loggp: LogGp {
                    latency_ns: 420.0,
                    o_send_ns: 230.0,
                    o_recv_ns: 230.0,
                    gap_msg_ns: 60.0,
                    gap_per_byte_ns: 0.105,
                },
                eager_threshold: 4 * 1024,
                eager_copy_per_byte_ns: 0.034,
                recv_copy_per_byte_ns: 0.034,
                unexpected_extra_per_byte_ns: 0.034,
                cts_handling_ns: 150.0,
                header_bytes: 64,
                rma_eager_threshold: 4 * 1024,
                rma_reg_base_ns: 8_000.0,
                rma_reg_per_byte_ns: 0.009,
            },
            net: PathParams {
                loggp: LogGp {
                    latency_ns: 870.0,
                    o_send_ns: 150.0,
                    o_recv_ns: 150.0,
                    gap_msg_ns: 45.0,
                    // UCX squeezes slightly more large-message bandwidth
                    // out of the same HCA (Figure 13).
                    gap_per_byte_ns: 0.079,
                },
                eager_threshold: 8 * 1024,
                eager_copy_per_byte_ns: 0.032,
                recv_copy_per_byte_ns: 0.032,
                unexpected_extra_per_byte_ns: 0.032,
                cts_handling_ns: 140.0,
                header_bytes: 64,
                rma_eager_threshold: 8 * 1024,
                rma_reg_base_ns: 30_000.0,
                rma_reg_per_byte_ns: 0.012,
            },
            coll: CollTuning {
                hierarchical: false,
                two_level_max: 0,
                two_level_fanin_max: 0,
                bcast_binomial_max: 8 * 1024,
                bcast_segment: 8 * 1024,
                // Open MPI's tuned module keeps recursive doubling far
                // longer before switching, then rings.
                allreduce_rd_max: 64 * 1024,
                allreduce_ring_above_rd: true,
                bcast_perhop_extra_ns: 1_400.0,
                allreduce_perhop_extra_ns: 900.0,
                percall_ns: 1_400.0,
                perhop_ns: 260.0,
            },
            reduce_per_byte_ns: 0.065,
            pack_per_byte_ns: 0.032,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mvapich_shm_beats_openmpi_shm_small() {
        // The native basis of Figure 5.
        let mv = Profile::mvapich2();
        let om = Profile::openmpi_ucx();
        let mv_lat = mv.shm.loggp.unloaded(8).as_nanos() + mv.shm.loggp.o_recv_ns;
        let om_lat = om.shm.loggp.unloaded(8).as_nanos() + om.shm.loggp.o_recv_ns;
        assert!(
            om_lat / mv_lat > 3.0,
            "native shm gap drives the 2.46x Java-level gap: {om_lat}/{mv_lat}"
        );
    }

    #[test]
    fn network_paths_are_comparable() {
        // The native basis of Figures 9/10: inter-node pt2pt similar.
        let mv = Profile::mvapich2();
        let om = Profile::openmpi_ucx();
        let mv_lat = mv.net.loggp.unloaded(8).as_nanos();
        let om_lat = om.net.loggp.unloaded(8).as_nanos();
        let ratio = om_lat / mv_lat;
        assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn openmpi_has_better_large_message_network_bandwidth() {
        // Figure 13: MVAPICH2-J buffer slightly lags Open MPI-J buffer.
        let mv = Profile::mvapich2();
        let om = Profile::openmpi_ucx();
        assert!(om.net.loggp.gap_per_byte_ns < mv.net.loggp.gap_per_byte_ns);
    }

    #[test]
    fn path_selector() {
        let p = Profile::mvapich2();
        assert_eq!(p.path(true), &p.shm);
        assert_eq!(p.path(false), &p.net);
    }

    #[test]
    fn collective_tuning_reflects_design() {
        assert!(Profile::mvapich2().coll.hierarchical);
        assert!(!Profile::openmpi_ucx().coll.hierarchical);
        assert!(Profile::openmpi_ucx().coll.percall_ns > Profile::mvapich2().coll.percall_ns);
    }

    #[test]
    fn helper_costs_scale() {
        let p = Profile::mvapich2();
        assert_eq!(p.shm.eager_copy(0), VDur::ZERO);
        assert!(p.shm.eager_copy(1000) > p.shm.eager_copy(100));
    }
}
