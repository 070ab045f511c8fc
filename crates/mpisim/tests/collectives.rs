//! Cross-algorithm correctness tests for the collective operations: every
//! profile (and therefore every algorithm family) must produce the same
//! results as a sequential reference, across communicator sizes that hit
//! power-of-two and non-power-of-two paths, and payload sizes that hit
//! the small/large algorithm switchovers.

use mpisim::datatype::{DOUBLE, INT};
use mpisim::{run_mpi, BasicType, Datatype, Mpi, MpiError, MpiResult, Profile, ReduceOp};
use simfabric::{EngineMode, Topology};

fn ints(v: &[i32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn to_ints(b: &[u8]) -> Vec<i32> {
    b.chunks_exact(4)
        .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

fn doubles(v: &[f64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn to_doubles(b: &[u8]) -> Vec<f64> {
    b.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

fn profiles() -> [Profile; 2] {
    [Profile::mvapich2(), Profile::openmpi_ucx()]
}

/// Topologies covering single-node, multi-node, and non-power-of-two
/// shapes (both with and without full nodes).
fn topologies() -> Vec<Topology> {
    vec![
        Topology::new(1, 2),
        Topology::new(1, 5),
        Topology::new(2, 2),
        Topology::new(2, 3),
        Topology::new(3, 4),
        Topology::new(4, 4),
    ]
}

#[test]
fn bcast_matches_reference_all_profiles() {
    for profile in profiles() {
        for topo in topologies() {
            // Cover binomial (small), scatter-allgather / chain (large),
            // and two-level paths.
            for count in [1usize, 7, 64, 3000, 20000] {
                for root in [0usize, topo.size() - 1] {
                    let want: Vec<i32> = (0..count as i32).map(|i| i * 3 + 1).collect();
                    let want2 = want.clone();
                    let res = run_mpi(topo, profile, move |mpi| {
                        let w = mpi.world();
                        let me = mpi.rank(w).unwrap();
                        let mut buf = if me == root {
                            ints(&want2)
                        } else {
                            vec![0u8; 4 * count]
                        };
                        mpi.bcast(&mut buf, count as i32, &INT, root, w).unwrap();
                        to_ints(&buf)
                    });
                    for (r, got) in res.iter().enumerate() {
                        assert_eq!(
                            got,
                            &want,
                            "bcast {} nodes={} ppn={} count={count} root={root} rank={r}",
                            profile.name,
                            topo.nodes(),
                            topo.ppn()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn allreduce_sum_matches_reference_all_profiles() {
    for profile in profiles() {
        for topo in topologies() {
            let p = topo.size() as i32;
            // Cover recursive doubling (small) and Rabenseifner (large).
            for count in [1usize, 13, 4096, 40000] {
                let res = run_mpi(topo, profile, move |mpi| {
                    let w = mpi.world();
                    let me = mpi.rank(w).unwrap() as i32;
                    let mine: Vec<i32> = (0..count as i32).map(|i| me * 1000 + i).collect();
                    let send = ints(&mine);
                    let mut recv = vec![0u8; 4 * count];
                    mpi.allreduce(&send, &mut recv, count as i32, &INT, ReduceOp::Sum, w)
                        .unwrap();
                    to_ints(&recv)
                });
                let want: Vec<i32> = (0..count as i32)
                    .map(|i| (0..p).map(|r| r * 1000 + i).sum())
                    .collect();
                for (r, got) in res.iter().enumerate() {
                    assert_eq!(
                        got,
                        &want,
                        "allreduce {} nodes={} ppn={} count={count} rank={r}",
                        profile.name,
                        topo.nodes(),
                        topo.ppn()
                    );
                }
            }
        }
    }
}

#[test]
fn allreduce_all_ops_small_cluster() {
    let ops = [
        ReduceOp::Sum,
        ReduceOp::Prod,
        ReduceOp::Min,
        ReduceOp::Max,
        ReduceOp::Band,
        ReduceOp::Bor,
        ReduceOp::Bxor,
        ReduceOp::Land,
        ReduceOp::Lor,
    ];
    let topo = Topology::new(2, 3);
    let p = topo.size();
    for op in ops {
        let res = run_mpi(topo, Profile::mvapich2(), move |mpi| {
            let w = mpi.world();
            let me = mpi.rank(w).unwrap() as i32;
            let mine = [me + 1, me % 2, 7 - me];
            let send = ints(&mine);
            let mut recv = vec![0u8; 12];
            mpi.allreduce(&send, &mut recv, 3, &INT, op, w).unwrap();
            to_ints(&recv)
        });
        // Sequential reference.
        let inputs: Vec<[i32; 3]> = (0..p as i32).map(|me| [me + 1, me % 2, 7 - me]).collect();
        let mut want = inputs[0].to_vec();
        for inp in &inputs[1..] {
            for (a, &b) in want.iter_mut().zip(inp.iter()) {
                *a = match op {
                    ReduceOp::Sum => a.wrapping_add(b),
                    ReduceOp::Prod => a.wrapping_mul(b),
                    ReduceOp::Min => (*a).min(b),
                    ReduceOp::Max => (*a).max(b),
                    ReduceOp::Band => *a & b,
                    ReduceOp::Bor => *a | b,
                    ReduceOp::Bxor => *a ^ b,
                    ReduceOp::Land => ((*a != 0) && (b != 0)) as i32,
                    ReduceOp::Lor => ((*a != 0) || (b != 0)) as i32,
                };
            }
        }
        for got in &res {
            assert_eq!(got, &want, "op {:?}", op);
        }
    }
}

#[test]
fn reduce_doubles_to_root() {
    for profile in profiles() {
        let topo = Topology::new(2, 4);
        let p = topo.size();
        let res = run_mpi(topo, profile, move |mpi| {
            let w = mpi.world();
            let me = mpi.rank(w).unwrap();
            let mine = [me as f64, 0.5];
            let send = doubles(&mine);
            let mut recv = vec![0u8; 16];
            let out = (me == 2).then_some(&mut recv[..]);
            mpi.reduce(&send, out, 2, &DOUBLE, ReduceOp::Sum, 2, w)
                .unwrap();
            (me == 2).then(|| to_doubles(&recv))
        });
        let got = res[2].clone().unwrap();
        let n = p as f64;
        assert!((got[0] - n * (n - 1.0) / 2.0).abs() < 1e-9);
        assert!((got[1] - 0.5 * n).abs() < 1e-9);
    }
}

#[test]
fn allgather_assembles_rank_order() {
    for profile in profiles() {
        for topo in [Topology::new(1, 4), Topology::new(2, 3)] {
            let p = topo.size();
            let res = run_mpi(topo, profile, move |mpi| {
                let w = mpi.world();
                let me = mpi.rank(w).unwrap() as i32;
                let send = ints(&[me, -me]);
                let mut recv = vec![0u8; 8 * p];
                mpi.allgather(&send, &mut recv, 2, &INT, w).unwrap();
                to_ints(&recv)
            });
            let want: Vec<i32> = (0..p as i32).flat_map(|r| [r, -r]).collect();
            for got in &res {
                assert_eq!(got, &want);
            }
        }
    }
}

#[test]
fn allgatherv_uneven_blocks() {
    let topo = Topology::new(2, 2);
    let res = run_mpi(topo, Profile::openmpi_ucx(), |mpi| {
        let w = mpi.world();
        let me = mpi.rank(w).unwrap();
        let mine: Vec<i32> = (0..=me as i32).collect(); // me+1 elements
        let send = ints(&mine);
        let recvcounts = [1i32, 2, 3, 4];
        let displs = [0i32, 1, 3, 6];
        let mut recv = vec![0u8; 40];
        mpi.allgatherv(
            &send,
            me as i32 + 1,
            &mut recv,
            &recvcounts,
            &displs,
            &INT,
            w,
        )
        .unwrap();
        to_ints(&recv)
    });
    let want = vec![0, 0, 1, 0, 1, 2, 0, 1, 2, 3];
    for got in &res {
        assert_eq!(got, &want);
    }
}

#[test]
fn alltoall_transposes_blocks() {
    for topo in [Topology::new(1, 3), Topology::new(2, 2)] {
        let p = topo.size();
        let res = run_mpi(topo, Profile::mvapich2(), move |mpi| {
            let w = mpi.world();
            let me = mpi.rank(w).unwrap() as i32;
            // Block for destination d: [me*100 + d].
            let send: Vec<i32> = (0..p as i32).map(|d| me * 100 + d).collect();
            let mut recv = vec![0u8; 4 * p];
            mpi.alltoall(&ints(&send), &mut recv, 1, &INT, w).unwrap();
            to_ints(&recv)
        });
        for (r, got) in res.iter().enumerate() {
            let want: Vec<i32> = (0..p as i32).map(|s| s * 100 + r as i32).collect();
            assert_eq!(got, &want);
        }
    }
}

#[test]
fn alltoallv_irregular() {
    let topo = Topology::new(1, 3);
    // Rank r sends r+1 copies of (100*r + d) to each destination d.
    let res = run_mpi(topo, Profile::openmpi_ucx(), |mpi| {
        let w = mpi.world();
        let me = mpi.rank(w).unwrap() as i32;
        let p = 3i32;
        let cnt = me + 1;
        let mut send = Vec::new();
        for d in 0..p {
            for _ in 0..cnt {
                send.push(100 * me + d);
            }
        }
        let sendcounts = [cnt; 3];
        let sdispls = [0, cnt, 2 * cnt];
        let recvcounts = [1i32, 2, 3];
        let rdispls = [0i32, 1, 3];
        let mut recv = vec![0u8; 4 * 6];
        mpi.alltoallv(
            &ints(&send),
            &sendcounts,
            &sdispls,
            &mut recv,
            &recvcounts,
            &rdispls,
            &INT,
            w,
        )
        .unwrap();
        to_ints(&recv)
    });
    // Rank r receives from s: (s+1) copies of 100*s + r.
    for (r, got) in res.iter().enumerate() {
        let mut want = Vec::new();
        for s in 0..3i32 {
            for _ in 0..=s {
                want.push(100 * s + r as i32);
            }
        }
        assert_eq!(got, &want, "rank {r}");
    }
}

#[test]
fn barrier_roughly_aligns_clocks() {
    let topo = Topology::new(2, 4);
    let times = run_mpi(topo, Profile::mvapich2(), |mpi| {
        let w = mpi.world();
        let me = mpi.rank(w).unwrap();
        // Skew the ranks heavily before the barrier.
        mpi.clock_mut()
            .charge(vtime::VDur::from_micros(me as f64 * 50.0));
        mpi.barrier(w).unwrap();
        mpi.now().as_micros()
    });
    let slowest_entry = 7.0 * 50.0;
    for t in &times {
        assert!(
            *t >= slowest_entry,
            "no rank may leave the barrier before the slowest entered (t={t})"
        );
        assert!(
            *t < slowest_entry + 100.0,
            "barrier overhead is bounded (t={t})"
        );
    }
}

#[test]
fn bcast_with_vector_datatype() {
    // Derived-datatype broadcast: a strided column.
    let vec_dt = Datatype::vector(4, 1, 3, Datatype::Basic(BasicType::Int)).unwrap();
    let ext_ints = 10; // ((4-1)*3 + 1) = 10 ints per element
    let res = run_mpi(Topology::new(2, 2), Profile::mvapich2(), move |mpi| {
        let w = mpi.world();
        let me = mpi.rank(w).unwrap();
        let mut region = vec![-1i32; ext_ints];
        if me == 0 {
            for k in 0..4 {
                region[k * 3] = (k as i32 + 1) * 11;
            }
        }
        let mut buf = ints(&region);
        mpi.bcast(&mut buf, 1, &vec_dt, 0, w).unwrap();
        to_ints(&buf)
    });
    for (r, got) in res.iter().enumerate() {
        for k in 0..4 {
            assert_eq!(got[k * 3], (k as i32 + 1) * 11, "rank {r} stride slot {k}");
        }
        if r != 0 {
            // Gaps must be untouched on receivers.
            assert_eq!(got[1], -1);
            assert_eq!(got[2], -1);
        }
    }
}

#[test]
fn collectives_are_deterministic() {
    let run = || {
        run_mpi(Topology::new(2, 4), Profile::mvapich2(), |mpi| {
            let w = mpi.world();
            let me = mpi.rank(w).unwrap() as i32;
            let send = ints(&vec![me; 2048]);
            let mut recv = vec![0u8; 4 * 2048];
            mpi.allreduce(&send, &mut recv, 2048, &INT, ReduceOp::Sum, w)
                .unwrap();
            let mut b = ints(&vec![me; 512]);
            mpi.bcast(&mut b, 512, &INT, 0, w).unwrap();
            mpi.barrier(w).unwrap();
            mpi.now().as_nanos()
        })
    };
    assert_eq!(run(), run(), "collective timing must be bit-deterministic");
}

#[test]
fn hierarchical_collectives_beat_flat_on_multinode() {
    // The structural property behind Figures 14-17: with everything else
    // equal, the MVAPICH2 profile's collectives finish faster on a
    // 4x16 cluster.
    let topo = Topology::new(4, 8); // 32 ranks (test-sized)
    let time_for = |profile: Profile| {
        let times = run_mpi(topo, profile, move |mpi| {
            let w = mpi.world();
            let me = mpi.rank(w).unwrap() as i32;
            mpi.barrier(w).unwrap();
            let t0 = mpi.now();
            for _ in 0..5 {
                let send = ints(&vec![me; 256]);
                let mut recv = vec![0u8; 4 * 256];
                mpi.allreduce(&send, &mut recv, 256, &INT, ReduceOp::Sum, w)
                    .unwrap();
            }
            (mpi.now() - t0).as_nanos()
        });
        times.iter().copied().fold(0.0f64, f64::max)
    };
    let mv = time_for(Profile::mvapich2());
    let om = time_for(Profile::openmpi_ucx());
    assert!(
        om > 1.3 * mv,
        "Open MPI profile should be clearly slower on multi-node allreduce: mv={mv} om={om}"
    );
}

/// Gap ints of a strided buffer: no collective may read or write them.
const GAP: i32 = -7;
/// Data ints of a receive buffer before the collective writes them.
const FILL: i32 = -1;
/// Root of the rooted collectives below (not 0, so vranks matter).
const ROOT: usize = 1;

/// Two layouts of the same logical elements, a pair of ints each:
/// dense, or strided with a gap int inside every element.
#[derive(Clone, Copy, Debug)]
enum Layout {
    Dense,
    Strided,
}

impl Layout {
    fn dt(self) -> Datatype {
        match self {
            Layout::Dense => Datatype::contiguous(2, INT),
            Layout::Strided => Datatype::vector(2, 1, 2, INT).unwrap(),
        }
    }

    /// `vals` (two per element) laid out in this layout.
    fn buf(self, vals: &[i32]) -> Vec<u8> {
        match self {
            Layout::Dense => ints(vals),
            Layout::Strided => {
                let laid: Vec<i32> = vals.chunks(2).flat_map(|e| [e[0], GAP, e[1]]).collect();
                ints(&laid)
            }
        }
    }

    /// The logical values of `buf`, and whether every gap still holds
    /// [`GAP`].
    fn read(self, buf: &[u8]) -> (Vec<i32>, bool) {
        let all = to_ints(buf);
        match self {
            Layout::Dense => (all, true),
            Layout::Strided => (
                all.chunks(3).flat_map(|e| [e[0], e[2]]).collect(),
                all.chunks(3).all(|e| e[1] == GAP),
            ),
        }
    }

    /// `elems` elements of rank `r`'s distinct values.
    fn mine(self, r: usize, elems: usize) -> Vec<u8> {
        let vals: Vec<i32> = (0..2 * elems).map(|i| (r * 100_000 + i) as i32).collect();
        self.buf(&vals)
    }

    /// `elems` elements of [`FILL`].
    fn blank(self, elems: usize) -> Vec<u8> {
        self.buf(&vec![FILL; 2 * elems])
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Coll {
    Bcast,
    Reduce,
    Allreduce,
    Gather,
    Gatherv,
    Scatter,
    Scatterv,
    Allgather,
    Allgatherv,
    Alltoall,
    Alltoallv,
}

impl Coll {
    const ALL: [Coll; 11] = [
        Coll::Bcast,
        Coll::Reduce,
        Coll::Allreduce,
        Coll::Gather,
        Coll::Gatherv,
        Coll::Scatter,
        Coll::Scatterv,
        Coll::Allgather,
        Coll::Allgatherv,
        Coll::Alltoall,
        Coll::Alltoallv,
    ];

    /// Whether rank `r` receives a result.
    fn receives(self, r: usize) -> bool {
        !matches!(self, Coll::Reduce | Coll::Gather | Coll::Gatherv) || r == ROOT
    }
}

/// Element displacements of back-to-back blocks of `counts` elements.
fn displs(counts: &[i32]) -> Vec<i32> {
    counts
        .iter()
        .scan(0, |at, &c| {
            let d = *at;
            *at += c;
            Some(d)
        })
        .collect()
}

fn total(counts: &[i32]) -> usize {
    counts.iter().sum::<i32>() as usize
}

/// Run `coll` over `n`-element blocks in layout `l` and return this
/// rank's receive buffer (the broadcast buffer for bcast). Vectored
/// blocks hold `n + r` elements for rank `r`; alltoallv sends `n + (i +
/// j) % 3` elements from rank `i` to rank `j`.
fn run_coll(mpi: &mut Mpi, coll: Coll, l: Layout, n: usize) -> Vec<u8> {
    let w = mpi.world();
    let me = mpi.rank(w).unwrap();
    let p = mpi.size(w).unwrap();
    let dt = l.dt();
    let vc: Vec<i32> = (0..p).map(|r| (n + r) as i32).collect();
    let vd = displs(&vc);
    let at_root = me == ROOT;
    let c = n as i32;
    let mut recv;
    match coll {
        Coll::Bcast => {
            recv = if me == ROOT {
                l.mine(me, n)
            } else {
                l.blank(n)
            };
            mpi.bcast(&mut recv, c, &dt, ROOT, w).unwrap();
        }
        Coll::Reduce => {
            recv = l.blank(n);
            let send = l.mine(me, n);
            mpi.reduce(
                &send,
                at_root.then_some(&mut recv[..]),
                c,
                &dt,
                ReduceOp::Sum,
                ROOT,
                w,
            )
            .unwrap();
        }
        Coll::Allreduce => {
            recv = l.blank(n);
            let send = l.mine(me, n);
            mpi.allreduce(&send, &mut recv, c, &dt, ReduceOp::Sum, w)
                .unwrap();
        }
        Coll::Gather => {
            recv = l.blank(n * p);
            let send = l.mine(me, n);
            mpi.gather(&send, at_root.then_some(&mut recv[..]), c, &dt, ROOT, w)
                .unwrap();
        }
        Coll::Gatherv => {
            recv = l.blank(total(&vc));
            let send = l.mine(me, vc[me] as usize);
            mpi.gatherv(
                &send,
                vc[me],
                at_root.then_some(&mut recv[..]),
                &vc,
                &vd,
                &dt,
                ROOT,
                w,
            )
            .unwrap();
        }
        Coll::Scatter => {
            recv = l.blank(n);
            let send = l.mine(me, n * p);
            let src = (me == ROOT).then_some(&send[..]);
            mpi.scatter(src, &mut recv, c, &dt, ROOT, w).unwrap();
        }
        Coll::Scatterv => {
            recv = l.blank(vc[me] as usize);
            let send = l.mine(me, total(&vc));
            let src = (me == ROOT).then_some(&send[..]);
            mpi.scatterv(src, &vc, &vd, &mut recv, vc[me], &dt, ROOT, w)
                .unwrap();
        }
        Coll::Allgather => {
            recv = l.blank(n * p);
            let send = l.mine(me, n);
            mpi.allgather(&send, &mut recv, c, &dt, w).unwrap();
        }
        Coll::Allgatherv => {
            recv = l.blank(total(&vc));
            let send = l.mine(me, vc[me] as usize);
            mpi.allgatherv(&send, vc[me], &mut recv, &vc, &vd, &dt, w)
                .unwrap();
        }
        Coll::Alltoall => {
            recv = l.blank(n * p);
            let send = l.mine(me, n * p);
            mpi.alltoall(&send, &mut recv, c, &dt, w).unwrap();
        }
        Coll::Alltoallv => {
            let cnt = |i: usize, j: usize| (n + (i + j) % 3) as i32;
            let sc: Vec<i32> = (0..p).map(|j| cnt(me, j)).collect();
            let rc: Vec<i32> = (0..p).map(|j| cnt(j, me)).collect();
            recv = l.blank(total(&rc));
            let send = l.mine(me, total(&sc));
            mpi.alltoallv(
                &send,
                &sc,
                &displs(&sc),
                &mut recv,
                &rc,
                &displs(&rc),
                &dt,
                w,
            )
            .unwrap();
        }
    }
    recv
}

#[test]
fn every_blocking_collective_moves_a_strided_layout_like_a_dense_one() {
    // Multi-node and not a power of two: two-level and folded paths on
    // the MVAPICH2 profile, flat ones on Open MPI. 9000 elements (72 KB
    // packed) take every large-message algorithm.
    let topo = Topology::new(2, 3);
    for profile in profiles() {
        for coll in Coll::ALL {
            for n in [2usize, 9000] {
                let run = |l: Layout| run_mpi(topo, profile, move |mpi| run_coll(mpi, coll, l, n));
                let dense = run(Layout::Dense);
                let strided = run(Layout::Strided);
                for (r, (d, s)) in dense.iter().zip(&strided).enumerate() {
                    let what = format!("{coll:?} {} n={n} rank {r}", profile.name);
                    let (want, _) = Layout::Dense.read(d);
                    let (got, gaps_untouched) = Layout::Strided.read(s);
                    if coll.receives(r) {
                        assert!(!want.contains(&FILL), "{what}: dense result incomplete");
                    }
                    assert_eq!(got, want, "{what}");
                    assert!(gaps_untouched, "{what}: a gap byte was written");
                }
            }
        }
    }
}

/// Rank `short`'s receive buffer of `elems` elements loses its last
/// byte; every other rank's is whole.
fn recv_buf(l: Layout, me: usize, short: usize, elems: usize) -> Vec<u8> {
    let mut b = l.blank(elems);
    if me == short {
        b.pop();
    }
    b
}

#[test]
fn short_receive_buffers_fail_with_the_same_error_after_taking_part() {
    let n = 3usize;
    for profile in profiles() {
        for l in [Layout::Dense, Layout::Strided] {
            let dt = l.dt();
            // Equal-block collectives, short in the last block: the error
            // names the block's end. On two ranks, rank 0 unpacks the
            // peer's block last, so its peer is never left waiting.
            for coll in [Coll::Allgather, Coll::Alltoall] {
                let res = run_mpi(Topology::new(1, 2), profile, move |mpi| {
                    let w = mpi.world();
                    let me = mpi.rank(w).unwrap();
                    let dt = l.dt();
                    let mut recv = recv_buf(l, me, 0, 2 * n);
                    if coll == Coll::Allgather {
                        mpi.allgather(&l.mine(me, n), &mut recv, n as i32, &dt, w)
                    } else {
                        mpi.alltoall(&l.mine(me, 2 * n), &mut recv, n as i32, &dt, w)
                    }
                });
                let needed = n * dt.extent() + dt.span(n);
                let want = MpiError::BufferTooSmall {
                    needed,
                    available: needed - 1,
                };
                assert_eq!(res, [Err(want), Ok(())], "{coll:?} {l:?} {}", profile.name);
            }
            // Gather: the root unpacks after every block has arrived.
            let p = 3;
            let res = run_mpi(Topology::new(1, p), profile, move |mpi| {
                let w = mpi.world();
                let me = mpi.rank(w).unwrap();
                let mut recv = recv_buf(l, me, ROOT, n * p);
                let out = (me == ROOT).then_some(&mut recv[..]);
                mpi.gather(&l.mine(me, n), out, n as i32, &l.dt(), ROOT, w)
            });
            let needed = (p - 1) * n * dt.extent() + dt.span(n);
            let want = MpiError::BufferTooSmall {
                needed,
                available: needed - 1,
            };
            assert_eq!(res[ROOT], Err(want), "gather {l:?} {}", profile.name);
            assert!(res.iter().enumerate().all(|(r, x)| r == ROOT || x.is_ok()));

            // Bcast and allreduce: rank 2 (a node leader forwarding to
            // rank 3) takes its full part, then fails on its own buffer.
            for m in [n, 9000] {
                let needed = dt.span(m);
                let want = MpiError::BufferTooSmall {
                    needed,
                    available: needed - 1,
                };
                let topo = Topology::new(2, 2);
                let bcast = run_mpi(topo, profile, move |mpi| -> MpiResult<Vec<u8>> {
                    let w = mpi.world();
                    let me = mpi.rank(w).unwrap();
                    let mut buf = if me == 0 {
                        l.mine(0, m)
                    } else {
                        recv_buf(l, me, 2, m)
                    };
                    mpi.bcast(&mut buf, m as i32, &l.dt(), 0, w).map(|_| buf)
                });
                let allreduce = run_mpi(topo, profile, move |mpi| -> MpiResult<Vec<u8>> {
                    let w = mpi.world();
                    let me = mpi.rank(w).unwrap();
                    let mut recv = recv_buf(l, me, 2, m);
                    mpi.allreduce(
                        &l.mine(me, m),
                        &mut recv,
                        m as i32,
                        &l.dt(),
                        ReduceOp::Sum,
                        w,
                    )
                    .map(|_| recv)
                });
                let sums: Vec<i32> = (0..2 * m)
                    .map(|i| (0..4).map(|r| (r * 100_000 + i) as i32).sum())
                    .collect();
                let (root_vals, _) = l.read(&l.mine(0, m));
                for (name, res, want_vals) in
                    [("bcast", bcast, root_vals), ("allreduce", allreduce, sums)]
                {
                    let what = format!("{name} {l:?} m={m} {}", profile.name);
                    assert_eq!(res[2], Err(want.clone()), "{what}");
                    for r in [0, 1, 3] {
                        let buf = res[r]
                            .as_ref()
                            .unwrap_or_else(|e| panic!("{what} rank {r}: {e}"));
                        assert_eq!(l.read(buf), (want_vals.clone(), true), "{what} rank {r}");
                    }
                }
            }
        }
    }
}

/// A rank that leaves a blocking collective early with a validation
/// error, before its first send, leaves its peer waiting on a message
/// that never comes. The event engine must diagnose that as a deadlock
/// in bounded wall time, never hang. (With more ranks, a peer that later
/// sends to the departed rank is stopped with "rank N exited early"
/// instead; two ranks keep the diagnosis to the stall alone.)
#[test]
fn an_early_error_in_a_blocking_collective_ends_in_a_deadlock_diagnosis() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::time::Duration;

    for coll in ["bcast", "allreduce", "allgather"] {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let job = catch_unwind(AssertUnwindSafe(|| {
                let topo = Topology::new(1, 2);
                mpisim::run_mpi_on(EngineMode::EventDriven, topo, Profile::mvapich2(), |mpi| {
                    let w = mpi.world();
                    // Rank 1, the bcast root, passes a negative count:
                    // rejected on entry, before it sends anything.
                    let count = if mpi.rank(w).unwrap() == 1 { -1 } else { 4 };
                    let mine = ints(&[1, 2, 3, 4]);
                    let mut out = vec![0u8; 64];
                    match coll {
                        "bcast" => mpi.bcast(&mut out, count, &INT, 1, w),
                        "allreduce" => {
                            mpi.allreduce(&mine, &mut out, count, &INT, ReduceOp::Sum, w)
                        }
                        _ => mpi.allgather(&mine, &mut out, count, &INT, w),
                    }
                })
            }));
            let msg = match job {
                Ok(res) => format!("the job finished: {res:?}"),
                Err(p) => p
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default(),
            };
            let _ = tx.send(msg);
        });
        let msg = rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{coll}: no diagnosis within 60 s"));
        assert!(
            msg.contains("event engine stalled") && msg.contains("(deadlock)"),
            "{coll}: {msg}"
        );
    }
}
