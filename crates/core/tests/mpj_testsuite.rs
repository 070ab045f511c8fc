//! The MVAPICH2-J functional test-cases.
//!
//! "The MVAPICH2 Java bindings are also equipped with a number of
//! test-cases adopted from the MPJ Express library" — this file is that
//! suite's analogue: one test per classic MPJ Express test program,
//! covering every primitive type, both buffer kinds, and every
//! collective, on a 2×2 simulated cluster.

use mvapich2j::datatype::{BYTE, CHAR, DOUBLE, FLOAT, INT, LONG, SHORT};
use mvapich2j::{run_job, JobConfig, ReduceOp, Topology};

fn cfg() -> JobConfig {
    JobConfig::mvapich2j(Topology::new(2, 2))
}

macro_rules! typed_roundtrip {
    ($name:ident, $ty:ty, $gen:expr) => {
        #[test]
        fn $name() {
            run_job(JobConfig::mvapich2j(Topology::single_node(2)), |env| {
                let w = env.world();
                let n = 33; // odd length: exercises ragged tails
                let gen = $gen;
                if env.rank() == 0 {
                    let arr = env.new_array::<$ty>(n).unwrap();
                    for i in 0..n {
                        env.array_set(arr, i, gen(i)).unwrap();
                    }
                    env.send_array(arr, n as i32, 1, 3, w).unwrap();
                } else {
                    let arr = env.new_array::<$ty>(n).unwrap();
                    let st = env.recv_array(arr, n as i32, 0, 3, w).unwrap();
                    assert_eq!(st.bytes, n * std::mem::size_of::<$ty>());
                    for i in 0..n {
                        assert_eq!(env.array_get(arr, i).unwrap(), gen(i), "element {i}");
                    }
                }
            });
        }
    };
}

// SendRecvTest for every primitive type (MPJ Express: ByteTest.java etc.)
typed_roundtrip!(sendrecv_byte, i8, |i: usize| (i as i8).wrapping_mul(3));
typed_roundtrip!(sendrecv_boolean, bool, |i: usize| i.is_multiple_of(3));
typed_roundtrip!(sendrecv_char, u16, |i: usize| 0x2600 + i as u16);
typed_roundtrip!(sendrecv_short, i16, |i: usize| (i as i16) - 7);
typed_roundtrip!(sendrecv_int, i32, |i: usize| (i as i32).wrapping_mul(-97));
typed_roundtrip!(sendrecv_long, i64, |i: usize| (i as i64) << 33);
typed_roundtrip!(sendrecv_float, f32, |i: usize| i as f32 / 3.0);
typed_roundtrip!(sendrecv_double, f64, |i: usize| i as f64 * 1e-3 + 0.5);

#[test]
fn isend_irecv_overlap_window() {
    // MPJ Express IsendIrecvTest: a window of overlapping transfers.
    run_job(cfg(), |env| {
        let w = env.world();
        let me = env.rank();
        let peer = me ^ 1;
        let window = 12;
        let mut sends = Vec::new();
        let arrs: Vec<_> = (0..window)
            .map(|_| env.new_array::<i32>(16).unwrap())
            .collect();
        let mut recvs = Vec::new();
        for (k, &a) in arrs.iter().enumerate() {
            recvs.push(env.irecv_array(a, 16, peer as i32, k as i32, w).unwrap());
        }
        for k in 0..window {
            let s = env.new_array::<i32>(16).unwrap();
            for i in 0..16 {
                env.array_set(s, i, (me * 1000 + k * 16 + i) as i32)
                    .unwrap();
            }
            sends.push(env.isend_array(s, 16, peer, k as i32, w).unwrap());
        }
        env.waitall(sends).unwrap();
        env.waitall(recvs).unwrap();
        for (k, &a) in arrs.iter().enumerate() {
            for i in 0..16 {
                assert_eq!(
                    env.array_get(a, i).unwrap(),
                    (peer * 1000 + k * 16 + i) as i32
                );
            }
        }
    });
}

#[test]
fn bcast_all_roots() {
    // BcastTest: every rank takes a turn as root.
    run_job(cfg(), |env| {
        let w = env.world();
        let p = env.size();
        for root in 0..p {
            let arr = env.new_array::<i64>(9).unwrap();
            if env.rank() == root {
                for i in 0..9 {
                    env.array_set(arr, i, (root * 100 + i) as i64).unwrap();
                }
            }
            env.bcast_array(arr, 9, root, w).unwrap();
            for i in 0..9 {
                assert_eq!(env.array_get(arr, i).unwrap(), (root * 100 + i) as i64);
            }
            env.free_array(arr).unwrap();
        }
    });
}

#[test]
fn reduce_and_allreduce_every_op() {
    run_job(cfg(), |env| {
        let w = env.world();
        let me = env.rank() as i32;
        let p = env.size() as i32;
        for op in [
            ReduceOp::Sum,
            ReduceOp::Prod,
            ReduceOp::Min,
            ReduceOp::Max,
            ReduceOp::Band,
            ReduceOp::Bor,
            ReduceOp::Bxor,
            ReduceOp::Land,
            ReduceOp::Lor,
        ] {
            let send = env.new_array::<i32>(2).unwrap();
            env.array_set(send, 0, me + 1).unwrap();
            env.array_set(send, 1, me % 2).unwrap();
            let recv = env.new_array::<i32>(2).unwrap();
            env.allreduce_array(send, recv, 2, op, w).unwrap();
            // Reference over ranks 0..p.
            let fold = |f: &dyn Fn(i32, i32) -> i32, init: (i32, i32)| -> (i32, i32) {
                (1..p).fold(init, |acc, r| (f(acc.0, r + 1), f(acc.1, r % 2)))
            };
            let want = match op {
                ReduceOp::Sum => fold(&|a, b| a.wrapping_add(b), (1, 0)),
                ReduceOp::Prod => fold(&|a, b| a.wrapping_mul(b), (1, 0)),
                ReduceOp::Min => fold(&|a, b| a.min(b), (1, 0)),
                ReduceOp::Max => fold(&|a, b| a.max(b), (1, 0)),
                ReduceOp::Band => fold(&|a, b| a & b, (1, 0)),
                ReduceOp::Bor => fold(&|a, b| a | b, (1, 0)),
                ReduceOp::Bxor => fold(&|a, b| a ^ b, (1, 0)),
                ReduceOp::Land => fold(&|a, b| ((a != 0) && (b != 0)) as i32, (1, 0)),
                ReduceOp::Lor => fold(&|a, b| ((a != 0) || (b != 0)) as i32, (1, 0)),
            };
            assert_eq!(env.array_get(recv, 0).unwrap(), want.0, "{op:?} lane 0");
            assert_eq!(env.array_get(recv, 1).unwrap(), want.1, "{op:?} lane 1");
            env.free_array(send).unwrap();
            env.free_array(recv).unwrap();
        }
    });
}

#[test]
fn gather_scatter_inverse() {
    // GatherTest + ScatterTest: scatter(gather(x)) == x.
    run_job(cfg(), |env| {
        let w = env.world();
        let me = env.rank();
        let p = env.size();
        let mine = env.new_array::<f64>(3).unwrap();
        for i in 0..3 {
            env.array_set(mine, i, (me * 10 + i) as f64).unwrap();
        }
        let all = env.new_array::<f64>(3 * p).unwrap();
        let out = (me == 1).then_some(all);
        env.gather_array(mine, out, 3, 1, w).unwrap();
        let back = env.new_array::<f64>(3).unwrap();
        let src = (me == 1).then_some(all);
        env.scatter_array(src, back, 3, 1, w).unwrap();
        for i in 0..3 {
            assert_eq!(
                env.array_get(back, i).unwrap(),
                env.array_get(mine, i).unwrap()
            );
        }
    });
}

#[test]
fn allgather_and_alltoall_buffers() {
    // Buffer-API coverage of the data-movement collectives.
    run_job(cfg(), |env| {
        let w = env.world();
        let me = env.rank();
        let p = env.size();

        let send = env.new_direct(8);
        env.direct_put::<i32>(send, 0, me as i32).unwrap();
        env.direct_put::<i32>(send, 4, -(me as i32)).unwrap();
        let recv = env.new_direct(8 * p);
        env.allgather_buffer(send, recv, 2, &INT, w).unwrap();
        for r in 0..p {
            assert_eq!(env.direct_get::<i32>(recv, r * 8).unwrap(), r as i32);
            assert_eq!(env.direct_get::<i32>(recv, r * 8 + 4).unwrap(), -(r as i32));
        }

        let a2a_send = env.new_direct(4 * p);
        for d in 0..p {
            env.direct_put::<i32>(a2a_send, d * 4, (me * 10 + d) as i32)
                .unwrap();
        }
        let a2a_recv = env.new_direct(4 * p);
        env.alltoall_buffer(a2a_send, a2a_recv, 1, &INT, w).unwrap();
        for s in 0..p {
            assert_eq!(
                env.direct_get::<i32>(a2a_recv, s * 4).unwrap(),
                (s * 10 + me) as i32
            );
        }
    });
}

#[test]
fn reduce_buffer_to_every_root() {
    run_job(cfg(), |env| {
        let w = env.world();
        let me = env.rank();
        let p = env.size();
        for root in 0..p {
            let send = env.new_direct(16);
            for i in 0..2 {
                env.direct_put::<f64>(send, i * 8, (me + i) as f64).unwrap();
            }
            let recv = env.new_direct(16);
            let out = (me == root).then_some(recv);
            env.reduce_buffer(send, out, 2, &DOUBLE, ReduceOp::Sum, root, w)
                .unwrap();
            if me == root {
                let want0: f64 = (0..p).map(|r| r as f64).sum();
                assert_eq!(env.direct_get::<f64>(recv, 0).unwrap(), want0);
                assert_eq!(env.direct_get::<f64>(recv, 8).unwrap(), want0 + p as f64);
            }
            env.free_direct(send).unwrap();
            env.free_direct(recv).unwrap();
        }
    });
}

#[test]
fn vectored_collectives_buffers() {
    // GathervTest/ScattervTest/AllgathervTest over the buffer API with
    // per-rank counts r+1.
    run_job(cfg(), |env| {
        let w = env.world();
        let me = env.rank();
        let p = env.size();
        let counts: Vec<i32> = (0..p).map(|r| r as i32 + 1).collect();
        let displs: Vec<i32> = {
            let mut d = vec![0i32];
            for r in 0..p - 1 {
                d.push(d[r] + counts[r]);
            }
            d
        };
        let total: i32 = counts.iter().sum();

        let send = env.new_direct(4 * (me + 1));
        for i in 0..=me {
            env.direct_put::<i32>(send, i * 4, (me * 100 + i) as i32)
                .unwrap();
        }
        let recv = env.new_direct(4 * total as usize);
        env.allgatherv_buffer(send, me as i32 + 1, recv, &counts, &displs, &INT, w)
            .unwrap();
        for (r, &disp) in displs.iter().enumerate() {
            for i in 0..=r {
                assert_eq!(
                    env.direct_get::<i32>(recv, (disp as usize + i) * 4)
                        .unwrap(),
                    (r * 100 + i) as i32,
                    "allgatherv rank {r} element {i}"
                );
            }
        }

        // Scatterv back out from rank 0.
        let svsrc = (me == 0).then_some(recv);
        let dst = env.new_direct(4 * (me + 1));
        env.scatterv_buffer(svsrc, &counts, &displs, dst, me as i32 + 1, &INT, 0, w)
            .unwrap();
        for i in 0..=me {
            assert_eq!(
                env.direct_get::<i32>(dst, i * 4).unwrap(),
                (me * 100 + i) as i32
            );
        }
    });
}

#[test]
fn alltoallv_arrays_square() {
    run_job(cfg(), |env| {
        let w = env.world();
        let me = env.rank() as i32;
        let p = env.size();
        let counts = vec![2i32; p];
        let displs: Vec<i32> = (0..p).map(|r| 2 * r as i32).collect();
        let send = env.new_array::<i16>(2 * p).unwrap();
        for d in 0..p {
            env.array_set(send, 2 * d, (me * 100 + d as i32) as i16)
                .unwrap();
            env.array_set(send, 2 * d + 1, -((me * 100 + d as i32) as i16))
                .unwrap();
        }
        let recv = env.new_array::<i16>(2 * p).unwrap();
        env.alltoallv_array(send, &counts, &displs, recv, &counts, &displs, w)
            .unwrap();
        for s in 0..p {
            let want = (s as i32 * 100 + me) as i16;
            assert_eq!(env.array_get(recv, 2 * s).unwrap(), want);
            assert_eq!(env.array_get(recv, 2 * s + 1).unwrap(), -want);
        }
    });
}

#[test]
fn group_operations() {
    // GroupTest: incl/excl/union/intersection through the bindings.
    run_job(cfg(), |env| {
        let w = env.world();
        let g = env.comm_group(w).unwrap();
        assert_eq!(g.size(), 4);
        let evens = g.incl(&[0, 2]).unwrap();
        let odds = g.excl(&[0, 2]).unwrap();
        assert_eq!(evens.ranks(), &[0, 2]);
        assert_eq!(odds.ranks(), &[1, 3]);
        assert_eq!(evens.union(&odds).size(), 4);
        assert_eq!(evens.intersection(&odds).size(), 0);
        // comm_create yields a communicator only on members.
        let sub = env.comm_create(w, &evens).unwrap();
        match (env.rank() % 2, sub) {
            (0, Some(c)) => {
                assert_eq!(env.comm_size(c).unwrap(), 2);
                let arr = env.new_array::<i32>(1).unwrap();
                env.array_set(arr, 0, env.rank() as i32).unwrap();
                let out = env.new_array::<i32>(1).unwrap();
                env.allreduce_array(arr, out, 1, ReduceOp::Sum, c).unwrap();
                assert_eq!(env.array_get(out, 0).unwrap(), 2); // 0 + 2
            }
            (1, None) => {}
            other => panic!("unexpected comm_create outcome: {:?}", other.0),
        }
    });
}

#[test]
fn status_fields_and_any_source() {
    run_job(cfg(), |env| {
        let w = env.world();
        let me = env.rank();
        if me == 0 {
            // Receive from anyone, twice; sources must be 1 and 2 in some
            // order, tags echo the sender.
            let mut seen = Vec::new();
            for _ in 0..2 {
                let arr = env.new_array::<i8>(4).unwrap();
                let st = env.recv_array(arr, 4, -1, 5, w).unwrap();
                seen.push(st.source);
                assert_eq!(st.tag, 5);
                assert_eq!(st.count(&BYTE), 4);
            }
            seen.sort();
            assert_eq!(seen, vec![1, 2]);
        } else if me <= 2 {
            let arr = env.new_array::<i8>(4).unwrap();
            env.send_array(arr, 4, 0, 5, w).unwrap();
        }
        env.barrier(w).unwrap();
    });
}

#[test]
fn mixed_types_share_the_wire() {
    // CHAR/SHORT/FLOAT/LONG interleaved on distinct tags.
    run_job(cfg(), |env| {
        let w = env.world();
        let me = env.rank();
        if me == 0 {
            let c = env.new_array::<u16>(3).unwrap();
            env.array_write(c, 0, &[10u16, 20, 30]).unwrap();
            env.send_array(c, 3, 1, 1, w).unwrap();
            let s = env.new_array::<i16>(2).unwrap();
            env.array_write(s, 0, &[-5i16, 5]).unwrap();
            env.send_array(s, 2, 1, 2, w).unwrap();
            let f = env.new_array::<f32>(2).unwrap();
            env.array_write(f, 0, &[1.5f32, -2.5]).unwrap();
            env.send_array(f, 2, 1, 3, w).unwrap();
            let l = env.new_array::<i64>(1).unwrap();
            env.array_write(l, 0, &[i64::MIN]).unwrap();
            env.send_array(l, 1, 1, 4, w).unwrap();
        } else if me == 1 {
            // Receive out of order: 4, 1, 3, 2.
            let l = env.new_array::<i64>(1).unwrap();
            env.recv_array(l, 1, 0, 4, w).unwrap();
            assert_eq!(env.array_get(l, 0).unwrap(), i64::MIN);
            let c = env.new_array::<u16>(3).unwrap();
            env.recv_array(c, 3, 0, 1, w).unwrap();
            assert_eq!(env.array_get(c, 2).unwrap(), 30);
            let f = env.new_array::<f32>(2).unwrap();
            env.recv_array(f, 2, 0, 3, w).unwrap();
            assert_eq!(env.array_get(f, 1).unwrap(), -2.5);
            let s = env.new_array::<i16>(2).unwrap();
            env.recv_array(s, 2, 0, 2, w).unwrap();
            assert_eq!(env.array_get(s, 0).unwrap(), -5);
        }
        // Keep the datatype constants "used" for the suite's readability.
        let _ = (&CHAR, &SHORT, &FLOAT, &LONG);
    });
}
