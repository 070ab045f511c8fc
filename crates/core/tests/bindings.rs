//! End-to-end tests of the MVAPICH2-J bindings: both buffer kinds, both
//! blocking modes, collectives, derived datatypes, communicator
//! management, and the virtual-time properties the figures rely on.

use mvapich2j::datatype::{Datatype, DOUBLE, INT};
use mvapich2j::{run_job, BindError, JobConfig, ReduceOp, TestOutcome, Topology};

fn cfg2() -> JobConfig {
    JobConfig::mvapich2j(Topology::single_node(2))
}

#[test]
fn direct_buffer_send_recv_roundtrip() {
    run_job(cfg2(), |env| {
        let w = env.world();
        if env.rank() == 0 {
            let buf = env.new_direct(64);
            for i in 0..16 {
                env.direct_put::<i32>(buf, i * 4, i as i32 * 3).unwrap();
            }
            env.send_buffer(buf, 16, &INT, 1, 5, w).unwrap();
        } else {
            let buf = env.new_direct(64);
            let st = env.recv_buffer(buf, 16, &INT, 0, 5, w).unwrap();
            assert_eq!(st.bytes, 64);
            assert_eq!(st.source, 0);
            assert_eq!(st.tag, 5);
            assert_eq!(st.count(&INT), 16);
            for i in 0..16 {
                assert_eq!(env.direct_get::<i32>(buf, i * 4).unwrap(), i as i32 * 3);
            }
        }
    });
}

#[test]
fn array_send_recv_roundtrip_all_sizes() {
    // Cross the eager/rendezvous switch on the shm path (8 KiB).
    for n in [1usize, 64, 2048, 4096 /* 16 KiB of ints */] {
        run_job(cfg2(), move |env| {
            let w = env.world();
            if env.rank() == 0 {
                let arr = env.new_array::<i32>(n).unwrap();
                for i in 0..n {
                    env.array_set(arr, i, (i as i32).wrapping_mul(7)).unwrap();
                }
                env.send_array(arr, n as i32, 1, 0, w).unwrap();
            } else {
                let arr = env.new_array::<i32>(n).unwrap();
                let st = env.recv_array(arr, n as i32, 0, 0, w).unwrap();
                assert_eq!(st.bytes, 4 * n);
                for i in 0..n {
                    assert_eq!(
                        env.array_get(arr, i).unwrap(),
                        (i as i32).wrapping_mul(7),
                        "n={n} i={i}"
                    );
                }
            }
        });
    }
}

#[test]
fn mixed_buffer_to_array_interop() {
    // Sender uses a direct buffer, receiver a Java array: the wire format
    // must be identical.
    run_job(cfg2(), |env| {
        let w = env.world();
        if env.rank() == 0 {
            let buf = env.new_direct(32);
            for i in 0..4 {
                env.direct_put::<f64>(buf, i * 8, i as f64 + 0.25).unwrap();
            }
            env.send_buffer(buf, 4, &DOUBLE, 1, 1, w).unwrap();
        } else {
            let arr = env.new_array::<f64>(4).unwrap();
            env.recv_array(arr, 4, 0, 1, w).unwrap();
            for i in 0..4 {
                assert_eq!(env.array_get(arr, i).unwrap(), i as f64 + 0.25);
            }
        }
    });
}

#[test]
fn nonblocking_arrays_supported_by_mvapich2j() {
    // The capability Open MPI-J lacks (basis of the bandwidth figures).
    run_job(cfg2(), |env| {
        let w = env.world();
        let window = 8;
        if env.rank() == 0 {
            let arr = env.new_array::<i8>(256).unwrap();
            let reqs: Vec<_> = (0..window)
                .map(|_| env.isend_array(arr, 256, 1, 0, w).unwrap())
                .collect();
            env.waitall(reqs).unwrap();
        } else {
            let arr = env.new_array::<i8>(256).unwrap();
            let reqs: Vec<_> = (0..window)
                .map(|_| env.irecv_array(arr, 256, 0, 0, w).unwrap())
                .collect();
            let stats = env.waitall(reqs).unwrap();
            assert!(stats.iter().all(|s| s.bytes == 256));
        }
    });
}

#[test]
fn array_slice_extension_sends_subsets() {
    run_job(cfg2(), |env| {
        let w = env.world();
        if env.rank() == 0 {
            let arr = env.new_array::<i32>(10).unwrap();
            for i in 0..10 {
                env.array_set(arr, i, i as i32).unwrap();
            }
            // Send elements 3..7 only.
            env.send_array_slice(arr, 3, 4, 1, 0, w).unwrap();
        } else {
            let arr = env.new_array::<i32>(10).unwrap();
            let st = env.recv_array_slice(arr, 5, 4, 0, 0, w).unwrap();
            assert_eq!(st.bytes, 16);
            // Elements land at 5..9; the rest stay zero.
            let mut out = [0i32; 10];
            env.array_read(arr, 0, &mut out).unwrap();
            assert_eq!(out, [0, 0, 0, 0, 0, 3, 4, 5, 6, 0]);
        }
    });
}

#[test]
fn derived_vector_datatype_over_arrays() {
    // Strided column exchange — the buffering layer's derived-datatype
    // showcase.
    run_job(cfg2(), |env| {
        let w = env.world();
        let dt = Datatype::vector(4, 1, 3, INT).unwrap();
        if env.rank() == 0 {
            let arr = env.new_array::<i32>(10).unwrap();
            for k in 0..4 {
                env.array_set(arr, k * 3, 100 + k as i32).unwrap();
            }
            env.send_array_dt(arr, 1, &dt, 1, 0, w).unwrap();
        } else {
            let arr = env.new_array::<i32>(10).unwrap();
            for i in 0..10 {
                env.array_set(arr, i, -1).unwrap();
            }
            env.recv_array_dt(arr, 1, &dt, 0, 0, w).unwrap();
            for k in 0..4 {
                assert_eq!(env.array_get(arr, k * 3).unwrap(), 100 + k as i32);
            }
            // Gaps preserved.
            assert_eq!(env.array_get(arr, 1).unwrap(), -1);
            assert_eq!(env.array_get(arr, 2).unwrap(), -1);
        }
    });
}

#[test]
fn test_outcome_pending_then_done() {
    run_job(cfg2(), |env| {
        let w = env.world();
        if env.rank() == 0 {
            // Synchronize first so the probe below observes "pending".
            let b = env.new_direct(4);
            env.recv_buffer(b, 1, &INT, 1, 9, w).unwrap();
            let buf = env.new_direct(8);
            env.send_buffer(buf, 2, &INT, 1, 0, w).unwrap();
        } else {
            let buf = env.new_direct(8);
            let req = env.irecv_buffer(buf, 2, &INT, 0, 0, w).unwrap();
            let mut req = match env.test(req).unwrap() {
                TestOutcome::Pending(r) => r,
                TestOutcome::Done(_) => panic!("nothing was sent yet"),
            };
            let sig = env.new_direct(4);
            env.send_buffer(sig, 1, &INT, 0, 9, w).unwrap();
            loop {
                match env.test(req).unwrap() {
                    TestOutcome::Done(st) => {
                        assert_eq!(st.bytes, 8);
                        break;
                    }
                    TestOutcome::Pending(r) => {
                        req = r;
                        std::thread::yield_now();
                    }
                }
            }
        }
    });
}

#[test]
fn collectives_buffer_and_array_agree() {
    let cfg = JobConfig::mvapich2j(Topology::new(2, 3));
    let res = run_job(cfg, |env| {
        let w = env.world();
        let me = env.rank() as i32;
        let p = env.size();

        // allreduce over buffers
        let send = env.new_direct(16);
        let recv = env.new_direct(16);
        for i in 0..4 {
            env.direct_put::<i32>(send, i * 4, me + i as i32).unwrap();
        }
        env.allreduce_buffer(send, recv, 4, &INT, ReduceOp::Sum, w)
            .unwrap();
        let buf_result: Vec<i32> = (0..4)
            .map(|i| env.direct_get::<i32>(recv, i * 4).unwrap())
            .collect();

        // allreduce over arrays
        let asend = env.new_array::<i32>(4).unwrap();
        let arecv = env.new_array::<i32>(4).unwrap();
        for i in 0..4 {
            env.array_set(asend, i, me + i as i32).unwrap();
        }
        env.allreduce_array(asend, arecv, 4, ReduceOp::Sum, w)
            .unwrap();
        let arr_result: Vec<i32> = (0..4).map(|i| env.array_get(arecv, i).unwrap()).collect();

        assert_eq!(buf_result, arr_result);
        let total: i32 = (0..p as i32).sum();
        assert_eq!(buf_result[0], total);
        buf_result
    });
    assert!(res.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn bcast_both_paths() {
    let cfg = JobConfig::mvapich2j(Topology::new(2, 2));
    run_job(cfg, |env| {
        let w = env.world();
        let me = env.rank();
        // Buffer path.
        let buf = env.new_direct(32);
        if me == 1 {
            for i in 0..8 {
                env.direct_put::<i32>(buf, i * 4, 50 + i as i32).unwrap();
            }
        }
        env.bcast_buffer(buf, 8, &INT, 1, w).unwrap();
        for i in 0..8 {
            assert_eq!(env.direct_get::<i32>(buf, i * 4).unwrap(), 50 + i as i32);
        }
        // Array path.
        let arr = env.new_array::<f64>(5).unwrap();
        if me == 0 {
            for i in 0..5 {
                env.array_set(arr, i, i as f64 / 2.0).unwrap();
            }
        }
        env.bcast_array(arr, 5, 0, w).unwrap();
        for i in 0..5 {
            assert_eq!(env.array_get(arr, i).unwrap(), i as f64 / 2.0);
        }
    });
}

#[test]
fn gatherv_and_scatterv_arrays() {
    let cfg = JobConfig::mvapich2j(Topology::single_node(3));
    run_job(cfg, |env| {
        let w = env.world();
        let me = env.rank();
        // Gatherv: rank r contributes r+1 ints.
        let send = env.new_array::<i32>(me + 1).unwrap();
        for i in 0..=me {
            env.array_set(send, i, (me * 10 + i) as i32).unwrap();
        }
        let recvcounts = [1i32, 2, 3];
        let displs = [0i32, 1, 3];
        let recv = env.new_array::<i32>(6).unwrap();
        let out = (me == 0).then_some(recv);
        env.gatherv_array(send, me as i32 + 1, out, &recvcounts, &displs, 0, w)
            .unwrap();
        if me == 0 {
            let mut got = [0i32; 6];
            env.array_read(recv, 0, &mut got).unwrap();
            assert_eq!(got, [0, 10, 11, 20, 21, 22]);
        }

        // Scatterv: inverse distribution.
        let src = env.new_array::<i32>(6).unwrap();
        if me == 0 {
            for i in 0..6 {
                env.array_set(src, i, i as i32 * 2).unwrap();
            }
        }
        let dst = env.new_array::<i32>(me + 1).unwrap();
        let sendsrc = (me == 0).then_some(src);
        env.scatterv_array(sendsrc, &recvcounts, &displs, dst, me as i32 + 1, 0, w)
            .unwrap();
        let mut got = vec![0i32; me + 1];
        env.array_read(dst, 0, &mut got).unwrap();
        let want: Vec<i32> = (displs[me]..displs[me] + recvcounts[me])
            .map(|i| i * 2)
            .collect();
        assert_eq!(got, want);
    });
}

#[test]
fn alltoall_and_allgather_arrays() {
    let cfg = JobConfig::mvapich2j(Topology::new(2, 2));
    run_job(cfg, |env| {
        let w = env.world();
        let me = env.rank() as i32;
        let p = env.size();

        let send = env.new_array::<i32>(p).unwrap();
        for d in 0..p {
            env.array_set(send, d, me * 100 + d as i32).unwrap();
        }
        let recv = env.new_array::<i32>(p).unwrap();
        env.alltoall_array(send, recv, 1, w).unwrap();
        for s in 0..p {
            assert_eq!(
                env.array_get(recv, s).unwrap(),
                s as i32 * 100 + me,
                "alltoall block from {s}"
            );
        }

        let ag = env.new_array::<i32>(p).unwrap();
        let mine = env.new_array::<i32>(1).unwrap();
        env.array_set(mine, 0, me * 11).unwrap();
        env.allgather_array(mine, ag, 1, w).unwrap();
        for r in 0..p {
            assert_eq!(env.array_get(ag, r).unwrap(), r as i32 * 11);
        }
    });
}

#[test]
fn comm_split_and_collectives_on_subcomm() {
    let cfg = JobConfig::mvapich2j(Topology::new(2, 2));
    run_job(cfg, |env| {
        let w = env.world();
        let me = env.rank();
        let color = (me % 2) as i32;
        let sub = env.comm_split(w, color, me as i32).unwrap().unwrap();
        assert_eq!(env.comm_size(sub).unwrap(), 2);
        // Sum ranks within the subcomm.
        let send = env.new_array::<i32>(1).unwrap();
        env.array_set(send, 0, me as i32).unwrap();
        let recv = env.new_array::<i32>(1).unwrap();
        env.allreduce_array(send, recv, 1, ReduceOp::Sum, sub)
            .unwrap();
        // Sum of the member ranks: 0 + 2 or 1 + 3.
        let want = if color == 0 { 2 } else { 4 };
        assert_eq!(env.array_get(recv, 0).unwrap(), want);
        env.comm_free(sub).unwrap();
    });
}

#[test]
fn comm_dup_isolates_traffic() {
    run_job(cfg2(), |env| {
        let w = env.world();
        let dup = env.comm_dup(w).unwrap();
        if env.rank() == 0 {
            let a = env.new_direct(4);
            env.direct_put::<i32>(a, 0, 1).unwrap();
            let b = env.new_direct(4);
            env.direct_put::<i32>(b, 0, 2).unwrap();
            // Same tag, different communicators.
            env.send_buffer(a, 1, &INT, 1, 7, w).unwrap();
            env.send_buffer(b, 1, &INT, 1, 7, dup).unwrap();
        } else {
            let b = env.new_direct(4);
            env.recv_buffer(b, 1, &INT, 0, 7, dup).unwrap();
            assert_eq!(env.direct_get::<i32>(b, 0).unwrap(), 2);
            let a = env.new_direct(4);
            env.recv_buffer(a, 1, &INT, 0, 7, w).unwrap();
            assert_eq!(env.direct_get::<i32>(a, 0).unwrap(), 1);
        }
    });
}

#[test]
fn truncation_surfaces_as_mpi_exception() {
    run_job(cfg2(), |env| {
        let w = env.world();
        if env.rank() == 0 {
            let arr = env.new_array::<i32>(8).unwrap();
            env.send_array(arr, 8, 1, 0, w).unwrap();
        } else {
            let arr = env.new_array::<i32>(2).unwrap();
            let err = env.recv_array(arr, 2, 0, 0, w).unwrap_err();
            assert!(matches!(
                err,
                BindError::Mpi(mpisim::MpiError::Truncated { .. })
            ));
        }
    });
}

#[test]
fn buffer_pool_is_reused_across_messages() {
    let stats = run_job(cfg2(), |env| {
        let w = env.world();
        let arr = env.new_array::<i8>(1024).unwrap();
        for i in 0..20 {
            if env.rank() == 0 {
                env.send_array(arr, 1024, 1, i, w).unwrap();
            } else {
                env.recv_array(arr, 1024, 0, i, w).unwrap();
            }
        }
        env.pool_stats()
    });
    for s in stats {
        assert!(s.misses <= 2, "one allocation per class, then reuse: {s:?}");
        assert!(s.hits >= 18, "subsequent messages must hit the pool: {s:?}");
        assert_eq!(s.outstanding, 0, "no leaked staging buffers: {s:?}");
    }
}

/// Run `call` on `env` (expecting it to fail) and return how many pooled
/// staging buffers it left outstanding.
fn leaked<R>(
    env: &mut mvapich2j::Env,
    call: impl FnOnce(&mut mvapich2j::Env) -> Result<R, BindError>,
) -> u64 {
    let before = env.pool_stats().outstanding;
    assert!(call(env).is_err(), "the call must fail");
    env.pool_stats().outstanding - before
}

#[test]
fn failing_pt2pt_array_calls_release_their_staging() {
    run_job(cfg2(), |env| {
        let w = env.world();
        let arr = env.new_array::<i32>(8).unwrap();
        // The native library rejects the peer after staging.
        assert_eq!(leaked(env, |e| e.isend_array(arr, 8, 7, 0, w)), 0);
        assert_eq!(leaked(env, |e| e.irecv_array(arr, 8, 7, 0, w)), 0);
        // Staging itself fails: the array is shorter than the count.
        assert_eq!(leaked(env, |e| e.isend_array(arr, 9, 1, 0, w)), 0);
    });
}

#[test]
fn failing_collective_array_calls_release_their_staging() {
    // One rank is every collective's root, so a call that fails there
    // leaves no peer waiting.
    run_job(JobConfig::mvapich2j(Topology::single_node(1)), |env| {
        let w = env.world();
        let send = env.new_array::<i32>(4).unwrap();
        let recv = env.new_array::<i32>(4).unwrap();
        let sum = ReduceOp::Sum;
        assert_eq!(leaked(env, |e| e.reduce_array(send, None, 4, sum, 0, w)), 0);
        assert_eq!(leaked(env, |e| e.gather_array(send, None, 4, 0, w)), 0);
        assert_eq!(
            leaked(env, |e| e.gatherv_array(send, 4, None, &[4], &[0], 0, w)),
            0
        );
        assert_eq!(leaked(env, |e| e.scatter_array(None, recv, 4, 0, w)), 0);
        assert_eq!(leaked(env, |e| e.allreduce_array(send, recv, 5, sum, w)), 0);
        assert_eq!(leaked(env, |e| e.igather_array(send, None, 4, 0, w)), 0);
        assert_eq!(
            leaked(env, |e| e.iallreduce_array(send, recv, 5, sum, w)),
            0
        );
        // The same calls succeed once given what the root needs, and
        // still return every store.
        env.reduce_array(send, Some(recv), 4, sum, 0, w).unwrap();
        let req = env.igather_array(send, Some(recv), 4, 0, w).unwrap();
        env.wait(req).unwrap();
        assert_eq!(env.pool_stats().outstanding, 0);
    });
}

#[test]
fn bindings_runs_are_deterministic() {
    let run = || {
        run_job(JobConfig::mvapich2j(Topology::new(2, 2)), |env| {
            let w = env.world();
            let me = env.rank() as i32;
            let send = env.new_array::<i32>(512).unwrap();
            let recv = env.new_array::<i32>(512).unwrap();
            for _ in 0..5 {
                env.allreduce_array(send, recv, 512, ReduceOp::Max, w)
                    .unwrap();
            }
            let _ = me;
            env.now().as_nanos()
        })
    };
    assert_eq!(run(), run());
}

#[test]
fn java_layer_costs_more_than_native() {
    // The structural property behind Figure 11.
    let topo = Topology::new(2, 1);
    let iters = 100;
    // Native ping-pong.
    let native = mpisim::run_mpi(topo, mpisim::Profile::mvapich2(), move |mpi| {
        let w = mpi.world();
        let me = mpi.rank(w).unwrap();
        let mut buf = vec![0u8; 8];
        mpi.barrier(w).unwrap();
        let t0 = mpi.now();
        for _ in 0..iters {
            if me == 0 {
                mpi.send(&buf, 8, &mpisim::datatype::BYTE, 1, 0, w).unwrap();
                mpi.recv(&mut buf, 8, &mpisim::datatype::BYTE, 1, 0, w)
                    .unwrap();
            } else {
                mpi.recv(&mut buf, 8, &mpisim::datatype::BYTE, 0, 0, w)
                    .unwrap();
                mpi.send(&buf, 8, &mpisim::datatype::BYTE, 0, 0, w).unwrap();
            }
        }
        (mpi.now() - t0).as_nanos() / (2.0 * iters as f64)
    });
    // Bindings ping-pong over direct buffers.
    let java = run_job(JobConfig::mvapich2j(topo), move |env| {
        let w = env.world();
        let me = env.rank();
        let buf = env.new_direct(8);
        env.barrier(w).unwrap();
        let t0 = env.now();
        for _ in 0..iters {
            if me == 0 {
                env.send_buffer(buf, 8, &mvapich2j::datatype::BYTE, 1, 0, w)
                    .unwrap();
                env.recv_buffer(buf, 8, &mvapich2j::datatype::BYTE, 1, 0, w)
                    .unwrap();
            } else {
                env.recv_buffer(buf, 8, &mvapich2j::datatype::BYTE, 0, 0, w)
                    .unwrap();
                env.send_buffer(buf, 8, &mvapich2j::datatype::BYTE, 0, 0, w)
                    .unwrap();
            }
        }
        (env.now() - t0).as_nanos() / (2.0 * iters as f64)
    });
    let overhead = java[0] - native[0];
    assert!(
        overhead > 200.0 && overhead < 3000.0,
        "Java overhead should be sub-microsecond-ish: native={} java={} overhead={overhead}",
        native[0],
        java[0]
    );
}

#[test]
fn gc_runs_under_allocation_pressure_and_data_survives() {
    let mut cfg = cfg2();
    cfg.heap_initial = 1 << 16; // tiny heap: force collections
    cfg.heap_max = 1 << 18;
    let stats = run_job(cfg, |env| {
        let w = env.world();
        let keep = env.new_array::<i32>(128).unwrap();
        for i in 0..128 {
            env.array_set(keep, i, i as i32).unwrap();
        }
        // Churn: many short-lived arrays + messages.
        for round in 0..200 {
            let junk = env.new_array::<i64>(512).unwrap();
            env.free_array(junk).unwrap();
            if env.rank() == 0 {
                env.send_array(keep, 128, 1, round, w).unwrap();
            } else {
                let tmp = env.new_array::<i32>(128).unwrap();
                env.recv_array(tmp, 128, 0, round, w).unwrap();
                assert_eq!(env.array_get(tmp, 127).unwrap(), 127);
                env.free_array(tmp).unwrap();
            }
        }
        for i in 0..128 {
            assert_eq!(env.array_get(keep, i).unwrap(), i as i32);
        }
        env.gc_stats()
    });
    for s in stats {
        assert!(s.collections > 0, "GC must have run under churn: {s:?}");
    }
}
