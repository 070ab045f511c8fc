//! Cross-crate end-to-end tests: the full stack (managed runtime → JNI
//! analog → buffering layer → bindings → native MPI → fabric) driven the
//! way an application would.

use mvapich2j::datatype::{Datatype, INT};
use mvapich2j::{run_job, JobConfig, ReduceOp, Topology};

/// Deterministic pseudo-random source (Knuth LCG) — replaces the old
/// proptest strategies so the test needs no external crates and replays
/// identically every run.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }
    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() >> 33) as usize % (hi - lo)
    }
}

#[test]
fn payload_integrity_random_sizes_and_apis() {
    // Pseudo-random message sizes across both APIs and both protocol
    // regimes (eager and rendezvous straddle 40 kB).
    let mut rng = Lcg::new(7);
    for _case in 0..12 {
        let sizes: Vec<usize> = (0..rng.range(1, 5)).map(|_| rng.range(1, 40_000)).collect();
        let seed = (rng.next() >> 24) as u8;
        let sizes2 = sizes.clone();
        run_job(JobConfig::mvapich2j(Topology::new(2, 1)), move |env| {
            let w = env.world();
            let me = env.rank();
            for (k, &n) in sizes2.iter().enumerate() {
                let tag = k as i32;
                if me == 0 {
                    let arr = env.new_array::<i8>(n).unwrap();
                    for i in 0..n {
                        env.array_set(arr, i, (i as u8 ^ seed) as i8).unwrap();
                    }
                    env.send_array(arr, n as i32, 1, tag, w).unwrap();
                    env.free_array(arr).unwrap();
                } else {
                    let arr = env.new_array::<i8>(n).unwrap();
                    let st = env.recv_array(arr, n as i32, 0, tag, w).unwrap();
                    assert_eq!(st.bytes, n);
                    for i in 0..n {
                        assert_eq!(
                            env.array_get(arr, i).unwrap(),
                            (i as u8 ^ seed) as i8,
                            "byte {i} of {n} corrupted"
                        );
                    }
                    env.free_array(arr).unwrap();
                }
            }
        });
    }
}

#[test]
fn whole_job_virtual_times_are_deterministic() {
    let run = || {
        run_job(JobConfig::mvapich2j(Topology::new(2, 2)), |env| {
            let w = env.world();
            let me = env.rank() as i32;
            let send = env.new_array::<i32>(1000).unwrap();
            let recv = env.new_array::<i32>(1000).unwrap();
            for i in 0..1000 {
                env.array_set(send, i, me * 7 + i as i32).unwrap();
            }
            env.allreduce_array(send, recv, 1000, ReduceOp::Min, w)
                .unwrap();
            let buf = env.new_direct(4096);
            env.bcast_buffer(buf, 1024, &INT, 2, w).unwrap();
            env.barrier(w).unwrap();
            env.now().as_nanos()
        })
    };
    assert_eq!(run(), run());
}

#[test]
fn gc_pressure_does_not_corrupt_in_flight_messages() {
    // Heavy allocation churn while messages are in flight: the staging
    // buffers (direct) must be immune to the moving collector.
    let mut cfg = JobConfig::mvapich2j(Topology::single_node(2));
    cfg.heap_initial = 1 << 15;
    cfg.heap_max = 1 << 18;
    let stats = run_job(cfg, |env| {
        let w = env.world();
        let me = env.rank();
        for round in 0..60 {
            let n = 500 + round * 13;
            if me == 0 {
                let arr = env.new_array::<i32>(n).unwrap();
                for i in 0..n {
                    env.array_set(arr, i, (round * 100_000 + i) as i32).unwrap();
                }
                let req = env.isend_array(arr, n as i32, 1, 0, w).unwrap();
                // Churn while the send is pending.
                for _ in 0..8 {
                    let junk = env.new_array::<i64>(700).unwrap();
                    env.free_array(junk).unwrap();
                }
                env.wait(req).unwrap();
                env.free_array(arr).unwrap();
            } else {
                let arr = env.new_array::<i32>(n).unwrap();
                let req = env.irecv_array(arr, n as i32, 0, 0, w).unwrap();
                for _ in 0..8 {
                    let junk = env.new_array::<i64>(700).unwrap();
                    env.free_array(junk).unwrap();
                }
                env.wait(req).unwrap();
                for i in (0..n).step_by(97) {
                    assert_eq!(env.array_get(arr, i).unwrap(), (round * 100_000 + i) as i32);
                }
                env.free_array(arr).unwrap();
            }
        }
        env.gc_stats()
    });
    assert!(
        stats.iter().any(|s| s.collections > 0),
        "the collector must actually have run: {stats:?}"
    );
}

#[test]
fn derived_datatype_matrix_column_exchange() {
    // Send the first column of a 6x8 row-major matrix using a vector
    // datatype — the buffering layer's gather/scatter in a realistic
    // layout.
    const ROWS: usize = 6;
    const COLS: usize = 8;
    run_job(JobConfig::mvapich2j(Topology::new(2, 1)), |env| {
        let w = env.world();
        let me = env.rank();
        let col = Datatype::vector(ROWS, 1, COLS, INT).unwrap();
        let mat = env.new_array::<i32>(ROWS * COLS).unwrap();
        if me == 0 {
            for r in 0..ROWS {
                for c in 0..COLS {
                    env.array_set(mat, r * COLS + c, (r * 10 + c) as i32)
                        .unwrap();
                }
            }
            // One datatype element = the whole strided column.
            env.send_array_dt(mat, 1, &col, 1, 0, w).unwrap();
        } else {
            for i in 0..ROWS * COLS {
                env.array_set(mat, i, -1).unwrap();
            }
            env.recv_array_dt(mat, 1, &col, 0, 0, w).unwrap();
            // Received column lands at stride positions from offset 0.
            for r in 0..ROWS {
                assert_eq!(env.array_get(mat, r * COLS).unwrap(), (r * 10) as i32);
                // Everything else untouched.
                assert_eq!(env.array_get(mat, r * COLS + 1).unwrap(), -1);
            }
        }
    });
}

#[test]
fn subcommunicators_compose_with_collectives() {
    // Split the world into row/column communicators (2x2 grid) and run
    // independent reductions in each — a standard application pattern.
    run_job(JobConfig::mvapich2j(Topology::new(2, 2)), |env| {
        let w = env.world();
        let me = env.rank();
        let (row, col) = (me / 2, me % 2);
        let row_comm = env.comm_split(w, row as i32, me as i32).unwrap().unwrap();
        let col_comm = env.comm_split(w, col as i32, me as i32).unwrap().unwrap();

        let send = env.new_array::<i32>(1).unwrap();
        env.array_set(send, 0, me as i32).unwrap();
        let rsum = env.new_array::<i32>(1).unwrap();
        env.allreduce_array(send, rsum, 1, ReduceOp::Sum, row_comm)
            .unwrap();
        let csum = env.new_array::<i32>(1).unwrap();
        env.allreduce_array(send, csum, 1, ReduceOp::Sum, col_comm)
            .unwrap();

        // Row sums: {0+1, 2+3}; column sums: {0+2, 1+3}.
        assert_eq!(
            env.array_get(rsum, 0).unwrap(),
            if row == 0 { 1 } else { 5 }
        );
        assert_eq!(
            env.array_get(csum, 0).unwrap(),
            if col == 0 { 2 } else { 4 }
        );
        env.comm_free(row_comm).unwrap();
        env.comm_free(col_comm).unwrap();
    });
}

#[test]
fn openmpij_and_mvapich2j_compute_identical_results() {
    // Performance differs; semantics must not.
    let compute = |cfg: JobConfig| {
        run_job(cfg, |env| {
            let w = env.world();
            let me = env.rank() as i32;
            let send = env.new_array::<i32>(64).unwrap();
            for i in 0..64 {
                env.array_set(send, i, me * 1000 + i as i32).unwrap();
            }
            let recv = env.new_array::<i32>(64).unwrap();
            env.allreduce_array(send, recv, 64, ReduceOp::Max, w)
                .unwrap();
            let mut out = vec![0i32; 64];
            env.array_read(recv, 0, &mut out).unwrap();
            out
        })
    };
    let topo = Topology::new(2, 2);
    let mv = compute(JobConfig::mvapich2j(topo));
    let om = compute(openmpij::job_config(topo));
    assert_eq!(mv, om);
}
