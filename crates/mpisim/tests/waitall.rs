//! Regression tests for `Mpi::waitall`: statuses drain in request order,
//! but progression is joint — an early-completing later request must not
//! wait on an earlier slow one, and mixed point-to-point + non-blocking
//! collective batches complete together.

use mpisim::datatype::INT;
use mpisim::{run_mpi, Mpi, Profile, ReduceOp};
use simfabric::Topology;
use vtime::VDur;

fn ints(v: &[i32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn to_ints(b: &[u8]) -> Vec<i32> {
    b.chunks_exact(4)
        .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Rank 1 sends a *fast* message on tag 2 immediately, then sits on a
/// long virtual compute before sending the *slow* message on tag 1.
/// Rank 0 posts the slow receive first. `join = true` drains both with
/// one `waitall`; `join = false` waits them in request order. Returns
/// rank 0's final clock (ns).
fn two_recv_job(join: bool) -> f64 {
    let times = run_mpi(
        Topology::new(2, 1),
        Profile::mvapich2(),
        move |mpi: &mut Mpi| {
            let world = mpi.world();
            let me = mpi.rank(world).unwrap();
            if me == 1 {
                let fast = ints(&(0..64).collect::<Vec<i32>>());
                let r_fast = mpi.isend(&fast, 64, &INT, 0, 2, world).unwrap();
                // A long compute block delays the second payload far past
                // the first one's delivery.
                mpi.clock_mut().charge(VDur::from_micros(400.0));
                let slow = ints(&(100..164).collect::<Vec<i32>>());
                let r_slow = mpi.isend(&slow, 64, &INT, 0, 1, world).unwrap();
                mpi.waitall(vec![r_fast, r_slow], vec![None, None]).unwrap();
                0.0
            } else {
                let r_slow = mpi.irecv(64, &INT, 1, 1, world).unwrap();
                let r_fast = mpi.irecv(64, &INT, 1, 2, world).unwrap();
                let mut slow_buf = vec![0u8; 256];
                let mut fast_buf = vec![0u8; 256];
                if join {
                    let st = mpi
                        .waitall(
                            vec![r_slow, r_fast],
                            vec![Some(&mut slow_buf[..]), Some(&mut fast_buf[..])],
                        )
                        .unwrap();
                    assert_eq!(st.len(), 2);
                    assert_eq!(st[0].bytes, 256);
                    assert_eq!(st[1].bytes, 256);
                } else {
                    mpi.wait(r_slow, Some(&mut slow_buf)).unwrap();
                    mpi.wait(r_fast, Some(&mut fast_buf)).unwrap();
                }
                assert_eq!(to_ints(&slow_buf)[0], 100);
                assert_eq!(to_ints(&fast_buf)[0], 0);
                mpi.now().as_nanos()
            }
        },
    );
    times[0]
}

#[test]
fn waitall_does_not_serialize_on_an_earlier_slow_request() {
    let joint = two_recv_job(true);
    let serial = two_recv_job(false);
    // In-order waiting charges the fast receive's consumption *after*
    // the slow arrival; joint completion hides it before. The joint
    // drain must therefore finish strictly earlier.
    assert!(
        joint < serial,
        "waitall serialized progression: joint={joint}ns serial={serial}ns"
    );
    // Both variants still end after the slow payload's flight time.
    assert!(joint > 400_000.0, "joint={joint}ns");
}

#[test]
fn waitall_mixes_pt2pt_and_collective_requests() {
    let clocks = run_mpi(Topology::new(2, 2), Profile::mvapich2(), |mpi: &mut Mpi| {
        let world = mpi.world();
        let me = mpi.rank(world).unwrap();
        let p = mpi.size(world).unwrap();
        let mine = ints(
            &(0..32)
                .map(|i| (me as i32) << (8 + i % 3))
                .collect::<Vec<_>>(),
        );

        // One NBC, one receive from the left neighbor, one send to the
        // right neighbor — all drained by a single waitall.
        let r_coll = mpi
            .iallreduce(&mine, 32, &INT, ReduceOp::Sum, world)
            .unwrap();
        let left = (me + p - 1) % p;
        let right = (me + 1) % p;
        let r_recv = mpi.irecv(32, &INT, left as i32, 7, world).unwrap();
        let r_send = mpi.isend(&mine, 32, &INT, right, 7, world).unwrap();

        let mut coll_buf = vec![0u8; 128];
        let mut recv_buf = vec![0u8; 128];
        let st = mpi
            .waitall(
                vec![r_coll, r_recv, r_send],
                vec![Some(&mut coll_buf[..]), Some(&mut recv_buf[..]), None],
            )
            .unwrap();
        assert_eq!(st[1].source, left);

        let want: Vec<i32> = (0..32)
            .map(|i| (0..p as i32).map(|r| r << (8 + i % 3)).sum())
            .collect();
        assert_eq!(to_ints(&coll_buf), want, "allreduce payload");
        let want_recv: Vec<i32> = (0..32).map(|i| (left as i32) << (8 + i % 3)).collect();
        assert_eq!(to_ints(&recv_buf), want_recv, "neighbor payload");
        mpi.barrier(world).unwrap();
        mpi.now().as_nanos().to_bits()
    });
    // Determinism: the mixed drain must give byte-identical virtual times
    // on a rerun.
    let again = run_mpi(Topology::new(2, 2), Profile::mvapich2(), |mpi: &mut Mpi| {
        let world = mpi.world();
        let me = mpi.rank(world).unwrap();
        let p = mpi.size(world).unwrap();
        let mine = ints(
            &(0..32)
                .map(|i| (me as i32) << (8 + i % 3))
                .collect::<Vec<_>>(),
        );
        let r_coll = mpi
            .iallreduce(&mine, 32, &INT, ReduceOp::Sum, world)
            .unwrap();
        let left = (me + p - 1) % p;
        let right = (me + 1) % p;
        let r_recv = mpi.irecv(32, &INT, left as i32, 7, world).unwrap();
        let r_send = mpi.isend(&mine, 32, &INT, right, 7, world).unwrap();
        let mut coll_buf = [0u8; 128];
        let mut recv_buf = [0u8; 128];
        mpi.waitall(
            vec![r_coll, r_recv, r_send],
            vec![Some(&mut coll_buf[..]), Some(&mut recv_buf[..]), None],
        )
        .unwrap();
        mpi.barrier(world).unwrap();
        mpi.now().as_nanos().to_bits()
    });
    assert_eq!(
        clocks, again,
        "mixed waitall virtual time not deterministic"
    );
}
