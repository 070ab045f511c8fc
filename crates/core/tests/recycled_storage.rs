//! Stale recycled bytes cannot leak into what a program sees.
//!
//! Large pool stores, heap objects and engine payloads share one free
//! list, so a pooled store may come back holding what another rank's
//! payload or object last held. Before each array receive, this job
//! fills the list with dirty blocks of the store's class, then checks
//! that every byte outside the received count is what the program left
//! there, and that the received arrays are identical on both engines
//! and across runs. New arrays and direct buffers must still read zero,
//! and a job starts with an empty list. An array send from the floor up
//! hands its store's storage to the frame, which must keep the sent
//! bytes however the sender reuses the array and the store.

use mrt::store::{list_stats, HostBytes, FLOOR};
use mvapich2j::{run_job, EngineMode, Env, JRequest, JobConfig, Topology};

/// Array length in `i32`s (256 KiB), and the count each call moves.
const LEN: usize = FLOOR;
const COUNT: usize = FLOOR * 5 / 8;

/// Cache dirty blocks in every class a store of this job can take.
fn dirty_the_list() {
    let dirty: Vec<_> = (0..4)
        .flat_map(|_| [FLOOR, 2 * FLOOR, 4 * FLOOR])
        .map(|len| HostBytes::copy_from(&vec![0xEE; len]))
        .collect();
    drop(dirty);
}

fn sent(me: usize, salt: i32) -> Vec<i32> {
    (0..COUNT as i32)
        .map(|i| i.wrapping_mul(7919) ^ ((me as i32 + 1) * salt))
        .collect()
}

/// A fresh array holding the pattern the receive must leave alone.
fn prefilled(env: &mut Env) -> mvapich2j::JArray<i32> {
    let arr = env.new_array::<i32>(LEN).unwrap();
    let seed: Vec<i32> = (0..LEN as i32).map(|i| -i).collect();
    env.array_write(arr, 0, &seed).unwrap();
    arr
}

fn read(env: &mut Env, arr: mvapich2j::JArray<i32>) -> Vec<i32> {
    let mut out = vec![0; LEN];
    env.array_read(arr, 0, &mut out).unwrap();
    out
}

/// Everything a rank received, whole arrays, plus its final clock.
fn job(env: &mut Env) -> (Vec<Vec<i32>>, u64) {
    let w = env.world();
    let me = env.rank();
    let peer = 1 - me;
    let untouched = |got: &[i32], from: usize| {
        got[from..]
            .iter()
            .enumerate()
            .all(|(i, &v)| v == -((from + i) as i32))
    };
    let mut seen = Vec::new();

    // New objects and direct buffers read zero, however dirty the list.
    dirty_the_list();
    let fresh = env.new_array::<i32>(LEN).unwrap();
    assert!(read(env, fresh).iter().all(|&v| v == 0), "new array");
    let direct = env.new_direct(4 * LEN);
    let zeros = (0..LEN).all(|i| env.direct_get::<i32>(direct, 4 * i).unwrap() == 0);
    assert!(zeros, "new direct buffer");

    // A receive of COUNT elements into a longer array, twice: the second
    // one's store is a pool hit.
    for round in 0..2 {
        let src = env.new_array::<i32>(COUNT).unwrap();
        env.array_write(src, 0, &sent(me, round + 1)).unwrap();
        let dst = prefilled(env);
        dirty_the_list();
        if me == 0 {
            env.send_array(src, COUNT as i32, peer, 0, w).unwrap();
            env.recv_array(dst, COUNT as i32, peer as i32, 0, w)
                .unwrap();
        } else {
            env.recv_array(dst, COUNT as i32, peer as i32, 0, w)
                .unwrap();
            env.send_array(src, COUNT as i32, peer, 0, w).unwrap();
        }
        let got = read(env, dst);
        assert_eq!(got[..COUNT], sent(peer, round + 1)[..], "recv {round}");
        assert!(untouched(&got, COUNT), "recv {round} wrote past its count");
        seen.push(got);
    }

    // Non-blocking receives completed by `wait` and `waitall`.
    seen.push(completed_receive(env, "wait", 10));
    seen.push(completed_receive(env, "waitall", 11));

    // A vectored receive of two blocks of `half`, at 0 and at 2 * half:
    // the gap between them and the tail after them keep their bytes.
    let half = COUNT / 2;
    let src = env.new_array::<i32>(half).unwrap();
    env.array_write(src, 0, &sent(me, 3)[..half]).unwrap();
    let dst = prefilled(env);
    dirty_the_list();
    let displs = [0, 2 * half as i32];
    env.allgatherv_array(src, half as i32, dst, &[half as i32; 2], &displs, w)
        .unwrap();
    let got = read(env, dst);
    assert_eq!(got[..half], sent(0, 3)[..half], "allgatherv block 0");
    assert!(untouched(&got[..2 * half], half), "allgatherv gap");
    assert_eq!(got[2 * half..3 * half], sent(1, 3)[..half], "block 1");
    assert!(untouched(&got, 3 * half), "allgatherv tail");
    seen.push(got);

    // An array get of COUNT elements from the peer's window.
    let exposed = env.new_array::<i32>(COUNT).unwrap();
    env.array_write(exposed, 0, &sent(me, 4)).unwrap();
    let win = env.win_create_array(exposed, w).unwrap();
    let dst = prefilled(env);
    env.win_fence(win).unwrap();
    dirty_the_list();
    env.get_array(win, dst, COUNT as i32, peer, 0).unwrap();
    env.win_fence(win).unwrap();
    env.win_free(win).unwrap();
    let got = read(env, dst);
    assert_eq!(got[..COUNT], sent(peer, 4)[..], "get");
    assert!(untouched(&got, COUNT), "get wrote past its count");
    seen.push(got);

    (seen, env.now().as_nanos() as u64)
}

/// A non-blocking array receive of COUNT elements into a longer array,
/// completed by the call `how` names, with a dirtied list: the payload is
/// scattered straight out of the frame, and only the received count.
fn completed_receive(env: &mut Env, how: &str, salt: i32) -> Vec<i32> {
    let w = env.world();
    let me = env.rank();
    let peer = 1 - me;
    let src = env.new_array::<i32>(COUNT).unwrap();
    env.array_write(src, 0, &sent(me, salt)).unwrap();
    let dst = prefilled(env);
    dirty_the_list();
    let recv = env
        .irecv_array(dst, COUNT as i32, peer as i32, 1, w)
        .unwrap();
    let send = env.isend_array(src, COUNT as i32, peer, 1, w).unwrap();
    complete(env, how, recv);
    env.wait(send).unwrap();
    let got = read(env, dst);
    assert_eq!(got[..COUNT], sent(peer, salt)[..], "{how}");
    let untouched = got[COUNT..]
        .iter()
        .enumerate()
        .all(|(i, &v)| v == -((COUNT + i) as i32));
    assert!(untouched, "{how} wrote past its count");
    got
}

/// Complete `req` through the named completion call.
fn complete(env: &mut Env, how: &str, req: JRequest) {
    match how {
        "wait" => drop(env.wait(req).unwrap()),
        "waitall" => drop(env.waitall(vec![req]).unwrap()),
        "test" => {
            let mut req = req;
            loop {
                match env.test(req).unwrap() {
                    mvapich2j::TestOutcome::Done(_) => break,
                    mvapich2j::TestOutcome::Pending(r) => req = r,
                }
            }
        }
        _ => {
            let mut reqs = vec![req];
            while env.testany(&mut reqs).unwrap().is_none() {}
        }
    }
}

/// Rank 0 sends three arrays of `n` elements to rank 1 (tags 1, 2, 3);
/// rank 1 receives tag 2 first. Before rank 1 posts tag 1, rank 0 has
/// rewritten the source array twice and staged tag 3 into the very store
/// tag 2 handed over (a pool hit), whose frame rank 1 may not have
/// consumed yet. Every message must arrive as it was sent.
fn reuse(env: &mut Env, n: usize) -> Vec<Vec<i32>> {
    let w = env.world();
    let pattern = |k: i32| -> Vec<i32> {
        (0..n as i32)
            .map(|i| i.wrapping_mul(31) ^ (k << 20))
            .collect()
    };
    let mut got = Vec::new();
    if env.rank() == 0 {
        let a = env.new_array::<i32>(n).unwrap();
        env.array_write(a, 0, &pattern(1)).unwrap();
        let r1 = env.isend_array(a, n as i32, 1, 1, w).unwrap();
        env.array_write(a, 0, &pattern(2)).unwrap();
        let r2 = env.isend_array(a, n as i32, 1, 2, w).unwrap();
        env.wait(r2).unwrap();
        env.array_write(a, 0, &pattern(3)).unwrap();
        let hits = env.pool_stats().hits;
        let r3 = env.isend_array(a, n as i32, 1, 3, w).unwrap();
        assert_eq!(
            env.pool_stats().hits,
            hits + 1,
            "tag 3 reuses tag 2's store"
        );
        env.wait(r1).unwrap();
        env.wait(r3).unwrap();
    } else {
        for tag in [2, 1, 3] {
            let dst = env.new_array::<i32>(n).unwrap();
            env.recv_array(dst, n as i32, 0, tag, w).unwrap();
            let mut out = vec![0; n];
            env.array_read(dst, 0, &mut out).unwrap();
            assert!(out == pattern(tag), "{n} elements, tag {tag}");
            got.push(out);
        }
    }
    got
}

#[test]
fn recycled_stores_leak_no_stale_bytes_on_either_engine() {
    let cfg = JobConfig::mvapich2j(Topology::new(2, 1));
    // A job starts with an empty list: what earlier work cached is freed.
    dirty_the_list();
    assert_eq!(run_job(cfg, |_| list_stats().cached), [0, 0]);
    let runs: Vec<_> = [EngineMode::Threaded, EngineMode::EventDriven]
        .into_iter()
        .flat_map(|engine| [engine, engine])
        .map(|engine| run_job(cfg.with_engine(engine), job))
        .collect();
    for (i, run) in runs.iter().enumerate() {
        assert_eq!(run, &runs[0], "run {i} differs from the first threaded run");
    }
    // `test` and `testany` poll, and each poll is a charged call, so only
    // what they receive repeats across runs, not the clock.
    let polled = |env: &mut Env| {
        let test = completed_receive(env, "test", 12);
        [test, completed_receive(env, "testany", 13)]
    };
    let runs: Vec<_> = [EngineMode::Threaded, EngineMode::EventDriven]
        .into_iter()
        .map(|engine| run_job(cfg.with_engine(engine), polled))
        .collect();
    assert_eq!(runs[0], runs[1], "test/testany differ across engines");
    // Handed-over stores (64 KiB and 256 KiB messages). One test, not
    // two: the list is process-wide, and the empty-start check above
    // must not see another test's blocks.
    for engine in [EngineMode::Threaded, EngineMode::EventDriven] {
        for n in [FLOOR / 4, FLOOR] {
            run_job(cfg.with_engine(engine), |env| reuse(env, n));
        }
    }
}
