//! Stale recycled bytes cannot leak into what a program sees.
//!
//! Large pool stores, heap objects and engine payloads share one free
//! list, so a pooled store may come back holding what another rank's
//! payload or object last held. Before each array receive, this job
//! fills the list with dirty blocks of the store's class, then checks
//! that every byte outside the received count is what the program left
//! there, and that the received arrays are identical on both engines
//! and across runs. New arrays and direct buffers must still read zero,
//! and a job starts with an empty list.

use mrt::store::{list_stats, HostBytes, FLOOR};
use mvapich2j::{run_job, EngineMode, Env, JobConfig, Topology};

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
}
