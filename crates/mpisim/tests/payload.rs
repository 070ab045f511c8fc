//! The payload free list seen from outside: recycled storage carries the
//! right bytes, small payloads stay off the list, and a rendezvous
//! ping-pong stops allocating once its first round trip has warmed the
//! list.
//!
//! The list is process-wide, so these tests take turns: each holds
//! `SERIAL` while it reads the list's counts.

use std::sync::{Mutex, PoisonError};

use mpisim::engine::Engine;
use mpisim::payload::{list_stats, FLOOR};
use mpisim::{Payload, Profile};
use simfabric::{run_cluster, Topology};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31) ^ salt)
        .collect()
}

#[test]
fn bytes_round_trip_through_recycled_storage() {
    let _turn = serial();
    let len = 3 * FLOOR + 5;
    drop(Payload::copy_from(&pattern(len, 1)));
    let before = list_stats();
    let want = pattern(len, 2);
    let p = Payload::copy_from(&want);
    assert_eq!(
        list_stats().fresh,
        before.fresh,
        "the second payload reused storage"
    );
    assert_eq!(p.len(), len);
    assert_eq!(&p[..], &want[..]);
    // A clone shares the bytes; the last handle gives them back.
    let q = p.clone();
    drop(p);
    assert_eq!(&q[..], &want[..]);
    drop(q);
    assert_eq!(list_stats().cached, before.cached);
}

#[test]
fn zeroed_clears_a_dirty_recycled_buffer() {
    let _turn = serial();
    let len = 2 * FLOOR + 17;
    drop(Payload::copy_from(&vec![0xAB; len]));
    let before = list_stats();
    let z = Payload::zeroed(len);
    assert_eq!(
        list_stats().fresh,
        before.fresh,
        "zeroed reused the dirty buffer"
    );
    assert_eq!(z.len(), len);
    assert!(z.iter().all(|&b| b == 0));
}

#[test]
fn payloads_below_the_floor_never_reach_the_list() {
    let _turn = serial();
    let before = list_stats();
    for len in [0, 1, 100, 16 << 10, FLOOR - 1] {
        let p = Payload::copy_from(&pattern(len, 3));
        let z = Payload::zeroed(len);
        assert_eq!((p.len(), z.len()), (len, len));
        drop((p.clone(), p, z));
    }
    assert_eq!(list_stats(), before);
}

#[test]
fn rendezvous_ping_pong_allocates_nothing_after_its_first_round_trip() {
    let _turn = serial();
    const N: usize = 1 << 20;
    const ROUND_TRIPS: usize = 100;
    let after_first = run_cluster(Topology::new(2, 1), |ep| {
        let mut e = Engine::new(ep, Profile::mvapich2());
        assert!(N > e.path_params(1 - e.rank()).eager_threshold);
        let me = e.rank();
        let msg = pattern(N, me as u8);
        let mut after_first = None;
        for i in 0..ROUND_TRIPS {
            if me == 0 {
                e.send_bytes(&msg, 1, 0, 0).unwrap();
                let (got, _) = e.recv_bytes(N, 1, 0, 0).unwrap();
                assert_eq!(got[N - 1], pattern(N, 1)[N - 1]);
            } else {
                let (got, _) = e.recv_bytes(N, 0, 0, 0).unwrap();
                assert_eq!(&got[..], &pattern(N, 0)[..]);
                drop(got);
                e.send_bytes(&msg, 0, 0, 0).unwrap();
            }
            if i == 0 {
                after_first = Some(list_stats().fresh);
            }
        }
        after_first
    });
    // Rank 0 read the count once its first round trip had completed.
    let after_first = after_first[0].unwrap();
    assert_eq!(
        list_stats().fresh,
        after_first,
        "a large buffer was allocated after the first round trip"
    );
}
