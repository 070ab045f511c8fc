//! The free list's held-bytes count stays exact when the last two
//! handles of shared class storage drop at once on two threads, as the
//! threaded engine's ranks can drop a duplicated frame's clones.
//!
//! The list is process-wide, so this file holds one test: its counts
//! start from an empty list.

use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{mpsc, Arc};
use std::{hint, thread};

use mrt::store::{list_stats, HostBytes, ListStats, FLOOR};

/// Spin until both threads have arrived `arrivals` times in all, so the
/// two drops that follow start as close together as the machine allows.
fn meet(arrived: &AtomicUsize, arrivals: usize) {
    arrived.fetch_add(1, SeqCst);
    while arrived.load(SeqCst) < arrivals {
        hint::spin_loop();
    }
}

#[test]
fn last_handles_dropped_at_once_give_their_storage_back() {
    const ROUNDS: usize = 20_000;
    let arrived = Arc::new(AtomicUsize::new(0));
    let (tx, rx) = mpsc::sync_channel::<HostBytes>(1);
    let peer = {
        let arrived = arrived.clone();
        thread::spawn(move || {
            for (round, clone) in rx.iter().enumerate() {
                meet(&arrived, 4 * round + 2);
                drop(clone);
                meet(&arrived, 4 * round + 4);
            }
        })
    };
    let mut block = 0;
    for round in 0..ROUNDS {
        let bytes = HostBytes::zeroed(FLOOR);
        block = bytes.host_len();
        tx.send(bytes.clone()).unwrap();
        meet(&arrived, 4 * round + 2);
        drop(bytes);
        meet(&arrived, 4 * round + 4);
    }
    drop(tx);
    peer.join().unwrap();
    // Every round's storage went back, so each later round was a hit.
    let want = ListStats {
        fresh: 1,
        cached: 1,
        held_bytes: block,
        peak_held_bytes: block,
    };
    assert_eq!(list_stats(), want);
}
