//! One free list behind every large host block: an ascending size sweep
//! that mixes managed arrays, parked pool stores and engine payloads
//! keeps only the class it has reached, and never more of it than were
//! live at once.
//!
//! The list is process-wide, so this file holds one test: its counts
//! start from an empty list.

use mpisim::Payload;
use mpjbuf::BufferPool;
use mrt::store::{list_stats, FLOOR};
use mrt::{JArray, Runtime};
use vtime::{Clock, CostModel};

#[test]
fn an_ascending_sweep_of_arrays_stores_and_payloads_keeps_only_the_top_class_within_its_peak() {
    let mut clock = Clock::new();
    // A 1 MiB heap: the sweep allocates and releases far more than that.
    let mut rt = Runtime::with_heap(CostModel::default(), 1 << 20, 64 << 20);
    let mut pool = BufferPool::new();
    // Per class from the floor up (64 KiB … 4 MiB): how many arrays, pool
    // stores and payloads are live at once.
    let live = [
        (1, 1, 1),
        (2, 0, 1),
        (0, 2, 2),
        (1, 1, 1),
        (3, 1, 1),
        (1, 2, 1),
        (1, 1, 1),
    ];
    assert_eq!(list_stats().held_bytes, 0, "the list starts empty");
    let mut peak_held = 0;
    for (class, &(arrays, stores, payloads)) in live.iter().enumerate() {
        let len = FLOOR << class;
        let peak = arrays + stores + payloads;
        let before = list_stats();
        let mut block = 0;
        // Twice per size, as a sweep's iterations would.
        for _ in 0..2 {
            let a: Vec<JArray<i8>> = (0..arrays)
                .map(|_| rt.alloc_array(len, &mut clock).unwrap())
                .collect();
            let s: Vec<_> = (0..stores)
                .map(|_| pool.acquire(&mut rt, &mut clock, len))
                .collect();
            let p: Vec<_> = (0..payloads).map(|_| Payload::zeroed(len)).collect();
            block = p[0].host_len();
            for arr in a {
                rt.release_array(arr).unwrap();
            }
            for buf in s {
                pool.release(&mut rt, &mut clock, buf);
            }
        }
        let after = list_stats();
        assert_eq!(
            after.fresh - before.fresh,
            peak as u64,
            "class {class}: one miss per block of its peak, none on the repeat"
        );
        assert_eq!(after.cached, peak, "class {class}: cached blocks");
        assert_eq!(
            after.held_bytes,
            peak * block,
            "class {class}: only this class is held, within its peak"
        );
        peak_held = peak_held.max(peak * block);
        // The parked stores hold no bytes of their own.
        assert_eq!(rt.host_bytes(), 0, "class {class}: runtime host bytes");
    }
    assert_eq!(list_stats().peak_held_bytes, peak_held);
    assert!(rt.gc_stats().collections > 0, "the sweep ran the collector");
}
