//! Workspace-level RMA tests: the zero-copy contract for direct-buffer
//! windows (registration cache, no staging traffic), the staged path for
//! array windows, LRU pressure on the pin-down cache, the fence's
//! changed-bytes-only publish (remote deposits survive it), and the typed
//! failure a dead target NIC must surface through an RMA epoch.

use mvapich2j::datatype::{BYTE, INT};
use mvapich2j::{run_job, run_job_with_obs, BindError, DirectBuffer, JArray, JobConfig, Topology};
use simfabric::FaultPlan;

/// Direct-buffer Put over the rendezvous (zero-copy) path: the origin
/// buffer is pinned once, re-used from the registration cache on every
/// later epoch, and the payload never touches the mpjbuf staging pool.
#[test]
fn direct_buffer_put_is_zero_copy_through_the_reg_cache() {
    let n = 64 * 1024usize; // > rma_eager_threshold for every flavor
    let k = (n / 4) as i32;
    let rounds = 4u64;
    let (_, report) =
        run_job_with_obs(JobConfig::mvapich2j(Topology::single_node(2)), move |env| {
            let w = env.world();
            let me = env.rank();
            let peer = 1 - me;
            let buf = env.new_direct(n);
            let origin = env.new_direct(n);
            let win = env.win_create_buffer(buf, w).unwrap();
            for round in 0..rounds as i32 {
                for i in 0..16 {
                    env.direct_put::<i32>(origin, i * 4, round ^ (me as i32) << 8 ^ i as i32)
                        .unwrap();
                }
                env.win_fence(win).unwrap();
                env.put_buffer(win, origin, k, &INT, peer, 0).unwrap();
                env.win_fence(win).unwrap();
                for i in 0..16 {
                    assert_eq!(
                        env.direct_get::<i32>(buf, i * 4).unwrap(),
                        round ^ (peer as i32) << 8 ^ i as i32,
                        "round {round} word {i}"
                    );
                }
            }
            env.win_free(win).unwrap();
        });
    let pvars = report.merged_pvars();
    let msgs = 2 * rounds;
    assert_eq!(pvars.counter("rma.put.msgs"), msgs);
    assert_eq!(
        pvars.counter("rma.put.eager"),
        0,
        "64 KiB puts must take the rendezvous path"
    );
    assert_eq!(pvars.counter("rma.put.zcopy"), msgs);
    // One pin per rank (first epoch), cache hits ever after.
    assert_eq!(pvars.counter("rma.reg.miss"), 2);
    assert_eq!(pvars.counter("rma.reg.hit"), msgs - 2);
    assert_eq!(pvars.counter("rma.reg.evict"), 0);
    // The zero-copy contract: no staging buffer was ever requested.
    assert_eq!(pvars.counter("mpjbuf.pool.hits"), 0);
    assert_eq!(pvars.counter("mpjbuf.pool.misses"), 0);
    assert_eq!(pvars.counter("mpjbuf.pool.fallback_allocs"), 0);
}

/// The same workload over array windows must stage: GC-movable storage
/// is gathered into a pooled pinned buffer before it hits the NIC.
#[test]
fn array_window_put_stages_through_the_pool() {
    let elems = 16 * 1024usize;
    let (_, report) =
        run_job_with_obs(JobConfig::mvapich2j(Topology::single_node(2)), move |env| {
            let w = env.world();
            let me = env.rank() as i32;
            let peer = (1 - me) as usize;
            let arr = env.new_array::<i32>(elems).unwrap();
            let origin = env.new_array::<i32>(elems).unwrap();
            let win = env.win_create_array(arr, w).unwrap();
            let vals: Vec<i32> = (0..elems as i32).map(|i| me << 20 | i).collect();
            env.array_write(origin, 0, &vals).unwrap();
            env.win_fence(win).unwrap();
            env.put_array(win, origin, elems as i32, peer, 0).unwrap();
            env.win_fence(win).unwrap();
            let mut got = vec![0i32; elems];
            env.array_read(arr, 0, &mut got).unwrap();
            for (i, v) in got.iter().enumerate() {
                assert_eq!(*v, (1 - me) << 20 | i as i32, "word {i}");
            }
            env.win_free(win).unwrap();
        });
    let pvars = report.merged_pvars();
    assert_eq!(pvars.counter("rma.put.msgs"), 2);
    assert!(
        pvars.counter("mpjbuf.pool.hits") + pvars.counter("mpjbuf.pool.misses") > 0,
        "array origins must stage through the pool"
    );
    assert_eq!(
        pvars.counter("mpjbuf.pool.releases"),
        pvars.counter("mpjbuf.pool.hits") + pvars.counter("mpjbuf.pool.misses"),
        "every staging buffer goes back to the pool"
    );
}

/// More pinned regions than the cache holds: the LRU entry is unpinned
/// and `rma.reg.evict` accounts for it.
#[test]
fn reg_cache_evicts_lru_under_pressure() {
    let n = 16 * 1024usize; // > threshold, so every region registers
    let regions = 68usize; // REG_CACHE_REGIONS is 64
    let (_, report) =
        run_job_with_obs(JobConfig::mvapich2j(Topology::single_node(2)), move |env| {
            let w = env.world();
            let me = env.rank();
            let peer = 1 - me;
            let buf = env.new_direct(n);
            let win = env.win_create_buffer(buf, w).unwrap();
            env.win_fence(win).unwrap();
            for _ in 0..regions {
                let origin = env.new_direct(n);
                env.put_buffer(win, origin, (n / 4) as i32, &INT, peer, 0)
                    .unwrap();
            }
            env.win_fence(win).unwrap();
            env.win_free(win).unwrap();
        });
    let pvars = report.merged_pvars();
    assert_eq!(pvars.counter("rma.reg.miss"), 2 * regions as u64);
    assert_eq!(pvars.counter("rma.reg.hit"), 0);
    assert_eq!(
        pvars.counter("rma.reg.evict"),
        2 * (regions as u64 - 64),
        "regions beyond capacity must evict the LRU pin"
    );
}

/// A traced `osu_put_latency` run must attribute one-sided time: the
/// analyzer's `rma` category (registration + epoch waits) owns a slice
/// of wall time and the series itself still measures.
#[test]
fn rma_time_shows_up_in_attribution() {
    use ombj::{run_with_obs, Api, BenchOptions, Benchmark, Library, RunSpec};
    let spec = RunSpec {
        library: Library::Mvapich2J,
        benchmark: Benchmark::PutLatency,
        api: Api::Buffer,
        topo: Topology::single_node(2),
        opts: BenchOptions {
            max_size: 1 << 14,
            ..BenchOptions::quick()
        },
        faults: None,
        engine: simfabric::EngineMode::Threaded,
    };
    let (series, report) = run_with_obs(spec, obs::ObsOptions::traced());
    let s = series.expect("put_latency runs");
    assert!(s.points.iter().all(|p| p.value > 0.0));
    let a = obs::analyze::analyze(&report);
    assert!(!a.buckets.is_empty());
    assert!(
        a.category_share_pct("rma") > 0.0,
        "registration and epoch waits must land in the rma category:\n{}",
        a.render_text()
    );
    assert!(
        a.render_text().contains("rma%"),
        "report grows an rma column"
    );
}

/// The kind of user storage behind a window.
#[derive(Clone, Copy, Debug)]
enum WinKind {
    Buffer,
    Array,
}

/// The user storage behind a window: a direct buffer or a `byte[]`.
#[derive(Clone, Copy)]
enum Storage {
    Buffer(DirectBuffer),
    Array(JArray<i8>),
}

/// Rank 1's window bytes after one fence epoch in which rank 0 puts
/// `PUT` into bytes `[8, 24)` of it, while rank 1 itself writes `LOCAL`
/// into bytes `[0, 8)` — the same 64-byte span — and writes byte 12 back
/// to the value it already holds. With `barrier_after_put`, a barrier
/// between the put and rank 1's writes (and one before the put) makes the
/// put land in the NIC view before rank 1's closing fence publishes its
/// writes; without them, the put is applied during the fence.
fn window_after_put_beside_local_write(kind: WinKind, barrier_after_put: bool) -> Vec<u8> {
    let results = run_job(JobConfig::mvapich2j(Topology::single_node(2)), move |env| {
        let w = env.world();
        let me = env.rank();
        let init: Vec<i8> = (0..WIN).map(|i| initial_byte(i) as i8).collect();
        let (win, storage) = match kind {
            WinKind::Buffer => {
                let buf = env.new_direct(WIN);
                for (i, &v) in init.iter().enumerate() {
                    env.direct_put(buf, i, v).unwrap();
                }
                (env.win_create_buffer(buf, w).unwrap(), Storage::Buffer(buf))
            }
            WinKind::Array => {
                let arr = env.new_array::<i8>(WIN).unwrap();
                env.array_write(arr, 0, &init).unwrap();
                (env.win_create_array(arr, w).unwrap(), Storage::Array(arr))
            }
        };
        env.win_fence(win).unwrap();
        if barrier_after_put {
            // Rank 1 has opened the epoch once it enters this barrier, so
            // the put below is applied on arrival instead of being parked
            // until the closing fence.
            env.barrier(w).unwrap();
        }
        if me == 0 {
            let put: Vec<i8> = PUT.iter().map(|&b| b as i8).collect();
            match kind {
                WinKind::Buffer => {
                    let origin = env.new_direct(PUT.len());
                    for (i, &v) in put.iter().enumerate() {
                        env.direct_put(origin, i, v).unwrap();
                    }
                    env.put_buffer(win, origin, PUT.len() as i32, &BYTE, 1, 8)
                        .unwrap();
                }
                WinKind::Array => {
                    let origin = env.new_array::<i8>(PUT.len()).unwrap();
                    env.array_write(origin, 0, &put).unwrap();
                    env.put_array(win, origin, PUT.len() as i32, 1, 8).unwrap();
                }
            }
        }
        if barrier_after_put {
            env.barrier(w).unwrap();
        }
        if me == 1 {
            let local: Vec<i8> = LOCAL.iter().map(|&b| b as i8).collect();
            let same = initial_byte(12) as i8;
            match storage {
                Storage::Buffer(buf) => {
                    for (i, &v) in local.iter().enumerate() {
                        env.direct_put(buf, i, v).unwrap();
                    }
                    env.direct_put(buf, 12, same).unwrap();
                }
                Storage::Array(arr) => {
                    env.array_write(arr, 0, &local).unwrap();
                    env.array_set(arr, 12, same).unwrap();
                }
            }
        }
        env.win_fence(win).unwrap();
        let mut out = vec![0i8; WIN];
        match storage {
            Storage::Buffer(buf) => {
                for (i, v) in out.iter_mut().enumerate() {
                    *v = env.direct_get(buf, i).unwrap();
                }
            }
            Storage::Array(arr) => env.array_read(arr, 0, &mut out).unwrap(),
        }
        env.win_free(win).unwrap();
        out.into_iter().map(|b| b as u8).collect::<Vec<u8>>()
    });
    results.into_iter().nth(1).unwrap()
}

/// Window size of the fence-deposit tests: one 64-byte span.
const WIN: usize = 64;
/// Rank 1's local write into bytes `[0, 8)` of its own window.
const LOCAL: [u8; 8] = [0xa0, 0xa1, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7];
/// Rank 0's put into bytes `[8, 24)` of rank 1's window.
const PUT: [u8; 16] = [
    0xc0, 0xc1, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7, 0xc8, 0xc9, 0xca, 0xcb, 0xcc, 0xcd, 0xce, 0xcf,
];

/// The window's bytes before the epoch.
fn initial_byte(i: usize) -> u8 {
    (i as u8).wrapping_mul(7) ^ 0x5a
}

/// What rank 1 must read after the closing fence: its own write, the
/// put, and the untouched rest.
fn expected_window() -> Vec<u8> {
    let mut want: Vec<u8> = (0..WIN).map(initial_byte).collect();
    want[..8].copy_from_slice(&LOCAL);
    want[8..24].copy_from_slice(&PUT);
    want
}

/// The put lands in rank 1's NIC view before rank 1's closing fence: the
/// fence's publish must write only the bytes rank 1 changed, and a byte
/// written back to its old value is not a change, so the put survives.
#[test]
fn fence_publish_keeps_a_put_that_landed_first() {
    for kind in [WinKind::Buffer, WinKind::Array] {
        assert_eq!(
            window_after_put_beside_local_write(kind, true),
            expected_window(),
            "{kind:?} window"
        );
    }
}

/// Without the barrier, the put is applied during the closing fence,
/// after rank 1's publish: the window still holds both writes.
#[test]
fn fence_merges_a_put_applied_during_the_fence() {
    for kind in [WinKind::Buffer, WinKind::Array] {
        assert_eq!(
            window_after_put_beside_local_write(kind, false),
            expected_window(),
            "{kind:?} window"
        );
    }
}

/// A target whose NIC dies mid-epoch (the rank stops progressing, its
/// RDMA completions never come back) must surface as a typed
/// `RankFailed` from the origin's closing fence within the watchdog
/// bound — not hang the epoch forever.
#[test]
fn dead_target_nic_surfaces_rank_failed_within_watchdog() {
    let mut plan = FaultPlan::new(0);
    // The crash entry arms the watchdog; the crash time is never reached
    // in virtual time, so rank 1's death below is purely a simulated NIC
    // failure (it returns early and stops serving one-sided traffic).
    plan.crash = Some((1, 1e15));
    plan.watchdog_ms = 100;
    plan.rto_ns = 50.0;
    plan.max_retries = 3;
    let results = run_job(
        JobConfig::mvapich2j(Topology::single_node(2)).with_faults(plan),
        |env| {
            let w = env.world();
            env.native_mut()
                .set_errhandler(w, mpisim::Errhandler::ErrorsReturn)
                .unwrap();
            let me = env.rank();
            let buf = env.new_direct(64 * 4);
            let win = env.win_create_buffer(buf, w).unwrap();
            env.win_fence(win).unwrap();
            if me == 1 {
                // Dead NIC: never serve the GetReq, never join the
                // closing fence.
                return None;
            }
            let started = std::time::Instant::now();
            let dest = env.new_direct(64 * 4);
            let err = env
                .get_buffer(win, dest, 64, &INT, 1, 0)
                .and_then(|_| env.win_fence(win))
                .unwrap_err();
            assert!(
                started.elapsed().as_millis() < 5_000,
                "watchdog must fire near its bound"
            );
            Some(err)
        },
    );
    assert_eq!(
        results[0],
        Some(BindError::Mpi(mpisim::MpiError::RankFailed { rank: 1 })),
        "origin must see the dead target as a typed rank failure"
    );
    assert_eq!(results[1], None);
}

/// A local store and a put that hit the same byte in one epoch is
/// erroneous under MPI. The simulator resolves it for the deposit: the
/// closing fence publishes the owner's image everywhere except the byte
/// ranges remote deposits wrote (DESIGN.md §11), whether the put landed
/// before the fence or during it. Bytes outside the put keep the store.
#[test]
fn a_put_wins_over_a_local_store_to_the_same_bytes() {
    for kind in [WinKind::Buffer, WinKind::Array] {
        for put_lands_first in [true, false] {
            let results = run_job(JobConfig::mvapich2j(Topology::single_node(2)), move |env| {
                let w = env.world();
                let (win, storage) = match kind {
                    WinKind::Buffer => {
                        let buf = env.new_direct(WIN);
                        (env.win_create_buffer(buf, w).unwrap(), Storage::Buffer(buf))
                    }
                    WinKind::Array => {
                        let arr = env.new_array::<i8>(WIN).unwrap();
                        (env.win_create_array(arr, w).unwrap(), Storage::Array(arr))
                    }
                };
                env.win_fence(win).unwrap();
                if put_lands_first {
                    env.barrier(w).unwrap();
                }
                if env.rank() == 0 {
                    let origin = env.new_direct(PUT.len());
                    for (i, &v) in PUT.iter().enumerate() {
                        env.direct_put(origin, i, v as i8).unwrap();
                    }
                    env.put_buffer(win, origin, PUT.len() as i32, &BYTE, 1, 8)
                        .unwrap();
                }
                if put_lands_first {
                    env.barrier(w).unwrap();
                }
                // Rank 1 stores 0xee into bytes [4, 12): half beside the
                // put, half under it.
                let store = [0xeeu8 as i8; 8];
                if env.rank() == 1 {
                    match storage {
                        Storage::Buffer(buf) => {
                            for (i, &v) in store.iter().enumerate() {
                                env.direct_put(buf, 4 + i, v).unwrap();
                            }
                        }
                        Storage::Array(arr) => env.array_write(arr, 4, &store).unwrap(),
                    }
                }
                env.win_fence(win).unwrap();
                let mut out = vec![0i8; WIN];
                match storage {
                    Storage::Buffer(buf) => {
                        for (i, v) in out.iter_mut().enumerate() {
                            *v = env.direct_get(buf, i).unwrap();
                        }
                    }
                    Storage::Array(arr) => env.array_read(arr, 0, &mut out).unwrap(),
                }
                env.win_free(win).unwrap();
                out.into_iter().map(|b| b as u8).collect::<Vec<u8>>()
            });
            let mut want = vec![0u8; WIN];
            want[4..8].fill(0xee);
            want[8..24].copy_from_slice(&PUT);
            assert_eq!(
                results[1], want,
                "{kind:?} window, put lands first: {put_lands_first}"
            );
        }
    }
}

/// A get whose origin is the window's own direct buffer lands between
/// the fence's publish and its mirror back, so the buffer no longer
/// equals window memory outside the recorded deposits. Such a program
/// is erroneous under MPI (the origin buffer overlaps memory exposed in
/// the same epoch); the fence resolves it by mirroring the whole window
/// back, so the bytes the get wrote give way to the owner's published
/// image, while a put deposited in the same epoch survives.
#[test]
fn a_get_into_the_window_s_own_buffer_gives_way_to_the_window() {
    let results = run_job(JobConfig::mvapich2j(Topology::single_node(2)), |env| {
        let w = env.world();
        let me = env.rank();
        let buf = env.new_direct(WIN);
        for i in 0..WIN {
            env.direct_put(buf, i, (0x10 * (me as i8 + 1)) ^ i as i8)
                .unwrap();
        }
        let win = env.win_create_buffer(buf, w).unwrap();
        env.win_fence(win).unwrap();
        if me == 0 {
            // Rank 1's first 16 bytes, into this window's own buffer.
            env.get_buffer(win, buf, 16, &BYTE, 1, 0).unwrap();
        } else {
            let origin = env.new_direct(PUT.len());
            for (i, &v) in PUT.iter().enumerate() {
                env.direct_put(origin, i, v as i8).unwrap();
            }
            env.put_buffer(win, origin, PUT.len() as i32, &BYTE, 0, 40)
                .unwrap();
        }
        env.win_fence(win).unwrap();
        let out: Vec<u8> = (0..WIN)
            .map(|i| env.direct_get::<i8>(buf, i).unwrap() as u8)
            .collect();
        env.win_free(win).unwrap();
        out
    });
    let mut want: Vec<u8> = (0..WIN).map(|i| 0x10 ^ i as u8).collect();
    want[40..40 + PUT.len()].copy_from_slice(&PUT);
    assert_eq!(results[0], want);
}
