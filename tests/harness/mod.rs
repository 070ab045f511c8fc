//! Shared seeded-LCG conformance generator (split out of
//! `tests/conformance.rs` so the engine-differential tier can drive the
//! exact same drawn cases through both cluster engines).
//!
//! A seeded LCG draws random collectives, message sizes, roots, reduce
//! ops, and communicator splits; every drawn case runs through the
//! bindings (blocking *and* non-blocking, buffer *and* array flavor) and
//! is checked against a naive flat reference computed in plain Rust from
//! the deterministic per-rank inputs. The RMA half replays four
//! one-sided epochs (put-fence, accumulate, get, passive lock/unlock)
//! against the same kind of pure reference.
#![allow(dead_code)] // each test binary uses its own subset

use mvapich2j::datatype::INT;
use mvapich2j::{Env, ReduceOp};

pub mod pins;

/// Deterministic generator shared by every rank (same draws everywhere).
pub struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The value rank `rank` contributes at element `i` of trial `t` —
/// pure function, so the reference needs no communication.
pub fn input(seed: u64, t: u64, rank: usize, i: usize) -> i32 {
    let v = seed
        .wrapping_mul(0x2545_F491_4F6C_DD1D)
        .wrapping_add(t.wrapping_mul(0x9E37_79B9))
        .wrapping_add((rank as u64) << 17)
        .wrapping_add(i as u64 * 0x45D9_F3B3);
    (v ^ (v >> 29)) as i32
}

pub fn apply(op: ReduceOp, a: i32, b: i32) -> i32 {
    match op {
        ReduceOp::Sum => a.wrapping_add(b),
        ReduceOp::Min => a.min(b),
        ReduceOp::Max => a.max(b),
        _ => a | b, // Bor — the only other op the harness draws
    }
}

pub fn fnv(digest: &mut u64, vals: &[i32]) {
    for v in vals {
        for b in v.to_le_bytes() {
            *digest ^= b as u64;
            *digest = digest.wrapping_mul(0x100_0000_01b3);
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub enum Kind {
    Bcast,
    Allreduce,
    Allgather,
    Gather,
    Alltoall,
    Barrier,
}

pub const KINDS: [Kind; 6] = [
    Kind::Bcast,
    Kind::Allreduce,
    Kind::Allgather,
    Kind::Gather,
    Kind::Alltoall,
    Kind::Barrier,
];
pub const OPS: [ReduceOp; 4] = [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max, ReduceOp::Bor];

/// Write `vals` into a fresh buffer/array pair for the trial.
pub fn write_input(env: &mut Env, arrays: bool, vals: &[i32]) -> Io {
    if arrays {
        let arr = env.new_array::<i32>(vals.len().max(1)).unwrap();
        env.array_write(arr, 0, vals).unwrap();
        Io::Arr(arr)
    } else {
        let buf = env.new_direct((vals.len() * 4).max(4));
        for (i, v) in vals.iter().enumerate() {
            env.direct_put::<i32>(buf, i * 4, *v).unwrap();
        }
        Io::Buf(buf)
    }
}

pub fn alloc_out(env: &mut Env, arrays: bool, elems: usize) -> Io {
    if arrays {
        Io::Arr(env.new_array::<i32>(elems.max(1)).unwrap())
    } else {
        Io::Buf(env.new_direct((elems * 4).max(4)))
    }
}

pub fn read_out(env: &mut Env, io: &Io, elems: usize) -> Vec<i32> {
    match io {
        Io::Arr(arr) => {
            let mut out = vec![0i32; elems];
            env.array_read(*arr, 0, &mut out).unwrap();
            out
        }
        Io::Buf(buf) => (0..elems)
            .map(|i| env.direct_get::<i32>(*buf, i * 4).unwrap())
            .collect(),
    }
}

pub enum Io {
    Buf(mvapich2j::DirectBuffer),
    Arr(mvapich2j::JArray<i32>),
}

/// Run one drawn case on `comm` (whose members are the world ranks in
/// `members`); returns the validated local result (empty for barrier or
/// a non-root gather).
#[allow(clippy::too_many_arguments)]
pub fn run_case(
    env: &mut Env,
    comm: mvapich2j::CommHandle,
    members: &[usize],
    kind: Kind,
    nonblocking: bool,
    arrays: bool,
    count: usize,
    root: usize,
    op: ReduceOp,
    seed: u64,
    t: u64,
) -> Vec<i32> {
    let w = env.world();
    let me_world = env.rank();
    let me = members.iter().position(|&r| r == me_world).unwrap();
    let p = members.len();
    let n = count as i32;
    let mine: Vec<i32> = (0..count).map(|i| input(seed, t, me_world, i)).collect();
    let _ = w;

    let (got, expect): (Vec<i32>, Vec<i32>) = match kind {
        Kind::Barrier => {
            if nonblocking {
                let req = env.ibarrier(comm).unwrap();
                env.wait(req).unwrap();
            } else {
                env.barrier(comm).unwrap();
            }
            (Vec::new(), Vec::new())
        }
        Kind::Bcast => {
            let root_vals: Vec<i32> = (0..count)
                .map(|i| input(seed, t, members[root], i))
                .collect();
            let zeros = vec![0; count];
            let io = write_input(env, arrays, if me == root { &mine } else { &zeros });
            match (&io, nonblocking) {
                (Io::Buf(b), false) => env.bcast_buffer(*b, n, &INT, root, comm).unwrap(),
                (Io::Arr(a), false) => env.bcast_array(*a, n, root, comm).unwrap(),
                (Io::Buf(b), true) => {
                    let req = env.ibcast_buffer(*b, n, &INT, root, comm).unwrap();
                    env.wait(req).unwrap();
                }
                (Io::Arr(a), true) => {
                    let req = env.ibcast_array(*a, n, root, comm).unwrap();
                    env.wait(req).unwrap();
                }
            }
            (read_out(env, &io, count), root_vals)
        }
        Kind::Allreduce => {
            let expect: Vec<i32> = (0..count)
                .map(|i| {
                    members
                        .iter()
                        .map(|&r| input(seed, t, r, i))
                        .reduce(|a, b| apply(op, a, b))
                        .unwrap()
                })
                .collect();
            let send = write_input(env, arrays, &mine);
            let recv = alloc_out(env, arrays, count);
            match (&send, &recv, nonblocking) {
                (Io::Buf(s), Io::Buf(r), false) => {
                    env.allreduce_buffer(*s, *r, n, &INT, op, comm).unwrap()
                }
                (Io::Arr(s), Io::Arr(r), false) => {
                    env.allreduce_array(*s, *r, n, op, comm).unwrap()
                }
                (Io::Buf(s), Io::Buf(r), true) => {
                    let req = env.iallreduce_buffer(*s, *r, n, &INT, op, comm).unwrap();
                    env.wait(req).unwrap();
                }
                (Io::Arr(s), Io::Arr(r), true) => {
                    let req = env.iallreduce_array(*s, *r, n, op, comm).unwrap();
                    env.wait(req).unwrap();
                }
                _ => unreachable!(),
            }
            (read_out(env, &recv, count), expect)
        }
        Kind::Allgather => {
            let expect: Vec<i32> = members
                .iter()
                .flat_map(|&r| (0..count).map(move |i| input(seed, t, r, i)))
                .collect();
            let send = write_input(env, arrays, &mine);
            let recv = alloc_out(env, arrays, count * p);
            match (&send, &recv, nonblocking) {
                (Io::Buf(s), Io::Buf(r), false) => {
                    env.allgather_buffer(*s, *r, n, &INT, comm).unwrap()
                }
                (Io::Arr(s), Io::Arr(r), false) => env.allgather_array(*s, *r, n, comm).unwrap(),
                (Io::Buf(s), Io::Buf(r), true) => {
                    let req = env.iallgather_buffer(*s, *r, n, &INT, comm).unwrap();
                    env.wait(req).unwrap();
                }
                (Io::Arr(s), Io::Arr(r), true) => {
                    let req = env.iallgather_array(*s, *r, n, comm).unwrap();
                    env.wait(req).unwrap();
                }
                _ => unreachable!(),
            }
            (read_out(env, &recv, count * p), expect)
        }
        Kind::Gather => {
            let expect: Vec<i32> = if me == root {
                members
                    .iter()
                    .flat_map(|&r| (0..count).map(move |i| input(seed, t, r, i)))
                    .collect()
            } else {
                Vec::new()
            };
            let send = write_input(env, arrays, &mine);
            let recv = (me == root).then(|| alloc_out(env, arrays, count * p));
            match (&send, nonblocking) {
                (Io::Buf(s), false) => {
                    let out = recv.as_ref().map(|io| match io {
                        Io::Buf(b) => *b,
                        _ => unreachable!(),
                    });
                    env.gather_buffer(*s, out, n, &INT, root, comm).unwrap();
                }
                (Io::Arr(s), false) => {
                    let out = recv.as_ref().map(|io| match io {
                        Io::Arr(a) => *a,
                        _ => unreachable!(),
                    });
                    env.gather_array(*s, out, n, root, comm).unwrap();
                }
                (Io::Buf(s), true) => {
                    let out = recv.as_ref().map(|io| match io {
                        Io::Buf(b) => *b,
                        _ => unreachable!(),
                    });
                    let req = env.igather_buffer(*s, out, n, &INT, root, comm).unwrap();
                    env.wait(req).unwrap();
                }
                (Io::Arr(s), true) => {
                    let out = recv.as_ref().map(|io| match io {
                        Io::Arr(a) => *a,
                        _ => unreachable!(),
                    });
                    let req = env.igather_array(*s, out, n, root, comm).unwrap();
                    env.wait(req).unwrap();
                }
            }
            match &recv {
                Some(io) => (read_out(env, io, count * p), expect),
                None => (Vec::new(), expect),
            }
        }
        Kind::Alltoall => {
            // Block d of my send buffer goes to comm rank d; block s of
            // my receive holds rank s's block for me.
            let sendv: Vec<i32> = (0..count * p)
                .map(|i| input(seed, t, me_world, i))
                .collect();
            let expect: Vec<i32> = members
                .iter()
                .flat_map(|&r| (0..count).map(move |i| input(seed, t, r, me * count + i)))
                .collect();
            let send = write_input(env, arrays, &sendv);
            let recv = alloc_out(env, arrays, count * p);
            match (&send, &recv, nonblocking) {
                (Io::Buf(s), Io::Buf(r), false) => {
                    env.alltoall_buffer(*s, *r, n, &INT, comm).unwrap()
                }
                (Io::Arr(s), Io::Arr(r), false) => env.alltoall_array(*s, *r, n, comm).unwrap(),
                (Io::Buf(s), Io::Buf(r), true) => {
                    let req = env.ialltoall_buffer(*s, *r, n, &INT, comm).unwrap();
                    env.wait(req).unwrap();
                }
                (Io::Arr(s), Io::Arr(r), true) => {
                    let req = env.ialltoall_array(*s, *r, n, comm).unwrap();
                    env.wait(req).unwrap();
                }
                _ => unreachable!(),
            }
            (read_out(env, &recv, count * p), expect)
        }
    };
    assert_eq!(
        got, expect,
        "trial {t} {kind:?} nb={nonblocking} arrays={arrays} count={count} root={root} op={op:?}"
    );
    got
}

/// The per-rank harness body: `trials` drawn cases, half on a split
/// communicator. Returns (payload digest, final virtual clock bits).
pub fn conformance_body(env: &mut Env, trials: u64, seed: u64, arrays: bool) -> (u64, u64) {
    let w = env.world();
    let p = env.size();
    let me = env.rank();
    // Odd/even split, checked once per job: collectives on a
    // communicator that is not the world must agree with a reference
    // over the member world-ranks.
    let color = (me % 2) as i32;
    let sub = env
        .comm_split(w, color, me as i32)
        .unwrap()
        .expect("color >= 0");
    let world_members: Vec<usize> = (0..p).collect();
    let sub_members: Vec<usize> = (0..p).filter(|r| r % 2 == me % 2).collect();

    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut lcg = Lcg::new(seed);
    for t in 0..trials {
        let kind = KINDS[lcg.pick(KINDS.len())];
        let nonblocking = lcg.pick(2) == 1;
        let use_sub = lcg.pick(4) == 3 && sub_members.len() > 1;
        let (comm, members) = if use_sub {
            (sub, &sub_members)
        } else {
            (w, &world_members)
        };
        let count = [1usize, 3, 16, 128, 1024, 2500][lcg.pick(6)];
        let root = lcg.pick(members.len());
        let op = OPS[lcg.pick(OPS.len())];
        let got = run_case(
            env,
            comm,
            members,
            kind,
            nonblocking,
            arrays,
            count,
            root,
            op,
            seed,
            t,
        );
        fnv(&mut digest, &got);
    }
    env.barrier(w).unwrap();
    (digest, env.now().as_nanos().to_bits())
}

/// Expected window content of rank `r` after each epoch, computed as a
/// pure function (no communication) so every rank can check every
/// window it owns against the same reference.
pub fn rma_reference(p: usize, k: usize, seed: u64, epoch: u32) -> Vec<Vec<i32>> {
    let mut wins = vec![vec![0i32; k * p]; p];
    if epoch >= 1 {
        // Epoch 1: every rank puts its block (at offset me*k) into every
        // window, with target-dependent content.
        for (r, win) in wins.iter_mut().enumerate() {
            for s in 0..p {
                for i in 0..k {
                    win[s * k + i] = input(seed, 100 + r as u64, s, i);
                }
            }
        }
    }
    if epoch >= 2 {
        // Epoch 2: all ranks accumulate Sum into block 0 of rank p-1.
        for i in 0..k {
            let contrib = (0..p)
                .map(|r| input(seed, 200, r, i))
                .fold(0i32, |a, b| a.wrapping_add(b));
            wins[p - 1][i] = wins[p - 1][i].wrapping_add(contrib);
        }
    }
    if epoch >= 4 {
        // Epoch 4 (passive target): rank s locks rank (s+1)%p and puts a
        // fresh block at offset s*k.
        for (r, win) in wins.iter_mut().enumerate() {
            let s = (r + p - 1) % p;
            for i in 0..k {
                win[s * k + i] = input(seed, 300 + r as u64, s, i);
            }
        }
    }
    wins
}

pub enum WinIo {
    Buf(mvapich2j::DirectBuffer),
    Arr(mvapich2j::JArray<i32>),
}

/// Seeded one-sided epochs over the full bindings stack: active-target
/// fence epochs with Put and Accumulate, a Get epoch, and a passive
/// lock/unlock epoch, all checked against [`rma_reference`]. Returns
/// (payload digest, final clock bits) like [`conformance_body`].
pub fn rma_body(env: &mut Env, seed: u64, arrays: bool) -> (u64, u64) {
    let w = env.world();
    let p = env.size();
    let me = env.rank();
    let k = 32usize; // ints per block
    let n = k * p; // window length in ints

    let (win, io) = if arrays {
        let arr = env.new_array::<i32>(n).unwrap();
        (env.win_create_array(arr, w).unwrap(), WinIo::Arr(arr))
    } else {
        let buf = env.new_direct(n * 4);
        (env.win_create_buffer(buf, w).unwrap(), WinIo::Buf(buf))
    };
    let read_window = |env: &mut Env, io: &WinIo| -> Vec<i32> {
        match io {
            WinIo::Arr(a) => {
                let mut out = vec![0i32; n];
                env.array_read(*a, 0, &mut out).unwrap();
                out
            }
            WinIo::Buf(b) => (0..n)
                .map(|i| env.direct_get::<i32>(*b, i * 4).unwrap())
                .collect(),
        }
    };
    let mut digest = 0xcbf2_9ce4_8422_2325u64;

    // Epoch 1: puts to every rank (self included — exercises the local
    // delivery path).
    env.win_fence(win).unwrap();
    for r in 0..p {
        let vals: Vec<i32> = (0..k).map(|i| input(seed, 100 + r as u64, me, i)).collect();
        let origin = write_input(env, arrays, &vals);
        match &origin {
            Io::Buf(b) => env
                .put_buffer(win, *b, k as i32, &INT, r, me * k * 4)
                .unwrap(),
            Io::Arr(a) => env.put_array(win, *a, k as i32, r, me * k * 4).unwrap(),
        }
    }
    env.win_fence(win).unwrap();
    let got = read_window(env, &io);
    assert_eq!(
        got,
        rma_reference(p, k, seed, 1)[me],
        "epoch 1 (put) rank {me}"
    );
    fnv(&mut digest, &got);

    // Epoch 2: everyone accumulates Sum into block 0 of rank p-1.
    let vals: Vec<i32> = (0..k).map(|i| input(seed, 200, me, i)).collect();
    let origin = write_input(env, arrays, &vals);
    match &origin {
        Io::Buf(b) => env
            .accumulate_buffer(win, *b, k as i32, ReduceOp::Sum, p - 1, 0)
            .unwrap(),
        Io::Arr(a) => env
            .accumulate_array(win, *a, k as i32, ReduceOp::Sum, p - 1, 0)
            .unwrap(),
    }
    env.win_fence(win).unwrap();
    let got = read_window(env, &io);
    assert_eq!(
        got,
        rma_reference(p, k, seed, 2)[me],
        "epoch 2 (acc) rank {me}"
    );
    fnv(&mut digest, &got);

    // Epoch 3: get the block owned by rank (me+1)%p out of the window of
    // rank (me+2)%p; windows are unchanged.
    let src_rank = (me + 2) % p;
    let blk = (me + 1) % p;
    let dest = alloc_out(env, arrays, k);
    match &dest {
        Io::Buf(b) => env
            .get_buffer(win, *b, k as i32, &INT, src_rank, blk * k * 4)
            .unwrap(),
        Io::Arr(a) => env
            .get_array(win, *a, k as i32, src_rank, blk * k * 4)
            .unwrap(),
    }
    env.win_fence(win).unwrap();
    let got = read_out(env, &dest, k);
    let expect = rma_reference(p, k, seed, 3)[src_rank][blk * k..(blk + 1) * k].to_vec();
    assert_eq!(got, expect, "epoch 3 (get) rank {me}");
    fnv(&mut digest, &got);

    // Epoch 4: passive target — lock the neighbor, put, unlock; the
    // target observes the deposit at its next sync after the barrier.
    let t = (me + 1) % p;
    let vals: Vec<i32> = (0..k).map(|i| input(seed, 300 + t as u64, me, i)).collect();
    let origin = write_input(env, arrays, &vals);
    env.win_lock(win, t).unwrap();
    match &origin {
        Io::Buf(b) => env
            .put_buffer(win, *b, k as i32, &INT, t, me * k * 4)
            .unwrap(),
        Io::Arr(a) => env.put_array(win, *a, k as i32, t, me * k * 4).unwrap(),
    }
    env.win_unlock(win, t).unwrap();
    env.barrier(w).unwrap();
    env.win_sync(win).unwrap();
    let got = read_window(env, &io);
    assert_eq!(
        got,
        rma_reference(p, k, seed, 4)[me],
        "epoch 4 (passive) rank {me}"
    );
    fnv(&mut digest, &got);

    env.win_free(win).unwrap();
    env.barrier(w).unwrap();
    (digest, env.now().as_nanos().to_bits())
}
