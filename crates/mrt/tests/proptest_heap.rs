//! Randomized tests for the managed heap: arbitrary allocate / free /
//! write / collect interleavings must never corrupt live objects, and
//! direct buffers must be unaffected by the collector. Driven by a
//! deterministic LCG so every run replays the same interleavings.

use mrt::{MrtError, Runtime};
use vtime::{Clock, CostModel};

/// Knuth LCG.
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
    fn below(&mut self, n: usize) -> usize {
        (self.next() >> 33) as usize % n
    }
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo)
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Allocate an array of this many i32 elements (bounded).
    Alloc(usize),
    /// Free the live array at (index % live count).
    Free(usize),
    /// Overwrite the live array at index with a seeded pattern.
    Write(usize, i32),
    /// Force a collection.
    Gc,
    /// Allocate-and-free churn to trigger organic collections.
    Churn(usize),
}

fn gen_op(rng: &mut Lcg) -> Op {
    match rng.below(5) {
        0 => Op::Alloc(rng.range(1, 64)),
        1 => Op::Free(rng.below(1 << 30)),
        2 => Op::Write(rng.below(1 << 30), rng.next() as i32),
        3 => Op::Gc,
        _ => Op::Churn(rng.range(1, 256)),
    }
}

fn gen_ops(rng: &mut Lcg, max: usize) -> Vec<Op> {
    (0..rng.range(1, max)).map(|_| gen_op(rng)).collect()
}

#[test]
fn live_arrays_survive_arbitrary_heap_activity() {
    let mut rng = Lcg::new(11);
    for _case in 0..64 {
        let ops = gen_ops(&mut rng, 60);
        let mut rt = Runtime::with_heap(CostModel::default(), 1 << 12, 1 << 16);
        let mut clock = Clock::new();
        // (array, expected contents)
        let mut live: Vec<(mrt::JArray<i32>, Vec<i32>)> = Vec::new();

        for op in ops {
            match op {
                Op::Alloc(n) => match rt.alloc_array::<i32>(n, &mut clock) {
                    Ok(arr) => live.push((arr, vec![0; n])),
                    Err(MrtError::OutOfMemory { .. }) => {} // legal under churn
                    Err(e) => panic!("unexpected alloc error {e}"),
                },
                Op::Free(i) => {
                    if !live.is_empty() {
                        let (arr, _) = live.remove(i % live.len());
                        rt.release_array(arr).unwrap();
                    }
                }
                Op::Write(i, v) => {
                    if !live.is_empty() {
                        let idx = i % live.len();
                        let (arr, expect) = &mut live[idx];
                        let vals: Vec<i32> = (0..expect.len())
                            .map(|k| v.wrapping_add(k as i32))
                            .collect();
                        if !vals.is_empty() {
                            rt.array_write(*arr, 0, &vals, &mut clock).unwrap();
                            expect.copy_from_slice(&vals);
                        }
                    }
                }
                Op::Gc => rt.gc(&mut clock),
                Op::Churn(n) => {
                    if let Ok(junk) = rt.alloc_array::<i8>(n, &mut clock) {
                        rt.release_array(junk).unwrap();
                    }
                }
            }
            // Invariant: every live array holds exactly what we wrote.
            for (arr, expect) in &live {
                let mut got = vec![0i32; expect.len()];
                if !got.is_empty() {
                    rt.array_read(*arr, 0, &mut got, &mut clock).unwrap();
                }
                assert_eq!(&got, expect);
            }
        }
    }
}

#[test]
fn direct_buffers_are_immune_to_gc() {
    let mut rng = Lcg::new(12);
    for _case in 0..32 {
        let writes: Vec<(usize, u8)> = (0..rng.range(1, 32))
            .map(|_| (rng.below(128), rng.next() as u8))
            .collect();
        let churn_rounds = rng.range(1, 8);
        let mut rt = Runtime::with_heap(CostModel::default(), 1 << 12, 1 << 15);
        let mut clock = Clock::new();
        let buf = rt.allocate_direct(128, &mut clock);
        let mut expect = [0u8; 128];
        for &(idx, v) in &writes {
            rt.direct_put::<i8>(buf, idx, v as i8, &mut clock).unwrap();
            expect[idx] = v;
        }
        for _ in 0..churn_rounds {
            if let Ok(junk) = rt.alloc_array::<i64>(256, &mut clock) {
                rt.release_array(junk).unwrap();
            }
            rt.gc(&mut clock);
        }
        for (i, &want) in expect.iter().enumerate().take(128) {
            assert_eq!(rt.direct_get::<i8>(buf, i, &mut clock).unwrap() as u8, want);
        }
    }
}

#[test]
fn clock_is_monotone_under_all_operations() {
    let mut rng = Lcg::new(13);
    for _case in 0..64 {
        let ops = gen_ops(&mut rng, 40);
        let mut rt = Runtime::with_heap(CostModel::default(), 1 << 12, 1 << 16);
        let mut clock = Clock::new();
        let mut last = clock.now();
        let mut live = Vec::new();
        for op in ops {
            match op {
                Op::Alloc(n) => {
                    if let Ok(a) = rt.alloc_array::<i32>(n, &mut clock) {
                        live.push(a);
                    }
                }
                Op::Free(i) if !live.is_empty() => {
                    let a = live.remove(i % live.len());
                    rt.release_array(a).unwrap();
                }
                Op::Write(i, v) if !live.is_empty() => {
                    let idx = i % live.len();
                    let arr = live[idx];
                    if !arr.is_empty() {
                        rt.array_set(arr, 0, v, &mut clock).unwrap();
                    }
                }
                Op::Gc => rt.gc(&mut clock),
                Op::Churn(n) => {
                    if let Ok(j) = rt.alloc_array::<i8>(n, &mut clock) {
                        rt.release_array(j).unwrap();
                    }
                }
                _ => {}
            }
            assert!(clock.now() >= last, "virtual time must never go backwards");
            last = clock.now();
        }
    }
}
