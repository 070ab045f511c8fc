//! Seeded input generation. The workload seed is the only source of
//! randomness: it fixes every message size, payload, bcast root,
//! reduction contribution, API choice and the fault-plan seed, and the
//! simulator receives only these generated values. Sizes are swept in
//! ascending order, like an OMB-J sweep.
//!
//! Sizes are drawn by stratified, antithetic sampling: each octave of the
//! workload's size range is split into equal strata, each size is drawn
//! from the central half of its stratum, and strata are paired from the
//! outside in (first with last, second with second-to-last, …), each
//! pair sharing one uniform draw `u` as `(u, 1 - u)`. Every pair then
//! carries the same bytes. A seed moves every size while the bytes per
//! octave and per pair (and so the work per job, whichever API a pair
//! goes to) and the size quantiles stay put, which keeps the end-to-end
//! figures of different seeds comparable.

use crate::workload::Workload;

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Which binding API moves a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Api {
    /// Direct ByteBuffers: the native library reads the buffer in place.
    Buffer,
    /// Java `byte[]` arrays: staged through `mpjbuf` pooled buffers.
    Array,
}

/// One point-to-point message of a pt2pt workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Msg {
    pub size: usize,
    pub api: Api,
    /// Offset into the shared payload pattern: selects this message's
    /// bytes.
    pub shift: usize,
}

/// One collective step of `coll_256_event`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollStep {
    pub bcast_bytes: usize,
    pub root: usize,
    pub shift: usize,
    /// Per-rank `LONG` contributions to the SUM allreduce.
    pub contrib: Vec<Vec<i64>>,
    /// Plain-Rust reference: the element-wise wrapping sum over ranks.
    pub expected: Vec<i64>,
}

/// Everything one workload run feeds the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub msgs: Vec<Msg>,
    pub steps: Vec<CollStep>,
    /// Payload bytes; message `m` carries `pattern[m.shift..m.shift + m.size]`.
    pub pattern: Vec<u8>,
    /// Seed of the fabric fault plan (lossy workload only).
    pub fault_seed: u64,
}

/// Largest `shift` into the payload pattern.
const MAX_SHIFT: usize = 251;

/// Sizes in octaves `2^lo ..= 2^hi`, `per_octave` (even) per octave,
/// stratified and antithetic (see the module docs): consecutive output
/// entries are the two members of one pair.
pub fn octave_sizes(rng: &mut Rng, lo: u32, hi: u32, per_octave: usize) -> Vec<usize> {
    assert!(
        per_octave >= 2 && per_octave.is_multiple_of(2),
        "strata come in pairs"
    );
    let mut out = Vec::new();
    for o in lo..hi {
        let base = (1usize << o) as f64;
        let h = base / per_octave as f64;
        for p in 0..per_octave / 2 {
            let u = 0.25 + 0.5 * rng.unit();
            let a = base + p as f64 * h + u * h;
            let b = base + (per_octave - 1 - p) as f64 * h + (1.0 - u) * h;
            out.push((a as usize).max(1));
            out.push((b as usize).max(1));
        }
    }
    out
}

impl Inputs {
    /// Generate the inputs of `w` from `seed`.
    pub fn generate(w: &Workload, seed: u64) -> Inputs {
        let mut rng = Rng::new(seed ^ w.salt);
        let fault_seed = rng.next_u64();
        let mut msgs = Vec::new();
        let mut steps = Vec::new();
        if w.ranks() == 2 {
            // Two antithetic pairs per octave, one pair per API, so each
            // API moves exactly half of every octave's bytes.
            let sizes = octave_sizes(&mut rng, w.lo_exp, w.hi_exp, 4);
            for octave in sizes.chunks(4) {
                let flip = rng.below(2) as usize;
                for (i, &size) in octave.iter().enumerate() {
                    let api = if (i / 2) ^ flip == 0 {
                        Api::Buffer
                    } else {
                        Api::Array
                    };
                    let shift = rng.below(MAX_SHIFT as u64 + 1) as usize;
                    msgs.push(Msg { size, api, shift });
                }
            }
            msgs.sort_by_key(|m| m.size);
        } else {
            let sizes = octave_sizes(&mut rng, w.lo_exp, w.hi_exp, 2);
            for bcast_bytes in sizes {
                let count = (bcast_bytes / 8).max(1);
                let contrib: Vec<Vec<i64>> = (0..w.ranks())
                    .map(|_| (0..count).map(|_| rng.next_u64() as i64 >> 8).collect())
                    .collect();
                let expected = (0..count)
                    .map(|i| contrib.iter().fold(0i64, |acc, c| acc.wrapping_add(c[i])))
                    .collect();
                steps.push(CollStep {
                    bcast_bytes,
                    root: rng.below(w.ranks() as u64) as usize,
                    shift: rng.below(MAX_SHIFT as u64 + 1) as usize,
                    contrib,
                    expected,
                });
            }
        }
        // Room for the largest size at any shift, and one past it (a
        // put-beside-get window holds the bytes at `shift + 1`).
        let mut pattern = vec![0u8; (1 << w.hi_exp) + MAX_SHIFT + 1];
        for chunk in pattern.chunks_mut(8) {
            let r = rng.next_u64().to_le_bytes();
            chunk.copy_from_slice(&r[..chunk.len()]);
        }
        Inputs {
            msgs,
            steps,
            pattern,
            fault_seed,
        }
    }

    /// Payload bytes of a message of `size` bytes at `shift`.
    pub fn payload(&self, shift: usize, size: usize) -> &[u8] {
        &self.pattern[shift..shift + size]
    }

    /// Canonical byte encoding of every generated value (what the seed
    /// test compares).
    #[cfg(test)]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut put = |x: u64| out.extend_from_slice(&x.to_le_bytes());
        put(self.fault_seed);
        put(self.msgs.len() as u64);
        for m in &self.msgs {
            put(m.size as u64);
            put(m.api as u64);
            put(m.shift as u64);
        }
        put(self.steps.len() as u64);
        for s in &self.steps {
            put(s.bcast_bytes as u64);
            put(s.root as u64);
            put(s.shift as u64);
            for c in s.contrib.iter().chain(std::iter::once(&s.expected)) {
                for &x in c {
                    put(x as u64);
                }
            }
        }
        out.extend_from_slice(&self.pattern);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn one_seed_gives_identical_inputs_and_another_seed_different_ones() {
        for w in WORKLOADS {
            let a = Inputs::generate(w, 7).encode();
            let b = Inputs::generate(w, 7).encode();
            let c = Inputs::generate(w, 8).encode();
            assert_eq!(
                a, b,
                "{}: same seed must give byte-identical inputs",
                w.name
            );
            assert_ne!(a, c, "{}: a different seed must change the inputs", w.name);
        }
    }

    #[test]
    fn every_antithetic_pair_carries_the_same_bytes() {
        for seed in 1..20 {
            let sizes = octave_sizes(&mut Rng::new(seed), 16, 22, 4);
            assert!(sizes.iter().all(|&s| (1 << 16..=1 << 22).contains(&s)));
            for (i, pair) in sizes.chunks(2).enumerate() {
                let octave = 1usize << (16 + i / 2);
                let sum = pair[0] + pair[1];
                assert!(sum.abs_diff(3 * octave) <= 1, "pair {i}: {pair:?}");
            }
        }
        assert_ne!(
            octave_sizes(&mut Rng::new(1), 16, 22, 4),
            octave_sizes(&mut Rng::new(2), 16, 22, 4)
        );
    }

    #[test]
    fn reference_sum_matches_contributions() {
        let w = WORKLOADS
            .iter()
            .find(|w| w.ranks() > 2)
            .expect("a collective workload");
        let inp = Inputs::generate(w, 11);
        for s in &inp.steps {
            assert_eq!(s.contrib.len(), w.ranks());
            for (i, &e) in s.expected.iter().enumerate() {
                let sum = s.contrib.iter().map(|c| c[i] as i128).sum::<i128>();
                assert_eq!(e as i128, sum, "no wrap at these magnitudes");
            }
        }
    }
}
