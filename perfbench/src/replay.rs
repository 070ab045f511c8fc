//! Layer-kernel replay: the payload kernels of `mpisim` (datatype
//! pack/unpack) and `mpjbuf` (array staging), called directly at the
//! workload's own message sizes, beside a plain memcpy of the same bytes
//! measured in the same run as the base of their ratios.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mpisim::datatype::BYTE;
use mpjbuf::{Buffer, BufferPool};
use mrt::Runtime;
use vtime::{Clock, CostModel};

/// Achieved rates over all replayed bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    pub bytes: u64,
    pub memcpy_gb_per_s: f64,
    pub pack_gb_per_s: f64,
    /// Bytes through pack plus unpack per second, over memcpy's rate.
    pub copy_efficiency: f64,
    /// Bytes through stage plus unstage per second.
    pub stage_gb_per_s: f64,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Replay every size of `sizes` in passes until `budget` is spent (at
/// least one pass).
pub fn replay(sizes: &[usize], budget: Duration) -> Replay {
    let max = sizes.iter().copied().max().unwrap_or(1);
    let src: Vec<u8> = (0..max).map(|i| (i * 131 + 7) as u8).collect();
    let mut dst = vec![0u8; max];
    let heap = (4 * max).max(1 << 20);
    let mut rt = Runtime::with_heap(CostModel::default(), heap, 4 * heap);
    let mut pool = BufferPool::new();
    let mut clock = Clock::new();
    let (mut t_copy, mut t_pack, mut t_unpack, mut t_stage) = (0.0, 0.0, 0.0, 0.0);
    let mut bytes = 0u64;
    let start = Instant::now();
    loop {
        for &n in sizes {
            // Small sizes repeat so the timer's own cost stays negligible.
            let reps = (1 << 16) / n + 1;
            let t = Instant::now();
            for _ in 0..reps {
                dst[..n].copy_from_slice(black_box(&src[..n]));
                black_box(&mut dst);
            }
            t_copy += secs(t);

            let t = Instant::now();
            let mut packed = Vec::new();
            for _ in 0..reps {
                packed = BYTE.pack(black_box(&src[..n]), n).expect("pack fits");
            }
            t_pack += secs(t);
            let t = Instant::now();
            for _ in 0..reps {
                BYTE.unpack(black_box(&packed), n, &mut dst[..n])
                    .expect("unpack fits");
            }
            t_unpack += secs(t);
            assert_eq!(dst[..n], src[..n], "pack/unpack round trip");

            let arr = rt
                .alloc_array::<i8>(n, &mut clock)
                .expect("replay heap fits");
            rt.heap_mut().bytes_mut(arr.handle()).expect("live")[..n].copy_from_slice(&src[..n]);
            let mut buf = Buffer::from_pool(&mut pool, &mut rt, &mut clock, n);
            let t = Instant::now();
            for _ in 0..reps {
                buf.clear();
                buf.stage_array(&mut rt, &mut clock, arr, 0, n)
                    .expect("stage fits");
                buf.unstage_array(&mut rt, &mut clock, arr, 0, n)
                    .expect("unstage fits");
            }
            t_stage += secs(t);
            buf.free(&mut pool, &mut rt, &mut clock);
            rt.release_array(arr).expect("live");
            bytes += (n * reps) as u64;
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    let gb = bytes as f64 / 1e9;
    let memcpy = gb / t_copy;
    Replay {
        bytes,
        memcpy_gb_per_s: memcpy,
        pack_gb_per_s: gb / t_pack,
        copy_efficiency: (2.0 * gb / (t_pack + t_unpack)) / memcpy,
        stage_gb_per_s: 2.0 * gb / t_stage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_reports_positive_rates() {
        let r = replay(&[1, 100, 4096], Duration::ZERO);
        assert_eq!(r.bytes, 65537 + 100 * 656 + 4096 * 17);
        for x in [
            r.memcpy_gb_per_s,
            r.pack_gb_per_s,
            r.copy_efficiency,
            r.stage_gb_per_s,
        ] {
            assert!(x.is_finite() && x > 0.0, "{r:?}");
        }
    }
}
