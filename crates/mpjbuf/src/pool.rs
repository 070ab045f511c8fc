//! The direct-buffer pool.
//!
//! "The proposed buffering layer avoids the overhead of creating a
//! ByteBuffer every time a message comprising of Java arrays is
//! communicated" — direct buffers are expensive to create
//! (`MemCosts::direct_alloc_fixed_ns`), so the pool keeps freed buffers on
//! power-of-two free lists and reuses them for the cost of a list pop.
//!
//! A kept buffer is parked ([`Runtime::park_direct`]): from the host
//! store's floor up its bytes go back to the process-wide free list
//! while it idles, and a hit takes storage back. This is host-side
//! only — the pool's classes, counts and charges are what they would be
//! if every parked buffer kept its bytes.

use mrt::{DirectBuffer, Runtime};
use obs::pvar;
use vtime::{Clock, VDur};

/// Pool behaviour counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquisitions served from a free list.
    pub hits: u64,
    /// Acquisitions that had to allocate a fresh direct buffer.
    pub misses: u64,
    /// Buffers returned to the pool.
    pub releases: u64,
    /// Buffers currently lent out.
    pub outstanding: u64,
    /// Bytes currently parked on free lists.
    pub pooled_bytes: usize,
    /// Requests larger than the biggest size class, served by a transient
    /// exact-size buffer that bypasses the pool entirely.
    pub fallback_allocs: u64,
}

/// Smallest size class: 256 B.
const MIN_CLASS: u32 = 8;
/// Largest size class: 64 MiB.
const MAX_CLASS: u32 = 26;

/// A pool of direct ByteBuffers in power-of-two size classes.
pub struct BufferPool {
    classes: Vec<Vec<DirectBuffer>>,
    /// Cap on buffers parked per class (excess is freed on release).
    per_class_limit: usize,
    stats: PoolStats,
    /// Whether the oversized-request warning has been printed yet (one
    /// line per rank, not one per message).
    warned_fallback: bool,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

impl BufferPool {
    /// Empty pool with the default per-class retention limit (8).
    pub fn new() -> Self {
        Self::with_limit(8)
    }

    /// Empty pool retaining at most `per_class_limit` buffers per class.
    pub fn with_limit(per_class_limit: usize) -> Self {
        BufferPool {
            classes: vec![Vec::new(); (MAX_CLASS - MIN_CLASS + 1) as usize],
            per_class_limit,
            stats: PoolStats::default(),
            warned_fallback: false,
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    fn class_of(size: usize) -> u32 {
        let bits = usize::BITS - size.max(1).saturating_sub(1).leading_zeros();
        bits.clamp(MIN_CLASS, MAX_CLASS)
    }

    /// Capacity a request of `size` bytes is rounded up to.
    pub fn rounded(size: usize) -> usize {
        1usize << Self::class_of(size)
    }

    /// Acquire a direct buffer of at least `size` bytes.
    ///
    /// Requests beyond the largest size class do not panic and do not
    /// grow the pool: they fall back to a transient exact-size buffer
    /// (counted in [`PoolStats::fallback_allocs`] and the
    /// `mpjbuf.pool.fallback_allocs` pvar) which [`BufferPool::release`]
    /// frees immediately instead of parking.
    pub fn acquire(&mut self, rt: &mut Runtime, clock: &mut Clock, size: usize) -> DirectBuffer {
        self.take(rt, clock, size, true)
    }

    /// [`BufferPool::acquire`] of a store that stays parked: it is charged
    /// and counted the same, but a store of [`mrt::store::FLOOR`] bytes or
    /// more holds no host bytes. For a receive whose payload is scattered
    /// straight out of the frame, so nothing is ever written to the store.
    pub fn acquire_parked(
        &mut self,
        rt: &mut Runtime,
        clock: &mut Clock,
        size: usize,
    ) -> DirectBuffer {
        self.take(rt, clock, size, false)
    }

    fn take(
        &mut self,
        rt: &mut Runtime,
        clock: &mut Clock,
        size: usize,
        backed: bool,
    ) -> DirectBuffer {
        let alloc = |rt: &mut Runtime, clock: &mut Clock, cap| match backed {
            true => rt.allocate_direct(cap, clock),
            false => rt.allocate_direct_parked(cap, clock),
        };
        let _wp = obs::wallprof::span(obs::wallprof::Subsystem::Pool);
        obs::wallprof::add(obs::wallprof::Counter::PoolAcquires, 1);
        if size > 1 << MAX_CLASS {
            obs::wallprof::add(obs::wallprof::Counter::Allocs, 1);
            self.stats.fallback_allocs += 1;
            self.stats.outstanding += 1;
            obs::count(pvar::MPJBUF_POOL_FALLBACK_ALLOCS, 1);
            obs::gauge_set(pvar::MPJBUF_POOL_OUTSTANDING, self.stats.outstanding as i64);
            if !self.warned_fallback {
                self.warned_fallback = true;
                eprintln!(
                    "mpjbuf: warning: {size} B message exceeds the largest pool class \
                     ({} B); falling back to transient unpooled buffers",
                    1usize << MAX_CLASS
                );
            }
            let t0 = clock.now();
            let buf = alloc(rt, clock, size);
            if obs::tracing_enabled() {
                obs::span(
                    "acquire",
                    "mpjbuf",
                    t0,
                    clock.now(),
                    vec![("bytes", obs::ArgValue::U64(buf.capacity() as u64))],
                );
            }
            return buf;
        }
        let class = Self::class_of(size);
        let idx = (class - MIN_CLASS) as usize;
        let t0 = clock.now();
        self.stats.outstanding += 1;
        obs::gauge_set(pvar::MPJBUF_POOL_OUTSTANDING, self.stats.outstanding as i64);
        let buf = if let Some(buf) = self.classes[idx].pop() {
            self.stats.hits += 1;
            obs::count(pvar::MPJBUF_POOL_HITS, 1);
            self.stats.pooled_bytes -= buf.capacity();
            clock.charge(VDur::from_nanos(rt.cost().pool.acquire_hit_ns));
            if backed {
                rt.unpark_direct(buf).expect("pool buffer is live");
            }
            buf
        } else {
            self.stats.misses += 1;
            obs::count(pvar::MPJBUF_POOL_MISSES, 1);
            obs::wallprof::add(obs::wallprof::Counter::Allocs, 1);
            alloc(rt, clock, 1usize << class)
        };
        if obs::tracing_enabled() {
            obs::span(
                "acquire",
                "mpjbuf",
                t0,
                clock.now(),
                vec![("bytes", obs::ArgValue::U64(buf.capacity() as u64))],
            );
        }
        buf
    }

    /// Return a buffer to the pool (or free it if the class is full).
    /// Fallback buffers (larger than the biggest class) are freed, never
    /// parked — the pool's footprint stays bounded by `per_class_limit`.
    pub fn release(&mut self, rt: &mut Runtime, clock: &mut Clock, buf: DirectBuffer) {
        let _wp = obs::wallprof::span(obs::wallprof::Subsystem::Pool);
        if buf.capacity() > 1 << MAX_CLASS {
            self.stats.releases += 1;
            self.stats.outstanding = self.stats.outstanding.saturating_sub(1);
            obs::count(pvar::MPJBUF_POOL_RELEASES, 1);
            obs::gauge_set(pvar::MPJBUF_POOL_OUTSTANDING, self.stats.outstanding as i64);
            clock.charge(VDur::from_nanos(rt.cost().pool.release_ns));
            rt.free_direct(buf, clock).expect("fallback buffer is live");
            return;
        }
        let class = Self::class_of(buf.capacity());
        debug_assert_eq!(
            1usize << class,
            buf.capacity(),
            "pool only sees its own buffers"
        );
        let idx = (class - MIN_CLASS) as usize;
        let t0 = clock.now();
        self.stats.releases += 1;
        self.stats.outstanding = self.stats.outstanding.saturating_sub(1);
        obs::count(pvar::MPJBUF_POOL_RELEASES, 1);
        obs::gauge_set(pvar::MPJBUF_POOL_OUTSTANDING, self.stats.outstanding as i64);
        clock.charge(VDur::from_nanos(rt.cost().pool.release_ns));
        let cap = buf.capacity();
        if self.classes[idx].len() < self.per_class_limit {
            self.stats.pooled_bytes += buf.capacity();
            rt.park_direct(buf).expect("pool buffer is live");
            self.classes[idx].push(buf);
        } else {
            rt.free_direct(buf, clock).expect("pool buffer is live");
        }
        if obs::tracing_enabled() {
            obs::span(
                "release",
                "mpjbuf",
                t0,
                clock.now(),
                vec![("bytes", obs::ArgValue::U64(cap as u64))],
            );
        }
    }

    /// Free every parked buffer (shutdown).
    pub fn drain(&mut self, rt: &mut Runtime, clock: &mut Clock) {
        for list in &mut self.classes {
            for buf in list.drain(..) {
                rt.free_direct(buf, clock).expect("pool buffer is live");
            }
        }
        self.stats.pooled_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtime::CostModel;

    fn setup() -> (Runtime, Clock) {
        (Runtime::new(CostModel::default()), Clock::new())
    }

    #[test]
    fn size_classes_round_up_to_powers_of_two() {
        assert_eq!(BufferPool::rounded(1), 256);
        assert_eq!(BufferPool::rounded(256), 256);
        assert_eq!(BufferPool::rounded(257), 512);
        assert_eq!(BufferPool::rounded(100_000), 1 << 17);
    }

    #[test]
    fn reuse_hits_after_release() {
        let (mut rt, mut c) = setup();
        let mut pool = BufferPool::new();
        let b1 = pool.acquire(&mut rt, &mut c, 1000);
        assert_eq!(b1.capacity(), 1024);
        pool.release(&mut rt, &mut c, b1);
        let b2 = pool.acquire(&mut rt, &mut c, 900);
        assert_eq!(b1, b2, "same class buffer is reused");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.releases, s.outstanding), (1, 1, 1, 1));
    }

    #[test]
    fn reuse_is_much_cheaper_than_allocation() {
        let (mut rt, mut c) = setup();
        let mut pool = BufferPool::new();
        let t0 = c.now();
        let b = pool.acquire(&mut rt, &mut c, 65536);
        let t_miss = c.now() - t0;
        pool.release(&mut rt, &mut c, b);
        let t1 = c.now();
        let _b2 = pool.acquire(&mut rt, &mut c, 65536);
        let t_hit = c.now() - t1;
        assert!(
            t_miss.as_nanos() > 10.0 * t_hit.as_nanos(),
            "pooling must amortize allocateDirect: miss={t_miss:?} hit={t_hit:?}"
        );
    }

    #[test]
    fn distinct_classes_do_not_share() {
        let (mut rt, mut c) = setup();
        let mut pool = BufferPool::new();
        let small = pool.acquire(&mut rt, &mut c, 300);
        pool.release(&mut rt, &mut c, small);
        let big = pool.acquire(&mut rt, &mut c, 5000);
        assert_ne!(small, big);
        assert_eq!(big.capacity(), 8192);
    }

    #[test]
    fn per_class_limit_frees_excess() {
        let (mut rt, mut c) = setup();
        let mut pool = BufferPool::with_limit(1);
        let a = pool.acquire(&mut rt, &mut c, 256);
        let b = pool.acquire(&mut rt, &mut c, 256);
        let before = rt.direct_allocated_bytes();
        pool.release(&mut rt, &mut c, a);
        pool.release(&mut rt, &mut c, b); // over the limit: freed
        assert_eq!(rt.direct_allocated_bytes(), before - 256);
        assert_eq!(pool.stats().pooled_bytes, 256);
    }

    #[test]
    fn drain_frees_everything() {
        let (mut rt, mut c) = setup();
        let mut pool = BufferPool::new();
        let bufs: Vec<_> = (0..4).map(|_| pool.acquire(&mut rt, &mut c, 512)).collect();
        for b in bufs {
            pool.release(&mut rt, &mut c, b);
        }
        assert!(rt.direct_allocated_bytes() >= 4 * 512);
        pool.drain(&mut rt, &mut c);
        assert_eq!(rt.direct_allocated_bytes(), 0);
        assert_eq!(pool.stats().pooled_bytes, 0);
    }

    #[test]
    fn a_parked_store_holds_no_bytes_and_a_small_one_keeps_them() {
        use mrt::store::FLOOR;
        let (mut rt, mut c) = setup();
        let mut pool = BufferPool::new();
        let big = pool.acquire(&mut rt, &mut c, FLOOR);
        let small = pool.acquire(&mut rt, &mut c, 1000);
        assert!(rt.host_bytes() > FLOOR + 1024);
        pool.release(&mut rt, &mut c, big);
        pool.release(&mut rt, &mut c, small);
        assert_eq!(rt.host_bytes(), 1024, "only the small store keeps bytes");
        // The logical pool is what it would be without parking.
        let s = pool.stats();
        assert_eq!((s.pooled_bytes, s.outstanding), (FLOOR + 1024, 0));
        assert_eq!(rt.direct_allocated_bytes(), FLOOR + 1024);
        // A hit takes storage back: the same buffer, writable again.
        let again = pool.acquire(&mut rt, &mut c, FLOOR);
        assert_eq!((again, pool.stats().hits), (big, 1));
        rt.direct_write_bytes(again, FLOOR - 16, &[9; 16], &mut c)
            .unwrap();
        assert!(rt.host_bytes() > FLOOR + 1024);
    }

    #[test]
    fn oversized_request_falls_back_to_transient_buffer() {
        let (mut rt, mut c) = setup();
        let mut pool = BufferPool::new();
        let size = (1 << 26) + 1;
        let buf = pool.acquire(&mut rt, &mut c, size);
        assert_eq!(buf.capacity(), size, "fallback is exact-size, not rounded");
        let s = pool.stats();
        assert_eq!((s.fallback_allocs, s.misses, s.outstanding), (1, 0, 1));
        // Releasing a fallback buffer frees it immediately: nothing is
        // parked, so pool footprint stays bounded.
        let before = rt.direct_allocated_bytes();
        pool.release(&mut rt, &mut c, buf);
        assert_eq!(rt.direct_allocated_bytes(), before - size);
        let s = pool.stats();
        assert_eq!((s.releases, s.outstanding, s.pooled_bytes), (1, 0, 0));
        // A second oversized round-trip allocates afresh (never pooled).
        let buf2 = pool.acquire(&mut rt, &mut c, size);
        assert_eq!(pool.stats().fallback_allocs, 2);
        pool.release(&mut rt, &mut c, buf2);
    }
}
