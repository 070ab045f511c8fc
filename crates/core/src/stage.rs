//! Staging copies between managed arrays and direct buffers, with full
//! derived-datatype support.
//!
//! "The buffering layer is useful for communicating derived datatypes
//! since it is possible to copy scattered elements in the array onto
//! consecutive locations in the ByteBuffer" — these helpers implement
//! exactly that gather/scatter, charging a bulk-copy cost per contiguous
//! segment.

use mpisim::datatype::Datatype;
use mpjbuf::Buffer;
use mrt::prim::Prim;
use mrt::{DirectBuffer, Handle, JArray, MrtError, MrtResult, Runtime};
use obs::wallprof::{self, Counter};
use vtime::Clock;

use crate::datatype::datatype_of;
use crate::env::{Env, Region};
use crate::error::BindResult;
use crate::request::{ArrayDest, JRequest, PostAction};

/// An array region staged through a pooled direct buffer for one binding
/// call. The store holds `count` elements of `dt` packed from byte 0;
/// the array variant runs the buffer variant's native body over
/// [`Staging::region`].
pub(crate) struct Staging {
    buf: Buffer,
    arr: ArrayDest,
    dt: Datatype,
    count: usize,
    /// Whether closing the call scatters the store back into the array.
    recv: bool,
}

impl Staging {
    fn new<T: Prim>(
        buf: Buffer,
        arr: JArray<T>,
        elem_off: usize,
        count: usize,
        dt: Datatype,
    ) -> Self {
        Staging {
            buf,
            arr: ArrayDest {
                handle: arr.handle(),
                byte_off: elem_off * T::SIZE,
                byte_len: arr.byte_len(),
            },
            dt,
            count,
            recv: true,
        }
    }

    /// The packed bytes the native body sees: a prefix of the store (the
    /// pool may hand out a larger one).
    pub(crate) fn region(&self) -> Region {
        Region {
            buf: self.buf.store(),
            len: self.dt.size() * self.count,
            staged: true,
        }
    }
}

impl Env {
    /// Acquire a pooled store for `count` elements of `dt` over `arr`,
    /// starting at element `elem_off`, to receive into.
    pub(crate) fn staging<T: Prim>(
        &mut self,
        arr: JArray<T>,
        elem_off: usize,
        count: usize,
        dt: Datatype,
    ) -> Staging {
        let clock = self.mpi.clock_mut();
        let size = (dt.size() * count).max(1);
        let buf = Buffer::from_pool(&mut self.pool, &mut self.rt, clock, size);
        Staging::new(buf, arr, elem_off, count, dt)
    }

    /// [`Env::staging`] for a receive whose payload is scattered straight
    /// out of the frame or reply ([`Env::unstage_bytes`]): nothing is
    /// ever written to the store, so it stays parked and holds no host
    /// bytes from the floor up. Charged and pooled the same.
    pub(crate) fn landing<T: Prim>(
        &mut self,
        arr: JArray<T>,
        elem_off: usize,
        count: usize,
        dt: Datatype,
    ) -> Staging {
        let clock = self.mpi.clock_mut();
        let size = (dt.size() * count).max(1);
        let buf = Buffer::from_pool_parked(&mut self.pool, &mut self.rt, clock, size);
        Staging::new(buf, arr, elem_off, count, dt)
    }

    /// Acquire a store and gather the array region into it (charged): the
    /// send side of an array binding.
    pub(crate) fn stage_in<T: Prim>(
        &mut self,
        arr: JArray<T>,
        elem_off: usize,
        count: usize,
        dt: Datatype,
    ) -> BindResult<Staging> {
        let mut s = self.staging(arr, elem_off, count, dt);
        s.recv = false;
        let (clock, a) = (self.mpi.clock_mut(), &s.arr);
        let out = stage_from_array(
            &mut self.rt,
            clock,
            s.buf.store(),
            a.handle,
            a.byte_off,
            s.count,
            &s.dt,
        );
        self.keep(s, out.map(drop))
    }

    /// Acquire a receive store for a whole array and seed it with the
    /// array's current bytes (uncharged): a vectored receive fills only
    /// its blocks, and the scatter back must leave the gaps as they were.
    pub(crate) fn seeded<T: Prim>(&mut self, arr: JArray<T>) -> BindResult<Staging> {
        let s = self.staging(arr, 0, arr.len(), datatype_of::<T>());
        let seed = self.rt.heap().bytes(arr.handle()).map(<[u8]>::to_vec);
        let out = seed.and_then(|seed| {
            let store = self.rt.direct_bytes_mut(s.buf.store())?;
            store[..seed.len()].copy_from_slice(&seed);
            Ok(())
        });
        self.keep(s, out)
    }

    /// Keep a store whose filling succeeded; release it otherwise.
    fn keep(&mut self, s: Staging, filled: MrtResult<()>) -> BindResult<Staging> {
        match filled {
            Ok(()) => Ok(s),
            Err(e) => {
                self.release(s);
                Err(e.into())
            }
        }
    }

    /// Scatter the first `filled` bytes of the store into the array
    /// (charged), then release the store, whether or not the scatter
    /// succeeded.
    pub(crate) fn unstage(&mut self, s: Staging, filled: usize) -> BindResult<()> {
        let store = s.buf.store();
        self.scatter_and_release(s, Packed::Store(store), filled)
    }

    /// [`Env::unstage`] of `bytes` that landed for the store elsewhere (a
    /// get reply): the same charged scatter, read straight from `bytes`
    /// instead of a copy of them in the store.
    pub(crate) fn unstage_bytes(&mut self, s: Staging, bytes: &[u8]) -> BindResult<()> {
        self.scatter_and_release(s, Packed::Bytes(bytes), bytes.len())
    }

    fn scatter_and_release(&mut self, s: Staging, src: Packed, filled: usize) -> BindResult<()> {
        let clock = self.mpi.clock_mut();
        let out = unstage_to_array(&mut self.rt, clock, src, &s.arr, s.count, &s.dt, filled);
        self.release(s);
        out.map_err(Into::into)
    }

    /// Return a store to the pool.
    pub(crate) fn release(&mut self, s: Staging) {
        let clock = self.mpi.clock_mut();
        s.buf.free(&mut self.pool, &mut self.rt, clock);
    }

    /// Close an array binding whose native body returned `out`: walk
    /// `stores` in order, scattering each receive store back (only if
    /// every step so far succeeded) and releasing every store.
    pub(crate) fn close<R, const N: usize>(
        &mut self,
        mut out: BindResult<R>,
        stores: [Option<Staging>; N],
    ) -> BindResult<R> {
        for s in stores.into_iter().flatten() {
            if s.recv && out.is_ok() {
                let filled = s.region().len;
                if let Err(e) = self.unstage(s, filled) {
                    out = Err(e);
                }
            } else {
                self.release(s);
            }
        }
        out
    }

    /// Hand a non-blocking array binding's stores to the request its
    /// native body posted: `recv` is scattered back at completion, `send`
    /// is held until then. If the post failed, both are released.
    pub(crate) fn posted(
        &mut self,
        out: BindResult<JRequest>,
        recv: Option<Staging>,
        send: Option<Staging>,
    ) -> BindResult<JRequest> {
        match out {
            Ok(mut req) => {
                if let Some(r) = recv {
                    req.post = PostAction::RecvArray(r);
                }
                req.pinned = send.map(|s| s.buf);
                Ok(req)
            }
            Err(e) => self.close(Err(e), [recv, send]),
        }
    }
}

/// Gather `count` elements of `dt` from the array object `src` (starting
/// at `src_byte_off`) into `store` starting at byte 0. Returns the packed
/// size.
pub(crate) fn stage_from_array(
    rt: &mut Runtime,
    clock: &mut Clock,
    store: DirectBuffer,
    src: Handle,
    src_byte_off: usize,
    count: usize,
    dt: &Datatype,
) -> MrtResult<usize> {
    let packed = dt.size() * count;
    let t0 = clock.now();
    let span = dt.span(count);
    let avail = rt.heap().len_of(src)?;
    if src_byte_off + span > avail {
        return Err(MrtError::IndexOutOfBounds {
            index: src_byte_off + span,
            length: avail,
        });
    }
    if dt.is_contiguous() {
        // One bulk copy.
        rt.direct_write_from_heap(store, 0, src, src_byte_off, packed, clock)?;
    } else {
        // Each scattered segment is a separate (charged) copy.
        let segs = dt.segments();
        let ext = dt.extent();
        let mut pos = 0;
        for i in 0..count {
            let base = src_byte_off + i * ext;
            for &(off, len) in &segs {
                rt.direct_write_from_heap(store, pos, src, base + off, len, clock)?;
                pos += len;
            }
        }
        debug_assert_eq!(pos, packed);
    }
    wallprof::add(Counter::CopyBytes, packed as u64);
    if obs::tracing_enabled() {
        obs::span(
            "stage",
            "mpjbuf",
            t0,
            clock.now(),
            vec![("bytes", obs::ArgValue::U64(packed as u64))],
        );
    }
    Ok(packed)
}

/// Where a scatter reads its packed bytes from, starting at byte 0.
#[derive(Clone, Copy)]
pub(crate) enum Packed<'a> {
    /// A direct buffer: a staging store.
    Store(DirectBuffer),
    /// Native memory outside the runtime: window memory or a get reply.
    Bytes(&'a [u8]),
}

/// Scatter packed bytes from `src` into the array destination per `dt`.
/// `filled` is the number of valid bytes in `src` (may be less than
/// `dt.size() * count` for short messages). Each contiguous segment is
/// one charged copy, whichever the source.
pub(crate) fn unstage_to_array(
    rt: &mut Runtime,
    clock: &mut Clock,
    src: Packed,
    dest: &ArrayDest,
    count: usize,
    dt: &Datatype,
    filled: usize,
) -> MrtResult<()> {
    let elem = dt.size();
    if elem == 0 || filled == 0 {
        return Ok(());
    }
    let t0 = clock.now();
    let full = (filled / elem).min(count);
    let span = if full == 0 { 0 } else { dt.span(full) };
    if dest.byte_off + span > dest.byte_len {
        return Err(MrtError::IndexOutOfBounds {
            index: dest.byte_off + span,
            length: dest.byte_len,
        });
    }
    let mut copy = |rt: &mut Runtime, pos: usize, dst_off: usize, len: usize| match src {
        Packed::Store(store) => {
            rt.direct_read_into_heap(store, pos, dest.handle, dst_off, len, clock)
        }
        Packed::Bytes(bytes) => {
            rt.write_into_heap(&bytes[pos..pos + len], dest.handle, dst_off, clock)
        }
    };
    if dt.is_contiguous() {
        copy(rt, 0, dest.byte_off, full * elem)?;
    } else {
        let segs = dt.segments();
        let ext = dt.extent();
        let mut pos = 0;
        for i in 0..full {
            let base = dest.byte_off + i * ext;
            for &(off, len) in &segs {
                copy(rt, pos, base + off, len)?;
                pos += len;
            }
        }
    }
    wallprof::add(Counter::CopyBytes, (full * elem) as u64);
    if obs::tracing_enabled() {
        obs::span(
            "unstage",
            "mpjbuf",
            t0,
            clock.now(),
            vec![("bytes", obs::ArgValue::U64(filled as u64))],
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::datatype::INT;
    use mpisim::Datatype;
    use vtime::CostModel;

    fn setup() -> (Runtime, Clock) {
        (Runtime::new(CostModel::default()), Clock::new())
    }

    #[test]
    fn contiguous_stage_roundtrip() {
        let (mut rt, mut c) = setup();
        let arr = rt.alloc_array::<i32>(8, &mut c).unwrap();
        for i in 0..8 {
            rt.array_set(arr, i, 100 + i as i32, &mut c).unwrap();
        }
        let store = rt.allocate_direct(64, &mut c);
        let n = stage_from_array(&mut rt, &mut c, store, arr.handle(), 8, 4, &INT).unwrap();
        assert_eq!(n, 16); // elements 2..6
        let dst = rt.alloc_array::<i32>(8, &mut c).unwrap();
        let dest = ArrayDest {
            handle: dst.handle(),
            byte_off: 0,
            byte_len: 32,
        };
        unstage_to_array(&mut rt, &mut c, Packed::Store(store), &dest, 4, &INT, 16).unwrap();
        for k in 0..4 {
            assert_eq!(rt.array_get(dst, k, &mut c).unwrap(), 102 + k as i32);
        }
    }

    #[test]
    fn vector_datatype_gathers_and_scatters() {
        let (mut rt, mut c) = setup();
        // vector(2 blocks, 1 elem, stride 3) over INT: picks idx 0 and 3.
        let dt = Datatype::vector(2, 1, 3, INT).unwrap();
        let arr = rt.alloc_array::<i32>(8, &mut c).unwrap();
        for i in 0..8 {
            rt.array_set(arr, i, i as i32, &mut c).unwrap();
        }
        let store = rt.allocate_direct(64, &mut c);
        let n = stage_from_array(&mut rt, &mut c, store, arr.handle(), 0, 2, &dt).unwrap();
        assert_eq!(n, 16); // 2 elements × 2 ints
                           // Packed content must be [0, 3, 4, 7].
        let mut packed = vec![0u8; 16];
        rt.direct_read_bytes(store, 0, &mut packed, &mut c).unwrap();
        let vals: Vec<i32> = packed
            .chunks_exact(4)
            .map(|b| i32::from_le_bytes(b.try_into().unwrap()))
            .collect();
        assert_eq!(vals, vec![0, 3, 4, 7]);

        // Scatter into a fresh array: gaps untouched.
        let dst = rt.alloc_array::<i32>(8, &mut c).unwrap();
        for i in 0..8 {
            rt.array_set(dst, i, -1, &mut c).unwrap();
        }
        let dest = ArrayDest {
            handle: dst.handle(),
            byte_off: 0,
            byte_len: 32,
        };
        unstage_to_array(&mut rt, &mut c, Packed::Store(store), &dest, 2, &dt, 16).unwrap();
        let mut out = [0i32; 8];
        rt.array_read(dst, 0, &mut out, &mut c).unwrap();
        assert_eq!(out, [0, -1, -1, 3, 4, -1, -1, 7]);
    }

    /// Stage then unstage `count` elements of `dt` over an `i32` array of
    /// `len` values, and check that each direction leaves the clock where
    /// one `memcpy` charge per element-segment, in typemap order, would.
    fn check_segment_charges(dt: &Datatype, count: usize, len: usize) {
        let (mut rt, mut c) = setup();
        let arr = rt.alloc_array::<i32>(len, &mut c).unwrap();
        for i in 0..len {
            rt.array_set(arr, i, i as i32, &mut c).unwrap();
        }
        let store = rt.allocate_direct(1024, &mut c);
        let dst = rt.alloc_array::<i32>(len, &mut c).unwrap();
        let cost = *rt.cost();
        let expected = |c: &Clock| {
            let mut want = c.clone();
            for _ in 0..count {
                for (_, seg) in dt.segments() {
                    want.charge(cost.memcpy(seg));
                }
            }
            want.now()
        };

        let want = expected(&c);
        let n = stage_from_array(&mut rt, &mut c, store, arr.handle(), 0, count, dt).unwrap();
        assert_eq!(n, dt.size() * count);
        assert_eq!(c.now(), want, "stage of {dt:?}");

        let dest = ArrayDest {
            handle: dst.handle(),
            byte_off: 0,
            byte_len: len * 4,
        };
        let want = expected(&c);
        unstage_to_array(&mut rt, &mut c, Packed::Store(store), &dest, count, dt, n).unwrap();
        assert_eq!(c.now(), want, "unstage of {dt:?}");

        // The scatter lands every typemap byte where the gather found it.
        let (src, out) = (
            rt.heap().bytes(arr.handle()).unwrap(),
            rt.heap().bytes(dst.handle()).unwrap(),
        );
        for i in 0..count {
            for (off, seg) in dt.segments() {
                let at = i * dt.extent() + off;
                assert_eq!(src[at..at + seg], out[at..at + seg]);
            }
        }
    }

    #[test]
    fn derived_types_charge_one_memcpy_per_element_segment() {
        // 3 blocks of 2 ints, stride 3: segments (0,8) (12,8) (24,8).
        check_segment_charges(&Datatype::vector(3, 2, 3, INT).unwrap(), 4, 40);
        // Blocks at 0 (1 int) and 2 (3 ints): segments (0,4) (8,12).
        check_segment_charges(
            &Datatype::indexed(vec![(0, 1), (2, 3)], INT).unwrap(),
            5,
            25,
        );
    }

    #[test]
    fn stage_out_of_bounds_rejected() {
        let (mut rt, mut c) = setup();
        let arr = rt.alloc_array::<i32>(2, &mut c).unwrap();
        let store = rt.allocate_direct(64, &mut c);
        assert!(stage_from_array(&mut rt, &mut c, store, arr.handle(), 0, 4, &INT).is_err());
    }

    #[test]
    fn short_message_fills_prefix_only() {
        let (mut rt, mut c) = setup();
        let store = rt.allocate_direct(64, &mut c);
        rt.direct_write_bytes(store, 0, &[1, 0, 0, 0, 2, 0, 0, 0], &mut c)
            .unwrap();
        let dst = rt.alloc_array::<i32>(4, &mut c).unwrap();
        let dest = ArrayDest {
            handle: dst.handle(),
            byte_off: 0,
            byte_len: 16,
        };
        // Posted for 4 elements, only 2 arrived.
        unstage_to_array(&mut rt, &mut c, Packed::Store(store), &dest, 4, &INT, 8).unwrap();
        assert_eq!(rt.array_get(dst, 0, &mut c).unwrap(), 1);
        assert_eq!(rt.array_get(dst, 1, &mut c).unwrap(), 2);
        assert_eq!(rt.array_get(dst, 2, &mut c).unwrap(), 0);
    }
}
