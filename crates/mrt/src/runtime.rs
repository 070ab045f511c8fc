//! The managed-runtime facade: one per simulated rank (its "JVM").
//!
//! Every operation that touches managed state takes the rank's virtual
//! [`Clock`] and charges the calibrated cost: per-element accesses for
//! array/buffer loops, bulk-copy costs for arraycopy-style transfers,
//! allocation costs, and GC pauses. The asymmetry between
//! `array_get/array_set` and `direct_get/direct_put` costs is what makes
//! the paper's Section VI-F (Figure 18) reproducible.

use vtime::{Clock, CostModel, VDur};

use crate::array::{decode_slice, encode_slice, JArray};
use crate::buffer::{DirectBuffer, DirectRegion, HeapBuffer};
use crate::error::{MrtError, MrtResult};
use crate::heap::{GcStats, Handle, Heap};
use crate::prim::{ByteOrder, Prim};
use crate::store::HostBytes;

/// Default initial heap: 16 MiB.
pub const DEFAULT_HEAP: usize = 16 << 20;
/// Default max heap: 256 MiB.
pub const DEFAULT_MAX_HEAP: usize = 256 << 20;

/// A simulated JVM instance for one rank.
pub struct Runtime {
    heap: Heap,
    direct: DirectRegion,
    cost: CostModel,
}

impl Runtime {
    /// Runtime with default heap sizing.
    pub fn new(cost: CostModel) -> Self {
        Self::with_heap(cost, DEFAULT_HEAP, DEFAULT_MAX_HEAP)
    }

    /// Runtime with explicit `-Xms`/`-Xmx`.
    pub fn with_heap(cost: CostModel, initial: usize, max: usize) -> Self {
        Runtime {
            heap: Heap::new(initial, max),
            direct: DirectRegion::default(),
            cost,
        }
    }

    /// The cost model in force.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The managed heap (JNI-analog boundary needs direct access).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Mutable heap access (JNI-analog boundary).
    pub fn heap_mut(&mut self) -> &mut Heap {
        &mut self.heap
    }

    /// Force a collection (`System.gc()`).
    pub fn gc(&mut self, clock: &mut Clock) {
        self.heap.collect(clock, &self.cost);
    }

    /// Collector statistics.
    pub fn gc_stats(&self) -> GcStats {
        self.heap.stats()
    }

    /// Bytes currently allocated in the native (direct-buffer) region.
    pub fn direct_allocated_bytes(&self) -> usize {
        self.direct.allocated_bytes
    }

    /// Direct buffers ever created (pool-effectiveness metric).
    pub fn direct_allocations(&self) -> u64 {
        self.direct.total_allocations
    }

    /// Host bytes held by the heap's live objects and the direct buffers
    /// (host-side only: no simulated output reads it).
    pub fn host_bytes(&self) -> usize {
        self.heap.host_bytes() + self.direct.host_bytes()
    }

    /// Allocate an opaque managed object of `len` bytes (small wrapper
    /// objects, boxed values — the garbage ordinary Java code produces).
    pub fn alloc_object(&mut self, len: usize, clock: &mut Clock) -> MrtResult<Handle> {
        self.heap.alloc(len, clock, &self.cost)
    }

    /// Drop the last reference to an opaque object.
    pub fn release_object(&mut self, h: Handle) -> MrtResult<()> {
        self.heap.release(h)
    }

    // ------------------------------------------------------------------
    // Managed arrays
    // ------------------------------------------------------------------

    /// `new T[len]`.
    pub fn alloc_array<T: Prim>(&mut self, len: usize, clock: &mut Clock) -> MrtResult<JArray<T>> {
        let h = self.heap.alloc(len * T::SIZE, clock, &self.cost)?;
        Ok(JArray::new(h, len))
    }

    /// Drop the last reference to an array (it becomes garbage).
    pub fn release_array<T: Prim>(&mut self, arr: JArray<T>) -> MrtResult<()> {
        self.heap.release(arr.handle)
    }

    /// `arr[idx]` — one bounds-checked element load.
    pub fn array_get<T: Prim>(
        &self,
        arr: JArray<T>,
        idx: usize,
        clock: &mut Clock,
    ) -> MrtResult<T> {
        check_at(idx, 1, arr.len)?;
        clock.charge(self.cost.array_loop(1));
        let bytes = self.heap.bytes(arr.handle)?;
        Ok(T::decode(&bytes[idx * T::SIZE..], ByteOrder::Little))
    }

    /// `arr[idx] = v` — one bounds-checked element store.
    pub fn array_set<T: Prim>(
        &mut self,
        arr: JArray<T>,
        idx: usize,
        v: T,
        clock: &mut Clock,
    ) -> MrtResult<()> {
        check_at(idx, 1, arr.len)?;
        clock.charge(self.cost.array_loop(1));
        let bytes = self.heap.bytes_mut(arr.handle)?;
        v.encode(&mut bytes[idx * T::SIZE..], ByteOrder::Little);
        Ok(())
    }

    /// Bulk read (`System.arraycopy(arr, off, out, 0, out.len())`).
    pub fn array_read<T: Prim>(
        &self,
        arr: JArray<T>,
        off: usize,
        out: &mut [T],
        clock: &mut Clock,
    ) -> MrtResult<()> {
        check_span(off, out.len(), arr.len)?;
        clock.charge(self.cost.memcpy(out.len() * T::SIZE));
        let bytes = self.heap.bytes(arr.handle)?;
        decode_slice(&bytes[off * T::SIZE..], out);
        Ok(())
    }

    /// Bulk write (`System.arraycopy(src, 0, arr, off, src.len())`).
    pub fn array_write<T: Prim>(
        &mut self,
        arr: JArray<T>,
        off: usize,
        src: &[T],
        clock: &mut Clock,
    ) -> MrtResult<()> {
        check_span(off, src.len(), arr.len)?;
        clock.charge(self.cost.memcpy(src.len() * T::SIZE));
        let bytes = self.heap.bytes_mut(arr.handle)?;
        encode_slice(src, &mut bytes[off * T::SIZE..]);
        Ok(())
    }

    /// Run a tight "Java loop" of `n` array element accesses without
    /// materializing each one — used by benchmarks to populate/validate
    /// with the correct virtual cost but O(1) simulation work when the
    /// payload bytes are produced separately.
    pub fn charge_array_loop(&self, n: usize, clock: &mut Clock) {
        clock.charge(self.cost.array_loop(n));
    }

    /// Same for a direct-ByteBuffer access loop.
    pub fn charge_direct_loop(&self, n: usize, clock: &mut Clock) {
        clock.charge(self.cost.direct_bb_loop(n));
    }

    // ------------------------------------------------------------------
    // Direct ByteBuffers
    // ------------------------------------------------------------------

    /// `ByteBuffer.allocateDirect(capacity)` (native byte order, as HPC
    /// codes configure it).
    pub fn allocate_direct(&mut self, capacity: usize, clock: &mut Clock) -> DirectBuffer {
        clock.charge(self.cost.direct_alloc(capacity));
        self.direct.allocate(capacity, ByteOrder::Little)
    }

    /// Free a direct buffer (Cleaner-style explicit deallocation).
    pub fn free_direct(&mut self, b: DirectBuffer, clock: &mut Clock) -> MrtResult<()> {
        clock.charge(VDur::from_nanos(self.cost.mem.direct_free_fixed_ns));
        self.direct.free(b)
    }

    /// Park an idle direct buffer: from [`crate::store::FLOOR`] up, its
    /// host bytes go back to the free list until
    /// [`Runtime::unpark_direct`]. Host-side only; charges nothing.
    pub fn park_direct(&mut self, b: DirectBuffer) -> MrtResult<()> {
        self.direct.park(b)
    }

    /// Give a parked direct buffer storage again. Its contents are
    /// unspecified, as a reused buffer's are.
    pub fn unpark_direct(&mut self, b: DirectBuffer) -> MrtResult<()> {
        self.direct.unpark(b)
    }

    /// [`Runtime::allocate_direct`] of a buffer that starts parked: it is
    /// charged and counted the same, but from [`crate::store::FLOOR`] up
    /// it holds no bytes until [`Runtime::unpark_direct`].
    pub fn allocate_direct_parked(&mut self, capacity: usize, clock: &mut Clock) -> DirectBuffer {
        clock.charge(self.cost.direct_alloc(capacity));
        self.direct.allocate_parked(capacity, ByteOrder::Little)
    }

    /// Hand an idle direct buffer's storage to the caller: from
    /// [`crate::store::FLOOR`] up, its bytes leave the buffer, which is
    /// then parked; `None` below the floor, where it keeps them.
    /// Host-side only; charges nothing.
    pub fn hand_over_direct(&mut self, b: DirectBuffer) -> MrtResult<Option<HostBytes>> {
        self.direct.hand_over(b)
    }

    /// Change the buffer's byte order (`buf.order(...)`).
    pub fn direct_set_order(&mut self, b: DirectBuffer, order: ByteOrder) -> MrtResult<()> {
        self.direct.get_mut(b)?.order = order;
        Ok(())
    }

    /// The buffer's byte order.
    pub fn direct_order(&self, b: DirectBuffer) -> MrtResult<ByteOrder> {
        Ok(self.direct.get(b)?.order)
    }

    /// Absolute typed get (`buf.getInt(byteIndex)` etc.).
    pub fn direct_get<T: Prim>(
        &self,
        b: DirectBuffer,
        byte_idx: usize,
        clock: &mut Clock,
    ) -> MrtResult<T> {
        let buf = self.direct.get(b)?;
        check_at(byte_idx, T::SIZE, buf.data.len())?;
        clock.charge(self.cost.direct_bb_loop(1));
        Ok(T::decode(&buf.data[byte_idx..], buf.order))
    }

    /// Absolute typed put (`buf.putInt(byteIndex, v)` etc.).
    pub fn direct_put<T: Prim>(
        &mut self,
        b: DirectBuffer,
        byte_idx: usize,
        v: T,
        clock: &mut Clock,
    ) -> MrtResult<()> {
        clock.charge(self.cost.direct_bb_loop(1));
        let buf = self.direct.get_mut(b)?;
        check_at(byte_idx, T::SIZE, buf.data.len())?;
        let order = buf.order;
        v.encode(&mut buf.data.make_mut()[byte_idx..], order);
        Ok(())
    }

    /// Bulk byte write (`buf.put(byte[])` — an intrinsified copy).
    pub fn direct_write_bytes(
        &mut self,
        b: DirectBuffer,
        off: usize,
        src: &[u8],
        clock: &mut Clock,
    ) -> MrtResult<()> {
        clock.charge(self.cost.memcpy(src.len()));
        self.direct
            .range_mut(b, off, src.len())?
            .copy_from_slice(src);
        Ok(())
    }

    /// Bulk byte read.
    pub fn direct_read_bytes(
        &self,
        b: DirectBuffer,
        off: usize,
        out: &mut [u8],
        clock: &mut Clock,
    ) -> MrtResult<()> {
        clock.charge(self.cost.memcpy(out.len()));
        out.copy_from_slice(self.direct.range(b, off, out.len())?);
        Ok(())
    }

    /// Copy `len` bytes of the managed object `src`, from byte `src_off`,
    /// into direct buffer `b` at `off` — the buffering layer's staging
    /// copy, made in one step with no intermediate. Charges what
    /// [`Runtime::direct_write_bytes`] charges for `len` bytes.
    pub fn direct_write_from_heap(
        &mut self,
        b: DirectBuffer,
        off: usize,
        src: Handle,
        src_off: usize,
        len: usize,
        clock: &mut Clock,
    ) -> MrtResult<()> {
        clock.charge(self.cost.memcpy(len));
        let from = self.heap.bytes(src)?;
        let from = from
            .get(src_off..src_off + len)
            .ok_or(MrtError::IndexOutOfBounds {
                index: src_off + len,
                length: from.len(),
            })?;
        self.direct.range_mut(b, off, len)?.copy_from_slice(from);
        Ok(())
    }

    /// Copy `len` bytes of direct buffer `b`, from `off`, into the managed
    /// object `dst` at byte `dst_off` — the buffering layer's unstaging
    /// copy, made in one step with no intermediate. Charges what
    /// [`Runtime::direct_read_bytes`] charges for `len` bytes.
    pub fn direct_read_into_heap(
        &mut self,
        b: DirectBuffer,
        off: usize,
        dst: Handle,
        dst_off: usize,
        len: usize,
        clock: &mut Clock,
    ) -> MrtResult<()> {
        clock.charge(self.cost.memcpy(len));
        let from = self.direct.range(b, off, len)?;
        copy_into_heap(&mut self.heap, from, dst, dst_off)
    }

    /// Copy `bytes` from outside the runtime (native memory) into the
    /// managed object `dst` at byte `dst_off`. Charges what
    /// [`Runtime::direct_read_into_heap`] charges for as many bytes.
    pub fn write_into_heap(
        &mut self,
        bytes: &[u8],
        dst: Handle,
        dst_off: usize,
        clock: &mut Clock,
    ) -> MrtResult<()> {
        clock.charge(self.cost.memcpy(bytes.len()));
        copy_into_heap(&mut self.heap, bytes, dst, dst_off)
    }

    /// Copy a managed array region into a direct buffer (typed
    /// [`Runtime::direct_write_from_heap`]).
    pub fn direct_write_from_array<T: Prim>(
        &mut self,
        b: DirectBuffer,
        byte_off: usize,
        arr: JArray<T>,
        elem_off: usize,
        elems: usize,
        clock: &mut Clock,
    ) -> MrtResult<()> {
        check_span(elem_off, elems, arr.len)?;
        self.direct_write_from_heap(
            b,
            byte_off,
            arr.handle,
            elem_off * T::SIZE,
            elems * T::SIZE,
            clock,
        )
    }

    /// Copy a direct-buffer region into a managed array (typed
    /// [`Runtime::direct_read_into_heap`]).
    pub fn direct_read_into_array<T: Prim>(
        &mut self,
        b: DirectBuffer,
        byte_off: usize,
        arr: JArray<T>,
        elem_off: usize,
        elems: usize,
        clock: &mut Clock,
    ) -> MrtResult<()> {
        check_span(elem_off, elems, arr.len)?;
        self.direct_read_into_heap(
            b,
            byte_off,
            arr.handle,
            elem_off * T::SIZE,
            elems * T::SIZE,
            clock,
        )
    }

    /// Raw storage access — only the JNI-analog boundary should use this
    /// (it models `GetDirectBufferAddress` + pointer dereference, which
    /// carries no Java-side cost).
    pub fn direct_bytes(&self, b: DirectBuffer) -> MrtResult<&[u8]> {
        Ok(&self.direct.get(b)?.data)
    }

    /// Raw mutable storage access (see [`Runtime::direct_bytes`]).
    pub fn direct_bytes_mut(&mut self, b: DirectBuffer) -> MrtResult<&mut [u8]> {
        Ok(self.direct.get_mut(b)?.data.make_mut())
    }

    // ------------------------------------------------------------------
    // Heap ByteBuffers
    // ------------------------------------------------------------------

    /// `ByteBuffer.allocate(capacity)` — an ordinary managed object,
    /// movable by the collector.
    pub fn allocate_heap_buffer(
        &mut self,
        capacity: usize,
        clock: &mut Clock,
    ) -> MrtResult<HeapBuffer> {
        let h = self.heap.alloc(capacity, clock, &self.cost)?;
        Ok(HeapBuffer {
            handle: h,
            capacity,
            order: ByteOrder::Big, // Java's heap-buffer default
        })
    }

    /// Release a heap buffer.
    pub fn release_heap_buffer(&mut self, b: HeapBuffer) -> MrtResult<()> {
        self.heap.release(b.handle)
    }

    /// Absolute typed get on a heap buffer.
    pub fn heap_get<T: Prim>(
        &self,
        b: HeapBuffer,
        byte_idx: usize,
        clock: &mut Clock,
    ) -> MrtResult<T> {
        let bytes = self.heap.bytes(b.handle)?;
        check_at(byte_idx, T::SIZE, bytes.len())?;
        clock.charge(self.cost.heap_bb_loop(1));
        Ok(T::decode(&bytes[byte_idx..], b.order))
    }

    /// Absolute typed put on a heap buffer.
    pub fn heap_put<T: Prim>(
        &mut self,
        b: HeapBuffer,
        byte_idx: usize,
        v: T,
        clock: &mut Clock,
    ) -> MrtResult<()> {
        clock.charge(self.cost.heap_bb_loop(1));
        let bytes = self.heap.bytes_mut(b.handle)?;
        check_at(byte_idx, T::SIZE, bytes.len())?;
        v.encode(&mut bytes[byte_idx..], b.order);
        Ok(())
    }
}

/// `Ok` if `n` items from `start` fit in `length`; the error names the
/// first item past the end (`usize::MAX` if that overflows).
fn check_span(start: usize, n: usize, length: usize) -> MrtResult<()> {
    match start.checked_add(n) {
        Some(end) if end <= length => Ok(()),
        end => Err(MrtError::IndexOutOfBounds {
            index: end.unwrap_or(usize::MAX),
            length,
        }),
    }
}

/// `Ok` if the `n`-item element at `start` fits in `length`; the error
/// names `start`.
fn check_at(start: usize, n: usize, length: usize) -> MrtResult<()> {
    check_span(start, n, length).map_err(|_| MrtError::IndexOutOfBounds {
        index: start,
        length,
    })
}

/// Copy `from` into the managed object `dst` at byte `dst_off`.
fn copy_into_heap(heap: &mut Heap, from: &[u8], dst: Handle, dst_off: usize) -> MrtResult<()> {
    let to = heap.bytes_mut(dst)?;
    let length = to.len();
    let end = dst_off + from.len();
    to.get_mut(dst_off..end)
        .ok_or(MrtError::IndexOutOfBounds { index: end, length })?
        .copy_from_slice(from);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Runtime, Clock) {
        (
            Runtime::with_heap(CostModel::default(), 1 << 16, 1 << 20),
            Clock::new(),
        )
    }

    #[test]
    fn a_new_runtime_holds_no_heap_bytes() {
        let mut rt = Runtime::new(CostModel::default());
        assert_eq!((rt.heap().capacity(), rt.host_bytes()), (DEFAULT_HEAP, 0));
        let mut c = Clock::new();
        rt.alloc_array::<i64>(1 << 14, &mut c).unwrap();
        rt.allocate_direct(1 << 17, &mut c);
        assert!(rt.host_bytes() >= (1 << 17) + (1 << 17));
    }

    #[test]
    fn array_get_set_roundtrip_and_bounds() {
        let (mut rt, mut c) = setup();
        let a = rt.alloc_array::<i32>(4, &mut c).unwrap();
        rt.array_set(a, 2, -7, &mut c).unwrap();
        assert_eq!(rt.array_get(a, 2, &mut c).unwrap(), -7);
        assert_eq!(rt.array_get(a, 0, &mut c).unwrap(), 0);
        assert!(matches!(
            rt.array_get(a, 4, &mut c),
            Err(MrtError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            rt.array_set(a, 4, 1, &mut c),
            Err(MrtError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn array_bulk_roundtrip() {
        let (mut rt, mut c) = setup();
        let a = rt.alloc_array::<f64>(8, &mut c).unwrap();
        let src = [1.0, 2.5, -3.25, 4.0];
        rt.array_write(a, 2, &src, &mut c).unwrap();
        let mut out = [0.0; 4];
        rt.array_read(a, 2, &mut out, &mut c).unwrap();
        assert_eq!(src, out);
        let mut too_big = [0.0; 8];
        assert!(rt.array_read(a, 2, &mut too_big, &mut c).is_err());
    }

    #[test]
    fn element_access_costs_differ_by_kind() {
        // The Figure-18 invariant at the runtime level.
        let (mut rt, mut c) = setup();
        let a = rt.alloc_array::<i64>(1000, &mut c).unwrap();
        let d = rt.allocate_direct(8000, &mut c);
        let t0 = c.now();
        for i in 0..1000 {
            rt.array_set(a, i, i as i64, &mut c).unwrap();
        }
        let t_arr = c.now() - t0;
        let t1 = c.now();
        for i in 0..1000 {
            rt.direct_put(d, i * 8, i as i64, &mut c).unwrap();
        }
        let t_bb = c.now() - t1;
        assert!(
            t_bb.as_nanos() > 2.0 * t_arr.as_nanos(),
            "direct-BB loop must be clearly slower: {t_bb:?} vs {t_arr:?}"
        );
    }

    #[test]
    fn direct_buffer_roundtrip_and_order() {
        let (mut rt, mut c) = setup();
        let b = rt.allocate_direct(16, &mut c);
        rt.direct_put(b, 0, 0x0102_0304i32, &mut c).unwrap();
        assert_eq!(rt.direct_get::<i32>(b, 0, &mut c).unwrap(), 0x0102_0304);
        // Raw storage is little-endian by default.
        assert_eq!(rt.direct_bytes(b).unwrap()[0], 0x04);
        rt.direct_set_order(b, ByteOrder::Big).unwrap();
        rt.direct_put(b, 4, 0x0102_0304i32, &mut c).unwrap();
        assert_eq!(rt.direct_bytes(b).unwrap()[4], 0x01);
        assert_eq!(rt.direct_get::<i32>(b, 4, &mut c).unwrap(), 0x0102_0304);
    }

    #[test]
    fn direct_buffer_use_after_free() {
        let (mut rt, mut c) = setup();
        let b = rt.allocate_direct(8, &mut c);
        rt.free_direct(b, &mut c).unwrap();
        assert_eq!(
            rt.direct_get::<i32>(b, 0, &mut c).unwrap_err(),
            MrtError::UseAfterFree
        );
    }

    #[test]
    fn staging_copies_between_array_and_direct() {
        let (mut rt, mut c) = setup();
        let a = rt.alloc_array::<i32>(6, &mut c).unwrap();
        for i in 0..6 {
            rt.array_set(a, i, 10 + i as i32, &mut c).unwrap();
        }
        let d = rt.allocate_direct(16, &mut c);
        // Stage the middle 4 elements (subset support!).
        rt.direct_write_from_array(d, 0, a, 1, 4, &mut c).unwrap();
        assert_eq!(rt.direct_get::<i32>(d, 0, &mut c).unwrap(), 11);
        assert_eq!(rt.direct_get::<i32>(d, 12, &mut c).unwrap(), 14);
        // Unstage into a different position.
        let b2 = rt.alloc_array::<i32>(6, &mut c).unwrap();
        rt.direct_read_into_array(d, 0, b2, 2, 4, &mut c).unwrap();
        assert_eq!(rt.array_get(b2, 2, &mut c).unwrap(), 11);
        assert_eq!(rt.array_get(b2, 5, &mut c).unwrap(), 14);
        assert_eq!(rt.array_get(b2, 0, &mut c).unwrap(), 0);
    }

    #[test]
    fn heap_direct_copies_charge_like_byte_copies() {
        let (mut rt, mut c) = setup();
        let a = rt.alloc_array::<i8>(32, &mut c).unwrap();
        let h = a.handle();
        rt.heap_mut().bytes_mut(h).unwrap()[8..16].copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let d = rt.allocate_direct(16, &mut c);

        // Each copy advances the clock by exactly the byte copy's charge.
        let mut by_bytes = c.clone();
        rt.direct_write_bytes(d, 2, &[0; 8], &mut by_bytes).unwrap();
        rt.direct_write_from_heap(d, 2, h, 8, 8, &mut c).unwrap();
        assert_eq!(c.now(), by_bytes.now());
        assert_eq!(rt.direct_bytes(d).unwrap()[2..10], [1, 2, 3, 4, 5, 6, 7, 8]);

        let mut by_bytes = c.clone();
        rt.direct_read_bytes(d, 4, &mut [0; 6], &mut by_bytes)
            .unwrap();
        rt.direct_read_into_heap(d, 4, h, 20, 6, &mut c).unwrap();
        assert_eq!(c.now(), by_bytes.now());
        assert_eq!(rt.heap().bytes(h).unwrap()[20..26], [3, 4, 5, 6, 7, 8]);

        // Out-of-range regions on either side are errors, not panics.
        assert_eq!(
            rt.direct_write_from_heap(d, 12, h, 0, 8, &mut c),
            Err(MrtError::BufferOverflow {
                needed: 20,
                available: 16
            })
        );
        assert_eq!(
            rt.direct_write_from_heap(d, 0, h, 30, 4, &mut c),
            Err(MrtError::IndexOutOfBounds {
                index: 34,
                length: 32
            })
        );
        assert_eq!(
            rt.direct_read_into_heap(d, 0, h, 30, 4, &mut c),
            Err(MrtError::IndexOutOfBounds {
                index: 34,
                length: 32
            })
        );
    }

    #[test]
    fn arrays_survive_gc_direct_buffers_unaffected() {
        let (mut rt, mut c) = setup();
        let a = rt.alloc_array::<i32>(64, &mut c).unwrap();
        for i in 0..64 {
            rt.array_set(a, i, i as i32 * 3, &mut c).unwrap();
        }
        let d = rt.allocate_direct(64, &mut c);
        rt.direct_put(d, 0, 0xDEADi32, &mut c).unwrap();
        // Create garbage ahead of `a` so compaction moves it.
        let junk = rt.alloc_array::<i64>(128, &mut c).unwrap();
        rt.release_array(junk).unwrap();
        let addr_before = rt.heap().address_of(a.handle()).unwrap();
        rt.gc(&mut c);
        // Note: `a` was allocated before junk, so it may not move; force
        // movement with a second layout.
        let junk2 = rt.alloc_array::<i64>(256, &mut c).unwrap();
        let b = rt.alloc_array::<i32>(8, &mut c).unwrap();
        rt.release_array(junk2).unwrap();
        let b_before = rt.heap().address_of(b.handle()).unwrap();
        rt.gc(&mut c);
        let b_after = rt.heap().address_of(b.handle()).unwrap();
        assert!(b_after < b_before, "object slides down over reclaimed junk");
        for i in 0..64 {
            assert_eq!(rt.array_get(a, i, &mut c).unwrap(), i as i32 * 3);
        }
        assert_eq!(rt.direct_get::<i32>(d, 0, &mut c).unwrap(), 0xDEAD);
        let _ = addr_before;
    }

    #[test]
    fn heap_buffer_defaults_to_big_endian() {
        let (mut rt, mut c) = setup();
        let b = rt.allocate_heap_buffer(8, &mut c).unwrap();
        rt.heap_put(b, 0, 0x0102_0304i32, &mut c).unwrap();
        assert_eq!(rt.heap().bytes(b.handle()).unwrap()[0], 0x01);
        assert_eq!(rt.heap_get::<i32>(b, 0, &mut c).unwrap(), 0x0102_0304);
    }

    #[test]
    fn direct_allocation_is_expensive() {
        let (mut rt, mut c) = setup();
        let t0 = c.now();
        let a = rt.alloc_array::<i8>(4096, &mut c).unwrap();
        let t_heap = c.now() - t0;
        let t1 = c.now();
        let _d = rt.allocate_direct(4096, &mut c);
        let t_direct = c.now() - t1;
        assert!(t_direct.as_nanos() > 5.0 * t_heap.as_nanos());
        let _ = a;
    }

    #[test]
    fn charge_loops_advance_clock_linearly() {
        let (rt, mut c) = setup();
        let t0 = c.now();
        rt.charge_array_loop(1000, &mut c);
        let arr_cost = c.now() - t0;
        let t1 = c.now();
        rt.charge_direct_loop(1000, &mut c);
        let bb_cost = c.now() - t1;
        assert!(bb_cost > arr_cost);
    }
}
