//! `mpjbuf::Buffer` — the staging buffer of the buffering layer,
//! following the interface of the paper's Listing 1.
//!
//! A `Buffer` wraps a (usually pooled) direct ByteBuffer and supports two
//! staging disciplines:
//!
//! * **raw staging** (`stage_*` / `unstage_*`): header-free bulk copies of
//!   array regions — what the bindings use for ordinary array messages,
//!   so the wire format stays identical to the direct-ByteBuffer path;
//! * **sectioned mode** (`write` / `read` with
//!   [`Buffer::put_section_header`] / [`Buffer::get_section_header`]):
//!   MPJ-Express-style self-describing sections, each carrying a type tag
//!   and element count — used for multi-array messages and derived
//!   datatypes, where "it is possible to copy scattered elements in the
//!   array onto consecutive locations in the ByteBuffer".

use mrt::prim::{ByteOrder, Prim, PrimType};
use mrt::{DirectBuffer, MrtError, MrtResult, Runtime};
use vtime::Clock;

use crate::pool::BufferPool;

/// Bytes of a section header: 1 type tag + 3 reserved + 4 element count.
pub const SECTION_HEADER_BYTES: usize = 8;

fn type_tag(t: PrimType) -> u8 {
    match t {
        PrimType::Byte => 0,
        PrimType::Boolean => 1,
        PrimType::Char => 2,
        PrimType::Short => 3,
        PrimType::Int => 4,
        PrimType::Long => 5,
        PrimType::Float => 6,
        PrimType::Double => 7,
    }
}

fn tag_type(tag: u8) -> MrtResult<PrimType> {
    Ok(match tag {
        0 => PrimType::Byte,
        1 => PrimType::Boolean,
        2 => PrimType::Char,
        3 => PrimType::Short,
        4 => PrimType::Int,
        5 => PrimType::Long,
        6 => PrimType::Float,
        7 => PrimType::Double,
        _ => {
            return Err(MrtError::TypeMismatch {
                expected: "primitive type tag",
                actual: "corrupt section header",
            })
        }
    })
}

/// A staging buffer backed by a direct ByteBuffer.
pub struct Buffer {
    store: DirectBuffer,
    /// Whether `store` came from a pool (free() returns it there).
    pooled: bool,
    write_pos: usize,
    read_pos: usize,
    committed: bool,
    encoding: ByteOrder,
    sections: u32,
}

impl Buffer {
    /// Wrap a caller-provided direct buffer (static buffer).
    pub fn attach(store: DirectBuffer) -> Self {
        Buffer {
            store,
            pooled: false,
            write_pos: 0,
            read_pos: 0,
            committed: false,
            encoding: ByteOrder::Little,
            sections: 0,
        }
    }

    /// Acquire a pooled buffer of at least `size` bytes.
    pub fn from_pool(
        pool: &mut BufferPool,
        rt: &mut Runtime,
        clock: &mut Clock,
        size: usize,
    ) -> Self {
        Buffer::pooled(pool.acquire(rt, clock, size))
    }

    /// [`Buffer::from_pool`] over a store that stays parked
    /// ([`BufferPool::acquire_parked`]): for a receive that never writes it.
    pub fn from_pool_parked(
        pool: &mut BufferPool,
        rt: &mut Runtime,
        clock: &mut Clock,
        size: usize,
    ) -> Self {
        Buffer::pooled(pool.acquire_parked(rt, clock, size))
    }

    fn pooled(store: DirectBuffer) -> Self {
        Buffer {
            store,
            pooled: true,
            ..Buffer::attach(store)
        }
    }

    /// The backing direct buffer (what the JNI layer takes the address
    /// of).
    pub fn store(&self) -> DirectBuffer {
        self.store
    }

    /// Bytes staged so far.
    pub fn len(&self) -> usize {
        self.write_pos
    }

    /// Whether nothing has been staged.
    pub fn is_empty(&self) -> bool {
        self.write_pos == 0
    }

    /// Remaining staging capacity.
    pub fn remaining(&self) -> usize {
        self.store.capacity() - self.write_pos
    }

    /// Number of sections written (sectioned mode).
    pub fn sections(&self) -> u32 {
        self.sections
    }

    /// `getEncoding()`.
    pub fn encoding(&self) -> ByteOrder {
        self.encoding
    }

    /// `setEncoding(ByteOrder)`. Only allowed before any data is staged.
    pub fn set_encoding(&mut self, rt: &mut Runtime, order: ByteOrder) -> MrtResult<()> {
        if self.write_pos != 0 {
            return Err(MrtError::BufferOverflow {
                needed: 0,
                available: self.write_pos,
            });
        }
        self.encoding = order;
        rt.direct_set_order(self.store, order)
    }

    fn ensure(&self, n: usize) -> MrtResult<()> {
        if self.committed {
            return Err(MrtError::BufferOverflow {
                needed: n,
                available: 0,
            });
        }
        if n > self.remaining() {
            return Err(MrtError::BufferOverflow {
                needed: n,
                available: self.remaining(),
            });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Raw staging (bindings' fast path for basic-type arrays)
    // ------------------------------------------------------------------

    /// Stage `num_els` elements of `src` starting at `src_off` — a bulk
    /// arraycopy into the direct store. Supports array *subsets*, the
    /// capability the Open MPI Java API lost when it dropped `offset`
    /// arguments.
    pub fn stage_array<T: Prim>(
        &mut self,
        rt: &mut Runtime,
        clock: &mut Clock,
        src: mrt::JArray<T>,
        src_off: usize,
        num_els: usize,
    ) -> MrtResult<()> {
        let nbytes = num_els * T::SIZE;
        self.ensure(nbytes)?;
        rt.direct_write_from_array(self.store, self.write_pos, src, src_off, num_els, clock)?;
        self.write_pos += nbytes;
        Ok(())
    }

    /// Unstage `num_els` elements into `dst` at `dst_off`.
    pub fn unstage_array<T: Prim>(
        &mut self,
        rt: &mut Runtime,
        clock: &mut Clock,
        dst: mrt::JArray<T>,
        dst_off: usize,
        num_els: usize,
    ) -> MrtResult<()> {
        let nbytes = num_els * T::SIZE;
        if self.read_pos + nbytes > self.write_pos {
            return Err(MrtError::BufferOverflow {
                needed: nbytes,
                available: self.write_pos - self.read_pos,
            });
        }
        rt.direct_read_into_array(self.store, self.read_pos, dst, dst_off, num_els, clock)?;
        self.read_pos += nbytes;
        Ok(())
    }

    /// Stage raw bytes (already-packed payloads).
    pub fn stage_bytes(
        &mut self,
        rt: &mut Runtime,
        clock: &mut Clock,
        src: &[u8],
    ) -> MrtResult<()> {
        self.ensure(src.len())?;
        rt.direct_write_bytes(self.store, self.write_pos, src, clock)?;
        self.write_pos += src.len();
        Ok(())
    }

    /// Mark a received payload of `n` bytes as present in the store (used
    /// on the receive path, where the native library deposited the data).
    pub fn assume_filled(&mut self, n: usize) -> MrtResult<()> {
        if n > self.store.capacity() {
            return Err(MrtError::BufferOverflow {
                needed: n,
                available: self.store.capacity(),
            });
        }
        self.write_pos = n;
        self.read_pos = 0;
        self.committed = true;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Sectioned mode (Listing 1)
    // ------------------------------------------------------------------

    /// `putSectionHeader(Type)`: open a section of `num_els` elements.
    pub fn put_section_header(
        &mut self,
        rt: &mut Runtime,
        clock: &mut Clock,
        ty: PrimType,
        num_els: usize,
    ) -> MrtResult<()> {
        self.ensure(SECTION_HEADER_BYTES)?;
        let mut hdr = [0u8; SECTION_HEADER_BYTES];
        hdr[0] = type_tag(ty);
        hdr[4..].copy_from_slice(&(num_els as u32).to_le_bytes());
        rt.direct_write_bytes(self.store, self.write_pos, &hdr, clock)?;
        self.write_pos += SECTION_HEADER_BYTES;
        self.sections += 1;
        Ok(())
    }

    /// `getSectionHeader()`: read the next section's type and length.
    pub fn get_section_header(
        &mut self,
        rt: &Runtime,
        clock: &mut Clock,
    ) -> MrtResult<(PrimType, usize)> {
        if self.read_pos + SECTION_HEADER_BYTES > self.write_pos {
            return Err(MrtError::BufferOverflow {
                needed: SECTION_HEADER_BYTES,
                available: self.write_pos - self.read_pos,
            });
        }
        let mut hdr = [0u8; SECTION_HEADER_BYTES];
        rt.direct_read_bytes(self.store, self.read_pos, &mut hdr, clock)?;
        self.read_pos += SECTION_HEADER_BYTES;
        let ty = tag_type(hdr[0])?;
        let n = u32::from_le_bytes(hdr[4..].try_into().expect("fixed header")) as usize;
        Ok((ty, n))
    }

    /// `write(type[] source, int srcOff, int numEls)`: header + data.
    pub fn write<T: Prim>(
        &mut self,
        rt: &mut Runtime,
        clock: &mut Clock,
        src: mrt::JArray<T>,
        src_off: usize,
        num_els: usize,
    ) -> MrtResult<()> {
        self.put_section_header(rt, clock, T::TYPE, num_els)?;
        self.stage_array(rt, clock, src, src_off, num_els)
    }

    /// `read(type[] dest, int dstOff, int numEls)`: consume the next
    /// section, checking its type tag and length.
    pub fn read<T: Prim>(
        &mut self,
        rt: &mut Runtime,
        clock: &mut Clock,
        dst: mrt::JArray<T>,
        dst_off: usize,
        num_els: usize,
    ) -> MrtResult<()> {
        let (ty, n) = self.get_section_header(rt, clock)?;
        if ty != T::TYPE {
            return Err(MrtError::TypeMismatch {
                expected: T::TYPE.name(),
                actual: ty.name(),
            });
        }
        if n != num_els {
            return Err(MrtError::BufferOverflow {
                needed: num_els,
                available: n,
            });
        }
        self.unstage_array(rt, clock, dst, dst_off, num_els)
    }

    // ------------------------------------------------------------------
    // Lifecycle (Listing 1 utility methods)
    // ------------------------------------------------------------------

    /// `commit()`: freeze the staged content for communication and rewind
    /// the read cursor.
    pub fn commit(&mut self) {
        self.committed = true;
        self.read_pos = 0;
    }

    /// `clear()`: reset for reuse without returning the store.
    pub fn clear(&mut self) {
        self.write_pos = 0;
        self.read_pos = 0;
        self.committed = false;
        self.sections = 0;
    }

    /// `free()`: return the store to its pool (or the allocator).
    pub fn free(self, pool: &mut BufferPool, rt: &mut Runtime, clock: &mut Clock) {
        if self.pooled {
            pool.release(rt, clock, self.store);
        } else {
            rt.free_direct(self.store, clock)
                .expect("buffer store is live");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtime::CostModel;

    fn setup() -> (Runtime, Clock, BufferPool) {
        (
            Runtime::new(CostModel::default()),
            Clock::new(),
            BufferPool::new(),
        )
    }

    #[test]
    fn raw_staging_roundtrip_with_offsets() {
        let (mut rt, mut c, mut pool) = setup();
        let src = rt.alloc_array::<i32>(8, &mut c).unwrap();
        for i in 0..8 {
            rt.array_set(src, i, i as i32 * 7, &mut c).unwrap();
        }
        let mut buf = Buffer::from_pool(&mut pool, &mut rt, &mut c, 64);
        // Stage a SUBSET: elements 2..6.
        buf.stage_array(&mut rt, &mut c, src, 2, 4).unwrap();
        assert_eq!(buf.len(), 16);
        buf.commit();
        let dst = rt.alloc_array::<i32>(8, &mut c).unwrap();
        buf.unstage_array(&mut rt, &mut c, dst, 1, 4).unwrap();
        for k in 0..4 {
            assert_eq!(
                rt.array_get(dst, 1 + k, &mut c).unwrap(),
                ((2 + k) as i32) * 7
            );
        }
        buf.free(&mut pool, &mut rt, &mut c);
    }

    #[test]
    fn sectioned_mode_multiple_types() {
        let (mut rt, mut c, mut pool) = setup();
        let a = rt.alloc_array::<i32>(3, &mut c).unwrap();
        let b = rt.alloc_array::<f64>(2, &mut c).unwrap();
        rt.array_write(a, 0, &[1, 2, 3], &mut c).unwrap();
        rt.array_write(b, 0, &[0.5, -0.5], &mut c).unwrap();

        let mut buf = Buffer::from_pool(&mut pool, &mut rt, &mut c, 256);
        buf.write(&mut rt, &mut c, a, 0, 3).unwrap();
        buf.write(&mut rt, &mut c, b, 0, 2).unwrap();
        assert_eq!(buf.sections(), 2);
        buf.commit();

        let a2 = rt.alloc_array::<i32>(3, &mut c).unwrap();
        let b2 = rt.alloc_array::<f64>(2, &mut c).unwrap();
        buf.read(&mut rt, &mut c, a2, 0, 3).unwrap();
        buf.read(&mut rt, &mut c, b2, 0, 2).unwrap();
        let mut out_a = [0i32; 3];
        rt.array_read(a2, 0, &mut out_a, &mut c).unwrap();
        assert_eq!(out_a, [1, 2, 3]);
        let mut out_b = [0f64; 2];
        rt.array_read(b2, 0, &mut out_b, &mut c).unwrap();
        assert_eq!(out_b, [0.5, -0.5]);
        buf.free(&mut pool, &mut rt, &mut c);
    }

    #[test]
    fn read_with_wrong_type_is_rejected() {
        let (mut rt, mut c, mut pool) = setup();
        let a = rt.alloc_array::<i32>(2, &mut c).unwrap();
        let mut buf = Buffer::from_pool(&mut pool, &mut rt, &mut c, 64);
        buf.write(&mut rt, &mut c, a, 0, 2).unwrap();
        buf.commit();
        let wrong = rt.alloc_array::<f64>(2, &mut c).unwrap();
        assert!(matches!(
            buf.read(&mut rt, &mut c, wrong, 0, 2),
            Err(MrtError::TypeMismatch { .. })
        ));
        buf.free(&mut pool, &mut rt, &mut c);
    }

    #[test]
    fn overflow_is_rejected() {
        let (mut rt, mut c, mut pool) = setup();
        let a = rt.alloc_array::<i64>(100, &mut c).unwrap();
        let mut buf = Buffer::from_pool(&mut pool, &mut rt, &mut c, 256);
        assert!(matches!(
            buf.stage_array(&mut rt, &mut c, a, 0, 100),
            Err(MrtError::BufferOverflow { .. })
        ));
        buf.free(&mut pool, &mut rt, &mut c);
    }

    #[test]
    fn write_after_commit_rejected_until_clear() {
        let (mut rt, mut c, mut pool) = setup();
        let a = rt.alloc_array::<i8>(4, &mut c).unwrap();
        let mut buf = Buffer::from_pool(&mut pool, &mut rt, &mut c, 64);
        buf.stage_array(&mut rt, &mut c, a, 0, 4).unwrap();
        buf.commit();
        assert!(buf.stage_array(&mut rt, &mut c, a, 0, 4).is_err());
        buf.clear();
        assert_eq!(buf.len(), 0);
        buf.stage_array(&mut rt, &mut c, a, 0, 4).unwrap();
        buf.free(&mut pool, &mut rt, &mut c);
    }

    #[test]
    fn encoding_switch_only_before_data() {
        let (mut rt, mut c, mut pool) = setup();
        let mut buf = Buffer::from_pool(&mut pool, &mut rt, &mut c, 64);
        buf.set_encoding(&mut rt, ByteOrder::Big).unwrap();
        assert_eq!(buf.encoding(), ByteOrder::Big);
        let a = rt.alloc_array::<i8>(1, &mut c).unwrap();
        buf.stage_array(&mut rt, &mut c, a, 0, 1).unwrap();
        assert!(buf.set_encoding(&mut rt, ByteOrder::Little).is_err());
        buf.free(&mut pool, &mut rt, &mut c);
    }

    #[test]
    fn free_returns_to_pool_for_reuse() {
        let (mut rt, mut c, mut pool) = setup();
        let buf = Buffer::from_pool(&mut pool, &mut rt, &mut c, 1024);
        let store = buf.store();
        buf.free(&mut pool, &mut rt, &mut c);
        let again = Buffer::from_pool(&mut pool, &mut rt, &mut c, 1024);
        assert_eq!(again.store(), store);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn stage_bytes_then_assume_filled_models_receive() {
        let (mut rt, mut c, mut pool) = setup();
        let mut buf = Buffer::from_pool(&mut pool, &mut rt, &mut c, 64);
        buf.stage_bytes(&mut rt, &mut c, &[9, 8, 7]).unwrap();
        assert_eq!(buf.len(), 3);
        buf.clear();
        // Receive path: data deposited by the native library.
        rt.direct_write_bytes(buf.store(), 0, &[1, 2, 3, 4], &mut c)
            .unwrap();
        buf.assume_filled(4).unwrap();
        let dst = rt.alloc_array::<i8>(4, &mut c).unwrap();
        buf.unstage_array(&mut rt, &mut c, dst, 0, 4).unwrap();
        assert_eq!(rt.array_get(dst, 3, &mut c).unwrap(), 4);
        buf.free(&mut pool, &mut rt, &mut c);
    }
}
