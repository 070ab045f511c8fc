//! ByteBuffers: direct (off-heap, address-stable) and heap (on-heap,
//! movable) — the two NIO buffer kinds the paper's API distinguishes.
//!
//! Direct buffers live in a separate native region whose allocations
//! never move, so the JNI-analog boundary can hand out their storage
//! without copying or disabling the GC. They are deliberately costly to
//! create (`MemCosts::direct_alloc_fixed_ns`) — the reason the buffering
//! layer pools them. A buffer the pool keeps idle may be *parked*: it
//! stays allocated, but its host bytes of [`FLOOR`] and up go back to
//! the free list until the pool hands it out again.

use crate::error::{MrtError, MrtResult};
use crate::heap::Handle;
use crate::prim::ByteOrder;
use crate::store::{HostBytes, FLOOR};

/// Handle to a direct (off-heap) ByteBuffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DirectBuffer {
    pub(crate) id: u32,
    pub(crate) capacity: usize,
}

impl DirectBuffer {
    /// Capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Stable identity of the off-heap region (direct buffers never move,
    /// so the id works as a registration-cache key).
    #[inline]
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// Handle to a heap (non-direct) ByteBuffer — an ordinary managed object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HeapBuffer {
    pub(crate) handle: Handle,
    pub(crate) capacity: usize,
    pub(crate) order: ByteOrder,
}

impl HeapBuffer {
    /// Capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The underlying heap handle.
    #[inline]
    pub fn handle(&self) -> Handle {
        self.handle
    }
}

#[derive(Debug)]
pub(crate) struct DirectBuf {
    /// The buffer's bytes; empty while it is parked.
    pub data: HostBytes,
    pub order: ByteOrder,
}

/// The native (off-heap) memory region backing direct buffers.
#[derive(Default)]
pub(crate) struct DirectRegion {
    bufs: Vec<Option<DirectBuf>>,
    free: Vec<u32>,
    pub allocated_bytes: usize,
    pub total_allocations: u64,
}

impl DirectRegion {
    pub fn allocate(&mut self, capacity: usize, order: ByteOrder) -> DirectBuffer {
        let buf = DirectBuf {
            data: HostBytes::zeroed(capacity),
            order,
        };
        self.allocated_bytes += capacity;
        self.total_allocations += 1;
        let id = match self.free.pop() {
            Some(i) => {
                self.bufs[i as usize] = Some(buf);
                i
            }
            None => {
                self.bufs.push(Some(buf));
                (self.bufs.len() - 1) as u32
            }
        };
        DirectBuffer { id, capacity }
    }

    pub fn free(&mut self, b: DirectBuffer) -> MrtResult<()> {
        let slot = self
            .bufs
            .get_mut(b.id as usize)
            .ok_or(MrtError::UseAfterFree)?;
        if slot.take().is_none() {
            return Err(MrtError::UseAfterFree);
        }
        self.allocated_bytes -= b.capacity;
        self.free.push(b.id);
        Ok(())
    }

    /// Give the host bytes of an idle buffer of [`FLOOR`] bytes or more
    /// back to the free list; a smaller buffer keeps its bytes (parking
    /// one costs more than it saves). The buffer stays allocated, and
    /// [`DirectRegion::unpark`] gives it storage again.
    pub fn park(&mut self, b: DirectBuffer) -> MrtResult<()> {
        let buf = self.get_mut(b)?;
        if b.capacity >= FLOOR {
            buf.data = HostBytes::default();
        }
        Ok(())
    }

    /// Storage for a buffer [`DirectRegion::park`] emptied, holding
    /// whatever its last user wrote (the pool's reuse promises no
    /// contents); a buffer that kept its bytes is left as it is.
    pub fn unpark(&mut self, b: DirectBuffer) -> MrtResult<()> {
        let buf = self.get_mut(b)?;
        if buf.data.len() != b.capacity {
            buf.data = HostBytes::recycled(b.capacity);
        }
        Ok(())
    }

    /// Host bytes the live buffers hold.
    pub fn host_bytes(&self) -> usize {
        self.bufs.iter().flatten().map(|b| b.data.host_len()).sum()
    }

    pub fn get(&self, b: DirectBuffer) -> MrtResult<&DirectBuf> {
        self.bufs
            .get(b.id as usize)
            .and_then(|s| s.as_ref())
            .ok_or(MrtError::UseAfterFree)
    }

    pub fn get_mut(&mut self, b: DirectBuffer) -> MrtResult<&mut DirectBuf> {
        self.bufs
            .get_mut(b.id as usize)
            .and_then(|s| s.as_mut())
            .ok_or(MrtError::UseAfterFree)
    }

    /// Bytes `[off, off + len)` of buffer `b`; `BufferOverflow` past its end.
    pub fn range(&self, b: DirectBuffer, off: usize, len: usize) -> MrtResult<&[u8]> {
        let data = &self.get(b)?.data;
        data.get(off..off + len).ok_or(MrtError::BufferOverflow {
            needed: off + len,
            available: data.len(),
        })
    }

    /// Mutable [`DirectRegion::range`].
    pub fn range_mut(&mut self, b: DirectBuffer, off: usize, len: usize) -> MrtResult<&mut [u8]> {
        let data = self.get_mut(b)?.data.make_mut();
        let available = data.len();
        data.get_mut(off..off + len)
            .ok_or(MrtError::BufferOverflow {
                needed: off + len,
                available,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_use_free() {
        let mut r = DirectRegion::default();
        let b = r.allocate(64, ByteOrder::Little);
        assert_eq!(b.capacity(), 64);
        assert_eq!(r.allocated_bytes, 64);
        r.get_mut(b).unwrap().data.make_mut()[0] = 42;
        assert_eq!(r.get(b).unwrap().data[0], 42);
        r.free(b).unwrap();
        assert_eq!(r.allocated_bytes, 0);
        assert_eq!(r.get(b).unwrap_err(), MrtError::UseAfterFree);
        assert_eq!(r.free(b).unwrap_err(), MrtError::UseAfterFree);
    }

    #[test]
    fn ids_are_recycled_but_slots_reset() {
        let mut r = DirectRegion::default();
        let a = r.allocate(16, ByteOrder::Little);
        r.get_mut(a).unwrap().data.make_mut().fill(9);
        r.free(a).unwrap();
        let b = r.allocate(16, ByteOrder::Little);
        assert_eq!(a.id, b.id, "slot is recycled");
        assert!(
            r.get(b).unwrap().data.iter().all(|&x| x == 0),
            "fresh zeroed storage"
        );
        assert_eq!(r.total_allocations, 2);
    }
}
