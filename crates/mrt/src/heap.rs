//! The managed heap: bump allocation with a compacting (moving) collector.
//!
//! This is the piece of the reproduction that restores meaning to the
//! paper's central design problem. On-heap objects are addressed through a
//! **handle table**; a collection slides live objects together, so the
//! *byte offset* of an object really changes across GCs — exactly why JNI
//! cannot hand out raw on-heap pointers without either copying
//! (`Get<Type>ArrayElements`) or disabling the GC
//! (`GetPrimitiveArrayCritical`), and why direct (off-heap) buffers are
//! attractive for communication.
//!
//! The heap is a virtual address space: offsets, the bump pointer, the
//! capacity and its growth, the collection points and the bytes a
//! collection copies are all modelled, but each object owns its host
//! bytes ([`HostBytes`]). A collection therefore moves offsets, not
//! bytes, and a released object gives its bytes back at once, so a heap
//! holds host memory only for its live objects.
//!
//! The collector is stop-the-world and charges a pause proportional to the
//! live set to the owning rank's virtual clock.

use vtime::{Clock, CostModel};

use crate::error::{MrtError, MrtResult};
use crate::store::HostBytes;

/// Handle to a managed heap object. Stable across collections (the
/// *object* moves; the handle does not).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Handle(pub(crate) u32);

/// A live object: its virtual offset and its bytes. A dead slot holds
/// no bytes.
#[derive(Debug, Default)]
struct Slot {
    offset: usize,
    bytes: HostBytes,
    live: bool,
}

/// Collector statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GcStats {
    /// Completed collections.
    pub collections: u64,
    /// Live bytes evacuated over all collections.
    pub bytes_copied: u64,
    /// Times the heap grew.
    pub growths: u64,
}

/// The managed heap.
pub struct Heap {
    capacity: usize,
    top: usize,
    max_capacity: usize,
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    /// Nesting depth of critical (GC-disabled) regions.
    critical_depth: u32,
    stats: GcStats,
}

impl Heap {
    /// Create a heap with `capacity` initial bytes, growable to
    /// `max_capacity` (-Xms/-Xmx).
    pub fn new(capacity: usize, max_capacity: usize) -> Self {
        assert!(capacity > 0 && max_capacity >= capacity);
        Heap {
            capacity,
            top: 0,
            max_capacity,
            slots: Vec::new(),
            free_slots: Vec::new(),
            critical_depth: 0,
            stats: GcStats::default(),
        }
    }

    /// Bytes currently allocated to live objects.
    pub fn live_bytes(&self) -> usize {
        self.live().map(|s| s.bytes.len()).sum()
    }

    /// Host bytes the heap's live objects hold (see [`HostBytes::host_len`]).
    pub fn host_bytes(&self) -> usize {
        self.live().map(|s| s.bytes.host_len()).sum()
    }

    fn live(&self) -> impl Iterator<Item = &Slot> {
        self.slots.iter().filter(|s| s.live)
    }

    /// Current capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Collector statistics so far.
    pub fn stats(&self) -> GcStats {
        self.stats
    }

    /// Whether a critical region is active (GC disabled).
    pub fn gc_locked(&self) -> bool {
        self.critical_depth > 0
    }

    /// Enter a critical region (JNI `GetPrimitiveArrayCritical`).
    pub fn enter_critical(&mut self) {
        self.critical_depth += 1;
    }

    /// Leave a critical region.
    pub fn leave_critical(&mut self) {
        assert!(self.critical_depth > 0, "unbalanced critical region");
        self.critical_depth -= 1;
    }

    /// Allocate `len` zeroed bytes, running the collector and/or growing
    /// the heap if needed. Charges allocation (and any pause) to `clock`.
    pub fn alloc(&mut self, len: usize, clock: &mut Clock, cost: &CostModel) -> MrtResult<Handle> {
        if self.top + len > self.capacity {
            if self.gc_locked() {
                return Err(MrtError::AllocationInCriticalRegion);
            }
            self.collect(clock, cost);
            while self.top + len > self.capacity {
                if self.capacity >= self.max_capacity {
                    return Err(MrtError::OutOfMemory {
                        requested: len,
                        heap_max: self.max_capacity,
                    });
                }
                self.capacity = (self.capacity * 2).min(self.max_capacity);
                self.stats.growths += 1;
            }
        }
        clock.charge(cost.heap_alloc(len));
        // Allocation pressure: how fast the mutator is filling the heap.
        obs::count(obs::pvar::MRT_HEAP_ALLOCS, 1);
        obs::count(obs::pvar::MRT_HEAP_ALLOC_BYTES, len as u64);
        let slot = Slot {
            offset: self.top,
            bytes: HostBytes::zeroed(len),
            live: true,
        };
        self.top += len;
        let idx = match self.free_slots.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        Ok(Handle(idx))
    }

    /// Mark an object dead (the analogue of dropping the last reference).
    /// Its bytes go back at once; its virtual space is reclaimed at the
    /// next collection.
    pub fn release(&mut self, h: Handle) -> MrtResult<()> {
        self.slot_mut(h)?;
        self.slots[h.0 as usize] = Slot::default();
        self.free_slots.push(h.0);
        Ok(())
    }

    fn slot(&self, h: Handle) -> MrtResult<&Slot> {
        self.slots
            .get(h.0 as usize)
            .filter(|s| s.live)
            .ok_or(MrtError::BadHandle)
    }

    fn slot_mut(&mut self, h: Handle) -> MrtResult<&mut Slot> {
        self.slots
            .get_mut(h.0 as usize)
            .filter(|s| s.live)
            .ok_or(MrtError::BadHandle)
    }

    /// Read-only view of the object's bytes.
    pub fn bytes(&self, h: Handle) -> MrtResult<&[u8]> {
        Ok(&self.slot(h)?.bytes)
    }

    /// Mutable view of the object's bytes.
    pub fn bytes_mut(&mut self, h: Handle) -> MrtResult<&mut [u8]> {
        Ok(self.slot_mut(h)?.bytes.make_mut())
    }

    /// Object length in bytes.
    pub fn len_of(&self, h: Handle) -> MrtResult<usize> {
        Ok(self.slot(h)?.bytes.len())
    }

    /// The object's *current* address (heap offset). Changes when the
    /// collector moves the object — the reason JNI can't pin this.
    pub fn address_of(&self, h: Handle) -> MrtResult<usize> {
        Ok(self.slot(h)?.offset)
    }

    /// Run a stop-the-world compacting collection: slide live objects to
    /// the bottom of the heap in address order and reclaim everything
    /// else. Charges the pause to `clock`.
    pub fn collect(&mut self, clock: &mut Clock, cost: &CostModel) {
        assert!(!self.gc_locked(), "collection while GC is locked");
        // Live slot indices in current address order for stable sliding.
        let mut order: Vec<usize> = (0..self.slots.len())
            .filter(|&i| self.slots[i].live)
            .collect();
        order.sort_unstable_by_key(|&i| self.slots[i].offset);

        let mut new_top = 0usize;
        let mut copied = 0u64;
        for i in order {
            let slot = &mut self.slots[i];
            let len = slot.bytes.len();
            // The object's bytes stay where they are; its modelled copy
            // is what the collector charges and counts.
            if slot.offset != new_top {
                copied += len as u64;
            }
            slot.offset = new_top;
            new_top += len;
        }
        self.top = new_top;
        self.stats.collections += 1;
        self.stats.bytes_copied += copied;
        let pause_begin = clock.now();
        clock.charge(cost.gc_pause(new_top));
        obs::count(obs::pvar::MRT_GC_COLLECTIONS, 1);
        obs::count(obs::pvar::MRT_GC_BYTES_COPIED, copied);
        obs::observe(
            obs::pvar::MRT_GC_PAUSES_NS,
            clock.now().saturating_since(pause_begin).as_nanos(),
        );
        if obs::tracing_enabled() {
            obs::span(
                "gc",
                "mrt",
                pause_begin,
                clock.now(),
                vec![
                    ("live_bytes", obs::ArgValue::U64(new_top as u64)),
                    ("copied", obs::ArgValue::U64(copied)),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Heap, Clock, CostModel) {
        (Heap::new(1024, 4096), Clock::new(), CostModel::default())
    }

    #[test]
    fn alloc_returns_zeroed_distinct_objects() {
        let (mut h, mut c, cost) = setup();
        let a = h.alloc(16, &mut c, &cost).unwrap();
        let b = h.alloc(16, &mut c, &cost).unwrap();
        assert_ne!(a, b);
        assert!(h.bytes(a).unwrap().iter().all(|&x| x == 0));
        h.bytes_mut(a).unwrap().fill(7);
        assert!(h.bytes(b).unwrap().iter().all(|&x| x == 0));
        assert_eq!(h.live_bytes(), 32);
    }

    #[test]
    fn release_then_access_fails() {
        let (mut h, mut c, cost) = setup();
        let a = h.alloc(8, &mut c, &cost).unwrap();
        h.release(a).unwrap();
        assert_eq!(h.bytes(a).unwrap_err(), MrtError::BadHandle);
        assert_eq!(h.release(a).unwrap_err(), MrtError::BadHandle);
    }

    #[test]
    fn gc_compacts_and_moves_objects() {
        let (mut h, mut c, cost) = setup();
        let a = h.alloc(100, &mut c, &cost).unwrap();
        let b = h.alloc(100, &mut c, &cost).unwrap();
        h.bytes_mut(b).unwrap().fill(0xAB);
        let addr_before = h.address_of(b).unwrap();
        h.release(a).unwrap();
        h.collect(&mut c, &cost);
        let addr_after = h.address_of(b).unwrap();
        assert_eq!((addr_before, addr_after), (100, 0), "survivor slides down");
        // Contents preserved across the move.
        assert!(h.bytes(b).unwrap().iter().all(|&x| x == 0xAB));
        let want = GcStats {
            collections: 1,
            bytes_copied: 100,
            growths: 0,
        };
        assert_eq!(h.stats(), want);
    }

    #[test]
    fn allocation_pressure_triggers_gc_and_reuses_space() {
        use crate::store::{HostBytes, FLOOR};
        let cost = CostModel::default();
        let mut c = Clock::new();
        let mut h = Heap::new(4 * FLOOR, 16 * FLOOR);
        assert_eq!(h.host_bytes(), 0, "capacity is virtual");
        let keep = h.alloc(100, &mut c, &cost).unwrap();
        let big = h.alloc(FLOOR, &mut c, &cost).unwrap();
        // Churn far more than the heap's capacity, small and large.
        for i in 0..64 {
            let x = h.alloc(if i % 2 == 0 { 512 } else { FLOOR }, &mut c, &cost);
            h.release(x.unwrap()).unwrap();
        }
        assert!(h.stats().collections > 0, "GC must have run");
        assert_eq!(h.capacity(), 4 * FLOOR, "and never grew the heap");
        // Host bytes are held for the live objects only.
        let big_host = HostBytes::zeroed(FLOOR).host_len();
        assert_eq!(h.host_bytes(), 100 + big_host);
        assert_eq!(h.live_bytes(), 100 + FLOOR);
        h.release(big).unwrap();
        assert_eq!(h.host_bytes(), 100, "release gives bytes back at once");
        assert_eq!(h.len_of(keep).unwrap(), 100);
    }

    #[test]
    fn gc_pause_advances_clock() {
        let (mut h, mut c, cost) = setup();
        let _ = h.alloc(100, &mut c, &cost).unwrap();
        let before = c.now();
        h.collect(&mut c, &cost);
        assert!(c.now() > before);
    }

    #[test]
    fn heap_grows_up_to_max_then_oom() {
        let (mut h, mut c, cost) = setup();
        let mut held = Vec::new();
        // Keep everything live: forces growth, then OOM.
        let mut oom = None;
        for _ in 0..100 {
            match h.alloc(512, &mut c, &cost) {
                Ok(x) => held.push(x),
                Err(e) => {
                    oom = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(oom, Some(MrtError::OutOfMemory { .. })));
        assert_eq!(h.capacity(), 4096);
        assert!(h.stats().growths >= 2);
    }

    #[test]
    fn critical_region_blocks_gc_triggering_allocation() {
        let (mut h, mut c, cost) = setup();
        let live = h.alloc(900, &mut c, &cost).unwrap();
        h.enter_critical();
        // This allocation needs a GC (or growth), which is forbidden.
        let err = h.alloc(900, &mut c, &cost).unwrap_err();
        assert_eq!(err, MrtError::AllocationInCriticalRegion);
        h.leave_critical();
        // After leaving, the same allocation succeeds (grows/collects).
        let _ok = h.alloc(900, &mut c, &cost).unwrap();
        let _ = live;
    }

    #[test]
    fn small_allocation_inside_critical_ok_if_no_gc_needed() {
        let (mut h, mut c, cost) = setup();
        h.enter_critical();
        let a = h.alloc(8, &mut c, &cost).unwrap();
        h.leave_critical();
        assert_eq!(h.len_of(a).unwrap(), 8);
    }

    #[test]
    #[should_panic(expected = "unbalanced critical region")]
    fn unbalanced_critical_panics() {
        let (mut h, _, _) = setup();
        h.leave_critical();
    }

    #[test]
    fn handles_survive_many_collections() {
        let (mut h, mut c, cost) = setup();
        let keep = h.alloc(64, &mut c, &cost).unwrap();
        for i in 0..64 {
            h.bytes_mut(keep).unwrap()[i] = i as u8;
        }
        for _ in 0..10 {
            let junk = h.alloc(256, &mut c, &cost).unwrap();
            h.release(junk).unwrap();
            h.collect(&mut c, &cost);
        }
        let data = h.bytes(keep).unwrap();
        for (i, &b) in data.iter().enumerate().take(64) {
            assert_eq!(b, i as u8);
        }
    }
}
