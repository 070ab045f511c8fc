//! Owned payload bytes for the engine, and the free list that recycles
//! the storage of large ones.
//!
//! Every payload the engine holds — a frame's data, a rendezvous send
//! parked until its CTS, a matched receive, a get reply, window memory —
//! is a [`Payload`]. Below [`FLOOR`] a payload is one exact-size
//! allocation, as a boxed slice would be, and never touches the list.
//! From the floor up, storage comes in power-of-two classes from one
//! process-wide free list and goes back to it when the last handle
//! drops, so a sweep of large messages reuses pages the process has
//! already faulted in instead of mapping fresh ones for every frame.
//!
//! Clones share storage: a duplicated or retransmitted frame, and the
//! receive that keeps its twin, never copy the bytes.
//! [`Payload::make_mut`] unshares before a write.
//!
//! The list is host-side only. It charges no virtual time, feeds no pvar
//! and moves no work counter, so no simulated output depends on it.
//!
//! ## Retention
//!
//! Two rules, and no knob:
//! * a class only grows on a miss, when it has nothing cached, so it
//!   never holds more buffers than were live at once;
//! * a miss releases the cached buffers of every smaller class, so an
//!   ascending size sweep keeps only the class it has reached.
//!
//! The list is shared by all ranks of the process because the threaded
//! engine frees a frame on the receiving rank's thread: per-thread lists
//! would fill on one side only. No invariant spans its lock, so a rank
//! that panics while holding it (crash-plan jobs unwind rank threads)
//! leaves it usable: a poisoned lock is recovered.

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Payloads of at least this many bytes take their storage from the free
/// list: 4× the largest eager threshold of any profile, so small
/// messages keep their exact-size allocation and never take the lock.
pub const FLOOR: usize = 64 << 10;

const FLOOR_LOG2: u32 = FLOOR.trailing_zeros();
/// One class per power of two from the floor up.
const CLASSES: usize = (usize::BITS - FLOOR_LOG2) as usize;
/// Class storage starts with the payload's length, so a handle stays two
/// words (an `Arc<[u8]>`), the size of the boxed slice it replaced.
const HEADER: usize = size_of::<usize>();

/// Owned, immutable-by-default payload bytes (see the module docs).
#[derive(Clone, Default)]
pub struct Payload {
    /// `None` for an empty payload (no allocation). Below the floor,
    /// exactly the payload's bytes; from the floor up, class storage: a
    /// [`HEADER`] holding the length, the bytes, then unused capacity.
    buf: Option<Arc<[u8]>>,
}

impl Payload {
    /// A payload holding a copy of `bytes`.
    pub fn copy_from(bytes: &[u8]) -> Payload {
        let len = bytes.len();
        let buf = match class_of(len) {
            None if len == 0 => None,
            None => Some(Arc::from(bytes)),
            Some(class) => {
                let mut buf = take(class).unwrap_or_else(|| zeroed_storage(storage_len(class)));
                let storage = unshared(&mut buf);
                storage[..HEADER].copy_from_slice(&len.to_le_bytes());
                storage[HEADER..HEADER + len].copy_from_slice(bytes);
                Some(buf)
            }
        };
        Payload { buf }
    }

    /// A payload of `len` zero bytes (recycled storage is cleared).
    pub fn zeroed(len: usize) -> Payload {
        let buf = match class_of(len) {
            None if len == 0 => None,
            None => Some(zeroed_storage(len)),
            Some(class) => {
                let mut buf = match take(class) {
                    Some(mut buf) => {
                        unshared(&mut buf)[HEADER..HEADER + len].fill(0);
                        buf
                    }
                    None => zeroed_storage(storage_len(class)),
                };
                unshared(&mut buf)[..HEADER].copy_from_slice(&len.to_le_bytes());
                Some(buf)
            }
        };
        Payload { buf }
    }

    /// Mutable access to the bytes, copying them first if another handle
    /// shares the storage.
    pub(crate) fn make_mut(&mut self) -> &mut [u8] {
        if self.buf.as_mut().is_some_and(|b| Arc::get_mut(b).is_none()) {
            *self = Payload::copy_from(self);
        }
        match &mut self.buf {
            Some(buf) => {
                let storage = unshared(buf);
                let bytes = payload_range(storage);
                &mut storage[bytes]
            }
            None => &mut [],
        }
    }
}

impl Deref for Payload {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        match &self.buf {
            Some(buf) => &buf[payload_range(buf)],
            None => &[],
        }
    }
}

/// Where a payload's bytes sit in its storage.
#[inline]
fn payload_range(storage: &[u8]) -> Range<usize> {
    if storage.len() < FLOOR {
        return 0..storage.len();
    }
    let mut len = [0; HEADER];
    len.copy_from_slice(&storage[..HEADER]);
    HEADER..HEADER + usize::from_le_bytes(len)
}

impl Drop for Payload {
    fn drop(&mut self) {
        if let Some(mut buf) = self.buf.take() {
            // The last handle gives class storage back; a small buffer is
            // freed like any allocation, without the lock.
            if buf.len() >= FLOOR && Arc::get_mut(&mut buf).is_some() {
                lock().give(buf);
            }
        }
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Payload").field("len", &self.len()).finish()
    }
}

/// What the free list holds and has allocated, for tests and diagnosis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListStats {
    /// Class buffers allocated because their class had none cached.
    pub fresh: u64,
    /// Buffers cached across all classes.
    pub cached: usize,
}

/// The process-wide free list's counts.
pub fn list_stats() -> ListStats {
    let list = lock();
    ListStats {
        fresh: list.fresh,
        cached: list.classes.iter().map(Vec::len).sum(),
    }
}

/// Cached class storage, one stack per power of two from the floor up.
struct FreeList {
    classes: [Vec<Arc<[u8]>>; CLASSES],
    fresh: u64,
}

impl FreeList {
    const fn new() -> FreeList {
        FreeList {
            classes: [const { Vec::new() }; CLASSES],
            fresh: 0,
        }
    }

    /// A cached buffer of `class`, or `None` on a miss, which releases
    /// every smaller class's cache.
    fn take(&mut self, class: usize) -> Option<Arc<[u8]>> {
        let hit = self.classes[class].pop();
        if hit.is_none() {
            self.fresh += 1;
            self.classes[..class].iter_mut().for_each(Vec::clear);
        }
        hit
    }

    /// Cache `buf` if it is class storage; anything else is dropped.
    fn give(&mut self, buf: Arc<[u8]>) {
        let class = class_of(buf.len().saturating_sub(HEADER));
        if let Some(class) = class.filter(|&c| storage_len(c) == buf.len()) {
            self.classes[class].push(buf);
        }
    }
}

static LIST: Mutex<FreeList> = Mutex::new(FreeList::new());

fn lock() -> MutexGuard<'static, FreeList> {
    LIST.lock().unwrap_or_else(PoisonError::into_inner)
}

fn take(class: usize) -> Option<Arc<[u8]>> {
    lock().take(class)
}

/// The class of a payload of `len` bytes, `None` below the floor.
fn class_of(len: usize) -> Option<usize> {
    (len >= FLOOR).then(|| (len.next_power_of_two().trailing_zeros() - FLOOR_LOG2) as usize)
}

/// Bytes of class storage: the header and the class's capacity.
fn storage_len(class: usize) -> usize {
    HEADER + (FLOOR << class)
}

/// Fresh zeroed storage from the allocator's zeroing path, which maps
/// large blocks as untouched zero pages: a payload faults in only the
/// bytes it writes, not its whole class.
fn zeroed_storage(len: usize) -> Arc<[u8]> {
    // SAFETY: the allocation is zero-filled, and all-zero bytes are valid
    // `u8`s, so every element is initialized.
    unsafe { Arc::<[u8]>::new_zeroed_slice(len).assume_init() }
}

/// Storage no other handle can see: freshly taken or checked unique.
fn unshared(buf: &mut Arc<[u8]>) -> &mut [u8] {
    Arc::get_mut(buf).expect("payload storage is unshared")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storage(class: usize) -> Arc<[u8]> {
        zeroed_storage(storage_len(class))
    }

    /// Take `live` buffers of `class` from `list` (fresh on a miss), then
    /// give them all back.
    fn cycle(list: &mut FreeList, class: usize, live: usize) {
        let held: Vec<_> = (0..live)
            .map(|_| list.take(class).unwrap_or_else(|| storage(class)))
            .collect();
        held.into_iter().for_each(|b| list.give(b));
    }

    #[test]
    fn classes_are_powers_of_two_from_the_floor() {
        assert_eq!(class_of(FLOOR - 1), None);
        assert_eq!(class_of(0), None);
        assert_eq!(class_of(FLOOR), Some(0));
        assert_eq!(class_of(FLOOR + 1), Some(1));
        assert_eq!(class_of(4 << 20), Some(6));
        assert_eq!(storage_len(6), HEADER + (4 << 20));
    }

    #[test]
    fn an_ascending_sweep_keeps_only_the_top_class_within_its_peak() {
        let mut list = FreeList::new();
        // Per class, how many buffers were live at once.
        let peaks = [3usize, 1, 2, 4, 1, 2, 3];
        for (class, &live) in peaks.iter().enumerate() {
            // Twice per size, as a sweep's iterations would.
            cycle(&mut list, class, live);
            cycle(&mut list, class, live);
            for (c, cached) in list.classes.iter().enumerate() {
                let peak = peaks.get(c).copied().unwrap_or(0);
                assert!(cached.len() <= peak, "class {c} holds more than its peak");
            }
        }
        let top = peaks.len() - 1;
        for (c, cached) in list.classes.iter().enumerate() {
            let want = if c == top { peaks[top] } else { 0 };
            assert_eq!(cached.len(), want, "class {c} after the sweep");
        }
        // One miss per buffer of each class's peak, none on the repeats.
        assert_eq!(list.fresh, peaks.iter().sum::<usize>() as u64);
    }

    #[test]
    fn a_hit_releases_nothing() {
        let mut list = FreeList::new();
        cycle(&mut list, 0, 2);
        cycle(&mut list, 3, 1);
        assert!(
            list.classes[0].is_empty(),
            "the class-3 miss released class 0"
        );
        cycle(&mut list, 0, 1);
        cycle(&mut list, 3, 1);
        assert_eq!((list.classes[0].len(), list.classes[3].len()), (1, 1));
    }

    #[test]
    fn buffers_below_the_floor_never_reach_the_list() {
        let mut list = FreeList::new();
        list.give(Arc::from(vec![7u8; FLOOR - 1]));
        list.give(Arc::from(vec![7u8; 100]));
        // Not class-sized either: a payload never owns such storage.
        list.give(Arc::from(vec![7u8; FLOOR + 1]));
        assert!(list.classes.iter().all(Vec::is_empty));
        assert_eq!(list.fresh, 0);
    }

    #[test]
    fn small_payloads_are_exact_and_large_ones_class_sized() {
        let small = Payload::copy_from(&[1, 2, 3]);
        assert_eq!(small.buf.as_ref().map(|b| b.len()), Some(3));
        let large = Payload::zeroed(FLOOR + 1);
        assert_eq!(large.len(), FLOOR + 1);
        assert_eq!(large.buf.as_ref().map(|b| b.len()), Some(storage_len(1)));
        let empty = Payload::copy_from(&[]);
        assert!(empty.buf.is_none() && empty.is_empty());
        // Two words, like the boxed slice a payload used to be.
        assert_eq!(size_of::<Payload>(), size_of::<Box<[u8]>>());
    }

    #[test]
    fn a_rank_that_panics_holding_payloads_leaves_the_list_usable() {
        let rank = std::thread::spawn(|| {
            let _held = [Payload::zeroed(FLOOR), Payload::copy_from(&[1; 300])];
            // Unwinding drops the guard first, poisoning the lock, and
            // then the payloads, which give their storage back through it.
            let _locked = lock();
            panic!("rank failed while the list was locked");
        });
        assert!(rank.join().is_err());
        assert!(LIST.is_poisoned());
        let p = Payload::copy_from(&vec![3u8; FLOOR]);
        assert!(p.iter().all(|&b| b == 3));
        drop(p);
        list_stats();
    }

    #[test]
    fn make_mut_leaves_a_sharing_clone_alone() {
        for len in [16, FLOOR + 3] {
            let mut a = Payload::copy_from(&vec![5u8; len]);
            let b = a.clone();
            a.make_mut()[0] = 9;
            assert_eq!((a[0], b[0]), (9, 5), "len {len}");
            assert_eq!((a.len(), b.len()), (len, len));
        }
    }
}
