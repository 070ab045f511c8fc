//! Host storage: the bytes behind every heap object, direct buffer and
//! engine payload, and the one free list that recycles the large ones
//! (DESIGN.md §11, "Host storage").
//!
//! Below [`FLOOR`] a [`HostBytes`] is one exact-size allocation. From the
//! floor up, storage comes in power-of-two classes from one process-wide
//! list and goes back to it when the last handle drops. Clones share
//! storage; [`HostBytes::make_mut`] unshares before a write. A
//! [`HostBytes::recycled`] block may hold what another rank last wrote.
//!
//! Retention has two rules and no knob: a class only grows on a miss, and
//! a miss releases every smaller class's cache. A new job starts with an
//! empty list ([`release_cached`]). The list charges no virtual time,
//! feeds no pvar and moves no work counter. It is process-wide because
//! the threaded engine frees a frame on the receiving rank's thread; a
//! lock poisoned by a panicking rank is recovered, as no invariant spans
//! it.

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Blocks of at least this many bytes take their storage from the free
/// list: 4× the largest eager threshold of any profile, so small
/// messages, objects and stores keep their exact-size allocation and
/// never take the lock.
pub const FLOOR: usize = 64 << 10;

const FLOOR_LOG2: u32 = FLOOR.trailing_zeros();
/// One class per power of two from the floor up.
const CLASSES: usize = (usize::BITS - FLOOR_LOG2) as usize;
/// Class storage starts with the block's length, so a handle stays two
/// words (an `Arc<[u8]>`), the size of a boxed slice.
const HEADER: usize = size_of::<usize>();

/// Owned, immutable-by-default host bytes (see the module docs).
#[derive(Clone, Default)]
pub struct HostBytes {
    /// `None` for an empty block (no allocation). Below the floor,
    /// exactly the block's bytes; from the floor up, class storage: a
    /// [`HEADER`] holding the length, the bytes, then unused capacity.
    buf: Option<Arc<[u8]>>,
}

impl HostBytes {
    /// A block holding a copy of `bytes`.
    pub fn copy_from(bytes: &[u8]) -> HostBytes {
        let len = bytes.len();
        let buf = match class_of(len) {
            None if len == 0 => None,
            None => Some(Arc::from(bytes)),
            Some(class) => {
                let mut buf = class_storage(len, class, false);
                unshared(&mut buf)[HEADER..HEADER + len].copy_from_slice(bytes);
                Some(buf)
            }
        };
        HostBytes { buf }
    }

    /// A block of `len` zero bytes (recycled storage is cleared).
    pub fn zeroed(len: usize) -> HostBytes {
        HostBytes::sized(len, true)
    }

    /// A block of `len` bytes whose contents are unspecified: recycled
    /// storage keeps what its last user wrote, fresh storage is zero.
    pub fn recycled(len: usize) -> HostBytes {
        HostBytes::sized(len, false)
    }

    fn sized(len: usize, clear: bool) -> HostBytes {
        let buf = match class_of(len) {
            None if len == 0 => None,
            None => Some(zeroed_storage(len)),
            Some(class) => Some(class_storage(len, class, clear)),
        };
        HostBytes { buf }
    }

    /// Host bytes this block holds: its length below the floor, its
    /// class storage from the floor up.
    pub fn host_len(&self) -> usize {
        self.buf.as_ref().map_or(0, |b| b.len())
    }

    /// Shorten the block to its first `len` bytes (no-op if it is no
    /// longer). Class storage keeps its class and only rewrites its
    /// length; exact-size or shared storage is copied.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len() {
            return;
        }
        match &mut self.buf {
            Some(buf) if buf.len() >= FLOOR => {
                if let Some(storage) = Arc::get_mut(buf) {
                    storage[..HEADER].copy_from_slice(&len.to_le_bytes());
                    return;
                }
            }
            _ => {}
        }
        *self = HostBytes::copy_from(&self[..len]);
    }

    /// Mutable access to the bytes, copying them first if another handle
    /// shares the storage.
    pub fn make_mut(&mut self) -> &mut [u8] {
        if self.buf.as_mut().is_some_and(|b| Arc::get_mut(b).is_none()) {
            *self = HostBytes::copy_from(self);
        }
        match &mut self.buf {
            Some(buf) => {
                let storage = unshared(buf);
                let bytes = byte_range(storage);
                &mut storage[bytes]
            }
            None => &mut [],
        }
    }
}

impl Deref for HostBytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        match &self.buf {
            Some(buf) => &buf[byte_range(buf)],
            None => &[],
        }
    }
}

/// Where a block's bytes sit in its storage.
#[inline]
fn byte_range(storage: &[u8]) -> Range<usize> {
    if storage.len() < FLOOR {
        return 0..storage.len();
    }
    let mut len = [0; HEADER];
    len.copy_from_slice(&storage[..HEADER]);
    HEADER..HEADER + usize::from_le_bytes(len)
}

impl Drop for HostBytes {
    fn drop(&mut self) {
        if let Some(mut buf) = self.buf.take() {
            // The last handle gives class storage back; a small buffer is
            // freed like any allocation, without the lock. Class handles
            // drop under the lock, so of two last handles dropped at once
            // on two threads the second sees itself alone.
            if buf.len() >= FLOOR {
                let mut list = lock();
                match Arc::get_mut(&mut buf) {
                    Some(_) => list.give(buf),
                    None => drop(buf),
                }
            }
        }
    }
}

impl fmt::Debug for HostBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HostBytes")
            .field("len", &self.len())
            .finish()
    }
}

/// What the free list holds and has allocated, for tests and diagnosis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListStats {
    /// Class buffers allocated because their class had none cached.
    pub fresh: u64,
    /// Buffers cached across all classes.
    pub cached: usize,
    /// Bytes of class storage allocated and not yet freed, whether lent
    /// out or cached.
    pub held_bytes: usize,
    /// The high-water mark of `held_bytes`.
    pub peak_held_bytes: usize,
}

/// The process-wide free list's counts.
pub fn list_stats() -> ListStats {
    let list = lock();
    ListStats {
        fresh: list.fresh,
        cached: list.classes.iter().map(Vec::len).sum(),
        held_bytes: list.held,
        peak_held_bytes: list.peak_held,
    }
}

/// Free every cached buffer. A job calls this as it starts, so one job's
/// cache never sits beside the next one's working set in a process that
/// runs jobs back to back.
pub fn release_cached() {
    lock().release_below(CLASSES);
}

/// Cached class storage, one stack per power of two from the floor up.
struct FreeList {
    classes: [Vec<Arc<[u8]>>; CLASSES],
    fresh: u64,
    held: usize,
    peak_held: usize,
}

impl FreeList {
    const fn new() -> FreeList {
        FreeList {
            classes: [const { Vec::new() }; CLASSES],
            fresh: 0,
            held: 0,
            peak_held: 0,
        }
    }

    /// A cached buffer of `class`, or `None` on a miss, which releases
    /// every smaller class's cache and counts the fresh buffer the caller
    /// allocates.
    fn take(&mut self, class: usize) -> Option<Arc<[u8]>> {
        let hit = self.classes[class].pop();
        if hit.is_none() {
            self.release_below(class);
            self.fresh += 1;
            self.held += storage_len(class);
            self.peak_held = self.peak_held.max(self.held);
        }
        hit
    }

    /// Free the cached buffers of every class below `class`.
    fn release_below(&mut self, class: usize) {
        for (c, cached) in self.classes[..class].iter_mut().enumerate() {
            self.held -= cached.len() * storage_len(c);
            cached.clear();
        }
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

/// Class storage for a block of `len` bytes, its header written: cached
/// if the class has any (its bytes cleared when `clear`), else fresh.
fn class_storage(len: usize, class: usize, clear: bool) -> Arc<[u8]> {
    let cached = lock().take(class);
    let mut buf = match cached {
        Some(mut buf) => {
            if clear {
                unshared(&mut buf)[HEADER..HEADER + len].fill(0);
            }
            buf
        }
        None => zeroed_storage(storage_len(class)),
    };
    unshared(&mut buf)[..HEADER].copy_from_slice(&len.to_le_bytes());
    buf
}

/// The class of a block of `len` bytes, `None` below the floor.
fn class_of(len: usize) -> Option<usize> {
    (len >= FLOOR).then(|| (len.next_power_of_two().trailing_zeros() - FLOOR_LOG2) as usize)
}

/// Bytes of class storage: the header and the class's capacity.
fn storage_len(class: usize) -> usize {
    HEADER + (FLOOR << class)
}

/// Fresh zeroed storage from the allocator's zeroing path, which maps
/// large blocks as untouched zero pages: a block faults in only the
/// bytes it writes, not its whole class.
fn zeroed_storage(len: usize) -> Arc<[u8]> {
    // SAFETY: the allocation is zero-filled, and all-zero bytes are valid
    // `u8`s, so every element is initialized.
    unsafe { Arc::<[u8]>::new_zeroed_slice(len).assume_init() }
}

/// Storage no other handle can see: freshly taken or checked unique.
fn unshared(buf: &mut Arc<[u8]>) -> &mut [u8] {
    Arc::get_mut(buf).expect("host storage is unshared")
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
        assert_eq!(list.held, peaks[top] * storage_len(top));
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
        assert_eq!(list.held, storage_len(0) + storage_len(3));
        // The class-3 miss freed class 0's pair before allocating.
        assert_eq!(list.peak_held, list.held);
    }

    #[test]
    fn buffers_below_the_floor_never_reach_the_list() {
        let mut list = FreeList::new();
        list.give(Arc::from(vec![7u8; FLOOR - 1]));
        list.give(Arc::from(vec![7u8; 100]));
        // Not class-sized either: a block never owns such storage.
        list.give(Arc::from(vec![7u8; FLOOR + 1]));
        assert!(list.classes.iter().all(Vec::is_empty));
        assert_eq!((list.fresh, list.held), (0, 0));
    }

    #[test]
    fn small_blocks_are_exact_and_large_ones_class_sized() {
        let small = HostBytes::copy_from(&[1, 2, 3]);
        assert_eq!(small.host_len(), 3);
        let large = HostBytes::zeroed(FLOOR + 1);
        assert_eq!(large.len(), FLOOR + 1);
        assert_eq!(large.host_len(), storage_len(1));
        let empty = HostBytes::copy_from(&[]);
        assert!(empty.buf.is_none() && empty.is_empty());
        // Two words, like a boxed slice.
        assert_eq!(size_of::<HostBytes>(), size_of::<Box<[u8]>>());
    }

    #[test]
    fn a_rank_that_panics_holding_blocks_leaves_the_list_usable() {
        let rank = std::thread::spawn(|| {
            let _held = [HostBytes::zeroed(FLOOR), HostBytes::copy_from(&[1; 300])];
            // Unwinding drops the guard first, poisoning the lock, and
            // then the blocks, which give their storage back through it.
            let _locked = lock();
            panic!("rank failed while the list was locked");
        });
        assert!(rank.join().is_err());
        assert!(LIST.is_poisoned());
        let p = HostBytes::copy_from(&vec![3u8; FLOOR]);
        assert!(p.iter().all(|&b| b == 3));
        drop(p);
        list_stats();
    }

    #[test]
    fn truncate_keeps_class_storage_and_copies_the_rest() {
        let mut large = HostBytes::copy_from(&vec![4u8; FLOOR + 10]);
        let storage = large.host_len();
        large.truncate(100);
        assert_eq!((large.len(), large.host_len()), (100, storage));
        assert!(large.iter().all(|&b| b == 4));
        let shared = large.clone();
        large.truncate(10);
        assert_eq!((large.len(), large.host_len(), shared.len()), (10, 10, 100));
        let mut small = HostBytes::copy_from(&[1, 2, 3]);
        small.truncate(5);
        small.truncate(2);
        assert_eq!(&small[..], &[1, 2]);
    }

    #[test]
    fn make_mut_leaves_a_sharing_clone_alone() {
        for len in [16, FLOOR + 3] {
            let mut a = HostBytes::copy_from(&vec![5u8; len]);
            let b = a.clone();
            a.make_mut()[0] = 9;
            assert_eq!((a[0], b[0]), (9, 5), "len {len}");
            assert_eq!((a.len(), b.len()), (len, len));
        }
    }
}
