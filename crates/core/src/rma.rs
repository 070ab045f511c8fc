//! One-sided (RMA) bindings: `MPI_Win` over both buffer flavors.
//!
//! The window API follows the same two-path discipline as point-to-point
//! (Sections IV-B/IV-C of the paper):
//!
//! * **Direct ByteBuffers** are address-stable off-heap storage, so a
//!   buffer-backed window is the RDMA target region itself: puts and gets
//!   move bytes with *zero Java-side copies*, and large transfers go
//!   through the native registration (pin-down) cache
//!   (`rma.reg.{hit,miss,evict}`).
//! * **Java arrays** are movable, so an array-backed window mirrors the
//!   array through a pooled `mpjbuf` staging buffer pinned for the
//!   window's lifetime — the same GC-safety discipline non-blocking
//!   collectives use for their schedules. Each synchronization pays the
//!   charged gather/scatter the buffering layer always pays; the scatter
//!   reads window memory (or a get reply) in place, so the host copies
//!   it once, not twice. A put's staged store of `mrt::store::FLOOR`
//!   bytes or more hands its storage to the library, which sends it as
//!   the frame.
//!
//! Epoch semantics are the MPI ones: active target via [`Env::win_fence`]
//! (collective; completes all one-sided operations and synchronizes the
//! window), passive target via [`Env::win_lock`]/[`Env::win_unlock`]
//! (origin-only; the target observes deposits at its next
//! [`Env::win_sync`] or fence). Get payloads are delivered when the epoch
//! closes, never before.

use std::ops::Range;

use mpisim::datatype::Datatype;
use mpisim::{CommHandle, ReduceOp};
use mpjbuf::Buffer;
use mrt::prim::Prim;
use mrt::{DirectBuffer, Handle, JArray};
use obs::wallprof::{self, Counter};

use crate::datatype::datatype_of;
use crate::env::{elems, Env, Region};
use crate::error::{BindError, BindResult};
use crate::request::ArrayDest;
use crate::stage::{stage_from_array, unstage_to_array, Packed, Staging};

/// Bindings-level window handle (the `Win` object).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JWin(usize);

/// Where a completed one-sided get deposits its payload.
enum GetDest {
    /// Straight into the user's direct buffer (NIC deposit — uncharged).
    Buffer(Region),
    /// Through staging pinned for the epoch, then a charged scatter into
    /// the managed array (read straight from the reply).
    Array(Staging),
}

/// The user storage a window exposes.
enum WinStorage {
    /// Direct ByteBuffer: the RDMA target region itself.
    Buffer(DirectBuffer),
    /// Managed array mirrored through pooled staging pinned for the
    /// window's lifetime.
    Array {
        dest: ArrayDest,
        dt: Datatype,
        count: usize,
        staging: Buffer,
    },
}

/// Copyable description of a window's storage, extracted so the
/// synchronization helpers can drop the `WinState` borrow before touching
/// the runtime and the native library.
enum StorageInfo {
    Buffer(DirectBuffer),
    Array {
        store: DirectBuffer,
        handle: Handle,
        count: usize,
        dt: Datatype,
        byte_len: usize,
    },
}

/// Per-window bindings state.
pub(crate) struct WinState {
    native: mpisim::Win,
    storage: WinStorage,
    /// Outstanding gets of the open epoch, with deposit destinations.
    gets: Vec<(mpisim::RmaGet, GetDest)>,
}

impl Env {
    fn win_state(&self, win: JWin) -> BindResult<&WinState> {
        self.wins
            .get(win.0)
            .and_then(|w| w.as_ref())
            .ok_or(BindError::Mpi(mpisim::MpiError::InvalidWin(
                "invalid or freed window handle",
            )))
    }

    fn win_state_mut(&mut self, win: JWin) -> BindResult<&mut WinState> {
        self.wins
            .get_mut(win.0)
            .and_then(|w| w.as_mut())
            .ok_or(BindError::Mpi(mpisim::MpiError::InvalidWin(
                "invalid or freed window handle",
            )))
    }

    fn storage_info(&self, win: JWin) -> BindResult<StorageInfo> {
        Ok(match &self.win_state(win)?.storage {
            WinStorage::Buffer(b) => StorageInfo::Buffer(*b),
            WinStorage::Array {
                dest,
                dt,
                count,
                staging,
            } => StorageInfo::Array {
                store: staging.store(),
                handle: dest.handle,
                count: *count,
                dt: dt.clone(),
                byte_len: dest.byte_len,
            },
        })
    }

    // ------------------------------------------------------------------
    // Window lifecycle
    // ------------------------------------------------------------------

    /// `MPI.createWindow(ByteBuffer, comm)`: expose a direct buffer as a
    /// one-sided window. Collective over `comm`.
    pub fn win_create_buffer(&mut self, buf: DirectBuffer, comm: CommHandle) -> BindResult<JWin> {
        self.binding_call();
        nif::get_direct_buffer_address(&self.rt, self.mpi.clock_mut(), buf)?;
        let native = self.mpi.win_create(buf.capacity(), comm)?;
        self.wins.push(Some(WinState {
            native,
            storage: WinStorage::Buffer(buf),
            gets: Vec::new(),
        }));
        Ok(JWin(self.wins.len() - 1))
    }

    /// `MPI.createWindow(type[] arr, comm)`: expose a managed array
    /// through GC-safe pinned staging. Collective over `comm`.
    pub fn win_create_array<T: Prim>(
        &mut self,
        arr: JArray<T>,
        comm: CommHandle,
    ) -> BindResult<JWin> {
        self.binding_call();
        let byte_len = arr.byte_len();
        // The staging buffer stays pinned (out of the pool) for the
        // window's lifetime, like an NBC schedule's staging.
        let clock = self.mpi.clock_mut();
        let staging = Buffer::from_pool(&mut self.pool, &mut self.rt, clock, byte_len.max(1));
        nif::get_direct_buffer_address(&self.rt, self.mpi.clock_mut(), staging.store())?;
        let native = match self.mpi.win_create(byte_len, comm) {
            Ok(w) => w,
            Err(e) => {
                let clock = self.mpi.clock_mut();
                staging.free(&mut self.pool, &mut self.rt, clock);
                return Err(e.into());
            }
        };
        self.wins.push(Some(WinState {
            native,
            storage: WinStorage::Array {
                dest: ArrayDest {
                    handle: arr.handle(),
                    byte_off: 0,
                    byte_len,
                },
                dt: datatype_of::<T>(),
                count: byte_len / T::SIZE,
                staging,
            },
            gets: Vec::new(),
        }));
        Ok(JWin(self.wins.len() - 1))
    }

    /// `win.free()`: collective teardown. All epochs must be closed.
    pub fn win_free(&mut self, win: JWin) -> BindResult<()> {
        self.binding_call();
        let w = self.win_state(win)?;
        if !w.gets.is_empty() {
            return Err(BindError::Mpi(mpisim::MpiError::InvalidWin(
                "window freed with undelivered gets",
            )));
        }
        let native = w.native;
        self.mpi.win_free(native)?;
        let state = self.wins[win.0].take().expect("state checked above");
        if let WinStorage::Array { staging, .. } = state.storage {
            let clock = self.mpi.clock_mut();
            staging.free(&mut self.pool, &mut self.rt, clock);
        }
        Ok(())
    }

    /// Bytes this rank exposes through `win`.
    pub fn win_size(&self, win: JWin) -> BindResult<usize> {
        Ok(self.mpi.win_size(self.win_state(win)?.native)?)
    }

    // ------------------------------------------------------------------
    // One-sided operations
    // ------------------------------------------------------------------

    /// The contiguous-datatype rule for one-sided operations on direct
    /// buffers.
    fn check_contiguous(dt: &Datatype) -> BindResult<()> {
        if !dt.is_contiguous() {
            return Err(BindError::Unsupported(
                "derived datatypes with one-sided operations on direct buffers",
            ));
        }
        Ok(())
    }

    /// The native body of a put: the region goes to the native library,
    /// which captures the payload at injection. Large transfers go
    /// through the registration cache keyed by the buffer's stable
    /// address.
    fn put_native(
        &mut self,
        win: JWin,
        origin: Region,
        count: i32,
        dt: &Datatype,
        target: usize,
        disp: usize,
    ) -> BindResult<()> {
        let origin = origin.fit(elems(count)?, dt)?;
        let native = self.win_state(win)?.native;
        let bytes = origin.send_bytes(&mut self.rt, self.mpi.clock_mut())?;
        let key = u64::from(origin.buf.id());
        self.mpi.win_put(native, bytes, key, target, disp)?;
        Ok(())
    }

    /// `win.put(ByteBuffer, count, datatype, target, disp)`: RDMA-write
    /// from a direct buffer — zero Java-side copies.
    pub fn put_buffer(
        &mut self,
        win: JWin,
        origin: DirectBuffer,
        count: i32,
        dt: &Datatype,
        target: usize,
        target_disp: usize,
    ) -> BindResult<()> {
        self.binding_call();
        Self::check_contiguous(dt)?;
        self.put_native(win, origin.into(), count, dt, target, target_disp)
    }

    /// `win.put(type[] arr, count, target, disp)`: array origin staged
    /// through a pooled buffer (one charged gather), then handed to the
    /// native put; the staging goes straight back to the pool.
    pub fn put_array<T: Prim>(
        &mut self,
        win: JWin,
        arr: JArray<T>,
        count: i32,
        target: usize,
        target_disp: usize,
    ) -> BindResult<()> {
        self.binding_call();
        let dt = datatype_of::<T>();
        let s = self.stage_in(arr, 0, elems(count)?, dt.clone())?;
        let out = self.put_native(win, s.region(), count, &dt, target, target_disp);
        self.close(out, [Some(s)])
    }

    /// The native body of a get: the payload is deposited into the
    /// returned prefix of `origin` when the epoch closes.
    fn get_native(
        &mut self,
        win: JWin,
        origin: Region,
        count: i32,
        dt: &Datatype,
        target: usize,
        disp: usize,
    ) -> BindResult<(mpisim::RmaGet, Region)> {
        let origin = origin.fit(elems(count)?, dt)?;
        nif::get_direct_buffer_address(&self.rt, self.mpi.clock_mut(), origin.buf)?;
        let native = self.win_state(win)?.native;
        let key = u64::from(origin.buf.id());
        let tok = self.mpi.win_get(native, target, disp, origin.len, key)?;
        Ok((tok, origin))
    }

    /// `win.get(ByteBuffer, count, datatype, target, disp)`: RDMA-read
    /// into a direct buffer. The payload lands (uncharged NIC deposit)
    /// when the epoch closes.
    pub fn get_buffer(
        &mut self,
        win: JWin,
        origin: DirectBuffer,
        count: i32,
        dt: &Datatype,
        target: usize,
        target_disp: usize,
    ) -> BindResult<()> {
        self.binding_call();
        Self::check_contiguous(dt)?;
        let (tok, origin) = self.get_native(win, origin.into(), count, dt, target, target_disp)?;
        let dest = GetDest::Buffer(origin);
        self.win_state_mut(win)?.gets.push((tok, dest));
        Ok(())
    }

    /// `win.get(type[] arr, count, target, disp)`: the RDMA-read
    /// destination must stay registered and GC-safe for the whole epoch,
    /// so pooled staging is pinned until the epoch closes, then scattered
    /// into the array (one charged copy).
    pub fn get_array<T: Prim>(
        &mut self,
        win: JWin,
        arr: JArray<T>,
        count: i32,
        target: usize,
        target_disp: usize,
    ) -> BindResult<()> {
        self.binding_call();
        let dt = datatype_of::<T>();
        let n = elems(count)?;
        let packed = dt.size() * n;
        if packed > arr.byte_len() {
            return Err(BindError::Runtime(mrt::MrtError::BufferOverflow {
                needed: packed,
                available: arr.byte_len(),
            }));
        }
        let s = self.landing(arr, 0, n, dt.clone());
        match self.get_native(win, s.region(), count, &dt, target, target_disp) {
            Ok((tok, _)) => {
                self.win_state_mut(win)?.gets.push((tok, GetDest::Array(s)));
                Ok(())
            }
            Err(e) => self.close(Err(e), [Some(s)]),
        }
    }

    /// The native body of an accumulate over 32-bit integer lanes.
    /// Operands always travel through pre-registered bounce buffers, so
    /// there is no registration charge.
    fn accumulate_native(
        &mut self,
        win: JWin,
        origin: Region,
        count: i32,
        op: ReduceOp,
        target: usize,
        disp: usize,
    ) -> BindResult<()> {
        let origin = origin.fit(elems(count)?, &mpisim::datatype::INT)?;
        let native = self.win_state(win)?.native;
        let bytes = origin.send_bytes(&mut self.rt, self.mpi.clock_mut())?;
        self.mpi.win_accumulate(native, bytes, op, target, disp)?;
        Ok(())
    }

    /// `win.accumulate(ByteBuffer, count, op, target, disp)` over 32-bit
    /// integer lanes.
    pub fn accumulate_buffer(
        &mut self,
        win: JWin,
        origin: DirectBuffer,
        count: i32,
        op: ReduceOp,
        target: usize,
        target_disp: usize,
    ) -> BindResult<()> {
        self.binding_call();
        self.accumulate_native(win, origin.into(), count, op, target, target_disp)
    }

    /// `win.accumulate(int[] arr, count, op, target, disp)`.
    pub fn accumulate_array(
        &mut self,
        win: JWin,
        arr: JArray<i32>,
        count: i32,
        op: ReduceOp,
        target: usize,
        target_disp: usize,
    ) -> BindResult<()> {
        self.binding_call();
        let s = self.stage_in(arr, 0, elems(count)?, mpisim::datatype::INT)?;
        let out = self.accumulate_native(win, s.region(), count, op, target, target_disp);
        self.close(out, [Some(s)])
    }

    // ------------------------------------------------------------------
    // Synchronization
    // ------------------------------------------------------------------

    /// Publish the user's local window writes into the NIC view. The
    /// native library writes the user's image everywhere except the byte
    /// ranges remote deposits wrote since the last sync, so deposits that
    /// already landed are preserved.
    fn publish_local_writes(&mut self, win: JWin) -> BindResult<()> {
        // The direct buffer holding the user's view of the window.
        let user = match self.storage_info(win)? {
            StorageInfo::Buffer(b) => b,
            StorageInfo::Array {
                store,
                handle,
                count,
                ref dt,
                ..
            } => {
                // Charged gather: the buffering layer packs the array
                // into its pinned staging.
                let clock = self.mpi.clock_mut();
                stage_from_array(&mut self.rt, clock, store, handle, 0, count, dt)?;
                store
            }
        };
        let native = self.win_state(win)?.native;
        let image = self.rt.direct_bytes(user)?;
        self.mpi.win_publish(native, image)?;
        Ok(())
    }

    /// Deposit completed get payloads into their recorded destinations.
    /// Returns whether one landed in the window's own direct buffer.
    fn deposit_gets(
        &mut self,
        win: JWin,
        done: Vec<(mpisim::RmaGet, mpisim::Payload)>,
    ) -> BindResult<bool> {
        let own = match self.win_state(win)?.storage {
            WinStorage::Buffer(b) => Some(b),
            WinStorage::Array { .. } => None,
        };
        let mut into_own = false;
        for (tok, data) in done {
            let pos = self
                .win_state(win)?
                .gets
                .iter()
                .position(|(t, _)| *t == tok);
            let Some(pos) = pos else { continue };
            let (_, dest) = self.win_state_mut(win)?.gets.remove(pos);
            match dest {
                GetDest::Buffer(r) => {
                    // NIC deposits straight into the registered direct
                    // buffer — uncharged.
                    into_own |= Some(r.buf) == own;
                    let n = r.len.min(data.len());
                    self.deposit(r, &data[..n])?;
                }
                GetDest::Array(s) => self.unstage_bytes(s, &data)?,
            }
        }
        Ok(into_own)
    }

    /// Mirror the NIC view back into the user's storage; the deposits
    /// recorded so far are then part of it. Right after the publish in
    /// the same call, a direct buffer already equals window memory
    /// outside the recorded deposits, so only those are copied back,
    /// unless `whole`: a get of this call landed in the buffer itself.
    fn refresh_user_storage(&mut self, win: JWin, whole: bool) -> BindResult<()> {
        let info = self.storage_info(win)?;
        let native = self.win_state(win)?.native;
        let mpisim::WinView {
            mem,
            deposited,
            clock,
        } = self.mpi.win_mem(native)?;
        match info {
            StorageInfo::Buffer(b) => {
                // The buffer *is* the exposed region: uncharged mirror.
                let user = &mut self.rt.direct_bytes_mut(b)?[..mem.len()];
                let mut copied = 0;
                for r in mirrored(deposited, mem.len(), whole) {
                    user[r.clone()].copy_from_slice(&mem[r.clone()]);
                    copied += r.len();
                }
                wallprof::add(Counter::CopyBytes, copied as u64);
            }
            StorageInfo::Array {
                handle,
                count,
                ref dt,
                byte_len,
                ..
            } => {
                let dest = ArrayDest {
                    handle,
                    byte_off: 0,
                    byte_len,
                };
                // Charged scatter back into the managed array, straight
                // out of window memory: the pinned staging is the native
                // view of the same bytes, so the scatter it would pay is
                // the one charged here.
                let src = Packed::Bytes(&mem[..byte_len]);
                unstage_to_array(&mut self.rt, clock, src, &dest, count, dt, byte_len)?;
            }
        }
        // Only once the user storage holds the NIC view (an error above
        // keeps the deposits recorded).
        self.mpi.win_mark_synced(native)?;
        Ok(())
    }

    /// `win.fence()`: close the active-target epoch — complete this
    /// rank's one-sided operations, synchronize the communicator, deposit
    /// get payloads, and make remote deposits visible in user storage.
    pub fn win_fence(&mut self, win: JWin) -> BindResult<()> {
        self.binding_call();
        self.publish_local_writes(win)?;
        let native = self.win_state(win)?.native;
        let done = self.mpi.win_fence(native)?;
        let into_own = self.deposit_gets(win, done)?;
        self.refresh_user_storage(win, into_own)
    }

    /// `win.lock(target)`: begin an exclusive passive-target epoch.
    pub fn win_lock(&mut self, win: JWin, target: usize) -> BindResult<()> {
        self.binding_call();
        let native = self.win_state(win)?.native;
        self.mpi.win_lock(native, target)?;
        Ok(())
    }

    /// `win.unlock(target)`: end the passive-target epoch — flush and
    /// complete the operations issued under the lock (get payloads are
    /// deposited here).
    pub fn win_unlock(&mut self, win: JWin, target: usize) -> BindResult<()> {
        self.binding_call();
        let native = self.win_state(win)?.native;
        let done = self.mpi.win_unlock(native, target)?;
        self.deposit_gets(win, done).map(drop)
    }

    /// `win.sync()`: local-only synchronization — publish local writes
    /// and make deposits a peer has causally completed (e.g. before a
    /// barrier this rank just left) visible in user storage. This is how
    /// a passive target observes a lock/unlock epoch.
    pub fn win_sync(&mut self, win: JWin) -> BindResult<()> {
        self.binding_call();
        self.publish_local_writes(win)?;
        let native = self.win_state(win)?.native;
        self.mpi.win_sync(native)?;
        self.refresh_user_storage(win, false)
    }
}

/// The ranges of a window of `len` bytes that a refresh copies back: the
/// whole window if `whole`, else the recorded deposits, sorted and
/// merged so no byte is copied twice.
fn mirrored(deposited: &[Range<usize>], len: usize, whole: bool) -> Vec<Range<usize>> {
    let all = 0..len;
    let deposited = if whole {
        std::slice::from_ref(&all)
    } else {
        deposited
    };
    let mut sorted: Vec<_> = deposited.iter().map(|r| r.start..r.end.min(len)).collect();
    sorted.sort_unstable_by_key(|r| r.start);
    let mut merged: Vec<Range<usize>> = Vec::with_capacity(sorted.len());
    for r in sorted.into_iter().filter(|r| !r.is_empty()) {
        match merged.last_mut() {
            Some(last) if r.start <= last.end => last.end = last.end.max(r.end),
            _ => merged.push(r),
        }
    }
    merged
}
