//! `nif` — the Native InterFace: this reproduction's JNI analogue.
//!
//! The paper's whole design space is defined by the three ways JNI lets
//! native code reach Java data, and this crate implements exactly that
//! contract over the managed runtime:
//!
//! 1. [`get_array_elements`] / [`release_array_elements`] — always
//!    **copies** on JVMs without pinning (ours moves objects, so it never
//!    pins): costs a transition, a fixed setup, and a bulk copy each way.
//! 2. [`get_primitive_array_critical`] — **zero copy**: returns a view of
//!    the live heap bytes while *disabling the collector*. The returned
//!    guard holds the runtime borrow, so the type system enforces the JNI
//!    rule that no allocation may happen inside the critical region — and
//!    the runtime additionally enforces it dynamically for allocations
//!    that would trigger a collection.
//! 3. [`get_direct_buffer_address`] — for **direct ByteBuffers** only:
//!    hands back the stable off-heap storage at the cost of a field read.
//!
//! Every entry charges the JNI transition cost, which is a visible part of
//! Figure 11's "Java vs native" overhead.

use mrt::prim::Prim;
use mrt::{DirectBuffer, JArray, MrtResult, Runtime};
use vtime::{Clock, VDur};

/// Release mode for [`release_array_elements`] (JNI `mode` argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleaseMode {
    /// `0`: copy the native buffer back and free it.
    CopyBack,
    /// `JNI_COMMIT`: copy back but keep the native buffer usable.
    Commit,
    /// `JNI_ABORT`: free the native buffer without copying back.
    Abort,
}

/// The native-side copy produced by [`get_array_elements`].
#[derive(Debug)]
pub struct NativeArray<T: Prim> {
    /// Native copy of the array contents.
    pub data: Vec<T>,
    /// Always true on this runtime (no pinning), mirroring the JNI
    /// `isCopy` out-parameter.
    pub is_copy: bool,
}

/// Charge one Java→C→Java call transition (used by the bindings around
/// every native MPI invocation).
pub fn jni_transition(rt: &Runtime, clock: &mut Clock) {
    let t0 = clock.now();
    clock.charge(rt.cost().jni_transition());
    obs::count(obs::pvar::NIF_TRANSITIONS, 1);
    obs::span("transition", "nif", t0, clock.now(), Vec::new());
}

/// `Get<Type>ArrayElements`: produce a native copy of a managed array.
///
/// The JVM cannot pin (the collector moves objects), so this always
/// copies — the exact overhead the paper's buffering layer competes with.
pub fn get_array_elements<T: Prim>(
    rt: &Runtime,
    clock: &mut Clock,
    arr: JArray<T>,
) -> MrtResult<NativeArray<T>> {
    let t0 = clock.now();
    clock.charge(rt.cost().jni_transition());
    clock.charge(VDur::from_nanos(rt.cost().jni.get_array_elements_fixed_ns));
    obs::count(obs::pvar::NIF_CROSSINGS_COPY, 1);
    let mut data = vec![T::default(); arr.len()];
    // Bulk copy out (charged inside array_read as a memcpy).
    rt.array_read(arr, 0, &mut data, clock)?;
    if obs::tracing_enabled() {
        obs::span(
            "get_elements",
            "nif",
            t0,
            clock.now(),
            vec![(
                "bytes",
                obs::ArgValue::U64((arr.len() * std::mem::size_of::<T>()) as u64),
            )],
        );
    }
    Ok(NativeArray {
        data,
        is_copy: true,
    })
}

/// `Release<Type>ArrayElements`: optionally copy the native buffer back.
pub fn release_array_elements<T: Prim>(
    rt: &mut Runtime,
    clock: &mut Clock,
    arr: JArray<T>,
    native: &NativeArray<T>,
    mode: ReleaseMode,
) -> MrtResult<()> {
    let t0 = clock.now();
    clock.charge(rt.cost().jni_transition());
    clock.charge(VDur::from_nanos(
        rt.cost().jni.release_array_elements_fixed_ns,
    ));
    obs::count(obs::pvar::NIF_CROSSINGS_COPY, 1);
    let out = match mode {
        ReleaseMode::CopyBack | ReleaseMode::Commit => rt.array_write(arr, 0, &native.data, clock),
        ReleaseMode::Abort => Ok(()),
    };
    if obs::tracing_enabled() {
        obs::span(
            "release_elements",
            "nif",
            t0,
            clock.now(),
            vec![(
                "bytes",
                obs::ArgValue::U64((arr.len() * std::mem::size_of::<T>()) as u64),
            )],
        );
    }
    out
}

/// Zero-copy critical access to a managed array's bytes.
///
/// While the guard lives, the collector is locked out (and, through the
/// exclusive runtime borrow, so is every other runtime operation — the
/// strictest reading of the JNI critical-region rules).
pub struct CriticalGuard<'a, T: Prim> {
    rt: &'a mut Runtime,
    arr: JArray<T>,
}

impl<'a, T: Prim> CriticalGuard<'a, T> {
    /// The raw little-endian element bytes, as native code would see them
    /// through the returned pointer.
    pub fn bytes(&self) -> &[u8] {
        self.rt
            .heap()
            .bytes(self.arr.handle())
            .expect("array is live while the guard exists")
    }

    /// Mutable access to the element bytes.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        self.rt
            .heap_mut()
            .bytes_mut(self.arr.handle())
            .expect("array is live while the guard exists")
    }

    /// The heap offset the "pointer" refers to — stable only while this
    /// guard (the critical region) exists.
    pub fn address(&self) -> usize {
        self.rt
            .heap()
            .address_of(self.arr.handle())
            .expect("array is live while the guard exists")
    }
}

impl<'a, T: Prim> Drop for CriticalGuard<'a, T> {
    fn drop(&mut self) {
        self.rt.heap_mut().leave_critical();
    }
}

/// `GetPrimitiveArrayCritical`: zero-copy access with the GC disabled.
pub fn get_primitive_array_critical<'a, T: Prim>(
    rt: &'a mut Runtime,
    clock: &mut Clock,
    arr: JArray<T>,
) -> MrtResult<CriticalGuard<'a, T>> {
    let t0 = clock.now();
    clock.charge(rt.cost().jni_transition());
    clock.charge(VDur::from_nanos(rt.cost().jni.critical_fixed_ns));
    obs::count(obs::pvar::NIF_CROSSINGS_CRITICAL, 1);
    obs::span("critical", "nif", t0, clock.now(), Vec::new());
    // Validate liveness before locking the collector.
    rt.heap().bytes(arr.handle())?;
    rt.heap_mut().enter_critical();
    Ok(CriticalGuard { rt, arr })
}

/// `GetDirectBufferAddress`: the stable storage of a direct buffer.
pub fn get_direct_buffer_address<'a>(
    rt: &'a Runtime,
    clock: &mut Clock,
    buf: DirectBuffer,
) -> MrtResult<&'a [u8]> {
    let t0 = clock.now();
    clock.charge(rt.cost().jni_transition());
    clock.charge(VDur::from_nanos(rt.cost().jni.get_direct_buffer_address_ns));
    obs::count(obs::pvar::NIF_CROSSINGS_DIRECT, 1);
    obs::span("direct_address", "nif", t0, clock.now(), Vec::new());
    rt.direct_bytes(buf)
}

/// Mutable flavour of [`get_direct_buffer_address`] for receive paths.
pub fn get_direct_buffer_address_mut<'a>(
    rt: &'a mut Runtime,
    clock: &mut Clock,
    buf: DirectBuffer,
) -> MrtResult<&'a mut [u8]> {
    let t0 = clock.now();
    clock.charge(rt.cost().jni_transition());
    clock.charge(VDur::from_nanos(rt.cost().jni.get_direct_buffer_address_ns));
    obs::count(obs::pvar::NIF_CROSSINGS_DIRECT, 1);
    obs::span("direct_address", "nif", t0, clock.now(), Vec::new());
    rt.direct_bytes_mut(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrt::MrtError;
    use vtime::CostModel;

    fn setup() -> (Runtime, Clock) {
        (
            Runtime::with_heap(CostModel::default(), 1 << 16, 1 << 18),
            Clock::new(),
        )
    }

    #[test]
    fn get_array_elements_copies_out() {
        let (mut rt, mut c) = setup();
        let a = rt.alloc_array::<i32>(4, &mut c).unwrap();
        for i in 0..4 {
            rt.array_set(a, i, i as i32 * 5, &mut c).unwrap();
        }
        let native = get_array_elements(&rt, &mut c, a).unwrap();
        assert!(native.is_copy, "no pinning on this runtime");
        assert_eq!(native.data, vec![0, 5, 10, 15]);
    }

    #[test]
    fn release_copy_back_vs_abort() {
        let (mut rt, mut c) = setup();
        let a = rt.alloc_array::<i32>(2, &mut c).unwrap();
        let mut native = get_array_elements(&rt, &mut c, a).unwrap();
        native.data[0] = 77;
        release_array_elements(&mut rt, &mut c, a, &native, ReleaseMode::Abort).unwrap();
        assert_eq!(rt.array_get(a, 0, &mut c).unwrap(), 0, "abort discards");
        release_array_elements(&mut rt, &mut c, a, &native, ReleaseMode::CopyBack).unwrap();
        assert_eq!(rt.array_get(a, 0, &mut c).unwrap(), 77, "copy-back lands");
    }

    #[test]
    fn modifications_via_copy_are_invisible_until_release() {
        // The classic JNI-on-non-pinning-JVM surprise.
        let (mut rt, mut c) = setup();
        let a = rt.alloc_array::<i16>(1, &mut c).unwrap();
        let mut native = get_array_elements(&rt, &mut c, a).unwrap();
        native.data[0] = 42;
        assert_eq!(rt.array_get(a, 0, &mut c).unwrap(), 0);
        release_array_elements(&mut rt, &mut c, a, &native, ReleaseMode::Commit).unwrap();
        assert_eq!(rt.array_get(a, 0, &mut c).unwrap(), 42);
    }

    #[test]
    fn critical_gives_zero_copy_view_and_locks_gc() {
        let (mut rt, mut c) = setup();
        let a = rt.alloc_array::<i32>(2, &mut c).unwrap();
        rt.array_set(a, 0, 0x0A0B0C0D, &mut c).unwrap();
        {
            let mut g = get_primitive_array_critical(&mut rt, &mut c, a).unwrap();
            assert_eq!(&g.bytes()[..4], &[0x0D, 0x0C, 0x0B, 0x0A]);
            g.bytes_mut()[4] = 0xFF;
            let _addr = g.address();
        }
        // Guard dropped: GC unlocked, write visible.
        assert!(!rt.heap().gc_locked());
        assert_eq!(rt.array_get(a, 1, &mut c).unwrap(), 0xFF);
    }

    #[test]
    fn critical_region_blocks_collection_via_runtime() {
        let (mut rt, mut c) = setup();
        let a = rt.alloc_array::<i8>(64, &mut c).unwrap();
        let g = get_primitive_array_critical(&mut rt, &mut c, a).unwrap();
        // The exclusive borrow makes allocation impossible to even
        // express while `g` lives — the JNI rule, statically enforced.
        drop(g);
        assert!(!rt.heap().gc_locked());
    }

    #[test]
    fn critical_on_dead_array_fails_without_locking() {
        let (mut rt, mut c) = setup();
        let a = rt.alloc_array::<i8>(8, &mut c).unwrap();
        rt.release_array(a).unwrap();
        assert!(matches!(
            get_primitive_array_critical(&mut rt, &mut c, a),
            Err(MrtError::BadHandle)
        ));
        assert!(!rt.heap().gc_locked(), "failed acquisition must not lock");
    }

    #[test]
    fn direct_buffer_address_is_stable_across_gc() {
        let (mut rt, mut c) = setup();
        let d = rt.allocate_direct(16, &mut c);
        get_direct_buffer_address_mut(&mut rt, &mut c, d).unwrap()[3] = 9;
        // Heavy GC churn.
        for _ in 0..5 {
            let junk = rt.alloc_array::<i64>(1024, &mut c).unwrap();
            rt.release_array(junk).unwrap();
            rt.gc(&mut c);
        }
        assert_eq!(get_direct_buffer_address(&rt, &mut c, d).unwrap()[3], 9);
    }

    #[test]
    fn costs_get_elements_dominates_direct_address() {
        // Why direct buffers win at the boundary: pointer read vs copy.
        let (mut rt, mut c) = setup();
        let n = 1 << 14;
        let a = rt.alloc_array::<i8>(n, &mut c).unwrap();
        let d = rt.allocate_direct(n, &mut c);
        let t0 = c.now();
        let _copy = get_array_elements(&rt, &mut c, a).unwrap();
        let t_copy = c.now() - t0;
        let t1 = c.now();
        let _ptr = get_direct_buffer_address(&rt, &mut c, d).unwrap();
        let t_ptr = c.now() - t1;
        assert!(
            t_copy.as_nanos() > 3.0 * t_ptr.as_nanos(),
            "copy path {t_copy:?} must dwarf pointer path {t_ptr:?}"
        );
    }

    #[test]
    fn critical_cheaper_than_copy_for_large_arrays() {
        let (mut rt, mut c) = setup();
        let n = 1 << 14;
        let a = rt.alloc_array::<i8>(n, &mut c).unwrap();
        let t0 = c.now();
        let _copy = get_array_elements(&rt, &mut c, a).unwrap();
        let t_copy = c.now() - t0;
        let t1 = c.now();
        {
            let _g = get_primitive_array_critical(&mut rt, &mut c, a).unwrap();
        }
        let t_crit = c.now() - t1;
        assert!(t_crit < t_copy);
    }
}
