//! Stackful execution contexts: how the event engine runs every rank on
//! one OS thread.
//!
//! A [`Context`] runs a body on a stack of its own. [`Context::resume`]
//! switches to it on the calling thread; the body gives control back by
//! calling [`suspend`], and the next `resume` continues it right after
//! that call. When the body returns, the context is done and `resume`
//! returns for the last time. Only one side runs at a time, so a body
//! and its resumer never race.
//!
//! Two backends sit behind the same calls:
//!
//! * **`native`** (x86_64 Linux): the switch is a naked routine that
//!   saves the callee-saved registers (rbx, rbp, r12–r15), MXCSR and the
//!   x87 control word on the running stack, stores the stack pointer and
//!   loads the other side's. Stacks come from `mmap` with a `PROT_NONE`
//!   guard page at their low end, so a body that overflows its stack
//!   dies by `SIGSEGV` instead of writing into a neighbour's.
//! * **`threaded`** (every other target): each context is an OS thread
//!   that waits for its turn; `resume` and `suspend` hand a turn flag
//!   back and forth under a mutex and condition variable. It is also
//!   compiled on x86_64 Linux for the tests, which run both backends.
//!
//! A body must not unwind out of its context: a panic that escapes the
//! body aborts the process. Callers catch panics inside the body.
//!
//! A context dropped before its body returned is leaked in place: the
//! body never runs again and the values on its stack are never dropped.

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub(crate) use native::{suspend, Context};
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub(crate) use threaded::{suspend, Context};

/// Abort the process with a message: used where unwinding further would
/// cross a context boundary.
pub(crate) fn abort(msg: &str) -> ! {
    eprintln!("fatal: {msg}");
    std::process::abort()
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod native {
    use std::cell::Cell;
    use std::ffi::c_void;
    use std::io;
    use std::marker::PhantomData;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::ptr;

    const PAGE: usize = 4096;
    const PROT_NONE: i32 = 0;
    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_PRIVATE: i32 = 0x02;
    const MAP_ANONYMOUS: i32 = 0x20;
    const MAP_NORESERVE: i32 = 0x4000;
    const MAP_STACK: i32 = 0x20000;

    // std links libc already; these are its stable entry points.
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            off: i64,
        ) -> *mut c_void;
        fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// An anonymous mapping whose lowest page is a `PROT_NONE` guard.
    struct Stack {
        base: *mut u8,
        len: usize,
    }

    impl Stack {
        fn new(bytes: usize) -> io::Result<Stack> {
            let len = bytes.next_multiple_of(PAGE) + PAGE;
            // SAFETY: a fresh private anonymous mapping aliases nothing.
            let base = unsafe {
                mmap(
                    ptr::null_mut(),
                    len,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                    -1,
                    0,
                )
            };
            if base as usize == usize::MAX {
                return Err(io::Error::last_os_error());
            }
            let stack = Stack {
                base: base.cast(),
                len,
            };
            // SAFETY: the first page lies inside the mapping just made.
            if unsafe { mprotect(base, PAGE, PROT_NONE) } != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(stack)
        }

        /// One past the highest usable byte (page-aligned).
        fn top(&self) -> *mut u8 {
            // SAFETY: `len` is the mapping's length.
            unsafe { self.base.add(self.len) }
        }
    }

    impl Drop for Stack {
        fn drop(&mut self) {
            // SAFETY: unmaps exactly the mapping `new` made.
            unsafe { munmap(self.base.cast(), self.len) };
        }
    }

    /// What the switch routine and the entry point share with the
    /// resumer. Heap-pinned; touched only through raw pointers, since
    /// both sides of a switch hold one.
    struct Frame {
        /// The context's stack pointer while it is switched out.
        ctx_sp: *mut u8,
        /// The resumer's stack pointer while the context runs.
        caller_sp: *mut u8,
        /// The body, until the entry point takes it.
        body: Option<Box<dyn FnOnce()>>,
        done: bool,
    }

    thread_local! {
        /// The frame of the context running on this thread, if any.
        static CURRENT: Cell<*mut Frame> = const { Cell::new(ptr::null_mut()) };
    }

    /// A body on its own stack, run on the resuming thread.
    pub(crate) struct Context<'a> {
        frame: *mut Frame,
        _stack: Stack,
        _body: PhantomData<&'a ()>,
    }

    /// MXCSR (low half) and x87 control word (bits 32..48) of a fresh
    /// context: the ABI's initial values, all exceptions masked and
    /// round-to-nearest.
    const INITIAL_CSR: u64 = (0x037f << 32) | 0x1f80;

    impl<'a> Context<'a> {
        /// A suspended context that runs `body` on a fresh
        /// `stack_bytes` stack at its first [`Context::resume`].
        pub(crate) fn new(stack_bytes: usize, body: impl FnOnce() + Send + 'a) -> io::Result<Self> {
            let stack = Stack::new(stack_bytes)?;
            let body: Box<dyn FnOnce() + 'a> = Box::new(body);
            // SAFETY: only the lifetime is erased. The body runs inside
            // `resume`, which borrows `self` for less than `'a`, and is
            // dropped with the frame in `Drop` at the latest.
            let body: Box<dyn FnOnce()> = unsafe { std::mem::transmute(body) };
            let frame = Box::into_raw(Box::new(Frame {
                ctx_sp: ptr::null_mut(),
                caller_sp: ptr::null_mut(),
                body: Some(body),
                done: false,
            }));
            // The first switch "returns" into the trampoline with the
            // frame in r12, the same way a later switch resumes a body.
            let initial: [u64; 8] = [
                INITIAL_CSR,
                0,                              // r15
                0,                              // r14
                0,                              // r13
                frame as u64,                   // r12
                0,                              // rbx
                0,                              // rbp
                trampoline as *const () as u64, // return address
            ];
            // SAFETY: the top 64 bytes of a fresh stack of at least a
            // page; `top` is 16-aligned, so the trampoline starts with
            // the alignment a `call` expects.
            let sp = unsafe {
                let sp = stack.top().sub(size_of_val(&initial));
                sp.cast::<[u64; 8]>().write(initial);
                sp
            };
            // SAFETY: `frame` is live and not yet shared.
            unsafe { (*frame).ctx_sp = sp };
            Ok(Context {
                frame,
                _stack: stack,
                _body: PhantomData,
            })
        }

        /// Run the body until it suspends or returns.
        ///
        /// # Panics
        /// If the context is already done.
        pub(crate) fn resume(&mut self) {
            let frame = self.frame;
            // SAFETY: the frame lives as long as `self`; the body only
            // touches it while this call is switched away.
            unsafe {
                assert!(!(*frame).done, "resumed a context whose body returned");
                let outer = CURRENT.replace(frame);
                switch(&raw mut (*frame).caller_sp, (*frame).ctx_sp);
                CURRENT.set(outer);
            }
        }

        /// Whether the body has returned.
        pub(crate) fn is_done(&self) -> bool {
            // SAFETY: the frame lives as long as `self`.
            unsafe { (*self.frame).done }
        }
    }

    impl Drop for Context<'_> {
        fn drop(&mut self) {
            // SAFETY: the context is not running (`resume` borrows it),
            // so nothing else points at the frame.
            drop(unsafe { Box::from_raw(self.frame) });
        }
    }

    /// Give control back to whoever resumed the running context.
    ///
    /// # Panics
    /// Outside a context.
    pub(crate) fn suspend() {
        let frame = CURRENT.get();
        assert!(!frame.is_null(), "suspend called outside a context");
        // SAFETY: `frame` belongs to the context running on this stack;
        // its resumer is parked in `resume` until it switches back.
        unsafe { switch(&raw mut (*frame).ctx_sp, (*frame).caller_sp) };
    }

    /// Save the callee-saved state on the running stack, store the stack
    /// pointer in `*save`, load `load` and restore what it saved.
    #[unsafe(naked)]
    unsafe extern "C" fn switch(save: *mut *mut u8, load: *mut u8) {
        core::arch::naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "sub rsp, 8",
            "stmxcsr [rsp]",
            "fnstcw [rsp + 4]",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "ldmxcsr [rsp]",
            "fldcw [rsp + 4]",
            "add rsp, 8",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }

    /// First code a fresh context runs: call [`entry`] with the frame.
    /// `entry` never returns; `ud2` traps if it ever did.
    #[unsafe(naked)]
    unsafe extern "C" fn trampoline() {
        core::arch::naked_asm!(
            "mov rdi, r12",
            "call {entry}",
            "ud2",
            entry = sym entry,
        )
    }

    extern "C" fn entry(frame: *mut Frame) -> ! {
        // SAFETY: the frame outlives the context; its resumer is parked.
        unsafe {
            let Some(body) = (*frame).body.take() else {
                super::abort("context started without a body");
            };
            if catch_unwind(AssertUnwindSafe(body)).is_err() {
                super::abort("a panic escaped a context body");
            }
            (*frame).done = true;
            switch(&raw mut (*frame).ctx_sp, (*frame).caller_sp);
        }
        super::abort("a finished context was resumed")
    }
}

#[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux"))))]
mod threaded {
    use std::cell::RefCell;
    use std::io;
    use std::marker::PhantomData;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::thread::JoinHandle;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Turn {
        Caller,
        Context,
        Done,
    }

    /// Whose turn it is, and the condition variable both sides wait on.
    struct Baton {
        turn: Mutex<Turn>,
        cv: Condvar,
    }

    impl Baton {
        fn lock(&self) -> MutexGuard<'_, Turn> {
            self.turn.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Hand the turn to `to`, then wait until it is no longer `to`'s.
        fn pass(&self, to: Turn) {
            let mut turn = self.lock();
            *turn = to;
            self.cv.notify_all();
            while *turn == to {
                turn = self.cv.wait(turn).unwrap_or_else(|e| e.into_inner());
            }
        }
    }

    thread_local! {
        /// The baton of the context this thread runs, if it runs one.
        static CURRENT: RefCell<Option<Arc<Baton>>> = const { RefCell::new(None) };
    }

    /// A body on a parked OS thread, run in turns with its resumer.
    pub(crate) struct Context<'a> {
        baton: Arc<Baton>,
        thread: Option<JoinHandle<()>>,
        _body: PhantomData<&'a ()>,
    }

    impl<'a> Context<'a> {
        pub(crate) fn new(stack_bytes: usize, body: impl FnOnce() + Send + 'a) -> io::Result<Self> {
            let baton = Arc::new(Baton {
                turn: Mutex::new(Turn::Caller),
                cv: Condvar::new(),
            });
            let mine = baton.clone();
            let run = move || {
                {
                    let mut turn = mine.lock();
                    while *turn != Turn::Context {
                        turn = mine.cv.wait(turn).unwrap_or_else(|e| e.into_inner());
                    }
                }
                CURRENT.with(|c| *c.borrow_mut() = Some(mine.clone()));
                if catch_unwind(AssertUnwindSafe(body)).is_err() {
                    super::abort("a panic escaped a context body");
                }
                *mine.lock() = Turn::Done;
                mine.cv.notify_all();
            };
            // SAFETY: the thread runs the body only during `resume`,
            // which borrows `self` for less than `'a`; a context dropped
            // before its body returned leaves the thread parked forever.
            let thread = unsafe {
                std::thread::Builder::new()
                    .stack_size(stack_bytes)
                    .spawn_unchecked(run)?
            };
            Ok(Context {
                baton,
                thread: Some(thread),
                _body: PhantomData,
            })
        }

        pub(crate) fn resume(&mut self) {
            assert!(!self.is_done(), "resumed a context whose body returned");
            self.baton.pass(Turn::Context);
        }

        pub(crate) fn is_done(&self) -> bool {
            *self.baton.lock() == Turn::Done
        }
    }

    impl Drop for Context<'_> {
        fn drop(&mut self) {
            if self.is_done() {
                if let Some(t) = self.thread.take() {
                    let _ = t.join();
                }
            }
        }
    }

    pub(crate) fn suspend() {
        let baton = CURRENT.with(|c| c.borrow().clone());
        baton
            .expect("suspend called outside a context")
            .pass(Turn::Caller);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU64;
    use std::sync::atomic::Ordering::Relaxed;

    /// One backend's calls, so each test runs on both.
    trait Backend {
        type Ctx<'a>;
        fn new<'a>(body: impl FnOnce() + Send + 'a) -> Self::Ctx<'a>;
        fn resume(c: &mut Self::Ctx<'_>);
        fn is_done(c: &Self::Ctx<'_>) -> bool;
        fn suspend();
    }

    const STACK: usize = 256 << 10;

    struct Threaded;
    impl Backend for Threaded {
        type Ctx<'a> = super::threaded::Context<'a>;
        fn new<'a>(body: impl FnOnce() + Send + 'a) -> Self::Ctx<'a> {
            super::threaded::Context::new(STACK, body).unwrap()
        }
        fn resume(c: &mut Self::Ctx<'_>) {
            c.resume()
        }
        fn is_done(c: &Self::Ctx<'_>) -> bool {
            c.is_done()
        }
        fn suspend() {
            super::threaded::suspend()
        }
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    struct Native;
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    impl Backend for Native {
        type Ctx<'a> = super::native::Context<'a>;
        fn new<'a>(body: impl FnOnce() + Send + 'a) -> Self::Ctx<'a> {
            super::native::Context::new(STACK, body).unwrap()
        }
        fn resume(c: &mut Self::Ctx<'_>) {
            c.resume()
        }
        fn is_done(c: &Self::Ctx<'_>) -> bool {
            c.is_done()
        }
        fn suspend() {
            super::native::suspend()
        }
    }

    fn lcg(x: &mut u64) -> u64 {
        *x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *x >> 33
    }

    /// Recurse `depth` frames, each holding seeded locals, calling
    /// `suspend` at every `every`-th level on the way down and up;
    /// returns a checksum of every local, read back after the calls.
    fn recurse(depth: u32, every: u32, seed: u64, suspend: fn()) -> u64 {
        let mut locals = [0u64; 8];
        let mut x = seed;
        for l in &mut locals {
            *l = lcg(&mut x);
        }
        if depth.is_multiple_of(every) {
            suspend();
        }
        let below = if depth == 0 {
            0
        } else {
            recurse(depth - 1, every, x, suspend)
        };
        if depth % every == 1 {
            suspend();
        }
        let mut sum = below;
        for l in std::hint::black_box(locals) {
            sum = sum.rotate_left(7) ^ l;
        }
        sum
    }

    /// 512 contexts, each recursing to a seeded depth, resumed one step
    /// at a time in a seeded order: every checksum must equal the same
    /// recursion run straight through on the test thread's own stack.
    fn many_contexts_keep_their_stacks<B: Backend>() {
        const N: usize = 512;
        let mut x = 0x5eed;
        let plans: Vec<(u32, u32, u64)> = (0..N)
            .map(|_| {
                let depth = lcg(&mut x) as u32 % 200;
                let every = 1 + lcg(&mut x) as u32 % 16;
                (depth, every, lcg(&mut x))
            })
            .collect();
        let sums: Vec<AtomicU64> = (0..N).map(|_| AtomicU64::new(0)).collect();
        let mut ctxs: Vec<B::Ctx<'_>> = plans
            .iter()
            .zip(&sums)
            .map(|(&(depth, every, seed), sum)| {
                B::new(move || {
                    sum.store(recurse(depth, every, seed, B::suspend), Relaxed);
                })
            })
            .collect();
        let mut live: Vec<usize> = (0..N).collect();
        while !live.is_empty() {
            let k = lcg(&mut x) as usize % live.len();
            B::resume(&mut ctxs[live[k]]);
            if B::is_done(&ctxs[live[k]]) {
                live.swap_remove(k);
            }
        }
        for (i, &(depth, every, seed)) in plans.iter().enumerate() {
            assert_eq!(
                sums[i].load(Relaxed),
                recurse(depth, every, seed, || {}),
                "context {i}"
            );
        }
    }

    #[test]
    fn many_contexts_keep_their_stacks_threaded() {
        many_contexts_keep_their_stacks::<Threaded>();
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn many_contexts_keep_their_stacks_native() {
        many_contexts_keep_their_stacks::<Native>();
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    fn mxcsr() -> u32 {
        let mut v = 0u32;
        // SAFETY: stores the control register into a local.
        unsafe { core::arch::asm!("stmxcsr [{}]", in(reg) &mut v) };
        v
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    fn set_mxcsr(v: u32) {
        // SAFETY: loads a valid control word (reserved bits clear).
        unsafe { core::arch::asm!("ldmxcsr [{}]", in(reg) &v) };
    }

    /// A context that switches SSE rounding to round-up keeps it across
    /// its suspensions, and the resumer's `1.0 / 3.0` stays
    /// round-to-nearest throughout.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn rounding_mode_stays_with_its_context() {
        const ROUND_UP: u32 = 0b10 << 13;
        // In asm, so the division stays between the control-word loads.
        let third = || {
            let mut x = 1.0f64;
            // SAFETY: register-only arithmetic.
            unsafe {
                core::arch::asm!("divsd {x}, {y}", x = inout(xmm_reg) x, y = in(xmm_reg) 3.0f64)
            };
            x
        };
        let nearest = third();
        assert_eq!(nearest.to_bits(), (1.0f64 / 3.0).to_bits());
        let (before, after) = (AtomicU64::new(0), AtomicU64::new(0));
        let (b, a) = (&before, &after);
        let mut ctx = super::native::Context::new(STACK, move || {
            let csr = mxcsr();
            set_mxcsr(csr | ROUND_UP);
            b.store(third().to_bits(), Relaxed);
            super::native::suspend();
            a.store(third().to_bits(), Relaxed);
            set_mxcsr(csr);
        })
        .unwrap();
        ctx.resume();
        assert_eq!(third().to_bits(), nearest.to_bits(), "resumer rounds up");
        assert_eq!(mxcsr() & (0b11 << 13), 0);
        ctx.resume();
        assert!(ctx.is_done());
        let before = before.load(Relaxed);
        assert!(
            f64::from_bits(before) > nearest,
            "the context's rounding did not apply"
        );
        assert_eq!(before, after.load(Relaxed), "the context lost its rounding");
    }

    /// A context that overflows its stack hits the guard page and the
    /// process dies by signal. The overflow runs in a child process
    /// re-executing this test; it goes 32 KiB past the stack's end, so
    /// without the guard it would land in the stack mapped just below
    /// (the neighbour's) and return, and the child would exit normally.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn stack_overflow_dies_by_signal() {
        use std::hint::black_box;
        use std::os::unix::process::ExitStatusExt;
        const CHILD: &str = "SIMFABRIC_CONTEXT_OVERFLOW_CHILD";
        if std::env::var_os(CHILD).is_some() {
            /// Recurse until the frames reach `limit` bytes below `top`.
            fn deep(top: usize, limit: usize) -> u64 {
                let pad = black_box([top as u64; 64]);
                if top - pad.as_ptr() as usize > limit {
                    return pad[0];
                }
                deep(top, limit) ^ pad[1]
            }
            let mut overflow = super::native::Context::new(STACK, || {
                let top = black_box(0u8);
                black_box(deep(&top as *const u8 as usize, STACK + (32 << 10)));
            })
            .unwrap();
            let mut neighbour = super::native::Context::new(STACK, || {
                let local = black_box([7u64; 512]);
                super::native::suspend();
                black_box(local);
            })
            .unwrap();
            neighbour.resume();
            overflow.resume();
            // Reaching here means the overflow went unnoticed.
            std::process::exit(0);
        }
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "context::tests::stack_overflow_dies_by_signal"])
            .args(["--test-threads", "1", "--nocapture"])
            .env(CHILD, "1")
            .output()
            .unwrap();
        assert_eq!(
            out.status.signal(),
            Some(11),
            "child must die by SIGSEGV; status {:?}, stderr:\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
