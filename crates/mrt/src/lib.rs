//! `mrt` — the managed runtime ("JVM") simulation.
//!
//! The calibration note for this reproduction says a naive Rust port would
//! be meaningless because "no JVM heap/GC issues" exist in Rust. This
//! crate restores those issues deliberately:
//!
//! * a managed [`heap::Heap`] with **handle indirection and a compacting,
//!   moving collector** — on-heap object addresses genuinely change, so
//!   raw pointers across the native boundary genuinely go stale (the
//!   addresses are modelled; each object owns its host bytes);
//! * typed primitive arrays ([`array::JArray`]) living on that heap;
//! * **direct ByteBuffers** ([`buffer::DirectBuffer`]) in a separate
//!   native region with stable storage — costly to create, never moved,
//!   ideal to hand to the native MPI library;
//! * heap (non-direct) ByteBuffers, movable like any managed object;
//! * [`store`], the one free list that recycles the host storage of
//!   large heap objects, direct buffers and the MPI engine's payloads;
//! * a calibrated cost model (from the `vtime` crate) charged on every
//!   element access, bulk copy, allocation, and GC pause — including the
//!   crucial asymmetry that ByteBuffer element access is slower than
//!   array access (the paper's Section VI-F).

pub mod array;
pub mod buffer;
pub mod error;
pub mod heap;
pub mod prim;
pub mod runtime;
pub mod store;

pub use array::JArray;
pub use buffer::{DirectBuffer, HeapBuffer};
pub use error::{MrtError, MrtResult};
pub use heap::{GcStats, Handle, Heap};
pub use prim::{ByteOrder, Prim, PrimType};
pub use runtime::Runtime;
