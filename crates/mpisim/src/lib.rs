//! `mpisim` — the simulated "native MPI" substrate.
//!
//! This crate plays the role MVAPICH2 and Open MPI play in the paper: a
//! production-style MPI implementation the Java-bindings layer calls into
//! through the JNI-analog boundary. It provides:
//!
//! * MPI datatypes (basic + contiguous/vector/indexed derived types) with
//!   a real pack engine ([`datatype`]);
//! * reduction operations over the Java basic types ([`op`]);
//! * a per-rank progress engine with tag/source/context matching, eager
//!   and rendezvous protocols, and request objects ([`engine`]), whose
//!   payloads are host storage ([`Payload`]) from the free list that also
//!   backs the managed heaps and direct buffers (`mrt::store`);
//! * communicators and groups ([`comm`]);
//! * blocking collectives with multiple algorithms — binomial trees,
//!   scatter+allgather, recursive doubling, Rabenseifner, ring, pairwise
//!   exchange, and MVAPICH2-style two-level hierarchical variants — plus
//!   the vectored (v-suffix) collectives ([`coll`]);
//! * non-blocking collectives compiled into round-based schedules that a
//!   per-rank progression engine advances on a self-timed virtual
//!   timeline, so communication/computation overlap is actually modeled
//!   ([`coll::sched`], surfaced through [`mpi::Mpi`]);
//! * two calibrated library profiles ([`profile::Profile::mvapich2`] and
//!   [`profile::Profile::openmpi_ucx`]) whose differences reproduce the
//!   native-performance gaps the paper reports.
//!
//! All timing is virtual (see the `vtime` crate); all data movement is
//! real, so tests can validate payload contents end-to-end.

pub mod coll;
pub mod comm;
pub mod datatype;
pub mod engine;
pub mod error;
pub mod mpi;
pub mod op;
pub mod profile;
pub mod rma;

pub use comm::{CommHandle, Group};
pub use datatype::{BasicType, Datatype};
pub use engine::{Completion, Envelope, Frame, Request, Status, Wire, ANY_SOURCE, ANY_TAG, TAG_UB};
pub use error::{MpiError, MpiResult};
pub use mpi::{
    run_mpi, run_mpi_faulty, run_mpi_faulty_on, run_mpi_on, Deposits, Errhandler, Mpi, MpiRequest,
    RmaGet, Win,
};
/// Owned payload bytes: a frame's data, a rendezvous send parked until
/// its CTS, a matched receive, a get reply, window memory. Clones share
/// storage; `make_mut` unshares before a write.
pub use mrt::store::HostBytes as Payload;
pub use op::ReduceOp;
pub use profile::{CollTuning, PathParams, Profile};
pub use rma::{RegCache, RegLookup};
pub use simfabric::EngineMode;
