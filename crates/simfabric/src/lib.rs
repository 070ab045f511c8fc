//! Deterministic virtual-time cluster fabric.
//!
//! `simfabric` provides the physical substrate of the reproduction: a
//! cluster of `nodes × ppn` MPI ranks exchanging messages with
//! LogGP-timed arrivals, under one of two engines ([`EngineMode`]): the
//! *threaded* engine (one OS thread per rank, mpsc mailboxes, real
//! blocking) or the *event-driven* engine (a single-threaded
//! discrete-event loop releasing frames from a `(time, src, seq)` event
//! queue — see the `event` module), which lifts the rank ceiling into
//! the thousands. The fabric is *payload-generic* (`Endpoint<M>`): the
//! native MPI simulation (`mpisim`) defines what a message is; the
//! fabric defines when it arrives.
//!
//! ## Determinism
//!
//! All timing state is owned by exactly one thread:
//!
//! * each sender owns its own injection port ([`vtime::LinkState`]), so the
//!   arrival time of a message is a pure function of program order on the
//!   sending rank;
//! * receivers observe arrival *timestamps* carried in the message, never
//!   real time.
//!
//! Consequently any program whose receive operations name their source
//! rank (i.e. no wildcard-source receives) produces bit-identical virtual
//! times on every run, regardless of OS scheduling.

mod context;
pub mod endpoint;
pub mod event;
pub mod fault;
pub mod onesided;
pub mod runner;
pub mod topology;

pub use endpoint::{Delivery, Endpoint, SendStats};
pub use event::{run_cluster_event, EngineMode, Event, EventQueue};
pub use fault::{FabricError, Fate, FaultPlan, FaultTarget, SendOutcome};
pub use onesided::{one_sided_channel, OneSidedClass};
pub use runner::{run_cluster, run_cluster_on};
pub use topology::Topology;
