//! Request and status objects returned by the non-blocking bindings API.

use mpisim::datatype::Datatype;
use mpjbuf::Buffer;
use mrt::Handle;

use crate::env::Region;
use crate::stage::Staging;

/// Completion status (the bindings' `Status` object).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JStatus {
    /// Source rank within the communicator (`status.getSource()`).
    pub source: i32,
    /// Message tag (`status.getTag()`).
    pub tag: i32,
    /// Received payload size in bytes.
    pub bytes: usize,
}

impl JStatus {
    /// `status.getCount(datatype)`: received element count.
    pub fn count(&self, dt: &Datatype) -> usize {
        if dt.size() == 0 {
            0
        } else {
            self.bytes / dt.size()
        }
    }
}

/// Type-erased description of a managed-array region for staging.
#[derive(Debug)]
pub(crate) struct ArrayDest {
    /// Heap handle of the target array.
    pub handle: Handle,
    /// Byte offset within the array of the message's element 0.
    pub byte_off: usize,
    /// Total byte length of the array object (for bounds checks).
    pub byte_len: usize,
}

/// What must happen when a request completes.
pub(crate) enum PostAction {
    /// Send, or a collective with nothing to deliver here.
    SendDone,
    /// Receive into a direct buffer: deposit the payload into the
    /// user-layout span of the posted receive.
    RecvBuffer(Region),
    /// Receive into a managed array: deposit into the staging store,
    /// then scatter into the array per the datatype.
    RecvArray(Staging),
}

/// A non-blocking operation in flight (the bindings' `Request` object).
pub struct JRequest {
    pub(crate) native: mpisim::mpi::MpiRequest,
    pub(crate) post: PostAction,
    /// Send-side staging buffer pinned for the operation's lifetime.
    /// Non-blocking collectives read their source region while the
    /// schedule progresses, so the request owns the store until
    /// completion — the collector can run mid-flight without the pool
    /// reusing (or freeing) storage the native library still reads.
    pub(crate) pinned: Option<Buffer>,
}

impl JRequest {
    pub(crate) fn new(native: mpisim::mpi::MpiRequest, post: PostAction) -> Self {
        JRequest {
            native,
            post,
            pinned: None,
        }
    }

    /// Whether this request is a receive (its completion carries data).
    pub fn is_recv(&self) -> bool {
        matches!(
            self.post,
            PostAction::RecvBuffer(_) | PostAction::RecvArray(_)
        )
    }
}

/// Result of a non-blocking `test`. The pending request is handed back
/// unboxed: a polling loop would otherwise allocate on every poll.
#[allow(clippy::large_enum_variant)]
pub enum TestOutcome {
    /// Completed with this status.
    Done(JStatus),
    /// Still pending; the request is handed back.
    Pending(JRequest),
}
