//! Binding flavors: what distinguishes MVAPICH2-J from Open MPI-J at the
//! Java layer.
//!
//! Both libraries follow the same API; they differ in (a) the native
//! library underneath, (b) the per-call Java-side overhead, and (c) API
//! restrictions — Open MPI-J does not support Java arrays with
//! non-blocking point-to-point operations, which is why the paper's
//! bandwidth figures have no "Open MPI-J arrays" series.

use mpisim::Profile;

/// The Java-layer personality of a bindings library.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BindingFlavor {
    /// Library name used in figure labels ("MVAPICH2-J", "Open MPI-J").
    pub name: &'static str,
    /// Java-side overhead per binding call (argument checking, handle
    /// resolution, small-object churn) — on top of the JNI transition.
    pub call_overhead_ns: f64,
    /// Whether Java arrays may be used with non-blocking point-to-point
    /// operations.
    pub arrays_with_nonblocking: bool,
    /// Bytes of small-object garbage each binding call leaves on the
    /// managed heap (status/request wrappers); drives GC activity.
    pub garbage_per_call: usize,
}

/// MVAPICH2-J: the paper's library. Minimal Java layer, buffering layer
/// for arrays, no API restrictions.
pub const MVAPICH2J: BindingFlavor = BindingFlavor {
    name: "MVAPICH2-J",
    call_overhead_ns: 130.0,
    arrays_with_nonblocking: true,
    garbage_per_call: 48,
};

/// Open MPI-J: the comparator. Slightly heavier Java layer and the
/// documented array/non-blocking restriction.
pub const OPENMPIJ: BindingFlavor = BindingFlavor {
    name: "Open MPI-J",
    call_overhead_ns: 180.0,
    arrays_with_nonblocking: false,
    garbage_per_call: 64,
};

impl BindingFlavor {
    /// The native profile this flavor is conventionally paired with.
    pub fn default_profile(&self) -> Profile {
        if self.name == "Open MPI-J" {
            Profile::openmpi_ucx()
        } else {
            Profile::mvapich2()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flavors_differ_where_the_paper_says() {
        // The flavors are constants, so this checks at compile time.
        const {
            assert!(MVAPICH2J.arrays_with_nonblocking);
            assert!(!OPENMPIJ.arrays_with_nonblocking);
            assert!(OPENMPIJ.call_overhead_ns > MVAPICH2J.call_overhead_ns);
        }
    }

    #[test]
    fn default_profiles_pair_correctly() {
        assert_eq!(MVAPICH2J.default_profile().name, "MVAPICH2");
        assert_eq!(OPENMPIJ.default_profile().name, "Open MPI");
    }
}
