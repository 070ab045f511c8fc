//! Reduction operations (MPI_Op) over the Java basic types.
//!
//! `apply` combines `src` into `acc` element-wise: `acc[i] = acc[i] OP
//! src[i]`, interpreting both byte slices as little-endian arrays of the
//! datatype's base type (the simulated cluster is homogeneous x86, so the
//! wire format is native little-endian throughout).

use crate::datatype::{BasicType, Datatype};
use crate::error::{MpiError, MpiResult};

/// The predefined reduction operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// MPI_SUM.
    Sum,
    /// MPI_PROD.
    Prod,
    /// MPI_MIN.
    Min,
    /// MPI_MAX.
    Max,
    /// MPI_BAND (integer types only).
    Band,
    /// MPI_BOR (integer types only).
    Bor,
    /// MPI_BXOR (integer types only).
    Bxor,
    /// MPI_LAND (nonzero = true; integer types only).
    Land,
    /// MPI_LOR.
    Lor,
}

impl ReduceOp {
    /// Display name used in error messages.
    pub const fn name(self) -> &'static str {
        match self {
            ReduceOp::Sum => "MPI_SUM",
            ReduceOp::Prod => "MPI_PROD",
            ReduceOp::Min => "MPI_MIN",
            ReduceOp::Max => "MPI_MAX",
            ReduceOp::Band => "MPI_BAND",
            ReduceOp::Bor => "MPI_BOR",
            ReduceOp::Bxor => "MPI_BXOR",
            ReduceOp::Land => "MPI_LAND",
            ReduceOp::Lor => "MPI_LOR",
        }
    }

    /// All predefined ops are commutative (we do not model user ops).
    pub const fn is_commutative(self) -> bool {
        true
    }

    fn requires_integer(self) -> bool {
        matches!(
            self,
            ReduceOp::Band | ReduceOp::Bor | ReduceOp::Bxor | ReduceOp::Land | ReduceOp::Lor
        )
    }
}

macro_rules! combine_int {
    ($ty:ty, $op:expr, $acc:expr, $src:expr) => {{
        const W: usize = std::mem::size_of::<$ty>();
        for (a, s) in $acc.chunks_exact_mut(W).zip($src.chunks_exact(W)) {
            let x = <$ty>::from_le_bytes(a.try_into().unwrap());
            let y = <$ty>::from_le_bytes(s.try_into().unwrap());
            let r: $ty = match $op {
                ReduceOp::Sum => x.wrapping_add(y),
                ReduceOp::Prod => x.wrapping_mul(y),
                ReduceOp::Min => x.min(y),
                ReduceOp::Max => x.max(y),
                ReduceOp::Band => x & y,
                ReduceOp::Bor => x | y,
                ReduceOp::Bxor => x ^ y,
                ReduceOp::Land => ((x != 0) && (y != 0)) as $ty,
                ReduceOp::Lor => ((x != 0) || (y != 0)) as $ty,
            };
            a.copy_from_slice(&r.to_le_bytes());
        }
    }};
}

macro_rules! combine_float {
    ($ty:ty, $op:expr, $acc:expr, $src:expr) => {{
        const W: usize = std::mem::size_of::<$ty>();
        for (a, s) in $acc.chunks_exact_mut(W).zip($src.chunks_exact(W)) {
            let x = <$ty>::from_le_bytes(a.try_into().unwrap());
            let y = <$ty>::from_le_bytes(s.try_into().unwrap());
            let r: $ty = match $op {
                ReduceOp::Sum => x + y,
                ReduceOp::Prod => x * y,
                ReduceOp::Min => x.min(y),
                ReduceOp::Max => x.max(y),
                _ => unreachable!("checked before dispatch"),
            };
            a.copy_from_slice(&r.to_le_bytes());
        }
    }};
}

/// `acc[i] = acc[i] OP src[i]` over `acc.len() / elem_size` elements.
///
/// Both slices must have equal length, a multiple of the base type size.
pub fn apply(op: ReduceOp, dt: &Datatype, acc: &mut [u8], src: &[u8]) -> MpiResult<()> {
    if acc.len() != src.len() {
        return Err(MpiError::BufferTooSmall {
            needed: acc.len(),
            available: src.len(),
        });
    }
    let base = dt.base_type();
    if op.requires_integer() && !base.is_integer() {
        return Err(MpiError::InvalidOpForType {
            op: op.name(),
            datatype: base.name(),
        });
    }
    if !acc.len().is_multiple_of(base.size()) {
        return Err(MpiError::InvalidCount {
            count: acc.len() as i32,
        });
    }
    match base {
        BasicType::Byte | BasicType::Boolean => combine_int!(u8, op, acc, src),
        BasicType::Char => combine_int!(u16, op, acc, src),
        BasicType::Short => combine_int!(i16, op, acc, src),
        BasicType::Int => combine_int!(i32, op, acc, src),
        BasicType::Long => combine_int!(i64, op, acc, src),
        BasicType::Float => combine_float!(f32, op, acc, src),
        BasicType::Double => combine_float!(f64, op, acc, src),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::{DOUBLE, INT};

    fn ints(v: &[i32]) -> Vec<u8> {
        v.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    fn to_ints(b: &[u8]) -> Vec<i32> {
        b.chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    #[test]
    fn sum_ints() {
        let mut acc = ints(&[1, 2, 3]);
        apply(ReduceOp::Sum, &INT, &mut acc, &ints(&[10, 20, 30])).unwrap();
        assert_eq!(to_ints(&acc), vec![11, 22, 33]);
    }

    #[test]
    fn min_max_prod() {
        let mut acc = ints(&[5, -3, 2]);
        apply(ReduceOp::Max, &INT, &mut acc, &ints(&[1, 7, 2])).unwrap();
        assert_eq!(to_ints(&acc), vec![5, 7, 2]);
        apply(ReduceOp::Min, &INT, &mut acc, &ints(&[2, -9, 3])).unwrap();
        assert_eq!(to_ints(&acc), vec![2, -9, 2]);
        apply(ReduceOp::Prod, &INT, &mut acc, &ints(&[3, 2, -1])).unwrap();
        assert_eq!(to_ints(&acc), vec![6, -18, -2]);
    }

    #[test]
    fn bitwise_and_logical() {
        let mut acc = ints(&[0b1100, 0, 5]);
        apply(ReduceOp::Band, &INT, &mut acc, &ints(&[0b1010, 1, 5])).unwrap();
        assert_eq!(to_ints(&acc), vec![0b1000, 0, 5]);
        apply(ReduceOp::Lor, &INT, &mut acc, &ints(&[0, 0, 0])).unwrap();
        assert_eq!(to_ints(&acc), vec![1, 0, 1]);
        apply(ReduceOp::Land, &INT, &mut acc, &ints(&[1, 1, 0])).unwrap();
        assert_eq!(to_ints(&acc), vec![1, 0, 0]);
        apply(ReduceOp::Bxor, &INT, &mut acc, &ints(&[3, 0, 1])).unwrap();
        assert_eq!(to_ints(&acc), vec![2, 0, 1]);
        apply(ReduceOp::Bor, &INT, &mut acc, &ints(&[4, 4, 4])).unwrap();
        assert_eq!(to_ints(&acc), vec![6, 4, 5]);
    }

    #[test]
    fn doubles_sum() {
        let mut acc: Vec<u8> = [1.5f64, 2.5].iter().flat_map(|x| x.to_le_bytes()).collect();
        let src: Vec<u8> = [0.25f64, 0.75]
            .iter()
            .flat_map(|x| x.to_le_bytes())
            .collect();
        apply(ReduceOp::Sum, &DOUBLE, &mut acc, &src).unwrap();
        let out: Vec<f64> = acc
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(out, vec![1.75, 3.25]);
    }

    #[test]
    fn bitwise_on_float_rejected() {
        let mut acc = vec![0u8; 8];
        let src = vec![0u8; 8];
        assert!(matches!(
            apply(ReduceOp::Band, &DOUBLE, &mut acc, &src),
            Err(MpiError::InvalidOpForType { .. })
        ));
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut acc = vec![0u8; 8];
        let src = vec![0u8; 4];
        assert!(apply(ReduceOp::Sum, &INT, &mut acc, &src).is_err());
    }

    #[test]
    fn misaligned_length_rejected() {
        let mut acc = vec![0u8; 6];
        let src = vec![0u8; 6];
        assert!(matches!(
            apply(ReduceOp::Sum, &INT, &mut acc, &src),
            Err(MpiError::InvalidCount { .. })
        ));
    }

    #[test]
    fn wrapping_sum_does_not_panic() {
        let mut acc = ints(&[i32::MAX]);
        apply(ReduceOp::Sum, &INT, &mut acc, &ints(&[1])).unwrap();
        assert_eq!(to_ints(&acc), vec![i32::MIN]);
    }
}
