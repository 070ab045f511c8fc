//! MPI datatypes: the Java basic types plus the derived constructors the
//! buffering layer exists to support (contiguous, vector, indexed).
//!
//! A datatype describes one *element*; communication calls take an element
//! `count`. Derived types are described by their **typemap**: the list of
//! `(byte offset, byte length)` contiguous segments one element occupies
//! in the user buffer, plus the element *extent* (the span from the start
//! of one element to the start of the next). Packing walks the typemap —
//! this is exactly what a native MPI implementation's pack engine does.

use obs::wallprof::{self, Counter};

use crate::error::{MpiError, MpiResult};

/// The basic (primitive) Java datatypes MVAPICH2-J communicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BasicType {
    /// `byte` — 1 byte.
    Byte,
    /// `boolean` — 1 byte in the JVM's array representation.
    Boolean,
    /// `char` — UTF-16 code unit, 2 bytes.
    Char,
    /// `short` — 2 bytes.
    Short,
    /// `int` — 4 bytes.
    Int,
    /// `long` — 8 bytes.
    Long,
    /// `float` — 4 bytes.
    Float,
    /// `double` — 8 bytes.
    Double,
}

impl BasicType {
    /// Size of one element in bytes.
    #[inline]
    pub const fn size(self) -> usize {
        match self {
            BasicType::Byte | BasicType::Boolean => 1,
            BasicType::Char | BasicType::Short => 2,
            BasicType::Int | BasicType::Float => 4,
            BasicType::Long | BasicType::Double => 8,
        }
    }

    /// Display name used in error messages.
    pub const fn name(self) -> &'static str {
        match self {
            BasicType::Byte => "BYTE",
            BasicType::Boolean => "BOOLEAN",
            BasicType::Char => "CHAR",
            BasicType::Short => "SHORT",
            BasicType::Int => "INT",
            BasicType::Long => "LONG",
            BasicType::Float => "FLOAT",
            BasicType::Double => "DOUBLE",
        }
    }

    /// Whether this is an integer type (bitwise/logical reductions are
    /// only defined on these).
    pub const fn is_integer(self) -> bool {
        matches!(
            self,
            BasicType::Byte
                | BasicType::Boolean
                | BasicType::Char
                | BasicType::Short
                | BasicType::Int
                | BasicType::Long
        )
    }
}

/// An MPI datatype: a basic type or a derived layout over one.
#[derive(Debug, Clone, PartialEq)]
pub enum Datatype {
    /// A single primitive element.
    Basic(BasicType),
    /// `count` consecutive elements of `base` (MPI_Type_contiguous).
    Contiguous { count: usize, base: Box<Datatype> },
    /// `count` blocks of `blocklength` base elements, block `k` starting
    /// at base-element offset `k * stride` (MPI_Type_vector).
    Vector {
        count: usize,
        blocklength: usize,
        stride: usize,
        base: Box<Datatype>,
    },
    /// Explicit blocks: `(displacement, blocklength)` in base elements
    /// (MPI_Type_indexed).
    Indexed {
        blocks: Vec<(usize, usize)>,
        base: Box<Datatype>,
    },
}

/// Shorthands matching the constants the bindings export.
pub const BYTE: Datatype = Datatype::Basic(BasicType::Byte);
pub const BOOLEAN: Datatype = Datatype::Basic(BasicType::Boolean);
pub const CHAR: Datatype = Datatype::Basic(BasicType::Char);
pub const SHORT: Datatype = Datatype::Basic(BasicType::Short);
pub const INT: Datatype = Datatype::Basic(BasicType::Int);
pub const LONG: Datatype = Datatype::Basic(BasicType::Long);
pub const FLOAT: Datatype = Datatype::Basic(BasicType::Float);
pub const DOUBLE: Datatype = Datatype::Basic(BasicType::Double);

impl Datatype {
    /// MPI_Type_contiguous.
    pub fn contiguous(count: usize, base: Datatype) -> Datatype {
        Datatype::Contiguous {
            count,
            base: Box::new(base),
        }
    }

    /// MPI_Type_vector. `stride` is in base elements, like the standard.
    pub fn vector(
        count: usize,
        blocklength: usize,
        stride: usize,
        base: Datatype,
    ) -> MpiResult<Datatype> {
        if count > 0 && stride < blocklength && count > 1 {
            // Overlapping blocks are legal to *send* in MPI but make
            // receive semantics undefined; we reject them outright.
            return Err(MpiError::InvalidCount {
                count: stride as i32,
            });
        }
        Ok(Datatype::Vector {
            count,
            blocklength,
            stride,
            base: Box::new(base),
        })
    }

    /// MPI_Type_indexed with `(displacement, blocklength)` pairs in base
    /// elements. Displacements must be non-decreasing and non-overlapping.
    pub fn indexed(blocks: Vec<(usize, usize)>, base: Datatype) -> MpiResult<Datatype> {
        let mut prev_end = 0usize;
        for &(disp, len) in &blocks {
            if disp < prev_end {
                return Err(MpiError::InvalidGroup("indexed blocks overlap or decrease"));
            }
            prev_end = disp + len;
        }
        Ok(Datatype::Indexed {
            blocks,
            base: Box::new(base),
        })
    }

    /// True data bytes in one element (sum of the typemap segments).
    pub fn size(&self) -> usize {
        match self {
            Datatype::Basic(b) => b.size(),
            Datatype::Contiguous { count, base } => count * base.size(),
            Datatype::Vector {
                count,
                blocklength,
                base,
                ..
            } => count * blocklength * base.size(),
            Datatype::Indexed { blocks, base } => {
                blocks.iter().map(|&(_, l)| l).sum::<usize>() * base.size()
            }
        }
    }

    /// Span in the user buffer from the start of one element to the start
    /// of the next (MPI extent, bytes).
    pub fn extent(&self) -> usize {
        match self {
            Datatype::Basic(b) => b.size(),
            Datatype::Contiguous { count, base } => count * base.extent(),
            Datatype::Vector {
                count,
                blocklength,
                stride,
                base,
            } => {
                if *count == 0 {
                    0
                } else {
                    ((count - 1) * stride + blocklength) * base.extent()
                }
            }
            Datatype::Indexed { blocks, base } => blocks
                .iter()
                .map(|&(d, l)| (d + l) * base.extent())
                .max()
                .unwrap_or(0),
        }
    }

    /// Whether the typemap of one element is a single gap-free segment
    /// covering its extent (pack is then the identity).
    pub fn is_contiguous(&self) -> bool {
        self.size() == self.extent()
    }

    /// The underlying basic type (reductions require one).
    pub fn base_type(&self) -> BasicType {
        match self {
            Datatype::Basic(b) => *b,
            Datatype::Contiguous { base, .. }
            | Datatype::Vector { base, .. }
            | Datatype::Indexed { base, .. } => base.base_type(),
        }
    }

    /// Display name used in error messages.
    pub fn name(&self) -> &'static str {
        match self {
            Datatype::Basic(b) => b.name(),
            Datatype::Contiguous { .. } => "CONTIGUOUS",
            Datatype::Vector { .. } => "VECTOR",
            Datatype::Indexed { .. } => "INDEXED",
        }
    }

    /// The typemap of one element: coalesced `(offset, len)` byte
    /// segments, relative to the element start.
    pub fn segments(&self) -> Vec<(usize, usize)> {
        let mut segs = Vec::new();
        self.collect_segments(0, &mut segs);
        // Coalesce adjacent segments (e.g. contiguous-of-basic).
        let mut out: Vec<(usize, usize)> = Vec::with_capacity(segs.len());
        for (off, len) in segs {
            if let Some(last) = out.last_mut() {
                if last.0 + last.1 == off {
                    last.1 += len;
                    continue;
                }
            }
            out.push((off, len));
        }
        out
    }

    fn collect_segments(&self, at: usize, out: &mut Vec<(usize, usize)>) {
        match self {
            Datatype::Basic(b) => out.push((at, b.size())),
            Datatype::Contiguous { count, base } => {
                let ext = base.extent();
                for k in 0..*count {
                    base.collect_segments(at + k * ext, out);
                }
            }
            Datatype::Vector {
                count,
                blocklength,
                stride,
                base,
            } => {
                let ext = base.extent();
                for k in 0..*count {
                    let block_at = at + k * stride * ext;
                    for j in 0..*blocklength {
                        base.collect_segments(block_at + j * ext, out);
                    }
                }
            }
            Datatype::Indexed { blocks, base } => {
                let ext = base.extent();
                for &(disp, len) in blocks {
                    let block_at = at + disp * ext;
                    for j in 0..len {
                        base.collect_segments(block_at + j * ext, out);
                    }
                }
            }
        }
    }

    /// Bytes of user buffer needed to hold `count` elements.
    pub fn span(&self, count: usize) -> usize {
        if count == 0 {
            0
        } else {
            (count - 1) * self.extent() + self.trailing_span()
        }
    }

    /// Span of a single element up to the end of its last typemap segment
    /// (an element's data may end before its extent), computed from the
    /// structure without building the typemap. 0 when the element holds
    /// no data: every basic type is at least one byte, so a non-zero
    /// trailing span means at least one segment.
    fn trailing_span(&self) -> usize {
        // End of the data of `base` element number `last`, if it has any.
        let last_base_end = |last: usize, base: &Datatype| match base.trailing_span() {
            0 => 0,
            t => last * base.extent() + t,
        };
        match self {
            Datatype::Basic(b) => b.size(),
            Datatype::Contiguous { count, base } => match count {
                0 => 0,
                n => last_base_end(n - 1, base),
            },
            Datatype::Vector {
                count,
                blocklength,
                stride,
                base,
            } => {
                if *count == 0 || *blocklength == 0 {
                    0
                } else {
                    last_base_end((count - 1) * stride + blocklength - 1, base)
                }
            }
            Datatype::Indexed { blocks, base } => blocks
                .iter()
                .rev()
                .find(|&&(_, len)| len > 0)
                .map_or(0, |&(disp, len)| last_base_end(disp + len - 1, base)),
        }
    }

    /// Call `f(offset, len)` for each byte run that `count` elements
    /// occupy in the user buffer, in typemap order, with adjacent runs
    /// merged (across element boundaries too). A contiguous type is one
    /// run of `size() * count` bytes; any other type walks its typemap
    /// once per element. Pack and unpack copy one run at a time, so a
    /// message of `BYTE`s costs one memcpy rather than one per byte.
    fn for_each_run(&self, count: usize, mut f: impl FnMut(usize, usize)) {
        let (size, ext) = (self.size(), self.extent());
        if size == 0 || count == 0 {
            return;
        }
        if size == ext {
            f(0, size * count);
            return;
        }
        let segs = self.segments();
        let (mut at, mut len) = (0, 0);
        for i in 0..count {
            for &(off, seg_len) in &segs {
                let start = i * ext + off;
                if len > 0 && at + len == start {
                    len += seg_len;
                } else {
                    if len > 0 {
                        f(at, len);
                    }
                    (at, len) = (start, seg_len);
                }
            }
        }
        if len > 0 {
            f(at, len);
        }
    }

    /// Pack `count` elements from `src` into a dense byte vector.
    pub fn pack(&self, src: &[u8], count: usize) -> MpiResult<Vec<u8>> {
        let needed = self.span(count);
        if src.len() < needed {
            return Err(MpiError::BufferTooSmall {
                needed,
                available: src.len(),
            });
        }
        let mut out = vec![0; self.size() * count];
        self.pack_into(src, count, &mut out);
        Ok(out)
    }

    /// Pack `count` elements from `src`, which must span them, into
    /// `out`, which must hold exactly their packed size.
    pub fn pack_into(&self, src: &[u8], count: usize, out: &mut [u8]) {
        let mut pos = 0;
        self.for_each_run(count, |off, len| {
            out[pos..pos + len].copy_from_slice(&src[off..off + len]);
            pos += len;
        });
        debug_assert_eq!(pos, out.len());
        wallprof::add(Counter::CopyBytes, pos as u64);
    }

    /// Unpack `count` elements from dense bytes `data` into `dst` laid out
    /// with this datatype. `data` must hold exactly `size() * count` bytes
    /// or fewer (a shorter message fills a prefix, like MPI receives).
    pub fn unpack(&self, data: &[u8], count: usize, dst: &mut [u8]) -> MpiResult<usize> {
        let elem_size = self.size();
        if elem_size == 0 {
            return Ok(0);
        }
        let full = data.len() / elem_size;
        if full > count {
            return Err(MpiError::Truncated {
                incoming: data.len(),
                capacity: elem_size * count,
            });
        }
        let needed = self.span(full);
        if dst.len() < needed {
            return Err(MpiError::BufferTooSmall {
                needed,
                available: dst.len(),
            });
        }
        let mut pos = 0usize;
        self.for_each_run(full, |off, len| {
            dst[off..off + len].copy_from_slice(&data[pos..pos + len]);
            pos += len;
        });
        // Trailing partial element, if the sender sent a ragged tail
        // (possible with basic types only in practice).
        let rem = data.len() - pos;
        if rem > 0 {
            let base = full * self.extent();
            let mut left = rem;
            for (off, len) in self.segments() {
                let take = left.min(len);
                if dst.len() < base + off + take {
                    return Err(MpiError::BufferTooSmall {
                        needed: base + off + take,
                        available: dst.len(),
                    });
                }
                dst[base + off..base + off + take].copy_from_slice(&data[pos..pos + take]);
                pos += take;
                left -= take;
                if left == 0 {
                    break;
                }
            }
        }
        wallprof::add(Counter::CopyBytes, data.len() as u64);
        Ok(data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_sizes() {
        assert_eq!(BYTE.size(), 1);
        assert_eq!(CHAR.size(), 2);
        assert_eq!(SHORT.size(), 2);
        assert_eq!(INT.size(), 4);
        assert_eq!(LONG.size(), 8);
        assert_eq!(FLOAT.size(), 4);
        assert_eq!(DOUBLE.size(), 8);
        assert!(INT.is_contiguous());
    }

    #[test]
    fn contiguous_type() {
        let t = Datatype::contiguous(5, INT);
        assert_eq!(t.size(), 20);
        assert_eq!(t.extent(), 20);
        assert!(t.is_contiguous());
        assert_eq!(t.segments(), vec![(0, 20)]);
    }

    #[test]
    fn vector_type_layout() {
        // 3 blocks of 2 ints, stride 4 ints.
        let t = Datatype::vector(3, 2, 4, INT).unwrap();
        assert_eq!(t.size(), 24);
        assert_eq!(t.extent(), (2 * 4 + 2) * 4);
        assert!(!t.is_contiguous());
        assert_eq!(t.segments(), vec![(0, 8), (16, 8), (32, 8)]);
    }

    #[test]
    fn vector_pack_unpack_roundtrip() {
        let t = Datatype::vector(2, 2, 3, INT).unwrap();
        // Element layout (ints): [b0 b0 . b1 b1] extent = 5 ints? stride 3,
        // blocklength 2 => extent = ((2-1)*3 + 2)*4 = 20 bytes = 5 ints.
        let src: Vec<u8> = (0..40u8).collect(); // 2 elements * 5 ints
        let packed = t.pack(&src, 2).unwrap();
        assert_eq!(packed.len(), 2 * t.size());
        let mut dst = vec![0u8; 40];
        let n = t.unpack(&packed, 2, &mut dst).unwrap();
        assert_eq!(n, packed.len());
        // Every byte covered by the typemap must roundtrip.
        let ext = t.extent();
        for i in 0..2 {
            for &(off, len) in &t.segments() {
                let a = &src[i * ext + off..i * ext + off + len];
                let b = &dst[i * ext + off..i * ext + off + len];
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn indexed_type() {
        let t = Datatype::indexed(vec![(0, 1), (3, 2)], DOUBLE).unwrap();
        assert_eq!(t.size(), 24);
        assert_eq!(t.extent(), 40);
        assert_eq!(t.segments(), vec![(0, 8), (24, 16)]);
    }

    #[test]
    fn indexed_rejects_overlap() {
        assert!(Datatype::indexed(vec![(0, 2), (1, 1)], INT).is_err());
    }

    #[test]
    fn vector_rejects_overlapping_stride() {
        assert!(Datatype::vector(3, 4, 2, INT).is_err());
    }

    #[test]
    fn pack_rejects_short_buffer() {
        let t = Datatype::contiguous(4, INT);
        let src = vec![0u8; 15];
        assert!(matches!(
            t.pack(&src, 1),
            Err(MpiError::BufferTooSmall { .. })
        ));
    }

    #[test]
    fn unpack_rejects_oversized_message() {
        let data = vec![0u8; 8];
        let mut dst = vec![0u8; 4];
        assert!(matches!(
            INT.unpack(&data, 1, &mut dst),
            Err(MpiError::Truncated { .. })
        ));
    }

    #[test]
    fn unpack_partial_fill() {
        // 2 ints arrive into a 4-int receive: prefix fill.
        let data: Vec<u8> = (0..8).collect();
        let mut dst = vec![0xFFu8; 16];
        let n = INT.unpack(&data, 4, &mut dst).unwrap();
        assert_eq!(n, 8);
        assert_eq!(&dst[..8], &data[..]);
        assert_eq!(&dst[8..], &[0xFF; 8]);
    }

    #[test]
    fn base_type_of_nested() {
        let t = Datatype::contiguous(3, Datatype::vector(2, 1, 2, DOUBLE).unwrap());
        assert_eq!(t.base_type(), BasicType::Double);
    }

    #[test]
    fn span_accounts_for_ragged_tail() {
        let t = Datatype::vector(2, 1, 3, INT).unwrap();
        // segments: (0,4), (12,4); extent 16; trailing span 16 => span(2)=32
        assert_eq!(t.span(2), 32);
        let u = Datatype::indexed(vec![(0, 1)], INT).unwrap();
        // extent 4 == trailing span; span(3) = 12
        assert_eq!(u.span(3), 12);
    }

    #[test]
    fn nested_contiguous_of_vector_packs() {
        let v = Datatype::vector(2, 1, 2, SHORT).unwrap(); // segs (0,2),(4,2), ext 6? ((2-1)*2+1)*2=6
        let t = Datatype::contiguous(2, v);
        assert_eq!(t.size(), 8);
        let src: Vec<u8> = (0..12u8).chain(0..12u8).collect();
        let packed = t.pack(&src, 1).unwrap();
        assert_eq!(packed.len(), 8);
        assert_eq!(packed, vec![0, 1, 4, 5, 6, 7, 10, 11]);
    }

    /// The per-element pack engine the run-based one replaced: one copy
    /// per typemap segment per element, and the span from the typemap.
    mod reference {
        use super::*;

        pub fn span(dt: &Datatype, count: usize) -> usize {
            let trailing = dt.segments().last().map(|&(o, l)| o + l).unwrap_or(0);
            if count == 0 {
                0
            } else {
                (count - 1) * dt.extent() + trailing
            }
        }

        pub fn pack(dt: &Datatype, src: &[u8], count: usize) -> MpiResult<Vec<u8>> {
            let needed = span(dt, count);
            if src.len() < needed {
                return Err(MpiError::BufferTooSmall {
                    needed,
                    available: src.len(),
                });
            }
            let mut out = Vec::with_capacity(dt.size() * count);
            let segs = dt.segments();
            let ext = dt.extent();
            for i in 0..count {
                let base = i * ext;
                for &(off, len) in &segs {
                    out.extend_from_slice(&src[base + off..base + off + len]);
                }
            }
            Ok(out)
        }

        pub fn unpack(
            dt: &Datatype,
            data: &[u8],
            count: usize,
            dst: &mut [u8],
        ) -> MpiResult<usize> {
            let elem_size = dt.size();
            if elem_size == 0 {
                return Ok(0);
            }
            let full = data.len() / elem_size;
            if full > count {
                return Err(MpiError::Truncated {
                    incoming: data.len(),
                    capacity: elem_size * count,
                });
            }
            let needed = span(dt, full);
            if dst.len() < needed {
                return Err(MpiError::BufferTooSmall {
                    needed,
                    available: dst.len(),
                });
            }
            let segs = dt.segments();
            let ext = dt.extent();
            let mut pos = 0usize;
            for i in 0..full {
                let base = i * ext;
                for &(off, len) in &segs {
                    dst[base + off..base + off + len].copy_from_slice(&data[pos..pos + len]);
                    pos += len;
                }
            }
            let rem = data.len() - pos;
            if rem > 0 {
                let base = full * ext;
                let mut left = rem;
                for &(off, len) in &segs {
                    let take = left.min(len);
                    if dst.len() < base + off + take {
                        return Err(MpiError::BufferTooSmall {
                            needed: base + off + take,
                            available: dst.len(),
                        });
                    }
                    dst[base + off..base + off + take].copy_from_slice(&data[pos..pos + take]);
                    pos += take;
                    left -= take;
                    if left == 0 {
                        break;
                    }
                }
            }
            Ok(data.len())
        }
    }

    /// Seeded 64-bit LCG (Knuth's MMIX constants).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }

        /// Uniform in `0..n` (`n > 0`).
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn bytes(&mut self, n: usize) -> Vec<u8> {
            (0..n).map(|_| self.next() as u8).collect()
        }
    }

    const BASICS: [BasicType; 8] = [
        BasicType::Byte,
        BasicType::Boolean,
        BasicType::Char,
        BasicType::Short,
        BasicType::Int,
        BasicType::Long,
        BasicType::Float,
        BasicType::Double,
    ];

    /// A random datatype nested up to `depth` constructors deep, built
    /// through the public constructors (so always well formed).
    fn random_type(rng: &mut Lcg, depth: usize) -> Datatype {
        let basic = Datatype::Basic(BASICS[rng.below(BASICS.len())]);
        if depth == 0 {
            return basic;
        }
        let base = if rng.below(3) == 0 {
            basic
        } else {
            random_type(rng, depth - 1)
        };
        match rng.below(4) {
            0 => base,
            1 => Datatype::contiguous(rng.below(4), base),
            2 => {
                let blocklength = rng.below(4);
                let stride = blocklength + rng.below(3);
                Datatype::vector(rng.below(4), blocklength, stride, base).unwrap()
            }
            _ => {
                let mut disp = 0;
                let blocks = (0..rng.below(4))
                    .map(|_| {
                        disp += rng.below(3);
                        let len = rng.below(3);
                        let block = (disp, len);
                        disp += len;
                        block
                    })
                    .collect();
                Datatype::indexed(blocks, base).unwrap()
            }
        }
    }

    /// A length around `exact`: short, exact, or long, chosen at random.
    fn around(rng: &mut Lcg, exact: usize) -> usize {
        match rng.below(4) {
            0 => exact.saturating_sub(1 + rng.below(8)),
            1 => exact + 1 + rng.below(8),
            _ => exact,
        }
    }

    #[test]
    fn run_engine_matches_the_per_element_reference() {
        let mut rng = Lcg(0x5eed_da7a_7e9e);
        let mut cases = 0;
        while cases < 3000 {
            let dt = random_type(&mut rng, 3);
            let count = rng.below(65);
            // Keep each case small; skip the rare huge nesting.
            if dt.extent().max(1) * count > 1 << 14 {
                continue;
            }
            cases += 1;

            // Pack from a short, exact or oversized source.
            let src_len = around(&mut rng, reference::span(&dt, count));
            let src = rng.bytes(src_len);
            assert_eq!(
                dt.pack(&src, count),
                reference::pack(&dt, &src, count),
                "pack {dt:?} x{count} from {} bytes",
                src.len()
            );

            // Unpack a message that may be short, ragged or oversized
            // into a destination that may be short or long. Gap bytes
            // (and bytes past the data) must stay as they were.
            let elem = dt.size();
            let len = match rng.below(5) {
                0 => elem * count + 1 + rng.below(2 * elem + 1),
                1 => rng.below(elem * count + 1),
                _ => elem * count,
            };
            let data = rng.bytes(len);
            let dst_len = around(&mut rng, reference::span(&dt, count));
            let fill = rng.bytes(dst_len);
            let (mut got, mut want) = (fill.clone(), fill);
            assert_eq!(
                dt.unpack(&data, count, &mut got),
                reference::unpack(&dt, &data, count, &mut want),
                "unpack {dt:?} x{count}: {len} bytes into {}",
                want.len()
            );
            assert_eq!(
                got, want,
                "unpack {dt:?} x{count}: destination bytes differ"
            );
        }
    }

    #[test]
    fn span_matches_the_typemap_for_nested_types() {
        let mut rng = Lcg(0x0005_9a11);
        for _ in 0..2000 {
            let dt = random_type(&mut rng, 3);
            for count in [0, 1, 2, 7] {
                assert_eq!(
                    dt.span(count),
                    reference::span(&dt, count),
                    "{dt:?} x{count}"
                );
            }
        }
        // Trailing empty blocks and empty bases end the data early.
        let t = Datatype::indexed(vec![(0, 1), (4, 0)], INT).unwrap();
        assert_eq!((t.extent(), t.span(1), t.span(2)), (16, 4, 20));
        let empty = Datatype::contiguous(3, Datatype::indexed(vec![(2, 0)], INT).unwrap());
        assert_eq!((empty.extent(), empty.span(1), empty.span(2)), (24, 0, 24));
    }
}
