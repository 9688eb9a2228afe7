//! Owned-or-mapped typed columns.
//!
//! [`Col<T>`] is the storage substrate of the scale layer: a column of
//! plain-old-data records that is either an ordinary heap `Vec<T>` or a
//! zero-copy view into a shared read-only [`Mmap`](crate::mmap::Mmap).
//! Every reader sees a `&[T]` through `Deref`, so swapping a heap column
//! for a mapped one changes *where the bytes live*, never what any query
//! returns. Mutation goes through [`Col::make_owned`], which promotes a
//! mapped column to a heap copy first (copy-on-write at column
//! granularity — the ingestion paths that append are exactly the paths
//! that should own their data).
//!
//! The on-disk representation of a column is its records back to back in
//! little-endian byte order at an 8-byte-aligned offset; the helpers at
//! the bottom ([`put_pod_section`], [`read_pod_vec`], [`align8`]) are
//! shared by the trajectory columnar file and the influence crate's
//! model file sections so both formats stay layout-compatible.

#[cfg(feature = "mmap")]
use crate::mmap::Mmap;
#[cfg(feature = "mmap")]
use std::sync::Arc;

#[cfg(all(feature = "mmap", target_endian = "big"))]
compile_error!("the mmap feature requires a little-endian target (zero-copy sections are LE)");

/// Marker for types whose values are plain bytes: fixed size, no padding,
/// no niches, any bit pattern valid, no drop glue.
///
/// # Safety
///
/// Implementors guarantee `Self` is `repr(C)`-layout-stable with every bit
/// pattern of `size_of::<Self>()` bytes a valid value, so `&[u8]` regions
/// of the right length and alignment may be reinterpreted as `&[Self]`.
pub unsafe trait Pod: Copy + Send + Sync + 'static {}

unsafe impl Pod for u8 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for f32 {}
unsafe impl Pod for f64 {}
// `Point` is `repr(C)` with two `f64` fields: 16 bytes, no padding.
unsafe impl Pod for mroam_geo::Point {}

/// A typed column: heap-owned or a view into a shared memory mapping.
pub struct Col<T: Pod> {
    inner: Inner<T>,
}

enum Inner<T: Pod> {
    Owned(Vec<T>),
    /// `len` records of `T` starting `offset` bytes into the mapping.
    #[cfg(feature = "mmap")]
    Mapped {
        map: Arc<Mmap>,
        offset: usize,
        len: usize,
    },
}

impl<T: Pod> Col<T> {
    /// An empty owned column.
    pub fn new() -> Self {
        Self {
            inner: Inner::Owned(Vec::new()),
        }
    }

    /// Wraps `len` records starting at byte `offset` of `map`. Panics if
    /// the region is out of bounds or misaligned for `T` — both indicate a
    /// corrupt or mislaid section table, never a data-dependent condition.
    #[cfg(feature = "mmap")]
    pub fn mapped(map: Arc<Mmap>, offset: usize, len: usize) -> Self {
        let bytes = len
            .checked_mul(std::mem::size_of::<T>())
            .expect("column byte length overflows");
        assert!(
            offset
                .checked_add(bytes)
                .is_some_and(|end| end <= map.len()),
            "mapped column [{offset}, +{bytes}) out of bounds of {}-byte mapping",
            map.len()
        );
        assert_eq!(
            (map.as_slice().as_ptr() as usize + offset) % std::mem::align_of::<T>(),
            0,
            "mapped column at byte offset {offset} misaligned for {}",
            std::any::type_name::<T>()
        );
        Self {
            inner: Inner::Mapped { map, offset, len },
        }
    }

    /// The records as a slice, wherever they live.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.inner {
            Inner::Owned(v) => v,
            #[cfg(feature = "mmap")]
            Inner::Mapped { map, offset, len } => {
                // SAFETY: bounds and alignment checked at construction;
                // T: Pod makes any bit pattern valid; the Arc keeps the
                // mapping alive for the lifetime of self.
                unsafe {
                    std::slice::from_raw_parts(
                        map.as_slice().as_ptr().add(*offset) as *const T,
                        *len,
                    )
                }
            }
        }
    }

    /// Mutable access, promoting a mapped column to an owned heap copy
    /// first (copy-on-write).
    pub fn make_owned(&mut self) -> &mut Vec<T> {
        #[cfg(feature = "mmap")]
        if let Inner::Mapped { .. } = self.inner {
            self.inner = Inner::Owned(self.as_slice().to_vec());
        }
        match &mut self.inner {
            Inner::Owned(v) => v,
            #[cfg(feature = "mmap")]
            Inner::Mapped { .. } => unreachable!("promoted above"),
        }
    }

    /// Whether the column is a mapped view (false = heap-owned).
    pub fn is_mapped(&self) -> bool {
        match &self.inner {
            Inner::Owned(_) => false,
            #[cfg(feature = "mmap")]
            Inner::Mapped { .. } => true,
        }
    }

    /// Bytes of anonymous heap memory this column holds (0 when mapped).
    pub fn heap_bytes(&self) -> usize {
        match &self.inner {
            Inner::Owned(v) => v.capacity() * std::mem::size_of::<T>(),
            #[cfg(feature = "mmap")]
            Inner::Mapped { .. } => 0,
        }
    }

    /// Bytes viewed through a file mapping (0 when owned).
    pub fn mapped_bytes(&self) -> usize {
        match &self.inner {
            Inner::Owned(_) => 0,
            #[cfg(feature = "mmap")]
            Inner::Mapped { len, .. } => len * std::mem::size_of::<T>(),
        }
    }
}

impl<T: Pod> From<Vec<T>> for Col<T> {
    fn from(v: Vec<T>) -> Self {
        Self {
            inner: Inner::Owned(v),
        }
    }
}

impl<T: Pod> Default for Col<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Pod> std::ops::Deref for Col<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> Clone for Col<T> {
    /// Cloning a mapped column clones the `Arc` view (cheap), never the
    /// underlying bytes.
    fn clone(&self) -> Self {
        match &self.inner {
            Inner::Owned(v) => Self {
                inner: Inner::Owned(v.clone()),
            },
            #[cfg(feature = "mmap")]
            Inner::Mapped { map, offset, len } => Self {
                inner: Inner::Mapped {
                    map: Arc::clone(map),
                    offset: *offset,
                    len: *len,
                },
            },
        }
    }
}

impl<T: Pod + std::fmt::Debug> std::fmt::Debug for Col<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Col")
            .field("mapped", &self.is_mapped())
            .field("records", &self.as_slice())
            .finish()
    }
}

impl<T: Pod + PartialEq> PartialEq for Col<T> {
    /// Columns compare by contents — a mapped view equals the heap copy of
    /// the same records, which is what "identical read semantics" means.
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod + Eq> Eq for Col<T> {}

impl<T: Pod + serde::Serialize> serde::Serialize for Col<T> {
    fn serialize_json(&self, out: &mut String) {
        self.as_slice().serialize_json(out);
    }
}

impl<'de, T: Pod> serde::Deserialize<'de> for Col<T> {}

/// Pads `out` with zero bytes to the next multiple of 8 — every column
/// section starts 8-aligned so mapped `u64`/`f64`/`Point` views are
/// aligned (mappings themselves are page-aligned).
pub fn align8(out: &mut Vec<u8>) {
    while !out.len().is_multiple_of(8) {
        out.push(0);
    }
}

/// Appends the raw little-endian bytes of a record slice (caller aligns
/// with [`align8`] first).
pub fn put_pod_section<T: Pod>(out: &mut Vec<u8>, vals: &[T]) {
    debug_assert_eq!(out.len() % 8, 0, "section start must be 8-aligned");
    // SAFETY: T: Pod — the value representation is plain initialised bytes.
    let bytes = unsafe {
        std::slice::from_raw_parts(vals.as_ptr() as *const u8, std::mem::size_of_val(vals))
    };
    out.extend_from_slice(bytes);
}

/// Decodes `n` records of `T` from the front of `bytes` into an owned
/// `Vec` (alignment-safe: bytes are copied into the vector's storage, so
/// this works on arbitrary `&[u8]`, not just mapped regions). Returns the
/// vector and the number of bytes consumed, or `None` if `bytes` is too
/// short.
pub fn read_pod_vec<T: Pod>(bytes: &[u8], n: usize) -> Option<(Vec<T>, usize)> {
    let total = n.checked_mul(std::mem::size_of::<T>())?;
    if bytes.len() < total {
        return None;
    }
    let mut v: Vec<T> = Vec::with_capacity(n);
    // SAFETY: the destination has capacity for `total` bytes and is
    // properly aligned for T (Vec allocation); T: Pod makes any bytes a
    // valid value.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), v.as_mut_ptr() as *mut u8, total);
        v.set_len(n);
    }
    Some((v, total))
}

/// FxHash-style checksum over a byte payload, used as the integrity
/// trailer of the columnar trajectory file. (Same construction as the
/// influence crate's `FxHasher`; duplicated here because the dependency
/// points the other way.)
pub fn fx_checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    // Seed with the length so zero padding of different sizes can't
    // collide at 0.
    let mut hash = (bytes.len() as u64).wrapping_mul(K);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let word = u64::from_le_bytes(c.try_into().expect("8 bytes"));
        hash = (hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        hash = (hash.rotate_left(5) ^ u64::from_le_bytes(tail)).wrapping_mul(K);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use mroam_geo::Point;

    #[test]
    fn owned_roundtrip_and_cow() {
        let mut c: Col<u32> = vec![1, 2, 3].into();
        assert_eq!(&*c, &[1, 2, 3]);
        assert!(!c.is_mapped());
        c.make_owned().push(4);
        assert_eq!(&*c, &[1, 2, 3, 4]);
        assert!(c.heap_bytes() >= 16);
        assert_eq!(c.mapped_bytes(), 0);
    }

    #[test]
    fn pod_section_roundtrip() {
        let pts = vec![Point::new(1.5, -2.5), Point::new(0.0, 1e9)];
        let mut out = Vec::new();
        align8(&mut out);
        put_pod_section(&mut out, &pts);
        let (back, used) = read_pod_vec::<Point>(&out, 2).unwrap();
        assert_eq!(used, 32);
        assert_eq!(back, pts);
    }

    #[test]
    fn read_pod_vec_rejects_short_input() {
        assert!(read_pod_vec::<u64>(&[0u8; 15], 2).is_none());
        // Unaligned source is fine: copy semantics.
        let bytes = [0u8; 17];
        let (v, used) = read_pod_vec::<u64>(&bytes[1..], 2).unwrap();
        assert_eq!(v, vec![0, 0]);
        assert_eq!(used, 16);
    }

    #[test]
    fn fx_checksum_is_content_sensitive() {
        let a = fx_checksum(b"hello world");
        assert_eq!(a, fx_checksum(b"hello world"));
        assert_ne!(a, fx_checksum(b"hello worle"));
        assert_ne!(fx_checksum(&[0u8; 8]), fx_checksum(&[0u8; 9]));
    }

    #[cfg(feature = "mmap")]
    #[test]
    fn mapped_view_equals_heap_and_promotes() {
        use std::io::Write;
        let path = std::env::temp_dir().join(format!("mroam_col_test_{}", std::process::id()));
        let vals: Vec<u64> = (0..100).map(|i| i * 7).collect();
        let mut bytes = Vec::new();
        put_pod_section(&mut bytes, &vals);
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&bytes)
            .unwrap();
        let map = Mmap::open(&path).unwrap();
        let mut col = Col::<u64>::mapped(map, 0, 100);
        assert!(col.is_mapped());
        assert_eq!(col.mapped_bytes(), 800);
        assert_eq!(col.heap_bytes(), 0);
        let heap: Col<u64> = vals.clone().into();
        assert_eq!(col, heap);
        // A cheap clone shares the mapping; promotion owns the bytes.
        let view = col.clone();
        assert!(view.is_mapped());
        col.make_owned().push(999);
        assert!(!col.is_mapped());
        assert_eq!(col[100], 999);
        assert_eq!(&*view, &vals[..]);
        let _ = std::fs::remove_file(&path);
    }
}
