//! Read-only memory mappings of model files.
//!
//! The scale layer keeps multi-gigabyte columns (the coverage model's
//! CSRs) on disk and maps them instead of reading them into anonymous
//! heap memory: the kernel pages data in on demand and can evict it under
//! pressure, so a model larger than RAM still loads. The vendored
//! dependency set has no `memmap2`, and `std` already links `libc` on every
//! supported target, so this is a direct `extern "C"` binding to the two
//! calls we need (`mmap`/`munmap`) plus a safe owner type.
//!
//! Only *private read-only* mappings are offered — model files are
//! immutable once written, a mapped [`Col`](crate::col::Col) is never
//! mutated, and a `MAP_PRIVATE` read-only mapping can never write back to
//! the file.

use std::fs::File;
use std::io;
use std::os::fd::AsRawFd;
use std::sync::Arc;

// Linux/macOS-compatible constants for the calls below. `PROT_READ` and
// `MAP_PRIVATE` have the same values on both; `MAP_FAILED` is `-1` cast.
const PROT_READ: i32 = 1;
const MAP_PRIVATE: i32 = 2;

extern "C" {
    fn mmap(
        addr: *mut core::ffi::c_void,
        len: usize,
        prot: i32,
        flags: i32,
        fd: i32,
        offset: i64,
    ) -> *mut core::ffi::c_void;
    fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
}

/// An owned read-only memory mapping of an entire file.
///
/// Dereferences to `&[u8]`. Unmapped on drop. Cheap to share: the column
/// types hold an `Arc<Mmap>` plus a range, so any number of columns can
/// view disjoint sections of one mapping.
#[derive(Debug)]
pub struct Mmap {
    ptr: *mut core::ffi::c_void,
    len: usize,
}

// A read-only mapping is as shareable as a `&[u8]`.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps all of `file` read-only. Zero-length files get an empty
    /// mapping without calling `mmap` (POSIX rejects `len == 0`).
    pub fn map(file: &File) -> io::Result<Arc<Self>> {
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file larger than usize"))?;
        if len == 0 {
            return Ok(Arc::new(Self {
                ptr: std::ptr::null_mut(),
                len: 0,
            }));
        }
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(Arc::new(Self { ptr, len }))
    }

    /// Opens and maps the file at `path`.
    pub fn open(path: &std::path::Path) -> io::Result<Arc<Self>> {
        Self::map(&File::open(path)?)
    }

    /// The mapped bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        if self.len == 0 {
            &[]
        } else {
            // SAFETY: ptr..ptr+len is a live PROT_READ mapping owned by
            // self; the kernel keeps it valid until munmap in Drop.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    /// Mapped length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        if self.len > 0 {
            // SAFETY: exactly the region mmap returned; never double-freed
            // because Mmap is not Clone and Drop runs once.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

impl std::ops::Deref for Mmap {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn scratch(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mroam_mmap_test_{}_{tag}", std::process::id()))
    }

    #[test]
    fn maps_file_contents() {
        let path = scratch("contents");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&payload)
            .unwrap();
        let map = Mmap::open(&path).unwrap();
        assert_eq!(&map[..], &payload[..]);
        drop(map);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_file_maps_empty() {
        let path = scratch("empty");
        std::fs::File::create(&path).unwrap();
        let map = Mmap::open(&path).unwrap();
        assert!(map.is_empty());
        assert_eq!(map.len(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_errors() {
        assert!(Mmap::open(&scratch("missing_never_created")).is_err());
    }

    #[test]
    fn shared_views_outlive_each_other() {
        let path = scratch("shared");
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&[1, 2, 3, 4, 5, 6, 7, 8])
            .unwrap();
        let map = Mmap::open(&path).unwrap();
        let a = Arc::clone(&map);
        drop(map);
        assert_eq!(a[0], 1);
        assert_eq!(a[7], 8);
        let _ = std::fs::remove_file(&path);
    }
}
