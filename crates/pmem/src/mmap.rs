//! File-backed persistence: the mmap backend.
//!
//! A [`RegionMode::Mmap`](crate::RegionMode::Mmap) region maps a pool file
//! `MAP_SHARED` into the address space, so the region's bytes *are* the
//! file's pages and a pool reopened by a fresh process recovers from
//! whatever the OS persisted. This is the deployment shape of real
//! App-Direct NVMM (a DAX-mapped file on a pmem-aware filesystem); on a
//! regular filesystem it still gives the property the crash-recovery
//! protocol needs for process-level fault tolerance:
//!
//! * `pwb` issues the real `clwb` on the mapped line (on DAX that is the
//!   durability instruction; on a page-cache mapping it writes the line back
//!   to the kernel's copy of the page).
//! * Dirty `MAP_SHARED` pages survive the death of the process — including
//!   `SIGKILL` mid-epoch — because the kernel owns them. Recovery in a new
//!   process therefore sees a state at least as fresh as every completed
//!   checkpoint, and rolls the open epoch back.
//! * Surviving a *machine* crash on a non-DAX filesystem additionally
//!   requires [`Region::sync_data`](crate::Region::sync_data) (`msync`),
//!   which callers invoke at durability points they care about.
//!
//! Open semantics are create-or-recover: a missing or empty file is created
//! at the configured size ([`was_created`] returns `true`, the pool layer
//! formats it); an existing file is mapped as-is at its own size
//! ([`was_created`] returns `false`, the pool layer runs recovery).
//!
//! [`was_created`]: crate::Region::was_created

use std::path::{Path, PathBuf};

use crate::error::RegionError;
use crate::CACHE_LINE;

#[cfg(unix)]
mod sys {
    use std::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 0x1;
    pub const PROT_WRITE: c_int = 0x2;
    pub const MAP_SHARED: c_int = 0x01;
    #[cfg(target_os = "linux")]
    pub const MS_SYNC: c_int = 4;
    #[cfg(not(target_os = "linux"))]
    pub const MS_SYNC: c_int = 0x0010;

    // Raw libc bindings: std already links libc, and the container has no
    // `libc`/`memmap2` crate to lean on.
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn msync(addr: *mut c_void, len: usize, flags: c_int) -> c_int;
    }
}

/// A `MAP_SHARED` file mapping serving as a region's arena. See the module
/// docs for the durability contract.
pub(crate) struct MmapFile {
    pub(crate) map: *mut u8,
    pub(crate) size: usize,
    /// Keeps the backing fd open for the mapping's lifetime (not strictly
    /// required by POSIX, but it keeps the pool file pinned and debuggable).
    _file: std::fs::File,
    pub(crate) path: PathBuf,
    pub(crate) created: bool,
}

// SAFETY: the mapping is owned by this value for its whole lifetime and
// only accessed through atomic operations by the region.
unsafe impl Send for MmapFile {}
// SAFETY: as above.
unsafe impl Sync for MmapFile {}

impl MmapFile {
    /// Opens (create-or-recover) a pool file at `path`.
    ///
    /// A missing or empty file is created and sized to `default_size`
    /// (rounded up to a whole number of cache lines); an existing file is
    /// mapped at its own length, which must be a positive cache-line
    /// multiple.
    #[cfg(unix)]
    pub(crate) fn open(path: &Path, default_size: usize) -> Result<MmapFile, RegionError> {
        use std::os::fd::AsRawFd;

        if path.as_os_str().is_empty() {
            return Err(RegionError::InvalidConfig(
                "mmap backend needs a non-empty pool path",
            ));
        }
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| RegionError::io(path, "open", &e))?;
        let len = file
            .metadata()
            .map_err(|e| RegionError::io(path, "metadata", &e))?
            .len();
        let (size, created) = if len == 0 {
            if default_size == 0 {
                return Err(RegionError::InvalidConfig(
                    "mmap backend needs a positive size to create a new pool file",
                ));
            }
            let size = crate::align_up(default_size as u64, CACHE_LINE as u64) as usize;
            file.set_len(size as u64)
                .map_err(|e| RegionError::io(path, "set_len", &e))?;
            (size, true)
        } else {
            if !len.is_multiple_of(CACHE_LINE as u64) || usize::try_from(len).is_err() {
                return Err(RegionError::BadImage {
                    path: path.to_path_buf(),
                    len,
                });
            }
            (len as usize, false)
        };
        // SAFETY: mapping `size` bytes of the file we just opened and sized;
        // a null hint lets the kernel pick the address. The fd stays open
        // (held in `_file`) for the mapping's lifetime.
        let map = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                size,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if map as isize == -1 {
            return Err(RegionError::io(
                path,
                "mmap",
                &std::io::Error::last_os_error(),
            ));
        }
        Ok(MmapFile {
            map: map as *mut u8,
            size,
            _file: file,
            path: path.to_path_buf(),
            created,
        })
    }

    /// Stub for non-unix platforms: the mmap backend needs `mmap(2)`.
    #[cfg(not(unix))]
    pub(crate) fn open(_path: &Path, _default_size: usize) -> Result<MmapFile, RegionError> {
        Err(RegionError::Unsupported(
            "the mmap backend requires a unix platform",
        ))
    }

    /// `msync`s the whole mapping to the pool file.
    pub(crate) fn sync(&self) -> Result<(), RegionError> {
        #[cfg(unix)]
        {
            // SAFETY: `map` is the live mapping of exactly `size` bytes.
            let rc = unsafe { sys::msync(self.map as *mut _, self.size, sys::MS_SYNC) };
            if rc != 0 {
                return Err(RegionError::io(
                    &self.path,
                    "msync",
                    &std::io::Error::last_os_error(),
                ));
            }
        }
        Ok(())
    }
}

impl Drop for MmapFile {
    fn drop(&mut self) {
        // Best-effort flush on clean shutdown, then unmap. Errors are
        // unreportable from Drop; recovery handles a torn image anyway.
        let _ = self.sync();
        #[cfg(unix)]
        // SAFETY: `map` is the live mapping of exactly `size` bytes created
        // in `open`; nothing accesses it after this.
        unsafe {
            let _ = sys::munmap(self.map as *mut _, self.size);
        }
    }
}
