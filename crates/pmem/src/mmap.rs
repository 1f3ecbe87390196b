//! The mapping that owns every region's bytes, and the file-backed
//! persistence it gives the mmap backend.
//!
//! A Fast or Sim region's arena is a private anonymous mapping
//! (`Mapping::anonymous`): zero-filled by the kernel on first touch, so a
//! region costs the pages its program writes, not the capacity it reserved
//! — the way a DAX-mapped NVMM file behaves. Nothing is prefaulted, and
//! creating a region does not prove the memory is there: a request the
//! kernel's overcommit check refuses fails here as
//! [`RegionError::Alloc`], anything else can only fail at first touch.
//! (Under Miri, and off unix, the arena is an `alloc_zeroed` heap block
//! instead.)
//!
//! A [`RegionMode::Mmap`](crate::RegionMode::Mmap) region maps a pool file
//! `MAP_SHARED` into the address space (`Mapping::open`), so the region's
//! bytes *are* the file's pages and a pool reopened by a fresh process
//! recovers from whatever the OS persisted. This is the deployment shape
//! of real App-Direct NVMM (a DAX-mapped file on a pmem-aware filesystem);
//! on a regular filesystem it still gives the property the crash-recovery
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
#[cfg(unix)]
use crate::sys;
use crate::CACHE_LINE;

/// A region's arena: an anonymous mapping, or a `MAP_SHARED` mapping of a
/// pool file. See the module docs.
pub(crate) struct Mapping {
    pub(crate) map: *mut u8,
    /// Mapped length in bytes (a whole number of cache lines).
    pub(crate) size: usize,
    /// The pool file behind a shared mapping; `None` for an anonymous one.
    file: Option<PoolFile>,
}

struct PoolFile {
    /// Keeps the backing fd open for the mapping's lifetime (not strictly
    /// required by POSIX, but it keeps the pool file pinned and debuggable).
    _fd: std::fs::File,
    path: PathBuf,
    created: bool,
}

// SAFETY: the mapping is owned by this value for its whole lifetime and
// only accessed through atomic operations by the region.
unsafe impl Send for Mapping {}
// SAFETY: as above.
unsafe impl Sync for Mapping {}

impl Mapping {
    /// A zero-filled anonymous arena of `size` bytes, rounded up to whole
    /// cache lines. Its pages are materialised on first touch.
    ///
    /// # Errors
    ///
    /// [`RegionError::InvalidConfig`] for a zero size,
    /// [`RegionError::Alloc`] when the OS refuses the mapping.
    pub(crate) fn anonymous(size: usize) -> Result<Mapping, RegionError> {
        if size == 0 {
            return Err(RegionError::InvalidConfig("region size must be positive"));
        }
        let rounded = size
            .checked_next_multiple_of(CACHE_LINE)
            .ok_or_else(|| RegionError::alloc(size, &std::io::ErrorKind::OutOfMemory.into()))?;
        Ok(Mapping {
            map: map_anonymous(rounded)?,
            size: rounded,
            file: None,
        })
    }

    /// Opens (create-or-recover) a pool file at `path`.
    ///
    /// A missing or empty file is created and sized to `default_size`
    /// (rounded up to a whole number of cache lines); an existing file is
    /// mapped at its own length, which must be a positive cache-line
    /// multiple.
    #[cfg(unix)]
    pub(crate) fn open(path: &Path, default_size: usize) -> Result<Mapping, RegionError> {
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
        // (held in `_fd`) for the mapping's lifetime.
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
        Ok(Mapping {
            map: map.cast(),
            size,
            file: Some(PoolFile {
                _fd: file,
                path: path.to_path_buf(),
                created,
            }),
        })
    }

    /// Stub for non-unix platforms: the mmap backend needs `mmap(2)`.
    #[cfg(not(unix))]
    pub(crate) fn open(_path: &Path, _default_size: usize) -> Result<Mapping, RegionError> {
        Err(RegionError::Unsupported(
            "the mmap backend requires a unix platform",
        ))
    }

    /// The pool file behind the mapping, if any.
    pub(crate) fn path(&self) -> Option<&Path> {
        self.file.as_ref().map(|f| f.path.as_path())
    }

    /// Whether the arena started empty: always for an anonymous mapping,
    /// for a file mapping only when this open created the file.
    pub(crate) fn was_created(&self) -> bool {
        self.file.as_ref().is_none_or(|f| f.created)
    }

    /// `msync`s a file mapping to its pool file; no-op when anonymous.
    pub(crate) fn sync(&self) -> Result<(), RegionError> {
        #[cfg(unix)]
        if let Some(file) = &self.file {
            // SAFETY: `map` is the live mapping of exactly `size` bytes.
            let rc = unsafe { sys::msync(self.map.cast(), self.size, sys::MS_SYNC) };
            if rc != 0 {
                return Err(RegionError::io(
                    &file.path,
                    "msync",
                    &std::io::Error::last_os_error(),
                ));
            }
        }
        Ok(())
    }

    /// Drops this process's page mappings of a file mapping (Linux
    /// `MADV_DONTNEED`); the bytes stay in the pool file's page cache and
    /// the next access to each page faults it in afresh. An error leaves
    /// the mappings as they were, which is harmless, so it is ignored. A
    /// no-op for an anonymous mapping, whose private pages it would zero,
    /// and off Linux.
    pub(crate) fn drop_file_pages(&self) {
        #[cfg(target_os = "linux")]
        if self.file.is_some() {
            // SAFETY: `map` is the live shared file mapping of exactly
            // `size` bytes; dropping its page-table entries loses no data.
            unsafe {
                let _ = sys::madvise(self.map.cast(), self.size, sys::MADV_DONTNEED);
            }
        }
    }
}

/// Maps `size` zero-filled bytes, private and anonymous: no memset, no
/// prefault.
#[cfg(all(unix, not(miri)))]
fn map_anonymous(size: usize) -> Result<*mut u8, RegionError> {
    // SAFETY: a fresh private anonymous mapping: no fd, a null hint, and
    // nothing else can alias the pages the kernel hands back.
    let map = unsafe {
        sys::mmap(
            std::ptr::null_mut(),
            size,
            sys::PROT_READ | sys::PROT_WRITE,
            sys::MAP_PRIVATE | sys::MAP_ANONYMOUS,
            -1,
            0,
        )
    };
    if map as isize == -1 {
        return Err(RegionError::alloc(size, &std::io::Error::last_os_error()));
    }
    Ok(map.cast())
}

/// The one fallback: a zeroed, page-aligned heap block (Miri runs here).
#[cfg(any(miri, not(unix)))]
fn map_anonymous(size: usize) -> Result<*mut u8, RegionError> {
    let out_of_memory = || RegionError::alloc(size, &std::io::ErrorKind::OutOfMemory.into());
    let layout = heap_layout(size).ok_or_else(out_of_memory)?;
    // SAFETY: `layout` has non-zero size (`size` is positive).
    let ptr = unsafe { std::alloc::alloc_zeroed(layout) };
    if ptr.is_null() {
        return Err(out_of_memory());
    }
    Ok(ptr)
}

#[cfg(any(miri, not(unix)))]
fn heap_layout(size: usize) -> Option<std::alloc::Layout> {
    std::alloc::Layout::from_size_align(size, 4096).ok()
}

impl Drop for Mapping {
    fn drop(&mut self) {
        // Best-effort flush of a pool file on clean shutdown, then unmap.
        // Errors are unreportable from Drop; recovery handles a torn image
        // anyway.
        let _ = self.sync();
        #[cfg(any(miri, not(unix)))]
        if self.file.is_none() {
            let layout = heap_layout(self.size).expect("layout was valid at allocation");
            // SAFETY: an anonymous arena on this platform is the block
            // `map_anonymous` allocated with exactly this layout.
            unsafe { std::alloc::dealloc(self.map, layout) };
            return;
        }
        #[cfg(unix)]
        // SAFETY: `map` is the live mapping of exactly `size` bytes created
        // by `open` or `map_anonymous`; nothing accesses it after this.
        unsafe {
            let _ = sys::munmap(self.map.cast(), self.size);
        }
    }
}
