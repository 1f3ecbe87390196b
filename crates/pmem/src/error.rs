//! Typed errors for region construction and the file-backed paths.
//!
//! The substrate used to leak raw [`std::io::Error`]s from the save/load
//! helpers; every fallible region operation now reports a [`RegionError`]
//! carrying the path and operation that failed, so callers (and the
//! `PoolError::Backend` wrapper upstairs) can print something actionable.

use std::io;
use std::path::PathBuf;

/// Error from region construction or a backend I/O operation.
///
/// Clonable and comparable (unlike `std::io::Error`) so pool errors that
/// wrap it stay `Clone + PartialEq`; the original error is captured as its
/// [`io::ErrorKind`] plus rendered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionError {
    /// A configuration value failed validation (the message says which).
    InvalidConfig(&'static str),
    /// An I/O operation on a backing file failed.
    Io {
        /// File the operation targeted.
        path: PathBuf,
        /// What we were doing: `"open"`, `"create"`, `"set_len"`, `"mmap"`,
        /// `"msync"`, `"read"`, `"write"`, `"rename"`, `"metadata"`.
        op: &'static str,
        /// Kind of the underlying `std::io::Error`.
        kind: io::ErrorKind,
        /// Rendered message of the underlying error.
        message: String,
    },
    /// A backing file exists but does not look like a region image
    /// (zero length or not a whole number of cache lines).
    BadImage { path: PathBuf, len: u64 },
    /// The requested backend is not available on this platform.
    Unsupported(&'static str),
    /// The OS refused to map a Fast or Sim region's arena. Only a request
    /// its overcommit check rejects fails here; the pages themselves are
    /// committed at first touch.
    Alloc {
        /// Requested arena size in bytes.
        size: usize,
        /// Kind of the underlying OS error.
        kind: io::ErrorKind,
        /// Rendered message of the underlying OS error.
        message: String,
    },
}

impl RegionError {
    /// Wraps an `io::Error` with the path and operation that produced it.
    pub fn io(path: impl Into<PathBuf>, op: &'static str, err: &io::Error) -> RegionError {
        RegionError::Io {
            path: path.into(),
            op,
            kind: err.kind(),
            message: err.to_string(),
        }
    }

    /// Wraps the OS error that refused a `size`-byte arena.
    pub(crate) fn alloc(size: usize, err: &io::Error) -> RegionError {
        RegionError::Alloc {
            size,
            kind: err.kind(),
            message: err.to_string(),
        }
    }
}

impl std::fmt::Display for RegionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionError::InvalidConfig(msg) => write!(f, "invalid region config: {msg}"),
            RegionError::Io {
                path, op, message, ..
            } => write!(f, "{op} failed on {}: {message}", path.display()),
            RegionError::BadImage { path, len } => write!(
                f,
                "{} is not a region image: length {len} is not a positive cache-line multiple",
                path.display()
            ),
            RegionError::Unsupported(msg) => write!(f, "unsupported backend: {msg}"),
            RegionError::Alloc { size, message, .. } => {
                write!(f, "cannot map a {size}-byte region: {message}")
            }
        }
    }
}

impl std::error::Error for RegionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_wrap_keeps_context() {
        let e = io::Error::new(io::ErrorKind::NotFound, "no such file");
        let r = RegionError::io("/tmp/pool.img", "open", &e);
        let s = r.to_string();
        assert!(s.contains("open"), "{s}");
        assert!(s.contains("/tmp/pool.img"), "{s}");
        assert!(s.contains("no such file"), "{s}");
        assert_eq!(r.clone(), r);
    }

    #[test]
    fn display_variants() {
        assert!(RegionError::InvalidConfig("size must be positive")
            .to_string()
            .contains("size"));
        let bad = RegionError::BadImage {
            path: PathBuf::from("x.img"),
            len: 100,
        };
        assert!(bad.to_string().contains("100"));
        assert!(RegionError::Unsupported("mmap requires unix")
            .to_string()
            .contains("mmap"));
        let oom = RegionError::alloc(1 << 40, &io::ErrorKind::OutOfMemory.into());
        assert!(oom.to_string().contains("1099511627776-byte"), "{oom}");
    }
}
