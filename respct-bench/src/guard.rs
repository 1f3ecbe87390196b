//! Never hang, never leak: child processes, temp directories, a watchdog.
//!
//! Everything the benchmark starts or creates outside its own address
//! space is entered in one registry. The owning guard removes its entry on
//! drop — which also runs while a panic unwinds — and the watchdog empties
//! the whole registry if the run outlives its hard limit, so no exit path
//! leaves a `respct-kvd` running or a pool file on disk.

use std::path::{Path, PathBuf};
use std::process::Child;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct Registry {
    next_key: u64,
    children: Vec<(u64, Child)>,
    dirs: Vec<PathBuf>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    next_key: 0,
    children: Vec::new(),
    dirs: Vec::new(),
});

fn registry() -> std::sync::MutexGuard<'static, Registry> {
    // Entries stay valid at every step of every update, so a panic while
    // the lock was held loses nothing.
    REGISTRY
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn stop(mut child: Child) {
    let _ = child.kill();
    let _ = child.wait();
}

/// Owns one child process: killed and reaped when dropped.
pub struct ChildGuard {
    key: u64,
    pid: u32,
}

impl ChildGuard {
    pub fn new(child: Child) -> ChildGuard {
        let pid = child.id();
        let mut r = registry();
        let key = r.next_key;
        r.next_key += 1;
        r.children.push((key, child));
        ChildGuard { key, pid }
    }

    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Whether the child is still running (a dead server fails its phase).
    pub fn is_alive(&self) -> bool {
        let mut r = registry();
        r.children
            .iter_mut()
            .find(|(k, _)| *k == self.key)
            .is_some_and(|(_, c)| matches!(c.try_wait(), Ok(None)))
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let child = {
            let mut r = registry();
            r.children
                .iter()
                .position(|(k, _)| *k == self.key)
                .map(|i| r.children.swap_remove(i).1)
        };
        if let Some(child) = child {
            stop(child);
        }
    }
}

/// A directory for pool files and snapshots, removed when dropped.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `parent/<name>-<pid>` (fresh: a leftover from a killed run
    /// with the same pid is removed first).
    pub fn create(parent: &Path, name: &str) -> std::io::Result<TempDir> {
        let path = parent.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        registry().dirs.push(path.clone());
        Ok(TempDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        registry().dirs.retain(|d| d != &self.path);
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Kills every registered child and removes every registered directory.
fn release_everything() {
    let (children, dirs) = {
        let mut r = registry();
        (std::mem::take(&mut r.children), std::mem::take(&mut r.dirs))
    };
    for (_, child) in children {
        stop(child);
    }
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

static RUN_DONE: AtomicBool = AtomicBool::new(false);

/// Starts the run's hard limit. In-process phases cannot be cancelled — a
/// thread stuck in `rp()` or a checkpoint that never finishes would hold
/// the run forever — so past `limit` the watchdog releases everything
/// registered here and exits with code 3 without printing a result.
pub fn start_watchdog(limit: Duration) {
    let deadline = Instant::now() + limit;
    std::thread::Builder::new()
        .name("bench-watchdog".into())
        .spawn(move || {
            while !RUN_DONE.load(Ordering::Acquire) {
                if Instant::now() >= deadline {
                    eprintln!(
                        "respct-bench: run exceeded its {}s hard limit; aborting",
                        limit.as_secs()
                    );
                    release_everything();
                    std::process::exit(3);
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        })
        .expect("spawn watchdog");
}

/// Tells the watchdog the run finished in time.
pub fn run_finished() {
    RUN_DONE.store(true, Ordering::Release);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_is_killed_and_reaped_on_drop_even_during_a_panic() {
        let pid = std::panic::catch_unwind(|| {
            let child = std::process::Command::new("sleep")
                .arg("600")
                .spawn()
                .expect("spawn sleep");
            let guard = ChildGuard::new(child);
            assert!(guard.is_alive());
            std::panic::resume_unwind(Box::new(guard.pid()));
        })
        .expect_err("the closure unwinds")
        .downcast::<u32>()
        .expect("pid payload");
        // Reaped: the pid no longer names a process of ours.
        assert!(!Path::new(&format!("/proc/{pid}/stat")).exists());
    }

    #[test]
    fn temp_dir_disappears_with_its_guard() {
        let path = {
            let dir = TempDir::create(&crate::plan::tmp_parent(), "guard-test").expect("create");
            std::fs::write(dir.path().join("pool"), b"x").expect("write");
            dir.path().to_path_buf()
        };
        assert!(!path.exists());
    }
}
