//! Real process-crash recovery on the mmap backend (ISSUE 7, satellite 3).
//!
//! Spawns the `restart_worker` binary against a pool file, SIGKILLs it
//! mid-epoch, restarts it (recovery happens in the fresh subprocess), kills
//! it again, and finally recovers the pool in *this* process. Only whole
//! checkpointed batches may survive: a partial batch in the recovered map
//! would mean the open epoch leaked through the crash.
#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use respct_repro::ds::POrderedMap;
use respct_repro::respct::layout::{slot_base, OFF_BUMP, SLOT_ALLOC_CUR, U64_CELL_SLOT};
use respct_repro::respct::{Pool, PoolConfig, PoolError};

/// Must match `BATCH` in `src/bin/restart_worker.rs`.
const BATCH: u64 = 64;

/// Per-line timeout: the worker checkpoints every few milliseconds, so a
/// minute of silence means it wedged (or the build is pathologically slow).
const LINE_TIMEOUT: Duration = Duration::from_secs(60);

struct Worker {
    child: Child,
    lines: mpsc::Receiver<String>,
}

impl Worker {
    fn spawn(pool_path: &std::path::Path) -> Worker {
        let mut child = Command::new(env!("CARGO_BIN_EXE_restart_worker"))
            .arg(pool_path)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn restart_worker");
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, lines) = mpsc::channel();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Worker { child, lines }
    }

    /// Waits for the next `ckpt <n>` report and returns `n`.
    fn next_ckpt(&self) -> u64 {
        let line = self
            .lines
            .recv_timeout(LINE_TIMEOUT)
            .expect("worker progress report");
        let batch = line
            .strip_prefix("ckpt ")
            .unwrap_or_else(|| panic!("unexpected worker output: {line:?}"));
        batch.parse().expect("batch index")
    }

    /// SIGKILLs the worker — no signal handler runs, no flush, no unmap.
    fn kill(mut self) {
        self.child.kill().expect("deliver SIGKILL");
        self.child.wait().expect("reap worker");
    }
}

#[test]
fn sigkill_mid_epoch_recovers_in_fresh_process() {
    let path = std::env::temp_dir().join(format!(
        "respct_process_restart_{}.pool",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    // Round 1: fresh pool. Let three whole batches checkpoint, then kill
    // while the fourth is (almost certainly) mid-flight.
    let worker = Worker::spawn(&path);
    let mut ckpts = 0;
    while worker.next_ckpt() < 3 {
        ckpts += 1;
        assert!(ckpts < 100, "batch indices must be increasing from 0");
    }
    worker.kill();

    // Round 2: recovery happens inside a fresh *subprocess*, which must
    // resume from the checkpointed prefix, not from scratch.
    let worker = Worker::spawn(&path);
    let resumed_at = worker.next_ckpt();
    assert!(
        resumed_at >= 3,
        "worker restarted from batch {resumed_at}, expected the recovered \
         prefix of >= 4 checkpointed batches"
    );
    while worker.next_ckpt() < resumed_at + 2 {}
    worker.kill();

    // Final recovery in *this* process (the worker no longer exists).
    let cfg = PoolConfig::builder()
        .size(64 << 20)
        .recovery_threads(2)
        .build()
        .expect("config");
    let (pool, recovered) = Pool::open(&path, cfg).expect("reopen pool");
    let report = recovered.expect("existing pool file must take the recovery path");
    assert!(report.failed_epoch >= 1);
    assert!(pool.verify().is_clean(), "pool integrity after SIGKILL x2");

    let map = POrderedMap::open(&pool, pool.root());
    let entries = map.collect_sorted();
    assert_eq!(
        entries.len() as u64 % BATCH,
        0,
        "partial batch survived the crash: {} entries",
        entries.len()
    );
    assert!(
        entries.len() as u64 >= (resumed_at + 2) * BATCH,
        "checkpointed batches lost: {} entries, saw batch {} reported",
        entries.len(),
        resumed_at + 2
    );
    for (i, &(k, v)) in entries.iter().enumerate() {
        assert_eq!(k, i as u64, "keys are the contiguous checkpointed prefix");
        assert_eq!(v, k * 7, "value payload intact after recovery");
    }

    drop(pool);
    let _ = std::fs::remove_file(&path);
}

/// `Pool::open` on a file no pool was ever committed to: `Pool::create`
/// writes and fences the magic last, so a zero magic word means the format
/// never completed — a create that failed, or a SIGKILL during the first
/// start — and the file must not be stranded as `NotAPool` forever.
#[test]
fn open_formats_a_file_whose_format_never_completed() {
    let dir = std::env::temp_dir().join(format!("respct_open_unformatted_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let cfg = |size| PoolConfig::builder().size(size).build().expect("config");
    let too_small = |got: Result<_, PoolError>| match got {
        Err(PoolError::RegionTooSmall { got: 4096, .. }) => {}
        other => panic!("expected RegionTooSmall, got {:?}", other.map(|_| ())),
    };

    // A file this call created is removed when formatting it fails, so a
    // retry at a usable size creates the pool…
    let path = dir.join("retry.pool");
    too_small(Pool::open(&path, cfg(4096)));
    assert!(!path.exists(), "the failed create left its file behind");
    let (pool, report) = Pool::open(&path, cfg(1 << 20)).expect("retry at a usable size");
    assert!(report.is_none(), "a fresh file took the recovery path");
    drop(pool);
    // …which a third open recovers.
    let (_, report) = Pool::open(&path, cfg(1 << 20)).expect("reopen");
    assert!(report.is_some(), "a formatted pool took the create path");

    // An all-zero file — what a kill during the first start leaves — is
    // formatted at its own size and is a working pool from then on.
    let path = dir.join("zero.pool");
    std::fs::write(&path, vec![0u8; 1 << 20]).expect("zero file");
    let (pool, report) = Pool::open(&path, cfg(64 << 20)).expect("format the all-zero file");
    assert!(report.is_none());
    assert_eq!(pool.region().size(), 1 << 20, "existing size wins");
    let h = pool.register();
    let cell = h.alloc_cell(41u64);
    h.checkpoint_here();
    h.update(cell, 99); // open epoch: rolls back
    drop(h);
    drop(pool);
    let (pool, report) = Pool::open(&path, cfg(64 << 20)).expect("reopen the formatted file");
    assert!(report.is_some());
    assert_eq!(pool.cell_get(cell), 41);
    drop(pool);

    // A kill in the middle of `Pool::create` leaves header words stored
    // under a zero magic; whatever they hold, the format starts over.
    let path = dir.join("partial.pool");
    drop(Pool::open(&path, cfg(1 << 20)).expect("format"));
    let mut bytes = std::fs::read(&path).expect("read pool file");
    bytes[..8].fill(0);
    for cell in [OFF_BUMP.0, slot_base(1).0 + SLOT_ALLOC_CUR] {
        bytes[cell as usize..][..U64_CELL_SLOT as usize].fill(0xA5);
    }
    std::fs::write(&path, &bytes).expect("write partial header");
    let (pool, report) = Pool::open(&path, cfg(1 << 20)).expect("format over the partial header");
    assert!(report.is_none(), "a zero magic took the recovery path");
    let h = pool.register();
    let cell = h.alloc_cell(7u64);
    h.checkpoint_here();
    drop(h);
    drop(pool);
    let (pool, report) = Pool::open(&path, cfg(1 << 20)).expect("reopen");
    assert!(report.is_some());
    assert_eq!(pool.cell_get(cell), 7);
    drop(pool);

    // An empty file holds nothing to lose: it counts as created by this
    // call, failed format included.
    let path = dir.join("empty.pool");
    std::fs::write(&path, []).expect("empty file");
    too_small(Pool::open(&path, cfg(4096)));
    assert!(
        !path.exists(),
        "the failed create left the empty file sized"
    );

    // A too-small one still fails, typed — and is not ours to delete.
    let path = dir.join("zero_small.pool");
    std::fs::write(&path, vec![0u8; 4096]).expect("small zero file");
    too_small(Pool::open(&path, cfg(1 << 20)));
    assert!(path.exists(), "a pre-existing file was deleted");

    // Any other magic is somebody else's file: never a silent reformat.
    let path = dir.join("foreign.pool");
    let mut foreign = vec![0u8; 1 << 20];
    foreign[..8].copy_from_slice(b"NOTAPOOL");
    std::fs::write(&path, &foreign).expect("foreign file");
    assert_eq!(
        Pool::open(&path, cfg(1 << 20)).map(|_| ()),
        Err(PoolError::NotAPool)
    );
    assert_eq!(std::fs::read(&path).expect("read back"), foreign);

    let _ = std::fs::remove_dir_all(&dir);
}
