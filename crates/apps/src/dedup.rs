//! Deduplication pipeline (Parsec Dedup, paper §5.3).
//!
//! A four-stage pipeline — chunk → hash → compress → store — connected by
//! bounded queues that use condition variables, the workload the paper
//! selects precisely because it exercises the condvar protocol of §3.3.3:
//! every queue wait is bracketed by `checkpoint_allow` / and the
//! re-locking `checkpoint_prevent`, with an RP immediately before each
//! critical-section entrance.
//!
//! The persistent state is the dedup store: a hash map from chunk
//! fingerprint to reference count, plus a running total of unique
//! compressed bytes. The pipeline queues themselves are volatile (in-flight
//! chunks are re-chunked from the input after a crash).

use std::sync::atomic::{AtomicUsize, Ordering};

use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use respct::{Pool, RpId, ThreadHandle};
use respct_baselines::NvmmHashMap;
use respct_ds::traits::BenchMap;
use respct_ds::{PHashMap, TransientHashMap};
use respct_pmem::Region;

use crate::Mode;

/// RP ids, one per static wait/progress site (channel bases leave room for
/// the paired `pop` id at base + 1).
const RP_CHAN_HASH: RpId = RpId(500);
const RP_CHAN_COMP: RpId = RpId(510);
const RP_CHAN_STORE: RpId = RpId(520);
const RP_DEDUP_STAGE: RpId = RpId(530);

/// Configuration for one pipeline run.
#[derive(Debug, Clone, Copy)]
pub struct DedupConfig {
    /// Total chunks streamed through the pipeline.
    pub chunks: usize,
    /// Distinct chunk contents (duplicates = chunks - unique).
    pub unique: usize,
    /// Bytes per chunk.
    pub chunk_size: usize,
    /// Hasher threads.
    pub hashers: usize,
    /// Compressor threads.
    pub compressors: usize,
    pub mode: Mode,
    pub ckpt_period: Duration,
}

impl Default for DedupConfig {
    fn default() -> Self {
        DedupConfig {
            chunks: 2_000,
            unique: 500,
            chunk_size: 1024,
            hashers: 2,
            compressors: 2,
            mode: Mode::TransientDram,
            ckpt_period: Duration::from_millis(64),
        }
    }
}

/// Result of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DedupOutput {
    pub duration_us: u128,
    pub chunks: usize,
    pub unique_stored: usize,
    pub compressed_bytes: u64,
}

// ---- Checkpoint-aware bounded channel ---------------------------------------

struct ChanState<T> {
    q: std::collections::VecDeque<T>,
    closed: bool,
}

/// Bounded MPMC channel whose blocking waits follow the paper's condvar
/// protocol when a [`ThreadHandle`] is supplied.
struct Chan<T> {
    state: Mutex<ChanState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: usize,
    /// Unique RP id for waits on this channel.
    rp_id: RpId,
}

impl<T> Chan<T> {
    fn new(cap: usize, rp_id: RpId) -> Chan<T> {
        Chan {
            state: Mutex::new(ChanState {
                q: std::collections::VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap,
            rp_id,
        }
    }

    fn wait<'a>(
        &'a self,
        h: Option<&mut ThreadHandle>,
        cv: &Condvar,
        mut guard: parking_lot::MutexGuard<'a, ChanState<T>>,
    ) -> parking_lot::MutexGuard<'a, ChanState<T>> {
        match h {
            Some(h) => {
                // §3.3.3: allow checkpoints while blocked; on wake-up, wait
                // out any in-flight checkpoint (releasing the lock).
                let allow = h.allow_checkpoints();
                cv.wait(&mut guard);
                allow.rearm_locked(&self.state, guard)
            }
            None => {
                cv.wait(&mut guard);
                guard
            }
        }
    }

    fn push(&self, mut h: Option<&mut ThreadHandle>, v: T) {
        // RP immediately before the critical-section entrance (§3.3.3).
        if let Some(h) = h.as_deref() {
            h.rp(self.rp_id);
        }
        let mut guard = self.state.lock();
        while guard.q.len() >= self.cap {
            guard = self.wait(h.as_deref_mut(), &self.not_full, guard);
        }
        guard.q.push_back(v);
        drop(guard);
        self.not_empty.notify_one();
    }

    fn pop(&self, mut h: Option<&mut ThreadHandle>) -> Option<T> {
        if let Some(h) = h.as_deref() {
            h.rp(self.rp_id.offset(1));
        }
        let mut guard = self.state.lock();
        loop {
            if let Some(v) = guard.q.pop_front() {
                drop(guard);
                self.not_full.notify_one();
                return Some(v);
            }
            if guard.closed {
                return None;
            }
            guard = self.wait(h.as_deref_mut(), &self.not_empty, guard);
        }
    }

    fn close(&self) {
        self.state.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

// ---- Synthetic input ---------------------------------------------------------

/// Deterministic, RLE-friendly chunk content for content id `cid`.
fn chunk_bytes(cid: usize, size: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(size);
    let mut x = (cid as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    while out.len() < size {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let byte = (x >> 16) as u8;
        let run = 1 + ((x >> 40) % 32) as usize;
        for _ in 0..run.min(size - out.len()) {
            out.push(byte);
        }
    }
    out
}

fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Run-length "compression": returns the encoded size.
fn rle_size(data: &[u8]) -> u64 {
    let mut size = 0u64;
    let mut i = 0;
    while i < data.len() {
        let b = data[i];
        let mut j = i + 1;
        while j < data.len() && data[j] == b && j - i < 255 {
            j += 1;
        }
        size += 2;
        i = j;
    }
    size
}

// ---- Store (persistent state) -------------------------------------------------

enum Store {
    Dram(TransientHashMap, std::sync::atomic::AtomicU64),
    Nvmm {
        map: NvmmHashMap,
        bytes: std::sync::atomic::AtomicU64,
    },
    Respct {
        map: PHashMap,
        bytes_cell: respct::ICell<u64>,
    },
}

// ---- The pipeline --------------------------------------------------------------

/// Runs the dedup pipeline in the configured mode.
pub fn run(cfg: DedupConfig) -> DedupOutput {
    run_inner(cfg, None)
}

/// Runs the pipeline in ResPCT mode with `sink` attached to the region
/// before any pool traffic — the analysis hook for the trace checker.
pub fn run_traced(
    cfg: DedupConfig,
    sink: std::sync::Arc<dyn respct_pmem::TraceSink>,
) -> DedupOutput {
    assert_eq!(cfg.mode, Mode::Respct, "run_traced is ResPCT-only");
    run_inner(cfg, Some(sink))
}

fn run_inner(
    cfg: DedupConfig,
    mut sink: Option<std::sync::Arc<dyn respct_pmem::TraceSink>>,
) -> DedupOutput {
    assert!(cfg.unique >= 1 && cfg.unique <= cfg.chunks);
    let (pool, store) = match cfg.mode {
        Mode::TransientDram => (
            None,
            Store::Dram(
                TransientHashMap::new(4096),
                std::sync::atomic::AtomicU64::new(0),
            ),
        ),
        Mode::TransientNvmm => {
            let region = Region::new(crate::backend::transient_nvmm_config(64 << 20));
            (
                None,
                Store::Nvmm {
                    map: NvmmHashMap::new(region, 4096),
                    bytes: std::sync::atomic::AtomicU64::new(0),
                },
            )
        }
        Mode::Respct => {
            let region = Region::new(crate::backend::nvmm_config(128 << 20));
            if let Some(sink) = sink.take() {
                region.set_trace_sink(sink);
            }
            let pool = Pool::create(region, crate::backend::pool_config()).expect("pool");
            let h = pool.register();
            let map = PHashMap::create(&h, 4096);
            let bytes_cell = h.alloc_cell(0u64);
            h.set_root(map.desc());
            drop(h);
            (Some(pool), Store::Respct { map, bytes_cell })
        }
    };
    let _ckpt = pool.as_ref().map(|p| p.start_checkpointer(cfg.ckpt_period));

    let chan_hash: Chan<usize> = Chan::new(256, RP_CHAN_HASH);
    let chan_comp: Chan<(usize, u64)> = Chan::new(256, RP_CHAN_COMP);
    let chan_store: Chan<(u64, u64)> = Chan::new(256, RP_CHAN_STORE);
    let hashers_left = AtomicUsize::new(cfg.hashers);
    let comps_left = AtomicUsize::new(cfg.compressors);
    let unique_stored = AtomicUsize::new(0);
    let store = &store;

    let t0 = Instant::now();
    std::thread::scope(|s| {
        let (ch, cc, cs) = (&chan_hash, &chan_comp, &chan_store);
        let (hl, cl, us) = (&hashers_left, &comps_left, &unique_stored);
        // Stage 1: chunker.
        {
            let pool = pool.clone();
            s.spawn(move || {
                let mut h = pool.as_ref().map(respct::Pool::register);
                for cid in 0..cfg.chunks {
                    ch.push(h.as_mut(), cid);
                }
                ch.close();
            });
        }
        // Stage 2: hashers.
        for _ in 0..cfg.hashers {
            let pool = pool.clone();
            s.spawn(move || {
                let mut h = pool.as_ref().map(respct::Pool::register);
                while let Some(cid) = ch.pop(h.as_mut()) {
                    let content = cid % cfg.unique;
                    let data = chunk_bytes(content, cfg.chunk_size);
                    cc.push(h.as_mut(), (cid, fnv1a(&data)));
                }
                if hl.fetch_sub(1, Ordering::SeqCst) == 1 {
                    cc.close();
                }
            });
        }
        // Stage 3: compressors.
        for _ in 0..cfg.compressors {
            let pool = pool.clone();
            s.spawn(move || {
                let mut h = pool.as_ref().map(respct::Pool::register);
                while let Some((cid, hash)) = cc.pop(h.as_mut()) {
                    let content = cid % cfg.unique;
                    let data = chunk_bytes(content, cfg.chunk_size);
                    cs.push(h.as_mut(), (hash, rle_size(&data)));
                }
                if cl.fetch_sub(1, Ordering::SeqCst) == 1 {
                    cs.close();
                }
            });
        }
        // Stage 4: writer (owns the persistent state).
        {
            let pool = pool.clone();
            s.spawn(move || {
                let mut h = pool.as_ref().map(respct::Pool::register);
                let mut nvctx = match store {
                    Store::Nvmm { map, .. } => Some(map.register()),
                    _ => None,
                };
                while let Some((hash, csize)) = cs.pop(h.as_mut()) {
                    let new = match store {
                        Store::Dram(map, bytes) => {
                            let new = map.insert(hash, 1);
                            if new {
                                bytes.fetch_add(csize, Ordering::Relaxed);
                            }
                            new
                        }
                        Store::Nvmm { map, bytes } => {
                            let ctx = nvctx.as_mut().expect("nvmm writer has a context");
                            let new = map.insert(ctx, hash, 0);
                            if new {
                                bytes.fetch_add(csize, Ordering::Relaxed);
                            }
                            new
                        }
                        Store::Respct { map, bytes_cell } => {
                            let hh = h.as_ref().expect("respct writer has a handle");
                            let new = map.insert(hh, hash, 1);
                            if new {
                                hh.update(*bytes_cell, hh.get(*bytes_cell) + csize);
                            }
                            hh.rp(RP_DEDUP_STAGE);
                            new
                        }
                    };
                    if new {
                        us.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
    });
    let duration = t0.elapsed();
    let compressed_bytes = match store {
        Store::Dram(_, bytes) | Store::Nvmm { bytes, .. } => bytes.load(Ordering::SeqCst),
        Store::Respct { bytes_cell, .. } => pool.as_ref().expect("pool").cell_get(*bytes_cell),
    };
    DedupOutput {
        duration_us: duration.as_micros(),
        chunks: cfg.chunks,
        unique_stored: unique_stored.load(Ordering::SeqCst),
        compressed_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rle_roundtrip_size_sane() {
        let data = chunk_bytes(3, 1024);
        let size = rle_size(&data);
        assert!(size < 1024, "synthetic chunks must be compressible: {size}");
        assert!(size > 0);
    }

    #[test]
    fn dedup_counts_unique_contents() {
        let out = run(DedupConfig {
            chunks: 400,
            unique: 100,
            ..Default::default()
        });
        assert_eq!(out.unique_stored, 100);
        assert_eq!(out.chunks, 400);
    }

    #[test]
    fn all_modes_agree() {
        let base = DedupConfig {
            chunks: 300,
            unique: 80,
            chunk_size: 512,
            ckpt_period: Duration::from_millis(4),
            ..Default::default()
        };
        let reference = run(DedupConfig {
            mode: Mode::TransientDram,
            ..base
        });
        for mode in [Mode::TransientNvmm, Mode::Respct] {
            let out = run(DedupConfig { mode, ..base });
            assert_eq!(out.unique_stored, reference.unique_stored, "{mode:?}");
            assert_eq!(out.compressed_bytes, reference.compressed_bytes, "{mode:?}");
        }
    }

    #[test]
    fn single_stage_threads() {
        let out = run(DedupConfig {
            chunks: 100,
            unique: 100,
            hashers: 1,
            compressors: 1,
            mode: Mode::Respct,
            ckpt_period: Duration::from_millis(2),
            ..Default::default()
        });
        assert_eq!(out.unique_stored, 100);
    }
}
