//! Word count (Phoenix's flagship MapReduce benchmark).
//!
//! The Phoenix suite the paper samples from (§5.3) is built around
//! MapReduce kernels; word count is its canonical member and exercises a
//! different ResPCT pattern than LR/MatMul: a *shared* persistent hash map
//! (word → count) updated under per-bucket locks by all mappers, combined
//! with per-thread persistent progress cursors. Counts are
//! read-modify-write shared variables (WAR under locks) → the map's InCLL
//! value cells; cursors are per-thread InCLL cells; RPs follow each input
//! block.

use std::sync::Arc;
use std::time::{Duration, Instant};

use respct::{Pool, RpId};
use respct_ds::{PHashMap, TransientHashMap};
use respct_pmem::Region;

use crate::Mode;

/// RP base: worker `t` declares `RP_BLOCK_DONE.offset(t)` per text block.
const RP_BLOCK_DONE: RpId = RpId(700);

/// Configuration for one word-count run.
#[derive(Debug, Clone, Copy)]
pub struct WordCountConfig {
    /// Number of synthetic "documents" (input blocks).
    pub blocks: usize,
    /// Words per block.
    pub words_per_block: usize,
    /// Vocabulary size (distinct words, as integer ids).
    pub vocab: u64,
    pub threads: usize,
    pub mode: Mode,
    pub ckpt_period: Duration,
}

impl Default for WordCountConfig {
    fn default() -> Self {
        WordCountConfig {
            blocks: 200,
            words_per_block: 500,
            vocab: 1_000,
            threads: 2,
            mode: Mode::TransientDram,
            ckpt_period: Duration::from_millis(64),
        }
    }
}

/// Result of a run.
#[derive(Debug, Clone)]
pub struct WordCountOutput {
    pub duration: Duration,
    /// Total words counted (Σ counts).
    pub total: u64,
    /// Count of word 0 (spot verification).
    pub count_word0: u64,
}

/// Deterministic word id for position `w` of block `b` — zipf-ish skew so
/// hot words contend on their buckets like real text.
#[inline]
fn word_at(b: usize, w: usize, vocab: u64) -> u64 {
    let mut x = (b as u64) << 32 | w as u64;
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    // Square the uniform to skew toward small ids.
    let u = (x % 1_000_000) as f64 / 1_000_000.0;
    ((u * u) * vocab as f64) as u64 % vocab
}

/// Runs word count in the configured mode.
pub fn run(cfg: WordCountConfig) -> WordCountOutput {
    match cfg.mode {
        Mode::TransientDram | Mode::TransientNvmm => run_transient(cfg),
        Mode::Respct => run_respct(cfg, None),
    }
}

fn run_transient(cfg: WordCountConfig) -> WordCountOutput {
    // NVMM-mode tax: stream counts through an Optane-latency region.
    let tax = (cfg.mode == Mode::TransientNvmm)
        .then(|| Region::new(crate::backend::transient_nvmm_config(1 << 20)));
    let map = TransientHashMap::new((cfg.vocab / 2).max(8) as usize);
    let per = cfg.blocks.div_ceil(cfg.threads);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..cfg.threads {
            let map = &map;
            let tax = tax.clone();
            s.spawn(move || {
                let lo = t * per;
                let hi = ((t + 1) * per).min(cfg.blocks);
                for b in lo..hi {
                    for w in 0..cfg.words_per_block {
                        let word = word_at(b, w, cfg.vocab);
                        let cur = map.fetch_add(word, 1);
                        if let Some(r) = &tax {
                            r.store(respct_pmem::PAddr(64 + (t as u64) * 64), cur);
                        }
                    }
                }
            });
        }
    });
    finish(t0, |word| map.get(word).unwrap_or(0), cfg.vocab)
}

/// Runs the ResPCT mode with `sink` attached to the region before any
/// pool traffic — the analysis hook for the trace checker.
pub fn run_traced(cfg: WordCountConfig, sink: Arc<dyn respct_pmem::TraceSink>) -> WordCountOutput {
    run_respct(cfg, Some(sink))
}

fn run_respct(
    cfg: WordCountConfig,
    sink: Option<Arc<dyn respct_pmem::TraceSink>>,
) -> WordCountOutput {
    let region = Region::new(crate::backend::nvmm_config(256 << 20));
    if let Some(sink) = sink {
        region.set_trace_sink(sink);
    }
    let pool = Pool::create(Arc::clone(&region), crate::backend::pool_config()).expect("pool");
    let map = {
        let h = pool.register();
        let m = PHashMap::create(&h, (cfg.vocab / 2).max(8));
        h.set_root(m.desc());
        m
    };
    let map = Arc::new(map);
    let _ckpt = pool.start_checkpointer(cfg.ckpt_period);
    let per = cfg.blocks.div_ceil(cfg.threads);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..cfg.threads {
            let (pool, map) = (Arc::clone(&pool), Arc::clone(&map));
            s.spawn(move || {
                let h = pool.register();
                let lo = t * per;
                let hi = ((t + 1) * per).min(cfg.blocks);
                // Persistent cursor: blocks completed by this thread.
                let cursor = h.alloc_cell(lo as u64);
                let start = h.get(cursor) as usize;
                for b in start..hi {
                    for w in 0..cfg.words_per_block {
                        let word = word_at(b, w, cfg.vocab);
                        // Read-modify-write under a single bucket-lock
                        // hold: the value cell is InCLL, so the increment
                        // is logged once per epoch and never flushed.
                        map.fetch_add(&h, word, 1);
                    }
                    // Block finished: advance the cursor, declare an RP.
                    h.update(cursor, (b + 1) as u64);
                    h.rp(RP_BLOCK_DONE.offset(t as u64));
                }
            });
        }
    });
    let h = pool.register();
    finish(t0, |word| map.get(&h, word).unwrap_or(0), cfg.vocab)
}

fn finish(t0: Instant, get: impl Fn(u64) -> u64, vocab: u64) -> WordCountOutput {
    let duration = t0.elapsed();
    let mut total = 0;
    for word in 0..vocab {
        total += get(word);
    }
    WordCountOutput {
        duration,
        total,
        count_word0: get(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_every_word_once() {
        let cfg = WordCountConfig {
            blocks: 50,
            words_per_block: 200,
            ..Default::default()
        };
        let out = run(cfg);
        assert_eq!(out.total, 50 * 200);
    }

    #[test]
    fn all_modes_agree() {
        let base = WordCountConfig {
            blocks: 40,
            words_per_block: 100,
            vocab: 200,
            threads: 2,
            ckpt_period: Duration::from_millis(4),
            ..Default::default()
        };
        let reference = run(WordCountConfig {
            mode: Mode::TransientDram,
            ..base
        });
        for mode in [Mode::TransientNvmm, Mode::Respct] {
            let out = run(WordCountConfig { mode, ..base });
            assert_eq!(out.total, reference.total, "{mode:?}");
            assert_eq!(out.count_word0, reference.count_word0, "{mode:?}");
        }
    }

    #[test]
    fn word_distribution_is_skewed() {
        let mut counts = vec![0u32; 100];
        for b in 0..100 {
            for w in 0..100 {
                counts[(word_at(b, w, 100)) as usize] += 1;
            }
        }
        assert!(counts[0] + counts[1] > counts[98] + counts[99]);
    }
}
