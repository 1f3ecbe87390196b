//! Monte-Carlo swaption pricing (Parsec Swaptions, paper §5.3).
//!
//! A lockless data-parallel workload: each thread owns a set of swaptions
//! and prices each by simulating `trials` interest-rate paths. Under
//! ResPCT the per-swaption accumulators (sum of discounted payoffs) and
//! each worker's trial cursor are persistent; as in the paper's experience,
//! RPs go after a *batch* of trials — the naive per-trial placement is
//! measurably slower (the paper saw 4×) and is available via `batch = 1`
//! for the ablation benchmark.

use std::sync::Arc;
use std::time::{Duration, Instant};

use respct::{Pool, RpId};
use respct_pmem::Region;

use crate::Mode;

/// RP base: worker `t` declares `RP_TRIAL_DONE.offset(t)` after each batch.
const RP_TRIAL_DONE: RpId = RpId(400);

/// Configuration for one pricing run.
#[derive(Debug, Clone, Copy)]
pub struct SwaptionsConfig {
    /// Number of swaptions to price.
    pub nswaptions: usize,
    /// Monte-Carlo trials per swaption.
    pub trials: usize,
    pub threads: usize,
    pub mode: Mode,
    /// Trials between consecutive RPs.
    pub batch: usize,
    pub ckpt_period: Duration,
}

impl Default for SwaptionsConfig {
    fn default() -> Self {
        SwaptionsConfig {
            nswaptions: 16,
            trials: 2_000,
            threads: 2,
            mode: Mode::TransientDram,
            batch: 500,
            ckpt_period: Duration::from_millis(64),
        }
    }
}

/// Result of a run.
#[derive(Debug, Clone)]
pub struct SwaptionsOutput {
    pub duration: Duration,
    /// Price per swaption (verification across modes).
    pub prices: Vec<f64>,
}

/// Deterministic pseudo-normal increment for (swaption, trial, step).
#[inline]
fn gauss(sw: usize, trial: usize, step: usize) -> f64 {
    // Two xorshift-mixed uniforms → Irwin-Hall(2) centered: cheap,
    // deterministic, good enough for a pricing kernel's arithmetic profile.
    let mut h = (sw as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((trial as u64) << 20)
        .wrapping_add(step as u64);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    let u1 = (h & 0xffff_ffff) as f64 / u32::MAX as f64;
    let u2 = (h >> 32) as f64 / u32::MAX as f64;
    u1 + u2 - 1.0
}

/// One simulated discounted payoff.
#[inline]
fn payoff(sw: usize, trial: usize) -> f64 {
    let strike = 0.04 + (sw % 8) as f64 * 0.005;
    let mut rate: f64 = 0.05;
    const STEPS: usize = 16;
    for step in 0..STEPS {
        rate += 0.002 * gauss(sw, trial, step);
        rate = rate.max(0.0001);
    }
    let v = (rate - strike).max(0.0) * 100.0;
    v * (-rate * 5.0).exp()
}

/// Runs the pricing in the configured mode.
pub fn run(cfg: SwaptionsConfig) -> SwaptionsOutput {
    match cfg.mode {
        Mode::TransientDram | Mode::TransientNvmm => run_transient(cfg),
        Mode::Respct => run_respct(cfg, None),
    }
}

fn run_transient(cfg: SwaptionsConfig) -> SwaptionsOutput {
    // Swaptions is compute-bound with a tiny working set; the paper's
    // NVMM variant differs only marginally, which we model by streaming
    // accumulator updates through a region in NVMM mode.
    let region = (cfg.mode == Mode::TransientNvmm)
        .then(|| Region::new(crate::backend::transient_nvmm_config(1 << 20)));
    let t0 = Instant::now();
    let per = cfg.nswaptions.div_ceil(cfg.threads);
    let prices: Vec<f64> = std::thread::scope(|s| {
        let mut joins = Vec::new();
        for t in 0..cfg.threads {
            let region = region.clone();
            joins.push(s.spawn(move || {
                let lo = t * per;
                let hi = ((t + 1) * per).min(cfg.nswaptions);
                let mut out = Vec::new();
                for sw in lo..hi {
                    let mut sum = 0.0;
                    for trial in 0..cfg.trials {
                        sum += payoff(sw, trial);
                        if let Some(r) = &region {
                            r.store(respct_pmem::PAddr(64 + (t as u64) * 64), sum);
                        }
                    }
                    out.push((sw, sum / cfg.trials as f64));
                }
                out
            }));
        }
        let mut all: Vec<(usize, f64)> = joins
            .into_iter()
            .flat_map(|j| j.join().expect("worker"))
            .collect();
        all.sort_by_key(|&(sw, _)| sw);
        all.into_iter().map(|(_, p)| p).collect()
    });
    SwaptionsOutput {
        duration: t0.elapsed(),
        prices,
    }
}

/// Runs the ResPCT mode with `sink` attached to the region before any
/// pool traffic — the analysis hook for the trace checker.
pub fn run_traced(cfg: SwaptionsConfig, sink: Arc<dyn respct_pmem::TraceSink>) -> SwaptionsOutput {
    run_respct(cfg, Some(sink))
}

fn run_respct(
    cfg: SwaptionsConfig,
    sink: Option<Arc<dyn respct_pmem::TraceSink>>,
) -> SwaptionsOutput {
    let region = Region::new(crate::backend::nvmm_config(64 << 20));
    if let Some(sink) = sink {
        region.set_trace_sink(sink);
    }
    let pool = Pool::create(Arc::clone(&region), crate::backend::pool_config()).expect("pool");
    let _ckpt = pool.start_checkpointer(cfg.ckpt_period);
    let t0 = Instant::now();
    let per = cfg.nswaptions.div_ceil(cfg.threads);
    let prices: Vec<f64> = std::thread::scope(|s| {
        let mut joins = Vec::new();
        for t in 0..cfg.threads {
            let pool = Arc::clone(&pool);
            joins.push(s.spawn(move || {
                let h = pool.register();
                let lo = t * per;
                let hi = ((t + 1) * per).min(cfg.nswaptions);
                let mut out = Vec::new();
                for sw in lo..hi {
                    // Persistent accumulator + cursor for this swaption.
                    let sum_cell = h.alloc_cell(0.0f64);
                    let cursor = h.alloc_cell(0u64);
                    let mut trial = h.get(cursor) as usize;
                    while trial < cfg.trials {
                        let end = (trial + cfg.batch).min(cfg.trials);
                        let mut local = 0.0;
                        for tr in trial..end {
                            local += payoff(sw, tr);
                        }
                        h.update(sum_cell, h.get(sum_cell) + local);
                        h.update(cursor, end as u64);
                        h.rp(RP_TRIAL_DONE.offset(t as u64));
                        trial = end;
                    }
                    out.push((sw, h.get(sum_cell) / cfg.trials as f64));
                }
                out
            }));
        }
        let mut all: Vec<(usize, f64)> = joins
            .into_iter()
            .flat_map(|j| j.join().expect("worker"))
            .collect();
        all.sort_by_key(|&(sw, _)| sw);
        all.into_iter().map(|(_, p)| p).collect()
    });
    SwaptionsOutput {
        duration: t0.elapsed(),
        prices,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_modes_agree() {
        let base = SwaptionsConfig {
            nswaptions: 6,
            trials: 400,
            threads: 2,
            ..Default::default()
        };
        let reference = run(SwaptionsConfig {
            mode: Mode::TransientDram,
            ..base
        });
        for mode in [Mode::TransientNvmm, Mode::Respct] {
            let out = run(SwaptionsConfig { mode, ..base });
            assert_eq!(out.prices.len(), reference.prices.len());
            for (a, b) in out.prices.iter().zip(&reference.prices) {
                assert!((a - b).abs() < 1e-9, "{mode:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn prices_are_positive_and_strike_ordered() {
        let out = run(SwaptionsConfig {
            nswaptions: 8,
            trials: 800,
            ..Default::default()
        });
        for p in &out.prices {
            assert!(*p >= 0.0);
        }
        // Higher strike ⇒ lower price (within the same deterministic noise).
        assert!(out.prices[0] > out.prices[7]);
    }
}
