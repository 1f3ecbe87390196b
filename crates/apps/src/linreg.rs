//! Linear regression (Phoenix LR, paper §5.3).
//!
//! Each thread scans a partition of the input points and maintains five
//! running sums (Σx, Σy, Σxx, Σyy, Σxy). The sums are read *and* written
//! between restart points — textbook WAR variables — so under ResPCT they
//! are InCLL cells, together with a per-thread progress cursor.
//!
//! This module also reproduces the paper's **RP-placement ablation**
//! (§5.3 "Positioning RPs"): with `batch = 1` an RP (and five
//! `update_InCLL` calls) follows *every point*, which the paper measured at
//! a ~9× slowdown; with `batch = 1000` the sums are accumulated in
//! registers and flushed to their cells once per batch, dropping the
//! overhead to ~20 %.

use std::sync::Arc;
use std::time::{Duration, Instant};

use respct::{Pool, RpId};
use respct_pmem::{Region, RegionConfig};

use crate::Mode;

/// RP base: worker `t` declares `RP_CHUNK_DONE.offset(t)` per chunk.
const RP_CHUNK_DONE: RpId = RpId(300);

/// Configuration for one linear-regression run.
#[derive(Debug, Clone, Copy)]
pub struct LinregConfig {
    pub npoints: usize,
    pub threads: usize,
    pub mode: Mode,
    /// Points processed between consecutive RPs (1 = the naive placement).
    pub batch: usize,
    pub ckpt_period: Duration,
}

impl Default for LinregConfig {
    fn default() -> Self {
        LinregConfig {
            npoints: 100_000,
            threads: 2,
            mode: Mode::TransientDram,
            batch: 1000,
            ckpt_period: Duration::from_millis(64),
        }
    }
}

/// Result of a run.
#[derive(Debug, Clone, Copy)]
pub struct LinregOutput {
    pub duration: Duration,
    pub slope: f64,
    pub intercept: f64,
}

/// Deterministic input point `i`.
#[inline]
fn point(i: usize) -> (f64, f64) {
    let x = (i % 10_000) as f64 * 0.01;
    // y = 3x + 7 plus deterministic "noise".
    let noise = (((i * 2_654_435_761) >> 16) & 0xff) as f64 / 256.0 - 0.5;
    (x, 3.0 * x + 7.0 + noise)
}

#[derive(Default, Clone, Copy)]
struct Sums {
    sx: f64,
    sy: f64,
    sxx: f64,
    sxy: f64,
    n: f64,
}

impl Sums {
    #[inline]
    fn add(&mut self, x: f64, y: f64) {
        self.sx += x;
        self.sy += y;
        self.sxx += x * x;
        self.sxy += x * y;
        self.n += 1.0;
    }

    fn merge(&mut self, o: Sums) {
        self.sx += o.sx;
        self.sy += o.sy;
        self.sxx += o.sxx;
        self.sxy += o.sxy;
        self.n += o.n;
    }

    fn solve(&self) -> (f64, f64) {
        let slope =
            (self.n * self.sxy - self.sx * self.sy) / (self.n * self.sxx - self.sx * self.sx);
        let intercept = (self.sy - slope * self.sx) / self.n;
        (slope, intercept)
    }
}

/// Runs linear regression in the configured mode.
pub fn run(cfg: LinregConfig) -> LinregOutput {
    assert!(cfg.batch >= 1);
    match cfg.mode {
        Mode::TransientDram => run_transient(cfg, false),
        Mode::TransientNvmm => run_transient(cfg, true),
        Mode::Respct => run_respct(cfg, None),
    }
}

fn run_transient(cfg: LinregConfig, nvmm_tax: bool) -> LinregOutput {
    // The transient program keeps its sums in registers; the NVMM variant
    // charges the media tax by streaming the points through a region.
    let region = nvmm_tax.then(|| Region::new(RegionConfig::optane(1 << 20)));
    let per = cfg.npoints.div_ceil(cfg.threads);
    let t0 = Instant::now();
    let mut total = Sums::default();
    let parts: Vec<Sums> = std::thread::scope(|s| {
        let mut joins = Vec::new();
        for t in 0..cfg.threads {
            let region = region.clone();
            joins.push(s.spawn(move || {
                let lo = t * per;
                let hi = ((t + 1) * per).min(cfg.npoints);
                let mut sums = Sums::default();
                let mut scratch = 0.0;
                for i in lo..hi {
                    let (x, y) = point(i);
                    sums.add(x, y);
                    scratch += x + y;
                    if let Some(r) = &region {
                        // Model the slower medium lightly: the running sums
                        // live in NVMM but are cache-resident; charge an
                        // occasional media event rather than one per point.
                        if i % 64 == 0 {
                            r.store(respct_pmem::PAddr(64 + (t as u64 * 64)), scratch);
                        }
                    }
                }
                sums
            }));
        }
        joins
            .into_iter()
            .map(|j| j.join().expect("linreg worker"))
            .collect()
    });
    for p in parts {
        total.merge(p);
    }
    let (slope, intercept) = total.solve();
    LinregOutput {
        duration: t0.elapsed(),
        slope,
        intercept,
    }
}

/// Runs the ResPCT mode with `sink` attached to the region before any
/// pool traffic — the analysis hook for the trace checker.
pub fn run_traced(cfg: LinregConfig, sink: Arc<dyn respct_pmem::TraceSink>) -> LinregOutput {
    run_respct(cfg, Some(sink))
}

fn run_respct(cfg: LinregConfig, sink: Option<Arc<dyn respct_pmem::TraceSink>>) -> LinregOutput {
    let region = Region::new(crate::backend::nvmm_config(64 << 20));
    if let Some(sink) = sink {
        region.set_trace_sink(sink);
    }
    let pool = Pool::create(Arc::clone(&region), crate::backend::pool_config()).expect("pool");
    let _ckpt = pool.start_checkpointer(cfg.ckpt_period);
    let per = cfg.npoints.div_ceil(cfg.threads);
    let t0 = Instant::now();
    let parts: Vec<Sums> = std::thread::scope(|s| {
        let mut joins = Vec::new();
        for t in 0..cfg.threads {
            let pool = Arc::clone(&pool);
            joins.push(s.spawn(move || {
                let h = pool.register();
                let lo = t * per;
                let hi = ((t + 1) * per).min(cfg.npoints);
                // Persistent per-thread state: five sums + progress (WAR →
                // InCLL, per §3.3.2).
                let c_sx = h.alloc_cell(0.0f64);
                let c_sy = h.alloc_cell(0.0f64);
                let c_sxx = h.alloc_cell(0.0f64);
                let c_sxy = h.alloc_cell(0.0f64);
                let c_n = h.alloc_cell(0.0f64);
                let progress = h.alloc_cell(lo as u64);
                let mut i = h.get(progress) as usize;
                while i < hi {
                    let end = (i + cfg.batch).min(hi);
                    // Accumulate the batch locally…
                    let mut local = Sums::default();
                    for p in i..end {
                        let (x, y) = point(p);
                        local.add(x, y);
                    }
                    // …then publish to the persistent sums (one
                    // update_InCLL per variable per batch) and declare an RP.
                    h.update(c_sx, h.get(c_sx) + local.sx);
                    h.update(c_sy, h.get(c_sy) + local.sy);
                    h.update(c_sxx, h.get(c_sxx) + local.sxx);
                    h.update(c_sxy, h.get(c_sxy) + local.sxy);
                    h.update(c_n, h.get(c_n) + local.n);
                    h.update(progress, end as u64);
                    h.rp(RP_CHUNK_DONE.offset(t as u64));
                    i = end;
                }
                Sums {
                    sx: h.get(c_sx),
                    sy: h.get(c_sy),
                    sxx: h.get(c_sxx),
                    sxy: h.get(c_sxy),
                    n: h.get(c_n),
                }
            }));
        }
        joins
            .into_iter()
            .map(|j| j.join().expect("linreg worker"))
            .collect()
    });
    let mut total = Sums::default();
    for p in parts {
        total.merge(p);
    }
    let (slope, intercept) = total.solve();
    LinregOutput {
        duration: t0.elapsed(),
        slope,
        intercept,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_known_line() {
        let out = run(LinregConfig {
            npoints: 50_000,
            ..Default::default()
        });
        assert!((out.slope - 3.0).abs() < 0.05, "slope {}", out.slope);
        assert!(
            (out.intercept - 7.0).abs() < 0.2,
            "intercept {}",
            out.intercept
        );
    }

    #[test]
    fn all_modes_agree() {
        let base = LinregConfig {
            npoints: 20_000,
            threads: 2,
            ..Default::default()
        };
        let reference = run(LinregConfig {
            mode: Mode::TransientDram,
            ..base
        });
        for mode in [Mode::TransientNvmm, Mode::Respct] {
            let out = run(LinregConfig { mode, ..base });
            assert!((out.slope - reference.slope).abs() < 1e-9, "{mode:?}");
            assert!(
                (out.intercept - reference.intercept).abs() < 1e-9,
                "{mode:?}"
            );
        }
    }

    #[test]
    fn per_point_rps_still_correct() {
        let out = run(LinregConfig {
            npoints: 2_000,
            batch: 1,
            mode: Mode::Respct,
            ckpt_period: Duration::from_millis(2),
            ..Default::default()
        });
        assert!((out.slope - 3.0).abs() < 0.1);
    }
}
