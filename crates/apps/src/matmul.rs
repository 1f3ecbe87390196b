//! Matrix multiplication (Phoenix MatMul, paper §5.3).
//!
//! `C = A × B` with rows of `C` partitioned across threads. Under ResPCT
//! the matrices live in NVMM; every output cell is written exactly once, so
//! by the idempotence rule (§3.3.2) `C` needs **no undo logging** — each
//! thread only calls `add_modified` for the row it just produced and places
//! an RP after it. The only InCLL variable is each worker's persistent
//! progress cursor (`next_row`), which is read at restart to resume.

use std::sync::Arc;
use std::time::{Duration, Instant};

use respct::{Pool, RpId};
use respct_pmem::{PAddr, Region, RegionConfig};

use crate::Mode;

/// RP base: worker `t` declares `RP_ROW_DONE.offset(t)` per finished row.
const RP_ROW_DONE: RpId = RpId(200);

/// Configuration for one matmul run.
#[derive(Debug, Clone, Copy)]
pub struct MatmulConfig {
    /// Matrix dimension (n × n).
    pub n: usize,
    pub threads: usize,
    pub mode: Mode,
    /// Checkpoint period (ResPCT mode).
    pub ckpt_period: Duration,
}

impl Default for MatmulConfig {
    fn default() -> Self {
        MatmulConfig {
            n: 128,
            threads: 2,
            mode: Mode::TransientDram,
            ckpt_period: Duration::from_millis(64),
        }
    }
}

/// Result of a run.
#[derive(Debug, Clone, Copy)]
pub struct MatmulOutput {
    pub duration: Duration,
    /// Sum over all cells of `C` (verification across modes).
    pub checksum: f64,
}

fn a_elem(i: usize, j: usize) -> f64 {
    ((i * 31 + j * 17) % 97) as f64 * 0.25
}

fn b_elem(i: usize, j: usize) -> f64 {
    ((i * 13 + j * 29) % 89) as f64 * 0.5
}

/// Runs matmul in the configured mode.
pub fn run(cfg: MatmulConfig) -> MatmulOutput {
    match cfg.mode {
        Mode::TransientDram => run_dram(cfg),
        Mode::TransientNvmm => run_region(cfg, Region::new(region_cfg(cfg, true)), None),
        Mode::Respct => run_respct(cfg, None),
    }
}

/// Runs matmul in ResPCT mode with `sink` attached to the region before
/// any pool traffic — the analysis hook for the trace checker.
pub fn run_traced(cfg: MatmulConfig, sink: Arc<dyn respct_pmem::TraceSink>) -> MatmulOutput {
    run_respct(cfg, Some(sink))
}

fn run_respct(cfg: MatmulConfig, sink: Option<Arc<dyn respct_pmem::TraceSink>>) -> MatmulOutput {
    let region = Region::new(region_cfg(cfg, false));
    if let Some(sink) = sink {
        region.set_trace_sink(sink);
    }
    let pool = Pool::create(Arc::clone(&region), crate::backend::pool_config()).expect("pool");
    run_region(cfg, region, Some(pool))
}

fn region_cfg(cfg: MatmulConfig, transient: bool) -> RegionConfig {
    let bytes = 3 * cfg.n * cfg.n * 8 + (4 << 20);
    if transient {
        // Transient<NVMM> always uses the emulated-Optane latency tax.
        RegionConfig::optane(bytes)
    } else {
        // ResPCT mode runs on whichever backend RESPCT_BACKEND selects.
        crate::backend::nvmm_config(bytes)
    }
}

fn run_dram(cfg: MatmulConfig) -> MatmulOutput {
    let n = cfg.n;
    let a: Vec<f64> = (0..n * n).map(|x| a_elem(x / n, x % n)).collect();
    let b: Vec<f64> = (0..n * n).map(|x| b_elem(x / n, x % n)).collect();
    let mut c = vec![0.0f64; n * n];
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for (t, rows) in c.chunks_mut(n * n.div_ceil(cfg.threads)).enumerate() {
            let (a, b) = (&a, &b);
            s.spawn(move || {
                let row0 = t * n.div_ceil(cfg.threads);
                for (r, row) in rows.chunks_mut(n).enumerate() {
                    let i = row0 + r;
                    for (j, cell) in row.iter_mut().enumerate() {
                        let mut acc = 0.0;
                        for k in 0..n {
                            acc += a[i * n + k] * b[k * n + j];
                        }
                        *cell = acc;
                    }
                }
            });
        }
    });
    MatmulOutput {
        duration: t0.elapsed(),
        checksum: c.iter().sum(),
    }
}

/// Shared NVMM layout: A at 64, B after A, C after B (ResPCT mode offsets
/// these past the pool header via allocation).
fn run_region(cfg: MatmulConfig, region: Arc<Region>, pool: Option<Arc<Pool>>) -> MatmulOutput {
    let n = cfg.n;
    let mat_bytes = (n * n * 8) as u64;
    // Lay the matrices out.
    let (a_base, b_base, c_base, setup_handle) = match &pool {
        Some(pool) => {
            let h = pool.register();
            let a = h.alloc(mat_bytes, 64);
            let b = h.alloc(mat_bytes, 64);
            let c = h.alloc(mat_bytes, 64);
            (a, b, c, Some(h))
        }
        None => {
            let a = PAddr(64);
            let b = PAddr(64 + mat_bytes);
            let c = PAddr(64 + 2 * mat_bytes);
            (a, b, c, None)
        }
    };
    // Inputs: written once; tracked under ResPCT so they persist.
    for i in 0..n {
        for j in 0..n {
            region.store(PAddr(a_base.0 + ((i * n + j) * 8) as u64), a_elem(i, j));
            region.store(PAddr(b_base.0 + ((i * n + j) * 8) as u64), b_elem(i, j));
        }
    }
    if let Some(h) = &setup_handle {
        h.add_modified(a_base, mat_bytes as usize);
        h.add_modified(b_base, mat_bytes as usize);
        h.checkpoint_here(); // inputs durable before compute starts
    }
    drop(setup_handle);

    let _ckpt = pool.as_ref().map(|p| p.start_checkpointer(cfg.ckpt_period));
    let rows_per = n.div_ceil(cfg.threads);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..cfg.threads {
            let region = Arc::clone(&region);
            let pool = pool.clone();
            s.spawn(move || {
                let handle = pool.as_ref().map(respct::Pool::register);
                let row_lo = t * rows_per;
                let row_hi = ((t + 1) * rows_per).min(n);
                if row_lo >= n {
                    return;
                }
                // Persistent progress cursor: resume point after a crash.
                let progress = handle.as_ref().map(|h| h.alloc_cell(row_lo as u64));
                let start_row = match (&handle, &progress) {
                    (Some(h), Some(p)) => h.get(*p) as usize,
                    _ => row_lo,
                };
                // The inputs are read-only and cache-resident on real
                // hardware; model that by staging them in DRAM scratch
                // once per worker instead of paying the per-access NVMM
                // tax n³ times (which no cached machine pays).
                let mut a_loc = vec![0u8; n * n * 8];
                let mut b_loc = vec![0u8; n * n * 8];
                region.load_bytes(a_base, &mut a_loc);
                region.load_bytes(b_base, &mut b_loc);
                let elem = |buf: &[u8], idx: usize| -> f64 {
                    f64::from_ne_bytes(buf[idx * 8..idx * 8 + 8].try_into().unwrap())
                };
                for i in start_row..row_hi {
                    for j in 0..n {
                        let mut acc = 0.0;
                        for k in 0..n {
                            acc += elem(&a_loc, i * n + k) * elem(&b_loc, k * n + j);
                        }
                        region.store(PAddr(c_base.0 + ((i * n + j) * 8) as u64), acc);
                    }
                    if let (Some(h), Some(p)) = (&handle, &progress) {
                        // Row finished: track it, advance the cursor, RP.
                        h.add_modified(PAddr(c_base.0 + (i * n * 8) as u64), n * 8);
                        h.update(*p, (i + 1) as u64);
                        h.rp(RP_ROW_DONE.offset(t as u64));
                    }
                }
            });
        }
    });
    let duration = t0.elapsed();
    let mut checksum = 0.0;
    for idx in 0..n * n {
        checksum += region.load::<f64>(PAddr(c_base.0 + (idx * 8) as u64));
    }
    MatmulOutput { duration, checksum }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_modes_agree() {
        let base = MatmulConfig {
            n: 24,
            threads: 2,
            ..Default::default()
        };
        let reference = run(MatmulConfig {
            mode: Mode::TransientDram,
            ..base
        });
        for mode in [Mode::TransientNvmm, Mode::Respct] {
            let out = run(MatmulConfig { mode, ..base });
            assert!(
                (out.checksum - reference.checksum).abs() < 1e-6,
                "{mode:?}: {} != {}",
                out.checksum,
                reference.checksum
            );
        }
    }

    #[test]
    fn odd_sizes_and_more_threads_than_rows() {
        let out = run(MatmulConfig {
            n: 7,
            threads: 16,
            mode: Mode::Respct,
            ..Default::default()
        });
        let reference = run(MatmulConfig {
            n: 7,
            threads: 1,
            ..Default::default()
        });
        assert!((out.checksum - reference.checksum).abs() < 1e-9);
    }
}
