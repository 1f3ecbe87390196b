//! Backend selection shared by all applications.
//!
//! Every app's `Mode::Respct` path builds its region through
//! [`nvmm_config`] (the KV service, which can also reopen a pool file, asks
//! [`env_backend`] directly), so one environment variable swaps the
//! persistence substrate for the whole suite without touching app code:
//!
//! * `RESPCT_BACKEND=optane` (default) — fast mode, calibrated Optane
//!   latency model (the paper's emulation setup);
//! * `RESPCT_BACKEND=dram` — fast mode, DRAM latency (no NVMM tax);
//! * `RESPCT_BACKEND=sim` — the PCSO cache simulator (crash-injectable,
//!   much slower; for correctness runs);
//! * `RESPCT_BACKEND=mmap:/path/to/file.pool` — file-backed mmap: the heap
//!   outlives the process, as on real App-Direct NVMM.
//!
//! A second variable picks the checkpoint drain for the whole suite:
//! `RESPCT_PIPELINE=K` (see [`pool_config`]) runs every app with the
//! epoch-ring pipelined drain at depth `K` (`K = 1`, the default, keeps
//! the plain synchronous checkpoint).

use respct::{PoolConfig, RegionConfig, RegionMode};
use respct_pmem::{latency::LatencyModel, SimConfig};

/// Environment variable naming the persistence backend.
pub const BACKEND_ENV: &str = "RESPCT_BACKEND";

/// Environment variable naming the epoch-pipeline depth (`K`).
pub const PIPELINE_ENV: &str = "RESPCT_PIPELINE";

/// Parses a backend spec (the `RESPCT_BACKEND` syntax above) into a
/// [`RegionMode`]. Unknown specs return `None`.
pub fn parse_backend(spec: &str) -> Option<RegionMode> {
    match spec {
        "optane" => Some(RegionMode::Fast(LatencyModel::optane())),
        "dram" | "fast" => Some(RegionMode::Fast(LatencyModel::dram())),
        "sim" => Some(RegionMode::Sim(SimConfig::no_eviction(0))),
        _ => spec
            .strip_prefix("mmap:")
            .filter(|p| !p.is_empty())
            .map(|p| RegionMode::Mmap(p.into())),
    }
}

/// The backend named by `RESPCT_BACKEND` (default: emulated Optane) — the
/// one place the variable is read.
///
/// # Errors
///
/// A message naming the value when it does not parse — a misspelled backend
/// silently falling back to emulation would invalidate a benchmark run.
pub fn env_backend() -> Result<RegionMode, String> {
    let spec = std::env::var(BACKEND_ENV).unwrap_or_else(|_| "optane".into());
    parse_backend(&spec).ok_or_else(|| format!("unrecognized {BACKEND_ENV} value: {spec:?}"))
}

/// The NVMM region config every app's ResPCT mode runs on: `size` bytes on
/// the backend [`env_backend`] names.
///
/// # Panics
///
/// Panics on an unparseable `RESPCT_BACKEND` value.
pub fn nvmm_config(size: usize) -> RegionConfig {
    RegionConfig::new(size, env_backend().unwrap_or_else(|e| panic!("{e}")))
}

/// The pool config every app's ResPCT mode runs with: `RESPCT_PIPELINE=K`
/// selects the epoch-ring pipelined drain (`K ≥ 2` implies the
/// asynchronous drain machinery; `K = 1` or unset keeps the default
/// synchronous checkpoint, so existing runs are unchanged).
///
/// # Panics
///
/// Panics on an unparseable or out-of-range `RESPCT_PIPELINE` value — a
/// typo silently falling back to the synchronous drain would invalidate
/// a benchmark run.
pub fn pool_config() -> PoolConfig {
    pool_config_sized(respct::DEFAULT_POOL_SIZE)
}

/// [`pool_config`] with an explicit fresh-pool size — what [`Pool::open`]
/// allocates when the pool file does not exist yet (an existing file keeps
/// its own size). Apps that size their heap from their working set (the KV
/// service) use this; everything else keeps the default.
///
/// [`Pool::open`]: respct::Pool::open
///
/// # Panics
///
/// Panics on an unparseable or out-of-range `RESPCT_PIPELINE` value, like
/// [`pool_config`].
pub fn pool_config_sized(pool_bytes: usize) -> PoolConfig {
    let k: usize = match std::env::var(PIPELINE_ENV) {
        Ok(spec) => spec
            .parse()
            .unwrap_or_else(|_| panic!("unparseable {PIPELINE_ENV} value: {spec:?}")),
        Err(_) => 1,
    };
    PoolConfig::builder()
        .async_checkpoint(k > 1)
        .epoch_pipeline(k)
        .size(pool_bytes)
        .build()
        .unwrap_or_else(|e| panic!("invalid {PIPELINE_ENV} depth {k}: {e:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_specs() {
        assert!(matches!(
            parse_backend("optane"),
            Some(RegionMode::Fast(m)) if !m.is_free()
        ));
        assert!(matches!(parse_backend("dram"), Some(RegionMode::Fast(_))));
        assert!(matches!(parse_backend("sim"), Some(RegionMode::Sim(_))));
        match parse_backend("mmap:/tmp/x.pool") {
            Some(RegionMode::Mmap(p)) => assert_eq!(p, std::path::Path::new("/tmp/x.pool")),
            other => panic!("expected mmap mode, got {other:?}"),
        }
        assert!(parse_backend("mmap:").is_none());
        assert!(parse_backend("pmem").is_none());
    }

    #[test]
    fn pool_config_defaults_to_synchronous() {
        // The test environment does not set the variable.
        if std::env::var(PIPELINE_ENV).is_err() {
            let cfg = pool_config();
            assert_eq!(cfg.epoch_pipeline(), 1);
            assert!(!cfg.async_checkpoint());
        }
    }

    #[test]
    fn default_config_is_optane_fast() {
        // Uses the default arm only if the variable is unset; the test
        // environment does not set it.
        if std::env::var_os(BACKEND_ENV).is_none() {
            assert!(matches!(env_backend(), Ok(RegionMode::Fast(m)) if !m.is_free()));
            let cfg = nvmm_config(1 << 20);
            assert_eq!(cfg.size(), 1 << 20);
            assert!(matches!(cfg.mode(), RegionMode::Fast(m) if !m.is_free()));
        }
    }
}
