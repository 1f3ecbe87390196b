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
//! `Mode::TransientNvmm` never follows the variable: its arena always comes
//! from [`transient_nvmm_config`], an emulated-Optane region. A transient
//! arena on `mmap:<path>` would bump-write over the very pool file the
//! ResPCT runs use.
//!
//! A second variable sets the checkpoint depth for the whole suite:
//! `RESPCT_PIPELINE=d` (see [`env_depth`]) runs every app at
//! [`PoolConfig::depth`] `d` (unset = 0, the inline drain).

use respct::{PoolConfig, RegionConfig, RegionMode};
use respct_pmem::{latency::LatencyModel, SimConfig};

/// Environment variable naming the persistence backend.
pub const BACKEND_ENV: &str = "RESPCT_BACKEND";

/// Environment variable naming the checkpoint depth.
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

/// The region config every app's `Mode::TransientNvmm` runs on: `size`
/// bytes of emulated Optane, whatever `RESPCT_BACKEND` says.
pub fn transient_nvmm_config(size: usize) -> RegionConfig {
    RegionConfig::optane(size)
}

/// The checkpoint depth named by `RESPCT_PIPELINE` (default 0) — the one
/// place the variable is read.
///
/// # Errors
///
/// A message naming the variable when its value is not an integer.
pub fn env_depth() -> Result<usize, String> {
    match std::env::var(PIPELINE_ENV) {
        Ok(spec) => spec
            .parse()
            .map_err(|_| format!("unparseable {PIPELINE_ENV} value: {spec:?}")),
        Err(_) => Ok(0),
    }
}

/// The pool config every app's ResPCT mode runs with: the depth
/// [`env_depth`] names.
///
/// # Panics
///
/// Panics on an unusable `RESPCT_PIPELINE` value — a typo silently falling
/// back to the inline drain would invalidate a benchmark run.
pub fn pool_config() -> PoolConfig {
    pool_config_sized(respct::DEFAULT_POOL_SIZE).unwrap_or_else(|e| panic!("{e}"))
}

/// [`pool_config`] with an explicit fresh-pool size — what [`Pool::open`]
/// allocates when the pool file does not exist yet (an existing file keeps
/// its own size). Apps that size their heap from their working set (the KV
/// service) use this; everything else keeps the default.
///
/// [`Pool::open`]: respct::Pool::open
///
/// # Errors
///
/// A message naming `RESPCT_PIPELINE` when its value does not parse or the
/// config it gives does not build (a depth above the ring capacity).
pub fn pool_config_sized(pool_bytes: usize) -> Result<PoolConfig, String> {
    let depth = env_depth()?;
    PoolConfig::builder()
        .depth(depth)
        .size(pool_bytes)
        .build()
        .map_err(|e| format!("{PIPELINE_ENV}={depth}: {e}"))
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
    fn pool_config_defaults_to_depth_0() {
        // The test environment does not set the variable.
        if std::env::var(PIPELINE_ENV).is_err() {
            assert_eq!(pool_config().depth(), 0);
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
