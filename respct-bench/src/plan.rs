//! What a run does: sizes, threads, the window plan — and where it runs.

use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

use crate::json::Json;

/// Load threads per workload, and client connections for the server. The
/// host this benchmark was sized on has 2 vCPUs: one for the load thread,
/// one for whatever the program under test runs beside it (checkpointer,
/// server threads). Two load threads there measured how the host had
/// placed the two vCPUs, not the program.
pub const LOAD_THREADS: usize = 1;

/// Length of one measured window. Arms alternate window by window and a
/// ratio is taken per adjacent pair, so a window is kept short: the host's
/// speed moves on a scale of seconds to minutes, and a pair this short
/// sees one speed.
pub const WINDOW: Duration = Duration::from_millis(200);

/// Fewest windows an arm gets, however short the run.
const MIN_WINDOWS: usize = 5;

/// Sizes and timing of one run. `full` is the paper-scale plan the driver
/// runs; `smoke` is the same code at a size `cargo test` finishes in
/// seconds.
#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    /// Total measured seconds of the untraced phases (`--seconds`).
    pub seconds: f64,
    pub smoke: bool,
    /// Times the set-up is built; `setup_s` is the median.
    pub setup_reps: usize,
    pub map_buckets: u64,
    pub map_keys: u64,
    pub map_region_bytes: usize,
    pub map_ckpt_period: Duration,
    pub kv_keys: u64,
    pub kv_value_len: usize,
    pub kv_rate: u64,
    pub kv_sat_window: usize,
    pub kv_pool_bytes: usize,
    pub recover_pool_bytes: usize,
    pub recover_elements: u64,
    pub recover_min_reps: usize,
    /// Calls per micro-section repetition: a multiple of 4096 (the loops'
    /// working set) so first-touch passes come out whole.
    pub micro_calls: u64,
}

impl Plan {
    pub fn full(seed: u64, seconds: f64) -> Plan {
        Plan {
            seed,
            seconds,
            smoke: false,
            setup_reps: 3,
            map_buckets: 1_000_000,
            map_keys: 2_000_000,
            map_region_bytes: 512 << 20,
            map_ckpt_period: Duration::from_millis(64),
            kv_keys: 100_000,
            kv_value_len: 256,
            kv_rate: 50_000,
            kv_sat_window: 256,
            kv_pool_bytes: 256 << 20,
            recover_pool_bytes: 256 << 20,
            recover_elements: 1 << 20,
            recover_min_reps: 15,
            micro_calls: 1 << 20,
        }
    }

    /// 5 × 0.2 s windows per phase on small structures.
    pub fn smoke(seed: u64) -> Plan {
        Plan {
            seed,
            seconds: 1.0,
            smoke: true,
            setup_reps: 1,
            map_buckets: 10_000,
            map_keys: 20_000,
            map_region_bytes: 64 << 20,
            map_ckpt_period: Duration::from_millis(16),
            kv_keys: 2_000,
            kv_value_len: 256,
            kv_rate: 2_000,
            kv_sat_window: 8,
            kv_pool_bytes: 64 << 20,
            recover_pool_bytes: 16 << 20,
            recover_elements: 1 << 14,
            recover_min_reps: 3,
            micro_calls: 1 << 14,
        }
    }

    /// Windows per arm when the measured time is shared by `arms`
    /// alternating arms of [`WINDOW`]-long windows.
    pub fn windows(&self, arms: usize) -> usize {
        if self.smoke {
            return MIN_WINDOWS;
        }
        let n = self.seconds / (WINDOW.as_secs_f64() * arms as f64);
        (n.round() as usize).max(MIN_WINDOWS)
    }

    /// Windows of each extra pass of a traced run (untraced reference,
    /// checkpoint modes, metrics off): three tenths of a measured phase.
    pub fn extra_windows(&self) -> usize {
        (self.windows(2) * 3 / 10).max(3)
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seconds", Json::Num(self.seconds)),
            ("smoke", Json::Bool(self.smoke)),
            ("window_ms", Json::Num(WINDOW.as_secs_f64() * 1e3)),
            ("windows_per_arm_of_2", Json::Num(self.windows(2) as f64)),
            ("load_threads", Json::Num(LOAD_THREADS as f64)),
            ("setup_reps", Json::Num(self.setup_reps as f64)),
            ("map_buckets", Json::Num(self.map_buckets as f64)),
            ("map_keys", Json::Num(self.map_keys as f64)),
            (
                "map_ckpt_period_ms",
                Json::Num(self.map_ckpt_period.as_secs_f64() * 1e3),
            ),
            ("kv_keys", Json::Num(self.kv_keys as f64)),
            ("kv_value_len", Json::Num(self.kv_value_len as f64)),
            ("kv_rate", Json::Num(self.kv_rate as f64)),
            ("kv_sat_window", Json::Num(self.kv_sat_window as f64)),
            (
                "recover_pool_bytes",
                Json::Num(self.recover_pool_bytes as f64),
            ),
            ("recover_elements", Json::Num(self.recover_elements as f64)),
        ])
    }
}

/// Cargo's target directory as this process sees it: `CARGO_TARGET_DIR`
/// (relative values are relative to the working directory, as for cargo)
/// or `target`. Build products, pool files, results and traces all go
/// under it, so a run writes nowhere else.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Where result files and traces are written.
pub fn out_dir() -> PathBuf {
    target_dir().join("respct-bench-out")
}

/// Parent of the per-run temp directories.
pub fn tmp_parent() -> PathBuf {
    target_dir().join("respct-bench-tmp")
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn file_line(path: &str, prefix: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with(prefix))
                .map(|l| l.split_once(':').map_or(l, |(_, v)| v).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Why every metric of this run must be read as unresolved, if so: the
/// load threads and the thread the program under test runs beside them
/// each need a processor, or they timeshare and the numbers measure the
/// scheduler.
pub fn unresolved_reason() -> Option<String> {
    let n = nproc();
    (LOAD_THREADS + 1 > n).then(|| {
        format!("{LOAD_THREADS} load thread(s) and the program's own thread on {n} processor(s)")
    })
}

/// The environment block every result carries.
pub fn environment(plan: &Plan, backend: &str) -> Json {
    Json::obj(vec![
        ("nproc", Json::Num(nproc() as f64)),
        (
            "cpu_model",
            Json::str(file_line("/proc/cpuinfo", "model name")),
        ),
        (
            "kernel",
            Json::str(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
            ),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(plan.seed as f64)),
        ("backend", Json::str(backend)),
        ("plan", plan.to_json()),
        (
            "unresolved",
            unresolved_reason().map_or(Json::Null, Json::Str),
        ),
    ])
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_share_the_measured_seconds() {
        let p = Plan::full(1, 20.0);
        assert_eq!(p.windows(1), 100);
        assert_eq!(p.windows(2), 50);
        assert_eq!(Plan::full(1, 1.0).windows(2), 5, "never fewer than five");
        assert_eq!(Plan::smoke(1).windows(2), 5);
    }

    #[test]
    fn environment_block_names_the_host_and_the_plan() {
        let env = environment(&Plan::smoke(7), "optane");
        for key in [
            "nproc",
            "cpu_model",
            "kernel",
            "rustc",
            "git_commit",
            "seed",
            "backend",
            "plan",
            "unresolved",
        ] {
            assert!(env.get(key).is_some(), "missing {key}");
        }
        assert_eq!(env.get("seed").unwrap().as_f64(), Some(7.0));
        assert!(peak_rss_mib(std::process::id()).unwrap() > 1.0);
    }
}
