//! Minimal command-line flags shared by the figure binaries.

/// Parsed harness options.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Thread counts to sweep (`--threads 1,2,4`).
    pub threads: Vec<usize>,
    /// Measurement seconds per data point (`--secs 0.5`).
    pub secs: f64,
    /// Approach the paper's full-scale parameters (`--full`). Default is a
    /// quick, laptop/CI-friendly scale.
    pub full: bool,
    /// Emit one JSON line per data point in addition to the table.
    pub json: bool,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            threads: vec![1, 2, 4, 8],
            secs: 0.4,
            full: false,
            json: false,
        }
    }
}

impl BenchArgs {
    /// Parses `std::env::args()`.
    ///
    /// # Panics
    ///
    /// Panics (with a usage message) on malformed flags.
    pub fn parse() -> BenchArgs {
        let mut out = BenchArgs::default();
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--threads" => {
                    let v = it.next().expect("--threads needs a value, e.g. 1,2,4");
                    out.threads = v
                        .split(',')
                        .map(|s| s.parse().expect("thread counts are integers"))
                        .collect();
                }
                "--secs" => {
                    out.secs = it
                        .next()
                        .expect("--secs needs a value")
                        .parse()
                        .expect("--secs takes a float");
                }
                "--full" => out.full = true,
                "--json" => out.json = true,
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --threads 1,2,4   thread sweep\n       \
                         --secs 0.5        seconds per data point\n       \
                         --full            paper-scale parameters\n       \
                         --json            JSON lines output"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other} (try --help)"),
            }
        }
        out
    }

    /// Scales a quick-mode size up to the paper's when `--full` is set.
    pub fn scaled(&self, quick: u64, full: u64) -> u64 {
        if self.full {
            full
        } else {
            quick
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_quick() {
        let a = BenchArgs::default();
        assert!(!a.full);
        assert_eq!(a.scaled(10, 100), 10);
        assert_eq!(BenchArgs { full: true, ..a }.scaled(10, 100), 100);
    }
}
