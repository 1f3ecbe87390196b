//! `respct-bench compare A B`: do two sets of runs agree within the
//! benchmark's own bounds?
//!
//! `A` and `B` are result files (one JSON line per run, as every run
//! appends to its `--out` file). For each workload and end-to-end metric
//! the medians are compared against the bound `BENCHMARK.json` fixes, and
//! each set's spread — interquartile distance over median — is checked
//! first: where the runs of one commit scatter more than the bound, the
//! pair is *unresolved*, not *same*.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One end-to-end metric as `BENCHMARK.json` defines it.
#[derive(Debug, Clone)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

pub fn bounds_of(spec: &Json) -> Result<Vec<Bound>, String> {
    spec.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "an end_to_end entry lacks name, better or bound".to_string())
}

/// The untraced runs of one result file: workload → metric → values, plus
/// failed and attempted operations per workload.
#[derive(Debug, Default)]
pub struct RunSet {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    failures: BTreeMap<String, (f64, f64)>,
}

impl RunSet {
    pub fn parse(text: &str) -> Result<RunSet, String> {
        let mut set = RunSet::default();
        for (n, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let run = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
            let field = |k: &str| run.get(k).ok_or(format!("line {}: no {k:?}", n + 1));
            if field("trace")?.as_f64() != Some(0.0) {
                continue;
            }
            let workload = field("workload")?.as_str().unwrap_or_default().to_string();
            let totals = set.failures.entry(workload.clone()).or_default();
            totals.0 += field("failed")?.as_f64().unwrap_or(0.0);
            totals.1 += field("attempted")?.as_f64().unwrap_or(0.0);
            let metrics = set.values.entry(workload).or_default();
            for (name, m) in field("metrics")?.as_obj().unwrap_or_default() {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    metrics.entry(name.clone()).or_default().push(v);
                }
            }
        }
        Ok(set)
    }

    fn of(&self, workload: &str, metric: &str) -> &[f64] {
        self.values
            .get(workload)
            .and_then(|m| m.get(metric))
            .map_or(&[], Vec::as_slice)
    }

    fn fail_ratio(&self, workload: &str) -> f64 {
        self.failures
            .get(workload)
            .map_or(0.0, |&(failed, attempted)| failed / attempted.max(1.0))
    }
}

/// One row of the comparison.
#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub median_a: f64,
    pub median_b: f64,
    pub spread_a: f64,
    pub spread_b: f64,
    pub verdict: Verdict,
}

fn spread_of(values: &[f64]) -> f64 {
    if values.len() < 2 {
        0.0
    } else {
        spread(values)
    }
}

/// Judges one metric: `b` against `a`.
pub fn judge(bound: &Bound, a: &[f64], b: &[f64]) -> (f64, f64, f64, f64, Verdict) {
    if a.is_empty() || b.is_empty() {
        return (0.0, 0.0, 0.0, 0.0, Verdict::Unresolved);
    }
    let (ma, mb) = (median(a), median(b));
    let (sa, sb) = (spread_of(a), spread_of(b));
    let worse_by = if bound.lower_is_better {
        (mb - ma) / ma.abs()
    } else {
        (ma - mb) / ma.abs()
    };
    // Set-up time is exempt from the spread rule (its bound is the widest
    // already, and its median is what later changes are held to).
    let scattered = bound.name != "setup_s" && sa.max(sb) > bound.bound;
    let verdict = if scattered {
        Verdict::Unresolved
    } else if worse_by > bound.bound {
        Verdict::Worse
    } else if worse_by < -bound.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (ma, mb, sa, sb, verdict)
}

/// Every (workload, end-to-end metric) pair, plus one `fail_ratio` row per
/// workload: any increase in failed ÷ attempted is worse.
pub fn compare(bounds: &[Bound], workloads: &[String], a: &RunSet, b: &RunSet) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in workloads {
        for bound in bounds {
            let (median_a, median_b, spread_a, spread_b, verdict) =
                judge(bound, a.of(w, &bound.name), b.of(w, &bound.name));
            rows.push(Row {
                workload: w.clone(),
                metric: bound.name.clone(),
                median_a,
                median_b,
                spread_a,
                spread_b,
                verdict,
            });
        }
        let (fa, fb) = (a.fail_ratio(w), b.fail_ratio(w));
        rows.push(Row {
            workload: w.clone(),
            metric: "fail_ratio".into(),
            median_a: fa,
            median_b: fb,
            spread_a: 0.0,
            spread_b: 0.0,
            verdict: if fb > fa {
                Verdict::Worse
            } else if fb < fa {
                Verdict::Better
            } else {
                Verdict::Same
            },
        });
    }
    rows
}

pub fn print(rows: &[Row]) {
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>9} {:>9}  verdict",
        "workload", "metric", "median A", "median B", "spread A", "spread B"
    );
    for r in rows {
        println!(
            "{:<14} {:<22} {:>14.4} {:>14.4} {:>8.2}% {:>8.2}%  {}",
            r.workload,
            r.metric,
            r.median_a,
            r.median_b,
            r.spread_a * 100.0,
            r.spread_b * 100.0,
            r.verdict.label()
        );
    }
}

/// The subcommand: returns the process exit code.
pub fn main(args: &[String]) -> Result<i32, String> {
    let mut files = Vec::new();
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spec" => spec_path = it.next().ok_or("--spec needs a path")?.clone(),
            other => files.push(other.to_string()),
        }
    }
    let [a, b] = files.as_slice() else {
        return Err("usage: respct-bench compare A.jsonl B.jsonl [--spec BENCHMARK.json]".into());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let spec = Json::parse(&read(&spec_path)?).map_err(|e| format!("{spec_path}: {e}"))?;
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no workloads list")?
        .iter()
        .filter_map(|w| Some(w.get("name")?.as_str()?.to_string()))
        .collect();
    let rows = compare(
        &bounds_of(&spec)?,
        &workloads,
        &RunSet::parse(&read(a)?)?,
        &RunSet::parse(&read(b)?)?,
    );
    print(&rows);
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} better, {} same, {} worse, {} unresolved",
        count(Verdict::Better),
        count(Verdict::Same),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
    Ok(i32::from(count(Verdict::Worse) > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(name: &str, lower: bool, bound: f64) -> Bound {
        Bound {
            name: name.into(),
            lower_is_better: lower,
            bound,
        }
    }

    fn line(workload: &str, trace: u8, failed: u64, metric: &str, value: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": 1, \"trace\": {trace}, \"correct\": true, \
             \"attempted\": 1000, \"failed\": {failed}, \
             \"metrics\": {{\"{metric}\": {{\"value\": {value}, \"unit\": \"x\"}}}}}}\n"
        )
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let tput = bound("ops_per_s", false, 0.10);
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let scaled = |f: f64| steady.map(|v| v * f);
        assert_eq!(judge(&tput, &steady, &scaled(1.0)).4, Verdict::Same);
        assert_eq!(judge(&tput, &steady, &scaled(0.95)).4, Verdict::Same);
        assert_eq!(judge(&tput, &steady, &scaled(0.85)).4, Verdict::Worse);
        assert_eq!(judge(&tput, &steady, &scaled(1.20)).4, Verdict::Better);
        let lat = bound("op_p50_us", true, 0.10);
        assert_eq!(judge(&lat, &steady, &scaled(1.20)).4, Verdict::Worse);
        assert_eq!(judge(&lat, &steady, &scaled(0.80)).4, Verdict::Better);
        assert_eq!(judge(&lat, &steady, &[]).4, Verdict::Unresolved);
    }

    #[test]
    fn scatter_wider_than_the_bound_is_unresolved_not_same() {
        let tput = bound("ops_per_s", false, 0.10);
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(judge(&tput, &noisy, &noisy).4, Verdict::Unresolved);
        // ... except for set-up time, which is held to its median only.
        let setup = bound("setup_s", true, 0.10);
        assert_eq!(judge(&setup, &noisy, &noisy).4, Verdict::Same);
    }

    #[test]
    fn result_files_group_by_workload_and_skip_traced_runs() {
        let mut a = String::new();
        let mut b = String::new();
        for v in [10.0, 10.2, 9.9] {
            a += &line("map_write", 0, 0, "ops_per_s", v);
            b += &line("map_write", 0, 0, "ops_per_s", v * 0.8);
            b += &line("map_write", 1, 0, "ops_per_s", 1.0); // traced: ignored
            a += &line("kv_serve", 0, 0, "ops_per_s", v);
            b += &line("kv_serve", 0, 1, "ops_per_s", v);
        }
        let rows = compare(
            &[bound("ops_per_s", false, 0.10)],
            &["map_write".to_string(), "kv_serve".to_string()],
            &RunSet::parse(&a).unwrap(),
            &RunSet::parse(&b).unwrap(),
        );
        let verdicts: Vec<(&str, &str, Verdict)> = rows
            .iter()
            .map(|r| (r.workload.as_str(), r.metric.as_str(), r.verdict))
            .collect();
        assert_eq!(
            verdicts,
            vec![
                ("map_write", "ops_per_s", Verdict::Worse),
                ("map_write", "fail_ratio", Verdict::Same),
                ("kv_serve", "ops_per_s", Verdict::Same),
                ("kv_serve", "fail_ratio", Verdict::Worse),
            ]
        );
        assert!(RunSet::parse("{not json").is_err());
    }
}
