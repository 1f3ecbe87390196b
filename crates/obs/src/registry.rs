//! Named metric registry with Prometheus and JSON sinks.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::counter::Counter;
use crate::hist::Histogram;

/// Unit hint attached to a metric (rendered into help text and used by
/// consumers to scale values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Dimensionless count.
    None,
    /// Nanoseconds.
    Nanos,
    /// Bytes.
    Bytes,
    /// Cache lines.
    Lines,
}

impl Unit {
    fn suffix(self) -> &'static str {
        match self {
            Unit::None => "",
            Unit::Nanos => " (ns)",
            Unit::Bytes => " (bytes)",
            Unit::Lines => " (cache lines)",
        }
    }
}

type CounterFn = Box<dyn Fn() -> u64 + Send + Sync>;
type GaugeFn = Box<dyn Fn() -> f64 + Send + Sync>;
type GaugeVecFn = Box<dyn Fn() -> Vec<(String, f64)> + Send + Sync>;

enum Kind {
    /// A monotonic total, read on demand (an owned [`Counter`], or a sum
    /// its owner keeps elsewhere).
    Counter(CounterFn),
    Histogram(Arc<Histogram>),
    /// Read-on-demand scalar (used to surface externally-owned counters,
    /// e.g. the pmem substrate's pwb/psync totals, and derived ratios).
    Gauge(GaugeFn),
    /// Read-on-demand labeled family: the closure returns
    /// `(label_value, value)` pairs for one label key.
    GaugeVec {
        label: &'static str,
        f: GaugeVecFn,
    },
}

struct Metric {
    name: &'static str,
    help: &'static str,
    unit: Unit,
    kind: Kind,
}

/// A named collection of metrics, aggregated on demand.
///
/// Registration is cold-path (startup) and takes a lock; the returned
/// `Arc<Counter>` / `Arc<Histogram>` handles are what hot paths touch, so
/// recording never goes through the registry.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<Vec<Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Registers and returns a monotonic counter.
    pub fn counter(&self, name: &'static str, help: &'static str, unit: Unit) -> Arc<Counter> {
        let c = Arc::new(Counter::new());
        let read = Arc::clone(&c);
        self.counter_fn(name, help, unit, move || read.get());
        c
    }

    /// Registers a read-on-demand monotonic counter: `f` must never
    /// decrease. For totals whose owner keeps them in its own layout (say,
    /// one single-writer tally per thread slot) and sums them at scrape
    /// time.
    pub fn counter_fn(
        &self,
        name: &'static str,
        help: &'static str,
        unit: Unit,
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.metrics.lock().push(Metric {
            name,
            help,
            unit,
            kind: Kind::Counter(Box::new(f)),
        });
    }

    /// Registers and returns a histogram.
    pub fn histogram(&self, name: &'static str, help: &'static str, unit: Unit) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new());
        self.metrics.lock().push(Metric {
            name,
            help,
            unit,
            kind: Kind::Histogram(Arc::clone(&h)),
        });
        h
    }

    /// Registers a read-on-demand scalar gauge.
    pub fn gauge_fn(
        &self,
        name: &'static str,
        help: &'static str,
        unit: Unit,
        f: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        self.metrics.lock().push(Metric {
            name,
            help,
            unit,
            kind: Kind::Gauge(Box::new(f)),
        });
    }

    /// Registers a read-on-demand labeled gauge family (one label key; the
    /// closure yields `(label_value, value)` pairs, e.g. per-thread or
    /// per-shard series).
    pub fn gauge_vec_fn(
        &self,
        name: &'static str,
        help: &'static str,
        unit: Unit,
        label: &'static str,
        f: impl Fn() -> Vec<(String, f64)> + Send + Sync + 'static,
    ) {
        self.metrics.lock().push(Metric {
            name,
            help,
            unit,
            kind: Kind::GaugeVec {
                label,
                f: Box::new(f),
            },
        });
    }

    /// Renders every metric in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` headers, cumulative `_bucket`
    /// series with `le` labels for histograms, `_total` suffixes left to
    /// the metric names themselves.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for m in self.metrics.lock().iter() {
            let name = m.name;
            out.push_str(&format!("# HELP {name} {}{}\n", m.help, m.unit.suffix()));
            match &m.kind {
                Kind::Counter(f) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", f()));
                }
                Kind::Gauge(f) => {
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", fmt_f64(f())));
                }
                Kind::GaugeVec { label, f } => {
                    out.push_str(&format!("# TYPE {name} gauge\n"));
                    for (lv, v) in f() {
                        out.push_str(&format!("{name}{{{label}=\"{lv}\"}} {}\n", fmt_f64(v)));
                    }
                }
                Kind::Histogram(h) => {
                    let s = h.snapshot();
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    let mut cum = 0u64;
                    for (bound, c) in &s.buckets {
                        cum += c;
                        out.push_str(&format!("{name}_bucket{{le=\"{bound}\"}} {cum}\n"));
                    }
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", s.count));
                    out.push_str(&format!("{name}_sum {}\n", s.sum));
                    out.push_str(&format!("{name}_count {}\n", s.count));
                }
            }
        }
        out
    }

    /// Renders every metric as one JSON object: counters and gauges as
    /// numbers, histograms as `{count, sum, min, max, mean, p50, p95, p99}`
    /// objects, gauge families as nested objects keyed by label value.
    pub fn to_json(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        for m in self.metrics.lock().iter() {
            let name = m.name;
            match &m.kind {
                Kind::Counter(f) => parts.push(format!("\"{name}\":{}", f())),
                Kind::Gauge(f) => parts.push(format!("\"{name}\":{}", fmt_f64(f()))),
                Kind::GaugeVec { f, .. } => {
                    let inner: Vec<String> = f()
                        .into_iter()
                        .map(|(lv, v)| format!("\"{lv}\":{}", fmt_f64(v)))
                        .collect();
                    parts.push(format!("\"{name}\":{{{}}}", inner.join(",")));
                }
                Kind::Histogram(h) => {
                    let s = h.snapshot();
                    parts.push(format!(
                        "\"{name}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
                         \"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                        s.count,
                        s.sum,
                        s.min,
                        s.max,
                        fmt_f64(s.mean()),
                        s.p50(),
                        s.p95(),
                        s.p99()
                    ));
                }
            }
        }
        format!("{{{}}}", parts.join(","))
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("metrics", &self.metrics.lock().len())
            .finish()
    }
}

/// JSON/Prometheus-safe float rendering: finite values as-is, non-finite as
/// 0 (JSON has no NaN/Inf literal and a scrape must never be malformed).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{v:.0}")
        } else {
            format!("{v}")
        }
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_exposition_shape() {
        let r = MetricsRegistry::new();
        let c = r.counter("test_ops_total", "ops", Unit::None);
        let h = r.histogram("test_latency_ns", "latency", Unit::Nanos);
        r.gauge_fn("test_ratio", "ratio", Unit::None, || 1.5);
        r.counter_fn("test_summed_total", "summed", Unit::Bytes, || 9);
        r.gauge_vec_fn("test_per_slot", "per slot", Unit::Nanos, "slot", || {
            vec![("0".into(), 10.0), ("3".into(), 20.0)]
        });
        c.add(7);
        h.record(100);
        h.record(200);
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE test_ops_total counter"));
        assert!(text.contains("test_ops_total 7"));
        assert!(text.contains("# TYPE test_latency_ns histogram"));
        assert!(text.contains("test_latency_ns_count 2"));
        assert!(text.contains("test_latency_ns_sum 300"));
        assert!(text.contains("_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("test_ratio 1.5"));
        assert!(text.contains("# TYPE test_summed_total counter\ntest_summed_total 9\n"));
        assert!(text.contains("test_per_slot{slot=\"3\"} 20"));
    }

    #[test]
    fn json_snapshot_shape() {
        let r = MetricsRegistry::new();
        let c = r.counter("ops", "ops", Unit::None);
        let h = r.histogram("lat", "lat", Unit::Nanos);
        c.add(3);
        h.record(50);
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"ops\":3"));
        assert!(j.contains("\"count\":1"));
        assert!(j.contains("\"p99\":"));
    }

    #[test]
    fn fmt_f64_never_emits_nan() {
        assert_eq!(fmt_f64(f64::NAN), "0");
        assert_eq!(fmt_f64(f64::INFINITY), "0");
        assert_eq!(fmt_f64(2.0), "2");
    }
}
