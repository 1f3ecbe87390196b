//! The names and units of every metric, and what one run hands back.
//!
//! `BENCHMARK.json` at the repo root lists the same names (a test keeps
//! the two in step). An untraced run reports every end-to-end metric; a
//! traced run reports every per-layer metric, with 0 for a layer the
//! workload never calls — see the README's glossary for which those are.

use std::collections::BTreeMap;

use crate::json::Json;

pub const WORKLOADS: [&str; 4] = ["map_write", "map_read", "kv_serve", "crash_recover"];

pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("slowdown_vs_transient", "ratio"),
    ("peak_rss_mib", "MiB"),
];

pub const PER_LAYER: &[(&str, &str)] = &[
    ("e2e.ops_per_s", "1/s"),
    ("e2e.op_p50_us", "us"),
    ("pmem.raw_store_ns", "ns"),
    ("pmem.store_ns", "ns"),
    ("pmem.load_ns", "ns"),
    ("pmem.flush_ns_per_line", "ns"),
    ("pmem.pwb_per_op", "count"),
    ("pmem.psync_per_op", "count"),
    ("incll.update_repeat_ns", "ns"),
    ("incll.update_first_ns", "ns"),
    ("incll.get_ns", "ns"),
    ("incll.first_touch_ratio", "ratio"),
    ("thread.rp_ns", "ns"),
    ("thread.rp_stall_p50_us", "us"),
    ("thread.rp_stall_p90_us", "us"),
    ("thread.rp_stall_count", "count"),
    ("thread.rp_stall_share", "ratio"),
    ("alloc.alloc_free_ns", "ns"),
    ("checkpoint.call_us_p50", "us"),
    ("checkpoint.call_us_p90", "us"),
    ("checkpoint.per_s", "1/s"),
    ("checkpoint.busy_share", "ratio"),
    ("checkpoint.lines_p50", "count"),
    ("checkpoint.wait_us_p50", "us"),
    ("checkpoint.flush_us_p50", "us"),
    ("checkpoint.drain_us_p50", "us"),
    ("checkpoint.sync.ops_per_s", "1/s"),
    ("checkpoint.sync.rp_stall_p90_us", "us"),
    ("checkpoint.sync.call_us_p50", "us"),
    ("checkpoint.async.ops_per_s", "1/s"),
    ("checkpoint.async.rp_stall_p90_us", "us"),
    ("checkpoint.async.call_us_p50", "us"),
    ("checkpoint.pipelined.ops_per_s", "1/s"),
    ("checkpoint.pipelined.rp_stall_p90_us", "us"),
    ("checkpoint.pipelined.call_us_p50", "us"),
    ("ds.map_insert_ns", "ns"),
    ("ds.map_remove_ns", "ns"),
    ("ds.map_get_ns", "ns"),
    ("ds.transient_insert_ns", "ns"),
    ("ds.transient_remove_ns", "ns"),
    ("ds.transient_get_ns", "ns"),
    ("recovery.open_ms", "ms"),
    ("recovery.scan_span_ms", "ms"),
    ("recovery.cells_scanned", "count"),
    ("recovery.cells_rolled_back", "count"),
    ("recovery.ns_per_cell", "ns"),
    ("recovery.verify_ms", "ms"),
    ("kv_wire.encode_req_ns", "ns"),
    ("kv_wire.decode_req_ns", "ns"),
    ("kv_wire.encode_resp_ns", "ns"),
    ("kv_wire.decode_resp_ns", "ns"),
    ("kv_service.apply_get_ns", "ns"),
    ("kv_service.apply_put_ns", "ns"),
    ("kv_service.end_batch_ns", "ns"),
    ("kv_service.end_batch_sync_us", "us"),
    ("kv_service.flushed_bytes_per_put_byte", "ratio"),
    ("kv_server.ping_rtt_us", "us"),
    ("kv_server.req_p99_us", "us"),
    ("kv_server.req_mean_us", "us"),
    ("kv_server.busy_ratio", "ratio"),
    ("obs.hist_record_ns", "ns"),
    ("obs.counter_inc_ns", "ns"),
    ("obs.metrics_on_ratio", "ratio"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.sent", "count"),
    ("loadgen.answered", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose result was checked.
    pub attempted: u64,
    /// Operations that were refused, unanswered, or answered wrongly.
    pub failed: u64,
    pub values: BTreeMap<String, f64>,
    /// Context for the results file only (sample counts, percentile
    /// actually used, per-window values).
    pub notes: Vec<(&'static str, Json)>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn note(&mut self, name: &'static str, value: Json) {
        self.notes.push((name, value));
    }

    /// The `metrics` object of the result line: exactly the metrics of
    /// `table`. A missing per-layer metric is a layer this workload does
    /// not call (0); a missing or non-finite end-to-end value is an error.
    pub fn metrics_json(&self, table: &[(&str, &str)], traced: bool) -> Result<Json, String> {
        let mut fields = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => return Err(format!("metric {name} is {v}")),
                None if traced => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            fields.push((
                name.to_string(),
                Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]),
            ));
        }
        Ok(Json::Obj(fields))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn names_units(list: &Json) -> Vec<(String, String)> {
        list.as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().as_str().unwrap().to_string(),
                    m.get("unit").unwrap().as_str().unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_program_prints() {
        let spec = spec();
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(
            names_units(spec.get("end_to_end").unwrap()),
            own(END_TO_END)
        );
        assert_eq!(names_units(spec.get("per_layer").unwrap()), own(PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for m in spec.get("end_to_end").unwrap().as_arr().unwrap() {
            let bound = m.get("bound").unwrap().as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn untraced_results_must_be_complete_and_finite() {
        let mut o = Outcome::default();
        assert!(o.metrics_json(END_TO_END, false).is_err());
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        let m = o.metrics_json(END_TO_END, false).unwrap();
        assert_eq!(m.as_obj().unwrap().len(), END_TO_END.len());
        o.set("setup_s", f64::NAN);
        assert!(o.metrics_json(END_TO_END, false).is_err());
        // A traced run fills in 0 for layers the workload never calls.
        let t = Outcome::default().metrics_json(PER_LAYER, true).unwrap();
        assert_eq!(t.as_obj().unwrap().len(), PER_LAYER.len());
    }
}
