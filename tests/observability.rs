//! The observability layer end to end: histogram error bounds, metric
//! accounting against hand-counted workloads, snapshot consistency while
//! checkpoints run, and both export sinks (Prometheus text over TCP, JSON)
//! for a real multi-threaded run.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use respct_repro::obs::Histogram;
use respct_repro::pmem::{
    sim::CrashMode, PAddr, Region, RegionConfig, SimConfig, TraceEvent, TraceMarker, VecSink,
};
use respct_repro::respct::{Pool, PoolConfig};

fn pool(mb: usize, cfg: PoolConfig) -> Arc<Pool> {
    Pool::create(Region::new(RegionConfig::fast(mb << 20)), cfg).expect("pool")
}

/// Pulls `"name":<int>` out of the registry's JSON snapshot.
fn json_u64(json: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let at = json
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing in {json}"));
    json[at + key.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{name} not an integer in {json}"))
}

/// Pulls a field of a histogram object, e.g. `json_hist_field(j, "respct_rp_stall_ns", "count")`.
fn json_hist_field(json: &str, name: &str, field: &str) -> u64 {
    let key = format!("\"{name}\":{{");
    let at = json
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing in {json}"));
    let obj = &json[at + key.len()..];
    let obj = &obj[..obj.find('}').expect("closing brace")];
    json_u64(obj, field)
}

// ---- Histogram correctness ------------------------------------------------

/// The log-bucketed histogram's quantiles over-report by at most 1/16
/// (6.25%) of the true value, across five orders of magnitude.
#[test]
fn histogram_quantile_error_is_bounded() {
    for scale in [1u64, 100, 10_000, 1_000_000, 100_000_000] {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * scale);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500 * scale);
        for (q, truth) in [
            (0.50, 500 * scale),
            (0.95, 950 * scale),
            (0.99, 990 * scale),
        ] {
            let got = s.quantile(q);
            assert!(
                got >= truth,
                "q{q} under-reports at scale {scale}: {got} < {truth}"
            );
            let err = (got - truth) as f64 / truth as f64;
            assert!(err <= 0.0625, "q{q} error {err} at scale {scale}");
        }
    }
}

/// Bucket counts in a snapshot sum to the total count, and bounds are
/// strictly increasing (the exposition depends on both).
#[test]
fn histogram_snapshot_buckets_are_consistent() {
    let h = Histogram::new();
    for v in [0u64, 1, 7, 16, 17, 1000, 1 << 20, u64::MAX] {
        h.record(v);
    }
    let s = h.snapshot();
    assert_eq!(s.buckets.iter().map(|&(_, c)| c).sum::<u64>(), s.count);
    for w in s.buckets.windows(2) {
        assert!(
            w[0].0 < w[1].0,
            "bucket bounds not increasing: {:?}",
            s.buckets
        );
    }
    assert_eq!(s.min, 0);
    assert_eq!(s.max, u64::MAX);
}

// ---- Accounting vs a hand-counted workload --------------------------------

/// Every byte the workload stores is counted once, flushed bytes equal the
/// deduped line count times 64, and the first-touch counter sees exactly
/// one backup per cell per epoch.
#[test]
fn counters_match_hand_counted_workload() {
    let pool = pool(64, PoolConfig::default());
    let h = pool.register();

    let before = pool.metrics().to_json();
    let stored0 = json_u64(&before, "respct_bytes_stored_total");
    let updates0 = json_u64(&before, "respct_incll_updates_total");
    let first0 = json_u64(&before, "respct_incll_first_touch_total");

    // 10 tracked u64 stores on 10 distinct lines: 80 bytes stored.
    let base = respct_repro::respct::layout::heap_start().0 + (1 << 20);
    for i in 0..10u64 {
        h.store_tracked(PAddr(base + i * 64), i);
    }
    // One cell, updated 5 times in its birth epoch: 40 bytes stored, 5
    // updates, and *zero* first touches — the init already tagged the line
    // with the current epoch, so no update needs to log a backup.
    let c = h.alloc_cell(0u64);
    let cell_init_bytes =
        json_u64(&pool.metrics().to_json(), "respct_bytes_stored_total") - stored0 - 80;
    for i in 1..=5u64 {
        h.update(c, i);
    }

    let after = pool.metrics().to_json();
    assert_eq!(
        json_u64(&after, "respct_bytes_stored_total") - stored0,
        80 + cell_init_bytes + 40,
        "tracked bytes: 10 stores x 8 + cell init + 5 updates x 8"
    );
    assert_eq!(json_u64(&after, "respct_incll_updates_total") - updates0, 5);
    assert_eq!(
        json_u64(&after, "respct_incll_first_touch_total") - first0,
        0
    );

    // Flushed bytes are exactly 64 per unique line the checkpoint wrote
    // (checkpoint_here: this thread holds a registered handle, so it must
    // take part in its own quiescence).
    let report = h.checkpoint_here();
    let flushed = json_u64(&pool.metrics().to_json(), "respct_bytes_flushed_total");
    assert_eq!(flushed, report.lines * 64);
    assert!(report.lines >= 10, "at least the 10 distinct tracked lines");

    // In the next epoch the first update of the cell — and only the first
    // — logs a backup. Re-baseline after the checkpoint: its own
    // bookkeeping (the allocator's bump state is InCLL too) also counts
    // updates.
    let mid = pool.metrics().to_json();
    let updates1 = json_u64(&mid, "respct_incll_updates_total");
    let first1 = json_u64(&mid, "respct_incll_first_touch_total");
    for i in 6..=8u64 {
        h.update(c, i);
    }
    let next = pool.metrics().to_json();
    assert_eq!(json_u64(&next, "respct_incll_updates_total") - updates1, 3);
    assert_eq!(
        json_u64(&next, "respct_incll_first_touch_total") - first1,
        1
    );
}

/// With metrics disabled in the pool config the hot-path counters stay at
/// zero, but checkpoint accounting (which backs `ckpt_snapshot`) still runs.
#[test]
fn metrics_toggle_gates_hot_path_only() {
    let cfg = PoolConfig::builder()
        .metrics(false)
        .build()
        .expect("config");
    let pool = pool(64, cfg);
    let h = pool.register();
    let base = respct_repro::respct::layout::heap_start().0 + (1 << 20);
    h.store_tracked(PAddr(base), 7u64);
    let c = h.alloc_cell(1u64);
    h.update(c, 2u64);
    h.checkpoint_here();

    let json = pool.metrics().to_json();
    assert_eq!(json_u64(&json, "respct_bytes_stored_total"), 0);
    assert_eq!(json_u64(&json, "respct_incll_updates_total"), 0);
    assert_eq!(
        pool.runtime_metrics().ckpt_snapshot().count,
        1,
        "ckpt stats still live"
    );
}

// ---- Snapshots under concurrent checkpoints -------------------------------

/// Rendering both sinks and taking `CkptSnapshot`s while workers and
/// the periodic checkpointer run never tears: counts are monotone and every
/// exposition stays well-formed.
#[test]
fn snapshots_are_sane_under_concurrent_checkpoints() {
    let pool = pool(64, PoolConfig::default());
    let _ckpt = pool.start_checkpointer(Duration::from_millis(1));
    let stop = Arc::new(AtomicBool::new(false));

    // Asserting inside the scope would leave the workers spinning on a
    // panic (scope join never returns); collect the first violation and
    // assert after the scope has torn down.
    let mut violation: Option<String> = None;
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let (pool, stop) = (Arc::clone(&pool), Arc::clone(&stop));
            s.spawn(move || {
                let h = pool.register();
                let c = h.alloc_cell(0u64);
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    h.update(c, i);
                    h.rp(10 + t);
                    i += 1;
                }
            });
        }
        let (mut last_count, mut last_updates) = (0u64, 0u64);
        for _ in 0..200 {
            let snap = pool.runtime_metrics().ckpt_snapshot();
            if snap.count < last_count {
                violation = Some(format!(
                    "count went backwards: {} -> {}",
                    last_count, snap.count
                ));
                break;
            }
            if snap.total_ns < snap.flush_ns {
                violation = Some(format!(
                    "flush {} exceeds total {}",
                    snap.flush_ns, snap.total_ns
                ));
                break;
            }
            last_count = snap.count;
            let json = pool.metrics().to_json();
            if json.matches('{').count() != json.matches('}').count() {
                violation = Some(format!("unbalanced JSON: {json}"));
                break;
            }
            // The per-slot tallies are summed live while their writers run.
            let updates = json_u64(&json, "respct_incll_updates_total");
            if updates < last_updates {
                violation = Some(format!(
                    "updates went backwards: {last_updates} -> {updates}"
                ));
                break;
            }
            last_updates = updates;
            let text = pool.metrics().to_prometheus();
            if !text.ends_with('\n') || !text.contains("# TYPE") {
                violation = Some("malformed exposition".to_string());
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(violation, None);
}

// ---- Both sinks populated for a real multi-threaded run -------------------

/// A multi-threaded run under forced checkpoints populates the RP-stall and
/// per-shard flush histograms, visible in the Prometheus exposition (with
/// monotone cumulative buckets) and the JSON snapshot alike.
#[test]
fn multithreaded_run_populates_stall_and_shard_histograms() {
    let cfg = PoolConfig::builder()
        .flusher_threads(2)
        .build()
        .expect("config");
    let pool = pool(64, cfg);
    let stop = Arc::new(AtomicBool::new(false));
    let ready = Arc::new(AtomicUsize::new(0));

    // Assertions happen after the scope: a panic inside it would strand
    // the spinning workers in scope-join forever.
    let mut reports = Vec::new();
    std::thread::scope(|s| {
        for t in 0..3u64 {
            let (pool, stop) = (Arc::clone(&pool), Arc::clone(&stop));
            let ready = Arc::clone(&ready);
            s.spawn(move || {
                let h = pool.register();
                let c = h.alloc_cell(0u64);
                ready.fetch_add(1, Ordering::Release);
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    h.update(c, i);
                    ready.fetch_add(1, Ordering::Release);
                    h.rp(20 + t);
                    i += 1;
                }
            });
        }
        // Wait for every worker to be registered and dirty before forcing
        // checkpoints — otherwise the first one can see an empty pool.
        while ready.load(Ordering::Acquire) < 3 {
            std::thread::yield_now();
        }
        // Forced checkpoints quiesce the workers, so every one of them
        // parks at an RP at least once per checkpoint. Wait for an update
        // in the new epoch before the next one, so no checkpoint closes an
        // epoch the scheduler gave no worker a turn in.
        for _ in 0..5 {
            reports.push(pool.checkpoint_now());
            let seen = ready.load(Ordering::Acquire);
            while ready.load(Ordering::Acquire) == seen {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(reports.len(), 5);
    for report in &reports {
        assert!(
            !report.shards.is_empty(),
            "the flush pipeline reports shards"
        );
    }

    let json = pool.metrics().to_json();
    assert!(json_hist_field(&json, "respct_rp_stall_ns", "count") > 0);
    assert!(json_hist_field(&json, "respct_shard_flush_ns", "count") > 0);
    assert!(json_hist_field(&json, "respct_shard_flush_lines", "count") > 0);
    assert!(json_hist_field(&json, "respct_checkpoint_total_ns", "count") >= 5);

    let text = pool.metrics().to_prometheus();
    for h in ["respct_rp_stall_ns", "respct_shard_flush_ns"] {
        assert!(
            text.contains(&format!("# TYPE {h} histogram")),
            "{h} missing"
        );
        let count_line = text
            .lines()
            .find(|l| l.starts_with(&format!("{h}_count ")))
            .unwrap_or_else(|| panic!("{h}_count missing"));
        let n: u64 = count_line
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        assert!(n > 0, "{h} empty in Prometheus sink");
        // Cumulative bucket counts must be non-decreasing and end at count.
        let mut prev = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with(&format!("{h}_bucket")))
        {
            let c: u64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
            assert!(c >= prev, "non-monotone cumulative bucket: {line}");
            prev = c;
        }
        assert_eq!(prev, n, "+Inf bucket must equal count");
    }
    // Per-slot stall gauge family carries one series per worker slot.
    assert!(
        text.lines()
            .any(|l| l.starts_with("respct_rp_stall_total_ns{slot=")),
        "per-slot stall series missing"
    );
}

/// `flusher_threads(2)` + `depth(1)`: the drain executor
/// flushes through the flusher pool like the synchronous tail does, not
/// through a private write-back loop. The returned report ends at the
/// release (no shards); the report the executor records at commit carries
/// several, and the trace shows them opened by threads other than the
/// committing one.
#[test]
fn background_drain_flushes_through_the_flusher_pool() {
    let region = Region::new(RegionConfig::sim(8 << 20, SimConfig::no_eviction(4)));
    let sink = Arc::new(VecSink::new());
    region.set_trace_sink(sink.clone());
    let cfg = PoolConfig::builder()
        .flusher_threads(2)
        .depth(1)
        .build()
        .expect("config");
    let pool = Pool::create(region, cfg).expect("pool");
    let h = pool.register();
    let cells: Vec<_> = (0..256u64).map(|i| h.alloc_cell(i)).collect();
    h.checkpoint_here();
    for c in &cells {
        h.update(*c, 7);
    }
    let shards_before = json_hist_field(
        &pool.metrics().to_json(),
        "respct_shard_flush_lines",
        "count",
    );
    sink.drain();
    let r = h.checkpoint_here(); // returns once the executor has committed
    assert!(r.shards.is_empty() && r.flush_ns == 0, "{r:?}");
    let shards = json_hist_field(
        &pool.metrics().to_json(),
        "respct_shard_flush_lines",
        "count",
    ) - shards_before;
    assert!(shards > 1, "executor recorded {shards} shard(s)");
    let m = pool.runtime_metrics().ckpt_snapshot();
    assert!(m.lines_flushed >= 256 && m.flush_ns > 0, "{m:?}");

    let events = sink.drain();
    let marker_tids = |want: fn(&TraceMarker) -> bool| -> Vec<u64> {
        events
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::Marker { tid, marker } if want(marker) => Some(*tid),
                _ => None,
            })
            .collect()
    };
    let committer = marker_tids(|m| matches!(m, TraceMarker::RingCommit { .. }));
    let flushers = marker_tids(|m| matches!(m, TraceMarker::ShardFlushBegin { .. }));
    assert_eq!(committer.len(), 1);
    assert_eq!(flushers.len() as u64, shards);
    assert!(
        flushers.iter().all(|t| *t != committer[0]),
        "shards flushed inline on the executor: {flushers:?} vs {committer:?}"
    );
}

/// Every non-comment line of the exposition is `name[{label="v"}] number`
/// and every `# TYPE` names one of the four Prometheus types.
#[test]
fn prometheus_exposition_is_well_formed() {
    let pool = pool(64, PoolConfig::default());
    let h = pool.register();
    let c = h.alloc_cell(1u64);
    h.update(c, 2u64);
    h.checkpoint_here();

    for line in pool.metrics().to_prometheus().lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let ty = rest.split_whitespace().nth(1).expect("type");
            assert!(
                ["counter", "gauge", "histogram", "summary"].contains(&ty),
                "bad type: {line}"
            );
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (name_part, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("bad: {line}"));
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable sample value: {line}"
        );
        let name = name_part.split('{').next().unwrap();
        assert!(
            name.chars()
                .all(|ch| ch.is_ascii_alphanumeric() || ch == '_'),
            "bad metric name: {line}"
        );
        if let Some(labels) = name_part.strip_suffix('}') {
            let labels = &labels[labels.find('{').expect("brace") + 1..];
            for pair in labels.split(',') {
                let (k, v) = pair
                    .split_once('=')
                    .unwrap_or_else(|| panic!("bad: {line}"));
                assert!(!k.is_empty() && v.starts_with('"') && v.ends_with('"'));
            }
        }
    }
}

/// `Pool::recover` publishes its `RecoveryReport` as gauges on the pool's
/// registry, read straight from the report; a created pool reads 0.
#[test]
fn recovery_report_is_exported_as_gauges() {
    let gauge = |pool: &Pool, name: &str| -> f64 {
        let text = pool.metrics().to_prometheus();
        let line = text
            .lines()
            .find(|l| l.starts_with(&format!("{name} ")))
            .unwrap_or_else(|| panic!("{name} missing in {text}"));
        line[name.len() + 1..].parse().expect("gauge value")
    };
    const GAUGES: [&str; 5] = [
        "respct_recovery_failed_epoch",
        "respct_recovery_cells_scanned",
        "respct_recovery_cells_rolled_back",
        "respct_recovery_duration_seconds",
        "respct_recovery_scan_span_seconds",
    ];
    let region = Region::new(RegionConfig::sim(4 << 20, SimConfig::no_eviction(43)));
    let created = Pool::create(Arc::clone(&region), PoolConfig::default()).expect("pool");
    for name in GAUGES {
        assert_eq!(gauge(&created, name), 0.0, "{name}");
    }
    let h = created.register();
    let cells: Vec<_> = (0..100u64).map(|i| h.alloc_cell(i)).collect();
    h.checkpoint_here();
    for c in &cells {
        h.update(*c, 7); // the crashed epoch
    }
    drop(h);
    drop(created);
    // Every store persisted: the dirty tags reach the image.
    let img = region.crash(CrashMode::EvictAll);
    region.restore(&img);
    let (pool, report) = Pool::recover(region, PoolConfig::default()).expect("recover");
    assert!(report.cells_rolled_back >= 100, "{report:?}");
    let wants = [
        report.failed_epoch as f64,
        report.cells_scanned as f64,
        report.cells_rolled_back as f64,
        report.duration.as_secs_f64(),
        report.scan_span.as_secs_f64(),
    ];
    for (name, want) in GAUGES.into_iter().zip(wants) {
        let got = gauge(&pool, name);
        assert!((got - want).abs() <= want * 1e-6, "{name}: {got} vs {want}");
    }
    assert!(gauge(&pool, "respct_recovery_duration_seconds") > 0.0);
}

// ---- TCP sink -------------------------------------------------------------

/// `Pool::serve_metrics` answers `GET /metrics` with the Prometheus text
/// format and `GET /json` with the JSON snapshot, until the guard drops.
#[test]
fn metrics_server_serves_both_formats() {
    let pool = pool(64, PoolConfig::default());
    let h = pool.register();
    let c = h.alloc_cell(1u64);
    h.update(c, 2u64);
    h.checkpoint_here();

    let guard = pool.serve_metrics("127.0.0.1:0").expect("bind");
    let addr = guard.local_addr();

    let get = |path: &str| {
        let mut conn = TcpStream::connect(addr).expect("connect");
        let req = format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
        conn.write_all(req.as_bytes()).expect("send request");
        let mut buf = String::new();
        conn.read_to_string(&mut buf).expect("read");
        buf
    };

    let prom = get("/metrics");
    assert!(prom.starts_with("HTTP/1.1 200"), "response: {prom}");
    assert!(prom.contains("# TYPE respct_checkpoint_total_ns histogram"));
    assert!(prom.contains("respct_checkpoint_total_ns_count 1"));

    let json = get("/json");
    assert!(json.starts_with("HTTP/1.1 200"));
    assert!(json.contains("application/json"));
    let body = json.split("\r\n\r\n").nth(1).expect("body");
    assert!(body.trim_start().starts_with('{') && body.trim_end().ends_with('}'));

    let missing = get("/nope");
    assert!(missing.starts_with("HTTP/1.1 404"));

    drop(guard);
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(300)).is_err()
            || TcpStream::connect(addr).map_or(true, |mut s| {
                let _ = write!(s, "GET /metrics HTTP/1.1\r\n\r\n");
                let mut b = String::new();
                s.read_to_string(&mut b).ok();
                b.is_empty()
            }),
        "server must stop answering after the guard drops"
    );
}
