//! `crash_recover`: how long `Pool::open` takes on a pool that crashed
//! mid-epoch, on the mmap backend.
//!
//! The crashed image is built once — a `PHashMap` of k→k filled by the
//! load threads and checkpointed, then an epoch that overwrites one key in
//! eight and is dropped without a checkpoint — and snapshotted. Every rep
//! copies the snapshot back (untimed), times `Pool::open` on it, and checks
//! the recovered pool three ways: `verify()` is clean, the rolled-back
//! count repeats and covers the overwritten keys, and the content is k→k
//! again. The failure-free path does no work here at all.
//!
//! The pool file's pages come from the OS page cache, not from a device:
//! the times are this sandbox's, and only their changes mean anything.

use std::path::Path;
use std::time::{Duration, Instant};

use respct::{Pool, PoolConfig, RecoveryReport};
use respct_ds::{hash_u64, PHashMap};

use crate::guard::TempDir;
use crate::json::Json;
use crate::metrics::Outcome;
use crate::plan::{peak_rss_mib, tmp_parent, Plan, LOAD_THREADS};
use crate::stats::{median, undisturbed_time};
use crate::trace::{ThreadTrace, Tracer};

fn pool_config(plan: &Plan) -> Result<PoolConfig, String> {
    PoolConfig::builder()
        .size(plan.recover_pool_bytes)
        .build()
        .map_err(|e| format!("pool config: {e:?}"))
}

/// Whether the crashed epoch overwrites `k` (one key in eight, chosen by
/// the run's seed).
fn overwritten(k: u64, seed: u64) -> bool {
    hash_u64(k ^ seed).is_multiple_of(8)
}

/// Runs `body(lo..hi)` over `0..elements` split across the load threads.
fn split_keys(elements: u64, body: impl Fn(std::ops::Range<u64>) + Sync) {
    let per = elements.div_ceil(LOAD_THREADS as u64);
    std::thread::scope(|s| {
        for t in 0..LOAD_THREADS as u64 {
            let body = &body;
            s.spawn(move || body(t * per..((t + 1) * per).min(elements)));
        }
    });
}

/// Builds the crashed image at `path`; returns how many keys the crashed
/// epoch overwrote.
fn build_crashed_image(path: &Path, plan: &Plan) -> Result<u64, String> {
    let _ = std::fs::remove_file(path);
    let (pool, recovered) =
        Pool::open(path, pool_config(plan)?).map_err(|e| format!("create pool: {e:?}"))?;
    if recovered.is_some() {
        return Err("a fresh pool file took the recovery path".into());
    }
    let elements = plan.recover_elements;
    let h = pool.register();
    let map = PHashMap::create(&h, elements / 2);
    h.set_root(map.desc());
    split_keys(elements, |keys| {
        let h = pool.register();
        for k in keys {
            map.insert(&h, k, k);
        }
    });
    h.checkpoint_here();
    // The epoch that crashes.
    split_keys(elements, |keys| {
        let h = pool.register();
        for k in keys.filter(|&k| overwritten(k, plan.seed)) {
            map.insert(&h, k, !k);
        }
    });
    drop(h);
    drop(map);
    // No final checkpoint: the file on disk is mid-epoch.
    drop(pool);
    Ok((0..elements).filter(|&k| overwritten(k, plan.seed)).count() as u64)
}

/// One recovery and everything measured around it.
struct Rep {
    open: Duration,
    /// Reading the same file into memory once: what a program that keeps a
    /// plain snapshot pays to restart (the transient twin of recovery).
    plain_read: Duration,
    verify: Duration,
    report: RecoveryReport,
    good: bool,
}

/// Runs `body` inside a span called `name` (when tracing) and times it.
fn spanned<T>(
    tt: &mut Option<&mut ThreadTrace<'_>>,
    name: &'static str,
    body: impl FnOnce() -> T,
) -> (T, Duration) {
    if let Some(tt) = tt {
        tt.enter(name);
    }
    let t0 = Instant::now();
    let value = body();
    let took = t0.elapsed();
    if let Some(tt) = tt {
        tt.exit();
    }
    (value, took)
}

fn rep(
    snapshot: &Path,
    path: &Path,
    plan: &Plan,
    want_rolled_back: &mut Option<u64>,
    overwritten_keys: u64,
    mut tt: Option<&mut ThreadTrace<'_>>,
) -> Result<Rep, String> {
    let tt = &mut tt;
    let cfg = pool_config(plan)?;
    if let Some(tt) = tt {
        tt.enter("recovery.rep");
    }
    spanned(tt, "recovery.restore", || std::fs::copy(snapshot, path))
        .0
        .map_err(|e| format!("restore crashed image: {e}"))?;
    let (bytes, plain_read) = spanned(tt, "recovery.plain_read", || std::fs::read(path));
    drop(std::hint::black_box(
        bytes.map_err(|e| format!("read pool file: {e}"))?,
    ));
    let (opened, open) = spanned(tt, "recovery.open", || Pool::open(path, cfg));
    let (pool, report) = opened.map_err(|e| format!("Pool::open on the crashed image: {e:?}"))?;
    let report = report.ok_or("an existing image took the create path")?;
    let (clean, verify) = spanned(tt, "recovery.verify", || pool.verify().is_clean());
    let (content_ok, _) = spanned(tt, "recovery.content", || {
        let mut pairs = PHashMap::open(&pool, pool.root()).collect();
        pairs.sort_unstable();
        pairs.len() as u64 == plan.recover_elements
            && pairs
                .iter()
                .enumerate()
                .all(|(i, &(k, v))| k == i as u64 && v == k)
    });
    drop(pool);
    if let Some(tt) = tt {
        tt.exit();
    }
    let rolled_back = *want_rolled_back.get_or_insert(report.cells_rolled_back);
    Ok(Rep {
        open,
        plain_read,
        verify,
        report,
        good: clean
            && content_ok
            && report.cells_rolled_back == rolled_back
            && report.cells_rolled_back >= overwritten_keys,
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// Runs the workload; with a tracer, every rep after the first third is
/// recorded as spans and the per-layer metrics are reported.
pub fn run(plan: &Plan, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = TempDir::create(&tmp_parent(), "crash_recover")
        .map_err(|e| format!("create temp directory: {e}"))?;
    let path = dir.path().join("pool");
    let snapshot = dir.path().join("pool.crashed");

    let mut setup = Vec::new();
    let mut overwritten_keys = 0;
    for _ in 0..plan.setup_reps {
        let t0 = Instant::now();
        overwritten_keys = build_crashed_image(&path, plan)?;
        std::fs::rename(&path, &snapshot).map_err(|e| format!("snapshot the image: {e}"))?;
        setup.push(t0.elapsed().as_secs_f64());
    }

    let mut tt = tracer.map(Tracer::thread);
    let measure_for = Duration::from_secs_f64(plan.seconds);
    let started = Instant::now();
    let mut want_rolled_back = None;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.len() + traced.len() < plan.recover_min_reps || started.elapsed() < measure_for {
        // In a traced run the first reps of every three go unrecorded: the
        // reference the tracing overhead is read against.
        let record = tt.is_some() && (plain.len() + traced.len()) % 3 != 0;
        let r = rep(
            &snapshot,
            &path,
            plan,
            &mut want_rolled_back,
            overwritten_keys,
            if record { tt.as_mut() } else { None },
        )?;
        out.attempted += 1;
        out.failed += u64::from(!r.good);
        if record { &mut traced } else { &mut plain }.push(r);
    }

    let cells_per_s = |r: &Rep| r.report.cells_scanned as f64 / r.open.as_secs_f64();
    if tracer.is_none() {
        out.set("setup_s", median(&setup));
        let times = |f: fn(&Rep) -> Duration| -> Vec<f64> {
            plain.iter().map(|r| f(r).as_secs_f64()).collect()
        };
        out.set(
            "slowdown_vs_transient",
            undisturbed_time(&times(|r| r.open)) / undisturbed_time(&times(|r| r.plain_read)),
        );
        out.set(
            "peak_rss_mib",
            peak_rss_mib(std::process::id()).unwrap_or(f64::NAN),
        );
        out.note("reps", Json::Num(plain.len() as f64));
        out.note("cells_per_s", Json::Num(median_of(&plain, cells_per_s)));
        out.note("recover_ms", Json::Num(median_of(&plain, |r| ms(r.open))));
        out.note("overwritten_keys", Json::Num(overwritten_keys as f64));
    } else {
        out.set("e2e.ops_per_s", median_of(&plain, cells_per_s));
        out.set("e2e.op_p50_us", median_of(&plain, |r| ms(r.open) * 1e3));
        out.set("recovery.open_ms", median_of(&traced, |r| ms(r.open)));
        out.set(
            "recovery.scan_span_ms",
            median_of(&traced, |r| ms(r.report.scan_span)),
        );
        out.set(
            "recovery.cells_scanned",
            median_of(&traced, |r| r.report.cells_scanned as f64),
        );
        out.set(
            "recovery.cells_rolled_back",
            median_of(&traced, |r| r.report.cells_rolled_back as f64),
        );
        out.set(
            "recovery.ns_per_cell",
            median_of(&traced, |r| {
                r.open.as_nanos() as f64 / r.report.cells_scanned as f64
            }),
        );
        out.set("recovery.verify_ms", median_of(&traced, |r| ms(r.verify)));
        out.set(
            "trace.overhead_ratio",
            median_of(&plain, cells_per_s) / median_of(&traced, cells_per_s),
        );
        out.note("reps", Json::Num((plain.len() + traced.len()) as f64));
    }
    Ok(out)
}
