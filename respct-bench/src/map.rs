//! `map_write` / `map_read`: the paper's hash-map experiment, in process.
//!
//! Two structures are built once — `PHashMap` under ResPCT with a periodic
//! checkpointer, and its `NvmmHashMap` twin (same region config, no
//! persistence machinery) — and measured in alternating windows by the
//! same closed loop. Each load thread owns a disjoint part of the key
//! space and keeps an exact shadow model of it, so every operation's
//! result is checked as it returns and the whole map is swept against the
//! model at the end.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use respct::{CkptReport, Pool, PoolConfig, ThreadHandle};
use respct_baselines::nvheap::NvCtx;
use respct_baselines::transient_nvmm::NvmmHashMap;
use respct_ds::traits::BenchMap;
use respct_ds::{rp_ids, PHashMap};
use respct_pmem::{Region, RegionConfig};

use crate::json::Json;
use crate::metrics::Outcome;
use crate::plan::{peak_rss_mib, Plan, LOAD_THREADS, WINDOW};
use crate::stats::{median, percentile, undisturbed_rate};
use crate::trace::{ThreadTrace, Tracer};

/// Operations between two looks at the stop flag, and the unit the
/// per-operation p50 is timed in: one clock read per batch keeps timing
/// out of the loop.
const BATCH: u64 = 64;
/// Unmeasured window pairs before the first measured one.
const WARMUP_PAIRS: usize = 2;
const ABSENT: u64 = u64::MAX;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 45 % insert / 45 % remove / 10 % get.
    Write,
    /// 5 % insert / 5 % remove / 90 % get.
    Read,
}

impl Mix {
    fn update_pct(self) -> u64 {
        match self {
            Mix::Write => 90,
            Mix::Read => 10,
        }
    }
}

#[derive(Clone, Copy)]
enum OpKind {
    Insert,
    Remove,
    Get,
}

/// What one load thread carries from window to window: its slice of the
/// key space, the model of that slice, and its input stream.
struct ThreadState {
    base: u64,
    model: Vec<u64>,
    rng: u64,
}

impl ThreadState {
    fn new(plan: &Plan, arm: u64, thread: usize) -> ThreadState {
        let per_thread = plan.map_keys / LOAD_THREADS as u64;
        ThreadState {
            base: thread as u64 * per_thread,
            model: vec![ABSENT; per_thread as usize],
            rng: (plan.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (arm << 32) ^ thread as u64) | 1,
        }
    }

    #[inline]
    fn next(&mut self, mix: Mix) -> (OpKind, usize, u64) {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        let index = ((x >> 8) % self.model.len() as u64) as usize;
        let roll = x % 100;
        let kind = if roll >= mix.update_pct() {
            OpKind::Get
        } else if roll.is_multiple_of(2) {
            OpKind::Insert
        } else {
            OpKind::Remove
        };
        (kind, index, x >> 1)
    }
}

/// The two maps behind one pair of verbs, with the restart point apart
/// from the operation so the traced loop can time them separately. The
/// untraced loop does not use this: it goes through the repo's own
/// [`BenchMap`] adapter.
trait SplitOps: Sync {
    type Ctx;
    const OP_SPANS: [&'static str; 3];
    fn register(&self) -> Self::Ctx;
    fn insert(&self, ctx: &mut Self::Ctx, k: u64, v: u64) -> bool;
    fn remove(&self, ctx: &mut Self::Ctx, k: u64) -> bool;
    fn get(&self, ctx: &mut Self::Ctx, k: u64) -> Option<u64>;
    /// The restart point the adapter places after `kind`; `false` when the
    /// structure has none.
    fn rp(&self, ctx: &mut Self::Ctx, kind: OpKind) -> bool;
}

impl SplitOps for PHashMap {
    type Ctx = ThreadHandle;
    const OP_SPANS: [&'static str; 3] = ["ds.map_insert", "ds.map_remove", "ds.map_get"];
    fn register(&self) -> ThreadHandle {
        BenchMap::register(self)
    }
    fn insert(&self, h: &mut ThreadHandle, k: u64, v: u64) -> bool {
        PHashMap::insert(self, h, k, v)
    }
    fn remove(&self, h: &mut ThreadHandle, k: u64) -> bool {
        PHashMap::remove(self, h, k)
    }
    fn get(&self, h: &mut ThreadHandle, k: u64) -> Option<u64> {
        PHashMap::get(self, h, k)
    }
    fn rp(&self, h: &mut ThreadHandle, kind: OpKind) -> bool {
        h.rp(match kind {
            OpKind::Insert => rp_ids::MAP_INSERT,
            OpKind::Remove => rp_ids::MAP_REMOVE,
            OpKind::Get => rp_ids::MAP_GET,
        });
        true
    }
}

impl SplitOps for NvmmHashMap {
    type Ctx = NvCtx;
    const OP_SPANS: [&'static str; 3] = [
        "ds.transient_insert",
        "ds.transient_remove",
        "ds.transient_get",
    ];
    fn register(&self) -> NvCtx {
        BenchMap::register(self)
    }
    fn insert(&self, ctx: &mut NvCtx, k: u64, v: u64) -> bool {
        NvmmHashMap::insert(self, ctx, k, v)
    }
    fn remove(&self, ctx: &mut NvCtx, k: u64) -> bool {
        NvmmHashMap::remove(self, ctx, k)
    }
    fn get(&self, _ctx: &mut NvCtx, k: u64) -> Option<u64> {
        NvmmHashMap::get(self, k)
    }
    fn rp(&self, _ctx: &mut NvCtx, _kind: OpKind) -> bool {
        false
    }
}

/// One thread's share of one window.
#[derive(Default)]
struct ThreadWindow {
    ops: u64,
    updates: u64,
    failed: u64,
    secs: f64,
    batch_ns: Vec<u64>,
}

impl ThreadWindow {
    /// Median batch time ÷ [`BATCH`], in µs: what one operation and its
    /// restart point cost when nothing stalls.
    fn op_p50_us(&mut self) -> f64 {
        self.batch_ns.sort_unstable();
        percentile(&self.batch_ns, 0.5) as f64 / BATCH as f64 / 1e3
    }
}

/// What an operation returned.
enum Done {
    Insert(bool),
    Remove(bool),
    Get(Option<u64>),
}

impl ThreadState {
    /// Checks an operation's result against the model and brings the model
    /// up to date. Returns whether the result was wrong.
    #[inline]
    fn verify(&mut self, index: usize, value: u64, done: Done) -> bool {
        let slot = &mut self.model[index];
        match done {
            Done::Insert(fresh) => {
                let wrong = fresh != (*slot == ABSENT);
                *slot = value;
                wrong
            }
            Done::Remove(was_present) => {
                let wrong = was_present != (*slot != ABSENT);
                *slot = ABSENT;
                wrong
            }
            Done::Get(got) => got != (*slot != ABSENT).then_some(*slot),
        }
    }
}

impl ThreadWindow {
    #[inline]
    fn count(&mut self, kind: OpKind, wrong: bool) {
        self.updates += u64::from(!matches!(kind, OpKind::Get));
        self.failed += u64::from(wrong);
    }
}

/// The untraced closed loop, through the repo's `BenchMap` adapter (which
/// places the restart point after every operation).
fn plain_window<M: BenchMap>(
    map: &M,
    st: &mut ThreadState,
    mix: Mix,
    start: &Barrier,
    stop: &AtomicBool,
) -> ThreadWindow {
    let mut ctx = map.register();
    let mut w = ThreadWindow::default();
    start.wait();
    let t0 = Instant::now();
    let mut last = t0;
    loop {
        for _ in 0..BATCH {
            let (kind, index, value) = st.next(mix);
            let k = st.base + index as u64;
            let done = match kind {
                OpKind::Insert => Done::Insert(map.insert(&mut ctx, k, value)),
                OpKind::Remove => Done::Remove(map.remove(&mut ctx, k)),
                OpKind::Get => Done::Get(map.get(&mut ctx, k)),
            };
            w.count(kind, st.verify(index, value, done));
        }
        w.ops += BATCH;
        let now = Instant::now();
        w.batch_ns.push((now - last).as_nanos() as u64);
        last = now;
        if stop.load(Ordering::Relaxed) {
            break;
        }
    }
    w.secs = t0.elapsed().as_secs_f64();
    // A registered thread that is not running holds every checkpoint
    // back, so the context goes before anything else can wait.
    drop(ctx);
    w
}

/// Span names of one traced pass.
#[derive(Clone, Copy)]
struct PassSpans {
    window: &'static str,
    rp: &'static str,
    checkpoint: &'static str,
}

const MAIN_PASS: PassSpans = PassSpans {
    window: "window",
    rp: "thread.rp",
    checkpoint: "checkpoint.call",
};

/// The traced closed loop: the same operations, with a span around each
/// call into the map and a second one around its restart point.
fn traced_window<M: SplitOps>(
    map: &M,
    st: &mut ThreadState,
    mix: Mix,
    start: &Barrier,
    stop: &AtomicBool,
    tt: &mut ThreadTrace<'_>,
    spans: PassSpans,
) -> ThreadWindow {
    let mut ctx = map.register();
    let mut w = ThreadWindow::default();
    start.wait();
    tt.enter(spans.window);
    let t0 = Instant::now();
    loop {
        for _ in 0..BATCH {
            let (kind, index, value) = st.next(mix);
            let k = st.base + index as u64;
            let begin = tt.now();
            let done = match kind {
                OpKind::Insert => Done::Insert(map.insert(&mut ctx, k, value)),
                OpKind::Remove => Done::Remove(map.remove(&mut ctx, k)),
                OpKind::Get => Done::Get(map.get(&mut ctx, k)),
            };
            let end = tt.now();
            tt.leaf(M::OP_SPANS[kind as usize], begin, end);
            if map.rp(&mut ctx, kind) {
                tt.leaf(spans.rp, end, tt.now());
            }
            w.count(kind, st.verify(index, value, done));
        }
        w.ops += BATCH;
        if stop.load(Ordering::Relaxed) {
            break;
        }
    }
    w.secs = t0.elapsed().as_secs_f64();
    drop(ctx);
    tt.exit();
    w
}

/// A whole window: every thread's share, plus what the checkpointer did.
#[derive(Default)]
struct Window {
    ops_per_s: f64,
    ops: u64,
    updates: u64,
    failed: u64,
    wall_s: f64,
    /// Mean over the threads of each thread's own p50 (untraced windows
    /// only): pooling two threads' batches would put the median between
    /// two modes whenever the threads run at different speeds.
    op_p50_us: f64,
    /// `(call duration ns, report)` per checkpoint (traced windows only).
    checkpoints: Vec<(u64, CkptReport)>,
    pwb: u64,
    psync: u64,
}

impl Window {
    /// Sums the threads' shares: rates add up, the wall is the longest.
    fn of(threads: Vec<ThreadWindow>) -> Window {
        let mut w = Window::default();
        let n = threads.len() as f64;
        for mut t in threads {
            w.ops_per_s += t.ops as f64 / t.secs;
            w.ops += t.ops;
            w.updates += t.updates;
            w.failed += t.failed;
            w.wall_s = w.wall_s.max(t.secs);
            w.op_p50_us += t.op_p50_us() / n;
        }
        w
    }
}

/// Runs `body(thread, state, start, stop)` on every load thread for
/// one [`WINDOW`], with `extra` alongside them inside the same scope.
fn run_threads<'s, R: Send>(
    states: &'s mut [ThreadState],
    body: impl Fn(&'s mut ThreadState, &Barrier, &AtomicBool) -> ThreadWindow + Sync,
    extra: impl FnOnce(&AtomicBool) -> R + Send,
) -> (Vec<ThreadWindow>, R) {
    let start = Barrier::new(states.len() + 1);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let handles: Vec<_> = states
            .iter_mut()
            .map(|st| {
                let (body, start, stop) = (&body, &start, &stop);
                s.spawn(move || body(st, start, stop))
            })
            .collect();
        let side = s.spawn(|| extra(&stop));
        start.wait();
        std::thread::sleep(WINDOW);
        stop.store(true, Ordering::Relaxed);
        let threads = handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect();
        (threads, side.join().expect("window side thread"))
    })
}

/// The ResPCT arm: pool, map, and each thread's model of its keys.
struct RespctArm {
    pool: Arc<Pool>,
    map: PHashMap,
    states: Vec<ThreadState>,
}

/// The transient twin on the same region config.
struct NvmmArm {
    map: NvmmHashMap,
    states: Vec<ThreadState>,
}

/// Inserts every other key of each thread's slice, by its owner.
fn prefill<M: BenchMap>(map: &M, states: &mut [ThreadState]) {
    std::thread::scope(|s| {
        for st in states.iter_mut() {
            s.spawn(move || {
                let mut ctx = map.register();
                for index in (0..st.model.len()).step_by(2) {
                    let value = (st.base + index as u64).wrapping_mul(3);
                    map.insert(&mut ctx, st.base + index as u64, value);
                    st.model[index] = value;
                }
            });
        }
    });
}

impl RespctArm {
    fn build(plan: &Plan, cfg: PoolConfig) -> RespctArm {
        let region = Region::new(RegionConfig::optane(plan.map_region_bytes));
        let pool = Pool::create(region, cfg).expect("map pool");
        let h = pool.register();
        let map = PHashMap::create(&h, plan.map_buckets);
        drop(h);
        let mut states: Vec<_> = (0..LOAD_THREADS)
            .map(|t| ThreadState::new(plan, 0, t))
            .collect();
        prefill(&map, &mut states);
        // The pre-fill dirtied every node; flush it here so the first
        // measured checkpoint is an ordinary one.
        pool.checkpoint_now();
        RespctArm { pool, map, states }
    }

    fn plain(&mut self, plan: &Plan, mix: Mix) -> Window {
        let ckpt = self.pool.start_checkpointer(plan.map_ckpt_period);
        let map = &self.map;
        let (threads, ()) = run_threads(
            &mut self.states,
            |st, start, stop| plain_window(map, st, mix, start, stop),
            |_| (),
        );
        drop(ckpt);
        Window::of(threads)
    }

    /// A traced window. The bench's own `sleep(period); checkpoint_now()`
    /// loop stands in for `start_checkpointer` so each call can be timed
    /// and its report kept.
    fn traced(&mut self, plan: &Plan, mix: Mix, tracer: &Tracer, spans: PassSpans) -> Window {
        let (map, pool) = (&self.map, &self.pool);
        let before = pool.region().stats().snapshot();
        let period = plan.map_ckpt_period;
        let (threads, checkpoints) = run_threads(
            &mut self.states,
            |st, start, stop| {
                let mut tt = tracer.thread();
                traced_window(map, st, mix, start, stop, &mut tt, spans)
            },
            |stop| {
                let mut tt = tracer.thread();
                let mut calls = Vec::new();
                tt.enter(spans.window);
                loop {
                    std::thread::sleep(period);
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let begin = tt.now();
                    let report = pool.checkpoint_now();
                    let done = tt.now();
                    tt.leaf(spans.checkpoint, begin, done);
                    calls.push((done - begin, report));
                }
                tt.exit();
                calls
            },
        );
        let delta = pool.region().stats().snapshot().since(&before);
        Window {
            checkpoints,
            pwb: delta.pwb,
            psync: delta.psync,
            ..Window::of(threads)
        }
    }
}

impl NvmmArm {
    fn build(plan: &Plan) -> NvmmArm {
        let region = Region::new(RegionConfig::optane(plan.map_region_bytes));
        let map = NvmmHashMap::new(region, plan.map_buckets);
        let mut states: Vec<_> = (0..LOAD_THREADS)
            .map(|t| ThreadState::new(plan, 1, t))
            .collect();
        prefill(&map, &mut states);
        NvmmArm { map, states }
    }

    fn plain(&mut self, mix: Mix) -> Window {
        let map = &self.map;
        let (threads, ()) = run_threads(
            &mut self.states,
            |st, start, stop| plain_window(map, st, mix, start, stop),
            |_| (),
        );
        Window::of(threads)
    }

    fn traced(&mut self, mix: Mix, tracer: &Tracer) -> Window {
        let map = &self.map;
        let (threads, ()) = run_threads(
            &mut self.states,
            |st, start, stop| {
                let mut tt = tracer.thread();
                traced_window(map, st, mix, start, stop, &mut tt, MAIN_PASS)
            },
            |_| (),
        );
        Window::of(threads)
    }
}

/// Reads every key of every thread's slice back and counts disagreements
/// with the model. Returns `(checked, wrong)`.
fn sweep<M: BenchMap>(map: &M, states: &[ThreadState]) -> (u64, u64) {
    std::thread::scope(|s| {
        let handles: Vec<_> = states
            .iter()
            .map(|st| {
                s.spawn(move || {
                    let mut ctx = map.register();
                    let wrong = st
                        .model
                        .iter()
                        .enumerate()
                        .filter(|&(index, &want)| {
                            map.get(&mut ctx, st.base + index as u64)
                                != (want != ABSENT).then_some(want)
                        })
                        .count();
                    (st.model.len() as u64, wrong as u64)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep thread"))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    })
}

/// Sweeps both arms and counts the result into the run's totals.
fn sweep_both(out: &mut Outcome, respct: &RespctArm, nvmm: &NvmmArm) {
    for (checked, wrong) in [
        sweep(&respct.map, &respct.states),
        sweep(&nvmm.map, &nvmm.states),
    ] {
        out.attempted += checked;
        out.failed += wrong;
    }
}

/// Builds both arms `plan.setup_reps` times; returns the last pair and
/// the median build time.
fn set_up(plan: &Plan) -> (RespctArm, NvmmArm, f64) {
    let mut times = Vec::new();
    let mut arms = None;
    for _ in 0..plan.setup_reps {
        drop(arms.take());
        let t0 = Instant::now();
        let built = (
            RespctArm::build(plan, PoolConfig::default()),
            NvmmArm::build(plan),
        );
        times.push(t0.elapsed().as_secs_f64());
        arms = Some(built);
    }
    let (respct, nvmm) = arms.expect("setup_reps >= 1");
    (respct, nvmm, median(&times))
}

fn windows_json(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

/// Counts a finished window into the run's totals.
fn tally(out: &mut Outcome, w: &Window) {
    out.attempted += w.ops;
    out.failed += w.failed;
}

/// Median rate and median per-operation p50 of untraced `respct`
/// windows: the absolute numbers, which this host cannot hold steady from
/// one run to the next (see the README) and so are not bounded.
fn absolute(windows: &[Window]) -> (f64, f64) {
    let of = |f: fn(&Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    (of(|w| w.ops_per_s), of(|w| w.op_p50_us))
}

/// The untraced run: every end-to-end metric.
pub fn run(plan: &Plan, mix: Mix) -> Outcome {
    let mut out = Outcome::default();
    let (mut respct, mut nvmm, setup_s) = set_up(plan);
    // Caches, page tables and the allocator's free lists reach their
    // steady state before anything is timed.
    for _ in 0..WARMUP_PAIRS {
        tally(&mut out, &respct.plain(plan, mix));
        tally(&mut out, &nvmm.plain(mix));
    }
    let (mut windows, mut twin_rates) = (Vec::new(), Vec::new());
    for _ in 0..plan.windows(2) {
        let r = respct.plain(plan, mix);
        let t = nvmm.plain(mix);
        tally(&mut out, &r);
        tally(&mut out, &t);
        twin_rates.push(t.ops_per_s);
        windows.push(r);
    }
    let rates: Vec<f64> = windows.iter().map(|w| w.ops_per_s).collect();
    sweep_both(&mut out, &respct, &nvmm);
    out.set("setup_s", setup_s);
    out.set(
        "slowdown_vs_transient",
        undisturbed_rate(&twin_rates) / undisturbed_rate(&rates),
    );
    out.set(
        "peak_rss_mib",
        peak_rss_mib(std::process::id()).unwrap_or(f64::NAN),
    );
    let (ops_per_s, op_p50_us) = absolute(&windows);
    out.note("ops_per_s", Json::Num(ops_per_s));
    out.note("op_p50_us", Json::Num(op_p50_us));
    out.note("window_ops_per_s", windows_json(&rates));
    out.note("window_transient_ops_per_s", windows_json(&twin_rates));
    out
}

fn sorted_us(ns: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut v: Vec<u64> = ns.collect();
    v.sort_unstable();
    v
}

fn pct_us(sorted_ns: &[u64], q: f64) -> f64 {
    percentile(sorted_ns, q) as f64 / 1e3
}

/// Rate, stall p90 and checkpoint-call p50 of one traced pass — the three
/// columns of the like-for-like checkpoint-mode table.
fn mode_row(out: &mut Outcome, mode: &str, windows: &[Window], stalls_ns: Vec<u64>) {
    let rates: Vec<f64> = windows.iter().map(|w| w.ops_per_s).collect();
    let calls = sorted_us(
        windows
            .iter()
            .flat_map(|w| w.checkpoints.iter().map(|c| c.0)),
    );
    out.set(&format!("checkpoint.{mode}.ops_per_s"), median(&rates));
    out.set(
        &format!("checkpoint.{mode}.rp_stall_p90_us"),
        pct_us(&sorted_us(stalls_ns.into_iter()), 0.9),
    );
    out.set(
        &format!("checkpoint.{mode}.call_us_p50"),
        pct_us(&calls, 0.5),
    );
}

/// One extra traced `map_write` pass on a pool built with `cfg`.
fn extra_pass(
    plan: &Plan,
    cfg: PoolConfig,
    tracer: &Tracer,
    spans: PassSpans,
    out: &mut Outcome,
) -> Vec<Window> {
    let mut arm = RespctArm::build(plan, cfg);
    let windows: Vec<Window> = (0..plan.extra_windows())
        .map(|_| arm.traced(plan, Mix::Write, tracer, spans))
        .collect();
    windows.iter().for_each(|w| tally(out, w));
    windows
}

/// The traced run: every per-layer metric this workload exercises.
pub fn run_traced(plan: &Plan, mix: Mix, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (mut respct, mut nvmm, _) = set_up(&Plan {
        setup_reps: 1,
        ..plan.clone()
    });

    // Untraced reference windows first: the absolute numbers, and what
    // tracing itself costs.
    let plain: Vec<Window> = (0..plan.extra_windows())
        .map(|_| respct.plain(plan, mix))
        .collect();
    plain.iter().for_each(|w| tally(&mut out, w));
    let (ops_per_s, op_p50_us) = absolute(&plain);
    out.set("e2e.ops_per_s", ops_per_s);
    out.set("e2e.op_p50_us", op_p50_us);

    let mut main = Vec::new();
    for _ in 0..(plan.windows(2) / 2).max(3) {
        let r = respct.traced(plan, mix, tracer, MAIN_PASS);
        let t = nvmm.traced(mix, tracer);
        tally(&mut out, &r);
        tally(&mut out, &t);
        main.push(r);
    }
    let traced_rate = median(&main.iter().map(|w| w.ops_per_s).collect::<Vec<_>>());
    out.set("trace.overhead_ratio", ops_per_s / traced_rate);

    let (ops, updates, wall): (u64, u64, f64) = main.iter().fold((0, 0, 0.0), |a, w| {
        (a.0 + w.ops, a.1 + w.updates, a.2 + w.wall_s)
    });
    out.set(
        "pmem.pwb_per_op",
        main.iter().map(|w| w.pwb).sum::<u64>() as f64 / ops as f64,
    );
    out.set(
        "pmem.psync_per_op",
        main.iter().map(|w| w.psync).sum::<u64>() as f64 / ops as f64,
    );
    let reports: Vec<&(u64, CkptReport)> = main.iter().flat_map(|w| &w.checkpoints).collect();
    let lines: u64 = reports.iter().map(|c| c.1.lines).sum();
    out.set(
        "incll.first_touch_ratio",
        lines as f64 / updates.max(1) as f64,
    );

    let stalls = sorted_us(tracer.durations(MAIN_PASS.rp).into_iter());
    out.set("thread.rp_stall_p50_us", pct_us(&stalls, 0.5));
    out.set("thread.rp_stall_p90_us", pct_us(&stalls, 0.9));
    out.set("thread.rp_stall_count", stalls.len() as f64);
    out.set(
        "thread.rp_stall_share",
        stalls.iter().sum::<u64>() as f64 / 1e9 / (LOAD_THREADS as f64 * wall),
    );

    let calls = sorted_us(reports.iter().map(|c| c.0));
    out.set("checkpoint.call_us_p50", pct_us(&calls, 0.5));
    out.set("checkpoint.call_us_p90", pct_us(&calls, 0.9));
    out.set("checkpoint.per_s", calls.len() as f64 / wall);
    out.set(
        "checkpoint.busy_share",
        calls.iter().sum::<u64>() as f64 / 1e9 / wall,
    );
    let field = |f: fn(&CkptReport) -> u64| sorted_us(reports.iter().map(|c| f(&c.1)));
    out.set(
        "checkpoint.lines_p50",
        percentile(&field(|r| r.lines), 0.5) as f64,
    );
    out.set("checkpoint.wait_us_p50", pct_us(&field(|r| r.wait_ns), 0.5));
    out.set(
        "checkpoint.flush_us_p50",
        pct_us(&field(|r| r.flush_ns), 0.5),
    );
    out.set(
        "checkpoint.drain_us_p50",
        pct_us(&field(|r| r.drain_ns), 0.5),
    );
    out.note("checkpoints", Json::Num(calls.len() as f64));

    for (metric, span) in [
        ("ds.map_insert_ns", PHashMap::OP_SPANS[0]),
        ("ds.map_remove_ns", PHashMap::OP_SPANS[1]),
        ("ds.map_get_ns", PHashMap::OP_SPANS[2]),
        ("ds.transient_insert_ns", NvmmHashMap::OP_SPANS[0]),
        ("ds.transient_remove_ns", NvmmHashMap::OP_SPANS[1]),
        ("ds.transient_get_ns", NvmmHashMap::OP_SPANS[2]),
    ] {
        out.set(metric, tracer.folded(span).mean_ns());
    }

    sweep_both(&mut out, &respct, &nvmm);
    drop((respct, nvmm));

    if mix == Mix::Write {
        mode_row(&mut out, "sync", &main, tracer.durations(MAIN_PASS.rp));
        let config = |b: respct::PoolConfigBuilder| b.build().expect("pool config");
        let spans = PassSpans {
            window: "window.async",
            rp: "thread.rp.async",
            checkpoint: "checkpoint.call.async",
        };
        let cfg = config(PoolConfig::builder().async_checkpoint(true));
        let windows = extra_pass(plan, cfg, tracer, spans, &mut out);
        mode_row(&mut out, "async", &windows, tracer.durations(spans.rp));
        let spans = PassSpans {
            window: "window.pipelined",
            rp: "thread.rp.pipelined",
            checkpoint: "checkpoint.call.pipelined",
        };
        let cfg = config(
            PoolConfig::builder()
                .async_checkpoint(true)
                .epoch_pipeline(4),
        );
        let windows = extra_pass(plan, cfg, tracer, spans, &mut out);
        mode_row(&mut out, "pipelined", &windows, tracer.durations(spans.rp));
        let spans = PassSpans {
            window: "window.metrics_off",
            rp: "thread.rp.metrics_off",
            checkpoint: "checkpoint.call.metrics_off",
        };
        let cfg = config(PoolConfig::builder().metrics(false));
        let windows = extra_pass(plan, cfg, tracer, spans, &mut out);
        let off = median(&windows.iter().map(|w| w.ops_per_s).collect::<Vec<_>>());
        out.set("obs.metrics_on_ratio", off / traced_rate);

        let mut tt = tracer.thread();
        crate::micro::run(&mut out, plan.micro_calls, &mut tt);
    }
    out
}
