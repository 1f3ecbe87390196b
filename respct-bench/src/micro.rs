//! Micro-sections: cache-resident loops around one public call of one
//! layer, run inside the traced `map_write` pass.
//!
//! Each number is nanoseconds per call over `calls` calls, the median of
//! [`REPS`] repetitions. They are the unit costs the interaction table in
//! the README multiplies out; none of them is an end-to-end claim.

use std::hint::black_box;
use std::time::{Duration, Instant};

use respct::{ICell, PAddr, Pool, PoolConfig, ThreadHandle};
use respct_obs::{Counter, Histogram};
use respct_pmem::{Region, RegionConfig, CACHE_LINE};

use crate::metrics::Outcome;
use crate::stats::median;
use crate::trace::ThreadTrace;

const REPS: usize = 5;
/// Working set of every loop: 4096 slots (1 MiB of `u64` for the raw
/// store/load pair is 131072 words; cells and blocks use 4096).
const WORDS: u64 = (1 << 20) / 8;
const SLOTS: u64 = 4096;

/// Median over [`REPS`] of `timed(calls)` ÷ calls, in nanoseconds.
pub fn ns_per_call(calls: u64, mut timed: impl FnMut(u64) -> Duration) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| timed(calls).as_nanos() as f64 / calls as f64)
        .collect();
    median(&reps)
}

/// Times `body(i)` for `i in 0..calls` as one block.
fn block(calls: u64, mut body: impl FnMut(u64)) -> Duration {
    let t0 = Instant::now();
    for i in 0..calls {
        body(i);
    }
    t0.elapsed()
}

/// Runs `calls` calls (a multiple of [`SLOTS`]) in passes of [`SLOTS`],
/// with `between` (untimed) before each pass — how the first-touch and
/// allocator loops get a fresh epoch per pass without timing the
/// checkpoint that opens it.
fn passes(calls: u64, mut between: impl FnMut(), mut body: impl FnMut(u64)) -> Duration {
    debug_assert_eq!(calls % SLOTS, 0);
    let mut total = Duration::ZERO;
    for _ in 0..calls / SLOTS {
        between();
        total += block(SLOTS, &mut body);
    }
    total
}

fn pmem(out: &mut Outcome, calls: u64) {
    let mut raw = vec![0u64; WORDS as usize];
    out.set(
        "pmem.raw_store_ns",
        ns_per_call(calls, |n| {
            block(n, |i| {
                black_box(&mut raw)[(i & (WORDS - 1)) as usize] = black_box(i);
            })
        }),
    );
    let region = Region::new(RegionConfig::optane(2 << 20));
    let at = |i: u64| PAddr(4096 + (i & (WORDS - 1)) * 8);
    out.set(
        "pmem.store_ns",
        ns_per_call(calls, |n| {
            block(n, |i| region.store::<u64>(at(i), black_box(i)))
        }),
    );
    out.set(
        "pmem.load_ns",
        ns_per_call(calls, |n| {
            block(n, |i| {
                black_box(region.load::<u64>(at(i)));
            })
        }),
    );
    // 64 write-backs and the fence that drains them, per line.
    let lines = (region.size() / CACHE_LINE) as u64;
    out.set(
        "pmem.flush_ns_per_line",
        ns_per_call(calls, |n| {
            block(n / 64, |batch| {
                for l in 0..64 {
                    region.pwb_line((batch * 64 + l) % lines);
                }
                region.psync();
            })
        }),
    );
}

fn runtime(out: &mut Outcome, calls: u64) {
    let pool = Pool::create(
        Region::new(RegionConfig::optane(64 << 20)),
        PoolConfig::default(),
    )
    .expect("micro pool");
    let h: ThreadHandle = pool.register();
    let cells: Vec<ICell<u64>> = (0..SLOTS).map(|_| h.alloc_cell(0u64)).collect();
    let cell = |i: u64| cells[(i & (SLOTS - 1)) as usize];

    // Repeat touch: every cell was already updated in this epoch.
    for i in 0..SLOTS {
        h.update(cell(i), i);
    }
    out.set(
        "incll.update_repeat_ns",
        ns_per_call(calls, |n| block(n, |i| h.update(cell(i), black_box(i)))),
    );
    // First touch: a checkpoint (untimed) opens a new epoch before each
    // pass over the cells, so every update in the pass logs and tracks.
    out.set(
        "incll.update_first_ns",
        ns_per_call(calls, |n| {
            passes(
                n,
                || {
                    h.checkpoint_here();
                },
                |i| h.update(cell(i), black_box(i)),
            )
        }),
    );
    out.set(
        "incll.get_ns",
        ns_per_call(calls, |n| {
            block(n, |i| {
                black_box(h.get(cell(i)));
            })
        }),
    );
    // No checkpointer runs here, so this is the no-checkpoint-pending path.
    out.set(
        "thread.rp_ns",
        ns_per_call(calls, |n| block(n, |_| h.rp(7u64))),
    );
    // Frees are recycled at the next checkpoint; one (untimed) per pass
    // keeps the loop on the recycled-block path `map_write` runs on.
    out.set(
        "alloc.alloc_free_ns",
        ns_per_call(calls, |n| {
            passes(
                n,
                || {
                    h.checkpoint_here();
                },
                |_| {
                    let a = h.alloc(64, 64);
                    h.free(black_box(a), 64);
                },
            )
        }),
    );
}

fn obs(out: &mut Outcome, calls: u64) {
    let hist = Histogram::new();
    out.set(
        "obs.hist_record_ns",
        ns_per_call(calls, |n| block(n, |i| hist.record(black_box(i & 0xffff)))),
    );
    let counter = Counter::new();
    out.set(
        "obs.counter_inc_ns",
        ns_per_call(calls, |n| block(n, |_| counter.inc())),
    );
    black_box((hist.count(), counter.get()));
}

/// Runs every micro-section and records one span per layer.
pub fn run(out: &mut Outcome, calls: u64, tt: &mut ThreadTrace<'_>) {
    tt.enter("micro");
    for (name, section) in [
        ("micro.pmem", pmem as fn(&mut Outcome, u64)),
        ("micro.runtime", runtime),
        ("micro.obs", obs),
    ] {
        tt.enter(name);
        section(out, calls);
        tt.exit();
    }
    tt.exit();
}
