//! End-to-end buffered durable linearizability (paper Proposition 4.11):
//! after a crash at an arbitrary instant, recovery restores exactly the
//! state of the last completed checkpoint — no more, no less.
//!
//! Property-based: random operation sequences on the persistent hash map
//! and queue, with checkpoints interleaved at random points (driven by the
//! worker thread itself or by a separately spawned thread), a simulated
//! power failure at the end **plus a replayed crash at a random
//! mid-sequence instant** (via the sweep engine's image builder), and a
//! model (std collections) snapshotted at every checkpoint as the ground
//! truth.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use proptest::prelude::*;
use respct_analysis::Checker;
use respct_repro::ds::{PHashMap, PQueue};
use respct_repro::pmem::{
    sim::CrashMode, PAddr, Region, RegionConfig, Replayer, SimConfig, TeeSink, VecSink,
};
use respct_repro::respct::{Pool, PoolConfig, PoolError};

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Remove(u64),
    Enqueue(u64),
    Dequeue,
    Checkpoint,
    /// A checkpoint driven by a freshly spawned thread while the worker
    /// sits in the blocking-call protocol (`allow_checkpoints`), the way a
    /// timer checkpointer interleaves with application threads.
    CheckpointFromOtherThread,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0u64..40, any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        3 => (0u64..40).prop_map(Op::Remove),
        4 => any::<u64>().prop_map(Op::Enqueue),
        3 => Just(Op::Dequeue),
        1 => Just(Op::Checkpoint),
        1 => Just(Op::CheckpointFromOtherThread),
    ]
}

#[derive(Default, Clone, PartialEq, Debug)]
struct Model {
    map: HashMap<u64, u64>,
    queue: VecDeque<u64>,
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn recovery_restores_last_checkpoint(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        seed in 0u64..10_000,
        evict_log2 in 1u32..6,
        crash_pct in 0u64..100,
    ) {
        const SIZE: usize = 16 << 20;
        let region = Region::new(RegionConfig::sim(
            SIZE,
            SimConfig::with_eviction(evict_log2, seed),
        ));
        // Every case doubles as a persistency-model check: the trace
        // checker audits the whole run, crash and recovery included — and
        // the same event stream is recorded so a *mid-sequence* crash can
        // be rebuilt and recovered afterwards.
        let checker = Arc::new(Checker::new());
        let recording = Arc::new(VecSink::new());
        let sinks: Vec<Arc<dyn respct_repro::pmem::TraceSink>> =
            vec![checker.clone(), recording.clone()];
        region.set_trace_sink(Arc::new(TeeSink::new(sinks)));
        let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).expect("pool");
        let mut h = pool.register();
        let map = PHashMap::create(&h, 16);
        let queue = PQueue::create(&h);
        // Root block: map descriptor at +0, queue descriptor at +8.
        let root = h.alloc(64, 64);
        h.store_tracked(root, map.desc().0);
        h.store_tracked(PAddr(root.0 + 8), queue.desc().0);
        h.set_root(root);
        h.checkpoint_here();

        let mut model = Model::default();
        let mut durable = model.clone(); // state at the last checkpoint
        // Model snapshots indexed by epoch-counter value: `snaps[e]` is the
        // durable state while the counter reads `e` (None while the
        // containers are not yet checkpointed — epochs 0 and 1).
        let mut snaps: Vec<Option<Model>> = vec![None, None, Some(model.clone())];

        for op in &ops {
            match op {
                Op::Insert(k, v) => {
                    map.insert(&h, *k, *v);
                    model.map.insert(*k, *v);
                    h.rp(1);
                }
                Op::Remove(k) => {
                    map.remove(&h, *k);
                    model.map.remove(k);
                    h.rp(2);
                }
                Op::Enqueue(v) => {
                    queue.enqueue(&h, *v);
                    model.queue.push_back(*v);
                    h.rp(3);
                }
                Op::Dequeue => {
                    let got = queue.dequeue(&h);
                    prop_assert_eq!(got, model.queue.pop_front(), "live dequeue mismatch");
                    h.rp(4);
                }
                Op::Checkpoint => {
                    h.checkpoint_here();
                    durable = model.clone();
                    snaps.push(Some(model.clone()));
                }
                Op::CheckpointFromOtherThread => {
                    // The worker enters the blocking-call protocol; the
                    // spawned thread registers its own handle and drives
                    // the checkpoint, which must quiesce-and-release the
                    // allowing worker correctly.
                    let guard = h.allow_checkpoints();
                    std::thread::scope(|s| {
                        s.spawn(|| {
                            pool.register().checkpoint_here();
                        });
                    });
                    drop(guard);
                    durable = model.clone();
                    snaps.push(Some(model.clone()));
                }
            }
        }

        // Power failure at an arbitrary point, then reboot + recovery.
        drop(h);
        drop(map);
        drop(queue);
        drop(pool);
        let events = recording.drain(); // live-run events only (pre-crash)
        let image = region.crash(CrashMode::PowerFailure);
        region.restore(&image);
        let (pool, _report) = Pool::recover(Arc::clone(&region), PoolConfig::default()).expect("recover");

        let root = pool.root();
        let map = PHashMap::open(&pool, PAddr(pool.region().load(root)));
        let queue = PQueue::open(&pool, PAddr(pool.region().load::<u64>(PAddr(root.0 + 8))));

        let mut got_map: Vec<(u64, u64)> = map.collect();
        got_map.sort_unstable();
        let mut want_map: Vec<(u64, u64)> = durable.map.iter().map(|(&k, &v)| (k, v)).collect();
        want_map.sort_unstable();
        prop_assert_eq!(got_map, want_map, "map must equal the last checkpoint");

        let got_q = queue.collect();
        let want_q: Vec<u64> = durable.queue.iter().copied().collect();
        prop_assert_eq!(got_q, want_q, "queue must equal the last checkpoint");

        // Mid-sequence crash: cut the recorded trace at a random instant,
        // rebuild the crash images reachable there with the sweep engine's
        // image builder, and recover each one. Whatever epoch the cut
        // lands in, the recovered containers must equal that epoch's model
        // snapshot — durability holds at *every* instant, not only at the
        // end-of-run crash above.
        let cut = events.len() * crash_pct as usize / 100;
        let mut replayer = Replayer::new(SIZE);
        for ev in &events[..cut] {
            replayer.apply(ev);
        }
        for (img_idx, img) in replayer.crash_images(3, seed).iter().enumerate() {
            let (pool, rec) = match Pool::recover(Region::from_image(img), PoolConfig::default()) {
                Ok(ok) => ok,
                Err(PoolError::NotAPool) => break, // cut precedes the format
                Err(e) => return Err(TestCaseError::fail(
                    format!("image {img_idx} at cut {cut}: recovery failed: {e}"),
                )),
            };
            let Some(Some(want)) = snaps.get(rec.failed_epoch as usize) else {
                // Epoch 0/1: the containers were never checkpointed; only
                // successful recovery (above) is required.
                continue;
            };
            let root = pool.root();
            let map = PHashMap::open(&pool, PAddr(pool.region().load(root)));
            let queue = PQueue::open(&pool, PAddr(pool.region().load::<u64>(PAddr(root.0 + 8))));
            let mut got_map: Vec<(u64, u64)> = map.collect();
            got_map.sort_unstable();
            let mut want_map: Vec<(u64, u64)> = want.map.iter().map(|(&k, &v)| (k, v)).collect();
            want_map.sort_unstable();
            prop_assert_eq!(
                got_map, want_map,
                "image {} at cut {} (epoch {}): map diverged", img_idx, cut, rec.failed_epoch
            );
            let got_q = queue.collect();
            let want_q: Vec<u64> = want.queue.iter().copied().collect();
            prop_assert_eq!(
                got_q, want_q,
                "image {} at cut {} (epoch {}): queue diverged", img_idx, cut, rec.failed_epoch
            );
        }

        let report = checker.report();
        prop_assert!(
            report.errors().is_empty(),
            "persistency discipline violated:\n{}", report
        );
    }

    #[test]
    fn recovery_is_idempotent(
        nops in 1usize..60,
        seed in 0u64..1000,
    ) {
        // Recover twice from the same image: identical results (a crash
        // during recovery is handled by re-running it).
        let region = Region::new(RegionConfig::sim(8 << 20, SimConfig::with_eviction(3, seed)));
        let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).expect("pool");
        let h = pool.register();
        let map = PHashMap::create(&h, 8);
        h.set_root(map.desc());
        for k in 0..nops as u64 {
            map.insert(&h, k, k);
        }
        h.checkpoint_here();
        for k in 0..nops as u64 {
            map.insert(&h, k, k + 100);
        }
        drop(h);
        drop(map);
        drop(pool);
        let image = region.crash(CrashMode::PowerFailure);

        region.restore(&image);
        let (pool1, r1) = Pool::recover(Arc::clone(&region), PoolConfig::default()).expect("recover");
        let mut a = PHashMap::open(&pool1, pool1.root()).collect();
        a.sort_unstable();
        drop(pool1);

        region.restore(&image);
        let (pool2, r2) = Pool::recover(Arc::clone(&region), PoolConfig::default()).expect("recover");
        let mut b = PHashMap::open(&pool2, pool2.root()).collect();
        b.sort_unstable();

        prop_assert_eq!(r1.failed_epoch, r2.failed_epoch);
        prop_assert_eq!(a, b);
    }
}

/// A crash *during* the checkpoint flush must still recover consistently:
/// the epoch counter was not yet advanced, so the whole epoch rolls back.
#[test]
fn crash_mid_checkpoint_rolls_back_epoch() {
    for seed in 0..20u64 {
        let region = Region::new(RegionConfig::sim(
            8 << 20,
            SimConfig::with_eviction(2, seed),
        ));
        let checker = Checker::attach(&region);
        let pool = Pool::create(Arc::clone(&region), PoolConfig::default()).expect("pool");
        let h = pool.register();
        let map = PHashMap::create(&h, 8);
        h.set_root(map.desc());
        map.insert(&h, 1, 11);
        h.checkpoint_here();
        map.insert(&h, 1, 22);
        map.insert(&h, 2, 33);
        // Simulate "crash mid-checkpoint": flush everything (as if the
        // flush phase completed) but never advance the epoch counter.
        region.persist_all();
        drop(h);
        drop(map);
        drop(pool);
        let image = region.crash(CrashMode::PowerFailure);
        region.restore(&image);
        let (pool, report) =
            Pool::recover(Arc::clone(&region), PoolConfig::default()).expect("recover");
        assert_eq!(report.failed_epoch, 2);
        let map = PHashMap::open(&pool, pool.root());
        let mut got = map.collect();
        got.sort_unstable();
        assert_eq!(
            got,
            vec![(1, 11)],
            "seed {seed}: mid-checkpoint crash must roll back"
        );
        checker.assert_clean();
    }
}
