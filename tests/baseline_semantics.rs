//! Semantic equivalence of every compared system: all nine map
//! implementations and six queue implementations must agree with a model
//! (std collections) on arbitrary operation sequences — otherwise the
//! performance comparison would be apples to oranges.

use std::sync::Arc;

use proptest::prelude::*;
use respct_repro::baselines::dali::DaliHashMap;
use respct_repro::baselines::friedman::FriedmanQueue;
use respct_repro::baselines::montage::{MontageHashMap, MontageQueue, MontageRuntime};
use respct_repro::baselines::pmthreads::PmThreadsPolicy;
use respct_repro::baselines::policy::PersistPolicy;
use respct_repro::baselines::quadra::QuadraPolicy;
use respct_repro::baselines::soft::SoftHashMap;
use respct_repro::baselines::transient_nvmm::{NvmmHashMap, NvmmQueue};
use respct_repro::baselines::undo::UndoPolicy;
use respct_repro::baselines::{PolicyHashMap, PolicyQueue};
use respct_repro::ds::traits::{BenchMap, BenchQueue};
use respct_repro::ds::{PHashMap, PQueue, TransientHashMap, TransientQueue};
use respct_repro::pmem::{Region, RegionConfig};
use respct_repro::respct::{Pool, PoolConfig};

#[derive(Debug, Clone)]
enum MapOp {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
}

fn map_ops() -> impl Strategy<Value = Vec<MapOp>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (0u64..30, any::<u64>()).prop_map(|(k, v)| MapOp::Insert(k, v)),
            2 => (0u64..30).prop_map(MapOp::Remove),
            3 => (0u64..30).prop_map(MapOp::Get),
        ],
        1..80,
    )
}

fn check_map_against_model<M: BenchMap>(map: &M, ops: &[MapOp]) -> Result<(), TestCaseError> {
    let mut ctx = map.register();
    let mut model = std::collections::HashMap::new();
    for op in ops {
        match op {
            MapOp::Insert(k, v) => {
                let newly = map.insert(&mut ctx, *k, *v);
                let model_newly = model.insert(*k, *v).is_none();
                prop_assert_eq!(newly, model_newly, "insert({}, {})", k, v);
            }
            MapOp::Remove(k) => {
                prop_assert_eq!(
                    map.remove(&mut ctx, *k),
                    model.remove(k).is_some(),
                    "remove({})",
                    k
                );
            }
            MapOp::Get(k) => {
                prop_assert_eq!(map.get(&mut ctx, *k), model.get(k).copied(), "get({})", k);
            }
        }
    }
    Ok(())
}

fn region(mb: usize) -> Arc<Region> {
    Region::new(RegionConfig::fast(mb << 20))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn all_maps_agree_with_model(ops in map_ops()) {
        // ResPCT.
        {
            let pool = Pool::create(region(32), PoolConfig::default()).expect("pool");
            let h = pool.register();
            let m = PHashMap::create(&h, 8);
            drop(h);
            check_map_against_model(&m, &ops)?;
        }
        check_map_against_model(&TransientHashMap::new(8), &ops)?;
        check_map_against_model(&NvmmHashMap::new(region(16), 8), &ops)?;
        check_map_against_model(&PolicyHashMap::new(Arc::new(UndoPolicy::new(region(16))), 8), &ops)?;
        check_map_against_model(&PolicyHashMap::new(Arc::new(UndoPolicy::clobber(region(16))), 8), &ops)?;
        check_map_against_model(&PolicyHashMap::new(Arc::new(QuadraPolicy::new(region(32))), 8), &ops)?;
        check_map_against_model(
            &PolicyHashMap::new(Arc::new(PmThreadsPolicy::new(region(16), region(16))), 8),
            &ops,
        )?;
        check_map_against_model(&MontageHashMap::new(MontageRuntime::new(region(16)), 8), &ops)?;
        check_map_against_model(&*DaliHashMap::new(region(16), 8), &ops)?;
        check_map_against_model(&SoftHashMap::new(region(16), region(16), 8), &ops)?;
    }

    #[test]
    fn all_queues_agree_with_model(
        ops in proptest::collection::vec(
            prop_oneof![3 => any::<u64>().prop_map(Some), 2 => Just(None)],
            1..80,
        )
    ) {
        fn check<Q: BenchQueue>(q: &Q, ops: &[Option<u64>]) -> Result<(), TestCaseError> {
            let mut ctx = q.register();
            let mut model = std::collections::VecDeque::new();
            for op in ops {
                match op {
                    Some(v) => {
                        q.enqueue(&mut ctx, *v);
                        model.push_back(*v);
                    }
                    None => {
                        prop_assert_eq!(q.dequeue(&mut ctx), model.pop_front());
                    }
                }
            }
            Ok(())
        }
        {
            let pool = Pool::create(region(32), PoolConfig::default()).expect("pool");
            let h = pool.register();
            let q = PQueue::create(&h);
            drop(h);
            check(&q, &ops)?;
        }
        check(&TransientQueue::new(), &ops)?;
        check(&NvmmQueue::new(region(16)), &ops)?;
        check(&PolicyQueue::new(Arc::new(UndoPolicy::new(region(16)))), &ops)?;
        check(&PolicyQueue::new(Arc::new(UndoPolicy::clobber(region(16)))), &ops)?;
        check(&PolicyQueue::new(Arc::new(QuadraPolicy::new(region(32)))), &ops)?;
        check(&PolicyQueue::new(Arc::new(PmThreadsPolicy::new(region(16), region(16)))), &ops)?;
        check(&MontageQueue::new(MontageRuntime::new(region(16))), &ops)?;
        check(&FriedmanQueue::new(region(16)), &ops)?;
    }
}

/// `(pwb, psync)` deltas of one region across one phase of operations.
fn cost<F: FnOnce()>(region: &Region, phase: F) -> (u64, u64) {
    let before = region.stats().snapshot();
    phase();
    let d = region.stats().snapshot().since(&before);
    (d.pwb, d.psync)
}

/// Per-phase `(pwb, psync)` of a 16-bucket map: insert 0..100, update the
/// same keys, get them, remove the even keys.
fn map_costs<P: PersistPolicy>(policy: fn(Arc<Region>) -> P) -> [(u64, u64); 4] {
    let r = region(64);
    let m = PolicyHashMap::new(Arc::new(policy(Arc::clone(&r))), 16);
    let mut ctx = m.register();
    let c = &mut ctx;
    [
        cost(&r, || {
            for k in 0..100 {
                assert!(m.insert(c, k, k));
            }
        }),
        cost(&r, || {
            for k in 0..100 {
                assert!(!m.insert(c, k, k + 1));
            }
        }),
        cost(&r, || {
            for k in 0..100 {
                assert_eq!(m.get(c, k), Some(k + 1));
            }
        }),
        cost(&r, || {
            for k in (0..100).step_by(2) {
                assert!(m.remove(c, k));
            }
        }),
    ]
}

/// Per-phase `(pwb, psync)` of a queue: enqueue 0..100, dequeue 100.
fn queue_costs<P: PersistPolicy>(policy: fn(Arc<Region>) -> P) -> [(u64, u64); 2] {
    let r = region(64);
    let q = PolicyQueue::new(Arc::new(policy(Arc::clone(&r))));
    let mut ctx = q.register();
    let c = &mut ctx;
    [
        cost(&r, || {
            for v in 0..100 {
                q.enqueue(c, v);
            }
        }),
        cost(&r, || {
            for v in 0..100 {
                assert_eq!(q.dequeue(c), Some(v));
            }
        }),
    ]
}

/// Pins each durably linearizable policy's flushes and fences per phase:
/// undo logs and fences every in-place store, Clobber-NVM only the
/// write-after-read ones, Quadra/Trinity none (one fence per update op).
#[test]
fn durable_policies_pin_per_op_cost() {
    let undo = UndoPolicy::new;
    let clobber = UndoPolicy::clobber;
    let quadra = QuadraPolicy::new;
    assert_eq!(
        map_costs(undo),
        [(400, 300), (300, 300), (0, 0), (150, 150)]
    );
    assert_eq!(
        map_costs(clobber),
        [(400, 300), (100, 100), (0, 0), (150, 150)]
    );
    assert_eq!(
        map_costs(quadra),
        [(300, 100), (100, 100), (0, 0), (50, 50)]
    );
    assert_eq!(queue_costs(undo), [(524, 400), (301, 301)]);
    assert_eq!(queue_costs(clobber), [(425, 301), (301, 301)]);
    assert_eq!(queue_costs(quadra), [(299, 100), (100, 100)]);
}
