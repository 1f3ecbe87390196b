//! Loom models of the two ResPCT protocol points whose correctness depends
//! on fine-grained interleavings: the **AllowGuard quiescence handshake**
//! (checkpoint timer / per-thread flag, checkpoint.rs) and the **ring-slot
//! claim / ordered commit of the background drain with the on-demand
//! push-out wait** (`claim_and_submit` + `DrainExec::drain_one`,
//! checkpoint.rs; `push_out_pending_line`, pool.rs) — at ring depth 1 (the
//! two-phase commit of a single draining record) and depth 2.
//!
//! The models are abstract — a handful of loom atomics standing in for the
//! real fields — because the runtime itself uses std atomics. Each model
//! states the invariant the real code relies on and asserts it inside the
//! interleaved threads, so a protocol regression reproduces here as a
//! model panic long before it shows up as a corrupt recovery.
//!
//! Run with: `cargo test -p respct --features loom --test loom_model`
//! (`LOOM_MAX_ITERS` scales the schedule count).
#![cfg(feature = "loom")]

use loom::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use loom::sync::Arc;

/// AllowGuard quiescence: the checkpointer must not read a worker's
/// tracking state until it has observed the worker's raised flag, and the
/// worker must not mutate it again until the timer drops.
///
/// Model: the worker "tracking list" is a plain counter guarded only by
/// the protocol (no lock). `dirty` is set around every worker mutation;
/// the checkpointer asserts it is clear for the whole gather window.
#[test]
fn allowguard_quiescence_excludes_tracking_mutation() {
    loom::model(|| {
        let timer = Arc::new(AtomicBool::new(false));
        let flag = Arc::new(AtomicBool::new(false));
        let dirty = Arc::new(AtomicBool::new(false));
        let list = Arc::new(AtomicU64::new(0));

        let worker = {
            let (timer, flag, dirty, list) =
                (timer.clone(), flag.clone(), dirty.clone(), list.clone());
            loom::thread::spawn(move || {
                // Runs until a checkpoint is pending, then parks exactly
                // once (the checkpointer raises the timer unconditionally,
                // so the loop always terminates).
                loop {
                    // Mutation window (tracking-list push in the runtime).
                    dirty.store(true, Ordering::SeqCst);
                    list.fetch_add(1, Ordering::SeqCst);
                    dirty.store(false, Ordering::SeqCst);
                    // Restart point: park if a checkpoint is pending.
                    if timer.load(Ordering::SeqCst) {
                        flag.store(true, Ordering::SeqCst);
                        while timer.load(Ordering::SeqCst) {
                            loom::hint::spin_loop();
                        }
                        flag.store(false, Ordering::SeqCst);
                        break;
                    }
                }
            })
        };

        // Checkpointer: raise the timer, await the flag, gather, release.
        timer.store(true, Ordering::SeqCst);
        while !flag.load(Ordering::SeqCst) {
            loom::hint::spin_loop();
        }
        assert!(
            !dirty.load(Ordering::SeqCst),
            "gather observed a mid-flight tracking mutation"
        );
        let a = list.load(Ordering::SeqCst);
        let b = list.load(Ordering::SeqCst);
        assert_eq!(a, b, "tracking list changed during the gather window");
        timer.store(false, Ordering::SeqCst);
        worker.join().expect("worker");
    });
}

/// Two-phase epoch commit + push-out — the K = 1 instance of the ring
/// model below: a worker that hits a draining cell pushes the line out and
/// must not overwrite its backup slot until the drain's phase-two commit
/// (`ring[0] ← 0`, then `drain_oldest ← N + 1`) has landed — until then a
/// crash rolls the drained epoch back and still needs the old backup.
///
/// Model: `backup_owed` is true while recovery would still read the
/// backup. The committer clears the slot only after the (modeled) shard
/// flush; the worker overwrites the backup only after its push-out wait.
#[test]
fn pushout_wait_orders_backup_overwrite_after_commit() {
    const N: u64 = 7; // the draining epoch
    loom::model(|| {
        let slot = Arc::new(AtomicU64::new(0)); // 0 = committed, N = draining
        let drain_oldest = Arc::new(AtomicU64::new(N));
        let flushed = Arc::new(AtomicBool::new(false));
        let backup_owed = Arc::new(AtomicBool::new(false));

        // Phase one (threads parked in the runtime): publish the claim,
        // then release the worker into epoch N + 1.
        slot.store(N, Ordering::SeqCst);
        backup_owed.store(true, Ordering::SeqCst);

        let committer = {
            let (slot, drain_oldest, flushed, backup_owed) = (
                slot.clone(),
                drain_oldest.clone(),
                flushed.clone(),
                backup_owed.clone(),
            );
            loom::thread::spawn(move || {
                // Background drain: write the snapshot back, then commit.
                flushed.store(true, Ordering::SeqCst);
                backup_owed.store(false, Ordering::SeqCst);
                slot.store(0, Ordering::SeqCst);
                // Release edge: `drain_oldest` advances strictly after the
                // commit store (`drain_one` commits in exactly this order).
                drain_oldest.store(N + 1, Ordering::SeqCst);
            })
        };

        // Worker: first touch of a cell tagged N in epoch N + 1 → push-out,
        // wait for N's commit, then overwrite the backup slot.
        while drain_oldest.load(Ordering::SeqCst) <= N {
            loom::hint::spin_loop();
        }
        assert!(
            !backup_owed.load(Ordering::SeqCst),
            "backup overwritten while recovery could still roll back to it"
        );
        assert_eq!(slot.load(Ordering::SeqCst), 0, "commit not durable yet");
        assert!(flushed.load(Ordering::SeqCst), "commit preceded the flush");
        committer.join().expect("committer");
    });
}

/// Epoch ring at depth 2: the ring-slot claim / ordered-commit handshake
/// (checkpoint.rs `claim_and_submit` + `DrainExec::drain_one`).
///
/// Model: a ring of K = 2 slots, a claimer (the checkpointer) that spins
/// on backpressure (`closing − drain_oldest < K`) before writing epoch
/// `e` into slot `e mod K`, and a committer (the drain executor) that
/// zeroes slots strictly oldest-first and only then advances
/// `drain_oldest`. Two invariants the real code relies on are asserted in
/// the interleaved threads:
///
/// * a claim never lands on a still-claimed slot (backpressure makes slot
///   reuse wait for the predecessor commit that frees it);
/// * at each commit of epoch `e`, every epoch older than `e` has already
///   committed (`drain_oldest == e`) — a crash at any instant therefore
///   leaves the claimed slots a contiguous suffix, which is exactly what
///   recovery's ring decode asserts.
#[test]
fn ring_claim_and_ordered_commit_keep_the_ring_contiguous() {
    const K: u64 = 2;
    const EPOCHS: u64 = 3;
    loom::model(|| {
        let slots = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let drain_oldest = Arc::new(AtomicU64::new(1));

        let committer = {
            let (slots, drain_oldest) = (slots.clone(), drain_oldest.clone());
            loom::thread::spawn(move || {
                for e in 1..=EPOCHS {
                    let slot = &slots[(e % K) as usize];
                    while slot.load(Ordering::SeqCst) != e {
                        loom::hint::spin_loop();
                    }
                    // Ordered commit: every predecessor already retired.
                    assert_eq!(
                        drain_oldest.load(Ordering::SeqCst),
                        e,
                        "commit of epoch {e} issued before its predecessor's"
                    );
                    slot.store(0, Ordering::SeqCst);
                    drain_oldest.store(e + 1, Ordering::SeqCst);
                }
            })
        };

        // Claimer: the checkpointer's stop-the-world ring-slot swap.
        for e in 1..=EPOCHS {
            while e - drain_oldest.load(Ordering::SeqCst) >= K {
                loom::hint::spin_loop();
            }
            let slot = &slots[(e % K) as usize];
            assert_eq!(
                slot.load(Ordering::SeqCst),
                0,
                "claim of epoch {e} would overwrite a still-draining slot"
            );
            slot.store(e, Ordering::SeqCst);
        }
        committer.join().expect("committer");
        assert_eq!(drain_oldest.load(Ordering::SeqCst), EPOCHS + 1);
        assert!(
            slots.iter().all(|s| s.load(Ordering::SeqCst) == 0),
            "ring not empty after all commits"
        );
    });
}

/// The inverse: a committer that retires epochs newest-first (the
/// `SkipRingOrder` fault) produces at least one reachable state whose
/// claimed slots are *not* a contiguous suffix — the hole recovery's
/// decode rejects. Proves the contiguity assertion above has teeth.
#[test]
fn out_of_order_commit_leaves_a_ring_hole() {
    let saw_hole = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let saw = saw_hole.clone();
    loom::model(move || {
        // Epochs 1 and 2 both claimed (two drains in flight).
        let slots = Arc::new([AtomicU64::new(2), AtomicU64::new(1)]);

        let committer = {
            let slots = slots.clone();
            loom::thread::spawn(move || {
                // Buggy order: newest first.
                slots[0].store(0, Ordering::SeqCst); // epoch 2's slot
                slots[1].store(0, Ordering::SeqCst); // epoch 1's slot
            })
        };
        // Crash observer: decode the ring the way recovery does, sampling
        // until the commits finish. With the recorded epoch at 3, a sound
        // ring only ever shows {1,2}, {2} or {} — seeing epoch 1 claimed
        // while epoch 2's slot is already zero is the hole.
        loop {
            let newest = slots[0].load(Ordering::SeqCst); // epoch 2's slot
            let oldest = slots[1].load(Ordering::SeqCst); // epoch 1's slot
            if newest == 0 && oldest == 1 {
                saw.store(true, std::sync::atomic::Ordering::SeqCst);
                break;
            }
            if newest == 0 && oldest == 0 {
                break; // both committed; this schedule missed the window
            }
            loom::hint::spin_loop();
        }
        committer.join().expect("committer");
    });
    assert!(
        saw_hole.load(std::sync::atomic::Ordering::SeqCst),
        "no schedule exposed the ring hole; the model lost its teeth"
    );
}

/// The inverse schedule: skipping the push-out wait (the bug the
/// `DrainHandshake` fault injects) lets at least one schedule overwrite
/// the backup pre-commit — the model is not vacuously safe.
#[test]
fn skipping_the_pushout_wait_is_observably_wrong() {
    let saw_violation = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let saw = saw_violation.clone();
    loom::model(move || {
        let drain_oldest = Arc::new(AtomicU64::new(7));
        let backup_owed = Arc::new(AtomicBool::new(true));

        let committer = {
            let (drain_oldest, backup_owed) = (drain_oldest.clone(), backup_owed.clone());
            loom::thread::spawn(move || {
                backup_owed.store(false, Ordering::SeqCst);
                drain_oldest.store(8, Ordering::SeqCst);
            })
        };
        // Buggy worker: overwrites without waiting for the commit.
        if backup_owed.load(Ordering::SeqCst) {
            saw.store(true, std::sync::atomic::Ordering::SeqCst);
        }
        committer.join().expect("committer");
    });
    assert!(
        saw_violation.load(std::sync::atomic::Ordering::SeqCst),
        "no schedule exposed the unordered overwrite; the model lost its teeth"
    );
}
