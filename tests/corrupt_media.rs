//! Recovery on media the process does not control (ISSUE 23).
//!
//! `Pool::recover` decodes three on-media structures — the header-cell
//! list, the epoch record and the per-slot registry chain — from bytes a
//! disk, a torn copy or a stray write may have damaged. Whatever it finds,
//! it must answer with `Ok` or a typed `PoolError`: never a panic, never an
//! endless scan — and the same answer whatever number of threads scans the
//! registry. The last three tests pin the format itself: the header-cell
//! list is complete, the header bytes only move when `MAGIC` does, and a
//! pool of the previous format is refused, never misread.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use respct_repro::pmem::{sim::CrashMode, PAddr, Region, RegionConfig, SimConfig};
use respct_repro::respct::layout::{
    self, heap_start, reg_entry_off, slot_base, MAGIC, MAX_THREADS, NUM_CLASSES, OFF_MAGIC,
    REG_CHUNK_ENTRIES, REG_CHUNK_NEXT, REG_CHUNK_SIZE, SLOT_REG_HEAD, SLOT_REG_LEN,
};
use respct_repro::respct::{epoch_tag, ICell, Pool, PoolConfig, PoolError, RecoveryReport};

const POOL_SIZE: usize = 4 << 20;
/// The reason recovery gives for a registry entry naming a cell it cannot
/// load and store in bounds within one line.
const BAD_CELL: &str = "cell address out of bounds, misaligned or straddling a cache line";
/// Two full registry chunks and part of a third.
const CELLS: u64 = 2 * REG_CHUNK_ENTRIES + 130;

/// A crashed pool image: `CELLS` registered cells (three registry chunks)
/// checkpointed in epoch 1, every one of them dirtied in the open epoch 2,
/// and every store persisted (`EvictAll`, the mmap-backend shape).
struct Crashed {
    bytes: Vec<u8>,
    /// The slot whose registry holds the cells.
    slot: usize,
    /// Its registry chunks, head first.
    chunks: Vec<u64>,
}

fn crashed_image() -> Crashed {
    let region = Region::new(RegionConfig::sim(POOL_SIZE, SimConfig::no_eviction(23)));
    let pool = Pool::create(region.clone(), PoolConfig::default()).unwrap();
    let h = pool.register();
    let cells: Vec<_> = (0..CELLS).map(|i| h.alloc_cell(i)).collect();
    h.checkpoint_here();
    for (i, c) in cells.iter().enumerate() {
        h.update(*c, 10_000 + i as u64); // the dirty open epoch
    }
    let slot = h.slot();
    drop(h);
    drop(pool);
    let bytes = region.crash(CrashMode::EvictAll).bytes().to_vec();
    let mut chunks = vec![get(&bytes, slot_base(slot).0 + SLOT_REG_HEAD)];
    while chunks.len() < CELLS.div_ceil(REG_CHUNK_ENTRIES) as usize {
        chunks.push(get(&bytes, chunks[chunks.len() - 1] + REG_CHUNK_NEXT));
    }
    Crashed {
        bytes,
        slot,
        chunks,
    }
}

fn get(bytes: &[u8], at: u64) -> u64 {
    u64::from_ne_bytes(bytes[at as usize..][..8].try_into().unwrap())
}

fn put(bytes: &mut [u8], at: u64, v: u64) {
    bytes[at as usize..][..8].copy_from_slice(&v.to_ne_bytes());
}

/// What one recovery attempt came to.
#[derive(Debug)]
enum Outcome {
    /// Recovered; `verify()` then returned with this many violations.
    Recovered(RecoveryReport, usize),
    Refused(PoolError),
    Panicked(#[allow(dead_code)] String),
    Hung,
}

/// What the scan's thread count must not change: the error, or the
/// recovered `(failed epoch, scanned, rolled back, violations)`.
fn answer(outcome: &Outcome) -> Result<(u64, u64, u64, usize), PoolError> {
    match outcome {
        Outcome::Recovered(r, v) => Ok((r.failed_epoch, r.cells_scanned, r.cells_rolled_back, *v)),
        Outcome::Refused(e) => Err(e.clone()),
        bad => panic!("{bad:?}"),
    }
}

/// A config whose recovery scan runs on `n` threads.
fn threads(n: usize) -> PoolConfig {
    PoolConfig::builder().recovery_threads(n).build().unwrap()
}

/// Recovers `bytes` under `cfg` (and verifies the pool when that succeeds)
/// on a watched thread: a panic or a scan still running after `limit` comes
/// back as an [`Outcome`] instead of taking the test down with it.
fn recover_watched(bytes: Vec<u8>, cfg: PoolConfig, limit: Duration) -> Outcome {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let outcome =
            std::panic::catch_unwind(|| match Pool::recover(Region::from_image(&bytes), cfg) {
                Ok((pool, report)) => Outcome::Recovered(report, pool.verify().violations.len()),
                Err(e) => Outcome::Refused(e),
            })
            .unwrap_or_else(|p| {
                Outcome::Panicked(
                    p.downcast_ref::<String>()
                        .cloned()
                        .or_else(|| p.downcast_ref::<&str>().map(ToString::to_string))
                        .unwrap_or_default(),
                )
            });
        let _ = tx.send(outcome);
    });
    rx.recv_timeout(limit).unwrap_or(Outcome::Hung)
}

#[test]
fn untouched_image_recovers_as_before() {
    let img = crashed_image();
    let Outcome::Recovered(report, violations) =
        recover_watched(img.bytes, PoolConfig::default(), Duration::from_secs(2))
    else {
        panic!("clean image must recover");
    };
    // Counts measured at the parent of the PR that added this file.
    assert_eq!(report.failed_epoch, 2);
    assert_eq!(report.cells_scanned, 523 + CELLS);
    assert_eq!(report.cells_rolled_back, CELLS);
    assert_eq!(violations, 0);
}

#[test]
fn corrupt_registry_is_a_typed_error() {
    let img = crashed_image();
    let slot_at = slot_base(img.slot).0;
    let (head, second, last) = (img.chunks[0], img.chunks[1], img.chunks[2]);
    // Cell addresses a registry entry must not hold: misaligned, straddling
    // a line (24 bytes from 48 into it), past the region's end.
    let misaligned = get(&img.bytes, head + reg_entry_off(7)) + 4;
    let straddling = heap_start().0 + 48;
    let past_end = POOL_SIZE as u64 + 64;
    type Damage = Box<dyn Fn(&mut [u8])>;
    // Each image with the entry number the error must name, and whether
    // the reason is the bad-cell one.
    let cases: [(&str, u64, bool, Damage); 6] = [
        (
            "registry head zeroed",
            0,
            false,
            Box::new(move |b| put(b, slot_at + SLOT_REG_HEAD, 0)),
        ),
        (
            "misaligned cell address",
            7,
            true,
            Box::new(move |b| put(b, head + reg_entry_off(7), misaligned)),
        ),
        (
            "cell address outside the region",
            7,
            true,
            Box::new(move |b| put(b, head + reg_entry_off(7), past_end)),
        ),
        (
            "chunk linked to itself under a garbage reg_len",
            0,
            false,
            Box::new(move |b| {
                put(b, head + REG_CHUNK_NEXT, head);
                // Record and backup: the length survives a roll-back too.
                put(b, slot_at + SLOT_REG_LEN, 1 << 60);
                put(b, slot_at + SLOT_REG_LEN + 8, 1 << 60);
            }),
        ),
        // Two bad words: the one earlier in walk order is reported, even
        // when another worker's run meets the later one first.
        (
            "line-straddling cells in the first and the last chunk",
            7,
            true,
            Box::new(move |b| {
                put(b, head + reg_entry_off(7), straddling);
                put(b, last + reg_entry_off(3), straddling);
            }),
        ),
        (
            "cell address past the end before a misaligned link",
            7,
            true,
            Box::new(move |b| {
                put(b, head + reg_entry_off(7), past_end);
                put(b, second + REG_CHUNK_NEXT, last + 8);
            }),
        ),
    ];
    for (name, want_entry, bad_cell, damage) in cases {
        let mut bytes = img.bytes.clone();
        damage(&mut bytes);
        // The scan's thread count changes who meets the damage, never
        // which word is reported.
        let errors = [1, 2, 8].map(|n| {
            let t0 = Instant::now();
            let outcome = recover_watched(bytes.clone(), threads(n), Duration::from_secs(10));
            assert!(t0.elapsed() < Duration::from_secs(1), "{name}: too slow");
            match outcome {
                Outcome::Refused(
                    e @ PoolError::CorruptRegistry {
                        slot, entry, why, ..
                    },
                ) if slot == img.slot && entry == want_entry && (why == BAD_CELL) == bad_cell => e,
                other => panic!("{name}, {n} threads: {other:?}"),
            }
        });
        assert!(errors.iter().all(|e| *e == errors[0]), "{name}: {errors:?}");
        assert!(
            errors[0]
                .to_string()
                .contains(&format!("slot {}", img.slot)),
            "{name}: {}",
            errors[0]
        );
    }
}

/// Recovery finds every rollback before it writes one, so a registry it
/// refuses leaves every registered cell — record, backup and tag — as the
/// damaged image holds it, whichever of 1, 2 or 8 threads scans it. (The
/// header cells may already be rolled back; no registered cell is one.)
#[test]
fn refused_recovery_rewrites_no_registered_cell() {
    let img = crashed_image();
    let head = img.chunks[0];
    let cells: Vec<ICell<u64>> = img
        .chunks
        .iter()
        .enumerate()
        .flat_map(|(k, &chunk)| {
            let n = (CELLS - k as u64 * REG_CHUNK_ENTRIES).min(REG_CHUNK_ENTRIES);
            (0..n).map(move |i| chunk + reg_entry_off(i))
        })
        .map(|entry| ICell::from_addr(PAddr(get(&img.bytes, entry))))
        .collect();
    assert_eq!(cells.len() as u64, CELLS);
    let mut bytes = img.bytes.clone();
    // The misaligned cell address of `corrupt_registry_is_a_typed_error`.
    put(&mut bytes, head + reg_entry_off(7), cells[7].addr().0 + 4);
    for n in [1, 2, 8] {
        let region = Region::from_image(&bytes);
        let err = Pool::recover(region.clone(), threads(n)).unwrap_err();
        assert!(
            matches!(err, PoolError::CorruptRegistry { entry: 7, .. }),
            "{n} threads: {err:?}"
        );
        for c in &cells {
            for (field, at) in [
                ("record", c.addr()),
                ("backup", c.backup_addr()),
                ("tag", c.epoch_addr()),
            ] {
                assert_eq!(
                    region.load::<u64>(at),
                    get(&bytes, at.0),
                    "{n} threads: {field} of the cell at {:?}",
                    c.addr()
                );
            }
        }
    }
}

/// One piece of damage to an image: a bit flip (byte offset, xor mask) or a
/// scribbled word (offset, value).
#[derive(Debug)]
enum Damage {
    Flip(u64, u8),
    Word(u64, u64),
}

/// splitmix64: the fuzz must not depend on a crate the tests may lose.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[test]
fn damaged_images_never_panic_and_never_hang() {
    const IMAGES: usize = 1200;
    let img = crashed_image();
    let slot_at = slot_base(img.slot).0;
    // Where damage may land: anywhere in the header or a registry chunk,
    // with the places recovery reads most weighted up — the magic / size /
    // epoch-record lines and the two live slot descriptors.
    let mut targets: Vec<(u64, u64)> = vec![
        (0, heap_start().0),
        (0, 192),
        (slot_base(0).0, layout::SLOT_SIZE),
        (slot_at, layout::SLOT_SIZE),
    ];
    targets.extend(img.chunks.iter().map(|&c| (c, REG_CHUNK_SIZE)));
    let nasty = [
        0,
        1,
        u64::MAX,
        1 << 63,
        POOL_SIZE as u64,
        POOL_SIZE as u64 - 8,
        img.chunks[0],
        img.chunks[1] + 4,
    ];
    // The words recovery decodes first each take every nasty value once;
    // the seeded random damage follows.
    let hot = [
        layout::OFF_SIZE.0,
        layout::OFF_EPOCH.0,
        layout::epoch_ring_slot(0).0,
        layout::epoch_ring_slot(3).0,
        slot_at + SLOT_REG_LEN,
        slot_at + SLOT_REG_LEN + 8,
        slot_at + SLOT_REG_HEAD,
        img.chunks[0] + REG_CHUNK_NEXT,
        img.chunks[0] + reg_entry_off(0),
        img.chunks[0] + reg_entry_off(1),
    ];
    let mut plan: Vec<Vec<Damage>> = hot
        .iter()
        .flat_map(|&at| nasty.iter().map(move |&v| vec![Damage::Word(at, v)]))
        .collect();
    let mut rng = 0x2300_c0ff_ee00_0023_u64;
    while plan.len() < IMAGES {
        let (base, len) = targets[next(&mut rng) as usize % targets.len()];
        plan.push(if next(&mut rng).is_multiple_of(2) {
            (0..=next(&mut rng) % 4)
                .map(|_| next(&mut rng) % (len * 8))
                .map(|bit| Damage::Flip(base + bit / 8, 1 << (bit % 8)))
                .collect()
        } else {
            let at = base + next(&mut rng) % (len / 8) * 8;
            let pick = next(&mut rng) as usize % (2 * nasty.len());
            let v = nasty.get(pick).copied().unwrap_or_else(|| next(&mut rng));
            vec![Damage::Word(at, v)]
        });
    }
    let (mut recovered, mut refused, mut compared) = (0, 0, 0);
    for (i, damage) in plan.iter().enumerate() {
        let mut bytes = img.bytes.clone();
        for d in damage {
            match *d {
                Damage::Flip(at, mask) => bytes[at as usize] ^= mask,
                Damage::Word(at, v) => put(&mut bytes, at, v),
            }
        }
        let limit = Duration::from_secs(2);
        // A seeded eighth of the images must also come out the same on
        // 1, 2 and 8 scan threads.
        if next(&mut rng).is_multiple_of(8) {
            let answers =
                [1, 2, 8].map(
                    |n| match recover_watched(bytes.clone(), threads(n), limit) {
                        bad @ (Outcome::Panicked(_) | Outcome::Hung) => {
                            panic!("image {i}, damage {damage:x?}, {n} threads: {bad:?}")
                        }
                        outcome => answer(&outcome),
                    },
                );
            assert!(
                answers.iter().all(|a| *a == answers[0]),
                "image {i}, damage {damage:x?}: {answers:?}"
            );
            compared += 1;
        }
        match recover_watched(bytes, PoolConfig::default(), limit) {
            Outcome::Recovered(..) => recovered += 1,
            Outcome::Refused(_) => refused += 1,
            bad => panic!("image {i}, damage {damage:x?}: {bad:?}"),
        }
    }
    assert!(
        compared > IMAGES / 16,
        "{compared} images compared across thread counts"
    );
    // Both answers occur: the fuzz reaches past the magic check and does
    // find fatal damage.
    assert!(
        recovered > IMAGES / 10 && refused > IMAGES / 10,
        "{recovered} / {refused}"
    );
}

/// A header cell that is formatted but not recovered (or the reverse)
/// cannot be written: stamp every cell of the one list as dirty in the
/// failed epoch and count what recovery restores.
#[test]
fn every_header_cell_rolls_back() {
    let region = Region::new(RegionConfig::sim(POOL_SIZE, SimConfig::no_eviction(1)));
    let pool = Pool::create(region.clone(), PoolConfig::default()).unwrap();
    pool.checkpoint_now(); // epoch 2 opens
    drop(pool);
    let mut bytes = region.crash(CrashMode::PowerFailure).bytes().to_vec();
    let cells: Vec<PAddr> = layout::header_cells().collect();
    assert_eq!(cells.len(), 2 + NUM_CLASSES + 4 * MAX_THREADS);
    let reg_lens: Vec<u64> = (0..MAX_THREADS)
        .map(|s| slot_base(s).0 + SLOT_REG_LEN)
        .collect();
    // A registry length must roll back to what the (empty) chains hold;
    // every other cell gets a backup of its own.
    let backup = |i: usize, addr: PAddr| {
        if reg_lens.contains(&addr.0) {
            0
        } else {
            0x1000 + 8 * i as u64
        }
    };
    for (i, &addr) in cells.iter().enumerate() {
        put(&mut bytes, addr.0, 0xbad0_0000 + i as u64);
        put(&mut bytes, addr.0 + 8, backup(i, addr));
        put(&mut bytes, addr.0 + 16, epoch_tag(addr, 2));
    }
    let (pool, report) = Pool::recover(Region::from_image(&bytes), PoolConfig::default()).unwrap();
    assert_eq!(report.failed_epoch, 2);
    assert_eq!(report.cells_rolled_back, cells.len() as u64);
    for (i, &addr) in cells.iter().enumerate() {
        assert_eq!(pool.region().load::<u64>(addr), backup(i, addr), "{addr:?}");
    }
}

/// The header of a pool after a fixed workload, hashed. Computed at the
/// parent of the PR that added this file; from now on it moves only
/// together with `MAGIC`.
#[test]
fn header_bytes_are_pinned_to_the_magic() {
    let region = Region::new(RegionConfig::sim(POOL_SIZE, SimConfig::no_eviction(1)));
    let pool = Pool::create(region.clone(), PoolConfig::default()).unwrap();
    let h = pool.register();
    for i in 0..32u64 {
        let c = h.alloc_cell(i);
        h.update(c, i * 3);
    }
    h.rp(7);
    h.checkpoint_here();
    drop(h);
    drop(pool);
    let img = region.crash(CrashMode::PowerFailure);
    // FNV-1a, 64 bit.
    let hash = img.bytes()[..heap_start().0 as usize]
        .iter()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    assert_eq!(
        (MAGIC, hash),
        (0x5245_5350_4354_3032, PINNED_HEADER_HASH),
        "the on-media header moved: bump MAGIC and re-pin, or undo the move"
    );
}

const PINNED_HEADER_HASH: u64 = 0xf01b_3f83_a6e0_1e3b;

/// A pool of the previous format — "RESPCT01", whose registry entries
/// carried a second word after each cell address — is not a pool to this
/// reader: recovery refuses it, and opening its file neither recovers it
/// nor formats over it.
#[test]
fn previous_format_is_not_a_pool() {
    const RESPCT01: u64 = 0x5245_5350_4354_3031;
    let mut bytes = crashed_image().bytes;
    put(&mut bytes, OFF_MAGIC.0, RESPCT01);
    let recovered = Pool::recover(Region::from_image(&bytes), PoolConfig::default());
    assert!(
        matches!(recovered, Err(PoolError::NotAPool)),
        "recover: {:?}",
        recovered.map(|(_, report)| report)
    );
    let path = std::env::temp_dir().join(format!(
        "respct_previous_format_{}.pool",
        std::process::id()
    ));
    std::fs::write(&path, &bytes).expect("write the old pool file");
    let opened = Pool::open(&path, PoolConfig::default()).map(|(_, report)| report);
    let after = std::fs::read(&path).expect("read the old pool file back");
    let _ = std::fs::remove_file(&path);
    assert!(
        matches!(opened, Err(PoolError::NotAPool)),
        "open: {opened:?}"
    );
    assert!(after == bytes, "opening an old pool file changed its bytes");
}
