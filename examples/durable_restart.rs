//! Durability across *real* process restarts on the mmap backend.
//!
//! Each invocation of this example is one process lifetime against the same
//! pool file. The first run creates the pool, fills an ordered map, and
//! checkpoints; every later run reopens the file with [`Pool::open`],
//! recovers (rolling back the deliberately-dirty open epoch), verifies the
//! checkpointed state, adds one more key, and checkpoints again. State
//! accumulates across runs — the property an NVMM heap is for.
//!
//! Run with: `cargo run --release --example durable_restart` (twice or more).
//! Set `RESPCT_POOL` to choose the pool file, `RESPCT_RESET=1` to start over.

use respct_repro::ds::POrderedMap;
use respct_repro::respct::{Pool, PoolConfig};

fn main() {
    let path = std::env::var_os("RESPCT_POOL").map_or_else(
        || std::env::temp_dir().join("respct_durable_restart.pool"),
        std::path::PathBuf::from,
    );
    if std::env::var_os("RESPCT_RESET").is_some() {
        let _ = std::fs::remove_file(&path);
    }

    let cfg = PoolConfig::builder()
        .size(16 << 20)
        .recovery_threads(2)
        .build()
        .expect("config");
    let (pool, recovered) = Pool::open(&path, cfg).expect("open pool");

    match recovered {
        None => {
            // Fresh pool file: seed the durable state.
            let h = pool.register();
            let map = POrderedMap::create(&h);
            for k in [30u64, 10, 20, 50, 40] {
                map.insert(&h, k, k * 100);
            }
            h.set_root(map.desc());
            h.checkpoint_here(); // consistent cut
                                 // Mutations after the checkpoint are *not* durable:
                                 // the next run must roll this key back.
            map.insert(&h, 9_999, 1);
            println!(
                "run 1: created {} ({} entries live, 5 checkpointed)",
                path.display(),
                map.len()
            );
        }
        Some(report) => {
            println!(
                "restart: recovered epoch {} ({} cells rolled back, {} threads)",
                report.failed_epoch, report.cells_rolled_back, report.threads
            );
            let audit = pool.verify();
            assert!(audit.is_clean(), "pool integrity after restart: {audit:#?}");

            let map = POrderedMap::open(&pool, pool.root());
            let entries = map.collect_sorted();
            assert!(
                entries.iter().all(|&(k, _)| k < 9_999),
                "post-checkpoint insert must have been rolled back: {entries:?}"
            );
            let base: Vec<(u64, u64)> =
                vec![(10, 1000), (20, 2000), (30, 3000), (40, 4000), (50, 5000)];
            assert!(
                entries.starts_with(&base),
                "the five seeded keys survive every restart: {entries:?}"
            );
            // One extra key per completed restart, all present in order.
            let run = entries.len() as u64 - 3; // seed run was #1, 5 entries
            println!(
                "restart: run #{run}, {} checkpointed entries = {entries:?}",
                entries.len()
            );

            let key = 60 + (entries.len() as u64 - 5) * 10;
            let h = pool.register();
            map.insert(&h, key, key * 100);
            h.checkpoint_here();
            map.insert(&h, 9_999, 1); // dirty the next epoch, again
            println!("restart: added key {key} and checkpointed");
        }
    }

    // On a page-cache (non-DAX) mapping, msync makes the checkpoint durable
    // against machine crashes too; process crashes don't need it.
    pool.sync_data().expect("msync pool file");
}
