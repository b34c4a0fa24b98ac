//! Persistence round-trip tests: segmented save → load, shard-count
//! re-routing, crash-safe file replacement and corruption quarantine —
//! the daemon's restart story at the library surface.

use std::path::PathBuf;

use indaas::deps::format::serialize_records;
use indaas::deps::{
    shard_index, write_atomic, DepDb, DepView, DependencyRecord, HardwareDep, NetworkDep,
    ShardedDepDb, SoftwareDep, MANIFEST_FILE,
};
use proptest::prelude::*;

/// Unique scratch directory per test (removed on success; a failed run
/// leaves it behind for inspection).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "indaas-persistence-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Decodes a small integer into one of a few dozen distinct records
/// across all three kinds and a handful of hosts.
fn decode_record(n: u32) -> DependencyRecord {
    let host = format!("srv-{}", (n / 3) % 7);
    let dep = (n / 21) % 5;
    match n % 3 {
        0 => DependencyRecord::Network(NetworkDep {
            src: host,
            dst: "Internet".to_string(),
            route: vec![format!("tor-{dep}"), "core-1".to_string()],
        }),
        1 => DependencyRecord::Hardware(HardwareDep {
            hw: host,
            hw_type: "CPU".to_string(),
            dep: format!("chip-{dep}"),
        }),
        _ => DependencyRecord::Software(SoftwareDep {
            pgm: "Svc".to_string(),
            hw: host,
            deps: vec![format!("lib-{dep}")],
        }),
    }
}

fn record_batch() -> impl Strategy<Value = Vec<DependencyRecord>> {
    proptest::collection::vec(0u32..120, 1..40usize)
        .prop_map(|ns| ns.into_iter().map(decode_record).collect())
}

/// Asserts two stores expose identical data through the snapshot view.
fn assert_same_view(a: &ShardedDepDb, b: &ShardedDepDb) {
    let (sa, sb) = (a.snapshot(), b.snapshot());
    assert_eq!(DepView::hosts(&sa), DepView::hosts(&sb));
    assert_eq!(sa.record_count(), sb.record_count());
    for host in DepView::hosts(&sa) {
        assert_eq!(
            sa.component_set_of(&host),
            sb.component_set_of(&host),
            "component set of {host} differs"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Segmented save → load is lossless for any batch, preserves
    /// per-shard routing, and re-seeds epochs like a fresh non-empty
    /// store (restarts reset epoch history; caches are in-memory and
    /// die with the process anyway).
    #[test]
    fn segmented_roundtrip_is_lossless(batch in record_batch(), shards in 1usize..10) {
        let dir = scratch("prop-roundtrip");
        let store = ShardedDepDb::new(shards);
        store.ingest(batch);
        store.save_segments(&dir).unwrap();
        let back = ShardedDepDb::load_segments(&dir, shards).unwrap();
        prop_assert_eq!(back.num_shards(), shards);
        prop_assert_eq!(back.len(), store.len());
        for s in 0..shards {
            prop_assert_eq!(back.shard_len(s), store.shard_len(s));
        }
        prop_assert_eq!(back.epoch(), u64::from(!store.is_empty()));
        let (sa, sb) = (store.snapshot(), back.snapshot());
        for host in DepView::hosts(&sa) {
            prop_assert_eq!(sa.network_deps(&host), sb.network_deps(&host));
            prop_assert_eq!(sa.hardware_deps(&host), sb.hardware_deps(&host));
            prop_assert_eq!(sa.software_deps(&host), sb.software_deps(&host));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Loading a db-dir into a different shard count re-routes every
    /// record correctly — the online migration path for `--shards`.
    #[test]
    fn load_with_different_shard_count_reroutes(
        batch in record_batch(),
        saved_shards in 1usize..8,
        loaded_shards in 1usize..8,
    ) {
        let dir = scratch("prop-reshard");
        let store = ShardedDepDb::new(saved_shards);
        store.ingest(batch);
        store.save_segments(&dir).unwrap();
        let back = ShardedDepDb::load_segments(&dir, loaded_shards).unwrap();
        prop_assert_eq!(back.num_shards(), loaded_shards);
        prop_assert_eq!(back.len(), store.len());
        let snap = back.snapshot();
        for host in DepView::hosts(&snap) {
            prop_assert_eq!(snap.shard_of(&host), shard_index(&host, loaded_shards));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Crash-safe saves: overwriting an existing file — every segment and
/// manifest write goes through `write_atomic` — uses a temp file +
/// rename, so the destination is never observed torn and no temp
/// debris survives.
#[test]
fn saves_replace_files_atomically() {
    let dir = scratch("atomic");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("shard-0000.tbl");

    let table = |n: u32| serialize_records(&(0..n).map(decode_record).collect::<Vec<_>>());
    let small = DepDb::from_records((0..6).map(decode_record));
    write_atomic(&path, &table(100)).unwrap();
    write_atomic(&path, &table(6)).unwrap();
    // The second (smaller) save fully replaced the first: a torn write
    // would have left trailing large-export records behind.
    let back = DepDb::load(&path).unwrap();
    assert_eq!(back.len(), small.len());

    let debris: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains("tmp"))
        .collect();
    assert!(debris.is_empty(), "temp files left behind: {debris:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Concurrent writers during a dirty save never corrupt the directory:
/// whatever interleaving happens, a subsequent load parses cleanly and
/// the final save captures the final state.
#[test]
fn dirty_saves_race_writers_safely() {
    let dir = scratch("race");
    let store = ShardedDepDb::new(4);
    store.ingest((0..40).map(decode_record));
    store.save_segments(&dir).unwrap();

    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for n in 0..200 {
                store.ingest([decode_record(1000 + n)]);
            }
        });
        let saver = scope.spawn(|| {
            for _ in 0..20 {
                store.save_dirty_segments(&dir).unwrap();
                // Every intermediate state on disk must parse.
                let loaded = ShardedDepDb::load_segments(&dir, 4).unwrap();
                assert!(loaded.len() <= store.len());
            }
        });
        writer.join().unwrap();
        saver.join().unwrap();
    });

    // A final save captures everything the writer landed.
    store.save_dirty_segments(&dir).unwrap();
    let final_load = ShardedDepDb::load_segments(&dir, 4).unwrap();
    assert_same_view(&store, &final_load);
    std::fs::remove_dir_all(&dir).ok();
}

// A second `proptest!` block needs its own module (the macro defines
// per-module config items).
mod corruption_props {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Satellite robustness property: whatever bytes end up inside one
        /// segment file — truncation, bit flips, plain garbage — loading
        /// never panics and never fails the whole startup. Either the bytes
        /// still parse (and every record loads) or the segment is set aside
        /// as `*.quarantine` and every *other* shard's record survives.
        #[test]
        fn corrupted_segment_never_panics_or_loses_other_shards(
            batch in record_batch(),
            victim in 0usize..4,
            garbage in proptest::collection::vec(any::<u8>(), 0..160),
        ) {
            let dir = scratch("prop-quarantine");
            let store = ShardedDepDb::new(4);
            store.ingest(batch);
            store.save_segments(&dir).unwrap();

            let victim_path = dir.join(format!("shard-{victim:04}.tbl"));
            std::fs::write(&victim_path, &garbage).unwrap();

            let back = ShardedDepDb::load_segments(&dir, 4).unwrap();
            let survivors: usize = (0..4)
                .filter(|&s| s != victim)
                .map(|s| store.shard_len(s))
                .sum();
            if back.quarantined().is_empty() {
                // The garbage happened to parse (e.g. empty or comments):
                // the victim shard holds whatever it parsed to.
                prop_assert!(back.len() >= survivors);
            } else {
                prop_assert_eq!(back.quarantined().len(), 1);
                prop_assert!(!victim_path.exists(), "bad segment renamed away");
                prop_assert_eq!(back.len(), survivors);
            }
            std::fs::remove_dir_all(&dir).ok();
        }

        /// Same property for the manifest: arbitrary bytes in MANIFEST.json
        /// never panic the loader. Unless the garbage happens to parse as a
        /// *newer-format* manifest (refused on purpose), the load succeeds —
        /// quarantining the manifest and rescanning segments when needed —
        /// and every record survives.
        #[test]
        fn corrupted_manifest_never_panics_or_loses_records(
            batch in record_batch(),
            garbage in proptest::collection::vec(any::<u8>(), 0..120),
        ) {
            let dir = scratch("prop-manifest");
            let store = ShardedDepDb::new(4);
            store.ingest(batch);
            store.save_segments(&dir).unwrap();

            std::fs::write(dir.join(MANIFEST_FILE), &garbage).unwrap();
            match ShardedDepDb::load_segments(&dir, 4) {
                Ok(back) => assert_same_view(&store, &back),
                // Only a parseable manifest announcing a newer format may
                // still refuse; random bytes essentially never form one.
                Err(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
