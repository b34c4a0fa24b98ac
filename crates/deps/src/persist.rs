//! Segmented, crash-safe persistence for the sharded dependency store.
//!
//! A big daemon must restart without re-parsing one monolithic Table-1
//! file, and a kill mid-save must never leave a torn file behind. The
//! on-disk layout is one directory per store:
//!
//! ```text
//! db-dir/
//!   MANIFEST.json    # {"format":1,"shards":8,"records":[...]}
//!   shard-0000.tbl   # Table-1 records of shard 0
//!   shard-0001.tbl
//!   ...
//! ```
//!
//! * **Segments** are plain Table-1 text — the same portable format
//!   [`DepDb::load`] reads — holding exactly the records that route to
//!   their shard index.
//! * **Every file is written atomically** ([`write_atomic`]): contents
//!   go to a temp file in the same directory which is then `rename`d
//!   into place, so readers (and the next boot) see either the old or
//!   the new version of each file, never a prefix.
//! * **Saves are incremental**: [`ShardedDepDb::save_dirty_segments`]
//!   writes only the shards mutated since the last save (each shard
//!   publishes a dirty flag beside its snapshot and epoch, and a save
//!   claims flag and snapshot together), which is what the daemon runs on
//!   collector ticks; a full [`ShardedDepDb::save_segments`] happens on
//!   the first save into an empty directory or a shard-count change.
//! * **Loads are parallel**: [`ShardedDepDb::load_segments`] parses
//!   segments on a small worker pool and routes every record to its
//!   host's shard — which is also the migration path from a different
//!   `--shards` setting or a hand-edited directory. A full save after
//!   such a migration deletes the old layout's surplus segment files.
//! * **Corruption is quarantined, not fatal**: a torn or bit-flipped
//!   segment file is renamed to `<name>.quarantine` and the surviving
//!   shards are served; a garbled `MANIFEST.json` is quarantined the
//!   same way and the directory's segment files are rescanned. Only a
//!   manifest from a *newer* format version still refuses to load —
//!   that is a deliberate downgrade guard, not corruption. The loaded
//!   store remembers what was set aside ([`ShardedDepDb::quarantined`])
//!   so the daemon can count it.
//! * **A db dir is always a directory**: [`ShardedDepDb::open`] refuses
//!   a plain file. A Table-1 file becomes segments by loading it as
//!   records into a store and saving that (`serve --records FILE
//!   --db-dir DIR` does exactly this).
//!
//! Records land in segment files in [`DepDb::records_iter`] order
//! (sorted by kind then host), so re-saving an unchanged shard is
//! byte-identical — diffs of a db-dir show real changes only.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, PoisonError};

use serde::{Deserialize, Serialize};

use crate::depdb::DepDb;
use crate::format::parse_records;
use crate::record::DependencyRecord;
use crate::sharded::{shard_index, ShardedDepDb};

/// On-disk format version written into every manifest.
pub const SEGMENT_FORMAT_VERSION: u32 = 1;

/// Manifest file name inside a segmented db directory.
pub const MANIFEST_FILE: &str = "MANIFEST.json";

/// The db directory's table of contents.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Manifest {
    /// On-disk format version ([`SEGMENT_FORMAT_VERSION`]).
    pub format: u32,
    /// Number of shard segment files.
    pub shards: usize,
    /// Distinct records per shard at save time. Advisory (a crash
    /// between a segment write and the manifest write can leave counts
    /// behind the files); loaders report mismatches but trust the
    /// segment files, each of which is internally consistent.
    pub records: Vec<usize>,
}

/// Segment file name for shard `shard`.
pub fn segment_file(shard: usize) -> String {
    format!("shard-{shard:04}.tbl")
}

/// `<path>.quarantine` — where a corrupt segment or manifest is set
/// aside so the rest of the directory can be served.
fn quarantine_path(path: &Path) -> PathBuf {
    let mut q = path.as_os_str().to_owned();
    q.push(".quarantine");
    PathBuf::from(q)
}

/// Writes `contents` to `path` crash-safely: the bytes go to a unique
/// temp file in the same directory (same filesystem, so the final
/// `rename` is atomic), and a kill at any point leaves either the old
/// file or the new one — never a torn prefix.
///
/// # Errors
///
/// Propagates I/O failures; the temp file is removed on a failed write.
pub fn write_atomic(path: impl AsRef<Path>, contents: &str) -> io::Result<()> {
    // Unique per *call*, not just per process: the daemon's collector
    // tick and its shutdown path can save concurrently, and two writers
    // interleaving on one shared temp file would rename a torn file
    // into place — the exact failure this function exists to prevent.
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let path = path.as_ref();
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp_name = format!(
        ".{}.tmp-{}-{}",
        file_name.to_string_lossy(),
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    );
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => PathBuf::from(&tmp_name),
    };
    if let Err(e) = std::fs::write(&tmp, contents) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    Ok(())
}

/// Renders one shard's records as a Table-1 segment file body.
fn segment_text(shard: usize, shards: usize, db: &DepDb) -> String {
    let mut text = format!("# INDaaS DepDB segment {shard}/{shards} (Table-1 record format)\n");
    for rec in db.records_iter() {
        text.push_str(&crate::format::serialize_record_ref(rec));
        text.push('\n');
    }
    text
}

fn invalid_data(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

impl ShardedDepDb {
    /// Saves every shard as a segment file plus the manifest, creating
    /// `dir` if needed. Each file is written atomically; the manifest
    /// goes last, so a directory with a manifest always has a complete
    /// segment set. Clears every shard's dirty flag. Returns the number
    /// of segment files written.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save_segments(&self, dir: impl AsRef<Path>) -> io::Result<usize> {
        self.save_segments_inner(dir.as_ref(), false)
    }

    /// Saves only the shards mutated since the last save (plus any
    /// segment file missing on disk), then refreshes the manifest if
    /// anything was written. Falls back to a full [`Self::save_segments`]
    /// when the directory has no manifest yet or was saved with a
    /// different shard count. Returns the number of segment files
    /// written — 0 when nothing changed, making a quiescent daemon's
    /// persistence tick free.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures. A shard whose write failed keeps its
    /// dirty flag, so the next tick retries it.
    pub fn save_dirty_segments(&self, dir: impl AsRef<Path>) -> io::Result<usize> {
        self.save_segments_inner(dir.as_ref(), true)
    }

    fn save_segments_inner(&self, dir: &Path, only_dirty: bool) -> io::Result<usize> {
        // One saver at a time: the daemon's collector tick can race its
        // shutdown save, and unserialized savers could claim dirty
        // flags and rename segments in an order that publishes an older
        // snapshot over a newer one.
        let _saving = self.persist.lock().unwrap_or_else(PoisonError::into_inner);
        // Chaos hook: `db.save` fails the save before any dirty flag is
        // claimed (error/disconnect) or silently skips the tick (drop) —
        // either way every mutated shard stays dirty and the next tick
        // retries.
        match indaas_faultinj::point(indaas_faultinj::points::DB_SAVE) {
            indaas_faultinj::FaultAction::Pass => {}
            indaas_faultinj::FaultAction::Drop => return Ok(0),
            _ => return Err(io::Error::other("injected fault at db.save")),
        }
        std::fs::create_dir_all(dir)?;
        // Dirty-only mode requires a usable manifest with the same
        // shard count; anything else — missing, corrupt, unreadable,
        // different count — degrades to a full save, which rewrites
        // every segment *and* the manifest. A corrupt manifest must
        // heal on the next save, not wedge persistence until shutdown
        // quietly loses acknowledged records.
        let only_dirty = only_dirty
            && match read_manifest(dir) {
                Ok(m) => m.shards == self.num_shards(),
                Err(_) => false,
            };
        let shards = self.num_shards();
        let mut written = 0usize;
        let mut records = Vec::with_capacity(shards);
        for (s, cell) in self.shards.iter().enumerate() {
            let path = dir.join(segment_file(s));
            // The flag is claimed with the snapshot it describes; a
            // mutation publishing after this sets it again, and the next
            // save picks the shard up.
            let (was_dirty, snap) = {
                let mut published = cell.published();
                (
                    std::mem::take(&mut published.dirty),
                    Arc::clone(&published.db),
                )
            };
            records.push(snap.len());
            if only_dirty && !was_dirty && path.exists() {
                continue;
            }
            if let Err(e) = write_atomic(&path, &segment_text(s, shards, &snap)) {
                cell.published().dirty = true;
                return Err(e);
            }
            written += 1;
        }
        if written > 0 || !dir.join(MANIFEST_FILE).exists() {
            let manifest = Manifest {
                format: SEGMENT_FORMAT_VERSION,
                shards,
                records,
            };
            let json = serde_json::to_string(&manifest)
                .map_err(|e| io::Error::other(format!("manifest serialization: {e}")))?;
            write_atomic(dir.join(MANIFEST_FILE), &format!("{json}\n"))?;
        }
        if !only_dirty {
            // A full save after a shard-count change leaves the old
            // layout's higher-numbered segments behind. Once the manifest
            // names the new count they are stale, and a rescan after a
            // lost manifest would serve them — records retracted since
            // included.
            for entry in std::fs::read_dir(dir)? {
                let entry = entry?;
                if segment_index(&entry.file_name().to_string_lossy()).is_some_and(|i| i >= shards)
                {
                    std::fs::remove_file(entry.path())?;
                }
            }
        }
        Ok(written)
    }

    /// Loads a segmented db directory into a store with `shards` shards,
    /// parsing segment files in parallel and routing every record to its
    /// host's shard — which also migrates a directory saved with a
    /// different shard count or repairs a hand edit.
    ///
    /// Corrupt files do not abort the load: a torn or bit-flipped
    /// segment is renamed to `<name>.quarantine` and its shard served
    /// empty; an unparseable manifest is quarantined too and the
    /// directory's `shard-NNNN.tbl` files are rescanned directly. The
    /// store's [`Self::quarantined`] lists what was set aside.
    ///
    /// # Errors
    ///
    /// `NotFound` when the directory or manifest is missing; `InvalidData`
    /// for a manifest from a *newer* format version (downgrade guard);
    /// other I/O errors pass through.
    pub fn load_segments(dir: impl AsRef<Path>, shards: usize) -> io::Result<ShardedDepDb> {
        let dir = dir.as_ref();
        let shards = shards.max(1);
        // Chaos hook: `db.load` makes boot-time recovery fail outright —
        // every fault class surfaces as a load error (a disk has no
        // connection to drop).
        if indaas_faultinj::point(indaas_faultinj::points::DB_LOAD)
            != indaas_faultinj::FaultAction::Pass
        {
            return Err(io::Error::other("injected fault at db.load"));
        }
        let mut quarantined = Vec::new();
        let manifest = match read_manifest(dir) {
            Ok(m) => Some(m),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Garbled table of contents: quarantine it and trust the
                // segment files, each of which is internally consistent.
                let mpath = dir.join(MANIFEST_FILE);
                let q = quarantine_path(&mpath);
                let _ = std::fs::rename(&mpath, &q);
                indaas_obs::log::warn(
                    "persist",
                    &format!("quarantined corrupt manifest {}: {e}", mpath.display()),
                );
                quarantined.push(q);
                None
            }
            Err(e) => return Err(e),
        };
        let segments_on_disk = match &manifest {
            Some(m) => {
                if m.format > SEGMENT_FORMAT_VERSION {
                    return Err(invalid_data(format!(
                        "segment format {} is newer than supported {SEGMENT_FORMAT_VERSION}",
                        m.format
                    )));
                }
                m.shards
            }
            None => scan_segment_count(dir)?,
        };
        let segments = load_segment_files(dir, segments_on_disk, &mut quarantined)?;
        // Every record is routed by its host, so a shard-count change, a
        // hand-edited segment and a lost manifest all load the same way.
        let mut routed = vec![DepDb::new(); shards];
        for record in segments.into_iter().flatten() {
            routed[shard_index(record.host(), shards)].insert(record);
        }
        let mut store = ShardedDepDb::from_routed(routed);
        store.quarantined = quarantined;
        Ok(store)
    }

    /// The files the load that built this store renamed to
    /// `*.quarantine` (corrupt segments or manifest) — empty for a clean
    /// load or a store built in memory. The daemon counts them at bind.
    pub fn quarantined(&self) -> &[PathBuf] {
        &self.quarantined
    }

    /// Opens the segmented store at `path`:
    ///
    /// * a directory with a manifest — segmented load
    ///   ([`Self::load_segments`]);
    /// * a missing path or an empty directory — an empty store (the
    ///   directory is created by the first save).
    ///
    /// # Errors
    ///
    /// `InvalidInput` for a plain file (the message names `--records
    /// FILE --db-dir DIR`, the way to turn a Table-1 file into
    /// segments); `NotFound` for a directory that exists but has no
    /// manifest *and* is non-empty (refusing to silently shadow unknown
    /// data); `InvalidData` for malformed content; other I/O errors pass
    /// through.
    pub fn open(path: impl AsRef<Path>, shards: usize) -> io::Result<ShardedDepDb> {
        let path = path.as_ref();
        if !path.exists() {
            return Ok(ShardedDepDb::new(shards));
        }
        if !path.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "{} is a file, not a db dir; to turn a Table-1 file into segments, \
                     boot with --records FILE --db-dir DIR",
                    path.display()
                ),
            ));
        }
        if path.join(MANIFEST_FILE).exists() {
            return Self::load_segments(path, shards);
        }
        if std::fs::read_dir(path)?.next().is_none() {
            return Ok(ShardedDepDb::new(shards));
        }
        Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "{} has no {MANIFEST_FILE} but is not empty; refusing to treat it as a db dir",
                path.display()
            ),
        ))
    }
}

fn read_manifest(dir: &Path) -> io::Result<Manifest> {
    let text = std::fs::read_to_string(dir.join(MANIFEST_FILE))?;
    let manifest: Manifest = serde_json::from_str(text.trim())
        .map_err(|e| invalid_data(format!("bad {MANIFEST_FILE}: {e}")))?;
    if manifest.shards == 0 {
        return Err(invalid_data(format!(
            "bad {MANIFEST_FILE}: zero shard count"
        )));
    }
    Ok(manifest)
}

/// The shard index of a `shard-NNNN.tbl` file name; `None` for
/// quarantine files and foreign names.
fn segment_index(name: &str) -> Option<usize> {
    name.strip_prefix("shard-")
        .and_then(|rest| rest.strip_suffix(".tbl"))
        .and_then(|digits| digits.parse().ok())
}

/// Highest `shard-NNNN.tbl` index present in `dir`, plus one — how many
/// segment slots to scan when the manifest is gone.
fn scan_segment_count(dir: &Path) -> io::Result<usize> {
    let mut count = 0usize;
    for entry in std::fs::read_dir(dir)? {
        if let Some(idx) = segment_index(&entry?.file_name().to_string_lossy()) {
            count = count.max(idx + 1);
        }
    }
    Ok(count)
}

/// Reads and parses all segment files on a small worker pool (disk and
/// parse work overlap across segments; restart time is bounded by the
/// largest shard, not the sum).
///
/// Corruption is contained per segment: a file that fails to read as
/// UTF-8 or parse as Table-1 records is renamed to `<name>.quarantine`
/// (recorded in `quarantined`) and its slot served empty; a *missing* segment
/// is served empty with a warning (nothing to set aside). Environmental
/// I/O errors — permissions, dying disk — still abort the load.
fn load_segment_files(
    dir: &Path,
    shards: usize,
    quarantined: &mut Vec<PathBuf>,
) -> io::Result<Vec<Vec<DependencyRecord>>> {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8)
        .min(shards.max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: Mutex<Vec<Option<Vec<DependencyRecord>>>> = Mutex::new(vec![None; shards]);
    let set_aside: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());
    let first_error: Mutex<Option<io::Error>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let s = next.fetch_add(1, Ordering::Relaxed);
                if s >= shards {
                    return;
                }
                let path = dir.join(segment_file(s));
                let parsed = std::fs::read_to_string(&path).and_then(|text| {
                    parse_records(&text)
                        .map_err(|e| invalid_data(format!("{}: {e}", path.display())))
                });
                let records = match parsed {
                    Ok(records) => records,
                    Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                        // Torn, bit-flipped, or hand-mangled: set the
                        // file aside and serve the shard empty — the
                        // other shards' records must survive a single
                        // bad segment.
                        let q = quarantine_path(&path);
                        let _ = std::fs::rename(&path, &q);
                        indaas_obs::log::warn(
                            "persist",
                            &format!("quarantined corrupt segment {}: {e}", path.display()),
                        );
                        set_aside
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push(q);
                        Vec::new()
                    }
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {
                        indaas_obs::log::warn(
                            "persist",
                            &format!("segment {} missing; serving it empty", path.display()),
                        );
                        Vec::new()
                    }
                    Err(e) => {
                        first_error
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .get_or_insert(e);
                        return;
                    }
                };
                results.lock().unwrap_or_else(PoisonError::into_inner)[s] = Some(records);
            });
        }
    });
    if let Some(e) = first_error
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        return Err(e);
    }
    quarantined.append(
        &mut set_aside
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner),
    );
    results
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .enumerate()
        .map(|(s, r)| {
            r.ok_or_else(|| invalid_data(format!("segment {} never parsed", segment_file(s))))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depdb::DepView;
    use crate::format::parse_record;
    use crate::record::DependencyRecord;

    fn rec(line: &str) -> DependencyRecord {
        parse_record(line).unwrap()
    }

    fn sample_records(hosts: usize) -> Vec<DependencyRecord> {
        (0..hosts)
            .flat_map(|h| {
                [
                    rec(&format!("<hw=\"srv-{h}\" type=\"CPU\" dep=\"cpu-{h}\"/>")),
                    rec(&format!(
                        "<src=\"srv-{h}\" dst=\"Internet\" route=\"tor-{},core-1\"/>",
                        h % 3
                    )),
                ]
            })
            .collect()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("indaas-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp() {
        let dir = temp_dir("atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file.txt");
        write_atomic(&path, "first").unwrap();
        write_atomic(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().contains("tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segmented_roundtrip_preserves_records_and_routing() {
        let dir = temp_dir("roundtrip");
        let store = ShardedDepDb::new(4);
        store.ingest(sample_records(13));
        let written = store.save_segments(&dir).unwrap();
        assert_eq!(written, 4);
        let back = ShardedDepDb::load_segments(&dir, 4).unwrap();
        assert_eq!(back.len(), store.len());
        for s in 0..4 {
            assert_eq!(back.shard_len(s), store.shard_len(s), "shard {s} differs");
        }
        assert_eq!(back.epoch(), 1, "non-empty load seeds epoch 1");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dirty_save_writes_only_mutated_shards() {
        let dir = temp_dir("dirty");
        let store = ShardedDepDb::new(4);
        store.ingest(sample_records(13));
        assert_eq!(store.save_segments(&dir).unwrap(), 4);
        // Nothing changed: zero segments written.
        assert_eq!(store.save_dirty_segments(&dir).unwrap(), 0);
        // One host's shard changes: exactly one segment rewritten.
        let report = store.ingest([rec("<hw=\"srv-0\" type=\"Disk\" dep=\"disk-new\"/>")]);
        assert_eq!(report.touched.len(), 1);
        assert_eq!(store.save_dirty_segments(&dir).unwrap(), 1);
        let back = ShardedDepDb::load_segments(&dir, 4).unwrap();
        assert_eq!(back.len(), store.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_count_change_reroutes_on_load() {
        let dir = temp_dir("reroute");
        let store = ShardedDepDb::new(4);
        store.ingest(sample_records(13));
        store.save_segments(&dir).unwrap();
        let wider = ShardedDepDb::load_segments(&dir, 9).unwrap();
        assert_eq!(wider.num_shards(), 9);
        assert_eq!(wider.len(), store.len());
        let (a, b) = (store.snapshot(), wider.snapshot());
        for host in crate::depdb::DepView::hosts(&a) {
            assert_eq!(a.component_set_of(&host), b.component_set_of(&host));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn narrowing_save_deletes_stale_segments() {
        let dir = temp_dir("narrow");
        let wide = ShardedDepDb::new(8);
        wide.ingest(sample_records(40));
        assert_eq!(wide.len(), 80);
        wide.save_segments(&dir).unwrap();
        // Reopen with half the shards and retract a record whose host
        // lived in a segment the narrower layout no longer writes.
        let narrow = ShardedDepDb::open(&dir, 4).unwrap();
        let victim = sample_records(40)
            .into_iter()
            .find(|r| shard_index(r.host(), 8) >= 4)
            .unwrap();
        assert_eq!(narrow.retract(&[victim]).touched.len(), 1);
        narrow.save_dirty_segments(&dir).unwrap();
        assert!(!dir.join(segment_file(4)).exists());
        // Losing the manifest rescans the directory: only the four
        // current segments are left to serve, so the record stays gone.
        std::fs::write(dir.join(MANIFEST_FILE), "not json").unwrap();
        let back = ShardedDepDb::load_segments(&dir, 4).unwrap();
        assert_eq!(back.len(), 79);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_handles_every_shape() {
        // Missing path and empty directory: empty store.
        let missing = temp_dir("open-missing");
        assert!(ShardedDepDb::open(&missing, 4).unwrap().is_empty());
        let dir = temp_dir("open-shapes");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(ShardedDepDb::open(&dir, 4).unwrap().is_empty());
        // A segmented directory loads.
        let store = ShardedDepDb::new(4);
        store.ingest(sample_records(7));
        let seg_dir = dir.join("db");
        store.save_segments(&seg_dir).unwrap();
        assert_eq!(ShardedDepDb::open(&seg_dir, 4).unwrap().len(), store.len());
        // A plain Table-1 file is refused, naming the flags that turn
        // one into segments.
        let file = dir.join("deps.tbl");
        std::fs::write(&file, "<hw=\"srv-0\" type=\"CPU\" dep=\"cpu-0\"/>\n").unwrap();
        let err = ShardedDepDb::open(&file, 4).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("--records FILE --db-dir DIR"));
        assert!(file.is_file(), "the refused file is left alone");
        // Non-empty directory without a manifest is refused.
        let err = ShardedDepDb::open(&dir, 4).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dirty_save_heals_a_corrupt_manifest() {
        let dir = temp_dir("healmanifest");
        let store = ShardedDepDb::new(4);
        store.ingest(sample_records(13));
        store.save_segments(&dir).unwrap();
        // Corrupt the manifest after boot (torn copy, external edit):
        // the next dirty save must degrade to a full save that rewrites
        // it, not wedge persistence until shutdown loses data.
        std::fs::write(dir.join(MANIFEST_FILE), "{torn").unwrap();
        let written = store.save_dirty_segments(&dir).unwrap();
        assert_eq!(written, 4, "corrupt manifest forces a full rewrite");
        let back = ShardedDepDb::load_segments(&dir, 4).unwrap();
        assert_eq!(back.len(), store.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_future_format_but_recovers_bad_manifest() {
        let dir = temp_dir("badmanifest");
        // A manifest from a newer format version is a deliberate
        // downgrade guard: still refused.
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(MANIFEST_FILE),
            r#"{"format": 99, "shards": 2, "records": [0, 0]}"#,
        )
        .unwrap();
        assert_eq!(
            ShardedDepDb::load_segments(&dir, 4).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        std::fs::remove_dir_all(&dir).ok();
        // A *garbled* manifest is corruption, not a version skew: it is
        // quarantined and the segment files are rescanned directly.
        let dir = temp_dir("tornmanifest");
        let store = ShardedDepDb::new(4);
        store.ingest(sample_records(13));
        store.save_segments(&dir).unwrap();
        std::fs::write(dir.join(MANIFEST_FILE), "not json").unwrap();
        let back = ShardedDepDb::load_segments(&dir, 4).unwrap();
        assert_eq!(back.len(), store.len(), "records survive a torn manifest");
        assert_eq!(back.quarantined().len(), 1);
        assert!(dir.join(format!("{MANIFEST_FILE}.quarantine")).exists());
        // The next save rewrites a clean manifest.
        back.save_segments(&dir).unwrap();
        let healed = ShardedDepDb::load_segments(&dir, 4).unwrap();
        assert_eq!(healed.len(), store.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_segment_is_quarantined_and_survivors_served() {
        let dir = temp_dir("quarantine");
        let store = ShardedDepDb::new(4);
        store.ingest(sample_records(13));
        store.save_segments(&dir).unwrap();
        // Bit-flip one segment into invalid UTF-8 (a torn page, a bad
        // disk sector): startup must serve the other three shards.
        let victim = dir.join(segment_file(1));
        let victim_len = std::fs::read(&victim).unwrap().len();
        std::fs::write(&victim, [0xFFu8, 0xFE, 0x00, 0x80]).unwrap();
        assert!(victim_len > 0);
        let back = ShardedDepDb::load_segments(&dir, 4).unwrap();
        assert_eq!(back.quarantined(), &[quarantine_path(&victim)]);
        assert!(!victim.exists(), "bad segment renamed away");
        assert!(quarantine_path(&victim).exists());
        assert_eq!(back.shard_len(1), 0, "bad shard served empty");
        let survivors: usize = (0..4).filter(|&s| s != 1).map(|s| store.shard_len(s)).sum();
        assert_eq!(back.len(), survivors, "surviving shards intact");
        // Truncated-but-valid-UTF-8 garbage quarantines the same way.
        let victim = dir.join(segment_file(2));
        std::fs::write(&victim, "<hw=\"srv-").unwrap();
        let back = ShardedDepDb::load_segments(&dir, 4).unwrap();
        assert_eq!(back.quarantined().len(), 1);
        assert!(quarantine_path(&victim).exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
