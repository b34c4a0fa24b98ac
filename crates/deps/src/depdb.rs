//! DepDB — the dependency information database the auditing agent queries
//! while building fault graphs (§3, §4.1.1 steps 2–6).

use std::collections::BTreeSet;
use std::collections::HashMap;
use std::sync::Arc;

use crate::record::{DependencyRecord, HardwareDep, NetworkDep, SoftwareDep};

/// Read-only view of dependency data, as the audit engines consume it.
///
/// The engines only ever look dependencies up *by host* — they never
/// mutate and never assume one contiguous store — so they are written
/// against this trait instead of [`DepDb`] directly. A monolithic
/// [`DepDb`] is one implementation; a sharded snapshot
/// ([`crate::sharded::DbSnapshot`]) composed of many per-shard `Arc`s is
/// another, which is what lets the auditing daemon refresh only the
/// shard an ingest touched.
pub trait DepView: std::fmt::Debug + Send + Sync {
    /// Network routes originating at `host`.
    fn network_deps(&self, host: &str) -> &[NetworkDep];

    /// Hardware components of `host`.
    fn hardware_deps(&self, host: &str) -> &[HardwareDep];

    /// Software records for programs running on `host`.
    fn software_deps(&self, host: &str) -> &[SoftwareDep];

    /// All hosts with at least one record of any kind.
    fn hosts(&self) -> BTreeSet<String>;

    /// Total number of distinct records visible through the view.
    fn record_count(&self) -> usize;

    /// The flat component universe `host` depends on: network devices on
    /// its routes, hardware component ids, programs and their packages.
    /// This is the *component-set* the PIA protocol feeds into P-SOP.
    fn component_set_of(&self, host: &str) -> BTreeSet<String> {
        let mut set = BTreeSet::new();
        for n in self.network_deps(host) {
            for dev in &n.route {
                set.insert(dev.clone());
            }
        }
        for h in self.hardware_deps(host) {
            set.insert(h.dep.clone());
        }
        for s in self.software_deps(host) {
            set.insert(s.pgm.clone());
            for d in &s.deps {
                set.insert(d.clone());
            }
        }
        set
    }
}

/// A borrowed view of one stored record — what [`DepDb::records_iter`]
/// yields. Records are stored per kind, so a borrowing iterator cannot
/// hand out `&DependencyRecord`; this ref enum lets full-database passes
/// (saving, re-sharding, component extraction) walk every record without
/// first materializing an owned `Vec` of clones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DepRecordRef<'a> {
    /// A borrowed network route record.
    Network(&'a NetworkDep),
    /// A borrowed hardware component record.
    Hardware(&'a HardwareDep),
    /// A borrowed software package record.
    Software(&'a SoftwareDep),
}

impl DepRecordRef<'_> {
    /// The host this record belongs to.
    pub fn host(&self) -> &str {
        match self {
            DepRecordRef::Network(n) => &n.src,
            DepRecordRef::Hardware(h) => &h.hw,
            DepRecordRef::Software(s) => &s.hw,
        }
    }

    /// Clones into an owned [`DependencyRecord`].
    pub fn to_owned(self) -> DependencyRecord {
        match self {
            DepRecordRef::Network(n) => DependencyRecord::Network(n.clone()),
            DepRecordRef::Hardware(h) => DependencyRecord::Hardware(h.clone()),
            DepRecordRef::Software(s) => DependencyRecord::Software(s.clone()),
        }
    }
}

/// In-memory dependency store indexed by host.
///
/// Each host's record list sits behind an `Arc`, so a clone copies the
/// host index — one pointer per host — and shares every list with the
/// original. A mutation copies only the one list it changes
/// (`Arc::make_mut`), and a duplicate insert or absent removal copies
/// nothing. That is what bounds a sharded store's publish
/// ([`crate::sharded`]) by the shard's host index plus the lists its
/// batch touched, not by the shard's record count.
#[derive(Clone, Debug, Default)]
pub struct DepDb {
    network: HashMap<String, Arc<Vec<NetworkDep>>>,
    hardware: HashMap<String, Arc<Vec<HardwareDep>>>,
    software: HashMap<String, Arc<Vec<SoftwareDep>>>,
    record_count: usize,
}

impl DepDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a database from a record stream, deduplicating exact repeats
    /// (collectors running periodically re-report the same dependencies).
    pub fn from_records(records: impl IntoIterator<Item = DependencyRecord>) -> Self {
        let mut db = Self::new();
        for r in records {
            db.insert(r);
        }
        db
    }

    /// Inserts one record; exact duplicates are ignored. Returns whether the
    /// record was new.
    pub fn insert(&mut self, record: DependencyRecord) -> bool {
        /// Searches `host`'s list before copying it or allocating a key,
        /// so a duplicate copies nothing and a new record copies only
        /// its own host's list.
        fn add<T: Clone + PartialEq>(
            map: &mut HashMap<String, Arc<Vec<T>>>,
            record: T,
            host: impl Fn(&T) -> &str,
        ) -> bool {
            let Some(list) = map.get_mut(host(&record)) else {
                map.insert(host(&record).to_owned(), Arc::new(vec![record]));
                return true;
            };
            if list.contains(&record) {
                return false;
            }
            Arc::make_mut(list).push(record);
            true
        }
        let inserted = match record {
            DependencyRecord::Network(n) => add(&mut self.network, n, |n| &n.src),
            DependencyRecord::Hardware(h) => add(&mut self.hardware, h, |h| &h.hw),
            DependencyRecord::Software(s) => add(&mut self.software, s, |s| &s.hw),
        };
        if inserted {
            self.record_count += 1;
        }
        inserted
    }

    /// Removes one record (exact match). Returns whether it was present.
    ///
    /// Supports *update* flows: an acquisition module that re-measures a
    /// changed route removes the stale record and inserts the new one.
    pub fn remove(&mut self, record: &DependencyRecord) -> bool {
        /// Finds the record before copying anything; a host's last record
        /// drops the whole list without copying it.
        fn drop_from<T: Clone + PartialEq>(
            map: &mut HashMap<String, Arc<Vec<T>>>,
            key: &str,
            needle: &T,
        ) -> bool {
            let Some(list) = map.get_mut(key) else {
                return false;
            };
            let Some(pos) = list.iter().position(|x| x == needle) else {
                return false;
            };
            if list.len() == 1 {
                map.remove(key);
            } else {
                Arc::make_mut(list).remove(pos);
            }
            true
        }
        let removed = match record {
            DependencyRecord::Network(n) => drop_from(&mut self.network, &n.src, n),
            DependencyRecord::Hardware(h) => drop_from(&mut self.hardware, &h.hw, h),
            DependencyRecord::Software(s) => drop_from(&mut self.software, &s.hw, s),
        };
        if removed {
            self.record_count -= 1;
        }
        removed
    }

    /// Network routes originating at `host`.
    pub fn network_deps(&self, host: &str) -> &[NetworkDep] {
        self.network.get(host).map_or(&[], |v| v.as_slice())
    }

    /// Hardware components of `host`.
    pub fn hardware_deps(&self, host: &str) -> &[HardwareDep] {
        self.hardware.get(host).map_or(&[], |v| v.as_slice())
    }

    /// Software records for programs running on `host`.
    pub fn software_deps(&self, host: &str) -> &[SoftwareDep] {
        self.software.get(host).map_or(&[], |v| v.as_slice())
    }

    /// All hosts that have at least one record of any kind.
    pub fn hosts(&self) -> BTreeSet<String> {
        self.network
            .keys()
            .chain(self.hardware.keys())
            .chain(self.software.keys())
            .cloned()
            .collect()
    }

    /// Total number of distinct records stored.
    pub fn len(&self) -> usize {
        self.record_count
    }

    /// True if no records are stored.
    pub fn is_empty(&self) -> bool {
        self.record_count == 0
    }

    /// Walks every stored record without copying it (order: network,
    /// hardware, software, each sorted by host) — the borrowing
    /// counterpart of [`DepDb::all_records`] for full-database passes
    /// like segment saves and shard re-routing, which previously
    /// materialized a full `Vec` of clones on every pass.
    pub fn records_iter(&self) -> impl Iterator<Item = DepRecordRef<'_>> {
        fn sorted_keys<V>(map: &HashMap<String, V>) -> Vec<&String> {
            let mut hosts: Vec<_> = map.keys().collect();
            hosts.sort();
            hosts
        }
        let network = sorted_keys(&self.network)
            .into_iter()
            .flat_map(|h| self.network[h].iter().map(DepRecordRef::Network));
        let hardware = sorted_keys(&self.hardware)
            .into_iter()
            .flat_map(|h| self.hardware[h].iter().map(DepRecordRef::Hardware));
        let software = sorted_keys(&self.software)
            .into_iter()
            .flat_map(|h| self.software[h].iter().map(DepRecordRef::Software));
        network.chain(hardware).chain(software)
    }

    /// Flattens back into an owned record list, in [`DepDb::records_iter`]
    /// order — used by tests and callers that need owned records.
    pub fn all_records(&self) -> Vec<DependencyRecord> {
        self.records_iter().map(DepRecordRef::to_owned).collect()
    }

    /// Loads a database from a Table-1-format text file.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; malformed records surface as
    /// `InvalidData`.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        let records = crate::format::parse_records(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        Ok(Self::from_records(records))
    }

    /// The flat component universe a host depends on: network devices on
    /// its routes, hardware component ids, programs and their packages.
    /// This is the *component-set* the PIA protocol feeds into P-SOP.
    pub fn component_set_of(&self, host: &str) -> BTreeSet<String> {
        let mut set = BTreeSet::new();
        for n in self.network_deps(host) {
            for dev in &n.route {
                set.insert(dev.clone());
            }
        }
        for h in self.hardware_deps(host) {
            set.insert(h.dep.clone());
        }
        for s in self.software_deps(host) {
            set.insert(s.pgm.clone());
            for d in &s.deps {
                set.insert(d.clone());
            }
        }
        set
    }
}

impl DepView for DepDb {
    fn network_deps(&self, host: &str) -> &[NetworkDep] {
        DepDb::network_deps(self, host)
    }

    fn hardware_deps(&self, host: &str) -> &[HardwareDep] {
        DepDb::hardware_deps(self, host)
    }

    fn software_deps(&self, host: &str) -> &[SoftwareDep] {
        DepDb::software_deps(self, host)
    }

    fn hosts(&self) -> BTreeSet<String> {
        DepDb::hosts(self)
    }

    fn record_count(&self) -> usize {
        self.len()
    }

    fn component_set_of(&self, host: &str) -> BTreeSet<String> {
        DepDb::component_set_of(self, host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::parse_records;

    fn sample_db() -> DepDb {
        let doc = r#"
            <src="S1" dst="Internet" route="ToR1,Core1"/>
            <src="S1" dst="Internet" route="ToR1,Core2"/>
            <src="S2" dst="Internet" route="ToR1,Core1"/>
            <hw="S1" type="CPU" dep="cpu-x5550"/>
            <hw="S2" type="Disk" dep="disk-sed900"/>
            <pgm="Riak1" hw="S1" dep="libc6,libsvn1"/>
        "#;
        DepDb::from_records(parse_records(doc).unwrap())
    }

    #[test]
    fn indexes_by_host() {
        let db = sample_db();
        assert_eq!(db.network_deps("S1").len(), 2);
        assert_eq!(db.network_deps("S2").len(), 1);
        assert_eq!(db.hardware_deps("S1").len(), 1);
        assert_eq!(db.software_deps("S1").len(), 1);
        assert!(db.software_deps("S2").is_empty());
        assert!(db.network_deps("S9").is_empty());
    }

    #[test]
    fn deduplicates_repeated_records() {
        let mut db = sample_db();
        let before = db.len();
        let dup = DependencyRecord::Network(NetworkDep {
            src: "S1".into(),
            dst: "Internet".into(),
            route: vec!["ToR1".into(), "Core1".into()],
        });
        assert!(!db.insert(dup));
        assert_eq!(db.len(), before);
    }

    #[test]
    fn hosts_lists_all() {
        let db = sample_db();
        let hosts = db.hosts();
        assert!(hosts.contains("S1"));
        assert!(hosts.contains("S2"));
        assert_eq!(hosts.len(), 2);
    }

    #[test]
    fn component_set_extraction() {
        let db = sample_db();
        let set = db.component_set_of("S1");
        for expected in [
            "ToR1",
            "Core1",
            "Core2",
            "cpu-x5550",
            "Riak1",
            "libc6",
            "libsvn1",
        ] {
            assert!(set.contains(expected), "missing {expected}");
        }
        assert!(
            !set.contains("disk-sed900"),
            "S2's disk must not leak into S1"
        );
    }

    #[test]
    fn all_records_roundtrip_count() {
        let db = sample_db();
        assert_eq!(db.all_records().len(), db.len());
        let db2 = DepDb::from_records(db.all_records());
        assert_eq!(db2.len(), db.len());
    }

    #[test]
    fn records_iter_matches_all_records_without_cloning() {
        let db = sample_db();
        assert_eq!(db.records_iter().count(), db.len());
        let borrowed: Vec<DependencyRecord> =
            db.records_iter().map(DepRecordRef::to_owned).collect();
        assert_eq!(borrowed, db.all_records());
        for (r, owned) in db.records_iter().zip(&borrowed) {
            assert_eq!(r.host(), owned.host());
        }
    }

    #[test]
    fn file_roundtrip() {
        let db = sample_db();
        let path = std::env::temp_dir().join(format!("depdb-test-{}", std::process::id()));
        std::fs::write(&path, crate::format::serialize_records(&db.all_records())).unwrap();
        let back = DepDb::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.len(), db.len());
        assert_eq!(back.component_set_of("S1"), db.component_set_of("S1"));
    }

    #[test]
    fn load_rejects_malformed_file() {
        let path = std::env::temp_dir().join(format!("depdb-bad-{}", std::process::id()));
        std::fs::write(&path, "<garbage>").unwrap();
        let err = DepDb::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
