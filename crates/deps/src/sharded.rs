//! Host-sharded dependency store with per-shard locks, per-shard
//! epochs, and snapshots that read each shard's data and epoch as one
//! pair.
//!
//! Cloud dependency data arrives as high-rate, mostly-local updates from
//! many collectors at once (AID, arXiv:2109.04893), so the store is
//! sharded by host and every shard is locked on its own:
//!
//! * every record routes to `shard_index(record.host(), N)` — all three
//!   record kinds key by host, so a host's records always land together;
//! * each shard cell holds two std mutexes. The **write** lock guards
//!   the writer's private [`DepDb`], mutated in place. The **publish**
//!   lock guards what readers see: the shard's current `Arc<DepDb>`, the
//!   epoch naming it and its dirty flag, which only ever change
//!   together;
//! * a mutation routes its batch by shard *before* taking any lock, then
//!   locks **only the touched shards**, in ascending index order so
//!   multi-shard batches can never deadlock against each other —
//!   writers contend only when they touch the same shard. A shard the
//!   batch changed clones its database into a fresh `Arc` outside the
//!   publish lock — a copy of the shard's host index plus the lists of
//!   the hosts the batch touched, since [`DepDb`] shares every other
//!   host's list between clones — swaps it in with the next epoch under
//!   that lock, and drops the old one after releasing it;
//! * [`ShardedDepDb::snapshot`] takes each shard's publish lock only to
//!   clone the `Arc` and read the epoch — one short, uncontended lock
//!   per shard that never waits on a clone or a free — so every pinned
//!   `(shard, epoch)` names exactly the data beside it;
//! * [`DbSnapshot`] composes the per-shard `Arc`s into one read-only
//!   [`DepView`] the audit engines consume, and can name exactly which
//!   `(shard, epoch)` pairs a given host set reads — the audit cache
//!   keys on those pins, so audits over untouched shards stay cached
//!   across unrelated ingests.
//!
//! Per-shard write counters and a contended-acquisition gauge
//! ([`ShardedDepDb::counters`]) make the parallelism observable: the
//! daemon's `Status` answer carries the per-shard writes, its `Metrics`
//! answer the totals and the contention gauge.

use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};

use crate::depdb::{DepDb, DepView, HostLists};
use crate::record::{DependencyRecord, HardwareDep, NetworkDep, SoftwareDep};

/// Monotonic database version. Epoch 0 is the empty database.
pub type Epoch = u64;

/// Deterministic host → shard routing (FNV-1a over the host key).
///
/// Stable across processes and daemon restarts, so cache pins, segment
/// files and status reports mean the same thing on every node with the
/// same shard count.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn shard_index(host: &str, shards: usize) -> usize {
    assert!(shards > 0, "shard count must be at least 1");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in host.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// The per-shard epochs of a sharded store at one instant.
///
/// Equality is exact: two vectors compare equal iff every shard sits at
/// the same epoch, which is what lets the audit cache short-circuit a
/// purge when nothing can be stale.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpochVector(Vec<Epoch>);

impl EpochVector {
    /// The epoch of `shard` (0 for out-of-range shards — epoch 0 is the
    /// empty database).
    pub fn get(&self, shard: usize) -> Epoch {
        self.0.get(shard).copied().unwrap_or(0)
    }

    /// Number of shards covered.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the zero-shard vector.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The raw per-shard epochs.
    pub fn as_slice(&self) -> &[Epoch] {
        &self.0
    }
}

impl From<Vec<Epoch>> for EpochVector {
    fn from(epochs: Vec<Epoch>) -> Self {
        EpochVector(epochs)
    }
}

/// What one sharded ingest or retract batch did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardedIngestReport {
    /// Records newly inserted (or removed, for retractions).
    pub changed: usize,
    /// Records ignored: duplicate inserts or absent removals.
    pub ignored: usize,
    /// The store's *global* epoch after the batch — bumps by one per
    /// effective batch, whatever number of shards it touched. Under
    /// concurrent writers this is the value observed right after this
    /// batch's own bump (other batches may bump it further at any time).
    pub epoch: Epoch,
    /// Indices of the shards the batch actually changed (sorted). Empty
    /// for a pure-duplicate batch.
    pub touched: Vec<usize>,
}

/// Write-side observability counters ([`ShardedDepDb::counters`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Effective write batches applied per shard (a batch spanning K
    /// shards counts once on each).
    pub shard_writes: Vec<u64>,
    /// Times a writer found a shard lock already held and had to wait,
    /// summed over all shards — the contention gauge: near zero when
    /// writers stay on disjoint shards.
    pub lock_waits: u64,
}

/// What readers see of one shard. The fields are only ever read or
/// replaced together, under the shard's publish lock.
#[derive(Debug)]
pub(crate) struct Published {
    /// The shard's current immutable snapshot. Replaced, never edited,
    /// so a reader holding an older `Arc` keeps a consistent view.
    pub(crate) db: Arc<DepDb>,
    /// The epoch naming `db`: bumps once per effective mutation.
    pub(crate) epoch: Epoch,
    /// Set on every effective mutation, cleared by segment saves — lets
    /// the daemon persist only the shards that changed since the last
    /// save.
    pub(crate) dirty: bool,
}

/// One shard of the store: its writer's database, what it has
/// published, and observability counters.
#[derive(Debug)]
pub(crate) struct ShardCell {
    /// The writer's private database, mutated in place. Held across a
    /// batch's apply and publish; readers never take it.
    write: Mutex<DepDb>,
    /// Held only to clone or swap the snapshot `Arc` and read or bump
    /// the epoch — nothing is cloned or freed under it.
    published: Mutex<Published>,
    /// Effective write batches applied to this shard.
    writes: AtomicU64,
    /// Contended write-lock acquisitions on this shard.
    lock_waits: AtomicU64,
}

impl ShardCell {
    /// A cell seeded with `db`: shard epoch 1 if it holds any record.
    fn new(db: DepDb) -> Self {
        let published = Published {
            db: Arc::new(db.clone()),
            epoch: Epoch::from(!db.is_empty()),
            dirty: false,
        };
        ShardCell {
            write: Mutex::new(db),
            published: Mutex::new(published),
            writes: AtomicU64::new(0),
            lock_waits: AtomicU64::new(0),
        }
    }

    /// Locks the published state. Every holder only copies or assigns
    /// fields, so a poisoned lock still guards a consistent state.
    pub(crate) fn published(&self) -> MutexGuard<'_, Published> {
        self.published
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Publishes the writer's post-mutation database under the next
    /// epoch. Called with this shard's write lock held. What it copies
    /// is the shard's host index plus the lists of the hosts the batch
    /// touched: the writer already copied those on write, and the clone
    /// shares every other host's list with the old snapshot.
    fn publish(&self, db: &DepDb) {
        let fresh = Arc::new(db.clone());
        let old = {
            let mut published = self.published();
            published.epoch += 1;
            published.dirty = true;
            std::mem::replace(&mut published.db, fresh)
        };
        // The last reference to an old snapshot is freed here, after the
        // publish lock is released.
        drop(old);
        self.writes.fetch_add(1, Ordering::Relaxed);
    }
}

/// A dependency store sharded by host key: per-shard write locks,
/// copy-on-write snapshots.
///
/// Both mutation entry points ([`ShardedDepDb::ingest`],
/// [`ShardedDepDb::retract`]) take `&self`: the store is safe to share
/// across threads directly (no external lock needed), and writers to
/// disjoint shards proceed in parallel.
#[derive(Debug)]
pub struct ShardedDepDb {
    pub(crate) shards: Vec<ShardCell>,
    /// Global batch counter: bumps once per effective batch.
    epoch: AtomicU64,
    /// Serializes whole-store segment saves (`crate::persist`): two
    /// concurrent savers — the daemon's collector tick racing its
    /// shutdown save — would otherwise claim dirty flags and rename
    /// segment files in an interleaved order that can publish an older
    /// snapshot over a newer one.
    pub(crate) persist: Mutex<()>,
    /// Files the load that built this store renamed to `*.quarantine`
    /// ([`ShardedDepDb::quarantined`]).
    pub(crate) quarantined: Vec<PathBuf>,
}

impl ShardedDepDb {
    /// An empty store with `shards` shards (clamped to at least 1), all
    /// at epoch 0.
    pub fn new(shards: usize) -> Self {
        Self::from_routed((0..shards.max(1)).map(|_| DepDb::new()).collect())
    }

    /// Assembles a store from already-routed per-shard databases (the
    /// segment loader's entry point). Every non-empty shard starts at
    /// shard epoch 1, and a non-empty store at global epoch 1.
    pub(crate) fn from_routed(routed: Vec<DepDb>) -> Self {
        let epoch = Epoch::from(routed.iter().any(|db| !db.is_empty()));
        ShardedDepDb {
            shards: routed.into_iter().map(ShardCell::new).collect(),
            epoch: AtomicU64::new(epoch),
            persist: Mutex::new(()),
            quarantined: Vec::new(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard `host`'s records route to.
    pub fn shard_of(&self, host: &str) -> usize {
        shard_index(host, self.shards.len())
    }

    /// The global epoch: bumps by one per effective batch.
    pub fn epoch(&self) -> Epoch {
        self.epoch.load(Ordering::SeqCst)
    }

    /// The per-shard epochs, each read under its shard's publish lock.
    pub fn epochs(&self) -> EpochVector {
        EpochVector(self.shards.iter().map(|c| c.published().epoch).collect())
    }

    /// Per-shard write counters and the lock-contention gauge.
    pub fn counters(&self) -> ShardCounters {
        ShardCounters {
            shard_writes: self
                .shards
                .iter()
                .map(|c| c.writes.load(Ordering::Relaxed))
                .collect(),
            lock_waits: self
                .shards
                .iter()
                .map(|c| c.lock_waits.load(Ordering::Relaxed))
                .sum(),
        }
    }

    /// Distinct records in shard `shard` (via its published snapshot).
    pub fn shard_len(&self, shard: usize) -> usize {
        self.shards[shard].published().db.len()
    }

    /// Total distinct records across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|c| c.published().db.len()).sum()
    }

    /// True if no shard holds any record.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|c| c.published().db.is_empty())
    }

    /// A copy-on-write snapshot of the whole store: per shard, one short
    /// lock to clone the `Arc` and read the epoch beside it — no record
    /// copied, and never delayed by a writer's clone. Cheap enough to
    /// take per request.
    pub fn snapshot(&self) -> DbSnapshot {
        let (shards, epochs) = self
            .shards
            .iter()
            .map(|cell| {
                let published = cell.published();
                (Arc::clone(&published.db), published.epoch)
            })
            .unzip();
        DbSnapshot {
            shards,
            epochs: EpochVector(epochs),
        }
    }

    /// Locks one shard for writing, counting contended acquisitions.
    fn lock_shard(&self, shard: usize) -> MutexGuard<'_, DepDb> {
        let cell = &self.shards[shard];
        match cell.write.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                cell.lock_waits.fetch_add(1, Ordering::Relaxed);
                cell.write.lock().expect("shard lock poisoned")
            }
            Err(TryLockError::Poisoned(e)) => panic!("shard lock poisoned: {e}"),
        }
    }

    /// The one mutation path behind [`Self::ingest`] and [`Self::retract`].
    /// Routes the batch by shard before taking any lock, then locks the
    /// hit shards in ascending index order (the deadlock-freedom
    /// discipline — two multi-shard batches always acquire their common
    /// shards in the same order). `op` applies one record, and its
    /// `true`/`false` counts as changed/ignored. Each shard that changed
    /// is published, and the global epoch bumps once if any did.
    fn apply<R: Borrow<DependencyRecord>>(
        &self,
        records: impl IntoIterator<Item = R>,
        mut op: impl FnMut(&mut DepDb, R) -> bool,
    ) -> ShardedIngestReport {
        let n = self.shards.len();
        let mut routed: Vec<Vec<R>> = (0..n).map(|_| Vec::new()).collect();
        for r in records {
            routed[shard_index(r.borrow().host(), n)].push(r);
        }
        let hit: Vec<usize> = (0..n).filter(|&s| !routed[s].is_empty()).collect();
        debug_assert!(hit.windows(2).all(|w| w[0] < w[1]), "ascending lock order");
        let mut guards: Vec<(usize, MutexGuard<'_, DepDb>)> =
            hit.into_iter().map(|s| (s, self.lock_shard(s))).collect();
        let mut report = ShardedIngestReport::default();
        for (s, db) in &mut guards {
            let mut changed = 0;
            for r in std::mem::take(&mut routed[*s]) {
                if op(db, r) {
                    changed += 1;
                } else {
                    report.ignored += 1;
                }
            }
            if changed > 0 {
                self.shards[*s].publish(db);
                report.changed += changed;
                report.touched.push(*s);
            }
        }
        report.epoch = if report.touched.is_empty() {
            self.epoch.load(Ordering::SeqCst)
        } else {
            self.epoch.fetch_add(1, Ordering::SeqCst) + 1
        };
        report
    }

    /// Ingests a record batch. Only the shards the batch routes to are
    /// locked; only shards that gained a record bump their epoch and
    /// publish a fresh snapshot. A pure-duplicate batch touches nothing.
    pub fn ingest(
        &self,
        records: impl IntoIterator<Item = DependencyRecord>,
    ) -> ShardedIngestReport {
        self.apply(records, DepDb::insert)
    }

    /// Retracts records (exact match), locking only their hosts' shards.
    /// Only shards that lost a record bump their epoch.
    pub fn retract(&self, records: &[DependencyRecord]) -> ShardedIngestReport {
        self.apply(records, DepDb::remove)
    }
}

/// An immutable, epoch-pinned view over all shards of a [`ShardedDepDb`]
/// — what audit jobs read.
///
/// Cloning is N pointer bumps. A snapshot is per-shard consistent: each
/// shard's `Arc` is an immutable database later ingests can never mutate
/// (the store swaps in fresh snapshots instead of editing in place), and
/// each pinned epoch is the one published with its shard's data.
#[derive(Clone, Debug)]
pub struct DbSnapshot {
    shards: Vec<Arc<DepDb>>,
    epochs: EpochVector,
}

impl DbSnapshot {
    /// Number of shards composed.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The epoch vector pinned at snapshot time.
    pub fn epochs(&self) -> &EpochVector {
        &self.epochs
    }

    /// The shard `host` routes to.
    pub fn shard_of(&self, host: &str) -> usize {
        shard_index(host, self.shards.len())
    }

    /// The snapshot of shard `shard`.
    pub fn shard(&self, shard: usize) -> &Arc<DepDb> {
        &self.shards[shard]
    }

    fn shard_for(&self, host: &str) -> &DepDb {
        &self.shards[self.shard_of(host)]
    }

    /// The sorted, deduplicated `(shard, epoch)` pairs a query over
    /// `hosts` reads — the audit cache keys on exactly these pins, so a
    /// cached audit stays valid across ingests that only touch *other*
    /// shards.
    pub fn pins_for_hosts<'a>(
        &self,
        hosts: impl IntoIterator<Item = &'a str>,
    ) -> Vec<(u32, Epoch)> {
        let mut shards: Vec<usize> = hosts.into_iter().map(|h| self.shard_of(h)).collect();
        shards.sort_unstable();
        shards.dedup();
        shards
            .into_iter()
            .map(|s| (s as u32, self.epochs.get(s)))
            .collect()
    }
}

impl DepView for DbSnapshot {
    fn network_deps(&self, host: &str) -> &[NetworkDep] {
        self.shard_for(host).network_deps(host)
    }

    fn hardware_deps(&self, host: &str) -> &[HardwareDep] {
        self.shard_for(host).hardware_deps(host)
    }

    fn software_deps(&self, host: &str) -> &[SoftwareDep] {
        self.shard_for(host).software_deps(host)
    }

    fn hosts(&self) -> BTreeSet<String> {
        self.shards.iter().flat_map(|s| s.hosts()).collect()
    }

    fn record_count(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    fn host_lists(&self, host: &str) -> HostLists {
        self.shard_for(host).host_lists(host)
    }

    fn component_set_of(&self, host: &str) -> BTreeSet<String> {
        self.shard_for(host).component_set_of(host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::parse_record;

    fn rec(line: &str) -> DependencyRecord {
        parse_record(line).unwrap()
    }

    fn host_record(host: &str, dep: &str) -> DependencyRecord {
        rec(&format!("<hw=\"{host}\" type=\"CPU\" dep=\"{dep}\"/>"))
    }

    /// Two hosts guaranteed to live in different shards of an
    /// `n`-sharded store (panics if `n == 1`).
    fn split_hosts(n: usize) -> (String, String) {
        let a = "H0".to_string();
        for i in 1..10_000 {
            let b = format!("H{i}");
            if shard_index(&b, n) != shard_index(&a, n) {
                return (a, b);
            }
        }
        panic!("no host pair split across {n} shards");
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        for n in [1, 2, 8, 64] {
            for host in ["S1", "S2", "a-very-long-host-name", ""] {
                let s = shard_index(host, n);
                assert!(s < n);
                assert_eq!(s, shard_index(host, n), "routing must be stable");
            }
        }
    }

    #[test]
    fn ingest_touches_only_the_hosts_shards() {
        let db = ShardedDepDb::new(8);
        let (a, b) = split_hosts(8);
        let report = db.ingest([host_record(&a, "cpu-1")]);
        assert_eq!(report.changed, 1);
        assert_eq!(report.epoch, 1);
        assert_eq!(report.touched, vec![db.shard_of(&a)]);
        let epochs = db.epochs();
        assert_eq!(epochs.get(db.shard_of(&a)), 1);
        assert_eq!(epochs.get(db.shard_of(&b)), 0);
    }

    #[test]
    fn untouched_shards_share_their_snapshot_arc() {
        let db = ShardedDepDb::new(8);
        let (a, b) = split_hosts(8);
        db.ingest([host_record(&a, "cpu-1"), host_record(&b, "cpu-2")]);
        let before = db.snapshot();
        // Ingest into b's shard only: a's snapshot Arc must be *shared*,
        // not re-cloned — that sharing is the whole point of sharding.
        db.ingest([host_record(&b, "cpu-3")]);
        let after = db.snapshot();
        let (sa, sb) = (db.shard_of(&a), db.shard_of(&b));
        assert!(
            Arc::ptr_eq(before.shard(sa), after.shard(sa)),
            "untouched shard must keep sharing its snapshot"
        );
        assert!(
            !Arc::ptr_eq(before.shard(sb), after.shard(sb)),
            "dirty shard must get a fresh snapshot"
        );
    }

    /// A publish copies the shard's host index and the touched hosts'
    /// lists: a host in the same shard that the batch did not touch
    /// keeps reading the very allocation the older snapshot reads.
    #[test]
    fn untouched_hosts_share_their_record_lists() {
        let db = ShardedDepDb::new(8);
        let a = "H0";
        let b = (1..10_000)
            .map(|i| format!("H{i}"))
            .find(|h| db.shard_of(h) == db.shard_of(a))
            .expect("a host sharing H0's shard");
        let route = |host: &str, core: &str| NetworkDep {
            src: host.into(),
            dst: "Internet".into(),
            route: vec!["tor1".into(), core.into()],
        };
        let cpu = |host: &str, dep: &str| HardwareDep {
            hw: host.into(),
            hw_type: "CPU".into(),
            dep: dep.into(),
        };
        db.ingest([
            DependencyRecord::Network(route(a, "core1")),
            DependencyRecord::Hardware(cpu(a, "cpu-1")),
            DependencyRecord::Network(route(&b, "core1")),
            DependencyRecord::Hardware(cpu(&b, "cpu-2")),
        ]);
        let before = db.snapshot();
        db.ingest([
            DependencyRecord::Network(route(a, "core2")),
            DependencyRecord::Hardware(cpu(a, "cpu-3")),
        ]);
        let after = db.snapshot();
        let shared = |host: &str| {
            (
                std::ptr::eq(
                    before.network_deps(host).as_ptr(),
                    after.network_deps(host).as_ptr(),
                ),
                std::ptr::eq(
                    before.hardware_deps(host).as_ptr(),
                    after.hardware_deps(host).as_ptr(),
                ),
            )
        };
        assert_eq!(shared(&b), (true, true), "b's lists must be shared");
        assert_eq!(shared(a), (false, false), "a's lists must be fresh copies");
        assert_eq!(before.network_deps(a), [route(a, "core1")]);
        assert_eq!(before.hardware_deps(a), [cpu(a, "cpu-1")]);
        assert_eq!(after.network_deps(a).len(), 2);
        assert_eq!(after.hardware_deps(a).len(), 2);
    }

    /// The soundness of keying a per-host cache on list identity: a held
    /// handle never sees a write, any write under a host renews its
    /// handles (even one a retract undoes), and a publish of the host's
    /// shard leaves every other host's handles as they were.
    #[test]
    fn held_host_lists_never_change_and_writes_renew_them() {
        let db = ShardedDepDb::new(8);
        let a = "H0";
        let b = (1..10_000)
            .map(|i| format!("H{i}"))
            .find(|h| db.shard_of(h) == db.shard_of(a))
            .expect("a host sharing H0's shard");
        db.ingest([
            rec(&format!(
                r#"<src="{a}" dst="Internet" route="tor1,core1"/>"#
            )),
            host_record(a, "cpu-1"),
            host_record(&b, "cpu-2"),
        ]);
        let held_a = db.snapshot().host_lists(a);
        let held_b = db.snapshot().host_lists(&b);
        let (routes, cpus) = (
            held_a.network.as_deref().cloned(),
            held_a.hardware.as_deref().cloned(),
        );
        assert!(held_a.software.is_none(), "a has no software records");

        let nic = host_record(a, "nic-1");
        assert_eq!(db.ingest([nic.clone()]).changed, 1);
        assert_eq!(db.retract(&[nic]).changed, 1);
        let now = db.snapshot();

        assert_eq!(held_a.network.as_deref(), routes.as_ref());
        assert_eq!(held_a.hardware.as_deref(), cpus.as_ref());
        let fresh = now.host_lists(a);
        assert_eq!(fresh.hardware.as_deref(), cpus.as_ref(), "same contents");
        assert!(!fresh.same(&held_a), "a write under a renews its handles");
        assert!(
            now.host_lists(&b).same(&held_b),
            "b shares a's shard but was not written"
        );
        assert!(now.host_lists("H-absent").same(&HostLists::default()));
    }

    #[test]
    fn duplicate_batch_refreshes_nothing() {
        let db = ShardedDepDb::new(4);
        db.ingest([host_record("S1", "cpu-1")]);
        let before = db.snapshot();
        let report = db.ingest([host_record("S1", "cpu-1")]);
        assert_eq!((report.changed, report.ignored), (0, 1));
        assert!(report.touched.is_empty());
        assert_eq!(db.epoch(), 1, "duplicate batch must not bump the epoch");
        let after = db.snapshot();
        for s in 0..db.num_shards() {
            assert!(Arc::ptr_eq(before.shard(s), after.shard(s)));
        }
    }

    #[test]
    fn snapshots_are_isolated_from_later_ingests() {
        let db = ShardedDepDb::new(4);
        db.ingest([host_record("S1", "cpu-1")]);
        let snap = db.snapshot();
        let pinned = snap.epochs().clone();
        db.ingest([host_record("S1", "cpu-2"), host_record("S2", "disk-1")]);
        assert_eq!(
            snap.record_count(),
            1,
            "snapshot must not see later ingests"
        );
        assert_eq!(
            snap.epochs(),
            &pinned,
            "snapshot pins the epoch vector it was taken at"
        );
        assert!(db.epochs() != pinned, "the live store moved on");
        assert_eq!(db.snapshot().record_count(), 3);
    }

    #[test]
    fn sharded_matches_monolithic_semantics() {
        let records = vec![
            rec(r#"<src="S1" dst="Internet" route="tor1,core1"/>"#),
            rec(r#"<src="S2" dst="Internet" route="tor1,core2"/>"#),
            host_record("S1", "cpu-1"),
            rec(r#"<pgm="Riak1" hw="S3" dep="libc6,libsvn1"/>"#),
        ];
        let mono = DepDb::from_records(records.clone());
        let sharded = ShardedDepDb::new(8);
        let report = sharded.ingest(records.clone());
        assert_eq!(report.changed, mono.len());
        assert_eq!(sharded.len(), mono.len());
        let snap = sharded.snapshot();
        assert_eq!(DepView::hosts(&snap), DepDb::hosts(&mono));
        for host in mono.hosts() {
            assert_eq!(
                DepView::component_set_of(&snap, &host),
                mono.component_set_of(&host)
            );
            assert_eq!(
                DepView::network_deps(&snap, &host),
                mono.network_deps(&host)
            );
        }
        // Retract parity.
        let r = sharded.retract(&records);
        assert_eq!(r.changed, mono.len());
        assert!(sharded.is_empty());
    }

    #[test]
    fn from_routed_seeds_epochs() {
        let seeded = DepDb::from_records(vec![host_record("S1", "cpu-1")]);
        let sharded = ShardedDepDb::from_routed(vec![DepDb::new(), seeded]);
        assert_eq!(sharded.epoch(), 1, "non-empty seed starts at epoch 1");
        assert_eq!(sharded.epochs().as_slice(), &[0, 1]);
        assert_eq!(sharded.snapshot().shard(1).len(), 1);
        assert_eq!(ShardedDepDb::new(4).epoch(), 0);
    }

    /// A snapshot reads each shard's data and epoch as one pair. With one
    /// fresh record per batch into a 1-shard store, a shard holding `n`
    /// records is at epoch `n` — under any interleaving with the writer,
    /// a pin is exact, not merely never newer than its data.
    #[test]
    fn snapshot_pins_are_exact_under_a_concurrent_writer() {
        const BATCHES: u64 = 1000;
        let db = ShardedDepDb::new(1);
        let done = std::sync::atomic::AtomicBool::new(false);
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    start.wait();
                    while !done.load(Ordering::Relaxed) {
                        let snap = db.snapshot();
                        assert_eq!(snap.shard(0).len() as Epoch, snap.epochs().get(0));
                    }
                });
            }
            start.wait();
            for i in 0..BATCHES {
                db.ingest([host_record(&format!("H{i}"), "cpu")]);
            }
            done.store(true, Ordering::Relaxed);
        });
        assert_eq!(db.epochs().get(0), BATCHES);
    }

    #[test]
    fn pins_cover_exactly_the_read_shards() {
        let db = ShardedDepDb::new(8);
        let (a, b) = split_hosts(8);
        db.ingest([host_record(&a, "cpu-1"), host_record(&b, "cpu-2")]);
        let snap = db.snapshot();
        let pins = snap.pins_for_hosts([a.as_str(), b.as_str(), a.as_str()]);
        let mut expect = vec![(snap.shard_of(&a) as u32, 1), (snap.shard_of(&b) as u32, 1)];
        expect.sort_unstable();
        assert_eq!(pins, expect, "pins are sorted and deduplicated");
    }

    #[test]
    fn writes_and_lock_waits_are_counted() {
        let db = ShardedDepDb::new(8);
        let (a, b) = split_hosts(8);
        db.ingest([host_record(&a, "cpu-1")]);
        db.ingest([host_record(&a, "cpu-2"), host_record(&b, "cpu-1")]);
        db.ingest([host_record(&a, "cpu-2")]); // pure duplicate: no write
        let counters = db.counters();
        assert_eq!(counters.shard_writes[db.shard_of(&a)], 2);
        assert_eq!(counters.shard_writes[db.shard_of(&b)], 1);
        assert_eq!(
            counters.shard_writes.iter().sum::<u64>(),
            3,
            "only effective batches count as writes"
        );
        assert_eq!(counters.lock_waits, 0, "uncontended writes never wait");
    }

    /// Writers on disjoint shards running concurrently land exactly the
    /// records and per-shard epochs a serial replay would (the e2e-sized
    /// version of this property lives in tests/properties.rs).
    #[test]
    fn concurrent_disjoint_writers_match_serial() {
        let shards = 4;
        let concurrent = ShardedDepDb::new(shards);
        let serial = ShardedDepDb::new(shards);
        // One host pool per shard.
        let mut pools: Vec<Vec<String>> = vec![Vec::new(); shards];
        for i in 0..10_000 {
            let host = format!("H{i}");
            let s = shard_index(&host, shards);
            if pools[s].len() < 2 {
                pools[s].push(host);
            }
            if pools.iter().all(|p| p.len() == 2) {
                break;
            }
        }
        std::thread::scope(|scope| {
            for pool in &pools {
                let db = &concurrent;
                scope.spawn(move || {
                    for batch in 0..5 {
                        let records: Vec<DependencyRecord> = pool
                            .iter()
                            .map(|h| host_record(h, &format!("dep-{batch}")))
                            .collect();
                        db.ingest(records);
                    }
                });
            }
        });
        for pool in &pools {
            for batch in 0..5 {
                let records: Vec<DependencyRecord> = pool
                    .iter()
                    .map(|h| host_record(h, &format!("dep-{batch}")))
                    .collect();
                serial.ingest(records);
            }
        }
        assert_eq!(concurrent.epochs(), serial.epochs());
        assert_eq!(concurrent.epoch(), serial.epoch());
        let (csnap, ssnap) = (concurrent.snapshot(), serial.snapshot());
        assert_eq!(DepView::hosts(&csnap), DepView::hosts(&ssnap));
        for host in DepView::hosts(&ssnap) {
            assert_eq!(csnap.component_set_of(&host), ssnap.component_set_of(&host));
        }
    }
}
