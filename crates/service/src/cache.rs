//! Content-hash audit-result cache with per-shard epoch pins.
//!
//! Audits are pure functions of `(dependency data read, audit spec)`.
//! The dependency store is sharded with per-shard epochs
//! ([`indaas_deps::ShardedDepDb`]), and a SIA audit reads only the
//! shards its candidate hosts route to — so the cache keys entries by an
//! FNV-1a content hash of the spec's *canonical JSON* (the vendored
//! serde's objects are key-sorted, so serialization is deterministic)
//! concatenated with the `(shard, epoch)` pins of exactly the shards the
//! spec reads. An ingest that bumps *other* shards' epochs leaves those
//! keys — and therefore those cached reports — perfectly hot; only an
//! ingest touching a read shard makes an entry unreachable, and
//! [`AuditCache::purge_stale`] reclaims such entries eagerly (and
//! short-circuits entirely when the epoch vector hasn't moved).
//!
//! Repeated or overlapping queries — a dashboard polling the same
//! deployment comparison, many tenants auditing a popular rack pair —
//! hit the cache instead of recomputing cut sets or sampling rounds.
//!
//! The daemon's SIA cache holds each report as its **wire text**
//! (`Arc<String>`, written once from the ranked rows by the worker that
//! computed it — `AuditingAgent::audit_sia_text` — into a buffer of
//! exactly its length, kept without a second copy, and byte-identical to
//! `encode_line(&report)` of the typed report): a hit is an `Arc` clone
//! that the answer splices in verbatim (`proto::sia_body`), so no hit
//! ever clones or re-encodes a report. The PIA cache keeps its
//! typed rankings; the cache itself is generic over the value.
//!
//! The same [`EpochPins`] mechanism drives the protocol-v2 push path:
//! a subscription ([`crate::subs::SubscriptionRegistry`]) is pinned to
//! exactly the pins its spec's cache key embeds, so "which ingests
//! invalidate this cached report" and "which ingests wake this
//! subscriber" are one answer — and a pushed re-audit lands back in
//! this cache, where every other subscriber to the same spec (and
//! every poller) hits it for free.

use std::collections::{HashMap, VecDeque};

use indaas_deps::{Epoch, EpochVector, Fnv1a};
use serde::Serialize;

/// The `(shard, epoch)` pairs an audit read — what pins a cache entry to
/// the data it was computed from. Empty pins mean the result does not
/// depend on the dependency database at all (PIA inputs travel in the
/// request) and can never go stale.
pub type EpochPins = Vec<(u32, Epoch)>;

/// Content key of an audit job: the FNV-1a hash indexes the map, and
/// the full canonical form rides along so lookups can reject hash
/// collisions — FNV is not collision-resistant and specs are fully
/// request-controlled, so a bare 64-bit key could be made to alias
/// another tenant's entry and silently serve the wrong report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobKey {
    hash: u64,
    canonical: String,
}

/// Builds the content key: scope JSON ‖ kind tag ‖ canonical spec JSON.
///
/// `scope` is whatever pins the result to the data it reads — the
/// [`EpochPins`] of the shards a SIA spec touches, a bare epoch, or `()`
/// for data-independent jobs. The `kind` tag keeps SIA and PIA jobs with
/// coincidentally identical JSON from colliding.
pub fn job_key<S: Serialize, T: Serialize>(scope: &S, kind: &str, spec: &T) -> JobKey {
    let scope_json = serde_json::to_string(scope).expect("scopes always serialize"); // lint:allow(panic_path) -- audit scopes are plain data; JSON serialization cannot fail
    let spec_json = serde_json::to_string(spec).expect("specs always serialize"); // lint:allow(panic_path) -- audit specs are plain data; JSON serialization cannot fail
    let canonical = format!("{scope_json}\u{1f}{kind}\u{1f}{spec_json}");
    JobKey {
        hash: Fnv1a::of(canonical.as_bytes()),
        canonical,
    }
}

struct Entry<V> {
    value: V,
    /// The `(shard, epoch)` pairs the result was computed against;
    /// compared to the live epoch vector to purge stale entries.
    pins: EpochPins,
    /// Full canonical key, compared on lookup to reject hash collisions.
    canonical: String,
    /// Last-touch sequence number: bumped on insert *and* on every hit,
    /// making eviction least-recently-*used*, not first-in-first-out.
    seq: u64,
}

/// Bounded map from job key to cached audit result, evicting the least
/// recently used entry at capacity — hot specs (dashboards polling the
/// same deployment comparison) survive cold sweeps of one-off queries.
pub struct AuditCache<V> {
    entries: HashMap<u64, Entry<V>>,
    /// `(key, seq)` in touch order; stale pairs (re-touched, overwritten
    /// or purged entries) are skipped lazily at eviction time, keeping
    /// eviction amortized O(1) instead of scanning the map.
    order: VecDeque<(u64, u64)>,
    capacity: usize,
    next_seq: u64,
    hits: u64,
    misses: u64,
    /// The epoch vector of the last purge — an unchanged vector means
    /// nothing can have gone stale since, so the purge walk is skipped.
    purged_at: Option<EpochVector>,
}

impl<V: Clone> AuditCache<V> {
    /// A cache holding at most `capacity` results (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        AuditCache {
            entries: HashMap::new(),
            order: VecDeque::new(),
            capacity,
            next_seq: 0,
            hits: 0,
            misses: 0,
            purged_at: None,
        }
    }

    /// Looks up a result, counting the hit or miss and refreshing the
    /// entry's recency on a hit (LRU promotion). A hash collision (same
    /// hash, different canonical key) counts as a miss.
    pub fn get(&mut self, key: &JobKey) -> Option<V> {
        match self.entries.get_mut(&key.hash) {
            Some(e) if e.canonical == key.canonical => {
                self.hits += 1;
                e.seq = self.next_seq;
                self.order.push_back((key.hash, self.next_seq));
                self.next_seq += 1;
                let value = e.value.clone();
                self.compact_order();
                Some(value)
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Keeps the lazy recency queue from outgrowing the map unboundedly
    /// when the same keys are re-touched repeatedly (hits push too).
    fn compact_order(&mut self) {
        if self.order.len() > self.capacity.saturating_mul(2).max(64) {
            let entries = &self.entries;
            self.order
                .retain(|(k, seq)| entries.get(k).is_some_and(|e| e.seq == *seq));
        }
    }

    /// Stores a result computed against the given epoch pins. At
    /// capacity, the least recently used entry is evicted first.
    pub fn insert(&mut self, key: JobKey, pins: EpochPins, value: V) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key.hash) {
            // Pop queue pairs until one still names a live entry.
            while let Some((k, seq)) = self.order.pop_front() {
                if self.entries.get(&k).is_some_and(|e| e.seq == seq) {
                    self.entries.remove(&k);
                    break;
                }
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.order.push_back((key.hash, seq));
        self.entries.insert(
            key.hash,
            Entry {
                value,
                pins,
                canonical: key.canonical,
                seq,
            },
        );
        self.compact_order();
    }

    /// Drops every entry whose pinned shards have moved past the epochs
    /// it was computed at. Keys embed the pins, so stale entries can
    /// never be *hit* — this reclaims their memory as soon as an ingest
    /// invalidates them, and it goes per-shard: an entry pinned only to
    /// untouched shards survives.
    ///
    /// Purges are **monotonic**: with no global DB lock, concurrent
    /// writers can deliver their epoch vectors out of order (writer A
    /// reads `[2,1]`, writer B bumps shard 1 and reads `[2,2]`, B's
    /// purge runs first), so each incoming vector is merged
    /// component-wise-max into the high-water mark and the purge uses
    /// the merge — a late-arriving stale vector can never evict an
    /// entry legitimately pinned to a newer epoch.
    ///
    /// Short-circuits without walking any entry when the merge changes
    /// nothing — an ingest of pure duplicates (or a redundant or
    /// out-of-order purge) costs O(shards), not O(entries).
    pub fn purge_stale(&mut self, current: &EpochVector) {
        let merged: EpochVector = match &self.purged_at {
            None => current.clone(),
            Some(prev) => {
                let len = prev.len().max(current.len());
                EpochVector::from(
                    (0..len)
                        .map(|s| prev.get(s).max(current.get(s)))
                        .collect::<Vec<_>>(),
                )
            }
        };
        if self.purged_at.as_ref() == Some(&merged) {
            return;
        }
        self.entries.retain(|_, e| {
            e.pins
                .iter()
                .all(|&(shard, epoch)| merged.get(shard as usize) == epoch)
        });
        self.purged_at = Some(merged);
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> JobKey {
        job_key(&1u64, "test", &n)
    }

    fn pin(shard: u32, epoch: Epoch) -> EpochPins {
        vec![(shard, epoch)]
    }

    #[test]
    fn job_key_is_deterministic_and_scope_sensitive() {
        let spec = vec!["a".to_string(), "b".to_string()];
        assert_eq!(job_key(&1u64, "sia", &spec), job_key(&1u64, "sia", &spec));
        assert_ne!(job_key(&1u64, "sia", &spec), job_key(&2u64, "sia", &spec));
        assert_ne!(job_key(&1u64, "sia", &spec), job_key(&1u64, "pia", &spec));
        let other = vec!["a".to_string(), "c".to_string()];
        assert_ne!(job_key(&1u64, "sia", &spec), job_key(&1u64, "sia", &other));
        // Epoch-pin scopes: same pins hit, a moved shard epoch misses.
        let pins: EpochPins = vec![(0, 3), (4, 1)];
        let moved: EpochPins = vec![(0, 3), (4, 2)];
        assert_eq!(job_key(&pins, "sia", &spec), job_key(&pins, "sia", &spec));
        assert_ne!(job_key(&pins, "sia", &spec), job_key(&moved, "sia", &spec));
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut c: AuditCache<u32> = AuditCache::new(4);
        assert_eq!(c.get(&key(7)), None);
        c.insert(key(7), pin(0, 1), 42);
        assert_eq!(c.get(&key(7)), Some(42));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn hash_collision_is_a_miss_not_a_wrong_hit() {
        let mut c: AuditCache<u32> = AuditCache::new(4);
        // Forge a key whose hash aliases key(7) but whose canonical
        // form differs — must NOT be served key(7)'s value.
        let honest = key(7);
        let forged = JobKey {
            hash: honest.hash,
            canonical: "something else entirely".to_string(),
        };
        c.insert(honest.clone(), pin(0, 1), 42);
        assert_eq!(c.get(&forged), None, "collision must miss");
        assert_eq!(c.get(&honest), Some(42));
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let mut c: AuditCache<u32> = AuditCache::new(2);
        c.insert(key(1), pin(0, 1), 10);
        c.insert(key(2), pin(0, 1), 20);
        // Touch key(1): key(2) is now the LRU entry.
        assert_eq!(c.get(&key(1)), Some(10));
        c.insert(key(3), pin(0, 1), 30);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&key(2)), None, "LRU entry evicted");
        assert_eq!(c.get(&key(1)), Some(10), "hot entry survives");
        assert_eq!(c.get(&key(3)), Some(30));
    }

    #[test]
    fn untouched_entries_evict_in_insertion_order() {
        let mut c: AuditCache<u32> = AuditCache::new(2);
        c.insert(key(1), pin(0, 1), 10);
        c.insert(key(2), pin(0, 1), 20);
        c.insert(key(3), pin(0, 1), 30);
        assert_eq!(c.get(&key(1)), None, "no hits => LRU degenerates to FIFO");
        assert_eq!(c.get(&key(2)), Some(20));
    }

    #[test]
    fn repeated_hits_do_not_bloat_the_recency_queue() {
        let mut c: AuditCache<u32> = AuditCache::new(2);
        c.insert(key(1), pin(0, 1), 10);
        for _ in 0..10_000 {
            assert_eq!(c.get(&key(1)), Some(10));
        }
        assert!(
            c.order.len() <= 128,
            "lazy queue must stay bounded, got {}",
            c.order.len()
        );
    }

    #[test]
    fn purge_stale_is_per_shard() {
        let mut c: AuditCache<u32> = AuditCache::new(8);
        c.insert(key(1), pin(0, 1), 10); // pinned to shard 0 @ epoch 1
        c.insert(key(2), pin(1, 1), 20); // pinned to shard 1 @ epoch 1
        c.insert(key(3), vec![(0, 1), (1, 1)], 30); // reads both shards
        c.insert(key(4), vec![], 40); // data-independent: never stale
                                      // Shard 0 moves to epoch 2; shard 1 stays at 1.
        c.purge_stale(&EpochVector::from(vec![2, 1]));
        assert_eq!(c.get(&key(1)), None, "shard-0 entry purged");
        assert_eq!(c.get(&key(2)), Some(20), "shard-1 entry survives");
        assert_eq!(c.get(&key(3)), None, "cross-shard entry touching 0 purged");
        assert_eq!(c.get(&key(4)), Some(40), "pinless entry survives");
    }

    #[test]
    fn purge_stale_short_circuits_on_unchanged_epochs() {
        let mut c: AuditCache<u32> = AuditCache::new(8);
        let live = EpochVector::from(vec![1, 1]);
        c.insert(key(1), pin(0, 1), 10);
        c.purge_stale(&live);
        assert_eq!(c.len(), 1, "entry at the live epochs survives a purge");
        // Regression: repeated purges at an unchanged vector must not
        // evict anything and must not touch the (hits, misses) counters
        // — a later lookup still hits.
        let stats_before = c.stats();
        for _ in 0..100 {
            c.purge_stale(&live);
        }
        assert_eq!(c.stats(), stats_before, "purges never count as lookups");
        assert_eq!(c.get(&key(1)), Some(10), "entry still hot after purges");
        assert_eq!(c.stats(), (stats_before.0 + 1, stats_before.1));
    }

    #[test]
    fn out_of_order_purge_cannot_evict_fresher_entries() {
        // With per-shard locking, two writers can deliver their epoch
        // vectors to the cache in either order. The later-epoch purge
        // arriving first must win: a stale vector limping in afterwards
        // may not evict entries pinned to the newer epochs.
        let mut c: AuditCache<u32> = AuditCache::new(8);
        c.purge_stale(&EpochVector::from(vec![2, 2])); // writer B first
        c.insert(key(1), pin(1, 2), 10); // audit pinned to shard 1 @ 2
        c.purge_stale(&EpochVector::from(vec![2, 1])); // writer A, stale
        assert_eq!(
            c.get(&key(1)),
            Some(10),
            "a stale purge vector must not evict an entry at the high-water epoch"
        );
        // A genuinely newer vector still evicts it.
        c.purge_stale(&EpochVector::from(vec![2, 3]));
        assert_eq!(c.get(&key(1)), None);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c: AuditCache<u32> = AuditCache::new(0);
        c.insert(key(1), pin(0, 1), 10);
        assert!(c.is_empty());
        assert_eq!(c.get(&key(1)), None);
    }
}
