//! Lock-cheap observability core for the INDaaS daemon.
//!
//! Everything in this crate is built from `std` atomics and two short
//! mutexes (metric *registration*, span-ring appends); the hot paths —
//! bumping a [`Counter`], recording into a [`Histo`], dropping a
//! [`Span`] — are a handful of relaxed atomic operations and never
//! block. The crate has zero dependencies on purpose: it is pulled into
//! the scheduler, the server, and the benchmarks alike, and none of
//! them should pay for serde to count things. Wire encoding of
//! snapshots belongs to the service protocol layer.
//!
//! The pieces:
//!
//! * [`Counter`] / [`Gauge`] — named atomics, monotonic vs settable.
//! * [`Histo`] — a fixed-bucket log₂ latency histogram: bucket `i ≥ 1`
//!   holds values in `[2^(i-1), 2^i)`, bucket 0 holds exact zeros.
//!   Recording is one relaxed `fetch_add` per of bucket/count/sum;
//!   snapshots are plain `u64`s that merge by addition, and quantiles
//!   come back as *bucket upper bounds* — for any recorded value `v`,
//!   `v <= quantile_bound < 2v + 1`.
//! * [`Span`] — times a scoped stage, records elapsed microseconds into
//!   its histogram on drop.
//! * [`Registry`] — get-or-create by name; snapshotting walks the
//!   `BTreeMap`s so output is deterministically name-sorted.
//! * [`trace`] — the one record of what a request did: the propagated
//!   [`TraceContext`], the bounded [`SpanStore`] of finished spans
//!   (name, detail, timing and a free-form attribute list such as an
//!   audit's cache disposition, outcome and shard pins), queryable by
//!   trace id or as "the newest spans of a given name plus their
//!   children", and the order-independent [`build_span_tree`] assembly.
//! * [`log`] — the leveled structured logger (text or JSON lines to
//!   stderr), stamping every line with the thread's active trace
//!   context.

#![forbid(unsafe_code)]

pub mod log;
pub mod trace;

pub use crate::log::{LogLevel, TraceScope};
pub use crate::trace::{
    build_span_tree, format_trace_id, parse_trace_id, Attr, SpanNode, SpanRecord, SpanStore,
    TraceContext, TRACE_CONTEXT_BYTES,
};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Bucket count of every [`Histo`]: bucket 0 for exact zeros plus one
/// bucket per power of two up to the full `u64` range.
pub const HISTO_BUCKETS: usize = 65;

/// The bucket a value lands in: 0 for 0, otherwise `⌊log₂ v⌋ + 1`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` — what quantile estimates report.
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        1..=63 => (1u64 << i) - 1,
        _ => u64::MAX,
    }
}

/// Monotonic event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous level (queue depth, buffered frames): settable, and
/// adjustable up/down without going negative.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Saturating decrement — a racy extra `sub` clamps at zero rather
    /// than wrapping to `u64::MAX` and reading as "4 billion queued".
    #[inline]
    pub fn sub(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket log₂ latency histogram. All operations are relaxed
/// atomics; a concurrent snapshot may tear by a record or two, which is
/// fine for monitoring (counts are never lost, only momentarily split
/// across `count`/`sum`/bucket).
#[derive(Debug)]
pub struct Histo {
    buckets: [AtomicU64; HISTO_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histo {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histo {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistoSnapshot {
        HistoSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histo`]: plain numbers, mergeable by
/// addition, with quantile estimation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistoSnapshot {
    pub buckets: [u64; HISTO_BUCKETS],
    pub count: u64,
    pub sum: u64,
}

impl Default for HistoSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; HISTO_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistoSnapshot {
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Merge another snapshot in; equivalent to having recorded both
    /// snapshots' values into one histogram. Saturating, like the
    /// atomics underneath — a metrics sum must never panic.
    pub fn merge(&mut self, other: &HistoSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Upper bound of the bucket holding the `q`-quantile value
    /// (`0.0 < q <= 1.0`). Guaranteed `v <= quantile(q) < 2v + 1` for
    /// the true `q`-th smallest recorded value `v`; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HISTO_BUCKETS - 1)
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Upper bound of the highest occupied bucket; 0 when empty.
    pub fn max_bound(&self) -> u64 {
        self.quantile(1.0)
    }

    /// The occupied buckets, as `(bucket index, count)` — the sparse
    /// form the wire snapshot and the Prometheus exposition both want.
    pub fn nonzero_buckets(&self) -> Vec<(u32, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i as u32, n))
            .collect()
    }
}

/// Times a scoped stage; records elapsed **microseconds** into its
/// histogram when dropped.
#[derive(Debug)]
pub struct Span {
    histo: Arc<Histo>,
    started: Instant,
}

impl Span {
    pub fn start(histo: Arc<Histo>) -> Self {
        Self {
            histo,
            started: Instant::now(),
        }
    }

    pub fn elapsed_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.histo.record(self.elapsed_us());
    }
}

#[derive(Default)]
struct Families {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histos: BTreeMap<String, Arc<Histo>>,
}

/// Named metric registry. Lookup is get-or-create and hands back an
/// `Arc` handle — hot paths resolve their metrics once and bump the
/// handle, never touching the registry lock again.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Families>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    fn families(&self) -> std::sync::MutexGuard<'_, Families> {
        // A poisoned registry would take all monitoring down with the
        // panicking thread; the maps are always internally consistent,
        // so keep serving.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(
            self.families()
                .counters
                .entry(name.to_string())
                .or_default(),
        )
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Arc::clone(self.families().gauges.entry(name.to_string()).or_default())
    }

    pub fn histo(&self, name: &str) -> Arc<Histo> {
        Arc::clone(self.families().histos.entry(name.to_string()).or_default())
    }

    /// Drop a counter from the registry (per-connection metrics are
    /// removed at teardown so a long-lived daemon's registry stays
    /// bounded). Existing handles keep working; the name just stops
    /// appearing in snapshots.
    pub fn remove_counter(&self, name: &str) -> Option<Arc<Counter>> {
        self.families().counters.remove(name)
    }

    pub fn snapshot(&self) -> RegistrySnapshot {
        let fams = self.families();
        RegistrySnapshot {
            counters: fams
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: fams
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histos: fams
                .histos
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time copy of every registered metric, name-sorted.
#[derive(Clone, Debug, Default)]
pub struct RegistrySnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, u64)>,
    pub histos: Vec<(String, HistoSnapshot)>,
}

impl RegistrySnapshot {
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    pub fn histo(&self, name: &str) -> Option<&HistoSnapshot> {
        self.histos.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Every value sits at or below its bucket's upper bound.
        for v in [0u64, 1, 2, 3, 7, 8, 1000, u64::MAX] {
            assert!(v <= bucket_upper_bound(bucket_index(v)));
        }
    }

    #[test]
    fn histo_quantiles_bound_the_data() {
        let h = Histo::new();
        for v in [3u64, 3, 3, 100] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum, 109);
        // p50 covers the 3s (bucket [2,4) → bound 3); max covers 100.
        assert_eq!(snap.p50(), 3);
        assert!(snap.max_bound() >= 100 && snap.max_bound() < 201);
    }

    #[test]
    fn merge_adds_counts() {
        let (a, b) = (Histo::new(), Histo::new());
        a.record(5);
        b.record(5);
        b.record(9000);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count, 3);
        assert_eq!(merged.sum, 9010);
        let both = Histo::new();
        for v in [5u64, 5, 9000] {
            both.record(v);
        }
        assert_eq!(merged, both.snapshot());
    }

    #[test]
    fn span_records_on_drop() {
        let h = Arc::new(Histo::new());
        {
            let _span = Span::start(Arc::clone(&h));
        }
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn registry_hands_out_shared_handles() {
        let reg = Registry::new();
        reg.counter("req").inc();
        reg.counter("req").inc();
        assert_eq!(reg.snapshot().counter("req"), Some(2));
        reg.gauge("depth").set(7);
        assert_eq!(reg.snapshot().gauge("depth"), Some(7));
        let kept = reg.counter("conn_1_shed");
        reg.remove_counter("conn_1_shed");
        kept.inc(); // handle survives removal
        assert_eq!(reg.snapshot().counter("conn_1_shed"), None);
    }
}
