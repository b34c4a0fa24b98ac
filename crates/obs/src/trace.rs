//! The span model: a propagated [`TraceContext`], the per-daemon
//! [`SpanStore`] of finished spans, and the pure [`build_span_tree`]
//! assembly the CLI uses to stitch spans — fetched from one daemon or
//! several — into trees.
//!
//! # Model
//!
//! A *trace* is one logical operation — a client request, a federated
//! audit — identified by a 128-bit id. Every unit of work done on its
//! behalf is a *span*: `(trace_id, span_id, parent_span_id)` plus a
//! name, a detail string, timings and a list of `(key, value)`
//! attributes. The context that crosses process boundaries names the
//! span the *receiver* should record: the caller mints the span id for
//! the callee's work ([`TraceContext::child`]), so parent links line up
//! across daemons without any coordination beyond carrying 32 bytes (or
//! one hex header) on the wire. A request that arrives without a
//! context gets a freshly minted root, so everything a daemon does is
//! under some trace.
//!
//! Ids come from the process-seeded SipHash [`RandomState`] mixed with
//! a monotonic counter and the clock — no external RNG dependency, and
//! collisions across daemons are as unlikely as hash collisions.
//!
//! Span storage is one bounded ring: a busy daemon forgets the oldest
//! spans first and never grows without bound. It answers two questions
//! — "every span of this trace" ([`SpanStore::spans_for`]) and "the
//! newest spans of this name, with their children"
//! ([`SpanStore::recent_named`], the recent-audits view).
//! Assembly is deliberately *insertion-order independent*: spans are
//! sorted and de-duplicated by id before linking, so the same set of
//! spans — fetched from any number of daemons, in any order — always
//! yields the same tree. Spans whose parent is not in the set (the
//! parent lives on a daemon that was not queried, or was evicted)
//! surface as roots instead of disappearing.

use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{SystemTime, UNIX_EPOCH};

/// Size of the fixed binary encoding of a [`TraceContext`]:
/// big-endian `trace_id(16) ‖ span_id(8) ‖ parent_span_id(8)`.
pub const TRACE_CONTEXT_BYTES: usize = 32;

/// The context that crosses process boundaries. Identifies the span
/// the receiver should record for the work it is being asked to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// 128-bit trace id; never zero (zero is the "absent" encoding).
    pub trace_id: u128,
    /// The span the receiver records; never zero.
    pub span_id: u64,
    /// The span this one nests under; zero for a trace root.
    pub parent_span_id: u64,
}

/// A fresh 64-bit id: the process-random SipHash over a monotonic
/// counter and the clock. Never zero.
fn fresh_id() -> u64 {
    static SEED: OnceLock<RandomState> = OnceLock::new();
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let mut h = SEED.get_or_init(RandomState::new).build_hasher();
    h.write_u64(COUNTER.fetch_add(1, Ordering::Relaxed));
    let clock = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs() ^ u64::from(d.subsec_nanos()))
        .unwrap_or(0);
    h.write_u64(clock);
    h.finish().max(1)
}

/// Microseconds since the UNIX epoch (0 if the clock is before it).
pub fn unix_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

impl TraceContext {
    /// Mints a brand-new trace: fresh trace id, fresh root span.
    pub fn root() -> Self {
        let trace_id = ((fresh_id() as u128) << 64 | fresh_id() as u128).max(1);
        TraceContext {
            trace_id,
            span_id: fresh_id(),
            parent_span_id: 0,
        }
    }

    /// A child context: same trace, fresh span id, parented on `self`.
    pub fn child(&self) -> Self {
        TraceContext {
            trace_id: self.trace_id,
            span_id: fresh_id(),
            parent_span_id: self.span_id,
        }
    }

    /// The hex header carried on protocol-v2 envelopes:
    /// `<32 hex>-<16 hex>-<16 hex>`.
    pub fn encode_header(&self) -> String {
        format!(
            "{:032x}-{:016x}-{:016x}",
            self.trace_id, self.span_id, self.parent_span_id
        )
    }

    /// Parses [`TraceContext::encode_header`] output. Strict: exact
    /// field widths, hex digits only, non-zero trace and span ids.
    /// Anything else — including garbage — is `None`, never a panic.
    pub fn parse_header(s: &str) -> Option<Self> {
        let mut parts = s.split('-');
        let (t, sp, pa) = (parts.next()?, parts.next()?, parts.next()?);
        if parts.next().is_some() || t.len() != 32 || sp.len() != 16 || pa.len() != 16 {
            return None;
        }
        for field in [t, sp, pa] {
            if !field.bytes().all(|b| b.is_ascii_hexdigit()) {
                return None;
            }
        }
        let ctx = TraceContext {
            trace_id: u128::from_str_radix(t, 16).ok()?,
            span_id: u64::from_str_radix(sp, 16).ok()?,
            parent_span_id: u64::from_str_radix(pa, 16).ok()?,
        };
        (ctx.trace_id != 0 && ctx.span_id != 0).then_some(ctx)
    }

    /// The fixed binary encoding carried on federation round frames.
    pub fn to_bytes(&self) -> [u8; TRACE_CONTEXT_BYTES] {
        let mut out = [0u8; TRACE_CONTEXT_BYTES];
        out[..16].copy_from_slice(&self.trace_id.to_be_bytes());
        out[16..24].copy_from_slice(&self.span_id.to_be_bytes());
        out[24..].copy_from_slice(&self.parent_span_id.to_be_bytes());
        out
    }

    /// Parses [`TraceContext::to_bytes`]. `None` on wrong length or a
    /// zero trace/span id (the all-zero extension means "no context").
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != TRACE_CONTEXT_BYTES {
            return None;
        }
        let ctx = TraceContext {
            trace_id: u128::from_be_bytes(bytes[..16].try_into().ok()?),
            span_id: u64::from_be_bytes(bytes[16..24].try_into().ok()?),
            parent_span_id: u64::from_be_bytes(bytes[24..].try_into().ok()?),
        };
        (ctx.trace_id != 0 && ctx.span_id != 0).then_some(ctx)
    }
}

/// Renders a trace id the way every surface shows it: 32 hex digits.
pub fn format_trace_id(trace_id: u128) -> String {
    format!("{trace_id:032x}")
}

/// Parses a trace id: 1–32 hex digits, non-zero. Forgiving about
/// leading zeros being dropped (`indaas trace ab12` works).
pub fn parse_trace_id(s: &str) -> Option<u128> {
    if s.is_empty() || s.len() > 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    match u128::from_str_radix(s, 16) {
        Ok(0) | Err(_) => None,
        Ok(id) => Some(id),
    }
}

/// One span attribute, `(key, value)`. Both sides are `Cow` so the
/// daemon's fixed keys and common values cost no allocation in a ring
/// that is always full; spans decoded off the wire own theirs.
pub type Attr = (Cow<'static, str>, Cow<'static, str>);

/// One finished span. `node` is empty at record time; the daemon stamps
/// its own address when answering over the wire, so stitched trees show
/// where each span ran.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    pub trace_id: u128,
    pub span_id: u64,
    pub parent_span_id: u64,
    /// What kind of work: `request:AuditSia`, `queue_wait`, `rg_minimal`, …
    pub name: String,
    /// Free-form qualifier (candidate names, session id, …); may be empty.
    pub detail: String,
    /// Which daemon recorded it; empty until stamped for the wire.
    pub node: String,
    /// Wall-clock start, µs since the UNIX epoch (best effort — used
    /// only to order siblings deterministically).
    pub start_us: u64,
    pub elapsed_us: u64,
    /// What the work found out about itself (an audit's cache
    /// disposition, outcome, shard pins); empty for most spans.
    pub attrs: Vec<Attr>,
}

impl SpanRecord {
    /// A span that just finished, `elapsed_us` ago.
    pub fn finished(
        ctx: TraceContext,
        name: impl Into<String>,
        detail: impl Into<String>,
        elapsed_us: u64,
    ) -> Self {
        SpanRecord {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_span_id: ctx.parent_span_id,
            name: name.into(),
            detail: detail.into(),
            node: String::new(),
            start_us: unix_us().saturating_sub(elapsed_us),
            elapsed_us,
            attrs: Vec::new(),
        }
    }

    /// The span carrying `attrs`.
    pub fn with_attrs(mut self, attrs: Vec<Attr>) -> Self {
        self.attrs = attrs;
        self
    }

    /// The value of attribute `key`, if the span carries it.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_ref())
    }
}

/// Bounded ring of finished spans. The oldest spans fall off first, the
/// lock is held only for a push or a filtered copy, and a poisoned lock
/// (a panicking audit thread) never takes observability down with it.
pub struct SpanStore {
    ring: Mutex<VecDeque<SpanRecord>>,
    capacity: usize,
}

impl SpanStore {
    /// A store holding at most `capacity` spans (min 1).
    pub fn new(capacity: usize) -> Self {
        SpanStore {
            ring: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    fn ring(&self) -> MutexGuard<'_, VecDeque<SpanRecord>> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records a finished span, evicting the oldest at capacity.
    pub fn push(&self, span: SpanRecord) {
        let mut ring = self.ring();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(span);
    }

    /// [`SpanStore::push`] of a span that finished `elapsed_us` ago.
    pub fn record(&self, ctx: TraceContext, name: &str, detail: String, elapsed_us: u64) {
        self.push(SpanRecord::finished(ctx, name, detail, elapsed_us));
    }

    /// Every stored span of `trace_id`, oldest first.
    pub fn spans_for(&self, trace_id: u128) -> Vec<SpanRecord> {
        self.ring()
            .iter()
            .filter(|s| s.trace_id == trace_id)
            .cloned()
            .collect()
    }

    /// The `n` newest stored spans named `name`, together with every
    /// stored span parented on one of them, newest first. A child whose
    /// parent was evicted (or fell outside the `n`) is not returned.
    pub fn recent_named(&self, name: &str, n: usize) -> Vec<SpanRecord> {
        let ring = self.ring();
        let picked: HashSet<(u128, u64)> = ring
            .iter()
            .rev()
            .filter(|s| s.name == name)
            .take(n)
            .map(|s| (s.trace_id, s.span_id))
            .collect();
        if picked.is_empty() {
            return Vec::new();
        }
        ring.iter()
            .rev()
            .filter(|s| {
                picked.contains(&(s.trace_id, s.span_id))
                    || picked.contains(&(s.trace_id, s.parent_span_id))
            })
            .cloned()
            .collect()
    }

    /// Stored spans, all traces.
    pub fn len(&self) -> usize {
        self.ring().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// One node of an assembled span tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanNode {
    pub span: SpanRecord,
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Nodes in this subtree, the node itself included.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(SpanNode::size).sum::<usize>()
    }
}

/// Assembles spans — gathered from any number of daemons, in any order
/// — into a forest of parent-linked trees.
///
/// Deterministic and insertion-order independent: spans are first
/// sorted by `(start_us, span_id, name)` and de-duplicated by span id
/// (a span fetched twice appears once), then linked. A span whose
/// parent is absent from the set becomes a root; a parent cycle (only
/// possible with corrupted input) is broken deterministically instead
/// of hanging or dropping spans.
pub fn build_span_tree(mut spans: Vec<SpanRecord>) -> Vec<SpanNode> {
    spans.sort_by(|a, b| {
        a.start_us
            .cmp(&b.start_us)
            .then(a.span_id.cmp(&b.span_id))
            .then_with(|| a.name.cmp(&b.name))
    });
    let mut seen = HashSet::new();
    spans.retain(|s| seen.insert(s.span_id));

    let ids: HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
    let mut roots = Vec::new();
    let mut by_parent: HashMap<u64, Vec<SpanRecord>> = HashMap::new();
    for span in spans {
        if span.parent_span_id == 0 || !ids.contains(&span.parent_span_id) {
            roots.push(span);
        } else {
            by_parent.entry(span.parent_span_id).or_default().push(span);
        }
    }

    fn attach(span: SpanRecord, by_parent: &mut HashMap<u64, Vec<SpanRecord>>) -> SpanNode {
        let children = by_parent
            .remove(&span.span_id)
            .unwrap_or_default()
            .into_iter()
            .map(|c| attach(c, by_parent))
            .collect();
        SpanNode { span, children }
    }

    let mut forest: Vec<SpanNode> = roots
        .into_iter()
        .map(|r| attach(r, &mut by_parent))
        .collect();
    // Parent cycles never hang off a root; surface them rather than
    // silently losing spans.
    while let Some(&key) = by_parent.keys().min() {
        for orphan in by_parent.remove(&key).unwrap_or_default() {
            forest.push(attach(orphan, &mut by_parent));
        }
    }
    forest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrips_and_rejects_garbage() {
        let ctx = TraceContext::root().child();
        let header = ctx.encode_header();
        assert_eq!(TraceContext::parse_header(&header), Some(ctx));
        for garbage in [
            "",
            "nonsense",
            "00000000000000000000000000000000-0000000000000000-0000000000000000",
            "zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz-0000000000000001-0000000000000000",
            "+1230000000000000000000000000000-0000000000000001-0000000000000000",
            "0123-4567-89ab",
        ] {
            assert_eq!(TraceContext::parse_header(garbage), None, "{garbage:?}");
        }
    }

    #[test]
    fn bytes_roundtrip_and_zero_means_absent() {
        let ctx = TraceContext::root();
        assert_eq!(TraceContext::from_bytes(&ctx.to_bytes()), Some(ctx));
        assert_eq!(TraceContext::from_bytes(&[0u8; TRACE_CONTEXT_BYTES]), None);
        assert_eq!(TraceContext::from_bytes(&[1u8; 7]), None);
    }

    #[test]
    fn children_stay_in_the_trace_with_fresh_ids() {
        let root = TraceContext::root();
        let child = root.child();
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.parent_span_id, root.span_id);
        assert_ne!(child.span_id, root.span_id);
        assert_ne!(TraceContext::root().trace_id, root.trace_id);
    }

    #[test]
    fn trace_id_parsing_accepts_short_forms() {
        assert_eq!(parse_trace_id("ab12"), Some(0xab12));
        assert_eq!(parse_trace_id(&format_trace_id(0xab12)), Some(0xab12));
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("0"), None);
        assert_eq!(parse_trace_id("xyz"), None);
        assert_eq!(parse_trace_id(&"f".repeat(33)), None);
    }

    #[test]
    fn store_is_bounded_and_filters_by_trace() {
        let store = SpanStore::new(3);
        let a = TraceContext::root();
        let b = TraceContext::root();
        store.record(a, "one", String::new(), 10);
        store.record(b, "two", String::new(), 10);
        store.record(a.child(), "three", String::new(), 10);
        store.record(a.child(), "four", String::new(), 10);
        assert_eq!(store.len(), 3, "oldest evicted at capacity");
        assert!(store.spans_for(a.trace_id).len() == 2);
        assert_eq!(store.spans_for(b.trace_id).len(), 1);
    }

    #[test]
    fn recent_named_returns_newest_parents_with_their_children() {
        let store = SpanStore::new(16);
        for i in 0..3u64 {
            let request = TraceContext::root();
            let audit = request.child();
            store.record(audit.child(), "stage", String::new(), i);
            store.push(
                SpanRecord::finished(audit, "audit", format!("a{i}"), 10)
                    .with_attrs(vec![("cached".into(), "false".into())]),
            );
            store.record(request, "request", String::new(), 20);
        }
        let recent = store.recent_named("audit", 2);
        let details: Vec<&str> = recent
            .iter()
            .filter(|s| s.name == "audit")
            .map(|s| s.detail.as_str())
            .collect();
        assert_eq!(details, ["a2", "a1"], "newest first, capped at n");
        assert_eq!(
            recent.len(),
            4,
            "each audit brings its one stage, no request spans"
        );
        assert!(recent.iter().all(|s| s.name != "request"));
        assert_eq!(recent[0].attr("cached"), Some("false"));
        assert_eq!(recent[0].attr("missing"), None);
        assert!(store.recent_named("audit", 0).is_empty());
        assert!(store.recent_named("nothing", 5).is_empty());
    }

    #[test]
    fn tree_assembly_is_order_independent_and_orphan_safe() {
        let root = TraceContext::root();
        let child = root.child();
        let grandchild = child.child();
        let spans = vec![
            SpanRecord::finished(root, "root", String::new(), 100),
            SpanRecord::finished(child, "child", String::new(), 50),
            SpanRecord::finished(grandchild, "grandchild", String::new(), 10),
        ];
        let mut reversed = spans.clone();
        reversed.reverse();
        let forward = build_span_tree(spans.clone());
        assert_eq!(forward, build_span_tree(reversed));
        assert_eq!(forward.len(), 1);
        assert_eq!(forward[0].size(), 3);
        assert_eq!(forward[0].children[0].children[0].span.name, "grandchild");

        // Drop the middle span: the grandchild surfaces as a root
        // instead of vanishing.
        let partial = build_span_tree(vec![spans[0].clone(), spans[2].clone()]);
        assert_eq!(partial.len(), 2);

        // Duplicates (the same span fetched from two daemons) collapse.
        let mut doubled = spans.clone();
        doubled.extend(spans);
        let deduped = build_span_tree(doubled);
        assert_eq!(deduped.len(), 1);
        assert_eq!(deduped[0].size(), 3);
    }

    #[test]
    fn parent_cycles_are_broken_not_lost() {
        let a = SpanRecord {
            trace_id: 1,
            span_id: 10,
            parent_span_id: 11,
            name: "a".into(),
            detail: String::new(),
            node: String::new(),
            start_us: 0,
            elapsed_us: 0,
            attrs: Vec::new(),
        };
        let mut b = a.clone();
        b.span_id = 11;
        b.parent_span_id = 10;
        b.name = "b".into();
        let forest = build_span_tree(vec![a, b]);
        assert_eq!(forest.iter().map(SpanNode::size).sum::<usize>(), 2);
    }
}
