//! The daemon's wire protocol: versioned, multiplexed, binary-framed.
//!
//! **Protocol v2** opens with one line-mode handshake and then switches
//! to length-prefixed binary frames carrying correlated envelopes:
//!
//! ```text
//! → {"Hello": {"version": 2}}\n
//! ← {"Welcome": {"version": 2}}\n
//! --- connection switches to [u32 big-endian length][payload] frames ---
//! → frame: {"id": 1, "body": {"AuditSia": {"spec": {...}, "timeout_ms": 5000}}}
//! → frame: {"id": 2, "body": "Status"}
//! ← frame: {"id": 2, "body": {"Status": {...}}}        (responses may arrive out of order)
//! ← frame: {"id": 1, "body": {"Sia": {...}}}
//! → frame: {"id": 3, "body": {"Subscribe": {"spec": {...}, "engine": "sia"}}}
//! ← frame: {"id": 3, "body": {"Subscribed": {"subscription": 9}}}
//! ← frame: {"id": 0, "body": {"AuditEvent": {"subscription": 9, ...}}}   (server push)
//! ```
//!
//! A session admits many in-flight requests at once; every response
//! carries the envelope id of the request it answers, and envelope id
//! [`EVENT_ENVELOPE_ID`] (0) is reserved for server-initiated pushes —
//! [`Response::AuditEvent`] frames delivered whenever an ingest changes
//! a shard a subscription's spec reads.
//!
//! **Protocol v1** (line-delimited JSON, one lock-step request/response
//! pair at a time) remains fully supported through the downgrade path:
//! a connection whose first line is any request *other than* `Hello`
//! (or that offers `{"Hello": {"version": 1}}`) stays in line mode for
//! its whole life and is answered exactly as before:
//!
//! ```text
//! → "Ping"
//! ← "Pong"
//! → {"Ingest": {"records": "<src=\"S1\" dst=\"Internet\" route=\"tor1\"/>"}}
//! ← {"Ingested": {"changed": 1, "ignored": 0, "epoch": 1}}
//! ```
//!
//! The dependency store is sharded by host key with per-shard epochs
//! (`shard_epochs` in `Status`): an ingest bumps only the shards it
//! changes, and a cached `AuditSia` answer stays valid — `cached: true`
//! — across ingests that touch no shard its candidate hosts route to.
//! Each shard carries its own write lock, so concurrent `Ingest`
//! requests touching different hosts' shards land in parallel, and a
//! shard's epoch counts the effective batches that touched it. `Status`
//! is the store's shape; every other count the daemon keeps — lock
//! waits, queue occupancy, subscriptions, pushed and shed events, audits
//! run, uptime — is read once, from `Metrics`, where an event a
//! histogram times is counted by that histogram's `count`.
//!
//! **Observability** rides the same protocol: [`Request::Metrics`]
//! (either protocol version) answers [`Response::Metrics`] — every
//! registered counter and gauge as name-sorted `(name, value)` pairs,
//! every latency histogram as log₂ buckets with precomputed p50/p90/p99
//! upper bounds ([`MetricHisto`]), and the most recent audits as
//! [`SpanEntry`]s: one audit-level span each (attributes `kind`,
//! `cached`, `outcome`, `pins`) plus its engine-stage children, read
//! from the same span store [`Request::Trace`] reads. An audit is slow
//! when its `elapsed_us` reaches the `slow_threshold_us` the answer
//! carries (the daemon's `--slow-audit-ms`). Metric *names* are not
//! protocol: consumers must ignore unknown names, and the catalog grows
//! without a version bump. `indaas metrics --prom` renders the snapshot in
//! Prometheus text exposition format — `indaas_<name>` gauge lines for
//! counters/gauges, classic `_bucket{le="..."}`/`_sum`/`_count`
//! families for histograms (bucket `i` becomes `le="2^i - 1"` in
//! seconds), and `indaas_shard_epoch{shard="N"}`-style labeled series
//! for the per-shard epochs taken from `Status`.
//!
//! **Tracing.** Every request the daemon dispatches runs under a trace
//! context, and the spans recorded under it are the daemon's only
//! record of what the request did. A caller may supply the context at
//! either protocol layer; a peer that does not never notices:
//!
//! * *Client envelopes* — a v2 [`Envelope`] may carry a `trace` field:
//!   the string `"<trace:032x>-<span:016x>-<parent:016x>"` naming the
//!   span the server should record for this request (the caller mints
//!   span ids, so trees stitch across processes without translation).
//!   The field is optional JSON; when it is absent, malformed or
//!   all-zero — never a protocol error — and on v1 lines, which cannot
//!   carry one, the daemon mints a fresh root instead.
//!   [`ResponseEnvelope`]s carry no context.
//! * *Federation rounds* — every binary round frame sets
//!   [`ROUND_FROM_TRACE_FLAG`] in its `from` word and appends a fixed
//!   32-byte big-endian context (`trace:16 ‖ span:8 ‖ parent:8`,
//!   [`TRACE_CONTEXT_BYTES`]) *after* the payload. There is no untraced
//!   frame: one without the flag is refused as a bad peer frame, while
//!   an all-zero context decodes as absent.
//!
//! The spans a daemon records are served back by [`Request::Trace`] as
//! [`SpanEntry`] lists (`indaas trace <id>` stitches them across
//! daemons into one tree), and every pushed [`Response::AuditEvent`]
//! names the originating request's trace in `trace_id`.
//!
//! **Encoded once.** A SIA report is written as JSON once, straight from
//! its ranked rows, by the worker that computed it (byte-identical to
//! `encode_line` of the typed [`AuditReport`]), and the result cache
//! keeps that text. Every
//! [`Response::Sia`] and [`Response::AuditEvent`] the daemon sends —
//! fresh, cached or pushed — is that text spliced between its scalar
//! fields (`sia_body`, `audit_event_body`), so a cached answer is
//! byte-identical to a fresh one but for `cached` and `elapsed_us`. The
//! splice writes the keys in the order the derive emits them; unit tests
//! pin it to `encode_line` of the typed variant.
//!
//! Responses to failed requests are `{"Error": {"message": "..."}}`; the
//! connection stays open (v1) or the error rides the offending
//! envelope's id (v2).

use indaas_core::AuditSpec;
use indaas_obs::{
    format_trace_id, parse_trace_id, Histo, SpanRecord, TraceContext, TRACE_CONTEXT_BYTES,
};
use indaas_pia::PiaRanking;
use indaas_sia::AuditReport;
use serde::{Deserialize, Serialize};

/// Client wire-protocol version this daemon speaks. A v2 session opens
/// with [`Request::Hello`]; the daemon answers [`Response::Welcome`]
/// with `min(offered, own)` and the connection switches to binary
/// frames when the negotiated version is ≥ 2.
pub const PROTOCOL_VERSION: u32 = 2;

/// Oldest client protocol version still accepted. Version-1 peers never
/// send a `Hello` at all (or offer `1` explicitly) and keep the
/// line-mode lock-step protocol.
pub const MIN_PROTOCOL_VERSION: u32 = 1;

/// Envelope id reserved for server-initiated pushes
/// ([`Response::AuditEvent`]). Client-chosen request ids must be ≥ 1.
pub const EVENT_ENVELOPE_ID: u64 = 0;

/// Federation wire-protocol version this daemon speaks — and the oldest
/// it accepts.
///
/// A peer handshake ([`Request::FederateHello`]) offers the dialer's
/// version; the listener refuses anything below this one and answers
/// `min(offered, own)` in [`Response::FederateWelcome`]. After the
/// handshake the peer session carries only binary round frames
/// ([`encode_traced_round_frame`]).
pub const FEDERATION_PROTOCOL_VERSION: u32 = 2;

/// Hard ceiling on one federation round payload, and on the decoded
/// hex payload of a `FederateDone` (P-SOP ciphertexts are 128 bytes
/// each, so this admits 32k components per provider list).
pub const MAX_FEDERATE_PAYLOAD_BYTES: usize = 4 * 1024 * 1024;

/// Longest accepted peer node name in a federation handshake — peer
/// input, so bounded like everything else a peer controls.
pub const MAX_NODE_NAME_BYTES: usize = 256;

/// A client request: one per line in v1, one per envelope in v2.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Request {
    /// First line of a protocol-v2 session: version negotiation. A
    /// connection that never sends one is a v1 line-mode session.
    Hello {
        /// Client protocol version the dialer speaks.
        version: u32,
    },
    /// Liveness probe.
    Ping,
    /// Stream a batch of Table-1 records into the versioned DepDB.
    Ingest {
        /// Table-1 record text (any number of lines).
        records: String,
    },
    /// Retract previously ingested records (exact match).
    Retract {
        /// Table-1 record text naming the records to remove.
        records: String,
    },
    /// Run (or serve from cache) a structural independence audit.
    AuditSia {
        /// The audit specification.
        spec: AuditSpec,
        /// Per-job deadline in milliseconds (`null` = server default).
        timeout_ms: Option<u64>,
    },
    /// Run (or serve from cache) a private independence audit over
    /// explicit provider component sets.
    AuditPia {
        /// `(provider name, component set)` pairs.
        providers: Vec<(String, Vec<String>)>,
        /// Deployment width (how many providers per candidate).
        way: usize,
        /// MinHash signature size (`null` = exact P-SOP).
        minhash: Option<usize>,
        /// Per-job deadline in milliseconds (`null` = server default).
        timeout_ms: Option<u64>,
    },
    /// Register a continuous audit: the daemon pins the subscription to
    /// the `(shard, epoch)` pairs the spec's hosts route to, pushes one
    /// initial [`Response::AuditEvent`], and re-runs the audit (through
    /// the normal scheduler and result cache) after every ingest that
    /// bumps a pinned shard, pushing the fresh result. Requires a
    /// protocol-v2 session.
    Subscribe {
        /// The audit specification to keep current.
        spec: AuditSpec,
        /// Audit engine to run — `"sia"` is the only engine with
        /// database-derived inputs, and therefore the only one that can
        /// go stale and be worth subscribing to.
        engine: String,
    },
    /// Cancel a subscription made on this connection.
    Unsubscribe {
        /// The id [`Response::Subscribed`] returned.
        subscription: u64,
    },
    /// The store's shape (epochs, records, hosts per shard) and the
    /// result cache's lookup totals; every other count is in `Metrics`.
    Status,
    /// Full observability snapshot: every registered counter/gauge,
    /// every latency histogram (log₂ buckets plus precomputed
    /// quantile bounds), and the most recent audits' spans.
    /// Answered with [`Response::Metrics`]. Works on v1 and v2
    /// sessions; `indaas metrics` and `indaas top` ride it.
    Metrics {
        /// How many recent audits to return (`null` = server default of
        /// 32; the span store is bounded, so old audits age out).
        recent: Option<usize>,
    },
    /// Stop accepting connections and exit the serve loop.
    Shutdown,
    /// Every span this daemon recorded for one distributed trace,
    /// answered with [`Response::Trace`]. The CLI (`indaas trace <id>`)
    /// asks several daemons and stitches the union into one tree —
    /// span-tree assembly is insertion-order independent, so the merge
    /// is a plain concatenation.
    Trace {
        /// The trace id as hex digits (up to 32; leading zeros may be
        /// dropped).
        id: String,
    },
    /// First line of a daemon-to-daemon peer session: protocol-version
    /// negotiation plus the dialer's node identity. After the
    /// [`Response::FederateWelcome`] answer the connection carries only
    /// binary round frames ([`encode_traced_round_frame`]).
    FederateHello {
        /// Federation protocol version the dialer speaks.
        version: u32,
        /// The dialer's node name (its listen address by default) —
        /// used to reject self-connections.
        node: String,
    },
    /// Coordinator instruction: run this daemon's party of a federated
    /// P-SOP audit. The daemon derives its private component set from its
    /// own dependency database, executes its ring rounds against the named
    /// successor, and answers [`Response::FederateDone`] with the
    /// fully-encrypted list destined for the auditing agent.
    FederateStart {
        /// Federation session id.
        session: u64,
        /// This daemon's ring index.
        index: u32,
        /// Number of provider parties on the ring.
        parties: u32,
        /// Address of the ring successor daemon.
        successor: String,
        /// P-SOP seed (all parties must agree).
        seed: u64,
        /// Multiset disambiguation flag (all parties must agree).
        multiset: bool,
        /// Per-round deadline in milliseconds (`null` = server default).
        round_timeout_ms: Option<u64>,
    },
}

/// The daemon's answer: one per request line in v1; in v2, one response
/// envelope per request envelope plus unsolicited
/// [`Response::AuditEvent`] pushes on envelope id 0.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Response {
    /// Answer to [`Request::Hello`]: the negotiated protocol version,
    /// `min(offered, supported)`. At a negotiated version ≥ 2 both
    /// sides switch to binary frames immediately after this line.
    Welcome {
        /// Negotiated client protocol version.
        version: u32,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Ingest`] / [`Request::Retract`].
    Ingested {
        /// Records that changed the database.
        changed: usize,
        /// Duplicate/absent records ignored.
        ignored: usize,
        /// Database epoch after the batch.
        epoch: u64,
    },
    /// Answer to [`Request::AuditSia`].
    Sia {
        /// Epoch the audit ran against.
        epoch: u64,
        /// True if served from the audit-result cache.
        cached: bool,
        /// Server-side time to produce the result, in microseconds
        /// (compute time on a miss, lookup time on a hit).
        elapsed_us: u64,
        /// The audit report.
        report: AuditReport,
    },
    /// Answer to [`Request::AuditPia`].
    Pia {
        /// Epoch the audit ran against (PIA provider sets are
        /// request-supplied, but the epoch still stamps the answer).
        epoch: u64,
        /// True if served from the audit-result cache.
        cached: bool,
        /// Server-side time to produce the result, in microseconds.
        elapsed_us: u64,
        /// Candidate deployments, most independent first.
        rankings: Vec<PiaRanking>,
    },
    /// Answer to [`Request::Status`].
    Status {
        /// Current global database epoch (one bump per effective batch).
        epoch: u64,
        /// Distinct dependency records stored (all shards).
        records: usize,
        /// Hosts with at least one record.
        hosts: usize,
        /// Per-shard epochs of the host-sharded store, indexed by shard.
        /// A shard's epoch moves exactly when an ingest/retract changes
        /// *that shard's* records — once per such batch, so it counts the
        /// shard's effective writes (plus one if it booted non-empty) —
        /// and cached audits pinned to other shards survive the batch.
        shard_epochs: Vec<u64>,
        /// Distinct records per shard, indexed like `shard_epochs`.
        shard_records: Vec<usize>,
        /// Result-cache hits since startup, SIA and PIA together. The
        /// benchmark's `cache_lookups` reads this and `cache_misses`;
        /// `Metrics` splits them per engine (`cache_sia_hits`, …).
        cache_hits: u64,
        /// Result-cache misses since startup, SIA and PIA together.
        cache_misses: u64,
    },
    /// Answer to [`Request::Metrics`]: the full observability snapshot.
    ///
    /// Counters and gauges are name-sorted `(name, value)` pairs;
    /// histograms and spans are structured (see [`MetricHisto`] and
    /// [`SpanEntry`]). Consumers must ignore names they do not know —
    /// the metric catalog grows without a protocol bump.
    ///
    /// The chaos-hardening counters ride that rule: `faults_injected_total`
    /// (armed `--fault` points that actually fired),
    /// `fed_frame_retries_total` (federation frames re-sent, each on a
    /// fresh dial of the ring successor, after transient faults),
    /// `fed_party_failures_total` (parties a coordinated round lost,
    /// reachable or not), and `db_segments_quarantined_total` (torn or
    /// corrupt persistence segments renamed `*.quarantine` at load so the
    /// survivors could be served).
    Metrics {
        /// Whole seconds since the daemon started.
        uptime_secs: u64,
        /// Monotonic counters, name-sorted.
        counters: Vec<(String, u64)>,
        /// Instantaneous levels, name-sorted. Derived values (cache
        /// hits, per-shard totals, running jobs) are computed at
        /// snapshot time.
        gauges: Vec<(String, u64)>,
        /// Latency histograms, name-sorted.
        histos: Vec<MetricHisto>,
        /// The most recent audits, newest first: each audit-level span
        /// (`audit_exec`, whose attributes carry `kind`, `cached`,
        /// `outcome` and `pins`) and the engine-stage spans parented
        /// on it. Feed it to `indaas_obs::build_span_tree` for one
        /// tree per audit.
        recent: Vec<SpanEntry>,
        /// The active `--slow-audit-ms` threshold in microseconds: an
        /// audit whose `elapsed_us` reaches it is slow.
        slow_threshold_us: u64,
    },
    /// Answer to [`Request::Subscribe`]: the subscription is live and
    /// its first [`Response::AuditEvent`] is on its way.
    Subscribed {
        /// Id to pass to [`Request::Unsubscribe`]; pushed events carry
        /// it so one connection can hold many subscriptions.
        subscription: u64,
    },
    /// Answer to [`Request::Unsubscribe`].
    Unsubscribed {
        /// Echo of the cancelled subscription id.
        subscription: u64,
    },
    /// Server push on envelope id [`EVENT_ENVELOPE_ID`]: a fresh audit
    /// result for one subscription — the initial result right after
    /// [`Request::Subscribe`], then one per ingest that bumped a shard
    /// the spec reads.
    AuditEvent {
        /// The subscription this event belongs to.
        subscription: u64,
        /// Global database epoch the audit ran against.
        epoch: u64,
        /// True if served from the audit-result cache (another client
        /// or subscription already paid for the recompute).
        cached: bool,
        /// Server-side time to produce the result, in microseconds.
        elapsed_us: u64,
        /// The fresh audit report.
        report: AuditReport,
        /// Hex id of the trace this push belongs to — the originating
        /// ingest's (or collector tick's) trace, or the `Subscribe`
        /// request's for the initial event — joinable via
        /// `indaas trace <id>`.
        trace_id: String,
    },
    /// Answer to [`Request::Shutdown`] — and, on v2 sessions, also the
    /// server's *farewell push* (envelope id 0) broadcast to every
    /// subscribed connection before the listener drains: a subscriber
    /// that sees this push must treat the following EOF as an orderly
    /// goodbye (`SubscriptionEnd::CleanShutdown`), not a connection
    /// loss worth reconnect-hammering.
    ShuttingDown,
    /// Answer to [`Request::FederateHello`]: the negotiated protocol
    /// version and the listener's node identity.
    FederateWelcome {
        /// Negotiated version: `min(offered, supported)`.
        version: u32,
        /// The listener's node name.
        node: String,
    },
    /// Answer to [`Request::FederateStart`], sent once this daemon's
    /// party finished all its ring rounds.
    FederateDone {
        /// Echo of the session id.
        session: u64,
        /// Hex-encoded fully-encrypted list for the auditing agent.
        payload: String,
        /// Protocol payload bytes this party sent (ring + agent hop).
        sent_bytes: u64,
        /// Protocol payload bytes this party received.
        recv_bytes: u64,
        /// Protocol messages this party sent (ring + agent hop).
        sent_msgs: u64,
        /// Protocol messages this party received.
        recv_msgs: u64,
        /// Bytes this party actually put on the wire dialing its ring
        /// successor — the handshake line plus every round frame's
        /// length prefix, header, payload and trace context — as
        /// opposed to `sent_bytes`, which counts protocol payload only.
        ///
        /// Under transient successor faults a party retries each frame
        /// (bounded, exponential backoff), each retry on a fresh dial of
        /// its successor; bytes burned on failed attempts and the links
        /// they dropped are *included* here, so a retried run
        /// legitimately reports more wire bytes than a clean one. The
        /// retry count surfaces as the daemon's `fed_frame_retries_total`
        /// counter in [`Response::Metrics`], not on this answer — the
        /// wire shape is unchanged from protocol v2.
        ///
        /// A party that cannot finish its rounds answers
        /// [`Response::Error`] instead; the coordinator classifies that
        /// as a *reachable* failure (the daemon is alive, the round
        /// died) versus an unreachable one (dial/transport death), and —
        /// when unreachable parties are a strict minority — folds both
        /// into a degraded `FederatedOutcome`: no overlap result, but
        /// every failed party named with its classification. Each
        /// coordinating daemon also counts those failures in
        /// `fed_party_failures_total`.
        wire_sent_bytes: u64,
    },
    /// Answer to [`Request::Trace`]: this daemon's spans of the trace.
    Trace {
        /// The answering daemon's node identity (its listen address);
        /// also stamped on every span entry.
        node: String,
        /// Spans recorded here for the requested trace id, oldest
        /// first. Empty when the daemon saw nothing of the trace (or
        /// its span ring already evicted it).
        spans: Vec<SpanEntry>,
    },
    /// Any failure: parse errors, audit errors, deadline overruns,
    /// queue overload.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

impl Response {
    /// Convenience constructor for error responses.
    pub fn error(message: impl Into<String>) -> Self {
        Response::Error {
            message: message.into(),
        }
    }
}

/// One latency histogram in a [`Response::Metrics`] snapshot.
///
/// Buckets are log₂: bucket `i ≥ 1` counts values (microseconds) in
/// `[2^(i-1), 2^i)`, bucket 0 counts exact zeros; only occupied buckets
/// are sent. The quantile fields are *bucket upper bounds* — for a true
/// quantile value `v` the reported bound `b` satisfies `v <= b < 2v + 1`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MetricHisto {
    /// Metric name.
    pub name: String,
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values (µs) — `sum / count` is the mean.
    pub sum_us: u64,
    /// Median upper bound, µs.
    pub p50_us: u64,
    /// 90th-percentile upper bound, µs.
    pub p90_us: u64,
    /// 99th-percentile upper bound, µs.
    pub p99_us: u64,
    /// Upper bound of the highest occupied bucket, µs.
    pub max_us: u64,
    /// Occupied `(bucket index, count)` pairs, index-ascending.
    pub buckets: Vec<(u32, u64)>,
}

/// One span in a [`Response::Trace`] or [`Response::Metrics`] answer —
/// the wire twin of [`SpanRecord`], with the trace id in hex (JSON has
/// no 128-bit integers) and the recording daemon stamped on.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SpanEntry {
    /// Trace id, 32 hex digits.
    pub trace: String,
    pub span_id: u64,
    /// The span this one nests under; 0 for a trace root.
    pub parent_span_id: u64,
    /// What ran: `request:AuditSia`, `queue_wait`, `fed_party`, an
    /// engine stage name, …
    pub name: String,
    /// Free-form qualifier; may be empty.
    pub detail: String,
    /// The daemon that recorded the span.
    pub node: String,
    /// Wall-clock start, µs since the UNIX epoch (sibling ordering).
    pub start_us: u64,
    pub elapsed_us: u64,
    /// `(key, value)` attributes; empty for most spans. An audit-level
    /// span carries `kind`, `cached`, `outcome` and (when it read any
    /// shard) `pins` as `shard:epoch,…`.
    pub attrs: Vec<(String, String)>,
}

impl SpanEntry {
    /// The wire form of `span`, stamped as recorded by `node`.
    pub fn from_record(span: SpanRecord, node: &str) -> Self {
        SpanEntry {
            trace: format_trace_id(span.trace_id),
            span_id: span.span_id,
            parent_span_id: span.parent_span_id,
            name: span.name,
            detail: span.detail,
            node: node.to_string(),
            start_us: span.start_us,
            elapsed_us: span.elapsed_us,
            attrs: span
                .attrs
                .into_iter()
                .map(|(k, v)| (k.into_owned(), v.into_owned()))
                .collect(),
        }
    }

    /// Back to a [`SpanRecord`] for `indaas_obs::build_span_tree`;
    /// `None` if the trace id is not valid hex.
    pub fn into_record(self) -> Option<SpanRecord> {
        Some(SpanRecord {
            trace_id: parse_trace_id(&self.trace)?,
            span_id: self.span_id,
            parent_span_id: self.parent_span_id,
            name: self.name,
            detail: self.detail,
            node: self.node,
            start_us: self.start_us,
            elapsed_us: self.elapsed_us,
            attrs: self
                .attrs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        })
    }
}

/// A correlated protocol-v2 request: the client picks `id` (≥ 1) and
/// the matching [`ResponseEnvelope`] echoes it, so one session can keep
/// many requests in flight and match answers out of order.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Envelope {
    /// Client-chosen correlation id, unique among this connection's
    /// in-flight requests. Id 0 is reserved ([`EVENT_ENVELOPE_ID`]).
    pub id: u64,
    /// The request itself.
    pub body: Request,
    /// Optional trace-context header
    /// (`TraceContext::encode_header`: `<32 hex>-<16 hex>-<16 hex>`,
    /// naming the span the server should record for this dispatch).
    /// When it is absent or garbage — never an error — the daemon
    /// mints a root context for the request itself.
    pub trace: Option<String>,
}

/// A correlated protocol-v2 response: `id` echoes the request envelope,
/// or is [`EVENT_ENVELOPE_ID`] for a server push.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ResponseEnvelope {
    /// The request envelope this answers, or 0 for a push.
    pub id: u64,
    /// The response itself.
    pub body: Response,
}

/// The [`Response::Sia`] body around an already-encoded report: exactly
/// `encode_line(&Response::Sia { .. })`, with `report` — the JSON text
/// of the [`AuditReport`] — copied in verbatim instead of re-encoded.
pub(crate) fn sia_body(epoch: u64, cached: bool, elapsed_us: u64, report: &str) -> String {
    splice("Sia", cached, elapsed_us, epoch, report, "}}")
}

/// The [`Response::AuditEvent`] body around an already-encoded report —
/// [`sia_body`]'s twin for pushes.
pub(crate) fn audit_event_body(
    subscription: u64,
    epoch: u64,
    cached: bool,
    elapsed_us: u64,
    report: &str,
    trace_id: &str,
) -> String {
    let tail = format!(
        r#","subscription":{subscription},"trace_id":{}}}}}"#,
        encode_line(&trace_id)
    );
    splice("AuditEvent", cached, elapsed_us, epoch, report, &tail)
}

/// `{"<variant>":{` and the fields both answers share, in the derive's
/// (sorted) key order, then the report text and `tail` — the keys after
/// `report` and the closing braces.
fn splice(
    variant: &str,
    cached: bool,
    elapsed_us: u64,
    epoch: u64,
    report: &str,
    tail: &str,
) -> String {
    let head = format!(
        r#"{{"{variant}":{{"cached":{cached},"elapsed_us":{elapsed_us},"epoch":{epoch},"report":"#
    );
    let mut body = String::with_capacity(head.len() + report.len() + tail.len());
    body.push_str(&head);
    body.push_str(report);
    body.push_str(tail);
    body
}

/// How one answer is framed for its session.
#[derive(Clone, Copy, Debug)]
pub(crate) enum SlotEncoding {
    /// A bare v1 response line.
    V1,
    /// A length-prefixed v2 [`ResponseEnvelope`] with this id.
    V2 { id: u64 },
}

/// Frames one encoded response body — typed answers through
/// `encode_line`, spliced ones from [`sia_body`]/[`audit_event_body`] —
/// into its transport-ready bytes: the v1 line (newline appended) or the
/// v2 envelope `{"body":…,"id":N}` behind its length prefix. Every answer
/// the daemon sends is framed here, and its size recorded in
/// `response_bytes`.
pub(crate) fn frame_answer(encoding: SlotEncoding, body: &str, response_bytes: &Histo) -> Vec<u8> {
    let frame = match encoding {
        SlotEncoding::V1 => crate::codec::line_bytes(body),
        SlotEncoding::V2 { id } => crate::codec::frame_parts(&[
            br#"{"body":"#,
            body.as_bytes(),
            format!(r#","id":{id}}}"#).as_bytes(),
        ]),
    };
    response_bytes.record(frame.len() as u64);
    frame
}

/// Outcome of [`read_frame`].
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame is in the buffer.
    Frame,
    /// Clean end of stream before any byte of a new frame.
    Eof,
    /// The announced length exceeds the limit; nothing was read past
    /// the prefix, so the stream cannot be resynchronized and should be
    /// dropped.
    Oversized,
}

/// Writes one length-prefixed binary frame: a `u32` big-endian payload
/// length followed by the payload. The caller flushes.
///
/// # Errors
///
/// Rejects payloads longer than `u32::MAX` (nothing in the protocol
/// comes close); propagates transport errors.
pub fn write_frame(writer: &mut impl std::io::Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "frame payload exceeds u32 length",
        )
    })?;
    writer.write_all(&len.to_be_bytes())?;
    writer.write_all(payload)
}

/// Reads one length-prefixed binary frame into `buf`, bounding the
/// accepted length by `limit`.
///
/// The buffer grows with bytes *actually received*, chunk by chunk —
/// a lying length prefix on a stalling peer can never balloon memory
/// past what the peer really sent (plus one chunk), and an announced
/// length beyond `limit` is rejected before any allocation at all.
///
/// # Errors
///
/// A stream that ends inside the length prefix or inside the announced
/// payload is a truncated frame and surfaces as
/// [`std::io::ErrorKind::UnexpectedEof`]; other transport errors
/// propagate unchanged.
pub fn read_frame(
    reader: &mut impl std::io::Read,
    buf: &mut Vec<u8>,
    limit: u64,
) -> std::io::Result<FrameRead> {
    buf.clear();
    let mut header = [0u8; 4];
    let mut got = 0usize;
    while got < header.len() {
        match reader.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(FrameRead::Eof),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame length prefix",
                ));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u64::from(u32::from_be_bytes(header));
    if len > limit {
        return Ok(FrameRead::Oversized);
    }
    const CHUNK: usize = 64 * 1024;
    let mut remaining = len as usize;
    while remaining > 0 {
        let step = remaining.min(CHUNK);
        let start = buf.len();
        buf.resize(start + step, 0);
        reader.read_exact(&mut buf[start..])?;
        remaining -= step;
    }
    Ok(FrameRead::Frame)
}

/// Bytes of the binary round-frame header: session (8) ‖ round (4) ‖
/// from (4), all big-endian. The raw ciphertext payload follows, then
/// the [`TRACE_CONTEXT_BYTES`]-byte trace context.
pub const ROUND_FRAME_HEADER_BYTES: usize = 16;

/// Flag bit in the round-frame `from` field announcing the trace
/// context after the payload. Every frame sets it; ring indices are
/// bounded by `MAX_PARTIES` (64), so the top bit is always free.
pub const ROUND_FROM_TRACE_FLAG: u32 = 1 << 31;

/// Encodes one federation round frame — the only frame a peer session
/// carries: the header with [`ROUND_FROM_TRACE_FLAG`] set in `from`,
/// the payload verbatim (no hex, no JSON), then `trace`'s 32-byte
/// binary form. Ship it with [`write_frame`].
pub fn encode_traced_round_frame(
    session: u64,
    round: u32,
    from: u32,
    payload: &[u8],
    trace: &TraceContext,
) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(ROUND_FRAME_HEADER_BYTES + payload.len() + TRACE_CONTEXT_BYTES);
    out.extend_from_slice(&session.to_be_bytes());
    out.extend_from_slice(&round.to_be_bytes());
    out.extend_from_slice(&(from | ROUND_FROM_TRACE_FLAG).to_be_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&trace.to_bytes());
    out
}

/// A decoded round frame: `(session, round, from, payload, trace)`,
/// with the [`ROUND_FROM_TRACE_FLAG`] bit already stripped from `from`.
pub type TracedRoundFrame<'a> = (u64, u32, u32, &'a [u8], Option<TraceContext>);

/// Decodes one round frame, borrowing the payload. An all-zero (or
/// otherwise invalid) context decodes as `None`; garbage never panics —
/// the worst a hostile peer gets is an error string.
///
/// # Errors
///
/// A human-readable message for a frame shorter than its layout, one
/// without [`ROUND_FROM_TRACE_FLAG`], or one with an oversized payload.
pub fn decode_traced_round_frame(frame: &[u8]) -> Result<TracedRoundFrame<'_>, String> {
    if frame.len() < ROUND_FRAME_HEADER_BYTES {
        return Err(format!(
            "round frame of {} bytes is shorter than the {ROUND_FRAME_HEADER_BYTES}-byte header",
            frame.len()
        ));
    }
    let (header, rest) = frame.split_at(ROUND_FRAME_HEADER_BYTES);
    let session = u64::from_be_bytes(header[0..8].try_into().expect("8-byte slice")); // lint:allow(panic_path) -- header[0..8] is a fixed 8-byte range
    let round = u32::from_be_bytes(header[8..12].try_into().expect("4-byte slice")); // lint:allow(panic_path) -- header[8..12] is a fixed 4-byte range
    let raw_from = u32::from_be_bytes(header[12..16].try_into().expect("4-byte slice")); // lint:allow(panic_path) -- header[12..16] is a fixed 4-byte range
    if raw_from & ROUND_FROM_TRACE_FLAG == 0 {
        return Err("round frame lacks the trace-context flag".to_string());
    }
    if rest.len() < TRACE_CONTEXT_BYTES {
        return Err(format!(
            "round frame flags a trace extension but carries only {} payload bytes",
            rest.len()
        ));
    }
    let (payload, ext) = rest.split_at(rest.len() - TRACE_CONTEXT_BYTES);
    if payload.len() > MAX_FEDERATE_PAYLOAD_BYTES {
        return Err(format!(
            "round-frame payload exceeds {MAX_FEDERATE_PAYLOAD_BYTES} bytes"
        ));
    }
    Ok((
        session,
        round,
        raw_from & !ROUND_FROM_TRACE_FLAG,
        payload,
        TraceContext::from_bytes(ext),
    ))
}

/// Encodes a protocol value as one wire line (no trailing newline).
pub fn encode_line<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("protocol types always serialize") // lint:allow(panic_path) -- protocol types are plain data; JSON serialization cannot fail
}

/// Decodes one wire line.
///
/// # Errors
///
/// Returns the underlying JSON error for malformed input.
pub fn decode_line<T: serde::Deserialize>(line: &str) -> Result<T, serde_json::Error> {
    serde_json::from_str(line)
}

/// Hex-encodes a `FederateDone` payload for the wire (lowercase, no
/// prefix).
pub(crate) fn encode_payload(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = Vec::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[usize::from(b >> 4)]); // lint:allow(panic_path) -- b >> 4 is at most 15 and DIGITS has 16 entries
        out.push(DIGITS[usize::from(b & 0x0f)]); // lint:allow(panic_path) -- b & 0x0f is at most 15 and DIGITS has 16 entries
    }
    String::from_utf8(out).expect("hex digits are ASCII") // lint:allow(panic_path) -- out holds only DIGITS bytes, which are ASCII
}

/// Decodes a hex `FederateDone` payload, enforcing
/// [`MAX_FEDERATE_PAYLOAD_BYTES`].
///
/// # Errors
///
/// Returns a human-readable message for odd-length input, non-hex
/// characters, or an oversized payload.
pub(crate) fn decode_payload(hex: &str) -> Result<Vec<u8>, String> {
    if !hex.len().is_multiple_of(2) {
        return Err("hex payload has odd length".to_string());
    }
    if hex.len() / 2 > MAX_FEDERATE_PAYLOAD_BYTES {
        return Err(format!(
            "payload exceeds {MAX_FEDERATE_PAYLOAD_BYTES} bytes"
        ));
    }
    let digit = |c: u8| -> Result<u8, String> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(format!("invalid hex character {:?}", c as char)),
        }
    };
    let raw = hex.as_bytes();
    let mut out = Vec::with_capacity(raw.len() / 2);
    for pair in raw.chunks_exact(2) {
        out.push(digit(pair[0])? << 4 | digit(pair[1])?); // lint:allow(panic_path) -- chunks_exact(2) yields exactly two bytes per pair
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use indaas_core::CandidateDeployment;

    #[test]
    fn unit_variants_are_bare_strings() {
        assert_eq!(encode_line(&Request::Ping), "\"Ping\"");
        let back: Request = decode_line("\"Ping\"").unwrap();
        assert!(matches!(back, Request::Ping));
    }

    #[test]
    fn audit_request_roundtrips() {
        let req = Request::AuditSia {
            spec: AuditSpec::sia_size_based(vec![CandidateDeployment::replicated(
                "pair",
                ["S1", "S2"],
            )]),
            timeout_ms: Some(2500),
        };
        let line = encode_line(&req);
        assert!(!line.contains('\n'), "wire format is single-line");
        let back: Request = decode_line(&line).unwrap();
        match back {
            Request::AuditSia { spec, timeout_ms } => {
                assert_eq!(spec.candidates[0].name, "pair");
                assert_eq!(timeout_ms, Some(2500));
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn omitted_option_fields_parse_as_none() {
        let back: Request =
            decode_line(r#"{"AuditPia": {"providers": [["A", ["x"]], ["B", ["y"]]], "way": 2}}"#)
                .unwrap();
        match back {
            Request::AuditPia {
                providers,
                way,
                minhash,
                timeout_ms,
            } => {
                assert_eq!(providers.len(), 2);
                assert_eq!(way, 2);
                assert_eq!(minhash, None);
                assert_eq!(timeout_ms, None);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_error() {
        assert!(decode_line::<Request>("not json").is_err());
        assert!(decode_line::<Request>("\"NoSuchVariant\"").is_err());
        assert!(decode_line::<Request>(r#"{"AuditSia": {}}"#).is_err());
    }

    #[test]
    fn error_response_roundtrips() {
        let line = encode_line(&Response::error("boom"));
        let back: Response = decode_line(&line).unwrap();
        assert!(matches!(back, Response::Error { message } if message == "boom"));
    }

    #[test]
    fn federate_messages_roundtrip() {
        let hello = Request::FederateHello {
            version: FEDERATION_PROTOCOL_VERSION,
            node: "127.0.0.1:4914".into(),
        };
        let back: Request = decode_line(&encode_line(&hello)).unwrap();
        assert!(matches!(
            back,
            Request::FederateHello { version, node }
                if version == FEDERATION_PROTOCOL_VERSION && node == "127.0.0.1:4914"
        ));

        let done = Response::FederateDone {
            session: 42,
            payload: encode_payload(&[1, 2, 3]),
            sent_bytes: 384,
            recv_bytes: 256,
            sent_msgs: 3,
            recv_msgs: 2,
            wire_sent_bytes: 812,
        };
        assert!(matches!(
            decode_line::<Response>(&encode_line(&done)).unwrap(),
            Response::FederateDone {
                sent_bytes: 384,
                ..
            }
        ));
    }

    #[test]
    fn payload_hex_is_validated_and_bounded() {
        assert_eq!(decode_payload("").unwrap(), Vec::<u8>::new());
        assert_eq!(decode_payload("00ff10").unwrap(), vec![0, 255, 16]);
        assert!(decode_payload("abc").unwrap_err().contains("odd length"));
        assert!(decode_payload("zz").unwrap_err().contains("invalid hex"));
        let oversized = "00".repeat(MAX_FEDERATE_PAYLOAD_BYTES + 1);
        assert!(decode_payload(&oversized).unwrap_err().contains("exceeds"));
    }

    #[test]
    fn payload_roundtrip_is_identity() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(decode_payload(&encode_payload(&bytes)).unwrap(), bytes);
    }

    #[test]
    fn hello_and_subscription_messages_roundtrip() {
        let back: Request = decode_line(&encode_line(&Request::Hello {
            version: PROTOCOL_VERSION,
        }))
        .unwrap();
        assert!(matches!(back, Request::Hello { version } if version == PROTOCOL_VERSION));

        let sub = Request::Subscribe {
            spec: AuditSpec::sia_size_based(vec![CandidateDeployment::replicated(
                "pair",
                ["S1", "S2"],
            )]),
            engine: "sia".into(),
        };
        match decode_line::<Request>(&encode_line(&sub)).unwrap() {
            Request::Subscribe { spec, engine } => {
                assert_eq!(spec.candidates[0].name, "pair");
                assert_eq!(engine, "sia");
            }
            other => panic!("wrong variant: {other:?}"),
        }

        let back: Response =
            decode_line(&encode_line(&Response::Subscribed { subscription: 9 })).unwrap();
        assert!(matches!(back, Response::Subscribed { subscription: 9 }));
        let back: Response =
            decode_line(&encode_line(&Response::Unsubscribed { subscription: 9 })).unwrap();
        assert!(matches!(back, Response::Unsubscribed { subscription: 9 }));
    }

    #[test]
    fn envelopes_preserve_correlation_ids() {
        let env = Envelope {
            id: u64::MAX - 1, // u64 fidelity must survive the JSON layer
            body: Request::Ping,
            trace: None,
        };
        let back: Envelope = decode_line(&encode_line(&env)).unwrap();
        assert_eq!(back.id, u64::MAX - 1);
        assert!(matches!(back.body, Request::Ping));
        assert_eq!(back.trace, None);

        // A traced envelope carries the header string through; an
        // envelope from a pre-tracing client (no field at all) parses.
        let ctx = TraceContext::root();
        let env = Envelope {
            id: 5,
            body: Request::Ping,
            trace: Some(ctx.encode_header()),
        };
        let back: Envelope = decode_line(&encode_line(&env)).unwrap();
        assert_eq!(
            back.trace.as_deref().and_then(TraceContext::parse_header),
            Some(ctx)
        );
        let legacy: Envelope = decode_line(r#"{"id":3,"body":"Ping"}"#).unwrap();
        assert_eq!((legacy.id, legacy.trace), (3, None));

        let env = ResponseEnvelope {
            id: 7,
            body: Response::Pong,
        };
        let back: ResponseEnvelope = decode_line(&encode_line(&env)).unwrap();
        assert_eq!(back.id, 7);
        assert!(matches!(back.body, Response::Pong));
    }

    #[test]
    fn binary_frames_roundtrip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut cursor, &mut buf, 1024).unwrap(),
            FrameRead::Frame
        ));
        assert_eq!(buf, b"hello");
        assert!(matches!(
            read_frame(&mut cursor, &mut buf, 1024).unwrap(),
            FrameRead::Frame
        ));
        assert!(buf.is_empty());
        assert!(matches!(
            read_frame(&mut cursor, &mut buf, 1024).unwrap(),
            FrameRead::Eof
        ));
    }

    #[test]
    fn oversized_and_truncated_frames_are_rejected() {
        // Announced length past the limit: Oversized, no allocation.
        let mut cursor = std::io::Cursor::new(u32::MAX.to_be_bytes().to_vec());
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut cursor, &mut buf, 1024).unwrap(),
            FrameRead::Oversized
        ));

        // Stream ends inside the length prefix.
        let mut cursor = std::io::Cursor::new(vec![0u8, 0]);
        let err = read_frame(&mut cursor, &mut buf, 1024).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);

        // Stream ends inside the announced payload.
        let mut wire = 100u32.to_be_bytes().to_vec();
        wire.extend_from_slice(b"only-a-few-bytes");
        let mut cursor = std::io::Cursor::new(wire);
        let err = read_frame(&mut cursor, &mut buf, 1024).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn round_frames_roundtrip_and_reject_garbage() {
        let ctx = TraceContext::root().child();
        let payload: Vec<u8> = (0..=63).collect();

        // Header, payload verbatim, context; the flag is set on the wire
        // and stripped on decode.
        let framed = encode_traced_round_frame(0xdead_beef_0042, 2, 1, &payload, &ctx);
        assert_eq!(
            framed.len(),
            ROUND_FRAME_HEADER_BYTES + payload.len() + TRACE_CONTEXT_BYTES
        );
        assert_eq!(framed[12] & 0x80, 0x80, "flag bit is on the wire");
        let (session, round, from, body, trace) = decode_traced_round_frame(&framed).unwrap();
        assert_eq!((session, round, from), (0xdead_beef_0042, 2, 1));
        assert_eq!(body, payload.as_slice());
        assert_eq!(trace, Some(ctx));

        // An empty payload is legal; an all-zero context means "no
        // context", not an error.
        let zero = TraceContext {
            trace_id: 0,
            span_id: 0,
            parent_span_id: 0,
        };
        let empty = encode_traced_round_frame(7, 0, 0, &[], &zero);
        let (.., body, trace) = decode_traced_round_frame(&empty).unwrap();
        assert!(body.is_empty());
        assert_eq!(trace, None);

        // A frame without the flag is refused, whatever follows it.
        let mut unflagged = framed.clone();
        unflagged[12] &= 0x7f;
        assert!(decode_traced_round_frame(&unflagged)
            .unwrap_err()
            .contains("flag"));

        // Too short for the header, or flagged but too short to hold the
        // context: errors, no panic.
        assert!(decode_traced_round_frame(&framed[..15])
            .unwrap_err()
            .contains("header"));
        assert!(
            decode_traced_round_frame(&framed[..ROUND_FRAME_HEADER_BYTES + 8])
                .unwrap_err()
                .contains("trace extension")
        );
    }

    /// The previous release wrote every `None` (and every non-finite
    /// float) as an explicit `null`; this one leaves those keys out.
    /// Each message in the old shape decodes to what the same message in
    /// the new shape decodes to, and both re-encode as the new text.
    #[test]
    fn answers_with_explicit_nulls_decode_as_answers_without() {
        let answers = [
            (
                concat!(
                    r#"{"body":{"Sia":{"cached":false,"elapsed_us":90,"epoch":3,"report":{"deployments":["#,
                    r#"{"failure_probability":null,"independence_score":3.0,"name":"S1+S3","ranked_rgs":["#,
                    r#"{"events":["core1"],"importance":null,"probability":null,"size":1},"#,
                    r#"{"events":["S1-disk","S3-disk"],"importance":null,"probability":null,"size":2}],"#,
                    r#""score_kind":"SizeBased","unexpected_rgs":1}]}}},"id":4}"#
                ),
                concat!(
                    r#"{"body":{"Sia":{"cached":false,"elapsed_us":90,"epoch":3,"report":{"deployments":["#,
                    r#"{"independence_score":3.0,"name":"S1+S3","ranked_rgs":["#,
                    r#"{"events":["core1"],"size":1},"#,
                    r#"{"events":["S1-disk","S3-disk"],"size":2}],"#,
                    r#""score_kind":"SizeBased","unexpected_rgs":1}]}}},"id":4}"#
                ),
            ),
            (
                concat!(
                    r#"{"body":{"AuditEvent":{"cached":true,"elapsed_us":5,"epoch":8,"report":{"deployments":["#,
                    r#"{"failure_probability":0.0199,"independence_score":0.5,"name":"p","ranked_rgs":["#,
                    r#"{"events":["tor1"],"importance":0.5,"probability":0.01,"size":1},"#,
                    r#"{"events":["a","b"],"importance":null,"probability":0.0001,"size":2}],"#,
                    r#""score_kind":"ProbabilityBased","unexpected_rgs":1}]},"#,
                    r#""subscription":2,"trace_id":"00ff"}},"id":0}"#
                ),
                concat!(
                    r#"{"body":{"AuditEvent":{"cached":true,"elapsed_us":5,"epoch":8,"report":{"deployments":["#,
                    r#"{"failure_probability":0.0199,"independence_score":0.5,"name":"p","ranked_rgs":["#,
                    r#"{"events":["tor1"],"importance":0.5,"probability":0.01,"size":1},"#,
                    r#"{"events":["a","b"],"probability":0.0001,"size":2}],"#,
                    r#""score_kind":"ProbabilityBased","unexpected_rgs":1}]},"#,
                    r#""subscription":2,"trace_id":"00ff"}},"id":0}"#
                ),
            ),
        ];
        for (old, new) in answers {
            let (old_value, new_value): (ResponseEnvelope, ResponseEnvelope) =
                (decode_line(old).unwrap(), decode_line(new).unwrap());
            assert_eq!(format!("{old_value:?}"), format!("{new_value:?}"));
            assert_eq!(encode_line(&old_value), new);
            assert_eq!(encode_line(&new_value), new);
        }

        let old = concat!(
            r#"{"body":{"AuditSia":{"spec":{"algorithm":{"Minimal":{"max_order":null}},"#,
            r#""candidates":[{"name":"pair","needed_alive":1,"servers":["S1","S2"]}],"#,
            r#""hardware":true,"metric":"Size","network":true,"prob_model":null,"#,
            r#""software":true,"top_n":null},"timeout_ms":null}},"id":1,"trace":null}"#
        );
        let new = concat!(
            r#"{"body":{"AuditSia":{"spec":{"algorithm":{"Minimal":{}},"#,
            r#""candidates":[{"name":"pair","needed_alive":1,"servers":["S1","S2"]}],"#,
            r#""hardware":true,"metric":"Size","network":true,"#,
            r#""software":true}}},"id":1}"#
        );
        let (old_value, new_value): (Envelope, Envelope) =
            (decode_line(old).unwrap(), decode_line(new).unwrap());
        assert_eq!(format!("{old_value:?}"), format!("{new_value:?}"));
        assert_eq!(encode_line(&old_value), new);
        assert_eq!(encode_line(&new_value), new);
    }

    /// Reports that stress the encoder: escapes of every kind, non-ASCII,
    /// non-finite and integral floats, absent options — and no report at
    /// all.
    fn splice_reports() -> Vec<AuditReport> {
        use indaas_sia::{DeploymentAudit, RankedRg, ScoreKind};
        let hostile = DeploymentAudit {
            name: "q\"uote \\back\\slash\n\t\r\u{1}\u{8}\u{c}\u{1f} é 😀".to_string(),
            ranked_rgs: vec![
                RankedRg {
                    events: vec!["tor\"1".to_string(), "ко́ре\\2".to_string()],
                    size: 2,
                    probability: Some(f64::NAN),
                    importance: Some(f64::INFINITY),
                },
                RankedRg {
                    events: Vec::new(),
                    size: 0,
                    probability: Some(1.0),
                    importance: Some(0.1 + 0.2),
                },
            ],
            independence_score: f64::NEG_INFINITY,
            score_kind: ScoreKind::ProbabilityBased,
            unexpected_rgs: usize::MAX,
            failure_probability: None,
        };
        let plain = DeploymentAudit {
            name: "S1+S3".to_string(),
            ranked_rgs: vec![RankedRg {
                events: vec!["S1-disk".to_string()],
                size: 1,
                probability: None,
                importance: None,
            }],
            independence_score: 4.0,
            score_kind: ScoreKind::SizeBased,
            unexpected_rgs: 0,
            failure_probability: Some(1e-300),
        };
        vec![
            AuditReport {
                deployments: Vec::new(),
            },
            AuditReport {
                deployments: vec![hostile, plain],
            },
        ]
    }

    #[test]
    fn splice_sia_body_equals_encode_line() {
        for report in splice_reports() {
            let encoded = encode_line(&report);
            for (epoch, cached, elapsed_us) in [(0, false, 0), (u64::MAX, true, u64::MAX)] {
                let typed = Response::Sia {
                    epoch,
                    cached,
                    elapsed_us,
                    report: report.clone(),
                };
                assert_eq!(
                    sia_body(epoch, cached, elapsed_us, &encoded),
                    encode_line(&typed)
                );
            }
        }
    }

    #[test]
    fn splice_audit_event_body_equals_encode_line() {
        let trace_ids = [
            format_trace_id(TraceContext::root().trace_id),
            String::new(),
            "odd \"id\" \\ \n é".to_string(),
        ];
        for report in splice_reports() {
            let encoded = encode_line(&report);
            for trace_id in &trace_ids {
                for (subscription, epoch, cached, elapsed_us) in
                    [(1, 0, false, 7), (u64::MAX, u64::MAX, true, u64::MAX)]
                {
                    let typed = Response::AuditEvent {
                        subscription,
                        epoch,
                        cached,
                        elapsed_us,
                        report: report.clone(),
                        trace_id: trace_id.clone(),
                    };
                    assert_eq!(
                        audit_event_body(
                            subscription,
                            epoch,
                            cached,
                            elapsed_us,
                            &encoded,
                            trace_id
                        ),
                        encode_line(&typed)
                    );
                }
            }
        }
    }

    #[test]
    fn splice_frames_equal_typed_frames() {
        let sizes = Histo::new();
        let mut expected_sizes = 0;
        for report in splice_reports() {
            let typed = Response::Sia {
                epoch: 3,
                cached: true,
                elapsed_us: 12,
                report: report.clone(),
            };
            let body = sia_body(3, true, 12, &encode_line(&report));
            let line = frame_answer(SlotEncoding::V1, &body, &sizes);
            assert_eq!(line, crate::codec::line_bytes(&encode_line(&typed)));
            expected_sizes += line.len() as u64;
            for id in [EVENT_ENVELOPE_ID, 1, u64::MAX] {
                let frame = frame_answer(SlotEncoding::V2 { id }, &body, &sizes);
                let envelope = ResponseEnvelope {
                    id,
                    body: typed.clone(),
                };
                assert_eq!(
                    frame,
                    crate::codec::frame_bytes(encode_line(&envelope).as_bytes())
                );
                expected_sizes += frame.len() as u64;
            }
        }
        let recorded = sizes.snapshot();
        assert_eq!(recorded.count, 8, "every frame recorded once");
        assert_eq!(recorded.sum, expected_sizes);
    }
}
