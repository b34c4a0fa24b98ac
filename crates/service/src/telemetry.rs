//! The daemon's observability hub: one [`Registry`], one [`SpanStore`],
//! and pre-resolved handles for every hot-path metric, so instrumented
//! code bumps atomics without ever touching the registry lock.
//!
//! The span store is the only record of what a request did. Every
//! dispatched request runs under a [`TraceContext`] (the client's, or a
//! root minted at the loop's entry point), and every audit — cache hit
//! or miss, request or subscription push, success or failure — records
//! exactly one audit-level span ([`names::SPAN_AUDIT`]) whose
//! attributes ([`audit_attrs`]) say what kind it was, whether the cache
//! served it, how it ended and which `(shard, epoch)` pins it read;
//! engine stages are its children. `Trace{id}` reads the ring by trace
//! id, `Metrics{recent}` reads the newest audit-level spans with their
//! children, and "slow" is `elapsed_us >= slow_threshold_us`, judged by
//! whoever renders the span.
//!
//! # Metric catalog
//!
//! Counters (monotonic since startup):
//!
//! | name | meaning |
//! |---|---|
//! | `requests_total` | requests handled (both protocol versions) |
//! | `audits_sia_total` | SIA audits executed (cache misses + push re-audits) |
//! | `audits_pia_total` | PIA audits executed |
//! | `push_audits_total` | subscription re-audits executed |
//! | `mutations_total` | ingest/retract batches applied |
//! | `sched_jobs_total` | jobs admitted to the worker pool |
//! | `outbox_shed_total` | pushed events shed by slow consumers |
//! | `db_segment_saves_total` | dirty shard segments persisted |
//! | `fed_wire_bytes_total` | bytes put on the wire by federation parties |
//! | `fed_rounds_total` | federation ring messages sent |
//! | `fed_frame_retries_total` | ring frame sends retried after transient failures |
//! | `fed_redials_total` | ring successor re-dials after retries were exhausted |
//! | `fed_party_failures_total` | federation party runs that failed |
//! | `db_segments_quarantined_total` | torn/garbage segment files quarantined at load |
//! | `faults_injected_total` | chaos faults fired by the `--fault` harness |
//! | `loop_wakeups_total` | readiness-loop `epoll_wait` returns |
//!
//! Gauges (instantaneous). A live gauge sits in the registry and has
//! one writer; a derived one is read from its authoritative source —
//! shard counters, cache and family-memo stats, scheduler, subscription
//! registry — into each `Metrics` answer and is never stored in the
//! registry:
//!
//! | name | meaning |
//! |---|---|
//! | `sched_queue_depth` | jobs admitted, not yet picked up (live) |
//! | `sched_jobs_running` | jobs executing (derived) |
//! | `db_shard_writes` | effective write batches, all shards (derived) |
//! | `db_lock_waits` | contended shard-lock acquisitions (derived) |
//! | `cache_sia_hits` / `cache_sia_misses` | SIA result-cache outcomes (derived) |
//! | `cache_pia_hits` / `cache_pia_misses` | PIA result-cache outcomes (derived) |
//! | `cache_entries` | live cached results, both caches (derived) |
//! | `sia_family_hits` / `sia_family_misses` | per-server minimal-family lookups of exact SIA audits, answered from the memo or computed (derived) |
//! | `sia_family_entries` | server families the memo holds (derived) |
//! | `subscriptions` | live audit subscriptions (derived) |
//! | `active_conns` | open client connections (live) |
//! | `pushed_events` | audit events produced for subscribers (live) |
//! | `write_queue_depth` | bytes queued across all connection write queues (live) |
//!
//! Histograms (all in microseconds):
//!
//! | name | what is timed |
//! |---|---|
//! | `envelope_decode_us` | v2 frame → envelope parse |
//! | `dispatch_us` | request dispatch to response produced |
//! | `write_us` | one write-queue drain pass onto a socket |
//! | `loop_ready_events` | fds ready per `epoll_wait` return (a batch-size distribution, not µs) |
//! | `sched_wait_us` | job queue wait |
//! | `audit_stage_graph_build_us` | fault-graph construction, per candidate |
//! | `audit_stage_rg_minimal_us` | minimal risk-group engine |
//! | `audit_stage_rg_sampling_us` | failure-sampling engine |
//! | `audit_stage_rg_bdd_us` | BDD compile + cut-set extraction |
//! | `audit_stage_ranking_us` | risk-group ranking |
//! | `audit_sia_us` / `audit_pia_us` | whole audit execution, report encode included (every executed audit — request miss or push, failed or not; a cache hit executes none) |
//! | `push_latency_us` | ingest invalidation → event frame enqueued |
//! | `ingest_us` | one ingest/retract batch through the write path |
//! | `fed_party_us` | one federation party run, all ring rounds |
//! | `report_encode_us` | encoding one computed SIA report to the text the cache keeps (misses and push misses; a hit encodes nothing) |
//! | `response_bytes` | bytes of every answer frame, length prefix or newline included (a size distribution, not µs) |

use std::sync::Arc;

use indaas_core::StageObserver;
use indaas_obs::{Attr, Counter, Gauge, Histo, Registry, SpanStore, TraceContext};

use crate::names;
use crate::proto::MetricHisto;
use crate::scheduler::SchedMetrics;

/// Span-store capacity. One request fans out to a request span, queue
/// wait, the audit-level span and per-stage spans, so the ring is deep
/// — still bounded, oldest evicted first.
pub const SPAN_CAPACITY: usize = 4096;

/// Default number of audits a [`crate::proto::Request::Metrics`] with
/// `recent: null` returns.
pub const DEFAULT_RECENT_AUDITS: usize = 32;

/// The engine stages [`indaas_core::StageObserver`] reports, in the
/// order their histograms sit in [`Telemetry`].
const STAGES: [&str; 5] = [
    "graph_build",
    "rg_minimal",
    "rg_sampling",
    "rg_bdd",
    "ranking",
];

/// Registry + span store + pre-resolved hot-path handles.
pub struct Telemetry {
    /// All named metrics; snapshot for exposition.
    pub registry: Registry,
    /// Finished spans of every request, served to `Request::Trace` by
    /// trace id and to `Request::Metrics` as the recent audits.
    pub spans: SpanStore,
    /// An audit at or above this many microseconds renders as slow.
    pub slow_threshold_us: u64,
    /// `audit_stage_<stage>_us`, indexed like [`STAGES`].
    stage_us: [Arc<Histo>; STAGES.len()],
    pub requests_total: Arc<Counter>,
    pub envelope_decode_us: Arc<Histo>,
    pub dispatch_us: Arc<Histo>,
    pub write_us: Arc<Histo>,
    pub audits_sia_total: Arc<Counter>,
    pub audits_pia_total: Arc<Counter>,
    pub push_audits_total: Arc<Counter>,
    pub audit_sia_us: Arc<Histo>,
    pub audit_pia_us: Arc<Histo>,
    pub push_latency_us: Arc<Histo>,
    pub ingest_us: Arc<Histo>,
    pub mutations_total: Arc<Counter>,
    pub outbox_shed_total: Arc<Counter>,
    pub db_segment_saves_total: Arc<Counter>,
    pub fed_wire_bytes_total: Arc<Counter>,
    pub fed_rounds_total: Arc<Counter>,
    pub fed_frame_retries_total: Arc<Counter>,
    pub fed_redials_total: Arc<Counter>,
    pub fed_party_failures_total: Arc<Counter>,
    pub db_segments_quarantined_total: Arc<Counter>,
    pub faults_injected_total: Arc<Counter>,
    pub fed_party_us: Arc<Histo>,
    pub loop_wakeups_total: Arc<Counter>,
    pub loop_ready_events: Arc<Histo>,
    /// Read by connection admission against `ServeConfig::max_conns`.
    pub active_conns: Arc<Gauge>,
    pub pushed_events: Arc<Gauge>,
    pub write_queue_depth: Arc<Gauge>,
    pub report_encode_us: Arc<Histo>,
    pub response_bytes: Arc<Histo>,
}

impl Telemetry {
    /// Builds the registry with every live metric pre-registered (so
    /// expositions show the full catalog from the first scrape, zeros
    /// included — a daemon that has not yet audited still advertises
    /// the per-stage families).
    pub fn new(slow_audit_ms: u64) -> Self {
        let registry = Registry::new();
        let stage_us = STAGES.map(|stage| registry.histo(&names::audit_stage_us(stage)));
        registry.gauge(names::SCHED_QUEUE_DEPTH);
        registry.counter(names::SCHED_JOBS_TOTAL);
        registry.histo(names::SCHED_WAIT_US);
        Telemetry {
            requests_total: registry.counter(names::REQUESTS_TOTAL),
            envelope_decode_us: registry.histo(names::ENVELOPE_DECODE_US),
            dispatch_us: registry.histo(names::DISPATCH_US),
            write_us: registry.histo(names::WRITE_US),
            audits_sia_total: registry.counter(names::AUDITS_SIA_TOTAL),
            audits_pia_total: registry.counter(names::AUDITS_PIA_TOTAL),
            push_audits_total: registry.counter(names::PUSH_AUDITS_TOTAL),
            audit_sia_us: registry.histo(names::AUDIT_SIA_US),
            audit_pia_us: registry.histo(names::AUDIT_PIA_US),
            push_latency_us: registry.histo(names::PUSH_LATENCY_US),
            ingest_us: registry.histo(names::INGEST_US),
            mutations_total: registry.counter(names::MUTATIONS_TOTAL),
            outbox_shed_total: registry.counter(names::OUTBOX_SHED_TOTAL),
            db_segment_saves_total: registry.counter(names::DB_SEGMENT_SAVES_TOTAL),
            fed_wire_bytes_total: registry.counter(names::FED_WIRE_BYTES_TOTAL),
            fed_rounds_total: registry.counter(names::FED_ROUNDS_TOTAL),
            fed_frame_retries_total: registry.counter(names::FED_FRAME_RETRIES_TOTAL),
            fed_redials_total: registry.counter(names::FED_REDIALS_TOTAL),
            fed_party_failures_total: registry.counter(names::FED_PARTY_FAILURES_TOTAL),
            db_segments_quarantined_total: registry.counter(names::DB_SEGMENTS_QUARANTINED_TOTAL),
            faults_injected_total: registry.counter(names::FAULTS_INJECTED_TOTAL),
            fed_party_us: registry.histo(names::FED_PARTY_US),
            loop_wakeups_total: registry.counter(names::LOOP_WAKEUPS_TOTAL),
            loop_ready_events: registry.histo(names::LOOP_READY_EVENTS),
            active_conns: registry.gauge(names::ACTIVE_CONNS),
            pushed_events: registry.gauge(names::PUSHED_EVENTS),
            write_queue_depth: registry.gauge(names::WRITE_QUEUE_DEPTH),
            report_encode_us: registry.histo(names::REPORT_ENCODE_US),
            response_bytes: registry.histo(names::RESPONSE_BYTES),
            registry,
            spans: SpanStore::new(SPAN_CAPACITY),
            slow_threshold_us: slow_audit_ms.saturating_mul(1_000),
            stage_us,
        }
    }

    /// Handles the worker pool keeps current.
    pub fn sched_metrics(&self) -> SchedMetrics {
        SchedMetrics {
            queue_depth: self.registry.gauge(names::SCHED_QUEUE_DEPTH),
            wait_us: self.registry.histo(names::SCHED_WAIT_US),
            jobs_total: self.registry.counter(names::SCHED_JOBS_TOTAL),
        }
    }
}

/// The attributes of an audit-level span: what ran (`"sia"`, `"pia"`,
/// or [`names::SPAN_PUSH`]), whether the result cache served it, how it
/// ended ([`names::OUTCOME_OK`] or the error's rendering), and the
/// `(shard, epoch)` pins it read as `shard:epoch,…` (omitted when the
/// audit reads no shard, as PIA does).
pub fn audit_attrs(
    kind: &'static str,
    cached: bool,
    error: Option<String>,
    pins: &[(u32, u64)],
) -> Vec<Attr> {
    let mut attrs: Vec<Attr> = vec![
        (names::ATTR_KIND.into(), kind.into()),
        (
            names::ATTR_CACHED.into(),
            if cached { "true" } else { "false" }.into(),
        ),
        (
            names::ATTR_OUTCOME.into(),
            error.map_or(names::OUTCOME_OK.into(), Into::into),
        ),
    ];
    if !pins.is_empty() {
        let pins: Vec<String> = pins.iter().map(|(s, e)| format!("{s}:{e}")).collect();
        attrs.push((names::ATTR_PINS.into(), pins.join(",").into()));
    }
    attrs
}

/// A per-audit [`StageObserver`]: feeds each stage timing into its
/// per-stage histogram and records it as a child span of the audit's
/// own span.
pub struct StageRecorder<'a> {
    telemetry: &'a Telemetry,
    audit: TraceContext,
}

impl<'a> StageRecorder<'a> {
    /// A recorder for the audit running as span `audit`.
    pub fn new(telemetry: &'a Telemetry, audit: TraceContext) -> Self {
        StageRecorder { telemetry, audit }
    }
}

impl StageObserver for StageRecorder<'_> {
    fn stage(&self, stage: &'static str, elapsed_us: u64) {
        let histos = STAGES.iter().zip(&self.telemetry.stage_us);
        if let Some((_, histo)) = histos.into_iter().find(|(s, _)| **s == stage) {
            histo.record(elapsed_us);
        }
        self.telemetry
            .spans
            .record(self.audit.child(), stage, String::new(), elapsed_us);
    }
}

/// Renders registry histogram snapshots into their wire form, with the
/// quantile upper bounds precomputed server-side.
pub fn wire_histos(histos: &[(String, indaas_obs::HistoSnapshot)]) -> Vec<MetricHisto> {
    histos
        .iter()
        .map(|(name, snap)| MetricHisto {
            name: name.clone(),
            count: snap.count,
            sum_us: snap.sum,
            p50_us: snap.p50(),
            p90_us: snap.p90(),
            p99_us: snap.p99(),
            max_us: snap.max_bound(),
            buckets: snap.nonzero_buckets(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_recorder_feeds_histos_and_child_spans() {
        let t = Telemetry::new(0);
        let audit = TraceContext::root().child();
        let rec = StageRecorder::new(&t, audit);
        rec.stage("graph_build", 120);
        rec.stage("rg_minimal", 4_000);
        let snap = t.registry.snapshot();
        for stage in ["graph_build", "rg_minimal"] {
            assert_eq!(snap.histo(&names::audit_stage_us(stage)).unwrap().count, 1);
        }
        let spans = t.spans.spans_for(audit.trace_id);
        assert_eq!(
            spans
                .iter()
                .map(|s| (s.name.as_str(), s.elapsed_us))
                .collect::<Vec<_>>(),
            [("graph_build", 120), ("rg_minimal", 4_000)]
        );
        assert!(spans.iter().all(|s| s.parent_span_id == audit.span_id));
    }

    #[test]
    fn every_stage_family_is_preregistered() {
        let snap = Telemetry::new(0).registry.snapshot();
        for stage in STAGES {
            assert!(snap.histo(&names::audit_stage_us(stage)).is_some());
        }
    }

    #[test]
    fn audit_attrs_spell_out_disposition_and_pins() {
        let attrs = audit_attrs("sia", true, None, &[(0, 3), (5, 7)]);
        let get = |k: &str| attrs.iter().find(|(key, _)| key == k).map(|(_, v)| &**v);
        assert_eq!(get(names::ATTR_KIND), Some("sia"));
        assert_eq!(get(names::ATTR_CACHED), Some("true"));
        assert_eq!(get(names::ATTR_OUTCOME), Some(names::OUTCOME_OK));
        assert_eq!(get(names::ATTR_PINS), Some("0:3,5:7"));
        let failed = audit_attrs("pia", false, Some("cancelled".into()), &[]);
        assert_eq!(failed.len(), 3, "no pins attribute without pins");
        assert_eq!(&*failed[2].1, "cancelled");
    }

    #[test]
    fn slow_threshold_is_milliseconds_in() {
        assert_eq!(Telemetry::new(2).slow_threshold_us, 2_000);
        assert_eq!(Telemetry::new(0).slow_threshold_us, 0);
    }

    #[test]
    fn wire_histo_carries_quantile_bounds() {
        let t = Telemetry::new(0);
        t.audit_sia_us.record(3);
        t.audit_sia_us.record(100);
        let snap = t.registry.snapshot();
        let wire = wire_histos(&snap.histos);
        let h = wire.iter().find(|h| h.name == "audit_sia_us").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum_us, 103);
        assert!(h.p99_us >= 100);
        assert_eq!(h.buckets.len(), 2);
    }
}
