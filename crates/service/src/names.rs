//! The telemetry-name registry: every counter, gauge and histogram the
//! daemon exposes, and every span name and attribute key it selects
//! on, declared exactly once.
//!
//! `indaas-lint`'s registry-consistency rule enforces that no other
//! non-test code spells these strings out: registration
//! ([`crate::telemetry::Telemetry::new`]), the derived gauges of a
//! `Metrics` answer, the `--prom` exposition, the `Metrics{recent}`
//! query and the `indaas top` dashboard all reference the consts, so a
//! renamed metric or span is a one-line change the compiler propagates
//! instead of silent scrape drift. The metric *meanings* are documented
//! in the catalog tables in [`crate::telemetry`].

// Counters (monotonic since startup).
pub const REQUESTS_TOTAL: &str = "requests_total";
pub const AUDITS_SIA_TOTAL: &str = "audits_sia_total";
pub const AUDITS_PIA_TOTAL: &str = "audits_pia_total";
pub const PUSH_AUDITS_TOTAL: &str = "push_audits_total";
pub const MUTATIONS_TOTAL: &str = "mutations_total";
pub const SCHED_JOBS_TOTAL: &str = "sched_jobs_total";
pub const OUTBOX_SHED_TOTAL: &str = "outbox_shed_total";
pub const DB_SEGMENT_SAVES_TOTAL: &str = "db_segment_saves_total";
pub const FED_WIRE_BYTES_TOTAL: &str = "fed_wire_bytes_total";
pub const FED_ROUNDS_TOTAL: &str = "fed_rounds_total";
pub const FED_FRAME_RETRIES_TOTAL: &str = "fed_frame_retries_total";
pub const FED_REDIALS_TOTAL: &str = "fed_redials_total";
pub const FED_PARTY_FAILURES_TOTAL: &str = "fed_party_failures_total";
pub const DB_SEGMENTS_QUARANTINED_TOTAL: &str = "db_segments_quarantined_total";
pub const FAULTS_INJECTED_TOTAL: &str = "faults_injected_total";
pub const LOOP_WAKEUPS_TOTAL: &str = "loop_wakeups_total";

// Gauges (instantaneous; some derived at snapshot time).
pub const SCHED_QUEUE_DEPTH: &str = "sched_queue_depth";
pub const SCHED_JOBS_RUNNING: &str = "sched_jobs_running";
pub const DB_SHARD_WRITES: &str = "db_shard_writes";
pub const DB_LOCK_WAITS: &str = "db_lock_waits";
pub const CACHE_SIA_HITS: &str = "cache_sia_hits";
pub const CACHE_SIA_MISSES: &str = "cache_sia_misses";
pub const CACHE_PIA_HITS: &str = "cache_pia_hits";
pub const CACHE_PIA_MISSES: &str = "cache_pia_misses";
pub const CACHE_ENTRIES: &str = "cache_entries";
pub const SIA_FAMILY_HITS: &str = "sia_family_hits";
pub const SIA_FAMILY_MISSES: &str = "sia_family_misses";
pub const SIA_FAMILY_ENTRIES: &str = "sia_family_entries";
pub const SUBSCRIPTIONS: &str = "subscriptions";
pub const ACTIVE_CONNS: &str = "active_conns";
pub const PUSHED_EVENTS: &str = "pushed_events";
pub const WRITE_QUEUE_DEPTH: &str = "write_queue_depth";

// Histograms (microseconds unless noted).
pub const ENVELOPE_DECODE_US: &str = "envelope_decode_us";
pub const DISPATCH_US: &str = "dispatch_us";
pub const WRITE_US: &str = "write_us";
pub const LOOP_READY_EVENTS: &str = "loop_ready_events";
pub const SCHED_WAIT_US: &str = "sched_wait_us";
pub const AUDIT_SIA_US: &str = "audit_sia_us";
pub const AUDIT_PIA_US: &str = "audit_pia_us";
pub const PUSH_LATENCY_US: &str = "push_latency_us";
pub const INGEST_US: &str = "ingest_us";
pub const FED_PARTY_US: &str = "fed_party_us";
pub const REPORT_ENCODE_US: &str = "report_encode_us";
/// Bytes, not µs: the size of every answer frame the daemon sends.
pub const RESPONSE_BYTES: &str = "response_bytes";

// Spans. `SPAN_AUDIT` is the one audit-level span every audit records
// (what `Metrics{recent}` selects); engine stages nest under it.
pub const SPAN_AUDIT: &str = "audit_exec";
pub const SPAN_QUEUE_WAIT: &str = "queue_wait";
/// A subscription re-audit: the span parenting its queue wait and
/// audit, and the `kind` that audit reports.
pub const SPAN_PUSH: &str = "push";
pub const SPAN_FED_PARTY: &str = "fed_party";
pub const SPAN_FED_FRAME: &str = "fed_frame";

// Attribute keys of the audit-level span, and the outcome of an audit
// that did not fail.
pub const ATTR_KIND: &str = "kind";
pub const ATTR_CACHED: &str = "cached";
pub const ATTR_OUTCOME: &str = "outcome";
pub const ATTR_PINS: &str = "pins";
pub const OUTCOME_OK: &str = "ok";

// Dynamic family: a fixed prefix plus a runtime component. The helper
// below is the only way non-test code builds these names.
pub const AUDIT_STAGE_PREFIX: &str = "audit_stage_";

/// `audit_stage_<stage>_us` — the per-engine-stage histogram family.
pub fn audit_stage_us(stage: &str) -> String {
    format!("{AUDIT_STAGE_PREFIX}{stage}_us")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_families_share_their_prefix() {
        assert!(audit_stage_us("rg_bdd").starts_with(AUDIT_STAGE_PREFIX));
        assert!(audit_stage_us("rg_bdd").ends_with("_us"));
    }
}
