//! End-to-end tests for the continuous auditing daemon: a real TCP
//! server on an ephemeral port, streamed ingestion, concurrent audits,
//! cache hits/invalidation, deadlines and protocol error paths.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

use indaas::core::{AuditSpec, CandidateDeployment, RankingMetric, RgAlgorithm};
use indaas::deps::ShardedDepDb;
use indaas::service::{
    names, Client, MetricsAnswer, Request, Response, ServeConfig, Server, SpanEntry,
    SubscriptionEnd,
};
use indaas::sia::{
    build_fault_graph, minimal_risk_groups, AuditReport, BuildSpec, DeploymentAudit, MinimalConfig,
};

mod common;
use common::LineSession;

const RECORDS: &str = r#"
    <src="S1" dst="Internet" route="tor1,core1"/>
    <src="S1" dst="Internet" route="tor1,core2"/>
    <src="S2" dst="Internet" route="tor1,core1"/>
    <src="S2" dst="Internet" route="tor1,core2"/>
    <src="S3" dst="Internet" route="tor2,core1"/>
    <src="S3" dst="Internet" route="tor2,core2"/>
    <hw="S1" type="Disk" dep="S1-disk"/>
    <hw="S2" type="Disk" dep="S2-disk"/>
    <hw="S3" type="Disk" dep="S3-disk"/>
"#;

/// Starts a daemon on an ephemeral port; returns its address and the
/// serve-loop handle (joined after a `Shutdown` request).
fn start_daemon() -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = common::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 64,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn audit_spec() -> AuditSpec {
    AuditSpec::sia_size_based(vec![
        CandidateDeployment::replicated("S1+S2", ["S1", "S2"]),
        CandidateDeployment::replicated("S1+S3", ["S1", "S3"]),
    ])
}

/// The value of attribute `key` on a wire span.
fn attr<'a>(span: &'a SpanEntry, key: &str) -> Option<&'a str> {
    span.attrs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

#[test]
fn ingest_audit_cache_and_invalidation() {
    use indaas::obs::{format_trace_id, TraceContext};

    let (addr, daemon) = start_daemon();
    let mut client = Client::connect(addr).expect("connect");

    // Stream records in; epoch moves 0 -> 1.
    let ack = client.ingest(RECORDS).expect("ingest");
    assert_eq!(ack.changed, 9);
    assert_eq!(ack.epoch, 1);

    // Re-ingesting the same batch is deduplicated and does NOT bump the
    // epoch (periodic collectors re-report constantly).
    let dup = client.ingest(RECORDS).expect("re-ingest");
    assert_eq!(dup.changed, 0);
    assert_eq!(dup.ignored, 9);
    assert_eq!(dup.epoch, 1);

    // First audit: computed fresh.
    let spec = audit_spec();
    let first = client.audit_sia(&spec, None).expect("first audit");
    assert!(!first.cached);
    assert_eq!(first.epoch, 1);
    assert_eq!(first.report.best().unwrap().name, "S1+S3");
    let executed = |c: &mut Client| {
        let metrics = c.metrics(Some(0)).expect("metrics");
        metrics.histo(names::AUDIT_SIA_US).map(|h| h.count)
    };
    let after_miss = executed(&mut client);
    assert_eq!(after_miss, Some(1), "the miss executed one audit");

    // Repeats at the same epoch are cache hits: faster on the server's own
    // clock and, whatever any clock says, no work. They leave the
    // executed-audit counter where the miss put it, and a hit's trace is
    // its request and a cached audit span: no queue wait, no engine stage.
    let second = client.audit_sia(&spec, None).expect("second audit");
    assert!(second.cached, "repeat audit at unchanged epoch must hit");
    assert_eq!(second.epoch, 1);
    assert_eq!(
        second.report.best().unwrap().name,
        first.report.best().unwrap().name
    );
    assert!(
        second.elapsed_us < first.elapsed_us,
        "hit ({}us) must be faster than compute ({}us)",
        second.elapsed_us,
        first.elapsed_us
    );
    for _ in 0..3 {
        assert!(client.audit_sia(&spec, None).expect("repeat hit").cached);
    }
    let root = TraceContext::root();
    let request = Request::AuditSia {
        spec: spec.clone(),
        timeout_ms: None,
    };
    let traced = client
        .request_traced(&request, Some(root))
        .expect("traced hit");
    assert!(matches!(traced, Response::Sia { cached: true, .. }));
    assert_eq!(executed(&mut client), after_miss, "a hit executes no audit");
    let (_node, spans) = client
        .fetch_trace(&format_trace_id(root.trace_id))
        .expect("hit trace");
    let mut span_names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    span_names.sort_unstable();
    assert_eq!(span_names, [names::SPAN_AUDIT, "request:AuditSia"]);

    // An *update* — S3 moves behind S1's ToR — bumps the epoch and
    // invalidates the cached result: the same spec recomputes and the
    // ranking flips (S1+S3 now shares tor1 too, and more).
    let ack = client
        .ingest(r#"<src="S3" dst="Internet" route="tor1,core1"/>"#)
        .expect("update ingest");
    assert_eq!(ack.epoch, 2);
    let third = client.audit_sia(&spec, None).expect("post-update audit");
    assert!(!third.cached, "epoch bump must invalidate the cache");
    assert_eq!(third.epoch, 2);

    // Cache works at the new epoch too.
    let fourth = client.audit_sia(&spec, None).expect("post-update repeat");
    assert!(fourth.cached);

    client.shutdown().expect("shutdown");
    daemon.join().unwrap().expect("serve loop");
}

#[test]
fn concurrent_sia_and_pia_clients() {
    let (addr, daemon) = start_daemon();
    let mut seed = Client::connect(addr).expect("connect");
    seed.ingest(RECORDS).expect("ingest");

    let mut handles = Vec::new();
    // Four concurrent SIA clients with distinct specs (distinct cache
    // keys), interleaved with four PIA clients.
    for i in 0..4u64 {
        handles.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            let spec = AuditSpec {
                algorithm: RgAlgorithm::Sampling {
                    rounds: 2000 + i, // distinct spec → distinct content hash
                    fail_prob: 0.5,
                    seed: i,
                    threads: 1,
                },
                ..audit_spec()
            };
            let answer = c.audit_sia(&spec, Some(20_000)).expect("sia");
            assert_eq!(answer.report.best().unwrap().name, "S1+S3");
        }));
        handles.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            let providers = vec![
                ("A".to_string(), vec!["x".into(), format!("a{i}")]),
                ("B".to_string(), vec!["x".into(), format!("b{i}")]),
                ("C".to_string(), vec![format!("q{i}"), format!("r{i}")]),
            ];
            let answer = c.audit_pia(providers, 2, None, Some(20_000)).expect("pia");
            assert_eq!(answer.rankings.len(), 3);
            // A&B share "x": the disjoint pairs rank before them.
            assert_eq!(answer.rankings[2].providers, vec!["A", "B"]);
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }

    let mut admin = Client::connect(addr).expect("connect");
    admin.shutdown().expect("shutdown");
    daemon.join().unwrap().expect("serve loop");
}

#[test]
fn pia_cache_hits_on_repeat() {
    let (addr, daemon) = start_daemon();
    let mut client = Client::connect(addr).expect("connect");
    let providers = vec![
        ("A".to_string(), vec!["x".to_string(), "y".to_string()]),
        ("B".to_string(), vec!["x".to_string(), "z".to_string()]),
    ];
    let first = client
        .audit_pia(providers.clone(), 2, None, None)
        .expect("first pia");
    assert!(!first.cached);
    let second = client
        .audit_pia(providers, 2, None, None)
        .expect("second pia");
    assert!(second.cached);
    assert_eq!(second.rankings[0].jaccard, first.rankings[0].jaccard);
    client.shutdown().expect("shutdown");
    daemon.join().unwrap().expect("serve loop");
}

#[test]
fn malformed_and_failing_requests_keep_connection_alive() {
    let (addr, daemon) = start_daemon();

    // Raw socket: send garbage, then a valid ping on the same connection.
    let mut v1 = LineSession::connect(addr);
    let line = v1.raw("this is not json");
    assert!(
        line.contains("Error") && line.contains("malformed request"),
        "got: {line}"
    );
    assert_eq!(v1.raw("\"Ping\"").trim(), "\"Pong\"");

    // Unknown variants and structurally wrong payloads error politely.
    for garbage in ["\"Detonate\"", "{\"AuditSia\": {\"spec\": 42}}"] {
        let line = v1.raw(garbage);
        assert!(line.contains("Error"), "got: {line}");
    }

    // Typed client: an audit against an empty DepDB is a remote error
    // (unknown servers), not a hang or disconnect.
    let mut client = Client::connect(addr).expect("connect");
    let err = client.audit_sia(&audit_spec(), None).unwrap_err();
    assert!(err.to_string().contains("audit failed"), "got: {err}");
    client.ping().expect("connection still usable");

    client.shutdown().expect("shutdown");
    daemon.join().unwrap().expect("serve loop");
}

#[test]
fn deadline_zero_cancels_audit() {
    let (addr, daemon) = start_daemon();
    let mut client = Client::connect(addr).expect("connect");
    client.ingest(RECORDS).expect("ingest");
    // A zero-millisecond deadline expires while the job is queued; the
    // cancellable audit path reports it as an error, not a result.
    let err = client.audit_sia(&audit_spec(), Some(0)).unwrap_err();
    assert!(
        err.to_string().contains("cancel") || err.to_string().contains("deadline"),
        "got: {err}"
    );
    client.shutdown().expect("shutdown");
    daemon.join().unwrap().expect("serve loop");
}

#[test]
fn hostile_specs_are_rejected_or_survived() {
    let (addr, daemon) = start_daemon();
    let mut client = Client::connect(addr).expect("connect");
    client.ingest(RECORDS).expect("ingest");

    // A request-controlled thread count cannot defeat the pool: sampling
    // runs on its job's one worker and ignores `threads`, so the flood
    // is answered with the report of the same spec at `threads: 1`.
    let sampling = |threads| AuditSpec {
        algorithm: RgAlgorithm::Sampling {
            rounds: 1000,
            fail_prob: 0.5,
            seed: 1,
            threads,
        },
        ..audit_spec()
    };
    let flood = client
        .audit_sia(&sampling(100_000), None)
        .expect("the flood spec is answered");
    let single = client
        .audit_sia(&sampling(1), None)
        .expect("the one-thread spec is answered");
    assert!(!flood.cached && !single.cached, "both specs ran");
    assert_eq!(
        indaas::service::proto::encode_line(&flood.report),
        indaas::service::proto::encode_line(&single.report)
    );

    let bad_prob = AuditSpec {
        algorithm: RgAlgorithm::Sampling {
            rounds: 1000,
            fail_prob: 2.0,
            seed: 1,
            threads: 1,
        },
        ..audit_spec()
    };
    let err = client.audit_sia(&bad_prob, None).unwrap_err();
    assert!(err.to_string().contains("fail_prob"), "got: {err}");

    // Request-supplied probabilities outside [0, 1] are rejected up
    // front, never a crashed job. The model's rules arrive through
    // `Deserialize`, which skips the constructors' range asserts.
    let huge_prob = AuditSpec {
        metric: RankingMetric::Probability {
            default_prob: 1e300,
        },
        ..audit_spec()
    };
    let bad_rule: indaas::deps::FailureProbModel =
        serde_json::from_str(r#"{"rules": [["tor", 5.0]], "default": 0.1}"#).expect("model");
    let bad_default: indaas::deps::FailureProbModel =
        serde_json::from_str(r#"{"rules": [], "default": -0.5}"#).expect("model");
    for (spec, needle) in [
        (huge_prob, "default_prob"),
        (
            AuditSpec {
                prob_model: Some(bad_rule),
                ..audit_spec()
            },
            "\"tor\"",
        ),
        (
            AuditSpec {
                prob_model: Some(bad_default),
                ..audit_spec()
            },
            "prob_model default",
        ),
    ] {
        let err = client.audit_sia(&spec, None).unwrap_err().to_string();
        assert!(
            err.contains("invalid spec") && err.contains(needle),
            "got: {err}"
        );
        assert!(!err.contains("crashed"), "got: {err}");
    }

    // The pool is still alive: a normal audit completes afterwards.
    let ok = client.audit_sia(&audit_spec(), None).expect("pool alive");
    assert_eq!(ok.report.best().unwrap().name, "S1+S3");

    client.shutdown().expect("shutdown");
    daemon.join().unwrap().expect("serve loop");
}

/// A spec naming the removed `Bdd` engine is no `RgAlgorithm`: answered
/// as a malformed envelope (v2, on its id) or request (v1), and the
/// daemon keeps serving.
#[test]
fn the_removed_bdd_engine_is_a_malformed_request() {
    use indaas::service::proto::{
        decode_line, encode_line, read_frame, write_frame, FrameRead, ResponseEnvelope,
    };

    let (addr, daemon) = start_daemon();
    let mut spec = audit_spec();
    spec.algorithm = RgAlgorithm::Minimal { max_order: Some(4) };
    let request = encode_line(&Request::AuditSia {
        spec,
        timeout_ms: None,
    });
    let minimal = r#"{"Minimal":{"max_order":4}}"#;
    assert!(request.contains(minimal), "{request}");
    let bdd = request.replace(minimal, r#"{"Bdd":{"max_nodes":1024}}"#);

    // v2: the spec in an envelope is answered on its id, then dropped.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone socket");
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{}", encode_line(&Request::Hello { version: 2 })).expect("hello");
    let mut welcome = String::new();
    reader.read_line(&mut welcome).expect("welcome");
    assert!(welcome.contains("Welcome"), "got: {welcome}");
    let envelope = format!(r#"{{"id":1,"body":{bdd}}}"#);
    write_frame(&mut writer, envelope.as_bytes()).expect("envelope frame");
    let mut frame = Vec::new();
    assert!(matches!(
        read_frame(&mut reader, &mut frame, 1 << 24).expect("answer frame"),
        FrameRead::Frame
    ));
    let answer: ResponseEnvelope =
        decode_line(std::str::from_utf8(&frame).expect("UTF-8 frame")).expect("envelope");
    match answer.body {
        Response::Error { message } => assert!(
            message.contains("malformed envelope") && message.contains(r#"unknown variant "Bdd""#),
            "got: {message}"
        ),
        other => panic!("expected an error, got {other:?}"),
    }

    // v1: the same spec on a line.
    let mut v1 = LineSession::connect(addr);
    let answer = v1.raw(&bdd);
    assert!(
        answer.starts_with(r#"{"Error":"#)
            && answer.contains("malformed request")
            && answer.contains(r#"unknown variant \"Bdd\""#),
        "got: {answer}"
    );

    // A second connection is still served.
    let mut fresh = LineSession::connect(addr);
    assert!(matches!(fresh.request(&Request::Ping), Response::Pong));
    assert!(matches!(
        fresh.request(&Request::Shutdown),
        Response::ShuttingDown
    ));
    daemon.join().unwrap().expect("serve loop");
}

/// `AuditPia` parameters that would crash a job (`minhash: 0`), abort
/// the process (a MinHash family of 2^40 functions) or enumerate 10^11
/// provider combinations are rejected at admission, fast, and the
/// daemon keeps serving.
#[test]
fn hostile_pia_requests_are_rejected_at_admission() {
    let (addr, daemon) = start_daemon();
    let mut client = Client::connect(addr).expect("connect");
    let set = |tag: &str| vec![format!("lib-{tag}"), "libc6".to_string()];
    let two = vec![("A".to_string(), set("a")), ("B".to_string(), set("b"))];

    let err = client
        .audit_pia(two.clone(), 2, Some(0), None)
        .unwrap_err()
        .to_string();
    assert!(err.contains("minhash"), "got: {err}");
    assert!(!err.contains("crashed"), "got: {err}");

    let forty: Vec<(String, Vec<String>)> = (0..40)
        .map(|i| (format!("P{i}"), set(&i.to_string())))
        .collect();
    for (providers, way, minhash, needle) in [
        (two, 2, Some(1 << 40), "minhash"),
        (forty, 20, None, "combinations"),
    ] {
        let started = Instant::now();
        let err = client
            .audit_pia(providers, way, minhash, None)
            .unwrap_err()
            .to_string();
        assert!(err.contains(needle), "got: {err}");
        assert!(
            started.elapsed() < std::time::Duration::from_secs(1),
            "rejected after {:?}",
            started.elapsed()
        );
    }

    client.ping().expect("the daemon still answers");
    client.shutdown().expect("shutdown");
    daemon.join().unwrap().expect("serve loop");
}

/// The default spec is the untruncated exact engine, so a request can
/// name a deployment whose family outgrows the engine's cap: two servers
/// that must both fail, 1,001 components each, is 1,002,001 minimal RGs.
/// That is an audit error naming the gate and the cap — answered by the
/// job itself, not by the crash guard of a panicked one.
#[test]
fn oversized_minimal_family_is_an_audit_error() {
    use indaas::obs::{format_trace_id, TraceContext};

    let (addr, daemon) = start_daemon();
    let mut client = Client::connect(addr).expect("connect");
    let records: String = (0..2_002)
        .map(|i| format!("<hw=\"W{}\" type=\"Disk\" dep=\"disk{i}\"/>\n", i % 2))
        .collect();
    client.ingest(&records).expect("ingest");

    let spec =
        AuditSpec::sia_size_based(vec![CandidateDeployment::replicated("wide", ["W0", "W1"])]);
    assert!(matches!(
        spec.algorithm,
        RgAlgorithm::Minimal { max_order: None }
    ));
    let root = TraceContext::root();
    let request = Request::AuditSia {
        spec,
        timeout_ms: None,
    };
    let message = match client
        .request_traced(&request, Some(root))
        .expect("answered")
    {
        Response::Error { message } => message,
        other => panic!("expected an error, got {other:?}"),
    };
    assert!(message.starts_with("audit failed:"), "got: {message}");
    assert!(
        message.contains("\"wide fails\""),
        "names the gate: {message}"
    );
    assert!(
        message.contains("exceeded 1000000"),
        "names the cap: {message}"
    );

    let (_node, spans) = client
        .fetch_trace(&format_trace_id(root.trace_id))
        .expect("trace");
    let audit = spans
        .iter()
        .find(|s| s.name == names::SPAN_AUDIT)
        .expect("audit span");
    let outcome = attr(audit, names::ATTR_OUTCOME).expect("outcome attr");
    assert!(outcome.contains("exceeded 1000000"), "outcome {outcome:?}");

    client.ping().expect("pool and connection still usable");
    client.shutdown().expect("shutdown");
    daemon.join().unwrap().expect("serve loop");
}

#[test]
fn pia_cache_survives_ingest_epochs() {
    let (addr, daemon) = start_daemon();
    let mut client = Client::connect(addr).expect("connect");
    let providers = vec![
        ("A".to_string(), vec!["x".to_string(), "y".to_string()]),
        ("B".to_string(), vec!["x".to_string(), "z".to_string()]),
    ];
    let first = client
        .audit_pia(providers.clone(), 2, None, None)
        .expect("first pia");
    assert!(!first.cached);
    // PIA inputs travel in the request; an ingest (epoch bump) must NOT
    // invalidate the PIA cache.
    client.ingest(RECORDS).expect("ingest");
    let second = client.audit_pia(providers, 2, None, None).expect("second");
    assert!(second.cached, "PIA cache must survive DepDB epochs");
    client.shutdown().expect("shutdown");
    daemon.join().unwrap().expect("serve loop");
}

#[test]
fn oversized_request_line_is_rejected() {
    let (addr, daemon) = start_daemon();
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    // One newline-free line just past the cap: the daemon must answer
    // with an error and drop the connection instead of buffering it.
    let chunk = vec![b'x'; 1 << 20];
    for _ in 0..17 {
        if writer.write_all(&chunk).is_err() {
            break; // server already hung up — also acceptable
        }
    }
    let mut line = String::new();
    let n = reader.read_line(&mut line).unwrap_or(0);
    if n > 0 {
        assert!(
            line.contains("Error") && line.contains("exceeds"),
            "got: {line}"
        );
    }
    // Daemon must still be healthy for other clients.
    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("daemon alive after oversized line");
    client.shutdown().expect("shutdown");
    daemon.join().unwrap().expect("serve loop");
}

/// One line of brackets, far below the line cap: the parser stops at 128
/// levels of nesting, so 100,000 of them are a malformed request answered
/// like any other — on a raw v1 session and inside a v2 envelope frame —
/// never a stack overflow that takes the daemon down.
#[test]
fn hostile_nesting_is_answered_not_a_crash() {
    use indaas::service::proto::{
        decode_line, encode_line, read_frame, write_frame, FrameRead, ResponseEnvelope,
    };

    let (addr, daemon) = start_daemon();
    let deep = "[".repeat(100_000);
    // Under a key the decoder skips, every bracket is read until the cap.
    let skipped = format!(r#"{{"AuditSia":{{"junk":{deep}}}}}"#);

    // v1: the bare brackets, then the skipped form. The connection stays
    // open after each.
    let mut v1 = LineSession::connect(addr);
    let answer = v1.raw(&deep);
    assert!(
        answer.starts_with(r#"{"Error":"#) && answer.contains("malformed request"),
        "got: {answer}"
    );
    let answer = v1.raw(&skipped);
    assert!(
        answer.starts_with(r#"{"Error":"#)
            && answer.contains("malformed request: recursion limit exceeded"),
        "got: {answer}"
    );
    assert_eq!(v1.raw("\"Ping\"").trim(), "\"Pong\"");

    // v2: the skipped form as an envelope body. A broken envelope is
    // answered once and the session dropped.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone socket");
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{}", encode_line(&Request::Hello { version: 2 })).expect("hello");
    let mut welcome = String::new();
    reader.read_line(&mut welcome).expect("welcome");
    assert!(welcome.contains("Welcome"), "got: {welcome}");
    let envelope = format!(r#"{{"id":1,"body":{skipped}}}"#);
    write_frame(&mut writer, envelope.as_bytes()).expect("envelope frame");
    let mut frame = Vec::new();
    assert!(matches!(
        read_frame(&mut reader, &mut frame, 1 << 24).expect("answer frame"),
        FrameRead::Frame
    ));
    let answer: ResponseEnvelope =
        decode_line(std::str::from_utf8(&frame).expect("UTF-8 frame")).expect("envelope");
    match answer.body {
        Response::Error { message } => assert!(
            message.contains("malformed envelope") && message.contains("recursion limit exceeded"),
            "got: {message}"
        ),
        other => panic!("expected an error, got {other:?}"),
    }

    // The daemon is alive for a fresh connection.
    let mut fresh = LineSession::connect(addr);
    assert!(matches!(fresh.request(&Request::Ping), Response::Pong));
    assert!(matches!(
        fresh.request(&Request::Shutdown),
        Response::ShuttingDown
    ));
    daemon.join().unwrap().expect("serve loop");
}

#[test]
fn huge_timeout_is_clamped_not_wedging() {
    let (addr, daemon) = start_daemon();
    let mut client = Client::connect(addr).expect("connect");
    client.ingest(RECORDS).expect("ingest");
    // u64::MAX ms must not disarm the deadline; the audit is tiny and
    // completes, proving the clamped token still works.
    let answer = client
        .audit_sia(&audit_spec(), Some(u64::MAX))
        .expect("clamped audit completes");
    assert_eq!(answer.report.best().unwrap().name, "S1+S3");
    client.shutdown().expect("shutdown");
    daemon.join().unwrap().expect("serve loop");
}

#[test]
fn status_reports_counters() {
    let (addr, daemon) = start_daemon();
    let mut client = Client::connect(addr).expect("connect");
    client.ingest(RECORDS).expect("ingest");
    let spec = audit_spec();
    client.audit_sia(&spec, None).expect("miss");
    client.audit_sia(&spec, None).expect("hit");
    let status = client.status().expect("status");
    assert_eq!(status.epoch, 1);
    assert_eq!(status.records, 9);
    assert_eq!(status.hosts, 3);
    assert_eq!(status.cache_hits, 1);
    assert_eq!(status.cache_misses, 1);
    // Status is the store's shape plus the two cache totals, nothing
    // more: every other count has its one home in Metrics.
    let line = LineSession::connect(addr).raw(r#""Status""#);
    let Ok(serde_json::Value::Object(answer)) = serde_json::from_str(line.trim()) else {
        panic!("Status line is no JSON object: {line}");
    };
    let Some(serde_json::Value::Object(fields)) = answer.get("Status") else {
        panic!("expected a Status answer: {line}");
    };
    assert_eq!(
        fields.keys().map(String::as_str).collect::<Vec<_>>(),
        [
            "cache_hits",
            "cache_misses",
            "epoch",
            "hosts",
            "records",
            "shard_epochs",
            "shard_records",
        ]
    );
    let metrics = client.metrics(Some(0)).expect("metrics");
    assert_eq!(metrics.gauge(names::CACHE_ENTRIES), Some(1));
    // The hit ratio's two sides, per engine: 1 hit / 2 lookups.
    assert_eq!(metrics.gauge(names::CACHE_SIA_HITS), Some(1));
    assert_eq!(metrics.gauge(names::CACHE_SIA_MISSES), Some(1));
    assert_eq!(metrics.gauge(names::SUBSCRIPTIONS), Some(0));
    assert_eq!(
        metrics.histo(names::PUSH_LATENCY_US).map(|h| h.count),
        Some(0)
    );
    client.shutdown().expect("shutdown");
    daemon.join().unwrap().expect("serve loop");
}

/// The daemon re-measures by itself: a registered collector on the
/// `collect_interval` timer ingests its records and bumps the epoch with
/// no client involved; unchanged re-measurements never bump it again.
#[test]
fn scheduled_collector_bumps_epoch_by_itself() {
    use indaas::deps::{parse_records, SimCollector};

    let server = common::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        collect_interval: Some(std::time::Duration::from_millis(25)),
        ..ServeConfig::default()
    });
    let truth = parse_records(RECORDS).expect("records parse");
    server.add_collector(Box::new(SimCollector::perfect("nsdminer-sim", truth)));
    let addr = server.local_addr();
    let daemon = std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr).expect("connect");
    let deadline = Instant::now() + std::time::Duration::from_secs(10);
    let epoch = loop {
        let status = client.status().expect("status");
        if status.epoch > 0 {
            assert_eq!(status.records, 9, "collector must ingest the full truth");
            break status.epoch;
        }
        assert!(
            Instant::now() < deadline,
            "collector never ingested anything"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    assert_eq!(epoch, 1);

    // Give the timer several more periods: re-measuring an unchanged
    // world is a pure-duplicate batch and must not bump the epoch.
    std::thread::sleep(std::time::Duration::from_millis(150));
    assert_eq!(
        client.status().expect("status").epoch,
        1,
        "duplicate collections must not bump the epoch"
    );
    client.shutdown().expect("shutdown");
    daemon.join().unwrap().expect("serve loop");
}

/// The sharded-store invariant at the protocol surface: a cached audit
/// pinned to shard A's hosts survives an ingest that only touches shard
/// B (cache hit, shard A's epoch unchanged in `Status`), and is
/// invalidated by an ingest touching shard A.
#[test]
fn cached_audit_survives_other_shard_ingest() {
    use indaas::deps::shard_index;

    const SHARDS: usize = 8;
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    };
    let server = Server::bind(config, ShardedDepDb::new(SHARDS)).expect("bind daemon");
    let addr = server.local_addr();
    let daemon = std::thread::spawn(move || server.run());

    // Pick audited hosts a1/a2 and a bystander b in a shard neither
    // audited host routes to — the router is deterministic, so probing
    // generated names finds one immediately.
    let a1 = "H0".to_string();
    let a2 = (1..100)
        .map(|i| format!("H{i}"))
        .find(|h| shard_index(h, SHARDS) != shard_index(&a1, SHARDS))
        .expect("split host");
    let audited: Vec<usize> = vec![shard_index(&a1, SHARDS), shard_index(&a2, SHARDS)];
    let b = (1..10_000)
        .map(|i| format!("B{i}"))
        .find(|h| !audited.contains(&shard_index(h, SHARDS)))
        .expect("bystander host");

    let mut client = Client::connect(addr).expect("connect");
    client
        .ingest(&format!(
            r#"
            <src="{a1}" dst="Internet" route="tor1,core1"/>
            <src="{a2}" dst="Internet" route="tor2,core2"/>
            <hw="{a1}" type="Disk" dep="{a1}-disk"/>
            <hw="{a2}" type="Disk" dep="{a2}-disk"/>
        "#
        ))
        .expect("ingest audited hosts");

    let spec = AuditSpec::sia_size_based(vec![CandidateDeployment::replicated(
        "pair",
        [a1.clone(), a2.clone()],
    )]);
    let first = client.audit_sia(&spec, None).expect("first audit");
    assert!(!first.cached);

    let epochs_before = client.status().expect("status").shard_epochs;
    assert_eq!(epochs_before.len(), SHARDS);

    // Ingest touching only the bystander's shard: global epoch moves,
    // the audited shards' epochs do not, and the cached report stays hot.
    let ack = client
        .ingest(&format!(r#"<hw="{b}" type="CPU" dep="{b}-cpu"/>"#))
        .expect("bystander ingest");
    assert_eq!(ack.changed, 1);
    let status = client.status().expect("status");
    for &s in &audited {
        assert_eq!(
            status.shard_epochs[s], epochs_before[s],
            "audited shard {s} must not move on a bystander ingest"
        );
    }
    let sb = shard_index(&b, SHARDS);
    assert_eq!(status.shard_epochs[sb], epochs_before[sb] + 1);
    assert_eq!(status.shard_records[sb], 1);
    let second = client.audit_sia(&spec, None).expect("post-bystander audit");
    assert!(
        second.cached,
        "an ingest to an unrelated shard must not evict the cached audit"
    );
    assert_eq!(
        second.report.best().unwrap().name,
        first.report.best().unwrap().name
    );

    // An ingest touching an audited shard invalidates precisely.
    client
        .ingest(&format!(
            r#"<src="{a1}" dst="Internet" route="tor1,core9"/>"#
        ))
        .expect("audited-shard ingest");
    let third = client.audit_sia(&spec, None).expect("post-update audit");
    assert!(
        !third.cached,
        "an ingest to a read shard must invalidate the cached audit"
    );

    client.shutdown().expect("shutdown");
    daemon.join().unwrap().expect("serve loop");
}

/// Per-shard write observability at the protocol surface: a shard's
/// `Status` epoch counts the write batches it absorbed, and `Metrics`
/// shows that single-client traffic never produces lock contention.
#[test]
fn status_shard_epochs_count_writes_and_lock_waits_stay_zero() {
    let (addr, daemon) = start_daemon();
    let mut client = Client::connect(addr).expect("connect");
    client.ingest(RECORDS).expect("ingest");
    client
        .ingest(r#"<hw="S1" type="CPU" dep="S1-cpu"/>"#)
        .expect("second ingest");
    client.ingest(RECORDS).expect("duplicate ingest");
    let status = client.status().expect("status");
    // Two effective batches: the bulk load (S1+S2+S3's shards) and the
    // single-record top-up (S1's shard only). The duplicate batch moves
    // no epoch.
    let shards = status.shard_epochs.len();
    let route = |h| indaas::deps::shard_index(h, shards);
    let mut expected = vec![0; shards];
    for shard in ["S1", "S2", "S3"]
        .map(route)
        .into_iter()
        .collect::<std::collections::BTreeSet<_>>()
    {
        expected[shard] += 1;
    }
    expected[route("S1")] += 1;
    assert_eq!(status.shard_epochs, expected);
    assert_eq!(
        client
            .metrics(Some(0))
            .expect("metrics")
            .gauge(names::DB_LOCK_WAITS),
        Some(0),
        "one client can never contend with itself"
    );
    client.shutdown().expect("shutdown");
    daemon.join().unwrap().expect("serve loop");
}

/// Segmented persistence through a full daemon lifecycle: ingest into a
/// `db_dir` daemon, shut it down (dirty shards saved), boot a second
/// daemon on the same directory and see every record — then audit it.
#[test]
fn daemon_restart_reloads_segmented_db_dir() {
    let dir = std::env::temp_dir().join(format!("indaas-e2e-dbdir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let bind = || {
        let config = ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            db_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let store = ShardedDepDb::open(&dir, common::SHARDS).expect("open db dir");
        Server::bind(config, store).expect("bind daemon")
    };
    let server = bind();
    let addr = server.local_addr();
    let daemon = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).expect("connect");
    let ack = client.ingest(RECORDS).expect("ingest");
    assert_eq!(ack.changed, 9);
    client.shutdown().expect("shutdown");
    daemon.join().unwrap().expect("first serve loop");

    assert!(
        dir.join("MANIFEST.json").exists(),
        "shutdown must leave a manifest behind"
    );

    // Second daemon, same directory: the records are back without any
    // client re-ingesting them, and audits run against them.
    let server = bind();
    let addr = server.local_addr();
    let daemon = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).expect("reconnect");
    let status = client.status().expect("status");
    assert_eq!(
        status.records, 9,
        "restart must reload every persisted record"
    );
    assert_eq!(
        status.epoch, 1,
        "a reloaded non-empty store starts at epoch 1"
    );
    let audit = client.audit_sia(&audit_spec(), None).expect("audit");
    assert_eq!(audit.report.best().unwrap().name, "S1+S3");
    // Duplicate of what is already persisted: no epoch bump, and the
    // next save has nothing to write.
    let dup = client.ingest(RECORDS).expect("duplicate ingest");
    assert_eq!(dup.changed, 0);
    client.shutdown().expect("shutdown");
    daemon.join().unwrap().expect("second serve loop");

    std::fs::remove_dir_all(&dir).ok();
}

/// A collector tick persists what it ingested: kill the daemon without
/// a clean shutdown save by checking the segments appear after the tick
/// itself (the timer calls the dirty-segment saver).
#[test]
fn collector_tick_saves_dirty_segments() {
    use indaas::deps::{parse_records, SimCollector};

    let dir = std::env::temp_dir().join(format!("indaas-e2e-ticksave-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let server = common::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        collect_interval: Some(std::time::Duration::from_millis(25)),
        db_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let truth = parse_records(RECORDS).expect("records parse");
    server.add_collector(Box::new(SimCollector::perfect("nsdminer-sim", truth)));
    let addr = server.local_addr();
    let daemon = std::thread::spawn(move || server.run());

    // Wait for a tick to land *and* persist — no client ingest, no
    // shutdown involved.
    let deadline = Instant::now() + std::time::Duration::from_secs(10);
    loop {
        if dir.join("MANIFEST.json").exists() {
            if let Ok(loaded) = ShardedDepDb::open(&dir, 8) {
                if loaded.len() == 9 {
                    break;
                }
            }
        }
        assert!(
            Instant::now() < deadline,
            "collector tick never persisted its batch"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    daemon.join().unwrap().expect("serve loop");
    std::fs::remove_dir_all(&dir).ok();
}

/// The multiplexed v2 session: eight requests in flight at once on one
/// connection, each with a distinct spec, waited on in *reverse* send
/// order — every response must carry the answer to exactly its own
/// request, proving the id correlation (a lock-step or order-based
/// pairing would hand request 1 the answer to request 8).
#[test]
fn pipelined_session_matches_every_response_to_its_id() {
    use indaas::service::Request;

    let (addr, daemon) = start_daemon();
    let mut client = Client::connect(addr).expect("connect");
    client.ingest(RECORDS).expect("ingest");

    let mut pending = Vec::new();
    for i in 0..8u64 {
        let spec = AuditSpec {
            algorithm: RgAlgorithm::Sampling {
                rounds: 1500 + i, // distinct spec → distinct cache key
                fail_prob: 0.5,
                seed: i,
                threads: 1,
            },
            ..AuditSpec::sia_size_based(vec![
                CandidateDeployment::replicated(format!("want-{i}"), ["S1", "S3"]),
                CandidateDeployment::replicated(format!("other-{i}"), ["S1", "S2"]),
            ])
        };
        let id = client
            .begin(&Request::AuditSia {
                spec,
                timeout_ms: Some(20_000),
            })
            .expect("begin");
        pending.push((i, id));
    }
    let ids: std::collections::BTreeSet<u64> = pending.iter().map(|&(_, id)| id).collect();
    assert_eq!(ids.len(), 8, "every in-flight request has a distinct id");

    for (i, id) in pending.into_iter().rev() {
        match client.wait(id).expect("response") {
            indaas::service::Response::Sia { report, .. } => {
                assert_eq!(
                    report.best().expect("ranked").name,
                    format!("want-{i}"),
                    "response for request {i} must answer request {i}"
                );
            }
            other => panic!("expected Sia for request {i}, got {other:?}"),
        }
    }

    client.shutdown().expect("shutdown");
    daemon.join().unwrap().expect("serve loop");
}

/// The tentpole e2e: a subscriber gets the initial pushed event, then a
/// fresh one after an ingest touching its spec's shards, and *nothing*
/// for ingests that only touch other shards. Unsubscribing stops the
/// events; `Status` exposes the gauges throughout.
#[test]
fn subscription_pushes_on_relevant_ingests_only() {
    use indaas::deps::shard_index;

    const SHARDS: usize = 8;
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    };
    let server = Server::bind(config, ShardedDepDb::new(SHARDS)).expect("bind daemon");
    let addr = server.local_addr();
    let daemon = std::thread::spawn(move || server.run());

    // Audited hosts a1/a2 plus a bystander b whose shard neither
    // audited host routes to (the router is deterministic).
    let a1 = "H0".to_string();
    let a2 = (1..100)
        .map(|i| format!("H{i}"))
        .find(|h| shard_index(h, SHARDS) != shard_index(&a1, SHARDS))
        .expect("split host");
    let audited: Vec<usize> = vec![shard_index(&a1, SHARDS), shard_index(&a2, SHARDS)];
    let b = (1..10_000)
        .map(|i| format!("B{i}"))
        .find(|h| !audited.contains(&shard_index(h, SHARDS)))
        .expect("bystander host");

    let mut client = Client::connect(addr).expect("connect");
    client
        .ingest(&format!(
            r#"
            <src="{a1}" dst="Internet" route="tor1,core1"/>
            <src="{a2}" dst="Internet" route="tor2,core2"/>
        "#
        ))
        .expect("seed ingest");

    let spec = AuditSpec::sia_size_based(vec![CandidateDeployment::replicated(
        "pair",
        [a1.clone(), a2.clone()],
    )]);
    let subscription = client.subscribe(&spec).expect("subscribe");

    // The initial event arrives without any further ingest.
    let initial = client
        .next_event(subscription, Some(std::time::Duration::from_secs(10)))
        .expect("subscription alive")
        .expect("initial event");
    assert_eq!(initial.subscription, subscription);
    assert_eq!(initial.report.deployments[0].name, "pair");

    let metrics = client.metrics(Some(0)).expect("metrics");
    assert_eq!(metrics.gauge(names::SUBSCRIPTIONS), Some(1));
    assert!(
        metrics
            .histo(names::PUSH_LATENCY_US)
            .expect("push latency")
            .count
            >= 1
    );

    // A bystander-shard ingest must push nothing.
    client
        .ingest(&format!(r#"<hw="{b}" type="CPU" dep="{b}-cpu"/>"#))
        .expect("bystander ingest");
    assert!(
        client
            .next_event(subscription, Some(std::time::Duration::from_millis(400)))
            .expect("subscription alive")
            .is_none(),
        "other-shard ingests must not wake the subscriber"
    );

    // An ingest touching an audited shard pushes a fresh result, and
    // re-audits only the host it touched: one server family computed,
    // the other served from the family memo.
    let families = |client: &mut Client| {
        let metrics = client.metrics(Some(0)).expect("metrics");
        let gauge = |name| metrics.gauge(name).expect("family gauge");
        (
            gauge(names::SIA_FAMILY_HITS),
            gauge(names::SIA_FAMILY_MISSES),
        )
    };
    let (hits, misses) = families(&mut client);
    client
        .ingest(&format!(
            r#"<src="{a1}" dst="Internet" route="tor1,core9"/>"#
        ))
        .expect("audited-shard ingest");
    let fresh = client
        .next_event(subscription, Some(std::time::Duration::from_secs(10)))
        .expect("subscription alive")
        .expect("pushed event after relevant ingest");
    assert_eq!(fresh.subscription, subscription);
    assert!(
        fresh.epoch > initial.epoch,
        "the pushed audit ran against the post-ingest epoch"
    );
    assert_eq!(
        families(&mut client),
        (hits + 1, misses + 1),
        "a one-host ingest costs one miss and n - 1 hits"
    );
    // The composed report is the full graph's, byte for byte.
    let records = indaas::deps::parse_records(&format!(
        r#"
        <src="{a1}" dst="Internet" route="tor1,core1"/>
        <src="{a2}" dst="Internet" route="tor2,core2"/>
        <src="{a1}" dst="Internet" route="tor1,core9"/>
    "#
    ))
    .expect("records");
    let db = indaas::deps::DepDb::from_records(records);
    let graph = build_fault_graph(&db, &BuildSpec::all("pair", vec![a1.clone(), a2.clone()]))
        .expect("full graph");
    let family = minimal_risk_groups(&graph, &MinimalConfig::default());
    let full = AuditReport::new(vec![DeploymentAudit::size_based(
        "pair", &family, &graph, 2, None,
    )]);
    assert_eq!(
        serde_json::to_string(&fresh.report).unwrap(),
        serde_json::to_string(&full).unwrap()
    );

    // After unsubscribing, even relevant ingests push nothing: the
    // daemon's gauge drops to zero and its pushed-event count stops
    // moving (the session stops holding the subscription too).
    client.unsubscribe(subscription).expect("unsubscribe");
    let metrics = |client: &mut Client| client.metrics(Some(0)).expect("metrics");
    let pushed = |client: &mut Client| {
        metrics(client)
            .histo(names::PUSH_LATENCY_US)
            .expect("push latency")
            .count
    };
    assert_eq!(metrics(&mut client).gauge(names::SUBSCRIPTIONS), Some(0));
    let pushed_before = pushed(&mut client);
    client
        .ingest(&format!(
            r#"<src="{a2}" dst="Internet" route="tor2,core9"/>"#
        ))
        .expect("post-unsubscribe ingest");
    std::thread::sleep(std::time::Duration::from_millis(400));
    assert_eq!(
        pushed(&mut client),
        pushed_before,
        "no events are produced after unsubscribe"
    );
    assert!(
        client
            .next_event(subscription, Some(std::time::Duration::from_millis(50)))
            .is_err(),
        "unsubscribe ends the subscription on the session too"
    );

    client.shutdown().expect("shutdown");
    daemon.join().unwrap().expect("serve loop");
}

/// One connection can hold several subscriptions; each event names the
/// subscription it belongs to and only the affected one fires.
#[test]
fn subscriptions_are_independent_per_spec() {
    use indaas::deps::shard_index;

    const SHARDS: usize = 8;
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    };
    let server = Server::bind(config, ShardedDepDb::new(SHARDS)).expect("bind daemon");
    let addr = server.local_addr();
    let daemon = std::thread::spawn(move || server.run());

    let a = "H0".to_string();
    let b = (1..10_000)
        .map(|i| format!("B{i}"))
        .find(|h| shard_index(h, SHARDS) != shard_index(&a, SHARDS))
        .expect("split host");

    let mut client = Client::connect(addr).expect("connect");
    client
        .ingest(&format!(
            r#"
            <hw="{a}" type="Disk" dep="{a}-disk"/>
            <hw="{b}" type="Disk" dep="{b}-disk"/>
        "#
        ))
        .expect("seed ingest");

    let spec_a = AuditSpec::sia_size_based(vec![CandidateDeployment::replicated(
        "watch-a",
        [a.clone(), a.clone()],
    )]);
    let spec_b = AuditSpec::sia_size_based(vec![CandidateDeployment::replicated(
        "watch-b",
        [b.clone(), b.clone()],
    )]);
    let sub_a = client.subscribe(&spec_a).expect("subscribe a");
    let sub_b = client.subscribe(&spec_b).expect("subscribe b");
    assert_ne!(sub_a, sub_b);
    for sub in [sub_a, sub_b] {
        client
            .next_event(sub, Some(std::time::Duration::from_secs(10)))
            .expect("alive")
            .expect("initial event");
    }

    // Touch only a's shard: a fires, b stays silent.
    client
        .ingest(&format!(r#"<hw="{a}" type="CPU" dep="{a}-cpu"/>"#))
        .expect("ingest a");
    let event = client
        .next_event(sub_a, Some(std::time::Duration::from_secs(10)))
        .expect("alive")
        .expect("a's event");
    assert_eq!(event.subscription, sub_a);
    assert!(
        client
            .next_event(sub_b, Some(std::time::Duration::from_millis(400)))
            .expect("alive")
            .is_none(),
        "b's shard never moved"
    );

    client.shutdown().expect("shutdown");
    daemon.join().unwrap().expect("serve loop");
}

/// A subscriber that stops reading is shed, not buffered: once the
/// kernel buffers and the daemon's write queue are full, the loop holds
/// further events on the connection, at most 64, dropping the oldest
/// held event for each new one.
#[test]
fn subscription_that_stops_reading_is_shed_not_buffered() {
    // W1 and W2 each hang off 24 disks, so the pair's minimal risk
    // groups are the 576 disk pairs and every event carries a report of
    // tens of KB.
    let disks = |host: &str| -> String {
        (0..24)
            .map(|i| format!("<hw=\"{host}\" type=\"Disk\" dep=\"{host}-disk-{i:02}\"/>\n"))
            .collect()
    };
    let (addr, daemon) = start_daemon();
    let mut admin = Client::connect(addr).expect("connect admin");
    admin
        .ingest(&(disks("W1") + &disks("W2")))
        .expect("seed ingest");

    // Subscribes, then never reads again.
    let mut stalled = Client::connect(addr).expect("connect subscriber");
    stalled
        .subscribe(&AuditSpec::sia_size_based(vec![
            CandidateDeployment::replicated("pair", ["W1", "W2"]),
        ]))
        .expect("subscribe");

    // Each mutation toggles one record under W1 and owes the subscriber
    // one event; wait for each push so the audit queue never overflows.
    let toggle = r#"<hw="W1" type="Nic" dep="W1-nic"/>"#;
    let deadline = Instant::now() + std::time::Duration::from_secs(60);
    let pushed = |m: &MetricsAnswer| m.histo(names::PUSH_LATENCY_US).expect("push latency").count;
    let mut metrics = admin.metrics(Some(0)).expect("metrics");
    let mut mutations = 0;
    while metrics.counter(names::OUTBOX_SHED_TOTAL) == Some(0) {
        assert!(
            mutations < 2_000 && Instant::now() < deadline,
            "no event shed after {mutations} mutations ({} pushed)",
            pushed(&metrics)
        );
        let owed = pushed(&metrics) + 1;
        if mutations % 2 == 0 {
            admin.ingest(toggle).expect("ingest");
        } else {
            admin.retract(toggle).expect("retract");
        }
        mutations += 1;
        while pushed(&metrics) < owed {
            assert!(Instant::now() < deadline, "push {owed} never produced");
            metrics = admin.metrics(Some(0)).expect("metrics");
        }
    }
    assert!(
        mutations > 64,
        "shedding began after {mutations} mutations, before 64 outbox slots filled"
    );

    drop(stalled);
    admin.shutdown().expect("shutdown");
    daemon.join().unwrap().expect("serve loop");
}

/// A pushed frame split across a read timeout arrives whole: the fake
/// daemon holds the second half back until the client's first call has
/// timed out, the client keeps the half it read, and the next call
/// returns the intact event.
#[test]
fn subscription_event_split_across_a_timeout_arrives_whole() {
    use indaas::service::codec::frame_bytes;
    use indaas::service::proto::{
        decode_line, encode_line, read_frame, Envelope, ResponseEnvelope,
    };
    use std::time::Duration;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("address");
    let (timed_out, second_half) = std::sync::mpsc::channel();
    let daemon = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
        let mut hello = String::new();
        reader.read_line(&mut hello).expect("hello");
        let welcome = encode_line(&Response::Welcome { version: 2 });
        writeln!(stream, "{welcome}").expect("welcome");
        let mut frame = Vec::new();
        read_frame(&mut reader, &mut frame, 1 << 20).expect("subscribe frame");
        let subscribe: Envelope = decode_line(std::str::from_utf8(&frame).unwrap()).unwrap();
        let answer = |id, body| frame_bytes(encode_line(&ResponseEnvelope { id, body }).as_bytes());
        let subscribed = Response::Subscribed { subscription: 7 };
        stream
            .write_all(&answer(subscribe.id, subscribed))
            .expect("subscribed");
        let event = answer(
            0,
            Response::AuditEvent {
                subscription: 7,
                epoch: 3,
                cached: false,
                elapsed_us: 11,
                report: indaas::sia::AuditReport::new(Vec::new()),
                trace_id: "ab".into(),
            },
        );
        let (head, tail) = event.split_at(event.len() / 2);
        stream.write_all(head).expect("first half");
        second_half.recv().expect("the client timed out");
        stream.write_all(tail).expect("second half");
        // Hold the connection open until the client hangs up.
        let _ = std::io::Read::read_to_end(&mut reader, &mut frame);
    });

    let mut client = Client::connect(addr).expect("connect");
    let subscription = client.subscribe(&audit_spec()).expect("subscribe");
    assert_eq!(subscription, 7);
    let timeout = Some(Duration::from_millis(100));
    assert!(client
        .next_event(subscription, timeout)
        .expect("alive")
        .is_none());
    timed_out.send(()).expect("fake daemon alive");
    let event = client
        .next_event(subscription, Some(Duration::from_secs(10)))
        .expect("alive")
        .expect("the whole event");
    assert_eq!((event.subscription, event.epoch), (7, 3));
    assert_eq!((event.elapsed_us, event.trace_id.as_str()), (11, "ab"));
    assert!(client.end().is_none(), "the session is still alive");
    drop(client);
    daemon.join().expect("fake daemon");
}

/// Encode once, at the bytes: the same `AuditSia` sent twice over a raw
/// v1 line answers fresh, then cached, with lines identical but for
/// `cached` and `elapsed_us` — and a subscriber's pushed `AuditEvent`
/// for that spec carries the very same report text. That text, written
/// by the daemon straight from the ranked rows, is the typed report's
/// `encode_line` byte for byte.
#[test]
fn cached_and_pushed_answers_splice_identical_report_bytes() {
    use indaas::core::AuditingAgent;
    use indaas::deps::{parse_records, DepDb};
    use indaas::service::proto::{encode_line, read_frame, write_frame, Envelope, FrameRead};

    /// The answer with the two per-answer fields reduced to their keys.
    fn normalized(answer: &str) -> String {
        let (head, report) = answer.split_once(r#","report":"#).expect("report field");
        let head: Vec<&str> = head
            .split(',')
            .map(|field| match field.rsplit_once(':') {
                Some((key, _)) if key.ends_with(r#""cached""#) || key == r#""elapsed_us""# => key,
                _ => field,
            })
            .collect();
        format!("{},report:{report}", head.join(","))
    }

    let (addr, daemon) = start_daemon();
    let mut v1 = LineSession::connect(addr);
    let ingest = Request::Ingest {
        records: RECORDS.to_string(),
    };
    assert!(matches!(v1.request(&ingest), Response::Ingested { .. }));
    let audit = encode_line(&Request::AuditSia {
        spec: audit_spec(),
        timeout_ms: None,
    });
    let fresh = v1.raw(&audit);
    let cached = v1.raw(&audit);
    assert!(
        fresh.starts_with(r#"{"Sia":{"cached":false,"#),
        "got: {fresh}"
    );
    assert!(
        cached.starts_with(r#"{"Sia":{"cached":true,"#),
        "got: {cached}"
    );
    assert_eq!(normalized(&fresh), normalized(&cached));
    let report = fresh
        .trim_end()
        .split_once(r#","report":"#)
        .and_then(|(_, rest)| rest.strip_suffix("}}"))
        .expect("report text");
    assert!(report.contains("S1+S3"));
    let db = DepDb::from_records(parse_records(RECORDS).expect("records parse"));
    let typed = AuditingAgent::new(db)
        .audit_sia(&audit_spec())
        .expect("in-process audit");
    assert_eq!(
        report,
        encode_line(&typed),
        "the written report is the typed report's encoding"
    );

    // A raw v2 subscriber to the same spec: its initial push is served
    // from the same cache entry.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone socket");
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{}", encode_line(&Request::Hello { version: 2 })).expect("hello");
    let mut welcome = String::new();
    reader.read_line(&mut welcome).expect("welcome");
    assert!(welcome.contains("Welcome"), "got: {welcome}");
    let subscribe = encode_line(&Envelope {
        id: 1,
        body: Request::Subscribe {
            spec: audit_spec(),
            engine: "sia".into(),
        },
        trace: None,
    });
    write_frame(&mut writer, subscribe.as_bytes()).expect("subscribe");
    let mut frame = Vec::new();
    let event = loop {
        assert!(matches!(
            read_frame(&mut reader, &mut frame, 1 << 24).expect("frame"),
            FrameRead::Frame
        ));
        let text = String::from_utf8(frame.clone()).expect("UTF-8 frame");
        if text.contains(r#"{"AuditEvent":"#) {
            break text;
        }
    };
    assert!(event.contains(r#""cached":true,"#), "got: {event}");
    let pushed = event
        .split_once(r#","report":"#)
        .and_then(|(_, rest)| rest.rsplit_once(r#","subscription":"#))
        .map(|(report, _)| report)
        .expect("pushed report text");
    assert_eq!(pushed, report, "the push splices the cached report bytes");

    assert!(matches!(
        v1.request(&Request::Shutdown),
        Response::ShuttingDown
    ));
    daemon.join().unwrap().expect("serve loop");
}

/// Protocol compatibility: a v1 session — plain NDJSON lines over a raw
/// socket, no hello — runs a full session against the v2 daemon. This
/// is the line mode `nc` and hand-written tooling ride.
#[test]
fn protocol_compat_v1_client_against_v2_daemon() {
    let (addr, daemon) = start_daemon();
    let mut v1 = LineSession::connect(addr);
    assert!(matches!(v1.request(&Request::Ping), Response::Pong));
    let ingest = Request::Ingest {
        records: RECORDS.to_string(),
    };
    assert!(
        matches!(v1.request(&ingest), Response::Ingested { changed: 9, .. }),
        "ingest acknowledged"
    );

    let audit = Request::AuditSia {
        spec: audit_spec(),
        timeout_ms: None,
    };
    let Response::Sia { cached, report, .. } = v1.request(&audit) else {
        panic!("expected a Sia answer");
    };
    assert!(!cached);
    assert_eq!(report.best().unwrap().name, "S1+S3");
    assert!(
        matches!(v1.request(&audit), Response::Sia { cached: true, .. }),
        "cache works for v1 sessions too"
    );

    match v1.request(&Request::Status) {
        Response::Status { records, epoch, .. } => {
            assert_eq!(records, 9);
            assert_eq!(epoch, 1);
        }
        other => panic!("expected Status, got {other:?}"),
    }

    // v2-only features degrade with a clear error, not a hang or drop.
    match v1.request(&Request::Subscribe {
        spec: audit_spec(),
        engine: "sia".into(),
    }) {
        Response::Error { message } => assert!(message.contains("v2"), "got: {message}"),
        other => panic!("expected an error, got {other:?}"),
    }
    // An explicit v1 hello is also honoured: the session stays line-mode.
    let mut explicit = LineSession::connect(addr);
    match explicit.request(&Request::Hello { version: 1 }) {
        Response::Welcome { version } => assert_eq!(version, 1),
        other => panic!("expected Welcome, got {other:?}"),
    }
    assert!(
        matches!(explicit.request(&Request::Ping), Response::Pong),
        "line mode continues after v1 hello"
    );

    assert!(matches!(
        v1.request(&Request::Shutdown),
        Response::ShuttingDown
    ));
    daemon.join().unwrap().expect("serve loop");
}

/// A line session is lock-step: a pooled audit between two inline pings,
/// all three lines in one write, is answered in request order on every
/// fresh session — each line's answer reaches the wire before the next
/// line is parsed, so a lock-step client never takes a `Pong` for its
/// audit's answer.
#[test]
fn lock_step_line_session_answers_in_request_order() {
    use indaas::service::proto::{decode_line, encode_line};

    let daemon = common::boot_daemon(&common::PROVIDER_RECORDS.concat(), &[]);
    for i in 0..20 {
        // A fresh candidate name per session keeps every audit a cache
        // miss, answered from the pool.
        let spec = AuditSpec::sia_size_based(vec![CandidateDeployment::replicated(
            format!("pair-{i}"),
            ["A1", "B1", "C1"],
        )]);
        let audit = encode_line(&Request::AuditSia {
            spec,
            timeout_ms: None,
        });
        let mut stream = TcpStream::connect(&daemon.addr).expect("connect");
        stream
            .write_all(format!("\"Ping\"\n{audit}\n\"Ping\"\n").as_bytes())
            .expect("write three lines at once");
        let mut reader = BufReader::new(stream);
        let answers: Vec<&str> = (0..3)
            .map(|_| {
                let mut line = String::new();
                reader.read_line(&mut line).expect("answer line");
                match decode_line::<Response>(line.trim()).expect("decode answer") {
                    Response::Pong => "Pong",
                    Response::Sia { .. } => "Sia",
                    other => panic!("session {i}: unexpected answer {other:?}"),
                }
            })
            .collect();
        assert_eq!(answers, ["Pong", "Sia", "Pong"], "session {i}");
    }
    common::shutdown(vec![daemon]);
}

/// `serve --max-conns`: excess connections get one clear error and are
/// dropped; closing a connection frees its slot.
#[test]
fn connection_limit_rejects_excess_cleanly() {
    let server = common::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        max_conns: 2,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();
    let daemon = std::thread::spawn(move || server.run());

    let mut first = Client::connect(addr).expect("first connection");
    first.ping().expect("first works");
    let mut second = Client::connect(addr).expect("second connection");
    second.ping().expect("second works");

    // The third is over the limit: the hello is answered with the
    // limit error and the connection dropped.
    let err = match Client::connect(addr) {
        Err(e) => e,
        Ok(_) => panic!("third connection must be rejected"),
    };
    assert!(err.to_string().contains("connection limit"), "got: {err}");

    // Releasing a slot lets a new connection in (the server notices the
    // disconnect asynchronously, so poll briefly).
    drop(first);
    let deadline = Instant::now() + std::time::Duration::from_secs(10);
    let mut readmitted = loop {
        match Client::connect(addr) {
            Ok(client) => break client,
            Err(_) => {
                assert!(Instant::now() < deadline, "slot never freed");
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        }
    };
    readmitted.ping().expect("readmitted connection works");

    drop(second);
    readmitted.shutdown().expect("shutdown");
    daemon.join().unwrap().expect("serve loop");
}

#[test]
fn raw_protocol_shutdown_round_trip() {
    let (addr, daemon) = start_daemon();
    let response = LineSession::connect(addr).request(&Request::Shutdown);
    assert!(matches!(response, Response::ShuttingDown));
    daemon.join().unwrap().expect("serve loop");
}

/// Requests that arrive where they do not belong — a second greeting,
/// a subscription on a line session, a peer hello inside an envelope,
/// an unknown unsubscribe, the reserved envelope id — each get one
/// pinned answer, and every session but the reserved id's keeps
/// serving: a `Ping` afterwards still gets its `Pong`.
#[test]
fn out_of_place_requests_are_answered_on_either_protocol() {
    use indaas::service::proto::{
        decode_line, encode_line, read_frame, write_frame, Envelope, FrameRead, ResponseEnvelope,
    };

    /// A raw protocol-v2 session: the hello line, then envelope frames.
    struct FrameSession {
        writer: TcpStream,
        reader: BufReader<TcpStream>,
        frame: Vec<u8>,
    }

    impl FrameSession {
        fn connect(addr: std::net::SocketAddr) -> Self {
            let stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(10)))
                .expect("read timeout");
            let mut writer = stream.try_clone().expect("clone socket");
            let mut reader = BufReader::new(stream);
            writeln!(writer, "{}", encode_line(&Request::Hello { version: 2 })).expect("hello");
            let mut welcome = String::new();
            reader.read_line(&mut welcome).expect("welcome");
            assert!(welcome.contains("Welcome"), "got: {welcome}");
            FrameSession {
                writer,
                reader,
                frame: Vec::new(),
            }
        }

        /// Sends `body` as envelope `id` and returns the next answer frame,
        /// or `None` once the daemon has closed the session.
        fn request(&mut self, id: u64, body: Request) -> Option<ResponseEnvelope> {
            let envelope = encode_line(&Envelope {
                id,
                body,
                trace: None,
            });
            write_frame(&mut self.writer, envelope.as_bytes()).ok()?;
            match read_frame(&mut self.reader, &mut self.frame, 1 << 24) {
                Ok(FrameRead::Frame) => {
                    let text = std::str::from_utf8(&self.frame).expect("UTF-8 frame");
                    Some(decode_line(text).expect("answer envelope"))
                }
                _ => None,
            }
        }
    }

    enum Via {
        Line(Request),
        Envelope(u64, Request),
    }
    const V2_ONLY: &str =
        "subscriptions require a protocol v2 session (open the connection with Hello)";
    let subscribe = || Request::Subscribe {
        spec: audit_spec(),
        engine: "sia".into(),
    };
    let cases = [
        (
            "v1 second Hello",
            Via::Line(Request::Hello { version: 1 }),
            "Hello must be the first line of a connection",
            true,
        ),
        ("v1 Subscribe", Via::Line(subscribe()), V2_ONLY, true),
        (
            "v1 Unsubscribe",
            Via::Line(Request::Unsubscribe { subscription: 1 }),
            V2_ONLY,
            true,
        ),
        (
            "v2 Hello",
            Via::Envelope(5, Request::Hello { version: 2 }),
            "session version is already negotiated",
            true,
        ),
        (
            "v2 FederateHello",
            Via::Envelope(
                6,
                Request::FederateHello {
                    version: 2,
                    node: "probe".into(),
                },
            ),
            "FederateHello must be the first line of a connection",
            true,
        ),
        (
            "v2 Unsubscribe of an unknown id",
            Via::Envelope(7, Request::Unsubscribe { subscription: 999 }),
            "no such subscription: 999",
            true,
        ),
        (
            "v2 envelope id 0",
            Via::Envelope(0, Request::Ping),
            "envelope id 0 is reserved for server pushes",
            false,
        ),
    ];

    let (addr, daemon) = start_daemon();
    let message = |response: Option<Response>| match response {
        Some(Response::Error { message }) => message,
        other => format!("{other:?}"),
    };
    let mut failures = Vec::new();
    for (name, via, want, survives) in cases {
        let (answer, alive) = match via {
            Via::Line(request) => {
                let mut v1 = LineSession::connect(addr);
                // The first line greets the session; the case comes after.
                assert!(matches!(v1.request(&Request::Ping), Response::Pong));
                let line = v1.raw(&encode_line(&request));
                let answer = message(decode_line(line.trim()).ok());
                (answer, v1.raw("\"Ping\"").trim() == "\"Pong\"")
            }
            Via::Envelope(id, request) => {
                let mut v2 = FrameSession::connect(addr);
                // Answered on the envelope's own id (the reserved one too).
                let answer = v2
                    .request(id, request)
                    .filter(|envelope| envelope.id == id)
                    .map(|envelope| envelope.body);
                let pong = v2.request(id + 100, Request::Ping);
                (
                    message(answer),
                    pong.is_some_and(|envelope| matches!(envelope.body, Response::Pong)),
                )
            }
        };
        if answer != want || alive != survives {
            failures.push(format!(
                "{name}: answered {answer:?}, session alive {alive} \
                 (want {want:?}, alive {survives})"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));

    assert!(matches!(
        LineSession::connect(addr).request(&Request::Shutdown),
        Response::ShuttingDown
    ));
    daemon.join().unwrap().expect("serve loop");
}

/// Every dispatched request, on either protocol and wherever it lands
/// in the dispatch, records exactly one `request:<Kind>` span under its
/// own context and one `dispatch_us` sample.
#[test]
fn every_dispatched_request_records_one_span_and_one_dispatch_sample() {
    use indaas::obs::{format_trace_id, TraceContext};

    let (addr, daemon) = start_daemon();
    let mut client = Client::connect(addr).expect("connect");
    client.ingest(RECORDS).expect("ingest");

    let subscribed = TraceContext::root();
    let Response::Subscribed { subscription } = client
        .request_traced(
            &Request::Subscribe {
                spec: audit_spec(),
                engine: "sia".into(),
            },
            Some(subscribed),
        )
        .expect("subscribe")
    else {
        panic!("expected Subscribed");
    };
    let unsubscribed = TraceContext::root();
    let answer = client
        .request_traced(&Request::Unsubscribe { subscription }, Some(unsubscribed))
        .expect("unsubscribe");
    assert!(
        matches!(answer, Response::Unsubscribed { .. }),
        "got: {answer:?}"
    );
    for (root, kind) in [
        (subscribed, "request:Subscribe"),
        (unsubscribed, "request:Unsubscribe"),
    ] {
        let (_node, spans) = client
            .fetch_trace(&format_trace_id(root.trace_id))
            .expect("trace");
        let requests: Vec<&SpanEntry> = spans
            .iter()
            .filter(|s| s.name.starts_with("request:"))
            .collect();
        assert_eq!(requests.len(), 1, "{kind}: {requests:?}");
        assert_eq!(requests[0].name, kind);
        assert_eq!(requests[0].span_id, root.span_id);
    }

    // One sample per dispatched request: the greeting is no request,
    // an out-of-place hello is one.
    let dispatched = |client: &mut Client| {
        let metrics = client.metrics(Some(0)).expect("metrics");
        metrics
            .histo(names::DISPATCH_US)
            .expect("dispatch_us")
            .count
    };
    let before = dispatched(&mut client);
    let answer = client.request(&Request::Hello { version: 2 });
    assert!(
        matches!(answer, Ok(Response::Error { .. })),
        "got: {answer:?}"
    );
    client.ping().expect("ping");
    let mut v1 = LineSession::connect(addr);
    assert!(matches!(v1.request(&Request::Ping), Response::Pong));
    for request in [
        Request::Hello { version: 1 },
        Request::Unsubscribe { subscription },
    ] {
        assert!(matches!(v1.request(&request), Response::Error { .. }));
    }
    // The first `Metrics` answer is sampled after its own snapshot.
    assert_eq!(dispatched(&mut client) - before, 1 + 2 + 3);

    client.shutdown().expect("shutdown");
    daemon.join().unwrap().expect("serve loop");
}

#[test]
fn metrics_over_the_wire_show_miss_hit_transition_and_slow_traces() {
    let booted = Instant::now();
    // --slow-audit-ms 0: every audit's total is >= 0, so all are slow.
    let server = common::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 64,
        slow_audit_ms: 0,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();
    let daemon = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).expect("connect");

    client.ingest(RECORDS).expect("ingest");
    let spec = audit_spec();
    let first = client.audit_sia(&spec, None).expect("first audit");
    assert!(!first.cached);
    let after_miss = client.metrics(Some(0)).expect("metrics");
    let second = client.audit_sia(&spec, None).expect("second audit");
    assert!(second.cached);

    let metrics = client.metrics(None).expect("metrics");
    assert_eq!(metrics.slow_threshold_us, 0);

    // Encode once: the miss encoded its report, the hit spliced the
    // cached text and encoded nothing — while every answer frame, the
    // hit's included, was sized on its way out.
    let encodes = |m: &MetricsAnswer| m.histo(names::REPORT_ENCODE_US).expect("encode").count;
    assert_eq!(encodes(&after_miss), 1);
    assert_eq!(encodes(&metrics), 1, "a cache hit encodes no report");
    let framed = |m: &MetricsAnswer| {
        let h = m.histo(names::RESPONSE_BYTES).expect("response bytes");
        (h.count, h.sum_us)
    };
    let (frames_before, bytes_before) = framed(&after_miss);
    let (frames_after, bytes_after) = framed(&metrics);
    assert!(frames_before >= 3, "hello, ingest and audit answers sized");
    assert!(frames_after > frames_before && bytes_after > bytes_before);

    // Counters: every envelope counted, one job admitted.
    assert!(metrics.counter("requests_total").unwrap() >= 4);
    assert!(metrics.counter("sched_jobs_total").unwrap() >= 1);

    // Derived gauges refreshed at snapshot time: the miss -> hit
    // transition is visible in the cache stats.
    assert_eq!(metrics.gauge("cache_sia_misses"), Some(1));
    assert!(metrics.gauge("cache_sia_hits").unwrap() >= 1);
    assert!(metrics.gauge("active_conns").unwrap() >= 1);

    // Histograms: the whole-audit and write-path timings — exactly one
    // SIA audit *executed* (the hit is not a re-execution), one
    // mutation — plus every stage the minimal-RG pipeline runs (two
    // candidates per audit).
    assert_eq!(metrics.histo("audit_sia_us").expect("audit histo").count, 1);
    assert_eq!(metrics.histo("ingest_us").expect("ingest histo").count, 1);
    assert!(metrics.histo("sched_wait_us").expect("wait histo").count >= 1);
    for stage in [
        "audit_stage_graph_build_us",
        "audit_stage_rg_minimal_us",
        "audit_stage_ranking_us",
    ] {
        assert_eq!(
            metrics
                .histo(stage)
                .unwrap_or_else(|| panic!("{stage} missing"))
                .count,
            2,
            "{stage} must record once per candidate"
        );
    }
    // A histogram quantile never undershoots: p99 bound >= p50 bound.
    let audit = metrics.histo("audit_sia_us").unwrap();
    assert!(audit.p99_us >= audit.p50_us);
    assert!(audit.max_us >= audit.p99_us);

    // Recent audits: the cache hit and the computed audit, newest
    // first, one audit-level span each; only the computed one has
    // engine stages under it, and threshold 0 makes both slow.
    let audits: Vec<&SpanEntry> = metrics
        .recent
        .iter()
        .filter(|s| s.name == names::SPAN_AUDIT)
        .collect();
    assert_eq!(audits.len(), 2, "one audit-level span per audit");
    let (hit, miss) = (audits[0], audits[1]);
    let stages_of = |audit: &SpanEntry| {
        metrics
            .recent
            .iter()
            .filter(|s| s.parent_span_id == audit.span_id)
            .count()
    };
    assert_eq!(metrics.recent.len(), 2 + stages_of(miss));
    for audit in [hit, miss] {
        assert_eq!(attr(audit, names::ATTR_KIND), Some("sia"));
        assert_eq!(attr(audit, names::ATTR_OUTCOME), Some(names::OUTCOME_OK));
        assert!(
            attr(audit, names::ATTR_PINS).is_some_and(|p| p.contains(':')),
            "SIA audit carries its (shard, epoch) pins"
        );
        assert_eq!(audit.detail, "S1+S2, S1+S3");
        assert!(audit.elapsed_us >= metrics.slow_threshold_us);
    }
    assert_eq!(attr(miss, names::ATTR_CACHED), Some("false"));
    assert_eq!(attr(hit, names::ATTR_CACHED), Some("true"));
    assert_eq!(
        stages_of(miss),
        6,
        "three stages for each of two candidates"
    );
    assert_eq!(stages_of(hit), 0, "a cache hit runs no engine stage");

    // A v1 line carries no envelope, so no client context: the daemon
    // mints the trace itself, and the audit shows up all the same —
    // newest, with its stages — under an id `Trace{id}` resolves.
    let answer = LineSession::connect(addr).request(&Request::AuditSia {
        spec: AuditSpec::sia_size_based(vec![CandidateDeployment::replicated(
            "S2+S3",
            ["S2", "S3"],
        )]),
        timeout_ms: None,
    });
    assert!(matches!(answer, Response::Sia { .. }), "got: {answer:?}");
    let after = client.metrics(Some(1)).expect("metrics");
    let v1 = &after.recent[0];
    assert_eq!(v1.name, names::SPAN_AUDIT);
    assert_eq!(v1.detail, "S2+S3");
    assert_eq!(attr(v1, names::ATTR_CACHED), Some("false"));
    assert_eq!(
        after.recent.len(),
        1 + 3,
        "recent: 1 brings one audit and its stages"
    );
    assert!(after.recent[1..]
        .iter()
        .all(|s| s.parent_span_id == v1.span_id));
    let (_node, minted) = client
        .fetch_trace(&v1.trace)
        .expect("minted trace resolves");
    let request = minted
        .iter()
        .find(|s| s.name == "request:AuditSia")
        .expect("v1 request span");
    assert_eq!(request.parent_span_id, 0, "a minted context is a root");
    assert_eq!(v1.parent_span_id, request.span_id);

    // Nothing was shed; the daemon has been up no longer than this test.
    let later = client.metrics(Some(0)).expect("metrics");
    assert_eq!(later.counter(names::OUTBOX_SHED_TOTAL), Some(0));
    assert!(later.uptime_secs >= metrics.uptime_secs);
    assert!(later.uptime_secs <= booted.elapsed().as_secs());

    // The rest of a known request mix — a duplicate ingest, a PIA audit
    // and one subscription push (the initial event, served from the
    // cache) — after the ingest, the miss, the hit and the v1 miss above.
    // Each count lives in the histogram timing its events; these are the
    // values the retired counters and gauge read for the same mix.
    assert_eq!(client.ingest(RECORDS).expect("duplicate").changed, 0);
    let providers = vec![
        ("A".to_string(), vec!["x".to_string(), "y".to_string()]),
        ("B".to_string(), vec!["x".to_string(), "z".to_string()]),
    ];
    assert!(
        !client
            .audit_pia(providers, 2, None, None)
            .expect("pia")
            .cached
    );
    let subscription = client.subscribe(&spec).expect("subscribe");
    let pushed = client
        .next_event(subscription, Some(std::time::Duration::from_secs(10)))
        .expect("subscription alive")
        .expect("initial event");
    assert!(pushed.cached);
    let mix = client.metrics(Some(0)).expect("metrics");
    let count = |name| mix.histo(name).unwrap_or_else(|| panic!("{name}")).count;
    assert_eq!(count(names::AUDIT_SIA_US), 2, "the two misses");
    assert_eq!(count(names::AUDIT_PIA_US), 1);
    assert_eq!(count(names::INGEST_US), 2, "a no-op batch is a batch");
    assert_eq!(count(names::PUSH_LATENCY_US), 1);
    assert!(count(names::LOOP_READY_EVENTS) > 0, "every wakeup counted");
    // No count has a second home: the counters and gauges are exactly
    // these (`status_reports_counters` pins the keys of Status).
    let listed = |pairs: &[(String, u64)]| pairs.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    let mut counters = [
        names::REQUESTS_TOTAL,
        names::PUSH_AUDITS_TOTAL,
        names::SCHED_JOBS_TOTAL,
        names::OUTBOX_SHED_TOTAL,
        names::DB_SEGMENT_SAVES_TOTAL,
        names::FED_WIRE_BYTES_TOTAL,
        names::FED_ROUNDS_TOTAL,
        names::FED_FRAME_RETRIES_TOTAL,
        names::FED_PARTY_FAILURES_TOTAL,
        names::DB_SEGMENTS_QUARANTINED_TOTAL,
        names::FAULTS_INJECTED_TOTAL,
    ];
    counters.sort_unstable();
    let mut gauges = [
        names::SCHED_QUEUE_DEPTH,
        names::SCHED_JOBS_RUNNING,
        names::DB_LOCK_WAITS,
        names::CACHE_SIA_HITS,
        names::CACHE_SIA_MISSES,
        names::CACHE_PIA_HITS,
        names::CACHE_PIA_MISSES,
        names::CACHE_ENTRIES,
        names::SIA_FAMILY_HITS,
        names::SIA_FAMILY_MISSES,
        names::SIA_FAMILY_ENTRIES,
        names::SUBSCRIPTIONS,
        names::ACTIVE_CONNS,
        names::WRITE_QUEUE_DEPTH,
    ];
    gauges.sort_unstable();
    assert_eq!(listed(&mix.counters), counters);
    assert_eq!(listed(&mix.gauges), gauges);

    client.shutdown().expect("shutdown");
    daemon.join().unwrap().expect("serve loop");
}

#[test]
fn v1_session_serves_metrics_and_extended_status() {
    // The Metrics request is not v2-only: a plain line-mode session
    // (no Hello) gets the same snapshot, so the counts Status does not
    // carry reach v1 clients too.
    let (addr, daemon) = start_daemon();
    let mut v1 = LineSession::connect(addr);
    let Response::Metrics {
        counters, histos, ..
    } = v1.request(&Request::Metrics { recent: Some(4) })
    else {
        panic!("expected a Metrics response");
    };
    let counter = |name: &str| counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    assert!(counter(names::REQUESTS_TOTAL).is_some());
    assert!(histos.iter().any(|h| h.name == "dispatch_us"));
    let audits = histos.iter().find(|h| h.name == names::AUDIT_SIA_US);
    assert_eq!(audits.map(|h| h.count), Some(0));
    assert_eq!(counter(names::OUTBOX_SHED_TOTAL), Some(0));
    let Response::Status { records, .. } = v1.request(&Request::Status) else {
        panic!("expected a Status response");
    };
    assert_eq!(records, 0);
    assert!(matches!(
        v1.request(&Request::Shutdown),
        Response::ShuttingDown
    ));
    daemon.join().unwrap().expect("serve loop");
}

/// A request leaves a span tree behind: the request span recorded
/// under the caller's context, with queue wait, the audit-level span and
/// the engine stages as descendants — and both the explicit `Trace{id}`
/// fetch and the pushed `AuditEvent.trace_id` expose the trace.
#[test]
fn traced_audit_records_spans_and_push_events_carry_trace_ids() {
    use indaas::obs::{format_trace_id, TraceContext};

    let (addr, daemon) = start_daemon();
    let mut client = Client::connect(addr).expect("connect");
    client.ingest(RECORDS).expect("ingest");

    let audit = Request::AuditSia {
        spec: audit_spec(),
        timeout_ms: None,
    };
    let root = TraceContext::root();
    let response = client
        .request_traced(&audit, Some(root))
        .expect("traced audit");
    assert!(matches!(response, Response::Sia { cached: false, .. }));

    let trace_hex = format_trace_id(root.trace_id);
    let (node, spans) = client.fetch_trace(&trace_hex).expect("Trace answered");
    assert_eq!(node, addr.to_string());
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    for name in [
        "request:AuditSia",
        names::SPAN_QUEUE_WAIT,
        names::SPAN_AUDIT,
        "graph_build",
    ] {
        assert!(names.contains(&name), "missing {name} span in {names:?}");
    }
    // The request span is the caller's own context — span ids are minted
    // once, at the caller, so the tree stitches without translation.
    let request = spans
        .iter()
        .find(|s| s.name == "request:AuditSia")
        .expect("request span");
    assert_eq!(request.span_id, root.span_id);
    // Engine stages hang under the audit-level span.
    let exec = spans
        .iter()
        .find(|s| s.name == names::SPAN_AUDIT)
        .expect("exec");
    let stage = spans
        .iter()
        .find(|s| s.name == "graph_build")
        .expect("stage span");
    assert_eq!(stage.parent_span_id, exec.span_id);

    // The same audit again, under a second root, is a cache hit — and
    // its trace says so: the request span plus one audit-level span
    // marked cached, with the pins it was served against.
    let second = TraceContext::root();
    let response = client
        .request_traced(&audit, Some(second))
        .expect("cached audit");
    assert!(matches!(response, Response::Sia { cached: true, .. }));
    let (_n, hit_spans) = client
        .fetch_trace(&format_trace_id(second.trace_id))
        .expect("hit trace");
    assert_eq!(
        hit_spans.len(),
        2,
        "request + audit, no queue wait, no stages"
    );
    let hit = hit_spans
        .iter()
        .find(|s| s.name == names::SPAN_AUDIT)
        .expect("a cache hit records its audit-level span");
    assert_eq!(hit.parent_span_id, second.span_id);
    assert_eq!(attr(hit, names::ATTR_CACHED), Some("true"));
    assert_eq!(
        attr(hit, names::ATTR_PINS),
        attr(exec, names::ATTR_PINS),
        "the hit was served against the pins the miss computed under"
    );

    // An unknown (but well-formed) trace id answers with zero spans; a
    // malformed one is a clear error, not a wedge.
    let (_n, empty) = client.fetch_trace("deadbeef").expect("unknown id ok");
    assert!(empty.is_empty());
    assert!(client.fetch_trace("not-hex!").is_err());

    // Pushed audit events carry the trace id of the request that caused
    // them (here: the Subscribe's own trace, for the initial event).
    let subscription = client.subscribe(&audit_spec()).expect("subscribe");
    let event = client
        .next_event(subscription, None)
        .expect("session alive")
        .expect("initial pushed event");
    let (_n, push_spans) = client.fetch_trace(&event.trace_id).expect("push trace");
    assert!(
        push_spans.iter().any(|s| s.name == names::SPAN_PUSH),
        "push span recorded under the subscriber's trace"
    );

    client.shutdown().expect("shutdown");
    daemon.join().unwrap().expect("serve loop");
}

/// Whichever path an audit takes — SIA or PIA, computed or cached,
/// pushed to a subscriber, failed in the engine or cancelled at its
/// deadline — its trace holds exactly one audit-level span saying so.
#[test]
fn every_audit_path_records_exactly_one_audit_span() {
    use indaas::obs::{format_trace_id, TraceContext};

    let (addr, daemon) = start_daemon();
    let mut client = Client::connect(addr).expect("connect");
    client.ingest(RECORDS).expect("ingest");

    // The one audit-level span of `trace`, checked against what the
    // path should have recorded.
    fn check(client: &mut Client, trace: &str, kind: &str, cached: bool, ok: bool) -> SpanEntry {
        let (_node, spans) = client.fetch_trace(trace).expect("trace");
        let mut audits: Vec<SpanEntry> = spans
            .into_iter()
            .filter(|s| s.name == names::SPAN_AUDIT)
            .collect();
        assert_eq!(
            audits.len(),
            1,
            "{kind} cached={cached} ok={ok}: {audits:?}"
        );
        let audit = audits.remove(0);
        assert_eq!(attr(&audit, names::ATTR_KIND), Some(kind));
        assert_eq!(
            attr(&audit, names::ATTR_CACHED),
            Some(if cached { "true" } else { "false" })
        );
        let outcome = attr(&audit, names::ATTR_OUTCOME).expect("outcome attr");
        assert_eq!(outcome == names::OUTCOME_OK, ok, "outcome {outcome:?}");
        audit
    }
    let run = |client: &mut Client, request: &Request| -> String {
        let root = TraceContext::root();
        let _ = client
            .request_traced(request, Some(root))
            .expect("transport ok");
        format_trace_id(root.trace_id)
    };

    let sia = |spec: AuditSpec, timeout_ms| Request::AuditSia { spec, timeout_ms };
    let miss = run(&mut client, &sia(audit_spec(), None));
    assert!(attr(
        &check(&mut client, &miss, "sia", false, true),
        names::ATTR_PINS
    )
    .is_some());
    let hit = run(&mut client, &sia(audit_spec(), None));
    check(&mut client, &hit, "sia", true, true);

    let pia = Request::AuditPia {
        providers: vec![
            ("P1".into(), vec!["libc6".into(), "tor1".into()]),
            ("P2".into(), vec!["libc6".into(), "tor2".into()]),
        ],
        way: 2,
        minhash: None,
        timeout_ms: None,
    };
    let miss = run(&mut client, &pia);
    let audit = check(&mut client, &miss, "pia", false, true);
    assert_eq!(attr(&audit, names::ATTR_PINS), None, "PIA reads no shard");
    let hit = run(&mut client, &pia);
    check(&mut client, &hit, "pia", true, true);

    // Engine error: a candidate naming a server the DepDB never saw.
    let unknown = AuditSpec::sia_size_based(vec![CandidateDeployment::replicated(
        "ghosts",
        ["S8", "S9"],
    )]);
    let failed = run(&mut client, &sia(unknown, None));
    check(&mut client, &failed, "sia", false, false);
    // Cancellation: a zero deadline expires while the job is queued.
    let fresh =
        AuditSpec::sia_size_based(vec![CandidateDeployment::replicated("S2+S3", ["S2", "S3"])]);
    let cancelled = run(&mut client, &sia(fresh.clone(), Some(0)));
    check(&mut client, &cancelled, "sia", false, false);

    // Pushes: the first subscription computes its initial audit, the
    // second one over the same spec is served from the cache.
    for cached in [false, true] {
        let subscription = client.subscribe(&fresh).expect("subscribe");
        let event = client
            .next_event(subscription, None)
            .expect("session alive")
            .expect("initial pushed event");
        assert_eq!(event.cached, cached);
        let audit = check(&mut client, &event.trace_id, names::SPAN_PUSH, cached, true);
        assert!(attr(&audit, names::ATTR_PINS).is_some());
    }

    client.shutdown().expect("shutdown");
    daemon.join().unwrap().expect("serve loop");
}

#[test]
fn shutdown_from_another_connection_ends_subscribers_cleanly() {
    let daemon = common::boot(common::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 16,
        ..ServeConfig::default()
    }));
    let addr = daemon.addr.clone();

    // The daemon is live: a full ingest + audit round-trip works.
    let mut client = Client::connect(&addr).expect("connect");
    let ack = client.ingest(RECORDS).expect("ingest");
    assert_eq!(ack.epoch, 1);
    let answer = client.audit_sia(&audit_spec(), None).expect("audit");
    assert!(!answer.cached);

    // An open subscription gets the farewell push when a `Shutdown`
    // arrives on a different connection.
    let subscription = client.subscribe(&audit_spec()).expect("subscribe");
    client
        .next_event(subscription, None)
        .expect("session alive")
        .expect("initial pushed event");

    common::shutdown(vec![daemon]);

    // The listener is gone and the subscriber saw the announced drain,
    // not a hang or a lost connection.
    assert!(TcpStream::connect(&addr).is_err(), "listener closed");
    while let Ok(Some(_)) = client.next_event(subscription, None) {}
    assert_eq!(client.end(), Some(SubscriptionEnd::CleanShutdown));
}

#[test]
fn inline_answers_cost_one_loop_wakeup_each() {
    let daemon = common::boot(common::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: 16,
        ..ServeConfig::default()
    }));
    let mut client = Client::connect(&daemon.addr).expect("connect");
    client.ingest(RECORDS).expect("ingest");
    let spec = audit_spec();
    assert!(!client.audit_sia(&spec, None).expect("miss").cached);

    // Pings and cache hits are answered on the loop thread, which
    // pumps the answer itself: the request's readable event is the
    // only wakeup, with no eventfd self-wake behind it.
    const ROUNDS: u64 = 40;
    let wakeups = |client: &mut Client| {
        let metrics = client.metrics(Some(0)).expect("metrics");
        metrics
            .histo(names::LOOP_READY_EVENTS)
            .expect("wakeups")
            .count
    };
    let before = wakeups(&mut client);
    for _ in 0..ROUNDS {
        client.ping().expect("ping");
        assert!(client.audit_sia(&spec, None).expect("hit").cached);
    }
    let spent = wakeups(&mut client) - before;
    assert!(
        spent <= 2 * ROUNDS + ROUNDS / 2,
        "{spent} wakeups for {} inline answers",
        2 * ROUNDS
    );
    common::shutdown(vec![daemon]);
}
