//! End-to-end federated PIA: three `indaas` daemons (one per provider)
//! execute the real multi-party P-SOP exchange over TCP, and the outcome
//! — intersection, union, Jaccard, *and per-party traffic* — must match
//! the in-process `SimNetwork` run of the identical topology bit for bit.

use std::time::{Duration, Instant};

use indaas::deps::{parse_records, DepDb, ShardedDepDb};
use indaas::federation::FederationCoordinator;
use indaas::obs::{TraceContext, TRACE_CONTEXT_BYTES};
use indaas::pia::{run_psop, PsopConfig, CIPHERTEXT_BYTES};
use indaas::service::federation::provider_component_set;
use indaas::service::proto::{
    encode_line, Request, Response, FEDERATION_PROTOCOL_VERSION, ROUND_FRAME_HEADER_BYTES,
};
use indaas::service::{names, Client, ClientError, ServeConfig, Server};
use indaas::simnet::SimNetwork;

mod common;
use common::LineSession;

/// Table-1 record sets for three providers with a shared core (libc6,
/// openssl, tor-shared) and distinct tails.
const PROVIDER_RECORDS: [&str; 3] = [
    r#"
        <src="A1" dst="Internet" route="ToR-shared,CoreA"/>
        <hw="A1" type="CPU" dep="xeon-a"/>
        <pgm="Riak" hw="A1" dep="libc6,openssl,erlang"/>
    "#,
    r#"
        <src="B1" dst="Internet" route="ToR-shared,CoreB"/>
        <hw="B1" type="CPU" dep="xeon-b"/>
        <pgm="Mongo" hw="B1" dep="libc6,openssl,boost"/>
    "#,
    r#"
        <src="C1" dst="Internet" route="ToR-C,CoreC"/>
        <hw="C1" type="CPU" dep="xeon-c"/>
        <pgm="Redis" hw="C1" dep="libc6,jemalloc"/>
    "#,
];

struct TestDaemon {
    addr: String,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

/// Binds one provider daemon on an ephemeral port with `records`
/// pre-loaded (`allow` = peer allow-list, empty = open; the node name is
/// the bound address).
fn bind_daemon(records: &str, allow: &[String]) -> Server {
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        peers: allow.to_vec(),
        node: None,
        ..ServeConfig::default()
    };
    let store = ShardedDepDb::new(config.shards);
    store.ingest(parse_records(records).expect("test records parse"));
    Server::bind(config, store).expect("bind ephemeral")
}

fn boot_daemon(records: &str, allow: &[String]) -> TestDaemon {
    let server = bind_daemon(records, allow);
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    TestDaemon { addr, handle }
}

fn shutdown(daemons: Vec<TestDaemon>) {
    for d in daemons {
        let mut c = Client::connect(&d.addr).expect("connect for shutdown");
        c.shutdown().expect("shutdown ack");
        d.handle.join().expect("server thread").expect("serve ok");
    }
}

#[test]
fn three_daemon_audit_matches_simnetwork_run() {
    let daemons: Vec<TestDaemon> = PROVIDER_RECORDS
        .iter()
        .map(|r| boot_daemon(r, &[]))
        .collect();
    let peers: Vec<String> = daemons.iter().map(|d| d.addr.clone()).collect();

    // The reference run: same component sets, same config, in-process.
    let datasets: Vec<Vec<String>> = PROVIDER_RECORDS
        .iter()
        .map(|r| provider_component_set(&DepDb::from_records(parse_records(r).unwrap())))
        .collect();
    let mut net = SimNetwork::new(datasets.len() + 1);
    let expected = run_psop(&datasets, &PsopConfig::default(), &mut net);

    let outcome = FederationCoordinator::new(peers.clone())
        .run()
        .expect("federated audit succeeds");
    let got = outcome.psop.as_ref().expect("clean run carries a result");
    assert!(!outcome.degraded(), "clean run must not degrade");

    // The audit result is identical...
    assert_eq!(got.intersection, expected.intersection);
    assert_eq!(got.union, expected.union);
    assert!((got.jaccard - expected.jaccard).abs() < 1e-12);
    // ...and so is every party's traffic accounting (Figure 8's metric):
    // parties 0..k are the daemons in ring order, party k the agent.
    for party in 0..=datasets.len() {
        assert_eq!(
            got.traffic.sent_bytes(party),
            expected.traffic.sent_bytes(party),
            "party {party} sent bytes diverge from the simulated run"
        );
        assert_eq!(
            got.traffic.recv_bytes(party),
            expected.traffic.recv_bytes(party),
            "party {party} received bytes diverge from the simulated run"
        );
    }
    assert_eq!(got.traffic.total_bytes(), expected.traffic.total_bytes());
    assert_eq!(
        got.traffic.message_count(),
        expected.traffic.message_count()
    );
    assert_eq!(
        got.traffic.max_sent_bytes(),
        expected.traffic.max_sent_bytes()
    );

    // The wire carries exactly one frame format. Each party's bytes to
    // its successor are its handshake line plus, per ring frame, a
    // 4-byte length prefix, the 16-byte header, the payload and the
    // 32-byte trace context. A party sends k ring frames; its last send
    // (its own fully-encrypted list, to the agent) never touches the ring.
    let k = datasets.len() as u64;
    let framing = 4 + (ROUND_FRAME_HEADER_BYTES + TRACE_CONTEXT_BYTES) as u64;
    assert_eq!(outcome.party_wire_bytes.len(), datasets.len());
    for (party, peer) in peers.iter().enumerate() {
        let hello = encode_line(&Request::FederateHello {
            version: FEDERATION_PROTOCOL_VERSION,
            node: peer.clone(),
        });
        let ring_payload =
            got.traffic.sent_bytes(party) - (datasets[party].len() * CIPHERTEXT_BYTES) as u64;
        assert_eq!(
            outcome.party_wire_bytes[party],
            hello.len() as u64 + 1 + k * framing + ring_payload,
            "party {party} wire bytes"
        );
    }

    // Sanity: the shared core (libc6, openssl is only in two sets —
    // the 3-way intersection is the components in *all* sets).
    assert!(got.intersection >= 1, "libc6 is everywhere");
    assert!(got.union > got.intersection);

    shutdown(daemons);
}

#[test]
fn allow_listed_ring_works_and_unlisted_successor_is_refused() {
    // Boot the ring twice over the same record sets: first with mutual
    // allow-lists (must work), then point a coordinator at a successor
    // missing from the daemon's list (must fail fast).
    let a = boot_daemon(PROVIDER_RECORDS[0], &[]);
    let b = boot_daemon(PROVIDER_RECORDS[1], &[]);
    // Daemon C only trusts A and B.
    let c = boot_daemon(PROVIDER_RECORDS[2], &[a.addr.clone(), b.addr.clone()]);

    let outcome = FederationCoordinator::new([a.addr.clone(), b.addr.clone(), c.addr.clone()])
        .run()
        .expect("mutually-listed ring runs");
    assert!(outcome.psop.expect("listed ring carries a result").union > 0);

    // An outsider daemon C refuses to dial (not on its allow-list).
    let outsider = boot_daemon(PROVIDER_RECORDS[0], &[]);
    let err = FederationCoordinator::new([c.addr.clone(), outsider.addr.clone()])
        .run()
        .expect_err("C must refuse an unlisted successor");
    assert!(
        err.to_string().contains("allow-list"),
        "unexpected error: {err}"
    );

    shutdown(vec![a, b, c, outsider]);
}

#[test]
fn self_peering_is_rejected_with_a_clear_error() {
    let daemon = boot_daemon(PROVIDER_RECORDS[0], &[]);
    let mut client = Client::connect(&daemon.addr).unwrap();
    let response = client
        .request(&Request::FederateStart {
            session: 7,
            index: 0,
            parties: 2,
            successor: daemon.addr.clone(),
            seed: 1,
            multiset: true,
            round_timeout_ms: Some(500),
        })
        .unwrap();
    match response {
        Response::Error { message } => {
            assert!(
                message.contains("own listen address") || message.contains("self"),
                "unexpected message: {message}"
            );
        }
        other => panic!("expected an error, got {other:?}"),
    }
    shutdown(vec![daemon]);
}

#[test]
fn handshake_negotiates_version_and_rejects_ancient_peers() {
    let daemon = boot_daemon(PROVIDER_RECORDS[0], &[]);
    // A peer handshake is by definition the first line of a raw
    // connection, so these probes ride a raw line session.
    // A well-behaved (even newer) peer is welcomed at our version.
    match LineSession::connect(&daemon.addr).request(&Request::FederateHello {
        version: FEDERATION_PROTOCOL_VERSION + 3,
        node: "test-harness".into(),
    }) {
        Response::FederateWelcome { version, node } => {
            assert_eq!(version, FEDERATION_PROTOCOL_VERSION);
            assert_eq!(node, daemon.addr);
        }
        other => panic!("expected a welcome, got {other:?}"),
    }
    // A version-1 peer (hex framing, no trace context) is turned away,
    // and the refusal names the version.
    match LineSession::connect(&daemon.addr).request(&Request::FederateHello {
        version: 1,
        node: "museum-piece".into(),
    }) {
        Response::Error { message } => {
            assert!(message.contains("protocol version 1"), "got: {message}");
        }
        other => panic!("expected an error, got {other:?}"),
    }
    // A peer announcing the daemon's own node name is itself.
    match LineSession::connect(&daemon.addr).request(&Request::FederateHello {
        version: FEDERATION_PROTOCOL_VERSION,
        node: daemon.addr.clone(),
    }) {
        Response::Error { message } => {
            assert!(message.contains("refusing self-peering"), "got: {message}");
        }
        other => panic!("expected an error, got {other:?}"),
    }
    // With an allow-list, only listed nodes are welcomed.
    let guarded = boot_daemon(PROVIDER_RECORDS[1], &["127.0.0.1:1".to_string()]);
    let hello = |node: &str| {
        LineSession::connect(&guarded.addr).request(&Request::FederateHello {
            version: FEDERATION_PROTOCOL_VERSION,
            node: node.into(),
        })
    };
    assert!(matches!(
        hello("127.0.0.1:1"),
        Response::FederateWelcome { .. }
    ));
    match hello("127.0.0.1:2") {
        Response::Error { message } => {
            assert!(
                message.contains("not in this daemon's peer allow-list"),
                "got: {message}"
            );
        }
        other => panic!("expected an error, got {other:?}"),
    }
    shutdown(vec![daemon, guarded]);
}

#[test]
fn frames_outside_a_peer_session_are_rejected() {
    use indaas::service::proto::{
        decode_line, encode_traced_round_frame, read_frame, write_frame, FrameRead,
        ResponseEnvelope, PROTOCOL_VERSION,
    };
    use std::io::{BufRead, BufReader, Write};

    let daemon = boot_daemon(PROVIDER_RECORDS[0], &[]);
    // Round frames travel only after a FederateHello. On a client
    // session a round frame is not an envelope: the daemon answers once
    // and drops the connection.
    let stream = std::net::TcpStream::connect(&daemon.addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let hello = encode_line(&Request::Hello {
        version: PROTOCOL_VERSION,
    });
    writer.write_all(format!("{hello}\n").as_bytes()).unwrap();
    let mut welcome = String::new();
    reader.read_line(&mut welcome).unwrap();
    assert!(welcome.contains("Welcome"), "got: {welcome}");
    let frame = encode_traced_round_frame(1, 0, 0, &[7; 128], &TraceContext::root());
    write_frame(&mut writer, &frame).unwrap();
    let mut buf = Vec::new();
    assert!(matches!(
        read_frame(&mut reader, &mut buf, 1 << 20).unwrap(),
        FrameRead::Frame
    ));
    let answer: ResponseEnvelope = decode_line(std::str::from_utf8(&buf).unwrap()).unwrap();
    match answer.body {
        Response::Error { message } => {
            assert!(message.contains("malformed envelope"), "got: {message}");
        }
        other => panic!("expected an error, got {other:?}"),
    }
    shutdown(vec![daemon]);
}

/// The tentpole acceptance: a federated audit leaves ONE stitched trace
/// behind. Fetching `Trace{id}` from every ring daemon and merging the
/// answers yields a span tree that spans both daemons, with genuine
/// cross-daemon parent links: the `fed_frame` spans a daemon records for
/// frames it *received* are children of the `fed_party` span minted on
/// the daemon that *sent* them.
#[test]
fn federated_audit_yields_one_stitched_trace_across_daemons() {
    use indaas::obs::{build_span_tree, format_trace_id, SpanRecord};

    let daemons: Vec<TestDaemon> = PROVIDER_RECORDS[..2]
        .iter()
        .map(|r| boot_daemon(r, &[]))
        .collect();
    let peers: Vec<String> = daemons.iter().map(|d| d.addr.clone()).collect();
    let outcome = FederationCoordinator::new(peers.clone())
        .run()
        .expect("federated audit succeeds");
    let trace_hex = format_trace_id(outcome.trace.trace_id);

    // Pull the spans each daemon recorded under the coordinator's trace.
    let mut spans: Vec<SpanRecord> = Vec::new();
    for peer in &peers {
        let mut client = Client::connect(peer).expect("connect for trace fetch");
        let (node, entries) = client.fetch_trace(&trace_hex).expect("Trace answered");
        assert_eq!(&node, peer, "daemon stamps its own address");
        for e in entries {
            assert_eq!(e.trace, trace_hex, "daemon only returns the asked trace");
            assert_eq!(e.node, node, "every span is stamped with its recorder");
            spans.push(e.into_record().expect("hex trace id parses"));
        }
    }

    // Spans from BOTH daemons, under the one trace id.
    for peer in &peers {
        assert!(
            spans.iter().any(|s| &s.node == peer),
            "no spans recorded on {peer}"
        );
    }
    // Each daemon dispatched the coordinator's FederateStart and ran its
    // party under it.
    for name in ["request:FederateStart", names::SPAN_FED_PARTY] {
        for peer in &peers {
            assert!(
                spans.iter().any(|s| s.name == name && &s.node == peer),
                "{peer} recorded no {name} span"
            );
        }
    }
    // Both request spans are siblings under the coordinator's virtual
    // root span (which no daemon records).
    let request_parents: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "request:FederateStart")
        .map(|s| s.parent_span_id)
        .collect();
    assert_eq!(request_parents.len(), 2);
    assert_eq!(
        request_parents[0], request_parents[1],
        "both parties hang off the same coordinator root"
    );

    // The cross-daemon links: every received ring frame is recorded as a
    // child of the *sending* daemon's fed_party span.
    let fed_frames: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.name == names::SPAN_FED_FRAME)
        .collect();
    assert!(!fed_frames.is_empty(), "ring frames recorded spans");
    let mut cross_linked = 0usize;
    for frame in &fed_frames {
        let sender = spans
            .iter()
            .find(|s| s.name == names::SPAN_FED_PARTY && s.span_id == frame.parent_span_id)
            .unwrap_or_else(|| {
                panic!(
                    "fed_frame {:#x} has no fed_party parent {:#x}",
                    frame.span_id, frame.parent_span_id
                )
            });
        if sender.node != frame.node {
            cross_linked += 1;
        }
    }
    assert!(
        cross_linked > 0,
        "at least one frame span must link across daemons"
    );

    // And the whole thing assembles into one coherent tree: both request
    // spans end up as roots (their parent is the coordinator's virtual
    // root), each holding its party's spans beneath it.
    let total = spans.len();
    let tree = build_span_tree(spans);
    assert_eq!(
        tree.iter().map(|n| n.size()).sum::<usize>(),
        total,
        "every span appears in the stitched tree exactly once"
    );
    assert!(
        tree.iter()
            .any(|root| root.span.name == "request:FederateStart" && !root.children.is_empty()),
        "request roots carry their party subtrees"
    );

    shutdown(daemons);
}

#[test]
fn empty_database_cannot_federate() {
    let empty = {
        let server = common::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..ServeConfig::default()
        });
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run());
        TestDaemon { addr, handle }
    };
    let full = boot_daemon(PROVIDER_RECORDS[0], &[]);
    let err = FederationCoordinator::new([empty.addr.clone(), full.addr.clone()])
        .with_round_timeout(Duration::from_secs(2))
        .run()
        .expect_err("an empty provider cannot join the ring");
    assert!(
        err.to_string().contains("no components"),
        "unexpected error: {err}"
    );
    shutdown(vec![empty, full]);
}

/// A ring predecessor whose list arrives with a truncated tail must not
/// have that tail encrypted and forwarded as a group element: the party
/// that received it fails its run and names the sender.
#[test]
fn ragged_ring_payload_fails_the_party_naming_its_sender() {
    let a = boot_daemon(PROVIDER_RECORDS[0], &[]);
    let b = boot_daemon(PROVIDER_RECORDS[1], &[]);
    let session = 0x0bad_5eed;
    // The harness is hostile party 2, A's predecessor on a 3-party ring:
    // it opens a peer session to A as any peer would and delivers its
    // round-0 list early (A's session table buffers it) — one whole
    // element, 17 stray bytes.
    let mut hostile = LineSession::connect(&a.addr);
    let ragged = [vec![0u8; 127], vec![7u8], vec![0xab; 17]].concat();
    hostile.send_round_frame("hostile-harness", session, 0, 2, &ragged);
    // A plays party 0; its successor B only has to buffer A's own list.
    let mut coordinator = Client::connect(&a.addr).unwrap();
    let answer = coordinator.request(&Request::FederateStart {
        session,
        index: 0,
        parties: 3,
        successor: b.addr.clone(),
        seed: PsopConfig::default().seed,
        multiset: true,
        round_timeout_ms: Some(5_000),
    });
    let message = match answer {
        Ok(Response::Error { message }) => message,
        Err(e) => e.to_string(),
        Ok(other) => panic!("a ragged list must fail the party, got {other:?}"),
    };
    assert!(
        message.contains("party 2 sent a malformed P-SOP payload: 145 bytes"),
        "unexpected error: {message}"
    );
    drop(hostile);
    shutdown(vec![a, b]);
}

/// Shutdown mid-round never hangs: a party waiting on a withheld frame
/// is failed by the drain — its coordinator hears "daemon is shutting
/// down" or sees the connection close — and `ServerHandle::shutdown`
/// returns within the drain's linger.
#[test]
fn shutdown_mid_round_never_hangs() {
    let (successor, frame_arrived) = common::silent_successor("silent-harness");
    let handle = bind_daemon(PROVIDER_RECORDS[0], &[])
        .spawn()
        .expect("spawn daemon");
    let mut coordinator = Client::connect(handle.addr()).unwrap();
    let pending = coordinator
        .begin(&Request::FederateStart {
            session: 0x5107,
            index: 0,
            parties: 2,
            successor,
            seed: 1,
            multiset: true,
            round_timeout_ms: None,
        })
        .unwrap();
    // Party 0's list reached its successor: the party now waits for
    // party 1's frame, which the harness withholds.
    let _held = frame_arrived
        .recv_timeout(Duration::from_secs(10))
        .expect("the daemon's round-0 frame arrives");

    let started = Instant::now();
    handle.shutdown().expect("clean shutdown");
    // The drain's 2 s linger plus one second.
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "shutdown took {:?}",
        started.elapsed()
    );
    match pending.wait() {
        Ok(Response::Error { message }) => {
            assert!(
                message.contains("daemon is shutting down"),
                "got: {message}"
            );
        }
        Ok(other) => panic!("a cut party must not answer {other:?}"),
        Err(e) => assert!(matches!(e, ClientError::Protocol(_)), "got: {e}"),
    }
}
