//! Chaos e2e: a three-daemon federated ring plus live subscriptions
//! driven under injected faults (`indaas-faultinj`). Every scenario must
//! end in one of exactly two ways — byte-identical completion, or an
//! *explicitly observable* degradation (a degraded `FederatedOutcome`, a
//! `ConnectionLost` terminal state, a non-zero exit) — never a hang,
//! never a panic, never silent data loss.
//!
//! The fault registry is process-global, so every test serializes on
//! [`chaos`] and disarms on drop (even when the test panics).

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use indaas::core::{AuditSpec, CandidateDeployment};
use indaas::faultinj;
use indaas::service::{Client, FederationCoordinator, SubscriptionEnd};
use proptest::prelude::*;

mod common;
use common::{bind_daemon_at, boot, boot_daemon, shutdown, TestDaemon, PROVIDER_RECORDS};

static CHAOS: Mutex<()> = Mutex::new(());

/// Serializes chaos tests and guarantees a clean registry on both entry
/// and exit (drop runs even when the test body panics).
struct ChaosGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        faultinj::disarm_all();
        faultinj::clear_observer();
    }
}

fn chaos() -> ChaosGuard {
    let guard = CHAOS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    faultinj::disarm_all();
    faultinj::clear_observer();
    ChaosGuard(guard)
}

fn boot_ring() -> Vec<TestDaemon> {
    PROVIDER_RECORDS
        .iter()
        .map(|r| boot_daemon(r, &[]))
        .collect()
}

/// Sums one counter across every daemon's `Metrics` answer.
fn counter_sum(daemons: &[TestDaemon], name: &str) -> u64 {
    daemons
        .iter()
        .map(|d| {
            let mut c = Client::connect(&d.addr).expect("connect for metrics");
            let m = c.metrics(Some(0)).expect("metrics answer");
            m.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or(0)
        })
        .sum()
}

/// The no-fault regression: with nothing armed, two federated runs over
/// identical rings produce identical results AND identical measured
/// wire bytes, with zero retries/redials/failures recorded — the
/// fault-injection plumbing must be invisible when off.
#[test]
fn unarmed_runs_are_byte_identical_with_zero_retries() {
    let _guard = chaos();
    let run_once = || {
        let daemons = boot_ring();
        let peers: Vec<String> = daemons.iter().map(|d| d.addr.clone()).collect();
        let outcome = FederationCoordinator::new(peers)
            .run()
            .expect("clean federated audit");
        let retries = counter_sum(&daemons, "fed_frame_retries_total");
        let injected = counter_sum(&daemons, "faults_injected_total");
        shutdown(daemons);
        (outcome, retries, injected)
    };
    let (first, r1, i1) = run_once();
    let (second, r2, i2) = run_once();

    assert_eq!((r1, i1), (0, 0), "no-fault run must not retry");
    assert_eq!((r2, i2), (0, 0));
    assert!(!first.degraded() && !second.degraded());
    let (a, b) = (first.psop.unwrap(), second.psop.unwrap());
    assert_eq!(a.intersection, b.intersection);
    assert_eq!(a.union, b.union);
    assert_eq!(
        first.party_wire_bytes, second.party_wire_bytes,
        "unarmed federation wire bytes must be deterministic"
    );
}

/// Delay faults slow every ring frame but change nothing: the audit
/// completes with the exact clean-run result while the injection
/// counter proves the fault actually fired.
#[test]
fn delayed_frames_complete_with_identical_result() {
    let _guard = chaos();
    let daemons = boot_ring();
    let peers: Vec<String> = daemons.iter().map(|d| d.addr.clone()).collect();
    let clean = FederationCoordinator::new(peers.clone())
        .run()
        .expect("clean run")
        .psop
        .unwrap();

    faultinj::arm("fed.frame.send=delay(20)").unwrap();
    let delayed = FederationCoordinator::new(peers)
        .run()
        .expect("delayed run still completes");
    // Read the trigger count *before* disarming — disarm resets it.
    assert!(faultinj::triggered("fed.frame.send") > 0, "fault must fire");
    faultinj::disarm_all();
    assert!(!delayed.degraded());
    let delayed = delayed.psop.unwrap();
    assert_eq!(delayed.intersection, clean.intersection);
    assert_eq!(delayed.union, clean.union);
    assert!((delayed.jaccard - clean.jaccard).abs() < 1e-12);
    shutdown(daemons);
}

/// Probabilistic send errors exercise the retry/backoff/re-dial path.
/// The run must end in one of the two acceptable shapes: a clean
/// completion whose result is byte-identical to the unfaulted run (with
/// the retries that saved it recorded in telemetry), or an explicit
/// degraded outcome / error — never a hang, never a wrong answer.
#[test]
fn frame_send_errors_retry_to_the_same_answer_or_fail_loudly() {
    let _guard = chaos();
    let daemons = boot_ring();
    let peers: Vec<String> = daemons.iter().map(|d| d.addr.clone()).collect();
    let clean = FederationCoordinator::new(peers.clone())
        .run()
        .expect("clean run")
        .psop
        .unwrap();

    faultinj::arm("fed.frame.send=error:0.2:42").unwrap();
    let faulted = FederationCoordinator::new(peers)
        .with_round_timeout(Duration::from_secs(2))
        .run();
    assert!(faultinj::triggered("fed.frame.send") > 0, "fault must fire");
    faultinj::disarm_all();
    match faulted {
        Ok(outcome) if !outcome.degraded() => {
            let got = outcome.psop.unwrap();
            assert_eq!(got.intersection, clean.intersection, "retried run drifted");
            assert_eq!(got.union, clean.union);
            assert!(
                counter_sum(&daemons, "fed_frame_retries_total") > 0,
                "a clean completion under send errors must have retried"
            );
        }
        Ok(outcome) => {
            assert!(outcome.psop.is_none(), "degraded outcome carries no result");
            assert!(
                !outcome.parties_failed.is_empty(),
                "degradation names parties"
            );
        }
        Err(e) => {
            // An explicit, attributable error is the other allowed shape.
            assert!(!e.to_string().is_empty());
        }
    }
    shutdown(daemons);
}

/// Injected disconnects cut the successor link the way a real failure
/// does, so every retry is a fresh dial. Same two acceptable shapes as
/// send errors: the clean run's answer with the retries recorded, or an
/// explicit degraded outcome / error — never a hang.
#[test]
fn frame_send_disconnects_redial_to_the_same_answer_or_fail_loudly() {
    let _guard = chaos();
    let daemons = boot_ring();
    let peers: Vec<String> = daemons.iter().map(|d| d.addr.clone()).collect();
    let clean = FederationCoordinator::new(peers.clone())
        .run()
        .expect("clean run")
        .psop
        .unwrap();

    faultinj::arm("fed.frame.send=disconnect:0.2:42").unwrap();
    let faulted = FederationCoordinator::new(peers)
        .with_round_timeout(Duration::from_secs(2))
        .run();
    assert!(faultinj::triggered("fed.frame.send") > 0, "fault must fire");
    faultinj::disarm_all();
    match faulted {
        Ok(outcome) if !outcome.degraded() => {
            let got = outcome.psop.unwrap();
            assert_eq!(
                got.intersection, clean.intersection,
                "re-dialed run drifted"
            );
            assert_eq!(got.union, clean.union);
            assert!(
                counter_sum(&daemons, "fed_frame_retries_total") > 0,
                "a clean completion under disconnects must have retried"
            );
        }
        Ok(outcome) => {
            assert!(outcome.psop.is_none(), "degraded outcome carries no result");
            assert!(
                !outcome.parties_failed.is_empty(),
                "degradation names parties"
            );
        }
        Err(e) => assert!(!e.to_string().is_empty()),
    }
    shutdown(daemons);
}

/// The tentpole partial-failure scenario: one ring member is dead, and
/// the coordinator must report a *degraded* outcome naming the dead
/// party (minority unreachable) instead of erroring out — then, once the
/// daemon is restarted at the same address, the next audit completes
/// cleanly with the full result.
#[test]
fn dead_peer_degrades_with_party_named_then_restart_heals() {
    let _guard = chaos();
    // Reserve an address, then free it: the "dead" ring member.
    let reserved = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port");
    let dead_addr = reserved.local_addr().expect("reserved addr").to_string();
    drop(reserved);

    let a = boot_daemon(PROVIDER_RECORDS[0], &[]);
    let b = boot_daemon(PROVIDER_RECORDS[1], &[]);
    let peers = vec![a.addr.clone(), b.addr.clone(), dead_addr.clone()];

    let outcome = FederationCoordinator::new(peers.clone())
        .with_round_timeout(Duration::from_millis(400))
        .run()
        .expect("minority death degrades instead of erroring");
    assert!(outcome.degraded(), "one dead peer of three must degrade");
    assert!(outcome.psop.is_none(), "a degraded round has no result");
    let dead = outcome
        .parties_failed
        .iter()
        .find(|f| f.peer == dead_addr)
        .expect("the dead party is named");
    assert!(!dead.reachable, "the dead party is flagged unreachable");
    assert_eq!(dead.index, 2);
    for f in outcome
        .parties_failed
        .iter()
        .filter(|f| f.peer != dead_addr)
    {
        assert!(
            f.reachable,
            "live daemons failed their rounds *reachably*: {}",
            f.error
        );
    }

    // Restart the dead member at its old address: the ring heals and the
    // next audit completes cleanly.
    let c = boot(bind_daemon_at(&dead_addr, PROVIDER_RECORDS[2], &[]));
    let healed = FederationCoordinator::new(peers)
        .run()
        .expect("healed ring completes");
    assert!(!healed.degraded());
    let psop = healed.psop.expect("healed run carries the full result");
    assert!(psop.intersection >= 1, "libc6 is shared by all providers");
    assert!(psop.union > psop.intersection);
    shutdown(vec![a, b, c]);
}

/// `svc.frame.read` severs v2 sessions server-side: in-flight requests
/// fail loudly, the subscription reports `ConnectionLost` (not a clean
/// shutdown), and — once disarmed — a fresh connection works.
#[test]
fn read_fault_drops_sessions_and_subscribers_see_connection_loss() {
    let _guard = chaos();
    let daemon = boot_daemon(PROVIDER_RECORDS[0], &[]);
    let mut client = Client::connect(&daemon.addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set read timeout");
    let spec = AuditSpec::sia_size_based(vec![CandidateDeployment::replicated("d", ["A1"])]);
    let subscription = client.subscribe(&spec).expect("subscribe");
    client
        .next_event(subscription, Some(Duration::from_secs(10)))
        .expect("initial event")
        .expect("initial event arrives");

    faultinj::arm("svc.frame.read=disconnect").unwrap();
    // The session dies at the read loop's next iteration; the first ping
    // may still be answered (it can already be in the read buffer), but
    // pings cannot keep succeeding once the fault is armed.
    let mut survived = 0u32;
    while client.ping().is_ok() {
        survived += 1;
        assert!(survived < 50, "armed read fault never severed the session");
    }
    assert!(faultinj::triggered("svc.frame.read") > 0);
    faultinj::disarm_all();

    // The subscription drains to a ConnectionLost terminal state.
    let deadline = Instant::now() + Duration::from_secs(10);
    let end = loop {
        match client.next_event(subscription, Some(Duration::from_millis(100))) {
            Err(_) => break client.end(),
            Ok(_) => assert!(Instant::now() < deadline, "subscription never ended"),
        }
    };
    match end {
        Some(SubscriptionEnd::ConnectionLost(reason)) => {
            assert!(!reason.is_empty());
        }
        other => panic!("expected ConnectionLost, got {other:?}"),
    }

    // Disarmed: the daemon serves fresh sessions as if nothing happened.
    let mut fresh = Client::connect(&daemon.addr).expect("reconnect");
    fresh.ping().expect("daemon healthy after disarm");
    drop(client);
    drop(fresh);
    shutdown(vec![daemon]);
}

/// What `svc.frame.write` covers: v2 envelopes (answers and pushes) and
/// nothing else. With every covered frame dropped, a v1 line session is
/// still answered and the v2 `Welcome` line still completes the
/// handshake, but a v2 answer never arrives; once disarmed, a fresh
/// client is answered again.
#[test]
fn write_fault_covers_envelopes_not_lines() {
    let _guard = chaos();
    let daemon = boot_daemon(PROVIDER_RECORDS[0], &[]);
    faultinj::arm("svc.frame.write=drop").unwrap();

    let mut line = common::LineSession::connect(&daemon.addr);
    assert_eq!(line.raw("\"Ping\"").trim(), "\"Pong\"");

    let mut client = Client::connect(&daemon.addr).expect("the Welcome line is not dropped");
    client
        .set_read_timeout(Some(Duration::from_millis(300)))
        .expect("set read timeout");
    assert!(
        client.ping().is_err(),
        "a v2 answer is an envelope: dropped"
    );
    assert!(faultinj::triggered("svc.frame.write") >= 1);
    faultinj::disarm_all();

    let mut fresh = Client::connect(&daemon.addr).expect("reconnect");
    fresh.ping().expect("answered once disarmed");
    drop((line, client, fresh));
    shutdown(vec![daemon]);
}

/// An *announced* shutdown is the opposite terminal state: the daemon
/// pushes `ShuttingDown` to every subscriber before draining, and the
/// subscription ends `CleanShutdown` — the signal a self-healing client
/// uses to exit zero instead of re-dialing a corpse.
#[test]
fn announced_shutdown_ends_subscriptions_cleanly() {
    let _guard = chaos();
    let daemon = boot_daemon(PROVIDER_RECORDS[0], &[]);
    let mut watcher = Client::connect(&daemon.addr).expect("connect watcher");
    let spec = AuditSpec::sia_size_based(vec![CandidateDeployment::replicated("d", ["A1"])]);
    let subscription = watcher.subscribe(&spec).expect("subscribe");
    watcher
        .next_event(subscription, Some(Duration::from_secs(10)))
        .expect("initial event")
        .expect("initial event arrives");

    let mut admin = Client::connect(&daemon.addr).expect("connect admin");
    admin.shutdown().expect("shutdown ack");
    daemon
        .handle
        .join()
        .expect("server thread")
        .expect("serve ok");

    let deadline = Instant::now() + Duration::from_secs(10);
    let end = loop {
        match watcher.next_event(subscription, Some(Duration::from_millis(100))) {
            Err(_) => break watcher.end(),
            Ok(_) => assert!(Instant::now() < deadline, "subscription never ended"),
        }
    };
    assert_eq!(
        end,
        Some(SubscriptionEnd::CleanShutdown),
        "announced drain must not read as connection loss"
    );
}

/// The self-healing CLI watcher end-to-end: `indaas watch` loses its
/// connection mid-subscription (injected writer disconnect), re-dials,
/// re-subscribes, detects the epoch it missed while away, pulls the
/// fresh state, and exits zero having printed both epochs.
#[test]
fn watch_cli_reconnects_and_misses_no_epochs() {
    let _guard = chaos();
    // Two servers sharing a ToR: the CLI requires at least two per
    // deployment.
    let daemon = boot_daemon(
        r#"
            <src="A1" dst="Internet" route="tor1,core1"/>
            <src="A2" dst="Internet" route="tor1,core2"/>
        "#,
        &[],
    );

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_indaas"))
        .args([
            "watch",
            "--deploy",
            "d=A1,A2",
            "--addr",
            &daemon.addr,
            "--count",
            "2",
            "--timeout-ms",
            "30000",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn indaas watch");

    // Stream the child's stdout so we can synchronize on its events.
    let stdout = child.stdout.take().expect("child stdout");
    let (line_tx, line_rx) = std::sync::mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        use std::io::BufRead;
        let mut collected = Vec::new();
        for line in std::io::BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            let _ = line_tx.send(line.clone());
            collected.push(line);
        }
        collected
    });
    // Mirror stderr too, so a watcher that dies early explains itself.
    let stderr = child.stderr.take().expect("child stderr");
    let err_reader = std::thread::spawn(move || {
        use std::io::Read;
        let mut text = String::new();
        let _ = std::io::BufReader::new(stderr).read_to_string(&mut text);
        text
    });
    let first = line_rx
        .recv_timeout(Duration::from_secs(20))
        .expect("watcher prints the initial event");
    assert!(
        first.contains("[epoch 1]"),
        "unexpected first line: {first}"
    );

    // Cut the watcher's connection under the writer, then land an ingest
    // wave while it is away.
    faultinj::arm("svc.frame.write=disconnect").unwrap();
    let mut admin = Client::connect(&daemon.addr).expect("connect admin");
    // The admin session's own response frame may also be cut — the
    // mutation still lands server-side.
    let _ = admin.ingest(r#"<hw="A1" type="Disk" dep="disk-chaos"/>"#);
    let fired_by = Instant::now() + Duration::from_secs(10);
    while faultinj::triggered("svc.frame.write") == 0 {
        assert!(Instant::now() < fired_by, "write fault never fired");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Give the watcher's session a moment to die, then heal the daemon.
    std::thread::sleep(Duration::from_millis(150));
    faultinj::disarm_all();

    // The reconnected watcher's resubscription pulls the fresh epoch-2
    // state and exits zero at --count 2.
    let status = child.wait().expect("child exits");
    let lines = reader.join().expect("stdout reader");
    let err_text = err_reader.join().expect("stderr reader");
    assert!(
        status.success(),
        "watch must exit zero after self-healing; stdout: {lines:?}; stderr: {err_text}"
    );
    assert!(
        lines.iter().any(|l| l.contains("[epoch 2]")),
        "the missed wave must surface after reconnect: {lines:?}"
    );
    shutdown(vec![daemon]);
}

/// Fault-spec parser properties (satellite): every well-formed spec
/// round-trips through Display/FromStr exactly, and malformed input is
/// rejected instead of half-parsed.
mod fault_spec_props {
    use super::*;
    use indaas::faultinj::{FaultPolicy, FaultSpec, DEFAULT_SEED};

    fn decode_policy(n: u8, delay_ms: u64) -> FaultPolicy {
        match n % 5 {
            0 => FaultPolicy::Error,
            1 => FaultPolicy::Delay(delay_ms),
            2 => FaultPolicy::Drop,
            3 => FaultPolicy::Disconnect,
            _ => FaultPolicy::Crash,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn well_formed_specs_round_trip(
            point_n in 0usize..7,
            policy_n in any::<u8>(),
            delay_ms in 0u64..100_000,
            prob_n in 0u64..1000,
            seed in any::<u64>(),
        ) {
            let points = [
                "svc.frame.read", "svc.frame.write", "fed.dial",
                "fed.frame.send", "sched.dispatch", "db.save", "db.load",
            ];
            let prob = (prob_n + 1) as f64 / 1000.0;
            let spec = FaultSpec {
                point: points[point_n].to_string(),
                policy: decode_policy(policy_n, delay_ms),
                prob,
                // At prob 1.0 the seed is never consulted and the
                // parser normalizes it — use the default there so
                // Display/parse round-trips exactly.
                seed: if prob >= 1.0 { DEFAULT_SEED } else { seed },
            };
            let rendered = spec.to_string();
            let parsed: FaultSpec = rendered.parse()
                .unwrap_or_else(|e| panic!("{rendered:?} failed to re-parse: {e}"));
            prop_assert_eq!(parsed, spec);
        }

        #[test]
        fn garbage_specs_are_rejected_not_half_parsed(bytes in proptest::collection::vec(any::<u8>(), 0..40)) {
            let text = String::from_utf8_lossy(&bytes).into_owned();
            // Anything without a point=policy shape must be rejected.
            if !text.contains('=') {
                prop_assert!(text.parse::<FaultSpec>().is_err());
            }
            // And these always, regardless of generated bytes:
            prop_assert!("=error".parse::<FaultSpec>().is_err(), "empty point");
            prop_assert!("p=".parse::<FaultSpec>().is_err(), "empty policy");
            prop_assert!("p=bogus".parse::<FaultSpec>().is_err(), "unknown policy");
            prop_assert!("p=error:1.5".parse::<FaultSpec>().is_err(), "prob > 1");
            prop_assert!("p=error:0".parse::<FaultSpec>().is_err(), "prob 0 is a no-op");
        }
    }
}
