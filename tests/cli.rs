//! Integration tests for the `indaas` command-line tool.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};

mod common;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_indaas"))
}

/// A spawned `indaas serve`, killed on drop so a failed assertion never
/// leaves it running (holding the test binary's output open).
struct Daemon {
    child: Child,
    /// The bound address, read from the listen banner on stderr.
    addr: String,
}

impl Daemon {
    /// Spawns `indaas serve --listen 127.0.0.1:0` plus `args`.
    fn serve(args: &[&str]) -> Daemon {
        let mut child = bin()
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(args)
            .stderr(Stdio::piped())
            .spawn()
            .expect("daemon starts");
        let mut banner = String::new();
        BufReader::new(child.stderr.take().expect("stderr piped"))
            .read_line(&mut banner)
            .expect("read banner");
        let addr = banner.trim().rsplit(' ').next().expect("address in banner");
        Daemon {
            addr: addr.to_string(),
            child,
        }
    }

    /// Waits for the exit a `Shutdown` request began; it must succeed.
    fn exits_cleanly(&mut self) {
        assert!(self.child.wait().expect("daemon exits").success());
    }

    /// Sends `Shutdown` over a raw v1 line, then waits for a clean exit.
    fn shut_down(&mut self) {
        let ack = common::LineSession::connect(&self.addr).raw(r#""Shutdown""#);
        assert_eq!(ack.trim(), r#""ShuttingDown""#);
        self.exits_cleanly();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("indaas-cli-test-{name}-{}", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("temp file");
    f.write_all(content.as_bytes()).expect("write temp file");
    path
}

const RECORDS: &str = r#"
    <src="S1" dst="Internet" route="tor1,core1"/>
    <src="S2" dst="Internet" route="tor1,core2"/>
    <src="S3" dst="Internet" route="tor2,core2"/>
"#;

#[test]
fn sia_text_report_ranks_deployments() {
    let records = write_temp("records-sia", RECORDS);
    let out = bin()
        .args([
            "sia",
            "--records",
            records.to_str().unwrap(),
            "--deploy",
            "same-rack=S1,S2",
            "--deploy",
            "cross-rack=S1,S3",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cross-rack"));
    assert!(text.contains("unexpected RGs=1"), "same-rack shares tor1");
    // cross-rack must rank first.
    let cross = text.find("cross-rack").unwrap();
    let same = text.find("same-rack").unwrap();
    assert!(cross < same);
}

#[test]
fn sia_json_report_parses() {
    let records = write_temp("records-json", RECORDS);
    let out = bin()
        .args([
            "sia",
            "--records",
            records.to_str().unwrap(),
            "--deploy",
            "pair=S1,S2",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(v["deployments"][0]["name"], "pair");
}

#[test]
fn pia_ranks_component_sets() {
    let a = write_temp("set-a", "libc6\nopenssl\nerlang\n");
    let b = write_temp("set-b", "libc6\nopenssl\nboost\n");
    let c = write_temp("set-c", "musl\nluajit\n");
    let out = bin()
        .args([
            "pia",
            "--set",
            &format!("A={}", a.display()),
            "--set",
            &format!("B={}", b.display()),
            "--set",
            &format!("C={}", c.display()),
            "--way",
            "2",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // A & B share 2 of 4; pairs with C are disjoint → A & B ranks last.
    let last_line = text.lines().rfind(|l| !l.trim().is_empty()).unwrap();
    assert!(last_line.contains("A & B"), "got: {last_line}");
}

#[test]
fn dot_emits_graphviz() {
    let records = write_temp("records-dot", RECORDS);
    let out = bin()
        .args([
            "dot",
            "--records",
            records.to_str().unwrap(),
            "--servers",
            "S1,S2",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("digraph fault_graph"));
    assert!(text.contains("tor1"));
}

#[test]
fn bad_usage_fails_with_message() {
    let out = bin().arg("sia").output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--records"));

    let out = bin().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());

    let out = bin().arg("--help").output().expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

/// A misspelled flag or a value flag missing its value is an error that
/// names the flag — never a silently applied default.
#[test]
fn unknown_flags_and_missing_values_are_rejected() {
    let records = write_temp("records-flags", RECORDS);
    let records = records.to_str().unwrap();
    let sia = ["sia", "--records", records, "--deploy", "pair=S1,S2"];
    for (args, flag) in [
        (
            [&sia[..], &["--algoritm", "sampling"]].concat(),
            "--algoritm",
        ),
        (vec!["ping", "--adr", "127.0.0.1:1"], "--adr"),
        ([&sia[..], &["--max-order"]].concat(), "--max-order"),
    ] {
        let out = bin().args(&args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
    std::fs::remove_file(records).ok();
}

#[test]
fn serve_help_documents_daemon_and_protocol() {
    let out = bin()
        .args(["serve", "--help"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("--listen"), "got: {text}");
    assert!(text.contains("--workers"), "got: {text}");
    assert!(text.contains("PROTOCOL"), "got: {text}");
    // The top-level help advertises the subcommand too.
    let out = bin().arg("--help").output().expect("binary runs");
    assert!(String::from_utf8_lossy(&out.stderr).contains("serve"));
}

#[test]
fn serve_rejects_bad_flags_and_missing_records() {
    let out = bin()
        .args(["serve", "--workers", "not-a-number"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--workers"));

    let out = bin()
        .args(["serve", "--max-conns", "0"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--max-conns"));

    let out = bin()
        .args(["serve", "--workers", "0"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--workers"));

    let out = bin()
        .args(["serve", "--records", "/no/such/file"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("/no/such/file"));

    // A non-empty directory without a manifest is refused as --db-dir
    // rather than silently shadowed by an empty store.
    let junk_dir = std::env::temp_dir().join(format!("indaas-cli-junkdb-{}", std::process::id()));
    std::fs::create_dir_all(&junk_dir).expect("mkdir");
    std::fs::write(junk_dir.join("unrelated.txt"), "not a db").expect("write junk");
    let out = bin()
        .args(["serve", "--db-dir", junk_dir.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("MANIFEST"));
    std::fs::remove_dir_all(&junk_dir).ok();

    // A Table-1 file is not a db dir: refused, naming the flag pair that
    // turns one into segments, and left untouched.
    let table = write_temp("not-a-db-dir.tbl", RECORDS);
    let out = bin()
        .args(["serve", "--db-dir", table.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--records FILE --db-dir DIR"),
        "got: {stderr}"
    );
    assert_eq!(std::fs::read_to_string(&table).unwrap(), RECORDS);
    std::fs::remove_file(&table).ok();
}

/// `serve --db-dir` across two daemon processes: the first persists its
/// `--records` seed as segments at shutdown, the second boots from the
/// directory alone and still knows every record.
#[test]
fn serve_db_dir_persists_across_processes() {
    let dir = std::env::temp_dir().join(format!("indaas-cli-dbdir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let records = write_temp(
        "dbdir-seed.txt",
        r#"
        <src="S1" dst="Internet" route="tor1,core1"/>
        <src="S2" dst="Internet" route="tor1,core2"/>
        <hw="S1" type="Disk" dep="S1-disk"/>
        "#,
    );

    let run_daemon = |extra: &[&str]| -> String {
        let mut daemon = Daemon::serve(&[&["--db-dir", dir.to_str().unwrap()], extra].concat());
        let status_line = common::LineSession::connect(&daemon.addr).raw(r#""Status""#);
        daemon.shut_down();
        status_line
    };

    let first = run_daemon(&["--records", records.to_str().unwrap()]);
    assert!(first.contains("\"records\":3"), "got: {first}");
    assert!(
        dir.join("MANIFEST.json").exists(),
        "shutdown must write the segmented layout"
    );

    // Second process: no --records, everything comes from the db dir.
    let second = run_daemon(&[]);
    assert!(second.contains("\"records\":3"), "got: {second}");
    assert!(second.contains("\"epoch\":1"), "got: {second}");

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&records).ok();
}

#[test]
fn serve_answers_ping_and_malformed_requests_over_tcp() {
    // Spawn the daemon on an ephemeral port; it prints the bound address
    // on stderr ("indaas daemon listening on 127.0.0.1:PORT").
    let mut daemon = Daemon::serve(&[]);
    let stream = std::net::TcpStream::connect(&daemon.addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();

    // Malformed request → Error response, connection survives.
    writer.write_all(b"{oops\n").expect("write");
    reader.read_line(&mut line).expect("read");
    assert!(
        line.contains("Error") && line.contains("malformed request"),
        "got: {line}"
    );

    line.clear();
    writer.write_all(b"\"Ping\"\n").expect("write");
    reader.read_line(&mut line).expect("read");
    assert_eq!(line.trim(), "\"Pong\"");

    line.clear();
    writer.write_all(b"\"Shutdown\"\n").expect("write");
    reader.read_line(&mut line).expect("read");
    assert_eq!(line.trim(), "\"ShuttingDown\"");
    daemon.exits_cleanly();
}

/// The `watch` quickstart, end to end across two processes: a daemon
/// pre-loaded with records, then `indaas watch` subscribing over the v2
/// protocol and exiting after the initial pushed event.
#[test]
fn watch_receives_the_initial_pushed_event() {
    let records = write_temp(
        "watch-records.txt",
        r#"
        <src="S1" dst="Internet" route="tor1,core1"/>
        <src="S2" dst="Internet" route="tor1,core2"/>
        <src="S3" dst="Internet" route="tor2,core2"/>
        "#,
    );
    let mut daemon = Daemon::serve(&["--records", records.to_str().unwrap()]);
    let addr = daemon.addr.clone();
    let out = bin()
        .args([
            "watch",
            "--addr",
            &addr,
            "--deploy",
            "same-tor=S1,S2",
            "--deploy",
            "cross-tor=S1,S3",
            "--count",
            "1",
            "--timeout-ms",
            "15000",
        ])
        .output()
        .expect("watch runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("best=cross-tor"), "got: {text}");
    assert!(text.contains("same-tor"), "got: {text}");

    // JSON mode yields one parseable object per event.
    let out = bin()
        .args([
            "watch",
            "--addr",
            &addr,
            "--deploy",
            "pair=S1,S3",
            "--count",
            "1",
            "--timeout-ms",
            "15000",
            "--json",
        ])
        .output()
        .expect("watch --json runs");
    assert!(out.status.success());
    let line = String::from_utf8_lossy(&out.stdout);
    let v: serde_json::Value = serde_json::from_str(line.trim()).expect("valid JSON event");
    assert_eq!(v["report"]["deployments"][0]["name"], "pair");
    let serde_json::Value::Object(event) = &v else {
        panic!("expected a JSON object, got: {line}");
    };
    assert_eq!(
        event.keys().map(String::as_str).collect::<Vec<_>>(),
        [
            "cached",
            "elapsed_us",
            "epoch",
            "report",
            "subscription",
            "trace_id"
        ]
    );

    daemon.shut_down();
    std::fs::remove_file(&records).ok();
}

/// `indaas metrics` and `indaas top` render one line per recent audit
/// from the daemon's spans: kind, detail, total µs, `cached`, `SLOW`
/// (threshold 0 marks everything), a non-ok outcome, and `stage=µs`
/// pairs for the audit that actually ran its engines.
#[test]
fn metrics_and_top_render_recent_audits() {
    use indaas::core::{AuditSpec, CandidateDeployment};
    use indaas::service::Client;

    let records = write_temp("metrics-records.txt", RECORDS);
    let mut daemon = Daemon::serve(&[
        "--slow-audit-ms",
        "0",
        "--records",
        records.to_str().unwrap(),
    ]);
    let addr = daemon.addr.clone();
    // One miss, one hit, one engine failure (servers nobody recorded).
    let mut client = Client::connect(&addr).expect("connect");
    let pair = |name: &str, servers: [&str; 2]| {
        AuditSpec::sia_size_based(vec![CandidateDeployment::replicated(name, servers)])
    };
    assert!(
        !client
            .audit_sia(&pair("pair", ["S1", "S3"]), None)
            .unwrap()
            .cached
    );
    assert!(
        client
            .audit_sia(&pair("pair", ["S1", "S3"]), None)
            .unwrap()
            .cached
    );
    client
        .audit_sia(&pair("ghosts", ["S8", "S9"]), None)
        .expect_err("unknown servers fail the audit");

    let check = |text: &str| {
        let line_with = |needle: &str, cached: bool| {
            text.lines()
                .find(|l| l.contains(needle) && l.contains(" cached") == cached)
                .unwrap_or_else(|| panic!("no {needle:?} line (cached={cached}) in: {text}"))
                .to_string()
        };
        let miss = line_with("sia [pair] ", false);
        for part in [
            "us SLOW",
            "(graph_build=",
            " rg_minimal=",
            " ranking=",
            "us)",
            " trace=",
        ] {
            assert!(miss.contains(part), "miss line lacks {part:?}: {miss}");
        }
        assert!(
            !miss.contains("outcome="),
            "ok outcomes stay silent: {miss}"
        );
        let hit = line_with("sia [pair] ", true);
        assert!(hit.contains("us cached SLOW"), "got: {hit}");
        assert!(!hit.contains('('), "a hit ran no stage: {hit}");
        let failed = line_with("sia [ghosts] ", false);
        assert!(failed.contains(" SLOW outcome="), "got: {failed}");
        // Newest first: the failure, then the hit, then the miss.
        let pos = |line: &str| text.find(line).expect("line is in the text");
        assert!(pos(&failed) < pos(&hit) && pos(&hit) < pos(&miss));
    };

    let out = bin()
        .args(["metrics", "--addr", &addr])
        .output()
        .expect("metrics runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("recent audits (slow >= 0us):"), "got: {text}");
    check(&text);

    let out = bin()
        .args(["top", "--addr", &addr, "--plain", "--count", "1"])
        .output()
        .expect("top runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("recent audits:"), "got: {text}");
    check(&text);

    client.shutdown().expect("shutdown");
    daemon.exits_cleanly();
    std::fs::remove_file(&records).ok();
}

/// The "Federated PIA" quickstart, end to end: three daemons (one per
/// provider, each pre-loaded with its own records), then `indaas
/// federate` as the auditing agent.
#[test]
fn federate_audits_three_serve_processes() {
    let provider_records = [
        r#"<src="A1" dst="Internet" route="tor-shared,coreA"/>
<pgm="Riak" hw="A1" dep="libc6,openssl,erlang"/>"#,
        r#"<src="B1" dst="Internet" route="tor-shared,coreB"/>
<pgm="Mongo" hw="B1" dep="libc6,openssl,boost"/>"#,
        r#"<src="C1" dst="Internet" route="tor-C,coreC"/>
<pgm="Redis" hw="C1" dep="libc6,jemalloc"/>"#,
    ];
    let mut daemons: Vec<Daemon> = (provider_records.iter().enumerate())
        .map(|(i, records)| {
            let path = write_temp(&format!("federate-cli-{i}.txt"), records);
            Daemon::serve(&["--records", path.to_str().unwrap()])
        })
        .collect();
    let addrs: Vec<String> = daemons.iter().map(|d| d.addr.clone()).collect();

    let out = bin()
        .args([
            "federate", "--peer", &addrs[0], "--peer", &addrs[1], "--peer", &addrs[2], "--json",
        ])
        .output()
        .expect("federate runs");
    assert!(
        out.status.success(),
        "federate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    let num = |val: &serde_json::Value| match val {
        serde_json::Value::Number(n) => n.as_f64(),
        other => panic!("expected a number, got {other:?}"),
    };
    // libc6 is the only component in all three sets.
    assert_eq!(num(&v["intersection"]), 1.0);
    assert!(num(&v["jaccard"]) > 0.0);
    assert!(num(&v["parties"][0]["sent_bytes"]) > 0.0);
    assert_eq!(v["parties"][2]["addr"], addrs[2].as_str());

    for daemon in &mut daemons {
        daemon.shut_down();
    }
}

/// The thread gate: during a live P-SOP round the daemon runs its
/// readiness loop and its worker pool, nothing else. The harness plays
/// party 1 of 2 — it answers the daemon's successor dial with a welcome,
/// opens its own peer session to the daemon and withholds its round-0
/// frame — then counts the daemon's OS threads mid-round, and the party
/// ends on its round deadline.
#[test]
fn live_federation_round_threads_are_loop_plus_pool() {
    use indaas::service::proto::FEDERATION_PROTOCOL_VERSION;
    use indaas::service::{Client, Request, Response};
    use std::time::{Duration, Instant};

    let records = write_temp("thread-gate-records.txt", RECORDS);
    let mut daemon = Daemon::serve(&[
        "--workers",
        "1",
        "--round-timeout-ms",
        "3000",
        "--records",
        records.to_str().unwrap(),
    ]);
    let addr = daemon.addr.clone();
    let (successor, frame_arrived) = common::silent_successor("harness-party-1");
    // Party 1's own peer session to the daemon: welcomed, then silent.
    let mut peer = common::LineSession::connect(&addr);
    match peer.request(&Request::FederateHello {
        version: FEDERATION_PROTOCOL_VERSION,
        node: "harness-party-1".into(),
    }) {
        Response::FederateWelcome { .. } => {}
        other => panic!("expected a welcome, got {other:?}"),
    }
    let mut coordinator = Client::connect(&addr).expect("connect");
    let started = Instant::now();
    let pending = coordinator
        .begin(&Request::FederateStart {
            session: 0x7e57,
            index: 0,
            parties: 2,
            successor,
            seed: 1,
            multiset: true,
            round_timeout_ms: Some(3_000),
        })
        .expect("FederateStart sent");
    let _held = frame_arrived
        .recv_timeout(Duration::from_secs(10))
        .expect("the daemon's round-0 frame arrives");

    // Mid-round: the party waits on the withheld frame.
    let status = std::fs::read_to_string(format!("/proc/{}/status", daemon.child.id()))
        .expect("read /proc status");
    let threads = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .map(str::trim)
        .expect("Threads: line");
    assert_eq!(
        threads, "2",
        "mid-round the daemon runs its loop + 1 worker"
    );

    match coordinator.wait(pending).expect("FederateStart answered") {
        Response::Error { message } => assert!(
            message.contains("round deadline exceeded: no frame within the 3000ms round deadline"),
            "got: {message}"
        ),
        other => panic!("a withheld frame must fail the party, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "the round deadline answered after {:?}",
        started.elapsed()
    );

    drop(peer);
    coordinator.shutdown().expect("shutdown");
    daemon.exits_cleanly();
    std::fs::remove_file(&records).ok();
}

/// The readiness-loop gate, "a thousand idle watchers": 512 live
/// subscriptions over 16 connections cost a `serve --workers 1` daemon
/// no thread beyond its loop and its one worker, and one ingest wave
/// still reaches every subscription promptly.
#[test]
fn idle_watchers_cost_no_threads() {
    use indaas::core::{AuditSpec, CandidateDeployment};
    use indaas::service::Client;
    use std::time::{Duration, Instant};

    const SUBS: usize = 512;
    const CONNS: usize = 16;
    const WAVE_DEADLINE: Duration = Duration::from_secs(30);

    let records = write_temp(
        "idle-watchers-records.txt",
        r#"
        <src="S1" dst="Internet" route="tor1,core1"/>
        <src="S2" dst="Internet" route="tor1,core2"/>
        <src="S3" dst="Internet" route="tor2,core2"/>
        <hw="S1" type="Disk" dep="S1-disk"/>
        "#,
    );
    // The queue holds one wave's push audits: an overflowed push is
    // dropped, which would fail the wave spuriously.
    let mut daemon = Daemon::serve(&[
        "--workers",
        "1",
        "--queue",
        "1024",
        "--records",
        records.to_str().unwrap(),
    ]);
    let addr = daemon.addr.clone();
    // The watcher fleet, every initial event drained so each watcher is
    // idle when the threads are counted.
    let spec = AuditSpec::sia_size_based(vec![
        CandidateDeployment::replicated("S1+S2", ["S1", "S2"]),
        CandidateDeployment::replicated("S1+S3", ["S1", "S3"]),
    ]);
    let mut clients: Vec<Client> = (0..CONNS)
        .map(|_| Client::connect(&addr).expect("connect watcher"))
        .collect();
    let watchers: Vec<u64> = (0..SUBS)
        .map(|i| clients[i % CONNS].subscribe(&spec).expect("subscribe"))
        .collect();
    for (i, &sub) in watchers.iter().enumerate() {
        clients[i % CONNS]
            .next_event(sub, Some(WAVE_DEADLINE))
            .expect("initial event")
            .expect("initial event arrives");
    }

    let status = std::fs::read_to_string(format!("/proc/{}/status", daemon.child.id()))
        .expect("read /proc status");
    let threads = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .map(str::trim)
        .expect("Threads: line");
    assert_eq!(threads, "2", "{SUBS} idle watchers: loop + 1 worker only");

    // One wave: new hardware under S1 moves every subscription's pins.
    let mut admin = Client::connect(&addr).expect("connect admin");
    let wave = Instant::now();
    let ack = admin
        .ingest(r#"<hw="S1" type="Nic" dep="S1-nic"/>"#)
        .expect("wave ingest");
    for (i, &sub) in watchers.iter().enumerate() {
        let left = WAVE_DEADLINE
            .checked_sub(wave.elapsed())
            .unwrap_or_else(|| panic!("wave missed watcher #{i} within {WAVE_DEADLINE:?}"));
        let event = clients[i % CONNS]
            .next_event(sub, Some(left))
            .expect("wave event")
            .unwrap_or_else(|| panic!("wave missed watcher #{i} within {WAVE_DEADLINE:?}"));
        assert!(event.epoch >= ack.epoch, "watcher #{i} saw a stale epoch");
    }

    drop(clients);
    admin.shutdown().expect("shutdown");
    daemon.exits_cleanly();
    std::fs::remove_file(&records).ok();
}
