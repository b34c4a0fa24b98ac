//! The "thousand idle watchers" regression gate for the readiness-loop
//! core: hundreds of live audit subscriptions must cost the daemon
//! **zero** extra OS threads, and one ingest wave must still reach every
//! watcher promptly.
//!
//! Under the old thread-per-connection server each watcher held a
//! handler thread plus a writer thread alive for the life of its
//! subscription (512 watchers ≈ 1000+ daemon threads). The epoll loop
//! parks them all in one thread; this harness boots a real daemon
//! process, opens `--subs` subscriptions from one client process, then:
//!
//! 1. reads `Threads:` from `/proc/<daemon-pid>/status` and fails if it
//!    exceeds `--max-threads` (default 16: serve loop + worker pool);
//! 2. ingests one batch that touches the subscribed shards and fails
//!    unless every subscription sees the pushed epoch within
//!    `--deadline-ms`.
//!
//! By default it spawns `indaas serve` itself (found next to this
//! binary in the cargo target dir); pass `--addr` and `--daemon-pid` to
//! point it at an externally managed daemon instead.

#![forbid(unsafe_code)]

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use indaas_core::{AuditSpec, CandidateDeployment};
use indaas_service::Client;

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

/// The wave: new hardware under S1 bumps the shards every subscription
/// pins, so each watcher is owed exactly one fresh pushed epoch.
const WAVE: &str = r#"<hw="S1" type="Nic" dep="S1-nic"/>"#;

fn watch_spec() -> AuditSpec {
    AuditSpec::sia_size_based(vec![
        CandidateDeployment::replicated("S1+S2", ["S1", "S2"]),
        CandidateDeployment::replicated("S1+S3", ["S1", "S3"]),
    ])
}

struct Args {
    addr: Option<String>,
    daemon_pid: Option<u32>,
    subs: usize,
    conns: usize,
    deadline: Duration,
    max_threads: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        daemon_pid: None,
        subs: 512,
        conns: 16,
        deadline: Duration::from_millis(10_000),
        max_threads: 16,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--help" || flag == "-h" {
            eprintln!(
                "usage: idle_watchers [--addr HOST:PORT] [--daemon-pid PID] \
                 [--subs N] [--conns N] [--deadline-ms MS] [--max-threads N]"
            );
            std::process::exit(0);
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--addr" => args.addr = Some(value.clone()),
            "--daemon-pid" => {
                args.daemon_pid = Some(value.parse().map_err(|e| format!("--daemon-pid: {e}"))?)
            }
            "--subs" => args.subs = value.parse().map_err(|e| format!("--subs: {e}"))?,
            "--conns" => args.conns = value.parse().map_err(|e| format!("--conns: {e}"))?,
            "--deadline-ms" => {
                let ms: u64 = value.parse().map_err(|e| format!("--deadline-ms: {e}"))?;
                args.deadline = Duration::from_millis(ms);
            }
            "--max-threads" => {
                args.max_threads = value.parse().map_err(|e| format!("--max-threads: {e}"))?
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    if args.conns == 0 || args.subs == 0 {
        return Err("--subs and --conns must be at least 1".into());
    }
    args.conns = args.conns.min(args.subs);
    Ok(args)
}

/// OS thread count of `pid`, from `/proc/<pid>/status`.
fn thread_count(pid: u32) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("no Threads: line in /proc/{pid}/status"))
}

/// Spawns `indaas serve` (the binary next to ours in the target dir) on
/// an ephemeral-ish port and waits until it accepts connections. The
/// audit queue is sized to the watcher fleet: one ingest wave enqueues
/// one push audit per subscription, and overflowed pushes are dropped
/// (logged, not retried), which would fail the wave gate spuriously.
fn spawn_daemon(subs: usize) -> Result<(Child, String), String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let indaas = me
        .parent()
        .map(|d| d.join("indaas"))
        .filter(|p| p.exists())
        .ok_or("no `indaas` binary beside idle_watchers; build the workspace first")?;
    // Pick a free port by binding and releasing it; the daemon rebinds
    // it a moment later (a benign race on a CI box).
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map_err(|e| format!("probing for a free port: {e}"))?
        .port();
    let addr = format!("127.0.0.1:{port}");
    let queue = (subs * 2).max(256).to_string();
    let child = Command::new(indaas)
        .args([
            "serve",
            "--listen",
            &addr,
            "--slow-audit-ms",
            "0",
            "--queue",
            &queue,
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning indaas serve: {e}"))?;
    let boot = Instant::now();
    while std::net::TcpStream::connect(&addr).is_err() {
        if boot.elapsed() > Duration::from_secs(10) {
            return Err(format!("daemon never came up on {addr}"));
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    Ok((child, addr))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let (mut child, addr, pid): (Option<Child>, String, Option<u32>) = match &args.addr {
        Some(addr) => (None, addr.clone(), args.daemon_pid),
        None => {
            let (child, addr) = spawn_daemon(args.subs)?;
            let pid = child.id();
            (Some(child), addr, Some(pid))
        }
    };

    let result = drive(&args, &addr, pid);
    if let Some(child) = child.as_mut() {
        let _ = child.kill();
        let _ = child.wait();
    }
    result
}

fn drive(args: &Args, addr: &str, pid: Option<u32>) -> Result<(), String> {
    let spec = watch_spec();

    // Seed the topology the watchers audit.
    let mut admin = Client::connect(addr).map_err(|e| format!("connect admin: {e}"))?;
    admin.ingest(RECORDS).map_err(|e| format!("ingest: {e}"))?;

    // Open the watcher fleet: `--subs` subscriptions multiplexed over
    // `--conns` v2 sessions from this one process, initial events
    // drained so every watcher is *idle* when we measure.
    let mut clients = Vec::with_capacity(args.conns);
    for _ in 0..args.conns {
        clients.push(Client::connect(addr).map_err(|e| format!("connect watcher: {e}"))?);
    }
    let mut watchers = Vec::with_capacity(args.subs);
    for i in 0..args.subs {
        let sub = clients[i % args.conns]
            .subscribe(&spec)
            .map_err(|e| format!("subscribe #{i}: {e}"))?;
        watchers.push(sub);
    }
    for (i, sub) in watchers.iter_mut().enumerate() {
        sub.recv()
            .map_err(|e| format!("initial event for watcher #{i}: {e}"))?;
    }

    // Gate 1: all those idle watchers bought the daemon zero threads.
    if let Some(pid) = pid {
        let threads = thread_count(pid)?;
        println!(
            "idle_watchers: {} subscriptions over {} conns -> daemon at {} OS threads (cap {})",
            args.subs, args.conns, threads, args.max_threads
        );
        if threads > args.max_threads {
            return Err(format!(
                "daemon holds {threads} OS threads with {} idle subscriptions \
                 (cap {}): the readiness loop is leaking threads",
                args.subs, args.max_threads
            ));
        }
    } else {
        println!(
            "idle_watchers: {} subscriptions over {} conns (no --daemon-pid; thread gate skipped)",
            args.subs, args.conns
        );
    }

    // Gate 2: one ingest wave reaches every watcher within the deadline.
    let wave_start = Instant::now();
    let ack = admin
        .ingest(WAVE)
        .map_err(|e| format!("wave ingest: {e}"))?;
    for (i, sub) in watchers.iter_mut().enumerate() {
        let remaining = args
            .deadline
            .checked_sub(wave_start.elapsed())
            .ok_or_else(|| deadline_miss(i, args))?;
        let event = sub
            .recv_timeout(remaining)
            .map_err(|e| format!("wave event for watcher #{i}: {e}"))?
            .ok_or_else(|| deadline_miss(i, args))?;
        if event.epoch < ack.epoch {
            return Err(format!(
                "watcher #{i} saw stale epoch {} after wave epoch {}",
                event.epoch, ack.epoch
            ));
        }
    }
    println!(
        "idle_watchers: wave epoch {} reached all {} watchers in {:?} (deadline {:?})",
        ack.epoch,
        args.subs,
        wave_start.elapsed(),
        args.deadline
    );
    Ok(())
}

fn deadline_miss(watcher: usize, args: &Args) -> String {
    format!(
        "wave missed watcher #{watcher} of {}: deadline {:?} elapsed",
        args.subs, args.deadline
    )
}

fn main() {
    if let Err(e) = run() {
        eprintln!("idle_watchers: FAIL: {e}");
        std::process::exit(1);
    }
}
