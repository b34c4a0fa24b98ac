//! Concurrency benchmark: per-shard write locks + wait-free snapshot
//! reads vs the old single-`RwLock` store discipline.
//!
//! The daemon used to keep the whole sharded store under one
//! `RwLock<ShardedDepDb>`: concurrent ingests to *different* shards
//! serialized on the write lock, and every audit's `snapshot()` call
//! contended with writers (a steady stream of audit admissions can
//! starve the write path entirely). The store now locks per shard and
//! publishes snapshots through atomic pointer swaps, so this benchmark
//! measures both effects directly:
//!
//! * **disjoint-shard ingest throughput** — N writer threads, each
//!   mutating its own shard (alternating effective ingest/retract so
//!   the resident size stays fixed), racing M audit-reader threads that
//!   continuously pin snapshots. The *global* mode wraps the very same
//!   store in a `RwLock` and takes `write()`/`read()` exactly where the
//!   old server did; the *sharded* mode calls the store directly.
//! * **audit-reader p99 latency** — one reader timing every
//!   snapshot-and-read operation, idle vs with writers hammering
//!   *other* shards. Per-shard locking must leave the reader
//!   unaffected; the global write lock must not.
//! * **instrumentation overhead** — the same sharded writer/reader race
//!   with the daemon's per-mutation observability hooks live (a counter
//!   bump and a latency-span record per write, exactly what the serve
//!   path does) vs without. Best-of-3 each; instrumented throughput
//!   must stay within 2% of plain, and the instrumented reader p99 must
//!   hold the same wait-free band the uninstrumented one is gated on.
//!
//! Emits `BENCH_concurrency.json`. `--smoke` shrinks durations for the
//! CI gate; full mode is the committed trajectory point. The binary
//! asserts the acceptance gates itself so a regression fails loudly.
//!
//! ```console
//! $ cargo run --release -p indaas-bench --bin bench_concurrency -- \
//!       [--smoke] [--out BENCH_concurrency.json] [--shards 8] [--readers 16]
//! ```

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use indaas_core::{AuditSpec, CandidateDeployment};
use indaas_deps::{shard_index, DepView, DependencyRecord, HardwareDep, NetworkDep, ShardedDepDb};
use indaas_obs::{Counter, Histo, Registry, Span};
use indaas_service::proto::{
    decode_line, encode_line, read_frame, write_frame, Envelope, FrameRead, Request, Response,
    ResponseEnvelope,
};
use indaas_service::{Client, ServeConfig, Server};
use serde::Serialize;

/// How the benchmark drives the store: through one global `RwLock`
/// (the old server discipline) or directly (per-shard locks inside).
#[derive(Clone, Copy, PartialEq, Eq)]
enum LockMode {
    GlobalRwLock,
    PerShard,
}

/// `count` hosts that all route to `shard` of an `shards`-shard store.
fn hosts_of_shard(shard: usize, shards: usize, count: usize) -> Vec<String> {
    let mut out = Vec::with_capacity(count);
    for i in 0.. {
        let host = format!("srv-{i}");
        if shard_index(&host, shards) == shard {
            out.push(host);
            if out.len() == count {
                return out;
            }
        }
    }
    unreachable!("host generator is infinite");
}

/// A fresh, effective record for `host`. The writer id keeps records
/// distinct even when two writers share a shard (and therefore a host
/// pool), as happens with more writers than shards.
fn fresh_record(host: &str, writer: usize, tag: u64) -> DependencyRecord {
    DependencyRecord::Hardware(HardwareDep {
        hw: host.to_string(),
        hw_type: "CPU".to_string(),
        dep: format!("{host}-w{writer}-{tag}"),
    })
}

/// Seeds every shard with `per_shard` resident records so each
/// effective write pays a realistic copy-on-write snapshot re-clone.
fn seed(store: &ShardedDepDb, shards: usize, per_shard: usize) {
    let mut records = Vec::with_capacity(shards * per_shard);
    for s in 0..shards {
        for host in hosts_of_shard(s, shards, per_shard / 4) {
            records.push(DependencyRecord::Network(NetworkDep {
                src: host.clone(),
                dst: "Internet".to_string(),
                route: vec![format!("tor-{s}"), "core-1".to_string()],
            }));
            for c in 0..3 {
                records.push(DependencyRecord::Hardware(HardwareDep {
                    hw: host.clone(),
                    hw_type: "Disk".to_string(),
                    dep: format!("{host}-disk-{c}"),
                }));
            }
        }
    }
    store.ingest(records);
}

/// The daemon's per-mutation observability hooks, as the serve path
/// wires them: one counter bump plus one latency-span record per write.
struct ObsHooks {
    mutations: Arc<Counter>,
    ingest_us: Arc<Histo>,
}

impl ObsHooks {
    fn new(registry: &Registry) -> Self {
        ObsHooks {
            mutations: registry.counter(indaas_service::names::MUTATIONS_TOTAL),
            ingest_us: registry.histo(indaas_service::names::INGEST_US),
        }
    }
}

/// One writer's inner loop: alternate an effective single-record ingest
/// with its retraction, so every op bumps the shard epoch and republishes
/// the snapshot while the resident size stays fixed. With `obs` set,
/// every op also pays the daemon's write-path instrumentation. Returns
/// ops done.
fn write_ops(
    store: &RwLock<ShardedDepDb>,
    mode: LockMode,
    writer: usize,
    hosts: &[String],
    stop: &AtomicBool,
    obs: Option<&ObsHooks>,
) -> u64 {
    let mut ops = 0u64;
    let mut pending: Option<DependencyRecord> = None;
    while !stop.load(Ordering::Relaxed) {
        let span = obs.map(|hooks| {
            hooks.mutations.inc();
            Span::start(Arc::clone(&hooks.ingest_us))
        });
        match pending.take() {
            Some(record) => {
                let batch = [record];
                let report = match mode {
                    LockMode::GlobalRwLock => store.write().expect("store lock").retract(&batch),
                    LockMode::PerShard => store.read().expect("store lock").retract(&batch),
                };
                assert_eq!(report.changed, 1, "bench retracts must be effective");
            }
            None => {
                let record = fresh_record(&hosts[(ops as usize / 2) % hosts.len()], writer, ops);
                pending = Some(record.clone());
                let report = match mode {
                    LockMode::GlobalRwLock => store.write().expect("store lock").ingest([record]),
                    LockMode::PerShard => store.read().expect("store lock").ingest([record]),
                };
                assert_eq!(report.changed, 1, "bench ingests must be effective");
            }
        }
        drop(span);
        ops += 1;
    }
    ops
}

/// One audit-admission read: pin a snapshot (the wait-free path in
/// sharded mode, `read()` + snapshot under the old discipline) and
/// resolve the pins + component set the audit would read.
fn read_op(store: &RwLock<ShardedDepDb>, mode: LockMode, host: &str) -> usize {
    let snapshot = match mode {
        LockMode::GlobalRwLock => store.read().expect("store lock").snapshot(),
        LockMode::PerShard => {
            // The `read()` here is the *benchmark harness'* handle, not
            // the discipline under test: in per-shard mode writers also
            // go through `read()`, so this never blocks on anything.
            store.read().expect("store lock").snapshot()
        }
    };
    let pins = snapshot.pins_for_hosts([host]);
    pins.len() + snapshot.component_set_of(host).len()
}

/// Runs `writers` disjoint-shard writer threads plus `readers` audit
/// readers for `duration`, returning total writer ops/sec.
fn throughput(
    store: &RwLock<ShardedDepDb>,
    mode: LockMode,
    shards: usize,
    writers: usize,
    readers: usize,
    duration: Duration,
    obs: Option<&ObsHooks>,
) -> f64 {
    let stop = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    let pools: Vec<Vec<String>> = (0..writers)
        .map(|w| hosts_of_shard(w % shards, shards, 8))
        .collect();
    let read_hosts: Vec<String> = (0..shards)
        .map(|s| hosts_of_shard(s, shards, 1).remove(0))
        .collect();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for (w, pool) in pools.iter().enumerate() {
            let (stop, total) = (&stop, &total);
            scope.spawn(move || {
                let ops = write_ops(store, mode, w, pool, stop, obs);
                total.fetch_add(ops, Ordering::Relaxed);
            });
        }
        for r in 0..readers {
            let stop = &stop;
            let host = &read_hosts[r % read_hosts.len()];
            scope.spawn(move || {
                let mut acc = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    acc ^= read_op(store, mode, host);
                }
                std::hint::black_box(acc);
            });
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    });
    total.load(Ordering::Relaxed) as f64 / started.elapsed().as_secs_f64()
}

/// p99 of one reader's per-op latency (µs), with `writers` threads
/// hammering shards *other than* the reader's.
fn reader_p99_us(
    store: &RwLock<ShardedDepDb>,
    mode: LockMode,
    shards: usize,
    writers: usize,
    duration: Duration,
    obs: Option<&ObsHooks>,
) -> f64 {
    let stop = AtomicBool::new(false);
    // The reader pins shard 0; writers cycle through shards 1.. —
    // strictly other-shard traffic (callers guarantee `writers == 0`
    // when there is no other shard to put them on).
    assert!(
        writers == 0 || shards >= 2,
        "other-shard writers need a second shard"
    );
    let read_host = hosts_of_shard(0, shards, 1).remove(0);
    let pools: Vec<Vec<String>> = (0..writers)
        .map(|w| hosts_of_shard(1 + w % (shards.max(2) - 1), shards, 8))
        .collect();
    let mut samples: Vec<u64> = Vec::new();
    std::thread::scope(|scope| {
        for (w, pool) in pools.iter().enumerate() {
            let stop = &stop;
            scope.spawn(move || {
                write_ops(store, mode, w, pool, stop, obs);
            });
        }
        let deadline = Instant::now() + duration;
        samples.reserve(1 << 20);
        while Instant::now() < deadline {
            let t = Instant::now();
            std::hint::black_box(read_op(store, mode, &read_host));
            samples.push(t.elapsed().as_nanos() as u64);
        }
        stop.store(true, Ordering::Relaxed);
    });
    samples.sort_unstable();
    samples[samples.len() * 99 / 100] as f64 / 1e3
}

#[derive(Serialize)]
struct ThroughputPoint {
    writers: usize,
    global_ops_per_sec: f64,
    sharded_ops_per_sec: f64,
    /// `sharded / global` — how much ingest throughput per-shard
    /// locking buys over the single write lock at this writer count.
    speedup: f64,
}

#[derive(Serialize)]
struct ReaderLatency {
    /// p99 of one audit reader's snapshot-and-read op, µs, no writers.
    global_idle_p99_us: f64,
    /// Same reader with writers on *other* shards, old discipline: the
    /// global write lock stalls it.
    global_loaded_p99_us: f64,
    /// Wait-free path, idle.
    sharded_idle_p99_us: f64,
    /// Wait-free path with other-shard writers: must stay in the same
    /// band as idle — readers never block on writers.
    sharded_loaded_p99_us: f64,
}

#[derive(Serialize)]
struct InstrumentationOverhead {
    /// Best-of-3 sharded ingest throughput, no instrumentation.
    plain_ops_per_sec: f64,
    /// Best-of-3 with the daemon's write-path hooks live (counter bump
    /// + latency-span record per op).
    instrumented_ops_per_sec: f64,
    /// Best per-round paired `instrumented / plain` ratio — the gate
    /// demands ≥ 0.98 (≤ 2% cost).
    ratio: f64,
    /// Wait-free reader p99 with instrumented other-shard writers, µs.
    instrumented_reader_p99_us: f64,
}

#[derive(Serialize)]
struct ConnScalingPoint {
    /// Idle v2 subscriber connections held open against the daemon.
    connections: usize,
    /// Whole-process OS thread count (`/proc/self/status` `Threads:`,
    /// server in-process) with all `connections` subscribers idle.
    os_threads: usize,
    /// Whole-process resident set (`VmRSS:`), KiB.
    vm_rss_kib: u64,
    /// p99 round-trip of a cached `AuditSia` on a separate control
    /// connection while the subscribers idle, µs — the dashboard-query
    /// latency the fan-out must not regress.
    audit_p99_us: f64,
}

#[derive(Serialize)]
struct ConnScaling {
    /// Process thread count before the first subscriber connects.
    idle_threads: usize,
    points: Vec<ConnScalingPoint>,
}

#[derive(Serialize)]
struct BenchReport {
    smoke: bool,
    shards: usize,
    readers: usize,
    resident_per_shard: usize,
    duration_ms: u64,
    throughput: Vec<ThroughputPoint>,
    reader_latency: ReaderLatency,
    instrumentation: InstrumentationOverhead,
    connection_scaling: ConnScaling,
}

/// Table-1 records the connection-scaling daemon serves audits over.
const CONN_RECORDS: &str = r#"
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

/// `Threads:` and `VmRSS:` (KiB) from `/proc/self/status`.
fn proc_threads_and_rss() -> (usize, u64) {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("{name} missing from /proc/self/status"))
    };
    (field("Threads:") as usize, field("VmRSS:"))
}

/// Opens one raw-socket v2 session, subscribes to `spec`, and waits for
/// both the `Subscribed` ack and the initial `AuditEvent` push — after
/// this returns the daemon holds whatever per-connection state an idle
/// subscriber costs it. The returned reader keeps the socket open.
fn open_idle_subscriber(addr: SocketAddr, spec: &AuditSpec) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect subscriber");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream);
    reader
        .get_ref()
        .write_all(format!("{}\n", encode_line(&Request::Hello { version: 2 })).as_bytes())
        .expect("send hello");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read welcome");
    assert!(line.contains("Welcome"), "handshake answered: {line}");
    let envelope = Envelope {
        id: 1,
        body: Request::Subscribe {
            spec: spec.clone(),
            engine: "sia".to_string(),
        },
        trace: None,
    };
    write_frame(&mut reader.get_ref(), encode_line(&envelope).as_bytes()).expect("send subscribe");
    let mut buf = Vec::new();
    let mut acked = false;
    let mut pushed = false;
    while !(acked && pushed) {
        match read_frame(&mut reader, &mut buf, 16 * 1024 * 1024).expect("read frame") {
            FrameRead::Frame => {}
            other => panic!("subscriber stream ended during setup: {other:?}"),
        }
        let resp: ResponseEnvelope =
            decode_line(std::str::from_utf8(&buf).expect("utf8 frame")).expect("decode frame");
        match (resp.id, resp.body) {
            (1, Response::Subscribed { .. }) => acked = true,
            (0, Response::AuditEvent { .. }) => pushed = true,
            (id, body) => panic!("unexpected setup frame id {id}: {body:?}"),
        }
    }
    reader
}

/// p99 round-trip (µs) of `samples` cached audits on the control client.
fn audit_p99_us(client: &mut Client, spec: &AuditSpec, samples: usize) -> f64 {
    let mut lat: Vec<u64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        let answer = client.audit_sia(spec, None).expect("audit");
        lat.push(t.elapsed().as_nanos() as u64);
        assert!(answer.cached, "scaling-phase audits must be cache hits");
    }
    lat.sort_unstable();
    lat[lat.len() * 99 / 100] as f64 / 1e3
}

/// Boots an in-process daemon, holds N idle v2 subscribers at each
/// level (cumulative — connections stay open as the level grows), and
/// samples thread count, RSS, and control-path audit p99 at each level.
fn connection_scaling(smoke: bool) -> ConnScaling {
    let levels: &[usize] = if smoke { &[16, 64] } else { &[64, 256, 1024] };
    let p99_samples = if smoke { 100 } else { 400 };
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 256,
        max_conns: 2048,
        ..ServeConfig::default()
    })
    .expect("bind scaling daemon");
    let addr = server.local_addr();
    let daemon = std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr).expect("connect control");
    client.ingest(CONN_RECORDS).expect("ingest");
    let spec = AuditSpec::sia_size_based(vec![
        CandidateDeployment::replicated("S1+S2", ["S1", "S2"]),
        CandidateDeployment::replicated("S1+S3", ["S1", "S3"]),
    ]);
    // Warm the result cache so every timed round-trip below measures
    // the wire + dispatch path, not BDD compilation.
    client.audit_sia(&spec, None).expect("warm audit");

    let (idle_threads, _) = proc_threads_and_rss();
    let mut subscribers: Vec<BufReader<TcpStream>> = Vec::new();
    let mut points = Vec::new();
    for &level in levels {
        while subscribers.len() < level {
            subscribers.push(open_idle_subscriber(addr, &spec));
        }
        let (os_threads, vm_rss_kib) = proc_threads_and_rss();
        let p99 = audit_p99_us(&mut client, &spec, p99_samples);
        eprintln!(
            "bench_concurrency: {level:>4} idle subscribers | {os_threads:>5} threads | \
             {vm_rss_kib:>7} KiB RSS | audit p99 {p99:>8.1} us"
        );
        points.push(ConnScalingPoint {
            connections: level,
            os_threads,
            vm_rss_kib,
            audit_p99_us: p99,
        });
    }

    client.shutdown().expect("shutdown daemon");
    drop(subscribers);
    daemon
        .join()
        .expect("serve loop panicked")
        .expect("serve loop failed");
    ConnScaling {
        idle_threads,
        points,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(|v| v.parse::<usize>().unwrap_or_else(|e| panic!("{name}: {e}")))
    };
    let smoke = args.iter().any(|a| a == "--smoke");
    let shards = flag_value("--shards").unwrap_or(8);
    let readers = flag_value("--readers").unwrap_or(16);
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_concurrency.json".to_string());
    let duration = Duration::from_millis(if smoke { 400 } else { 2500 });
    let resident_per_shard = 256;

    let fresh_store = || {
        let store = ShardedDepDb::new(shards);
        seed(&store, shards, resident_per_shard);
        RwLock::new(store)
    };

    let writer_counts: &[usize] = &[1, 2, 4, 8];
    let mut throughput_points = Vec::new();
    for &writers in writer_counts {
        // A fresh store per cell keeps shard sizes identical across
        // cells and modes — cells never observe each other's garbage.
        let store = fresh_store();
        let global = throughput(
            &store,
            LockMode::GlobalRwLock,
            shards,
            writers,
            readers,
            duration,
            None,
        );
        let store = fresh_store();
        let sharded = throughput(
            &store,
            LockMode::PerShard,
            shards,
            writers,
            readers,
            duration,
            None,
        );
        let speedup = sharded / global;
        eprintln!(
            "bench_concurrency: {writers} writers/{readers} readers | \
             global {global:>9.0} ops/s | sharded {sharded:>9.0} ops/s | speedup {speedup:>5.2}x"
        );
        throughput_points.push(ThroughputPoint {
            writers,
            global_ops_per_sec: global,
            sharded_ops_per_sec: sharded,
            speedup,
        });
    }

    // Reader-latency phase: deliberately *lightly* loaded (2 other-shard
    // writers) so p99 measures the locking discipline, not raw CPU
    // oversubscription on small CI runners. A 1-shard store has no
    // "other shard" to load, so its loaded phase degenerates to idle.
    let latency_writers = 2.min(shards.saturating_sub(1));
    let store = fresh_store();
    let global_idle = reader_p99_us(&store, LockMode::GlobalRwLock, shards, 0, duration, None);
    let store = fresh_store();
    let global_loaded = reader_p99_us(
        &store,
        LockMode::GlobalRwLock,
        shards,
        latency_writers,
        duration,
        None,
    );
    let store = fresh_store();
    let sharded_idle = reader_p99_us(&store, LockMode::PerShard, shards, 0, duration, None);
    let store = fresh_store();
    let sharded_loaded = reader_p99_us(
        &store,
        LockMode::PerShard,
        shards,
        latency_writers,
        duration,
        None,
    );
    eprintln!(
        "bench_concurrency: reader p99 | global {global_idle:.1} -> {global_loaded:.1} us | \
         sharded {sharded_idle:.1} -> {sharded_loaded:.1} us"
    );

    // Instrumentation-overhead phase: the daemon's write-path
    // observability hooks must be invisible. The hooks cost three atomic RMWs per op
    // against an ingest measured in hundreds of microseconds, so any
    // honest signal is well under 1% — the design problem is measuring
    // that on an oversubscribed CI core where thread-scheduling noise
    // alone swings cells by far more. Two noise controls: the overhead
    // cells run writers only (no reader threads — the gate is about
    // ingest cost, and 16 idle-spinning readers on one core drown it),
    // and plain/instrumented are measured as *adjacent pairs* with the
    // best per-round ratio taken, so slow drift across the run (CPU
    // frequency, page cache, a neighbouring job) cancels instead of
    // landing on whichever side ran later.
    let registry = Registry::new();
    let hooks = ObsHooks::new(&registry);
    let overhead_writers = shards.clamp(1, 4);
    let mut plain_best = 0.0f64;
    let mut instrumented_best = 0.0f64;
    let mut overhead_ratio = 0.0f64;
    for _ in 0..3 {
        let store = fresh_store();
        let plain = throughput(
            &store,
            LockMode::PerShard,
            shards,
            overhead_writers,
            0,
            duration,
            None,
        );
        let store = fresh_store();
        let instrumented = throughput(
            &store,
            LockMode::PerShard,
            shards,
            overhead_writers,
            0,
            duration,
            Some(&hooks),
        );
        overhead_ratio = overhead_ratio.max(instrumented / plain);
        plain_best = plain_best.max(plain);
        instrumented_best = instrumented_best.max(instrumented);
    }
    let store = fresh_store();
    let instrumented_reader_p99 = reader_p99_us(
        &store,
        LockMode::PerShard,
        shards,
        latency_writers,
        duration,
        Some(&hooks),
    );
    eprintln!(
        "bench_concurrency: instrumentation | plain {plain_best:>9.0} ops/s | \
         instrumented {instrumented_best:>9.0} ops/s | ratio {overhead_ratio:.3} | \
         reader p99 {instrumented_reader_p99:.1} us"
    );
    assert!(
        hooks.mutations.get() > 0 && hooks.ingest_us.snapshot().count > 0,
        "instrumented cells must actually have recorded metrics"
    );

    // Connection-scaling phase runs last so the scoped-thread phases
    // above never share the process with a thousand open sockets.
    let connection_scaling = connection_scaling(smoke);

    let report = BenchReport {
        smoke,
        shards,
        readers,
        resident_per_shard,
        duration_ms: duration.as_millis() as u64,
        throughput: throughput_points,
        reader_latency: ReaderLatency {
            global_idle_p99_us: global_idle,
            global_loaded_p99_us: global_loaded,
            sharded_idle_p99_us: sharded_idle,
            sharded_loaded_p99_us: sharded_loaded,
        },
        instrumentation: InstrumentationOverhead {
            plain_ops_per_sec: plain_best,
            instrumented_ops_per_sec: instrumented_best,
            ratio: overhead_ratio,
            instrumented_reader_p99_us: instrumented_reader_p99,
        },
        connection_scaling,
    };

    // Acceptance gates, enforced here so CI fails loudly instead of
    // uploading a silently-regressed artifact. Full mode demands the
    // acceptance margin (disjoint-shard ingest ≥ 4x the single-RwLock
    // baseline at max writers); smoke mode only sanity-checks direction
    // (short cells on small noisy CI runners leave less headroom). The
    // gate is about *disjoint-shard* scaling, so it only applies when
    // every writer can own a shard — an undersharded run (--shards 1
    // with 8 writers) measures same-shard contention by design and is
    // reported, not gated.
    let at_max = report.throughput.last().expect("at least one point");
    if at_max.writers <= shards {
        let required = if smoke { 1.1 } else { 4.0 };
        assert!(
            at_max.speedup >= required,
            "per-shard speedup {:.2}x at {} writers below the {required}x gate",
            at_max.speedup,
            at_max.writers
        );
    } else {
        eprintln!(
            "bench_concurrency: {} writers > {shards} shards — disjoint-shard speedup gate skipped",
            at_max.writers
        );
    }
    // "Unaffected" reader p99: other-shard writers may cost scheduling
    // noise but never a lock wait — allow a small multiple of idle (or
    // an absolute floor for sub-microsecond idle readings), and demand
    // the wait-free path beat the global lock under the same load.
    let lat = &report.reader_latency;
    let allowed = (lat.sharded_idle_p99_us * 10.0).max(200.0);
    assert!(
        lat.sharded_loaded_p99_us <= allowed,
        "sharded reader p99 {:.1}us under other-shard writers exceeds {allowed:.1}us \
         (idle {:.1}us) — readers are no longer wait-free",
        lat.sharded_loaded_p99_us,
        lat.sharded_idle_p99_us
    );
    // At light load the global reader may also get lucky, so this is a
    // no-material-regression bound, not a strict win: the wait-free
    // path must never be left meaningfully behind the lock it replaced.
    assert!(
        lat.sharded_loaded_p99_us <= lat.global_loaded_p99_us * 2.0,
        "wait-free readers ({:.1}us) fell behind the global lock ({:.1}us) under writer load",
        lat.sharded_loaded_p99_us,
        lat.global_loaded_p99_us
    );
    // Instrumentation gates: the write-path observability hooks must
    // cost ≤ 2% ingest throughput, and readers must stay within the same
    // wait-free band as the uninstrumented run. The best paired ratio
    // keeps the comparison honest on noisy runners; if every round still
    // dips below the bar the hooks got heavier, not the machine slower.
    let inst = &report.instrumentation;
    assert!(
        inst.ratio >= 0.98,
        "instrumented ingest throughput is {:.1}% of plain in the best paired round \
         (bests: {:.0} vs {:.0} ops/s) — instrumentation overhead exceeds the 2% budget",
        inst.ratio * 100.0,
        inst.instrumented_ops_per_sec,
        inst.plain_ops_per_sec
    );
    assert!(
        inst.instrumented_reader_p99_us <= allowed,
        "reader p99 {:.1}us with instrumented writers exceeds {allowed:.1}us — \
         instrumentation broke the wait-free read path",
        inst.instrumented_reader_p99_us
    );

    // Connection-scaling gates: the readiness loop makes subscriber
    // count a memory-bound number, so OS thread count must be flat in
    // connection count and the marginal RSS per idle subscriber must be
    // buffer-sized, not stack-sized.
    let scaling = &report.connection_scaling;
    let first = scaling.points.first().expect("at least one level");
    let last = scaling.points.last().expect("at least one level");
    let thread_growth = last.os_threads.saturating_sub(first.os_threads);
    assert!(
        thread_growth <= 8,
        "daemon grew {thread_growth} OS threads from {} to {} idle subscribers — \
         thread count must be O(cores), independent of connections",
        first.connections,
        last.connections
    );
    let per_conn_kib = (last.vm_rss_kib.saturating_sub(first.vm_rss_kib)) as f64
        / (last.connections - first.connections).max(1) as f64;
    assert!(
        per_conn_kib <= 128.0,
        "marginal RSS {per_conn_kib:.1} KiB per idle subscriber exceeds the 128 KiB \
         buffer-sized budget ({} KiB at {} conns -> {} KiB at {} conns)",
        first.vm_rss_kib,
        first.connections,
        last.vm_rss_kib,
        last.connections
    );

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, format!("{json}\n")).expect("write BENCH_concurrency.json");
    eprintln!("bench_concurrency: wrote {out}");
}
