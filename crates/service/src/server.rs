//! The continuous auditing daemon.
//!
//! One readiness loop ([`crate::netloop`]), a fixed [`Scheduler`] pool
//! doing the actual audit work, and **zero idle threads**: every client
//! connection — v1 line mode and multiplexed v2 frames alike — is
//! served by the single epoll loop, which parses requests, consults the
//! audit-result cache, and admits real work onto the pool with a
//! response slot the job fulfills when done. Responses and pushed
//! [`Response::AuditEvent`] frames share each connection's bounded
//! outbox ([`crate::subs::Outbox`]) — a slow consumer sheds its oldest
//! events and never blocks anything — drained by the loop on
//! writability. A slow audit can never starve protocol handling, and an
//! idle connection costs a poll registration, not two thread stacks.
//!
//! This module owns everything that is not the loop itself: the config,
//! the shared [`ServiceState`], the request handlers the loop's one
//! dispatch `match` calls (`ingest`, `status`, `metrics`, `trace_get`,
//! `admit_sia`, `admit_pia`, `register_subscription`), subscriptions
//! and persistence. Federation peer sessions and parties are loop state
//! in [`crate::federation`].
//!
//! Every audit that runs on the worker pool — an `AuditSia` or
//! `AuditPia` miss, or a subscription push — is one `submit_audit` job:
//! it owns the crash guard, the trace scope, the queue-wait and
//! audit-level spans and the per-engine audit metrics; the caller says
//! only what to run and how to deliver the result.
//!
//! Subscriptions ride the single write path: every mutation asks the
//! [`SubscriptionRegistry`] which live subscriptions it invalidated
//! (their `(shard, epoch)` pins moved) and schedules one pushed audit
//! per hit on the worker pool at once — the ingest itself never waits.
//!
//! Data flow for an `AuditSia` request (a push runs steps 1–2 and 4 in
//! its pool job):
//!
//! 1. pin a copy-on-write [`DbSnapshot`] — one short uncontended lock
//!    per shard to clone its `Arc` and read its epoch, never held
//!    across a writer's clone;
//! 2. content-hash `(epoch pins of the shards the spec reads, spec)` →
//!    cache hit ⇒ answer immediately with `cached: true`, the cached
//!    report text spliced into the answer;
//! 3. miss ⇒ submit a job carrying the snapshot and a deadline-armed
//!    [`CancelToken`]; the worker runs the cancellable audit entry point
//!    and fulfills the request's response slot itself;
//! 4. the worker encodes the report once and inserts that text into the
//!    cache keyed by the *pinned* shard epochs (a concurrent ingest
//!    bumps a read shard's epoch, so the entry is already stale and
//!    unreachable — and purged on the next ingest; ingests to *other*
//!    shards leave it hot).
//!
//! Writes take no global lock: the [`ShardedDepDb`] routes each batch
//! by host shard before locking, then locks only the touched shards —
//! concurrent ingests to different hosts' shards land in parallel.
//! Per-shard write counters and a `lock_waits` contention gauge surface
//! through `Status`.
//!
//! With [`ServeConfig::db_dir`] set, the store persists as one segment
//! file per shard plus a manifest: dirty shards are saved on collector
//! ticks and at shutdown, every file crash-safely (temp + rename).

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use indaas_core::{AuditSpec, AuditingAgent, CancelToken};
use indaas_deps::{
    DbSnapshot, DepView, DependencyAcquisitionModule, DependencyRecord, Epoch, ShardedDepDb,
};
use indaas_obs::{format_trace_id, log as slog, Span, SpanRecord, TraceContext, TraceScope};
use indaas_pia::{rank_deployments_cancellable, PiaRanking, PsopConfig};

use crate::cache::{job_key, AuditCache, EpochPins, JobKey};
use crate::federation::PeerAllowList;
use crate::names;
use crate::netloop::{CrashGuard, LoopShared, ResponseSlot, TimerEvent};
use crate::proto::{
    audit_event_body, encode_line, frame_answer, sia_body, Request, Response, SlotEncoding,
    SpanEntry, EVENT_ENVELOPE_ID,
};
use crate::scheduler::Scheduler;
use crate::subs::{Outbox, SubscriptionRegistry};
use crate::telemetry::{audit_attrs, wire_histos, StageRecorder, Telemetry, DEFAULT_RECENT_AUDITS};

/// Daemon tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Audit worker threads.
    pub workers: usize,
    /// Bounded job-queue capacity (admission control).
    pub queue_capacity: usize,
    /// Audit-result cache capacity, in entries.
    pub cache_capacity: usize,
    /// Deadline applied to jobs whose request carries no `timeout_ms`.
    pub default_deadline: Duration,
    /// Hard ceiling on client-supplied `timeout_ms` — a request cannot
    /// arm a longer deadline than this (admission control would be
    /// defeated by `timeout_ms: u64::MAX`).
    pub max_deadline: Duration,
    /// Default per-round deadline for federated protocol rounds (a
    /// `FederateStart` may shorten it, clamped here at the top).
    pub round_timeout: Duration,
    /// The node name this daemon announces in federation handshakes
    /// (`serve --node`); `None` announces the bound listen address.
    pub node: Option<String>,
    /// Federation peer allow-list (`serve --peer`), resolved once at
    /// bind: handshakes and successors must match it. Empty accepts any
    /// peer.
    pub peers: Vec<String>,
    /// Re-run the registered dependency collectors this often, ingesting
    /// whatever they report (`None` disables the timer).
    pub collect_interval: Option<Duration>,
    /// Dependency-store shards (clamped to at least 1). More shards
    /// make ingest cheaper (only the touched shard's snapshot is
    /// re-cloned), write concurrency wider (writers lock only the
    /// shards they touch) and cache invalidation narrower (audits
    /// pinned to untouched shards stay cached); the cost is `shards`
    /// short locks per snapshot.
    pub shards: usize,
    /// Segmented persistence directory. The daemon saves dirty shards
    /// into it after every collector tick and at shutdown — each file
    /// written crash-safely. [`Server::bind`] does not load it: the
    /// caller opens the store from it ([`ShardedDepDb::open`]) and hands
    /// that to `bind`. `None` keeps the store memory-only.
    pub db_dir: Option<PathBuf>,
    /// Most concurrently served client connections. A connection past
    /// the limit is answered with one clear protocol error and dropped
    /// before it can claim a handler thread's stack or a subscription
    /// slot — unbounded fan-in degrades into fast, explicit rejection
    /// instead of thread exhaustion.
    pub max_conns: usize,
    /// Slow threshold: an audit whose span reaches this many
    /// milliseconds renders as slow in `indaas metrics`/`indaas top`
    /// (the `Metrics` answer carries the threshold). `0` marks
    /// everything (useful in tests).
    pub slow_audit_ms: u64,
    /// Minimum severity the structured logger emits (process-global;
    /// applied at bind).
    pub log_level: indaas_obs::LogLevel,
    /// Emit log lines as one JSON object per line instead of text
    /// (process-global; applied at bind).
    pub log_json: bool,
    /// Fault-injection specs (`<point>=<policy>[:prob][:seed]`, see
    /// `indaas-faultinj`) armed at bind. The registry is
    /// process-global; this field exists so `serve --fault` arms it
    /// through the same config surface as everything else. Empty (the
    /// default) leaves injection entirely off — a single relaxed atomic
    /// load per point.
    pub faults: Vec<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:4914".to_string(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get().saturating_sub(1).clamp(1, 8))
                .unwrap_or(2),
            queue_capacity: 256,
            cache_capacity: 4096,
            default_deadline: Duration::from_secs(30),
            max_deadline: Duration::from_secs(300),
            round_timeout: Duration::from_secs(10),
            node: None,
            peers: Vec::new(),
            collect_interval: None,
            shards: 8,
            db_dir: None,
            max_conns: 1024,
            slow_audit_ms: 1000,
            log_level: indaas_obs::LogLevel::Info,
            log_json: false,
            faults: Vec::new(),
        }
    }
}

pub(crate) struct ServiceState {
    pub(crate) config: ServeConfig,
    /// The sharded dependency store — shared directly, **no global
    /// lock**. Each shard carries its own write mutex and publishes its
    /// copy-on-write snapshot and epoch together under a short lock, so
    /// concurrent ingests to different shards land in parallel and
    /// snapshotting for an audit is N uncontended locks regardless of
    /// database size or writer traffic.
    pub(crate) db: ShardedDepDb,
    /// SIA results as their wire text: each entry is exactly what
    /// `encode_line(&report)` produced, written once by the worker that
    /// computed the report; every answer splices it in
    /// ([`crate::proto::sia_body`], [`crate::proto::audit_event_body`]).
    pub(crate) sia_cache: Mutex<AuditCache<Arc<str>>>,
    pub(crate) pia_cache: Mutex<AuditCache<Vec<PiaRanking>>>,
    pub(crate) scheduler: Scheduler,
    pub(crate) started: Instant,
    pub(crate) shutting_down: AtomicBool,
    /// Mutations currently inside [`apply_mutation`]. The shutdown path
    /// waits for this to drain before its final segment save, so an
    /// acknowledged ingest can never slip in after the last save and
    /// vanish with the process (mutations arriving after the shutdown
    /// flag are rejected instead of acknowledged).
    pub(crate) in_flight_mutations: AtomicU64,
    pub(crate) local_addr: SocketAddr,
    /// The federation node name: [`ServeConfig::node`] or the bound
    /// address.
    pub(crate) node: String,
    /// [`ServeConfig::peers`], resolved at bind.
    pub(crate) peers: PeerAllowList,
    pub(crate) collectors: Mutex<Vec<Box<dyn DependencyAcquisitionModule + Send>>>,
    /// Live audit subscriptions across every v2 connection; the single
    /// write path asks it which ones each batch invalidated.
    pub(crate) subs: SubscriptionRegistry,
    /// `AuditEvent` frames enqueued to subscriber outboxes since start.
    pub(crate) pushed_events: AtomicU64,
    /// Client connections currently being served (v1, v2 and federation
    /// peer sessions alike) — compared against [`ServeConfig::max_conns`].
    pub(crate) active_conns: AtomicUsize,
    /// Connection-id source: ties subscriptions to the connection that
    /// made them so teardown and `Unsubscribe` ownership checks work.
    pub(crate) next_conn_id: AtomicU64,
    /// Metrics registry + span store + hot-path handles.
    pub(crate) telemetry: Arc<Telemetry>,
    /// The running readiness loop's cross-thread face — `Some` while
    /// [`Server::run`] is inside the loop. Shutdown reaches the loop
    /// through it.
    pub(crate) loop_shared: Mutex<Option<Arc<LoopShared>>>,
}

/// A bound (but not yet serving) daemon.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServiceState>,
}

impl Server {
    /// Binds the listener and spawns the worker pool over `store` —
    /// typically [`ShardedDepDb::new`], or [`ShardedDepDb::open`] on
    /// [`ServeConfig::db_dir`]. Files that store's load quarantined are
    /// counted into `db_segments_quarantined_total`.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind(config: ServeConfig, store: ShardedDepDb) -> std::io::Result<Self> {
        slog::set_level(config.log_level);
        slog::set_json(config.log_json);
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let node = config
            .node
            .clone()
            .unwrap_or_else(|| local_addr.to_string());
        // The only resolver calls federation makes outside a party's own
        // pool job: handshakes on the loop match against these.
        let peers = PeerAllowList::resolve_at_bind(&config.peers);
        let telemetry = Arc::new(Telemetry::new(config.slow_audit_ms));
        // Chaos arming happens before the listener serves anything (the
        // CLI additionally arms before opening the store, so boot-time
        // loads are covered too; re-arming is harmless). The observer
        // hook surfaces each firing as `faults_injected_total`.
        if !config.faults.is_empty() {
            for spec in &config.faults {
                indaas_faultinj::arm(spec)
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
            }
            let injected = Arc::clone(&telemetry.faults_injected_total);
            indaas_faultinj::set_observer(move |point| {
                injected.add(1);
                slog::warn("faultinj", &format!("fault fired at {point}"));
            });
            slog::warn(
                "serve",
                &format!("fault injection ARMED: {}", config.faults.join(", ")),
            );
        }
        let quarantined = store.quarantined().len() as u64;
        if quarantined > 0 {
            telemetry.db_segments_quarantined_total.add(quarantined);
            slog::warn(
                "serve",
                &format!(
                    "boot-time load quarantined {quarantined} corrupt db file(s); serving survivors"
                ),
            );
        }
        let state = Arc::new(ServiceState {
            scheduler: Scheduler::with_metrics(
                config.workers,
                config.queue_capacity,
                Some(telemetry.sched_metrics()),
            ),
            sia_cache: Mutex::new(AuditCache::new(config.cache_capacity)),
            pia_cache: Mutex::new(AuditCache::new(config.cache_capacity)),
            db: store,
            started: Instant::now(),
            shutting_down: AtomicBool::new(false),
            in_flight_mutations: AtomicU64::new(0),
            local_addr,
            node,
            peers,
            config,
            collectors: Mutex::new(Vec::new()),
            subs: SubscriptionRegistry::new(),
            pushed_events: AtomicU64::new(0),
            active_conns: AtomicUsize::new(0),
            next_conn_id: AtomicU64::new(1),
            telemetry,
            loop_shared: Mutex::new(None),
        });
        Ok(Server { listener, state })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// Registers a dependency collector the daemon re-runs on the
    /// [`ServeConfig::collect_interval`] timer, streaming whatever it
    /// reports through the normal ingest path (epoch bumps, snapshot
    /// refresh and cache invalidation included).
    pub fn add_collector(&self, collector: Box<dyn DependencyAcquisitionModule + Send>) {
        self.state
            .collectors
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(collector);
    }

    /// Serves until a `Shutdown` request arrives (or
    /// [`ServerHandle::shutdown`] is called): the readiness loop owns
    /// every connection; audits run on the shared worker pool.
    ///
    /// # Errors
    ///
    /// Propagates readiness-loop I/O failures.
    pub fn run(self) -> std::io::Result<()> {
        let result = crate::netloop::run_loop(self.listener, &self.state);
        // The loop has drained: no connection can submit new jobs, so
        // the pool joins cleanly here (idempotent with `Drop`).
        self.state.scheduler.shutdown_and_join();
        // Final persistence: wait out mutations already past the
        // shutdown gate (new ones are rejected), then save until a pass
        // writes nothing — every acknowledged record reaches disk. The
        // wait is bounded: mutations are short, their counter is
        // panic-safe (`InFlightGuard`), and a wedged worker must not
        // turn shutdown into a hang — after the deadline the save runs
        // with whatever landed.
        let drain_deadline = Instant::now() + Duration::from_secs(5);
        while self.state.in_flight_mutations.load(Ordering::SeqCst) > 0
            && Instant::now() < drain_deadline
        {
            std::thread::yield_now();
        }
        for _ in 0..16 {
            match save_dirty(&self.state) {
                Some(written) if written > 0 => continue,
                _ => break,
            }
        }
        result
    }

    /// Spawns [`Server::run`] on a background thread and returns a
    /// handle that can stop it cleanly — the supported way to embed a
    /// daemon in tests and tools, replacing detached
    /// `thread::spawn(|| server.run())` with a real join.
    ///
    /// # Errors
    ///
    /// Propagates thread-spawn failure.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr();
        let state = Arc::clone(&self.state);
        let thread = std::thread::Builder::new()
            .name("indaas-serve".to_string())
            .spawn(move || self.run())?;
        Ok(ServerHandle {
            addr,
            state,
            thread,
        })
    }
}

/// A running daemon spawned with [`Server::spawn`]: carries its bound
/// address and the means to stop it without a protocol round-trip.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServiceState>,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates shutdown (same path as a protocol `Shutdown` request:
    /// subscribers get the farewell push, queued frames flush, dirty
    /// segments save) and joins the serve thread.
    ///
    /// # Errors
    ///
    /// Propagates the serve loop's exit result; a panicked serve thread
    /// surfaces as an error rather than propagating the panic.
    pub fn shutdown(self) -> std::io::Result<()> {
        initiate_shutdown(&self.state);
        self.thread
            .join()
            .map_err(|_| std::io::Error::other("server thread panicked"))?
    }
}

/// Persists dirty shards into the configured db directory. Returns the
/// segments written, or `None` without a db dir or on failure. Failures
/// are logged, never fatal: a daemon that cannot reach its disk keeps
/// serving from memory and retries on the next tick — the dirty flags
/// survive a failed save.
pub(crate) fn save_dirty(state: &ServiceState) -> Option<usize> {
    let dir = state.config.db_dir.as_ref()?;
    match state.db.save_dirty_segments(dir) {
        Ok(written) => {
            state.telemetry.db_segment_saves_total.add(written as u64);
            Some(written)
        }
        Err(e) => {
            slog::error(
                "server",
                &format!("saving segments to {} failed: {e}", dir.display()),
            );
            None
        }
    }
}

/// Largest accepted request line. Ingest batches are the big consumer;
/// 16 MiB comfortably holds millions of Table-1 records per line while
/// bounding per-connection memory. Protocol-v2 request frames share the
/// same bound.
pub const MAX_REQUEST_LINE: u64 = 16 * 1024 * 1024;

/// Most requests one protocol-v2 connection may have unanswered at
/// once. Each in-flight request holds a response slot and (on a cache
/// miss) a queue ticket on the worker pool, so the cap bounds what a
/// single pipelining client can pin.
pub const MAX_IN_FLIGHT_REQUESTS: usize = 64;

/// The span name a dispatched request is recorded under.
pub(crate) fn request_kind(request: &Request) -> &'static str {
    match request {
        Request::Ping => "request:Ping",
        Request::Hello { .. } => "request:Hello",
        Request::Ingest { .. } => "request:Ingest",
        Request::Retract { .. } => "request:Retract",
        Request::AuditSia { .. } => "request:AuditSia",
        Request::AuditPia { .. } => "request:AuditPia",
        Request::Status => "request:Status",
        Request::Metrics { .. } => "request:Metrics",
        Request::Trace { .. } => "request:Trace",
        Request::Subscribe { .. } => "request:Subscribe",
        Request::Unsubscribe { .. } => "request:Unsubscribe",
        Request::Shutdown => "request:Shutdown",
        Request::FederateHello { .. } => "request:FederateHello",
        Request::FederateStart { .. } => "request:FederateStart",
    }
}

/// Validates a `Subscribe` and registers it, pinned to the spec's
/// shards. Returns the new subscription id and the spec (for the
/// caller to schedule the initial pushed audit *after* it enqueued the
/// `Subscribed` response), or the error message to send instead.
pub(crate) fn register_subscription(
    state: &Arc<ServiceState>,
    spec: AuditSpec,
    engine: &str,
    outbox: &Arc<Outbox>,
    conn: u64,
) -> Result<(u64, AuditSpec), String> {
    if engine != "sia" {
        return Err(format!(
            "unknown subscription engine {engine:?} (only \"sia\" audits read the \
             dependency database and can go stale)"
        ));
    }
    if let Err(e) = validate_spec(&spec) {
        return Err(format!("invalid spec: {e}"));
    }
    if spec.candidates.is_empty() {
        return Err("subscription spec needs at least one candidate".to_string());
    }
    let snapshot = state.db.snapshot();
    let pins = snapshot.pins_for_hosts(spec_hosts(&spec));
    state
        .subs
        .register(spec.clone(), pins, Arc::clone(outbox), conn)
        .map(|id| (id, spec))
}

/// The hosts an audit spec reads — what its cache keys and
/// subscription pins are derived from.
fn spec_hosts(spec: &AuditSpec) -> impl Iterator<Item = &str> {
    spec.candidates
        .iter()
        .flat_map(|c| c.servers.iter().map(String::as_str))
}

/// Encodes a freshly computed report, once, into the text the SIA cache
/// keeps and every answer splices; the cost lands in `report_encode_us`.
fn encode_report(telemetry: &Telemetry, report: &impl serde::Serialize) -> Arc<str> {
    let span = Span::start(Arc::clone(&telemetry.report_encode_us));
    let encoded = Arc::from(encode_line(report));
    drop(span);
    encoded
}

/// How long past its deadline a pooled job may run before the loop's
/// guard timer answers for it.
const GUARD_GRACE: Duration = Duration::from_secs(2);

/// One audit bound for the worker pool, as its spans see it.
struct PooledAudit {
    /// The span the queue-wait and audit-level spans hang under: the
    /// request's own, or a push's.
    parent: TraceContext,
    /// The audit-level span's `kind` attribute (see [`audit_attrs`]).
    kind: &'static str,
    /// The audit-level span's detail.
    detail: String,
    deadline: Duration,
    /// The request the job answers; a push answers none.
    slot: Option<Arc<ResponseSlot>>,
}

/// What an audit job produced: whether the cache served it, the
/// `(shard, epoch)` pins it read (none for PIA), and its result.
struct Audited<T> {
    cached: bool,
    pins: EpochPins,
    result: Result<T, String>,
}

/// Submits one audit to the worker pool — the one job every pooled
/// audit runs as. The job owns what they all share: the [`CrashGuard`]
/// that answers the slot should the job unwind, the [`TraceScope`], the
/// queue-wait span, the audit-level span with its [`audit_attrs`], and
/// the per-engine audit counter and histogram, which count every audit
/// `run` executes, failed or not (a cache hit executes none). `run`
/// produces the result under the audit span's context; `deliver` frames
/// it for whoever waits.
///
/// Returns the guard timer for the loop to arm when a request's slot
/// went to the pool. A full queue answers that slot instead (a push's
/// is logged).
fn submit_audit<T>(
    state: &Arc<ServiceState>,
    audit: PooledAudit,
    run: impl FnOnce(&ServiceState, &CancelToken, TraceContext) -> Audited<T> + Send + 'static,
    deliver: impl FnOnce(&ServiceState, bool, Result<T, String>) + Send + 'static,
) -> Option<(Instant, TimerEvent)> {
    let PooledAudit {
        parent,
        kind,
        detail,
        deadline,
        slot,
    } = audit;
    let (guard_slot, what) = (slot.clone(), detail.clone());
    let st = Arc::clone(state);
    let submit_at = Instant::now();
    let submitted = state.scheduler.submit(Some(deadline), move |token| {
        // Answers the slot with "audit job crashed" if this closure
        // unwinds before `deliver` claims it.
        let _crash = slot.map(CrashGuard);
        let exec = parent.child();
        let _scope = TraceScope::enter(exec);
        let telemetry = &st.telemetry;
        let started = Instant::now();
        // Sibling of the audit span: how long the job sat queued.
        telemetry.spans.record(
            parent.child(),
            names::SPAN_QUEUE_WAIT,
            String::new(),
            started.duration_since(submit_at).as_micros() as u64,
        );
        let Audited {
            cached,
            pins,
            result,
        } = run(&st, token, exec);
        let elapsed_us = started.elapsed().as_micros() as u64;
        if !cached {
            let (audits, audit_us) = if kind == "pia" {
                (&telemetry.audits_pia_total, &telemetry.audit_pia_us)
            } else {
                (&telemetry.audits_sia_total, &telemetry.audit_sia_us)
            };
            audits.inc();
            audit_us.record(elapsed_us);
        }
        let error = result.as_ref().err().cloned();
        telemetry.spans.push(
            SpanRecord::finished(exec, names::SPAN_AUDIT, detail, elapsed_us)
                .with_attrs(audit_attrs(kind, cached, error, &pins)),
        );
        deliver(&st, cached, result);
    });
    match (submitted, guard_slot) {
        (Ok(token), Some(slot)) => Some((
            Instant::now() + deadline + GUARD_GRACE,
            TimerEvent::Guard { slot, token },
        )),
        (Ok(_), None) => None,
        (Err(e), Some(slot)) => {
            slot.fulfill(Response::error(e.to_string()));
            None
        }
        (Err(e), None) => {
            slog::error(
                "server",
                &format!("could not schedule pushed audit for {what}: {e}"),
            );
            None
        }
    }
}

/// A SIA spec pinned to the data it reads: the epoch its answer is
/// stamped with, the snapshot, the `(shard, epoch)` pins of exactly the
/// shards its hosts route to, the cache key those pins make (an ingest
/// touching any *other* shard changes neither, so a cached report stays
/// hot), and what the cache holds under that key.
struct SiaLookup {
    epoch: Epoch,
    snapshot: DbSnapshot,
    pins: EpochPins,
    key: JobKey,
    hit: Option<Arc<str>>,
}

/// Pins the snapshot, keys the spec and consults the cache. Wait-free
/// but for the cache lock — no writer ever delays it — which is why the
/// loop runs it inline for every `AuditSia`.
fn sia_lookup(state: &ServiceState, spec: &AuditSpec) -> SiaLookup {
    let epoch = state.db.epoch();
    let snapshot = state.db.snapshot();
    let pins = snapshot.pins_for_hosts(spec_hosts(spec));
    let key = job_key(&pins, "sia", spec);
    let hit = state
        .sia_cache
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&key);
    SiaLookup {
        epoch,
        snapshot,
        pins,
        key,
        hit,
    }
}

/// The report text for a looked-up spec — the one lookup-or-compute
/// step of the request miss and the push alike: the cache's text on a
/// hit; on a miss the audit runs against the pinned snapshot, and its
/// report is encoded once and cached under the pinned key.
fn sia_report(
    st: &ServiceState,
    spec: &AuditSpec,
    lookup: SiaLookup,
    token: &CancelToken,
    exec: TraceContext,
) -> Audited<(Epoch, Arc<str>)> {
    let SiaLookup {
        epoch,
        snapshot,
        pins,
        key,
        hit,
    } = lookup;
    if let Some(report) = hit {
        return Audited {
            cached: true,
            pins,
            result: Ok((epoch, report)),
        };
    }
    let recorder = StageRecorder::new(&st.telemetry, exec);
    let result = AuditingAgent::from_snapshot(snapshot)
        .audit_sia_observed(spec, token, &recorder)
        .map(|report| {
            let report = encode_report(&st.telemetry, &report);
            st.sia_cache
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(key, pins.clone(), Arc::clone(&report));
            (epoch, report)
        })
        .map_err(|e| e.to_string());
    Audited {
        cached: false,
        pins,
        result,
    }
}

/// Schedules one pushed audit on the worker pool: re-runs (or serves
/// from cache) the subscription's audit against a fresh snapshot and
/// enqueues the `AuditEvent` frame. Runs entirely off the ingest path —
/// a full queue costs the subscriber one event, never a writer any
/// latency; the subscription stays armed for the next batch.
pub(crate) fn schedule_push_audit(
    state: &Arc<ServiceState>,
    subscription: u64,
    spec: AuditSpec,
    outbox: Arc<Outbox>,
    origin: Instant,
    parent: TraceContext,
) {
    // The push runs under a fresh child of the originating request's
    // span (the triggering ingest, or the Subscribe for its initial
    // audit) — one mutation fanning out to N subscriptions yields N
    // sibling push spans under the same trace.
    let push = parent.child();
    let detail = format!("subscription {subscription}");
    let audit = PooledAudit {
        parent: push,
        kind: names::SPAN_PUSH,
        detail: detail.clone(),
        deadline: state.config.default_deadline,
        slot: None,
    };
    let submit_at = Instant::now();
    submit_audit(
        state,
        audit,
        move |st, token, exec| sia_report(st, &spec, sia_lookup(st, &spec), token, exec),
        move |st, cached, result| {
            let telemetry = &st.telemetry;
            if !cached {
                telemetry.push_audits_total.inc();
            }
            match result {
                Ok((epoch, report)) => {
                    let body = audit_event_body(
                        subscription,
                        epoch,
                        cached,
                        submit_at.elapsed().as_micros() as u64,
                        &report,
                        &format_trace_id(parent.trace_id),
                    );
                    let frame = frame_answer(
                        SlotEncoding::V2 {
                            id: EVENT_ENVELOPE_ID,
                        },
                        &body,
                        &telemetry.response_bytes,
                    );
                    // Counted before the enqueue so a subscriber can never
                    // observe an event the gauge does not yet include.
                    st.pushed_events.fetch_add(1, Ordering::Relaxed);
                    outbox.push_event(frame);
                    // Invalidate → re-audit → event enqueued, end to end.
                    telemetry
                        .push_latency_us
                        .record(origin.elapsed().as_micros() as u64);
                }
                Err(e) => slog::error(
                    "server",
                    &format!("pushed audit for subscription {subscription} failed: {e}"),
                ),
            }
            telemetry.spans.record(
                push,
                names::SPAN_PUSH,
                detail,
                submit_at.elapsed().as_micros() as u64,
            );
        },
    );
}

/// Flags shutdown and wakes the readiness loop so it begins the drain
/// (farewell pushes to subscribers, flush, close — all inside the
/// loop). The connect poke remains as a fallback for the window where
/// the loop has not yet published its waker.
fn initiate_shutdown(state: &ServiceState) {
    // SeqCst pairs with the mutation gate in `apply_mutation`: the
    // flag store must be totally ordered against in-flight counter
    // updates for the shutdown drain to be exhaustive.
    state.shutting_down.store(true, Ordering::SeqCst);
    let shared = state
        .loop_shared
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    match shared {
        Some(shared) => shared.wake(),
        None => {
            let _ = TcpStream::connect(state.local_addr);
        }
    }
}

/// Answers `Trace{id}`: every span this daemon recorded under the
/// trace, each stamped with the local listen address so a client
/// stitching a tree across federated daemons can attribute every span
/// to its node.
pub(crate) fn trace_get(state: &ServiceState, id: &str) -> Response {
    let Some(trace_id) = indaas_obs::parse_trace_id(id) else {
        return Response::error(format!(
            "bad trace id {id:?} (expected up to 32 hex digits, nonzero)"
        ));
    };
    let node = state.local_addr.to_string();
    let spans = wire_spans(state.telemetry.spans.spans_for(trace_id), &node);
    Response::Trace { node, spans }
}

/// Spans in their wire form, each stamped as recorded by `node`.
fn wire_spans(spans: Vec<SpanRecord>, node: &str) -> Vec<SpanEntry> {
    spans
        .into_iter()
        .map(|s| SpanEntry::from_record(s, node))
        .collect()
}

pub(crate) enum Mutation {
    Ingest,
    Retract,
}

pub(crate) fn ingest(
    state: &Arc<ServiceState>,
    records: &str,
    mutation: Mutation,
    ctx: TraceContext,
) -> Response {
    let parsed = match indaas_deps::parse_records(records) {
        Ok(p) => p,
        Err(e) => return Response::error(format!("bad records: {e}")),
    };
    match apply_mutation(state, parsed, &mutation, ctx) {
        Some(report) => Response::Ingested {
            changed: report.changed,
            ignored: report.ignored,
            epoch: report.epoch,
        },
        None => Response::error("daemon is shutting down"),
    }
}

/// Decrements the in-flight mutation counter on drop, so a panic
/// anywhere inside [`apply_mutation`] (a poisoned cache or shard lock)
/// cannot leave the shutdown drain waiting forever on a count that
/// will never reach zero.
struct InFlightGuard<'a>(&'a AtomicU64);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The single write path into the sharded database: every mutation —
/// protocol ingest/retract or a timer-driven collector batch — lands
/// here, so epoch bumps, per-shard snapshot refreshes and cache
/// invalidation can never diverge between entry points. There is no
/// global lock on this path: the store routes the batch by shard first
/// and takes only the touched shards' write locks, so concurrent
/// mutations to disjoint hosts proceed in parallel, and each shard's
/// publish lock is held just long enough to swap in its new snapshot
/// and epoch.
fn apply_mutation(
    state: &Arc<ServiceState>,
    records: Vec<DependencyRecord>,
    mutation: &Mutation,
    ctx: TraceContext,
) -> Option<indaas_deps::ShardedIngestReport> {
    // Shutdown gate (Dekker-style, all SeqCst): either this thread sees
    // the shutdown flag and bails before touching the store, or the
    // shutdown path's drain loop sees this in-flight count and waits —
    // so the final segment save never misses an acknowledged mutation.
    state.in_flight_mutations.fetch_add(1, Ordering::SeqCst);
    let _in_flight = InFlightGuard(&state.in_flight_mutations);
    if state.shutting_down.load(Ordering::SeqCst) {
        return None;
    }
    // The push-latency clock starts here: "invalidate → re-audit →
    // event enqueued" is measured from the moment the write begins.
    let origin = Instant::now();
    state.telemetry.mutations_total.inc();
    let ingest_span = Span::start(Arc::clone(&state.telemetry.ingest_us));
    let report = match mutation {
        Mutation::Ingest => state.db.ingest(records),
        Mutation::Retract => state.db.retract(&records),
    };
    drop(ingest_span);
    // Per-shard purge: only entries pinned to a shard this batch touched
    // are dropped; audits over other shards stay cached. Called on every
    // batch — the cache compares the epoch vector to its last purge and
    // short-circuits in O(shards) when nothing moved (pure-duplicate
    // collector re-reports), so no-op batches never walk the entries.
    let epochs = state.db.epochs();
    state
        .sia_cache
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .purge_stale(&epochs);
    // The PIA cache is NOT purged: PIA results are a pure function of
    // the request's provider sets, never of the DepDB.
    //
    // Server push: every subscription pinned to a shard this batch
    // bumped gets a fresh audit scheduled on the worker pool. The
    // registry advances the pins synchronously (so overlapping batches
    // trigger once per wave) but the audits themselves run later, off
    // this write path — an ingest never waits on a subscriber.
    for hit in state.subs.affected(&epochs) {
        schedule_push_audit(state, hit.subscription, hit.spec, hit.outbox, origin, ctx);
    }
    Some(report)
}

/// Runs every registered collector once and ingests what they report
/// through [`apply_mutation`]. The batch is **fully materialized before
/// any shard lock is taken**: collection (which may walk hosts, shell
/// out, or block on slow probes) happens under only the collectors'
/// own mutex, so shard lock hold time stays proportional to routing +
/// apply — a slow collector can never stall concurrent protocol
/// ingests or audits. Returns how many records the tick ingested.
pub(crate) fn run_collectors(state: &Arc<ServiceState>) -> usize {
    // Phase 1: materialize. No DepDB lock is held anywhere in here.
    let mut collected: Vec<DependencyRecord> = Vec::new();
    {
        let mut collectors = state
            .collectors
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for c in collectors.iter_mut() {
            for host in c.hosts() {
                match c.collect(&host) {
                    Ok(records) => collected.extend(records),
                    Err(e) => {
                        slog::warn("server", &format!("collector {} failed: {e}", c.name()));
                    }
                }
            }
        }
    }
    // Phase 2: route + apply, the only part that touches shard locks.
    // A batch rejected by the shutdown gate is simply dropped — the
    // daemon is exiting and the collectors re-measure on next boot.
    let total = collected.len();
    // Collector ticks are daemon-initiated: each is the root of its own
    // trace, which the pushes it triggers hang under.
    if !collected.is_empty()
        && apply_mutation(state, collected, &Mutation::Ingest, TraceContext::root()).is_none()
    {
        return 0;
    }
    total
}

/// Rejects request-controlled algorithm parameters and probabilities
/// that would panic an engine or defeat the scheduler's admission
/// control (e.g. a spec asking one pooled job to spawn thousands of
/// sampling threads).
fn validate_spec(spec: &AuditSpec) -> Result<(), String> {
    const MAX_SAMPLING_THREADS: usize = 8;
    match spec.algorithm {
        indaas_core::RgAlgorithm::Sampling {
            threads, fail_prob, ..
        } => {
            if threads == 0 || threads > MAX_SAMPLING_THREADS {
                return Err(format!(
                    "sampling threads must be in 1..={MAX_SAMPLING_THREADS} (got {threads})"
                ));
            }
            if !(fail_prob > 0.0 && fail_prob < 1.0) {
                return Err(format!("fail_prob must be in (0, 1) (got {fail_prob})"));
            }
        }
        indaas_core::RgAlgorithm::Bdd { max_nodes } => {
            // The node budget bounds one job's memory; uncapped it lets
            // a single request grow allocations past any deadline's
            // reach (the token is only polled between graph nodes).
            const MAX_BDD_NODES: usize = 1 << 24;
            if !(2..=MAX_BDD_NODES).contains(&max_nodes) {
                return Err(format!(
                    "bdd max_nodes must be in 2..={MAX_BDD_NODES} (got {max_nodes})"
                ));
            }
        }
        indaas_core::RgAlgorithm::Minimal { .. } => {}
    }
    // Out-of-range probabilities turn inclusion–exclusion into
    // `inf - inf`; every probability a request carries must be one.
    if let indaas_core::RankingMetric::Probability { default_prob } = spec.metric {
        if !(0.0..=1.0).contains(&default_prob) {
            return Err(format!(
                "default_prob must be in [0, 1] (got {default_prob})"
            ));
        }
    }
    if let Some(model) = &spec.prob_model {
        model.validate()?;
    }
    Ok(())
}

/// Admits an `AuditSia`: a cache hit is answered inline; a miss becomes
/// a pooled job that fulfills `slot` itself — no thread waits on the
/// result. The job polls its deadline-armed token and reports
/// `Cancelled` as "audit failed: …"; the guard timer returned for the
/// loop to arm answers "audit timed out" only for a worker wedged past
/// deadline + grace, and the [`CrashGuard`] answers for a panicked one.
pub(crate) fn admit_sia(
    state: &Arc<ServiceState>,
    spec: AuditSpec,
    timeout_ms: Option<u64>,
    slot: Arc<ResponseSlot>,
) -> Option<(Instant, TimerEvent)> {
    if let Err(e) = validate_spec(&spec) {
        slot.fulfill(Response::error(format!("invalid spec: {e}")));
        return None;
    }
    let started = Instant::now();
    let lookup = sia_lookup(state, &spec);
    let detail = spec
        .candidates
        .iter()
        .map(|c| c.name.as_str())
        .collect::<Vec<_>>()
        .join(", ");
    if let Some(report) = &lookup.hit {
        // The audit-level span, a child of the request span whichever
        // way the audit is answered.
        let elapsed_us = started.elapsed().as_micros() as u64;
        state.telemetry.spans.push(
            SpanRecord::finished(slot.ctx.child(), names::SPAN_AUDIT, detail, elapsed_us)
                .with_attrs(audit_attrs("sia", true, None, &lookup.pins)),
        );
        slot.fulfill_body(&sia_body(lookup.epoch, true, elapsed_us, report));
        return None;
    }
    let audit = PooledAudit {
        parent: slot.ctx,
        kind: "sia",
        detail,
        deadline: job_deadline(&state.config, timeout_ms),
        slot: Some(Arc::clone(&slot)),
    };
    submit_audit(
        state,
        audit,
        move |st, token, exec| sia_report(st, &spec, lookup, token, exec),
        move |_, _, result| {
            let body = match result {
                Ok((epoch, report)) => {
                    sia_body(epoch, false, started.elapsed().as_micros() as u64, &report)
                }
                Err(e) => encode_line(&Response::error(format!("audit failed: {e}"))),
            };
            slot.fulfill_body(&body);
        },
    )
}

/// Admits an `AuditPia` — same shape as [`admit_sia`], epoch-free cache
/// key (PIA reads nothing from the DepDB).
pub(crate) fn admit_pia(
    state: &Arc<ServiceState>,
    providers: Vec<(String, Vec<String>)>,
    way: usize,
    minhash: Option<usize>,
    timeout_ms: Option<u64>,
    slot: Arc<ResponseSlot>,
) -> Option<(Instant, TimerEvent)> {
    if way < 2 || providers.len() < way {
        slot.fulfill(Response::error(
            "need way >= 2 and at least `way` providers",
        ));
        return None;
    }
    if providers.iter().any(|(_, set)| set.is_empty()) {
        slot.fulfill(Response::error("provider component sets must be non-empty"));
        return None;
    }
    let started = Instant::now();
    let epoch = state.db.epoch();
    // PIA reads nothing from the DepDB — its inputs travel entirely in
    // the request — so the cache key deliberately carries no epoch pins
    // and entries survive ingests (the response still stamps the epoch).
    let key = job_key(&(), "pia", &(&providers, way, minhash));
    let detail = format!("{} providers, {way}-way", providers.len());
    let hit = state
        .pia_cache
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&key);
    if let Some(rankings) = hit {
        let elapsed_us = started.elapsed().as_micros() as u64;
        state.telemetry.spans.push(
            SpanRecord::finished(slot.ctx.child(), names::SPAN_AUDIT, detail, elapsed_us)
                .with_attrs(audit_attrs("pia", true, None, &[])),
        );
        slot.fulfill(Response::Pia {
            epoch,
            cached: true,
            elapsed_us,
            rankings,
        });
        return None;
    }
    let audit = PooledAudit {
        parent: slot.ctx,
        kind: "pia",
        detail,
        deadline: job_deadline(&state.config, timeout_ms),
        slot: Some(Arc::clone(&slot)),
    };
    submit_audit(
        state,
        audit,
        move |st, token, _| {
            let config = PsopConfig::default();
            let result = rank_deployments_cancellable(&providers, way, minhash, &config, token)
                .inspect(|rankings| {
                    st.pia_cache
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .insert(
                            key,
                            EpochPins::new(), // no pins: epoch-independent, never stale
                            rankings.clone(),
                        );
                })
                .map_err(|e| e.to_string());
            Audited {
                cached: false,
                pins: EpochPins::new(),
                result,
            }
        },
        move |_, _, result| {
            slot.fulfill(match result {
                Ok(rankings) => Response::Pia {
                    epoch,
                    cached: false,
                    elapsed_us: started.elapsed().as_micros() as u64,
                    rankings,
                },
                Err(e) => Response::error(format!("audit failed: {e}")),
            });
        },
    )
}

/// Resolves the effective job deadline: the client's request, clamped
/// to the configured ceiling.
fn job_deadline(config: &ServeConfig, timeout_ms: Option<u64>) -> Duration {
    timeout_ms
        .map(Duration::from_millis)
        .unwrap_or(config.default_deadline)
        .min(config.max_deadline)
}

/// `(hits, misses, entries)` of one result cache.
fn cache_stats<V: Clone>(cache: &Mutex<AuditCache<V>>) -> (u64, u64, usize) {
    let cache = cache.lock().unwrap_or_else(PoisonError::into_inner);
    let (hits, misses) = cache.stats();
    (hits, misses, cache.len())
}

pub(crate) fn status(state: &ServiceState) -> Response {
    // Status reads the same snapshot path audits use (one short lock
    // per shard, never a write lock); the counters come from per-shard
    // atomics, so a dashboard polling Status never slows writers down.
    let snapshot = state.db.snapshot();
    let epoch = state.db.epoch();
    let shard_records: Vec<usize> = (0..snapshot.num_shards())
        .map(|s| snapshot.shard(s).len())
        .collect();
    let records = shard_records.iter().sum();
    let hosts = DepView::hosts(&snapshot).len();
    let shard_epochs = snapshot.epochs().as_slice().to_vec();
    let counters = state.db.counters();
    let (sia_hits, sia_misses, sia_len) = cache_stats(&state.sia_cache);
    let (pia_hits, pia_misses, pia_len) = cache_stats(&state.pia_cache);
    let cache_entries = sia_len + pia_len;
    let cache_hits = sia_hits + pia_hits;
    let cache_misses = sia_misses + pia_misses;
    let lookups = cache_hits + cache_misses;
    Response::Status {
        epoch,
        records,
        hosts,
        shard_epochs,
        shard_records,
        shard_writes: counters.shard_writes,
        lock_waits: counters.lock_waits,
        jobs_queued: state.scheduler.queued(),
        jobs_running: state.scheduler.running(),
        cache_entries,
        cache_hits,
        cache_misses,
        hit_ratio: if lookups == 0 {
            0.0
        } else {
            cache_hits as f64 / lookups as f64
        },
        subscriptions: state.subs.len(),
        pushed_events: state.pushed_events.load(Ordering::Relaxed),
        uptime_ms: state.started.elapsed().as_millis() as u64,
        uptime_secs: state.started.elapsed().as_secs(),
        sia_audits: state.telemetry.audits_sia_total.get(),
        pia_audits: state.telemetry.audits_pia_total.get(),
        dropped_events: state.telemetry.outbox_shed_total.get(),
    }
}

/// Assembles a `Metrics` response: refreshes the derived gauges from
/// their authoritative sources (per-shard atomics, cache stats,
/// scheduler — the same reads `Status` does), snapshots the
/// registry, and attaches the most recent audits' spans.
pub(crate) fn metrics(state: &ServiceState, recent: Option<usize>) -> Response {
    let telemetry = &state.telemetry;
    let registry = &telemetry.registry;
    let counters = state.db.counters();
    registry
        .gauge(names::DB_SHARD_WRITES)
        .set(counters.shard_writes.iter().sum());
    registry
        .gauge(names::DB_LOCK_WAITS)
        .set(counters.lock_waits);
    let (sia_hits, sia_misses, sia_len) = cache_stats(&state.sia_cache);
    let (pia_hits, pia_misses, pia_len) = cache_stats(&state.pia_cache);
    registry.gauge(names::CACHE_SIA_HITS).set(sia_hits);
    registry.gauge(names::CACHE_SIA_MISSES).set(sia_misses);
    registry.gauge(names::CACHE_PIA_HITS).set(pia_hits);
    registry.gauge(names::CACHE_PIA_MISSES).set(pia_misses);
    registry
        .gauge(names::CACHE_ENTRIES)
        .set((sia_len + pia_len) as u64);
    registry
        .gauge(names::SCHED_QUEUE_DEPTH)
        .set(state.scheduler.queued() as u64);
    registry
        .gauge(names::SCHED_JOBS_RUNNING)
        .set(state.scheduler.running() as u64);
    registry
        .gauge(names::SUBSCRIPTIONS)
        .set(state.subs.len() as u64);
    registry
        .gauge(names::ACTIVE_CONNS)
        .set(state.active_conns.load(Ordering::Relaxed) as u64);
    registry
        .gauge(names::PUSHED_EVENTS)
        .set(state.pushed_events.load(Ordering::Relaxed));
    let snap = registry.snapshot();
    let recent = telemetry
        .spans
        .recent_named(names::SPAN_AUDIT, recent.unwrap_or(DEFAULT_RECENT_AUDITS));
    Response::Metrics {
        uptime_secs: state.started.elapsed().as_secs(),
        counters: snap.counters,
        gauges: snap.gauges,
        histos: wire_histos(&snap.histos),
        recent: wire_spans(recent, &state.local_addr.to_string()),
        slow_threshold_us: telemetry.slow_threshold_us,
    }
}
