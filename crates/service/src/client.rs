//! The pipelining protocol-v2 client session.
//!
//! [`Client::connect`] performs the `Hello`/`Welcome` negotiation and
//! then speaks length-prefixed binary frames carrying correlated
//! envelopes. A background reader thread matches every response frame
//! to its request id, so a session can keep many requests in flight —
//! [`Client::begin`] returns a [`PendingResponse`] immediately and
//! [`PendingResponse::wait`] blocks only that caller — and routes
//! server-push [`AuditEvent`] frames to the [`Subscription`] they
//! belong to. The one-shot [`Client::request`] and the typed helpers
//! (`ping`/`ingest`/`audit_sia`/`status`/...) keep their familiar
//! blocking shape on top.
//!
//! There is no v1 client: v1 line mode exists so a daemon can be
//! driven by hand (`nc`, a few lines of any language), and the e2e
//! suite drives it over a raw socket.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Duration;

use indaas_core::AuditSpec;
use indaas_obs::TraceContext;
use indaas_pia::PiaRanking;
use indaas_sia::AuditReport;

use crate::proto::{
    decode_line, encode_line, read_bounded_line, read_frame, write_frame, Envelope, FrameRead,
    LineRead, MetricHisto, Request, Response, ResponseEnvelope, SpanEntry, EVENT_ENVELOPE_ID,
    PROTOCOL_VERSION,
};

/// Largest accepted response line/frame (reports scale with candidates
/// and `top_n`, but not unboundedly; this caps client memory against a
/// misbehaving server).
const MAX_RESPONSE_LINE: u64 = 256 * 1024 * 1024;

/// Largest accepted `Welcome` line — the handshake answer is tiny.
const MAX_WELCOME_LINE: u64 = 64 * 1024;

/// Most events buffered for a subscription the reader has heard about
/// before `subscribe()` registered its local channel (the initial push
/// can race the `Subscribed` response's handoff).
const MAX_ORPHAN_EVENTS: usize = 64;

/// Most distinct subscription ids the orphan stash will hold at once —
/// only ids mid-`subscribe()` legitimately live here, so a handful is
/// plenty and the cap keeps a misbehaving server from growing the map.
const MAX_ORPHAN_SUBS: usize = 16;

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket trouble.
    Io(std::io::Error),
    /// The server sent something unparseable or out of protocol.
    Protocol(String),
    /// The server answered with `Error { message }`.
    Remote(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Remote(m) => write!(f, "server error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A typed SIA answer.
#[derive(Clone, Debug)]
pub struct SiaAnswer {
    /// Epoch the audit ran against.
    pub epoch: u64,
    /// Whether the daemon served it from cache.
    pub cached: bool,
    /// Server-side production time in microseconds.
    pub elapsed_us: u64,
    /// The report.
    pub report: AuditReport,
}

/// A typed PIA answer.
#[derive(Clone, Debug)]
pub struct PiaAnswer {
    /// Epoch stamped on the answer.
    pub epoch: u64,
    /// Whether the daemon served it from cache.
    pub cached: bool,
    /// Server-side production time in microseconds.
    pub elapsed_us: u64,
    /// Candidate deployments, most independent first.
    pub rankings: Vec<PiaRanking>,
}

/// An ingest/retract acknowledgement.
#[derive(Clone, Copy, Debug)]
pub struct IngestAnswer {
    /// Records that changed the database.
    pub changed: usize,
    /// Duplicates/absent records ignored.
    pub ignored: usize,
    /// Epoch after the batch.
    pub epoch: u64,
}

/// A typed `Status` answer — every counter the daemon reports.
#[derive(Clone, Debug)]
pub struct StatusAnswer {
    /// Current global database epoch.
    pub epoch: u64,
    /// Distinct dependency records stored (all shards).
    pub records: usize,
    /// Hosts with at least one record.
    pub hosts: usize,
    /// Per-shard epochs, indexed by shard.
    pub shard_epochs: Vec<u64>,
    /// Distinct records per shard.
    pub shard_records: Vec<usize>,
    /// Effective write batches applied per shard since startup.
    pub shard_writes: Vec<u64>,
    /// Writer lock-contention events, summed over all shards.
    pub lock_waits: u64,
    /// Audit jobs queued (admitted, not yet running).
    pub jobs_queued: usize,
    /// Audit jobs currently executing.
    pub jobs_running: usize,
    /// Live audit-result cache entries.
    pub cache_entries: usize,
    /// Cache hits since startup.
    pub cache_hits: u64,
    /// Cache misses since startup.
    pub cache_misses: u64,
    /// `cache_hits / (cache_hits + cache_misses)`, 0 before the first
    /// lookup.
    pub hit_ratio: f64,
    /// Live audit subscriptions across all connections.
    pub subscriptions: usize,
    /// Pushed `AuditEvent` frames enqueued since startup.
    pub pushed_events: u64,
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
    /// Seconds since the daemon started.
    pub uptime_secs: u64,
    /// SIA audits executed since startup (cache hits excluded).
    pub sia_audits: u64,
    /// PIA audits executed since startup (cache hits excluded).
    pub pia_audits: u64,
    /// Pushed events shed because a subscriber's outbox was full.
    pub dropped_events: u64,
}

/// A typed `Metrics` answer: the registry snapshot plus the recent
/// audits' spans.
#[derive(Clone, Debug)]
pub struct MetricsAnswer {
    /// Seconds since the daemon started.
    pub uptime_secs: u64,
    /// `(name, value)` monotonic counters, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` instantaneous gauges, name-sorted.
    pub gauges: Vec<(String, u64)>,
    /// Latency histograms, name-sorted.
    pub histos: Vec<MetricHisto>,
    /// The most recent audits, newest first: each audit-level span and
    /// the engine-stage spans under it
    /// ([`indaas_obs::build_span_tree`] makes one tree per audit).
    pub recent: Vec<SpanEntry>,
    /// An audit whose `elapsed_us` reaches this is slow, in µs.
    pub slow_threshold_us: u64,
}

impl MetricsAnswer {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram by name.
    pub fn histo(&self, name: &str) -> Option<&MetricHisto> {
        self.histos.iter().find(|h| h.name == name)
    }
}

/// A pushed audit result, as delivered to a [`Subscription`].
#[derive(Clone, Debug)]
pub struct AuditEvent {
    /// The subscription this event belongs to.
    pub subscription: u64,
    /// Global database epoch the audit ran against.
    pub epoch: u64,
    /// Whether the daemon served it from the audit-result cache.
    pub cached: bool,
    /// Server-side production time in microseconds.
    pub elapsed_us: u64,
    /// Hex trace id of the request that triggered this push (the
    /// mutating ingest, or the Subscribe for the initial audit) — join
    /// it against `indaas trace <id>`.
    pub trace_id: String,
    /// The fresh report.
    pub report: AuditReport,
}

/// What the reader thread shares with every handle of one session.
struct SessionShared {
    /// Buffered so each frame's length prefix and payload leave in one
    /// write (two small writes through Nagle cost a delayed-ACK stall).
    writer: Mutex<std::io::BufWriter<TcpStream>>,
    pending: Mutex<HashMap<u64, mpsc::Sender<Response>>>,
    subs: Mutex<SubRoutes>,
    /// Why the reader exited, once it has — every later wait reports it.
    dead: Mutex<Option<String>>,
    /// Set when the server pushed `ShuttingDown` before the stream
    /// ended: the session's death is an announced drain, not a loss.
    clean_shutdown: std::sync::atomic::AtomicBool,
}

#[derive(Default)]
struct SubRoutes {
    channels: HashMap<u64, mpsc::Sender<AuditEvent>>,
    /// Events for subscription ids with no local channel yet.
    orphans: HashMap<u64, Vec<AuditEvent>>,
}

impl SessionShared {
    fn dead_reason(&self) -> Option<String> {
        self.dead
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn send_envelope(
        &self,
        id: u64,
        request: &Request,
        trace: Option<TraceContext>,
    ) -> Result<(), ClientError> {
        let frame = encode_line(&Envelope {
            id,
            body: request.clone(),
            trace: trace.map(|c| c.encode_header()),
        })
        .into_bytes();
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        write_frame(&mut *writer, &frame)?;
        writer.flush()?;
        Ok(())
    }
}

/// A pipelining protocol-v2 daemon session.
pub struct Client {
    shared: Arc<SessionShared>,
    /// Kept for `Drop`: shutting the socket down unblocks the reader.
    sock: TcpStream,
    reader: Option<std::thread::JoinHandle<()>>,
    next_id: u64,
    wait_timeout: Option<Duration>,
}

impl Client {
    /// Connects to a running daemon and negotiates protocol v2.
    ///
    /// # Errors
    ///
    /// Propagates connection failures; a server that rejects the hello
    /// or negotiates below v2 surfaces as
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream.try_clone()?);

        // Line-mode handshake, then binary frames.
        let mut hello = encode_line(&Request::Hello {
            version: PROTOCOL_VERSION,
        });
        hello.push('\n');
        writer.write_all(hello.as_bytes())?;
        writer.flush()?;
        let invalid = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
        let mut line = String::new();
        match read_bounded_line(&mut reader, &mut line, MAX_WELCOME_LINE)? {
            LineRead::Line => {}
            LineRead::Eof => {
                return Err(invalid(
                    "server closed the connection during the hello".into(),
                ));
            }
            LineRead::Oversized => {
                return Err(invalid("oversized hello answer".into()));
            }
        }
        match decode_line::<Response>(line.trim()) {
            Ok(Response::Welcome { version }) if version >= 2 => {}
            Ok(Response::Welcome { version }) => {
                return Err(invalid(format!(
                    "server negotiated protocol v{version}; this client needs v2"
                )));
            }
            Ok(Response::Error { message }) => {
                return Err(invalid(format!("server rejected the hello: {message}")));
            }
            Ok(other) => {
                return Err(invalid(format!("unexpected hello answer: {other:?}")));
            }
            Err(e) => {
                return Err(invalid(format!("unparseable hello answer: {e}")));
            }
        }

        let shared = Arc::new(SessionShared {
            writer: Mutex::new(std::io::BufWriter::new(writer)),
            pending: Mutex::new(HashMap::new()),
            subs: Mutex::new(SubRoutes::default()),
            dead: Mutex::new(None),
            clean_shutdown: std::sync::atomic::AtomicBool::new(false),
        });
        let reader_shared = Arc::clone(&shared);
        let handle = std::thread::spawn(move || reader_loop(&reader_shared, reader));
        Ok(Client {
            shared,
            sock: stream,
            reader: Some(handle),
            next_id: 0,
            wait_timeout: None,
        })
    }

    /// Caps how long any single [`PendingResponse::wait`] (and every
    /// typed helper built on it) may block (`None` blocks forever, the
    /// default). A federation coordinator sets this so one wedged
    /// daemon fails the audit instead of hanging it.
    ///
    /// # Errors
    ///
    /// Infallible; the signature matches the v1 socket-option shape so
    /// callers need no changes.
    pub fn set_read_timeout(
        &mut self,
        timeout: Option<std::time::Duration>,
    ) -> std::io::Result<()> {
        self.wait_timeout = timeout;
        Ok(())
    }

    /// Sends one request without waiting: the returned handle resolves
    /// to exactly this request's response, however many other requests
    /// this session has in flight and in whatever order the daemon
    /// finishes them.
    ///
    /// Every request mints a fresh root [`TraceContext`] — the client
    /// is where traces begin — so the caller knows the id of the span
    /// tree the daemon records for it. Use [`Client::begin_traced`] to
    /// join an existing trace.
    ///
    /// # Errors
    ///
    /// I/O failures and a dead session (reader exited) fail fast.
    pub fn begin(&mut self, request: &Request) -> Result<PendingResponse, ClientError> {
        self.begin_traced(request, Some(TraceContext::root()))
    }

    /// [`Client::begin`] under an explicit trace context: the envelope
    /// carries `trace` verbatim, so a caller holding a live trace — a
    /// federation coordinator fanning one audit out to many daemons —
    /// can parent the remote work under its own span. `None` sends no
    /// context and leaves the daemon to mint the root.
    ///
    /// # Errors
    ///
    /// I/O failures and a dead session (reader exited) fail fast.
    pub fn begin_traced(
        &mut self,
        request: &Request,
        trace: Option<TraceContext>,
    ) -> Result<PendingResponse, ClientError> {
        if let Some(reason) = self.shared.dead_reason() {
            return Err(ClientError::Protocol(reason));
        }
        self.next_id += 1;
        let id = self.next_id;
        debug_assert_ne!(id, EVENT_ENVELOPE_ID);
        let (tx, rx) = mpsc::channel();
        self.shared
            .pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id, tx);
        if let Err(e) = self.shared.send_envelope(id, request, trace) {
            self.shared
                .pending
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(&id);
            return Err(e);
        }
        Ok(PendingResponse {
            id,
            rx,
            shared: Arc::clone(&self.shared),
            timeout: self.wait_timeout,
        })
    }

    /// Sends one request and waits for its response — [`Client::begin`]
    /// plus [`PendingResponse::wait`].
    ///
    /// # Errors
    ///
    /// I/O failures, unparseable responses, or a closed connection.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.begin(request)?.wait()
    }

    /// [`Client::request`] under an explicit trace context — see
    /// [`Client::begin_traced`].
    ///
    /// # Errors
    ///
    /// I/O failures, unparseable responses, or a closed connection.
    pub fn request_traced(
        &mut self,
        request: &Request,
        trace: Option<TraceContext>,
    ) -> Result<Response, ClientError> {
        self.begin_traced(request, trace)?.wait()
    }

    /// Registers a continuous SIA audit over `spec`: the daemon pushes
    /// an initial [`AuditEvent`] immediately and a fresh one after
    /// every ingest that changes a shard the spec's hosts route to.
    /// Other requests keep flowing on this session while events arrive.
    ///
    /// # Errors
    ///
    /// Invalid specs and daemon-side subscription limits surface as
    /// [`ClientError::Remote`].
    pub fn subscribe(&mut self, spec: &AuditSpec) -> Result<Subscription, ClientError> {
        let response = self.request(&Request::Subscribe {
            spec: spec.clone(),
            engine: "sia".to_string(),
        })?;
        match response {
            Response::Subscribed { subscription } => {
                let (tx, rx) = mpsc::channel();
                let mut subs = self
                    .shared
                    .subs
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                // The initial event may already have arrived: replay it.
                if let Some(stash) = subs.orphans.remove(&subscription) {
                    for event in stash {
                        let _ = tx.send(event);
                    }
                }
                subs.channels.insert(subscription, tx);
                drop(subs);
                Ok(Subscription {
                    id: subscription,
                    rx,
                    shared: Arc::clone(&self.shared),
                })
            }
            other => Err(unexpected("Subscribed", &other)),
        }
    }

    /// Cancels a subscription made on this session.
    ///
    /// # Errors
    ///
    /// Unknown ids surface as [`ClientError::Remote`].
    pub fn unsubscribe(&mut self, subscription: u64) -> Result<(), ClientError> {
        let response = self.request(&Request::Unsubscribe { subscription })?;
        match response {
            Response::Unsubscribed { .. } => {
                let mut subs = self
                    .shared
                    .subs
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                subs.channels.remove(&subscription);
                subs.orphans.remove(&subscription);
                Ok(())
            }
            other => Err(unexpected("Unsubscribed", &other)),
        }
    }

    /// Round-trips a ping.
    ///
    /// # Errors
    ///
    /// Fails unless the server answers `Pong`.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Streams Table-1 record text into the daemon.
    ///
    /// # Errors
    ///
    /// Remote parse failures surface as [`ClientError::Remote`].
    pub fn ingest(&mut self, records: &str) -> Result<IngestAnswer, ClientError> {
        let response = self.request(&Request::Ingest {
            records: records.to_string(),
        })?;
        ingest_answer(response)
    }

    /// Retracts previously ingested records.
    ///
    /// # Errors
    ///
    /// Remote parse failures surface as [`ClientError::Remote`].
    pub fn retract(&mut self, records: &str) -> Result<IngestAnswer, ClientError> {
        let response = self.request(&Request::Retract {
            records: records.to_string(),
        })?;
        ingest_answer(response)
    }

    /// Runs (or fetches from cache) a structural independence audit.
    ///
    /// # Errors
    ///
    /// Audit failures, deadline overruns and shed load surface as
    /// [`ClientError::Remote`].
    pub fn audit_sia(
        &mut self,
        spec: &AuditSpec,
        timeout_ms: Option<u64>,
    ) -> Result<SiaAnswer, ClientError> {
        let response = self.request(&Request::AuditSia {
            spec: spec.clone(),
            timeout_ms,
        })?;
        match response {
            Response::Sia {
                epoch,
                cached,
                elapsed_us,
                report,
            } => Ok(SiaAnswer {
                epoch,
                cached,
                elapsed_us,
                report,
            }),
            other => Err(unexpected("Sia", &other)),
        }
    }

    /// Runs (or fetches from cache) a private independence audit.
    ///
    /// # Errors
    ///
    /// Audit failures, deadline overruns and shed load surface as
    /// [`ClientError::Remote`].
    pub fn audit_pia(
        &mut self,
        providers: Vec<(String, Vec<String>)>,
        way: usize,
        minhash: Option<usize>,
        timeout_ms: Option<u64>,
    ) -> Result<PiaAnswer, ClientError> {
        let response = self.request(&Request::AuditPia {
            providers,
            way,
            minhash,
            timeout_ms,
        })?;
        match response {
            Response::Pia {
                epoch,
                cached,
                elapsed_us,
                rankings,
            } => Ok(PiaAnswer {
                epoch,
                cached,
                elapsed_us,
                rankings,
            }),
            other => Err(unexpected("Pia", &other)),
        }
    }

    /// Fetches service counters as a typed [`StatusAnswer`].
    ///
    /// # Errors
    ///
    /// Fails unless the server answers `Status`.
    pub fn status(&mut self) -> Result<StatusAnswer, ClientError> {
        match self.request(&Request::Status)? {
            Response::Status {
                epoch,
                records,
                hosts,
                shard_epochs,
                shard_records,
                shard_writes,
                lock_waits,
                jobs_queued,
                jobs_running,
                cache_entries,
                cache_hits,
                cache_misses,
                hit_ratio,
                subscriptions,
                pushed_events,
                uptime_ms,
                uptime_secs,
                sia_audits,
                pia_audits,
                dropped_events,
            } => Ok(StatusAnswer {
                epoch,
                records,
                hosts,
                shard_epochs,
                shard_records,
                shard_writes,
                lock_waits,
                jobs_queued,
                jobs_running,
                cache_entries,
                cache_hits,
                cache_misses,
                hit_ratio,
                subscriptions,
                pushed_events,
                uptime_ms,
                uptime_secs,
                sia_audits,
                pia_audits,
                dropped_events,
            }),
            other => Err(unexpected("Status", &other)),
        }
    }

    /// Fetches the metrics snapshot (registry + recent audits) as a
    /// typed [`MetricsAnswer`]. `recent` bounds how many audits return
    /// (`None` = server default).
    ///
    /// # Errors
    ///
    /// Fails unless the server answers `Metrics`.
    pub fn metrics(&mut self, recent: Option<usize>) -> Result<MetricsAnswer, ClientError> {
        match self.request(&Request::Metrics { recent })? {
            Response::Metrics {
                uptime_secs,
                counters,
                gauges,
                histos,
                recent,
                slow_threshold_us,
            } => Ok(MetricsAnswer {
                uptime_secs,
                counters,
                gauges,
                histos,
                recent,
                slow_threshold_us,
            }),
            other => Err(unexpected("Metrics", &other)),
        }
    }

    /// Fetches every span the daemon recorded under the hex trace id
    /// `id`. Returns the daemon's node name (its listen address) and
    /// the raw span entries — feed entries from several daemons into
    /// [`indaas_obs::build_span_tree`] to stitch a federated trace.
    ///
    /// # Errors
    ///
    /// Malformed ids surface as [`ClientError::Remote`].
    pub fn fetch_trace(&mut self, id: &str) -> Result<(String, Vec<SpanEntry>), ClientError> {
        let response = self.request_traced(&Request::Trace { id: id.to_string() }, None)?;
        match response {
            Response::Trace { node, spans } => Ok((node, spans)),
            other => Err(unexpected("Trace", &other)),
        }
    }

    /// Asks the daemon to exit its serve loop.
    ///
    /// # Errors
    ///
    /// Fails unless the server acknowledges with `ShuttingDown`.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        // Unblocks the reader (its read returns 0/error), then reaps it.
        let _ = self.sock.shutdown(Shutdown::Both);
        if let Some(handle) = self.reader.take() {
            let _ = handle.join();
        }
    }
}

/// One in-flight request's response slot.
pub struct PendingResponse {
    id: u64,
    rx: mpsc::Receiver<Response>,
    shared: Arc<SessionShared>,
    timeout: Option<Duration>,
}

impl PendingResponse {
    /// The envelope id this handle is waiting on.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until this request's response arrives (honouring the
    /// session's [`Client::set_read_timeout`], if any).
    ///
    /// # Errors
    ///
    /// A dead session reports why the reader exited; a timeout abandons
    /// the slot (a late response for it is discarded by the reader).
    pub fn wait(self) -> Result<Response, ClientError> {
        let received = match self.timeout {
            None => self.rx.recv().map_err(|_| None),
            Some(t) => self.rx.recv_timeout(t).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => Some(t),
                mpsc::RecvTimeoutError::Disconnected => None,
            }),
        };
        match received {
            Ok(response) => Ok(response),
            Err(Some(timeout)) => {
                self.shared
                    .pending
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .remove(&self.id);
                Err(ClientError::Protocol(format!(
                    "no response within {}ms (request id {})",
                    timeout.as_millis(),
                    self.id
                )))
            }
            Err(None) => Err(ClientError::Protocol(
                self.shared
                    .dead_reason()
                    .unwrap_or_else(|| "session closed".to_string()),
            )),
        }
    }
}

/// How a subscription's event stream came to an end.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubscriptionEnd {
    /// The server pushed `ShuttingDown` and drained the session: an
    /// orderly goodbye, not a failure.
    CleanShutdown,
    /// The transport died without an announcement (crash, cut cable,
    /// protocol violation) — the recorded reader-exit reason.
    ConnectionLost(String),
}

impl std::fmt::Display for SubscriptionEnd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubscriptionEnd::CleanShutdown => write!(f, "server shut down cleanly"),
            SubscriptionEnd::ConnectionLost(reason) => write!(f, "connection lost: {reason}"),
        }
    }
}

/// A live audit subscription: an iterator of pushed [`AuditEvent`]s.
/// Dropping it stops local delivery; call [`Client::unsubscribe`] to
/// also stop the daemon from computing events.
///
/// When the iterator returns `None` (or `recv` fails), [`Subscription::end`]
/// tells an announced server shutdown apart from a lost connection — the
/// difference between exiting zero and reconnecting.
pub struct Subscription {
    id: u64,
    rx: mpsc::Receiver<AuditEvent>,
    shared: Arc<SessionShared>,
}

impl Subscription {
    /// The daemon-assigned subscription id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the next pushed event.
    ///
    /// # Errors
    ///
    /// A dead or closed session reports why.
    pub fn recv(&mut self) -> Result<AuditEvent, ClientError> {
        self.rx.recv().map_err(|_| self.closed())
    }

    /// Waits up to `timeout` for the next pushed event; `Ok(None)`
    /// means no event arrived in time (the subscription is still live).
    ///
    /// # Errors
    ///
    /// A dead or closed session reports why.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<AuditEvent>, ClientError> {
        match self.rx.recv_timeout(timeout) {
            Ok(event) => Ok(Some(event)),
            Err(mpsc::RecvTimeoutError::Timeout) => Ok(None),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(self.closed()),
        }
    }

    /// Terminal state of the session under this subscription: `None`
    /// while the session is alive, [`SubscriptionEnd::CleanShutdown`]
    /// when the server announced its drain before the stream ended,
    /// [`SubscriptionEnd::ConnectionLost`] otherwise.
    pub fn end(&self) -> Option<SubscriptionEnd> {
        let reason = self.shared.dead_reason()?;
        if self
            .shared
            .clean_shutdown
            .load(std::sync::atomic::Ordering::Acquire)
        {
            Some(SubscriptionEnd::CleanShutdown)
        } else {
            Some(SubscriptionEnd::ConnectionLost(reason))
        }
    }

    fn closed(&self) -> ClientError {
        ClientError::Protocol(
            self.shared
                .dead_reason()
                .unwrap_or_else(|| "subscription closed".to_string()),
        )
    }
}

impl Iterator for Subscription {
    type Item = AuditEvent;

    fn next(&mut self) -> Option<AuditEvent> {
        self.rx.recv().ok()
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        let mut subs = self
            .shared
            .subs
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        subs.channels.remove(&self.id);
        // Without a channel, events for this id would pile up in the
        // orphan stash for the life of the session — drop them too.
        subs.orphans.remove(&self.id);
    }
}

/// The session's demultiplexer: matches response frames to pending
/// request ids and routes pushed events to their subscriptions. Exits
/// (recording why) on EOF, transport errors, or protocol violations —
/// which drops every pending sender, so all waiters fail fast with the
/// recorded reason.
fn reader_loop(shared: &SessionShared, mut reader: BufReader<TcpStream>) {
    let mut buf = Vec::new();
    let reason = loop {
        match read_frame(&mut reader, &mut buf, MAX_RESPONSE_LINE) {
            Ok(FrameRead::Frame) => {}
            Ok(FrameRead::Eof) => break "server closed connection".to_string(),
            Ok(FrameRead::Oversized) => break "oversized response frame".to_string(),
            Err(e) => break format!("connection error: {e}"),
        }
        let envelope = std::str::from_utf8(&buf)
            .map_err(|e| e.to_string())
            .and_then(|text| decode_line::<ResponseEnvelope>(text).map_err(|e| e.to_string()));
        let envelope = match envelope {
            Ok(envelope) => envelope,
            Err(e) => break format!("unparseable response envelope: {e}"),
        };
        if envelope.id == EVENT_ENVELOPE_ID {
            match envelope.body {
                Response::AuditEvent {
                    subscription,
                    epoch,
                    cached,
                    elapsed_us,
                    trace_id,
                    report,
                } => route_event(
                    shared,
                    AuditEvent {
                        subscription,
                        epoch,
                        cached,
                        elapsed_us,
                        trace_id,
                        report,
                    },
                ),
                Response::Error { message } => break format!("server error: {message}"),
                // The server announces a clean drain before closing;
                // remember it so terminal states can tell an orderly
                // shutdown from a cut cable, then keep reading — the
                // drain may still deliver queued events and responses.
                Response::ShuttingDown => {
                    shared
                        .clean_shutdown
                        .store(true, std::sync::atomic::Ordering::Release);
                    continue;
                }
                other => break format!("unexpected push: {other:?}"),
            }
            continue;
        }
        let slot = shared
            .pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&envelope.id);
        if let Some(tx) = slot {
            let _ = tx.send(envelope.body);
        }
        // No slot: the waiter timed out and abandoned it. Discard.
    };
    *shared.dead.lock().unwrap_or_else(PoisonError::into_inner) = Some(reason);
    // Dropping the senders unblocks every waiter and ends every
    // subscription iterator.
    shared
        .pending
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
    let mut subs = shared.subs.lock().unwrap_or_else(PoisonError::into_inner);
    subs.channels.clear();
    subs.orphans.clear();
}

fn route_event(shared: &SessionShared, event: AuditEvent) {
    let mut subs = shared.subs.lock().unwrap_or_else(PoisonError::into_inner);
    let id = event.subscription;
    match subs.channels.get(&id) {
        Some(tx) => {
            // A failed send hands the event back — no clone needed on
            // the delivery path.
            if tx.send(event).is_err() {
                subs.channels.remove(&id);
            }
        }
        None => {
            // Stash for a subscribe() that has not registered yet —
            // bounded per id *and* in distinct ids, so a server
            // inventing subscription ids (or an app leaking dropped
            // handles) cannot grow this map without bound.
            if subs.orphans.len() >= MAX_ORPHAN_SUBS && !subs.orphans.contains_key(&id) {
                return;
            }
            let stash = subs.orphans.entry(id).or_default();
            if stash.len() < MAX_ORPHAN_EVENTS {
                stash.push(event);
            }
        }
    }
}

fn ingest_answer(response: Response) -> Result<IngestAnswer, ClientError> {
    match response {
        Response::Ingested {
            changed,
            ignored,
            epoch,
        } => Ok(IngestAnswer {
            changed,
            ignored,
            epoch,
        }),
        other => Err(unexpected("Ingested", &other)),
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    match got {
        Response::Error { message } => ClientError::Remote(message.clone()),
        other => ClientError::Protocol(format!("expected {wanted}, got {other:?}")),
    }
}
