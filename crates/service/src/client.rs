//! The protocol-v2 client session, driven by its caller.
//!
//! [`Client::connect`] performs the `Hello`/`Welcome` negotiation and
//! then speaks length-prefixed binary frames carrying correlated
//! envelopes. A session is one socket and the caller's own reads — no
//! background thread. [`Client::begin`] writes a request and returns its
//! envelope id at once, so a session can keep many requests in flight;
//! [`Client::wait`] reads frames until that id's answer arrives. Frames
//! read on the way are kept for whoever asks for them: answers to other
//! in-flight ids by envelope id, pushed [`AuditEvent`]s by subscription
//! id for [`Client::next_event`]. Frames are cut with the daemon's own
//! incremental codec, so a read that times out in the middle of a frame
//! loses no bytes. The one-shot [`Client::request`] and the typed
//! helpers (`ping`/`ingest`/`audit_sia`/`status`/...) keep their
//! blocking shape on top.
//!
//! There is no v1 client: v1 line mode exists so a daemon can be
//! driven by hand (`nc`, a few lines of any language), and the e2e
//! suite drives it over a raw socket.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use indaas_core::AuditSpec;
use indaas_obs::TraceContext;
use indaas_pia::PiaRanking;
use indaas_sia::AuditReport;

use crate::codec::{fill_buf, frame_bytes, try_extract_frame, try_extract_line, Fill};
use crate::proto::{
    decode_line, encode_line, Envelope, MetricHisto, Request, Response, ResponseEnvelope,
    SpanEntry, EVENT_ENVELOPE_ID, PROTOCOL_VERSION,
};
use crate::subs::MAX_OUTBOX_EVENTS;

/// Largest accepted response frame (reports scale with candidates and
/// `top_n`, but not unboundedly; this caps client memory against a
/// misbehaving server).
const MAX_RESPONSE_FRAME: u64 = 256 * 1024 * 1024;

/// Largest accepted `Welcome` line — the handshake answer is tiny.
const MAX_WELCOME_LINE: u64 = 64 * 1024;

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

/// A typed `Status` answer: the store's shape and the result cache's
/// lookup totals. Every other count is in [`MetricsAnswer`].
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
    /// Result-cache hits since startup, both engines.
    pub cache_hits: u64,
    /// Result-cache misses since startup, both engines.
    pub cache_misses: u64,
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

/// A pushed audit result, as [`Client::next_event`] returns it (and as
/// `indaas watch --json` prints it).
#[derive(Clone, Debug, serde::Serialize)]
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

/// A pipelining protocol-v2 daemon session.
pub struct Client {
    stream: TcpStream,
    /// Bytes read but not yet cut into frames.
    inbuf: Vec<u8>,
    next_id: u64,
    /// Every in-flight envelope id, with its answer once read.
    answers: HashMap<u64, Option<Response>>,
    /// The unread events of each live subscription, oldest first.
    events: HashMap<u64, VecDeque<AuditEvent>>,
    /// Why the session ended, once it has.
    ended: Option<String>,
    /// Set when the server pushed `ShuttingDown`: the session's end is
    /// an announced drain, not a loss.
    clean_shutdown: bool,
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
        let mut stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);

        // Line-mode handshake, then binary frames.
        let mut hello = encode_line(&Request::Hello {
            version: PROTOCOL_VERSION,
        });
        hello.push('\n');
        stream.write_all(hello.as_bytes())?;
        let invalid = |m: &str| std::io::Error::new(ErrorKind::InvalidData, m.to_string());
        let mut inbuf = Vec::new();
        let line = loop {
            match try_extract_line(&mut inbuf, MAX_WELCOME_LINE) {
                Ok(Some(line)) => break line?,
                Ok(None) => {}
                Err(_) => return Err(invalid("oversized hello answer")),
            }
            match fill_buf(&mut stream, &mut inbuf)? {
                Fill::Bytes(_) => {}
                Fill::Eof => return Err(invalid("server closed the connection during the hello")),
                Fill::WouldBlock => return Err(ErrorKind::TimedOut.into()),
            }
        };
        match decode_line::<Response>(line.trim()) {
            Ok(Response::Welcome { version }) if version >= 2 => {}
            Ok(Response::Welcome { version }) => {
                return Err(invalid(&format!(
                    "server negotiated protocol v{version}; this client needs v2"
                )));
            }
            Ok(Response::Error { message }) => {
                return Err(invalid(&format!("server rejected the hello: {message}")));
            }
            Ok(other) => return Err(invalid(&format!("unexpected hello answer: {other:?}"))),
            Err(e) => return Err(invalid(&format!("unparseable hello answer: {e}"))),
        }
        Ok(Client {
            stream,
            inbuf,
            next_id: 0,
            answers: HashMap::new(),
            events: HashMap::new(),
            ended: None,
            clean_shutdown: false,
        })
    }

    /// Sets the socket's read timeout (`None` blocks forever, the
    /// default): [`Client::wait`] and every typed helper built on it
    /// fail once the daemon sends nothing for this long. A federation
    /// coordinator sets this so one wedged daemon fails the audit
    /// instead of hanging it.
    ///
    /// # Errors
    ///
    /// A zero duration, or the socket refusing the option.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Sends one request without waiting and returns its envelope id:
    /// [`Client::wait`] on that id yields exactly this request's
    /// response, however many other requests this session has in flight
    /// and in whatever order the daemon finishes them.
    ///
    /// Every request mints a fresh root [`TraceContext`] — the client
    /// is where traces begin — so the caller knows the id of the span
    /// tree the daemon records for it. Use [`Client::begin_traced`] to
    /// join an existing trace.
    ///
    /// # Errors
    ///
    /// I/O failures and an ended session fail fast.
    pub fn begin(&mut self, request: &Request) -> Result<u64, ClientError> {
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
    /// I/O failures and an ended session fail fast.
    pub fn begin_traced(
        &mut self,
        request: &Request,
        trace: Option<TraceContext>,
    ) -> Result<u64, ClientError> {
        if let Some(reason) = &self.ended {
            return Err(ClientError::Protocol(reason.clone()));
        }
        self.next_id += 1;
        let id = self.next_id;
        debug_assert_ne!(id, EVENT_ENVELOPE_ID);
        let envelope = encode_line(&Envelope {
            id,
            body: request.clone(),
            trace: trace.map(|c| c.encode_header()),
        });
        // Prefix and payload leave in one write: two small writes
        // through Nagle cost a delayed-ACK stall.
        self.stream.write_all(&frame_bytes(envelope.as_bytes()))?;
        self.answers.insert(id, None);
        Ok(id)
    }

    /// Reads frames until the answer to envelope `id` (from
    /// [`Client::begin`]) arrives, keeping every other frame for its own
    /// caller.
    ///
    /// # Errors
    ///
    /// An id not in flight on this session, a read timeout (the request
    /// stays in flight, so it may be waited on again), or an ended
    /// session, with why it ended.
    pub fn wait(&mut self, id: u64) -> Result<Response, ClientError> {
        if !self.answers.contains_key(&id) {
            return Err(ClientError::Protocol(format!(
                "request id {id} is not in flight on this session"
            )));
        }
        let answer = self.read_until(None, |c| {
            let answer = c.answers.get_mut(&id)?.take()?;
            c.answers.remove(&id);
            Some(answer)
        })?;
        answer.ok_or_else(|| {
            ClientError::Protocol(format!(
                "no response within the read timeout (request id {id})"
            ))
        })
    }

    /// Sends one request and waits for its response — [`Client::begin`]
    /// plus [`Client::wait`].
    ///
    /// # Errors
    ///
    /// I/O failures, unparseable responses, or a closed connection.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        let id = self.begin(request)?;
        self.wait(id)
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
        let id = self.begin_traced(request, trace)?;
        self.wait(id)
    }

    /// Registers a continuous SIA audit over `spec` and returns its
    /// subscription id: the daemon pushes an initial [`AuditEvent`]
    /// immediately and a fresh one after every ingest that changes a
    /// shard the spec's hosts route to. Other requests keep flowing on
    /// this session while events arrive; [`Client::next_event`] reads
    /// them.
    ///
    /// # Errors
    ///
    /// Invalid specs and daemon-side subscription limits surface as
    /// [`ClientError::Remote`].
    pub fn subscribe(&mut self, spec: &AuditSpec) -> Result<u64, ClientError> {
        let response = self.request(&Request::Subscribe {
            spec: spec.clone(),
            engine: "sia".to_string(),
        })?;
        match response {
            Response::Subscribed { subscription } => {
                // The daemon queues `Subscribed` before it schedules the
                // initial push, and frames are read in wire order: no
                // event for this id can have been read yet.
                self.events.insert(subscription, VecDeque::new());
                Ok(subscription)
            }
            other => Err(unexpected("Subscribed", &other)),
        }
    }

    /// Cancels a subscription made on this session; its unread events
    /// are dropped.
    ///
    /// # Errors
    ///
    /// Unknown ids surface as [`ClientError::Remote`].
    pub fn unsubscribe(&mut self, subscription: u64) -> Result<(), ClientError> {
        let response = self.request(&Request::Unsubscribe { subscription })?;
        match response {
            Response::Unsubscribed { .. } => {
                self.events.remove(&subscription);
                Ok(())
            }
            other => Err(unexpected("Unsubscribed", &other)),
        }
    }

    /// The next pushed event of `subscription`, reading frames for up to
    /// `timeout` (`None`: as long as the socket's read timeout allows).
    /// `Ok(None)` means no event arrived in time; the subscription is
    /// still live. A subscription keeps at most as many unread events as
    /// the daemon buffers per connection, shedding the oldest.
    ///
    /// # Errors
    ///
    /// A subscription this session does not hold, or an ended session
    /// whose unread events are all taken — [`Client::end`] then says
    /// how it ended.
    pub fn next_event(
        &mut self,
        subscription: u64,
        timeout: Option<Duration>,
    ) -> Result<Option<AuditEvent>, ClientError> {
        if !self.events.contains_key(&subscription) {
            return Err(ClientError::Protocol(format!(
                "no live subscription {subscription} on this session"
            )));
        }
        let take = |c: &mut Client| c.events.get_mut(&subscription)?.pop_front();
        let Some(deadline) = timeout.and_then(|t| Instant::now().checked_add(t)) else {
            return self.read_until(None, take);
        };
        let caller_timeout = self.stream.read_timeout()?;
        let event = self.read_until(Some(deadline), take);
        self.stream.set_read_timeout(caller_timeout)?;
        event
    }

    /// How the session ended: `None` while it is alive,
    /// [`SubscriptionEnd::CleanShutdown`] when the server announced its
    /// drain before the stream ended, [`SubscriptionEnd::ConnectionLost`]
    /// otherwise.
    pub fn end(&self) -> Option<SubscriptionEnd> {
        let reason = self.ended.as_ref()?;
        Some(if self.clean_shutdown {
            SubscriptionEnd::CleanShutdown
        } else {
            SubscriptionEnd::ConnectionLost(reason.clone())
        })
    }

    /// Reads and routes frames until `take` yields. `Ok(None)` when
    /// `deadline` passes first or, without one, when a read times out
    /// on the socket's own timeout.
    fn read_until<T>(
        &mut self,
        deadline: Option<Instant>,
        mut take: impl FnMut(&mut Self) -> Option<T>,
    ) -> Result<Option<T>, ClientError> {
        loop {
            if let Some(found) = take(self) {
                return Ok(Some(found));
            }
            match try_extract_frame(&mut self.inbuf, MAX_RESPONSE_FRAME) {
                Ok(Some(frame)) => {
                    if let Err(reason) = self.route(&frame) {
                        self.fail(reason);
                    }
                    continue;
                }
                Ok(None) => {}
                Err(e) => self.fail(format!("oversized response frame: {e}")),
            }
            if let Some(reason) = &self.ended {
                return Err(ClientError::Protocol(reason.clone()));
            }
            if let Some(deadline) = deadline {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Ok(None);
                }
                self.stream.set_read_timeout(Some(left))?;
            }
            match fill_buf(&mut self.stream, &mut self.inbuf) {
                // A read timeout: a deadline is re-checked above.
                Ok(Fill::WouldBlock) if deadline.is_none() => return Ok(None),
                Ok(Fill::Bytes(_) | Fill::WouldBlock) => {}
                // Frames already buffered are still routed before the
                // end is reported.
                Ok(Fill::Eof) => {
                    self.ended
                        .get_or_insert_with(|| "server closed connection".to_string());
                }
                Err(e) => {
                    self.ended
                        .get_or_insert_with(|| format!("connection error: {e}"));
                }
            }
        }
    }

    /// Ends the session on a protocol violation: nothing after it on
    /// the stream can be trusted.
    fn fail(&mut self, reason: String) {
        self.inbuf.clear();
        self.ended.get_or_insert(reason);
    }

    /// Files one frame: an answer under its envelope id, an event under
    /// its subscription. Answers to ids not in flight and events of
    /// subscriptions this session no longer holds are dropped.
    fn route(&mut self, frame: &[u8]) -> Result<(), String> {
        let envelope = std::str::from_utf8(frame)
            .map_err(|e| e.to_string())
            .and_then(|text| decode_line::<ResponseEnvelope>(text).map_err(|e| e.to_string()))
            .map_err(|e| format!("unparseable response envelope: {e}"))?;
        if envelope.id != EVENT_ENVELOPE_ID {
            if let Some(slot) = self.answers.get_mut(&envelope.id) {
                *slot = Some(envelope.body);
            }
            return Ok(());
        }
        match envelope.body {
            Response::AuditEvent {
                subscription,
                epoch,
                cached,
                elapsed_us,
                trace_id,
                report,
            } => {
                if let Some(queue) = self.events.get_mut(&subscription) {
                    if queue.len() >= MAX_OUTBOX_EVENTS {
                        queue.pop_front();
                    }
                    queue.push_back(AuditEvent {
                        subscription,
                        epoch,
                        cached,
                        elapsed_us,
                        trace_id,
                        report,
                    });
                }
                Ok(())
            }
            // The server announces a clean drain before closing; the
            // drain may still deliver queued events and responses.
            Response::ShuttingDown => {
                self.clean_shutdown = true;
                Ok(())
            }
            Response::Error { message } => Err(format!("server error: {message}")),
            other => Err(format!("unexpected push: {other:?}")),
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

    /// Fetches the store's shape as a typed [`StatusAnswer`].
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
                cache_hits,
                cache_misses,
            } => Ok(StatusAnswer {
                epoch,
                records,
                hosts,
                shard_epochs,
                shard_records,
                cache_hits,
                cache_misses,
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
