//! The readiness loop: one thread, one `epoll` instance, every client
//! connection.
//!
//! The threaded server spent two OS threads per connection (a blocking
//! reader plus an outbox-draining writer) and a short-lived thread per
//! in-flight v2 envelope. This module replaces all of them with a
//! single loop that owns the listener, every client socket, an eventfd
//! [`Waker`], and a [`TimerWheel`]:
//!
//! - **Reads** append whatever the kernel has ready to a per-connection
//!   buffer; the incremental codecs ([`crate::codec`]) pop complete
//!   lines/frames out of it, so byte-at-a-time delivery decodes exactly
//!   like the old blocking readers.
//! - **Writes** go through the connection's [`Outbox`] (jobs and push
//!   audits enqueue fully-framed bytes from worker threads, exactly as
//!   before) into a [`WriteQueue`] the loop drains on `EPOLLOUT`,
//!   resuming mid-frame across `WouldBlock`.
//! - **Requests** on either protocol get a [`ResponseSlot`] and go
//!   through one `match` (`EventLoop::dispatch`): cheap ones are
//!   answered inline, cache-miss audits are admitted onto the bounded
//!   [`Scheduler`](crate::scheduler::Scheduler) pool with the slot the
//!   job fulfills when done — no thread waits for the result. A guard
//!   timer answers for a wedged worker; a [`CrashGuard`] answers for a
//!   panicked one. Only line mode's greeting (`Hello`, `FederateHello`)
//!   is handled before dispatch: it switches the connection's mode.
//! - **Timers** absorb the old detached collector thread, per-request
//!   deadline guards, and every federation deadline and retry backoff.
//! - **Federation** is loop state too ([`crate::federation`]): a
//!   `FederateHello` switches its connection to peer mode, whose round
//!   frames route through the loop-owned session table; a
//!   `FederateStart` becomes a party whose crypto runs as pool jobs and
//!   whose successor link is one more non-blocking socket on the poller.

use std::collections::HashMap;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use indaas_core::CancelToken;
use indaas_netpoll::{Event, Interest, Poller, TimerWheel, Waker};
use indaas_obs::{log as slog, Span, TraceContext};

use crate::codec::{self, WriteQueue};
use crate::federation::{self, FedTimer, LoopIo, PartyPost, Ring};
use crate::proto::{
    decode_line, encode_line, frame_answer, Envelope, Request, Response, SlotEncoding,
    EVENT_ENVELOPE_ID, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};
use crate::server::{
    admit_pia, admit_sia, ingest, metrics, register_subscription, request_kind, run_collectors,
    save_dirty, schedule_push_audit, status, trace_get, Mutation, ServiceState,
    MAX_IN_FLIGHT_REQUESTS, MAX_REQUEST_LINE,
};
use crate::subs::Outbox;
use crate::telemetry::Telemetry;

/// Token the listener is registered under.
const LISTENER_TOKEN: u64 = 0;
/// Token the eventfd waker is registered under.
const WAKER_TOKEN: u64 = 1;
/// First token handed to a client connection.
const FIRST_CONN_TOKEN: u64 = 16;
/// Bytes of pending output past which the loop stops *reading* a
/// connection — a peer that writes requests faster than it drains
/// responses gets TCP backpressure instead of unbounded server memory.
const WRITE_HIGH_WATERMARK: usize = 4 * 1024 * 1024;
/// Socket-read chunks serviced per readiness event before yielding to
/// other connections (level-triggered epoll re-reports the remainder).
const MAX_FILLS_PER_EVENT: usize = 8;
/// How long the shutdown drain waits for blocked sockets to flush
/// their final frames before force-closing them.
const SHUTDOWN_LINGER: Duration = Duration::from_secs(2);

/// The cross-thread face of the loop: worker threads and external
/// shutdown callers reach the loop only through this.
pub(crate) struct LoopShared {
    waker: Waker,
    /// Connections whose outbox gained a frame (or closed) since the
    /// loop last drained this list.
    ready: Mutex<Vec<u64>>,
    /// Federation pool jobs' results, taken under one lock per
    /// iteration.
    parties: Mutex<Vec<PartyPost>>,
}

impl LoopShared {
    /// Wakes the loop so it re-checks the shutdown flag and its lists.
    pub(crate) fn wake(&self) {
        self.waker.wake();
    }

    fn notify_conn(&self, token: u64) {
        self.ready
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(token);
        self.waker.wake();
    }

    fn take_ready(&self) -> Vec<u64> {
        std::mem::take(&mut *self.ready.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Hands a federation pool job's result to the loop.
    pub(crate) fn post_party(&self, post: PartyPost) {
        self.parties
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(post);
        self.waker.wake();
    }

    fn take_parties(&self) -> Vec<PartyPost> {
        std::mem::take(&mut *self.parties.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// One outstanding request's answer-exactly-once cell. Whoever fulfills
/// it first — the job, the deadline guard timer, or the crash guard —
/// wins; later calls are no-ops. Fulfilling records the dispatch
/// latency and the request span, frames the response for the session's
/// protocol, and enqueues it on the connection's outbox (whose notifier
/// wakes the loop).
pub(crate) struct ResponseSlot {
    claimed: AtomicBool,
    outbox: Arc<Outbox>,
    encoding: SlotEncoding,
    /// The v2 per-connection in-flight gauge; `None` for v1 (lock-step
    /// sessions have at most one outstanding request by construction).
    in_flight: Option<Arc<AtomicUsize>>,
    pub(crate) ctx: TraceContext,
    kind: &'static str,
    started: Instant,
    telemetry: Arc<Telemetry>,
}

impl ResponseSlot {
    /// Delivers `response` if nothing else has yet; returns whether
    /// this call was the one that claimed the slot.
    pub(crate) fn fulfill(&self, response: Response) -> bool {
        // An already-claimed slot skips the encode: every finished job's
        // crash guard lands here.
        !self.claimed.load(Ordering::SeqCst) && self.fulfill_body(&encode_line(&response))
    }

    /// [`ResponseSlot::fulfill`] with the response already encoded (a
    /// typed response's `encode_line`, or a spliced SIA answer).
    pub(crate) fn fulfill_body(&self, body: &str) -> bool {
        if self.claimed.swap(true, Ordering::SeqCst) {
            return false;
        }
        let elapsed_us = self.started.elapsed().as_micros() as u64;
        self.telemetry.dispatch_us.record(elapsed_us);
        // The request span uses the wire context's span id directly:
        // the client minted it, so client and server agree on the id
        // without a reply header.
        self.telemetry
            .spans
            .record(self.ctx, self.kind, String::new(), elapsed_us);
        let frame = frame_answer(self.encoding, body, &self.telemetry.response_bytes);
        self.outbox.push_response(frame);
        if let Some(gauge) = &self.in_flight {
            gauge.fetch_sub(1, Ordering::AcqRel);
        }
        true
    }
}

/// Fulfills its slot with the crash message when dropped unclaimed —
/// jobs own one so a panic mid-audit (unwound by the scheduler's
/// `catch_unwind`) still answers the request, exactly as the old
/// disconnected-channel path did.
pub(crate) struct CrashGuard(pub(crate) Arc<ResponseSlot>);

impl Drop for CrashGuard {
    fn drop(&mut self) {
        self.0
            .fulfill(Response::error("audit job crashed; see server log"));
    }
}

/// What the loop's timer wheel carries.
pub(crate) enum TimerEvent {
    /// Re-run the registered collectors (the old detached collector
    /// thread, absorbed).
    Collect,
    /// A pooled job's deadline-plus-grace guard: answers "audit timed
    /// out" for a wedged worker and cancels its token.
    Guard {
        slot: Arc<ResponseSlot>,
        token: CancelToken,
    },
    /// The shutdown drain's patience ran out; force-close stragglers.
    ShutdownLinger,
    /// A federation party's deadline, budget, backoff or dial timer.
    Fed(FedTimer),
}

/// Transport framing state of one connection.
#[derive(Clone, Copy)]
enum Mode {
    /// NDJSON lines: the pre-negotiation greeting and all of a v1
    /// session's life.
    Line {
        /// Whether any effective line has been consumed — `Hello` is
        /// only legal before this flips.
        greeted: bool,
        /// A v1 request is on the pool; line parsing pauses until its
        /// response pops from the outbox (lock-step, as the blocking
        /// loop behaved).
        busy: bool,
    },
    /// Negotiated protocol ≥ 2: length-prefixed envelope frames, many
    /// ids in flight.
    Frames,
    /// An accepted `FederateHello`: length-prefixed round frames, no
    /// answers but one error line before a protocol violation closes it.
    Peer,
}

/// One client connection's entire state — what used to live across a
/// reader thread's stack, a writer thread's stack, and their shared
/// outbox.
struct Conn {
    token: u64,
    stream: TcpStream,
    conn_id: u64,
    outbox: Arc<Outbox>,
    shed_name: String,
    inbuf: Vec<u8>,
    wq: WriteQueue,
    mode: Mode,
    interest: Interest,
    /// Read side is done (EOF, protocol violation, shutdown drain):
    /// flush the write queue, then close.
    closing: bool,
    in_flight: Arc<AtomicUsize>,
    /// Greeting/v1 lines the loop queued that are still in the outbox.
    /// The `svc.frame.write` fault covers v2 envelope frames only (the
    /// threaded server wrote lines outside its writer's fault point),
    /// and a `Welcome` that flips the mode to `Frames` is pumped
    /// *after* the flip — this counter is what still identifies it as
    /// a line.
    line_frames_queued: usize,
}

/// What servicing a connection decided about its future.
enum Verdict {
    /// Keep serving.
    Keep,
    /// Stop reading; deliver what is queued, then close.
    CloseAfterFlush,
    /// Tear down now (write error, injected cut, or fully flushed).
    Close,
    /// Mode switched mid-buffer (v2 negotiation, peer welcome); reparse
    /// the buffer.
    Rescan,
}

/// The context a request runs under — the single place one is chosen:
/// the caller's when the envelope carried a parseable header, a freshly
/// minted root otherwise (v1 lines, header-less clients, garbage —
/// trace context is advisory metadata and can never poison a request).
fn request_context(header: Option<&str>) -> TraceContext {
    header
        .and_then(TraceContext::parse_header)
        .unwrap_or_else(TraceContext::root)
}

/// A pool job or federation party owes the answer: a lock-step line
/// session stops parsing until it lands (the pump resumes it).
fn await_answer(conn: &mut Conn) {
    if let Mode::Line { greeted, .. } = conn.mode {
        conn.mode = Mode::Line {
            greeted,
            busy: true,
        };
    }
}

/// Runs the readiness loop until shutdown completes. This is
/// `Server::run`'s core; the caller handles pool teardown and the
/// final segment saves.
pub(crate) fn run_loop(listener: TcpListener, state: &Arc<ServiceState>) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    let waker = Waker::new(&poller, WAKER_TOKEN)?;
    let shared = Arc::new(LoopShared {
        waker,
        ready: Mutex::new(Vec::new()),
        parties: Mutex::new(Vec::new()),
    });
    *state
        .loop_shared
        .lock()
        .unwrap_or_else(PoisonError::into_inner) = Some(Arc::clone(&shared));
    poller.add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;
    let mut timers = TimerWheel::new();
    if let Some(interval) = state.config.collect_interval {
        timers.arm(Instant::now() + interval, TimerEvent::Collect);
    }
    let mut el = EventLoop {
        state,
        poller,
        shared,
        listener,
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        timers,
        ring: Ring::default(),
        draining: false,
    };
    let result = el.serve();
    *state
        .loop_shared
        .lock()
        .unwrap_or_else(PoisonError::into_inner) = None;
    result
}

struct EventLoop<'a> {
    state: &'a Arc<ServiceState>,
    poller: Poller,
    shared: Arc<LoopShared>,
    listener: TcpListener,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    timers: TimerWheel<TimerEvent>,
    ring: Ring,
    draining: bool,
}

impl EventLoop<'_> {
    /// The federation ring plus the loop resources it drives parties with.
    fn ring_io(&mut self) -> (&mut Ring, LoopIo<'_>) {
        let io = LoopIo {
            state: self.state,
            poller: &self.poller,
            timers: &mut self.timers,
            shared: &self.shared,
        };
        (&mut self.ring, io)
    }

    fn serve(&mut self) -> std::io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.state.shutting_down.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            if self.draining && self.conns.is_empty() {
                return Ok(());
            }
            let timeout = self
                .timers
                .next_deadline()
                .map(|at| at.saturating_duration_since(Instant::now()));
            let n = self.poller.wait(&mut events, timeout)?; // lint:allow(blocking_in_loop) -- the loop's own poll wait: this is its idle point, not a stall
            self.state.telemetry.loop_wakeups_total.inc();
            self.state.telemetry.loop_ready_events.record(n as u64);
            for ev in events.iter().copied() {
                match ev.token {
                    LISTENER_TOKEN => {
                        if !self.draining {
                            self.accept_ready()?;
                        }
                    }
                    WAKER_TOKEN => self.shared.waker.drain(),
                    token if token & federation::LINK_TOKEN_BIT != 0 => {
                        let (ring, mut io) = self.ring_io();
                        ring.link_event(&mut io, token, &ev);
                    }
                    token => {
                        if ev.readable || ev.closed {
                            self.service_read(token);
                        } else if ev.writable {
                            self.service_writable(token);
                        }
                    }
                }
            }
            for token in self.shared.take_ready() {
                self.service_writable(token);
            }
            let posts = self.shared.take_parties();
            let (ring, mut io) = self.ring_io();
            for post in posts {
                ring.on_post(&mut io, post);
            }
            let now = Instant::now();
            while let Some((_, ev)) = self.timers.pop_expired(now) {
                self.fire_timer(ev);
            }
            self.state
                .telemetry
                .conn_registered
                .set(self.conns.len() as u64);
            let queued: usize = self.conns.values().map(|c| c.wq.queued_bytes()).sum();
            self.state.telemetry.write_queue_depth.set(queued as u64);
        }
    }

    fn accept_ready(&mut self) -> std::io::Result<()> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.admit_conn(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn admit_conn(&mut self, stream: TcpStream) {
        // Frames are a length prefix plus payload in one buffer; with
        // Nagle on, small writes can stall ~40ms behind a delayed ACK.
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let occupied = self.state.active_conns.fetch_add(1, Ordering::SeqCst) + 1;
        let max = self.state.config.max_conns;
        let token = self.next_token;
        self.next_token += 1;
        let conn_id = self.state.next_conn_id.fetch_add(1, Ordering::Relaxed);
        // Sheds on this connection's outbox count both globally and
        // under a per-connection name, for the connection's lifetime.
        let shed_name = crate::names::outbox_shed_conn(conn_id);
        let conn_shed = self.state.telemetry.registry.counter(&shed_name);
        let outbox = Arc::new(Outbox::with_shed_counters(vec![
            Arc::clone(&self.state.telemetry.outbox_shed_total),
            conn_shed,
        ]));
        let shared = Arc::clone(&self.shared);
        outbox.set_notifier(move || shared.notify_conn(token));
        let mut conn = Conn {
            token,
            stream,
            conn_id,
            outbox,
            shed_name,
            inbuf: Vec::new(),
            wq: WriteQueue::new(),
            mode: Mode::Line {
                greeted: false,
                busy: false,
            },
            interest: Interest::READABLE,
            closing: false,
            in_flight: Arc::new(AtomicUsize::new(0)),
            line_frames_queued: 0,
        };
        if occupied > max {
            // Admission control: one clear error, then the connection is
            // flushed and dropped before it can claim loop state.
            self.push_line(
                &mut conn,
                &Response::error(format!(
                    "connection limit reached ({max} concurrent connections); retry later"
                )),
            );
            conn.closing = true;
            conn.outbox.close();
        }
        if self
            .poller
            .add(conn.stream.as_raw_fd(), token, conn.interest)
            .is_err()
        {
            self.destroy(conn);
            return;
        }
        let verdict = self.pump(&mut conn);
        self.finish(token, conn, verdict);
    }

    /// Readable (or hung-up) socket: pull bytes, parse, dispatch, then
    /// pump whatever responses landed inline.
    fn service_read(&mut self, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        let mut verdict = self.drive_read(&mut conn);
        if matches!(verdict, Verdict::Keep) {
            verdict = self.pump(&mut conn);
        }
        self.finish(token, conn, verdict);
    }

    /// Writable socket or outbox notification: drain outbox → write
    /// queue → socket.
    fn service_writable(&mut self, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        let verdict = self.pump(&mut conn);
        self.finish(token, conn, verdict);
    }

    fn drive_read(&mut self, conn: &mut Conn) -> Verdict {
        for _ in 0..MAX_FILLS_PER_EVENT {
            if conn.closing || conn.wq.queued_bytes() > WRITE_HIGH_WATERMARK {
                return Verdict::Keep;
            }
            match codec::fill_buf(&mut conn.stream, &mut conn.inbuf) {
                Ok(codec::Fill::Bytes(_)) => match self.process_inbuf(conn) {
                    Verdict::Keep => {}
                    v => return v,
                },
                Ok(codec::Fill::WouldBlock) => return Verdict::Keep,
                // EOF and read errors end the session the same way the
                // threaded reader did: stop reading, flush what the
                // writer still holds, then sever.
                Ok(codec::Fill::Eof) | Err(_) => return Verdict::CloseAfterFlush,
            }
        }
        Verdict::Keep
    }

    fn process_inbuf(&mut self, conn: &mut Conn) -> Verdict {
        loop {
            let verdict = match conn.mode {
                Mode::Frames => self.process_frames(conn),
                Mode::Line { .. } => self.process_lines(conn),
                Mode::Peer => self.process_peer_frames(conn),
            };
            match verdict {
                Verdict::Rescan => continue,
                v => return v,
            }
        }
    }

    fn process_frames(&mut self, conn: &mut Conn) -> Verdict {
        loop {
            let frame = match codec::try_extract_frame(&mut conn.inbuf, MAX_REQUEST_LINE) {
                Ok(Some(frame)) => frame,
                Ok(None) => return Verdict::Keep,
                Err(codec::DecodeError::Oversized { .. }) => {
                    conn.outbox.push_response(self.envelope_frame(
                        EVENT_ENVELOPE_ID,
                        Response::error(format!("request frame exceeds {MAX_REQUEST_LINE} bytes")),
                    ));
                    return Verdict::CloseAfterFlush; // cannot resync
                }
            };
            // Chaos hook: `svc.frame.read` severs the session at the
            // next frame (error/disconnect) or loses one request after
            // reading it off the wire (drop).
            let read_fault = indaas_faultinj::point(indaas_faultinj::points::SVC_FRAME_READ);
            if matches!(
                read_fault,
                indaas_faultinj::FaultAction::Error | indaas_faultinj::FaultAction::Disconnect
            ) {
                return Verdict::CloseAfterFlush;
            }
            if read_fault == indaas_faultinj::FaultAction::Drop {
                continue;
            }
            match self.handle_envelope(conn, &frame) {
                Verdict::Keep => {}
                v => return v,
            }
        }
    }

    /// A federation peer session's round frames, each routed to its
    /// session. Every protocol violation is answered with one error line,
    /// then the connection closes after the flush.
    fn process_peer_frames(&mut self, conn: &mut Conn) -> Verdict {
        loop {
            let frame = match codec::try_extract_frame(&mut conn.inbuf, MAX_REQUEST_LINE) {
                Ok(Some(frame)) => frame,
                Ok(None) => return Verdict::Keep,
                Err(codec::DecodeError::Oversized { .. }) => {
                    self.push_line(
                        conn,
                        &Response::error(format!("peer frame exceeds {MAX_REQUEST_LINE} bytes")),
                    );
                    return Verdict::CloseAfterFlush;
                }
            };
            // Chaos hook: `svc.frame.read` ends the peer session
            // (error/disconnect) or loses one round frame (drop) — the
            // sender's retry/re-dial path is what recovers.
            match indaas_faultinj::point(indaas_faultinj::points::SVC_FRAME_READ) {
                indaas_faultinj::FaultAction::Pass => {}
                indaas_faultinj::FaultAction::Drop => continue,
                _ => return Verdict::CloseAfterFlush,
            }
            let (ring, mut io) = self.ring_io();
            if let Err(message) = ring.receive(&mut io, &frame) {
                self.push_line(conn, &Response::error(message));
                return Verdict::CloseAfterFlush;
            }
        }
    }

    fn handle_envelope(&mut self, conn: &mut Conn, buf: &[u8]) -> Verdict {
        let state = self.state;
        let decode_started = Instant::now();
        let envelope = std::str::from_utf8(buf)
            .map_err(|e| e.to_string())
            .and_then(|text| decode_line::<Envelope>(text).map_err(|e| e.to_string()));
        state
            .telemetry
            .envelope_decode_us
            .record(decode_started.elapsed().as_micros() as u64);
        let Envelope { id, body, trace } = match envelope {
            Ok(envelope) => envelope,
            Err(e) => {
                // v2 frames come only from machine encoders; an
                // unparseable envelope is a broken peer, not a typo —
                // answer once and drop.
                conn.outbox.push_response(self.envelope_frame(
                    EVENT_ENVELOPE_ID,
                    Response::error(format!("malformed envelope: {e}")),
                ));
                return Verdict::CloseAfterFlush;
            }
        };
        if id == EVENT_ENVELOPE_ID {
            conn.outbox.push_response(self.envelope_frame(
                EVENT_ENVELOPE_ID,
                Response::error("envelope id 0 is reserved for server pushes"),
            ));
            return Verdict::CloseAfterFlush;
        }
        state.telemetry.requests_total.inc();
        if conn.in_flight.load(Ordering::Acquire) >= MAX_IN_FLIGHT_REQUESTS {
            conn.outbox.push_response(self.envelope_frame(
                id,
                Response::error(format!(
                    "too many in-flight requests (max {MAX_IN_FLIGHT_REQUESTS})"
                )),
            ));
            return Verdict::Keep;
        }
        let slot = self.slot(
            conn,
            SlotEncoding::V2 { id },
            request_context(trace.as_deref()),
            &body,
        );
        self.dispatch(conn, body, slot)
    }

    fn process_lines(&mut self, conn: &mut Conn) -> Verdict {
        loop {
            let Mode::Line { greeted, busy } = conn.mode else {
                return Verdict::Rescan;
            };
            if busy {
                // Lock-step: the pool owns the current request; the
                // pump resumes parsing when its response pops.
                return Verdict::Keep;
            }
            let line = match codec::try_extract_line(&mut conn.inbuf, MAX_REQUEST_LINE) {
                Ok(Some(Ok(line))) => line,
                // Invalid UTF-8: the blocking reader dropped such
                // connections silently; so does the loop.
                Ok(Some(Err(_))) => return Verdict::CloseAfterFlush,
                Ok(None) => return Verdict::Keep,
                Err(codec::DecodeError::Oversized { .. }) => {
                    self.push_line(
                        conn,
                        &Response::error(format!("request line exceeds {MAX_REQUEST_LINE} bytes")),
                    );
                    return Verdict::CloseAfterFlush; // cannot resync mid-line
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            let request = match decode_line::<Request>(line.trim()) {
                Ok(request) => request,
                Err(e) => {
                    conn.mode = Mode::Line {
                        greeted: true,
                        busy: false,
                    };
                    self.push_line(conn, &Response::error(format!("malformed request: {e}")));
                    continue;
                }
            };
            // A peer handshake re-tags this connection as a peer session
            // — audits and federation share one listener; round frames
            // may already be buffered behind the hello.
            if let Request::FederateHello { version, node } = request {
                let response = federation::handshake(self.state, version, &node);
                let welcomed = matches!(response, Response::FederateWelcome { .. });
                self.push_line(conn, &response);
                if !welcomed {
                    return Verdict::CloseAfterFlush;
                }
                conn.mode = Mode::Peer;
                return Verdict::Rescan;
            }
            if let Request::Hello { version } = request {
                if !greeted {
                    match self.greet(conn, version) {
                        Verdict::Keep => continue,
                        v => return v,
                    }
                }
            }
            conn.mode = Mode::Line {
                greeted: true,
                busy: false,
            };
            self.state.telemetry.requests_total.inc();
            // v1 lines carry no envelope, hence no caller context.
            let slot = self.slot(conn, SlotEncoding::V1, request_context(None), &request);
            match self.dispatch(conn, request, slot) {
                Verdict::Keep => {}
                v => return v,
            }
        }
    }

    /// A protocol hello on a connection's first line negotiates the
    /// session version: ≥ 2 switches to multiplexed binary frames, 1
    /// stays in the lock-step line mode. A later hello is no greeting:
    /// it is dispatched like any other request.
    fn greet(&mut self, conn: &mut Conn, version: u32) -> Verdict {
        conn.mode = Mode::Line {
            greeted: true,
            busy: false,
        };
        if version < MIN_PROTOCOL_VERSION {
            self.push_line(
                conn,
                &Response::error(format!(
                    "protocol version {version} below supported minimum {MIN_PROTOCOL_VERSION}"
                )),
            );
            return Verdict::CloseAfterFlush;
        }
        let negotiated = version.min(PROTOCOL_VERSION);
        self.push_line(
            conn,
            &Response::Welcome {
                version: negotiated,
            },
        );
        slog::debug(
            "server",
            &format!("session negotiated protocol v{negotiated} (client offered v{version})"),
        );
        if negotiated >= 2 {
            conn.mode = Mode::Frames;
            return Verdict::Rescan; // pipelined frames may follow
        }
        Verdict::Keep
    }

    /// The answer slot of one request read from `conn`, framed for the
    /// session's protocol. A v2 slot counts against the connection's
    /// in-flight cap until it is fulfilled; a lock-step v1 session has at
    /// most one outstanding request by construction.
    fn slot(
        &self,
        conn: &Conn,
        encoding: SlotEncoding,
        ctx: TraceContext,
        request: &Request,
    ) -> Arc<ResponseSlot> {
        let in_flight = match encoding {
            SlotEncoding::V1 => None,
            SlotEncoding::V2 { .. } => {
                conn.in_flight.fetch_add(1, Ordering::AcqRel);
                Some(Arc::clone(&conn.in_flight))
            }
        };
        Arc::new(ResponseSlot {
            claimed: AtomicBool::new(false),
            outbox: Arc::clone(&conn.outbox),
            encoding,
            in_flight,
            ctx,
            kind: request_kind(request),
            started: Instant::now(),
            telemetry: Arc::clone(&self.state.telemetry),
        })
    }

    /// Answers one request: every request on either protocol comes
    /// through this one `match` with the slot its answer goes into.
    /// Cheap requests are answered right here; an audit miss or a
    /// federation party takes the slot along and answers later.
    fn dispatch(&mut self, conn: &mut Conn, request: Request, slot: Arc<ResponseSlot>) -> Verdict {
        let state = self.state;
        let v2 = matches!(conn.mode, Mode::Frames);
        let response = match request {
            Request::Ping => Response::Pong,
            Request::Ingest { records } => ingest(state, &records, Mutation::Ingest, slot.ctx),
            Request::Retract { records } => ingest(state, &records, Mutation::Retract, slot.ctx),
            Request::Status => status(state),
            Request::Metrics { recent } => metrics(state, recent),
            Request::Trace { id } => trace_get(state, &id),
            Request::Hello { .. } if v2 => Response::error("session version is already negotiated"),
            Request::Hello { .. } => {
                Response::error("Hello must be the first line of a connection")
            }
            // Line mode takes a peer hello before dispatch, whatever its
            // position; only a v2 envelope can carry one here.
            Request::FederateHello { .. } => {
                Response::error("FederateHello must be the first line of a connection")
            }
            Request::Subscribe { .. } | Request::Unsubscribe { .. } if !v2 => Response::error(
                "subscriptions require a protocol v2 session (open the connection with Hello)",
            ),
            Request::Subscribe { spec, engine } => {
                match register_subscription(state, spec, &engine, &conn.outbox, conn.conn_id) {
                    Ok((subscription, spec)) => {
                        // Answer first, then the initial audit: the
                        // outbox is FIFO, so `Subscribed` reaches the
                        // wire before the first `AuditEvent` can.
                        slot.fulfill(Response::Subscribed { subscription });
                        let outbox = Arc::clone(&conn.outbox);
                        schedule_push_audit(
                            state,
                            subscription,
                            spec,
                            outbox,
                            Instant::now(),
                            slot.ctx,
                        );
                        return Verdict::Keep;
                    }
                    Err(message) => Response::error(message),
                }
            }
            Request::Unsubscribe { subscription } => {
                match state.subs.unregister(subscription, conn.conn_id) {
                    Ok(()) => Response::Unsubscribed { subscription },
                    Err(e) => Response::error(e),
                }
            }
            Request::Shutdown => {
                slot.fulfill(Response::ShuttingDown);
                // SeqCst pairs with the mutation gate in
                // `apply_mutation`; the drain begins at the top of the
                // next loop iteration, after this ack is queued.
                state.shutting_down.store(true, Ordering::SeqCst);
                return Verdict::CloseAfterFlush;
            }
            Request::AuditSia { spec, timeout_ms } => {
                let guard = admit_sia(state, spec, timeout_ms, slot);
                self.await_job(conn, guard);
                return Verdict::Keep;
            }
            Request::AuditPia {
                providers,
                way,
                minhash,
                timeout_ms,
            } => {
                let guard = admit_pia(state, providers, way, minhash, timeout_ms, slot);
                self.await_job(conn, guard);
                return Verdict::Keep;
            }
            request @ Request::FederateStart { .. } => {
                let (ring, mut io) = self.ring_io();
                ring.start(&mut io, request, slot);
                await_answer(conn);
                return Verdict::Keep;
            }
        };
        slot.fulfill(response);
        Verdict::Keep
    }

    /// After an audit's admission: when a pool job took the slot, arm
    /// its guard timer — which answers only for a wedged worker; the job
    /// polls its token and reports cancellation itself — and wait for
    /// the answer.
    fn await_job(&mut self, conn: &mut Conn, guard: Option<(Instant, TimerEvent)>) {
        if let Some((at, guard)) = guard {
            self.timers.arm(at, guard);
            await_answer(conn);
        }
    }

    /// Moves outbox frames into the write queue (one `svc.frame.write`
    /// fault check per frame, as the writer thread did), writes what
    /// the socket will take, and resumes a lock-step v1 parse freed by
    /// a response.
    fn pump(&mut self, conn: &mut Conn) -> Verdict {
        loop {
            let mut resumed = false;
            while let Some(frame) = conn.outbox.try_pop() {
                if let Mode::Line {
                    greeted,
                    busy: true,
                } = conn.mode
                {
                    conn.mode = Mode::Line {
                        greeted,
                        busy: false,
                    };
                    resumed = true;
                }
                // Chaos hook: `svc.frame.write` loses one outgoing frame
                // or severs the connection under the drain. v2 envelope
                // frames only — greeting and v1 lines were written
                // directly by the threaded server, outside its writer's
                // fault point.
                if conn.line_frames_queued > 0 {
                    conn.line_frames_queued -= 1;
                } else if matches!(conn.mode, Mode::Frames) {
                    let fault = indaas_faultinj::point(indaas_faultinj::points::SVC_FRAME_WRITE);
                    if fault == indaas_faultinj::FaultAction::Drop {
                        continue;
                    }
                    if fault != indaas_faultinj::FaultAction::Pass {
                        return Verdict::Close;
                    }
                }
                conn.wq.push(frame);
            }
            if !conn.wq.is_empty() {
                let write_span = Span::start(Arc::clone(&self.state.telemetry.write_us));
                let progress = conn.wq.write_to(&mut conn.stream);
                drop(write_span);
                if progress.is_err() {
                    return Verdict::Close;
                }
            }
            if conn.closing && conn.wq.is_empty() {
                // Everything queued reached the wire (the outbox is
                // closed on every path that sets `closing`, so nothing
                // more can arrive).
                return Verdict::Close;
            }
            if resumed && !conn.closing && !conn.inbuf.is_empty() {
                match self.process_inbuf(conn) {
                    Verdict::Keep => continue, // may have queued responses
                    v => return v,
                }
            }
            return Verdict::Keep;
        }
    }

    fn finish(&mut self, token: u64, mut conn: Conn, verdict: Verdict) {
        match verdict {
            Verdict::Keep => {
                self.update_interest(&mut conn);
                self.conns.insert(token, conn);
            }
            Verdict::CloseAfterFlush => {
                // Teardown, in the threaded server's order: this
                // connection's subscriptions die with it, the outbox
                // closes (in-flight jobs' frames drop silently), and
                // already-queued frames still reach the wire.
                self.state.subs.drop_conn(conn.conn_id);
                conn.outbox.close();
                conn.closing = true;
                match self.pump(&mut conn) {
                    Verdict::Keep => {
                        self.update_interest(&mut conn);
                        self.conns.insert(token, conn);
                    }
                    _ => self.destroy(conn),
                }
            }
            Verdict::Close => {
                self.state.subs.drop_conn(conn.conn_id);
                conn.outbox.close();
                self.destroy(conn);
            }
            Verdict::Rescan => unreachable!("Rescan never escapes process_inbuf"), // lint:allow(panic_path) -- pump re-runs process_inbuf on Rescan; it never reaches finish
        }
    }

    fn update_interest(&mut self, conn: &mut Conn) {
        let want = Interest {
            // Backpressure: past the watermark the loop stops reading
            // (deregistering interest, not just skipping reads —
            // level-triggered epoll would otherwise spin).
            readable: !conn.closing && conn.wq.queued_bytes() <= WRITE_HIGH_WATERMARK,
            writable: !conn.wq.is_empty(),
        };
        if want != conn.interest
            && self
                .poller
                .modify(conn.stream.as_raw_fd(), conn.token, want)
                .is_ok()
        {
            conn.interest = want;
        }
    }

    fn destroy(&mut self, conn: Conn) {
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        // Cut the socket so a peer blocked on reads (a watcher awaiting
        // pushes) sees EOF promptly instead of hanging.
        let _ = conn.stream.shutdown(Shutdown::Both);
        self.state
            .telemetry
            .registry
            .remove_counter(&conn.shed_name);
        self.state.active_conns.fetch_sub(1, Ordering::SeqCst);
    }

    fn fire_timer(&mut self, ev: TimerEvent) {
        match ev {
            TimerEvent::Collect => {
                let Some(interval) = self.state.config.collect_interval else {
                    return;
                };
                if self.draining {
                    return;
                }
                // The tick runs on the pool, not the loop: collectors
                // may shell out or block on slow probes.
                let st = Arc::clone(self.state);
                if let Err(e) = self.state.scheduler.submit(None, move |_| {
                    run_collectors(&st);
                    save_dirty(&st);
                }) {
                    slog::warn(
                        "server",
                        &format!("collector tick could not be scheduled: {e}"),
                    );
                }
                self.timers
                    .arm(Instant::now() + interval, TimerEvent::Collect);
            }
            TimerEvent::Guard { slot, token } => {
                if slot.fulfill(Response::error("audit timed out")) {
                    token.cancel();
                }
            }
            TimerEvent::Fed(timer) => {
                let (ring, mut io) = self.ring_io();
                ring.on_timer(&mut io, timer);
            }
            TimerEvent::ShutdownLinger => {
                let stragglers: Vec<u64> = self.conns.keys().copied().collect();
                for token in stragglers {
                    if let Some(conn) = self.conns.remove(&token) {
                        self.destroy(conn);
                    }
                }
            }
        }
    }

    /// Enters the shutdown drain: stop accepting, fail every live
    /// federation party (its answer must reach an outbox still open),
    /// broadcast the farewell push to every subscribed connection (so a
    /// watcher can tell a clean drain from a dropped connection), close
    /// every outbox, and flush. Sockets that will not take their final
    /// bytes get [`SHUTDOWN_LINGER`], then force-close.
    fn begin_drain(&mut self) {
        self.draining = true;
        let (ring, mut io) = self.ring_io();
        ring.shutdown(&mut io);
        let _ = self.poller.delete(self.listener.as_raw_fd());
        let farewell = self.envelope_frame(EVENT_ENVELOPE_ID, Response::ShuttingDown);
        for outbox in self.state.subs.subscriber_outboxes() {
            outbox.push_response(farewell.clone());
        }
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let Some(mut conn) = self.conns.remove(&token) else {
                continue;
            };
            self.state.subs.drop_conn(conn.conn_id);
            conn.outbox.close();
            conn.closing = true;
            match self.pump(&mut conn) {
                Verdict::Keep => {
                    self.update_interest(&mut conn);
                    self.conns.insert(token, conn);
                }
                _ => self.destroy(conn),
            }
        }
        self.timers
            .arm(Instant::now() + SHUTDOWN_LINGER, TimerEvent::ShutdownLinger);
    }

    /// A typed response as one transport-ready v2 envelope frame (length
    /// prefix included), for answers the loop sends without a slot.
    fn envelope_frame(&self, id: u64, body: Response) -> Vec<u8> {
        frame_answer(
            SlotEncoding::V2 { id },
            &encode_line(&body),
            &self.state.telemetry.response_bytes,
        )
    }

    /// Enqueues one v1/greeting response line on the connection's outbox,
    /// counting it so the pump exempts it from the v2 write fault point.
    fn push_line(&self, conn: &mut Conn, response: &Response) {
        let line = frame_answer(
            SlotEncoding::V1,
            &encode_line(response),
            &self.state.telemetry.response_bytes,
        );
        if conn.outbox.push_response(line) {
            conn.line_frames_queued += 1;
        }
    }
}
