//! The readiness loop: one thread, one `epoll` instance, every client
//! connection.
//!
//! One loop owns the listener, every client socket, an eventfd
//! [`Waker`], and a [`TimerWheel`], so the daemon's thread count does
//! not grow with its connections or with the requests in flight:
//!
//! - **Reads** append whatever the kernel has ready to a per-connection
//!   buffer; the incremental codecs ([`crate::codec`]) pop complete
//!   lines/frames out of it, so byte-at-a-time delivery decodes exactly
//!   like whole-message delivery.
//! - **Writes** are posted to the loop's one inbox ([`LoopShared`]) as
//!   fully-framed bytes addressed by connection token, from worker
//!   threads and from the loop alike. The loop delivers them to their
//!   connection's held frames and from there into a [`WriteQueue`] it
//!   drains on `EPOLLOUT`, resuming mid-frame across `WouldBlock`.
//!   Frames move on only while the write queue is under its
//!   high-watermark, so the held frames' bounded event shedding is what
//!   a stalled reader meets.
//! - **Requests** on either protocol get a [`ResponseSlot`] and go
//!   through one `match` (`EventLoop::dispatch`): cheap ones are
//!   answered inline, cache-miss audits are admitted onto the bounded
//!   [`Scheduler`](crate::scheduler::Scheduler) pool with the slot the
//!   job fulfills when done — no thread waits for the result. A guard
//!   timer answers for a wedged worker; a [`CrashGuard`] answers for a
//!   panicked one. Only line mode's greeting (`Hello`, `FederateHello`)
//!   is handled before dispatch: it switches the connection's mode.
//! - **Timers** drive the collector ticks, per-request deadline guards,
//!   and every federation deadline and retry backoff.
//! - **Federation** is loop state too ([`crate::federation`]): a
//!   `FederateHello` switches its connection to peer mode, whose round
//!   frames route through the loop-owned session table; a
//!   `FederateStart` becomes a party whose crypto runs as pool jobs and
//!   whose successor link is one more non-blocking socket on the poller.

use std::collections::{HashMap, VecDeque};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use indaas_core::CancelToken;
use indaas_netpoll::{Event, Interest, Poller, TimerWheel, Waker};
use indaas_obs::{log as slog, Counter, Span, TraceContext};

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
use crate::subs::MAX_OUTBOX_EVENTS;
use crate::telemetry::Telemetry;

/// Token the listener is registered under.
const LISTENER_TOKEN: u64 = 0;
/// Token the eventfd waker is registered under.
const WAKER_TOKEN: u64 = 1;
/// First token handed to a client connection.
const FIRST_CONN_TOKEN: u64 = 16;
/// Bytes of pending output past which the loop stops *reading* a
/// connection and stops moving its held frames into the write queue —
/// a peer that writes requests faster than it drains responses gets TCP
/// backpressure, and a subscriber that stops reading sheds events from
/// its bounded held frames, instead of either costing unbounded server
/// memory.
const WRITE_HIGH_WATERMARK: usize = 4 * 1024 * 1024;
/// Socket-read chunks serviced per readiness event before yielding to
/// other connections (level-triggered epoll re-reports the remainder).
const MAX_FILLS_PER_EVENT: usize = 8;
/// How long the shutdown drain waits for blocked sockets to flush
/// their final frames before force-closing them.
const SHUTDOWN_LINGER: Duration = Duration::from_secs(2);

/// The loop's one inbox, and the only way into it from another thread:
/// frames addressed to a connection by its token, and federation pool
/// jobs' results, in post order. [`ServiceState`] owns it; the loop
/// takes everything posted at least once per turn.
pub(crate) struct LoopShared {
    waker: Waker,
    /// The loop's thread, once it runs: a post from it is taken later in
    /// the same turn, so it needs no wake.
    loop_thread: OnceLock<ThreadId>,
    posts: Mutex<Vec<Post>>,
}

/// One item of the loop's inbox.
enum Post {
    /// A framed answer, line or pushed event for the connection whose
    /// token it names.
    Frame(u64, FrameKind, Vec<u8>),
    /// Boxed: a party's keyed state would bloat every frame post.
    Party(Box<PartyPost>),
}

impl LoopShared {
    /// An empty inbox whose waker is registered with `poller`.
    pub(crate) fn new(poller: &Poller) -> std::io::Result<Self> {
        Ok(LoopShared {
            waker: Waker::new(poller, WAKER_TOKEN)?,
            loop_thread: OnceLock::new(),
            posts: Mutex::new(Vec::new()),
        })
    }

    /// Posts one frame for connection `conn`. It is dropped on delivery
    /// if that connection is gone or began closing before the post.
    pub(crate) fn post_frame(&self, conn: u64, kind: FrameKind, frame: Vec<u8>) {
        self.post(Post::Frame(conn, kind, frame));
    }

    /// Hands a federation pool job's result to the loop.
    pub(crate) fn post_party(&self, post: PartyPost) {
        self.post(Post::Party(Box::new(post)));
    }

    fn post(&self, post: Post) {
        self.posts
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(post);
        if self.loop_thread.get() != Some(&std::thread::current().id()) {
            self.waker.wake();
        }
    }

    fn take(&self) -> Vec<Post> {
        std::mem::take(&mut *self.posts.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Takes the frames posted for `conn` and not yet delivered, in post
    /// order, leaving every other post in place.
    fn take_frames(&self, conn: u64) -> Vec<(FrameKind, Vec<u8>)> {
        self.posts
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extract_if(
                ..,
                |post| matches!(post, Post::Frame(token, ..) if *token == conn),
            )
            .filter_map(|post| match post {
                Post::Frame(_, kind, frame) => Some((kind, frame)),
                Post::Party(_) => None,
            })
            .collect()
    }
}

/// What a posted frame is, set by whoever framed it. The readiness
/// loop's `svc.frame.write` fault point covers envelopes only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FrameKind {
    /// An NDJSON line: a greeting, a v1 answer or a peer-session error.
    Line,
    /// A length-prefixed v2 envelope answering a request (or announcing
    /// shutdown).
    Answer,
    /// A pushed `AuditEvent` envelope: the only kind a connection sheds.
    Event,
}

/// A connection's frames that its write queue has not taken yet. The
/// pump moves them on only while the queue is under
/// [`WRITE_HIGH_WATERMARK`], so what a stalled reader is sent waits here.
#[derive(Default)]
struct Held {
    frames: VecDeque<(FrameKind, Vec<u8>)>,
    events: usize,
}

impl Held {
    /// Holds one frame. Answers and lines are never shed: a v2
    /// connection's in-flight cap and a line session's lock-step bound
    /// them. Past [`MAX_OUTBOX_EVENTS`] held events the oldest event is
    /// shed first, counted in `shed`: a dashboard that fell behind wants
    /// the freshest result, not a replay of every intermediate one.
    fn push(&mut self, kind: FrameKind, frame: Vec<u8>, shed: &Counter) {
        if kind == FrameKind::Event {
            if self.events >= MAX_OUTBOX_EVENTS {
                if let Some(pos) = self.frames.iter().position(|(k, _)| *k == FrameKind::Event) {
                    self.frames.remove(pos);
                    self.events -= 1;
                    shed.inc();
                }
            }
            self.events += 1;
        }
        self.frames.push_back((kind, frame));
    }

    fn pop(&mut self) -> Option<(FrameKind, Vec<u8>)> {
        let (kind, frame) = self.frames.pop_front()?;
        if kind == FrameKind::Event {
            self.events -= 1;
        }
        Some((kind, frame))
    }
}

/// One outstanding request's answer-exactly-once cell. Whoever fulfills
/// it first — the job, the deadline guard timer, or the crash guard —
/// wins; later calls are no-ops. Fulfilling records the dispatch
/// latency and the request span, frames the response for the session's
/// protocol, and posts it to the loop for the connection `conn`.
pub(crate) struct ResponseSlot {
    claimed: AtomicBool,
    inbox: Arc<LoopShared>,
    conn: u64,
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
        let kind = match self.encoding {
            SlotEncoding::V1 => FrameKind::Line,
            SlotEncoding::V2 { .. } => FrameKind::Answer,
        };
        self.inbox.post_frame(self.conn, kind, frame);
        if let Some(gauge) = &self.in_flight {
            gauge.fetch_sub(1, Ordering::AcqRel);
        }
        true
    }
}

/// Fulfills its slot with the crash message when dropped unclaimed —
/// jobs own one so a panic mid-audit (unwound by the scheduler's
/// `catch_unwind`) still answers the request.
pub(crate) struct CrashGuard(pub(crate) Arc<ResponseSlot>);

impl Drop for CrashGuard {
    fn drop(&mut self) {
        self.0
            .fulfill(Response::error("audit job crashed; see server log"));
    }
}

/// A guard timer fired. A job that still holds its slot is wedged: the
/// guard answers for it and cancels it. A slot nobody holds was answered.
fn fire_guard(slot: &Weak<ResponseSlot>, token: &CancelToken) {
    let timed_out = |s: Arc<ResponseSlot>| s.fulfill(Response::error("audit timed out"));
    if slot.upgrade().is_some_and(timed_out) {
        token.cancel();
    }
}

/// What the loop's timer wheel carries.
pub(crate) enum TimerEvent {
    /// Re-run the registered collectors.
    Collect,
    /// A pooled job's deadline-plus-grace guard: answers "audit timed
    /// out" for a wedged worker and cancels its token. The slot is held
    /// weakly, so an answered slot is freed when its job ends, not when
    /// the guard fires.
    Guard {
        slot: Weak<ResponseSlot>,
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
        /// Lines consumed whose answer the pump has not yet moved into
        /// the write queue: every line consumed is answered by exactly
        /// one line, in order.
        owed: usize,
        /// A pool job or federation party owes the last line's answer:
        /// parsing pauses until that answer, the last one owed, is moved
        /// (lock-step, as the blocking loop behaved).
        busy: bool,
    },
    /// Negotiated protocol ≥ 2: length-prefixed envelope frames, many
    /// ids in flight.
    Frames,
    /// An accepted `FederateHello`: length-prefixed round frames, no
    /// answers but one error line before a protocol violation closes it.
    Peer,
}

/// One client connection's entire state.
struct Conn {
    /// The connection's poller token, never reused within a loop: also
    /// its id, which its subscriptions are keyed by.
    token: u64,
    stream: TcpStream,
    held: Held,
    inbuf: Vec<u8>,
    wq: WriteQueue,
    mode: Mode,
    interest: Interest,
    /// Read side is done (EOF, protocol violation, shutdown drain):
    /// flush what was posted before, drop what is posted after, then
    /// close.
    closing: bool,
    in_flight: Arc<AtomicUsize>,
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

/// A pool job or federation party owes the answer to a line session's
/// last line: it stops parsing until that answer is moved (the pump
/// resumes it).
fn await_answer(conn: &mut Conn) {
    if let Mode::Line { busy, .. } = &mut conn.mode {
        *busy = true;
    }
}

/// Runs the readiness loop until shutdown completes. This is
/// `Server::run`'s core; the caller handles pool teardown and the
/// final segment saves.
pub(crate) fn run_loop(
    listener: TcpListener,
    poller: Poller,
    state: &Arc<ServiceState>,
) -> std::io::Result<()> {
    EventLoop::new(listener, poller, state)?.serve()
}

struct EventLoop<'a> {
    state: &'a Arc<ServiceState>,
    poller: Poller,
    listener: TcpListener,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    timers: TimerWheel<TimerEvent>,
    ring: Ring,
    draining: bool,
}

impl<'a> EventLoop<'a> {
    /// A loop on the calling thread over `listener` and `poller` (which
    /// `state`'s inbox wakes).
    fn new(
        listener: TcpListener,
        poller: Poller,
        state: &'a Arc<ServiceState>,
    ) -> std::io::Result<Self> {
        listener.set_nonblocking(true)?;
        poller.add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;
        let _ = state.inbox.loop_thread.set(std::thread::current().id());
        let mut timers = TimerWheel::new();
        if let Some(interval) = state.config.collect_interval {
            timers.arm(Instant::now() + interval, TimerEvent::Collect);
        }
        Ok(EventLoop {
            state,
            poller,
            listener,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            timers,
            ring: Ring::default(),
            draining: false,
        })
    }

    /// The federation ring plus the loop resources it drives parties with.
    fn ring_io(&mut self) -> (&mut Ring, LoopIo<'_>) {
        let io = LoopIo {
            state: self.state,
            poller: &self.poller,
            timers: &mut self.timers,
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
            self.state.telemetry.loop_ready_events.record(n as u64);
            for ev in events.iter().copied() {
                match ev.token {
                    LISTENER_TOKEN => {
                        if !self.draining {
                            self.accept_ready()?;
                        }
                    }
                    WAKER_TOKEN => self.state.inbox.waker.drain(),
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
            // Before the timers, so a party's result beats its deadline
            // in the same turn; after them, for the answers they gave.
            self.deliver_posts();
            let now = Instant::now();
            while let Some((_, ev)) = self.timers.pop_expired(now) {
                self.fire_timer(ev);
            }
            self.deliver_posts();
            let queued: usize = self.conns.values().map(|c| c.wq.queued_bytes()).sum();
            self.state.telemetry.write_queue_depth.set(queued as u64);
        }
    }

    /// Delivers the inbox until it stays empty: each frame joins its
    /// connection's held frames, or is dropped when that connection is
    /// gone (tokens are never reused) or closing; each party result goes
    /// to the ring. Every connection that gained a frame is pumped once
    /// the whole batch is held; a line session the pump resumes posts
    /// its next answers for a later pass.
    fn deliver_posts(&mut self) {
        loop {
            let posts = self.state.inbox.take();
            if posts.is_empty() {
                return;
            }
            let mut gained = Vec::new();
            for post in posts {
                match post {
                    Post::Frame(token, kind, frame) => {
                        if let Some(conn) = self.conns.get_mut(&token).filter(|c| !c.closing) {
                            let shed = &self.state.telemetry.outbox_shed_total;
                            conn.held.push(kind, frame, shed);
                            if gained.last() != Some(&token) {
                                gained.push(token);
                            }
                        }
                    }
                    Post::Party(post) => {
                        let (ring, mut io) = self.ring_io();
                        ring.on_post(&mut io, *post);
                    }
                }
            }
            for token in gained {
                self.service_writable(token);
            }
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
        let active_conns = &self.state.telemetry.active_conns;
        active_conns.add(1);
        let occupied = active_conns.get();
        let max = self.state.config.max_conns as u64;
        let token = self.next_token;
        self.next_token += 1;
        let conn = Conn {
            token,
            stream,
            held: Held::default(),
            inbuf: Vec::new(),
            wq: WriteQueue::new(),
            mode: Mode::Line {
                greeted: false,
                owed: 0,
                busy: false,
            },
            interest: Interest::READABLE,
            closing: false,
            in_flight: Arc::new(AtomicUsize::new(0)),
        };
        if self
            .poller
            .add(conn.stream.as_raw_fd(), token, conn.interest)
            .is_err()
        {
            self.destroy(conn);
            return;
        }
        if occupied > max {
            // Admission control: one clear error, then the connection is
            // flushed and dropped before it can claim loop state.
            self.push_line(
                &conn,
                &Response::error(format!(
                    "connection limit reached ({max} concurrent connections); retry later"
                )),
            );
            self.finish(token, conn, Verdict::CloseAfterFlush);
        } else {
            self.conns.insert(token, conn);
        }
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

    /// Writable socket or delivered frames: held frames → write queue →
    /// socket.
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
                // EOF and read errors stop reading but still flush what
                // is queued, then sever: answers already owed to a
                // half-closed peer still reach it.
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
                    self.push_envelope(
                        conn,
                        EVENT_ENVELOPE_ID,
                        Response::error(format!("request frame exceeds {MAX_REQUEST_LINE} bytes")),
                    );
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
            // sender's retry, on a fresh dial, is what recovers.
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
                self.push_envelope(
                    conn,
                    EVENT_ENVELOPE_ID,
                    Response::error(format!("malformed envelope: {e}")),
                );
                return Verdict::CloseAfterFlush;
            }
        };
        if id == EVENT_ENVELOPE_ID {
            self.push_envelope(
                conn,
                EVENT_ENVELOPE_ID,
                Response::error("envelope id 0 is reserved for server pushes"),
            );
            return Verdict::CloseAfterFlush;
        }
        state.telemetry.requests_total.inc();
        if conn.in_flight.load(Ordering::Acquire) >= MAX_IN_FLIGHT_REQUESTS {
            self.push_envelope(
                conn,
                id,
                Response::error(format!(
                    "too many in-flight requests (max {MAX_IN_FLIGHT_REQUESTS})"
                )),
            );
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
            let Mode::Line {
                greeted,
                owed,
                busy,
            } = conn.mode
            else {
                return Verdict::Rescan;
            };
            if busy {
                // Lock-step: the pool owns the current request; the
                // pump resumes parsing when its answer is moved.
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
            conn.mode = Mode::Line {
                greeted: true,
                owed: owed + 1,
                busy: false,
            };
            let request = match decode_line::<Request>(line.trim()) {
                Ok(request) => request,
                Err(e) => {
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
            inbox: Arc::clone(&self.state.inbox),
            conn: conn.token,
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
                match register_subscription(state, spec, &engine, conn.token) {
                    Ok((subscription, spec)) => {
                        // Answer first, then the initial audit: the
                        // inbox is FIFO, so `Subscribed` reaches the
                        // wire before the first `AuditEvent` can.
                        slot.fulfill(Response::Subscribed { subscription });
                        let now = Instant::now();
                        schedule_push_audit(state, subscription, spec, conn.token, now, slot.ctx);
                        return Verdict::Keep;
                    }
                    Err(message) => Response::error(message),
                }
            }
            Request::Unsubscribe { subscription } => {
                match state.subs.unregister(subscription, conn.token) {
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

    /// Moves held frames into the write queue (one `svc.frame.write`
    /// fault check per frame), writes what the socket will take, and
    /// resumes a lock-step line session once its answer is moved. Past
    /// [`WRITE_HIGH_WATERMARK`] frames stay held, so a subscriber that
    /// stops reading sheds its oldest events there instead of growing
    /// the write queue.
    fn pump(&mut self, conn: &mut Conn) -> Verdict {
        let mut resumed = false;
        loop {
            let full = loop {
                if conn.wq.queued_bytes() > WRITE_HIGH_WATERMARK {
                    break true;
                }
                let Some((kind, frame)) = conn.held.pop() else {
                    break false;
                };
                if let Mode::Line { owed, busy, .. } = &mut conn.mode {
                    // Saturating: the two lines that answer no consumed
                    // line (an oversized line, the connection limit)
                    // each close the session.
                    *owed = owed.saturating_sub(1);
                    if *busy && *owed == 0 {
                        *busy = false;
                        resumed = true;
                    }
                }
                // Chaos hook: `svc.frame.write` loses one outgoing
                // envelope or severs the connection under the drain.
                // Lines — greeting, v1 answers, peer-session errors — pass
                // unchecked: a lost envelope fails its own id, but a
                // lock-step v1 client that loses its answer line waits
                // forever.
                if kind != FrameKind::Line {
                    let fault = indaas_faultinj::point(indaas_faultinj::points::SVC_FRAME_WRITE);
                    if fault == indaas_faultinj::FaultAction::Drop {
                        continue;
                    }
                    if fault != indaas_faultinj::FaultAction::Pass {
                        return Verdict::Close;
                    }
                }
                conn.wq.push(frame);
            };
            if !conn.wq.is_empty() {
                let write_span = Span::start(Arc::clone(&self.state.telemetry.write_us));
                let progress = conn.wq.write_to(&mut conn.stream);
                drop(write_span);
                if progress.is_err() {
                    return Verdict::Close;
                }
            }
            if full && conn.wq.queued_bytes() <= WRITE_HIGH_WATERMARK {
                continue; // the write made room for held frames
            }
            if conn.closing && conn.wq.is_empty() {
                // Everything posted before the close reached the wire:
                // `begin_close` held it, an empty write queue means
                // nothing is held any more, and later posts are dropped.
                return Verdict::Close;
            }
            if resumed && !conn.closing && !conn.inbuf.is_empty() {
                // The answers it posts are delivered on a later pass.
                return self.process_inbuf(conn);
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
                self.begin_close(&mut conn);
                match self.pump(&mut conn) {
                    Verdict::Keep => {
                        self.update_interest(&mut conn);
                        self.conns.insert(token, conn);
                    }
                    _ => self.destroy(conn),
                }
            }
            Verdict::Close => {
                self.state.subs.drop_conn(conn.token);
                self.destroy(conn);
            }
            Verdict::Rescan => unreachable!("Rescan never escapes process_inbuf"), // lint:allow(panic_path) -- pump re-runs process_inbuf on Rescan; it never reaches finish
        }
    }

    /// Stops reading `conn` and ends its subscriptions. What was posted
    /// to it before still reaches the wire: it is held here, ahead of
    /// the inbox's next delivery, which drops whatever is posted to it
    /// from now on (an in-flight job's late answer vanishes silently).
    fn begin_close(&self, conn: &mut Conn) {
        if conn.closing {
            return;
        }
        conn.closing = true;
        self.state.subs.drop_conn(conn.token);
        let shed = &self.state.telemetry.outbox_shed_total;
        for (kind, frame) in self.state.inbox.take_frames(conn.token) {
            conn.held.push(kind, frame, shed);
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
        self.state.telemetry.active_conns.sub(1);
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
            TimerEvent::Guard { slot, token } => fire_guard(&slot, &token),
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
    /// federation party, post the farewell push to every subscribed
    /// connection (so a watcher can tell a clean drain from a dropped
    /// connection), then begin closing every connection, which flushes
    /// all of that and every earlier post. Sockets that will not take
    /// their final bytes get [`SHUTDOWN_LINGER`], then force-close.
    fn begin_drain(&mut self) {
        self.draining = true;
        let (ring, mut io) = self.ring_io();
        ring.shutdown(&mut io);
        let _ = self.poller.delete(self.listener.as_raw_fd());
        let farewell = self.envelope_frame(EVENT_ENVELOPE_ID, Response::ShuttingDown);
        for token in self.state.subs.subscribers() {
            self.state
                .inbox
                .post_frame(token, FrameKind::Answer, farewell.clone());
        }
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.remove(&token) {
                self.finish(token, conn, Verdict::CloseAfterFlush);
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

    /// Posts one answer envelope on id `id` to `conn`.
    fn push_envelope(&self, conn: &Conn, id: u64, response: Response) {
        let frame = self.envelope_frame(id, response);
        self.state
            .inbox
            .post_frame(conn.token, FrameKind::Answer, frame);
    }

    /// Posts one greeting, v1 answer or peer-session error line to `conn`.
    fn push_line(&self, conn: &Conn, response: &Response) {
        let frame = frame_answer(
            SlotEncoding::V1,
            &encode_line(response),
            &self.state.telemetry.response_bytes,
        );
        self.state
            .inbox
            .post_frame(conn.token, FrameKind::Line, frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indaas_obs::Histo;
    use std::io::Read;

    const ID: u64 = 7;
    const KIND: &str = "request:AuditSia";

    /// The three parties that may answer a pooled request: the job's
    /// spliced body, the deadline guard's timeout, and the crash guard a
    /// job drops. Each answers with a distinct response, so the frame
    /// posted to the inbox names the winner.
    const JOB: usize = 0;
    const GUARD: usize = 1;
    const CRASH: usize = 2;

    fn answer(who: usize) -> Response {
        match who {
            JOB => Response::Pong,
            GUARD => Response::error("audit timed out"),
            _ => Response::error("audit job crashed; see server log"),
        }
    }

    /// The token the test slots answer.
    const CONN: u64 = FIRST_CONN_TOKEN;

    /// An inbox over a fresh poller (its waker needs one registered).
    fn inbox() -> Arc<LoopShared> {
        Arc::new(LoopShared::new(&Poller::new().unwrap()).unwrap())
    }

    /// Takes every frame posted to `inbox`, in post order: its token and
    /// bytes.
    fn posted(inbox: &LoopShared) -> Vec<(u64, Vec<u8>)> {
        inbox
            .take()
            .into_iter()
            .map(|post| match post {
                Post::Frame(token, _, frame) => (token, frame),
                Post::Party(_) => panic!("a party post where only frames were posted"),
            })
            .collect()
    }

    /// A v2 slot over a fresh inbox and telemetry, its connection's
    /// in-flight gauge at 1 as dispatch leaves it.
    fn slot() -> (Arc<ResponseSlot>, Arc<AtomicUsize>) {
        let gauge = Arc::new(AtomicUsize::new(1));
        let slot = Arc::new(ResponseSlot {
            claimed: AtomicBool::new(false),
            inbox: inbox(),
            conn: CONN,
            encoding: SlotEncoding::V2 { id: ID },
            in_flight: Some(Arc::clone(&gauge)),
            ctx: TraceContext::root(),
            kind: KIND,
            started: Instant::now(),
            telemetry: Arc::new(Telemetry::new(0)),
        });
        (slot, gauge)
    }

    /// Runs one fulfiller; `None` for the crash guard, whose drop
    /// reports nothing.
    fn fire(slot: &Arc<ResponseSlot>, who: usize) -> Option<bool> {
        match who {
            JOB => Some(slot.fulfill_body(&encode_line(&answer(JOB)))),
            GUARD => Some(slot.fulfill(answer(GUARD))),
            _ => {
                drop(CrashGuard(Arc::clone(slot)));
                None
            }
        }
    }

    /// Exactly one answer, `winner`'s, with one latency sample, one
    /// request span under the slot's context and the gauge released.
    fn assert_answered_once(slot: &ResponseSlot, gauge: &AtomicUsize, winner: usize) {
        let expected = frame_answer(
            SlotEncoding::V2 { id: ID },
            &encode_line(&answer(winner)),
            &Histo::new(),
        );
        assert_eq!(
            posted(&slot.inbox),
            [(CONN, expected)],
            "exactly one frame, the winner's"
        );
        assert_eq!(slot.telemetry.dispatch_us.snapshot().count, 1);
        let spans = slot.telemetry.spans.spans_for(slot.ctx.trace_id);
        assert_eq!(spans.len(), 1, "one request span");
        assert_eq!(
            (spans[0].span_id, spans[0].name.as_str()),
            (slot.ctx.span_id, KIND)
        );
        assert_eq!(gauge.load(Ordering::SeqCst), 0, "in-flight gauge released");
    }

    /// Every order of the three fulfillers: the first call claims the
    /// slot and every later one is a no-op. This covers call orders, not
    /// the memory model — interleavings inside `fulfill_body` under weak
    /// ordering are not explored.
    #[test]
    fn response_slot_answers_once_in_every_order() {
        let orders = [
            [JOB, GUARD, CRASH],
            [JOB, CRASH, GUARD],
            [GUARD, JOB, CRASH],
            [GUARD, CRASH, JOB],
            [CRASH, JOB, GUARD],
            [CRASH, GUARD, JOB],
        ];
        for order in orders {
            let (slot, gauge) = slot();
            for (i, &who) in order.iter().enumerate() {
                if let Some(claimed) = fire(&slot, who) {
                    assert_eq!(claimed, i == 0, "order {order:?}, call {i}");
                }
            }
            assert_answered_once(&slot, &gauge, order[0]);
        }
    }

    /// The three fulfillers racing on three threads, 1,000 times: the
    /// same invariants hold whichever wins.
    #[test]
    fn response_slot_answers_once_under_a_three_thread_race() {
        for _ in 0..1000 {
            let (slot, gauge) = slot();
            let barrier = std::sync::Barrier::new(3);
            let claims = std::thread::scope(|s| {
                [JOB, GUARD, CRASH]
                    .map(|who| {
                        let (slot, barrier) = (&slot, &barrier);
                        s.spawn(move || {
                            barrier.wait();
                            fire(slot, who)
                        })
                    })
                    .map(|h| h.join().unwrap())
            });
            // At most one call claimed the slot; when neither reporting
            // call did, the silent crash guard must have.
            assert!(claims.iter().filter(|&&c| c == Some(true)).count() <= 1);
            let winner = [JOB, GUARD]
                .into_iter()
                .find(|&who| claims[who] == Some(true))
                .unwrap_or(CRASH);
            assert_answered_once(&slot, &gauge, winner);
        }
    }

    /// The guard holds its slot weakly. While the job holds the slot,
    /// firing answers "audit timed out" and cancels the job. Once the
    /// job has answered and dropped it, the slot is freed, and firing
    /// answers nothing and cancels nothing.
    #[test]
    fn guard_answers_only_for_a_slot_its_job_still_holds() {
        let (held, gauge) = slot();
        let token = CancelToken::new();
        fire_guard(&Arc::downgrade(&held), &token);
        assert_answered_once(&held, &gauge, GUARD);
        assert!(token.state().is_some(), "the wedged job is cancelled");

        let (answered, _gauge) = slot();
        let guard = Arc::downgrade(&answered);
        let inbox = Arc::clone(&answered.inbox);
        fire(&answered, JOB);
        drop(answered);
        assert!(guard.upgrade().is_none(), "the answered slot is freed");
        let token = CancelToken::new();
        fire_guard(&guard, &token);
        let frames = posted(&inbox);
        assert_eq!(frames.len(), 1, "the job's answer, and none from the guard");
        assert_eq!(token.state(), None, "nothing cancelled");
    }

    /// Pops every held frame's bytes.
    fn drain(held: &mut Held) -> Vec<Vec<u8>> {
        std::iter::from_fn(|| held.pop().map(|(_, frame)| frame)).collect()
    }

    #[test]
    fn events_shed_oldest_but_responses_never_do() {
        let shed = Counter::new();
        let mut held = Held::default();
        held.push(FrameKind::Answer, b"resp".to_vec(), &shed);
        for i in 0..(MAX_OUTBOX_EVENTS + 10) {
            held.push(FrameKind::Event, format!("ev{i}").into_bytes(), &shed);
        }
        held.push(FrameKind::Line, b"line".to_vec(), &shed);
        assert_eq!(shed.get(), 10);
        // The answer survives at the front; the oldest 10 events are
        // gone, the newest is still last of them, and the line follows.
        let frames = drain(&mut held);
        assert_eq!(frames.len(), MAX_OUTBOX_EVENTS + 2);
        assert_eq!(frames[0], b"resp");
        assert_eq!(frames[1], b"ev10");
        assert_eq!(
            frames[MAX_OUTBOX_EVENTS],
            format!("ev{}", MAX_OUTBOX_EVENTS + 9).into_bytes()
        );
        assert_eq!(frames[MAX_OUTBOX_EVENTS + 1], b"line");
    }

    #[test]
    fn shed_counters_track_lost_events() {
        let shed = Counter::new();
        let mut held = Held::default();
        for i in 0..(MAX_OUTBOX_EVENTS + 3) {
            held.push(FrameKind::Event, format!("ev{i}").into_bytes(), &shed);
        }
        assert_eq!(shed.get(), 3);
        // Popping makes room again: the next event sheds nothing.
        held.pop();
        held.push(FrameKind::Event, b"next".to_vec(), &shed);
        assert_eq!(shed.get(), 3);
    }

    /// A post from off the loop thread wakes the poller once; a post
    /// from the loop thread wakes nothing, since the loop takes it later
    /// in the same turn. Either way the frames are taken in post order.
    #[test]
    fn posts_wake_the_loop_only_from_off_its_thread() {
        let poller = Poller::new().unwrap();
        let inbox = LoopShared::new(&poller).unwrap();
        inbox.loop_thread.set(std::thread::current().id()).unwrap();
        let mut events = Vec::new();
        let mut wakes = |inbox: &LoopShared| {
            let n = poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
            inbox.waker.drain();
            n
        };
        inbox.post_frame(CONN, FrameKind::Answer, b"a".to_vec());
        assert_eq!(wakes(&inbox), 0, "no wake from the loop thread");
        for frame in [b"b", b"c"] {
            std::thread::scope(|s| {
                s.spawn(|| inbox.post_frame(CONN, FrameKind::Event, frame.to_vec()));
            });
            assert_eq!(wakes(&inbox), 1, "one wake per post from off the loop");
        }
        let frames: Vec<Vec<u8>> = posted(&inbox).into_iter().map(|(_, f)| f).collect();
        assert_eq!(frames, [b"a", b"b", b"c"]);
        assert_eq!(wakes(&inbox), 0, "taking wakes nothing");
    }

    /// Delivery by token: a frame for an unknown or a closed token is
    /// dropped; a frame posted before its connection began closing is
    /// still flushed, and one posted after is dropped.
    #[test]
    fn frames_for_closed_or_unknown_tokens_drop_while_earlier_frames_drain() {
        let config = crate::ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..crate::ServeConfig::default()
        };
        let crate::Server {
            listener,
            poller,
            state,
        } = crate::Server::bind(config, indaas_deps::ShardedDepDb::new(1)).unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut el = EventLoop::new(listener, poller, &state).unwrap();
        while el.conns.is_empty() {
            el.accept_ready().unwrap();
        }
        let answer = |token, frame: &[u8]| {
            state
                .inbox
                .post_frame(token, FrameKind::Answer, frame.to_vec());
        };
        answer(CONN, b"a");
        answer(CONN + 1, b"stray");
        el.deliver_posts();
        answer(CONN, b"b");
        let mut conn = el.conns.remove(&CONN).unwrap();
        el.begin_close(&mut conn);
        el.conns.insert(CONN, conn);
        answer(CONN, b"late");
        el.deliver_posts();
        let held: Vec<&[u8]> = el.conns[&CONN]
            .held
            .frames
            .iter()
            .map(|(_, f)| &f[..])
            .collect();
        assert_eq!(
            held,
            [b"b"],
            "b, posted before the close, and not the late frame"
        );
        el.service_writable(CONN);
        assert!(el.conns.is_empty(), "flushed, then closed");
        answer(CONN, b"closed");
        el.deliver_posts();
        let mut wire = Vec::new();
        client.read_to_end(&mut wire).unwrap();
        assert_eq!(wire, b"ab");
    }
}
